"""The documentation health check in scripts/check_docs.py."""

import importlib.util
import pathlib
import sys

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parents[1] / "scripts" / "check_docs.py"
)
_spec = importlib.util.spec_from_file_location("check_docs", _SCRIPT)
check_docs = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_docs", check_docs)
_spec.loader.exec_module(check_docs)


def problems(tmp_path, text):
    doc = tmp_path / "doc.md"
    doc.write_text(text)
    return [message for _, message in check_docs.iter_problems(doc)]


class TestClassAttributeReferences:
    def test_deleted_config_field_fails(self, tmp_path):
        found = problems(tmp_path, "Set `OneQConfig.map_jobs` to fan out.\n")
        assert len(found) == 1
        assert "'map_jobs' is not an attribute of OneQConfig" in found[0]

    @pytest.mark.parametrize(
        "span",
        [
            "OneQConfig(route_radius=3)",
            "OneQConfig(alpha=2.0, connect_radius=1)",
            "InLayerMapper._bfs_path_scalar(start)",
        ],
    )
    def test_stale_spans_fail(self, tmp_path, span):
        assert len(problems(tmp_path, f"`{span}`\n")) == 1

    @pytest.mark.parametrize(
        "span",
        [
            "OneQConfig.blocked_cells",  # dataclass field
            "OneQConfig(alpha=2.0, use_embedding=False)",
            "HardwareConfig.extended_shape",  # property
            "InLayerMapper.map_fusion_graph(fusion)",  # method call
            "InLayerMapper.placements",  # self.attr assignment
            "CompileService.pool_restarts",
            "NoViableSitesError.args",  # inherited from RuntimeError
            "Future.result",  # class not defined in src/repro
            "RunSpec.key()",
        ],
    )
    def test_live_or_foreign_spans_pass(self, tmp_path, span):
        assert problems(tmp_path, f"`{span}`\n") == []

