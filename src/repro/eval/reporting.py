"""Text renderers for the experiment runners (paper-style tables).

Every compile-backed renderer reads :class:`repro.eval.batch.RunRecord`
rows and groups them by the column its figure sweeps.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.baseline.metrics import BaselineAreas
from repro.eval.batch import RunRecord
from repro.eval.experiments import PAPER_TABLE2


def _table(headers: Sequence[str], rows: List[Sequence[object]]) -> str:
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_table1(rows: List[Tuple[str, BaselineAreas]]) -> str:
    """Table 1: benchmark sizes and baseline areas."""
    body = [
        (
            f"{name}-{areas.num_qubits}",
            areas.num_qubits,
            f"{areas.cluster_side}x{areas.cluster_side}",
            f"{areas.physical_side}x{areas.physical_side}",
        )
        for name, areas in rows
    ]
    return _table(["Name", "#qubit", "cluster area", "physical area"], body)


def render_table2(records: List[RunRecord], with_paper: bool = True) -> str:
    """Table 2: baseline vs OneQ depth and #fusions + improvements."""
    headers = [
        "Name-#q",
        "Base Depth",
        "Our Depth",
        "Improv.",
        "Base #Fus",
        "Our #Fus",
        "Improv.",
    ]
    if with_paper:
        headers += ["Paper D-Improv.", "Paper F-Improv."]
    body = []
    for r in records:
        cells = [
            r.label,
            r.baseline_depth,
            r.depth,
            f"{r.depth_improvement:.0f}x",
            f"{r.baseline_fusions:,}",
            f"{r.num_fusions:,}",
            f"{r.fusion_improvement:.0f}x",
        ]
        if with_paper:
            paper = PAPER_TABLE2.get((r.benchmark, r.num_qubits))
            if paper:
                bd, od, bf, of = paper
                cells += [f"{bd / od:.0f}x", f"{bf / of:.0f}x"]
            else:
                cells += ["-", "-"]
        body.append(cells)
    return _table(headers, body)


def _sweep(
    records: Sequence[RunRecord], row: str, column: str
) -> Dict[Any, Dict[Any, RunRecord]]:
    """*records* keyed by their *row* then their swept *column* value,
    both in first-seen order."""
    grid: Dict[Any, Dict[Any, RunRecord]] = {}
    for r in records:
        grid.setdefault(getattr(r, row), {})[getattr(r, column)] = r
    return grid


def render_fig12(records: Sequence[RunRecord]) -> str:
    """Fig. 12: improvement factors per resource-state type."""
    grid = _sweep(records, "label", "resource_state")
    rst_names = list(next(iter(grid.values())))
    depth_rows = []
    fusion_rows = []
    for bench, per_rst in grid.items():
        depth_rows.append(
            [bench]
            + [f"{per_rst[r].depth_improvement:.0f}x" for r in rst_names]
        )
        fusion_rows.append(
            [bench]
            + [f"{per_rst[r].fusion_improvement:.0f}x" for r in rst_names]
        )
    return (
        "depth improvement\n"
        + _table(["bench"] + rst_names, depth_rows)
        + "\n\n#fusion improvement\n"
        + _table(["bench"] + rst_names, fusion_rows)
    )


def _normalized(
    per_key: Dict[Any, RunRecord], base_key: Any
) -> Dict[Any, Tuple[float, float]]:
    base = per_key[base_key]
    return {
        key: (
            r.depth / max(1, base.depth),
            r.num_fusions / max(1, base.num_fusions),
        )
        for key, r in per_key.items()
    }


def render_fig13(records: Sequence[RunRecord]) -> str:
    """Fig. 13: normalized depth/#fusions per layer aspect ratio."""
    grid = _sweep(records, "benchmark", "ratio")
    ratios = sorted(next(iter(grid.values())).keys())
    rows = []
    for bench, per_ratio in grid.items():
        norm = _normalized(per_ratio, base_key=ratios[0])
        rows.append(
            [bench]
            + [f"{norm[r][0]:.2f}/{norm[r][1]:.2f}" for r in ratios]
        )
    return _table(
        ["bench (depth/fus)"] + [f"ratio {r}" for r in ratios], rows
    )


def render_fig14(r: RunRecord) -> str:
    """Fig. 14: one benchmark mapped onto an extended physical layer."""
    return (
        f"{r.label}-ext{r.extension}: extension={r.extension} "
        f"mapping_layers={r.mapping_layers} "
        f"shuffle_layers={r.shuffle_layers} "
        f"physical depth={r.depth} "
        f"fusions={r.num_fusions:,}"
    )


def render_ablation(results: Dict[str, RunRecord]) -> str:
    """Compiler-variant ablation: depth/#fusions per variant."""
    base = results.get("default")
    rows = []
    for variant, r in results.items():
        cells = [
            variant,
            r.depth,
            f"{r.num_fusions:,}",
        ]
        if base is not None:
            cells += [
                f"{r.depth / max(1, base.depth):.2f}",
                f"{r.num_fusions / max(1, base.num_fusions):.2f}",
            ]
        rows.append(cells)
    headers = ["variant", "depth", "#fusions"]
    if base is not None:
        headers += ["depth/default", "fusions/default"]
    return _table(headers, rows)


def render_survival_table(records: Sequence) -> str:
    """Survival curves of a degradation sweep (``repro degrade-sweep``).

    One block per (benchmark, scenario): policies as rows, severities as
    columns, each cell the degraded yield with a ``*`` marker when the
    policy met the recovery bar.  Rows without a degradation stage are
    skipped.
    """
    groups: Dict[Tuple[str, str], Dict[Tuple[str, float], object]] = {}
    severities: Dict[Tuple[str, str], List[float]] = {}
    for r in records:
        if not getattr(r, "scenario", "") or r.policy is None:
            continue
        key = (r.label, r.scenario)
        groups.setdefault(key, {})[(r.policy, r.severity)] = r
        if r.severity not in severities.setdefault(key, []):
            severities[key].append(r.severity)
    blocks = []
    for key in sorted(groups):
        label, scenario = key
        sevs = sorted(severities[key])
        policies = sorted({p for p, _ in groups[key]})
        rows = []
        for policy in policies:
            cells: List[object] = [policy]
            for sev in sevs:
                r = groups[key].get((policy, sev))
                if r is None or r.yield_degraded is None:
                    cells.append("-")
                else:
                    mark = "*" if r.recovered else " "
                    cells.append(f"{r.yield_degraded:.4f}{mark}")
            rows.append(cells)
        blocks.append(
            f"{label} / {scenario}  (* = recovered)\n"
            + _table(
                ["policy"] + [f"sev {s:g}" for s in sevs], rows
            )
        )
    return "\n\n".join(blocks) if blocks else "(no degradation rows)"


def render_fig15(records: Sequence[RunRecord], base_area: int = 256) -> str:
    """Fig. 15: normalized depth/#fusions per physical area."""
    grid = _sweep(records, "benchmark", "area")
    areas = sorted(next(iter(grid.values())).keys())
    base = base_area if base_area in areas else areas[0]
    rows = []
    for bench, per_area in grid.items():
        norm = _normalized(per_area, base_key=base)
        rows.append(
            [bench]
            + [f"{norm[a][0]:.2f}/{norm[a][1]:.2f}" for a in areas]
        )
    return _table(
        ["bench (depth/fus)"] + [f"area {a}" for a in areas], rows
    )
