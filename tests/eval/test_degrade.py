"""Tests for the degradation sweep harness and its run-table schema."""

import csv
import json

import pytest

from repro.eval.batch import (
    RUN_TABLE_COLUMNS,
    BatchRunner,
    RunSpec,
    execute_spec,
    write_run_table,
)
from repro.eval.degrade import (
    MILD_NOISE,
    check_recovery,
    degrade_specs,
    run_degrade_sweep,
    summarize_survival,
    write_degradation_json,
)
from repro.eval.reporting import render_survival_table


def spec_for(scenario="dead-rsg", severity=0.1, policy="survive", **kw):
    kw.setdefault("benchmark", "BV")
    kw.setdefault("num_qubits", 8)
    kw.setdefault("include_baseline", False)
    kw.setdefault("noise", MILD_NOISE)
    return RunSpec(
        scenario=scenario, severity=severity, policy=policy, **kw
    )


class TestSchema:
    def test_new_columns_present(self):
        for column in (
            "scenario", "severity", "dead_fraction", "policy",
            "recovered", "yield_degraded", "rerouted_fusions",
        ):
            assert column in RUN_TABLE_COLUMNS

    def test_degradation_fields_in_spec_hash(self):
        base = spec_for(policy="survive")
        assert base.key() != spec_for(policy="reroute").key()
        assert base.key() != spec_for(severity=0.2).key()
        assert base.key() != spec_for(scenario="loss-hotspot").key()


class TestExecuteSpec:
    def test_survive_collapse_recorded(self):
        record = execute_spec(spec_for("dead-rsg", 0.1, "survive"))
        assert record.scenario == "dead-rsg"
        assert record.severity == pytest.approx(0.1)
        assert record.dead_fraction > 0.0
        assert record.policy == "survive"
        assert record.recovered is False
        assert record.yield_degraded == 0.0
        assert record.rerouted_fusions == 0

    def test_reroute_recovers(self):
        record = execute_spec(spec_for("dead-rsg", 0.1, "reroute"))
        assert record.recovered is True
        assert record.yield_degraded > 0.9
        assert record.rerouted_fusions > 0

    def test_auto_policy_records_ladder_winner(self):
        record = execute_spec(spec_for("dead-rsg", 0.1, "auto"))
        assert record.policy == "reroute"
        assert record.recovered is True

    def test_auto_policy_applies_each_rung_once(self, monkeypatch):
        """The ladder winner's program comes from the recovery report:
        execute_spec applies each attempted rung exactly once (no second
        apply_policy, i.e. no second compile for a recompile winner) and
        samples the winner."""
        import repro.core.recovery as recovery

        calls = []
        reports = []
        apply_policy, recover = recovery.apply_policy, recovery.recover

        def counting_apply(policy, *args, **kwargs):
            calls.append(policy)
            return apply_policy(policy, *args, **kwargs)

        def capturing_recover(*args, **kwargs):
            reports.append(recover(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(recovery, "apply_policy", counting_apply)
        monkeypatch.setattr(recovery, "recover", capturing_recover)
        record = execute_spec(spec_for("dead-rsg", 0.1, "auto", shots=200))
        (report,) = reports
        assert len(calls) == len(report.attempted)
        assert tuple(calls) == report.attempted
        assert record.policy == report.policy == "reroute"
        assert record.shots == 200

    def test_no_scenario_leaves_columns_empty(self):
        record = execute_spec(
            RunSpec(benchmark="BV", num_qubits=8, include_baseline=False)
        )
        assert record.scenario == ""
        assert record.policy is None
        assert record.recovered is None
        assert record.yield_degraded is None

    def test_mc_samples_recovered_program_under_site_map(self):
        record = execute_spec(
            spec_for("dead-rsg", 0.1, "reroute", shots=500)
        )
        assert record.shots == 500
        assert record.yield_mc is not None
        # the MC stage's analytic column is the per-site closed form of
        # the recovered program — the same number the degradation stage
        # reports
        assert record.yield_analytic == pytest.approx(
            record.yield_degraded, rel=1e-9
        )

    def test_mc_skipped_when_survive_cannot_run(self):
        record = execute_spec(
            spec_for("dead-rsg", 0.1, "survive", shots=500)
        )
        assert record.shots == 0
        assert record.yield_mc is None
        assert record.yield_degraded == 0.0


class TestSweep:
    @pytest.fixture(scope="class")
    def records(self):
        return run_degrade_sweep(
            benchmarks=[("BV", 8)], severities=(0.0, 0.1), jobs=1
        )

    def test_grid_size(self, records):
        # 1 benchmark x 4 scenarios x 2 severities x 3 policies
        assert len(records) == 24

    def test_severity_zero_rows_all_recovered(self, records):
        zero = [r for r in records if r.severity == 0.0]
        assert zero and all(r.recovered for r in zero)

    def test_summary_counts(self, records):
        summary = summarize_survival(records)
        assert summary["groups"] == 8
        assert summary["survive_failures"] >= 1
        assert summary["severity_zero_failures"] == []

    def test_render_survival_table(self, records):
        text = render_survival_table(records)
        assert "BV-8 / dead-rsg" in text
        assert "sev 0.1" in text
        assert "*" in text

    def test_run_table_roundtrip(self, records, tmp_path):
        json_path, csv_path = write_run_table(records, tmp_path)
        payload = json.loads(json_path.read_text())
        assert payload["schema_version"] >= 9
        assert "scenario" in payload["columns"]
        with csv_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(records)
        assert {row["scenario"] for row in rows} == {
            "dead-rsg", "loss-gradient", "loss-hotspot", "degraded-fusion"
        }

    def test_degradation_artifact(self, records, tmp_path):
        path = write_degradation_json(
            records, tmp_path / "BENCH_degradation.json"
        )
        payload = json.loads(path.read_text())
        assert payload["summary"]["survive_failures"] >= 1
        key = "BV-8@dead-rsg@0.1[survive]"
        assert payload["runs"][key]["recovered"] is False

    def test_cached_rows_keep_degradation_columns(self, tmp_path):
        specs = degrade_specs(
            benchmarks=[("BV", 8)],
            scenarios=("dead-rsg",),
            severities=(0.1,),
            policies=("reroute",),
        )
        runner = BatchRunner(jobs=1, cache_dir=tmp_path)
        first = runner.run(specs)[0]
        second = BatchRunner(jobs=1, cache_dir=tmp_path).run(specs)[0]
        assert not first.cached and second.cached
        assert second.recovered is True
        assert second.yield_degraded == first.yield_degraded
        assert second.rerouted_fusions == first.rerouted_fusions


class TestRecoveryGate:
    def test_gate_passes_on_default_quick_grid(self):
        records = run_degrade_sweep(
            benchmarks=[("BV", 8)], severities=(0.0, 0.1, 0.3), jobs=1
        )
        assert check_recovery(records) == []

    def test_gate_fails_without_collapse(self):
        records = run_degrade_sweep(
            benchmarks=[("BV", 8)],
            scenarios=("degraded-fusion",),
            severities=(0.0,),
            jobs=1,
        )
        failures = check_recovery(records)
        assert any("no scenario collapsed" in f for f in failures)
