"""Ablation study of OneQ's design choices (extension experiment).

Not a paper figure — it quantifies the design decisions the paper
motivates qualitatively:

* geometry-preserving scheduling (Sec. 4) vs pure Lemma-1 layering;
* planar-embedding rotational order (Sec. 5) on vs off;
* cross-partition placement hints (an implementation optimization);
* the total-blockage weight alpha in the H cost function (Sec. 6).
"""

import pytest

from repro.eval.experiments import run_ablation

from benchmarks.conftest import save_table

_RESULTS = {}


@pytest.mark.parametrize("bench", ("QFT", "QAOA"))
def test_ablation(benchmark, bench):
    results = benchmark.pedantic(
        run_ablation, kwargs={"name": bench, "num_qubits": 16},
        rounds=1, iterations=1,
    )
    _RESULTS[bench] = results

    default = results["default"]
    # Lemma-1 scheduling scatters wire geometry across partitions: the
    # shuffle bill explodes (this is the paper's Sec. 4 design argument).
    lemma1 = results["lemma1-scheduling"]
    assert lemma1.shuffling >= default.shuffling
    # all variants still produce valid programs
    for variant, r in results.items():
        assert r.depth >= 1, variant
        assert r.num_fusions > 0, variant


def test_ablation_report(benchmark, results_dir):
    results = dict(_RESULTS)
    if "QFT" not in results:
        results["QFT"] = run_ablation("QFT", 16)

    def render():
        lines = []
        for bench, variants in results.items():
            lines.append(f"== {bench}-16 ==")
            for variant, r in variants.items():
                lines.append(
                    f"  {variant:20s} depth={r.depth:4d} "
                    f"fusions={r.num_fusions:6d} "
                    f"(synth={r.synthesis} edge={r.edge} "
                    f"route={r.routing} shuffle={r.shuffling})"
                )
        return "\n".join(lines)

    text = benchmark.pedantic(render, rounds=1, iterations=1)
    save_table(results_dir, "ablation", text)


def test_fidelity_extension(benchmark, results_dir):
    """Fusion reduction translates into fidelity (paper Sec. 2.1)."""
    from repro.eval.experiments import run_fidelity

    rows = benchmark.pedantic(
        run_fidelity,
        kwargs={"benchmarks": [("QAOA", 16), ("BV", 16)]},
        rounds=1,
        iterations=1,
    )
    lines = ["benchmark  baseline logF  OneQ logF  error-rate factor"]
    for row, base_lf, oneq_lf, factor in rows:
        assert oneq_lf > base_lf, row.label
        assert factor > 10, row.label
        lines.append(
            f"{row.label:9s}  {base_lf:12.2f}  {oneq_lf:9.4f}  {factor:10.0f}x"
        )
    save_table(results_dir, "fidelity", "\n".join(lines))
