"""Regenerates paper Table 2: baseline vs OneQ on every benchmark.

One benchmark test per row (so pytest-benchmark reports per-program
compile time), plus a final shape check that renders the whole table.
Absolute values differ from the paper (our baseline router is our own);
the asserted *shape* is the paper's headline:

* OneQ beats the baseline by orders of magnitude on both metrics;
* BV improves the most (acyclic planar graph state), QFT the least;
* improvements are stable or growing with qubit count.
"""

import pytest

from repro.eval import (
    PAPER_TABLE2,
    TABLE_BENCHMARKS,
    RunSpec,
    execute_spec,
    render_table2,
)

from benchmarks.conftest import save_table

_ROWS = {}


@pytest.mark.parametrize("name,num_qubits", TABLE_BENCHMARKS)
def test_row(benchmark, name, num_qubits):
    row = benchmark.pedantic(
        execute_spec, args=(RunSpec(name, num_qubits),), rounds=1, iterations=1
    )
    _ROWS[(name, num_qubits)] = row
    assert row.depth_improvement > 1
    assert row.fusion_improvement > 1


def test_table2_shape(benchmark, results_dir):
    rows = [
        _ROWS.get((n, q)) or execute_spec(RunSpec(n, q))
        for n, q in TABLE_BENCHMARKS
    ]
    benchmark.pedantic(render_table2, args=(rows,), rounds=1, iterations=1)

    by_key = {(r.benchmark, r.num_qubits): r for r in rows}

    # orders of magnitude on the aggregate (paper abstract)
    for row in rows:
        assert row.depth_improvement >= 5, row.label
        assert row.fusion_improvement >= 10, row.label

    # BV best, QFT worst at 16 qubits (paper Sec. 7.2)
    f16 = {n: by_key[(n, 16)].fusion_improvement for n in ("QFT", "QAOA", "RCA", "BV")}
    assert f16["BV"] == max(f16.values())
    assert f16["QFT"] == min(f16.values())
    d16 = {n: by_key[(n, 16)].depth for n in ("QFT", "QAOA", "RCA", "BV")}
    assert d16["BV"] == min(d16.values())

    # improvement stable or increasing with qubit count (paper Sec. 7.2)
    for name in ("QFT", "QAOA", "RCA"):
        small = by_key[(name, 16)].fusion_improvement
        large = by_key[(name, 36)].fusion_improvement
        assert large >= 0.5 * small, f"{name} improvement collapsed"
    assert (
        by_key[("BV", 100)].fusion_improvement
        > by_key[("BV", 16)].fusion_improvement
    )

    save_table(results_dir, "table2", render_table2(rows))
    print("paper reference:", {k: v for k, v in PAPER_TABLE2.items()})
