"""Regenerates paper Fig. 14: 16-qubit QFT on an extended physical layer.

The paper shows a 13x39 extended layer (3 consecutive 13x13 layers).
The benchmark checks that extension trades per-cycle area for fewer
mapped layers and renders the first extended layer like the figure.
"""

from repro.circuit import qft
from repro.core import compile_circuit, render_layer
from repro.eval import render_fig14, run_fig14
from repro.hardware import HardwareConfig

from benchmarks.conftest import save_table


def test_fig14_extended_mapping(benchmark, results_dir):
    record = benchmark.pedantic(
        run_fig14,
        kwargs={"num_qubits": 16, "side": 13, "extension": 3},
        rounds=1,
        iterations=1,
    )
    assert record.extension == 3
    assert record.area == 13 * 13
    # depth accounts 3 physical layers per extended layer
    assert record.depth >= 3 * record.mapping_layers

    # the layouts the figure draws: the same compile, kept whole
    prog = compile_circuit(
        qft(16), HardwareConfig(rows=13, cols=13, extension=3)
    )
    assert (prog.physical_depth, prog.num_fusions) == (
        record.depth, record.num_fusions
    )
    assert prog.layouts[0].shape == (13, 39)
    text = [render_fig14(record)]
    for layout in prog.layouts[:2]:
        text.append(f"--- extended layer {layout.index} (13x39) ---")
        text.append(render_layer(layout))
    save_table(results_dir, "fig14", "\n".join(text))


def test_fig14_extension_helps(benchmark):
    """Extended layers accommodate more global structure (Sec. 3.1)."""

    def run():
        flat = compile_circuit(qft(16), HardwareConfig(rows=13, cols=13))
        ext = compile_circuit(
            qft(16), HardwareConfig(rows=13, cols=13, extension=3)
        )
        return flat, ext

    flat, ext = benchmark.pedantic(run, rounds=1, iterations=1)
    assert ext.mapping_layers < flat.mapping_layers
