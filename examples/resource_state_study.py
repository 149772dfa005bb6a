#!/usr/bin/env python
"""Fig. 12: how the resource-state type affects compilation.

Compiles the 16-qubit paper benchmarks against all four resource-state
shapes (3-line, 4-line, 4-star, 4-ring) and prints the improvement
factors over the baseline, reproducing the claim that OneQ achieves
similar improvements across resource states.

Run:  python examples/resource_state_study.py
"""

from repro.eval import render_fig12, run_fig12


def main() -> None:
    print("compiling 16-qubit QFT/QAOA/RCA/BV x 4 resource states ...")
    results = run_fig12(num_qubits=16)
    print()
    print(render_fig12(results))
    print()
    # a peek at what the resource state changes under the hood
    rows3 = {r.label: r for r in results if r.resource_state == "3-line"}
    rows4 = {r.label: r for r in results if r.resource_state == "4-star"}
    for label in rows3:
        s3 = rows3[label].synthesis
        s4 = rows4[label].synthesis
        print(
            f"{label}: synthesis fusions {s3} (3-line) -> {s4} (4-star); "
            "higher-degree states need shorter chains"
        )


if __name__ == "__main__":
    main()
