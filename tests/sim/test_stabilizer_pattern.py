"""Tests for the scalar Clifford pattern executor and its frame shadow.

:class:`~repro.sim.pattern_sim.StabilizerPatternSimulator` is the oracle
both Monte-Carlo engines stand on: the per-shot engine runs it once per
faulty shot, and :class:`~repro.sim.frame.PauliFrameSimulator` runs it
once as its noiseless reference.  This file pins the executor itself
(fault-free output stabilizers, forced-outcome replay, detector flips)
and the fact the frame engine rests on — a Pauli fault is a sign-only
perturbation of the tableau — and then cross-checks the frame pass mask
shot by shot against independent scalar executions of the same faults.
"""

import numpy as np
import pytest

from repro.circuit import get_benchmark
from repro.circuit.circuit import Circuit
from repro.mbqc.translate import circuit_to_pattern
from repro.sim.frame import PauliFrameSimulator
from repro.sim.pattern_sim import (
    StabilizerPatternSimulator,
    simulate_pattern_stabilizer,
)
from repro.sim.stabilizer import PauliString, StabilizerState

ONE_QUBIT = ("h", "s", "sdg", "x_gate", "y_gate", "z_gate")
TWO_QUBIT = ("cnot", "cz", "swap")


def random_gate_sequence(rng, n, length):
    """A random Clifford gate sequence as (method, qubits) pairs."""
    ops = []
    for _ in range(length):
        if n > 1 and rng.random() < 0.4:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append((TWO_QUBIT[rng.integers(3)], (int(a), int(b))))
        else:
            ops.append(
                (ONE_QUBIT[rng.integers(6)], (int(rng.integers(n)),))
            )
    return ops


def apply_ops(state, ops):
    for method, qubits in ops:
        getattr(state, method)(*qubits)


def random_clifford_circuit(num_qubits=4, seed=3):
    """H/S/X/CZ circuit: its pattern has both X- and Y-basis steps."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits)
    for _ in range(25):
        kind = int(rng.integers(4))
        q = int(rng.integers(num_qubits))
        if kind == 0:
            circuit.h(q)
        elif kind == 1:
            circuit.s(q)
        elif kind == 2:
            circuit.x(q)
        else:
            other = int(rng.integers(num_qubits))
            if other != q:
                circuit.cz(q, other)
    return circuit


CIRCUITS = {
    "bv6": lambda: get_benchmark("BV", 6),
    "bv8": lambda: get_benchmark("BV", 8),
    "clifford4": lambda: random_clifford_circuit(4, seed=3),
    "clifford5": lambda: random_clifford_circuit(5, seed=11),
}


def output_checks_pass(pattern, circuit, result):
    """Does an executed pattern satisfy every circuit stabilizer?"""
    rows = StabilizerState(circuit.num_qubits).apply_circuit(
        circuit
    ).stabilizer_rows()
    for gx, gz, gr in rows:
        pauli = result.output_pauli(pattern.outputs, gx, gz)
        if result.state.expectation(pauli) != gr:
            return False
    return True


def qubit_bits(packed, q):
    """Bit of qubit *q* in every row of a bit-packed tableau half."""
    word, offset = divmod(q, 64)
    return ((packed[:, word] >> np.uint64(offset)) & np.uint64(1)).astype(
        np.uint8
    )


def assert_same_tableau(a, b):
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.r, b.r)


class TestStabilizerPatternExecutor:
    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_fault_free_run_satisfies_circuit_stabilizers(self, name):
        circuit = CIRCUITS[name]()
        pattern = circuit_to_pattern(circuit)
        for seed in range(3):
            result = StabilizerPatternSimulator(pattern, seed=seed).run()
            assert set(result.outcomes) == set(pattern.measured_nodes())
            assert output_checks_pass(pattern, circuit, result)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forced_replay_reproduces_run(self, seed):
        """Replaying a run's outcomes through force_outcomes is accepted
        and lands on the exact same tableau."""
        circuit = random_clifford_circuit(4, seed=3)
        pattern = circuit_to_pattern(circuit)
        first = StabilizerPatternSimulator(pattern, seed=seed).run()
        replay = StabilizerPatternSimulator(
            pattern, force_outcomes=dict(first.outcomes)
        ).run()
        assert replay.outcomes == first.outcomes
        assert replay.qubit_of == first.qubit_of
        assert_same_tableau(replay.state, first.state)

    def test_outcome_flips_complement_recorded_bits(self):
        """A detector flip complements the recorded bit; replaying the
        physical branch with the same flips reproduces the run."""
        circuit = get_benchmark("BV", 6)
        pattern = circuit_to_pattern(circuit)
        measured = [
            node
            for node in pattern.measurement_order()
            if node not in pattern.outputs
        ]
        flips = frozenset(measured[:3])
        flipped = StabilizerPatternSimulator(
            pattern, seed=5, outcome_flips=flips
        ).run()
        physical = {
            node: bit ^ (node in flips)
            for node, bit in flipped.outcomes.items()
        }
        replay = StabilizerPatternSimulator(
            pattern, force_outcomes=physical, outcome_flips=flips
        ).run()
        assert replay.outcomes == flipped.outcomes
        assert_same_tableau(replay.state, flipped.state)

    def test_prepared_state_matches_fresh_build(self):
        circuit = get_benchmark("BV", 8)
        pattern = circuit_to_pattern(circuit)
        fresh = StabilizerPatternSimulator(pattern, seed=4).run()
        prepared = StabilizerState.graph_state(
            pattern.graph, seed=4, zero_nodes=pattern.inputs
        )
        reused = StabilizerPatternSimulator(pattern).run(prepared=prepared)
        assert reused.outcomes == fresh.outcomes
        assert_same_tableau(reused.state, fresh.state)

    def test_one_shot_wrapper_matches_simulator(self):
        circuit = get_benchmark("BV", 6)
        pattern = circuit_to_pattern(circuit)
        wrapped = simulate_pattern_stabilizer(pattern, seed=9)
        direct = StabilizerPatternSimulator(pattern, seed=9).run()
        assert wrapped.outcomes == direct.outcomes
        assert_same_tableau(wrapped.state, direct.state)

    def test_output_pauli_lifts_onto_output_qubits(self):
        circuit = get_benchmark("BV", 6)
        pattern = circuit_to_pattern(circuit)
        result = StabilizerPatternSimulator(pattern, seed=1).run()
        wires = len(pattern.outputs)
        x = np.zeros(wires, dtype=np.uint8)
        z = np.zeros(wires, dtype=np.uint8)
        x[0], z[-1] = 1, 1
        pauli = result.output_pauli(pattern.outputs, x, z)
        first = result.qubit_of[pattern.outputs[0]]
        last = result.qubit_of[pattern.outputs[-1]]
        assert np.flatnonzero(pauli.x).tolist() == [first]
        assert np.flatnonzero(pauli.z).tolist() == [last]

    def test_non_clifford_pattern_rejected(self):
        circuit = Circuit(1)
        circuit.t(0)
        with pytest.raises(ValueError, match="non-Pauli"):
            StabilizerPatternSimulator(circuit_to_pattern(circuit))


class TestPauliFaultsAreSignOnly:
    @pytest.mark.parametrize("n", [1, 3, 8, 70])
    def test_pauli_gate_flips_exactly_the_anticommuting_signs(self, n):
        """X/Y/Z on a random stabilizer state leave the symplectic part
        untouched and flip the sign of each row that anticommutes with
        the Pauli — the property frame propagation relies on."""
        rng = np.random.default_rng(n)
        state = StabilizerState(n)
        apply_ops(state, random_gate_sequence(rng, n, 60))
        for kind in "xyz":
            q = int(rng.integers(n))
            before = state.copy()
            getattr(state, f"{kind}_gate")(q)
            px = int(kind in "xy")
            pz = int(kind in "yz")
            anti = (qubit_bits(before.x, q) * pz) ^ (qubit_bits(before.z, q) * px)
            assert np.array_equal(state.x, before.x)
            assert np.array_equal(state.z, before.z)
            assert np.array_equal(state.r, before.r ^ anti)

    def test_expectation_sign_follows_injected_pauli(self):
        bell = StabilizerState(2)
        bell.h(0)
        bell.cnot(0, 1)
        xx = PauliString.from_ops(2, {0: "x", 1: "x"})
        assert bell.expectation(xx) == 0
        assert bell.expectation(PauliString.from_ops(2, {0: "z"})) is None
        bell.z_gate(0)  # anticommutes with XX
        assert bell.expectation(xx) == 1
        bell.x_gate(1)  # commutes with XX
        assert bell.expectation(xx) == 1


class TestFrameMatchesScalarExecutor:
    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_pass_mask_matches_per_shot_execution(self, name):
        """Every shot of a random fault chunk passes on the frame engine
        iff an independent scalar execution with the same Pauli faults
        and detector flips satisfies every output stabilizer."""
        circuit = CIRCUITS[name]()
        pattern = circuit_to_pattern(circuit)
        frame = PauliFrameSimulator(pattern, circuit=circuit, seed=2)
        base, index = StabilizerState.graph_state(
            pattern.graph, zero_nodes=pattern.inputs
        )
        measured = sorted(pattern.measured_nodes())
        rng = np.random.default_rng(len(measured))
        chunk = []
        for _ in range(200):
            faults = tuple(
                (int(rng.integers(base.n)), "xyz"[rng.integers(3)])
                for _ in range(int(rng.integers(3)))
            )
            flips = frozenset(
                int(node)
                for node in rng.choice(
                    measured, size=int(rng.integers(3)), replace=False
                )
            )
            chunk.append((faults, flips))
        mask = frame.run_chunk(chunk)
        expected = []
        for shot, (faults, flips) in enumerate(chunk):
            state = base.copy()
            state.rng = np.random.default_rng(shot)
            for qubit, kind in faults:
                getattr(state, f"{kind}_gate")(qubit)
            result = StabilizerPatternSimulator(
                pattern, outcome_flips=flips
            ).run(prepared=(state, index))
            expected.append(output_checks_pass(pattern, circuit, result))
        assert mask.tolist() == expected
        assert 0 < sum(expected) < len(expected)  # both verdicts occur

    def test_reference_outcomes_are_a_valid_scalar_branch(self):
        """The frame engine's reference outcomes replay through the
        scalar executor as a forced branch that passes every check."""
        circuit = random_clifford_circuit(4, seed=3)
        pattern = circuit_to_pattern(circuit)
        frame = PauliFrameSimulator(pattern, circuit=circuit, seed=6)
        replay = StabilizerPatternSimulator(
            pattern, force_outcomes=frame.reference_outcomes
        ).run()
        assert replay.outcomes == frame.reference_outcomes
        assert output_checks_pass(pattern, circuit, replay)
