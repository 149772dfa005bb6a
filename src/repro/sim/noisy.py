"""Monte-Carlo noisy execution of Clifford measurement patterns.

The closed-form :mod:`repro.hardware.noise` model predicts the
probability that one execution of a compiled program sees *zero* error
events.  This module samples the actual fault process shot by shot and
executes the pattern under each sampled fault configuration on the
bit-packed stabilizer tableau, producing two yields per run:

* ``fault_free_yield`` — the fraction of shots in which no error event
  fired at all.  Its expectation is exactly the analytic
  :func:`repro.hardware.noise.success_probability`, which makes the two
  code paths cross-validate each other (the CI gate in
  ``tests/sim/test_noisy.py`` enforces 3-sigma binomial agreement).
* ``yield_mc`` — the fraction of shots whose *executed* output state
  still satisfies every stabilizer generator of the ideal circuit
  output.  This is new information the closed form cannot provide:
  faults that land in the output state's stabilizer group (e.g. Z errors
  on a basis-state output) are benign, so ``yield_mc >=
  fault_free_yield`` and the gap measures the benign-fault fraction.

Sampled fault channels, per shot (probabilities are per event):

* **fusion failure** (``p = 1 - fusion_success``): linear-optics fusions
  herald failure; with repeat-until-success the shot still proceeds but
  burns extra attempts, tallied in ``fusion_attempts`` (expected
  ``fusions / fusion_success``).
* **photon loss** (``cycle_loss`` per photon per clock cycle in a delay
  line): loss is heralded by the fusion/measurement detectors, so a lost
  photon aborts the shot outright (``loss_aborts``).
* **fusion Pauli error** (``fusion_error`` per fusion): a uniformly
  random X/Y/Z on a uniformly random cluster photon, injected into the
  tableau as a sign update before the measurement sequence runs.
* **measurement flip** (``measurement_error`` per measurement, counting
  output readout): a measured node's *recorded* outcome bit is
  complemented — feed-forward and byproduct corrections then act on the
  wrong bit.  Flips that land on output-readout slots corrupt the
  classical result directly and fail the shot.

Shots with zero fault events never touch the tableau: a fault-free
execution deterministically passes the stabilizer check (verified once
per sampler by the frame engine's noiseless reference run), so only
faulty shots pay for execution.  At realistic error rates this makes
large shot counts cheap.

Faulty shots themselves run on one of two engines:

* ``engine="frame"`` (default): the bit-packed Pauli-frame engine
  (:mod:`repro.sim.frame`).  Every supported fault channel is a
  sign-only perturbation of one fixed Clifford execution, so after a
  single reference tableau run each faulty shot reduces to an X/Z flip
  frame XOR-propagated 64 shots per ``uint64`` word — per-shot cost is
  independent of qubit count.
* ``engine="per-shot"``: the one-tableau-per-shot reference path (the
  Aaronson–Gottesman oracle the frame engine is pinned to).

Both produce bit-identical tallies at a fixed seed: pass/fail per shot
is a deterministic function of the sampled fault configuration —
random measurement outcomes are a gauge the feed-forward corrections
cancel — and the fault configurations are drawn identically (sampling
is separated from execution).  ``tests/sim/test_noisy.py`` pins the
equivalence across engines, seeds, frame chunk sizes and noise grids;
``benchmarks/bench_frame.py`` gates frame >= 100x over per-shot.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.circuit.circuit import Circuit
from repro.hardware.degradation import (
    SiteNoiseMap,
    SiteProfile,
    dead_assigned_fusions,
    site_analytic_yield,
)
from repro.hardware.noise import DEFAULT_NOISE, NoiseModel, success_probability
from repro.mbqc.pattern import MeasurementPattern
from repro.sim.frame import PauliFrameSimulator
from repro.sim.pattern_sim import (
    StabilizerPatternSimulator,
    pattern_is_clifford,
)
from repro.sim.stabilizer import StabilizerState, non_clifford_gate_counts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiler import CompiledProgram

#: Default faulty shots per frame-engine chunk.  Frames pack 64 shots
#: per uint64 word, and each measurement step costs a handful of
#: word-vector XORs regardless of chunk size — so much larger chunks
#: amortize the per-step Python dispatch; 64k shots is ~1k words, i.e.
#: ``(2n + steps) * 8`` KB of frame matrices.
DEFAULT_FRAME_CHUNK_SHOTS = 1 << 16

#: Engines `NoisySampler.run` accepts, fastest first.
ENGINES = ("frame", "per-shot")

#: Random-key matrix budget (elements) per block when placing distinct
#: measurement-flip slots; bounds peak memory at ~32 MB of float64 keys
#: however many shots carry flips.
_FLIP_KEY_BLOCK = 1 << 22


@dataclass(frozen=True)
class FaultCounts:
    """Error-prone event counts of one program execution.

    Attributes:
        fusions: fusion operations (units: fusions; each may fail or
            introduce a Pauli error).
        measurements: single-photon measurements *including* the final
            readout of output photons (units: measurements).
        photon_cycles: photon x clock-cycle waits in delay lines (units:
            photon-cycles; each may lose the photon).
    """

    fusions: int
    measurements: int
    photon_cycles: int

    def __post_init__(self) -> None:
        if min(self.fusions, self.measurements, self.photon_cycles) < 0:
            raise ValueError("event counts cannot be negative")

    @classmethod
    def from_pattern(cls, pattern: MeasurementPattern) -> "FaultCounts":
        """Pattern-level accounting: one fusion per graph edge, one
        measurement per node (outputs are read out), one cycle of delay
        per photon.  The leanest consistent estimate for a pattern that
        has not been mapped to hardware."""
        n = pattern.graph.number_of_nodes()
        return cls(
            fusions=pattern.graph.number_of_edges(),
            measurements=n,
            photon_cycles=n,
        )

    @classmethod
    def from_program(cls, program: "CompiledProgram") -> "FaultCounts":
        """Compiled-program accounting, matching
        :func:`repro.hardware.noise.program_log_fidelity`: the mapper's
        fusion tally, one measurement per pattern node, and a pessimistic
        three photon-cycles per resource state consumed."""
        return cls(
            fusions=program.num_fusions,
            measurements=program.pattern_nodes,
            photon_cycles=program.resource_states_used * 3,
        )

    def analytic_yield(self, model: NoiseModel = DEFAULT_NOISE) -> float:
        """Closed-form probability of a zero-fault execution."""
        return success_probability(
            self.fusions, self.measurements, self.photon_cycles, model
        )


@dataclass
class NoisySampleResult:
    """Tally of one :meth:`NoisySampler.run` call.

    All counters are shot counts except ``fusion_attempts`` (total
    fusion attempts, including repeat-until-success retries, over the
    shots that actually ran their fusion sequence — loss-aborted shots
    stop before their fusions and contribute nothing) and ``seconds``
    (wall time of the run).  ``engine`` records which execution path
    produced the tally (``"frame"`` or ``"per-shot"``; bit-identical at
    a fixed seed).
    """

    shots: int
    successes: int
    fault_free: int
    loss_aborts: int
    logical_failures: int
    executed: int
    fusion_attempts: int
    counts: FaultCounts
    model: NoiseModel
    seconds: float = 0.0
    engine: str = "frame"
    #: Per-site closed-form zero-fault probability when the run sampled
    #: a heterogeneous :class:`repro.hardware.degradation.SiteNoiseMap`
    #: (None for scalar/uniform runs, where ``counts`` + ``model``
    #: already determine the analytic yield).
    analytic_override: Optional[float] = None

    @property
    def yield_mc(self) -> float:
        """Fraction of shots whose output state passed the stabilizer
        check (fault-free shots pass by calibration)."""
        return self.successes / self.shots

    @property
    def fault_free_yield(self) -> float:
        """Fraction of shots with zero sampled fault events — the
        Monte-Carlo estimator of :meth:`FaultCounts.analytic_yield`."""
        return self.fault_free / self.shots

    @property
    def yield_analytic(self) -> float:
        """Closed-form prediction for ``fault_free_yield`` (the
        per-site product when the run used a heterogeneous site map)."""
        if self.analytic_override is not None:
            return self.analytic_override
        return self.counts.analytic_yield(self.model)

    @property
    def sigma(self) -> float:
        """Binomial standard error of ``fault_free_yield`` at the
        analytic success probability."""
        p = self.yield_analytic
        return math.sqrt(p * (1.0 - p) / self.shots)

    @property
    def completed(self) -> int:
        """Shots that ran their full fusion sequence — everything except
        heralded loss aborts (which stop before their fusions)."""
        return self.shots - self.loss_aborts

    @property
    def shots_per_second(self) -> float:
        """Sampling throughput of the run (shots / wall seconds)."""
        if self.seconds <= 0.0:
            return float("inf")
        return self.shots / self.seconds

    @property
    def attempts_per_fusion(self) -> float:
        """Mean sampled fusion attempts per required fusion over the
        shots that completed their fusion sequence (expected
        ``1 / fusion_success`` under repeat-until-success; vacuously 1.0
        when no fusions completed)."""
        total = self.completed * self.counts.fusions
        if total == 0:
            return 1.0
        return self.fusion_attempts / total

    def agrees_with_analytic(self, k: float = 3.0) -> bool:
        """True when the sampled fault-free rate is within ``k`` binomial
        standard errors of the closed-form prediction (exact match
        required when the prediction is degenerate, i.e. 0 or 1)."""
        return abs(self.fault_free_yield - self.yield_analytic) <= k * self.sigma

    def summary(self) -> str:
        """One-line human-readable digest of the tally."""
        return (
            f"shots={self.shots} yield_mc={self.yield_mc:.4f} "
            f"fault_free={self.fault_free_yield:.4f} "
            f"analytic={self.yield_analytic:.4f} "
            f"(loss_aborts={self.loss_aborts}, "
            f"logical_failures={self.logical_failures}, "
            f"executed={self.executed}, "
            f"attempts/fusion={self.attempts_per_fusion:.3f})"
        )


def resolve_site_map(
    site_map: SiteNoiseMap,
    site_profile: Optional[SiteProfile],
    counts: FaultCounts,
) -> Tuple[NoiseModel, Optional[float]]:
    """The scalar model and per-site closed-form yield of *site_map*.

    A uniform map (no dead sites, constant planes) collapses to its
    scalar model and returns no per-site yield.  A heterogeneous map
    needs a *site_profile* of matching shape and event counts, must not
    assign any fusion to a dead / zero-success site (``ValueError``:
    repeat-until-success never terminates there), and returns its base
    model plus :func:`repro.hardware.degradation.site_analytic_yield`.
    """
    uniform = site_map.as_uniform_model()
    if uniform is not None:
        return uniform, None
    if site_profile is None:
        raise ValueError(
            "a heterogeneous site_map needs a site_profile "
            "assigning each fault event to its site (see "
            "repro.hardware.degradation.program_site_profile)"
        )
    if site_profile.shape != site_map.shape:
        raise ValueError(
            f"site_profile shape {site_profile.shape} != "
            f"site_map shape {site_map.shape}"
        )
    if (
        site_profile.fusion_sites.size != counts.fusions
        or site_profile.cycle_sites.size != counts.photon_cycles
    ):
        raise ValueError(
            "site_profile event counts "
            f"({site_profile.fusion_sites.size} fusions, "
            f"{site_profile.cycle_sites.size} photon-cycles) "
            f"do not match FaultCounts ({counts.fusions} "
            f"fusions, {counts.photon_cycles} photon-cycles)"
        )
    dead = dead_assigned_fusions(site_profile, site_map)
    if dead:
        raise ValueError(
            f"{dead} fusion(s) assigned to dead / "
            "zero-fusion-success sites: repeat-until-success "
            "never terminates there and the yield is exactly "
            "0 — re-route or recompile around the dead cells "
            "(repro.core.recovery) instead of sampling"
        )
    return site_map.base, site_analytic_yield(
        site_profile, site_map, counts.measurements
    )


class NoisySampler:
    """Monte-Carlo noisy executor for Clifford patterns.

    Args:
        circuit: the source circuit (defines the ideal output stabilizer
            group the per-shot check tests against).  Must be Clifford.
        pattern: the measurement pattern to execute; defaults to the
            translation of *circuit*.  Must be Clifford (every
            measurement at a Pauli angle).
        model: per-event error probabilities (see
            :class:`repro.hardware.noise.NoiseModel`).  The degenerate
            ``fusion_success=0`` bound is rejected here (with fusions to
            perform, repeat-until-success never terminates: the yield is
            exactly 0 and attempts diverge — nothing to sample).
        counts: fault-event counts per shot; defaults to
            :meth:`FaultCounts.from_pattern`.  Pass
            :meth:`FaultCounts.from_program` for compiled-program
            accounting.
        seed: seeds the fault sampling and all tableau RNGs; two
            samplers with equal arguments and seed produce identical
            tallies bit for bit, on every engine.
        site_map: optional per-site
            :class:`repro.hardware.degradation.SiteNoiseMap`.  When
            given it takes precedence over *model*: a map that is
            uniform (no dead sites, constant planes) collapses to its
            scalar model — bit-identical to passing that
            ``NoiseModel`` directly — while a heterogeneous map samples
            its fusion and photon-cycle channels from per-event rates
            indexed by *site_profile*.
            A map assigning any fusion to a dead / zero-success site is
            rejected here (repeat-until-success never terminates there;
            the yield is exactly 0 — re-route or recompile instead).
        site_profile: per-event site assignment
            (:func:`repro.hardware.degradation.program_site_profile`);
            required with a heterogeneous *site_map*, and its event
            counts must match *counts*.

    Every channel is sampled from per-event rate vectors (constant
    for a scalar model), grouped by rate into one binomial draw per
    distinct value.  Fault configurations for all shots are sampled
    vectorized up front, and the shot classification (loss abort /
    fault free / readout flip) is pure numpy mask algebra — tally-only
    shots never cost a Python iteration.  Only shots with at least one
    non-loss, non-readout fault event execute, on the engine of choice:
    the default ``frame`` engine reduces them to bit-packed Pauli flip
    frames (:class:`repro.sim.frame.PauliFrameSimulator`, built once in
    ``__init__``; per-shot cost independent of qubit count) in chunks
    of ``DEFAULT_FRAME_CHUNK_SHOTS``, and ``per-shot`` copies the base
    graph state per shot (the reference path).
    """

    def __init__(
        self,
        circuit: Circuit,
        pattern: Optional[MeasurementPattern] = None,
        model: NoiseModel = DEFAULT_NOISE,
        counts: Optional[FaultCounts] = None,
        seed: Optional[int] = None,
        site_map: Optional[SiteNoiseMap] = None,
        site_profile: Optional[SiteProfile] = None,
    ) -> None:
        from repro.mbqc.translate import circuit_to_pattern

        offenders = non_clifford_gate_counts(circuit)
        if offenders:
            listing = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(
                    offenders.items(), key=lambda item: (-item[1], item[0])
                )
            )
            raise ValueError(
                f"NoisySampler needs a Clifford circuit; found "
                f"{sum(offenders.values())} non-Clifford gate(s): "
                f"{listing} — non-Clifford programs have no scalable "
                "exact reference"
            )
        if pattern is None:
            pattern = circuit_to_pattern(circuit)
        if not pattern_is_clifford(pattern):
            raise ValueError(
                "NoisySampler needs a Clifford pattern (every measurement "
                "at a Pauli angle)"
            )
        if len(pattern.outputs) != circuit.num_qubits:
            raise ValueError(
                f"pattern has {len(pattern.outputs)} outputs for a "
                f"{circuit.num_qubits}-qubit circuit"
            )
        self.circuit = circuit
        self.pattern = pattern
        self.counts = counts or FaultCounts.from_pattern(pattern)
        # per-event (loss, fusion error, fusion success) rates of a
        # heterogeneous site map, plus its per-site closed form
        site_rates: Optional[Tuple[np.ndarray, ...]] = None
        self._analytic_override: Optional[float] = None
        if site_map is not None:
            model, self._analytic_override = resolve_site_map(
                site_map, site_profile, self.counts
            )
            if self._analytic_override is not None:
                assert site_profile is not None
                assert site_map.fusion_error is not None
                assert site_map.cycle_loss is not None
                assert site_map.fusion_success is not None
                fusion_sites = site_profile.fusion_sites
                site_rates = (
                    site_map.cycle_loss.ravel()[site_profile.cycle_sites],
                    site_map.fusion_error.ravel()[fusion_sites],
                    site_map.fusion_success.ravel()[fusion_sites],
                )
        self.model = model
        if model.fusion_success == 0.0 and self.counts.fusions > 0:
            raise ValueError(
                f"fusion_success=0 with {self.counts.fusions} fusions to "
                "perform: repeat-until-success never terminates, the "
                "yield is exactly 0 and fusion attempts diverge "
                "(expected_fusion_attempts reports inf) — nothing to "
                "sample"
            )
        if site_rates is None:
            site_rates = (
                np.full(self.counts.photon_cycles, model.cycle_loss),
                np.full(self.counts.fusions, model.fusion_error),
                np.full(self.counts.fusions, model.fusion_success),
            )
        loss, fusion_error, fusion_success = site_rates
        # per-event rates in sampling draw order (loss, fusion error,
        # measurement error, fusion success) as (distinct values,
        # multiplicities); a scalar model is one group per channel, and
        # the measurement channel stays scalar (readout is not a grid
        # operation).  np.unique sorts, so the draw order — hence the
        # tally at a fixed seed — is a pure function of each multiset.
        self._rate_groups = tuple(
            np.unique(rates, return_counts=True)
            for rates in (
                loss,
                fusion_error,
                np.full(self.counts.measurements, model.measurement_error),
                fusion_success,
            )
        )
        self.seed = seed
        outputs = frozenset(pattern.outputs)
        # node list in tableau-qubit order: graph_state sorts nodes, so
        # qubit i of the base tableau hosts self._nodes[i]
        self._nodes: List[int] = sorted(pattern.graph.nodes())
        self._base, self._index = StabilizerState.graph_state(
            pattern.graph, zero_nodes=pattern.inputs
        )
        # measurement slot -> does a flip there corrupt the classical
        # readout directly?  Slots land on tableau qubits in order (the
        # node list is sorted exactly like the graph-state qubits);
        # slots at or beyond the node count model extra hardware
        # readouts, which are classical by definition.
        slot_readout = np.ones(self.counts.measurements, dtype=bool)
        for slot in range(min(self.counts.measurements, len(self._nodes))):
            slot_readout[slot] = self._nodes[slot] in outputs
        self._slot_readout = slot_readout
        circuit_state = StabilizerState(circuit.num_qubits)
        circuit_state.apply_circuit(circuit)
        self._circuit_rows = circuit_state.stabilizer_rows()
        # the frame engine's noiseless reference run is the calibration:
        # it raises unless a fault-free execution passes every output
        # check, which is what lets zero-fault shots count as successes
        self._frame_sim = PauliFrameSimulator(
            pattern,
            circuit_rows=self._circuit_rows,
            prepared=(self._base.copy(), self._index),
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    def _execute_shot(
        self,
        rng: np.random.Generator,
        pauli_faults: Tuple[Tuple[int, str], ...],
        outcome_flips: frozenset,
    ) -> bool:
        """Run one shot on a copy of the base tableau; True on success."""
        state = self._base.copy()
        state.rng = rng
        for qubit, kind in pauli_faults:
            getattr(state, f"{kind}_gate")(qubit)
        simulator = StabilizerPatternSimulator(
            self.pattern, outcome_flips=outcome_flips
        )
        result = simulator.run(prepared=(state, self._index))
        return (
            result.first_violated(self.pattern.outputs, self._circuit_rows)
            is None
        )

    def _place_flips(
        self, n_meas: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Place each faulty shot's erring-measurement slots, in bulk.

        The binomial event count is the number of *distinct* erring
        measurements, so slots are placed without replacement: every
        shot with flips gets a row of random keys over the measurement
        slots and takes its ``n_meas`` smallest (drawn in fixed-size
        blocks to bound the key matrix at ``_FLIP_KEY_BLOCK``
        elements).  Returns ``(readout, flip_shot, flip_qubit)``:
        ``readout`` flags faulty rows with a flip on an output-readout
        slot (classically wrong whatever the quantum state — those
        shots never execute); the flat, shot-sorted ``(flip_shot,
        flip_qubit)`` entries are the remaining rows' flips on
        measured, non-output tableau qubits.
        """
        readout = np.zeros(n_meas.size, dtype=bool)
        rows = np.flatnonzero(n_meas)
        if rows.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return readout, empty, empty
        m_slots = self.counts.measurements
        shot_parts = []
        qubit_parts = []
        block = max(1, _FLIP_KEY_BLOCK // max(1, m_slots))
        for start in range(0, rows.size, block):
            sub = rows[start : start + block]
            keys = rng.random((sub.size, m_slots))
            order = np.argsort(keys, axis=1)
            chosen = np.arange(m_slots)[None, :] < n_meas[sub][:, None]
            local = np.nonzero(chosen)[0]  # block-row per chosen slot
            slots = order[chosen]
            block_readout = np.zeros(sub.size, dtype=bool)
            np.logical_or.at(block_readout, local, self._slot_readout[slots])
            readout[sub] = block_readout
            keep = ~block_readout[local]
            shot_parts.append(sub[local[keep]])
            qubit_parts.append(slots[keep])
        return (
            readout,
            np.concatenate(shot_parts),
            np.concatenate(qubit_parts),
        )

    # ------------------------------------------------------------------
    def run(
        self,
        shots: int,
        engine: str = "frame",
    ) -> NoisySampleResult:
        """Sample and execute *shots* noisy shots; returns the tally.

        Args:
            shots: number of Monte-Carlo shots (> 0).
            engine: ``"frame"`` (default) executes faulty shots as
                bit-packed Pauli flip frames; ``"per-shot"`` is the
                reference path.  Tallies are bit-identical across the
                two at a fixed seed.
        """
        if shots <= 0:
            raise ValueError("shots must be positive")
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; use one of {', '.join(ENGINES)}"
            )
        t0 = time.perf_counter()
        counts, model = self.counts, self.model
        rng = np.random.default_rng(self.seed)

        def binomial_counts(
            groups: Tuple[np.ndarray, np.ndarray]
        ) -> np.ndarray:
            # Poisson-binomial draw: one binomial per distinct rate
            out = np.zeros(shots, dtype=np.int64)
            for value, group in zip(*groups):
                if value > 0.0:
                    out += rng.binomial(
                        int(group), min(float(value), 1.0), size=shots
                    )
            return out

        loss_g, fusion_error_g, measurement_g, success_g = self._rate_groups
        losses = binomial_counts(loss_g)
        fusion_errors = binomial_counts(fusion_error_g)
        meas_errors = binomial_counts(measurement_g)
        attempts = np.full(shots, counts.fusions, dtype=np.int64)
        for value, group in zip(*success_g):
            if value < 1.0:  # init rejects 0-success assignments
                attempts += rng.negative_binomial(
                    int(group), float(value), size=shots
                )

        # shot classification is pure mask algebra: a lost shot aborts
        # whatever else it drew, and a shot with zero non-loss events is
        # tally-only — neither costs a Python iteration
        loss_mask = losses > 0
        faulty_mask = ~loss_mask & ((fusion_errors > 0) | (meas_errors > 0))
        loss_aborts = int(loss_mask.sum())
        fault_free = int(shots - loss_aborts - faulty_mask.sum())

        # fault placement for every faulty shot, in bulk from the master
        # stream (execution never feeds back into sampling, so tallies
        # cannot depend on the engine or the chunking)
        n_fus = fusion_errors[faulty_mask]
        fault_shot = np.repeat(np.arange(n_fus.size), n_fus)
        fault_qubit = rng.integers(0, self._base.n, size=fault_shot.size)
        fault_kind = rng.integers(0, 3, size=fault_shot.size)  # "xyz" index
        readout, flip_shot, flip_qubit = self._place_flips(
            meas_errors[faulty_mask], rng
        )

        # a flipped output readout is classically wrong whatever the
        # quantum state, so those shots skip execution outright
        logical_failures = int(readout.sum())
        executed = int(n_fus.size - logical_failures)
        position = np.cumsum(~readout) - 1  # faulty row -> executed slot
        keep = ~readout[fault_shot]
        fault_shot = position[fault_shot[keep]]
        fault_qubit, fault_kind = fault_qubit[keep], fault_kind[keep]
        flip_shot = position[flip_shot]  # flips only land on executed rows

        successes = fault_free
        if engine == "frame" and executed:
            chunk = DEFAULT_FRAME_CHUNK_SHOTS
            for start in range(0, executed, chunk):
                stop = min(start + chunk, executed)
                f_lo, f_hi = np.searchsorted(fault_shot, (start, stop))
                l_lo, l_hi = np.searchsorted(flip_shot, (start, stop))
                ok = self._frame_sim.run_shots(
                    stop - start,
                    fault_qubit[f_lo:f_hi],
                    fault_kind[f_lo:f_hi],
                    fault_shot[f_lo:f_hi] - start,
                    flip_qubit[l_lo:l_hi],
                    flip_shot[l_lo:l_hi] - start,
                )
                passed = int(ok.sum())
                successes += passed
                logical_failures += len(ok) - passed
        elif executed:
            # the per-shot engine wants per-shot Python structures; build
            # them from the flat placement arrays
            f_bounds = np.searchsorted(fault_shot, np.arange(executed + 1))
            l_bounds = np.searchsorted(flip_shot, np.arange(executed + 1))
            for j in range(executed):
                pauli_faults = tuple(
                    (int(q), "xyz"[int(k)])
                    for q, k in zip(
                        fault_qubit[f_bounds[j] : f_bounds[j + 1]],
                        fault_kind[f_bounds[j] : f_bounds[j + 1]],
                    )
                )
                flips = frozenset(
                    self._nodes[int(q)]
                    for q in flip_qubit[l_bounds[j] : l_bounds[j + 1]]
                )
                if self._execute_shot(rng, pauli_faults, flips):
                    successes += 1
                else:
                    logical_failures += 1

        # loss-aborted shots stop before their fusion sequence, so their
        # pre-sampled attempt counts never happened and are not tallied
        fusion_attempts = int(attempts[losses == 0].sum())
        return NoisySampleResult(
            shots=shots,
            successes=successes,
            fault_free=fault_free,
            loss_aborts=loss_aborts,
            logical_failures=logical_failures,
            executed=executed,
            fusion_attempts=fusion_attempts,
            counts=counts,
            model=model,
            seconds=time.perf_counter() - t0,
            engine=engine,
            analytic_override=self._analytic_override,
        )
