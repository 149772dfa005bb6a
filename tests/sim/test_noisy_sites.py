"""Per-site noise sampling: uniform bit-identity and hetero equivalence.

The contract the degradation layer rides on: a *uniform* SiteNoiseMap
must be indistinguishable from the scalar ``NoiseModel`` path — same
RNG consumption, bit-identical tallies at a fixed seed, on every
engine.  Heterogeneous maps sample per-site rates (grouped Poisson-
binomial draws); both engines must still agree with each other and
the tally must agree with the per-site closed form within 3 sigma.
"""

import numpy as np
import pytest

from repro.circuit import get_benchmark
from repro.core import compile_circuit, estimate_yield
from repro.hardware import HardwareConfig
from repro.hardware.degradation import (
    SiteNoiseMap,
    make_scenario,
    program_site_profile,
    site_analytic_yield,
)
from repro.hardware.noise import NoiseModel
from repro.sim.noisy import ENGINES, FaultCounts, NoisySampler

MODEL = NoiseModel(
    fusion_success=0.75,
    fusion_error=0.01,
    cycle_loss=0.002,
    measurement_error=0.001,
)


def tally(result):
    return {
        "shots": result.shots,
        "successes": result.successes,
        "fault_free": result.fault_free,
        "loss_aborts": result.loss_aborts,
        "logical_failures": result.logical_failures,
        "executed": result.executed,
        "fusion_attempts": result.fusion_attempts,
    }


@pytest.fixture(scope="module")
def compiled():
    hardware = HardwareConfig.square(6)
    circuit = get_benchmark("BV", 8)
    program = compile_circuit(circuit, hardware)
    return hardware, circuit, program


def site_sampler(circuit, program, site_map, seed=7):
    return NoisySampler(
        circuit,
        counts=FaultCounts.from_program(program),
        seed=seed,
        site_map=site_map,
        site_profile=program_site_profile(program, site_map.shape),
    )


class TestUniformBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_uniform_map_bit_identical_to_scalar_model(
        self, compiled, engine
    ):
        hardware, circuit, program = compiled
        counts = FaultCounts.from_program(program)
        scalar = NoisySampler(
            circuit, model=MODEL, counts=counts, seed=7
        ).run(400, engine=engine)
        site_map = SiteNoiseMap.uniform(MODEL, hardware.extended_shape)
        mapped = site_sampler(circuit, program, site_map).run(
            400, engine=engine
        )
        assert tally(mapped) == tally(scalar)

    def test_uniform_map_needs_no_profile(self, compiled):
        hardware, circuit, program = compiled
        site_map = SiteNoiseMap.uniform(MODEL, hardware.extended_shape)
        sampler = NoisySampler(
            circuit,
            counts=FaultCounts.from_program(program),
            seed=7,
            site_map=site_map,
        )
        assert sampler.model == MODEL


class TestHeterogeneousSampling:
    @pytest.fixture(scope="class")
    def hetero(self, compiled):
        hardware, circuit, program = compiled
        site_map = make_scenario(
            "degraded-fusion",
            hardware.extended_shape,
            0.5,
            base=MODEL,
            seed=3,
        )
        return circuit, program, site_map

    def test_engines_agree(self, hetero):
        circuit, program, site_map = hetero
        results = [
            tally(
                site_sampler(circuit, program, site_map).run(
                    400, engine=engine
                )
            )
            for engine in ENGINES
        ]
        assert results[0] == results[1]

    def test_agrees_with_per_site_closed_form(self, hetero):
        circuit, program, site_map = hetero
        result = site_sampler(circuit, program, site_map).run(4000)
        assert result.analytic_override is not None
        assert result.agrees_with_analytic(k=3.0)

    def test_deterministic_at_fixed_seed(self, hetero):
        circuit, program, site_map = hetero
        a = site_sampler(circuit, program, site_map, seed=11).run(300)
        b = site_sampler(circuit, program, site_map, seed=11).run(300)
        assert tally(a) == tally(b)

    def test_hetero_map_requires_profile(self, hetero):
        circuit, program, site_map = hetero
        with pytest.raises(ValueError, match="site_profile"):
            NoisySampler(
                circuit,
                counts=FaultCounts.from_program(program),
                seed=7,
                site_map=site_map,
            )

    def test_dead_assigned_fusions_rejected(self, compiled):
        hardware, circuit, program = compiled
        dead = np.ones(hardware.extended_shape, dtype=bool)
        site_map = SiteNoiseMap(
            shape=hardware.extended_shape, base=MODEL, dead=dead
        )
        with pytest.raises(ValueError, match="re-route or recompile"):
            site_sampler(circuit, program, site_map)


class TestNonCliffordSiteMap:
    """``estimate_yield``'s analytic-only branch resolves a site map the
    way the sampler does: per-site closed form, same rejections."""

    @pytest.fixture(scope="class")
    def qft(self):
        hardware = HardwareConfig.square(6)
        circuit = get_benchmark("QFT", 4)
        program = compile_circuit(circuit, hardware)
        return hardware, circuit, program

    def estimate(self, circuit, program, site_map, profile=True):
        return estimate_yield(
            circuit,
            counts=FaultCounts.from_program(program),
            site_map=site_map,
            site_profile=(
                program_site_profile(program, site_map.shape)
                if profile else None
            ),
        )

    def test_reports_per_site_closed_form(self, qft):
        hardware, circuit, program = qft
        site_map = make_scenario(
            "degraded-fusion", hardware.extended_shape, 0.5,
            base=MODEL, seed=3,
        )
        estimate = self.estimate(circuit, program, site_map)
        counts = FaultCounts.from_program(program)
        assert estimate.method == "analytic-only"
        assert estimate.yield_analytic == site_analytic_yield(
            program_site_profile(program, site_map.shape),
            site_map,
            counts.measurements,
        )
        assert estimate.yield_analytic < counts.analytic_yield(MODEL)

    def test_uniform_map_collapses_to_scalar_model(self, qft):
        hardware, circuit, program = qft
        site_map = SiteNoiseMap.uniform(MODEL, hardware.extended_shape)
        estimate = self.estimate(circuit, program, site_map, profile=False)
        assert estimate.yield_analytic == FaultCounts.from_program(
            program
        ).analytic_yield(MODEL)

    def test_hetero_map_requires_profile(self, qft):
        hardware, circuit, program = qft
        site_map = make_scenario(
            "degraded-fusion", hardware.extended_shape, 0.5,
            base=MODEL, seed=3,
        )
        with pytest.raises(ValueError, match="site_profile"):
            self.estimate(circuit, program, site_map, profile=False)

    def test_dead_assigned_fusions_rejected(self, qft):
        hardware, circuit, program = qft
        dead = np.ones(hardware.extended_shape, dtype=bool)
        site_map = SiteNoiseMap(
            shape=hardware.extended_shape, base=MODEL, dead=dead
        )
        with pytest.raises(ValueError, match="re-route or recompile"):
            self.estimate(circuit, program, site_map)
