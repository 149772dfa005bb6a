"""Tests for blocked-cell compilation and the recovery-policy ladder."""

import numpy as np
import pytest

from repro.circuit import get_benchmark
from repro.core import (
    NoViableSitesError,
    OneQCompiler,
    OneQConfig,
    apply_policy,
    assert_valid,
    compile_circuit,
    recover,
    reroute_program,
)
from repro.core.mapping import InLayerMapper
from repro.core.recovery import clean_yield, program_yield
from repro.hardware import HardwareConfig, get_resource_state
from repro.hardware.degradation import (
    SiteNoiseMap,
    make_scenario,
    program_site_profile,
)
from repro.hardware.noise import NoiseModel
from repro.sim.noisy import FaultCounts, NoisySampler

MILD = NoiseModel(
    fusion_success=0.9,
    fusion_error=5e-05,
    cycle_loss=1e-05,
    measurement_error=1e-05,
)


@pytest.fixture(scope="module")
def setup():
    hardware = HardwareConfig.square(6)
    circuit = get_benchmark("BV", 8)
    program = compile_circuit(circuit, hardware)
    return hardware, circuit, program


def dead_map(shape, cells, base=MILD):
    dead = np.zeros(shape, dtype=bool)
    for r, c in cells:
        dead[r, c] = True
    return SiteNoiseMap(shape=shape, base=base, dead=dead)


class TestBlockedCompilation:
    def test_blocked_cells_stay_empty(self, setup):
        hardware, circuit, _ = setup
        blocked = ((0, 0), (2, 3), (5, 5))
        program = OneQCompiler(
            OneQConfig(hardware=hardware, blocked_cells=blocked)
        ).compile(circuit)
        assert_valid(program, hardware)
        for layout in program.layouts:
            occupied = set(layout.node_at) | set(layout.aux_cells)
            assert not occupied & set(blocked)

    def test_out_of_bounds_blocked_cell_rejected(self):
        with pytest.raises(ValueError, match="blocked"):
            InLayerMapper(
                (4, 4), get_resource_state("3-line"), blocked={(9, 9)}
            )

    def test_all_blocked_raises_no_viable_sites(self):
        every = {(r, c) for r in range(3) for c in range(3)}
        with pytest.raises(NoViableSitesError, match="no viable sites"):
            InLayerMapper(
                (3, 3), get_resource_state("3-line"), blocked=every
            )

    def test_all_dead_recompile_raises_through_compiler(self, setup):
        hardware, circuit, _ = setup
        rows, cols = hardware.extended_shape
        every = tuple(
            (r, c) for r in range(rows) for c in range(cols)
        )
        with pytest.raises(NoViableSitesError, match="no viable sites"):
            OneQCompiler(
                OneQConfig(hardware=hardware, blocked_cells=every)
            ).compile(circuit)


class TestReroute:
    def test_reroute_vacates_avoided_cells(self, setup):
        hardware, circuit, program = setup
        site_map = make_scenario(
            "dead-rsg", hardware.extended_shape, 0.1, base=MILD, seed=7
        )
        config = OneQConfig(hardware=hardware)
        rerouted, moved = reroute_program(program, site_map, config)
        assert moved > 0
        assert_valid(rerouted, hardware)
        avoid = set(site_map.avoid_cells())
        for layout in rerouted.layouts:
            occupied = set(layout.node_at) | set(layout.aux_cells)
            assert not occupied & avoid

    def test_reroute_restores_nonzero_yield(self, setup):
        hardware, circuit, program = setup
        site_map = make_scenario(
            "dead-rsg", hardware.extended_shape, 0.1, base=MILD, seed=7
        )
        config = OneQConfig(hardware=hardware)
        assert program_yield(program, site_map) == 0.0
        rerouted, _ = reroute_program(program, site_map, config)
        assert program_yield(rerouted, site_map) > 0.9

    def test_input_program_never_mutated(self, setup):
        hardware, circuit, program = setup
        site_map = make_scenario(
            "dead-rsg", hardware.extended_shape, 0.1, base=MILD, seed=7
        )
        before = [
            (dict(l.node_at), set(l.aux_cells)) for l in program.layouts
        ]
        reroute_program(program, site_map, OneQConfig(hardware=hardware))
        after = [
            (dict(l.node_at), set(l.aux_cells)) for l in program.layouts
        ]
        assert before == after


class TestPolicyLadder:
    def test_unknown_policy_rejected(self, setup):
        hardware, circuit, program = setup
        site_map = SiteNoiseMap.uniform(MILD, hardware.extended_shape)
        with pytest.raises(ValueError, match="unknown policy"):
            apply_policy(
                "pray", circuit, program, site_map,
                OneQConfig(hardware=hardware),
            )

    def test_all_dead_recompile_reports_no_viable_sites(self, setup):
        """The degenerate all-sites-dead device: every policy fails,
        and recompile's failure message names the real problem."""
        hardware, circuit, program = setup
        rows, cols = hardware.extended_shape
        site_map = dead_map(
            hardware.extended_shape,
            [(r, c) for r in range(rows) for c in range(cols)],
        )
        config = OneQConfig(hardware=hardware)
        outcome = apply_policy(
            "recompile", circuit, program, site_map, config
        )
        assert outcome.program is None
        assert outcome.yield_degraded == 0.0
        assert "no viable sites" in outcome.error
        report = recover(circuit, program, site_map, config)
        assert report.recovered is False
        assert report.yield_degraded == 0.0
        # the best rung (survive, yield 0) still carries its program
        assert report.policy == "survive"
        assert report.program is program

    def test_harmless_scenario_survives_in_place(self, setup):
        hardware, circuit, program = setup
        site_map = make_scenario(
            "degraded-fusion",
            hardware.extended_shape,
            0.1,
            base=MILD,
            seed=7,
        )
        report = recover(
            circuit, program, site_map, OneQConfig(hardware=hardware),
            scenario="degraded-fusion", severity=0.1,
        )
        assert report.recovered is True
        assert report.policy == "survive"
        assert report.rerouted_fusions == 0
        assert report.program is program

    def test_dead_rsg_collapse_recovered_by_reroute(self, setup):
        hardware, circuit, program = setup
        site_map = make_scenario(
            "dead-rsg", hardware.extended_shape, 0.1, base=MILD, seed=7
        )
        report = recover(
            circuit, program, site_map, OneQConfig(hardware=hardware),
            scenario="dead-rsg", severity=0.1,
        )
        assert report.yield_survive == 0.0
        assert report.recovered is True
        assert report.policy == "reroute"
        assert report.rerouted_fusions > 0
        assert report.yield_degraded >= 0.5 * report.yield_clean
        assert "recovered via reroute" in report.summary()
        # the report carries the winning rung's program, identical to a
        # fresh application of that rung
        rerouted = apply_policy(
            "reroute", circuit, program, site_map,
            OneQConfig(hardware=hardware),
        ).program
        assert report.program is not None
        assert report.program is not program
        assert report.program.layouts == rerouted.layouts
        assert report.program.fusions == rerouted.fusions
        assert program_yield(report.program, site_map) == (
            report.yield_degraded
        )

    def test_recovered_yield_within_three_sigma_of_clean(self, setup):
        """End-to-end: Monte-Carlo sample the recovered program under
        the degradation map; its fault-free yield must sit within 3
        binomial sigma of the *clean-hardware* analytic yield — the
        recovery genuinely restored the program, not just the report."""
        hardware, circuit, program = setup
        site_map = make_scenario(
            "dead-rsg", hardware.extended_shape, 0.1, base=MILD, seed=7
        )
        config = OneQConfig(hardware=hardware)
        outcome = apply_policy(
            "reroute", circuit, program, site_map, config
        )
        recovered = outcome.program
        sampler = NoisySampler(
            circuit,
            counts=FaultCounts.from_program(recovered),
            seed=7,
            site_map=site_map,
            site_profile=program_site_profile(
                recovered, site_map.shape
            ),
        )
        result = sampler.run(2000)
        clean = clean_yield(program, site_map)
        sigma = (clean * (1.0 - clean) / 2000) ** 0.5
        assert abs(result.fault_free_yield - clean) <= 3.0 * sigma
        # and the sampled tally agrees with its own per-site closed form
        assert result.agrees_with_analytic(k=3.0)
