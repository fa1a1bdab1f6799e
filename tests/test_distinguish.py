"""Adaptive diagnosis / distinguishing-pattern tests."""

import pytest

from repro.circuit.builder import NetlistBuilder
from repro.circuit.generators import ripple_carry_adder
from repro.circuit.library import load_circuit
from repro.circuit.netlist import Site
from repro.core.distinguish import (
    adaptive_diagnose,
    distinguishing_pattern,
)
from repro.faults.injection import FaultyCircuit
from repro.faults.models import StuckAtDefect
from repro.sim.cache import (
    SimContext,
    context_cache_size,
    reset_sim_caches,
    sim_context,
)
from repro.sim.patterns import PatternSet

from tests.conftest import naive_simulate


@pytest.fixture(scope="module")
def rca():
    return ripple_carry_adder(6)


class TestDistinguishingPattern:
    def test_found_for_distinguishable_sites(self, rca):
        pattern = distinguishing_pattern(rca, Site("a0"), Site("b5"), seed=1)
        assert pattern is not None
        # Verify: flipping the two sites under this pattern differs on >=1 output.
        ctx = SimContext(rca, PatternSet.from_vectors(rca.inputs, [pattern]))
        assert ctx.flip_signature(Site("a0")) != ctx.flip_signature(Site("b5"))

    def test_none_for_equivalent_sites(self):
        """An inverter's input and output flips are indistinguishable."""
        b = NetlistBuilder("inv")
        a = b.input("a")
        x = b.not_(a, name="x")
        b.output(b.not_(x, name="z"))
        n = b.build()
        assert distinguishing_pattern(n, Site("a"), Site("x"), max_batches=4) is None

    def test_deterministic(self, rca):
        p1 = distinguishing_pattern(rca, Site("a0"), Site("b5"), seed=9)
        p2 = distinguishing_pattern(rca, Site("a0"), Site("b5"), seed=9)
        assert p1 == p2

    def test_batches_leave_the_registry_alone(self):
        """Random batches are tried once: registering each would fill the
        registry and evict the context a die still holds."""
        netlist = load_circuit("alu8")
        patterns = PatternSet.random(netlist, 32, seed=1)
        reset_sim_caches()
        ctx = sim_context(netlist, patterns)
        site = Site(netlist.topo_order[0])
        # A site paired with itself is never distinguished: every batch runs.
        assert distinguishing_pattern(netlist, site, site, max_batches=20) is None
        assert context_cache_size() == 1
        assert sim_context(netlist, patterns) is ctx


class TestAdaptiveDiagnose:
    def test_resolution_never_grows(self, rca):
        defects = [StuckAtDefect(Site("n12"), 0)]
        dut = FaultyCircuit(rca, defects)
        patterns = PatternSet.random(rca, 12, seed=3)
        result = adaptive_diagnose(
            rca, patterns, dut.simulate_outputs, target_resolution=2, seed=5
        )
        assert result.final_resolution <= result.initial_resolution
        assert result.report.candidates

    def test_truth_still_located_after_adaptation(self, rca):
        defects = [StuckAtDefect(Site("n12"), 0)]
        dut = FaultyCircuit(rca, defects)
        patterns = PatternSet.random(rca, 12, seed=3)
        result = adaptive_diagnose(
            rca, patterns, dut.simulate_outputs, target_resolution=2, seed=5
        )
        nets = {c.site.net for c in result.report.candidates}
        near = {"n12"} | set(rca.driver("n12").inputs) | {
            dest for dest, _pin in rca.fanout("n12")
        }
        assert nets & near

    def test_already_sharp_no_rounds(self, rca):
        defects = [StuckAtDefect(Site("n12"), 0)]
        dut = FaultyCircuit(rca, defects)
        patterns = PatternSet.random(rca, 48, seed=3)
        result = adaptive_diagnose(
            rca, patterns, dut.simulate_outputs, target_resolution=100
        )
        assert result.patterns_added == 0
        assert result.rounds == 0

    def test_passing_device(self, rca):
        dut = FaultyCircuit(rca, [])
        patterns = PatternSet.random(rca, 8, seed=1)
        result = adaptive_diagnose(rca, patterns, dut.simulate_outputs)
        assert not result.report.candidates
        assert result.patterns_added == 0
