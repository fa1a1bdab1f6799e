"""Single-defect fault simulation services."""

import random

import pytest

from repro.circuit.generators import random_dag, ripple_carry_adder
from repro.circuit.netlist import Site
from repro.faults.injection import FaultyCircuit, defect_creates_feedback
from repro.faults.models import (
    BridgeDefect,
    BridgeKind,
    ByzantineDefect,
    OpenDefect,
    StuckAtDefect,
    TransitionDefect,
    TransitionKind,
)
from repro.sim import faultsim
from repro.sim.cache import sim_context
from repro.sim.faultsim import (
    FaultCoverageResult,
    defect_output_diff,
    detect_vector,
    effective_pattern_order,
    fault_coverage,
    single_defect_overrides,
)
from repro.sim.logicsim import simulate, simulate_outputs
from repro.sim.patterns import PatternSet


def _reference_diff(netlist, patterns, defect):
    golden = simulate_outputs(netlist, patterns)
    faulty = FaultyCircuit(netlist, [defect]).simulate_outputs(patterns)
    return {
        out: (golden[out] ^ faulty[out]) & patterns.mask
        for out in netlist.outputs
        if (golden[out] ^ faulty[out]) & patterns.mask
    }


@pytest.fixture(scope="module")
def dag():
    return random_dag(70, n_inputs=8, n_outputs=5, seed=12)


@pytest.fixture(scope="module")
def dag_patterns(dag):
    return PatternSet.random(dag, 40, seed=12)


class TestOverridesAgreeWithFullSim:
    def test_stuck_and_open(self, dag, dag_patterns):
        ctx = sim_context(dag, dag_patterns)
        for site in dag.sites()[::7]:
            for defect in (StuckAtDefect(site, 0), OpenDefect(site, 1)):
                got = defect_output_diff(ctx, defect)
                assert got == _reference_diff(dag, dag_patterns, defect), str(defect)

    def test_transition(self, dag, dag_patterns):
        ctx = sim_context(dag, dag_patterns)
        for site in dag.sites()[::9]:
            for kind in TransitionKind:
                defect = TransitionDefect(site, kind)
                got = defect_output_diff(ctx, defect)
                assert got == _reference_diff(dag, dag_patterns, defect), str(defect)

    def test_byzantine(self, dag, dag_patterns):
        ctx = sim_context(dag, dag_patterns)
        defect = ByzantineDefect(Site(dag.topo_order[30]), seed=77, activity=0.3)
        got = defect_output_diff(ctx, defect)
        assert got == _reference_diff(dag, dag_patterns, defect)

    def test_forward_bridge_fast_path(self, dag, dag_patterns):
        ctx = sim_context(dag, dag_patterns)
        # Pick a victim and an aggressor outside each other's cones: a
        # legal short of every kind.
        victim = dag.topo_order[40]
        cone = dag.fanout_cone([victim])
        aggressor = next(
            net
            for net in dag.nets()
            if net not in cone and victim not in dag.fanout_cone([net])
        )
        for kind in BridgeKind:
            defect = BridgeDefect(victim, aggressor, kind)
            overrides = single_defect_overrides(ctx, defect)
            assert overrides is not None, kind
            got = defect_output_diff(ctx, defect)
            assert got == _reference_diff(dag, dag_patterns, defect), kind
            # A dominant short overrides one site: graded by critical path
            # tracing; a wired one overrides both nets.
            detected = 0
            for delta in got.values():
                detected |= delta
            assert detect_vector(ctx, defect) == detected, kind

    def test_backward_bridge_falls_back(self, dag, dag_patterns):
        ctx = sim_context(dag, dag_patterns)
        victim = dag.topo_order[5]
        cone = dag.fanout_cone([victim])
        inside = next(net for net in dag.topo_order[6:] if net in cone)
        for kind in BridgeKind:
            defect = BridgeDefect(victim, inside, kind)
            assert defect_creates_feedback(dag, [defect]), kind
            assert single_defect_overrides(ctx, defect) is None, kind

    def test_wired_bridge_onto_own_cone_falls_back(self, dag, dag_patterns):
        """A wired short drives the aggressor too, so a victim inside the
        aggressor's cone closes a loop; a dominant short there does not."""
        ctx = sim_context(dag, dag_patterns)
        aggressor = dag.topo_order[5]
        cone = dag.fanout_cone([aggressor])
        victim = next(net for net in dag.topo_order[6:] if net in cone)
        for kind in (BridgeKind.WIRED_AND, BridgeKind.WIRED_OR):
            defect = BridgeDefect(victim, aggressor, kind)
            assert defect_creates_feedback(dag, [defect]), kind
            assert single_defect_overrides(ctx, defect) is None, kind
        dominant = BridgeDefect(victim, aggressor, BridgeKind.DOMINANT)
        assert not defect_creates_feedback(dag, [dominant])
        assert single_defect_overrides(ctx, dominant) is not None
        got = defect_output_diff(ctx, dominant)
        assert got == _reference_diff(dag, dag_patterns, dominant)


class TestDetection:
    def test_detect_vector_or_of_outputs(self, tiny_and):
        pats = PatternSet.exhaustive(tiny_and)
        fault = StuckAtDefect(Site("ab"), 1)
        vec = detect_vector(sim_context(tiny_and, pats), fault)
        # ab sa1 flips z wherever ab==0 and c==0.
        base = simulate(tiny_and, pats)
        want = (~base["ab"]) & (~pats.bits["c"]) & pats.mask
        assert vec == want

    def test_fault_coverage_counts(self, rca4):
        pats = PatternSet.random(rca4, 48, seed=5)
        faults = [StuckAtDefect(s, v) for s in rca4.sites()[:20] for v in (0, 1)]
        result = fault_coverage(rca4, pats, faults)
        assert result.n_faults == len(faults)
        assert len(result.detected) + len(result.undetected) == len(faults)
        assert 0.0 <= result.coverage <= 1.0
        for fault in result.detected:
            assert result.detect_bits[fault] != 0

    def test_empty_fault_list(self, rca4):
        pats = PatternSet.random(rca4, 8, seed=5)
        result = fault_coverage(rca4, pats, [])
        assert result.coverage == 1.0


class TestCompactionOrder:
    def test_prefix_detects_everything_detected(self):
        n = ripple_carry_adder(4)
        pats = PatternSet.random(n, 32, seed=6)
        faults = [StuckAtDefect(s, v) for s in n.sites()[::3] for v in (0, 1)]
        grading = fault_coverage(n, pats, faults)
        order = effective_pattern_order(n, pats, faults)
        assert len(set(order)) == len(order)
        compact = pats.subset(order)
        regraded = fault_coverage(n, compact, faults)
        assert len(regraded.detected) == len(grading.detected)

    def test_order_greedy_property(self):
        n = ripple_carry_adder(4)
        pats = PatternSet.random(n, 32, seed=7)
        faults = [StuckAtDefect(s, v) for s in n.sites()[::4] for v in (0, 1)]
        order = effective_pattern_order(n, pats, faults)
        assert order, "some pattern must detect something"


def _recount_order(detect_bits):
    """The greedy order by recounting every remaining fault's detections
    for each pick: the reference the incremental counts must match."""
    remaining = {f: v for f, v in detect_bits.items() if v}
    order = []
    while remaining:
        counts = {}
        for vec in remaining.values():
            while vec:
                low = vec & -vec
                idx = low.bit_length() - 1
                counts[idx] = counts.get(idx, 0) + 1
                vec ^= low
        best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        order.append(best)
        bit = 1 << best
        remaining = {f: v for f, v in remaining.items() if not (v & bit)}
    return order


@pytest.mark.parametrize("seed", range(6))
def test_incremental_order_matches_recount(monkeypatch, seed):
    rng = random.Random(seed)
    n_patterns = rng.choice((1, 7, 40, 130))
    pats = PatternSet.random(ripple_carry_adder(2), n_patterns, seed=seed)
    # Few distinct vectors, each shared by many faults: ties in the counts
    # at most picks.
    shapes = [rng.getrandbits(n_patterns) & rng.getrandbits(n_patterns)
              for _ in range(rng.randint(1, 12))]
    detect_bits = {
        StuckAtDefect(Site(f"f{i}"), i % 2): rng.choice(shapes + [0])
        for i in range(rng.randint(0, 300))
    }
    monkeypatch.setattr(
        faultsim,
        "fault_coverage",
        lambda *args: FaultCoverageResult(detect_bits=detect_bits),
    )
    order = effective_pattern_order(None, pats, list(detect_bits))
    assert order == _recount_order(detect_bits)
