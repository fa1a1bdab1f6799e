"""Fault-model allocation (refinement) tests."""

import pytest

from repro.circuit.netlist import Site
from repro.core.backtrace import candidate_sites
from repro.core.pertest import build_pertest
from repro.core.refine import (
    BRIDGE_LEVEL_DISTANCE,
    MAX_AGGRESSORS,
    _aggressor_pool,
    allocate_hypotheses,
)
from repro.faults.models import (
    BridgeDefect,
    StuckAtDefect,
    TransitionDefect,
    TransitionKind,
)
from repro.circuit.generators import ripple_carry_adder
from repro.circuit.library import load_circuit
from repro.sim.cache import sim_context
from repro.sim.patterns import PatternSet
from repro.tester.harness import apply_test


@pytest.fixture(scope="module")
def rca6():
    return ripple_carry_adder(6)


@pytest.fixture(scope="module")
def pats(rca6):
    return PatternSet.random(rca6, 40, seed=41)


def _hypotheses(netlist, patterns, defects, site, vindicate=True):
    result = apply_test(netlist, patterns, defects)
    assert result.device_fails
    ctx = sim_context(netlist, patterns)
    envelope = candidate_sites(netlist, result.datalog)
    pt = build_pertest(ctx, result.datalog, envelope)
    return allocate_hypotheses(ctx, result.datalog, site, pt, vindicate=vindicate)


class TestStuckAllocation:
    def test_correct_polarity_ranked_first(self, rca6, pats):
        site = Site("b2")
        hyps = _hypotheses(rca6, pats, [StuckAtDefect(site, 1)], site)
        assert hyps[0].kind == "sa1"
        assert hyps[0].false_alarms == 0
        assert hyps[0].misses == 0

    def test_wrong_polarity_vindicated_away(self, rca6, pats):
        site = Site("b2")
        hyps = _hypotheses(rca6, pats, [StuckAtDefect(site, 1)], site)
        kinds = [h.kind for h in hyps]
        assert "sa0" not in kinds  # sa0 would predict failures on passers

    def test_arbitrary_always_last(self, rca6, pats):
        site = Site("b2")
        hyps = _hypotheses(rca6, pats, [StuckAtDefect(site, 1)], site)
        assert hyps[-1].kind == "arbitrary"
        assert hyps[-1].false_alarms == 0

    def test_branch_site_labeled_open(self, rca6, pats):
        from repro.faults.models import OpenDefect

        # choose a real branch site in the adder
        branch = next(s for s in rca6.sites() if not s.is_stem)
        result = apply_test(rca6, pats, [OpenDefect(branch, 1)])
        if result.datalog.is_passing_device:
            pytest.skip("invisible branch open")
        ctx = sim_context(rca6, pats)
        envelope = candidate_sites(rca6, result.datalog)
        pt = build_pertest(ctx, result.datalog, envelope)
        hyps = allocate_hypotheses(ctx, result.datalog, branch, pt)
        concrete = [h.kind for h in hyps if h.kind != "arbitrary"]
        assert any(k.startswith("open") for k in concrete)


class TestBridgeAllocation:
    def test_dominant_bridge_aggressor_found(self, rca6, pats):
        victim = "n8"
        # choose an aggressor near the victim's level outside its cone
        cone = rca6.fanout_cone([victim])
        lvl = rca6.level(victim)
        aggressor = next(
            net
            for net in rca6.nets()
            if net not in cone and net != victim and abs(rca6.level(net) - lvl) <= 2
        )
        defect = BridgeDefect(victim, aggressor)
        site = Site(victim)
        hyps = _hypotheses(rca6, pats, [defect], site)
        bridges = [h for h in hyps if h.kind == "bridge"]
        assert any(h.aggressor == aggressor for h in bridges) or hyps[0].hits > 0


class TestTransitionAllocation:
    def test_slow_to_rise_detected(self, rca6, pats):
        site = Site("n8")
        defect = TransitionDefect(site, TransitionKind.SLOW_TO_RISE)
        result = apply_test(rca6, pats, [defect])
        if result.datalog.is_passing_device:
            pytest.skip("no launch/capture edge in this pattern set")
        ctx = sim_context(rca6, pats)
        envelope = candidate_sites(rca6, result.datalog)
        pt = build_pertest(ctx, result.datalog, envelope)
        hyps = allocate_hypotheses(ctx, result.datalog, site, pt)
        assert hyps[0].kind in ("str", "arbitrary")
        if hyps[0].kind == "str":
            assert hyps[0].misses == 0


class TestVindicationKnob:
    def test_vindication_off_keeps_contradicted_models(self, rca6, pats):
        site = Site("b2")
        strict = _hypotheses(rca6, pats, [StuckAtDefect(site, 1)], site)
        lax = _hypotheses(rca6, pats, [StuckAtDefect(site, 1)], site, vindicate=False)
        assert len(lax) >= len(strict)
        assert any(h.false_alarms > 0 for h in lax) or len(lax) == len(strict)


class TestAggressorPool:
    """The level-band scan picks the pool a scan of every net picks."""

    @staticmethod
    def _full_scan(netlist, site, base, evidence):
        victim = site.net
        relevant = {idx for idx, _out in evidence.atoms_of(site)}
        if not relevant:
            relevant = set(evidence.datalog.failing_indices)
        relevance_mask = sum(1 << idx for idx in relevant)
        victim_cone = netlist.fanout_cone([victim])
        scored = []
        for net in netlist.nets():
            if net == victim or net in victim_cone:
                continue
            if abs(netlist.level(net) - netlist.level(victim)) > BRIDGE_LEVEL_DISTANCE:
                continue
            count = bin((base[net] ^ base[victim]) & relevance_mask).count("1")
            if count:
                scored.append((count, net))
        scored.sort(key=lambda kv: (-kv[0], kv[1]))
        return [net for _count, net in scored[:MAX_AGGRESSORS]]

    @pytest.mark.parametrize("name", ["mul8", "alu16", "rnd100"])
    def test_band_scan_equals_full_scan(self, name):
        netlist = load_circuit(name)
        patterns = PatternSet.random(netlist, 32, seed=5)
        stem = netlist.stem_site(netlist.topo_order[len(netlist.topo_order) // 2])
        result = apply_test(netlist, patterns, [StuckAtDefect(stem, 0)])
        if not result.device_fails:
            result = apply_test(netlist, patterns, [StuckAtDefect(stem, 1)])
        assert result.device_fails
        ctx = sim_context(netlist, patterns)
        evidence = build_pertest(
            ctx, result.datalog, candidate_sites(netlist, result.datalog)
        )
        for site in netlist.sites(include_branches=False):
            assert _aggressor_pool(ctx, site, evidence) == self._full_scan(
                netlist, site, ctx.base, evidence
            ), site
