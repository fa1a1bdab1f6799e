"""End-to-end diagnosis pipeline tests."""

import pytest

from repro.campaign.driver import provision_patterns
from repro.campaign.samplers import DEFAULT_MIX, sample_defect_set
from repro.circuit.generators import alu, ripple_carry_adder
from repro.circuit.library import load_circuit
from repro.circuit.netlist import Site
from repro.core import diagnose as diagnose_mod
from repro.core.diagnose import DiagnosisConfig, Diagnoser, diagnose
from repro.errors import DiagnosisError
from repro.faults.models import (
    BridgeDefect,
    ByzantineDefect,
    OpenDefect,
    StuckAtDefect,
    TransitionDefect,
    TransitionKind,
)
from repro.serve.protocol import canonical_report_json
from repro.sim.cache import MAX_CONTEXTS, reset_sim_caches, sim_context
from repro.sim.patterns import PatternSet
from repro.tester.harness import apply_test


@pytest.fixture(scope="module")
def rca6():
    return ripple_carry_adder(6)


@pytest.fixture(scope="module")
def pats(rca6):
    return PatternSet.random(rca6, 48, seed=51)


def _near_nets(netlist, net):
    near = {net}
    gate = netlist.driver(net)
    if gate:
        near.update(gate.inputs)
    for dest, _pin in netlist.fanout(net):
        near.add(dest)
    return near


def _located(netlist, report, site):
    reported_nets = {c.site.net for c in report.candidates}
    return bool(reported_nets & _near_nets(netlist, site.net))


class TestSingleDefectFamilies:
    def _run(self, rca6, pats, defect):
        result = apply_test(rca6, pats, [defect])
        if result.datalog.is_passing_device:
            pytest.skip(f"{defect} invisible to this test set")
        report = Diagnoser(rca6).diagnose(pats, result.datalog)
        return report

    def test_stuck_at_located_and_modeled(self, rca6, pats):
        defect = StuckAtDefect(Site("n12"), 0)
        report = self._run(rca6, pats, defect)
        assert _located(rca6, report, defect.site)
        best = report.multiplets[0]
        assert best.complete
        # At least one candidate carries a concrete stuck-at hypothesis.
        assert any(
            c.best and c.best.kind in ("sa0", "sa1") for c in report.candidates
        )

    def test_open_located(self, rca6, pats):
        branch = next(s for s in rca6.sites() if not s.is_stem)
        defect = OpenDefect(branch, 1)
        report = self._run(rca6, pats, defect)
        assert _located(rca6, report, Site(branch.net))

    def test_bridge_located(self, rca6, pats):
        victim = "n12"
        cone = rca6.fanout_cone([victim])
        aggressor = next(
            net for net in rca6.nets() if net not in cone and net != victim
        )
        defect = BridgeDefect(victim, aggressor)
        report = self._run(rca6, pats, defect)
        assert _located(rca6, report, Site(victim))

    def test_transition_located(self, rca6, pats):
        defect = TransitionDefect(Site("n12"), TransitionKind.SLOW_TO_FALL)
        report = self._run(rca6, pats, defect)
        assert _located(rca6, report, defect.site)

    def test_byzantine_located(self, rca6, pats):
        defect = ByzantineDefect(Site("n12"), seed=13, activity=0.5)
        report = self._run(rca6, pats, defect)
        assert _located(rca6, report, defect.site)


class TestMultipleDefects:
    def test_double_stuck_all_located(self, rca6, pats):
        defects = [StuckAtDefect(Site("a1"), 1), StuckAtDefect(Site("b4"), 0)]
        result = apply_test(rca6, pats, defects)
        report = Diagnoser(rca6).diagnose(pats, result.datalog)
        for d in defects:
            assert _located(rca6, report, d.site), str(d)
        assert report.multiplets
        assert report.multiplets[0].complete

    def test_mixed_family_pair(self, rca6, pats):
        defects = [
            StuckAtDefect(Site("a1"), 1),
            TransitionDefect(Site("n20"), TransitionKind.SLOW_TO_RISE),
        ]
        result = apply_test(rca6, pats, defects)
        if result.datalog.is_passing_device:
            pytest.skip("invisible")
        report = Diagnoser(rca6).diagnose(pats, result.datalog)
        assert _located(rca6, report, Site("a1"))


class TestPipelineMechanics:
    def test_passing_device_empty_report(self, rca6, pats):
        result = apply_test(rca6, pats, [])
        report = Diagnoser(rca6).diagnose(pats, result.datalog)
        assert not report.candidates
        assert not report.multiplets
        assert report.stats["n_failing_patterns"] == 0

    def test_pattern_count_mismatch(self, rca6, pats):
        result = apply_test(rca6, pats, [StuckAtDefect(Site("a1"), 1)])
        wrong = PatternSet.random(rca6, 8, seed=1)
        with pytest.raises(DiagnosisError):
            Diagnoser(rca6).diagnose(wrong, result.datalog)

    def test_unknown_engine_rejected(self, rca6):
        with pytest.raises(DiagnosisError):
            Diagnoser(rca6, DiagnosisConfig(engine="nope"))

    def test_determinism(self, rca6, pats):
        defects = [StuckAtDefect(Site("a1"), 1), StuckAtDefect(Site("b4"), 0)]
        result = apply_test(rca6, pats, defects)
        r1 = Diagnoser(rca6).diagnose(pats, result.datalog)
        r2 = Diagnoser(rca6).diagnose(pats, result.datalog)
        assert [c.site for c in r1.candidates] == [c.site for c in r2.candidates]
        assert [m.sites for m in r1.multiplets] == [m.sites for m in r2.multiplets]

    def test_stats_populated(self, rca6, pats):
        result = apply_test(rca6, pats, [StuckAtDefect(Site("a1"), 1)])
        report = Diagnoser(rca6).diagnose(pats, result.datalog)
        for key in (
            "seconds",
            "n_failing_patterns",
            "n_candidate_space",
            "n_min_covers",
        ):
            assert key in report.stats

    def test_convenience_wrapper(self, rca6, pats):
        result = apply_test(rca6, pats, [StuckAtDefect(Site("a1"), 1)])
        report = diagnose(rca6, pats, result.datalog)
        assert report.method == "xcover"

    def test_summary_renders(self, rca6, pats):
        result = apply_test(rca6, pats, [StuckAtDefect(Site("a1"), 1)])
        report = Diagnoser(rca6).diagnose(pats, result.datalog)
        text = report.summary()
        assert "candidate sites" in text

    def test_xcover_engine_runs(self, rca6, pats):
        defects = [StuckAtDefect(Site("a1"), 1)]
        result = apply_test(rca6, pats, defects)
        config = DiagnosisConfig(engine="xcover")
        report = Diagnoser(rca6, config).diagnose(pats, result.datalog)
        assert report.candidates
        assert "n_joint_evaluations" in report.stats

    def test_per_pattern_candidates_disabled(self, rca6, pats):
        defects = [StuckAtDefect(Site("a1"), 1), StuckAtDefect(Site("b4"), 0)]
        result = apply_test(rca6, pats, defects)
        lean = Diagnoser(
            rca6, DiagnosisConfig(per_pattern_candidates=0)
        ).diagnose(pats, result.datalog)
        rich = Diagnoser(rca6).diagnose(pats, result.datalog)
        assert len(lean.candidates) <= len(rich.candidates)

    def test_die_keeps_its_context_under_eviction(self, monkeypatch):
        """A die looks its context up once and keeps it: a registry that
        evicts the context mid-run changes neither the report nor the
        simulation work."""
        netlist = load_circuit("alu8")
        patterns = provision_patterns(netlist)
        defects = sample_defect_set(netlist, 2, seed=1, mix=DEFAULT_MIX)
        datalog = apply_test(netlist, patterns, defects).datalog
        reset_sim_caches()
        cold = Diagnoser(netlist).diagnose(patterns, datalog)

        fillers = [PatternSet.random(netlist, 8, seed=s) for s in range(MAX_CONTEXTS)]
        allocate = diagnose_mod.allocate_hypotheses

        def evicting(*args, **kwargs):
            for filler in fillers:
                sim_context(netlist, filler)
            return allocate(*args, **kwargs)

        monkeypatch.setattr(diagnose_mod, "allocate_hypotheses", evicting)
        reset_sim_caches()
        evicted = Diagnoser(netlist).diagnose(patterns, datalog)
        assert canonical_report_json(evicted) == canonical_report_json(cold)
        assert evicted.stats["sim_cone_passes"] == cold.stats["sim_cone_passes"]
