"""Diagnostic test pattern generation tests."""

import pytest

from repro.atpg.diagnostic import (
    expand_diagnostic,
    fault_signatures,
    indistinguished_pairs,
)
from repro.circuit.builder import NetlistBuilder
from repro.circuit.generators import c17, ripple_carry_adder
from repro.circuit.netlist import Site
from repro.faults.collapse import collapse_stuck_at
from repro.faults.models import StuckAtDefect
from repro.sim.cache import context_cache_size, reset_sim_caches, sim_context
from repro.sim.patterns import PatternSet


class TestSignatures:
    def test_equivalent_faults_share_signature(self):
        netlist = c17()
        pats = PatternSet.exhaustive(netlist)
        collapsed = collapse_stuck_at(netlist)
        cls = next(c for c in collapsed.classes if len(c) > 1)
        sigs = fault_signatures(netlist, pats, list(cls))
        assert len(set(sigs.values())) == 1

    def test_indistinguished_pairs_grouping(self):
        sigs = {
            StuckAtDefect(Site("a"), 0): ((("z", 1),)),
            StuckAtDefect(Site("b"), 0): ((("z", 1),)),
            StuckAtDefect(Site("c"), 0): ((("z", 2),)),
            StuckAtDefect(Site("d"), 0): (),  # undetected
        }
        pairs = indistinguished_pairs(sigs)
        assert len(pairs) == 1
        nets = {f.site.net for f in pairs[0]}
        assert nets == {"a", "b"}

    def test_undetected_included_when_asked(self):
        sigs = {
            StuckAtDefect(Site("d"), 0): (),
            StuckAtDefect(Site("e"), 0): (),
        }
        assert indistinguished_pairs(sigs, detected_only=False)
        assert not indistinguished_pairs(sigs, detected_only=True)


class TestExpand:
    def test_reduces_ambiguity_on_short_set(self):
        netlist = ripple_carry_adder(4)
        short = PatternSet.random(netlist, 4, seed=3)
        report = expand_diagnostic(netlist, short, seed=5)
        assert report.pairs_after <= report.pairs_before
        assert report.patterns.n >= short.n
        if report.pairs_before:
            assert report.distinguishability_gain >= 0.0

    def test_exhaustive_set_is_already_maximal(self):
        """On the exhaustive set, only truly equivalent pairs remain, and
        expansion can neither find them distinguishable nor add patterns
        that help -- every surviving pair is reported unresolvable."""
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        b.output(b.and_(a, c, name="z"))
        netlist = b.build()
        pats = PatternSet.exhaustive(netlist)
        report = expand_diagnostic(netlist, pats, seed=1, max_batches_per_pair=2)
        assert report.pairs_after == report.pairs_before
        assert len(report.unresolvable_pairs) == report.pairs_before

    def test_intermediate_pattern_sets_leave_the_registry_alone(self):
        """Trial batches and grown pattern sets are intermediates: however
        many the search builds, only the input test set's context is
        registered."""
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        b.output(b.and_(b.buf(a, name="x"), c, name="z"))
        buffered = b.build()
        # A stuck buffer input and output are never told apart, so every
        # trial batch of the pair runs.
        never = [StuckAtDefect(Site("a"), 0), StuckAtDefect(Site("x"), 0)]
        rca = ripple_carry_adder(4)
        for netlist, pats, faults, unresolved, added in (
            (buffered, PatternSet.exhaustive(buffered), never, 1, 0),
            (rca, PatternSet.random(rca, 4, seed=3), None, 0, 5),
        ):
            reset_sim_caches()
            ctx = sim_context(netlist, pats)
            report = expand_diagnostic(netlist, pats, faults=faults, seed=5)
            assert len(report.unresolvable_pairs) == unresolved
            assert report.patterns_added == added
            assert context_cache_size() == 1
            assert sim_context(netlist, pats) is ctx

    def test_budget_respected(self):
        netlist = ripple_carry_adder(4)
        short = PatternSet.random(netlist, 2, seed=3)
        report = expand_diagnostic(netlist, short, seed=5, max_added=1)
        assert report.patterns_added <= 1

    def test_deterministic(self):
        netlist = c17()
        short = PatternSet.random(netlist, 3, seed=4)
        a = expand_diagnostic(netlist, short, seed=9)
        b = expand_diagnostic(netlist, short, seed=9)
        assert a.patterns == b.patterns
        assert a.pairs_after == b.pairs_after

    def test_diagnosis_resolution_improves(self):
        """The point of DTPG: sharper diagnosis on the expanded set."""
        from repro.core.diagnose import Diagnoser
        from repro.tester.harness import apply_test

        netlist = ripple_carry_adder(4)
        short = PatternSet.random(netlist, 4, seed=13)
        report = expand_diagnostic(netlist, short, seed=13)
        defect = StuckAtDefect(Site("n8"), 0)

        def resolution(patterns):
            result = apply_test(netlist, patterns, [defect])
            if result.datalog.is_passing_device:
                return None
            diag = Diagnoser(netlist).diagnose(patterns, result.datalog)
            return diag.resolution

        before = resolution(short)
        after = resolution(report.patterns)
        if before is None or after is None:
            pytest.skip("defect invisible on the short set")
        assert after <= before
