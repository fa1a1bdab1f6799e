"""Candidate indistinguishability class tests."""

import pytest

from repro.circuit.builder import NetlistBuilder
from repro.circuit.generators import ripple_carry_adder
from repro.circuit.netlist import Site
from repro.core.diagnose import Diagnoser
from repro.core.equivalence import (
    classed_resolution,
    group_candidates,
    signature_classes,
)
from repro.faults.models import StuckAtDefect
from repro.sim.cache import SimContext
from repro.sim.patterns import PatternSet
from repro.tester.harness import apply_test


@pytest.fixture
def chain():
    """a -> x -> y -> z : all four sites are indistinguishable."""
    b = NetlistBuilder("chain")
    a = b.input("a")
    x = b.not_(a, name="x")
    y = b.not_(x, name="y")
    b.output(b.buf(y, name="z"))
    return b.build()


class TestSignatureClasses:
    def test_chain_collapses_to_one_class(self, chain):
        pats = PatternSet.exhaustive(chain)
        sites = [Site(n) for n in ("a", "x", "y", "z")]
        classes = signature_classes(chain, pats, sites)
        assert len(classes) == 1
        assert set(classes[0]) == set(sites)

    def test_distinct_cones_stay_apart(self):
        b = NetlistBuilder("two")
        p, q = b.inputs("p", "q")
        b.output(b.not_(p, name="z1"))
        b.output(b.not_(q, name="z2"))
        n = b.build()
        pats = PatternSet.exhaustive(n)
        classes = signature_classes(n, pats, [Site("p"), Site("q")])
        assert len(classes) == 2

    def test_signature_deterministic(self, chain):
        pats = PatternSet.exhaustive(chain)
        first = SimContext(chain, pats).flip_signature(Site("x"))
        assert SimContext(chain, pats).flip_signature(Site("x")) == first

    def test_order_stable(self, chain):
        pats = PatternSet.exhaustive(chain)
        sites = [Site("z"), Site("a")]
        classes = signature_classes(chain, pats, sites)
        assert classes[0][0] == Site("z")  # first appearance leads


class TestReportGrouping:
    def test_classed_resolution_below_raw(self):
        netlist = ripple_carry_adder(6)
        pats = PatternSet.random(netlist, 32, seed=3)
        result = apply_test(netlist, pats, [StuckAtDefect(Site("b1"), 1)])
        report = Diagnoser(netlist).diagnose(pats, result.datalog)
        classes = group_candidates(netlist, pats, report)
        assert 1 <= len(classes) <= report.resolution
        assert classed_resolution(netlist, pats, report) == len(classes)
        # every candidate appears in exactly one class
        members = [c.site for cls in classes for c in cls.members]
        assert sorted(map(str, members)) == sorted(
            str(c.site) for c in report.candidates
        )

    def test_describe(self, chain):
        pats = PatternSet.exhaustive(chain)
        result = apply_test(chain, pats, [StuckAtDefect(Site("x"), 0)])
        report = Diagnoser(chain).diagnose(pats, result.datalog)
        classes = group_candidates(chain, pats, report)
        text = classes[0].describe()
        assert "equivalent" in text or classes[0].members
