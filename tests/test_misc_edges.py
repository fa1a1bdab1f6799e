"""Edge-path tests across modules (error surfaces, describe helpers)."""

import pytest

from repro.circuit.netlist import Site
from repro.core.report import Candidate, Hypothesis, Multiplet
from repro.errors import (
    AtpgError,
    DatalogError,
    DiagnosisError,
    FaultModelError,
    NetlistError,
    OscillationError,
    ParseError,
    ReproError,
    SimulationError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            NetlistError,
            ParseError,
            SimulationError,
            OscillationError,
            FaultModelError,
            AtpgError,
            DiagnosisError,
            DatalogError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_oscillation_is_simulation_error(self):
        assert issubclass(OscillationError, SimulationError)

    def test_parse_error_line_prefix(self):
        err = ParseError("bad token", line=7)
        assert "line 7" in str(err)
        assert err.line == 7
        bare = ParseError("no line info")
        assert bare.line is None


class TestReportDescribe:
    def test_candidate_describe_lists_models(self):
        candidate = Candidate(
            site=Site("x"),
            hypotheses=(
                Hypothesis("sa1", Site("x"), hits=2),
                Hypothesis("str", Site("x"), hits=1),
                Hypothesis("arbitrary", Site("x")),
            ),
        )
        text = candidate.describe()
        assert "sa1" in text and "str" in text

    def test_candidate_empty_hypotheses(self):
        candidate = Candidate(site=Site("x"), hypotheses=())
        assert candidate.best is None
        assert candidate.best_kind == "arbitrary"
        assert "arbitrary" in candidate.describe()

    def test_multiplet_describe(self):
        m = Multiplet((Site("a"), Site("b")), 3, 4, iou=0.5)
        text = m.describe()
        assert "3/4" in text and "0.50" in text


class TestCoverEdges:
    def test_pertest_enumeration_budget_exhaustion(self):
        """With a tiny max_checks the enumeration returns what it found."""
        from repro.circuit.generators import ripple_carry_adder
        from repro.core.backtrace import candidate_sites
        from repro.core.cover import enumerate_pertest_min_covers
        from repro.core.pertest import build_pertest
        from repro.faults.models import StuckAtDefect
        from repro.sim.cache import sim_context
        from repro.sim.patterns import PatternSet
        from repro.tester.harness import apply_test

        netlist = ripple_carry_adder(4)
        pats = PatternSet.random(netlist, 24, seed=3)
        result = apply_test(netlist, pats, [StuckAtDefect(Site("a1"), 1)])
        envelope = candidate_sites(netlist, result.datalog)
        analysis = build_pertest(sim_context(netlist, pats), result.datalog, envelope)
        covers = enumerate_pertest_min_covers(analysis, max_checks=1)
        assert len(covers) <= 1  # budget respected, no crash

    def test_pertest_solution_complete_flag(self):
        from repro.core.cover import PerTestCoverSolution

        done = PerTestCoverSolution((Site("a"),), frozenset({1}), frozenset())
        partial = PerTestCoverSolution((Site("a"),), frozenset(), frozenset({2}))
        assert done.complete and not partial.complete


class TestSiteOrdering:
    def test_sites_are_orderable_and_hashable(self):
        sites = [Site("b"), Site("a"), Site("a", ("g", 1))]
        ordered = sorted(sites)
        assert ordered[0].net == "a"
        assert len({*sites}) == 3
