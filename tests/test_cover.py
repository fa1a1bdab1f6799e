"""Multiplet covering tests for both engines (exact per-test and X-envelope)."""

import pytest

from repro.circuit.builder import NetlistBuilder
from repro.circuit.generators import ripple_carry_adder
from repro.circuit.netlist import Site
from repro.core.backtrace import candidate_sites
from repro.core.budget import Budget
from repro.core.cover import (
    _pair_rescue,
    enumerate_min_covers,
    enumerate_pertest_min_covers,
    greedy_cover,
    greedy_pertest_cover,
)
from repro.core.pertest import build_pertest
from repro.core.xcover import build_xcover
from repro.faults.models import StuckAtDefect
from repro.sim.cache import sim_context
from repro.sim.patterns import PatternSet
from repro.tester.harness import apply_test


def _setup(netlist, patterns, defects):
    result = apply_test(netlist, patterns, defects)
    assert result.device_fails
    ctx = sim_context(netlist, patterns)
    envelope = candidate_sites(netlist, result.datalog)
    pt = build_pertest(ctx, result.datalog, envelope)
    xc = build_xcover(ctx, result.datalog, envelope)
    return result, pt, xc


@pytest.fixture(scope="module")
def rca6():
    return ripple_carry_adder(6)


@pytest.fixture(scope="module")
def pats(rca6):
    return PatternSet.random(rca6, 32, seed=31)


class TestGreedyPerTest:
    def test_single_defect_cover_of_one(self, rca6, pats):
        _result, pt, _xc = _setup(rca6, pats, [StuckAtDefect(Site("b1"), 1)])
        solution = greedy_pertest_cover(pt)
        assert solution.complete
        assert solution.sites  # some site explains everything
        assert len(solution.sites) == 1

    def test_two_defects_cover(self, rca6, pats):
        defects = [StuckAtDefect(Site("a0"), 1), StuckAtDefect(Site("b5"), 0)]
        _result, pt, _xc = _setup(rca6, pats, defects)
        solution = greedy_pertest_cover(pt)
        assert solution.complete
        assert 1 <= len(solution.sites) <= 3

    def test_solution_is_minimal(self, rca6, pats):
        defects = [StuckAtDefect(Site("a0"), 1), StuckAtDefect(Site("b5"), 0)]
        _result, pt, _xc = _setup(rca6, pats, defects)
        solution = greedy_pertest_cover(pt)
        explained = pt.explained_patterns(solution.sites)
        for site in solution.sites:
            trial = [s for s in solution.sites if s != site]
            assert not pt.explained_patterns(trial) >= explained or len(
                solution.sites
            ) == 1

    def test_masking_needs_pair_phase(self):
        """Craft a pattern that only a pair explains; greedy must rescue."""
        b = NetlistBuilder("m")
        p, q = b.inputs("p", "q")
        x = b.buf(p, name="x")
        y = b.buf(q, name="y")
        b.output(b.and_(x, y, name="z"))
        n = b.build()
        pats = PatternSet.from_vectors(n.inputs, [(0, 0), (0, 1), (1, 0), (1, 1)])
        defects = [StuckAtDefect(Site("x"), 1), StuckAtDefect(Site("y"), 1)]
        result = apply_test(n, pats, defects)
        envelope = candidate_sites(n, result.datalog)
        pt = build_pertest(sim_context(n, pats), result.datalog, envelope)
        # Pattern (0,0) fails only because BOTH x and y are forced to 1.
        assert (0, "z") in pt.atoms
        solution = greedy_pertest_cover(pt)
        assert solution.complete, solution
        explained = pt.explained_patterns(solution.sites)
        assert 0 in explained


class TestEnumeratePerTest:
    def test_reports_all_equivalents(self, rca6, pats):
        """b1 and its buffered copies explain the same failures."""
        _result, pt, _xc = _setup(rca6, pats, [StuckAtDefect(Site("b1"), 1)])
        greedy = greedy_pertest_cover(pt)
        covers = enumerate_pertest_min_covers(pt, seed_sites=greedy.sites)
        assert covers
        sizes = {len(c) for c in covers}
        assert sizes == {min(sizes)}
        for cover in covers:
            assert pt.explains_all(cover)

    def test_empty_for_passing_device(self, rca6, pats):
        result = apply_test(rca6, pats, [])
        pt = build_pertest(sim_context(rca6, pats), result.datalog, 0)
        assert enumerate_pertest_min_covers(pt) == []


class TestXcoverEngine:
    def test_greedy_covers_single(self, rca6, pats):
        _result, _pt, xc = _setup(rca6, pats, [StuckAtDefect(Site("b1"), 1)])
        solution = greedy_cover(xc)
        assert solution.complete
        assert len(solution.sites) == 1

    def test_enumerate_min_covers_complete(self, rca6, pats):
        _result, _pt, xc = _setup(rca6, pats, [StuckAtDefect(Site("b1"), 1)])
        covers = enumerate_min_covers(xc)
        assert covers
        for cover in covers:
            assert xc.joint_covered_atoms(cover) == xc.atoms

    def test_greedy_budget_reported(self, rca6, pats):
        defects = [StuckAtDefect(Site("a0"), 1), StuckAtDefect(Site("b5"), 0)]
        _result, _pt, xc = _setup(rca6, pats, defects)
        solution = greedy_cover(xc)
        assert solution.joint_evaluations >= 0
        assert solution.covered | solution.uncovered == xc.atoms


def _three_islands_pertest():
    """Two AND islands plus a buffered third output.  Pattern 1 fails both
    AND outputs at once (disjoint cones, so no singleton explains it and
    every explaining pair adds two new sites); pattern 0 fails only the
    buffer and has singleton explainers."""
    b = NetlistBuilder("caps")
    p, q, r, s, t = b.inputs("p", "q", "r", "s", "t")
    b.output(b.and_(b.buf(p, name="x1"), b.buf(q, name="y1"), name="z1"))
    b.output(b.and_(b.buf(r, name="x2"), b.buf(s, name="y2"), name="z2"))
    b.output(b.buf(t, name="c"))
    n = b.build()
    pats = PatternSet.from_vectors(
        n.inputs, [(0, 0, 0, 0, 1), (1, 1, 1, 1, 0), (0, 0, 0, 0, 0)]
    )
    defects = [
        StuckAtDefect(Site("x1"), 0),
        StuckAtDefect(Site("x2"), 0),
        StuckAtDefect(Site("c"), 0),
    ]
    result = apply_test(n, pats, defects)
    assert result.device_fails
    envelope = candidate_sites(n, result.datalog)
    return build_pertest(sim_context(n, pats), result.datalog, envelope)


class TestSizeCapRegression:
    def test_pair_phase_respects_max_size(self):
        """Regression: with one slot left, the pair phase used to append a
        two-new-site pair anyway, overflowing ``max_size``."""
        pt = _three_islands_pertest()
        solution = greedy_pertest_cover(pt, max_size=2)
        assert len(solution.sites) <= 2
        # The singleton for the buffer failure is kept; the pair residue is
        # honestly reported unexplained instead of blowing the cap.
        assert 0 in solution.explained
        assert 1 in solution.unexplained

    def test_pair_phase_fits_with_room(self):
        """The same instance solves completely once the cap has room for
        the two-site pair."""
        pt = _three_islands_pertest()
        solution = greedy_pertest_cover(pt, max_size=3)
        assert solution.complete
        assert len(solution.sites) == 3


class TestBudgetAccounting:
    def test_enumerate_pertest_checks_truncation_recorded(self, rca6, pats):
        defects = [StuckAtDefect(Site("a0"), 1), StuckAtDefect(Site("b5"), 0)]
        _result, pt, _xc = _setup(rca6, pats, defects)
        budget = Budget()
        enumerate_pertest_min_covers(pt, max_checks=1, budget=budget)
        assert any(
            t.stage == "cover" and t.cause == "checks" for t in budget.truncations
        )

    def test_enumerate_xcover_checks_truncation_recorded(self, rca6, pats):
        defects = [StuckAtDefect(Site("a0"), 1), StuckAtDefect(Site("b5"), 0)]
        _result, _pt, xc = _setup(rca6, pats, defects)
        budget = Budget()
        enumerate_min_covers(xc, max_checks=1, budget=budget)
        assert any(
            t.stage == "cover" and t.cause == "checks" for t in budget.truncations
        )

    def test_greedy_cover_charges_match_evaluations(self, rca6, pats):
        """Every joint simulation greedy_cover reports -- including the
        post-minimization recompute -- must be metered on the budget."""
        defects = [StuckAtDefect(Site("a0"), 1), StuckAtDefect(Site("b5"), 0)]
        _result, _pt, xc = _setup(rca6, pats, defects)
        budget = Budget(max_expansions=10**9)
        solution = greedy_cover(xc, budget=budget)
        assert solution.joint_evaluations > 0
        assert budget.expansions == solution.joint_evaluations

    def test_greedy_cover_charges_match_under_tight_budget(self, rca6, pats):
        defects = [StuckAtDefect(Site("a0"), 1), StuckAtDefect(Site("b5"), 0)]
        _result, _pt, xc = _setup(rca6, pats, defects)
        budget = Budget(max_expansions=1)
        solution = greedy_cover(xc, budget=budget)
        assert budget.expansions == solution.joint_evaluations

    def test_pair_rescue_stops_on_exhausted_budget(self, rca6, pats):
        """The rescue evaluates exactly one pair under an exhausted budget
        (the progress guarantee) and meters it."""
        defects = [StuckAtDefect(Site("a0"), 1), StuckAtDefect(Site("b5"), 0)]
        _result, _pt, xc = _setup(rca6, pats, defects)
        budget = Budget(max_expansions=1)
        _best, best_cov, spent = _pair_rescue(
            xc, [], frozenset(), xc.atoms, cap=400, budget=budget
        )
        assert spent == 1
        assert budget.expansions == 1
        assert best_cov <= xc.atoms


class TestDeterminismAndEdges:
    def test_enumerate_pertest_empty_pool(self, rca6, pats):
        """A failing device with no candidate sites enumerates to no
        covers instead of crashing."""
        result = apply_test(rca6, pats, [StuckAtDefect(Site("b1"), 1)])
        pt = build_pertest(sim_context(rca6, pats), result.datalog, 0)
        assert enumerate_pertest_min_covers(pt) == []
