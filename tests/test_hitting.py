"""Implicit-hitting-set engine tests: differential optimality vs the
reference enumeration, optimality statuses, anytime behavior, and
cover-engine threading through the Diagnoser."""

import pytest

from repro.circuit.builder import NetlistBuilder
from repro.circuit.generators import ripple_carry_adder
from repro.circuit.netlist import Site
from repro.core.backtrace import candidate_sites
from repro.core.budget import (
    OPTIMALITY_BOUNDED,
    OPTIMALITY_BUDGET,
    OPTIMALITY_OPTIMAL,
    Budget,
)
from repro.core.cover import enumerate_pertest_min_covers, greedy_pertest_cover
from repro.core.diagnose import DiagnosisConfig, Diagnoser
from repro.core.hitting import conflict_pool, hitting_set_cover
from repro.core.pertest import build_pertest
from repro.core.report import DiagnosisReport
from repro.errors import DiagnosisError
from repro.faults.models import StuckAtDefect
from repro.sim.cache import sim_context
from repro.sim.patterns import PatternSet
from repro.tester.harness import apply_test


def _analysis(netlist, patterns, defects):
    result = apply_test(netlist, patterns, defects)
    assert result.device_fails
    envelope = candidate_sites(netlist, result.datalog)
    return build_pertest(sim_context(netlist, patterns), result.datalog, envelope)


def _engine_inputs(analysis):
    greedy = greedy_pertest_cover(analysis)
    return greedy, dict(
        seed_sites=greedy.sites + greedy.pair_candidates,
        incumbent=greedy.sites if greedy.complete else None,
    )


@pytest.fixture(scope="module")
def rca6():
    return ripple_carry_adder(6)


@pytest.fixture(scope="module")
def pats(rca6):
    return PatternSet.random(rca6, 32, seed=31)


# The seeded small-instance corpus of the differential acceptance check.
DEFECT_SETS = [
    [StuckAtDefect(Site("b1"), 1)],
    [StuckAtDefect(Site("a3"), 0)],
    [StuckAtDefect(Site("a0"), 1), StuckAtDefect(Site("b5"), 0)],
    [StuckAtDefect(Site("a1"), 0), StuckAtDefect(Site("b4"), 1)],
    [
        StuckAtDefect(Site("a0"), 1),
        StuckAtDefect(Site("b2"), 0),
        StuckAtDefect(Site("b5"), 1),
    ],
]


class TestDifferential:
    @pytest.mark.parametrize("case", range(len(DEFECT_SETS)))
    def test_cardinality_matches_reference(self, rca6, pats, case):
        """Acceptance: the hitting-set minimum equals the reference
        enumeration's minimum on every seeded small instance."""
        pt = _analysis(rca6, pats, DEFECT_SETS[case])
        greedy, kwargs = _engine_inputs(pt)
        depth = min(max(3, len(greedy.sites)), 6)
        reference = enumerate_pertest_min_covers(
            pt, seed_sites=kwargs["seed_sites"], max_size=depth
        )
        result = hitting_set_cover(pt, max_size=depth, **kwargs)
        assert reference, "reference enumeration must solve the corpus"
        assert result.covers
        assert result.cardinality == min(len(c) for c in reference)
        assert result.optimality == OPTIMALITY_OPTIMAL
        for cover in result.covers:
            assert pt.explains_all(cover)

    def test_reference_covers_are_found(self, rca6, pats):
        """The reference pool is a subset of the engine pool, so a complete
        engine sweep reports every reference cover among its ties."""
        pt = _analysis(rca6, pats, DEFECT_SETS[2])
        greedy, kwargs = _engine_inputs(pt)
        reference = enumerate_pertest_min_covers(
            pt, seed_sites=kwargs["seed_sites"], max_size=3
        )
        result = hitting_set_cover(pt, max_size=3, **kwargs)
        if result.verifications < 20_000:  # sweep completed, ties exhaustive
            found = {frozenset(c) for c in result.covers}
            assert {frozenset(c) for c in reference} <= found

    def test_rca8_two_defects(self):
        n = ripple_carry_adder(8)
        pats8 = PatternSet.random(n, 32, seed=31)
        pt = _analysis(
            n, pats8, [StuckAtDefect(Site("a0"), 1), StuckAtDefect(Site("b5"), 0)]
        )
        greedy, kwargs = _engine_inputs(pt)
        reference = enumerate_pertest_min_covers(
            pt, seed_sites=kwargs["seed_sites"], max_size=3
        )
        result = hitting_set_cover(pt, max_size=3, **kwargs)
        assert result.cardinality == min(len(c) for c in reference)
        assert result.optimality == OPTIMALITY_OPTIMAL


def two_islands():
    """Two disjoint subcircuits, one defect each: the failing patterns
    touch disjoint fan-in cones, so no singleton can explain both and the
    true minimum cover is provably 2 (with several equivalent ties per
    island)."""
    b = NetlistBuilder("islands")
    p, q, r, s = b.inputs("p", "q", "r", "s")
    b.output(b.and_(b.buf(p, name="x1"), b.buf(q, name="y1"), name="z1"))
    b.output(b.and_(b.buf(r, name="x2"), b.buf(s, name="y2"), name="z2"))
    n = b.build()
    pats = PatternSet.from_vectors(
        n.inputs,
        [(1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 0, 1), (0, 1, 1, 1), (0, 0, 0, 0)],
    )
    defects = [StuckAtDefect(Site("x1"), 0), StuckAtDefect(Site("x2"), 0)]
    result = apply_test(n, pats, defects)
    envelope = candidate_sites(n, result.datalog)
    return build_pertest(sim_context(n, pats), result.datalog, envelope)


class TestTwoIslands:
    def test_pair_minimum_proved(self):
        pt = two_islands()
        result = hitting_set_cover(pt, max_size=4)
        assert result.cardinality == 2
        assert result.optimality == OPTIMALITY_OPTIMAL
        for cover in result.covers:
            assert pt.explains_all(cover)

    def test_ties_collected(self):
        """Each island has equivalent explainers (buffer chains), so the
        minimum cardinality is shared by several covers."""
        pt = two_islands()
        result = hitting_set_cover(pt, max_size=4)
        assert len(result.covers) > 1
        assert {len(c) for c in result.covers} == {2}

    def test_conflicts_grow_from_refutations(self):
        pt = two_islands()
        result = hitting_set_cover(pt, max_size=4)
        # Size-1 candidates were all refuted, so at least one conflict was
        # learned before the winning size.
        assert result.conflicts >= 1
        assert result.verifications > len(result.covers)


class TestStatuses:
    def test_empty_failing_is_optimal(self, rca6, pats):
        result = apply_test(rca6, pats, [])
        pt = build_pertest(sim_context(rca6, pats), result.datalog, 0)
        hs = hitting_set_cover(pt)
        assert hs.optimality == OPTIMALITY_OPTIMAL
        assert hs.covers == ()
        assert hs.cardinality == 0

    def test_size_cap_returns_bounded(self):
        pt = two_islands()  # provably needs two sites
        hs = hitting_set_cover(pt, max_size=1)
        assert hs.covers == ()
        assert hs.optimality == OPTIMALITY_BOUNDED

    def test_budget_exhaustion_returns_budget(self):
        pt = two_islands()
        budget = Budget(max_expansions=1)
        hs = hitting_set_cover(pt, budget=budget)
        assert hs.optimality == OPTIMALITY_BUDGET
        assert hs.covers == ()
        assert any(t.stage == "cover" for t in budget.truncations)
        assert budget.expansions == hs.verifications

    def test_multiplet_ceiling_truncates_ties_not_cardinality(self):
        pt = two_islands()
        unbounded = hitting_set_cover(pt)
        assert len(unbounded.covers) > 1
        budget = Budget(max_multiplets=1)
        hs = hitting_set_cover(pt, budget=budget)
        assert len(hs.covers) == 1
        assert hs.cardinality == unbounded.cardinality
        assert hs.optimality == OPTIMALITY_OPTIMAL
        assert any(t.cause == "multiplets" for t in budget.truncations)

    def test_pool_cap_returns_bounded(self, rca6, pats):
        pt = _analysis(rca6, pats, DEFECT_SETS[2])
        hs = hitting_set_cover(pt, pool_cap=4)
        assert hs.optimality in (OPTIMALITY_BOUNDED,)
        assert hs.pool_size == 4

    def test_verification_cap_records_truncation(self, rca6, pats):
        pt = _analysis(rca6, pats, DEFECT_SETS[2])
        budget = Budget(max_expansions=10**9)
        hs = hitting_set_cover(pt, max_verifications=1, budget=budget)
        assert hs.verifications <= 1
        assert any(t.cause == "checks" for t in budget.truncations)


class TestDeterminism:
    def test_repeat_runs_identical(self, rca6, pats):
        pt = _analysis(rca6, pats, DEFECT_SETS[3])
        greedy, kwargs = _engine_inputs(pt)
        first = hitting_set_cover(pt, **kwargs)
        second = hitting_set_cover(pt, **kwargs)
        assert first == second

    def test_pool_is_deterministic(self, rca6, pats):
        pt = _analysis(rca6, pats, DEFECT_SETS[2])
        pool = conflict_pool(pt)
        assert pool == conflict_pool(pt)
        # The ranking the pool had when it counted only the atoms of a
        # given failing subset, here every failing pattern.
        failing = set(pt.datalog.failing_indices)
        cones = [
            rca6.fanin_cone(pt.datalog.failing_outputs_of(idx)) for idx in failing
        ]
        reference = sorted(
            (s for s in pt.sites if any(s.net in cone for cone in cones)),
            key=lambda s: (
                -sum(1 for idx, _out in pt.atoms_of(s) if idx in failing),
                str(s),
            ),
        )
        assert pool == reference


class TestEngineThreading:
    @pytest.fixture(scope="class")
    def datalog(self, rca6, pats):
        defects = [StuckAtDefect(Site("a0"), 1), StuckAtDefect(Site("b5"), 0)]
        result = apply_test(rca6, pats, defects)
        assert result.device_fails
        return result.datalog

    def test_exact_engine_reports_optimality(self, rca6, pats, datalog):
        config = DiagnosisConfig(cover_engine="exact")
        report = Diagnoser(rca6, config).diagnose(pats, datalog)
        assert report.optimality == OPTIMALITY_OPTIMAL
        assert report.multiplets
        assert report.multiplets[0].complete

    def test_default_engine_leaves_optimality_unset(self, rca6, pats, datalog):
        report = Diagnoser(rca6).diagnose(pats, datalog)
        assert report.optimality is None
        assert "optimality" not in report.to_dict()

    def test_optimality_round_trips_through_json(self, rca6, pats, datalog):
        config = DiagnosisConfig(cover_engine="exact")
        report = Diagnoser(rca6, config).diagnose(pats, datalog)
        payload = report.to_dict()
        assert payload["optimality"] == report.optimality
        assert DiagnosisReport.from_dict(payload).optimality == report.optimality

    def test_unknown_engine_rejected(self, rca6):
        for engine in ("branch-and-bound", "clustered"):
            with pytest.raises(DiagnosisError):
                Diagnoser(rca6, DiagnosisConfig(cover_engine=engine))

    def test_xcover_engine_incompatible(self, rca6):
        with pytest.raises(DiagnosisError):
            Diagnoser(
                rca6, DiagnosisConfig(engine="xcover", cover_engine="exact")
            )
