"""Anytime resource governance: Budget, Truncation, stage boundaries.

The contract under test, end to end:

- every pipeline stage checks its :class:`Budget` at loop granularity and
  on exhaustion returns what it has with a :class:`Truncation` record,
- at least one unit of work happens before the first check (progress),
- the report's ``completeness`` verdict reflects the binding resource,
- an ungoverned run -- and a governed run whose budget never bites -- is
  indistinguishable from the historical pipeline output.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.driver import Campaign, CampaignConfig
from repro.campaign.export import outcomes_to_csv
from repro.campaign.journal import outcome_from_dict, outcome_to_dict
from repro.campaign.runner import RunnerConfig
from repro.circuit.generators import alu, ripple_carry_adder
from repro.circuit.netlist import Site
from repro.core.backtrace import candidate_sites
from repro.core.budget import (
    CAUSE_CANCELLED,
    CAUSE_DEADLINE,
    CAUSE_EXPANSIONS,
    COMPLETENESS_DEADLINE,
    COMPLETENESS_EXACT,
    COMPLETENESS_TRUNCATED,
    Budget,
    CancellationToken,
    Truncation,
)
from repro.core.cover import enumerate_pertest_min_covers, greedy_pertest_cover
from repro.core.diagnose import DiagnosisConfig, Diagnoser
from repro.core.pertest import build_pertest
from repro.core.xcover import build_xcover
from repro.faults.models import StuckAtDefect
from repro.sim.cache import sim_context
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog, FailRecord
from repro.tester.harness import apply_test


class TickClock:
    """Deterministic injectable clock: each read advances by ``step``."""

    def __init__(self, step: float = 0.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        current = self.now
        self.now += self.step
        return current


# -- shared diagnosis case -----------------------------------------------------


@pytest.fixture(scope="module")
def rca6():
    return ripple_carry_adder(6)


@pytest.fixture(scope="module")
def pats(rca6):
    return PatternSet.random(rca6, 48, seed=51)


@pytest.fixture(scope="module")
def datalog(rca6, pats):
    result = apply_test(
        rca6, pats, [StuckAtDefect(Site("n12"), 0), StuckAtDefect(Site("n28"), 1)]
    )
    assert result.device_fails
    return result.datalog


@pytest.fixture(scope="module")
def exact_report(rca6, pats, datalog):
    return Diagnoser(rca6).diagnose(pats, datalog)


def spent_budget() -> Budget:
    """A budget exhausted from the first check (expansion ceiling 0)."""
    return Budget(max_expansions=0)


# -- Budget / Truncation units -------------------------------------------------


class TestBudgetUnits:
    def test_unlimited_budget_never_exceeds(self):
        budget = Budget()
        budget.charge(10**9)
        assert budget.exceeded() is None
        assert budget.remaining_seconds is None
        assert budget.completeness == COMPLETENESS_EXACT

    def test_expansion_ceiling(self):
        budget = Budget(max_expansions=3)
        budget.charge(2)
        assert budget.exceeded() is None
        budget.charge()
        assert budget.exceeded() == CAUSE_EXPANSIONS

    def test_deadline_with_injected_clock(self):
        clock = TickClock(step=0.0)
        budget = Budget(deadline_seconds=5.0, clock=clock)
        assert budget.exceeded() is None
        assert budget.remaining_seconds == pytest.approx(5.0)
        clock.now = 5.0
        assert budget.exceeded() == CAUSE_DEADLINE

    def test_cancellation_dominates_everything(self):
        token = CancellationToken()
        budget = Budget(deadline_seconds=0.0, max_expansions=0, token=token)
        token.cancel()
        assert budget.exceeded() == CAUSE_CANCELLED

    def test_stop_records_truncation(self):
        budget = spent_budget()
        assert budget.stop("cover", done=4, total=9) == CAUSE_EXPANSIONS
        assert budget.truncations == [Truncation("cover", CAUSE_EXPANSIONS, 4, 9)]
        assert budget.completeness == COMPLETENESS_TRUNCATED

    def test_stop_within_budget_records_nothing(self):
        budget = Budget(max_expansions=100)
        assert budget.stop("cover") is None
        assert budget.truncations == []

    def test_deadline_verdict_dominates_truncated(self):
        budget = Budget()
        budget.record("cover", CAUSE_EXPANSIONS)
        budget.record("refine", CAUSE_DEADLINE)
        assert budget.completeness == COMPLETENESS_DEADLINE

    def test_multiplets_exhausted(self):
        budget = Budget(max_multiplets=2)
        assert not budget.multiplets_exhausted(1)
        assert budget.multiplets_exhausted(2)
        assert not Budget().multiplets_exhausted(10**6)

    def test_truncation_roundtrip_and_describe(self):
        trunc = Truncation("refine", CAUSE_DEADLINE, done=3, total=12)
        assert Truncation.from_dict(trunc.to_dict()) == trunc
        assert "refine" in trunc.describe()
        assert "3/12" in trunc.describe()


# -- per-stage boundaries ------------------------------------------------------


class TestStageBoundaries:
    def test_backtrace_truncates_to_first_record(self, rca6):
        # First record fails only sum0 (a shallow cone); the second fails
        # cout, whose cone spans the whole adder.  A spent budget keeps
        # the first cone -- the progress guarantee -- and drops the rest.
        log = Datalog(
            "rca6",
            4,
            [
                FailRecord(0, frozenset({"sum0"})),
                FailRecord(1, frozenset({"cout"})),
            ],
        )
        budget = spent_budget()
        partial = rca6.sites_of(candidate_sites(rca6, log, budget=budget))
        full = rca6.sites_of(candidate_sites(rca6, log))
        assert 0 < len(partial) < len(full)
        assert [t.stage for t in budget.truncations] == ["backtrace"]
        assert {s.net for s in partial} == rca6.fanin_cone(["sum0"])

    def test_pertest_sweeps_one_site_then_stops(self, rca6, pats, datalog):
        envelope = candidate_sites(rca6, datalog)
        sites = rca6.sites_of(envelope)
        budget = spent_budget()
        analysis = build_pertest(
            sim_context(rca6, pats), datalog, envelope, budget=budget
        )
        assert len(analysis.sites) == 1
        assert analysis.sites[0] == sites[0]
        trunc = budget.truncations[0]
        assert (trunc.stage, trunc.done, trunc.total) == ("pertest", 1, len(sites))

    def test_xcover_sweeps_one_site_then_stops(self, rca6, pats, datalog):
        budget = spent_budget()
        envelope = candidate_sites(rca6, datalog, budget=budget)
        xc = build_xcover(sim_context(rca6, pats), datalog, envelope, budget=budget)
        # backtrace truncates first, then the reach sweep covers one site.
        assert len(xc.sites) == 1
        assert [t.stage for t in budget.truncations] == ["backtrace", "xcover"]

    def test_cover_enumeration_is_prefix_consistent(self, rca6, pats, datalog):
        envelope = candidate_sites(rca6, datalog)
        analysis = build_pertest(sim_context(rca6, pats), datalog, envelope)
        solution = greedy_pertest_cover(analysis)
        seeds = solution.sites + solution.pair_candidates
        full = enumerate_pertest_min_covers(analysis, seed_sites=seeds, max_size=3)
        assert len(full) > 2
        for ceiling in (1, 2):
            budget = Budget(max_multiplets=ceiling)
            partial = enumerate_pertest_min_covers(
                analysis, seed_sites=seeds, max_size=3, budget=budget
            )
            # The bounded enumeration returns an exact prefix of the
            # unbounded one -- truncation never reorders or invents covers.
            assert partial == full[:ceiling]
            assert budget.truncations[0].cause == "multiplets"
            assert budget.completeness == COMPLETENESS_TRUNCATED

    def test_every_stage_boundary_reachable(self, rca6, pats, datalog, exact_report):
        """Sweeping the expansion ceiling hits every downstream stage."""
        stages_seen: set[str] = set()
        for ceiling in (0, 1, 3, 13, 34, 89, 144, 377):
            budget = Budget(max_expansions=ceiling)
            report = Diagnoser(rca6).diagnose(pats, datalog, budget=budget)
            assert report.completeness == COMPLETENESS_TRUNCATED
            assert report.truncations
            assert report.stats["n_truncations"] == len(report.truncations)
            assert report.stats["n_expansions"] >= ceiling
            stages_seen.update(t.stage for t in report.truncations)
        assert {"backtrace", "pertest", "cover", "refine", "scoring"} <= stages_seen


# -- pipeline-level behavior ---------------------------------------------------


class TestAnytimeDiagnosis:
    def test_ungoverned_config_builds_no_budget(self):
        assert Budget.of(None, None, None) is None
        assert Budget.of(None, None, 5) is not None
        # A token alone still needs a budget to cancel through.
        assert Budget.of(None, None, None, CancellationToken()) is not None

    def test_generous_budget_is_invisible(self, rca6, pats, datalog, exact_report):
        """Governance that never bites leaves no trace in the report."""
        budget = Budget(max_expansions=10**9, deadline_seconds=3600.0)
        governed = Diagnoser(rca6).diagnose(pats, datalog, budget=budget)
        assert governed.completeness == COMPLETENESS_EXACT
        assert governed.truncations == ()
        assert _det(governed) == _det(exact_report)
        # Serialization adds no keys either: byte-identical to historical
        # output once the (non-deterministic) timings are pinned.
        assert _det_json(governed) == _det_json(exact_report)

    def test_exact_report_serialization_has_no_budget_keys(self, exact_report):
        payload = exact_report.to_dict()
        assert "completeness" not in payload
        assert "truncations" not in payload
        assert "n_expansions" not in payload["stats"]

    def test_truncated_report_roundtrips(self, rca6, pats, datalog):
        report = Diagnoser(rca6).diagnose(
            pats, datalog, budget=Budget(max_expansions=34)
        )
        assert report.completeness == COMPLETENESS_TRUNCATED
        clone = type(report).from_json(report.to_json())
        assert clone.completeness == report.completeness
        assert clone.truncations == report.truncations
        assert not clone.is_exact
        assert report.completeness in report.summary()

    def test_deadline_mid_pipeline_still_reports(self, rca6, pats, datalog):
        # 200 budget checks' worth of wall clock: the deadline expires
        # partway through the pipeline, deterministically.
        clock = TickClock(step=1.0)
        budget = Budget(deadline_seconds=200.0, clock=clock)
        report = Diagnoser(rca6).diagnose(pats, datalog, budget=budget)
        assert report.completeness == COMPLETENESS_DEADLINE
        assert report.truncations
        assert report.candidates  # partial but non-empty

    def test_cancellation_token_stops_the_run(self, rca6, pats, datalog):
        token = CancellationToken()
        token.cancel()
        budget = Budget(token=token)
        report = Diagnoser(rca6).diagnose(pats, datalog, budget=budget)
        assert report.completeness == COMPLETENESS_DEADLINE
        assert all(t.cause == CAUSE_CANCELLED for t in report.truncations)

    def test_config_budget_threads_through_diagnose(self, rca6, pats, datalog):
        config = DiagnosisConfig(max_expansions=34)
        report = Diagnoser(rca6, config).diagnose(pats, datalog)
        assert report.completeness == COMPLETENESS_TRUNCATED

    def test_truncated_candidates_subset_relationship(
        self, rca6, pats, datalog, exact_report
    ):
        """A budgeted run locates a subset of what the full run explores,
        modulo the arbitrary-only extras that refine truncation keeps."""
        report = Diagnoser(rca6).diagnose(
            pats, datalog, budget=Budget(max_expansions=55)
        )
        exact_nets = {c.site.net for c in exact_report.candidates}
        concrete = {
            c.site.net
            for c in report.candidates
            if c.best is not None and c.best.kind != "arbitrary"
        }
        assert concrete <= exact_nets


def _det(report):
    """Deterministic projection of a report.

    Profiling measurements are excluded: timings (wall clock) and the
    ``sim_*`` counters (physical simulation work, which depends on how
    warm the process-wide simulation caches already are).
    """
    payload = report.to_dict()
    payload["stats"] = {
        k: v
        for k, v in payload["stats"].items()
        if not k.startswith(("seconds", "sim_"))
    }
    return payload


def _det_json(report):
    return json.dumps(_det(report), sort_keys=False)


# -- campaign integration ------------------------------------------------------


class TestCampaignIntegration:
    @pytest.fixture(scope="class")
    def truncated_result(self):
        config = CampaignConfig(
            circuit="rca4",
            n_trials=4,
            k=1,
            methods=("xcover",),
            seed=2,
            diagnosis_config=DiagnosisConfig(max_expansions=8),
        )
        return Campaign("rca4").run(config)

    def test_outcomes_carry_completeness(self, truncated_result):
        assert truncated_result.outcomes
        assert all(
            o.completeness == COMPLETENESS_TRUNCATED
            for o in truncated_result.outcomes
        )
        assert not truncated_result.trial_errors

    def test_aggregate_truncated_rate(self, truncated_result):
        agg = truncated_result.aggregate("xcover")
        assert agg.truncated_rate == 1.0
        by_verdict = truncated_result.by_completeness()
        assert set(by_verdict) == {COMPLETENESS_TRUNCATED}

    def test_untruncated_campaign_rate_is_zero(self):
        config = CampaignConfig(
            circuit="rca4", n_trials=2, k=1, methods=("xcover",), seed=2
        )
        result = Campaign("rca4").run(config)
        assert result.aggregate("xcover").truncated_rate == 0.0

    def test_csv_export_has_completeness_column(self, truncated_result):
        csv_text = outcomes_to_csv(truncated_result)
        header, first = csv_text.splitlines()[:2]
        assert "completeness" in header.split(",")
        assert COMPLETENESS_TRUNCATED in first.split(",")

    def test_journal_outcome_roundtrip_preserves_completeness(
        self, truncated_result
    ):
        outcome = truncated_result.outcomes[0]
        clone = outcome_from_dict(outcome_to_dict(outcome))
        assert clone == outcome
        assert clone.completeness == COMPLETENESS_TRUNCATED

    def test_old_journal_outcomes_default_to_exact(self, truncated_result):
        payload = outcome_to_dict(truncated_result.outcomes[0])
        del payload["completeness"]  # journal written before this field
        assert outcome_from_dict(payload).completeness == COMPLETENESS_EXACT

    def test_runner_inprocess_deadline_layering(self):
        assert RunnerConfig(timeout=10.0).inprocess_deadline == pytest.approx(8.0)
        assert RunnerConfig(timeout=10.0, deadline_margin=None).inprocess_deadline is None
        assert RunnerConfig().inprocess_deadline is None

    def test_trial_deadline_shared_across_methods(self):
        """An expired trial clock still yields one outcome per method."""
        campaign = Campaign("rca4")
        outcomes = campaign.run_trial(
            trial_seed=2_000_003,
            k=1,
            methods=("xcover", "slat"),
            deadline_seconds=0.0,
        )
        assert outcomes is not None
        assert [o.method for o in outcomes] == ["xcover", "slat"]
        # The xcover engine is governed and reports its truncation; the
        # cheap baselines run ungoverned.
        assert outcomes[0].completeness == COMPLETENESS_DEADLINE
        assert outcomes[1].completeness == COMPLETENESS_EXACT


# -- stress (CI slow lane) -----------------------------------------------------


@pytest.mark.slow
def test_stress_high_multiplicity_under_tight_deadline():
    """A heavy injection under a tight deadline completes with a usable
    partial diagnosis instead of dying at a kill timeout."""
    netlist = alu(8)
    patterns = PatternSet.random(netlist, 48, seed=9)
    sites = sorted(netlist.sites(), key=str)
    defects = [StuckAtDefect(site, i % 2) for i, site in enumerate(sites[:: len(sites) // 6][:6])]
    result = apply_test(netlist, patterns, defects)
    assert result.device_fails
    budget = Budget(deadline_seconds=0.3)
    report = Diagnoser(netlist).diagnose(patterns, result.datalog, budget=budget)
    assert report.completeness != COMPLETENESS_EXACT
    assert report.truncations
    assert report.candidates
    assert report.multiplets


# -- QoS classes (daemon admission -> budget envelopes) ------------------------


class TestQosClasses:
    def _qos(self, name):
        from repro.core.budget import qos_class

        return qos_class(name)

    def test_unknown_class_is_a_serve_error(self):
        from repro.core.budget import qos_class
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="platinum"):
            qos_class("platinum")

    def test_standard_is_count_governed_only(self):
        # Deterministic ceilings, no wall clock: crash-recovery re-execution
        # must reproduce reports byte-for-byte.
        budget = self._qos("standard").budget()
        assert budget.deadline_seconds is None
        assert budget.max_expansions == 2_000_000
        assert budget.max_multiplets == 512

    def test_interactive_trades_stability_for_latency(self):
        budget = self._qos("interactive").budget()
        assert budget.deadline_seconds == 5.0
        degraded = self._qos("interactive").budget(degraded=True)
        assert degraded.deadline_seconds == 1.0
        assert degraded.max_expansions == 200_000 // 4
        assert degraded.max_multiplets == 64 // 4

    def test_batch_is_ungoverned_until_degraded(self):
        from repro.core.budget import DEGRADED_FALLBACK_EXPANSIONS

        assert self._qos("batch").budget() is None
        degraded = self._qos("batch").budget(degraded=True)
        assert degraded is not None
        assert degraded.max_expansions == DEGRADED_FALLBACK_EXPANSIONS
        assert degraded.deadline_seconds is None

    def test_token_forces_a_budget_for_cancellability(self):
        token = CancellationToken()
        budget = self._qos("batch").budget(token=token)
        assert budget is not None
        token.cancel()
        assert budget.exceeded() == CAUSE_CANCELLED

    def test_degraded_ceilings_never_reach_zero(self):
        from repro.core.budget import QosClass

        tiny = QosClass("tiny", max_expansions=2, max_multiplets=1)
        degraded = tiny.budget(degraded=True)
        assert degraded.max_expansions >= 1
        assert degraded.max_multiplets >= 1
