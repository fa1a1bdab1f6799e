"""The assumption-free multiple defect diagnosis pipeline.

:class:`Diagnoser` wires the stages together:

1. structural candidate envelope (:mod:`repro.core.backtrace`),
2. exact per-test single-flip analysis (:mod:`repro.core.pertest`) --
   under *any* defect mechanism a site per pattern is either correct or
   flipped, so subset-flip matching is an exact, fault-model-free
   explanation criterion,
3. multiplet covering over failing patterns, with a bounded joint-flip
   pair search for the interacting-defect residue
   (:mod:`repro.core.cover`),
4. enumeration of all minimum covers (the resolution of the diagnosis),
5. fault-model allocation and vindication (:mod:`repro.core.refine`),
6. ranking and report assembly (:mod:`repro.core.report`).

No stage assumes anything about failing patterns: a pattern may be failed
by one defect, by several interacting defects, or by behavior matching no
classical fault model.  The X-injection envelope
(:mod:`repro.core.xcover`) -- the sound over-approximation of the same
criterion -- is available as an alternative engine
(``DiagnosisConfig(engine="xcover")``) and is what ablation A compares
against.

:func:`run_method` runs any registered method (:data:`METHODS`: this
pipeline and the baselines) on one die, then the validation oracle when
asked; the CLI, the service and campaigns all diagnose through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._bits import popcount
from repro.circuit.netlist import Netlist, Site
from repro.core.backtrace import candidate_sites
from repro.core.budget import Budget
from repro.core.cover import (
    ENUMERATION_DEPTH,
    MAX_MULTIPLET_SIZE,
    enumerate_min_covers,
    enumerate_pertest_min_covers,
    greedy_cover,
    greedy_pertest_cover,
)
from repro.core.dictionary import diagnose_dictionary, dictionary_for
from repro.core.hitting import hitting_set_cover
from repro.core.oracle import concrete_defects, validate_report
from repro.core.pertest import PerTestAnalysis, build_pertest
from repro.core.refine import allocate_hypotheses, arbitrary_hypothesis
from repro.core.report import Candidate, DiagnosisReport, Hypothesis, Multiplet
from repro.core.scoring import MatchCounter, multiplet_iou
from repro.core.single_fault import diagnose_single_fault
from repro.core.slat import diagnose_slat
from repro.core.xcover import build_xcover
from repro.errors import DiagnosisError, ReproError
from repro.obs.metrics import record_diagnosis, record_sim_delta, record_truncations
from repro.obs.trace import NULL_TRACER, Tracer, install_tracer, uninstall_tracer
from repro.sim.cache import SimContext, sim_context
from repro.sim.compile import COUNTERS
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog

METHOD_NAME = "xcover"  #: campaign/report tag of the proposed method
#: Values of :attr:`DiagnosisConfig.cover_engine` (and ``--cover-engine``).
COVER_ENGINES = ("greedy", "exact")
#: How many minimum covers a report scores and lists.
MAX_REPORTED_MULTIPLETS = 10


@dataclass(frozen=True)
class DiagnosisConfig:
    """The settings a caller chooses for the proposed diagnosis.

    Each is set by some caller: ``engine`` by ablation A, ``cover_engine``
    by ``--cover-engine``, ``enumerate_exact`` and
    ``per_pattern_candidates`` by ablation B, ``vindicate`` by ablation C,
    and the three anytime limits by the CLI's flags and campaigns.  Every
    other bound of the search is a named constant of the module that
    applies it: the multiplet ceiling and the enumeration's pool and
    depth in :mod:`repro.core.cover`, the pair cap in
    :mod:`repro.core.pertest`, the aggressor pool in
    :mod:`repro.core.refine`, and :data:`MAX_REPORTED_MULTIPLETS` here.
    """

    engine: str = "pertest"  #: "pertest" (exact) or "xcover" (envelope-only)
    #: Multiplet search engine of the pertest pipeline:
    #:
    #: - ``"greedy"`` (default) -- greedy cover + bounded reference
    #:   enumeration, the historical behavior (reports byte-identical),
    #: - ``"exact"`` -- implicit-hitting-set search
    #:   (:mod:`repro.core.hitting`): provably minimum-cardinality covers
    #:   with an ``optimality`` status on the report.
    #:
    #: The greedy solution always runs first as the anytime incumbent and
    #: fallback; ``"exact"`` refines it.
    cover_engine: str = "greedy"
    #: Enumerate every minimum cover after the greedy (the resolution
    #: statistic); off, the greedy solution is the only multiplet.
    enumerate_exact: bool = True
    #: Per failing pattern, how many exact singleton explainers join the
    #: candidate list even when outside every minimum cover (0 disables).
    #: This is the per-test reporting of the method: each failing pattern
    #: names its own suspects, and the union is the resolution.
    per_pattern_candidates: int = 6
    #: Drop a concrete fault model that a passing pattern contradicts
    #: (see :func:`~repro.core.refine.allocate_hypotheses`).
    vindicate: bool = True
    #: Anytime resource governance (see :mod:`repro.core.budget`): a
    #: wall-clock deadline in seconds, a ceiling on enumerated multiplet
    #: covers, and a ceiling on expansion nodes (joint simulations / cover
    #: checks).  ``None`` everywhere (the default) runs ungoverned and
    #: byte-identical to the historical pipeline; any limit set makes the
    #: report carry a ``completeness`` verdict and a truncation trail.
    deadline_seconds: float | None = None
    max_multiplets: int | None = None
    max_expansions: int | None = None


class Diagnoser:
    """Reusable diagnosis engine bound to one netlist."""

    def __init__(self, netlist: Netlist, config: DiagnosisConfig | None = None):
        self.netlist = netlist
        self.config = config or DiagnosisConfig()
        if self.config.engine not in ("pertest", "xcover"):
            raise DiagnosisError(f"unknown engine {self.config.engine!r}")
        if self.config.cover_engine not in COVER_ENGINES:
            raise DiagnosisError(
                f"unknown cover engine {self.config.cover_engine!r}"
            )
        if self.config.engine == "xcover" and self.config.cover_engine != "greedy":
            raise DiagnosisError(
                "cover_engine applies to the pertest engine only; "
                "the xcover envelope has no exact per-test verifier"
            )

    def diagnose(
        self,
        patterns: PatternSet,
        datalog: Datalog,
        budget: Budget | None = None,
        tracer: Tracer | None = None,
    ) -> DiagnosisReport:
        """Run the full pipeline against one device's datalog.

        ``budget`` overrides the budget the config would build (pass one
        holding a :class:`~repro.core.budget.CancellationToken` to make the
        run externally cancellable); with neither, the pipeline runs
        ungoverned and the report is identical to the historical output.
        On exhaustion the report carries whatever every stage produced so
        far, ``completeness != "exact"``, and the truncation trail.

        ``tracer`` (a :class:`~repro.obs.trace.Tracer`) switches on stage
        tracing: the run's span tree lands in ``report.stats["trace"]``
        and the tracer is installed as the process's active tracer for the
        duration, so deep events (kernel compiles, context cache activity)
        nest under the pipeline stages.  Tracing never changes the
        diagnosis: outside ``stats``, a traced report is byte-identical to
        an untraced one.
        """
        cfg = self.config
        if datalog.n_patterns != patterns.n:
            raise DiagnosisError(
                f"datalog covers {datalog.n_patterns} patterns, "
                f"test set has {patterns.n}"
            )
        if budget is None:
            budget = Budget.of(
                cfg.deadline_seconds, cfg.max_multiplets, cfg.max_expansions
            )
        tracing = tracer is not None
        # Stage timing always runs through a tracer clock (injectable for
        # tests); an untraced run uses a private throwaway tracer that is
        # never installed and never serialized.
        t = tracer if tracer is not None else Tracer()
        if tracing:
            install_tracer(t)
        try:
            report = self._diagnose(patterns, datalog, budget, t)
        finally:
            if tracing:
                uninstall_tracer(t)
        if tracing:
            # Excluded from determinism exactly like ``seconds*``/``sim_*``:
            # the tree is timing data, present only when tracing was asked.
            report.stats["trace"] = t.to_dicts()
        return report

    def _diagnose(
        self,
        patterns: PatternSet,
        datalog: Datalog,
        budget: Budget | None,
        t: Tracer,
    ) -> DiagnosisReport:
        cfg = self.config
        if datalog.is_passing_device:
            report = DiagnosisReport(
                method=METHOD_NAME,
                circuit=self.netlist.name,
                stats={"seconds": 0.0, "n_failing_patterns": 0},
            )
            record_diagnosis(METHOD_NAME, 0.0, report.completeness)
            return report

        counters_before = COUNTERS.snapshot()
        with t.span("diagnose", circuit=self.netlist.name, engine=cfg.engine) as root:
            # The shared simulation context: the fault-free base plus the
            # flip/resim/X-reach memos every downstream stage draws from,
            # reused across runs (campaign trials) on the same circuit and
            # test set.  Looked up once and handed to every stage, so a
            # registry eviction mid-run cannot take it from the die.
            with t.span("context"):
                ctx = sim_context(self.netlist, patterns)
            with t.span("backtrace") as sp_backtrace:
                envelope = candidate_sites(self.netlist, datalog, budget=budget)
            started = root.start
            t_sim = sp_backtrace.end

            if cfg.engine == "pertest":
                (
                    evidence,
                    multiplet_sets,
                    uncovered,
                    extras,
                    stage_stats,
                    optimality,
                ) = self._run_pertest(ctx, datalog, envelope, budget, t)
            else:
                evidence, multiplet_sets, uncovered, stage_stats = self._run_xcover(
                    ctx, datalog, envelope, budget, t
                )
                extras = ()
                optimality = None
            t_cover = t.now()

            # Candidates = union over every surviving minimum cover (that
            # union is the diagnosis resolution) plus the per-pattern exact
            # explainers; the reported multiplet list is capped.
            with t.span("refine"):
                all_sites = list(
                    dict.fromkeys(
                        site for group in [*multiplet_sets, extras] for site in group
                    )
                )
                reported_sets = multiplet_sets[:MAX_REPORTED_MULTIPLETS]

                core_sites = {site for group in multiplet_sets for site in group}
                counter = MatchCounter.of_datalog(datalog)
                candidates = []
                refined_out = False
                for done, site in enumerate(all_sites):
                    if (
                        not refined_out
                        and budget is not None
                        and done
                        and budget.stop("refine", done, len(all_sites))
                    ):
                        refined_out = True
                    if refined_out:
                        # Out of budget: keep the site located but model-free.
                        # The arbitrary hypothesis is honest here -- no model
                        # was tried, so none can be claimed and none can be
                        # used to drop it.
                        candidates.append(
                            Candidate(
                                site=site,
                                hypotheses=(arbitrary_hypothesis(site, evidence),),
                                explained_atoms=len(evidence.atoms_of(site)),
                            )
                        )
                        continue
                    hypotheses = allocate_hypotheses(
                        ctx,
                        datalog,
                        site,
                        evidence,
                        vindicate=cfg.vindicate,
                        budget=budget,
                        counter=counter,
                    )
                    if (
                        site not in core_sites
                        and all(h.kind == "arbitrary" for h in hypotheses)
                        and not (budget is not None and budget.exceeded())
                    ):
                        # A per-pattern extra that no concrete model survives
                        # for is a coincidental equivalent; passing-pattern
                        # evidence has already vindicated every mechanism it
                        # could have had.  (A site whose refinement was cut
                        # short by the budget is kept: absence of a surviving
                        # model means nothing if the models were never fully
                        # tried.)
                        continue
                    candidates.append(
                        Candidate(
                            site=site,
                            hypotheses=hypotheses,
                            explained_atoms=len(evidence.atoms_of(site)),
                        )
                    )
                # Rank: sites a concrete fault model survives for come first
                # (a site only explainable as "arbitrary" is usually a
                # coincidental equivalent), then by explained evidence and
                # match quality.
                candidates.sort(
                    key=lambda c: (
                        c.best_kind == "arbitrary",
                        -c.explained_atoms,
                        tuple(
                            -x for x in (c.best.score if c.best else (0.0, 0.0, 0))
                        ),
                        str(c.site),
                    )
                )
                hypothesis_by_site = {c.site: c.hypotheses for c in candidates}
            t_refine = t.now()

            with t.span("scoring"):
                multiplets = []
                scored_out = False
                for done, group in enumerate(reported_sets):
                    if (
                        not scored_out
                        and budget is not None
                        and done
                        and budget.stop("scoring", done, len(reported_sets))
                    ):
                        scored_out = True
                    multiplets.append(
                        self._assemble_multiplet(
                            evidence,
                            group,
                            hypothesis_by_site,
                            ctx,
                            counter,
                            skip_iou=scored_out,
                        )
                    )
                multiplets.sort(key=lambda m: m.rank_key)
            finished = t.now()

            stats = {
                "seconds": finished - started,
                "seconds_analysis": t_sim - started,
                "seconds_cover": t_cover - t_sim,
                "seconds_refine": t_refine - t_cover,
                "n_failing_patterns": float(len(datalog.failing_indices)),
                "n_fail_atoms": float(datalog.n_fail_atoms),
                "n_candidate_space": float(popcount(envelope)),
                "n_min_covers": float(len(multiplet_sets)),
                **stage_stats,
            }
            # Simulation effort for this run.  Counters increment at the
            # dispatcher level, before the backend split, so these are
            # byte-identical between REPRO_SIM=interp and the compiled
            # default; cache hit counts do depend on registry warmth (a
            # second run on the same circuit and test set starts with the
            # memos filled).
            counters = COUNTERS.delta(counters_before)
            stats["sim_gate_evals"] = float(counters["gate_evals"])
            stats["sim_full_passes"] = float(
                counters["full_passes"] + counters["full3_passes"]
            )
            stats["sim_cone_passes"] = float(
                counters["cone_passes"] + counters["cone3_passes"]
            )
            stats["sim_cache_hits"] = float(
                counters["flip_hits"]
                + counters["resim_hits"]
                + counters["xreach_hits"]
                + counters["context_hits"]
            )
            stats["sim_cache_misses"] = float(
                counters["flip_misses"]
                + counters["resim_misses"]
                + counters["xreach_misses"]
                + counters["context_misses"]
            )
            if budget is not None and budget.truncations:
                # Only when governance actually bit: a governed run that
                # completed exactly stays indistinguishable from an
                # ungoverned one, so generous budgets never perturb campaign
                # equivalence.
                stats["n_expansions"] = float(budget.expansions)
                stats["n_truncations"] = float(len(budget.truncations))
            report = DiagnosisReport(
                method=METHOD_NAME,
                circuit=self.netlist.name,
                candidates=tuple(candidates),
                multiplets=tuple(multiplets),
                uncovered_atoms=frozenset(uncovered),
                stats=stats,
                completeness=budget.completeness if budget is not None else "exact",
                truncations=tuple(budget.truncations) if budget is not None else (),
                optimality=optimality,
            )
        record_sim_delta(counters)
        if budget is not None:
            record_truncations(budget.truncations)
        record_diagnosis(METHOD_NAME, stats["seconds"], report.completeness)
        return report

    # -- engines -----------------------------------------------------------------

    def _run_pertest(self, ctx, datalog, envelope, budget=None, tracer=NULL_TRACER):
        cfg = self.config
        with tracer.span("pertest"):
            analysis = build_pertest(ctx, datalog, envelope, budget=budget)
        with tracer.span("cover"):
            solution = greedy_pertest_cover(analysis, budget=budget)
            multiplet_sets: list[tuple[Site, ...]] = []
            optimality: str | None = None
            unexplained = solution.unexplained
            engine_stats: dict[str, float] = {}
            # Search at least up to the size the greedy needed, so that
            # every tying alternative of a pair-rescued explanation is
            # reported.
            depth = min(max(ENUMERATION_DEPTH, len(solution.sites)), MAX_MULTIPLET_SIZE)
            if cfg.cover_engine == "exact":
                # Implicit-hitting-set refinement: the greedy solution is
                # the incumbent (depth bound + anytime fallback).
                result = hitting_set_cover(
                    analysis,
                    seed_sites=solution.sites + solution.pair_candidates,
                    incumbent=solution.sites if solution.complete else None,
                    max_size=depth,
                    budget=budget,
                )
                multiplet_sets = list(result.covers)
                optimality = result.optimality
                engine_stats["n_hitting_conflicts"] = float(result.conflicts)
                engine_stats["n_hitting_verifications"] = float(
                    result.verifications
                )
                if result.covers:
                    # A verified cover explains every failing pattern.
                    unexplained = frozenset()
            elif cfg.enumerate_exact:
                # Bounded overall by max_checks inside.
                multiplet_sets = enumerate_pertest_min_covers(
                    analysis,
                    seed_sites=solution.sites + solution.pair_candidates,
                    max_size=depth,
                    budget=budget,
                )
            known = {tuple(sorted(map(str, m))) for m in multiplet_sets}
            if (
                solution.sites
                and not (optimality is not None and multiplet_sets)
                and tuple(sorted(map(str, solution.sites))) not in known
            ):
                # Greedy incumbent: reported whenever the enumeration missed
                # it, or as the anytime fallback when an exact engine came
                # back empty-handed (bounded out / budget cut).
                multiplet_sets.append(solution.sites)
            uncovered = {
                (idx, out)
                for idx in unexplained
                for out in datalog.failing_outputs_of(idx)
            }
            # Per-pattern reporting: every failing pattern contributes its
            # best exact singleton explainers to the candidate list, so a
            # defect whose patterns happen to be aliased out of the minimum
            # covers is still located (at some resolution cost).
            extras: list[Site] = []
            if cfg.per_pattern_candidates > 0:
                for idx in datalog.failing_indices:
                    extras.extend(
                        analysis.evidence.top_explainers(
                            idx, cfg.per_pattern_candidates
                        )
                    )
                extras.extend(solution.pair_candidates)
        stats = {
            "n_unexplained_patterns": float(len(unexplained)),
            "n_exactly_explained_patterns": float(
                len(set(datalog.failing_indices) - set(unexplained))
            ),
            **engine_stats,
        }
        return analysis, multiplet_sets, uncovered, tuple(extras), stats, optimality

    def _run_xcover(self, ctx, datalog, envelope, budget=None, tracer=NULL_TRACER):
        cfg = self.config
        with tracer.span("xcover"):
            xc = build_xcover(ctx, datalog, envelope, budget=budget)
        with tracer.span("cover"):
            solution = greedy_cover(xc, budget=budget)
            multiplet_sets: list[tuple[Site, ...]] = []
            if cfg.enumerate_exact:
                multiplet_sets = enumerate_min_covers(xc, budget=budget)
            known = {tuple(sorted(map(str, m))) for m in multiplet_sets}
            if (
                solution.sites
                and tuple(sorted(map(str, solution.sites))) not in known
            ):
                multiplet_sets.append(solution.sites)
        stats = {"n_joint_evaluations": float(solution.joint_evaluations)}
        return xc, multiplet_sets, set(solution.uncovered), stats

    # -- helpers -----------------------------------------------------------------

    def _assemble_multiplet(
        self,
        evidence,
        sites: tuple[Site, ...],
        hypothesis_by_site: dict[Site, tuple[Hypothesis, ...]],
        ctx: SimContext,
        counter: MatchCounter,
        skip_iou: bool = False,
    ) -> Multiplet:
        if isinstance(evidence, PerTestAnalysis):
            explained = evidence.explained_patterns(sites)
            covered = sum(
                len(evidence.datalog.failing_outputs_of(idx)) for idx in explained
            )
        else:
            covered = len(evidence.joint_covered_atoms(sites))
        iou = 0.0
        defects = (
            None
            if skip_iou
            else concrete_defects(
                [hypothesis_by_site.get(site, ()) for site in sites]
            )
        )
        if defects is not None:
            joint = multiplet_iou(ctx, defects, counter)
            if joint is not None:
                iou = joint
        return Multiplet(
            sites=tuple(sites),
            covered_atoms=covered,
            total_atoms=len(evidence.atoms),
            iou=iou,
        )


def diagnose(
    netlist: Netlist,
    patterns: PatternSet,
    datalog: Datalog,
    config: DiagnosisConfig | None = None,
) -> DiagnosisReport:
    """One-shot convenience wrapper around :class:`Diagnoser`."""
    return Diagnoser(netlist, config).diagnose(patterns, datalog)


# -- the method registry -------------------------------------------------------


def _run_proposed(netlist, patterns, datalog, config, budget, tracer):
    return Diagnoser(netlist, config).diagnose(
        patterns, datalog, budget=budget, tracer=tracer
    )


def _baseline(diagnose_die):
    """A baseline's registry entry: baselines take no config and run
    ungoverned, and they trace through the active tracer only."""

    def run(netlist, patterns, datalog, config, budget, tracer):
        return diagnose_die(netlist, patterns, datalog)

    return run


def _diagnose_by_dictionary(netlist, patterns, datalog):
    return diagnose_dictionary(dictionary_for(netlist, patterns), datalog)


#: Every diagnosis method, by name: each entry runs one die as
#: ``runner(netlist, patterns, datalog, config, budget, tracer)``.
METHODS = {
    METHOD_NAME: _run_proposed,
    "slat": _baseline(diagnose_slat),
    "single": _baseline(diagnose_single_fault),
    "dictionary": _baseline(_diagnose_by_dictionary),
}

#: The methods the CLI and the service run: the registry without the
#: dictionary, whose build-once table pays off only across a campaign's
#: dies.
PER_DIE_METHODS = tuple(name for name in METHODS if name != "dictionary")


def run_method(
    method: str,
    netlist: Netlist,
    patterns: PatternSet,
    datalog: Datalog,
    *,
    config: DiagnosisConfig | None = None,
    budget: Budget | None = None,
    raw=None,
    tracer: Tracer | None = None,
) -> DiagnosisReport:
    """Diagnose one die with the registered method ``method``.

    The one way a die is diagnosed: the CLI, the service and campaigns
    all call it.  ``config`` and ``budget`` reach the proposed method's
    :meth:`Diagnoser.diagnose`; baselines run ungoverned and ignore them.
    ``raw`` switches on the post-diagnosis validation oracle
    (:func:`~repro.core.oracle.validate_report`) against that evidence:
    the :class:`~repro.tester.noise.RawLog` the tester emitted, or the
    datalog itself.  Without it the report is oracle-free.

    ``tracer`` is installed for the whole run, so a baseline's events and
    the ``oracle`` span land in it beside the pipeline's ``diagnose``
    span; the proposed method's report also carries its tree in
    ``stats["trace"]``.
    """
    try:
        runner = METHODS[method]
    except KeyError:
        raise ReproError(
            f"unknown diagnosis method {method!r}; known: {sorted(METHODS)}"
        ) from None
    if tracer is not None:
        install_tracer(tracer)
    try:
        report = runner(netlist, patterns, datalog, config, budget, tracer)
        if raw is not None:
            report = validate_report(sim_context(netlist, patterns), report, raw)
    finally:
        if tracer is not None:
            uninstall_tracer(tracer)
    return report
