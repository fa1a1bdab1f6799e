"""The campaign runner: injected-defect trials end to end.

A :class:`Campaign` owns one circuit and one test set (ATPG-generated and
cached per circuit) and runs seeded trials: sample a defect set, emulate
the failing device, collect the datalog, run each requested diagnosis
method, and score it against ground truth.  Every experiment table in
``benchmarks/`` is a thin configuration of this driver.

Execution (worker pools, per-trial timeouts, retry, checkpoint/resume)
lives in :mod:`repro.campaign.runner`; :meth:`Campaign.run` delegates to
it and with the default :class:`~repro.campaign.runner.RunnerConfig`
behaves exactly like the historical serial in-process loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from repro._rng import make_rng, spawn
from repro.atpg.random_gen import generate_stuck_at_tests
from repro.campaign.metrics import Aggregate, TrialOutcome, aggregate_by, score_report
from repro.campaign.samplers import DEFAULT_MIX, DefectMix, sample_defect_set
from repro.circuit.library import load_circuit
from repro.circuit.netlist import Netlist
from repro.core.budget import Budget
from repro.core.diagnose import DiagnosisConfig, run_method
from repro.errors import FaultModelError, OscillationError, TrialError
from repro.obs.metrics import record_ingest, record_skip_reasons
from repro.obs.trace import (
    NULL_TRACER,
    STAGES,
    Tracer,
    install_tracer,
    span_count,
    stage_seconds,
    uninstall_tracer,
)
from repro.sim.patterns import PatternSet
from repro.tester.harness import apply_test

if TYPE_CHECKING:
    from repro.campaign.runner import RunnerConfig

#: Keyed by (netlist content fingerprint, seed, min_patterns): the
#: provisioned content is a pure function of the netlist's structure and
#: the seed, so two different netlists that share a name and size never
#: share a test set.
_pattern_cache: dict[tuple[str, int, int], PatternSet] = {}


def provision_patterns(
    netlist: Netlist, seed: int = 7, min_patterns: int = 16
) -> PatternSet:
    """ATPG-provisioned (compacted, topped-off) test set, cached by content.

    Tops up with random patterns when the compacted set is very short, so
    every circuit sees a believable production test length and delay
    defects get launch/capture diversity.
    """
    key = (netlist.fingerprint(), seed, min_patterns)
    cached = _pattern_cache.get(key)
    if cached is not None:
        return cached
    report = generate_stuck_at_tests(netlist, seed=seed)
    patterns = report.patterns
    if patterns.n < min_patterns:
        filler = PatternSet.random(netlist, min_patterns - patterns.n, seed + 1)
        patterns = patterns.concat(filler).dedup()
    _pattern_cache[key] = patterns
    return patterns


@dataclass
class CampaignConfig:
    """One experiment's parameters (a row group of a table)."""

    circuit: str
    n_trials: int = 20
    k: int = 2
    mix: DefectMix = field(default_factory=lambda: DEFAULT_MIX)
    methods: tuple[str, ...] = ("xcover",)
    seed: int = 1
    interacting: bool = False
    diagnosis_config: DiagnosisConfig | None = None
    #: Degrade oscillating defect sets to three-valued simulation instead
    #: of resampling them away (see :func:`repro.tester.harness.apply_test`).
    oscillation_fallback: bool = True
    #: Resampling budget per trial before it counts as skipped.
    max_resample: int = 10
    #: Datalog noise spec (e.g. ``"flip:0.02"`` or ``"flip:0.02+dup:0.1"``,
    #: see :func:`repro.tester.noise.parse_noise_spec`).  When set, every
    #: trial's datalog is corrupted then re-ingested through the
    #: quarantining sanitizer, diagnosis runs on the sanitized evidence,
    #: and the validation oracle judges each report against the raw log.
    #: ``None`` (the default) leaves the pipeline byte-identical to the
    #: noise-free historical behavior.
    noise: str | None = None
    #: Record a per-trial span tree (see :mod:`repro.obs.trace`): each
    #: trial's record carries its spans, outcomes gain ``trace_*`` summary
    #: extras, and the assembled result collects every tree for Chrome-trace
    #: export.  Deliberately excluded from the journal fingerprint -- a
    #: traced resume replays an untraced journal and vice versa, because
    #: tracing never changes a trial's result.
    trace: bool = False

    def trial_seed(self, trial: int) -> int:
        """The deterministic seed of trial ``trial`` of this campaign."""
        return self.seed * 1_000_003 + trial


@dataclass
class TrialResult:
    """One trial's outcomes plus its resampling diary."""

    outcomes: list[TrialOutcome] | None
    #: Resample attempts by cause: exception class name for sampling /
    #: simulation errors, ``"no_failures"`` for defect sets the test set
    #: never observed.
    skip_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def skipped(self) -> bool:
        return self.outcomes is None


@dataclass
class CampaignResult:
    """All trial outcomes of one campaign plus convenience aggregation."""

    config: CampaignConfig
    outcomes: list[TrialOutcome] = field(default_factory=list)
    skipped_trials: int = 0  #: defect sets that produced no failures
    wall_seconds: float = 0.0
    #: Resample attempts summed over all trials, by cause (exception class
    #: name or ``"no_failures"``) -- the breakdown behind ``skipped_trials``.
    skip_reasons: dict[str, int] = field(default_factory=dict)
    #: Trials that terminally failed (timeout, crash, in-trial exception).
    trial_errors: list[TrialError] = field(default_factory=list)
    #: Trials replayed from a journal instead of executed (``--resume``).
    resumed_trials: int = 0
    #: Per-trial span trees when ``config.trace`` was set: one
    #: ``{"trial", "seed", "spans"}`` entry per traced record, ready for
    #: :func:`repro.obs.trace.to_chrome_trace`.
    traces: list[dict] = field(default_factory=list)

    @property
    def failed_trials(self) -> int:
        return len(self.trial_errors)

    def by_method(self) -> dict[str, Aggregate]:
        return aggregate_by(self.outcomes, key=lambda o: o.method)

    def by_completeness(self) -> dict[str, Aggregate]:
        """Aggregates split by anytime verdict (exact vs truncated runs)."""
        return aggregate_by(self.outcomes, key=lambda o: o.completeness)

    def aggregate(self, method: str) -> Aggregate:
        return Aggregate.over(method, [o for o in self.outcomes if o.method == method])


class Campaign:
    """Reusable trial runner for one circuit."""

    def __init__(
        self,
        circuit: str | Netlist,
        patterns: PatternSet | None = None,
        pattern_seed: int = 7,
    ):
        self.netlist = (
            circuit if isinstance(circuit, Netlist) else load_circuit(circuit)
        )
        self.patterns = patterns or provision_patterns(self.netlist, pattern_seed)
        self.pattern_seed = pattern_seed
        #: (circuit name, pattern seed) when the campaign can be rebuilt
        #: from the registry in a spawned worker; None when it holds a
        #: custom netlist or pattern set and workers must inherit by fork.
        self.spawn_spec: tuple[str, int] | None = (
            (circuit, pattern_seed)
            if isinstance(circuit, str) and patterns is None
            else None
        )

    def run_trial(
        self,
        trial_seed: int,
        k: int,
        mix: DefectMix = DEFAULT_MIX,
        methods: Sequence[str] = ("xcover",),
        interacting: bool = False,
        diagnosis_config: DiagnosisConfig | None = None,
        max_resample: int = 10,
        oscillation_fallback: bool = True,
        deadline_seconds: float | None = None,
        noise: str | None = None,
    ) -> list[TrialOutcome] | None:
        """One trial: returns outcomes per method, or None if the sampled
        defect sets never produced observable failures."""
        return self.run_trial_ex(
            trial_seed,
            k,
            mix=mix,
            methods=methods,
            interacting=interacting,
            diagnosis_config=diagnosis_config,
            max_resample=max_resample,
            oscillation_fallback=oscillation_fallback,
            deadline_seconds=deadline_seconds,
            noise=noise,
        ).outcomes

    def run_trial_ex(
        self,
        trial_seed: int,
        k: int,
        mix: DefectMix = DEFAULT_MIX,
        methods: Sequence[str] = ("xcover",),
        interacting: bool = False,
        diagnosis_config: DiagnosisConfig | None = None,
        max_resample: int = 10,
        oscillation_fallback: bool = True,
        deadline_seconds: float | None = None,
        noise: str | None = None,
        tracer: Tracer | None = None,
    ) -> TrialResult:
        """Like :meth:`run_trial` but keeps the resampling diary.

        Every resample is attributed to its cause instead of vanishing
        into a counter: exception class names for sampling/simulation
        errors, ``"no_failures"`` for unobservable defect sets.

        ``deadline_seconds`` is a wall-clock budget for the *whole trial*
        shared across methods: each xcover-engine diagnosis gets the time
        remaining on the trial clock (further capped by the per-run
        ``deadline_seconds`` of ``diagnosis_config`` when set), so the
        trial degrades to truncated-but-reported diagnoses instead of
        being killed from outside.  Baseline methods (slat, single,
        dictionary) are not governed -- they are cheap by construction.

        ``noise`` (a spec string, see
        :func:`repro.tester.noise.parse_noise_spec`) corrupts the trial's
        datalog before ingestion; diagnosis then runs on the quarantined
        sanitizer output, every method's report is judged by the
        validation oracle against the raw log, and the outcome carries
        the ingestion anomaly counters and the oracle verdict.

        ``tracer`` (a :class:`~repro.obs.trace.Tracer`) records a
        ``method:<name>`` span per diagnosis method with the pipeline's
        stage spans nested inside, and adds ``trace_spans`` /
        ``trace_<stage>_s`` summary extras to each outcome.  Untraced
        trials carry none of these keys, so journals and CSVs stay
        byte-identical when tracing is off.
        """
        if tracer is not None:
            install_tracer(tracer)
        try:
            return self._run_trial(
                trial_seed,
                k,
                mix,
                methods,
                interacting,
                diagnosis_config,
                max_resample,
                oscillation_fallback,
                deadline_seconds,
                noise,
                tracer,
            )
        finally:
            if tracer is not None:
                uninstall_tracer(tracer)

    def _run_trial(
        self,
        trial_seed: int,
        k: int,
        mix: DefectMix,
        methods: Sequence[str],
        interacting: bool,
        diagnosis_config: DiagnosisConfig | None,
        max_resample: int,
        oscillation_fallback: bool,
        deadline_seconds: float | None,
        noise: str | None,
        tracer: Tracer | None,
    ) -> TrialResult:
        noise_model = None
        if noise is not None:
            from repro.tester.noise import parse_noise_spec

            noise_model = parse_noise_spec(noise)
        rng = make_rng(trial_seed)
        trial_deadline = (
            time.monotonic() + deadline_seconds
            if deadline_seconds is not None
            else None
        )
        skip_reasons: dict[str, int] = {}

        def count(reason: str) -> None:
            skip_reasons[reason] = skip_reasons.get(reason, 0) + 1

        on_oscillation = "fallback" if oscillation_fallback else "raise"
        for _attempt in range(max_resample):
            try:
                defects = sample_defect_set(
                    self.netlist, k, spawn(rng, "defects"), mix, interacting
                )
                noise_kwargs = (
                    {"noise": noise_model, "noise_seed": trial_seed}
                    if noise_model is not None
                    else {}
                )
                result = apply_test(
                    self.netlist,
                    self.patterns,
                    defects,
                    on_oscillation,
                    **noise_kwargs,
                )
            except (OscillationError, FaultModelError) as exc:
                count(type(exc).__name__)
                continue
            if result.device_fails:
                break
            count("no_failures")
        else:
            record_skip_reasons(skip_reasons)
            return TrialResult(outcomes=None, skip_reasons=skip_reasons)

        if result.ingest is not None:
            record_ingest(result.ingest)
        outcomes: list[TrialOutcome] = []
        for method in methods:
            # A no-op span when untraced.  Under noise the oracle judges
            # every method's report against the raw (pre-sanitized) log.
            with (tracer or NULL_TRACER).span(
                f"method:{method}", method=method
            ) as method_span:
                report = run_method(
                    method,
                    self.netlist,
                    self.patterns,
                    result.datalog,
                    config=diagnosis_config,
                    budget=self._method_budget(diagnosis_config, trial_deadline),
                    raw=result.raw,
                    tracer=tracer,
                )
            outcome = score_report(
                self.netlist,
                report,
                defects,
                n_failing_patterns=len(result.datalog.failing_indices),
                n_fail_atoms=result.datalog.n_fail_atoms,
            )
            # Carry method-specific statistics (e.g. SLAT's non-SLAT pattern
            # counts) into the outcome so tables can aggregate them.
            outcome.extra.update(
                {
                    key: float(value)
                    for key, value in report.stats.items()
                    if isinstance(value, (int, float)) and key != "seconds"
                }
            )
            if result.oscillation_fallback:
                outcome.extra["oscillation_fallback"] = 1.0
                outcome.extra["x_atoms"] = float(result.x_atoms)
            if result.ingest is not None:
                outcome.extra["quarantined"] = float(result.ingest.quarantined)
                outcome.extra["ingest_anomalies"] = float(result.ingest.anomalies)
            if method_span is not None:
                # Flat per-method summary of the subtree: total seconds per
                # pipeline stage plus the span count.  Only present on
                # traced runs, so untraced journals/CSVs are unchanged.
                subtree = [method_span.to_dict()]
                totals = stage_seconds(subtree)
                outcome.extra["trace_spans"] = float(span_count(subtree))
                for stage in STAGES:
                    outcome.extra[f"trace_{stage}_s"] = totals.get(stage, 0.0)
            outcomes.append(outcome)
        record_skip_reasons(skip_reasons)
        return TrialResult(outcomes=outcomes, skip_reasons=skip_reasons)

    def run(
        self, config: CampaignConfig, runner: "RunnerConfig | None" = None
    ) -> CampaignResult:
        """Run ``config.n_trials`` seeded trials.

        ``runner`` selects the execution strategy (worker pool, per-trial
        timeout, retry, journal/resume); the default is the serial
        in-process loop.  See :mod:`repro.campaign.runner`.
        """
        from repro.campaign.runner import execute_campaign

        return execute_campaign(self, config, runner)

    @staticmethod
    def _method_budget(
        diagnosis_config: DiagnosisConfig | None,
        trial_deadline: float | None,
    ) -> Budget | None:
        """A fresh per-method :class:`Budget`, or None when ungoverned.

        Each method gets its own budget (truncation trails must not leak
        between methods of one trial) holding the config's count ceilings
        and the *smaller* of the config deadline and the time left on the
        trial clock.
        """
        config = diagnosis_config or DiagnosisConfig()
        deadline = config.deadline_seconds
        if trial_deadline is not None:
            remaining = max(0.0, trial_deadline - time.monotonic())
            deadline = remaining if deadline is None else min(deadline, remaining)
        return Budget.of(deadline, config.max_multiplets, config.max_expansions)


def run_campaign(
    config: CampaignConfig, runner: "RunnerConfig | None" = None
) -> CampaignResult:
    """Convenience one-shot campaign over a registered circuit."""
    return Campaign(config.circuit).run(config, runner)


def run_noise_sweep(
    config: CampaignConfig,
    model: str = "flip",
    rates: Sequence[float] = (0.0, 0.01, 0.02, 0.05, 0.1),
    runner: "RunnerConfig | None" = None,
) -> dict[float, CampaignResult]:
    """The noise robustness axis: one campaign per corruption rate.

    Every rate reuses the same circuit, test set, defect samples and
    diagnosis configuration -- only the datalog corruption varies -- so
    per-method resolution/recall/``confirmed_rate`` curves against the
    noise rate isolate the cost of corrupted evidence.  Rate 0.0 runs
    with the noise machinery disabled entirely except for the oracle
    (which then judges reports against the clean datalog), making it the
    byte-identical-resolution anchor of the curve.
    """
    campaign = Campaign(config.circuit)
    results: dict[float, CampaignResult] = {}
    for rate in rates:
        spec = f"{model}:{rate:g}"
        results[rate] = campaign.run(replace(config, noise=spec), runner)
    return results
