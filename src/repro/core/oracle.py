"""Post-diagnosis validation oracle: resimulate what was reported.

Diagnosis under noisy tester data works on the *sanitized* datalog -- the
quarantining ingestion (:mod:`repro.tester.noise`) has already demoted
contradictory strobes to the X tier.  The oracle is the independent
backstop: after diagnosis it takes the reported candidates and
multiplets, resimulates their concrete fault models, and compares the
predictions against the **raw, pre-sanitized** evidence.  A candidate
whose best model reproduces none of the raw failures was hallucinated
from corrupted evidence and is demoted; a report whose best multiplet
reproduces everything is independently confirmed.

The comparison is deliberately lenient about false alarms: intermittent
fail->pass noise makes even the true defect predict failures on strobes
the raw log recorded as passing, so a prediction on an observed pass
yields ``"plausible"``, never ``"refuted"``.  Refutation requires the
model to reproduce *zero* observed failures.

The oracle never mutates diagnosis state -- it returns a new report with
per-candidate :class:`~repro.core.report.Validation` records, an
``oracle_*`` stats block, and a report-level ``consistency`` verdict.
Reports without the oracle stage serialize byte-identically to the
historical format.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.report import (
    Candidate,
    DiagnosisReport,
    Hypothesis,
    Validation,
)
from repro.core.scoring import MatchCounter, multiplet_diff
from repro.core.xcover import Atom
from repro.errors import DiagnosisError, OscillationError
from repro.faults.models import (
    BridgeDefect,
    Defect,
    OpenDefect,
    StuckAtDefect,
    TransitionDefect,
    TransitionKind,
)
from repro.obs.trace import trace_span
from repro.sim.cache import SimContext
from repro.sim.faultsim import defect_output_diff
from repro.tester.datalog import Datalog

#: Report-level consistency verdicts (see :func:`validate_report`).
CONSISTENCY_CONFIRMED = "confirmed"
CONSISTENCY_PARTIAL = "partial"
CONSISTENCY_REFUTED = "refuted"
CONSISTENCY_UNVALIDATED = "unvalidated"


def hypothesis_to_defect(h: Hypothesis) -> Defect:
    """Materialize a concrete hypothesis as an injectable defect."""
    if h.kind in ("sa0", "sa1"):
        return StuckAtDefect(h.site, int(h.kind[-1]))
    if h.kind in ("open0", "open1"):
        return OpenDefect(h.site, int(h.kind[-1]))
    if h.kind == "bridge":
        assert h.aggressor is not None
        return BridgeDefect(h.site.net, h.aggressor)
    if h.kind == "str":
        return TransitionDefect(h.site, TransitionKind.SLOW_TO_RISE)
    if h.kind == "stf":
        return TransitionDefect(h.site, TransitionKind.SLOW_TO_FALL)
    raise DiagnosisError(f"cannot materialize hypothesis kind {h.kind!r}")


def concrete_defects(
    hypothesis_lists: list[tuple[Hypothesis, ...]],
) -> list[Defect] | None:
    """Best concrete defect per site, or None if some site is model-free."""
    defects: list[Defect] = []
    for hypotheses in hypothesis_lists:
        concrete = next((h for h in hypotheses if h.kind != "arbitrary"), None)
        if concrete is None:
            return None
        defects.append(hypothesis_to_defect(concrete))
    return defects


def _raw_evidence(
    raw,
) -> tuple[frozenset[Atom], tuple[int, ...], int | None, frozenset[Atom]]:
    """Normalize a RawLog or Datalog into (fail_atoms, failing, window, x).

    For a raw log the fail tier is the union of every fail-record claim
    inside the observed window -- contradictions included, because the
    oracle's whole point is to judge the report against the evidence *as
    the tester emitted it*, before the sanitizer took a side.
    """
    if isinstance(raw, Datalog):
        return (
            frozenset(raw.fail_atoms()),
            raw.failing_indices,
            raw.n_observed,
            raw.x_atoms,
        )
    # Duck-typed RawLog (avoids a tester -> core import cycle concern).
    window = raw.observed_window
    fails: set[Atom] = set()
    x_atoms: set[Atom] = set()
    for record in raw.records:
        if record.pattern_index >= window:
            continue
        atoms = {(record.pattern_index, out) for out in record.outputs}
        if record.kind == "fail":
            fails.update(atoms)
        elif record.kind == "xmask":
            x_atoms.update(atoms)
    x_atoms -= fails  # a strobe claimed failing is fail evidence, not X
    failing = tuple(sorted({idx for idx, _out in fails}))
    n_observed = None if window >= raw.n_patterns else window
    return frozenset(fails), failing, n_observed, frozenset(x_atoms)


def _verdict(hits: int, misses: int, false_alarms: int, observed: bool) -> str:
    if not observed:
        return "confirmed"
    if hits == 0:
        return "refuted"
    if false_alarms == 0:
        return "confirmed"
    return "plausible"


def validate_report(ctx: SimContext, report: DiagnosisReport, raw) -> DiagnosisReport:
    """Self-validate ``report`` against the raw (pre-sanitized) evidence,
    resimulating on ``ctx``, the shared context of the netlist and test
    set the report was diagnosed on.

    ``raw`` is the :class:`~repro.tester.noise.RawLog` the tester emitted
    (preferred -- it still carries the quarantined contradictions) or a
    plain :class:`~repro.tester.datalog.Datalog` when no noise stage ran.

    Returns a new report where

    - every candidate carries a :class:`~repro.core.report.Validation`
      record (its best concrete model resimulated against the raw
      evidence; model-free candidates are ``"plausible"`` -- there is
      nothing to resimulate and the no-assumptions envelope keeps them),
    - candidates refuted by the raw evidence are stably demoted below
      every non-refuted candidate,
    - ``stats`` gains ``oracle_explained`` / ``oracle_misexplained`` /
      ``oracle_unexplained`` counts from jointly resimulating the best
      multiplet, and
    - ``consistency`` holds the report-level verdict: ``"confirmed"``
      (joint resimulation reproduces every raw fail atom and predicts
      nothing on observed-passing strobes), ``"partial"`` (some but not
      all evidence reproduced, or reproduced with false alarms),
      ``"refuted"`` (nothing reproduced), ``"unvalidated"`` (no concrete
      multiplet to resimulate).
    """
    with trace_span("oracle"):
        return _validate_report(ctx, report, raw)


def _validate_report(ctx: SimContext, report: DiagnosisReport, raw) -> DiagnosisReport:
    observed, failing, n_observed, x_atoms = _raw_evidence(raw)
    counter = MatchCounter(observed, failing, n_observed, x_atoms)

    validated: list[Candidate] = []
    for candidate in report.candidates:
        best = next(
            (h for h in candidate.hypotheses if h.kind != "arbitrary"), None
        )
        if best is None:
            validation = Validation(verdict="plausible")
        else:
            try:
                diff = defect_output_diff(ctx, hypothesis_to_defect(best))
            except OscillationError:
                validation = Validation(verdict="plausible", kind=best.kind)
            else:
                hits, misses, fa = counter.counts(diff)
                validation = Validation(
                    verdict=_verdict(hits, misses, fa, bool(observed)),
                    kind=best.kind,
                    hits=hits,
                    misses=misses,
                    false_alarms=fa,
                )
        validated.append(replace(candidate, validation=validation))
    # Stable demotion: refuted candidates sink below everything else but
    # keep their relative order (and so does everyone above them).
    validated.sort(key=lambda c: c.validation.verdict == "refuted")

    stats = dict(report.stats)
    consistency = CONSISTENCY_UNVALIDATED
    if not observed:
        consistency = CONSISTENCY_CONFIRMED
        stats["oracle_explained"] = 0.0
        stats["oracle_misexplained"] = 0.0
        stats["oracle_unexplained"] = 0.0
    else:
        hypothesis_by_site = {c.site: c.hypotheses for c in validated}
        best_multiplet = report.best_multiplet
        defects = (
            concrete_defects(
                [
                    hypothesis_by_site.get(site, ())
                    for site in best_multiplet.sites
                ]
            )
            if best_multiplet is not None
            else None
        )
        diff = multiplet_diff(ctx, defects) if defects else None
        if diff is not None:
            hits, misses, fa = counter.counts(diff)
            stats["oracle_explained"] = float(hits)
            stats["oracle_misexplained"] = float(fa)
            stats["oracle_unexplained"] = float(misses)
            if hits == 0:
                consistency = CONSISTENCY_REFUTED
            elif misses == 0 and fa == 0:
                consistency = CONSISTENCY_CONFIRMED
            else:
                consistency = CONSISTENCY_PARTIAL

    return replace(
        report,
        candidates=tuple(validated),
        stats=stats,
        consistency=consistency,
    )
