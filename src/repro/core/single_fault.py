"""Classic single-fault effect-cause diagnosis (comparison baseline).

The textbook pre-multiple-defect flow: simulate every (collapsed) stuck-at
fault in the structural envelope and rank by how closely its full response
matches the datalog; a candidate whose response matches *exactly* is the
classic "perfect match" diagnosis.  With two or more defects present no
single fault reproduces the composite response, so this baseline degrades
-- precisely the failure mode the DAC 2008 method was built to remove, and
the comparison axis of Table 4 / Figure 1.
"""

from __future__ import annotations

import time

from repro.circuit.netlist import Netlist
from repro.core.backtrace import candidate_sites
from repro.core.report import Candidate, DiagnosisReport, Hypothesis, Multiplet
from repro.core.scoring import MatchCounter, diff_to_atoms
from repro.errors import DiagnosisError
from repro.faults.models import StuckAtDefect
from repro.sim.cache import sim_context
from repro.sim.faultsim import defect_output_diff
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog

METHOD_NAME = "single-stuck-at"
#: How many best-matching faults a report keeps when none matches exactly.
TOP_K = 10


def diagnose_single_fault(
    netlist: Netlist, patterns: PatternSet, datalog: Datalog
) -> DiagnosisReport:
    """Best-matching single stuck-at explanations for the datalog."""
    if datalog.n_patterns != patterns.n:
        raise DiagnosisError("datalog/test set pattern count mismatch")
    started = time.perf_counter()
    if datalog.is_passing_device:
        return DiagnosisReport(method=METHOD_NAME, circuit=netlist.name)

    ctx = sim_context(netlist, patterns)
    observed = frozenset(datalog.fail_atoms())
    counter = MatchCounter.of_datalog(datalog)

    scored: list[tuple[float, Hypothesis]] = []
    for site in netlist.sites_of(candidate_sites(netlist, datalog)):
        for value in (0, 1):
            diff = defect_output_diff(ctx, StuckAtDefect(site, value))
            hits, misses, fa = counter.counts(diff)
            if not hits:
                continue
            iou = counter.iou(diff)
            scored.append(
                (
                    iou,
                    Hypothesis(
                        kind=f"sa{value}",
                        site=site,
                        hits=hits,
                        misses=misses,
                        false_alarms=fa,
                    ),
                )
            )
    scored.sort(key=lambda pair: (-pair[0], str(pair[1].site), pair[1].kind))

    exact = [h for iou, h in scored if iou == 1.0]
    kept = exact if exact else [h for _iou, h in scored[:TOP_K]]

    by_site: dict = {}
    for h in kept:
        by_site.setdefault(h.site, []).append(h)
    candidates = tuple(
        Candidate(site=site, hypotheses=tuple(hyps), explained_atoms=hyps[0].hits)
        for site, hyps in by_site.items()
    )
    multiplets = tuple(
        Multiplet(
            sites=(h.site,),
            covered_atoms=h.hits,
            total_atoms=len(observed),
            iou=iou,
        )
        for iou, h in scored[: max(TOP_K, len(exact))]
        if h in kept
    )
    best_cover = max((m.covered_atoms for m in multiplets), default=0)
    stats = {
        "seconds": time.perf_counter() - started,
        "n_exact_matches": float(len(exact)),
        "best_iou": scored[0][0] if scored else 0.0,
    }
    uncovered: frozenset = frozenset()
    if multiplets and best_cover < len(observed):
        # The baseline cannot explain everything: report the residue of the
        # best candidate as uncovered evidence.
        best = max(multiplets, key=lambda m: m.covered_atoms)
        best_h = next(h for h in kept if h.site == best.sites[0])
        diff = defect_output_diff(
            ctx, StuckAtDefect(best_h.site, int(best_h.kind[-1]))
        )
        uncovered = observed - diff_to_atoms(diff)
    return DiagnosisReport(
        method=METHOD_NAME,
        circuit=netlist.name,
        candidates=candidates,
        multiplets=multiplets,
        uncovered_atoms=uncovered,
        stats=stats,
    )
