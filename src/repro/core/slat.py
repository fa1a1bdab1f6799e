"""SLAT / per-test multiple-fault diagnosis (comparison baseline).

The Single-Location-At-a-Time paradigm (Bartenstein et al.; Huisman's
per-test diagnosis) assumes that **each failing pattern, taken alone, is
exactly explainable by one stuck-at fault**: a fault explains pattern *t*
when its simulated failing outputs at *t* equal the observed failing
outputs at *t* exactly.  Patterns with at least one such explanation are
*SLAT patterns*; a small multiplet of faults is then chosen to cover all
SLAT patterns.

The assumption buys speed and simplicity but breaks whenever defects
interact on a pattern (joint sensitization, masking, reconvergent mixing)
or behave unlike stuck-at faults: those patterns become non-SLAT and drop
out of the explanation entirely, taking the defects that caused them
along.  The reproduced paper's central claim is the removal of exactly
this assumption; Table 4 quantifies the gap.
"""

from __future__ import annotations

import time

from repro.circuit.netlist import Netlist
from repro.core.backtrace import candidate_sites
from repro.core.report import Candidate, DiagnosisReport, Hypothesis, Multiplet

from repro.errors import DiagnosisError
from repro.faults.models import StuckAtDefect
from repro.sim.cache import sim_context
from repro.sim.faultsim import defect_output_diff
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog

METHOD_NAME = "slat"
#: The most stuck-at faults the greedy multiplet cover of the SLAT
#: patterns chooses.
MAX_MULTIPLET_FAULTS = 8


def diagnose_slat(
    netlist: Netlist, patterns: PatternSet, datalog: Datalog
) -> DiagnosisReport:
    """Per-test (SLAT) diagnosis over the stuck-at universe in the envelope."""
    if datalog.n_patterns != patterns.n:
        raise DiagnosisError("datalog/test set pattern count mismatch")
    started = time.perf_counter()
    if datalog.is_passing_device:
        return DiagnosisReport(method=METHOD_NAME, circuit=netlist.name)

    ctx = sim_context(netlist, patterns)
    failing = list(datalog.failing_indices)
    observed_by_pattern = {
        idx: datalog.failing_outputs_of(idx) for idx in failing
    }

    # Per-test exact matching: fault f explains pattern t iff its predicted
    # failing outputs at t equal the observed failing outputs at t.
    explains: dict[StuckAtDefect, set[int]] = {}
    for site in netlist.sites_of(candidate_sites(netlist, datalog)):
        for value in (0, 1):
            fault = StuckAtDefect(site, value)
            diff = defect_output_diff(ctx, fault)
            matched: set[int] = set()
            for idx in failing:
                predicted_outs = frozenset(
                    out for out, vec in diff.items() if (vec >> idx) & 1
                )
                if predicted_outs and predicted_outs == observed_by_pattern[idx]:
                    matched.add(idx)
            if matched:
                explains[fault] = matched

    slat_patterns: set[int] = set()
    for matched in explains.values():
        slat_patterns |= matched
    non_slat = [idx for idx in failing if idx not in slat_patterns]

    # Greedy multiplet cover of the SLAT patterns.
    chosen: list[StuckAtDefect] = []
    covered: set[int] = set()
    pool = dict(explains)
    while covered != slat_patterns and len(chosen) < MAX_MULTIPLET_FAULTS:
        best_fault, best_gain = None, 0
        for fault, matched in pool.items():
            gain = len(matched - covered)
            if gain > best_gain or (
                gain == best_gain and gain and str(fault) < str(best_fault)
            ):
                best_fault, best_gain = fault, gain
        if best_fault is None or best_gain == 0:
            break
        chosen.append(best_fault)
        covered |= pool.pop(best_fault)

    observed_atoms = frozenset(datalog.fail_atoms())
    covered_atoms = {
        (idx, out) for idx in covered for out in observed_by_pattern[idx]
    }
    uncovered = observed_atoms - covered_atoms

    # Expand each chosen fault into its tie group: faults explaining the same
    # pattern set are indistinguishable per-test and are all reported (this
    # is the SLAT candidate *set*, the baseline's resolution statistic).
    expanded: list[StuckAtDefect] = []
    seen_sites = set()
    for fault in chosen:
        group = [f for f, m in explains.items() if m == explains[fault]]
        group.sort(key=str)
        for member in group[:16]:
            if member.site not in seen_sites:
                seen_sites.add(member.site)
                expanded.append(member)

    candidates = []
    for fault in expanded:
        hypothesis = Hypothesis(
            kind=f"sa{fault.value}",
            site=fault.site,
            hits=sum(len(observed_by_pattern[i]) for i in explains[fault]),
            misses=len(observed_atoms)
            - sum(len(observed_by_pattern[i]) for i in explains[fault]),
            false_alarms=0,
        )
        candidates.append(
            Candidate(
                site=fault.site,
                hypotheses=(hypothesis,),
                explained_atoms=hypothesis.hits,
            )
        )
    candidates.sort(key=lambda c: (-c.explained_atoms, str(c.site)))

    multiplets = ()
    if chosen:
        multiplets = (
            Multiplet(
                sites=tuple(c.site for c in candidates),
                covered_atoms=len(covered_atoms),
                total_atoms=len(observed_atoms),
                iou=len(covered_atoms) / len(observed_atoms) if observed_atoms else 1.0,
            ),
        )

    stats = {
        "seconds": time.perf_counter() - started,
        "n_slat_patterns": float(len(slat_patterns)),
        "n_non_slat_patterns": float(len(non_slat)),
        "slat_fraction": len(slat_patterns) / len(failing) if failing else 1.0,
    }
    return DiagnosisReport(
        method=METHOD_NAME,
        circuit=netlist.name,
        candidates=tuple(candidates),
        multiplets=multiplets,
        uncovered_atoms=frozenset(uncovered),
        stats=stats,
    )
