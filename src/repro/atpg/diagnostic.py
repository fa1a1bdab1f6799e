"""Diagnostic test pattern generation (DTPG).

Detection-oriented test sets leave many fault pairs *indistinguishable*:
both faults produce identical responses on every applied pattern, so
diagnosis must report them together.  Diagnostic generation attacks the
pairs directly: find the indistinguished pairs, then search for patterns
on which the two faults' responses differ and add them.

This is the static (pre-tester) counterpart of the adaptive flow in
:mod:`repro.core.distinguish`: the adaptive loop sharpens one device
online; DTPG sharpens the *pattern set* once, for every future device.
The distinguishability ratio it reports is exactly the expected diagnosis
resolution improvement measured in Figure 7's N-detect study -- DTPG gets
the same effect with far fewer patterns because every added vector is
aimed at a surviving ambiguity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from repro._rng import make_rng
from repro.circuit.netlist import Netlist
from repro.faults.collapse import collapse_stuck_at
from repro.faults.models import Defect
from repro.sim.cache import SimContext, sim_context
from repro.sim.faultsim import defect_output_diff
from repro.sim.patterns import PatternSet


def fault_signatures(
    netlist: Netlist,
    patterns: PatternSet,
    faults: list[Defect],
) -> dict[Defect, tuple]:
    """Canonical full-response signature per fault under ``patterns``."""
    ctx = sim_context(netlist, patterns)
    return {fault: _signature(ctx, fault) for fault in faults}


def _signature(ctx: SimContext, fault: Defect) -> tuple:
    """``fault``'s canonical full-response signature on ``ctx``."""
    return tuple(sorted(defect_output_diff(ctx, fault).items()))


def indistinguished_pairs(
    signatures: dict[Defect, tuple],
    detected_only: bool = True,
) -> list[tuple[Defect, Defect]]:
    """Fault pairs with identical (non-empty, if ``detected_only``) responses."""
    groups: dict[tuple, list[Defect]] = {}
    for fault, signature in signatures.items():
        if detected_only and not signature:
            continue
        groups.setdefault(signature, []).append(fault)
    pairs: list[tuple[Defect, Defect]] = []
    for members in groups.values():
        members.sort(key=str)
        pairs.extend(combinations(members, 2))
    return pairs


@dataclass
class DiagnosticAtpgReport:
    """Outcome of diagnostic expansion."""

    patterns: PatternSet
    n_faults: int
    pairs_before: int
    pairs_after: int
    patterns_added: int
    unresolvable_pairs: list = field(default_factory=list)

    @property
    def distinguishability_gain(self) -> float:
        if self.pairs_before == 0:
            return 0.0
        return 1.0 - self.pairs_after / self.pairs_before


def expand_diagnostic(
    netlist: Netlist,
    patterns: PatternSet,
    faults: list[Defect] | None = None,
    seed: int | random.Random | None = None,
    batch: int = 48,
    max_batches_per_pair: int = 8,
    max_added: int | None = None,
) -> DiagnosticAtpgReport:
    """Add patterns until surviving fault pairs are distinguished (or
    proven resistant to the random search effort).

    ``faults`` defaults to the collapsed stuck-at representatives --
    collapse-equivalent faults are indistinguishable *by construction*
    and must not be attacked.
    """
    rng = make_rng(seed)
    if faults is None:
        faults = list(collapse_stuck_at(netlist).representatives)

    ctx = sim_context(netlist, patterns)
    pairs = indistinguished_pairs({fault: _signature(ctx, fault) for fault in faults})
    pairs_before = len(pairs)
    added = 0
    unresolved: list = []

    for fault_a, fault_b in pairs:
        # An earlier addition may already have split this pair.
        if _signature(ctx, fault_a) != _signature(ctx, fault_b):
            continue
        if max_added is not None and added >= max_added:
            unresolved.append((fault_a, fault_b))
            continue
        found = None
        for _ in range(max_batches_per_pair):
            # A trial batch is tried once: an unregistered context, so the
            # search never evicts a registered one.
            trial = SimContext(netlist, PatternSet.random(netlist, batch, rng))
            diff_a = defect_output_diff(trial, fault_a)
            diff_b = defect_output_diff(trial, fault_b)
            delta = 0
            for out in set(diff_a) | set(diff_b):
                delta |= diff_a.get(out, 0) ^ diff_b.get(out, 0)
            if delta:
                index = (delta & -delta).bit_length() - 1
                found = trial.patterns.pattern(index)
                break
        if found is None:
            unresolved.append((fault_a, fault_b))
            continue
        patterns = patterns.concat(
            PatternSet.from_vectors(netlist.inputs, [found])
        ).dedup()
        # Each grown set is an intermediate, unregistered like the trials.
        ctx = SimContext(netlist, patterns)
        added += 1

    final = {fault: _signature(ctx, fault) for fault in faults}
    pairs_after = len(indistinguished_pairs(final))
    return DiagnosticAtpgReport(
        patterns=patterns,
        n_faults=len(faults),
        pairs_before=pairs_before,
        pairs_after=pairs_after,
        patterns_added=added,
        unresolvable_pairs=unresolved,
    )
