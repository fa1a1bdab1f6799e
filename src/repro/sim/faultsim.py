"""Single-defect fault simulation services.

Used by ATPG (coverage grading, fault dropping), the baselines (SLAT,
single-fault, the dictionary, DTPG), diagnosis candidate refinement and
the validation oracle.  Every service takes the
:class:`~repro.sim.cache.SimContext` of the netlist and test set it asks
about and reads the fault-free base from it; :func:`fault_coverage`,
which grades a whole test set, looks its context up itself.

The fast path expresses a defect as a set of *site overrides* computed from
fault-free values -- valid whenever the defect's behavior does not depend
on nets inside its own fanout cone -- and resimulates only the overridden
cone, through the context's memo.  A one-site override (stuck-at, open,
transition, byzantine, a dominant bridge outside its victim's cone) needs
no resimulation of its own: critical path tracing answers it from its
fanout-free region root's flip, both its detections (the site's critical
patterns where the override differs from the fault-free value) and its
per-output response.  Context-dependent cases (e.g. a bridge whose
aggressor is disturbed by the victim) transparently fall back to the full
:class:`~repro.faults.injection.FaultyCircuit` fixpoint simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.circuit.netlist import Netlist, Site
from repro.errors import OscillationError
from repro.faults.injection import FaultyCircuit, defect_creates_feedback
from repro.faults.models import (
    BridgeDefect,
    BridgeKind,
    ByzantineDefect,
    Defect,
    OpenDefect,
    StuckAtDefect,
    TransitionDefect,
    TransitionKind,
)
from repro.sim.cache import SimContext, sim_context
from repro.sim.patterns import PatternSet


def _prev_shift(vec: int, mask: int) -> int:
    return ((vec << 1) | (vec & 1)) & mask


def single_defect_overrides(ctx: SimContext, defect: Defect) -> dict[Site, int] | None:
    """Site-override encoding of ``defect`` on ``ctx``'s base, or ``None``
    if context-dependent.

    The encoding assumes every net the defect *reads* keeps its fault-free
    value, which holds exactly when those nets are outside the defect's own
    fanout cone.
    """
    netlist = ctx.netlist
    base = ctx.base
    mask = ctx.mask
    if isinstance(defect, (StuckAtDefect, OpenDefect)):
        forced = defect.value if isinstance(defect, StuckAtDefect) else defect.float_value
        return {defect.site: mask if forced else 0}
    if isinstance(defect, TransitionDefect):
        v = base[defect.site.net]
        prev = _prev_shift(v, mask)
        faulty = (v & prev) if defect.kind is TransitionKind.SLOW_TO_RISE else (v | prev)
        return {defect.site: faulty}
    if isinstance(defect, ByzantineDefect):
        v = base[defect.site.net]
        return {defect.site: v ^ (defect.flip_vector(ctx.patterns.n) & mask)}
    if isinstance(defect, BridgeDefect):
        if defect_creates_feedback(netlist, [defect]):
            return None
        a = base[defect.aggressor]
        if defect.kind is BridgeKind.DOMINANT:
            return {Site(defect.victim): a}
        v = base[defect.victim]
        merged = (v & a) if defect.kind is BridgeKind.WIRED_AND else (v | a)
        return {Site(defect.victim): merged, Site(defect.aggressor): merged}
    return None


def _lone_override(ctx: SimContext, overrides: Mapping[Site, int]) -> tuple[Site, int]:
    """The site of a one-site override, and the patterns where the
    override differs from the site's fault-free value."""
    ((site, value),) = overrides.items()
    ctx.netlist.validate_site(site)  # before reading its base value
    return site, value ^ ctx.base[site.net]


def defect_output_diff(ctx: SimContext, defect: Defect) -> dict[str, int]:
    """Per-output bit vectors of patterns where the defect flips the output.

    Only outputs with at least one differing pattern appear.  A defect
    overriding a single site is answered by critical path tracing
    (:meth:`SimContext.critical_diff
    <repro.sim.cache.SimContext.critical_diff>`), one overriding several
    by the context's memoized cone resim.
    """
    overrides = single_defect_overrides(ctx, defect)
    if overrides is None:
        faulty = FaultyCircuit(ctx.netlist, [defect]).simulate_outputs(ctx.patterns)
        return ctx.output_diff(faulty)
    if len(overrides) == 1:
        return ctx.critical_diff(*_lone_override(ctx, overrides))
    return dict(ctx.resim_diff(overrides))


def detect_vector(ctx: SimContext, defect: Defect) -> int:
    """Bit vector of patterns that detect ``defect`` on any output.

    A defect overriding a single site is answered by critical path tracing
    (:meth:`SimContext.critical <repro.sim.cache.SimContext.critical>`):
    the patterns where the override differs from the fault-free value and
    complementing the site reaches an output.
    """
    overrides = single_defect_overrides(ctx, defect)
    if overrides is not None and len(overrides) == 1:
        return ctx.critical(*_lone_override(ctx, overrides))
    vec = 0
    for delta in defect_output_diff(ctx, defect).values():
        vec |= delta
    return vec


@dataclass
class FaultCoverageResult:
    """Outcome of grading a pattern set against a fault list."""

    detected: list[Defect] = field(default_factory=list)
    undetected: list[Defect] = field(default_factory=list)
    unsimulable: list[Defect] = field(default_factory=list)
    detect_bits: dict[Defect, int] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0

    @property
    def n_faults(self) -> int:
        return len(self.detected) + len(self.undetected) + len(self.unsimulable)


def fault_coverage(
    netlist: Netlist,
    patterns: PatternSet,
    faults: Iterable[Defect],
) -> FaultCoverageResult:
    """Grade ``patterns`` against ``faults`` (serial, bit-parallel per fault)
    on their shared context.

    Defects whose injected circuit oscillates are reported separately as
    ``unsimulable`` rather than silently dropped.
    """
    ctx = sim_context(netlist, patterns)
    result = FaultCoverageResult()
    for fault in faults:
        try:
            vec = detect_vector(ctx, fault)
        except OscillationError:
            result.unsimulable.append(fault)
            continue
        result.detect_bits[fault] = vec
        if vec:
            result.detected.append(fault)
        else:
            result.undetected.append(fault)
    return result


def effective_pattern_order(
    netlist: Netlist,
    patterns: PatternSet,
    faults: Sequence[Defect],
) -> list[int]:
    """Greedy pattern ranking by marginal fault detection (for compaction).

    Returns pattern indices ordered so that prefixes maximize coverage;
    patterns detecting nothing new are omitted.  Each pick is the pattern
    detecting the most remaining faults, the lowest index on a tie.

    The per-pattern counts are kept bit-sliced: bit ``i`` of ``planes[k]``
    is bit ``k`` of pattern ``i``'s count.  A fault's detect vector is
    added once, and subtracted when a pick covers it; the most detecting
    patterns are found one plane at a time, from the top.
    """
    grading = fault_coverage(netlist, patterns, faults)
    remaining = [vec for vec in grading.detect_bits.values() if vec]
    planes: list[int] = []
    for vec in remaining:
        k = 0
        while vec:
            if k == len(planes):
                planes.append(vec)
                break
            plane = planes[k]
            planes[k] = plane ^ vec
            vec &= plane
            k += 1
    order: list[int] = []
    while remaining:
        top = patterns.mask
        for plane in reversed(planes):
            if top & plane:
                top &= plane
        best = (top & -top).bit_length() - 1
        order.append(best)
        bit = 1 << best
        kept = []
        for vec in remaining:
            if not vec & bit:
                kept.append(vec)
                continue
            k = 0
            while vec:
                plane = planes[k]
                planes[k] = plane ^ vec
                vec &= ~plane
                k += 1
        remaining = kept
    return order
