"""Single-defect fault simulation services.

Used by ATPG (coverage grading, fault dropping), the SLAT baseline
(per-pattern response matching) and diagnosis candidate refinement
(validating a hypothesized fault model against the datalog).

The fast path expresses a defect as a set of *site overrides* computed from
fault-free values -- valid whenever the defect's behavior does not depend
on nets inside its own fanout cone -- and resimulates only the overridden
cone.  A one-site override (stuck-at, open, transition, byzantine, a
dominant bridge outside its victim's cone) needs no resimulation of its
own on the shared context: critical path tracing answers it from its
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
from repro.faults.injection import FaultyCircuit
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
from repro.sim.cache import active_context, sim_context
from repro.sim.event import resim_output_diff
from repro.sim.patterns import PatternSet


def _prev_shift(vec: int, mask: int) -> int:
    return ((vec << 1) | (vec & 1)) & mask


def single_defect_overrides(
    netlist: Netlist,
    patterns: PatternSet,
    defect: Defect,
    base_values: Mapping[str, int],
) -> dict[Site, int] | None:
    """Site-override encoding of ``defect``, or ``None`` if context-dependent.

    The encoding assumes every net the defect *reads* keeps its fault-free
    value, which holds exactly when those nets are outside the defect's own
    fanout cone.
    """
    mask = patterns.mask
    if isinstance(defect, (StuckAtDefect, OpenDefect)):
        forced = defect.value if isinstance(defect, StuckAtDefect) else defect.float_value
        return {defect.site: mask if forced else 0}
    if isinstance(defect, TransitionDefect):
        v = base_values[defect.site.net]
        prev = _prev_shift(v, mask)
        faulty = (v & prev) if defect.kind is TransitionKind.SLOW_TO_RISE else (v | prev)
        return {defect.site: faulty}
    if isinstance(defect, ByzantineDefect):
        v = base_values[defect.site.net]
        return {defect.site: v ^ (defect.flip_vector(patterns.n) & mask)}
    if isinstance(defect, BridgeDefect):
        ids = netlist.net_ids
        if netlist.fanout_bits([defect.victim]) >> ids[defect.aggressor] & 1:
            return None
        a = base_values[defect.aggressor]
        v = base_values[defect.victim]
        if defect.kind is BridgeKind.DOMINANT:
            return {Site(defect.victim): a}
        if netlist.fanout_bits([defect.aggressor]) >> ids[defect.victim] & 1:
            return None
        merged = (v & a) if defect.kind is BridgeKind.WIRED_AND else (v | a)
        return {Site(defect.victim): merged, Site(defect.aggressor): merged}
    return None


def _lone_override(
    netlist: Netlist, overrides: Mapping[Site, int], base_values: Mapping[str, int]
) -> tuple[Site, int]:
    """The site of a one-site override, and the patterns where the
    override differs from the site's fault-free value."""
    ((site, value),) = overrides.items()
    netlist.validate_site(site)  # before reading its base value
    return site, value ^ base_values[site.net]


def defect_output_diff(
    netlist: Netlist,
    patterns: PatternSet,
    defect: Defect,
    base_values: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Per-output bit vectors of patterns where the defect flips the output.

    Only outputs with at least one differing pattern appear.  A defect
    overriding a single site is answered on the shared context, when it
    serves ``base_values``, by critical path tracing
    (:meth:`SimContext.critical_diff
    <repro.sim.cache.SimContext.critical_diff>`).
    """
    if base_values is None:
        base_values = sim_context(netlist, patterns).base
    mask = patterns.mask
    overrides = single_defect_overrides(netlist, patterns, defect, base_values)
    if overrides is not None:
        ctx = active_context(netlist, patterns, base_values)
        if ctx is None:
            return resim_output_diff(netlist, base_values, overrides, mask)
        if len(overrides) == 1:
            return ctx.critical_diff(*_lone_override(netlist, overrides, base_values))
        return dict(ctx.resim_diff(overrides))
    faulty = FaultyCircuit(netlist, [defect]).simulate_outputs(patterns)
    diff: dict[str, int] = {}
    for net in netlist.outputs:
        delta = (faulty[net] ^ base_values[net]) & mask
        if delta:
            diff[net] = delta
    return diff


def detect_vector(
    netlist: Netlist,
    patterns: PatternSet,
    defect: Defect,
    base_values: Mapping[str, int] | None = None,
) -> int:
    """Bit vector of patterns that detect ``defect`` on any output.

    A defect overriding a single site is answered on the shared context,
    when it serves ``base_values``, by critical path tracing
    (:meth:`SimContext.critical <repro.sim.cache.SimContext.critical>`):
    the patterns where the override differs from the fault-free value and
    complementing the site reaches an output.
    """
    if base_values is None:
        base_values = sim_context(netlist, patterns).base
    overrides = single_defect_overrides(netlist, patterns, defect, base_values)
    if overrides is not None and len(overrides) == 1:
        ctx = active_context(netlist, patterns, base_values)
        if ctx is not None:
            return ctx.critical(*_lone_override(netlist, overrides, base_values))
    vec = 0
    for delta in defect_output_diff(netlist, patterns, defect, base_values).values():
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
    base_values = sim_context(netlist, patterns).base
    result = FaultCoverageResult()
    for fault in faults:
        try:
            vec = detect_vector(netlist, patterns, fault, base_values)
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
