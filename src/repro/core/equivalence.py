"""Candidate indistinguishability classes.

Two candidate sites are *indistinguishable under a test set* when every
pattern's single-flip output signature is identical -- no response the
device could produce would ever separate them (an inverter's input and
output, a fanout-free chain, collapse-equivalent positions...).  Grouping
a diagnosis report by these classes gives the metric PFA actually cares
about: the number of *physically distinct places to look*, rather than
the raw candidate count.  It also feeds the adaptive flow: only
representatives of different classes are worth generating distinguishing
patterns for.

The signature equality is exact *with respect to the applied patterns*;
sites distinguishable only by patterns outside the set are (correctly)
grouped until such patterns are applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuit.netlist import Netlist, Site
from repro.core.report import Candidate, DiagnosisReport
from repro.sim.cache import sim_context
from repro.sim.patterns import PatternSet


def signature_classes(
    netlist: Netlist,
    patterns: PatternSet,
    sites: Sequence[Site],
) -> list[tuple[Site, ...]]:
    """Partition ``sites`` into indistinguishability classes.

    Classes are ordered by first appearance; members keep input order.
    """
    ctx = sim_context(netlist, patterns)
    groups: dict[frozenset, list[Site]] = {}
    order: list[frozenset] = []
    for site in sites:
        key = frozenset(ctx.flip_signature(site).items())
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(site)
    return [tuple(groups[key]) for key in order]


@dataclass(frozen=True)
class CandidateClass:
    """One indistinguishability class of a diagnosis report."""

    members: tuple[Candidate, ...]

    @property
    def representative(self) -> Candidate:
        return self.members[0]

    @property
    def sites(self) -> tuple[Site, ...]:
        return tuple(c.site for c in self.members)

    def describe(self) -> str:
        rep = self.representative
        extra = "" if len(self.members) == 1 else f" (+{len(self.members) - 1} equivalent)"
        return f"{rep.describe()}{extra}"


def group_candidates(
    netlist: Netlist,
    patterns: PatternSet,
    report: DiagnosisReport,
) -> list[CandidateClass]:
    """Group a report's candidates into indistinguishability classes.

    Class order follows the report's candidate ranking (a class ranks at
    its best member's position).
    """
    ctx = sim_context(netlist, patterns)
    by_signature: dict[frozenset, list[Candidate]] = {}
    order: list[frozenset] = []
    for candidate in report.candidates:
        key = frozenset(ctx.flip_signature(candidate.site).items())
        if key not in by_signature:
            by_signature[key] = []
            order.append(key)
        by_signature[key].append(candidate)
    return [CandidateClass(tuple(by_signature[key])) for key in order]


def classed_resolution(
    netlist: Netlist,
    patterns: PatternSet,
    report: DiagnosisReport,
) -> int:
    """Number of physically distinct candidate classes (PFA work items)."""
    return len(group_candidates(netlist, patterns, report))
