"""Adaptive diagnosis: distinguishing-pattern generation.

The paper's natural extension (and the standard industrial follow-up):
when diagnosis leaves several equivalent candidates, generate *extra*
patterns that tell them apart, re-test the device, and re-diagnose with
the enriched datalog.  A pattern distinguishes sites ``a`` and ``b`` when
their single-flip output signatures differ under it -- then the device's
actual response is consistent with at most one of them.

Pattern search is simulation-driven: batches of random patterns are
flip-simulated for both candidates bit-parallel, and the first
distinguishing position is kept.  (A PODEM-style targeted search is
possible but rarely needed -- distinguishability is common under random
stimuli, and the search reports the sites as *indistinguishable* only
after a configurable effort.)

The :func:`adaptive_diagnose` loop drives a full closed-loop session
against any device oracle (e.g. a :class:`~repro.faults.injection.FaultyCircuit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro._rng import make_rng
from repro.circuit.netlist import Netlist, Site
from repro.core.diagnose import DiagnosisConfig, Diagnoser
from repro.core.report import DiagnosisReport
from repro.sim.cache import SimContext, sim_context
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog

#: Device oracle: given patterns, return per-output response vectors.
DeviceOracle = Callable[[PatternSet], Mapping[str, int]]


def distinguishing_pattern(
    netlist: Netlist,
    site_a: Site,
    site_b: Site,
    seed: int = 0,
    batch: int = 64,
    max_batches: int = 32,
) -> dict[str, int] | None:
    """A pattern under which the two sites' flip signatures differ.

    Returns a full input assignment, or None when ``max_batches * batch``
    random patterns found no difference (the sites are then treated as
    equivalent at this test-generation effort).
    """
    rng = make_rng(seed)
    for _ in range(max_batches):
        patterns = PatternSet.random(netlist, batch, rng)
        # Each batch is tried once: an unregistered context, so the search
        # never evicts a context a die still holds.
        ctx = SimContext(netlist, patterns)
        sig_a = ctx.flip_signature(site_a)
        sig_b = ctx.flip_signature(site_b)
        difference = 0
        for out in set(sig_a) | set(sig_b):
            difference |= sig_a.get(out, 0) ^ sig_b.get(out, 0)
        if difference:
            index = (difference & -difference).bit_length() - 1
            return patterns.pattern(index)
    return None


@dataclass
class AdaptiveResult:
    """Outcome of a closed-loop adaptive diagnosis session."""

    report: DiagnosisReport
    rounds: int
    patterns_added: int
    initial_resolution: int

    @property
    def final_resolution(self) -> int:
        return self.report.resolution


def adaptive_diagnose(
    netlist: Netlist,
    patterns: PatternSet,
    device: DeviceOracle,
    target_resolution: int = 4,
    max_rounds: int = 4,
    patterns_per_round: int = 8,
    seed: int = 0,
    config: DiagnosisConfig | None = None,
) -> AdaptiveResult:
    """Closed-loop diagnosis: diagnose, distinguish, re-test, repeat.

    ``device`` is the only window onto the defective part (it is called
    again for every round's extra patterns, like re-inserting the die on
    the tester).  The loop stops when the candidate list is at most
    ``target_resolution`` sites, when no distinguishing pattern can be
    found, or after ``max_rounds``.
    """
    rng = make_rng(seed)
    diagnoser = Diagnoser(netlist, config)
    diff = sim_context(netlist, patterns).output_diff(device(patterns))
    datalog = Datalog.from_output_diff(netlist.name, patterns.n, diff)
    report = diagnoser.diagnose(patterns, datalog)
    initial_resolution = report.resolution
    best_report = report
    added = 0

    round_index = -1
    for round_index in range(max_rounds):
        if report.resolution <= target_resolution or not report.candidates:
            break
        # Pick pattern targets: split the top candidates pairwise.
        suspects = [c.site for c in report.candidates]
        new_vectors: list[dict[str, int]] = []
        for a, b in zip(suspects, suspects[1:]):
            if len(new_vectors) >= patterns_per_round:
                break
            vector = distinguishing_pattern(
                netlist, a, b, seed=rng.getrandbits(32), max_batches=8
            )
            if vector is not None:
                new_vectors.append(vector)
        if not new_vectors:
            break
        extra = PatternSet.from_vectors(netlist.inputs, new_vectors)
        patterns = patterns.concat(extra)
        added += extra.n

        diff = sim_context(netlist, patterns).output_diff(device(patterns))
        datalog = Datalog.from_output_diff(netlist.name, patterns.n, diff)
        report = diagnoser.diagnose(patterns, datalog)
        # New failing patterns can surface fresh equivalents; the session's
        # answer is the sharpest complete report seen, not merely the last.
        if report.resolution <= best_report.resolution:
            best_report = report

    rounds_used = round_index + 1 if added else 0
    return AdaptiveResult(
        report=best_report,
        rounds=rounds_used,
        patterns_added=added,
        initial_resolution=initial_resolution,
    )
