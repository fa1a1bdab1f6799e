"""N-detect test generation.

An N-detect set observes every (collapsed) stuck-at fault through at
least N different patterns.  Its diagnostic value: each extra detection
of a fault tends to exercise a different sensitization context, which
separates candidates that a 1-detect set leaves tied -- the mechanism
behind the resolution-vs-N experiment (Figure 7).

Strategy: start from the compacted 1-detect set, then add random batches
keeping only patterns that raise some fault's detection count below the
target, finally aim PODEM (with varying don't-care fillers) at faults
still short of N.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro._bits import popcount
from repro._rng import make_rng
from repro.atpg.podem import Podem
from repro.atpg.random_gen import generate_stuck_at_tests
from repro.circuit.netlist import Netlist
from repro.faults.collapse import collapse_stuck_at
from repro.faults.models import Defect
from repro.sim.faultsim import fault_coverage
from repro.sim.patterns import PatternSet


@dataclass
class NDetectReport:
    """Outcome of N-detect generation."""

    patterns: PatternSet
    n_detect: int
    detect_counts: dict[Defect, int] = field(default_factory=dict)
    n_faults: int = 0
    n_meeting_target: int = 0

    @property
    def fraction_meeting_target(self) -> float:
        """Testable faults detected at least N times.

        May sit below 1.0 even after exhaustive effort: a fault with fewer
        than N *possible* detecting input vectors (e.g. a branch fault
        sensitizable by exactly one combination) is inherently capped --
        the standard N-detect caveat.
        """
        testable = sum(1 for c in self.detect_counts.values() if c > 0)
        return self.n_meeting_target / testable if testable else 1.0


def _detection_counts(netlist, patterns, faults):
    grading = fault_coverage(netlist, patterns, faults)
    return {
        fault: popcount(grading.detect_bits.get(fault, 0))
        for fault in faults
    }


def generate_ndetect_tests(
    netlist: Netlist,
    n_detect: int,
    seed: int | random.Random | None = None,
    random_batch: int = 32,
    max_random_batches: int = 20,
    max_podem_per_fault: int = 4,
) -> NDetectReport:
    """Grow a pattern set until every detectable fault is seen >= N times."""
    rng = make_rng(seed)
    base_report = generate_stuck_at_tests(netlist, seed=rng.getrandbits(32))
    patterns = base_report.patterns
    faults = list(collapse_stuck_at(netlist).representatives)
    counts = _detection_counts(netlist, patterns, faults)

    def deficient() -> list[Defect]:
        return [f for f in faults if 0 < counts[f] < n_detect]

    # Phase 1: random top-up, keeping patterns with marginal value.
    for _ in range(max_random_batches):
        if not deficient():
            break
        batch = PatternSet.random(netlist, random_batch, rng)
        grading = fault_coverage(netlist, batch, deficient())
        keep: set[int] = set()
        gains = dict(counts)
        for fault, bits in grading.detect_bits.items():
            vec = bits
            while vec and gains[fault] < n_detect:
                low = vec & -vec
                keep.add(low.bit_length() - 1)
                gains[fault] += 1
                vec ^= low
        if not keep:
            continue
        extra = batch.subset(sorted(keep))
        patterns = patterns.concat(extra).dedup()
        counts = _detection_counts(netlist, patterns, faults)

    # Phase 2: PODEM with different fillers for the stubborn remainder.
    for fault in list(deficient()):
        vectors = []
        for attempt in range(max_podem_per_fault):
            engine = Podem(netlist, max_backtracks=64, seed=rng.getrandbits(32))
            result = engine.generate(fault)  # type: ignore[arg-type]
            if result.success:
                vectors.append(result.pattern)
            if counts[fault] + len(vectors) >= n_detect:
                break
        if vectors:
            extra = PatternSet.from_vectors(netlist.inputs, vectors)
            patterns = patterns.concat(extra).dedup()
            counts = _detection_counts(netlist, patterns, faults)

    meeting = sum(1 for c in counts.values() if c >= n_detect)
    return NDetectReport(
        patterns=patterns,
        n_detect=n_detect,
        detect_counts=counts,
        n_faults=len(faults),
        n_meeting_target=meeting,
    )
