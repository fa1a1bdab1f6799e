"""Random pattern generation with compaction and deterministic top-off.

The standard industrial recipe: flood the circuit with random patterns,
grade them by fault simulation, keep only patterns that contribute
coverage (greedy compaction), then aim PODEM at the random-resistant
remainder.  The resulting compact high-coverage sets drive every
reproduction experiment, mirroring the commercial-ATPG test sets used by
the original evaluation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro._rng import make_rng
from repro.atpg.podem import Podem
from repro.circuit.netlist import Netlist
from repro.faults.collapse import collapse_stuck_at
from repro.faults.models import Defect, StuckAtDefect
from repro.sim.faultsim import effective_pattern_order, fault_coverage
from repro.sim.patterns import PatternSet


#: Work bound of the PODEM top-off, in implications (gate evaluations of
#: the PODEM implication engine).  A fault reached once it is spent is
#: skipped, not attempted, so the report never depends on machine speed.
#: Nine times what the hungriest library circuit that never reaches it
#: needs (``rnd100``, 331k), and about 10 s of top-off on the heavily
#: redundant random DAGs (``rnd300``) on a 2-vCPU VM.
PODEM_WORK_BUDGET = 3_000_000


@dataclass
class AtpgReport:
    """Summary of a test generation run (feeds Table 1).

    ``n_detected + n_untestable + n_aborted + n_skipped == n_faults``:
    ``undetected`` lists the aborted faults, then the skipped ones.
    """

    patterns: PatternSet
    coverage: float
    n_faults: int
    n_detected: int
    n_untestable: int
    n_aborted: int
    collapse_ratio: float
    podem_patterns: int = 0
    random_patterns: int = 0
    undetected: list[Defect] = field(default_factory=list)
    #: Faults left unattempted once the top-off spent its work budget.
    n_skipped: int = 0
    #: Implications the PODEM top-off spent (see :data:`PODEM_WORK_BUDGET`).
    podem_work: int = 0


def generate_stuck_at_tests(
    netlist: Netlist,
    seed: int | random.Random | None = None,
    random_batch: int = 64,
    max_random_batches: int = 8,
    max_backtracks: int = 64,
    compact: bool = True,
) -> AtpgReport:
    """Generate a compacted stuck-at test set for ``netlist``.

    Random batches are added while they still improve coverage, then every
    remaining collapsed fault gets a PODEM attempt.  With ``compact`` the
    random phase is reduced to the greedy marginal-coverage prefix.

    ``max_backtracks`` is deliberately modest: random-resistant faults in
    heavily redundant logic (random DAGs especially) are usually
    *untestable*, and proving that is exponential; an abort only costs a
    little reported coverage.  :data:`PODEM_WORK_BUDGET` bounds the whole
    top-off; the faults it leaves are counted as skipped.

    Grading drops faults: each later random batch is graded only against
    the faults the pool still misses.  Compaction keeps every detected
    fault, so the misses are also the compacted pool's, and the final
    grading covers only them.
    """
    rng = make_rng(seed)
    collapsed = collapse_stuck_at(netlist)
    targets: list[Defect] = list(collapsed.representatives)

    pool = PatternSet.random(netlist, random_batch, rng)
    missed = fault_coverage(netlist, pool, targets).undetected
    for _ in range(max_random_batches - 1):
        if not missed:
            break
        extra = PatternSet.random(netlist, random_batch, rng)
        still = fault_coverage(netlist, extra, missed).undetected
        if len(still) == len(missed):
            break
        pool, missed = pool.concat(extra), still

    if compact:
        order = effective_pattern_order(netlist, pool, targets)
        pool = pool.subset(order)
    pool = pool.dedup()
    random_count = pool.n

    engine = Podem(netlist, max_backtracks=max_backtracks, seed=rng.getrandbits(32))
    spent = engine.implications
    podem_vectors = []
    n_untestable = 0
    aborted: list[Defect] = []
    skipped: list[Defect] = []
    for fault in missed:
        assert isinstance(fault, StuckAtDefect)
        if engine.implications - spent >= PODEM_WORK_BUDGET:
            skipped.append(fault)
            continue
        result = engine.generate(fault)
        if result.success:
            podem_vectors.append(result.pattern)
        elif result.status == "untestable":
            n_untestable += 1
        else:
            aborted.append(fault)

    n_detected = len(targets) - len(missed)
    if podem_vectors:
        extra = PatternSet.from_vectors(netlist.inputs, podem_vectors)
        pool = pool.concat(extra).dedup()
        caught = set(fault_coverage(netlist, pool, missed).detected)
        n_detected += len(caught)
        aborted = [f for f in aborted if f not in caught]
        skipped = [f for f in skipped if f not in caught]

    testable = len(targets) - n_untestable
    coverage = n_detected / testable if testable else 1.0
    return AtpgReport(
        patterns=pool,
        coverage=coverage,
        n_faults=len(targets),
        n_detected=n_detected,
        n_untestable=n_untestable,
        n_aborted=len(aborted),
        collapse_ratio=collapsed.collapse_ratio,
        podem_patterns=pool.n - random_count if pool.n > random_count else 0,
        random_patterns=random_count,
        undetected=aborted + skipped,
        n_skipped=len(skipped),
        podem_work=engine.implications - spent,
    )
