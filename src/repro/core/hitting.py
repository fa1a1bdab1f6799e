"""Implicit-hitting-set exact cover engine over the per-test criterion.

The greedy/bounded search in :mod:`repro.core.cover` can silently miss the
true minimum cover.  This module upgrades the multiplet search to the
implicit-hitting-set (IHS) scheme of Ignatiev et al., *Model Based
Diagnosis of Multiple Observations with Implicit Hitting Sets*
(arXiv:1707.01972), specialized to the assumption-free per-test criterion:

- **Conflicts** are refuting site-sets.  For a failing pattern ``t`` the
  set ``K_t`` of candidate sites inside the fan-in cone of ``t``'s failing
  outputs is a *sound* conflict: any flip/pin assignment that reproduces
  ``t``'s failures exactly must flip at least one site whose corruption
  reaches those outputs, so every cover hits ``K_t``.  Soundness needs no
  monotonicity assumption -- it follows from ``_match_vector`` requiring a
  non-empty predicted flip on the observed failing outputs.
- **Candidates** are hitting sets of the conflicts collected so far,
  enumerated in increasing cardinality (bitmask subset tests over a ranked
  site pool); a candidate that misses a conflict is pruned without paying a
  verification.
- **Verification** is exact: :meth:`PerTestAnalysis.explained_patterns`
  tries every flip/pin assignment of the candidate.  A refuted candidate
  contributes the conflicts of its unexplained patterns, tightening the
  next round -- the "grow, verify, refute, repeat" loop of the IHS scheme.

Because conflicts only ever exclude non-covers, the first cardinality with
a verified cover is the provable minimum over the pool, and *all* tying
covers of that cardinality are collected (the resolution statistic).  The
engine is anytime: a :class:`Budget` charges one expansion per
verification, and exhaustion returns the covers found so far.

The :class:`HittingSetResult` carries an ``optimality`` status describing
the *cardinality claim* (orthogonal to the completeness verdict):

- ``optimal`` -- covers were found and every smaller cardinality was fully
  refuted over an untruncated pool: the cardinality is provably minimum.
  Tie collection may still have been cut short (a ``cover`` truncation on
  the budget records that), but the cardinality stands.
- ``bounded`` -- a structural bound limited the search without a proof:
  the pool was capped, the combination/verification ceiling interrupted a
  sweep before any cover was found, or no cover exists within
  ``max_size`` sites of the pool.
- ``budget`` -- the :class:`Budget` (deadline, expansions, cancellation)
  stopped the search before any cover was verified at the current
  cardinality; the caller should fall back to its greedy incumbent.

Pool caveat (documented in ``docs/limitations.md``): the pool is the union
of the caller's seed sites and every candidate site inside some failing
pattern's fan-in cone.  Flipped sites of any explanation necessarily live
there, but a *pin-only* site (blocking a spurious flip on a never-failing
output) can lie outside it; ``optimal`` is therefore minimality over this
structural pool, the same candidate space the greedy engine and the
reference enumeration search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from repro.circuit.netlist import Site
from repro.core.budget import (
    CAUSE_CHECKS,
    CAUSE_MULTIPLETS,
    OPTIMALITY_BOUNDED,
    OPTIMALITY_BUDGET,
    OPTIMALITY_OPTIMAL,
    Budget,
)
from repro.core.cover import MAX_MULTIPLET_SIZE
from repro.core.pertest import PerTestAnalysis


@dataclass(frozen=True)
class HittingSetResult:
    """Outcome of one implicit-hitting-set search.

    ``covers`` holds every verified cover of the winning cardinality (all
    of them when the search completed, a prefix when truncated);
    ``conflicts`` / ``verifications`` count the refuting site-sets grown
    and the exact checks spent, ``pool_size`` the candidate sites
    enumerated over.
    """

    covers: tuple[tuple[Site, ...], ...]
    optimality: str
    cardinality: int
    conflicts: int = 0
    verifications: int = 0
    pool_size: int = 0


def conflict_pool(
    analysis: PerTestAnalysis, seed_sites: Sequence[Site] = ()
) -> list[Site]:
    """The structural candidate pool of the failing patterns: seeds first,
    then every analysis site, in :class:`~repro.core.pertest.Evidence`
    order (its reproduced fail atoms, then its name).

    Every analysis site lies inside some failing pattern's failing-output
    fan-in cone: the envelope is the union of those cones' sites (a
    branch enters it only when its reading gate, and so its net, is in
    such a cone), and a budget cut only shrinks it."""
    ranked = sorted(analysis.sites, key=analysis.evidence.key)
    swept = set(analysis.sites)
    pool = [s for s in dict.fromkeys(seed_sites) if s in swept]
    seen = set(pool)
    pool.extend(s for s in ranked if s not in seen)
    return pool


def hitting_set_cover(
    analysis: PerTestAnalysis,
    seed_sites: Sequence[Site] = (),
    incumbent: Sequence[Site] | None = None,
    max_size: int = MAX_MULTIPLET_SIZE,
    pool_cap: int = 384,
    max_verifications: int = 20_000,
    max_combos: int = 500_000,
    budget: Budget | None = None,
) -> HittingSetResult:
    """All minimum-cardinality covers of the failing patterns by implicit
    hitting sets.

    ``incumbent`` (typically the greedy solution, when complete) upper
    bounds the cardinality sweep: the search never explores sizes beyond
    it, and at its size the incumbent itself is re-verified among the
    candidates.  ``max_combos`` bounds candidate *generation* (cheap
    bitmask tests) and ``max_verifications`` bounds exact checks, mirroring
    the ``max_checks`` discipline of the reference enumeration; a
    :class:`Budget` additionally meters one expansion per verification.
    """
    failing_set = set(analysis.datalog.failing_indices)
    if not failing_set:
        return HittingSetResult((), OPTIMALITY_OPTIMAL, 0)

    pool = conflict_pool(analysis, seed_sites)
    bounded_pool = len(pool) > pool_cap
    pool = pool[:pool_cap]
    site_bit = {site: 1 << i for i, site in enumerate(pool)}

    # Per-pattern conflict masks: the pool sites inside the pattern's
    # failing-output fan-in cone.  Cheap to precompute; *activated* lazily
    # by refutations so pruning reflects only conflicts the search earned.
    pattern_mask: dict[int, int] = {}
    for idx in sorted(failing_set):
        cone = analysis.netlist.fanin_cone(analysis.datalog.failing_outputs_of(idx))
        pattern_mask[idx] = sum(bit for s, bit in site_bit.items() if s.net in cone)
    if any(mask == 0 for mask in pattern_mask.values()):
        # Some pattern has no candidate in the pool: no cover can exist
        # over this candidate space.
        return HittingSetResult((), OPTIMALITY_BOUNDED, 0, 0, 0, len(pool))

    upper = max_size
    if incumbent:
        upper = min(upper, len(tuple(dict.fromkeys(incumbent))))

    conflict_masks: list[int] = []
    active_masks: set[int] = set()
    verifications = 0
    combos_seen = 0

    def result(covers: list[tuple[Site, ...]], size: int, stopped: str | None):
        if covers:
            status = OPTIMALITY_BOUNDED if bounded_pool else OPTIMALITY_OPTIMAL
        elif stopped == "budget":
            status = OPTIMALITY_BUDGET
        else:
            status = OPTIMALITY_BOUNDED
        return HittingSetResult(
            covers=tuple(covers),
            optimality=status,
            cardinality=size if covers else 0,
            conflicts=len(conflict_masks),
            verifications=verifications,
            pool_size=len(pool),
        )

    for size in range(1, upper + 1):
        covers: list[tuple[Site, ...]] = []
        for combo in combinations(range(len(pool)), size):
            combos_seen += 1
            if combos_seen > max_combos:
                if budget is not None:
                    budget.record("cover", CAUSE_CHECKS, max_combos, max_combos)
                return result(covers, size, "checks")
            mask = 0
            for i in combo:
                mask |= 1 << i
            if any(not mask & c for c in conflict_masks):
                continue  # misses a known conflict: cannot be a cover
            if budget is not None:
                if verifications and budget.stop("cover", verifications, 0):
                    return result(covers, size, "budget")
                if budget.multiplets_exhausted(len(covers)):
                    budget.record(
                        "cover",
                        CAUSE_MULTIPLETS,
                        len(covers),
                        budget.max_multiplets or 0,
                    )
                    return result(covers, size, "multiplets")
                budget.charge()
            if verifications >= max_verifications:
                if budget is not None:
                    budget.record(
                        "cover", CAUSE_CHECKS, verifications, max_verifications
                    )
                return result(covers, size, "checks")
            candidate = tuple(pool[i] for i in combo)
            explained = analysis.explained_patterns(candidate)
            verifications += 1
            missing = failing_set - explained
            if not missing:
                covers.append(candidate)
                continue
            # Refutation: activate the conflicts of every unexplained
            # pattern (dedup by mask -- cone-equivalent patterns share one).
            for idx in sorted(missing):
                cmask = pattern_mask[idx]
                if cmask not in active_masks:
                    active_masks.add(cmask)
                    conflict_masks.append(cmask)
        if covers:
            return result(covers, size, None)
    return result([], 0, None)
