"""Multiplet covering: choosing site sets that explain every failure.

Finding a minimum set of sites whose joint X reach covers all observed
fail atoms is a set-cover instance, NP-hard in general.  The production
path is a context-aware greedy: the marginal gain of a site is evaluated
*jointly with the already chosen sites*, which is essential because X
reach is super-additive under masking (two interacting defects can each
have zero individual reach on an atom that their combination covers).
When the greedy stalls with uncovered atoms, a bounded *pair rescue*
searches two-site combinations -- the smallest units able to break a
masking deadlock.  The final solution is pruned to (inclusion-)minimality,
which the monotonicity of joint X reach makes sound.

For small instances :func:`enumerate_min_covers` exhaustively finds all
minimum-cardinality covers; it is the optimality reference of ablation B
and the resolution statistic of the small-circuit experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from repro.circuit.netlist import Site
from repro.core.budget import CAUSE_CHECKS, CAUSE_MULTIPLETS, Budget
from repro.core.pertest import PerTestAnalysis, pair_search
from repro.core.xcover import Atom, XCoverAnalysis

#: The most sites a multiplet may hold, in every cover search: the greedy
#: covers and the exact engine's cardinality sweep stop there.
MAX_MULTIPLET_SIZE = 6
#: How many candidates the minimum-cover enumerations combine.
ENUMERATION_POOL = 18
#: The size up to which the minimum-cover enumerations look for covers
#: (the pertest pipeline raises it to the greedy solution's size).
ENUMERATION_DEPTH = 3


@dataclass(frozen=True)
class CoverSolution:
    """Outcome of the covering stage."""

    sites: tuple[Site, ...]
    covered: frozenset[Atom]
    uncovered: frozenset[Atom]
    joint_evaluations: int = 0  #: number of joint X simulations spent

    @property
    def complete(self) -> bool:
        return not self.uncovered


def greedy_cover(
    xc: XCoverAnalysis,
    top_k: int = 24,
    rescue_pair_cap: int = 400,
    budget: Budget | None = None,
) -> CoverSolution:
    """Context-aware greedy joint cover of all observed fail atoms.

    Under a ``budget`` every joint X simulation charges one expansion and
    the growth loop is checked per pick (after the first, so a failing
    device always gets at least one explaining site when one exists); on
    exhaustion the sites chosen so far are minimized and returned with a
    ``cover`` truncation recorded.
    """
    atoms = xc.atoms
    chosen: list[Site] = []
    covered: frozenset[Atom] = frozenset()
    evaluations = 0

    while covered != atoms and len(chosen) < MAX_MULTIPLET_SIZE:
        if (
            budget is not None
            and chosen
            and budget.stop("cover", len(chosen), MAX_MULTIPLET_SIZE)
        ):
            break
        uncovered = atoms - covered
        # Cheap ranking by context-free individual reach on uncovered atoms.
        ranked = sorted(
            (s for s in xc.sites if s not in chosen),
            key=lambda s: len(xc.atoms_of(s) & uncovered),
            reverse=True,
        )
        best_site: Site | None = None
        best_cov: frozenset[Atom] = covered
        if not chosen:
            # First pick: individual reach is exact; no joint sims needed.
            if ranked and xc.atoms_of(ranked[0]) & uncovered:
                best_site = ranked[0]
                best_cov = covered | xc.atoms_of(ranked[0])
        else:
            for site in ranked[:top_k]:
                joint = xc.joint_covered_atoms([*chosen, site])
                evaluations += 1
                if budget is not None:
                    budget.charge()
                if len(joint) > len(best_cov):
                    best_site, best_cov = site, joint
                if best_cov == atoms:
                    break
                if budget is not None and budget.exceeded():
                    break
        if best_site is not None and len(best_cov) > len(covered):
            chosen.append(best_site)
            covered = best_cov
            continue

        # Greedy stalled: masking deadlock or genuinely unexplainable residue.
        if len(chosen) + 2 <= MAX_MULTIPLET_SIZE:
            pair, pair_cov, spent = _pair_rescue(
                xc, chosen, covered, uncovered, rescue_pair_cap, budget
            )
            evaluations += spent
            if pair is not None:
                chosen.extend(pair)
                covered = pair_cov
                continue
        break

    chosen = _minimize(xc, chosen, covered)
    if chosen:
        covered = xc.joint_covered_atoms(chosen)
        evaluations += 1
        if budget is not None:
            budget.charge()
    else:
        covered = frozenset()
    return CoverSolution(
        sites=tuple(chosen),
        covered=covered,
        uncovered=atoms - covered,
        joint_evaluations=evaluations,
    )


def _pair_rescue(
    xc: XCoverAnalysis,
    chosen: list[Site],
    covered: frozenset[Atom],
    uncovered: frozenset[Atom],
    cap: int,
    budget: Budget | None = None,
) -> tuple[tuple[Site, Site] | None, frozenset[Atom], int]:
    """Search site pairs that jointly unlock masked uncovered atoms."""
    # Restrict to sites structurally upstream of some uncovered output.
    outputs = {out for _idx, out in uncovered}
    cone = xc.netlist.fanin_cone(outputs)
    pool = [s for s in xc.sites if s not in chosen and s.net in cone]
    # Prefer sites structurally close to the uncovered outputs.
    pool.sort(key=lambda s: -xc.netlist.level(s.net))
    spent = 0
    best: tuple[Site, Site] | None = None
    best_cov = covered
    for a, b in combinations(pool, 2):
        if spent >= cap:
            break
        if budget is not None:
            if spent and budget.exceeded():
                break
            budget.charge()
        joint = xc.joint_covered_atoms([*chosen, a, b])
        spent += 1
        if len(joint) > len(best_cov):
            best, best_cov = (a, b), joint
            if best_cov == xc.atoms:
                break
    return best, best_cov, spent


def _minimize(
    xc: XCoverAnalysis, sites: list[Site], covered: frozenset[Atom]
) -> list[Site]:
    """Drop redundant sites while preserving joint coverage (sound by
    monotonicity of joint X reach)."""
    result = list(sites)
    for site in list(sites):
        if len(result) <= 1:
            break
        trial = [s for s in result if s != site]
        if xc.joint_covered_atoms(trial) >= covered:
            result = trial
    return result


def _sweep_min_covers(
    pool: Sequence[Site],
    covers: Callable[[tuple[Site, ...]], bool],
    max_size: int,
    max_checks: int,
    budget: Budget | None,
) -> list[tuple[Site, ...]]:
    """Every combination of ``pool`` that ``covers`` accepts, at the
    smallest size that has one.

    Sizes ascend from 1 to ``max_size``; the first size with an accepted
    combination ends the sweep.  ``max_checks`` bounds the combinations
    tried.  A :class:`Budget` charges one expansion per combination,
    deadline/expansion exhaustion ends the sweep with the covers found so
    far, and the multiplet ceiling caps how many tying covers are
    collected; ``max_checks`` and the ceiling are recorded as ``cover``
    truncations.
    """
    checks = 0
    for size in range(1, max_size + 1):
        solutions: list[tuple[Site, ...]] = []
        for combo in combinations(pool, size):
            checks += 1
            if checks > max_checks:
                if budget is not None:
                    budget.record("cover", CAUSE_CHECKS, max_checks, max_checks)
                return solutions
            if budget is not None:
                if checks > 1 and budget.stop("cover", checks - 1, max_checks):
                    return solutions
                if budget.multiplets_exhausted(len(solutions)):
                    budget.record(
                        "cover",
                        CAUSE_MULTIPLETS,
                        len(solutions),
                        budget.max_multiplets or 0,
                    )
                    return solutions
                budget.charge()
            if covers(combo):
                solutions.append(combo)
        if solutions:
            return solutions
    return []


def enumerate_min_covers(
    xc: XCoverAnalysis,
    max_size: int = ENUMERATION_DEPTH,
    max_checks: int = 20000,
    budget: Budget | None = None,
) -> list[tuple[Site, ...]]:
    """All minimum-cardinality covers over the most promising candidates.

    Candidates are the :data:`ENUMERATION_POOL` sites with the largest
    individual reach.  Sizes are explored in increasing order; the first
    size with a complete cover wins and *all* covers of that size are
    returned (the diagnosis resolution statistic).  Returns an empty list
    when the check budget is exhausted without a complete cover.  A
    combination covers when the union of its members' reaches is every
    atom (the only test at size 1, where reach is exact), else when its
    joint X reach is.
    ``max_checks`` and a :class:`Budget` bound the sweep as in
    :func:`_sweep_min_covers`.
    """
    atoms = xc.atoms
    if not atoms:
        return []
    pool = sorted(
        (s for s in xc.sites if xc.atoms_of(s)),
        key=lambda s: len(xc.atoms_of(s)),
        reverse=True,
    )[:ENUMERATION_POOL]

    def covers(combo: tuple[Site, ...]) -> bool:
        union = frozenset().union(*(xc.atoms_of(s) for s in combo))
        return union == atoms or (
            len(combo) > 1 and xc.joint_covered_atoms(combo) == atoms
        )

    return _sweep_min_covers(pool, covers, max_size, max_checks, budget)


# ---------------------------------------------------------------------------
# Exact per-test covering (the production engine)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerTestCoverSolution:
    """Outcome of the per-test covering stage: patterns are the atoms."""

    sites: tuple[Site, ...]
    explained: frozenset[int]
    unexplained: frozenset[int]
    #: sites appearing in *any* exact pair explanation found during the
    #: masking-rescue phase -- alternative locations that the enumeration
    #: stage must consider to report a faithful resolution.
    pair_candidates: tuple[Site, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.unexplained


def greedy_pertest_cover(
    analysis: PerTestAnalysis,
    max_size: int = MAX_MULTIPLET_SIZE,
    budget: Budget | None = None,
) -> PerTestCoverSolution:
    """Greedy multiplet construction under the exact per-test criterion.

    Phase 1 covers failing patterns with exact singleton explanations
    (classic weighted set cover).  Phase 2 handles the interacting-defect
    residue: patterns no single site can explain get a bounded joint-flip
    pair search, preferring pairs that reuse already chosen sites.  The
    result is pruned to inclusion-minimality, which is sound because
    subset-explainability is monotone in the multiplet.

    Under a ``budget`` both phases are checked per pick/pattern (after the
    first singleton pick, preserving the progress guarantee); exhaustion
    returns the minimized partial multiplet with a ``cover`` truncation
    recorded, leaving the unexplained residue honestly reported.
    """
    failing = set(analysis.datalog.failing_indices)
    chosen: list[Site] = []
    explained: set[int] = set()
    exhausted = False

    # Phase 1: singleton exact matches.
    while explained != failing and len(chosen) < max_size:
        if (
            budget is not None
            and chosen
            and budget.stop("cover", len(chosen), max_size)
        ):
            exhausted = True
            break
        # A chosen site's patterns are all explained (explainability is
        # monotone in the multiplet), so it gains nothing here.
        best = analysis.evidence.best_explainer(
            sum(1 << idx for idx in failing - explained)
        )
        if best is None:
            break
        chosen.append(best)
        if budget is not None:
            budget.charge()
        explained = analysis.explained_patterns(chosen)

    # Phase 2: masking / joint-sensitization pairs for the residue.
    pair_candidates: list[Site] = []
    for nth, idx in enumerate(sorted(failing - explained)):
        if exhausted or len(chosen) >= max_size:
            break
        if (
            budget is not None
            and (chosen or nth)
            and budget.stop("cover", len(chosen), max_size)
        ):
            break
        if idx in explained:
            continue
        pairs = pair_search(analysis, idx, budget=budget)
        if not pairs:
            continue
        for pair in pairs:
            for site in pair:
                if site not in pair_candidates:
                    pair_candidates.append(site)
        # Prefer pairs reusing already chosen sites (smaller multiplet).
        pairs.sort(
            key=lambda p: (sum(1 for s in p if s not in chosen), str(p[0]), str(p[1]))
        )
        # Only take a pair that fits under the size cap: with one slot left
        # a pair of two new sites would overshoot max_size, so fall back to
        # a pair reusing a chosen site (one new site) or skip the pattern.
        room = max_size - len(chosen)
        fitting = next(
            (p for p in pairs if sum(1 for s in p if s not in chosen) <= room),
            None,
        )
        if fitting is None:
            continue
        for site in fitting:
            if site not in chosen:
                chosen.append(site)
        explained = analysis.explained_patterns(chosen)

    # Minimization.
    for site in list(chosen):
        if len(chosen) <= 1:
            break
        trial = [s for s in chosen if s != site]
        if analysis.explained_patterns(trial) >= explained:
            chosen = trial
    explained = analysis.explained_patterns(chosen) if chosen else set()

    return PerTestCoverSolution(
        sites=tuple(chosen),
        explained=frozenset(explained),
        unexplained=frozenset(failing - explained),
        pair_candidates=tuple(pair_candidates),
    )


def enumerate_pertest_min_covers(
    analysis: PerTestAnalysis,
    seed_sites: tuple[Site, ...] = (),
    max_size: int = ENUMERATION_DEPTH,
    max_checks: int = 4000,
    budget: Budget | None = None,
) -> list[tuple[Site, ...]]:
    """All minimum-cardinality per-test covers over a pool of
    :data:`ENUMERATION_POOL` sites.

    The pool unions the greedy solution (``seed_sites``), every exact
    singleton explainer, and the sites with the largest partial evidence;
    combinations are verified with the exact subset-flip criterion (joint
    diffs are cached inside the analysis, so repeated subsets are free).
    Only complete covers are returned; the first cardinality with any
    complete cover defines the minimum.  ``max_checks`` and a
    :class:`Budget` bound the sweep as in :func:`_sweep_min_covers`.
    """
    failing = set(analysis.datalog.failing_indices)
    if not failing:
        return []
    # Pool priority: greedy solution, then singleton explainers by frequency,
    # then the remaining seeds (pair-rescue participants), then best partials.
    # ``pooled`` mirrors ``pool`` for membership tests; the list keeps the
    # order, and any duplicate among the leading seeds.
    evidence = analysis.evidence
    pool: list[Site] = list(seed_sites[: ENUMERATION_POOL // 3])
    pooled = set(pool)
    for site in evidence.by_frequency():
        if site not in pooled:
            pool.append(site)
            pooled.add(site)
    for site in seed_sites:
        if site not in pooled:
            pool.append(site)
            pooled.add(site)
    if len(pool) < ENUMERATION_POOL:
        by_partial = sorted(
            (s for s in analysis.sites if s not in pooled), key=evidence.key
        )
        pool.extend(by_partial[: ENUMERATION_POOL - len(pool)])
    pool = pool[:ENUMERATION_POOL]

    return _sweep_min_covers(
        pool,
        lambda combo: analysis.explained_patterns(combo) == failing,
        max_size,
        max_checks,
        budget,
    )
