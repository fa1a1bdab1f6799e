"""Exact per-test (per-failing-pattern) explanation analysis.

The observation that makes assumption-free diagnosis *exact* at gate
level: under any defect mechanism whatsoever, a candidate site carries,
for each pattern, either its fault-free value or the complement.  The
whole faulty circuit at pattern ``t`` is therefore the fault-free circuit
with every defect site *overridden*: each site in the multiplet either
flipped or **pinned at its fault-free value**.  Pinning matters -- a
defect site whose faulty value happens to equal the fault-free one still
blocks error propagation from an upstream defect through it (e.g. a
stuck-at-0 net that the other defect would have driven to 1).

Hence a multiplet ``M`` explains failing pattern ``t`` **iff some
assignment (flip / pin per site of M) reproduces exactly the observed
failing outputs of t** -- no fault model enters the criterion.  This
subsumes and sharpens SLAT: SLAT additionally demands a singleton whose
flips come from one stuck-at value across patterns.

Everything here is bit-parallel on the test set's pattern-index axis (bit
``i`` is pattern ``i``).  What a flip or a flip/pin assignment does at
the outputs depends only on the circuit and the test set, never on the
die, so every single-site flip and joint resimulation is answered by the
shared :func:`~repro.sim.cache.sim_context` of ``(netlist, patterns)``:
a die whose circuit and test set an earlier die already used reads the
earlier die's flips from the memo instead of simulating them.  Each
returned diff is masked to the die's failing patterns -- passing patterns
carry no per-test information (every multiplet trivially "explains" them
with the all-pins assignment), and patterns simulate independently, so
the masked diff is exactly what simulating the failing patterns alone
would give.

Relationship to the X-cover stage: X injection is the sound
over-approximation (necessary condition) used to prune the candidate
space and bound masking-pair searches; the assignment check is the exact
verifier used for covering, enumeration and ranking.  Ablation A measures
the gap between diagnosing with the envelope alone versus with exact
verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from repro.circuit.netlist import Netlist, Site
from repro.core.budget import Budget
from repro.core.xcover import Atom
from repro.sim.cache import SimContext, sim_context
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog


def _masked(diff: Mapping[str, int], mask: int) -> dict[str, int]:
    """``diff`` restricted to the patterns in ``mask`` (empty outputs dropped)."""
    return {out: vec & mask for out, vec in diff.items() if vec & mask}


def _match_vector(
    diff: Mapping[str, int],
    obs_vec: Mapping[str, int],
    x_vec: Mapping[str, int],
    mask: int,
) -> int:
    """Patterns in ``mask`` where ``diff`` reproduces the observed failure exactly.

    Bit ``i`` is set iff the assignment's predicted flips (X-tier strobes
    excluded) equal the observed failing outputs of pattern ``i`` and are
    non-empty.  One pass of integer ops over the output alphabet replaces
    a per-pattern set comparison -- the inner loop of cover verification.
    """
    match = mask
    pred_any = 0
    for out, obs in obs_vec.items():
        pred = diff.get(out, 0) & ~x_vec.get(out, 0)
        match &= ~(pred ^ obs)
        pred_any |= pred
    for out, vec in diff.items():
        if out not in obs_vec:
            # Predicted flip on a never-failing output: disqualifies the
            # pattern unless the strobe is X-tier (evidence-free).
            pred = vec & ~x_vec.get(out, 0)
            match &= ~pred
            pred_any |= pred
    return match & pred_any


@dataclass
class PerTestAnalysis:
    """Single-flip effects of every candidate site plus joint-flip services.

    Every diff vector is on the test set's pattern-index axis, masked to
    the datalog's failing patterns.
    """

    netlist: Netlist
    patterns: PatternSet  #: the full applied test set
    datalog: Datalog
    sites: tuple[Site, ...]
    atoms: frozenset[Atom]
    site_atoms: dict[Site, frozenset[Atom]]
    #: failing pattern -> sites whose lone flip reproduces it
    exact_singletons: dict[int, tuple[Site, ...]]
    #: per-site per-output flip diffs, masked to the failing patterns
    flip_diff: dict[Site, dict[str, int]]
    #: the shared context of ``(netlist, patterns)``: every flip and joint
    #: resimulation is read from its memo, across dies as well as stages
    _ctx: SimContext
    #: bit ``i`` set iff pattern ``i`` failed
    _fail_mask: int
    #: observed failing (resp. X-tier) strobes of the failing patterns as
    #: per-output vectors, for bit-parallel exact matching
    _obs_vec: dict[str, int] = field(default_factory=dict)
    _x_vec: dict[str, int] = field(default_factory=dict)
    #: (flips, pins) -> masked per-output diff cache
    _joint_cache: dict[
        tuple[frozenset[Site], frozenset[Site]], dict[str, int]
    ] = field(default_factory=dict)

    # -- single-site queries ---------------------------------------------------

    def atoms_of(self, site: Site) -> frozenset[Atom]:
        """Observed fail atoms that flipping ``site`` reproduces."""
        return self.site_atoms.get(site, frozenset())

    def diff_at(self, site: Site, pattern_index: int) -> frozenset[str]:
        """Outputs flipped by inverting ``site`` under one failing pattern."""
        diff = self.flip_diff.get(site)
        if diff is None:
            diff = self.assignment_diff((site,))
        return frozenset(
            out for out, vec in diff.items() if (vec >> pattern_index) & 1
        )

    def exact_match(self, site: Site, pattern_index: int) -> bool:
        return site in self.exact_singletons.get(pattern_index, ())

    # -- joint queries ---------------------------------------------------------------

    def assignment_diff(
        self, flips: Iterable[Site], pins: Iterable[Site] = ()
    ) -> dict[str, int]:
        """Per-output diff of flipping ``flips`` / pinning ``pins``, masked
        to the failing patterns.

        Pinned sites are overridden at their fault-free values, modeling a
        defect site that agrees with the healthy value but still dominates
        its node (blocking propagation from other defects).  A pin outside
        the flips' combined fanout cone can never be disturbed and is
        dropped, which normalizes the cache key -- the reuse this buys
        across multiplet-enumeration combos is what keeps exact
        enumeration tractable.  Cached by the normalized (flips, pins).
        """
        flip_key = frozenset(flips)
        pin_key = frozenset(pins) - flip_key
        if pin_key and flip_key:
            affected = self.netlist.fanout_cone(site.net for site in flip_key)
            pin_key = frozenset(s for s in pin_key if s.net in affected)
        key = (flip_key, pin_key)
        cached = self._joint_cache.get(key)
        if cached is not None:
            return cached
        if not flip_key:
            result: dict[str, int] = {}
        else:
            base, mask = self._ctx.base, self._ctx.mask
            overrides = {site: (base[site.net] ^ mask) & mask for site in flip_key}
            for site in pin_key:
                overrides[site] = base[site.net]
            result = _masked(self._ctx.resim_diff(overrides), self._fail_mask)
        self._joint_cache[key] = result
        return result

    def joint_flip_diff(self, sites: Iterable[Site]) -> dict[str, int]:
        """Masked per-output diff of flipping all ``sites`` (no pins)."""
        return self.assignment_diff(sites)

    def subset_explains(self, subset: Sequence[Site], pattern_index: int) -> bool:
        """Does the multiplet ``subset`` explain pattern ``t`` exactly?

        Tries every flip/pin assignment over the subset's sites.  X-tier
        strobes of the pattern carry no evidence, so predicted flips
        there neither help nor disqualify a match.
        """
        bit = self._fail_mask & (1 << pattern_index)
        sites = list(dict.fromkeys(subset))
        for r in range(1, len(sites) + 1):
            for flips in combinations(sites, r):
                diff = self.assignment_diff(flips, sites)
                if _match_vector(diff, self._obs_vec, self._x_vec, bit):
                    return True
        return False

    def explained_patterns(
        self, multiplet: Sequence[Site], max_flips: int | None = None
    ) -> set[int]:
        """Failing patterns explained by some flip/pin assignment of the
        multiplet.

        Enumerates flip sets by increasing size with the remaining sites
        pinned; each assignment costs one bit-parallel resimulation, cached
        across calls and across dies.
        """
        sites = list(dict.fromkeys(multiplet))
        limit = len(sites) if max_flips is None else min(max_flips, len(sites))
        remaining = self._fail_mask
        explained: set[int] = set()
        for size in range(1, limit + 1):
            if not remaining:
                break
            for flips in combinations(sites, size):
                if not remaining:
                    break
                diff = self.assignment_diff(flips, sites)
                hits = _match_vector(diff, self._obs_vec, self._x_vec, remaining)
                remaining &= ~hits
                while hits:
                    low = hits & -hits
                    explained.add(low.bit_length() - 1)
                    hits ^= low
        return explained

    def explains_all(self, multiplet: Sequence[Site]) -> bool:
        return self.explained_patterns(multiplet) == set(self.datalog.failing_indices)


def build_pertest(
    netlist: Netlist,
    patterns: PatternSet,
    datalog: Datalog,
    sites: Sequence[Site],
    base_values: Mapping[str, int] | None = None,
    budget: Budget | None = None,
) -> PerTestAnalysis:
    """Compute single-flip effects and exact singleton matches for ``sites``.

    ``base_values`` (full-test-set fault-free values) is accepted for API
    symmetry; the flips are read from the shared context's own base.

    Under a ``budget`` the single-flip sweep is checked per site (each
    costs at most one cone-restricted resimulation, charged as one
    expansion); on exhaustion the analysis covers only the sites swept so
    far and a ``pertest`` truncation is recorded.
    """
    del base_values
    ctx = sim_context(netlist, patterns)
    failing = datalog.failing_indices
    fail_mask = sum(1 << idx for idx in failing)
    atoms = frozenset(datalog.fail_atoms())
    obs_vec = datalog.observed_diff(netlist.outputs)
    x_vec = datalog.fail_x_vectors()

    flip_diff: dict[Site, dict[str, int]] = {}
    site_atoms: dict[Site, frozenset[Atom]] = {}
    exact: dict[int, list[Site]] = {idx: [] for idx in failing}
    #: flip-response signature -> (first site seen, patterns it matched)
    sig_seen: dict[tuple, tuple[Site, tuple[int, ...]]] = {}
    sites = list(sites)
    for done, site in enumerate(sites):
        if (
            budget is not None
            and done
            and budget.stop("pertest", done, len(sites))
        ):
            sites = sites[:done]
            break
        if budget is not None:
            # Charged per site regardless of memo warmth, so anytime
            # truncation points stay deterministic across cache states.
            budget.charge()
        diff = _masked(ctx.flip_signature(site), fail_mask)
        flip_diff[site] = diff
        # Response-signature dedup: a site whose flip leaves the same
        # output signature as an earlier one is behaviorally equivalent on
        # this evidence -- reuse the derived atoms and exact matches
        # instead of re-walking the failing patterns.
        signature = tuple(sorted(diff.items()))
        twin = sig_seen.get(signature)
        if twin is not None:
            twin_site, matched = twin
            site_atoms[site] = site_atoms[twin_site]
            for idx in matched:
                exact[idx].append(site)
            continue
        covered: set[Atom] = set()
        matched_here: list[int] = []
        hits = _match_vector(diff, obs_vec, x_vec, fail_mask)
        while hits:
            low = hits & -hits
            idx = low.bit_length() - 1
            exact[idx].append(site)
            matched_here.append(idx)
            hits ^= low
        for out, vec in diff.items():
            reproduced = vec & obs_vec.get(out, 0) & ~x_vec.get(out, 0)
            while reproduced:
                low = reproduced & -reproduced
                covered.add((low.bit_length() - 1, out))
                reproduced ^= low
        site_atoms[site] = frozenset(covered)
        sig_seen[signature] = (site, tuple(matched_here))

    analysis = PerTestAnalysis(
        netlist=netlist,
        patterns=patterns,
        datalog=datalog,
        sites=tuple(sites),
        atoms=atoms,
        site_atoms=site_atoms,
        exact_singletons={idx: tuple(v) for idx, v in exact.items()},
        flip_diff=flip_diff,
        _ctx=ctx,
        _fail_mask=fail_mask,
        _obs_vec=obs_vec,
        _x_vec=x_vec,
    )
    for site in sites:
        analysis._joint_cache[(frozenset((site,)), frozenset())] = flip_diff[site]
    return analysis


def pair_search(
    analysis: PerTestAnalysis,
    pattern_index: int,
    pool: Sequence[Site] | None = None,
    cap: int = 300,
    budget: Budget | None = None,
) -> list[tuple[Site, Site]]:
    """Site pairs whose joint assignment reproduces pattern ``t`` exactly.

    Used for failing patterns with no singleton explanation -- the
    signature of interacting defects (joint sensitization or masking).
    The pool defaults to candidate sites inside the fan-in cone of the
    pattern's failing outputs, ranked by single-flip overlap with the
    observed failures so that promising pairs are tried first.

    A ``budget`` bounds the pair sweep on top of ``cap``: each tried pair
    charges one expansion, and exhaustion ends the search with the matches
    found so far (the caller records the stage truncation).
    """
    observed = analysis.datalog.failing_outputs_of(pattern_index)
    if pool is None:
        cone = analysis.netlist.fanin_cone(observed)
        pool = [s for s in analysis.sites if s.net in cone]

    def overlap(site: Site) -> int:
        return len(analysis.diff_at(site, pattern_index) & observed)

    ranked = sorted(pool, key=overlap, reverse=True)
    matches: list[tuple[Site, Site]] = []
    tried = 0
    for a, b in combinations(ranked, 2):
        if tried >= cap:
            break
        if budget is not None:
            if tried and budget.exceeded():
                break
            budget.charge()
        tried += 1
        if analysis.subset_explains((a, b), pattern_index):
            matches.append((a, b))
    return matches
