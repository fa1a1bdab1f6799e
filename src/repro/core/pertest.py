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
shared :func:`~repro.sim.cache.sim_context` of ``(netlist, patterns)``.
Its flip index holds every flip signature it has seen transposed
pattern-major, one bitset of sites per ``(pattern, output)`` strobe, so a
die's single-flip questions cost big-int operations over the strobes of
its failing patterns, not a pass over its candidates: the exact
singletons of failing pattern ``t`` are the candidates in every failing
output's bitset and in no other non-X output's, and the reproducers of a
fail atom are its strobe's bitset.  The candidates come as the die's
envelope, a bitset over the same site ids
(:func:`~repro.core.backtrace.candidate_sites`); a candidate the index
has not seen yet is flipped once, for every later die on the same
circuit and test set.  Joint diffs are masked to the die's failing
patterns -- passing patterns carry no per-test information (every
multiplet trivially "explains" them with the all-pins assignment), and
patterns simulate independently, so the masked diff is exactly what
simulating the failing patterns alone would give.

Relationship to the X-cover stage: X injection is the sound
over-approximation (necessary condition) used to prune the candidate
space and bound masking-pair searches; the assignment check is the exact
verifier used for covering, enumeration and ranking.  Ablation A measures
the gap between diagnosing with the envelope alone versus with exact
verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from repro._bits import popcount
from repro.circuit.netlist import Netlist, Site
from repro.core.budget import Budget
from repro.core.xcover import Atom
from repro.obs.trace import trace_span
from repro.sim.cache import FlipView, Reproducers, SimContext
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog

#: How many site pairs :func:`pair_search` tries for one failing pattern.
PAIR_CAP = 300


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
    """Single-flip answers for every candidate site plus joint-flip services.

    Every diff vector is on the test set's pattern-index axis, masked to
    the datalog's failing patterns.
    """

    netlist: Netlist
    patterns: PatternSet  #: the full applied test set
    datalog: Datalog
    sites: tuple[Site, ...]
    atoms: frozenset[Atom]
    #: the shared context of ``(netlist, patterns)``: every flip and joint
    #: resimulation is read from its memo, across dies as well as stages
    _ctx: SimContext
    #: the swept sites' window onto the context's flip index
    _view: FlipView
    #: failing pattern -> bitset (over site ids) of the sites whose lone
    #: flip reproduces it
    _singleton_bits: dict[int, int]
    #: per swept site, the fail atoms its lone flip reproduces
    _reproducers: Reproducers
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

    @cached_property
    def exact_singletons(self) -> dict[int, tuple[Site, ...]]:
        """Failing pattern -> sites whose lone flip reproduces it, in id
        order."""
        view = self._view
        return {idx: view.sites_in(bits) for idx, bits in self._singleton_bits.items()}

    @cached_property
    def evidence(self) -> "Evidence":
        """The die's :class:`Evidence` ranking, built on first use."""
        return Evidence(self)

    def atoms_of(self, site: Site) -> frozenset[Atom]:
        """Observed fail atoms that flipping ``site`` reproduces (none for a
        site outside :attr:`sites`)."""
        return self._reproducers.of(site)

    def diff_at(self, site: Site, pattern_index: int) -> frozenset[str]:
        """Outputs flipped by inverting ``site`` under one failing pattern."""
        diff = self.assignment_diff((site,))
        return frozenset(
            out for out, vec in diff.items() if (vec >> pattern_index) & 1
        )

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
            affected = self.netlist.fanout_bits(site.net for site in flip_key)
            ids = self.netlist.net_ids
            pin_key = frozenset(s for s in pin_key if affected >> ids[s.net] & 1)
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

    def explained_patterns(
        self, multiplet: Sequence[Site], within: int | None = None
    ) -> set[int]:
        """Failing patterns explained by some flip/pin assignment of the
        multiplet, among those in ``within`` (a bitset over pattern
        indices) when given.

        Enumerates flip sets by increasing size with the remaining sites
        pinned, and stops once every asked pattern is explained; each
        assignment costs one bit-parallel resimulation, cached across
        calls and across dies.  X-tier strobes carry no evidence, so
        predicted flips there neither help nor disqualify a match.
        """
        sites = list(dict.fromkeys(multiplet))
        remaining = self._fail_mask if within is None else self._fail_mask & within
        explained: set[int] = set()
        for size in range(1, len(sites) + 1):
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
    ctx: SimContext,
    datalog: Datalog,
    envelope: int,
    *,
    budget: Budget | None = None,
) -> PerTestAnalysis:
    """Exact singleton matches and per-site fail atoms for the sites of
    ``envelope``, a bitset over the netlist's site ids from
    :func:`~repro.core.backtrace.candidate_sites`, answered on ``ctx``,
    the shared context of the netlist and test set the datalog came from.

    The envelope is swept into the context's flip index (a
    ``pertest.index`` trace span, whose ``new_sites`` counts the sites the
    index had not seen), and the die's questions are then answered from
    it: per failing pattern, the candidates whose lone flip toggles exactly
    its failing outputs among its non-X strobes, in id order; per fail
    atom, the candidates whose flip toggles it.

    Under a ``budget`` the sweep goes in id order, is checked before each
    site and charges one expansion per site (each costs at most one
    cone-restricted resimulation), whether or not the index already holds
    it, so anytime truncation points stay deterministic across cache
    states.  On exhaustion the analysis covers only the sites swept so
    far and a ``pertest`` truncation is recorded.
    """
    stop = None
    if budget is not None:
        total = popcount(envelope)

        def stop(done: int) -> bool:
            if done and budget.stop("pertest", done, total):
                return True
            budget.charge()
            return False

    with trace_span("pertest.index") as span:
        index = ctx.flip_index(envelope, stop)
        if span is not None:
            span.meta = {"new_sites": index.added}
    netlist = ctx.netlist
    failing = datalog.failing_indices
    atoms = frozenset(datalog.fail_atoms())
    return PerTestAnalysis(
        netlist=netlist,
        patterns=ctx.patterns,
        datalog=datalog,
        sites=index.sites,
        atoms=atoms,
        _ctx=ctx,
        _view=index,
        _singleton_bits={
            idx: index.explainer_bits(
                idx, datalog.failing_outputs_of(idx), datalog.x_outputs_of(idx)
            )
            for idx in failing
        },
        _reproducers=index.reproducers(atoms),
        _fail_mask=sum(1 << idx for idx in failing),
        _obs_vec=datalog.observed_diff(netlist.outputs),
        _x_vec=datalog.fail_x_vectors(),
    )


class Evidence:
    """One die's evidence about its candidates, and the one order that
    ranks candidates by it.

    A site's :meth:`key` is ``(-atoms, name)``: the fail atoms its lone
    flip reproduces, most first, then its name, read from
    :meth:`Netlist.site_name_ranks
    <repro.circuit.netlist.Netlist.site_name_ranks>` instead of building
    ``str(site)``.  Built once per die over the union of the exact
    singletons, in key order, with each one's failing-pattern set (the
    failing patterns it alone explains) as a bitset over pattern indices.
    The greedy cover's picks, the enumeration pool, the per-pattern
    extras and the exact engine's conflict pool all rank through it, so
    a change to how candidates are ranked is made here.
    """

    def __init__(self, analysis: PerTestAnalysis):
        # The context's netlist owns the Site objects the view hands out,
        # so its id table hits on identity.
        numbering = analysis._ctx.netlist
        self._ids = numbering.site_ids
        self._names = names = numbering.site_name_ranks()
        self._reproducers = reproducers = analysis._reproducers
        singletons = analysis._singleton_bits
        union = 0
        for bits in singletons.values():
            union |= bits
        # Each singleton's failing-pattern set, read from the patterns'
        # bitsets as bytes: a byte test per site and pattern.
        width = (union.bit_length() + 7) // 8
        columns = [
            (1 << idx, bits.to_bytes(width, "little"))
            for idx, bits in singletons.items()
        ]
        count = reproducers.count
        entries = []
        for sid, site in analysis._view.numbered(union):
            at, bit = sid >> 3, 1 << (sid & 7)
            patterns = 0
            for pattern, data in columns:
                if data[at] & bit:
                    patterns |= pattern
            entries.append((-count(sid), names[sid], site, patterns))
        entries.sort()  # names are unique: never compares further
        #: ``(key..., site, patterns)`` per exact singleton, in key order
        self._entries = entries

    def key(self, site: Site) -> tuple[int, int]:
        """``(-atoms, name rank)`` of one of the die's candidates."""
        sid = self._ids[site]
        return -self._reproducers.count(sid), self._names[sid]

    def top_explainers(self, pattern: int, limit: int) -> list[Site]:
        """The first ``limit`` exact singletons of failing ``pattern`` in
        key order."""
        bit = 1 << pattern
        top: list[Site] = []
        for _atoms, _name, site, patterns in self._entries:
            if patterns & bit:
                top.append(site)
                if len(top) == limit:
                    break
        return top

    def by_frequency(self) -> list[Site]:
        """The exact singletons by how many failing patterns each alone
        explains, most first, then by name."""
        ranked = sorted(
            (-popcount(patterns), name, site)
            for _atoms, name, site, patterns in self._entries
        )
        return [site for _count, _name, site in ranked]

    def best_explainer(self, open_patterns: int) -> Site | None:
        """The exact singleton that alone explains the most of
        ``open_patterns`` (a bitset over pattern indices), the lower name
        on a tie; None when none explains any."""
        best = min(
            (
                (-popcount(patterns & open_patterns), name, site)
                for _atoms, name, site, patterns in self._entries
                if patterns & open_patterns
            ),
            default=None,
        )
        return None if best is None else best[2]


def pair_search(
    analysis: PerTestAnalysis,
    pattern_index: int,
    budget: Budget | None = None,
) -> list[tuple[Site, Site]]:
    """Site pairs whose joint assignment reproduces pattern ``t`` exactly.

    Used for failing patterns with no singleton explanation -- the
    signature of interacting defects (joint sensitization or masking).
    The pool is the candidate sites inside the fan-in cone of the
    pattern's failing outputs, ranked by single-flip overlap with the
    observed failures so that promising pairs are tried first, and the
    first :data:`PAIR_CAP` pairs are tried.

    A ``budget`` bounds the pair sweep on top of the cap: each tried pair
    charges one expansion, and exhaustion ends the search with the matches
    found so far (the caller records the stage truncation).
    """
    observed = analysis.datalog.failing_outputs_of(pattern_index)
    cone = analysis.netlist.fanin_cone(observed)
    pool = [s for s in analysis.sites if s.net in cone]

    def overlap(site: Site) -> int:
        return len(analysis.diff_at(site, pattern_index) & observed)

    ranked = sorted(pool, key=overlap, reverse=True)
    matches: list[tuple[Site, Site]] = []
    tried = 0
    for a, b in combinations(ranked, 2):
        if tried >= PAIR_CAP:
            break
        if budget is not None:
            if tried and budget.exceeded():
                break
            budget.charge()
        tried += 1
        if analysis.explained_patterns((a, b), 1 << pattern_index):
            matches.append((a, b))
    return matches
