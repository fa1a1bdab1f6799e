"""Cross-stage simulation context cache.

Every diagnosis stage -- candidate backtrace, X-cover, per-test analysis,
refinement, the validation oracle, single-fault baselines -- keeps asking
the same questions of the same ``(netlist, patterns)`` pair: the fault-free
base values, "what changes at the outputs if I flip this site", "what can a
defect at this site reach".  A :class:`SimContext` answers each question
once and memoizes:

- ``base``: the fault-free value of every net (a ``SlotValues`` under the
  compiled backend, so cone resims skip the dict-to-list conversion),
- flip signatures: site -> per-output delta vectors of complementing the
  site's fault-free value,
- resim diffs: override-signature -> per-output delta vectors.  The key is
  the *behavioral* signature ``frozenset((site, value), ...)``, so any two
  stages (or two fault models) requesting the same injected behavior share
  one simulation,
- X reach: site -> per-output X-corruption vectors,
- criticality: per net, the patterns under which complementing it
  complements its fanout-free region's root, and per root, those under
  which complementing the root changes some output, so any site's
  critical patterns cost gate-local evaluations plus at most one cone
  pass per region root, not one per query (:meth:`SimContext.critical`);
  the same path ANDed into the root's flip signature output by output is
  the site's per-output response (:meth:`SimContext.critical_diff`),
  which answers every single-site fault model without a resim of its own,
- the flip index: the flip signatures transposed pattern-major, one
  bitset over site ids per ``(pattern, output)`` strobe, so a die's
  per-test question -- which candidates' lone flip reproduces exactly
  this pattern's failing outputs -- is a few big-int ANDs over the
  strobes of its failing patterns.  A die's candidate envelope is a
  bitset over the same ids, and sweeping it in flips only the sites the
  index has not seen (:meth:`SimContext.flip_index`).

A stage that answers questions about one netlist and test set takes the
context itself and reads ``ctx.netlist``, ``ctx.patterns`` and
``ctx.base`` from it; a die's diagnosis looks its context up once
(:func:`sim_context`) and hands that object to every stage.  Contexts are
registered in a bounded LRU keyed by *content* fingerprints (netlist hash,
pattern-set hash), so campaign trials that share a circuit and test set --
even across structurally-equal netlist instances -- reuse one context, and
mutated inputs miss cleanly.  A pattern set used once (a random batch, a
test set grown pattern by pattern) gets an unregistered
``SimContext(netlist, patterns)``, so it never evicts a context a die
still holds.

Memo hits and misses feed :data:`repro.sim.compile.COUNTERS`; budget
charging in the engines is deliberately *not* tied to memo hits so anytime
truncation behavior stays deterministic regardless of cache warmth.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, defaultdict
from typing import Callable, Iterable, Mapping

from repro._bits import bit_positions, bitset, popcount, tally
from repro.circuit.gates import eval2
from repro.circuit.netlist import Netlist, Site
from repro.errors import SimulationError
from repro.obs.trace import trace_event
from repro.sim.compile import COUNTERS, active_kernels, base_slots, reset_kernel_cache
from repro.sim.event import _resim_interp, changed_outputs
from repro.sim.logicsim import simulate
from repro.sim.patterns import PatternSet
from repro.sim.threeval import x_injection_reach

#: Registry capacity: a campaign trial touches a handful of contexts (its
#: full test set, plus one per derived pattern set such as an adaptive
#: diagnostic top-off).
MAX_CONTEXTS = 16

#: Per-context bound on each memo table; on overflow the table is cleared
#: (diffs are small, so this is generous for every shipped circuit).
MAX_MEMO_ENTRIES = 65536


class SimContext:
    """Memoized simulation state for one ``(netlist, patterns)`` pair."""

    __slots__ = (
        "netlist",
        "patterns",
        "mask",
        "base",
        "_flip",
        "_resim",
        "_xreach",
        "_paths",
        "_observed",
        "_kernels",
        "_base_slots",
        "_out_pairs",
        "_valid_sites",
        "_index",
        "_index_lock",
    )

    def __init__(self, netlist: Netlist, patterns: PatternSet):
        self.netlist = netlist
        self.patterns = patterns
        self.mask = patterns.mask
        self.base = simulate(netlist, patterns)
        self._flip: dict[Site, dict[str, int]] = {}
        self._resim: dict[frozenset, dict[str, int]] = {}
        self._xreach: dict[Site, dict[str, int]] = {}
        self._paths: dict[str, int] = {}
        self._observed: dict[str, int] = {}
        # The backend is captured once per context: the memo tables are
        # engine-agnostic (both backends are differentially identical), so
        # re-reading ``REPRO_SIM`` on every query would only buy dispatch
        # overhead on the hottest call path.
        self._kernels = active_kernels(netlist)
        self._valid_sites: set[Site] = set()
        self._index: _FlipIndex | None = None
        self._index_lock = threading.Lock()
        if self._kernels is not None:
            program = self._kernels.program
            self._base_slots = base_slots(program, self.base)
            self._out_pairs = list(zip(netlist.outputs, program.out_slots))

    # -- memoized queries --------------------------------------------------

    def resim_diff(self, overrides: Mapping[Site, int]) -> dict[str, int]:
        """Per-output delta vectors of resimulating with ``overrides``.

        Keyed by the override *signature*, so behaviorally-equivalent
        requests (same sites forced to the same vectors, whatever stage or
        fault model produced them) are simulated once.  The returned dict
        is shared -- callers must not mutate it.
        """
        key = frozenset(overrides.items())
        diff = self._resim.get(key)
        if diff is not None:
            COUNTERS.resim_hits += 1
            return diff
        COUNTERS.resim_misses += 1
        diff = self._resim_cone(overrides)
        if len(self._resim) >= MAX_MEMO_ENTRIES:
            self._resim.clear()
        self._resim[key] = diff
        return diff

    def _resim_cone(self, overrides: Mapping[Site, int]) -> dict[str, int]:
        """Cone resim of ``overrides`` against the context's own base, on
        the context's backend: the memo's one miss path.

        Equal to :func:`~repro.sim.event.changed_outputs` of
        :func:`~repro.sim.event.resimulate_with_overrides` (same
        validation, same counters), with site validation memoized -- the
        same few hundred sites recur across thousands of what-if queries
        -- and only the output values compared.
        """
        netlist = self.netlist
        mask = self.mask
        base = self.base
        valid = self._valid_sites
        stem_over: dict[str, int] = {}
        pin_over: dict[tuple[str, int], int] = {}
        for site, value in overrides.items():
            if site not in valid:
                netlist.validate_site(site)
                valid.add(site)
            if value < 0 or value > mask:
                raise SimulationError(f"override for {site} exceeds pattern width")
            if site.branch is None:
                stem_over[site.net] = value
            else:
                pin_over[site.branch] = value
        if not stem_over and len(pin_over) == 1:
            # A lone pin override is a stem override of its gate, over the
            # same cone: evaluate the gate here and spare the pin kernel's
            # codegen.
            (((gate_net, pin), value),) = pin_over.items()
            gate = netlist.gates[gate_net]
            ins = [base[src] for src in gate.inputs]
            ins[pin] = value
            stem_over = {gate_net: eval2(gate.kind, ins, mask)}
            pin_over = {}
        cone = netlist.fanout_bits([*stem_over, *(gate for gate, _pin in pin_over)])
        COUNTERS.cone_passes += 1
        COUNTERS.gate_evals += popcount(cone)
        kernels = self._kernels
        if kernels is None:
            changed = _resim_interp(netlist, base, stem_over, pin_over, cone, mask)
            return changed_outputs(netlist, changed, base, mask)
        program = kernels.program
        base = self._base_slots
        slots = base.copy()
        kernels.run2(slots, mask, cone, *program.slot_overrides(stem_over, pin_over))
        diff: dict[str, int] = {}
        for net, slot in self._out_pairs:
            delta = slots[slot] ^ base[slot]
            if delta:
                diff[net] = delta
        return diff

    def output_diff(self, outputs: Mapping[str, int]) -> dict[str, int]:
        """Per-output delta vectors of the response ``outputs`` (a value
        vector per primary output, such as a faulty circuit's or a
        device's) against the fault-free base; outputs that never differ
        are left out."""
        base = self.base
        mask = self.mask
        diff: dict[str, int] = {}
        for net in self.netlist.outputs:
            delta = (outputs[net] ^ base[net]) & mask
            if delta:
                diff[net] = delta
        return diff

    def flip_signature(self, site: Site) -> dict[str, int]:
        """Output deltas of complementing ``site``'s fault-free value.

        The signature a flipped site leaves on the outputs is the unit of
        evidence in critical-path tracing, per-test analysis and candidate
        distinguishing; memoized per site.  The returned dict is shared --
        callers must not mutate it.
        """
        diff = self._flip.get(site)
        if diff is not None:
            COUNTERS.flip_hits += 1
            return diff
        COUNTERS.flip_misses += 1
        flipped = (self.base[site.net] ^ self.mask) & self.mask
        diff = self.resim_diff({site: flipped})
        if len(self._flip) >= MAX_MEMO_ENTRIES:
            self._flip.clear()
        self._flip[site] = diff
        return diff

    def critical(self, site: Site, care: int | None = None) -> int:
        """Patterns under which complementing ``site`` changes some output,
        restricted to ``care`` when given.

        Critical path tracing (Abramovici, Menon & Miller, DAC 1983) inside
        the site's fanout-free region: the AND of the gate-local
        sensitivities along its unique path to the region's root (each an
        :func:`~repro.circuit.gates.eval2` of the gate on the base values
        with that pin complemented), ANDed with the OR of the root's
        :meth:`flip_signature`.  Exact for two-valued base values, since
        nothing off that path depends on the site.  Path sensitizations
        are memoized per net, and a root is flipped only once a query
        sensitizes a path to it under ``care``, so a context pays at most
        one cone pass per region root however many of the region's sites
        it is asked about.  A single-site override's detections are
        ``critical(site, override ^ base)``.
        """
        root, path = self._path(site, care)
        if not path:
            return 0
        observed = self._observed.get(root)
        if observed is None:
            observed = 0
            for delta in self.flip_signature(self.netlist.stem_site(root)).values():
                observed |= delta
            self._observed[root] = observed
        return path & observed

    def critical_diff(self, site: Site, care: int | None = None) -> dict[str, int]:
        """Per-output delta vectors of complementing ``site``, restricted
        to ``care`` when given.

        The per-output counterpart of :meth:`critical`: inside the site's
        fanout-free region only the root's flip reaches the outputs, so
        the site's response is the root's :meth:`flip_signature` masked to
        the patterns under which the path to the root is sensitized.  A
        single-site override's response is ``critical_diff(site, override
        ^ base)``, exact for two-valued base values and equal to a cone
        resim of the override output by output.  Costs no cone pass once
        the root has been flipped.  The returned dict is the caller's.
        """
        root, path = self._path(site, care)
        diff: dict[str, int] = {}
        if path:
            for out, delta in self.flip_signature(self.netlist.stem_site(root)).items():
                delta &= path
                if delta:
                    diff[out] = delta
        return diff

    def _path(self, site: Site, care: int | None) -> tuple[str, int]:
        """The root of ``site``'s fanout-free region, and the patterns of
        ``care`` under which complementing the site complements the root."""
        netlist = self.netlist
        netlist.validate_site(site)
        branch = site.branch
        if branch is None:
            net = site.net
            path = self._sensitized(net)
        else:
            net = branch[0]
            path = self._sensitivity(*branch)
            if path:
                path &= self._sensitized(net)
        if care is not None:
            path &= care
        return netlist.ffr_root(net), path

    def _sensitized(self, net: str) -> int:
        """Patterns under which complementing ``net`` complements its
        region root: walk to the first net already known (or the root),
        then fill the path back."""
        netlist = self.netlist
        memo = self._paths
        walk: list[str] = []
        while net not in memo:
            if netlist.ffr_root(net) == net:
                memo[net] = self.mask
                break
            walk.append(net)
            net = netlist.fanout(net)[0][0]
        path = memo[net]
        for net in reversed(walk):
            if path:
                path &= self._sensitivity(*netlist.fanout(net)[0])
            memo[net] = path
        return path

    def _sensitivity(self, gate_net: str, pin: int) -> int:
        """Patterns under which complementing pin ``pin`` of gate
        ``gate_net`` complements the gate's output."""
        base = self.base
        mask = self.mask
        gate = self.netlist.gates[gate_net]
        ins = [base[src] for src in gate.inputs]
        ins[pin] ^= mask
        COUNTERS.gate_evals += 1
        return eval2(gate.kind, ins, mask) ^ base[gate_net]

    def flip_index(
        self,
        envelope: int,
        stop: Callable[[int], bool] | None = None,
    ) -> "FlipView":
        """Index the flips of the sites in ``envelope``; a view answering
        over them.

        ``envelope`` is a bitset over the netlist's :attr:`site ids
        <repro.circuit.netlist.Netlist.site_ids>`, such as a candidate
        envelope from :func:`~repro.core.backtrace.candidate_sites` -- of
        this netlist or of any structurally equal one, whose ids are the
        same.  It is swept in id order, and a site not yet in the
        context's flip index costs one :meth:`flip_signature` (a memo hit
        when an earlier stage or die already flipped it), transposed into
        the index once.  Without ``stop`` the sweep visits only
        ``envelope & ~indexed``, so a warm envelope costs no per-site
        work.  With ``stop``, ``stop(done)`` is asked before each of the
        envelope's sites, indexed or not, and when it answers true the
        view covers only the ``done`` sites of the lowest ids.
        """
        index = self._index
        if index is None:
            with self._index_lock:
                if self._index is None:
                    self._index = _FlipIndex(self.netlist)
                index = self._index
        by_id = self.netlist.sites_by_id
        added = 0
        todo = envelope if stop is not None else envelope & ~index.indexed
        for done, sid in enumerate(bit_positions(todo)):
            if stop is not None and stop(done):
                envelope &= (1 << sid) - 1
                break
            if not index.indexed >> sid & 1:
                added += index.add(sid, self.flip_signature(by_id[sid]))
        return FlipView(index, self.netlist, envelope, added)

    def x_reach(self, site: Site) -> dict[str, int]:
        """Memoized :func:`~repro.sim.threeval.x_injection_reach` at
        ``site``.  The returned dict is shared -- callers must not mutate
        it."""
        reach = self._xreach.get(site)
        if reach is not None:
            COUNTERS.xreach_hits += 1
            return reach
        COUNTERS.xreach_misses += 1
        reach = x_injection_reach(self.netlist, self.patterns, site, self.base)
        if len(self._xreach) >= MAX_MEMO_ENTRIES:
            self._xreach.clear()
        self._xreach[site] = reach
        return reach


# ---------------------------------------------------------------------------
# Flip index
# ---------------------------------------------------------------------------


class _FlipIndex:
    """A context's flip signatures, transposed pattern-major.

    Sites are numbered by their netlist's :attr:`Netlist.site_ids
    <repro.circuit.netlist.Netlist.site_ids>`.  Strobe ``(pattern,
    output)`` owns one bitset over site ids: bit ``i`` is set iff
    complementing site ``i`` flips that output under that pattern.  A
    site's ids are appended to its strobes' pending lists when it is
    added, and a strobe folds its pending ids into its bitset when first
    read after that, so adding a site costs one list append per set bit of
    its signature.  Writes and folds hold :attr:`lock`: the service's
    worker threads share one context, and an unguarded fold can drop ids
    another thread appends.  A site's ids are all appended before it is
    marked indexed.
    """

    __slots__ = ("lock", "indexed", "outputs", "column", "pending", "folded")

    def __init__(self, netlist: Netlist):
        self.lock = threading.Lock()
        #: bitset of the site ids whose flips are in the index
        self.indexed = 0
        self.outputs: tuple[str, ...] = tuple(dict.fromkeys(netlist.outputs))
        self.column = {out: col for col, out in enumerate(self.outputs)}
        #: strobe key ``pattern * len(outputs) + column`` -> ids not yet folded
        self.pending: defaultdict[int, list[int]] = defaultdict(list)
        self.folded: dict[int, int] = {}

    def add(self, sid: int, signature: Mapping[str, int]) -> int:
        """Transpose one site's flip signature in; 1 if it was new."""
        width = len(self.outputs)
        column = self.column
        with self.lock:
            if self.indexed >> sid & 1:
                return 0
            pending = self.pending
            for out, vec in signature.items():
                col = column[out]
                while vec:
                    low = vec & -vec
                    pending[(low.bit_length() - 1) * width + col].append(sid)
                    vec ^= low
            self.indexed |= 1 << sid
        return 1

    def row(self, pattern: int) -> list[int]:
        """Per output (in :attr:`outputs` order), the bitset of the sites
        whose flip toggles it under ``pattern``."""
        width = len(self.outputs)
        base = pattern * width
        folded = self.folded
        pending = self.pending
        row = []
        with self.lock:
            for key in range(base, base + width):
                bits = folded.get(key, 0)
                ids = pending.pop(key, None)
                if ids:
                    bits |= bitset(ids)
                    folded[key] = bits
                row.append(bits)
        return row


class FlipView:
    """One envelope's window onto a context's flip index.

    Built by :meth:`SimContext.flip_index`: ``mask`` is the swept
    envelope, a bitset over the netlist's site ids, and ``added`` how
    many of its sites the index took in new.  Answers come as sites in id
    order, or as bitsets over site ids for a caller that ranks them
    (:meth:`explainer_bits`, :meth:`sites_in`, :meth:`numbered`).
    """

    __slots__ = ("mask", "added", "_index", "_netlist")

    def __init__(self, index: _FlipIndex, netlist: Netlist, mask: int, added: int):
        self.mask = mask
        self.added = added
        self._index = index
        self._netlist = netlist

    @property
    def sites(self) -> tuple[Site, ...]:
        """The swept sites, in id order."""
        return tuple(self._netlist.sites_of(self.mask))

    def explainer_bits(
        self, pattern: int, failing: Iterable[str], unknown: Iterable[str] = ()
    ) -> int:
        """Bitset of the sites whose lone flip under ``pattern`` toggles
        exactly the ``failing`` outputs (a non-empty set of the netlist's
        outputs), whatever it does at the ``unknown`` ones."""
        failing = frozenset(failing)
        unknown = frozenset(unknown)
        exact = self.mask
        others = 0
        for out, bits in zip(self._index.outputs, self._index.row(pattern)):
            if out in failing:
                exact &= bits
            elif out not in unknown:
                others |= bits
        return exact & ~others

    def explainers(
        self, pattern: int, failing: Iterable[str], unknown: Iterable[str] = ()
    ) -> tuple[Site, ...]:
        """:meth:`explainer_bits` as sites, in id order."""
        return self.sites_in(self.explainer_bits(pattern, failing, unknown))

    def reproducers(self, strobes: Iterable[tuple[int, str]]) -> "Reproducers":
        """Which of ``strobes`` (``(pattern, output)`` pairs) each swept
        site's lone flip toggles."""
        index = self._index
        rows: dict[int, list[int]] = {}
        bits: dict[tuple[int, str], int] = {}
        for pattern, out in strobes:
            row = rows.get(pattern)
            if row is None:
                row = rows[pattern] = index.row(pattern)
            col = index.column.get(out)
            if col is not None and row[col] & self.mask:
                bits[(pattern, out)] = row[col] & self.mask
        return Reproducers(self._netlist.site_ids, bits)

    def sites_in(self, bits: int) -> tuple[Site, ...]:
        """The sites of the bitset ``bits``, in id order."""
        by_id = self._netlist.sites_by_id
        return tuple(by_id[sid] for sid in bit_positions(bits))

    def numbered(self, bits: int) -> list[tuple[int, Site]]:
        """``(id, site)`` for each site of the bitset ``bits``, in id
        order."""
        ids = bit_positions(bits)
        return list(zip(ids, map(self._netlist.sites_by_id.__getitem__, ids)))


class Reproducers:
    """Per site, the strobes of a fixed set that its lone flip toggles.

    Decoded lazily, one site at a time and memoized: a die asks about a
    few hundred of its candidates, and most of those toggle none of its
    strobes.  The strobes' bitsets are kept as bytes, so testing one site
    is a byte lookup rather than a shift of a bitset as wide as the index;
    their bit-sliced counts are kept the same way, so :meth:`count` reads
    a handful of bytes whatever the number of strobes.
    """

    __slots__ = ("_ids", "_any", "_strobes", "_counts", "_memo")

    def __init__(self, ids: Mapping[Site, int], bits: dict[tuple[int, str], int]):
        self._ids = ids
        hit_any = 0
        for vec in bits.values():
            hit_any |= vec
        width = (hit_any.bit_length() + 7) // 8
        self._any = hit_any.to_bytes(width, "little")
        self._strobes = [
            (strobe, vec.to_bytes(width, "little")) for strobe, vec in bits.items()
        ]
        self._counts = [
            (1 << k, plane.to_bytes(width, "little"))
            for k, plane in enumerate(tally(bits.values()))
        ]
        self._memo: dict[Site, frozenset[tuple[int, str]]] = {}

    def of(self, site: Site) -> frozenset[tuple[int, str]]:
        found = self._memo.get(site)
        if found is None:
            sid = self._ids.get(site, -1)
            at, bit = sid >> 3, 1 << (sid & 7)
            if 0 <= at < len(self._any) and self._any[at] & bit:
                found = frozenset(
                    strobe for strobe, data in self._strobes if data[at] & bit
                )
            else:
                found = frozenset()
            self._memo[site] = found
        return found

    def count(self, sid: int) -> int:
        """How many of the strobes site ``sid``'s lone flip toggles."""
        at, bit = sid >> 3, 1 << (sid & 7)
        count = 0
        if at < len(self._any):
            for weight, data in self._counts:
                if data[at] & bit:
                    count += weight
        return count


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_CONTEXTS: OrderedDict[tuple[str, str], SimContext] = OrderedDict()

#: Guards :data:`_CONTEXTS`: the service's worker threads share the
#: registry, and an unguarded lookup can ``move_to_end`` a key another
#: thread's insert has just evicted.
_LOCK = threading.Lock()


def _evict_overflow() -> None:
    """Enforce :data:`MAX_CONTEXTS` by dropping least-recently-used entries.

    Called on every insert (not only on lookup), so a campaign that never
    repeats a ``(netlist, patterns)`` key -- a multi-circuit sweep -- holds
    at most ``MAX_CONTEXTS`` contexts no matter how many trials it runs.
    The caller holds :data:`_LOCK`.
    """
    while len(_CONTEXTS) > MAX_CONTEXTS:
        _CONTEXTS.popitem(last=False)


def context_cache_size() -> int:
    """Number of registered contexts (bounded-growth regression hook)."""
    return len(_CONTEXTS)


def sim_context(netlist: Netlist, patterns: PatternSet) -> SimContext:
    """The shared context for ``(netlist, patterns)``, creating it on miss.

    Keys are content fingerprints: two structurally identical netlists (or
    two equal pattern sets) map to the same context, while any content
    change -- an edited gate, a different test set -- misses and builds a
    fresh one.
    """
    key = (netlist.fingerprint(), patterns.fingerprint())
    with _LOCK:
        ctx = _CONTEXTS.get(key)
        if ctx is not None:
            _CONTEXTS.move_to_end(key)
    if ctx is not None:
        COUNTERS.context_hits += 1
        trace_event("sim.context_cache", hit=True)
        return ctx
    COUNTERS.context_misses += 1
    trace_event("sim.context_cache", hit=False, circuit=netlist.name)
    # Built outside the lock, since the base simulation can take a while;
    # when two threads miss together, the first to register wins and both
    # share its memos.
    built = SimContext(netlist, patterns)
    with _LOCK:
        ctx = _CONTEXTS.setdefault(key, built)
        _CONTEXTS.move_to_end(key)
        _evict_overflow()
    return ctx


def reset_sim_caches() -> None:
    """Drop every context, kernel and counter (testing/benchmark hook)."""
    with _LOCK:
        _CONTEXTS.clear()
        reset_kernel_cache()
        COUNTERS.reset()
