"""The :class:`Netlist` combinational circuit graph.

A netlist is a DAG of :class:`~repro.circuit.gates.Gate` instances named by
their output nets (ISCAS convention).  Sequential designs are assumed to be
full-scan, so scan flip-flops appear as pseudo primary inputs/outputs and
every simulation and diagnosis question reduces to the combinational core.

Besides the graph itself this module provides the structural queries the
rest of the stack leans on:

- levelization / topological order (simulation schedules),
- fanout tables and fan-in/fan-out cones (structural pruning in diagnosis),
- fanout-free regions (critical path tracing),
- the :class:`Site` abstraction -- a *defect site* is either a stem (a net)
  or a specific fanout branch (a gate input pin), which is the granularity
  at which the diagnosis reports candidates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro._bits import select
from repro.circuit.gates import Gate, GateKind
from repro.errors import CircuitError, NetlistError


@dataclass(frozen=True)
class Site:
    """A potential defect location.

    ``Site("n42")`` is the *stem* of net ``n42`` (the gate output or primary
    input itself).  ``Site("n42", branch=("g7", 1))`` is the fanout branch
    of ``n42`` feeding pin 1 of gate ``g7``; a defect there disturbs only
    that connection while the stem and sibling branches stay healthy.

    Sites are totally ordered (stem before its branches), so mixed
    stem/branch collections sort without surprises.
    """

    net: str
    branch: tuple[str, int] | None = None

    def __hash__(self) -> int:
        # Sites key every simulation memo (flip signatures, override
        # signatures, joint-assignment caches) and get hashed far more
        # often than they are created; cache the field-tuple hash.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.net, self.branch))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # Rebuild from the fields: a pickled ``_hash`` would be stale in a
        # process with another string-hash seed.
        return (Site, (self.net, self.branch))

    def _sort_key(self) -> tuple:
        return (self.net, self.branch is not None, self.branch or ("", -1))

    def __lt__(self, other: "Site") -> bool:
        if not isinstance(other, Site):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    @property
    def is_stem(self) -> bool:
        return self.branch is None

    def __str__(self) -> str:
        if self.branch is None:
            return self.net
        gate, pin = self.branch
        return f"{self.net}->{gate}.{pin}"

    @classmethod
    def parse(cls, text: str) -> "Site":
        """Inverse of ``str(site)``; accepts ``net`` or ``net->gate.pin``."""
        if "->" not in text:
            return cls(text)
        net, _, rest = text.partition("->")
        gate, _, pin = rest.rpartition(".")
        if not gate or not pin.isdigit():
            raise NetlistError(f"malformed site {text!r}")
        return cls(net, (gate, int(pin)))


class Netlist:
    """An immutable-after-construction combinational netlist.

    Parameters
    ----------
    name:
        Circuit name, used in reports and the benchmark registry.
    inputs:
        Ordered primary input net names (includes scan pseudo-inputs).
    outputs:
        Ordered primary output net names (includes scan pseudo-outputs).
        An output may name a primary input directly (feed-through).
    gates:
        Gate instances; each defines the net named by its ``output``.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        gates: Iterable[Gate],
    ):
        self.name = name
        self.inputs: tuple[str, ...] = tuple(inputs)
        self.outputs: tuple[str, ...] = tuple(outputs)
        self.gates: dict[str, Gate] = {}
        for gate in gates:
            if gate.output in self.gates:
                raise NetlistError(f"net {gate.output!r} defined twice")
            if gate.kind is GateKind.INPUT:
                raise NetlistError(
                    f"gate {gate.output!r}: INPUT pseudo-gates are implied by "
                    "the `inputs` list and must not appear in `gates`"
                )
            self.gates[gate.output] = gate
        self._input_set = frozenset(self.inputs)
        if len(self._input_set) != len(self.inputs):
            raise NetlistError("duplicate primary input name")
        clash = self._input_set & self.gates.keys()
        if clash:
            raise NetlistError(f"nets defined both as input and gate: {sorted(clash)}")
        self._validate_references()
        self._order = self._levelize()
        self._fanouts = self._build_fanouts()
        self._level = {net: lvl for lvl, net in self._iter_levels()}
        by_level: dict[int, list[str]] = {}
        for net in self.nets():
            by_level.setdefault(self._level[net], []).append(net)
        self._by_level = {lvl: tuple(nets) for lvl, nets in by_level.items()}
        self._net_list: tuple[str, ...] = tuple(self.nets())
        self._net_ids = {net: i for i, net in enumerate(self._net_list)}
        self._fanin_cache: dict[frozenset[str], frozenset[str]] = {}
        self._cone_table: list[int] | None = None
        self._site_table: (
            tuple[dict[str, Site], dict[str, tuple[Site, ...]]] | None
        ) = None
        self._id_table: tuple[dict[Site, int], tuple[Site, ...]] | None = None
        self._name_ranks: list[int] = []
        self._fanin_sites: dict[str, int] = {}
        self._ffr_table: dict[str, str] | None = None
        self._fingerprint: str | None = None

    # -- construction-time checks ------------------------------------------

    def _validate_references(self) -> None:
        known = self._input_set | self.gates.keys()
        for gate in self.gates.values():
            for net in gate.inputs:
                if net not in known:
                    raise NetlistError(
                        f"gate {gate.output!r} references undefined net {net!r}"
                    )
        for net in self.outputs:
            if net not in known:
                raise NetlistError(f"primary output {net!r} is undefined")

    def _levelize(self) -> tuple[str, ...]:
        """Topological order of gate output nets (inputs excluded).

        Raises :class:`NetlistError` on combinational cycles.
        """
        indeg: dict[str, int] = {}
        dependents: dict[str, list[str]] = {}
        for gate in self.gates.values():
            gate_feeds = 0
            for net in set(gate.inputs):
                if net in self.gates:
                    gate_feeds += 1
                    dependents.setdefault(net, []).append(gate.output)
            indeg[gate.output] = gate_feeds
        ready = [net for net, d in indeg.items() if d == 0]
        ready.sort()  # determinism independent of dict insertion order
        order: list[str] = []
        from heapq import heapify, heappop, heappush

        heapify(ready)
        while ready:
            net = heappop(ready)
            order.append(net)
            for dep in dependents.get(net, ()):
                indeg[dep] -= 1
                if indeg[dep] == 0:
                    heappush(ready, dep)
        if len(order) != len(self.gates):
            unresolved = {net for net, d in indeg.items() if d > 0}
            cycle = self._find_cycle(unresolved)
            raise CircuitError(
                "combinational cycle through nets " + " -> ".join(cycle),
                cycle=tuple(cycle),
            )
        return tuple(order)

    def _find_cycle(self, unresolved: set[str]) -> list[str]:
        """One concrete feedback loop among the nets levelization left over.

        ``unresolved`` contains the cycle's members plus everything
        downstream of them; a depth-first walk restricted to that subgraph
        finds a back edge and returns the loop as net names, closed (the
        first net repeated at the end) so the message reads as a path.
        """
        visiting: dict[str, int] = {}  # net -> position on the current path
        finished: set[str] = set()
        for start in sorted(unresolved):
            if start in finished:
                continue
            path: list[str] = []
            stack: list[tuple[str, Iterator[str]]] = [
                (start, iter(sorted(set(self.gates[start].inputs))))
            ]
            visiting[start] = 0
            path.append(start)
            while stack:
                net, inputs = stack[-1]
                advanced = False
                for src in inputs:
                    if src not in unresolved or src in finished:
                        continue
                    if src in visiting:
                        return path[visiting[src]:] + [src]
                    visiting[src] = len(path)
                    path.append(src)
                    stack.append((src, iter(sorted(set(self.gates[src].inputs)))))
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
                    path.pop()
                    finished.add(net)
                    del visiting[net]
        # Unreachable when levelization genuinely stalled, kept as a guard.
        return sorted(unresolved)[:8]  # pragma: no cover

    def _build_fanouts(self) -> dict[str, tuple[tuple[str, int], ...]]:
        fanouts: dict[str, list[tuple[str, int]]] = {net: [] for net in self.nets()}
        for net in self._order:  # deterministic order
            gate = self.gates[net]
            for pin, src in enumerate(gate.inputs):
                fanouts[src].append((net, pin))
        return {net: tuple(dests) for net, dests in fanouts.items()}

    def _iter_levels(self) -> Iterator[tuple[int, str]]:
        level: dict[str, int] = {net: 0 for net in self.inputs}
        for net in self._order:
            gate = self.gates[net]
            lvl = 1 + max((level.get(src, 0) for src in gate.inputs), default=0)
            level[net] = lvl
            yield lvl, net
        for net in self.inputs:
            yield 0, net

    # -- basic queries -------------------------------------------------------

    def nets(self) -> Iterator[str]:
        """All net names: primary inputs first, then gates in topo order."""
        yield from self.inputs
        yield from self._order

    @property
    def topo_order(self) -> tuple[str, ...]:
        """Gate output nets in topological (evaluation) order."""
        return self._order

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    @property
    def n_nets(self) -> int:
        return len(self.inputs) + len(self.gates)

    @property
    def depth(self) -> int:
        """Longest input-to-net path length in gates."""
        return max(self._level.values(), default=0)

    def level(self, net: str) -> int:
        return self._level[net]

    def nets_at_level(self, level: int) -> tuple[str, ...]:
        """Nets at ``level`` (primary inputs are level 0), in :meth:`nets`
        order."""
        return self._by_level.get(level, ())

    def is_input(self, net: str) -> bool:
        return net in self._input_set

    def driver(self, net: str) -> Gate | None:
        """The gate driving ``net``, or ``None`` for a primary input."""
        return self.gates.get(net)

    def fanout(self, net: str) -> tuple[tuple[str, int], ...]:
        """(gate, pin) pairs fed by ``net``."""
        return self._fanouts[net]

    def fanout_count(self, net: str) -> int:
        return len(self._fanouts[net])

    # -- cones ----------------------------------------------------------------

    #: Per-netlist bound on the fan-in cone memo.  Cones are memoized by
    #: root *set*, so pathological query mixes could otherwise accumulate
    #: an unbounded number of distinct keys; on overflow the memo is simply
    #: cleared.
    _CONE_MEMO_LIMIT = 4096

    def fanin_cone(self, roots: Iterable[str]) -> frozenset[str]:
        """All nets with a structural path *to* any root (roots included).

        Cones are memoized per root set: ``candidate_sites`` and the cover
        enumeration ask for the same output groups over and over.
        """
        key = frozenset(roots)
        cached = self._fanin_cache.get(key)
        if cached is not None:
            return cached
        seen: set[str] = set()
        stack = list(key)
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            gate = self.gates.get(net)
            if gate is not None:
                stack.extend(src for src in gate.inputs if src not in seen)
        cone = frozenset(seen)
        if len(self._fanin_cache) >= self._CONE_MEMO_LIMIT:
            self._fanin_cache.clear()
        self._fanin_cache[key] = cone
        return cone

    @property
    def net_ids(self) -> Mapping[str, int]:
        """Each net's position in :meth:`nets`: its bit in a cone bitset
        (:meth:`fanout_bits`) and its slot in the compiled simulation
        program.  Read-only."""
        return self._net_ids

    def fanout_bits(self, roots: Iterable[str]) -> int:
        """Bitset (over :attr:`net_ids`) of every net reachable *from* any
        root, roots included.

        An OR of per-net cones, tabled for every net in one
        reverse-topological pass on first use (a net's cone is its own bit
        ORed with its readers' cones).  The table is stored with one
        assignment, so two threads racing on a cold netlist only repeat
        the work.
        """
        table = self._cone_table
        if table is None:
            nets, ids, fanouts = self._net_list, self._net_ids, self._fanouts
            table = [0] * len(nets)
            for at in range(len(nets) - 1, -1, -1):
                bits = 1 << at
                for dest, _pin in fanouts[nets[at]]:
                    bits |= table[ids[dest]]
                table[at] = bits
            self._cone_table = table
        bits = 0
        try:
            for root in roots:
                bits |= table[self._net_ids[root]]
        except KeyError as exc:
            raise NetlistError(f"unknown net {exc.args[0]!r}") from None
        return bits

    def fanout_cone(self, roots: Iterable[str]) -> frozenset[str]:
        """All nets reachable *from* any root (roots included), by name.

        :meth:`fanout_bits` decoded; not memoized, so a caller that tests
        membership or walks the cone reads the bits instead.
        """
        return frozenset(select(self._net_list, self.fanout_bits(roots)))

    def cone_gates(self, bits: int) -> list[str]:
        """The gate nets of the cone bitset ``bits``, in topological
        order."""
        return select(self._order, bits >> len(self.inputs))

    # -- fanout-free regions ---------------------------------------------------

    def ffr_root(self, net: str) -> str:
        """Root of the fanout-free region containing ``net``.

        Walking forward from ``net``, the FFR root is the first net that
        does not feed exactly one pin or is a primary output.  Tabled for
        every net on first use.
        """
        table = self._ffr_table
        if table is None:
            outputs = set(self.outputs)
            table = {}
            for name in reversed(tuple(self.nets())):
                fan = self._fanouts[name]
                if len(fan) != 1 or name in outputs:
                    table[name] = name
                else:
                    table[name] = table[fan[0][0]]
            self._ffr_table = table
        return table[net]

    # -- defect sites ------------------------------------------------------------

    def _sites_by_net(self) -> tuple[dict[str, Site], dict[str, tuple[Site, ...]]]:
        """The netlist's own Site objects: a stem per net, and a branch per
        fanout pin of every multi-fanout net, both keyed by net in
        :meth:`nets` order.  Built once, so every stage that takes its
        sites from here shares one object per site and its Site-keyed
        dicts hit on identity."""
        table = self._site_table
        if table is None:
            stems = {net: Site(net) for net in self.nets()}
            branches = {
                net: tuple(Site(net, dest) for dest in fan)
                for net, fan in self._fanouts.items()
                if len(fan) > 1
            }
            table = self._site_table = (stems, branches)
        return table

    def sites(self, include_branches: bool = True) -> list[Site]:
        """Enumerate candidate defect sites.

        Every net contributes a stem site.  When ``include_branches`` is
        true, every fanout branch of a multi-fanout net contributes a branch
        site as well (a single-fanout branch is electrically the stem).
        The Site objects are the netlist's own (see :meth:`stem_site`).
        """
        stems, branches = self._sites_by_net()
        out = list(stems.values())
        if include_branches:
            for group in branches.values():
                out.extend(group)
        return out

    def stem_site(self, net: str) -> Site:
        """The netlist's own stem Site of ``net``."""
        return self._sites_by_net()[0][net]

    def branch_sites(self, net: str) -> tuple[Site, ...]:
        """The netlist's own branch Sites of ``net``, in :meth:`fanout`
        order; empty for a net with fewer than two fanout pins."""
        return self._sites_by_net()[1].get(net, ())

    # -- site ids ------------------------------------------------------------------

    def _ids(self) -> tuple[dict[Site, int], tuple[Site, ...]]:
        table = self._id_table
        if table is None:
            by_id = tuple(self.sites())
            table = self._id_table = (
                {site: sid for sid, site in enumerate(by_id)},
                by_id,
            )
        return table

    @property
    def site_ids(self) -> Mapping[Site, int]:
        """Each site's id, the bit that stands for it in a bitset over
        sites.

        The sites of :meth:`sites` are numbered in that order -- the stem
        of every net first, in :meth:`nets` order, so the stems' ids are
        ``0 .. n_nets - 1`` -- and no other site has an id.  The ids
        depend only on the netlist's structure, so a bitset over sites
        means the same sites to every structurally equal netlist.
        Read-only.
        """
        return self._ids()[0]

    @property
    def sites_by_id(self) -> tuple[Site, ...]:
        """The sites of :meth:`sites`, indexed by id (see :attr:`site_ids`)."""
        return self._ids()[1]

    def sites_of(self, mask: int) -> list[Site]:
        """The sites whose ids are set in ``mask``, in id order."""
        return select(self._ids()[1], mask)

    def site_name_ranks(self) -> list[int]:
        """Per site id, the site's position among all sites in ``str``
        order: the same tie-break as comparing names, as a list read."""
        ranks = self._name_ranks
        if not ranks:
            names = [str(site) for site in self.sites_by_id]
            ranks = [0] * len(names)
            order = sorted(range(len(names)), key=names.__getitem__)
            for rank, sid in enumerate(order):
                ranks[sid] = rank
            self._name_ranks = ranks
        return ranks

    def fanin_sites(self, output: str) -> int:
        """Bitset (over :attr:`site_ids`) of the sites that can affect
        ``output``: the stem of every net of its :meth:`fanin_cone`, and
        every branch (of :meth:`sites`) whose reading gate is in that cone.
        Memoized per output."""
        mask = self._fanin_sites.get(output)
        if mask is None:
            ids = self.site_ids
            stems, branches = self._sites_by_net()
            cone = self.fanin_cone([output])
            mask = 0
            for net in cone:
                stem = stems.get(net)
                if stem is None:
                    continue  # not a net of this netlist: affects nothing
                mask |= 1 << ids[stem]
                for branch in branches.get(net, ()):
                    if branch.branch[0] in cone:
                        mask |= 1 << ids[branch]
            self._fanin_sites[output] = mask
        return mask

    def validate_site(self, site: Site) -> None:
        if site.net not in self._input_set and site.net not in self.gates:
            raise NetlistError(f"site {site}: unknown net {site.net!r}")
        if site.branch is not None:
            gate_name, pin = site.branch
            gate = self.gates.get(gate_name)
            if gate is None:
                raise NetlistError(f"site {site}: unknown gate {gate_name!r}")
            if pin >= len(gate.inputs) or gate.inputs[pin] != site.net:
                raise NetlistError(
                    f"site {site}: pin {pin} of {gate_name!r} is not driven "
                    f"by {site.net!r}"
                )

    # -- derived circuits -----------------------------------------------------

    def extract_cone(self, output: str, name: str | None = None) -> "Netlist":
        """The self-contained subcircuit computing a single output."""
        if output not in self.gates and output not in self._input_set:
            raise NetlistError(f"unknown output net {output!r}")
        cone = self.fanin_cone([output])
        new_inputs = [net for net in self.inputs if net in cone]
        new_gates = [self.gates[net] for net in self._order if net in cone]
        return Netlist(
            name or f"{self.name}_cone_{output}",
            new_inputs,
            [output],
            new_gates,
        )

    # -- misc ----------------------------------------------------------------

    def fingerprint(self) -> str:
        """Short content hash over inputs, outputs and gates.

        Two netlists with identical structure share a fingerprint even when
        built independently (e.g. in different campaign workers), which is
        what keys the compiled-kernel and simulation-context caches.  The
        hash is computed lazily once; the class is immutable after
        construction, so in-place mutation (already unsupported -- it would
        stale ``topo_order`` and the cone caches) is not accounted for.
        """
        fp = self._fingerprint
        if fp is None:
            hasher = hashlib.sha256()
            hasher.update("\x1f".join(self.inputs).encode())
            hasher.update(b"\x1e")
            hasher.update("\x1f".join(self.outputs).encode())
            for net in self._order:
                gate = self.gates[net]
                hasher.update(
                    f"\x1e{net}\x1f{gate.kind.value}\x1f".encode()
                )
                hasher.update("\x1f".join(gate.inputs).encode())
            fp = self._fingerprint = hasher.hexdigest()[:16]
        return fp

    def stats(self) -> dict[str, int]:
        """Summary statistics used by Table 1 of the evaluation."""
        kind_histogram: dict[str, int] = {}
        for gate in self.gates.values():
            kind_histogram[gate.kind.value] = kind_histogram.get(gate.kind.value, 0) + 1
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": self.n_gates,
            "nets": self.n_nets,
            "depth": self.depth,
            "sites": len(self.sites()),
            **{f"kind_{k}": v for k, v in sorted(kind_histogram.items())},
        }

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, gates={self.n_gates})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Netlist):
            return NotImplemented
        return (
            self.inputs == other.inputs
            and self.outputs == other.outputs
            and self.gates == other.gates
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing is enough
        return id(self)
