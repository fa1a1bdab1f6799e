"""PODEM automatic test pattern generation for stuck-at faults.

A scalar good/faulty-machine implementation of Goel's PODEM: decisions are
made only on primary inputs, chosen by backtracing an objective (fault
activation first, then D-frontier propagation) through the netlist, with
chronological backtracking on conflicts and an X-path check for early
pruning.  Level-based controllability/observability stand in for SCOAP.

Implication is event-driven.  Both machines keep their values across
decisions: assigning an input re-evaluates, in topological order, only the
gates whose inputs changed, and a backtrack restores them from a trail.
Every search starts from the engine's shared all-X good state, with the
fault's own fanout cone evaluated into the faulty machine.

The same machinery exposes :func:`justify`, which finds an input assignment
driving one internal net to a required value -- used by launch-on-capture
transition test generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from repro._rng import make_rng
from repro.circuit.gates import GateKind, eval3
from repro.circuit.netlist import Netlist
from repro.errors import AtpgError
from repro.faults.models import StuckAtDefect

X = 2  # scalar three-valued "unknown"

#: Scalar 0/1/X as a one-pattern three-valued ``(ones, zeros)`` pair, and
#: back again, indexed by ``ones | zeros << 1`` (index 0 never occurs).
_TV = ((0, 1), (1, 0), (1, 1))
_SCALAR = (X, 1, 0, X)


@dataclass
class PodemResult:
    """Outcome of one PODEM run."""

    pattern: dict[str, int] | None  #: full input assignment, or None
    status: str  #: "detected", "untestable" or "aborted"
    backtracks: int

    @property
    def success(self) -> bool:
        return self.pattern is not None


class Podem:
    """PODEM engine bound to one netlist.

    Parameters
    ----------
    netlist:
        Target circuit.
    max_backtracks:
        Abort threshold; an abort means "gave up", not "untestable".
    seed:
        Filler values for don't-care inputs of successful patterns.
    """

    def __init__(self, netlist: Netlist, max_backtracks: int = 512, seed: int = 0):
        self.netlist = netlist
        self.max_backtracks = max_backtracks
        self._rng = make_rng(seed)
        #: Gate evaluations spent by the implication engine, both machines
        #: counted: the deterministic unit PODEM work is budgeted in.
        self.implications = 0
        order = netlist.topo_order
        self._order = order
        self._rank = {net: r for r, net in enumerate(order)}
        self._ops = [(netlist.gates[net].kind, netlist.gates[net].inputs) for net in order]
        self._readers = {
            net: tuple({self._rank[gate] for gate, _pin in netlist.fanout(net)})
            for net in netlist.nets()
        }
        # The fault under search: the faulty machine may differ from the
        # good one only inside ``_cone`` (its gates, in topological order,
        # are ``_cone_gates``); ``_stem`` is forced to ``_forced``, or
        # ``_pin`` (gate, pin) reads it.
        self._cone: frozenset[str] = frozenset()
        self._cone_gates: tuple[str, ...] = ()
        self._stem: str | None = None
        self._pin: tuple[str, int] | None = None
        self._forced = X
        # (net, previous good, previous faulty) per changed net, and the
        # trail length at each decision, for undoing it.
        self._trail: list[tuple[str, int, int]] = []
        self._marks: list[int] = []
        # Evaluate every gate once with every input X: the good-machine
        # state each search starts from.
        self._good = self._faulty = dict.fromkeys(netlist.nets(), X)
        self._propagate(list(range(len(order))))
        self._all_x = self._good

    # -- public API -----------------------------------------------------------

    def generate(self, fault: StuckAtDefect) -> PodemResult:
        """Find a pattern detecting ``fault``, prove it untestable, or abort."""
        self.netlist.validate_site(fault.site)
        return self._search(fault)

    # -- implication engine ----------------------------------------------------

    def _start(self, fault: StuckAtDefect | None) -> None:
        """Reset both machines to "every input X", with ``fault`` injected."""
        self._good = self._all_x.copy()
        self._faulty = self._all_x.copy()
        self._trail = []
        self._marks = []
        self._stem = self._pin = None
        if fault is None:
            self._cone = frozenset()
            self._cone_gates = ()
            return
        site = fault.site
        self._forced = fault.value
        if site.branch is not None:
            self._pin = site.branch
            entry = site.branch[0]
        else:
            self._stem = entry = site.net
        self._cone_gates = tuple(
            self.netlist.cone_gates(self.netlist.fanout_bits([entry]))
        )
        self._cone = frozenset(self._cone_gates).union([entry])
        if entry in self._rank:
            seeds = [self._rank[entry]]
        else:  # a primary input's stem
            self._faulty[entry] = fault.value
            seeds = list(self._readers[entry])
        self._propagate(seeds)
        self._trail = []

    def _imply(self, pi: str, value: int) -> None:
        """Assign primary input ``pi`` and propagate the consequences."""
        self._marks.append(len(self._trail))
        self._trail.append((pi, self._good[pi], self._faulty[pi]))
        self._good[pi] = value
        if pi != self._stem:
            self._faulty[pi] = value
        self._propagate(list(self._readers[pi]))

    def _undo(self) -> None:
        """Take back the latest assignment and everything it implied."""
        mark = self._marks.pop()
        trail, good, faulty = self._trail, self._good, self._faulty
        while len(trail) > mark:
            net, g, f = trail.pop()
            good[net] = g
            faulty[net] = f

    def _propagate(self, heap: list[int]) -> None:
        """Re-evaluate the gates ranked in ``heap`` in topological order.

        A gate whose good or faulty value changes queues its readers and
        leaves its previous values on the trail.
        """
        order, ops, readers = self._order, self._ops, self._readers
        good, faulty, trail = self._good, self._faulty, self._trail
        cone, stem, forced = self._cone, self._stem, self._forced
        pin_gate, pin = self._pin or (None, -1)
        queued = set(heap)
        heapify(heap)
        evals = 0
        while heap:
            rank = heappop(heap)
            net = order[rank]
            kind, ins = ops[rank]
            o, z = eval3(kind, [_TV[good[src]] for src in ins], 1)
            g = _SCALAR[o | z << 1]
            evals += 1
            if net == stem:
                f = forced
            elif net in cone:
                tvs = [_TV[faulty[src]] for src in ins]
                if net == pin_gate:
                    tvs[pin] = _TV[forced]
                o, z = eval3(kind, tvs, 1)
                f = _SCALAR[o | z << 1]
                evals += 1
            else:
                f = g
            old_g, old_f = good[net], faulty[net]
            if g != old_g or f != old_f:
                trail.append((net, old_g, old_f))
                good[net] = g
                faulty[net] = f
                for reader in readers[net]:
                    if reader not in queued:
                        queued.add(reader)
                        heappush(heap, reader)
        self.implications += evals

    # -- search helpers ----------------------------------------------------------

    @staticmethod
    def _error(good: dict[str, int], faulty: dict[str, int], net: str) -> bool:
        return good[net] != X and faulty[net] != X and good[net] != faulty[net]

    def _detected(self, good: dict[str, int], faulty: dict[str, int]) -> bool:
        return any(self._error(good, faulty, out) for out in self.netlist.outputs)

    def _x_path_exists(self, good: dict[str, int], faulty: dict[str, int]) -> bool:
        """Can some error still reach an output through X nets?

        Pure pruning heuristic: when no *net* yet carries an error (e.g. a
        just-activated branch fault, whose error lives at a pin), pruning
        does not apply and the search must continue.  Only the fault's
        cone can carry an error, and every path from an error to an output
        stays inside it, so only the cone is scanned.
        """
        cone = self._cone
        if not any(self._error(good, faulty, net) for net in cone):
            return True
        alive = {
            net
            for net in cone
            if self._error(good, faulty, net) or faulty[net] == X or good[net] == X
        }
        for out in self.netlist.outputs:
            if out in alive and self._reaches_error_backward(out, alive, good, faulty):
                return True
        return False

    def _reaches_error_backward(
        self,
        root: str,
        alive: set[str],
        good: dict[str, int],
        faulty: dict[str, int],
    ) -> bool:
        """DFS from an output through 'alive' nets looking for an error net."""
        stack = [root]
        seen: set[str] = set()
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if self._error(good, faulty, net):
                return True
            gate = self.netlist.gates.get(net)
            if gate is None:
                continue
            stack.extend(src for src in gate.inputs if src in alive and src not in seen)
        return False

    def _d_frontier(
        self,
        good: dict[str, int],
        faulty: dict[str, int],
        fault: StuckAtDefect | None = None,
    ) -> list[str]:
        # A gate reading an error net lies in the fault's cone.
        frontier = []
        for net in self._cone_gates:
            if good[net] != X and faulty[net] != X:
                continue
            gate = self.netlist.gates[net]
            if any(self._error(good, faulty, src) for src in gate.inputs):
                frontier.append(net)
        # A branch fault's error lives at a pin, not on a net: once the stem
        # carries the activating value, the reading gate is frontier material.
        if fault is not None and fault.site.branch is not None:
            gate_out = fault.site.branch[0]
            activated = good[fault.site.net] == fault.value ^ 1
            undecided = good[gate_out] == X or faulty[gate_out] == X
            if activated and undecided and gate_out not in frontier:
                frontier.insert(0, gate_out)
        return frontier

    def _objective(
        self,
        fault: StuckAtDefect,
        good: dict[str, int],
        faulty: dict[str, int],
    ) -> tuple[str, int] | None:
        site = fault.site
        need = fault.value ^ 1
        if good[site.net] == X:
            return (site.net, need)
        if good[site.net] != need:
            return None  # activation contradicted: backtrack
        frontier = self._d_frontier(good, faulty, fault)
        if not frontier:
            return None
        # Lowest-level frontier gate first (shortest remaining propagation).
        frontier.sort(key=self.netlist.level)
        gate = self.netlist.gates[frontier[0]]
        ctrl = gate.kind.controlling_value
        want = 1 if ctrl is None else ctrl ^ 1
        for src in gate.inputs:
            if good[src] == X:
                return (src, want)
        return None

    def _backtrace(self, net: str, value: int, good: dict[str, int]) -> tuple[str, int]:
        """Walk an objective back to an unassigned primary input."""
        current, want = net, value
        guard = 0
        while True:
            guard += 1
            if guard > self.netlist.n_nets + len(self.netlist.inputs) + 1:
                raise AtpgError("backtrace failed to reach a primary input")
            gate = self.netlist.gates.get(current)
            if gate is None:  # primary input
                return current, want
            kind = gate.kind
            if kind is GateKind.NOT:
                current, want = gate.inputs[0], want ^ 1
                continue
            if kind is GateKind.BUF:
                current = gate.inputs[0]
                continue
            if kind is GateKind.MUX:
                a, b, sel = gate.inputs
                if good[sel] == 0:
                    current = a
                elif good[sel] == 1:
                    current = b
                elif good[a] == X and good[b] != X:
                    current = a
                elif good[b] == X and good[a] != X:
                    current = b
                else:
                    current, want = sel, self._rng.getrandbits(1)
                continue
            if kind in (GateKind.XOR, GateKind.XNOR):
                known = [good[s] for s in gate.inputs if good[s] != X]
                xs = [s for s in gate.inputs if good[s] == X]
                if not xs:
                    raise AtpgError("backtrace objective already fully assigned")
                parity = 0
                for v in known:
                    parity ^= v
                if kind is GateKind.XNOR:
                    parity ^= 1
                current, want = xs[0], want ^ parity
                continue
            ctrl = kind.controlling_value
            body = want ^ (1 if kind.inverting else 0)
            xs = [s for s in gate.inputs if good[s] == X]
            if not xs:
                raise AtpgError("backtrace objective already fully assigned")
            if (ctrl == 0 and body == 0) or (ctrl == 1 and body == 1):
                # One controlling input suffices: pick the easiest (lowest level).
                current = min(xs, key=self.netlist.level)
                want = ctrl
            else:
                # All inputs must be non-controlling: attack the hardest first.
                current = max(xs, key=self.netlist.level)
                want = ctrl ^ 1

    def _search(self, fault: StuckAtDefect | None, goal: tuple[str, int] | None = None) -> PodemResult:
        """Shared search loop for detection (fault) and justification (goal)."""
        self._start(fault)
        good, faulty = self._good, self._faulty
        assignment: dict[str, int] = {}
        decisions: list[tuple[str, int, bool]] = []  # (pi, value, alternative_tried)
        backtracks = 0
        while True:
            if fault is not None:
                done = self._detected(good, faulty)
            else:
                net, want = goal  # type: ignore[misc]
                done = good[net] == want
            if done:
                pattern = {
                    pi: assignment.get(pi, self._rng.getrandbits(1))
                    for pi in self.netlist.inputs
                }
                return PodemResult(pattern, "detected", backtracks)

            objective = self._next_objective(fault, goal, good, faulty)
            if objective is not None:
                pi, val = self._backtrace(*objective, good)
                assignment[pi] = val
                decisions.append((pi, val, False))
                self._imply(pi, val)
                continue

            # Conflict: chronological backtracking.
            while decisions:
                pi, val, tried = decisions.pop()
                del assignment[pi]
                self._undo()
                if not tried:
                    backtracks += 1
                    if backtracks > self.max_backtracks:
                        return PodemResult(None, "aborted", backtracks)
                    assignment[pi] = val ^ 1
                    decisions.append((pi, val ^ 1, True))
                    self._imply(pi, val ^ 1)
                    break
            else:
                return PodemResult(None, "untestable", backtracks)

    def _next_objective(
        self,
        fault: StuckAtDefect | None,
        goal: tuple[str, int] | None,
        good: dict[str, int],
        faulty: dict[str, int],
    ) -> tuple[str, int] | None:
        if fault is not None:
            obj = self._objective(fault, good, faulty)
            if obj is None:
                return None
            if obj[0] != fault.site.net and not self._x_path_exists(good, faulty):
                return None
            return obj
        net, want = goal  # type: ignore[misc]
        if good[net] == X:
            return (net, want)
        return None  # justified value contradicts goal -> backtrack


def justify(
    netlist: Netlist, net: str, value: int, max_backtracks: int = 512, seed: int = 0
) -> dict[str, int] | None:
    """Input assignment making ``net`` carry ``value``, or None if impossible.

    Used for the launch vector of transition test pairs.
    """
    if value not in (0, 1):
        raise AtpgError("justify target value must be 0/1")
    if net not in netlist.gates and not netlist.is_input(net):
        raise AtpgError(f"unknown net {net!r}")
    engine = Podem(netlist, max_backtracks=max_backtracks, seed=seed)
    result = engine._search(None, goal=(net, value))
    return result.pattern
