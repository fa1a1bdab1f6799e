"""Synthetic placement and net adjacency (the layout we don't have).

Bridge defects happen between *physically adjacent* wires, but a purely
logical reproduction has no layout.  This module synthesizes a plausible
one:

- **Placement** (:func:`place`): gates sit on a grid, column = logic
  level (standard-cell rows x levelized columns), row assignment keeps
  connected gates near each other (barycenter-style averaging sweeps --
  the classic heuristic, seeded and deterministic).
- **Net geometry**: each net's bounding box spans its driver and sinks.
- **Adjacency** (:meth:`Placement.adjacent_pairs`): nets whose boxes come
  within a slice of each other are bridge-capable neighbors.

The adjacency feeds :func:`layout_bridge_pairs` -- a drop-in upgrade over
the level-proximity proxy in :mod:`repro.faults.universe` -- and the
campaign sampler, so injected shorts follow geometry rather than pure
logic distance.  It is a *model* of layout, not a router; DESIGN.md lists
it among the simulated substitutes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro._rng import make_rng
from repro.circuit.netlist import Netlist
from repro.faults.models import BridgeDefect, BridgeKind


@dataclass(frozen=True)
class Box:
    """Axis-aligned net bounding box in (column, row) cell units."""

    x0: float
    y0: float
    x1: float
    y1: float

    def distance(self, other: "Box") -> float:
        """Rectilinear gap between boxes (0 when they touch/overlap)."""
        dx = max(other.x0 - self.x1, self.x0 - other.x1, 0.0)
        dy = max(other.y0 - self.y1, self.y0 - other.y1, 0.0)
        return dx + dy


@dataclass
class Placement:
    """A synthesized placement: coordinates per net plus geometry queries."""

    netlist: Netlist
    position: dict[str, tuple[float, float]]  #: net -> (column, row)
    boxes: dict[str, Box]

    def adjacent_pairs(self, max_gap: float = 1.0) -> list[tuple[str, str]]:
        """Unordered net pairs whose routing boxes come within ``max_gap``.

        Plain quadratic scan over net boxes -- fine for the benchmark
        sizes this library targets (thousands of nets).
        """
        nets = sorted(self.boxes)
        pairs: list[tuple[str, str]] = []
        for i, a in enumerate(nets):
            box_a = self.boxes[a]
            for b in nets[i + 1 :]:
                if box_a.distance(self.boxes[b]) <= max_gap:
                    pairs.append((a, b))
        return pairs


def place(
    netlist: Netlist,
    seed: int | random.Random | None = None,
    sweeps: int = 3,
) -> Placement:
    """Synthesize a levelized, connectivity-clustered placement."""
    rng = make_rng(seed)
    columns: dict[str, int] = {net: netlist.level(net) for net in netlist.nets()}
    by_column: dict[int, list[str]] = {}
    for net, col in columns.items():
        by_column.setdefault(col, []).append(net)

    # Initial rows: random order within each column.
    rows: dict[str, float] = {}
    for col, nets in sorted(by_column.items()):
        order = sorted(nets)
        rng.shuffle(order)
        for row, net in enumerate(order):
            rows[net] = float(row)

    # Barycenter sweeps: pull each net toward the average row of its
    # neighbors (driver inputs + fanout readers), then re-rank per column.
    for _ in range(sweeps):
        desired: dict[str, float] = {}
        for net in netlist.nets():
            neighbor_rows = []
            gate = netlist.driver(net)
            if gate is not None:
                neighbor_rows += [rows[src] for src in gate.inputs]
            neighbor_rows += [rows[dest] for dest, _pin in netlist.fanout(net)]
            desired[net] = (
                sum(neighbor_rows) / len(neighbor_rows) if neighbor_rows else rows[net]
            )
        for col, nets in by_column.items():
            ranked = sorted(nets, key=lambda n: (desired[n], n))
            for row, net in enumerate(ranked):
                rows[net] = float(row)

    position = {net: (float(columns[net]), rows[net]) for net in netlist.nets()}

    boxes: dict[str, Box] = {}
    for net in netlist.nets():
        xs = [position[net][0]]
        ys = [position[net][1]]
        for dest, _pin in netlist.fanout(net):
            xs.append(position[dest][0])
            ys.append(position[dest][1])
        boxes[net] = Box(min(xs), min(ys), max(xs), max(ys))

    return Placement(netlist=netlist, position=position, boxes=boxes)


def layout_bridge_pairs(
    netlist: Netlist,
    placement: Placement | None = None,
    max_gap: float = 1.0,
    kind: BridgeKind = BridgeKind.DOMINANT,
    exclude_feedback: bool = True,
    seed: int | random.Random | None = None,
) -> list[BridgeDefect]:
    """Bridge candidates from synthesized geometry instead of level proxy."""
    if placement is None:
        placement = place(netlist, seed=seed)
    ids = netlist.net_ids
    pairs: list[BridgeDefect] = []
    for a, b in placement.adjacent_pairs(max_gap):
        for victim, aggressor in ((a, b), (b, a)):
            if exclude_feedback and netlist.fanout_bits([victim]) >> ids[aggressor] & 1:
                continue
            pairs.append(BridgeDefect(victim, aggressor, kind))
            if kind is not BridgeKind.DOMINANT:
                break
    return pairs
