"""Cone-restricted incremental resimulation.

Given the fault-free value of every net, re-evaluating a what-if scenario
(a set of site overrides) only requires visiting the gates in the combined
fanout cone of the overridden sites.  For localized changes -- the common
case in fault simulation, critical path tracing and candidate refinement --
this is dramatically cheaper than a full-netlist pass.

:func:`resimulate_with_overrides` is the uncached primitive: it takes any
base values and returns every changed net, on whichever backend is
active, which makes it the reference the differential and property tests
compare against.  The diagnosis stages resimulate through their
:class:`~repro.sim.cache.SimContext` instead, whose memoized miss path
runs the same cone on the same kernels (:func:`_resim_interp` under
``REPRO_SIM=interp``) and compares output values only.
"""

from __future__ import annotations

from typing import Mapping

from repro._bits import bit_positions, popcount
from repro.circuit.gates import eval2
from repro.circuit.netlist import Netlist, Site
from repro.sim.compile import COUNTERS, active_kernels, base_slots
from repro.sim.logicsim import _split_overrides


def resimulate_with_overrides(
    netlist: Netlist,
    base_values: Mapping[str, int],
    overrides: Mapping[Site, int],
    mask: int,
) -> dict[str, int]:
    """Resimulate the fanout cone of ``overrides`` on top of ``base_values``.

    Returns a sparse dictionary containing only the nets whose value vector
    differs from ``base_values`` (overridden sites included when they
    changed).  Reading a missing key therefore means "unchanged".
    """
    stem_over, pin_over = _split_overrides(netlist, overrides, mask)
    cone = netlist.fanout_bits([*stem_over, *(gate for gate, _pin in pin_over)])
    COUNTERS.cone_passes += 1
    COUNTERS.gate_evals += popcount(cone)

    kernels = active_kernels(netlist)
    if kernels is None:
        return _resim_interp(netlist, base_values, stem_over, pin_over, cone, mask)

    program = kernels.program
    base = base_slots(program, base_values)
    slots = base.copy()
    kernels.run2(slots, mask, cone, *program.slot_overrides(stem_over, pin_over))
    # The cone's only inputs are the overridden ones, so slot order lists
    # them first, then its gates in topological order: the interpreted
    # walk's insertion order.
    changed = {}
    net_order = program.net_order
    for slot in bit_positions(cone):
        value = slots[slot]
        if value != base[slot]:
            changed[net_order[slot]] = value
    return changed


def _resim_interp(
    netlist: Netlist,
    base_values: Mapping[str, int],
    stem_over: dict[str, int],
    pin_over: dict[tuple[str, int], int],
    cone: int,
    mask: int,
) -> dict[str, int]:
    """Interpreted reference walk (differential oracle for the kernels)."""
    changed: dict[str, int] = {}

    def read(net: str) -> int:
        return changed.get(net, base_values[net])

    for net in netlist.inputs:
        if net in stem_over and stem_over[net] != base_values[net]:
            changed[net] = stem_over[net]
    for net in netlist.cone_gates(cone):
        if net in stem_over:
            if stem_over[net] != base_values[net]:
                changed[net] = stem_over[net]
            continue
        gate = netlist.gates[net]
        ins = [
            pin_over.get((net, pin), read(src))
            for pin, src in enumerate(gate.inputs)
        ]
        out = eval2(gate.kind, ins, mask)
        if out != base_values[net]:
            changed[net] = out
    return changed


def changed_outputs(
    netlist: Netlist, changed: Mapping[str, int], base_values: Mapping[str, int], mask: int
) -> dict[str, int]:
    """Per-output difference vectors implied by a sparse ``changed`` map."""
    diff: dict[str, int] = {}
    for net in netlist.outputs:
        if net in changed:
            delta = (changed[net] ^ base_values[net]) & mask
            if delta:
                diff[net] = delta
    return diff
