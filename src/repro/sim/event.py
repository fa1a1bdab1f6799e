"""Cone-restricted incremental resimulation.

Given the fault-free value of every net, re-evaluating a what-if scenario
(a set of site overrides) only requires visiting the gates in the combined
fanout cone of the overridden sites.  For localized changes -- the common
case in fault simulation, critical path tracing and candidate refinement --
this is dramatically cheaper than a full-netlist pass.

The compiled backend evaluates the cone with a guarded straight-line kernel
over the flat slot array; when ``base_values`` came from the compiled
:func:`~repro.sim.logicsim.simulate` (a ``SlotValues``), the base slot list
is reused directly and the whole resimulation allocates one list copy
and the pass's flag list.
"""

from __future__ import annotations

from typing import Mapping

from repro._bits import bit_positions, popcount
from repro.circuit.gates import eval2
from repro.circuit.netlist import Netlist, Site
from repro.errors import SimulationError
from repro.sim.compile import COUNTERS, active_kernels, base_slots


def _split_resim_overrides(
    netlist: Netlist, overrides: Mapping[Site, int], mask: int
) -> tuple[dict[str, int], dict[tuple[str, int], int], int]:
    """Validate overrides, split into stem/pin maps, return the fanout cone
    as a bitset (:meth:`~repro.circuit.netlist.Netlist.fanout_bits`)."""
    stem_over: dict[str, int] = {}
    pin_over: dict[tuple[str, int], int] = {}
    roots: list[str] = []
    for site, value in overrides.items():
        netlist.validate_site(site)
        if value < 0 or value > mask:
            raise SimulationError(f"override for {site} exceeds pattern width")
        if site.is_stem:
            stem_over[site.net] = value
            roots.append(site.net)
        else:
            pin_over[site.branch] = value
            roots.append(site.branch[0])
    return stem_over, pin_over, netlist.fanout_bits(roots)


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
    stem_over, pin_over, cone = _split_resim_overrides(netlist, overrides, mask)
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


def resim_output_diff(
    netlist: Netlist,
    base_values: Mapping[str, int],
    overrides: Mapping[Site, int],
    mask: int,
) -> dict[str, int]:
    """Per-*output* difference vectors of resimulating with ``overrides``.

    Exactly ``changed_outputs(netlist, resimulate_with_overrides(...))``,
    but the compiled path skips materializing the full changed-nets map --
    the cone kernel runs on the flat slot array and only the output slots
    are compared.  This is the hot query of the cross-stage cache (flip
    signatures, per-test assignment diffs, fault-model responses).
    """
    stem_over, pin_over, cone = _split_resim_overrides(netlist, overrides, mask)
    COUNTERS.cone_passes += 1
    COUNTERS.gate_evals += popcount(cone)

    kernels = active_kernels(netlist)
    if kernels is None:
        changed = _resim_interp(netlist, base_values, stem_over, pin_over, cone, mask)
        return changed_outputs(netlist, changed, base_values, mask)

    program = kernels.program
    base = base_slots(program, base_values)
    slots = base.copy()
    kernels.run2(slots, mask, cone, *program.slot_overrides(stem_over, pin_over))
    diff: dict[str, int] = {}
    for net, slot in zip(netlist.outputs, program.out_slots):
        delta = slots[slot] ^ base[slot]
        if delta:
            diff[net] = delta
    return diff


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
