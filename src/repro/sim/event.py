"""Cone-restricted incremental resimulation.

Given the fault-free value of every net, re-evaluating a what-if scenario
(a set of site overrides) only requires visiting the gates in the combined
fanout cone of the overridden sites.  For localized changes -- the common
case in fault simulation, critical path tracing and candidate refinement --
this is dramatically cheaper than a full-netlist pass.

The compiled backend evaluates the cone with a guarded straight-line kernel
over the flat slot array; when ``base_values`` came from the compiled
:func:`~repro.sim.logicsim.simulate` (a ``SlotValues``), the base slot list
is reused directly and the whole resimulation allocates one list copy.
"""

from __future__ import annotations

from typing import Mapping

from repro.circuit.gates import eval2
from repro.circuit.netlist import Netlist, Site
from repro.errors import SimulationError
from repro.sim.compile import COUNTERS, active_kernels, base_slots


def _split_resim_overrides(
    netlist: Netlist, overrides: Mapping[Site, int], mask: int
) -> tuple[dict[str, int], dict[tuple[str, int], int], frozenset[str]]:
    """Validate overrides, split into stem/pin maps, return the fanout cone."""
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
    return stem_over, pin_over, netlist.fanout_cone(roots)


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
    COUNTERS.gate_evals += len(cone)

    kernels = active_kernels(netlist)
    if kernels is None:
        return _resim_interp(netlist, base_values, stem_over, pin_over, cone, mask)

    program = kernels.program
    base = base_slots(program, base_values)
    slot_of = program.slot_of
    gates = netlist.gates
    st: dict[int, int] = {}
    input_slots: list[int] = []
    for net, value in stem_over.items():
        slot = slot_of[net]
        st[slot] = value
        if net not in gates:
            input_slots.append(slot)
    input_slots.sort()
    if pin_over:
        stride = program.stride
        pp = {
            slot_of[gate] * stride + pin: value
            for (gate, pin), value in pin_over.items()
        }
    else:
        pp = {}

    slots = base.copy()
    changed = {}
    net_order = program.net_order
    # Overridden inputs first, in primary-input (= slot) order, matching
    # the interpreted walk's insertion order.
    for slot in input_slots:
        value = st[slot]
        slots[slot] = value
        if value != base[slot]:
            changed[net_order[slot]] = value

    cone_set, cone_order = kernels.cone_slots(cone)
    if pp:
        kernels.fn("cone2_sp")(slots, mask, cone_set, st, pp)
    else:
        kernels.fn("cone2_s")(slots, mask, cone_set, st)

    for slot in cone_order:
        value = slots[slot]
        if value != base[slot]:
            changed[net_order[slot]] = value
    return changed


def _resim_interp(
    netlist: Netlist,
    base_values: Mapping[str, int],
    stem_over: dict[str, int],
    pin_over: dict[tuple[str, int], int],
    cone: frozenset[str],
    mask: int,
) -> dict[str, int]:
    """Interpreted reference walk (differential oracle for the kernels)."""
    changed: dict[str, int] = {}

    def read(net: str) -> int:
        return changed.get(net, base_values[net])

    for net in netlist.inputs:
        if net in stem_over and stem_over[net] != base_values[net]:
            changed[net] = stem_over[net]
    for net in netlist.topo_order:
        if net not in cone:
            continue
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
    COUNTERS.gate_evals += len(cone)

    kernels = active_kernels(netlist)
    if kernels is None:
        changed = _resim_interp(netlist, base_values, stem_over, pin_over, cone, mask)
        return changed_outputs(netlist, changed, base_values, mask)

    program = kernels.program
    base = base_slots(program, base_values)
    slot_of = program.slot_of
    gates = netlist.gates
    st: dict[int, int] = {}
    input_slots: list[int] = []
    for net, value in stem_over.items():
        slot = slot_of[net]
        st[slot] = value
        if net not in gates:
            input_slots.append(slot)
    if pin_over:
        stride = program.stride
        pp = {
            slot_of[gate] * stride + pin: value
            for (gate, pin), value in pin_over.items()
        }
    else:
        pp = {}

    slots = base.copy()
    for slot in input_slots:
        slots[slot] = st[slot]
    cone_set, _cone_order = kernels.cone_slots(cone)
    if pp:
        kernels.fn("cone2_sp")(slots, mask, cone_set, st, pp)
    else:
        kernels.fn("cone2_s")(slots, mask, cone_set, st)

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
