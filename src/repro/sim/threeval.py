"""Three-valued (0/1/X) bit-parallel simulation and X injection.

This module is the analytical engine behind the assumption-free diagnosis:
forcing ``X`` at a candidate defect site and three-valued-simulating
over-approximates *every* possible faulty behavior at that site (stuck-at,
bridge, delayed, intermittent, byzantine...).  An output that stays binary
under the X injection provably cannot be corrupted by any defect at that
site for that pattern -- the pruning theorem the candidate envelope rests
on.

The compiled backend stores the ``(ones, zeros)`` planes in two flat slot
arrays.  Override vectors are confined to the pattern mask before being
handed to the kernels (the interpreted walk instead re-masks at every
downstream gate -- the resulting values are identical because every gate
evaluation masks its output); the returned dict still carries the caller's
original override objects, exactly like the interpreted path.
"""

from __future__ import annotations

from typing import Mapping

from repro._bits import popcount
from repro.circuit.gates import TV, eval3, tv_all_x, tv_const, tv_xmask
from repro.circuit.netlist import Netlist, Site
from repro.errors import SimulationError
from repro.sim.compile import COUNTERS, active_kernels, lifted_base
from repro.sim.logicsim import simulate
from repro.sim.patterns import PatternSet


def simulate3(
    netlist: Netlist,
    patterns: PatternSet,
    overrides: Mapping[Site, TV] | None = None,
) -> dict[str, TV]:
    """Full three-valued simulation with site overrides.

    Each override replaces a stem or branch value with an arbitrary
    three-valued vector ``(ones, zeros)``; binary input patterns are lifted
    automatically.  Returns the three-valued value of every net.
    """
    if tuple(patterns.inputs) != netlist.inputs:
        raise SimulationError("pattern inputs do not match circuit inputs")
    mask = patterns.mask
    stem_over: dict[str, TV] = {}
    pin_over: dict[tuple[str, int], TV] = {}
    for site, value in (overrides or {}).items():
        netlist.validate_site(site)
        if site.is_stem:
            stem_over[site.net] = value
        else:
            pin_over[site.branch] = value
    COUNTERS.full3_passes += 1
    COUNTERS.gate_evals += netlist.n_gates

    kernels = active_kernels(netlist)
    if kernels is None:
        return _simulate3_interp(netlist, patterns, stem_over, pin_over, mask)

    program = kernels.program
    bits = patterns.bits
    ones = [0] * program.n_slots
    zeros = [0] * program.n_slots
    for slot, net in enumerate(netlist.inputs):
        b = bits[net] & mask
        ones[slot] = b
        zeros[slot] = b ^ mask
    stems, pins = program.slot_overrides(stem_over, pin_over)
    kernels.run3(
        ones,
        zeros,
        mask,
        None,
        {slot: (tv[0] & mask, tv[1] & mask) for slot, tv in stems.items()},
        {key: tv[0] & mask for key, tv in pins.items()},
        {key: tv[1] & mask for key, tv in pins.items()},
    )

    values: dict[str, TV] = {}
    for slot, net in enumerate(program.net_order):
        values[net] = (ones[slot], zeros[slot])
    # Overridden nets return the caller's original (possibly unmasked)
    # vectors, as the interpreted walk does.
    for net, tv in stem_over.items():
        values[net] = tv
    return values


def _simulate3_interp(
    netlist: Netlist,
    patterns: PatternSet,
    stem_over: dict[str, TV],
    pin_over: dict[tuple[str, int], TV],
    mask: int,
) -> dict[str, TV]:
    """Interpreted reference walk (differential oracle for the kernels)."""
    values: dict[str, TV] = {}
    for net in netlist.inputs:
        values[net] = stem_over.get(net, tv_const(patterns.bits[net], mask))
    for net in netlist.topo_order:
        gate = netlist.gates[net]
        ins = [
            pin_over.get((net, pin), values[src])
            for pin, src in enumerate(gate.inputs)
        ]
        out = eval3(gate.kind, ins, mask)
        values[net] = stem_over.get(net, out)
    return values


def x_injection_reach(
    netlist: Netlist,
    patterns: PatternSet,
    site: Site,
    base_values: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Per-output X reach of forcing ``X`` at ``site`` for every pattern.

    Returns ``{output net: bit vector}`` where bit *i* set means "a defect
    at ``site`` may corrupt this output under pattern *i*".  Only outputs
    with a non-zero vector are present.

    The simulation is restricted to the fanout cone of the injection point;
    everything outside the cone provably keeps its fault-free binary value
    (X-monotonicity), so ``base_values`` (from a prior fault-free
    :func:`~repro.sim.logicsim.simulate`) supplies those directly.  This
    cone restriction is what makes per-site X analysis cheap enough to run
    for every candidate site of every failing pattern.
    """
    netlist.validate_site(site)
    if base_values is None:
        base_values = simulate(netlist, patterns)
    mask = patterns.mask

    pin_target = site.branch
    entry_net = site.net if pin_target is None else pin_target[0]
    cone = netlist.fanout_bits([entry_net])
    COUNTERS.cone3_passes += 1
    COUNTERS.gate_evals += popcount(cone)

    kernels = active_kernels(netlist)
    if kernels is None:
        return _x_reach_interp(
            netlist, base_values, cone, entry_net, pin_target, mask
        )

    program = kernels.program
    base_on, base_zr = lifted_base(program, base_values, mask)
    ones = base_on.copy()
    zeros = base_zr.copy()
    slot_of = program.slot_of
    if pin_target is None:
        kernels.run3(ones, zeros, mask, cone, {slot_of[entry_net]: (mask, mask)})
    else:
        key = program.pin_key(entry_net, pin_target[1])
        kernels.run3(ones, zeros, mask, cone, {}, {key: mask}, {key: mask})

    reach: dict[str, int] = {}
    for out_net in netlist.outputs:
        slot = slot_of[out_net]
        xm = ones[slot] & zeros[slot]
        if xm:
            reach[out_net] = xm
    # A primary output that *is* the injected stem is trivially corrupted.
    if pin_target is None and entry_net in netlist.outputs:
        reach[entry_net] = mask
    return reach


def _x_reach_interp(
    netlist: Netlist,
    base_values: Mapping[str, int],
    cone: int,
    entry_net: str,
    pin_target: tuple[str, int] | None,
    mask: int,
) -> dict[str, int]:
    """Interpreted reference walk (differential oracle for the kernels)."""
    all_x = tv_all_x(mask)
    values3: dict[str, TV] = {}

    def read(net: str) -> TV:
        tv = values3.get(net)
        if tv is None:
            tv = tv_const(base_values[net], mask)
        return tv

    if pin_target is None and netlist.is_input(entry_net):
        values3[entry_net] = all_x

    for net in netlist.cone_gates(cone):
        if pin_target is None and net == entry_net:
            values3[net] = all_x
            continue
        gate = netlist.gates[net]
        ins = [
            all_x if pin_target == (net, pin_idx) else read(src)
            for pin_idx, src in enumerate(gate.inputs)
        ]
        values3[net] = eval3(gate.kind, ins, mask)

    reach: dict[str, int] = {}
    for out_net in netlist.outputs:
        tv = values3.get(out_net)
        if tv is None:
            continue
        xm = tv_xmask(tv) & mask
        if xm:
            reach[out_net] = xm
    # A primary output that *is* the injected stem is trivially corrupted.
    if pin_target is None and entry_net in netlist.outputs:
        reach[entry_net] = mask
    return reach
