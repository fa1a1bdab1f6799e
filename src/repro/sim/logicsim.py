"""Two-valued bit-parallel logic simulation.

One topological pass over the netlist evaluates every pattern of a
:class:`~repro.sim.patterns.PatternSet` simultaneously (bit *i* of each
net's value integer is the value under pattern *i*).

Two backends share this entry point: the compiled slot-indexed kernels
(:mod:`repro.sim.compile`, the default) and the interpreted walk kept as
the differential-testing oracle (``REPRO_SIM=interp``).  Both produce
identical value dicts in identical iteration order.
"""

from __future__ import annotations

from typing import Mapping

from repro.circuit.gates import eval2
from repro.circuit.netlist import Netlist, Site
from repro.errors import SimulationError
from repro.sim.compile import (
    COUNTERS,
    active_kernels,
    make_slot_values,
)
from repro.sim.patterns import PatternSet


def _check_inputs(netlist: Netlist, patterns: PatternSet) -> None:
    if tuple(patterns.inputs) != netlist.inputs:
        raise SimulationError(
            f"pattern inputs {patterns.inputs} do not match circuit inputs "
            f"{netlist.inputs}"
        )


def _split_overrides(
    netlist: Netlist,
    overrides: Mapping[Site, int] | None,
    mask: int,
) -> tuple[dict[str, int], dict[tuple[str, int], int]]:
    """Validate and split overrides into stem and pin maps."""
    stem_over: dict[str, int] = {}
    pin_over: dict[tuple[str, int], int] = {}
    for site, value in (overrides or {}).items():
        netlist.validate_site(site)
        if value < 0 or value > mask:
            raise SimulationError(f"override for {site} exceeds pattern width")
        if site.is_stem:
            stem_over[site.net] = value
        else:
            pin_over[site.branch] = value
    return stem_over, pin_over


def simulate(
    netlist: Netlist,
    patterns: PatternSet,
    overrides: Mapping[Site, int] | None = None,
) -> dict[str, int]:
    """Simulate and return the value vector of *every* net.

    ``overrides`` forcibly replaces site values: a stem override replaces
    the net's driven value for all its readers (and for output observation),
    a branch override replaces the value seen by one specific gate pin only.
    Overrides are the primitive both fault injection and what-if analysis
    are built on.
    """
    _check_inputs(netlist, patterns)
    mask = patterns.mask
    stem_over, pin_over = _split_overrides(netlist, overrides, mask)
    COUNTERS.full_passes += 1
    COUNTERS.gate_evals += netlist.n_gates

    kernels = active_kernels(netlist)
    if kernels is None:
        return _simulate_interp(netlist, patterns, stem_over, pin_over, mask)

    program = kernels.program
    bits = patterns.bits
    slots = [0] * program.n_slots
    for slot, net in enumerate(netlist.inputs):
        slots[slot] = bits[net]
    kernels.run2(slots, mask, None, *program.slot_overrides(stem_over, pin_over))
    return make_slot_values(program, slots, mask)


def _simulate_interp(
    netlist: Netlist,
    patterns: PatternSet,
    stem_over: dict[str, int],
    pin_over: dict[tuple[str, int], int],
    mask: int,
) -> dict[str, int]:
    """Interpreted reference walk (differential oracle for the kernels)."""
    values: dict[str, int] = {}
    bits = patterns.bits
    for net in netlist.inputs:
        values[net] = stem_over.get(net, bits[net])
    gates = netlist.gates
    if not stem_over and not pin_over:
        # Hot path: no overrides means no per-gate dict probes and no
        # intermediate input list (eval2 folds the map lazily).
        getval = values.__getitem__
        for net in netlist.topo_order:
            gate = gates[net]
            values[net] = eval2(gate.kind, map(getval, gate.inputs), mask)
        return values
    if not pin_over:
        getval = values.__getitem__
        for net in netlist.topo_order:
            if net in stem_over:
                values[net] = stem_over[net]
                continue
            gate = gates[net]
            values[net] = eval2(gate.kind, map(getval, gate.inputs), mask)
        return values
    for net in netlist.topo_order:
        gate = gates[net]
        ins = [
            pin_over.get((net, pin), values[src])
            for pin, src in enumerate(gate.inputs)
        ]
        out = eval2(gate.kind, ins, mask)
        values[net] = stem_over.get(net, out)
    return values


def simulate_outputs(
    netlist: Netlist,
    patterns: PatternSet,
    overrides: Mapping[Site, int] | None = None,
) -> dict[str, int]:
    """Primary-output response vectors only."""
    values = simulate(netlist, patterns, overrides)
    return {net: values[net] for net in netlist.outputs}


def response_signature(outputs: Mapping[str, int], output_order: tuple[str, ...]) -> tuple[int, ...]:
    """Canonical hashable form of an output response."""
    return tuple(outputs[net] for net in output_order)


def mismatched_outputs(
    golden: Mapping[str, int], observed: Mapping[str, int], mask: int
) -> dict[str, int]:
    """Per-output bit vectors of pattern positions where responses differ.

    Raises :class:`SimulationError` when ``observed`` lacks an output that
    ``golden`` has (a truncated or mislabeled tester response).
    """
    diff: dict[str, int] = {}
    for net, gold in golden.items():
        seen = observed.get(net)
        if seen is None:
            raise SimulationError(
                f"observed response is missing output {net!r}"
            )
        delta = (gold ^ seen) & mask
        if delta:
            diff[net] = delta
    return diff
