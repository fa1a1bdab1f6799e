"""Compiled bit-parallel simulation kernels.

The interpreted simulators (:mod:`repro.sim.logicsim`, :mod:`repro.sim.event`,
:mod:`repro.sim.threeval`) walk ``topo_order`` with a per-gate ``eval2`` /
``eval3`` dispatch, two dict reads per pin and a fresh input list per gate.
Diagnosis bottoms out in thousands of near-identical passes over the same
netlist, so this module trades a one-time code generation step per netlist
for straight-line evaluators:

- **Slot program.**  Nets are numbered into integer *slots* -- primary
  inputs first, then gate outputs in topological order, the order of
  :meth:`~repro.circuit.netlist.Netlist.nets` -- and each gate becomes a
  flat ``(out_slot, kind, input_slots)`` op.  Net values live in a plain
  list indexed by slot, so a gate evaluation is a couple of list reads and
  one store.  A cone bitset from
  :meth:`~repro.circuit.netlist.Netlist.fanout_bits` is therefore also a
  bitset over slots.
- **Codegen.**  For each netlist a specialized Python function is emitted
  (one guarded statement per gate, ``if c[k]: v[k] = ...``, constants
  folded in) and compiled with ``exec``.  ``c`` is a per-pass list of
  flags, one per slot, built from a cone bitset; a full pass is a cone of
  every gate.  Stem overrides are written into the slot list before the
  pass and their gates' flags cleared, so the kernels never probe them.
  Four variants cover the engine's needs: {2-valued, 3-valued} x {no pin
  overrides, pin overrides}, generated lazily on first use.
- **Caching.**  Kernel sets are cached per netlist *content* fingerprint
  (:meth:`repro.circuit.netlist.Netlist.fingerprint`), mirroring the
  pattern-fingerprint keying of the campaign dictionary caches, so
  structurally identical netlists built independently share kernels.

Pin overrides are keyed by the integer ``out_slot * stride + pin`` (where
``stride`` is the maximum gate arity) to avoid tuple allocation in the hot
loop.  The interpreted path remains the differential-testing oracle and is
selectable at call time with ``REPRO_SIM=interp``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Mapping

from repro._bits import flag_list
from repro.circuit.gates import GateKind
from repro.circuit.netlist import Netlist
from repro.errors import SimulationError
from repro.obs.metrics import record_kernel_compile
from repro.obs.trace import trace_event

#: Netlists above this gate count fall back to the interpreted simulators
#: (codegen time and bytecode size grow linearly with the gate count).
MAX_COMPILED_GATES = 20_000

_KERNEL_CACHE_LIMIT = 64


# ---------------------------------------------------------------------------
# Perf counters
# ---------------------------------------------------------------------------


@dataclass
class SimCounters:
    """Global simulation effort counters.

    Counters are incremented at the dispatcher level -- *before* the
    backend split -- so the interpreted and compiled paths report
    identical numbers and reports stay byte-identical across ``REPRO_SIM``
    settings.  (``kernel_compiles`` is the only backend-specific counter
    and is never surfaced in reports.)
    ``gate_evals`` counts nets visited: a full pass adds the gate count, a
    cone pass adds the cone size, a critical-path sensitivity adds one.
    """

    full_passes: int = 0  #: 2-valued full-netlist passes
    cone_passes: int = 0  #: 2-valued cone-restricted resimulations
    full3_passes: int = 0  #: 3-valued full-netlist passes
    cone3_passes: int = 0  #: 3-valued cone passes (X injection)
    gate_evals: int = 0  #: nets visited across all passes
    kernel_compiles: int = 0  #: kernel variants codegen'd (compiled backend)
    flip_hits: int = 0  #: flip-signature memo hits (SimContext)
    flip_misses: int = 0
    resim_hits: int = 0  #: override-signature resim memo hits (SimContext)
    resim_misses: int = 0
    xreach_hits: int = 0  #: X-reach memo hits (SimContext)
    xreach_misses: int = 0
    context_hits: int = 0  #: SimContext registry hits
    context_misses: int = 0

    def snapshot(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta(self, before: Mapping[str, int]) -> dict[str, int]:
        """Counter increments since a :meth:`snapshot`."""
        return {
            f.name: getattr(self, f.name) - before.get(f.name, 0)
            for f in fields(self)
        }

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


COUNTERS = SimCounters()


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------


_BACKEND_PARSE: tuple[str | None, str] | None = None


def backend() -> str:
    """The active simulation backend: ``"compiled"`` or ``"interp"``.

    Read from the ``REPRO_SIM`` environment variable at every call so tests
    and the CI escape hatch can switch backends without re-importing; only
    the normalization of the raw value is cached.
    """
    global _BACKEND_PARSE
    raw = os.environ.get("REPRO_SIM")
    cached = _BACKEND_PARSE
    if cached is not None and cached[0] == raw:
        return cached[1]
    text = (raw or "compiled").strip().lower()
    if text in ("", "compiled", "compile", "kernel", "kernels"):
        resolved = "compiled"
    elif text in ("interp", "interpreted", "python"):
        resolved = "interp"
    else:
        raise SimulationError(
            f"unknown REPRO_SIM backend {raw!r} (expected 'compiled' or 'interp')"
        )
    _BACKEND_PARSE = (raw, resolved)
    return resolved


# ---------------------------------------------------------------------------
# Slot program
# ---------------------------------------------------------------------------


class SlotProgram:
    """A netlist levelized into a flat, slot-indexed straight-line program."""

    __slots__ = (
        "fingerprint",
        "net_order",
        "slot_of",
        "n_inputs",
        "n_slots",
        "out_slots",
        "stride",
        "ops",
    )

    def __init__(self, netlist: Netlist):
        self.fingerprint = netlist.fingerprint()
        self.net_order: tuple[str, ...] = tuple(netlist.nets())
        self.slot_of: Mapping[str, int] = netlist.net_ids
        self.n_inputs = len(netlist.inputs)
        self.n_slots = len(self.net_order)
        self.out_slots: tuple[int, ...] = tuple(
            self.slot_of[net] for net in netlist.outputs
        )
        ops: list[tuple[int, GateKind, tuple[int, ...]]] = []
        stride = 1
        for net in netlist.topo_order:
            gate = netlist.gates[net]
            srcs = tuple(self.slot_of[src] for src in gate.inputs)
            stride = max(stride, len(srcs))
            ops.append((self.slot_of[net], gate.kind, srcs))
        self.ops = tuple(ops)
        self.stride = stride

    def pin_key(self, gate_net: str, pin: int) -> int:
        """Integer pin-override key for pin ``pin`` of gate ``gate_net``."""
        return self.slot_of[gate_net] * self.stride + pin

    def slot_overrides(
        self,
        stems: Mapping[str, int],
        pins: Mapping[tuple[str, int], int],
    ) -> tuple[dict[int, int], dict[int, int]]:
        """Stem overrides by net as overrides by slot, and pin overrides
        by ``(gate, pin)`` as overrides by :meth:`pin_key`."""
        slot_of, stride = self.slot_of, self.stride
        return (
            {slot_of[net]: value for net, value in stems.items()},
            {
                slot_of[gate] * stride + pin: value
                for (gate, pin), value in pins.items()
            },
        )

    def flags(self, cone: int | None) -> list[int]:
        """The guard list of one pass: per slot, 1 when the slot is in
        ``cone`` (a bitset over slots), or 1 throughout for ``None``, a
        full pass."""
        if cone is None:
            return [1] * self.n_slots
        return flag_list(cone, self.n_slots)


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


def _expr2(kind: GateKind, srcs: list[str]) -> str:
    """Two-valued expression for one gate; operands are atoms <= mask."""
    if kind is GateKind.AND:
        return " & ".join(srcs)
    if kind is GateKind.NAND:
        return "(" + " & ".join(srcs) + ") ^ m"
    if kind is GateKind.OR:
        return " | ".join(srcs)
    if kind is GateKind.NOR:
        return "(" + " | ".join(srcs) + ") ^ m"
    if kind is GateKind.XOR:
        return " ^ ".join(srcs)
    if kind is GateKind.XNOR:
        return "(" + " ^ ".join(srcs) + ") ^ m"
    if kind is GateKind.BUF:
        return srcs[0]
    if kind is GateKind.NOT:
        return srcs[0] + " ^ m"
    if kind is GateKind.MUX:
        a, b, sel = srcs
        return f"(({a} & ~{sel}) | ({b} & {sel})) & m"
    if kind is GateKind.CONST0:
        return "0"
    if kind is GateKind.CONST1:
        return "m"
    raise SimulationError(f"cannot compile gate kind {kind}")


def _lines3(kind: GateKind, srcs: list[tuple[str, str]], k: int) -> list[str]:
    """Three-valued statements for one gate.

    ``srcs`` holds (ones, zeros) operand atoms, already confined to the
    mask; the emitted code maintains that invariant, which is what makes
    the per-step masking of the interpreted ``eval3`` redundant here.
    """
    on_t, zr_t = f"o[{k}]", f"z[{k}]"
    if kind is GateKind.AND or kind is GateKind.NAND:
        on = " & ".join(s for s, _ in srcs)
        zr = " | ".join(s for _, s in srcs)
        if kind is GateKind.NAND:
            on, zr = zr, on
        return [f"{on_t} = {on}", f"{zr_t} = {zr}"]
    if kind is GateKind.OR or kind is GateKind.NOR:
        on = " | ".join(s for s, _ in srcs)
        zr = " & ".join(s for _, s in srcs)
        if kind is GateKind.NOR:
            on, zr = zr, on
        return [f"{on_t} = {on}", f"{zr_t} = {zr}"]
    if kind is GateKind.XOR or kind is GateKind.XNOR:
        lines = [f"_a = {srcs[0][0]}", f"_b = {srcs[0][1]}"]
        for on_s, zr_s in srcs[1:]:
            lines.append(
                f"_a, _b = (_a & {zr_s}) | (_b & {on_s}), "
                f"(_a & {on_s}) | (_b & {zr_s})"
            )
        if kind is GateKind.XNOR:
            return lines + [f"{on_t} = _b", f"{zr_t} = _a"]
        return lines + [f"{on_t} = _a", f"{zr_t} = _b"]
    if kind is GateKind.BUF:
        return [f"{on_t} = {srcs[0][0]}", f"{zr_t} = {srcs[0][1]}"]
    if kind is GateKind.NOT:
        return [f"{on_t} = {srcs[0][1]}", f"{zr_t} = {srcs[0][0]}"]
    if kind is GateKind.MUX:
        (a1, a0), (b1, b0), (s1, s0) = srcs
        return [
            f"{on_t} = ({s0} & {a1}) | ({s1} & {b1})",
            f"{zr_t} = ({s0} & {a0}) | ({s1} & {b0})",
        ]
    if kind is GateKind.CONST0:
        return [f"{on_t} = 0", f"{zr_t} = m"]
    if kind is GateKind.CONST1:
        return [f"{on_t} = m", f"{zr_t} = 0"]
    raise SimulationError(f"cannot compile gate kind {kind}")


#: Variant name -> (three_valued, pin_overrides)
VARIANTS: dict[str, tuple[bool, bool]] = {
    "sim2": (False, False),
    "sim2_p": (False, True),
    "sim3": (True, False),
    "sim3_p": (True, True),
}


def emit_kernel_source(program: SlotProgram, variant: str) -> str:
    """Render the Python source of one kernel variant for ``program``."""
    three, pins = VARIANTS[variant]
    args = ["o", "z"] if three else ["v"]
    args.extend(["m", "c"])
    if pins:
        args.extend(["po", "pz"] if three else ["pp"])
    lines = [f"def {variant}({', '.join(args)}):"]
    stride = program.stride
    for k, kind, srcs in program.ops:
        if three:
            if pins:
                operands = [
                    (
                        f"po.get({k * stride + pin}, o[{src}])",
                        f"pz.get({k * stride + pin}, z[{src}])",
                    )
                    for pin, src in enumerate(srcs)
                ]
            else:
                operands = [(f"o[{src}]", f"z[{src}]") for src in srcs]
            body = "; ".join(_lines3(kind, operands, k))
        else:
            if pins:
                operands2 = [
                    f"pp.get({k * stride + pin}, v[{src}])"
                    for pin, src in enumerate(srcs)
                ]
            else:
                operands2 = [f"v[{src}]" for src in srcs]
            body = f"v[{k}] = {_expr2(kind, operands2)}"
        lines.append(f"    if c[{k}]: {body}")
    if not program.ops:
        lines.append("    pass")
    return "\n".join(lines) + "\n"


class KernelSet:
    """Lazily compiled kernel variants for one netlist program."""

    __slots__ = ("program", "_fns")

    def __init__(self, program: SlotProgram):
        self.program = program
        self._fns: dict[str, object] = {}

    def fn(self, variant: str):
        func = self._fns.get(variant)
        if func is None:
            source = emit_kernel_source(self.program, variant)
            namespace: dict[str, object] = {}
            code = compile(
                source,
                f"<kernel:{self.program.fingerprint}:{variant}>",
                "exec",
            )
            exec(code, namespace)
            func = self._fns[variant] = namespace[variant]
            COUNTERS.kernel_compiles += 1
            trace_event("sim.kernel_compile", variant=variant)
            record_kernel_compile(variant)
        return func

    def run2(
        self,
        v: list,
        mask: int,
        cone: int | None,
        stems: Mapping[int, int],
        pins: Mapping[int, int] | None = None,
    ) -> None:
        """Two-valued pass over the slot list ``v``, in place.

        Evaluates the gates of ``cone`` (a bitset over slots; ``None`` for
        every gate) after writing each stem override (slot -> value) into
        ``v`` and taking its gate out of the pass; ``pins`` holds pin
        overrides by :meth:`SlotProgram.pin_key`.
        """
        c = self.program.flags(cone)
        for slot, value in stems.items():
            v[slot] = value
            c[slot] = 0
        if pins:
            self.fn("sim2_p")(v, mask, c, pins)
        else:
            self.fn("sim2")(v, mask, c)

    def run3(
        self,
        o: list,
        z: list,
        mask: int,
        cone: int | None,
        stems: Mapping[int, tuple[int, int]],
        po: Mapping[int, int] | None = None,
        pz: Mapping[int, int] | None = None,
    ) -> None:
        """Three-valued :meth:`run2` over the ``(ones, zeros)`` slot lists:
        stem overrides are ``(ones, zeros)`` pairs, and pin overrides come
        as two maps, ``po`` of ones and ``pz`` of zeros, keyed alike."""
        c = self.program.flags(cone)
        for slot, (ones, zeros) in stems.items():
            o[slot] = ones
            z[slot] = zeros
            c[slot] = 0
        if po:
            self.fn("sim3_p")(o, z, mask, c, po, pz)
        else:
            self.fn("sim3")(o, z, mask, c)


# ---------------------------------------------------------------------------
# Kernel cache
# ---------------------------------------------------------------------------

_KERNELS: dict[str, KernelSet] = {}

#: Bumped by :func:`reset_kernel_cache` so the per-instance fast path below
#: cannot outlive a reset: a stale ``netlist._kernel_set`` from before the
#: reset fails the generation check and rebuilds.  Without this, resetting
#: cleared ``_KERNELS`` but any live Netlist kept serving its old compiled
#: kernels, so ``sim_kernel_compiles`` depended on object identity instead
#: of cache state.
_KERNEL_GENERATION = 0


def kernels_for(netlist: Netlist) -> KernelSet:
    """The (cached) kernel set for ``netlist``, keyed by content hash."""
    cached = getattr(netlist, "_kernel_set", None)
    if cached is not None and cached[0] == _KERNEL_GENERATION:
        return cached[1]
    fp = netlist.fingerprint()
    kernels = _KERNELS.get(fp)
    if kernels is None:
        if len(_KERNELS) >= _KERNEL_CACHE_LIMIT:
            _KERNELS.clear()
        kernels = _KERNELS[fp] = KernelSet(SlotProgram(netlist))
    # Instance fast path; Netlist is immutable after construction.
    netlist._kernel_set = (_KERNEL_GENERATION, kernels)
    return kernels


def active_kernels(netlist: Netlist) -> KernelSet | None:
    """Kernels when a compiled backend should handle ``netlist``.

    ``None`` means: use the interpreted path (escape hatch requested via
    ``REPRO_SIM=interp``, or the netlist exceeds the codegen size cap).
    """
    if netlist.n_gates > MAX_COMPILED_GATES:
        return None
    if backend() == "interp":
        return None
    return kernels_for(netlist)


def reset_kernel_cache() -> None:
    """Drop every cached kernel set (testing / benchmarking hook)."""
    global _KERNEL_GENERATION
    _KERNEL_GENERATION += 1
    _KERNELS.clear()


# ---------------------------------------------------------------------------
# Slot-aware simulation results
# ---------------------------------------------------------------------------


class SlotValues(dict):
    """A ``simulate`` result dict that remembers its flat slot layout.

    Behaves exactly like the historical ``{net: bits}`` dict, but carries
    the underlying slot list so downstream cone resimulations can skip the
    O(nets) dict-to-list conversion, and caches the 3-valued lift of the
    base values for X-injection prefills.
    """

    __slots__ = ("slots", "program", "mask", "_lifted")


def make_slot_values(
    program: SlotProgram, slots: list, mask: int
) -> SlotValues:
    values = SlotValues(zip(program.net_order, slots))
    values.slots = slots
    values.program = program
    values.mask = mask
    values._lifted = None
    return values


def base_slots(program: SlotProgram, base_values: Mapping[str, int]) -> list:
    """Flat slot list of ``base_values``; O(1) when they came from the
    compiled ``simulate`` of the same netlist."""
    if (
        isinstance(base_values, SlotValues)
        and base_values.program is program
    ):
        return base_values.slots
    return [base_values[net] for net in program.net_order]


def lifted_base(
    program: SlotProgram, base_values: Mapping[str, int], mask: int
) -> tuple[list, list]:
    """Pristine (ones, zeros) slot lists of the lifted binary base values.

    Cached on :class:`SlotValues` instances; callers must copy before
    mutating (the cone kernels write in place).
    """
    if (
        isinstance(base_values, SlotValues)
        and base_values.program is program
    ):
        lifted = base_values._lifted
        if lifted is None:
            ones = base_values.slots
            lifted = base_values._lifted = (ones, [x ^ mask for x in ones])
        return lifted
    ones = [base_values[net] & mask for net in program.net_order]
    return ones, [x ^ mask for x in ones]
