"""Multi-defect device-under-test emulation.

:class:`FaultyCircuit` wraps a netlist plus an arbitrary set of
simultaneously present defects and simulates the resulting behavior
bit-parallel over a whole pattern set.  This is the stand-in for failing
silicon: the tester harness compares its responses against the fault-free
circuit to produce the datalog the diagnosis consumes, while the injected
defect set remains available as ground truth for scoring.

Interacting defects are handled by fixpoint relaxation: bridge hooks read
the *current* value of their aggressor net, so a defect whose aggressor
lies later in topological order simply needs another sweep to settle.  A
defect combination that creates a genuinely oscillating loop (a bridge
closing a cycle through reconvergent logic) raises
:class:`~repro.errors.OscillationError` -- two-valued simulation has no
stable answer there, mirroring a real circuit that would ring or settle to
an intermediate voltage.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.circuit.gates import eval2
from repro.circuit.netlist import Netlist, Site
from repro.errors import OscillationError
from repro.faults.models import Defect, Hook, HookEnv
from repro.sim.cache import sim_context
from repro.sim.patterns import PatternSet


class FaultyCircuit:
    """A netlist with a set of injected defects."""

    def __init__(
        self,
        netlist: Netlist,
        defects: Iterable[Defect],
        max_iterations: int = 16,
    ):
        self.netlist = netlist
        self.defects: tuple[Defect, ...] = tuple(defects)
        self.max_iterations = max_iterations
        self._stem_hooks: dict[str, list[Hook]] = {}
        self._pin_hooks: dict[tuple[str, int], list[Hook]] = {}
        for defect in self.defects:
            defect.validate(netlist)
            for site, hook in defect.hooks():
                if site.is_stem:
                    self._stem_hooks.setdefault(site.net, []).append(hook)
                else:
                    self._pin_hooks.setdefault(site.branch, []).append(hook)
        # Only nets downstream of a hook can ever deviate from the fault-free
        # values (a gate outside the hooks' joint fanout cone has no hook and
        # only out-of-cone sources), so relaxation sweeps stay inside it.
        roots = set(self._stem_hooks)
        roots.update(gate_out for gate_out, _pin in self._pin_hooks)
        self._hooked_inputs = [n for n in netlist.inputs if n in self._stem_hooks]
        self._sweep_order = netlist.cone_gates(netlist.fanout_bits(roots))

    # -- ground truth -------------------------------------------------------

    def ground_truth_sites(self) -> frozenset[Site]:
        sites: set[Site] = set()
        for defect in self.defects:
            sites.update(defect.ground_truth_sites())
        return frozenset(sites)

    # -- simulation -----------------------------------------------------------

    def simulate(self, patterns: PatternSet) -> dict[str, int]:
        """Settled value of every net under every pattern."""
        values, unstable = self._settle(patterns)
        if unstable:
            raise OscillationError(
                f"defect set {list(map(str, self.defects))} oscillates "
                f"(nets {sorted(unstable)[:6]})"
            )
        return values

    def _settle(
        self, patterns: PatternSet
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Fixpoint relaxation; returns ``(values, unstable)``.

        ``unstable`` maps each net that still moved on the final sweep to
        the bit mask of patterns under which it moved; it is empty when
        the relaxation converged.
        """
        netlist = self.netlist
        mask = patterns.mask
        values: dict[str, int] = {}
        env = HookEnv(values, mask)

        # Pass 0 seeds with hook-free values so aggressor reads are defined;
        # the shared context makes this one cached compiled pass per
        # (netlist, patterns) rather than one interpreted pass per device.
        values.update(sim_context(netlist, patterns).base)

        for _ in range(self.max_iterations):
            changed = False
            for net in self._hooked_inputs:
                new = self._apply_stem(net, patterns.bits[net], env)
                if new != values[net]:
                    values[net] = new
                    changed = True
            for net in self._sweep_order:
                gate = netlist.gates[net]
                ins = [
                    self._read_pin(net, pin, values[src], env)
                    for pin, src in enumerate(gate.inputs)
                ]
                new = self._apply_stem(net, eval2(gate.kind, ins, mask), env)
                if new != values[net]:
                    values[net] = new
                    changed = True
            if not changed:
                return values, {}
        return values, self._find_unstable(values, patterns)

    def simulate_outputs(self, patterns: PatternSet) -> dict[str, int]:
        values = self.simulate(patterns)
        return {net: values[net] for net in self.netlist.outputs}

    def simulate_outputs_with_x(
        self, patterns: PatternSet
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Outputs plus per-output X masks; oscillation resolves to ``X``.

        Where two-valued relaxation fails to settle, the still-moving bits
        are treated as three-valued ``X`` and propagated through the
        structural fanout (plus bridge couplings) as an X-monotonic upper
        bound, exactly as a real ringing node reads as an indeterminate
        voltage downstream.  Returns ``(outputs, xmasks)`` where
        ``xmasks[out]`` has bit *i* set when output ``out`` is unknown
        under pattern *i*; ``xmasks`` is empty when the circuit settled
        and the result matches :meth:`simulate_outputs` exactly.
        """
        values, unstable = self._settle(patterns)
        outputs = {net: values[net] for net in self.netlist.outputs}
        if not unstable:
            return outputs, {}
        xmask = self._propagate_x(unstable)
        out_x = {
            net: xmask[net] for net in self.netlist.outputs if xmask.get(net, 0)
        }
        # Force X bits to 0 so callers that ignore the mask still see a
        # deterministic (if arbitrary) value, never a mid-oscillation read.
        for net, xm in out_x.items():
            outputs[net] &= ~xm
        return outputs, out_x

    def _propagate_x(self, seeds: dict[str, int]) -> dict[str, int]:
        """Over-approximate X reach of the unstable bits.

        Structural propagation deliberately ignores controlling side
        inputs: an X that would in truth be blocked is still reported as
        X, which only ever removes evidence, never fabricates it.  Bridge
        defects add non-structural edges (the victim reads its aggressor
        and vice versa for resistive shorts), so those are propagated too,
        iterating because a bridge can feed X back upstream of topological
        order.
        """
        from repro.faults.models import BridgeDefect, BridgeKind

        couplings: list[tuple[str, str]] = []
        for defect in self.defects:
            if isinstance(defect, BridgeDefect):
                couplings.append((defect.aggressor, defect.victim))
                if defect.kind is not BridgeKind.DOMINANT:
                    couplings.append((defect.victim, defect.aggressor))

        xmask = dict(seeds)
        for _ in range(max(self.max_iterations, 1)):
            changed = False
            for src, dst in couplings:
                m = xmask.get(src, 0)
                if m & ~xmask.get(dst, 0):
                    xmask[dst] = xmask.get(dst, 0) | m
                    changed = True
            for net in self.netlist.topo_order:
                gate = self.netlist.gates[net]
                m = 0
                for src in gate.inputs:
                    m |= xmask.get(src, 0)
                if m & ~xmask.get(net, 0):
                    xmask[net] = xmask.get(net, 0) | m
                    changed = True
            if not changed:
                break
        return xmask

    # -- internals ---------------------------------------------------------------

    def _apply_stem(self, net: str, driven: int, env: HookEnv) -> int:
        value = driven
        for hook in self._stem_hooks.get(net, ()):
            value = hook(value, env) & env.mask
        return value

    def _read_pin(self, gate_out: str, pin: int, stem_value: int, env: HookEnv) -> int:
        hooks = self._pin_hooks.get((gate_out, pin))
        if not hooks:
            return stem_value
        value = stem_value
        for hook in hooks:
            value = hook(value, env) & env.mask
        return value

    def _find_unstable(
        self, values: dict[str, int], patterns: PatternSet
    ) -> dict[str, int]:
        """One more sweep, recording which nets still move and where.

        Returns ``{net: changed-bit mask}`` for every net whose value moved
        again -- the oscillation seeds for diagnostics and X fallback.
        """
        mask = patterns.mask
        env = HookEnv(values, mask)
        moved: dict[str, int] = {}
        for net in self._sweep_order:
            gate = self.netlist.gates[net]
            ins = [
                self._read_pin(net, pin, values[src], env)
                for pin, src in enumerate(gate.inputs)
            ]
            new = self._apply_stem(net, eval2(gate.kind, ins, mask), env)
            if new != values[net]:
                moved[net] = moved.get(net, 0) | (new ^ values[net])
                values[net] = new
        return moved


def defect_creates_feedback(netlist: Netlist, defects: Sequence[Defect]) -> bool:
    """True when a bridge's aggressor lies inside its victim's fanout cone.

    Such a defect closes a structural loop; two-valued simulation may
    oscillate.  Campaign samplers use this predicate to draw realistic
    non-ringing shorts (a ringing short manifests as unstable tester reads,
    which is outside any logic-diagnosis scope).
    """
    from repro.faults.models import BridgeDefect

    ids = netlist.net_ids
    for defect in defects:
        if isinstance(defect, BridgeDefect):
            if netlist.fanout_bits([defect.victim]) >> ids[defect.aggressor] & 1:
                return True
            if defect.kind.value != "dom":
                back = netlist.fanout_bits([defect.aggressor])
                if back >> ids[defect.victim] & 1:
                    return True
    return False
