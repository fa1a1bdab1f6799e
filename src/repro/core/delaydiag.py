"""Timing-aware localization of small-delay defects.

A small-delay defect corrupts *captures*: the stale values appear at the
outputs whose sensitized path through the slow net, plus the extra delay,
exceeds the clock period.  Gate-level (untimed) diagnosis therefore
explains the datalog at the capture side; this module is the post-pass
that projects the blame back onto candidate slow nets, in the spirit of
classic delay-fault diagnosis:

1. **Structural + functional screen** -- per failing pattern, the slow
   net must reach every failing output of that pattern, must itself
   *switch* between launch and capture (no transition, no delay effect),
   and -- the sharp test -- the stale value it would hold at capture must
   actually flip every failing output: the net must be *critical* for
   them under that pattern (checked by exact flip resimulation, which is
   the same primitive the main diagnosis uses).
2. **Delta interval analysis** -- with unit-delay path bounds, a failing
   capture (t, o) implies ``delta > period - L(s -> o)`` where ``L`` is
   the longest structural path from the net through ``o``.  Intersecting
   over all failing atoms yields each candidate's minimal consistent
   extra delay; candidates whose bound is absurd (the defect would have
   had to violate passing long captures everywhere) rank low.
3. **Ranking** -- candidates are scored by how many failing patterns they
   can explain, then by the tightness of the delta estimate.

Static path lengths over-approximate the sensitized path, so the interval
is a bound, not an exact measurement; the test suite checks that the true
site ranks at the top and its delta estimate brackets the injected value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.netlist import Netlist, Site
from repro.errors import DiagnosisError
from repro.sim.cache import sim_context
from repro.sim.patterns import PatternSet
from repro.sim.timing import arrival_times
from repro.tester.datalog import Datalog


@dataclass(frozen=True)
class DelayCandidate:
    """One suspected slow net."""

    net: str
    explained_patterns: int
    delta_min: float  #: smallest extra delay consistent with the failures
    slack_margin: float  #: how far below the period its healthy path sits

    @property
    def rank_key(self) -> tuple:
        return (-self.explained_patterns, self.delta_min, self.net)


def _longest_paths_to(netlist: Netlist, output: str, gate_delay: float) -> dict[str, float]:
    """Longest structural path length from every net to one output."""
    dist: dict[str, float] = {net: float("-inf") for net in netlist.nets()}
    dist[output] = 0.0
    for net in reversed(netlist.topo_order):
        if dist[net] == float("-inf"):
            continue
        gate = netlist.gates[net]
        for src in gate.inputs:
            dist[src] = max(dist[src], dist[net] + gate_delay)
    return dist


def diagnose_small_delay(
    netlist: Netlist,
    patterns: PatternSet,
    datalog: Datalog,
    period: float,
    gate_delay: float = 1.0,
    top_k: int = 10,
) -> list[DelayCandidate]:
    """Rank candidate slow nets for a timing-failure datalog.

    Assumes a single small-delay defect (the standard first hypothesis
    for a timing-only failure signature).
    """
    if datalog.n_patterns != patterns.n:
        raise DiagnosisError("datalog/test set pattern count mismatch")
    failing = [idx for idx in datalog.failing_indices if idx > 0]
    if not failing:
        return []
    ctx = sim_context(netlist, patterns)
    base = ctx.base
    arrival = arrival_times(netlist, gate_delay)

    # Longest-path tables for every output that ever fails.
    failing_outputs = sorted(
        {out for idx in failing for out in datalog.failing_outputs_of(idx)}
    )
    paths = {
        out: _longest_paths_to(netlist, out, gate_delay) for out in failing_outputs
    }

    # Structural + functional screen: nets reaching all failing outputs of a
    # pattern, switching there, and critical for every failing output (the
    # stale value must actually flip the captures that failed).
    stats: dict[str, list[float]] = {}
    explained: dict[str, int] = {}
    for idx in failing:
        outs = datalog.failing_outputs_of(idx)
        for net in netlist.nets():
            if any(paths[out][net] == float("-inf") for out in outs):
                continue
            prev = (base[net] >> (idx - 1)) & 1
            now = (base[net] >> idx) & 1
            if prev == now:
                continue
            crit = ctx.flip_signature(Site(net))
            if not all((crit.get(out, 0) >> idx) & 1 for out in outs):
                continue
            explained[net] = explained.get(net, 0) + 1
            # delta must push the slowest failing capture past the period.
            bound = min(
                period - (arrival[net] + paths[out][net]) for out in outs
            )
            stats.setdefault(net, []).append(bound)

    candidates = []
    for net, bounds in stats.items():
        if explained[net] != len(failing):
            continue  # single-defect: must participate in every failure
        delta_min = max(bounds)
        candidates.append(
            DelayCandidate(
                net=net,
                explained_patterns=explained[net],
                delta_min=max(delta_min, 0.0),
                slack_margin=min(bounds),
            )
        )
    if not candidates:
        # Relax the all-patterns requirement (imperfect evidence).
        for net, bounds in stats.items():
            candidates.append(
                DelayCandidate(
                    net=net,
                    explained_patterns=explained[net],
                    delta_min=max(max(bounds), 0.0),
                    slack_margin=min(bounds),
                )
            )
    candidates.sort(key=lambda c: c.rank_key)
    return candidates[:top_k]
