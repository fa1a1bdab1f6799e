"""Fault universe enumeration.

Generates the model-fault lists consumed by ATPG, fault grading and the
dictionary-style baselines: the classic stuck-at universe over stems and
fanout branches, the transition universe, and candidate bridge pairs.

Full bridge enumeration is quadratic in net count; real flows restrict it
to layout-adjacent nets.  With no layout in a purely logical reproduction,
:func:`bridge_pairs` approximates adjacency by *level proximity* (nets
close in logic depth are far more likely to be routed near each other) plus
an explicit cap, which keeps the universe realistic and bounded.
"""

from __future__ import annotations

import random
from itertools import combinations

from repro._rng import make_rng
from repro.circuit.netlist import Netlist
from repro.faults.models import (
    BridgeDefect,
    BridgeKind,
    StuckAtDefect,
    TransitionDefect,
    TransitionKind,
)


def stuck_at_universe(
    netlist: Netlist, include_branches: bool = True
) -> list[StuckAtDefect]:
    """Both polarities of every stem (and optionally branch) site."""
    faults: list[StuckAtDefect] = []
    for site in netlist.sites(include_branches=include_branches):
        faults.append(StuckAtDefect(site, 0))
        faults.append(StuckAtDefect(site, 1))
    return faults


def transition_universe(
    netlist: Netlist, include_branches: bool = False
) -> list[TransitionDefect]:
    """Slow-to-rise and slow-to-fall on every site."""
    faults: list[TransitionDefect] = []
    for site in netlist.sites(include_branches=include_branches):
        faults.append(TransitionDefect(site, TransitionKind.SLOW_TO_RISE))
        faults.append(TransitionDefect(site, TransitionKind.SLOW_TO_FALL))
    return faults


def bridge_pairs(
    netlist: Netlist,
    max_level_distance: int = 2,
    max_pairs: int | None = 5000,
    kind: BridgeKind = BridgeKind.DOMINANT,
    seed: int | random.Random | None = None,
    exclude_feedback: bool = True,
) -> list[BridgeDefect]:
    """Candidate two-net shorts under a level-proximity adjacency proxy.

    Pairs whose aggressor lies in the victim's fanout cone are skipped when
    ``exclude_feedback`` is set (they would close a loop).  When the proxy
    still yields more than ``max_pairs`` candidates, a seeded uniform sample
    is returned.
    """
    nets = list(netlist.nets())
    ids = netlist.net_ids
    pairs: list[BridgeDefect] = []
    for a, b in combinations(nets, 2):
        if abs(netlist.level(a) - netlist.level(b)) > max_level_distance:
            continue
        for victim, aggressor in ((a, b), (b, a)):
            if exclude_feedback and netlist.fanout_bits([victim]) >> ids[aggressor] & 1:
                continue
            pairs.append(BridgeDefect(victim, aggressor, kind))
            if kind is not BridgeKind.DOMINANT:
                break  # wired bridges are symmetric; one orientation suffices
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = make_rng(seed)
        pairs = rng.sample(pairs, max_pairs)
        pairs.sort(key=str)
    return pairs
