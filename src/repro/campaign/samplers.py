"""Randomized defect-set sampling for injection campaigns.

Defect families follow a configurable mixture; the default reproduces the
classic silicon statistic used by intra-cell/diagnosis studies (roughly
30% stuck-at-like, 30% bridges, 40% delay/open behaviors), with a
``byzantine`` knob for the model-free stress experiments.

``interacting=True`` biases multi-defect sets toward sites sharing an
output cone -- the regime where failing patterns are caused by several
defects at once and SLAT-style assumptions break, i.e. the headline
scenario of the reproduced paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro._rng import make_rng, weighted_choice
from repro.circuit.netlist import Netlist, Site
from repro.errors import FaultModelError
from repro.faults.injection import defect_creates_feedback
from repro.faults.models import (
    BridgeDefect,
    BridgeKind,
    ByzantineDefect,
    Defect,
    OpenDefect,
    StuckAtDefect,
    TransitionDefect,
    TransitionKind,
)


@dataclass(frozen=True)
class DefectMix:
    """Relative family weights for defect sampling."""

    stuck: float = 0.3
    bridge: float = 0.3
    open: float = 0.2
    transition: float = 0.2
    byzantine: float = 0.0

    def items(self) -> list[tuple[str, float]]:
        return [
            ("stuck", self.stuck),
            ("bridge", self.bridge),
            ("open", self.open),
            ("transition", self.transition),
            ("byzantine", self.byzantine),
        ]


#: Paper-flavored default: 30/30/40 stuck / bridge / delay-like.
DEFAULT_MIX = DefectMix()

#: Pure-family mixes used by the per-type experiment (Table 5).
PURE_MIXES = {
    "stuck": DefectMix(1, 0, 0, 0, 0),
    "bridge": DefectMix(0, 1, 0, 0, 0),
    "open": DefectMix(0, 0, 1, 0, 0),
    "transition": DefectMix(0, 0, 0, 1, 0),
    "byzantine": DefectMix(0, 0, 0, 0, 1),
}


def sample_defect(
    netlist: Netlist,
    rng: random.Random,
    family: str,
    used_nets: set[str],
    placement=None,
) -> Defect | None:
    """Draw one defect of ``family`` avoiding nets already carrying one.

    ``placement`` (a :class:`repro.circuit.layout.Placement`) switches
    bridge sampling from the level-proximity proxy to geometric adjacency.
    Returns None when no legal draw exists (e.g. bridge in a tiny circuit
    where every partner closes a loop); callers retry with a fresh family.
    """
    sites = [s for s in netlist.sites() if s.net not in used_nets]
    if not sites:
        return None
    stems = [s for s in sites if s.is_stem]
    branches = [s for s in sites if not s.is_stem]
    if family == "stuck":
        site = rng.choice(sites)
        return StuckAtDefect(site, rng.getrandbits(1))
    if family == "open":
        # Opens prefer branches (a broken via on one fanout leg); fall back
        # to stems in branch-free circuits.
        site = rng.choice(branches or stems)
        return OpenDefect(site, rng.getrandbits(1))
    if family == "transition":
        site = rng.choice(sites)
        kind = rng.choice((TransitionKind.SLOW_TO_RISE, TransitionKind.SLOW_TO_FALL))
        return TransitionDefect(site, kind)
    if family == "byzantine":
        site = rng.choice(sites)
        return ByzantineDefect(site, seed=rng.getrandbits(48), activity=0.4)
    if family == "bridge":
        victims = [s.net for s in stems]
        rng.shuffle(victims)
        ids = netlist.net_ids
        for victim in victims[:24]:
            cone = netlist.fanout_bits([victim])
            if placement is not None:
                box = placement.boxes[victim]
                partners = [
                    net
                    for net in netlist.nets()
                    if net != victim
                    and not cone >> ids[net] & 1
                    and net not in used_nets
                    and box.distance(placement.boxes[net]) <= 1.0
                ]
            else:
                level = netlist.level(victim)
                partners = [
                    net
                    for net in netlist.nets()
                    if net != victim
                    and not cone >> ids[net] & 1
                    and net not in used_nets
                    and abs(netlist.level(net) - level) <= 3
                ]
            if partners:
                return BridgeDefect(victim, rng.choice(partners), BridgeKind.DOMINANT)
        return None
    raise FaultModelError(f"unknown defect family {family!r}")


def sample_defect_set(
    netlist: Netlist,
    k: int,
    seed: int | random.Random | None = None,
    mix: DefectMix = DEFAULT_MIX,
    interacting: bool = False,
    max_tries: int = 200,
    placement=None,
) -> list[Defect]:
    """Sample ``k`` simultaneous defects on distinct nets.

    With ``interacting`` the sampler restricts sites to the fan-in cone of
    one randomly chosen output, maximizing the chance that several defects
    disturb the same failing patterns.  ``placement`` routes bridge draws
    through synthesized geometry (see :mod:`repro.circuit.layout`).
    """
    rng = make_rng(seed)
    region: set[str] | None = None
    if interacting and k > 1:
        root = rng.choice(list(netlist.outputs))
        region = netlist.fanin_cone([root])

    defects: list[Defect] = []
    used_nets: set[str] = set()
    tries = 0
    while len(defects) < k:
        tries += 1
        if tries > max_tries:
            raise FaultModelError(
                f"could not sample {k} compatible defects on {netlist.name} "
                f"after {max_tries} tries"
            )
        family = weighted_choice(rng, mix.items())
        blocked = used_nets if region is None else used_nets | {
            net for net in netlist.nets() if net not in region
        }
        defect = sample_defect(netlist, rng, family, blocked, placement)
        if defect is None:
            continue
        trial = defects + [defect]
        if defect_creates_feedback(netlist, trial):
            continue
        defects.append(defect)
        for site in defect.ground_truth_sites():
            used_nets.add(site.net)
        if isinstance(defect, BridgeDefect):
            used_nets.add(defect.aggressor)
    return defects


def ground_truth_sites(defects: list[Defect]) -> frozenset[Site]:
    sites: set[Site] = set()
    for defect in defects:
        sites.update(defect.ground_truth_sites())
    return frozenset(sites)
