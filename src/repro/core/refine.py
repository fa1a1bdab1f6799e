"""Fault-model allocation for candidate sites.

Once the covering stage has located *where* the defects act, refinement
asks *what* each site is doing: for every candidate site it simulates the
concrete fault models consistent with the site's evidence -- stuck-at,
open (on branch sites), dominant bridge against a bounded aggressor pool,
and slow-to-rise/fall transitions -- scores each against the datalog, and
vindicates deterministic models contradicted by passing patterns.  A
model-free ``arbitrary`` hypothesis is always kept so that a byzantine
defect (the no-assumptions stress case) still yields a correctly located,
honestly labeled candidate.
"""

from __future__ import annotations

import heapq

from repro._bits import popcount
from repro.circuit.netlist import Site
from repro.core.budget import Budget
from repro.core.report import Hypothesis
from repro.core.scoring import MatchCounter
from repro.core.xcover import XCoverAnalysis
from repro.errors import OscillationError
from repro.faults.models import (
    BridgeDefect,
    OpenDefect,
    StuckAtDefect,
    TransitionDefect,
    TransitionKind,
)
from repro.sim.cache import SimContext
from repro.sim.faultsim import defect_output_diff
from repro.tester.datalog import Datalog

#: How many dominant-bridge aggressors a victim site is tried against.
MAX_AGGRESSORS = 8
#: How many logic levels an aggressor may lie from its victim (level
#: proximity proxies layout adjacency).
BRIDGE_LEVEL_DISTANCE = 2


def arbitrary_hypothesis(site: Site, xc: XCoverAnalysis) -> Hypothesis:
    """The model-free fallback: located, no behavioral commitment."""
    own_atoms = xc.atoms_of(site)
    return Hypothesis(
        kind="arbitrary",
        site=site,
        hits=len(own_atoms),
        misses=len(xc.atoms - own_atoms),
        false_alarms=0,
    )


def allocate_hypotheses(
    ctx: SimContext,
    datalog: Datalog,
    site: Site,
    evidence: XCoverAnalysis,
    *,
    vindicate: bool = True,
    budget: Budget | None = None,
    counter: MatchCounter | None = None,
) -> tuple[Hypothesis, ...]:
    """Ranked fault-model hypotheses for one candidate site.

    Each model's response is read from ``ctx``, the shared context of the
    netlist and test set the datalog came from, and scored by
    ``counter``, the datalog's :class:`~repro.core.scoring.MatchCounter`
    (built here when not given; a caller refining many sites builds it
    once).  With ``vindicate`` a model that some passing pattern
    contradicts (a false alarm) is dropped.

    Under a ``budget`` every concrete-model simulation charges one
    expansion and is preceded by a check (after the first, so a site is
    never left without at least one concrete attempt); on exhaustion the
    remaining model families are skipped -- the always-kept ``arbitrary``
    fallback keeps the site reported.  The caller records the stage-level
    ``refine`` truncation.
    """
    if counter is None:
        counter = MatchCounter.of_datalog(datalog)

    hypotheses: list[Hypothesis] = []
    attempts = 0

    def exhausted() -> bool:
        return budget is not None and attempts > 0 and budget.exceeded() is not None

    def score(kind: str, defect, aggressor: str | None = None) -> None:
        nonlocal attempts
        if exhausted():
            return
        attempts += 1
        if budget is not None:
            budget.charge()
        try:
            diff = defect_output_diff(ctx, defect)
        except OscillationError:
            return
        hits, misses, fa = counter.counts(diff)
        if hits == 0:
            return
        if vindicate and fa > 0:
            return  # deterministic model contradicted by a passing pattern
        hypotheses.append(
            Hypothesis(
                kind=kind,
                site=site,
                aggressor=aggressor,
                hits=hits,
                misses=misses,
                false_alarms=fa,
            )
        )

    # Stuck-at on stems, "open" labeling on branches (a stuck branch is a
    # broken connection; the stem and sibling branches remain healthy).
    for value in (0, 1):
        if site.is_stem:
            score(f"sa{value}", StuckAtDefect(site, value))
        else:
            score(f"open{value}", OpenDefect(site, value))

    score("str", TransitionDefect(site, TransitionKind.SLOW_TO_RISE))
    score("stf", TransitionDefect(site, TransitionKind.SLOW_TO_FALL))

    if site.is_stem and not ctx.netlist.is_input(site.net):
        for aggressor in _aggressor_pool(ctx, site, evidence):
            score(
                "bridge",
                BridgeDefect(site.net, aggressor),
                aggressor=aggressor,
            )

    hypotheses.sort(key=lambda h: h.score, reverse=True)
    return tuple(hypotheses) + (arbitrary_hypothesis(site, evidence),)


def _aggressor_pool(
    ctx: SimContext, site: Site, evidence: XCoverAnalysis
) -> list[str]:
    """Bounded dominant-bridge aggressor candidates for a victim site.

    Level proximity proxies layout adjacency (as in the bridge fault
    universe); the aggressor must disagree with the victim on at least one
    failing pattern the victim can explain (otherwise the bridge is never
    activated there), and must not close a structural loop.
    """
    netlist = ctx.netlist
    base = ctx.base
    victim = site.net
    victim_level = netlist.level(victim)
    relevant = {idx for idx, _out in evidence.atoms_of(site)}
    if not relevant:
        relevant = set(evidence.datalog.failing_indices)
    relevance_mask = 0
    for idx in relevant:
        relevance_mask |= 1 << idx
    victim_cone = netlist.fanout_bits([victim])  # holds the victim itself
    ids = netlist.net_ids
    victim_value = base[victim]
    scored: list[tuple[int, str]] = []
    for level in range(
        victim_level - BRIDGE_LEVEL_DISTANCE, victim_level + BRIDGE_LEVEL_DISTANCE + 1
    ):
        for net in netlist.nets_at_level(level):
            if victim_cone >> ids[net] & 1:
                continue
            count = popcount((base[net] ^ victim_value) & relevance_mask)
            if count:
                scored.append((-count, net))
    return [net for _count, net in heapq.nsmallest(MAX_AGGRESSORS, scored)]
