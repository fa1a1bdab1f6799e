"""Structural candidate extraction and critical path tracing.

Two complementary tools:

- :func:`candidate_sites` builds the *complete* structural candidate
  envelope for a datalog: every site with a path into some failing output
  of some failing pattern.  Under the no-assumptions premise this is the
  only sound hard pruning -- any tighter filter needs behavioral analysis
  (the X-cover stage).

- :func:`flip_criticality` is an exact, stem-aware critical path tracing
  primitive computed by single-site flip resimulation, bit-parallel over
  all patterns at once.  :func:`cpt_trace` is the classic recursive
  gate-level CPT (with explicit stem checks) kept both as an independent
  oracle for testing and as the cheaper ranking signal used in ablation
  studies.
"""

from __future__ import annotations

from typing import Mapping

from repro.circuit.gates import eval2
from repro.circuit.netlist import Netlist, Site
from repro.core.budget import Budget
from repro.sim.cache import active_context
from repro.sim.event import changed_outputs, resimulate_with_overrides
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog


def candidate_sites(
    netlist: Netlist,
    datalog: Datalog,
    include_branches: bool = True,
    budget: Budget | None = None,
) -> list[Site]:
    """Sites structurally able to affect some observed failing output.

    The union, over failing patterns, of the fan-in cones of that
    pattern's failing outputs; branch sites are included when the reading
    gate lies inside the envelope.  Deterministically ordered by site id
    (:attr:`~repro.circuit.netlist.Netlist.site_ids`: stems in
    topological position, then branches), and made of the netlist's own
    Site objects, so the per-site memos of every later stage hit on
    identity.

    The envelope is built as a bitset over the site ids, one OR of the
    netlist's memoized :meth:`~repro.circuit.netlist.Netlist.fanin_sites`
    per failing output, and returned as a
    :class:`~repro.circuit.netlist.SiteList` that carries the bitset, so
    per-test analysis reads the envelope without a pass over its sites.

    Under a ``budget`` the cone union is checked per failing record (after
    the first, so the envelope is never empty for a failing device); on
    exhaustion the envelope built so far is returned with a ``backtrace``
    truncation recorded -- a sound but incomplete candidate space.
    """
    envelope = 0
    for done, record in enumerate(datalog.records):
        if (
            budget is not None
            and done
            and budget.stop("backtrace", done, len(datalog.records))
        ):
            break
        for out in record.failing_outputs:
            envelope |= netlist.fanin_sites(out)
    if not include_branches:
        envelope &= (1 << netlist.n_nets) - 1  # the stems' ids
    return netlist.sites_of(envelope)


def flip_criticality(
    netlist: Netlist,
    patterns: PatternSet,
    site: Site,
    base_values: Mapping[str, int],
) -> dict[str, int]:
    """Exact criticality of ``site``: per-output vectors of flip-sensitivity.

    Bit *i* of ``result[out]`` is set iff inverting the site's value under
    pattern *i* inverts output ``out``.  This is critical path tracing with
    exact stem handling, evaluated for every pattern in one cone-restricted
    resimulation -- or answered from the shared context's flip-signature
    memo when ``base_values`` is that context's own base vector.
    """
    ctx = active_context(netlist, patterns, base_values)
    if ctx is not None:
        return dict(ctx.flip_signature(site))
    mask = patterns.mask
    flipped = (base_values[site.net] ^ mask) & mask
    changed = resimulate_with_overrides(netlist, base_values, {site: flipped}, mask)
    return changed_outputs(netlist, changed, base_values, mask)


def _scalar_values(values: Mapping[str, int], pattern_index: int) -> dict[str, int]:
    bit = pattern_index
    return {net: (vec >> bit) & 1 for net, vec in values.items()}


def cpt_trace(
    netlist: Netlist,
    patterns: PatternSet,
    base_values: Mapping[str, int],
    pattern_index: int,
    output: str,
) -> set[str]:
    """Classic gate-level critical path tracing from one output.

    Returns nets critical for ``output`` under the given pattern.  Tracing
    proceeds backward through gate criticality rules inside fanout-free
    regions; each fanout stem encountered is resolved by an exact flip
    check (the textbook stem-analysis step).

    Soundness: every net returned truly flips the output when flipped
    (inside an FFR the path to the stem is unique, and stems are verified
    by simulation).  Completeness is the classic CPT limitation: a net
    sensitized only through *multiple simultaneously flipping branches* of
    a non-critical stem is missed.  :func:`flip_criticality` is the exact
    (and still cheap, bit-parallel) alternative and is what the diagnosis
    pipeline uses; ``cpt_trace`` is retained as the classical reference
    algorithm for the ablation study.
    """
    scalar = _scalar_values(base_values, pattern_index)
    critical: set[str] = set()
    stack = [output]
    checked_stems: dict[str, bool] = {}

    while stack:
        net = stack.pop()
        if net in critical:
            continue
        critical.add(net)
        gate = netlist.gates.get(net)
        if gate is None:
            continue
        for src in _critical_inputs(gate, scalar):
            if netlist.fanout_count(src) > 1:
                # Stem: exact single-pattern flip check (memoized per stem).
                if src not in checked_stems:
                    changed = resimulate_with_overrides(
                        netlist, scalar, {Site(src): scalar[src] ^ 1}, 1
                    )
                    checked_stems[src] = output in changed
                if checked_stems[src]:
                    stack.append(src)
            else:
                stack.append(src)
    return critical


def _critical_inputs(gate, scalar: Mapping[str, int]) -> list[str]:
    """Gate-local criticality: input *nets* whose single flip inverts the output.

    Exact by construction (re-evaluates the gate with the net inverted on
    every pin it drives, so duplicated inputs are handled correctly).
    """
    base_ins = [scalar[src] for src in gate.inputs]
    base_out = eval2(gate.kind, base_ins, 1)
    crit: list[str] = []
    for src in dict.fromkeys(gate.inputs):
        flipped = [
            value ^ 1 if name == src else value
            for name, value in zip(gate.inputs, base_ins)
        ]
        if eval2(gate.kind, flipped, 1) != base_out:
            crit.append(src)
    return crit
