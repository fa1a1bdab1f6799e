"""Structural candidate extraction.

:func:`candidate_sites` builds the *complete* structural candidate
envelope for a datalog: every site with a path into some failing output
of some failing pattern.  Under the no-assumptions premise this is the
only sound hard pruning -- any tighter filter needs behavioral analysis
(the X-cover stage).  The envelope is a bitset over the netlist's site
ids, the form per-test analysis and the flip index take it in.

A site's exact criticality -- per output, the patterns under which
complementing it complements that output -- is its flip signature on the
shared context (:meth:`SimContext.flip_signature
<repro.sim.cache.SimContext.flip_signature>`), and the pipeline's
region-wise critical path tracing is :meth:`SimContext.critical
<repro.sim.cache.SimContext.critical>`.
"""

from __future__ import annotations

from repro.circuit.netlist import Netlist
from repro.core.budget import Budget
from repro.tester.datalog import Datalog


def candidate_sites(
    netlist: Netlist,
    datalog: Datalog,
    include_branches: bool = True,
    budget: Budget | None = None,
) -> int:
    """Sites structurally able to affect some observed failing output, as
    a bitset over the netlist's :attr:`site ids
    <repro.circuit.netlist.Netlist.site_ids>`.

    The union, over failing patterns, of the fan-in cones of that
    pattern's failing outputs; branch sites are included when the reading
    gate lies inside the envelope.  Built as one OR of the netlist's
    memoized :meth:`~repro.circuit.netlist.Netlist.fanin_sites` per
    failing output.  Site ids depend only on the netlist's structure, so
    the envelope names the same sites to every structurally equal
    netlist; :meth:`~repro.circuit.netlist.Netlist.sites_of` lists them
    in id order (stems in topological position, then branches) as the
    netlist's own Site objects.

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
    return envelope
