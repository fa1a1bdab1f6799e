"""X-injection coverage analysis.

The assumption-free core of the diagnosis.  Forcing ``X`` at a set of
sites and three-valued simulating the *fault-free* netlist
over-approximates the joint behavior of **any** defects at those sites:
every net either keeps its fault-free binary value or is X (monotonicity),
and every output a real defect set could corrupt is X.  Consequently:

- a site set ``S`` *can explain* failing pattern ``t`` iff joint X
  injection at ``S`` makes every observed failing output of ``t`` X;
- this predicate is monotone in ``S``, which the covering stage exploits;
- for a single defect the individual per-site reach is already exact,
  but with multiple defects a site's error can need another defect to
  unblock its propagation path (masking), so *joint* reach is the sound
  notion -- the distinction measured by ablation A.

All reaches are computed bit-parallel over the whole pattern set, cone
restricted for the single-site case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.circuit.gates import tv_all_x, tv_xmask
from repro.circuit.netlist import Netlist, Site
from repro.core.budget import Budget
from repro.errors import DiagnosisError
from repro.sim.cache import SimContext
from repro.sim.patterns import PatternSet
from repro.sim.threeval import simulate3
from repro.tester.datalog import Datalog

Atom = tuple[int, str]  # (pattern index, output net)


@dataclass
class XCoverAnalysis:
    """Per-site coverable fail atoms and joint X reach against one datalog."""

    netlist: Netlist
    patterns: PatternSet
    datalog: Datalog
    sites: tuple[Site, ...]
    atoms: frozenset[Atom]
    site_atoms: dict[Site, frozenset[Atom]] = field(default_factory=dict)

    # -- single-site queries ---------------------------------------------------

    def atoms_of(self, site: Site) -> frozenset[Atom]:
        """Observed fail atoms individually coverable by ``site``."""
        return self.site_atoms.get(site, frozenset())

    def covers_pattern(self, site: Site, pattern_index: int) -> bool:
        """Can ``site`` alone contribute to explaining this failing pattern?"""
        return any(idx == pattern_index for idx, _out in self.atoms_of(site))

    def pattern_candidates(self, pattern_index: int) -> list[Site]:
        """Sites individually able to cover >=1 atom of this pattern."""
        return [s for s in self.sites if self.covers_pattern(s, pattern_index)]

    # -- joint queries ---------------------------------------------------------------

    def joint_reach(self, sites: Iterable[Site]) -> dict[str, int]:
        """Per-output X vectors under simultaneous X injection at ``sites``."""
        overrides = {site: tv_all_x(self.patterns.mask) for site in sites}
        if not overrides:
            return {}
        values3 = simulate3(self.netlist, self.patterns, overrides)
        out: dict[str, int] = {}
        for net in self.netlist.outputs:
            xm = tv_xmask(values3[net])
            if xm:
                out[net] = xm
        return out

    def joint_covered_atoms(self, sites: Iterable[Site]) -> frozenset[Atom]:
        """Observed fail atoms explainable by defects at all of ``sites``."""
        sites = list(sites)
        if not sites:
            return frozenset()
        if len(sites) == 1:
            return self.atoms_of(sites[0])
        reach = self.joint_reach(sites)
        covered = {
            (idx, out)
            for idx, out in self.atoms
            if reach.get(out, 0) >> idx & 1
        }
        return frozenset(covered)

    def explains_all(self, sites: Iterable[Site]) -> bool:
        return self.joint_covered_atoms(sites) == self.atoms


def build_xcover(
    ctx: SimContext,
    datalog: Datalog,
    envelope: int,
    budget: Budget | None = None,
) -> XCoverAnalysis:
    """Run the per-site X analysis over ``envelope``, the structural
    candidate envelope from :func:`~repro.core.backtrace.candidate_sites`
    (a bitset over the netlist's site ids), reading each site's X reach
    from ``ctx``, the context of the netlist and test set the datalog came
    from.

    Under a ``budget`` the per-site X-reach sweep is checked per site
    (each charged as one expansion); on exhaustion the analysis covers
    only the sites swept so far and an ``xcover`` truncation is recorded.
    """
    netlist, patterns = ctx.netlist, ctx.patterns
    if datalog.n_patterns != patterns.n:
        raise DiagnosisError(
            f"datalog covers {datalog.n_patterns} patterns, test set has {patterns.n}"
        )
    sites = netlist.sites_of(envelope)
    atoms = frozenset(datalog.fail_atoms())

    site_atoms: dict[Site, frozenset[Atom]] = {}
    for done, site in enumerate(sites):
        if (
            budget is not None
            and done
            and budget.stop("xcover", done, len(sites))
        ):
            sites = sites[:done]
            break
        if budget is not None:
            # Charged per site regardless of memo warmth, so anytime
            # truncation points stay deterministic across cache states.
            budget.charge()
        r = ctx.x_reach(site)
        covered = {
            (idx, out) for idx, out in atoms if r.get(out, 0) >> idx & 1
        }
        site_atoms[site] = frozenset(covered)

    return XCoverAnalysis(
        netlist=netlist,
        patterns=patterns,
        datalog=datalog,
        sites=tuple(sites),
        atoms=atoms,
        site_atoms=site_atoms,
    )
