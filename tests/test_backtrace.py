"""Structural candidate extraction and single-site criticality."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuit.generators import random_dag
from repro.circuit.library import load_circuit
from repro.core.backtrace import candidate_sites
from repro.core.budget import CAUSE_EXPANSIONS, Budget
from repro.sim.cache import SimContext
from repro.sim.logicsim import simulate
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog, FailRecord

from tests.test_properties import circuits


def _sites(netlist, datalog, **kwargs):
    return netlist.sites_of(candidate_sites(netlist, datalog, **kwargs))


class TestCandidateSites:
    def test_envelope_is_union_of_cones(self, c17_netlist):
        datalog = Datalog("c17", 4, [FailRecord(1, frozenset({"22"}))])
        sites = _sites(c17_netlist, datalog)
        nets = {s.net for s in sites}
        assert nets == c17_netlist.fanin_cone(["22"])

    def test_multiple_patterns_union(self, c17_netlist):
        datalog = Datalog(
            "c17",
            4,
            [FailRecord(0, frozenset({"22"})), FailRecord(2, frozenset({"23"}))],
        )
        nets = {s.net for s in _sites(c17_netlist, datalog)}
        assert nets == c17_netlist.fanin_cone(["22", "23"])

    def test_branch_sites_inside_envelope_only(self, c17_netlist):
        datalog = Datalog("c17", 4, [FailRecord(1, frozenset({"22"}))])
        sites = _sites(c17_netlist, datalog)
        for site in sites:
            if site.branch:
                assert site.branch[0] in c17_netlist.fanin_cone(["22"])

    def test_no_branches_flag(self, c17_netlist):
        datalog = Datalog("c17", 4, [FailRecord(1, frozenset({"22"}))])
        assert all(
            s.is_stem
            for s in _sites(c17_netlist, datalog, include_branches=False)
        )

    def test_deterministic_order(self, c17_netlist):
        datalog = Datalog("c17", 4, [FailRecord(1, frozenset({"22", "23"}))])
        a = _sites(c17_netlist, datalog)
        b = _sites(c17_netlist, datalog)
        assert a == b


def _set_union_envelope(netlist, records, include_branches):
    """The envelope by its definition: the union of the failing outputs'
    fan-in cones, stems in net order, then each net's branches whose
    reading gate is in the union."""
    nets: set[str] = set()
    for record in records:
        nets |= netlist.fanin_cone(record.failing_outputs)
    ordered = [net for net in netlist.nets() if net in nets]
    sites = [netlist.stem_site(net) for net in ordered]
    if include_branches:
        for net in ordered:
            sites.extend(
                site for site in netlist.branch_sites(net) if site.branch[0] in nets
            )
    return sites


class _CutAfter(Budget):
    """Exhausted from the ``checks``-th check on."""

    def __init__(self, checks: int):
        super().__init__()
        self.checks = checks

    def exceeded(self):
        self.checks -= 1
        return CAUSE_EXPANSIONS if self.checks < 0 else None


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    netlist=st.one_of(
        st.sampled_from(["c17", "rca8", "alu8", "mul8"]).map(load_circuit), circuits
    ),
    data=st.data(),
)
def test_bitset_envelope_is_the_set_union(netlist, data):
    """The bitset envelope equals the set-union definition, with and
    without branches and when a budget cuts the backtrace after a record."""
    n_records = data.draw(st.integers(1, 5))
    records = [
        FailRecord(
            idx,
            frozenset(data.draw(st.sets(st.sampled_from(netlist.outputs), min_size=1))),
        )
        for idx in range(n_records)
    ]
    datalog = Datalog(netlist.name, n_records, records)
    include_branches = data.draw(st.booleans())
    kept = data.draw(st.integers(1, n_records))
    budget = _CutAfter(kept - 1)
    envelope = candidate_sites(netlist, datalog, include_branches, budget=budget)
    expected = _set_union_envelope(netlist, records[:kept], include_branches)
    assert envelope == sum(1 << netlist.site_ids[site] for site in expected)
    sites = netlist.sites_of(envelope)
    assert sites == expected
    assert all(a is b for a, b in zip(sites, expected))
    assert [t.done for t in budget.truncations] == ([kept] if kept < n_records else [])


class TestFlipCriticality:
    """A site's flip signature is its exact criticality."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_per_pattern_brute_force(self, seed):
        n = random_dag(50, n_inputs=6, n_outputs=4, seed=seed)
        pats = PatternSet.random(n, 12, seed=seed)
        ctx = SimContext(n, pats)
        base = ctx.base
        from tests.conftest import naive_simulate

        for site in [s for s in n.sites() if s.is_stem][::5]:
            crit = ctx.flip_signature(site)
            for i in range(pats.n):
                assignment = pats.pattern(i)
                golden = naive_simulate(n, assignment)
                # brute-force: flip the net by evaluating with an override
                flipped = simulate(
                    n,
                    pats.subset([i]),
                    {site: (base[site.net] >> i & 1) ^ 1},
                )
                for out in n.outputs:
                    want = flipped[out] != golden[out]
                    got = bool(crit.get(out, 0) >> i & 1)
                    assert got == want, (site, i, out)
