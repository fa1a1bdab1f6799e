"""Critical path tracing on the shared context (``SimContext.critical``
and ``SimContext.critical_diff``) against direct resimulation, and the
provisioning flow that grades through it."""

import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.atpg.random_gen import generate_stuck_at_tests
from repro.circuit.builder import NetlistBuilder
from repro.circuit.library import load_circuit
from repro.circuit.netlist import Site
from repro.faults.models import (
    BridgeDefect,
    ByzantineDefect,
    StuckAtDefect,
    TransitionDefect,
    TransitionKind,
)
from repro.sim.cache import reset_sim_caches, sim_context
from repro.sim.compile import COUNTERS, kernels_for
from repro.sim.event import changed_outputs, resimulate_with_overrides
from repro.sim.faultsim import (
    defect_output_diff,
    detect_vector,
    single_defect_overrides,
)
from repro.sim.patterns import PatternSet

from tests.test_properties import SLOW, circuits


def _every_site(netlist):
    """Stems, and a branch per fanout pin, single-fanout nets' included."""
    nets = list(netlist.nets())
    return [Site(net) for net in nets] + [
        Site(net, dest) for net in nets for dest in netlist.fanout(net)
    ]


def _single_site_defects(netlist, site, rng):
    """Stuck-at 0/1, a transition and a byzantine defect at ``site``, and
    at a stem a dominant bridge from an aggressor outside its cone."""
    defects = [
        StuckAtDefect(site, 0),
        StuckAtDefect(site, 1),
        TransitionDefect(site, rng.choice(list(TransitionKind))),
        ByzantineDefect(site, seed=rng.getrandbits(32), activity=0.5),
    ]
    if site.is_stem:
        cone = netlist.fanout_cone([site.net])
        outside = [net for net in netlist.nets() if net not in cone]
        if outside:
            defects.append(BridgeDefect(site.net, rng.choice(outside)))
    return defects


def _check_against_resim(netlist, patterns, seed):
    """Every single-site override of :func:`_single_site_defects` at every
    site: the query masked by the override equals the OR over the outputs
    of a direct cone resimulation, ``detect_vector`` answers the same, and
    ``defect_output_diff`` equals the resimulation output by output."""
    reset_sim_caches()
    ctx = sim_context(netlist, patterns)
    base, mask = ctx.base, patterns.mask
    rng = random.Random(seed)
    for site in _every_site(netlist):
        critical = ctx.critical(site)
        for defect in _single_site_defects(netlist, site, rng):
            overrides = single_defect_overrides(ctx, defect)
            ((target, value),) = overrides.items()
            assert target == site, str(defect)
            active = value ^ base[site.net]
            changed = resimulate_with_overrides(netlist, base, overrides, mask)
            resim = changed_outputs(netlist, changed, base, mask)
            want = 0
            for delta in resim.values():
                want |= delta
            assert critical & active == want, str(defect)
            assert ctx.critical(site, active) == want, str(defect)
            assert detect_vector(ctx, defect) == want, str(defect)
            assert defect_output_diff(ctx, defect) == resim, str(defect)
            assert ctx.critical_diff(site, active) == resim, str(defect)


@pytest.mark.parametrize(
    "name", ["c17", "rca8", "alu16", "csa32", "rnd100", "cmp16", "mul12"]
)
def test_matches_resimulation_on_library_circuits(name):
    netlist = load_circuit(name)
    _check_against_resim(netlist, PatternSet.random(netlist, 48, seed=3), seed=3)


@SLOW
@given(netlist=circuits, seed=st.integers(0, 10_000))
def test_matches_resimulation_on_random_circuits(netlist, seed):
    _check_against_resim(netlist, PatternSet.random(netlist, 16, seed), seed)


def _edge_cases():
    b = NetlistBuilder("cpt_edges")
    a, bb, c, d = b.inputs("a", "b", "c", "d")
    n1 = b.or_(bb, c, name="n1")
    x = b.nand(n1, n1, name="x")  # one net driving two pins of one gate
    o = b.output(b.and_(a, d, name="o"))  # an output with one fanout
    b.not_(c, name="dangle")  # drives nothing
    b.output(b.or_(o, x, name="g"))
    return b.build()


def test_structural_edge_cases():
    netlist = _edge_cases()
    patterns = PatternSet.exhaustive(netlist)
    assert netlist.ffr_root("n1") == "n1"
    assert netlist.ffr_root("o") == "o"
    assert netlist.ffr_root("dangle") == "dangle"
    assert netlist.ffr_root("a") == "o"  # a primary input with one fanout
    _check_against_resim(netlist, patterns, seed=1)
    reset_sim_caches()
    ctx = sim_context(netlist, patterns)
    assert ctx.critical(Site("dangle")) == 0
    assert ctx.critical(Site("o")) == patterns.mask
    # A lone branch of ``n1`` flips ``x`` only where ``n1`` is 1; the stem
    # flips ``x`` under every pattern.
    assert ctx.critical(Site("n1", ("x", 0))) != ctx.critical(Site("n1"))


def test_flipped_roots_answer_every_single_site_model():
    """Once every region root of a context has been flipped, the
    per-output response of every single-site model at every site costs
    no cone pass."""
    netlist = load_circuit("alu16")
    patterns = PatternSet.random(netlist, 48, seed=3)
    reset_sim_caches()
    ctx = sim_context(netlist, patterns)
    for root in {netlist.ffr_root(net) for net in netlist.nets()}:
        ctx.flip_signature(netlist.stem_site(root))
    rng = random.Random(3)
    before = COUNTERS.cone_passes
    answered = 0
    for site in _every_site(netlist):
        for defect in _single_site_defects(netlist, site, rng):
            defect_output_diff(ctx, defect)
            answered += 1
    assert answered > 1500
    assert COUNTERS.cone_passes == before


def test_provisioning_flips_each_root_once_per_graded_set():
    """Grading costs at most one cone pass per (graded pattern set, region
    root), not one per fault."""
    netlist = load_circuit("mul12")
    roots = {netlist.ffr_root(net) for net in netlist.nets()}
    reset_sim_caches()
    report = generate_stuck_at_tests(netlist, seed=7)
    assert report.patterns.fingerprint() == "306a99eef1f17d84"
    assert 0 < COUNTERS.cone_passes <= COUNTERS.context_misses * len(roots)


def test_lone_branch_flip_needs_no_pin_kernel(monkeypatch):
    netlist = load_circuit("alu16")
    patterns = PatternSet.random(netlist, 40, seed=2)
    branches = [site for site in _every_site(netlist) if site.branch]
    monkeypatch.setenv("REPRO_SIM", "compiled")
    reset_sim_caches()
    ctx = sim_context(netlist, patterns)
    compiled = [ctx.flip_signature(site) for site in branches]
    assert "sim2_p" not in kernels_for(netlist)._fns
    monkeypatch.setenv("REPRO_SIM", "interp")
    reset_sim_caches()
    ctx = sim_context(netlist, patterns)
    assert [ctx.flip_signature(site) for site in branches] == compiled


def test_threads_share_one_cold_context():
    """Four threads querying one cold context, each in its own order,
    give the serial answers."""
    netlist = load_circuit("mul8")
    patterns = PatternSet.random(netlist, 40, seed=6)
    sites = _every_site(netlist)
    reset_sim_caches()
    ctx = sim_context(netlist, patterns)

    def ask(ctx, site):
        return ctx.critical(site), ctx.critical_diff(site)

    serial = [ask(ctx, site) for site in sites]
    results: dict[int, list[tuple[int, dict[str, int]]]] = {}

    def work(i):
        ctx = sim_context(netlist, patterns)
        order = list(range(len(sites)))
        random.Random(i).shuffle(order)
        got = {j: ask(ctx, sites[j]) for j in order}
        results[i] = [got[j] for j in range(len(sites))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(3):
            reset_sim_caches()
            results.clear()
            workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
            assert not any(worker.is_alive() for worker in workers)
            assert [results[i] for i in range(4)] == [serial] * 4
    finally:
        sys.setswitchinterval(interval)
