"""Hypothesis property-based tests for the core invariants.

These draw random circuits (seeded generator parameters), random pattern
sets and random defect cocktails, and assert the soundness properties the
diagnosis method is built on.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro._rng import make_rng
from repro.campaign.samplers import DefectMix, sample_defect_set
from repro.circuit.gates import tv_all_x, tv_binary, tv_xmask
from repro.circuit.generators import random_dag
from repro.circuit.netlist import Site
from repro.core.backtrace import candidate_sites
from repro.core.pertest import build_pertest
from repro.core.xcover import build_xcover
from repro.errors import FaultModelError, OscillationError
from repro.sim.cache import sim_context
from repro.sim.logicsim import simulate
from repro.sim.patterns import PatternSet
from repro.sim.threeval import simulate3
from repro.tester.datalog import Datalog, FailRecord
from repro.tester.harness import apply_test

from tests.conftest import naive_simulate_patterns

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

circuits = st.builds(
    random_dag,
    n_gates=st.integers(20, 70),
    n_inputs=st.integers(4, 9),
    n_outputs=st.integers(2, 5),
    seed=st.integers(0, 10_000),
)


@SLOW
@given(netlist=circuits, seed=st.integers(0, 10_000), n=st.integers(1, 48))
def test_bit_parallel_equals_naive(netlist, seed, n):
    patterns = PatternSet.random(netlist, n, seed)
    assert simulate(netlist, patterns) == naive_simulate_patterns(netlist, patterns)


@SLOW
@given(netlist=circuits, seed=st.integers(0, 10_000))
def test_threeval_binary_consistency(netlist, seed):
    patterns = PatternSet.random(netlist, 24, seed)
    binary = simulate(netlist, patterns)
    three = simulate3(netlist, patterns)
    for net in netlist.nets():
        assert tv_xmask(three[net]) == 0
        assert tv_binary(three[net], patterns.mask) == binary[net]


@SLOW
@given(netlist=circuits, seed=st.integers(0, 10_000), site_pick=st.integers(0, 10**6))
def test_x_monotonicity(netlist, seed, site_pick):
    patterns = PatternSet.random(netlist, 16, seed)
    binary = simulate(netlist, patterns)
    sites = netlist.sites()
    site = sites[site_pick % len(sites)]
    three = simulate3(netlist, patterns, {site: tv_all_x(patterns.mask)})
    for net in netlist.nets():
        xm = tv_xmask(three[net])
        stable = patterns.mask & ~xm
        assert tv_binary(three[net], patterns.mask) & stable == binary[net] & stable


_defect_mix = DefectMix(0.3, 0.2, 0.2, 0.2, 0.1)


@SLOW
@given(
    netlist=circuits,
    seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    defect_seed=st.integers(0, 10_000),
)
def test_envelope_completeness(netlist, seed, k, defect_seed):
    """Joint X injection at the true sites covers every observed fail atom."""
    patterns = PatternSet.random(netlist, 24, seed)
    try:
        defects = sample_defect_set(netlist, k, defect_seed, mix=_defect_mix)
        result = apply_test(netlist, patterns, defects)
    except (FaultModelError, OscillationError):
        return  # tiny circuit / unlucky cocktail: nothing to check
    if result.datalog.is_passing_device:
        return
    xc = build_xcover(
        sim_context(netlist, patterns),
        result.datalog,
        candidate_sites(netlist, result.datalog),
    )
    truth = set()
    for d in defects:
        truth.update(d.ground_truth_sites())
    assert xc.joint_covered_atoms(truth) == xc.atoms


@SLOW
@given(
    netlist=circuits,
    seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    defect_seed=st.integers(0, 10_000),
)
def test_pertest_truth_explains_all(netlist, seed, k, defect_seed):
    """Some flip/pin assignment of the true sites reproduces every failing
    pattern exactly -- the exactness theorem behind the per-test engine."""
    patterns = PatternSet.random(netlist, 24, seed)
    try:
        defects = sample_defect_set(netlist, k, defect_seed, mix=_defect_mix)
        result = apply_test(netlist, patterns, defects)
    except (FaultModelError, OscillationError):
        return
    if result.datalog.is_passing_device:
        return
    envelope = candidate_sites(netlist, result.datalog)
    ctx = sim_context(netlist, patterns)
    analysis = build_pertest(ctx, result.datalog, envelope)
    truth = set()
    for d in defects:
        truth.update(d.ground_truth_sites())
    explained = analysis.explained_patterns(tuple(truth))
    assert explained == set(result.datalog.failing_indices)


@SLOW
@given(
    n_patterns=st.integers(1, 40),
    data=st.data(),
)
def test_datalog_text_roundtrip(n_patterns, data):
    indices = data.draw(
        st.lists(
            st.integers(0, n_patterns - 1), unique=True, min_size=0, max_size=8
        )
    )
    records = []
    for idx in indices:
        outs = data.draw(
            st.lists(
                st.sampled_from(["z1", "z2", "o3", "q9"]),
                unique=True,
                min_size=1,
                max_size=4,
            )
        )
        records.append(FailRecord(idx, frozenset(outs)))
    d = Datalog("circ", n_patterns, records)
    assert Datalog.from_text(d.to_text()) == d


@SLOW
@given(
    inputs=st.integers(1, 6),
    n=st.integers(0, 30),
    seed=st.integers(0, 1000),
)
def test_patternset_subset_concat_identity(inputs, n, seed):
    names = tuple(f"i{k}" for k in range(inputs))
    ps = PatternSet.random(names, n, seed)
    # subset of everything == original
    assert ps.subset(list(range(n))) == ps
    # concat with empty == original
    empty = PatternSet(names, 0, {})
    assert ps.concat(empty) == ps
    assert empty.concat(ps) == ps


@SLOW
@given(netlist=circuits, seed=st.integers(0, 10_000), site_pick=st.integers(0, 10**6))
def test_flip_criticality_is_involution_consistent(netlist, seed, site_pick):
    """Flipping a site twice restores every output (resim soundness)."""
    from repro.sim.event import resimulate_with_overrides

    patterns = PatternSet.random(netlist, 12, seed)
    base = simulate(netlist, patterns)
    sites = netlist.sites()
    site = sites[site_pick % len(sites)]
    flipped = (base[site.net] ^ patterns.mask) & patterns.mask
    once = resimulate_with_overrides(netlist, base, {site: flipped}, patterns.mask)
    merged = dict(base)
    merged.update(once)
    # flip back: overriding with the original value restores the baseline
    back = resimulate_with_overrides(
        netlist, merged, {site: base[site.net]}, patterns.mask
    )
    restored = dict(merged)
    restored.update(back)
    assert restored == base


@SLOW
@given(netlist=circuits, seed=st.integers(0, 10_000), n_sig=st.integers(1, 4))
def test_compactor_preserves_core_values(netlist, seed, n_sig):
    """Attaching a compactor never changes the original logic's values,
    and each signature is the XOR of its parity group."""
    from repro.tester.compactor import attach_compactor

    compacted = attach_compactor(netlist, n_sig, seed=seed)
    patterns = PatternSet.random(netlist, 12, seed)
    base = simulate(netlist, patterns)
    cmp_patterns = PatternSet(compacted.inputs, patterns.n, patterns.bits)
    values = simulate(compacted, cmp_patterns)
    for net in netlist.nets():
        assert values[net] == base[net]
    if compacted is not netlist:
        total = 0
        for sig in compacted.outputs:
            total ^= values[sig]
        parity = 0
        for out in netlist.outputs:
            parity ^= base[out]
        assert total == parity


@SLOW
@given(netlist=circuits, seed=st.integers(0, 10_000))
def test_verilog_roundtrip_functional(netlist, seed):
    """write_verilog -> parse_verilog preserves functional behavior."""
    from repro.circuit.verilog import parse_verilog, write_verilog

    again = parse_verilog(write_verilog(netlist))
    patterns = PatternSet.random(netlist, 16, seed)
    again_patterns = PatternSet(
        again.inputs,
        patterns.n,
        {new: patterns.bits[old] for old, new in zip(netlist.inputs, again.inputs)},
    )
    want = simulate(netlist, patterns)
    got = simulate(again, again_patterns)
    for old, new in zip(netlist.outputs, again.outputs):
        assert got[new] == want[old]


@SLOW
@given(netlist=circuits, seed=st.integers(0, 10_000))
def test_bench_roundtrip_functional(netlist, seed):
    """write_bench -> parse_bench preserves functional behavior."""
    from repro.circuit.bench import parse_bench, write_bench

    again = parse_bench(write_bench(netlist))
    patterns = PatternSet.random(netlist, 16, seed)
    again_patterns = PatternSet(again.inputs, patterns.n, dict(patterns.bits))
    want = simulate(netlist, patterns)
    got = simulate(again, again_patterns)
    for out in netlist.outputs:
        assert got[out] == want[out]


@SLOW
@given(
    width=st.integers(1, 6),
    stream=st.lists(st.integers(0, 1), min_size=1, max_size=20),
)
def test_unrolled_shift_register_matches_stream(width, stream):
    """Time-frame unrolling agrees with the cycle stepper on real data."""
    from repro.seq.generators import shift_register
    from repro.seq.transform import unroll

    seq = shift_register(width)
    frames = len(stream)
    unrolled = unroll(seq, frames)
    assignment = {}
    for frame, bit in enumerate(stream):
        assignment[f"f{frame}_din"] = bit
    patterns = PatternSet.from_vectors(unrolled.inputs, [assignment])
    values = simulate(unrolled, patterns)
    for frame in range(frames):
        expected = stream[frame - width] if frame >= width else 0
        assert (values[f"f{frame}_dout"] & 1) == expected
