"""Response-match metric tests."""

import pytest
from hypothesis import example, given, strategies as st

from repro.circuit.library import load_circuit
from repro.circuit.netlist import Site
from repro.core.oracle import hypothesis_to_defect
from repro.core.report import Hypothesis
from repro.core.scoring import (
    MatchCounter,
    atoms_iou,
    diff_to_atoms,
    match_counts,
    multiplet_diff,
    multiplet_iou,
)
from repro.errors import OscillationError
from repro.faults.injection import FaultyCircuit
from repro.faults.models import StuckAtDefect
from repro.sim.cache import reset_sim_caches, sim_context
from repro.sim.faultsim import defect_output_diff
from repro.sim.patterns import PatternSet
from repro.tester.harness import apply_test


class TestDiffToAtoms:
    def test_expansion(self):
        atoms = diff_to_atoms({"z": 0b101, "w": 0b010})
        assert atoms == {(0, "z"), (2, "z"), (1, "w")}

    def test_empty(self):
        assert diff_to_atoms({}) == frozenset()


class TestMatchCounts:
    def test_partition(self):
        predicted = frozenset({(0, "z"), (1, "z"), (5, "w")})
        observed = frozenset({(0, "z"), (2, "w")})
        failing = [0, 1, 2]
        hits, misses, fa = match_counts(predicted, observed, failing)
        assert hits == 1  # (0, z)
        assert misses == 1  # (2, w)
        assert fa == 1  # (5, w) on a passing pattern
        # (1, z) predicted on a *failing* pattern is tolerated (masking).

    def test_perfect(self):
        p = frozenset({(0, "z")})
        assert match_counts(p, p, [0]) == (1, 0, 0)


class TestIou:
    def test_bounds(self):
        a = frozenset({(0, "z"), (1, "z")})
        b = frozenset({(1, "z"), (2, "z")})
        assert atoms_iou(a, a) == 1.0
        assert atoms_iou(a, frozenset()) == 0.0
        assert atoms_iou(a, b) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert atoms_iou(frozenset(), frozenset()) == 1.0


#: Counter property universe: 12 patterns, three outputs that may fail
#: and one (``q``) that never does.
_N = 12
_OUTS = ("z", "w", "v")
_atom = st.tuples(st.integers(0, _N - 1), st.sampled_from(_OUTS))


@given(
    diff=st.dictionaries(
        st.sampled_from(_OUTS + ("q",)), st.integers(1, (1 << _N) - 1)
    ),
    observed=st.frozensets(_atom),
    failing=st.frozensets(st.integers(0, _N - 1)),
    n_observed=st.none() | st.integers(0, _N),
    x_atoms=st.frozensets(_atom | st.tuples(st.integers(0, _N - 1), st.just("q"))),
)
@example(
    diff={"z": 0b1111, "w": 0b10_0000, "q": 0b1010_0000},
    # (5, "w") is observed on a pattern outside ``failing``, as the
    # oracle's raw-log evidence can hold.
    observed=frozenset({(0, "z"), (5, "w")}),
    failing=frozenset({0, 1}),
    n_observed=6,  # a truncated window: patterns 6..11 never vindicate
    x_atoms=frozenset({(1, "z"), (2, "z"), (7, "q")}),  # X on failing and passing
)
def test_counter_equals_atom_counts(diff, observed, failing, n_observed, x_atoms):
    counter = MatchCounter(observed, failing, n_observed, x_atoms)
    predicted = diff_to_atoms(diff)
    assert counter.counts(diff) == match_counts(
        predicted, observed, failing, n_observed, x_atoms
    )
    assert counter.iou(diff) == atoms_iou(predicted, observed)
    assert counter.n_atoms == len(observed)


class TestSimulationBacked:
    def test_predicted_atoms_match_observed_for_true_fault(self, rca4):
        """The true fault scores every observed atom as a hit, with no
        miss and no false alarm."""
        pats = PatternSet.random(rca4, 32, seed=3)
        fault = StuckAtDefect(Site("a1"), 0)
        datalog = apply_test(rca4, pats, [fault]).datalog
        counter = MatchCounter.of_datalog(datalog)
        diff = defect_output_diff(sim_context(rca4, pats), fault)
        assert datalog.n_fail_atoms > 0
        assert counter.counts(diff) == (datalog.n_fail_atoms, 0, 0)
        assert counter.iou(diff) == 1.0

    def test_multiplet_iou_perfect_for_truth(self, rca4):
        pats = PatternSet.random(rca4, 32, seed=3)
        defects = [StuckAtDefect(Site("a1"), 0), StuckAtDefect(Site("b3"), 1)]
        result = apply_test(rca4, pats, defects)
        observed = frozenset(result.datalog.fail_atoms())
        counter = MatchCounter(observed, result.datalog.failing_indices)
        assert multiplet_iou(sim_context(rca4, pats), defects, counter) == 1.0

    def test_multiplet_iou_empty_defect_list(self, rca4):
        pats = PatternSet.random(rca4, 8, seed=3)
        counter = MatchCounter(frozenset(), ())
        assert multiplet_iou(sim_context(rca4, pats), [], counter) is None


def test_one_defect_multiplet_matches_the_fixpoint():
    """A one-defect multiplet's response, read through the shared context,
    equals the FaultyCircuit fixpoint for every kind a hypothesis
    materializes into, and so does its IoU."""
    netlist = load_circuit("alu16")
    patterns = PatternSet.random(netlist, 48, seed=5)
    reset_sim_caches()
    ctx = sim_context(netlist, patterns)
    base = ctx.base
    mask = patterns.mask
    truth = StuckAtDefect(Site(netlist.topo_order[60]), 1)
    datalog = apply_test(netlist, patterns, [truth]).datalog
    counter = MatchCounter.of_datalog(datalog)
    nets = netlist.topo_order[::23]
    hypotheses = []
    for net in nets:
        stem = Site(net)
        hypotheses += [Hypothesis(kind, stem) for kind in ("sa0", "sa1", "str", "stf")]
        for dest in netlist.fanout(net)[:2]:
            branch = Site(net, dest)
            hypotheses += [Hypothesis(kind, branch) for kind in ("open0", "open1")]
        # Dominant bridges from an aggressor outside the victim's cone (one
        # site overridden) and from one inside it (the fixpoint fallback).
        cone = netlist.fanout_cone([net])
        for aggressor in (
            next((n for n in netlist.topo_order if n not in cone), None),
            next((n for n in netlist.topo_order if n in cone and n != net), None),
        ):
            if aggressor is not None:
                hypotheses.append(Hypothesis("bridge", stem, aggressor=aggressor))
    kinds = set()
    for hypothesis in hypotheses:
        defect = hypothesis_to_defect(hypothesis)
        try:
            faulty = FaultyCircuit(netlist, [defect]).simulate_outputs(patterns)
        except OscillationError:
            assert multiplet_diff(ctx, [defect]) is None
            assert multiplet_iou(ctx, [defect], counter) is None
            continue
        want = {
            out: (faulty[out] ^ base[out]) & mask
            for out in netlist.outputs
            if (faulty[out] ^ base[out]) & mask
        }
        assert multiplet_diff(ctx, [defect]) == want, str(defect)
        assert multiplet_iou(ctx, [defect], counter) == atoms_iou(
            diff_to_atoms(want), datalog.fail_atoms()
        ), str(defect)
        kinds.add(hypothesis.kind)
    assert kinds == {"sa0", "sa1", "open0", "open1", "str", "stf", "bridge"}
