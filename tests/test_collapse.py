"""Stuck-at collapsing: rule checks plus a behavioral equivalence oracle."""

import itertools

import pytest

from repro.circuit.builder import NetlistBuilder
from repro.circuit.generators import c17, random_dag
from repro.circuit.netlist import Site
from repro.faults.collapse import collapse_stuck_at
from repro.faults.models import StuckAtDefect
from repro.sim.cache import sim_context
from repro.sim.faultsim import defect_output_diff
from repro.sim.patterns import PatternSet


class TestRules:
    def test_inverter_chain(self):
        b = NetlistBuilder("chain")
        a = b.input("a")
        x = b.not_(a, name="x")
        b.output(b.not_(x, name="z"))
        n = b.build()
        result = collapse_stuck_at(n)
        rep = result.representative
        # a sa0 == x sa1 == z sa0; a sa1 == x sa0 == z sa1.
        assert rep[StuckAtDefect(Site("a"), 0)] == rep[StuckAtDefect(Site("x"), 1)]
        assert rep[StuckAtDefect(Site("x"), 1)] == rep[StuckAtDefect(Site("z"), 0)]
        assert rep[StuckAtDefect(Site("a"), 1)] == rep[StuckAtDefect(Site("z"), 1)]
        assert len(result.classes) == 2

    def test_and_gate_classes(self):
        b = NetlistBuilder("and2")
        a, c = b.inputs("a", "c")
        b.output(b.and_(a, c, name="z"))
        n = b.build()
        result = collapse_stuck_at(n)
        rep = result.representative
        # sa0 on either input == z sa0.
        assert rep[StuckAtDefect(Site("a"), 0)] == rep[StuckAtDefect(Site("z"), 0)]
        assert rep[StuckAtDefect(Site("c"), 0)] == rep[StuckAtDefect(Site("z"), 0)]
        # sa1 faults all distinct.
        sa1_reps = {
            rep[StuckAtDefect(Site(net), 1)] for net in ("a", "c", "z")
        }
        assert len(sa1_reps) == 3
        assert result.collapse_ratio < 1.0

    def test_multifanout_stem_not_merged(self, fanout_circuit):
        result = collapse_stuck_at(fanout_circuit, include_branches=False)
        rep = result.representative
        # 'stem' fans out to two gates; without branch sites its faults must
        # NOT be merged into either reader.
        assert rep[StuckAtDefect(Site("stem"), 0)] != rep[
            StuckAtDefect(Site("left"), 0)
        ]

    def test_branch_fault_merges_into_reader(self, fanout_circuit):
        result = collapse_stuck_at(fanout_circuit, include_branches=True)
        rep = result.representative
        branch = Site("stem", ("left", 0))
        assert rep[StuckAtDefect(branch, 0)] == rep[StuckAtDefect(Site("left"), 0)]

    def test_xor_not_collapsed(self):
        b = NetlistBuilder("x")
        a, c = b.inputs("a", "c")
        b.output(b.xor(a, c, name="z"))
        n = b.build()
        result = collapse_stuck_at(n)
        assert len(result.classes) == 6  # nothing merged


class TestBehavioralOracle:
    """Collapsed faults must be indistinguishable on exhaustive patterns."""

    @pytest.mark.parametrize("make", [c17, lambda: random_dag(40, n_inputs=6, n_outputs=4, seed=9)])
    def test_classes_share_detection_signature(self, make):
        n = make()
        pats = PatternSet.exhaustive(n)
        ctx = sim_context(n, pats)
        result = collapse_stuck_at(n)
        for cls in result.classes:
            signatures = {
                tuple(sorted(defect_output_diff(ctx, f).items())) for f in cls
            }
            assert len(signatures) == 1, f"class {list(map(str, cls))} not equivalent"

    def test_representative_is_member(self):
        n = c17()
        result = collapse_stuck_at(n)
        for cls in result.classes:
            assert result.representative[cls[0]] == cls[0]
            for fault in cls:
                assert result.representative[fault] == cls[0]

    def test_equivalent_helper(self):
        n = c17()
        result = collapse_stuck_at(n)
        f = result.classes[0][0]
        assert result.equivalent(f, f)
