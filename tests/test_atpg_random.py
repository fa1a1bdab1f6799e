"""Random+compaction ATPG flow and transition test generation."""

import itertools
import time

import pytest

from repro.atpg import random_gen
from repro.atpg.random_gen import generate_stuck_at_tests
from repro.atpg.transition import generate_transition_tests
from repro.circuit.generators import c17, parity_tree, random_dag, ripple_carry_adder
from repro.circuit.library import load_circuit
from repro.circuit.netlist import Site
from repro.faults.collapse import collapse_stuck_at
from repro.faults.models import TransitionDefect, TransitionKind
from repro.sim.cache import sim_context
from repro.sim.faultsim import detect_vector, fault_coverage


@pytest.mark.parametrize("make", [c17, lambda: ripple_carry_adder(4), lambda: parity_tree(8)])
def test_full_coverage_on_small_circuits(make):
    netlist = make()
    report = generate_stuck_at_tests(netlist, seed=3)
    assert report.coverage == 1.0
    assert report.n_aborted == 0
    # Re-grade independently.
    targets = collapse_stuck_at(netlist).representatives
    final = fault_coverage(netlist, report.patterns, targets)
    assert len(final.undetected) == report.n_untestable


def test_compaction_keeps_coverage():
    netlist = ripple_carry_adder(6)
    compact = generate_stuck_at_tests(netlist, seed=5, compact=True)
    loose = generate_stuck_at_tests(netlist, seed=5, compact=False)
    assert compact.coverage == pytest.approx(loose.coverage)
    assert compact.patterns.n <= loose.patterns.n


def test_deterministic_for_seed():
    a = generate_stuck_at_tests(c17(), seed=9)
    b = generate_stuck_at_tests(c17(), seed=9)
    assert a.patterns == b.patterns


def _aborting_dag():
    """Random DAG where a one-backtrack PODEM aborts on faults that later
    PODEM vectors detect."""
    return random_dag(120, n_inputs=10, n_outputs=5, seed=0)


_ABORTING_OPTIONS = dict(seed=0, max_backtracks=1, random_batch=8, max_random_batches=2)


def _assert_accounting(netlist, report):
    assert report.n_faults == len(collapse_stuck_at(netlist).representatives)
    assert (
        report.n_detected + report.n_untestable + report.n_aborted + report.n_skipped
        == report.n_faults
    )
    assert len(report.undetected) == report.n_aborted + report.n_skipped
    assert not fault_coverage(netlist, report.patterns, report.undetected).detected


def test_report_accounting():
    for make, options in ((c17, dict(seed=1)), (_aborting_dag, _ABORTING_OPTIONS)):
        netlist = make()
        report = generate_stuck_at_tests(netlist, **options)
        _assert_accounting(netlist, report)
        assert 0 < report.collapse_ratio <= 1.0


def test_spent_budget_skips_the_remaining_faults(monkeypatch):
    netlist = _aborting_dag()
    full = generate_stuck_at_tests(netlist, **_ABORTING_OPTIONS)
    monkeypatch.setattr(random_gen, "PODEM_WORK_BUDGET", 1)
    cut = generate_stuck_at_tests(netlist, **_ABORTING_OPTIONS)
    _assert_accounting(netlist, cut)
    assert 0 < cut.podem_work < full.podem_work
    assert cut.n_skipped > 0 and full.n_skipped == 0
    # One PODEM call spends the budget; every later fault is skipped.
    assert cut.n_untestable + cut.n_aborted + cut.podem_patterns <= 1


def test_report_ignores_the_clock(monkeypatch):
    netlist = load_circuit("mul8")
    expected = generate_stuck_at_tests(netlist, seed=7)
    clock = itertools.count(step=100.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    assert generate_stuck_at_tests(netlist, seed=7) == expected


#: ``generate_stuck_at_tests(seed=7)``: pattern-set fingerprint, n_faults,
#: n_detected, n_untestable, n_aborted, podem_patterns, random_patterns,
#: undetected.
PINNED_TEST_SETS = {
    "alu8": ("a2f087b6d5da2bbb", 406, 400, 6, 0, 0, 25, []),
    "mul8": ("d57744d80e979eb0", 1580, 1490, 89, 1, 0, 25, ["n361->n364.0 sa1"]),
    "alu16": ("d66a73d2281f0483", 806, 800, 6, 0, 23, 31, []),
    "mul12": ("306a99eef1f17d84", 3532, 3394, 137, 1, 0, 31, ["n829->n832.0 sa1"]),
    "csa32": ("9575eaab32a19534", 1602, 1530, 72, 0, 0, 34, []),
    "rnd100": ("37f359ceb36cd205", 492, 253, 239, 0, 0, 11, []),
}


def _pinned_fields(report):
    return (
        report.patterns.fingerprint(),
        report.n_faults,
        report.n_detected,
        report.n_untestable,
        report.n_aborted,
        report.podem_patterns,
        report.random_patterns,
        [str(fault) for fault in report.undetected],
    )


@pytest.mark.parametrize("name", sorted(PINNED_TEST_SETS))
def test_provisioned_test_sets_are_pinned(name):
    report = generate_stuck_at_tests(load_circuit(name), seed=7)
    assert _pinned_fields(report) == PINNED_TEST_SETS[name]


#: ``generate_stuck_at_tests(seed=7)`` where the top-off runs out of
#: budget: pattern-set fingerprint, then n_detected, n_untestable,
#: n_aborted, n_skipped and podem_work.  ``rnd1000`` grades 4,608 faults
#: over NAND/NOR/XNOR-heavy logic.
BUDGET_CUTS = {
    "rnd300": ("05dee23af73acdf4", (909, 5, 111, 387, 3001498)),
    "rnd1000": ("178e8e1333382eaf", (1582, 0, 40, 2986, 3040445)),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(BUDGET_CUTS))
def test_work_budget_cut_is_pinned(name):
    """The cut, and so the whole report, must not depend on the machine."""
    report = generate_stuck_at_tests(load_circuit(name), seed=7)
    assert (
        report.patterns.fingerprint(),
        (
            report.n_detected, report.n_untestable, report.n_aborted,
            report.n_skipped, report.podem_work,
        ),
    ) == BUDGET_CUTS[name]


class TestTransitionAtpg:
    def test_pairs_detect_their_targets(self):
        netlist = c17()
        sites = [Site(net) for net in list(netlist.nets())[:6]]
        report = generate_transition_tests(netlist, sites, seed=4)
        assert report.patterns.n % 2 == 0
        assert report.coverage > 0.5
        # Every covered target must actually be detected by the pattern set
        # under the consecutive-pair delay semantics.
        ctx = sim_context(netlist, report.patterns)
        detected = 0
        for site in sites:
            for kind in TransitionKind:
                detected += bool(detect_vector(ctx, TransitionDefect(site, kind)))
        assert detected >= report.n_covered

    def test_default_sites_all_stems(self):
        netlist = c17()
        report = generate_transition_tests(netlist, seed=4)
        assert report.n_targets == 2 * netlist.n_nets
