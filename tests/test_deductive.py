"""Deductive fault simulation vs the serial cone-resimulation oracle."""

import pytest

from repro.circuit.generators import alu, c17, mux_tree, random_dag, ripple_carry_adder
from repro.circuit.netlist import Site
from repro.errors import SimulationError
from repro.faults.models import StuckAtDefect
from repro.sim.cache import sim_context
from repro.sim.deductive import deductive_coverage, deductive_detects
from repro.sim.event import changed_outputs, resimulate_with_overrides
from repro.sim.faultsim import detect_vector
from repro.sim.logicsim import simulate
from repro.sim.patterns import PatternSet


def _stem_faults(netlist):
    return [
        StuckAtDefect(Site(net), v) for net in netlist.nets() for v in (0, 1)
    ]


@pytest.mark.parametrize(
    "make",
    [
        c17,
        lambda: ripple_carry_adder(4),
        lambda: mux_tree(3),
        lambda: alu(3),
        lambda: random_dag(60, n_inputs=8, n_outputs=4, seed=33),
        lambda: random_dag(60, n_inputs=8, n_outputs=4, seed=34),
    ],
)
def test_matches_serial_fault_simulation(make):
    netlist = make()
    patterns = PatternSet.random(netlist, 24, seed=5)
    base = simulate(netlist, patterns)
    mask = patterns.mask
    faults = _stem_faults(netlist)
    deduced = deductive_detects(netlist, patterns, faults, base)
    ctx = sim_context(netlist, patterns)
    for fault in faults:
        forced = {fault.site: mask if fault.value else 0}
        changed = resimulate_with_overrides(netlist, base, forced, mask)
        serial = 0
        for delta in changed_outputs(netlist, changed, base, mask).values():
            serial |= delta
        assert deduced[fault] == serial, str(fault)
        # Grading traces critical paths on the shared context.
        assert detect_vector(ctx, fault) == serial, str(fault)


def test_default_fault_list_is_all_stems(c17_netlist):
    patterns = PatternSet.exhaustive(c17_netlist)
    deduced = deductive_detects(c17_netlist, patterns)
    assert len(deduced) == 2 * c17_netlist.n_nets


def test_branch_faults_rejected(fanout_circuit):
    patterns = PatternSet.exhaustive(fanout_circuit)
    branch = next(s for s in fanout_circuit.sites() if not s.is_stem)
    with pytest.raises(SimulationError, match="stem faults only"):
        deductive_detects(fanout_circuit, patterns, [StuckAtDefect(branch, 0)])


def test_coverage_matches_serial(rca4):
    patterns = PatternSet.random(rca4, 32, seed=6)
    faults = _stem_faults(rca4)
    cov = deductive_coverage(rca4, patterns, faults)
    ctx = sim_context(rca4, patterns)
    serial_detected = sum(1 for f in faults if detect_vector(ctx, f))
    assert cov == pytest.approx(serial_detected / len(faults))


def test_empty_fault_list():
    netlist = c17()
    patterns = PatternSet.exhaustive(netlist)
    assert deductive_coverage(netlist, patterns, []) == 1.0
