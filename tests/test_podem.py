"""PODEM test generation: every produced pattern must actually detect its
target (verified by independent fault simulation), untestable faults in
redundant logic must be proven so, and the incremental implication must
match a from-scratch three-valued simulation after every step."""

import random

import pytest

from repro.atpg.podem import X, Podem, justify
from repro.circuit.builder import NetlistBuilder
from repro.circuit.gates import TV_X, GateKind, tv_const
from repro.circuit.generators import c17, mux_tree, random_dag, ripple_carry_adder
from repro.circuit.netlist import Netlist, Site
from repro.errors import AtpgError
from repro.faults.collapse import collapse_stuck_at
from repro.faults.models import StuckAtDefect
from repro.sim.cache import sim_context
from repro.sim.faultsim import detect_vector
from repro.sim.patterns import PatternSet
from repro.sim.threeval import simulate3


def _assert_detects(netlist, pattern, fault):
    pats = PatternSet.from_vectors(netlist.inputs, [pattern])
    assert detect_vector(sim_context(netlist, pats), fault) == 1, str(fault)


@pytest.mark.parametrize(
    "make",
    [c17, lambda: ripple_carry_adder(4), lambda: mux_tree(3),
     lambda: random_dag(60, n_inputs=8, n_outputs=4, seed=21)],
)
def test_detects_every_collapsed_fault(make):
    netlist = make()
    engine = Podem(netlist, max_backtracks=512, seed=1)
    for fault in collapse_stuck_at(netlist).representatives:
        result = engine.generate(fault)
        assert result.status != "aborted", str(fault)
        if result.success:
            _assert_detects(netlist, result.pattern, fault)
        else:
            # Claimed untestable: exhaustive simulation must agree.
            pats = PatternSet.exhaustive(netlist)
            assert detect_vector(sim_context(netlist, pats), fault) == 0, str(fault)


def test_untestable_redundant_fault():
    """z = a OR (a AND b): the AND output sa0 is classically undetectable."""
    b = NetlistBuilder("red")
    a, bb = b.inputs("a", "b")
    ab = b.and_(a, bb, name="ab")
    b.output(b.or_(a, ab, name="z"))
    n = b.build()
    result = Podem(n).generate(StuckAtDefect(Site("ab"), 0))
    assert result.status == "untestable"
    assert result.pattern is None


def test_branch_fault_generation(fanout_circuit):
    engine = Podem(fanout_circuit, seed=3)
    fault = StuckAtDefect(Site("stem", ("left", 0)), 1)
    result = engine.generate(fault)
    assert result.success
    _assert_detects(fanout_circuit, result.pattern, fault)


def test_result_pattern_is_complete(c17_netlist):
    result = Podem(c17_netlist).generate(StuckAtDefect(Site("10"), 1))
    assert result.success
    assert set(result.pattern) == set(c17_netlist.inputs)
    assert all(v in (0, 1) for v in result.pattern.values())


class TestJustify:
    def test_justify_internal_net(self, rca4):
        from tests.conftest import naive_simulate

        for net in ("sum2", "cout"):
            for value in (0, 1):
                pattern = justify(rca4, net, value, seed=2)
                assert pattern is not None
                assert naive_simulate(rca4, pattern)[net] == value

    def test_justify_constant_conflict(self):
        b = NetlistBuilder("k")
        a = b.input("a")
        one = b.const1()
        b.output(b.or_(a, one, name="z"))
        n = b.build()
        assert justify(n, "z", 0) is None

    def test_justify_validation(self, rca4):
        with pytest.raises(AtpgError):
            justify(rca4, "sum0", 2)
        with pytest.raises(AtpgError):
            justify(rca4, "ghost", 1)


# -- incremental implication against a from-scratch simulation -----------------

_MIXED_KINDS = (
    GateKind.AND, GateKind.NAND, GateKind.OR, GateKind.NOR,
    GateKind.XOR, GateKind.XNOR, GateKind.NOT, GateKind.BUF, GateKind.MUX,
)


def _mixed_dag(seed: int, n_gates: int = 36, n_inputs: int = 6) -> Netlist:
    """Random DAG over every gate kind PODEM handles, MUX included."""
    rng = random.Random(seed)
    b = NetlistBuilder(f"mixed{seed}")
    pool = b.input_bus("i", n_inputs)
    if seed % 2:
        pool.append(b.const1())
    for _ in range(n_gates):
        kind = rng.choice(_MIXED_KINDS)
        arity = kind.max_inputs or rng.randint(2, 3)
        pool.append(b.gate(kind, [rng.choice(pool[-10:]) for _ in range(arity)]))
    for net in pool[-3:]:
        b.output(net)
    return b.build()


def _scalar(tv) -> int:
    return {(0, 1): 0, (1, 0): 1, (1, 1): X}[tv]


class _CheckedPodem(Podem):
    """Compares both machines with :func:`simulate3` after every step.

    The reference sees the assigned inputs as a one-pattern set, every
    other input as X through a stem override, and the fault as an override.
    """

    def __init__(self, *args, **kwargs):
        self.checks = 0
        super().__init__(*args, **kwargs)

    def _start(self, fault):
        super()._start(fault)
        self.fault = fault
        self.assigned: list[tuple[str, int]] = []
        self._check()

    def _imply(self, pi, value):
        super()._imply(pi, value)
        self.assigned.append((pi, value))
        self._check()

    def _undo(self):
        super()._undo()
        self.assigned.pop()
        self._check()

    def _check(self) -> None:
        netlist = self.netlist
        assigned = dict(self.assigned)
        patterns = PatternSet.from_vectors(
            netlist.inputs, [{pi: assigned.get(pi, 0) for pi in netlist.inputs}]
        )
        overrides = {Site(pi): TV_X for pi in netlist.inputs if pi not in assigned}
        good = simulate3(netlist, patterns, overrides)
        faulty = good
        if self.fault is not None:
            overrides[self.fault.site] = tv_const(self.fault.value, 1)
            faulty = simulate3(netlist, patterns, overrides)
        assert self._good == {net: _scalar(good[net]) for net in netlist.nets()}
        assert self._faulty == {net: _scalar(faulty[net]) for net in netlist.nets()}
        self.checks += 1


@pytest.mark.parametrize("seed", range(4))
def test_incremental_implication_matches_full_simulation(seed):
    netlist = _mixed_dag(seed)
    engine = _CheckedPodem(netlist, max_backtracks=8, seed=seed)
    backtracks = 0
    sites = netlist.sites()
    assert any(site.branch for site in sites)
    for site in sites:
        for value in (0, 1):
            backtracks += engine.generate(StuckAtDefect(site, value)).backtracks
    for net in netlist.nets():
        for value in (0, 1):
            engine._search(None, goal=(net, value))
    assert backtracks > 0
    assert engine.checks > 2 * len(sites)


# -- cone-bounded scans against full-netlist scans -----------------------------


class _ConeCheckedPodem(Podem):
    """Compares the cone-bounded D-frontier and X-path check with the
    full-netlist scans they replaced, kept here as references, at every
    decision and backtrack."""

    def __init__(self, *args, **kwargs):
        self.checks = 0
        super().__init__(*args, **kwargs)

    def _start(self, fault):
        super()._start(fault)
        self.fault = fault

    def _imply(self, pi, value):
        super()._imply(pi, value)
        self._check()

    def _undo(self):
        super()._undo()
        self._check()

    def _check(self) -> None:
        if self.fault is None:
            return
        good, faulty = self._good, self._faulty
        assert self._d_frontier(good, faulty, self.fault) == self._full_d_frontier(
            good, faulty, self.fault
        )
        assert self._x_path_exists(good, faulty) == self._full_x_path_exists(good, faulty)
        self.checks += 1

    def _full_d_frontier(self, good, faulty, fault):
        frontier = []
        for net in self.netlist.topo_order:
            if good[net] != X and faulty[net] != X:
                continue
            gate = self.netlist.gates[net]
            if any(self._error(good, faulty, src) for src in gate.inputs):
                frontier.append(net)
        if fault.site.branch is not None:
            gate_out = fault.site.branch[0]
            activated = good[fault.site.net] == fault.value ^ 1
            undecided = good[gate_out] == X or faulty[gate_out] == X
            if activated and undecided and gate_out not in frontier:
                frontier.insert(0, gate_out)
        return frontier

    def _full_x_path_exists(self, good, faulty):
        nets = list(self.netlist.nets())
        if not any(self._error(good, faulty, net) for net in nets):
            return True
        alive = {
            net
            for net in nets
            if self._error(good, faulty, net) or faulty[net] == X or good[net] == X
        }
        return any(
            out in alive and self._reaches_error_backward(out, alive, good, faulty)
            for out in self.netlist.outputs
        )


@pytest.mark.parametrize("seed", range(4))
def test_cone_bounded_scans_match_full_scans(seed):
    netlist = _mixed_dag(seed)
    engine = _ConeCheckedPodem(netlist, max_backtracks=8, seed=seed)
    plain = Podem(netlist, max_backtracks=8, seed=seed)
    sites = netlist.sites()
    assert any(site.branch for site in sites)
    backtracks = 0
    for site in sites:
        for value in (0, 1):
            fault = StuckAtDefect(site, value)
            checked = engine.generate(fault)
            assert checked == plain.generate(fault)
            backtracks += checked.backtracks
    assert backtracks > 0
    assert engine.checks > 2 * len(sites)
