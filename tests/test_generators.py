"""Functional correctness of the parametric benchmark generators."""

import itertools

import pytest

from repro.circuit import generators as gen
from repro.sim.logicsim import simulate_outputs
from repro.sim.patterns import PatternSet

from tests.conftest import naive_simulate


def _bits(value: int, width: int) -> dict[str, int]:
    return {str(i): (value >> i) & 1 for i in range(width)}


def _bus_assignment(prefix: str, value: int, width: int) -> dict[str, int]:
    return {f"{prefix}{i}": (value >> i) & 1 for i in range(width)}


def _bus_value(values: dict[str, int], prefix: str, width: int) -> int:
    return sum(values[f"{prefix}{i}"] << i for i in range(width))


class TestArithmetic:
    @pytest.mark.parametrize("width", [2, 4])
    def test_ripple_carry_adder_exhaustive(self, width):
        n = gen.ripple_carry_adder(width)
        for a in range(1 << width):
            for b in range(1 << width):
                for cin in (0, 1):
                    assignment = {
                        **_bus_assignment("a", a, width),
                        **_bus_assignment("b", b, width),
                        "cin": cin,
                    }
                    values = naive_simulate(n, assignment)
                    total = _bus_value(values, "sum", width) + (values["cout"] << width)
                    assert total == a + b + cin

    @pytest.mark.parametrize("width,block", [(4, 2), (8, 4)])
    def test_carry_select_equals_ripple(self, width, block):
        csa = gen.carry_select_adder(width, block)
        rca = gen.ripple_carry_adder(width)
        # Same port names -> same random pattern set applies to both.
        pats = PatternSet.random(rca.inputs, 128, seed=11)
        out_rca = simulate_outputs(rca, pats)
        pats_csa = PatternSet(csa.inputs, pats.n, pats.bits)
        out_csa = simulate_outputs(csa, pats_csa)
        for i in range(width):
            assert out_rca[f"sum{i}"] == out_csa[f"sum{i}"]
        assert out_rca["cout"] == out_csa["cout"]

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_array_multiplier_exhaustive(self, width):
        n = gen.array_multiplier(width)
        for a in range(1 << width):
            for b in range(1 << width):
                assignment = {
                    **_bus_assignment("a", a, width),
                    **_bus_assignment("b", b, width),
                }
                values = naive_simulate(n, assignment)
                product = _bus_value(values, "p", 2 * width)
                assert product == a * b, (a, b)


class TestSelectionAndLogic:
    @pytest.mark.parametrize("width", [2, 5, 8])
    def test_parity_tree(self, width):
        n = gen.parity_tree(width)
        for value in range(1 << width):
            values = naive_simulate(n, _bus_assignment("d", value, width))
            assert values["parity"] == bin(value).count("1") % 2

    @pytest.mark.parametrize("bits", [2, 3])
    def test_mux_tree_selects(self, bits):
        n = gen.mux_tree(bits)
        width = 1 << bits
        for data in (0b0110, 0b1010, 0b0001):
            for sel in range(width):
                assignment = {
                    **_bus_assignment("d", data & ((1 << width) - 1), width),
                    **_bus_assignment("s", sel, bits),
                }
                values = naive_simulate(n, assignment)
                assert values["y"] == (data >> sel) & 1

    @pytest.mark.parametrize("bits", [2, 3])
    def test_decoder_one_hot(self, bits):
        n = gen.decoder(bits)
        for sel in range(1 << bits):
            for en in (0, 1):
                assignment = {**_bus_assignment("s", sel, bits), "en": en}
                values = naive_simulate(n, assignment)
                for code in range(1 << bits):
                    expected = int(en and code == sel)
                    assert values[f"y{code}"] == expected

    @pytest.mark.parametrize("width", [2, 4])
    def test_comparator(self, width):
        n = gen.comparator(width)
        for a in range(1 << width):
            for b in range(1 << width):
                assignment = {
                    **_bus_assignment("a", a, width),
                    **_bus_assignment("b", b, width),
                }
                values = naive_simulate(n, assignment)
                assert values["eq"] == int(a == b)
                assert values["lt"] == int(a < b)
                assert values["gt"] == int(a > b)

    def test_majority(self):
        n = gen.majority(5)
        for value in range(1 << 5):
            values = naive_simulate(n, _bus_assignment("v", value, 5))
            assert values["maj"] == int(bin(value).count("1") >= 3)

    def test_majority_requires_odd(self):
        with pytest.raises(ValueError):
            gen.majority(4)


class TestAlu:
    @pytest.mark.parametrize("width", [2, 4])
    def test_alu_all_ops(self, width):
        n = gen.alu(width)
        mask = (1 << width) - 1
        ops = {
            (0, 0): lambda a, b: a & b,
            (1, 0): lambda a, b: a | b,
            (0, 1): lambda a, b: a ^ b,
            (1, 1): lambda a, b: (a + b) & mask,
        }
        for a in range(1 << width):
            for b in range(1 << width):
                for (op0, op1), fn in ops.items():
                    assignment = {
                        **_bus_assignment("a", a, width),
                        **_bus_assignment("b", b, width),
                        "op0": op0,
                        "op1": op1,
                    }
                    values = naive_simulate(n, assignment)
                    result = _bus_value(values, "r", width)
                    assert result == fn(a, b), (a, b, op0, op1)
                    assert values["zero"] == int(result == 0)
                    if (op0, op1) == (1, 1):
                        assert values["carry"] == (a + b) >> width


class TestRandomDag:
    def test_deterministic_for_seed(self):
        a = gen.random_dag(60, seed=5)
        b = gen.random_dag(60, seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        assert gen.random_dag(60, seed=5) != gen.random_dag(60, seed=6)

    def test_requested_size(self):
        n = gen.random_dag(120, n_inputs=10, n_outputs=6, seed=1)
        assert n.n_gates >= 120  # core gates + XOR compactor
        assert len(n.inputs) == 10
        assert 1 <= len(n.outputs) <= 6

    def test_is_valid_dag(self):
        n = gen.random_dag(200, seed=3)
        assert len(n.topo_order) >= 200  # levelization implies acyclicity

    def test_fully_observable(self):
        """Every net must reach some primary output (compacted sinks)."""
        n = gen.random_dag(150, n_inputs=10, n_outputs=5, seed=4)
        outputs = set(n.outputs)
        for net in n.nets():
            assert n.fanout_cone([net]) & outputs, net
