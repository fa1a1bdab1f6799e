"""Unit tests for the Netlist graph structure."""

import pickle

import pytest

from repro.circuit.builder import NetlistBuilder
from repro.circuit.gates import Gate, GateKind
from repro.circuit.netlist import Netlist, Site
from repro.errors import CircuitError, NetlistError


def make(name="m", inputs=("a", "b"), outputs=("z",), gates=()):
    return Netlist(name, inputs, outputs, gates)


class TestConstruction:
    def test_minimal(self):
        n = make(gates=[Gate("z", GateKind.AND, ("a", "b"))])
        assert n.n_gates == 1
        assert n.n_nets == 3

    def test_duplicate_gate_definition(self):
        with pytest.raises(NetlistError, match="defined twice"):
            make(
                gates=[
                    Gate("z", GateKind.AND, ("a", "b")),
                    Gate("z", GateKind.OR, ("a", "b")),
                ]
            )

    def test_duplicate_input(self):
        with pytest.raises(NetlistError, match="duplicate"):
            make(inputs=("a", "a"), gates=[Gate("z", GateKind.BUF, ("a",))])

    def test_input_gate_clash(self):
        with pytest.raises(NetlistError, match="input and gate"):
            make(gates=[Gate("a", GateKind.BUF, ("b",)), Gate("z", GateKind.BUF, ("a",))])

    def test_undefined_reference(self):
        with pytest.raises(NetlistError, match="undefined net"):
            make(gates=[Gate("z", GateKind.AND, ("a", "ghost"))])

    def test_undefined_output(self):
        with pytest.raises(NetlistError, match="undefined"):
            make(outputs=("nope",), gates=[Gate("z", GateKind.AND, ("a", "b"))])

    def test_cycle_detection(self):
        with pytest.raises(NetlistError, match="cycle"):
            make(
                gates=[
                    Gate("x", GateKind.AND, ("a", "y")),
                    Gate("y", GateKind.OR, ("x", "b")),
                    Gate("z", GateKind.BUF, ("y",)),
                ]
            )

    def test_cycle_error_names_the_loop_nets(self):
        with pytest.raises(CircuitError) as info:
            make(
                gates=[
                    Gate("x", GateKind.AND, ("a", "y")),
                    Gate("y", GateKind.OR, ("x", "b")),
                    Gate("z", GateKind.BUF, ("y",)),
                ]
            )
        exc = info.value
        # The cycle is reported as a closed walk over exactly the looping
        # nets -- downstream victims of the loop (here z) are not blamed.
        assert exc.cycle[0] == exc.cycle[-1]
        assert set(exc.cycle) == {"x", "y"}
        assert "z" not in exc.cycle
        for net in ("x", "y"):
            assert net in str(exc)

    def test_self_loop_cycle(self):
        with pytest.raises(CircuitError) as info:
            make(gates=[Gate("z", GateKind.AND, ("a", "z"))])
        assert set(info.value.cycle) == {"z"}

    def test_cycle_error_is_a_netlist_error(self):
        # Callers catching the historical NetlistError keep working.
        assert issubclass(CircuitError, NetlistError)

    def test_explicit_input_pseudo_gate_rejected(self):
        with pytest.raises(NetlistError, match="INPUT"):
            make(gates=[Gate("z", GateKind.INPUT, ())])

    def test_output_may_be_an_input_feedthrough(self):
        n = make(outputs=("a", "z"), gates=[Gate("z", GateKind.AND, ("a", "b"))])
        assert "a" in n.outputs


class TestTopology:
    def test_topo_order_respects_dependencies(self, c17_netlist):
        order = c17_netlist.topo_order
        position = {net: i for i, net in enumerate(order)}
        for net in order:
            for src in c17_netlist.gates[net].inputs:
                if src in position:
                    assert position[src] < position[net]

    def test_topo_order_deterministic(self):
        def build():
            b = NetlistBuilder("d")
            a, c = b.inputs("a", "c")
            x = b.and_(a, c, name="x")
            y = b.or_(a, c, name="y")
            b.output(b.xor(x, y, name="z"))
            return b.build()

        assert build().topo_order == build().topo_order

    def test_levels(self, tiny_and):
        assert tiny_and.level("a") == 0
        assert tiny_and.level("ab") == 1
        assert tiny_and.level("z") == 2
        assert tiny_and.depth == 2
        by_level = [
            net for lvl in range(tiny_and.depth + 1) for net in tiny_and.nets_at_level(lvl)
        ]
        assert sorted(by_level) == sorted(tiny_and.nets())
        assert all(
            tiny_and.level(net) == lvl
            for lvl in range(tiny_and.depth + 1)
            for net in tiny_and.nets_at_level(lvl)
        )

    def test_driver_and_is_input(self, tiny_and):
        assert tiny_and.driver("a") is None
        assert tiny_and.is_input("a")
        assert tiny_and.driver("z").kind is GateKind.OR
        assert not tiny_and.is_input("z")

    def test_fanout_tables(self, fanout_circuit):
        fans = fanout_circuit.fanout("stem")
        assert set(fans) == {("left", 0), ("right", 0)}
        assert fanout_circuit.fanout_count("stem") == 2
        assert fanout_circuit.fanout_count("z") == 0


class TestCones:
    def test_fanin_cone(self, tiny_and):
        assert tiny_and.fanin_cone(["ab"]) == {"ab", "a", "b"}
        assert tiny_and.fanin_cone(["z"]) == {"z", "ab", "a", "b", "c"}

    def test_fanout_cone(self, tiny_and):
        assert tiny_and.fanout_cone(["a"]) == {"a", "ab", "z"}
        assert tiny_and.fanout_cone(["c"]) == {"c", "z"}

    def test_output_cone_map(self, c17_netlist):
        reach = c17_netlist.output_cone_map()
        assert reach["22"] == frozenset({"22"})
        assert reach["11"] == frozenset({"22", "23"})
        assert reach["1"] == frozenset({"22"})
        assert reach["7"] == frozenset({"23"})

    def test_ffr_root_stops_at_fanout(self, fanout_circuit):
        # 'stem' fans out -> it is its own FFR root.
        assert fanout_circuit.ffr_root("stem") == "stem"
        # 'left' feeds only the xor, whose output is a PO.
        assert fanout_circuit.ffr_root("left") == "z"

    def test_extract_cone(self, c17_netlist):
        cone = c17_netlist.extract_cone("22")
        assert set(cone.outputs) == {"22"}
        assert set(cone.inputs) == {"1", "2", "3", "6"}
        assert cone.n_gates == 4

    def test_extract_cone_unknown(self, c17_netlist):
        with pytest.raises(NetlistError):
            c17_netlist.extract_cone("nope")


class TestSites:
    def test_stem_sites_for_every_net(self, tiny_and):
        stems = [s for s in tiny_and.sites() if s.is_stem]
        assert {s.net for s in stems} == set(tiny_and.nets())

    def test_branch_sites_only_on_multifanout(self, fanout_circuit):
        branches = [s for s in fanout_circuit.sites() if not s.is_stem]
        assert {s.net for s in branches} == {"stem", "c"}

    def test_sites_without_branches(self, fanout_circuit):
        assert all(s.is_stem for s in fanout_circuit.sites(include_branches=False))

    def test_validate_site_errors(self, fanout_circuit):
        with pytest.raises(NetlistError):
            fanout_circuit.validate_site(Site("ghost"))
        with pytest.raises(NetlistError):
            fanout_circuit.validate_site(Site("stem", ("ghost", 0)))
        with pytest.raises(NetlistError):
            fanout_circuit.validate_site(Site("stem", ("left", 1)))
        fanout_circuit.validate_site(Site("stem", ("left", 0)))

    def test_sites_are_the_netlists_own(self, fanout_circuit):
        sites = fanout_circuit.sites()
        assert all(a is b for a, b in zip(sites, fanout_circuit.sites()))
        by_value = {site: site for site in sites}
        for net in fanout_circuit.nets():
            assert fanout_circuit.stem_site(net) is by_value[Site(net)]
            branches = fanout_circuit.branch_sites(net)
            assert all(by_value[Site(net, b.branch)] is b for b in branches)
            if fanout_circuit.fanout_count(net) > 1:
                assert [b.branch for b in branches] == list(fanout_circuit.fanout(net))
            else:
                assert branches == ()

    def test_pickled_site_rehashes(self):
        site = Site("n42", ("g7", 1))
        hash(site)
        copy = pickle.loads(pickle.dumps(site))
        assert copy == site and "_hash" not in copy.__dict__

    def test_site_str_roundtrip(self):
        for text in ("n42", "n42->g7.1"):
            assert str(Site.parse(text)) == text

    def test_site_parse_malformed(self):
        with pytest.raises(NetlistError):
            Site.parse("a->b")
        with pytest.raises(NetlistError):
            Site.parse("a->.3")


class TestMisc:
    def test_stats_keys(self, c17_netlist):
        stats = c17_netlist.stats()
        assert stats["gates"] == 6
        assert stats["kind_nand"] == 6
        assert stats["depth"] == 3

    def test_equality_structural(self, tiny_and):
        clone = Netlist(
            "other-name",
            tiny_and.inputs,
            tiny_and.outputs,
            tiny_and.gates.values(),
        )
        assert clone == tiny_and  # name not part of identity

    def test_repr(self, tiny_and):
        assert "tiny" in repr(tiny_and)

    def test_nets_order(self, tiny_and):
        nets = list(tiny_and.nets())
        assert nets[: len(tiny_and.inputs)] == list(tiny_and.inputs)
