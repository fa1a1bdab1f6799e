"""Unit tests for the Netlist graph structure."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.builder import NetlistBuilder
from repro.circuit.gates import Gate, GateKind
from repro.circuit.library import circuit_names, load_circuit
from repro.circuit.netlist import Netlist, Site
from repro.errors import CircuitError, NetlistError
from repro.sim.compile import kernels_for

from tests.test_properties import circuits


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
        assert list(tiny_and.net_ids) == list(tiny_and.nets())
        assert tiny_and.cone_gates(tiny_and.fanout_bits(["a"])) == ["ab", "z"]
        assert tiny_and.fanout_bits([]) == 0

    def test_fanout_bits_unknown_root(self, tiny_and):
        with pytest.raises(NetlistError, match="unknown net 'nope'"):
            tiny_and.fanout_bits(["a", "nope"])

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


def _dfs_fanout_cone(netlist, roots) -> set[str]:
    """Reference: every net reachable from ``roots`` by a depth-first walk
    over :meth:`Netlist.fanout`."""
    seen: set[str] = set()
    stack = list(roots)
    while stack:
        net = stack.pop()
        if net not in seen:
            seen.add(net)
            stack.extend(dest for dest, _pin in netlist.fanout(net))
    return seen


def _check_cone_table(netlist, rng) -> None:
    """Decoded :meth:`Netlist.fanout_bits` equals the DFS reference for
    every net as a single root, for root sets, and for a primary input
    and a primary output together; the gate walk is the cone's gates in
    topological order."""
    nets = list(netlist.nets())
    reference = {net: _dfs_fanout_cone(netlist, [net]) for net in nets}
    for net in nets:
        assert netlist.fanout_cone([net]) == reference[net], net
    root_sets = [rng.sample(nets, min(k, len(nets))) for k in (2, 3, 5, 8)]
    root_sets.append([netlist.inputs[0], netlist.outputs[0]])
    for roots in root_sets:
        cone = set().union(*(reference[net] for net in roots))
        bits = netlist.fanout_bits(roots)
        assert netlist.fanout_cone(roots) == cone, roots
        assert netlist.cone_gates(bits) == [
            net for net in netlist.topo_order if net in cone
        ]


#: Library circuits up to ``rnd1000``: ``rnd3000``'s per-net DFS reference
#: alone would take longer than the rest of the module.
_CONE_CIRCUITS = [name for name in circuit_names() if name != "rnd3000"]


class TestConeTable:
    @pytest.mark.parametrize("name", _CONE_CIRCUITS)
    def test_library_circuit_cones_match_dfs(self, name):
        """The cones match the DFS reference, and a second, structurally
        equal instance numbers its nets like the compiled program the two
        share, so its cone bitsets are bitsets over that program's slots
        too."""
        first, second = load_circuit(name), load_circuit(name)
        _check_cone_table(first, random.Random(name))
        program = kernels_for(first).program
        assert kernels_for(second).program is program
        assert tuple(second.nets()) == program.net_order
        assert dict(second.net_ids) == dict(program.slot_of)
        for net in program.net_order:
            assert second.fanout_bits([net]) == first.fanout_bits([net])

    @settings(max_examples=25, deadline=None)
    @given(netlist=circuits, seed=st.integers(0, 10_000))
    def test_random_circuit_cones_match_dfs(self, netlist, seed):
        _check_cone_table(netlist, random.Random(seed))


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
