"""Defect sampler tests."""

import pytest

from repro.campaign.samplers import (
    DEFAULT_MIX,
    PURE_MIXES,
    DefectMix,
    ground_truth_sites,
    sample_defect,
    sample_defect_set,
)
from repro._rng import make_rng
from repro.circuit.generators import ripple_carry_adder
from repro.errors import FaultModelError
from repro.faults.injection import defect_creates_feedback
from repro.faults.models import BridgeDefect


@pytest.fixture(scope="module")
def rca():
    return ripple_carry_adder(8)


class TestSampleDefect:
    @pytest.mark.parametrize(
        "family,expected",
        [
            ("stuck", "stuckat"),
            ("bridge", "bridge"),
            ("open", "open"),
            ("transition", "transition"),
            ("byzantine", "byzantine"),
        ],
    )
    def test_family_dispatch(self, rca, family, expected):
        d = sample_defect(rca, make_rng(3), family, set())
        assert d is not None
        assert d.family == expected
        d.validate(rca)

    def test_unknown_family(self, rca):
        with pytest.raises(FaultModelError):
            sample_defect(rca, make_rng(1), "alien", set())

    def test_used_nets_avoided(self, rca):
        used = {s.net for s in rca.sites()} - {"a0"}
        d = sample_defect(rca, make_rng(1), "stuck", used)
        assert d.site.net == "a0"

    def test_exhausted_pool_returns_none(self, rca):
        used = {s.net for s in rca.sites()}
        assert sample_defect(rca, make_rng(1), "stuck", used) is None


class TestSampleDefectSet:
    def test_deterministic(self, rca):
        a = sample_defect_set(rca, 3, seed=9)
        b = sample_defect_set(rca, 3, seed=9)
        assert list(map(str, a)) == list(map(str, b))

    def test_distinct_nets(self, rca):
        defects = sample_defect_set(rca, 4, seed=2)
        nets = [s.net for d in defects for s in d.ground_truth_sites()]
        assert len(nets) == len(set(nets))

    def test_no_feedback_bridges(self, rca):
        for seed in range(6):
            defects = sample_defect_set(
                rca, 3, seed=seed, mix=PURE_MIXES["bridge"]
            )
            assert not defect_creates_feedback(rca, defects)

    def test_pure_mix_families(self, rca):
        for family, mix in PURE_MIXES.items():
            defects = sample_defect_set(rca, 2, seed=4, mix=mix)
            want = "stuckat" if family == "stuck" else family
            assert all(d.family == want for d in defects), family

    def test_interacting_shares_cone(self, rca):
        defects = sample_defect_set(rca, 3, seed=5, interacting=True)
        # All ground-truth sites must reach at least one common output.
        common = None
        for d in defects:
            for s in d.ground_truth_sites():
                outs = rca.fanout_cone([s.net]) & set(rca.outputs)
                common = outs if common is None else common & outs
        assert common, "interacting sampler must share an output cone"

    def test_impossible_request_raises(self):
        tiny = ripple_carry_adder(1)
        with pytest.raises(FaultModelError):
            sample_defect_set(tiny, 50, seed=1)

    def test_ground_truth_sites_helper(self, rca):
        defects = sample_defect_set(rca, 2, seed=11)
        sites = ground_truth_sites(defects)
        for d in defects:
            assert set(d.ground_truth_sites()) <= sites


class TestMix:
    def test_items_order(self):
        mix = DefectMix(0.5, 0.2, 0.1, 0.1, 0.1)
        names = [name for name, _w in mix.items()]
        assert names == ["stuck", "bridge", "open", "transition", "byzantine"]

    def test_default_mix_weights(self):
        weights = dict(DEFAULT_MIX.items())
        assert weights["stuck"] == pytest.approx(0.3)
        assert weights["byzantine"] == 0.0


class TestLayoutAwareBridges:
    def test_bridge_partners_geometrically_adjacent(self, rca):
        from repro.circuit.layout import place
        from repro.faults.models import BridgeDefect

        placement = place(rca, seed=2)
        for seed in range(8):
            defects = sample_defect_set(
                rca, 1, seed=seed, mix=PURE_MIXES["bridge"], placement=placement
            )
            (bridge,) = defects
            assert isinstance(bridge, BridgeDefect)
            gap = placement.boxes[bridge.victim].distance(
                placement.boxes[bridge.aggressor]
            )
            assert gap <= 1.0

    def test_layout_and_level_samplers_differ(self, rca):
        from repro.circuit.layout import place

        placement = place(rca, seed=2)
        with_layout = [
            str(
                sample_defect_set(
                    rca, 1, seed=s, mix=PURE_MIXES["bridge"], placement=placement
                )[0]
            )
            for s in range(8)
        ]
        without = [
            str(sample_defect_set(rca, 1, seed=s, mix=PURE_MIXES["bridge"])[0])
            for s in range(8)
        ]
        assert with_layout != without
