"""Campaign driver tests (small trial counts to stay fast)."""

import pytest

from repro.campaign import driver
from repro.campaign.driver import (
    Campaign,
    CampaignConfig,
    provision_patterns,
    run_campaign,
)
from repro.campaign.samplers import PURE_MIXES
from repro.circuit.builder import NetlistBuilder
from repro.circuit.library import load_circuit
from repro.core.diagnose import METHODS
from repro.errors import ReproError


def _dut(op: str):
    """Three inputs, ``x = op(a, c)``, ``y = OR(x, b)``: same name and
    sizes whatever ``op`` is."""
    b = NetlistBuilder("dut")
    a, bb, c = b.input("a"), b.input("b"), b.input("c")
    x = getattr(b, op)(a, c, name="x")
    b.output(b.or_(x, bb, name="y"))
    return b.build()


class TestProvisioning:
    def test_cached_per_circuit(self):
        n = load_circuit("c17")
        a = provision_patterns(n, seed=7)
        b = provision_patterns(load_circuit("c17"), seed=7)
        assert a is b  # cache hit by (name, seed)

    def test_min_patterns_topped_up(self):
        n = load_circuit("c17")
        pats = provision_patterns(n, seed=8, min_patterns=20)
        assert pats.n >= 12  # dedup may trim, but well above the tiny core set

    def test_same_name_and_size_netlists_do_not_share_patterns(
        self, monkeypatch
    ):
        fresh = {}
        for op in ("and_", "xor"):
            monkeypatch.setattr(driver, "_pattern_cache", {})
            fresh[op] = provision_patterns(_dut(op)).fingerprint()
        assert fresh["and_"] != fresh["xor"]
        monkeypatch.setattr(driver, "_pattern_cache", {})
        and_patterns = provision_patterns(_dut("and_"))
        xor_patterns = provision_patterns(_dut("xor"))
        assert xor_patterns is not and_patterns
        assert xor_patterns.fingerprint() == fresh["xor"]
        assert provision_patterns(_dut("xor")) is xor_patterns


class TestCampaign:
    def test_run_trial_outcomes_per_method(self):
        campaign = Campaign("rca4")
        outcomes = campaign.run_trial(
            trial_seed=3, k=1, methods=("xcover", "slat", "single")
        )
        assert outcomes is not None
        assert [o.method for o in outcomes] == [
            "xcover",
            "slat",
            "single-stuck-at",
        ]
        for o in outcomes:
            assert 0.0 <= o.recall_near <= 1.0

    def test_run_config(self):
        config = CampaignConfig(
            circuit="rca4", n_trials=3, k=1, methods=("xcover",), seed=2
        )
        result = run_campaign(config)
        assert len(result.outcomes) + result.skipped_trials >= 3 or result.outcomes
        agg = result.aggregate("xcover")
        assert agg.n_trials == len(result.outcomes)
        assert result.wall_seconds > 0

    def test_by_method_grouping(self):
        config = CampaignConfig(
            circuit="rca4", n_trials=2, k=1, methods=("xcover", "slat"), seed=2
        )
        result = Campaign("rca4").run(config)
        groups = result.by_method()
        assert set(groups) <= {"xcover", "slat"}

    def test_unknown_method(self):
        campaign = Campaign("rca4")
        with pytest.raises(ReproError, match="unknown diagnosis method"):
            campaign.run_trial(trial_seed=1, k=1, methods=("nope",))

    def test_method_registry(self):
        assert set(METHODS) == {"xcover", "slat", "single", "dictionary"}

    def test_dictionary_method_runs(self):
        campaign = Campaign("rca4")
        outcomes = campaign.run_trial(trial_seed=3, k=1, methods=("dictionary",))
        assert outcomes is not None
        assert outcomes[0].method == "dictionary"

    def test_pure_mix_campaign(self):
        config = CampaignConfig(
            circuit="rca4",
            n_trials=2,
            k=1,
            mix=PURE_MIXES["stuck"],
            methods=("xcover",),
            seed=3,
        )
        result = Campaign("rca4").run(config)
        for outcome in result.outcomes:
            assert outcome.families == ("stuckat",)

    def test_deterministic_across_runs(self):
        config = CampaignConfig(
            circuit="rca4", n_trials=3, k=2, methods=("xcover",), seed=6
        )
        r1 = Campaign("rca4").run(config)
        r2 = Campaign("rca4").run(config)
        key = lambda r: [
            (o.recall_near, o.precision, o.resolution) for o in r.outcomes
        ]
        assert key(r1) == key(r2)


class TestSkipReasons:
    """Resample causes must surface, not vanish into a counter."""

    def test_resample_causes_counted(self, monkeypatch):
        from repro.campaign import driver as driver_mod
        from repro.errors import FaultModelError, OscillationError

        campaign = Campaign("rca4")
        real = driver_mod.apply_test
        calls = {"n": 0}

        def flaky(netlist, patterns, defects, on_oscillation="raise"):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OscillationError("ringing short")
            if calls["n"] == 2:
                raise FaultModelError("bad site")
            return real(netlist, patterns, defects, on_oscillation)

        monkeypatch.setattr(driver_mod, "apply_test", flaky)
        result = campaign.run_trial_ex(trial_seed=3, k=1, methods=("xcover",))
        assert result.outcomes is not None
        assert result.skip_reasons["OscillationError"] == 1
        assert result.skip_reasons["FaultModelError"] == 1

    def test_exhausted_trial_reports_reasons(self, monkeypatch):
        from repro.campaign import driver as driver_mod
        from repro.errors import OscillationError

        campaign = Campaign("rca4")

        def always_ringing(*_a, **_k):
            raise OscillationError("ringing short")

        monkeypatch.setattr(driver_mod, "apply_test", always_ringing)
        result = campaign.run_trial_ex(
            trial_seed=3, k=1, methods=("xcover",), max_resample=4
        )
        assert result.skipped
        assert result.skip_reasons == {"OscillationError": 4}

    def test_campaign_result_aggregates_reasons(self, monkeypatch):
        from repro.campaign import driver as driver_mod
        from repro.errors import FaultModelError

        real = driver_mod.apply_test
        calls = {"n": 0}

        def fail_first(netlist, patterns, defects, on_oscillation="raise"):
            calls["n"] += 1
            if calls["n"] == 1:
                raise FaultModelError("bad site")
            return real(netlist, patterns, defects, on_oscillation)

        monkeypatch.setattr(driver_mod, "apply_test", fail_first)
        config = CampaignConfig(
            circuit="rca4", n_trials=2, k=1, methods=("xcover",), seed=2
        )
        result = Campaign("rca4").run(config)
        assert result.skip_reasons.get("FaultModelError") == 1


class TestCacheKeys:
    def test_dictionary_cache_distinguishes_pattern_content(self):
        from repro.core.dictionary import dictionary_for
        from repro.sim.patterns import PatternSet

        netlist = load_circuit("c17")
        a = PatternSet.random(netlist, 8, seed=1)
        b = PatternSet.random(netlist, 8, seed=2)
        assert a.n == b.n  # equal length: the old (name, n) key collided
        dict_a = dictionary_for(netlist, a)
        dict_b = dictionary_for(netlist, b)
        assert dict_a is not dict_b
        assert dictionary_for(netlist, a) is dict_a  # still cached

    def test_pattern_fingerprint_tracks_content(self):
        from repro.sim.patterns import PatternSet

        netlist = load_circuit("c17")
        a = PatternSet.random(netlist, 8, seed=1)
        b = PatternSet.random(netlist, 8, seed=2)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == PatternSet.random(netlist, 8, seed=1).fingerprint()

    def test_provision_cache_distinguishes_min_patterns(self):
        netlist = load_circuit("c17")
        small = provision_patterns(netlist, seed=9, min_patterns=8)
        large = provision_patterns(netlist, seed=9, min_patterns=24)
        assert large.n >= small.n
