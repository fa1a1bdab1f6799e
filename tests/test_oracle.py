"""Post-diagnosis validation oracle: resimulate what was reported."""

import pytest

from repro.circuit.generators import c17, ripple_carry_adder
from repro.circuit.netlist import Site
from repro.core.diagnose import Diagnoser, run_method
from repro.core.oracle import hypothesis_to_defect, validate_report
from repro.core.report import (
    Candidate,
    DiagnosisReport,
    Hypothesis,
    Multiplet,
    Validation,
)
from repro.errors import DiagnosisError
from repro.faults.models import (
    BridgeDefect,
    OpenDefect,
    StuckAtDefect,
    TransitionDefect,
)
from repro.sim.cache import sim_context
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog, FailRecord
from repro.tester.harness import apply_test


def stuck_sites(netlist, count):
    return [Site(net) for net in sorted(netlist.gates)[:count]]


class TestHypothesisMaterialization:
    def test_all_concrete_kinds(self):
        site = Site("n")
        assert isinstance(
            hypothesis_to_defect(Hypothesis("sa0", site)), StuckAtDefect
        )
        assert isinstance(
            hypothesis_to_defect(Hypothesis("open1", site)), OpenDefect
        )
        assert isinstance(
            hypothesis_to_defect(Hypothesis("bridge", site, aggressor="m")),
            BridgeDefect,
        )
        assert isinstance(
            hypothesis_to_defect(Hypothesis("str", site)), TransitionDefect
        )

    def test_arbitrary_rejected(self):
        with pytest.raises(DiagnosisError, match="cannot materialize"):
            hypothesis_to_defect(Hypothesis("arbitrary", Site("n")))


class TestCleanRoundTrip:
    """Clean trials: diagnose a known defect, oracle must confirm."""

    @pytest.mark.parametrize("seed", range(6))
    def test_single_stuck_at_confirmed(self, seed):
        netlist = c17()
        patterns = PatternSet.exhaustive(netlist)
        site = stuck_sites(netlist, 6)[seed]
        defect = StuckAtDefect(site, seed % 2)
        result = apply_test(netlist, patterns, [defect])
        if not result.datalog.failing_indices:
            pytest.skip("defect not excited by this polarity")
        report = run_method(
            "xcover", netlist, patterns, result.datalog, raw=result.datalog
        )
        assert report.consistency is not None
        assert all(c.validation is not None for c in report.candidates)
        # The true site must survive the oracle.
        true = next(
            (c for c in report.candidates if c.site == site), None
        )
        if true is not None:
            assert true.validation.verdict != "refuted"
        # Clean evidence + exact completeness: the oracle must confirm.
        if report.is_exact and report.classification == "explained":
            assert report.consistency == "confirmed"

    def test_double_defect_confirmed(self):
        netlist = ripple_carry_adder(4)
        patterns = PatternSet.random(netlist, 48, seed=9)
        sites = stuck_sites(netlist, 8)
        defects = [StuckAtDefect(sites[1], 0), StuckAtDefect(sites[6], 1)]
        result = apply_test(netlist, patterns, defects)
        if not result.datalog.failing_indices:
            pytest.skip("defects not excited")
        report = run_method(
            "xcover", netlist, patterns, result.datalog, raw=result.datalog
        )
        assert report.consistency is not None
        assert all(c.validation is not None for c in report.candidates)

    def test_passing_device_is_confirmed(self):
        netlist = c17()
        patterns = PatternSet.exhaustive(netlist)
        empty = Datalog(netlist.name, patterns.n, [])
        report = run_method("xcover", netlist, patterns, empty, raw=empty)
        assert report.consistency == "confirmed"
        assert report.stats["oracle_unexplained"] == 0.0

    def test_oracle_off_by_default(self):
        netlist = c17()
        patterns = PatternSet.exhaustive(netlist)
        defect = StuckAtDefect(Site(netlist.outputs[0]), 0)
        result = apply_test(netlist, patterns, [defect])
        report = Diagnoser(netlist).diagnose(patterns, result.datalog)
        assert report.consistency is None
        assert all(c.validation is None for c in report.candidates)
        assert "consistency" not in report.to_dict()


class TestRefutation:
    def test_hallucinated_candidate_refuted_and_demoted(self):
        netlist = c17()
        patterns = PatternSet.exhaustive(netlist)
        # Evidence: output 23 stuck at 0 (real failures on "23" only).
        defect = StuckAtDefect(Site("23"), 0)
        result = apply_test(netlist, patterns, [defect])
        datalog = result.datalog
        assert datalog.failing_indices
        # Report claims the *other* output is the culprit -- its sa0 model
        # only ever fails output "22", so it reproduces zero raw failures.
        bogus = Candidate(
            site=Site("22"),
            hypotheses=(Hypothesis("sa0", Site("22")),),
        )
        honest = Candidate(
            site=Site("23"),
            hypotheses=(Hypothesis("sa0", Site("23")),),
        )
        report = DiagnosisReport(
            method="xcover",
            circuit=netlist.name,
            candidates=(bogus, honest),
            multiplets=(
                Multiplet(sites=(Site("23"),), covered_atoms=1, total_atoms=1),
            ),
        )
        validated = validate_report(sim_context(netlist, patterns), report, datalog)
        verdicts = {str(c.site): c.validation.verdict for c in validated.candidates}
        assert verdicts["22"] == "refuted"
        assert verdicts["23"] != "refuted"
        # Demotion: the refuted candidate sinks below the honest one.
        assert [str(c.site) for c in validated.candidates] == ["23", "22"]

    def test_report_refuted_when_multiplet_explains_nothing(self):
        netlist = c17()
        patterns = PatternSet.exhaustive(netlist)
        defect = StuckAtDefect(Site("23"), 0)
        datalog = apply_test(netlist, patterns, [defect]).datalog
        bogus = Candidate(
            site=Site("22"), hypotheses=(Hypothesis("sa0", Site("22")),)
        )
        report = DiagnosisReport(
            method="xcover",
            circuit=netlist.name,
            candidates=(bogus,),
            multiplets=(
                Multiplet(sites=(Site("22"),), covered_atoms=0, total_atoms=1),
            ),
        )
        validated = validate_report(sim_context(netlist, patterns), report, datalog)
        assert validated.consistency == "refuted"
        assert validated.stats["oracle_explained"] == 0.0

    def test_model_free_multiplet_is_unvalidated(self):
        netlist = c17()
        patterns = PatternSet.exhaustive(netlist)
        datalog = Datalog(
            netlist.name, patterns.n, [FailRecord(0, frozenset({"22"}))]
        )
        arb = Candidate(
            site=Site("16"), hypotheses=(Hypothesis("arbitrary", Site("16")),)
        )
        report = DiagnosisReport(
            method="xcover",
            circuit=netlist.name,
            candidates=(arb,),
            multiplets=(
                Multiplet(sites=(Site("16"),), covered_atoms=1, total_atoms=1),
            ),
        )
        validated = validate_report(sim_context(netlist, patterns), report, datalog)
        assert validated.consistency == "unvalidated"
        assert validated.candidates[0].validation.verdict == "plausible"


class TestNoisyValidation:
    def test_oracle_judges_against_raw_not_sanitized(self):
        from repro.tester.noise import parse_noise_spec

        netlist = ripple_carry_adder(4)
        patterns = PatternSet.random(netlist, 64, seed=2)
        site = stuck_sites(netlist, 4)[2]
        result = apply_test(
            netlist,
            patterns,
            [StuckAtDefect(site, 0)],
            noise=parse_noise_spec("flip:0.02"),
            noise_seed=7,
        )
        if not result.datalog.failing_indices:
            pytest.skip("all evidence corrupted away")
        report = run_method(
            "xcover", netlist, patterns, result.datalog, raw=result.raw
        )
        assert report.consistency is not None
        assert all(c.validation is not None for c in report.candidates)
        # Under fail->pass flips even the true defect may false-alarm; the
        # lenient verdict scale must never refute a candidate with hits.
        for c in report.candidates:
            if c.validation.hits > 0:
                assert c.validation.verdict != "refuted"


class TestSerialization:
    def test_validation_roundtrip(self):
        v = Validation(
            verdict="plausible", kind="sa1", hits=3, misses=1, false_alarms=2
        )
        assert Validation.from_dict(v.to_dict()) == v

    def test_report_roundtrip_preserves_oracle_fields(self):
        netlist = c17()
        patterns = PatternSet.exhaustive(netlist)
        defect = StuckAtDefect(Site("23"), 0)
        datalog = apply_test(netlist, patterns, [defect]).datalog
        report = run_method("xcover", netlist, patterns, datalog, raw=datalog)
        clone = DiagnosisReport.from_json(report.to_json())
        assert clone.consistency == report.consistency
        assert [c.validation for c in clone.candidates] == [
            c.validation for c in report.candidates
        ]

    def test_summary_mentions_oracle(self):
        report = DiagnosisReport(
            method="xcover", circuit="c", consistency="confirmed"
        )
        assert "oracle: confirmed" in report.summary()
