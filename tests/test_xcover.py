"""X-cover analysis: the envelope soundness invariants of the method."""

import pytest

from repro.campaign.samplers import sample_defect_set
from repro.circuit.generators import ripple_carry_adder
from repro.circuit.netlist import Site
from repro.core.backtrace import candidate_sites
from repro.core.xcover import build_xcover
from repro.errors import DiagnosisError
from repro.faults.models import StuckAtDefect
from repro.sim.cache import sim_context
from repro.sim.patterns import PatternSet
from repro.tester.harness import apply_test


def _xcover(netlist, patterns, datalog):
    return build_xcover(
        sim_context(netlist, patterns), datalog, candidate_sites(netlist, datalog)
    )


@pytest.fixture(scope="module")
def rca6():
    return ripple_carry_adder(6)


@pytest.fixture(scope="module")
def rca6_patterns(rca6):
    return PatternSet.random(rca6, 48, seed=17)


class TestEnvelopeCompleteness:
    """The paper's central guarantee: joint X injection at the true defect
    sites must cover every observed fail atom."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_ground_truth_joint_coverage(self, rca6, rca6_patterns, k, trial):
        defects = sample_defect_set(rca6, k, seed=100 * k + trial)
        result = apply_test(rca6, rca6_patterns, defects)
        if result.datalog.is_passing_device:
            pytest.skip("sampled defects invisible to this test set")
        xc = _xcover(rca6, rca6_patterns, result.datalog)
        truth = set()
        for d in defects:
            truth.update(d.ground_truth_sites())
        covered = xc.joint_covered_atoms(truth)
        assert covered == xc.atoms, [str(d) for d in defects]

    def test_single_defect_individual_coverage(self, rca6, rca6_patterns):
        """For one defect, the per-site reach alone is already complete."""
        defects = sample_defect_set(rca6, 1, seed=77)
        result = apply_test(rca6, rca6_patterns, defects)
        if result.datalog.is_passing_device:
            pytest.skip("invisible defect")
        xc = _xcover(rca6, rca6_patterns, result.datalog)
        (site,) = set(defects[0].ground_truth_sites())
        assert xc.atoms_of(site) == xc.atoms


class TestStructure:
    def test_pattern_count_mismatch(self, rca6, rca6_patterns):
        defects = [StuckAtDefect(Site("a0"), 1)]
        result = apply_test(rca6, rca6_patterns, defects)
        with pytest.raises(DiagnosisError):
            ctx = sim_context(rca6, PatternSet.random(rca6, 8, seed=1))
            build_xcover(
                ctx, result.datalog, candidate_sites(rca6, result.datalog)
            )

    def test_site_atoms_subset_of_observed(self, rca6, rca6_patterns):
        defects = sample_defect_set(rca6, 2, seed=5)
        result = apply_test(rca6, rca6_patterns, defects)
        xc = _xcover(rca6, rca6_patterns, result.datalog)
        for site in xc.sites:
            assert xc.atoms_of(site) <= xc.atoms

    def test_joint_reach_superset_of_individual(self, rca6, rca6_patterns):
        """Monotonicity: joint coverage dominates each member's coverage."""
        defects = sample_defect_set(rca6, 2, seed=6)
        result = apply_test(rca6, rca6_patterns, defects)
        xc = _xcover(rca6, rca6_patterns, result.datalog)
        sites = [s for s in xc.sites if xc.atoms_of(s)][:3]
        if len(sites) >= 2:
            joint = xc.joint_covered_atoms(sites[:2])
            assert xc.atoms_of(sites[0]) <= joint
            assert xc.atoms_of(sites[1]) <= joint

    def test_empty_joint(self, rca6, rca6_patterns):
        defects = [StuckAtDefect(Site("a0"), 1)]
        result = apply_test(rca6, rca6_patterns, defects)
        xc = _xcover(rca6, rca6_patterns, result.datalog)
        assert xc.joint_covered_atoms([]) == frozenset()
        assert xc.joint_reach([]) == {}

    def test_pattern_candidates(self, rca6, rca6_patterns):
        defects = [StuckAtDefect(Site("a0"), 1)]
        result = apply_test(rca6, rca6_patterns, defects)
        xc = _xcover(rca6, rca6_patterns, result.datalog)
        idx = result.datalog.failing_indices[0]
        cands = xc.pattern_candidates(idx)
        assert Site("a0") in cands
