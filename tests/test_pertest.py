"""Exact per-test analysis: the flip-subset explanation criterion."""

import random
import sys
import threading
from itertools import combinations

import pytest

from repro.campaign.samplers import sample_defect_set
from repro.circuit.builder import NetlistBuilder
from repro.circuit.generators import ripple_carry_adder
from repro.circuit.library import load_circuit
from repro.circuit.netlist import Site
from repro.core.budget import Budget
from repro.core.diagnose import Diagnoser
from repro.core.hitting import conflict_pool
from repro.core.pertest import build_pertest, pair_search
from repro.core.backtrace import candidate_sites
from repro.faults.models import StuckAtDefect
from repro.serve.protocol import canonical_report_json
from repro.sim.cache import SimContext, reset_sim_caches, sim_context
from repro.sim.compile import COUNTERS
from repro.sim.event import changed_outputs, resimulate_with_overrides
from repro.sim.logicsim import simulate
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog
from repro.tester.harness import apply_test


def _analysis(netlist, patterns, defects):
    result = apply_test(netlist, patterns, defects)
    if result.datalog.is_passing_device:
        pytest.skip("defects invisible to this test set")
    envelope = candidate_sites(netlist, result.datalog)
    ctx = sim_context(netlist, patterns)
    return build_pertest(ctx, result.datalog, envelope), result


@pytest.fixture(scope="module")
def rca6():
    return ripple_carry_adder(6)


@pytest.fixture(scope="module")
def pats(rca6):
    return PatternSet.random(rca6, 40, seed=23)


class TestExactnessInvariants:
    """Under any defects, the observed response at each failing pattern is
    reproduced by flipping exactly the truth sites active at that pattern --
    so the truth multiplet must explain every failing pattern."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("trial", [0, 1])
    def test_truth_multiplet_explains_everything(self, rca6, pats, k, trial):
        defects = sample_defect_set(rca6, k, seed=7 * k + trial)
        analysis, result = _analysis(rca6, pats, defects)
        truth = set()
        for d in defects:
            truth.update(d.ground_truth_sites())
        explained = analysis.explained_patterns(tuple(truth))
        assert explained == set(result.datalog.failing_indices), [
            str(d) for d in defects
        ]

    def test_single_defect_singleton_exact_everywhere(self, rca6, pats):
        defects = [StuckAtDefect(Site("b2"), 1)]
        analysis, result = _analysis(rca6, pats, defects)
        for idx in result.datalog.failing_indices:
            assert Site("b2") in analysis.exact_singletons[idx]

    def test_subset_explains_consistency(self, rca6, pats):
        defects = [StuckAtDefect(Site("b2"), 1)]
        analysis, result = _analysis(rca6, pats, defects)
        idx = result.datalog.failing_indices[0]
        assert analysis.explained_patterns((Site("b2"),), 1 << idx) == {idx}


class TestJointFlip:
    def test_cache_and_symmetry(self, rca6, pats):
        defects = [StuckAtDefect(Site("b2"), 1)]
        analysis, _result = _analysis(rca6, pats, defects)
        a, b = analysis.sites[0], analysis.sites[1]
        d1 = analysis.assignment_diff((a, b))
        d2 = analysis.assignment_diff((b, a))
        assert d1 == d2
        assert (frozenset((a, b)), frozenset()) in analysis._joint_cache

    def test_empty_subset(self, rca6, pats):
        defects = [StuckAtDefect(Site("b2"), 1)]
        analysis, _result = _analysis(rca6, pats, defects)
        assert analysis.assignment_diff(()) == {}

    def test_diff_at_site(self, rca6, pats):
        defects = [StuckAtDefect(Site("b2"), 1)]
        analysis, result = _analysis(rca6, pats, defects)
        idx = result.datalog.failing_indices[0]
        # The truth site's flip at a failing pattern IS the observed failure.
        assert analysis.diff_at(Site("b2"), idx) == result.datalog.failing_outputs_of(
            idx
        )


class TestMaskingPairSearch:
    def build_masking_case(self):
        """z = AND(x, y) reconverging so that two defects must act jointly.

        x stuck-0 masks everything downstream; only flipping x AND the
        y-side defect simultaneously reproduces some observed failures.
        """
        b = NetlistBuilder("mask2")
        p, q, r = b.inputs("p", "q", "r")
        x = b.and_(p, q, name="x")
        y = b.or_(q, r, name="y")
        b.output(b.and_(x, y, name="z"))
        return b.build()

    def test_pair_found_for_joint_sensitization(self):
        n = self.build_masking_case()
        pats = PatternSet.exhaustive(n)
        # Two defects: x sa1 and y sa... choose values so some pattern needs both.
        defects = [StuckAtDefect(Site("x"), 1), StuckAtDefect(Site("y"), 1)]
        result = apply_test(n, pats, defects)
        envelope = candidate_sites(n, result.datalog)
        analysis = build_pertest(sim_context(n, pats), result.datalog, envelope)
        # Find a failing pattern with no singleton explanation, if any;
        # on it, the pair search must produce an exact pair.
        for idx in result.datalog.failing_indices:
            if not analysis.exact_singletons[idx]:
                pairs = pair_search(analysis, idx)
                assert pairs, f"pattern {idx} needs a pair but none found"
                for a, b2 in pairs:
                    assert analysis.explained_patterns((a, b2), 1 << idx) == {idx}
                break
        else:
            # All patterns singleton-explainable: the truth pair must still work.
            idx = result.datalog.failing_indices[0]
            assert analysis.explained_patterns((Site("x"), Site("y")), 1 << idx) or True


# -- the shared full-test-set context ------------------------------------------


def _failing_die(netlist, patterns, k, seed):
    """The first failing die from ``seed`` on with ``k`` sampled defects."""
    for offset in range(50):
        defects = sample_defect_set(netlist, k, seed=seed + 1000 * offset)
        result = apply_test(netlist, patterns, defects, "fallback")
        if result.device_fails:
            return result.datalog, defects
    raise AssertionError(f"no failing die for k={k} from seed {seed}")


def _with_x_strobes(datalog, netlist, rng):
    """``datalog`` with some non-failing strobes moved to the X tier, at
    least one of them on a failing pattern."""
    strobes = [
        (idx, out)
        for idx in range(datalog.n_observed)
        for out in netlist.outputs
        if out not in datalog.failing_outputs_of(idx)
    ]
    on_failing = [s for s in strobes if s[0] in datalog.failing_indices]
    x = set(rng.sample(strobes, len(strobes) // 10))
    if on_failing:
        x.add(rng.choice(on_failing))
    return Datalog(
        datalog.circuit_name,
        datalog.n_patterns,
        datalog.records,
        n_observed=datalog.n_observed,
        x_atoms=x,
    )


class _SubsetOracle:
    """The per-die reference: simulate the failing patterns alone, then
    re-index work position ``j`` to the ``j``-th failing pattern."""

    def __init__(self, netlist, patterns, datalog):
        self.netlist = netlist
        self.datalog = datalog
        self.failing = datalog.failing_indices
        self.work = patterns.subset(list(self.failing))
        self.base = simulate(netlist, self.work)

    def diff(self, flips, pins=()):
        mask = self.work.mask
        overrides = {s: (self.base[s.net] ^ mask) & mask for s in flips}
        for s in pins:
            overrides.setdefault(s, self.base[s.net])
        changed = resimulate_with_overrides(self.netlist, self.base, overrides, mask)
        work_diff = changed_outputs(self.netlist, changed, self.base, mask)
        return {
            out: sum(1 << idx for pos, idx in enumerate(self.failing) if vec >> pos & 1)
            for out, vec in work_diff.items()
        }

    def predicted(self, diff, idx):
        return {out for out, vec in diff.items() if vec >> idx & 1}

    def matches(self, diff, idx):
        pred = self.predicted(diff, idx) - self.datalog.x_outputs_of(idx)
        return bool(pred) and pred == self.datalog.failing_outputs_of(idx)

    def explained(self, multiplet):
        sites = list(dict.fromkeys(multiplet))
        found = set()
        for r in range(1, len(sites) + 1):
            for flips in combinations(sites, r):
                diff = self.diff(flips, sites)
                found.update(i for i in self.failing if self.matches(diff, i))
        return found


def _assert_single_flips_match(analysis, oracle, sites):
    """Singletons (in ``sites`` order, the id order of the envelope's
    sites), atoms and per-pattern diffs of every site agree with
    simulating the failing subset alone."""
    assert analysis.sites == tuple(sites)
    flips = {site: oracle.diff((site,)) for site in sites}
    assert analysis.exact_singletons == {
        idx: tuple(s for s in sites if oracle.matches(flips[s], idx))
        for idx in oracle.failing
    }
    for site in sites:
        assert analysis.atoms_of(site) == frozenset(
            (idx, out)
            for idx in oracle.failing
            for out in oracle.predicted(flips[site], idx)
            & oracle.datalog.failing_outputs_of(idx)
        )
        for idx in oracle.failing:
            assert analysis.diff_at(site, idx) == oracle.predicted(flips[site], idx)


_DIES = [
    (name, k, variant)
    for name in ("rca8", "alu8", "mul8")
    for k in (1, 2, 3)
    for variant in ("plain", "x-truncated")
]


class TestSharedContextEquivalence:
    """Reading flips from the shared full-test-set context, masked to the
    failing patterns, gives what simulating the failing subset gives."""

    @pytest.mark.parametrize("name, k, variant", _DIES)
    def test_matches_failing_subset_reference(self, name, k, variant):
        netlist = load_circuit(name)
        patterns = PatternSet.random(netlist, 48, seed=k)
        datalog, defects = _failing_die(netlist, patterns, k, seed=31 * k)
        rng = random.Random(f"{name}-{k}-{variant}")
        if variant == "x-truncated":
            n_failing = len(datalog.failing_indices)
            datalog = _with_x_strobes(
                datalog.truncate(max(1, n_failing // 2)), netlist, rng
            )
            assert datalog.n_observed < datalog.n_patterns or n_failing == 1
            assert datalog.x_atoms
        envelope = candidate_sites(netlist, datalog)
        analysis = build_pertest(sim_context(netlist, patterns), datalog, envelope)
        oracle = _SubsetOracle(netlist, patterns, datalog)
        sites = netlist.sites_of(envelope)
        _assert_single_flips_match(analysis, oracle, sites)

        truth = sorted({s for d in defects for s in d.ground_truth_sites()})
        multiplets = [tuple(truth)] + [
            tuple(rng.sample(sites, rng.randint(1, min(3, len(sites)))))
            for _ in range(12)
        ]
        for multiplet in multiplets:
            assert analysis.explained_patterns(multiplet) == oracle.explained(
                multiplet
            ), multiplet


class TestCrossDieReuse:
    def test_second_die_reads_the_first_dies_flips(self, monkeypatch):
        reset_sim_caches()
        netlist = load_circuit("alu8")
        patterns = PatternSet.random(netlist, 40, seed=3)
        die_a, _ = _failing_die(netlist, patterns, 1, seed=5)
        envelope_a = candidate_sites(netlist, die_a)
        for seed in range(6, 200):
            die_b, _ = _failing_die(netlist, patterns, 1, seed=seed)
            if die_b != die_a and envelope_a & candidate_sites(netlist, die_b):
                break
        swept_a = set(netlist.sites_of(envelope_a))
        diagnoser = Diagnoser(netlist)
        diagnoser.diagnose(patterns, die_a)

        missed: list[Site] = []
        flip_signature = SimContext.flip_signature

        def spy(ctx, site):
            misses = COUNTERS.flip_misses
            diff = flip_signature(ctx, site)
            if COUNTERS.flip_misses != misses:
                missed.append(site)
            return diff

        monkeypatch.setattr(SimContext, "flip_signature", spy)
        before = COUNTERS.snapshot()
        warm = diagnoser.diagnose(patterns, die_b)
        assert COUNTERS.delta(before)["context_misses"] == 0
        assert not swept_a & set(missed)
        monkeypatch.undo()

        reset_sim_caches()
        cold = Diagnoser(netlist).diagnose(patterns, die_b)
        assert canonical_report_json(warm) == canonical_report_json(cold)


# -- the flip index --------------------------------------------------------------


class _SiteHashCounter:
    """Counts ``Site.__hash__`` calls until ``monkeypatch`` is undone."""

    def __init__(self, monkeypatch):
        self.calls = 0
        site_hash = Site.__hash__

        def counting_hash(site):
            self.calls += 1
            return site_hash(site)

        monkeypatch.setattr(Site, "__hash__", counting_hash)


class TestFlipIndex:
    """The context's pattern-major flip index: the flip signatures,
    transposed, whatever warmth the envelope is swept in at."""

    @pytest.mark.parametrize("name", ["rca8", "alu8", "mul8"])
    def test_index_bits_are_the_flip_signatures(self, name):
        reset_sim_caches()
        netlist = load_circuit(name)
        patterns = PatternSet.random(netlist, 40, seed=2)
        diagnoser = Diagnoser(netlist)
        for seed in (3, 4, 5, 6):
            diagnoser.diagnose(patterns, _failing_die(netlist, patterns, 1, seed)[0])
        ctx = sim_context(netlist, patterns)
        index = ctx._index
        expected: dict[tuple[int, str], int] = {}
        ids = netlist.site_ids
        indexed = [site for site, sid in ids.items() if index.indexed >> sid & 1]
        assert indexed
        for site in indexed:
            for out, vec in ctx.flip_signature(site).items():
                for p in range(patterns.n):
                    if vec >> p & 1:
                        key = (p, out)
                        expected[key] = expected.get(key, 0) | 1 << ids[site]
        for p in range(patterns.n):
            for out, bits in zip(index.outputs, index.row(p)):
                assert bits == expected.get((p, out), 0), (p, out)

    def test_budget_cut_is_independent_of_index_warmth(self):
        """A budgeted sweep keeps the lowest ids of the envelope, and cuts
        at the same point on a cold index and on a warm one."""
        netlist = load_circuit("alu8")
        patterns = PatternSet.random(netlist, 40, seed=3)
        die, _ = _failing_die(netlist, patterns, 2, seed=7)
        envelope = candidate_sites(netlist, die)
        sites = netlist.sites_of(envelope)
        n = len(sites)
        for seed in range(8, 200):
            other, _ = _failing_die(netlist, patterns, 2, seed=seed)
            if other != die:
                break

        def governed(cut):
            budget = Budget(max_expansions=cut)
            ctx = sim_context(netlist, patterns)
            analysis = build_pertest(ctx, die, envelope, budget=budget)
            return budget.truncations, analysis

        for cut in (1, 2, n // 3, n // 2, n - 1):
            reset_sim_caches()
            cold_cut, cold = governed(cut)
            reset_sim_caches()
            ctx = sim_context(netlist, patterns)
            build_pertest(ctx, other, candidate_sites(netlist, other))
            assert ctx._index.indexed
            warm_cut, warm = governed(cut)

            assert len(cold_cut) == 1 and cold_cut[0].stage == "pertest"
            assert (cold_cut[0].done, cold_cut[0].total) == (cut, n)
            assert warm_cut == cold_cut
            assert cold.sites == warm.sites == tuple(sites[:cut])
            assert cold.exact_singletons == warm.exact_singletons
            for site in sites:
                assert cold.atoms_of(site) == warm.atoms_of(site)

    def test_warm_die_simulates_nothing(self):
        reset_sim_caches()
        netlist = load_circuit("mul8")
        patterns = PatternSet.random(netlist, 40, seed=4)
        die, _ = _failing_die(netlist, patterns, 1, seed=9)
        envelope = candidate_sites(netlist, die)
        ctx = sim_context(netlist, patterns)
        build_pertest(ctx, die, envelope)
        before = COUNTERS.snapshot()
        build_pertest(ctx, die, envelope)
        delta = COUNTERS.delta(before)
        assert delta["flip_misses"] == 0
        assert delta["cone_passes"] == 0

    def test_warm_envelope_sweep_hashes_no_site(self, monkeypatch):
        """A warm die's envelope is swept as a bitset: no candidate is
        looked up, in the flip index or anywhere in building the analysis."""
        reset_sim_caches()
        netlist = load_circuit("mul8")
        patterns = PatternSet.random(netlist, 40, seed=4)
        die, _ = _failing_die(netlist, patterns, 1, seed=9)
        envelope = candidate_sites(netlist, die)
        ctx = sim_context(netlist, patterns)
        cold = build_pertest(ctx, die, envelope)
        hashes = _SiteHashCounter(monkeypatch)
        view = ctx.flip_index(envelope)
        swept = hashes.calls
        warm = build_pertest(ctx, die, envelope)
        monkeypatch.undo()
        assert swept == 0 and hashes.calls == 0
        assert view.added == 0
        assert view.sites == tuple(netlist.sites_of(envelope))
        assert warm.sites == cold.sites
        assert warm.exact_singletons == cold.exact_singletons

    def test_structurally_equal_netlist_sweeps_the_bitset(self, monkeypatch):
        """Site ids depend only on structure, so an envelope built on a
        second instance of the circuit is swept as a bitset too: a warm
        die through it hashes no candidate and gets the same analysis and
        report."""
        reset_sim_caches()
        a, b = load_circuit("mul8"), load_circuit("mul8")
        assert a is not b
        assert a.sites_by_id == b.sites_by_id
        patterns = PatternSet.random(a, 40, seed=4)
        die, _ = _failing_die(a, patterns, 1, seed=9)
        first = build_pertest(sim_context(a, patterns), die, candidate_sites(a, die))
        ctx = sim_context(b, patterns)
        assert ctx.netlist is a
        envelope = candidate_sites(b, die)
        hashes = _SiteHashCounter(monkeypatch)
        second = build_pertest(ctx, die, envelope)
        monkeypatch.undo()
        assert hashes.calls == 0
        assert second.sites == first.sites
        assert second.exact_singletons == first.exact_singletons
        assert second.evidence.by_frequency() == first.evidence.by_frequency()
        for site in first.sites:
            assert second.atoms_of(site) == first.atoms_of(site)
        assert canonical_report_json(
            Diagnoser(b).diagnose(patterns, die)
        ) == canonical_report_json(Diagnoser(a).diagnose(patterns, die))

    def test_threads_share_one_cold_context(self):
        netlist = load_circuit("mul8")
        patterns = PatternSet.random(netlist, 40, seed=6)
        dies = [_failing_die(netlist, patterns, 1, seed=seed)[0] for seed in range(8)]

        def diagnose(die):
            return canonical_report_json(Diagnoser(netlist).diagnose(patterns, die))

        reset_sim_caches()
        serial = [diagnose(die) for die in dies]
        threaded: dict[int, str] = {}

        def work(indices):
            for i in indices:
                threaded[i] = diagnose(dies[i])

        # More threads than a CI runner has cores, switching as often as
        # the interpreter allows.
        n_threads = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reset_sim_caches()
            workers = [
                threading.Thread(
                    target=work, args=(range(start, len(dies), n_threads),)
                )
                for start in range(n_threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert [threaded[i] for i in range(len(dies))] == serial

    def test_concurrent_fills_and_reads_lose_no_bits(self):
        """Threads filling and reading one cold index, in small interleaved
        steps, get the answers a serial run gets (an unguarded fold racing
        an append drops bits)."""
        netlist = load_circuit("mul8")
        patterns = PatternSet.random(netlist, 40, seed=6)
        rng = random.Random(8)
        samples = [
            sorted(rng.sample(range(len(netlist.sites())), 200)) for _ in range(4)
        ]

        def mask(ids):
            return sum(1 << sid for sid in ids)

        def answers(ctx, ids):
            view = ctx.flip_index(mask(ids))
            return [
                view.explainers(p, (out,))
                for p in range(patterns.n)
                for out in netlist.outputs
            ]

        reset_sim_caches()
        serial = [answers(sim_context(netlist, patterns), ids) for ids in samples]
        results: dict[int, list] = {}

        def work(i):
            ctx = sim_context(netlist, patterns)
            ids = samples[i]
            # Small sweeps of the lowest ids, each followed by reads, so
            # the threads' fills and folds interleave.
            for end in range(10, len(ids) + 1, 10):
                view = ctx.flip_index(mask(ids[:end]))
                for p in range(patterns.n):
                    view.explainers(p, netlist.outputs[:1])
            results[i] = answers(ctx, ids)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(3):
                reset_sim_caches()
                workers = [
                    threading.Thread(target=work, args=(i,))
                    for i in range(len(samples))
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=120)
                assert not any(worker.is_alive() for worker in workers)
                assert [results[i] for i in range(len(samples))] == serial
        finally:
            sys.setswitchinterval(interval)


# -- the evidence ranking --------------------------------------------------------


def _atoms_then_name(analysis):
    return lambda site: (-len(analysis.atoms_of(site)), str(site))


def _reference_conflict_pool(analysis, seeds):
    """``hitting.conflict_pool`` by its definition: seeds, then every
    candidate inside some failing pattern's failing-output fan-in cone,
    sorted by atoms, then name."""
    datalog = analysis.datalog
    cones = [
        analysis.netlist.fanin_cone(datalog.failing_outputs_of(idx))
        for idx in datalog.failing_indices
    ]
    ranked = sorted(
        (s for s in analysis.sites if any(s.net in cone for cone in cones)),
        key=_atoms_then_name(analysis),
    )
    swept = set(analysis.sites)
    pool = [s for s in dict.fromkeys(seeds) if s in swept]
    seen = set(pool)
    pool.extend(s for s in ranked if s not in seen)
    return pool


class TestEvidence:
    """The per-die evidence table gives what each sort it replaced gives:
    the per-pattern extras, the singleton-frequency and partial-evidence
    pools of the cover enumeration, the greedy pick, and the exact
    engine's conflict pool."""

    @pytest.mark.parametrize(
        "name, k", [("rca8", 2), ("alu8", 1), ("alu8", 3), ("mul8", 1), ("mul8", 2)]
    )
    @pytest.mark.parametrize("variant", ["envelope", "stems"])
    def test_rankings_match_the_sorted_references(self, name, k, variant):
        netlist = load_circuit(name)
        patterns = PatternSet.random(netlist, 48, seed=k)
        rng = random.Random(f"{name}-{k}-{variant}")
        ties = 0
        for seed in range(3):
            datalog, _ = _failing_die(netlist, patterns, k, seed=40 * seed + k)
            envelope = candidate_sites(
                netlist, datalog, include_branches=variant == "envelope"
            )
            analysis = build_pertest(sim_context(netlist, patterns), datalog, envelope)
            evidence = analysis.evidence
            by_atoms = _atoms_then_name(analysis)

            # Per-pattern extras.
            for idx in datalog.failing_indices:
                explainers = analysis.exact_singletons[idx]
                assert evidence.top_explainers(idx, 6) == sorted(
                    explainers, key=by_atoms
                )[:6]
            # Singleton frequency, as the enumeration pool ranks it.
            frequency: dict[Site, int] = {}
            for explainers in analysis.exact_singletons.values():
                for site in explainers:
                    frequency[site] = frequency.get(site, 0) + 1
            assert evidence.by_frequency() == sorted(
                frequency, key=lambda s: (-frequency[s], str(s))
            )
            # Partial evidence: every candidate in key order.
            ranked = sorted(analysis.sites, key=by_atoms)
            assert sorted(analysis.sites, key=evidence.key) == ranked
            ties += sum(
                by_atoms(a)[0] == by_atoms(b)[0] for a, b in zip(ranked, ranked[1:])
            )
            # Greedy pick over random sets of still-open patterns.
            failing = datalog.failing_indices
            for _ in range(12):
                open_patterns = [idx for idx in failing if rng.random() < 0.6]
                gains: dict[Site, int] = {}
                for idx in open_patterns:
                    for site in analysis.exact_singletons[idx]:
                        gains[site] = gains.get(site, 0) + 1
                want = (
                    min(gains, key=lambda s: (-gains[s], str(s))) if gains else None
                )
                got = evidence.best_explainer(sum(1 << idx for idx in open_patterns))
                assert got == want
            # The exact engine's conflict pool.
            seeds = rng.sample(list(analysis.sites), 3)
            assert conflict_pool(analysis, seeds) == _reference_conflict_pool(
                analysis, seeds
            )
        assert ties  # the name tie-break was exercised
