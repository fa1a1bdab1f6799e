"""Warm shards: the jobs of one shard key share one loaded netlist and one
provisioned test set, the cache stays within its bound, and a warm job
serves the same bytes as a cold one."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import apply_test, load_circuit, provision_patterns, sample_defect_set
from repro.core.diagnose import METHODS
from repro.serve.executor import WARM_SHARD_LIMIT, execute_job, warm_shard
from repro.serve.protocol import JobSpec, canonical_report_json
from repro.sim.cache import reset_sim_caches


@pytest.fixture(autouse=True)
def cold_shards():
    warm_shard.cache_clear()
    yield
    warm_shard.cache_clear()


def die_texts(circuit: str, k: int, seeds) -> list[str]:
    netlist = load_circuit(circuit)
    patterns = provision_patterns(netlist)
    texts = []
    for seed in seeds:
        defects = sample_defect_set(netlist, k, seed=seed)
        result = apply_test(netlist, patterns, defects, "fallback")
        if result.device_fails:
            texts.append(result.datalog.to_text())
    return texts


def test_jobs_on_one_shard_key_share_netlist_and_patterns(monkeypatch):
    seen = []
    real = METHODS["single"]

    def spy(netlist, patterns, datalog, *governance):
        seen.append((netlist, patterns))
        return real(netlist, patterns, datalog, *governance)

    monkeypatch.setitem(METHODS, "single", spy)
    first, second = die_texts("c17", 1, range(1, 40))[:2]
    for text in (first, second):
        execute_job(JobSpec(circuit="c17", datalog=text, method="single"))
    (netlist_a, patterns_a), (netlist_b, patterns_b) = seen
    assert netlist_b is netlist_a
    assert patterns_b is patterns_a
    assert warm_shard.cache_info().currsize == 1


def test_each_circuit_and_pattern_seed_gets_its_own_entry():
    base = warm_shard("c17", 7)
    other_seed = warm_shard("c17", 8)
    other_circuit = warm_shard("rca4", 7)
    assert warm_shard.cache_info().currsize == 3
    assert other_seed[0] is not base[0] and other_seed[1] is not base[1]
    assert other_circuit[0] is not base[0] and other_circuit[1] is not base[1]
    again = warm_shard("c17", 7)
    assert again[0] is base[0] and again[1] is base[1]


def test_cache_never_exceeds_its_bound():
    first = warm_shard("c17", 0)
    for seed in range(1, WARM_SHARD_LIMIT + 3):
        warm_shard("c17", seed)
        assert warm_shard.cache_info().currsize <= WARM_SHARD_LIMIT
    assert warm_shard.cache_info().currsize == WARM_SHARD_LIMIT
    # The least recently used key went first; a reload is a new object.
    assert warm_shard("c17", 0)[0] is not first[0]


def test_warm_job_report_equals_a_cold_one():
    target, *others = die_texts("alu8", 2, range(1, 8))
    spec = JobSpec(circuit="alu8", datalog=target)
    # Warm the shard on other dies first, so the netlist's cone memos and
    # the sim contexts hold their state when the target job runs.
    for text in others:
        execute_job(JobSpec(circuit="alu8", datalog=text))
    warm = canonical_report_json(execute_job(spec))
    netlist = warm_shard("alu8", 7)[0]

    warm_shard.cache_clear()
    reset_sim_caches()
    cold = canonical_report_json(execute_job(spec))
    assert warm_shard("alu8", 7)[0] is not netlist
    assert warm == cold


def test_concurrent_jobs_keep_the_bound_and_their_own_keys():
    keys = [("c17", seed) for seed in range(WARM_SHARD_LIMIT + 4)]
    expected = {
        key: provision_patterns(load_circuit(key[0]), key[1]).fingerprint()
        for key in keys
    }
    threads = 8
    barrier = threading.Barrier(threads)
    got: list[tuple] = []
    sizes: list[int] = []

    def hammer(offset: int) -> None:
        barrier.wait(timeout=10)
        for round_ in range(3 * len(keys)):
            key = keys[(offset + round_) % len(keys)]
            got.append((key, warm_shard(*key)))
            sizes.append(warm_shard.cache_info().currsize)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(got) == threads * 3 * len(keys)
    assert max(sizes) <= WARM_SHARD_LIMIT
    for key, (netlist, patterns) in got:
        assert netlist.name == key[0]
        assert patterns.fingerprint() == expected[key]
