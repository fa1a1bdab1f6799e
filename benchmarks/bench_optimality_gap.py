"""Greedy-vs-exact cover optimality gap (correctness regression guard).

Not a paper table: this sweeps seeded multi-defect instances on the
medium-tier circuits and compares the greedy per-test cover against the
implicit-hitting-set engine (:mod:`repro.core.hitting`):

- a **gap** instance is one where the exact engine proves a strictly
  smaller multiplet than the greedy settled on -- the reason the exact
  engine exists; the rate is reported,
- a **violation** is an instance where the greedy found a *smaller*
  complete cover than the "provably minimum" exact cardinality.  That
  would disprove the engine's optimality claim, so the count must be zero
  always.

Two entry points:

- ``pytest benchmarks/bench_optimality_gap.py`` -- pytest-benchmark timing
  of one representative exact search.
- ``python benchmarks/bench_optimality_gap.py`` -- the sweep script.
  Writes ``benchmarks/results/BENCH_optimality_gap.json``; the CI
  optimality-gap job runs it with ``--assert-optimal`` (every instance
  must report ``optimal`` and zero violations).
"""

import argparse
import json
import sys
import time
from pathlib import Path

import _harness
from _harness import ACCURACY_CIRCUITS
from repro.campaign.driver import provision_patterns
from repro.campaign.samplers import sample_defect_set
from repro.circuit.library import load_circuit
from repro.core.backtrace import candidate_sites
from repro.core.budget import OPTIMALITY_OPTIMAL
from repro.core.cover import greedy_pertest_cover
from repro.core.hitting import hitting_set_cover
from repro.core.pertest import build_pertest
from repro.sim.cache import sim_context
from repro.tester.harness import apply_test

RESULTS = Path(__file__).parent / "results"


def _instances(circuit: str, k: int, trials: int, seed: int):
    """Deterministic failing (netlist, patterns, datalog) instances."""
    netlist = load_circuit(circuit)
    patterns = provision_patterns(netlist)
    produced = 0
    attempt = 0
    while produced < trials:
        defects = sample_defect_set(netlist, k, seed + attempt)
        attempt += 1
        result = apply_test(netlist, patterns, defects)
        if not result.device_fails:
            continue
        produced += 1
        yield netlist, patterns, result.datalog, seed + attempt - 1


def _compare(netlist, patterns, datalog):
    analysis = build_pertest(
        sim_context(netlist, patterns), datalog, candidate_sites(netlist, datalog)
    )
    greedy = greedy_pertest_cover(analysis)
    started = time.perf_counter()
    exact = hitting_set_cover(
        analysis,
        seed_sites=greedy.sites + greedy.pair_candidates,
        incumbent=greedy.sites if greedy.complete else None,
    )
    return greedy, exact, time.perf_counter() - started


def run_sweep(trials: int, seed: int) -> dict:
    rows = []
    for circuit in ACCURACY_CIRCUITS:
        for k in (1, 2, 3):
            for netlist, patterns, datalog, inst_seed in _instances(
                circuit, k, trials, seed
            ):
                greedy, exact, seconds = _compare(netlist, patterns, datalog)
                greedy_size = len(greedy.sites) if greedy.complete else None
                rows.append(
                    {
                        "circuit": circuit,
                        "k": k,
                        "seed": inst_seed,
                        "greedy_size": greedy_size,
                        "exact_cardinality": exact.cardinality,
                        "exact_covers": len(exact.covers),
                        "optimality": exact.optimality,
                        "verifications": exact.verifications,
                        "seconds": round(seconds, 4),
                    }
                )
    complete = [r for r in rows if r["greedy_size"] is not None and r["exact_covers"]]
    gaps = [r for r in complete if r["greedy_size"] > r["exact_cardinality"]]
    violations = [r for r in complete if r["greedy_size"] < r["exact_cardinality"]]
    non_optimal = [r for r in rows if r["optimality"] != OPTIMALITY_OPTIMAL]
    return {
        "instances": rows,
        "n_instances": len(rows),
        "n_gap": len(gaps),
        "n_violations": len(violations),
        "n_non_optimal": len(non_optimal),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trials", type=int, default=2, help="instances per (circuit, k)")
    parser.add_argument("--seed", type=int, default=46)
    parser.add_argument(
        "--assert-optimal",
        action="store_true",
        help="fail unless every instance is 'optimal' with zero violations",
    )
    args = parser.parse_args(argv)

    summary = run_sweep(args.trials, args.seed)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "BENCH_optimality_gap.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")

    print(
        f"optimality gap sweep: {summary['n_instances']} instances, "
        f"{summary['n_gap']} greedy-suboptimal, "
        f"{summary['n_violations']} violations, "
        f"{summary['n_non_optimal']} non-optimal statuses"
    )
    print(f"wrote {out}")

    if summary["n_violations"]:
        print("FAIL: greedy beat the 'provably minimum' exact cardinality")
        return 1
    if args.assert_optimal and summary["n_non_optimal"]:
        bad = [
            (r["circuit"], r["k"], r["seed"], r["optimality"])
            for r in summary["instances"]
            if r["optimality"] != OPTIMALITY_OPTIMAL
        ]
        print(f"FAIL: expected every instance optimal, got {bad}")
        return 1
    return 0


def test_optimality_gap_smoke(benchmark):
    """pytest-benchmark entry: one representative exact search."""
    netlist, patterns, datalog = _harness.representative_trial("rca8", k=2)

    def run():
        return _compare(netlist, patterns, datalog)

    greedy, exact, _seconds = benchmark.pedantic(run, rounds=3, iterations=1)
    assert exact.optimality == OPTIMALITY_OPTIMAL
    if greedy.complete and exact.covers:
        assert exact.cardinality <= len(greedy.sites)


if __name__ == "__main__":
    sys.exit(main())
