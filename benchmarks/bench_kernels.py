"""Kernel micro-benchmarks (performance regression guard).

Not a paper table: these time the primitives everything else is built
on, so a performance regression in a core loop is caught here rather
than as a mysterious slowdown of the experiment harness.

Two entry points:

- ``pytest benchmarks/bench_kernels.py`` -- pytest-benchmark timings of
  the primitives under the active backend (``REPRO_SIM``).
- ``python benchmarks/bench_kernels.py`` -- the compiled-vs-interpreted
  comparison script.  Times every kernel primitive and the end-to-end
  diagnosis of one cold ``mul12`` k=2 die under both backends (caches
  reset around every measured run, so the compiled numbers include
  codegen), writes ``benchmarks/results/BENCH_kernels.json`` and
  optionally enforces minimum speedups (the CI perf-smoke job runs it
  with ``--assert-kernel-speedup 1.5 --assert-e2e-speedup 1.5``).
"""

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import pytest

import _harness  # noqa: F401  (keeps sys.path behavior identical to other benches)
from _harness import ACCURACY_CIRCUITS, representative_trial
from repro.circuit.library import load_circuit
from repro.circuit.netlist import Site
from repro.sim.cache import reset_sim_caches
from repro.sim.logicsim import simulate
from repro.sim.patterns import PatternSet
from repro.sim.threeval import simulate3, x_injection_reach
from repro.sim.event import resimulate_with_overrides

KERNEL_CIRCUITS = ("mul8",) + ACCURACY_CIRCUITS

#: The end-to-end comparison runs one k=2 die on the ~900-gate multiplier:
#: on the small accuracy circuits the cold die takes tens of milliseconds
#: and its ratio swings too widely from run to run to gate.
E2E_CIRCUITS = ("mul12",)


@pytest.fixture(scope="module")
def workload():
    netlist = load_circuit("mul8")
    patterns = PatternSet.random(netlist, 64, seed=1)
    base = simulate(netlist, patterns)
    return netlist, patterns, base


def test_kernel_full_simulation(benchmark, workload):
    netlist, patterns, _base = workload
    benchmark(simulate, netlist, patterns)


def test_kernel_threeval_simulation(benchmark, workload):
    netlist, patterns, _base = workload
    benchmark(simulate3, netlist, patterns)


def test_kernel_cone_resimulation(benchmark, workload):
    netlist, patterns, base = workload
    site = Site(netlist.topo_order[len(netlist.topo_order) // 4])
    flipped = (base[site.net] ^ patterns.mask) & patterns.mask
    benchmark(
        resimulate_with_overrides, netlist, base, {site: flipped}, patterns.mask
    )


def test_kernel_x_injection(benchmark, workload):
    netlist, patterns, base = workload
    site = Site(netlist.topo_order[len(netlist.topo_order) // 4])
    benchmark(x_injection_reach, netlist, patterns, site, base)


# ---------------------------------------------------------------------------
# Compiled-vs-interpreted comparison script
# ---------------------------------------------------------------------------

RESULT_PATH = Path(__file__).parent / "results" / "BENCH_kernels.json"

BACKENDS = ("interp", "compiled")


def _best_of(fn, repeats: int = 5) -> float:
    """Minimum wall-clock of ``repeats`` calls (noise-robust estimator)."""
    fn()  # warm up allocator / kernel compilation outside the best-of
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _with_backend(backend: str):
    os.environ["REPRO_SIM"] = backend
    reset_sim_caches()


def _bench_primitives(circuit: str, repeats: int) -> dict:
    """Per-primitive timings of one circuit under both backends."""
    netlist = load_circuit(circuit)
    patterns = PatternSet.random(netlist, 64, seed=1)
    site = Site(netlist.topo_order[len(netlist.topo_order) // 4])
    timings: dict[str, dict[str, float]] = {}
    for backend in BACKENDS:
        _with_backend(backend)
        base = simulate(netlist, patterns)
        flipped = (base[site.net] ^ patterns.mask) & patterns.mask
        timings[backend] = {
            "full_pass": _best_of(lambda: simulate(netlist, patterns), repeats),
            "threeval_pass": _best_of(
                lambda: simulate3(netlist, patterns), repeats
            ),
            "cone_resim": _best_of(
                lambda: resimulate_with_overrides(
                    netlist, base, {site: flipped}, patterns.mask
                ),
                repeats,
            ),
            "x_reach": _best_of(
                lambda: x_injection_reach(netlist, patterns, site, base), repeats
            ),
        }
    speedups = {
        name: timings["interp"][name] / timings["compiled"][name]
        for name in timings["interp"]
    }
    geomean = math.exp(sum(math.log(s) for s in speedups.values()) / len(speedups))
    return {
        "circuit": circuit,
        "n_gates": netlist.n_gates,
        "n_patterns": patterns.n,
        "seconds": timings,
        "speedups": speedups,
        "kernel_speedup": geomean,
    }


def _bench_e2e(circuit: str, repeats: int) -> dict:
    """Cold-start end-to-end diagnosis wall-clock under both backends."""
    from repro.core.diagnose import Diagnoser

    netlist, patterns, datalog = representative_trial(circuit, k=2)
    seconds: dict[str, float] = {}
    for backend in BACKENDS:
        os.environ["REPRO_SIM"] = backend

        def run():
            # Cold caches inside the timed region: the compiled number pays
            # for its own codegen, the honest end-to-end comparison.
            reset_sim_caches()
            Diagnoser(netlist).diagnose(patterns, datalog)

        seconds[backend] = _best_of(run, repeats)
    return {
        "circuit": circuit,
        "n_gates": netlist.n_gates,
        "n_patterns": patterns.n,
        "seconds": seconds,
        "e2e_speedup": seconds["interp"] / seconds["compiled"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare compiled simulation kernels against the "
        "interpreted oracle and write BENCH_kernels.json."
    )
    parser.add_argument(
        "--output", type=Path, default=RESULT_PATH, help="JSON artifact path"
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="best-of repetitions per timing"
    )
    parser.add_argument(
        "--assert-kernel-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless every circuit's kernel speedup (geomean over "
        "primitives) is at least X",
    )
    parser.add_argument(
        "--assert-e2e-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless every circuit's end-to-end speedup is at least X",
    )
    args = parser.parse_args(argv)

    saved_backend = os.environ.get("REPRO_SIM")
    try:
        kernels = [_bench_primitives(c, args.repeats) for c in KERNEL_CIRCUITS]
        e2e = [_bench_e2e(c, args.repeats) for c in E2E_CIRCUITS]
    finally:
        if saved_backend is None:
            os.environ.pop("REPRO_SIM", None)
        else:
            os.environ["REPRO_SIM"] = saved_backend
        reset_sim_caches()

    payload = {
        "python": sys.version.split()[0],
        "repeats": args.repeats,
        "kernels": kernels,
        "e2e": e2e,
        "min_kernel_speedup": min(k["kernel_speedup"] for k in kernels),
        "min_e2e_speedup": min(t["e2e_speedup"] for t in e2e),
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    for entry in kernels:
        print(
            f"{entry['circuit']:>6}  kernel speedup {entry['kernel_speedup']:.2f}x  "
            + "  ".join(
                f"{name} {s:.2f}x" for name, s in entry["speedups"].items()
            )
        )
    for entry in e2e:
        print(
            f"{entry['circuit']:>6}  e2e {entry['seconds']['interp'] * 1000:.0f}ms"
            f" -> {entry['seconds']['compiled'] * 1000:.0f}ms"
            f"  ({entry['e2e_speedup']:.2f}x)"
        )
    print(f"wrote {args.output}")

    failed = False
    if (
        args.assert_kernel_speedup is not None
        and payload["min_kernel_speedup"] < args.assert_kernel_speedup
    ):
        print(
            f"FAIL: kernel speedup {payload['min_kernel_speedup']:.2f}x "
            f"< required {args.assert_kernel_speedup:.2f}x"
        )
        failed = True
    if (
        args.assert_e2e_speedup is not None
        and payload["min_e2e_speedup"] < args.assert_e2e_speedup
    ):
        print(
            f"FAIL: e2e speedup {payload['min_e2e_speedup']:.2f}x "
            f"< required {args.assert_e2e_speedup:.2f}x"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
