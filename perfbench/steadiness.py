"""Steadiness study: run the benchmark over several seeds and report, per
workload and end-to-end metric, the median and the quartile spread as a
share of the median, against the metric's bound in ``BENCHMARK.json``.

With ``--repeat 2`` every seed runs twice, all seeds once before any
again.  The study then also compares the median of the first set with that
of the second set, which may be worse by at most the bound, and flags any
quality metric
or report digest that differs between the two runs of one seed;
``--trace 1`` does the same for the per-layer counts, which must repeat
exactly.  Run from the root of a checkout::

    python3 perfbench/steadiness.py --seeds 1-10 --log study.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import stats

#: Metrics that must repeat exactly between runs of one seed.
EXACT = {
    "recall", "success_rate", "resolution", "ok_rate",
    "atpg.patterns", "sim.kernel_compiles", "sim.context_builds", "sim.queries",
    "sim.gate_evals", "sim.cone_passes", "sim.full_passes", "sim.memo_hit_ratio",
    "core.backtrace.candidates", "core.cover.min_covers", "serve.sim_gate_evals",
}


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return {
        "workload": workload, "seed": seed, "trace": trace, "code": done.returncode,
        "result": json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None,
        "digest": next((l.split()[2] for l in lines if "report digest" in l), None),
        "lines": lines[:-1],
        "stderr": done.stderr[-2000:],
    }


def report(runs: list[dict], bench: dict) -> list[str]:
    """Spread table and exactness flags for the runs of one workload."""
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    flags = [f"seed {r['seed']} exited {r['code']}: {r['stderr']}" for r in runs if r["code"]]
    good = [r for r in runs if r["result"] is not None]
    if not good:
        return flags
    first = {}
    second = {}
    for run in good:
        twin = first.setdefault(run["seed"], run)
        if twin is not run:
            second.setdefault(run["seed"], run)
            mine, theirs = run["result"]["metrics"], twin["result"]["metrics"]
            for name in sorted(EXACT & set(mine)):
                if mine[name]["value"] != theirs[name]["value"]:
                    flags.append(f"seed {run['seed']}: {name} did not repeat")
            if run["digest"] != twin["digest"]:
                flags.append(f"seed {run['seed']}: report digest did not repeat")
    values = collect(first)
    again = collect(second)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    lines = []
    for name, vals in values.items():
        median = statistics.median(vals)
        # The spread of each set of runs, first set first.
        spreads = [
            stats.quartile_spread(v) if len(v) > 1 and statistics.median(v) else 0.0
            for v in (vals, again.get(name, []))
            if v
        ]
        spread = max(spreads)
        bound = bounds.get(name)
        mark = ""
        if bound is not None and spread > bound:
            mark = "  OVER BOUND"
        elif bound is not None and spread > bound / 3:
            mark = "  over a third of the bound"
        limit = f" bound {bound}" if bound is not None else ""
        if again.get(name) and median:
            # How much worse the second set's median is, as a share.
            shift = (statistics.median(again[name]) - median) / median
            if better[name] == "higher":
                shift = -shift
            limit += f" second-set shift {shift:+.3f}"
            if bound is not None and shift > bound:
                mark += "  SHIFT OVER BOUND"
        shown = "/".join(f"{s:.3f}" for s in spreads)
        lines.append(f"  {name:26s} median {median:<12.6g} spread {shown}{limit}{mark}")
    return lines + [f"  FLAG {flag}" for flag in flags]


def collect(runs: dict) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for run in runs.values():
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 7")
    parser.add_argument("--workload", action="append", help="default: every gated one")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", help="append every run's record here as JSON lines")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        runs = []
        for _ in range(args.repeat):
            for seed in seed_list(args.seeds):
                run = run_once(workload, seed, bench["run_seconds"], args.trace)
                runs.append(run)
                if args.log:
                    with open(args.log, "a") as fh:
                        fh.write(json.dumps(run) + "\n")
        print(f"{workload}: {len(runs)} runs")
        print("\n".join(report(runs, bench)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
