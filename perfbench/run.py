"""End-to-end diagnosis benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pertest-mul12-k1 --seed 1 --seconds 25 --trace 0

A *die* is one failing device's datalog; ``kN`` means N injected defects
per die.  Every workload is a closed loop (a client sends its next die only
after the previous one finished) over dies generated from ``--seed`` by the
tester emulation with the default defect mix, in a process of its own
before anything is measured:

- ``pertest-mul12-k1``: one in-process client, single-defect ``mul12``
  dies -- the common volume case, where simulation and per-test analysis
  dominate;
- ``service-alu16``: ``repro serve`` (default ``-j 2``, fsync'd store)
  driven by two keep-alive connections that post a single-defect ``alu16``
  die and poll it -- the only workload where the service layer dominates;
- ``cover-alu16-k3``: the in-process loop on ``alu16`` with three
  interacting defects -- the paper's headline case, where the multiplet
  cover dominates.  Its heavy-tailed die cost keeps it out of
  ``BENCHMARK.json`` (see ``README.md``); it runs by hand.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``README.md``).  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

import stats

HERE = os.path.dirname(os.path.abspath(__file__))

#: Workload definitions.  ``setup_samples`` fresh processes each time one
#: cold set-up and ``setup_s`` is their median; the measured process is
#: one of them.  The short ``alu16`` set-up takes more samples, because
#: the machine's speed varies more over 2 s than over 7 s.  ``min_dies`` dies are diagnosed in every run
#: whatever its speed: quality metrics, report digests and per-layer
#: counts are taken over exactly those dies, so they repeat between runs of
#: one seed, and the tail percentile is chosen for that many samples.
#: ``max_rate`` (dies/s) sizes the generated die stream; a program faster
#: than that ends its timed phase early, when the stream runs out.
WORKLOADS = {
    "pertest-mul12-k1": {
        "mode": "batch", "circuit": "mul12", "k": 1, "interacting": False,
        "min_dies": 130, "max_rate": 15, "setup_samples": 3,
    },
    "cover-alu16-k3": {
        "mode": "batch", "circuit": "alu16", "k": 3, "interacting": True,
        "min_dies": 100, "max_rate": 20, "setup_samples": 3,
    },
    "service-alu16": {
        "mode": "service", "circuit": "alu16", "k": 1, "interacting": False,
        "min_dies": 250, "max_rate": 50, "setup_samples": 5,
    },
}

#: Tune on this seed; confirm a claim on the held-out seed 2.
DEFAULT_SEED = 1

#: Per-subprocess time limit, so a hung child cannot outlive the run.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that ends the run without a result."""


class Runner:
    """Runs the benchmark's child processes inside one scratch directory."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        env = {k: v for k, v in os.environ.items() if k not in ("REPRO_SIM", "REPRO_CHAOS")}
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # Reports and counters do not depend on the hash seed; fixing it
        # removes one source of timing variation between runs.
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        self.serial = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def python(self, script: str, *args: str) -> None:
        command = [sys.executable, os.path.join(HERE, script), *args]
        # A session of its own, so a child that has to be killed takes the
        # daemon it may have started with it.
        child = subprocess.Popen(
            command,
            cwd=self.root,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{script} {' '.join(args)} timed out") from exc
            raise
        if child.returncode != 0:
            raise BenchError(
                f"{script} {' '.join(args)} exited {child.returncode}:\n{stderr[-4000:]}"
            )

    def measure(self, mode: str, dies: str, *options: str) -> dict:
        self.serial += 1
        out = self.path(f"result-{self.serial}.json")
        extra = []
        if mode == "service":
            extra = [
                "--store", self.path(f"store-{self.serial}/jobs.jsonl"),
                "--stderr", self.path("daemon.stderr"),
            ]
            os.makedirs(self.path(f"store-{self.serial}"))
        self.python("measure.py", mode, dies, out, *options, *extra)
        with open(out) as fh:
            return json.load(fh)


def digest(shas) -> str:
    return hashlib.sha256("\n".join(shas).encode()).hexdigest()


def quality_metrics(quality) -> dict:
    return {
        "recall": statistics.mean(q[0] for q in quality),
        "success_rate": statistics.mean(q[1] for q in quality),
        "resolution": statistics.mean(q[2] for q in quality),
    }


def run_workload(runner: Runner, name: str, seed: int, seconds: float, trace: bool):
    """Returns ``(metrics, attempted, failed, problems, notes)``."""
    spec = WORKLOADS[name]
    n = spec["min_dies"]
    count = max(n, int(spec["max_rate"] * seconds))
    dies = runner.path("dies.pkl")
    runner.python(
        "gen.py", spec["circuit"], str(spec["k"]), "1" if spec["interacting"] else "0",
        str(seed), str(count), dies,
    )
    timed = ["--seconds", repr(seconds), "--min-dies", str(n)]
    mode = spec["mode"]
    if mode == "service":
        # Traced: exactly n dies, so the /metrics deltas cover a fixed set.
        run_options = ["--count", str(n), "--min-dies", str(n)] if trace else timed
        if trace:
            run_options += ["--trace", trace_path(runner, name, "client")]
        main = runner.measure("service", dies, *run_options)
        served = len(main["shas"])
        # The in-process reference: the same dies under the same budget.
        reference = runner.measure(
            "batch", dies, "--qos", "standard", "--count", str(served),
            "--min-dies", str(n),
        )
        layer_run = None
        if trace:
            layer_run = runner.measure(
                "batch", dies, "--qos", "standard", "--count", str(n), "--min-dies", str(n),
                "--trace", trace_path(runner, name, "replay"),
            )
    else:
        main = runner.measure("batch", dies, *timed)
        reference = main
        layer_run = None
        if trace:
            layer_run = runner.measure(
                "batch", dies, *timed, "--trace", trace_path(runner, name, "layers")
            )
    setups = [main["setup_s"]]
    if not trace:
        for _ in range(spec["setup_samples"] - 1):
            setups.append(runner.measure(mode, dies, "--setup-only")["setup_s"])

    problems = list(main["errors"])
    if mode == "service":
        problems += reference["errors"]
        for index, (got, want) in enumerate(zip(main["shas"], reference["shas"])):
            if got is not None and got != want:
                problems.append(f"die {index}: served report differs from the in-process report")
    attempted = len(main["latencies"])
    failed = sum(1 for s in main["shas"] if s is None)
    if len(reference["quality"]) != sum(1 for s in reference["shas"][:n] if s is not None):
        problems.append("not every diagnosed die was scored")
    notes = []
    if attempted < n:
        notes.append(f"only {attempted} of {n} dies ran before the time cap")
    first = [s for s in reference["shas"][:n] if s is not None]
    notes.append(f"report digest {digest(first)} over the first {len(first)} dies")

    if trace:
        metrics = per_layer(main, reference, layer_run, mode, n, notes)
    else:
        metrics = end_to_end(main, reference, mode, n, setups, attempted, failed, notes)
    return metrics, attempted, failed, problems, notes


def trace_path(runner: Runner, name: str, part: str) -> str:
    """Where a traced run leaves its Chrome trace (kept after the run)."""
    return os.path.join(os.path.dirname(runner.workdir), f"trace-{name}-{part}.json")


def end_to_end(main, reference, mode, n, setups, attempted, failed, notes) -> dict:
    latencies = main["latencies"]
    wall = main["wall_s"] if mode == "service" else main["busy_s"]
    try:
        pct, tail_value, samples, beyond = stats.tail(
            latencies, guaranteed=min(n, len(latencies))
        )
    except ValueError as exc:
        raise BenchError(f"no tail latency: {exc}") from exc
    notes.append(
        f"die_tail_s is p{pct:g} of {samples} dies ({beyond} beyond); "
        f"setup samples {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "dies_per_s": (len(latencies) / wall, "1/s"),
        "die_p50_s": (statistics.median(latencies), "s"),
        "die_tail_s": (tail_value, "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
    }
    quality = quality_metrics(reference["quality"])
    values.update(
        recall=(quality["recall"], "ratio"),
        success_rate=(quality["success_rate"], "ratio"),
        resolution=(quality["resolution"], "count"),
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(main, untraced, traced, mode, n, notes) -> dict:
    """Per-layer metrics; ``traced`` is the traced twin of ``untraced``."""
    dies = min(n, len(traced["latencies"]), len(untraced["latencies"]))
    seconds = traced["layer_seconds"]
    calls = traced["layer_calls"]
    counters = traced["counters"]
    die_time = sum(traced["latencies"][:dies])
    named = [
        "tester", "sim", "core.backtrace", "core.pertest", "core.cover",
        "core.refine", "core.scoring",
    ]
    unattributed = seconds.get("core", 0.0) + seconds.get("die", 0.0)
    memo_hits = sum(counters.get(f"{k}_hits", 0) for k in ("flip", "resim", "xreach"))
    memo_all = memo_hits + sum(counters.get(f"{k}_misses", 0) for k in ("flip", "resim", "xreach"))
    gate_evals = counters.get("gate_evals", 0)
    values = {
        "circuit.load_s": (traced["setup_layers"].get("circuit", 0.0), "s"),
        "atpg.provision_s": (traced["setup_layers"].get("atpg", 0.0), "s"),
        "atpg.patterns": (traced["patterns"], "count"),
        "sim.kernel_compiles": (traced["kernel_compiles"], "count"),
        "sim.context_builds": (counters.get("context_misses", 0) / dies, "count"),
        "sim.self_s": (seconds.get("sim", 0.0) / dies, "s"),
        "sim.queries": (calls.get("sim", 0) / dies, "count"),
        "sim.gate_evals": (gate_evals / dies, "count"),
        "sim.cone_passes": ((counters.get("cone_passes", 0) + counters.get("cone3_passes", 0)) / dies, "count"),
        "sim.full_passes": ((counters.get("full_passes", 0) + counters.get("full3_passes", 0)) / dies, "count"),
        "sim.ns_per_gate_eval": (seconds.get("sim", 0.0) / gate_evals * 1e9 if gate_evals else 0.0, "ns"),
        "sim.memo_hit_ratio": (memo_hits / memo_all if memo_all else 0.0, "ratio"),
        "core.backtrace.self_s": (seconds.get("core.backtrace", 0.0) / dies, "s"),
        "core.backtrace.candidates": (traced["stats"]["n_candidate_space"] / dies, "count"),
        "core.pertest.self_s": (seconds.get("core.pertest", 0.0) / dies, "s"),
        "core.cover.self_s": (seconds.get("core.cover", 0.0) / dies, "s"),
        "core.cover.min_covers": (traced["stats"]["n_min_covers"] / dies, "count"),
        "core.refine.self_s": (seconds.get("core.refine", 0.0) / dies, "s"),
        "core.scoring.self_s": (seconds.get("core.scoring", 0.0) / dies, "s"),
        "tester.parse_s": (seconds.get("tester", 0.0) / dies, "s"),
        "core.unattributed_s": (unattributed / dies, "s"),
        # Per die, so a slow spell of the machine during one of the two
        # processes moves only the dies it hit.
        "trace.overhead": (
            statistics.median(
                t / u for t, u in zip(traced["latencies"][:dies], untraced["latencies"][:dies])
            ) - 1.0,
            "ratio",
        ),
    }
    shares = ", ".join(
        f"{layer} {seconds.get(layer, 0.0) / die_time:.1%}" for layer in named
    )
    notes.append(
        f"share of die time over {dies} dies: {shares}, unattributed "
        f"{unattributed / die_time:.1%}"
    )
    values.update(service_layers(main, mode))
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def service_layers(main, mode) -> dict:
    """``serve.*`` metrics from the client and the daemon's /metrics; an
    in-process workload has no service layer and reports zeros."""
    names = {
        "serve.exec_s": "s", "serve.diagnosis_s": "s", "serve.sim_gate_evals": "count",
        "serve.overhead_s": "s", "serve.polls_per_job": "count",
        "serve.attempts_per_job": "count", "serve.rejected": "count",
    }
    if mode != "service":
        return {name: (0.0, unit) for name, unit in names.items()}
    before = stats.parse_prometheus(main["metrics_before"])
    after = stats.parse_prometheus(main["metrics_after"])
    jobs = len(main["latencies"])
    exec_count = stats.metric_delta(before, after, "repro_serve_job_seconds_count", qos="standard")
    exec_sum = stats.metric_delta(before, after, "repro_serve_job_seconds_sum", qos="standard")
    diag_count = stats.metric_delta(before, after, "repro_diagnosis_seconds_count", method="xcover")
    diag_sum = stats.metric_delta(before, after, "repro_diagnosis_seconds_sum", method="xcover")
    exec_s = exec_sum / exec_count if exec_count else 0.0
    values = {
        "serve.exec_s": exec_s,
        "serve.diagnosis_s": diag_sum / diag_count if diag_count else 0.0,
        "serve.sim_gate_evals": stats.metric_delta(before, after, "repro_sim_gate_evals_total") / jobs,
        "serve.overhead_s": statistics.mean(main["latencies"]) - exec_s,
        "serve.polls_per_job": main["polls"] / jobs,
        "serve.attempts_per_job": stats.metric_delta(before, after, "repro_serve_jobs_total", state="running") / jobs,
        "serve.rejected": float(main["rejected"]),
    }
    return {name: (values[name], unit) for name, unit in names.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="end-to-end diagnosis benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (no src/repro here)", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench_runs")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        metrics, attempted, failed, problems, notes = run_workload(
            Runner(root, workdir), args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(f"  {note}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
