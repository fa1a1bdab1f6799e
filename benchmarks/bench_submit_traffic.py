"""Service traffic that a submission held for its job does not help.

``perfbench``'s ``service-alu16`` runs two connections that each post one
fast die and poll it, so every job settles while its ``POST /jobs`` is
held and comes back finished.  This script drives ``repro serve`` with
traffic that lacks that property, so the hold's cost there can be
measured on two commits:

- ``window``: one keep-alive connection keeps up to ``WINDOW`` single-defect
  ``alu16`` dies in flight: it posts until the window is full, then settles
  the oldest job (a ``GET`` at once, then one every poll interval).
- ``window-mixed``: the same, alternating ``alu16`` and ``rca16`` dies,
  whose shard keys route them to different worker threads of the
  default two, so the daemon could run two of them at once.
- ``window-slow``: the same as ``window`` with ``alu8`` k=4 dies, whose
  diagnoses outlast the hold.
- ``slow``: perfbench's two keep-alive connections, each posting one
  ``alu8`` k=4 die and polling it.
- ``first``: a fresh daemon for every ``alu16`` die, so each job is its
  shard's first and loads the circuit, its test set and its kernel.

``WINDOW`` stays below the daemon's high-water mark, so no job is admitted
degraded; a refused submission or a job that does not end ``done`` ends
the run.  Run from the root of a checkout; the daemon serves that
checkout's ``src``, the client is perfbench's::

    python3 benchmarks/bench_submit_traffic.py --shape window --runs 3

Each run prints one JSON line: dies/s over the timed stream (none for
``first``), the median and 95th-percentile per-die latency (its ``POST``
to the answer that shows it terminal), the submissions answered finished
(200), the polls and a digest of the reports.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gen import generate  # noqa: E402
from measure import CONNECTIONS, POLL_S, TERMINAL, Client, Daemon  # noqa: E402

#: Jobs one windowed connection keeps in flight; the daemon's default
#: high-water mark is 12 queued jobs.
WINDOW = 8

#: shape -> (circuits, k, how the dies are sent).
SHAPES = {
    "window": (("alu16",), 1, "window"),
    "window-mixed": (("alu16", "rca16"), 1, "window"),
    "window-slow": (("alu8",), 4, "window"),
    "slow": (("alu8",), 4, "closed"),
    "first": (("alu16",), 1, "first"),
}


def make_dies(shape: str, count: int, seed: int) -> tuple[list, list]:
    """One warm-up die per circuit, and ``count`` timed dies that take
    the circuits in turn; each die is ``(circuit, datalog_text)``."""
    circuits, k, _ = SHAPES[shape]
    per = -(-count // len(circuits))
    made = [generate(circuit, k, False, seed, per) for circuit in circuits]
    warm = [(m["circuit"], m["warmup"][0]) for m in made]
    timed = [(m["circuit"], m["dies"][i][0]) for i in range(per) for m in made]
    return warm, timed[:count]


def run_once(shape: str, warm: list, timed: list) -> dict:
    sends = SHAPES[shape][2]
    wall_s = None
    if sends == "first":
        outcome = drive_first(timed)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            daemon = Daemon(f"{tmp}/jobs.jsonl", f"{tmp}/serve.err")
            try:
                client = Client(daemon.host, daemon.port)
                for circuit, text in warm:
                    if client.diagnose(circuit, text)["state"] != "done":
                        raise RuntimeError("a warm-up job failed")
                client.close()
                began = time.perf_counter()
                if sends == "window":
                    outcome = drive_window(daemon, timed)
                else:
                    outcome = drive_closed(daemon, timed, CONNECTIONS)
                wall_s = time.perf_counter() - began
            finally:
                daemon.stop()
    latencies = sorted(outcome.pop("latencies"))
    digest = hashlib.sha256()
    for report in outcome.pop("reports"):
        digest.update(json.dumps(report, sort_keys=True).encode())
    return {
        "shape": shape,
        "dies": len(timed),
        "dies_per_s": len(timed) / wall_s if wall_s else None,
        "die_p50_s": statistics.median(latencies),
        "die_p95_s": latencies[math.ceil(0.95 * len(latencies)) - 1],
        **outcome,
        "digest": digest.hexdigest(),
    }


def settle(client: Client, job: dict) -> tuple[dict, int]:
    """Poll ``job`` until terminal: at once, then every ``POLL_S``."""
    polls = 0
    while job.get("state") not in TERMINAL:
        if polls:
            time.sleep(POLL_S)
        status, body = client.request("GET", f"/jobs/{job['id']}")
        if status != 200:
            raise RuntimeError(f"GET answered {status}")
        job = json.loads(body)
        polls += 1
    return job, polls


def drive_window(daemon: Daemon, timed: list) -> dict:
    client = Client(daemon.host, daemon.port)
    pending: collections.deque = collections.deque()
    latencies, reports = [0.0] * len(timed), [None] * len(timed)
    tally = {"answered_finished": 0, "polls": 0}

    def finish(index: int, job: dict, posted: float) -> None:
        if job["state"] != "done":
            raise RuntimeError(f"die {index}: job ended {job['state']}")
        latencies[index] = time.perf_counter() - posted
        reports[index] = job["report"]

    def settle_oldest() -> None:
        index, job, posted = pending.popleft()
        job, polls = settle(client, job)
        tally["polls"] += polls
        finish(index, job, posted)

    for index, (circuit, text) in enumerate(timed):
        while len(pending) >= WINDOW:
            settle_oldest()
        posted = time.perf_counter()
        status, body = client.request(
            "POST", "/jobs", {"circuit": circuit, "datalog": text}
        )
        if status not in (200, 202):
            raise RuntimeError(f"POST answered {status}")
        job = json.loads(body)
        if job["state"] in TERMINAL:
            tally["answered_finished"] += 1
            finish(index, job, posted)
        else:
            pending.append((index, job, posted))
    while pending:
        settle_oldest()
    client.close()
    return {**tally, "latencies": latencies, "reports": reports}


def drive_closed(daemon: Daemon, timed: list, connections: int) -> dict:
    """``connections`` closed loops, each posting one die and polling it."""
    lock = threading.Lock()
    cursor = iter(range(len(timed)))
    latencies, reports = [0.0] * len(timed), [None] * len(timed)
    tally = {"answered_finished": 0, "polls": 0}
    failures: list[str] = []

    def loop() -> None:
        client = Client(daemon.host, daemon.port)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                break
            posted = time.perf_counter()
            job = client.diagnose(*timed[index])
            latencies[index] = time.perf_counter() - posted
            with lock:
                if job["state"] != "done":
                    failures.append(f"die {index}: job ended {job['state']}")
                tally["polls"] += job["polls"]
                tally["answered_finished"] += job["polls"] == 0
            reports[index] = job.get("report")
        client.close()

    threads = [threading.Thread(target=loop) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise RuntimeError(failures[0])
    return {**tally, "latencies": latencies, "reports": reports}


def drive_first(timed: list) -> dict:
    """A fresh daemon per die, each posting one die and polling it."""
    tally = {"answered_finished": 0, "polls": 0}
    latencies, reports = [], []
    for index, (circuit, text) in enumerate(timed):
        with tempfile.TemporaryDirectory() as tmp:
            daemon = Daemon(f"{tmp}/jobs.jsonl", f"{tmp}/serve.err")
            try:
                client = Client(daemon.host, daemon.port)
                posted = time.perf_counter()
                job = client.diagnose(circuit, text)
                latencies.append(time.perf_counter() - posted)
                client.close()
            finally:
                daemon.stop()
        if job["state"] != "done":
            raise RuntimeError(f"die {index}: job ended {job['state']}")
        tally["polls"] += job["polls"]
        tally["answered_finished"] += job["polls"] == 0
        reports.append(job["report"])
    return {**tally, "latencies": latencies, "reports": reports}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--dies", type=int, default=None,
                        help="timed dies (default 300 k=1, 16 k=4, 5 first)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args(argv)
    # The daemon is a subprocess: it serves this checkout's src too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    _, k, sends = SHAPES[args.shape]
    count = args.dies or (5 if sends == "first" else 300 if k == 1 else 16)
    warm, timed = make_dies(args.shape, count, args.seed)
    for _ in range(args.runs):
        print(json.dumps(run_once(args.shape, warm, timed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
