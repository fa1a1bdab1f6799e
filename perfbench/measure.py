"""Measured processes of the benchmark.

``batch``  -- one in-process client diagnoses the dies back to back with
              ``Diagnoser.diagnose`` (the default program: compiled
              backend, greedy cover).  With ``--qos standard`` every die
              runs under the daemon's ``standard`` budget instead, which
              makes the run the in-process reference for the service.
``service`` -- starts ``repro serve`` and drives it through two HTTP/1.1
              keep-alive connections, each posting one die and polling its
              job until it is terminal.

Each mode first times its set-up: from the first call into the program
until one warm-up die is diagnosed.  ``--setup-only`` stops there.  The
timed phase then runs until ``--seconds`` have passed and at least
``--min-dies`` dies are done (or exactly ``--count`` dies).  The result is
written as JSON to the ``OUT`` path.

Usage: ``python3 perfbench/measure.py {batch,service} DIES OUT [options]``
with the checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import pickle
import re
import resource
import select
import signal
import subprocess
import sys
import threading
import time

#: The timed phase stops starting dies after this many times ``--seconds``
#: even when ``--min-dies`` is not reached, so a slow program still ends
#: the run in time.
TIME_CAP_FACTOR = 2.0

#: Seconds between two status polls of one job.  At 10 ms the latency is
#: bimodal (one or two polls' worth of the daemon's delayed-ACK stall),
#: and which mode the 90th-95th percentile falls in changes from run to
#: run; at 50 ms nearly every job is done at its first poll.
POLL_S = 0.05

#: Concurrent keep-alive connections of the service client.
CONNECTIONS = 2

TERMINAL = ("done", "failed", "cancelled")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """A running child's peak resident set so far (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def keep_going(index: int, elapsed: float, args) -> bool:
    """Whether the closed loop starts die ``index`` after ``elapsed`` s."""
    if args.count is not None:
        return index < args.count
    if elapsed >= TIME_CAP_FACTOR * max(args.seconds, 1.0):
        return False
    return index < args.min_dies or elapsed < args.seconds


# -- batch -------------------------------------------------------------------


def run_batch(args, dies: dict) -> dict:
    recorder = None
    if args.trace:
        from spans import SpanRecorder, install, layer_totals, to_forest

        recorder = SpanRecorder()
        install(recorder)
    import repro
    from repro.campaign.metrics import score_report
    from repro.core.budget import qos_class
    from repro.serve.protocol import canonical_report_json
    from repro.sim.compile import COUNTERS
    from repro.tester.datalog import Datalog

    def budget():
        return qos_class(args.qos).budget() if args.qos else None

    counters_start = COUNTERS.snapshot()
    setup_span = recorder.open("setup") if recorder else None
    started = time.perf_counter()
    netlist = repro.load_circuit(dies["circuit"])
    patterns = repro.provision_patterns(netlist)
    diagnoser = repro.Diagnoser(netlist)
    diagnoser.diagnose(patterns, Datalog.from_text(dies["warmup"][0]), budget=budget())
    setup_s = time.perf_counter() - started
    if recorder:
        recorder.close(setup_span)
    result = {"setup_s": setup_s}
    if args.setup_only:
        return result

    latencies: list[float] = []
    shas: list[str | None] = []
    quality: list[list[float]] = []
    errors: list[str] = []
    counters: dict[str, int] = {}
    stats = {"n_candidate_space": 0.0, "n_min_covers": 0.0}
    busy = 0.0
    rss = None
    for index, (text, defects) in enumerate(dies["dies"]):
        if not keep_going(index, busy, args):
            break
        before = COUNTERS.snapshot()
        if recorder:
            recorder.die = index
            die_span = recorder.open("die")
        began = time.perf_counter()
        try:
            datalog = Datalog.from_text(text)
            report = diagnoser.diagnose(patterns, datalog, budget=budget())
        except Exception as exc:  # a die error fails the run; keep measuring
            report = None
            error = f"die {index}: {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - began
        if recorder:
            recorder.close(die_span)
            recorder.die = None
        busy += latency
        latencies.append(latency)
        if index == args.min_dies - 1:
            rss = peak_rss_mb()
        if report is None:
            errors.append(error)
            shas.append(None)
            continue
        shas.append(sha(canonical_report_json(report)))
        if index < args.min_dies:
            outcome = score_report(
                netlist,
                report,
                defects,
                len(datalog.failing_indices),
                datalog.n_fail_atoms,
            )
            quality.append(
                [outcome.recall_near, float(outcome.success), float(outcome.resolution)]
            )
            for key, value in COUNTERS.delta(before).items():
                counters[key] = counters.get(key, 0) + value
            for key in stats:
                stats[key] += float(report.stats.get(key, 0.0))
    result.update(
        latencies=latencies,
        busy_s=busy,
        shas=shas,
        quality=quality,
        errors=errors,
        counters=counters,
        stats=stats,
        patterns=patterns.n,
        kernel_compiles=COUNTERS.kernel_compiles - counters_start["kernel_compiles"],
        peak_rss_mb=rss if rss is not None else peak_rss_mb(),
    )
    if recorder:
        first = set(range(min(args.min_dies, len(latencies))))
        seconds, calls = layer_totals(recorder.spans, first)
        setup = {
            span[0]: span[2] - span[1]
            for span in recorder.spans
            if span[4] is None and span[0] in ("circuit", "atpg")
        }
        result.update(layer_seconds=seconds, layer_calls=calls, setup_layers=setup)
        write_trace(args.trace, [(0, to_forest(recorder.spans))])
    return result


def write_trace(path: str, forests) -> None:
    from repro.obs.trace import to_chrome_trace

    with open(path, "w") as fh:
        json.dump(to_chrome_trace(forests), fh, separators=(",", ":"))


# -- service -----------------------------------------------------------------

_BANNER = re.compile(r"listening on http://([^:/\s]+):(\d+)")


class Daemon:
    """A ``repro serve`` subprocess on a free port with a fresh store."""

    def __init__(self, store: str, stderr_path: str):
        self._stderr = open(stderr_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", store],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        match = _BANNER.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon printed no listening banner: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> int:
        """SIGTERM (the daemon drains), then wait for the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        return code


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=60.0)

    def request(self, method: str, path: str, payload=None) -> tuple[int, bytes]:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=60.0)
            raise

    def diagnose(self, circuit: str, text: str, spans=None, die=None) -> dict:
        """Submit one die and poll it to a terminal state."""
        record = spans is not None
        began = time.perf_counter()
        status, body = self.request("POST", "/jobs", {"circuit": circuit, "datalog": text})
        if record:
            spans.append(["serve.submit", began, time.perf_counter(), -1, die])
        if status in (429, 503):
            return {"state": "refused", "status": status, "polls": 0}
        if status not in (200, 202):
            return {"state": "error", "status": status, "polls": 0}
        job = json.loads(body)
        polls = 0
        while job.get("state") not in TERMINAL:
            time.sleep(POLL_S)
            asked = time.perf_counter()
            status, body = self.request("GET", f"/jobs/{job['id']}")
            if record:
                spans.append(["serve.poll", asked, time.perf_counter(), -1, die])
            polls += 1
            if status != 200:
                return {"state": "error", "status": status, "polls": polls}
            job = json.loads(body)
        job["polls"] = polls
        return job

    def metrics(self) -> str:
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return body.decode()

    def close(self) -> None:
        self.conn.close()


def run_service(args, dies: dict) -> dict:
    circuit = dies["circuit"]
    started = time.perf_counter()
    daemon = Daemon(args.store, args.stderr)
    try:
        client = Client(daemon.host, daemon.port)
        warm = client.diagnose(circuit, dies["warmup"][0])
        setup_s = time.perf_counter() - started
        if warm.get("state") != "done":
            raise RuntimeError(f"warm-up job ended {warm.get('state')}: {warm}")
        result = {"setup_s": setup_s}
        if args.setup_only:
            client.close()
            return result
        metrics_before = client.metrics()
        outcome = drive(args, dies, daemon, spans=[] if args.trace else None)
        metrics_after = client.metrics()
        client.close()
    finally:
        code = daemon.stop()
    if code != 0:
        outcome["errors"].append(f"daemon exited {code} on SIGTERM")
    result.update(outcome)
    result.update(metrics_before=metrics_before, metrics_after=metrics_after)
    if args.trace:
        from spans import to_forest

        write_trace(args.trace, [(0, to_forest(result.pop("spans")))])
    return result


def drive(args, dies: dict, daemon: Daemon, spans=None) -> dict:
    """The timed phase: ``CONNECTIONS`` closed loops over one die stream."""
    stream = dies["dies"]
    lock = threading.Lock()
    cursor = {"next": 0}
    latencies: dict[int, float] = {}
    shas: dict[int, str] = {}
    errors: list[str] = []
    tally = {"polls": 0, "rejected": 0, "rss": None}
    began = time.perf_counter()

    def take() -> int | None:
        with lock:
            index = cursor["next"]
            if index >= len(stream) or not keep_going(
                index, time.perf_counter() - began, args
            ):
                return None
            cursor["next"] = index + 1
            return index

    def loop() -> None:
        client = Client(daemon.host, daemon.port)
        try:
            while (index := take()) is not None:
                t0 = time.perf_counter()
                try:
                    job = client.diagnose(dies["circuit"], stream[index][0], spans, index)
                except (OSError, http.client.HTTPException) as exc:
                    job = {"state": "error", "error": repr(exc), "polls": 0}
                latency = time.perf_counter() - t0
                with lock:
                    latencies[index] = latency
                    if len(latencies) == args.min_dies:
                        tally["rss"] = child_peak_rss_mb(daemon.proc.pid)
                    tally["polls"] += job["polls"]
                    if job["state"] == "refused":
                        tally["rejected"] += 1
                    if job["state"] == "done":
                        shas[index] = sha(
                            json.dumps(job["report"], sort_keys=True, separators=(",", ":"))
                        )
                    else:
                        errors.append(f"die {index}: job ended {job['state']}: {job}")
        finally:
            client.close()

    threads = [threading.Thread(target=loop) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    count = len(latencies)
    if tally["rss"] is None:
        tally["rss"] = child_peak_rss_mb(daemon.proc.pid)
    return {
        "latencies": [latencies[i] for i in range(count)],
        "wall_s": wall,
        "shas": [shas.get(i) for i in range(count)],
        "errors": errors,
        "polls": tally["polls"],
        "rejected": tally["rejected"],
        "peak_rss_mb": tally["rss"],
        "spans": spans,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("batch", "service"))
    parser.add_argument("dies", help="pickle written by gen.py")
    parser.add_argument("out", help="where to write the JSON result")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-dies", type=int, default=1)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="write a Chrome trace here")
    parser.add_argument("--qos", default=None, help="batch: run under this QoS budget")
    parser.add_argument("--store", help="service: the daemon's job store path")
    parser.add_argument("--stderr", help="service: append the daemon's stderr here")
    args = parser.parse_args(argv)
    with open(args.dies, "rb") as fh:
        dies = pickle.load(fh)
    run = run_batch if args.mode == "batch" else run_service
    result = run(args, dies)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
