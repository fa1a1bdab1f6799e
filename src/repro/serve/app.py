"""The diagnosis daemon: admission control, lifecycle, and the HTTP app.

:class:`DiagnosisDaemon` is the transport-free core -- its
:meth:`~DiagnosisDaemon.handle` method takes ``(method, path, body)`` and
returns a :class:`Response`, so every behavior (admission, backpressure,
recovery, drain, health) is testable without sockets.  :func:`serve`
wraps it in a stdlib ``ThreadingHTTPServer`` plus signal handling.

Robustness model:

- **durability**: every submission and transition is an fsync'd journal
  record (:mod:`repro.serve.store`) written *before* it is acknowledged,
  so ``kill -9`` at any instant loses nothing that was confirmed;
- **recovery**: on start the store replays its journal and non-terminal
  jobs are re-enqueued; deterministic job fingerprints and canonical
  report serialization make the re-execution idempotent;
- **backpressure**: a bounded admission queue -- past ``queue_depth`` a
  submission is rejected immediately with ``429`` and a ``Retry-After``
  estimate; past the high-water fraction new jobs run under *degraded*
  QoS budgets so the daemon sheds precision, not availability;
- **drain**: SIGTERM stops admissions and job starts, lets in-flight
  jobs finish under ``drain_seconds``, checkpoints, and exits 0; a
  second SIGINT force-quits.

Endpoints::

    POST   /jobs        submit {"circuit": ..., "datalog": ..., ...}
    GET    /jobs        list jobs + per-state counts
    GET    /jobs/<id>   status, report when done
    DELETE /jobs/<id>   cooperative cancel
    GET    /healthz     liveness (503 on an unrecovered store write error)
    GET    /readyz      readiness (store writable, pool alive, queue ok)
    GET    /metrics     live Prometheus text exposition
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable

from repro import chaos
from repro.errors import BindError, JournalError, ServeError, TrialError
from repro.obs.metrics import (
    REGISTRY,
    record_admission_rejected,
    record_degraded_admission,
    record_drain,
    record_job_seconds,
    record_job_transition,
    record_recovery,
    set_queue_depth,
)
from repro.core.budget import CancellationToken
from repro.serve.executor import ExecutorCallbacks, ShardExecutor, execute_job
from repro.serve.protocol import (
    STATE_RUNNING,
    STATE_SUBMITTED,
    JobSpec,
    canonical_report_dict,
)
from repro.serve.store import JobStore, StoredJob


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to run one daemon."""

    store: str | Path = "jobs.jsonl"
    host: str = "127.0.0.1"
    port: int = 8765
    #: Worker threads (shard-affine; see :mod:`repro.serve.executor`).
    workers: int = 2
    #: Admission bound: accepted-but-unstarted jobs past this are rejected
    #: with 429 instead of queueing unboundedly.
    queue_depth: int = 16
    #: Fraction of ``queue_depth`` past which readiness drops and newly
    #: admitted jobs run under degraded QoS budgets.
    high_water: float = 0.75
    #: Seconds SIGTERM waits for in-flight jobs before forcing the exit.
    drain_seconds: float = 10.0
    retries: int = 1
    backoff: float = 0.05
    #: fsync every job-store record (the durable default; tests may relax).
    fsync: bool = True
    #: Compact the job store when its journal exceeds this many bytes
    #: (checked on terminal transitions; None disables the size trigger).
    compact_bytes: int | None = 4 << 20
    #: Compact when this many seconds passed since the last compaction
    #: (None disables the age trigger).
    compact_age_seconds: float | None = None
    #: Watchdog: a job running longer than this on one worker is declared
    #: wedged, abandoned, and requeued (None disables wedge detection).
    stuck_seconds: float | None = 300.0
    #: Watchdog sweep period in seconds (0 disables the watchdog thread).
    watchdog_interval: float = 1.0
    #: Total wall-clock a job may spend being retried/requeued before it
    #: is terminally failed (None: unbounded).
    retry_wall_seconds: float | None = 600.0
    #: Chaos fault-plan spec (e.g. ``fsync_eio:0.05+slow_io:20ms``);
    #: None falls back to the ``REPRO_CHAOS`` environment variable.
    chaos: str | None = None
    #: ``standalone`` or ``worker``: a worker is the same daemon serving
    #: a coordinator instead of end clients (the coordinator drives it
    #: through the public job protocol, which is the whole point); the
    #: role is surfaced in the startup banner and ``/cluster/status``.
    role: str = "standalone"


@dataclass
class Response:
    """One transport-free HTTP response."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: dict = field(default_factory=dict)

    @classmethod
    def json(cls, status: int, payload: dict, **headers) -> "Response":
        """Build a JSON response; keyword headers are normalized from
        Python identifiers to dashed HTTP names (``retry_after`` ->
        ``Retry-After``), so callers never need ``**{"Retry-After": ...}``
        contortions."""
        return cls(
            status,
            (json.dumps(payload, indent=2) + "\n").encode(),
            headers={
                key.replace("_", "-").title(): str(value)
                for key, value in headers.items()
            },
        )

    @classmethod
    def text(cls, status: int, text: str) -> "Response":
        return cls(status, text.encode(), content_type="text/plain; charset=utf-8")


class DiagnosisDaemon(ExecutorCallbacks):
    """Transport-free daemon core: store + executor + admission + lifecycle."""

    def __init__(self, config: ServeConfig, *, run=execute_job, clock=time.monotonic):
        self.config = config
        self._clock = clock
        self.store = JobStore(
            config.store,
            fsync=config.fsync,
            compact_bytes=config.compact_bytes,
            compact_age_seconds=config.compact_age_seconds,
        )
        self.executor = ShardExecutor(
            self,
            workers=config.workers,
            retries=config.retries,
            backoff=config.backoff,
            run=run,
            stuck_seconds=config.stuck_seconds,
            watchdog_interval=config.watchdog_interval,
            retry_wall_seconds=config.retry_wall_seconds,
        )
        self._lock = threading.RLock()
        self._queued: set[str] = set()
        self._running: dict[str, float] = {}  # job id -> start time
        self._tokens: dict[str, CancellationToken] = {}
        self._user_cancelled: set[str] = set()
        self._started = False
        self._draining = False
        #: EMA of job latency, seeding the 429 Retry-After estimate.
        self._ema_seconds = 1.0

    # -- lifecycle -----------------------------------------------------------

    def start(self, stop: Callable[[], bool] | None = None) -> int:
        """Open the store, replay, re-enqueue; returns #jobs recovered.

        ``stop()`` is asked once the replay is done: when it answers true
        no worker starts and nothing is enqueued, so every replayed job
        stays pending for the next start.
        """
        recovered = self.store.open()
        record_recovery(len(recovered))
        if stop is not None and stop():
            return len(recovered)
        self.executor.start()
        for job in recovered:
            self._enqueue(job)
        self._started = True
        self.update_gauges()
        return len(recovered)

    def drain(self) -> bool:
        """Stop admissions and job starts; wait out in-flight work.

        Returns True when the drain finished inside ``drain_seconds``.
        On overrun, in-flight tokens are cancelled so the jobs return
        their partial state quickly; they are *deferred* (left
        non-terminal in the journal) and recover on the next start.
        """
        with self._lock:
            self._draining = True
        clean = self.executor.drain(self.config.drain_seconds, clock=self._clock)
        if not clean:
            # Overran: trip the in-flight tokens and give the workers a short
            # grace to surface their deferrals.  The drain stays *forced*
            # even when that reap succeeds -- work was interrupted.
            for job_id in self.executor.cancel_inflight():
                token = self._tokens.get(job_id)
                if token is not None:
                    token.cancel()
            self.executor.drain(2.0, clock=self._clock)
        record_drain("clean" if clean else "forced")
        self.store.note_drain(clean)
        self.store.close()
        return clean

    def abort(self) -> None:
        """Release resources after a failed startup (no drain ceremony)."""
        self.store.close()

    # -- admission -----------------------------------------------------------

    def _high_water_count(self) -> int:
        return max(1, int(math.ceil(self.config.queue_depth * self.config.high_water)))

    def _retry_after(self) -> int:
        with self._lock:
            backlog = len(self._queued) + len(self._running)
        per_worker = backlog / max(1, self.config.workers)
        return max(1, min(60, int(math.ceil(per_worker * self._ema_seconds))))

    def _enqueue(self, job: StoredJob) -> None:
        token = CancellationToken()
        with self._lock:
            self._tokens[job.job_id] = token
            self._queued.add(job.job_id)
        self.executor.submit(
            job.job_id, job.spec, token, degraded=job.degraded
        )
        self.update_gauges()

    def submit(self, spec: JobSpec) -> Response:
        with self._lock:
            if self._draining:
                record_admission_rejected("draining")
                # The restart horizon is the drain deadline plus recovery;
                # like the 429 path, tell the client when to come back.
                retry_after = max(1, int(math.ceil(self.config.drain_seconds)))
                return Response.json(
                    503,
                    {
                        "error": "daemon is draining; resubmit after restart",
                        "retry_after_seconds": retry_after,
                    },
                    retry_after=retry_after,
                )
            queued = len(self._queued)
        if queued >= self.config.queue_depth:
            record_admission_rejected("saturated")
            retry_after = self._retry_after()
            return Response.json(
                429,
                {
                    "error": "admission queue is full",
                    "queue_depth": self.config.queue_depth,
                    "retry_after_seconds": retry_after,
                },
                retry_after=retry_after,
            )
        degraded = queued >= self._high_water_count()
        try:
            job, created = self.store.submit(spec, degraded=degraded)
        except JournalError:
            # The durable append failed: the job was never accepted, and
            # /healthz flips until the store writes again.
            record_admission_rejected("store_error")
            raise
        if not created:
            # Idempotent resubmission: point at the existing job.
            return Response.json(200, job.status_dict())
        record_job_transition(STATE_SUBMITTED)
        if degraded:
            record_degraded_admission()
        self._enqueue(job)
        return Response.json(202, job.status_dict())

    def cancel(self, job_id: str) -> Response:
        job = self.store.get(job_id)
        if job is None:
            return Response.json(404, {"error": f"unknown job {job_id!r}"})
        if job.terminal:
            return Response.json(
                409, {"error": f"job is already {job.state}", "state": job.state}
            )
        with self._lock:
            self._user_cancelled.add(job_id)
            token = self._tokens.get(job_id)
            was_queued = job_id in self._queued
        if token is not None:
            token.cancel()
        if was_queued:
            # Not started yet: terminal immediately; the worker discards
            # the queue item when it surfaces.
            self._finish(job_id)
            self.store.mark_cancelled(job_id)
            record_job_transition("cancelled")
            self.update_gauges()
            return Response.json(202, self.store.get(job_id).status_dict())
        return Response.json(202, {"id": job_id, "state": "cancelling"})

    # -- executor callbacks (worker threads) ---------------------------------

    def _finish(self, job_id: str) -> None:
        with self._lock:
            self._queued.discard(job_id)
            started = self._running.pop(job_id, None)
            self._tokens.pop(job_id, None)
        if started is not None:
            elapsed = max(0.0, self._clock() - started)
            job = self.store.get(job_id)
            qos = job.spec.qos if job is not None else "unknown"
            record_job_seconds(qos, elapsed)
            with self._lock:
                self._ema_seconds = 0.7 * self._ema_seconds + 0.3 * elapsed

    def on_running(self, job_id: str, attempt: int) -> None:
        with self._lock:
            self._queued.discard(job_id)
            self._running[job_id] = self._clock()
        self.store.mark_running(job_id, attempt)
        record_job_transition(STATE_RUNNING)
        self.update_gauges()

    def on_done(self, job_id: str, report) -> None:
        self._finish(job_id)
        self.store.mark_done(job_id, canonical_report_dict(report))
        record_job_transition("done")
        self.store.maybe_compact()
        self.update_gauges()

    def on_failed(self, job_id: str, error: TrialError) -> None:
        self._finish(job_id)
        self.store.mark_failed(job_id, error.to_dict())
        record_job_transition("failed")
        self.store.maybe_compact()
        self.update_gauges()

    def on_requeued(self, job_id: str, cause: str) -> None:
        # The watchdog pulled the job off a dead/wedged worker; it is
        # queued again (same shard, same token), so move the in-memory
        # accounting back without touching the journal -- the next
        # ``on_running`` writes the new attempt.
        with self._lock:
            self._running.pop(job_id, None)
            self._queued.add(job_id)
        self.update_gauges()

    def on_cancelled(self, job_id: str) -> None:
        with self._lock:
            user = job_id in self._user_cancelled
        self._finish(job_id)
        if user:
            self.store.mark_cancelled(job_id)
            record_job_transition("cancelled")
        # else: a drain tripped the token -- leave the journal non-terminal
        # so the job recovers on the next start.
        self.update_gauges()

    def on_deferred(self, job_id: str) -> None:
        with self._lock:
            self._queued.discard(job_id)
        self.update_gauges()

    # -- health --------------------------------------------------------------

    def readiness(self) -> tuple[bool, list[str]]:
        reasons: list[str] = []
        if not self._started:
            reasons.append("not started")
        with self._lock:
            if self._draining:
                reasons.append("draining")
            queued = len(self._queued)
        if not self.store.probe_writable():
            reasons.append("job store is not writable")
        store_error = self.store.last_error
        if store_error:
            reasons.append(f"unrecovered store write error: {store_error}")
        if self._started and not self.executor.alive():
            reasons.append("worker pool is dead")
        if queued >= self._high_water_count():
            reasons.append(
                f"queue above high water ({queued}/{self.config.queue_depth})"
            )
        return (not reasons), reasons

    def update_gauges(self) -> None:
        with self._lock:
            set_queue_depth(len(self._queued), len(self._running))

    def cluster_status(self) -> dict:
        """The ``/cluster/status`` body: every role answers it, so
        ``repro cluster status`` works against a worker or standalone
        node too."""
        with self._lock:
            queued, running = len(self._queued), len(self._running)
            draining = self._draining
        return {
            "role": self.config.role,
            "counts": self.store.counts(),
            "queued": queued,
            "running": running,
            "draining": draining,
        }

    # -- the request surface (fake-transport harness + HTTP handler) ---------

    def handle(self, method: str, path: str, body: bytes | None = None) -> Response:
        """Dispatch one request; the HTTP layer is a thin wrapper over this."""
        return handle_request(self, method, path, body)


def handle_request(node, method: str, path: str, body: bytes | None) -> Response:
    """The job protocol's route table, one for every role.

    ``node`` is a :class:`DiagnosisDaemon` or a cluster
    :class:`~repro.serve.cluster.coordinator.Coordinator`; each supplies
    its ``store``, ``readiness()``, ``cluster_status()``,
    ``update_gauges()``, ``submit(spec)`` and ``cancel(job_id)``.
    """
    path = path.split("?", 1)[0].rstrip("/") or "/"
    try:
        if method == "GET" and path == "/healthz":
            # An unrecovered store write error makes the *process*
            # unhealthy, not merely unready: a node that cannot persist
            # transitions is silently lying about durability, and a
            # supervisor should restart it onto a healthy disk.
            store_error = node.store.last_error
            if store_error:
                return Response.json(
                    503,
                    {"status": "unhealthy", "last_store_error": store_error},
                )
            return Response.json(200, {"status": "ok"})
        if method == "GET" and path == "/readyz":
            ready, reasons = node.readiness()
            if ready:
                return Response.json(200, {"status": "ready"})
            return Response.json(503, {"status": "unready", "reasons": reasons})
        if method == "GET" and path == "/metrics":
            node.update_gauges()
            return Response.text(200, REGISTRY.to_prometheus_text())
        if method == "GET" and path == "/cluster/status":
            return Response.json(200, node.cluster_status())
        if method == "POST" and path == "/jobs":
            try:
                payload = json.loads((body or b"").decode() or "null")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return Response.json(400, {"error": f"bad JSON body: {exc}"})
            return node.submit(JobSpec.from_dict(payload))
        if method == "GET" and path == "/jobs":
            return Response.json(
                200,
                {
                    "jobs": [
                        job.status_dict(include_report=False)
                        for job in node.store.jobs()
                    ],
                    "counts": node.store.counts(),
                },
            )
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            if method == "GET":
                job = node.store.get(job_id)
                if job is None:
                    return Response.json(404, {"error": f"unknown job {job_id!r}"})
                return Response.json(200, job.status_dict())
            if method == "DELETE":
                return node.cancel(job_id)
        return Response.json(404, {"error": f"no route {method} {path}"})
    except ServeError as exc:
        return Response.json(400, {"error": str(exc)})
    except JournalError as exc:
        # The store went bad mid-request (disk full, dir removed):
        # surface as a 500 and let /readyz flip.
        return Response.json(500, {"error": f"job store failure: {exc}"})


# -- HTTP wrapper ------------------------------------------------------------

#: Largest request body the handler reads, 1 MiB; a larger declared
#: ``Content-Length`` gets a 413 unread, since ``rfile.read`` allocates the
#: declared size up front.  The largest job body a shipped circuit's
#: datalog can produce -- every pattern of its provisioned test set
#: failing at every output -- is about 8 KiB (``dec5``: 64 patterns, 32
#: outputs), so the ceiling leaves over a hundredfold headroom.
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Thin byte shuffler between the socket and :meth:`DiagnosisDaemon.handle`.

    Nagle is off, and responses go through a write buffer that
    ``handle_one_request`` flushes once per request, so status line,
    headers and body leave in one write.  A keep-alive client delays the
    ACK of a small segment by up to ~40 ms, and with Nagle on, a second
    small write (the body after the headers) waits for exactly that ACK.
    """

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: A response up to this size leaves in one write; a larger one takes
    #: several, which cannot stall with Nagle off.
    wbufsize = 1 << 16

    def _dispatch(self) -> None:
        declared = (self.headers.get("Content-Length") or "0").strip()
        # Leading zeros go first: int() refuses strings over 4,300 digits.
        digits = declared.lstrip("0") or "0"
        # Either refusal leaves the body unread, so the next request on
        # this connection cannot be framed: answer, then hang up.
        if not (declared.isascii() and declared.isdigit()):
            response = Response.json(
                400,
                {"error": f"malformed Content-Length header {declared!r}"},
                connection="close",
            )
        elif len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            response = Response.json(
                413,
                {
                    "error": f"request body of {digits} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                },
                connection="close",
            )
        else:
            length = int(digits)
            body = self.rfile.read(length) if length else b""
            response = self.server.daemon.handle(self.command, self.path, body)
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for key, value in response.headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(response.body)

    do_GET = _dispatch
    do_POST = _dispatch
    do_DELETE = _dispatch

    def log_message(self, format: str, *args) -> None:
        pass  # request logging is the metrics registry's job


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, daemon: DiagnosisDaemon):
        self.daemon = daemon
        super().__init__(address, _Handler)


def bind_server(config: ServeConfig, daemon: DiagnosisDaemon) -> _Server:
    """Bind the listen socket; OS-level failures become :class:`BindError`."""
    try:
        return _Server((config.host, config.port), daemon)
    except OSError as exc:
        raise BindError(
            f"cannot bind {config.host}:{config.port}: {exc}"
        ) from exc


#: ``repro serve`` exit codes (see ``docs/architecture.md``).
EXIT_OK = 0  #: clean drain
EXIT_FORCED = 1  #: drain deadline overran; deferred jobs recover on restart
EXIT_CONFIG = 2  #: configuration / generic ReproError
EXIT_BIND = 3  #: listen address could not be bound
EXIT_LOCKED = 4  #: job store is locked by another daemon


def serve(
    config: ServeConfig,
    *,
    run=execute_job,
    install_signals: bool = True,
    on_ready=None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the process exit code.

    Startup failures raise (:class:`BindError`, :class:`JournalError`);
    the CLI maps them to exit codes.  ``on_ready`` (tests) is called with
    the bound server once recovery finished and the listener is up.
    """
    plan = (
        chaos.arm(config.chaos) if config.chaos else chaos.arm_from_env()
    )
    if plan is not None:
        print(
            f"repro serve: CHAOS ARMED ({plan.spec}, seed {plan.seed}) -- "
            "faults below are injected, not real",
            file=sys.stderr,
            flush=True,
        )

    stop = threading.Event()
    sigints = {"n": 0}

    def _on_term(_signum, _frame) -> None:
        stop.set()

    def _on_int(_signum, _frame) -> None:
        sigints["n"] += 1
        if sigints["n"] >= 2:
            print("repro serve: force quit", file=sys.stderr, flush=True)
            os._exit(130)
        stop.set()

    # Signals go in *before* recovery: a replay over a large journal can
    # take a while, and a SIGTERM landing mid-recovery must drain and
    # exit instead of dying on the default handler with the store open.
    if install_signals:
        signal.signal(signal.SIGTERM, _on_term)
        signal.signal(signal.SIGINT, _on_int)

    daemon = DiagnosisDaemon(config, run=run)
    recovered = daemon.start(stop.is_set)  # JournalError when the store is locked
    if stop.is_set():
        print(
            "repro serve: stop requested during recovery; draining without "
            "serving",
            file=sys.stderr,
            flush=True,
        )
        clean = daemon.drain()
        return EXIT_OK if clean else EXIT_FORCED
    try:
        server = bind_server(config, daemon)
    except BindError:
        daemon.abort()
        raise
    host, port = server.server_address[:2]
    role_note = f", role {config.role}" if config.role != "standalone" else ""
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"(store {config.store}, {config.workers} workers, "
        f"queue depth {config.queue_depth}, "
        f"recovered {recovered} job(s){role_note})",
        flush=True,
    )

    listener = threading.Thread(
        target=server.serve_forever, name="repro-serve-listener", daemon=True
    )
    listener.start()
    if on_ready is not None:
        on_ready(server)
    try:
        stop.wait()
    finally:
        print(
            f"repro serve: draining (deadline {config.drain_seconds:g}s)",
            file=sys.stderr,
            flush=True,
        )
        clean = daemon.drain()
        server.shutdown()
        server.server_close()
        print(
            "repro serve: drained cleanly"
            if clean
            else "repro serve: drain deadline overran; "
            "in-flight jobs deferred to the next start",
            file=sys.stderr,
            flush=True,
        )
    return EXIT_OK if clean else EXIT_FORCED
