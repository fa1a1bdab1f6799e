"""The cluster coordinator: admission, routing, leases, failover.

Transport-free like the worker daemon: :meth:`Coordinator.handle` takes
``(method, path, body)`` and returns a
:class:`~repro.serve.app.Response`, so every failover behavior is
testable with a fake transport and a manual clock.  The HTTP surface is
the *same* job protocol the standalone daemon serves, answered by the
same route table (:func:`~repro.serve.app.handle_request`) -- a client
does not know (or care) whether it is talking to one node or a fabric.

The control loop is two periodic passes, both drivable by hand in tests
(set the intervals to 0 and call :meth:`heartbeat_pass` /
:meth:`pump_pass` directly):

- **heartbeat**: poll every configured worker's ``/healthz`` and feed
  the membership state machine; eviction and rejoin both come from here.
- **pump**: poll every leased job's holder (completion copies the
  worker's canonical report into the coordinator's store; a healthy
  answer renews the lease; a 404 or a dead/expired holder triggers a
  takeover), then dispatch pending jobs to their rendezvous-ranked node
  under a journaled lease.

Dispatch discipline: the lease grant is journaled *before* the dispatch
request leaves, the job is marked ``running`` only on the worker's
acknowledgement, and a failed dispatch releases the lease and backs off
with the same seeded :func:`~repro.campaign.runner.backoff_delay` the
executor uses, bounded in total by ``retry_wall_seconds``.  Because job
ids are content fingerprints and the dispatch is an idempotent
resubmission, a lost acknowledgement (``drop_response``) re-dispatches
harmlessly: the worker answers 200 with the job it already has.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro import chaos
from repro.campaign.runner import backoff_delay
from repro.errors import BindError, ServeError, TrialError
from repro.obs.metrics import (
    record_admission_rejected,
    record_dispatch_retry,
    record_drain,
    record_job_transition,
    record_lease_takeover,
    record_recovery,
    set_cluster_nodes,
    set_queue_depth,
)
from repro.serve.app import (
    EXIT_FORCED,
    EXIT_OK,
    Response,
    bind_server,
    handle_request,
)
from repro.serve.cluster.client import NodeUnreachable, WorkerClient
from repro.serve.cluster.lease import LeaseTable
from repro.serve.cluster.membership import (
    NODE_DEAD,
    Membership,
    rendezvous_order,
)
from repro.serve.protocol import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_RUNNING,
    STATE_SUBMITTED,
    JobSpec,
)
from repro.serve.store import JobStore


def parse_worker_specs(specs) -> dict[str, str]:
    """``name=url`` or bare-``url`` strings -> ordered ``{name: url}``.

    Bare URLs are auto-named ``w0``, ``w1``... in declaration order.
    Duplicate names (or an empty list) are configuration errors.
    """
    nodes: dict[str, str] = {}
    for index, text in enumerate(specs):
        text = text.strip()
        if not text:
            continue
        if "=" in text and not text.split("=", 1)[0].startswith("http"):
            name, _, url = text.partition("=")
            name = name.strip()
            url = url.strip()
        else:
            name, url = f"w{index}", text
        if not url.startswith(("http://", "https://")):
            raise ServeError(
                f"worker {name!r}: url must start with http:// or "
                f"https:// (got {url!r})"
            )
        if name in nodes:
            raise ServeError(f"duplicate worker name {name!r}")
        nodes[name] = url
    if not nodes:
        raise ServeError(
            "coordinator needs at least one worker node (--worker URL); "
            "refusing to start a fabric that can execute nothing"
        )
    return nodes


@dataclass
class CoordinatorConfig:
    """Everything ``repro serve --role coordinator`` needs."""

    store: str | Path = "coordinator.jsonl"
    host: str = "127.0.0.1"
    port: int = 8765
    #: Worker node specs (``name=url`` or bare url); must be non-empty.
    workers: tuple[str, ...] = ()
    #: Seconds between ``/healthz`` polls (0 disables the thread: tests
    #: drive :meth:`Coordinator.heartbeat_pass` manually).
    heartbeat_interval: float = 1.0
    #: Consecutive heartbeat failures before a node is declared dead.
    max_failures: int = 3
    #: Seconds a dispatched job may go unrenewed before takeover.
    lease_seconds: float = 15.0
    #: Seconds between dispatch/poll pump passes (0 disables the thread).
    pump_interval: float = 0.25
    #: Seeded backoff base for dispatch retries and takeovers.
    backoff: float = 0.1
    #: Total wall-clock a job may spend pending/retrying before it is
    #: terminally failed (None: unbounded).
    retry_wall_seconds: float | None = 600.0
    #: Admission floor: below this many routable nodes new submissions
    #: get 503 + Retry-After instead of queueing into a dead fabric.
    min_live: int = 1
    #: Admission bound on not-yet-finished jobs (pending + leased).
    queue_depth: int = 64
    drain_seconds: float = 5.0
    request_timeout: float = 5.0
    fsync: bool = True
    compact_bytes: int | None = 4 << 20
    chaos: str | None = None


@dataclass
class _Pending:
    """One job waiting (or backing off) for dispatch."""

    attempt: int
    not_before: float
    first_queued: float
    #: Previous holder to rank last on re-dispatch (takeover hygiene).
    avoid: str | None = None


class Coordinator:
    """Transport-free coordinator core: store + membership + lease pump."""

    role = "coordinator"

    def __init__(
        self,
        config: CoordinatorConfig,
        *,
        client: WorkerClient | None = None,
        clock=time.monotonic,
    ):
        self.config = config
        self.nodes = parse_worker_specs(config.workers)
        self._clock = clock
        self.membership = Membership(
            self.nodes, max_failures=config.max_failures
        )
        self.client = client or WorkerClient(timeout=config.request_timeout)
        self.store = JobStore(
            config.store,
            fsync=config.fsync,
            compact_bytes=config.compact_bytes,
        )
        self.leases = LeaseTable(
            self.store, lease_seconds=config.lease_seconds, clock=clock
        )
        self._pending: dict[str, _Pending] = {}
        self._lock = threading.RLock()
        self._started = False
        self._draining = False
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> int:
        """Open the store, re-adopt journaled leases, queue the rest.

        A recovered job *with* an unreleased lease is not re-dispatched:
        its old holder may be happily executing (or already done), so the
        lease is re-armed against the live clock and the pump polls the
        holder first -- completion is harvested, a 404 or silence becomes
        an ordinary takeover.  Returns the number of recovered jobs.
        """
        recovered = self.store.open()
        adopted = 0
        images = self.store.lease_images()
        for job_id, image in images.items():
            job = self.store.get(job_id)
            if job is None or job.terminal:
                # A release record lost to a torn tail; harmless.
                self.store.release_lease(job_id, "stale")
                continue
            self.leases.adopt(
                job_id, image["node"], int(image.get("attempt", 1))
            )
            adopted += 1
        now = self._clock()
        with self._lock:
            for job in self.store.jobs():
                if job.terminal or self.leases.get(job.job_id) is not None:
                    continue
                self._pending[job.job_id] = _Pending(
                    attempt=1, not_before=0.0, first_queued=now
                )
        record_recovery(len(recovered))
        self._started = True
        self.update_gauges()
        if self.config.heartbeat_interval > 0:
            self._spawn_loop(
                "repro-cluster-heartbeat",
                self.config.heartbeat_interval,
                self.heartbeat_pass,
            )
        if self.config.pump_interval > 0:
            self._spawn_loop(
                "repro-cluster-pump", self.config.pump_interval, self.pump_pass
            )
        return len(recovered)

    def _spawn_loop(self, name: str, interval: float, fn) -> None:
        def loop() -> None:
            while not self._stop.wait(interval):
                try:
                    fn()
                except Exception:
                    pass  # the control loops must outlive any one bad pass

        thread = threading.Thread(target=loop, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def drain(self) -> bool:
        """Stop admissions and the control loops; leases stay journaled.

        Always clean: dispatched jobs keep running on their workers and
        are re-adopted by the next coordinator; pending jobs are durable
        in the store and recover as pending.
        """
        with self._lock:
            self._draining = True
        self._stop.set()
        for thread in self._threads:
            thread.join(self.config.drain_seconds)
        record_drain("clean")
        self.store.note_drain(True)
        self.store.close()
        return True

    def abort(self) -> None:
        """Release resources after a failed startup."""
        self._stop.set()
        self.store.close()

    # -- admission -----------------------------------------------------------

    def _capacity_retry_after(self) -> int:
        # Long enough for a worker restart to complete one full
        # eviction/rejoin cycle of heartbeats.
        return max(
            1,
            int(
                math.ceil(
                    max(1.0, self.config.heartbeat_interval)
                    * self.config.max_failures
                )
            ),
        )

    def submit(self, spec: JobSpec) -> Response:
        with self._lock:
            if self._draining:
                record_admission_rejected("draining")
                retry_after = max(
                    1, int(math.ceil(self.config.drain_seconds))
                )
                return Response.json(
                    503,
                    {
                        "error": "coordinator is draining; "
                        "resubmit after restart",
                        "retry_after_seconds": retry_after,
                    },
                    retry_after=retry_after,
                )
            backlog = len(self._pending)
        live = len(self.membership.live())
        if live < self.config.min_live:
            record_admission_rejected("no_capacity")
            retry_after = self._capacity_retry_after()
            return Response.json(
                503,
                {
                    "error": (
                        f"cluster below capacity floor "
                        f"({live} live node(s) < {self.config.min_live})"
                    ),
                    "retry_after_seconds": retry_after,
                },
                retry_after=retry_after,
            )
        if backlog + self.leases.count() >= self.config.queue_depth:
            record_admission_rejected("saturated")
            retry_after = max(
                1, int(math.ceil(self.config.lease_seconds))
            )
            return Response.json(
                429,
                {
                    "error": "admission queue is full",
                    "queue_depth": self.config.queue_depth,
                    "retry_after_seconds": retry_after,
                },
                retry_after=retry_after,
            )
        job, created = self.store.submit(spec)
        if not created:
            return Response.json(200, job.status_dict())
        record_job_transition(STATE_SUBMITTED)
        with self._lock:
            self._pending[job.job_id] = _Pending(
                attempt=1, not_before=0.0, first_queued=self._clock()
            )
        self.update_gauges()
        return Response.json(202, job.status_dict())

    def cancel(self, job_id: str) -> Response:
        job = self.store.get(job_id)
        if job is None:
            return Response.json(404, {"error": f"unknown job {job_id!r}"})
        if job.terminal:
            return Response.json(
                409,
                {"error": f"job is already {job.state}", "state": job.state},
            )
        lease = self.leases.get(job_id)
        if lease is not None:
            try:
                self.client.cancel(self.nodes[lease.node], job_id)
            except NodeUnreachable:
                pass  # the worker will abandon the orphan on its own
            self.leases.release(job_id, "cancelled")
        with self._lock:
            self._pending.pop(job_id, None)
        self.store.mark_cancelled(job_id)
        record_job_transition(STATE_CANCELLED)
        self.update_gauges()
        return Response.json(202, self.store.get(job_id).status_dict())

    # -- the control loops ---------------------------------------------------

    def heartbeat_pass(self) -> None:
        """Poll every node's ``/healthz`` (dead ones too: that is rejoin)."""
        for name, url in self.nodes.items():
            try:
                status, _ = self.client.health(url)
            except NodeUnreachable:
                self.membership.note_failure(name)
                continue
            if status == 200:
                self.membership.note_success(name)
            else:
                self.membership.note_failure(name)
        self.update_gauges()

    def pump_pass(self) -> None:
        """One scheduling sweep: harvest/renew leases, then dispatch."""
        now = self._clock()
        self._poll_leases(now)
        self._dispatch_pending(self._clock())
        self.update_gauges()

    def route(self, shard_key: str, avoid: str | None = None) -> list[str]:
        """Routable nodes ranked for ``shard_key``; ``avoid`` (the lease's
        previous holder) is demoted to last so a takeover lands elsewhere
        whenever anywhere else exists."""
        order = rendezvous_order(shard_key, self.membership.live())
        if avoid is not None and avoid in order and len(order) > 1:
            order.remove(avoid)
            order.append(avoid)
        return order

    def _poll_leases(self, now: float) -> None:
        for lease in self.leases.snapshot():
            job = self.store.get(lease.job_id)
            if job is None or job.terminal:
                self.leases.release(lease.job_id, "stale")
                continue
            if self.membership.state(lease.node) == NODE_DEAD:
                self._takeover(lease, "dead")
                continue
            if lease.expires_at <= now:
                self._takeover(lease, "expired")
                continue
            try:
                status, payload = self.client.poll(
                    self.nodes[lease.node], lease.job_id
                )
            except NodeUnreachable:
                # Unreachability is the heartbeat's eviction signal; the
                # lease itself only falls to death or expiry, so one
                # dropped poll of a healthy node changes nothing.
                self.membership.note_failure(lease.node)
                continue
            if status == 404:
                # The holder answered and does not know the job (e.g. it
                # restarted onto an empty store): takeover immediately.
                self._takeover(lease, "missing")
                continue
            if status != 200:
                continue  # worker-side hiccup; expiry is the backstop
            self.membership.note_success(lease.node)
            self._harvest(lease, payload)

    def _harvest(self, lease, payload: dict) -> None:
        """Fold one healthy poll answer into the coordinator's store."""
        state = str(payload.get("state", ""))
        if state == STATE_DONE:
            report = payload.get("report")
            self.store.mark_done(
                lease.job_id, report if isinstance(report, dict) else {}
            )
            record_job_transition(STATE_DONE)
            self.leases.release(lease.job_id, "done")
            self.store.maybe_compact()
        elif state == STATE_FAILED:
            error = payload.get("error")
            self.store.mark_failed(
                lease.job_id,
                error
                if isinstance(error, dict)
                else {"error": "worker reported failure without detail"},
            )
            record_job_transition(STATE_FAILED)
            self.leases.release(lease.job_id, "failed")
            self.store.maybe_compact()
        elif state == STATE_CANCELLED:
            self.store.mark_cancelled(lease.job_id)
            record_job_transition(STATE_CANCELLED)
            self.leases.release(lease.job_id, "cancelled")
        else:
            # submitted/running on the worker: healthy progress.
            if (
                state == STATE_RUNNING
                and self.store.get(lease.job_id).state != STATE_RUNNING
            ):
                self.store.mark_running(lease.job_id, lease.attempt)
                record_job_transition(STATE_RUNNING)
            self.leases.renew(lease.job_id)

    def _takeover(self, lease, cause: str) -> None:
        """Release a lost lease and put the job back in the pending pool."""
        record_lease_takeover(cause)
        self.leases.release(lease.job_id, f"takeover_{cause}")
        self.store.mark_resubmitted(lease.job_id)
        seed = int(
            self.store.get(lease.job_id).spec.fingerprint()[:8], 16
        )
        with self._lock:
            self._pending[lease.job_id] = _Pending(
                attempt=lease.attempt + 1,
                not_before=self._clock()
                + backoff_delay(self.config.backoff, lease.attempt, seed),
                first_queued=self._clock(),
                avoid=lease.node,
            )

    def _dispatch_pending(self, now: float) -> None:
        with self._lock:
            batch = list(self._pending.items())
        for job_id, pending in batch:
            if pending.not_before > now:
                continue
            job = self.store.get(job_id)
            if job is None or job.terminal:
                with self._lock:
                    self._pending.pop(job_id, None)
                continue
            if (
                self.config.retry_wall_seconds is not None
                and now - pending.first_queued
                >= self.config.retry_wall_seconds
            ):
                self._fail_exhausted(job, pending)
                continue
            candidates = self.route(job.spec.shard_key, avoid=pending.avoid)
            if not candidates:
                continue  # whole fabric dead; stay pending, readiness flips
            self._dispatch(job, pending, candidates[0], now)

    def _fail_exhausted(self, job, pending: _Pending) -> None:
        self.store.mark_failed(
            job.job_id,
            TrialError(
                f"job {job.job_id} undispatchable for "
                f"{self.config.retry_wall_seconds:g}s "
                f"(last attempt {pending.attempt})",
                circuit=job.spec.circuit,
                cause="timeout",
                attempts=pending.attempt,
            ).to_dict(),
        )
        record_job_transition(STATE_FAILED)
        with self._lock:
            self._pending.pop(job.job_id, None)

    def _dispatch(self, job, pending: _Pending, node: str, now: float) -> None:
        """Grant-then-dispatch; failure releases the lease and backs off."""
        self.leases.grant(job.job_id, node, pending.attempt)
        seed = int(job.spec.fingerprint()[:8], 16)
        try:
            status, _payload = self.client.submit(
                self.nodes[node], job.spec.to_dict()
            )
        except NodeUnreachable:
            self.membership.note_failure(node)
            self._dispatch_failed(job.job_id, pending, node, seed, now)
            return
        if status in (200, 202):
            # 202: freshly queued on the worker.  200: the worker already
            # had this job (a lost acknowledgement re-sent) -- equally
            # fine, the fingerprint made the resubmission idempotent.
            self.membership.note_success(node)
            self.store.mark_running(job.job_id, pending.attempt)
            record_job_transition(STATE_RUNNING)
            with self._lock:
                self._pending.pop(job.job_id, None)
        else:
            # The worker answered but refused (draining, saturated, ...):
            # same shard node is usually right once it recovers, so back
            # off without demoting it.
            self._dispatch_failed(job.job_id, pending, None, seed, now)

    def _dispatch_failed(
        self,
        job_id: str,
        pending: _Pending,
        avoid: str | None,
        seed: int,
        now: float,
    ) -> None:
        self.leases.release(job_id, "dispatch_failed")
        record_dispatch_retry()
        with self._lock:
            current = self._pending.get(job_id)
            if current is None:
                return  # cancelled while dispatching
            current.attempt = pending.attempt + 1
            current.not_before = now + backoff_delay(
                self.config.backoff, pending.attempt, seed
            )
            if avoid is not None:
                current.avoid = avoid

    # -- health / status -----------------------------------------------------

    def readiness(self) -> tuple[bool, list[str]]:
        reasons: list[str] = []
        if not self._started:
            reasons.append("not started")
        with self._lock:
            if self._draining:
                reasons.append("draining")
        if not self.store.probe_writable():
            reasons.append("job store is not writable")
        if self.store.last_error:
            reasons.append(
                f"unrecovered store write error: {self.store.last_error}"
            )
        live = len(self.membership.live())
        if live < self.config.min_live:
            reasons.append(
                f"cluster below capacity floor "
                f"({live} live node(s) < {self.config.min_live})"
            )
        return (not reasons), reasons

    def cluster_status(self) -> dict:
        now = self._clock()
        with self._lock:
            pending = sorted(self._pending)
            draining = self._draining
        return {
            "role": self.role,
            "nodes": [
                {**image, "url": self.nodes[image["name"]]}
                for image in self.membership.snapshot()
            ],
            "leases": [
                {
                    "id": lease.job_id,
                    "node": lease.node,
                    "attempt": lease.attempt,
                    "expires_in_seconds": round(
                        max(0.0, lease.expires_at - now), 3
                    ),
                    "adopted": lease.adopted,
                }
                for lease in self.leases.snapshot()
            ],
            "pending": pending,
            "counts": self.store.counts(),
            "draining": draining,
        }

    def update_gauges(self) -> None:
        alive, suspect, dead = self.membership.counts()
        set_cluster_nodes(alive, suspect, dead)
        with self._lock:
            set_queue_depth(len(self._pending), self.leases.count())

    # -- the request surface -------------------------------------------------

    def handle(
        self, method: str, path: str, body: bytes | None = None
    ) -> Response:
        """Same route table the worker daemon serves."""
        return handle_request(self, method, path, body)


# -- process entrypoint ------------------------------------------------------


def serve_coordinator(
    config: CoordinatorConfig,
    *,
    install_signals: bool = True,
    on_ready=None,
) -> int:
    """Run a coordinator until SIGTERM/SIGINT; returns the exit code.

    Mirrors :func:`repro.serve.app.serve`: chaos arming, signals before
    recovery, ``BindError``/``JournalError`` raised for the CLI to map
    to exit codes, and a banner the tooling can parse.
    """
    plan = chaos.arm(config.chaos) if config.chaos else chaos.arm_from_env()
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

    if install_signals:
        signal.signal(signal.SIGTERM, _on_term)
        signal.signal(signal.SIGINT, _on_int)

    coordinator = Coordinator(config)
    recovered = coordinator.start()  # JournalError when the store is locked
    if stop.is_set():
        coordinator.drain()
        return EXIT_OK
    try:
        server = bind_server(config, coordinator)
    except BindError:
        coordinator.abort()
        raise
    host, port = server.server_address[:2]
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"(coordinator over {len(coordinator.nodes)} worker node(s), "
        f"store {config.store}, recovered {recovered} job(s))",
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
            "repro serve: coordinator draining "
            "(leases stay journaled; workers keep executing)",
            file=sys.stderr,
            flush=True,
        )
        clean = coordinator.drain()
        server.shutdown()
        server.server_close()
    return EXIT_OK if clean else EXIT_FORCED
