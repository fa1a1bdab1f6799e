"""Shard-aware worker executor for the diagnosis daemon.

Jobs are routed to a fixed worker slot by a stable hash of their
``(circuit, pattern_seed)`` shard key, so repeated jobs against one
device family hit the same worker instead of bouncing between cold ones.
What stays warm per shard key is held by :func:`warm_shard`: the loaded
netlist (with its fan-in cone memo and fanout-cone table), the
provisioned test set, and through them the content-keyed
``SimContext``/kernel caches.  An entry is filled by the key's first
job, never at start-up, and the least recently used key is dropped past
:data:`WARM_SHARD_LIMIT`.

The failure discipline is the campaign runner's, reused rather than
reinvented: an in-job exception is classified through the
:func:`~repro.errors.classify_cause` taxonomy, transient causes
(``crash``/``timeout``) buy seeded-backoff retries
(:func:`~repro.campaign.runner.backoff_delay`), deterministic causes fail
the job immediately, and every attempt is isolated -- one job's failure
never takes a worker down.

**The watchdog** makes the pool self-healing against the failures the
per-attempt isolation cannot catch: a worker thread that *dies* (a
``BaseException`` out of a job -- the chaos layer's
:class:`~repro.chaos.plan.WorkerDeath` models a segfault-equivalent) or
*wedges* (stuck past ``stuck_seconds`` in non-cooperative code).  Each
slot carries a heartbeat and a generation counter; the watchdog thread
requeues the victim's in-flight job under the transient taxonomy
(``crash`` for a death, ``timeout`` for a wedge), retires the old thread
by bumping the generation, and spawns a replacement on the same shard
queue.  A wedged thread that eventually wakes finds its item *abandoned*
and its generation stale, so it reports nothing and exits instead of
double-finishing the job.  ``retry_wall_seconds`` bounds the total
wall-clock a job may spend being retried and requeued before it is
terminally failed.

Lifecycle: :meth:`ShardExecutor.drain` stops workers from *starting*
queued jobs (they stay durable in the store and recover on restart) while
in-flight jobs run to completion under the drain deadline.
"""

from __future__ import annotations

import functools
import hashlib
import queue
import threading
import time
from dataclasses import dataclass

from repro import chaos
from repro.campaign.driver import provision_patterns
from repro.campaign.runner import backoff_delay
from repro.circuit.library import load_circuit
from repro.circuit.netlist import Netlist
from repro.core.budget import Budget, CancellationToken, qos_class
from repro.core.diagnose import run_method
from repro.errors import TRANSIENT_CAUSES, TrialError, classify_cause
from repro.obs.metrics import record_watchdog_requeue, record_watchdog_respawn
from repro.serve.protocol import JobSpec
from repro.sim.patterns import PatternSet
from repro.tester.noise import read_datalog

_STOP = object()


# -- warm shards -------------------------------------------------------------

#: Shard keys whose netlist and test set stay loaded.  Shard-affine
#: routing sends a key to one worker, so this covers a few keys per
#: worker at the default pool size; an evicted key reloads on its next job.
WARM_SHARD_LIMIT = 8


@functools.lru_cache(maxsize=WARM_SHARD_LIMIT)
def warm_shard(circuit: str, pattern_seed: int) -> tuple[Netlist, PatternSet]:
    """The shard key's loaded netlist and provisioned test set.

    Loaded by the key's first job, never at start-up, then shared by every
    job of the key.  A key's jobs run on one worker thread, so its
    netlist's cone memo and table are filled by one thread at a time
    except after a watchdog requeue; both are idempotent, so that race
    only repeats work.
    """
    netlist = load_circuit(circuit)
    return netlist, provision_patterns(netlist, pattern_seed)


# -- job execution (the daemon's unit of work) -------------------------------


def execute_job(spec: JobSpec, token: CancellationToken | None = None,
                degraded: bool = False):
    """Run one diagnosis job to a :class:`~repro.core.report.DiagnosisReport`.

    Mirrors the CLI ``diagnose`` path: the die is read by
    :func:`~repro.tester.noise.read_datalog` (tolerant when
    ``noise_report`` is set, strict otherwise), then diagnosed by
    :func:`~repro.core.diagnose.run_method` with the optional
    post-diagnosis oracle.  The budget comes from the job's QoS class
    (degraded under load) unless the spec carries explicit overrides;
    ``token`` keeps the run cancellable either way.  Baselines run
    ungoverned.  The netlist and test set come warm from
    :func:`warm_shard`.
    """
    netlist, patterns = warm_shard(spec.circuit, spec.pattern_seed)
    datalog, evidence, _ingest = read_datalog(spec.datalog, tolerant=spec.noise_report)
    datalog.validate_for(netlist, n_patterns=patterns.n)
    limits = (spec.deadline_seconds, spec.max_multiplets, spec.max_expansions)
    if any(limit is not None for limit in limits):
        budget = Budget.of(*limits, token=token)
    else:
        budget = qos_class(spec.qos).budget(degraded=degraded, token=token)
    return run_method(
        spec.method,
        netlist,
        patterns,
        datalog,
        budget=budget,
        raw=evidence if spec.validate else None,
    )


# -- the executor ------------------------------------------------------------


@dataclass
class _Item:
    job_id: str
    spec: JobSpec
    token: CancellationToken
    degraded: bool
    attempts_base: int = 0
    #: Last attempt number reported through ``on_running``.
    attempt: int = 0
    #: Executor-clock time of the job's very first attempt, carried
    #: across watchdog requeues so the retry wall clock is total.
    first_started: float | None = None
    #: Set by the watchdog when the job was handed to a requeued copy;
    #: the original holder must report nothing further.
    abandoned: bool = False


class _WorkerSlot:
    """One shard: a queue, the thread currently owning it, health state."""

    __slots__ = ("index", "queue", "thread", "generation", "item",
                 "started", "heartbeat")

    def __init__(self, index: int):
        self.index = index
        self.queue: queue.Queue = queue.Queue()
        self.thread: threading.Thread | None = None
        #: Bumped on every respawn; a thread whose spawn generation is
        #: stale retires itself instead of competing for the queue.
        self.generation = 0
        self.item: _Item | None = None
        self.started: float | None = None
        self.heartbeat: float | None = None


class ExecutorCallbacks:
    """What the executor tells the daemon (all called from worker threads)."""

    def on_running(self, job_id: str, attempt: int) -> None: ...

    def on_done(self, job_id: str, report) -> None: ...

    def on_failed(self, job_id: str, error: TrialError) -> None: ...

    def on_cancelled(self, job_id: str) -> None: ...

    def on_deferred(self, job_id: str) -> None:
        """A queued job left unexecuted by a drain (recovers on restart)."""

    def on_requeued(self, job_id: str, cause: str) -> None:
        """The watchdog moved a job off a dead/wedged worker."""


def shard_index(key: str, workers: int) -> int:
    """Stable shard routing (process-independent, unlike ``hash``)."""
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:4], "big") % max(1, workers)


class ShardExecutor:
    """Fixed pool of shard-affine worker threads over per-worker queues."""

    def __init__(
        self,
        callbacks: ExecutorCallbacks,
        *,
        workers: int = 2,
        retries: int = 1,
        backoff: float = 0.05,
        run=execute_job,
        sleep=time.sleep,
        clock=time.monotonic,
        stuck_seconds: float | None = None,
        watchdog_interval: float = 1.0,
        retry_wall_seconds: float | None = None,
    ):
        self._cb = callbacks
        self._workers = max(1, workers)
        self._retries = retries
        self._backoff = backoff
        self._run = run
        self._sleep = sleep
        self._clock = clock
        self._stuck_seconds = stuck_seconds
        self._watchdog_interval = watchdog_interval
        self._retry_wall_seconds = retry_wall_seconds
        self._slots = [_WorkerSlot(i) for i in range(self._workers)]
        self._draining = threading.Event()
        self._watchdog_stop = threading.Event()
        self._watchdog_thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        for slot in self._slots:
            self._spawn(slot)
        if self._watchdog_interval:
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop,
                name="repro-serve-watchdog",
                daemon=True,
            )
            self._watchdog_thread.start()

    def _spawn(self, slot: _WorkerSlot) -> None:
        with self._lock:
            slot.generation += 1
            generation = slot.generation
            thread = threading.Thread(
                target=self._worker,
                args=(slot, generation),
                name=f"repro-serve-worker-{slot.index}g{generation}",
                daemon=True,
            )
            slot.thread = thread
            slot.heartbeat = self._clock()
        thread.start()

    def alive(self) -> bool:
        """Is the pool still able to make progress?

        With the watchdog running this self-heals: a dead worker is
        replaced within one watchdog interval, so a False here means the
        watchdog itself is gone too.
        """
        with self._lock:
            threads = [slot.thread for slot in self._slots]
        return bool(threads) and all(
            t is not None and t.is_alive() for t in threads
        )

    def heartbeats(self) -> dict[int, float | None]:
        """Per-slot last-heartbeat times (introspection and tests)."""
        with self._lock:
            return {slot.index: slot.heartbeat for slot in self._slots}

    def drain(self, deadline_seconds: float, clock=time.monotonic) -> bool:
        """Stop starting queued jobs; wait for in-flight ones.

        Returns True when every worker exited within the deadline.  Queued
        jobs are reported through ``on_deferred`` and stay pending in the
        durable store.  The watchdog is stopped first so it cannot
        requeue or respawn against the shutdown.
        """
        self._watchdog_stop.set()
        if self._watchdog_thread is not None:
            self._watchdog_thread.join(1.0)
        self._draining.set()
        for slot in self._slots:
            slot.queue.put(_STOP)
        horizon = clock() + deadline_seconds
        threads = [slot.thread for slot in self._slots if slot.thread]
        for thread in threads:
            thread.join(max(0.0, horizon - clock()))
        return all(not t.is_alive() for t in threads)

    def cancel_inflight(self) -> list[str]:
        """Job ids currently executing (the drain-overrun victims)."""
        with self._lock:
            return [
                slot.item.job_id for slot in self._slots if slot.item is not None
            ]

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        job_id: str,
        spec: JobSpec,
        token: CancellationToken,
        *,
        degraded: bool = False,
    ) -> None:
        idx = shard_index(spec.shard_key, self._workers)
        self._slots[idx].queue.put(_Item(job_id, spec, token, degraded))

    def queued_jobs(self) -> int:
        """Approximate number of accepted-but-unstarted jobs."""
        return sum(slot.queue.qsize() for slot in self._slots)

    # -- the watchdog --------------------------------------------------------

    def _watchdog_loop(self) -> None:
        while not self._watchdog_stop.wait(self._watchdog_interval):
            try:
                self.watchdog_pass()
            except Exception:
                pass  # the watchdog must outlive any callback bug

    def watchdog_pass(self) -> None:
        """One detection sweep (public so tests can drive it directly)."""
        if self._draining.is_set():
            return
        now = self._clock()
        for slot in self._slots:
            self._reap(slot, now)

    def _reap(self, slot: _WorkerSlot, now: float) -> None:
        with self._lock:
            thread = slot.thread
            item = slot.item
            started = slot.started
            dead = thread is None or not thread.is_alive()
            wedged = (
                not dead
                and item is not None
                and started is not None
                and self._stuck_seconds is not None
                and now - started >= self._stuck_seconds
            )
            if not dead and not wedged:
                return
            victim: _Item | None = None
            if item is not None and not item.abandoned:
                item.abandoned = True
                victim = item
            slot.item = None
            slot.started = None
        if victim is not None:
            cause = "crash" if dead else "timeout"
            self._requeue(slot, victim, cause)
        self._spawn(slot)  # retires the old thread via the generation bump
        record_watchdog_respawn()

    def _wall_exhausted(self, item: _Item) -> bool:
        return (
            self._retry_wall_seconds is not None
            and item.first_started is not None
            and self._clock() - item.first_started >= self._retry_wall_seconds
        )

    def _requeue(self, slot: _WorkerSlot, item: _Item, cause: str) -> None:
        """Give a victim job back to its shard queue -- or fail it if the
        total-retry wall clock is spent."""
        if self._wall_exhausted(item):
            try:
                self._cb.on_failed(
                    item.job_id,
                    TrialError(
                        f"job {item.job_id} abandoned by the watchdog "
                        f"({cause} worker) with the "
                        f"{self._retry_wall_seconds:g}s total-retry wall "
                        "clock exhausted",
                        circuit=item.spec.circuit,
                        cause=cause,
                        attempts=max(1, item.attempt),
                    ),
                )
            except Exception:
                pass
            return
        record_watchdog_requeue(cause)
        try:
            self._cb.on_requeued(item.job_id, cause)
        except Exception:
            pass
        slot.queue.put(
            _Item(
                item.job_id,
                item.spec,
                item.token,
                item.degraded,
                attempts_base=max(item.attempt, item.attempts_base),
                first_started=item.first_started,
            )
        )

    # -- worker loop ---------------------------------------------------------

    def _worker(self, slot: _WorkerSlot, generation: int) -> None:
        q = slot.queue
        while True:
            if slot.generation != generation:
                return  # retired by the watchdog; a replacement owns the queue
            item = q.get()
            if item is _STOP:
                break
            slot.heartbeat = self._clock()
            if self._draining.is_set():
                self._cb.on_deferred(item.job_id)
                continue
            self._execute(slot, item)
            slot.heartbeat = self._clock()
        # Drain leftovers so the daemon can account for every deferred job.
        while True:
            try:
                item = q.get_nowait()
            except queue.Empty:
                break
            if item is not _STOP:
                self._cb.on_deferred(item.job_id)

    def _execute(self, slot: _WorkerSlot, item: _Item) -> None:
        if item.token.cancelled:
            self._cb.on_cancelled(item.job_id)
            return
        with self._lock:
            slot.item = item
            slot.started = self._clock()
        try:
            self._execute_attempts(item)
        except Exception as exc:  # callback bug: isolate, don't kill the worker
            try:
                self._cb.on_failed(
                    item.job_id,
                    TrialError(
                        f"job {item.job_id} executor error: {exc}",
                        circuit=item.spec.circuit,
                        cause="exception",
                    ),
                )
            except Exception:
                pass
        # Deliberately NOT a ``finally``: a ``BaseException`` (an injected
        # WorkerDeath, interpreter teardown) must leave ``slot.item`` in
        # place so the watchdog can see what the dying thread was holding.
        with self._lock:
            slot.item = None
            slot.started = None

    def _execute_attempts(self, item: _Item) -> None:
        attempt = item.attempts_base
        while True:
            attempt += 1
            item.attempt = attempt
            if item.first_started is None:
                item.first_started = self._clock()
            self._cb.on_running(item.job_id, attempt)
            chaos.checkpoint("executor.job")
            try:
                report = self._run(item.spec, item.token, item.degraded)
            except Exception as exc:
                cause = classify_cause(exc)
                transient = cause in TRANSIENT_CAUSES
                if (
                    transient
                    and attempt <= item.attempts_base + self._retries
                    and not self._wall_exhausted(item)
                ):
                    seed = int(item.spec.fingerprint()[:8], 16)
                    self._sleep(
                        backoff_delay(self._backoff, attempt, seed)
                    )
                    continue
                if item.abandoned:
                    return  # a requeued copy owns the job's terminal state
                self._cb.on_failed(
                    item.job_id,
                    TrialError(
                        f"job {item.job_id} failed: {exc}",
                        circuit=item.spec.circuit,
                        cause=cause,
                        attempts=attempt,
                    ),
                )
                return
            if item.abandoned:
                # The watchdog declared this worker wedged and requeued
                # the job; whatever this late result is, it is not ours
                # to report.
                return
            if item.token.cancelled:
                # The run returned a partial report because the token
                # tripped mid-flight; whoever cancelled decides whether
                # that means "cancelled" or "defer to restart".
                self._cb.on_cancelled(item.job_id)
                return
            self._cb.on_done(item.job_id, report)
            return
