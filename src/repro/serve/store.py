"""Durable job store: the daemon's crash-safe source of truth.

Layered on the campaign journal's append-only JSONL discipline
(:mod:`repro.campaign.journal`): every job submission and every state
transition is one fsync'd JSON line, so the store's in-memory image can
be reconstructed exactly by replaying the file.  ``kill -9`` at any
instant loses at most the record being written (the torn tail is dropped
on reopen), and a job whose terminal record never made it to disk is
simply still ``submitted``/``running`` on replay -- :meth:`JobStore.open`
resets such jobs to ``submitted`` and hands them back for re-execution.

Record schema (one object per line)::

    {"kind": "header", "v": 1, "store": "jobs"}
    {"kind": "job",    "v": 1, "id": "j...", "fingerprint": "...",
     "degraded": false, "spec": {...}}
    {"kind": "state",  "v": 1, "id": "j...", "state": "running",
     "attempts": 1}                       # + "report" on done,
                                          #   "error" on failed,
                                          #   "recovered" on replay resets
    {"kind": "lease",  "v": 1, "id": "j...", "op": "grant",
     "node": "w0", "attempt": 2}          # coordinator dispatch leases;
    {"kind": "lease",  "v": 1, "id": "j...", "op": "release",
     "node": "w0", "cause": "done"}       # replay keeps only unreleased
                                          # grants (the live lease table)

The lease records are the cluster coordinator's durable lease table:
a grant is journaled *before* the job is dispatched to a worker node, so
a coordinator restart knows exactly which node may still be executing
which job and can re-adopt (poll the old holder) instead of blindly
re-dispatching.  Expiry is never journaled -- it is re-armed against the
live clock on every open -- because a wall-clock deadline written before
a crash says nothing trustworthy after one.

The advisory ``fcntl`` lock taken on open makes a second daemon on the
same store path fail fast with :class:`~repro.errors.JournalError`
instead of interleaving journals.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro import chaos
from repro.campaign.journal import JsonlAppender, load_jsonl
from repro.errors import JournalError, ServeError, classify_cause
from repro.obs.metrics import record_store_compaction, record_store_error
from repro.serve.protocol import (
    JOB_STATES,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_RUNNING,
    STATE_SUBMITTED,
    TERMINAL_STATES,
    JobSpec,
    job_id_for,
)

SCHEMA_VERSION = 1


class StoredJob:
    """One job's current image (spec + mutable lifecycle state)."""

    __slots__ = (
        "job_id",
        "spec",
        "state",
        "attempts",
        "degraded",
        "recovered",
        "report",
        "error",
    )

    def __init__(self, job_id: str, spec: JobSpec, *, degraded: bool = False):
        self.job_id = job_id
        self.spec = spec
        self.state = STATE_SUBMITTED
        self.attempts = 0
        self.degraded = degraded
        #: True when this job was re-enqueued by crash recovery.
        self.recovered = False
        #: Canonical report dict (see :mod:`repro.serve.protocol`) once done.
        self.report: dict | None = None
        #: :class:`~repro.errors.TrialError`-shaped dict once failed.
        self.error: dict | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_dict(self, *, include_report: bool = True) -> dict:
        """The job as served by ``GET /jobs/<id>``."""
        payload: dict = {
            "id": self.job_id,
            "state": self.state,
            "circuit": self.spec.circuit,
            "method": self.spec.method,
            "qos": self.spec.qos,
            "attempts": self.attempts,
        }
        if self.degraded:
            payload["degraded"] = True
        if self.recovered:
            payload["recovered"] = True
        if include_report and self.report is not None:
            payload["report"] = self.report
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobStore:
    """Append-only journal + in-memory index over the daemon's jobs.

    Thread-safe: worker threads record transitions while HTTP threads
    submit and read.  Every mutation appends its journal record *before*
    updating the in-memory image, so an acknowledged transition is always
    recoverable.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: bool = True,
        compact_bytes: int | None = None,
        compact_age_seconds: float | None = None,
        clock=time.monotonic,
    ):
        self.path = Path(path)
        self._writer = JsonlAppender(path, fsync=fsync, chaos_site="store")
        self._jobs: dict[str, StoredJob] = {}
        self._by_fingerprint: dict[str, str] = {}
        #: Durable lease table: job id -> {"node", "attempt"} for every
        #: journaled grant without a matching release (coordinator role).
        self._leases: dict[str, dict] = {}
        self._lock = threading.RLock()
        #: Notified, under :attr:`_lock`, whenever a job becomes terminal.
        self._settled = threading.Condition(self._lock)
        self._clock = clock
        #: Compaction triggers: journal size floor and/or store age.  Both
        #: ``None`` (the default) disables automatic compaction entirely.
        self.compact_bytes = compact_bytes
        self.compact_age_seconds = compact_age_seconds
        #: Human-readable description of the last store I/O failure that
        #: has not been followed by a successful append; ``/healthz``
        #: surfaces it and goes unhealthy while it is set.
        self.last_error: str | None = None
        self._total_records = 0  # journal lines (live + superseded)
        self._last_compact = clock()

    def _tmp_path(self) -> Path:
        return self.path.with_name(self.path.name + ".compact")

    def _append(self, record: dict) -> None:
        """Journal one record, tracking write health.

        An ``OSError`` out of the appender (disk full, dying device,
        injected chaos) is classified, counted, remembered in
        :attr:`last_error`, and re-raised as :class:`JournalError`; a
        successful append clears the error -- the store has recovered.
        """
        try:
            self._writer.append(record)
        except JournalError:
            record_store_error("append")
            raise
        except OSError as exc:
            self.last_error = (
                f"journal append failed [{classify_cause(exc)}]: {exc}"
            )
            record_store_error("append")
            raise JournalError(
                f"{self.path}: journal append failed: {exc}"
            ) from exc
        else:
            self.last_error = None
            self._total_records += 1

    # -- lifecycle -----------------------------------------------------------

    def open(self, *, recover: bool = True) -> list[StoredJob]:
        """Lock, replay, and return the jobs needing (re-)execution.

        Jobs journaled as ``submitted`` or ``running`` did not reach a
        terminal state before the previous process died; they are reset
        to ``submitted`` (with a journaled ``recovered`` marker) and
        returned for re-enqueueing, oldest first.  ``recover=False``
        (offline tooling, e.g. ``repro store compact``) replays without
        resetting, so inspection does not mutate the journal.

        A stray ``<path>.compact`` temporary means the previous process
        died mid-compaction *before* the atomic rename committed; the
        main journal is still the authority and the temporary is
        discarded.
        """
        with self._lock:
            stale = self._tmp_path()
            if stale.exists():
                try:
                    stale.unlink()
                except OSError as exc:
                    raise JournalError(
                        f"{stale}: cannot discard interrupted compaction "
                        f"temporary: {exc}"
                    ) from exc
            self._writer.open()  # takes the advisory lock, drops torn tail
            try:
                self._replay()
            except Exception:
                self._writer.close()
                raise
            if not self._jobs and self._writer.is_empty():
                self._append(
                    {"kind": "header", "v": SCHEMA_VERSION, "store": "jobs"}
                )
            recovered: list[StoredJob] = []
            if not recover:
                return recovered
            for job in self._jobs.values():
                if job.terminal:
                    continue
                job.state = STATE_SUBMITTED
                job.recovered = True
                self._append(
                    {
                        "kind": "state",
                        "v": SCHEMA_VERSION,
                        "id": job.job_id,
                        "state": STATE_SUBMITTED,
                        "recovered": True,
                    }
                )
                recovered.append(job)
            return recovered

    def close(self) -> None:
        with self._lock:
            self._writer.close()

    def probe_writable(self) -> bool:
        """Can the journal still take appends?  (The readiness check.)

        Probes the path itself rather than trusting the open handle: a
        deleted or remounted-read-only store directory must flip
        readiness even though the old descriptor keeps accepting writes.
        """
        try:
            if not self.path.parent.exists():
                return False
            with self.path.open("a", encoding="utf-8"):
                pass
            return self._writer.is_open
        except OSError as exc:
            # Classified and remembered, never silently swallowed: the
            # unreadiness cause shows up in /healthz and the metrics.
            self.last_error = (
                f"readiness probe failed [{classify_cause(exc)}]: {exc}"
            )
            record_store_error("probe")
            return False

    def _replay(self) -> None:
        records = load_jsonl(self.path)
        self._total_records = len(records)
        for lineno, payload in records:
            chaos.checkpoint("store.replay")
            kind = payload.get("kind")
            if kind == "job":
                try:
                    spec = JobSpec.from_dict(payload.get("spec"))
                    job_id = str(payload["id"])
                except (KeyError, ServeError) as exc:
                    raise JournalError(
                        f"{self.path}:{lineno}: malformed job record: {exc}"
                    ) from exc
                job = StoredJob(
                    job_id, spec, degraded=bool(payload.get("degraded", False))
                )
                self._jobs[job_id] = job
                self._by_fingerprint[spec.fingerprint()] = job_id
            elif kind == "state":
                job = self._jobs.get(str(payload.get("id", "")))
                if job is None:
                    continue  # state for a job whose record was torn away
                state = str(payload.get("state", ""))
                if state not in JOB_STATES:
                    raise JournalError(
                        f"{self.path}:{lineno}: unknown job state {state!r}"
                    )
                job.state = state
                job.attempts = int(payload.get("attempts", job.attempts))
                job.recovered = bool(payload.get("recovered", False))
                if state == STATE_DONE:
                    report = payload.get("report")
                    job.report = report if isinstance(report, dict) else None
                if state == STATE_FAILED:
                    error = payload.get("error")
                    job.error = error if isinstance(error, dict) else None
            elif kind == "lease":
                job_id = str(payload.get("id", ""))
                if job_id not in self._jobs:
                    continue  # lease for a job whose record was torn away
                op = str(payload.get("op", ""))
                if op == "grant":
                    self._leases[job_id] = {
                        "node": str(payload.get("node", "")),
                        "attempt": int(payload.get("attempt", 1)),
                    }
                elif op == "release":
                    self._leases.pop(job_id, None)
                else:
                    raise JournalError(
                        f"{self.path}:{lineno}: unknown lease op {op!r}"
                    )
            # Unknown kinds (and the header) are skipped, not fatal.

    # -- submissions ---------------------------------------------------------

    def submit(self, spec: JobSpec, *, degraded: bool = False) -> tuple[StoredJob, bool]:
        """Admit a job; returns ``(job, created)``.

        Idempotent by fingerprint: an identical spec maps onto the
        existing job (whatever its state) and nothing is journaled.
        """
        with self._lock:
            existing = self._by_fingerprint.get(spec.fingerprint())
            if existing is not None:
                return self._jobs[existing], False
            job = StoredJob(job_id_for(spec), spec, degraded=degraded)
            self._append(
                {
                    "kind": "job",
                    "v": SCHEMA_VERSION,
                    "id": job.job_id,
                    "fingerprint": spec.fingerprint(),
                    "degraded": degraded,
                    "spec": spec.to_dict(),
                }
            )
            self._jobs[job.job_id] = job
            self._by_fingerprint[spec.fingerprint()] = job.job_id
            return job, True

    # -- transitions ---------------------------------------------------------

    def _transition(self, job_id: str, state: str, **extra) -> StoredJob:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServeError(f"unknown job {job_id!r}")
            if job.terminal:
                return job  # terminal states are sticky; duplicate marks no-op
            record = {
                "kind": "state",
                "v": SCHEMA_VERSION,
                "id": job_id,
                "state": state,
            }
            record.update(extra)
            self._append(record)
            # The report or error goes in before the state, in the same
            # locked step, so no reader sees a terminal state without it.
            job.report = extra.get("report")
            job.error = extra.get("error")
            job.state = state
            if "attempts" in extra:
                job.attempts = int(extra["attempts"])
            if job.terminal:
                self._settled.notify_all()
            return job

    def mark_running(self, job_id: str, attempt: int) -> StoredJob:
        return self._transition(job_id, STATE_RUNNING, attempts=attempt)

    def mark_done(self, job_id: str, report: dict) -> StoredJob:
        return self._transition(job_id, STATE_DONE, report=report)

    def mark_failed(self, job_id: str, error: dict) -> StoredJob:
        return self._transition(job_id, STATE_FAILED, error=error)

    def mark_cancelled(self, job_id: str) -> StoredJob:
        return self._transition(job_id, STATE_CANCELLED)

    def mark_resubmitted(self, job_id: str) -> StoredJob:
        """A dispatched job going back to the pending pool (lease takeover)."""
        return self._transition(job_id, STATE_SUBMITTED, requeued=True)

    # -- leases (the coordinator's durable dispatch table) -------------------

    def grant_lease(self, job_id: str, node: str, *, attempt: int) -> None:
        """Journal that ``job_id`` is being dispatched to ``node``.

        Written *before* the dispatch request leaves, so a coordinator
        crash between grant and acknowledgement still knows which node
        may be executing the job -- recovery re-adopts by polling that
        node rather than guessing.
        """
        with self._lock:
            if job_id not in self._jobs:
                raise ServeError(f"unknown job {job_id!r}")
            self._append(
                {
                    "kind": "lease",
                    "v": SCHEMA_VERSION,
                    "id": job_id,
                    "op": "grant",
                    "node": node,
                    "attempt": int(attempt),
                }
            )
            self._leases[job_id] = {"node": node, "attempt": int(attempt)}

    def release_lease(self, job_id: str, cause: str) -> dict | None:
        """Journal the end of a lease (completion, takeover, cancel...).

        Returns the released image, or None when no lease was held --
        releasing twice is a harmless no-op so takeover races cannot
        corrupt the table.
        """
        with self._lock:
            image = self._leases.get(job_id)
            if image is None:
                return None
            self._append(
                {
                    "kind": "lease",
                    "v": SCHEMA_VERSION,
                    "id": job_id,
                    "op": "release",
                    "node": image["node"],
                    "cause": cause,
                }
            )
            return self._leases.pop(job_id)

    def lease_images(self) -> dict[str, dict]:
        """The live lease table (job id -> {"node", "attempt"} copies)."""
        with self._lock:
            return {job_id: dict(image) for job_id, image in self._leases.items()}

    def note_drain(self, clean: bool) -> None:
        """Checkpoint marker: the daemon drained (skipped on replay)."""
        with self._lock:
            if self._writer.is_open:
                try:
                    self._append(
                        {
                            "kind": "drain",
                            "v": SCHEMA_VERSION,
                            "clean": bool(clean),
                        }
                    )
                except JournalError:
                    pass  # best-effort marker; the drain already happened

    # -- compaction ----------------------------------------------------------

    def _snapshot_records(self) -> list[dict]:
        """The minimal journal that replays to the current in-memory image."""
        records: list[dict] = [
            {"kind": "header", "v": SCHEMA_VERSION, "store": "jobs"}
        ]
        for job in self._jobs.values():  # submission order
            records.append(
                {
                    "kind": "job",
                    "v": SCHEMA_VERSION,
                    "id": job.job_id,
                    "fingerprint": job.spec.fingerprint(),
                    "degraded": job.degraded,
                    "spec": job.spec.to_dict(),
                }
            )
            lease = self._leases.get(job.job_id)
            if lease is not None:
                # An unreleased grant is live state: compaction must keep
                # the lease table replayable, not just the job states.
                records.append(
                    {
                        "kind": "lease",
                        "v": SCHEMA_VERSION,
                        "id": job.job_id,
                        "op": "grant",
                        "node": lease["node"],
                        "attempt": lease["attempt"],
                    }
                )
            if (
                job.state == STATE_SUBMITTED
                and job.attempts == 0
                and not job.recovered
            ):
                continue  # replay default; no state record needed
            state: dict = {
                "kind": "state",
                "v": SCHEMA_VERSION,
                "id": job.job_id,
                "state": job.state,
                "attempts": job.attempts,
            }
            if job.recovered:
                state["recovered"] = True
            if job.state == STATE_DONE and job.report is not None:
                state["report"] = job.report
            if job.state == STATE_FAILED and job.error is not None:
                state["error"] = job.error
            records.append(state)
        return records

    def should_compact(self) -> bool:
        """Has a size or age trigger fired (and is there garbage to drop)?"""
        with self._lock:
            if not self._writer.is_open:
                return False
            if self.compact_bytes is None and self.compact_age_seconds is None:
                return False
            live = len(self._snapshot_records())
            if self._total_records <= live:
                return False  # nothing superseded; compaction is a no-op
            if self.compact_bytes is not None:
                try:
                    if self.path.stat().st_size >= self.compact_bytes:
                        return True
                except OSError:
                    return False
            if self.compact_age_seconds is not None:
                if (
                    self._clock() - self._last_compact
                    >= self.compact_age_seconds
                ):
                    return True
            return False

    def maybe_compact(self) -> bool:
        """Compact when a trigger fired; failures are counted, not fatal.

        A failed compaction leaves the original journal authoritative
        (that is the whole point of the write-new/fsync/rename protocol),
        so the daemon logs-by-metric and keeps serving.
        """
        if not self.should_compact():
            return False
        try:
            self.compact()
        except JournalError:
            return False
        return True

    def compact(self) -> dict:
        """Rewrite the journal as a minimal snapshot, crash-safely.

        Protocol: write the snapshot to ``<path>.compact``, flush,
        ``fsync``, then atomically ``os.replace`` it over the journal and
        fsync the directory.  The rename is the commit point -- a crash
        at *any* byte offset before it leaves the original journal
        intact (the stray temporary is discarded on the next
        :meth:`open`); a crash after it leaves the compacted journal,
        which replays to the identical image.  Returns size statistics.
        """
        with self._lock:
            if not self._writer.is_open:
                raise JournalError(f"{self.path}: store is not open")
            tmp = self._tmp_path()
            try:
                before = self.path.stat().st_size
            except OSError:
                before = 0
            records = self._snapshot_records()
            data = "".join(
                json.dumps(record, separators=(",", ":")) + "\n"
                for record in records
            )
            try:
                with tmp.open("w", encoding="utf-8") as fh:
                    chaos.checkpoint("store.compact.write", nbytes=len(data))
                    fh.write(data)
                    fh.flush()
                    chaos.checkpoint("store.compact.fsync")
                    os.fsync(fh.fileno())
            except OSError as exc:
                self._abort_compact(tmp, "write", exc)
            # Commit point: swap the new journal in under the appender.
            # The store lock is held, so no append can interleave.
            self._writer.close()
            try:
                chaos.checkpoint("store.compact.rename")
                os.replace(tmp, self.path)
            except OSError as exc:
                try:
                    self._writer.open()  # reopen the untouched original
                except JournalError:
                    pass  # the original error is the one worth reporting
                self._abort_compact(tmp, "rename", exc)
            self._fsync_dir()
            try:
                self._writer.open()
            except JournalError:
                record_store_compaction("failed")
                record_store_error("compact")
                raise
            dropped = self._total_records - len(records)
            self._total_records = len(records)
            self._last_compact = self._clock()
            try:
                after = self.path.stat().st_size
            except OSError:
                after = 0
            record_store_compaction("ok")
            return {
                "before_bytes": before,
                "after_bytes": after,
                "records": len(records),
                "dropped_records": max(0, dropped),
            }

    def _abort_compact(self, tmp: Path, stage: str, exc: OSError) -> None:
        """Clean up a failed compaction; the original journal stays live."""
        try:
            tmp.unlink()
        except OSError:
            pass  # open() discards strays; nothing more to do here
        self.last_error = (
            f"compaction {stage} failed [{classify_cause(exc)}]: {exc}"
        )
        record_store_compaction("failed")
        record_store_error("compact")
        raise JournalError(
            f"{self.path}: compaction {stage} failed: {exc}"
        ) from exc

    def _fsync_dir(self) -> None:
        """Best-effort directory fsync so the rename itself is durable."""
        try:
            fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # -- queries -------------------------------------------------------------

    def get(self, job_id: str) -> StoredJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def wait_terminal(self, job_id: str, timeout: float) -> StoredJob:
        """The job once terminal, or as it stands after ``timeout`` seconds.

        A job's terminal record is journaled before waiters wake, so what
        this returns is already durable.
        """
        with self._settled:
            job = self._jobs[job_id]
            self._settled.wait_for(lambda: job.terminal, timeout)
            return job

    def jobs(self) -> list[StoredJob]:
        """All jobs, submission order."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        """Jobs per state (for ``GET /jobs`` summaries and readiness)."""
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts
