"""Resilient campaign execution: worker pool, timeout, retry, resume.

:func:`execute_campaign` turns a :class:`~repro.campaign.driver.Campaign`
plus a :class:`~repro.campaign.driver.CampaignConfig` into a
:class:`~repro.campaign.driver.CampaignResult` under a
:class:`RunnerConfig` that chooses how much resilience to buy:

- **serial in-process** (the default ``jobs=1``, no timeout): byte-for-byte
  the historical behavior, nothing forked, easiest to debug;
- **process isolation** (``jobs > 1`` or a per-trial ``timeout``): each
  trial runs in its own worker process, so a stuck trial is killed at its
  deadline, a dying worker (segfault-equivalent, OOM kill) fails only its
  own trial, and ``jobs=N`` trials run concurrently.  Workers are forked
  from the warmed-up parent where the platform allows, so pattern
  provisioning and dictionary builds are not repeated per trial.

Failures are recorded, never fatal: a trial that exhausts its retries is
journaled as a :class:`~repro.errors.TrialError` with a cause tag, and the
campaign completes with every other trial intact.  Transient causes
(worker crash, timeout) are retried with exponential backoff and
deterministic jitter; deterministic in-trial exceptions are not, because
the same seed would only reproduce them.

Trial results are assembled in trial order regardless of completion order,
so ``jobs=4`` converges to the same outcome list as ``jobs=1``.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from pathlib import Path

from repro._rng import make_rng, spawn
from repro.campaign.driver import Campaign, CampaignConfig, CampaignResult
from repro.campaign.journal import Journal, TrialRecord, config_fingerprint
from repro.errors import (
    TRANSIENT_CAUSES,
    JournalError,
    ReproError,
    TrialError,
    classify_cause,
)
from repro.obs.metrics import record_channel_error, record_retry, record_trial
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.cache import reset_sim_caches


@dataclass
class RunnerConfig:
    """Execution policy for one campaign run."""

    #: Concurrent worker processes; 1 keeps the serial in-process loop
    #: unless a timeout forces isolation.
    jobs: int = 1
    #: Per-trial wall-clock budget in seconds; a trial past its deadline is
    #: killed and recorded as a ``"timeout"`` TrialError.  Requires process
    #: isolation, which is engaged automatically when set.
    timeout: float | None = None
    #: Retries for *transient* failures (crash, timeout) on top of the
    #: first attempt.  Deterministic failures are never retried.
    retries: int = 1
    #: Base backoff delay in seconds; attempt ``i`` sleeps
    #: ``backoff * 2**(i-1)`` scaled by deterministic jitter in [0.5, 1.5).
    backoff: float = 0.05
    #: Path of the append-only JSONL trial journal; None disables
    #: checkpointing.
    journal: str | Path | None = None
    #: Fold journaled trials back in instead of re-executing them.
    resume: bool = False
    #: ``os.fsync`` every journal record.  Off by default on the campaign
    #: hot path (flush-only, the historical behavior: a torn tail is
    #: tolerated and one lost trial merely re-executes on resume); the
    #: diagnosis daemon's job store runs with durability on.
    journal_fsync: bool = False
    #: Fraction of ``timeout`` handed to the diagnosis engine as a
    #: cooperative in-process deadline, so a heavy trial truncates itself
    #: and reports a partial diagnosis *before* the kill timeout fires.
    #: The margin left (default 20%) absorbs sampling, emulation and
    #: scoring.  ``None`` disables the layering (historical behavior:
    #: heavy trials die at the kill timeout with nothing to show).
    deadline_margin: float | None = 0.8

    @property
    def isolated(self) -> bool:
        return self.jobs > 1 or self.timeout is not None

    @property
    def inprocess_deadline(self) -> float | None:
        """Engine-level deadline derived from the kill timeout, if any."""
        if self.timeout is None or self.deadline_margin is None:
            return None
        return self.timeout * self.deadline_margin


def backoff_delay(base: float, attempt: int, seed: int) -> float:
    """Exponential backoff with deterministic (seed, attempt) jitter.

    The jitter threads through the library's seeded RNG tree
    (:func:`repro._rng.make_rng` / :func:`~repro._rng.spawn`) -- never the
    global ``random`` module -- so two campaigns run with identical seeds
    schedule retries identically and journal replay ordering is
    reproducible.
    """
    rng = spawn(make_rng(seed), f"backoff:{attempt}")
    jitter = 0.5 + rng.random()
    return base * (2 ** (attempt - 1)) * jitter


# -- trial execution (shared by serial and worker paths) ----------------------


def _execute_trial(
    campaign: Campaign,
    config: CampaignConfig,
    trial: int,
    deadline: float | None = None,
) -> TrialRecord:
    """Run one trial to a terminal TrialRecord; never raises trial errors."""
    seed = config.trial_seed(trial)
    tracer = Tracer() if getattr(config, "trace", False) else None
    started = time.perf_counter()
    try:
        with (tracer or NULL_TRACER).span("trial", trial=trial, seed=seed):
            result = campaign.run_trial_ex(
                trial_seed=seed,
                k=config.k,
                mix=config.mix,
                methods=config.methods,
                interacting=config.interacting,
                diagnosis_config=config.diagnosis_config,
                max_resample=config.max_resample,
                oscillation_fallback=config.oscillation_fallback,
                deadline_seconds=deadline,
                noise=config.noise,
                tracer=tracer,
            )
    except Exception as exc:
        return TrialRecord(
            circuit=config.circuit,
            trial=trial,
            seed=seed,
            status="error",
            elapsed=time.perf_counter() - started,
            error=TrialError(
                f"trial {trial} (seed {seed}) failed: {exc}",
                circuit=config.circuit,
                trial=trial,
                seed=seed,
                cause=classify_cause(exc),
            ),
            trace=tracer.to_dicts() if tracer is not None else None,
        )
    return TrialRecord(
        circuit=config.circuit,
        trial=trial,
        seed=seed,
        status="skipped" if result.skipped else "ok",
        elapsed=time.perf_counter() - started,
        outcomes=result.outcomes or [],
        skip_reasons=result.skip_reasons,
        trace=tracer.to_dicts() if tracer is not None else None,
    )


# -- worker process side ------------------------------------------------------

#: Set in the parent before forking so workers inherit the warmed-up
#: campaign without pickling; spawn-based workers rebuild from the spec.
_WORKER_CAMPAIGN: Campaign | None = None


def _worker_main(
    spec, config: CampaignConfig, trial: int, conn, deadline: float | None = None
) -> None:
    try:
        campaign = _WORKER_CAMPAIGN
        if campaign is None:
            if spec is None:
                raise ReproError(
                    "worker cannot rebuild a campaign with custom patterns "
                    "or netlist under the spawn start method"
                )
            campaign = Campaign(spec[0], pattern_seed=spec[1])
        record = _execute_trial(campaign, config, trial, deadline)
        conn.send(record.to_dict())
    except BaseException as exc:
        # Last-resort report; if even this send fails the parent sees a
        # crash, which is the correct classification.
        try:
            conn.send({"kind": "worker-error", "message": repr(exc)})
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


# -- isolated (multi-process) scheduler ---------------------------------------


@dataclass
class _Active:
    proc: "mp.process.BaseProcess"
    conn: "mp_connection.Connection"
    deadline: float | None
    attempts: int
    started: float


def _terminate(proc) -> None:
    try:
        proc.terminate()
        proc.join(0.5)
        if proc.is_alive():
            proc.kill()
            proc.join(1.0)
    except Exception:
        pass


def _run_isolated(
    campaign: Campaign,
    config: CampaignConfig,
    rc: RunnerConfig,
    pending: list[int],
    emit,
) -> None:
    """Schedule ``pending`` trials over worker processes; emit records."""
    global _WORKER_CAMPAIGN
    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else "spawn")
    use_fork = ctx.get_start_method() == "fork"
    if not use_fork and campaign.spawn_spec is None:
        raise ReproError(
            "parallel/timeout execution needs the fork start method for a "
            "campaign built from a custom netlist or pattern set"
        )
    jobs = max(1, rc.jobs)
    #: (trial, attempts already made) ready to launch.
    queue: deque[tuple[int, int]] = deque((t, 0) for t in pending)
    #: (ready monotonic time, trial, attempts) sleeping out a backoff.
    waiting: list[tuple[float, int, int]] = []
    active: dict[int, _Active] = {}

    def fail(trial: int, attempts: int, cause: str, message: str) -> None:
        """Handle a failed attempt: retry transient causes, else terminal.

        Only transient causes (crash, timeout) buy a backoff retry; a
        ``"deadline"`` overrun -- the kill timeout firing despite an armed
        in-process engine deadline -- is deterministic and burns no
        retries.
        """
        seed = config.trial_seed(trial)
        if cause in TRANSIENT_CAUSES and attempts <= rc.retries:
            record_retry(cause)
            delay = backoff_delay(rc.backoff, attempts, seed)
            waiting.append((time.monotonic() + delay, trial, attempts))
            return
        emit(
            TrialRecord(
                circuit=config.circuit,
                trial=trial,
                seed=seed,
                status="error",
                attempts=attempts,
                error=TrialError(
                    message,
                    circuit=config.circuit,
                    trial=trial,
                    seed=seed,
                    cause=cause,
                    attempts=attempts,
                ),
            )
        )

    _WORKER_CAMPAIGN = campaign if use_fork else None
    try:
        while queue or waiting or active:
            now = time.monotonic()
            # Wake backoff sleepers whose delay elapsed.
            still_waiting = []
            for ready_at, trial, attempts in waiting:
                if ready_at <= now:
                    queue.append((trial, attempts))
                else:
                    still_waiting.append((ready_at, trial, attempts))
            waiting[:] = still_waiting

            # Launch up to the job limit.
            while queue and len(active) < jobs:
                trial, attempts = queue.popleft()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        campaign.spawn_spec,
                        config,
                        trial,
                        child_conn,
                        rc.inprocess_deadline,
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                active[trial] = _Active(
                    proc=proc,
                    conn=parent_conn,
                    deadline=(now + rc.timeout) if rc.timeout else None,
                    attempts=attempts + 1,
                    started=now,
                )

            if not active:
                # Everything is sleeping out a backoff; nap until the first
                # sleeper is ready.
                if waiting:
                    time.sleep(max(0.0, min(w[0] for w in waiting) - now))
                continue

            # Wait for a result, the nearest deadline, or a sleeper.
            horizon = 0.25
            deadlines = [a.deadline for a in active.values() if a.deadline]
            if deadlines:
                horizon = min(horizon, max(0.0, min(deadlines) - now))
            if waiting:
                horizon = min(horizon, max(0.0, min(w[0] for w in waiting) - now))
            ready = mp_connection.wait(
                [a.conn for a in active.values()], timeout=horizon
            )

            for conn in ready:
                trial = next(t for t, a in active.items() if a.conn is conn)
                slot = active.pop(trial)
                payload = None
                channel_error: BaseException | None = None
                try:
                    payload = conn.recv()
                except (EOFError, OSError) as exc:
                    # A broken result channel is still a crash for retry
                    # purposes (the worker's fate is unknown), but never a
                    # *silent* one: classify it, count it, and carry the
                    # cause into the failure message.
                    channel_error = exc
                    record_channel_error(classify_cause(exc))
                conn.close()
                slot.proc.join(5.0)
                if isinstance(payload, dict) and payload.get("kind") == "trial":
                    record = TrialRecord.from_dict(payload)
                    record.attempts = slot.attempts
                    emit(record)
                elif isinstance(payload, dict):
                    fail(
                        trial,
                        slot.attempts,
                        "crash",
                        f"trial {trial} worker error: "
                        f"{payload.get('message', 'unknown')}",
                    )
                else:
                    detail = (
                        f"result channel {type(channel_error).__name__}: "
                        f"{channel_error}"
                        if channel_error is not None
                        else "no payload"
                    )
                    fail(
                        trial,
                        slot.attempts,
                        "crash",
                        f"trial {trial} worker died without reporting "
                        f"(exit code {slot.proc.exitcode}; {detail})",
                    )

            now = time.monotonic()
            for trial in list(active):
                slot = active[trial]
                if slot.deadline is not None and now >= slot.deadline:
                    _terminate(slot.proc)
                    slot.conn.close()
                    del active[trial]
                    if rc.inprocess_deadline is not None:
                        # The engine was handed a deadline below this kill
                        # timeout and still overran: the weight is outside
                        # the governed pipeline, so a retry would only
                        # replay it.  Terminal, deterministic, no retry.
                        fail(
                            trial,
                            slot.attempts,
                            "deadline",
                            f"trial {trial} overran the "
                            f"{rc.inprocess_deadline:g}s in-process deadline "
                            f"and was killed at the {rc.timeout:g}s timeout",
                        )
                    else:
                        fail(
                            trial,
                            slot.attempts,
                            "timeout",
                            f"trial {trial} exceeded the {rc.timeout:g}s "
                            "per-trial timeout and was killed",
                        )
                elif not slot.proc.is_alive() and not slot.conn.poll():
                    # Died between waits without ever sending a byte.
                    slot.conn.close()
                    del active[trial]
                    fail(
                        trial,
                        slot.attempts,
                        "crash",
                        f"trial {trial} worker died without reporting "
                        f"(exit code {slot.proc.exitcode})",
                    )
    finally:
        _WORKER_CAMPAIGN = None
        for slot in active.values():
            _terminate(slot.proc)
            try:
                slot.conn.close()
            except Exception:
                pass


# -- serial in-process path ---------------------------------------------------


def _run_serial(
    campaign: Campaign,
    config: CampaignConfig,
    rc: RunnerConfig,
    pending: list[int],
    emit,
) -> None:
    for trial in pending:
        attempts = 0
        while True:
            attempts += 1
            record = _execute_trial(campaign, config, trial, rc.inprocess_deadline)
            record.attempts = attempts
            if (
                record.status != "error"
                or record.error is None
                or not record.error.is_transient
                or attempts > rc.retries
            ):
                emit(record)
                break
            record_retry(record.error.cause)
            time.sleep(backoff_delay(rc.backoff, attempts, record.seed))


# -- the entry point ----------------------------------------------------------

#: Content key of the last campaign executed in this process.  A
#: multi-circuit sweep (the benchmark tables, ``run_noise_sweep`` over
#: different circuits) changes key between batches; resetting the sim
#: caches there bounds memory across the sweep while keeping the memos
#: warm for same-circuit reruns (noise rates, resume, repeated configs).
_LAST_CAMPAIGN_KEY: tuple[str, str] | None = None


def execute_campaign(
    campaign: Campaign,
    config: CampaignConfig,
    runner: RunnerConfig | None = None,
) -> CampaignResult:
    """Run a campaign under an execution policy and assemble its result.

    With a journal configured, every terminal trial record is appended the
    moment it exists, so an interrupted run can be resumed; with
    ``resume=True`` journaled trials are folded in without re-execution
    and the assembled aggregates are identical to an uninterrupted run.
    """
    global _LAST_CAMPAIGN_KEY
    rc = runner or RunnerConfig()
    started = time.perf_counter()
    batch_key = (campaign.netlist.fingerprint(), campaign.patterns.fingerprint())
    if _LAST_CAMPAIGN_KEY is not None and _LAST_CAMPAIGN_KEY != batch_key:
        # New (circuit, test set) batch: drop the previous batch's contexts
        # and kernels so a sweep that never repeats a key stays bounded.
        reset_sim_caches()
    _LAST_CAMPAIGN_KEY = batch_key
    records: dict[int, TrialRecord] = {}
    resumed = 0

    journal: Journal | None = None
    if rc.journal is not None:
        journal = Journal(rc.journal, fsync=rc.journal_fsync)
        completed = journal.start(config_fingerprint(config), rc.resume)
    elif rc.resume:
        raise JournalError("resume requested but no journal path configured")
    else:
        completed = {}

    pending: list[int] = []
    for trial in range(config.n_trials):
        key = (config.circuit, config.trial_seed(trial), trial)
        record = completed.get(key)
        if record is not None:
            records[trial] = record
            resumed += 1
        else:
            pending.append(trial)

    def emit(record: TrialRecord) -> None:
        record_trial(
            record.status,
            record.error.cause if record.error is not None else None,
        )
        records[record.trial] = record
        if journal is not None:
            journal.append(record)

    try:
        if pending:
            if rc.isolated:
                if "dictionary" in config.methods:
                    # Warm the parent's dictionary cache so forked workers
                    # inherit the build instead of repeating it per trial.
                    from repro.core.dictionary import dictionary_for

                    dictionary_for(campaign.netlist, campaign.patterns)
                _run_isolated(campaign, config, rc, pending, emit)
            else:
                _run_serial(campaign, config, rc, pending, emit)
    finally:
        if journal is not None:
            journal.close()

    result = CampaignResult(config=config)
    result.resumed_trials = resumed
    for trial in sorted(records):
        record = records[trial]
        for reason, count in record.skip_reasons.items():
            result.skip_reasons[reason] = (
                result.skip_reasons.get(reason, 0) + count
            )
        if record.status == "ok":
            result.outcomes.extend(record.outcomes)
        elif record.status == "skipped":
            result.skipped_trials += 1
        elif record.error is not None:
            result.trial_errors.append(record.error)
        if record.trace:
            result.traces.append(
                {"trial": record.trial, "seed": record.seed, "spans": record.trace}
            )
    result.wall_seconds = time.perf_counter() - started
    return result
