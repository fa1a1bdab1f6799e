"""Append-only JSONL trial journal: checkpoint/resume for campaigns.

Every completed, skipped or failed trial is written as one JSON line the
moment it finishes, so a campaign killed at any point (including SIGKILL
mid-write -- a torn final line is tolerated) can be restarted with
``resume`` and replay nothing: journaled trials are folded back into the
result and only the remainder executes.  Because trials are seeded and the
serialization round-trips floats exactly, a resumed campaign converges to
aggregates identical to an uninterrupted run.

Record schema (one object per line)::

    {"kind": "header", "v": 1, "fingerprint": "<config digest>"}
    {"kind": "trial", "v": 1, "circuit": "c432", "trial": 5, "seed": 1000016,
     "status": "ok" | "skipped" | "error", "attempts": 1, "elapsed": 0.12,
     "outcomes": [...],            # present when status == "ok"
     "skip_reasons": {"no_failures": 2, "OscillationError": 1},
     "error": {...}}               # present when status == "error"

The header pins the campaign configuration (everything except the trial
count, so a journaled campaign may be *extended* with more trials); a
resume against a journal written under a different configuration raises
:class:`~repro.errors.JournalError` instead of silently mixing runs.

Outcome payloads are field-generic over :class:`TrialOutcome`, so fields
added later (e.g. the anytime ``completeness`` verdict) serialize without
schema changes; reading is symmetric -- unknown fields in newer journals
are dropped and missing fields in older journals take their dataclass
defaults -- so journals stay readable across versions in both directions.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO

try:  # POSIX only; Windows falls back to lock-free appends.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from repro import chaos
from repro.campaign.metrics import TrialOutcome
from repro.errors import JournalError, TrialError

SCHEMA_VERSION = 1


# -- JSONL primitives (shared by the trial journal and the job store) ---------


def load_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """Parse a JSONL file into ``(lineno, payload)`` pairs.

    A torn *final* line (the writer was killed mid-append) is silently
    dropped; a malformed line anywhere else means corruption rather than
    interruption and raises :class:`~repro.errors.JournalError`.
    """
    path = Path(path)
    if not path.exists():
        return []
    records: list[tuple[int, dict]] = []
    lines = path.read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                break  # torn tail from an interrupted append
            raise JournalError(
                f"{path}:{lineno}: corrupt journal line: {exc}"
            ) from exc
        if isinstance(payload, dict):
            records.append((lineno, payload))
    return records


class JsonlAppender:
    """Append-only JSONL writer with per-record durability and a writer lock.

    Every :meth:`append` flushes and (by default) ``os.fsync``\\ s, so a
    record that was acknowledged survives ``kill -9`` of the process and
    most machine-level crashes; campaigns chasing throughput over
    durability can opt out with ``fsync=False`` (the historical behavior:
    flush only).

    On :meth:`open` an advisory ``fcntl`` lock is taken on the file, so a
    second writer on the same path -- another daemon instance, a campaign
    resumed twice -- fails fast with a :class:`JournalError` instead of
    silently interleaving lines.  The lock is per open-file-description:
    two handles in one process conflict just like two processes do.

    ``chaos_site`` names this appender's fault-injection sites
    (``<site>.write`` / ``<site>.fsync`` / ``<site>.lock``, see
    :mod:`repro.chaos`); disarmed, the checkpoints are no-ops.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: bool = True,
        lock: bool = True,
        chaos_site: str = "journal",
    ):
        self.path = Path(path)
        self.fsync = fsync
        self.lock = lock
        self.chaos_site = chaos_site
        self._fh: IO[str] | None = None

    @property
    def is_open(self) -> bool:
        return self._fh is not None

    def open(self, *, truncate: bool = False) -> None:
        """Open for appending (locking first), dropping any torn tail."""
        if self._fh is not None:
            raise JournalError(f"{self.path}: appender is already open")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = self.path.open("w" if truncate else "a", encoding="utf-8")
        if self.lock and fcntl is not None:
            try:
                chaos.checkpoint(f"{self.chaos_site}.lock")
            except OSError:
                fh.close()
                raise
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                fh.close()
                raise JournalError(
                    f"{self.path}: journal is locked by another writer "
                    f"({exc}); refusing to interleave records"
                ) from exc
        if not truncate:
            self._truncate_torn_tail()
        self._fh = fh

    def append(self, payload: dict) -> None:
        if self._fh is None:
            raise JournalError(f"{self.path}: appender is not open")
        line = json.dumps(payload, separators=(",", ":")) + "\n"
        chaos.checkpoint(f"{self.chaos_site}.write", nbytes=len(line))
        self._fh.write(line)
        self._fh.flush()
        if self.fsync:
            chaos.checkpoint(f"{self.chaos_site}.fsync")
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()  # releases the advisory lock
            self._fh = None

    def is_empty(self) -> bool:
        try:
            return self.path.stat().st_size == 0
        except OSError:
            return True

    def _truncate_torn_tail(self) -> None:
        """Repair an interrupted final append so new appends start clean.

        A final line that parses is a record whose newline never landed:
        keep it and supply the newline (``load`` already counts it, so
        truncating would silently lose an acknowledged record).  Anything
        else is a torn fragment and is cut.
        """
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        cut = raw.rfind(b"\n") + 1
        if cut >= len(raw):
            return
        try:
            json.loads(raw[cut:].decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            with self.path.open("r+b") as fh:
                fh.truncate(cut)
        else:
            with self.path.open("ab") as fh:
                fh.write(b"\n")


# -- outcome serialization ----------------------------------------------------

_OUTCOME_FIELDS = tuple(f.name for f in fields(TrialOutcome))


def outcome_to_dict(outcome: TrialOutcome) -> dict:
    """Exact, JSON-safe image of a :class:`TrialOutcome`."""
    payload = {name: getattr(outcome, name) for name in _OUTCOME_FIELDS}
    payload["families"] = list(outcome.families)
    payload["extra"] = dict(outcome.extra)
    return payload


def outcome_from_dict(payload: dict) -> TrialOutcome:
    """Inverse of :func:`outcome_to_dict` (bit-exact for floats)."""
    data = dict(payload)
    data["families"] = tuple(data.get("families", ()))
    data["extra"] = dict(data.get("extra", {}))
    unknown = set(data) - set(_OUTCOME_FIELDS)
    for name in unknown:  # forward compatibility: ignore newer fields
        del data[name]
    return TrialOutcome(**data)


# -- trial records ------------------------------------------------------------


@dataclass
class TrialRecord:
    """One trial's terminal state, as journaled."""

    circuit: str
    trial: int
    seed: int
    status: str  #: "ok" | "skipped" | "error"
    attempts: int = 1
    elapsed: float = 0.0
    outcomes: list[TrialOutcome] = field(default_factory=list)
    skip_reasons: dict[str, int] = field(default_factory=dict)
    error: TrialError | None = None
    #: Span-tree forest (plain dicts, see :mod:`repro.obs.trace`) when the
    #: trial ran traced; None otherwise.  Serialized only when present, so
    #: untraced journal lines are byte-identical to the historical format.
    trace: list | None = None

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.circuit, self.seed, self.trial)

    def to_dict(self) -> dict:
        payload = {
            "kind": "trial",
            "v": SCHEMA_VERSION,
            "circuit": self.circuit,
            "trial": self.trial,
            "seed": self.seed,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
            "skip_reasons": dict(self.skip_reasons),
        }
        if self.status == "ok":
            payload["outcomes"] = [outcome_to_dict(o) for o in self.outcomes]
        if self.error is not None:
            payload["error"] = self.error.to_dict()
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TrialRecord":
        try:
            record = cls(
                circuit=str(payload["circuit"]),
                trial=int(payload["trial"]),
                seed=int(payload["seed"]),
                status=str(payload["status"]),
                attempts=int(payload.get("attempts", 1)),
                elapsed=float(payload.get("elapsed", 0.0)),
                outcomes=[
                    outcome_from_dict(o) for o in payload.get("outcomes", [])
                ],
                skip_reasons={
                    str(k): int(v)
                    for k, v in payload.get("skip_reasons", {}).items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed trial record: {exc}") from exc
        if record.status not in ("ok", "skipped", "error"):
            raise JournalError(f"unknown trial status {record.status!r}")
        if "error" in payload:
            record.error = TrialError.from_dict(payload["error"])
        trace = payload.get("trace")
        if isinstance(trace, list):
            record.trace = trace
        return record


def config_fingerprint(config) -> str:
    """Digest of everything that determines a trial's result.

    ``n_trials`` is deliberately excluded: a journaled campaign can be
    extended with more trials without invalidating completed ones.  The
    diagnosis settings enter by name, and only those off their defaults
    (see :func:`_settings_image`).
    """
    image = (
        config.circuit,
        config.k,
        tuple(config.methods),
        config.seed,
        config.interacting,
        tuple(config.mix.items()),
        _settings_image(config.diagnosis_config),
    )
    # Appended only when set, so journals written before the noise axis
    # existed keep their fingerprint and stay resumable.
    if getattr(config, "noise", None):
        image = image + (config.noise,)
    return hashlib.sha256(repr(image).encode()).hexdigest()[:16]


def _settings_image(diagnosis_config) -> str:
    """The ``DiagnosisConfig`` settings off their defaults, by name.

    ``None`` and an all-default config both read ``"None"``, and a
    setting at its default never enters, so adding or deleting a setting
    leaves every journal that did not set it resumable.
    """
    if diagnosis_config is None:
        return repr(None)
    default = type(diagnosis_config)()
    changed = sorted(
        (f.name, getattr(diagnosis_config, f.name))
        for f in fields(diagnosis_config)
        if getattr(diagnosis_config, f.name) != getattr(default, f.name)
    )
    return repr(tuple(changed) or None)


# -- the journal file ---------------------------------------------------------


class Journal:
    """Append-only JSONL writer/reader over one campaign's trials.

    ``fsync`` chooses per-record durability (see :class:`JsonlAppender`);
    the campaign hot path opts out via
    :attr:`~repro.campaign.runner.RunnerConfig.journal_fsync` while the
    diagnosis daemon's job store keeps the durable default.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True):
        self.path = Path(path)
        self._writer = JsonlAppender(path, fsync=fsync)

    # -- reading --------------------------------------------------------------

    def load(self, fingerprint: str | None = None) -> dict[tuple, TrialRecord]:
        """All journaled trial records keyed by ``(circuit, seed, trial)``.

        A torn final line (the driver was killed mid-write) is discarded;
        a torn line anywhere *else* means the file was corrupted, not
        interrupted, and raises.  When two records share a key the later
        one wins (a retried trial re-journals its terminal state).  When
        ``fingerprint`` is given, the header must match it.
        """
        if not self.path.exists():
            return {}
        records: dict[tuple, TrialRecord] = {}
        header_seen = False
        for _lineno, payload in load_jsonl(self.path):
            kind = payload.get("kind")
            if kind == "header":
                header_seen = True
                if (
                    fingerprint is not None
                    and payload.get("fingerprint") != fingerprint
                ):
                    raise JournalError(
                        f"{self.path}: journal was written by a different "
                        f"campaign configuration (fingerprint "
                        f"{payload.get('fingerprint')!r} != {fingerprint!r}); "
                        "refusing to resume"
                    )
                continue
            if kind != "trial":
                continue  # unknown record kinds are skipped, not fatal
            record = TrialRecord.from_dict(payload)
            records[record.key] = record
        if records and not header_seen and fingerprint is not None:
            raise JournalError(
                f"{self.path}: journal has trial records but no header; "
                "cannot verify it belongs to this campaign"
            )
        return records

    # -- writing --------------------------------------------------------------

    def start(self, fingerprint: str, resume: bool) -> dict[tuple, TrialRecord]:
        """Open for appending; returns already-completed records.

        With ``resume=False`` any existing journal is truncated and a fresh
        header written; with ``resume=True`` existing records are loaded
        (validating the header) and appends continue after them.
        """
        completed: dict[tuple, TrialRecord] = {}
        if resume:
            completed = self.load(fingerprint)
        self._writer.open(truncate=not (resume and self.path.exists()))
        if not completed and self._writer.is_empty():
            self._writer.append(
                {"kind": "header", "v": SCHEMA_VERSION, "fingerprint": fingerprint}
            )
        return completed

    def append(self, record: TrialRecord) -> None:
        if not self._writer.is_open:
            raise JournalError("journal is not open for writing")
        self._writer.append(record.to_dict())

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
