"""Job protocol for the diagnosis daemon: specs, fingerprints, reports.

A *job* is one diagnosis request -- a circuit name, the device's datalog
text, and the knobs the CLI ``diagnose`` command would take -- submitted
over HTTP and executed asynchronously.  Three properties matter here:

- **fingerprints**: a job is identified by a content digest of its spec,
  so resubmitting the same request is idempotent (the daemon returns the
  existing job instead of queueing a duplicate) and crash recovery can
  re-enqueue a journaled job without inventing new identity;
- **canonical reports**: the report stored and served for a job strips
  the wall-clock and cache-warmth dependent ``stats`` entries
  (``seconds*``, ``sim_*``, ``trace``), so re-executing a job -- after a
  retry, a crash, or a restart -- reproduces byte-identical bytes
  whenever the job's budget is deterministic (count ceilings, not
  deadlines);
- **state machine**: ``submitted -> running -> done | failed | cancelled``,
  with every transition journaled by the store.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.core.diagnose import PER_DIE_METHODS
from repro.errors import ServeError

#: Job lifecycle states, in transition order.
STATE_SUBMITTED = "submitted"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"

JOB_STATES = (
    STATE_SUBMITTED,
    STATE_RUNNING,
    STATE_DONE,
    STATE_FAILED,
    STATE_CANCELLED,
)

#: States a job never leaves.
TERMINAL_STATES = frozenset({STATE_DONE, STATE_FAILED, STATE_CANCELLED})

#: The complete submission vocabulary; :meth:`JobSpec.from_dict` rejects
#: anything outside it so typos cannot silently mint a different job id.
_SPEC_KEYS = frozenset(
    {
        "circuit",
        "datalog",
        "method",
        "pattern_seed",
        "qos",
        "noise_report",
        "validate",
        "deadline_seconds",
        "max_multiplets",
        "max_expansions",
    }
)


@dataclass(frozen=True)
class JobSpec:
    """Everything that determines one diagnosis job's result."""

    circuit: str
    datalog: str
    method: str = "xcover"
    pattern_seed: int = 7
    qos: str = "standard"
    noise_report: bool = False
    validate: bool = False
    #: Explicit per-job budget overrides; when any is set they replace the
    #: QoS class's envelope entirely (mirrors the CLI budget flags).
    deadline_seconds: float | None = None
    max_multiplets: int | None = None
    max_expansions: int | None = None

    def __post_init__(self) -> None:
        if not self.circuit:
            raise ServeError("job spec needs a non-empty 'circuit'")
        if not self.datalog:
            raise ServeError("job spec needs a non-empty 'datalog'")
        if self.method not in PER_DIE_METHODS:
            raise ServeError(
                f"unknown method {self.method!r}; "
                f"known: {', '.join(PER_DIE_METHODS)}"
            )
        # Validate the QoS name eagerly so a bad submission is a 400 at
        # admission, not a failed job at execution.
        from repro.core.budget import qos_class

        qos_class(self.qos)

    @property
    def shard_key(self) -> str:
        """Executor affinity key: jobs for one (circuit, test set) land on
        one worker and share one warm netlist, test set and set of
        ``SimContext``/kernel caches (see :mod:`repro.serve.executor`)."""
        return f"{self.circuit}:{self.pattern_seed}"

    def fingerprint(self) -> str:
        """Content digest of the spec (the job's durable identity)."""
        image = (
            self.circuit,
            self.datalog,
            self.method,
            self.pattern_seed,
            self.qos,
            self.noise_report,
            self.validate,
            self.deadline_seconds,
            self.max_multiplets,
            self.max_expansions,
        )
        return hashlib.sha256(repr(image).encode()).hexdigest()[:24]

    def to_dict(self) -> dict:
        payload: dict = {
            "circuit": self.circuit,
            "datalog": self.datalog,
            "method": self.method,
            "pattern_seed": self.pattern_seed,
            "qos": self.qos,
        }
        if self.noise_report:
            payload["noise_report"] = True
        if self.validate:
            payload["validate"] = True
        if self.deadline_seconds is not None:
            payload["deadline_seconds"] = self.deadline_seconds
        if self.max_multiplets is not None:
            payload["max_multiplets"] = self.max_multiplets
        if self.max_expansions is not None:
            payload["max_expansions"] = self.max_expansions
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> "JobSpec":
        """Parse a submission body; anything malformed is a :class:`ServeError`.

        Unknown keys are rejected by name rather than silently ignored: a
        typo'd field (``pattern_sed``) would otherwise fall back to its
        default and fingerprint to a *different* job id than the client
        intended -- an idempotency landmine, not a convenience.
        """
        if not isinstance(payload, dict):
            raise ServeError("job submission must be a JSON object")
        unknown = sorted(set(map(str, payload)) - _SPEC_KEYS)
        if unknown:
            raise ServeError(
                f"unknown job spec field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(_SPEC_KEYS))})"
            )
        try:
            return cls(
                circuit=str(payload.get("circuit", "")),
                datalog=str(payload.get("datalog", "")),
                method=str(payload.get("method", "xcover")),
                pattern_seed=int(payload.get("pattern_seed", 7)),
                qos=str(payload.get("qos", "standard")),
                noise_report=bool(payload.get("noise_report", False)),
                validate=bool(payload.get("validate", False)),
                deadline_seconds=(
                    float(payload["deadline_seconds"])
                    if payload.get("deadline_seconds") is not None
                    else None
                ),
                max_multiplets=(
                    int(payload["max_multiplets"])
                    if payload.get("max_multiplets") is not None
                    else None
                ),
                max_expansions=(
                    int(payload["max_expansions"])
                    if payload.get("max_expansions") is not None
                    else None
                ),
            )
        except (TypeError, ValueError) as exc:
            raise ServeError(f"malformed job spec: {exc}") from exc


def job_id_for(spec: JobSpec) -> str:
    """Deterministic job id (``j`` + fingerprint prefix): resubmission of
    an identical spec maps to the same job."""
    return "j" + spec.fingerprint()[:16]


# -- canonical report serialization -----------------------------------------

#: ``stats`` keys that vary run-to-run without changing the diagnosis:
#: wall-clock timings, simulation-effort counters (cache-warmth
#: dependent), and the optional trace tree.
_VOLATILE_STAT_PREFIXES = ("seconds", "sim_")
_VOLATILE_STAT_KEYS = frozenset({"trace"})


def canonical_report_dict(report) -> dict:
    """A :class:`~repro.core.report.DiagnosisReport` image with every
    volatile ``stats`` entry removed."""
    payload = report.to_dict()
    stats = payload.get("stats", {})
    payload["stats"] = {
        key: value
        for key, value in stats.items()
        if key not in _VOLATILE_STAT_KEYS
        and not any(key.startswith(p) for p in _VOLATILE_STAT_PREFIXES)
    }
    return payload


def canonical_report_json(report) -> str:
    """Byte-stable JSON of a report: volatile stats stripped, keys sorted,
    compact separators.  Two executions of the same deterministic job
    produce identical strings."""
    return json.dumps(
        canonical_report_dict(report), sort_keys=True, separators=(",", ":")
    )
