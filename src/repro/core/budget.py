"""In-engine resource governance for anytime diagnosis.

The assumption-free methodology deliberately refuses to bound defect
multiplicity, so the candidate/cover search space can explode
combinatorially on unlucky injections.  Rather than dying at an external
wall-clock cliff (and throwing away all work done inside the trial), every
stage of the :class:`~repro.core.diagnose.Diagnoser` pipeline accepts a
:class:`Budget` and checks it at loop granularity: on exhaustion a stage
*returns what it has* and records a :class:`Truncation` (stage name, cause,
work done vs. ceiling) on the budget's trail instead of raising.  The
report then carries a ``completeness`` verdict (``exact`` / ``truncated``
/ ``deadline``) so downstream metrics can segment accuracy by how much of
the search actually ran.

A budget combines four independent resources:

- a **wall-clock deadline** (seconds from :meth:`Budget.start`),
- an **expansion-node ceiling** (joint simulations / cover checks spent,
  charged by the stages via :meth:`Budget.charge`),
- a **multiplet count ceiling** (bounds exhaustive cover enumeration),
- a cooperative :class:`CancellationToken` (external callers -- a serving
  layer, an interactive UI -- can stop a diagnosis mid-flight from another
  thread).

Every stage guarantees *progress*: at least one unit of work is processed
before the first budget check, so even a pathologically tight deadline
yields a non-empty (if coarse) diagnosis whenever one exists.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

#: Exhaustion causes, in the order they are checked.
CAUSE_CANCELLED = "cancelled"
CAUSE_DEADLINE = "deadline"
CAUSE_EXPANSIONS = "expansions"
CAUSE_MULTIPLETS = "multiplets"
#: A stage-internal check ceiling (``max_checks`` / ``max_combos``) ended an
#: enumeration before the budget proper did.
CAUSE_CHECKS = "checks"

#: Completeness verdicts carried by :class:`~repro.core.report.DiagnosisReport`.
COMPLETENESS_EXACT = "exact"
COMPLETENESS_TRUNCATED = "truncated"
COMPLETENESS_DEADLINE = "deadline"

#: Optimality statuses reported by the exact cover engine
#: (:mod:`repro.core.hitting`), orthogonal to the completeness verdict:
#: ``optimal`` means the returned cover cardinality is provably minimum
#: over the candidate space; ``bounded`` means a structural bound (pool
#: cap, size cap or check ceiling) limited the search without a minimality
#: proof; ``budget`` means the :class:`Budget` cut the search first.
OPTIMALITY_OPTIMAL = "optimal"
OPTIMALITY_BOUNDED = "bounded"
OPTIMALITY_BUDGET = "budget"


@dataclass(frozen=True)
class Truncation:
    """One stage's record of stopping early.

    ``stage`` names the pipeline stage (``backtrace``, ``pertest``,
    ``xcover``, ``cover``, ``refine``, ``scoring``); ``cause`` is the
    binding resource (``deadline``, ``expansions``, ``multiplets``,
    ``cancelled``); ``done`` / ``total`` quantify how far the stage got
    (``total`` is 0 when the stage's full extent is unknown, e.g. an
    open-ended enumeration).
    """

    stage: str
    cause: str
    done: int = 0
    total: int = 0

    def describe(self) -> str:
        extent = f"{self.done}/{self.total}" if self.total else str(self.done)
        return f"{self.stage} stopped by {self.cause} after {extent} units"

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "cause": self.cause,
            "done": self.done,
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Truncation":
        return cls(
            stage=str(payload.get("stage", "")),
            cause=str(payload.get("cause", "")),
            done=int(payload.get("done", 0)),
            total=int(payload.get("total", 0)),
        )


class CancellationToken:
    """Thread-safe cooperative cancellation flag.

    Hand the same token to a running :class:`~repro.core.diagnose.Diagnoser`
    (via its :class:`Budget`) and to whoever may need to stop it; calling
    :meth:`cancel` makes the next budget check truncate every remaining
    stage, and the diagnosis returns its partial report.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class Budget:
    """Mutable resource budget threaded through the diagnosis pipeline.

    Stages call :meth:`stop` at the top of their work loops (after the
    first unit, preserving the progress guarantee): it returns ``None``
    while resources remain, or the binding cause string after recording a
    :class:`Truncation` on :attr:`truncations`.  Expansion-type work
    (joint simulations, cover combination checks) is metered with
    :meth:`charge`.

    ``clock`` is injectable for deterministic tests; production uses
    :func:`time.monotonic`.
    """

    def __init__(
        self,
        deadline_seconds: float | None = None,
        max_multiplets: int | None = None,
        max_expansions: int | None = None,
        token: CancellationToken | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.deadline_seconds = deadline_seconds
        self.max_multiplets = max_multiplets
        self.max_expansions = max_expansions
        self.token = token
        self._clock = clock
        self._deadline_at: float | None = None
        self.expansions = 0
        self.truncations: list[Truncation] = []
        if deadline_seconds is not None:
            self.start()

    @classmethod
    def of(
        cls,
        deadline_seconds: float | None,
        max_multiplets: int | None,
        max_expansions: int | None,
        token: CancellationToken | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Budget | None":
        """A fresh budget over these limits, or ``None`` when ungoverned:
        no limit is set and no ``token`` needs a budget to cancel through."""
        if all(
            value is None
            for value in (deadline_seconds, max_multiplets, max_expansions, token)
        ):
            return None
        return cls(deadline_seconds, max_multiplets, max_expansions, token, clock)

    def start(self) -> None:
        """(Re-)arm the wall-clock deadline relative to now."""
        if self.deadline_seconds is not None:
            self._deadline_at = self._clock() + self.deadline_seconds

    # -- resource accounting ---------------------------------------------------

    def charge(self, n: int = 1) -> None:
        """Meter ``n`` expansion nodes (joint simulations, cover checks)."""
        self.expansions += n

    @property
    def remaining_seconds(self) -> float | None:
        if self._deadline_at is None:
            return None
        return self._deadline_at - self._clock()

    def exceeded(self) -> str | None:
        """The binding exhaustion cause, or ``None`` while within budget."""
        if self.token is not None and self.token.cancelled:
            return CAUSE_CANCELLED
        if self._deadline_at is not None and self._clock() >= self._deadline_at:
            return CAUSE_DEADLINE
        if self.max_expansions is not None and self.expansions >= self.max_expansions:
            return CAUSE_EXPANSIONS
        return None

    def multiplets_exhausted(self, count: int) -> bool:
        """Has the enumeration already collected its multiplet ceiling?"""
        return self.max_multiplets is not None and count >= self.max_multiplets

    # -- truncation trail ------------------------------------------------------

    def stop(self, stage: str, done: int = 0, total: int = 0) -> str | None:
        """Check the budget; on exhaustion record a truncation for ``stage``.

        Returns the cause when the stage must stop, ``None`` otherwise.
        """
        cause = self.exceeded()
        if cause is not None:
            self.record(stage, cause, done, total)
        return cause

    def record(self, stage: str, cause: str, done: int = 0, total: int = 0) -> None:
        self.truncations.append(Truncation(stage, cause, done, total))

    @property
    def completeness(self) -> str:
        """The report-level verdict this budget's trail implies.

        ``deadline`` (wall-clock or cancellation cut the run short)
        dominates ``truncated`` (a count ceiling bounded the search);
        an empty trail means the full search ran: ``exact``.
        """
        if not self.truncations:
            return COMPLETENESS_EXACT
        if any(
            t.cause in (CAUSE_DEADLINE, CAUSE_CANCELLED) for t in self.truncations
        ):
            return COMPLETENESS_DEADLINE
        return COMPLETENESS_TRUNCATED

    def __repr__(self) -> str:
        return (
            f"Budget(deadline_seconds={self.deadline_seconds}, "
            f"max_multiplets={self.max_multiplets}, "
            f"max_expansions={self.max_expansions}, "
            f"expansions={self.expansions}, "
            f"truncations={len(self.truncations)})"
        )


# ---------------------------------------------------------------------------
# QoS classes (the serving layer's admission vocabulary)
# ---------------------------------------------------------------------------

#: Expansion ceiling a degraded request falls back to when its class sets
#: no ceiling of its own -- even "unbounded" batch work must terminate
#: while the daemon is shedding load.
DEGRADED_FALLBACK_EXPANSIONS = 250_000
#: The factor a degraded request scales its class's count ceilings by.
DEGRADED_SCALE = 0.25


@dataclass(frozen=True)
class QosClass:
    """One request class's resource envelope, in budget terms.

    The diagnosis daemon maps every submitted job onto a class; the class
    decides the :class:`Budget` the job runs under.  Under overload
    (``degraded=True``) every count ceiling is scaled by
    :data:`DEGRADED_SCALE` and ``degraded_deadline`` replaces the deadline, so
    a saturated daemon degrades to truncated-but-useful verdicts instead
    of queueing unbounded work.

    Count ceilings (expansions, multiplets) truncate deterministically --
    the same job re-executed after a crash reproduces the same report
    byte-for-byte -- while wall-clock deadlines do not; classes meant for
    durable, replayable work should govern by counts only.
    """

    name: str
    deadline_seconds: float | None = None
    max_expansions: int | None = None
    max_multiplets: int | None = None
    degraded_deadline: float | None = None

    def budget(
        self,
        *,
        degraded: bool = False,
        token: CancellationToken | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> Budget | None:
        """A fresh budget for one request, or ``None`` when ungoverned.

        A ``token`` forces a budget even for an otherwise-ungoverned class
        so the request stays cancellable.
        """
        deadline = self.deadline_seconds
        expansions = self.max_expansions
        multiplets = self.max_multiplets
        if degraded:
            deadline = (
                self.degraded_deadline
                if self.degraded_deadline is not None
                else deadline
            )
            expansions = (
                max(1, int(expansions * DEGRADED_SCALE))
                if expansions is not None
                else DEGRADED_FALLBACK_EXPANSIONS
            )
            if multiplets is not None:
                multiplets = max(1, int(multiplets * DEGRADED_SCALE))
        return Budget.of(deadline, multiplets, expansions, token, clock)


#: The daemon's built-in request classes.  ``interactive`` trades
#: byte-stability for latency (wall-clock deadline); ``standard`` governs
#: by deterministic count ceilings only, so its reports replay
#: byte-identically after crash recovery; ``batch`` runs ungoverned until
#: the daemon degrades it.
QOS_CLASSES: dict[str, QosClass] = {
    "interactive": QosClass(
        "interactive",
        deadline_seconds=5.0,
        max_expansions=200_000,
        max_multiplets=64,
        degraded_deadline=1.0,
    ),
    "standard": QosClass(
        "standard", max_expansions=2_000_000, max_multiplets=512
    ),
    "batch": QosClass("batch"),
}


def qos_class(name: str) -> QosClass:
    """Look up a QoS class by name; unknown names are a caller error."""
    try:
        return QOS_CLASSES[name]
    except KeyError:
        from repro.errors import ServeError

        raise ServeError(
            f"unknown QoS class {name!r}; known: {', '.join(sorted(QOS_CLASSES))}"
        ) from None
