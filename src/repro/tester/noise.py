"""Tester-data noise models and the quarantining ingestion sanitizer.

The diagnosis makes no assumptions about *failing-pattern* behavior, but
the historical front end silently assumed the fail log itself was
pristine: every strobe observed, no intermittent flips, no truncation, no
compactor masking, no contradictory re-strobes.  Real ATE data violates
all of these.  This module closes the gap from both sides:

- **Noise models** (:class:`FlipNoise`, :class:`DropNoise`,
  :class:`TruncateNoise`, :class:`XMaskNoise`, :class:`DuplicateNoise`,
  composable via :class:`ComposedNoise` / :func:`parse_noise_spec`)
  corrupt a clean :class:`~repro.tester.datalog.Datalog` into a
  :class:`RawLog` the way production testers actually do, seeded and
  deterministic so every fault-injection experiment is reproducible.

- **The sanitizer** (:func:`sanitize` / :func:`ingest_text`) ingests a
  possibly-contradictory raw log, detects each anomaly class, and
  *quarantines* suspect evidence into per-strobe confidence tiers instead
  of raising: strobes every record agrees on stay hard evidence, disputed
  strobes are demoted to the unobserved-X tier
  (:attr:`~repro.tester.datalog.Datalog.x_atoms`), and every demotion is
  counted in an :class:`IngestReport`.  Diagnosis then degrades
  gracefully -- an X strobe is neither corroborating nor exculpatory
  under the three-valued semantics of :mod:`repro.sim.threeval` -- rather
  than chasing phantom defects or vindicating real ones away.

Noise that flips a strobe *consistently* (e.g. a pass->fail flip on a
pattern the log mentions nowhere else) is indistinguishable from real
silicon behavior and cannot be quarantined here; the post-diagnosis
oracle (:mod:`repro.core.oracle`) is the backstop that catches its
downstream effects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro._rng import make_rng, spawn
from repro.errors import DatalogError
from repro.tester.datalog import Datalog, FailRecord, header_fields

Atom = tuple[int, str]


# -- the raw (pre-sanitization) log -------------------------------------------


@dataclass(frozen=True)
class RawRecord:
    """One logged strobe record, exactly as the tester emitted it.

    Unlike :class:`~repro.tester.datalog.FailRecord`, a raw record makes
    no consistency promises: outputs keep file order and duplicates, the
    same pattern may be recorded many times, and ``kind`` distinguishes
    ``fail`` strobes from compactor ``xmask`` annotations.
    """

    kind: str  #: "fail" or "xmask"
    pattern_index: int
    outputs: tuple[str, ...]


@dataclass
class RawLog:
    """A tester fail log before sanitization -- possibly contradictory.

    ``outputs`` is the strobe universe (the circuit's observable outputs)
    when known; noise models that invent new fail strobes need it and
    raise a clear error when it is missing (a log parsed from text alone
    does not carry it).
    """

    circuit_name: str
    n_patterns: int
    n_observed: int | None = None
    outputs: tuple[str, ...] = ()
    records: list[RawRecord] = field(default_factory=list)

    @classmethod
    def from_datalog(
        cls, datalog: Datalog, outputs: Sequence[str] = ()
    ) -> "RawLog":
        """Lift a clean datalog into raw form (one record per pattern)."""
        records = [
            RawRecord("fail", rec.pattern_index, tuple(sorted(rec.failing_outputs)))
            for rec in datalog.records
        ]
        x_by_index: dict[int, list[str]] = {}
        for idx, out in sorted(datalog.x_atoms):
            x_by_index.setdefault(idx, []).append(out)
        records.extend(
            RawRecord("xmask", idx, tuple(outs)) for idx, outs in x_by_index.items()
        )
        return cls(
            circuit_name=datalog.circuit_name,
            n_patterns=datalog.n_patterns,
            n_observed=(
                None
                if datalog.n_observed == datalog.n_patterns
                else datalog.n_observed
            ),
            outputs=tuple(outputs),
            records=records,
        )

    @property
    def observed_window(self) -> int:
        if self.n_observed is None:
            return self.n_patterns
        return max(0, min(self.n_observed, self.n_patterns))

    def fail_atoms(self) -> set[Atom]:
        """Every (pattern, output) strobe some record claims failing."""
        return {
            (rec.pattern_index, out)
            for rec in self.records
            if rec.kind == "fail"
            for out in rec.outputs
        }

    def fail_outputs_of(self, pattern_index: int) -> set[str]:
        """Union of failing outputs over every record of one pattern."""
        return {
            out
            for rec in self.records
            if rec.kind == "fail" and rec.pattern_index == pattern_index
            for out in rec.outputs
        }

    def to_text(self) -> str:
        """Serialize records verbatim -- duplicates and disorder survive."""
        header = f"# datalog circuit={self.circuit_name} patterns={self.n_patterns}"
        if self.n_observed is not None and self.n_observed != self.n_patterns:
            header += f" observed={self.n_observed}"
        lines = [header]
        for rec in self.records:
            lines.append(f"{rec.kind} {rec.pattern_index}: {' '.join(rec.outputs)}")
        return "\n".join(lines) + "\n"


# -- noise models -------------------------------------------------------------


class NoiseModel:
    """One corruption mechanism; subclasses are pure and seeded.

    ``corrupt`` never mutates its input: every application returns a new
    :class:`RawLog`, so models compose and a single corrupted log can be
    compared against its clean original.
    """

    name: str = "noise"

    def spec(self) -> str:
        """The ``name:rate`` string :func:`parse_noise_spec` accepts."""
        raise NotImplementedError

    def corrupt(self, raw: RawLog, rng: random.Random) -> RawLog:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec()!r})"


def _check_rate(name: str, rate: float, upper: float = 1.0) -> float:
    if not 0.0 <= rate <= upper:
        raise DatalogError(
            f"noise model {name!r}: rate {rate} outside 0..{upper}"
        )
    return rate


@dataclass(repr=False)
class FlipNoise(NoiseModel):
    """Intermittent pass<->fail strobe flips at a per-strobe rate.

    A fail->pass flip silently erases evidence (the strobe read clean on
    this application); a pass->fail flip appends a *new* fail record for
    the pattern -- on a pattern that already has one, the re-strobe
    contradicts it and the sanitizer will quarantine the disagreement.
    Needs the strobe universe (``raw.outputs``).
    """

    rate: float
    name = "flip"

    def __post_init__(self) -> None:
        _check_rate(self.name, self.rate)

    def spec(self) -> str:
        return f"flip:{self.rate:g}"

    def corrupt(self, raw: RawLog, rng: random.Random) -> RawLog:
        if not raw.outputs:
            raise DatalogError(
                "flip noise needs the output strobe universe; build the "
                "RawLog with RawLog.from_datalog(datalog, netlist.outputs)"
            )
        window = raw.observed_window
        masked = {
            (rec.pattern_index, out)
            for rec in raw.records
            if rec.kind == "xmask"
            for out in rec.outputs
        }
        failing = raw.fail_atoms()
        flipped: set[Atom] = set()
        for idx in range(window):
            for out in raw.outputs:
                if (idx, out) in masked:
                    continue  # a masked strobe has no read to flip
                if rng.random() < self.rate:
                    flipped.add((idx, out))
        records: list[RawRecord] = []
        for rec in raw.records:
            if rec.kind != "fail":
                records.append(rec)
                continue
            kept = tuple(
                out
                for out in rec.outputs
                if (rec.pattern_index, out) not in flipped
            )
            if kept:
                records.append(RawRecord("fail", rec.pattern_index, kept))
        additions: dict[int, list[str]] = {}
        for idx, out in sorted(flipped - failing):
            additions.setdefault(idx, []).append(out)
        records.extend(
            RawRecord("fail", idx, tuple(outs))
            for idx, outs in additions.items()
        )
        return RawLog(
            raw.circuit_name, raw.n_patterns, raw.n_observed, raw.outputs, records
        )


@dataclass(repr=False)
class DropNoise(NoiseModel):
    """Whole failing records lost at a per-record rate (missed logging)."""

    rate: float
    name = "drop"

    def __post_init__(self) -> None:
        _check_rate(self.name, self.rate)

    def spec(self) -> str:
        return f"drop:{self.rate:g}"

    def corrupt(self, raw: RawLog, rng: random.Random) -> RawLog:
        records = [
            rec
            for rec in raw.records
            if rec.kind != "fail" or rng.random() >= self.rate
        ]
        return RawLog(
            raw.circuit_name, raw.n_patterns, raw.n_observed, raw.outputs, records
        )


@dataclass(repr=False)
class TruncateNoise(NoiseModel):
    """ATE truncation: only the first ``fraction`` of the window is logged."""

    fraction: float
    name = "trunc"

    def __post_init__(self) -> None:
        _check_rate(self.name, self.fraction)

    def spec(self) -> str:
        return f"trunc:{self.fraction:g}"

    def corrupt(self, raw: RawLog, rng: random.Random) -> RawLog:
        del rng  # the cut point is a deterministic function of the fraction
        window = raw.observed_window
        cut = int(round(window * self.fraction))
        records = [rec for rec in raw.records if rec.pattern_index < cut]
        return RawLog(
            raw.circuit_name, raw.n_patterns, cut, raw.outputs, records
        )


@dataclass(repr=False)
class XMaskNoise(NoiseModel):
    """Compactor X-masking: strobes unreadable at a per-strobe rate.

    A masked strobe that was failing loses its fail evidence (the
    compactor never saw it) and gains an explicit ``xmask`` record, the
    way masked scan cells are annotated in production fail logs.
    Needs the strobe universe.
    """

    rate: float
    name = "xmask"

    def __post_init__(self) -> None:
        _check_rate(self.name, self.rate)

    def spec(self) -> str:
        return f"xmask:{self.rate:g}"

    def corrupt(self, raw: RawLog, rng: random.Random) -> RawLog:
        if not raw.outputs:
            raise DatalogError(
                "xmask noise needs the output strobe universe; build the "
                "RawLog with RawLog.from_datalog(datalog, netlist.outputs)"
            )
        window = raw.observed_window
        masked: set[Atom] = set()
        for idx in range(window):
            for out in raw.outputs:
                if rng.random() < self.rate:
                    masked.add((idx, out))
        records: list[RawRecord] = []
        for rec in raw.records:
            if rec.kind != "fail":
                records.append(rec)
                continue
            kept = tuple(
                out
                for out in rec.outputs
                if (rec.pattern_index, out) not in masked
            )
            if kept:
                records.append(RawRecord("fail", rec.pattern_index, kept))
        additions: dict[int, list[str]] = {}
        for idx, out in sorted(masked):
            additions.setdefault(idx, []).append(out)
        records.extend(
            RawRecord("xmask", idx, tuple(outs))
            for idx, outs in additions.items()
        )
        return RawLog(
            raw.circuit_name, raw.n_patterns, raw.n_observed, raw.outputs, records
        )


@dataclass(repr=False)
class DuplicateNoise(NoiseModel):
    """Contradictory re-strobes: failing records logged twice, differing.

    Models retest appends and datalog splicing: with probability ``rate``
    a failing record gains a second record for the same pattern whose
    output set disagrees (one strobe dropped, or one spurious strobe
    added when the universe is known).  The disagreement is exactly what
    the sanitizer's contradiction quarantine exists to catch.
    """

    rate: float
    name = "dup"

    def __post_init__(self) -> None:
        _check_rate(self.name, self.rate)

    def spec(self) -> str:
        return f"dup:{self.rate:g}"

    def corrupt(self, raw: RawLog, rng: random.Random) -> RawLog:
        records = list(raw.records)
        for rec in raw.records:
            if rec.kind != "fail" or rng.random() >= self.rate:
                continue
            outs = list(rec.outputs)
            extras = [out for out in raw.outputs if out not in rec.outputs]
            if len(outs) > 1 and (not extras or rng.random() < 0.5):
                outs.remove(outs[rng.randrange(len(outs))])
            elif extras:
                outs.append(extras[rng.randrange(len(extras))])
            records.append(RawRecord("fail", rec.pattern_index, tuple(outs)))
        return RawLog(
            raw.circuit_name, raw.n_patterns, raw.n_observed, raw.outputs, records
        )


@dataclass(repr=False)
class ComposedNoise(NoiseModel):
    """Sequential composition; each stage gets an independent child RNG.

    Stage RNGs are derived via :func:`repro._rng.spawn` keyed by stage
    position and spec, so ``flip:0.02+drop:0.1`` corrupts identically run
    to run, and a stage's draws do not depend on how many random numbers
    an earlier stage happened to consume.
    """

    models: tuple[NoiseModel, ...]
    name = "composed"

    def spec(self) -> str:
        return "+".join(m.spec() for m in self.models)

    def corrupt(self, raw: RawLog, rng: random.Random) -> RawLog:
        for position, model in enumerate(self.models):
            stage_rng = spawn(rng, f"{position}:{model.spec()}")
            raw = model.corrupt(raw, stage_rng)
        return raw


_MODEL_FACTORIES = {
    "flip": FlipNoise,
    "drop": DropNoise,
    "trunc": TruncateNoise,
    "xmask": XMaskNoise,
    "dup": DuplicateNoise,
}


def parse_noise_spec(spec: str) -> NoiseModel:
    """Parse ``"flip:0.05"`` / ``"flip:0.02+dup:0.1"`` into a noise model."""
    stages: list[NoiseModel] = []
    for part in spec.split("+"):
        name, sep, value = part.strip().partition(":")
        if not sep or not name:
            raise DatalogError(
                f"bad noise spec {part!r}: expected MODEL:RATE "
                f"(models: {', '.join(sorted(_MODEL_FACTORIES))})"
            )
        factory = _MODEL_FACTORIES.get(name)
        if factory is None:
            raise DatalogError(
                f"unknown noise model {name!r}; "
                f"known: {', '.join(sorted(_MODEL_FACTORIES))}"
            )
        try:
            rate = float(value)
        except ValueError:
            raise DatalogError(
                f"bad noise rate {value!r} for model {name!r}"
            ) from None
        stages.append(factory(rate))
    if not stages:
        raise DatalogError(f"empty noise spec {spec!r}")
    if len(stages) == 1:
        return stages[0]
    return ComposedNoise(tuple(stages))


def apply_noise(
    datalog: Datalog,
    outputs: Sequence[str],
    model: NoiseModel,
    seed: int,
) -> RawLog:
    """Corrupt a clean datalog deterministically: one seed, one raw log."""
    raw = RawLog.from_datalog(datalog, outputs)
    return model.corrupt(raw, make_rng(seed))


# -- the ingestion sanitizer --------------------------------------------------


@dataclass
class IngestReport:
    """Counters per anomaly class from one sanitized ingestion."""

    #: identical re-strobes of one pattern, silently deduplicated
    duplicate_records: int = 0
    #: patterns whose re-strobes disagreed (the contradiction quarantine)
    contradictory_records: int = 0
    #: fail strobes demoted to the X tier because records disputed them
    quarantined_atoms: int = 0
    #: strobes explicitly X-masked by the log (compactor annotations)
    masked_atoms: int = 0
    #: repeated output tokens inside a single record line
    duplicate_strobe_tokens: int = 0
    #: records at indices outside the pattern budget, dropped
    out_of_range_records: int = 0
    #: records beyond the declared observed window, dropped as unobserved
    beyond_window_records: int = 0
    #: record lines too malformed to parse at all, dropped
    malformed_lines: int = 0
    #: patterns beyond the observed window (ATE truncation size)
    truncated_patterns: int = 0
    warnings: list[str] = field(default_factory=list)

    @property
    def quarantined(self) -> int:
        """Total strobes the sanitizer refused to treat as hard evidence."""
        return self.quarantined_atoms + self.masked_atoms

    @property
    def anomalies(self) -> int:
        """Total detected anomalies of every class (0 == pristine log)."""
        return (
            self.duplicate_records
            + self.contradictory_records
            + self.quarantined_atoms
            + self.masked_atoms
            + self.duplicate_strobe_tokens
            + self.out_of_range_records
            + self.beyond_window_records
            + self.malformed_lines
        )

    def warn(self, message: str, cap: int = 20) -> None:
        """Record a human-readable warning (bounded; floods summarize)."""
        if len(self.warnings) < cap:
            self.warnings.append(message)
        elif len(self.warnings) == cap:
            self.warnings.append("... further warnings suppressed")

    def to_dict(self) -> dict:
        return {
            "duplicate_records": self.duplicate_records,
            "contradictory_records": self.contradictory_records,
            "quarantined_atoms": self.quarantined_atoms,
            "masked_atoms": self.masked_atoms,
            "duplicate_strobe_tokens": self.duplicate_strobe_tokens,
            "out_of_range_records": self.out_of_range_records,
            "beyond_window_records": self.beyond_window_records,
            "malformed_lines": self.malformed_lines,
            "truncated_patterns": self.truncated_patterns,
            "warnings": list(self.warnings),
        }

    def describe(self) -> str:
        counters = {
            key: value
            for key, value in self.to_dict().items()
            if key != "warnings" and value
        }
        if not counters:
            return "ingestion clean: no anomalies detected"
        body = ", ".join(f"{key}={value}" for key, value in counters.items())
        return f"ingestion anomalies: {body}"


@dataclass
class SanitizedLog:
    """Outcome of one quarantining ingestion."""

    #: hard evidence only; disputed/masked strobes live in ``datalog.x_atoms``
    datalog: Datalog
    report: IngestReport
    raw: RawLog

    @property
    def clean(self) -> bool:
        return self.report.anomalies == 0


def sanitize(raw: RawLog, report: IngestReport | None = None) -> SanitizedLog:
    """Quarantining ingestion: raw records -> tiered :class:`Datalog`.

    Never raises on *semantic* anomalies.  Each detected class is counted
    on the :class:`IngestReport`; contradictory strobes -- outputs that
    some record of a pattern claims failing and another omits -- are
    demoted to the unobserved-X tier (soft-fail), where the three-valued
    diagnosis semantics treat them as evidence-free.  Strobes every
    record agrees on stay hard-fail; explicit ``xmask`` annotations join
    the X tier.  A pristine raw log sanitizes to exactly the strict-parse
    datalog (the machinery is inert on clean data).
    """
    report = report or IngestReport()
    n_patterns = raw.n_patterns
    window = raw.observed_window
    report.truncated_patterns = n_patterns - window

    by_pattern: dict[int, list[frozenset[str]]] = {}
    masked: set[Atom] = set()
    for rec in raw.records:
        idx = rec.pattern_index
        if idx < 0 or idx >= n_patterns:
            report.out_of_range_records += 1
            report.warn(
                f"pattern {idx}: record outside the {n_patterns}-pattern "
                "budget, dropped"
            )
            continue
        if idx >= window:
            report.beyond_window_records += 1
            report.warn(
                f"pattern {idx}: record beyond the observed window of "
                f"{window} patterns, treated as unobserved"
            )
            continue
        tokens = list(rec.outputs)
        repeated = len(tokens) - len(set(tokens))
        if repeated:
            report.duplicate_strobe_tokens += repeated
            report.warn(
                f"pattern {idx}: {repeated} repeated strobe token(s) "
                "within one record"
            )
        outs = frozenset(tokens)
        if rec.kind == "xmask":
            masked.update((idx, out) for out in outs)
        else:
            by_pattern.setdefault(idx, []).append(outs)

    hard_records: list[FailRecord] = []
    soft: set[Atom] = set()
    for idx, claims in sorted(by_pattern.items()):
        agreed = frozenset.intersection(*claims)
        union = frozenset.union(*claims)
        if len(claims) > 1:
            if all(claim == claims[0] for claim in claims[1:]):
                report.duplicate_records += len(claims) - 1
                report.warn(
                    f"pattern {idx}: {len(claims)} identical records, "
                    "deduplicated"
                )
            else:
                report.contradictory_records += 1
                disputed = union - agreed
                report.quarantined_atoms += len(disputed)
                report.warn(
                    f"pattern {idx}: {len(claims)} contradictory records; "
                    f"{len(disputed)} disputed strobe(s) quarantined to X"
                )
                soft.update((idx, out) for out in disputed)
        # A strobe both failing and X-masked is itself a contradiction:
        # the mask wins (the read was not trustworthy), the fail claim is
        # quarantined.
        masked_here = {out for out in agreed if (idx, out) in masked}
        if masked_here:
            report.quarantined_atoms += len(masked_here)
            report.warn(
                f"pattern {idx}: {len(masked_here)} strobe(s) both failing "
                "and X-masked; mask wins, fail claim quarantined"
            )
            agreed -= masked_here
        if agreed:
            hard_records.append(FailRecord(idx, agreed))
    report.masked_atoms = len(masked)
    # Soft (disputed) strobes that also carry an explicit mask are already
    # X; count them once.
    x_atoms = soft | masked

    datalog = Datalog(
        raw.circuit_name,
        n_patterns,
        hard_records,
        n_observed=window,
        x_atoms=x_atoms,
    )
    return SanitizedLog(datalog=datalog, report=report, raw=raw)


def parse_raw_text(text: str, report: IngestReport | None = None) -> RawLog:
    """Tolerant parse of the datalog text format into a :class:`RawLog`.

    Unlike :meth:`Datalog.from_text`, semantic anomalies (duplicates,
    disorder, out-of-window indices) survive into the raw records for the
    sanitizer to judge, and syntactically hopeless lines are counted and
    skipped (``malformed_lines``) instead of raising.  Only a header too
    broken to size the log raises.
    """
    report = report or IngestReport()
    header: dict = {}
    records: list[RawRecord] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line:
            continue
        if line.startswith("#"):
            header.update(header_fields(line, lineno))
            continue
        if line.startswith("fail "):
            kind, body = "fail", line[5:]
        elif line.startswith("xmask "):
            kind, body = "xmask", line[6:]
        else:
            report.malformed_lines += 1
            report.warn(f"line {lineno}: unrecognized {line!r}, skipped")
            continue
        head, sep, tail = body.partition(":")
        try:
            index = int(head.strip())
        except ValueError:
            sep = ""
        if not sep:
            report.malformed_lines += 1
            report.warn(f"line {lineno}: malformed {kind} record, skipped")
            continue
        records.append(RawRecord(kind, index, tuple(tail.split())))
    n_patterns = header.get("patterns")
    if n_patterns is None:
        n_patterns = max(
            (rec.pattern_index for rec in records), default=-1
        ) + 1
    return RawLog(
        circuit_name=header.get("circuit", "unknown"),
        n_patterns=n_patterns,
        n_observed=header.get("observed"),
        records=records,
    )


def ingest_text(text: str) -> SanitizedLog:
    """Tolerant parse + quarantine in one step (the CLI ingestion path)."""
    report = IngestReport()
    raw = parse_raw_text(text, report)
    return sanitize(raw, report)


def read_datalog(
    text: str, *, tolerant: bool
) -> tuple[Datalog, Datalog | RawLog, IngestReport | None]:
    """One die's datalog, the evidence the validation oracle judges its
    report against, and the ingest report: how the CLI and the service
    read a die.

    Tolerant, :func:`ingest_text` quarantines anomalies instead of
    refusing the log, and the oracle judges against the raw log the
    tester emitted.  Strict, :meth:`Datalog.from_text` refuses a
    malformed log, the oracle judges against the datalog itself, and
    there is no ingest report.
    """
    if tolerant:
        sanitized = ingest_text(text)
        return sanitized.datalog, sanitized.raw, sanitized.report
    datalog = Datalog.from_text(text)
    return datalog, datalog, None


__all__ = [
    "RawRecord",
    "RawLog",
    "NoiseModel",
    "FlipNoise",
    "DropNoise",
    "TruncateNoise",
    "XMaskNoise",
    "DuplicateNoise",
    "ComposedNoise",
    "parse_noise_spec",
    "apply_noise",
    "IngestReport",
    "SanitizedLog",
    "sanitize",
    "parse_raw_text",
    "ingest_text",
    "read_datalog",
]
