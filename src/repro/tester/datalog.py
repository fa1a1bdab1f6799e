"""The tester datalog: observed pass/fail evidence per pattern.

A datalog records, for every applied test pattern, the set of primary
(scan) outputs whose captured value mismatched the expected fault-free
response.  It is the *only* information diagnosis may use about the
failing device -- no assumptions are made about why any pattern failed.

The text serialization is deliberately simple and line-oriented, similar
in spirit to STIL/ATE fail logs::

    # datalog circuit=alu8 patterns=96
    fail 3: r0 r4
    fail 17: carry
    xmask 21: r2

Evidence comes in three confidence tiers.  ``fail`` records are hard-fail
evidence; every strobe of an observed pattern not named by a ``fail`` or
``xmask`` line is hard-pass evidence; ``xmask`` records mark strobes whose
captured value is *unknown* (compactor X-masking, or contradictions
quarantined by the ingestion sanitizer in :mod:`repro.tester.noise`) --
they are neither corroborating nor exculpatory, exactly like the patterns
beyond an ATE-truncated log's observed window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.errors import DatalogError


def header_fields(line: str, lineno: int) -> dict:
    """The ``circuit=``, ``patterns=`` and ``observed=`` fields of one
    ``#`` header line, counts as ints.

    A count that is not a non-negative integer raises
    :class:`DatalogError` naming ``lineno``; other tokens are ignored.
    """
    fields: dict = {}
    for token in line[1:].split():
        key, sep, value = token.partition("=")
        if not sep:
            continue
        if key == "circuit":
            fields[key] = value
        elif key in ("patterns", "observed"):
            try:
                parsed = int(value)
            except ValueError:
                raise DatalogError(
                    f"line {lineno}: bad {key}= value {value!r}"
                ) from None
            if parsed < 0:
                raise DatalogError(
                    f"line {lineno}: {key}= must be >= 0, got {parsed}"
                )
            fields[key] = parsed
    return fields


@dataclass(frozen=True, order=True)
class FailRecord:
    """One failing pattern and its failing outputs."""

    pattern_index: int
    failing_outputs: frozenset[str]

    def __post_init__(self) -> None:
        if not self.failing_outputs:
            raise DatalogError(
                f"pattern {self.pattern_index}: a fail record needs >=1 output"
            )


class Datalog:
    """Immutable pass/fail evidence for one device under one test set."""

    def __init__(
        self,
        circuit_name: str,
        n_patterns: int,
        records: Iterable[FailRecord],
        n_observed: int | None = None,
        x_atoms: Iterable[tuple[int, str]] = (),
    ):
        """``n_observed`` marks how far the fail log extends: patterns at
        index >= n_observed were applied but their results never logged
        (ATE truncation), so they are neither failing nor passing
        evidence.  Defaults to the full test set.

        ``x_atoms`` is the unobserved-X confidence tier: (pattern, output)
        strobes whose captured value is unknown -- masked by a compactor,
        or quarantined as contradictory by the ingestion sanitizer.  An X
        strobe is neither failing nor passing evidence and must be
        disjoint from the fail records."""
        self.circuit_name = circuit_name
        self.n_patterns = n_patterns
        self.n_observed = n_patterns if n_observed is None else n_observed
        if not 0 <= self.n_observed <= n_patterns:
            raise DatalogError(
                f"n_observed {self.n_observed} outside 0..{n_patterns}"
            )
        recs = sorted(records)
        seen: set[int] = set()
        for rec in recs:
            if not 0 <= rec.pattern_index < self.n_observed:
                raise DatalogError(
                    f"fail record index {rec.pattern_index} outside the "
                    f"observed window of {self.n_observed} patterns"
                )
            if rec.pattern_index in seen:
                raise DatalogError(f"duplicate fail record {rec.pattern_index}")
            seen.add(rec.pattern_index)
        self.records: tuple[FailRecord, ...] = tuple(recs)
        self._by_index: dict[int, frozenset[str]] = {
            rec.pattern_index: rec.failing_outputs for rec in self.records
        }
        # X strobes beyond the observed window are redundant (the whole
        # suffix is already unobserved) and are normalized away.
        self.x_atoms: frozenset[tuple[int, str]] = frozenset(
            (idx, out) for idx, out in x_atoms if idx < self.n_observed
        )
        for idx, out in self.x_atoms:
            if idx < 0:
                raise DatalogError(f"X-masked strobe index {idx} is negative")
            if out in self._by_index.get(idx, frozenset()):
                raise DatalogError(
                    f"strobe ({idx}, {out!r}) is both failing and X-masked; "
                    "contradictions must be quarantined before construction"
                )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_output_diff(
        cls, circuit_name: str, n_patterns: int, diff: Mapping[str, int]
    ) -> "Datalog":
        """Build from per-output mismatch bit vectors (simulation side)."""
        per_pattern: dict[int, set[str]] = {}
        for out, vec in diff.items():
            v = vec
            while v:
                low = v & -v
                idx = low.bit_length() - 1
                per_pattern.setdefault(idx, set()).add(out)
                v ^= low
        records = [
            FailRecord(idx, frozenset(outs)) for idx, outs in per_pattern.items()
        ]
        return cls(circuit_name, n_patterns, records)

    # -- queries ------------------------------------------------------------------

    @property
    def failing_indices(self) -> tuple[int, ...]:
        return tuple(rec.pattern_index for rec in self.records)

    @property
    def passing_indices(self) -> tuple[int, ...]:
        """Patterns with *observed* passing results (truncation-aware)."""
        failing = set(self._by_index)
        return tuple(i for i in range(self.n_observed) if i not in failing)

    @property
    def unobserved_indices(self) -> tuple[int, ...]:
        """Patterns applied but never logged (beyond the truncation point)."""
        return tuple(range(self.n_observed, self.n_patterns))

    @property
    def is_passing_device(self) -> bool:
        return not self.records

    def failing_outputs_of(self, pattern_index: int) -> frozenset[str]:
        """Failing outputs of a pattern (empty set when it passed)."""
        return self._by_index.get(pattern_index, frozenset())

    def x_outputs_of(self, pattern_index: int) -> frozenset[str]:
        """Outputs whose capture is unknown (X tier) for a pattern."""
        return frozenset(
            out for idx, out in self.x_atoms if idx == pattern_index
        )

    @property
    def n_x_atoms(self) -> int:
        return len(self.x_atoms)

    def fail_atoms(self) -> set[tuple[int, str]]:
        """All observed (pattern, output) failure atoms."""
        return {
            (rec.pattern_index, out)
            for rec in self.records
            for out in rec.failing_outputs
        }

    @property
    def n_fail_atoms(self) -> int:
        return sum(len(rec.failing_outputs) for rec in self.records)

    def fail_x_vectors(self) -> dict[str, int]:
        """X-tier strobes of *failing* patterns as per-output bit vectors.

        Same pattern-index axis as :meth:`observed_diff`: bit ``i`` of
        ``fail_x_vectors()[out]`` is set iff pattern ``i`` failed and its
        ``out`` strobe is X.  X strobes of passing patterns carry no
        per-test evidence and are omitted.
        """
        vecs: dict[str, int] = {}
        for idx, out in self.x_atoms:
            if idx in self._by_index:
                vecs[out] = vecs.get(out, 0) | (1 << idx)
        return vecs

    def observed_diff(self, output_order: Sequence[str]) -> dict[str, int]:
        """Inverse of :meth:`from_output_diff`: per-output mismatch vectors.

        Bit ``i`` of ``observed_diff(...)[out]`` is set iff pattern ``i``
        fails at ``out``; outputs that never fail are omitted.
        """
        diff = {out: 0 for out in output_order}
        for rec in self.records:
            for out in rec.failing_outputs:
                if out not in diff:
                    raise DatalogError(f"datalog names unknown output {out!r}")
                diff[out] |= 1 << rec.pattern_index
        return {out: vec for out, vec in diff.items() if vec}

    # -- tester realism ----------------------------------------------------------

    def truncate(
        self,
        max_failing_patterns: int | None = None,
        max_fail_atoms: int | None = None,
    ) -> "Datalog":
        """Simulate ATE fail-log truncation.

        Production testers stop logging after a configured number of
        failing cycles and/or failing bits to bound test time; diagnosis
        then works from a *prefix* of the evidence.  Records are kept in
        pattern order; a record that would exceed ``max_fail_atoms`` is
        dropped whole (testers truncate at capture granularity).
        """
        records: list[FailRecord] = []
        atoms = 0
        cutoff = self.n_observed
        for record in self.records:
            if (
                max_failing_patterns is not None
                and len(records) >= max_failing_patterns
            ) or (
                max_fail_atoms is not None
                and atoms + len(record.failing_outputs) > max_fail_atoms
            ):
                # The tester stops logging right before this record: later
                # patterns were applied but their results are unknown.
                cutoff = record.pattern_index
                break
            records.append(record)
            atoms += len(record.failing_outputs)
        return Datalog(
            self.circuit_name,
            self.n_patterns,
            records,
            n_observed=cutoff,
            x_atoms={(idx, out) for idx, out in self.x_atoms if idx < cutoff},
        )

    # -- serialization -----------------------------------------------------------

    def to_text(self) -> str:
        header = f"# datalog circuit={self.circuit_name} patterns={self.n_patterns}"
        if self.n_observed != self.n_patterns:
            header += f" observed={self.n_observed}"
        lines = [header]
        for rec in self.records:
            outs = " ".join(sorted(rec.failing_outputs))
            lines.append(f"fail {rec.pattern_index}: {outs}")
        x_by_index: dict[int, list[str]] = {}
        for idx, out in self.x_atoms:
            x_by_index.setdefault(idx, []).append(out)
        for idx in sorted(x_by_index):
            lines.append(f"xmask {idx}: {' '.join(sorted(x_by_index[idx]))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Datalog":
        """Parse the line-oriented serialization (strict).

        Every malformed construct raises :class:`DatalogError` carrying
        the offending line number -- a truncated or corrupted fail log
        must never surface as an arbitrary ``ValueError``/``KeyError``
        deep inside diagnosis.  Strict also means *semantically* clean:
        duplicate (pattern, output) strobe tokens, repeated records for
        one pattern, and out-of-order pattern indices (testers log in
        application order -- a non-monotonic log is corrupted or spliced)
        are all rejected with file/line context.  Suspect real-world logs
        go through :func:`repro.tester.noise.ingest_text`, which
        quarantines these anomalies instead of raising.
        """
        header: dict = {}
        records: list[FailRecord] = []
        x_atoms: set[tuple[int, str]] = set()
        seen_lines: dict[tuple[str, int], int] = {}
        last_index: dict[str, int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                header.update(header_fields(line, lineno))
                continue
            kind, index, outs = cls._parse_record_line(line, lineno)
            prev_line = seen_lines.get((kind, index))
            if prev_line is not None:
                raise DatalogError(
                    f"line {lineno}: duplicate {kind} record for pattern "
                    f"{index} (first logged at line {prev_line}); "
                    "contradictory re-strobes must go through the "
                    "ingestion quarantine"
                )
            seen_lines[(kind, index)] = lineno
            prev_index = last_index.get(kind)
            if prev_index is not None and index < prev_index:
                raise DatalogError(
                    f"line {lineno}: pattern index {index} out of order "
                    f"(previous {kind} record was {prev_index}); testers "
                    "log in application order, so this log is corrupted "
                    "or spliced"
                )
            last_index[kind] = index
            if kind == "fail":
                try:
                    records.append(FailRecord(index, outs))
                except DatalogError as exc:
                    raise DatalogError(f"line {lineno}: {exc}") from None
            else:
                x_atoms.update((index, out) for out in outs)
        n_patterns = header.get("patterns")
        if n_patterns is None:
            n_patterns = max(
                max((r.pattern_index for r in records), default=-1),
                max((idx for idx, _out in x_atoms), default=-1),
            ) + 1
        return cls(
            header.get("circuit", "unknown"),
            n_patterns,
            records,
            n_observed=header.get("observed"),
            x_atoms=x_atoms,
        )

    @staticmethod
    def _parse_record_line(
        line: str, lineno: int
    ) -> tuple[str, int, frozenset[str]]:
        """Parse one ``fail``/``xmask`` record line, strictly."""
        if line.startswith("fail "):
            kind, body = "fail", line[5:]
        elif line.startswith("xmask "):
            kind, body = "xmask", line[6:]
        else:
            raise DatalogError(f"line {lineno}: unrecognized {line!r}")
        head, sep, tail = body.partition(":")
        if not sep:
            raise DatalogError(
                f"line {lineno}: {kind} record is missing ':' separator"
            )
        try:
            index = int(head.strip())
        except ValueError:
            raise DatalogError(f"line {lineno}: bad pattern index") from None
        if index < 0:
            raise DatalogError(
                f"line {lineno}: pattern index must be >= 0, got {index}"
            )
        tokens = tail.split()
        duplicated = sorted({out for out in tokens if tokens.count(out) > 1})
        if duplicated:
            raise DatalogError(
                f"line {lineno}: duplicate strobe token(s) {duplicated} in "
                f"{kind} record for pattern {index}"
            )
        return kind, index, frozenset(tokens)

    def validate_for(self, netlist, n_patterns: int | None = None) -> None:
        """Check this datalog is consistent with a circuit (and test set).

        Raises :class:`DatalogError` naming the first inconsistency: a
        circuit-name mismatch, a failing output the circuit does not
        drive, or a pattern budget that does not match the test set the
        diagnosis will simulate.
        """
        if self.circuit_name not in ("unknown", netlist.name):
            raise DatalogError(
                f"datalog was captured on circuit {self.circuit_name!r}, "
                f"not {netlist.name!r}"
            )
        known = set(netlist.outputs)
        for rec in self.records:
            unknown = rec.failing_outputs - known
            if unknown:
                raise DatalogError(
                    f"pattern {rec.pattern_index}: failing output(s) "
                    f"{sorted(unknown)} not driven by circuit {netlist.name!r}"
                )
        for idx, out in sorted(self.x_atoms):
            if out not in known:
                raise DatalogError(
                    f"pattern {idx}: X-masked output {out!r} not driven "
                    f"by circuit {netlist.name!r}"
                )
        if n_patterns is not None and self.n_patterns != n_patterns:
            raise DatalogError(
                f"datalog covers {self.n_patterns} patterns but the test "
                f"set has {n_patterns}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Datalog):
            return NotImplemented
        return (
            self.circuit_name == other.circuit_name
            and self.n_patterns == other.n_patterns
            and self.n_observed == other.n_observed
            and self.records == other.records
            and self.x_atoms == other.x_atoms
        )

    def __repr__(self) -> str:
        x_note = f", {len(self.x_atoms)} X strobes" if self.x_atoms else ""
        return (
            f"Datalog({self.circuit_name!r}, {len(self.records)} failing / "
            f"{self.n_patterns} patterns, {self.n_fail_atoms} fail atoms"
            f"{x_note})"
        )
