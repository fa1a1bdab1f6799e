"""Response-match metrics and passing-pattern vindication.

Scoring compares the simulated response of a hypothesized fault (or a
whole multiplet of them) against the datalog at the granularity of fail
atoms -- (pattern, output) pairs:

- ``hits``: observed fail atoms the hypothesis reproduces,
- ``misses``: observed atoms it does not reproduce,
- ``false_alarms``: failures predicted on patterns the tester saw passing.

A :class:`MatchCounter` holds one die's evidence as per-output bit vectors
and scores a simulated response -- per-output delta vectors, as
:func:`~repro.sim.faultsim.defect_output_diff` returns them -- with a few
ANDs and popcounts, never expanding it into atoms.  Refinement, the
validation oracle and the single-fault baseline score through it;
:func:`match_counts` and :func:`atoms_iou` are the same counts over atom
sets, for the dictionary baseline, whose stored signatures are atom sets.

Vindication is the classic effect-cause step of using *passing* patterns
as exculpatory evidence: a deterministic, always-active model (stuck-at,
open, dominant bridge, gross delay) that predicts a failure on an observed
passing pattern is contradicted by silicon and removed.  Under multiple
defects this is slightly aggressive -- another defect could in principle
mask the predicted failure -- so it is switchable
(:attr:`~repro.core.diagnose.DiagnosisConfig.vindicate`, measured by
ablation C) and never removes the model-free ``arbitrary`` hypothesis,
preserving the no-assumptions envelope.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro._bits import popcount
from repro.core.xcover import Atom
from repro.errors import OscillationError
from repro.faults.injection import FaultyCircuit
from repro.faults.models import Defect
from repro.sim.cache import SimContext
from repro.sim.faultsim import defect_output_diff
from repro.tester.datalog import Datalog


def diff_to_atoms(diff: Mapping[str, int]) -> frozenset[Atom]:
    """Expand per-output mismatch vectors into (pattern, output) atoms."""
    atoms: set[Atom] = set()
    for out, vec in diff.items():
        v = vec
        while v:
            low = v & -v
            atoms.add((low.bit_length() - 1, out))
            v ^= low
    return frozenset(atoms)


def match_counts(
    predicted: frozenset[Atom],
    observed: frozenset[Atom],
    failing_indices: Iterable[int],
    n_observed: int | None = None,
    x_atoms: frozenset[Atom] = frozenset(),
) -> tuple[int, int, int]:
    """(hits, misses, false_alarms) of a predicted response.

    ``false_alarms`` counts predicted atoms on patterns with an *observed*
    pass: patterns at index >= ``n_observed`` (an ATE-truncated fail log)
    carry no evidence either way and never vindicate.  Predicted atoms on
    failing patterns at unobserved outputs are tolerated (another defect
    of the multiplet may mask them) and count neither way.  ``x_atoms``
    (strobes the ingestion sanitizer quarantined or the compactor masked)
    are evidence-free the same way: a prediction there neither hits nor
    vindicates.
    """
    failing = set(failing_indices)
    hits = len(predicted & observed)
    misses = len(observed - predicted)
    false_alarms = sum(
        1
        for idx, out in predicted - observed
        if idx not in failing
        and (n_observed is None or idx < n_observed)
        and (idx, out) not in x_atoms
    )
    return hits, misses, false_alarms


def atoms_iou(predicted: frozenset[Atom], observed: frozenset[Atom]) -> float:
    """Intersection-over-union response similarity (1.0 = perfect match)."""
    union = predicted | observed
    if not union:
        return 1.0
    return len(predicted & observed) / len(union)


class MatchCounter:
    """:func:`match_counts` and :func:`atoms_iou` of per-output responses
    against one fixed body of evidence, as bit vectors.

    Built once from the inputs :func:`match_counts` takes: the observed
    atoms become one vector of patterns per output, the observed passing
    patterns (inside the ``n_observed`` window and outside
    ``failing_indices``) one mask, and the ``x_atoms`` are cleared from
    that mask output by output.  A response then costs an AND and a
    popcount per output it flips.  The counts are the same integers as
    over atom sets.
    """

    __slots__ = ("n_atoms", "_observed", "_alarms", "_passing")

    def __init__(
        self,
        observed: Iterable[Atom],
        failing_indices: Iterable[int],
        n_observed: int | None = None,
        x_atoms: Iterable[Atom] = frozenset(),
    ):
        vectors: dict[str, int] = {}
        for idx, out in observed:
            vectors[out] = vectors.get(out, 0) | 1 << idx
        # -1 is every pattern: an untruncated log observes them all.
        passing = -1 if n_observed is None else (1 << max(n_observed, 0)) - 1
        for idx in failing_indices:
            passing &= ~(1 << idx)
        alarms = {out: passing & ~vec for out, vec in vectors.items()}
        for idx, out in x_atoms:
            alarms[out] = alarms.get(out, passing) & ~(1 << idx)
        self.n_atoms = sum(map(popcount, vectors.values()))
        self._observed = vectors
        self._alarms = alarms
        self._passing = passing

    @classmethod
    def of_datalog(cls, datalog: Datalog) -> "MatchCounter":
        """The counter of a datalog's own evidence: its fail atoms,
        failing patterns, observed window and X tier."""
        return cls(
            datalog.fail_atoms(),
            datalog.failing_indices,
            datalog.n_observed,
            datalog.x_atoms,
        )

    def counts(self, diff: Mapping[str, int]) -> tuple[int, int, int]:
        """(hits, misses, false_alarms) of the response ``diff``."""
        observed = self._observed
        alarms = self._alarms
        passing = self._passing
        hits = false_alarms = 0
        for out, vec in diff.items():
            hits += popcount(vec & observed.get(out, 0))
            false_alarms += popcount(vec & alarms.get(out, passing))
        return hits, self.n_atoms - hits, false_alarms

    def iou(self, diff: Mapping[str, int]) -> float:
        """Intersection over union of the response ``diff`` and the
        observed atoms (1.0 when both are empty)."""
        observed = self._observed
        hits = predicted = 0
        for out, vec in diff.items():
            predicted += popcount(vec)
            hits += popcount(vec & observed.get(out, 0))
        union = predicted + self.n_atoms - hits
        return hits / union if union else 1.0


def multiplet_diff(ctx: SimContext, defects: Iterable[Defect]) -> dict[str, int] | None:
    """Per-output response of a concrete multiplet injected jointly on
    ``ctx``'s netlist and test set, or None if it is empty or unsimulable.

    One defect is read through :func:`~repro.sim.faultsim.defect_output_diff`
    (so a single-site model costs no resim of its own); two or more take
    the :class:`~repro.faults.injection.FaultyCircuit` fixpoint.
    """
    defects = list(defects)
    if not defects:
        return None
    try:
        if len(defects) == 1:
            return defect_output_diff(ctx, defects[0])
        faulty = FaultyCircuit(ctx.netlist, defects).simulate_outputs(ctx.patterns)
    except OscillationError:
        return None
    return ctx.output_diff(faulty)


def multiplet_iou(
    ctx: SimContext, defects: Iterable[Defect], counter: MatchCounter
) -> float | None:
    """Joint-simulation IoU of a concrete multiplet against ``counter``'s
    evidence, or None if unsimulable."""
    diff = multiplet_diff(ctx, defects)
    return None if diff is None else counter.iou(diff)
