"""Test application harness: golden vs defective device comparison.

This is the simulated stand-in for the production tester: it applies a
pattern set to a :class:`~repro.faults.injection.FaultyCircuit` (the
"silicon"), compares full responses against the fault-free circuit, and
emits the :class:`~repro.tester.datalog.Datalog` that diagnosis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro._bits import popcount
from repro.circuit.netlist import Netlist
from repro.faults.injection import FaultyCircuit
from repro.faults.models import Defect
from repro.sim.logicsim import mismatched_outputs, simulate_outputs
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog

if TYPE_CHECKING:
    from repro.tester.noise import IngestReport, NoiseModel, RawLog


@dataclass
class TestResult:
    """Everything the tester observed (plus simulation-side ground truth)."""

    datalog: Datalog
    golden_outputs: dict[str, int]
    faulty_outputs: dict[str, int]
    defects: tuple[Defect, ...]
    #: True when two-valued simulation oscillated and the response was
    #: recovered by the three-valued fallback (X bits carry no evidence).
    oscillation_fallback: bool = False
    #: Number of (pattern, output) atoms masked to X by the fallback.
    x_atoms: int = 0
    #: Present only under injected datalog noise: the corrupted raw log as
    #: the "tester" emitted it (``datalog`` is then its sanitized form).
    raw: "RawLog | None" = None
    #: Ingestion anomaly counters from sanitizing ``raw`` (noise runs only).
    ingest: "IngestReport | None" = None

    @property
    def device_fails(self) -> bool:
        return not self.datalog.is_passing_device


def apply_test(
    netlist: Netlist,
    patterns: PatternSet,
    defects: Sequence[Defect],
    on_oscillation: str = "raise",
    noise: "NoiseModel | None" = None,
    noise_seed: int = 0,
) -> TestResult:
    """Apply ``patterns`` to a device carrying ``defects``; log failures.

    ``on_oscillation`` selects what happens when the defect combination has
    no stable two-valued behavior (a ringing short):

    - ``"raise"`` (default): raise
      :class:`~repro.errors.OscillationError`, the historical behavior;
    - ``"fallback"``: degrade to three-valued simulation -- oscillating
      bits resolve to ``X``, an X-valued capture is neither pass nor fail
      evidence, and the result records how much evidence was masked
      (``oscillation_fallback`` / ``x_atoms``).

    ``noise`` (with ``noise_seed``) injects datalog corruption between
    capture and ingestion, exactly where real tester noise lives: the
    clean datalog is corrupted into a raw log, re-ingested through the
    quarantining sanitizer (:mod:`repro.tester.noise`), and the result
    carries the sanitized datalog plus the ``raw`` log and its ``ingest``
    anomaly report.  With ``noise=None`` (the default) nothing changes.
    """
    if on_oscillation not in ("raise", "fallback"):
        raise ValueError(
            f"on_oscillation must be 'raise' or 'fallback', got {on_oscillation!r}"
        )
    golden = simulate_outputs(netlist, patterns)
    dut = FaultyCircuit(netlist, defects)
    fallback = False
    x_atoms = 0
    if on_oscillation == "fallback":
        faulty, xmasks = dut.simulate_outputs_with_x(patterns)
        diff = mismatched_outputs(golden, faulty, patterns.mask)
        if xmasks:
            fallback = True
            # An X capture mismatches nothing: strip masked bits from the
            # evidence instead of logging a mid-oscillation read as a fail.
            for out, xm in xmasks.items():
                x_atoms += popcount(xm & patterns.mask)
                if out in diff:
                    kept = diff[out] & ~xm
                    if kept:
                        diff[out] = kept
                    else:
                        del diff[out]
    else:
        faulty = dut.simulate_outputs(patterns)
        diff = mismatched_outputs(golden, faulty, patterns.mask)
    datalog = Datalog.from_output_diff(netlist.name, patterns.n, diff)
    raw = None
    ingest = None
    if noise is not None:
        from repro.tester.noise import apply_noise, sanitize

        raw = apply_noise(datalog, netlist.outputs, noise, noise_seed)
        sanitized = sanitize(raw)
        datalog = sanitized.datalog
        ingest = sanitized.report
    return TestResult(
        datalog=datalog,
        golden_outputs=golden,
        faulty_outputs=faulty,
        defects=tuple(defects),
        oscillation_fallback=fallback,
        x_atoms=x_atoms,
        raw=raw,
        ingest=ingest,
    )
