"""The paper's contribution: assumption-free multiple defect diagnosis.

Modules:

- :mod:`repro.core.backtrace` -- structural candidate extraction and exact
  (flip-based) critical path tracing,
- :mod:`repro.core.xcover` -- the X-injection coverage analysis that
  over-approximates every possible defect behavior at a site,
- :mod:`repro.core.cover` -- multiplet covering (greedy with masking-pair
  rescue, pruning, and exact enumeration for small instances),
- :mod:`repro.core.hitting` -- implicit-hitting-set exact cover engine
  (provably minimum-cardinality multiplets with an optimality status),
- :mod:`repro.core.refine` -- fault-model allocation per candidate site,
- :mod:`repro.core.scoring` -- response-match metrics and vindication,
- :mod:`repro.core.diagnose` -- the :class:`Diagnoser` pipeline,
- :mod:`repro.core.single_fault` -- classic single-fault effect-cause
  baseline,
- :mod:`repro.core.slat` -- SLAT/per-test multiple-fault baseline,
- :mod:`repro.core.report` -- result data structures,
- :mod:`repro.core.budget` -- anytime resource governance (deadlines,
  expansion/multiplet ceilings, cooperative cancellation),
- :mod:`repro.core.oracle` -- post-diagnosis validation against the raw
  (pre-sanitized) tester evidence.
"""

from repro.core.budget import Budget, CancellationToken, Truncation
from repro.core.oracle import validate_report
from repro.core.report import (
    Candidate,
    DiagnosisReport,
    Hypothesis,
    Multiplet,
    Validation,
)
from repro.core.diagnose import Diagnoser, DiagnosisConfig
from repro.core.single_fault import diagnose_single_fault
from repro.core.slat import diagnose_slat

__all__ = [
    "Budget",
    "CancellationToken",
    "Truncation",
    "Candidate",
    "DiagnosisReport",
    "Hypothesis",
    "Multiplet",
    "Validation",
    "Diagnoser",
    "DiagnosisConfig",
    "diagnose_single_fault",
    "diagnose_slat",
    "validate_report",
]
