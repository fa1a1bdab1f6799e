"""Fault-dictionary (cause-effect) diagnosis baseline.

The classical pre-computed alternative the effect-cause paradigm competes
with: simulate the *entire* fault universe once, store every fault's full
response signature, and diagnose by looking observed responses up in the
dictionary.  Lookup is fast, but the dictionary build is
O(|universe| x simulation) per test set and must be redone whenever the
patterns change -- the cost structure the reproduced paper's approach
avoids (it only ever simulates inside the failing die's candidate
envelope).  Ablation D quantifies this trade.

The dictionary here covers the collapsed single stuck-at universe; like
every single-fault technique it degrades on multi-defect composite
responses, which the ranked partial-match lookup makes measurable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.circuit.netlist import Netlist
from repro.core.report import Candidate, DiagnosisReport, Hypothesis, Multiplet
from repro.core.scoring import atoms_iou, diff_to_atoms, match_counts
from repro.core.xcover import Atom
from repro.errors import DiagnosisError
from repro.faults.collapse import collapse_stuck_at
from repro.faults.models import StuckAtDefect
from repro.sim.cache import sim_context
from repro.sim.faultsim import defect_output_diff
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog

METHOD_NAME = "dictionary"
#: How many best-matching entries a lookup returns.
TOP_K = 10


@dataclass
class FaultDictionary:
    """Precomputed full-response signatures of the stuck-at universe."""

    netlist: Netlist
    patterns: PatternSet
    signatures: dict[StuckAtDefect, frozenset[Atom]]
    build_seconds: float

    @property
    def n_entries(self) -> int:
        return len(self.signatures)

    def lookup(
        self, datalog: Datalog
    ) -> list[tuple[float, StuckAtDefect, frozenset[Atom]]]:
        """The :data:`TOP_K` entries ranked highest by IoU against the
        observed fail atoms."""
        observed = frozenset(datalog.fail_atoms())
        scored = [
            (atoms_iou(signature, observed), fault, signature)
            for fault, signature in self.signatures.items()
            if signature & observed
        ]
        scored.sort(key=lambda item: (-item[0], str(item[1])))
        return scored[:TOP_K]


def build_dictionary(netlist: Netlist, patterns: PatternSet) -> FaultDictionary:
    """Simulate the whole collapsed stuck-at universe (the expensive step)."""
    started = time.perf_counter()
    ctx = sim_context(netlist, patterns)
    signatures: dict[StuckAtDefect, frozenset[Atom]] = {}
    for fault in collapse_stuck_at(netlist).representatives:
        diff = defect_output_diff(ctx, fault)
        signatures[fault] = diff_to_atoms(diff)
    return FaultDictionary(
        netlist=netlist,
        patterns=patterns,
        signatures=signatures,
        build_seconds=time.perf_counter() - started,
    )


#: Keyed by (circuit name, pattern-content fingerprint): two different
#: pattern sets of equal length hash differently, so they never collide the
#: way the old ``(name, n)`` key could.  Module-level caches are per
#: process by construction, which makes them safe under the multi-process
#: campaign runner -- each worker warms its own copy (fork inherits the
#: parent's).
_dictionary_cache: dict[tuple[str, str], FaultDictionary] = {}


def dictionary_for(netlist: Netlist, patterns: PatternSet) -> FaultDictionary:
    """Build-once fault dictionary for a (circuit, test set) pair.

    The cache mirrors reality: the dictionary is built once per test set
    and amortized over every diagnosed device; its build cost is reported
    in the diagnosis stats.
    """
    key = (netlist.name, patterns.fingerprint())
    dictionary = _dictionary_cache.get(key)
    if dictionary is None:
        dictionary = build_dictionary(netlist, patterns)
        _dictionary_cache[key] = dictionary
    return dictionary


def diagnose_dictionary(
    dictionary: FaultDictionary, datalog: Datalog
) -> DiagnosisReport:
    """Dictionary lookup diagnosis (requires a prebuilt dictionary)."""
    if datalog.n_patterns != dictionary.patterns.n:
        raise DiagnosisError("datalog/dictionary pattern count mismatch")
    started = time.perf_counter()
    netlist = dictionary.netlist
    if datalog.is_passing_device:
        return DiagnosisReport(method=METHOD_NAME, circuit=netlist.name)

    observed = frozenset(datalog.fail_atoms())
    ranked = dictionary.lookup(datalog)
    exact = [(iou, f, sig) for iou, f, sig in ranked if iou == 1.0]
    kept = exact if exact else ranked

    failing = datalog.failing_indices
    candidates = []
    multiplets = []
    for iou, fault, signature in kept:
        hits, misses, fa = match_counts(
            signature, observed, failing, datalog.n_observed, datalog.x_atoms
        )
        hypothesis = Hypothesis(
            kind=f"sa{fault.value}",
            site=fault.site,
            hits=hits,
            misses=misses,
            false_alarms=fa,
        )
        candidates.append(
            Candidate(site=fault.site, hypotheses=(hypothesis,), explained_atoms=hits)
        )
        multiplets.append(
            Multiplet(
                sites=(fault.site,),
                covered_atoms=hits,
                total_atoms=len(observed),
                iou=iou,
            )
        )
    stats = {
        "seconds": time.perf_counter() - started,
        "build_seconds": dictionary.build_seconds,
        "n_dictionary_entries": float(dictionary.n_entries),
        "n_exact_matches": float(len(exact)),
        "best_iou": ranked[0][0] if ranked else 0.0,
    }
    best_sig = kept[0][2] if kept else frozenset()
    return DiagnosisReport(
        method=METHOD_NAME,
        circuit=netlist.name,
        candidates=tuple(candidates),
        multiplets=tuple(multiplets),
        uncovered_atoms=frozenset(observed - best_sig),
        stats=stats,
    )
