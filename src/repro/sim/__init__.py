"""Simulation substrate.

- :mod:`repro.sim.patterns` -- bit-packed test pattern sets,
- :mod:`repro.sim.logicsim` -- two-valued bit-parallel simulation,
- :mod:`repro.sim.threeval` -- three-valued (0/1/X) simulation with site
  overrides (the X-injection engine of the diagnosis method),
- :mod:`repro.sim.event` -- cone-restricted incremental resimulation,
- :mod:`repro.sim.compile` -- per-netlist compiled slot-indexed kernels
  behind the three entry points above (``REPRO_SIM=interp`` selects the
  interpreted oracle path),
- :mod:`repro.sim.cache` -- the cross-stage ``SimContext`` memo (base
  values, flip signatures, resim diffs, X reach) keyed by content
  fingerprints,
- :mod:`repro.sim.faultsim` -- single-defect fault simulation on a
  ``SimContext``, for ATPG, the baselines, refinement and the oracle.
"""

from repro.sim.patterns import PatternSet
from repro.sim.logicsim import simulate, simulate_outputs
from repro.sim.threeval import simulate3, x_injection_reach
from repro.sim.event import resimulate_with_overrides
from repro.sim.compile import COUNTERS, SimCounters, backend
from repro.sim.cache import SimContext, reset_sim_caches, sim_context

__all__ = [
    "PatternSet",
    "simulate",
    "simulate_outputs",
    "simulate3",
    "x_injection_reach",
    "resimulate_with_overrides",
    "COUNTERS",
    "SimCounters",
    "backend",
    "SimContext",
    "reset_sim_caches",
    "sim_context",
]
