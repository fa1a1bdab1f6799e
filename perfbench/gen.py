"""Die generator: the tester emulation, run before and outside every
measured process.

Writes a pickle of ``{"circuit", "warmup", "dies"}`` where each die is
``(datalog_text, defects)``.  The dies follow from ``--seed`` alone:
defect sets come from ``sample_defect_set`` with the default defect mix,
failures from ``apply_test`` against the ATPG test set the program itself
provisions.  Defect sets the device does not fail on, or that cannot be
sampled or simulated, are redrawn; a datalog equal to an earlier one is
skipped, so no daemon is ever sent the same job twice.

Usage: ``python3 perfbench/gen.py CIRCUIT K INTERACTING SEED COUNT OUT``
(with the checkout's ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import pickle
import random
import sys

from repro import apply_test, load_circuit, provision_patterns, sample_defect_set
from repro.errors import FaultModelError, OscillationError


def generate(circuit: str, k: int, interacting: bool, seed: int, count: int) -> dict:
    netlist = load_circuit(circuit)
    patterns = provision_patterns(netlist)
    # A string seed hashes through SHA-512, independent of PYTHONHASHSEED.
    rng = random.Random(f"{circuit}:k{k}:{int(interacting)}:{seed}")
    seen: set[str] = set()
    dies = []
    while len(dies) < count + 1:
        try:
            defects = sample_defect_set(
                netlist, k, seed=rng.getrandbits(63), interacting=interacting
            )
            result = apply_test(netlist, patterns, defects, "fallback")
        except (FaultModelError, OscillationError):
            continue
        text = result.datalog.to_text()
        if not result.device_fails or text in seen:
            continue
        seen.add(text)
        dies.append((text, defects))
    return {"circuit": circuit, "warmup": dies[0], "dies": dies[1:]}


def main(argv: list[str]) -> int:
    circuit, k, interacting, seed, count, out = argv
    payload = generate(circuit, int(k), interacting == "1", int(seed), int(count))
    with open(out, "wb") as fh:
        pickle.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
