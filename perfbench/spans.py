"""Layer spans recorded from outside the program.

:func:`install` replaces each layer's public entry points with wrappers
that record a span per call; :meth:`Layers.uninstall` puts the originals
back.  Nothing in the program changes, and the wrappers exist only in a
traced run.  A span is ``[layer, start, end, parent, die]``; a call made
while the innermost open span belongs to the same layer folds into that
span, so a layer's self time never counts its own recursion twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class SpanRecorder:
    """In-memory span list with a call stack (one thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.die = None

    def open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, self.clock(), 0.0, parent, self.die])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self.stack.pop()

    def wrap(self, layer: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            index = self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _layer, start, end, _parent, _die in spans]
    for _layer, start, end, parent, _die in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans, dies=None) -> tuple[dict, dict]:
    """``(self seconds, span count)`` per layer, over spans whose die is in
    ``dies`` (all spans when None)."""
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        if dies is None or span[4] in dies:
            seconds[span[0]] += own
            counts[span[0]] += 1
    return dict(seconds), dict(counts)


def to_forest(spans) -> list[dict]:
    """Span records as the nested dicts :mod:`repro.obs.trace` exports."""
    nodes = []
    roots = []
    for layer, start, end, parent, die in spans:
        node = {"name": layer, "start": start, "duration": end - start}
        if die is not None:
            node["meta"] = {"die": die}
        nodes.append(node)
        if parent >= 0:
            nodes[parent].setdefault("children", []).append(node)
        else:
            roots.append(node)
    return roots


class Layers:
    """The installed wrappers, so they can be removed again."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _patch_function(layers: Layers, recorder: SpanRecorder, layer: str, fn) -> None:
    """Route every ``repro`` module's reference to ``fn`` through a span."""
    wrapper = recorder.wrap(layer, fn)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                layers.replace(module, name, wrapper)


def install(recorder: SpanRecorder) -> Layers:
    """Wrap the public entry point of every layer the benchmark reports."""
    from repro.campaign.driver import provision_patterns
    from repro.circuit.library import load_circuit
    from repro.core import diagnose as diagnose_mod
    from repro.core.diagnose import Diagnoser
    from repro.sim.cache import SimContext
    from repro.tester.datalog import Datalog

    layers = Layers()
    functions = [
        ("circuit", load_circuit),
        ("atpg", provision_patterns),
        ("sim", diagnose_mod.sim_context),
        ("core.backtrace", diagnose_mod.candidate_sites),
        ("core.pertest", diagnose_mod.build_pertest),
        ("core.cover", diagnose_mod.greedy_pertest_cover),
        ("core.cover", diagnose_mod.enumerate_pertest_min_covers),
        ("core.refine", diagnose_mod.allocate_hypotheses),
        ("core.scoring", diagnose_mod.multiplet_iou),
        ("core.scoring", diagnose_mod.concrete_defects),
    ]
    for layer, fn in functions:
        _patch_function(layers, recorder, layer, fn)
    for name in ("flip_signature", "resim_diff", "x_reach"):
        layers.replace(SimContext, name, recorder.wrap("sim", SimContext.__dict__[name]))
    layers.replace(Diagnoser, "diagnose", recorder.wrap("core", Diagnoser.diagnose))
    from_text = Datalog.__dict__["from_text"].__func__
    layers.replace(Datalog, "from_text", classmethod(recorder.wrap("tester", from_text)))
    return layers
