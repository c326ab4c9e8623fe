"""Layer spans recorded from outside the program.

``install`` replaces the module and class attributes through which the
program calls its layers (``grouptensor.tensor.realize``,
``grouptensor.fp.coset_enumerate``, ``PolyMatrix.is_identity``, ...)
with wrappers that open a span, call the original and close the span.
A module attribute is replaced in every loaded ``grouptensor`` module
that binds the same object, so internal calls and package re-exports
are both traced.  The program's files are never changed; the wrappers
exist only in a traced worker process, and only during its traced
rounds.

``install`` returns a function that puts the originals back, so one
worker can alternate plain and traced rounds.

A span is ``[layer, parent, round, job, start, end]``.  A layer's self
time is the time inside its spans less the time inside their child
spans, so the self times of all layers, the benchmark's own ``bench``
layer included, add up to the traced wall time.  Spans stay in memory
until the worker writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.round = -1
        self.job = -1
        self._stack = []

    def open(self, layer: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(
            [layer, parent, self.round, self.job,
             time.perf_counter() if start is None else start, None]
        )
        self._stack.append(index)
        return index

    def close(self, index: int, end: float | None = None):
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index][5] = time.perf_counter() if end is None else end

    def wrap(self, fn, layer: str, count=None):
        """``fn`` inside a span of ``layer``; ``count(args, result)``
        returns ``{counter: amount}`` to add once the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return traced

    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for layer, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (layer, _, _, _, start, end), inner in zip(self.spans, child):
            out[layer] += (end - start) - inner
        return out


def _bindings(original) -> list:
    """Every (grouptensor module, attribute) bound to ``original``."""
    out = []
    for name, module in list(sys.modules.items()):
        if name != "grouptensor" and not name.startswith("grouptensor."):
            continue
        out += [(module, attr) for attr, value in vars(module).items()
                if value is original]
    return out


def install(tracer: Tracer):
    """Wrap every traced entry point; returns a function that undoes it."""
    import grouptensor.actions as actions
    import grouptensor.fp as fp
    import grouptensor.polymat as polymat
    import grouptensor.reps as reps
    import grouptensor.simplify as simplify
    import grouptensor.tensor as tensor

    def relators(args, result):
        return {"tensor.relators": len(result.relators)}

    def reduced(args, result):
        pres = result[0]
        return {
            "simplify.generators_out": pres.num_generators,
            "simplify.relators_out": len(pres.relators),
        }

    def cosets(args, result):
        return {"fp.cosets": result.num_cosets}

    def letters(args, result):
        return {"reps.letters": len(args[1])}

    def commutators(args, result):
        return {"reps.commutators": 1}

    def terms(args, result):
        m = args[0]
        return {"polymat.terms": sum(len(e.terms) for row in m.rows for e in row)}

    functions = [
        (tensor, "tensor_presentation", "tensor.presentation_s", relators),
        (tensor, "peiffer_presentation", "tensor.presentation_s", relators),
        (actions, "conjugation_pair", "actions.pair_s", None),
        (actions, "trivial_pair", "actions.pair_s", None),
        (simplify, "tietze_reduce", "simplify.tietze_s", reduced),
        (fp, "coset_enumerate", "fp.enumerate_s", cosets),
        (fp, "realize", "fp.realize_s", None),
        (tensor, "tensor_square", "tensor.build_self_s", None),
        (tensor, "exterior_square", "tensor.build_self_s", None),
        (tensor, "tensor_product", "tensor.build_self_s", None),
        (tensor, "peiffer_product", "tensor.build_self_s", None),
        (reps, "sanov_f2", "reps.build_s", None),
        (reps, "free_embedding", "reps.build_s", None),
        (reps, "unitriangular_nilpotent_rep", "reps.build_s", None),
        (reps, "left_normed_commutator", "reps.commutator_s", commutators),
    ]
    methods = [
        (fp.FpPresentation, "__post_init__", "fp.presentation_s", None),
        (fp.FpPresentation, "with_extra_relators", "fp.presentation_s", None),
        (fp.FiniteGroupRealization, "abelian_invariants",
         "fp.abelian_invariants_s", None),
        (tensor.TensorGroup, "__init__", "tensor.verify_s", None),
        (tensor.PeifferGroup, "__init__", "tensor.verify_s", None),
        (tensor.TensorGroup, "act", "tensor.action_s", None),
        (reps.RepPackage, "evaluate", "reps.evaluate_s", letters),
        (polymat.PolyMatrix, "is_identity", "polymat.is_identity_s", terms),
    ]
    patched = []
    for module, attr, layer, count in functions:
        original = getattr(module, attr)
        wrapper = tracer.wrap(original, layer, count)
        for owner, name in _bindings(original):
            patched.append((owner, name, original))
            setattr(owner, name, wrapper)
    for cls, attr, layer, count in methods:
        original = vars(cls)[attr]
        patched.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(original, layer, count))

    def uninstall():
        for owner, name, original in patched:
            setattr(owner, name, original)

    return uninstall


LAYERS = (
    "tensor.presentation_s",
    "fp.presentation_s",
    "actions.pair_s",
    "simplify.tietze_s",
    "fp.enumerate_s",
    "fp.realize_s",
    "fp.abelian_invariants_s",
    "tensor.verify_s",
    "tensor.action_s",
    "tensor.build_self_s",
    "reps.build_s",
    "reps.evaluate_s",
    "reps.commutator_s",
    "polymat.is_identity_s",
    "bench.self_s",
)
COUNTERS = (
    "tensor.relators",
    "simplify.generators_out",
    "simplify.relators_out",
    "fp.cosets",
    "reps.letters",
    "reps.commutators",
    "polymat.terms",
)
