"""Span recorder for the traced benchmark run.

The recorder wraps public twistcat functions and methods from outside the
package; nothing in ``src/`` is edited.  Each wrapped function records one
span (name, parent span, start, end, benchmark operation) per call; the hot
``Scalar``/``Unit`` methods record only a call count and their aggregate
time, because a span per call would cost more than the call.  Spans stay in
memory and are written out once, when the run ends.

A function imported by name into several twistcat modules (``modcat`` holds
its own reference to ``algebra.solve_mod``, for example) is rebound in every
module that holds it, so the calls through each reference are recorded.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, layer metric prefix); the attribute is a module-level
# function, or "Class.method" for a method.
SPANNED = [
    ("twistcat._matrix", "SMatrix.__matmul__", "matrix.matmul"),
    ("twistcat._matrix", "SMatrix.inverse", "matrix.inverse"),
    ("twistcat._matrix", "nullspace_basis", "matrix.nullspace_basis"),
    ("twistcat.algebra", "smith_normal_form", "algebra.smith_normal_form"),
    ("twistcat.algebra", "solve_mod", "algebra.solve_mod"),
    ("twistcat.cohomology", "differential_matrix",
     "cohomology.differential_matrix"),
    ("twistcat.cohomology", "differential", "cohomology.differential"),
    ("twistcat.cohomology", "normalize", "cohomology.normalize"),
    ("twistcat.modcat", "modcats_for", "modcat.modcats_for"),
    ("twistcat.modcat", "validate_modcat", "modcat.validate_modcat"),
    ("twistcat.modfun", "classify_simple_cyclic",
     "modfun.classify_simple_cyclic"),
    ("twistcat.modfun", "validate_modfun", "modfun.validate_modfun"),
    ("twistcat.modfun", "adjoint", "modfun.adjoint"),
    ("twistcat.modfun", "hom_dimension", "modfun.hom_dimension"),
    ("twistcat.modfun", "invertible_hom", "modfun.invertible_hom"),
    ("twistcat.sixj", "verify_orthogonality", "sixj.verify_orthogonality"),
    ("twistcat.sixj", "verify_biedenharn_elliott",
     "sixj.verify_biedenharn_elliott"),
    ("twistcat.sixj", "functor_context", "sixj.functor_context"),
    ("twistcat.cli", "parse_config", "cli.parse_config"),
]

COUNTED = [
    ("twistcat.scalar", "Scalar.__mul__", "scalar.mul"),
    ("twistcat.scalar", "Scalar.__rmul__", "scalar.mul"),
    ("twistcat.scalar", "Scalar.__add__", "scalar.add"),
    ("twistcat.scalar", "Scalar.__radd__", "scalar.add"),
    ("twistcat.scalar", "Scalar.inverse", "scalar.inverse"),
    ("twistcat.scalar", "Scalar.__hash__", "scalar.hash"),
    ("twistcat.scalar", "Unit.to_scalar", "scalar.unit_to_scalar"),
]


class Recorder:
    """In-memory spans and counters for one traced pass.

    Recording is off until ``active`` is set, so the benchmark's own
    correctness checks, which also use twistcat, are not recorded.
    """

    def __init__(self) -> None:
        self.active = False
        self.op = ""    # the benchmark operation the next spans belong to
        self.spans: list[list] = []  # [name, parent or -1, start, end, op]
        self.counters: dict[str, list] = {}   # name -> [calls, busy_s, depth]
        self._open: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, open_[-1] if open_ else -1, time.perf_counter(), 0.0,
                   self.op]
            open_.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                open_.pop()
        return wrapper

    def _counter(self, name: str, fn):
        cell = self.counters.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            cell[0] += 1
            if cell[2]:  # nested call of the same layer: time the outer one
                return fn(*args, **kwargs)
            cell[2] = 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += time.perf_counter() - start
                cell[2] = 0
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every listed name in all modules that hold it."""
        for entries, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for module_name, attr, metric in entries:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, make(metric, orig))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(module, attr)
                wrapped = make(metric, orig)
                for name, mod in list(sys.modules.items()):
                    if not name.startswith("twistcat") or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- aggregation -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s and self_s per spanned name; calls, busy_s per counter.

        busy_s sums the spans not nested in a span of the same name; self_s
        is each span's duration minus the time its child spans cover.
        """
        out: dict[str, float] = {}
        for _, _, metric in SPANNED:
            out[f"{metric}.calls"] = 0
            out[f"{metric}.busy_s"] = 0.0
            out[f"{metric}.self_s"] = 0.0
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[3] - rec[2]
        for i, (name, parent, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][1]
            if parent < 0:
                out[f"{name}.busy_s"] += end - start
        for name, (calls, busy, _) in self.counters.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = busy
        return out

    def dump(self) -> dict:
        """The raw spans and counters, for the results file."""
        return {
            "spans": {"fields": ["name", "parent", "start_s", "end_s", "op"],
                      "rows": self.spans},
            "counters": {name: {"calls": c, "busy_s": b}
                         for name, (c, b, _) in self.counters.items()},
        }
