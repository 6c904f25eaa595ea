"""Spans around the calls into each specpoly layer, recorded from outside.

``install`` replaces every public function of every specpoly module with a
timing wrapper at each place it is bound: the defining module and every
module that imported it by name (``specpoly.orthogonality.eigentable`` as
well as ``specpoly.eigen.eigentable``), plus the package namespace.  A few
methods that carry the heavy work are wrapped on their classes.  The
integrand handed to ``tanh_sinh`` is wrapped per call, so each quadrature
node is a span of its own.

A span is (name, parent, start, end, raised) plus two integers that a hook
fills in from the call's result (matrix entries; quadrature levels, evals).
Spans live in flat arrays until the run ends; ``summary`` turns them into
the per-layer metrics and ``write`` saves them.  A span's layer is the
specpoly module its function belongs to.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("ratpoly", "operator", "eigen", "families", "weights", "quadrature",
           "orthogonality", "cli")

# rat() runs once per coefficient of every Poly built; a span per call would
# measure the tracer, not the layer.
SKIP = {"ratpoly.rat"}

METHODS = (
    ("ratpoly", "Poly", "__mul__"),
    ("ratpoly", "Poly", "eval_float"),
    ("ratpoly", "Poly", "definite_integral"),
    ("operator", "DiffOperator", "apply"),
    ("operator", "DiffOperator", "matrix"),
    ("operator", "OperatorMatrix", "shifted_rows"),
    ("weights", "WeightExpr", "log_eval"),
)


# counts read off a call's result into the span's two integers
HOOKS = {
    "operator.DiffOperator.matrix": lambda m: ((m.n + 1) ** 2, 0),
    "quadrature.tanh_sinh": lambda q: (q.levels, q.evals),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.aux1 = array("q")
        self.aux2 = array("q")
        self.stack = [-1]
        self.open, self.close = self._span_functions()

    def _span_functions(self):
        """open(name_id) -> index and close(index), as closures over the
        arrays: they run once per span, so they avoid attribute lookups."""
        stack, clock = self.stack, time.perf_counter
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        raised, aux1, aux2 = self.raised, self.aux1, self.aux2

        def open_span(span_id: int) -> int:
            idx = len(starts)
            name_ids.append(span_id)
            parents.append(stack[-1])
            ends.append(0.0)
            raised.append(1)
            aux1.append(0)
            aux2.append(0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        return open_span, close_span

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        hook = HOOKS.get(name)
        wrap_integrand = name == "quadrature.tanh_sinh"
        integrand_id = self._id("quadrature.integrand")
        open_span, close_span, raised = self.open, self.close, self.raised

        def integrand_of(f):
            def traced_integrand(*args):
                idx = open_span(integrand_id)
                try:
                    value = f(*args)
                    raised[idx] = 0
                    return value
                finally:
                    close_span(idx)
            return traced_integrand

        def traced(*args, **kwargs):
            if wrap_integrand:
                args = (integrand_of(args[0]),) + args[1:]
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
                raised[idx] = 0
            finally:
                close_span(idx)
            if hook is not None:
                self.aux1[idx], self.aux2[idx] = hook(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """One top-level benchmark call: the parent of its spans."""
        idx = self.open(self._id(name))
        try:
            yield
            self.raised[idx] = 0
        finally:
            self.close(idx)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per name: calls, raised, inclusive and self seconds, aux sums; and
        self seconds per layer."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        by_name: dict[str, dict] = {}
        layers: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            s = by_name.setdefault(name, {"calls": 0, "raised": 0, "s": 0.0, "self_s": 0.0,
                                          "aux1": 0, "aux2": 0})
            s["calls"] += 1
            s["raised"] += self.raised[i]
            s["s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            s["aux1"] += self.aux1[i]
            s["aux2"] += self.aux2[i]
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + dur[i] - child[i]
        return {"spans": n, "by_name": by_name, "layer_self_s": layers}

    def write(self, path) -> None:
        data = {
            "names": self.names,
            "name": list(self.name_id),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "raised": list(self.raised),
            "aux1": list(self.aux1),
            "aux2": list(self.aux2),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)


def install(tracer: Tracer):
    """Wrap every public specpoly function at every binding; returns a
    function that puts the originals back."""
    mods = {name: importlib.import_module(f"specpoly.{name}") for name in MODULES}
    wrappers = {}
    for short, mod in mods.items():
        public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for attr in public:
            fn = getattr(mod, attr, None)
            name = f"{short}.{attr}"
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name not in SKIP:
                wrappers[fn] = tracer.wrap(name, fn)
    saved = []
    for modname, mod in list(sys.modules.items()):
        if modname != "specpoly" and not modname.startswith("specpoly."):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    for short, cls_name, meth in METHODS:
        cls = getattr(mods[short], cls_name)
        saved.append((cls, meth, cls.__dict__[meth]))
        setattr(cls, meth, tracer.wrap(f"{short}.{cls_name}.{meth}", cls.__dict__[meth]))

    def restore():
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)

    return restore
