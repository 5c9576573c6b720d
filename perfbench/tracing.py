"""Span tracing of germclass layers, installed from outside the package.

`Tracer.install` wraps each traced function at every binding site: the
module attribute it is defined under, every other germclass module that
imported it by name (`sb2_adapt` is bound in `frames` and in `classify`,
`apply` in `vfields`, `frames`, `classify` and `fuzz`), and every class
attribute that holds it (`Jet2.__mul__` is also `Jet2.__rmul__`).  Each
call records one span -- label, parent span, start, end, operation index
-- into flat arrays kept in memory; `summary` turns them into per-label
call counts, inclusive time and self time (the span minus the time its
child spans cover), and `write` dumps the raw spans at the end of a run.

`DistinctApplies` counts, per `classify` call, how many of the (field,
input) evaluations of `vfields.apply` were distinct by value.  It is
installed on its own, in a pass that is not timed, so its bookkeeping is
charged to no layer and not to the tracing overhead.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "germclass"

# (label, module, attribute); several functions may share one label
FUNCTIONS = [
    ("jets.compose_map", "jets", "compose_map"),
    ("jets.post_compose", "jets", "post_compose"),
    ("fuzz.act", "fuzz", "act"),
    ("fuzz.random_source_diffeo", "fuzz", "random_source_diffeo"),
    ("fuzz.random_target_diffeo", "fuzz", "random_target_diffeo"),
    ("vfields.apply", "vfields", "apply"),
    ("vfields.apply_to_jet", "vfields", "apply_to_jet"),
    ("frames.linear_normalize", "frames", "linear_normalize"),
    ("frames.sb2_adapt", "frames", "sb2_adapt"),
    ("frames.s3_adapt", "frames", "s3_adapt"),
    ("frames.b3_adapt", "frames", "b3_adapt"),
    ("frames.h2_adapt", "frames", "h2_adapt"),
    ("frames.h4_adapt", "frames", "h4_adapt"),
    ("classify.classify", "classify", "classify"),
    ("classify.second_derivatives_phi", "classify", "second_derivatives_phi"),
    ("docparse.parse_doc", "docparse", "parse_doc"),
    ("applications.formulas", "applications", "ruled_classify_formulas"),
    ("applications.formulas", "applications", "center_classify_formulas"),
    ("applications.formulas", "applications", "folded_classify_formulas"),
    ("applications.maps", "applications", "ruled_map"),
    ("applications.maps", "applications", "center_map"),
    ("applications.maps", "applications", "folded_map"),
    ("oracle", "oracle", "skbk_classify"),
    ("oracle", "oracle", "h2_check"),
    ("cli.main", "cli", "main"),
]

# (label, module, class, method)
METHODS = [
    ("jets.Jet2.init", "jets", "Jet2", "__init__"),
    ("jets.Jet2.mul", "jets", "Jet2", "__mul__"),
    ("scalars.ZeroCtx.is_zero", "scalars", "ZeroCtx", "is_zero"),
    ("scalars.ZeroCtx.sign", "scalars", "ZeroCtx", "sign"),
]

OP_LABEL = "op"


def _module(name):
    return sys.modules["%s.%s" % (PACKAGE, name)]


class _Patcher:
    """Replaces functions at their binding sites and puts them back."""

    def __init__(self):
        self._restore = []

    def _patch_function(self, fn, wrapped):
        """Bind wrapped wherever a germclass module binds fn."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        sites = 0
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, name, fn))
                    setattr(module, name, wrapped)
                    sites += 1
        if not sites:
            raise RuntimeError("no binding site for %s" % fn.__qualname__)

    def _patch_method(self, cls, fn, wrapped):
        """Bind wrapped at every attribute of cls that holds fn."""
        for name, value in list(vars(cls).items()):
            if value is fn:
                self._restore.append((cls, name, fn))
                setattr(cls, name, wrapped)

    def uninstall(self):
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore = []


class Tracer(_Patcher):
    def __init__(self):
        super().__init__()
        self.labels = []
        self._label_ids = {}
        self.label = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1

    def _id(self, label):
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    # -- recording --------------------------------------------------------

    def span(self, label, fn):
        """Wrap fn so that every call records one span under label."""
        lid = self._id(label)
        labels, parents, opids = self.label, self.parent, self.opid
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(labels)
            labels.append(lid)
            parents.append(stack[-1])
            opids.append(tracer.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, index, fn):
        """Run one benchmark operation under a root span."""
        self.current_op = index
        try:
            return self.span(OP_LABEL, fn)()
        finally:
            self.current_op = -1

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function at each of its binding sites."""
        for label, mod, attr in FUNCTIONS:
            fn = getattr(_module(mod), attr)
            self._patch_function(fn, self.span(label, fn))
        for label, mod, cls_name, method in METHODS:
            cls = getattr(_module(mod), cls_name)
            fn = vars(cls)[method]
            self._patch_method(cls, fn, self.span(label, fn))

    # -- results -----------------------------------------------------------

    def summary(self, op_weight):
        """{label: [calls, incl, self]} over all recorded spans.

        A span's time counts as its seconds times op_weight[its operation
        index]; weights of 1 over the kernel time give kernel units.
        """
        n = len(self.label)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {label: [0, 0.0, 0.0] for label in self.labels}
        for i in range(n):
            row = out[self.labels[self.label[i]]]
            dur = self.end[i] - self.start[i]
            weight = op_weight[self.opid[i]]
            row[0] += 1
            row[1] += dur * weight
            row[2] += (dur - child[i]) * weight
        return out

    def write(self, stem: Path):
        """Dump the raw spans: <stem>.json (labels, count) and <stem>.spans."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as handle:
            for column in (self.label, self.parent, self.opid, self.start, self.end):
                column.tofile(handle)
        meta = {"labels": self.labels, "spans": len(self.label),
                "columns": ["label:i32", "parent:i32", "op:i32", "start:f64", "end:f64"]}
        stem.with_suffix(".json").write_text(json.dumps(meta, indent=1), encoding="utf-8")


class DistinctApplies(_Patcher):
    """Distinct (field, input) pairs by value that `vfields.apply` sees per
    `classify` call, over its calls there."""

    def __init__(self):
        super().__init__()
        self.seen = None        # pairs seen in the open classify call
        self.calls = 0
        self.distinct = 0

    def install(self):
        classify = _module("classify").classify
        apply = _module("vfields").apply

        def scoped(*args, **kwargs):
            outer = self.seen
            self.seen = set()
            try:
                return classify(*args, **kwargs)
            finally:
                self.distinct += len(self.seen)
                self.seen = outer

        def counted(zeta, f, *args, **kwargs):
            if self.seen is not None:
                self.calls += 1
                self.seen.add((zeta.a, zeta.b, tuple(f)))
            return apply(zeta, f, *args, **kwargs)

        self._patch_function(classify, scoped)
        self._patch_function(apply, counted)

    def ratio(self):
        return self.distinct / self.calls if self.calls else 0.0
