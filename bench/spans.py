"""Spans and counts around the calls into each shapetensors module.

The tracer replaces functions at the names their callers look up (a
module global such as ``stats._log_many`` or ``cli.pga_fit``), so the
program itself is untouched.  Spans (name, start, end, parent, phase,
note) are kept in memory and written out at the end of the run; the
per-layer metrics are derived from them.  A phase is the set-up or one
round of the workload.

A wrapped name that no longer exists is reported on stderr and every
metric that needs it is left out of the result.
"""

import importlib
import json
import os
import statistics
import time
from collections import defaultdict


def _kind(args, kwargs):
    """Suffix naming the manifold of a points list ('' for Grassmann)."""
    kind = type(args[0][0]).__name__
    return {"GrassmannPoint": "", "ProductPoint": ".product"}.get(kind, ".spd")


def _file_mb(args, kwargs, out):
    return os.path.getsize(args[0]) / 1e6


# (module, attribute, span name, name suffix from the arguments,
#  note taken from the arguments and the result)
WRAPPED = [
    ("cst", "cst_airfoil", "cst.cst_airfoil", None, None),
    ("cli", "generate_airfoils", "cst.generate_airfoils", None,
     lambda a, k, out: out[2]),
    ("shapes", "la_standardize", "shapes.la_standardize", None, None),
    ("cst", "la_standardize", "shapes.la_standardize", None, None),
    ("cli", "la_standardize", "shapes.la_standardize", None, None),
    ("blade", "la_standardize", "shapes.la_standardize", None, None),
    ("cst", "self_intersects", "intersect.self_intersects", None,
     lambda a, k, out: int(bool(out))),
    ("cli", "self_intersects", "intersect.self_intersects", None,
     lambda a, k, out: int(bool(out))),
    ("cli", "read_landmarks", "shapes.read_landmarks", None, _file_mb),
    ("bladeio", "read_landmarks", "shapes.read_landmarks", None, _file_mb),
    ("cli", "write_landmarks", "shapes.write_landmarks", None, _file_mb),
    ("bladeio", "write_landmarks", "shapes.write_landmarks", None, _file_mb),
    ("cli", "refine", "shapes.refine", None, None),
    ("bladeio", "refine", "shapes.refine", None, None),
    ("cli", "save_model", "model_io.save_model", None, None),
    ("cli", "load_model", "model_io.load_model", None, None),
    ("cli", "generate", "stats.generate", None, None),
    ("stats", "pga_fit", "stats.pga_fit", _kind, None),
    ("cli", "pga_fit", "stats.pga_fit", _kind, None),
    ("stats", "karcher_mean", "stats.karcher_mean", _kind, None),
    ("stats", "_log_many", "grassmann.log_sweep", None,
     lambda a, k, out: hash(a[0].tobytes())),
    ("stats", "thin_svd", "linalg.thin_svd", None,
     lambda a, k, out: sum(x.nbytes for x in out) / 1e6),
    ("stats", "_spd_log_raw", "spd.log", None, None),
    ("blade", "consistent_deform", "blade.consistent_deform", None, None),
    ("bladeio", "wireframe_sections", "bladeio.wireframe_sections", None, None),
    ("bladeio", "evaluate_blade", "blade.evaluate_blade", None, None),
    ("bladeio", "write_obj", "bladeio.write_obj", None, _file_mb),
    ("cli", "load_blade", "bladeio.load_blade", None, None),
    ("bladeio", "build_blade_from_definition",
     "bladeio.build_blade_from_definition", None, None),
    ("cli", "write_wireframe", "bladeio.write_wireframe", None, None),
    ("cli", "cmd_cst_gen", "cli.cst_gen", None, None),
    ("cli", "cmd_preprocess", "cli.preprocess", None, None),
    ("cli", "cmd_fit", "cli.fit", None, None),
    ("cli", "cmd_sample", "cli.sample", None, None),
    ("cli", "cmd_blade_wireframe", "cli.blade_wireframe", None, None),
]


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, phase, note]
        self.spans = []
        self.phase = "setup"
        self.absent = set()
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, suffix, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name + suffix(args, kwargs) if suffix else name, 0.0, 0.0,
                   stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note:
                rec[5] = note(args, kwargs, out)
            return out

        return traced

    def install(self):
        found = defaultdict(bool)
        for module_name, attr, name, suffix, note in WRAPPED:
            module = importlib.import_module(f"shapetensors.{module_name}")
            fn = getattr(module, attr, None)
            found[name] |= fn is not None
            if fn is None:
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, suffix, note))
        self.absent = {name for name, ok in found.items() if not ok}

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "phase", "note")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


class _View:
    """Queries over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = defaultdict(float)
        self.by_name = defaultdict(list)
        for i, rec in enumerate(spans):
            self.by_name[rec[0]].append(i)
            if rec[3] >= 0:
                self.child_time[rec[3]] += rec[2] - rec[1]

    def _under(self, idx, ancestor):
        p = self.spans[idx][3]
        while p >= 0:
            if self.spans[p][0] == ancestor:
                return p
            p = self.spans[p][3]
        return None

    def _select(self, name, under=None):
        return [i for i in self.by_name[name]
                if under is None or self._under(i, under) is not None]

    def dur(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def per_call(self, name, value=None, under=None):
        """Median over the spans of one name."""
        value = value or self.dur
        vals = [value(i) for i in self._select(name, under)]
        return statistics.median(vals) if vals else 0

    def self_time(self, i):
        return self.dur(i) - self.child_time[i]

    def per_phase(self, name, value=None):
        """Median over phases of the total per phase, among phases where
        the span occurs."""
        value = value or self.dur
        total = defaultdict(float)
        for i in self._select(name):
            total[self.spans[i][4]] += value(i)
        return statistics.median(total.values()) if total else 0

    def per_parent(self, name, parent, value=None):
        """Median over ``parent`` spans of the total of ``name`` below each."""
        value = value or self.dur
        total = {i: 0.0 for i in self._select(parent)}
        for i in self._select(name):
            p = self._under(i, parent)
            if p is not None:
                total[p] += value(i)
        return statistics.median(total.values()) if total else 0

    def repeats(self, name, parent):
        """Median over ``parent`` spans of the ``name`` spans below it whose
        note (a base-point hash) repeats an earlier one."""
        seen = {i: [] for i in self._select(parent)}
        for i in self._select(name):
            p = self._under(i, parent)
            if p is not None:
                seen[p].append(self.spans[i][5])
        counts = [len(v) - len(set(v)) for v in seen.values()]
        return statistics.median(counts) if counts else 0


def _note(v, i):
    return v.spans[i][5]


def _useful_ratio(v):
    written = v.per_parent("shapes.write_landmarks", "bladeio.write_wireframe",
                           lambda i: 1)
    evaluated = v.per_parent("blade.evaluate_blade", "bladeio.write_wireframe",
                             lambda i: 1)
    return written / evaluated if evaluated else 0


def _metric(name, unit, better, fn, *needs):
    return name, unit, better, fn, needs


_FIT = "stats.pga_fit"
_PFIT = "stats.pga_fit.product"
_SWEEP = "grassmann.log_sweep"

# name, unit, better, value from a _View, wrapped span names it needs
METRICS = [
    _metric("stats.pga_fit.s", "s", "lower", lambda v: v.per_call(_FIT), _FIT),
    _metric("stats.pga_fit.self_s", "s", "lower",
            lambda v: v.per_call(_FIT, v.self_time), _FIT),
    _metric("stats.pga_fit.product.s", "s", "lower",
            lambda v: v.per_call(_PFIT), _FIT),
    _metric("stats.karcher_mean.s", "s", "lower",
            lambda v: v.per_call("stats.karcher_mean"), "stats.karcher_mean"),
    _metric("stats.karcher_mean.self_s", "s", "lower",
            lambda v: v.per_call("stats.karcher_mean", v.self_time),
            "stats.karcher_mean"),
    _metric("stats.karcher_mean.product.s", "s", "lower",
            lambda v: v.per_call("stats.karcher_mean.product"),
            "stats.karcher_mean"),
    _metric("grassmann.log_sweep.s", "s", "lower",
            lambda v: v.per_call(_SWEEP, under=_FIT), _SWEEP, _FIT),
    _metric("grassmann.log_sweep.count", "count", "lower",
            lambda v: v.per_parent(_SWEEP, _FIT, lambda i: 1), _SWEEP, _FIT),
    _metric("grassmann.log_sweep.repeats", "count", "lower",
            lambda v: v.repeats(_SWEEP, _FIT), _SWEEP, _FIT),
    _metric("linalg.thin_svd.s", "s", "lower",
            lambda v: v.per_parent("linalg.thin_svd", _FIT),
            "linalg.thin_svd", _FIT),
    _metric("linalg.thin_svd.out_mb", "MB", "lower",
            lambda v: v.per_parent("linalg.thin_svd", _FIT,
                                   lambda i: _note(v, i)),
            "linalg.thin_svd", _FIT),
    _metric("spd.log.calls", "count", "lower",
            lambda v: v.per_parent("spd.log", _PFIT, lambda i: 1),
            "spd.log", _FIT),
    _metric("spd.log.s", "s", "lower",
            lambda v: v.per_parent("spd.log", _PFIT), "spd.log", _FIT),
    _metric("cst.cst_airfoil.s", "s", "lower",
            lambda v: v.per_phase("cst.cst_airfoil"), "cst.cst_airfoil"),
    _metric("cst.cst_airfoil.calls", "count", "lower",
            lambda v: v.per_phase("cst.cst_airfoil", lambda i: 1),
            "cst.cst_airfoil"),
    _metric("cst.generate_airfoils.resamples", "count", "lower",
            lambda v: v.per_phase("cst.generate_airfoils",
                                  lambda i: _note(v, i)),
            "cst.generate_airfoils"),
    _metric("shapes.la_standardize.s", "s", "lower",
            lambda v: v.per_phase("shapes.la_standardize"),
            "shapes.la_standardize"),
    _metric("shapes.la_standardize.calls", "count", "lower",
            lambda v: v.per_phase("shapes.la_standardize", lambda i: 1),
            "shapes.la_standardize"),
    _metric("intersect.self_intersects.cst_gen.s", "s", "lower",
            lambda v: v.per_parent("intersect.self_intersects", "cli.cst_gen"),
            "intersect.self_intersects", "cli.cst_gen"),
    _metric("intersect.self_intersects.sample.s", "s", "lower",
            lambda v: v.per_parent("intersect.self_intersects", "cli.sample"),
            "intersect.self_intersects", "cli.sample"),
    _metric("intersect.self_intersects.calls", "count", "lower",
            lambda v: v.per_phase("intersect.self_intersects", lambda i: 1),
            "intersect.self_intersects"),
    _metric("intersect.self_intersects.hits", "count", "lower",
            lambda v: v.per_phase("intersect.self_intersects",
                                  lambda i: _note(v, i)),
            "intersect.self_intersects"),
]

for _layer in ("shapes.read_landmarks", "shapes.write_landmarks"):
    METRICS += [
        _metric(f"{_layer}.s", "s", "lower",
                lambda v, n=_layer: v.per_phase(n), _layer),
        _metric(f"{_layer}.calls", "count", "lower",
                lambda v, n=_layer: v.per_phase(n, lambda i: 1), _layer),
        _metric(f"{_layer}.mb", "MB", "lower",
                lambda v, n=_layer: v.per_phase(n, lambda i: _note(v, i)),
                _layer),
    ]

for _layer in ("shapes.refine", "model_io.save_model", "model_io.load_model",
               "stats.generate", "blade.evaluate_blade", "bladeio.write_obj",
               "bladeio.load_blade"):
    METRICS.append(_metric(f"{_layer}.s", "s", "lower",
                           lambda v, n=_layer: v.per_phase(n), _layer))

METRICS += [
    _metric("blade.evaluate_blade.calls", "count", "lower",
            lambda v: v.per_phase("blade.evaluate_blade", lambda i: 1),
            "blade.evaluate_blade"),
    _metric("blade.evaluate_blade.useful_ratio", "ratio", "higher",
            _useful_ratio, "blade.evaluate_blade", "shapes.write_landmarks",
            "bladeio.write_wireframe"),
    _metric("bladeio.write_obj.mb", "MB", "lower",
            lambda v: v.per_phase("bladeio.write_obj", lambda i: _note(v, i)),
            "bladeio.write_obj"),
]

for _layer in ("blade.consistent_deform", "bladeio.wireframe_sections",
               "bladeio.build_blade_from_definition"):
    METRICS.append(_metric(f"{_layer}.s", "s", "lower",
                           lambda v, n=_layer: v.per_call(n), _layer))

for _stage in ("cst_gen", "preprocess", "fit", "sample", "blade_wireframe"):
    _span = f"cli.{_stage}"
    METRICS += [
        _metric(f"{_span}.s", "s", "lower",
                lambda v, n=_span: v.per_call(n), _span),
        _metric(f"{_span}.self_s", "s", "lower",
                lambda v, n=_span: v.per_call(n, v.self_time), _span),
    ]


def per_layer_metrics(tracer):
    """{name: {"value", "unit"}} for every metric whose spans exist.

    A layer that the workload does not reach reads 0.
    """
    view = _View(tracer.spans)
    out = {}
    for name, unit, _, fn, needs in METRICS:
        if tracer.absent.intersection(needs):
            continue
        value = fn(view)
        if unit == "count":
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out
