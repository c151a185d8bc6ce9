"""Per-layer spans recorded from outside the library.

`Tracer.enable` rebinds each traced centtype function in every centtype
module that holds a reference to it: ``from .exactmat import
frobenius_form`` copies the binding into typealg, centkit and verify, so
patching exactmat alone would miss most calls.  `Matrix.rref`,
`Matrix.inverse` and `Matrix.__mul__` are patched on the class.

Each span records its query, name, parent span and start and end times;
self time is the span's duration minus the time covered by its child
spans.  Totals count a name's outermost span only, so recursion is not
counted twice.

`exactfield` has no span on purpose: a wrapper around each of its
millions of element operations would measure the wrapper rather than the
work.  Its cost shows up as the self time of the exactmat and upoly spans
that call it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

EXACTFIELD_NOTE = (
    "exactfield has no span: its element operations are counted in the self "
    "time of the exactmat and upoly spans that call them"
)


def _note_dim(tr, args, result):
    tr.counts["centkit.centralizer_basis.dim"] += result.dim


def _note_cells(tr, args, result):
    tr.counts["exactmat.rref.cells"] += args[0].nrows * args[0].ncols


def _note_repeat(tr, args, result):
    if args[0] in tr.formed:
        tr.counts["exactmat.frobenius_form.repeats"] += 1
    else:
        tr.formed.add(args[0])


def _note_match(tr, args, result):
    tr.counts["typealg.poly_equivalent.matches"] += result is not None


def _note_deg(tr, args, result):
    tr.counts["upoly.poly_factor.deg"] += args[0].degree


# (module, function, span name, counter hook)
FUNCTIONS = (
    ("centkit", "centralizers_conjugate", "centkit.centralizers_conjugate", None),
    ("centkit", "centralizer_basis", "centkit.centralizer_basis", _note_dim),
    ("exactmat", "frobenius_form", "exactmat.frobenius_form", _note_repeat),
    ("exactmat", "mat_eval_poly", "exactmat.mat_eval_poly", None),
    ("exactmat", "similar_conjugator", "exactmat.similar_conjugator", None),
    ("typealg", "cycle_type", "typealg.cycle_type", None),
    ("typealg", "poly_equivalent", "typealg.poly_equivalent", _note_match),
    ("upoly", "poly_factor", "upoly.poly_factor", _note_deg),
    ("upoly", "poly_roots_in_ext", "upoly.poly_roots_in_ext", None),
    ("permcent", "sn_cent_equal", "permcent.decide", None),
    ("permcent", "an_cent_equal", "permcent.decide", None),
    ("serialize", "matrix_from_json", "serialize.parse", None),
    ("serialize", "permutation_from_text", "serialize.parse", None),
    ("serialize", "certificate_to_json", "serialize.emit", None),
    ("serialize", "variation_report_to_json", "serialize.emit", None),
)

# Matrix methods patched on the class: (method, span name, counter hook)
METHODS = (
    ("rref", "exactmat.rref", _note_cells),
    ("inverse", "exactmat.inverse", None),
)

# Per-layer metrics: (metric, unit, how it is computed, end-to-end metric
# it should move, workloads it should move on).  Values are per traced
# query, so runs of different length compare.
LAYERS = (
    ("centkit.centralizer_basis.calls", "1/query", ("calls", "centkit.centralizer_basis"),
     "throughput_qps, query_p90_ms", "conj-fp (none on perm-decide)"),
    ("centkit.centralizer_basis.total_s", "s/query", ("total", "centkit.centralizer_basis"),
     "throughput_qps, query_p90_ms", "conj-fp"),
    ("centkit.centralizer_basis.dim", "1/query", ("count", "centkit.centralizer_basis.dim"),
     "throughput_qps, query_p90_ms", "conj-fp"),
    ("centkit.centralizers_conjugate.self_s", "s/query", ("self", "centkit.centralizers_conjugate"),
     "query_p50_ms", "conj-fp"),
    ("exactmat.rref.calls", "1/query", ("calls", "exactmat.rref"),
     "query_p90_ms, throughput_qps", "conj-fp"),
    ("exactmat.rref.self_s", "s/query", ("self", "exactmat.rref"),
     "query_p90_ms, throughput_qps", "conj-fp"),
    ("exactmat.rref.cells", "1/query", ("count", "exactmat.rref.cells"),
     "query_p90_ms, throughput_qps", "conj-fp"),
    ("exactmat.frobenius_form.calls", "1/query", ("calls", "exactmat.frobenius_form"),
     "query_p50_ms", "conj-fp"),
    ("exactmat.frobenius_form.self_s", "s/query", ("self", "exactmat.frobenius_form"),
     "query_p50_ms", "conj-fp"),
    ("exactmat.frobenius_form.repeat_frac", "ratio",
     ("ratio", "exactmat.frobenius_form.repeats", "exactmat.frobenius_form"),
     "query_p50_ms", "conj-fp"),
    ("exactmat.matmul.calls", "1/query", ("calls", "exactmat.matmul"),
     "query_p50_ms", "conj-fp"),
    ("exactmat.matmul.self_s", "s/query", ("self", "exactmat.matmul"),
     "query_p50_ms", "conj-fp"),
    ("exactmat.mat_eval_poly.self_s", "s/query", ("self", "exactmat.mat_eval_poly"),
     "query_p50_ms", "conj-fp"),
    ("exactmat.inverse.self_s", "s/query", ("self", "exactmat.inverse"),
     "query_p50_ms", "conj-fp"),
    ("exactmat.similar_conjugator.total_s", "s/query", ("total", "exactmat.similar_conjugator"),
     "query_p50_ms", "conj-fp"),
    ("typealg.cycle_type.total_s", "s/query", ("total", "typealg.cycle_type"),
     "query_p50_ms", "conj-fp"),
    ("typealg.poly_equivalent.calls", "1/query", ("calls", "typealg.poly_equivalent"),
     "query_p50_ms", "conj-fp"),
    ("typealg.poly_equivalent.self_s", "s/query", ("self", "typealg.poly_equivalent"),
     "query_p50_ms", "conj-fp"),
    ("typealg.poly_equivalent.match_frac", "ratio",
     ("ratio", "typealg.poly_equivalent.matches", "typealg.poly_equivalent"),
     "query_p50_ms", "conj-fp"),
    ("upoly.poly_factor.calls", "1/query", ("calls", "upoly.poly_factor"),
     "query_p90_ms", "conj-fp"),
    ("upoly.poly_factor.self_s", "s/query", ("self", "upoly.poly_factor"),
     "query_p90_ms", "conj-fp"),
    ("upoly.poly_factor.deg", "1/query", ("count", "upoly.poly_factor.deg"),
     "query_p90_ms", "conj-fp"),
    ("upoly.poly_roots_in_ext.self_s", "s/query", ("self", "upoly.poly_roots_in_ext"),
     "query_p90_ms", "conj-fp"),
    ("permcent.decide.calls", "1/query", ("calls", "permcent.decide"),
     "throughput_qps", "perm-decide only"),
    ("permcent.decide.self_s", "s/query", ("self", "permcent.decide"),
     "throughput_qps", "perm-decide only"),
    ("serialize.parse.self_s", "s/query", ("self", "serialize.parse"),
     "query_p50_ms", "perm-decide (negligible on conj-fp)"),
    ("serialize.emit.self_s", "s/query", ("self", "serialize.emit"),
     "query_p50_ms", "perm-decide (negligible on conj-fp)"),
)

OVERHEAD = ("trace.overhead_frac", "ratio")


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self, centtype):
        self.spans = []  # (query, name, parent index, start ns, end ns)
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.counts = Counter()
        self._stack = []  # [span index, name, child ns] of open spans
        self._depth = Counter()
        self.query = -1
        self.formed = set()  # matrices given to frobenius_form in this query
        self._bindings = self._bind(centtype)  # (owner, attribute, original, wrapper)

    def begin_query(self, index):
        self.query = index
        self.formed = set()

    def call(self, name, fn, args, kwargs, note):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [idx, name, 0]
        self._stack.append(frame)
        self._depth[name] += 1
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._depth[name] -= 1
            dur = t1 - t0
            if self._stack:
                self._stack[-1][2] += dur
            self.spans[idx] = (self.query, name, parent, t0, t1)
            self.calls[name] += 1
            self.self_ns[name] += dur - frame[2]
            if not self._depth[name]:
                self.total_ns[name] += dur
        if note is not None:
            note(self, args, result)
        return result

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        return traced

    def _bind(self, centtype):
        """Every place centtype holds a traced function, with its wrapper."""
        wrappers = {}
        for mod, attr, name, note in FUNCTIONS:
            fn = getattr(importlib.import_module("centtype." + mod), attr)
            wrappers[id(fn)] = (fn, self.wrap(name, fn, note))
        out = []
        for modname, module in list(sys.modules.items()):
            if modname != "centtype" and not modname.startswith("centtype."):
                continue
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    out.append((module, attr, val, hit[1]))
        Matrix = centtype.Matrix
        for attr, name, note in METHODS:
            orig = getattr(Matrix, attr)
            out.append((Matrix, attr, orig, self.wrap(name, orig, note)))
        mul = Matrix.__mul__

        def traced_mul(a, b):
            if isinstance(b, Matrix):
                return self.call("exactmat.matmul", mul, (a, b), {}, None)
            return mul(a, b)

        out.append((Matrix, "__mul__", mul, traced_mul))
        return out

    def enable(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def disable(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def metrics(self, queries, overhead_frac):
        """Per-layer metrics, every value per traced query."""
        out = {}
        for metric, unit, how, _, _ in LAYERS:
            if how[0] == "calls":
                v = self.calls[how[1]] / queries
            elif how[0] == "count":
                v = self.counts[how[1]] / queries
            elif how[0] == "self":
                v = self.self_ns[how[1]] / 1e9 / queries
            elif how[0] == "total":
                v = self.total_ns[how[1]] / 1e9 / queries
            else:
                calls = self.calls[how[2]]
                v = self.counts[how[1]] / calls if calls else 0.0
            out[metric] = {"value": v, "unit": unit}
        out[OVERHEAD[0]] = {"value": overhead_frac, "unit": OVERHEAD[1]}
        return out

    def write(self, path):
        """Spans as JSON lines: query, name, parent index, start and end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def layer_map():
    """Which end-to-end metric each layer metric should move, and where."""
    return {metric: {"moves": moves, "on": on} for metric, _, _, moves, on in LAYERS}
