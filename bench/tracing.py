"""Spans and LAPACK counters recorded from outside the bwt package.

Nothing under ``src/`` is edited.  Instead :func:`install` rebinds names:

* ``numpy.linalg.eigh``, ``eigvalsh`` and ``svd`` are replaced by wrappers,
  which catches every decomposition bwt makes because bwt looks these up on
  ``numpy.linalg`` at call time;
* every traced bwt function is replaced, in each bwt module whose globals
  hold it, by a wrapper that records a span, so cross-module calls such as
  ``align_green`` inside ``solve_bcd`` or ``read_matrix`` inside the CLI
  commands are caught too;
* ``CovMatrix.__post_init__`` and ``GeodesicPath.gamma`` are patched on
  their classes.

A span is ``[name, start, end, parent, op, ok]``; spans stay in memory and
are written out once, by :meth:`Tracer.dump`.  Recording happens only while
an operation is open (:meth:`Tracer.begin_op`), so the benchmark's own
reference computations, made between operations, are never counted.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time

import numpy as np

#: bwt functions wrapped in spans, by layer (module) name.
TRACED = {
    "linalg": ("trace_fidelity", "align_green", "psd_function"),
    "schur": ("schur_complement",),
    "transport": ("w2_distance", "spd_reachability", "ot_map"),
    "geodesic": ("make_path", "classify_point"),
    "barycenter": ("solve_bcd", "fixed_point_residual"),
    "gproc": ("ibm_w2_numeric", "cross_gram_certificate"),
    "cli": ("read_matrix", "write_json_file"),
}

LAPACK_FUNCS = ("eigh", "eigvalsh", "svd")

_NAME, _START, _END, _PARENT, _OP, _OK = range(6)


class Tracer:
    """Collects spans (when ``spans`` is true) and per-operation LAPACK
    counts, including inputs a function already saw in the same operation
    (behind ``lapack.dup_frac``)."""

    def __init__(self, spans: bool = True):
        self.record_spans = spans
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self.counts = {f: 0 for f in LAPACK_FUNCS}
        self.work_n3 = 0
        self.dups = 0
        self._seen: set = set()

    # operations -----------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self._seen = set()
        self.stack = []

    def end_op(self) -> None:
        self.op = None

    # spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, True])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int, ok: bool) -> None:
        span = self.spans[idx]
        span[_END] = time.perf_counter()
        span[_OK] = ok
        self.stack.pop()

    def count_lapack(self, func: str, mat) -> None:
        self.counts[func] += 1
        shape = np.shape(mat)
        rows, cols = (shape[-2], shape[-1]) if len(shape) >= 2 else (1, 1)
        self.work_n3 += rows * cols * min(rows, cols)
        arr = np.ascontiguousarray(mat)
        key = (func, arr.shape, arr.dtype.str, hashlib.blake2b(arr.data, digest_size=16).digest())
        if key in self._seen:
            self.dups += 1
        else:
            self._seen.add(key)

    def counters(self) -> dict:
        """The deterministic counters, for the repeat check."""
        return {**{f"lapack.{f}": c for f, c in self.counts.items()},
                "lapack.work_n3": self.work_n3, "lapack.dups": self.dups}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, ok in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "ok": ok}))
                fh.write("\n")


def _span(tracer: Tracer, name: str, fn, args, kwargs):
    idx = tracer.open(name)
    ok = False
    try:
        out = fn(*args, **kwargs)
        ok = True
        return out
    finally:
        tracer.close(idx, ok)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.op is None or not tracer.record_spans:
            return fn(*args, **kwargs)
        return _span(tracer, name, fn, args, kwargs)

    return traced


def _wrap_lapack(tracer: Tracer, func: str, fn):
    name = f"lapack.{func}"

    @functools.wraps(fn)
    def traced(a, *args, **kwargs):
        if tracer.op is None:
            return fn(a, *args, **kwargs)
        tracer.count_lapack(func, a)
        if not tracer.record_spans:
            return fn(a, *args, **kwargs)
        return _span(tracer, name, fn, (a, *args), kwargs)

    return traced


def install(tracer: Tracer):
    """Rebind the traced names; returns a function that restores them."""
    import bwt
    from bwt import barycenter, cli, geodesic, gproc, linalg, schur, transport

    layers = {"linalg": linalg, "schur": schur, "transport": transport,
              "geodesic": geodesic, "barycenter": barycenter, "gproc": gproc, "cli": cli}
    modules = [bwt, *layers.values()]
    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for func in LAPACK_FUNCS:
        rebind(np.linalg, func, _wrap_lapack(tracer, func, getattr(np.linalg, func)))

    for layer, names in TRACED.items():
        for name in names:
            orig = getattr(layers[layer], name)
            traced = _wrap(tracer, f"{layer}.{name}", orig)
            for mod in modules:
                if getattr(mod, name, None) is orig:
                    rebind(mod, name, traced)

    rebind(linalg.CovMatrix, "__post_init__",
           _wrap(tracer, "linalg.CovMatrix", linalg.CovMatrix.__post_init__))
    rebind(geodesic.GeodesicPath, "gamma",
           _wrap(tracer, "geodesic.gamma", geodesic.GeodesicPath.gamma))

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


def aggregate(tracer: Tracer) -> dict:
    """Per-name totals over the recorded spans.

    For each span name: ``calls`` (every span), and over the outermost spans
    of that name only (no ancestor of the same name): ``busy_s``,
    ``self_s`` (duration minus the LAPACK spans beneath it), ``decomps``
    (LAPACK spans beneath it) and ``outer_calls``.
    """
    spans = tracer.spans
    lapack_below = [0.0] * len(spans)
    decomps_below = [0] * len(spans)
    for i, span in enumerate(spans):
        if span[_NAME].startswith("lapack."):
            dur = span[_END] - span[_START]
            p = span[_PARENT]
            while p >= 0:
                lapack_below[p] += dur
                decomps_below[p] += 1
                p = spans[p][_PARENT]

    out: dict = {}
    for i, span in enumerate(spans):
        name = span[_NAME]
        agg = out.setdefault(name, {"calls": 0, "outer_calls": 0, "busy_s": 0.0,
                                    "self_s": 0.0, "decomps": 0})
        agg["calls"] += 1
        p = span[_PARENT]
        while p >= 0 and spans[p][_NAME] != name:
            p = spans[p][_PARENT]
        if p >= 0:
            continue
        dur = span[_END] - span[_START]
        agg["outer_calls"] += 1
        agg["busy_s"] += dur
        agg["self_s"] += dur - lapack_below[i]
        agg["decomps"] += decomps_below[i]
    return out
