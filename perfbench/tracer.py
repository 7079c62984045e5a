"""Outside-in tracer for the qq22 benchmark.

The tracer wraps the public layer-boundary functions of the ``qq22`` modules
from the benchmark's side; nothing under ``src/`` changes.  A function that is
bound under several module names (``semisimple.mat_charpoly`` is
``matrices.mat_charpoly``, ``cli.load_cache`` is ``serial.load_cache``, and the
package re-exports most of them) is replaced under every name, because a call
through a binding that was not replaced would bypass the wrapper.

Each wrapped call records a span ``[name, start, end, parent]`` in memory; the
spans are written out once, after the pass.  Self time is a span's duration
minus the durations of its child spans.  ``GaussianRational`` arithmetic is
only counted: a span per scalar operation would cost more than the operation.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# Module-level functions that bound a layer, by defining module.
FUNCTIONS = {
    "engine": ("convergence_witness",),
    "matrices": ("mat_charpoly", "mat_nullspace", "mat_rank", "mat_det"),
    "polynomials": ("poly_gcd", "squarefree"),
    "semisimple": ("semisimple_scan", "closed_form_charpoly", "cutoff_matrix"),
    "geometry": ("conic_pipeline", "no_conic_through_meeting_points"),
    "serial": ("load_cache", "save_cache"),
    "cli": ("run",),
}

# Public CorrelatorEngine methods; spans are named ``engine.<method>``.
ENGINE_METHODS = (
    "f_value",
    "correlator_classes",
    "correlator_t",
    "correlator_tau",
    "conjecture_quadratic",
    "conjecture_quadratic_lhs",
    "wdvv_extracted_residual",
    "cached_items",
)

# GaussianRational methods whose calls make up ``scalars.gaussian_ops``.
GAUSSIAN_OPS = ("__mul__", "__add__")

# Counts that must repeat exactly between two traced passes on one input.
DETERMINISTIC = (
    "engine.memo_entries",
    "engine.correlator_t.calls",
    "scalars.gaussian_ops",
    "serial.cache_bytes",
    "matrices.mat_charpoly.calls",
)


class Tracer:
    """Spans and counters for one pass; ``install`` patches, ``uninstall`` undoes."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = {}
        self._undo = []
        self.gaussian_ops = 0
        self.nonzero_t = 0
        self.scan_rows = 0
        self.scan_rejected = 0
        self.cache_bytes = 0
        self._touched = {}
        self.memo = (0, 0)

    # -- patching ---------------------------------------------------------

    def install(self):
        import qq22.engine
        import qq22.scalars

        replace = {}
        for short, names in FUNCTIONS.items():
            module = importlib.import_module("qq22." + short)
            for name in names:
                fn = getattr(module, name)
                replace[id(fn)] = self._wrap(
                    "%s.%s" % (short, name), fn, _INSPECT.get(name)
                )
        for module_name, module in list(sys.modules.items()):
            if module_name != "qq22" and not module_name.startswith("qq22."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._setattr(module, attr, wrapper)
        engine_cls = qq22.engine.CorrelatorEngine
        for name in ENGINE_METHODS:
            fn = engine_cls.__dict__[name]
            inspect = _touch_engine
            if name == "correlator_t":
                inspect = _inspect_correlator_t
            self._setattr(engine_cls, name, self._wrap("engine." + name, fn, inspect))
        gauss = qq22.scalars.GaussianRational
        originals = {id(gauss.__dict__[name]) for name in GAUSSIAN_OPS}
        for attr, value in list(vars(gauss).items()):
            if id(value) in originals:
                self._setattr(gauss, attr, self._count(value))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _setattr(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, inspect):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not depth.get(name)
            depth[name] = depth.get(name, 0) + 1
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, outer]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                depth[name] -= 1
            if inspect is not None:
                inspect(self, args, result)
            return result

        return wrapper

    def _count(self, fn):
        @functools.wraps(fn)
        def wrapper(a, b):
            self.gaussian_ops += 1
            return fn(a, b)

        return wrapper

    # -- memo snapshots ------------------------------------------------------

    def op_done(self):
        """Read the memo of every engine the finished operation used.

        ``self.memo`` keeps (entries, zero entries) of the largest memo seen:
        a pass of the ``cache`` workload builds a fresh engine per CLI query,
        each holding the same loaded records, so a sum over engines would
        count them once per query.
        """
        for eng in self._touched.values():
            memo = eng.memo
            if len(memo) > self.memo[0]:
                self.memo = (len(memo), sum(1 for v in memo.values() if not v))
        self._touched.clear()

    # -- results ---------------------------------------------------------------

    def layers(self):
        """Per-layer metrics of the pass, keyed by metric name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name in span_names():
            out.update({name + ".calls": 0, name + ".s": 0.0, name + ".self_s": 0.0})
        for i, (name, start, end, parent, outer) in enumerate(spans):
            dur = end - start
            out[name + ".calls"] += 1
            if outer:
                out[name + ".s"] += dur
            out[name + ".self_s"] += dur - child[i]
        t_calls = out["engine.correlator_t.calls"]
        entries, zeros = self.memo
        out.update(
            {
                "scalars.gaussian_ops": self.gaussian_ops,
                "engine.correlator_t.nonzero_ratio": _ratio(self.nonzero_t, t_calls),
                "engine.memo_entries": entries,
                "engine.memo_zero_ratio": _ratio(zeros, entries),
                "semisimple.rejected_ratio": _ratio(self.scan_rejected, self.scan_rows),
                "serial.cache_bytes": self.cache_bytes,
            }
        )
        return out

    def write(self, path):
        """Write the spans as JSON: names once, then [name, start, end, parent]."""
        names = sorted({rec[0] for rec in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[n], s, e, p] for n, s, e, p, _ in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def span_names():
    names = ["%s.%s" % (short, fn) for short, fns in FUNCTIONS.items() for fn in fns]
    return names + ["engine." + name for name in ENGINE_METHODS]


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _touch_engine(tracer, args, result):
    tracer._touched[id(args[0])] = args[0]


def _inspect_correlator_t(tracer, args, result):
    tracer._touched[id(args[0])] = args[0]
    if not result.is_zero():
        tracer.nonzero_t += 1


def _inspect_scan(tracer, args, rows):
    tracer.scan_rows += len(rows)
    tracer.scan_rejected += sum(1 for r in rows if r.rejected)


def _inspect_save(tracer, args, result):
    tracer.cache_bytes = max(tracer.cache_bytes, os.path.getsize(args[0]))


_INSPECT = {"semisimple_scan": _inspect_scan, "save_cache": _inspect_save}
