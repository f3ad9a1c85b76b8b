"""Layer tracing from outside the program.

``Tracer.install`` wraps the public functions and methods of every pshlab
layer module, plus the constructors, arithmetic, equality and hashing of
the classes defined there.  Every wrapped call is counted.  Only the
outermost entry into a layer opens a span: a call made from inside the
same layer is counted but gets no span.  A layer's self time is the time
of its spans minus the time of the spans directly nested in them.

Spans are kept in fixed-size in-memory arrays (the first ``span_cap``
of them; the rest are counted as dropped) and written out by ``dump``
when the run ends.  Counters and self times cover every call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

from workloads import LAYERS

# dunder methods that do a layer's work (repr included: hyperhecke keys
# its tables by the text of Cyclo values); other dunders are left alone
_DUNDERS = {"__init__", "__call__", "__add__", "__radd__", "__sub__",
            "__rsub__", "__mul__", "__rmul__", "__truediv__",
            "__rtruediv__", "__pow__", "__neg__", "__eq__", "__hash__",
            "__repr__"}

JOB = len(LAYERS)          # layer id of the benchmark's own job spans
_NONE = -1


class Tracer:

    def __init__(self, span_cap: int = 200_000):
        self.names: list[str] = []        # "layer.qualname" per function id
        self.layer_of: list[int] = []     # layer id per function id
        self.counts: list[int] = []       # calls per function id
        self.self_s = [0.0] * (len(LAYERS) + 1)
        self.inclusive_s: dict[str, float] = {}
        # calls of a group's multiplication callback made from the groups
        # layer, that is, FiniteGroupTable.mul cache misses
        self.mul_misses = 0
        # innermost open span: [layer id, span index]
        self._cur = [_NONE, _NONE]
        self.span_cap = span_cap
        self.spans = 0
        self._layer = array("b", bytes(span_cap))
        self._parent = array("i", bytes(4 * span_cap))
        self._start = array("d", bytes(8 * span_cap))
        self._end = array("d", bytes(8 * span_cap))
        self.job_ids: list[str] = []
        self._patched: list = []
        self._t0 = time.perf_counter()

    # -- installing ----------------------------------------------------

    def install(self):
        """Wrap every layer module; pshlab must already be importable."""
        originals = {}
        for lid, layer in enumerate(LAYERS):
            mod = importlib.import_module(f"pshlab.{layer}")
            for name, obj in list(vars(mod).items()):
                # lru_cache wrappers count as the functions they wrap
                function = (inspect.isfunction(obj)
                            or hasattr(obj, "cache_info"))
                if function and obj.__module__ == mod.__name__:
                    if not name.startswith("_"):
                        w = self._wrap(obj, lid, f"{layer}.{name}")
                        originals[id(obj)] = (obj, w)
                        self._set(mod, name, w)
                elif (inspect.isclass(obj)
                      and obj.__module__ == mod.__name__):
                    self._wrap_class(obj, lid, layer)
        # rebind names other modules imported with "from .x import f"
        for layer in LAYERS + ("cli",):
            mod = importlib.import_module(f"pshlab.{layer}")
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
        return self

    def uninstall(self):
        for owner, name, old in reversed(self._patched):
            setattr(owner, name, old)
        self._patched.clear()

    def _set(self, owner, name, new):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _wrap_class(self, cls, lid, layer):
        for name, attr in list(cls.__dict__.items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(
                    self._wrap(attr.__func__, lid, label)))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(
                    self._wrap(attr.__func__, lid, label)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, lid, label))

    def _wrap(self, fn, lid, label):
        fid = len(self.names)
        self.names.append(label)
        self.layer_of.append(lid)
        self.counts.append(0)
        counts, cur = self.counts, self._cur
        if inspect.isgeneratorfunction(fn):
            # a span would close before the generator runs: count only
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[fid] += 1
                return fn(*args, **kwargs)
            return counted

        miss = label in ("glfq.mat_mul", "wreath.wreath_mul")
        groups = LAYERS.index("groups")
        timed = label == "dixon.dixon_character_table"
        clock = time.perf_counter
        self_s = self.self_s
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[fid] += 1
            outer = cur[0]
            if miss and outer == groups:
                tracer.mul_misses += 1
            if outer == lid and not timed:
                return fn(*args, **kwargs)
            parent = cur[1]
            idx = tracer.spans
            tracer.spans = idx + 1
            cur[0], cur[1] = lid, idx
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                cur[0], cur[1] = outer, parent
                d = t1 - t0
                if outer != lid:
                    self_s[lid] += d
                    if outer != _NONE:
                        self_s[outer] -= d
                if timed:
                    tracer.inclusive_s[label] = (
                        tracer.inclusive_s.get(label, 0.0) + d)
                tracer._record(idx, lid, parent, t0, t1)
        return traced

    def _record(self, idx, lid, parent, t0, t1):
        if idx < self.span_cap:
            self._layer[idx] = lid
            self._parent[idx] = parent
            self._start[idx] = t0 - self._t0
            self._end[idx] = t1 - self._t0

    # -- job spans -------------------------------------------------------

    def run_job(self, job_id: str, fn):
        """Call fn() as a root span named after the job."""
        self.job_ids.append(job_id)
        idx = self.spans
        self.spans += 1
        self._cur[0], self._cur[1] = JOB, idx
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._cur[0], self._cur[1] = _NONE, _NONE
            self.self_s[JOB] += t1 - t0
            self._record(idx, JOB, _NONE, t0, t1)

    # -- results ---------------------------------------------------------

    def count(self, *labels) -> int:
        return sum(self.counts[self.names.index(label)] for label in labels)

    def layer_metrics(self) -> dict:
        calls = [0] * len(LAYERS)
        for fid, c in enumerate(self.counts):
            calls[self.layer_of[fid]] += c
        out = {}
        for lid, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (calls[lid], "count")
            out[f"{layer}.self_s"] = (self.self_s[lid], "s")
        mul = self.count("groups.FiniteGroupTable.mul")
        tables = self.count("dixon.dixon_character_table")
        out.update({
            "cyclo.new": (self.count("cyclo.Cyclo.__init__"), "count"),
            "cyclo.mul": (self.count("cyclo.Cyclo.__mul__",
                                     "cyclo.Cyclo.__rmul__"), "count"),
            "cyclo.inv": (self.count("cyclo.Cyclo.inv"), "count"),
            "cyclo.hash": (self.count("cyclo.Cyclo.__hash__"), "count"),
            "cyclo.repr": (self.count("cyclo.Cyclo.__repr__"), "count"),
            "groups.mul": (mul, "count"),
            "groups.mul_miss_ratio": (self.mul_misses / mul if mul else 0.0,
                                      "ratio"),
            "glfq.mat_mul": (self.count("glfq.mat_mul"), "count"),
            "groups.tables_built": (
                self.count("groups.FiniteGroupTable.__init__"), "count"),
            "dixon.tables": (tables, "count"),
            "dixon.s_per_table": (
                self.inclusive_s.get("dixon.dixon_character_table", 0.0)
                / tables if tables else 0.0, "s"),
            "combinat.tabloid_apply": (
                self.count("combinat.Tabloid.apply"), "count"),
            "specht.kappa_checks": (self.count("specht.apply_kappa"),
                                    "count"),
            "linalg.solves": (self.count("linalg.solve_exact",
                                         "linalg.solve_columns"), "count"),
            "hyperhecke.normalize": (self.count("hyperhecke.normalize"),
                                     "count"),
            "psh.products": (self.count("psh.PshStructure.product"),
                             "count"),
        })
        return out

    def dump(self, path):
        """Write the kept spans (times in microseconds from the tracer's
        start) and the per-function call counts as JSON."""
        n = min(self.spans, self.span_cap)
        layer_names = LAYERS + ("job",)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "layers": layer_names,
                "jobs": self.job_ids,
                "spans_recorded": self.spans,
                "spans_kept": n,
                "span_columns": ["layer", "parent", "start_us", "end_us"],
                "spans": [[self._layer[i], self._parent[i],
                           round(self._start[i] * 1e6),
                           round(self._end[i] * 1e6)] for i in range(n)],
                "calls": {name: c for name, c in zip(self.names, self.counts)
                          if c},
            }, fh, separators=(",", ":"))
