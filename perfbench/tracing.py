"""In-memory span tracing around the library's layer boundaries.

The tracer wraps public functions and methods of ``origami_rings`` from the
outside and rebinds every module attribute that imported them by name, so
that, for example, both ``geometry.intersect`` and ``construction.intersect``
record a ``geometry.intersect`` span.  Spans (name, start, end, parent, job)
are kept in flat arrays and written out when the run ends.  Self time is a
span's duration minus the durations of its direct children; spans of a
single thread nest, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

from origami_rings import analysis, construction, density, diophantine, export, geometry
from origami_rings import anglespec, cli, scalars
from origami_rings.cyclotomic import CyclotomicElement
from origami_rings.ratfunc import ParamRational

BACKENDS = {scalars.Rational: "rational", CyclotomicElement: "cyclotomic",
            ParamRational: "param"}
OPS = ("add", "mul", "inv", "canonical_key")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.jobs = array("i")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.maxima = defaultdict(int)
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------------

    def _open(self):
        self._stack.append([len(self.start), 0.0])
        self.name_id.append(-1)
        self.parent.append(self._stack[-2][0] if len(self._stack) > 1 else -1)
        self.jobs.append(self.job)
        self.end.append(0.0)
        self.start.append(time.perf_counter())

    def _close(self, name: str):
        t1 = time.perf_counter()
        idx, covered = self._stack.pop()
        duration = t1 - self.start[idx]
        self.end[idx] = t1
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id[idx] = nid
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, fn, name, after=None):
        """Traced version of fn.  ``name`` is a string or a callable of
        (args, result) giving the span name; ``after(args, result)`` records
        counters once the call returned."""
        tracer = self
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._open()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(fixed or name(args, result))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- installation -------------------------------------------------------------

    def patch_function(self, module, attr, name, after=None):
        """Wrap module.attr and rebind every library module attribute bound to it."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "origami_rings" or mod_name.startswith("origami_rings."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, original))

    def patch_attr(self, owner, attr, name, after=None):
        """Wrap owner.attr in place: a method of a class, or a function that
        callers reach through its module."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(original, name, after))
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------------

    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            t0 = self.start[0] if len(self.start) else 0.0
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.jobs[i]}\n"
                )


def _backend(value, fallback) -> str:
    return BACKENDS.get(type(value)) or BACKENDS.get(type(fallback), "other")


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics name."""
    t = tracer
    c = tracer.counters
    m = tracer.maxima

    # scalars: operators live on the shared base class, the rest per backend
    def op_name(op):
        return lambda args, result: f"scalars.{op}.{_backend(result, args[0])}"

    base = scalars.ExactScalar
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
        t.patch_attr(base, attr, op_name("add"))
    # a division is a multiplication whose inverse shows as a child span
    for attr in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        t.patch_attr(base, attr, op_name("mul"))

    def note_bits(args, result):
        bits = args[1] if len(args) > 1 else 0
        m["intervals.bits_max"] = max(m["intervals.bits_max"], bits)

    for cls, backend in BACKENDS.items():
        t.patch_attr(cls, "inv", f"scalars.inv.{backend}")
        t.patch_attr(cls, "canonical_key", f"scalars.canonical_key.{backend}")
        t.patch_attr(cls, "to_interval", "intervals.to_interval", note_bits)
    t.patch_function(scalars, "real_sign", "scalars.real_sign")
    t.patch_function(scalars, "ceil_exact", "scalars.ceil_exact")

    # construction and geometry
    def note_step(args, result):
        gen, angles = args[0], args[1]
        c["construction.candidates"] += len(list(angles.pairs())) * len(gen) ** 2
        c["construction.points_new"] += len(result) - len(gen)

    t.patch_function(construction, "step", "construction.step", note_step)
    t.patch_function(construction, "closure_to_depth", "construction.closure")
    t.patch_function(geometry, "intersect", "geometry.intersect")

    # analysis and diophantine
    def note_solve(args, result):
        c["analysis.solve.found"] += result is not None
        if result is not None:
            c["analysis.cert_count"] += 1
            c["analysis.cert_terms"] += len(result.terms)
            bits = max((abs(term.coefficient).bit_length() for term in result.terms), default=0)
            m["analysis.cert_coef_bits_max"] = max(m["analysis.cert_coef_bits_max"], bits)

    def note_build(args, result):
        rows = args[1]
        m["diophantine.matrix_cols"] = max(m["diophantine.matrix_cols"], len(rows[0]) if rows else 0)

    t.patch_function(analysis, "check_ring", "analysis.check_ring")
    t.patch_attr(analysis.MembershipSolver, "solve", "analysis.solve", note_solve)
    t.patch_function(analysis, "verify_certificate", "analysis.verify")
    t.patch_attr(diophantine.RationalRowSolver, "__init__", "diophantine.build", note_build)

    # density
    def note_witness(args, result):
        c["density.witnesses"] += 1
        c["density.n_sum"] += (result.n1 + result.n2) / 2

    t.patch_function(density, "approximate", "density.approximate", note_witness)
    t.patch_function(density, "find_scaling_projection", "density.scaling_projection")

    # export: CSV text, JSON objects and the JSON text of verdicts and witnesses
    t.patch_function(export, "generations_to_csv", "export.csv")
    t.patch_function(export, "generations_to_obj", "export.json")
    t.patch_attr(json, "dumps", "export.json")

    t.patch_function(cli, "run", "cli")
    t.patch_function(anglespec, "parse_angle_list", "anglespec.parse")


def layer_metrics(tracer: Tracer, export_bytes: int) -> dict:
    """Per-layer values named in BENCHMARK.json, as {name: (value, unit)}."""
    calls, self_s, c, m = tracer.calls, tracer.self_s, tracer.counters, tracer.maxima
    out = {}

    def span(name, with_calls=True):
        if with_calls:
            out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")

    span("construction.step")
    cand, new = c["construction.candidates"], c["construction.points_new"]
    out["construction.candidates"] = (int(cand), "count")
    out["construction.points_new"] = (int(new), "count")
    out["construction.new_per_candidate"] = (new / cand if cand else 0.0, "ratio")
    span("geometry.intersect")
    for op in OPS:
        for backend in BACKENDS.values():
            span(f"scalars.{op}.{backend}")
    span("scalars.real_sign")
    out["scalars.ceil_exact.calls"] = (calls["scalars.ceil_exact"], "count")
    span("intervals.to_interval")
    out["intervals.bits_max"] = (m["intervals.bits_max"], "bits")
    span("analysis.check_ring", with_calls=False)
    span("analysis.solve")
    solves = calls["analysis.solve"]
    out["analysis.solve.found_frac"] = (c["analysis.solve.found"] / solves if solves else 0.0, "ratio")
    span("analysis.verify")
    out["analysis.cert_coef_bits_max"] = (m["analysis.cert_coef_bits_max"], "bits")
    certs = c["analysis.cert_count"]
    out["analysis.cert_terms_mean"] = (c["analysis.cert_terms"] / certs if certs else 0.0, "count")
    span("diophantine.build")
    out["diophantine.matrix_cols"] = (m["diophantine.matrix_cols"], "count")
    span("density.approximate", with_calls=False)
    span("density.scaling_projection", with_calls=False)
    witnesses = c["density.witnesses"]
    out["density.n_mean"] = (c["density.n_sum"] / witnesses if witnesses else 0.0, "count")
    span("export.csv", with_calls=False)
    span("export.json", with_calls=False)
    out["export.bytes"] = (export_bytes, "B")
    span("cli", with_calls=False)
    span("anglespec.parse", with_calls=False)
    return out
