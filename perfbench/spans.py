"""Span tracer for the grushinlab benchmark.

The tracer wraps the public functions of every grushinlab module (plus the
few private or foreign entry points the per-layer metrics need) from the
outside: it replaces each function object wherever another module of the
package binds it, so the ``from .fdsolver import solve`` copies are wrapped
and calls into a layer are traced, and it puts every binding back on
``remove()``.  No file of the package changes.  Calls inside a module stay
untraced (``jsonable`` recursing, ``supersolution_jet`` calling
``kernel_jet``), except for the few in ``_HOME_TOO``.

Each call through a wrapper records one span ``(name, layer, start, end,
parent, job, note)``; ``parent`` is the index of the enclosing span,
``note`` a small value read off the arguments or the result (points
evaluated, LU fill, refinement sweeps, bytes written).  Notes are computed
after the span has ended and their cost is recorded as a span of the
``trace`` layer, so bookkeeping is never charged to a package layer.

Spans live in memory; ``pass_metrics()`` turns the spans of one pass of
the job list into the per-layer metrics and clears them.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import threading
import time

LAYERS = (
    "config",
    "geometry",
    "closedforms",
    "coefficients",
    "fdsolver",
    "experiments",
    "runtime",
    "reports",
    "cli",
)

# Entry points that are not public functions of their module, by layer.
_PRIVATE = {
    "fdsolver": ("_positive_offdiagonal_rows",),
    "experiments": ("_shell_sample",),
}
# Public entry points whose binding in their own module is wrapped too: the
# two the benchmark calls, and calls inside a module that a metric counts
# (the DMP check run by ``solve``, the gauge evaluations of the samplers).
# The private entry points above are always wrapped in their own module.
_HOME_TOO = {"cli.run", "config.parse_config", "fdsolver.check_dmp", "geometry.gauge_arrays"}
_METHODS = {"fdsolver": (("AnisotropicGrid", "node_coordinates"), ("AnisotropicGrid", "face_mask"))}

# Span name -> category; a category's time counts only its outermost spans.
_CATEGORY = {
    "fdsolver.build_grid": "grid",
    "fdsolver.AnisotropicGrid.node_coordinates": "grid",
    "fdsolver.AnisotropicGrid.face_mask": "grid",
    "fdsolver.assemble": "assemble",
    "fdsolver.check_dmp": "dmp",
    "fdsolver._positive_offdiagonal_rows": "dmp",
    "fdsolver.splu": "factor",
    "fdsolver.lsqr": "lsqr",
    "fdsolver.solve": "solve",
    "fdsolver.write_grid_function": "write_grid",
    "fdsolver.grid_interpolator": "interp",
    "fdsolver.interpolate": "interp",
    "closedforms.kernel_jet": "jet",
    "closedforms.gauge_power_jet": "jet",
    "closedforms.supersolution_jet": "jet",
    "closedforms.boundary_barrier_jet": "jet",
    "closedforms.apply_grushin": "apply",
    "closedforms.apply_operator": "apply",
    "closedforms.grushin_term_scale": "apply",
    "closedforms.kernel_value_arrays": "array",
    "closedforms.supersolution_value_arrays": "array",
    "geometry.sample_points_by_gauge": "sample",
    "experiments._shell_sample": "sample",
    "geometry.gauge_arrays": "gauge",
    "coefficients.field": "field",
    "coefficients.audit_ellipticity_arrays": "audit",
    "reports.write_json_report": "write",
    "reports.write_csv": "write",
    "runtime.map_chunks": "chunks",
    "config.parse_config": "parse",
}

# Every metric pass_metrics() returns, with its unit.
METRIC_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "fdsolver.factor_s": "s",
    "fdsolver.factor_calls": "count",
    "fdsolver.lu_fill_nnz": "count",
    "fdsolver.assemble_s": "s",
    "fdsolver.assemble_calls": "count",
    "fdsolver.unknowns": "count",
    "fdsolver.matrix_nnz": "count",
    "fdsolver.dmp_calls": "count",
    "fdsolver.dmp_s": "s",
    "fdsolver.dmp_per_solve": "ratio",
    "fdsolver.dmp_offender_rows": "count",
    "fdsolver.grid_s": "s",
    "fdsolver.solve_calls": "count",
    "fdsolver.solve_s": "s",
    "fdsolver.refine_s": "s",
    "fdsolver.refine_sweeps": "count",
    "fdsolver.unconverged_solves": "count",
    "fdsolver.lsqr_fallbacks": "count",
    "fdsolver.converged_ratio": "ratio",
    "fdsolver.write_grid_s": "s",
    "fdsolver.write_grid_bytes": "bytes",
    "fdsolver.interp_s": "s",
    "closedforms.jet_calls": "count",
    "closedforms.jet_s": "s",
    "closedforms.apply_calls": "count",
    "closedforms.apply_s": "s",
    "closedforms.array_points": "count",
    "closedforms.array_s": "s",
    "geometry.sample_s": "s",
    "geometry.gauge_points": "count",
    "experiments.shell_accept_ratio": "ratio",
    "experiments.solves": "count",
    "coefficients.field_calls": "count",
    "coefficients.field_points": "count",
    "coefficients.field_s": "s",
    "coefficients.audit_s": "s",
    "coefficients.audit_points": "count",
    "reports.write_calls": "count",
    "reports.write_s": "s",
    "reports.bytes": "bytes",
    "runtime.chunk_calls": "count",
    "runtime.workers": "count",
    "config.parse_s": "s",
    "trace.self_s": "s",
    "trace.wall_s": "s",
    "trace.accounted_frac": "ratio",
    "trace.spans": "count",
}


def _size_of(param: str, fn):
    """Note function reading ``np.size`` of the argument named ``param``."""
    index = list(inspect.signature(fn).parameters).index(param)

    def note(args, kwargs, result):
        value = args[index] if len(args) > index else kwargs[param]
        return int(getattr(value, "size", 1))

    return note


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _lu_fill(args, kwargs, result):
    return int(result.L.nnz + result.U.nnz)


def _assembled(args, kwargs, result):
    return (result.matrix.shape[0], result.matrix.nnz, int(result.mesh_ratio_offenders.size))


def _solved(args, kwargs, result):
    report = result[1]
    return (report.iterations, report.converged)


def _chunks(args, kwargs, result):
    workers = kwargs.get("workers", args[2] if len(args) > 2 else None)
    if workers is None:
        workers = sys.modules["grushinlab.runtime"].thread_budget()
    return (len(result), int(workers))


def _count_arg(index):
    return lambda args, kwargs, result: int(args[index])


class Tracer:
    """Records spans around the package's entry points; see the module doc."""

    def __init__(self):
        self.spans: list = []
        self.job = None
        self.entry_points = {layer: 0 for layer in LAYERS}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, layer, note=None, transform=None, prepare=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        get_ident, home = threading.get_ident, threading.main_thread().ident

        def traced(*args, **kwargs):
            if get_ident() != home:
                # Pool threads (GRUSHINLAB_THREADS > 1) run untraced; their
                # time stays inside the caller's map_chunks span.
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            if prepare is not None:
                args = prepare(args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.job, None)
                raise
            end = clock()
            stack.pop()
            value = None
            if note is not None or transform is not None:
                mark = len(spans)
                spans.append(None)
                if note is not None:
                    value = note(args, kwargs, result)
                if transform is not None:
                    result = transform(result)
                spans[mark] = ("trace.note", "trace", end, clock(), parent, self.job, None)
            spans[index] = (name, layer, start, end, parent, self.job, value)
            return result

        traced.__wrapped__ = fn
        traced.__perfbench_traced__ = True
        return traced

    def install(self) -> "Tracer":
        """Wrap every entry point of the nine layers (the package is imported)."""
        import importlib

        import scipy.sparse.linalg

        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"grushinlab.{layer}")
            except ModuleNotFoundError:  # a layer a later version removed
                continue
        notes = {
            "fdsolver.assemble": _assembled,
            "fdsolver.solve": _solved,
            "fdsolver.write_grid_function": _file_bytes,
            "reports.write_json_report": _file_bytes,
            "reports.write_csv": _file_bytes,
            "runtime.map_chunks": _chunks,
            "geometry.sample_points_by_gauge": _count_arg(2),
            "experiments._shell_sample": _count_arg(2),
        }
        transforms = {
            "fdsolver.grid_interpolator": self._traced_interpolator,
            "coefficients.make_identity_field": self._traced_field,
            "coefficients.make_decaying_perturbation": self._traced_field,
        }
        for layer, module in modules.items():
            private = tuple(
                a for a in _PRIVATE.get(layer, ()) if inspect.isfunction(getattr(module, a, None))
            )
            for attr in _entry_names(module) + private:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                note = notes.get(name)
                if note is None and _CATEGORY.get(name) in ("array", "gauge", "audit"):
                    note = _size_of("normal", fn)
                prepare = self._traced_chunk_fn if name == "runtime.map_chunks" else None
                wrapped = self._wrap(fn, name, layer, note, transforms.get(name), prepare)
                home = None if name in _HOME_TOO or attr in private else module
                if replace_everywhere(fn, wrapped, self._undo, skip=home):
                    self.entry_points[layer] += 1
            for cls_name, attr in _METHODS.get(layer, ()):
                cls = getattr(module, cls_name, None)
                fn = vars(cls).get(attr) if cls is not None else None
                if fn is None:
                    continue
                wrapped = self._wrap(fn, f"{layer}.{cls_name}.{attr}", layer)
                patch(cls, attr, wrapped, self._undo)
                self.entry_points[layer] += 1
        # SciPy entry points the solver layer calls: the factorisation is
        # bound in fdsolver's namespace, the least-squares fallback is looked
        # up on scipy.sparse.linalg at call time.
        splu = scipy.sparse.linalg.splu
        replace_everywhere(splu, self._wrap(splu, "fdsolver.splu", "fdsolver", _lu_fill), self._undo)
        lsqr = self._wrap(scipy.sparse.linalg.lsqr, "fdsolver.lsqr", "fdsolver")
        patch(scipy.sparse.linalg, "lsqr", lsqr, self._undo)
        return self

    def _traced_field(self, field):
        import dataclasses

        wrap = lambda fn: self._wrap(fn, "coefficients.field", "coefficients", _size_of("xn", fn))
        return dataclasses.replace(field, tangential=wrap(field.tangential), mixed=wrap(field.mixed))

    def _traced_chunk_fn(self, args):
        # The chunk function is the caller's code (a closure of experiments or
        # coefficients), so its time goes to the module that defines it.
        fn, rest = args[0], args[1:]
        layer = fn.__module__.rpartition(".")[2]
        return (self._wrap(fn, f"{layer}.chunk", layer),) + rest

    def _traced_interpolator(self, interpolator):
        return self._wrap(interpolator, "fdsolver.interpolate", "fdsolver")

    def remove(self) -> int:
        """Restore every binding; return how many traced wrappers remain."""
        restore(self._undo)
        return traced_bindings()

    # -- metrics ----------------------------------------------------------

    def pass_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded since the last call."""
        taken = list(self.spans)
        self.spans.clear()  # in place: the wrappers hold this list
        return span_metrics(taken, wall_s)


def patch(owner, attr, replacement, undo: list) -> None:
    """Set ``owner.attr``, remembering the old value in ``undo``."""
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


def replace_everywhere(original, replacement, undo: list, skip=None) -> int:
    """Rebind ``original`` to ``replacement`` in the package's modules but
    ``skip``; return how many bindings changed."""
    changed = 0
    for module in _package_modules():
        if module is skip:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patch(module, attr, replacement, undo)
                changed += 1
    return changed


def restore(undo: list) -> None:
    """Undo ``patch`` calls, newest first."""
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "grushinlab" and m]


def _entry_names(module) -> tuple[str, ...]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return tuple(
        n
        for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    )


def traced_bindings() -> int:
    """Number of bindings in the package (and SciPy's lsqr) that are wrappers."""
    import scipy.sparse.linalg

    owners = _package_modules() + [scipy.sparse.linalg]
    owners += [v for m in _package_modules() for v in vars(m).values() if isinstance(v, type)]
    return sum(
        1
        for owner in owners
        for value in list(vars(owner).values())
        if getattr(value, "__perfbench_traced__", False)
    )


def span_metrics(spans: list, wall_s: float) -> dict:
    """Fold one pass of spans into the metrics named in METRIC_UNITS."""
    count = len(spans)
    child_time = [0.0] * count
    outer = [True] * count  # no ancestor of the same category
    inside = [frozenset()] * count  # categories of the ancestors
    cats = [_CATEGORY.get(s[0]) for s in spans]
    for i, (name, layer, start, end, parent, job, note) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            inside[i] = inside[parent] | {cats[parent]}
            outer[i] = cats[i] not in inside[i]

    m = {key: 0.0 for key in METRIC_UNITS}
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = count
    solves = converged = shell_accepted = shell_drawn = 0
    for i, (name, layer, start, end, parent, job, note) in enumerate(spans):
        dur = end - start
        m[f"{layer}.self_s"] += dur - child_time[i]
        cat = cats[i]
        if cat is None or not outer[i]:
            continue
        if cat == "factor":
            m["fdsolver.factor_s"] += dur
            m["fdsolver.factor_calls"] += 1
            m["fdsolver.lu_fill_nnz"] += note
            if "solve" in inside[i]:
                m["fdsolver.refine_s"] -= dur
        elif cat == "assemble":
            m["fdsolver.assemble_s"] += dur
            m["fdsolver.assemble_calls"] += 1
            m["fdsolver.unknowns"] += note[0]
            m["fdsolver.matrix_nnz"] += note[1]
            m["fdsolver.dmp_offender_rows"] += note[2]
        elif cat == "dmp":
            m["fdsolver.dmp_s"] += dur
            m["fdsolver.dmp_calls"] += 1
            if "solve" in inside[i]:
                m["fdsolver.refine_s"] -= dur
        elif cat == "grid":
            m["fdsolver.grid_s"] += dur
        elif cat == "solve":
            solves += 1
            m["fdsolver.solve_s"] += dur
            m["fdsolver.refine_s"] += dur
            m["fdsolver.refine_sweeps"] += note[0]
            converged += bool(note[1])
            if any(spans[a][1] == "experiments" for a in _ancestors(spans, i)):
                m["experiments.solves"] += 1
        elif cat == "lsqr":
            m["fdsolver.lsqr_fallbacks"] += 1
        elif cat == "write_grid":
            m["fdsolver.write_grid_s"] += dur
            m["fdsolver.write_grid_bytes"] += note
        elif cat == "interp":
            m["fdsolver.interp_s"] += dur
        elif cat in ("jet", "apply", "array"):
            m[f"closedforms.{cat}_s"] += dur
            if cat == "array":
                m["closedforms.array_points"] += note
            else:
                m[f"closedforms.{cat}_calls"] += 1
        elif cat == "sample":
            m["geometry.sample_s"] += dur
            if name == "experiments._shell_sample":
                shell_accepted += note
        elif cat == "field":
            m["coefficients.field_calls"] += 1
            m["coefficients.field_points"] += note
            m["coefficients.field_s"] += dur
        elif cat == "audit":
            m["coefficients.audit_s"] += dur
            m["coefficients.audit_points"] += note
        elif cat == "write":
            m["reports.write_calls"] += 1
            m["reports.write_s"] += dur
            m["reports.bytes"] += note
        elif cat == "parse":
            m["config.parse_s"] += dur
        elif cat == "chunks":
            m["runtime.chunk_calls"] += note[0]
            m["runtime.workers"] = max(m["runtime.workers"], note[1])
        elif cat == "gauge":
            m["geometry.gauge_points"] += note
            if parent >= 0 and spans[parent][0] == "experiments._shell_sample":
                shell_drawn += note
    m["fdsolver.solve_calls"] = solves
    m["fdsolver.unconverged_solves"] = solves - converged
    m["fdsolver.converged_ratio"] = converged / solves if solves else 0.0
    m["fdsolver.dmp_per_solve"] = m["fdsolver.dmp_calls"] / solves if solves else 0.0
    m["experiments.shell_accept_ratio"] = shell_accepted / shell_drawn if shell_drawn else 0.0
    accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.self_s"]
    m["trace.accounted_frac"] = accounted / wall_s if wall_s > 0 else 0.0
    return m


def _ancestors(spans, i):
    parent = spans[i][4]
    while parent >= 0:
        yield parent
        parent = spans[parent][4]


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over passes (counts repeat, so they pass through)."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
