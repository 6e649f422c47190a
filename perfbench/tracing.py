"""Outside-in tracing of `mapregister` layers.

The package is not modified.  `Tracer.install` replaces the public
functions at the names their callers look up: `pipeline.py` binds names
with `from .x import y`, so most wrappers go into `mapregister.pipeline`;
`split_at_nearest_vertex` looks `build_segments` up in `mapregister.curves`
and `assemble_system` looks its helpers up in `mapregister.field`.  The
geodesic engine is wrapped on the `Geodesic` class, which also catches the
bound `WGS84.inverse` that `anchor_min_distances` takes at call time.

Each call becomes a span (name, parent, start, end) kept in memory.  A
span's self time is its duration minus the durations of its children
(children never overlap: the program is single-threaded).  Counters are
read from arguments and return values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import statistics
import time
from pathlib import Path

#: (module, attribute, span name) of every wrapped function.  A dotted
#: attribute names a method on a class.
WRAPPED = (
    ("mapregister._geodesic", "Geodesic.inverse", "geodesic.inverse"),
    ("mapregister._geodesic", "Geodesic.direct", "geodesic.direct"),
    ("mapregister.pipeline", "read_correspondences", "formats.read_correspondences"),
    ("mapregister.pipeline", "read_pixel_curve", "formats.read_pixel_curve"),
    ("mapregister.pipeline", "read_geo_curve", "formats.read_geo_curve"),
    ("mapregister.pipeline", "fit_with_global", "pipeline.fit_with_global"),
    ("mapregister.pipeline", "solve_field", "field.solve_field"),
    ("mapregister.pipeline", "transform_curve", "pipeline.transform_curve"),
    ("mapregister.pipeline", "sample_field", "field.sample_field"),
    ("mapregister.pipeline", "build_segments", "curves.build_segments"),
    ("mapregister.pipeline", "split_at_nearest_vertex", "curves.split_at_nearest_vertex"),
    ("mapregister.pipeline", "compare_pair", "pipeline.compare_pair"),
    ("mapregister.pipeline", "anchor_min_distances", "curves.anchor_min_distances"),
    ("mapregister.pipeline", "render_csv_tables", "report.render_csv_tables"),
    ("mapregister.pipeline", "render_human", "report.render_human"),
    ("mapregister.pipeline", "render_sidecar", "report.render_sidecar"),
    ("mapregister.pipeline", "render_geojson_curve", "formats.render_geojson_curve"),
    ("mapregister.pipeline", "write_field_dump", "formats.write_field_dump"),
    ("mapregister.curves", "build_segments", "curves.build_segments"),
    ("mapregister.field", "rasterize_envelope", "field.rasterize_envelope"),
    ("mapregister.field", "assemble_from_masks", "field.assemble_from_masks"),
)

ROOT_SPAN = "pipeline.run_experiment"

#: Self-time metric -> the spans it sums.  Every span belongs to exactly
#: one metric, so the metrics add up to the traced run time.
SELF_TIME = {
    "geodesic.inverse_s": ("geodesic.inverse",),
    "geodesic.direct_s": ("geodesic.direct",),
    "curves.anchor_min_distances_s": ("curves.anchor_min_distances",),
    "curves.build_segments_s": ("curves.build_segments",),
    "curves.split_at_nearest_vertex_s": ("curves.split_at_nearest_vertex",),
    "pipeline.fit_with_global_s": ("pipeline.fit_with_global",),
    "pipeline.compare_pair_s": ("pipeline.compare_pair",),
    "pipeline.transform_curve_s": ("pipeline.transform_curve",),
    "pipeline.run_experiment_s": (ROOT_SPAN,),
    "field.rasterize_envelope_s": ("field.rasterize_envelope",),
    "field.assemble_from_masks_s": ("field.assemble_from_masks",),
    "field.solve_field_s": ("field.solve_field",),
    "field.sample_field_s": ("field.sample_field",),
    "report.render_s": ("report.render_csv_tables", "report.render_human", "report.render_sidecar"),
    "formats.read_s": (
        "formats.read_correspondences", "formats.read_pixel_curve", "formats.read_geo_curve",
    ),
    "formats.render_geojson_curve_s": ("formats.render_geojson_curve",),
    "formats.write_field_dump_s": ("formats.write_field_dump",),
}

#: Unit and better direction of every per-layer metric, in report order.
PER_LAYER = {
    **{name: ("s", "lower") for name in SELF_TIME},
    "geodesic.inverse_calls": ("count", "lower"),
    "geodesic.inverse_us": ("us", "lower"),
    "geodesic.inverse_unique_frac": ("ratio", "higher"),
    "geodesic.direct_calls": ("count", "lower"),
    "curves.anchor_pairs": ("count", "lower"),
    "curves.build_segments_points": ("count", "lower"),
    "field.sample_field_calls": ("count", "lower"),
    "field.nodes": ("count", "lower"),
    "field.dirichlet_nodes": ("count", "lower"),
    "field.matrix_nnz": ("count", "lower"),
    "field.residual": ("ratio", "lower"),
    "field.solve_peak_rss_mb": ("MB", "lower"),
    "formats.bytes_written": ("bytes", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _resolve(module, attr):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and counters of traced runs.

    Spans of the current run are kept in `spans`; those of the first run
    are also kept for `write`, later runs are reduced to their per-layer
    values, which keeps the tracer's memory out of later runs' peak RSS.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, parent, start, end]
        self.first_run: list[list] | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}
        self._inverse_args: set = set()

    # -- spans ---------------------------------------------------------
    def _wrap(self, name, fn, on_call=None, on_return=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            span = [name_id, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            if on_call is not None:
                on_call(args)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                span[2], span[3] = t0, t1
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def install(self):
        """Patch every boundary in WRAPPED; `uninstall` restores them."""
        hooks = {
            "geodesic.inverse": (self._on_inverse, None),
            "geodesic.direct": (self._count("geodesic.direct_calls"), None),
            "curves.anchor_min_distances": (self._on_anchor, None),
            "curves.build_segments": (self._on_build, None),
            "field.solve_field": (self._on_solve, self._on_solved),
            "field.sample_field": (self._count("field.sample_field_calls"), None),
        }
        for module_name, attr, span in WRAPPED:
            owner, name = _resolve(importlib.import_module(module_name), attr)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(span, original, *hooks.get(span, (None, None))))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- counters read at the boundaries --------------------------------
    def _count(self, key):
        def hook(args):
            self.counters[key] += 1

        return hook

    def _on_inverse(self, args):
        self.counters["geodesic.inverse_calls"] += 1
        self._inverse_args.add(args[1:5])

    def _on_anchor(self, args):
        a, b = args[0], args[1]
        self.counters["curves.anchor_pairs"] += len(a.points) * (len(b.chain) - 1)

    def _on_build(self, args):
        self.counters["curves.build_segments_points"] += len(args[0])

    def _on_solve(self, args):
        system = args[0]
        self.counters["field.nodes"] += system.matrix.shape[0]
        self.counters["field.dirichlet_nodes"] += int(system.dirichlet_mask.sum())
        self.counters["field.matrix_nnz"] += system.matrix.nnz

    def _on_solved(self, field):
        self.counters["field.residual"] = max(self.counters["field.residual"], field.residual)
        self.counters["field.solve_peak_rss_mb"] = peak_rss_mb()

    # -- one traced run ---------------------------------------------------
    def run(self, fn, *args):
        """Call fn(*args) as the root span of a new traced run.

        Returns (result, per-layer values of this run).  Exceptions
        propagate after the run's spans are closed.
        """
        self.spans = []
        self.counters = dict.fromkeys(
            ("geodesic.inverse_calls", "geodesic.direct_calls", "curves.anchor_pairs",
             "curves.build_segments_points", "field.sample_field_calls", "field.nodes",
             "field.dirichlet_nodes", "field.matrix_nnz", "field.residual",
             "field.solve_peak_rss_mb"),
            0,
        )
        self._inverse_args = set()
        root = self._wrap(ROOT_SPAN, fn)
        try:
            result = root(*args)
        finally:
            if self.first_run is None:
                self.first_run = self.spans
        return result, self._layers()

    def _layers(self) -> dict[str, float]:
        spans = self.spans
        self_time = [0.0] * len(self.names)
        for name_id, parent, t0, t1 in spans:
            d = t1 - t0
            self_time[name_id] += d
            if parent >= 0:
                self_time[spans[parent][0]] -= d
        by_span = dict(zip(self.names, self_time))
        out = {m: sum(by_span.get(s, 0.0) for s in group) for m, group in SELF_TIME.items()}
        missing = set(by_span) - {s for g in SELF_TIME.values() for s in g}
        if missing:
            raise RuntimeError(f"spans without a self-time metric: {sorted(missing)}")
        out.update(self.counters)
        calls = self.counters["geodesic.inverse_calls"]
        out["geodesic.inverse_us"] = out["geodesic.inverse_s"] / calls * 1e6 if calls else 0.0
        out["geodesic.inverse_unique_frac"] = len(self._inverse_args) / calls if calls else 0.0
        root = spans[0]
        out["trace.run_s"] = root[3] - root[2]
        out["trace.accounted_frac"] = 1.0 - out["pipeline.run_experiment_s"] / out["trace.run_s"]
        return out

    def write(self, path: Path):
        """The spans of the first traced run, as compact JSON."""
        doc = {
            "fields": ["name", "parent", "start", "end"],
            "names": self.names,
            "spans": self.first_run or [],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def median_layers(per_run: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
