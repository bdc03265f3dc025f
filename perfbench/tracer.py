"""Spans around the calls into photonfield's public functions.

The tracer replaces each traced function on every binding a caller can
look it up through: the defining module, every photonfield module that
imported it by name (``integrators.draw_unit``, ``training.
trace_to_first_diffuse``, ...), the package namespace and the benchmark's
own modules. Methods are replaced on their class. Nothing inside the
program changes, so the spans sit at the call boundaries only.

Spans are kept per thread. Work that ``integrators._ordered_map`` hands to
a worker thread inherits the span that was open in the submitting thread
as its parent, so a render's self time is the time none of its children
ran, not the time its thread spent waiting on workers.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    t0: float
    t1: float
    phase: str
    counts: dict = field(default_factory=dict)


# (module, qualified attribute, span name, counter(args, kwargs, result) -> dict)
# Counters read only the arguments and the result of the call.
TARGETS = [
    ("photonfield.scene", "Scene.__init__", "scene.build", None),
    ("photonfield.geometry", "Geometry.intersect", "geometry.intersect",
     lambda a, k, r: {"rays": len(r[0])}),
    ("photonfield.scene", "Scene.intersect_batch", "scene.intersect_batch",
     lambda a, k, r: {"rays": len(r.valid), "hits": int(r.valid.sum())}),
    ("photonfield.scene", "sample_bsdf_batch", "scene.sample_bsdf_batch",
     lambda a, k, r: {"rows": len(r[0])}),
    ("photonfield.core", "draw_unit", "core.draw_unit",
     lambda a, k, r: {"draws": int(getattr(r, "size", 1))}),
    ("photonfield.photons", "trace_photons", "photons.trace_photons",
     lambda a, k, r: {"emitted": int(a[1]), "stored": len(r)}),
    ("photonfield.spatial", "PointIndex.__init__", "spatial.build",
     lambda a, k, r: {"points": len(a[0])}),
    ("photonfield.spatial", "PointIndex.ball_query_batch", "spatial.ball_query_batch",
     lambda a, k, r: {"queries": len(r[1]) - 1, "neighbors": len(r[0])}),
    ("photonfield.spatial", "PointIndex.knn_query_batch", "spatial.knn_query_batch",
     lambda a, k, r: {"queries": len(r[1]) - 1}),
    ("photonfield.spatial", "PointIndex.hybrid_query_batch", "spatial.hybrid_query_batch",
     lambda a, k, r: {"queries": len(r[1]) - 1, "neighbors": len(r[0])}),
    ("photonfield.integrators", "kde_gather_batch", "integrators.kde_gather_batch",
     lambda a, k, r: {"points": len(r)}),
    ("photonfield.integrators", "trace_to_first_diffuse", "integrators.trace_to_first_diffuse",
     lambda a, k, r: {"rays": len(r.found), "found": int(r.found.sum())}),
    ("photonfield.integrators", "render_pt", "integrators.render_pt", None),
    ("photonfield.integrators", "render_sppm", "integrators.render_sppm", None),
    ("photonfield.integrators", "render_gpf", "integrators.render_gpf", None),
    ("photonfield.field", "GaussianField.query_batch", "field.query_batch",
     lambda a, k, r: {"points": len(r)}),
    ("photonfield.field", "GaussianField._forward", "field.forward", None),
    ("photonfield.field", "GaussianField.backward_scatter", "field.backward_scatter",
     lambda a, k, r: {"rows": len(a[3] if len(a) > 3 else k["flat"])}),
    ("photonfield.field", "GaussianField.rebuild_index", "field.rebuild_index",
     lambda a, k, r: {"count": 1}),
    ("photonfield.field", "GaussianField.save", "field.save",
     lambda a, k, r: {"bytes": os.path.getsize(a[1] if len(a) > 1 else k["path"])}),
    ("photonfield.field", "GaussianField.load", "field.load", None),
    ("photonfield.training", "build_dataset", "training.build_dataset",
     lambda a, k, r: {"samples": len(r)}),
    ("photonfield.training", "train", "training.train", None),
    ("photonfield.training", "dataset_loss", "training.dataset_loss", None),
]


class Tracer:
    """Installs span wrappers and collects finished spans in memory."""

    def __init__(self, extra_modules=()):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []
        self._extra_modules = list(extra_modules)

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> int:
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", 0)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._current()
            sid = next(tracer._ids)
            stack = tracer._stack()
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            counts = counter(args, kwargs, result) if counter is not None else {}
            tracer.spans.append(Span(sid, parent, name, t0, t1, tracer.phase, counts))
            return result

        return traced

    def _wrap_ordered_map(self, ordered_map):
        tracer = self

        @functools.wraps(ordered_map)
        def traced_map(fn, args, threads):
            parent = tracer._current()

            def job(a):
                tracer._local.inherited = parent
                try:
                    return fn(a)
                finally:
                    tracer._local.inherited = 0

            return ordered_map(job, args, threads)

        return traced_map

    # -- installation --------------------------------------------------------

    def _modules(self):
        names = [n for n in list(sys.modules) if n == "photonfield" or n.startswith("photonfield.")]
        return [sys.modules[n] for n in names] + self._extra_modules

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = self._modules()
        for mod_name, qual, span_name, counter in TARGETS:
            mod = sys.modules[mod_name]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, span_name, counter))
                else:
                    new = self._wrap(raw, span_name, counter)
                self._replace(cls, meth, new)
                continue
            original = getattr(mod, qual)
            wrapped = self._wrap(original, span_name, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, attr, wrapped)
        integrators = sys.modules["photonfield.integrators"]
        self._replace(integrators, "_ordered_map", self._wrap_ordered_map(integrators._ordered_map))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover.

    Children running on two threads at once may overlap; their union is
    what is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for c0, c1 in sorted(children.get(s.sid, ())):
            c0, c1 = max(c0, end), min(c1, s.t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[s.sid] = (s.t1 - s.t0) - covered
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], rounds: int, setups: int) -> dict[str, float]:
    """Per-layer metrics, per round of the workload (``scene.build`` per
    set-up). Layers with no span read 0."""
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    tot: dict[str, dict[str, float]] = {}
    shadow_rays = 0
    topup_queries = 0
    for s in spans:
        if s.phase != ("setup" if s.name == "scene.build" else "round"):
            continue
        acc = tot.setdefault(s.name, {"self_s": 0.0})
        acc["self_s"] += selfs[s.sid]
        for k, v in s.counts.items():
            acc[k] = acc.get(k, 0) + v
        parent = by_id.get(s.parent)
        parent_name = parent.name if parent is not None else None
        if s.name == "geometry.intersect" and parent_name != "scene.intersect_batch":
            shadow_rays += s.counts["rays"]
        if s.name == "spatial.knn_query_batch" and parent_name == "spatial.hybrid_query_batch":
            topup_queries += s.counts["queries"]

    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    def per_round(name, key):
        return get(name, key) / rounds

    m = {}
    m["geometry.intersect.rays"] = per_round("geometry.intersect", "rays")
    m["geometry.intersect.self_s"] = per_round("geometry.intersect", "self_s")
    m["geometry.shadow_rays"] = shadow_rays / rounds
    m["scene.intersect_batch.rays"] = per_round("scene.intersect_batch", "rays")
    m["scene.intersect_batch.hit_share"] = _ratio(get("scene.intersect_batch", "hits"), get("scene.intersect_batch", "rays"))
    m["scene.intersect_batch.self_s"] = per_round("scene.intersect_batch", "self_s")
    m["scene.sample_bsdf_batch.rows"] = per_round("scene.sample_bsdf_batch", "rows")
    m["scene.sample_bsdf_batch.self_s"] = per_round("scene.sample_bsdf_batch", "self_s")
    m["core.draw_unit.draws"] = per_round("core.draw_unit", "draws")
    m["core.draw_unit.self_s"] = per_round("core.draw_unit", "self_s")
    m["photons.trace_photons.emitted"] = per_round("photons.trace_photons", "emitted")
    m["photons.trace_photons.stored_share"] = _ratio(get("photons.trace_photons", "stored"), get("photons.trace_photons", "emitted"))
    m["photons.trace_photons.self_s"] = per_round("photons.trace_photons", "self_s")
    m["spatial.build.points"] = per_round("spatial.build", "points")
    m["spatial.build.self_s"] = per_round("spatial.build", "self_s")
    m["spatial.ball_query_batch.queries"] = per_round("spatial.ball_query_batch", "queries")
    m["spatial.ball_query_batch.neighbors_per_query"] = _ratio(get("spatial.ball_query_batch", "neighbors"), get("spatial.ball_query_batch", "queries"))
    m["spatial.ball_query_batch.self_s"] = per_round("spatial.ball_query_batch", "self_s")
    m["integrators.kde_gather_batch.points"] = per_round("integrators.kde_gather_batch", "points")
    m["integrators.kde_gather_batch.self_s"] = per_round("integrators.kde_gather_batch", "self_s")
    m["spatial.hybrid_query_batch.queries"] = per_round("spatial.hybrid_query_batch", "queries")
    m["spatial.hybrid_query_batch.topup_share"] = _ratio(topup_queries, get("spatial.hybrid_query_batch", "queries"))
    m["spatial.hybrid_query_batch.neighbors_per_query"] = _ratio(get("spatial.hybrid_query_batch", "neighbors"), get("spatial.hybrid_query_batch", "queries"))
    m["spatial.hybrid_query_batch.self_s"] = per_round("spatial.hybrid_query_batch", "self_s")
    m["spatial.knn_query_batch.queries"] = per_round("spatial.knn_query_batch", "queries")
    m["spatial.knn_query_batch.self_s"] = per_round("spatial.knn_query_batch", "self_s")
    m["field.forward.self_s"] = per_round("field.forward", "self_s")
    m["field.backward_scatter.rows"] = per_round("field.backward_scatter", "rows")
    m["field.backward_scatter.self_s"] = per_round("field.backward_scatter", "self_s")
    m["field.rebuild_index.count"] = per_round("field.rebuild_index", "count")
    m["field.rebuild_index.self_s"] = per_round("field.rebuild_index", "self_s")
    m["training.train.self_s"] = per_round("training.train", "self_s")
    m["training.dataset_loss.self_s"] = per_round("training.dataset_loss", "self_s")
    m["field.query_batch.points"] = per_round("field.query_batch", "points")
    m["field.query_batch.self_s"] = per_round("field.query_batch", "self_s")
    m["integrators.trace_to_first_diffuse.rays"] = per_round("integrators.trace_to_first_diffuse", "rays")
    m["integrators.trace_to_first_diffuse.found_share"] = _ratio(get("integrators.trace_to_first_diffuse", "found"), get("integrators.trace_to_first_diffuse", "rays"))
    m["integrators.trace_to_first_diffuse.self_s"] = per_round("integrators.trace_to_first_diffuse", "self_s")
    m["field.save.bytes"] = per_round("field.save", "bytes")
    m["field.load.self_s"] = per_round("field.load", "self_s")
    m["training.build_dataset.samples"] = per_round("training.build_dataset", "samples")
    m["training.build_dataset.self_s"] = per_round("training.build_dataset", "self_s")
    m["integrators.render_pt.self_s"] = per_round("integrators.render_pt", "self_s")
    m["integrators.render_sppm.self_s"] = per_round("integrators.render_sppm", "self_s")
    m["integrators.render_gpf.self_s"] = per_round("integrators.render_gpf", "self_s")
    m["scene.build.self_s"] = get("scene.build", "self_s") / setups
    return m


def recorded_layers(spans: list[Span]) -> set[str]:
    return {s.name for s in spans if s.phase == ("setup" if s.name == "scene.build" else "round")}
