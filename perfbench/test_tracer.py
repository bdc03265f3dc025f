"""The tracer sees calls through every binding, keeps worker spans under
the render that spawned them, and leaves the program as it found it.

    python3 -m pytest -q perfbench/test_tracer.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import photonfield as pf  # noqa: E402
from photonfield import core, integrators, training  # noqa: E402

import tracer as tr  # noqa: E402


def _ancestors(span, by_id):
    names = []
    while span.parent in by_id:
        span = by_id[span.parent]
        names.append(span.name)
    return names


def test_name_imported_bindings_and_worker_threads_are_traced():
    originals = (core.draw_unit, integrators.draw_unit, integrators.trace_photons, training.trace_to_first_diffuse, pf.render_sppm)
    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.phase = "round"
        scene = pf.builtin_scene("caustic-sphere")
        cam = scene.camera.with_resolution(8, 8)
        pf.render_sppm(scene, cam, pf.SppmConfig(iterations=2, photons_per_iter=500, seed=1), threads=2)
        pf.build_dataset(scene, [cam], pf.SppmConfig(iterations=1, photons_per_iter=500, seed=2))
    finally:
        tracer.uninstall()
    assert (core.draw_unit, integrators.draw_unit, integrators.trace_photons, training.trace_to_first_diffuse, pf.render_sppm) == originals

    by_id = {s.sid: s for s in tracer.spans}
    photon_spans = [s for s in tracer.spans if s.name == "photons.trace_photons"]
    assert len(photon_spans) == 3
    # the two render iterations ran on worker threads, yet sit under the render
    under_render = [s for s in photon_spans if "integrators.render_sppm" in _ancestors(s, by_id)]
    assert len(under_render) == 2
    # draw_unit called by name from integrators is traced as well
    assert any("integrators.trace_to_first_diffuse" in _ancestors(s, by_id) for s in tracer.spans if s.name == "core.draw_unit")
    # training imports trace_to_first_diffuse by name
    assert any("training.build_dataset" in _ancestors(s, by_id) for s in tracer.spans if s.name == "integrators.trace_to_first_diffuse")

    m = tr.layer_metrics(tracer.spans, rounds=1, setups=1)
    assert m["photons.trace_photons.emitted"] == 1500
    assert m["integrators.render_sppm.self_s"] >= 0.0
    assert m["spatial.hybrid_query_batch.queries"] == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        tr.Span(1, 0, "parent", 0.0, 10.0, "round"),
        tr.Span(2, 1, "child", 1.0, 4.0, "round"),
        tr.Span(3, 1, "child", 2.0, 6.0, "round"),
        tr.Span(4, 1, "child", 8.0, 9.0, "round"),
    ]
    assert tr.self_times(spans)[1] == 10.0 - 5.0 - 1.0
