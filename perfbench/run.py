"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pt-cornell --seed 1 --seconds 30 --trace 0

Run from the root of a photonfield checkout; the package is imported
from its ``src/``. With ``--trace 0`` the last line of standard output is
a JSON object with every end-to-end metric; with ``--trace 1`` it holds
every per-layer metric, and the spans go to ``.perfbench/``.
"""

from __future__ import annotations

import os

# at most two threads per workload: numpy's BLAS stays single-threaded and
# only render_sppm's thread map on sppm-pool runs two workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
REFERENCE_PASSES = 8
IMPORT_PROBE = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import photonfield; print(time.perf_counter() - t)"


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_program():
    if not (SRC / "photonfield" / "__init__.py").is_file():
        fail(f"no photonfield sources under {SRC}; run from a photonfield checkout")
    sys.path.insert(0, str(SRC))
    import photonfield

    if Path(photonfield.__file__).resolve().parent != SRC / "photonfield":
        fail(f"imported photonfield from {photonfield.__file__}, not from {SRC}")
    return photonfield


def import_seconds() -> float:
    """Package import time in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(res.stdout.strip().splitlines()[-1])


class Run:
    """Attempted and failed operations, and per-stage metric samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}

    def stage(self, fn, ops: int):
        """Run one stage; on an exception all its operations count failed."""
        self.attempted += ops
        try:
            metrics, outputs = fn()
        except Exception:
            traceback.print_exc()
            self.failed += ops
            return None
        for k, v in metrics.items():
            self.samples.setdefault(k, []).append(v)
        return outputs


def round_stages(wl, w, inp, workdir, companions: bool):
    """(kind, fn(round index), ops) of one round: the workload's primary
    stage and, unless ``companions`` is false, one small pass of each
    stage it does not stress, on the same scene."""
    stages = {
        "pt": (lambda i: wl.stage_pt(inp, w.pt), w.pt.ops),
        # companion photon-mapping passes take a fresh photon seed per
        # round, so that together they make pt-cornell's check reference
        "sppm": (lambda i: wl.stage_sppm(inp, w.sppm, 0 if w.primary == "sppm" else i), w.sppm.ops),
        "chain": (lambda i: wl.stage_chain(inp, w.chain, workdir), w.chain.ops),
    }
    kinds = [w.primary] + ([k for k in stages if k != w.primary] if companions else [])
    return [(k, *stages[k]) for k in kinds]


def run_rounds(run: Run, stages, seconds: float):
    """Whole rounds until ``seconds`` have passed. Returns the first
    round's outputs per stage, every round's photon-mapped image and each
    round's wall time."""
    first = {}
    sppm_images = []
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for kind, fn, ops in stages:
            out = run.stage(lambda: fn(len(walls)), ops)
            first.setdefault(kind, out)
            if kind == "sppm" and out is not None:
                sppm_images.append(out["image"])
        walls.append(time.perf_counter() - t0)
    return first, sppm_images, walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pf = import_program()
    sys.path.insert(0, str(HERE))
    import workloads as wl
    import tracer as tr

    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(wl.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    w = wl.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(pf, wl, tr, w, args, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup(pf, wl, w, seed):
    """Scene, BVH, leaf-pack warm-up and, for the field pipeline, the
    photon-seeded field. Returns the inputs and the set-up seconds."""
    t0 = time.perf_counter()
    inp = wl.Inputs(pf, w, seed)
    if w.primary == "chain":
        inp.seed_field(w.chain)
    return inp, time.perf_counter() - t0


def measure(pf, wl, tr, w, args, workdir, out_dir) -> int:
    run = Run()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        inp, build_s = setup(pf, wl, w, args.seed)
        setup_s.append(import_seconds() + build_s)

    layer = None
    if args.trace:
        # untraced rounds of the primary stage, then the same rounds
        # traced; the median difference per round is the tracing overhead
        first, sppm_images, base_walls = run_rounds(run, round_stages(wl, w, inp, workdir, False), args.seconds / 3.0)
        tracer = tr.Tracer(extra_modules=[sys.modules["workloads"]])
        tracer.install()
        try:
            for _ in range(SETUP_REPEATS):
                inp_traced, _ = setup(pf, wl, w, args.seed)
            tracer.phase = "round"
            _, _, traced_walls = run_rounds(run, round_stages(wl, w, inp_traced, workdir, False), args.seconds * 2.0 / 3.0)
        finally:
            tracer.uninstall()
        missing = wl.EXPECTED_LAYERS[w.primary] - tr.recorded_layers(tracer.spans)
        if missing:
            fail(f"traced run recorded no span for expected layers: {sorted(missing)}", 1)
        layer = tr.layer_metrics(tracer.spans, len(traced_walls), SETUP_REPEATS)
        base, traced = statistics.median(base_walls), statistics.median(traced_walls)
        layer["tracing.overhead_s"] = traced - base
        layer["tracing.overhead_share"] = (traced - base) / base
        write_trace(out_dir / f"trace-{w.name}-seed{args.seed}.json", tracer.spans, layer)
    else:
        if w.primary != "chain":
            inp.seed_field(w.chain)  # for the companion field pipeline
        first, sppm_images, _ = run_rounds(run, round_stages(wl, w, inp, workdir, True), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = first[w.primary]
    fails = []
    if first is None:
        fails.append("the first round failed; its outputs could not be checked")
    elif w.primary == "pt":
        # photon-mapped reference: the companion passes, topped up to
        # REFERENCE_PASSES distinct photon seeds
        images = list(sppm_images)
        for i in range(len(images), REFERENCE_PASSES):
            images.append(wl.stage_sppm(inp, w.sppm, i)[1]["image"])
        fails += wl.check_pt(inp, first, images)
    elif w.primary == "sppm":
        fails += wl.check_sppm(inp, first)
    else:
        fails += wl.check_chain(inp, first)
    for msg in fails:
        print(f"CHECK FAILED {w.name}: {msg}", file=sys.stderr)

    # names and units come from BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if layer is not None:
        values = layer
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup_s), "peak_rss_mb": peak_rss_mb}
        values.update({k: statistics.median(v) for k, v in run.samples.items()})
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value measured for {missing}", 1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for k, m in metrics.items():
        print(f"{w.name} seed {args.seed}: {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not fails, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


def write_trace(path: Path, spans, layer: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [[s.sid, s.parent, s.name, s.phase, s.t0, s.t1, s.counts] for s in spans]
    path.write_text(json.dumps({"columns": ["id", "parent", "name", "phase", "t0", "t1", "counts"], "spans": rows, "layers": layer}))


if __name__ == "__main__":
    sys.exit(main())
