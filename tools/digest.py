"""SHA-256 digests of a fixed recipe's outputs, to check "bits unchanged".

    python3 tools/digest.py                          # this tree's src/
    python3 tools/digest.py --base HEAD~1 --change HEAD

On each builtin scene the recipe runs ``render_pt`` (40x40, 8 spp, one
chunk of samples; and 260x256, 2 spp, two chunks),
``render_sppm`` (40x40, 3 passes of 12,000 photons, two threads),
``build_dataset`` (two 24x24 views, spp 2, two threads), 10 ``train``
steps from a 3,000-photon seed, ``render_gpf`` of the trained field, and
reads the BVH arrays. It prints one digest per output. An array's digest
covers its dtype, shape and bytes. The dataset's ``position`` and
``l_ref`` arrays and its saved file are digested apart, as are the
trained parameters and the saved checkpoint, so a change of file layout
shows apart from a change of numbers.

With ``--base`` and ``--change``, both revisions are exported as
``tools/ab.py`` exports them, the recipe runs on each side's ``src/`` in
a fresh process, and every output reads ``equal`` or ``differs``. The
exit status is 1 when any output differs or is missing on one side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab import ROOT, export  # noqa: E402

SCENES = ("cornell-box", "caustic-sphere", "caustic-pool")
BVH_ARRAYS = ("kinds", "pa", "pb", "pc", "shape_ids", "perm", "node_lo", "node_hi", "node_right", "node_start", "node_count")


def array_digest(*arrays) -> str:
    """SHA-256 over each array's dtype, shape and C-order bytes, in order."""
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _second_view(pf, cam):
    """The camera moved a tenth of the way toward its target."""
    return pf.Camera(
        position=cam.position + 0.1 * (cam.look_at - cam.position),
        look_at=cam.look_at, up=cam.up, vfov=cam.vfov, resolution=cam.resolution,
    )


def recipe(pf, scene_name: str, tmp: Path) -> dict[str, str]:
    """``{output: digest}`` of the recipe on one builtin, run with the
    ``photonfield`` module ``pf``; files go to ``tmp``."""
    out = {}
    scene = pf.builtin_scene(scene_name)
    cam = scene.camera.with_resolution(40, 40)
    geometry = scene.geometry
    for name in BVH_ARRAYS:
        if hasattr(geometry, name):
            out[f"bvh.{name}"] = array_digest(getattr(geometry, name))
    out["render_pt"] = array_digest(pf.render_pt(scene, cam, spp=8, max_depth=16, rng=11, threads=2))
    chunked = scene.camera.with_resolution(260, 256)  # one sample a chunk, so two chunks
    out["render_pt.chunked"] = array_digest(pf.render_pt(scene, chunked, spp=2, max_depth=4, rng=18, threads=2))
    sppm = pf.SppmConfig(iterations=3, photons_per_iter=12_000, seed=12)
    out["render_sppm"] = array_digest(pf.render_sppm(scene, cam, sppm, threads=2))

    views = [scene.camera.with_resolution(24, 24)]
    views.append(_second_view(pf, views[0]))
    dataset = pf.build_dataset(
        scene, views, pf.SppmConfig(iterations=2, photons_per_iter=5_000, seed=13), samples_per_pixel=2, threads=2
    )
    out["dataset.position"] = array_digest(dataset.position)
    out["dataset.l_ref"] = array_digest(dataset.l_ref)
    dataset.save(tmp / "dataset.gpd")
    out["dataset.file"] = file_digest(tmp / "dataset.gpd")

    field = pf.GaussianField.from_photons(pf.trace_photons(scene, 3_000, 16, pf.Rng(14)), rng=pf.Rng(15))
    log = pf.train(field, dataset, pf.TrainConfig(learning_rate=2e-3, steps=10, batch_size=256, rebuild_every=5, seed=16))
    out["train.losses"] = array_digest(log.losses, [log.initial_full_loss, log.final_full_loss])
    out["train.field"] = array_digest(field.means, field.quats, field.log_scales, field.flux)
    field.save(tmp / "field.gpf")
    out["train.checkpoint"] = file_digest(tmp / "field.gpf")
    out["render_gpf"] = array_digest(pf.render_gpf(scene, cam, field, spp=2, seed=17, threads=2))
    return out


def tree_digests(src: Path) -> dict[str, str]:
    """``{"<scene>/<output>": digest}`` of the recipe, importing ``photonfield`` from ``src``."""
    sys.path.insert(0, str(src))
    import photonfield as pf

    if Path(pf.__file__).resolve().parent != (src / "photonfield").resolve():
        raise RuntimeError(f"imported photonfield from {pf.__file__}, not from {src}")
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scene_name in SCENES:
            for name, value in recipe(pf, scene_name, Path(tmp)).items():
                digests[f"{scene_name}/{name}"] = value
    return digests


def revision_digests(rev: str, scratch: Path) -> tuple[str, dict[str, str]]:
    """The object id of ``rev`` and its digests, from a fresh process on its exported ``src/``."""
    oid, path = export(rev, scratch)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--src", str(path / "src"), "--json"]
    res = subprocess.run(cmd, capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"digests of {rev} failed: {res.stderr[-2000:]}")
    return oid, json.loads(res.stdout)


def compare(base: dict[str, str], change: dict[str, str]) -> dict[str, str]:
    """Per output of either side: "equal", "differs", or which side lacks it."""
    status = {}
    for name in sorted(base.keys() | change.keys()):
        if name not in change:
            status[name] = "only in base"
        elif name not in base:
            status[name] = "only in change"
        else:
            status[name] = "equal" if base[name] == change[name] else "differs"
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to digest (without --base)")
    ap.add_argument("--json", action="store_true", help="print the digests as one JSON object")
    ap.add_argument("--base", help="git revision to compare from")
    ap.add_argument("--change", help="git revision to compare to")
    ap.add_argument("--scratch", type=Path, default=Path(os.environ.get("TMPDIR", "/tmp")) / "photonfield-ab")
    args = ap.parse_args(argv)
    if (args.base is None) != (args.change is None):
        ap.error("--base and --change go together")

    if args.base is None:
        digests = tree_digests(args.src)
        if args.json:
            print(json.dumps(digests, sort_keys=True))
        else:
            print("\n".join(f"{value}  {name}" for name, value in sorted(digests.items())))
        return 0

    args.scratch.mkdir(parents=True, exist_ok=True)
    (base_oid, base), (change_oid, change) = (revision_digests(rev, args.scratch) for rev in (args.base, args.change))
    status = compare(base, change)
    if args.json:
        print(json.dumps({"base": base_oid, "change": change_oid, "status": status}, sort_keys=True))
    else:
        print(f"base {args.base} ({base_oid[:12]}), change {args.change} ({change_oid[:12]})")
        print("\n".join(f"{state:14s} {name}" for name, state in status.items()))
        differ = sorted(name for name, state in status.items() if state != "equal")
        print(f"{len(status) - len(differ)} of {len(status)} outputs equal" + (f"; not equal: {', '.join(differ)}" if differ else ""))
    return 0 if all(state == "equal" for state in status.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
