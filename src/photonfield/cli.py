"""Command-line front end: reproducible renders, training runs, metrics.

Every file-writing command also writes ``<out>.manifest.json`` holding the
fully resolved flags, the scene content hash, and SHA-256 digests of the
outputs; re-running the manifest's argv reproduces the outputs byte for
byte (fixed seeds, thread-count-independent streams).

Exit codes: 0 success, 2 parse errors (bad files/flags), 3 validation
errors (well-formed but invalid input), 4 runtime failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import images, integrators, training
from .core import Rng
from .field import DEFAULT_INITIAL_SCALE, DEFAULT_K_MIN, DEFAULT_RADIUS, GaussianField, check_seed_params
from .integrators import SppmConfig
from .photons import _MAX_CHAIN, trace_photons
from .scene import Camera, Scene, SceneParseError, SceneValidationError, builtin_scene, load_camera, load_scene, load_views


def _load_scene_arg(source: str) -> Scene:
    if source.startswith("builtin:"):
        return builtin_scene(source[len("builtin:"):])
    return load_scene(source)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _resolved_argv(args: argparse.Namespace) -> list[str]:
    argv = [args.command]
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command") or value is None or value is False:
            continue
        argv.append("--" + key.replace("_", "-"))
        if isinstance(value, (list, tuple)):
            argv.extend(str(v) for v in value)
        elif value is not True:
            argv.append(str(value))
    return argv


def _write_manifest(args: argparse.Namespace, scene: Scene | None, outputs: list[str]):
    from . import __version__

    out = {
        "command": args.command,
        "argv": _resolved_argv(args),
        "package_version": __version__,
        "scene_hash": scene.content_hash() if scene is not None else None,
        "outputs": {p: _sha256_file(p) for p in outputs},
    }
    images.write_atomic(outputs[0] + ".manifest.json", (json.dumps(out, indent=2) + "\n").encode())


def _apply_resolution(camera: Camera, resolution) -> Camera:
    if resolution is None:
        return camera
    return camera.with_resolution(int(resolution[0]), int(resolution[1]))


def _sppm_config(args, iterations: int, photons: int) -> SppmConfig:
    return SppmConfig(
        iterations=iterations,
        photons_per_iter=photons,
        initial_radius=args.r0,
        alpha=args.alpha,
        max_photon_bounces=args.max_bounces,
        seed=args.seed,
    )


def _seed_field(scene: Scene, args, n_photons: int, k_min: int) -> GaussianField:
    """A field with one primitive per photon stored by ``n_photons`` traced photons."""
    check_seed_params(args.scale0, args.radius, k_min)  # before the photons are traced
    photons = trace_photons(scene, n_photons, args.max_bounces, Rng(args.seed))
    return GaussianField.from_photons(
        photons, initial_scale=args.scale0, rng=Rng(args.seed, 0x51), radius=args.radius, k_min=k_min
    )


def _metric_record(psnr_value, ssim_value, storage_bytes=None) -> dict:
    return {
        "psnr": "inf" if psnr_value == float("inf") else psnr_value,
        "ssim": ssim_value,
        "storage_bytes": storage_bytes,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_render_pt(args) -> int:
    scene = _load_scene_arg(args.scene)
    camera = _apply_resolution(scene.camera, args.resolution)
    img = integrators.render_pt(scene, camera, args.spp, args.max_depth, args.seed, threads=args.threads)
    images.write_pfm(args.out, img)
    _write_manifest(args, scene, [args.out])
    return 0


def _cmd_render_sppm(args) -> int:
    scene = _load_scene_arg(args.scene)
    camera = _apply_resolution(scene.camera, args.resolution)
    cfg = _sppm_config(args, args.iterations, args.photons)
    img = integrators.render_sppm(scene, camera, cfg, threads=args.threads)
    images.write_pfm(args.out, img)
    _write_manifest(args, scene, [args.out])
    return 0


def _cmd_gpf_init(args) -> int:
    scene = _load_scene_arg(args.scene)
    field = _seed_field(scene, args, args.photons, args.kmin)
    field.save(args.out_checkpoint)
    _write_manifest(args, scene, [args.out_checkpoint])
    n = len(field)
    print(f"initialized {n} primitives from {n} photon records stored by {args.photons} traced photons")
    return 0


def _train_config(args) -> training.TrainConfig:
    return training.TrainConfig(
        learning_rate=args.lr, steps=args.steps, batch_size=args.batch, rebuild_every=args.rebuild_every, seed=args.seed
    )


def _cmd_gpf_train(args) -> int:
    tcfg = _train_config(args)
    scene = _load_scene_arg(args.scene)
    cameras = load_views(args.views)
    cfg = _sppm_config(args, args.sppm_iterations, args.sppm_photons)
    if args.in_checkpoint is not None:
        field = GaussianField.load(args.in_checkpoint, radius=args.radius, k_min=args.kmin)
    else:
        field = _seed_field(scene, args, args.photons, args.kmin)
    dataset = training.build_dataset(scene, cameras, cfg, samples_per_pixel=args.spp, threads=args.threads)
    log = training.train(field, dataset, tcfg)
    field.save(args.out_checkpoint)
    outputs = [args.out_checkpoint]
    if args.dataset_out is not None:
        dataset.save(args.dataset_out)
        outputs.append(args.dataset_out)
    if args.log is not None:
        losses = {
            "losses": log.losses.tolist(),
            "initial_full_loss": log.initial_full_loss,
            "final_full_loss": log.final_full_loss,
        }
        images.write_atomic(args.log, (json.dumps(losses) + "\n").encode())
        outputs.append(args.log)
    _write_manifest(args, scene, outputs)
    print(
        f"trained {len(field)} primitives on {len(dataset)} samples: "
        f"loss {log.initial_full_loss:.6g} -> {log.final_full_loss:.6g}"
    )
    return 0


def _cmd_gpf_render(args) -> int:
    scene = _load_scene_arg(args.scene)
    camera = scene.camera if args.camera is None else load_camera(args.camera)
    camera = _apply_resolution(camera, args.resolution)
    field = GaussianField.load(args.checkpoint, radius=args.radius, k_min=args.kmin)
    img = integrators.render_gpf(
        scene, camera, field, spp=args.spp, seed=args.seed, bsdf_modulation=args.bsdf_modulation, threads=args.threads
    )
    images.write_pfm(args.out, img)
    _write_manifest(args, scene, [args.out])
    return 0


def _cmd_compare(args) -> int:
    ref = images.read_pfm(args.ref)
    table = {}
    for test_path in args.test:
        test = images.read_pfm(test_path)
        table[test_path] = _metric_record(images.psnr(ref, test, args.exposure), images.ssim(ref, test, args.exposure))
    blob = json.dumps({"ref": args.ref, "exposure": args.exposure, "results": table}, indent=2)
    print(blob)
    if args.out is not None:
        images.write_atomic(args.out, (blob + "\n").encode())
    return 0


def _cmd_sweep(args) -> int:
    tcfg = _train_config(args)
    ref_cfg = _sppm_config(args, args.ref_iterations, args.sppm_photons)
    train_cfg = _sppm_config(args, args.sppm_iterations, args.sppm_photons)
    scene = _load_scene_arg(args.scene)
    cameras = load_views(args.views)
    heldout = scene.camera if args.camera is None else load_camera(args.camera)
    heldout = _apply_resolution(heldout, args.resolution)
    values = [int(v) for v in args.values.split(",")]
    lowest = 1 if args.param == "gaussians" else 0  # at least one photon; k_min >= 0
    if min(values) < lowest:
        raise ValueError(f"--values for {args.param} must be >= {lowest}, got {min(values)}")
    images.check_exposure(args.exposure)
    # the (photon count, k_min) of each value's field, checked before the reference render
    seeds = [(value, args.kmin) if args.param == "gaussians" else (args.photons, value) for value in values]
    for n_photons, k_min in seeds:
        if n_photons < 1:
            raise ValueError(f"--photons must be >= 1, got {n_photons}")
        check_seed_params(args.scale0, args.radius, k_min)
    reference = integrators.render_sppm(scene, heldout, ref_cfg, threads=args.threads)
    rows, ckpts = [], []
    dataset = None
    for value, (n_photons, k_min) in zip(values, seeds):
        field = _seed_field(scene, args, n_photons, k_min)
        if dataset is None:
            dataset = training.build_dataset(scene, cameras, train_cfg, samples_per_pixel=args.spp, threads=args.threads)
        training.train(field, dataset, tcfg)
        ckpt = f"{args.out}.{args.param}-{value}.gpf"
        field.save(ckpt)
        ckpts.append(ckpt)
        t0 = time.perf_counter()
        img = integrators.render_gpf(scene, heldout, field, spp=args.spp, seed=args.seed, threads=args.threads)
        print(f"{args.param}={value}: render_gpf took {time.perf_counter() - t0:.3f} s", file=sys.stderr)
        rows.append(
            {
                "param": args.param,
                "value": value,
                **_metric_record(
                    images.psnr(reference, img, args.exposure),
                    images.ssim(reference, img, args.exposure),
                    storage_bytes=os.path.getsize(ckpt),
                ),
            }
        )
    blob = json.dumps({"param": args.param, "rows": rows}, indent=2)
    print(blob)
    images.write_atomic(args.out, (blob + "\n").encode())
    _write_manifest(args, scene, [args.out, *ckpts])
    return 0


# ---------------------------------------------------------------------------
# parser


def _int_list(text: str) -> str:
    """``text`` unchanged, so that the manifest prints it back as one argument, if it is comma-separated integers."""
    try:
        [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    return text


def _group(*flags) -> argparse.ArgumentParser:
    """A parent parser holding flags that several commands share, one ``(name, options)`` pair per flag."""
    parser = argparse.ArgumentParser(add_help=False)
    for name, options in flags:
        parser.add_argument(name, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="photonfield", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag that several commands take is declared once, and a default the library has is read from it
    scene = _group(("--scene", dict(required=True, help="scene JSON path or builtin:<name>")))
    seed = _group(("--seed", dict(type=int, default=0)))
    threads = _group(("--threads", dict(type=int, default=1, help="worker cap; never changes results")))
    image = _group(("--out", dict(required=True)), ("--resolution", dict(type=int, nargs=2, metavar=("W", "H"))))
    bounces_help = f"photon path length, 1 to {_MAX_CHAIN} hits"
    bounces = _group(("--max-bounces", dict(type=int, default=SppmConfig.max_photon_bounces, help=bounces_help)))
    sppm = _group(
        ("--r0", dict(type=float, default=SppmConfig.initial_radius)), ("--alpha", dict(type=float, default=SppmConfig.alpha))
    )
    index = _group(("--radius", dict(type=float, default=DEFAULT_RADIUS)), ("--kmin", dict(type=int, default=DEFAULT_K_MIN)))
    scale0 = _group(("--scale0", dict(type=float, default=DEFAULT_INITIAL_SCALE)))
    checkpoint_out = _group(("--out-checkpoint", dict(required=True)))
    exposure = _group(("--exposure", dict(type=float, default=1.0)))
    train = _group(
        ("--views", dict(required=True, help="JSON array of camera objects")),
        ("--lr", dict(type=float, default=training.TrainConfig.learning_rate)),
        ("--batch", dict(type=int, default=training.TrainConfig.batch_size)),
        ("--rebuild-every", dict(type=int, default=training.TrainConfig.rebuild_every)),
    )

    p = sub.add_parser("render-pt", parents=[scene, image, seed, threads], help="path-traced render (NEE + MIS)")
    p.add_argument("--spp", type=int, default=64)
    p.add_argument("--max-depth", type=int, default=16)
    p.set_defaults(func=_cmd_render_pt)

    p = sub.add_parser(
        "render-sppm", parents=[scene, image, sppm, bounces, seed, threads], help="progressive photon-mapping render"
    )
    p.add_argument("--iterations", type=int, default=64)
    p.add_argument("--photons", type=int, default=100_000)
    p.set_defaults(func=_cmd_render_sppm)

    p = sub.add_parser(
        "gpf-init", parents=[scene, checkpoint_out, index, scale0, bounces, seed], help="seed a photon field from traced photons"
    )
    p.add_argument("--photons", type=int, default=100_000)
    p.set_defaults(func=_cmd_gpf_init)

    p = sub.add_parser(
        "gpf-train",
        parents=[scene, checkpoint_out, train, sppm, bounces, index, scale0, seed, threads],
        help="optimize a photon field against photon-mapped references",
    )
    p.add_argument("--sppm-iterations", type=int, default=256)
    p.add_argument("--sppm-photons", type=int, default=100_000)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--spp", type=int, default=1, help="supervision samples per pixel")
    p.add_argument("--in-checkpoint", help="start from this field (default: fresh photon init)")
    p.add_argument("--photons", type=int, default=100_000, help="photon count for fresh init")
    p.add_argument("--dataset-out", help="also save the supervision dataset")
    p.add_argument("--log", help="write per-step losses as JSON")
    p.set_defaults(func=_cmd_gpf_train)

    p = sub.add_parser(
        "gpf-render", parents=[scene, image, index, seed, threads], help="render by querying a trained photon field"
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--camera", help="JSON camera object (default: scene camera)")
    p.add_argument("--spp", type=int, default=1)
    p.add_argument("--bsdf-modulation", action="store_true", help="ablation: multiply queries by albedo")
    p.set_defaults(func=_cmd_gpf_render)

    p = sub.add_parser("compare", parents=[exposure], help="PSNR/SSIM between a reference and test images")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True, action="append")
    p.add_argument("--out", help="also write the JSON table here")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "sweep",
        parents=[scene, image, train, sppm, bounces, index, scale0, exposure, seed, threads],
        help="ablation sweep over primitive count or k",
    )
    p.add_argument("--param", required=True, choices=("gaussians", "k"))
    p.add_argument("--values", required=True, type=_int_list, help="comma-separated integers")
    p.add_argument("--camera", help="held-out camera (default: scene camera)")
    p.add_argument("--ref-iterations", type=int, default=256)
    p.add_argument("--sppm-iterations", type=int, default=64)
    p.add_argument("--sppm-photons", type=int, default=50_000)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--photons", type=int, default=10_000, help="init photons when sweeping k")
    p.add_argument("--spp", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name in ("out", "out_checkpoint", "dataset_out", "log"):  # output paths, checked before any work
        path = getattr(args, name, None)
        if path is not None and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            flag = "--" + name.replace("_", "-")
            print(f"error: parse: {flag} {path} must name a file in an existing directory", file=sys.stderr)
            return 2
    try:
        for name in ("threads", "spp"):  # counts every command checks before it does any work
            if getattr(args, name, 1) < 1:
                raise ValueError(f"--{name} must be >= 1, got {getattr(args, name)}")
        return args.func(args)
    except SceneParseError as e:
        print(f"error: parse: {e}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as e:
        what = "missing file" if isinstance(e, FileNotFoundError) else "a directory, not a file"
        print(f"error: parse: {what}: {e.filename or e}", file=sys.stderr)
        return 2
    except (SceneValidationError, ValueError) as e:
        print(f"error: validate: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # pragma: no cover - defensive
        print(f"error: runtime: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
