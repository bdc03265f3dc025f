"""Command-line interface: determinism, manifests, error categories."""

import argparse
import errno
import json
import os

import numpy as np
import pytest

from photonfield.cli import _resolved_argv, build_parser, main
from photonfield.field import DEFAULT_INITIAL_SCALE, DEFAULT_K_MIN, DEFAULT_RADIUS, SCALE_MAX, SCALE_MIN, GaussianField
from photonfield.images import read_pfm, write_pfm
from photonfield.integrators import SppmConfig, render_gpf
from photonfield.scene import builtin_scene, scene_to_dict
from photonfield.training import TrainConfig


@pytest.fixture()
def views_file(tmp_path):
    cams = [
        {"position": [0.0, -3.9, 0.0], "look_at": [0.0, 0.0, 0.0], "up": [0.0, 0.0, 1.0],
         "vfov": 28.0, "resolution": [12, 12]},
        {"position": [0.6, -3.6, 0.3], "look_at": [0.0, 0.0, 0.0], "up": [0.0, 0.0, 1.0],
         "vfov": 28.0, "resolution": [12, 12]},
    ]
    path = tmp_path / "views.json"
    path.write_text(json.dumps(cams))
    return str(path)


def _render_sppm_args(out, seed=1, threads=1):
    return [
        "render-sppm", "--scene", "builtin:cornell-box", "--iterations", "2", "--photons", "2000",
        "--out", str(out), "--seed", str(seed), "--resolution", "12", "12", "--threads", str(threads),
    ]


class TestDeterminism:
    def test_render_sppm_bytes_identical_across_runs_and_threads(self, tmp_path):
        a = tmp_path / "a.pfm"
        b = tmp_path / "b.pfm"
        c = tmp_path / "c.pfm"
        assert main(_render_sppm_args(a, threads=1)) == 0
        assert main(_render_sppm_args(b, threads=1)) == 0
        assert main(_render_sppm_args(c, threads=2)) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_render_pt_bytes_identical(self, tmp_path):
        argv = [
            "render-pt", "--scene", "builtin:cornell-box", "--spp", "4", "--max-depth", "5",
            "--out", str(tmp_path / "x.pfm"), "--seed", "3", "--resolution", "10", "10",
        ]
        assert main(argv) == 0
        first = (tmp_path / "x.pfm").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "x.pfm").read_bytes() == first

    def test_sweep_reruns_byte_for_byte(self, tmp_path, views_file, capsys):
        outs = [tmp_path / "a" / "sweep.json", tmp_path / "b" / "sweep.json"]
        for out in outs:
            out.parent.mkdir()
            argv = [
                "sweep", "--param", "k", "--values", "1,3", "--scene", "builtin:cornell-box", "--views", views_file,
                "--ref-iterations", "1", "--sppm-iterations", "1", "--sppm-photons", "1000", "--steps", "4",
                "--batch", "16", "--photons", "800", "--resolution", "12", "12", "--out", str(out), "--seed", "6",
            ]
            assert main(argv) == 0
            # the render times go to stderr, outside the digested outputs
            assert [line.split(":")[0] for line in capsys.readouterr().err.splitlines()] == ["k=1", "k=3"]
        assert outs[0].read_bytes() == outs[1].read_bytes()
        digests = [json.loads(open(f"{out}.manifest.json").read())["outputs"][str(out)] for out in outs]
        assert digests[0] == digests[1]

    def test_manifest_rerun_reproduces_bytes(self, tmp_path):
        out = tmp_path / "m.pfm"
        assert main(_render_sppm_args(out, seed=5)) == 0
        first = out.read_bytes()
        manifest = json.loads((tmp_path / "m.pfm.manifest.json").read_text())
        out.unlink()
        assert main(manifest["argv"]) == 0
        assert out.read_bytes() == first
        digest = json.loads((tmp_path / "m.pfm.manifest.json").read_text())["outputs"][str(out)]
        assert digest == manifest["outputs"][str(out)]
        assert manifest["scene_hash"]


class TestPipeline:
    def test_init_train_render_round_trip(self, tmp_path, views_file, capsys):
        ckpt = tmp_path / "field.gpf"
        rc = main(
            [
                "gpf-init", "--scene", "builtin:cornell-box", "--photons", "2000",
                "--out-checkpoint", str(ckpt), "--seed", "2",
            ]
        )
        assert rc == 0 and ckpt.exists()
        n = len(GaussianField.load(ckpt))
        assert n > 0
        assert capsys.readouterr().out == f"initialized {n} primitives from {n} photon records stored by 2000 traced photons\n"
        trained = tmp_path / "trained.gpf"
        log = tmp_path / "log.json"
        rc = main(
            [
                "gpf-train", "--scene", "builtin:cornell-box", "--views", views_file,
                "--sppm-iterations", "2", "--sppm-photons", "2000", "--steps", "20",
                "--batch", "32", "--in-checkpoint", str(ckpt), "--out-checkpoint", str(trained),
                "--log", str(log), "--seed", "2",
            ]
        )
        assert rc == 0 and trained.exists()
        losses = json.loads(log.read_text())["losses"]
        assert len(losses) == 20
        out1 = tmp_path / "r1.pfm"
        out2 = tmp_path / "r2.pfm"
        for out in (out1, out2):
            rc = main(
                [
                    "gpf-render", "--scene", "builtin:cornell-box", "--checkpoint", str(trained),
                    "--out", str(out), "--seed", "4", "--resolution", "12", "12",
                ]
            )
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_gpf_render_bsdf_modulation_flag(self, tmp_path):
        ckpt, out, want = tmp_path / "field.gpf", tmp_path / "r.pfm", tmp_path / "want.pfm"
        assert main(["gpf-init", "--scene", "builtin:cornell-box", "--photons", "1500",
                     "--out-checkpoint", str(ckpt)]) == 0
        argv = ["gpf-render", "--scene", "builtin:cornell-box", "--checkpoint", str(ckpt), "--out", str(out),
                "--seed", "4", "--resolution", "10", "10", "--bsdf-modulation"]
        assert main(argv) == 0
        scene = builtin_scene("cornell-box")
        field = GaussianField.load(ckpt)
        write_pfm(want, render_gpf(scene, scene.camera.with_resolution(10, 10), field, seed=4, bsdf_modulation=True))
        assert out.read_bytes() == want.read_bytes()
        assert "--bsdf-modulation" in json.loads((tmp_path / "r.pfm.manifest.json").read_text())["argv"]

    def test_compare_self_is_perfect(self, tmp_path, capsys):
        out = tmp_path / "img.pfm"
        assert main(_render_sppm_args(out)) == 0
        rc = main(["compare", "--ref", str(out), "--test", str(out)])
        assert rc == 0
        table = json.loads(capsys.readouterr().out)
        rec = table["results"][str(out)]
        assert rec["psnr"] == "inf"
        assert rec["ssim"] == 1.0

    def test_compare_reports_metric_record_shape(self, tmp_path, capsys):
        a = tmp_path / "a.pfm"
        b = tmp_path / "b.pfm"
        assert main(_render_sppm_args(a, seed=1)) == 0
        assert main(_render_sppm_args(b, seed=2)) == 0
        assert main(["compare", "--ref", str(a), "--test", str(b), "--exposure", "1.0"]) == 0
        rec = json.loads(capsys.readouterr().out)["results"][str(b)]
        assert set(rec) == {"psnr", "ssim", "storage_bytes"}
        assert isinstance(rec["psnr"], float)

    def test_sweep_emits_one_row_per_value(self, tmp_path, views_file, capsys):
        out = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep", "--param", "k", "--values", "1,3,5,10", "--scene", "builtin:cornell-box",
                "--views", views_file, "--ref-iterations", "2", "--sppm-iterations", "2",
                "--sppm-photons", "2000", "--steps", "10", "--batch", "32", "--photons", "1500",
                "--resolution", "12", "12", "--out", str(out), "--seed", "6",
            ]
        )
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["value"] for r in rows] == [1, 3, 5, 10]
        for row in rows:
            assert set(row) == {"param", "value", "psnr", "ssim", "storage_bytes"}
            assert row["storage_bytes"] > 0
        # the manifest digests the per-value checkpoints too
        outputs = json.loads(open(f"{out}.manifest.json").read())["outputs"]
        assert list(outputs) == [str(out)] + [f"{out}.k-{v}.gpf" for v in (1, 3, 5, 10)]


class TestErrors:
    def test_unknown_flag_is_fatal(self):
        with pytest.raises(SystemExit) as exc:
            main(["render-pt", "--scene", "builtin:cornell-box", "--out", "x.pfm", "--glossy"])
        assert exc.value.code != 0

    def test_missing_scene_file_names_path(self, tmp_path, capsys):
        rc = main(["render-pt", "--scene", str(tmp_path / "nope.json"), "--spp", "1", "--out", str(tmp_path / "x.pfm")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    def test_malformed_scene_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        rc = main(["render-pt", "--scene", str(bad), "--spp", "1", "--out", str(tmp_path / "x.pfm")])
        assert rc == 2
        assert "parse" in capsys.readouterr().err

    def test_invalid_scene_content_is_validation_error(self, tmp_path, capsys, cornell_box_dict):
        data = cornell_box_dict
        data["shapes"][0]["material"] = "ghost"
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(data))
        rc = main(["render-pt", "--scene", str(bad), "--spp", "1", "--out", str(tmp_path / "x.pfm")])
        assert rc == 3
        assert "validate" in capsys.readouterr().err

    def test_unknown_builtin_is_validation_error(self, tmp_path):
        rc = main(["render-pt", "--scene", "builtin:nothing", "--spp", "1", "--out", str(tmp_path / "x.pfm")])
        assert rc == 3

    @pytest.mark.parametrize("flag", ["--camera", "--views"])
    def test_unknown_camera_key_is_parse_error(self, tmp_path, capsys, flag):
        cam = {"position": [0.0, -3.9, 0.0], "look_at": [0.0, 0.0, 0.0], "up": [0.0, 0.0, 1.0],
               "vfov": 28.0, "resolution": [12, 12], "fov": 30.0}
        path = tmp_path / "cam.json"
        path.write_text(json.dumps(cam if flag == "--camera" else [cam]))
        argv = {
            "--camera": ["gpf-render", "--checkpoint", str(tmp_path / "f.gpf"), "--out", str(tmp_path / "x.pfm")],
            "--views": ["gpf-train", "--out-checkpoint", str(tmp_path / "f.gpf")],
        }[flag]
        assert main(argv + ["--scene", "builtin:cornell-box", flag, str(path)]) == 2
        # the error names the file, and a views-file entry also its index
        where = {"--camera": str(path), "--views": f"{path}[0]"}[flag]
        assert capsys.readouterr().err == f"error: parse: unknown key 'fov' in {where}\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        ("key", "value", "code", "message"),
        [("fov", 30.0, 2, "unknown key 'fov' in {views}[1]"), ("vfov", "wide", 2, "{views}[1].vfov must be a number"),
         ("up", [0.0, 0.0], 2, "{views}[1].up must be a list of 3 numbers")],
    )
    def test_bad_views_entry_names_the_file_and_entry(self, tmp_path, capsys, views_file, key, value, code, message):
        cams = json.loads(open(views_file).read())
        cams[1][key] = value
        with open(views_file, "w") as fh:
            json.dump(cams, fh)
        argv = ["gpf-train", "--scene", "builtin:cornell-box", "--views", views_file, "--out-checkpoint", str(tmp_path / "f.gpf")]
        assert main(argv) == code
        assert capsys.readouterr().err == "error: parse: " + message.format(views=views_file) + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["views.json"]

    @staticmethod
    def _refuse_work(monkeypatch, read_checkpoints=False):
        """Make every renderer, the photon tracer and the dataset build fail if entered, and the checkpoint
        reader too unless ``read_checkpoints``."""
        import photonfield.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("ran before the flags and files were checked")

        for owner, name in ((cli, "trace_photons"), (cli.training, "build_dataset"), (GaussianField, "load"),
                            (cli.integrators, "render_sppm"), (cli.integrators, "render_pt"), (cli.integrators, "render_gpf")):
            if not (read_checkpoints and name == "load"):
                monkeypatch.setattr(owner, name, refuse)

    @pytest.mark.parametrize("where", ["missing directory", "existing directory"])
    @pytest.mark.parametrize(
        ("command", "flag"),
        [("render-pt", "--out"), ("render-sppm", "--out"), ("gpf-init", "--out-checkpoint"),
         ("gpf-train", "--out-checkpoint"), ("gpf-train", "--dataset-out"), ("gpf-train", "--log"),
         ("gpf-render", "--out"), ("compare", "--out"), ("sweep", "--out")],
    )
    def test_bad_output_path_fails_before_any_work(self, tmp_path, capsys, monkeypatch, views_file, command, flag, where):
        self._refuse_work(monkeypatch)
        pfm = tmp_path / "ref.pfm"
        write_pfm(pfm, np.zeros((2, 2, 3), dtype=np.float32))
        before = sorted(p.name for p in tmp_path.iterdir())
        bad = str(tmp_path / "missing" / "x.out") if where == "missing directory" else str(tmp_path)
        out = {f: str(tmp_path / f"ok{f}") for f in ("--out", "--out-checkpoint", "--dataset-out", "--log")} | {flag: bad}
        scene = ["--scene", "builtin:cornell-box"]
        argv = {
            "render-pt": ["render-pt", *scene, "--out", out["--out"]],
            "render-sppm": ["render-sppm", *scene, "--out", out["--out"]],
            "gpf-init": ["gpf-init", *scene, "--out-checkpoint", out["--out-checkpoint"]],
            "gpf-train": ["gpf-train", *scene, "--views", views_file, "--out-checkpoint", out["--out-checkpoint"],
                          "--dataset-out", out["--dataset-out"], "--log", out["--log"]],
            "gpf-render": ["gpf-render", *scene, "--checkpoint", str(pfm), "--out", out["--out"]],
            "compare": ["compare", "--ref", str(pfm), "--test", str(pfm), "--out", out["--out"]],
            "sweep": ["sweep", "--param", "k", "--values", "3", *scene, "--views", views_file, "--out", out["--out"]],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: parse: {flag} {bad} must name a file in an existing directory\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        ("command", "flag", "bad"),
        [(command, flag, bad) for command, flag in (("render-pt", "--scene"), ("gpf-render", "--camera"), ("gpf-train", "--views"))
         for bad in ("directory", "not utf-8")]
        # a checkpoint is binary: only a directory applies
        + [("gpf-render", "--checkpoint", "directory"), ("gpf-train", "--in-checkpoint", "directory")],
    )
    def test_unreadable_input_is_parse_error_before_any_work(self, tmp_path, capsys, monkeypatch, views_file,
                                                            command, flag, bad):
        self._refuse_work(monkeypatch, read_checkpoints=flag.endswith("checkpoint"))
        path = tmp_path / "input"
        if bad == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"camera": "\xff"}')
        scene = ["--scene", "builtin:cornell-box"] if flag != "--scene" else []
        argv = {
            "render-pt": ["render-pt", "--out", str(tmp_path / "x.pfm")],
            "gpf-render": ["gpf-render", "--checkpoint", str(tmp_path / "f.gpf"), "--out", str(tmp_path / "x.pfm")],
            "gpf-train": ["gpf-train", "--views", views_file, "--out-checkpoint", str(tmp_path / "f.gpf")],
        }[command]
        assert main(argv + scene + [flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parse: ") and str(path) in err
        assert ("is not UTF-8 text" if bad == "not utf-8" else "a directory, not a file") in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input", "views.json"]

    @pytest.mark.filterwarnings("error")
    def test_zero_init_photons_is_validation_error(self, tmp_path, capsys):
        ckpt = tmp_path / "field.gpf"
        rc = main(["gpf-init", "--scene", "builtin:cornell-box", "--photons", "0", "--out-checkpoint", str(ckpt)])
        assert rc == 3 and not ckpt.exists()
        assert "n_photons" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["render-sppm", "--scene", "builtin:cornell-box", "--iterations", "1", "--photons", "100", "--max-bounces", "0"],
             "max_photon_bounces"),
            (["render-pt", "--scene", "builtin:cornell-box", "--spp", "1", "--max-depth", "0"], "max_depth"),
        ],
        ids=["sppm-max-bounces", "pt-max-depth"],
    )
    def test_bounce_cap_below_one_is_validation_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.pfm"
        rc = main(argv + ["--resolution", "4", "4", "--out", str(out)])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_checkpoint_is_validation_error(self, tmp_path, capsys):
        ckpt = tmp_path / "nan.gpf"
        ckpt.write_bytes(b"GPF1" + (1).to_bytes(4, "little") + np.full(13, np.nan, dtype="<f4").tobytes())
        out = tmp_path / "x.pfm"
        rc = main(["gpf-render", "--scene", "builtin:cornell-box", "--checkpoint", str(ckpt), "--out", str(out)])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_quaternion_checkpoint_is_validation_error(self, tmp_path, capsys):
        row = np.array([0, 0, 0, 0, 0, 0, 0, 0.01, 0.01, 0.01, 1, 1, 1], dtype="<f4")
        ckpt = tmp_path / "zero-quat.gpf"
        ckpt.write_bytes(b"GPF1" + (1).to_bytes(4, "little") + row.tobytes())
        out = tmp_path / "x.pfm"
        rc = main(["gpf-render", "--scene", "builtin:cornell-box", "--checkpoint", str(ckpt), "--out", str(out)])
        assert rc == 3
        assert "not unit length" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.pfm.manifest.json").exists()

    def test_negative_kmin_is_validation_error(self, tmp_path, views_file, capsys):
        ckpt, trained, img = tmp_path / "field.gpf", tmp_path / "trained.gpf", tmp_path / "x.pfm"
        GaussianField(np.zeros((4, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)), np.full((4, 3), -4.0), np.ones((4, 3))).save(ckpt)
        commands = (
            [
                "gpf-train", "--scene", "builtin:cornell-box", "--views", views_file, "--sppm-iterations", "1",
                "--sppm-photons", "500", "--steps", "2", "--photons", "500", "--out-checkpoint", str(trained),
                "--log", str(tmp_path / "log.json"), "--dataset-out", str(tmp_path / "d.gpd"),
            ],
            [
                "gpf-render", "--scene", "builtin:cornell-box", "--checkpoint", str(ckpt),
                "--out", str(img), "--resolution", "8", "8",
            ],
        )
        for argv in commands:
            assert main(argv + ["--kmin", "-2"]) == 3
            assert "k_min must be non-negative" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["field.gpf", "views.json"]

    @pytest.mark.parametrize("command", ["gpf-train", "sweep"])
    @pytest.mark.parametrize(("flag", "value"), [("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"), ("--steps", "0")])
    def test_bad_train_config_is_validation_error_before_any_work(
        self, tmp_path, views_file, capsys, monkeypatch, command, flag, value
    ):
        # the config is checked before any photon is traced or pixel rendered
        import photonfield.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("ran before the train config was checked")

        for module, name in ((cli, "trace_photons"), (cli.training, "build_dataset"), (cli.integrators, "render_sppm")):
            monkeypatch.setattr(module, name, refuse)
        common = ["--scene", "builtin:cornell-box", "--views", views_file, flag, value]
        argv = {
            "gpf-train": ["gpf-train", *common, "--out-checkpoint", str(tmp_path / "f.gpf"), "--log", str(tmp_path / "log.json")],
            "sweep": ["sweep", "--param", "k", "--values", "3", *common, "--out", str(tmp_path / "sweep.json")],
        }[command]
        assert main(argv) == 3
        assert "error: validate:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["views.json"]

    @pytest.mark.parametrize(
        ("param", "flag", "value", "message"),
        [
            ("gaussians", "--kmin", "-1", "k_min must be non-negative"),
            ("k", "--radius", "nan", "radius must be finite and non-negative"),
            ("gaussians", "--radius", "-0.5", "radius must be finite and non-negative"),
            ("k", "--scale0", "0", "initial scale must be finite and positive"),
            ("k", "--photons", "0", "--photons must be >= 1"),
            ("k", "--sppm-iterations", "0", "iterations and photons_per_iter must be >= 1"),
        ],
    )
    def test_bad_seed_flag_fails_sweep_before_the_reference_render(
        self, tmp_path, views_file, capsys, monkeypatch, param, flag, value, message
    ):
        import photonfield.cli as cli

        renders = []
        monkeypatch.setattr(cli.integrators, "render_sppm", lambda *a, **k: renders.append(a))
        argv = ["sweep", "--param", param, "--values", "3,5", "--scene", "builtin:cornell-box", "--views", views_file,
                "--resolution", "8", "8", flag, value, "--out", str(tmp_path / "sweep.json")]
        assert main(argv) == 3
        assert message in capsys.readouterr().err
        assert renders == []
        assert [p.name for p in tmp_path.iterdir()] == ["views.json"]

    @pytest.mark.parametrize(
        ("entry", "code"),
        [("2.5", 2), ("2.0", 2), ("true", 2), ('"2"', 2), ("null", 2), ("[2]", 2),
         ("-1", 3), ("3", 3), (str(10**30), 3), (str(-(10**30)), 3)],
    )
    def test_mesh_index_that_is_not_a_vertex_integer_is_refused(self, tmp_path, capsys, entry, code):
        # a JSON integer out of range is a validation error; anything else,
        # booleans included, a parse error
        data = scene_to_dict(builtin_scene("caustic-sphere"))
        data["shapes"].append({"type": "mesh", "vertices": [[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]],
                               "indices": [[0, 1, "@"]], "material": "floor"})
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(data).replace('"@"', entry))
        out = tmp_path / "x.pfm"
        assert main(["render-pt", "--scene", str(scene), "--spp", "1", "--resolution", "8", "8", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: parse:" if code == 2 else "error: validate:")
        assert ("triples of integer vertex indices" if code == 2 else "out-of-range vertices") in err
        assert list(tmp_path.iterdir()) == [scene]

    def test_non_finite_sphere_radius_is_validation_error(self, tmp_path, capsys):
        data = scene_to_dict(builtin_scene("caustic-sphere"))
        (sphere,) = [s for s in data["shapes"] if s["type"] == "sphere"]
        sphere["radius"] = float("nan")
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(data))  # writes the literal NaN, which json reads back
        out = tmp_path / "x.pfm"
        assert main(["render-pt", "--scene", str(scene), "--spp", "1", "--resolution", "8", "8", "--out", str(out)]) == 3
        assert "radius must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [scene]

    @pytest.mark.parametrize(
        ("key", "value", "code"),
        [("vfov", "true", 2), ("vfov", '"40"', 2), ("vfov", "[40, 1]", 2), ("resolution", "[true, true]", 2),
         ("resolution", "[8.0, 8]", 2), ("radius", "true", 2), ("ior", "true", 2), ("center", '[0, 0, "0"]', 2),
         ("center", "[0, 0, false]", 2), ("vfov", "0", 3), ("vfov", "1e999", 3), ("radius", "-1", 3),
         ("radius", "1e999", 3), ("ior", "1e999", 3)],
    )
    def test_scene_number_is_a_json_number(self, tmp_path, capsys, key, value, code):
        # a bool, string or list where a number belongs is a parse error;
        # a number out of range, a validation error
        data = scene_to_dict(builtin_scene("caustic-sphere"))
        (sphere,) = [s for s in data["shapes"] if s["type"] == "sphere"]
        owner = {"vfov": data["camera"], "resolution": data["camera"], "radius": sphere, "center": sphere,
                 "ior": data["materials"]["glass"]}[key]
        owner[key] = "@"
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(data).replace('"@"', value))
        out = tmp_path / "x.pfm"
        assert main(["render-pt", "--scene", str(scene), "--spp", "1", "--resolution", "8", "8", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: parse:" if code == 2 else "error: validate:")
        assert key in err
        assert list(tmp_path.iterdir()) == [scene]

    @pytest.mark.filterwarnings("error")
    def test_zero_area_emitter_is_validation_error(self, tmp_path, capsys):
        data = scene_to_dict(builtin_scene("cornell-box"))
        (lamp,) = [s for s in data["shapes"] if "emission" in s]
        data["shapes"] = [s for s in data["shapes"] if s is not lamp] + [
            {"type": "mesh", "vertices": [[0, 0, 0], [1, 0, 0], [2, 0, 0]], "indices": [[0, 1, 2]],
             "material": lamp["material"], "emission": lamp["emission"]}
        ]
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(data))
        out = tmp_path / "x.pfm"
        argv = ["render-sppm", "--scene", str(scene), "--iterations", "1", "--photons", "200",
                "--resolution", "8", "8", "--out", str(out)]
        assert main(argv) == 3
        assert "has no area" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [scene]

    @pytest.mark.parametrize("r0", ["inf", "nan"])
    def test_non_finite_r0_is_validation_error(self, tmp_path, capsys, r0):
        out = tmp_path / "x.pfm"
        argv = ["render-sppm", "--scene", "builtin:cornell-box", "--iterations", "1", "--photons", "200",
                "--resolution", "8", "8", "--r0", r0, "--out", str(out)]
        assert main(argv) == 3
        assert "initial_radius must be finite and positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exposure", ["nan", "inf", "-1", "0"])
    @pytest.mark.filterwarnings("error")
    def test_exposure_not_finite_and_positive_fails_compare(self, tmp_path, capsys, exposure):
        a, b, out = tmp_path / "a.pfm", tmp_path / "b.pfm", tmp_path / "table.json"
        write_pfm(a, np.full((16, 16, 3), 0.2))
        write_pfm(b, np.full((16, 16, 3), 0.7))
        assert main(["compare", "--ref", str(a), "--test", str(b), "--exposure", exposure, "--out", str(out)]) == 3
        assert "exposure must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_exposure_fails_sweep_before_the_reference_render(self, tmp_path, views_file, capsys, monkeypatch):
        import photonfield.cli as cli

        renders = []
        monkeypatch.setattr(cli.integrators, "render_sppm", lambda *a, **k: renders.append(a))
        argv = ["sweep", "--param", "k", "--values", "3,5", "--scene", "builtin:cornell-box", "--views", views_file,
                "--resolution", "8", "8", "--exposure", "nan", "--out", str(tmp_path / "sweep.json")]
        assert main(argv) == 3
        assert "exposure must be finite and positive" in capsys.readouterr().err
        assert renders == []
        assert [p.name for p in tmp_path.iterdir()] == ["views.json"]

    @pytest.mark.parametrize(("scale", "pixel"), [(b"-1.0", np.nan), (b"-1.0", np.inf), (b"nan", 1.0), (b"-1e308", 4.0)])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_pfm_fails_compare(self, tmp_path, capsys, scale, pixel):
        a, b, out = tmp_path / "a.pfm", tmp_path / "b.pfm", tmp_path / "table.json"
        write_pfm(a, np.full((16, 16, 3), 0.2))
        data = np.full((16, 16, 3), 0.2, dtype="<f4")
        data[3, 4, 1] = pixel
        b.write_bytes(b"PF\n16 16\n" + scale + b"\n" + data.tobytes())
        assert main(["compare", "--ref", str(a), "--test", str(b), "--out", str(out)]) == 3
        assert "error: validate:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["trailing bytes", "understated header"])
    @pytest.mark.filterwarnings("error")
    def test_pfm_payload_longer_than_its_header_fails_compare(self, tmp_path, capsys, case):
        a, b, out = tmp_path / "a.pfm", tmp_path / "b.pfm", tmp_path / "table.json"
        write_pfm(a, np.full((16, 16, 3), 0.2))
        if case == "trailing bytes":  # the same 16x16 image, then 220 more bytes
            b.write_bytes(a.read_bytes() + b"\x00" * 220)
        else:  # a 16x32 image under a 16x16 header
            b.write_bytes(b"PF\n16 16\n-1.0\n" + np.full((32, 16, 3), 0.2, dtype="<f4").tobytes())
        assert main(["compare", "--ref", str(a), "--test", str(b), "--out", str(out)]) == 3
        assert "overlong PFM payload" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(("param", "values"), [("gaussians", "500,0"), ("k", "3,-1")])
    def test_bad_sweep_value_is_validation_error_before_any_work(self, tmp_path, views_file, capsys, param, values):
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--param", param, "--values", values, "--scene", "builtin:cornell-box", "--views", views_file,
                "--ref-iterations", "1", "--sppm-iterations", "1", "--sppm-photons", "500", "--steps", "2",
                "--batch", "16", "--photons", "500", "--resolution", "8", "8", "--out", str(out)]
        assert main(argv) == 3
        assert f"--values for {param} must be >=" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["views.json"]

    @pytest.mark.parametrize("spp", ["0", "-2"])
    def test_sample_count_below_one_fails_gpf_train(self, tmp_path, views_file, capsys, spp):
        argv = ["gpf-train", "--scene", "builtin:cornell-box", "--views", views_file, "--sppm-iterations", "1",
                "--sppm-photons", "500", "--photons", "500", "--steps", "2", "--batch", "16", "--spp", spp,
                "--out-checkpoint", str(tmp_path / "f.gpf"), "--dataset-out", str(tmp_path / "d.gpd"),
                "--log", str(tmp_path / "log.json")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"--spp must be >= 1, got {spp}" in err and "no diffuse surface" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["views.json"]

    @pytest.mark.parametrize("spp", ["0", "-2"])
    def test_sample_count_below_one_fails_sweep_before_the_reference_render(
        self, tmp_path, views_file, capsys, monkeypatch, spp
    ):
        import photonfield.cli as cli

        renders = []
        monkeypatch.setattr(cli.integrators, "render_sppm", lambda *a, **k: renders.append(a))
        argv = ["sweep", "--param", "k", "--values", "3,5", "--scene", "builtin:cornell-box", "--views", views_file,
                "--resolution", "8", "8", "--spp", spp, "--out", str(tmp_path / "sweep.json")]
        assert main(argv) == 3
        assert f"--spp must be >= 1, got {spp}" in capsys.readouterr().err
        assert renders == []
        assert [p.name for p in tmp_path.iterdir()] == ["views.json"]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["render-pt", "--scene", "builtin:cornell-box", "--spp", "1"],
            ["render-sppm", "--scene", "builtin:cornell-box", "--iterations", "1", "--photons", "100"],
        ],
        ids=["render-pt", "render-sppm"],
    )
    def test_thread_count_below_one_is_validation_error(self, tmp_path, capsys, argv, threads):
        rc = main(argv + ["--resolution", "4", "4", "--threads", threads, "--out", str(tmp_path / "x.pfm")])
        assert rc == 3
        assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        ("command", "flag"),
        [(c, "--threads") for c in ("render-pt", "render-sppm", "gpf-train", "gpf-render", "sweep")]
        + [(c, "--spp") for c in ("render-pt", "gpf-train", "gpf-render", "sweep")],
    )
    def test_count_below_one_fails_before_any_work(self, tmp_path, views_file, capsys, monkeypatch, command, flag):
        self._refuse_work(monkeypatch)
        scene = ["--scene", "builtin:cornell-box"]
        argv = {
            "render-pt": ["render-pt", *scene, "--out", str(tmp_path / "x.pfm")],
            "render-sppm": ["render-sppm", *scene, "--out", str(tmp_path / "x.pfm")],
            "gpf-train": ["gpf-train", *scene, "--views", views_file, "--out-checkpoint", str(tmp_path / "f.gpf"),
                          "--log", str(tmp_path / "log.json"), "--dataset-out", str(tmp_path / "d.gpd")],
            "gpf-render": ["gpf-render", *scene, "--checkpoint", views_file, "--out", str(tmp_path / "x.pfm")],
            "sweep": ["sweep", "--param", "k", "--values", "3", *scene, "--views", views_file,
                      "--out", str(tmp_path / "sweep.json")],
        }[command]
        assert main(argv + [flag, "0"]) == 3
        assert capsys.readouterr().err == f"error: validate: {flag} must be >= 1, got 0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["views.json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["render-sppm", "--scene", "builtin:cornell-box", "--iterations", "1", "--photons", "100",
             "--resolution", "4", "4", "--out"],
            ["gpf-init", "--scene", "builtin:cornell-box", "--photons", "100", "--out-checkpoint"],
        ],
        ids=["render-sppm", "gpf-init"],
    )
    @pytest.mark.parametrize("bounces", ["65", "1000"])
    def test_bounce_cap_above_max_chain_is_validation_error(self, tmp_path, capsys, argv, bounces):
        assert main(argv + [str(tmp_path / "out"), "--max-bounces", bounces]) == 3
        assert f"must lie in [1, 64], got {bounces}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bounce_cap_help_states_the_cap(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in ("render-sppm", "gpf-init", "gpf-train", "sweep"):
            flag = next(a for a in sub.choices[command]._actions if "--max-bounces" in a.option_strings)
            assert flag.help == "photon path length, 1 to 64 hits"

    @pytest.mark.parametrize("scale0", ["-1", "0"])
    @pytest.mark.filterwarnings("error")
    def test_non_positive_scale0_is_validation_error(self, tmp_path, capsys, scale0):
        ckpt = tmp_path / "field.gpf"
        argv = ["gpf-init", "--scene", "builtin:cornell-box", "--photons", "500", "--scale0", scale0, "--out-checkpoint", str(ckpt)]
        assert main(argv) == 3
        assert "initial scale must be finite and positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("scale0", ["100", "10.5", "1e-6", "1e-300"])
    @pytest.mark.parametrize("command", ["gpf-init", "gpf-train", "sweep"])
    def test_scale0_a_checkpoint_cannot_hold_fails_before_any_photon_is_traced(
        self, tmp_path, views_file, capsys, monkeypatch, command, scale0
    ):
        self._refuse_work(monkeypatch)
        scene = ["--scene", "builtin:cornell-box", "--scale0", scale0]
        argv = {
            "gpf-init": ["gpf-init", *scene, "--out-checkpoint", str(tmp_path / "f.gpf")],
            "gpf-train": ["gpf-train", *scene, "--views", views_file, "--out-checkpoint", str(tmp_path / "f.gpf")],
            "sweep": ["sweep", "--param", "k", "--values", "3", *scene, "--views", views_file, "--out", str(tmp_path / "s.json")],
        }[command]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: validate: initial scale must lie in [1e-05, 10], got {float(scale0)}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["views.json"]

    @pytest.mark.parametrize("scale0", [SCALE_MIN, SCALE_MAX])
    def test_scale0_at_either_bound_is_what_the_checkpoint_holds(self, tmp_path, scale0):
        ckpt = tmp_path / "field.gpf"
        argv = ["gpf-init", "--scene", "builtin:cornell-box", "--photons", "300", "--scale0", repr(scale0), "--out-checkpoint", str(ckpt)]
        assert main(argv) == 0
        np.testing.assert_allclose(GaussianField.load(ckpt).scales, scale0, rtol=1e-12)

    @pytest.mark.parametrize(
        ("source", "key", "value", "message"),
        [
            ("scene", "vfov", 0.0, "camera.vfov must be in (0, 180) degrees"),
            ("scene", "up", [0.0, 1.0, 0.0], "camera.up is parallel to the view direction"),
            ("--camera", "vfov", 180.0, "{path}.vfov must be in (0, 180) degrees"),
            ("--camera", "look_at", [0.6, -3.6, 0.3], "{path}.look_at must differ from position"),
            ("--views", "vfov", 0.0, "{path}[1].vfov must be in (0, 180) degrees"),
            ("--views", "resolution", [0, 12], "{path}[1].resolution must be positive integers"),
            ("--views", "look_at", [0.6, -3.6, 0.3], "{path}[1].look_at must differ from position"),
            ("--views", "up", [-0.6, 3.6, -0.3], "{path}[1].up is parallel to the view direction"),
        ],
    )
    def test_camera_value_error_names_its_source_before_any_work(
        self, tmp_path, views_file, capsys, monkeypatch, cornell_box_dict, source, key, value, message
    ):
        # the views file's entry [1], alone as a --camera file or as the scene camera (looking along +y)
        self._refuse_work(monkeypatch)
        cams = json.loads(open(views_file).read())
        cam = cams[1] if source != "scene" else cornell_box_dict["camera"]
        cam[key] = value
        out = ["--out", str(tmp_path / "x.pfm")]
        path = {"scene": tmp_path / "scene.json", "--camera": tmp_path / "cam.json", "--views": tmp_path / "views.json"}[source]
        path.write_text(json.dumps({"scene": cornell_box_dict, "--camera": cam, "--views": cams}[source]))
        argv = {
            "scene": ["render-pt", "--scene", str(path), *out],
            "--camera": ["gpf-render", "--scene", "builtin:cornell-box", "--camera", str(path), "--checkpoint", "f.gpf", *out],
            "--views": ["gpf-train", "--scene", "builtin:cornell-box", "--views", str(path), "--out-checkpoint", str(tmp_path / "f.gpf")],
        }[source]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: validate: " + message.format(path=path) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"views.json", path.name})

    @pytest.mark.parametrize("command", ["gpf-train", "sweep"])
    def test_views_camera_with_up_along_its_view_fails_before_any_photon_is_traced(self, tmp_path, capsys, monkeypatch, command):
        self._refuse_work(monkeypatch)
        views = tmp_path / "views.json"
        views.write_text(json.dumps([{"position": [0.0, -3.9, 0.0], "look_at": [0.0, 0.0, 0.0], "up": [0.0, 1.0, 0.0],
                                      "vfov": 28.0, "resolution": [12, 12]}]))
        argv = {
            "gpf-train": ["gpf-train", "--out-checkpoint", str(tmp_path / "f.gpf"), "--photons", "2000"],
            "sweep": ["sweep", "--param", "k", "--values", "3", "--out", str(tmp_path / "s.json")],
        }[command]
        assert main(argv + ["--scene", "builtin:cornell-box", "--views", str(views)]) == 3
        assert capsys.readouterr().err == f"error: validate: {views}[0].up is parallel to the view direction\n"
        assert [p.name for p in tmp_path.iterdir()] == ["views.json"]

    def test_camera_far_from_the_origin_with_a_short_view_is_accepted(self, tmp_path, cornell_box_dict):
        cornell_box_dict["camera"].update(position=[1000.0, 0.0, 0.0], look_at=[1000.001, 0.0, 0.0])
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(cornell_box_dict))
        argv = ["render-pt", "--scene", str(scene), "--spp", "1", "--max-depth", "1", "--resolution", "2", "2", "--out", str(tmp_path / "x.pfm")]
        assert main(argv) == 0
        assert read_pfm(tmp_path / "x.pfm").shape == (2, 2, 3)


class TestOutputs:
    def test_pfm_output_is_readable_and_finite(self, tmp_path):
        out = tmp_path / "img.pfm"
        assert main(_render_sppm_args(out)) == 0
        img = read_pfm(out)
        assert img.shape == (12, 12, 3)
        assert np.all(np.isfinite(img))

    def test_manifest_written_next_to_output(self, tmp_path):
        out = tmp_path / "img.pfm"
        assert main(_render_sppm_args(out)) == 0
        manifest = json.loads((tmp_path / "img.pfm.manifest.json").read_text())
        assert manifest["command"] == "render-sppm"
        assert str(out) in manifest["outputs"]

    @pytest.mark.parametrize("failing", ["img.pfm.manifest.json", "table.json", "log.json", "sweep.json"])
    def test_failed_json_write_leaves_no_partial_or_temp_file(self, tmp_path, views_file, monkeypatch, failing):
        img, out = tmp_path / "img.pfm", str(tmp_path / failing)
        small = ["--scene", "builtin:cornell-box", "--views", views_file, "--sppm-iterations", "1", "--sppm-photons", "500",
                 "--steps", "2", "--batch", "16", "--photons", "500"]
        argv = {
            "img.pfm.manifest.json": _render_sppm_args(img),
            "table.json": ["compare", "--ref", str(img), "--test", str(img), "--out", out],
            "log.json": ["gpf-train", *small, "--out-checkpoint", str(tmp_path / "f.gpf"), "--log", out],
            "sweep.json": ["sweep", "--param", "k", "--values", "3", *small, "--ref-iterations", "1",
                           "--resolution", "12", "12", "--out", out],
        }[failing]
        if failing == "table.json":
            assert main(_render_sppm_args(img)) == 0
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == failing:
                raise OSError(errno.ENOSPC, "No space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        before = {p.name for p in tmp_path.iterdir()}
        assert main(argv) == 4
        new = {p.name for p in tmp_path.iterdir()} - before
        assert failing not in new
        assert not [n for n in new if n.endswith((".manifest.json", ".tmp"))]


def _subcommands():
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestFlags:
    # each command's argv with only its required flags, and the argv its manifest records: these pin every
    # default, so a change to a list changes what every manifest of that command says
    MINIMAL = {
        "render-pt": (
            ["--scene", "builtin:cornell-box", "--out", "x.pfm"],
            ["render-pt", "--max-depth", "16", "--out", "x.pfm", "--scene", "builtin:cornell-box", "--seed", "0",
             "--spp", "64", "--threads", "1"],
        ),
        "render-sppm": (
            ["--scene", "builtin:cornell-box", "--out", "x.pfm"],
            ["render-sppm", "--alpha", "0.7", "--iterations", "64", "--max-bounces", "16", "--out", "x.pfm",
             "--photons", "100000", "--r0", "0.02", "--scene", "builtin:cornell-box", "--seed", "0", "--threads", "1"],
        ),
        "gpf-init": (
            ["--scene", "builtin:cornell-box", "--out-checkpoint", "f.gpf"],
            ["gpf-init", "--kmin", "3", "--max-bounces", "16", "--out-checkpoint", "f.gpf", "--photons", "100000",
             "--radius", "0.02", "--scale0", "0.01", "--scene", "builtin:cornell-box", "--seed", "0"],
        ),
        "gpf-train": (
            ["--scene", "builtin:cornell-box", "--views", "v.json", "--out-checkpoint", "f.gpf"],
            ["gpf-train", "--alpha", "0.7", "--batch", "1024", "--kmin", "3", "--lr", "0.0005", "--max-bounces", "16",
             "--out-checkpoint", "f.gpf", "--photons", "100000", "--r0", "0.02", "--radius", "0.02",
             "--rebuild-every", "100", "--scale0", "0.01", "--scene", "builtin:cornell-box", "--seed", "0",
             "--spp", "1", "--sppm-iterations", "256", "--sppm-photons", "100000", "--steps", "10000",
             "--threads", "1", "--views", "v.json"],
        ),
        "gpf-render": (
            ["--scene", "builtin:cornell-box", "--checkpoint", "f.gpf", "--out", "x.pfm"],
            ["gpf-render", "--checkpoint", "f.gpf", "--kmin", "3", "--out", "x.pfm", "--radius", "0.02",
             "--scene", "builtin:cornell-box", "--seed", "0", "--spp", "1", "--threads", "1"],
        ),
        "compare": (
            ["--ref", "a.pfm", "--test", "b.pfm"],
            ["compare", "--exposure", "1.0", "--ref", "a.pfm", "--test", "b.pfm"],
        ),
        "sweep": (
            ["--param", "k", "--values", "3", "--scene", "builtin:cornell-box", "--views", "v.json", "--out", "s.json"],
            ["sweep", "--alpha", "0.7", "--batch", "1024", "--exposure", "1.0", "--kmin", "3", "--lr", "0.0005",
             "--max-bounces", "16", "--out", "s.json", "--param", "k", "--photons", "10000", "--r0", "0.02",
             "--radius", "0.02", "--rebuild-every", "100", "--ref-iterations", "256", "--scale0", "0.01",
             "--scene", "builtin:cornell-box", "--seed", "0", "--spp", "1", "--sppm-iterations", "64",
             "--sppm-photons", "50000", "--steps", "2000", "--threads", "1", "--values", "3", "--views", "v.json"],
        ),
    }

    def test_manifest_argv_at_the_defaults_is_pinned(self):
        assert set(self.MINIMAL) == set(_subcommands())
        for command, (required, resolved) in self.MINIMAL.items():
            assert _resolved_argv(build_parser().parse_args([command, *required])) == resolved

    def test_shared_flag_defaults_are_the_library_defaults(self):
        library = {
            "max_bounces": SppmConfig.max_photon_bounces, "r0": SppmConfig.initial_radius, "alpha": SppmConfig.alpha,
            "radius": DEFAULT_RADIUS, "kmin": DEFAULT_K_MIN, "scale0": DEFAULT_INITIAL_SCALE,
            "lr": TrainConfig.learning_rate, "batch": TrainConfig.batch_size, "rebuild_every": TrainConfig.rebuild_every,
        }
        seen = set()
        for parser in _subcommands().values():
            for action in parser._actions:
                if action.dest in library:
                    assert action.default == library[action.dest], action.dest
                    seen.add(action.dest)
        assert seen == set(library)

    def test_a_shared_flag_is_one_declaration(self):
        # the flags whose default or help differs by command are declared per command
        per_command = {"-h", "--help", "--photons", "--steps", "--spp", "--sppm-iterations", "--sppm-photons",
                       "--iterations", "--camera"}
        declarations = {}
        for command, parser in _subcommands().items():
            for action in parser._actions:
                for flag in set(action.option_strings) - per_command:
                    if (command, flag) != ("compare", "--out"):  # compare's optional table, not an image
                        declarations.setdefault(flag, set()).add(action)
        assert len(declarations) > 10
        assert {flag for flag, actions in declarations.items() if len(actions) != 1} == set()
