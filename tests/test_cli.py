"""Command-line interface: determinism, manifests, error categories."""

import json

import numpy as np
import pytest

from photonfield.cli import main
from photonfield.images import read_pfm
from photonfield.scene import builtin_scene_dict


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
    def test_init_train_render_round_trip(self, tmp_path, views_file):
        ckpt = tmp_path / "field.gpf"
        rc = main(
            [
                "gpf-init", "--scene", "builtin:cornell-box", "--photons", "2000",
                "--out-checkpoint", str(ckpt), "--seed", "2",
            ]
        )
        assert rc == 0 and ckpt.exists()
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
        assert set(rec) == {"psnr", "ssim", "time_seconds", "storage_bytes"}
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
            assert set(row) == {"param", "value", "psnr", "ssim", "time_seconds", "storage_bytes"}
            assert row["time_seconds"] > 0
            assert row["storage_bytes"] > 0


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

    def test_invalid_scene_content_is_validation_error(self, tmp_path, capsys):
        data = builtin_scene_dict("cornell-box")
        data["shapes"][0]["material"] = "ghost"
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(data))
        rc = main(["render-pt", "--scene", str(bad), "--spp", "1", "--out", str(tmp_path / "x.pfm")])
        assert rc == 3
        assert "validate" in capsys.readouterr().err

    def test_unknown_builtin_is_validation_error(self, tmp_path):
        rc = main(["render-pt", "--scene", "builtin:nothing", "--spp", "1", "--out", str(tmp_path / "x.pfm")])
        assert rc == 3


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
