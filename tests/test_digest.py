"""The output digest tool (tools/digest.py): hashing, comparison, and two revisions end to end."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("digest", _ROOT / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def test_array_digest_sees_one_changed_byte_dtype_and_shape():
    a = np.linspace(0.0, 1.0, 12)
    b = a.copy()
    b.view(np.uint8)[37] ^= 1
    assert digest.array_digest(a) == digest.array_digest(a.copy())
    assert digest.array_digest(a) != digest.array_digest(b)
    assert digest.array_digest(a) != digest.array_digest(a.reshape(3, 4))
    assert digest.array_digest(a) != digest.array_digest(a.view(np.int64))
    assert digest.array_digest(a[:6], a[6:]) != digest.array_digest(a)


def test_compare_reports_differing_and_missing_outputs():
    base = {"s/a": "0" * 64, "s/b": "1" * 64, "s/c": "2" * 64}
    change = {"s/a": "0" * 64, "s/b": "1" * 63 + "3", "s/d": "4" * 64}
    assert digest.compare(base, change) == {
        "s/a": "equal", "s/b": "differs", "s/c": "only in base", "s/d": "only in change",
    }
    assert set(digest.compare(base, dict(base)).values()) == {"equal"}


def _run_json(*args):
    res = subprocess.run([sys.executable, str(_ROOT / "tools" / "digest.py"), "--json", *args],
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def test_recipe_digests_every_output_and_reruns_equal():
    first, second = _run_json(), _run_json()
    assert first == second
    outputs = {name.split("/", 1)[1] for name in first}
    assert {"render_pt", "render_pt.chunked", "render_sppm", "render_gpf", "dataset.position", "dataset.l_ref", "dataset.file",
            "train.losses", "train.field", "train.checkpoint", "bvh.perm"} <= outputs
    assert {name.split("/", 1)[0] for name in first} == set(digest.SCENES)
    assert len(first) == len(digest.SCENES) * len(outputs)


@pytest.fixture()
def two_revisions(tmp_path, monkeypatch):
    """A repository holding this tree's ``src/`` twice: as committed, and
    with the dataset file's magic changed, which moves only that file's bytes."""
    repo = tmp_path / "repo"

    def git(*args):
        return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True, check=True).stdout.strip()

    shutil.copytree(_ROOT / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    git("init", "-q")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "base")
    base = git("rev-parse", "HEAD")
    training = repo / "src" / "photonfield" / "training.py"
    text = training.read_text()
    assert text.count('_MAGIC = b"GPD2"') == 1
    training.write_text(text.replace('_MAGIC = b"GPD2"', '_MAGIC = b"GPDX"'))
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-am", "change")
    monkeypatch.setattr(sys.modules["ab"], "ROOT", repo)
    return base, git("rev-parse", "HEAD"), tmp_path / "scratch"


def test_a_changed_output_byte_is_reported(two_revisions, capsys):
    base, change, scratch = two_revisions
    assert digest.main(["--base", base, "--change", change, "--scratch", str(scratch), "--json"]) == 1
    status = json.loads(capsys.readouterr().out)["status"]
    differ = sorted(name for name, state in status.items() if state != "equal")
    assert differ == [f"{scene}/dataset.file" for scene in sorted(digest.SCENES)]
    assert {status[name] for name in differ} == {"differs"}


def test_an_unchanged_tree_reads_equal(two_revisions, capsys):
    base, _, scratch = two_revisions
    assert digest.main(["--base", base, "--change", base, "--scratch", str(scratch)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = lines[1:-1]
    assert len(rows) >= 20 * len(digest.SCENES) and all(row.startswith("equal ") for row in rows)
    assert lines[-1] == f"{len(rows)} of {len(rows)} outputs equal"


def test_ab_records_which_outputs_differ(two_revisions):
    base, change, scratch = two_revisions
    ab = sys.modules["ab"]
    assert ab.digest_record(base, change, scratch) == {
        "digests_equal": False, "digests_differ": [f"{scene}/dataset.file" for scene in sorted(digest.SCENES)],
    }
    assert ab.digest_record(base, base, scratch) == {"digests_equal": True, "digests_differ": []}
