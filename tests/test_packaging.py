"""Packaging: every file the package opens at run time ships as package data."""

import glob
import os
from pathlib import Path

import pytest

from photonfield import geometry, scene

tomllib = pytest.importorskip("tomllib")  # Python 3.11 on

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_opened_at_run_time_is_package_data():
    # the test builds no wheel, so it expands the globs as setuptools does: relative to the package directory
    with open(ROOT / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["photonfield"]
    shipped = {os.path.normpath(p) for pattern in globs for p in glob.glob(pattern, root_dir=geometry._DIR)}
    scenes = [os.path.join(scene._SCENES_DIR, f) for f in os.listdir(scene._SCENES_DIR)]
    opened = {os.path.relpath(p, geometry._DIR) for p in (*geometry._SOURCES, *geometry._HEADERS, *scenes)}
    assert len(opened) == 8  # four C sources, one header, three scenes
    assert opened - shipped == set()
