"""Fixtures shared by the test modules."""

import json
import os

import numpy as np
import pytest

from photonfield import scene


@pytest.fixture
def cornell_box_dict():
    """The cornell-box scene as a fresh JSON-style dict, for a test to edit."""
    with open(os.path.join(scene._SCENES_DIR, "cornell-box.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def make_hits():
    """A builder of ``scene.Hits`` rows seen from ``wo`` on surfaces with unit
    normals ``normal`` (both (n, 3)), without a scene: every row is a valid,
    entering hit of material ``mat_kind`` with albedo 0.5 and ior 1.5; keyword
    arguments replace fields."""

    def make(normal, wo, mat_kind=scene.DIFFUSE, **fields):
        n = len(normal)
        rows = dict(
            valid=np.ones(n, dtype=bool), t=np.ones(n), position=np.zeros((n, 3)),
            normal=np.array(normal, dtype=np.float64), wo=np.array(wo, dtype=np.float64),
            shape_id=np.zeros(n, dtype=np.intp), mat_kind=np.full(n, mat_kind, dtype=np.uint8),
            albedo=np.full((n, 3), 0.5), ior=np.full(n, 1.5), emission=np.zeros((n, 3)), entering=np.ones(n, dtype=bool),
        )
        return scene.Hits(**{**rows, **fields})

    return make
