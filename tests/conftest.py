"""Fixtures shared by the test modules."""

import pytest

from photonfield import scene


@pytest.fixture
def cornell_box_dict():
    """The cornell-box scene as a fresh JSON-style dict, for a test to edit."""
    return scene._BUILTINS["cornell-box"]()
