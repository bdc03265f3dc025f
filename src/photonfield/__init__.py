"""Physically-based rendering with a trainable continuous photon field.

Three integrators over one scene/BSDF core: a path tracer (NEE + MIS), a
progressive photon mapper, and a camera pass that replaces per-view photon
density estimation with queries into a field of anisotropic Gaussian
primitives seeded from traced photons and optimized against photon-mapped
references.
"""

from .core import Rng
from .field import GaussianField
from .images import psnr, read_pfm, ssim, tone_map, write_pfm, write_ppm
from .integrators import (
    SppmConfig,
    reference_radiance_at_points,
    render_gpf,
    render_pt,
    render_sppm,
    sppm_radius,
)
from .photons import PhotonMap, trace_photons
from .scene import (
    Camera,
    Material,
    Scene,
    SceneParseError,
    SceneValidationError,
    Shape,
    builtin_scene,
    load_scene,
    save_scene,
)
from .spatial import PointIndex
from .training import SampleSet, TrainConfig, build_dataset, train

__version__ = "0.1.0"

__all__ = [
    "Camera",
    "GaussianField",
    "Material",
    "PhotonMap",
    "PointIndex",
    "Rng",
    "SampleSet",
    "Scene",
    "SceneParseError",
    "SceneValidationError",
    "Shape",
    "SppmConfig",
    "TrainConfig",
    "build_dataset",
    "builtin_scene",
    "load_scene",
    "psnr",
    "read_pfm",
    "reference_radiance_at_points",
    "render_gpf",
    "render_pt",
    "render_sppm",
    "save_scene",
    "sppm_radius",
    "ssim",
    "tone_map",
    "trace_photons",
    "train",
    "write_pfm",
    "write_ppm",
]
