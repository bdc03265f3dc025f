"""Scene description: materials, shapes, camera, emitters, and BSDFs.

A scene owns validated shapes and materials, a BVH over the expanded
primitives, and per-shape radiometric tables. Emission is one-sided (on
the geometric-normal side only) so emitter power is unambiguous:
``power = pi * area * radiance`` per channel.

Scenes are immutable after load and safe to share across render threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import geometry
from .core import normalize
from .images import write_atomic

DIFFUSE = 0
MIRROR = 1
DIELECTRIC = 2

_MAT_KIND_NAMES = {"diffuse": DIFFUSE, "mirror": MIRROR, "dielectric": DIELECTRIC}


class SceneParseError(ValueError):
    """Malformed scene file (bad JSON or wrong structure)."""


class SceneValidationError(ValueError):
    """Structurally valid scene file with physically invalid content."""


# ---------------------------------------------------------------------------
# materials


@dataclass(frozen=True)
class Material:
    """Surface material: lambertian diffuse or a delta (mirror/dielectric) lobe."""

    kind: int
    albedo: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ior: float = 1.0

    @classmethod
    def diffuse(cls, albedo) -> "Material":
        return cls(DIFFUSE, np.asarray(albedo, dtype=np.float64))

    @classmethod
    def mirror(cls, reflectance) -> "Material":
        return cls(MIRROR, np.asarray(reflectance, dtype=np.float64))

    @classmethod
    def dielectric(cls, ior: float) -> "Material":
        return cls(DIELECTRIC, np.zeros(3), float(ior))

    @property
    def is_diffuse(self) -> bool:
        return self.kind == DIFFUSE


# ---------------------------------------------------------------------------
# shapes and camera


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    @property
    def area(self) -> float:
        return 4.0 * math.pi * self.radius**2


@dataclass(frozen=True)
class Quad:
    corner: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray

    @property
    def normal(self) -> np.ndarray:
        n = np.cross(self.edge_u, self.edge_v)
        return n / np.linalg.norm(n)

    @property
    def area(self) -> float:
        return float(np.linalg.norm(np.cross(self.edge_u, self.edge_v)))


@dataclass(frozen=True)
class TriangleMesh:
    vertices: np.ndarray  # (V, 3)
    indices: np.ndarray  # (F, 3) int

    @property
    def triangle_areas(self) -> np.ndarray:
        a = self.vertices[self.indices[:, 0]]
        b = self.vertices[self.indices[:, 1]]
        c = self.vertices[self.indices[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    @property
    def area(self) -> float:
        return float(self.triangle_areas.sum())


@dataclass(frozen=True)
class Shape:
    """A geometric shape with a material reference and optional emission.

    ``emission`` is outgoing radiance on the geometric-normal side; any
    shape with a positive channel is an area emitter.
    """

    kind: Sphere | Quad | TriangleMesh
    material: str
    emission: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @property
    def is_emitter(self) -> bool:
        return bool(np.any(self.emission > 0.0))


@dataclass(frozen=True)
class Camera:
    """Pinhole camera; primary rays pass through pixel corners plus a
    jitter in [0,1)^2 of the pixel extent (0.5 is the pixel center)."""

    position: np.ndarray
    look_at: np.ndarray
    up: np.ndarray
    vfov: float  # vertical field of view, degrees
    resolution: tuple[int, int]  # (width, height)

    def __post_init__(self):
        if not (0.0 < self.vfov < 180.0):
            raise SceneValidationError("camera vfov must be in (0, 180) degrees")
        w, h = self.resolution
        if w <= 0 or h <= 0 or w != int(w) or h != int(h):
            raise SceneValidationError("camera resolution must be positive integers")
        if np.allclose(self.position, self.look_at):
            raise SceneValidationError("camera look_at must differ from position")

    def _basis(self):
        fwd = normalize(self.look_at - self.position)
        right = np.cross(fwd, self.up)
        if np.linalg.norm(right) < 1e-12:
            raise SceneValidationError("camera up vector is parallel to the view direction")
        right = right / np.linalg.norm(right)
        up = np.cross(right, fwd)
        return fwd, right, up

    def primary_rays(self, pixel_ids, jitter):
        """Rays for flat pixel indices (row-major, (0,0) top-left).

        ``jitter`` has shape (n, 2) in [0,1)^2. Returns (origins, directions)
        with unit directions.
        """
        w, h = self.resolution
        pixel_ids = np.asarray(pixel_ids, dtype=np.intp)
        px = pixel_ids % w
        py = pixel_ids // w
        fwd, right, up = self._basis()
        half_h = math.tan(math.radians(self.vfov) * 0.5)
        half_w = half_h * (w / h)
        sx = ((px + jitter[:, 0]) / w) * 2.0 - 1.0
        sy = 1.0 - ((py + jitter[:, 1]) / h) * 2.0
        d = fwd[None, :] + (sx * half_w)[:, None] * right[None, :] + (sy * half_h)[:, None] * up[None, :]
        d = d / np.linalg.norm(d, axis=1, keepdims=True)
        o = np.broadcast_to(self.position, d.shape).copy()
        return o, d

    def with_resolution(self, width: int, height: int) -> "Camera":
        return Camera(self.position, self.look_at, self.up, self.vfov, (width, height))


def _hit_layout(name: str, n: int):
    """(shape, dtype) of the ``Hits`` field ``name`` for ``n`` hits."""
    shape = (n, 3) if name in ("position", "normal", "wo", "albedo", "emission") else (n,)
    return shape, np.dtype({"valid": bool, "shape_id": np.intp, "mat_kind": np.uint8, "entering": bool}.get(name, float))


@dataclass
class Hits:
    """Struct-of-arrays batch of ray-surface hits: ``struct pf_hits`` of ``_photons.c``."""

    valid: np.ndarray  # (n,) bool
    t: np.ndarray  # (n,)
    position: np.ndarray  # (n, 3)
    normal: np.ndarray  # (n, 3), flipped toward wo
    wo: np.ndarray  # (n, 3)
    shape_id: np.ndarray  # (n,), -1 for miss
    mat_kind: np.ndarray  # (n,) uint8
    albedo: np.ndarray  # (n, 3): diffuse albedo or mirror reflectance
    ior: np.ndarray  # (n,)
    emission: np.ndarray  # (n, 3) toward wo
    entering: np.ndarray  # (n,) bool

    def subset(self, mask) -> "Hits":
        """The rows ``mask`` (boolean mask or index array) of every field."""
        return Hits(*(getattr(self, f.name)[mask] for f in fields(self)))

    def table(self) -> geometry.HitsTable:
        """These rows as ``struct pf_hits``; ``ValueError`` unless each field has its dtype and ``len(t)`` rows."""
        n, arrays = len(self.t), {f.name: np.ascontiguousarray(getattr(self, f.name)) for f in fields(self)}
        for name, a in arrays.items():
            if (a.shape, a.dtype) != _hit_layout(name, n):
                raise ValueError(f"Hits.{name} is a {a.dtype} array of shape {a.shape}, which does not fit {n} hits")
        return geometry.HitsTable(n=n, **arrays)


# ---------------------------------------------------------------------------
# scene


class Scene:
    def __init__(self, camera: Camera, materials: dict[str, Material], shapes: list[Shape]):
        if not shapes:
            raise SceneValidationError("scene has no shapes")
        self.camera = camera
        self.materials = dict(materials)
        self.shapes = list(shapes)
        mat_names = list(self.materials.keys())
        mat_index = {name: i for i, name in enumerate(mat_names)}
        for s in self.shapes:
            if s.material not in mat_index:
                raise SceneValidationError(f"shape references unknown material {s.material!r}")
        self._mat_kind = np.array([self.materials[n].kind for n in mat_names], dtype=np.uint8)
        self._mat_albedo = np.array([self.materials[n].albedo for n in mat_names], dtype=np.float64)
        self._mat_ior = np.array([self.materials[n].ior for n in mat_names], dtype=np.float64)
        self.shape_mat = np.array([mat_index[s.material] for s in self.shapes], dtype=np.intp)
        self.shape_emission = np.array([s.emission for s in self.shapes], dtype=np.float64)
        self._build_geometry()
        self._build_emitters()
        self._shading = geometry.ShadingTable(
            shape_ids=self.geometry.shape_ids, shape_mat=self.shape_mat, mat_kind=self._mat_kind,
            mat_albedo=self._mat_albedo, mat_ior=self._mat_ior, shape_emission=self.shape_emission,
        )

    def _build_geometry(self):
        kinds, pa, pb, pc, sid = [], [], [], [], []
        for i, s in enumerate(self.shapes):
            k = s.kind
            if isinstance(k, Sphere):
                kinds.append(geometry.KIND_SPHERE)
                pa.append(k.center)
                pb.append([k.radius, 0.0, 0.0])
                pc.append([0.0, 0.0, 0.0])
                sid.append(i)
            elif isinstance(k, Quad):
                kinds.append(geometry.KIND_QUAD)
                pa.append(k.corner)
                pb.append(k.edge_u)
                pc.append(k.edge_v)
                sid.append(i)
            elif isinstance(k, TriangleMesh):
                v = k.vertices
                for f in k.indices:
                    kinds.append(geometry.KIND_TRIANGLE)
                    pa.append(v[f[0]])
                    pb.append(v[f[1]])
                    pc.append(v[f[2]])
                    sid.append(i)
            else:  # pragma: no cover
                raise SceneValidationError(f"unknown shape kind {type(k).__name__}")
        self.geometry = geometry.Geometry(kinds, pa, pb, pc, sid)

    def _build_emitters(self):
        ids = [i for i, s in enumerate(self.shapes) if s.is_emitter]
        self.emitter_ids = np.asarray(ids, dtype=np.intp)
        self._emitter_slot_lut = np.full(len(self.shapes), -1, dtype=np.intp)
        self._emitter_slot_lut[self.emitter_ids] = np.arange(len(ids))
        if not ids:
            self.emitter_power = np.zeros((0, 3))
            self.emitter_radiance = np.zeros((0, 3))
            self.emitter_area = np.zeros(0)
            self.emitter_cdf = np.zeros(0)
            self.total_power = np.zeros(3)
        else:
            areas = np.array([self.shapes[i].kind.area for i in ids])
            if not np.all(areas > 0.0):
                raise SceneValidationError(f"emitting shapes[{ids[int(np.argmin(areas > 0.0))]}] has no area")
            radiance = np.array([self.shapes[i].emission for i in ids])
            self.emitter_area = areas
            self.emitter_radiance = radiance
            self.emitter_power = math.pi * areas[:, None] * radiance
            self.total_power = self.emitter_power.sum(axis=0)
            scalar = self.emitter_power.mean(axis=1)
            cdf = np.cumsum(scalar)
            self.emitter_cdf = cdf / cdf[-1]
        # the sampler's table: a slot's primitives (a shape's are consecutive),
        # a quad's normal and a mesh's triangle-area CDF
        g = self.geometry
        start = np.searchsorted(g.shape_ids, self.emitter_ids)
        count = np.searchsorted(g.shape_ids, self.emitter_ids, side="right") - start
        normal = np.zeros((len(ids), 3))
        area_cdf = np.zeros(len(g))
        for s, i in enumerate(ids):
            k = self.shapes[i].kind
            if isinstance(k, Quad):
                normal[s] = k.normal
            elif isinstance(k, TriangleMesh):
                areas = k.triangle_areas
                area_cdf[start[s] : start[s] + count[s]] = np.cumsum(areas) / areas.sum()
        self._emitters = geometry.EmitterTable(
            n=len(ids), cdf=self.emitter_cdf, power=self.total_power, start=start, count=count, kinds=g.kinds,
            pa=g.pa, pb=g.pb, pc=g.pc, normal=normal, area_cdf=area_cdf,
        )

    @property
    def has_emitters(self) -> bool:
        return len(self.emitter_ids) > 0

    # -- intersection ------------------------------------------------------

    def intersect_batch(self, o, d) -> Hits:
        """Nearest hits of the rays (o, d), each (n, 3), shaded by the photon tracer's ``shade()`` (``_photons.c``);
        a miss row is zero but for ``wo = -d``, ``t = inf``, ``shape_id -1`` and ``ior 1``."""
        o = np.ascontiguousarray(np.atleast_2d(o), dtype=np.float64)
        d = np.ascontiguousarray(np.atleast_2d(d), dtype=np.float64)
        t, prim = self.geometry.intersect(o, d)
        hits = Hits(t=t, **{f.name: np.empty(*_hit_layout(f.name, len(t))) for f in fields(Hits) if f.name != "t"})
        args = (o.ctypes.data, d.ctypes.data, prim.ctypes.data, geometry.HitsTable(n=len(t), **vars(hits)))
        geometry.load_kernels().pf_shade_hits(self.geometry._table, self._shading, *args)
        return hits

    # -- emitters ----------------------------------------------------------

    def _require_emitters(self):
        if not self.has_emitters:
            raise ValueError("scene has no emitters")

    def pick_emitter(self, u):
        """Power-proportional emitter slots for the uniform draws ``u`` (a 1-d array)."""
        self._require_emitters()
        if np.ndim(u) != 1:
            raise ValueError(f"u must be a 1-d array of draws, got shape {np.shape(u)}")
        u = np.ascontiguousarray(u, dtype=np.float64)
        slot = np.empty(len(u), dtype=np.intp)
        geometry.load_kernels().pf_pick_emitter(self._emitters, len(u), u.ctypes.data, slot.ctypes.data)
        return slot

    def emitter_select_prob(self, slot):
        scalar = self.emitter_power.mean(axis=1)
        return scalar[slot] / scalar.sum()

    def sample_on_emitter(self, slot, u1, u2):
        """Uniform-area points and unit normals on the emitters in ``slot``,
        from the draws ``u1`` and ``u2`` (equal-length 1-d arrays).

        Returns (points, normals, pdf_area) where pdf_area = 1/area of each
        row's emitter. A quad maps (u1, u2) onto its edges, a sphere to (z,
        azimuth), and a mesh picks a triangle by area with u1, then takes a
        uniform barycentric point with u1 re-stretched within that
        triangle's CDF bin. This is the compiled sampler the photon tracer
        emits through (``_photons.c``).
        """
        slot = np.ascontiguousarray(slot, dtype=np.intp)
        u1 = np.ascontiguousarray(u1, dtype=np.float64)
        u2 = np.ascontiguousarray(u2, dtype=np.float64)
        n = len(slot)
        if not slot.shape == u1.shape == u2.shape == (n,):
            raise ValueError(f"slot, u1 and u2 must be 1-d arrays of one length, got {slot.shape}, {u1.shape}, {u2.shape}")
        if n and not (slot.min() >= 0 and slot.max() < len(self.emitter_ids)):
            raise ValueError(f"emitter slots must lie in [0, {len(self.emitter_ids)})")
        pts, nrm = np.empty((n, 3)), np.empty((n, 3))
        geometry.load_kernels().pf_sample_on_emitter(
            self._emitters, n, slot.ctypes.data, u1.ctypes.data, u2.ctypes.data, pts.ctypes.data, nrm.ctypes.data
        )
        return pts, nrm, 1.0 / self.emitter_area[slot]

    def emitter_slot_of_shape(self, shape_id):
        """Emitter slot for shape ids (vectorized); -1 for non-emitters."""
        return self._emitter_slot_lut[shape_id]

    # -- serialization -----------------------------------------------------

    def content_hash(self) -> str:
        import hashlib

        blob = json.dumps(scene_to_dict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# BSDF sampling


def sample_bsdf_batch(hits: Hits, u1, u2, u3):
    """One continuation per valid hit from the float64 draws ``u1``, ``u2``, ``u3`` (one each per hit), by the
    photon tracer's ``sample_bsdf()`` (``_photons.c``). Returns (wi, f_over_pdf, is_delta, pdf_dir): diffuse
    rows are cosine sampled with weight albedo and pdf cos/pi; mirror rows reflect with weight reflectance;
    dielectric rows reflect with the Fresnel probability, else refract, with weight 1. ``pdf_dir`` is 0 for
    delta rows; invalid rows are zeros. ``ValueError`` for other draws, for ``hits`` that :meth:`Hits.table`
    refuses, or for an unknown ``mat_kind``."""
    n = len(hits.t)
    u = [np.asarray(x) for x in (u1, u2, u3)]
    if any(x.shape != (n,) or x.dtype != np.float64 for x in u):
        raise ValueError(f"u1, u2 and u3 must be float64 arrays of {n} draws, got {', '.join(f'{x.dtype} {x.shape}' for x in u)}")
    table = hits.table()
    if n and table.arrays["mat_kind"].max() > DIELECTRIC:
        raise ValueError(f"mat_kind must be DIFFUSE, MIRROR or DIELECTRIC, got {table.arrays['mat_kind'].max()}")
    u = [np.ascontiguousarray(x) for x in u]
    out = np.zeros((n, 3)), np.zeros((n, 3)), np.zeros(n, dtype=bool), np.zeros(n)
    geometry.load_kernels().pf_sample_bsdf(table, *(a.ctypes.data for a in (*u, *out)))
    return out


# ---------------------------------------------------------------------------
# JSON serialization


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise SceneParseError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    missing = required - set(obj)
    if missing:
        raise SceneParseError(f"missing key {sorted(missing)[0]!r} in {where}")


def _finite(value, where: str) -> np.ndarray:
    """A JSON number, or list of numbers, as float64; ``SceneValidationError``
    unless every one is finite. Python's json reads NaN and Infinity, 1e999
    as inf, and integers of any size."""
    try:
        v = np.asarray(value, dtype=np.float64)
    except OverflowError:
        v = np.array(np.inf)
    if not all(map(math.isfinite, v.flat)):
        raise SceneValidationError(f"{where} must be finite")
    return v


def _number(value, where: str) -> float:
    """A JSON int or float (``SceneParseError`` for a bool, string or list),
    finite through :func:`_finite`."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SceneParseError(f"{where} must be a number")
    return float(_finite(value, where))


def _vec3(value, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SceneParseError(f"{where} must be a list of 3 numbers")
    return np.array([_number(v, where) for v in value])


def _material_from_dict(name: str, obj: dict) -> Material:
    where = f"materials[{name!r}]"
    if not isinstance(obj, dict):
        raise SceneParseError(f"{where} must be an object")
    if "type" not in obj:
        raise SceneParseError(f"missing key 'type' in {where}")
    kind = obj["type"]
    if kind == "diffuse":
        _check_keys(obj, {"type", "albedo"}, {"type", "albedo"}, where)
        albedo = _vec3(obj["albedo"], f"{where}.albedo")
        if np.any(albedo < 0.0) or np.any(albedo > 1.0):
            raise SceneValidationError(f"{where}.albedo channels must lie in [0, 1]")
        return Material.diffuse(albedo)
    if kind == "mirror":
        _check_keys(obj, {"type", "reflectance"}, {"type", "reflectance"}, where)
        refl = _vec3(obj["reflectance"], f"{where}.reflectance")
        if np.any(refl < 0.0) or np.any(refl > 1.0):
            raise SceneValidationError(f"{where}.reflectance channels must lie in [0, 1]")
        return Material.mirror(refl)
    if kind == "dielectric":
        _check_keys(obj, {"type", "ior"}, {"type", "ior"}, where)
        ior = _number(obj["ior"], f"{where}.ior")
        if ior <= 0.0:
            raise SceneValidationError(f"{where}.ior must be a positive number")
        return Material.dielectric(ior)
    raise SceneParseError(f"{where}.type must be one of diffuse/mirror/dielectric")


def _shape_from_dict(i: int, obj: dict) -> Shape:
    where = f"shapes[{i}]"
    if not isinstance(obj, dict):
        raise SceneParseError(f"{where} must be an object")
    if "type" not in obj:
        raise SceneParseError(f"missing key 'type' in {where}")
    kind = obj["type"]
    emission = np.zeros(3)
    if "emission" in obj:
        emission = _vec3(obj["emission"], f"{where}.emission")
        if np.any(emission < 0.0):
            raise SceneValidationError(f"{where}.emission channels must be non-negative")
    if "material" not in obj:
        raise SceneParseError(f"missing key 'material' in {where}")
    material = obj["material"]
    if not isinstance(material, str):
        raise SceneParseError(f"{where}.material must be a material name")
    if kind == "sphere":
        _check_keys(obj, {"type", "center", "radius", "material", "emission"}, {"type", "center", "radius"}, where)
        radius = _number(obj["radius"], f"{where}.radius")
        if radius <= 0.0:
            raise SceneValidationError(f"{where}.radius must be positive")
        return Shape(Sphere(_vec3(obj["center"], f"{where}.center"), radius), material, emission)
    if kind == "quad":
        _check_keys(
            obj, {"type", "corner", "edge_u", "edge_v", "material", "emission"}, {"type", "corner", "edge_u", "edge_v"}, where
        )
        eu = _vec3(obj["edge_u"], f"{where}.edge_u")
        ev = _vec3(obj["edge_v"], f"{where}.edge_v")
        if np.linalg.norm(np.cross(eu, ev)) < 1e-12:
            raise SceneValidationError(f"{where} edges must be linearly independent")
        return Shape(Quad(_vec3(obj["corner"], f"{where}.corner"), eu, ev), material, emission)
    if kind == "mesh":
        _check_keys(obj, {"type", "vertices", "indices", "material", "emission"}, {"type", "vertices", "indices"}, where)
        verts = obj["vertices"]
        idx = obj["indices"]
        if not isinstance(verts, list) or not verts:
            raise SceneParseError(f"{where}.vertices must be a non-empty list")
        v = np.array([_vec3(p, f"{where}.vertices[{j}]") for j, p in enumerate(verts)])
        if not isinstance(idx, list) or not idx:
            raise SceneParseError(f"{where}.indices must be a non-empty list")
        # JSON integers only (type bool is not int): numpy would truncate 2.5, and read true and "2" as numbers
        if not all(type(t) is list and len(t) == 3 for t in idx) or {type(j) for t in idx for j in t} != {int}:
            raise SceneParseError(f"{where}.indices must be triples of integer vertex indices")
        flat = [j for t in idx for j in t]
        if min(flat) < 0 or max(flat) >= len(v):
            raise SceneValidationError(f"{where}.indices reference out-of-range vertices")
        return Shape(TriangleMesh(v, np.array(idx, dtype=np.intp)), material, emission)
    raise SceneParseError(f"{where}.type must be one of sphere/quad/mesh")


def camera_from_dict(cam) -> Camera:
    if not isinstance(cam, dict):
        raise SceneParseError("camera must be an object")
    keys = {"position", "look_at", "up", "vfov", "resolution"}
    _check_keys(cam, keys, keys, "camera")
    res = cam["resolution"]
    if not isinstance(res, (list, tuple)) or len(res) != 2 or not all(type(v) is int for v in res):
        raise SceneParseError("camera.resolution must be [width, height] integers")
    return Camera(
        _vec3(cam["position"], "camera.position"),
        _vec3(cam["look_at"], "camera.look_at"),
        _vec3(cam["up"], "camera.up"),
        _number(cam["vfov"], "camera.vfov"),
        (res[0], res[1]),
    )


def scene_from_dict(data: dict) -> Scene:
    if not isinstance(data, dict):
        raise SceneParseError("scene root must be an object")
    _check_keys(data, {"camera", "materials", "shapes"}, {"camera", "materials", "shapes"}, "scene")
    camera = camera_from_dict(data["camera"])
    mats = data["materials"]
    if not isinstance(mats, dict) or not mats:
        raise SceneParseError("materials must be a non-empty object")
    materials = {name: _material_from_dict(name, obj) for name, obj in mats.items()}
    shp = data["shapes"]
    if not isinstance(shp, list) or not shp:
        raise SceneParseError("shapes must be a non-empty list")
    shapes = [_shape_from_dict(i, obj) for i, obj in enumerate(shp)]
    return Scene(camera, materials, shapes)


def scene_to_dict(scene: Scene) -> dict:
    def vec(v):
        return [float(x) for x in v]

    mats = {}
    for name, m in scene.materials.items():
        if m.kind == DIFFUSE:
            mats[name] = {"type": "diffuse", "albedo": vec(m.albedo)}
        elif m.kind == MIRROR:
            mats[name] = {"type": "mirror", "reflectance": vec(m.albedo)}
        else:
            mats[name] = {"type": "dielectric", "ior": float(m.ior)}
    shapes = []
    for s in scene.shapes:
        k = s.kind
        if isinstance(k, Sphere):
            obj = {"type": "sphere", "center": vec(k.center), "radius": float(k.radius), "material": s.material}
        elif isinstance(k, Quad):
            obj = {
                "type": "quad",
                "corner": vec(k.corner),
                "edge_u": vec(k.edge_u),
                "edge_v": vec(k.edge_v),
                "material": s.material,
            }
        else:
            obj = {
                "type": "mesh",
                "vertices": [vec(v) for v in k.vertices],
                "indices": [[int(i) for i in f] for f in k.indices],
                "material": s.material,
            }
        if s.is_emitter:
            obj["emission"] = vec(s.emission)
        shapes.append(obj)
    cam = scene.camera
    return {
        "camera": {
            "position": vec(cam.position),
            "look_at": vec(cam.look_at),
            "up": vec(cam.up),
            "vfov": float(cam.vfov),
            "resolution": [int(cam.resolution[0]), int(cam.resolution[1])],
        },
        "materials": mats,
        "shapes": shapes,
    }


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SceneParseError(f"invalid JSON in {path}: {e.msg} at line {e.lineno} column {e.colno}") from e
    return scene_from_dict(data)


def save_scene(scene: Scene, path) -> None:
    write_atomic(path, (json.dumps(scene_to_dict(scene), indent=2) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# builtin scenes (desk scale, z-up, normalized to fit [-1, 1]^3)


def _box_mesh(center_xy, z0, size_xy, height, angle_deg):
    """Axis-extruded box resting on the floor, rotated about z.

    The bottom face is omitted: it would be exactly coplanar with the
    floor (never visible, and coplanar overlaps make nearest-hit results
    ambiguous ties).
    """
    hx, hy = size_xy[0] / 2.0, size_xy[1] / 2.0
    base = np.array(
        [[-hx, -hy], [hx, -hy], [hx, hy], [-hx, hy]],
    )
    a = math.radians(angle_deg)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    xy = base @ rot.T + np.asarray(center_xy)
    verts = np.array(
        [[x, y, z0] for x, y in xy] + [[x, y, z0 + height] for x, y in xy]
    )
    # winding chosen so normals point outward
    quads = [
        (4, 5, 6, 7),  # top (+z)
        (0, 1, 5, 4),
        (1, 2, 6, 5),
        (2, 3, 7, 6),
        (3, 0, 4, 7),
    ]
    tris = []
    for q in quads:
        tris.append([q[0], q[1], q[2]])
        tris.append([q[0], q[2], q[3]])
    return verts, np.asarray(tris, dtype=np.intp)


def _cornell_box_dict() -> dict:
    tall_v, tall_i = _box_mesh((-0.33, 0.3), -1.0, (0.6, 0.6), 1.2, 17.0)
    short_v, short_i = _box_mesh((0.37, -0.35), -1.0, (0.6, 0.6), 0.6, -18.0)

    def mesh_obj(v, i, mat):
        return {
            "type": "mesh",
            "vertices": [[float(x) for x in p] for p in v],
            "indices": [[int(x) for x in f] for f in i],
            "material": mat,
        }

    return {
        "camera": {
            "position": [0.0, -3.9, 0.0],
            "look_at": [0.0, 0.0, 0.0],
            "up": [0.0, 0.0, 1.0],
            "vfov": 28.0,
            "resolution": [128, 128],
        },
        "materials": {
            "white": {"type": "diffuse", "albedo": [0.73, 0.73, 0.73]},
            "red": {"type": "diffuse", "albedo": [0.63, 0.065, 0.05]},
            "green": {"type": "diffuse", "albedo": [0.14, 0.45, 0.091]},
            "lamp": {"type": "diffuse", "albedo": [0.0, 0.0, 0.0]},
        },
        "shapes": [
            {"type": "quad", "corner": [-1, -1, -1], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "white"},
            {"type": "quad", "corner": [-1, -1, 1], "edge_u": [0, 2, 0], "edge_v": [2, 0, 0], "material": "white"},
            {"type": "quad", "corner": [-1, 1, -1], "edge_u": [2, 0, 0], "edge_v": [0, 0, 2], "material": "white"},
            {"type": "quad", "corner": [-1, -1, -1], "edge_u": [0, 2, 0], "edge_v": [0, 0, 2], "material": "red"},
            {"type": "quad", "corner": [1, -1, -1], "edge_u": [0, 0, 2], "edge_v": [0, 2, 0], "material": "green"},
            mesh_obj(tall_v, tall_i, "white"),
            mesh_obj(short_v, short_i, "white"),
            {
                "type": "quad",
                "corner": [-0.25, -0.25, 0.995],
                "edge_u": [0.0, 0.5, 0.0],
                "edge_v": [0.5, 0.0, 0.0],
                "material": "lamp",
                "emission": [12.0, 12.0, 12.0],
            },
        ],
    }


def _caustic_sphere_dict() -> dict:
    # glass sphere close under a small lamp: a strong floor caustic, with
    # the lamp low enough that most photons land on the (finite) floor
    return {
        "camera": {
            "position": [1.1, -1.1, 0.5],
            "look_at": [0.0, 0.0, -0.35],
            "up": [0.0, 0.0, 1.0],
            "vfov": 42.0,
            "resolution": [128, 128],
        },
        "materials": {
            "floor": {"type": "diffuse", "albedo": [0.65, 0.65, 0.65]},
            "glass": {"type": "dielectric", "ior": 1.5},
            "lamp": {"type": "diffuse", "albedo": [0.0, 0.0, 0.0]},
        },
        "shapes": [
            {"type": "quad", "corner": [-0.8, -0.8, -0.5], "edge_u": [1.6, 0, 0], "edge_v": [0, 1.6, 0],
             "material": "floor"},
            {"type": "sphere", "center": [0.0, 0.0, -0.19], "radius": 0.26, "material": "glass"},
            {
                "type": "quad",
                "corner": [-0.04, -0.16, 0.28],
                "edge_u": [0.0, 0.32, 0.0],
                "edge_v": [0.32, 0.0, 0.0],
                "material": "lamp",
                "emission": [22.0, 22.0, 22.0],
            },
        ],
    }


def _caustic_pool_dict() -> dict:
    n = 28
    xs = np.linspace(-0.9, 0.9, n)
    ys = np.linspace(-0.9, 0.9, n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    gz = 0.02 * np.sin(2.0 * np.pi * (1.1 * gx + 0.15)) + 0.018 * np.cos(
        2.0 * np.pi * (0.9 * gy - 0.1) + 1.5 * gx
    )
    verts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    tris = []
    for i in range(n - 1):
        for j in range(n - 1):
            v00 = i * n + j
            v01 = i * n + j + 1
            v10 = (i + 1) * n + j
            v11 = (i + 1) * n + j + 1
            tris.append([v00, v10, v11])
            tris.append([v00, v11, v01])
    return {
        "camera": {
            "position": [0.9, -1.35, 0.75],
            "look_at": [0.0, 0.0, -0.3],
            "up": [0.0, 0.0, 1.0],
            "vfov": 46.0,
            "resolution": [128, 128],
        },
        "materials": {
            "floor": {"type": "diffuse", "albedo": [0.35, 0.55, 0.65]},
            "water": {"type": "dielectric", "ior": 1.33},
            "lamp": {"type": "diffuse", "albedo": [0.0, 0.0, 0.0]},
        },
        "shapes": [
            {"type": "quad", "corner": [-1, -1, -0.5], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "floor"},
            {
                "type": "mesh",
                "vertices": [[float(x) for x in p] for p in verts],
                "indices": [[int(x) for x in f] for f in tris],
                "material": "water",
            },
            {
                "type": "quad",
                "corner": [-0.15, -0.15, 0.85],
                "edge_u": [0.0, 0.3, 0.0],
                "edge_v": [0.3, 0.0, 0.0],
                "material": "lamp",
                "emission": [35.0, 35.0, 35.0],
            },
        ],
    }


_BUILTINS = {
    "cornell-box": _cornell_box_dict,
    "caustic-sphere": _caustic_sphere_dict,
    "caustic-pool": _caustic_pool_dict,
}


def builtin_scene(name: str) -> Scene:
    """One of the bundled scenes: cornell-box, caustic-sphere, caustic-pool."""
    if name not in _BUILTINS:
        raise SceneValidationError(f"unknown builtin scene {name!r}; expected one of {sorted(_BUILTINS)}")
    return scene_from_dict(_BUILTINS[name]())
