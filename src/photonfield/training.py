"""Supervision dataset construction and field optimization.

Supervision points are the first diffuse hits of camera rays traced
through delta-only prefixes; each records its position, the outgoing
direction back along the arriving segment, and a photon-mapped reference
radiance. The reference is local outgoing radiance at the point: the
prefix throughput is deliberately excluded (it gets re-applied by the
camera pass at render time), so one field serves every view.

Training minimizes the mean squared radiance error over minibatches with
Adam. Quaternions take the ambient step and are renormalized; log-scales
are clamped; flux is unconstrained (it may transiently go negative; the
renderer clamps final pixels instead, which keeps the optimizer unbiased).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import core, integrators, scene as scene_mod
from .field import SCALE_MAX, SCALE_MIN, GaussianField
from .integrators import SppmConfig, SurfacePoints, trace_to_first_diffuse

_TAG_DATASET = 0xD5
_TAG_BATCH = 0xB7
_MAGIC = b"GPD1"


@dataclass(frozen=True)
class TrainingSample:
    """One supervision record: surface point, view direction, reference."""

    position: np.ndarray
    wo: np.ndarray
    l_ref: np.ndarray


class SampleSet:
    """Struct-of-arrays supervision dataset.

    ``position``/``wo``/``l_ref`` are the serialized payload; the
    provenance arrays (camera/pixel/sample indices, delta-bounce counts,
    prefix throughput, surface frame) are kept for diagnostics and the
    render-consistency checks but are not part of the file format.
    """

    def __init__(self, position, wo, l_ref, **extras):
        self.position = np.asarray(position, dtype=np.float64).reshape(-1, 3)
        self.wo = np.asarray(wo, dtype=np.float64).reshape(-1, 3)
        self.l_ref = np.asarray(l_ref, dtype=np.float64).reshape(-1, 3)
        self.extras = {k: np.asarray(v) for k, v in extras.items()}

    def __len__(self) -> int:
        return len(self.position)

    def __getitem__(self, i: int) -> TrainingSample:
        return TrainingSample(self.position[i], self.wo[i], self.l_ref[i])

    def save(self, path) -> None:
        n = len(self)
        payload = np.empty((n, 9), dtype="<f4")
        payload[:, 0:3] = self.position
        payload[:, 3:6] = self.wo
        payload[:, 6:9] = self.l_ref
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", n))
            fh.write(payload.tobytes())

    @classmethod
    def load(cls, path) -> "SampleSet":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise ValueError(f"not a dataset file: bad magic {magic!r}")
            (n,) = struct.unpack("<I", fh.read(4))
            data = np.frombuffer(fh.read(n * 9 * 4), dtype="<f4")
        if data.size != n * 9:
            raise ValueError("truncated dataset file")
        data = data.reshape(n, 9).astype(np.float64)
        return cls(data[:, 0:3], data[:, 3:6], data[:, 6:9])


def camera_seed(seed: int, cam_index: int) -> int:
    """Per-view seed used by dataset tracing; rendering the same view with
    this seed reproduces the dataset's camera paths exactly."""
    return int(core.fold_key(core.fold_key(core.seed_key(seed), _TAG_DATASET), cam_index))


def build_dataset(
    scene: scene_mod.Scene,
    cameras,
    sppm_cfg: SppmConfig,
    samples_per_pixel: int = 1,
    threads: int = 1,
) -> SampleSet:
    """Collect first-diffuse supervision points for the given views.

    Rays that escape or end on an emitter yield no sample. The reference
    radiance at the collected points is photon-mapped with ``sppm_cfg``
    (local outgoing radiance; prefix throughput excluded).
    """
    pos, wo, nrm, alb, beta = [], [], [], [], []
    cam_idx, pix_idx, samp_idx, n_delta = [], [], [], []
    for ci, camera in enumerate(cameras):
        seed = camera_seed(sppm_cfg.seed, ci)
        for s in range(samples_per_pixel):
            pixel_ids, keys, ctrs, o, d = integrators._camera_rays(camera, seed, s)
            fd = trace_to_first_diffuse(scene, o, d, keys, ctrs)
            found = fd.found
            if not np.any(found):
                continue
            pos.append(fd.position[found])
            wo.append(fd.wo[found])
            nrm.append(fd.normal[found])
            alb.append(fd.albedo[found])
            beta.append(fd.beta[found])
            cam_idx.append(np.full(int(found.sum()), ci, dtype=np.intp))
            pix_idx.append(pixel_ids[found])
            samp_idx.append(np.full(int(found.sum()), s, dtype=np.intp))
            n_delta.append(fd.n_delta[found])
    if not pos:
        raise ValueError("no diffuse surface visible")
    points = SurfacePoints(
        np.concatenate(pos), np.concatenate(wo), np.concatenate(nrm), np.concatenate(alb)
    )
    l_ref = integrators.reference_radiance_at_points(scene, points, sppm_cfg, threads=threads)
    return SampleSet(
        points.position,
        points.wo,
        l_ref,
        normal=points.normal,
        albedo=points.albedo,
        beta=np.concatenate(beta),
        cam_index=np.concatenate(cam_idx),
        pixel=np.concatenate(pix_idx),
        sample_index=np.concatenate(samp_idx),
        n_delta=np.concatenate(n_delta),
    )


# ---------------------------------------------------------------------------
# optimization


@dataclass
class TrainConfig:
    learning_rate: float = 5e-4
    steps: int = 10_000
    batch_size: int = 1024
    rebuild_every: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "steps", "batch_size", "rebuild_every", "beta1", "beta2", "adam_eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class TrainLog:
    losses: np.ndarray  # per-step minibatch loss
    final_full_loss: float = float("nan")
    initial_full_loss: float = float("nan")


class _Adam:
    def __init__(self, shape, beta1, beta2, eps):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0

    def step(self, grad, lr):
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return lr * m_hat / (np.sqrt(v_hat) + self.eps)


def dataset_loss(field: GaussianField, dataset: SampleSet, chunk: int = 8192) -> float:
    """Mean squared radiance error of the field over the whole dataset."""
    field.ensure_index()
    total = 0.0
    n = len(dataset)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        pred = field.query_batch(dataset.position[lo:hi])
        resid = pred - dataset.l_ref[lo:hi]
        total += float(np.sum(resid * resid))
    return total / n


def _gather_rows(flat, splits, rows):
    """CSR sub-batch holding rows ``rows`` of ``(flat, splits)``, in order."""
    starts = splits[rows]
    counts = splits[rows + 1] - starts
    out_splits = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(counts, out=out_splits[1:])
    pos = np.repeat(starts - out_splits[:-1], counts) + np.arange(out_splits[-1], dtype=np.intp)
    return flat[pos], out_splits


def train(field: GaussianField, dataset: SampleSet, cfg: TrainConfig) -> TrainLog:
    """Minibatch Adam on the mean squared radiance error.

    The spatial index is rebuilt every ``rebuild_every`` steps as means
    move. Neighborhoods are computed once per rebuild: the period's batches
    are drawn ahead, each distinct sample they hold is queried once, and
    each step slices its rows from that result. Batch selection, forward,
    backward, and the ordered gradient reduction are all deterministic for
    a fixed config, so training is bit-reproducible.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    n = len(dataset)
    losses = np.zeros(cfg.steps)
    opt = {
        "mean": _Adam(field.means.shape, cfg.beta1, cfg.beta2, cfg.adam_eps),
        "quat": _Adam(field.quats.shape, cfg.beta1, cfg.beta2, cfg.adam_eps),
        "log_scale": _Adam(field.log_scales.shape, cfg.beta1, cfg.beta2, cfg.adam_eps),
        "flux": _Adam(field.flux.shape, cfg.beta1, cfg.beta2, cfg.adam_eps),
    }
    batch_key = core.fold_key(core.seed_key(cfg.seed), _TAG_BATCH)
    field.rebuild_index()
    initial_full = dataset_loss(field, dataset)
    for step in range(cfg.steps):
        if step % cfg.rebuild_every == 0:
            if step > 0:
                field.rebuild_index()
            period = range(step, min(step + cfg.rebuild_every, cfg.steps))
            draws = [core.draw_unit(core.fold_key(batch_key, t), np.arange(cfg.batch_size, dtype=np.uint64)) for t in period]
            batches = np.minimum((np.stack(draws) * n).astype(np.intp), n - 1)
            uniq, rows = np.unique(batches, return_inverse=True)
            rows = rows.reshape(batches.shape)
            nb_flat, nb_splits = field._neighbors(dataset.position[uniq])
        i = step % cfg.rebuild_every
        idx = batches[i]
        xs = dataset.position[idx]
        flat, splits = _gather_rows(nb_flat, nb_splits, rows[i])
        pred, _, _ = field._forward(xs, flat, splits)
        resid = pred - dataset.l_ref[idx]
        per_sample = np.sum(resid * resid, axis=1)
        loss = float(per_sample.mean())
        if not np.isfinite(loss):
            bad = int(np.nonzero(~np.isfinite(per_sample))[0][0])
            raise RuntimeError(
                f"non-finite loss at step {step} (dataset sample {int(idx[bad])}, "
                f"position {xs[bad].tolist()})"
            )
        losses[step] = loss
        dl = (2.0 / cfg.batch_size) * resid
        grads = field.backward_scatter(xs, dl, flat, splits)
        field.means -= opt["mean"].step(grads["mean"], cfg.learning_rate)
        quat_step = opt["quat"].step(grads["quat"], cfg.learning_rate)
        field.quats -= quat_step
        # renormalize only rows the step moved: untouched primitives stay
        # bit-identical (a blanket renorm would seed spurious Adam drift)
        moved = np.any(quat_step != 0.0, axis=1)
        if np.any(moved):
            field.quats[moved] /= np.linalg.norm(field.quats[moved], axis=1, keepdims=True)
        field.log_scales -= opt["log_scale"].step(grads["log_scale"], cfg.learning_rate)
        field.flux -= opt["flux"].step(grads["flux"], cfg.learning_rate)
        np.clip(field.log_scales, np.log(SCALE_MIN), np.log(SCALE_MAX), out=field.log_scales)
        field.mark_updated()
    field.rebuild_index()
    return TrainLog(losses=losses, final_full_loss=dataset_loss(field, dataset), initial_full_loss=initial_full)
