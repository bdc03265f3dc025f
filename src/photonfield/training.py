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
Each step's gradients land in buffers allocated once per run, and the Adam
step runs in C (``_field.c``'s ``pf_adam_step``), one call per step that
updates the parameters in place. It evaluates every operation in the order
the numpy optimizer it replaced did (``tests/oracles.py``), so training
stays bit-reproducible and gives that optimizer's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, integrators, scene as scene_mod
from .field import GRADIENT_WIDTHS, SCALE_MAX, SCALE_MIN, GaussianField, gradient_buffers, read_records, writable, write_records
from .geometry import AdamTable, load_kernels
from .integrators import SppmConfig, SurfacePoints, trace_to_first_diffuse
from .spatial import gather_rows

_TAG_DATASET = 0xD5
_TAG_BATCH = 0xB7
_MAGIC = b"GPD1"


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

    def save(self, path) -> None:
        payload = np.empty((len(self), 9), dtype="<f4")
        payload[:, 0:3] = self.position
        payload[:, 3:6] = self.wo
        payload[:, 6:9] = self.l_ref
        write_records(path, _MAGIC, payload)

    @classmethod
    def load(cls, path) -> "SampleSet":
        data = read_records(path, _MAGIC, 9, "dataset file")
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


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked on construction and frozen, so the compiled Adam step may rely on them."""

    learning_rate: float = 5e-4
    steps: int = 10_000
    batch_size: int = 1024
    rebuild_every: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        bounds = dict.fromkeys(("steps", "batch_size", "rebuild_every", "learning_rate", "adam_eps"), math.inf)
        for name, hi in {**bounds, "beta1": 1.0, "beta2": 1.0}.items():
            if not 0 < getattr(self, name) < hi:
                raise ValueError(f"{name} must lie in (0, {hi}), got {getattr(self, name)}")


@dataclass
class TrainLog:
    losses: np.ndarray  # per-step minibatch loss
    final_full_loss: float = float("nan")
    initial_full_loss: float = float("nan")


class _Adam:
    """Adam on a field's four parameter blocks: one ``pf_adam_step``
    (``_field.c``) per step updates the field's arrays in place from the
    gradients in ``grads``, which the caller refills before each step, and
    keeps the moments in arrays allocated here once."""

    def __init__(self, field: GaussianField, grads: dict, cfg: TrainConfig):
        n = len(field)
        self.m, self.v = (np.zeros(n * sum(GRADIENT_WIDTHS.values())) for _ in range(2))
        self.beta1, self.beta2, self.t = cfg.beta1, cfg.beta2, 0
        arrays = {}
        for name, key in (("means", "mean"), ("quats", "quat"), ("log_scales", "log_scale"), ("flux", "flux")):
            shape = (n, GRADIENT_WIDTHS[key])
            arrays[name] = writable(getattr(field, name), shape, f"field {name}")
            arrays[f"g_{key}"] = writable(grads.get(key), shape, f"gradient {key!r}")
        self.table = AdamTable(
            n=n, m=self.m, v=self.v, lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps,
            log_scale_min=np.log(SCALE_MIN), log_scale_max=np.log(SCALE_MAX), **arrays,
        )

    def step(self):
        self.t += 1
        load_kernels().pf_adam_step(self.table, 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t)


def _mean_squared_error(dataset: SampleSet, predict, chunk: int = 8192) -> float:
    """Mean squared radiance error over the dataset, summed chunk by chunk;
    ``predict(lo, hi)`` gives the field radiance at samples ``lo:hi``."""
    total = 0.0
    n = len(dataset)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        resid = predict(lo, hi) - dataset.l_ref[lo:hi]
        total += float(np.sum(resid * resid))
    return total / n


def dataset_loss(field: GaussianField, dataset: SampleSet, chunk: int = 8192) -> float:
    """Mean squared radiance error of the field over the whole dataset."""
    field.ensure_index()
    return _mean_squared_error(dataset, lambda lo, hi: field.query_batch(dataset.position[lo:hi]), chunk)


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
    grads = gradient_buffers(len(field))
    opt = _Adam(field, grads, cfg)
    batch_key = core.fold_key(core.seed_key(cfg.seed), _TAG_BATCH)
    field.rebuild_index()
    # every sample against the first index: the initial loss, and the rows
    # the first period's steps slice from
    all_flat, all_splits = field._neighbors(dataset.position)

    def predict_initial(lo, hi):
        flat, splits = gather_rows(all_flat, all_splits, np.arange(lo, hi))
        return field._forward(dataset.position[lo:hi], flat, splits)[0]

    initial_full = _mean_squared_error(dataset, predict_initial)
    for step in range(cfg.steps):
        if step % cfg.rebuild_every == 0:
            period = range(step, min(step + cfg.rebuild_every, cfg.steps))
            draws = [core.draw_unit(core.fold_key(batch_key, t), np.arange(cfg.batch_size, dtype=np.uint64)) for t in period]
            batches = np.minimum((np.stack(draws) * n).astype(np.intp), n - 1)
            uniq, rows = np.unique(batches, return_inverse=True)
            rows = rows.reshape(batches.shape)
            if step == 0:
                nb_flat, nb_splits = gather_rows(all_flat, all_splits, uniq)
            else:
                field.rebuild_index()
                nb_flat, nb_splits = field._neighbors(dataset.position[uniq])
        i = step % cfg.rebuild_every
        idx = batches[i]
        xs = dataset.position[idx]
        flat, splits = gather_rows(nb_flat, nb_splits, rows[i])
        fwd = field._forward(xs, flat, splits)
        pred = fwd[0]
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
        field.backward_scatter(xs, dl, flat, splits, fwd, out=grads)
        opt.step()
        field.mark_updated()
    field.rebuild_index()
    return TrainLog(losses=losses, final_full_loss=dataset_loss(field, dataset), initial_full_loss=initial_full)
