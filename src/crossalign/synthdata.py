"""Synthetic stimulus/response generation with a known forward model.

Stimuli are 64x64 superpositions of 3 to 6 oriented Gabor patches over a
smooth low-frequency background, clipped to [0, 1]. Responses come from a
fixed random feature map phi(M) = tanh(P . (downsample_4x4(M) - 0.5)) into 64
features, per-neuron tuning r = softplus(W phi + b), and per-trial noise

    observation = max(0, r + sigma * rbar * eps),  eps ~ N(0, 1)

with rbar the per-neuron mean clean rate over the stimulus set. sigma = 0
reproduces the clean rates on every trial; sigma = inf switches to a
stimulus-independent null mode (observation = max(0, rbar + rbar * eps)) so
responses carry no stimulus information at all.

Everything derives from integer seeds through named SeedSequence streams, one
stream per stimulus, so parallel and serial generation agree bit for bit.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from crossalign.dataio import (
    DEFAULT_TEST_FRACTION,
    DatasetContainer,
    _atomic_write_json,
    compute_stats,
    split_dataset,
)
from crossalign.errors import DataError

IMAGE_SIZE = 64
FEATURE_DIM = 64
POOLED_SIZE = 16

# SeedSequence stream tags; distinct per use so streams never collide
_TAG_MODEL = 13
_TAG_STIMULI = 17
_TAG_TRIALS = 23
_TAG_SUBSAMPLE = 29

FORWARD_MODEL_FILE = "forward_model.json"


@dataclass
class SyntheticDatasetSpec:
    stimuli: int
    channels: int
    neurons: int
    trials: int
    noise: float
    seed: int

    def validate(self) -> "SyntheticDatasetSpec":
        if self.stimuli < 2:
            raise ValueError(f"need at least 2 stimuli, got {self.stimuli}")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.neurons < 1:
            raise ValueError(f"neurons must be >= 1, got {self.neurons}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if math.isnan(self.noise) or self.noise < 0:
            raise ValueError(f"noise level must be >= 0 (inf allowed), got {self.noise}")
        return self


@dataclass
class StimulusSet:
    images: np.ndarray  # (S, c, 64, 64) float64 in [0, 1]
    seed: int


@dataclass
class ResponseSet:
    values: np.ndarray  # (S, T, n) float64, >= 0
    noise: float
    seed: int
    neuron_ids: Optional[list[int]] = None  # set when subsampled from a larger population


@dataclass
class ForwardModel:
    """Ground-truth stimulus-to-rate map; fully determined by (seed, n, c)."""

    proj: np.ndarray  # (64, 256 * c)
    tuning: np.ndarray  # (n, 64)
    baseline: np.ndarray  # (n,), positive
    noise: float
    seed: int
    channels: int
    neurons: int

    def features(self, images: np.ndarray) -> np.ndarray:
        """phi: (B, c, 64, 64) -> (B, 64), values in (-1, 1)."""
        x = np.asarray(images, dtype=np.float64)
        single = x.ndim == 3
        if single:
            x = x[None]
        b, c, h, w = x.shape
        if c != self.channels or h != IMAGE_SIZE or w != IMAGE_SIZE:
            raise ValueError(
                f"forward model expects (B, {self.channels}, {IMAGE_SIZE}, {IMAGE_SIZE}), got {x.shape}"
            )
        k = IMAGE_SIZE // POOLED_SIZE
        pooled = x.reshape(b, c, POOLED_SIZE, k, POOLED_SIZE, k).mean(axis=(3, 5))
        flat = pooled.reshape(b, -1) - 0.5
        out = np.tanh(flat @ self.proj.T)
        return out[0] if single else out

    def clean_rates(self, images: np.ndarray) -> np.ndarray:
        """softplus(W phi + b): (B, c, 64, 64) -> (B, n), strictly positive."""
        phi = self.features(images)
        pre = phi @ self.tuning.T + self.baseline
        return np.logaddexp(0.0, pre)


def make_forward_model(seed: int, n: int, c: int, noise: float) -> ForwardModel:
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_MODEL]))
    in_dim = POOLED_SIZE * POOLED_SIZE * c
    # scale chosen so tanh pre-activations have std near 1.2: pooled-centered
    # pixels have variance about 1/12
    proj_scale = 1.2 / math.sqrt(in_dim / 12.0)
    proj = rng.normal(0.0, proj_scale, (FEATURE_DIM, in_dim))
    # tanh(N(0, 1.2^2)) has second moment near 0.45; aim for pre-softplus std 1.5
    tuning_scale = 1.5 / math.sqrt(FEATURE_DIM * 0.45)
    tuning = rng.normal(0.0, tuning_scale, (n, FEATURE_DIM))
    baseline = rng.uniform(0.5, 2.0, n)
    return ForwardModel(
        proj=proj, tuning=tuning, baseline=baseline,
        noise=noise, seed=seed, channels=c, neurons=n,
    )


def _gabor(yy: np.ndarray, xx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    cy, cx = rng.uniform(8, 56, 2)
    theta = rng.uniform(0, np.pi)
    wavelength = rng.uniform(6, 20)
    envelope = rng.uniform(4, 12)
    phase = rng.uniform(0, 2 * np.pi)
    amp = rng.uniform(0.2, 0.5) * rng.choice([-1.0, 1.0])
    y, x = yy - cy, xx - cx
    xr = x * np.cos(theta) + y * np.sin(theta)
    yr = -x * np.sin(theta) + y * np.cos(theta)
    gauss = np.exp(-(xr**2 + yr**2) / (2 * envelope**2))
    return amp * gauss * np.cos(2 * np.pi * xr / wavelength + phase)


def _background(yy: np.ndarray, xx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    field_sum = np.full(yy.shape, 0.5)
    for _ in range(2):
        fy, fx = rng.uniform(0.5, 1.5, 2) / IMAGE_SIZE
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.05, 0.15)
        field_sum += amp * np.cos(2 * np.pi * (fy * yy + fx * xx) + phase)
    return field_sum


def gen_stimuli(s: int, c: int, seed: int) -> StimulusSet:
    """S seeded Gabor-patch images, each from its own derived stream."""
    if s < 1:
        raise ValueError(f"need at least 1 stimulus, got {s}")
    yy, xx = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE].astype(np.float64)
    images = np.empty((s, c, IMAGE_SIZE, IMAGE_SIZE))
    for i in range(s):
        rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_STIMULI, i]))
        patches = [_gabor(yy, xx, rng) for _ in range(int(rng.integers(3, 7)))]
        for ch in range(c):
            img = _background(yy, xx, rng)
            for patch in patches:
                img = img + patch * rng.uniform(0.5, 1.0)
            images[i, ch] = np.clip(img, 0.0, 1.0)
    return StimulusSet(images=images, seed=seed)


def gen_responses(stimuli: StimulusSet, model: ForwardModel, t: int) -> ResponseSet:
    """T noisy trials per stimulus under the model's noise level."""
    if t < 1:
        raise ValueError(f"need at least 1 trial, got {t}")
    clean = model.clean_rates(stimuli.images)  # (S, n)
    s, n = clean.shape
    rbar = clean.mean(axis=0)  # per-neuron mean clean rate over the set
    # the null mode must not see the stimuli at all, so its scale comes from
    # the model's baseline rates rather than from rbar
    null_rate = np.logaddexp(0.0, model.baseline)
    sigma = model.noise
    values = np.empty((s, t, n))
    for i in range(s):
        rng = np.random.default_rng(np.random.SeedSequence([model.seed, _TAG_TRIALS, i]))
        if math.isinf(sigma):
            eps = rng.standard_normal((t, n))
            values[i] = np.maximum(0.0, null_rate + null_rate * eps)
        elif sigma == 0.0:
            values[i] = clean[i]
        else:
            eps = rng.standard_normal((t, n))
            values[i] = np.maximum(0.0, clean[i] + sigma * rbar * eps)
    return ResponseSet(values=values, noise=sigma, seed=model.seed)


def subsample_neurons(responses: ResponseSet, m: int, seed: int) -> ResponseSet:
    """Keep a uniform without-replacement subset of m neurons, order preserved."""
    n = responses.values.shape[2]
    if not (1 <= m <= n):
        raise ValueError(f"subsample size must be in [1, {n}], got {m}")
    if m == n:
        return ResponseSet(
            values=responses.values, noise=responses.noise, seed=responses.seed,
            neuron_ids=responses.neuron_ids,
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_SUBSAMPLE]))
    ids = np.sort(rng.choice(n, size=m, replace=False))
    base = responses.neuron_ids
    kept = [int(i) for i in ids] if base is None else [int(base[i]) for i in ids]
    return ResponseSet(
        values=responses.values[:, :, ids], noise=responses.noise,
        seed=responses.seed, neuron_ids=kept,
    )


# -- container orchestration + forward-model serialization --------------------


def generate_dataset(
    spec: SyntheticDatasetSpec,
    test_fraction: float = DEFAULT_TEST_FRACTION,
    subsample: Optional[int] = None,
) -> tuple[DatasetContainer, ForwardModel]:
    """Full pipeline: stimuli, model, trials, split, stats. Nothing written."""
    spec.validate()
    stim = gen_stimuli(spec.stimuli, spec.channels, spec.seed)
    model = make_forward_model(spec.seed, spec.neurons, spec.channels, spec.noise)
    resp = gen_responses(stim, model, spec.trials)
    if subsample is not None:
        resp = subsample_neurons(resp, subsample, spec.seed)
    train_ids, test_ids = split_dataset(spec.stimuli, test_fraction, spec.seed)

    # stats are computed on the stored float32 representation so training on
    # a freshly generated container matches training on a reloaded one
    images32 = stim.images.astype("<f4")
    responses32 = resp.values.astype("<f4")
    mean, std = compute_stats(responses32, train_ids)

    manifest = {
        "seed": spec.seed,
        "noise": spec.noise if math.isfinite(spec.noise) else "inf",
        "forward_model": FORWARD_MODEL_FILE,
        "generator": "synthetic-gabor-v1",
        "neuron_ids": resp.neuron_ids,
        "test_fraction": test_fraction,
    }
    container = DatasetContainer(
        images=images32, responses=responses32,
        train_ids=train_ids, test_ids=test_ids,
        stats_mean=mean, stats_std=std, manifest=manifest,
    )
    return container, model


def _b64(arr: np.ndarray) -> dict:
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode(),
    }


def _from_b64(obj: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(obj["data"]), dtype="<f8").reshape(obj["shape"]).copy()


def save_forward_model(model: ForwardModel, path: str) -> None:
    doc = {
        "schema_version": 1,
        "seed": model.seed,
        "channels": model.channels,
        "neurons": model.neurons,
        "noise": model.noise if math.isfinite(model.noise) else "inf",
        "proj": _b64(model.proj),
        "tuning": _b64(model.tuning),
        "baseline": _b64(model.baseline),
    }
    _atomic_write_json(path, doc)


def load_forward_model(path: str) -> ForwardModel:
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"missing forward model file: {path}")
    except json.JSONDecodeError as e:
        raise DataError(f"unparseable forward model JSON: {e}")
    if not isinstance(doc, dict):
        raise DataError(f"{path}: forward model is not a JSON object")
    if doc.get("schema_version") != 1:
        raise DataError(f"unsupported forward model schema version {doc.get('schema_version')!r}")
    try:
        noise = doc["noise"]
        model = ForwardModel(
            proj=_from_b64(doc["proj"]),
            tuning=_from_b64(doc["tuning"]),
            baseline=_from_b64(doc["baseline"]),
            noise=float("inf") if noise == "inf" else float(noise),
            seed=int(doc["seed"]),
            channels=int(doc["channels"]),
            neurons=int(doc["neurons"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed forward model: {e!r}")
    shapes = (model.proj.shape, model.tuning.shape, model.baseline.shape)
    n, width = model.neurons, POOLED_SIZE * POOLED_SIZE * model.channels
    if shapes != ((FEATURE_DIM, width), (n, FEATURE_DIM), (n,)):
        raise DataError(f"{path}: forward model array shapes {shapes} do not fit c={model.channels}, n={n}")
    return model
