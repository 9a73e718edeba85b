"""On-disk dataset container, splits, normalization stats, run configuration.

A dataset is a directory of five files:

    manifest.json   schema version, shapes (S, c, n, T), dtype, byte order,
                    creation seed, noise level, optional forward-model file
                    reference, content-derived dataset_id
    images.bin      little-endian float32, row-major, shape (S, c, 64, 64)
    responses.bin   little-endian float32, row-major, shape (S, T, n)
    splits.json     disjoint train/test stimulus-index lists
    stats.json      per-neuron mean/std over the train split (all trials)

Blob lengths are validated against the manifest before any array is read.
All files are written to a temporary name and renamed into place, so readers
never observe a partial write. Responses are stored raw; z-scoring happens
in memory using the train-split statistics (population convention, std
floored at 1e-6 so silent neurons cannot blow up the division).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from crossalign.errors import DataError

SCHEMA_VERSION = 1
IMAGE_SIZE = 64
STD_FLOOR = 1e-6
DEFAULT_TEST_FRACTION = 0.2

_FILES = ("manifest.json", "images.bin", "responses.bin", "splits.json", "stats.json")


@dataclass
class RunConfig:
    """Training/evaluation knobs with their standard defaults."""

    method: str = "vna"
    d: int = 64
    batch_size: int = 256
    k: int = 400
    lr: float = 0.01
    epochs: int = 100
    seed: int = 0
    dataset: str = ""
    dtype: str = "float64"
    temperature: Optional[float] = None

    def validate(self) -> "RunConfig":
        if any(type(v) is not int for v in (self.d, self.batch_size, self.k, self.epochs, self.seed)):
            raise ValueError("d, batch size, K, epochs and seed must be integers")
        if self.method not in ("vna", "direct-encode", "direct-decode"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.d < 1 or self.batch_size < 1 or self.k < 2:
            raise ValueError("d and batch size must be >= 1, K >= 2")
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.temperature is not None and self.temperature <= 0:
            raise ValueError("temperature, when set, must be positive")
        return self

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "d": self.d,
            "batch_size": self.batch_size,
            "k": self.k,
            "lr": self.lr,
            "epochs": self.epochs,
            "seed": self.seed,
            "dataset": self.dataset,
            "dtype": self.dtype,
            "temperature": self.temperature,
        }

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        return RunConfig(**d).validate()


@dataclass
class DatasetContainer:
    """In-memory form of one dataset directory."""

    images: np.ndarray  # (S, c, 64, 64) float32
    responses: np.ndarray  # (S, T, n) float32
    train_ids: list[int]
    test_ids: list[int]
    stats_mean: np.ndarray  # (n,) float64
    stats_std: np.ndarray  # (n,) float64, floored
    manifest: dict = field(default_factory=dict)

    @property
    def S(self) -> int:
        return self.images.shape[0]

    @property
    def channels(self) -> int:
        return self.images.shape[1]

    @property
    def trials(self) -> int:
        return self.responses.shape[1]

    @property
    def neurons(self) -> int:
        return self.responses.shape[2]

    @property
    def dataset_id(self) -> str:
        return self.manifest.get("dataset_id", "unknown")

    def zscored_responses(self) -> np.ndarray:
        """Responses normalized per neuron with train-split stats, float64."""
        return zscore(self.responses, self.stats_mean, self.stats_std)


def images_nbytes(s: int, c: int) -> int:
    return 4 * s * c * IMAGE_SIZE * IMAGE_SIZE

def responses_nbytes(s: int, t: int, n: int) -> int:
    return 4 * s * t * n


def split_dataset(s: int, test_fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """Seeded permutation split: floor(S * fraction) test items, rest train."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test fraction must be in (0, 1), got {test_fraction}")
    n_test = int(math.floor(s * test_fraction))
    if n_test < 2:
        raise ValueError(
            f"split of S={s} at fraction {test_fraction} yields {n_test} test items; need >= 2"
        )
    if n_test >= s:
        raise ValueError("train split would be empty")
    perm = np.random.default_rng(np.random.SeedSequence([seed, 11])).permutation(s)
    test = sorted(int(i) for i in perm[:n_test])
    train = sorted(int(i) for i in perm[n_test:])
    return train, test


def compute_stats(responses: np.ndarray, train_ids) -> tuple[np.ndarray, np.ndarray]:
    """Per-neuron mean/std over the train split, all trials pooled.

    Population convention (divide by the count). Std floored at 1e-6.
    """
    if len(train_ids) == 0:
        raise ValueError("train split is empty")
    flat = np.asarray(responses, dtype=np.float64)[list(train_ids)].reshape(-1, responses.shape[-1])
    mean = flat.mean(axis=0)
    std = np.maximum(flat.std(axis=0), STD_FLOOR)
    return mean, std


def zscore(responses: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (np.asarray(responses, dtype=np.float64) - mean) / std


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _atomic_write_json(path: str, obj) -> None:
    _atomic_write_bytes(path, json.dumps(obj, indent=2, sort_keys=True).encode() + b"\n")


def _le32(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def dataset_fingerprint(images_le: bytes, responses_le: bytes, core: dict) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(core, sort_keys=True).encode())
    h.update(images_le)
    h.update(responses_le)
    return h.hexdigest()[:16]


def write_dataset(container: DatasetContainer, out_dir: str) -> str:
    """Write all five files atomically; returns the dataset_id."""
    img = np.asarray(container.images)
    rsp = np.asarray(container.responses)
    if img.ndim != 4 or img.shape[2:] != (IMAGE_SIZE, IMAGE_SIZE):
        raise DataError(f"images must be (S, c, {IMAGE_SIZE}, {IMAGE_SIZE}), got {img.shape}")
    if rsp.ndim != 3 or rsp.shape[0] != img.shape[0]:
        raise DataError(f"responses must be (S, T, n) with S={img.shape[0]}, got {rsp.shape}")
    if not np.isfinite(img).all():
        raise DataError("images contain non-finite values")
    if not np.isfinite(rsp).all():
        raise DataError("responses contain non-finite values")

    os.makedirs(out_dir, exist_ok=True)
    s, c = img.shape[0], img.shape[1]
    t, n = rsp.shape[1], rsp.shape[2]
    images_le = _le32(img)
    responses_le = _le32(rsp)

    manifest = dict(container.manifest)
    core = {
        "schema_version": SCHEMA_VERSION,
        "S": s, "c": c, "n": n, "T": t,
        "dtype": "float32",
        "byte_order": "little",
        "seed": manifest.get("seed", 0),
        "noise": manifest.get("noise", 0.0),
        "forward_model": manifest.get("forward_model"),
    }
    manifest.update(core)
    manifest["dataset_id"] = dataset_fingerprint(images_le, responses_le, core)

    _atomic_write_bytes(os.path.join(out_dir, "images.bin"), images_le)
    _atomic_write_bytes(os.path.join(out_dir, "responses.bin"), responses_le)
    _atomic_write_json(os.path.join(out_dir, "splits.json"), {
        "train": list(map(int, container.train_ids)),
        "test": list(map(int, container.test_ids)),
    })
    _atomic_write_json(os.path.join(out_dir, "stats.json"), {
        "mean": [float(v) for v in container.stats_mean],
        "std": [float(v) for v in container.stats_std],
        "convention": "population",
        "std_floor": STD_FLOOR,
    })
    _atomic_write_json(os.path.join(out_dir, "manifest.json"), manifest)
    container.manifest = manifest
    return manifest["dataset_id"]


def _load_json(path: str):
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"missing dataset file: {path}")
    except json.JSONDecodeError as e:
        raise DataError(f"unparseable JSON in {path}: {e}")


def _read_blob(path: str, expected_bytes: int, shape: tuple, name: str) -> np.ndarray:
    try:
        actual = os.path.getsize(path)
    except FileNotFoundError:
        raise DataError(f"missing dataset file: {path}")
    if actual != expected_bytes:
        raise DataError(
            f"{name}: expected {expected_bytes} bytes for shape {shape}, found {actual}"
        )
    arr = np.fromfile(path, dtype="<f4").reshape(shape)
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr.reshape(-1)))[0])
        raise DataError(f"{name}: non-finite value at flat index {bad}")
    return arr


def _json_size(value, what: str) -> int:
    """A JSON integer >= 0 (a size or an index); anything else is a DataError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{what}: expected an integer, got {value!r}")
    if value < 0:
        raise DataError(f"{what}: must be >= 0, got {value}")
    return value


def read_dataset(path: str) -> DatasetContainer:
    """Load a dataset directory, validating sizes before touching array data."""
    manifest = _load_json(os.path.join(path, "manifest.json"))
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(f"unsupported dataset schema version {version!r}, expected {SCHEMA_VERSION}")
    if manifest.get("byte_order") != "little":
        raise DataError(f"unsupported byte order {manifest.get('byte_order')!r}")
    try:
        s, c, n, t = (_json_size(manifest[k], f"manifest.json: {k}") for k in ("S", "c", "n", "T"))
    except KeyError as e:
        raise DataError(f"manifest missing field {e}")
    neuron_ids = manifest.get("neuron_ids")
    if neuron_ids is not None:
        if not isinstance(neuron_ids, list) or len(neuron_ids) != n:
            raise DataError(f"manifest.json: neuron_ids must be a list of n={n} ids")
        ids = [_json_size(i, "manifest.json: neuron id") for i in neuron_ids]
        if len(set(ids)) != n:
            raise DataError("manifest.json: neuron_ids repeat an id")
    splits = _load_json(os.path.join(path, "splits.json"))
    train_ids, test_ids = (
        [_json_size(i, f"splits.json: {name} id") for i in splits.get(name, [])]
        for name in ("train", "test")
    )

    images = _read_blob(
        os.path.join(path, "images.bin"), images_nbytes(s, c), (s, c, IMAGE_SIZE, IMAGE_SIZE),
        "images.bin",
    )
    responses = _read_blob(
        os.path.join(path, "responses.bin"), responses_nbytes(s, t, n), (s, t, n),
        "responses.bin",
    )
    if set(train_ids) & set(test_ids):
        raise DataError("splits.json: train and test overlap")
    if any(i >= s for i in train_ids + test_ids):
        raise DataError(f"splits.json: index out of range for S={s}")

    stats = _load_json(os.path.join(path, "stats.json"))
    mean = np.asarray(stats.get("mean", []), dtype=np.float64)
    std = np.asarray(stats.get("std", []), dtype=np.float64)
    if mean.shape != (n,) or std.shape != (n,):
        raise DataError(f"stats.json: expected {n} per-neuron entries, got {mean.shape} / {std.shape}")
    if np.any(std <= 0):
        raise DataError("stats.json: non-positive std entry")

    return DatasetContainer(
        images=images, responses=responses,
        train_ids=train_ids, test_ids=test_ids,
        stats_mean=mean, stats_std=std, manifest=manifest,
    )
