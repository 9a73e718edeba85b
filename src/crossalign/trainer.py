"""Mini-batch Adam training for all three methods, plus checkpoints.

Each training example is one (stimulus, trial) presentation from the train
split. Epoch e shuffles the example list with a stream derived only from
(config.seed, e), so a run resumed from a checkpoint at epoch k replays the
exact batches a straight run would have seen. Batch composition rules differ
by objective: the contrastive loss is batch-size dependent, so a trailing
short batch is dropped for vna; the MSE baselines keep short batches, except
singletons, which batch norm cannot normalize in train mode.

Checkpoints are one file: an 8-byte magic, an 8-byte little-endian length,
a JSON metadata block (schema version, method, architecture, config echo,
history, Adam hyperparameters, array manifest), then the raw little-endian
array blobs in exactly the manifest-declared order. Batch-norm running
statistics and Adam moments are included, so evaluation and resumption both
reproduce bit for bit.
"""

from __future__ import annotations

import json
import os
import struct
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from crossalign import alignment
from crossalign import tensor as T
from crossalign.baselines import (
    DirectDecoderParams,
    DirectEncoderParams,
    direct_decode_predict,
    direct_encode_predict,
    init_direct_decoder,
    init_direct_encoder,
    mse_loss,
)
from crossalign.dataio import DatasetContainer, RunConfig
from crossalign.encoders import (
    BN_EPS,
    BN_MOMENTUM,
    VnaParams,
    init_params,
    spike_encode,
    visual_encode,
)
from crossalign.errors import DataError, NumericError
from crossalign.tensor import Tensor

CHECKPOINT_MAGIC = b"XALNCKPT"
CHECKPOINT_VERSION = 2
_TAG_EPOCH = 41

ModelParams = Union[VnaParams, DirectEncoderParams, DirectDecoderParams]


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, state: AdamState) -> None:
    """One Adam update over named parameters, reading each tensor's .grad.

    Bias-corrected; mutates parameter data and the state in place. A
    non-finite or missing gradient aborts naming the parameter.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise NumericError(f"parameter {name!r} has no gradient at step {state.t}")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in parameter {name!r} at step {state.t}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        else:
            v = state.v[name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        p.data -= (state.lr / bc1) * m / (np.sqrt(v / bc2) + state.eps)


@dataclass
class TrainHistory:
    losses: list  # per-epoch mean training loss
    steps: int  # optimizer steps taken in total
    wall_clock: float  # seconds for this run; log-only, never serialized into checkpoints
    seed: int
    method: str
    config: dict


@dataclass
class TrainResult:
    params: ModelParams
    adam: AdamState
    history: TrainHistory


def epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    """Example order for one epoch; depends only on (seed, epoch)."""
    return np.random.default_rng(np.random.SeedSequence([seed, _TAG_EPOCH, epoch])).permutation(n)


def _init_model(config: RunConfig, c: int, n: int) -> ModelParams:
    if config.method == "vna":
        vis, spk = init_params(config.seed, c=c, n=n, d=config.d)
        return VnaParams(visual=vis, spike=spk)
    if config.method == "direct-encode":
        return init_direct_encoder(config.seed, c=c, n=n)
    return init_direct_decoder(config.seed, c=c, n=n)


def _batch_loss(method, params, images, spikes, temperature):
    if method == "vna":
        img_emb = visual_encode(params.visual, images, "train")
        spk_emb = spike_encode(params.spike, spikes, "train")
        w = alignment.similarity_matrix(img_emb, spk_emb)
        return alignment.contrastive_loss(w, temperature=temperature)
    if method == "direct-encode":
        return mse_loss(direct_encode_predict(params, images, "train"), spikes)
    return mse_loss(direct_decode_predict(params, spikes, "train"), images)


def train(dataset: DatasetContainer, config: RunConfig, resume: Optional[TrainResult] = None) -> TrainResult:
    """Train config.method on the dataset's train split.

    With ``resume``, continues from the end of the resumed history; the
    per-epoch seed streams make this bit-identical to an uninterrupted run.
    """
    config.validate()
    if not dataset.train_ids:
        raise DataError("dataset has no train split")
    method = config.method
    np_dtype = np.float32 if config.dtype == "float32" else np.float64

    # example i is (stim[i], trial[i]), stimulus-major
    stim = np.repeat(dataset.train_ids, dataset.trials)
    trial = np.tile(np.arange(dataset.trials), len(dataset.train_ids))
    batch_size = config.batch_size
    if method == "vna" and batch_size > len(stim):
        warnings.warn(
            f"batch size {batch_size} exceeds {len(stim)} train examples; clamping",
            stacklevel=2,
        )
        batch_size = len(stim)

    images_all = np.asarray(dataset.images, dtype=np_dtype)
    spikes_all = dataset.zscored_responses().astype(np_dtype)

    with T.default_dtype(np_dtype):
        if resume is None:
            params = _init_model(config, dataset.channels, dataset.neurons)
            adam = AdamState(lr=config.lr)
            losses: list = []
            steps = 0
        else:
            if resume.history.method != method:
                raise DataError(
                    f"resume checkpoint is for {resume.history.method!r}, config wants {method!r}"
                )
            params = resume.params
            adam = resume.adam
            losses = list(resume.history.losses)
            steps = resume.history.steps
        named = params.named_parameters()

        start = time.perf_counter()
        for epoch in range(len(losses), config.epochs):
            order = epoch_permutation(config.seed, epoch, len(stim))
            epoch_losses = []
            for lo in range(0, len(order), batch_size):
                idx = order[lo : lo + batch_size]
                if method == "vna" and len(idx) < batch_size:
                    break  # contrastive loss quality depends on N; drop short tail
                if len(idx) < 2:
                    continue  # batch norm cannot normalize a single example
                images = Tensor(images_all[stim[idx]])
                spikes = Tensor(spikes_all[stim[idx], trial[idx]])
                for p in named.values():
                    p.zero_grad()
                loss = _batch_loss(method, params, images, spikes, config.temperature)
                loss.backward()
                adam_step(named, adam)
                steps += 1
                epoch_losses.append(float(loss.item()))
            losses.append(float(np.mean(epoch_losses)) if epoch_losses else float("nan"))
        elapsed = time.perf_counter() - start

    history = TrainHistory(
        losses=losses, steps=steps, wall_clock=elapsed,
        seed=config.seed, method=method, config=config.to_dict(),
    )
    return TrainResult(params=params, adam=adam, history=history)


# -- checkpoint serialization --------------------------------------------------


def _arrays_in_order(result: TrainResult) -> list[tuple[str, np.ndarray]]:
    """Deterministic (name, array) list: params, buffers, Adam moments."""
    out = []
    named = result.params.named_parameters()
    for name in sorted(named):
        out.append((f"param:{name}", named[name].data))
    buffers = result.params.named_buffers()
    for name in sorted(buffers):
        out.append((f"buffer:{name}", buffers[name]))
    for name in sorted(result.adam.m):
        out.append((f"adam_m:{name}", result.adam.m[name]))
    for name in sorted(result.adam.v):
        out.append((f"adam_v:{name}", result.adam.v[name]))
    return out


def save_checkpoint(result: TrainResult, path: str) -> None:
    """Single-file checkpoint: magic, length-prefixed JSON, raw LE blobs."""
    arrays = _arrays_in_order(result)
    config = result.history.config
    meta = {
        "schema_version": CHECKPOINT_VERSION,
        "method": result.history.method,
        "config": config,
        # wall clock is deliberately absent: identical flags must reproduce
        # identical checkpoint bytes
        "history": {
            "losses": result.history.losses,
            "steps": result.history.steps,
            "seed": result.history.seed,
        },
        "adam": {
            "lr": result.adam.lr, "beta1": result.adam.beta1,
            "beta2": result.adam.beta2, "eps": result.adam.eps, "t": result.adam.t,
        },
        "bn": {"momentum": BN_MOMENTUM, "eps": BN_EPS},
        "arch": {"channels": result.params.channels, "neurons": result.params.neurons},
        "arrays": [
            {"name": name, "shape": list(arr.shape), "dtype": arr.dtype.newbyteorder("<").str}
            for name, arr in arrays
        ],
    }
    blob = json.dumps(meta, sort_keys=True).encode()
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str, expect_method: Optional[str] = None) -> TrainResult:
    """Rebuild a TrainResult from disk; optionally enforce the method tag.

    The header's architecture and config build the model skeleton. The array
    manifest must then name exactly the arrays a save of that skeleton
    writes, each once and at the skeleton's shape, with Adam moments present
    exactly when ``adam.t > 0``.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise DataError(f"missing checkpoint file: {path}")
    if raw[:8] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    if len(raw) < 16:
        raise DataError(f"{path}: truncated checkpoint header ({len(raw)} bytes)")
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    try:
        meta = json.loads(raw[16 : 16 + meta_len])
    except ValueError as e:  # bad JSON, or bytes that are not UTF-8
        raise DataError(f"{path}: corrupt checkpoint metadata: {e}")
    if not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint metadata is not a JSON object")
    if meta.get("schema_version") != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint version {meta.get('schema_version')!r}"
            f" (this reader takes version {CHECKPOINT_VERSION})"
        )
    _require(path, meta, "metadata")
    arch = _require(path, meta["arch"], "arch")
    adam_meta = _require(path, meta["adam"], "adam")
    hist_meta = _require(path, meta["history"], "history")
    method = meta["method"]
    if expect_method is not None and method != expect_method:
        raise DataError(f"{path}: checkpoint method is {method!r}, expected {expect_method!r}")

    try:
        config = RunConfig.from_dict(meta["config"])
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: bad checkpoint config: {e}")
    if method != config.method:
        raise DataError(f"{path}: checkpoint method {method!r} differs from config {config.method!r}")

    np_dtype = np.float32 if config.dtype == "float32" else np.float64
    with T.default_dtype(np_dtype):
        params = _init_model(config, arch["channels"], arch["neurons"])
    adam = AdamState(
        lr=adam_meta["lr"], beta1=adam_meta["beta1"], beta2=adam_meta["beta2"],
        eps=adam_meta["eps"], t=adam_meta["t"],
    )
    if adam.t > 0:
        # placeholders that name the expected moments; the walk replaces each
        adam.m = {k: p.data for k, p in params.named_parameters().items()}
        adam.v = dict(adam.m)
    history = TrainHistory(
        losses=list(hist_meta["losses"]), steps=hist_meta["steps"],
        wall_clock=0.0, seed=hist_meta["seed"],
        method=method, config=meta["config"],
    )
    result = TrainResult(params=params, adam=adam, history=history)

    expected = dict(_arrays_in_order(result))
    model_dtype = "<f4" if config.dtype == "float32" else "<f8"
    offset = 16 + meta_len
    for spec in meta["arrays"]:
        _require(path, spec, "array entry")
        name, shape, dtype = spec["name"], spec["shape"], spec["dtype"]
        slot = expected.pop(name, None)
        if slot is None:
            raise DataError(f"{path}: array {name!r} is unexpected or repeated")
        moment = name.startswith(("adam_m:", "adam_v:"))
        if dtype not in (("<f4", "<f8") if moment else (model_dtype,)):
            raise DataError(f"{path}: array {name} has dtype {dtype!r}")
        if not all(type(x) is int for x in shape) or tuple(shape) != slot.shape:
            raise DataError(f"{path}: array {name} has shape {shape!r}, expected {list(slot.shape)}")
        nbytes = slot.size * np.dtype(dtype).itemsize
        if offset + nbytes > len(raw):
            raise DataError(f"{path}: truncated checkpoint: array {name} needs {nbytes} bytes")
        arr = np.frombuffer(raw, dtype=dtype, count=slot.size, offset=offset).reshape(slot.shape)
        if moment:
            # kept at the stored precision, which may be wider than the model's
            kind, key = name.split(":", 1)
            (adam.m if kind == "adam_m" else adam.v)[key] = arr.astype(arr.dtype.newbyteorder("="))
        else:
            slot[...] = arr
        offset += nbytes
    if expected:
        raise DataError(f"{path}: checkpoint missing array {min(expected)}")
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes after declared arrays")
    return result


# header schema: section -> key -> JSON kind, where float takes any JSON number
# and bool is never a number; _LEAST floors the integers that size or count
_SCHEMA = {
    "metadata": {"method": str, "config": dict, "arch": dict, "adam": dict, "history": dict, "arrays": list},
    "arch": {"channels": int, "neurons": int},
    "adam": {"lr": float, "beta1": float, "beta2": float, "eps": float, "t": int},
    "history": {"losses": list, "steps": int, "seed": int},
    "array entry": {"name": str, "shape": list, "dtype": str},
}
_LEAST = {"channels": 1, "neurons": 1, "t": 0, "steps": 0}


def _require(path: str, obj, where: str) -> dict:
    """``obj`` as a header object matching ``_SCHEMA[where]``, else a DataError."""
    if not isinstance(obj, dict):
        raise DataError(f"{path}: checkpoint {where} is not a JSON object")
    schema = _SCHEMA[where]
    missing = [k for k in schema if k not in obj]
    if missing:
        raise DataError(f"{path}: checkpoint {where} lacks {', '.join(missing)}")
    for key, kind in schema.items():
        value = obj[key]
        ok = type(value) is kind or (kind is float and type(value) is int)
        if not ok or (key in _LEAST and value < _LEAST[key]):
            raise DataError(f"{path}: checkpoint {where} has a bad {key}: {value!r:.60}")
    return obj
