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
CHECKPOINT_VERSION = 1
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

    examples = [(s, t) for s in dataset.train_ids for t in range(dataset.trials)]
    batch_size = config.batch_size
    if method == "vna" and batch_size > len(examples):
        warnings.warn(
            f"batch size {batch_size} exceeds {len(examples)} train examples; clamping",
            stacklevel=2,
        )
        batch_size = len(examples)

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
            order = epoch_permutation(config.seed, epoch, len(examples))
            epoch_losses = []
            for lo in range(0, len(order), batch_size):
                idx = order[lo : lo + batch_size]
                if method == "vna" and len(idx) < batch_size:
                    break  # contrastive loss quality depends on N; drop short tail
                if len(idx) < 2:
                    continue  # batch norm cannot normalize a single example
                stim_ids = [examples[i][0] for i in idx]
                rows = [(examples[i][0], examples[i][1]) for i in idx]
                images = Tensor(images_all[stim_ids])
                spikes = Tensor(np.stack([spikes_all[s, t] for s, t in rows]))
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
    """Rebuild a TrainResult from disk; optionally enforce the method tag."""
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
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: corrupt checkpoint metadata: {e}")
    if not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint metadata is not a JSON object")
    if meta.get("schema_version") != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint version {meta.get('schema_version')!r}"
        )
    _require(path, meta, "metadata", ("method", "config", "arrays", "adam", "history"))
    adam_meta = _require(path, meta["adam"], "adam", ("lr", "beta1", "beta2", "eps", "t"))
    hist_meta = _require(path, meta["history"], "history", ("losses", "steps", "seed"))
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

    loaded: dict[str, np.ndarray] = {}
    offset = 16 + meta_len
    for spec in meta["arrays"]:
        _require(path, spec, "array entry", ("name", "shape", "dtype"))
        try:
            dt = np.dtype(spec["dtype"])
            count = int(np.prod(spec["shape"])) if spec["shape"] else 1
        except TypeError:
            raise DataError(f"{path}: array {spec['name']} has a bad dtype or shape")
        nbytes = dt.itemsize * count
        if offset + nbytes > len(raw):
            raise DataError(
                f"{path}: truncated checkpoint: array {spec['name']} needs {nbytes} bytes"
            )
        arr = np.frombuffer(raw, dtype=dt, count=count, offset=offset).reshape(spec["shape"])
        loaded[spec["name"]] = arr.astype(dt.newbyteorder("="), copy=True)
        offset += nbytes
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes after declared arrays")

    # rebuild the parameter skeleton at the checkpoint's dtype, then fill it
    arch_c = _infer_channels(method, loaded)
    arch_n = _infer_neurons(method, loaded)
    with T.default_dtype(np_dtype):
        params = _init_model(config, arch_c, arch_n)
    named = params.named_parameters()
    for name, p in named.items():
        key = f"param:{name}"
        if key not in loaded:
            raise DataError(f"{path}: checkpoint missing array {key}")
        if tuple(loaded[key].shape) != p.shape:
            raise DataError(
                f"{path}: array {key} has shape {loaded[key].shape}, expected {p.shape}"
            )
        p.data = loaded[key]
    for name, buf in params.named_buffers().items():
        key = f"buffer:{name}"
        if key not in loaded:
            raise DataError(f"{path}: checkpoint missing array {key}")
        buf[:] = loaded[key]

    adam = AdamState(
        lr=adam_meta["lr"], beta1=adam_meta["beta1"], beta2=adam_meta["beta2"],
        eps=adam_meta["eps"], t=adam_meta["t"],
        m={k[len("adam_m:"):]: v for k, v in loaded.items() if k.startswith("adam_m:")},
        v={k[len("adam_v:"):]: v for k, v in loaded.items() if k.startswith("adam_v:")},
    )
    history = TrainHistory(
        losses=list(hist_meta["losses"]), steps=hist_meta["steps"],
        wall_clock=0.0, seed=hist_meta["seed"],
        method=method, config=meta["config"],
    )
    return TrainResult(params=params, adam=adam, history=history)


def _require(path: str, obj, where: str, keys: tuple) -> dict:
    """``obj`` as a header object holding ``keys``, else a DataError."""
    if not isinstance(obj, dict):
        raise DataError(f"{path}: checkpoint {where} is not a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise DataError(f"{path}: checkpoint {where} lacks {', '.join(missing)}")
    return obj


def _infer_channels(method: str, loaded: dict) -> int:
    if method in ("vna", "direct-encode"):
        prefix = "param:visual.conv1.weight" if method == "vna" else "param:conv1.weight"
        return loaded[prefix].shape[1]
    return loaded["param:final.weight"].shape[1]


def _infer_neurons(method: str, loaded: dict) -> int:
    if method == "vna":
        return loaded["param:spike.hidden.weight"].shape[1]
    if method == "direct-encode":
        return loaded["param:proj.weight"].shape[0]
    return loaded["param:hidden.weight"].shape[1]
