"""Discriminative retrieval tasks and AUC scoring.

An encoding instance asks: given the image shown on presentation (s, t), rank
K candidate response vectors so the recorded trial (s, t) beats trials of
other stimuli. A decoding instance is the mirror image: given response
(s, t), rank K candidate images. One instance exists per test-split
(stimulus, trial) presentation; distractors are drawn uniformly without
replacement from other test items only, from a per-instance seeded stream, so
task lists are deterministic and identical across methods.

AUC for one instance is the probability, with 0.5 credit for ties, that the
true candidate outscores a random distractor:

    (#{d < true} + 0.5 * #{d == true}) / #distractors

Report-level AUCs are unweighted means over instances; the reported average
is the arithmetic mean of the encoding and decoding AUCs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from crossalign import alignment
from crossalign import tensor as T
from crossalign.baselines import (
    DirectDecoderParams,
    DirectEncoderParams,
    direct_decode_predict,
    direct_encode_predict,
)
from crossalign.dataio import DatasetContainer
from crossalign.encoders import VnaParams, spike_encode, visual_encode
from crossalign.errors import DataError
from crossalign.synthdata import ForwardModel
from crossalign.tensor import Tensor

_MODE_FLAGS = {"encoding": 0, "decoding": 1}
_CHUNK = 128


@dataclass(frozen=True)
class TaskInstance:
    """One retrieval question. Ids: images are stimulus ints, responses are
    (stimulus, trial) pairs."""

    mode: str
    query_id: object
    true_id: object
    distractor_ids: tuple
    seed_info: tuple  # (seed, mode flag, stimulus, trial)

    @property
    def label(self) -> str:
        seed, _, s, t = self.seed_info
        return f"{self.mode}/stim{s}/trial{t}/seed{seed}"

    @property
    def k(self) -> int:
        return len(self.distractor_ids) + 1


def build_tasks(dataset: DatasetContainer, mode: str, k: int, seed: int) -> list[TaskInstance]:
    """One instance per test (stimulus, trial) presentation.

    Effective K is min(K, available candidates); a clamp emits a warning.
    """
    if mode not in _MODE_FLAGS:
        raise ValueError(f"unknown task mode {mode!r}")
    if k < 2:
        raise ValueError(f"K must be >= 2, got {k}")
    test_ids = list(dataset.test_ids)
    if not test_ids:
        raise ValueError("test split is empty")
    trials = dataset.trials
    flag = _MODE_FLAGS[mode]

    available = (len(test_ids) - 1) * trials + 1 if mode == "encoding" else len(test_ids)
    k_eff = min(k, available)
    if k_eff < k:
        warnings.warn(
            f"K={k} clamped to {k_eff}: only {available} candidates in the test split",
            stacklevel=2,
        )
    if k_eff < 2:
        raise ValueError(f"test split supports only {available} candidate(s); need >= 2")

    # candidates in stimulus-major order: (stimulus, trial) pairs when encoding
    encoding = mode == "encoding"
    pool = [(o, t) for o in test_ids for t in range(trials)] if encoding else test_ids
    instances = []
    for s in test_ids:
        others = [c for c in pool if c[0] != s] if encoding else [o for o in pool if o != s]
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([seed, flag, s, t]))
            chosen = rng.choice(len(others), size=k_eff - 1, replace=False)
            query, true = (s, (s, t)) if encoding else ((s, t), s)
            instances.append(TaskInstance(
                mode=mode, query_id=query, true_id=true,
                distractor_ids=tuple([others[i] for i in chosen.tolist()]),
                seed_info=(seed, flag, s, t),
            ))
    return instances


def auc_single(true_score: float, distractor_scores: Sequence[float]) -> float:
    """Pairwise win rate of the true candidate, ties worth half."""
    d = np.asarray(distractor_scores, dtype=np.float64)
    if d.size == 0:
        raise ValueError("need at least one distractor score")
    wins = float(np.count_nonzero(true_score > d))
    ties = float(np.count_nonzero(true_score == d))
    return (wins + 0.5 * ties) / d.size


@dataclass
class EvalReport:
    method: str
    dataset_id: str
    k_requested: int
    k_effective: dict
    seed: int
    encoding_auc: Optional[float]
    decoding_auc: Optional[float]
    average_auc: Optional[float]
    per_instance: dict  # mode -> list of {stim, trial, auc}

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "dataset_id": self.dataset_id,
            "k_requested": self.k_requested,
            "k_effective": self.k_effective,
            "seed": self.seed,
            "encoding_auc": self.encoding_auc,
            "decoding_auc": self.decoding_auc,
            "average_auc": self.average_auc,
            "per_instance": self.per_instance,
        }

    def csv_rows(self) -> list[dict]:
        """Flat rows: dataset, method, mode, K, seed, auc (fixed column order)."""
        rows = []
        pairs = [("encoding", self.encoding_auc), ("decoding", self.decoding_auc),
                 ("average", self.average_auc)]
        for mode, auc in pairs:
            if auc is None:
                continue
            rows.append({
                "dataset": self.dataset_id,
                "method": self.method,
                "mode": mode,
                "K": self.k_effective.get(mode, self.k_requested),
                "seed": self.seed,
                "auc": auc,
            })
        return rows


CSV_COLUMNS = ("dataset", "method", "mode", "K", "seed", "auc")


def evaluate(
    scorer: Callable[[TaskInstance], Sequence[float]],
    tasks: Sequence[TaskInstance],
    dataset: DatasetContainer,
    method: str = "unknown",
    k_requested: int = 0,
    seed: int = 0,
) -> EvalReport:
    """Score every instance and aggregate per-mode mean AUCs.

    The scorer returns one score per candidate, true candidate first, higher
    better. Any scorer exception aborts the run naming the instance.
    """
    if not tasks:
        raise ValueError("no task instances to evaluate")

    per_instance: dict = {}
    k_effective: dict = {}
    for inst in tasks:
        try:
            scores = scorer(inst)
        except Exception as e:
            raise RuntimeError(f"scorer failed on instance {inst.label}: {e}") from e
        if len(scores) != inst.k:
            raise RuntimeError(
                f"scorer returned {len(scores)} scores for instance {inst.label}; expected {inst.k}"
            )
        _, _, s, t = inst.seed_info
        auc = auc_single(scores[0], scores[1:])
        per_instance.setdefault(inst.mode, []).append({"stim": s, "trial": t, "auc": auc})
        k_effective[inst.mode] = inst.k

    means = {m: float(np.mean([r["auc"] for r in rows])) for m, rows in per_instance.items()}
    return EvalReport(
        method=method, dataset_id=dataset.dataset_id,
        k_requested=k_requested, k_effective=k_effective, seed=seed,
        encoding_auc=means.get("encoding"), decoding_auc=means.get("decoding"),
        average_auc=float(np.mean(list(means.values()))),
        per_instance=per_instance,
    )


# -- scorer factories ----------------------------------------------------------


def _batched_forward(fn, arr: np.ndarray, dtype) -> np.ndarray:
    outs = []
    with T.no_grad():
        for i in range(0, arr.shape[0], _CHUNK):
            outs.append(fn(Tensor(arr[i : i + _CHUNK].astype(dtype))).data)
    return np.concatenate(outs, axis=0).astype(np.float64)


def _unit_rows(emb: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(emb, axis=1)
    degenerate = int(np.count_nonzero(norms < alignment.NORM_FLOOR))
    if degenerate:
        alignment._count_degenerate(degenerate)
    safe = np.where(norms < alignment.NORM_FLOOR, 1.0, norms)
    out = emb / safe[:, None]
    out[norms < alignment.NORM_FLOOR] = 0.0
    return out


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.clip(a @ b.T, -1.0, 1.0)


def _neg_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # -||a_i - b_j|| from the Gram matrix; the clamp keeps a rounded-negative
    # square (a row against its own copy) at distance 0 rather than NaN
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    return -np.sqrt(np.maximum(sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T), 0.0))


def _pair_scorer(
    dataset: DatasetContainer,
    image_side: np.ndarray,
    response_side: np.ndarray,
    metric: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Callable:
    """Per-instance scorer reading one precomputed score table.

    ``image_side`` holds one row per test stimulus and ``response_side`` one
    row per test (stimulus, trial), both in test-split order. The table
    ``metric(image_side, response_side)`` scores every such pair once, an
    (S_test, S_test * T) array; an encoding instance reads along an image's
    row of it, a decoding instance down a response's column.
    """
    table = metric(image_side, response_side)
    row = {s: i for i, s in enumerate(dataset.test_ids)}
    trials = dataset.trials

    def scorer(inst: TaskInstance) -> np.ndarray:
        ids = (inst.true_id,) + inst.distractor_ids
        if inst.mode == "encoding":
            return table[row[inst.query_id], [row[s] * trials + t for s, t in ids]]
        qs, qt = inst.query_id
        return table[[row[s] for s in ids], row[qs] * trials + qt]

    return scorer


def _test_images(dataset: DatasetContainer) -> np.ndarray:
    return np.asarray(dataset.images, dtype=np.float64)[list(dataset.test_ids)]


def _test_responses(dataset: DatasetContainer) -> np.ndarray:
    """Z-scored test responses, one row per (stimulus, trial)."""
    return dataset.zscored_responses()[list(dataset.test_ids)].reshape(-1, dataset.neurons)


def make_vna_scorer(params: VnaParams, dataset: DatasetContainer) -> Callable:
    """Cosine scorer with all test-split embeddings precomputed (eval mode)."""
    dtype = params.visual.proj_weight.dtype
    img_emb = _batched_forward(
        lambda x: visual_encode(params.visual, x, "eval"), _test_images(dataset), dtype)
    spk_emb = _batched_forward(
        lambda x: spike_encode(params.spike, x, "eval"), _test_responses(dataset), dtype)
    return _pair_scorer(dataset, _unit_rows(img_emb), _unit_rows(spk_emb), _cosine)


def make_direct_encode_scorer(params: DirectEncoderParams, dataset: DatasetContainer) -> Callable:
    """Negated distances in (z-scored) response space against predicted rates."""
    dtype = params.tower.proj_weight.dtype
    preds = _batched_forward(
        lambda x: direct_encode_predict(params, x, "eval"), _test_images(dataset), dtype)
    return _pair_scorer(dataset, preds, _test_responses(dataset), _neg_distance)


def make_direct_decode_scorer(params: DirectDecoderParams, dataset: DatasetContainer) -> Callable:
    """Negated pixel-space distances against decoded images."""
    dtype = params.hidden_weight.dtype
    images = _test_images(dataset)
    decoded = _batched_forward(
        lambda x: direct_decode_predict(params, x, "eval"), _test_responses(dataset), dtype)
    return _pair_scorer(
        dataset, images.reshape(images.shape[0], -1),
        decoded.reshape(decoded.shape[0], -1), _neg_distance,
    )


def make_oracle_scorer(model: ForwardModel, dataset: DatasetContainer) -> Callable:
    """Ground-truth scorer: distance between clean model rates and raw trials.

    On noiseless data the true candidate sits at distance zero, so AUC is 1
    unless two stimuli collide in rate space.
    """
    if model.channels != dataset.channels:
        raise DataError(
            f"forward model takes {model.channels}-channel images, dataset has {dataset.channels}"
        )
    neuron_ids = dataset.manifest.get("neuron_ids")
    if neuron_ids is not None and max(neuron_ids, default=-1) >= model.neurons:
        raise DataError(
            f"dataset neuron id {max(neuron_ids)} is past the forward model's {model.neurons} neurons"
        )
    clean = model.clean_rates(_test_images(dataset))
    if neuron_ids is not None:
        clean = clean[:, list(neuron_ids)]
    if clean.shape[1] != dataset.neurons:
        raise DataError(
            f"forward model rates have {clean.shape[1]} neurons, dataset has {dataset.neurons}"
        )
    resp_raw = np.asarray(dataset.responses, dtype=np.float64)[list(dataset.test_ids)]
    return _pair_scorer(dataset, clean, resp_raw.reshape(-1, dataset.neurons), _neg_distance)
