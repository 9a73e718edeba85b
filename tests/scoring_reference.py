"""Retrieval tasks and scores computed one candidate at a time, kept as a test oracle.

``crossalign.evaluation`` scores every test (stimulus, (stimulus, trial))
pair once into a table and answers an instance by indexing it; these
functions start again from raw vectors (and, for the baselines, run the model
on each candidate), so the table-backed scorers must agree with them instance
by instance. ``reference_tasks`` builds each distractor id from its drawn
index on its own, the way task lists were first built.
"""

import numpy as np

from crossalign import alignment
from crossalign import tensor as T
from crossalign.baselines import direct_decode_predict, direct_encode_predict
from crossalign.evaluation import _MODE_FLAGS, TaskInstance
from crossalign.tensor import Tensor


def reference_tasks(dataset, mode: str, k: int, seed: int) -> list:
    """``evaluation.build_tasks`` with the same seeds, mapping each draw by hand."""
    test_ids = list(dataset.test_ids)
    trials = dataset.trials
    flag = _MODE_FLAGS[mode]
    available = (len(test_ids) - 1) * trials + 1 if mode == "encoding" else len(test_ids)
    k_eff = min(k, available)
    instances = []
    for s in test_ids:
        others = [o for o in test_ids if o != s]
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([seed, flag, s, t]))
            if mode == "encoding":
                pool = len(others) * trials
                chosen = rng.choice(pool, size=k_eff - 1, replace=False)
                distractors = tuple((others[int(i) // trials], int(i) % trials) for i in chosen)
                inst = TaskInstance(
                    mode=mode, query_id=s, true_id=(s, t),
                    distractor_ids=distractors, seed_info=(seed, flag, s, t),
                )
            else:
                chosen = rng.choice(len(others), size=k_eff - 1, replace=False)
                distractors = tuple(others[int(i)] for i in chosen)
                inst = TaskInstance(
                    mode=mode, query_id=(s, t), true_id=s,
                    distractor_ids=distractors, seed_info=(seed, flag, s, t),
                )
            instances.append(inst)
    return instances


def cosine_similarity(a, b) -> float:
    """Cosine of two vectors, clamped to [-1, 1].

    Either norm below 1e-12 yields 0.0 (degenerate embedding, counted).
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"vector lengths differ: {a.shape[0]} vs {b.shape[0]}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < alignment.NORM_FLOOR or nb < alignment.NORM_FLOOR:
        alignment._count_degenerate(1)
        return 0.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def rank_candidates(query_emb, candidate_embs) -> list[float]:
    """Cosine score of each candidate against the query; higher is better."""
    if len(candidate_embs) == 0:
        raise ValueError("candidate list is empty")
    return [cosine_similarity(query_emb, c) for c in candidate_embs]


def _neg_distances(pred: np.ndarray, candidates: np.ndarray) -> list[float]:
    # pred (D,), candidates (K, D); score = -||pred - cand||_2
    d = np.linalg.norm(candidates - pred[None, :], axis=1)
    return [-float(v) for v in d]


def baseline_scores(method: str, task_mode: str, query, candidates, params) -> list[float]:
    """Negated-Euclidean-distance scores for one retrieval instance.

    method 'direct-encode': params predict responses from images.
      encoding: query image, candidate responses; distance in response space.
      decoding: query response, candidate images (each encoded first).
    method 'direct-decode': params predict images from responses.
      encoding: query image, candidate responses (each decoded first).
      decoding: query response, candidate images; distance in pixel space.

    Higher score = closer = ranked better. Runs in eval mode.
    """
    if method not in ("direct-encode", "direct-decode"):
        raise ValueError(f"unknown method {method!r}")
    if task_mode not in ("encoding", "decoding"):
        raise ValueError(f"unknown task mode {task_mode!r}")
    if len(candidates) == 0:
        raise ValueError("candidate list is empty")

    with T.no_grad():
        if method == "direct-encode":
            if task_mode == "encoding":
                pred = direct_encode_predict(params, Tensor(np.asarray(query)[None]), "eval")
                cands = np.asarray(candidates, dtype=np.float64)
                return _neg_distances(pred.data[0].astype(np.float64), cands)
            preds = direct_encode_predict(params, Tensor(np.asarray(candidates)), "eval")
            flat = preds.data.reshape(len(candidates), -1).astype(np.float64)
            q = np.asarray(query, dtype=np.float64).reshape(-1)
            return [-float(np.linalg.norm(row - q)) for row in flat]
        if task_mode == "encoding":
            preds = direct_decode_predict(params, Tensor(np.asarray(candidates)), "eval")
            flat = preds.data.reshape(len(candidates), -1).astype(np.float64)
            q = np.asarray(query, dtype=np.float64).reshape(-1)
            return [-float(np.linalg.norm(row - q)) for row in flat]
        pred = direct_decode_predict(params, Tensor(np.asarray(query)[None]), "eval")
        p = pred.data[0].reshape(-1).astype(np.float64)
        cands = np.asarray(candidates, dtype=np.float64).reshape(len(candidates), -1)
        return _neg_distances(p, cands)


def oracle_scores(model, dataset, inst) -> list[float]:
    """Negated distances between one image's clean model rates and raw trials.

    Each image's rates are computed on their own and restricted to the
    dataset's recorded neurons (``neuron_ids`` in the manifest, if any).
    """
    keep = dataset.manifest.get("neuron_ids")
    keep = list(range(model.neurons)) if keep is None else list(keep)

    def rates(s):
        return model.clean_rates(np.asarray(dataset.images[s], dtype=np.float64))[keep]

    def trial(sid):
        s, t = sid
        return np.asarray(dataset.responses[s, t], dtype=np.float64)

    ids = (inst.true_id,) + inst.distractor_ids
    if inst.mode == "encoding":
        q = rates(inst.query_id)
        return [-float(np.sqrt(np.sum((trial(sid) - q) ** 2))) for sid in ids]
    q = trial(inst.query_id)
    return [-float(np.sqrt(np.sum((rates(s) - q) ** 2))) for s in ids]
