"""Correctness checks on a workload's outputs, computed independently.

Each check returns ``(ok, detail)``. They compare against the benchmark's
own recomputations or against properties the method must have, never
against stored copies of earlier output.
"""

from __future__ import annotations

import json
import math
import os

import jsonschema
import numpy as np

import crossalign
from crossalign import encoders, tensor
from crossalign.baselines import direct_decode_predict, direct_encode_predict
from crossalign.tensor import Tensor

# Rows per eval-mode forward call, the same as the package's scorers, so
# that the recomputed outputs are the same floats the scorers saw.
CHUNK = 128

SCHEMA_DIR = os.path.join(os.path.dirname(crossalign.__file__), "schemas")


def _forward(fn, rows: np.ndarray) -> np.ndarray:
    outs = []
    with tensor.no_grad():
        for i in range(0, rows.shape[0], CHUNK):
            outs.append(np.asarray(fn(Tensor(rows[i:i + CHUNK])).data, dtype=np.float64))
    return np.concatenate(outs, axis=0)


def _neg_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """-||a_i - b_j|| for every row pair, from the Gram matrix."""
    a = a.reshape(a.shape[0], -1)
    b = b.reshape(b.shape[0], -1)
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return -np.sqrt(np.maximum(sq, 0.0))


def _unit(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return np.where(norms >= 1e-12, rows / np.where(norms >= 1e-12, norms, 1.0), 0.0)


class ScoreTable:
    """Every (test image, test response) score of one method.

    ``scores[i, r]`` compares test image row i with response row
    r = i' * T + t, higher meaning closer, so both task modes read from it.
    """

    def __init__(self, scores: np.ndarray, dataset):
        self.scores = scores
        self.row = {s: i for i, s in enumerate(dataset.test_ids)}
        self.trials = dataset.trials

    def _resp(self, sid) -> int:
        return self.row[sid[0]] * self.trials + sid[1]

    def instance(self, inst) -> tuple[float, np.ndarray]:
        """(true score, distractor scores) for one task instance."""
        if inst.mode == "encoding":
            i = self.row[inst.query_id]
            cols = [self._resp(inst.true_id)] + [self._resp(d) for d in inst.distractor_ids]
            sc = self.scores[i, cols]
        else:
            r = self._resp(inst.query_id)
            rows = [self.row[inst.true_id]] + [self.row[d] for d in inst.distractor_ids]
            sc = self.scores[rows, r]
        return float(sc[0]), sc[1:]


def score_table(method: str, params, dataset, model=None) -> ScoreTable:
    """Recompute a method's retrieval scores from eval-mode outputs."""
    test = list(dataset.test_ids)
    images = np.asarray(dataset.images, dtype=np.float64)[test]
    resp_z = dataset.zscored_responses()[test].reshape(-1, dataset.neurons)
    if method == "vna":
        img = _forward(lambda x: encoders.visual_encode(params.visual, x, "eval"), images)
        spk = _forward(lambda x: encoders.spike_encode(params.spike, x, "eval"), resp_z)
        scores = np.clip(_unit(img) @ _unit(spk).T, -1.0, 1.0)
    elif method == "direct-encode":
        pred = _forward(lambda x: direct_encode_predict(params, x, "eval"), images)
        scores = _neg_distances(pred, resp_z)
    elif method == "direct-decode":
        decoded = _forward(lambda x: direct_decode_predict(params, x, "eval"), resp_z)
        scores = _neg_distances(images, decoded)
    elif method == "oracle":
        clean = model.clean_rates(images)
        ids = dataset.manifest.get("neuron_ids")
        if ids is not None:
            clean = clean[:, list(ids)]
        raw = np.asarray(dataset.responses, dtype=np.float64)[test].reshape(-1, dataset.neurons)
        scores = _neg_distances(clean, raw)
    else:
        raise ValueError(f"unknown method {method!r}")
    return ScoreTable(scores, dataset)


def pairwise_auc(true_score: float, distractors: np.ndarray, tol: float) -> tuple[float, float]:
    """Brute-force AUC bounds from comparing the true score with each distractor.

    A distractor within ``tol`` (relative) of the true score is a near tie
    that rounding may put on either side, so it counts as a loss in the low
    bound and as a win in the high bound. Without near ties both bounds are
    the exact AUC.
    """
    d = np.asarray(distractors, dtype=np.float64)
    near = np.abs(d - true_score) <= tol * max(1.0, abs(true_score))
    wins = int(np.count_nonzero((d < true_score) & ~near))
    n_near = int(np.count_nonzero(near))
    return wins / d.size, (wins + n_near) / d.size


def check_report_aucs(report, tasks, table: ScoreTable, tol: float) -> tuple[bool, str]:
    """Every per-instance AUC and both mode means against a brute-force recount."""
    per_mode: dict = {"encoding": [], "decoding": []}
    for inst in tasks:
        true_score, distractors = table.instance(inst)
        per_mode[inst.mode].append((inst, pairwise_auc(true_score, distractors, tol)))
    for mode, rows in per_mode.items():
        reported = report.per_instance.get(mode, [])
        if len(reported) != len(rows):
            return False, f"{report.method} {mode}: {len(reported)} instances reported, {len(rows)} built"
        for entry, (inst, (lo, hi)) in zip(reported, rows):
            _, _, s, t = inst.seed_info
            if (entry["stim"], entry["trial"]) != (s, t):
                return False, f"{report.method} {mode}: instance order differs at stim {s} trial {t}"
            if not lo <= entry["auc"] <= hi:
                return False, (f"{report.method} {inst.label}: reported AUC {entry['auc']!r}, "
                               f"recounted {lo!r}..{hi!r}")
        mean = getattr(report, f"{mode}_auc")
        lo_mean = float(np.mean([r[1][0] for r in rows]))
        hi_mean = float(np.mean([r[1][1] for r in rows]))
        if not lo_mean <= mean <= hi_mean:
            return False, f"{report.method} {mode}: mean {mean!r}, recounted {lo_mean!r}..{hi_mean!r}"
    return True, "per-instance and mean AUCs match the brute-force recount"


def check_schema(report) -> tuple[bool, str]:
    with open(os.path.join(SCHEMA_DIR, "eval_report.schema.json")) as fh:
        schema = json.load(fh)
    try:
        jsonschema.validate(report.to_json_dict(), schema)
    except jsonschema.ValidationError as e:
        return False, f"{report.method}: schema violation: {e.message}"
    return True, "report validates against eval_report.schema.json"


def check_identical_reports(reports) -> tuple[bool, str]:
    first = json.dumps(reports[0].to_json_dict(), sort_keys=True)
    for rep in reports[1:]:
        if json.dumps(rep.to_json_dict(), sort_keys=True) != first:
            return False, f"{rep.method}: repeated evaluation gave a different report"
    return True, "repeated evaluations agree"


def contrastive_floor(n: int) -> float:
    """log(1 + (N-1) e^-2): cosine logits lie in [-1, 1], so no batch of N scores below it."""
    return math.log(1.0 + (n - 1) * math.exp(-2.0))


def check_losses(method: str, losses, batch: int) -> tuple[bool, str]:
    if not losses:
        return False, f"{method}: no epoch losses recorded"
    if method == "vna":
        floor = contrastive_floor(batch)
        bad = [x for x in losses if not (math.isfinite(x) and x >= floor)]
        detail = f"below the contrastive floor {floor:.6f}"
    else:
        bad = [x for x in losses if not (math.isfinite(x) and x >= 0.0)]
        detail = "negative or non-finite MSE"
    if bad:
        return False, f"{method}: {len(bad)} epoch losses {detail}: {bad[:3]}"
    return True, f"{method}: {len(losses)} epoch losses in range"


def model_arrays(result) -> dict:
    """Every array a checkpoint stores, keyed as the checkpoint names them."""
    out = {f"param:{k}": v.data for k, v in result.params.named_parameters().items()}
    out.update({f"buffer:{k}": v for k, v in result.params.named_buffers().items()})
    out.update({f"adam_m:{k}": v for k, v in result.adam.m.items()})
    out.update({f"adam_v:{k}": v for k, v in result.adam.v.items()})
    return out


def check_same_arrays(saved: dict, loaded: dict, what: str) -> tuple[bool, str]:
    if saved.keys() != loaded.keys():
        return False, f"{what}: array names differ: {sorted(saved.keys() ^ loaded.keys())[:4]}"
    for name, arr in saved.items():
        other = loaded[name]
        if arr.dtype != other.dtype or arr.shape != other.shape or arr.tobytes() != other.tobytes():
            return False, f"{what}: array {name} differs after the round trip"
    return True, f"{what}: {len(saved)} arrays equal bit for bit"


def check_oracle_exact(report) -> tuple[bool, str]:
    if report.encoding_auc == 1.0 and report.decoding_auc == 1.0:
        return True, "oracle AUC is exactly 1.0 on noiseless data"
    return False, f"oracle AUC {report.encoding_auc!r}/{report.decoding_auc!r} on noiseless data"


def check_auc_floor(report, floor: float) -> tuple[bool, str]:
    ok = report.encoding_auc >= floor and report.decoding_auc >= floor
    return ok, (f"{report.method}: encoding {report.encoding_auc:.4f}, "
                f"decoding {report.decoding_auc:.4f}, floor {floor}")


def check_output_dtype(method: str, params, dataset, dtype) -> tuple[bool, str]:
    """A forward pass of a model trained in ``dtype`` must return ``dtype``."""
    images = Tensor(np.asarray(dataset.images[:4]), dtype=dtype)
    resp = Tensor(dataset.zscored_responses()[:4, 0], dtype=dtype)
    with tensor.no_grad():
        if method == "vna":
            outs = [encoders.visual_encode(params.visual, images, "eval"),
                    encoders.spike_encode(params.spike, resp, "eval")]
        elif method == "direct-encode":
            outs = [direct_encode_predict(params, images, "eval")]
        else:
            outs = [direct_decode_predict(params, resp, "eval")]
    got = sorted({str(o.dtype) for o in outs})
    ok = got == [np.dtype(dtype).name]
    return ok, f"{method}: forward outputs are {'/'.join(got)}, model trained in {np.dtype(dtype).name}"
