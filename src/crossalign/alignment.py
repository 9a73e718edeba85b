"""The pairwise cosine matrix and the symmetric contrastive loss.

The loss over a batch of N matched (image, response) pairs treats the N x N
cosine matrix W as two stacks of classification problems: each row i must
pick out column i, each column j must pick out row j. Averaging the two
cross-entropies over the batch gives

    L = -(1/2N) sum_i [log softmax_row_i(W)[i] + log softmax_col_i(W)[i]]

computed through stabilized log-sum-exp. There is no temperature by default:
logits are raw cosines in [-1, 1], which bounds the loss from below by
log(1 + (N-1) exp(-2)).

Embeddings with near-zero norm cannot produce a meaningful cosine; they score
0 and increment a module-level counter that callers may inspect and reset.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from crossalign import tensor as T
from crossalign.tensor import Tensor

NORM_FLOOR = 1e-12

_counter_lock = threading.Lock()
_degenerate_count = 0


def _count_degenerate(k: int) -> None:
    global _degenerate_count
    if k:
        with _counter_lock:
            _degenerate_count += k


def degenerate_count() -> int:
    """Number of near-zero-norm embeddings scored so far (process-wide)."""
    with _counter_lock:
        return _degenerate_count


def reset_degenerate_count() -> None:
    global _degenerate_count
    with _counter_lock:
        _degenerate_count = 0


def similarity_matrix(img_emb: Tensor, spk_emb: Tensor) -> Tensor:
    """Pairwise cosine matrix: entry (i, j) compares image i to response j.

    Differentiable. Rows with norm below 1e-12 contribute zero cosines (and
    zero gradient) rather than NaN; each such row increments the counter.
    """
    if img_emb.ndim != 2 or spk_emb.ndim != 2:
        raise ValueError("embeddings must be 2-D (batch, dim)")
    if img_emb.shape[0] != spk_emb.shape[0]:
        raise ValueError(
            f"batch sizes differ: {img_emb.shape[0]} images vs {spk_emb.shape[0]} responses"
        )
    if img_emb.shape[1] != spk_emb.shape[1]:
        raise ValueError(
            f"embedding dims differ: {img_emb.shape[1]} vs {spk_emb.shape[1]}"
        )
    bad = int(np.sum(np.linalg.norm(img_emb.data, axis=1) < NORM_FLOOR))
    bad += int(np.sum(np.linalg.norm(spk_emb.data, axis=1) < NORM_FLOOR))
    _count_degenerate(bad)
    w = T.matmul(T.normalize_rows(img_emb), T.normalize_rows(spk_emb).transpose())
    return T.clip_unit(w)


def contrastive_loss(w: Tensor, temperature: Optional[float] = None) -> Tensor:
    """Symmetric cross-entropy over a square similarity matrix.

    ``temperature`` is an off-by-default knob: when given, logits are divided
    by it before the softmax. Leave it None for the standard loss.
    """
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"similarity matrix must be square, got {w.shape}")
    n = w.shape[0]
    if temperature is not None:
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        w = w / float(temperature)
    lse_rows = T.logsumexp(w, axis=1)
    lse_cols = T.logsumexp(w, axis=0)
    eye = Tensor(np.eye(n, dtype=w.dtype))
    diag_sum = (w * eye).sum()
    return (lse_rows.sum() + lse_cols.sum() - diag_sum * 2.0) / (2.0 * n)


def loss_lower_bound(n: int) -> float:
    """log(1 + (N-1) e^-2): the floor the bounded logits impose on the loss."""
    return float(np.log1p((n - 1) * np.exp(-2.0)))

