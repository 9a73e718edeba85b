"""Dense tensors with reverse-mode automatic differentiation.

This is a deliberately small engine: numpy holds the values, and every
differentiable operation records its inputs plus a vector-Jacobian closure.
``backward`` on a scalar walks the recorded nodes in exact reverse creation
order (creation order is always a valid topological order) and accumulates
gradients into every reachable tensor that requires them.

Shapes are strict: elementwise operations demand identical shapes, and the
only broadcasting anywhere is the bias add inside ``linear``, ``conv2d``,
``conv_transpose2d`` and ``batch_norm``. Python scalars are accepted as
constants.

A graph and its tensors belong to one execution stream; nothing here is
safe to mutate from two threads at once.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_DEFAULT_DTYPE = np.float64
_GRAD_ENABLED = True
_SEQ = itertools.count()


def set_default_dtype(dtype) -> None:
    """Set the dtype used for new tensors (float64 default, float32 for fast training)."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dt}, expected float32 or float64")
    _DEFAULT_DTYPE = dt.type


def get_default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation paths)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextmanager
def default_dtype(dtype):
    """Temporarily switch the default dtype."""
    prev = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


class Tensor:
    """A numpy array with optional gradient tracking.

    ``grad`` is ``None`` until a backward pass reaches this tensor, and stays
    ``None`` on op outputs: only leaves keep a gradient. Repeated backward
    passes without ``zero_grad`` accumulate.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_seq")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjp: Optional[Callable] = None
        self._seq = next(_SEQ)

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph machinery -----------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every reachable leaf with ``requires_grad``.

        Leaves are tensors no op produced (parameters and inputs); op outputs
        pass their gradient on to their parents and keep ``grad`` at None.
        Only defined for scalars. Nodes are visited in exact reverse creation
        order, which respects the data dependencies of the recorded graph.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        nodes = _reachable(self)
        nodes.sort(key=lambda t: t._seq, reverse=True)
        pending: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in nodes:
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                if node.requires_grad:
                    # order="K" keeps a channels-innermost gradient in its layout
                    node.grad = g.copy(order="K") if node.grad is None else node.grad + g
                continue
            needs = tuple(p.requires_grad for p in node._parents)
            for parent, pg in zip(node._parents, node._vjp(g, needs)):
                if pg is None:
                    continue
                pid = id(parent)
                if pid in pending:
                    pending[pid] = pending[pid] + pg
                else:
                    pending[pid] = pg


def _reachable(root: Tensor) -> list[Tensor]:
    seen: set[int] = set()
    out: list[Tensor] = []
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        out.append(t)
        stack.extend(t._parents)
    return out


def _result(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._seq = next(_SEQ)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    return out


def _as_operand(x):
    """Return (array_or_scalar, tensor_or_None) for a binary op operand."""
    if isinstance(x, Tensor):
        return x.data, x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return float(x), None
    raise TypeError(f"unsupported operand type {type(x).__name__}")


def _check_same_shape(op: str, a: np.ndarray, b) -> None:
    if isinstance(b, np.ndarray) and a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape} (no implicit broadcasting)")


# -- elementwise arithmetic -------------------------------------------------


def add(a: Tensor, b):
    bv, bt = _as_operand(b)
    _check_same_shape("add", a.data, bv)
    parents = (a, bt) if bt is not None else (a,)

    def vjp(g, needs):
        return (g, g) if bt is not None else (g,)

    return _result(a.data + bv, parents, vjp)


def sub(a: Tensor, b):
    bv, bt = _as_operand(b)
    _check_same_shape("sub", a.data, bv)
    parents = (a, bt) if bt is not None else (a,)

    def vjp(g, needs):
        return (g, -g) if bt is not None else (g,)

    return _result(a.data - bv, parents, vjp)


def mul(a: Tensor, b):
    bv, bt = _as_operand(b)
    _check_same_shape("mul", a.data, bv)
    parents = (a, bt) if bt is not None else (a,)

    def vjp(g, needs):
        if bt is None:
            return (g * bv,)
        return (g * bv if needs[0] else None, g * a.data if needs[1] else None)

    return _result(a.data * bv, parents, vjp)


def div(a: Tensor, b):
    bv, bt = _as_operand(b)
    _check_same_shape("div", a.data, bv)
    parents = (a, bt) if bt is not None else (a,)

    def vjp(g, needs):
        if bt is None:
            return (g / bv,)
        ga = g / bv if needs[0] else None
        gb = -g * a.data / (bv * bv) if needs[1] else None
        return (ga, gb)

    return _result(a.data / bv, parents, vjp)


def neg(a: Tensor):
    def vjp(g, needs):
        return (-g,)

    return _result(-a.data, (a,), vjp)


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor):
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")

    def vjp(g, needs):
        ga = g @ b.data.T if needs[0] else None
        gb = a.data.T @ g if needs[1] else None
        return (ga, gb)

    return _result(a.data @ b.data, (a, b), vjp)


def transpose(a: Tensor):
    if a.ndim != 2:
        raise ValueError(f"transpose expects a 2-D tensor, got {a.shape}")

    def vjp(g, needs):
        return (np.ascontiguousarray(g.T),)

    return _result(np.ascontiguousarray(a.data.T), (a,), vjp)


def reshape(a: Tensor, shape):
    old = a.shape

    def vjp(g, needs):
        return (g.reshape(old),)

    return _result(a.data.reshape(shape), (a,), vjp)


def flatten(a: Tensor):
    return reshape(a, (-1,))


def linear(x: Tensor, weight: Tensor, bias: Tensor):
    """Affine map ``x @ weight.T + bias`` with bias broadcast over rows.

    ``x`` is (B, F), ``weight`` is (O, F), ``bias`` is (O,).
    """
    if x.ndim != 2 or weight.ndim != 2:
        raise ValueError(f"linear expects 2-D input and weight, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"linear: input features {x.shape} incompatible with weight {weight.shape}"
        )
    if bias.shape != (weight.shape[0],):
        raise ValueError(f"linear: bias shape {bias.shape} does not match weight {weight.shape}")

    def vjp(g, needs):
        gx = g @ weight.data if needs[0] else None
        gw = g.T @ x.data if needs[1] else None
        gb = g.sum(axis=0) if needs[2] else None
        return (gx, gw, gb)

    return _result(x.data @ weight.data.T + bias.data, (x, weight, bias), vjp)


# -- reductions and pointwise functions ---------------------------------------


def tsum(a: Tensor, axis: Optional[int] = None):
    if axis is None:
        def vjp(g, needs):
            return (np.full(a.shape, float(g), dtype=a.data.dtype),)

        return _result(np.asarray(a.data.sum()), (a,), vjp)

    def vjp(g, needs):
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return _result(a.data.sum(axis=axis), (a,), vjp)


def tmean(a: Tensor, axis: Optional[int] = None):
    if axis is None:
        n = a.size

        def vjp(g, needs):
            return (np.full(a.shape, float(g) / n, dtype=a.data.dtype),)

        return _result(np.asarray(a.data.mean()), (a,), vjp)

    n = a.shape[axis]

    def vjp(g, needs):
        return (np.broadcast_to(np.expand_dims(g / n, axis), a.shape).copy(),)

    return _result(a.data.mean(axis=axis), (a,), vjp)


def sqrt(a: Tensor):
    out_data = np.sqrt(a.data)

    def vjp(g, needs):
        return (g * 0.5 / out_data,)

    return _result(out_data, (a,), vjp)


def exp(a: Tensor):
    out_data = np.exp(a.data)

    def vjp(g, needs):
        return (g * out_data,)

    return _result(out_data, (a,), vjp)


def log(a: Tensor):
    def vjp(g, needs):
        return (g / a.data,)

    return _result(np.log(a.data), (a,), vjp)


def leaky_relu(a: Tensor, slope: float = 0.01):
    """Elementwise ``x if x >= 0 else slope * x``; slope must sit in (0, 1)."""
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    factor = np.where(a.data >= 0, 1.0, slope)

    def vjp(g, needs):
        return (g * factor,)

    return _result(a.data * factor, (a,), vjp)


def sigmoid(a: Tensor):
    # 1 / (1 + e^-x), evaluated on the non-overflowing side of the exponential.
    x = a.data
    z = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

    def vjp(g, needs):
        return (g * out_data * (1.0 - out_data),)

    return _result(out_data, (a,), vjp)


def logsumexp(a: Tensor, axis: int):
    """Stabilized ``log(sum(exp(a)))`` along one axis (max is subtracted first)."""
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    sumexp = np.exp(shifted).sum(axis=axis, keepdims=True)
    out_keep = m + np.log(sumexp)
    softmax = np.exp(a.data - out_keep)

    def vjp(g, needs):
        return (softmax * np.expand_dims(g, axis),)

    return _result(np.squeeze(out_keep, axis=axis), (a,), vjp)


def l2_norm(a: Tensor, axis: int):
    """Euclidean norm along ``axis``. Gradient is zero where the norm is zero."""
    out_data = np.sqrt((a.data * a.data).sum(axis=axis))

    def vjp(g, needs):
        denom = np.expand_dims(np.where(out_data > 0, out_data, 1.0), axis)
        scale = np.expand_dims(np.where(out_data > 0, g, 0.0), axis)
        return (scale * a.data / denom,)

    return _result(out_data, (a,), vjp)


def normalize_rows(a: Tensor, eps: float = 1e-12):
    """Scale each row of an (N, d) tensor to unit norm.

    Rows with norm below ``eps`` become zero rows and receive zero gradient
    (degenerate embeddings are scored as fully dissimilar rather than blowing
    up mid-training).
    """
    if a.ndim != 2:
        raise ValueError(f"normalize_rows expects (N, d), got {a.shape}")
    norms = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True))
    ok = norms >= eps
    safe = np.where(ok, norms, 1.0)
    out_data = np.where(ok, a.data / safe, 0.0)

    def vjp(g, needs):
        dots = (g * out_data).sum(axis=1, keepdims=True)
        return (np.where(ok, (g - out_data * dots) / safe, 0.0),)

    return _result(out_data, (a,), vjp)


def clip_unit(a: Tensor):
    """Clamp values to [-1, 1]; gradient passes through the closed interval."""
    mask = (a.data >= -1.0) & (a.data <= 1.0)

    def vjp(g, needs):
        return (g * mask,)

    return _result(np.clip(a.data, -1.0, 1.0), (a,), vjp)


# -- convolution --------------------------------------------------------------


# Channels stay innermost: every kernel works on the NHWC view of its (B, C,
# H, W) operand, and the arrays it returns are (B, C, H, W) views of NHWC
# memory, so a tower passes activations layer to layer without a relayout.


def _nhwc_rows(a: np.ndarray) -> np.ndarray:
    """(B, C, H, W) -> (B*H*W, C); free when ``a`` is a view of NHWC memory."""
    return a.transpose(0, 2, 3, 1).reshape(-1, a.shape[1])


def _gemm_weight(w: np.ndarray) -> np.ndarray:
    """(Co, Ci, k, k) -> (Co, k*k*Ci), the tap-major order of _im2col's columns."""
    co, ci, k, _ = w.shape
    return w.transpose(0, 2, 3, 1).reshape(co, k * k * ci)


def _im2col(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """Extract sliding windows: (B, C, H, W) -> (B, Ho, Wo, k, k, C), contiguous."""
    x = x.transpose(0, 2, 3, 1)
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    win = sliding_window_view(x, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))


def _col2im(cols: np.ndarray, x_shape: tuple, k: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of _im2col: add windows (B, Ho, Wo, k, k, C) back onto (B, C, H, W).

    Tap ``q*stride + r`` of window ``i`` lands on padded row ``(i + q)*stride + r``,
    so the taps of one phase ``q`` cover a block of ``stride`` rows (and columns)
    and add as one contiguous run. Rows that no window covers stay zero.
    """
    b, c, h, w = x_shape
    ho, wo = cols.shape[1], cols.shape[2]
    hq = -(-(h + 2 * padding) // stride)
    wq = -(-(w + 2 * padding) // stride)
    out = np.zeros((b, hq, stride, wq, stride, c), dtype=cols.dtype)
    for qi in range(0, k, stride):
        ri = min(stride, k - qi)
        for qj in range(0, k, stride):
            rj = min(stride, k - qj)
            i0, j0 = qi // stride, qj // stride
            out[:, i0:i0 + ho, :ri, j0:j0 + wo, :rj] += (
                cols[:, :, :, qi:qi + ri, qj:qj + rj].transpose(0, 1, 3, 2, 4, 5)
            )
    out = out.reshape(b, hq * stride, wq * stride, c)[:, padding:padding + h, padding:padding + w]
    return out.transpose(0, 3, 1, 2)


def _corr_forward(x: np.ndarray, w: np.ndarray, stride: int, padding: int):
    b = x.shape[0]
    co, ci, k, _ = w.shape
    cols = _im2col(x, k, stride, padding)
    ho, wo = cols.shape[1], cols.shape[2]
    out2d = cols.reshape(b * ho * wo, k * k * ci) @ _gemm_weight(w).T
    return out2d.reshape(b, ho, wo, co).transpose(0, 3, 1, 2), cols


def _corr_grad_w(cols: np.ndarray, gout: np.ndarray, w_shape: tuple) -> np.ndarray:
    co, ci, k, _ = w_shape
    gw = _nhwc_rows(gout).T @ cols.reshape(-1, k * k * ci)
    return np.ascontiguousarray(gw.reshape(co, k, k, ci).transpose(0, 3, 1, 2))


def _corr_grad_x(gout: np.ndarray, w: np.ndarray, stride: int, padding: int, x_shape: tuple) -> np.ndarray:
    b, _, ho, wo = gout.shape
    co, ci, k, _ = w.shape
    gcols = (_nhwc_rows(gout) @ _gemm_weight(w)).reshape(b, ho, wo, k, k, ci)
    return _col2im(gcols, x_shape, k, stride, padding)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0):
    """2-D cross-correlation. ``x`` (B, Cin, H, W), ``weight`` (Cout, Cin, k, k).

    Output spatial size is ``floor((H + 2*padding - k) / stride) + 1``.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input/weight, got {x.shape} and {weight.shape}")
    co, ci, k, k2 = weight.shape
    if k != k2:
        raise ValueError(f"conv2d: kernel must be square, got {weight.shape}")
    if x.shape[1] != ci:
        raise ValueError(
            f"conv2d: input channels of {x.shape} do not match weight {weight.shape}"
        )
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    if x.shape[2] + 2 * padding < k or x.shape[3] + 2 * padding < k:
        raise ValueError(
            f"conv2d: kernel {k} larger than padded input {x.shape} with padding {padding}"
        )
    if bias.shape != (co,):
        raise ValueError(f"conv2d: bias shape {bias.shape} does not match weight {weight.shape}")

    out_data, cols = _corr_forward(x.data, weight.data, stride, padding)
    out_data += bias.data.reshape(1, co, 1, 1)
    x_shape = x.shape

    def vjp(g, needs):
        gx = _corr_grad_x(g, weight.data, stride, padding, x_shape) if needs[0] else None
        gw = _corr_grad_w(cols, g, weight.shape) if needs[1] else None
        gb = g.sum(axis=(0, 2, 3)) if needs[2] else None
        return (gx, gw, gb)

    return _result(out_data, (x, weight, bias), vjp)


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0):
    """Transposed 2-D convolution (the adjoint of ``conv2d``).

    ``x`` (B, Cin, H, W), ``weight`` (Cin, Cout, k, k); output spatial size is
    ``(H - 1) * stride - 2 * padding + k``.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(f"conv_transpose2d expects 4-D input/weight, got {x.shape} and {weight.shape}")
    ci, co, k, k2 = weight.shape
    if k != k2:
        raise ValueError(f"conv_transpose2d: kernel must be square, got {weight.shape}")
    if x.shape[1] != ci:
        raise ValueError(
            f"conv_transpose2d: input channels of {x.shape} do not match weight {weight.shape}"
        )
    if bias.shape != (co,):
        raise ValueError(f"conv_transpose2d: bias shape {bias.shape} mismatches weight {weight.shape}")
    b, _, h, w = x.shape
    ho = (h - 1) * stride - 2 * padding + k
    wo = (w - 1) * stride - 2 * padding + k
    if ho < 1 or wo < 1:
        raise ValueError(f"conv_transpose2d: degenerate output size ({ho}, {wo})")

    out_data = _corr_grad_x(x.data, weight.data, stride, padding, (b, co, ho, wo))
    out_data += bias.data.reshape(1, co, 1, 1)

    def vjp(g, needs):
        gx = gw = None
        if needs[0] or needs[1]:
            gx, gcols = _corr_forward(g, weight.data, stride, padding)
            gw = _corr_grad_w(gcols, x.data, weight.shape) if needs[1] else None
        gb = g.sum(axis=(0, 2, 3)) if needs[2] else None
        return (gx if needs[0] else None, gw, gb)

    return _result(out_data, (x, weight, bias), vjp)


# -- batch normalization -------------------------------------------------------


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
):
    """Batch normalization over (B,) or (B, H, W) per channel.

    Accepts (B, F) or (B, C, H, W) input. Train mode normalizes with batch
    statistics (population variance) and folds them into the running buffers
    with an exponential average, in place. Eval mode uses the stored running
    statistics and is deterministic for any batch size, including 1.
    """
    if x.ndim == 2:
        axes, view = (0,), (1, -1)
    elif x.ndim == 4:
        axes, view = (0, 2, 3), (1, -1, 1, 1)
    else:
        raise ValueError(f"batch_norm expects 2-D or 4-D input, got {x.shape}")
    nch = x.shape[1]
    for name, arr in (("gamma", gamma.data), ("beta", beta.data)):
        if arr.shape != (nch,):
            raise ValueError(f"batch_norm: {name} shape {arr.shape} does not match {nch} channels")
    if running_mean.shape != (nch,) or running_var.shape != (nch,):
        raise ValueError("batch_norm: running statistics shape mismatch")

    gview = gamma.data.reshape(view)
    if training:
        if x.shape[0] < 2:
            raise ValueError(
                f"batch_norm: train mode requires batch dimension >= 2, got {x.shape[0]}"
            )
        count = x.data.size // nch
        mean = x.data.mean(axis=axes)
        centered = x.data - mean.reshape(view)
        # the same sum of squares, in the same order, as np.var
        var = (centered * centered).sum(axis=axes) / count
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = centered * inv_std.reshape(view)

        def vjp(g, needs):
            gg = (g * xhat).sum(axis=axes) if (needs[1] or needs[0]) else None
            if needs[0]:
                gmean = g.sum(axis=axes) / count
                gdot = gg / count
                gx = gview * inv_std.reshape(view) * (
                    g - gmean.reshape(view) - xhat * gdot.reshape(view)
                )
            else:
                gx = None
            ggamma = gg if needs[1] else None
            gbeta = g.sum(axis=axes) if needs[2] else None
            return (gx, ggamma, gbeta)

    else:
        inv_std = 1.0 / np.sqrt(running_var + eps)
        xhat = (x.data - running_mean.reshape(view)) * inv_std.reshape(view)

        def vjp(g, needs):
            gx = g * gview * inv_std.reshape(view) if needs[0] else None
            ggamma = (g * xhat).sum(axis=axes) if needs[1] else None
            gbeta = g.sum(axis=axes) if needs[2] else None
            return (gx, ggamma, gbeta)

    out_data = gview * xhat + beta.data.reshape(view)
    return _result(out_data, (x, gamma, beta), vjp)


# -- operator sugar ----------------------------------------------------------

Tensor.__add__ = add
Tensor.__radd__ = add
Tensor.__sub__ = sub
Tensor.__rsub__ = lambda a, b: add(neg(a), b)
Tensor.__mul__ = mul
Tensor.__rmul__ = mul
Tensor.__truediv__ = div
Tensor.__neg__ = neg
Tensor.__matmul__ = matmul
Tensor.sum = tsum
Tensor.mean = tmean
Tensor.reshape = reshape
Tensor.flatten = flatten
Tensor.transpose = transpose
Tensor.matmul = matmul
