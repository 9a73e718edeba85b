"""Shared gradient-checking helpers: analytic backward vs central differences."""

from typing import Callable

import numpy as np

from crossalign.tensor import Tensor


def finite_diff_grad(fn: Callable, point, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function, per coordinate.

    ``point`` may be a Tensor or a plain array; ``fn`` receives the same kind.
    """
    if h <= 0:
        raise ValueError(f"finite_diff_grad: h must be positive, got {h}")
    as_tensor = isinstance(point, Tensor)
    base = (point.data if as_tensor else np.asarray(point)).astype(np.float64, copy=True)

    def call(arr: np.ndarray) -> float:
        return float(fn(Tensor(arr, dtype=np.float64) if as_tensor else arr))

    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = call(base.copy())
        flat[i] = orig - h
        lo = call(base.copy())
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def check_grads(fn, inputs, h=1e-5, rtol=1e-4, atol=1e-7):
    """Compare backward-pass gradients of ``fn(*inputs)`` against finite differences.

    ``fn`` maps Tensors to a scalar Tensor. Every input is checked in turn
    while the others are held fixed.
    """
    tensors = [Tensor(np.asarray(x, dtype=np.float64), requires_grad=True) for x in inputs]
    loss = fn(*tensors)
    loss.backward()
    for i, t in enumerate(tensors):
        def partial(p, _i=i):
            args = [Tensor(u.data, dtype=np.float64) for u in tensors]
            args[_i] = p
            return fn(*args)

        num = finite_diff_grad(partial, t, h=h)
        assert t.grad is not None, f"input {i} received no gradient"
        np.testing.assert_allclose(
            t.grad, num, rtol=rtol, atol=atol,
            err_msg=f"analytic/numeric gradient mismatch for input {i}",
        )


def resample_away_from_kinks(rng, shape, threshold=1e-3):
    """Standard-normal draws with every |value| < threshold redrawn (leaky_relu kinks)."""
    x = rng.standard_normal(shape)
    while np.any(np.abs(x) < threshold):
        bad = np.abs(x) < threshold
        x[bad] = rng.standard_normal(int(bad.sum()))
    return x
