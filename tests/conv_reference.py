"""Reference conv kernels in the plain NCHW layout, kept as a test oracle.

These are the straightforward im2col / col2im kernels: windows are laid out
channel-major, (B, Ho, Wo, C, k, k), and the adjoint scatter-adds one kernel
tap at a time. ``crossalign.tensor`` must agree with them on every geometry.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def im2col(x, k, stride, padding):
    """Extract sliding windows: (B, C, H, W) -> (B, Ho, Wo, C, k, k), contiguous."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))


def col2im(cols, x_shape, k, stride, padding):
    """Adjoint of im2col: scatter-add windows back onto the input grid."""
    b, c, h, w = x_shape
    ho, wo = cols.shape[1], cols.shape[2]
    out = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    per_tap = cols.transpose(0, 3, 1, 2, 4, 5)  # (B, C, Ho, Wo, k, k)
    for ki in range(k):
        for kj in range(k):
            out[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += per_tap[:, :, :, :, ki, kj]
    if padding:
        out = out[:, :, padding:-padding, padding:-padding]
    return out


def corr_forward(x, w, stride, padding):
    """Cross-correlation (B, Ci, H, W) * (Co, Ci, k, k) -> (B, Co, Ho, Wo), no bias."""
    b = x.shape[0]
    co, ci, k, _ = w.shape
    cols = im2col(x, k, stride, padding)
    ho, wo = cols.shape[1], cols.shape[2]
    out2d = cols.reshape(b * ho * wo, ci * k * k) @ w.reshape(co, ci * k * k).T
    return out2d.reshape(b, ho, wo, co).transpose(0, 3, 1, 2)


def corr_grad_w(x, gout, w_shape, stride, padding):
    """Gradient of the cross-correlation with respect to its weight."""
    co, ci, k, _ = w_shape
    cols = im2col(x, k, stride, padding)
    b, ho, wo = cols.shape[0], cols.shape[1], cols.shape[2]
    g2d = np.ascontiguousarray(gout.transpose(0, 2, 3, 1)).reshape(b * ho * wo, co)
    return (g2d.T @ cols.reshape(b * ho * wo, ci * k * k)).reshape(w_shape)


def corr_grad_x(gout, w, stride, padding, x_shape):
    """Gradient of the cross-correlation with respect to its input."""
    b, _, ho, wo = gout.shape
    co, ci, k, _ = w.shape
    g2d = np.ascontiguousarray(gout.transpose(0, 2, 3, 1)).reshape(b * ho * wo, co)
    gcols = (g2d @ w.reshape(co, ci * k * k)).reshape(b, ho, wo, ci, k, k)
    return col2im(gcols, x_shape, k, stride, padding)
