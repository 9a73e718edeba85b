"""Unit tests for the autodiff tensor engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossalign import tensor as T
from crossalign.tensor import Tensor

import conv_reference as ref
from gradcheck import check_grads, finite_diff_grad, resample_away_from_kinks


class TestConv2d:
    def test_tower_block_shape(self):
        # 64x64 input, kernel 4, stride 2, padding 1 halves the spatial size
        x = Tensor(np.zeros((1, 1, 64, 64)))
        w = Tensor(np.zeros((16, 1, 4, 4)))
        b = Tensor(np.zeros(16))
        out = T.conv2d(x, w, b, stride=2, padding=1)
        assert out.shape == (1, 16, 32, 32)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((2, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        out = T.conv2d(x, w, b, stride=1, padding=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_summed_window(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        w = Tensor(np.ones((1, 1, 2, 2)))
        b = Tensor(np.zeros(1))
        out = T.conv2d(x, w, b, stride=1, padding=0)
        np.testing.assert_allclose(out.data, [[[[10.0]]]])

    def test_channel_mismatch_names_both_shapes(self):
        x = Tensor(np.zeros((1, 3, 8, 8)))
        w = Tensor(np.zeros((4, 2, 3, 3)))
        b = Tensor(np.zeros(4))
        with pytest.raises(ValueError, match=r"\(1, 3, 8, 8\).*\(4, 2, 3, 3\)"):
            T.conv2d(x, w, b)

    def test_kernel_larger_than_padded_input(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 4, 4)))
        b = Tensor(np.zeros(1))
        with pytest.raises(ValueError):
            T.conv2d(x, w, b, stride=1, padding=0)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        k=st.integers(1, 5),
        stride=st.integers(1, 3),
        padding=st.integers(0, 3),
    )
    def test_shape_law(self, h, w, k, stride, padding):
        """Output size is floor((H + 2p - k) / s) + 1 whenever H + 2p >= k."""
        if h + 2 * padding < k or w + 2 * padding < k:
            return
        x = Tensor(np.zeros((1, 2, h, w)))
        wt = Tensor(np.zeros((3, 2, k, k)))
        b = Tensor(np.zeros(3))
        out = T.conv2d(x, wt, b, stride=stride, padding=padding)
        ho = (h + 2 * padding - k) // stride + 1
        wo = (w + 2 * padding - k) // stride + 1
        assert out.shape == (1, 3, ho, wo)

    def test_matches_direct_loops(self):
        """Cross-correlation oracle: quadruple loop over output cells."""
        rng = np.random.default_rng(7)
        x = rng.random((2, 3, 6, 7))
        w = rng.random((4, 3, 3, 3))
        b = rng.random(4)
        stride, padding = 2, 1
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding).data
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        expect = np.zeros_like(out)
        for bi in range(2):
            for oc in range(4):
                for i in range(out.shape[2]):
                    for j in range(out.shape[3]):
                        patch = xp[bi, :, i * stride:i * stride + 3, j * stride:j * stride + 3]
                        expect[bi, oc, i, j] = (patch * w[oc]).sum() + b[oc]
        np.testing.assert_allclose(out, expect, rtol=1e-12, atol=1e-12)


class TestConvTranspose2d:
    def test_shape_chain(self):
        # (256,2,2) -> (128,4,4) -> ... -> (c,64,64) with k=4, s=2, p=1
        shapes = [(256, 2), (128, 4), (64, 8), (32, 16), (16, 32), (1, 64)]
        x = Tensor(np.zeros((2, 256, 2, 2)))
        for (ci, _), (co, so) in zip(shapes, shapes[1:]):
            w = Tensor(np.zeros((ci, co, 4, 4)))
            b = Tensor(np.zeros(co))
            x = T.conv_transpose2d(x, w, b, stride=2, padding=1)
            assert x.shape[1:] == (co, so, so)

    def test_adjoint_of_conv2d(self):
        """<conv(x), y> == <x, convT(y)> for zero-bias kernels."""
        rng = np.random.default_rng(3)
        x = rng.random((2, 3, 8, 8))
        w = rng.random((5, 3, 4, 4))
        y = rng.random((2, 5, 4, 4))
        zero5, zero3 = Tensor(np.zeros(5)), Tensor(np.zeros(3))
        cx = T.conv2d(Tensor(x), Tensor(w), zero5, stride=2, padding=1).data
        # weight axes for the transpose: (Cin=5, Cout=3, k, k)
        cty = T.conv_transpose2d(Tensor(y), Tensor(w.transpose(0, 1, 2, 3)), zero3, stride=2, padding=1)
        np.testing.assert_allclose((cx * y).sum(), (x * cty.data).sum(), rtol=1e-12)


def _forward_and_grads(op, x, w, b, gout=None):
    """Run ``op`` and backpropagate ``gout`` (default ones); returns output and the 3 grads."""
    xt, wt, bt = (Tensor(a, requires_grad=True, dtype=a.dtype) for a in (x, w, b))
    out = op(xt, wt, bt)
    T.tsum(out if gout is None else out * Tensor(gout, dtype=gout.dtype)).backward()
    return out.data, xt.grad, wt.grad, bt.grad


class TestConvKernels:
    """The channels-innermost kernels against the NCHW reference in conv_reference."""

    @settings(max_examples=150, deadline=None)
    @given(
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        k=st.integers(1, 5),
        stride=st.integers(1, 3),
        padding=st.integers(0, 3),
        ci=st.integers(1, 3),
        co=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference(self, h, w, k, stride, padding, ci, co, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, ci, h, w))
        close = dict(rtol=1e-12, atol=1e-12)
        if h + 2 * padding >= k and w + 2 * padding >= k:
            wt = rng.standard_normal((co, ci, k, k))
            expect = ref.corr_forward(x, wt, stride, padding)
            gout = rng.standard_normal(expect.shape)
            out, gx, gw, _ = _forward_and_grads(
                lambda a, b, c: T.conv2d(a, b, c, stride, padding), x, wt, np.zeros(co), gout
            )
            np.testing.assert_allclose(out, expect, **close)
            np.testing.assert_allclose(gx, ref.corr_grad_x(gout, wt, stride, padding, x.shape), **close)
            np.testing.assert_allclose(gw, ref.corr_grad_w(x, gout, wt.shape, stride, padding), **close)
        ho = (h - 1) * stride - 2 * padding + k
        wo = (w - 1) * stride - 2 * padding + k
        if ho >= 1 and wo >= 1:
            wt = rng.standard_normal((ci, co, k, k))
            gout = rng.standard_normal((2, co, ho, wo))
            out, gx, gw, _ = _forward_and_grads(
                lambda a, b, c: T.conv_transpose2d(a, b, c, stride, padding), x, wt, np.zeros(co), gout
            )
            np.testing.assert_allclose(out, ref.corr_grad_x(x, wt, stride, padding, out.shape), **close)
            np.testing.assert_allclose(gx, ref.corr_forward(gout, wt, stride, padding), **close)
            np.testing.assert_allclose(gw, ref.corr_grad_w(gout, x, wt.shape, stride, padding), **close)

    @pytest.mark.parametrize("op, w_shape", [(T.conv2d, (3, 2, 4, 4)), (T.conv_transpose2d, (2, 3, 4, 4))])
    def test_float32_stays_float32(self, op, w_shape):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        w = rng.standard_normal(w_shape).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        out, gx, gw, gb = _forward_and_grads(lambda a, c, d: op(a, c, d, 2, 1), x, w, b)
        assert [a.dtype for a in (out, gx, gw, gb)] == [np.dtype(np.float32)] * 4


class TestLinear:
    def test_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = T.linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_example(self):
        out = T.linear(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]), Tensor([5.0]))
        np.testing.assert_allclose(out.data, [[16.0]])

    def test_projection_shape(self):
        out = T.linear(Tensor(np.zeros((256, 1024))), Tensor(np.zeros((64, 1024))), Tensor(np.zeros(64)))
        assert out.shape == (256, 64)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))


class TestBatchNorm:
    def test_two_point_batch(self):
        eps = 1e-5
        x = Tensor(np.array([[-1.0], [1.0]]))
        gamma, beta = Tensor(np.ones(1)), Tensor(np.zeros(1))
        rm, rv = np.zeros(1), np.ones(1)
        out = T.batch_norm(x, gamma, beta, rm, rv, training=True, eps=eps)
        expect = np.array([[-1.0], [1.0]]) / np.sqrt(1.0 + eps)
        np.testing.assert_allclose(out.data, expect, rtol=1e-14)
        # running stats moved toward the batch statistics
        np.testing.assert_allclose(rm, [0.0])
        np.testing.assert_allclose(rv, [0.9 * 1.0 + 0.1 * 1.0])

    def test_eval_passthrough(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((1, 4)))
        out = T.batch_norm(
            x, Tensor(np.ones(4)), Tensor(np.zeros(4)), np.zeros(4), np.ones(4), training=False
        )
        np.testing.assert_allclose(out.data, x.data, atol=1e-5)

    def test_eval_affine_on_zero(self):
        out = T.batch_norm(
            Tensor(np.zeros((1, 1))), Tensor(np.full(1, 2.0)), Tensor(np.full(1, 3.0)),
            np.zeros(1), np.ones(1), training=False,
        )
        np.testing.assert_allclose(out.data, [[3.0]], atol=1e-5)

    def test_train_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            T.batch_norm(
                Tensor(np.zeros((1, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                np.zeros(3), np.ones(3), training=True,
            )

    def test_train_variance_is_np_var_bit_for_bit(self):
        # conv2d returns (B, C, H, W) views of channels-innermost memory
        rng = np.random.default_rng(6)
        x = np.ascontiguousarray(rng.random((8, 5, 5, 3)) * 5 + 2).transpose(0, 3, 1, 2)
        rm, rv = np.zeros(3), np.ones(3)
        T.batch_norm(
            Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv, training=True, momentum=1.0
        )
        np.testing.assert_array_equal(rv, np.var(x, axis=(0, 2, 3)))
        np.testing.assert_array_equal(rm, np.mean(x, axis=(0, 2, 3)))

    def test_train_normalizes_per_channel(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.random((8, 3, 4, 4)) * 5 + 2)
        out = T.batch_norm(
            x, Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3), training=True
        )
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), 1.0, atol=1e-4)


class TestLeakyRelu:
    def test_positive_passthrough(self):
        assert T.leaky_relu(Tensor(5.0), 0.01).item() == 5.0

    def test_negative_scaled(self):
        assert T.leaky_relu(Tensor(-2.0), 0.01).item() == pytest.approx(-0.02)

    def test_zero(self):
        assert T.leaky_relu(Tensor(0.0), 0.01).item() == 0.0

    def test_slope_validation(self):
        with pytest.raises(ValueError):
            T.leaky_relu(Tensor(1.0), 1.5)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(0).random((3, 4)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_square_sum(self):
        x = Tensor([3.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_leaky_relu_negative_slope_grad(self):
        x = Tensor(-1.0, requires_grad=True)
        T.leaky_relu(x, 0.01).backward()
        np.testing.assert_allclose(x.grad, 0.01)

    def test_non_scalar_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_repeated_backward_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        loss.backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_reset_then_backward_is_deterministic(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.random((4, 4)), requires_grad=True)
        w = Tensor(rng.random((4, 4)), requires_grad=True)
        loss = ((x @ w) * (x @ w)).mean()
        loss.backward()
        g1x, g1w = x.grad.copy(), w.grad.copy()
        x.zero_grad(), w.zero_grad()
        loss.backward()
        np.testing.assert_array_equal(x.grad, g1x)
        np.testing.assert_array_equal(w.grad, g1w)

    def test_no_grad_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = (x * 3.0).sum()
        assert not y.requires_grad
        y.backward()  # nothing recorded, so nothing propagates
        assert x.grad is None


class TestFiniteDiff:
    def test_sum(self):
        x = Tensor(np.random.default_rng(0).random(5))
        g = finite_diff_grad(lambda t: t.sum(), x, h=1e-5)
        np.testing.assert_allclose(g, np.ones(5), atol=1e-8)

    def test_square(self):
        g = finite_diff_grad(lambda t: (t * t).sum(), Tensor([3.0]), h=1e-5)
        np.testing.assert_allclose(g, [6.0], atol=1e-6)

    def test_constant(self):
        g = finite_diff_grad(lambda t: t.sum() * 0.0, Tensor(np.ones(4)), h=1e-5)
        np.testing.assert_array_equal(g, np.zeros(4))


class TestShapeStrictness:
    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError, match="broadcast"):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))

    def test_mul_shape_mismatch(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(2)) * Tensor(np.zeros(3))

    def test_scalar_operands_allowed(self):
        x = Tensor([1.0, 2.0])
        np.testing.assert_allclose((2.0 * x + 1.0).data, [3.0, 5.0])
        np.testing.assert_allclose((1.0 - x).data, [0.0, -1.0])


class TestLogSumExp:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    def test_shift_identity(self, values):
        """lse(x) == lse(x - max(x)) + max(x) within 1e-12."""
        x = np.asarray(values, dtype=np.float64)
        lse = float(T.logsumexp(Tensor(x.reshape(1, -1)), axis=1).data[0])
        shifted = float(T.logsumexp(Tensor((x - x.max()).reshape(1, -1)), axis=1).data[0]) + x.max()
        assert abs(lse - shifted) < 1e-12

    def test_against_naive(self):
        rng = np.random.default_rng(2)
        x = rng.random((4, 6)) * 3
        out = T.logsumexp(Tensor(x), axis=1).data
        np.testing.assert_allclose(out, np.log(np.exp(x).sum(axis=1)), rtol=1e-12)

    def test_extreme_values_stable(self):
        x = np.array([[1000.0, 1000.0]])
        out = T.logsumexp(Tensor(x), axis=1).data
        np.testing.assert_allclose(out, [1000.0 + np.log(2.0)])


class TestGradients:
    """Spot checks; the exhaustive per-op sweep lives in the acceptance suite."""

    def test_matmul(self):
        rng = np.random.default_rng(0)
        check_grads(lambda a, b: (a @ b).sum(), [rng.random((3, 4)), rng.random((4, 2))])

    def test_conv2d(self):
        rng = np.random.default_rng(1)
        check_grads(
            lambda x, w, b: T.conv2d(x, w, b, stride=2, padding=1).sum(),
            [rng.random((2, 2, 6, 6)), rng.random((3, 2, 4, 4)), rng.random(3)],
        )

    def test_conv_transpose2d(self):
        rng = np.random.default_rng(2)

        def loss(x, w, b):
            out = T.conv_transpose2d(x, w, b, stride=2, padding=1)
            return (out * out).sum()

        check_grads(loss, [rng.random((2, 3, 3, 3)), rng.random((3, 2, 4, 4)), rng.random(2)])

    def test_batchnorm_train(self):
        rng = np.random.default_rng(3)
        check_grads(
            lambda x, g, b: (T.batch_norm(x, g, b, np.zeros(3), np.ones(3), training=True)
                             * T.batch_norm(x, g, b, np.zeros(3), np.ones(3), training=True)).sum(),
            [rng.random((5, 3)), rng.random(3) + 0.5, rng.random(3)],
        )

    def test_logsumexp_grad(self):
        rng = np.random.default_rng(4)
        check_grads(lambda x: T.logsumexp(x, axis=1).sum(), [rng.random((3, 5))])

    def test_normalize_rows_grad(self):
        rng = np.random.default_rng(5)
        check_grads(
            lambda x: (T.normalize_rows(x) * T.normalize_rows(x)).sum(),
            [rng.random((4, 3)) + 0.5],
        )

    def test_leaky_relu_grad_away_from_kink(self):
        rng = np.random.default_rng(6)
        x = resample_away_from_kinks(rng, (4, 4))
        check_grads(lambda t: (T.leaky_relu(t, 0.01) * T.leaky_relu(t, 0.01)).sum(), [x])


class TestNormalizeRows:
    def test_unit_norms(self):
        rng = np.random.default_rng(0)
        out = T.normalize_rows(Tensor(rng.random((5, 4)) + 0.1)).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-12)

    def test_degenerate_row_becomes_zero(self):
        x = np.array([[1.0, 0.0], [1e-15, 0.0]])
        out = T.normalize_rows(Tensor(x)).data
        np.testing.assert_array_equal(out[1], [0.0, 0.0])
        np.testing.assert_allclose(out[0], [1.0, 0.0])


class TestDtypeSwitch:
    def test_default_dtype_context(self):
        with T.default_dtype(np.float32):
            assert Tensor([1.0]).dtype == np.float32
        assert Tensor([1.0]).dtype == np.float64

    def test_rejects_non_float(self):
        with pytest.raises(ValueError):
            T.set_default_dtype(np.int32)
