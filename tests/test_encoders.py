"""Tests for the visual and spike encoder towers."""

import numpy as np
import pytest

from crossalign import tensor as T
from crossalign.encoders import (
    SPIKE_HIDDEN,
    VISUAL_CHANNELS,
    init_params,
    make_conv_tower,
    make_spike_encoder,
    spike_encode,
    visual_encode,
    visual_feature_map,
)
from crossalign.tensor import Tensor


class TestShapes:
    @pytest.mark.parametrize("c", [1, 3])
    def test_visual_encode_batch_shape(self, c):
        vis, _ = init_params(0, c=c, n=16, d=64)
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(0, 1, (8, c, 64, 64)))
        out = visual_encode(vis, x, mode="eval")
        assert out.shape == (8, 64)

    def test_feature_map_is_256x2x2(self):
        vis, _ = init_params(0, c=3, n=16, d=64)
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(0, 1, (2, 3, 64, 64)))
        fm = visual_feature_map(vis, x, mode="eval")
        assert fm.shape == (2, 256, 2, 2)

    def test_spatial_halving_per_block(self):
        vis, _ = init_params(0, c=1, n=16, d=8)
        x = Tensor(np.random.default_rng(3).uniform(0, 1, (2, 1, 64, 64)))
        h = 64
        cur = x
        for i, blk in enumerate(vis.blocks):
            cur = T.conv2d(cur, blk.weight, blk.bias, stride=2, padding=1)
            h //= 2
            assert cur.shape == (2, VISUAL_CHANNELS[i], h, h)

    @pytest.mark.parametrize("n", [800, 148])
    def test_spike_encode_shape(self, n):
        _, spk = init_params(0, c=1, n=n, d=64)
        x = Tensor(np.random.default_rng(4).normal(size=(16, n)))
        out = spike_encode(spk, x, mode="eval")
        assert out.shape == (16, 64)

    def test_wrong_image_shape_rejected(self):
        vis, _ = init_params(0, c=1, n=16, d=8)
        with pytest.raises(ValueError):
            visual_encode(vis, Tensor(np.zeros((2, 3, 64, 64))), mode="eval")
        with pytest.raises(ValueError):
            visual_encode(vis, Tensor(np.zeros((2, 1, 32, 32))), mode="eval")
        with pytest.raises(ValueError):
            visual_encode(vis, Tensor(np.zeros((1, 64, 64))), mode="eval")

    def test_wrong_neuron_count_rejected(self):
        _, spk = init_params(0, c=1, n=100, d=8)
        with pytest.raises(ValueError):
            spike_encode(spk, Tensor(np.zeros((4, 99))), mode="eval")

    def test_bad_mode_rejected(self):
        vis, spk = init_params(0, c=1, n=16, d=8)
        with pytest.raises(ValueError):
            spike_encode(spk, Tensor(np.zeros((4, 16))), mode="test")


class TestInit:
    def test_same_seed_bit_identical(self):
        a_vis, a_spk = init_params(7, c=3, n=148, d=64)
        b_vis, b_spk = init_params(7, c=3, n=148, d=64)
        for k, t in a_vis.named_parameters().items():
            assert np.array_equal(t.data, b_vis.named_parameters()[k].data), k
        for k, t in a_spk.named_parameters().items():
            assert np.array_equal(t.data, b_spk.named_parameters()[k].data), k

    def test_different_seed_differs(self):
        a, _ = init_params(0, c=1, n=16, d=8)
        b, _ = init_params(1, c=1, n=16, d=8)
        assert not np.array_equal(a.blocks[0].weight.data, b.blocks[0].weight.data)

    def test_conv1_weight_shape(self):
        vis, _ = init_params(0, c=1, n=800, d=64)
        assert vis.blocks[0].weight.shape == (16, 1, 4, 4)
        assert [b.weight.shape[0] for b in vis.blocks] == list(VISUAL_CHANNELS)
        assert vis.proj_weight.shape == (64, 1024)

    def test_biases_zero_and_bn_identity(self):
        vis, spk = init_params(0, c=3, n=100, d=16)
        for blk in vis.blocks:
            assert np.all(blk.bias.data == 0)
            assert np.all(blk.bn.gamma.data == 1)
            assert np.all(blk.bn.beta.data == 0)
            assert np.all(blk.bn.running_mean == 0)
            assert np.all(blk.bn.running_var == 1)
        assert np.all(spk.hidden_bias.data == 0)
        assert np.all(spk.proj_bias.data == 0)

    def test_weight_bounds_follow_fan_in(self):
        vis, spk = init_params(0, c=3, n=100, d=16)
        w = vis.blocks[1].weight.data  # fan_in = 16 * 4 * 4
        bound = np.sqrt(1 / (16 * 16))
        assert np.max(np.abs(w)) <= bound
        assert np.max(np.abs(w)) > 0.8 * bound  # actually fills the range
        hw = spk.hidden_weight.data
        assert np.max(np.abs(hw)) <= np.sqrt(1 / 100)

    def test_spike_hidden_width_is_512(self):
        _, spk = init_params(0, c=1, n=9, d=5)
        assert spk.hidden_weight.shape == (SPIKE_HIDDEN, 9)
        assert spk.proj_weight.shape == (5, SPIKE_HIDDEN)


class TestEvalSemantics:
    def test_zero_spikes_give_projection_bias(self):
        _, spk = init_params(0, c=1, n=20, d=6)
        spk.proj_bias.data[:] = np.arange(6, dtype=float)
        out = spike_encode(spk, Tensor(np.zeros((3, 20))), mode="eval")
        for row in out.data:
            np.testing.assert_array_equal(row, np.arange(6, dtype=float))

    def test_eval_batch_independence_visual(self):
        vis, _ = init_params(3, c=1, n=16, d=8)
        rng = np.random.default_rng(5)
        # non-trivial running stats so eval mode actually normalizes
        for blk in vis.blocks:
            blk.bn.running_mean[:] = rng.normal(size=blk.bn.running_mean.shape) * 0.1
            blk.bn.running_var[:] = rng.uniform(0.5, 2.0, blk.bn.running_var.shape)
        batch = rng.uniform(0, 1, (5, 1, 64, 64))
        with T.no_grad():
            full = visual_encode(vis, Tensor(batch), mode="eval").data
            one = visual_encode(vis, Tensor(batch[2:3]), mode="eval").data
        np.testing.assert_allclose(one[0], full[2], atol=1e-10)

    def test_eval_batch_independence_spike(self):
        _, spk = init_params(3, c=1, n=40, d=8)
        rng = np.random.default_rng(6)
        spk.bn.running_mean[:] = rng.normal(size=512) * 0.2
        spk.bn.running_var[:] = rng.uniform(0.5, 2.0, 512)
        batch = rng.normal(size=(7, 40))
        with T.no_grad():
            full = spike_encode(spk, Tensor(batch), mode="eval").data
            one = spike_encode(spk, Tensor(batch[4:5]), mode="eval").data
        np.testing.assert_allclose(one[0], full[4], atol=1e-10)

    def test_train_mode_updates_running_stats(self):
        vis, _ = init_params(0, c=1, n=16, d=8)
        before = vis.blocks[0].bn.running_mean.copy()
        x = Tensor(np.random.default_rng(7).uniform(0, 1, (4, 1, 64, 64)))
        visual_encode(vis, x, mode="train")
        assert not np.array_equal(before, vis.blocks[0].bn.running_mean)

    def test_eval_mode_leaves_running_stats_alone(self):
        vis, _ = init_params(0, c=1, n=16, d=8)
        before = vis.blocks[0].bn.running_mean.copy()
        x = Tensor(np.random.default_rng(8).uniform(0, 1, (4, 1, 64, 64)))
        with T.no_grad():
            visual_encode(vis, x, mode="eval")
        np.testing.assert_array_equal(before, vis.blocks[0].bn.running_mean)


def _probe_tower(seed=0, c=1, d=4):
    """3-block tower on 8x8 inputs, small enough for finite differences."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    return make_conv_tower(rng, c, d, block_channels=(4, 8, 8), input_size=8)


def _fd_param_grads(loss_fn, params_list, h=1e-5):
    """Central-difference gradient of loss_fn() w.r.t. each tensor's data."""
    grads = []
    for p in params_list:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn()
            flat[i] = orig - h
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


class TestTowerGradients:
    def test_probe_visual_tower_input_gradient(self):
        vis = _probe_tower()
        rng = np.random.default_rng(10)
        xdata = rng.uniform(0.1, 0.9, (2, 1, 8, 8))
        x = Tensor(xdata.copy(), requires_grad=True)
        # fixed per-run snapshot of running stats: train-mode forward mutates
        # them, so the loss closure has to restore state between evaluations
        saved = {k: v.copy() for k, v in vis.named_buffers().items()}

        def restore():
            for k, v in vis.named_buffers().items():
                v[:] = saved[k]

        out = visual_encode(vis, x, mode="train")
        loss = (out * out).sum()
        loss.backward()
        restore()

        def f():
            with T.no_grad():
                o = visual_encode(vis, Tensor(x.data), mode="train")
                val = float((o.data * o.data).sum())
            restore()
            return val

        fd = _fd_param_grads(lambda: f(), [x])[0]
        denom = np.maximum(np.abs(fd), 1e-4)
        assert np.max(np.abs(x.grad - fd) / denom) < 1e-3

    def test_probe_spike_tower_param_gradients(self):
        spk = make_spike_encoder(np.random.default_rng(11), neurons=6, latent_dim=3)
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(4, 6)))
        saved_m, saved_v = spk.bn.running_mean.copy(), spk.bn.running_var.copy()

        def restore():
            spk.bn.running_mean[:] = saved_m
            spk.bn.running_var[:] = saved_v

        out = spike_encode(spk, x, mode="train")
        loss = (out * out).sum()
        loss.backward()
        restore()

        def f():
            with T.no_grad():
                o = spike_encode(spk, x, mode="train")
                val = float((o.data * o.data).sum())
            restore()
            return val

        checked = [spk.hidden_bias, spk.bn.gamma, spk.proj_bias]
        fds = _fd_param_grads(f, checked)
        for p, fd in zip(checked, fds):
            denom = np.maximum(np.abs(fd), 1e-4)
            assert np.max(np.abs(p.grad - fd) / denom) < 1e-3, "param grad mismatch"
