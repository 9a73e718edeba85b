"""Tests for the direct encoding/decoding baselines and their ranking rules."""

import numpy as np
import pytest

from crossalign import tensor as T
from crossalign.baselines import (
    DECODER_CHANNELS,
    direct_decode_predict,
    direct_encode_predict,
    init_direct_decoder,
    init_direct_encoder,
    mse_loss,
)
from crossalign.tensor import Tensor

from gradcheck import finite_diff_grad
from scoring_reference import baseline_scores


class TestDirectEncoder:
    def test_output_shape(self):
        params = init_direct_encoder(0, c=1, n=800)
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (4, 1, 64, 64)))
        with T.no_grad():
            out = direct_encode_predict(params, x, mode="eval")
        assert out.shape == (4, 800)

    def test_eval_deterministic(self):
        params = init_direct_encoder(0, c=1, n=32)
        x = Tensor(np.random.default_rng(1).uniform(0, 1, (2, 1, 64, 64)))
        with T.no_grad():
            a = direct_encode_predict(params, x, mode="eval").data
            b = direct_encode_predict(params, x, mode="eval").data
        np.testing.assert_array_equal(a, b)

    def test_init_deterministic_per_seed(self):
        a = init_direct_encoder(5, c=3, n=100)
        b = init_direct_encoder(5, c=3, n=100)
        for k, t in a.named_parameters().items():
            assert np.array_equal(t.data, b.named_parameters()[k].data), k
        c = init_direct_encoder(6, c=3, n=100)
        assert not np.array_equal(
            a.tower.blocks[0].weight.data, c.tower.blocks[0].weight.data
        )


class TestDirectDecoder:
    @pytest.mark.parametrize("n,c", [(148, 3), (256, 3), (800, 1)])
    def test_output_shape(self, n, c):
        params = init_direct_decoder(0, c=c, n=n)
        x = Tensor(np.random.default_rng(2).normal(size=(4, n)))
        with T.no_grad():
            out = direct_decode_predict(params, x, mode="eval")
        assert out.shape == (4, c, 64, 64)

    def test_output_bounded_unit_interval(self):
        params = init_direct_decoder(1, c=1, n=20)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 20)) * 50)
        with T.no_grad():
            out = direct_decode_predict(params, x, mode="eval").data
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_transposed_shape_chain(self):
        params = init_direct_decoder(0, c=3, n=16)
        x = Tensor(np.random.default_rng(4).normal(size=(2, 256, 2, 2)))
        sizes = [4, 8, 16, 32]
        cur = x
        for blk, ch, s in zip(params.blocks, DECODER_CHANNELS, sizes):
            cur = T.conv_transpose2d(cur, blk.weight, blk.bias, stride=2, padding=1)
            assert cur.shape == (2, ch, s, s)
        cur = T.conv_transpose2d(cur, params.final_weight, params.final_bias, stride=2, padding=1)
        assert cur.shape == (2, 3, 64, 64)

    def test_neuron_mismatch_rejected(self):
        params = init_direct_decoder(0, c=1, n=20)
        with pytest.raises(ValueError):
            direct_decode_predict(params, Tensor(np.zeros((2, 21))), mode="eval")


class TestMseLoss:
    def test_identical_is_zero(self):
        x = Tensor(np.random.default_rng(5).normal(size=(3, 4)))
        assert mse_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_hand_value(self):
        loss = mse_loss(Tensor(np.array([1.0, 1.0])), Tensor(np.array([0.0, 0.0])))
        assert loss.item() == pytest.approx(1.0, abs=1e-15)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        p, t = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        a = mse_loss(Tensor(p), Tensor(t)).item()
        b = mse_loss(Tensor(p + 3.7), Tensor(t + 3.7)).item()
        assert a == pytest.approx(b, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        p = rng.normal(size=(3, 3))
        t = p.copy()
        t[1, 1] += 1e-6
        assert mse_loss(Tensor(p), Tensor(t)).item() > 0

    def test_gradient_is_two_diff_over_size(self):
        rng = np.random.default_rng(8)
        p0, t0 = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        p = Tensor(p0.copy(), requires_grad=True)
        mse_loss(p, Tensor(t0)).backward()
        np.testing.assert_allclose(p.grad, 2 * (p0 - t0) / p0.size, atol=1e-14)
        fd = finite_diff_grad(lambda v: mse_loss(Tensor(v), Tensor(t0)).item(), p0)
        np.testing.assert_allclose(p.grad, fd, rtol=1e-6, atol=1e-9)


class TestBaselineScores:
    def test_exact_candidate_wins_encoding(self):
        params = init_direct_encoder(0, c=1, n=12)
        rng = np.random.default_rng(9)
        img = rng.uniform(0, 1, (1, 64, 64))
        with T.no_grad():
            pred = direct_encode_predict(params, Tensor(img[None]), "eval").data[0]
        cands = [pred.copy(), pred + rng.normal(size=12)]
        scores = baseline_scores("direct-encode", "encoding", img, cands, params)
        assert scores[0] == 0.0
        assert scores[0] > scores[1]

    def test_exact_image_wins_decoding_direct_decode(self):
        params = init_direct_decoder(0, c=1, n=10)
        rng = np.random.default_rng(10)
        v = rng.normal(size=10)
        with T.no_grad():
            pred_img = direct_decode_predict(params, Tensor(v[None]), "eval").data[0]
        other = np.clip(pred_img + rng.uniform(0.05, 0.2, pred_img.shape), 0, 1)
        scores = baseline_scores("direct-decode", "decoding", v, [pred_img, other], params)
        assert scores[0] == 0.0 and scores[0] > scores[1]

    def test_scores_are_negated_distances(self):
        params = init_direct_encoder(0, c=1, n=4)
        img = np.random.default_rng(11).uniform(0, 1, (1, 64, 64))
        with T.no_grad():
            pred = direct_encode_predict(params, Tensor(img[None]), "eval").data[0]
        e = np.zeros(4)
        e[0] = 1.0
        cands = [pred + 0 * e, pred + 5 * e, pred + 2 * e]
        scores = baseline_scores("direct-encode", "encoding", img, cands, params)
        np.testing.assert_allclose(scores, [0.0, -5.0, -2.0], atol=1e-9)
        assert list(np.argsort(scores)[::-1]) == [0, 2, 1]

    @pytest.mark.parametrize(
        "method,task_mode",
        [
            ("direct-encode", "encoding"),
            ("direct-encode", "decoding"),
            ("direct-decode", "encoding"),
            ("direct-decode", "decoding"),
        ],
    )
    def test_argmax_equals_brute_force_argmin(self, method, task_mode):
        c, n, k = 1, 8, 5
        params = (
            init_direct_encoder(1, c=c, n=n)
            if method == "direct-encode"
            else init_direct_decoder(1, c=c, n=n)
        )
        rng = np.random.default_rng(12)
        if task_mode == "encoding":
            query = rng.uniform(0, 1, (c, 64, 64))
            cands = [rng.normal(size=n) for _ in range(k)]
        else:
            query = rng.normal(size=n)
            cands = [rng.uniform(0, 1, (c, 64, 64)) for _ in range(k)]
        scores = baseline_scores(method, task_mode, query, cands, params)

        # independent distance computation, elementwise loops only
        with T.no_grad():
            if method == "direct-encode":
                if task_mode == "encoding":
                    ref = direct_encode_predict(params, Tensor(query[None]), "eval").data[0]
                    dists = [np.sqrt(np.sum((np.asarray(cand) - ref) ** 2)) for cand in cands]
                else:
                    dists = []
                    for cand in cands:
                        p = direct_encode_predict(params, Tensor(np.asarray(cand)[None]), "eval").data[0]
                        dists.append(np.sqrt(np.sum((p - query) ** 2)))
            else:
                if task_mode == "encoding":
                    dists = []
                    for cand in cands:
                        p = direct_decode_predict(params, Tensor(np.asarray(cand)[None]), "eval").data[0]
                        dists.append(np.sqrt(np.sum((p - query) ** 2)))
                else:
                    p = direct_decode_predict(params, Tensor(query[None]), "eval").data[0]
                    dists = [np.sqrt(np.sum((p - np.asarray(cand)) ** 2)) for cand in cands]
        assert int(np.argmax(scores)) == int(np.argmin(dists))
        np.testing.assert_allclose(scores, [-d for d in dists], rtol=1e-10, atol=1e-12)

    def test_unknown_pairs_rejected(self):
        params = init_direct_encoder(0, c=1, n=4)
        with pytest.raises(ValueError):
            baseline_scores("vna", "encoding", np.zeros((1, 64, 64)), [np.zeros(4)], params)
        with pytest.raises(ValueError):
            baseline_scores("direct-encode", "retrieval", np.zeros((1, 64, 64)), [np.zeros(4)], params)
        with pytest.raises(ValueError):
            baseline_scores("direct-encode", "encoding", np.zeros((1, 64, 64)), [], params)
