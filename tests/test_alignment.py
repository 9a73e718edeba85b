"""Tests for cosine similarity, the contrastive loss, and ranking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign import alignment as A
from crossalign import tensor as T
from crossalign.tensor import Tensor

from gradcheck import finite_diff_grad
from scoring_reference import cosine_similarity, rank_candidates


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = np.array([2.0, -3.0, 1.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_vectors(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_hand_value_three_four_five(self):
        assert cosine_similarity([1.0, 0.0], [3.0, 4.0]) == pytest.approx(0.6, abs=1e-15)

    def test_degenerate_norm_scores_zero_and_counts(self):
        A.reset_degenerate_count()
        assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0
        assert cosine_similarity([1.0, 2.0], [1e-13, 0.0]) == 0.0
        assert A.degenerate_count() == 2
        A.reset_degenerate_count()
        assert A.degenerate_count() == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_always_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=8) * 10.0 ** rng.integers(-3, 4)
        b = rng.normal(size=8) * 10.0 ** rng.integers(-3, 4)
        c = cosine_similarity(a, b)
        assert -1.0 <= c <= 1.0


class TestSimilarityMatrix:
    def test_orthonormal_rows_give_identity(self):
        e = np.eye(4)
        w = A.similarity_matrix(Tensor(e), Tensor(e))
        np.testing.assert_allclose(w.data, np.eye(4), atol=1e-15)

    def test_single_pair(self):
        a = Tensor(np.array([[1.0, 0.0]]))
        b = Tensor(np.array([[3.0, 4.0]]))
        w = A.similarity_matrix(a, b)
        assert w.shape == (1, 1)
        assert w.data[0, 0] == pytest.approx(0.6, abs=1e-15)

    def test_swapped_basis_rows(self):
        img = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        spk = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        w = A.similarity_matrix(img, spk)
        np.testing.assert_allclose(w.data, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ValueError):
            A.similarity_matrix(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4))))
        with pytest.raises(ValueError):
            A.similarity_matrix(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 5))))

    def test_matches_pairwise_cosine(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 7)), rng.normal(size=(5, 7))
        w = A.similarity_matrix(Tensor(a), Tensor(b)).data
        for i in range(5):
            for j in range(5):
                assert w[i, j] == pytest.approx(cosine_similarity(a[i], b[j]), abs=1e-12)

    def test_degenerate_rows_zero_and_counted(self):
        A.reset_degenerate_count()
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.5, 0.5], [1.0, 2.0]])
        w = A.similarity_matrix(Tensor(a), Tensor(b)).data
        assert np.all(w[1] == 0.0)
        assert A.degenerate_count() == 1
        A.reset_degenerate_count()

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_entries_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(6, 3)) * 100)
        b = Tensor(rng.normal(size=(6, 3)) * 100)
        w = A.similarity_matrix(a, b).data
        assert w.min() >= -1.0 and w.max() <= 1.0

    def test_gradient_through_embeddings(self):
        rng = np.random.default_rng(1)
        a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        coef = rng.normal(size=(3, 3))

        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        loss = (A.similarity_matrix(a, b) * Tensor(coef)).sum()
        loss.backward()

        def at(a_val):
            w = A.similarity_matrix(Tensor(a_val), Tensor(b0))
            return float((w.data * coef).sum())

        fd = finite_diff_grad(at, a0)
        np.testing.assert_allclose(a.grad, fd, rtol=1e-5, atol=1e-8)


class TestContrastiveLoss:
    def test_single_pair_is_zero(self):
        for val in (-1.0, 0.0, 0.37, 1.0):
            loss = A.contrastive_loss(Tensor(np.array([[val]])))
            assert abs(loss.item()) < 1e-15

    def test_all_zeros_gives_log_n(self):
        loss = A.contrastive_loss(Tensor(np.zeros((4, 4))))
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_two_by_two_hand_value(self):
        w = Tensor(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        loss = A.contrastive_loss(w)
        assert loss.item() == pytest.approx(np.log(1 + np.exp(-2.0)), abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            A.contrastive_loss(Tensor(np.zeros((2, 3))))

    @given(st.integers(min_value=0, max_value=2**31), st.sampled_from([2, 4, 7]))
    @settings(max_examples=40, deadline=None)
    def test_transpose_symmetry(self, seed, n):
        w = np.random.default_rng(seed).uniform(-1, 1, (n, n))
        a = A.contrastive_loss(Tensor(w)).item()
        b = A.contrastive_loss(Tensor(w.T.copy())).item()
        assert abs(a - b) < 1e-12

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        w = rng.uniform(-1, 1, (n, n))
        perm = rng.permutation(n)
        a = A.contrastive_loss(Tensor(w)).item()
        b = A.contrastive_loss(Tensor(w[np.ix_(perm, perm)])).item()
        assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 256])
    def test_lower_bound_on_random_embeddings(self, n):
        rng = np.random.default_rng(n)
        bound = A.loss_lower_bound(n)
        for _ in range(50):
            img = Tensor(rng.normal(size=(n, 8)))
            spk = Tensor(rng.normal(size=(n, 8)))
            loss = A.contrastive_loss(A.similarity_matrix(img, spk)).item()
            assert loss >= bound - 1e-12

    def test_scale_invariance_of_pipeline(self):
        rng = np.random.default_rng(9)
        img, spk = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        scales = rng.uniform(0.1, 100, size=(5, 1))
        w1 = A.similarity_matrix(Tensor(img), Tensor(spk))
        w2 = A.similarity_matrix(Tensor(img * scales), Tensor(spk))
        np.testing.assert_allclose(w1.data, w2.data, atol=1e-10)
        l1 = A.contrastive_loss(w1).item()
        l2 = A.contrastive_loss(w2).item()
        assert abs(l1 - l2) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        w0 = rng.uniform(-1, 1, (5, 5))
        w = Tensor(w0.copy(), requires_grad=True)
        A.contrastive_loss(w).backward()
        fd = finite_diff_grad(lambda v: A.contrastive_loss(Tensor(v)).item(), w0)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(w.grad - fd) / denom) < 1e-6

    def test_temperature_off_equals_default(self):
        w = Tensor(np.random.default_rng(3).uniform(-1, 1, (4, 4)))
        assert A.contrastive_loss(w).item() == A.contrastive_loss(w, temperature=None).item()

    def test_temperature_sharpens(self):
        w = Tensor(np.random.default_rng(4).uniform(-1, 1, (4, 4)))
        hot = A.contrastive_loss(w, temperature=0.1).item()
        base = A.contrastive_loss(w).item()
        assert hot != pytest.approx(base)
        with pytest.raises(ValueError):
            A.contrastive_loss(w, temperature=0.0)


class TestRankCandidates:
    def test_basis_query(self):
        scores = rank_candidates(np.array([1.0, 0.0]), [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert scores == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_identical_candidates_tie(self):
        c = np.array([0.3, 0.4])
        scores = rank_candidates(np.array([1.0, 1.0]), [c, c.copy(), c.copy()])
        assert scores[0] == scores[1] == scores[2]

    def test_hand_cosines(self):
        q = np.array([1.0, 1.0])
        cands = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, -1.0])]
        scores = rank_candidates(q, cands)
        inv_sqrt2 = 1 / np.sqrt(2)
        assert scores == pytest.approx([inv_sqrt2, inv_sqrt2, -1.0], abs=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_candidates(np.array([1.0]), [])

    def test_order_preserved(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=4)
        cands = [rng.normal(size=4) for _ in range(6)]
        scores = rank_candidates(q, cands)
        for i, c in enumerate(cands):
            assert scores[i] == cosine_similarity(q, c)
