"""Tests for task construction, AUC scoring, and the evaluation harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign import alignment
from crossalign import tensor as T
from crossalign.baselines import init_direct_decoder, init_direct_encoder
from crossalign.dataio import DatasetContainer, compute_stats, split_dataset
from crossalign.encoders import VnaParams, init_params, spike_encode, visual_encode
from crossalign.evaluation import (
    EvalReport,
    _neg_distance,
    auc_single,
    build_tasks,
    evaluate,
    make_direct_decode_scorer,
    make_direct_encode_scorer,
    make_oracle_scorer,
    make_vna_scorer,
)
from crossalign.synthdata import SyntheticDatasetSpec, generate_dataset
from crossalign.tensor import Tensor

from scoring_reference import baseline_scores, oracle_scores, rank_candidates, reference_tasks


def _random_container(s=10, c=1, t=1, n=6, seed=0, test_fraction=0.3) -> DatasetContainer:
    rng = np.random.default_rng(seed)
    images = rng.uniform(0, 1, (s, c, 64, 64)).astype("<f4")
    responses = rng.gamma(2.0, 1.0, (s, t, n)).astype("<f4")
    train, test = split_dataset(s, test_fraction, seed)
    mean, std = compute_stats(responses, train)
    return DatasetContainer(
        images=images, responses=responses, train_ids=train, test_ids=test,
        stats_mean=mean, stats_std=std,
        manifest={"dataset_id": f"test-{seed}", "seed": seed},
    )


def brute_force_auc(true_score, distractors):
    """Independent oracle: explicit pairwise loop with the half-credit tie rule."""
    wins = 0.0
    for d in distractors:
        if true_score > d:
            wins += 1.0
        elif true_score == d:
            wins += 0.5
    return wins / len(distractors)


class TestAucSingle:
    def test_true_beats_all(self):
        assert auc_single(0.9, [0.1, 0.5]) == 1.0

    def test_all_ties(self):
        assert auc_single(0.5, [0.5, 0.5]) == 0.5

    def test_hand_two_thirds(self):
        assert auc_single(0.4, [0.9, 0.1, 0.2]) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auc_single(1.0, [])

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, seed, k):
        rng = np.random.default_rng(seed)
        # quantized scores force plenty of exact ties
        scores = rng.integers(0, 5, size=k + 1) / 4.0
        true, distractors = float(scores[0]), list(scores[1:])
        assert auc_single(true, distractors) == brute_force_auc(true, distractors)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=12)
        base = auc_single(scores[0], scores[1:])
        warped = np.exp(3 * scores) + 7
        assert auc_single(warped[0], warped[1:]) == base

    def test_distractor_order_irrelevant(self):
        rng = np.random.default_rng(2)
        d = rng.normal(size=9)
        assert auc_single(0.3, d) == auc_single(0.3, d[::-1].copy())


class TestBuildTasks:
    def test_counts_and_distractor_sizes(self):
        ds = _random_container(s=34, t=1, test_fraction=0.3)  # 10 test stimuli
        tasks = build_tasks(ds, "encoding", k=4, seed=0)
        assert len(tasks) == 10
        assert all(len(t.distractor_ids) == 3 for t in tasks)

    def test_one_instance_per_presentation(self):
        ds = _random_container(s=20, t=5, test_fraction=0.2)
        tasks = build_tasks(ds, "decoding", k=3, seed=0)
        assert len(tasks) == 4 * 5
        seen = {(inst.seed_info[2], inst.seed_info[3]) for inst in tasks}
        assert len(seen) == 20

    def test_deterministic(self):
        ds = _random_container(s=20, t=2)
        assert build_tasks(ds, "encoding", 5, seed=3) == build_tasks(ds, "encoding", 5, seed=3)
        assert build_tasks(ds, "encoding", 5, seed=3) != build_tasks(ds, "encoding", 5, seed=4)

    def test_clamp_warns(self):
        ds = _random_container(s=34, t=1, test_fraction=0.3)
        with pytest.warns(UserWarning, match="clamped"):
            tasks = build_tasks(ds, "decoding", k=400, seed=0)
        assert all(t.k == 10 for t in tasks)  # 10 test images available

    def test_encoding_pool_counts_other_trials(self):
        ds = _random_container(s=10, t=4, test_fraction=0.3)  # 3 test stimuli
        with pytest.warns(UserWarning):
            tasks = build_tasks(ds, "encoding", k=400, seed=0)
        # candidates: own trial + trials of the 2 other stimuli
        assert all(t.k == 2 * 4 + 1 for t in tasks)

    def test_small_k_rejected(self):
        ds = _random_container()
        with pytest.raises(ValueError):
            build_tasks(ds, "encoding", k=1, seed=0)
        with pytest.raises(ValueError):
            build_tasks(ds, "sorting", k=4, seed=0)

    def test_invariants(self):
        ds = _random_container(s=25, t=3, test_fraction=0.4)
        for mode in ("encoding", "decoding"):
            for inst in build_tasks(ds, mode, k=6, seed=1):
                assert inst.true_id not in inst.distractor_ids
                assert len(set(inst.distractor_ids)) == len(inst.distractor_ids)
                s = inst.seed_info[2]
                if mode == "encoding":
                    assert all(d[0] != s for d in inst.distractor_ids)
                    assert all(d[0] in ds.test_ids for d in inst.distractor_ids)
                else:
                    assert all(d != s and d in ds.test_ids for d in inst.distractor_ids)

    @pytest.mark.parametrize("mode", ["encoding", "decoding"])
    @pytest.mark.parametrize("k", [4, 400], ids=["k-fits", "k-clamped"])
    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_matches_reference(self, mode, k, trials):
        ds = _random_container(s=20, t=trials, test_fraction=0.3)  # 6 test stimuli
        if k > 4:
            with pytest.warns(UserWarning, match="clamped"):
                tasks = build_tasks(ds, mode, k, seed=2)
        else:
            tasks = build_tasks(ds, mode, k, seed=2)
        assert tasks == reference_tasks(ds, mode, k, seed=2)


class TestEvaluate:
    def _tasks(self, ds, k=5, seed=0):
        return build_tasks(ds, "encoding", k, seed) + build_tasks(ds, "decoding", k, seed)

    def test_perfect_scorer(self):
        ds = _random_container(s=20, t=2)
        tasks = self._tasks(ds)
        scorer = lambda inst: [1.0] + [0.0] * (inst.k - 1)
        report = evaluate(scorer, tasks, ds, method="perfect", k_requested=5, seed=0)
        assert report.encoding_auc == 1.0
        assert report.decoding_auc == 1.0
        assert report.average_auc == 1.0

    def test_constant_scorer(self):
        ds = _random_container(s=20, t=2)
        report = evaluate(lambda inst: [0.7] * inst.k, self._tasks(ds), ds)
        assert report.encoding_auc == 0.5 and report.decoding_auc == 0.5

    def test_random_scorer_near_half(self):
        ds = _random_container(s=60, t=85, n=3, test_fraction=0.2)  # 12 * 85 = 1020 instances
        tasks = build_tasks(ds, "encoding", k=50, seed=0)
        assert len(tasks) >= 1000

        def scorer(inst):
            rng = np.random.default_rng(np.random.SeedSequence(list(inst.seed_info)))
            return rng.uniform(size=inst.k)

        report = evaluate(scorer, tasks, ds)
        assert abs(report.encoding_auc - 0.5) < 0.03

    def test_scorer_failure_names_instance(self):
        ds = _random_container(s=20, t=1)
        tasks = build_tasks(ds, "encoding", k=3, seed=0)
        boom_stim = tasks[2].seed_info[2]

        def scorer(inst):
            if inst.seed_info[2] == boom_stim:
                raise FloatingPointError("bad score")
            return [1.0] + [0.0] * (inst.k - 1)

        with pytest.raises(RuntimeError, match=f"stim{boom_stim}"):
            evaluate(scorer, tasks, ds)

    def test_wrong_score_count_rejected(self):
        ds = _random_container(s=20, t=1)
        tasks = build_tasks(ds, "encoding", k=3, seed=0)
        with pytest.raises(RuntimeError, match="expected"):
            evaluate(lambda inst: [1.0, 0.0], tasks, ds)

    def test_average_is_arithmetic_mean(self):
        ds = _random_container(s=20, t=2)
        report = evaluate(lambda i: list(range(i.k, 0, -1)), self._tasks(ds), ds)
        assert report.average_auc == pytest.approx(
            (report.encoding_auc + report.decoding_auc) / 2
        )

    def test_csv_rows(self):
        report = EvalReport(
            method="vna", dataset_id="abc", k_requested=10,
            k_effective={"encoding": 10, "decoding": 8}, seed=1,
            encoding_auc=0.9, decoding_auc=0.8, average_auc=0.85,
            per_instance={},
        )
        rows = report.csv_rows()
        assert [r["mode"] for r in rows] == ["encoding", "decoding", "average"]
        assert rows[1]["K"] == 8
        assert list(rows[0].keys()) == ["dataset", "method", "mode", "K", "seed", "auc"]


_SCORER_DATASETS = pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy-subsampled"])


class TestScorers:
    def _synth(self, noise=0.0, s=20, n=8, t=2, seed=0):
        spec = SyntheticDatasetSpec(stimuli=s, channels=1, neurons=n, trials=t, noise=noise, seed=seed)
        return generate_dataset(spec)

    def _dataset(self, noisy):
        """The default clean set, or noise 0.7 with 4 trials and 9 of 40 neurons kept."""
        if not noisy:
            return self._synth()[0]
        spec = SyntheticDatasetSpec(stimuli=30, channels=1, neurons=40, trials=4, noise=0.7, seed=5)
        return generate_dataset(spec, subsample=9)[0]

    def test_oracle_perfect_on_noiseless(self):
        ds, model = self._synth(noise=0.0)
        tasks = build_tasks(ds, "encoding", 3, 0) + build_tasks(ds, "decoding", 3, 0)
        report = evaluate(make_oracle_scorer(model, ds), tasks, ds, method="oracle")
        assert report.encoding_auc == 1.0 and report.decoding_auc == 1.0

    def test_oracle_with_subsampled_neurons(self):
        spec = SyntheticDatasetSpec(stimuli=20, channels=1, neurons=32, trials=1, noise=0.0, seed=3)
        ds, model = generate_dataset(spec, subsample=10)
        tasks = build_tasks(ds, "decoding", 3, 0)
        report = evaluate(make_oracle_scorer(model, ds), tasks, ds)
        assert report.decoding_auc == 1.0

    def test_oracle_matches_reference_on_noisy_subsampled_trials(self):
        spec = SyntheticDatasetSpec(stimuli=30, channels=1, neurons=40, trials=4, noise=0.7, seed=5)
        ds, model = generate_dataset(spec, subsample=9)
        assert ds.manifest["neuron_ids"] != list(range(9))
        scorer = make_oracle_scorer(model, ds)
        for mode in ("encoding", "decoding"):
            for inst in build_tasks(ds, mode, 5, 3):
                np.testing.assert_allclose(scorer(inst), oracle_scores(model, ds, inst), rtol=1e-12)

    @pytest.mark.parametrize("fill", [0.0, 1e-14], ids=["zero", "below-norm-floor"])
    def test_vna_zero_norm_row_scores_zero_and_counts(self, monkeypatch, fill):
        ds, _ = self._synth()
        vis, spk = init_params(0, c=1, n=ds.neurons, d=8)
        params = VnaParams(visual=vis, spike=spk)
        stim0 = ds.test_ids[0]

        def zero_first_row(p, x, mode):
            out = visual_encode(p, x, mode)
            out.data[0] = fill
            return out

        monkeypatch.setattr("crossalign.evaluation.visual_encode", zero_first_row)
        alignment.reset_degenerate_count()
        scorer = make_vna_scorer(params, ds)
        assert alignment.degenerate_count() == 1
        enc = build_tasks(ds, "encoding", 3, 0)
        dec = build_tasks(ds, "decoding", 3, 0)
        assert all(np.all(scorer(inst) == 0.0) for inst in enc if inst.query_id == stim0)
        assert all(np.all(scorer(inst) != 0.0) for inst in enc if inst.query_id != stim0)
        hits = 0
        for inst in dec:
            ids = (inst.true_id,) + inst.distractor_ids
            got = scorer(inst)
            assert [v == 0.0 for v in got] == [s == stim0 for s in ids]
            hits += stim0 in ids
        assert hits > 0
        alignment.reset_degenerate_count()

    @_SCORER_DATASETS
    def test_vna_scorer_matches_direct_cosines(self, noisy):
        ds = self._dataset(noisy)
        vis, spk = init_params(0, c=1, n=ds.neurons, d=8)
        params = VnaParams(visual=vis, spike=spk)
        scorer = make_vna_scorer(params, ds)
        tasks = build_tasks(ds, "encoding", 3, 0) + build_tasks(ds, "decoding", 3, 0)
        z = ds.zscored_responses()
        for inst in tasks[:6] + tasks[-6:]:
            got = scorer(inst)
            with T.no_grad():
                if inst.mode == "encoding":
                    q = visual_encode(vis, Tensor(ds.images[[inst.query_id]].astype(np.float64)), "eval").data[0]
                    cands = [
                        spike_encode(spk, Tensor(z[s][[t]]), "eval").data[0]
                        for (s, t) in (inst.true_id,) + inst.distractor_ids
                    ]
                else:
                    s, t = inst.query_id
                    q = spike_encode(spk, Tensor(z[s][[t]]), "eval").data[0]
                    cands = [
                        visual_encode(vis, Tensor(ds.images[[sid]].astype(np.float64)), "eval").data[0]
                        for sid in (inst.true_id,) + inst.distractor_ids
                    ]
            want = rank_candidates(q, cands)
            np.testing.assert_allclose(got, want, atol=1e-9)

    @_SCORER_DATASETS
    def test_direct_encode_scorer_matches_op(self, noisy):
        ds = self._dataset(noisy)
        params = init_direct_encoder(0, c=1, n=ds.neurons)
        scorer = make_direct_encode_scorer(params, ds)
        z = ds.zscored_responses()
        images = ds.images.astype(np.float64)
        for mode in ("encoding", "decoding"):
            for inst in build_tasks(ds, mode, 3, 1)[:4]:
                got = scorer(inst)
                ids = (inst.true_id,) + inst.distractor_ids
                if mode == "encoding":
                    want = baseline_scores(
                        "direct-encode", mode, images[inst.query_id],
                        [z[s, t] for (s, t) in ids], params,
                    )
                else:
                    s, t = inst.query_id
                    want = baseline_scores(
                        "direct-encode", mode, z[s, t], [images[s2] for s2 in ids], params,
                    )
                np.testing.assert_allclose(got, want, atol=1e-9)

    @_SCORER_DATASETS
    def test_direct_decode_scorer_matches_op(self, noisy):
        ds = self._dataset(noisy)
        params = init_direct_decoder(0, c=1, n=ds.neurons)
        scorer = make_direct_decode_scorer(params, ds)
        z = ds.zscored_responses()
        images = ds.images.astype(np.float64)
        for mode in ("encoding", "decoding"):
            for inst in build_tasks(ds, mode, 3, 1)[:4]:
                got = scorer(inst)
                ids = (inst.true_id,) + inst.distractor_ids
                if mode == "encoding":
                    want = baseline_scores(
                        "direct-decode", mode, images[inst.query_id],
                        [z[s, t] for (s, t) in ids], params,
                    )
                else:
                    s, t = inst.query_id
                    want = baseline_scores(
                        "direct-decode", mode, z[s, t], [images[s2] for s2 in ids], params,
                    )
                np.testing.assert_allclose(got, want, atol=1e-9)

    def test_neg_distance_scores_an_exact_copy_finite_and_first(self):
        # From the Gram matrix a row's squared distance to its own copy rounds
        # to a tiny value of either sign; a negative one must not become NaN.
        rng = np.random.default_rng(0)
        queries = 3.0 * rng.normal(size=(64, 64))
        cands = np.concatenate([3.0 * rng.normal(size=(8, 64)), queries])
        table = _neg_distance(queries, cands)
        assert np.isfinite(table).all()
        np.testing.assert_array_equal(np.argmax(table, axis=1), 8 + np.arange(64))

    def test_repeat_evaluation_bit_identical(self):
        ds, model = self._synth(noise=0.5)
        tasks = build_tasks(ds, "encoding", 4, 7)
        scorer = make_oracle_scorer(model, ds)
        a = evaluate(scorer, tasks, ds, method="oracle", k_requested=4, seed=7)
        b = evaluate(scorer, tasks, ds, method="oracle", k_requested=4, seed=7)
        assert a.to_json_dict() == b.to_json_dict()
