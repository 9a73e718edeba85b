"""Acceptance checklist: eight executable claims about the toolkit.

Each test prints one `[criterion N] name: PASS/FAIL (...)` line straight to
the terminal, bypassing pytest's capture, so a full run reads as a checklist
even when everything is green. The training criteria (4 through 6) dominate
the runtime; the whole file is sized for a single laptop-class CPU core.
"""

import math
import time

import numpy as np
import pytest

import crossalign.tensor as T
from crossalign.alignment import contrastive_loss, loss_lower_bound, similarity_matrix
from crossalign.cli import main
from crossalign.dataio import RunConfig, read_dataset, write_dataset
from crossalign.encoders import make_conv_tower, make_spike_encoder, spike_encode, visual_encode
from crossalign.errors import DataError
from crossalign.evaluation import (
    auc_single,
    build_tasks,
    evaluate,
    make_direct_decode_scorer,
    make_direct_encode_scorer,
    make_vna_scorer,
)
from crossalign.synthdata import SyntheticDatasetSpec, generate_dataset
from crossalign.tensor import Tensor
from crossalign.trainer import train

from gradcheck import finite_diff_grad

METHODS = ("vna", "direct-encode", "direct-decode")
SCORERS = {
    "vna": make_vna_scorer,
    "direct-encode": make_direct_encode_scorer,
    "direct-decode": make_direct_decode_scorer,
}


@pytest.fixture
def announce(capfd):
    def _go(num, name, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        with capfd.disabled():
            print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
        assert ok, f"criterion {num} {name}{tail}"

    return _go


def _train_and_score(dataset, method, seed, d, batch, epochs, k, dtype="float64"):
    """Train one method and evaluate both retrieval modes at the same K."""
    config = RunConfig(method=method, d=d, batch_size=batch, k=k, lr=0.01,
                       epochs=epochs, seed=seed, dataset=dataset.dataset_id, dtype=dtype)
    result = train(dataset, config)
    scorer = SCORERS[method](result.params, dataset)
    tasks = build_tasks(dataset, "encoding", k, seed) + build_tasks(dataset, "decoding", k, seed)
    return evaluate(scorer, tasks, dataset, method=method, k_requested=k, seed=seed)


# -- criterion 1: autodiff vs finite differences ----------------------------------


def _weighted(out, w):
    # random linear functional makes the scalar sensitive to every output entry
    return T.tsum(out * Tensor(w))


def _signed(rng, shape, gap, hi):
    """Values with |x| >= gap: keeps finite differences away from kinks at 0."""
    mag = rng.uniform(gap, hi, shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return Tensor(mag * sign, requires_grad=True)


def _grad_cases(rng, rep):
    def t(shape, lo=-2.0, hi=2.0):
        return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)

    def w(*shape):
        return rng.normal(size=shape)

    yield "add", [t((4, 5)), t((4, 5))], lambda a, b, w=w(4, 5): _weighted(T.add(a, b), w)
    yield "sub", [t((4, 5)), t((4, 5))], lambda a, b, w=w(4, 5): _weighted(T.sub(a, b), w)
    yield "mul", [t((4, 5)), t((4, 5))], lambda a, b, w=w(4, 5): _weighted(T.mul(a, b), w)
    yield "div", [t((4, 5)), _signed(rng, (4, 5), 0.5, 2.0)], \
        lambda a, b, w=w(4, 5): _weighted(T.div(a, b), w)
    yield "neg", [t((4, 5))], lambda a, w=w(4, 5): _weighted(T.neg(a), w)
    yield "matmul", [t((3, 4)), t((4, 2))], lambda a, b, w=w(3, 2): _weighted(T.matmul(a, b), w)
    yield "transpose", [t((3, 5))], lambda a, w=w(5, 3): _weighted(T.transpose(a), w)
    yield "reshape", [t((2, 6))], lambda a, w=w(3, 4): _weighted(T.reshape(a, (3, 4)), w)
    yield "flatten", [t((3, 4))], lambda a, w=w(12): _weighted(T.flatten(a), w)
    yield "linear", [t((4, 3)), t((5, 3)), t((5,))], \
        lambda x, wt, b, w=w(4, 5): _weighted(T.linear(x, wt, b), w)
    yield "sum", [t((4, 5))], lambda a: T.tsum(a) * 1.7
    yield "sum_ax0", [t((4, 5))], lambda a, w=w(5): _weighted(T.tsum(a, axis=0), w)
    yield "sum_ax1", [t((4, 5))], lambda a, w=w(4): _weighted(T.tsum(a, axis=1), w)
    yield "mean", [t((4, 5))], lambda a: T.tmean(a) * 2.3
    yield "mean_ax0", [t((4, 5))], lambda a, w=w(5): _weighted(T.tmean(a, axis=0), w)
    yield "mean_ax1", [t((4, 5))], lambda a, w=w(4): _weighted(T.tmean(a, axis=1), w)
    yield "sqrt", [t((4, 5), 0.3, 3.0)], lambda a, w=w(4, 5): _weighted(T.sqrt(a), w)
    yield "exp", [t((4, 5), -2.0, 1.0)], lambda a, w=w(4, 5): _weighted(T.exp(a), w)
    yield "log", [t((4, 5), 0.4, 3.0)], lambda a, w=w(4, 5): _weighted(T.log(a), w)
    yield "leaky_relu", [_signed(rng, (4, 5), 0.15, 2.0)], \
        lambda a, w=w(4, 5): _weighted(T.leaky_relu(a, 0.01), w)
    yield "sigmoid", [t((4, 5), -3.0, 3.0)], lambda a, w=w(4, 5): _weighted(T.sigmoid(a), w)
    yield "logsumexp_ax0", [t((4, 6))], lambda a, w=w(6): _weighted(T.logsumexp(a, axis=0), w)
    yield "logsumexp_ax1", [t((4, 6))], lambda a, w=w(4): _weighted(T.logsumexp(a, axis=1), w)
    yield "l2_norm_ax0", [_signed(rng, (4, 6), 0.3, 2.0)], \
        lambda a, w=w(6): _weighted(T.l2_norm(a, axis=0), w)
    yield "l2_norm_ax1", [_signed(rng, (4, 6), 0.3, 2.0)], \
        lambda a, w=w(4): _weighted(T.l2_norm(a, axis=1), w)
    yield "normalize_rows", [_signed(rng, (4, 5), 0.3, 2.0)], \
        lambda a, w=w(4, 5): _weighted(T.normalize_rows(a), w)

    # clipped region boundary at |x| = 1: keep samples a safe distance away
    inside = rng.uniform(-0.9, 0.9, (4, 5))
    outside = _signed(rng, (4, 5), 1.2, 2.0).data
    mix = np.where(rng.random((4, 5)) < 0.5, inside, outside)
    yield "clip_unit", [Tensor(mix, requires_grad=True)], \
        lambda a, w=w(4, 5): _weighted(T.clip_unit(a), w)

    def bn_train(x, gamma, beta, w, nch):
        rm, rv = np.zeros(nch), np.ones(nch)  # fresh buffers: forward stays pure
        return _weighted(T.batch_norm(x, gamma, beta, rm, rv, training=True), w)

    yield "batch_norm_2d", [t((6, 4)), t((4,), 0.5, 1.5), t((4,))], \
        lambda x, g, b, w=w(6, 4): bn_train(x, g, b, w, 4)
    yield "batch_norm_4d", [t((4, 3, 4, 4)), t((3,), 0.5, 1.5), t((3,))], \
        lambda x, g, b, w=w(4, 3, 4, 4): bn_train(x, g, b, w, 3)
    rm_e, rv_e = rng.normal(size=4), rng.uniform(0.5, 2.0, 4)
    yield "batch_norm_eval", [t((5, 4)), t((4,), 0.5, 1.5), t((4,))], \
        lambda x, g, b, w=w(5, 4): _weighted(
            T.batch_norm(x, g, b, rm_e, rv_e, training=False), w)

    if rep < 8:  # convolution finite differences are the slow part of the sweep
        yield "conv2d_s2", [t((2, 2, 8, 8), -1, 1), t((3, 2, 4, 4), -0.5, 0.5), t((3,))], \
            lambda x, wt, b, w=w(2, 3, 4, 4): _weighted(T.conv2d(x, wt, b, stride=2, padding=1), w)
        yield "conv2d_s1", [t((2, 2, 5, 5), -1, 1), t((4, 2, 3, 3), -0.5, 0.5), t((4,))], \
            lambda x, wt, b, w=w(2, 4, 3, 3): _weighted(T.conv2d(x, wt, b, stride=1, padding=0), w)
        yield "conv_transpose2d_s2", \
            [t((2, 3, 3, 3), -1, 1), t((3, 2, 4, 4), -0.5, 0.5), t((2,))], \
            lambda x, wt, b, w=w(2, 2, 6, 6): _weighted(
                T.conv_transpose2d(x, wt, b, stride=2, padding=1), w)
        yield "conv_transpose2d_s1", \
            [t((2, 2, 4, 4), -1, 1), t((2, 3, 3, 3), -0.5, 0.5), t((3,))], \
            lambda x, wt, b, w=w(2, 3, 6, 6): _weighted(
                T.conv_transpose2d(x, wt, b, stride=1, padding=0), w)


def _max_rel(ad: np.ndarray, fd: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-2)
    return float(np.max(np.abs(ad - fd) / scale))


def _fd_inplace(value_fn, arr, h=1e-5):
    """Central differences against a closure that reads ``arr`` in place."""
    g = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = value_fn()
        flat[i] = orig - h
        lo = value_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return g


def _sweep_ops(rng, failures):
    worst = 0.0
    for rep in range(20):
        for name, tensors, fn in _grad_cases(rng, rep):
            fn(*tensors).backward()
            for i, leaf in enumerate(tensors):
                def partial(probe, i=i):
                    args = list(tensors)
                    args[i] = probe
                    with T.no_grad():
                        return float(fn(*args))

                rel = _max_rel(leaf.grad, finite_diff_grad(partial, leaf))
                worst = max(worst, rel)
                if rel > 1e-4:
                    failures.append(f"{name}[arg{i}] rel {rel:.2e}")
    return worst


def _check_tower(encode, params_obj, x, out_dim, rng, failures, label):
    w = rng.normal(size=(x.shape[0], out_dim))
    saved = {k: v.copy() for k, v in params_obj.named_buffers().items()}

    def restore():
        for k, v in params_obj.named_buffers().items():
            v[:] = saved[k]

    loss = _weighted(encode(params_obj, x, mode="train"), w)
    loss.backward()
    restore()

    def value():
        with T.no_grad():
            val = float(_weighted(encode(params_obj, x, mode="train"), w))
        restore()
        return val

    worst = 0.0
    checks = [("input", x.grad, x.data)]
    checks += [(k, p.grad, p.data) for k, p in params_obj.named_parameters().items()]
    for name, ad, arr in checks:
        rel = _max_rel(ad, _fd_inplace(value, arr))
        worst = max(worst, rel)
        if rel > 1e-4:
            failures.append(f"{label}.{name} rel {rel:.2e}")
    return worst


def test_criterion_1_gradient_suite(announce):
    start = time.perf_counter()
    assert T.get_default_dtype() == np.float64
    rng = np.random.default_rng(20240819)
    failures: list = []
    worst = _sweep_ops(rng, failures)

    vis = make_conv_tower(np.random.default_rng(np.random.SeedSequence([0, 99])),
                          channels=1, latent_dim=6, block_channels=(4, 8, 8), input_size=8)
    x_img = Tensor(rng.uniform(0.1, 0.9, (2, 1, 8, 8)), requires_grad=True)
    worst = max(worst, _check_tower(visual_encode, vis, x_img, 6, rng, failures, "visual"))

    spk = make_spike_encoder(np.random.default_rng(np.random.SeedSequence([1, 99])),
                             neurons=5, latent_dim=4)
    x_spk = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    worst = max(worst, _check_tower(spike_encode, spk, x_spk, 4, rng, failures, "spike"))

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    detail = f"worst rel {worst:.2e}, {elapsed:.1f}s"
    if failures:
        detail += f"; first failures: {failures[:3]}"
    announce(1, "gradient suite vs finite differences", ok, detail)


# -- criterion 2: contrastive loss identities and lower bound ---------------------


def test_criterion_2_loss_identities(announce):
    err_zero = abs(float(contrastive_loss(Tensor(np.zeros((4, 4))))) - math.log(4.0))
    pm = Tensor(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    err_pm = abs(float(contrastive_loss(pm)) - math.log(1.0 + math.exp(-2.0)))

    rng = np.random.default_rng(2)
    margin = math.inf
    with T.no_grad():
        for n in (2, 4, 256):
            bound = loss_lower_bound(n)
            for _ in range(1000):
                a = Tensor(rng.normal(size=(n, 8)))
                b = Tensor(rng.normal(size=(n, 8)))
                val = float(contrastive_loss(similarity_matrix(a, b)))
                margin = min(margin, val - bound)

    ok = err_zero <= 1e-12 and err_pm <= 1e-12 and margin >= 0.0
    announce(2, "loss identities and lower bound", ok,
             f"identity errors {err_zero:.1e}/{err_pm:.1e}, min bound margin {margin:.4f}")


# -- criterion 3: AUC vs brute-force counting --------------------------------------


def test_criterion_3_auc_matches_brute_force(announce):
    def brute(true_score, distractors):
        total = 0.0
        for d in distractors:
            if true_score > d:
                total += 1.0
            elif true_score == d:
                total += 0.5
        return total / len(distractors)

    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(10000):
        k = int(rng.integers(1, 60))
        if rng.random() < 0.5:
            scores = rng.normal(size=k + 1)
        else:
            scores = rng.integers(0, 4, size=k + 1) / 3.0  # coarse grid forces ties
        if auc_single(float(scores[0]), scores[1:]) != brute(float(scores[0]), scores[1:]):
            mismatches += 1

    announce(3, "AUC equals brute-force pairwise counting", mismatches == 0,
             f"{mismatches} mismatches in 10000 instances")


# -- criterion 4: noiseless separability ------------------------------------------


def test_criterion_4_noiseless_separability(announce):
    start = time.perf_counter()
    dataset, _ = generate_dataset(SyntheticDatasetSpec(
        stimuli=200, channels=1, neurons=64, trials=1, noise=0.0, seed=0))
    assert len(dataset.test_ids) == 40
    report = _train_and_score(dataset, "vna", seed=0, d=16, batch=64, epochs=50, k=40)
    elapsed = time.perf_counter() - start
    enc, dec = report.encoding_auc, report.decoding_auc
    ok = enc >= 0.95 and dec >= 0.95 and elapsed <= 600.0
    announce(4, "noiseless separability", ok,
             f"encoding {enc:.3f}, decoding {dec:.3f}, {elapsed:.0f}s")


# -- criterion 5: null control ------------------------------------------------------


def test_criterion_5_null_control(announce):
    per_method: dict = {m: [] for m in METHODS}
    for seed in (0, 1, 2):
        dataset, _ = generate_dataset(SyntheticDatasetSpec(
            stimuli=200, channels=1, neurons=64, trials=1, noise=math.inf, seed=seed))
        for method in METHODS:
            report = _train_and_score(dataset, method, seed=seed, d=16, batch=64,
                                      epochs=3, k=40)
            per_method[method].append(report.average_auc)

    means = {m: float(np.mean(v)) for m, v in per_method.items()}
    ok = all(0.45 <= m <= 0.55 for m in means.values())
    announce(5, "null control sits at chance", ok,
             ", ".join(f"{m} {v:.3f}" for m, v in means.items()))


# -- criterion 6: method ordering on noisy bottlenecked data ------------------------


def test_criterion_6_method_ordering(announce):
    per_method: dict = {m: [] for m in METHODS}
    for seed in (0, 1, 2):
        dataset, _ = generate_dataset(SyntheticDatasetSpec(
            stimuli=300, channels=1, neurons=256, trials=20, noise=1.0, seed=seed),
            subsample=48)
        for method in METHODS:
            report = _train_and_score(dataset, method, seed=seed, d=32, batch=256,
                                      epochs=5, k=40, dtype="float32")
            per_method[method].append(report.average_auc)

    means = {m: float(np.mean(v)) for m, v in per_method.items()}
    ok = all(means["vna"] >= means[m] - 0.01 for m in ("direct-encode", "direct-decode"))
    announce(6, "contrastive alignment leads on noisy data", ok,
             ", ".join(f"{m} {v:.3f}" for m, v in means.items()))


# -- criterion 7: comparison reruns are byte-identical ------------------------------


def test_criterion_7_compare_determinism(announce, tmp_path):
    data = tmp_path / "data"
    rc = main(["gen-data", "--stimuli", "20", "--neurons", "8", "--trials", "2",
               "--noise", "0.5", "--seed", "1", "--out", str(data)])
    assert rc == 0
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["compare", "--data", str(data), "--out", str(out), "--d", "4",
                   "--batch-size", "8", "--epochs", "2", "--seed", "0", "--K", "4"])
        assert rc == 0
        blobs.append((out / "compare.json").read_bytes())

    announce(7, "compare twice is byte-identical", blobs[0] == blobs[1],
             f"{len(blobs[0])} bytes each")


# -- criterion 8: container round-trip ----------------------------------------------


def test_criterion_8_container_round_trip(announce, tmp_path):
    dataset, _ = generate_dataset(SyntheticDatasetSpec(
        stimuli=118, channels=1, neurons=800, trials=50, noise=0.5, seed=7))
    out = tmp_path / "big"
    write_dataset(dataset, str(out))

    sizes_ok = (
        (out / "images.bin").stat().st_size == 4 * 118 * 1 * 64 * 64
        and (out / "responses.bin").stat().st_size == 4 * 118 * 50 * 800
    )
    loaded = read_dataset(str(out))
    exact = (
        loaded.images.tobytes() == dataset.images.tobytes()
        and loaded.responses.tobytes() == dataset.responses.tobytes()
        and loaded.train_ids == dataset.train_ids
        and loaded.test_ids == dataset.test_ids
        and np.array_equal(loaded.stats_mean, dataset.stats_mean)
        and np.array_equal(loaded.stats_std, dataset.stats_std)
        and loaded.dataset_id == dataset.dataset_id
    )

    blob = out / "responses.bin"
    blob.write_bytes(blob.read_bytes()[:-4])
    try:
        read_dataset(str(out))
        caught = False
    except DataError as e:
        caught = "bytes" in str(e)

    ok = sizes_ok and exact and caught
    announce(8, "container round-trip is bit-exact", ok,
             f"sizes_ok={sizes_ok}, exact={exact}, truncation caught={caught}")
