"""Span tracing around the public functions of each crossalign layer.

The tracer patches module attributes while it is installed and restores
them on ``uninstall``; nothing in the package itself changes. Every patched
function records one span (name, start, end, parent, phase). A tensor op
that returns a node with a gradient closure gets that closure wrapped too,
so backward time is attributed per op. Spans stay in memory until the run
ends.

Spans are recorded only while ``phase`` is ``"setup"`` or ``"round"``;
``None`` pauses recording (the correctness checks run paused).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from crossalign import (
    alignment,
    baselines,
    cli,
    dataio,
    encoders,
    evaluation,
    synthdata,
    tensor,
    trainer,
)

# Public tensor ops that build graph nodes. Operator sugar (``a + b``,
# ``x.reshape``) binds the originals at import time and stays unwrapped.
TENSOR_OPS = (
    "add", "sub", "mul", "div", "neg", "matmul", "transpose", "reshape",
    "flatten", "linear", "tsum", "tmean", "sqrt", "exp", "log", "leaky_relu",
    "sigmoid", "logsumexp", "l2_norm", "normalize_rows", "clip_unit",
    "conv2d", "conv_transpose2d", "batch_norm",
)

# (span name, function name, namespaces holding a binding of it)
LAYER_FUNCTIONS = (
    ("encoders.visual_encode", "visual_encode", (encoders, trainer, evaluation)),
    ("encoders.spike_encode", "spike_encode", (encoders, trainer, evaluation)),
    ("baselines.direct_encode_predict", "direct_encode_predict", (baselines, trainer, evaluation)),
    ("baselines.direct_decode_predict", "direct_decode_predict", (baselines, trainer, evaluation)),
    ("baselines.mse_loss", "mse_loss", (baselines, trainer)),
    ("alignment.similarity_matrix", "similarity_matrix", (alignment,)),
    ("alignment.contrastive_loss", "contrastive_loss", (alignment,)),
    ("trainer.train", "train", (trainer, cli)),
    ("trainer.adam_step", "adam_step", (trainer,)),
    ("trainer.save_checkpoint", "save_checkpoint", (trainer, cli)),
    ("trainer.load_checkpoint", "load_checkpoint", (trainer, cli)),
    ("evaluation.build_tasks", "build_tasks", (evaluation, cli)),
    ("evaluation.evaluate", "evaluate", (evaluation, cli)),
    ("evaluation.make_vna_scorer", "make_vna_scorer", (evaluation, cli)),
    ("evaluation.make_direct_encode_scorer", "make_direct_encode_scorer", (evaluation, cli)),
    ("evaluation.make_direct_decode_scorer", "make_direct_decode_scorer", (evaluation, cli)),
    ("evaluation.make_oracle_scorer", "make_oracle_scorer", (evaluation, cli)),
    ("synthdata.generate_dataset", "generate_dataset", (synthdata, cli)),
    ("synthdata.load_forward_model", "load_forward_model", (synthdata, cli)),
    ("dataio.write_dataset", "write_dataset", (dataio, cli)),
    ("dataio.read_dataset", "read_dataset", (dataio, cli)),
)

SCORER_SPANS = (
    "evaluation.make_vna_scorer", "evaluation.make_direct_encode_scorer",
    "evaluation.make_direct_decode_scorer", "evaluation.make_oracle_scorer",
)

MIB = float(1 << 20)

# Work counts taken from a traced call's arguments: span name -> (key, value).
CALL_COUNTERS = {
    "trainer.adam_step": lambda *a, **k: ("trainer.steps", 1),
    "evaluation.evaluate": lambda scorer, tasks, *a, **k: ("evaluation.instances", len(tasks)),
    "dataio.write_dataset": lambda container, *a, **k: (
        "dataio.dataset_bytes", 4 * (container.images.size + container.responses.size)),
}


class Tracer:
    """In-memory span recorder plus the monkeypatches that feed it."""

    def __init__(self, run_dtype=np.float64):
        self.run_itemsize = np.dtype(run_dtype).itemsize
        self.phase = None
        self.spans: list = []  # (name, start, end, parent index, phase)
        self.counters: dict = defaultdict(float)  # (phase, key) -> value
        self._stack = [-1]
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        if self.phase is None:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        phase = self.phase
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, self._stack[-1], phase)

    def count(self, key: str, value: float) -> None:
        if self.phase is not None:
            self.counters[(self.phase, key)] += value

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_function(self, name: str, fn):
        tracer = self
        counter = CALL_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None and tracer.phase is not None:
                key, value = counter(*args, **kwargs)
                tracer.count(key, value)
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_op(self, op_name: str, fn):
        tracer = self
        fwd_name = f"tensor.{op_name}.fwd"
        bwd_name = f"tensor.{op_name}.bwd"
        is_conv = op_name in ("conv2d", "conv_transpose2d")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(fwd_name, fn, *args, **kwargs)
            if tracer.phase is None:
                return out
            tracer.count("tensor.output_bytes", out.data.nbytes)
            if out.data.dtype.itemsize > tracer.run_itemsize:
                tracer.count("tensor.upcast_outputs", 1)
            flops = 0.0
            if is_conv:
                x, w = args[0], args[1]
                if op_name == "conv_transpose2d":
                    b, ci, h, wd = x.shape
                    _, co, k, _ = w.shape
                    flops = 2.0 * b * h * wd * ci * co * k * k
                else:
                    b, co, ho, wo = out.shape
                    _, ci, k, _ = w.shape
                    flops = 2.0 * b * ho * wo * co * ci * k * k
                tracer.count(f"tensor.{op_name}.fwd_flops", flops)
            vjp = out._vjp
            if vjp is not None:
                def timed_vjp(g, needs):
                    if is_conv:
                        # one GEMM of the forward's size per operand gradient
                        tracer.count(f"tensor.{op_name}.bwd_flops", flops * (needs[0] + needs[1]))
                    return tracer.call(bwd_name, vjp, g, needs)

                out._vjp = timed_vjp
            return out

        return wrapper

    def install(self) -> "Tracer":
        for op_name in TENSOR_OPS:
            self._patch(tensor, op_name, self._wrap_op(op_name, getattr(tensor, op_name)))
        self._patch(tensor.Tensor, "backward",
                    self._wrap_function("tensor.backward", tensor.Tensor.backward))
        self._patch(synthdata.ForwardModel, "clean_rates",
                    self._wrap_function("synthdata.clean_rates", synthdata.ForwardModel.clean_rates))
        for span_name, attr, owners in LAYER_FUNCTIONS:
            for owner in owners:
                original = getattr(owner, attr)
                self._patch(owner, attr, self._wrap_function(span_name, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Per (phase, name): summed span time and summed self time."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        for i, (name, t0, t1, _, phase) in enumerate(self.spans):
            total[(phase, name)] += t1 - t0
            self_time[(phase, name)] += (t1 - t0) - child[i]
        return total, self_time

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "fields": ["name", "start", "end", "parent", "phase"],
            "spans": [[index[n], t0, t1, p, ph] for n, t0, t1, p, ph in self.spans],
            "counters": {f"{ph}:{k}": v for (ph, k), v in sorted(self.counters.items())},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def span_cost(n: int = 20000) -> float:
    """Seconds one traced op call adds, measured on a one-element op with a gradient."""
    probe = Tracer()
    probe.phase = "round"
    traced_neg = probe._wrap_op("neg", tensor.neg)
    x = tensor.Tensor(np.zeros(1), requires_grad=True)

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(x)
        return time.perf_counter() - t0

    return max(loop(traced_neg) - loop(tensor.neg), 0.0) / n


def layer_metrics(tracer: Tracer, n_setups: int, n_rounds: int, round_s: list) -> dict:
    """Per-layer figures: one set-up's spans plus one round's spans.

    Set-up spans are averaged over the set-ups and round spans over the
    rounds, so the figures do not grow with the run length.
    """
    total, self_time = tracer.totals()
    scale = {"setup": 1.0 / n_setups, "round": 1.0 / n_rounds}

    def t(name: str) -> float:
        return sum(total.get((ph, name), 0.0) * f for ph, f in scale.items())

    def s(name: str) -> float:
        return sum(self_time.get((ph, name), 0.0) * f for ph, f in scale.items())

    def c(key: str) -> float:
        return sum(tracer.counters.get((ph, key), 0.0) * f for ph, f in scale.items())

    out: dict = {}
    for op in ("conv2d", "conv_transpose2d"):
        fwd, bwd = t(f"tensor.{op}.fwd"), t(f"tensor.{op}.bwd")
        flops = c(f"tensor.{op}.fwd_flops") + c(f"tensor.{op}.bwd_flops")
        out[f"tensor.{op}.fwd_s"] = (fwd, "s")
        out[f"tensor.{op}.bwd_s"] = (bwd, "s")
        out[f"tensor.{op}.gflops"] = (flops / (fwd + bwd) / 1e9 if fwd + bwd > 0 else 0.0, "GF/s")
    for op in ("batch_norm", "leaky_relu", "linear"):
        out[f"tensor.{op}.fwd_s"] = (t(f"tensor.{op}.fwd"), "s")
        out[f"tensor.{op}.bwd_s"] = (t(f"tensor.{op}.bwd"), "s")
    out["tensor.backward.other_s"] = (s("tensor.backward"), "s")
    out["tensor.output_mb"] = (c("tensor.output_bytes") / MIB, "MB")
    out["tensor.upcast_outputs"] = (c("tensor.upcast_outputs"), "count")
    out["encoders.visual_encode_s"] = (t("encoders.visual_encode"), "s")
    out["encoders.spike_encode_s"] = (t("encoders.spike_encode"), "s")
    out["baselines.direct_decode_predict_s"] = (t("baselines.direct_decode_predict"), "s")
    out["alignment.contrastive_loss_s"] = (
        t("alignment.similarity_matrix") + t("alignment.contrastive_loss"), "s")
    out["trainer.backward_s"] = (t("tensor.backward"), "s")
    out["trainer.adam_step_s"] = (t("trainer.adam_step"), "s")
    out["trainer.loop_other_s"] = (s("trainer.train"), "s")
    out["trainer.steps"] = (c("trainer.steps"), "count")
    out["trainer.save_checkpoint_s"] = (t("trainer.save_checkpoint"), "s")
    out["trainer.load_checkpoint_s"] = (t("trainer.load_checkpoint"), "s")
    out["evaluation.scorer_setup_s"] = (sum(t(n) for n in SCORER_SPANS), "s")
    out["evaluation.build_tasks_s"] = (t("evaluation.build_tasks"), "s")
    out["evaluation.evaluate_s"] = (t("evaluation.evaluate"), "s")
    out["evaluation.instances"] = (c("evaluation.instances"), "count")
    out["evaluation.gathered_mb"] = (c("evaluation.gathered_bytes") / MIB, "MB")
    out["synthdata.generate_dataset_s"] = (t("synthdata.generate_dataset"), "s")
    out["synthdata.clean_rates_s"] = (t("synthdata.clean_rates"), "s")
    out["dataio.write_dataset_s"] = (t("dataio.write_dataset"), "s")
    out["dataio.read_dataset_s"] = (t("dataio.read_dataset"), "s")
    out["dataio.dataset_mb"] = (c("dataio.dataset_bytes") / MIB, "MB")
    spans_per_round = sum(1 for sp in tracer.spans if sp[4] == "round") / n_rounds
    out["trace.total_s"] = (float(np.median(round_s)), "s")
    out["trace.spans"] = (spans_per_round, "count")
    # only call after uninstall: span_cost times the unwrapped tensor.neg
    out["trace.overhead_s"] = (spans_per_round * span_cost(), "s")
    return out
