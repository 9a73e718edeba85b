"""The three benchmark workloads and the loop that runs them.

A run sets up several times (dataset generation, write and read; on
``eval-only`` also zero-epoch checkpoints), then repeats whole rounds until
the timed rounds add up to the requested seconds. A round trains every
method and scores it, plus the ground-truth oracle, exactly as
``crossalign compare`` and ``crossalign eval`` would. The correctness checks
run after each round, outside its timing, so every round attempts the same
operations and the share of failed ones does not depend on the run length.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import checks
from crossalign import dataio, evaluation, synthdata, trainer
from crossalign.dataio import RunConfig

METHODS = ("vna", "direct-encode", "direct-decode")
SCORED = METHODS + ("oracle",)
SCORERS = {
    "vna": "make_vna_scorer",
    "direct-encode": "make_direct_encode_scorer",
    "direct-decode": "make_direct_decode_scorer",
}


@dataclass(frozen=True)
class Spec:
    name: str
    stimuli: int
    neurons: int
    trials: int
    noise: float
    subsample: Optional[int]
    test_fraction: float
    dtype: str
    d: int
    batch: int
    epochs: dict  # method -> epochs trained in each round
    k: int
    eval_repeats: int  # scorer + tasks + evaluate repeats per method and round
    from_checkpoint: bool  # score zero-epoch checkpoints written during set-up
    auc_floor: Optional[float] = None  # VNA encoding and decoding AUC floor
    dtype_check: bool = False
    setups: int = 5


WORKLOADS = {
    spec.name: spec
    for spec in (
        # Criterion 4's dataset and VNA budget; the baselines get a short
        # fixed budget so that every workload reports every method.
        Spec("vna-clean", stimuli=200, neurons=64, trials=1, noise=0.0, subsample=None,
             test_fraction=0.2, dtype="float64", d=16, batch=64,
             epochs={"vna": 50, "direct-encode": 10, "direct-decode": 10},
             k=40, eval_repeats=10, from_checkpoint=False, auc_floor=0.95),
        # Criterion 6's dataset shape, one epoch of each method in float32.
        Spec("compare-noisy-f32", stimuli=300, neurons=256, trials=20, noise=1.0, subsample=48,
             test_fraction=0.2, dtype="float32", d=32, batch=256,
             epochs={"vna": 1, "direct-encode": 1, "direct-decode": 1},
             k=40, eval_repeats=3, from_checkpoint=False, dtype_check=True),
        # 420 test stimuli x 2 trials: K=400 is not clamped in either mode.
        Spec("eval-only", stimuli=500, neurons=64, trials=2, noise=0.0, subsample=None,
             test_fraction=0.84, dtype="float64", d=64, batch=64,
             epochs={"vna": 3, "direct-encode": 3, "direct-decode": 3},
             k=400, eval_repeats=1, from_checkpoint=True),
    )
}


def toy(spec: Spec) -> Spec:
    """A seconds-long version of a workload, for the benchmark's own tests."""
    return dataclasses.replace(
        spec, stimuli=20, neurons=8, trials=2, subsample=6 if spec.subsample else None,
        test_fraction=0.5 if spec.from_checkpoint else 0.2, d=4, batch=8,
        epochs={m: 1 for m in METHODS}, k=5 if spec.from_checkpoint else 3,
        eval_repeats=1, auc_floor=None, setups=1,
    )


def batch_sizes(method: str, examples: int, batch: int) -> list[int]:
    """Batches one epoch feeds to the optimizer, per the trainer's documented rules."""
    if method == "vna":  # the contrastive loss drops a short tail batch
        b = min(batch, examples)
        return [b] * (examples // b)
    sizes = [min(batch, examples - lo) for lo in range(0, examples, batch)]
    return [s for s in sizes if s >= 2]  # batch norm cannot train on one example


class Ledger:
    """Operations attempted and failed, and the outcome of every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, result: tuple, expected_fault: bool = False) -> None:
        ok, detail = result
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(("known fault: " if expected_fault else "") + detail)
            if not expected_fault:
                self.correct = False


@dataclass
class Setup:
    dataset: object
    data_dir: str
    checkpoints: dict = field(default_factory=dict)  # method -> (path, arrays)


@dataclass
class Round:
    wall_s: float = 0.0
    train_s: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    eval_rates: dict = field(default_factory=dict)  # method -> [instances/s per repeat]
    aucs: dict = field(default_factory=dict)
    checkpoint_sha256: dict = field(default_factory=dict)


class Runner:
    def __init__(self, spec: Spec, seed: int, work_dir: str, tracer=None):
        self.spec = spec
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.np_dtype = np.float32 if spec.dtype == "float32" else np.float64
        self.ledger = Ledger()
        self.setup_s: list[float] = []
        self.rounds: list[Round] = []
        self._first_reports: Optional[dict] = None

    # -- phases --------------------------------------------------------------

    def _phase(self, name: Optional[str]) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def config(self, method: str, epochs: int) -> RunConfig:
        s = self.spec
        return RunConfig(method=method, d=s.d, batch_size=s.batch, k=s.k, lr=0.01,
                         epochs=epochs, seed=self.seed, dataset=s.name, dtype=s.dtype)

    def set_up(self, index: int) -> Setup:
        s = self.spec
        data_dir = os.path.join(self.work_dir, f"data-{index}")
        self._phase("setup")
        t0 = time.perf_counter()
        spec = synthdata.SyntheticDatasetSpec(
            stimuli=s.stimuli, channels=1, neurons=s.neurons, trials=s.trials,
            noise=s.noise, seed=self.seed,
        )
        container, model = synthdata.generate_dataset(
            spec, test_fraction=s.test_fraction, subsample=s.subsample)
        dataio.write_dataset(container, data_dir)
        synthdata.save_forward_model(model, os.path.join(data_dir, synthdata.FORWARD_MODEL_FILE))
        dataset = dataio.read_dataset(data_dir)
        setup = Setup(dataset=dataset, data_dir=data_dir)
        if s.from_checkpoint:
            for method in METHODS:
                result = trainer.train(dataset, self.config(method, 0))
                path = os.path.join(data_dir, f"{method}.ckpt")
                trainer.save_checkpoint(result, path)
                setup.checkpoints[method] = (path, checks.model_arrays(result))
        self.setup_s.append(time.perf_counter() - t0)
        self._phase(None)
        if s.from_checkpoint:
            self.ledger.ops(len(METHODS))  # checkpoint writes
        return setup

    def _score(self, method: str, setup: Setup, params, rnd: Round, loads: list):
        """What ``crossalign eval`` does for one method, repeated; returns the reports."""
        s, dataset = self.spec, setup.dataset
        reports, tasks = [], None
        for _ in range(s.eval_repeats):
            t0 = time.perf_counter()
            if method == "oracle":
                model = synthdata.load_forward_model(
                    os.path.join(setup.data_dir, synthdata.FORWARD_MODEL_FILE))
                scorer = evaluation.make_oracle_scorer(model, dataset)
            else:
                if s.from_checkpoint:
                    loaded = trainer.load_checkpoint(setup.checkpoints[method][0])
                    loads.append(loaded)
                    params = loaded.params
                scorer = getattr(evaluation, SCORERS[method])(params, dataset)
            tasks = (evaluation.build_tasks(dataset, "encoding", s.k, self.seed)
                     + evaluation.build_tasks(dataset, "decoding", s.k, self.seed))
            report = evaluation.evaluate(scorer, tasks, dataset, method=method,
                                         k_requested=s.k, seed=self.seed)
            elapsed = time.perf_counter() - t0
            rnd.eval_rates.setdefault(method, []).append(len(tasks) / elapsed)
            reports.append(report)
            if self.tracer is not None:
                width = self._feature_width(method, dataset)
                self.tracer.count("evaluation.gathered_bytes",
                                  sum(inst.k for inst in tasks) * width * 8)
        return reports, tasks

    def _feature_width(self, method: str, dataset) -> int:
        if method == "vna":
            return self.spec.d
        if method == "direct-decode":
            return dataset.channels * dataio.IMAGE_SIZE * dataio.IMAGE_SIZE
        return dataset.neurons

    def run_round(self, setup: Setup) -> Round:
        s, dataset = self.spec, setup.dataset
        rnd = Round()
        outputs = {}
        self._phase("round")
        start = time.perf_counter()
        examples = len(dataset.train_ids) * dataset.trials
        for method in METHODS:
            t0 = time.perf_counter()
            result = trainer.train(dataset, self.config(method, s.epochs[method]))
            rnd.train_s[method] = time.perf_counter() - t0
            rnd.samples[method] = s.epochs[method] * sum(batch_sizes(method, examples, s.batch))
            loads: list = []
            ckpt = None
            if not s.from_checkpoint:
                ckpt = os.path.join(self.work_dir, f"{method}.ckpt")
                trainer.save_checkpoint(result, ckpt)
                loads.append(trainer.load_checkpoint(ckpt, expect_method=method))
            reports, tasks = self._score(method, setup, result.params, rnd, loads)
            outputs[method] = (result, reports, tasks, loads, ckpt)
        oracle = self._score("oracle", setup, None, rnd, [])
        rnd.wall_s = time.perf_counter() - start
        self._phase(None)
        self._check_round(setup, rnd, outputs, oracle)
        self.rounds.append(rnd)
        return rnd

    # -- checks (outside the timed part) ---------------------------------------

    def _check_round(self, setup: Setup, rnd: Round, outputs: dict, oracle) -> None:
        s, ledger, dataset = self.spec, self.ledger, setup.dataset
        tol = 1e-5 if s.dtype == "float32" else 1e-9
        examples = len(dataset.train_ids) * dataset.trials
        model = synthdata.load_forward_model(
            os.path.join(setup.data_dir, synthdata.FORWARD_MODEL_FILE))
        reports_now = {}
        for method, (result, reports, tasks, loads, ckpt) in outputs.items():
            steps = s.epochs[method] * len(batch_sizes(method, examples, s.batch))
            ledger.ops(result.history.steps + len(tasks) * len(reports) + len(loads))
            ledger.check((result.history.steps == steps,
                          f"{method}: {result.history.steps} steps, expected {steps}"))
            ledger.check(checks.check_losses(method, result.history.losses, min(s.batch, examples)))
            if s.from_checkpoint:
                ckpt, saved = setup.checkpoints[method]
            else:
                saved = checks.model_arrays(result)
                ledger.ops(1)  # checkpoint write
            with open(ckpt, "rb") as fh:
                rnd.checkpoint_sha256[method] = hashlib.sha256(fh.read()).hexdigest()
            for loaded in loads:
                ledger.check(checks.check_same_arrays(
                    saved, checks.model_arrays(loaded), f"{method} checkpoint"))
            params = loads[0].params if s.from_checkpoint else result.params
            table = checks.score_table(method, params, dataset)
            ledger.check(checks.check_report_aucs(reports[0], tasks, table, tol))
            ledger.check(checks.check_schema(reports[0]))
            ledger.check(checks.check_identical_reports(reports))
            if method == "vna" and s.auc_floor is not None:
                ledger.check(checks.check_auc_floor(reports[0], s.auc_floor))
            if s.dtype_check:
                ledger.check(checks.check_output_dtype(method, result.params, dataset, self.np_dtype),
                             expected_fault=True)
            reports_now[method] = reports[0]
        reports, tasks = oracle
        ledger.ops(len(tasks) * len(reports))
        table = checks.score_table("oracle", None, dataset, model)
        ledger.check(checks.check_report_aucs(reports[0], tasks, table, 1e-9))
        ledger.check(checks.check_schema(reports[0]))
        ledger.check(checks.check_identical_reports(reports))
        if s.noise == 0.0:
            ledger.check(checks.check_oracle_exact(reports[0]))
        reports_now["oracle"] = reports[0]
        rnd.aucs = {m: [r.encoding_auc, r.decoding_auc] for m, r in reports_now.items()}
        if self._first_reports is None:
            self._first_reports = reports_now
        ledger.check(self._same_as_first(reports_now))

    def _same_as_first(self, reports_now: dict) -> tuple[bool, str]:
        for method in SCORED:
            ok, _ = checks.check_identical_reports([self._first_reports[method], reports_now[method]])
            if not ok:
                return False, f"{method}: this round's report differs from the first round's"
        return True, "every round gives the same reports"

    # -- the whole run -----------------------------------------------------------

    def run(self, seconds: float) -> None:
        setup = None
        for i in range(self.spec.setups):
            setup = self.set_up(i)
        timed = 0.0
        while not self.rounds or timed < seconds:
            timed += self.run_round(setup).wall_s

    def metrics(self) -> dict:
        med = statistics.median
        out = {"setup_s": (med(self.setup_s), "s")}
        for m in METHODS:
            out[f"train_samples_per_s.{m}"] = (
                med([r.samples[m] / r.train_s[m] for r in self.rounds]), "samples/s")
        for m in SCORED:
            out[f"eval_instances_per_s.{m}"] = (
                med([v for r in self.rounds for v in r.eval_rates[m]]), "instances/s")
        out["total_s"] = (med([r.wall_s for r in self.rounds]), "s")
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        return out

    def summary(self) -> dict:
        """What a traced and an untraced run of one seed must agree on."""
        last = self.rounds[-1]
        return {
            "workload": self.spec.name,
            "seed": self.seed,
            "rounds": len(self.rounds),
            "aucs": last.aucs,
            "checkpoint_sha256": last.checkpoint_sha256,
            "failures": self.ledger.failures,
        }

    def clean_up(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
