"""Command-line interface: gen-data, train, eval, compare.

Every command is deterministic given its flags; all randomness flows from the
--seed values through named SeedSequence streams. Exit codes: 0 success,
1 usage error, 2 data error, 3 numeric failure.

Report files: --json documents validate against the schemas shipped in
crossalign/schemas/; --csv files use the fixed column order
dataset,method,mode,K,seed,auc. Comparison reports contain no wall-clock
fields, so identical flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Optional

from crossalign.dataio import (
    DEFAULT_TEST_FRACTION,
    RunConfig,
    _atomic_write_bytes,
    read_dataset,
    write_dataset,
)
from crossalign.errors import DataError, NumericError
from crossalign.evaluation import (
    CSV_COLUMNS,
    EvalReport,
    build_tasks,
    evaluate,
    make_direct_decode_scorer,
    make_direct_encode_scorer,
    make_oracle_scorer,
    make_vna_scorer,
)
from crossalign.synthdata import (
    FORWARD_MODEL_FILE,
    SyntheticDatasetSpec,
    generate_dataset,
    load_forward_model,
    save_forward_model,
)
from crossalign.trainer import load_checkpoint, save_checkpoint, train

METHODS = ("vna", "direct-encode", "direct-decode")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _dump_json(obj) -> bytes:
    return json.dumps(obj, indent=2, sort_keys=True).encode() + b"\n"


def _csv_bytes(rows: list[dict]) -> bytes:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(CSV_COLUMNS), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


def build_parser() -> _Parser:
    parser = _Parser(prog="crossalign", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    g.add_argument("--stimuli", type=int, required=True)
    g.add_argument("--channels", type=int, default=1)
    g.add_argument("--neurons", type=int, required=True)
    g.add_argument("--trials", type=int, default=1)
    g.add_argument("--noise", type=float, default=0.0, help="trial noise level; 'inf' for the stimulus-independent null mode")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--subsample", type=int, default=None, help="keep only this many neurons")
    g.add_argument("--test-fraction", type=float, default=DEFAULT_TEST_FRACTION)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train one method and write a checkpoint")
    t.add_argument("--method", choices=METHODS, required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--history", default=None, help="history JSON path (default: <out>.history.json)")
    t.add_argument("--resume", default=None, help="checkpoint to continue from")
    t.add_argument("--d", type=int, default=64)
    t.add_argument("--batch-size", type=int, default=256)
    t.add_argument("--lr", type=float, default=0.01)
    t.add_argument("--epochs", type=int, default=100)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--dtype", choices=("float32", "float64"), default="float64")
    t.add_argument("--temperature", type=float, default=None)

    e = sub.add_parser("eval", help="evaluate a checkpoint on retrieval tasks")
    e.add_argument("--checkpoint", default=None)
    e.add_argument("--data", required=True)
    e.add_argument("--mode", choices=("encoding", "decoding", "both"), default="both")
    e.add_argument("--K", type=int, default=400)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--json", dest="json_out", default=None)
    e.add_argument("--csv", dest="csv_out", default=None)
    e.add_argument("--oracle", action="store_true",
                   help="score with the dataset's ground-truth forward model instead of a checkpoint")

    c = sub.add_parser("compare", help="train and evaluate all three methods on shared task seeds")
    c.add_argument("--data", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--d", type=int, default=64)
    c.add_argument("--batch-size", type=int, default=256)
    c.add_argument("--lr", type=float, default=0.01)
    c.add_argument("--epochs", type=int, default=100)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--dtype", choices=("float32", "float64"), default="float64")
    c.add_argument("--K", type=int, default=400)
    return parser


def cmd_gen_data(args) -> int:
    spec = SyntheticDatasetSpec(
        stimuli=args.stimuli, channels=args.channels, neurons=args.neurons,
        trials=args.trials, noise=args.noise, seed=args.seed,
    )
    container, model = generate_dataset(
        spec, test_fraction=args.test_fraction, subsample=args.subsample
    )
    ds_id = write_dataset(container, args.out)
    save_forward_model(model, os.path.join(args.out, FORWARD_MODEL_FILE))
    noise = "inf" if math.isinf(args.noise) else args.noise
    print(
        f"dataset {ds_id}: S={container.S} c={container.channels} "
        f"n={container.neurons} T={container.trials} noise={noise} "
        f"train={len(container.train_ids)} test={len(container.test_ids)} -> {args.out}"
    )
    return 0


def _config_from_args(args, method: Optional[str] = None) -> RunConfig:
    return RunConfig(
        method=method or args.method, d=args.d, batch_size=args.batch_size,
        k=getattr(args, "K", 400), lr=args.lr, epochs=args.epochs,
        seed=args.seed, dataset=args.data, dtype=args.dtype,
        temperature=getattr(args, "temperature", None),
    ).validate()


def cmd_train(args) -> int:
    dataset = read_dataset(args.data)
    config = _config_from_args(args)
    resume = load_checkpoint(args.resume, expect_method=args.method) if args.resume else None
    result = train(dataset, config, resume=resume)
    save_checkpoint(result, args.out)
    history_path = args.history or f"{args.out}.history.json"
    _atomic_write_bytes(history_path, _dump_json({
        "method": result.history.method,
        "seed": result.history.seed,
        "config": result.history.config,
        "losses": result.history.losses,
        "steps": result.history.steps,
        "wall_clock_seconds": result.history.wall_clock,
    }))
    last = f"{result.history.losses[-1]:.6f}" if result.history.losses else "n/a"
    print(
        f"trained {args.method} for {len(result.history.losses)} epochs "
        f"({result.history.steps} steps), final loss {last} -> {args.out}"
    )
    return 0


def _scorer_for(method: str, params, dataset):
    if method == "vna":
        return make_vna_scorer(params, dataset)
    if method == "direct-encode":
        return make_direct_encode_scorer(params, dataset)
    return make_direct_decode_scorer(params, dataset)


def _run_eval(dataset, method: str, scorer, mode: str, k: int, seed: int) -> EvalReport:
    tasks = []
    modes = ("encoding", "decoding") if mode == "both" else (mode,)
    for m in modes:
        tasks.extend(build_tasks(dataset, m, k, seed))
    return evaluate(scorer, tasks, dataset, method=method, k_requested=k, seed=seed)


def cmd_eval(args) -> int:
    dataset = read_dataset(args.data)
    if args.oracle:
        model = load_forward_model(os.path.join(args.data, FORWARD_MODEL_FILE))
        method, scorer = "oracle", make_oracle_scorer(model, dataset)
    else:
        if not args.checkpoint:
            raise ValueError("--checkpoint is required unless --oracle is given")
        result = load_checkpoint(args.checkpoint)
        method = result.history.method
        scorer = _scorer_for(method, result.params, dataset)
    report = _run_eval(dataset, method, scorer, args.mode, args.K, args.seed)

    if args.json_out:
        _atomic_write_bytes(args.json_out, _dump_json(report.to_json_dict()))
    if args.csv_out:
        _atomic_write_bytes(args.csv_out, _csv_bytes(report.csv_rows()))
    for row in report.csv_rows():
        print(f"{row['method']} {row['mode']} AUC = {row['auc']:.4f} (K={row['K']}, seed={row['seed']})")
    return 0


def _format_table(rows: list[dict]) -> str:
    header = f"{'':<16}{'Encoding':>10}{'Decoding':>10}{'Average':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['method']:<16}{row['encoding']:>10.4f}{row['decoding']:>10.4f}{row['average']:>10.4f}"
        )
    return "\n".join(lines) + "\n"


def cmd_compare(args) -> int:
    dataset = read_dataset(args.data)
    os.makedirs(args.out, exist_ok=True)

    reports: dict[str, EvalReport] = {}
    for method in METHODS:
        config = _config_from_args(args, method=method)
        result = train(dataset, config, resume=None)
        save_checkpoint(result, os.path.join(args.out, f"{method}.ckpt"))
        scorer = _scorer_for(method, result.params, dataset)
        reports[method] = _run_eval(dataset, method, scorer, "both", args.K, args.seed)

    table_rows = [
        {
            "method": m,
            "encoding": reports[m].encoding_auc,
            "decoding": reports[m].decoding_auc,
            "average": reports[m].average_auc,
        }
        for m in METHODS
    ]
    doc = {
        "dataset_id": dataset.dataset_id,
        "seed": args.seed,
        "k_requested": args.K,
        "config": {
            "d": args.d, "batch_size": args.batch_size, "lr": args.lr,
            "epochs": args.epochs, "dtype": args.dtype,
        },
        "methods": {m: reports[m].to_json_dict() for m in METHODS},
        "table": table_rows,
    }
    csv_rows = [row for m in METHODS for row in reports[m].csv_rows()]
    text = _format_table(table_rows)

    _atomic_write_bytes(os.path.join(args.out, "compare.json"), _dump_json(doc))
    _atomic_write_bytes(os.path.join(args.out, "compare.csv"), _csv_bytes(csv_rows))
    _atomic_write_bytes(os.path.join(args.out, "compare.txt"), text.encode())
    print(text, end="")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "compare": cmd_compare,
}


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as e:
        sys.stderr.write(f"crossalign: usage error: {e}\n")
        return 1
    except DataError as e:
        sys.stderr.write(f"crossalign: data error: {e}\n")
        return 2
    except (NumericError, FloatingPointError) as e:
        sys.stderr.write(f"crossalign: numeric failure: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
