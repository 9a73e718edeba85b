"""Benchmark of crossalign: training throughput, retrieval speed, set-up time.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload vna-clean --seed 0 --seconds 18 --trace 0

Each invocation runs one workload in this single process, with one BLAS
thread and CROSSALIGN_THREADS unset. It
prints every metric with its unit, the operations attempted and failed,
and, as its last line, one JSON object. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` installs span wrappers around the
package's public functions and reports the per-layer metrics instead.
Datasets and checkpoints live in a scratch directory that is removed at the
end; the run summary (AUCs, checkpoint hashes) and, when traced, the spans
are kept under ``--out``.
"""

import os
import sys

sys.dont_write_bytecode = True  # leave no caches in the source tree

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


# One BLAS thread: on a shared 2-core machine two threads made run-to-run
# spreads several times wider for an 11% gain in training rate.
BLAS_THREADS = 1


def limit_threads() -> int:
    """Pin the BLAS pools (at most the usable cores); must run before numpy loads."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ.pop("CROSSALIGN_THREADS", None)
    return threads


def import_package() -> None:
    """Import crossalign from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "crossalign", "__init__.py")):
        sys.exit(f"perfbench: no crossalign sources under {SRC}")
    sys.path.insert(0, SRC)
    import crossalign

    if os.path.dirname(os.path.abspath(crossalign.__file__)) != os.path.join(SRC, "crossalign"):
        sys.exit(f"perfbench: crossalign imported from {crossalign.__file__}, not {SRC}")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run whole rounds until the timed rounds add up to this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_runs"),
                        help="directory for run summaries, traces and scratch data")
    parser.add_argument("--toy", action="store_true",
                        help="seconds-long inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    threads = limit_threads()
    import_package()
    import json

    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]
    if args.toy:
        spec = workloads.toy(spec)

    tag = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    os.makedirs(args.out, exist_ok=True)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(run_dtype=spec.dtype).install()
    runner = workloads.Runner(spec, args.seed, os.path.join(args.out, f"{tag}-{os.getpid()}"), tracer)
    try:
        runner.run(args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
        runner.clean_up()

    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, spec.setups, len(runner.rounds),
                                        [r.wall_s for r in runner.rounds])
        tracer.write(os.path.join(args.out, f"{tag}.trace.json"))
    else:
        metrics = runner.metrics()
    summary = runner.summary()
    summary["blas_threads"] = threads
    summary["numpy"] = np.__version__
    with open(os.path.join(args.out, f"{tag}.summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)

    ledger = runner.ledger
    print(f"workload {spec.name} seed {args.seed}: {len(runner.rounds)} rounds, "
          f"{spec.setups} set-ups, {threads} BLAS threads, numpy {np.__version__}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted {ledger.attempted} operations, failed {ledger.failed}")
    for line in ledger.failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
