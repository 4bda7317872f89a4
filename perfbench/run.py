"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` wraps the
layers' public names (see ``tracing.py``) and prints every per-layer
metric instead, with the traced run's end-to-end figures on the line
before.  The exit code is 0 when every correctness check passed, 1 when
one failed and 2 when the program under ``src/`` cannot be imported.
"""

import time

#: set-up is timed from here, before numpy or the program is imported
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: one BLAS/OpenMP thread per process: the daemon's two executor threads
#: (and the 2-core host) then hold one GEMM each, and no busy-waiting
#: pool competes with the event loop; no workload uses a threaded
#: contraction strategy, so REPRO_THREADS=1 only records that
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_THREADS": "1",
}

#: end-to-end metrics and their units, as BENCHMARK.json declares them
END_TO_END_UNITS = {
    "setup_s": "s",
    "table5_s": "s",
    "simulate_s": "s",
    "compressed_bits": "bits",
    "sim_hw_cycles": "cycles",
    "cold_start_s": "s",
    "reactnet_images_per_s": "images/s",
    "latency_p50_ms": "ms",
    "popcount_images_per_s": "images/s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update(THREAD_PINS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    print(
        json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "nproc": os.cpu_count(), "pins": THREAD_PINS}
        )
    )
    (ROOT / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=ROOT / "results") as tmp:
        trace = tracing.Trace() if args.trace else None
        run = workloads.Run(args.seed, args.seconds, Path(tmp), trace)
        measure = workloads.WORKLOADS[args.workload](run)
        setup_s = time.perf_counter() - _STARTED
        gc.collect()  # every run starts timing from the same heap state
        if trace is not None:
            trace.install()
        try:
            verifiers = measure()
        finally:
            if trace is not None:
                trace.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        layer_values = trace.metrics() if trace is not None else None
        try:
            for verify in verifiers:
                verify()
        except checks.CheckFailed as failure:
            print(f"perfbench: check failed: {failure}", file=sys.stderr)
            return 1

    end_to_end = {"setup_s": setup_s, **run.metrics, "peak_rss_mb": peak_rss_mb}
    missing = set(END_TO_END_UNITS) - set(end_to_end)
    if missing:
        raise RuntimeError(f"workload left metrics unmeasured: {sorted(missing)}")
    if trace is None:
        values, units = end_to_end, END_TO_END_UNITS
    else:
        print(json.dumps({"end_to_end": end_to_end}))
        values, units = layer_values, tracing.PER_LAYER_UNITS
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": run.attempted,
                "failed": 0,  # a failing operation or check ends the run
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
