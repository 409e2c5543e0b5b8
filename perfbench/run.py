"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload city-3k --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when an output check fails.  ``BENCHMARK.json``'s command
records the default seed as ``--seed 20261017``; a later ``--seed``
overrides it.
Scratch files, the stream digests of every seed run so far and the
traced run's spans go to ``.perfbench-out/`` at the repository root.
"""

import os

# Pin BLAS/OpenMP pools before anything imports numpy: the benchmark is
# single-threaded apart from the serving thread of ``served-flaky``.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def environment() -> dict:
    """Interpreter, numpy, BLAS and CPU facts printed with the results."""
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import REFERENCE_KERNEL_MS
    from perfbench.measure import run
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench-out")
    for error in result.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} digest {result.digest}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"host reference kernel {result.kernel_ms:.4f} ms (times scaled to {REFERENCE_KERNEL_MS} ms)")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    from perfbench.harness import result_line

    print(
        result_line(
            correct=result.correct,
            attempted=result.attempted,
            failed=result.failed,
            metrics=result.metrics,
        ),
        flush=True,
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
