"""Run one chestkit benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload seg-train --seed 1 --seconds 20 --trace 0

Run from the root of a chestkit checkout; the package is imported from its
``src/`` directory.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the environment, the operation count and tail, and the
weight hash.  ``--trace 1`` wraps chestkit's layers in spans and reports
per-layer metrics instead of end-to-end ones, and writes the spans to
``perfbench/out/``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# BLAS reads these when numpy loads, so they are set before any import of it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NAMES = ("seg-train", "cls-train", "seg-full-step", "quantify-256")
MAX_PROBLEMS_SHOWN = 20


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def fingerprint() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')}-{blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_text = "unknown"
    threads = " ".join(f"{var}={os.environ.get(var)}" for var in THREAD_VARS)
    return (f"env python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas_text} {threads} nproc={len(os.sched_getaffinity(0))}")


def main() -> int:
    args = parse_args()
    if not (SRC / "chestkit" / "__init__.py").is_file():
        print(f"perfbench: no chestkit sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chestkit

    if Path(chestkit.__file__).resolve().parent != SRC / "chestkit":
        print(f"perfbench: imported chestkit from {chestkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, tracer)
    print(fingerprint())
    for note in result.notes:
        print(note)
    for problem in result.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"problem: {problem}")
    if len(result.problems) > MAX_PROBLEMS_SHOWN:
        print(f"problem: ... and {len(result.problems) - MAX_PROBLEMS_SHOWN} more")
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path)
        print(f"trace={path.relative_to(HERE.parent)} spans={len(tracer.spans)}")
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
