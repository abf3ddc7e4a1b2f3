#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload paper --seed 0 --seconds 60 --trace 0

The package is imported from the checkout's ``src/``; nothing needs to be
installed.  The second-to-last line of stdout is a JSON record of the
inputs' digests, run lengths and environment; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Pinned before numpy is imported, identically on every commit measured.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("paper", "query")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bytecode_energy" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, details = workloads.run(workloads.WORKLOADS[args.workload],
                                        args.seed, args.seconds,
                                        bool(args.trace), SRC, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
