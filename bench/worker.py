"""Entry point of one run of one workload, in a fresh single-threaded process.

run.py starts this script with BLAS and OpenMP pinned to one thread and
``src`` on PYTHONPATH.  It times the cold import of raysym before anything
else loads numpy, then hands over to measure.py, and prints one JSON object
with the raw samples of the run; run.py turns them into metrics.

Modes:
  (default)     measure whole rounds for --seconds, tracing off;
  --trace 1     measure a reference phase untraced, then install the tracer
                and measure again; report per-layer metrics and the overhead;
  --setup-only  only the timed set-up: cold import plus building the oracles;
  --smoke       every workload at toy sizes, untraced and traced, in < 1 s.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Environment that run.py sets so BLAS and OpenMP use one thread.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Modules a user of each workload imports; their cold import is set-up time.
IMPORTS = {
    "cli-conformance": ("raysym", "raysym.cli"),
    "cli-reconstruct-large": ("raysym", "raysym.cli"),
    "blackbox-diagnose": ("raysym",),
}


def parse(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def collect(args: argparse.Namespace) -> dict:
    """The raw result of one run; raises if the environment is not as required."""
    unpinned = [var for var, value in PINNED.items() if os.environ.get(var) != value]
    if unpinned:
        raise RuntimeError(f"{', '.join(unpinned)} must be 1 before numpy is imported")

    t0 = time.perf_counter()
    for module in ("raysym", "raysym.cli") if args.smoke else IMPORTS[args.workload]:
        importlib.import_module(module)
    import_s = time.perf_counter() - t0

    import raysym

    if Path(raysym.__file__).resolve().parent != SRC / "raysym":
        raise RuntimeError(f"imported raysym from {raysym.__file__}, not from {SRC}")
    import measure

    return measure.run(args, import_s)


if __name__ == "__main__":
    print(json.dumps(collect(parse())))
