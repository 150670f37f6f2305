"""Record one benchmark run as a ``BENCH_*.json`` file of the perf trajectory.

    python3 perf/record.py --workload blackbox-diagnose --seed 47 --trace 0
    python3 perf/record.py --checkout ../parent --workload cli-conformance --seed 47 --trace 1

Runs ``bench/run.py --workload W --seed S --seconds N --trace T`` in a git
checkout (by default this one), whose ``src``, ``bench`` and
``BENCHMARK.json`` must be committed, and writes
``perf/BENCH_<commit>_<workload>_trace<T>.json`` next to this script.  The
file holds the argv, the checkout's ``git rev-parse HEAD``, the lines
``run.py`` prints before its metric table (host, numpy, BLAS, tail,
``host.calib_ms``, false accepts), the OpenBLAS ``Core:`` line that
``OPENBLAS_VERBOSE=2`` prints under the same environment (``run.py`` does not
name the kernel), and the final JSON line of ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent

#: What a recorded run reads from the checkout; it must match the commit.
MEASURED = ("src", "bench", "BENCHMARK.json")


def blas_core() -> str:
    """The ``Core:`` line OpenBLAS prints on load, with BLAS pinned as run.py pins it."""
    env = dict(os.environ, OPENBLAS_VERBOSE="2", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                          capture_output=True, text=True, check=True)
    cores = [line.strip() for line in proc.stderr.splitlines() if line.startswith("Core:")]
    if not cores:
        raise RuntimeError("OpenBLAS printed no Core: line under OPENBLAS_VERBOSE=2")
    return cores[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=PERF.parent)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    def git(*words: str) -> str:
        return subprocess.run(["git", *words], cwd=args.checkout, capture_output=True,
                              text=True, check=True).stdout.strip()

    if git("status", "--porcelain", "--", *MEASURED):
        sys.stderr.write(f"record.py: uncommitted changes under {', '.join(MEASURED)}\n")
        return 2
    commit = git("rev-parse", "HEAD")
    run_argv = ["python3", "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    core = blas_core()
    proc = subprocess.run([sys.executable, *run_argv[1:]], cwd=args.checkout,
                          capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return proc.returncode
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    record = {
        "argv": run_argv,
        "commit": commit,
        "header": [line for line in lines if (line.split() or [""])[0] not in result["metrics"]],
        "blas_core": core,
        "result": result,
    }
    out = PERF / f"BENCH_{commit[:10]}_{args.workload}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
