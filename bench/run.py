"""Benchmark of raysym: run one workload once and print its metrics.

    python3 bench/run.py --workload cli-conformance --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from any directory of a checkout that holds ``src/raysym``; there is
nothing to build.  Each run starts the workload in a fresh process with BLAS
and OpenMP pinned to one thread.  With ``--trace 0`` it prints every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` every per-layer
metric, from a separate traced measurement.  Set-up time is the median over
several fresh processes.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  bench/README.md describes the workloads.

``--smoke`` runs every workload at toy sizes, traced and untraced, and checks
the outputs and invariants in under a second.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: Fresh processes that only set up, besides the measured one.
SETUP_PROBES = 5

#: Percentiles the tail may use, highest first.
TAIL_LADDER = (99, 95, 90, 80, 75, 50)

#: Whole run, every subprocess included.
RUN_TIMEOUT_S = 170.0

#: Median calibration-kernel time on the reference host (2 cores, Python 3.11,
#: numpy 2.4); set-up times are scaled to a host of this speed.
CALIB_REF_S = 2.5e-3


def tail_percentile(n: int) -> int:
    """Highest ladder percentile with at least 10 samples beyond it among n."""
    return next((p for p in TAIL_LADDER if n * (100 - p) >= 1000), TAIL_LADDER[-1])


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_worker(flags: list[str], workdir: Path, deadline: float) -> dict:
    """One fresh single-threaded worker process; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *flags, "--workdir", str(workdir)],
        env=dict(os.environ, PYTHONPATH=str(SRC), **worker.PINNED),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(flags)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def failures(w: dict) -> list[str]:
    phases = ("samples", "reference", "traced")
    return [f"{s[0]}: {s[3]}" for key in phases for s in w.get(key, []) if s[3] is not None]


def end_to_end(res: dict, w: dict, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run, and notes for the reader.

    ``setups`` holds (set-up seconds, calibration seconds) per fresh process.
    Raw wall times follow the host's speed, which changes by up to 1.7x from
    one minute to the next, so they are printed but not among the metrics.
    """
    samples = w["samples"]
    n = len(samples)
    failed = sum(s[3] is not None for s in samples)
    lat = [s[1] for s in samples]
    ratio = [s[1] / s[2] for s in samples]
    p = tail_percentile(w["min_rounds"] * w["round_size"])
    metrics = {
        "op_p50_calib": statistics.median(ratio),
        "op_tail_calib": percentile(ratio, p),
        "oracle_calls_per_op": w["oracle_calls_per_round"] / w["round_size"],
        "op_ok_ratio": 1.0 - failed / n,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(t * CALIB_REF_S / c for t, c in setups),
    }
    notes = [
        f"op_tail_* is p{p} of n={n} ops ({n // w['round_size']} rounds of {w['round_size']})",
        f"op_fail_ratio {failed / n} ({failed}/{n})",
        f"raw, not gated: ops_per_s {n / sum(lat):.6g} 1/s, op_p50_ms {statistics.median(lat) * 1e3:.6g} ms, "
        f"op_tail_ms {percentile(lat, p) * 1e3:.6g} ms, setup_s {statistics.median(t for t, _ in setups):.6g} s",
        f"host.calib_ms {statistics.median(s[2] for s in samples) * 1e3:.6g} ms",
        f"setup_s is the median of {len(setups)} fresh processes, scaled to a "
        f"{CALIB_REF_S * 1e3:g} ms calibration kernel",
        f"reconstruction.unitary_valid_false_accepts {w['false_accepts']} of {n} ops",
    ]
    return metrics, notes


def emit(spec_metrics: list[dict], metrics: dict, attempted: int, failed: int, correct: bool) -> None:
    units = {m["name"]: m["unit"] for m in spec_metrics}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    for name in units:
        print(f"{name:<55} {metrics[name]:>16.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


def smoke(workdir: Path) -> int:
    """Toy-size run of every workload, untraced and traced; checks, no timings.

    Runs in this process, which is pinned like a worker before numpy loads.
    """
    t0 = time.monotonic()
    os.environ.update(worker.PINNED)
    sys.path.insert(0, str(SRC))
    res = worker.collect(worker.parse(["--smoke", "--seconds", "0", "--trace", "1", "--workdir", str(workdir)]))
    spec = json.loads(SPEC.read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    bad = 0
    for name, w in res["workloads"].items():
        problems = failures(w) + w["problems"] + [f"warm-up {s[0]}: {s[3]}" for s in w["warmup_failures"]]
        end_to_end(res, dict(w, samples=w["reference"], false_accepts=0), [(res["import_s"], w["setup_calib_s"])])
        if set(w["layers"]) != declared:
            problems.append("per-layer metrics differ from BENCHMARK.json")
        if w["layers"]["reconstruction.reconstruct.oracle_calls_over_floor"] != 1.0:
            problems.append("reconstruct did not make exactly 2*dim oracle calls")
        print(f"smoke {name}: {len(w['reference']) + len(w['traced'])} ops, {len(problems)} problems")
        for problem in problems:
            print(f"  {problem}")
        bad += bool(problems)
    print(f"smoke {'ok' if not bad else 'FAILED'} in {time.monotonic() - t0:.2f} s")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(worker.IMPORTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size check of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "raysym" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no raysym sources at {SRC / 'raysym'}\n")
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".bench_work" / f"{args.workload or 'smoke'}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return smoke(workdir)
        return measure(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, workdir: Path, deadline: float) -> int:
    flags = ["--workload", args.workload, "--seed", str(args.seed % 2**63)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = run_worker(flags + ["--setup-only"], workdir, deadline)
            p = probe["workloads"][args.workload]
            setups.append((probe["import_s"] + p["build_s"], p["setup_calib_s"]))
    res = run_worker(flags + ["--seconds", str(args.seconds), "--trace", str(args.trace)], workdir, deadline)
    w = res["workloads"][args.workload]
    spec = json.loads(SPEC.read_text())
    h = res["host"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"host nproc {h['nproc']} (affinity {h['affinity']})  python {h['python']}  "
          f"numpy {h['numpy']}  blas {h['blas']}  threads pinned to 1")
    problems = failures(w) + [f"warm-up {s[0]}: {s[3]}" for s in w["warmup_failures"]]
    if args.trace:
        problems += w["problems"]
        ops = w["reference"] + w["traced"]
        attempted, failed = len(ops), sum(s[3] is not None for s in ops)
        print(f"traced {len(w['traced'])} ops after an untraced reference of {len(w['reference'])}")
        metrics, spec_metrics = w["layers"], spec["per_layer"]
    else:
        setups.append((res["import_s"] + w["build_s"], w["setup_calib_s"]))
        metrics, notes = end_to_end(res, w, setups)
        attempted, failed = len(w["samples"]), sum(s[3] is not None for s in w["samples"])
        for note in notes:
            print(note)
        spec_metrics = spec["end_to_end"]
    for problem in sorted(set(problems))[:10]:
        sys.stderr.write(f"problem: {problem}\n")
    emit(spec_metrics, metrics, attempted, failed, correct=not problems)
    return 0


if __name__ == "__main__":
    sys.exit(main())
