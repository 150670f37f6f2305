"""The measurement loop of one run: warm-up, timed rounds, tracing, samples.

Imported by worker.py after the timed cold import of raysym, so numpy and
raysym are already loaded here.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time

import numpy as np

import raysym
import tracer as tracer_mod
import workloads

#: Fixed input of the calibration kernel.
_CAL_VECTOR = np.exp(1j * np.arange(8.0)) * (1.0 + np.arange(8.0))

#: Stop adding rounds past this many seconds, whatever ``min_rounds`` asks.
HARD_CAP_S = 120.0


def calibrate() -> float:
    """Time a fixed kernel of small-array numpy and interpreter work; no raysym calls."""
    v = _CAL_VECTOR
    acc = 0.0
    t0 = time.perf_counter()
    for k in range(250):
        w = v * (1.0 + 1e-3 * k)
        u = w / float(np.linalg.norm(w))
        ip = np.vdot(u, v)
        acc += float(ip.real) * float(ip.real) + abs(u[k & 7])
    elapsed = time.perf_counter() - t0
    if not acc > 0.0:
        raise AssertionError("calibration kernel result lost")
    return elapsed


def run_op(op, op_id: int, tracer=None) -> list:
    """Time one operation, then the calibration kernel, then check the result.

    Returns [label, latency, calibration time, failure or None].
    """
    call = op.run
    if tracer is not None:
        tracer.op_id = op_id
        call = tracer.wrap(op.run, "bench.op")
    failure = None
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as err:
        result, failure = None, f"raised {type(err).__name__}: {err}"
    latency = time.perf_counter() - t0
    calib = calibrate()
    if failure is None:
        try:
            failure = op.check(result)
        except Exception as err:
            failure = f"check raised {type(err).__name__}: {err}"
    return [op.label, latency, calib, failure]


def measure(wl, seconds: float, min_rounds: int, tracer=None) -> list[list]:
    """Closed loop over whole rounds, starting at round 1, until time is up.

    The host changes speed from one second to the next, so each sample's
    calibration is the mean of the kernel runs just before and just after it.
    """
    start = time.perf_counter()
    samples: list[list] = []
    before = calibrate()
    r = 1
    while r <= min_rounds or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > HARD_CAP_S:
            break
        for op in wl.round(r):
            label, latency, after, failure = run_op(op, len(samples), tracer)
            samples.append([label, latency, (before + after) / 2, failure])
            before = after
        r += 1
    return samples


def warm_up(wl) -> tuple[int, list[list]]:
    """Run round 0 untimed, counting oracle calls; each class's count is fixed."""
    cls = raysym.RayMapOracle
    original = cls.image
    calls = 0

    def counted(self, ray):
        nonlocal calls
        calls += 1
        return original(self, ray)

    cls.image = counted
    try:
        samples = [run_op(op, -1) for op in wl.round(0)]
    finally:
        cls.image = original
    return calls, samples


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def ratio_mean(samples: list[list]) -> float:
    return statistics.fmean(s[1] / s[2] for s in samples)


def traced_run(wl, seconds: float, oracle_calls: int, reference: list[list] | None) -> dict:
    """Reference phase untraced (unless given), then the same rounds traced."""
    if reference is None:
        reference = measure(wl, seconds / 2, 1)
    wl.false_accepts = 0
    t = tracer_mod.Tracer()
    wl.build(lambda fn: t.wrap(fn, tracer_mod.ORACLE_FN))
    t.install()
    try:
        traced = measure(wl, seconds / 2, 1, t)
    finally:
        t.uninstall()
    layers, problems = t.metrics(len(traced))
    per_op = oracle_calls / len(wl.classes)
    if layers["oracles.RayMapOracle.image.calls_per_op"] != per_op:
        problems.append(
            f"traced oracle calls per op {layers['oracles.RayMapOracle.image.calls_per_op']} "
            f"differ from the counted {per_op}"
        )
    layers["reconstruction.unitary_valid_false_accepts"] = float(wl.false_accepts)
    layers["host.calib_ms"] = statistics.median(s[2] for s in reference + traced) * 1e3
    layers["trace.overhead_ratio"] = ratio_mean(traced) / ratio_mean(reference)
    return {"traced": traced, "reference": reference, "layers": layers, "problems": problems}


def one_workload(name: str, seed: int, workdir: str, args) -> dict:
    wl = workloads.WORKLOADS[name](seed, workdir, smoke=args.smoke)
    wl.generate()
    t0 = time.perf_counter()
    wl.build(lambda fn: fn)
    build_s = time.perf_counter() - t0
    setup_calib_s = statistics.median(calibrate() for _ in range(5))
    if args.setup_only:
        return {"build_s": build_s, "setup_calib_s": setup_calib_s}
    wl.write_files()
    oracle_calls, warm = warm_up(wl)
    wl.false_accepts = 0
    out = {
        "build_s": build_s,
        "setup_calib_s": setup_calib_s,
        "round_size": len(wl.classes),
        "min_rounds": wl.min_rounds,
        "oracle_calls_per_round": oracle_calls,
        "warmup_failures": [s for s in warm if s[3] is not None],
    }
    if args.trace:
        # A smoke run takes the warm-up round as its untraced reference.
        out.update(traced_run(wl, args.seconds, oracle_calls, warm if args.smoke else None))
    else:
        out["samples"] = measure(wl, args.seconds, wl.min_rounds)
        out["false_accepts"] = wl.false_accepts
    return out


def run(args, import_s: float) -> dict:
    """Every requested workload in this process; the raw result for run.py."""
    names = sorted(workloads.WORKLOADS) if args.smoke else [args.workload]
    result = {"import_s": import_s, "host": host(), "workloads": {}}
    for name in names:
        result["workloads"][name] = one_workload(name, args.seed, args.workdir, args)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result
