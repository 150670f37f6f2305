"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s or in the
captured output of a failing run) and asserts the criterion.
"""

import time

import numpy as np
import pytest

from raysym import (
    RaySymError,
    SymmetryOperator,
    canonical_ray,
    check_orthogonality_preservation,
    gauge_residual,
    general_induced_map,
    induced_map,
    probe_automorphism,
    random_unitary,
    reconstruct,
    verify_reproduction,
)
from raysym.cli import main
from raysym.rays import ray_function
from raysym.reconstruction import DEFAULT_PROBE_GRID

from conftest import write_operator_file

DIMS = (2, 3, 4, 8, 16)
FLAGS = (False, True)
SEEDS_PER_CELL = 20  # 5 dims x 2 flags x 20 seeds = 200 generators


def _case_seed(dim, antiunitary, k):
    return 1000 * dim + 500 * int(antiunitary) + k


def _verdict(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}")
    assert not failures, f"{name}: " + "; ".join(str(f) for f in failures[:5])


@pytest.fixture(scope="module")
def roundtrip_cases():
    cases = []
    recon_elapsed = 0.0
    for dim in DIMS:
        for flag in FLAGS:
            for k in range(SEEDS_PER_CELL):
                seed = _case_seed(dim, flag, k)
                u = random_unitary(dim, seed)
                oracle = induced_map(SymmetryOperator(u, antiunitary=flag))
                start = time.perf_counter()
                recon = reconstruct(oracle, dim)
                recon_elapsed += time.perf_counter() - start
                cases.append(
                    {"dim": dim, "flag": flag, "seed": seed, "u": u,
                     "oracle": oracle, "recon": recon}
                )
    assert len(cases) == 200
    return {"cases": cases, "recon_elapsed": recon_elapsed}


def test_criterion_1_round_trip_reconstruction(roundtrip_cases):
    failures = []
    for case in roundtrip_cases["cases"]:
        recon = case["recon"]
        if recon.operator.antiunitary is not case["flag"]:
            failures.append(f"antiunitary flag mismatch at dim={case['dim']} seed={case['seed']}")
        residual = gauge_residual(recon.operator.matrix, case["u"])
        if residual > 1e-8:
            failures.append(
                f"gauge residual {residual:.3e} at dim={case['dim']} seed={case['seed']}"
            )
    elapsed = roundtrip_cases["recon_elapsed"]
    if elapsed >= 10.0:
        failures.append(f"200 reconstructions took {elapsed:.2f}s, expected under 10s")
    _verdict("criterion 1: round-trip reconstruction, 200/200 within 1e-8", failures)


def test_criterion_2_reproduction_of_the_ray_map(roundtrip_cases):
    failures = []
    for case in roundtrip_cases["cases"]:
        deviation = verify_reproduction(
            case["recon"].operator, case["oracle"], trials=100, seed=case["seed"]
        )
        if deviation > 1e-8:
            failures.append(
                f"deviation {deviation:.3e} at dim={case['dim']} seed={case['seed']}"
            )
    _verdict("criterion 2: reproduction over 100 random rays within 1e-8", failures)


def test_criterion_3_scales_under_invariance(roundtrip_cases):
    failures = []
    for case in roundtrip_cases["cases"]:
        deviation = case["recon"].max_scale_deviation
        if deviation > 1e-8:
            failures.append(
                f"scale deviation {deviation:.3e} at dim={case['dim']} seed={case['seed']}"
            )
    _verdict("criterion 3: all scales equal 1 within 1e-8", failures)


def test_criterion_4_automorphism_laws(roundtrip_cases):
    failures = []
    for case in roundtrip_cases["cases"]:
        recon = case["recon"]
        probe = probe_automorphism(case["oracle"], recon.basis, DEFAULT_PROBE_GRID, 1)
        if max(probe.additivity_residual, probe.multiplicativity_residual) > 1e-10:
            failures.append(
                f"law residual at dim={case['dim']} seed={case['seed']}: "
                f"add={probe.additivity_residual:.3e} mult={probe.multiplicativity_residual:.3e}"
            )
        for z, f_z in probe.values:
            expected = z.conjugate() if case["flag"] else z
            if abs(f_z - expected) > 1e-10:
                failures.append(
                    f"pointwise mismatch f({z}) = {f_z} at dim={case['dim']} seed={case['seed']}"
                )
                break
    _verdict("criterion 4: automorphism laws and pointwise match within 1e-10", failures)


def test_criterion_5_hypothesis_violation_detection():
    failures = []

    diag_oracle = general_induced_map(np.diag([1.0, 2.0, 1.0]))
    diag_check = check_orthogonality_preservation(diag_oracle, trials=200, seed=5)
    if diag_check.passed:
        failures.append("diag(1,2,1) passed the hypothesis check")
    diag_recon = reconstruct(diag_oracle, 3)
    if diag_recon.unitary_valid:
        failures.append("diag(1,2,1) reconstruction was not flagged diagnostic-only")

    rng = np.random.default_rng(2026)
    noise = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
    perturbed = random_unitary(4, seed=2026) + 0.05 * noise
    perturbed_oracle = general_induced_map(perturbed)
    perturbed_check = check_orthogonality_preservation(perturbed_oracle, trials=200, seed=5)
    if perturbed_check.passed:
        failures.append("perturbed unitary passed the hypothesis check")
    try:
        perturbed_recon = reconstruct(perturbed_oracle, 4)
        if perturbed_recon.unitary_valid:
            failures.append("perturbed unitary reconstructed as unitary-valid")
    except RaySymError:
        pass  # an error is an acceptable detection outcome

    false_alarms = 0
    count = 0
    for dim in DIMS:
        for flag in FLAGS:
            for k in range(10):
                seed = 7000 + _case_seed(dim, flag, k)
                op = SymmetryOperator(random_unitary(dim, seed), antiunitary=flag)
                report = check_orthogonality_preservation(
                    induced_map(op), trials=200, seed=seed
                )
                count += 1
                if not report.passed:
                    false_alarms += 1
                    failures.append(f"false alarm at dim={dim} flag={flag} seed={seed}")
    assert count == 100
    _verdict("criterion 5: violations detected, 0 false alarms on 100 valid oracles", failures)


def test_criterion_6_ray_core_invariants():
    failures = []
    rng = np.random.default_rng(606)

    for trial in range(1000):
        dim = 2 + trial % 7
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        r1 = canonical_ray(v)
        r2 = canonical_ray(np.exp(1j * theta) * v)
        if np.max(np.abs(r1.rep - r2.rep)) > 1e-12:
            failures.append(f"phase invariance broke at trial {trial}")
            break

    for trial in range(10_000):
        dim = 2 + trial % 7
        e = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        r, s = canonical_ray(e), canonical_ray(f)
        u = ray_function(r, s)
        if not 0.0 <= u <= 1.0:
            failures.append(f"range violation u={u!r} at trial {trial}")
            break
        if abs(u - ray_function(s, r)) > 1e-15:
            failures.append(f"symmetry violation at trial {trial}")
            break
        c1 = (rng.standard_normal() + 1j * rng.standard_normal()) * 10.0 ** rng.uniform(-3, 3)
        c2 = (rng.standard_normal() + 1j * rng.standard_normal()) * 10.0 ** rng.uniform(-3, 3)
        if min(abs(c1), abs(c2)) < 1e-6:
            continue
        u_scaled = ray_function(canonical_ray(c1 * e), canonical_ray(c2 * f))
        if abs(u - u_scaled) > 1e-12:
            failures.append(f"representative dependence {abs(u - u_scaled):.3e} at trial {trial}")
            break

    _verdict("criterion 6: ray-core invariants over 10^4 randomized trials", failures)


def test_criterion_7_cli_golden_stability(tmp_path, capsys):
    failures = []
    fixtures = [
        ("identity", write_operator_file(tmp_path / "identity.json", np.eye(2), "unitary"), 0, 0),
        ("anti-identity", write_operator_file(tmp_path / "anti.json", np.eye(2), "antiunitary"), 0, 0),
        ("diag-general", write_operator_file(tmp_path / "diag.json", np.diag([1.0, 2.0, 1.0]), "general"), 2, 1),
    ]
    for name, path, want_reconstruct, want_conformance in fixtures:
        for command, want_code in (("reconstruct", want_reconstruct), ("conformance", want_conformance)):
            code_a = main([command, path])
            out_a = capsys.readouterr().out
            code_b = main([command, path])
            out_b = capsys.readouterr().out
            if out_a.encode() != out_b.encode():
                failures.append(f"{command} output not byte-stable for {name}")
            if not out_a:
                failures.append(f"{command} produced no output for {name}")
            if code_a != want_code or code_b != want_code:
                failures.append(
                    f"{command} exit code {code_a}/{code_b} for {name}, expected {want_code}"
                )
    _verdict("criterion 7: CLI output byte-stable across consecutive runs", failures)
