import warnings

import numpy as np
import pytest

from raysym import (
    CHECK_NAMES,
    DEFAULT_TOLERANCES,
    DimensionMismatch,
    ImagesNotOrthogonal,
    RaySymError,
    SingularMatrix,
    SymmetryOperator,
    Tolerances,
    check_orthogonality_preservation,
    general_induced_map,
    induced_map,
    map_basis,
    random_unitary,
    reconstruct,
    run_full_conformance,
)
from raysym.conformance import check_ray_function_invariance, check_round_trip


def perturbed_unitary(dim, seed, amount):
    rng = np.random.default_rng(seed)
    noise = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    return random_unitary(dim, seed) + amount * noise


class TestRayFunctionInvariance:
    def test_unitary_oracle(self):
        oracle = induced_map(SymmetryOperator(random_unitary(5, seed=3)))
        entry = check_ray_function_invariance(oracle, trials=200, seed=1)
        assert entry.passed
        assert entry.worst_residual <= 1e-10

    def test_antiunitary_oracle(self):
        oracle = induced_map(SymmetryOperator(random_unitary(5, seed=3), antiunitary=True))
        entry = check_ray_function_invariance(oracle, trials=200, seed=1)
        assert entry.passed
        assert entry.worst_residual <= 1e-10

    def test_diagonal_stretch_fails_visibly(self):
        oracle = general_induced_map(np.diag([1.0, 2.0, 1.0]))
        entry = check_ray_function_invariance(oracle, trials=200, seed=1)
        assert not entry.passed
        assert entry.worst_residual > 0.1

    def test_rejects_nonpositive_trials(self):
        oracle = induced_map(SymmetryOperator(np.eye(2)))
        with pytest.raises(ValueError):
            check_ray_function_invariance(oracle, trials=0, seed=1)

    def test_is_the_u_drift_of_the_preservation_sample(self):
        oracle = general_induced_map(np.diag([1.0, 2.0, 1.0]))
        entry = check_ray_function_invariance(oracle, trials=50, seed=4)
        pres = check_orthogonality_preservation(oracle, trials=50, seed=4)
        assert entry == pres.entry("ray-function-invariance")
        assert (entry.trials, entry.seed) == (50, 4)


class TestRoundTrip:
    def test_identity(self):
        op = SymmetryOperator(np.eye(3))
        entry = check_round_trip(op, reconstruct(induced_map(op), 3))
        assert entry.passed
        assert entry.worst_residual <= 1e-12

    def test_random_unitary_dim_8(self):
        op = SymmetryOperator(random_unitary(8, seed=40))
        entry = check_round_trip(op, reconstruct(induced_map(op), 8))
        assert entry.passed
        assert entry.worst_residual <= 1e-8

    def test_antiunitary_dim_3(self):
        op = SymmetryOperator(random_unitary(3, seed=41), antiunitary=True)
        recon = reconstruct(induced_map(op), 3)
        entry = check_round_trip(op, recon)
        assert recon.operator.antiunitary
        assert entry.passed
        assert entry.worst_residual <= 1e-8

    def test_kind_mismatch_fails(self):
        linear = SymmetryOperator(np.eye(3))
        antilinear = SymmetryOperator(np.eye(3), antiunitary=True)
        recon = reconstruct(induced_map(linear), 3)
        entry = check_round_trip(antilinear, recon)
        assert not entry.passed

    def test_dimension_mismatch(self):
        op = SymmetryOperator(np.eye(3))
        recon = reconstruct(induced_map(SymmetryOperator(np.eye(2))), 2)
        with pytest.raises(DimensionMismatch, match=r"shapes \(2, 2\) and \(3, 3\)"):
            check_round_trip(op, recon)


class TestRunFullConformance:
    def test_identity_passes_everything(self):
        report = run_full_conformance(SymmetryOperator(np.eye(3)), seed=7)
        assert report.passed
        assert report.error is None
        assert tuple(e.name for e in report.entries) == CHECK_NAMES

    def test_haar_unitary_dim_16(self):
        report = run_full_conformance(SymmetryOperator(random_unitary(16, seed=42)), seed=42)
        assert report.passed

    def test_antiunitary_generator(self):
        op = SymmetryOperator(random_unitary(3, seed=9), antiunitary=True)
        assert run_full_conformance(op, seed=5).passed

    def test_diagonal_stretch_fails_hypotheses_and_scales(self):
        report = run_full_conformance(SymmetryOperator(np.diag([1.0, 2.0, 1.0])), seed=7)
        assert not report.passed
        assert not report.entry("orthogonality-preservation").passed
        assert not report.entry("ray-function-invariance").passed
        assert report.entry("basis-completeness").passed
        assert report.entry("automorphism-laws").passed
        assert not report.entry("scales-unit").passed
        assert report.entry("scales-unit").worst_residual == pytest.approx(1.0, abs=1e-12)
        assert not report.entry("round-trip").passed
        assert not report.entry("reproduction").passed

    def test_perturbed_unitary_aborts_with_stage_note(self):
        op = SymmetryOperator(perturbed_unitary(4, seed=11, amount=0.1))
        report = run_full_conformance(op, seed=7)
        assert not report.passed
        assert not report.entry("orthogonality-preservation").passed
        assert not report.entry("basis-completeness").passed
        assert report.error is not None
        assert "map_basis" in report.error
        assert report.entry("scales-unit").worst_residual == float("inf")

    def test_both_hypothesis_entries_share_one_sample(self):
        op = SymmetryOperator(np.diag([1.0, 2.0, 1.0]))
        report = run_full_conformance(op, seed=9, invariance_trials=40)
        pres = check_orthogonality_preservation(induced_map(op), trials=40, seed=9)
        orth = report.entry("orthogonality-preservation")
        drift = report.entry("ray-function-invariance")
        assert (orth, drift) == pres.entries
        assert orth.seed == drift.seed == 9
        assert report.entry("reproduction").seed == 11

    def test_oracle_calls_at_dimension_8(self, image_calls):
        report = run_full_conformance(SymmetryOperator(random_unitary(8, seed=8)), seed=3)
        assert report.passed
        # 4 per preservation trial, 2 * dim to reconstruct, the 121 distinct probe
        # rays of the 12 + 2 * 78 probes, 100 reproductions
        assert image_calls[0] == 4 * 200 + 2 * 8 + 121 + 100 == 1037

    def test_later_stage_failure_keeps_the_basis_entry(self):
        # axis rays map to axis rays (Gram defect 0), the unit probe on axis 2 vanishes
        report = run_full_conformance(SymmetryOperator(np.diag([1.0, 1e-10, 1.0])), seed=1)
        entry = report.entry("basis-completeness")
        assert entry.passed
        assert entry.worst_residual == 0.0
        assert report.error.startswith("[stage fix_phases]")
        assert report.entry("scales-unit").worst_residual == float("inf")

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            np.eye(3) + 1e-6 * np.eye(3, k=1),
            perturbed_unitary(3, seed=8, amount=0.1),
            perturbed_unitary(5, seed=2, amount=1e-6),
        ],
    )
    def test_basis_completeness_fails_whenever_map_basis_raises(self, matrix):
        dim = matrix.shape[0]
        with pytest.raises(RaySymError) as info:
            map_basis(general_induced_map(matrix), dim)
        report = run_full_conformance(SymmetryOperator(matrix), seed=2, invariance_trials=20)
        entry = report.entry("basis-completeness")
        assert not entry.passed
        assert report.error.startswith("[stage map_basis]")
        if isinstance(info.value, ImagesNotOrthogonal):
            assert entry.worst_residual == info.value.u_value
        else:
            assert entry.worst_residual == float("inf")

    def test_recon_tol_bounds_the_basis_gram_defect(self):
        op = SymmetryOperator(np.eye(3) + 1e-6 * np.eye(3, k=1))
        strict = run_full_conformance(op, seed=2, invariance_trials=20)
        assert strict.entry("basis-completeness").worst_residual == float("inf")
        loose = run_full_conformance(op, seed=2, tol=Tolerances(recon_tol=1e-4), invariance_trials=20)
        entry = loose.entry("basis-completeness")
        assert entry.passed
        assert entry.worst_residual == pytest.approx(1e-6, rel=1e-6)
        assert loose.error.startswith("[stage fix_phases]")

    def test_overlap_below_the_completeness_bound_still_fails(self):
        tol = Tolerances(orth_tol=1e-12)
        matrix = perturbed_unitary(5, seed=2, amount=1e-6)
        with pytest.raises(ImagesNotOrthogonal) as info:
            map_basis(general_induced_map(matrix), 5, tol)
        assert info.value.u_value < DEFAULT_TOLERANCES.recon_tol
        report = run_full_conformance(SymmetryOperator(matrix), seed=2, tol=tol, invariance_trials=20)
        entry = report.entry("basis-completeness")
        assert not entry.passed
        assert entry.worst_residual == info.value.u_value

    def test_report_is_deterministic(self):
        op = SymmetryOperator(random_unitary(4, seed=2), antiunitary=True)
        assert run_full_conformance(op, seed=3) == run_full_conformance(op, seed=3)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            run_full_conformance(SymmetryOperator(np.eye(1)), seed=1)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("antiunitary", [False, True])
    def test_valid_generator_grid(self, dim, antiunitary):
        for k in range(3):
            u = random_unitary(dim, seed=300 * dim + 50 * int(antiunitary) + k)
            op = SymmetryOperator(u, antiunitary=antiunitary)
            report = run_full_conformance(op, seed=k, invariance_trials=50)
            assert report.passed, (dim, antiunitary, k)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.diag([1.0, 2.0, 1.0]),
            np.diag([1.0, 1.0, 3.0]),
            perturbed_unitary(3, seed=8, amount=0.1),
        ],
    )
    def test_invalid_oracle_family_fails_a_hypothesis_check(self, matrix):
        report = run_full_conformance(SymmetryOperator(matrix), seed=1, invariance_trials=100)
        hypothesis_entries = [
            report.entry("orthogonality-preservation"),
            report.entry("ray-function-invariance"),
        ]
        assert any(not e.passed for e in hypothesis_entries)
        assert not report.passed

    @pytest.mark.parametrize("dim", [2, 8])
    @pytest.mark.parametrize("scale", [2.0**-1074, 1e-310, 1e300, 1.5e308])
    @pytest.mark.parametrize("matrix", ["identity", "unitary"])
    @pytest.mark.parametrize("antiunitary", [False, True])
    def test_scaled_unitary_passes_all_but_round_trip(self, dim, scale, matrix, antiunitary):
        # c U induces the ray map of U at any scale c; only the round trip sees c.
        u = np.eye(dim) if matrix == "identity" else random_unitary(dim, seed=dim)
        op = SymmetryOperator(scale * u, antiunitary=antiunitary)
        try:
            induced_map(op)
        except SingularMatrix:
            pytest.skip("the entries underflow to a singular matrix")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_full_conformance(op, seed=3, invariance_trials=50)
        assert report.error is None
        assert [e.name for e in report.entries if not e.passed] == ["round-trip"]
        assert np.isfinite(report.entry("round-trip").worst_residual)

    def test_entry_lookup_raises_on_unknown_name(self):
        report = run_full_conformance(SymmetryOperator(np.eye(2)), seed=1, invariance_trials=10)
        with pytest.raises(KeyError):
            report.entry("no-such-check")
