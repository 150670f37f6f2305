import dataclasses
import re
import warnings

import numpy as np
import pytest

from raysym import (
    BasisImages,
    CrossTalk,
    DEFAULT_TOLERANCES,
    DegenerateProbe,
    DimensionMismatch,
    ImagesNotOrthogonal,
    IncompleteImage,
    NotWignerLike,
    ProbeResult,
    RayMapOracle,
    ReconstructionResult,
    RaySymError,
    SliceDegenerate,
    SymmetryOperator,
    Tolerances,
    canonical_ray,
    check_orthogonality_preservation,
    classify_automorphism,
    fix_phases,
    gauge_residual,
    general_induced_map,
    induced_map,
    map_basis,
    probe_automorphism,
    random_unitary,
    reconstruct,
    slice_coordinates,
    verify_reproduction,
)
import raysym.reconstruction
from raysym.rays import canonical_rays, ray_function, sample_ray
from raysym.reconstruction import DEFAULT_PROBE_GRID

from conftest import axis_vector, reference_apply

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
#: The 4 x 4 Hadamard matrix, every entry +-1.
HADAMARD_4 = np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]])
#: Passes map_basis (Gram defect 6e-9) and fix_phases, but f(i) misses i by 1.2e-8.
NEAR_SHEAR = np.array([[1.0, 6e-9], [0.0, 1.0]])


def identity_oracle(dim, antiunitary=False):
    return induced_map(SymmetryOperator(np.eye(dim), antiunitary=antiunitary))


def counting_oracle(oracle):
    """Wrap an oracle so the bytes of every ray asked are logged; returns (oracle, log)."""
    log = []

    def fn(ray):
        log.append(ray.rep.tobytes())
        return oracle.image(ray)

    return RayMapOracle(oracle.dim_in, oracle.dim_out, fn, label="counted"), log


def reference_first_overlap(oracle, dim, tol):
    """First (i, j, u) in row-major order with u > tol.orth_tol, by the pairwise loop."""
    images = [oracle.image(canonical_ray(axis_vector(dim, i))) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            u = ray_function(images[i], images[j])
            if u > tol.orth_tol:
                return i, j, u
    return None


def reported_overlap(oracle, dim, tol):
    try:
        map_basis(oracle, dim, tol)
    except ImagesNotOrthogonal as err:
        return err.i, err.j, err.u_value
    except IncompleteImage:
        pass
    return None


def reference_slice_coordinates(oracle, basis, z, i, tol=DEFAULT_TOLERANCES):
    """slice_coordinates as it was: a fresh conjugate transpose per probe, a loop over axes."""
    dim = basis.dim
    if not 1 <= i < dim:
        raise ValueError(f"probe index must lie in [1, {dim - 1}], got {i}")
    z = complex(z)
    probe = np.zeros(dim, dtype=np.complex128)
    probe[0] = 1.0
    probe[i] = z
    w = oracle.image(canonical_ray(probe)).rep
    b = basis.columns.conj().T @ w
    if abs(b[0]) <= tol.orth_tol:
        raise SliceDegenerate(
            f"image of the probe on axis {i} is orthogonal to the reference axis "
            f"(|b_1| = {abs(b[0]):.3e})"
        )
    for j in range(dim):
        if j in (0, i):
            continue
        if abs(b[j]) > tol.orth_tol:
            raise CrossTalk(i, j, float(abs(b[j])))
    return complex(b[i] / b[0])


def reference_probe_automorphism(oracle, fixed_basis, samples, i, tol=DEFAULT_TOLERANCES):
    """probe_automorphism as it was: a fresh probe for every point, repeats included."""
    r = float(fixed_basis.scales[i])

    def f(z):
        return reference_slice_coordinates(oracle, fixed_basis, z, i, tol) / r

    values = tuple((complex(z), f(z)) for z in samples)
    add_res = 0.0
    mult_res = 0.0
    for k, (a, fa) in enumerate(values):
        for b, fb in values[k:]:
            add_res = max(add_res, abs(f(a + b) - (fa + fb)))
            mult_res = max(mult_res, abs(f(a * b) - fa * fb))
    return ProbeResult(
        index=i,
        values=values,
        additivity_residual=add_res,
        multiplicativity_residual=mult_res,
    )


def leaking_oracle(dim, leaks):
    """Identity on axis rays; adds ``leaks[j]`` to component j of every mixed ray."""

    def tamper(rep):
        out = rep.copy()
        for j, amount in leaks.items():
            out[j] += amount
        return canonical_ray(out)

    return probe_tampering_oracle(dim, tamper)


def bits(values):
    return np.asarray(values, dtype=np.complex128).view(np.uint64).tobytes()


#: Probe points of ``outcome`` on the axes reconstruct itself probes only at z = 1.
OFF_AXIS_SAMPLES = (1j, 0.75 - 0.5j)


def reference_reconstruct(oracle, dim, tol=DEFAULT_TOLERANCES):
    """reconstruct on the reference slice probes: map_basis, a per-axis unit probe, one i probe."""
    basis = map_basis(oracle, dim, tol)
    columns = basis.columns.copy()
    scales = np.ones(dim)
    stage = "fix_phases"
    try:
        for i in range(1, dim):
            c = reference_slice_coordinates(oracle, basis, 1.0, i, tol)
            r = abs(c)
            if r <= tol.orth_tol:
                raise DegenerateProbe(f"unit probe on axis {i} returned magnitude {r:.3e}")
            columns[:, i] *= c / r
            scales[i] = r
        fixed = BasisImages(columns=columns, gram_defect=basis.gram_defect, scales=scales)
        stage = "classify_automorphism"
        f_val = reference_slice_coordinates(oracle, fixed, 1j, 1, tol) / scales[1]
        if abs(f_val - 1j) <= tol.recon_tol:
            antiunitary, residual = False, float(abs(f_val - 1j))
        elif abs(f_val + 1j) <= tol.recon_tol:
            antiunitary, residual = True, float(abs(f_val + 1j))
        else:
            raise NotWignerLike(f_val)
    except RaySymError as err:
        err.stage, err.basis_gram_defect = stage, basis.gram_defect
        raise
    return ReconstructionResult(
        operator=SymmetryOperator(fixed.columns, antiunitary=antiunitary),
        basis=fixed,
        classification_residual=residual,
        unitary_valid=float(np.max(np.abs(scales - 1.0))) <= tol.recon_tol,
    )


def outcome(oracle, dim, recon=reconstruct, probe=probe_automorphism, tol=DEFAULT_TOLERANCES):
    """Bitwise fingerprint of a reconstruction, or the type, message and fields of its error.

    At dim >= 3 it also covers ``probe`` at OFF_AXIS_SAMPLES on every axis
    after the first, so slice probes off axis index 1 are compared too.
    """
    try:
        r = recon(oracle, dim, tol)
        axes = range(1, dim) if dim >= 3 else ()
        probes = [probe(oracle, r.basis, OFF_AXIS_SAMPLES, i, tol) for i in axes]
    except CrossTalk as err:
        return ("CrossTalk", str(err), err.stage, err.index, err.leak_index, err.magnitude)
    except Exception as err:
        return (type(err).__name__, str(err), getattr(err, "stage", None))
    return (
        bits(r.operator.matrix), r.scales.tobytes(), bits([r.classification_residual]),
        r.operator.antiunitary,
        [(p.index, bits([f for _, f in p.values]), p.additivity_residual,
          p.multiplicativity_residual) for p in probes],
    )


def ginibre(dim, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)


def probe_tampering_oracle(dim, tamper):
    """Identity on axis rays; applies ``tamper`` to representatives of mixed rays."""

    def fn(ray):
        rep = ray.rep
        if np.sum(np.abs(rep) > 1e-6) > 1:
            return tamper(rep)
        return canonical_ray(rep)

    return RayMapOracle(dim, dim, fn, label="tampering")


class TestDerivedFields:
    """The result's scales and ``BasisImages.dim`` are read from the data they describe."""

    def test_constructor_fields(self):
        assert [f.name for f in dataclasses.fields(BasisImages)] == [
            "columns", "gram_defect", "scales",
        ]
        assert [f.name for f in dataclasses.fields(ReconstructionResult)] == [
            "operator", "basis", "classification_residual", "unitary_valid",
        ]

    def test_result_scales_are_the_basis_scales(self):
        m = random_unitary(3, seed=6)
        given = np.array([1.0, 0.25, 3.0])
        result = ReconstructionResult(
            operator=SymmetryOperator(m),
            basis=BasisImages(columns=m, gram_defect=0.0, scales=given),
            classification_residual=0.0,
            unitary_valid=False,
        )
        assert result.scales is result.basis.scales
        assert result.scales.tolist() == [1.0, 0.25, 3.0]
        assert result.max_scale_deviation == 2.0
        given[1] = 7.0  # the basis holds a private copy
        assert result.scales[1] == 0.25
        with pytest.raises(ValueError, match="read-only"):
            result.scales[1] = 1.0

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_omitted_scales_are_ones(self, dim):
        scales = BasisImages(columns=np.eye(dim), gram_defect=0.0).scales
        assert scales.dtype == np.float64 and scales.tolist() == [1.0] * dim
        assert map_basis(identity_oracle(dim + 1), dim + 1).scales.tolist() == [1.0] * (dim + 1)

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), (1, 3), (), (0,)])
    def test_scales_must_have_one_entry_per_axis(self, shape):
        message = re.escape(f"scales must have shape (3,), got shape {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            BasisImages(columns=np.eye(3), gram_defect=0.0, scales=np.ones(shape))

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 2])
    def test_scales_must_be_finite_and_positive(self, axis, value):
        # A zero scale would divide the probes by zero, a NaN or infinite one
        # would read as zero law residuals, and -1 would make the identity
        # map classify as conjugation.
        scales = np.ones(3)
        scales[axis] = value
        with pytest.raises(ValueError, match="^scales must be finite and positive$"):
            BasisImages(columns=np.eye(3), gram_defect=0.0, scales=scales)

    @pytest.mark.parametrize("value", [5e-324, 1e-300, 1e300])
    def test_any_finite_positive_scale_is_kept(self, value):
        basis = BasisImages(columns=np.eye(3), gram_defect=0.0, scales=[1.0, value, 1.0])
        assert basis.scales.tolist() == [1.0, value, 1.0]

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_basis_dim_is_the_column_count(self, dim):
        basis = BasisImages(columns=np.eye(dim), gram_defect=0.0)
        assert basis.dim == basis.columns.shape[0] == dim
        assert map_basis(identity_oracle(dim + 1), dim + 1).dim == dim + 1

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 0), (2, 2, 2)])
    def test_basis_columns_must_be_square_and_nonempty(self, shape):
        message = re.escape(f"columns must be square and nonempty, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            BasisImages(columns=np.ones(shape), gram_defect=0.0)


class TestMapBasis:
    def test_identity_images_are_the_axes(self):
        basis = map_basis(identity_oracle(3), 3)
        assert np.allclose(basis.columns, np.eye(3), atol=1e-15)

    def test_swap_permutes_the_axes(self):
        basis = map_basis(induced_map(SymmetryOperator(SWAP)), 2)
        assert np.allclose(basis.columns, SWAP, atol=1e-15)

    def test_diagonal_stretch_keeps_axes_orthogonal(self):
        # axis rays map to axis rays, so the hypothesis violation of
        # diag(1,2,1) is invisible at this stage and surfaces later
        basis = map_basis(general_induced_map(np.diag([1.0, 2.0, 1.0])), 3)
        assert np.allclose(basis.columns, np.eye(3), atol=1e-15)

    def test_shear_violates_image_orthogonality(self):
        oracle = general_induced_map(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ImagesNotOrthogonal) as info:
            map_basis(oracle, 2)
        assert (info.value.i, info.value.j) == (0, 1)
        assert info.value.u_value == pytest.approx(0.5, abs=1e-12)

    def test_small_overlap_fails_completeness_not_orthogonality(self):
        # overlap 1e-6 gives u ~ 1e-12 (below orth_tol) but a Gram defect
        # of 1e-6 (above the default recon_tol)
        m = np.eye(3, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(IncompleteImage):
            map_basis(general_induced_map(m), 3)
        # recon_tol bounds the Gram defect, so a looser one accepts the images
        basis = map_basis(general_induced_map(m), 3, Tolerances(recon_tol=1e-4))
        assert basis.gram_defect == pytest.approx(1e-6, rel=1e-6)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 21, 40])
    @pytest.mark.parametrize("amount", [None, 1e-2, 1e-3])
    def test_first_overlap_matches_the_pairwise_loop(self, dim, amount):
        # amount None is a Ginibre matrix, otherwise U + amount * Ginibre
        for seed in range(4):
            g = ginibre(dim, seed)
            m = g if amount is None else random_unitary(dim, seed) + amount * g
            oracle = general_induced_map(m)
            want = reference_first_overlap(oracle, dim, DEFAULT_TOLERANCES)
            got = reported_overlap(oracle, dim, DEFAULT_TOLERANCES)
            assert want is not None and got[:2] == want[:2]
            assert got[2] == pytest.approx(want[2], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim", [2, 3, 8, 40])
    @pytest.mark.parametrize(
        "amount, tol", [(1e-4, DEFAULT_TOLERANCES), (3e-5, DEFAULT_TOLERANCES),
                        (1e-6, Tolerances(orth_tol=1e-12))],
    )
    def test_small_overlaps_agree_within_summation_rounding(self, dim, amount, tol):
        # G[i, j] sums dim products of unit-vector entries, so two summation
        # orders agree within dim * eps there and 2 * dim * eps * sqrt(u) in u
        eps = np.finfo(float).eps
        for seed in range(4):
            oracle = general_induced_map(random_unitary(dim, seed) + amount * ginibre(dim, seed))
            want = reference_first_overlap(oracle, dim, tol)
            got = reported_overlap(oracle, dim, tol)
            if want is None:
                assert got is None
                continue
            assert got[:2] == want[:2]
            assert abs(got[2] - want[2]) <= 4 * dim * eps * np.sqrt(want[2])

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            map_basis(identity_oracle(2), 1)

    def test_rejects_oracle_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            map_basis(identity_oracle(3), 4)


class TestSliceCoordinates:
    def test_identity_returns_the_probe_value(self):
        basis = map_basis(identity_oracle(3), 3)
        for i in (1, 2):
            assert slice_coordinates(identity_oracle(3), basis, 0.7, i) == pytest.approx(
                0.7, abs=1e-14
            )

    def test_zero_probe_returns_zero(self):
        oracle = identity_oracle(2)
        basis = map_basis(oracle, 2)
        assert abs(slice_coordinates(oracle, basis, 0.0, 1)) <= 1e-15

    def test_conjugation_oracle_conjugates(self):
        oracle = identity_oracle(2, antiunitary=True)
        basis = map_basis(oracle, 2)
        assert slice_coordinates(oracle, basis, 1.0j, 1) == pytest.approx(-1.0j, abs=1e-14)

    def test_diagonal_stretch_scales_the_coordinate(self):
        oracle = general_induced_map(np.diag([1.0, 2.0, 1.0]))
        basis = map_basis(oracle, 3)
        assert slice_coordinates(oracle, basis, 1.0, 1) == pytest.approx(2.0, abs=1e-14)
        assert slice_coordinates(oracle, basis, 1.0, 2) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("dim", [2, 8, 64])
    def test_a_lone_probe_asks_the_ray_and_reads_the_value_of_a_stack(self, dim):
        # A lone probe ray is Ray(v).rep; several are one canonical_rays pass.
        oracle, log = counting_oracle(induced_map(SymmetryOperator(random_unitary(dim, seed=dim))))
        fixed = fix_phases(oracle, map_basis(oracle, dim))
        points = (0.3 + 0.7j, -0.0, 1e-300j, -3.0 + 1.0j, 2.0**-1074, 1e-5 - 7.0j)
        i = dim - 1
        probe = probe_automorphism(oracle, fixed, points, i)
        stack = np.zeros((len(points), dim), dtype=np.complex128)
        stack[:, 0], stack[:, i] = 1.0, points
        for (z, f), ray in zip(probe.values, canonical_rays(stack)):
            log.clear()
            c = slice_coordinates(oracle, fixed, z, i)
            assert log == [ray.tobytes()]
            assert bits([c / fixed.scales[i]]) == bits([f])

    def test_probe_index_bounds(self):
        oracle = identity_oracle(3)
        basis = map_basis(oracle, 3)
        with pytest.raises(ValueError):
            slice_coordinates(oracle, basis, 1.0, 0)
        with pytest.raises(ValueError):
            slice_coordinates(oracle, basis, 1.0, 3)

    def test_degenerate_slice_detected(self):
        oracle = probe_tampering_oracle(
            3, lambda rep: canonical_ray(axis_vector(3, 1))
        )
        basis = map_basis(oracle, 3)
        with pytest.raises(SliceDegenerate):
            slice_coordinates(oracle, basis, 1.0, 1)

    def test_cross_talk_detected(self):
        def leak(rep):
            out = rep.copy()
            out[2] += 0.3
            return canonical_ray(out)

        oracle = probe_tampering_oracle(3, leak)
        basis = map_basis(oracle, 3)
        with pytest.raises(CrossTalk) as info:
            slice_coordinates(oracle, basis, 1.0, 1)
        assert info.value.leak_index == 2

    @pytest.mark.parametrize(
        "leaks",
        [
            {2: 0.3, 4: 0.9, 5: 1e-3},          # several leaks: the lowest axis is named
            {4: 2e-9, 5: 0.5},                   # just above orth_tol on a low axis
            {2: 7e-10, 4: 3e-9},                 # a near-threshold leak below orth_tol is skipped
            {2: 3e-10, 3: 4e-10, 5: 6e-10},      # every leak below orth_tol: no CrossTalk
        ],
    )
    def test_cross_talk_matches_the_axis_loop(self, leaks):
        oracle = leaking_oracle(6, leaks)
        basis = map_basis(oracle, 6)
        for i in range(1, 6):
            try:
                want = reference_slice_coordinates(oracle, basis, 0.4 - 0.3j, i)
            except CrossTalk as err:
                with pytest.raises(CrossTalk) as info:
                    slice_coordinates(oracle, basis, 0.4 - 0.3j, i)
                assert str(info.value) == str(err)
                assert (info.value.index, info.value.leak_index) == (err.index, err.leak_index)
                assert info.value.magnitude == err.magnitude
            else:
                assert slice_coordinates(oracle, basis, 0.4 - 0.3j, i) == want

    def test_reported_magnitude_is_the_scalar_abs_of_the_axis_loop(self):
        # the array abs differs from the scalar abs in the last bit for about a
        # third of random complex values; the reported magnitude must not
        rng = np.random.default_rng(17)
        for _ in range(20):
            axes = rng.choice(np.arange(2, 8), size=3, replace=False)
            leaks = {int(j): complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-6, -1) for j in axes}
            oracle = leaking_oracle(8, leaks)
            basis = map_basis(oracle, 8)
            with pytest.raises(CrossTalk) as want:
                reference_slice_coordinates(oracle, basis, 0.8 + 0.1j, 1)
            with pytest.raises(CrossTalk) as got:
                slice_coordinates(oracle, basis, 0.8 + 0.1j, 1)
            assert got.value.leak_index == want.value.leak_index == min(leaks)
            assert got.value.magnitude == want.value.magnitude

    def test_lowest_leaking_axis_is_named(self):
        oracle = leaking_oracle(6, {2: 0.3, 4: 0.9, 5: 1e-3})
        with pytest.raises(CrossTalk) as info:
            reconstruct(oracle, 6)
        assert (info.value.stage, info.value.index, info.value.leak_index) == ("fix_phases", 1, 2)


class TestFixPhases:
    def test_identity_keeps_columns_and_unit_scales(self):
        oracle = identity_oracle(3)
        basis = map_basis(oracle, 3)
        fixed = fix_phases(oracle, basis)
        assert np.allclose(fixed.columns, np.eye(3), atol=1e-15)
        assert np.allclose(fixed.scales, 1.0, atol=1e-15)

    def test_reprobe_after_fixing_is_real_positive(self):
        op = SymmetryOperator(np.diag([1.0, np.exp(1j * np.pi / 3)]))
        oracle = induced_map(op)
        basis = map_basis(oracle, 2)
        fixed = fix_phases(oracle, basis)
        assert fixed.scales[1] == pytest.approx(1.0, abs=1e-12)
        c = slice_coordinates(oracle, fixed, 1.0, 1)
        assert c.real == pytest.approx(1.0, abs=1e-12)
        assert abs(c.imag) <= 1e-9

    def test_diagonal_stretch_scales(self):
        oracle = general_induced_map(np.diag([1.0, 2.0, 1.0]))
        basis = map_basis(oracle, 3)
        scales = fix_phases(oracle, basis).scales
        np.testing.assert_allclose(scales, [1.0, 2.0, 1.0], atol=1e-12)

    def test_asks_one_unit_probe_per_axis(self):
        oracle, asked = counting_oracle(identity_oracle(4))
        basis = map_basis(oracle, 4)
        fix_phases(oracle, basis)
        units = [canonical_ray(axis_vector(4, 0) + axis_vector(4, i)) for i in (1, 2, 3)]
        assert asked[4:] == [ray.rep.tobytes() for ray in units]

    def test_degenerate_probe_detected(self):
        oracle = probe_tampering_oracle(
            3, lambda rep: canonical_ray(axis_vector(3, 0))
        )
        basis = map_basis(oracle, 3)
        with pytest.raises(DegenerateProbe):
            fix_phases(oracle, basis)


class TestClassifyAutomorphism:
    def test_identity_oracle(self):
        oracle = identity_oracle(3)
        fixed = fix_phases(oracle, map_basis(oracle, 3))
        assert classify_automorphism(oracle, fixed)[0] is False

    def test_conjugation_oracle(self):
        oracle = identity_oracle(3, antiunitary=True)
        fixed = fix_phases(oracle, map_basis(oracle, 3))
        assert classify_automorphism(oracle, fixed)[0] is True

    def test_unitary_composed_with_conjugation(self):
        op = SymmetryOperator(random_unitary(5, seed=31), antiunitary=True)
        oracle = induced_map(op)
        fixed = fix_phases(oracle, map_basis(oracle, 5))
        assert classify_automorphism(oracle, fixed)[0] is True

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    @pytest.mark.parametrize("antiunitary", [False, True])
    def test_the_flag_is_a_bool_and_reconstruct_carries_it(self, dim, antiunitary):
        oracle = induced_map(SymmetryOperator(random_unitary(dim, seed=dim), antiunitary=antiunitary))
        fixed = fix_phases(oracle, map_basis(oracle, dim))
        flag, _ = classify_automorphism(oracle, fixed)
        assert type(flag) is bool
        assert flag is antiunitary
        assert reconstruct(oracle, dim).operator.antiunitary is flag

    def test_modulus_map_is_not_wigner_like(self):
        oracle = probe_tampering_oracle(
            3, lambda rep: canonical_ray(np.abs(rep).astype(complex))
        )
        fixed = fix_phases(oracle, map_basis(oracle, 3))
        with pytest.raises(NotWignerLike):
            classify_automorphism(oracle, fixed)


    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_residual_is_the_distance_to_the_nearer_of_i_and_minus_i(self, dim):
        u = random_unitary(dim, seed=40 + dim)
        noise = 1e-10 * ginibre(dim, dim)
        for antiunitary in (False, True):
            for m in (u, u + noise, u * (1.0 + np.arange(dim) / dim) + noise):
                oracle = general_induced_map(m, conjugate_first=antiunitary)
                fixed = fix_phases(oracle, map_basis(oracle, dim))
                flag, residual = classify_automorphism(oracle, fixed)
                f = slice_coordinates(oracle, fixed, 1j, 1) / fixed.scales[1]
                assert flag is antiunitary
                assert type(residual) is float
                assert residual == min(abs(f - 1j), abs(f + 1j))


class TestStagesNameThemselves:
    """Each stage called on its own names itself on its errors, exactly as under reconstruct."""

    @staticmethod
    def raised(call, *args):
        with pytest.raises(RaySymError) as info:
            call(*args)
        return info.value

    def test_map_basis(self):
        oracle = general_induced_map(SHEAR)
        err = self.raised(map_basis, oracle, 2)
        assert isinstance(err, ImagesNotOrthogonal)
        assert (err.stage, err.basis_gram_defect) == ("map_basis", None)
        assert str(err) == str(self.raised(reconstruct, oracle, 2))

    def test_fix_phases(self):
        oracle = general_induced_map(np.diag([1.0, 1e-10, 1.0]))
        err = self.raised(fix_phases, oracle, map_basis(oracle, 3))
        assert isinstance(err, DegenerateProbe)
        assert (err.stage, err.basis_gram_defect) == ("fix_phases", 0.0)
        assert str(err) == str(self.raised(reconstruct, oracle, 3))

    def test_fix_phases_names_its_slice_probe_errors(self):
        oracle = leaking_oracle(4, {3: 0.2})
        basis = map_basis(oracle, 4)
        err = self.raised(fix_phases, oracle, basis)
        assert isinstance(err, CrossTalk)
        assert (err.stage, err.basis_gram_defect) == ("fix_phases", basis.gram_defect)

    def test_classify_automorphism(self):
        oracle = general_induced_map(NEAR_SHEAR)
        fixed = fix_phases(oracle, map_basis(oracle, 2))
        err = self.raised(classify_automorphism, oracle, fixed)
        assert isinstance(err, NotWignerLike)
        assert err.stage == "classify_automorphism"
        assert err.basis_gram_defect == fixed.gram_defect > 0.0
        assert str(err) == str(self.raised(reconstruct, oracle, 2))

    def test_slice_probes_outside_a_stage_stay_unnamed(self):
        oracle = leaking_oracle(4, {3: 0.2})
        basis = map_basis(oracle, 4)
        assert self.raised(slice_coordinates, oracle, basis, 1.0, 1).stage is None
        assert self.raised(probe_automorphism, oracle, basis, (1.0,), 1).stage is None


class TestProbeAutomorphism:
    def test_identity_oracle_probes_to_identity(self):
        oracle = identity_oracle(3)
        fixed = fix_phases(oracle, map_basis(oracle, 3))
        probe = probe_automorphism(oracle, fixed, (1.0, 1.0j, 1.0 + 1.0j), 1)
        for z, f_z in probe.values:
            assert f_z == pytest.approx(z, abs=1e-12)
        assert probe.additivity_residual <= 1e-12
        assert probe.multiplicativity_residual <= 1e-12

    def test_conjugation_oracle_probes_to_conjugation(self):
        oracle = identity_oracle(2, antiunitary=True)
        fixed = fix_phases(oracle, map_basis(oracle, 2))
        probe = probe_automorphism(oracle, fixed, (2.0, 1.0j), 1)
        table = dict(probe.values)
        assert table[2.0 + 0.0j] == pytest.approx(2.0, abs=1e-12)
        assert table[1.0j] == pytest.approx(-1.0j, abs=1e-12)
        assert probe.multiplicativity_residual <= 1e-12
        assert probe.additivity_residual <= 1e-12

    def test_diagonal_stretch_probes_cleanly_despite_violations(self):
        # pointwise probing cannot certify the global hypotheses: the scaled
        # axis normalizes away and the law residuals stay at rounding level
        oracle = general_induced_map(np.diag([1.0, 2.0, 1.0]))
        fixed = fix_phases(oracle, map_basis(oracle, 3))
        probe = probe_automorphism(oracle, fixed, DEFAULT_PROBE_GRID, 1)
        for z, f_z in probe.values:
            assert f_z == pytest.approx(z, abs=1e-12)
        assert probe.additivity_residual <= 1e-12
        assert probe.multiplicativity_residual <= 1e-12

    def test_default_grid_has_the_required_points(self):
        assert len(DEFAULT_PROBE_GRID) == 12
        for required in (0.0, 1.0, -1.0, 1.0j, 1.0 + 1.0j):
            assert required in DEFAULT_PROBE_GRID

    @pytest.mark.parametrize(
        "samples", [(1.0, 1e308, 2.0), (1e200,), (float("inf"),), (1.0, complex("nan"))]
    )
    def test_non_finite_points_are_rejected_before_any_ray_is_asked(self, samples):
        # a sample, or a sum or product of two samples, that is not finite
        oracle, asked = counting_oracle(identity_oracle(3))
        fixed = fix_phases(oracle, map_basis(oracle, 3))
        asked.clear()
        with pytest.raises(ValueError, match="vector components must be finite"):
            probe_automorphism(oracle, fixed, samples, 1)
        assert asked == []

    def test_no_samples_ask_nothing(self):
        # A probe of no sample is refused: its zero residuals would read as laws that hold.
        oracle, asked = counting_oracle(identity_oracle(3))
        fixed = fix_phases(oracle, map_basis(oracle, 3))
        asked.clear()
        for samples in ((), []):
            with pytest.raises(ValueError, match="^probe_automorphism needs at least one sample$"):
                probe_automorphism(oracle, fixed, samples, 2)
        assert asked == []


def probe_fingerprint(probe):
    return (
        probe.index, bits([z for z, _ in probe.values]), bits([f for _, f in probe.values]),
        bits([probe.additivity_residual, probe.multiplicativity_residual]),
    )


def probe_outcome(oracle, fixed, samples, i, probe):
    """Fingerprint of ``probe``'s result, or of its CrossTalk, and the rays it asked."""
    recorded, log = counting_oracle(oracle)
    try:
        result = probe_fingerprint(probe(recorded, fixed, samples, i))
    except CrossTalk as err:
        result = ("CrossTalk", str(err), err.index, err.leak_index, err.magnitude)
    return result, log


class TestProbeDeduplication:
    """probe_automorphism against the loop that probed every point afresh."""

    def assert_reference_minus_repeats(self, oracle, dim, samples, i):
        fixed = fix_phases(oracle, map_basis(oracle, dim))
        want, want_rays = probe_outcome(oracle, fixed, samples, i, reference_probe_automorphism)
        got, got_rays = probe_outcome(oracle, fixed, samples, i, probe_automorphism)
        assert got == want
        # each distinct ray of the reference's asks, once, in order of first occurrence
        assert got_rays == list(dict.fromkeys(want_rays))
        return got, got_rays, want_rays

    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("kind", ["unitary", "antiunitary", "noisy"])
    @pytest.mark.parametrize("samples", [DEFAULT_PROBE_GRID, (1, 1, 0.0, -0.0)])
    def test_same_result_each_point_asked_once(self, dim, kind, samples):
        u = random_unitary(dim, seed=90 + dim)
        if kind == "noisy":
            oracle = RayMapOracle(
                dim, dim, lambda r: canonical_ray(u @ r.rep + 1e-10 * np.sin(7e3 * r.rep.real)),
                label="noisy",
            )
        else:
            oracle = induced_map(SymmetryOperator(u, antiunitary=(kind == "antiunitary")))
        for i in sorted({1, dim - 1}):
            _, got_rays, want_rays = self.assert_reference_minus_repeats(oracle, dim, samples, i)
            if samples is DEFAULT_PROBE_GRID:
                # 123 bitwise-distinct points, two of them signed-zero variants of
                # another point that make the same canonical probe ray
                assert (len(got_rays), len(want_rays)) == (121, 168)
            else:
                # 1 and 2, and the zeros 0j, -0.0 + 0j and -0j: the first two make
                # the same probe ray, while -0j leaves a -0.0 in the canonical one
                assert (len(got_rays), len(want_rays)) == (4, 24)

    @pytest.mark.parametrize("dim", [3, 8])
    def test_a_leak_raises_the_same_cross_talk_after_a_prefix_of_the_asks(self, dim):
        # axis and unit probes pass; a probe point of modulus above 1.5 leaks onto axis 3
        def fn(ray):
            rep = ray.rep.copy()
            if 0.0 < 1.5 * abs(rep[0]) < abs(rep[1]):
                rep[2] += 1e-3
            return canonical_ray(rep)

        oracle = RayMapOracle(dim, dim, fn, label="leak-beyond-modulus-1.5")
        got, got_rays, want_rays = self.assert_reference_minus_repeats(
            oracle, dim, DEFAULT_PROBE_GRID, 1
        )
        assert got[0] == "CrossTalk" and got[2:4] == (1, 2)
        assert len(got_rays) < len(want_rays) < 168

    @pytest.mark.parametrize("i", [1.0, 2.0, np.float64(1.0), 1 + 0j])
    def test_an_index_of_no_integral_type_is_refused_before_any_ask(self, i, image_calls):
        oracle = identity_oracle(3)
        fixed = fix_phases(oracle, map_basis(oracle, 3))
        image_calls[0] = 0
        with pytest.raises(TypeError):
            slice_coordinates(oracle, fixed, 1j, i)
        with pytest.raises(TypeError):
            probe_automorphism(oracle, fixed, DEFAULT_PROBE_GRID, i)
        assert image_calls[0] == 0

    @pytest.mark.parametrize("i", [np.int64(2), np.uint8(2), np.intp(2)])
    def test_numpy_integers_are_indices(self, i):
        oracle = induced_map(SymmetryOperator(random_unitary(3, seed=8)))
        fixed = fix_phases(oracle, map_basis(oracle, 3))
        assert slice_coordinates(oracle, fixed, 0.5j, i) == slice_coordinates(oracle, fixed, 0.5j, 2)
        probe = probe_automorphism(oracle, fixed, (0.5j, 1.5), i)
        assert type(probe.index) is int
        assert probe == probe_automorphism(oracle, fixed, (0.5j, 1.5), 2)

    @pytest.mark.parametrize("dim", [2, 5])
    def test_index_is_checked_before_the_scales_are_read(self, dim):
        oracle = identity_oracle(dim)
        fixed = fix_phases(oracle, map_basis(oracle, dim))
        message = f"probe index must lie in [1, {dim - 1}], got "
        for i, samples in ((dim, DEFAULT_PROBE_GRID), (0, ()), (-1, ())):
            with pytest.raises(ValueError) as info:
                probe_automorphism(oracle, fixed, samples, i)
            assert str(info.value) == message + str(i)


def leak_probe_3():
    """u3 (I + 1e-5 E_32): fix_phases' probes leak 7.07e-6, the automorphism probe 8.16e-6."""
    shear = np.eye(3, dtype=np.complex128)
    shear[2, 1] = 1e-5
    return random_unitary(3, seed=11) @ shear


#: Passes reconstruct on leak_probe_3, with a margin of 6-8% to the leaks on either side.
LEAK_PROBE_TOL = Tolerances(orth_tol=7.5e-6, recon_tol=1e-4)


class TestMatrixOracleProbeStack:
    """A matrix oracle asks its slice probes as one stack; a plain callable asks them lazily.

    The plain oracle wraps the matrix oracle's own ``image``, so both answer
    every ray with the same bits, and only the ask path differs.
    """

    @staticmethod
    def log_asks(monkeypatch):
        """From here on, log every asked ray's bytes and the row count of every ``_images`` stack."""
        rays, stacks = [], []
        image = RayMapOracle.image

        def logged_image(oracle, ray):
            rays.append(ray.rep.tobytes())
            return image(oracle, ray)

        def logged(images):
            def logged_images(oracle, rows):
                stacks.append(rows.shape[0])
                return images(oracle, rows)

            return logged_images

        monkeypatch.setattr(RayMapOracle, "image", logged_image)
        # Wherever ``_images`` is defined: a matrix oracle answers its stacks itself.
        for cls in (RayMapOracle, *RayMapOracle.__subclasses__()):
            if "_images" in vars(cls):
                monkeypatch.setattr(cls, "_images", logged(vars(cls)["_images"]))
        return rays, stacks

    @staticmethod
    def stages(oracle, dim):
        fixed = fix_phases(oracle, map_basis(oracle, dim))
        antiunitary, residual = classify_automorphism(oracle, fixed)
        probes = [
            probe_fingerprint(probe_automorphism(oracle, fixed, samples, i))
            for samples in (DEFAULT_PROBE_GRID, (0, -0.0, 1, 1))
            for i in sorted({1, dim - 1})
        ]
        return bits(fixed.columns), fixed.scales.tobytes(), antiunitary, bits([residual]), probes

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    @pytest.mark.parametrize("antiunitary", [False, True])
    def test_same_bits_and_asks_as_the_lazy_path(self, dim, antiunitary, monkeypatch):
        oracle = induced_map(SymmetryOperator(random_unitary(dim, seed=40 + dim), antiunitary))
        plain = RayMapOracle(dim, dim, oracle.image)
        rays, stacks = self.log_asks(monkeypatch)
        got = self.stages(oracle, dim)
        got_rays, got_stacks = rays[:], stacks[:]
        rays.clear()
        stacks.clear()
        assert got == self.stages(plain, dim)
        assert got[2] is antiunitary
        assert got_rays == rays
        # map_basis' axes, then one stack per stage, a lone ray as a one-row stack:
        # fix_phases' dim - 1 unit probes, classify_automorphism's one ray, and
        # 121 and 4 rays per probed axis.
        axes = len({1, dim - 1})
        assert got_stacks == [dim, dim - 1, 1, *[121] * axes, *[4] * axes]
        assert stacks == [dim]

    def test_a_leak_partway_through_the_stack_raises_the_lazy_path_error(self, monkeypatch):
        oracle = general_induced_map(leak_probe_3())
        plain = RayMapOracle(3, 3, oracle.image)
        fixed = reconstruct(oracle, 3, LEAK_PROBE_TOL).basis
        rays, _ = self.log_asks(monkeypatch)
        outcomes = []
        for probed in (oracle, plain):
            rays.clear()
            with pytest.raises(CrossTalk) as info:
                probe_automorphism(probed, fixed, tol=LEAK_PROBE_TOL)
            err = info.value
            outcomes.append(((str(err), err.index, err.leak_index, bits([err.magnitude])), rays[:]))
        (stacked, stacked_rays), (lazy, lazy_rays) = outcomes
        assert stacked == lazy
        message = "probe on axis 1 leaks onto axis 2 (component magnitude 8.165e-06)"
        assert stacked[:3] == (message, 1, 2)
        assert err.magnitude == pytest.approx(8.16496580886632e-06, rel=1e-9)
        # the lazy path stops at the sixth sample, 1+i; the stack asked all 121 rays first
        assert len(lazy_rays) == 6 and len(stacked_rays) == 121
        assert stacked_rays[:6] == lazy_rays
        assert lazy_rays[-1] == canonical_ray(np.array([1.0, 1.0 + 1.0j, 0.0])).rep.tobytes()


def reference_scored_rows(stacks, basis, axes, tol):
    """The per-row scorer: each answer row scored alone, in order, as its stack is taken."""
    adjoint = basis.columns.conj().T
    axes = iter(axes)
    for w in stacks:
        for row in w:
            i = next(axes)
            b = adjoint.dot(row)
            if abs(b[0]) <= tol.orth_tol:
                raise SliceDegenerate(
                    f"image of the probe on axis {i} is orthogonal to the reference axis "
                    f"(|b_1| = {abs(b[0]):.3e})"
                )
            for j in range(1, basis.dim):
                if j != i and abs(b[j]) > tol.orth_tol:
                    raise CrossTalk(i, j, float(abs(b[j])))
            yield complex(b[i] / b[0])


def scored(run):
    """Bitwise fingerprint of ``run()``'s result, or the type, message and fields of its error."""
    try:
        result = run()
    except RaySymError as err:
        fields = (err.index, err.leak_index, bits([err.magnitude])) if isinstance(err, CrossTalk) else ()
        return (type(err).__name__, str(err), err.stage, *fields)
    if isinstance(result, BasisImages):
        return bits(result.columns), result.scales.tobytes()
    if isinstance(result, ProbeResult):
        return probe_fingerprint(result)
    return bits([result])


#: Probe points at the edges of double range: a signed zero, a tiny imaginary part, the
#: smallest subnormal; and three generic points.
EDGE_SAMPLES = (0.3 + 0.7j, -0.0, 1e-300j, 2.0**-1074, -3.0 + 1.0j, 1e-5 - 7.0j)


class TestStackedScorer:
    """Each answer stack is scored in one pass, with the bits of the per-row scorer."""

    @staticmethod
    def stages(oracle, basis, fixed, tol):
        dim = basis.dim
        runs = [lambda: fix_phases(oracle, basis, tol)]
        runs += [lambda z=z: slice_coordinates(oracle, fixed, z, dim - 1, tol) for z in EDGE_SAMPLES]
        runs += [
            lambda i=i, samples=samples: probe_automorphism(oracle, fixed, samples, i, tol)
            for i in sorted({1, dim - 1})
            for samples in (EDGE_SAMPLES, DEFAULT_PROBE_GRID)
        ]
        return [scored(run) for run in runs]

    @pytest.mark.parametrize("dim", [2, 3, 8, 64, 256])
    @pytest.mark.parametrize("kind", ["unitary", "antiunitary", "general", "leak", "leak-loose"])
    def test_same_bits_as_the_per_row_scorer(self, dim, kind, monkeypatch):
        u = random_unitary(dim, seed=300 + dim)
        clean = induced_map(SymmetryOperator(u, antiunitary=(kind == "antiunitary")))
        tol = LEAK_PROBE_TOL if kind == "leak-loose" else DEFAULT_TOLERANCES
        if kind == "general":
            clean = oracle = general_induced_map(u * (1.0 + np.arange(dim) / dim))
        elif kind.startswith("leak"):
            # at dim >= 3 the probes on axis 1 leak onto the last axis, the more the larger |z|
            shear = np.eye(dim, dtype=np.complex128)
            if dim >= 3:
                shear[-1, 1] = 1e-5
            oracle = general_induced_map(u @ shear)
        else:
            oracle = clean
        basis = map_basis(clean, dim)
        fixed = fix_phases(clean, basis)
        plain = RayMapOracle(dim, dim, oracle.image)
        got = [self.stages(o, basis, fixed, tol) for o in (oracle, plain)]
        monkeypatch.setattr(raysym.reconstruction, "_scored_rows", reference_scored_rows)
        want = self.stages(plain, basis, fixed, tol)
        assert got == [want, want]
        if kind == "leak" and dim >= 3:
            assert want[0][0] == "CrossTalk"  # fix_phases' unit probe on axis 1
        if kind == "leak-loose" and dim >= 3:
            # the unit probes pass; the default grid on axis 1 fails partway, at 1+i
            assert want[0][0] != "CrossTalk" and want[8][0] == "CrossTalk"

    @pytest.mark.parametrize("wrap", [False, True])
    def test_a_zero_b1_raises_slice_degenerate_with_no_warning(self, wrap, monkeypatch):
        # ray(e_1 + e_2) maps to ray(e_2), orthogonal to the reference axis: b_1 is exactly 0
        oracle = general_induced_map(np.array([[1.0, -1.0], [0.0, 1.0]]))
        if wrap:
            oracle = RayMapOracle(2, 2, oracle.image)
        fixed = fix_phases(identity_oracle(2), map_basis(identity_oracle(2), 2))
        runs = [
            lambda: slice_coordinates(oracle, fixed, 1.0, 1),
            lambda: probe_automorphism(oracle, fixed, (0.5, 1.0)),  # the second row fails
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [scored(run) for run in runs]
            monkeypatch.setattr(raysym.reconstruction, "_scored_rows", reference_scored_rows)
            want = [scored(run) for run in runs]
        message = "image of the probe on axis 1 is orthogonal to the reference axis (|b_1| = 0.000e+00)"
        assert got == want == [("SliceDegenerate", message, None)] * 2

    @pytest.mark.parametrize("wrap", [False, True])
    def test_the_callers_error_on_an_earlier_probe_wins(self, wrap, monkeypatch):
        # axis 1's unit probe reads 1e-4, which fix_phases refuses; axis 2's image
        # is orthogonal to the reference axis within orth_tol
        oracle = general_induced_map(random_unitary(3, seed=11) @ np.diag([1.0, 1e-4, 1e4]))
        if wrap:
            oracle = RayMapOracle(3, 3, oracle.image)
        tol = Tolerances(orth_tol=1e-3, recon_tol=1e-4)
        basis = map_basis(oracle, 3, tol)
        rays, _ = TestMatrixOracleProbeStack.log_asks(monkeypatch)
        with pytest.raises(DegenerateProbe) as info:
            fix_phases(oracle, basis, tol)
        message = "[stage fix_phases] unit probe on axis 1 returned magnitude 1.000e-04"
        assert str(info.value) == message
        # the stack asked both unit probes; a plain oracle no ray past the refused one
        assert len(set(rays)) == (1 if wrap else 2)
        with pytest.raises(SliceDegenerate):
            slice_coordinates(oracle, basis, 1.0, 2, tol)


class TestReconstruct:
    def test_identity(self):
        result = reconstruct(identity_oracle(3), 3)
        assert result.operator.antiunitary is False
        assert result.unitary_valid
        assert np.allclose(result.operator.matrix, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(result.scales, 1.0, atol=1e-15)

    def test_swap(self):
        result = reconstruct(induced_map(SymmetryOperator(SWAP)), 2)
        assert result.operator.antiunitary is False
        assert result.unitary_valid
        assert np.allclose(result.operator.matrix, SWAP, atol=1e-14)

    def test_antiunitary_identity(self):
        result = reconstruct(identity_oracle(4, antiunitary=True), 4)
        assert result.operator.antiunitary is True
        assert result.unitary_valid
        assert np.allclose(result.operator.matrix, np.eye(4), atol=1e-14)

    def test_diagonal_stretch_is_diagnostic_only(self):
        result = reconstruct(general_induced_map(np.diag([1.0, 2.0, 1.0])), 3)
        assert not result.unitary_valid
        np.testing.assert_allclose(result.scales, [1.0, 2.0, 1.0], atol=1e-12)
        assert result.max_scale_deviation == pytest.approx(1.0, abs=1e-12)
        assert result.operator.antiunitary is False

    def test_probe_budget_is_two_n(self):
        base = induced_map(SymmetryOperator(random_unitary(4, seed=41)))
        oracle, asked = counting_oracle(base)
        reconstruct(oracle, 4)
        assert len(asked) == 2 * 4

    @pytest.mark.parametrize("dim", [3, 4, 8])
    def test_axis_dependent_conjugation_fails_the_sampled_checks(self, dim):
        # Conjugating coordinate 2 alone answers each of reconstruct's 2*dim
        # probes as plain conjugation does; only the sampled checks see it.
        def fn(ray):
            rep = ray.rep.copy()
            rep[1] = np.conj(rep[1])
            return canonical_ray(rep)

        oracle, asked = counting_oracle(RayMapOracle(dim, dim, fn, label="axis-conjugation"))
        result = reconstruct(oracle, dim)
        assert len(asked) == 2 * dim
        assert result.operator.antiunitary is True
        assert result.unitary_valid
        report = check_orthogonality_preservation(oracle, 200, seed=0)
        assert [e.passed for e in report.entries] == [False, False]
        assert verify_reproduction(result.operator, oracle) > 0.5

    def test_classification_residual_is_the_classifier_residual(self):
        oracle = identity_oracle(3)
        result = reconstruct(oracle, 3)
        fixed = fix_phases(oracle, map_basis(oracle, 3))
        assert classify_automorphism(oracle, fixed) == (
            result.operator.antiunitary, result.classification_residual
        )
        assert result.classification_residual <= 1e-12

    def test_stage_annotation(self):
        oracle = general_induced_map(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ImagesNotOrthogonal) as info:
            reconstruct(oracle, 2)
        assert info.value.stage == "map_basis"
        assert info.value.basis_gram_defect is None

    def test_later_stage_errors_carry_the_basis_gram_defect(self):
        oracle = general_induced_map(np.diag([1.0, 1e-10, 1.0]))
        with pytest.raises(DegenerateProbe) as info:
            reconstruct(oracle, 3)
        assert info.value.stage == "fix_phases"
        assert info.value.basis_gram_defect == 0.0

    def test_result_carries_the_phase_fixed_basis(self):
        oracle = induced_map(SymmetryOperator(random_unitary(4, seed=12)))
        result = reconstruct(oracle, 4)
        assert np.array_equal(result.basis.columns, result.operator.matrix)
        assert result.basis.gram_defect <= 1e-14

    def test_deterministic(self):
        oracle = induced_map(SymmetryOperator(random_unitary(6, seed=55), antiunitary=True))
        a = reconstruct(oracle, 6)
        b = reconstruct(oracle, 6)
        assert np.array_equal(a.operator.matrix, b.operator.matrix)
        assert np.array_equal(a.scales, b.scales)
        assert a.classification_residual == b.classification_residual
        assert a.operator.antiunitary is b.operator.antiunitary

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError, match="reconstruction requires dimension at least 2"):
            reconstruct(identity_oracle(2), 1)

    @pytest.mark.parametrize("dim", [2, 3, 8, 33, 64])
    def test_bitwise_equal_to_the_per_probe_conjugate_reference(self, dim):
        u = random_unitary(dim, seed=dim)
        noise = ginibre(dim, dim)
        oracles = [
            induced_map(SymmetryOperator(u)),
            induced_map(SymmetryOperator(u, antiunitary=True)),
            general_induced_map(u * (1.0 + np.arange(dim) / dim)),
            general_induced_map(u + 1e-9 * noise),
            general_induced_map(noise),
            leaking_oracle(dim, {dim - 1: 1e-3}) if dim >= 3 else identity_oracle(2),
            # a leak whose array abs differs from its scalar abs in the last bit
            leaking_oracle(dim, {dim - 1: (0.6 + 0.8j) * 1e-3}) if dim >= 3 else identity_oracle(2),
            # deterministic noise of size 1e-10, a function of the input ray
            RayMapOracle(dim, dim, lambda r: canonical_ray(u @ r.rep + 1e-10 * np.sin(7e3 * r.rep.real)),
                         label="noisy"),
        ]
        for k, oracle in enumerate(oracles):
            got = outcome(oracle, dim)
            want = outcome(oracle, dim, reference_reconstruct, reference_probe_automorphism)
            assert got == want, f"oracle {k}"

    def test_reconstructed_operator_preserves_transition_probabilities(self):
        op = SymmetryOperator(random_unitary(4, seed=83), antiunitary=True)
        recon = reconstruct(induced_map(op), 4)
        assert recon.unitary_valid
        rng = np.random.default_rng(19)
        for _ in range(1000):
            x = sample_ray(4, rng)
            y = sample_ray(4, rng)
            img_x = canonical_ray(reference_apply(recon.operator, x.rep))
            img_y = canonical_ray(reference_apply(recon.operator, y.rep))
            assert abs(ray_function(img_x, img_y) - ray_function(x, y)) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    @pytest.mark.parametrize("antiunitary", [False, True])
    def test_round_trip_recovers_the_operator(self, dim, antiunitary):
        for k in range(2):
            u = random_unitary(dim, seed=100 * dim + 10 * int(antiunitary) + k)
            op = SymmetryOperator(u, antiunitary=antiunitary)
            oracle = induced_map(op)
            result = reconstruct(oracle, dim)
            assert result.operator.antiunitary == antiunitary
            assert result.unitary_valid
            assert result.max_scale_deviation <= 1e-8
            assert gauge_residual(result.operator.matrix, u) <= 1e-8
            assert verify_reproduction(result.operator, oracle, trials=50, seed=k) <= 1e-8


class TestVerifyReproduction:
    def test_identity_against_itself(self):
        op = SymmetryOperator(np.eye(3))
        assert verify_reproduction(op, induced_map(op), trials=50, seed=1) <= 1e-12

    def test_reconstructed_operator_reproduces_its_oracle(self):
        op = SymmetryOperator(random_unitary(4, seed=61), antiunitary=True)
        oracle = induced_map(op)
        result = reconstruct(oracle, 4)
        assert verify_reproduction(result.operator, oracle, trials=100, seed=2) <= 1e-9

    def test_identity_operator_against_swap_oracle(self):
        # independent evaluation: for unit x, u(x, swap x) = (2 Re(conj(x0) x1))^2
        op = SymmetryOperator(np.eye(2))
        oracle = induced_map(SymmetryOperator(SWAP))
        got = verify_reproduction(op, oracle, trials=100, seed=77)
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(100):
            x = sample_ray(2, rng).rep
            overlap = 2.0 * float((np.conj(x[0]) * x[1]).real)
            worst = max(worst, 1.0 - overlap * overlap)
        assert got == pytest.approx(worst, abs=1e-12)
        assert got > 0.9

    def test_rejects_bad_arguments(self):
        op = SymmetryOperator(np.eye(2))
        oracle = induced_map(op)
        with pytest.raises(ValueError):
            verify_reproduction(op, oracle, trials=0, seed=1)
        with pytest.raises(DimensionMismatch):
            verify_reproduction(SymmetryOperator(np.eye(3)), oracle, trials=10, seed=1)

    def test_rejects_an_oracle_into_another_dimension_before_asking(self):
        embed = RayMapOracle(2, 3, lambda r: canonical_ray(np.append(r.rep, 0.0)), label="embed")
        oracle, asked = counting_oracle(embed)
        with pytest.raises(DimensionMismatch, match=r"RayMapOracle\(counted, 2 -> 3\)"):
            verify_reproduction(SymmetryOperator(np.eye(2)), oracle)
        assert asked == []


class TestGaugeResidual:
    def test_phase_rotation_is_pure_gauge(self):
        u = random_unitary(5, seed=71)
        assert gauge_residual(np.exp(0.7j) * u, u) <= 1e-14

    def test_distinct_unitaries_have_large_residual(self):
        assert gauge_residual(random_unitary(4, seed=1), random_unitary(4, seed=2)) > 0.1

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gauge_residual(np.eye(2), np.eye(3))

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)]
    )
    @pytest.mark.parametrize("name", ["candidate", "reference"])
    def test_refuses_a_non_finite_entry(self, name, value):
        # A NaN residual would read as a pass to a `residual > bound` test.
        bad = np.eye(3, dtype=np.complex128)
        bad[1, 2] = value
        args = (bad, np.eye(3)) if name == "candidate" else (np.eye(3), bad)
        with pytest.raises(ValueError, match=f"^{name} entries must be finite$"):
            gauge_residual(*args)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3,), (), (0, 0), (2, 2, 2)])
    def test_refuses_anything_but_square_nonempty_matrices(self, shape):
        bad = np.ones(shape)
        for args, name in (((bad, bad), "candidate"), ((np.eye(2), bad), "reference")):
            with pytest.raises(ValueError) as info:
                gauge_residual(*args)
            assert str(info.value) == f"{name} must be square and nonempty, got shape {shape}"

    @pytest.mark.parametrize(
        "candidate, reference",
        [
            (1e200 * random_unitary(4, seed=3), 1e200 * random_unitary(4, seed=3)),
            (HADAMARD_4 / 2, 1e308 * HADAMARD_4),  # the round-trip of a general 1e308 * H_4 file
            (np.array([[1.3e308 + 1.3e308j]]), np.eye(1)),  # a finite entry of no finite modulus
        ],
    )
    def test_product_beyond_double_range_reads_inf(self, candidate, reference):
        # candidate^dagger reference overflows; a NaN residual would read as a pass.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gauge_residual(candidate, reference) == np.inf

    @pytest.mark.parametrize(
        "candidate, reference, want",
        [
            (np.zeros((2, 2)), np.eye(2), 1.0),
            (HADAMARD_4 / 2, 5e-324 * HADAMARD_4, 1.0),  # the product underflows to zero
            (np.array([[0.0, 3.0], [0.0, 0.0]]), np.eye(2), 3.0),  # the largest off-diagonal
        ],
    )
    def test_zero_diagonal_is_no_match(self, candidate, reference, want):
        # A zero diagonal is as far from every unit phase times the identity.
        assert gauge_residual(candidate, reference) == want

    @pytest.mark.parametrize("scale", [2.0**-1074, 1e-310, 2.0**-1022 * (1 - 2.0**-52)])
    @pytest.mark.parametrize("phase", [1.0, 1j, np.exp(-2.1j)])
    def test_subnormal_reference_reads_its_distance_from_zero(self, scale, phase):
        # A complex division by a subnormal modulus overflows to nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residual = gauge_residual(np.eye(3), phase * scale * np.eye(3))
        assert abs(residual - 1.0) <= 1e-15  # the unit phase, up to rounding
