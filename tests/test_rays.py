import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raysym import (
    DEFAULT_TOLERANCES,
    DimensionMismatch,
    Ray,
    RayMapOracle,
    Tolerances,
    ZeroVector,
    canonical_ray,
)
from raysym.rays import (
    PIVOT_TOL,
    SAMPLE_BLOCK,
    canonical_rays,
    ray_function,
    ray_functions,
    sample_state,
    sampled_maxima,
)

from conftest import axis_vector, reference_ray_function, reference_ray_rep


def axis_ray(dim, i):
    return canonical_ray(axis_vector(dim, i))


def random_state(dim, seed):
    return sample_state(dim, np.random.default_rng(seed))


def asked_as_a_stack(answers):
    """The stack ``RayMapOracle._images`` gathers when an oracle gives these answers in order."""
    replies = iter(answers)
    oracle = RayMapOracle(1, answers[0].dim, lambda ray: next(replies))
    return oracle._images(np.ones((len(answers), 1), dtype=np.complex128))


class TestCanonicalRay:
    def test_rotates_first_significant_component_to_real_positive(self):
        r = canonical_ray(np.array([0.0, 3.0j]))
        np.testing.assert_allclose(r.rep, [0.0, 1.0], atol=1e-15)

    def test_scaling_invariance(self):
        r = canonical_ray(np.array([2.0, 0.0, 0.0]))
        np.testing.assert_allclose(r.rep, [1.0, 0.0, 0.0], atol=1e-15)

    def test_phase_removal(self):
        r = canonical_ray(np.array([1.0 + 1.0j, 0.0]))
        np.testing.assert_allclose(r.rep, [1.0, 0.0], atol=1e-15)

    def test_idempotent(self):
        v = random_state(6, seed=3)
        r1 = canonical_ray(v)
        r2 = canonical_ray(r1.rep)
        assert np.max(np.abs(r1.rep - r2.rep)) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            canonical_ray(np.zeros(4, dtype=complex))
        with pytest.raises(ZeroVector):
            canonical_ray(np.array([-0.0, complex(0.0, -0.0)]))

    @pytest.mark.parametrize("tiny", [1e-14, 5e-324])
    def test_only_exact_zero_is_zero(self, tiny):
        r = canonical_ray(np.full(4, tiny, dtype=complex))
        np.testing.assert_allclose(r.rep, canonical_ray(np.ones(4)).rep, rtol=0, atol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            canonical_ray(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            canonical_ray(np.array([np.inf, 0.0]))

    def test_requires_one_dimensional_input(self):
        with pytest.raises(ValueError):
            canonical_ray(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            canonical_ray(np.array([], dtype=complex))

    def test_phase_invariance_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            v = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2)
            if np.linalg.norm(v) <= 1e-12:
                continue
            theta = rng.uniform(0.0, 2.0 * np.pi)
            r1 = canonical_ray(v)
            r2 = canonical_ray(np.exp(1j * theta) * v)
            assert np.max(np.abs(r1.rep - r2.rep)) <= 1e-12

    @given(
        scale=st.complex_numbers(
            min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
        )
    )
    def test_scalar_multiples_give_the_same_ray(self, scale):
        v = random_state(5, seed=23)
        r1 = canonical_ray(v)
        r2 = canonical_ray(scale * v)
        np.testing.assert_allclose(r1.rep, r2.rep, rtol=0, atol=1e-12)

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            assert abs(np.linalg.norm(canonical_ray(v).rep) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "scale",
        [1e-300, 1e-150, 1e-11, 1e-6, 1.0, 1e6, 1e100, 1e154, 1e155, 1e200 * (0.6 - 0.8j), 1e300],
    )
    def test_scale_safe(self, scale):
        v = random_state(5, seed=23)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = canonical_ray(scale * v)
        np.testing.assert_allclose(r.rep, canonical_ray(v).rep, rtol=0, atol=1e-12)

    def test_components_near_the_largest_double(self):
        v = np.array([1.7e308 + 1.7e308j, -1e308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = canonical_ray(v)
        want = canonical_ray(np.array([1.7 + 1.7j, -1.0, 0.0]))
        np.testing.assert_allclose(r.rep, want.rep, rtol=0, atol=1e-12)


@st.composite
def ray_inputs(draw):
    """1-d inputs for Ray: n in 1..300, complex or real, contiguous or strided, at 2**-1074..2**1000.

    The leading ``lead`` components have modulus in [0.5, 4] * PIVOT_TOL after
    normalization, so the pivot falls on either side of PIVOT_TOL and of the
    2 * PIVOT_TOL a first component needs to skip the scan.  A share of the
    rest is exactly zero; some vectors are zero outright, and some get one
    nan or infinite real or imaginary part.
    """
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())
    v = rng.standard_normal(n) + (0.0 if real else 1j * rng.standard_normal(n))
    v[rng.random(n) < draw(st.floats(0.0, 0.9))] = 0.0
    lead = draw(st.integers(0, min(n - 1, 3)))
    phases = rng.choice([1.0, -1.0] if real else [1.0, -1.0, 1j, np.exp(2.1j)], lead)
    v[:lead] = PIVOT_TOL * rng.uniform(0.5, 4.0, lead) * phases * np.linalg.norm(v[lead:])
    # Half the scales come from the low end, where the largest part is subnormal.
    scale = draw(st.integers(-1074, 1000) | st.integers(-1074, -1023))
    v = np.ldexp(v.view(np.float64), scale).view(v.dtype)
    fault = draw(st.sampled_from([None] * 12 + ["zero", np.nan, np.inf, -np.inf]))
    if fault == "zero":
        v[:] = 0.0
    elif fault is not None:
        v[draw(st.integers(0, n - 1))] = fault if real or draw(st.booleans()) else complex(0.0, fault)
    if draw(st.booleans()):
        strided = np.zeros(2 * n, dtype=v.dtype)
        strided[::2] = v
        v = strided[::2]
    return v


class TestRayConstructor:
    @settings(max_examples=300)
    @given(ray_inputs())
    def test_matches_the_reference_recipe(self, v):
        # Also as a pending answer in a stack.
        try:
            want = reference_ray_rep(v)
        except (ValueError, ZeroVector) as err:
            with pytest.raises(type(err)) as info:
                Ray(v)
            assert type(info.value) is type(err)
            assert str(info.value) == str(err)
            return
        assert Ray(v).rep.tobytes() == want.tobytes()
        assert asked_as_a_stack([Ray(v)])[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "v", [[2.0, 0.0], [1.0j, 0.0], [0.0, -3.0 + 4.0j, 1.0], [1e-9, 1e-3j, -5.0]]
    )
    def test_canonicalizes_like_canonical_ray(self, v):
        v = np.array(v, dtype=complex)
        a, b = Ray(v).rep, canonical_ray(v).rep
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert a[np.argmax(np.abs(a) > 1e-9)].imag == 0.0
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-15

    def test_rejects_zero_nonfinite_and_non_vector_input(self):
        with pytest.raises(ZeroVector):
            Ray(np.zeros(3, dtype=complex))
        for bad in (np.array([1.0, np.nan]), np.array([np.inf, 0.0]), np.eye(2), np.array([])):
            with pytest.raises(ValueError):
                Ray(bad)

    def test_idempotent(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            r = Ray(rng.standard_normal(6) + 1j * rng.standard_normal(6))
            np.testing.assert_allclose(Ray(r.rep).rep, r.rep, rtol=0, atol=1e-12)

    def test_power_of_two_multiples_give_the_same_bits(self):
        rng = np.random.default_rng(43)
        exponents = (-1000, -300, -1, 0, 1, 300, 1000)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            scaled = np.array([2.0**k * v for k in exponents])
            for k, row in zip(exponents, scaled):
                assert np.array_equal(row * 2.0**-k, v)  # each multiple is exact
            expected = Ray(v).rep.tobytes()
            assert all(Ray(row).rep.tobytes() == expected for row in scaled)
            assert all(row.tobytes() == expected for row in canonical_rays(scaled))

    def test_axis_rays_are_the_identity_rows(self):
        # map_basis sends the identity rows to the oracle as they are.
        for dim in range(1, 257):
            eye = np.eye(dim, dtype=np.complex128)
            assert all(Ray(e).rep.tobytes() == e.tobytes() for e in eye), dim

    def test_does_not_alias_its_input(self):
        v = np.array([1.0, 0.0], dtype=complex)
        r = Ray(v)
        v[0] = 5.0
        assert r.rep[0] == 1.0

    @settings(max_examples=100)
    @given(ray_inputs())
    def test_input_changed_before_first_use_changes_nothing(self, v):
        try:
            want = reference_ray_rep(v)
        except (ValueError, ZeroVector):
            return
        r = Ray(v)
        v[:] = np.nan
        assert r.dim == want.shape[0]
        assert r.rep.tobytes() == want.tobytes()

    def test_concurrent_first_reads_see_the_same_bytes(self):
        # More threads than cores and a short switch interval, so reads of
        # one pending ray interleave inside its first canonicalization.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in range(40):
                v = random_state(64, seed=k) * 2.0 ** (25 * k - 500)
                want = reference_ray_rep(v).tobytes()
                ray = Ray(v)  # read first by four threads
                barrier = threading.Barrier(4)
                seen, errors = [], []

                def read(ray=ray, barrier=barrier, seen=seen, errors=errors):
                    try:
                        barrier.wait(timeout=10)
                        seen.append((ray.dim, ray.rep.tobytes()))
                    except Exception as err:  # reported by the assertion below
                        errors.append(err)

                threads = [threading.Thread(target=read) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert seen == [(64, want)] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_representative_is_read_only(self):
        r = canonical_ray(np.array([1.0, 1.0j]))
        with pytest.raises(ValueError):
            r.rep[0] = 5.0

    @pytest.mark.parametrize("dim", [1, 3, 64])
    def test_dim_is_the_read_only_length_of_every_kind_of_ray(self, dim):
        v = random_state(dim, seed=dim)
        rays = (Ray(v), Ray._from_canonical(canonical_rays(v[None])[0]))
        for ray in rays:
            assert ray.dim == dim
            with pytest.raises(AttributeError):
                ray.dim = dim + 1
            assert ray.dim == dim


class TestRayFunction:
    def test_identical_rays(self):
        r = axis_ray(3, 0)
        assert ray_function(r, r) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_basis_rays(self):
        assert ray_function(axis_ray(3, 0), axis_ray(3, 1)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("x", [1.0, 0.5, 2.0, 1.0j, 0.3 - 0.4j])
    def test_axis_against_tilted_ray(self, x):
        # u(ray(e_i), ray(e_1 + x e_i)) = |x|^2 / (1 + |x|^2); x = 1 gives 1/2
        dim = 4
        i = 2
        v = axis_vector(dim, 0) + x * axis_vector(dim, i)
        expected = abs(x) ** 2 / (1.0 + abs(x) ** 2)
        assert ray_function(axis_ray(dim, i), canonical_ray(v)) == pytest.approx(
            expected, abs=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ray_function(axis_ray(2, 0), axis_ray(3, 0))

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("bad", [np.ones(2), [1.0, 0.0], None], ids=["ndarray", "list", "None"])
    def test_rejects_an_argument_that_is_not_a_ray(self, position, bad):
        args = [Ray([1.0, 0.0]), Ray([0.6, 0.8])]
        args[position] = bad
        message = f"^ray_function expects Rays, got {type(bad).__name__}$"
        with pytest.raises(TypeError, match=message):
            ray_function(*args)

    def test_representative_independence(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            dim = int(rng.integers(2, 8))
            e = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            c1 = (rng.standard_normal() + 1j * rng.standard_normal()) * 10.0 ** rng.uniform(-3, 3)
            c2 = (rng.standard_normal() + 1j * rng.standard_normal()) * 10.0 ** rng.uniform(-3, 3)
            if min(abs(c1), abs(c2)) < 1e-6:
                continue
            u1 = ray_function(canonical_ray(e), canonical_ray(f))
            u2 = ray_function(canonical_ray(c1 * e), canonical_ray(c2 * f))
            assert abs(u1 - u2) <= 1e-12

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            dim = int(rng.integers(1, 9))
            r = canonical_ray(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            s = canonical_ray(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            u = ray_function(r, s)
            assert 0.0 <= u <= 1.0
            assert abs(u - ray_function(s, r)) <= 1e-15


class TestOrthogonalityThreshold:
    """Rays count as orthogonal when u is at most orth_tol."""

    def test_basis_rays(self):
        assert ray_function(axis_ray(2, 0), axis_ray(2, 1)) <= DEFAULT_TOLERANCES.orth_tol

    def test_overlapping_rays(self):
        r = canonical_ray(np.array([1.0, 1.0], dtype=complex))
        assert ray_function(axis_ray(2, 0), r) > DEFAULT_TOLERANCES.orth_tol
        assert ray_function(axis_ray(2, 0), r) == pytest.approx(0.5, abs=1e-14)

    def test_diagonal_pair(self):
        plus = canonical_ray(np.array([1.0, 1.0], dtype=complex))
        minus = canonical_ray(np.array([1.0, -1.0], dtype=complex))
        assert ray_function(plus, minus) <= DEFAULT_TOLERANCES.orth_tol

    def test_custom_tolerance(self):
        r = canonical_ray(np.array([1.0, 0.0], dtype=complex))
        s = canonical_ray(np.array([1e-4, 1.0], dtype=complex))
        loose = Tolerances(orth_tol=1e-3)
        assert ray_function(r, s) > DEFAULT_TOLERANCES.orth_tol
        assert ray_function(r, s) <= loose.orth_tol


class TestSampleState:
    def test_deterministic_per_seed(self):
        a = sample_state(3, np.random.default_rng(0))
        b = sample_state(3, np.random.default_rng(0))
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = sample_state(3, np.random.default_rng(0))
        b = sample_state(3, np.random.default_rng(1))
        assert np.max(np.abs(a - b)) > 0.0

    def test_single_component_is_nonzero(self):
        v = sample_state(1, np.random.default_rng(7))
        assert v.shape == (1,)
        assert abs(v[0]) > 0.0


def pivot(rep):
    return int((np.abs(rep) > PIVOT_TOL).argmax())


def stack_outcome(rows):
    """Ray of each row, or the type and text of the first row Ray rejects."""
    reps = []
    for row in rows:
        try:
            reps.append(Ray(row).rep)
        except (ValueError, ZeroVector) as err:
            return type(err), str(err)
    return np.array(reps), None


@st.composite
def scaled_stacks(draw):
    """(k, n) stacks, n in 1..64, at scales 1e-11..1e300, with zero and near-PIVOT_TOL parts.

    The leading ``lead`` parts of a row have modulus within 1e-6 of PIVOT_TOL
    after normalization, so the pivot lands on either side of the threshold;
    a share of the remaining parts is zero, and a row with nothing else is a
    zero row.  Some rows are made zero outright, and some get one nan or
    infinite real or imaginary part, so the first rejected row can be either.
    """
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        row[rng.random(n) < draw(st.floats(0.0, 0.9))] = 0.0
        lead = draw(st.integers(0, n))
        phases = rng.choice([1.0, -1.0, 1j, -1j, np.exp(0.3j), 0.0], lead)
        near = PIVOT_TOL * rng.uniform(1.0 - 1e-6, 1.0 + 1e-6, lead) * phases
        row[:lead] = near * np.linalg.norm(row[lead:])
        row = row * 10.0 ** draw(st.floats(-11.0, 300.0))
        fault = draw(st.sampled_from([None] * 4 + ["zero", np.nan, np.inf, -np.inf]))
        if fault == "zero":
            row[:] = 0.0
        elif fault is not None:
            row[draw(st.integers(0, n - 1))] = complex(0.0, fault) if draw(st.booleans()) else fault
        rows.append(row)
    return np.array(rows)


def fold_stack(dim, faulty):
    """Four valid rows of length dim, the second with a subnormal largest part.

    A ``faulty`` stack also has a middle row with a NaN last imaginary part, a
    zero row after it, and a row with a -inf real part, so its first bad row is
    the NaN one.
    """
    rows = [random_state(dim, seed=10 * dim + j) for j in range(4)]
    rows[1] = rows[1] * 2.0**-1030
    rows[3] = rows[3] * 1e200
    if faulty:
        nan, neg_inf = rows[2].copy(), rows[3].copy()
        nan[-1] = complex(nan[-1].real, np.nan)
        neg_inf[0] = complex(-np.inf, neg_inf[0].imag)
        rows[2:2] = [nan, np.zeros(dim)]
        rows.insert(-1, neg_inf)
    return np.array(rows)


class TestCanonicalRays:
    @given(scaled_stacks())
    # _prescaled_rows takes the row maxima of up to 32 float columns by a fold
    # down the columns, and of wider stacks row by row: dims 16 and 17 straddle it.
    @example(fold_stack(16, faulty=True))
    @example(fold_stack(16, faulty=False))
    @example(fold_stack(17, faulty=True))
    @example(fold_stack(17, faulty=False))
    @example(  # rows whose largest part is subnormal, between rows whose largest part is normal
        np.array(
            [
                [5e-324, 0.0, -5e-324j, 1.5e-323],
                [1.0, 5e-324, -3.0j, 1e-300],
                [2.0**-1023 * (1.0 - 1.0j), 2.0**-1060, 0.0, -3e-320j],
                [1e300, -1e-300, 2e300j, 0.0],
                [-2.2e-308j, 1e-310, 5e-324, 0.0],
            ]
        )
    )
    @example(  # one stack whose first parts skip the pivot scan and need it, in turn
        np.array(
            [
                [0.6 + 0.8j, -0.0, 0.5, -0j],  # far above PIVOT_TOL
                [1.0, 0.0, -0.0j, 0.0],  # a probe-style row e_1 + (-0) e_3
                [PIVOT_TOL * (1.0 + 5e-7), 1.0, -0.0, 0j],  # just above: scanned, pivot 0
                [PIVOT_TOL * (1.0 - 5e-7) * 1j, -0.6, 0.8j, 0.0],  # just below: pivot 1
                [-0.0, -0j, 2.0, 1j],  # signed zeros: pivot 2
                [PIVOT_TOL * 0.5 * np.exp(0.3j), 0.0, 0.0, -3.0],  # below: pivot 3
                [-3.0 * PIVOT_TOL, 1.0, 0.0, 0.0],  # above 2 * PIVOT_TOL: not scanned
                [1.5j * PIVOT_TOL, 1.0, 0.0, 0.0],  # between 1 and 2 PIVOT_TOL: scanned
                [1e200 * (0.3 - 0.4j), -0.0, 1e200, -0j],
            ]
        )
    )
    def test_each_row_is_the_ray_of_that_row(self, v):
        expected, error = stack_outcome(v)
        if error is not None:
            with pytest.raises(expected) as info:
                canonical_rays(v)
            assert type(info.value) is expected
            assert str(info.value) == error
            return
        got = canonical_rays(v)
        assert got.shape == v.shape
        for row, ref in zip(got, expected):
            assert pivot(row) == pivot(ref)
            assert row[pivot(row)].imag == 0.0 and row[pivot(row)].real > 0.0
            assert row.tobytes() == ref.tobytes()

    def test_random_rows_at_every_block_size(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3, 8, 64):
            for k in (1, 5, SAMPLE_BLOCK):
                v = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
                got = canonical_rays(v)
                for row, x in zip(got, v):
                    assert row.tobytes() == Ray(x).rep.tobytes()

    def test_result_is_read_only(self):
        got = canonical_rays(np.ones((2, 3), dtype=complex))
        with pytest.raises(ValueError):
            got[0, 0] = 2.0

    def test_input_is_not_modified(self):
        v = random_state(4, seed=2)[None, :] * 3.0
        before = v.copy()
        canonical_rays(v)
        assert np.array_equal(v, before)

    def test_empty_stack(self):
        assert canonical_rays(np.zeros((0, 3), dtype=complex)).shape == (0, 3)

    @pytest.mark.parametrize("shape", [(3,), (2, 0), (2, 2, 2)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError):
            canonical_rays(np.ones(shape, dtype=complex))

    def test_nonfinite_row_rejected(self):
        v = np.ones((3, 2), dtype=complex)
        v[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            canonical_rays(v)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 0], [np.nan, 1]],
            [[0, 0]],
            [[np.nan, 1]],
            [[1, 0], [0, 0], [np.inf, 0]],
            [[1, 0], [complex(0, -np.inf), 1], [0, 0]],
            [[np.nan, 0], [0, 0]],
        ],
    )
    def test_first_rejected_row_raises_as_ray_does(self, rows):
        v = np.array(rows, dtype=complex)
        first = next(j for j, row in enumerate(v) if not (np.isfinite(row).all() and row.any()))
        with pytest.raises((ValueError, ZeroVector)) as ref:
            Ray(v[first])
        with pytest.raises(type(ref.value)) as info:
            canonical_rays(v)
        assert type(info.value) is type(ref.value)
        assert str(info.value) == str(ref.value)

    def test_first_zero_row_is_named(self):
        v = np.ones((3, 2), dtype=complex)
        v[1] = 5e-324  # subnormal, still a ray
        v[2] = 0.0
        with pytest.raises(ZeroVector) as info:
            canonical_rays(v)
        with pytest.raises(ZeroVector) as ref:
            Ray(v[2])
        assert str(info.value) == str(ref.value)
        assert canonical_rays(v[:2])[1].tobytes() == Ray(v[1]).rep.tobytes()

    def test_extreme_scales_raise_no_warning(self):
        v = np.array([[1.7e308 + 1.7e308j, -1e308, 0.0], [5e-324, 0.0, 1e-300j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroVector):
                canonical_rays(np.zeros((1, 3)))
            got = canonical_rays(v)
            expected = [Ray(row).rep for row in v]
        for row, ref in zip(got, expected):
            assert row.tobytes() == ref.tobytes()
        np.testing.assert_allclose(expected[1], [0.0, 0.0, 1.0], atol=1e-15)

    def test_wrapped_row_is_a_ray(self):
        v = random_state(5, seed=8)
        row = canonical_rays(v[None, :])[0]
        ray = Ray._from_canonical(row)
        assert ray.rep is row
        assert ray.dim == 5
        np.testing.assert_allclose(ray.rep, Ray(v).rep, rtol=0, atol=1e-15)


class TestAnswerStacks:
    """The stack the sampled checks and map_basis gather oracle answers into."""

    @staticmethod
    def vectors(dim, rng):
        vs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(9)]
        vs[1] = vs[1] * 2.0**1000
        vs[2] = vs[2] * 2.0**-1000
        vs[3] = vs[3] * 2.0**-1070  # subnormal parts
        vs[4][0] = complex(-0.0, -0.0 if dim > 1 else -3.0)  # a signed zero before the pivot
        vs[5] = np.where(rng.random(dim) < 0.5, complex(-0.0, 0.0), vs[5])
        vs[5][-1] = complex(-2.0, -0.0)
        vs[6] = vs[6].real + 0.0j  # real, with +0.0 imaginary parts
        return vs

    # All nine answers, or one alone: subnormal parts, or a signed zero before the pivot.
    @pytest.mark.parametrize("picked", [range(9), [3], [4]], ids=["nine", "lone-3", "lone-4"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    def test_rows_are_the_reps_of_pending_read_and_wrapped_rays(self, dim, picked):
        rng = np.random.default_rng(45 + dim)
        vs = [self.vectors(dim, rng)[j] for j in picked]
        want = np.array([reference_ray_rep(v) for v in vs])

        def pending():
            return [Ray(v) for v in vs]

        def read():
            rays = pending()
            for r in rays:
                r.rep
            return rays

        def wrapped():
            return [Ray._from_canonical(row) for row in canonical_rays(np.array(vs))]

        def mixed():
            styles = (pending(), read(), wrapped())
            return [styles[j % 3][j] for j in range(len(vs))]

        def one_pending():
            rays = read()
            rays[len(vs) // 2] = Ray(vs[len(vs) // 2])
            return rays

        for make in (pending, read, wrapped, mixed, one_pending):
            rays = make()
            still_pending = [r._rep is None for r in rays]
            got = asked_as_a_stack(rays)
            assert got.shape == want.shape
            assert not got.flags.writeable, make.__name__
            assert got.tobytes() == want.tobytes(), make.__name__
            assert [r._rep is None for r in rays] == still_pending, make.__name__
            assert got.tobytes() == np.array([r.rep for r in rays]).tobytes()


class TestRayFunctions:
    def test_each_entry_is_the_ray_function_of_its_rows(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 5, 64, 256):
            a = canonical_rays(rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n)))
            b = canonical_rays(rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n)))
            b = np.concatenate([b[:30], a[30:]])  # equal rows: u = 1 up to clipping
            got = ray_functions(a, b)
            pairs = [(Ray._from_canonical(x), Ray._from_canonical(y)) for x, y in zip(a, b)]
            ref = [reference_ray_function(x, y) for x, y in pairs]
            assert got.tolist() == ref
            assert [ray_function(x, y) for x, y in pairs] == ref
            assert ((0.0 <= got) & (got <= 1.0)).all()

    def test_orthogonal_rows_score_zero(self):
        a = canonical_rays(np.eye(3, dtype=complex))
        assert np.array_equal(ray_functions(a, a[[1, 2, 0]]), np.zeros(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ray_functions(np.ones((2, 2), dtype=complex), np.ones((2, 3), dtype=complex))


def scored_blocks(trials, per_trial, dim, seed, score=None):
    """The blocks ``sampled_maxima`` hands its score, with the generator it hands with them.

    Each call records a copy of the block and the generator, then calls
    ``score`` (by default it scores 0.0); the copies and the last generator
    are returned.
    """
    blocks, rngs = [], []

    def recording(v, rng):
        blocks.append(v.copy())
        rngs.append(rng)
        return (0.0,) if score is None else score(v, rng)

    sampled_maxima(trials, per_trial, dim, seed, recording)
    return blocks, rngs[-1]


class TestSampleStateBlocks:
    # A block holds max(32, 4096 // dim) trials: one block of 200 trials at
    # dims up to 16, 64 trials at dim 64, 32 trials from dim 128 on.
    @pytest.mark.parametrize(
        "trials, per_trial, dim, shapes",
        [
            (200, 4, 2, [(200, 4, 2)]),
            (5000, 1, 2, [(2048, 1, 2), (2048, 1, 2), (904, 1, 2)]),
            (64, 4, 64, [(64, 4, 64)]),
            (150, 4, 64, [(64, 4, 64), (64, 4, 64), (22, 4, 64)]),
            (70, 4, 128, [(32, 4, 128), (32, 4, 128), (6, 4, 128)]),
            (40, 1, 256, [(32, 1, 256), (8, 1, 256)]),
        ],
    )
    def test_block_shapes(self, trials, per_trial, dim, shapes):
        blocks, _ = scored_blocks(trials, per_trial, dim, 1)
        assert [b.shape for b in blocks] == shapes

    @pytest.mark.parametrize("trials, dim", [(70, 3), (150, 64), (70, 128)])
    def test_blocks_hold_the_per_trial_draws_in_order(self, trials, dim):
        blocks, rng_a = scored_blocks(trials, 4, dim, 6)
        rng_b = np.random.default_rng(6)
        states = np.concatenate(blocks).reshape(-1, dim)
        assert len(states) == 4 * trials
        for state in states:
            assert np.array_equal(state, sample_state(dim, rng_b))
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_each_block_is_drawn_when_asked_for(self):
        # The score draws after its block, as a redraw does; the next block
        # comes after that draw, so it is drawn only once the score returned.
        after = np.random.default_rng(0)
        shapes = iter([(64, 2, 64), (36, 2, 64)])

        def score(v, rng):
            after.standard_normal(next(shapes))
            assert rng.bit_generator.state == after.bit_generator.state
            rng.standard_normal(3)
            after.standard_normal(3)
            return (0.0,)

        blocks, _ = scored_blocks(100, 1, 64, 0, score)
        assert len(blocks) == 2
        assert next(shapes, None) is None

    def test_no_reference_to_a_scored_block_is_kept(self, monkeypatch):
        scored = []
        rng = np.random.default_rng(2)

        class Checked:
            """The generator, but every draw first checks that no scored block is alive."""

            def standard_normal(self, size):
                assert all(block() is None for block in scored)
                return rng.standard_normal(size)

        def score(v, rng):
            scored.append(weakref.ref(v))
            return (0.0,)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Checked())
        sampled_maxima(100, 4, 64, 2, score)
        assert len(scored) == 2
        assert scored[-1]() is None

    def test_maxima_run_over_the_blocks_from_zero(self):
        scores = iter([(-1.0, 0.25, 3.0), (-2.0, 0.5, 1.0), (-3.0, 0.125, 2.0)])
        worst = sampled_maxima(70, 1, 128, 0, lambda v, rng: next(scores))
        assert worst == [0.0, 0.5, 3.0]
        assert [type(x) for x in worst] == [float] * 3


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.orth_tol == 1e-9
        assert tol.recon_tol == 1e-8

    @pytest.mark.parametrize("bad", [{"orth_tol": 0.0}, {"recon_tol": -1e-9}, {"recon_tol": 0.5}])
    def test_rejects_out_of_range_values(self, bad):
        with pytest.raises(ValueError):
            Tolerances(**bad)
