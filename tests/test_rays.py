import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from raysym import (
    DimensionMismatch,
    Ray,
    Tolerances,
    ZeroVector,
    canonical_ray,
    is_orthogonal,
    random_state,
    ray_function,
)
from raysym.rays import sample_orthogonal_pair, sample_ray

from conftest import axis_vector


def axis_ray(dim, i):
    return canonical_ray(axis_vector(dim, i))


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
            canonical_ray(np.full(4, 1e-14, dtype=complex))

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
        assert r1.almost_equals(r2, tol=1e-12)

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            assert abs(np.linalg.norm(canonical_ray(v).rep) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "scale", [1e-11, 1e-6, 1.0, 1e6, 1e100, 1e154, 1e155, 1e200 * (0.6 - 0.8j), 1e300]
    )
    def test_scale_safe(self, scale):
        v = random_state(5, seed=23)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = canonical_ray(scale * v)
        assert r.almost_equals(canonical_ray(v), tol=1e-12)

    def test_components_near_the_largest_double(self):
        v = np.array([1.7e308 + 1.7e308j, -1e308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = canonical_ray(v)
        assert r.almost_equals(canonical_ray(np.array([1.7 + 1.7j, -1.0, 0.0])), tol=1e-12)


class TestRayConstructor:
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
            assert Ray(r.rep).almost_equals(r, tol=1e-12)

    def test_does_not_alias_its_input(self):
        v = np.array([1.0, 0.0], dtype=complex)
        r = Ray(v)
        v[0] = 5.0
        assert r.rep[0] == 1.0

    def test_representative_is_read_only(self):
        r = canonical_ray(np.array([1.0, 1.0j]))
        with pytest.raises(ValueError):
            r.rep[0] = 5.0


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


class TestIsOrthogonal:
    def test_basis_rays(self):
        assert is_orthogonal(axis_ray(2, 0), axis_ray(2, 1))

    def test_overlapping_rays(self):
        r = canonical_ray(np.array([1.0, 1.0], dtype=complex))
        assert not is_orthogonal(axis_ray(2, 0), r)
        assert ray_function(axis_ray(2, 0), r) == pytest.approx(0.5, abs=1e-14)

    def test_diagonal_pair(self):
        plus = canonical_ray(np.array([1.0, 1.0], dtype=complex))
        minus = canonical_ray(np.array([1.0, -1.0], dtype=complex))
        assert is_orthogonal(plus, minus)

    def test_custom_tolerance(self):
        r = canonical_ray(np.array([1.0, 0.0], dtype=complex))
        s = canonical_ray(np.array([1e-4, 1.0], dtype=complex))
        loose = Tolerances(orth_tol=1e-3)
        assert not is_orthogonal(r, s)
        assert is_orthogonal(r, s, loose)


class TestRandomState:
    def test_deterministic_per_seed(self):
        a = random_state(3, seed=0)
        b = random_state(3, seed=0)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = random_state(3, seed=0)
        b = random_state(3, seed=1)
        assert np.max(np.abs(a - b)) > 0.0

    def test_single_component_is_nonzero(self):
        v = random_state(1, seed=7)
        assert v.shape == (1,)
        assert abs(v[0]) > 0.0

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            random_state(0, seed=1)


def reference_orthogonal_pair(dim, rng):
    """sample_orthogonal_pair as it was, with np.linalg.norm for the degeneracy test."""
    r = sample_ray(dim, rng)
    while True:
        t = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2.0)
        t = t - np.vdot(r.rep, t) * r.rep
        if np.linalg.norm(t) > 1e-6:
            return r, canonical_ray(t)


class ScriptedNormals:
    """Stands in for a Generator: standard_normal returns the scripted arrays in order."""

    def __init__(self, arrays):
        self.arrays = list(arrays)

    def standard_normal(self, dim):
        return self.arrays.pop(0)


class TestSampleOrthogonalPair:
    @pytest.mark.parametrize("dim", [2, 3, 7, 64])
    def test_same_rays_and_draws_as_the_norm_test(self, dim):
        for seed in range(20):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                (r, s), (r0, s0) = sample_orthogonal_pair(dim, rng_a), reference_orthogonal_pair(dim, rng_b)
                assert r.rep.tobytes() == r0.rep.tobytes()
                assert s.rep.tobytes() == s0.rep.tobytes()
                assert ray_function(r, s) <= 1e-28
            assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_degenerate_draw_is_redrawn(self):
        # the second draw repeats the first ray's generator, so its projection vanishes
        rng = np.random.default_rng(5)
        re, im, fresh_re, fresh_im = (rng.standard_normal(3) for _ in range(4))
        script = [re, im, re, im, fresh_re, fresh_im]
        normals = ScriptedNormals(script)
        r, s = sample_orthogonal_pair(3, normals)
        assert normals.arrays == []
        r0, s0 = reference_orthogonal_pair(3, ScriptedNormals(script))
        assert s.rep.tobytes() == s0.rep.tobytes()
        assert r.rep.tobytes() == r0.rep.tobytes()


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.orth_tol == 1e-9
        assert tol.recon_tol == 1e-8

    @pytest.mark.parametrize("bad", [{"orth_tol": 0.0}, {"recon_tol": -1e-9}, {"recon_tol": 0.5}])
    def test_rejects_out_of_range_values(self, bad):
        with pytest.raises(ValueError):
            Tolerances(**bad)
