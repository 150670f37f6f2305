"""Metamorphic tests: the group laws of Wigner maps.

Wigner maps compose and invert as their operators do, so reconstruct needs no
reference implementation here.  Every map is a plain-callable oracle built
from Haar-random unitaries: x -> U x, or U conj(x) when antiunitary, on
vectors, or, for a composition, as ``a.image(b.image(ray))`` of two
``induced_map`` oracles, so that a matrix oracle is asked another one's lazy
answer.

- reconstruct(A o B) is U_A U_B up to a phase, or U_A conj(U_B) when A is
  antiunitary, and its antiunitary flag is the XOR of the two flags;
- reconstruct(A^-1) is U_A^dagger for a linear A.  For an antiunitary A it is
  U_A^T, still antiunitary: the inverse of x -> U conj(x) is
  y -> conj(U^-1 y) = U^T conj(y);
- reconstruct(A o A^-1) is the identity, linear.
"""

import numpy as np
import pytest

from raysym import (
    DEFAULT_TOLERANCES,
    Ray,
    RayMapOracle,
    SymmetryOperator,
    gauge_residual,
    induced_map,
    random_unitary,
    reconstruct,
)

DIMS = (2, 3, 8, 64)
FLAGS = (False, True)


def wigner_map(u, antiunitary):
    """x -> U x, or U conj(x) when antiunitary, on vectors."""
    return lambda x: u @ (np.conj(x) if antiunitary else x)


def inverse_map(u, antiunitary):
    """The inverse of ``wigner_map(u, antiunitary)``: solve U x = y, then conjugate if antiunitary."""

    def inverse(y):
        x = np.linalg.solve(u, y)
        return np.conj(x) if antiunitary else x

    return inverse


def oracle(dim, *maps):
    """The ray map of ``maps[0] o maps[1] o ...``, as a plain callable."""

    def image(ray):
        x = ray.rep
        for m in reversed(maps):
            x = m(x)
        return Ray(x)

    return RayMapOracle(dim, dim, image, label="composed-wigner")


def assert_reconstructs(result, matrix, antiunitary):
    assert result.operator.antiunitary is antiunitary
    assert result.unitary_valid
    assert gauge_residual(result.operator.matrix, matrix) <= DEFAULT_TOLERANCES.recon_tol


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("a_anti", FLAGS)
@pytest.mark.parametrize("b_anti", FLAGS)
@pytest.mark.parametrize("maps", ["vectors", "induced-maps"])
def test_composition(maps, dim, a_anti, b_anti):
    u_a, u_b = random_unitary(dim, seed=100 + dim), random_unitary(dim, seed=200 + dim)
    if maps == "vectors":
        composed = oracle(dim, wigner_map(u_a, a_anti), wigner_map(u_b, b_anti))
    else:
        a = induced_map(SymmetryOperator(u_a, a_anti))
        b = induced_map(SymmetryOperator(u_b, b_anti))
        composed = RayMapOracle(dim, dim, lambda ray: a.image(b.image(ray)))
    result = reconstruct(composed, dim)
    want = u_a @ (np.conj(u_b) if a_anti else u_b)
    assert_reconstructs(result, want, a_anti != b_anti)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("anti", FLAGS)
def test_inverse(dim, anti):
    u = random_unitary(dim, seed=300 + dim)
    result = reconstruct(oracle(dim, inverse_map(u, anti)), dim)
    assert_reconstructs(result, u.T if anti else u.conj().T, anti)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("anti", FLAGS)
def test_a_map_after_its_inverse_is_the_identity(dim, anti):
    u = random_unitary(dim, seed=400 + dim)
    result = reconstruct(oracle(dim, wigner_map(u, anti), inverse_map(u, anti)), dim)
    assert_reconstructs(result, np.eye(dim), False)
