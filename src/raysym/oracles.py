"""Ray-map oracles, the operators that induce them, and the result type of a check.

A ray-map oracle is a black-box map from rays of C^n to rays of C^m, and the
pipeline talks to nothing else.  A symmetry operator induces one as x -> U x
or x -> U conj(x); a general invertible matrix induces one with no
preservation guarantees.  Every check reports a :class:`ConformanceReport`.

How the library asks an oracle: only ``RayMapOracle``'s private methods call
``image``, once per ray, in order, with a read-only ray, and a stage asks
each distinct ray once.

- A stack of rays (a block of a sampled check or of reproduction, or
  ``map_basis``'s axes) goes to ``_images``, whose loop wraps each row as a
  Ray with no constructor frame.  Each answer's vector is copied into one
  stack as it arrives, so no answer's Ray is kept, and the answers still
  pending are canonicalized together in one ``canonical_rays`` pass, with
  the bits and errors of each answer's own ``rep``.
- A stage's distinct slice-probe rays go to ``_probe_answers``, which yields
  stacks of answers, each scored in one pass with the bits of a row-by-row
  scoring.  A plain oracle yields one-ray stacks, each asked lazily, so a
  failing probe asks no ray after it.  A matrix oracle answers all of them
  as one stack: its answers are finite and nonzero, so the stack raises
  nothing ahead of an earlier probe's error, and only the rays asked past a
  failing probe differ from a plain oracle's.
- A matrix oracle prescales its matrix once, by ``Ray``'s power-of-two rule,
  so every answer is finite and nonzero at any scale.  A lone ``image``
  answers a pending product, a Ray made with no constructor frame that holds
  the matrix and the asked ray's ``rep``; its ``rep`` canonicalizes one BLAS
  matrix-vector ``dot`` of that rep, conjugated first only when antiunitary.
  Its ``_images`` asks each row as above but reads no answer: the stack is
  one stacked product, whose rows have each lone ``dot``'s bits, and one
  ``canonical_rays`` pass.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, SingularMatrix
from .rays import (
    DEFAULT_TOLERANCES,
    Ray,
    Tolerances,
    _asked,
    _canonical_answers,
    _matvec_answers,
    _prescaled_rows,
    _states,
    canonical_rays,
    ray_functions,
    sample_state,
    sampled_maxima,
)

#: Condition number above which a matrix does not induce an invertible ray map.
MAX_CONDITION = 1e12

#: Squared norm at or below which a projected draw is degenerate and is redrawn.
DEGENERATE_DRAW = 1e-12


def _flag(value, name: str) -> bool:
    """``value`` as a bool; only bool and numpy.bool_ are flags (a string is not)."""
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a bool, got {type(value).__name__}")
    return bool(value)


def _square_matrix(m, name: str) -> np.ndarray:
    """``m`` as a complex array; ValueError naming ``name`` unless square, nonempty and finite."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"{name} must be square and nonempty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} entries must be finite")
    return m


def _trial_count(trials) -> int:
    """``trials`` read with ``operator.index``: TypeError naming it, or ValueError below 1."""
    try:
        count = operator.index(trials)
    except TypeError:
        raise TypeError(f"trials must be an integer, got {type(trials).__name__}") from None
    if count < 1:
        raise ValueError(f"trials must be at least 1, got {count}")
    return count


@dataclass(frozen=True, eq=False)
class SymmetryOperator:
    """An n x n complex matrix U plus a flag: x -> U x, or x -> U conj(x) when antiunitary.

    ``matrix`` must be square, nonempty and finite (else ValueError), and is
    stored as a read-only copy; ``antiunitary`` must be a bool or numpy.bool_
    (else TypeError).  Unitarity is not required.
    """

    matrix: np.ndarray
    antiunitary: bool = False

    def __post_init__(self):
        flag = _flag(self.antiunitary, "antiunitary")
        m = _square_matrix(self.matrix, "matrix").copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "antiunitary", flag)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def unitarity_defect(self) -> float:
        """Max-norm deviation of U^dagger U from the identity; inf, not NaN, past double range."""
        # The entries are finite, so only an overflow of the Gram product gives inf or NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.matrix.conj().T @ self.matrix
            defect = float(np.max(np.abs(gram - np.eye(self.dim))))
        defect = math.inf if math.isnan(defect) else defect
        object.__setattr__(self, "_defect", defect)  # induced_map's certificate reads it
        return defect


class RayMapOracle:
    """Deterministic black-box map from rays of dimension ``dim_in`` to ``dim_out``.

    The dimensions are read with ``operator.index`` (TypeError for a float) and
    must be positive (else ValueError).  ``image_fn`` must be total on Rays of
    dimension ``dim_in``, answer each with a Ray of dimension ``dim_out``, the
    same for the same ray, and keep no state, so concurrent ``image`` calls are
    safe.  ``image`` raises TypeError, naming the oracle and the type, when it
    is asked or answers something that is not a Ray, and DimensionMismatch for
    a Ray of another dimension.  How the library asks: see ``raysym.oracles``.
    """

    __slots__ = ("dim_in", "dim_out", "_image_fn", "label")

    def __init__(
        self,
        dim_in: int,
        dim_out: int,
        image_fn: Callable[[Ray], Ray],
        label: str = "oracle",
    ):
        self.dim_in, self.dim_out = operator.index(dim_in), operator.index(dim_out)
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError("oracle dimensions must be positive")
        self._image_fn = image_fn
        self.label = label

    def image(self, ray: Ray) -> Ray:
        """Image of a ray under the map."""
        if not isinstance(ray, Ray):
            raise TypeError(f"{self!r} was asked {type(ray).__name__}, not a Ray")
        if ray.dim != self.dim_in:
            raise DimensionMismatch(
                f"oracle expects rays of dimension {self.dim_in}, got {ray.dim}"
            )
        out = self._image_fn(ray)
        if not isinstance(out, Ray):
            raise TypeError(f"{self!r} answered {type(out).__name__}, not a Ray")
        if out.dim != self.dim_out:
            raise DimensionMismatch(
                f"oracle produced a ray of dimension {out.dim}, declared {self.dim_out}"
            )
        return out

    def _images(self, rows: np.ndarray) -> np.ndarray:
        """Answer reps of a canonical (k, dim_in) stack, one ``image`` call per row, in order."""
        return _canonical_answers(self.image, rows, self.dim_out)

    def _probe_answers(self, rows: np.ndarray) -> Iterator[np.ndarray]:
        """Answer-rep stacks of distinct probe rays; here one row each, asked as it is taken."""
        wrap = Ray._from_canonical
        return (self.image(wrap(row)).rep[None] for row in rows)

    def __repr__(self) -> str:
        return f"RayMapOracle({self.label}, {self.dim_in} -> {self.dim_out})"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check; trials is 0 for deterministic checks."""

    name: str
    passed: bool
    worst_residual: float
    trials: int
    seed: int


def _entry(
    name: str, residual: float, bound: float, seed: int, reached: bool = True, trials: int = 0
) -> CheckResult:
    """The one verdict rule: a check passes when it was reached and its residual is within bound."""
    residual = float(residual)
    return CheckResult(name, reached and residual <= bound, residual, trials, seed)


@dataclass(frozen=True)
class ConformanceReport:
    """Check outcomes for one operator or oracle, in the declared order."""

    dim: int
    seed: int
    entries: tuple[CheckResult, ...]
    error: str | None = None

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def entry(self, name: str) -> CheckResult:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


class _MatrixOracle(RayMapOracle):
    """``induced_map``'s oracle: ray(x) -> ray(m x), or ray(m conj(x)) when ``conj``, m prescaled.

    It answers each stack, a stage's probe rays included, as one stacked product.
    """

    __slots__ = ("_matrix", "_conj")

    def __init__(self, m: np.ndarray, conj: bool, label: str):
        super().__init__(len(m), len(m), _matvec_answers(m, conj), label)
        self._matrix, self._conj = m, conj

    def _images(self, rows: np.ndarray) -> np.ndarray:
        """``RayMapOracle._images``' stack and ``image`` calls; no answer is read."""
        for _ in _asked(self.image, rows):
            pass
        return _product_rays(self._matrix, rows, self._conj)

    def _probe_answers(self, rows: np.ndarray) -> Iterator[np.ndarray]:
        return iter((self._images(rows),))


def _product_rays(m: np.ndarray, x: np.ndarray, conj: bool) -> np.ndarray:
    """Reps of the rays of ``m @ x``, or of ``m @ conj(x)``, for each row x of a (k, n) stack."""
    x = np.conj(x) if conj else np.ascontiguousarray(x)
    # One BLAS gemv per row, each with the bits of a lone answer's ``dot``.
    return canonical_rays(np.matmul(m, x[:, :, None])[:, :, 0])


def _gram_certifies(m: np.ndarray) -> bool:
    """Whether the Gershgorin discs of G = m^dagger m lie in [lo, hi] with lo > 0 and hi <= 4 lo."""
    gram = np.abs(m.conj().T @ m)
    centre = gram.diagonal()
    radius = gram.sum(axis=1) - centre
    lo, hi = (centre - radius).min(), (centre + radius).max()
    return bool(lo > 0.0 and hi <= 4.0 * lo)


def induced_map(op: SymmetryOperator) -> RayMapOracle:
    """Ray map induced by a symmetry operator: ray(x) -> ray(U x) or ray(U conj(x)).

    Raises SingularMatrix when ``np.linalg.cond(op.matrix)`` is not finite or
    is at least MAX_CONDITION.  That SVD is skipped when the Gershgorin discs of
    the prescaled Gram matrix lie in [lo, 4 lo] with lo > 0, which bounds the
    condition number by 2, as for unitary matrices.  A unitarity defect d that
    ``op.unitarity_defect`` has already computed certifies the same when
    dim * d <= 0.6, since the discs of U^dagger U then lie in [0.4, 1.6], and
    that Gram product is not formed again.  Where the prescaled entries and
    products stay normal, an answer's ``rep`` is
    ``Ray(op.matrix @ x).rep`` bit for bit.
    """
    m = op.matrix
    if m.any():  # a zero matrix has no prescale; the SVD refuses it
        m = _prescaled_rows(m.reshape(1, -1)).reshape(m.shape)
    if not (op.dim * op.__dict__.get("_defect", math.inf) <= 0.6 or _gram_certifies(m)):
        cond = np.linalg.cond(op.matrix)
        if not np.isfinite(cond) or cond >= MAX_CONDITION:
            raise SingularMatrix(
                f"matrix condition number {cond:.3e} exceeds {MAX_CONDITION:.0e}"
            )

    kind = "antilinear" if op.antiunitary else "linear"
    return _MatrixOracle(m, op.antiunitary, label=f"{kind}[dim={op.dim}]")


def general_induced_map(matrix: np.ndarray, conjugate_first: bool = False) -> RayMapOracle:
    """``induced_map(SymmetryOperator(matrix, antiunitary=conjugate_first))``; no guarantees.

    ``conjugate_first`` must be a bool (else TypeError naming it).
    """
    flag = _flag(conjugate_first, "conjugate_first")
    return induced_map(SymmetryOperator(matrix, antiunitary=flag))


def _orthogonal_state(r: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fresh random state projected off the unit vector r; degenerate draws are redrawn."""
    while True:
        t = sample_state(r.shape[0], rng)
        t = t - np.vdot(r, t) * r
        if np.vdot(t, t).real > DEGENERATE_DRAW:
            return t


def check_orthogonality_preservation(
    oracle: RayMapOracle,
    trials: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ConformanceReport:
    """Sample evidence that the oracle preserves orthogonality and u-values.

    Each of ``trials`` trials draws, from ``seed``, an orthogonal ray pair and a
    generic pair, and asks their 4 rays.  Entry ``orthogonality-preservation``
    holds the worst u of an orthogonal pair's images, and
    ``ray-function-invariance`` the worst drift of a generic pair's u; each
    passes within tol.orth_tol.  Equal arguments give an equal report.  Before
    any ask, ``trials`` is read with ``operator.index`` (TypeError naming it,
    ValueError below 1), and dim_in below 2 raises ValueError.
    """
    trials = _trial_count(trials)
    dim = oracle.dim_in
    if dim < 2:
        raise ValueError("orthogonal pairs need dimension at least 2")
    max_orth, max_u = sampled_maxima(trials, 4, dim, seed, partial(_preservation_block, oracle))
    worst = (("orthogonality-preservation", max_orth), ("ray-function-invariance", max_u))
    entries = tuple(_entry(name, x, tol.orth_tol, seed, trials=trials) for name, x in worst)
    return ConformanceReport(dim=dim, seed=seed, entries=entries)


def _preservation_block(
    oracle: RayMapOracle, v: np.ndarray, rng: np.random.Generator
) -> tuple[float, float]:
    """Worst image u of the orthogonal pairs and worst u drift of one (k, 4, dim) block."""
    k, _, dim = v.shape
    r = canonical_rays(v[:, 0])
    t = v[:, 1]  # a view: s takes t's place in the block's draw
    t -= np.vecdot(r, t)[:, None] * r
    for j in np.flatnonzero(np.vecdot(t, t).real <= DEGENERATE_DRAW):
        t[j] = _orthogonal_state(r[j], rng)
    sources = canonical_rays(v.reshape(4 * k, dim))
    images = oracle._images(sources).reshape(k, 4, oracle.dim_out)
    a, b = sources[2::4], sources[3::4]
    orth = float(ray_functions(images[:, 0], images[:, 1]).max())
    drift = np.abs(ray_functions(images[:, 2], images[:, 3]) - ray_functions(a, b))
    return orth, float(drift.max())


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random dim x dim unitary from ``seed``, via QR; ValueError for dim below 1.

    A seed repeats the matrix bit for bit only on one LAPACK/BLAS kernel.
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    rng = np.random.default_rng(seed)
    # The dim * dim real parts, then as many imaginary parts, in one draw.
    z = _states(rng.standard_normal((1, 2, dim * dim))).reshape(dim, dim)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
