"""Ray-map oracles and the operators that induce them.

A ray-map oracle is a black-box map from rays of C^n to rays of C^m.  The
reconstruction pipeline only ever talks to this interface, so implementations
cannot leak phase or scale information.  Concrete oracles are induced by
matrices: a symmetry operator acts as x -> U x (linear) or x -> U conj(x)
(antilinear), and a general invertible matrix induces a ray map with no
preservation guarantees, used to exercise the hypothesis-violation
diagnostics.

The package's one result type for a check, a :class:`ConformanceReport` of
:class:`CheckResult` entries, and the one verdict rule that judges an entry
live here: the sampled hypothesis check and the conformance suite share them.
"""

from __future__ import annotations

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
    _canonical_answers,
    _prescaled_rows,
    _states,
    _vdots,
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
    """``trials`` as a Python int of at least 1, read with ``operator.index``.

    A value of no integral type (a float, a str) raises TypeError naming
    ``trials``; a count below 1 raises ValueError.
    """
    try:
        count = operator.index(trials)
    except TypeError:
        raise TypeError(f"trials must be an integer, got {type(trials).__name__}") from None
    if count < 1:
        raise ValueError(f"trials must be at least 1, got {count}")
    return count


@dataclass(frozen=True, eq=False)
class SymmetryOperator:
    """An n x n complex matrix plus an antiunitary flag.

    Acts on vectors as x -> U x, or x -> U conj(x) when antiunitary, a bool
    or numpy.bool_ (anything else raises TypeError).  The matrix is stored
    read-only; the type itself does not require unitarity (diagnostic
    operators are first-class), see :meth:`unitarity_defect`.
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
        """Max-norm deviation of U^dagger U from the identity."""
        gram = self.matrix.conj().T @ self.matrix
        return float(np.max(np.abs(gram - np.eye(self.dim))))


class RayMapOracle:
    """Deterministic black-box map between ray sets.

    ``dim_in`` and ``dim_out`` must be positive integers of any integral
    type (``operator.index``); anything else, a float included, raises
    TypeError.  ``image_fn`` must be total on rays of dimension ``dim_in``
    and return a :class:`~raysym.rays.Ray` of dimension ``dim_out``.
    ``image`` raises TypeError, naming the oracle and the type, when it is
    asked or answers something that is not a Ray, and DimensionMismatch for
    a Ray of another dimension.  Every answer is checked and prescaled where
    it is canonicalized, with the errors ``Ray(v)`` raises.

    The library asks in one place, the private methods below: one ``image``
    call per ray, in order, with read-only rays.  A stack of rays (one block
    of a sampled check, or ``map_basis``'s axes) is asked row by row; each
    answer's vector is copied into one stack as it arrives, and no answer's
    Ray is kept after that.  The rows still pending are then canonicalized
    in one pass, with the bits each answer's ``rep`` would have.  The
    distinct rays of a stage's slice probes go to ``_probe_answers``: a
    plain oracle is asked them one at a time, each when its answer is
    scored, so a failing probe asks no ray after it, and each answer's
    ``rep`` is read.  ``induced_map``'s matrix oracles answer more than one
    as one stack before the first is scored.  Their answers are finite and
    nonzero, so that stack raises nothing ahead of an earlier row's scoring
    error; only the rays asked past a failing probe differ.  A lone ray is
    asked alone on either path.
    Oracles carry no state, so concurrent image calls are safe, and the same
    ray always gets the same answer.  The library
    relies on that: its slice probes (``fix_phases``,
    ``probe_automorphism``) ask each distinct probe ray once and reuse the
    answer.
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
        """Answer reps for a canonical (k, dim_in) stack, gathered by ``_canonical_answers``."""
        rows = rows.view()
        rows.flags.writeable = False  # the oracle never gets a ray it can write into
        return _canonical_answers(self.image, rows, self.dim_out)

    def _probe_answers(self, rows: np.ndarray) -> Iterator[np.ndarray]:
        """Answer reps for a read-only canonical (k, dim_in) stack of distinct probe rays.

        Each row is asked, in order, when its answer is taken, so a caller
        that stops at a failing row has asked no ray after it.
        """
        return (self.image(Ray._from_canonical(row)).rep for row in rows)

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
    """The one verdict rule: a check passes when it was reached and its residual is within bound.

    ``reached`` is False when there is nothing to judge: a failed stage never
    ran the check, map_basis rejected the basis, or the kinds differ.
    """
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
    """``induced_map``'s oracle: its asks have no effect beyond their answers.

    Its answers are finite and nonzero, so canonicalizing them raises
    nothing.  So more than one probe ray is asked as one ``_images`` stack,
    still one ``image`` call per ray, before the first answer is scored: no
    ask can raise ahead of an earlier row's scoring error.  A lone ray keeps
    the scalar path, which is faster than a one-row stack.
    """

    __slots__ = ()

    def _probe_answers(self, rows: np.ndarray) -> Iterator[np.ndarray]:
        if len(rows) > 1:
            return iter(self._images(rows))
        return RayMapOracle._probe_answers(self, rows)


def _gram_certifies(m: np.ndarray) -> bool:
    """Whether the Gershgorin discs of G = m^dagger m lie in [lo, hi] with lo > 0 and hi <= 4 lo."""
    gram = np.abs(m.conj().T @ m)
    centre = gram.diagonal()
    radius = gram.sum(axis=1) - centre
    lo, hi = (centre - radius).min(), (centre + radius).max()
    return bool(lo > 0.0 and hi <= 4.0 * lo)


def induced_map(op: SymmetryOperator) -> RayMapOracle:
    """Ray map induced by a symmetry operator: ray(x) -> ray(U x) or ray(U conj(x)).

    One matrix-vector product per ray, with ``op.matrix`` prescaled as one
    row of ``Ray``'s recipe: by the power of two that brings its largest
    real or imaginary part into [0.5, 1).  It induces the same map, and,
    once its condition is checked, its product with a unit x is finite and
    nonzero at any scale of ``op.matrix``.  So each product is the answer,
    pending and uncopied, and checked where it is canonicalized.  Where the
    scaled entries and products stay normal, its ``rep`` is
    ``Ray(op.matrix @ x).rep``.  The oracle asks the slice probes of a stage
    as one stack when there is more than one (``_MatrixOracle``).

    A matrix whose condition number ``np.linalg.cond(op.matrix)`` is not
    finite or is at least MAX_CONDITION raises SingularMatrix.  That SVD runs
    only when the Gershgorin discs of the Gram matrix G = m^dagger m do not
    certify the condition: when they lie in [lo, hi] with lo > 0 and
    hi <= 4 lo, the eigenvalues of G are within a factor 4 of each other, so
    the condition number is at most 2, and the matrix is accepted without
    it.  Unitary matrices and ``U diag(1 + k/dim)`` pass that way.
    """
    m = op.matrix
    if m.any():  # a zero matrix has no prescale; the SVD refuses it
        m = _prescaled_rows(m.reshape(1, -1)).reshape(m.shape)
    if not _gram_certifies(m):
        cond = np.linalg.cond(op.matrix)
        if not np.isfinite(cond) or cond >= MAX_CONDITION:
            raise SingularMatrix(
                f"matrix condition number {cond:.3e} exceeds {MAX_CONDITION:.0e}"
            )

    answer = Ray._from_answer

    # ndarray.dot makes the one BLAS matrix-vector call that ``m @ x`` makes,
    # with less dispatch around it.
    if op.antiunitary:
        def image_fn(ray: Ray) -> Ray:
            return answer(m.dot(np.conj(ray.rep)))
    else:
        def image_fn(ray: Ray) -> Ray:
            return answer(m.dot(ray.rep))

    kind = "antilinear" if op.antiunitary else "linear"
    return _MatrixOracle(op.dim, op.dim, image_fn, label=f"{kind}[dim={op.dim}]")


def general_induced_map(matrix: np.ndarray, conjugate_first: bool = False) -> RayMapOracle:
    """Ray map induced by an arbitrary invertible matrix; no preservation guarantees.

    It is ``induced_map`` of ``SymmetryOperator(matrix, antiunitary=conjugate_first)``.
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

    Each trial draws one random orthogonal ray pair (r, s) and records the
    transition probability of the images, and one generic random pair (a, b)
    and records how far the image u-value drifts from the source u-value.
    The report holds two entries, ``orthogonality-preservation`` and
    ``ray-function-invariance``, with those worst cases as residuals; each
    passes when its residual is at most tol.orth_tol.  ``trials`` is read
    with ``operator.index`` before any ray is asked (TypeError naming it for
    a float or a str, ValueError below 1), so each entry's ``trials`` is a
    Python int.  Requires dim_in >= 2.

    Trials run in the blocks of ``rays.sampled_maxima``: one block draws the
    generators of r, t, a and b of each of its trials, in that order, with
    one normal draw, and its arrays are released before the next draw.  s is
    t projected off r; when the projection has |t|^2 <= DEGENERATE_DRAW a
    fresh t is drawn from the generator, after the block's draw.  The
    block's r is canonicalized to project t off it; then the block's draw, s
    in place of t, is canonicalized in one ``canonical_rays`` pass, which
    gives r the same bits again.  That stack is asked as it stands, in trial
    order and r, s, a, b within a trial, and its answers are scored with
    ``ray_functions``.  The block size changes neither the rays asked nor
    the report.
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
    t -= _vdots(r, t)[:, None] * r
    for j in np.flatnonzero(_vdots(t, t).real <= DEGENERATE_DRAW):
        t[j] = _orthogonal_state(r[j], rng)
    sources = canonical_rays(v.reshape(4 * k, dim))
    images = oracle._images(sources).reshape(k, 4, oracle.dim_out)
    a, b = sources[2::4], sources[3::4]
    orth = float(ray_functions(images[:, 0], images[:, 1]).max())
    drift = np.abs(ray_functions(images[:, 2], images[:, 3]) - ray_functions(a, b))
    return orth, float(drift.max())


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Ginibre matrix.

    The R-diagonal phases are folded back into Q so the distribution is
    exactly Haar rather than QR-convention dependent.
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    rng = np.random.default_rng(seed)
    # The dim * dim real parts, then as many imaginary parts, in one draw.
    z = _states(rng.standard_normal((1, 2, dim * dim))).reshape(dim, dim)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
