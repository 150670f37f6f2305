"""Reconstruction of a symmetry operator from a ray-map oracle, in four stages.

1. ``map_basis`` asks every coordinate-axis ray and checks, from the Gram
   matrix of the images alone, that they form an orthonormal, complete system.
2. ``slice_coordinates`` asks the ray of e_1 + z e_i and reads the image's
   i-th coordinate on the slice where the first one equals 1.  Orthogonality
   preservation confines the image to the plane of image axes 1 and i, so the
   probe returns c_i f(z): a per-axis constant times a field automorphism f.
3. ``fix_phases`` probes z = 1 on every axis and absorbs the unit phase of
   c_i = r_i w_i into image axis i, so that later probes read r_i f(z).
4. ``classify_automorphism`` probes z = i.  Transition-probability invariance
   forces f to be the identity or complex conjugation, and that one probe
   decides which; conjugation makes the operator antiunitary.

Each probe stage, and ``probe_automorphism``, builds the canonical rows of its
probe rays, asks them as one stack with ``oracle._images``, and then scores
that stack in ``_scored_rows``; so a stage asks all its rays, pass or fail.
Only ``probe_automorphism``, whose points can repeat, deduplicates its rows.
Each call builds its rows afresh; no row, plan or answer is kept between calls.

The operator has the phase-fixed image axes as columns.  It reproduces the
oracle up to a global phase only if every scale r_i is 1 and the oracle meets
the theorem's hypotheses, which the 2*dim probes alone cannot establish.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    CrossTalk,
    DegenerateProbe,
    DimensionMismatch,
    ImagesNotOrthogonal,
    IncompleteImage,
    NotWignerLike,
    RaySymError,
    SliceDegenerate,
)
from .oracles import RayMapOracle, SymmetryOperator, _product_rays, _square_matrix, _trial_count
from .rays import DEFAULT_TOLERANCES, Tolerances, canonical_rays, ray_functions, sampled_maxima

#: Probe points for automorphism-law checks: 0, +-1, +-i, 1+i and six generic points.
DEFAULT_PROBE_GRID = (
    0.0 + 0.0j,
    1.0 + 0.0j,
    -1.0 + 0.0j,
    0.0 + 1.0j,
    0.0 - 1.0j,
    1.0 + 1.0j,
    0.6403 - 0.3706j,
    -0.8612 + 0.4401j,
    0.2914 + 0.9003j,
    -0.1258 - 0.7672j,
    1.1346 + 0.2078j,
    -0.4931 - 1.0211j,
)

#: Random rays verify_reproduction maps through operator and oracle by default.
REPRODUCTION_TRIALS = 100


@dataclass(frozen=True, eq=False)
class BasisImages:
    """Images of the coordinate-axis rays, stored as matrix columns, with their scales.

    ``gram_defect`` is the max-norm deviation of the images' Gram matrix from
    the identity.  ``columns`` must be square, nonempty and finite, and
    ``scales`` of shape ``(dim,)``, finite and positive (else ValueError);
    omitted scales are all ones.  Both are stored as read-only copies.
    """

    columns: np.ndarray
    gram_defect: float
    scales: np.ndarray | None = None

    def __post_init__(self):
        m = _square_matrix(self.columns, "columns").copy()  # private copies
        s = np.ones(m.shape[0]) if self.scales is None else np.array(self.scales, dtype=np.float64)
        if s.shape != m.shape[:1]:
            raise ValueError(f"scales must have shape {m.shape[:1]}, got shape {s.shape}")
        if not ((s > 0.0) & (s < np.inf)).all():  # NaN fails both comparisons
            raise ValueError("scales must be finite and positive")
        m.flags.writeable = s.flags.writeable = False
        object.__setattr__(self, "columns", m)
        object.__setattr__(self, "scales", s)

    @property
    def dim(self) -> int:
        return self.columns.shape[0]


@dataclass(frozen=True)
class ProbeResult:
    """Pointwise automorphism table with additivity/multiplicativity residuals."""

    index: int
    values: tuple[tuple[complex, complex], ...]
    additivity_residual: float
    multiplicativity_residual: float


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Operator reconstructed from an oracle, with its phase-fixed basis and diagnostics.

    ``scales`` is ``basis.scales`` (``scales[0]`` is 1), ``max_scale_deviation``
    is max |scales - 1|, and ``unitary_valid`` is set when that is within
    recon_tol; it is not a preservation verdict (see verify_reproduction).
    ``classification_residual`` is the distance of the probed f(i) from the i or
    -i that classify_automorphism accepted.
    """

    operator: SymmetryOperator
    basis: BasisImages
    classification_residual: float
    unitary_valid: bool

    @property
    def scales(self) -> np.ndarray:
        return self.basis.scales

    @property
    def max_scale_deviation(self) -> float:
        return float(np.max(np.abs(self.scales - 1.0)))


@contextmanager
def _stage(name: str, gram_defect: float | None = None):
    """Annotate pipeline errors with the stage that raised them and the basis Gram defect."""
    try:
        yield
    except RaySymError as err:
        if err.stage is None:
            err.stage = name
            err.basis_gram_defect = gram_defect
        raise


def map_basis(oracle: RayMapOracle, dim: int, tol: Tolerances = DEFAULT_TOLERANCES) -> BasisImages:
    """Ask the dim coordinate-axis rays and validate their images as a basis.

    Before any ask it raises ValueError for dim below 2 and DimensionMismatch
    unless the oracle maps dimension dim to dim.  A pair of images with u above
    tol.orth_tol raises ImagesNotOrthogonal (the first in row-major order), and
    a Gram defect max |G - I| above tol.recon_tol raises IncompleteImage; that
    bound makes the images span the space.
    """
    if dim < 2:
        raise ValueError(f"reconstruction requires dimension at least 2, got {dim}")
    with _stage("map_basis"):
        if oracle.dim_in != dim or oracle.dim_out != dim:
            raise DimensionMismatch(
                f"oracle maps dimension {oracle.dim_in} to {oracle.dim_out}, expected {dim} to {dim}"
            )
        # Each identity row is already the canonical representative of its axis ray.
        axes = np.eye(dim, dtype=np.complex128)
        reps = np.ascontiguousarray(oracle._images(axes).T)
        gram = reps.conj().T @ reps
        norms = gram.diagonal().real
        u = np.minimum((gram.real**2 + gram.imag**2) / np.outer(norms, norms), 1.0)
        overlaps = np.argwhere(np.triu(u > tol.orth_tol, k=1))
        if overlaps.size:
            i, j = (int(k) for k in overlaps[0])
            raise ImagesNotOrthogonal(i, j, float(u[i, j]))
        gram_defect = float(np.max(np.abs(gram - axes)))
        if gram_defect > tol.recon_tol:
            raise IncompleteImage(
                f"basis-image Gram matrix deviates from identity by {gram_defect:.3e}"
            )
    return BasisImages(columns=reps, gram_defect=gram_defect)


def _check_probe_index(dim: int, i: int) -> int:
    """``i`` as a Python int in [1, dim - 1]; an index of no integral type raises TypeError."""
    i = operator.index(i)
    if not 1 <= i < dim:
        raise ValueError(f"probe index must lie in [1, {dim - 1}], got {i}")
    return i


def _probe_rows(dim: int, points: Sequence[complex], axes: int | Sequence[int]) -> np.ndarray:
    """Canonical reps of the probe rays e_1 + points[j] e_{axes[j]}, one row per point, in order.

    One int ``axes`` is the axis of every point.
    """
    probes = np.zeros((len(points), dim), dtype=np.complex128)
    probes[:, 0] = 1.0
    probes[np.arange(len(points)), axes] = points
    return canonical_rays(probes)


def _scored_rows(
    answers: np.ndarray, basis: BasisImages, axes: Sequence[int], tol: Tolerances
) -> tuple[list[complex], RaySymError | None]:
    """Slice coordinates b_i / b_1 of the answer rows before the first failing row, and its error.

    Row n of the answer stack probes ``axes[n]``.  Values have the bits of the
    scalar ``basis.columns.conj().T.dot(w)`` and ``b_i / b_1``.  The array abs
    may differ from the scalar abs in the last bit, so its thresholds only
    preselect rows for ``_first_failure``.  The caller raises the error after
    it has read the values, so an error it raises on an earlier value wins.
    Each caller asks the whole stack before this scores it, so an exception
    the oracle raises on any ray of the stage wins over every scoring error.
    """
    n, dim = len(axes), basis.dim
    b = np.matmul(basis.columns.conj().T, answers[:, :, None])[:, :, 0]
    coordinates = np.arange(0, n * dim, dim) + axes  # the flat index of each row's b_i
    thresholds = np.full(n * dim, 0.5 * tol.orth_tol)
    thresholds[::dim] = 2.0 * tol.orth_tol
    thresholds[coordinates] = np.inf
    above = np.abs(b) > thresholds.reshape(n, dim)
    stop, error = n, None
    # Rows pass unchecked when |b_1| alone is above its threshold.
    if above.tobytes() != (b"\x01" + bytes(dim - 1)) * n:
        stop, error = _first_failure(b, above, axes, tol)
    return (b.take(coordinates[:stop]) / b[:stop, 0]).tolist(), error


def _first_failure(
    b: np.ndarray, above: np.ndarray, axes: Sequence[int], tol: Tolerances
) -> tuple[int, RaySymError | None]:
    """First row failing the slice tests (scalar abs), with its error; else (len(b), None)."""
    for n, (i, row, marks) in enumerate(zip(axes, b, above)):
        if abs(row[0]) <= tol.orth_tol:
            return n, SliceDegenerate(
                f"image of the probe on axis {i} is orthogonal to the reference axis "
                f"(|b_1| = {abs(row[0]):.3e})"
            )
        for j in np.flatnonzero(marks[1:]) + 1:
            if abs(row[j]) > tol.orth_tol:
                return n, CrossTalk(i, int(j), float(abs(row[j])))
    return len(b), None


def slice_coordinates(
    oracle: RayMapOracle,
    basis: BasisImages,
    z: complex,
    i: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> complex:
    """Coordinate b_i / b_1 of the image of ray(e_1 + z e_i) on the slice x_1' = 1; asks one ray.

    b_j = <col_j, w> expands the image rep w in the basis columns.  Raises
    SliceDegenerate when |b_1| <= tol.orth_tol, and CrossTalk, naming the lowest
    such axis, when a |b_j| off axes 1 and i exceeds it.  ``i`` must be an
    integer in [1, dim - 1] (else TypeError or ValueError, before the ask).
    """
    i = _check_probe_index(basis.dim, i)
    rows = _probe_rows(basis.dim, [complex(z)], [i])
    values, error = _scored_rows(oracle._images(rows), basis, [i], tol)
    if error is not None:
        raise error
    return values[0]


def fix_phases(
    oracle: RayMapOracle,
    basis: BasisImages,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> BasisImages:
    """Probe z = 1 on axes 1 to dim - 1 and absorb the probe phases; asks dim - 1 rays.

    Column i is multiplied by the unit phase w_i of the probe value
    c_i = r_i w_i, so that later probes read r_i f(z).  Raises DegenerateProbe
    when r_i <= tol.orth_tol, besides slice_coordinates' errors.  Returns the
    phase-fixed basis with the scales r_i (scales[0] = 1); the given basis's
    scales are not read.  All dim - 1 rays are asked, even when a probe fails.
    """
    dim = basis.dim
    columns = basis.columns.copy()
    scales = np.ones(dim)
    axes = range(1, dim)
    with _stage("fix_phases", basis.gram_defect):
        answers = oracle._images(_probe_rows(dim, [1.0] * (dim - 1), axes))
        values, error = _scored_rows(answers, basis, axes, tol)
        for i, c in zip(axes, values):
            r = abs(c)
            if r <= tol.orth_tol:
                raise DegenerateProbe(f"unit probe on axis {i} returned magnitude {r:.3e}")
            columns[:, i] *= c / r
            scales[i] = r
        if error is not None:
            raise error
    return BasisImages(columns=columns, gram_defect=basis.gram_defect, scales=scales)


def classify_automorphism(
    oracle: RayMapOracle,
    fixed_basis: BasisImages,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[bool, float]:
    """Decide identity versus conjugation from one probe, z = i on axis 1 (one ray).

    f(i) is the probe value over the basis's scale r_1.  Returns the pair
    (antiunitary, distance): False when f(i) is within tol.recon_tol of i, True
    when within it of -i.  Otherwise raises NotWignerLike, besides
    slice_coordinates' errors.
    """
    with _stage("classify_automorphism", fixed_basis.gram_defect):
        f_val = slice_coordinates(oracle, fixed_basis, 1j, 1, tol) / fixed_basis.scales[1]
        for antiunitary, target in ((False, 1j), (True, -1j)):
            if abs(f_val - target) <= tol.recon_tol:
                return antiunitary, float(abs(f_val - target))
        raise NotWignerLike(f_val)


def probe_automorphism(
    oracle: RayMapOracle,
    fixed_basis: BasisImages,
    samples: tuple[complex, ...] = DEFAULT_PROBE_GRID,
    i: int = 1,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ProbeResult:
    """Pointwise probe of the coordinate automorphism on axis ``i``, with law residuals.

    Tabulates f(z) = slice coordinate / ``fixed_basis.scales[i]`` at every
    sample, and probes a+b and a*b for every unordered pair of samples (a sample
    with itself included) for the worst residuals |f(a+b) - f(a) - f(b)| and
    |f(ab) - f(a) f(b)|.  Asks one ray per distinct probe ray, pass or fail:
    121 for DEFAULT_PROBE_GRID.  Before any ask it raises TypeError or
    ValueError unless ``i`` is an integer in [1, dim - 1], and ValueError for
    no sample or a non-finite point.  Pointwise probes cannot certify the
    hypotheses.
    """
    i = _check_probe_index(fixed_basis.dim, i)
    r = float(fixed_basis.scales[i])
    samples = [complex(z) for z in samples]
    if not samples:
        raise ValueError("probe_automorphism needs at least one sample")
    points = list(samples)
    for a, b in combinations_with_replacement(samples, 2):
        points += (a + b, a * b)
    rows = _probe_rows(fixed_basis.dim, points, i)
    # Points with equal probe rays share one ask, at the first; slot[j] is point j's ask.
    # A void view lists each row's bytes; the keys, in order of first occurrence, are asked.
    keys = rows.view(f"V{rows[0].nbytes}").ravel().tolist()
    seen: dict[bytes, int] = {}
    slot = [seen.setdefault(key, len(seen)) for key in keys]
    distinct = np.frombuffer(b"".join(seen), dtype=np.complex128).reshape(len(seen), -1)
    asked, error = _scored_rows(oracle._images(distinct), fixed_basis, [i] * len(distinct), tol)
    if error is not None:
        raise error
    f = [asked[s] / r for s in slot]
    values = tuple(zip(samples, f))
    pairs = iter(f[len(samples):])
    add_res = mult_res = 0.0
    for fa, fb in combinations_with_replacement(f[:len(samples)], 2):
        # max(res, x), without its call: a NaN x leaves res as it is
        x = abs(next(pairs) - (fa + fb))
        if x > add_res:
            add_res = x
        x = abs(next(pairs) - fa * fb)
        if x > mult_res:
            mult_res = x
    return ProbeResult(
        index=i,
        values=values,
        additivity_residual=add_res,
        multiplicativity_residual=mult_res,
    )


def reconstruct(
    oracle: RayMapOracle,
    dim: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ReconstructionResult:
    """Run map_basis, fix_phases and classify_automorphism, and assemble the operator.

    Asks exactly 2*dim rays when it succeeds, and raises what the stages raise.
    """
    fixed = fix_phases(oracle, map_basis(oracle, dim, tol), tol)
    antiunitary, classification_residual = classify_automorphism(oracle, fixed, tol)
    return ReconstructionResult(
        operator=SymmetryOperator(fixed.columns, antiunitary=antiunitary),
        basis=fixed,
        classification_residual=classification_residual,
        unitary_valid=bool(np.max(np.abs(fixed.scales - 1.0)) <= tol.recon_tol),
    )


def verify_reproduction(
    op: SymmetryOperator,
    oracle: RayMapOracle,
    trials: int = REPRODUCTION_TRIALS,
    seed: int = 0,
) -> float:
    """Worst 1 - u(ray(op x), oracle image of ray(x)) over ``trials`` random rays from ``seed``.

    Asks ``trials`` rays; equal arguments give an equal result.  Rounding-level
    values certify reproduction up to a global phase.  Before any ask it raises
    DimensionMismatch unless the oracle maps op.dim to op.dim, and reads
    ``trials`` with ``operator.index`` (TypeError naming it, ValueError below 1).
    """
    if oracle.dim_in != op.dim or oracle.dim_out != op.dim:
        raise DimensionMismatch(f"an operator of dimension {op.dim} cannot reproduce {oracle!r}")
    trials = _trial_count(trials)
    return sampled_maxima(
        trials, 1, op.dim, seed, lambda v, rng: (_reproduction_block(op, oracle, v),)
    )[0]


def _reproduction_block(op: SymmetryOperator, oracle: RayMapOracle, v: np.ndarray) -> float:
    """Worst 1 - u(ray(op x), oracle image) over the sources of one (k, 1, dim) block."""
    sources = canonical_rays(v[:, 0])
    mapped = _product_rays(op.matrix, sources, op.antiunitary)
    images = oracle._images(sources)
    return float((1.0 - ray_functions(mapped, images)).max())


def gauge_residual(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Deviation of candidate^dagger reference from a unit-phase multiple of the identity.

    The phase is that of the largest-modulus diagonal entry, subnormal included,
    and 1 for an all-zero diagonal.  Both matrices must be square, nonempty and
    finite (else ValueError) and of one shape (else DimensionMismatch).  The
    residual is inf, with no warning, once the product leaves double range.
    """
    candidate = _square_matrix(candidate, "candidate")
    reference = _square_matrix(reference, "reference")
    if candidate.shape != reference.shape:
        raise DimensionMismatch(
            f"cannot compare matrices of shapes {candidate.shape} and {reference.shape}"
        )
    # The entries are finite, so only an overflow of the product gives inf or NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        v = candidate.conj().T @ reference
        diag = np.diagonal(v)
        d = diag[int(np.argmax(np.abs(diag)))]
        if 0.0 < abs(d) < np.finfo(np.float64).tiny:
            # numpy divides by multiplying with 1 / abs(d), which overflows here.
            d = d * 2.0**1022
        phase = d / abs(d) if abs(d) else 1.0
        residual = float(np.max(np.abs(v - phase * np.eye(v.shape[0]))))
    return math.inf if math.isnan(residual) else residual
