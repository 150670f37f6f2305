"""Reconstruction of a symmetry operator from a ray-map oracle.

The pipeline turns a black-box ray map into an explicit operator in four
stages, each consuming only oracle answers:

1. ``map_basis`` sends every coordinate axis ray through the oracle and
   checks, from the Gram matrix of the images alone, that they form an
   orthonormal, complete system (this is the isomorphism statement made
   executable).
2. ``slice_coordinates`` probes the oracle with rays generated by
   e_1 + z e_i and reads off the i-th coordinate of the image on the affine
   slice where the first coordinate equals 1.  Orthogonality preservation
   forces the image to live in the plane spanned by the first and i-th image
   axes, so the probe returns c_i f(z): a per-axis constant times a field
   automorphism applied to z.
3. ``fix_phases`` probes z = 1 on every axis, splits c_i = r_i w_i into a
   positive scale and a unit phase, and absorbs the phase into the stored
   image axis, after which probes read r_i f(z) with r_i > 0.  The
   phase-fixed basis it returns carries the scales r_i, and every later
   stage reads them from there.
4. ``classify_automorphism`` probes z = i; transition-probability invariance
   pins |f(z)| = |z| and forces f to be the identity or complex conjugation,
   so the single probe decides which: conjugation makes the operator
   antiunitary.

Every stage asks through :class:`RayMapOracle`'s one ask path.  Stages 2-4
and ``probe_automorphism`` share one probe path: a stage makes the rays of
all its probe points in one pass, then asks each distinct ray once and
scores the answers in order, one at a time; the first failing probe raises.
A plain oracle is asked each ray as its answer is scored, so a failing probe
asks no ray after it.  ``induced_map``'s matrix oracles answer more than one
distinct ray as one stack before the first is scored; their answers are
finite and nonzero, so the stack raises nothing ahead of a scoring error,
and every result and error keeps its bits.  A lone ray is asked alone.

The assembled operator has the phase-fixed image axes as columns and the
antiunitary flag set by the classification.  When every scale r_i is 1
within tolerance the operator is unitary (or antiunitary), and it reproduces
the oracle up to one global phase if the oracle meets the theorem's
hypotheses, which these 2*dim probes alone cannot establish; otherwise the
result is flagged diagnostic-only and records how far the scales deviate.

Stages 1, 3 and 4 name themselves, whoever calls them: a RaySymError raised
inside one carries the stage's name and, after map_basis, the basis Gram
defect.  slice_coordinates and probe_automorphism name none of their errors.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

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
from .oracles import RayMapOracle, SymmetryOperator, _square_matrix, _trial_count
from .rays import DEFAULT_TOLERANCES, Ray, Tolerances, canonical_rays, ray_functions, sampled_maxima

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


@dataclass(frozen=True, eq=False)
class BasisImages:
    """Images of the coordinate-axis rays, stored as matrix columns, with their scales.

    ``columns`` starts as the canonical representatives returned by the
    oracle; fix_phases returns a copy with the probe phases absorbed and the
    scales r_i it measured on them.  ``gram_defect`` is the max-norm
    deviation of the images' Gram matrix from the identity, measured once by
    map_basis and carried along unchanged.  ``columns`` must be square,
    nonempty and finite, and ``scales`` of shape ``(dim,)``, each finite and
    positive (else ValueError); ``dim`` is read from the columns.  Omitted
    scales are all ones, as on the basis map_basis returns: a probe of a
    basis not yet phase-fixed reads raw slice coordinates.  Both arrays are
    stored as private read-only copies.
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

    ``basis`` holds the phase-fixed image axes, the Gram defect map_basis
    measured and the scales fix_phases measured, ready for
    probe_automorphism; ``scales`` is ``basis.scales`` (``scales[0]`` is 1
    by convention) and ``max_scale_deviation`` is max |scales - 1|.
    ``unitary_valid`` is set when every scale is 1 within recon_tol; with the
    classified automorphism, that is all the 2*dim probes certify.  It is
    not a preservation verdict: check_orthogonality_preservation and
    verify_reproduction test the oracle's hypotheses and the operator's
    reproduction of the map.  When a scale deviates, the operator columns
    are still the phase-fixed image axes but the result is diagnostic-only.
    ``classification_residual`` is the distance of the probed f(i) to the i
    or -i that classify_automorphism accepted; the automorphism it classified
    is ``operator.antiunitary``: conjugation exactly when it is set.
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
    """Send every coordinate-axis ray through the oracle and validate the images.

    Both checks read the one Gram matrix G of the image representatives.
    Since u(i, j) = |G[i, j]|^2 / (G[i, i] G[j, j]), the images must be
    pairwise orthogonal within tol.orth_tol (else ImagesNotOrthogonal,
    carrying the first offending pair in row-major order).  They must also
    form a complete system: G equal to the identity within tol.recon_tol
    (else IncompleteImage).  No separate rank test is needed, because that
    bound puts every eigenvalue of G within dim * tol.recon_tol of 1, so the
    images span the target space.
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


def _slice_probes(
    oracle: RayMapOracle,
    basis: BasisImages,
    points: Sequence[complex],
    axes: Sequence[int],
    tol: Tolerances,
) -> Iterator[complex]:
    """``slice_coordinates`` at each point ``points[j]`` on axis ``axes[j]``, in order.

    One ``canonical_rays`` pass makes every probe ray; a lone one is
    ``Ray(v).rep``, the same bits faster than a one-row stack.  A ray is asked
    only at its first occurrence on its axis: the oracle's ``_probe_answers``
    gets the distinct rays in that order, lazily for a plain oracle and as
    one stack for a matrix oracle of more than one of them.  Each answer is
    scored in turn, and the first failing one raises.
    """
    probes = np.zeros((len(points), basis.dim), dtype=np.complex128)
    probes[:, 0] = 1.0
    probes[np.arange(len(points)), axes] = points
    rows = canonical_rays(probes) if len(probes) > 1 else Ray(probes[0]).rep[None]
    keys = [(i, row.tobytes()) for i, row in zip(axes, rows)]
    first: dict[tuple[int, bytes], int] = {}
    for j, key in enumerate(keys):
        first.setdefault(key, j)
    if len(first) < len(rows):  # copy only where some ray repeats
        rows = rows[list(first.values())]
        rows.flags.writeable = False  # the oracle never gets a ray it can write into
    answers = oracle._probe_answers(rows)
    adjoint = basis.columns.conj().T
    asked: dict[tuple[int, bytes], complex] = {}
    for i, key in zip(axes, keys):
        if key not in asked:
            b = adjoint.dot(next(answers))
            if abs(b[0]) <= tol.orth_tol:
                raise SliceDegenerate(
                    f"image of the probe on axis {i} is orthogonal to the reference axis "
                    f"(|b_1| = {abs(b[0]):.3e})"
                )
            # The array abs can differ from the scalar abs in the last bit, so it
            # only preselects candidates; the scalar abs decides and is reported.
            # One masked maximum rules out every axis but 0 and i at once.
            mags = np.abs(b)
            mags[0] = mags[i] = 0.0
            if mags[mags.argmax()] > 0.5 * tol.orth_tol:
                for j in np.flatnonzero(mags > 0.5 * tol.orth_tol):
                    if abs(b[j]) > tol.orth_tol:
                        raise CrossTalk(i, int(j), float(abs(b[j])))
            asked[key] = complex(b[i] / b[0])
        yield asked[key]


def slice_coordinates(
    oracle: RayMapOracle,
    basis: BasisImages,
    z: complex,
    i: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> complex:
    """Coordinate of the image of ray(e_1 + z e_i) on the slice x_1' = 1.

    Expands the image representative w in the basis columns, b_j = <col_j, w>.
    Both tests compare tol.orth_tol with amplitudes |b_j| of the unit vector
    w, not with transition probabilities |b_j|^2.  The source ray is not
    orthogonal to the first axis, so |b_1| must exceed tol.orth_tol (else
    SliceDegenerate); orthogonality preservation confines the image to the
    plane of axes 1 and i, so every other |b_j| must stay within tol.orth_tol
    of zero (else CrossTalk, naming the lowest such axis).  Returns b_i / b_1.
    ``i`` must be an integer in [1, dim - 1] (else TypeError or ValueError,
    before the ray is asked).
    """
    i = _check_probe_index(basis.dim, i)
    return next(_slice_probes(oracle, basis, [complex(z)], [i], tol))


def fix_phases(
    oracle: RayMapOracle,
    basis: BasisImages,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> BasisImages:
    """Probe z = 1 on every axis and absorb the probe phases into the columns.

    The unit probe returns c_i = r_i w_i.  r_i = |c_i| is a ratio of
    amplitudes, |b_i| / |b_1|, not a transition probability, and must exceed
    tol.orth_tol (else DegenerateProbe).  Multiplying column i by w_i makes
    subsequent slice coordinates read r_i f(z); in particular re-probing
    z = 1 returns the positive real r_i.  Returns the phase-fixed basis,
    which holds the scales it measured, with scales[0] = 1 by convention;
    the scales of the given basis are not read.
    """
    dim = basis.dim
    columns = basis.columns.copy()
    scales = np.ones(dim)
    axes = range(1, dim)
    with _stage("fix_phases", basis.gram_defect):
        for i, c in zip(axes, _slice_probes(oracle, basis, [1.0] * (dim - 1), axes, tol)):
            r = abs(c)
            if r <= tol.orth_tol:
                raise DegenerateProbe(f"unit probe on axis {i} returned magnitude {r:.3e}")
            columns[:, i] *= c / r
            scales[i] = r
    return BasisImages(columns=columns, gram_defect=basis.gram_defect, scales=scales)


def classify_automorphism(
    oracle: RayMapOracle,
    fixed_basis: BasisImages,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[bool, float]:
    """Decide identity versus conjugation from a single probe of the imaginary unit.

    The probe value on axis 1 is normalized by the basis's own scale r_1 to
    f(i).  It must land on i (identity, returned as ``False``) or on -i
    (conjugation, returned as ``True``: the operator is antiunitary) within
    tol.recon_tol, and the flag is returned with that distance; anything
    else means the oracle is inconsistent with an orthogonality-preserving
    map (NotWignerLike).
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
    """Pointwise probe of the coordinate automorphism with law residuals.

    Evaluates f(z) = slice coordinate / r_i, with r_i read from
    ``fixed_basis.scales``, at every sample, then for every unordered sample
    pair (a, b) at a+b and a*b, and records the worst additivity residual
    |f(a+b) - f(a) - f(b)| and multiplicativity residual |f(ab) - f(a) f(b)|.
    ``i`` must be an integer in [1, dim - 1] (else TypeError or ValueError),
    and there must be at least one sample, every point finite (else
    ValueError): a probe of no sample would report laws it never probed.
    All of this is checked before any ray is asked.  Oracles are
    deterministic, so each probe ray is asked once, at its first occurrence
    in that order: points whose probe rays have the same canonical
    representative share one answer, as do 0.0 and -0.0.  A plain oracle is
    asked the rays one at a time, so a failing probe asks no ray after it;
    a matrix oracle (``induced_map``) answers them all as one stack first,
    with the same result or error.  Pointwise probing
    documents the laws but cannot by itself certify the global preservation
    hypotheses.
    """
    i = _check_probe_index(fixed_basis.dim, i)
    r = float(fixed_basis.scales[i])
    samples = [complex(z) for z in samples]
    if not samples:
        raise ValueError("probe_automorphism needs at least one sample")
    points = list(samples)
    for k, a in enumerate(samples):
        for b in samples[k:]:
            points += (a + b, a * b)
    f = [c / r for c in _slice_probes(oracle, fixed_basis, points, [i] * len(points), tol)]
    values = tuple(zip(samples, f))
    pairs = iter(f[len(samples):])
    add_res = mult_res = 0.0
    for k, (a, fa) in enumerate(values):
        for b, fb in values[k:]:
            add_res = max(add_res, abs(next(pairs) - (fa + fb)))
            mult_res = max(mult_res, abs(next(pairs) - fa * fb))
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
    """Run the full pipeline: basis images, phase fixing, classification, assembly.

    Uses exactly dim + (dim - 1) + 1 = 2*dim oracle calls.  Errors carry
    the name of the stage that raised them.
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
    trials: int = 100,
    seed: int = 0,
) -> float:
    """Worst-case 1 - u(ray(op x), oracle image) over random rays.

    Zero means the operator reproduces the ray map exactly; values at
    rounding level certify reproduction up to the global phase.  ``trials``
    is read with ``operator.index`` before any ray is asked (TypeError
    naming it for a float or a str, ValueError below 1).

    Trials run in the blocks of ``rays.sampled_maxima``, each released
    before the next draw: one normal draw gives the block's source rays, the
    operator maps the whole stack (one matrix-vector product per row: U x,
    or U conj(x) when antiunitary), and the oracle is asked the block's
    sources as one stack, in trial order.  The block size changes neither
    the rays asked nor the result.
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
    x = np.conj(sources) if op.antiunitary else sources
    mapped = canonical_rays(np.matmul(op.matrix, x[:, :, None])[:, :, 0])
    images = oracle._images(sources)
    return float((1.0 - ray_functions(mapped, images)).max())


def gauge_residual(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Deviation of candidate^dagger reference from a unit-phase multiple of the identity.

    The phase is read off the largest-modulus diagonal entry, which stays
    stable even when other diagonal entries are near zero, at any scale of
    the entries, subnormal included.  Both matrices must be square and
    nonempty with finite entries (else ValueError) and of one shape (else
    DimensionMismatch).
    """
    candidate = _square_matrix(candidate, "candidate")
    reference = _square_matrix(reference, "reference")
    if candidate.shape != reference.shape:
        raise DimensionMismatch(
            f"cannot compare matrices of shapes {candidate.shape} and {reference.shape}"
        )
    v = candidate.conj().T @ reference
    diag = np.diagonal(v)
    k = int(np.argmax(np.abs(diag)))
    d = diag[k]
    if abs(d) == 0.0:
        return float(np.max(np.abs(v)))
    if abs(d) < np.finfo(np.float64).tiny:
        # numpy divides by multiplying with 1 / abs(d), which overflows here.
        d = d * 2.0**1022
    phase = d / abs(d)
    return float(np.max(np.abs(v - phase * np.eye(v.shape[0]))))
