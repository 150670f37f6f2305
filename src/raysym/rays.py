"""Complex vectors and rays of C^n.

A ray is a one-dimensional subspace of C^n, stored here as a canonical unit
representative: the vector is normalized and rotated so that its first
component of significant modulus is real and positive.  ``Ray(v)`` and its
alias ``canonical_ray(v)`` accept any nonzero finite vector, at any scale,
subnormal components included; only a vector whose components are all
exactly zero raises ZeroVector.  ``Ray(v)`` validates ``v`` at once and keeps
a private copy, and canonicalizes on first use of the representative, so
every Ray reads as canonical.  With that convention two vectors generate the
same ray exactly when their canonical representatives agree componentwise.
``canonical_rays`` applies the same recipe to every row of a (k, n) stack
and ``ray_functions`` scores stacks row by row; the sampled checks use them
to handle a block of trials per array operation, and canonicalize a block's
oracle answers in one such pass.  ``ray_function`` scores one pair as a
one-row stack.

The transition probability between two rays r, s with generators e, f is

    u(r, s) = <e,f><f,e> / (<e,e><f,f>)

which is independent of the choice of generators and always lies in [0, 1].
Orthogonality of rays means u(r, s) = 0 up to tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DimensionMismatch, ZeroVector

#: Modulus threshold for picking the phase-pivot component of a unit vector.
PIVOT_TOL = 1e-9

#: Fewest trials per block of the sampled checks.  A block holds
#: max(SAMPLE_BLOCK, _SAMPLE_BUDGET // dim) trials: 200 trials at dims up to 16
#: draw one block, dims of 128 and more keep 32-trial blocks.  That bounds
#: the checks' working memory whatever the trial count, and spends each
#: block's fixed cost of array calls on as many trials as the budget allows.
SAMPLE_BLOCK = 32

#: Trials times dimension per block of the sampled checks.
_SAMPLE_BUDGET = 4096


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the reconstruction pipeline.

    orth_tol bounds what still counts as orthogonal, in the unit each check
    reads: map_basis and the two sampled checks compare it with transition
    probabilities (and their drift); the slice probes compare it with
    amplitudes: |b_1| and the cross-talk |b_j| of a unit image in
    slice_coordinates, and the unit-probe magnitude |c_i| = |b_i| / |b_1| in
    fix_phases.
    recon_tol bounds reconstruction residuals (basis Gram defect, scales,
    classification, gauge).
    """

    orth_tol: float = 1e-9
    recon_tol: float = 1e-8

    def __post_init__(self):
        for name in ("orth_tol", "recon_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1e-2:
                raise ValueError(f"{name} must lie strictly between 0 and 1e-2, got {value}")


DEFAULT_TOLERANCES = Tolerances()


#: Builds a Ray with no ``__init__``, for the private wraps below.
_new = object.__new__


class Ray:
    """Canonical unit representative of a one-dimensional subspace of C^n.

    ``Ray(v)`` accepts any nonzero finite 1-d vector ``v``.  The
    representative ``rep`` is ``v`` normalized to unit norm, with the global
    phase rotated so the first component of modulus > PIVOT_TOL is real and
    positive.  It is invariant (within 1e-12) under scaling of ``v`` by any
    nonzero complex number, and canonicalization is idempotent at the same
    tolerance.

    ``Ray(v)`` validates at once: it raises ValueError for input that is not
    a nonempty finite 1-d vector, and ZeroVector when every component of
    ``v`` is exactly zero.  It keeps a private copy of ``v``, so changing
    ``v`` afterwards changes nothing, and canonicalizes on first use of
    ``rep`` (or of the repr); ``dim`` is known at once.
    A pending vector is checked and prescaled where it is canonicalized:
    alone, or with a stack of oracle answers in one ``canonical_rays`` pass,
    which gives the same bits.  So a matrix oracle's unchecked answer raises
    ``Ray(v)``'s errors there.  A Ray is canonical once ``_rep`` is set; the
    vector it was made from stays in ``_pending``.  Concurrent first reads of
    one Ray may each canonicalize it, and they store the same bits, so every
    read sees the same bytes.
    """

    __slots__ = ("_rep", "_pending")

    def __init__(self, v: np.ndarray):
        v = np.array(v, dtype=np.complex128, order="C")  # the private copy
        if v.ndim != 1 or v.size == 0:
            raise ValueError("expected a nonempty 1-d vector")
        _top_exponent(v)
        self._pending = v
        self._rep = None

    @classmethod
    def _from_canonical(cls, rep: np.ndarray) -> "Ray":
        """Wrap a read-only row of ``canonical_rays`` output, with no second pass."""
        ray = _new(cls)
        ray._pending = ray._rep = rep
        return ray

    @classmethod
    def _from_answer(cls, w: np.ndarray) -> "Ray":
        """Wrap a fresh contiguous 1-d complex128 vector, pending, with no copy and no check."""
        ray = _new(cls)
        ray._pending = w
        ray._rep = None
        return ray

    @property
    def rep(self) -> np.ndarray:
        """The canonical representative (read-only array)."""
        rep = self._rep
        if rep is None:
            rep = self._rep = _canonical_row(self._pending)
        return rep

    @property
    def dim(self) -> int:
        return len(self._pending)

    def __repr__(self) -> str:
        return f"Ray({np.array2string(self.rep, precision=6, suppress_small=True)})"


def _top_exponent(v: np.ndarray) -> int:
    """``frexp`` exponent of a contiguous vector's largest part; raises what ``Ray`` raises."""
    # argmax stops at the first NaN, so a NaN part still reads as top.
    mags = np.abs(v.view(np.float64))
    top = float(mags[mags.argmax()])
    if not math.isfinite(top):
        raise ValueError("vector components must be finite")
    if top == 0.0:
        raise ZeroVector("cannot canonicalize a vector of norm 0.0")
    return math.frexp(top)[1]


def _canonical_row(w: np.ndarray) -> np.ndarray:
    """``Ray``'s recipe on a pending vector, out of place: check, prescale, norm, pivot, phase."""
    # Scaling every real and imaginary part by the exact power of two that
    # brings the largest into [0.5, 1) keeps the norm from overflowing or
    # underflowing; in range it changes no bit (nor zero sign) of w / ||w||.
    w = np.ldexp(w.view(np.float64), -_top_exponent(w)).view(np.complex128)
    re, im = w.real, w.imag
    # The norm is what np.linalg.norm computes: two strided real dots.
    rep = w / math.sqrt(re.dot(re) + im.dot(im))
    # A unit vector has a component of modulus >= 1/sqrt(n) > PIVOT_TOL.
    # The scalar abs may differ from the array abs in the last bit, so
    # only a first modulus well above PIVOT_TOL skips the scan.
    modulus = abs(rep[0])
    pivot = 0
    if not modulus > 2.0 * PIVOT_TOL:
        pivot = int((np.abs(rep) > PIVOT_TOL).argmax())
        modulus = abs(rep[pivot])
    rep = rep * (rep[pivot].conjugate() / modulus)
    # Exact by construction; removes the rounding-level imaginary residue.
    rep[pivot] = abs(rep[pivot])
    rep.setflags(write=False)
    return rep


def canonical_ray(v: np.ndarray) -> Ray:
    """Canonicalize a nonzero finite vector into the ray it generates: ``Ray(v)``."""
    return Ray(v)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``np.dot`` of two (k, n) stacks.

    The stacked matmul makes one BLAS dot per row, the call ``np.dot`` and
    ``np.vdot`` make, so each entry is theirs on the two rows.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _vdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``np.vdot`` of two (k, n) stacks."""
    return _dots(a.conj(), b)


def canonical_rays(v: np.ndarray) -> np.ndarray:
    """Canonical representatives of the rays generated by the rows of a (k, n) stack.

    Row j of the read-only result is ``Ray(v[j]).rep``: the same power-of-two
    prescale, norm (two real dots per row), pivot, phase rotation and pivot
    modulus, one array operation per step for the whole stack.  A one-row
    stack takes ``Ray``'s own scalar recipe instead, the same bits at a
    fraction of the fixed cost of the array pass, so a caller with one row
    needs no path of its own.  Raises ValueError for a stack that is not 2-d
    with nonempty rows; at the first row that is exactly zero or not finite,
    it raises what ``Ray`` raises for that row.
    """
    v = np.ascontiguousarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError("expected a 2-d stack of nonempty vectors")
    return _canonical_row(v[0])[None] if len(v) == 1 else _canonical_rows(_prescaled_rows(v))


def _prescaled_rows(v: np.ndarray) -> np.ndarray:
    """A new copy of a C-contiguous (k, n) stack, each row checked and prescaled as ``Ray`` does."""
    parts = v.view(np.float64)
    top = np.abs(parts).max(axis=1)
    rejected = ~(np.isfinite(top) & (top > 0.0))
    if rejected.any():
        _top_exponent(v[rejected.argmax()])  # raises ZeroVector or ValueError for this row
    return np.ldexp(parts, -np.frexp(top)[1][:, None]).view(np.complex128)


def _canonical_rows(w: np.ndarray) -> np.ndarray:
    """``canonical_rays`` after the prescale: norm, pivot and phase rotation of each row."""
    norm = np.sqrt(_dots(w.real, w.real) + _dots(w.imag, w.imag))  # as np.linalg.norm
    rep = w / norm[:, None]
    rows = np.arange(rep.shape[0])
    pivot = (np.abs(rep) > PIVOT_TOL).argmax(axis=1)
    entry = rep[rows, pivot]
    # Each step mirrors Ray so that rows agree bit for bit: np.hypot is the
    # modulus Ray's scalar abs() computes (np.abs of a complex array may
    # differ in the last bit), and the product is out of place as in Ray (an
    # in-place product of a 1 x 1 stack takes another numpy loop, which can
    # round differently).
    rep = rep * (entry.conj() / np.hypot(entry.real, entry.imag))[:, None]
    entry = rep[rows, pivot]
    rep[rows, pivot] = np.hypot(entry.real, entry.imag)
    rep.flags.writeable = False
    return rep


def _canonical_answers(ask, rows: np.ndarray, dim: int) -> np.ndarray:
    """Canonical (k, dim) stack of the answers ``ask`` gives to the k canonical ``rows``.

    ``ask`` gets each row in order, wrapped as a Ray with no copy, and row j
    of the result is the j-th answer's ``rep`` bit for bit.  Each answer's
    vector (its ``rep``, or the vector still pending) is copied into the
    stack as it arrives, so no answer outlives the next ask; the pending
    rows are then checked, prescaled and canonicalized together, and the
    first bad one raises what ``Ray`` raises.  The answers themselves stay
    pending.
    """
    k = rows.shape[0]
    stack = np.empty((k, dim), dtype=np.complex128)
    pending = []
    wrap = Ray._from_canonical
    for j, row in enumerate(rows):
        answer = ask(wrap(row))
        rep = answer._rep
        if rep is None:
            pending.append(j)
            rep = answer._pending
        stack[j] = rep
    if len(pending) == k:
        return canonical_rays(stack)
    if pending:
        stack[pending] = canonical_rays(stack[pending])
    stack.flags.writeable = False
    return stack


def ray_function(r: Ray, s: Ray) -> float:
    """Transition probability u(r, s) between two rays.

    Symmetric in its arguments, independent of the representative choice, and
    clipped into [0, 1] to absorb last-bit rounding of the Cauchy-Schwarz
    bound: the one row of ``ray_functions`` on the two representatives.
    Raises TypeError, naming the type, for an argument that is not a Ray.
    """
    for x in (r, s):
        if not isinstance(x, Ray):
            raise TypeError(f"ray_function expects Rays, got {type(x).__name__}")
    return float(ray_functions(r.rep[None], s.rep[None])[0])


def ray_functions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise transition probabilities u(a[j], b[j]) of two (k, n) stacks.

    Entry j is u of the rays with generators a[j] and b[j], clipped into
    [0, 1].  Each inner product is one BLAS dot per row, the call ``np.vdot``
    makes, so an entry equals the scalar formula on those two rows bit for bit.
    """
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"rays have dimensions {a.shape[1]} and {b.shape[1]}")
    ip = _vdots(a, b)
    num = ip.real * ip.real + ip.imag * ip.imag
    den = _vdots(a, a).real * _vdots(b, b).real
    return np.clip(num / den, 0.0, 1.0)


def sample_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one standard-complex-normal vector from an existing generator."""
    return (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2.0)


def sample_ray(dim: int, rng: np.random.Generator) -> Ray:
    """Haar-uniform random ray."""
    return canonical_ray(sample_state(dim, rng))


def sampled_maxima(trials: int, per_trial: int, dim: int, seed: int, score) -> list[float]:
    """Running maxima of ``score(block, rng)`` over the sampled blocks of ``trials`` trials.

    ``rng`` is ``np.random.default_rng(seed)``.  A block holds
    max(SAMPLE_BLOCK, _SAMPLE_BUDGET // dim) trials, the last one the rest.
    Each block is a (k, per_trial, dim) stack from one
    ``rng.standard_normal((k, 2 * per_trial, dim))`` call: the normals that k
    trials of ``per_trial`` consecutive ``sample_state`` calls draw, in the
    same order, so entry [j, m] equals the m-th state of trial j.
    Consecutive draws continue one stream, so the block size changes no
    number.  ``score`` may draw from ``rng`` after its block, and returns a
    tuple of Python floats; each maximum starts at 0.0.  The next block is
    drawn once ``score`` has returned, and no reference to a scored block
    is kept.
    """
    rng = np.random.default_rng(seed)
    step = max(SAMPLE_BLOCK, _SAMPLE_BUDGET // dim)
    worst = repeat(0.0)
    for start in range(0, trials, step):
        shape = (min(step, trials - start), 2 * per_trial, dim)
        # The block lives only for the score call: the next draw finds it released.
        worst = [max(w, x) for w, x in zip(worst, score(_states(rng.standard_normal(shape)), rng))]
    return worst


def _states(z: np.ndarray) -> np.ndarray:
    """The states of a (k, 2 * per_trial, dim) normal draw, paired as in ``sample_state``.

    The one site of the complex-normal formula for a draw of many states;
    ``random_unitary`` takes its Ginibre matrix from it too.
    """
    return (z[:, 0::2] + 1j * z[:, 1::2]) / np.sqrt(2.0)
