"""Rays of C^n: canonical representatives, stacks of them, transition probabilities.

The transition probability between two rays r, s with generators e, f is

    u(r, s) = <e,f><f,e> / (<e,e><f,f>)

which is independent of the generators and lies in [0, 1].  Orthogonality of
rays means u(r, s) = 0 up to tolerance.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DimensionMismatch, ZeroVector

#: Modulus threshold for picking the phase-pivot component of a unit vector.
PIVOT_TOL = 1e-9

#: Fewest trials per block of the sampled checks (see ``sampled_maxima``).
SAMPLE_BLOCK = 32

#: Trials times dimension per block of the sampled checks.
_SAMPLE_BUDGET = 4096


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances, each strictly between 0 and 1e-2 (else ValueError).

    A field that is not a real number raises TypeError naming it and its type.
    orth_tol bounds what counts as orthogonal, in the unit each reader compares:
    transition probabilities (and their drift) in map_basis and the sampled
    checks; amplitudes in the slice probes, that is |b_1| and the cross-talk
    |b_j| of a unit image, and the unit-probe magnitude |c_i| = |b_i| / |b_1|.
    recon_tol bounds reconstruction residuals: basis Gram defect, scales,
    classification and gauge.
    """

    orth_tol: float = 1e-9
    recon_tol: float = 1e-8

    def __post_init__(self):
        for name in ("orth_tol", "recon_tol"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
            if not 0.0 < value < 1e-2:
                raise ValueError(f"{name} must lie strictly between 0 and 1e-2, got {value}")


DEFAULT_TOLERANCES = Tolerances()


#: Longest vector that ``Ray(v)`` first checks by one scalar norm of its parts.
#: Timed against ``_top_exponent`` on one vector at a time, the norm takes 0.45-0.6x
#: its time at 2-8 components, 0.73x at 12, 0.83x at 16, 0.93x at 20 and 1.03-1.14x
#: at 24-32.
_SCALAR_CHECK_MAX = 16


class Ray:
    """Canonical unit representative of a one-dimensional subspace of C^n.

    ``Ray(v)`` keeps a private copy of any nonzero finite 1-d vector, at any
    scale.  It raises ValueError for anything else, and ZeroVector when every
    component is exactly zero.  The read-only ``rep``, made on first use, scales
    every real and imaginary part by the power of two that brings the largest
    into [0.5, 1), normalizes, and rotates the global phase so the first
    component of modulus > PIVOT_TOL is real and positive.  Two vectors generate
    one ray exactly when their reps agree.  ``rep`` is invariant (within 1e-12)
    under complex scaling of ``v``, and bit for bit under exact power-of-two
    scaling; ``canonical_rays`` and concurrent first reads give the same bits.
    """

    __slots__ = ("_rep", "_pending", "_dim")

    def __init__(self, v: np.ndarray):
        v = np.array(v, dtype=np.complex128, order="C")  # the private copy
        if v.ndim != 1 or v.size == 0:
            raise ValueError("expected a nonempty 1-d vector")
        n = len(v)
        # A norm strictly between 0 and inf passes only valid vectors; _top_exponent
        # decides on the rest: zero, NaN or inf parts, or a norm that overflows.
        if n > _SCALAR_CHECK_MAX or not 0.0 < math.hypot(*v.view(np.float64).tolist()) < math.inf:
            _top_exponent(v)
        self._pending = v
        self._dim = n
        self._rep = None

    @classmethod
    def _from_canonical(cls, rep: np.ndarray) -> "Ray":
        """Wrap a read-only row of ``canonical_rays`` output, with no second pass."""
        ray = object.__new__(cls)
        ray._pending = ray._rep = rep
        ray._dim = len(rep)
        return ray

    @property
    def rep(self) -> np.ndarray:
        """The canonical representative (read-only array)."""
        rep = self._rep
        if rep is None:
            rep = self._rep = _canonical_row(self._pending)
        return rep

    # A C-level getter, as every oracle ask reads dim twice.
    dim = property(operator.attrgetter("_dim"), doc="Length of the vector (read-only).")

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


def canonical_rays(v: np.ndarray) -> np.ndarray:
    """Canonical representatives of the rays generated by the rows of a (k, n) stack.

    Row j of the read-only result is ``Ray(v[j]).rep`` bit for bit.  Raises
    ValueError unless ``v`` is 2-d with nonempty rows, and, at the first row
    that is exactly zero or not finite, what ``Ray`` raises for that row.
    """
    v = np.ascontiguousarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError("expected a 2-d stack of nonempty vectors")
    return _canonical_row(v[0])[None] if len(v) == 1 else _canonical_rows(_prescaled_rows(v))


def _prescaled_rows(v: np.ndarray) -> np.ndarray:
    """A new copy of a C-contiguous (k, n) stack, each row checked and prescaled as ``Ray`` does."""
    parts = v.view(np.float64)
    # Row maxima, the same bits either way: a max is exact, and both propagate
    # NaN.  max(axis=1) runs numpy's inner loop once per row, so up to dim 16
    # a fold down the columns of a transposed copy is cheaper; past it the copy
    # costs more.  Timed on this function at the benchmark's stack shapes, the
    # fold takes 0.5-0.8x the time at dims 8 and 16 on 16-800 rows (1.1-1.3x
    # on fewer), 1.0-1.1x at dim 32 and 1.2-1.8x at dims 64-256.
    if parts.shape[1] <= 32:
        top = np.maximum.reduce(np.abs(parts.T, order="C"))
    else:
        top = np.abs(parts).max(axis=1)
    # NaN fails both comparisons, so this range check passes exactly the valid
    # stacks; the initial values let it pass an empty one.
    if not (top.min(initial=math.inf) > 0.0 and top.max(initial=0.0) < math.inf):
        rejected = ~(np.isfinite(top) & (top > 0.0))
        _top_exponent(v[rejected.argmax()])  # raises ZeroVector or ValueError for this row
    return np.ldexp(parts, -np.frexp(top)[1][:, None]).view(np.complex128)


def _canonical_rows(w: np.ndarray) -> np.ndarray:
    """``canonical_rays`` after the prescale: norm, pivot and phase rotation of each row."""
    norm = np.sqrt(np.vecdot(w.real, w.real) + np.vecdot(w.imag, w.imag))  # as np.linalg.norm
    rep = w / norm[:, None]
    # Each step mirrors Ray, so that rows agree bit for bit: np.hypot is Ray's scalar
    # abs() (np.abs of a complex array may differ in the last bit), only a first
    # modulus above 2 * PIVOT_TOL skips the scan, and the product is out of place
    # as in Ray (an in-place 1 x 1 product can round differently).
    pivot = np.s_[:, 0]
    entry = rep[pivot]
    modulus = np.hypot(entry.real, entry.imag)
    if modulus.min(initial=1.0) <= 2.0 * PIVOT_TOL:
        scan = np.flatnonzero(modulus <= 2.0 * PIVOT_TOL)
        column = np.zeros(len(rep), dtype=np.intp)
        column[scan] = (np.abs(rep[scan]) > PIVOT_TOL).argmax(axis=1)
        pivot = (np.arange(len(rep)), column)
        entry = rep[pivot]
        modulus = np.hypot(entry.real, entry.imag)
    rep = rep * (entry.conj() / modulus)[:, None]
    entry = rep[pivot]
    rep[pivot] = np.hypot(entry.real, entry.imag)
    rep.flags.writeable = False
    return rep


def ray_function(r: Ray, s: Ray) -> float:
    """Transition probability u(r, s) of two Rays (else TypeError): one row of ``ray_functions``."""
    for x in (r, s):
        if not isinstance(x, Ray):
            raise TypeError(f"ray_function expects Rays, got {type(x).__name__}")
    return float(ray_functions(r.rep[None], s.rep[None])[0])


def ray_functions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise u(a[j], b[j]) of the rays two (k, n) stacks generate, clipped into [0, 1].

    Each entry has the bits of the formula on its two rows with ``np.vdot``.
    Raises DimensionMismatch when the row lengths differ.
    """
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"rays have dimensions {a.shape[1]} and {b.shape[1]}")
    ip = np.vecdot(a, b)  # np.vdot's conjugated BLAS dot, row by row
    num = ip.real * ip.real + ip.imag * ip.imag
    den = np.vecdot(a, a).real * np.vecdot(b, b).real
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
    max(SAMPLE_BLOCK, _SAMPLE_BUDGET // dim) trials, the last one the rest, and
    is released before the next is drawn.  It is the (k, per_trial, dim) stack
    of the states that k trials of ``per_trial`` ``sample_state`` calls draw, so
    the block size changes no number.  ``score`` may draw from ``rng`` after its
    block, and returns a tuple of floats; each maximum starts at 0.0.
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
    """The states of a (k, 2 * per_trial, dim) normal draw, paired as in ``sample_state``."""
    return (z[:, 0::2] + 1j * z[:, 1::2]) / np.sqrt(2.0)
