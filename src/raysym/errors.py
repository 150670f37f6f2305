"""Exception hierarchy for ray-map reconstruction.

Every library error derives from :class:`RaySymError`.  An error raised in
map_basis, fix_phases or classify_automorphism, whoever called it, carries a
``stage`` attribute naming that stage and, once the basis images were
accepted, their ``basis_gram_defect``.
"""

from __future__ import annotations


class RaySymError(Exception):
    """Base class for all library errors."""

    #: Name of the pipeline stage that raised, when applicable.
    stage: str | None = None

    #: Gram defect of the basis images, when a stage after map_basis raised.
    basis_gram_defect: float | None = None

    def __str__(self) -> str:
        base = super().__str__()
        if self.stage:
            return f"[stage {self.stage}] {base}"
        return base


class ZeroVector(RaySymError):
    """A vector whose components are all exactly zero cannot generate a ray."""


class DimensionMismatch(RaySymError):
    """Operands live in spaces of different dimension."""


class SingularMatrix(RaySymError):
    """Matrix is singular or too ill-conditioned to induce an invertible ray map."""


class ImagesNotOrthogonal(RaySymError):
    """Basis-ray images overlap: the oracle violates orthogonality preservation.

    Carries the offending index pair and the transition probability between
    the two images.
    """

    def __init__(self, i: int, j: int, u_value: float):
        super().__init__(
            f"images of basis rays {i} and {j} are not orthogonal "
            f"(transition probability {u_value:.3e})"
        )
        self.i = i
        self.j = j
        self.u_value = u_value


class IncompleteImage(RaySymError):
    """Basis-ray images are not complete: their Gram matrix is beyond recon_tol of the identity."""


class SliceDegenerate(RaySymError):
    """A probe image is orthogonal to the reference axis; the slice intersection is undefined."""


class CrossTalk(RaySymError):
    """A probe image has support outside the two-axis plane it must lie in."""

    def __init__(self, index: int, leak_index: int, magnitude: float):
        super().__init__(
            f"probe on axis {index} leaks onto axis {leak_index} "
            f"(component magnitude {magnitude:.3e})"
        )
        self.index = index
        self.leak_index = leak_index
        self.magnitude = magnitude


class DegenerateProbe(RaySymError):
    """The unit probe coordinate vanished; phases cannot be fixed."""


class NotWignerLike(RaySymError):
    """The induced coordinate map matches neither the identity nor conjugation."""

    def __init__(self, f_value: complex):
        super().__init__(
            f"probe of the imaginary unit returned {f_value:.6g}, "
            "not close to i or -i"
        )
        self.f_value = f_value


class OperatorFileError(RaySymError):
    """Operator description file is malformed; message names the failing field."""
