"""Reconstruction of unitary/antiunitary symmetry operators from ray maps.

A symmetry of a quantum system acts on rays (one-dimensional subspaces) of a
finite-dimensional complex Hilbert space.  Given only black-box access to such
a ray map, this package reconstructs the operator behind it, classifies the
operator as linear or antilinear, measures how far the map deviates from the
hypotheses that make the reconstruction exact (orthogonality preservation and
transition-probability invariance), and verifies that the reconstructed
operator reproduces the map.  This is Wigner's unitary-antiunitary theorem in
executable form.
"""

from .conformance import CHECK_NAMES, run_full_conformance
from .errors import (
    CrossTalk,
    DegenerateProbe,
    DimensionMismatch,
    ImagesNotOrthogonal,
    IncompleteImage,
    NotWignerLike,
    OperatorFileError,
    RaySymError,
    SingularMatrix,
    SliceDegenerate,
    ZeroVector,
)
from .oracles import (
    CheckResult,
    ConformanceReport,
    RayMapOracle,
    SymmetryOperator,
    check_orthogonality_preservation,
    general_induced_map,
    induced_map,
    random_unitary,
)
from .rays import (
    DEFAULT_TOLERANCES,
    Ray,
    Tolerances,
    canonical_ray,
)
from .reconstruction import (
    DEFAULT_PROBE_GRID,
    BasisImages,
    ProbeResult,
    ReconstructionResult,
    classify_automorphism,
    fix_phases,
    gauge_residual,
    map_basis,
    probe_automorphism,
    reconstruct,
    slice_coordinates,
    verify_reproduction,
)

__version__ = "0.1.0"

__all__ = [
    "BasisImages",
    "CHECK_NAMES",
    "CheckResult",
    "ConformanceReport",
    "CrossTalk",
    "DEFAULT_PROBE_GRID",
    "DEFAULT_TOLERANCES",
    "DegenerateProbe",
    "DimensionMismatch",
    "ImagesNotOrthogonal",
    "IncompleteImage",
    "NotWignerLike",
    "OperatorFileError",
    "ProbeResult",
    "Ray",
    "RayMapOracle",
    "RaySymError",
    "ReconstructionResult",
    "SingularMatrix",
    "SliceDegenerate",
    "SymmetryOperator",
    "Tolerances",
    "ZeroVector",
    "canonical_ray",
    "check_orthogonality_preservation",
    "classify_automorphism",
    "fix_phases",
    "gauge_residual",
    "general_induced_map",
    "induced_map",
    "map_basis",
    "probe_automorphism",
    "random_unitary",
    "reconstruct",
    "run_full_conformance",
    "slice_coordinates",
    "verify_reproduction",
]
