"""Theorem-level conformance suite.

Packages the hypotheses (orthogonality preservation, transition-probability
invariance) and the four reconstruction guarantees (completeness of the
basis images, automorphism laws, unit scales, round-trip equality up to a
global phase, reproduction of the ray map) as named checks that aggregate
into one report.

Hypothesis violations detected inside the reconstruction pipeline are not
exceptions at this level: invalid oracles are first-class inputs, so the
affected entries are marked failed (residual = inf) and the report records
which stage aborted.  Errors in building the oracle itself (singular matrix,
bad arguments) still propagate.
"""

from __future__ import annotations

from .errors import ImagesNotOrthogonal, RaySymError
from .oracles import (
    CheckResult,
    ConformanceReport,
    RayMapOracle,
    SymmetryOperator,
    _entry,
    check_orthogonality_preservation,
    induced_map,
)
from .rays import DEFAULT_TOLERANCES, Tolerances
from .reconstruction import (
    ReconstructionResult,
    gauge_residual,
    probe_automorphism,
    reconstruct,
    verify_reproduction,
)

#: Residual bound for the pointwise automorphism-law checks.
AUTOMORPHISM_LAW_TOL = 1e-10

#: Random rays the reproduction check maps through operator and oracle.
REPRODUCTION_TRIALS = 100

#: Declared entry order of a full conformance report.
CHECK_NAMES = (
    "orthogonality-preservation",
    "ray-function-invariance",
    "basis-completeness",
    "automorphism-laws",
    "scales-unit",
    "round-trip",
    "reproduction",
)


def check_ray_function_invariance(
    oracle: RayMapOracle,
    trials: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CheckResult:
    """Worst drift |u(image pair) - u(source pair)| over random ray pairs.

    This is the u-drift half of check_orthogonality_preservation with the
    same arguments, so one sample serves both hypothesis checks.
    """
    report = check_orthogonality_preservation(oracle, trials, seed, tol)
    return report.entry("ray-function-invariance")


def check_round_trip(
    true_op: SymmetryOperator,
    recon: ReconstructionResult,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CheckResult:
    """Kind agreement plus gauge residual against the generating operator.

    Operators of different dimensions raise DimensionMismatch.
    """
    kind_matches = recon.operator.antiunitary == true_op.antiunitary
    residual = gauge_residual(recon.operator.matrix, true_op.matrix)
    return _entry("round-trip", residual, tol.recon_tol, 0, kind_matches)


def run_full_conformance(
    true_op: SymmetryOperator,
    seed: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
    invariance_trials: int = 200,
) -> ConformanceReport:
    """Run every check against the ray map induced by an operator.

    Both hypothesis entries come from one check_orthogonality_preservation
    sample, and the basis images are mapped once, inside reconstruct.
    basis-completeness reads the Gram defect from the result, or from the
    error's ``basis_gram_defect`` when a stage after map_basis raised.  The
    hypothesis checks draw invariance_trials ray pairs from seed, and
    reproduction draws REPRODUCTION_TRIALS rays from seed+2, so identical
    inputs reproduce the report exactly.  Entries come in CHECK_NAMES order;
    one that a failed stage did not reach fails with residual inf, 0 trials
    and the run's seed.  A reached round-trip reports seed 0.
    """
    dim = true_op.dim
    if dim < 2:
        raise ValueError(f"conformance requires dimension at least 2, got {dim}")
    oracle = induced_map(true_op)
    entries = list(check_orthogonality_preservation(oracle, invariance_trials, seed, tol).entries)

    error: str | None = None
    recon: ReconstructionResult | None = None
    basis_accepted = True
    try:
        recon = reconstruct(oracle, dim, tol)
        basis_defect = recon.basis.gram_defect
    except RaySymError as err:
        error = str(err)
        basis_defect = err.basis_gram_defect
        if basis_defect is None:  # map_basis itself rejected the images
            basis_accepted = False
            basis_defect = err.u_value if isinstance(err, ImagesNotOrthogonal) else float("inf")
    entries.append(_entry("basis-completeness", basis_defect, tol.recon_tol, seed, basis_accepted))

    if recon is not None:
        try:
            probe = probe_automorphism(oracle, recon.basis, tol=tol)
            conj = recon.operator.antiunitary
            residuals = [probe.additivity_residual, probe.multiplicativity_residual]
            residuals += [abs(f_z - (z.conjugate() if conj else z)) for z, f_z in probe.values]
            entries.append(_entry("automorphism-laws", max(residuals), AUTOMORPHISM_LAW_TOL, seed))
        except RaySymError as err:
            error = str(err)
        entries.append(_entry("scales-unit", recon.max_scale_deviation, tol.recon_tol, seed))
        entries.append(check_round_trip(true_op, recon, tol))
        trials = REPRODUCTION_TRIALS
        worst = verify_reproduction(recon.operator, oracle, trials, seed + 2)
        entries.append(_entry("reproduction", worst, tol.recon_tol, seed + 2, trials=trials))

    found = {entry.name: entry for entry in entries}
    entries = [found.get(n) or _entry(n, float("inf"), 0.0, seed, False) for n in CHECK_NAMES]
    return ConformanceReport(dim=dim, seed=seed, entries=tuple(entries), error=error)
