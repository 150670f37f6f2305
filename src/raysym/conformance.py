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
    check_orthogonality_preservation,
    induced_map,
)
from .rays import DEFAULT_TOLERANCES, Tolerances
from .reconstruction import (
    DEFAULT_PROBE_GRID,
    AutomorphismKind,
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
    """Kind agreement plus gauge residual against the generating operator."""
    if true_op.dim != recon.operator.dim:
        raise ValueError(
            f"operator dimensions differ: {true_op.dim} versus {recon.operator.dim}"
        )
    kind_matches = recon.operator.antiunitary == true_op.antiunitary
    residual = gauge_residual(recon.operator.matrix, true_op.matrix)
    return CheckResult(
        name="round-trip",
        passed=kind_matches and residual <= tol.recon_tol,
        worst_residual=residual,
        trials=0,
        seed=0,
    )


def _failed(name: str, seed: int) -> CheckResult:
    return CheckResult(name=name, passed=False, worst_residual=float("inf"), trials=0, seed=seed)


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
    inputs reproduce the report exactly.
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
    entries.append(
        CheckResult(
            name="basis-completeness",
            passed=basis_accepted and basis_defect <= tol.recon_tol,
            worst_residual=float(basis_defect),
            trials=0,
            seed=seed,
        )
    )

    if recon is None:
        entries.append(_failed("automorphism-laws", seed))
        entries.append(_failed("scales-unit", seed))
        entries.append(_failed("round-trip", seed))
        entries.append(_failed("reproduction", seed))
        return ConformanceReport(dim=dim, seed=seed, entries=tuple(entries), error=error)

    try:
        probe = probe_automorphism(oracle, recon.basis, recon.scales, DEFAULT_PROBE_GRID, 1, tol)
        pointwise = 0.0
        for z, f_z in probe.values:
            expected = z if recon.kind is AutomorphismKind.IDENTITY else z.conjugate()
            pointwise = max(pointwise, abs(f_z - expected))
        law_residual = max(
            probe.additivity_residual, probe.multiplicativity_residual, pointwise
        )
        entries.append(
            CheckResult(
                name="automorphism-laws",
                passed=law_residual <= AUTOMORPHISM_LAW_TOL,
                worst_residual=law_residual,
                trials=0,
                seed=seed,
            )
        )
    except RaySymError as err:
        error = str(err)
        entries.append(_failed("automorphism-laws", seed))

    entries.append(
        CheckResult(
            name="scales-unit",
            passed=recon.max_scale_deviation <= tol.recon_tol,
            worst_residual=recon.max_scale_deviation,
            trials=0,
            seed=seed,
        )
    )
    entries.append(check_round_trip(true_op, recon, tol))
    reproduction = verify_reproduction(
        recon.operator, oracle, trials=REPRODUCTION_TRIALS, seed=seed + 2
    )
    entries.append(
        CheckResult(
            name="reproduction",
            passed=reproduction <= tol.recon_tol,
            worst_residual=reproduction,
            trials=REPRODUCTION_TRIALS,
            seed=seed + 2,
        )
    )
    return ConformanceReport(dim=dim, seed=seed, entries=tuple(entries), error=error)
