"""Command-line front end.

An operator file is a JSON object with ``dim`` (at least 2), ``kind``
("unitary" or "antiunitary", of unitarity defect at most 1e-8, or "general",
with an optional boolean ``conjugate_first``) and ``matrix``: ``dim`` rows of
``dim`` [re, im] pairs of finite JSON numbers.  Commands print tab-delimited
lines, floats to 17 significant digits.  Exit codes: 0 success /
theorem-conformant, 1 pipeline error, failed conformance or a reader closing
stdout early, 2 diagnostic-only reconstruction, 64 malformed input or usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain, combinations_with_replacement
from pathlib import Path

import numpy as np

from ._text import fmt as _fmt, matrix_lines
from .conformance import INVARIANCE_TRIALS, REPRODUCTION_TRIALS, run_full_conformance
from .errors import OperatorFileError, RaySymError
from .oracles import ConformanceReport, SymmetryOperator, induced_map
from .rays import DEFAULT_TOLERANCES, Tolerances
from .reconstruction import (
    DEFAULT_PROBE_GRID,
    ProbeResult,
    ReconstructionResult,
    fix_phases,
    map_basis,
    probe_automorphism,
    reconstruct,
)

#: Unitarity defect accepted when loading kinds "unitary" and "antiunitary".
LOAD_UNITARY_TOL = 1e-8

_KINDS = ("unitary", "antiunitary", "general")

#: Largest --trials accepted.  One trial of the preservation check costs tens of
#: microseconds, so a million already takes tens of seconds; more is a typo.
MAX_TRIALS = 1_000_000

_NUMBER_TYPES = {int, float}


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 64."""


def _require_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise OperatorFileError(f"{field}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise OperatorFileError(
            f"{field}: out of double range, got an integer of {len(str(abs(value)))} digits"
        ) from None
    if not math.isfinite(number):
        raise OperatorFileError(f"{field}: must be finite, got {value!r}")
    return number


def _raise_first_fault(rows: list, dim: int) -> None:
    """Raise OperatorFileError naming the first faulty row or entry, in row-major order."""
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise OperatorFileError(f"matrix: row {i + 1} must have {dim} entries")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise OperatorFileError(
                    f"matrix: entry ({i + 1}, {j + 1}) must be an [re, im] pair"
                )
            _require_number(entry[0], f"matrix: entry ({i + 1}, {j + 1}) re")
            _require_number(entry[1], f"matrix: entry ({i + 1}, {j + 1}) im")


def _parse_matrix(rows, dim: int) -> np.ndarray:
    """The ``matrix`` field, bit for bit as written; OperatorFileError names its first fault."""
    if not isinstance(rows, list) or len(rows) != dim:
        raise OperatorFileError(f"matrix: expected {dim} rows")
    try:
        if all(
            set(map(type, chain.from_iterable(row))) <= _NUMBER_TYPES
            and len(row) == dim
            and set(map(len, row)) == {2}
            for row in rows
        ):
            parts = chain.from_iterable(chain.from_iterable(rows))
            pairs = np.fromiter(parts, np.float64, 2 * dim * dim)
            if np.isfinite(pairs).all():
                return pairs.view(np.complex128).reshape(dim, dim)
    except (TypeError, OverflowError):
        pass  # not iterable pairs, or an integer beyond double range
    _raise_first_fault(rows, dim)
    raise AssertionError("matrix: the whole-array read refused a field with no fault")


def load_operator_file(path: str) -> SymmetryOperator:
    """Parse and validate an operator file; OperatorFileError names the failing field."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise OperatorFileError(f"input: cannot read {path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise OperatorFileError(f"input: cannot read {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise OperatorFileError(f"input: not valid JSON: {err}") from err
    except (ValueError, RecursionError) as err:
        # an integer beyond Python's digit limit, or nesting beyond its recursion limit
        raise OperatorFileError(f"input: cannot read JSON: {err}") from err
    if not isinstance(data, dict):
        raise OperatorFileError("input: top level must be an object")

    allowed = {"dim", "kind", "matrix", "conjugate_first"}
    for key in data:
        if key not in allowed:
            raise OperatorFileError(f"{key}: unknown field")
    for key in ("dim", "kind", "matrix"):
        if key not in data:
            raise OperatorFileError(f"{key}: missing required field")

    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise OperatorFileError(f"dim: expected an integer, got {dim!r}")
    if dim < 2:
        raise OperatorFileError("dim: dimension must be at least 2")

    kind = data["kind"]
    if kind not in _KINDS:
        raise OperatorFileError(f"kind: must be one of {', '.join(_KINDS)}, got {kind!r}")

    conjugate_first = data.get("conjugate_first", False)
    if "conjugate_first" in data:
        if kind != "general":
            raise OperatorFileError("conjugate_first: only valid for kind \"general\"")
        if not isinstance(conjugate_first, bool):
            raise OperatorFileError(
                f"conjugate_first: expected a boolean, got {conjugate_first!r}"
            )

    matrix = _parse_matrix(data["matrix"], dim)
    antiunitary = kind == "antiunitary" or (kind == "general" and conjugate_first)
    op = SymmetryOperator(matrix=matrix, antiunitary=antiunitary)
    if kind in ("unitary", "antiunitary"):
        defect = op.unitarity_defect()
        if not defect <= LOAD_UNITARY_TOL:  # only a defect shown within the bound passes
            raise OperatorFileError(
                f"matrix: kind \"{kind}\" requires a unitary matrix "
                f"(defect {defect:.3e} exceeds {LOAD_UNITARY_TOL:.0e})"
            )
    return op


def parse_samples(text: str) -> tuple[complex, ...]:
    """Comma-separated complex numbers; accepts i or j for the imaginary unit."""
    samples = []
    for token in text.split(","):
        token = token.strip().replace(" ", "")
        if not token:
            raise UsageError("--samples: empty entry")
        try:
            value = complex(token.replace("i", "j"))
        except ValueError:
            raise UsageError(f"--samples: cannot parse {token!r} as a complex number") from None
        if not np.isfinite(value):
            raise UsageError(f"--samples: {token!r} is not finite")
        samples.append((token, value))
    # The probe also asks a + b and a * b for every pair, a sample with itself included.
    for (s, a), (t, b) in combinations_with_replacement(samples, 2):
        for op, value in (("+", a + b), ("*", a * b)):
            if not np.isfinite(value):
                raise UsageError(f"--samples: {s} {op} {t} is not finite")
    return tuple(value for _, value in samples)


def render_reconstruction(result: ReconstructionResult) -> list[str]:
    """The report's lines; the matrix lines come as one newline-joined string per chunk of rows."""
    op = result.operator
    lines = [
        "report\treconstruction",
        f"dim\t{op.dim}",
        f"status\t{'unitary-valid' if result.unitary_valid else 'diagnostic-only'}",
        f"kind\t{'conjugation' if op.antiunitary else 'identity'}-automorphism",
        f"antiunitary\t{str(op.antiunitary).lower()}",
        f"max-scale-deviation\t{_fmt(result.max_scale_deviation)}",
        f"classification-residual\t{_fmt(result.classification_residual)}",
    ]
    lines += [f"scale\t{i}\t{_fmt(s)}" for i, s in enumerate(result.scales.tolist(), start=1)]
    return lines + matrix_lines(op.matrix)


def render_conformance(report: ConformanceReport) -> list[str]:
    lines = [
        "report\tconformance",
        f"dim\t{report.dim}",
        f"seed\t{report.seed}",
    ]
    for entry in report.entries:
        status = "pass" if entry.passed else "fail"
        lines.append(
            f"check\t{entry.name}\t{status}\t{_fmt(entry.worst_residual)}"
            f"\t{entry.trials}\t{entry.seed}"
        )
    if report.error is not None:
        lines.append(f"error\t{report.error}")
    lines.append(f"overall\t{'pass' if report.passed else 'fail'}")
    return lines


def render_probe(probe: ProbeResult, dim: int, scale: float) -> list[str]:
    lines = [
        "report\tautomorphism-probe",
        f"dim\t{dim}",
        f"index\t{probe.index + 1}",
        f"scale\t{_fmt(scale)}",
    ]
    for z, f_z in probe.values:
        lines.append(f"probe\t{_fmt(z.real)}\t{_fmt(z.imag)}\t{_fmt(f_z.real)}\t{_fmt(f_z.imag)}")
    lines.append(f"additivity-residual\t{_fmt(probe.additivity_residual)}")
    lines.append(f"multiplicativity-residual\t{_fmt(probe.multiplicativity_residual)}")
    return lines


# Each command gets the loaded operator file and the tolerances from main, and
# returns its report's lines and its exit code; main prints them.
def cmd_reconstruct(args: argparse.Namespace, op: SymmetryOperator, tol: Tolerances):
    result = reconstruct(induced_map(op), op.dim, tol)
    return render_reconstruction(result), 0 if result.unitary_valid else 2


def cmd_conformance(args: argparse.Namespace, op: SymmetryOperator, tol: Tolerances):
    if args.trials < 1:
        raise UsageError("--trials: must be at least 1")
    if args.trials > MAX_TRIALS:
        raise UsageError(f"--trials: must be at most {MAX_TRIALS}")
    if args.seed < 0:
        raise UsageError("--seed: must be at least 0")
    report = run_full_conformance(op, seed=args.seed, tol=tol, invariance_trials=args.trials)
    return render_conformance(report), 0 if report.passed else 1


def cmd_probe(args: argparse.Namespace, op: SymmetryOperator, tol: Tolerances):
    if args.index < 2:
        raise UsageError("--index: must be at least 2 (axis 1 is the reference axis)")
    if args.index > op.dim:
        raise UsageError(f"--index: must be at most the operator dimension ({op.dim})")
    samples = DEFAULT_PROBE_GRID if args.samples is None else parse_samples(args.samples)
    oracle = induced_map(op)
    fixed = fix_phases(oracle, map_basis(oracle, op.dim, tol), tol)
    probe = probe_automorphism(oracle, fixed, samples, args.index - 1, tol)
    return render_probe(probe, op.dim, float(fixed.scales[args.index - 1])), 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and reused by later ones."""
    parser = _ArgumentParser(
        prog="raysym",
        description="Reconstruct unitary/antiunitary symmetry operators from ray maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The arguments every command takes; --help lists them first.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="operator description file (JSON)")
    common.add_argument(
        "--tol-orth", type=float, default=DEFAULT_TOLERANCES.orth_tol, metavar="X",
        help="orthogonality tolerance: on transition probabilities in the basis and sampled "
        "checks, on amplitudes in the slice probes (default %(default)g)",
    )
    common.add_argument(
        "--tol-recon", type=float, default=DEFAULT_TOLERANCES.recon_tol, metavar="X",
        help="reconstruction residual and basis Gram-defect tolerance (default %(default)g)",
    )

    p_rec = sub.add_parser(
        "reconstruct", parents=[common], help="reconstruct the operator behind an induced ray map"
    )
    p_rec.set_defaults(func=cmd_reconstruct)

    p_conf = sub.add_parser(
        "conformance", parents=[common], help="run the full hypothesis and assertion check suite"
    )
    p_conf.add_argument(
        "--seed", type=int, default=0, help="master seed for randomized checks (default 0)"
    )
    p_conf.add_argument(
        "--trials", type=int, default=INVARIANCE_TRIALS,
        help=f"ray-pair trials for the two hypothesis checks, 1 to {MAX_TRIALS} "
        f"(default %(default)s); reproduction always maps {REPRODUCTION_TRIALS} rays",
    )
    p_conf.set_defaults(func=cmd_conformance)

    p_probe = sub.add_parser(
        "probe", parents=[common], help="probe the coordinate automorphism pointwise"
    )
    p_probe.add_argument(
        "--samples", default=None, metavar="LIST",
        help="comma-separated complex probe points, e.g. \"1,i,1+i\" (default: built-in grid)",
    )
    p_probe.add_argument(
        "--index", type=int, default=2,
        help="coordinate axis to probe, 1-based, at least 2 (default 2)",
    )
    p_probe.set_defaults(func=cmd_probe)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        op = load_operator_file(args.input)
        try:
            tol = Tolerances(orth_tol=args.tol_orth, recon_tol=args.tol_recon)
        except ValueError as err:
            raise UsageError(str(err)) from None
        lines, code = args.func(args, op, tol)
        # Two writes, so that a large report is not copied once more to append "\n".
        sys.stdout.write("\n".join(lines))
        sys.stdout.write("\n")
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except (UsageError, RaySymError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 64 if isinstance(err, (UsageError, OperatorFileError)) else 1
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so that the flush at
        # interpreter exit raises no second error, and exit 1.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
