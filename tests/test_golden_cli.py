"""Replay recorded CLI runs byte for byte.

``tests/data/golden_cli.json`` holds, for each case, the operator file the
command reads, its arguments (``{input}`` stands for the file's path), and
the exit code, stdout and stderr recorded when the file was written.  The
default output of the CLI is meant to stay byte-stable; this test makes that
a check.  The last printed digits depend on the BLAS kernel, so the tests
pin one (``conftest.py``), and so does a rewrite.  Rewrite the data, only
for an intended output change, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

# conftest pins the BLAS threads and kernel before numpy loads BLAS, so it is
# imported first, also when this file runs as a script.
from conftest import matrix_pairs  # isort: skip

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from raysym import random_unitary
from raysym.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli.json"

SAMPLES = ("--samples", "1,i,1+i", "--index", "3")
SEEDED = ("--seed", "7", "--trials", "33")
#: Repeated points and signed zeros on the last axis: pins which probe rays are shared.
REPEATS = ("--samples", "0,-0,1,1")


def operator_files():
    """The operator descriptions the recorded commands read, by name."""
    rng = np.random.default_rng(20261018)
    ginibre = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2.0)
    u3 = random_unitary(3, seed=11)
    not_unitary = u3.copy()
    not_unitary[0, 0] += 1e-6
    shear = np.eye(3)
    shear[2, 1] = 1e-5

    def op(matrix, kind, **extra):
        m = np.asarray(matrix, dtype=np.complex128)
        return {"dim": int(m.shape[0]), "kind": kind, "matrix": matrix_pairs(m), **extra}

    return {
        "unitary-2": op(random_unitary(2, seed=3), "unitary"),
        "unitary-3": op(u3, "unitary"),
        "unitary-8": op(random_unitary(8, seed=8), "unitary"),
        "antiunitary-2": op(random_unitary(2, seed=4), "antiunitary"),
        "antiunitary-3": op(random_unitary(3, seed=12), "antiunitary"),
        "antiunitary-8": op(random_unitary(8, seed=9), "antiunitary"),
        "ginibre-3": op(ginibre, "general"),
        "conjugate-first-3": op(random_unitary(3, seed=13), "general", conjugate_first=True),
        "scaled-unitary-3": op(u3 @ np.diag([1.0, 2.0, 0.5]), "general"),
        "not-unitary-3": op(not_unitary, "unitary"),
        # passes map_basis and fix_phases; classify_automorphism rejects it
        "near-shear-2": op([[1.0, 6e-9], [0.0, 1.0]], "general"),
        # the smallest subnormal times I: the identity ray map, far from I itself
        "tiny-identity-8": op(2.0**-1074 * np.eye(8), "general"),
        # fix_phases' probes leak 7.07e-6 onto axis 3, the automorphism probe at 1+i 8.16e-6
        "leak-probe-3": op(u3 @ shear, "general"),
    }


#: (operator file, CLI arguments) of every recorded command.
COMMANDS = [
    *[(f, ("reconstruct", "{input}")) for f in (
        "unitary-2", "unitary-3", "unitary-8", "antiunitary-2", "antiunitary-3",
        "antiunitary-8", "ginibre-3", "conjugate-first-3", "scaled-unitary-3", "not-unitary-3",
    )],
    *[(f, ("conformance", "{input}")) for f in (
        "unitary-2", "unitary-3", "antiunitary-8", "ginibre-3", "scaled-unitary-3",
        "not-unitary-3",
    )],
    *[(f, ("conformance", "{input}", *SEEDED))
      for f in ("unitary-8", "antiunitary-3", "conjugate-first-3")],
    *[(f, ("probe", "{input}"))
      for f in ("unitary-3", "antiunitary-2", "ginibre-3", "scaled-unitary-3")],
    *[(f, ("probe", "{input}", *SAMPLES))
      for f in ("unitary-8", "antiunitary-8", "conjugate-first-3")],
    *[(f, ("probe", "{input}", *REPEATS, "--index", str(dim)))
      for f, dim in (("unitary-8", 8), ("antiunitary-3", 3))],
    *[("near-shear-2", (command, "{input}")) for command in ("reconstruct", "conformance", "probe")],
    # the automorphism-law probe fails after reconstruct succeeded: an error line with no stage.
    # Under the pinned kernel the tolerance lies between the largest leak of
    # fix_phases' probes (1.1e-16) and that of the automorphism probe (2.0e-16).
    ("unitary-3", ("conformance", "{input}", "--tol-orth", "1.5e-16")),
    # entries that a failed stage did not reach, at a nonzero seed
    ("ginibre-3", ("conformance", "{input}", *SEEDED)),
    # every check but round-trip passes at the smallest scale; round-trip reads 1
    ("tiny-identity-8", ("conformance", "{input}")),
    # the error line with no stage again, with the tolerance 6-8% from the leaks on
    # either side: the automorphism probe fails partway through its stack of rays
    *[("leak-probe-3", (command, "{input}", "--tol-orth", "7.5e-6", "--tol-recon", "1e-4"))
      for command in ("conformance", "probe")],
]


def write_operators(operators, directory):
    paths = {}
    for name, data in operators.items():
        paths[name] = Path(directory) / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return paths


def run(argv, path):
    """Exit code, stdout and stderr of the CLI, with ``{input}`` replaced by ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if a == "{input}" else a for a in argv])
    return code, out.getvalue(), err.getvalue()


def record():
    operators = operator_files()
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_operators(operators, tmp)
        for name, argv in COMMANDS:
            code, out, err = run(argv, paths[name])
            cases.append(
                {"operator": name, "argv": list(argv), "exit": code, "stdout": out, "stderr": err}
            )
    return {"operators": operators, "cases": cases}


def load_cases():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("order", [1, -1], ids=["recorded", "reversed"])
def test_replays_every_recorded_command_byte_for_byte(tmp_path, order):
    # main reuses one parser; both orders in one process show it carries no state.
    golden = load_cases()
    paths = write_operators(golden["operators"], tmp_path)
    for case in golden["cases"][::order]:
        got = run(case["argv"], paths[case["operator"]])
        assert got == (case["exit"], case["stdout"], case["stderr"]), case["argv"]


def test_covers_every_exit_code_and_command():
    cases = load_cases()["cases"]
    assert {c["exit"] for c in cases} == {0, 1, 2, 64}
    assert {c["argv"][0] for c in cases} == {"reconstruct", "conformance", "probe"}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    sys.stdout.write(f"wrote {len(COMMANDS)} cases to {GOLDEN}\n")
