"""The benchmark's three workloads: inputs, operations and output checks.

Every workload is a closed loop with one caller.  Its operations are grouped
into rounds; a round holds one operation of every class (an operator kind at
a dimension), in an order shuffled from the seed.  Runs measure whole rounds
only, so the mix of classes, and with it every per-operation count, is the
same in every run whatever the speed of the host.

Inputs come from ``random_unitary`` and numpy generators seeded from the
workload seed.  The checks here never call raysym: they re-derive the
expected answer with plain numpy from the true operator.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import raysym

#: Bound on residuals and scale errors that a correct answer must meet.
CHECK_TOL = 1e-8

#: The seven conformance checks, in the order the report must list them.
CHECK_NAMES = (
    "orthogonality-preservation",
    "ray-function-invariance",
    "basis-completeness",
    "automorphism-laws",
    "scales-unit",
    "round-trip",
    "reproduction",
)

#: Distinct inputs per class; round r uses input r % POOL.
POOL = 3


@dataclass
class Op:
    """One timed call and the check of its result.

    ``run`` is timed; ``check`` runs outside the timed interval and returns
    None when the result is right, else a one-line reason.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _kind(anti: bool) -> str:
    return "antiunitary" if anti else "unitary"


def gauge_defect(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Distance of candidate^dagger reference from a unit-phase multiple of 1."""
    v = candidate.conj().T @ reference
    k = int(np.argmax(np.abs(np.diagonal(v))))
    phase = v[k, k] / abs(v[k, k])
    return float(np.max(np.abs(v - phase * np.eye(v.shape[0]))))


def write_operator(path: str, matrix: np.ndarray, kind: str) -> None:
    """Write an operator file row by row, so large inputs stay small in memory."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f'{{"dim": {matrix.shape[0]}, "kind": "{kind}", "matrix": [')
        for i, row in enumerate(matrix):
            pairs = [[float(x.real), float(x.imag)] for x in row]
            f.write(("," if i else "") + json.dumps(pairs))
        f.write("]}")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Call ``raysym.cli.main`` in process and capture what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = raysym.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _fields(text: str) -> dict[str, list[list[str]]]:
    """Group tab-delimited output lines by their first field."""
    groups: dict[str, list[list[str]]] = {}
    for line in text.splitlines():
        key, *rest = line.split("\t")
        groups.setdefault(key, []).append(rest)
    return groups


def _one(groups: dict, key: str) -> str | None:
    rows = groups.get(key, [])
    return "\t".join(rows[0]) if len(rows) == 1 else None


class Workload:
    """Base: seeded inputs, the classes of a round, and the rounds made of them."""

    name = ""
    #: Rounds every measured run completes, so the tail percentile is fixed.
    min_rounds = 1
    #: Operations where reconstruct claimed unitary_valid on a map that is not Wigner.
    false_accepts = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.classes: list[tuple] = []
        self.to_write: list[tuple[str, np.ndarray, str]] = []

    def unitary(self, dim: int) -> np.ndarray:
        return raysym.random_unitary(dim, int(self.rng.integers(2**31)))

    def operator_file(self, name: str, matrix: np.ndarray, kind: str) -> str:
        """Path of an operator file that ``write_files`` will write."""
        path = os.path.join(self.workdir, name + ".json")
        self.to_write.append((path, matrix, kind))
        return path

    def generate(self) -> None:
        """Make the inputs.  Not part of set-up time."""

    def write_files(self) -> None:
        for path, matrix, kind in self.to_write:
            write_operator(path, matrix, kind)

    def build(self, wrap: Callable) -> None:
        """Library calls that build the workload's oracles; timed as set-up."""

    def op(self, cls: tuple, k: int, op_seed: int) -> Op:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        """The operations of round r: every class once, in a seeded order."""
        rng = np.random.default_rng([self.seed, r])
        order = rng.permutation(len(self.classes))
        seeds = rng.integers(2**31, size=len(self.classes))
        return [self.op(self.classes[i], r % POOL, int(seeds[i])) for i in order]


class CliConformance(Workload):
    """``raysym conformance`` on small operator files, plus probe and refusals."""

    name = "cli-conformance"
    min_rounds = 8

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        dims = (2,) if smoke else (2, 3, 4, 8, 16)
        self.classes = [("conformance", d, anti) for d in dims for anti in (False, True)]
        self.classes += [("general", 3, False), ("probe", 4, False), ("malformed", 3, False)]
        if not smoke:
            self.classes += [("general", 8, False), ("probe", 16, True)]
        self.trials = ["--trials", "5"] if smoke else []

    def generate(self):
        self.files = {}
        for cls in self.classes:
            what, dim, anti = cls
            for k in range(POOL):
                name = f"{what}-{dim}-{int(anti)}-{k}"
                if what == "general":
                    g = self.rng.standard_normal((dim, dim)) + 1j * self.rng.standard_normal((dim, dim))
                    self.files[cls, k] = self.operator_file(name, g, "general")
                elif what == "malformed":
                    # Declared unitary, but one column is scaled: refused at load.
                    m = self.unitary(dim) * np.r_[1.5, np.ones(dim - 1)]
                    self.files[cls, k] = self.operator_file(name, m, "unitary")
                else:
                    self.files[cls, k] = self.operator_file(name, self.unitary(dim), _kind(anti))

    def op(self, cls, k, op_seed):
        what, dim, anti = cls
        path = self.files[cls, k]
        label = f"{what}-{dim}"
        if what == "probe":
            argv = ["probe", path, "--index", "2"]
            return Op(label, lambda: run_cli(argv), lambda res: _check_probe(res, dim, anti))
        argv = ["conformance", path, "--seed", str(op_seed)] + self.trials
        if what == "malformed":
            return Op(label, lambda: run_cli(argv), _check_refused)
        return Op(
            label,
            lambda: run_cli(argv),
            lambda res: _check_conformance(res, dim, op_seed, what == "conformance"),
        )


def _check_conformance(res, dim: int, seed: int, conformant: bool) -> str | None:
    code, out, _ = res
    if code != (0 if conformant else 1):
        return f"exit {code}"
    g = _fields(out)
    if _one(g, "report") != "conformance" or _one(g, "dim") != str(dim):
        return "bad header"
    if _one(g, "seed") != str(seed):
        return "seed not echoed"
    checks = g.get("check", [])
    if [c[0] for c in checks] != list(CHECK_NAMES):
        return "check lines missing or out of order"
    if conformant:
        for name, status, residual, *_ in checks:
            if status != "pass" or not float(residual) <= CHECK_TOL:
                return f"{name}: {status} {residual}"
        if "error" in g or _one(g, "overall") != "pass":
            return "overall not pass"
        return None
    if any(status != "fail" for _, status, *_ in checks):
        return "a check passed on a non-unitary operator"
    if _one(g, "overall") != "fail":
        return "overall not fail"
    error = _one(g, "error") or ""
    return None if error.startswith("[stage map_basis]") else f"error line {error!r}"


def _check_probe(res, dim: int, anti: bool) -> str | None:
    code, out, _ = res
    if code != 0:
        return f"exit {code}"
    g = _fields(out)
    if _one(g, "report") != "automorphism-probe" or _one(g, "index") != "2":
        return "bad header"
    if not abs(float(_one(g, "scale")) - 1.0) <= CHECK_TOL:
        return "scale not 1"
    probes = g.get("probe", [])
    if len(probes) != len(raysym.DEFAULT_PROBE_GRID):
        return "probe lines missing"
    for zr, zi, fr, fi in probes:
        z = complex(float(zr), float(zi))
        want = z.conjugate() if anti else z
        if not abs(complex(float(fr), float(fi)) - want) <= CHECK_TOL:
            return f"f({z}) wrong"
    for key in ("additivity-residual", "multiplicativity-residual"):
        if not float(_one(g, key)) <= CHECK_TOL:
            return f"{key} too large"
    return None


def _check_refused(res) -> str | None:
    code, out, err = res
    if code != 64 or out or not err.startswith("error: matrix:"):
        return f"exit {code}, stderr {err.strip()!r}"
    return None


class CliReconstructLarge(Workload):
    """``raysym reconstruct`` on large operator files, parsed and checked."""

    name = "cli-reconstruct-large"
    min_rounds = 6

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        # Three classes per dimension: the median falls in the middle of the
        # middle dimension's group and the p80 tail inside the largest one.
        dims = (4, 6, 8) if smoke else (64, 128, 256)
        kinds = (("unitary", False), ("unitary", True), ("diagonal", False))
        self.classes = [(what, dim, anti) for dim in dims for what, anti in kinds]

    def generate(self):
        self.files = {}
        for cls in self.classes:
            what, dim, anti = cls
            for k in range(POOL):
                u = self.unitary(dim)
                name = f"{what}-{dim}-{int(anti)}-{k}"
                if what == "diagonal":
                    d = 1.0 + np.arange(dim) / dim
                    self.files[cls, k] = (self.operator_file(name, u * d, "general"), u, False, d)
                else:
                    self.files[cls, k] = (self.operator_file(name, u, _kind(anti)), u, anti, None)

    def op(self, cls, k, op_seed):
        what, dim, _ = cls
        path, u, anti, d = self.files[cls, k]
        argv = ["reconstruct", path]
        return Op(f"{what}-{dim}", lambda: run_cli(argv), lambda res: _check_reconstruction(res, u, anti, d))


def _check_reconstruction(res, u: np.ndarray, anti: bool, d: np.ndarray | None) -> str | None:
    """Exit 0 and the true operator for unitary files; exit 2 and the scales for U diag(d)."""
    code, out, _ = res
    dim = u.shape[0]
    if code != (0 if d is None else 2):
        return f"exit {code}"
    g = _fields(out)
    if _one(g, "report") != "reconstruction" or _one(g, "dim") != str(dim):
        return "bad header"
    if _one(g, "status") != ("unitary-valid" if d is None else "diagnostic-only"):
        return f"status {_one(g, 'status')}"
    if _one(g, "kind") != ("conjugation-automorphism" if anti else "identity-automorphism"):
        return f"kind {_one(g, 'kind')}"
    if _one(g, "antiunitary") != ("true" if anti else "false"):
        return "antiunitary flag wrong"
    if d is not None:
        scales = np.array([float(s) for _, s in g.get("scale", [])])
        if scales.shape != (dim,) or not np.max(np.abs(scales - d / d[0])) <= CHECK_TOL:
            return "scales wrong"
        return None
    rows = g.get("matrix", [])
    if len(rows) != dim * dim:
        return "matrix lines missing"
    values = np.array([(float(re), float(im)) for _, _, re, im in rows])
    m = (values[:, 0] + 1j * values[:, 1]).reshape(dim, dim)
    residual = gauge_defect(m, u)
    if not residual <= CHECK_TOL:
        return f"gauge residual {residual:.3e}"
    return None


# Oracle callables of the black-box workload.  They are plain user code: the
# library sees only a callable from Ray to Ray.


def matrix_fn(u: np.ndarray, anti: bool) -> Callable:
    """x -> u x, or u conj(x) when anti: a Wigner map when u is unitary."""

    def image(ray):
        x = ray.rep
        return raysym.canonical_ray(u @ (x.conj() if anti else x))

    return image


def scaled_fn(u: np.ndarray, d: np.ndarray) -> Callable:
    def image(ray):
        return raysym.canonical_ray(u @ (d * ray.rep))

    return image


def leak_fn(u: np.ndarray) -> Callable:
    def image(ray):
        x = ray.rep
        y = x.copy()
        y[2] += 0.1 * x[0] * x[1] / np.linalg.norm(x)
        return raysym.canonical_ray(u @ y)

    return image


def noisy_fn(u: np.ndarray, anti: bool) -> Callable:
    """Wigner map plus 1e-12 noise drawn from a stable hash of the input ray."""

    def image(ray):
        x = ray.rep
        digest = hashlib.blake2b(x.tobytes(), digest_size=8).digest()
        noise = np.random.default_rng(int.from_bytes(digest, "little"))
        eps = noise.standard_normal(x.size) + 1j * noise.standard_normal(x.size)
        return raysym.canonical_ray(u @ (x.conj() if anti else x) + 1e-12 * eps)

    return image


def twist_fn(u: np.ndarray) -> Callable:
    """Dim-2 Bloch twist: rotate about z by pi z^2, then apply u.  Not Wigner."""

    def image(ray):
        x = ray.rep
        z = abs(x[0]) ** 2 - abs(x[1]) ** 2
        return raysym.canonical_ray(u @ np.array([x[0], np.exp(1j * np.pi * z * z) * x[1]]))

    return image


#: Oracle callable of each black-box family, from its matrix, flag and scales.
ORACLE_FNS = {
    "wigner": lambda m, anti, d: matrix_fn(m, anti),
    "noisy": lambda m, anti, d: noisy_fn(m, anti),
    "scaled": lambda m, anti, d: scaled_fn(m, d),
    "ginibre": lambda m, anti, d: matrix_fn(m, anti),
    "leak": lambda m, anti, d: leak_fn(m),
    "twist": lambda m, anti, d: twist_fn(m),
}


@dataclass
class Diagnosis:
    recon: object
    error: Exception | None
    reproduction: float | None
    preservation: object

    @property
    def verdict(self) -> str:
        if self.error is not None:
            return "aborted"
        if not self.recon.unitary_valid:
            return "diagnostic-only"
        if self.reproduction <= CHECK_TOL and self.preservation.passed:
            return "wigner"
        return "not-wigner"


def diagnose(oracle, dim: int, seed: int, trials: tuple[int, int]) -> Diagnosis:
    """What a library user runs on an unknown oracle: reconstruct, then sample."""
    recon, error, reproduction = None, None, None
    try:
        recon = raysym.reconstruct(oracle, dim)
    except raysym.RaySymError as err:
        error = err
    if recon is not None and recon.unitary_valid:
        reproduction = raysym.verify_reproduction(
            recon.operator, oracle, trials=trials[0], seed=seed
        )
    preservation = raysym.check_orthogonality_preservation(oracle, trials=trials[1], seed=seed + 1)
    return Diagnosis(recon, error, reproduction, preservation)


class BlackboxDiagnose(Workload):
    """Library-only diagnosis of plain-callable oracles, valid and invalid."""

    name = "blackbox-diagnose"
    min_rounds = 20

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        # The three aborting or diagnostic-only classes are the fastest, the
        # two noisy ones and Wigner at dim 128 the slowest: as many of each,
        # so the median falls inside the Wigner group and the p95 tail inside
        # the dim-128 class.
        dims = (3,) if smoke else (3, 8, 32, 128)
        mid = 3 if smoke else 8
        self.classes = [("wigner", d) for d in dims]
        self.classes += [("scaled", 2), ("ginibre", mid), ("leak", mid), ("twist", 2)]
        self.classes += [("noisy", 2)] if smoke else [("noisy", 2), ("noisy", 8)]
        self.trials = (10, 20) if smoke else (100, 200)

    def generate(self):
        self.inputs = {}
        for cls in self.classes:
            what, dim = cls
            for k in range(POOL):
                if what == "ginibre":
                    m = self.rng.standard_normal((dim, dim)) + 1j * self.rng.standard_normal((dim, dim))
                else:
                    m = self.unitary(dim)
                # Wigner maps alternate between unitary and antiunitary inputs.
                anti = what in ("wigner", "noisy") and k % 2 == 1
                self.inputs[cls, k] = (m, anti, 1.0 + np.arange(dim) / dim)

    def build(self, wrap):
        self.oracles = {}
        for (what, dim), k in self.inputs:
            m, anti, d = self.inputs[(what, dim), k]
            fn = ORACLE_FNS[what](m, anti, d)
            self.oracles[(what, dim), k] = raysym.RayMapOracle(dim, dim, wrap(fn), label=what)

    def op(self, cls, k, op_seed):
        what, dim = cls
        oracle = self.oracles[cls, k]
        u, anti, d = self.inputs[cls, k]
        return Op(
            f"{what}-{dim}",
            lambda: diagnose(oracle, dim, op_seed, self.trials),
            lambda res: self._check(res, what, u, anti, d),
        )

    def _check(self, res: Diagnosis, what: str, u, anti: bool, d) -> str | None:
        verdict = res.verdict
        if res.recon is not None and res.recon.unitary_valid and verdict != "wigner":
            self.false_accepts += 1
        if what not in ("wigner", "noisy") and res.preservation.passed:
            return "sampled preservation passed on a map that breaks it"
        if what in ("wigner", "noisy"):
            if verdict != "wigner":
                return f"verdict {verdict}"
            if res.recon.operator.antiunitary != anti:
                return "antiunitary flag wrong"
            residual = gauge_defect(np.asarray(res.recon.operator.matrix), u)
            return None if residual <= CHECK_TOL else f"gauge residual {residual:.3e}"
        if what == "scaled":
            if verdict != "diagnostic-only" or res.recon.operator.antiunitary:
                return f"verdict {verdict}"
            scales = np.asarray(res.recon.scales)
            return None if np.max(np.abs(scales - d / d[0])) <= CHECK_TOL else "scales wrong"
        if what in ("ginibre", "leak"):
            want = ("ImagesNotOrthogonal", "map_basis") if what == "ginibre" else ("CrossTalk", "fix_phases")
            got = (type(res.error).__name__, getattr(res.error, "stage", None))
            return None if got == want else f"aborted with {got}, expected {want}"
        # The twist preserves orthogonality both ways but is not Wigner at dim 2.
        return None if verdict != "wigner" else "twist accepted as Wigner"


WORKLOADS = {w.name: w for w in (CliConformance, CliReconstructLarge, BlackboxDiagnose)}
