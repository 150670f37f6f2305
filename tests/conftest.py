import json
import math
import os
import platform

# One BLAS thread, set before numpy loads BLAS: the suite's matrix-vector
# products are small, and spare threads only contend with other processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# One OpenBLAS kernel on x86-64, also set before numpy loads BLAS: the last
# digits of BLAS dots and matrix products depend on the kernel, and
# tests/data/golden_cli.json was recorded under Haswell, which every x86-64
# CPU with AVX2 and FMA runs.  It overrides the kernel OpenBLAS would pick.
if platform.machine().lower() in ("x86_64", "amd64"):
    os.environ["OPENBLAS_CORETYPE"] = "Haswell"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from raysym import RayMapOracle, ZeroVector  # noqa: E402
from raysym.rays import PIVOT_TOL  # noqa: E402

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")


def axis_vector(dim, i):
    v = np.zeros(dim, dtype=np.complex128)
    v[i] = 1.0
    return v


@pytest.fixture
def image_calls(monkeypatch):
    """Count every ``RayMapOracle.image`` call of the test; a one-item list."""
    calls = [0]
    image = RayMapOracle.image

    def counted(self, ray):
        calls[0] += 1
        return image(self, ray)

    monkeypatch.setattr(RayMapOracle, "image", counted)
    return calls


def reference_ray_function(r, s):
    """u(r, s) by the scalar formula, one ``np.vdot`` per inner product.

    The reference that ``raysym.rays.ray_function`` and ``ray_functions`` must
    match bit for bit.
    """
    ip = np.vdot(r.rep, s.rep)
    num = float(ip.real) * float(ip.real) + float(ip.imag) * float(ip.imag)
    den = float(np.vdot(r.rep, r.rep).real) * float(np.vdot(s.rep, s.rep).real)
    return min(max(num / den, 0.0), 1.0)


def reference_ray_rep(v):
    """``Ray(v).rep`` by the canonicalization recipe as first written.

    One numpy call per step: the wrapped ``max`` and ``np.linalg.norm``, and
    the pivot always found by scanning the whole vector.  ``Ray`` must return
    these bytes, or raise the same error type with the same message.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    parts = np.ascontiguousarray(v).view(np.float64)
    top = float(np.abs(parts).max())
    if not math.isfinite(top):
        raise ValueError("vector components must be finite")
    if top == 0.0:
        raise ZeroVector("cannot canonicalize a vector of norm 0.0")
    scale = 2.0 ** -max(math.frexp(top)[1], -1022)
    w = (parts * scale).view(np.complex128)
    rep = w / np.linalg.norm(w)
    pivot = int((np.abs(rep) > PIVOT_TOL).argmax())
    entry = rep[pivot]
    rep = rep * (entry.conjugate() / abs(entry))
    rep[pivot] = abs(rep[pivot])
    return rep


def reference_apply(op, x):
    """The operator's action on a vector: U x, or U conj(x) when antiunitary.

    One matrix-vector product, the arithmetic ``verify_reproduction`` does
    per row.
    """
    x = np.asarray(x, dtype=np.complex128)
    return op.matrix @ (np.conj(x) if op.antiunitary else x)


def matrix_pairs(matrix):
    m = np.asarray(matrix, dtype=np.complex128)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def write_operator_file(path, matrix, kind, conjugate_first=None):
    m = np.asarray(matrix, dtype=np.complex128)
    data = {"dim": int(m.shape[0]), "kind": kind, "matrix": matrix_pairs(m)}
    if conjugate_first is not None:
        data["conjugate_first"] = conjugate_first
    path.write_text(json.dumps(data))
    return str(path)
