import json
import os

# One BLAS thread, set before numpy loads BLAS: the suite's matrix-vector
# products are small, and spare threads only contend with other processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
from hypothesis import settings  # noqa: E402

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")


def axis_vector(dim, i):
    v = np.zeros(dim, dtype=np.complex128)
    v[i] = 1.0
    return v


def reference_ray_function(r, s):
    """u(r, s) by the scalar formula, one ``np.vdot`` per inner product.

    The reference that ``raysym.ray_function`` and ``ray_functions`` must
    match bit for bit.
    """
    ip = np.vdot(r.rep, s.rep)
    num = float(ip.real) * float(ip.real) + float(ip.imag) * float(ip.imag)
    den = float(np.vdot(r.rep, r.rep).real) * float(np.vdot(s.rep, s.rep).real)
    return min(max(num / den, 0.0), 1.0)


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
