"""The block-sampled checks against the one-trial-at-a-time loops they replaced.

``reference_preservation`` and ``reference_reproduction`` are
``check_orthogonality_preservation`` and ``verify_reproduction`` as they were
before the trials ran in blocks: one ``Ray`` per source, and u of each pair
by the scalar formula (``reference_ray_function``).  Both draw the same normals in the same order and do the same
arithmetic per row (one BLAS dot per inner product, one matrix-vector
product per mapped ray), so the blocked checks must ask the oracle for the
same rays and report the same residuals, bit for bit.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from raysym import (
    CheckResult,
    ConformanceReport,
    RayMapOracle,
    SymmetryOperator,
    canonical_ray,
    check_orthogonality_preservation,
    general_induced_map,
    induced_map,
    random_unitary,
    verify_reproduction,
)
from raysym.rays import sample_ray, sample_state

from conftest import reference_apply, reference_ray_function


def reference_orthogonal_pair(dim, rng):
    r = sample_ray(dim, rng)
    while True:
        t = sample_state(dim, rng)
        t = t - np.vdot(r.rep, t) * r.rep
        if np.vdot(t, t).real > 1e-12:
            return r, canonical_ray(t)


def reference_preservation(oracle, trials, seed, tol_orth=1e-9, rng=None):
    rng = np.random.default_rng(seed) if rng is None else rng
    dim = oracle.dim_in
    max_orth = 0.0
    max_u = 0.0
    for _ in range(trials):
        r, s = reference_orthogonal_pair(dim, rng)
        max_orth = max(max_orth, reference_ray_function(oracle.image(r), oracle.image(s)))
        a = sample_ray(dim, rng)
        b = sample_ray(dim, rng)
        u_image = reference_ray_function(oracle.image(a), oracle.image(b))
        max_u = max(max_u, abs(u_image - reference_ray_function(a, b)))
    worst = (("orthogonality-preservation", max_orth), ("ray-function-invariance", max_u))
    entries = tuple(CheckResult(name, x <= tol_orth, x, trials, seed) for name, x in worst)
    return ConformanceReport(dim=dim, seed=seed, entries=entries)


def reference_reproduction(op, oracle, trials, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        s = sample_ray(op.dim, rng)
        mapped = canonical_ray(reference_apply(op, s.rep))
        worst = max(worst, 1.0 - reference_ray_function(mapped, oracle.image(s)))
    return worst


def recording(oracle):
    """The oracle, plus the list of the rays it is asked for, in order."""
    asked = []

    def image(ray):
        asked.append(ray.rep.copy())
        return oracle.image(ray)

    return RayMapOracle(oracle.dim_in, oracle.dim_out, image, label=oracle.label), asked


def noisy_oracle(u, anti):
    """Wigner map plus 1e-12 noise drawn from a hash of the input ray's bytes."""

    def image(ray):
        x = ray.rep
        digest = hashlib.blake2b(x.tobytes(), digest_size=8).digest()
        noise = np.random.default_rng(int.from_bytes(digest, "little"))
        eps = noise.standard_normal(x.size) + 1j * noise.standard_normal(x.size)
        return canonical_ray(u @ (x.conj() if anti else x) + 1e-12 * eps)

    return RayMapOracle(u.shape[0], u.shape[0], image, label="noisy")


def twist_oracle(u):
    """Dim-2 Bloch twist: rotate about z by pi z^2, then apply u.  Not Wigner."""

    def image(ray):
        x = ray.rep
        z = abs(x[0]) ** 2 - abs(x[1]) ** 2
        return canonical_ray(u @ np.array([x[0], np.exp(1j * np.pi * z * z) * x[1]]))

    return RayMapOracle(2, 2, image, label="twist")


def ginibre(dim, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)


def oracle_family(kind, dim, seed):
    """(operator the oracle is compared with, oracle) for each family of the tests."""
    u = random_unitary(dim, seed)
    if kind == "unitary":
        op = SymmetryOperator(u)
        return op, induced_map(op)
    if kind == "antiunitary":
        op = SymmetryOperator(u, antiunitary=True)
        return op, induced_map(op)
    if kind == "diag121":
        d = np.diag(np.resize([1.0, 2.0, 1.0], dim))
        return SymmetryOperator(d), general_induced_map(d)
    if kind == "ginibre":
        g = ginibre(dim, seed + 100)
        return SymmetryOperator(u), general_induced_map(g)
    if kind == "near-unitary":
        m = u + 1e-6 * ginibre(dim, seed + 200)
        return SymmetryOperator(u), general_induced_map(m)
    if kind == "noisy":
        return SymmetryOperator(u, antiunitary=seed % 2 == 1), noisy_oracle(u, seed % 2 == 1)
    if kind == "twist":
        return SymmetryOperator(u), twist_oracle(u)
    raise ValueError(kind)


FAMILIES = ["unitary", "antiunitary", "diag121", "ginibre", "near-unitary", "noisy"]
#: At 40 trials, dims up to 64 draw one block; dim 128 draws a full block of 32 and a partial one.
CASES = [(kind, dim) for kind in FAMILIES for dim in (2, 3, 8, 16, 64, 128)] + [("twist", 2)]


def assert_same_rays(got, expected):
    assert len(got) == len(expected)
    for x, y in zip(got, expected):
        assert x.tobytes() == y.tobytes()


class TestPreservationAgainstTheTrialLoop:
    @pytest.mark.parametrize("kind, dim", CASES)
    def test_same_rays_and_residuals(self, kind, dim):
        trials = 40  # one block up to dim 64, two at dim 128 (CASES)
        for seed in (0, 5, 11):
            _, oracle = oracle_family(kind, dim, seed)
            new_oracle, new_asked = recording(oracle)
            ref_oracle, ref_asked = recording(oracle)
            got = check_orthogonality_preservation(new_oracle, trials, seed + 1)
            ref = reference_preservation(ref_oracle, trials, seed + 1)
            assert got == ref
            assert_same_rays(new_asked, ref_asked)

    def test_failing_families_fail(self):
        for kind, dim in [("diag121", 3), ("ginibre", 8), ("twist", 2)]:
            _, oracle = oracle_family(kind, dim, 0)
            assert not check_orthogonality_preservation(oracle, 64, 1).passed

    @pytest.mark.parametrize("dim_in, dim_out", [(2, 3), (3, 5), (8, 9)])
    @pytest.mark.parametrize("isometric", [True, False])
    def test_maps_into_a_larger_space(self, dim_in, dim_out, isometric):
        # An isometric embedding preserves u; the first columns of a
        # Ginibre matrix do not.
        m = ginibre(dim_out, dim_in)[:, :dim_in]
        if isometric:
            m = random_unitary(dim_out, dim_in)[:, :dim_in]
        oracle = RayMapOracle(dim_in, dim_out, lambda ray: canonical_ray(m @ ray.rep))
        new_oracle, new_asked = recording(oracle)
        ref_oracle, ref_asked = recording(oracle)
        got = check_orthogonality_preservation(new_oracle, 40, 2)
        assert got == reference_preservation(ref_oracle, 40, 2)
        assert got.passed == isometric
        assert_same_rays(new_asked, ref_asked)

    def test_rejects_dimension_one(self):
        oracle = induced_map(SymmetryOperator(np.eye(1)))
        with pytest.raises(ValueError, match="dimension at least 2"):
            check_orthogonality_preservation(oracle, trials=5, seed=0)


class ScriptedGenerator:
    """Stands in for a Generator: standard_normal returns the scripted arrays in order."""

    def __init__(self, arrays):
        self.arrays = [np.asarray(a, dtype=float) for a in arrays]

    def standard_normal(self, size):
        out = self.arrays.pop(0)
        assert out.shape == tuple(np.atleast_1d(size))
        return out


class TestDegenerateRedraw:
    def test_a_vanishing_projection_is_redrawn_after_the_block(self, monkeypatch):
        dim, trials = 3, 3
        z = np.random.default_rng(9).standard_normal((trials, 8, dim))
        z[1, 2:4] = z[1, 0:2]  # trial 1 draws t = r: its projection vanishes
        first_retry = z[1, 0:2]  # the first redraw repeats r again
        fresh = np.random.default_rng(10).standard_normal((2, dim))
        block_script = [z, *first_retry, *fresh]
        # The trial loop, fed the same numbers in the order the block check uses them
        loop_script = [*z[0], *z[1, :4], *first_retry, *fresh, *z[1, 4:], *z[2]]

        base = induced_map(SymmetryOperator(random_unitary(dim, 3)))
        oracle, asked = recording(base)
        block_rng = ScriptedGenerator(block_script)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: block_rng)
        got = check_orthogonality_preservation(oracle, trials, seed=0)
        monkeypatch.undo()
        assert block_rng.arrays == []

        ref_oracle, ref_asked = recording(base)
        loop_rng = ScriptedGenerator([a.reshape(dim) for a in loop_script])
        ref = reference_preservation(ref_oracle, trials, seed=0, rng=loop_rng)
        assert loop_rng.arrays == []
        assert_same_rays(asked, ref_asked)
        assert got == ref
        s = asked[5]  # r, s of trial 1
        assert abs(np.vdot(asked[4], s)) <= 1e-15


class TestReproductionAgainstTheTrialLoop:
    @pytest.mark.parametrize("kind, dim", CASES)
    def test_same_rays_and_residual(self, kind, dim):
        for seed in (0, 5, 11):
            op, oracle = oracle_family(kind, dim, seed)
            new_oracle, new_asked = recording(oracle)
            ref_oracle, ref_asked = recording(oracle)
            got = verify_reproduction(op, new_oracle, trials=40, seed=seed + 2)
            ref = reference_reproduction(op, ref_oracle, trials=40, seed=seed + 2)
            assert got == ref
            assert_same_rays(new_asked, ref_asked)


def answering(oracle, read):
    """The oracle as a plain callable whose answers are pending ``Ray(v)`` or already read."""

    def image(ray):
        answer = oracle.image(ray)
        if read:
            answer.rep
        else:
            assert answer._rep is None  # canonicalized by nobody yet
        return answer

    return RayMapOracle(oracle.dim_in, oracle.dim_out, image, label=oracle.label)


def buffer_oracle(u):
    """``x -> u x`` as a plain callable that writes every answer into one buffer."""
    out = np.empty(u.shape[0], dtype=np.complex128)

    def image(ray):
        np.matmul(u, ray.rep, out=out)
        return canonical_ray(out)

    return RayMapOracle(u.shape[0], u.shape[0], image, label="one-buffer")


class TestAnswerStyles:
    @pytest.mark.parametrize(
        "kind, dim", [("unitary", 2), ("antiunitary", 3), ("ginibre", 8), ("noisy", 16), ("twist", 2)]
    )
    def test_pending_and_read_answers_match_the_trial_loops(self, kind, dim):
        op, oracle = oracle_family(kind, dim, 7)
        outcomes = []
        for read in (False, True):
            styled = answering(oracle, read)
            new_oracle, new_asked = recording(styled)
            ref_oracle, ref_asked = recording(styled)
            got = check_orthogonality_preservation(new_oracle, 40, 3)
            assert got == reference_preservation(ref_oracle, 40, 3)
            worst = verify_reproduction(op, new_oracle, trials=40, seed=4)
            assert worst == reference_reproduction(op, ref_oracle, trials=40, seed=4)
            assert_same_rays(new_asked, ref_asked)
            outcomes.append((got, worst, [x.tobytes() for x in new_asked]))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("dim", [2, 8, 64])
    def test_an_oracle_reusing_one_buffer_reports_as_a_fresh_one(self, dim):
        u = random_unitary(dim, 12 + dim)
        op = SymmetryOperator(u)
        fresh = RayMapOracle(dim, dim, lambda ray: canonical_ray(u @ ray.rep), label="fresh")
        reports = [
            (check_orthogonality_preservation(o, 40, 5), verify_reproduction(op, o, 40, 6))
            for o in (fresh, buffer_oracle(u))
        ]
        assert reports[0] == reports[1]
        assert reports[0][0].entries[0].worst_residual < 1e-12  # the map is a unitary's


def identity_oracle(dim):
    return RayMapOracle(dim, dim, lambda ray: ray, label="identity")


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    @pytest.mark.parametrize("check", ["preservation", "reproduction"])
    def test_peak_does_not_grow_with_trials(self, check):
        dim = 64
        oracle = identity_oracle(dim)
        op = SymmetryOperator(np.eye(dim))
        if check == "preservation":
            def run(trials):
                return check_orthogonality_preservation(oracle, trials, seed=1)
        else:
            def run(trials):
                return verify_reproduction(op, oracle, trials=trials, seed=1)
        run(64)  # first-call allocations are not per-trial memory
        peaks = [traced_peak(lambda: run(trials)) for trials in (64, 640, 6400)]
        # one block's arrays: 32 trials x 4 rays x 64 complex entries is 128 KiB a stack
        assert peaks[0] < 2 * 1024 * 1024
        assert max(peaks) <= 1.1 * peaks[0]
