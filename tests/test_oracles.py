import gc
import re
import sys
import threading

import numpy as np
import pytest

from raysym import (
    BasisImages,
    DimensionMismatch,
    Ray,
    RayMapOracle,
    SingularMatrix,
    SymmetryOperator,
    canonical_ray,
    check_orthogonality_preservation,
    fix_phases,
    gauge_residual,
    general_induced_map,
    induced_map,
    map_basis,
    probe_automorphism,
    random_unitary,
    reconstruct,
    verify_reproduction,
)
from raysym.oracles import MAX_CONDITION
from raysym.rays import _matvec_answers, canonical_rays, ray_function, sample_ray

from conftest import axis_vector

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestSymmetryOperator:
    def test_unitarity_defect_of_unitary(self):
        op = SymmetryOperator(random_unitary(6, seed=1))
        assert op.unitarity_defect() <= 1e-13

    def test_unitarity_defect_of_scaled_matrix(self):
        op = SymmetryOperator(2.0 * np.eye(3))
        assert op.unitarity_defect() == pytest.approx(3.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymmetryOperator(np.ones((2, 3)))

    def test_rejects_nonfinite_entries(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(ValueError):
            SymmetryOperator(m)

    def test_matrix_is_read_only(self):
        op = SymmetryOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 3.0

    @pytest.mark.parametrize("flag", ["false", "", 0, 1, 1.0, None, [True]])
    def test_rejects_a_flag_that_is_not_a_bool(self, flag):
        # bool("false") is True: a string flag must not make the operator antiunitary.
        message = f"^antiunitary must be a bool, got {type(flag).__name__}$"
        with pytest.raises(TypeError, match=message):
            SymmetryOperator(np.eye(2), antiunitary=flag)

    @pytest.mark.parametrize("flag", [False, True, np.bool_(False), np.bool_(True)])
    def test_accepts_bool_and_numpy_bool_flags(self, flag):
        assert SymmetryOperator(np.eye(2), antiunitary=flag).antiunitary is bool(flag)


#: Every public site that takes a square matrix, with the field name its errors use.
MATRIX_SITES = {
    "SymmetryOperator": (lambda m: SymmetryOperator(m), "matrix"),
    "BasisImages": (lambda m: BasisImages(m, gram_defect=0.0), "columns"),
    "gauge_residual-candidate": (lambda m: gauge_residual(m, np.eye(3)), "candidate"),
    "gauge_residual-reference": (lambda m: gauge_residual(np.eye(3), m), "reference"),
    "general_induced_map": (lambda m: general_induced_map(m), "matrix"),
}


class TestOneMatrixCheck:
    """Each site refuses a matrix that is not square, nonempty and finite, with one message."""

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)],
        ids=["nan", "inf", "-inf", "imaginary-nan", "imaginary-inf"],
    )
    @pytest.mark.parametrize("site", MATRIX_SITES)
    def test_refuses_a_non_finite_entry(self, site, value):
        build, name = MATRIX_SITES[site]
        m = np.eye(3, dtype=np.complex128)
        m[2, 1] = value
        with pytest.raises(ValueError) as info:
            build(m)
        assert str(info.value) == f"{name} entries must be finite"

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 2), (0, 0), (), (2, 2, 2)])
    @pytest.mark.parametrize("site", MATRIX_SITES)
    def test_refuses_anything_but_a_square_nonempty_matrix(self, site, shape):
        build, name = MATRIX_SITES[site]
        with pytest.raises(ValueError) as info:
            build(np.ones(shape))
        assert str(info.value) == f"{name} must be square and nonempty, got shape {shape}"


class TestInducedMap:
    def test_identity_is_identity_on_rays(self):
        oracle = induced_map(SymmetryOperator(np.eye(3)))
        rng = np.random.default_rng(2)
        for _ in range(20):
            r = sample_ray(3, rng)
            np.testing.assert_allclose(oracle.image(r).rep, r.rep, rtol=0, atol=1e-14)

    def test_antiunitary_identity_conjugates_components(self):
        oracle = induced_map(SymmetryOperator(np.eye(2), antiunitary=True))
        r = canonical_ray(np.array([1.0, 1.0j]))
        expected = canonical_ray(np.array([1.0, -1.0j]))
        np.testing.assert_allclose(oracle.image(r).rep, expected.rep, rtol=0, atol=1e-14)

    def test_swap_sends_first_axis_to_second(self):
        oracle = induced_map(SymmetryOperator(SWAP))
        img = oracle.image(canonical_ray(axis_vector(2, 0)))
        expected = canonical_ray(axis_vector(2, 1))
        np.testing.assert_allclose(img.rep, expected.rep, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("antiunitary", [False, True], ids=["linear", "antilinear"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_every_kind_of_asked_ray_gets_the_same_answer(self, dim, antiunitary):
        # The answer reads a ray's stored rep, or makes it for a pending Ray(v).
        oracle = induced_map(SymmetryOperator(random_unitary(dim, seed=dim), antiunitary))
        v = np.random.default_rng(dim).standard_normal(2 * dim).view(np.complex128) * 3.0
        pending, read = Ray(v), Ray(v)
        read.rep
        assert pending._rep is None and read._rep is not None
        wrapped = Ray._from_canonical(canonical_rays(v[None])[0])
        answers = [oracle.image(ray).rep.tobytes() for ray in (pending, read, wrapped)]
        assert answers == [answers[0]] * 3
        assert pending.rep.tobytes() == wrapped.rep.tobytes()

    def test_rejects_singular_matrix(self):
        with pytest.raises(SingularMatrix):
            induced_map(SymmetryOperator(np.diag([1.0, 0.0])))

    def test_rejects_ill_conditioned_matrix(self):
        with pytest.raises(SingularMatrix):
            induced_map(SymmetryOperator(np.diag([1.0, 1e-13])))


class TestGeneralInducedMap:
    def test_diagonal_stretch(self):
        oracle = general_induced_map(np.diag([1.0, 2.0, 1.0]))
        img = oracle.image(canonical_ray(np.array([1.0, 1.0, 0.0])))
        expected = canonical_ray(np.array([1.0, 2.0, 0.0]))
        np.testing.assert_allclose(img.rep, expected.rep, rtol=0, atol=1e-14)

    def test_scalar_multiples_induce_the_same_oracle(self):
        u = random_unitary(4, seed=9)
        oracle_a = general_induced_map(u)
        oracle_b = general_induced_map((2.0 - 3.0j) * u)
        rng = np.random.default_rng(11)
        for _ in range(100):
            r = sample_ray(4, rng)
            a, b = oracle_a.image(r), oracle_b.image(r)
            np.testing.assert_allclose(a.rep, b.rep, rtol=0, atol=1e-12)

    def test_rotation_by_45_degrees(self):
        c = np.cos(np.pi / 4)
        s = np.sin(np.pi / 4)
        oracle = general_induced_map(np.array([[c, -s], [s, c]]))
        img = oracle.image(canonical_ray(axis_vector(2, 0)))
        expected = canonical_ray(np.array([1.0, 1.0], dtype=complex))
        np.testing.assert_allclose(img.rep, expected.rep, rtol=0, atol=1e-14)

    def test_conjugate_first_flag(self):
        oracle = general_induced_map(np.eye(2), conjugate_first=True)
        img = oracle.image(canonical_ray(np.array([1.0, 1.0j])))
        expected = canonical_ray(np.array([1.0, -1.0j]))
        np.testing.assert_allclose(img.rep, expected.rep, rtol=0, atol=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            general_induced_map(np.ones((2, 3)))

    @pytest.mark.parametrize("flag", ["no", 0, None])
    def test_rejects_a_flag_that_is_not_a_bool(self, flag):
        message = f"^conjugate_first must be a bool, got {type(flag).__name__}$"
        with pytest.raises(TypeError, match=message):
            general_induced_map(np.eye(2), conjugate_first=flag)


def _condition_cases():
    """(id, matrix) pairs on both sides of the condition test and of its Gram certificate."""
    cases = [("subnormal-identity", 2.0**-1074 * np.eye(3))]
    for dim in (2, 3, 4, 8, 16, 32, 64):
        u = random_unitary(dim, seed=dim)
        g = np.random.default_rng(dim).standard_normal((2, dim, dim))
        cases += [
            (f"haar-{dim}", u),
            (f"haar-diag-{dim}", u * (1.0 + np.arange(dim) / dim)),
            (f"ginibre-{dim}", g[0] + 1j * g[1]),
        ]
    for c in (1e11, 1e12 * (1 - 1e-3), 1e12, 1e12 * (1 + 1e-3), 1e13):
        cases.append((f"diag-{c:.4g}", np.diag([c, 2.0, 1.0])))
    cases += [
        ("shear", np.array([[1.0, 1.0], [0.0, 1.0]])),
        ("steep-shear", np.array([[1.0, 2.0], [0.0, 1.0]])),
        ("singular", np.diag([1.0, 0.0])),
        ("zero", np.zeros((3, 3))),
    ]
    return cases


CONDITION_CASES = _condition_cases()

#: Cases whose Gram discs certify a condition number of at most 2.
CERTIFIED = ["subnormal-identity"] + [
    f"{family}-{dim}" for family in ("haar", "haar-diag") for dim in (2, 3, 4, 8, 16, 32, 64)
]
#: Well-conditioned cases whose Gram discs reach 0, so only the SVD accepts them.
SVD_ACCEPTED = ["shear", "steep-shear"]


def _build_oracles(m, flag):
    yield lambda: induced_map(SymmetryOperator(m, antiunitary=flag))
    yield lambda: general_induced_map(m, conjugate_first=flag)


class TestConditionCertificate:
    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        cond = np.linalg.cond

        def counted(m, *args):
            calls.append(m)
            return cond(m, *args)

        monkeypatch.setattr(np.linalg, "cond", counted)
        return calls

    @pytest.mark.parametrize("flag", [False, True])
    @pytest.mark.parametrize(
        "m", [m for _, m in CONDITION_CASES], ids=[name for name, _ in CONDITION_CASES]
    )
    def test_refuses_exactly_what_the_svd_refuses(self, m, flag):
        cond = np.linalg.cond(m)
        for build in _build_oracles(m, flag):
            if np.isfinite(cond) and cond < MAX_CONDITION:
                build()
            else:
                with pytest.raises(SingularMatrix) as info:
                    build()
                assert str(info.value) == f"matrix condition number {cond:.3e} exceeds 1e+12"

    @pytest.mark.parametrize("name", CERTIFIED + SVD_ACCEPTED)
    def test_the_svd_runs_only_when_the_discs_do_not_certify(self, svd_calls, name):
        m = dict(CONDITION_CASES)[name]
        for build in _build_oracles(m, False):
            build()
        assert len(svd_calls) == (0 if name in CERTIFIED else 2)

    def test_the_boundary_cases_span_the_threshold(self):
        conds = {name: np.linalg.cond(m) for name, m in CONDITION_CASES}
        names = ("1e+11", "9.99e+11", "1e+12", "1.001e+12", "1e+13")
        diagonal = [conds[f"diag-{c}"] for c in names]
        assert diagonal == sorted(diagonal) and diagonal[1] < MAX_CONDITION <= diagonal[2]
        assert not np.isfinite(conds["zero"]) and conds["shear"] < 3 < conds["steep-shear"] < 6


#: The CONDITION_CASES that both builders accept (a NaN condition compares False).
ACCEPTED = [name for name, m in CONDITION_CASES if np.linalg.cond(m) < MAX_CONDITION]


class TestOneBuilder:
    """``general_induced_map(m, f)`` is ``induced_map(SymmetryOperator(m, antiunitary=f))``."""

    @pytest.mark.parametrize("flag", [False, True])
    @pytest.mark.parametrize("name", ACCEPTED)
    def test_both_builders_answer_the_same_bits(self, name, flag):
        m = dict(CONDITION_CASES)[name]
        dim = m.shape[0]
        general = general_induced_map(m, conjugate_first=flag)
        induced = induced_map(SymmetryOperator(m, antiunitary=flag))
        kind = "antilinear" if flag else "linear"
        assert repr(general) == repr(induced) == f"RayMapOracle({kind}[dim={dim}], {dim} -> {dim})"
        rng = np.random.default_rng(dim)
        stacks = [
            canonical_rays(np.eye(dim, dtype=np.complex128)),
            canonical_rays(rng.standard_normal((5, dim)) + 1j * rng.standard_normal((5, dim))),
        ]
        for rows in stacks:
            assert general._images(rows).tobytes() == induced._images(rows).tobytes()
            # the slice-probe answers: the whole stack, and each row as a lone probe
            for probes in (rows, *(row[None] for row in rows)):
                answers = [a.tobytes() for a in general._probe_answers(probes)]
                assert answers == [a.tobytes() for a in induced._probe_answers(probes)]


class TestOracleInterface:
    def test_image_is_deterministic(self):
        oracle = induced_map(SymmetryOperator(random_unitary(5, seed=4)))
        r = sample_ray(5, np.random.default_rng(6))
        assert np.array_equal(oracle.image(r).rep, oracle.image(r).rep)

    def test_rejects_wrong_input_dimension(self):
        oracle = induced_map(SymmetryOperator(np.eye(3)))
        with pytest.raises(DimensionMismatch):
            oracle.image(canonical_ray(axis_vector(2, 0)))

    def test_rejects_wrong_output_dimension(self):
        oracle = RayMapOracle(2, 3, lambda r: r)
        with pytest.raises(DimensionMismatch):
            oracle.image(canonical_ray(axis_vector(2, 0)))

    @pytest.mark.parametrize(
        "x, type_name",
        [(np.array([1.0, 0.0]), "ndarray"), ([1.0, 0.0], "list"), (None, "NoneType")],
        ids=["ndarray", "list", "none"],
    )
    def test_rejects_an_input_that_is_not_a_ray(self, x, type_name):
        oracle = induced_map(SymmetryOperator(np.eye(2)))
        message = rf"^{re.escape(repr(oracle))} was asked {type_name}, not a Ray$"
        with pytest.raises(TypeError, match=message):
            oracle.image(x)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            RayMapOracle(0, 2, lambda r: r)

    def test_rejects_non_integral_dimensions(self):
        with pytest.raises(TypeError):
            RayMapOracle(2.9, 3.7, lambda r: r)
        with pytest.raises(TypeError):
            RayMapOracle(2, 3.0, lambda r: r)
        oracle = RayMapOracle(np.int64(2), np.uint8(3), lambda r: r)
        assert (oracle.dim_in, oracle.dim_out) == (2, 3)
        assert type(oracle.dim_in) is type(oracle.dim_out) is int


#: Answers that are not rays: a bare vector, and no answer at all.
NOT_RAYS = [
    pytest.param(lambda r: r.rep * 2, "ndarray", id="vector"),
    pytest.param(lambda r: None, "NoneType", id="none"),
]


class TestNonRayAnswer:
    @staticmethod
    def raises(oracle, type_name):
        message = rf"^{re.escape(repr(oracle))} answered {type_name}, not a Ray$"
        return pytest.raises(TypeError, match=message)

    @pytest.mark.parametrize("image_fn, type_name", NOT_RAYS)
    def test_image(self, image_fn, type_name):
        oracle = RayMapOracle(2, 2, image_fn, label="bad")
        with self.raises(oracle, type_name):
            oracle.image(canonical_ray(axis_vector(2, 0)))

    @pytest.mark.parametrize("image_fn, type_name", NOT_RAYS)
    def test_reconstruct(self, image_fn, type_name):
        oracle = RayMapOracle(2, 2, image_fn)
        with self.raises(oracle, type_name):
            reconstruct(oracle, 2)

    @pytest.mark.parametrize("image_fn, type_name", NOT_RAYS)
    def test_sampled_check(self, image_fn, type_name):
        oracle = RayMapOracle(3, 3, image_fn)
        with self.raises(oracle, type_name):
            check_orthogonality_preservation(oracle, trials=5, seed=1)


def _writing_oracle(dim):
    """An oracle that writes into the ray it is asked before it answers."""

    def image_fn(ray):
        ray.rep[-1] = 0.5
        return ray

    return RayMapOracle(dim, dim, image_fn, label="writer")


#: Every place the library asks an oracle: (oracle, phase-fixed basis) -> result.
ASK_SITES = {
    "map_basis": lambda oracle, fixed: map_basis(oracle, 3),
    "fix_phases": lambda oracle, fixed: fix_phases(oracle, fixed),
    "probe_automorphism": lambda oracle, fixed: probe_automorphism(oracle, fixed),
    "check_orthogonality_preservation": (
        lambda oracle, fixed: check_orthogonality_preservation(oracle, trials=5, seed=1)
    ),
    "verify_reproduction": (
        lambda oracle, fixed: verify_reproduction(SymmetryOperator(np.eye(3)), oracle, 5)
    ),
}


@pytest.mark.parametrize("site", ASK_SITES)
def test_oracles_are_asked_read_only_rays(site):
    # An oracle cannot change the source rays the library still reads after asking.
    good = induced_map(SymmetryOperator(random_unitary(3, seed=21)))
    fixed = fix_phases(good, map_basis(good, 3))
    with pytest.raises(ValueError, match="read-only"):
        ASK_SITES[site](_writing_oracle(3), fixed)


@pytest.mark.parametrize("antiunitary", [False, True], ids=["linear", "antilinear"])
@pytest.mark.parametrize(
    "dim, scale",
    [
        pytest.param(dim, scale, id=f"{dim}" if scale == 1.0 else f"{dim}-{scale:g}")
        for scale in (1.0, 1e300, 1.5e308)
        for dim in (2, 3, 8, 64, 256)
    ],
)
def test_matrix_answers_are_the_rays_of_the_matmul(dim, antiunitary, scale):
    # Bit for bit Ray(m @ x), or Ray(m @ conj(x)), whatever numpy and BLAS compute
    # with, asked alone or as a stack, at every scale where m @ x stays normal.
    op = SymmetryOperator(scale * random_unitary(dim, seed=dim), antiunitary=antiunitary)
    oracle, m = induced_map(op), op.matrix
    rng = np.random.default_rng(100 + dim)
    rays = [sample_ray(dim, rng) for _ in range(20)]
    rows = np.array([r.rep for r in rays])
    products = np.array([m @ x for x in (np.conj(rows) if antiunitary else rows)])
    mags = np.abs(products.view(np.float64))
    assert np.isfinite(mags).all() and (mags[mags > 0.0] >= np.finfo(np.float64).tiny).all()
    want = [Ray(v).rep for v in products]
    for r, w in zip(rays, want):
        assert oracle.image(r).rep.tobytes() == w.tobytes()
    assert oracle._images(rows).tobytes() == np.array(want).tobytes()


def _stack_rows(dim, k, seed):
    """k canonical rows, a third with pivot past coordinate 0 (a zero or sub-PIVOT_TOL lead)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))
    if dim > 1:
        z[: k // 6, 0] = 0.0
        z[k // 6 : k // 3, 0] *= 1e-12
    return canonical_rays(z)


def _ginibre(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


#: Matrix oracles by kind: (dim) -> oracle.
PRODUCT_ORACLES = {
    "unitary": lambda dim: induced_map(SymmetryOperator(random_unitary(dim, seed=dim))),
    "antiunitary": lambda dim: induced_map(SymmetryOperator(random_unitary(dim, seed=dim), True)),
    "general": lambda dim: general_induced_map(_ginibre(dim, dim)),
    "general-2**600": lambda dim: general_induced_map(2.0**600 * _ginibre(dim, dim), True),
    "antiunitary-2**-600": lambda dim: induced_map(
        SymmetryOperator(2.0**-600 * random_unitary(dim, seed=dim), True)
    ),
}


class TestStackedProducts:
    """A matrix oracle answers a lone ray with a pending product, and a stack with one product."""

    @staticmethod
    def logged(image_fn):
        """An ``image_fn`` over ``image_fn(j, ray)`` that logs each asked rep, answer and pending flag."""
        asked, answers, pending = [], [], []

        def ask(ray):
            asked.append(ray.rep.tobytes())
            answers.append(image_fn(len(answers), ray))
            pending.append(answers[-1]._rep is None)
            return answers[-1]

        return asked, answers, pending, ask

    @pytest.mark.parametrize("kind", PRODUCT_ORACLES)
    @pytest.mark.parametrize("dim", [1, 2, 3, 16, 17, 64])
    def test_stack_rows_are_the_lone_answers(self, dim, kind, monkeypatch):
        oracle = PRODUCT_ORACLES[kind](dim)
        rows = _stack_rows(dim, 30, seed=dim)
        lone = [oracle.image(Ray._from_canonical(row)) for row in rows]
        assert all(answer._rep is None for answer in lone)
        want = np.array([answer.rep for answer in lone])
        # The stack makes no lone product: every row comes from the stacked one.
        lone_products = [0]
        product = type(lone[0])._pending.fget

        def counted(answer):
            lone_products[0] += 1
            return product(answer)

        monkeypatch.setattr(type(lone[0]), "_pending", property(counted))
        got = oracle._images(rows)
        assert got.tobytes() == want.tobytes()
        for probes in (rows, rows[:1]):
            (answers,) = oracle._probe_answers(probes)
            assert answers.tobytes() == want[: len(probes)].tobytes()
        assert lone_products[0] == 0

    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize(
        "pattern",
        [
            "alternating-oracles",
            "one-other-ray",
            "mixed-with-plain",
            "plain-first",
            "one-matrix-both-flags",
        ],
    )
    def test_other_answers_keep_their_own_rep(self, pattern, dim):
        linear = PRODUCT_ORACLES["unitary"](dim)
        antilinear = induced_map(SymmetryOperator(_ginibre(dim, 7), True))
        another = general_induced_map(_ginibre(dim, 9))  # linear too, by another matrix
        rng = np.random.default_rng(dim)
        other = Ray._from_canonical(_stack_rows(dim, 1, seed=99)[0])
        # The one matrix an oracle answers by, both as it is and conjugating first.
        m = _ginibre(dim, 8)
        both_flags = [_matvec_answers(m, flag) for flag in (False, True)]
        vs = rng.standard_normal((12, dim)) + 1j * rng.standard_normal((12, dim))

        def read(v):
            ray = Ray(v)
            ray.rep
            return ray

        image_fn = {
            "alternating-oracles": lambda j, ray: (linear, antilinear)[j % 2].image(ray),
            "one-other-ray": lambda j, ray: linear.image(other),
            "mixed-with-plain": lambda j, ray: (
                linear.image(ray),
                Ray(vs[j]),
                another.image(ray),
                read(vs[j]),
                linear.image(other),
                antilinear.image(ray),
            )[j % 6],
            "plain-first": lambda j, ray: Ray(vs[j]) if j < 3 else antilinear.image(ray),
            "one-matrix-both-flags": lambda j, ray: both_flags[j % 2](ray),
        }[pattern]
        rows = _stack_rows(dim, 12, seed=dim + 1)
        asked, answers, pending, ask = self.logged(image_fn)
        got = RayMapOracle(dim, dim, ask)._images(rows)
        assert asked == [row.tobytes() for row in rows]
        assert sum(pending) >= 10  # only a read Ray(v) answer has its rep when it is given
        # The stack sets no answer's rep; each row is what that answer reads alone.
        assert [a._rep is None for a in answers] == pending
        assert got.tobytes() == np.array([a.rep for a in answers]).tobytes()

    def test_no_product_is_kept_alive(self):
        # The plain loop copies each product and keeps none: at dim 2 one block holds every trial.
        inner = induced_map(SymmetryOperator(random_unitary(2, seed=4), True))
        counts = []

        def live():
            return sum(isinstance(obj, Ray) for obj in gc.get_objects())

        def image_fn(ray):
            answer = inner.image(ray)
            counts.append(live() if len(counts) % 50 == 49 else None)
            return answer

        gc.collect()
        before = live()
        check_orthogonality_preservation(RayMapOracle(2, 2, image_fn), 200, seed=1)
        counts = [c for c in counts if c is not None]
        assert len(counts) == 16
        # The ray being asked, its answer and at most the answer before it.
        assert max(counts) - before <= 3

    @pytest.mark.parametrize("antiunitary", [False, True], ids=["linear", "antilinear"])
    def test_concurrent_first_reads_of_a_product_see_the_same_bytes(self, antiunitary):
        # More threads than cores and a short switch interval, so the reads
        # interleave inside the product's first canonicalization.
        oracle = induced_map(SymmetryOperator(random_unitary(64, seed=5), antiunitary))
        rows = _stack_rows(64, 20, seed=6)
        want = oracle._images(rows)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for row, expected in zip(rows, want):
                answer = oracle.image(Ray._from_canonical(row))
                barrier = threading.Barrier(4)
                seen, errors = [], []

                def read(answer=answer, barrier=barrier, seen=seen, errors=errors):
                    try:
                        barrier.wait(timeout=10)
                        seen.append(answer.rep.tobytes())
                    except Exception as err:  # reported by the assertion below
                        errors.append(err)

                threads = [threading.Thread(target=read) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert seen == [expected.tobytes()] * 4
        finally:
            sys.setswitchinterval(interval)


class TestOrthogonalityPreservation:
    def test_unitary_oracle_passes(self):
        op = SymmetryOperator(random_unitary(6, seed=12))
        report = check_orthogonality_preservation(induced_map(op), trials=500, seed=3)
        orth, drift = report.entries
        assert report.passed
        assert orth.name == "orthogonality-preservation" and orth.worst_residual <= 1e-10
        assert drift.name == "ray-function-invariance" and drift.worst_residual <= 1e-10
        assert orth.trials == drift.trials == 500
        assert (report.dim, report.seed, report.error) == (6, 3, None)

    def test_antiunitary_oracle_passes(self):
        op = SymmetryOperator(random_unitary(4, seed=13), antiunitary=True)
        report = check_orthogonality_preservation(induced_map(op), trials=200, seed=3)
        assert report.passed
        assert report.entry("orthogonality-preservation").worst_residual <= 1e-10

    def test_diagonal_stretch_fails(self):
        oracle = general_induced_map(np.diag([1.0, 2.0, 1.0]))
        report = check_orthogonality_preservation(oracle, trials=200, seed=3)
        assert not report.passed
        assert report.entry("orthogonality-preservation").worst_residual > 1e-3

    def test_diagonal_stretch_witness_pair(self):
        # diag(1,2,1) maps the orthogonal pair (1,1,0), (1,-1,0) to rays with
        # u = (1-4)^2 / ((1+4)(1+4)) = 9/25
        oracle = general_induced_map(np.diag([1.0, 2.0, 1.0]))
        img_a = oracle.image(canonical_ray(np.array([1.0, 1.0, 0.0])))
        img_b = oracle.image(canonical_ray(np.array([1.0, -1.0, 0.0])))
        assert ray_function(img_a, img_b) == pytest.approx(9.0 / 25.0, abs=1e-12)

    def test_rejects_nonpositive_trials(self):
        oracle = induced_map(SymmetryOperator(np.eye(2)))
        with pytest.raises(ValueError):
            check_orthogonality_preservation(oracle, trials=0, seed=1)

    def test_report_is_deterministic(self):
        oracle = induced_map(SymmetryOperator(random_unitary(3, seed=21)))
        a = check_orthogonality_preservation(oracle, trials=50, seed=8)
        b = check_orthogonality_preservation(oracle, trials=50, seed=8)
        assert a == b


class TestRandomUnitary:
    def test_result_is_unitary(self):
        for dim in (1, 2, 5, 16):
            u = random_unitary(dim, seed=dim)
            defect = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
            assert defect <= 1e-12

    def test_deterministic_per_seed(self):
        assert np.array_equal(random_unitary(4, seed=5), random_unitary(4, seed=5))

    def test_distinct_seeds_differ(self):
        assert not np.allclose(random_unitary(4, seed=5), random_unitary(4, seed=6))

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            random_unitary(0, seed=1)
