"""The sampled checks at any block size, the Rays they keep alive, and their ``trials``.

``check_orthogonality_preservation`` and ``verify_reproduction`` draw their
trials in blocks of max(SAMPLE_BLOCK, _SAMPLE_BUDGET // dim) trials.  The
block size only groups the arithmetic: at one trial per block, at 32 and at
the budget rule they must ask the same rays and report the same residuals.
"""

import gc

import numpy as np
import pytest

from raysym import (
    Ray,
    RayMapOracle,
    SymmetryOperator,
    canonical_ray,
    check_orthogonality_preservation,
    induced_map,
    random_unitary,
    verify_reproduction,
)
from raysym import rays

#: (SAMPLE_BLOCK, _SAMPLE_BUDGET) pairs: one trial per block, 32 trials per block, the budget rule.
BLOCK_RULES = {
    "one": (1, 1),
    "thirty-two": (32, 0),
    "budget": (rays.SAMPLE_BLOCK, rays._SAMPLE_BUDGET),
}


def recording(oracle):
    """The oracle, plus the bytes of the rays it is asked for, in order."""
    asked = []

    def image(ray):
        asked.append(ray.rep.tobytes())
        return oracle.image(ray)

    return RayMapOracle(oracle.dim_in, oracle.dim_out, image, label=oracle.label), asked


def oracles(dim, seed):
    """A matrix oracle (pending answers) and a plain callable that is not Wigner (read answers)."""
    u = random_unitary(dim, seed)
    rng = np.random.default_rng(seed + 50)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    def leaky(ray):
        answer = canonical_ray(u @ ray.rep + 0.01 * (g @ ray.rep))
        answer.rep
        return answer

    op = SymmetryOperator(u, antiunitary=seed % 2 == 1)
    return [(op, induced_map(op)), (op, RayMapOracle(dim, dim, leaky, label="leaky"))]


class TestBlockSizeInvariance:
    @pytest.mark.parametrize("dim", [2, 3, 8, 16, 64, 128])
    def test_every_block_rule_asks_and_reports_the_same(self, dim, monkeypatch):
        trials = 70  # at dim 128: two full blocks of 32 and a partial one
        for seed in (0, 3, 8):
            for k, (op, oracle) in enumerate(oracles(dim, seed)):
                outcomes = {}
                for name, (block, budget) in BLOCK_RULES.items():
                    monkeypatch.setattr(rays, "SAMPLE_BLOCK", block)
                    monkeypatch.setattr(rays, "_SAMPLE_BUDGET", budget)
                    recorder, asked = recording(oracle)
                    report = check_orthogonality_preservation(recorder, trials, seed + k)
                    worst = verify_reproduction(op, recorder, trials, seed + 2)
                    outcomes[name] = (report, worst, asked)
                    monkeypatch.undo()
                first = outcomes["one"]
                assert len(first[2]) == 5 * trials
                for name, outcome in outcomes.items():
                    assert outcome[0] == first[0], name
                    assert outcome[1] == first[1], name
                    assert outcome[2] == first[2], name
                if k == 1:
                    assert not first[0].passed  # the leak shows in the residuals compared


def live_rays():
    return sum(type(obj) is Ray for obj in gc.get_objects())


class TestLiveRays:
    def test_no_ray_per_answer_is_kept_alive(self):
        # A plain callable at dim 2, where one block holds every trial.
        u = random_unitary(2, 4)
        counts, calls = [], [0]

        def image(ray):
            calls[0] += 1
            if calls[0] % 50 == 0:
                counts.append(live_rays())
            return canonical_ray(u @ ray.rep)

        oracle = RayMapOracle(2, 2, image, label="callable")
        gc.collect()
        before = live_rays()
        check_orthogonality_preservation(oracle, 200, seed=1)
        verify_reproduction(SymmetryOperator(u), oracle, trials=100, seed=2)
        assert calls[0] == 900
        assert len(counts) == 18
        # The ray being asked and at most the answer before it: no answer outlives the next ask.
        assert max(counts) - before <= 2


class TestTrialsArgument:
    @pytest.fixture
    def asked(self):
        return recording(induced_map(SymmetryOperator(random_unitary(3, 1))))

    @pytest.mark.parametrize("bad", [3.0, "3", None])
    def test_a_non_integral_count_raises_naming_trials_before_any_ray(self, asked, bad):
        oracle, rays_asked = asked
        op = SymmetryOperator(np.eye(3))
        with pytest.raises(TypeError, match="trials"):
            check_orthogonality_preservation(oracle, bad, seed=1)
        with pytest.raises(TypeError, match="trials"):
            verify_reproduction(op, oracle, trials=bad, seed=1)
        assert rays_asked == []

    @pytest.mark.parametrize("count, want", [(True, 1), (np.int64(3), 3), (np.uint8(2), 2)])
    def test_an_integral_count_is_stored_as_a_python_int(self, asked, count, want):
        oracle, rays_asked = asked
        report = check_orthogonality_preservation(oracle, count, seed=1)
        assert [type(e.trials) for e in report.entries] == [int, int]
        assert [e.trials for e in report.entries] == [want, want]
        assert report == check_orthogonality_preservation(oracle, want, seed=1)
        op = SymmetryOperator(np.eye(3))
        assert verify_reproduction(op, oracle, count, 2) == verify_reproduction(op, oracle, want, 2)
        assert len(rays_asked) == 4 * want + 4 * want + 2 * want
