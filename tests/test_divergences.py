import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_pair, tv_bruteforce
from tvdp import (
    DiscretePair,
    DivergenceSpec,
    ValidationError,
    chi_squared,
    dominating_pure,
    f_divergence,
    kl_divergence,
    le_cam,
    total_variation,
)

E = math.e
ETA_REF = 0.323482


def _pair(seed, size=6, full_support=False):
    rng = np.random.default_rng(seed)
    return DiscretePair(*random_pair(rng, size, full_support))


class TestDiscretePair:
    def test_valid(self):
        p = DiscretePair(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert p.alphabet_size == 2
        assert p.tv() == pytest.approx(0.25)

    def test_sum_checked(self):
        with pytest.raises(ValidationError):
            DiscretePair(np.array([0.5, 0.4]), np.array([0.5, 0.5]))

    def test_negative_checked(self):
        with pytest.raises(ValidationError):
            DiscretePair(np.array([1.1, -0.1]), np.array([0.5, 0.5]))

    def test_shape_checked(self):
        with pytest.raises(ValidationError):
            DiscretePair(np.array([1.0]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("p0, p1", [([math.nan, 1.0], [0.5, 0.5]), ([0.5, 0.5], [1.0, math.nan])])
    def test_nan_checked(self, p0, p1):
        # NaN compares False, so it passes the sign and sum checks
        with pytest.raises(ValidationError, match="NaN"):
            DiscretePair(np.array(p0), np.array(p1))


class TestFDivergence:
    def test_zero_on_equal(self):
        p = DiscretePair(np.full(5, 0.2), np.full(5, 0.2))
        for spec in (DivergenceSpec.tv(), DivergenceSpec.kl(), DivergenceSpec.chi_squared(), DivergenceSpec.le_cam(0.3)):
            assert f_divergence(p, spec) == 0.0

    def test_dominating_pure_kl_closed_form(self):
        # eta * eps by direct summation
        pair = dominating_pure(1.0, ETA_REF)
        direct = sum(
            q1 * (q0 / q1) * math.log(q0 / q1) for q0, q1 in zip(pair.p0, pair.p1)
        )
        assert kl_divergence(pair) == pytest.approx(direct, abs=1e-15)
        assert kl_divergence(pair) == pytest.approx(ETA_REF * 1.0, abs=1e-6)

    def test_dominating_pure_tv(self):
        pair = dominating_pure(1.0, ETA_REF)
        assert total_variation(pair) == pytest.approx(ETA_REF, abs=1e-12)
        assert total_variation(pair) == pytest.approx(tv_bruteforce(pair.p0, pair.p1), abs=1e-15)

    def test_infinite_kl_when_support_differs(self):
        pair = DiscretePair(np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.5]))
        assert kl_divergence(pair) == math.inf
        assert chi_squared(pair) == math.inf
        assert total_variation(pair) == pytest.approx(0.5)

    def test_le_cam_one_sided_mass_conventions(self):
        pair = DiscretePair(np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.5]))
        beta = 0.3
        # p1=0 < p0 contributes (1-beta) p0; p0=0 < p1 contributes beta p1
        expected = (1 - beta) * 0.5 + beta * 0.5
        assert le_cam(pair, beta) == pytest.approx(expected, abs=1e-15)
        assert f_divergence(pair, DivergenceSpec.le_cam(beta)) == pytest.approx(expected, abs=1e-15)

    def test_custom_requires_f_of_one_zero(self):
        bad = DivergenceSpec.custom(lambda t: t, name="bad")
        with pytest.raises(ValidationError, match="f\\(1\\) = 0"):
            f_divergence(_pair(0), bad)

    def test_custom_matches_builtin(self):
        spec = DivergenceSpec.custom(lambda t: (t - 1.0) ** 2, value_at_zero=1.0)
        pair = _pair(3, full_support=True)
        assert f_divergence(pair, spec) == pytest.approx(chi_squared(pair), abs=1e-14)


class TestLeCam:
    def test_beta_range(self):
        with pytest.raises(ValidationError):
            le_cam(_pair(1), 0.0)
        with pytest.raises(ValidationError):
            le_cam(_pair(1), 1.0)

    def test_dominating_closed_form_at_half(self):
        # eta (e^eps - 1)/(e^eps + 1) at beta = 1/2
        pair = dominating_pure(1.0, ETA_REF)
        direct = 0.25 * sum(
            (q0 - q1) ** 2 / (0.5 * q0 + 0.5 * q1) for q0, q1 in zip(pair.p0, pair.p1)
        )
        assert le_cam(pair, 0.5) == pytest.approx(direct, abs=1e-15)
        assert le_cam(pair, 0.5) == pytest.approx(ETA_REF * (E - 1) / (E + 1), abs=1e-6)

    def test_grid_supremum_at_half(self):
        pair = dominating_pure(1.0, ETA_REF)
        betas = np.linspace(0.0, 1.0, 1003)[1:-1]
        vals = [le_cam(pair, b) for b in betas]
        best = max(vals)
        assert best == pytest.approx(0.149487, abs=1e-6)
        assert betas[int(np.argmax(vals))] == pytest.approx(0.5, abs=1e-3)

    def test_matches_f_divergence_spec(self):
        pair = _pair(5)
        for beta in (0.1, 0.5, 0.9):
            assert le_cam(pair, beta) == pytest.approx(
                f_divergence(pair, DivergenceSpec.le_cam(beta)), abs=1e-14
            )


def _push(channel_matrix, p):
    return p @ channel_matrix


class TestInequalities:
    @pytest.mark.parametrize("kind", ["tv", "kl", "chi2"])
    def test_data_processing(self, kind):
        specs = {
            "tv": DivergenceSpec.tv(),
            "kl": DivergenceSpec.kl(),
            "chi2": DivergenceSpec.chi_squared(),
        }
        rng = np.random.default_rng(42)
        for _ in range(50):
            p0, p1 = random_pair(rng, 5, full_support=True)
            w = rng.dirichlet(np.ones(4), size=5)  # random 5x4 channel
            before = f_divergence(DiscretePair(p0, p1), specs[kind])
            after = f_divergence(DiscretePair(_push(w, p0), _push(w, p1)), specs[kind])
            assert after <= before + 1e-9

    def test_pinsker(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pair = DiscretePair(*random_pair(rng, 6, full_support=True))
            assert kl_divergence(pair) >= 2.0 * pair.tv() ** 2 - 1e-9

    def test_kl_below_log_one_plus_chi2(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            pair = DiscretePair(*random_pair(rng, 6, full_support=True))
            assert kl_divergence(pair) <= math.log1p(chi_squared(pair)) + 1e-9

    def test_joint_convexity(self):
        rng = np.random.default_rng(3)
        spec = DivergenceSpec.kl()
        for _ in range(50):
            pa = random_pair(rng, 5, full_support=True)
            pb = random_pair(rng, 5, full_support=True)
            lam = rng.random()
            mixed = DiscretePair(
                lam * pa[0] + (1 - lam) * pb[0], lam * pa[1] + (1 - lam) * pb[1]
            )
            bound = lam * f_divergence(DiscretePair(*pa), spec) + (1 - lam) * f_divergence(
                DiscretePair(*pb), spec
            )
            assert f_divergence(mixed, spec) <= bound + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["tv", "kl", "chi2", "lecam"]))
def test_divergences_nonnegative_property(seed, kind):
    rng = np.random.default_rng(seed)
    pair = DiscretePair(*random_pair(rng, int(rng.integers(2, 9))))
    spec = {
        "tv": DivergenceSpec.tv(),
        "kl": DivergenceSpec.kl(),
        "chi2": DivergenceSpec.chi_squared(),
        "lecam": DivergenceSpec.le_cam(0.37),
    }[kind]
    assert f_divergence(pair, spec) >= -1e-15
