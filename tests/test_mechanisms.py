import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from oracles import (
    gaussian_tv_quadrature,
    laplace_tv_quadrature,
    staircase_tv_quadrature,
)
from tvdp import (
    DominatingSpec,
    GaussianParams,
    PrivacyBudget,
    StaircaseSpec,
    ValidationError,
    alpha_from_budget,
    check_budget,
    curve_from_budget,
    curve_from_pair,
    dominating_approx,
    dominating_pure,
    gaussian_delta,
    gaussian_tv,
    laplace_tv,
    staircase_curve,
    staircase_gamma_for_alpha,
    staircase_tv,
    sup_norm,
    tv_feasibility_cap,
    tv_of_curve,
)
from tvdp.mechanisms import _expit

E = math.e
ETA_REF = 0.323482


class TestAlphaFromBudget:
    def test_reference_point(self):
        # eta = 0.7 (e-1)/(e+1) corresponds to alpha = 0.3
        assert alpha_from_budget(PrivacyBudget(1.0, 0.0, ETA_REF)) == pytest.approx(0.3, abs=1e-5)

    def test_eta_equals_delta_gives_one(self):
        assert alpha_from_budget(PrivacyBudget(1.0, 0.2, 0.2)) == 1.0

    def test_eta_at_cap_gives_zero(self):
        cap = tv_feasibility_cap(1.0, 0.1)
        assert alpha_from_budget(PrivacyBudget(1.0, 0.1, cap)) == pytest.approx(0.0, abs=1e-12)

    def test_eps_zero_degenerate(self):
        with pytest.raises(ValidationError):
            alpha_from_budget(PrivacyBudget(0.0, 0.1, 0.1))

    def test_eta_below_delta_rejected(self):
        with pytest.raises(ValidationError):
            alpha_from_budget(PrivacyBudget(1.0, 0.2, 0.1))

    def test_spec_from_budget(self):
        spec = DominatingSpec.from_budget(PrivacyBudget(1.0, 0.1, 0.4))
        assert (spec.epsilon, spec.delta) == (1.0, 0.1)
        assert spec.alpha == alpha_from_budget(PrivacyBudget(1.0, 0.1, 0.4))
        # eta = delta works at epsilon = 0 where alpha_from_budget cannot
        assert DominatingSpec.from_budget(PrivacyBudget(0.0, 0.1, 0.1)).alpha == 1.0
        with pytest.raises(ValidationError):
            DominatingSpec(1.0, 0.0, 1.5)


class TestDominatingPure:
    def test_reference_pmfs(self):
        pair = dominating_pure(1.0, ETA_REF)
        assert pair.p0 == pytest.approx([0.511741, 0.3, 0.188259], abs=1e-5)
        assert pair.p1 == pytest.approx(pair.p0[::-1], abs=0)
        assert pair.p0.sum() == pytest.approx(1.0, abs=1e-15)

    def test_eta_at_cap_kills_middle_symbol(self):
        pair = dominating_pure(1.0, tv_feasibility_cap(1.0, 0.0))
        assert pair.p0[1] == pytest.approx(0.0, abs=1e-12)

    def test_tv_by_construction(self):
        for eps, eta in ((0.5, 0.1), (1.0, ETA_REF), (2.0, 0.7)):
            pair = dominating_pure(eps, eta)
            assert pair.tv() == pytest.approx(eta, abs=1e-12)

    def test_eta_above_cap_rejected(self):
        with pytest.raises(ValidationError):
            dominating_pure(1.0, 0.5)


class TestDominatingApprox:
    def test_pure_case_embedded(self):
        five = dominating_approx(PrivacyBudget(1.0, 0.0, ETA_REF))
        three = dominating_pure(1.0, ETA_REF)
        assert five.p0[0] == 0.0 and five.p0[4] == 0.0
        assert five.p0[1:4] == pytest.approx(three.p0, abs=1e-15)

    def test_tv_equals_eta(self, budgets):
        for b in budgets:
            assert dominating_approx(b).tv() == pytest.approx(b.eta, abs=1e-12)

    def test_delta_mass_on_outer_symbols(self):
        pair = dominating_approx(PrivacyBudget(1.0, 0.1, 0.4))
        assert pair.p0[0] == 0.1 and pair.p1[4] == 0.1
        assert pair.p0[2] == pytest.approx(0.9 * alpha_from_budget(PrivacyBudget(1.0, 0.1, 0.4)))

    def test_budget_constraints_tight(self, budgets):
        for b in budgets:
            curve = curve_from_pair(dominating_approx(b))
            assert check_budget(curve, b)
            xs = curve.xs
            ee = math.exp(b.epsilon)
            # each constraint met with equality somewhere on the curve
            assert np.min(xs + ee * curve.ys) == pytest.approx(1 - b.delta, abs=1e-9)
            assert np.min(ee * xs + curve.ys) == pytest.approx(1 - b.delta, abs=1e-9)
            assert np.min(xs + curve.ys) == pytest.approx(1 - b.eta, abs=1e-9)

    def test_eps_zero_requires_eta_equal_delta(self):
        pair = dominating_approx(PrivacyBudget(0.0, 0.1, 0.1))
        assert pair.tv() == pytest.approx(0.1, abs=1e-15)
        with pytest.raises(ValidationError):
            dominating_approx(PrivacyBudget(0.0, 0.1, 0.15))


class TestExpit:
    EDGES = [0.0, 5e-324, 1e-12, 36.0, 709.78, 709.9, 745.0, 1e308]

    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(20)
        sweep = 10.0 ** rng.uniform(-12.0, math.log10(709.0), 200_000)
        xs = np.concatenate([self.EDGES, sweep])
        xs = np.concatenate([xs, -xs])
        ours = np.array([_expit(float(x)) for x in xs])
        assert np.array_equal(ours.view(np.int64), expit(xs).view(np.int64))


class TestLaplace:
    def test_closed_form_value(self):
        assert laplace_tv(1.0) == pytest.approx(0.393469, abs=1e-6)

    def test_vanishes_at_zero(self):
        assert laplace_tv(1e-12) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValidationError):
            laplace_tv(0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_nan_and_inf_rejected(self, eps):
        with pytest.raises(ValidationError, match="epsilon must be positive and finite"):
            laplace_tv(eps)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_against_quadrature(self, eps):
        assert laplace_tv(eps) == pytest.approx(laplace_tv_quadrature(eps), abs=1e-6)


class TestGaussian:
    def test_delta_at_zero_is_tv(self):
        mu = 1 / 1.3
        assert gaussian_delta(GaussianParams(mu), 0.0) == pytest.approx(2 * _phi(mu / 2) - 1, abs=1e-12)
        assert gaussian_tv(mu) == gaussian_delta(mu, 0.0)

    def test_reference_value(self):
        assert gaussian_tv(1 / 1.3) == pytest.approx(0.2994, abs=1e-4)

    def test_large_eps_vanishes(self):
        assert gaussian_delta(GaussianParams(1.0), 10.0) <= 1e-12

    def test_mu_zero_perfect_privacy(self):
        assert gaussian_delta(GaussianParams(0.0), 1.0) == 0.0
        assert gaussian_tv(0.0) == 0.0

    @pytest.mark.parametrize("mu", [0.5, 1 / 1.3, 2.0])
    def test_against_quadrature(self, mu):
        assert gaussian_tv(mu) == pytest.approx(gaussian_tv_quadrature(mu), abs=1e-6)

    def test_monotone_and_convex_in_eps(self):
        eps = np.linspace(0.0, 5.0, 201)
        vals = np.array([gaussian_delta(1.0, e) for e in eps])
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(np.diff(vals, 2) >= -1e-12)

    def test_group_lower_bound(self):
        # delta(eps) >= 1 - e^eps (1 - delta(0)) never violated
        d0 = gaussian_tv(1.0)
        for e in np.linspace(0.0, 3.0, 31):
            assert gaussian_delta(1.0, e) >= max(0.0, 1 - math.exp(e) * (1 - d0)) - 1e-12


def _phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestStaircase:
    def test_half_gamma_reference(self):
        assert staircase_tv(StaircaseSpec(0.5, 1.0)) == pytest.approx((E - 1) / (E + 1), abs=1e-12)

    def test_small_gamma_limit(self):
        assert staircase_tv(StaircaseSpec(1e-12, 1.0)) == pytest.approx((1 - 1 / E) / 2, abs=1e-9)

    def test_large_gamma_vanishes(self):
        assert staircase_tv(StaircaseSpec(1e6, 1.0)) <= 1e-5

    def test_continuous_at_half(self):
        below = staircase_tv(StaircaseSpec(0.5 - 1e-12, 1.0))
        at = staircase_tv(StaircaseSpec(0.5, 1.0))
        assert below == pytest.approx(at, abs=1e-10)

    def test_decreasing_beyond_half(self):
        gammas = np.linspace(0.5, 5.0, 50)
        vals = [staircase_tv(StaircaseSpec(g, 1.0)) for g in gammas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gamma", [0.01, 0.25, 0.5, 1.0, 3.0])
    def test_against_quadrature(self, gamma):
        assert staircase_tv(StaircaseSpec(gamma, 1.0)) == pytest.approx(
            staircase_tv_quadrature(gamma, 1.0), abs=1e-6
        )

    def test_normalizer_positive(self):
        assert StaircaseSpec(0.25, 1.0).a_gamma > 0
        with pytest.raises(ValidationError):
            StaircaseSpec(-0.1, 1.0)

    @pytest.mark.parametrize(
        "gamma, eps, sensitivity",
        [(math.nan, 1.0, 1.0), (0.3, math.nan, 1.0), (0.3, 1.0, math.nan), (math.inf, 1.0, 1.0), (0.3, math.inf, 1.0)],
    )
    def test_nan_and_inf_rejected(self, gamma, eps, sensitivity):
        with pytest.raises(ValidationError, match="positive and finite"):
            StaircaseSpec(gamma, eps, sensitivity)

    def test_cancelling_normalizer_names_gamma(self):
        # e^-eps rounds to 1, so gamma + e^-eps (1 - gamma) cancels to 0
        with pytest.raises(ValidationError, match=r"gamma = 1e\+308 .*epsilon = 1e-20"):
            staircase_tv(StaircaseSpec(1e308, 1e-20))


class TestStaircaseGammaForAlpha:
    def test_alpha_zero_gives_half(self):
        assert staircase_gamma_for_alpha(1.0, 0.0) == 0.5

    def test_reference_value(self):
        assert staircase_gamma_for_alpha(1.0, 0.3) == pytest.approx(0.0139, abs=0.0005)

    def test_round_trip_small_alpha(self):
        g = staircase_gamma_for_alpha(1.0, 0.3)
        target = 0.7 * (E - 1) / (E + 1)
        assert staircase_tv(StaircaseSpec(g, 1.0)) == pytest.approx(target, abs=1e-10)

    def test_large_alpha_second_branch(self):
        g = staircase_gamma_for_alpha(1.0, 0.999)
        assert g > 0.5
        target = 0.001 * (E - 1) / (E + 1)
        assert staircase_tv(StaircaseSpec(g, 1.0)) == pytest.approx(target, abs=1e-10)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValidationError):
            staircase_gamma_for_alpha(1.0, 1.0)

    @pytest.mark.parametrize(
        "eps, alpha",
        [
            (14.287026620351535, 0.4159649145968426),  # a bracketed solve missed 1e-10
            (1.0082184410819636e-06, 5.1179711627827e-13),  # its bracket had no sign change
        ],
    )
    def test_meets_tolerance_where_root_finding_failed(self, eps, alpha):
        g = staircase_gamma_for_alpha(eps, alpha)
        target = (1.0 - alpha) * math.tanh(eps / 2.0)
        assert abs(staircase_tv(StaircaseSpec(g, eps)) - target) <= 1e-10

    def test_alpha_below_an_ulp_of_one_at_large_eps(self):
        # (1 - alpha) tanh(20) rounds to 1 = 1 - e^-40, yet the narrow root
        # q (p - 2 alpha) / (2p (q + alpha)) is well defined
        eps, alpha = 40.0, 1e-17
        q = math.exp(-eps)
        g = staircase_gamma_for_alpha(eps, alpha)
        assert g == pytest.approx(q / (2.0 * (q + alpha)), rel=1e-12)

    def test_subnormal_step_width_at_720(self):
        assert staircase_gamma_for_alpha(720.0, 0.3) == pytest.approx(1.35482053495e-313, rel=1e-9)

    @pytest.mark.parametrize("eps", [724.25, 730.0, 744.0])
    def test_coarse_subnormal_step_width_names_epsilon_and_width(self, eps):
        # the width is subnormal with too few bits left to meet the TV tolerance
        with pytest.raises(ValidationError, match=rf"epsilon = {eps:g} .*step width \d\S*e-3\d\d"):
            staircase_gamma_for_alpha(eps, 0.3)

    @pytest.mark.parametrize("eps", [745.0, 800.0])
    def test_underflowing_step_width_names_epsilon(self, eps):
        # e^-eps rounds to 0 or to 5e-324, so the narrow root underflows to 0
        with pytest.raises(ValidationError, match=rf"epsilon = {eps:g} .*underflows to 0"):
            staircase_gamma_for_alpha(eps, 0.3)

    def test_overflowing_wide_root_names_epsilon(self):
        # 2p (1 - alpha) underflows to 0, so the wide root would divide by it
        with pytest.raises(ValidationError, match=r"epsilon = \S+ is too small"):
            staircase_gamma_for_alpha(1e-320, 0.999999)

    def test_subnormal_eps_sweep_raises_only_validation_errors(self):
        alphas = (0.0, 1e-6, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999)
        for eps in np.geomspace(1e-320, 1e-300, 60).tolist():
            for alpha in alphas:
                try:
                    g = staircase_gamma_for_alpha(eps, alpha)
                except ValidationError as exc:
                    assert "epsilon = " in str(exc)
                    continue
                target = (1.0 - alpha) * math.tanh(eps / 2.0)
                assert 0.0 < g < math.inf
                assert abs(staircase_tv(StaircaseSpec(g, eps)) - target) <= 1e-10

    @pytest.mark.parametrize("eps", [1e-6, 0.01, 1.0, 30.0])
    def test_branch_point_takes_wide_root(self, eps):
        # at 2T = p the narrow root has shrunk to 0, so the wide root gamma = 1 is taken
        alpha = -math.expm1(-eps) / 2.0
        assert staircase_gamma_for_alpha(eps, alpha) == pytest.approx(1.0, abs=1e-12)


_ALPHAS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(-300.0, -1.0).map(lambda e: 10.0**e),
    st.floats(-15.0, -1.0).map(lambda e: 1.0 - 10.0**e),
)


@settings(max_examples=300, deadline=None)
@given(st.floats(math.log(1e-6), math.log(700.0)).map(math.exp), _ALPHAS)
def test_staircase_gamma_round_trip(eps, alpha):
    g = staircase_gamma_for_alpha(eps, alpha)
    target = (1.0 - alpha) * math.tanh(eps / 2.0)
    assert abs(staircase_tv(StaircaseSpec(g, eps)) - target) <= 1e-10
    # narrow branch exactly when 2T > p, which is p > 2 alpha with T substituted
    if -math.expm1(-eps) > 2.0 * alpha:
        assert g <= 0.5


class TestStaircaseCurve:
    def test_half_gamma_is_pure_dp(self):
        c = staircase_curve(StaircaseSpec(0.5, 1.0))
        pure = curve_from_budget(PrivacyBudget.pure(1.0))
        assert sup_norm(c, pure) <= 1e-12

    def test_alpha_03_matches_budget_region(self):
        g = staircase_gamma_for_alpha(1.0, 0.3)
        c = staircase_curve(StaircaseSpec(g, 1.0))
        ref = curve_from_budget(PrivacyBudget(1.0, 0.0, ETA_REF))
        assert sup_norm(c, ref) <= 1e-5  # eta differs from the rounded reference

    @pytest.mark.parametrize("gamma", [0.01, 0.3, 0.5, 2.0])
    def test_tv_round_trip(self, gamma):
        spec = StaircaseSpec(gamma, 1.0)
        assert tv_of_curve(staircase_curve(spec)) == pytest.approx(staircase_tv(spec), abs=1e-9)
