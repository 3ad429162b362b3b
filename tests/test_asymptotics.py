import math

import numpy as np
import pytest

from oracles import log_slope_integrals
from tvdp import (
    PrivacyBudget,
    ValidationError,
    clt_gap,
    clt_mu,
    curve_from_budget,
    g_mu,
    gaussian_tv,
    kappa2,
    kappa3,
    kl_functional,
    tv_feasibility_cap,
)

E = math.e
ETA_REF = 0.323482


class TestLogSlopeFunctionals:
    def test_zero_budget(self):
        assert kl_functional(0.0, 0.0) == 0.0
        assert kappa2(0.0, 0.0) == 0.0
        assert kappa3(0.0, 0.0) == 0.0

    def test_kappa2_where_tanh_half_eps_underflows(self):
        # tanh(5e-324 / 2) is 0, and so is eps^2
        assert kappa2(5e-324, 1e-13) == 0.0

    def test_reference_values(self):
        assert kl_functional(1.0, ETA_REF) == pytest.approx(ETA_REF, abs=1e-12)
        assert kappa2(1.0, ETA_REF) == pytest.approx(0.7, abs=1e-6)
        assert kappa3(1.0, ETA_REF) == kappa2(1.0, ETA_REF)  # eps = 1

    def test_kappa_ratio_is_eps(self):
        for eps, frac in ((0.3, 0.5), (1.7, 0.9)):
            eta = frac * tv_feasibility_cap(eps, 0.0)
            assert kappa3(eps, eta) / kappa2(eps, eta) == pytest.approx(eps, abs=1e-12)

    def test_against_quadrature_grid(self):
        for eps in (0.25, 0.5, 1.0, 2.0):
            for frac in (0.3, 0.7, 1.0):
                eta = frac * tv_feasibility_cap(eps, 0.0)
                curve = curve_from_budget(PrivacyBudget(eps, 0.0, eta))
                kl_num, k2_num, k3_num = log_slope_integrals(curve)
                assert kl_functional(eps, eta) == pytest.approx(kl_num, abs=1e-6)
                assert kappa2(eps, eta) == pytest.approx(k2_num, abs=1e-6)
                assert kappa3(eps, eta) == pytest.approx(k3_num, abs=1e-6)

    def test_pure_dp_small_eps_expansion(self):
        # kl ~ eps^2/2 when eta sits at its pure-DP maximum
        for eps in (0.01, 0.05, 0.1):
            kl = kl_functional(eps, tv_feasibility_cap(eps, 0.0))
            assert abs(kl - eps * eps / 2.0) <= eps**4

    def test_taylor_bound(self):
        for eps in np.linspace(0.05, 2.0, 20):
            eta = 0.8 * tv_feasibility_cap(eps, 0.0)
            kl = kl_functional(eps, eta)
            assert abs(kappa2(eps, eta) / 2.0 - kl) <= eps * eps * kl + 1e-15

    def test_cauchy_schwarz_direction(self):
        for eps in (0.5, 1.0, 2.0):
            eta = 0.6 * tv_feasibility_cap(eps, 0.0)
            assert kappa2(eps, eta) >= kl_functional(eps, eta) ** 2 - 1e-12

    def test_infeasible_rejected(self):
        with pytest.raises(ValidationError):
            kl_functional(1.0, 0.5)


class TestGMu:
    def test_mu_zero_identity(self):
        alphas = np.linspace(0.0, 1.0, 11)
        assert g_mu(0.0, alphas) == pytest.approx(1.0 - alphas, abs=1e-12)

    def test_reference_point(self):
        assert g_mu(1.0, 0.5) == pytest.approx(0.158655, abs=1e-6)

    def test_endpoints(self):
        assert g_mu(2.0, 0.0) == 1.0
        assert g_mu(2.0, 1.0) == 0.0

    def test_tv_consistency_with_gaussian(self):
        # the -1-slope tangency sits at alpha = Phi(-mu/2) where the curve
        # value equals alpha, so alpha + G = 1 - (2 Phi(mu/2) - 1)
        for mu in (0.5, 1.0, 2.0):
            a = _ndtr(-mu / 2.0)
            assert g_mu(mu, a) == pytest.approx(a, abs=1e-12)
            # fine discretization has TV matching the Gaussian mechanism
            xs = np.linspace(0.0, 1.0, 100_001)
            tv = 1.0 - float(np.min(xs + g_mu(mu, xs)))
            assert tv == pytest.approx(gaussian_tv(mu), abs=1e-6)

    def test_self_inverse(self):
        alphas = np.linspace(1e-6, 1 - 1e-6, 101)
        for mu in (0.5, 1.0, 2.0):
            assert g_mu(mu, g_mu(mu, alphas)) == pytest.approx(alphas, abs=1e-9)

    def test_convex_nonincreasing(self):
        xs = np.linspace(0.0, 1.0, 401)
        vals = g_mu(1.3, xs)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(np.diff(vals, 2) >= -1e-10)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValidationError):
            g_mu(-0.1, 0.5)


def _ndtr(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestCltMu:
    def test_empty_schedule(self):
        assert clt_mu([]) == 0.0

    def test_sqrt_n_schedule_approaches_mu(self):
        mu = 1.0
        for n in (100, 10_000, 1_000_000):
            eps = mu / math.sqrt(n)
            eta = tv_feasibility_cap(eps, 0.0)
            got = clt_mu([(eps, eta)] * n)
            assert got == pytest.approx(mu, abs=20.0 / n)

    def test_slow_eps_fast_eta_schedule(self):
        mu = 1.0
        for c in (0.1, 0.25, 0.4):
            n = 200_000
            eps = mu / n**c
            eta = mu / (2 * n ** (1 - c))
            got = clt_mu([(eps, eta)] * n)
            assert got == pytest.approx(mu, rel=1e-6)

    def test_infeasible_entry_rejected(self):
        with pytest.raises(ValidationError):
            clt_mu([(0.1, 0.9)])


class TestCltGap:
    def test_single_large_eps_mechanism_far_from_gaussian(self):
        assert clt_gap(4.0, tv_feasibility_cap(4.0, 0.0), 1) > 0.1

    def test_gap_shrinks_with_k(self):
        gaps = []
        for k in (100, 1000):
            eps = 1.0 / math.sqrt(k)
            gaps.append(clt_gap(eps, tv_feasibility_cap(eps, 0.0), k))
        assert gaps[0] > gaps[1]
        assert gaps[1] <= 0.02
