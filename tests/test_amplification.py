import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import random_pair
from tvdp import (
    DiscretePair,
    DivergenceSpec,
    PrivacyBudget,
    ValidationError,
    chi_squared,
    dominating_pure,
    erase_pair,
    f_divergence,
    kl_divergence,
    subsample,
    subsample_region_gap,
    subsample_tightness_pair,
    total_variation,
    tv_feasibility_cap,
)

ETA_REF = 0.323482


class TestSubsample:
    def test_p_one_identity(self):
        out = subsample(PrivacyBudget(1.0, 0.1, 0.4), 1.0)
        assert (out.epsilon, out.delta, out.eta) == pytest.approx((1.0, 0.1, 0.4), abs=1e-15)

    def test_reference_values(self):
        out = subsample(PrivacyBudget(1.0, 0.0, ETA_REF), 0.1)
        assert out.epsilon == pytest.approx(0.158565, abs=1e-6)
        assert out.eta == pytest.approx(0.0323482, abs=1e-12)
        assert out.delta == 0.0

    def test_small_p_vanishes(self):
        out = subsample(PrivacyBudget(2.0, 0.1, 0.5), 1e-9)
        assert out.epsilon < 1e-8 and out.delta < 1e-9 and out.eta < 1e-9

    def test_p_range(self):
        b = PrivacyBudget(1.0, 0.0, 0.3)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                subsample(b, bad)

    def test_closure_feasibility(self, budgets):
        # output must satisfy the budget invariants (constructor re-validates)
        for b in budgets:
            for p in (0.01, 0.3, 0.9):
                out = subsample(b, p)
                assert out.eta <= out.tv_cap + 1e-12

    def test_monotone_in_p(self):
        b = PrivacyBudget(1.0, 0.1, 0.4)
        ps = np.linspace(0.05, 1.0, 20)
        triples = [subsample(b, p) for p in ps]
        for a, c in zip(triples, triples[1:]):
            assert c.epsilon > a.epsilon and c.delta > a.delta and c.eta > a.eta


class TestTightness:
    def test_p_one_recovers_dominating_pair(self):
        pa, pb = subsample_tightness_pair(1.0, 0.0, ETA_REF, 1.0)
        base = dominating_pure(1.0, ETA_REF)
        assert pa.p0[1:4] == pytest.approx(base.p0, abs=1e-15)
        assert pb.p0[1:4] == pytest.approx(base.p1, abs=1e-15)

    def test_mixture_tv_scales_linearly(self):
        for p in (0.1, 0.5):
            pa, pb = subsample_tightness_pair(1.0, 0.0, ETA_REF, p)
            assert pa.tv() == pytest.approx(p * ETA_REF, abs=1e-12)
            assert pb.tv() == pytest.approx(p * ETA_REF, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_worst_case_region_matches_budget(self, p):
        assert subsample_region_gap(1.0, 0.0, ETA_REF, p) <= 1e-9

    def test_tv_law_for_arbitrary_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p0, p1 = random_pair(rng, int(rng.integers(2, 10)))
            p = float(rng.uniform(0.05, 1.0))
            mix = DiscretePair(p * p0 + (1 - p) * p1, p1)
            assert mix.tv() == pytest.approx(p * DiscretePair(p0, p1).tv(), abs=1e-15)


class TestErasePair:
    def test_alpha_zero_appends_null_symbol(self):
        pair = dominating_pure(1.0, ETA_REF)
        out = erase_pair(pair, 0.0)
        assert out.alphabet_size == 4
        assert out.p0[-1] == 0.0
        assert total_variation(out) == pytest.approx(total_variation(pair), abs=1e-15)

    def test_alpha_one_collapses(self):
        out = erase_pair(dominating_pure(1.0, ETA_REF), 1.0)
        assert total_variation(out) == 0.0
        assert kl_divergence(out) == 0.0

    def test_kl_scaling_reference(self):
        cap = tv_feasibility_cap(1.0, 0.0)
        pair = dominating_pure(1.0, cap)
        before = kl_divergence(pair)
        after = kl_divergence(erase_pair(pair, 0.3))
        assert before == pytest.approx(cap, abs=1e-6)  # eta * eps at eta = cap
        assert after == pytest.approx(0.7 * before, abs=1e-12)

    def test_scaling_all_kinds_random(self):
        rng = np.random.default_rng(9)
        specs = [DivergenceSpec.tv(), DivergenceSpec.kl(), DivergenceSpec.chi_squared()]
        for _ in range(100):
            pair = DiscretePair(*random_pair(rng, 6, full_support=True))
            alpha = float(rng.uniform(0.0, 0.99))
            erased = erase_pair(pair, alpha)
            for spec in specs:
                before = f_divergence(pair, spec)
                after = f_divergence(erased, spec)
                assert after == pytest.approx((1 - alpha) * before, abs=1e-10)

    def test_scaling_preserves_infinities(self):
        pair = DiscretePair(np.array([0.6, 0.4, 0.0]), np.array([0.0, 0.4, 0.6]))
        erased = erase_pair(pair, 0.5)
        assert kl_divergence(erased) == math.inf
        assert chi_squared(erased) == math.inf
        assert total_variation(erased) == pytest.approx(0.3, abs=1e-15)

    def test_alpha_range(self):
        with pytest.raises(ValidationError):
            erase_pair(dominating_pure(1.0, 0.3), 1.5)


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(0.01, 4.0),
    delta=st.floats(0.0, 0.4),
    frac=st.floats(0.0, 1.0),
    p=st.floats(0.001, 1.0),
)
@example(eps=0.23226402064373494, delta=0.0, frac=0.0, p=1.0)  # log1p(expm1(eps)) > eps
def test_subsample_closure_property(eps, delta, frac, p):
    eta = delta + frac * (tv_feasibility_cap(eps, delta) - delta)
    out = subsample(PrivacyBudget(eps, delta, eta), p)
    assert out.eta <= out.tv_cap + 1e-12
    assert out.epsilon <= eps and out.delta <= delta + 1e-15 and out.eta <= eta + 1e-15
