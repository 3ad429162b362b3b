import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    composed_levels_mp,
    level_masses_loop_mp,
    level_masses_recurrence_mp,
    product_tv,
)
from tvdp import (
    CapacityError,
    CompositionLedger,
    DiscretePair,
    DominatingSpec,
    LedgerEntry,
    PrivacyBudget,
    ValidationError,
    compose_exact,
    compose_kairouz,
    compose_types_approx,
    composed_tv,
    curve_from_budget,
    curve_from_pair,
    dominating_approx,
    dominating_pure,
    ledger_to_curve,
    min_gap,
    max_gap,
    oracle_compose,
    sup_norm,
    tv_feasibility_cap,
    tv_of_curve,
)
from tvdp import composition
from tvdp.composition import _conv_power, _grid_columns


E = math.e
ETA_REF = 0.323482
BUDGET_REF = PrivacyBudget(1.0, 0.0, ETA_REF)

# frozen from the product-distribution TV oracle over {0,1,2}^2
DELTA0_K2 = 0.4205266070574046


class TestComposeExact:
    def test_k1_reduction(self):
        led = compose_exact(PrivacyBudget(1.0, 0.1, 0.4), 1)
        assert led.entries[0].j == 0
        assert led.entries[0].delta == pytest.approx(0.4, abs=1e-15)  # = eta
        assert led.entries[1].delta == pytest.approx(0.1, abs=1e-15)  # = delta
        assert led.composed_eta == pytest.approx(0.4, abs=1e-15)

    def test_k2_worked_value_matches_oracle(self):
        pair = dominating_pure(1.0, ETA_REF)
        oracle = product_tv(pair.p0, pair.p1, 2)
        assert oracle == pytest.approx(DELTA0_K2, abs=1e-12)
        led = compose_exact(BUDGET_REF, 2)
        assert led.entries[0].delta == pytest.approx(oracle, abs=1e-9)
        assert composed_tv(BUDGET_REF, 2) == pytest.approx(DELTA0_K2, abs=1e-9)

    def test_deltas_nonincreasing_in_j(self, budgets):
        for b in budgets:
            led = compose_exact(b, 5)
            deltas = [e.delta for e in led.entries]
            assert all(x >= y - 1e-12 for x, y in zip(deltas, deltas[1:]))
            assert all(0.0 <= d <= 1.0 for d in deltas)

    def test_eta_below_delta_rejected(self):
        with pytest.raises(ValidationError, match="eta >= delta"):
            compose_exact(PrivacyBudget(1.0, 0.2, 0.1), 3)

    def test_eps_zero_needs_eta_equal_delta(self):
        led = compose_exact(PrivacyBudget(0.0, 0.1, 0.1), 4)
        assert led.composed_eta == pytest.approx(1 - 0.9**4, abs=1e-12)
        with pytest.raises(ValidationError):
            compose_exact(PrivacyBudget(0.0, 0.05, 0.07), 4)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            compose_exact(BUDGET_REF, 0)

    def test_large_k_with_erasures_in_time(self):
        # the README clt budget (alpha > 0) at k = 10^4: O(k) level masses
        start = time.perf_counter()
        compose_exact(PrivacyBudget(0.01, 0.0, 0.0049999), 10_000)
        assert time.perf_counter() - start < 0.5

    def test_bayes_security_product_rule(self):
        # eta = delta composes as 1 - (1-delta)^k for any epsilon
        for eps in (0.5, 1.0, 3.0):
            for k in (1, 7, 50):
                got = composed_tv(PrivacyBudget(eps, 0.01, 0.01), k)
                assert got == -math.expm1(k * math.log1p(-0.01))


class TestComposeKairouz:
    def test_k1(self):
        led = compose_kairouz(1.0, 0.1, 1)
        assert [e.j for e in led.entries] == [1]
        assert led.entries[0].delta == pytest.approx(0.1, abs=1e-15)

    def test_k2_j0_closed_form(self):
        led = compose_kairouz(1.0, 0.0, 2)
        # single-term sum: (e^2 - 1)/(1 + e)^2 = (e-1)/(e+1)
        assert led.entries[0].delta == pytest.approx((E - 1) / (E + 1), abs=1e-12)

    def test_same_parity_only(self):
        led = compose_kairouz(1.0, 0.0, 5)
        assert [e.j for e in led.entries] == [1, 3, 5]

    @pytest.mark.parametrize("eps, k", [(0.5, 3517), (0.1, 101)])
    def test_odd_k_composed_eta_is_delta_0(self, eps, k):
        # j = 0 is not listed for odd k, yet eta is still the kernel's delta_0
        led = compose_kairouz(eps, 0.0, k)
        assert led.entries[0].j == 1
        delta_0 = float(composed_levels_mp(eps, 0.0, k)[0][0])
        assert abs(led.composed_eta / delta_0 - 1) <= 4e-16 * k * (1.0 + math.log(k))

    def test_alpha_zero_exact_recovers_baseline(self):
        for eps in (0.25, 1.0, 2.0):
            for delta in (0.0, 0.05):
                cap = tv_feasibility_cap(eps, delta)
                for k in range(1, 21):
                    exact = compose_exact(PrivacyBudget(eps, delta, cap), k)
                    base = compose_kairouz(eps, delta, k)
                    by_j = {e.j: e.delta for e in exact.entries}
                    for entry in base.entries:
                        ref = entry.delta
                        assert abs(by_j[entry.j] - ref) <= 1e-10 * max(ref, 1e-300)


class TestLedgerToCurve:
    def test_k1_round_trip(self):
        led = compose_exact(BUDGET_REF, 1)
        assert sup_norm(ledger_to_curve(led), curve_from_budget(BUDGET_REF)) <= 1e-12

    def test_k2_slope_structure(self):
        curve = ledger_to_curve(compose_exact(BUDGET_REF, 2))
        slopes = np.diff(curve.ys) / np.diff(curve.xs)
        expected = {-math.exp(2.0), -math.exp(1.0), -1.0, -math.exp(-1.0), -math.exp(-2.0)}
        for s in expected:
            assert np.min(np.abs(slopes - s)) <= 1e-6 * abs(s)

    def test_k5_strict_improvement_over_baseline(self):
        refined = ledger_to_curve(compose_exact(BUDGET_REF, 5))
        baseline = ledger_to_curve(compose_kairouz(1.0, 0.0, 5))
        assert min_gap(refined, baseline) >= -1e-9
        assert max_gap(refined, baseline) >= 1e-3

    @pytest.mark.parametrize("eps", [-1.0, math.nan])
    def test_entry_epsilon_must_be_non_negative(self, eps):
        # the curve is built from the DP lines and their mirrors, which
        # needs slopes of -1 or steeper
        led = compose_exact(BUDGET_REF, 2)
        entries = led.entries[:-1] + (LedgerEntry(2, eps, 0.0),)
        bad = CompositionLedger(k=2, base=BUDGET_REF, entries=entries, composed_eta=0.3)
        with pytest.raises(ValidationError, match="epsilons must be >= 0"):
            ledger_to_curve(bad)


class TestOracleCompose:
    def test_k1_is_pair_curve(self):
        pair = dominating_pure(1.0, ETA_REF)
        assert sup_norm(oracle_compose(pair, 1), curve_from_pair(pair)) == 0.0

    def test_direct_capacity_error(self):
        pair = dominating_pure(1.0, ETA_REF)
        with pytest.raises(CapacityError, match="typed"):
            oracle_compose(pair, 100, mode="direct")

    def test_typed_capacity_error(self):
        pair = dominating_pure(1.0, ETA_REF)
        with pytest.raises(CapacityError, match="10000|typed"):
            oracle_compose(pair, 10**4 + 1, mode="typed")

    def test_typed_needs_lattice(self):
        rng = np.random.default_rng(0)
        pair = DiscretePair(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4)))
        with pytest.raises(CapacityError, match="direct"):
            oracle_compose(pair, 3, mode="typed")

    def test_typed_matches_direct(self):
        pair = dominating_approx(PrivacyBudget(0.5, 0.05, 0.2))
        assert sup_norm(
            oracle_compose(pair, 7, mode="typed"), oracle_compose(pair, 7, mode="direct")
        ) <= 1e-12

    def test_alpha_zero_k5_matches_baseline_curve(self):
        cap = tv_feasibility_cap(1.0, 0.0)
        pair = dominating_pure(1.0, cap)
        oracle = oracle_compose(pair, 5)
        baseline = ledger_to_curve(compose_kairouz(1.0, 0.0, 5))
        assert sup_norm(oracle, baseline) <= 1e-9

    def test_oracle_equivalence_small_grid(self, budgets):
        # the central correctness property, k <= 10 on a budget subset
        for b in budgets[::4]:
            for k in (3, 10):
                led_curve = ledger_to_curve(compose_exact(b, k))
                orc_curve = oracle_compose(dominating_approx(b), k, mode="typed")
                assert sup_norm(led_curve, orc_curve) <= 1e-9, (b, k)

    def test_composed_tv_matches_oracle_curve(self):
        for k in (1, 2, 5):
            oracle = oracle_compose(dominating_pure(1.0, ETA_REF), k)
            assert composed_tv(BUDGET_REF, k) == pytest.approx(tv_of_curve(oracle), abs=1e-9)


class TestConvPower:
    # the typed oracle convolves only nonzero spans; a plain repeated
    # convolution does every product, so the two agree to rounding
    @pytest.mark.parametrize(
        "budget",
        [
            BUDGET_REF,
            PrivacyBudget.pure(0.5),
            PrivacyBudget(3.4, 0.0, 0.2),
            PrivacyBudget(0.01, 0.0, 0.0049999),
        ],
    )
    def test_matches_repeated_convolution(self, budget):
        alpha = DominatingSpec.from_budget(budget).alpha
        p = (1.0 - alpha) / (1.0 + math.exp(-budget.epsilon))
        q = (1.0 - alpha) / (1.0 + math.exp(budget.epsilon))
        kernels = [
            np.array([q, alpha, p]),
            np.array([0.0, q, 0.0, 0.0, alpha, 0.0, 0.0, p, 0.0]),
            np.array([1e-200, 0.0, alpha, 0.0, 1.0 - alpha - 1e-200]),
        ]
        for kernel in kernels:
            plain = kernel
            for k in range(1, 65):
                if k > 1:
                    plain = np.convolve(plain, kernel)
                got = _conv_power(kernel, k)
                assert got.shape == plain.shape
                assert np.array_equal(got == 0.0, plain == 0.0), k
                nonzero = plain != 0.0
                assert np.all(np.abs(got[nonzero] / plain[nonzero] - 1.0) <= 1e-13), k


class TestCompositionProperties:
    def test_region_nesting_in_eta(self):
        # smaller eta => larger region => higher curve
        curves = [
            ledger_to_curve(compose_exact(PrivacyBudget(1.0, 0.0, eta), 4))
            for eta in (0.15, 0.25, 0.35, tv_feasibility_cap(1.0, 0.0))
        ]
        for higher, lower in zip(curves, curves[1:]):
            assert min_gap(higher, lower) >= -1e-9

    def test_composed_tv_monotone_in_k(self):
        vals = [composed_tv(BUDGET_REF, k) for k in (1, 2, 4, 8, 16, 32)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1.0

    def test_baseline_dominated_everywhere(self, budgets):
        for b in budgets[::3]:
            refined = ledger_to_curve(compose_exact(b, 4))
            baseline = ledger_to_curve(compose_kairouz(b.epsilon, b.delta, 4))
            assert min_gap(refined, baseline) >= -1e-9


class TestTypesApprox:
    def test_k1_exact(self):
        a = compose_types_approx(BUDGET_REF, 1)
        b = compose_exact(BUDGET_REF, 1)
        for x, y in zip(a.entries, b.entries):
            assert x.delta == pytest.approx(y.delta, abs=1e-15)

    def test_k10_relative_agreement(self):
        a = compose_types_approx(BUDGET_REF, 10)
        b = compose_exact(BUDGET_REF, 10)
        for x, y in zip(a.entries, b.entries):
            if y.delta > 0:
                assert abs(x.delta - y.delta) <= 1e-6 * y.delta

    def test_inner_sums_relative_agreement_deep(self):
        budget = PrivacyBudget(1.0, 0.05, 0.25)
        a = compose_types_approx(budget, 60, tol=1e-8)
        b = compose_exact(budget, 60)
        for x, y in zip(a.entries, b.entries):
            if y.delta > 1e-250:
                assert abs(math.log(x.delta) - math.log(y.delta)) <= 1e-7

    def test_large_k_no_overflow(self):
        budget = PrivacyBudget(1.0, 0.054869, 0.2994)
        led = compose_types_approx(budget, 3500)
        deltas = [e.delta for e in led.entries]
        assert all(math.isfinite(d) for d in deltas)
        assert all(x >= y - 1e-12 for x, y in zip(deltas, deltas[1:]))
        assert led.composed_eta <= 1.0

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            compose_types_approx(BUDGET_REF, 3, tol=0.0)

    def test_deltas_within_rounding_of_one(self):
        # the README ledger: against mpmath, 1 - delta_j < 2^-54 for j <= 317
        # and < 5e-13 for j <= 357, so delta_j is 1.0 in double precision up
        # to j = 317 and prints as 1 at 12 significant digits up to j = 357
        led = compose_types_approx(PrivacyBudget(1.0, 0.0, 0.3), 2000)
        assert all(e.delta == 1.0 for e in led.entries[:318])
        assert led.entries[318].delta < 1.0
        assert all(f"{e.delta:.12g}" == "1" for e in led.entries[:358])
        assert f"{led.entries[358].delta:.12g}" == "0.999999999999"
        assert led.composed_eta == 1.0


class TestPrecisionAgainstMpmath:
    # every delta_j < 1/2 and every 1 - delta_j < 1/2 within
    # 4e-16 k (1 + ln k) relative of a 40-digit reference
    @pytest.mark.parametrize(
        "budget, k",
        [
            (PrivacyBudget.pure(0.5), 1000),
            (PrivacyBudget.pure(0.5), 3516),
            (PrivacyBudget.pure(3.4), 10_000),
            (PrivacyBudget(1.0, 0.0, 0.3), 200),
            (PrivacyBudget(1.0, 0.0, 0.3), 1),
            (PrivacyBudget(1.0, 0.0, 0.3), 2000),  # the README types ledger
            (PrivacyBudget(1.0, 0.0, 0.0), 50),  # eta = delta: alpha = 1
            # alphas that no budget rounds to reach the kernel directly
            (DominatingSpec(1.0, 0.0, 1e-300), 200),
            (DominatingSpec(1.0, 0.0, 5e-324), 200),
            (PrivacyBudget(1.0, 0.0, 0.3), 3516),  # the C12 step count
            (PrivacyBudget(1.0, 0.0, 0.3), 10_000),
        ],
    )
    def test_relative_error(self, budget, k):
        if isinstance(budget, DominatingSpec):
            alpha = budget.alpha
            _, log_keep, _, _ = _grid_columns(k, [budget.epsilon], [budget.delta], [alpha])
            rows = [(-math.expm1(raw), raw) for raw in log_keep[0].tolist()]
        else:
            alpha = DominatingSpec.from_budget(budget).alpha
            assert (alpha == 0.0) == (budget.eta == budget.tv_cap)
            entries = compose_exact(budget, k).entries
            rows = [(e.delta, e.log_one_minus_delta) for e in entries]
        deltas, keeps = composed_levels_mp(budget.epsilon, alpha, k)
        bound = 4e-16 * k * (1.0 + math.log(k))
        checked = 0
        for j, ((delta, raw), delta_j, keep_j) in enumerate(zip(rows, deltas, keeps)):
            if delta_j == 0:
                assert delta == 0.0, j
                checked += 1
            if 1e-300 < delta_j < 0.5:
                assert abs(delta / delta_j - 1) <= bound, j
                checked += 1
            if keep_j < 0.5:
                log_ratio = raw - mpmath.log(keep_j)
                assert abs(mpmath.expm1(log_ratio)) <= bound, j
                checked += 1
        assert checked >= k // 2


class TestEpsilonRange:
    # the builder accepts epsilon exactly while k*epsilon is a finite double
    @pytest.mark.parametrize("k", [1, 2, 3, 30, 1000])
    def test_largest_accepted_epsilon_is_warning_free(self, k):
        eps = float(np.finfo(float).max) / k
        while math.isfinite(k * math.nextafter(eps, math.inf)):
            eps = math.nextafter(eps, math.inf)
        while not math.isfinite(k * eps):
            eps = math.nextafter(eps, 0.0)
        # RuntimeWarnings are errors in this suite, so these run clean; at
        # eta = 1 the envelope keeps lines whose slopes lie 2 k eps apart
        for eta in (0.3, 1.0):
            curve = ledger_to_curve(compose_exact(PrivacyBudget.pure(eps, eta), k))
            assert curve.tv() <= 1.0
        assert compose_kairouz(eps, 0.0, k).composed_eta <= 1.0
        above = math.nextafter(eps, math.inf)
        for compose in (
            lambda: compose_exact(PrivacyBudget.pure(above, 0.3), k),
            lambda: compose_kairouz(above, 0.0, k),
        ):
            with pytest.raises(ValidationError, match="epsilon"):
                compose()


class TestLevelMassReference:
    # the O(k) two-sided recurrence behind composed_levels_mp at alpha > 0
    # stays checked against the O(k^2) binomial double sum
    @pytest.mark.parametrize(
        "eps, alpha, k",
        [
            (1.0, 0.35, 200),
            (1.0, 0.3, 37),
            (3.4, 0.9, 200),
            (0.01, 8.3e-6, 150),
            (0.5, 0.999999, 100),
            (1.0, 5e-324, 200),
            (2.0, 0.5, 1),
        ],
    )
    def test_recurrence_matches_double_sum(self, eps, alpha, k):
        fast = level_masses_recurrence_mp(eps, alpha, k)
        slow = level_masses_loop_mp(eps, alpha, k)
        with mpmath.workdps(40):
            for n, (a, b) in enumerate(zip(fast, slow)):
                assert b > 0, n
                assert abs(a / b - 1) <= mpmath.mpf("1e-35"), n


class TestLedgerSerialization:
    def test_as_dict_shape(self):
        led = compose_exact(BUDGET_REF, 2)
        payload = led.as_dict()
        assert payload["k"] == 2
        assert [e["j"] for e in payload["entries"]] == [0, 1, 2]
        assert payload["eta"] == led.composed_eta


@pytest.mark.parametrize("eps", np.geomspace(5e-4, 0.1, 6).tolist())
@pytest.mark.parametrize("k", [1, 2, 7, 20, 60])
def test_curve_tv_matches_mpmath_delta0(eps, k):
    # tv() reads eta as 1 minus a sum of positive terms, so a small eta keeps
    # its relative precision; 1 - min(t + f) over the vertices lost up to 2e-12
    deltas, _ = composed_levels_mp(eps, 0.0, k)
    got = ledger_to_curve(compose_kairouz(eps, 0.0, k)).tv()
    assert abs(got - deltas[0]) <= 1e-14 * deltas[0]


# _log_tail_sums runs the sum of 1 - delta_j only over the leading columns
# where some row reads it.  The function below is a regression reference: a
# copy of the earlier builder, which ran both sums over every column and
# picked one per entry.


def _reference_grid_columns(k, eps, delta, alpha, levels=slice(None)):
    eps = np.asarray(eps, dtype=float)
    log_w = np.array([composition._level_log_masses(k, e, a) for e, a in zip(eps, alpha)])
    col = eps[:, None]
    tilt = np.arange(1, k + 1) * col
    above = np.full((eps.size, k + 1), -np.inf)
    tail = (log_w[:, k + 1 :] - tilt)[:, ::-1]
    above[:, :k] = np.logaddexp.accumulate(tail, axis=1)[:, ::-1]
    above[:, :k] += tilt
    with np.errstate(divide="ignore"):
        log_gap = np.log(-np.expm1(-col))
    log_delta = log_gap + np.logaddexp.accumulate(above[:, ::-1], axis=1)[:, ::-1]
    log_keep = np.logaddexp(np.logaddexp.accumulate(log_w, axis=1)[:, k:], above - col)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(
            log_delta < -math.log(2.0), np.log1p(-np.exp(log_delta)), log_keep
        )
    log_wrap = [[k * math.log1p(-d) if d < 1.0 else -math.inf] for d in delta]
    clamped = inner > 0.0
    inner[clamped] = 0.0
    log_keep = np.add(log_wrap, inner, out=inner)
    eta = [-math.expm1(x) for x in log_keep[:, 0].tolist()]
    return np.arange(k + 1)[levels], log_keep[:, levels], clamped[:, levels], eta


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            # small eps * k puts delta_j = 1/2 at a different j in each row
            st.one_of(st.floats(1e-9, 4.0), st.sampled_from([1e-9, 1e-4, 0.01, 0.5])),
            st.sampled_from([0.0, 1e-12, 1e-3, 0.3, 1.0]),
            st.floats(0.0, 1.0),
        ),
        min_size=1,
        max_size=8,
    ),
    k=st.one_of(st.integers(1, 40), st.integers(1, 3000)),
    kairouz=st.booleans(),
)
def test_grid_columns_match_full_width_tail_sums(rows, k, kairouz):
    eps = [e for e, _, _ in rows]
    delta = [d for _, d, _ in rows]
    if kairouz:
        alpha, levels = [0.0] * len(rows), composition._kairouz_levels(k)
    else:
        alpha = [
            composition._composable_alpha(
                PrivacyBudget(e, d, d + frac * (tv_feasibility_cap(e, d) - d)), k
            )
            for e, d, frac in rows
        ]
        levels = slice(None)
    got = _grid_columns(k, eps, delta, alpha, levels)
    want = _reference_grid_columns(k, eps, delta, alpha, levels)
    for a, b in zip(got[:3], want[:3]):
        assert a.tobytes() == b.tobytes()
    assert [x.hex() for x in got[3]] == [x.hex() for x in want[3]]
