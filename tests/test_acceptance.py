"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line; stated runtime budgets are asserted.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from conftest import budget_grid
from oracles import (
    gaussian_tv_quadrature,
    laplace_tv_quadrature,
    product_tv,
    random_pair,
    staircase_tv_quadrature,
)
from tvdp import (
    DiscretePair,
    DivergenceSpec,
    PrivacyBudget,
    SgdConfig,
    StaircaseSpec,
    binary_erasure_mechanism,
    chi_squared,
    clt_gap,
    compose_exact,
    compose_kairouz,
    compose_types_approx,
    composed_tv,
    delta_at_epsilon,
    dominating_approx,
    dominating_pure,
    erase_pair,
    eta_kl_estimate,
    f_divergence,
    gaussian_tv,
    kl_contraction_bound,
    kl_divergence,
    laplace_tv,
    le_cam,
    ledger_to_curve,
    max_fdiv,
    max_gap,
    min_gap,
    oracle_compose,
    push_forward,
    q_star,
    random_joint_member,
    sgd_region,
    sgd_region_baseline,
    staircase_gamma_for_alpha,
    staircase_tv,
    step_budget,
    strict_improvement,
    subsample_region_gap,
    sup_norm,
    total_variation,
    tv_feasibility_cap,
)

E = math.e
ETA_REF = 0.323482


@contextlib.contextmanager
def criterion(num: int, label: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"[criterion {num:02d}] FAIL  {label}  ({elapsed:.1f}s over {budget_s}s budget)")
        raise AssertionError(f"runtime {elapsed:.1f}s exceeds {budget_s}s budget")
    print(f"[criterion {num:02d}] PASS  {label}  ({elapsed:.1f}s)")


def test_c01_oracle_equivalence():
    with criterion(1, "composition ledger matches brute-force product curves", 60.0):
        for budget in budget_grid():
            pair = dominating_approx(budget)
            for k in range(1, 9):
                led_curve = ledger_to_curve(compose_exact(budget, k))
                orc_curve = oracle_compose(pair, k, mode="direct")
                gap = sup_norm(led_curve, orc_curve)
                assert gap <= 1e-9, (budget, k, gap)


def test_c02_worked_composition_value():
    with criterion(2, "k=2 delta_0 equals the product-distribution TV oracle"):
        pair = dominating_pure(1.0, ETA_REF)
        oracle = product_tv(pair.p0, pair.p1, 2)
        # frozen from the enumeration oracle
        assert oracle == pytest.approx(0.4205266070574046, abs=1e-12)
        led = compose_exact(PrivacyBudget(1.0, 0.0, ETA_REF), 2)
        assert abs(led.entries[0].delta - oracle) <= 1e-6
        assert abs(composed_tv(PrivacyBudget(1.0, 0.0, ETA_REF), 2) - oracle) <= 1e-6


def test_c03_baseline_recovery():
    with criterion(3, "eta at maximum reproduces the TV-blind baseline"):
        for eps in (0.25, 0.5, 1.0, 2.0):
            for delta in (0.0, 0.05, 0.1):
                budget = PrivacyBudget(eps, delta, tv_feasibility_cap(eps, delta))
                for k in range(1, 21):
                    exact = {e.j: e.delta for e in compose_exact(budget, k).entries}
                    for entry in compose_kairouz(eps, delta, k).entries:
                        err = abs(exact[entry.j] - entry.delta)
                        assert err <= 1e-10 * max(entry.delta, 1e-300), (eps, delta, k, entry.j)


def test_c04_five_fold_improvement():
    with criterion(4, "k=5 composed curve strictly improves on the baseline"):
        refined = ledger_to_curve(compose_exact(PrivacyBudget(1.0, 0.0, ETA_REF), 5))
        baseline = ledger_to_curve(compose_kairouz(1.0, 0.0, 5))
        assert min_gap(refined, baseline) >= -1e-9
        assert max_gap(refined, baseline) >= 1e-3


def test_c05_bayes_security_special_case():
    with criterion(5, "eta = delta composes as the plain product rule"):
        for eps in (0.5, 1.0, 2.0):
            for delta in (0.01, 0.1, 0.3):
                for k in range(1, 51):
                    got = composed_tv(PrivacyBudget(eps, delta, delta), k)
                    assert got == -math.expm1(k * math.log1p(-delta)), (eps, delta, k)


def test_c06_mechanism_tvs():
    with criterion(6, "closed-form mechanism TVs match quadrature"):
        for eps in (0.5, 1.0, 2.0):
            assert abs(laplace_tv(eps) - laplace_tv_quadrature(eps)) <= 1e-6
        for mu in (0.5, 1 / 1.3, 2.0):
            assert abs(gaussian_tv(mu) - gaussian_tv_quadrature(mu)) <= 1e-6
        for gamma in (0.01, 0.25, 0.5, 1.0, 3.0):
            closed = staircase_tv(StaircaseSpec(gamma, 1.0))
            assert abs(closed - staircase_tv_quadrature(gamma, 1.0)) <= 1e-6
        assert abs(staircase_gamma_for_alpha(1.0, 0.3) - 0.0139) <= 0.0005


def test_c07_subsampling_tightness():
    with criterion(7, "subsampled worst-case region equals the amplified budget"):
        for p in (0.1, 0.5):
            assert subsample_region_gap(1.0, 0.0, ETA_REF, p) <= 1e-9


def test_c08_clt_convergence():
    with criterion(8, "pure-DP schedule converges to the Gaussian curve"):
        gaps = []
        for k in (100, 1000, 10_000):
            eps = 1.0 / math.sqrt(k)
            gaps.append(clt_gap(eps, tv_feasibility_cap(eps, 0.0), k))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.02


def test_c09_local_dp_closed_forms():
    with criterion(9, "contraction estimates, f-divergence maxima, and stress bounds", 120.0):
        # grid estimate against the closed form, argmax at beta = 1/2
        est = eta_kl_estimate(q_star(1.0, 0.3), 2001)
        assert abs(est - 0.138635) <= 1e-5
        rows = q_star(1.0, 0.3).row_pair(0, 1)
        betas = np.linspace(0.0, 1.0, 2003)[1:-1]
        lc = [le_cam(rows, b) for b in betas]
        assert abs(betas[int(np.argmax(lc))] - 0.5) <= 1e-3

        # closed forms against direct summation on the dominating rows
        assert abs(max_fdiv(1.0, 0.3, DivergenceSpec.kl()) - kl_divergence(rows)) <= 1e-10
        assert abs(max_fdiv(1.0, 0.3, DivergenceSpec.chi_squared()) - chi_squared(rows)) <= 1e-10
        assert max_fdiv(1.0, 0.3, DivergenceSpec.kl()) == pytest.approx(0.3 * 1.0, abs=1e-12)

        # 10^3 random members violate neither divergence nor contraction bounds
        rng = np.random.default_rng(2024)
        specs = [DivergenceSpec.kl(), DivergenceSpec.chi_squared(), DivergenceSpec.tv()]
        maxima = [max_fdiv(1.0, 0.3, s) for s in specs]
        kl_bound = kl_contraction_bound(1.0, 0.3)
        for _ in range(1000):
            member = random_joint_member(
                rng, 1.0, 0.3, int(rng.integers(2, 5)), int(rng.integers(2, 7))
            )
            m = member.matrix
            for i in range(m.shape[0]):
                for j in range(m.shape[0]):
                    if i == j:
                        continue
                    pair = DiscretePair(m[i], m[j])
                    for spec, bound in zip(specs, maxima):
                        assert f_divergence(pair, spec) <= bound + 1e-9
            assert eta_kl_estimate(member, 101) <= kl_bound + 1e-9


def test_c10_binary_erasure_exactness():
    with criterion(10, "binary erasure mechanism attains eta * input TV exactly"):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            size = int(rng.integers(2, 17))
            p0, p1 = random_pair(rng, size)
            pair = DiscretePair(p0, p1)
            ch = binary_erasure_mechanism(pair, 1.0, 0.3)
            out_tv = total_variation(
                DiscretePair(push_forward(ch, p0), push_forward(ch, p1))
            )
            assert abs(out_tv - 0.3 * pair.tv()) <= 1e-12
            competitor = random_joint_member(rng, 1.0, 0.3, size, int(rng.integers(2, 7)))
            comp_tv = total_variation(
                DiscretePair(push_forward(competitor, p0), push_forward(competitor, p1))
            )
            assert comp_tv <= out_tv + 1e-12


def test_c11_erasure_scaling():
    with criterion(11, "alpha-erasure scales every divergence by exactly 1 - alpha"):
        rng = np.random.default_rng(88)
        specs = [DivergenceSpec.kl(), DivergenceSpec.chi_squared(), DivergenceSpec.tv()]
        for _ in range(1000):
            pair = DiscretePair(*random_pair(rng, int(rng.integers(2, 9)), full_support=True))
            alpha = float(rng.uniform(0.0, 0.999))
            erased = erase_pair(pair, alpha)
            for spec in specs:
                assert abs(
                    f_divergence(erased, spec) - (1 - alpha) * f_divergence(pair, spec)
                ) <= 1e-10


def test_c12_dpsgd_pipeline():
    with criterion(12, "whole-run SGD accounting dominates the baseline", 300.0):
        grid = tuple(round(0.5 + 0.1 * i, 10) for i in range(30))
        assert grid[-1] == 3.4
        config = SgdConfig(
            dataset_size=60_000,
            batch_size=256,
            epochs=15.0,
            step_mu=1 / 1.3,
            epsilon_grid=grid,
        )
        assert config.steps == 3516
        refined = sgd_region(config)
        baseline = sgd_region_baseline(config)
        assert min_gap(refined, baseline) >= -1e-9
        # At mu = 1/1.3 per step over 3516 steps both regions fall from about
        # 0.986 to nearly 0 within t < 1e-308, yet they separate by O(1) in f
        # there (0.986 near t = e^-4300), which the log-coordinate curves
        # resolve; tests/test_dpsgd.py checks the same property at 1406 steps.
        assert strict_improvement(refined, baseline)

        # exact-vs-types spot checks at k = 200
        for eps in (0.5, 1.7, 3.4):
            budget = step_budget(1 / 1.3, eps)
            exact = compose_exact(budget, 200)
            types = compose_types_approx(budget, 200, tol=1e-6)
            for a, b in zip(exact.entries, types.entries):
                if a.delta > 1e-280:
                    assert abs(math.log(b.delta) - math.log(a.delta)) <= 1e-6
                assert abs(b.delta - a.delta) <= 1e-6 * max(a.delta, 1e-12)

        # the externally reported reference point is an annotation only
        from tvdp import sgd_compare

        report = sgd_compare(config)
        note = report["annotations"]["moments_accountant"]
        assert (note["epsilon"], note["delta"]) == (1.19, 1e-5)
        assert note["asserted"] is False
        ref = {p["epsilon"]: p for p in report["reference_points"]}
        assert ref[1.19]["delta_refined"] <= ref[1.19]["delta_baseline"] + 1e-12


def test_c13_large_k_oracle():
    # The typed oracle convolves level masses in linear space, so p1 masses
    # below 1e-308 underflow; on these ledgers the p0 mass of those levels is
    # below e^-66, so the oracle is exact to rounding here.
    with criterion(13, "long exact ledgers match the typed product oracle", 10.0):
        for budget in (PrivacyBudget(0.5, 0.0, 0.2), PrivacyBudget(0.5, 1e-5, 0.2)):
            pair = dominating_approx(budget)
            for k in (100, 1000, 3516):
                ledger = compose_exact(budget, k)
                oracle = oracle_compose(pair, k, mode="typed")
                for entry in ledger.entries:
                    ref = delta_at_epsilon(oracle, entry.epsilon)
                    assert abs(entry.delta - ref) <= 1e-9, (budget, k, entry.j)
                assert abs(ledger.composed_eta - oracle.tv()) <= 1e-9, (budget, k)
                assert sup_norm(ledger_to_curve(ledger), oracle) <= 1e-9, (budget, k)
