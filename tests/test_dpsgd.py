import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

import tvdp.composition
import tvdp.dpsgd
from tvdp import (
    SgdConfig,
    ValidationError,
    compose_kairouz,
    compose_types_approx,
    curve_from_budget,
    dominating_approx,
    gaussian_delta,
    gaussian_tv,
    intersect,
    ledger_to_curve,
    min_gap,
    max_gap,
    oracle_compose,
    sgd_compare,
    sgd_region,
    sgd_region_baseline,
    step_budget,
    strict_improvement,
    sup_norm,
)
from tvdp.curves import TradeoffCurve, _gaps
from tvdp.dpsgd import _refined_region

MU = 1 / 1.3
# the 30-point grid of the C12 run shape
C12_GRID = tuple(round(0.5 + 0.1 * i, 12) for i in range(30))


def _merged_entries_curve(ledgers):
    """``ledger_to_curve`` of the entries of all the ledgers together."""
    return ledger_to_curve(SimpleNamespace(entries=[e for led in ledgers for e in led.entries]))


def small_config(grid=(0.5, 1.0, 2.0)):
    return SgdConfig(dataset_size=1000, batch_size=100, epochs=2.0, step_mu=MU, epsilon_grid=grid)


class TestSgdConfig:
    def test_step_count_rounding(self):
        cfg = SgdConfig(60000, 256, 15.0, MU, (1.0,))
        assert cfg.steps == round(15.0 * 60000 / 256) == 3516

    def test_validation(self):
        with pytest.raises(ValidationError):
            SgdConfig(100, 200, 1.0, MU, (1.0,))
        with pytest.raises(ValidationError):
            SgdConfig(100, 10, 1.0, MU, ())
        with pytest.raises(ValidationError):
            SgdConfig(100, 10, 1.0, MU, (2.0, 1.0))

    def test_step_count_an_array_cannot_index_is_rejected(self):
        # only the configuration is built: no level masses are allocated
        assert SgdConfig(1, 1, 2.0**58, MU, (1.0,)).steps == 2**58
        with pytest.raises(ValidationError, match="epochs = 5.76460752303e"):
            SgdConfig(1, 1, 2.0**59, MU, (1.0,))

    def test_zero_steps_rejected(self):
        with pytest.raises(ValidationError):
            SgdConfig(100, 100, 0.001, MU, (1.0,))


class TestStepBudget:
    def test_components(self):
        b = step_budget(MU, 1.0)
        assert b.epsilon == 1.0
        assert b.delta == pytest.approx(gaussian_delta(MU, 1.0), abs=0)
        assert b.eta == pytest.approx(gaussian_tv(MU), abs=1e-12)
        assert b.eta == pytest.approx(0.2994, abs=1e-4)

    def test_large_eps_keeps_eta(self):
        b = step_budget(MU, 30.0)
        assert b.delta <= 1e-12
        assert b.eta == pytest.approx(gaussian_tv(MU), abs=1e-12)

    def test_small_mu_vanishes(self):
        b = step_budget(1e-9, 1.0)
        assert b.delta <= 1e-9 and b.eta <= 1e-9

    def test_eta_feasible_and_composable(self):
        for eps in (0.05, 0.2, 0.5, 1.0, 3.0):
            b = step_budget(MU, eps)
            assert b.eta <= b.tv_cap + 1e-12
            assert b.eta >= b.delta  # composability


class TestSgdRegion:
    def test_k1_single_eps_is_step_curve(self):
        cfg = SgdConfig(dataset_size=10, batch_size=10, epochs=1.0, step_mu=MU, epsilon_grid=(1.0,))
        assert cfg.steps == 1
        region = sgd_region(cfg)
        step_curve = curve_from_budget(step_budget(MU, 1.0))
        assert sup_norm(region, step_curve) <= 1e-9

    def test_intersection_matches_manual(self):
        cfg = small_config()
        region = sgd_region(cfg)
        manual = [
            ledger_to_curve(compose_types_approx(step_budget(MU, e), cfg.steps))
            for e in cfg.epsilon_grid
        ]
        xs = np.linspace(0.0, 1.0, 1001)
        stacked = np.max(np.vstack([c(xs) for c in manual]), axis=0)
        assert np.max(np.abs(region(xs) - stacked)) <= 1e-12

    def test_more_grid_points_never_shrink_region(self):
        coarse = sgd_region(small_config(grid=(1.0, 2.0)))
        fine = sgd_region(small_config(grid=(0.5, 1.0, 1.5, 2.0)))
        assert min_gap(fine, coarse) >= -1e-12

    def test_refined_dominates_baseline(self):
        cfg = small_config()
        assert min_gap(sgd_region(cfg), sgd_region_baseline(cfg)) >= -1e-9
        assert max_gap(sgd_region(cfg), sgd_region_baseline(cfg)) > 1e-6


class TestSgdCompare:
    def test_report_shape(self):
        cfg = small_config()
        rep = sgd_compare(cfg)
        assert rep["steps"] == cfg.steps
        assert len(rep["per_epsilon"]) == len(cfg.epsilon_grid)
        for rec in rep["per_epsilon"]:
            assert {"epsilon", "delta", "eta", "eta_clamped", "composed_tv"} <= set(rec)
        assert rep["annotations"]["moments_accountant"]["epsilon"] == 1.19
        assert rep["annotations"]["moments_accountant"]["delta"] == 1e-5
        assert rep["annotations"]["moments_accountant"]["asserted"] is False

    def test_refined_delta_never_worse_at_references(self):
        rep = sgd_compare(small_config())
        for point in rep["reference_points"]:
            assert point["delta_refined"] <= point["delta_baseline"] + 1e-12
        assert any(p["epsilon"] == 1.19 for p in rep["reference_points"])

    def test_dominance_summary(self):
        rep = sgd_compare(small_config())
        assert rep["dominance"]["min_gap"] >= -1e-9
        assert rep["dominance"]["max_gap"] > 0
        assert rep["dominance"]["strict"] is True

    def test_dominance_matches_the_public_functions(self):
        cfg = small_config()
        rep = sgd_compare(cfg)
        refined, baseline = sgd_region(cfg), sgd_region_baseline(cfg)
        assert rep["dominance"] == {
            "min_gap": min_gap(refined, baseline),
            "max_gap": max_gap(refined, baseline),
            "strict": strict_improvement(refined, baseline),
        }

    def test_only_the_intersected_curves_build_a_linear_view(self, monkeypatch):
        # the two intersected regions are the only curves sgd_compare makes,
        # and both derive the linear view, for the report's vertices
        made, derived = [], []
        init, from_log = TradeoffCurve.__init__, TradeoffCurve._from_log.__func__
        derive = TradeoffCurve._derive_view
        monkeypatch.setattr(
            TradeoffCurve, "__init__", lambda c, *a, **k: made.append(c) or init(c, *a, **k)
        )
        monkeypatch.setattr(
            TradeoffCurve,
            "_from_log",
            classmethod(lambda cls, *a: made.append(from_log(cls, *a)) or made[-1]),
        )
        monkeypatch.setattr(
            TradeoffCurve, "_derive_view", lambda c: derived.append(c) or derive(c)
        )
        sgd_compare(small_config())
        assert len(made) == 2
        assert sorted(map(id, derived)) == sorted(map(id, made))

    def test_composed_tv_matches_tightest_ledger(self):
        cfg = small_config()
        rep = sgd_compare(cfg)
        region = sgd_region(cfg)
        ledger_tvs = [r["composed_tv"] for r in rep["per_epsilon"]]
        # the intersected region is at least as private as the tightest
        # single-eps ledger, with equality when that ledger's TV tangency
        # point lies on the envelope (it does for this grid)
        assert region.tv() <= min(ledger_tvs) + 1e-12
        assert region.tv() == pytest.approx(min(ledger_tvs), abs=1e-6)


class TestSeparationAtDeepT:
    # 1406 steps compose lines with slopes down to -e^4780; the refined region
    # beats the baseline by O(1) in f, but only at t of order e^-2700.
    DEEP = SgdConfig(60000, 256, 6.0, MU, (2.6, 3.4))

    def test_strict_improvement(self):
        assert self.DEEP.steps == 1406
        assert strict_improvement(sgd_region(self.DEEP), sgd_region_baseline(self.DEEP))

    def test_region_matches_oracle_at_smallest_normal_t(self):
        t = 2.2250738585072014e-308
        oracles = [
            oracle_compose(dominating_approx(step_budget(MU, e)), self.DEEP.steps, mode="typed")
            for e in self.DEEP.epsilon_grid
        ]
        expected = max(float(c(t)) for c in oracles)
        assert expected > 0.0
        assert float(sgd_region(self.DEEP)(t)) == pytest.approx(expected, rel=1e-9)

    def test_dominance_report_agrees(self):
        dominance = sgd_compare(self.DEEP)["dominance"]
        assert dominance["min_gap"] >= -1e-9
        assert dominance["max_gap"] > 0.9
        assert dominance["strict"] is True


class TestOrderOfIntersection:
    # intersecting ledgers entrywise (all half-planes together) is how the
    # region is built, so it equals the curve of the merged entries bit for
    # bit
    @staticmethod
    def _assert_region_is_merged_entries_curve(cfg):
        ledgers = [
            compose_types_approx(step_budget(cfg.step_mu, e), cfg.steps)
            for e in cfg.epsilon_grid
        ]
        combined = _merged_entries_curve(ledgers)
        region = sgd_region(cfg)
        for name in ("_lt", "_lf", "_lm", "_lb"):
            assert getattr(region, name).tobytes() == getattr(combined, name).tobytes()

    def test_intersect_before_or_after_curve_conversion(self):
        self._assert_region_is_merged_entries_curve(small_config())

    def test_rounding_level_line_at_879_steps(self):
        # intersecting the 30 ledger curves one by one judges a
        # rounding-level line against other neighbours than the merged
        # entries do, and so drops one vertex more
        cfg = SgdConfig(60_000, 1024, 15.0, 0.01, C12_GRID)
        assert cfg.steps == 879
        self._assert_region_is_merged_entries_curve(cfg)


class TestColumnPathMatchesLedgers:
    # sgd_compare builds its regions from the kernel's columns; each must be
    # the very curve the checked public ledger path gives
    CONFIGS = [
        SgdConfig(600, 100, 1.0, 0.6, (0.5, 1.0, 2.0)),  # 6 steps
        SgdConfig(600, 100, 1.0, 0.01, (0.05, 0.5)),  # a composed TV near 0.02
        SgdConfig(6000, 100, 1.0, MU, (0.1, 0.7, 1.9, 3.4)),  # 60 steps
        SgdConfig(60_000, 1024, 15.0, 0.871942, (0.5, 1.2, 2.3, 3.4)),  # 879 steps
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"k{c.steps}")
    def test_grid_curves_equal_ledger_curves(self, config):
        region, records = _refined_region(config, 1e-6)
        ledgers = [
            compose_types_approx(step_budget(config.step_mu, r["epsilon"]), config.steps)
            for r in records
        ]
        expected = _merged_entries_curve(ledgers)
        for name in ("_lt", "_lf", "_lm", "_lb"):
            assert np.array_equal(getattr(region, name), getattr(expected, name))
        # and the intersection of the ledger curves, at every vertex of either
        per_ledger = intersect([ledger_to_curve(led) for led in ledgers])
        assert not np.any(_gaps(region, per_ledger))
        assert [r["composed_tv"] for r in records] == [led.composed_eta for led in ledgers]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"k{c.steps}")
    def test_baseline_equals_kairouz_ledger_curves(self, config):
        expected = intersect(
            [
                ledger_to_curve(
                    compose_kairouz(e, gaussian_delta(config.step_mu, e), config.steps)
                )
                for e in config.epsilon_grid
            ]
        )
        got = sgd_region_baseline(config)
        for name in ("_lt", "_lf", "_lm", "_lb"):
            assert np.array_equal(getattr(got, name), getattr(expected, name))

    def test_sgd_compare_builds_no_ledger_objects(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ledger object built")

        monkeypatch.setattr(tvdp.composition, "LedgerEntry", refuse)
        monkeypatch.setattr(tvdp.composition, "CompositionLedger", refuse)
        rep = sgd_compare(small_config())
        assert rep["dominance"]["strict"] is True
        with pytest.raises(AssertionError, match="ledger object built"):
            compose_types_approx(step_budget(MU, 1.0), 3)


@pytest.mark.parametrize(
    "run",
    [sgd_compare, sgd_region, sgd_region_baseline],
    ids=["compare", "region", "baseline"],
)
@pytest.mark.parametrize(
    "grid", [(1.0, 1e308), (0.5, 1e308, math.inf)], ids=["last", "middle"]
)
def test_later_grid_epsilon_overflowing_k_eps_is_named(run, grid):
    # the grid composes as one batch, but its budgets are checked in grid
    # order: the overflow names its epsilon and k, ahead of the infinite
    # epsilon after it
    config = SgdConfig(100, 10, 1.0, 0.5, grid)
    assert config.steps == 10
    with pytest.raises(ValidationError, match=r"epsilon = 1e\+308 is too large for k = 10"):
        run(config)


K_EPS = (ValidationError, r"epsilon = 1e\+308 is too large for k = 10: k\*epsilon overflows")
TOL = (ValueError, r"tol must be positive")


@pytest.mark.parametrize(
    "grid, tol, errors",
    [
        # each budget is drawn before tol is checked, so an infinite first
        # epsilon is named at any tol
        ((math.inf,), 1e-6, [(ValidationError, r"epsilon must be >= 0 and finite")] * 3),
        ((math.inf,), 0.0, [(ValidationError, r"epsilon must be >= 0 and finite")] * 3),
        ((1.0, 1e308), 1e-6, [K_EPS] * 3),
        ((1.0, 1e308), 0.0, [TOL, TOL, K_EPS]),
        ((0.5, 1e308, math.inf), 1e-6, [K_EPS] * 3),
        ((0.5, 1e308, math.inf), 0.0, [TOL, TOL, K_EPS]),
    ],
)
def test_grid_errors_at_each_tol_keep_grid_order(grid, tol, errors):
    # the baseline takes no tol, so it names the epsilon where the refined
    # grid names tol first
    config = SgdConfig(100, 10, 1.0, 0.5, grid)
    runs = [
        lambda: sgd_compare(config, tol=tol),
        lambda: sgd_region(config, tol=tol),
        lambda: sgd_region_baseline(config),
    ]
    for run, (error, message) in zip(runs, errors):
        with pytest.raises(ValueError, match=message) as raised:
            run()
        assert type(raised.value) is error


# sha256 of the full report: the README examples pin 12 digits, these pin
# every bit of the curves, deltas and records at the C12 run shape (the ids
# leave the digests out, so that a re-pin keeps the test names)
@pytest.mark.parametrize(
    "batch, mu, digest",
    [
        (1024, 0.6, "0a24618b998f1cc5b0c630f3270ce4b9060764ae711ac41a80799a6bf1c5ef15"),
        (1024, 0.75, "3016f0e03018eec39528ecc08554abdc9cef1983f22ca2fad0594310018864ca"),
        (1024, 0.871942, "ae4039e8fb69d48dbba01aa379d6a684acf0a301e98698b43b8cbdfe4be57d62"),
        (256, 0.7692307692, "a2363841dc93823530c328945995e47602f84121b23b63c9f7234bd812078600"),
    ],
    ids=["1024-0.6", "1024-0.75", "1024-0.871942", "256-0.7692307692"],
)
def test_sgd_compare_report_is_pinned_bit_for_bit(batch, mu, digest):
    config = SgdConfig(60_000, batch, 15.0, mu, C12_GRID)
    assert config.steps == {1024: 879, 256: 3516}[batch]
    assert hashlib.sha256(repr(sgd_compare(config)).encode()).hexdigest() == digest


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("run", [sgd_compare, sgd_region], ids=["compare", "region"])
def test_non_positive_tol_rejected(run, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        run(small_config(), tol=tol)
