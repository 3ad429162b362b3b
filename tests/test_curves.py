import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvdp
from tvdp import composition, curves
from tvdp import (
    DiscretePair,
    PrivacyBudget,
    TradeoffCurve,
    ValidationError,
    check_budget,
    curve_from_budget,
    curve_from_pair,
    delta_at_epsilon,
    dominating_approx,
    dominating_pure,
    intersect,
    min_gap,
    sup_norm,
    tv_feasibility_cap,
    tv_of_curve,
)

E = math.e
ETA_REF = 0.323482  # eta with alpha ~ 0.3 at eps = 1


class TestPrivacyBudget:
    def test_valid_budget(self):
        b = PrivacyBudget(1.0, 0.1, 0.4)
        assert b.tv_cap == pytest.approx(0.1 + 0.9 * (E - 1) / (E + 1))

    def test_eta_above_cap_rejected(self):
        with pytest.raises(ValidationError, match="eta exceeds"):
            PrivacyBudget(1.0, 0.0, 0.5)

    def test_eta_below_delta_allowed(self):
        # only composition requires eta >= delta
        PrivacyBudget(1.0, 0.2, 0.1)

    @pytest.mark.parametrize("eps,delta,eta", [(-1, 0, 0), (1, -0.1, 0), (1, 0, -0.1), (1, 1.1, 0.5)])
    def test_bad_ranges(self, eps, delta, eta):
        with pytest.raises(ValidationError):
            PrivacyBudget(eps, delta, eta)


# Every entry point taking a pure (epsilon, eta) pair validates it by building
# PrivacyBudget.pure, so each rejects exactly what that rejects.
PURE_ENTRY_POINTS = {
    "kl_functional": tvdp.kl_functional,
    "kappa2": tvdp.kappa2,
    "clt_mu": lambda eps, eta: tvdp.clt_mu([(eps, eta)]),
    "clt_gap": lambda eps, eta: tvdp.clt_gap(eps, eta, 3),
    "q_star": tvdp.q_star,
    "max_fdiv": lambda eps, eta: tvdp.max_fdiv(eps, eta, tvdp.DivergenceSpec.kl()),
    "kl_contraction_bound": tvdp.kl_contraction_bound,
    "chi2_output_bound": lambda eps, eta: tvdp.chi2_output_bound(eps, eta, 0.5),
    "opt_conversion_factor": tvdp.opt_conversion_factor,
    "be_ratio_lower_bound": tvdp.be_ratio_lower_bound,
    "random_joint_member": lambda eps, eta: tvdp.random_joint_member(
        np.random.default_rng(0), eps, eta, 2, 3
    ),
    "dominating_pure": tvdp.dominating_pure,
}


@pytest.mark.parametrize("name", sorted(PURE_ENTRY_POINTS))
@pytest.mark.parametrize(
    "eps, eta",
    [(-1.0, 0.1), (math.nan, 0.1), (math.inf, 0.3), (1.0, math.tanh(0.5) + 2e-12)],
)
def test_pure_entry_points_share_the_budget_checks(name, eps, eta):
    with pytest.raises(ValidationError):
        PrivacyBudget.pure(eps, eta)
    with pytest.raises(ValidationError):
        PURE_ENTRY_POINTS[name](eps, eta)


class TestCurveInvariants:
    def test_identity(self):
        c = TradeoffCurve.identity()
        assert c(0.3) == pytest.approx(0.7)
        assert c.tv() == 0.0

    def test_vertices_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            TradeoffCurve([0.1, 1.0], [0.9, 0.0])

    def test_must_be_convex(self):
        # slopes -0.5 then -0.875 decrease
        with pytest.raises(ValidationError, match="convex"):
            TradeoffCurve([0.0, 0.2, 1.0], [0.8, 0.7, 0.0])

    def test_must_be_nonincreasing(self):
        with pytest.raises(ValidationError):
            TradeoffCurve([0.0, 0.5, 1.0], [0.2, 0.5, 0.0])

    def test_dominated_by_identity_loss(self):
        with pytest.raises(ValidationError):
            TradeoffCurve([0.0, 1.0], [1.0, 0.5])

    def test_eval_range_error(self):
        with pytest.raises(ValidationError):
            TradeoffCurve.identity()(1.5)

    def test_json_round_trip(self):
        c = curve_from_budget(PrivacyBudget(1.0, 0.0, ETA_REF))
        again = TradeoffCurve.from_dict(c.as_dict())
        assert sup_norm(c, again) == 0.0


class TestCurveFromBudget:
    def test_no_privacy_loss_gives_identity(self):
        c = curve_from_budget(PrivacyBudget(0.0, 0.0, 0.0))
        assert sup_norm(c, TradeoffCurve.identity()) == 0.0

    def test_eta_at_cap_matches_pure_dp(self):
        # the TV line is tangent, not binding
        cap = tv_feasibility_cap(1.0, 0.0)
        with_tv = curve_from_budget(PrivacyBudget(1.0, 0.0, cap))
        pure = curve_from_budget(PrivacyBudget(1.0, 0.0, cap))
        assert sup_norm(with_tv, pure) == 0.0
        assert [len(with_tv.xs)] == [3]  # two DP lines only

    def test_kink_positions(self):
        c = curve_from_budget(PrivacyBudget(1.0, 0.0, ETA_REF))
        x1 = ETA_REF / (E - 1)
        x2 = 1.0 - ETA_REF * E / (E - 1)
        assert c.xs == pytest.approx([0.0, x1, x2, 1.0], abs=1e-12)
        assert c(0.0) == pytest.approx(1.0)

    def test_eval_on_tv_segment(self):
        c = curve_from_budget(PrivacyBudget(1.0, 0.0, ETA_REF))
        # all three lines evaluated at t = 0.3: the TV line is the max
        t = 0.3
        lines = [1 - E * t, (1 - t) / E, 1 - ETA_REF - t]
        assert max(lines) == lines[2]
        assert c(t) == pytest.approx(0.376518, abs=1e-12)

    def test_delta_shifts_intercept(self):
        c = curve_from_budget(PrivacyBudget(1.0, 0.1, 0.4))
        assert c(0.0) == pytest.approx(0.9)
        assert c(1.0) == 0.0


class TestTvOfCurve:
    def test_identity_zero(self):
        assert tv_of_curve(TradeoffCurve.identity()) == 0.0

    @pytest.mark.parametrize("eps,eta", [(0.5, 0.1), (1.0, ETA_REF), (2.0, 0.7)])
    def test_budget_round_trip(self, eps, eta):
        c = curve_from_budget(PrivacyBudget(eps, 0.0, eta))
        assert tv_of_curve(c) == pytest.approx(eta, abs=1e-9)

    def test_pair_curve_matches_mass_oracle(self):
        pair = dominating_pure(1.0, ETA_REF)
        oracle = float(np.maximum(0.0, pair.p0 - pair.p1).sum())
        assert tv_of_curve(curve_from_pair(pair)) == pytest.approx(oracle, abs=1e-9)


class TestCheckBudget:
    def test_identity_satisfies_everything(self, budgets):
        ident = TradeoffCurve.identity()
        assert all(check_budget(ident, b) for b in budgets)

    def test_tight_curve_passes_own_budget(self):
        b = PrivacyBudget(1.0, 0.0, ETA_REF)
        assert check_budget(curve_from_pair(dominating_pure(1.0, ETA_REF)), b)

    def test_smaller_eta_fails(self):
        c = curve_from_pair(dominating_pure(1.0, ETA_REF))
        assert not check_budget(c, PrivacyBudget(1.0, 0.0, 0.30))

    def test_smaller_eps_fails(self):
        c = curve_from_pair(dominating_pure(1.0, ETA_REF))
        assert not check_budget(c, PrivacyBudget(0.9, 0.0, ETA_REF))


class TestIntersect:
    def test_single_curve_unchanged(self):
        ident = TradeoffCurve.identity()
        assert sup_norm(intersect([ident]), ident) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            intersect([])

    def test_dp_with_tv_only_curve(self):
        # joint-constraint region = intersection of separate regions
        cap = tv_feasibility_cap(1.0, 0.0)
        dp_only = curve_from_budget(PrivacyBudget(1.0, 0.0, cap))
        tv_only = curve_from_budget(PrivacyBudget(50.0, 0.0, 0.3))
        joint = curve_from_budget(PrivacyBudget(1.0, 0.0, 0.3))
        assert sup_norm(intersect([dp_only, tv_only]), joint) <= 1e-12

    def test_crossing_dp_lines(self):
        a = curve_from_budget(PrivacyBudget.from_dp(1.0, 0.1))
        b = curve_from_budget(PrivacyBudget.from_dp(2.0, 0.02))
        env = intersect([a, b])
        # crossing of 0.9 - e t and 0.98 - e^2 t
        x_cross = (0.98 - 0.9) / (math.exp(2.0) - math.exp(1.0))
        assert env(x_cross) == pytest.approx(0.9 - math.exp(1.0) * x_cross, abs=1e-12)
        xs = np.linspace(0, 1, 101)
        assert np.all(env(xs) >= np.maximum(a(xs), b(xs)) - 1e-12)

    def test_idempotent_commutative_monotone(self):
        a = curve_from_budget(PrivacyBudget(1.0, 0.0, ETA_REF))
        b = curve_from_budget(PrivacyBudget(0.5, 0.05, 0.2))
        assert sup_norm(intersect([a, a]), a) <= 1e-12
        assert sup_norm(intersect([a, b]), intersect([b, a])) == 0.0
        assert min_gap(intersect([a, b]), a) >= -1e-12


class TestCurveFromPair:
    def test_equal_pmfs_identity(self):
        pair = DiscretePair(np.full(4, 0.25), np.full(4, 0.25))
        assert sup_norm(curve_from_pair(pair), TradeoffCurve.identity()) == 0.0

    def test_dominating_pure_vertices(self):
        c = curve_from_pair(dominating_pure(1.0, ETA_REF))
        x1 = ETA_REF / (E - 1)
        assert c.xs == pytest.approx([0.0, x1, 1.0 - ETA_REF * E / (E - 1), 1.0], abs=1e-9)

    def test_dominating_approx_hits_one_minus_delta(self):
        c = curve_from_pair(dominating_approx(PrivacyBudget(1.0, 0.1, 0.4)))
        assert c(0.0) == pytest.approx(0.9, abs=1e-12)
        assert len(c.xs) == 5  # five-segment boundary incl. the flat tail

    def test_zero_mass_outcomes_skipped(self):
        pair = DiscretePair(np.array([0.5, 0.0, 0.5]), np.array([0.2, 0.0, 0.8]))
        c = curve_from_pair(pair)
        assert c(0.0) == pytest.approx(1.0)

    def test_matches_budget_curve_vertex_for_vertex(self, budgets):
        for b in budgets:
            pc = curve_from_pair(dominating_approx(b))
            bc = curve_from_budget(b)
            assert pc.xs.size == bc.xs.size, b
            assert pc.xs == pytest.approx(bc.xs, abs=1e-9)
            assert pc.ys == pytest.approx(bc.ys, abs=1e-9)


class TestDominanceAndSymmetry:
    def _budget_for(self, pair):
        lr = np.log(pair.p0[(pair.p0 > 0) & (pair.p1 > 0)]) - np.log(
            pair.p1[(pair.p0 > 0) & (pair.p1 > 0)]
        )
        eps = float(np.max(np.abs(lr))) if lr.size else 0.0
        delta = float(pair.p0[pair.p1 == 0].sum())
        eta = pair.tv()
        return PrivacyBudget(eps, min(1.0, delta), min(1.0, eta))

    def test_pair_curve_dominates_budget_curve(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p0 = rng.dirichlet(np.ones(6))
            p1 = rng.dirichlet(np.ones(6))
            pair = DiscretePair(p0, p1)
            b = self._budget_for(pair)
            assert check_budget(curve_from_pair(pair), b)
            assert min_gap(curve_from_pair(pair), curve_from_budget(b)) >= -1e-9

    def test_mirror_swaps_hypotheses(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p0 = rng.dirichlet(np.ones(5))
            p1 = rng.dirichlet(np.ones(5))
            fwd = curve_from_pair(DiscretePair(p0, p1))
            rev = curve_from_pair(DiscretePair(p1, p0))
            assert sup_norm(fwd.mirror(), rev) <= 1e-9

    def test_dominating_pair_is_self_mirror(self):
        c = curve_from_pair(dominating_pure(1.0, ETA_REF))
        assert sup_norm(c, c.mirror()) <= 1e-12


def _random_lines():
    rng = np.random.default_rng(5)
    lm = rng.normal(0.0, 20.0, 400)
    lb = np.minimum(-np.abs(rng.normal(0.0, 3.0, 400)), lm)  # f <= 1 - t
    return lm, lb


def _raised_tangent_lines():
    """Tangents of f = (1 - sqrt t)^2, which all lead, and the middle one
    raised by 0.05 in lb, which hides only its two current neighbours per
    pass: the envelope keeps 699 of the 2001 lines after about 300 passes.
    Every lb is then lowered by 0.05, which scales all lines by one factor
    and so keeps the same lines leading, so that f(0) <= 1."""
    s = np.logspace(-6, -1e-9, 2000)  # sqrt t at the tangent points
    lm = np.log((1 - s) / s)
    lb = np.log((1 - s) ** 2 + (1 - s) * s)
    mid = s.size // 2
    return np.append(lm, lm[mid]), np.append(lb, lb[mid] + 0.05) - 0.05


class TestLogCoordinates:
    def test_slopes_beyond_double_range(self):
        # kink at t = e^-3000 with f = e^-3000: both underflow as doubles
        b = PrivacyBudget(3000.0, 0.0, 1.0)
        c = curve_from_budget(b)
        tiny = float(np.finfo(float).tiny)
        assert c.vertices == [(0.0, 1.0), (tiny, 0.0), (1.0, 0.0)]
        assert check_budget(c, b)
        assert delta_at_epsilon(c, 3000.0) <= 1e-12
        # e^2999 f + t >= 1 - delta binds at the kink: delta = 1 - 1/e
        assert delta_at_epsilon(c, 2999.0) == pytest.approx(1.0 - 1.0 / E, rel=1e-9)
        assert not check_budget(c, PrivacyBudget(2999.0, 0.5, 1.0))

    @pytest.mark.parametrize(
        "family", [_random_lines, _raised_tangent_lines], ids=["random", "raised_tangent"]
    )
    def test_envelope_is_pointwise_max_of_lines(self, family):
        lm, lb = family()
        env = curves._upper_envelope(lm, lb)
        log_t = np.union1d(env._lt, np.linspace(-80.0, 0.0, 2001))
        lines = np.exp(lb)[:, None] - np.exp(lm[:, None] + log_t)
        brute = np.maximum(0.0, lines.max(axis=0))
        assert np.max(np.abs(env._at_log(log_t) - brute)) <= 1e-12
        _assert_envelope_matches_reference(lm, lb)


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(0.0, 5.0),
    delta=st.floats(0.0, 0.5),
    frac=st.floats(0.0, 1.0),
)
def test_budget_curve_round_trip_property(eps, delta, frac):
    eta = frac * tv_feasibility_cap(eps, delta)
    b = PrivacyBudget(eps, delta, eta)
    c = curve_from_budget(b)
    assert check_budget(c, b)
    assert tv_of_curve(c) == pytest.approx(eta, abs=1e-9)


# ---------------------------------------------------------------------------
# The envelope's pass loop keeps each crossing that a pass leaves in place and
# recomputes only those of newly adjacent pairs.  The function below is a
# regression reference: a pass loop that recomputes every crossing on every
# pass until no line is hidden, with its own copy of the crossing formula and
# its own lexsort.


def _reference_envelope(log_slopes, log_intercepts):
    """(lm, lb, lt, lf) of the envelope by the full-recompute pass loop."""
    log1mexp, log = curves._log1mexp, curves._log

    def crossings(lm, lb):
        with np.errstate(over="ignore"):
            slope_gap = lm[1:] - lm[:-1]
        return lb[:-1] + log1mexp(lb[1:] - lb[:-1]) - lm[:-1] - log1mexp(slope_gap)

    lm = np.append(np.asarray(log_slopes, dtype=float), -np.inf)
    lb = np.append(np.asarray(log_intercepts, dtype=float), -np.inf)
    order = np.lexsort((-lb, -lm))
    lm, lb = lm[order], lb[order]
    keep = np.ones(lm.size, dtype=bool)
    keep[1:] = lm[1:] != lm[:-1]
    lm, lb = lm[keep], lb[keep]
    flatter_best = np.maximum.accumulate(lb[::-1])[::-1]
    keep = np.ones(lm.size, dtype=bool)
    keep[:-1] = lb[:-1] > flatter_best[1:]
    lm, lb = lm[keep], lb[keep]
    while True:
        cross = crossings(lm, lb)
        hidden = curves._hands_over_first(cross[:-1], cross[1:])
        if not hidden.any():
            break
        keep = np.ones(lm.size, dtype=bool)
        keep[1:-1] = ~hidden
        lm, lb = lm[keep], lb[keep]
    n = 1 + int(np.count_nonzero(cross < 0.0))
    lm, lb, cross = lm[:n], lb[:n], cross[: n - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.minimum(lb[:-1] - lb[1:] + lm[1:] - lm[:-1], 0.0)
        lf_cross = np.where(
            lb[1:] == -np.inf,
            -np.inf,
            lb[1:] + log1mexp(spread) - log1mexp(lm[1:] - lm[:-1]),
        )
    end = np.exp(lb[-1]) - np.exp(lm[-1])
    lt = np.concatenate(([-np.inf], cross, [0.0]))
    lf = np.concatenate(([lb[0]], lf_cross, [log(max(end, 0.0))]))
    return lm, lb, lt, np.minimum(lf, 0.0)


def _assert_envelope_matches_reference(lm, lb, env=None):
    if env is None:
        env = curves._upper_envelope(lm, lb)
    want = _reference_envelope(lm, lb)
    got = (env._lm, env._lb, env._lt, env._lf)
    for name, a, b in zip(("lm", "lb", "lt", "lf"), got, want):
        assert a.tobytes() == b.tobytes(), name  # signed zeros count


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(1e-3, 4.0),
    delta=st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]),
    frac=st.floats(0.0, 1.0),
    k=st.integers(1, 2000),
    kairouz=st.booleans(),
)
def test_ledger_envelope_is_unchanged_bit_for_bit(eps, delta, frac, k, kairouz):
    if kairouz:
        alpha, levels = 0.0, composition._kairouz_levels(k)
    else:
        budget = PrivacyBudget(eps, delta, delta + frac * (tv_feasibility_cap(eps, delta) - delta))
        alpha, levels = composition._composable_alpha(budget, k), slice(None)
    j, log_keep, _, _ = composition._grid_columns(k, [eps], [delta], [alpha], levels)
    eps_j = j * eps
    lm, lb = np.concatenate((eps_j, -eps_j)), np.concatenate((log_keep[0], log_keep[0] - eps_j))
    _assert_envelope_matches_reference(lm, lb)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 600),
    spread=st.sampled_from([0.5, 3.0, 20.0, 300.0]),
)
def test_random_line_envelope_is_unchanged_bit_for_bit(seed, n, spread):
    rng = np.random.default_rng(seed)
    lm = rng.normal(0.0, spread, n)
    lb = np.minimum(-np.abs(rng.normal(0.0, 3.0, n)), lm)  # f <= 1 - t
    _assert_envelope_matches_reference(lm, lb)


# The envelope sorts by slope alone and keeps the highest line of each slope.
# Grid regions share slopes across rows (j*eps equal for different eps), so
# runs of equal slopes, equal intercepts and signed zeros are the common case
# there, which random lines almost never draw.

_TIED_EPS = [round(0.5 + 0.1 * i, 12) for i in range(30)] + [0.25, 0.75, 1.25]


@settings(max_examples=150, deadline=None)
@given(
    eps=st.lists(st.sampled_from(_TIED_EPS), min_size=1, max_size=15),
    copies=st.integers(1, 2),
    first_j=st.integers(0, 1),
    k=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_envelope_with_many_slope_ties_is_unchanged_bit_for_bit(
    eps, copies, first_j, k, seed
):
    rng = np.random.default_rng(seed)
    # starting at j = 1 leaves out the zero slope: one of its lines with
    # intercept 1 keeps every steeper such line out of the envelope, ties
    # and all; repeated rows tie at every slope
    eps_j = np.arange(first_j, k + 1) * np.array(eps * copies)[:, None]
    # half the intercepts from a few shared values, mostly the two zeros
    # (delta_j = 0), and -inf (delta_j = 1) among them
    shared = rng.choice([0.0, -0.0, 0.0, -0.0, -1e-12, -0.7, -np.inf], eps_j.shape)
    log_keep = np.where(
        rng.random(eps_j.shape) < 0.5, shared, -rng.exponential(2.0, eps_j.shape)
    )
    lm = np.concatenate((eps_j, -eps_j), axis=None)
    lb = np.concatenate((log_keep, log_keep - eps_j), axis=None)
    _assert_envelope_matches_reference(lm, lb)


def test_envelope_builds_sort_by_slope_alone(monkeypatch):
    # _reference_envelope above keeps lexsort as the independent reference
    def refuse(*args, **kwargs):
        raise AssertionError("lexsort called")

    monkeypatch.setattr(np, "lexsort", refuse)
    config = tvdp.SgdConfig(6000, 100, 1.0, 0.8, (0.5, 1.0, 1.5))
    assert tvdp.sgd_compare(config)["dominance"]["strict"] is True
    ledgers = [
        tvdp.compose_exact(PrivacyBudget(e, 1e-6, 0.2), 200) for e in (0.5, 1.0)
    ]
    ledger_curves = [tvdp.ledger_to_curve(led) for led in ledgers]
    intersect(ledger_curves + [curve_from_budget(PrivacyBudget(1.0, 0.0, 0.3))])


# Grid builds run the kernel on all budgets at once; every row must be
# exactly what one budget on its own gives.


@settings(max_examples=15, deadline=None)
@given(
    budgets=st.lists(
        st.tuples(
            st.floats(1e-3, 4.0),
            st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]),
            st.floats(0.0, 1.0),
        ),
        min_size=1,
        max_size=30,
    ),
    k=st.integers(1, 2000),
    kairouz=st.booleans(),
)
def test_grid_rows_equal_single_builds_bit_for_bit(budgets, k, kairouz):
    budgets = sorted(budgets)
    eps = [e for e, _, _ in budgets]
    delta = [d for _, d, _ in budgets]
    if kairouz:
        alpha, levels = [0.0] * len(eps), composition._kairouz_levels(k)
    else:
        alpha = [
            composition._composable_alpha(
                PrivacyBudget(e, d, d + frac * (tv_feasibility_cap(e, d) - d)), k
            )
            for e, d, frac in budgets
        ]
        levels = slice(None)
    j, log_keep, clamped, eta = composition._grid_columns(k, eps, delta, alpha, levels)
    for row in range(len(eps)):
        j1, keep1, clamped1, eta1 = composition._grid_columns(
            k, [eps[row]], [delta[row]], [alpha[row]], levels
        )
        assert j.tobytes() == j1.tobytes()
        assert log_keep[row].tobytes() == keep1[0].tobytes()
        assert clamped[row].tobytes() == clamped1[0].tobytes()
        assert eta[row].hex() == eta1[0].hex()


# A grid's region is one envelope of all its ledgers' lines, which must be
# the intersection of the ledgers' own envelopes.


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    families=st.integers(1, 8),
    n=st.integers(1, 300),
)
def test_envelope_of_line_families_equals_intersect_of_their_envelopes(
    seed, families, n
):
    rng = np.random.default_rng(seed)
    # each family its own spread, and some families' lines mostly dominated
    # by a few high ones, so that their envelopes keep different numbers of
    # lines
    spread = rng.choice([0.5, 3.0, 20.0, 300.0], (families, 1))
    lm = rng.normal(0.0, 1.0, (families, n)) * spread
    lm[rng.random((families, n)) < 0.05] = 0.0
    lb = np.minimum(-np.abs(rng.normal(0.0, 3.0, (families, n))), lm)  # f <= 1 - t
    buried = rng.random((families, n)) < rng.random((families, 1))
    lb[buried] -= 50.0
    # repeated lines (a zero slope repeated with the other sign), within a
    # family and across families, and lines on the floor
    again = rng.random((families, n)) < 0.1
    source = rng.integers(0, n, (families, n))
    lm[again] = np.take_along_axis(lm, source, 1)[again]
    lb[again] = np.take_along_axis(lb, source, 1)[again]
    shared = rng.random(n) < 0.1
    lm[:, shared], lb[:, shared] = lm[0, shared], lb[0, shared]
    lm[again & (lm == 0.0)] *= -1.0
    floor = rng.random((families, n)) < 0.05
    lm[floor] = lb[floor] = -np.inf
    whole = curves._upper_envelope(lm, lb)
    parts = intersect([curves._upper_envelope(m, b) for m, b in zip(lm, lb)])
    for name in ("_lm", "_lb", "_lt", "_lf"):
        assert getattr(whole, name).tobytes() == getattr(parts, name).tobytes(), name


# Intersections with a long ledger curve, which took hundreds of passes
# when the flat halves went into the envelope too.  Their steep halves are
# those a sequential scan once built, bit for bit; the digests were taken
# when the flat halves became the mirrors of the steep ones.


def _long_ledger_curve(eps, frac, k):
    budget = PrivacyBudget(eps, 0.0, frac * math.tanh(eps / 2))
    return tvdp.ledger_to_curve(tvdp.compose_exact(budget, k))


@pytest.mark.parametrize(
    "second, digest",
    [
        (
            lambda: _long_ledger_curve(0.02, 0.9, 5000),
            "156ab6cf4f0f005987cd6b4803e3891d6917bb66717498ce3ab5802a2470fba7",
        ),
        (
            lambda: curve_from_budget(PrivacyBudget(1.0, 0.0, 0.3)),
            "fe9ca158b46080c3c81b5117a68dea186186974a4dd483d3292c7c4190346a01",
        ),
    ],
    ids=["ledger", "budget"],
)
def test_intersect_with_a_long_ledger_curve_is_pinned_bit_for_bit(second, digest):
    parts = [_long_ledger_curve(0.01, 0.5, 10**4), second()]
    got = intersect(parts)
    log_form = (got._lm, got._lb, got._lt, got._lf)
    assert hashlib.sha256(b"".join(a.tobytes() for a in log_form)).hexdigest() == digest
    lm, lb = (np.concatenate([getattr(c, name) for c in parts]) for name in ("_lm", "_lb"))
    _assert_symmetric_build(got, lm[lm >= 0.0], lb[lm >= 0.0])


def test_pass_loop_computes_every_crossing_once(monkeypatch):
    calls = {"crossings": 0, "passes": 0}
    crossings, hands_over_first = curves._crossings, curves._hands_over_first

    def counted_crossings(*args):
        calls["crossings"] += 1
        return crossings(*args)

    def counted_pass(*args):
        calls["passes"] += 1
        return hands_over_first(*args)

    monkeypatch.setattr(curves, "_crossings", counted_crossings)
    monkeypatch.setattr(curves, "_hands_over_first", counted_pass)
    b = PrivacyBudget(0.7, 1e-6, 0.25)
    j, log_keep, _, _ = composition._grid_columns(
        2000, [b.epsilon], [b.delta], [composition._composable_alpha(b, 2000)]
    )
    # a ledger's DP lines and their mirrors, and a grid region's DP lines
    # in a symmetric build: several passes drop lines in each, and none
    # goes back to the full crossing list
    curves._upper_envelope(*_with_mirrors(j * b.epsilon, log_keep[0]))
    assert calls["passes"] >= 3
    assert calls["crossings"] == 1
    calls.update(crossings=0, passes=0)
    region = tvdp.sgd_region(tvdp.SgdConfig(20_000, 100, 1.0, 0.6, (0.5, 1.0, 2.0)))
    assert region._symmetric
    assert calls["passes"] >= 4  # the last one cuts the steep half at the diagonal
    assert calls["crossings"] == 1


# Budget curves, ledger curves, SGD regions and their intersections are
# symmetric about the diagonal.  They are built from their lines with
# lm >= 0 and mirrored; the reference is the envelope of those lines and
# their mirrors by the full-recompute pass loop above.


def _with_mirrors(lm, lb):
    """The lines (lm >= 0, any shape) and the mirrors of the steeper ones."""
    lm, lb = np.ravel(lm), np.ravel(lb)
    steep = lm > 0.0
    return np.concatenate((lm, -lm[steep])), np.concatenate((lb, (lb - lm)[steep]))


def _assert_self_mirror(curve):
    """The log form reversed with (lt, lf) -> (lf, lt) and (lm, lb) ->
    (-lm, lb - lm) is the log form itself, apart from the floor that closes
    a curve starting below 1 (the mirror of its drop at t = 0)."""
    lt, lf, lm, lb = curve._lt, curve._lf, curve._lm, curve._lb
    if lf[0] < 0.0:
        assert lt[-1] == 0.0 and lf[-1] == lm[-1] == lb[-1] == -np.inf
        lt, lf, lm, lb = lt[:-1], lf[:-1], lm[:-1], lb[:-1]
    assert np.array_equal(lt, lf[::-1])
    steep = int(np.count_nonzero(lm > 0.0))
    assert lm.size - 2 * steep in (0, 1)  # the middle segment, of slope -1
    assert np.all(lm[steep : lm.size - steep] == 0.0)
    assert np.array_equal(lm[lm.size - steep :], -lm[:steep][::-1])
    assert np.array_equal(lb[lb.size - steep :], (lb - lm)[:steep][::-1])


def _assert_symmetric_build(curve, lm, lb):
    """``curve`` is flagged, its own mirror, and its steep half (lm > 0, and
    the vertex ending it where a middle segment follows) is bit for bit
    that of the envelope of the lines (lm, lb) and their mirrors."""
    assert curve._symmetric
    _assert_self_mirror(curve)
    want = _reference_envelope(*_with_mirrors(lm, lb))
    steep = int(np.count_nonzero(curve._lm > 0.0))
    assert steep == np.count_nonzero(want[0] > 0.0)
    ends = steep + int(steep < curve._lm.size and curve._lm[steep] == 0.0)
    for name, got, ref in zip(("lm", "lb"), (curve._lm, curve._lb), want[:2]):
        assert got[:steep].tobytes() == ref[:steep].tobytes(), name
    for name, got, ref in zip(("lt", "lf"), (curve._lt, curve._lf), want[2:]):
        assert got[:ends].tobytes() == ref[:ends].tobytes(), name


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["exact", "types", "kairouz", "budget", "grid", "kairouz grid"]),
    eps=st.lists(st.floats(1e-3, 4.0), min_size=1, max_size=4),
    delta=st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]),
    frac=st.floats(0.0, 1.0),
    k=st.integers(1, 2000),
)
def test_symmetric_curves_keep_the_steep_half_and_are_their_own_mirror(
    kind, eps, delta, frac, k
):
    eps = sorted(eps)
    budgets = [
        PrivacyBudget(e, delta, delta + frac * (tv_feasibility_cap(e, delta) - delta))
        for e in eps
    ]
    b = budgets[0]
    if kind == "budget":
        curve = curve_from_budget(b)
        lm = np.array([b.epsilon, 0.0])
        lb = np.array([math.log1p(-b.delta), math.log1p(-b.eta)])
    elif kind in ("grid", "kairouz grid"):
        if kind == "grid":
            alpha = [composition._composable_alpha(budget, k) for budget in budgets]
            curve, levels = composition._region(k, budgets, alpha)[0], slice(None)
        else:
            alpha, levels = [0.0] * len(eps), composition._kairouz_levels(k)
            curve = composition._kairouz_region(eps, [delta] * len(eps), k)
        j, lb, _, _ = composition._grid_columns(k, eps, [delta] * len(eps), alpha, levels)
        lm = j * np.array(eps)[:, None]
    else:
        ledger = {
            "exact": lambda: tvdp.compose_exact(b, k),
            "types": lambda: tvdp.compose_types_approx(b, k),
            "kairouz": lambda: tvdp.compose_kairouz(b.epsilon, delta, k),
        }[kind]()
        curve = tvdp.ledger_to_curve(ledger)
        lm = np.array([e.epsilon for e in ledger.entries])
        lb = np.array([e.log_one_minus_delta for e in ledger.entries])
    _assert_symmetric_build(curve, lm, lb)


# A symmetric curve reads its privacy profile from its supporting lines,
# whose intercepts are log(1 - delta_j): each ledger delta_j reads back with
# relative precision, far below the 1e-16 that 1 - min(t + e^eps f) keeps.


@settings(max_examples=25, deadline=None)
@given(
    eps=st.floats(1e-3, 4.0),
    delta=st.sampled_from([0.0, 1e-12, 1e-6]),
    frac=st.floats(0.0, 1.0),
    k=st.integers(1, 10**4),
    kairouz=st.booleans(),
)
def test_ledger_curve_profile_returns_every_delta(eps, delta, frac, k, kairouz):
    if kairouz:
        ledger = tvdp.compose_kairouz(eps, delta, k)
    else:
        eta = delta + frac * (tv_feasibility_cap(eps, delta) - delta)
        ledger = tvdp.compose_exact(PrivacyBudget(eps, delta, eta), k)
    curve = tvdp.ledger_to_curve(ledger)
    for e in ledger.entries:
        if e.delta > 1e-300:
            assert delta_at_epsilon(curve, e.epsilon) == pytest.approx(e.delta, rel=1e-12)


def test_deep_ledger_delta_reads_back():
    # delta_140 = 7.58e-17 of (1, 0, 0.3) at k = 200 read 5.16e-17 from
    # 1 - min(t + e^eps f)
    ledger = tvdp.compose_exact(PrivacyBudget(1.0, 0.0, 0.3), 200)
    entry = ledger.entries[140]
    assert entry.delta == pytest.approx(7.58e-17, rel=1e-3)
    assert delta_at_epsilon(tvdp.ledger_to_curve(ledger), entry.epsilon) == pytest.approx(
        entry.delta, rel=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(0.0, 700.0),
    delta=st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e-300, 1e-12, 1e-10, 1e-5])),
    frac=st.floats(0.0, 1.0),
)
def test_budget_curve_returns_its_delta(eps, delta, frac):
    # eta >= delta keeps the DP line on the curve
    b = PrivacyBudget(eps, delta, delta + frac * (tv_feasibility_cap(eps, delta) - delta))
    assert delta_at_epsilon(curve_from_budget(b), eps) == pytest.approx(delta, rel=1e-15)


def test_symmetry_flag_marks_the_curves_built_as_mirror_images():
    b = PrivacyBudget(1.0, 1e-6, 0.3)
    config = tvdp.SgdConfig(600, 100, 1.0, 0.6, (0.5, 1.0, 2.0))
    flagged = [
        curve_from_budget(b),
        tvdp.ledger_to_curve(tvdp.compose_exact(b, 50)),
        tvdp.ledger_to_curve(tvdp.compose_types_approx(b, 50)),
        tvdp.ledger_to_curve(tvdp.compose_kairouz(1.0, 1e-6, 51)),
        tvdp.sgd_region(config),
        tvdp.sgd_region_baseline(config),
        # a staircase curve is the curve of its (epsilon, 0, eta) budget
        tvdp.staircase_curve(tvdp.StaircaseSpec(0.5, 1.0)),
    ]
    for c in flagged:
        assert c._symmetric and c.mirror() is c
    assert intersect(flagged)._symmetric
    pair = curve_from_pair(dominating_approx(b))
    unflagged = [
        pair,
        pair.mirror(),
        intersect([flagged[0], pair]),
        TradeoffCurve.identity(),
        TradeoffCurve.from_vertices([(0.0, 1.0), (0.5, 0.2), (1.0, 0.0)]),
    ]
    for c in unflagged:
        assert not c._symmetric
    # the mirror of an unflagged curve is built, as before
    assert pair.mirror() is not pair


class TestLazyLinearView:
    @staticmethod
    def _ledger_curve():
        return tvdp.ledger_to_curve(tvdp.compose_exact(PrivacyBudget(0.5, 1e-6, 0.2), 300))

    def test_view_is_derived_on_first_read_only(self, monkeypatch):
        derived = []
        derive = TradeoffCurve._derive_view

        def counted(self):
            derived.append(self)
            return derive(self)

        monkeypatch.setattr(TradeoffCurve, "_derive_view", counted)
        c = self._ledger_curve()
        c.tv(), delta_at_epsilon(c, 1.0), intersect([c, c])
        assert derived == []
        xs, ys = c.xs, c.ys
        assert c.xs is xs and c.ys is ys
        assert len(derived) == 1 and derived[0] is c

    def test_view_is_read_only(self):
        c = self._ledger_curve()
        with pytest.raises(AttributeError):
            c.xs = np.array([0.0, 1.0])
        with pytest.raises(AttributeError):
            c.ys = np.array([1.0, 0.0])
        for arr in (c.xs, c.ys):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_early_and_late_views_agree(self):
        early, late = self._ledger_curve(), self._ledger_curve()
        early.xs
        late.tv(), delta_at_epsilon(late, 1.0), late.mirror()
        assert early == late and late == early
        assert hash(early) == hash(late)
        assert early.vertices == late.vertices
        assert early.as_dict() == late.as_dict()
        assert early.xs.tobytes() == late.xs.tobytes()
        assert early.ys.tobytes() == late.ys.tobytes()
