import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import ldp_epsilon_pairwise, random_pair
from tvdp import (
    Channel,
    DiscretePair,
    DivergenceSpec,
    ValidationError,
    be_ratio_lower_bound,
    binary_erasure_mechanism,
    chi2_output_bound,
    chi_squared,
    dobrushin,
    erase_channel,
    eta_kl_estimate,
    f_divergence,
    kl_contraction_bound,
    kl_divergence,
    ldp_epsilon,
    le_cam,
    max_fdiv,
    opt_conversion_factor,
    push_forward,
    q_star,
    random_joint_member,
    random_ldp_channel,
    randomized_response,
    total_variation,
)

E = math.e


class TestChannel:
    def test_row_stochastic_enforced(self):
        with pytest.raises(ValidationError):
            Channel(np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_needs_two_inputs(self):
        with pytest.raises(ValidationError):
            Channel(np.array([[1.0, 0.0]]))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            Channel(np.array([[math.nan, 1.0], [0.5, 0.5]]))

    @pytest.mark.parametrize("payload", [[[1.0]], 3, {"rows": [[1.0]]}])
    def test_from_dict_needs_matrix_object(self, payload):
        with pytest.raises(ValidationError, match="matrix"):
            Channel.from_dict(payload)

    def test_json_round_trip(self):
        ch = q_star(1.0, 0.3)
        assert np.allclose(Channel.from_dict(ch.as_dict()).matrix, ch.matrix)


class TestLdpEpsilon:
    def test_equal_rows_zero(self):
        ch = Channel(np.tile([0.2, 0.3, 0.5], (3, 1)))
        assert ldp_epsilon(ch) == 0.0

    def test_qstar_achieves_eps(self):
        assert ldp_epsilon(q_star(1.0, 0.3)) == pytest.approx(1.0, abs=1e-12)

    def test_randomized_response(self):
        assert ldp_epsilon(randomized_response(1.0, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_infinite_when_support_differs(self):
        ch = Channel(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert ldp_epsilon(ch) == math.inf


# Non-positive entries of both kinds (0 and the -1e-16 the channel check
# tolerates) decide which outputs each input reaches.
_CHANNEL_ENTRY = st.one_of(st.sampled_from([0.0, -1e-16]), st.floats(1e-300, 1.0))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), inputs=st.integers(2, 6), outputs=st.integers(1, 6))
def test_ldp_epsilon_equals_pairwise_reference_bit_for_bit(data, inputs, outputs):
    rows = st.lists(_CHANNEL_ENTRY, min_size=outputs, max_size=outputs)
    m = np.array(data.draw(st.lists(rows, min_size=inputs, max_size=inputs)))
    positive = np.where(m > 0.0, m, 0.0)
    assume(np.all(positive.sum(axis=1) > 0.0))
    if data.draw(st.booleans()):  # repeated rows, so that some ratios are 1
        m[1:] = m[data.draw(st.integers(0, inputs - 1))]
        positive = np.where(m > 0.0, m, 0.0)
    ch = Channel(np.where(m > 0.0, m / positive.sum(axis=1, keepdims=True), m))
    assert repr(ldp_epsilon(ch)) == repr(ldp_epsilon_pairwise(ch.matrix))


class TestDobrushin:
    def test_identity_channel(self):
        assert dobrushin(Channel(np.eye(2))) == 1.0

    def test_qstar_achieves_eta(self):
        assert dobrushin(q_star(1.0, 0.3)) == pytest.approx(0.3, abs=1e-12)

    def test_binary_randomized_response(self):
        assert dobrushin(randomized_response(1.0, 2)) == pytest.approx((E - 1) / (E + 1), abs=1e-12)

    def test_mary_randomized_response(self):
        # row TV of the M-ary matrix is (e^eps - 1)/(e^eps + M - 1)
        assert dobrushin(randomized_response(1.0, 4)) == pytest.approx((E - 1) / (E + 3), abs=1e-12)


class TestQStar:
    def test_reference_rows(self):
        ch = q_star(1.0, 0.3)
        expected = [0.3 * E / (E - 1), 0.3 / (E - 1), 1 - 0.3 * (E + 1) / (E - 1)]
        assert ch.matrix[0] == pytest.approx(expected, abs=1e-12)
        assert ch.matrix[1] == pytest.approx([expected[1], expected[0], expected[2]], abs=1e-12)

    def test_eta_at_cap_drops_erasure_column(self):
        cap = (E - 1) / (E + 1)
        ch = q_star(1.0, cap)
        assert ch.matrix[0][2] == pytest.approx(0.0, abs=1e-12)
        rr = randomized_response(1.0, 2)
        assert ch.matrix[0][:2] == pytest.approx(rr.matrix[0], abs=1e-12)

    def test_eta_above_cap_rejected(self):
        with pytest.raises(ValidationError):
            q_star(1.0, 0.5)

    def test_joint_membership(self):
        for eps, eta in ((0.5, 0.1), (1.0, 0.3), (2.0, 0.7)):
            ch = q_star(eps, eta)
            assert ldp_epsilon(ch) <= eps + 1e-9
            assert dobrushin(ch) <= eta + 1e-12


class TestPushForward:
    def test_point_mass_selects_row(self):
        ch = q_star(1.0, 0.3)
        assert push_forward(ch, [1.0, 0.0]) == pytest.approx(ch.matrix[0], abs=0)

    def test_uniform_through_rr_stays_uniform(self):
        out = push_forward(randomized_response(1.0, 2), [0.5, 0.5])
        assert out == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            push_forward(q_star(1.0, 0.3), [1.0, 0.0, 0.0])


class TestBinaryErasureMechanism:
    def test_equal_pair_gives_identical_rows(self):
        pair = DiscretePair(np.full(4, 0.25), np.full(4, 0.25))
        ch = binary_erasure_mechanism(pair, 1.0, 0.3)
        assert np.allclose(ch.matrix, ch.matrix[0])
        m0 = push_forward(ch, pair.p0)
        m1 = push_forward(ch, pair.p1)
        assert np.allclose(m0, m1)

    def test_achieves_eta_tv_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p0, p1 = random_pair(rng, int(rng.integers(2, 9)))
            pair = DiscretePair(p0, p1)
            ch = binary_erasure_mechanism(pair, 1.0, 0.3)
            out = DiscretePair(push_forward(ch, p0), push_forward(ch, p1))
            assert out.tv() == pytest.approx(0.3 * pair.tv(), abs=1e-12)

    def test_no_member_beats_it(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            p0, p1 = random_pair(rng, 8)
            pair = DiscretePair(p0, p1)
            target = 0.3 * pair.tv()
            member = random_joint_member(rng, 1.0, 0.3, 8, int(rng.integers(2, 6)))
            out_tv = DiscretePair(
                push_forward(member, p0), push_forward(member, p1)
            ).tv()
            assert out_tv <= target + 1e-12


class TestMaxFdiv:
    def test_kl_closed_form(self):
        assert max_fdiv(1.0, 0.3, DivergenceSpec.kl()) == pytest.approx(0.3, abs=1e-12)

    def test_chi2_closed_form(self):
        expected = 0.3 * (E - 1) * (1 + 1 / E)
        assert max_fdiv(1.0, 0.3, DivergenceSpec.chi_squared()) == pytest.approx(expected, abs=1e-12)

    def test_tv_kind_returns_eta(self):
        assert max_fdiv(1.0, 0.3, DivergenceSpec.tv()) == pytest.approx(0.3, abs=1e-15)

    def test_attained_on_qstar_rows(self):
        rows = q_star(1.0, 0.3).row_pair(0, 1)
        assert kl_divergence(rows) == pytest.approx(max_fdiv(1.0, 0.3, DivergenceSpec.kl()), abs=1e-10)
        assert chi_squared(rows) == pytest.approx(max_fdiv(1.0, 0.3, DivergenceSpec.chi_squared()), abs=1e-10)
        assert total_variation(rows) == pytest.approx(0.3, abs=1e-12)

    def test_eps_zero(self):
        assert max_fdiv(0.0, 0.0, DivergenceSpec.kl()) == 0.0

    # the general formula through custom specs with the same generators
    KL_FORMULA = DivergenceSpec.custom(lambda t: t * np.log(t), 0.0)
    CHI2_FORMULA = DivergenceSpec.custom(lambda t: (t - 1.0) ** 2, 1.0)

    @pytest.mark.parametrize("eps", [1.0, 3.0, 20.0, 300.0])
    def test_closed_forms_match_formula_within_an_ulp(self, eps):
        for named, formula in ((DivergenceSpec.kl(), self.KL_FORMULA),
                               (DivergenceSpec.chi_squared(), self.CHI2_FORMULA)):
            closed, general = max_fdiv(eps, 0.3, named), max_fdiv(eps, 0.3, formula)
            assert abs(closed - general) <= math.ulp(general)

    def test_custom_generator_keeps_the_formula(self):
        assert max_fdiv(1.0, 0.3, self.CHI2_FORMULA) == 0.7051207161862809
        assert max_fdiv(1.0, 0.3, DivergenceSpec.chi_squared()) == 0.7051207161862808

    def test_small_eps_keeps_relative_precision(self):
        # the general formula cancels to 1.29e-27 here
        assert max_fdiv(1e-10, 1e-11, DivergenceSpec.kl()) == 1e-11 * 1e-10
        assert max_fdiv(1e-10, 1e-11, DivergenceSpec.chi_squared()) == 2e-11 * math.sinh(1e-10)


    @staticmethod
    def _le_cam_mp(eps, eta, b):
        """eta (f(e^eps) + e^eps f(e^-eps)) / (e^eps - 1) in 50-digit mpmath."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            b, ee = mpmath.mpf(b), mpmath.exp(mpmath.mpf(eps))
            f = lambda t: b * (1 - b) * (t - 1) ** 2 / (b * t + 1 - b)  # noqa: E731
            return mpmath.mpf(eta) * (f(ee) + ee * f(1 / ee)) / (ee - 1)

    @pytest.mark.parametrize("b", [0.3, 0.5])
    @pytest.mark.parametrize("eps", [1e-12, 1e-6, 1.0, 50.0, 700.0])
    def test_le_cam_closed_form_against_mpmath(self, eps, b):
        eta = 0.7 * math.tanh(eps / 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = max_fdiv(eps, eta, DivergenceSpec.le_cam(b))
        want = self._le_cam_mp(eps, eta, b)
        assert abs(got - want) <= 1e-15 * want

    def test_le_cam_at_half_is_eta_tanh(self):
        for eps in (1e-12, 1.0, 700.0):
            got = max_fdiv(eps, 0.3 * math.tanh(eps / 2.0), DivergenceSpec.le_cam(0.5))
            assert got == pytest.approx(0.3 * math.tanh(eps / 2.0) ** 2, rel=1e-15, abs=0.0)

    def test_custom_le_cam_keeps_the_formula(self):
        # a custom spec with the Le Cam generator and name is not the closed form
        b = 0.5
        spec = DivergenceSpec.custom(
            lambda t: b * (1.0 - b) * (t - 1.0) ** 2 / (b * t + 1.0 - b), b, 1.0 - b, name="le_cam"
        )
        ee = math.exp(1e-10)
        general = 1e-11 * (float(spec.f(np.asarray(ee))) + ee * float(spec.f(np.asarray(1.0 / ee)))) / (ee - 1.0)
        assert max_fdiv(1e-10, 1e-11, spec) == general
        exact = 1e-11 * math.tanh(5e-11)
        assert max_fdiv(1e-10, 1e-11, DivergenceSpec.le_cam(b)) == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert abs(general - exact) > 1e-9 * exact


class TestContractionBounds:
    def test_kl_contraction_reference(self):
        assert kl_contraction_bound(1.0, 0.3) == pytest.approx(0.3 * (E - 1) / (E + 1), abs=1e-12)
        assert kl_contraction_bound(0.0, 0.0) == 0.0

    def test_eta_at_cap_squares(self):
        cap = (E - 1) / (E + 1)
        assert kl_contraction_bound(1.0, cap) == pytest.approx(cap * cap, abs=1e-12)

    def test_estimate_matches_bound_on_qstar(self):
        est = eta_kl_estimate(q_star(1.0, 0.3), 2001)
        assert est == pytest.approx(kl_contraction_bound(1.0, 0.3), abs=1e-5)

    def test_argmax_beta_is_half(self):
        rows = q_star(1.0, 0.3).row_pair(0, 1)
        betas = np.linspace(0.0, 1.0, 2003)[1:-1]
        vals = [le_cam(rows, b) for b in betas]
        assert betas[int(np.argmax(vals))] == pytest.approx(0.5, abs=1e-3)

    def test_identical_rows_zero(self):
        ch = Channel(np.tile([0.25, 0.25, 0.5], (2, 1)))
        assert eta_kl_estimate(ch, 101) == 0.0

    def test_randomized_response_bound(self):
        for m in (2, 4, 8):
            bound = (E - 1) ** 2 / ((E + m - 1) * (E + 1))
            est = eta_kl_estimate(randomized_response(1.0, m), 2001)
            assert est <= bound + 1e-9
            if m == 2:
                assert est == pytest.approx(bound, abs=1e-5)  # attained

    def test_grid_size_checked(self):
        with pytest.raises(ValueError):
            eta_kl_estimate(q_star(1.0, 0.3), 2)

    def test_sandwich_on_random_members(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            ch = random_joint_member(rng, 1.0, 0.3, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
            est = eta_kl_estimate(ch, 101)
            assert est <= kl_contraction_bound(1.0, 0.3) + 1e-9


class TestChi2OutputBound:
    def test_zero_input_tv(self):
        assert chi2_output_bound(1.0, 0.3, 0.0) == 0.0

    def test_reference_value(self):
        assert chi2_output_bound(1.0, 0.3, 1.0) == pytest.approx(4 * 0.705121, abs=1e-5)

    def test_recovers_ldp_only_constant_at_cap(self):
        cap = (E - 1) / (E + 1)
        got = chi2_output_bound(1.0, cap, 1.0)
        expected = 4 * (E - 1) ** 2 * (1 / E + 1) / (E + 1)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_bounds_actual_outputs(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            p0, p1 = random_pair(rng, 6)
            pair = DiscretePair(p0, p1)
            ch = random_joint_member(rng, 1.0, 0.3, 6, 4)
            out = DiscretePair(push_forward(ch, p0), push_forward(ch, p1))
            assert chi_squared(out) <= chi2_output_bound(1.0, 0.3, pair.tv()) + 1e-9


class TestOptConversion:
    def test_eta_at_cap_gives_one(self):
        assert opt_conversion_factor(1.0, (E - 1) / (E + 1)) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        assert opt_conversion_factor(1.0, 0.3) == pytest.approx(0.649186, abs=1e-6)

    def test_eps_zero_degenerate(self):
        with pytest.raises(ValidationError):
            opt_conversion_factor(0.0, 0.0)

    def test_erasure_realizes_factor(self):
        # erasing an eps-LDP channel with alpha = 1 - factor scales every
        # f-divergence of the output pair by exactly the factor
        rng = np.random.default_rng(55)
        factor = opt_conversion_factor(1.0, 0.3)
        for _ in range(20):
            base = random_ldp_channel(rng, 1.0, 4, 5)
            erased = erase_channel(base, 1.0 - factor)
            assert dobrushin(erased) <= 0.3 + 1e-12
            assert ldp_epsilon(erased) <= 1.0 + 1e-9
            p0, p1 = random_pair(rng, 4)
            before = DiscretePair(push_forward(base, p0), push_forward(base, p1))
            after = DiscretePair(push_forward(erased, p0), push_forward(erased, p1))
            for spec in (DivergenceSpec.kl(), DivergenceSpec.chi_squared(), DivergenceSpec.tv()):
                assert f_divergence(after, spec) == pytest.approx(
                    factor * f_divergence(before, spec), abs=1e-10
                )


class TestBeRatio:
    def test_reference_value(self):
        assert be_ratio_lower_bound(1.0, 0.3) == pytest.approx(0.063819, abs=1e-6)

    def test_high_privacy_limit(self):
        c = 0.3
        eps = 0.01
        assert be_ratio_lower_bound(eps, c * eps) == pytest.approx(c / 4.0, abs=1e-3)

    def test_zero_eta(self):
        assert be_ratio_lower_bound(1.0, 0.0) == 0.0


class TestRandomGenerators:
    def test_ldp_channel_respects_eps(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            ch = random_ldp_channel(rng, 1.0, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
            assert ldp_epsilon(ch) <= 1.0 + 1e-9

    def test_joint_member_respects_both(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            ch = random_joint_member(rng, 1.0, 0.3, 3, 4)
            assert ldp_epsilon(ch) <= 1.0 + 1e-9
            assert dobrushin(ch) <= 0.3 + 1e-12
