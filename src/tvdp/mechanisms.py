"""Concrete mechanisms: dominating pairs, Laplace, Gaussian, and staircase.

The dominating constructions realize a target (epsilon, delta, eta) budget
with equality, which makes them the worst case for composition.  For the
additive-noise mechanisms only their closed-form total variation (and, for
the Gaussian, the delta(epsilon) profile) is needed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import PrivacyBudget, TradeoffCurve, curve_from_budget
from .divergences import DiscretePair
from .errors import ValidationError


@dataclass(frozen=True)
class DominatingSpec:
    """Parameters of a dominating mechanism: the DP pair plus the probability
    alpha parked on the uninformative symbol."""

    epsilon: float
    delta: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("alpha must lie in [0, 1]")

    @classmethod
    def from_budget(cls, budget: PrivacyBudget) -> "DominatingSpec":
        """Spec realizing the budget with equality; eta = delta maps to
        alpha = 1 for any epsilon (all non-delta mass uninformative)."""
        alpha = 1.0 if budget.eta == budget.delta else alpha_from_budget(budget)
        return cls(budget.epsilon, budget.delta, alpha)


@dataclass(frozen=True)
class GaussianParams:
    """Gaussian mechanism summarized by mu = sensitivity / sigma."""

    mu: float

    def __post_init__(self):
        if not (self.mu >= 0.0 and math.isfinite(self.mu)):
            raise ValidationError("mu must be finite and >= 0")


@dataclass(frozen=True)
class StaircaseSpec:
    """Staircase noise: step-width fraction gamma, privacy epsilon, sensitivity."""

    gamma: float
    epsilon: float
    sensitivity: float = 1.0

    def __post_init__(self):
        for name in ("gamma", "epsilon", "sensitivity"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite")

    @property
    def a_gamma(self) -> float:
        """Normalizing density value on the innermost step."""
        q = math.exp(-self.epsilon)
        return (1.0 - q) / (2.0 * self.sensitivity * (self.gamma + q * (1.0 - self.gamma)))


def _mu(params) -> float:
    return params.mu if isinstance(params, GaussianParams) else float(params)


def alpha_from_budget(budget: PrivacyBudget) -> float:
    """Uninformative-symbol mass realizing the budget with equality.

    alpha = 1 - (eta - delta)(1 + e^eps) / ((1 - delta)(e^eps - 1)),
    restricted to eps > 0 and eta >= delta (the budget enforces the
    feasibility cap).
    """
    eps, delta, eta = budget.epsilon, budget.delta, budget.eta
    if eta < delta:
        raise ValidationError("eta must be at least delta for a dominating mechanism")
    if eps <= 0.0:
        raise ValidationError("alpha is undefined at epsilon = 0")
    if eta == delta:
        return 1.0
    cap = (1.0 - delta) * math.tanh(eps / 2.0)
    # a cap that rounds to 0 leaves eta above it by float noise only
    alpha = 1.0 - (eta - delta) / cap if cap > 0.0 else 0.0
    if alpha < 1e-12:  # eta at its cap up to float noise
        return 0.0
    if alpha > 1.0 - 1e-12:
        return 1.0
    return alpha


def _expit(x: float) -> float:
    """Logistic function 1 / (1 + e^-x), bit-identical to scipy.special.expit;
    0.0 where e^-x overflows, as there."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def dominating_pure(epsilon: float, eta: float) -> DiscretePair:
    """Three-symbol pair meeting (epsilon, 0)-DP and eta-TV with equality.

    P0 = [(1-a) e^eps/(1+e^eps), a, (1-a)/(1+e^eps)] with the mirror image
    for P1, where a = 1 - eta (e^eps+1)/(e^eps-1): the inner three symbols
    of the (epsilon, 0, eta) pair of ``dominating_approx``.
    """
    pair = dominating_approx(PrivacyBudget(epsilon, 0.0, eta))
    return DiscretePair(pair.p0[1:4], pair.p1[1:4])


def dominating_approx(budget: PrivacyBudget) -> DiscretePair:
    """Five-symbol pair meeting (epsilon, delta)-DP and eta-TV with equality.

    Outer symbols carry the delta mass one-sidedly; the inner three symbols
    reproduce the pure construction scaled by (1 - delta).  Requires
    eta >= delta; at epsilon = 0 only eta = delta is representable.
    """
    spec = DominatingSpec.from_budget(budget)
    eps, delta, alpha = spec.epsilon, spec.delta, spec.alpha
    hi = (1.0 - delta) * (1.0 - alpha) * _expit(eps)
    lo = (1.0 - delta) * (1.0 - alpha) * _expit(-eps)
    p0 = np.array([delta, hi, alpha * (1.0 - delta), lo, 0.0])
    return DiscretePair(p0, p0[::-1].copy())


def laplace_tv(epsilon: float) -> float:
    """Total variation of the Laplace mechanism: 1 - e^{-eps/2}."""
    if not 0.0 < epsilon < math.inf:
        raise ValidationError("epsilon must be positive and finite")
    return -math.expm1(-epsilon / 2.0)


def gaussian_delta(params, epsilon: float) -> float:
    """delta(eps) profile of a mu-GDP mechanism.

    Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2), evaluated through
    log-CDFs so the near-cancellation at large eps stays accurate.
    mu = 0 gives perfect privacy, hence 0 by continuity.
    """
    mu = _mu(params)
    if mu < 0.0:
        raise ValidationError("mu must be >= 0")
    if epsilon < 0.0:
        raise ValidationError("epsilon must be >= 0")
    if mu == 0.0:
        return 0.0
    # deferred: importing scipy.special takes longer than all of tvdp's other imports
    from scipy.special import log_ndtr

    log_a = float(log_ndtr(-epsilon / mu + mu / 2.0))
    log_b = epsilon + float(log_ndtr(-epsilon / mu - mu / 2.0))
    if log_b >= log_a:
        return 0.0
    return max(0.0, -math.exp(log_a) * math.expm1(log_b - log_a))


def gaussian_tv(params) -> float:
    """Total variation of a mu-GDP mechanism: 2 Phi(mu/2) - 1."""
    return gaussian_delta(params, 0.0)


def staircase_tv(spec: StaircaseSpec) -> float:
    """Total variation of the staircase mechanism (two branches, continuous
    at gamma = 1/2)."""
    gamma, q = spec.gamma, math.exp(-spec.epsilon)
    den = 2.0 * (gamma + q * (1.0 - gamma))
    if not den > 0.0:  # gamma >> 1 cancels against q (1 - gamma) once q rounds to 1
        raise ValidationError(
            f"gamma = {gamma:.12g} is too large for epsilon = {spec.epsilon:.12g}: "
            "the staircase normalizer rounds to 0"
        )
    if gamma < 0.5:
        return (1.0 - q) * (2.0 * gamma * (1.0 - q) + q) / den
    return (1.0 - q) / den


def staircase_gamma_for_alpha(epsilon: float, alpha: float) -> float:
    """Step width whose staircase matches the dominating mechanism with the
    given uninformative mass: solves staircase_tv = (1-alpha) tanh(eps/2).

    The TV is increasing on (0, 1/2] and decreasing on [1/2, inf), and on
    each branch a ratio of affine functions of gamma, so it inverts in
    closed form.  With p = 1 - e^-eps, q = e^-eps and T = (1-alpha) p/(1+q),
    the narrow root q (2T - p) / (2p (p - T)) is preferred whenever it is
    positive (2T > p, i.e. p > 2 alpha); otherwise the wide root is
    1/(2T) - q/p.  Both are evaluated with T substituted, since p - T
    rounds to 0 at large eps once alpha is below an ulp of 1.  Where
    e^-eps (1 - 2 alpha) / (2 alpha) is below the smallest subnormal (eps of
    about 744 at alpha = 0.3) the narrow root underflows to 0, and where
    2p (1 - alpha) underflows (eps below about 1e-308 with alpha near 1) the
    wide root overflows; both raise.
    """
    if epsilon <= 0.0:
        raise ValidationError("epsilon must be positive")
    if not 0.0 <= alpha < 1.0:
        raise ValidationError("alpha must lie in [0, 1)")
    if alpha == 0.0:
        return 0.5
    target = (1.0 - alpha) * math.tanh(epsilon / 2.0)
    p, q = -math.expm1(-epsilon), math.exp(-epsilon)
    if p > 2.0 * alpha:
        gamma = q * (p - 2.0 * alpha) / (2.0 * p * (q + alpha))
        if gamma == 0.0:
            raise ValidationError(
                f"epsilon = {epsilon:.12g} is too large: the staircase step width, "
                "of order e^-epsilon, underflows to 0"
            )
    else:
        den = 2.0 * p * (1.0 - alpha)
        if den == 0.0:
            raise ValidationError(
                f"epsilon = {epsilon:.12g} is too small: the staircase step width, "
                "of order 1/(epsilon (1 - alpha)), overflows"
            )
        gamma = (p + 2.0 * q * alpha) / den
    if not (
        gamma < math.inf
        and abs(staircase_tv(StaircaseSpec(gamma, epsilon)) - target) <= 1e-10
    ):
        raise ValidationError(
            f"epsilon = {epsilon:.12g} is out of range: the staircase step width "
            f"{gamma:.6g} misses the 1e-10 TV tolerance"
        )
    return gamma


def staircase_curve(spec: StaircaseSpec) -> TradeoffCurve:
    """Tradeoff curve of the staircase mechanism.

    The two deterministic threshold tests give the curve's kinks; chords
    between them (randomized tests) complete it, which is exactly the
    (epsilon, 0)-DP eta-TV boundary at eta = staircase_tv(spec).
    """
    return curve_from_budget(PrivacyBudget(spec.epsilon, 0.0, staircase_tv(spec)))
