"""Privacy amplification by uniform fixed-size subsampling, plus the erasure
construction that trades divergence for total variation.

Semantics are fixed-size uniform subsampling of m out of n records
(p = m/n); Poisson subsampling is out of scope.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import PrivacyBudget, _check_exp, curve_from_budget, curve_from_pair
from .divergences import DiscretePair
from .errors import ValidationError
from .mechanisms import dominating_approx


def subsample(budget: PrivacyBudget, p: float) -> PrivacyBudget:
    """Budget after answering on a uniform p-fraction subsample.

    (eps, delta, eta) -> (log(1 + p(e^eps - 1)), p delta, p eta).  The
    output is always feasible: the cap shrinks no faster than eta does.
    """
    if not 0.0 < p <= 1.0:
        raise ValidationError("subsampling ratio p must lie in (0, 1]")
    _check_exp(budget.epsilon)
    new_eps = math.log1p(p * math.expm1(budget.epsilon))
    return PrivacyBudget(new_eps, p * budget.delta, p * budget.eta)


def subsample_tightness_pair(
    epsilon: float, delta: float, eta: float, p: float
) -> tuple[DiscretePair, DiscretePair]:
    """Worst-case output pairs of the subsampled dominating mechanism.

    Whether the differing record is inside or outside the sample flips
    which marginal is the mixture, so both orderings are returned; the
    intersection of their curves is the subsampled budget's region.
    """
    if not 0.0 < p <= 1.0:
        raise ValidationError("subsampling ratio p must lie in (0, 1]")
    base = dominating_approx(PrivacyBudget(epsilon, delta, eta))
    mix01 = p * base.p0 + (1.0 - p) * base.p1
    mix10 = p * base.p1 + (1.0 - p) * base.p0
    return DiscretePair(mix01, base.p1), DiscretePair(mix10, base.p0)


def subsample_region_gap(
    epsilon: float, delta: float, eta: float, p: float, grid_size: int = 20001
) -> float:
    """Sup distance between the worst-case subsampled region boundary and
    the subsampled budget's curve.

    The mechanism's effective tradeoff is the worst case over the two
    hypothesis orderings of each tightness pair (the pointwise minimum of
    the pair curves and their mirrors); for delta = 0 it reproduces the
    budget curve exactly.
    """
    budget_curve = curve_from_budget(subsample(PrivacyBudget(epsilon, delta, eta), p))
    pair_a, pair_b = subsample_tightness_pair(epsilon, delta, eta, p)
    curves = [curve_from_pair(pair_a), curve_from_pair(pair_b)]
    curves += [c.mirror() for c in curves]
    xs = budget_curve.xs
    for c in curves:
        xs = np.union1d(xs, c.xs)
    xs = np.union1d(xs, np.linspace(0.0, 1.0, grid_size))
    worst = np.min(np.vstack([c(xs) for c in curves]), axis=0)
    return float(np.max(np.abs(worst - budget_curve(xs))))


def erase_pair(pair: DiscretePair, alpha: float) -> DiscretePair:
    """Route both distributions through an erasure channel with rate alpha.

    Original mass scales by (1 - alpha) and a fresh symbol absorbs alpha
    under both laws, so every f-divergence with f(1) = 0 scales by exactly
    (1 - alpha).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError("erasure rate alpha must lie in [0, 1]")
    p0 = np.append((1.0 - alpha) * pair.p0, alpha)
    p1 = np.append((1.0 - alpha) * pair.p1, alpha)
    return DiscretePair(p0, p1)
