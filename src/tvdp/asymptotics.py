"""Gaussian limit of many small compositions.

For a pure (epsilon, 0, eta) curve the log-slope functionals have closed
forms (kl = eps*eta and its second and third moments), and a schedule
whose kl sum converges composes toward the Gaussian tradeoff curve G_mu.
This module provides the functionals, G_mu, the limiting mu of a
schedule, and a sup-norm convergence diagnostic.
"""

from __future__ import annotations

import math

import numpy as np

from .composition import compose_exact, ledger_to_curve
from .curves import PrivacyBudget
from .errors import ValidationError


def kl_functional(epsilon: float, eta: float) -> float:
    """Mean absolute log-slope of the pure (epsilon, 0, eta) curve: eps * eta."""
    PrivacyBudget.pure(epsilon, eta)
    return epsilon * eta


def kappa2(epsilon: float, eta: float) -> float:
    """Second log-slope moment: eta eps^2 (e^eps+1)/(e^eps-1)."""
    PrivacyBudget.pure(epsilon, eta)
    cap = math.tanh(epsilon / 2.0)
    if cap == 0.0:  # epsilon = 0, or 5e-324 whose square is 0 as well
        return 0.0
    return eta * epsilon * epsilon / cap


def kappa3(epsilon: float, eta: float) -> float:
    """Third absolute log-slope moment; equals eps * kappa2."""
    return epsilon * kappa2(epsilon, eta)


def g_mu(mu: float, alpha):
    """Gaussian tradeoff curve G_mu(alpha) = Phi(Phi^{-1}(1 - alpha) - mu)."""
    if mu < 0.0:
        raise ValidationError("mu must be >= 0")
    a = np.asarray(alpha, dtype=float)
    if np.any(a < -1e-12) or np.any(a > 1.0 + 1e-12):
        raise ValidationError("alpha must lie in [0, 1]")
    # deferred: importing scipy.special takes longer than all of tvdp's other imports
    from scipy.special import ndtr, ndtri

    vals = ndtr(ndtri(1.0 - np.clip(a, 0.0, 1.0)) - mu)
    return float(vals) if np.isscalar(alpha) or a.ndim == 0 else vals


def clt_mu(schedule) -> float:
    """Limiting Gaussian parameter of a composition schedule: sqrt(2 sum eps*eta)."""
    total = 0.0
    for epsilon, eta in schedule:
        PrivacyBudget.pure(epsilon, eta)
        total += epsilon * eta
    return math.sqrt(2.0 * total)


def clt_gap(epsilon: float, eta: float, k: int, grid_size: int = 10_000) -> float:
    """Sup-norm distance between the exact k-fold composed curve and G_mu
    with mu = sqrt(2 k eps eta).

    G_mu is not piecewise linear, so it enters through a grid_size-point
    discretization; the distance is evaluated exactly at the union of the
    grid and the composed curve's vertices.
    """
    ledger = compose_exact(PrivacyBudget.pure(epsilon, eta), k)
    curve = ledger_to_curve(ledger)
    mu = math.sqrt(2.0 * k * epsilon * eta)
    xs = np.union1d(curve.xs, np.linspace(0.0, 1.0, grid_size))
    return float(np.max(np.abs(curve(xs) - g_mu(mu, xs))))
