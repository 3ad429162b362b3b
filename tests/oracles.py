"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (quadrature, enumeration, direct
summation) and shares no code path with the implementations it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def tv_bruteforce(p0, p1) -> float:
    """Total variation as half the L1 distance."""
    return 0.5 * float(np.sum(np.abs(np.asarray(p0) - np.asarray(p1))))


def product_tv(p0, p1, k: int) -> float:
    """TV between k-fold product distributions by full enumeration."""
    p0k, p1k = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    for _ in range(k - 1):
        p0k = np.kron(p0k, p0)
        p1k = np.kron(p1k, p1)
    return float(np.maximum(0.0, p0k - p1k).sum())


def laplace_tv_quadrature(epsilon: float) -> float:
    """TV between Lap(0, 1/eps) and Lap(1, 1/eps) by numeric integration."""

    def density(x, loc):
        return 0.5 * epsilon * math.exp(-epsilon * abs(x - loc))

    def gap(x):
        return density(x, 0.0) - density(x, 1.0)

    # densities cross at the midpoint 1/2; quad mis-integrates (-inf, 1/2)
    # in one piece for some eps, so the kink at 0 gets its own endpoint and
    # the tail stops at -40/eps, below which the gap is under e^-40
    return quad(gap, -40.0 / epsilon, 0.0)[0] + quad(gap, 0.0, 0.5)[0]


def gaussian_tv_quadrature(mu: float) -> float:
    """TV between N(0,1) and N(mu,1) by numeric integration."""

    def phi(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def gap(x):
        return phi(x) - phi(x - mu)

    # densities cross at mu/2; quad mis-integrates (-inf, mu/2) in one piece
    # for some mu, so the range is split at 0
    return quad(gap, -np.inf, 0.0)[0] + quad(gap, 0.0, mu / 2.0)[0]


def staircase_density(x: float, gamma: float, epsilon: float) -> float:
    """Staircase noise density with unit sensitivity."""
    a = (1.0 - math.exp(-epsilon)) / (
        2.0 * (gamma + math.exp(-epsilon) * (1.0 - gamma))
    )
    ax = abs(x)
    k = math.floor(ax)
    level = a * math.exp(-k * epsilon)
    if ax - k >= gamma:
        level *= math.exp(-epsilon)
    return level


def staircase_tv_quadrature(gamma: float, epsilon: float) -> float:
    """TV between a staircase density and its unit shift.

    Both densities are piecewise constant, so the integral is an exact sum
    over cells delimited by the breakpoints {n, n + gamma} of each copy;
    the support is truncated once e^{-k eps} drops below 1e-15.
    """
    k_max = int(math.ceil(35.0 / epsilon)) + 2
    points = set()
    for n in range(-k_max - 1, k_max + 2):
        for shift in (0.0, 1.0):
            points.add(n + shift)
            points.add(n + gamma + shift)
            points.add(-n - gamma + shift)
    grid = np.array(sorted(p for p in points if -k_max <= p <= k_max + 1))
    total = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        mid = 0.5 * (lo + hi)
        d = staircase_density(mid, gamma, epsilon) - staircase_density(
            mid - 1.0, gamma, epsilon
        )
        if d > 0.0:
            total += d * (hi - lo)
    return total


def log_slope_integrals(curve) -> tuple[float, float, float]:
    """(kl, kappa2, kappa3) of a piecewise-linear curve by direct
    integration of the log-slope over each segment."""
    xs, ys = curve.xs, curve.ys
    widths = np.diff(xs)
    slopes = np.diff(ys) / widths
    logs = np.log(np.abs(slopes))
    kl = -float(np.sum(widths * logs))
    k2 = float(np.sum(widths * logs**2))
    k3 = float(np.sum(widths * np.abs(logs) ** 3))
    return kl, k2, k3


def random_pair(rng: np.random.Generator, size: int, full_support: bool = False):
    """Random pmf pair via Dirichlet draws; optionally bounded away from 0."""
    if full_support:
        p0 = rng.dirichlet(np.full(size, 2.0)) + 0.01
        p1 = rng.dirichlet(np.full(size, 2.0)) + 0.01
        return p0 / p0.sum(), p1 / p1.sum()
    return rng.dirichlet(np.ones(size)), rng.dirichlet(np.ones(size))


def composed_levels_mp(epsilon: float, alpha: float, k: int, dps: int = 40):
    """(delta_j, 1 - delta_j) for j = 0..k of the k-fold product of the pure
    dominating pair, as mpmath numbers at ``dps`` digits.

    The pair draws symbol 0 with probability (1-alpha) e^eps / (1+e^eps),
    symbol 1 with (1-alpha) / (1+e^eps) and an erasure with alpha under p0;
    p1 swaps symbols 0 and 1.  The mass W(m) of the privacy-loss level
    m*eps is summed from binomial terms by their ratio recurrence, and then
    delta_j = sum_{m>j} W(m) - e^{j eps} sum_{m>j} W(m) e^{-m eps} and
    1 - delta_j = sum_{m<=j} W(m) + e^{j eps} sum_{m>j} W(m) e^{-m eps}.
    The working precision absorbs the subtraction, whose terms exceed
    delta_j by at most 1/(1-e^-eps).
    """
    import mpmath

    with mpmath.workdps(dps):
        eps, alpha = mpmath.mpf(epsilon), mpmath.mpf(alpha)
        p = (1 - alpha) * mpmath.exp(eps) / (1 + mpmath.exp(eps))
        q = (1 - alpha) / (1 + mpmath.exp(eps))
        q_over_p = q / p if p else mpmath.mpf(0)  # alpha = 1: p = q = 0
        mass = [mpmath.mpf(0)] * (2 * k + 1)  # W(m) at index m + k
        erase = mpmath.mpf(1)  # C(k, a) alpha^a
        for a in range(k + 1 if alpha else 1):
            term = erase * p ** (k - a)  # C(k-a, l) p^(k-a-l) q^l at l = 0
            for l in range(k - a + 1):
                mass[2 * k - a - 2 * l] += term
                term = term * (k - a - l) / (l + 1) * q_over_p
            erase = erase * (k - a) / (a + 1) * alpha
        above = [mpmath.mpf(0)] * (k + 2)  # sum_{m > j} W(m), j = -1..k
        tilted = [mpmath.mpf(0)] * (k + 2)  # sum_{m > j} W(m) e^{-m eps}
        for j in range(k - 1, -2, -1):
            above[j + 1] = above[j + 2] + mass[j + 1 + k]
            tilted[j + 1] = tilted[j + 2] + mass[j + 1 + k] * mpmath.exp(-(j + 1) * eps)
        at_most = sum(mass[: k + 1])  # sum_{m <= 0} W(m)
        deltas, keeps = [], []
        for j in range(k + 1):
            if j:
                at_most += mass[j + k]
            tilt = mpmath.exp(j * eps) * tilted[j + 1]
            deltas.append(above[j + 1] - tilt)
            keeps.append(at_most + tilt)
        return deltas, keeps
