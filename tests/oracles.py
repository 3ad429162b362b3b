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


def hockey_stick_mp(p0, p1, epsilon: float, dps: int = 50):
    """delta(epsilon) of a pmf pair from its masses, in mpmath: the larger
    hockey-stick divergence, max(sum (p0 - e^eps p1)+, sum (p1 - e^eps p0)+),
    which at epsilon = inf is the larger one-sided mass."""
    import mpmath

    with mpmath.workdps(dps):
        scale = mpmath.exp(epsilon)  # inf at epsilon = inf
        p0 = [mpmath.mpf(float(x)) for x in p0]
        p1 = [mpmath.mpf(float(x)) for x in p1]

        def side(p, q):
            return sum(a if b == 0 else max(a - scale * b, 0) for a, b in zip(p, q))

        return max(side(p0, p1), side(p1, p0))


def _pair_masses_mp(epsilon, alpha):
    """(p, q): the dominating pair's eps-likely and unlikely symbol masses."""
    import mpmath

    p = (1 - alpha) * mpmath.exp(epsilon) / (1 + mpmath.exp(epsilon))
    q = (1 - alpha) / (1 + mpmath.exp(epsilon))
    return p, q


def level_masses_loop_mp(epsilon: float, alpha: float, k: int, dps: int = 40):
    """W(m) at index m + k, summed over erasure counts a and unlikely-symbol
    counts l from binomial terms by their ratio recurrence: O(k^2) when
    alpha > 0, O(k) at alpha = 0."""
    import mpmath

    with mpmath.workdps(dps):
        eps, alpha = mpmath.mpf(epsilon), mpmath.mpf(alpha)
        p, q = _pair_masses_mp(eps, alpha)
        q_over_p = q / p if p else mpmath.mpf(0)  # alpha = 1: p = q = 0
        mass = [mpmath.mpf(0)] * (2 * k + 1)
        erase = mpmath.mpf(1)  # C(k, a) alpha^a
        for a in range(k + 1 if alpha else 1):
            term = erase * p ** (k - a)  # C(k-a, l) p^(k-a-l) q^l at l = 0
            for l in range(k - a + 1):
                mass[2 * k - a - 2 * l] += term
                term = term * (k - a - l) / (l + 1) * q_over_p
            erase = erase * (k - a) / (a + 1) * alpha
        return mass


def level_masses_recurrence_mp(epsilon: float, alpha: float, k: int, dps: int = 40):
    """W(m) at index n = m + k for 0 < alpha < 1, in O(k).

    W(m) is the coefficient c_n of x^n in (q + alpha x + p x^2)^k, and
    differentiating the power gives
        q (n+1) c_{n+1} = alpha (k-n) c_n + p (2k-n+1) c_{n-1}.
    Every term is positive when run forward from c_0 = q^k for n < k, and
    when solved for c_{n-1} and run backward from c_{2k} = p^k for n > k,
    so each side is stable; the two runs must meet at n = k.  mpmath's
    exponents do not overflow, so no scaling is needed.
    """
    import mpmath

    assert 0 < alpha < 1
    with mpmath.workdps(dps):
        eps, alpha = mpmath.mpf(epsilon), mpmath.mpf(alpha)
        p, q = _pair_masses_mp(eps, alpha)
        zero = mpmath.mpf(0)
        c = [zero] * (2 * k + 1)
        c[0], c[2 * k] = q**k, p**k
        for n in range(k):
            below = c[n - 1] if n else zero
            c[n + 1] = (alpha * (k - n) * c[n] + p * (2 * k - n + 1) * below) / (q * (n + 1))
        forward = c[k]
        for n in range(2 * k, k, -1):
            above = c[n + 1] if n < 2 * k else zero
            c[n - 1] = (q * (n + 1) * above + alpha * (n - k) * c[n]) / (p * (2 * k - n + 1))
        assert abs(forward / c[k] - 1) <= mpmath.mpf(10) ** (5 - dps), (forward, c[k])
        return c


def composed_levels_mp(epsilon: float, alpha: float, k: int, dps: int = 40):
    """(delta_j, 1 - delta_j) for j = 0..k of the k-fold product of the pure
    dominating pair, as mpmath numbers at ``dps`` digits.

    The pair draws symbol 0 with probability (1-alpha) e^eps / (1+e^eps),
    symbol 1 with (1-alpha) / (1+e^eps) and an erasure with alpha under p0;
    p1 swaps symbols 0 and 1.  The masses W(m) of the privacy-loss levels
    m*eps come from ``level_masses_recurrence_mp`` when 0 < alpha < 1 and
    from ``level_masses_loop_mp`` otherwise, where it is O(k); then
    delta_j = sum_{m>j} W(m) - e^{j eps} sum_{m>j} W(m) e^{-m eps} and
    1 - delta_j = sum_{m<=j} W(m) + e^{j eps} sum_{m>j} W(m) e^{-m eps}.
    The working precision absorbs the subtraction, whose terms exceed
    delta_j by at most 1/(1-e^-eps).
    """
    import mpmath

    levels = level_masses_recurrence_mp if 0 < alpha < 1 else level_masses_loop_mp
    mass = levels(epsilon, alpha, k, dps)  # W(m) at index m + k
    with mpmath.workdps(dps):
        eps = mpmath.mpf(epsilon)
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


def ldp_epsilon_pairwise(matrix) -> float:
    """Local-privacy epsilon of a channel matrix from every ordered pair of
    rows: the largest log-ratio over the outputs both reach, or inf where
    one row reaches an output the other does not."""
    m = np.asarray(matrix, dtype=float)
    worst = 0.0
    for x in range(m.shape[0]):
        for xp in range(m.shape[0]):
            if x == xp:
                continue
            num, den = m[x], m[xp]
            if np.any((num > 0.0) & (den <= 0.0)):
                return math.inf
            mask = num > 0.0
            if np.any(mask):
                worst = max(worst, float(np.max(np.log(num[mask]) - np.log(den[mask]))))
    return worst
