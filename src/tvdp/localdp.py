"""Local-privacy channels: verification, extremal constructions, and
privacy-utility bounds.

A channel is a finite row-stochastic matrix.  Joint constraints are an
epsilon bound on per-output likelihood ratios plus an eta bound on the
worst pairwise row total variation (the Dobrushin coefficient).  The
closed-form bounds below are all driven by the two-row dominating channel,
which meets both constraints with equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import PrivacyBudget, _check_exp
from .divergences import (
    DiscretePair,
    DivergenceSpec,
    _chi2_generator,
    _float_array,
    _kl_generator,
    _LeCamGenerator,
)
from .errors import ValidationError
from .mechanisms import alpha_from_budget


@dataclass(frozen=True)
class Channel:
    """Finite row-stochastic matrix; rows are per-input output laws."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _float_array(self.matrix, "matrix")
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 1:
            raise ValidationError("channel needs a 2-d matrix with >= 2 input rows")
        if np.isnan(m).any():
            raise ValidationError("channel entries must not be NaN")
        if np.any(m < -1e-15):
            raise ValidationError("channel entries must be non-negative")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-12):
            raise ValidationError("channel rows must sum to 1 within 1e-12")
        m.setflags(write=False)

    @property
    def num_inputs(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def num_outputs(self) -> int:
        return int(self.matrix.shape[1])

    def row_pair(self, i: int, j: int) -> DiscretePair:
        return DiscretePair(self.matrix[i], self.matrix[j])

    def as_dict(self) -> dict:
        return {"matrix": self.matrix.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "Channel":
        if not isinstance(payload, dict) or "matrix" not in payload:
            raise ValidationError('channel must be a JSON object with a "matrix" key')
        return cls(payload["matrix"])


def ldp_epsilon(channel: Channel) -> float:
    """Smallest epsilon such that the channel is epsilon-locally private.

    Per-output ratios suffice on finite alphabets: epsilon is the largest
    over outputs of max log m - min log m down the column, which monotone
    rounding keeps equal to the largest pairwise log-ratio.  An output
    reachable from one input but not another makes the bound infinite.
    """
    reached = channel.matrix > 0.0
    everywhere = reached.all(axis=0)
    if np.any(reached.any(axis=0) & ~everywhere):
        return math.inf
    log_m = np.log(channel.matrix[:, everywhere])
    return float(np.max(log_m.max(axis=0) - log_m.min(axis=0), initial=0.0))


def dobrushin(channel: Channel) -> float:
    """Contraction coefficient for total variation: max pairwise row TV."""
    m = channel.matrix
    worst = 0.0
    for x in range(m.shape[0]):
        diff = m[x] - m[x + 1 :]
        if diff.size:
            worst = max(worst, float(np.max(np.sum(np.abs(diff), axis=1))) / 2.0)
    return worst


def q_star(epsilon: float, eta: float) -> Channel:
    """Two-input dominating channel meeting epsilon-LDP and eta-TV exactly.

    Rows are [eta e^eps/(e^eps-1), eta/(e^eps-1), 1 - eta(e^eps+1)/(e^eps-1)]
    and its swap; the third symbol is an erasure shared by both rows.
    """
    if epsilon <= 0.0:
        raise ValidationError("epsilon must be positive")
    PrivacyBudget.pure(epsilon, eta)
    _check_exp(epsilon)
    em1 = math.expm1(epsilon)
    hi = eta * math.exp(epsilon) / em1
    lo = eta / em1
    rest = max(0.0, 1.0 - hi - lo)
    return Channel(np.array([[hi, lo, rest], [lo, hi, rest]]))


def randomized_response(epsilon: float, num_symbols: int) -> Channel:
    """M-ary randomized response: keep the symbol w.p. e^eps/(e^eps+M-1)."""
    PrivacyBudget.pure(epsilon)
    _check_exp(epsilon)
    if num_symbols < 2:
        raise ValueError("randomized response needs at least 2 symbols")
    stay = math.exp(epsilon) / (math.exp(epsilon) + num_symbols - 1)
    flip = 1.0 / (math.exp(epsilon) + num_symbols - 1)
    m = np.full((num_symbols, num_symbols), flip)
    np.fill_diagonal(m, stay)
    return Channel(m)


def push_forward(channel: Channel, prior) -> np.ndarray:
    """Output law of the channel under an input prior."""
    p = np.asarray(prior, dtype=float)
    if p.ndim != 1 or p.size != channel.num_inputs:
        raise ValueError("prior length must match the number of channel inputs")
    if np.any(p < -1e-15) or abs(p.sum() - 1.0) > 1e-12:
        raise ValidationError("prior must be a pmf")
    return p @ channel.matrix


def binary_erasure_mechanism(pair: DiscretePair, epsilon: float, eta: float) -> Channel:
    """Channel that quantizes each outcome to the dominating row favoring
    the likelier hypothesis (ties to the first row).

    Maximizes output total variation over the joint constraint class:
    TV(M0, M1) = eta * TV(P0, P1) exactly.
    """
    star = q_star(epsilon, eta).matrix
    rows = np.where((pair.p0 >= pair.p1)[:, None], star[0], star[1])
    return Channel(rows)


def erase_channel(channel: Channel, alpha: float) -> Channel:
    """Append an erasure output taking mass alpha from every row."""
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError("erasure rate alpha must lie in [0, 1]")
    m = channel.matrix
    out = np.hstack([(1.0 - alpha) * m, np.full((m.shape[0], 1), alpha)])
    return Channel(out)


def max_fdiv(epsilon: float, eta: float, spec: DivergenceSpec) -> float:
    """Largest f-divergence between the rows of any channel in the joint
    class: eta (f(e^eps) + e^eps f(e^{-eps})) / (e^eps - 1).

    That is eta eps for KL, 2 eta sinh(eps) for chi-squared and, with
    m = e^eps - 1, eta b (1-b) m (1/(1 + b m) + 1/(1 + (1-b) m)) for Le Cam
    LC_b (eta tanh(eps/2) at b = 1/2); these closed forms keep their
    relative precision at every eps.  Any other generator, including a
    custom one, takes the general formula, which cancels at small eps and
    overflows where f(e^eps) does.
    """
    PrivacyBudget.pure(epsilon, eta)
    _check_exp(epsilon)
    if abs(float(spec.f(np.asarray(1.0)))) > 1e-12:
        raise ValidationError("divergence generator must satisfy f(1) = 0")
    if spec.f is _kl_generator:
        return eta * epsilon
    if spec.f is _chi2_generator:
        return 2.0 * eta * math.sinh(epsilon)
    if isinstance(spec.f, _LeCamGenerator):
        b, m = spec.f.beta, math.expm1(epsilon)
        return (
            eta * b * (1.0 - b) * m * (1.0 / (1.0 + b * m) + 1.0 / (1.0 + (1.0 - b) * m))
        )
    ee = math.exp(epsilon)
    if ee == 1.0:  # epsilon of 0 to double precision
        return 0.0
    return eta * (float(spec.f(np.asarray(ee))) + ee * float(spec.f(np.asarray(1.0 / ee)))) / (ee - 1.0)


def kl_contraction_bound(epsilon: float, eta: float) -> float:
    """Largest KL contraction coefficient over the joint class:
    eta (e^eps-1)/(e^eps+1)."""
    PrivacyBudget.pure(epsilon, eta)
    return eta * math.tanh(epsilon / 2.0)


def eta_kl_estimate(channel: Channel, beta_grid_size: int) -> float:
    """Grid estimate of the channel's KL contraction coefficient.

    Binary-input subchannels suffice, and for those the coefficient is the
    supremum over beta of the Le Cam divergence of the row pair; a uniform
    interior beta grid gives a lower bound at grid resolution.
    """
    if beta_grid_size < 3:
        raise ValueError("beta grid needs at least 3 points")
    betas = np.linspace(0.0, 1.0, beta_grid_size + 2)[1:-1]
    m = channel.matrix
    best = 0.0
    for x in range(m.shape[0]):
        for xp in range(x + 1, m.shape[0]):
            p0, p1 = m[x], m[xp]
            num = (p0 - p1) ** 2
            den = np.outer(betas, p0) + np.outer(1.0 - betas, p1)
            terms = np.divide(num, den, out=np.zeros_like(den), where=den > 0.0)
            vals = betas * (1.0 - betas) * terms.sum(axis=1)
            best = max(best, float(vals.max()))
    return best


def chi2_output_bound(epsilon: float, eta: float, tv_in: float) -> float:
    """Bound on the output chi-squared divergence given the input TV:
    4 eta (e^eps-1)(e^{-eps}+1) tv_in^2."""
    PrivacyBudget.pure(epsilon, eta)
    _check_exp(epsilon)
    if not 0.0 <= tv_in <= 1.0:
        raise ValidationError("tv_in must lie in [0, 1]")
    return 4.0 * eta * math.expm1(epsilon) * (math.exp(-epsilon) + 1.0) * tv_in * tv_in


def opt_conversion_factor(epsilon: float, eta: float) -> float:
    """Guaranteed utility fraction retained when adding the eta constraint:
    eta (e^eps+1)/(e^eps-1)."""
    if epsilon <= 0.0:
        raise ValidationError("conversion factor is defined only for epsilon > 0")
    PrivacyBudget.pure(epsilon, eta)
    cap = math.tanh(epsilon / 2.0)
    # a cap that rounds to 0 (epsilon = 5e-324) holds eta = 0 or eta at it
    return min(1.0, eta / cap) if cap > 0.0 else float(eta > 0.0)


def be_ratio_lower_bound(epsilon: float, eta: float) -> float:
    """Lower bound on the KL utility of the binary erasure mechanism relative
    to the optimum: eta / (2 (e^eps-1)(e^{-eps}+1))."""
    if epsilon <= 0.0:
        raise ValidationError("ratio bound is defined only for epsilon > 0")
    PrivacyBudget.pure(epsilon, eta)
    _check_exp(epsilon)
    return eta / (2.0 * math.expm1(epsilon) * (math.exp(-epsilon) + 1.0))


def random_ldp_channel(
    rng: np.random.Generator, epsilon: float, num_inputs: int, num_outputs: int
) -> Channel:
    """Random epsilon-LDP channel.

    Entries exp(eps/2 * U[0,1]) keep per-column ratios within e^{eps/2} and
    row normalization contributes at most another e^{eps/2}, so the ratio
    bound holds by construction (no rejection loop needed).
    """
    PrivacyBudget.pure(epsilon)
    raw = np.exp(0.5 * epsilon * rng.random((num_inputs, num_outputs)))
    return Channel(raw / raw.sum(axis=1, keepdims=True))


def random_joint_member(
    rng: np.random.Generator,
    epsilon: float,
    eta: float,
    num_inputs: int,
    num_outputs: int,
) -> Channel:
    """Random member of the joint (epsilon, eta) class: a random epsilon-LDP
    channel followed by the erasure that enforces the TV budget."""
    budget = PrivacyBudget.pure(epsilon, eta)
    base = random_ldp_channel(rng, epsilon, num_inputs, num_outputs)
    return erase_channel(base, alpha_from_budget(budget) if epsilon > 0.0 else 1.0)
