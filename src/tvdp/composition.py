"""Exact k-fold composition under joint (epsilon, delta, eta) constraints.

The composed guarantee is a family of (j*eps, delta'_j) statements for
j = 0..k plus the composed total variation.  Every delta_j is a
hockey-stick divergence of the k-fold product of the dominating pair, whose
privacy-loss levels lie on the lattice m*eps.  One kernel computes the
level masses W(m) in O(k) by a ratio recurrence whose terms are all
positive, and then both delta_j and 1 - delta_j as log-sums of positive
terms, so nothing cancels; the exact, type-class and TV-blind ledgers are
views of it.  A brute-force oracle (the k-fold product of a dominating
pair) cross-checks it on its own code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    PrivacyBudget,
    TradeoffCurve,
    _roc_from_atoms,
    _upper_envelope,
    curve_from_pair,
)
from .divergences import DiscretePair
from .errors import CapacityError, ValidationError
from .mechanisms import DominatingSpec

_DIRECT_LIMIT = 10**7
_TYPED_LIMIT = 10**4


@dataclass(frozen=True)
class LedgerEntry:
    """One composed DP statement: (epsilon_j, delta_j) at level j.

    ``log_one_minus_delta`` keeps log(1 - delta_j), the value ``delta`` is
    rounded from, so that curve intercepts survive when delta_j rounds to 1
    in double precision.  ``clamped`` flags an entry whose log(1 - delta_j)
    rounded above 0 and was clipped.
    """

    j: int
    epsilon: float
    delta: float
    clamped: bool = False
    log_one_minus_delta: float | None = None


@dataclass(frozen=True)
class CompositionLedger:
    """Family of composed DP statements plus the composed total variation."""

    k: int
    base: PrivacyBudget
    entries: tuple[LedgerEntry, ...]
    composed_eta: float
    method: str = "exact"

    def __post_init__(self):
        _check_deltas(np.array([e.delta for e in self.entries]))

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "entries": [
                {"j": e.j, "eps": e.epsilon, "delta": e.delta} for e in self.entries
            ],
            "eta": self.composed_eta,
        }


def _check_deltas(deltas: np.ndarray) -> None:
    """The ledger invariant: every delta_j in [0, 1], non-increasing in j.

    A 2-D ``deltas`` holds one ledger per row; the first row that breaks
    the invariant names the error.
    """
    in_range = ((deltas >= 0.0) & (deltas <= 1.0)).all(axis=-1)
    rising = (deltas[..., 1:] > deltas[..., :-1] + 1e-9).any(axis=-1)
    if in_range.all() and not rising.any():
        return
    for ok, up in zip(np.atleast_1d(in_range), np.atleast_1d(rising)):
        if not ok:
            raise ValidationError("ledger deltas must lie in [0, 1]")
        if up:
            raise ValidationError("ledger deltas must be non-increasing in j")


def _check_k(k) -> int:
    if not float(k).is_integer() or k < 1:
        raise ValueError("k must be an integer >= 1")
    return int(k)


def _check_tol(tol: float) -> None:
    if not tol > 0.0:
        raise ValueError("tol must be positive")


def _composable_alpha(budget: PrivacyBudget, k: int) -> float:
    """The dominating pair's alpha of a budget that composes k times: the
    one admission check of the exact and type-class ledgers."""
    if budget.eta < budget.delta:
        raise ValidationError("composition requires eta >= delta")
    if budget.epsilon == 0.0 and budget.eta > budget.delta:
        raise ValidationError("epsilon = 0 composes only with eta = delta")
    alpha = DominatingSpec.from_budget(budget).alpha
    _check_k_eps(k, budget.epsilon)
    return alpha


def _kairouz_budget(epsilon: float, delta: float, k: int) -> PrivacyBudget:
    """The (epsilon, delta)-DP budget with no TV information that composes
    k times: the one admission check of the TV-blind ledgers."""
    budget = PrivacyBudget.from_dp(epsilon, delta)
    _check_k_eps(k, epsilon)
    return budget


def _level_log_masses(k: int, eps: float, alpha: float) -> np.ndarray:
    """log W(m) at index m + k: the mass under p0 of the k-fold dominating
    pair's privacy-loss level m*eps.

    Each step draws the eps-likely symbol (probability p), the unlikely one
    (q) or an erasure (alpha), so W(m) is the coefficient of x^(m+k) in
    (q + alpha x + p x^2)^k.  Putting x = t sqrt(q/p) turns that into
    q^k e^(n eps/2) e_n, n = m + k, where e_n = e_{2k-n} is the coefficient
    of t^n in (1 + beta t + t^2)^k with beta = alpha / sqrt(pq).
    Differentiating the power gives
        (n+1) e_{n+1} = beta (k-n) e_n + (2k-n+1) e_{n-1},
    whose terms are all positive for n < k.  So each ratio e_{n+1}/e_n
    follows from the one before with nothing cancelling, in one O(k) loop,
    and a long-double sum of their logs gives log e_n up to n = k; symmetry
    gives the rest.  The ratios stay in range for any alpha > 0 because
    e_n is scaled by beta^n when beta > 1, and otherwise by beta^(n mod 2),
    since the erasure count has the parity of n.  At alpha = 0 only even n
    carry mass, e_{2l} = C(k, l), whose ratios (k-l)/(l+1) need no loop.
    """
    log_w = np.full(2 * k + 1, -np.inf)
    if alpha >= 1.0:
        log_w[k] = 0.0
        return log_w
    ld = np.longdouble
    log_q = np.log1p(-ld(alpha)) - np.logaddexp(ld(0.0), ld(eps))
    if alpha == 0.0:  # kept apart: long-double arithmetic on -inf is slow
        l = np.arange(k)
        log_e = np.cumsum(np.log(np.append(1.0, (k - l) / (l + 1.0))), dtype=ld)
        log_w[::2] = (log_e + k * log_q + np.arange(k + 1) * ld(eps)).astype(float)
        return log_w
    log_e = _scaled_ratio_logs(k, eps, alpha)
    offset = k * log_q + np.arange(2 * k + 1) * (ld(eps) / 2)
    return (np.concatenate((log_e, log_e[-2::-1])) + offset).astype(float)


def _scaled_ratio_logs(k: int, eps: float, alpha: float) -> np.ndarray:
    """log e_n for n = 0..k at 0 < alpha < 1, in long double, by the ratio
    recurrence on e_n scaled by beta^n (beta > 1) or beta^(n mod 2)."""
    ld = np.longdouble
    log_beta = (
        np.log(ld(alpha)) - np.log1p(-ld(alpha)) + np.logaddexp(ld(eps) / 2, -ld(eps) / 2)
    )
    # the scaled e_n have ratios r_{n+1} = lift_n + fall_n / r_n
    n = np.arange(k)
    if log_beta <= 0.0:
        lift = np.where(n % 2, float(np.exp(2 * log_beta)), 1.0) * (k - n) / (n + 1)
        fall = (2 * k + 1.0 - n) / (n + 1)
        log_scale = np.where(np.arange(k + 1) % 2, log_beta, 0.0)
    else:
        lift = (k - n) / (n + 1.0)
        fall = float(np.exp(-2 * log_beta)) * (2 * k + 1.0 - n) / (n + 1)
        log_scale = np.arange(k + 1) * log_beta
    ratio = math.inf  # e_{-1} = 0
    ratios = [
        ratio := up + down / ratio for up, down in zip(lift.tolist(), fall.tolist())
    ]
    return np.cumsum(np.log([1.0] + ratios), dtype=ld) + log_scale


def _log_tail_sums(log_w: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """log(1 - delta_j) for j = 0..k from the level masses, one row per row
    of ``log_w`` and entry of ``eps``.

    With T_i = sum_{m >= i} W(m) e^{(i-m) eps},
        delta_j     = (1 - e^-eps) sum_{i > j} T_i,
        1 - delta_j = sum_{m <= j} W(m) + e^-eps T_{j+1},
    both sums of positive terms, so each keeps its relative precision where
    the other is within rounding of 1.  log(1 - delta_j) comes from the
    delta_j sum while delta_j < 1/2 and from its own sum where delta_j >= 1/2
    (or is NaN).  The second sum is read only in the leading columns up to
    the last one in which some row has such a delta_j, so it runs only
    there.  Only T_i for i > 0 are read, so only the levels m > 0 are
    summed.
    """
    k = (log_w.shape[1] - 1) // 2
    eps = eps[:, None]
    tilt = np.arange(1, k + 1) * eps
    # log T_{j+1} for j = 0..k, the last (T_{k+1} = 0) already in place
    above = np.full((log_w.shape[0], k + 1), -np.inf)
    tail = (log_w[:, k + 1 :] - tilt)[:, ::-1]
    above[:, :k] = np.logaddexp.accumulate(tail, axis=1)[:, ::-1]
    above[:, :k] += tilt
    del tilt, tail
    with np.errstate(divide="ignore"):  # eps = 0: log(1 - e^0) = -inf
        log_gap = np.log(-np.expm1(-eps))
    log_delta = log_gap + np.logaddexp.accumulate(above[:, ::-1], axis=1)[:, ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_keep = np.log1p(-np.exp(log_delta))
    wide = ~(log_delta < -math.log(2.0))
    del log_delta
    read = np.flatnonzero(wide.any(axis=0))
    if read.size:
        n = int(read[-1]) + 1
        own = np.logaddexp(
            np.logaddexp.accumulate(log_w[:, : k + n], axis=1)[:, k:],
            above[:, :n] - eps,
        )
        np.copyto(log_keep[:, :n], own, where=wide[:, :n])
    return log_keep


def _check_k_eps(k: int, eps: float) -> None:
    """Reject an epsilon whose k*epsilon, the largest composed level,
    overflows a double."""
    if math.isinf(k * float(eps)):
        raise ValidationError(
            f"epsilon = {eps:.12g} is too large for k = {k}: "
            "k*epsilon overflows a double"
        )


def _grid_columns(k: int, eps, delta, alpha, levels: slice = slice(None)):
    """(j, log(1 - delta_j), clamped_j) at the ledger's levels j, and the
    composed eta, for each budget (eps[i], delta[i]) with dominating alpha
    alpha[i]: the one route to the kernel behind every composition ledger
    and curve, under the ledger's delta invariant.

    Row i of the 2-D columns is budget i's ledger.  log(1 - delta_j) comes
    from ``_log_tail_sums``, each entry from whichever of its two sums keeps
    it precise; the 1 - (1-delta)^k (1-delta_j) wrapper then gives the
    composed value.  clamped_j flags a log(1 - delta_j) that rounded above
    0 and was clipped.  The composed eta is delta_0, which is computed even
    where j = 0 is not among the levels.  The level masses come one budget
    at a time; the tail sums, the wrapper and the delta check run on all
    rows at once.  Callers admit each budget first (``_composable_alpha`` or
    ``_kairouz_budget``, which check k*eps), budget by budget.
    """
    eps = np.asarray(eps, dtype=float)
    log_w = np.empty((eps.size, 2 * k + 1))
    for row, e, a in zip(log_w, eps.tolist(), alpha):
        row[:] = _level_log_masses(k, e, a)
    inner = _log_tail_sums(log_w, eps)
    del log_w
    log_wrap = [[k * math.log1p(-d) if d < 1.0 else -math.inf] for d in delta]
    clamped = inner > 0.0
    inner[clamped] = 0.0
    log_keep = np.add(log_wrap, inner, out=inner)
    kept = log_keep[:, levels]
    _check_deltas(-np.expm1(kept))
    eta = [-math.expm1(x) for x in log_keep[:, 0].tolist()]
    return np.arange(k + 1)[levels], kept, clamped[:, levels], eta


def _ledger(
    base: PrivacyBudget, k: int, alpha: float, method: str, levels: slice = slice(None)
) -> CompositionLedger:
    """The builder's one row as a ``CompositionLedger`` of ``LedgerEntry``s."""
    eps = base.epsilon
    js, log_keep, clamped, eta = _grid_columns(k, [eps], [base.delta], [alpha], levels)
    entries = tuple(
        LedgerEntry(j, j * eps, -math.expm1(raw), clamped=flag, log_one_minus_delta=raw)
        for j, raw, flag in zip(js.tolist(), log_keep[0].tolist(), clamped[0].tolist())
    )
    return CompositionLedger(
        k=k, base=base, entries=entries, composed_eta=eta[0], method=method
    )


def compose_exact(budget: PrivacyBudget, k: int) -> CompositionLedger:
    """Exact k-fold adaptive composition of the budget's mechanism class.

    j = k always yields the raw (k*eps, wrapper-only) statement, since no
    privacy-loss level lies above k*eps.
    """
    k = _check_k(k)
    return _ledger(budget, k, _composable_alpha(budget, k), "exact")


def compose_kairouz(epsilon: float, delta: float, k: int) -> CompositionLedger:
    """Baseline composition that ignores total variation.

    This is the exact ledger with no uninformative symbol (alpha = 0), whose
    levels all share the parity of k, so only those j appear.  The composed
    eta is the kernel's delta_0, which it computes for every k even though
    j = 0 is listed only for even k.
    """
    k = _check_k(k)
    base = _kairouz_budget(epsilon, delta, k)
    return _ledger(base, k, 0.0, "kairouz", _kairouz_levels(k))


def _kairouz_levels(k: int) -> slice:
    """The levels j of the TV-blind ledger: those with the parity of k."""
    return slice(k % 2, None, 2)


def _region(k: int, budgets, alpha, levels: slice = slice(None)):
    """``intersect`` of the ledger curves of the admitted ``budgets`` (with
    dominating alphas ``alpha``) at the given levels, as one envelope of the
    DP lines of all their ledgers from one batch of the builder's columns,
    and the composed eta of each."""
    eps = np.array([b.epsilon for b in budgets], dtype=float)
    j, log_keep, _, eta = _grid_columns(
        k, eps, [b.delta for b in budgets], alpha, levels
    )
    return _lines_to_curve(j * eps[:, None], log_keep), eta


def _kairouz_region(epsilons, deltas, k: int) -> TradeoffCurve:
    """``intersect`` of ``ledger_to_curve(compose_kairouz(epsilon, delta, k))``
    over the (epsilon, delta) pairs.  Each pair is admitted in turn, so the
    first error is the one that composing them one at a time would raise."""
    budgets = [_kairouz_budget(e, d, k) for e, d in zip(epsilons, deltas)]
    return _region(k, budgets, [0.0] * len(budgets), _kairouz_levels(k))[0]


def _lines_to_curve(eps_j: np.ndarray, log_keep: np.ndarray) -> TradeoffCurve:
    """Envelope of the DP lines f = (1-delta_j) - e^eps_j t and their
    mirrors f = e^-eps_j (1-delta_j-t) of every (eps_j >= 0,
    log(1 - delta_j)), in arrays of any one shape: a symmetric curve, built
    from the DP lines alone and mirrored (``curves._mirrored_curve``).  The
    log form keeps intercepts alive once delta_j rounds to 1."""
    return _upper_envelope(eps_j, log_keep, symmetric=True)


def _entries_to_curve(entries) -> TradeoffCurve:
    """``_lines_to_curve`` of ledger entries, whose epsilons must be >= 0."""
    eps_j = np.array([e.epsilon for e in entries], dtype=float)
    if not (eps_j >= 0.0).all():
        raise ValidationError("ledger entry epsilons must be >= 0")
    log_keep = [
        e.log_one_minus_delta
        if e.log_one_minus_delta is not None
        else (math.log1p(-e.delta) if e.delta < 1.0 else -math.inf)
        for e in entries
    ]
    return _lines_to_curve(eps_j, np.array(log_keep))


def ledger_to_curve(ledger: CompositionLedger) -> TradeoffCurve:
    """Envelope of the two half-plane constraints of every ledger entry."""
    return _entries_to_curve(ledger.entries)


def composed_tv(budget: PrivacyBudget, k: int) -> float:
    """Total variation after k-fold composition: 1 - (1-delta)^k (1-delta_0)."""
    return compose_exact(budget, k).composed_eta


# ---------------------------------------------------------------------------
# Brute-force oracle: the k-fold product of an explicit pair.


def _support_reduced(pair: DiscretePair):
    keep = (pair.p0 > 0.0) | (pair.p1 > 0.0)
    return pair.p0[keep], pair.p1[keep]


def _lattice_structure(p0: np.ndarray, p1: np.ndarray):
    """Decompose a pair into one-sided masses plus finite log-ratios on a
    common grid; returns None when the ratios are not commensurate."""
    finite = (p0 > 0.0) & (p1 > 0.0)
    d0 = float(p0[(p0 > 0.0) & (p1 <= 0.0)].sum())
    d1 = float(p1[(p1 > 0.0) & (p0 <= 0.0)].sum())
    lam = np.log(p0[finite]) - np.log(p1[finite])
    nonzero = np.abs(lam) > 1e-12
    if not np.any(nonzero):
        base = 0.0
        offsets = np.zeros(lam.size, dtype=int)
    else:
        base = float(np.min(np.abs(lam[nonzero])))
        ratio = lam / base
        offsets = np.round(ratio).astype(int)
        if np.any(np.abs(lam - offsets * base) > 1e-9 * np.maximum(1.0, np.abs(lam))):
            return None
    return base, offsets, p0[finite], p1[finite], d0, d1


def _conv_power(kernel: np.ndarray, k: int) -> np.ndarray:
    """k-fold self-convolution by binary exponentiation (non-negative, exact).

    Only the span between nonzero masses is convolved: offsets are divided
    by the gcd of the kernel's support, and each product drops its zero
    ends.  A zero mass adds exactly 0 to every product it enters, so this
    skips work without changing which masses are zero.
    """
    support = np.flatnonzero(kernel)
    first = int(support[0])
    step = max(int(np.gcd.reduce(support - first)), 1)
    result, result_at = None, 0
    power, power_at = kernel[first::step], 0
    n = k
    while n:
        if n & 1:
            if result is None:
                result, result_at = power, power_at
            else:
                result, result_at = _nonzero_span(
                    np.convolve(result, power), result_at + power_at
                )
        n >>= 1
        if n:
            power, power_at = _nonzero_span(np.convolve(power, power), 2 * power_at)
    full = np.zeros(k * (kernel.size - 1) + 1)
    full[k * first + step * (result_at + np.arange(result.size))] = result
    return full


def _nonzero_span(masses: np.ndarray, at: int) -> tuple[np.ndarray, int]:
    """masses from the first nonzero to the last, and the new offset of
    the first (one zero mass when all underflowed)."""
    nonzero = np.flatnonzero(masses)
    if not nonzero.size:
        return masses[:1], at
    return masses[nonzero[0] : nonzero[-1] + 1], at + int(nonzero[0])


def _oracle_typed(p0, p1, k: int) -> TradeoffCurve:
    lattice = _lattice_structure(p0, p1)
    if lattice is None:
        raise CapacityError(
            "pair log-ratios do not lie on a common grid; use mode='direct'"
        )
    base, offsets, f0, f1, d0, d1 = lattice
    if offsets.size:
        shift = int(offsets.min())
        span = int(offsets.max()) - shift
        q0 = np.zeros(span + 1)
        q1 = np.zeros(span + 1)
        np.add.at(q0, offsets - shift, f0)
        np.add.at(q1, offsets - shift, f1)
        w0 = _conv_power(q0, k)
        w1 = _conv_power(q1, k)
        ms = (np.arange(w0.size) + k * shift).astype(float)
        lr = ms * base if base > 0.0 else np.zeros_like(ms)
    else:
        w0 = np.array([])
        w1 = np.array([])
        lr = np.array([])
    mass0 = list(w0)
    mass1 = list(w1)
    ratios = list(lr)
    if d0 > 0.0:
        mass0.append(-math.expm1(k * math.log1p(-d0)))
        mass1.append(0.0)
        ratios.append(math.inf)
    if d1 > 0.0:
        mass0.append(0.0)
        mass1.append(-math.expm1(k * math.log1p(-d1)))
        ratios.append(-math.inf)
    return _roc_from_atoms(mass0, mass1, ratios)


def _oracle_direct(p0, p1, k: int) -> TradeoffCurve:
    p0k, p1k = p0, p1
    for _ in range(k - 1):
        p0k = np.kron(p0k, p0)
        p1k = np.kron(p1k, p1)
    return curve_from_pair(DiscretePair(p0k, p1k))


def oracle_compose(pair: DiscretePair, k: int, mode: str = "auto") -> TradeoffCurve:
    """Exact tradeoff curve of the k-fold product of ``pair``.

    direct mode enumerates all alphabet^k outcomes (capped at 10^7); typed
    mode collapses outcomes with equal likelihood ratio, which requires the
    finite log-ratios to sit on a common grid (true for dominating pairs),
    and takes k up to 10^4.  Typed mode convolves the masses in double
    precision, so a level whose p1 mass falls below about 1e-308 counts as
    if p1 had no mass there, and its curve is exact only while the p0 mass
    of such levels is negligible.  For dominating pairs that holds at
    eps = 0.5 up to k = 3516, but not at (eps, eta) = (1, 0.3) by k = 2000,
    where the deltas at large eps' are off; the cap of 10^4 on k bounds the
    cost, not the error.
    """
    k = _check_k(k)
    p0, p1 = _support_reduced(pair)
    direct_ok = k * math.log(max(2, p0.size)) <= math.log(_DIRECT_LIMIT)
    if mode == "auto":
        if direct_ok:
            mode = "direct"
        elif _lattice_structure(p0, p1) is not None and k <= _TYPED_LIMIT:
            mode = "typed"
        else:
            raise CapacityError(
                "product too large for mode='direct' and pair not collapsible "
                "for mode='typed'"
            )
    if mode == "direct":
        if not direct_ok:
            raise CapacityError(
                f"alphabet^k exceeds {_DIRECT_LIMIT}; use mode='typed'"
            )
        return _oracle_direct(p0, p1, k)
    if mode == "typed":
        if k > _TYPED_LIMIT:
            raise CapacityError(f"typed mode supports k <= {_TYPED_LIMIT}")
        return _oracle_typed(p0, p1, k)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Type-class ledger, kept for callers of the earlier approximation.


def compose_types_approx(
    budget: PrivacyBudget, k: int, tol: float = 1e-6
) -> CompositionLedger:
    """Composition ledger via type classes binned by privacy-loss level.

    Binning the (a, l) type classes by their level m is exactly what the
    composition kernel does, so this returns the exact ledger, labelled
    ``method="types"``.  ``tol`` is still validated but no longer changes
    the result.
    """
    k = _check_k(k)
    _check_tol(tol)
    return _ledger(budget, k, _composable_alpha(budget, k), "types")


def _types_region(
    budgets, k: int, tol: float
) -> tuple[TradeoffCurve, list[PrivacyBudget], list[float]]:
    """``intersect`` of ``ledger_to_curve(compose_types_approx(budget, k,
    tol))`` over ``budgets``, the budgets drawn, and the ``composed_eta`` of
    each.  Each budget is admitted as it is drawn, so the first error is the
    one that composing them one at a time would raise."""
    drawn, alpha = [], []
    for budget in budgets:
        _check_tol(tol)
        alpha.append(_composable_alpha(budget, k))
        drawn.append(budget)
    region, eta = _region(k, drawn, alpha)
    return region, drawn, eta
