"""Exact k-fold composition under joint (epsilon, delta, eta) constraints.

The composed guarantee is a family of (j*eps, delta'_j) statements for
j = 0..k plus the composed total variation.  Every delta_j is a
hockey-stick divergence of the k-fold product of the dominating pair, whose
privacy-loss levels lie on the lattice m*eps.  One kernel computes the
level masses W(m) in O(k) by a ratio recurrence whose terms are all
positive, and then both delta_j and 1 - delta_j as log-sums of positive
terms, so nothing cancels; the exact, type-class and TV-blind ledgers are
views of it.  Those log-sums are running sums along the levels: from
``_BLOCKS_FROM`` steps on they add blocks of levels in linear space, each
under its own scale, and join the blocks with a short log-space scan
(``_log_cumsum``).  A brute-force oracle (the k-fold product of a
dominating pair) cross-checks it on its own code path.
"""

from __future__ import annotations

import math
import sys
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

# Largest step count whose row of 2 * steps + 1 level masses (doubles) an
# array can index: its size in bytes must fit a signed machine word.
_MAX_STEPS = (sys.maxsize // 8 - 1) // 2


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
    """k as an int: a whole number from 1 up to ``_MAX_STEPS``."""
    if not (isinstance(k, int) or float(k).is_integer()) or k < 1:
        raise ValueError("k must be an integer >= 1")
    if k > _MAX_STEPS:
        raise ValueError(
            f"k must be at most {_MAX_STEPS}, the most steps whose level masses "
            "an array can hold"
        )
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


# Rows with 0 < alpha < 1 from which the ratio recurrence steps all of them
# at once, two numpy calls per step, instead of one Python-float loop per
# row.  Medians on a 2-core x86 host at k = 879, row by row against at
# once: 2 rows 0.22 vs 0.74 ms, 7 rows 0.79 vs 0.83 ms, 10 rows 1.18 vs
# 0.88 ms and 30 rows 3.54 vs 1.32 ms; at k = 200 and k = 3516 the two also
# meet at 7 to 10 rows.
_STEP_ROWS_TOGETHER = 10


def _level_log_masses(k: int, eps, alpha) -> np.ndarray:
    """log W(m) at column m + k, one row per budget with epsilon eps[i] and
    dominating alpha alpha[i]: the mass under p0 of the k-fold dominating
    pair's privacy-loss level m*eps.

    Each step draws the eps-likely symbol (probability p), the unlikely one
    (q) or an erasure (alpha), so W(m) is the coefficient of x^(m+k) in
    (q + alpha x + p x^2)^k.  Putting x = t sqrt(q/p) turns that into
    q^k e^(n eps/2) e_n, n = m + k, where e_n = e_{2k-n} is the coefficient
    of t^n in (1 + beta t + t^2)^k with beta = alpha / sqrt(pq).
    Differentiating the power gives
        (n+1) e_{n+1} = beta (k-n) e_n + (2k-n+1) e_{n-1},
    whose terms are all positive for n < k.  So each ratio e_{n+1}/e_n
    follows from the one before with nothing cancelling, in one O(k)
    recurrence (``_ratio_terms``), and a long-double sum of their logs gives
    log e_n up to n = k; symmetry gives the rest.  The rows with
    0 < alpha < 1 step the recurrence together once there are at least
    ``_STEP_ROWS_TOGETHER`` of them, and one at a time otherwise; both do
    the same double operations in the same order.  At alpha = 0 only even
    n carry mass, e_{2l} = C(k, l), whose ratios (k-l)/(l+1) need no loop
    and whose log table all such rows share.  At alpha >= 1 all the mass
    sits at m = 0.  The long-double sums run one row at a time.
    """
    log_w = np.full((len(eps), 2 * k + 1), -np.inf)
    ld = np.longdouble
    log_betas = [_log_beta(e, a) for e, a in zip(eps, alpha) if 0.0 < a < 1.0]
    if len(log_betas) >= _STEP_ROWS_TOGETHER:
        log_ratios = iter(_stepped_log_ratios(k, log_betas).T)
    else:
        log_ratios = (_row_log_ratios(*_ratio_terms(k, b)) for b in log_betas)
    log_scales = (_log_scale(k, b) for b in log_betas)
    binomial = None
    for row, e, a in zip(log_w, eps, alpha):
        if a >= 1.0:
            row[k] = 0.0
            continue
        log_q = np.log1p(-ld(a)) - np.logaddexp(ld(0.0), ld(e))
        if a == 0.0:  # kept apart: long-double arithmetic on -inf is slow
            if binomial is None:
                l = np.arange(k)
                binomial = np.cumsum(
                    np.log(np.append(1.0, (k - l) / (l + 1.0))), dtype=ld
                )
            row[::2] = binomial + k * log_q + np.arange(k + 1) * ld(e)
            continue
        log_e = np.cumsum(next(log_ratios), dtype=ld) + next(log_scales)
        offset = k * log_q + np.arange(2 * k + 1) * (ld(e) / 2)
        row[:] = np.concatenate((log_e, log_e[-2::-1])) + offset
    return log_w


def _log_beta(eps: float, alpha: float):
    """log beta = log(alpha / sqrt(pq)) in long double, at 0 < alpha < 1."""
    ld = np.longdouble
    return (
        np.log(ld(alpha)) - np.log1p(-ld(alpha)) + np.logaddexp(ld(eps) / 2, -ld(eps) / 2)
    )


def _ratio_terms(k: int, log_beta):
    """(lift, fall): the scaled e_n, e_n / beta^n when beta > 1 and
    e_n / beta^(n mod 2) otherwise, have ratios r_{n+1} = lift_n + fall_n / r_n
    for n = 0..k-1 from r_0 = inf (e_{-1} = 0).  The scaling keeps the
    ratios in range for any alpha > 0; ``_log_scale`` undoes it."""
    n = np.arange(k)
    if log_beta <= 0.0:
        lift = np.where(n % 2, float(np.exp(2 * log_beta)), 1.0) * (k - n) / (n + 1)
        fall = (2 * k + 1.0 - n) / (n + 1)
    else:
        lift = (k - n) / (n + 1.0)
        fall = float(np.exp(-2 * log_beta)) * (2 * k + 1.0 - n) / (n + 1)
    return lift, fall


def _log_scale(k: int, log_beta) -> np.ndarray:
    """log of the scaling of e_n that ``_ratio_terms`` divides out, n = 0..k."""
    if log_beta <= 0.0:
        return np.where(np.arange(k + 1) % 2, log_beta, 0.0)
    return np.arange(k + 1) * log_beta


def _row_log_ratios(lift: np.ndarray, fall: np.ndarray) -> np.ndarray:
    """log 1 and log r_1..r_k of one row, by the recurrence in Python floats."""
    ratio = math.inf
    ratios = [
        ratio := up + down / ratio for up, down in zip(lift.tolist(), fall.tolist())
    ]
    return np.log([1.0] + ratios)


def _stepped_log_ratios(k: int, log_betas) -> np.ndarray:
    """``_row_log_ratios`` of each row's ``_ratio_terms``, one column per
    row: each step of the recurrence is two numpy calls over the row vector
    of ratios.  Step n + 1 starts out holding lift_n and adds fall_n / r_n,
    which is the same double sum."""
    ratios = np.empty((k + 1, len(log_betas)))
    fall = np.empty((k, len(log_betas)))
    for i, log_beta in enumerate(log_betas):
        ratios[1:, i], fall[:, i] = _ratio_terms(k, log_beta)
    ratio = ratios[0]
    ratio[:] = math.inf
    for down, step in zip(fall, ratios[1:]):
        ratio = np.add(step, np.divide(down, ratio, down), step)
    ratios[0] = 1.0
    return np.log(ratios, out=ratios)


# Columns per block of ``_log_cumsum``.
_BLOCK = 64

# Step count from which ``_log_cumsum`` sums in blocks; fewer steps keep the
# log-space scan.  The blocks cost about 25 us more per call, and save more
# the more rows a call has.  Medians of the tail sums on a 2-core x86 host,
# log-space scan against blocks: one row at k = 400 0.095 vs 0.19 ms, at
# k = 800 0.161 vs 0.167 ms and at k = 1000 0.190 vs 0.177 ms; two rows at
# k = 400 0.166 vs 0.183 ms and at k = 879 0.33 vs 0.24 ms; 30 rows at
# k = 64 0.37 vs 0.27 ms and at k = 879 4.6 vs 2.2 ms.
_BLOCKS_FROM = 800

# An entry more than this below its block's largest is dropped from the
# block's linear sum: e^-700 is a normal double, so the kept ones never
# reach exp's subnormal path.
_DROP = 700.0

# A block whose first finite entry lies more than this below its largest
# keeps the log-space scan: its running sums start below e^-636, where the
# at most _BLOCK dropped entries, each below e^-700, could show.
_STEEP = _DROP - 64.0

_DBL_MAX = float(np.finfo(float).max)


def _log_cumsum(v: np.ndarray, k: int) -> np.ndarray:
    """log of the running sum of e^v along each row of the 2-D ``v``:
    ``np.logaddexp.accumulate(v, axis=1)`` to within rounding.

    From ``_BLOCKS_FROM`` steps k on, the columns are cut into blocks of
    ``_BLOCK`` from the first.  Each block is summed in linear space, scaled
    by its largest entry (np.exp, np.cumsum, np.log), and a log-space scan
    of the block totals carries the sum of the blocks before into each.  A
    block that is too steep for one scale (see ``_STEEP``), as at epsilon
    near DBL_MAX/k, runs the log-space scan from that carry instead.  Every
    output depends on its own row only, and on no column after the end of
    its block, so a run on the leading whole blocks of a row gives the same
    doubles as a run on the whole row.  Fewer steps keep the log-space scan.
    """
    if k < _BLOCKS_FROM:
        return np.logaddexp.accumulate(v, axis=1)
    rows, n = v.shape
    blocks = -(-n // _BLOCK)
    flat = np.empty((rows, blocks * _BLOCK))
    flat[:, :n] = v
    flat[:, n:] = -np.inf
    lin = flat.reshape(rows, blocks, _BLOCK)
    top = np.maximum.reduce(lin, axis=2)
    steep = lin[:, :, 0] < top - _STEEP
    if np.count_nonzero(steep):  # a block led by -inf counts by its first finite entry
        part = lin[steep]
        first = part[np.arange(part.shape[0]), np.argmax(part > -np.inf, axis=1)]
        steep[steep] = first < top[steep] - _STEEP
        part = lin[steep]
    # An all -inf block takes -DBL_MAX as its scale: its sums stay 0, and
    # the scale never passes its carry.
    np.maximum(top, -_DBL_MAX, out=top)
    # carry[:, b]: log of the sum of blocks 0..b-1
    carry = np.empty((rows, blocks + 1))
    carry[:, 0] = -np.inf
    # a difference that overflows to -inf, and log 0 = -inf (no mass yet),
    # are the exact values here
    with np.errstate(over="ignore", divide="ignore"):
        lin -= top[:, :, None]
        drop = lin < -_DROP
        np.maximum(lin, -_DROP, out=lin)
        np.exp(lin, out=lin)
        np.putmask(lin, drop, 0.0)
        np.add.accumulate(lin, axis=2, out=lin)
        np.log(lin[:, :, -1], out=carry[:, 1:])
        carry[:, 1:] += top
        np.logaddexp.accumulate(carry, axis=1, out=carry)
        carry = carry[:, :-1]
        # each block's running sums with its carry, a + c * sum, scaled by
        # the larger of the block's scale and its carry
        scale = np.maximum(top, carry)
        if np.count_nonzero(carry > top):
            lin *= np.exp(top - scale)[:, :, None]
        lin += np.exp(carry - scale)[:, :, None]
        np.log(lin, out=lin)
        lin += scale[:, :, None]
    if np.count_nonzero(steep):
        scan = np.concatenate((carry[steep][:, None], part), axis=1)
        lin[steep] = np.logaddexp.accumulate(scan, axis=1)[:, 1:]
    return flat[:, :n]


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
    there, rounded up to whole blocks of ``_log_cumsum`` so that it gives
    the doubles of the full-width sum.  Only T_i for i > 0 are read, so
    only the levels m > 0 are summed.  All three running sums (the T_i,
    the sum of the T_i and the head sum of W) are ``_log_cumsum`` scans,
    in blocks from ``_BLOCKS_FROM`` steps on.
    """
    k = (log_w.shape[1] - 1) // 2
    eps = eps[:, None]
    tilt = np.arange(1, k + 1) * eps
    # log T_{j+1} for j = 0..k, the last (T_{k+1} = 0) set apart
    above = np.empty((log_w.shape[0], k + 1))
    above[:, k] = -np.inf
    tail = _log_cumsum((log_w[:, k + 1 :] - tilt)[:, ::-1], k)
    np.add(tail[:, ::-1], tilt, out=above[:, :k])
    del tilt, tail
    with np.errstate(divide="ignore"):  # eps = 0: log(1 - e^0) = -inf
        log_gap = np.log(-np.expm1(-eps))
    log_delta = log_gap + _log_cumsum(above[:, ::-1], k)[:, ::-1]
    log_keep = np.exp(log_delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log1p(np.negative(log_keep, out=log_keep), out=log_keep)
    wide = ~(log_delta < -math.log(2.0))
    del log_delta
    read = np.flatnonzero(wide.any(axis=0))
    if read.size:
        n = int(read[-1]) + 1
        # whole blocks of the row, so that the sums match the full row's
        width = min(-(-(k + n) // _BLOCK) * _BLOCK, 2 * k + 1)
        head = _log_cumsum(log_w[:, :width], k)[:, k : k + n]
        wide = wide[:, :n]
        log_keep[:, :n][wide] = np.logaddexp(head[wide], (above[:, :n] - eps)[wide])
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
    where j = 0 is not among the levels.  The level masses of all rows come
    from one ``_level_log_masses`` call, and the tail sums, the wrapper and
    the delta check run on all rows at once.  Callers admit each budget
    first (``_composable_alpha`` or ``_kairouz_budget``, which check
    k*eps), budget by budget.
    """
    eps = np.asarray(eps, dtype=float)
    log_w = _level_log_masses(k, eps.tolist(), alpha)
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
    return _upper_envelope(j * eps[:, None], log_keep, symmetric=True), eta


def _kairouz_region(epsilons, deltas, k: int) -> TradeoffCurve:
    """``intersect`` of ``ledger_to_curve(compose_kairouz(epsilon, delta, k))``
    over the (epsilon, delta) pairs.  Each pair is admitted in turn, so the
    first error is the one that composing them one at a time would raise."""
    budgets = [_kairouz_budget(e, d, k) for e, d in zip(epsilons, deltas)]
    return _region(k, budgets, [0.0] * len(budgets), _kairouz_levels(k))[0]


def ledger_to_curve(ledger: CompositionLedger) -> TradeoffCurve:
    """Envelope of the two half-plane constraints of every ledger entry.

    Those are the DP lines f = (1-delta_j) - e^eps_j t and their mirrors
    f = e^-eps_j (1-delta_j-t), whose epsilons must be >= 0: a symmetric
    curve, built from the DP lines alone and mirrored
    (``curves._mirrored_curve``).  The log form keeps intercepts alive once
    delta_j rounds to 1.
    """
    entries = ledger.entries
    eps_j = np.array([e.epsilon for e in entries], dtype=float)
    if not (eps_j >= 0.0).all():
        raise ValidationError("ledger entry epsilons must be >= 0")
    log_keep = [
        e.log_one_minus_delta
        if e.log_one_minus_delta is not None
        else (math.log1p(-e.delta) if e.delta < 1.0 else -math.inf)
        for e in entries
    ]
    return _upper_envelope(eps_j, np.array(log_keep), symmetric=True)


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
        mass0.append(_k_fold_one_sided(d0, k))
        mass1.append(0.0)
        ratios.append(math.inf)
    if d1 > 0.0:
        mass0.append(0.0)
        mass1.append(_k_fold_one_sided(d1, k))
        ratios.append(-math.inf)
    return _roc_from_atoms(mass0, mass1, ratios)


def _k_fold_one_sided(d: float, k: int) -> float:
    """1 - (1 - d)^k: the mass, in the k-fold product, of the outcomes that
    the other side lacks, given its one-sided mass d in one draw."""
    return -math.expm1(k * math.log1p(-d)) if d < 1.0 else 1.0


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
