"""Tradeoff-curve algebra for joint (epsilon, delta, eta) privacy guarantees.

A tradeoff curve maps a bound t on the type I error of a binary
distinguishing test to the smallest achievable type II error f(t).  A
privacy guarantee corresponds to the region on or above such a curve, so
stronger guarantees mean higher curves.  Everything here is piecewise
linear and convex, and region intersection reduces to an upper envelope of
the supporting lines.

Curves are stored in log coordinates: vertices as (log t, log f) and each
segment as its supporting line f = e^lb - e^lm t, kept as (lm, lb).  Long
compositions produce lines with slopes like -e^10000 whose vertices sit at
t = e^-4000; in these coordinates they keep their exact position, with no
cap on the slope and no floor on t.  The linear ``xs``/``ys`` arrays are a
view for output and for evaluation at double-precision t; a curve built from
its log form derives that view on first access, so curves that are only
intersected or queried in log coordinates never build it.

``_upper_envelopes`` builds the envelopes of many line families at once,
one per row of equal-length 2-D arrays; ``_upper_envelope``, behind every
single curve, is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import DiscretePair
from .errors import ValidationError

# Absolute tolerance for geometric predicates (vertex checks, convexity).
GEOM_TOL = 1e-9

# Smallest t and f that the linear view resolves (the smallest normal double).
_VIEW_FLOOR = float(np.finfo(float).tiny)
_LOG_VIEW_FLOOR = math.log(_VIEW_FLOOR)

# Relative rounding level of a crossing's log t: a line whose lead is
# narrower than this (for instance a TV line tangent at a DP kink) is dropped.
_SAME_LOG_T = 1e-15

# Vectorised pruning passes of the envelope before a sequential scan
# finishes the job (see _upper_envelopes).
_MAX_PASSES = 32


# Largest epsilon whose e^epsilon (and e^epsilon - 1) is a finite double.
_MAX_EXP_EPSILON = math.log(float(np.finfo(float).max))


def _check_exp(epsilon: float) -> None:
    """Reject an epsilon whose e^epsilon overflows a double."""
    if epsilon > _MAX_EXP_EPSILON:
        raise ValidationError(
            f"epsilon = {epsilon:.12g} is too large: e^epsilon overflows a double"
        )


def tv_feasibility_cap(epsilon: float, delta: float) -> float:
    """Largest total variation consistent with an (epsilon, delta)-DP guarantee."""
    return delta + (1.0 - delta) * math.tanh(epsilon / 2.0)


@dataclass(frozen=True)
class PrivacyBudget:
    """Joint privacy parameters: epsilon (nats), delta, and total variation eta."""

    epsilon: float
    delta: float
    eta: float

    def __post_init__(self):
        if not (self.epsilon >= 0.0 and math.isfinite(self.epsilon)):
            raise ValidationError("epsilon must be >= 0 and finite")
        if not 0.0 <= self.delta <= 1.0:
            raise ValidationError("delta must lie in [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise ValidationError("eta must lie in [0, 1]")
        if self.eta > self.tv_cap + 1e-12:
            raise ValidationError(
                "eta exceeds delta + (1-delta)(e^eps-1)/(e^eps+1)"
            )

    @property
    def tv_cap(self) -> float:
        """Feasibility ceiling for eta at this (epsilon, delta)."""
        return tv_feasibility_cap(self.epsilon, self.delta)

    @classmethod
    def pure(cls, epsilon: float, eta: float | None = None) -> "PrivacyBudget":
        """(epsilon, 0)-DP budget; eta defaults to its maximum feasible value."""
        if eta is None:
            eta = tv_feasibility_cap(epsilon, 0.0)
        return cls(epsilon, 0.0, eta)

    @classmethod
    def from_dp(cls, epsilon: float, delta: float) -> "PrivacyBudget":
        """(epsilon, delta)-DP budget carrying no total-variation information."""
        return cls(epsilon, delta, tv_feasibility_cap(epsilon, delta))


def _log(x):
    with np.errstate(divide="ignore"):
        return np.log(x)


def _log1mexp(x):
    """log(1 - e^x) elementwise for x <= 0: -inf at 0, 0 at -inf."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(
            x > -math.log(2.0), np.log(-np.expm1(x)), np.log1p(-np.exp(x))
        )


class TradeoffCurve:
    """Piecewise-linear convex tradeoff curve on [0, 1].

    Vertices have strictly increasing t covering [0, 1]; segments have
    non-increasing values and non-decreasing slopes.  ``xs`` and ``ys`` are
    the linear vertex view (see the module docstring): a curve built from
    vertices keeps them, and a curve built from its log form derives them
    on first access.  The computations below run on the log-coordinate
    form.  Instances are immutable; all operations return new curves.
    """

    __slots__ = ("_view", "_lt", "_lf", "_lm", "_lb")

    def __init__(self, xs, ys, validate: bool = True):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        self._set_view(xs, ys)
        if validate:
            self._validate()
        lt, lf = _log(xs), _log(np.clip(ys, 0.0, 1.0))
        # Segment lines from the chords; ulp-level rises count as flat.
        lm = _log(np.maximum(ys[:-1] - ys[1:], 0.0)) - _log(np.diff(xs))
        lb = np.logaddexp(lf[:-1], lm + lt[:-1])
        for name, arr in (("_lt", lt), ("_lf", lf), ("_lm", lm), ("_lb", lb)):
            self._set(name, arr)

    def _set(self, name, arr):
        arr.setflags(write=False)
        object.__setattr__(self, name, arr)

    def _set_view(self, xs, ys):
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "_view", (xs, ys))

    @classmethod
    def _from_log(cls, lt, lf, lm, lb) -> "TradeoffCurve":
        """Curve from its log-coordinate form; the linear view is derived
        on first access (see ``_derive_view``)."""
        self = object.__new__(cls)
        for name, arr in (("_lt", lt), ("_lf", lf), ("_lm", lm), ("_lb", lb)):
            self._set(name, arr)
        object.__setattr__(self, "_view", None)
        return self

    @property
    def xs(self) -> np.ndarray:
        """t of the vertices, read-only."""
        return (self._view or self._derive_view())[0]

    @property
    def ys(self) -> np.ndarray:
        """f of the vertices, read-only."""
        return (self._view or self._derive_view())[1]

    def _derive_view(self):
        """Build and keep the linear view of a curve made from its log form.

        The view resolves t and f down to the smallest normal double.
        Vertices at smaller t are replaced by the curve's value at that t,
        and smaller f reads as 0, so the view is exact to within that
        resolution.
        """
        lt, lf = self._lt, self._lf
        resolved = lt >= _LOG_VIEW_FLOOR
        resolved[0] = True
        xs, ys = np.exp(lt[resolved]), np.exp(lf[resolved])
        if not resolved[1]:
            xs = np.insert(xs, 1, _VIEW_FLOOR)
            ys = np.insert(ys, 1, self._at_log(np.array([_LOG_VIEW_FLOOR]))[0])
        ys[ys < _VIEW_FLOOR] = 0.0
        keep = np.ones(xs.size, dtype=bool)
        # t that round to the same double keep the lowest value, and once f
        # has reached 0 only t = 1 remains
        keep[:-1] = np.diff(xs) > 0
        keep[1:-1] &= ys[:-2] > 0.0
        self._set_view(xs[keep], ys[keep])
        return self._view

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("TradeoffCurve is immutable")

    def _validate(self):
        xs, ys = self.xs, self.ys
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValidationError("curve needs matching 1-d vertex arrays, >= 2 points")
        if not (abs(xs[0]) <= 1e-12 and abs(xs[-1] - 1.0) <= 1e-12):
            raise ValidationError("curve must span x = 0 to x = 1")
        if np.any(np.diff(xs) <= 0):
            raise ValidationError("vertex x-coordinates must be strictly increasing")
        if np.any(ys < -1e-12) or np.any(ys > 1.0 + 1e-12):
            raise ValidationError("vertex values must lie in [0, 1]")
        if np.any(ys > 1.0 - xs + 1e-12):
            raise ValidationError("curve must satisfy f(x) <= 1 - x")
        slopes = np.diff(ys) / np.diff(xs)
        if np.any(slopes > 1e-9):
            raise ValidationError("curve must be non-increasing")
        # Convexity with slope-magnitude-scaled tolerance.
        scale = np.maximum(1.0, np.abs(slopes[:-1]))
        if np.any(np.diff(slopes) < -GEOM_TOL * scale):
            raise ValidationError("curve must be convex")

    @classmethod
    def from_vertices(cls, vertices) -> "TradeoffCurve":
        pts = np.asarray(vertices, dtype=float)
        return cls(pts[:, 0], pts[:, 1])

    @classmethod
    def identity(cls) -> "TradeoffCurve":
        """The no-information curve f(t) = 1 - t."""
        return cls(np.array([0.0, 1.0]), np.array([1.0, 0.0]), validate=False)

    @property
    def vertices(self) -> list[tuple[float, float]]:
        return list(zip(self.xs.tolist(), self.ys.tolist()))

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < -1e-12) or np.any(t_arr > 1.0 + 1e-12):
            raise ValidationError("evaluation point must lie in [0, 1]")
        vals = np.interp(np.clip(t_arr, 0.0, 1.0), self.xs, self.ys)
        return float(vals) if np.isscalar(t) or t_arr.ndim == 0 else vals

    def _at_log(self, log_t: np.ndarray) -> np.ndarray:
        """Values at t = e^log_t, from the supporting line of each segment."""
        seg = np.searchsorted(self._lt, log_t, side="right") - 1
        seg = np.clip(seg, 0, self._lm.size - 1)
        vals = np.exp(self._lb[seg]) - np.exp(self._lm[seg] + log_t)
        return np.clip(vals, 0.0, 1.0)

    def tv(self) -> float:
        """Tightest eta such that t + f(t) >= 1 - eta everywhere.

        t + f(t) falls while the slope is steeper than -1, so its minimum
        is at the left end of the first segment with |slope| <= 1 (or at
        t = 1, where it is at least 1).  There it is e^lb + t (1 - e^lm),
        a sum of positive terms, so a small eta keeps its relative
        precision.
        """
        flat = self._lm <= 0.0
        if not flat.any():
            return 0.0
        s = int(np.argmax(flat))
        log_min = np.logaddexp(self._lb[s], self._lt[s] + _log1mexp(self._lm[s]))
        return max(0.0, float(-np.expm1(log_min)))

    def check_budget(self, budget: PrivacyBudget, tol: float = GEOM_TOL) -> bool:
        """True iff the curve satisfies all three budget inequalities."""
        return (
            delta_at_epsilon(self, budget.epsilon) <= budget.delta + tol
            and self.tv() <= budget.eta + tol
        )

    def mirror(self) -> "TradeoffCurve":
        """Reflection of the privacy region across the diagonal y = x.

        The line f = b - m t reflects to f = b/m - t/m.  Flat segments
        become vertical and drop out; the envelope's floor f = 0 stands in
        for a vertical drop at t = 0.
        """
        steep = np.isfinite(self._lm)
        lm = self._lm[steep]
        return _upper_envelope(-lm, self._lb[steep] - lm)

    def as_dict(self) -> dict:
        return {"vertices": [[x, y] for x, y in self.vertices]}

    @classmethod
    def from_dict(cls, payload: dict) -> "TradeoffCurve":
        return cls.from_vertices(payload["vertices"])

    def __repr__(self):
        return f"TradeoffCurve({self.xs.size} vertices, tv={self.tv():.6g})"

    def __eq__(self, other):
        if not isinstance(other, TradeoffCurve):
            return NotImplemented
        return self.xs.shape == other.xs.shape and bool(
            np.all(self.xs == other.xs) and np.all(self.ys == other.ys)
        )

    def __hash__(self):
        return hash((self.xs.tobytes(), self.ys.tobytes()))


def _crossing(lm_i, lb_i, lm_j, lb_j) -> np.ndarray:
    """log t at which each line i hands over to its flatter line j.

    Needs lm_j < lm_i and lb_j < lb_i elementwise; the crossing is
    (b_i - b_j) / (m_i - m_j), written without cancellation.
    """
    # slopes more than DBL_MAX apart overflow their log gap to -inf, the
    # exact limit here (_log1mexp(-inf) = 0), so that overflow is benign
    with np.errstate(over="ignore"):
        slope_gap = lm_j - lm_i
    return lb_i + _log1mexp(lb_j - lb_i) - lm_i - _log1mexp(slope_gap)


def _crossings(lm: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """log t at which each line hands over to the next, flatter one
    (lm and lb strictly decreasing along the list)."""
    return _crossing(lm[:-1], lb[:-1], lm[1:], lb[1:])


def _hands_over_first(takes_over, hands_over):
    """Whether a line hands over (to its successor) no later than it takes
    over (from its predecessor), so that it never leads; a lead over a
    rounding-level width of t counts as none."""
    return takes_over >= hands_over - _SAME_LOG_T * (1.0 + np.abs(hands_over))


def _hull_scan(lm: np.ndarray, lb: np.ndarray):
    """The lines of the envelope by one sequential stack scan, O(n)."""
    stack: list[int] = []
    cross: list[float] = []  # cross[i]: where stack line i hands over to i + 1
    for i in range(lm.size):
        while stack:
            pair = [stack[-1], i]
            at = float(_crossings(lm[pair], lb[pair])[0])
            if cross and _hands_over_first(cross[-1], at):
                stack.pop()
                cross.pop()
            else:
                cross.append(at)
                break
        stack.append(i)
    return lm[stack], lb[stack]


def _upper_envelope(log_slopes, log_intercepts) -> TradeoffCurve:
    """Upper envelope over [0, 1] of the lines f = e^lb - e^lm t and f = 0:
    the one-row case of ``_upper_envelopes``, which frees the rows built
    here once it has sorted them."""
    return _upper_envelopes(
        np.append(np.asarray(log_slopes, dtype=float), -np.inf)[None],
        np.append(np.asarray(log_intercepts, dtype=float), -np.inf)[None],
    )[0]


def _upper_envelopes(lm: np.ndarray, lb: np.ndarray) -> list[TradeoffCurve]:
    """The upper envelope over [0, 1] of each row's lines f = e^lb - e^lm t.

    Line i of a row is given by lm = log of its slope's magnitude and lb =
    log of its intercept, so slopes and intercepts of any size are exact.
    The rows have equal length and each ends with the floor line f = 0
    (lm = lb = -inf).  Lines are sorted steepest first; a line survives
    only if it hands over to its successor after it takes over from its
    predecessor.  Each pass drops every line that fails this test at once
    (a line below the maximum of its two neighbours is below the envelope
    of the rest), until none does.  The crossings are computed once; a
    pass recomputes only those of the pairs its drops made adjacent.
    Chains of lines that each surface only once a neighbour goes could need
    a pass per line, so past _MAX_PASSES a sequential scan finishes each
    row.  Sorting and prefiltering run on the 2-D rows, and the passes on
    all rows' lines laid end to end.  There a row's floor line and the next
    row's first line share a NaN crossing slot, for which the test above is
    false: neither is ever hidden, the crossing between them is never
    computed (the first crossings come row by row, which also keeps their
    temporaries small), and the NaN slots mark where each row ends.
    Callers must supply line families whose envelopes are valid curves
    (bounded by 1 - t, enforced by validation).
    """
    rows, width = lm.shape
    if rows == 1:  # 1-D from here, where numpy's per-call cost is lower
        lm, lb = lm[0], lb[0]
    # Steepest first and, within a slope, the highest intercept last.  The
    # columns are sorted flipped, so that equal lines keep the first one
    # given (and a zero slope its sign).  Each array is gathered on its own,
    # so that the unsorted rows can go as soon as they are read.
    order = np.lexsort((lb[..., ::-1], -lm[..., ::-1]))
    if rows == 1:
        lm = lm[::-1][order]
        lb = lb[::-1][order]
    else:
        # the flat index of a sorted line: its row's last index minus its
        # flipped column
        row_last = np.arange(width - 1, rows * width, width)[:, None]
        np.subtract(row_last, order, out=order)
        lm = lm.ravel()[order]
        lb = lb.ravel()[order]
    del order
    # One line per slope (the highest), and only lines that start above
    # every flatter line: a steeper line that starts no higher never leads.
    keep = np.ones(lm.shape, dtype=bool)
    keep[..., :-1] = lm[..., :-1] != lm[..., 1:]
    flatter_best = np.maximum.accumulate(lb[..., ::-1], axis=-1)[..., ::-1]
    keep[..., :-1] &= lb[..., :-1] > flatter_best[..., 1:]
    del flatter_best
    lm, lb = lm[keep], lb[keep]

    if rows == 1:
        cross = _crossings(lm, lb)
    else:
        cross = np.full(lm.size - 1, np.nan)
        ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
        for start, end in zip([0] + ends[:-1], ends):
            cross[start : end - 1] = _crossings(lm[start:end], lb[start:end])
    del keep
    for _ in range(_MAX_PASSES):
        hidden = _hands_over_first(cross[:-1], cross[1:])
        if not hidden.any():
            break
        keep = np.ones(lm.size, dtype=bool)
        keep[1:-1] = ~hidden
        lm = lm[keep]
        lb = lb[keep]
        cross = cross[keep[:-1]]
        fresh = np.flatnonzero(hidden[keep[:-2]])  # kept lines whose successor went
        cross[fresh] = _crossing(lm[fresh], lb[fresh], lm[fresh + 1], lb[fresh + 1])
    else:
        scanned = (_hull_scan(m, b) for m, b, _ in _rows(rows, lm, lb, cross))
        return [_hull_curve(m, b, _crossings(m, b)) for m, b in scanned]
    return [_hull_curve(m, b, c) for m, b, c in _rows(rows, lm, lb, cross)]


def _rows(rows: int, lm: np.ndarray, lb: np.ndarray, cross: np.ndarray):
    """(lm, lb, crossings) of each row of the pass loop's lines, split at
    the NaN crossing slots.  Several rows' lines are copied out, so that
    their curves do not keep the whole batch alive."""
    if rows == 1:
        return [(lm, lb, cross)]
    ends = np.flatnonzero(np.isnan(cross)) + 1
    parts = (np.split(a, ends) for a in (lm, lb, np.append(cross, np.nan)))
    return [(m.copy(), b.copy(), c[:-1]) for m, b, c in zip(*parts)]


def _hull_curve(lm: np.ndarray, lb: np.ndarray, cross: np.ndarray) -> TradeoffCurve:
    """The curve of one envelope from its hull lines and their crossings."""
    # Lines that take over only at t >= 1 are outside the curve (the
    # crossings increase along the hull).
    n = 1 + int(np.count_nonzero(cross < 0.0))
    lm, lb, cross = lm[:n], lb[:n], cross[: n - 1]
    # f at the crossing of lines i and j: (b_j m_i - b_i m_j) / (m_i - m_j).
    # As in _crossings, a slope gap that overflows to -inf is the exact limit.
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.minimum(lb[:-1] - lb[1:] + lm[1:] - lm[:-1], 0.0)
        lf_cross = np.where(
            lb[1:] == -np.inf,
            -np.inf,
            lb[1:] + _log1mexp(spread) - _log1mexp(lm[1:] - lm[:-1]),
        )
    end = np.exp(lb[-1]) - np.exp(lm[-1])
    lt = np.concatenate(([-np.inf], cross, [0.0]))
    lf = np.concatenate(([lb[0]], lf_cross, [_log(max(end, 0.0))]))
    lf = np.minimum(lf, 0.0)
    if np.any(np.exp(lf) + np.exp(lt) > 1.0 + 1e-12):
        raise ValidationError("curve must satisfy f(x) <= 1 - x")
    return TradeoffCurve._from_log(lt, lf, lm, lb)


def _dp_lines(eps, log_keep):
    """The two DP lines of each (eps, log(1 - delta)), f = (1-delta) - e^eps t
    and its mirror f = e^-eps (1-delta-t), as the log slopes and the log
    intercepts that ``_upper_envelope`` takes, each split in two parts:
    scalars for one budget, arrays for a ledger."""
    return (eps, -eps), (log_keep, log_keep - eps)


def curve_from_budget(budget: PrivacyBudget) -> TradeoffCurve:
    """Boundary of the region cut out by the two DP lines and the TV line.

    The result is the pointwise maximum of 1-delta-e^eps*t,
    (1-delta-t)e^{-eps} and 1-eta-t, clipped to the unit square; it is
    symmetric about the diagonal.
    """
    log_keep = math.log1p(-budget.delta) if budget.delta < 1.0 else -math.inf
    log_tv = math.log1p(-budget.eta) if budget.eta < 1.0 else -math.inf
    lm, lb = _dp_lines(budget.epsilon, log_keep)
    return _upper_envelope([*lm, 0.0], [*lb, log_tv])


def check_budget(curve: TradeoffCurve, budget: PrivacyBudget) -> bool:
    """Whether ``curve`` meets every constraint encoded by ``budget``."""
    return curve.check_budget(budget)


def intersect(curves) -> TradeoffCurve:
    """Intersection of privacy regions, i.e. the pointwise maximum of curves.

    A convex piecewise-linear function equals the maximum of the lines
    through its segments, so the envelope over all segment lines of all
    curves is exact.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("intersect requires at least one curve")
    return _upper_envelope(
        np.concatenate([c._lm for c in curves]),
        np.concatenate([c._lb for c in curves]),
    )


def _roc_from_atoms(mass0, mass1, log_ratios) -> TradeoffCurve:
    """Exact ROC of a discrete pair given per-atom masses and log likelihood ratios.

    Likelihood-ratio tests are optimal, so the curve's vertices are the
    cumulative masses over atoms sorted by decreasing ratio; atoms with
    equal ratio merge into one step (randomized tests fill the chord).
    The step of ratio e^lr is a segment of slope -e^-lr, so the curve is the
    envelope of one line per step, each through the step's end nearer t = 0.
    """
    mass0 = np.asarray(mass0, dtype=float)
    mass1 = np.asarray(mass1, dtype=float)
    lr = np.asarray(log_ratios, dtype=float)
    keep = (mass0 > 0.0) | (mass1 > 0.0)
    mass0, mass1, lr = mass0[keep], mass1[keep], lr[keep]
    if mass0.size == 0:
        raise ValidationError("pair carries no probability mass")
    order = np.argsort(-lr, kind="stable")
    mass0, mass1, lr = mass0[order], mass1[order], lr[order]
    # Merge atoms whose ratios agree (the tolerance only matters for product
    # constructions where equal ratios differ by a few ulps).  inf - inf is
    # nan, which compares False, i.e. equal infinities merge.
    if lr.size > 1:
        new_group = np.ones(lr.size, dtype=bool)
        with np.errstate(invalid="ignore"):
            new_group[1:] = (lr[:-1] - lr[1:]) > 1e-9
        starts = np.flatnonzero(new_group)
        mass0 = np.add.reduceat(mass0, starts)
        mass1 = np.add.reduceat(mass1, starts)
        lr = lr[starts]
    # Accepting the steps in order walks from t = 1 to t = 0.  After step g,
    # t is the p0 mass of the later steps (suffix sums, so tiny tail masses
    # survive) and f the p1 mass of steps up to g.
    log_t = _log(np.append(np.cumsum(mass0[::-1])[::-1][1:], 0.0))
    log_f = _log(np.cumsum(mass1))
    # Steps with p1 mass only (lr = -inf) are the vertical drop at t = 0;
    # the envelope's value at 0 already accounts for them.
    steep = lr > -np.inf
    lm = -lr[steep]
    return _upper_envelope(lm, np.logaddexp(log_f[steep], lm + log_t[steep]))


def curve_from_pair(pair: DiscretePair) -> TradeoffCurve:
    """Exact tradeoff curve of a discrete binary-hypothesis pair."""
    p0, p1 = pair.p0, pair.p1
    lr = np.full(p0.shape, -np.inf)
    both = (p0 > 0.0) & (p1 > 0.0)
    lr[both] = np.log(p0[both]) - np.log(p1[both])
    lr[(p0 > 0.0) & (p1 <= 0.0)] = np.inf
    return _roc_from_atoms(p0, p1, lr)


def tv_of_curve(curve: TradeoffCurve) -> float:
    """Total variation implied by a curve: 1 - min_t (t + f(t))."""
    return curve.tv()


def sup_norm(a: TradeoffCurve, b: TradeoffCurve) -> float:
    """Supremum distance between the linear views of two curves (exact for
    piecewise-linear)."""
    xs = np.union1d(a.xs, b.xs)
    return float(np.max(np.abs(a(xs) - b(xs))))


def _gaps(a: TradeoffCurve, b: TradeoffCurve) -> np.ndarray:
    """a - b at every vertex of either curve; a - b is piecewise linear with
    breakpoints there, so its extremes over [0, 1] are among these values."""
    log_t = np.union1d(a._lt, b._lt)
    return a._at_log(log_t) - b._at_log(log_t)


def min_gap(a: TradeoffCurve, b: TradeoffCurve) -> float:
    """Minimum of a - b over [0, 1]; >= 0 means a dominates b."""
    return float(np.min(_gaps(a, b)))


def max_gap(a: TradeoffCurve, b: TradeoffCurve) -> float:
    """Maximum of a - b over [0, 1]."""
    return float(np.max(_gaps(a, b)))


def _strict(
    top_gap: float, a: TradeoffCurve, b: TradeoffCurve, threshold: float = 1e-9
) -> bool:
    """Whether a maximum gap ``top_gap`` of a over b exceeds ``threshold``
    times the curves' overall scale (their value at 0)."""
    scale = max(float(a(0.0)), float(b(0.0)), 1e-300)
    return bool(top_gap > threshold * scale)


def strict_improvement(
    a: TradeoffCurve, b: TradeoffCurve, threshold: float = 1e-9
) -> bool:
    """Whether a exceeds b somewhere by more than ``threshold`` times the
    curves' overall scale (their value at 0).

    Separation below that scale is indistinguishable from accumulated
    rounding in the constructions, so it does not count as strict.
    """
    return _strict(max_gap(a, b), a, b, threshold)


def delta_at_epsilon(curve: TradeoffCurve, epsilon: float) -> float:
    """Smallest delta such that the curve satisfies (epsilon, delta)-DP."""
    lt, lf = curve._lt, curve._lf
    lo = min(
        np.min(np.logaddexp(lt, epsilon + lf)), np.min(np.logaddexp(epsilon + lt, lf))
    )
    return float(max(0.0, -math.expm1(lo)))
