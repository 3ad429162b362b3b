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

One function, ``_upper_envelope``, builds every curve: a budget's lines, a
ledger's DP lines, the lines of an intersection, and the DP lines of a whole
grid of ledgers at once, which is the intersection of their regions.  Budget
curves, ledger curves and their intersections are symmetric about the
diagonal, since each DP line comes with its mirror.  Such a curve is flagged
and built from its steep half alone: the envelope of the lines with slope
-1 or steeper, cut at the diagonal, and that half mirrored (see
``_mirrored_curve``).  Its flat half is then the exact mirror of the steep
half.  The privacy profile of every curve, and with it the total
variation, is read from its supporting lines (see ``_profile``); a curve
that is not symmetric also reads its mirror's.
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
    form.  ``_symmetric`` flags a curve built as the mirror image of its
    steep half (see the module docstring); curves given by their vertices
    are not flagged.  An unflagged curve keeps its mirror in ``_mirror`` once
    built.  Instances are immutable; all operations return new curves.
    """

    __slots__ = ("_view", "_lt", "_lf", "_lm", "_lb", "_symmetric", "_mirror")

    def __init__(self, xs, ys, validate: bool = True):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        object.__setattr__(self, "_symmetric", False)
        object.__setattr__(self, "_mirror", None)
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
    def _from_log(cls, lt, lf, lm, lb, symmetric: bool = False) -> "TradeoffCurve":
        """Curve from its log-coordinate form; the linear view is derived
        on first access (see ``_derive_view``)."""
        self = object.__new__(cls)
        for name, arr in (("_lt", lt), ("_lf", lf), ("_lm", lm), ("_lb", lb)):
            self._set(name, arr)
        object.__setattr__(self, "_view", None)
        object.__setattr__(self, "_symmetric", symmetric)
        object.__setattr__(self, "_mirror", None)
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
        """Tightest eta such that t + f(t) >= 1 - eta everywhere: the
        privacy profile at epsilon = 0, where both of its constraints are
        this one (see ``_profile``)."""
        if _out_of_order(self):
            return _vertex_profile(self._lt, self._lf, 0.0)
        return _profile(self, 0.0)

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
        for a vertical drop at t = 0.  A symmetric curve is its own mirror
        and is returned as it is; any other curve builds its mirror on the
        first call and keeps it.
        """
        if self._symmetric:
            return self
        if self._mirror is None:
            steep = np.isfinite(self._lm)
            lm = self._lm[steep]
            mirror = _upper_envelope(-lm, self._lb[steep] - lm)
            object.__setattr__(self, "_mirror", mirror)
        return self._mirror

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
    # exact limit here (_log1mexp(-inf) = 0), so the envelope ignores that
    # overflow
    return lb_i + _log1mexp(lb_j - lb_i) - lm_i - _log1mexp(lm_j - lm_i)


def _crossings(lm: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """log t at which each line hands over to the next, flatter one
    (lm and lb strictly decreasing along the list)."""
    return _crossing(lm[:-1], lb[:-1], lm[1:], lb[1:])


def _hands_over_first(takes_over, hands_over):
    """Whether a line hands over (to its successor) no later than it takes
    over (from its predecessor), so that it never leads; a lead over a
    rounding-level width of t counts as none."""
    return takes_over >= hands_over - _SAME_LOG_T * (1.0 + np.abs(hands_over))


def _upper_envelope(log_slopes, log_intercepts, symmetric: bool = False) -> TradeoffCurve:
    """Upper envelope over [0, 1] of the lines f = e^lb - e^lm t and f = 0,
    or with ``symmetric``, of lines with lm >= 0, their mirrors and f = 0.

    Line i is given by lm = log of its slope's magnitude and lb = log of its
    intercept, so slopes and intercepts of any size are exact.  Each
    argument is array-like, or a tuple of array parts; arrays of any shape
    are read in row-major order.  The lines are laid end to end here, so
    that these copies go once sorted, and parts handed over as temporaries
    go before the sort.
    Lines are sorted by slope alone, steepest first, and only the highest
    line of each slope goes on (of equal lines, the first one given).  A
    line survives only if it hands over to its successor after it takes
    over from its predecessor.  Each pass drops every line that fails this
    test at once (a line below the maximum of its two neighbours is below
    the envelope of the rest), until none does; a pass that finds such a
    line drops it, so the passes end.  The crossings are computed once; a
    pass recomputes only those of the pairs its drops made adjacent.
    Callers must supply a line family whose envelope is a valid curve
    (bounded by 1 - t, enforced by validation).  The hull becomes a curve
    in ``_hull_curve``, or with ``symmetric`` in ``_mirrored_curve``.
    """
    lm = _laid_out(log_slopes)
    lb = _laid_out(log_intercepts)
    del log_slopes, log_intercepts
    # steepest first, and lines of equal slope in the order given
    order = np.argsort(-lm, kind="stable")
    lm = lm[order]
    lb = lb[order]
    del order
    lm, lb = _candidate_lines(lm, lb)

    # Overflow to -inf is the exact limit in each step below: of the slope
    # gaps in _crossing and, near -DBL_MAX (a slope near e^DBL_MAX), of the
    # rounding allowance of _hands_over_first and of the mirrored
    # intercepts lb - lm of _mirrored_curve.
    with np.errstate(over="ignore"):
        cross = _crossings(lm, lb)
        hidden = _hands_over_first(cross[:-1], cross[1:])
        while hidden.any():
            keep = np.ones(lm.size, dtype=bool)
            keep[1:-1] = ~hidden
            lm = lm[keep]
            lb = lb[keep]
            cross = cross[keep[:-1]]
            fresh = np.flatnonzero(hidden[keep[:-2]])  # kept lines whose successor went
            cross[fresh] = _crossing(lm[fresh], lb[fresh], lm[fresh + 1], lb[fresh + 1])
            hidden = _hands_over_first(cross[:-1], cross[1:])
        if symmetric:
            return _mirrored_curve(lm, lb, cross)
    return _hull_curve(lm, lb, cross)


def _candidate_lines(lm: np.ndarray, lb: np.ndarray):
    """The lines that can lead, from lines sorted steepest first and, within
    a slope, in the order given: the highest line of each slope (of equal
    lines, the first), and of those only the ones that start above every
    flatter line (a steeper line that starts no higher never leads).

    Equal doubles differ in their bits only as +0 and -0, and the kept
    lines start strictly lower as they get flatter, so at most two kept
    slopes, the one whose slope is zero and the one whose top intercept is
    zero, look for their first line at the top.
    """
    new_slope = np.empty(lm.size, dtype=bool)
    new_slope[0] = True
    np.not_equal(lm[1:], lm[:-1], out=new_slope[1:])
    tied = not new_slope.all()
    if tied:
        starts = np.flatnonzero(new_slope)
        slope, top = lm[starts], np.maximum.reduceat(lb, starts)
    else:
        slope, top = lm, lb
    keep = np.ones(top.size, dtype=bool)
    flatter_best = np.maximum.accumulate(top[::-1])[::-1]
    keep[:-1] = top[:-1] > flatter_best[1:]
    del flatter_best
    if tied:
        for run in np.flatnonzero(keep & ((slope == 0.0) | (top == 0.0))).tolist():
            start = starts[run]
            end = starts[run + 1] if run + 1 < starts.size else lm.size
            first = start + int(np.argmax(lb[start:end] == top[run]))
            slope[run], top[run] = lm[first], lb[first]
    return slope[keep], top[keep]


def _laid_out(lines) -> np.ndarray:
    """The values of ``lines`` (array-like, or a tuple of array parts) end
    to end in one 1-D array, then the floor line's -inf."""
    parts = lines if isinstance(lines, tuple) else (lines,)
    return np.concatenate([np.ravel(p) for p in parts] + [[-np.inf]], dtype=float)


def _hull_curve(lm: np.ndarray, lb: np.ndarray, cross: np.ndarray) -> TradeoffCurve:
    """The curve of one envelope from its hull lines and their crossings."""
    # Lines that take over only at t >= 1 are outside the curve (the
    # crossings increase along the hull).
    n = 1 + int(np.count_nonzero(cross < 0.0))
    lm, lb, cross = lm[:n], lb[:n], cross[: n - 1]
    end = np.exp(lb[-1]) - np.exp(lm[-1])
    lt = np.concatenate(([-np.inf], cross, [0.0]))
    lf = np.concatenate(([lb[0]], _crossing_log_f(lm, lb), [_log(max(end, 0.0))]))
    _clip_log_f(lt, lf)
    return TradeoffCurve._from_log(lt, lf, lm, lb)


def _crossing_log_f(lm: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """log f at the crossing of each hull line with the next."""
    # f at the crossing of lines i and j: (b_j m_i - b_i m_j) / (m_i - m_j).
    # As in _crossings, a slope gap that overflows to -inf is the exact limit.
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.minimum(lb[:-1] - lb[1:] + lm[1:] - lm[:-1], 0.0)
        return np.where(
            lb[1:] == -np.inf,
            -np.inf,
            lb[1:] + _log1mexp(spread) - _log1mexp(lm[1:] - lm[:-1]),
        )


def _clip_log_f(lt: np.ndarray, lf: np.ndarray) -> None:
    """Clip the vertices' log f at 0 in place, after checking f <= 1 - t."""
    np.minimum(lf, 0.0, out=lf)
    if (np.exp(lf) + np.exp(lt) > 1.0 + 1e-12).any():
        raise ValidationError("curve must satisfy f(x) <= 1 - x")


def _mirrored_curve(lm: np.ndarray, lb: np.ndarray, cross: np.ndarray) -> TradeoffCurve:
    """The symmetric curve whose steep half is the hull of lines with
    lm >= 0 (and the floor), given with their crossings.

    Line i meets the diagonal f = t at log t = lb - log(1 + e^lm).  A line
    that takes over no earlier than that is past the diagonal, where the
    mirrored lines lead, so it goes, and every flatter line with it (a lead
    over a rounding-level width counts as none, as in the envelope).  If
    the last line left has slope -1, it is its own mirror and is the middle
    segment; otherwise the mirror of the last line takes over from it on
    the diagonal.  The flat half is the steep half reversed, with vertices
    (lt, lf) -> (lf, lt) and lines (lm, lb) -> (-lm, lb - lm).  A curve
    that starts below 1 at t = 0 ends with the floor f = 0, the mirror of
    its drop at t = 0.  Runs under the envelope's overflow guard.
    """
    if lb[0] == -np.inf:  # the floor alone, its own mirror
        lt, lf = np.array([-np.inf, 0.0]), np.array([-np.inf, -np.inf])
        return TradeoffCurve._from_log(lt, lf, lm, lb, True)
    diagonal = lb - np.logaddexp(0.0, lm)
    # the floor, last on the hull, meets the diagonal at -inf and always goes
    n = 1 + int(_hands_over_first(cross, diagonal[1:]).argmax())
    lm, lb = lm[:n], lb[:n]
    steep = n - int(lm[-1] == 0.0)  # lines of slope below -1
    half = steep + 1  # vertices up to the middle segment or the diagonal
    floor = int(lb[0] < 0.0)
    lt, lf = np.empty(half + n + floor), np.empty(half + n + floor)
    lt[0], lf[0] = -np.inf, lb[0]
    lt[1:n] = cross[: n - 1]
    lf[1:n] = _crossing_log_f(lm, lb)
    lt[n:half] = lf[n:half] = diagonal[n - 1]  # no middle segment: end on the diagonal
    _clip_log_f(lt[:half], lf[:half])
    lt[half : half + n] = lf[n - 1 :: -1]
    lf[half : half + n] = lt[n - 1 :: -1]
    m, b = np.empty(n + steep + floor), np.empty(n + steep + floor)
    m[:n], b[:n] = lm, lb
    m[n : n + steep] = -lm[:steep][::-1]
    b[n : n + steep] = (lb[:steep] - lm[:steep])[::-1]
    if floor:
        lt[-1], lf[-1], m[-1], b[-1] = 0.0, -np.inf, -np.inf, -np.inf
    return TradeoffCurve._from_log(lt, lf, m, b, True)


def curve_from_budget(budget: PrivacyBudget) -> TradeoffCurve:
    """Boundary of the region cut out by the two DP lines and the TV line.

    The result is the pointwise maximum of 1-delta-e^eps*t,
    (1-delta-t)e^{-eps} and 1-eta-t, clipped to the unit square; it is
    symmetric about the diagonal.
    """
    log_keep = math.log1p(-budget.delta) if budget.delta < 1.0 else -math.inf
    log_tv = math.log1p(-budget.eta) if budget.eta < 1.0 else -math.inf
    return _upper_envelope([budget.epsilon, 0.0], [log_keep, log_tv], symmetric=True)


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
    # symmetric curves intersect to one, the envelope of their steep halves
    symmetric = all(c._symmetric for c in curves)
    ends = [np.count_nonzero(c._lm >= 0.0) if symmetric else c._lm.size for c in curves]
    return _upper_envelope(
        tuple(c._lm[:n] for c, n in zip(curves, ends)),
        tuple(c._lb[:n] for c, n in zip(curves, ends)),
        symmetric,
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
    """Smallest delta such that the curve satisfies (epsilon, delta)-DP:
    f + e^eps t >= 1 - delta and t + e^eps f >= 1 - delta.

    The first is the curve's ``_profile`` and the second its mirror's; a
    symmetric curve is its own mirror.  At epsilon = inf this is the larger
    one-sided mass, 1 - f(0) of the curve or of its mirror.  A curve whose
    lines are out of slope order (``_out_of_order``) reads both from its
    vertices instead.
    """
    if math.isnan(epsilon):
        raise ValidationError("epsilon must not be NaN")
    if _out_of_order(curve):
        return max(
            _vertex_profile(curve._lt, curve._lf, epsilon),
            _vertex_profile(curve._lf, curve._lt, epsilon),
        )
    delta = _profile(curve, epsilon)
    mirror = curve.mirror()
    if mirror is not curve:
        delta = max(delta, _profile(mirror, epsilon))
    return delta


def _profile(curve: TradeoffCurve, epsilon: float) -> float:
    """delta(epsilon) = 1 - b, b the intercept of the curve's tangent of
    slope -e^epsilon, from its supporting lines: the least delta such that
    f + e^eps t >= 1 - delta.

    Each line's intercept is e^lb = 1 - delta of its own slope, so a line
    of slope -e^epsilon gives delta = -expm1(lb).  Otherwise the tangent
    touches the vertex between the segments s and s+1 around that slope,
    and b = lambda b_s + (1 - lambda) b_{s+1} with lambda = (e^eps -
    e^lm_{s+1}) / (e^lm_s - e^lm_{s+1}), so delta is the same mix of the two
    lines' deltas, a sum of positive terms; where that reaches 1/2, delta
    is 1 - b instead, b being the sum of positive terms then.  A slope
    steeper than every segment touches at t = 0, where the first line's
    delta holds, and one flatter than every segment at t = 1, where f = 0
    and delta = max(0, 1 - e^eps).
    """
    lm, lb = curve._lm, curve._lb
    s = int(np.searchsorted(-lm, -epsilon, side="right")) - 1  # last lm >= eps
    if s < 0 or lm[s] == epsilon:
        delta = -math.expm1(lb[max(s, 0)])
    elif s == lm.size - 1:  # f <= 1 - t makes the last slope -1 or flatter
        delta = -math.expm1(epsilon)
    else:
        m0, m1 = float(lm[s]), float(lm[s + 1])
        with np.errstate(over="ignore"):  # as in _crossing, -inf is the limit
            log_norm = float(_log1mexp(m1 - m0))
        log_lam = epsilon - m0 + float(_log1mexp(m1 - epsilon)) - log_norm
        log_rest = float(_log1mexp(epsilon - m0)) - log_norm
        lam, rest = math.exp(log_lam), math.exp(log_rest)
        delta = lam * -math.expm1(lb[s]) + rest * -math.expm1(lb[s + 1])
        if delta >= 0.5:
            delta = 1.0 - (math.exp(log_lam + lb[s]) + math.exp(log_rest + lb[s + 1]))
    return max(0.0, delta)  # and not -0.0


def _out_of_order(curve: TradeoffCurve) -> bool:
    """Whether the curve's lines are not sorted steepest first, which
    ``_profile`` needs.  Only a curve given by its vertices can be: the
    constructor accepts curves that are concave by up to ``GEOM_TOL`` times
    the slope, and the tangent that ``_profile`` reads misses such a kink."""
    return not curve._symmetric and bool((curve._lm[1:] > curve._lm[:-1]).any())


def _vertex_profile(lt: np.ndarray, lf: np.ndarray, epsilon: float) -> float:
    """1 - min over the vertices (e^lt, e^lf) of f + e^eps t, the least delta
    with f + e^eps t >= 1 - delta on any piecewise-linear curve, convex or
    not; swapping lt and lf gives the mirror's.  t = 0 adds nothing to the
    sum at any epsilon."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf + -inf at t = 0
        tilted = np.exp(epsilon + lt)
    tilted[lt == -np.inf] = 0.0
    return max(0.0, 1.0 - float((np.exp(lf) + tilted).min()))
