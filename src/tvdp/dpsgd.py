"""Whole-run accounting for noisy SGD from a per-step Gaussian-DP parameter.

Each grid epsilon yields a per-step (epsilon, delta(epsilon), eta) budget;
the budgets compose over the run's step count and the resulting regions
are intersected.  Each budget is admitted as its public ledger admits it,
in grid order, and each grid then composes through ``composition._region``:
one kernel call gives every budget's columns as a row, and the intersection
is one envelope of the DP lines of all the rows, so no
``CompositionLedger``, ``LedgerEntry`` or curve per budget is made.  The
per-epsilon records come from the budgets drawn.  Each Gaussian profile
value is computed once and shared by the refined and the baseline grid.
The per-step mu is an input: deriving it from noise multiplier and
sampling rate is out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .composition import _MAX_STEPS, _kairouz_region, _types_region
from .curves import (
    PrivacyBudget,
    TradeoffCurve,
    _gaps,
    _strict,
    delta_at_epsilon,
    tv_feasibility_cap,
)
from .errors import ValidationError
from .mechanisms import gaussian_delta, gaussian_tv

# External reference point for the same configuration, reported alongside
# results as an annotation only (never asserted).
MOMENTS_ACCOUNTANT_REFERENCE = {"epsilon": 1.19, "delta": 1e-5}


@dataclass(frozen=True)
class SgdConfig:
    """Run shape plus the per-step Gaussian-DP parameter and epsilon grid."""

    dataset_size: int
    batch_size: int
    epochs: float
    step_mu: float
    epsilon_grid: tuple[float, ...]

    def __post_init__(self):
        if self.dataset_size < 1 or self.batch_size < 1:
            raise ValidationError("dataset and batch sizes must be positive")
        if self.batch_size > self.dataset_size:
            raise ValidationError("batch size cannot exceed dataset size")
        if not (self.epochs > 0.0 and math.isfinite(self.epochs * self.dataset_size)):
            raise ValidationError("epochs must be positive, with a finite epochs * n")
        if not self.step_mu > 0.0:
            raise ValidationError("step_mu must be positive")
        grid = tuple(float(e) for e in self.epsilon_grid)
        if not grid:
            raise ValidationError("epsilon grid must be non-empty")
        if any(e <= 0.0 for e in grid):
            raise ValidationError("epsilon grid values must be positive")
        if list(grid) != sorted(grid):
            raise ValidationError("epsilon grid must be sorted ascending")
        object.__setattr__(self, "epsilon_grid", grid)
        if self.steps < 1:
            raise ValidationError("configuration yields zero steps")
        if self.steps > _MAX_STEPS:
            raise ValidationError(
                f"epochs = {self.epochs:.12g} gives {self.steps:.12g} steps, more than "
                f"the {_MAX_STEPS} whose level masses an array can hold"
            )

    @property
    def steps(self) -> int:
        return int(round(self.epochs * self.dataset_size / self.batch_size))


def _step_budget(epsilon: float, delta: float, eta: float) -> PrivacyBudget:
    """The step budget at one grid epsilon from its profile values
    delta(epsilon) and the Gaussian TV, eta clamped to the feasibility cap."""
    return PrivacyBudget(epsilon, delta, min(eta, tv_feasibility_cap(epsilon, delta)))


def step_budget(step_mu: float, epsilon: float) -> PrivacyBudget:
    """Per-step budget (epsilon, delta(epsilon), gaussian TV).

    At small epsilon the Gaussian TV can exceed the feasibility cap implied
    by (epsilon, delta); eta is then clamped to the cap (the clamp flag is
    surfaced by sgd_compare).
    """
    if not step_mu > 0.0:
        raise ValidationError("step_mu must be positive")
    if not epsilon > 0.0:
        raise ValidationError("epsilon must be positive")
    delta = gaussian_delta(step_mu, epsilon)
    return _step_budget(epsilon, delta, gaussian_tv(step_mu))


def _grid_deltas(config: SgdConfig) -> list[float]:
    """The Gaussian profile delta(epsilon) at each grid epsilon."""
    return [gaussian_delta(config.step_mu, eps) for eps in config.epsilon_grid]


def _refined_region(config: SgdConfig, tol: float, deltas=None):
    """The intersected TV-aware region of the grid and one record per grid
    epsilon: its step budget, whether eta was clamped, and its composed TV."""
    if deltas is None:
        deltas = _grid_deltas(config)
    eta = gaussian_tv(config.step_mu)
    # drawn as composition admits them, so that errors keep grid order
    steps = (_step_budget(e, d, eta) for e, d in zip(config.epsilon_grid, deltas))
    region, budgets, composed_tvs = _types_region(steps, config.steps, tol)
    records = [
        {
            "epsilon": budget.epsilon,
            "delta": budget.delta,
            "eta": budget.eta,
            "eta_clamped": budget.eta < eta,  # the budget's eta is min(eta, cap)
            "composed_tv": composed_tv,
        }
        for budget, composed_tv in zip(budgets, composed_tvs)
    ]
    return region, records


def sgd_region(config: SgdConfig, tol: float = 1e-6) -> TradeoffCurve:
    """Intersected composed region over the whole epsilon grid."""
    return _refined_region(config, tol)[0]


def sgd_region_baseline(config: SgdConfig) -> TradeoffCurve:
    """Same pipeline with the TV-blind baseline composition."""
    return _kairouz_region(config.epsilon_grid, _grid_deltas(config), config.steps)


def sgd_compare(
    config: SgdConfig,
    reference_epsilons: tuple[float, ...] = (0.5, 1.0, 1.19, 2.0, 3.0),
    tol: float = 1e-6,
) -> dict:
    """Report comparing the TV-aware region against the baseline.

    Per grid entry: the step budget and its composed TV; per reference
    epsilon: the delta implied by each intersected curve.  The externally
    reported moments-accountant point is included as an annotation only.
    """
    deltas = _grid_deltas(config)
    refined, per_eps = _refined_region(config, tol, deltas)
    baseline = _kairouz_region(config.epsilon_grid, deltas, config.steps)
    # min_gap, max_gap and strict_improvement, from one gap evaluation
    gaps = _gaps(refined, baseline)
    top_gap = float(gaps.max())
    return {
        "steps": config.steps,
        "per_epsilon": per_eps,
        "curve": refined.as_dict(),
        "baseline_curve": baseline.as_dict(),
        "reference_points": [
            {
                "epsilon": e,
                "delta_refined": delta_at_epsilon(refined, e),
                "delta_baseline": delta_at_epsilon(baseline, e),
            }
            for e in reference_epsilons
        ],
        "dominance": {
            "min_gap": float(gaps.min()),
            "max_gap": top_gap,
            "strict": _strict(top_gap, refined, baseline),
        },
        "annotations": {
            "moments_accountant": dict(MOMENTS_ACCOUNTANT_REFERENCE, asserted=False)
        },
    }
