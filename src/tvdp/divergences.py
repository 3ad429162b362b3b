"""f-divergences between discrete distribution pairs.

Covers total variation, KL, chi-squared, the Le Cam family, and custom
convex generators.  Conventions for zero-probability outcomes follow the
usual perspective limits; divergences that diverge return ``math.inf``
rather than raising, since downstream bounds exist precisely to control
outputs when inputs are infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError


def _float_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; anything else is an error naming them."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an array of numbers") from None


@dataclass(frozen=True)
class DiscretePair:
    """Two pmfs over one finite alphabet: the output laws of a mechanism
    under a pair of neighboring inputs."""

    p0: np.ndarray
    p1: np.ndarray

    def __post_init__(self):
        p0 = _float_array(self.p0, "p0")
        p1 = _float_array(self.p1, "p1")
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)
        if p0.ndim != 1 or p0.shape != p1.shape or p0.size == 0:
            raise ValidationError("p0 and p1 must be 1-d arrays over one alphabet")
        for name, p in (("p0", p0), ("p1", p1)):
            if np.isnan(p).any():
                raise ValidationError(f"{name} has NaN entries")
            if np.any(p < -1e-15):
                raise ValidationError(f"{name} has negative entries")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValidationError(f"{name} must sum to 1 within 1e-12")
        p0.setflags(write=False)
        p1.setflags(write=False)

    @property
    def alphabet_size(self) -> int:
        return int(self.p0.size)

    def tv(self) -> float:
        """Total variation distance between the two pmfs."""
        return float(np.maximum(0.0, self.p0 - self.p1).sum())

    def swap(self) -> "DiscretePair":
        return DiscretePair(self.p1, self.p0)


def _kl_generator(t):
    return t * np.log(t)


def _chi2_generator(t):
    return (t - 1.0) ** 2


class _LeCamGenerator:
    """Le Cam generator b (1-b) (t-1)^2 / (b t + 1 - b); its type marks a
    spec built by ``DivergenceSpec.le_cam``."""

    __slots__ = ("beta",)

    def __init__(self, beta: float):
        self.beta = beta

    def __call__(self, t):
        b = self.beta
        return b * (1.0 - b) * (t - 1.0) ** 2 / (b * t + 1.0 - b)


@dataclass(frozen=True)
class DivergenceSpec:
    """A convex generator f with f(1) = 0 plus the limits needed at the
    boundary of the support.

    ``slope_at_inf`` is lim f(t)/t as t grows, used for outcomes with
    p1 = 0 < p0; ``value_at_zero`` is lim f(t) as t -> 0+, used for
    outcomes with p0 = 0 < p1.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    value_at_zero: float
    slope_at_inf: float = math.inf
    params: tuple = field(default_factory=tuple)

    @classmethod
    def tv(cls) -> "DivergenceSpec":
        return cls("tv", lambda t: np.maximum(0.0, t - 1.0), 0.0, 1.0)

    @classmethod
    def kl(cls) -> "DivergenceSpec":
        return cls("kl", _kl_generator, 0.0, math.inf)

    @classmethod
    def chi_squared(cls) -> "DivergenceSpec":
        return cls("chi2", _chi2_generator, 1.0, math.inf)

    @classmethod
    def le_cam(cls, beta: float) -> "DivergenceSpec":
        if not 0.0 < beta < 1.0:
            raise ValidationError("Le Cam beta must lie strictly inside (0, 1)")
        b = float(beta)
        return cls("le_cam", _LeCamGenerator(b), b, 1.0 - b, params=(b,))

    @classmethod
    def custom(
        cls,
        f: Callable[[np.ndarray], np.ndarray],
        value_at_zero: float | None = None,
        slope_at_inf: float = math.inf,
        name: str = "custom",
    ) -> "DivergenceSpec":
        if value_at_zero is None:
            value_at_zero = float(f(np.asarray(1e-12)))
        return cls(name, f, float(value_at_zero), slope_at_inf)


def f_divergence(pair: DiscretePair, spec: DivergenceSpec) -> float:
    """Sum over outcomes of p1 * f(p0/p1) with perspective-limit conventions.

    Outcomes carrying no mass under either pmf contribute nothing; mass
    where p1 = 0 < p0 contributes p0 * slope_at_inf.
    """
    fx1 = float(spec.f(np.asarray(1.0)))
    if abs(fx1) > 1e-12:
        raise ValidationError(f"divergence generator must satisfy f(1) = 0, got {fx1!r}")
    p0, p1 = pair.p0, pair.p1
    both = (p0 > 0.0) & (p1 > 0.0)
    total = 0.0
    if np.any(both):
        total += float(np.sum(p1[both] * spec.f(p0[both] / p1[both])))
    only1 = (p0 <= 0.0) & (p1 > 0.0)
    if np.any(only1):
        total += float(np.sum(p1[only1])) * spec.value_at_zero
    only0 = (p0 > 0.0) & (p1 <= 0.0)
    if np.any(only0):
        mass = float(np.sum(p0[only0]))
        total = math.inf if math.isinf(spec.slope_at_inf) else total + mass * spec.slope_at_inf
    return total


def total_variation(pair: DiscretePair) -> float:
    return pair.tv()


def kl_divergence(pair: DiscretePair) -> float:
    return f_divergence(pair, DivergenceSpec.kl())


def chi_squared(pair: DiscretePair) -> float:
    return f_divergence(pair, DivergenceSpec.chi_squared())


def le_cam(pair: DiscretePair, beta: float) -> float:
    """Le Cam divergence LC_beta, evaluated in its cancellation-free form
    beta(1-beta) sum (p0-p1)^2 / (beta p0 + (1-beta) p1)."""
    if not 0.0 < beta < 1.0:
        raise ValidationError("Le Cam beta must lie strictly inside (0, 1)")
    p0, p1 = pair.p0, pair.p1
    num = (p0 - p1) ** 2
    den = beta * p0 + (1.0 - beta) * p1
    mask = den > 0.0
    return float(beta * (1.0 - beta) * np.sum(num[mask] / den[mask]))
