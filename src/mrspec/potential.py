"""Manning-Rosen potential, its analytic geometry, and centrifugal schemes.

The potential in its two-parameter form is

    V(r) = (hbar^2 / 2 mu b^2) [ alpha(alpha-1) e^{-2r/b} / (1 - e^{-r/b})^2
                                 - A e^{-r/b} / (1 - e^{-r/b}) ]

and depends on alpha only through alpha(alpha-1), so it is invariant under
alpha -> 1 - alpha. All evaluators accept scalar or array r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .units import UnitSystem, energy_scale

SCHEME_KINDS = ("exact", "greene_aldrich", "shifted")


@dataclass(frozen=True)
class PotentialParams:
    """Dimensionless strength A, shape alpha, screening length b."""

    A: float
    alpha: float
    b: float

    def __post_init__(self):
        if not (0 < self.b < math.inf):
            raise DomainError(f"screening length must be positive and finite, got {self.b}")
        if not (math.isfinite(self.A) and math.isfinite(self.alpha)):
            raise DomainError("A and alpha must be finite")
        if not math.isfinite(self.alpha * (self.alpha - 1.0)):
            raise DomainError(f"alpha(alpha-1) overflows for alpha={self.alpha}")


@dataclass(frozen=True)
class CDForm:
    """Equivalent (C, D) parameterization: C = A, D = -A - alpha(alpha-1)."""

    C: float
    D: float

    @classmethod
    def from_params(cls, p: PotentialParams) -> "CDForm":
        return cls(C=p.A, D=-p.A - p.alpha * (p.alpha - 1.0))


@dataclass(frozen=True)
class CentrifugalScheme:
    """How the 1/r^2 orbital term is treated by the numerical solver.

    kind "exact" keeps 1/r^2; "greene_aldrich" substitutes the exponential
    approximation sharing the potential's screening length; "shifted" adds a
    constant c0/b^2 on top of greene_aldrich (c0 = 1/12 cancels the leading
    small-r deficit).
    """

    kind: str
    shift_c0: float = 1.0 / 12.0

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise DomainError(
                f"unknown centrifugal scheme {self.kind!r}, expected one of {SCHEME_KINDS}"
            )
        if not math.isfinite(self.shift_c0):
            raise DomainError(f"shift_c0 must be finite, got {self.shift_c0}")


EXACT = CentrifugalScheme("exact")
GREENE_ALDRICH = CentrifugalScheme("greene_aldrich")
SHIFTED = CentrifugalScheme("shifted")


def _as_positive_r(r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("r must be positive and finite")
    return arr


def _maybe_scalar(arr, value):
    return float(value) if np.ndim(arr) == 0 else value


def mr_value(p: PotentialParams, u: UnitSystem, r):
    """Potential value at separation r (> 0)."""
    arr = _as_positive_r(r)
    x = arr / p.b
    z = np.exp(-x)
    om = -np.expm1(-x)  # 1 - e^{-r/b}, stable for small r
    core = p.alpha * (p.alpha - 1.0) * z * z / (om * om) - p.A * z / om
    return _maybe_scalar(arr, energy_scale(u, p.b) * core)


def mr_value_cd(cd: CDForm, b: float, u: UnitSystem, r):
    """Potential in CD form, -(hbar^2/2 mu b^2)(C z + D z^2)/(1-z)^2."""
    if not (b > 0):
        raise DomainError(f"screening length must be positive, got {b}")
    arr = _as_positive_r(r)
    x = arr / b
    z = np.exp(-x)
    om = -np.expm1(-x)
    core = -(cd.C * z + cd.D * z * z) / (om * om)
    return _maybe_scalar(arr, energy_scale(u, b) * core)


def minimum(p: PotentialParams, u: UnitSystem):
    """Interior minimum (r0, V(r0)), or None when the well is monotone.

    In the variable u = z/(1-z) the potential is the parabola
    s [alpha(alpha-1) u^2 - A u]; an interior minimum needs an upward
    parabola (alpha(alpha-1) > 0) and a stationary point at positive u,
    hence A > 0.
    """
    aa = p.alpha * (p.alpha - 1.0)
    if aa <= 0.0 or p.A <= 0.0:
        return None
    r0 = p.b * math.log1p(2.0 * aa / p.A)
    v0 = -energy_scale(u, p.b) * p.A * p.A / (4.0 * aa)
    return r0, v0


def force_constant(p: PotentialParams, u: UnitSystem) -> float:
    """Second derivative d^2 V / dr^2 at the interior minimum."""
    if minimum(p, u) is None:
        raise DomainError("potential has no interior minimum for these parameters")
    aa = p.alpha * (p.alpha - 1.0)
    pref = u.hbar * u.hbar / (2.0 * u.mu)
    bracket = p.A + 2.0 * aa
    return pref * p.A * p.A * bracket * bracket / (8.0 * p.b**4 * aa**3)


def centrifugal_term(s: CentrifugalScheme, b: float, r):
    """The 1/r^2-like factor (units 1/length^2) under the chosen scheme."""
    if not (0 < b < math.inf):
        raise DomainError(f"screening length must be positive and finite, got {b}")
    arr = _as_positive_r(r)
    if s.kind == "exact":
        return _maybe_scalar(arr, 1.0 / (arr * arr))
    x = arr / b
    z = np.exp(-x)
    om = -np.expm1(-x)
    ga = z / (om * om) / (b * b)
    if s.kind == "greene_aldrich":
        return _maybe_scalar(arr, ga)
    return _maybe_scalar(arr, ga + s.shift_c0 / (b * b))
