"""Manning-Rosen potential, its analytic geometry, and centrifugal schemes.

The potential is

    V(r) = (hbar^2 / 2 mu b^2) [ alpha(alpha-1) e^{-2r/b} / (1 - e^{-r/b})^2
                                 - A e^{-r/b} / (1 - e^{-r/b}) ]

and depends on alpha only through alpha(alpha-1), so it is invariant under
alpha -> 1 - alpha. No evaluator forms hbar^2/(2 mu b^2), which leaves the
float range long before V does: 1/b goes into w = z/(b(1 - z)) and A/b,
z = e^{-r/b}. All evaluators accept scalar or array r, and raise
NumericalInstabilityError rather than return a value that is not finite.
numpy is imported where arrays are built, so `import mrspec` does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericalInstabilityError
from .units import UnitSystem

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
    import numpy as np

    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("r must be positive and finite")
    return arr


def _finite(arr, value, what: str):
    """value as a float for scalar r, else as an array; it must be finite everywhere."""
    import numpy as np

    if not np.all(np.isfinite(value)):
        raise NumericalInstabilityError(f"{what} is not finite at some r for these parameters")
    return float(value) if arr.ndim == 0 else value


def _exp_terms(arr, b: float):
    """z = e^{-r/b} and b(1 - z), the latter stable for small r."""
    import numpy as np

    x = arr / b
    return np.exp(-x), -b * np.expm1(-x)


def mr_value(p: PotentialParams, u: UnitSystem, r):
    """Potential value at separation r (> 0)."""
    import numpy as np

    arr = _as_positive_r(r)
    # overflow near the origin or for extreme parameters is caught by _finite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z, bom = _exp_terms(arr, p.b)
        w = z / bom
        value = u.kinetic * w * (p.alpha * (p.alpha - 1.0) * w - p.A / p.b)
    return _finite(arr, value, "the Manning-Rosen potential")


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
    x = p.A / p.b
    v0 = -u.kinetic * x * x / (4.0 * aa)
    if not math.isfinite(v0):
        raise NumericalInstabilityError("the well depth is not finite for these parameters")
    return r0, v0


def force_constant(p: PotentialParams, u: UnitSystem) -> float:
    """Second derivative d^2 V / dr^2 at the interior minimum."""
    if minimum(p, u) is None:
        raise DomainError("potential has no interior minimum for these parameters")
    aa = p.alpha * (p.alpha - 1.0)
    # kinetic (A/b)^2 ((A/aa + 2)/b)^2 / (8 aa): no power of b or aa is formed
    x = p.A / p.b
    y = (p.A / aa + 2.0) / p.b
    k = u.kinetic * x * x * y * y / (8.0 * aa)
    if not math.isfinite(k):
        raise NumericalInstabilityError("the force constant is not finite for these parameters")
    return k


def centrifugal_term(s: CentrifugalScheme, b: float, r):
    """The 1/r^2-like factor (units 1/length^2) under the chosen scheme."""
    import numpy as np

    if not (0 < b < math.inf):
        raise DomainError(f"screening length must be positive and finite, got {b}")
    arr = _as_positive_r(r)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if s.kind == "exact":
            value = 1.0 / (arr * arr)
        else:
            z, bom = _exp_terms(arr, b)
            value = z / (bom * bom)
            if s.kind == "shifted":
                # b * b underflows to 0 for b below 1e-162; numpy gives inf
                value = value + np.divide(s.shift_c0, b * b)
    return _finite(arr, value, f"the {s.kind} centrifugal term")
