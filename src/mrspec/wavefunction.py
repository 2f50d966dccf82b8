"""Radial wavefunctions: Jacobi polynomials, closed-form normalization.

A bound level (n, l) has

    R(r) = N z^epsilon (1 - z)^(1 + Lambda) P_n^(2 epsilon, 2 Lambda + 1)(1 - 2z),
    z = e^{-r/b},

with N fixed by integral(R^2 dr) = 1. The paper writes 1/N^2 = s(n) as b
times an alternating double sum over the Beta integrals

    I(p, r) = integral_0^1 z^(n + 2 eps + r - p - 1) (1 - z)^(p + 2 Lam + 2) dz
            = B(n + 2 eps + r - p, p + 2 Lam + 3),

which cancels catastrophically at weak screening. With x = 1 - 2z and
1 + x = 2 - (1 - x), the integral splits into the Jacobi orthogonality norm
and the standard moment of the weight (1 - x)^(2 eps - 1) (1 + x)^(2 Lam + 1);
together they give s(n) as a product of positive factors (see
`normalization_constant`). For tabulated parameters 2 epsilon reaches ~39,
so the Gamma ratios are evaluated in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoBoundStateError, NumericalInstabilityError
from .potential import PotentialParams
from .spectrum import QuantumState, epsilon_of, nu_parameters
from .units import UnitSystem


def jacobi(n: int, rho: float, nu: float, xi):
    """Jacobi polynomial P_n^(rho, nu)(xi) by the three-term recurrence.

    The recurrence is numerically stable for the index ranges arising here
    (rho = 2 epsilon > 0, nu = 2 Lambda + 1 >= 1); the explicit finite sums
    cancel catastrophically already at moderate n and are used only as test
    oracles.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"degree must be a non-negative integer, got {n}")
    if rho <= -1 or nu <= -1:
        raise DomainError(f"indices must exceed -1, got rho={rho}, nu={nu}")
    x = np.asarray(xi, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return float(prev) if np.ndim(xi) == 0 else prev
    cur = (rho + 1.0) + (rho + nu + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + rho + nu) * (2.0 * k + rho + nu - 2.0)
        c2 = (2.0 * k + rho + nu - 1.0) * (rho * rho - nu * nu)
        c3 = (2.0 * k + rho + nu - 1.0) * (2.0 * k + rho + nu) * (2.0 * k + rho + nu - 2.0)
        c4 = 2.0 * (k + rho - 1.0) * (k + nu - 1.0) * (2.0 * k + rho + nu)
        prev, cur = cur, ((c2 + c3 * x) * cur - c4 * prev) / c1
    return float(cur) if np.ndim(xi) == 0 else cur


def hyp_integral(n: int, epsilon: float, Lambda: float, p: int, r: int) -> float:
    """The paper's kernel integral I(p, r) = B(n + 2 eps + r - p, p + 2 Lam + 3).

    Both Beta arguments must be positive for the integral to converge.
    """
    x = n + 2.0 * epsilon + r - p
    y = p + 2.0 * Lambda + 3.0
    if not (x > 0):
        raise DomainError(f"hyp_integral needs n + 2*epsilon + r - p > 0, got {x}")
    if not (y > 0):
        raise DomainError(f"hyp_integral needs p + 2*Lambda + 3 > 0, got {y}")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


# Above this argument the Gamma ratio in normalization_constant is taken from
# the Stirling series, whose truncation error here is below 1e-17
_STIRLING_MIN = 100.0


def _stirling_tail(y: float) -> float:
    # lgamma(y) - [(y - 1/2) log y - y + log(2 pi)/2] up to O(y^-7)
    inv = 1.0 / y
    inv2 = inv * inv
    return inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0))


def _log_gamma_ratio(x: float, a: float) -> float:
    """log Gamma(x + a) - log Gamma(x) for x > 0, x + a > 0.

    The difference of two lgamma values keeps only ulp(x log x) of absolute
    accuracy (a relative error of 5e-3 in N at epsilon = 1e12), so for large x
    the x log x terms of the two Stirling series are cancelled by hand.
    """
    if x < _STIRLING_MIN:
        return math.lgamma(x + a) - math.lgamma(x)
    y = x + a
    return ((x - 0.5) * math.log1p(a / x) + a * math.log(y) - a
            + _stirling_tail(y) - _stirling_tail(x))


def normalization_constant(
    state: QuantumState, epsilon: float, Lambda: float, b: float
) -> float:
    """N = 1/sqrt(s(n)) for the radial wavefunction, with

    s(n) = b Gam(n+2e+1) Gam(n+2L+2) (n+L+1)
           / [n! Gam(n+2e+2L+2) 2e (n+e+L+1)]

    evaluated in log space. This is the paper's double sum over I(p, r) in
    closed form: every factor is positive, so nothing cancels. An N outside
    the float range raises NumericalInstabilityError.
    """
    if not (0 < epsilon < math.inf):
        raise DomainError(f"normalization needs a finite epsilon > 0, got {epsilon}")
    if not (Lambda > -1):
        raise DomainError(f"normalization needs Lambda > -1, got {Lambda}")
    if not (b > 0):
        raise DomainError(f"screening length must be positive, got {b}")
    n = state.n
    e2 = 2.0 * epsilon
    log_s = (
        math.lgamma(n + 2.0 * Lambda + 2.0)
        - math.lgamma(n + 1.0)
        - _log_gamma_ratio(n + e2 + 1.0, 2.0 * Lambda + 1.0)
        + math.log(n + Lambda + 1.0)
        - math.log(e2)
        - math.log(n + epsilon + Lambda + 1.0)
    )
    log_norm = -0.5 * (math.log(b) + log_s)
    norm = math.exp(log_norm) if log_norm < 710.0 else math.inf
    if not (0 < norm < math.inf):
        raise NumericalInstabilityError(
            f"normalization for n={n}, epsilon={epsilon:.6g}, "
            f"Lambda={Lambda:.6g} is outside the float range (log N = {log_norm:.6g})"
        )
    return norm


@dataclass(frozen=True)
class RadialWavefunction:
    """A normalized bound-state radial wavefunction R(r)."""

    state: QuantumState
    epsilon: float
    Lambda: float
    b: float
    norm: float

    def __post_init__(self):
        # Lambda > -1/2 keeps the Jacobi parameter 2 Lambda + 1 above -1 and
        # the boundary exponent 1 + Lambda above 1/2; l = 0 with fractional
        # alpha legitimately lands in (-1/2, 0)
        if not (self.epsilon > 0 and self.Lambda > -0.5 and self.norm > 0 and self.b > 0):
            raise DomainError(
                "RadialWavefunction requires epsilon, norm, b > 0 and Lambda > -1/2"
            )

    def __call__(self, r):
        return radial_value(self, r)


def radial_value(w: RadialWavefunction, r):
    """R(r) for r >= 0; vanishes at both ends."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("r must be non-negative and finite")
    x = arr / w.b
    # z^epsilon as exp(-epsilon r / b) avoids pow underflow warnings far out
    z_pow = np.exp(-w.epsilon * x)
    z = np.exp(-x)
    om = -np.expm1(-x)
    poly = jacobi(w.state.n, 2.0 * w.epsilon, 2.0 * w.Lambda + 1.0, 1.0 - 2.0 * z)
    val = w.norm * z_pow * om ** (1.0 + w.Lambda) * poly
    return float(val) if np.ndim(r) == 0 else val


def build_radial_wavefunction(p: PotentialParams, s: QuantumState) -> RadialWavefunction:
    """Construct the normalized R for a bound state of the given potential."""
    _, lam = nu_parameters(p, s)
    eps = epsilon_of(p, s)  # raises NoBoundStateError when unbound
    norm = normalization_constant(s, eps, lam, p.b)
    return RadialWavefunction(state=s, epsilon=eps, Lambda=lam, b=p.b, norm=norm)


def hulthen_wavefunction(Z: float, delta: float, u: UnitSystem, state: QuantumState, r):
    """Radial wavefunction of the Hulthen potential -Z e^2 delta e^{-delta r}/(1-e^{-delta r}).

    This is the alpha in {0, 1} specialization: Lambda = l exactly and the
    strength maps to A = 2 mu Z e^2 / (hbar^2 delta).
    """
    if not (delta > 0):
        raise DomainError(f"screening parameter delta must be positive, got {delta}")
    A = 2.0 * u.mu * Z * u.e2 / (u.hbar * u.hbar * delta)
    N = state.principal
    if A <= N * N:
        raise NoBoundStateError(
            f"Hulthen state {state.label} is unbound: A={A:.6g} <= N^2={N * N}"
        )
    eps = (A - N * N) / (2.0 * N)
    b = 1.0 / delta
    norm = normalization_constant(state, eps, float(state.l), b)
    w = RadialWavefunction(state=state, epsilon=eps, Lambda=float(state.l), b=b, norm=norm)
    return radial_value(w, r)
