"""Closed-form Nikiforov-Uvarov energy spectrum and its special cases.

For orbital quantum number l the centrifugal approximation folds into the
effective parameters

    a = sqrt((1 - 2 alpha)^2 + 4 l(l+1)),   Lambda = (a - 1)/2,

and the bound-state energies are E = -(hbar^2 / 2 mu b^2) epsilon^2 with

    epsilon = [A - (n+1)^2 - l(l+1) - (2n+1) Lambda] / [2 (n+1+Lambda)].

epsilon > 0 is the binding condition; it is equivalent to A exceeding the
critical coupling A_c(n, l, alpha). Setting alpha to 0 or 1 collapses
Lambda to l and reproduces the Hulthen spectrum, whose zero-screening limit
is the Coulomb one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, NoBoundStateError, NumericalInstabilityError
from .potential import PotentialParams
from .units import UnitSystem, atomic_units

# j is skipped by spectroscopic convention; s and p are not reused
SPECTROSCOPIC_LETTERS = "spdfghiklmnoqrtuvwxyz"


@dataclass(frozen=True)
class QuantumState:
    """Radial quantum number n >= 0 and orbital quantum number l >= 0."""

    n: int
    l: int

    def __post_init__(self):
        if self.n < 0 or self.l < 0:
            raise DomainError(f"quantum numbers must be non-negative, got n={self.n} l={self.l}")
        if max(self.n, self.l) > sys.float_info.max:
            raise DomainError("quantum numbers must not exceed the float range")

    @property
    def principal(self) -> int:
        return self.n + self.l + 1

    @property
    def label(self) -> str:
        if self.l >= len(SPECTROSCOPIC_LETTERS):
            raise DomainError(f"no spectroscopic letter for l={self.l}")
        return f"{self.principal}{SPECTROSCOPIC_LETTERS[self.l]}"

    @classmethod
    def from_label(cls, text: str) -> "QuantumState":
        """Parse labels like '2p' or '4f' (N letter, n = N - l - 1)."""
        text = text.strip()
        digits, letter = text[:-1], text[-1:]
        try:
            # ASCII digits only: int() would also take signs, underscores and
            # spaces; it raises ValueError itself beyond its digit limit
            if not (digits.isascii() and digits.isdigit() and letter in SPECTROSCOPIC_LETTERS):
                raise ValueError(text)
            principal = int(digits)
        except ValueError:
            raise DomainError(f"malformed spectroscopic label {text!r}") from None
        l = SPECTROSCOPIC_LETTERS.index(letter)
        n = principal - l - 1
        if n < 0:
            raise DomainError(f"label {text!r} implies negative radial quantum number")
        return cls(n=n, l=l)


def _lambda_of(alpha: float, l: int) -> float:
    one_minus_two_alpha = 1.0 - 2.0 * alpha
    a = math.sqrt(one_minus_two_alpha * one_minus_two_alpha + 4.0 * l * (l + 1))
    return (a - 1.0) / 2.0


def nu_parameters(p: PotentialParams, s: QuantumState) -> tuple[float, float]:
    """(a, Lambda) for the state's l; Lambda = l exactly when alpha is 0 or 1."""
    lam = _lambda_of(p.alpha, s.l)
    return 2.0 * lam + 1.0, lam


def _raw_epsilon(p: PotentialParams, s: QuantumState) -> float:
    # the numerator is written as A - A_c with the same arithmetic as
    # critical_coupling, so is_bound <=> A > A_c holds to the last ulp
    return (p.A - critical_coupling(s, p.alpha)) / (2.0 * (s.n + 1 + _lambda_of(p.alpha, s.l)))


def epsilon_of(p: PotentialParams, s: QuantumState) -> float:
    """Dimensionless epsilon = sqrt(-2 mu b^2 E)/hbar; defined for bound states."""
    eps = _raw_epsilon(p, s)
    if eps <= 0.0:
        raise NoBoundStateError(
            f"state {s.label} is not bound for A={p.A}, alpha={p.alpha} "
            f"(needs A > {critical_coupling(s, p.alpha):.6g})"
        )
    return eps


def _level_energy(u: UnitSystem, b: float, eps: float) -> float:
    x = eps / b
    e = -u.kinetic * x * x
    if not math.isfinite(e):
        raise NumericalInstabilityError(
            f"energy -(hbar^2/2 mu b^2) epsilon^2 is not finite for epsilon={eps:.6g}, b={b:.6g}"
        )
    return e


def energy(p: PotentialParams, u: UnitSystem, s: QuantumState) -> float:
    """Closed-form level energy -(hbar^2/2 mu b^2) epsilon^2 (<= 0 always)."""
    return _level_energy(u, p.b, _raw_epsilon(p, s))


def critical_coupling(s: QuantumState, alpha: float) -> float:
    """Strength A_c at which the level reaches zero binding energy."""
    # the paper's form: (n+1+Lambda)^2 - Lambda(Lambda+1) cancels at large
    # alpha. In floats, as a huge n's integer (n+1)^2 cannot become a float.
    lam = _lambda_of(alpha, s.l)
    m = s.n + 1.0
    return m * m + (2.0 * m - 1.0) * lam + s.l * (s.l + 1)


def is_bound(p: PotentialParams, s: QuantumState) -> bool:
    """True iff A strictly exceeds the critical coupling (epsilon > 0)."""
    return _raw_epsilon(p, s) > 0.0


def enumerate_bound_states(
    p: PotentialParams, l_max: int, u: UnitSystem | None = None
) -> list[tuple[QuantumState, float]]:
    """All bound (state, energy) with l <= l_max, energies ascending.

    Termination is guaranteed because the critical coupling grows with n.
    """
    if l_max < 0:
        raise DomainError(f"l_max must be non-negative, got {l_max}")
    if u is None:
        u = atomic_units()
    found = []
    for l in range(l_max + 1):
        n = 0
        while True:
            s = QuantumState(n=n, l=l)
            if not is_bound(p, s):
                break
            found.append((s, energy(p, u, s)))
            n += 1
    found.sort(key=lambda item: (item[1], item[0].l, item[0].n))
    return found


def hulthen_energy(A: float, b: float, u: UnitSystem, s: QuantumState) -> float:
    """Hulthen level energy -[A - N^2]^2 hbar^2 / (8 mu b^2 N^2), N = n+l+1."""
    N = s.principal
    if A <= N * N:
        raise NoBoundStateError(f"Hulthen state {s.label} needs A > {N * N}, got A={A}")
    eps = (A - N * N) / (2.0 * N)
    return _level_energy(u, b, eps)


def coulomb_energy(Z: float, u: UnitSystem, s: QuantumState) -> float:
    """Coulomb level -epsilon_0 / N^2 with epsilon_0 = Z^2 mu e^4 / (2 hbar^2)."""
    if not (Z > 0):
        raise DomainError(f"Z must be positive, got {Z}")
    N = s.principal
    eps0 = Z * Z * u.e2 * u.e2 / (4.0 * u.kinetic)
    return -eps0 / (N * N)
