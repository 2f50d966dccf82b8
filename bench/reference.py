"""Closed-form reference values, written independently of mrspec.

Pure Python (no numpy), so input generation can use it without paying for
any import. The formulas are the Nikiforov-Uvarov ones the paper states:

    Lambda = (sqrt((1 - 2 alpha)^2 + 4 l(l+1)) - 1) / 2
    A_c(n, l) = (n + 1 + Lambda)^2 - Lambda (Lambda + 1) + l(l+1)
    epsilon = (A - A_c) / (2 (n + 1 + Lambda))
    E = -(hbar^2 / (2 mu b^2)) epsilon^2
"""

from __future__ import annotations

import math

STATE_LETTERS = "spdfghiklmnoqrtuvwxyz"


def lam(alpha: float, l: int) -> float:
    return (math.sqrt((1.0 - 2.0 * alpha) ** 2 + 4.0 * l * (l + 1)) - 1.0) / 2.0


def epsilon(A: float, alpha: float, n: int, l: int) -> float:
    """Binding parameter; positive exactly when the level (n, l) is bound."""
    la = lam(alpha, l)
    a_crit = (n + 1 + la) ** 2 - la * (la + 1.0) + l * (l + 1)
    return (A - a_crit) / (2.0 * (n + 1 + la))


def energy(A: float, alpha: float, b: float, hbar: float, mu: float, n: int, l: int) -> float:
    eps = epsilon(A, alpha, n, l)
    return -hbar * hbar / (2.0 * mu * b * b) * eps * eps


def bound_levels(A: float, alpha: float, l_max: int) -> list[tuple[int, int, float]]:
    """Every bound (n, l, epsilon) with l <= l_max."""
    out = []
    for l in range(l_max + 1):
        n = 0
        while (eps := epsilon(A, alpha, n, l)) > 0.0:
            out.append((n, l, eps))
            n += 1
    return out


def parse_label(label: str) -> tuple[int, int]:
    """'3d' -> (n, l) = (0, 2)."""
    l = STATE_LETTERS.index(label[-1])
    return int(label[:-1]) - l - 1, l
