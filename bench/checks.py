"""Independent checks of mrspec outputs (numpy and scipy.special, never mrspec).

The wavefunction checks rebuild R(r) from its closed form with
``scipy.special.eval_jacobi`` and integrate R^2 exactly by Gauss-Jacobi
quadrature: in t = 1 - 2 exp(-r/b),

    int R^2 dr = N^2 b 2^-(2e+2L+2) int_{-1}^{1} (1-t)^(2e-1) (1+t)^(2L+1) [(1+t) P_n(t)^2] dt,

and the bracket is a polynomial of degree 2n+1, so n+1 nodes of the weight
(1-t)^(2e-1) (1+t)^(2L+1) integrate it exactly. The nodes come from the
Golub-Welsch eigenproblem with the weights normalised to sum 1; the weight
integral 2^(2e+2L+1) B(2e, 2L+2) is applied in log space, because it
overflows a float for the deep levels of weak screening.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_jacobi

import reference

NORM_TOL = 1e-8        # |int R^2 dr - 1| (acceptance criterion 5)
GA_TOL = 1e-6          # |E_oracle - E_closed_form| under greene_aldrich (criterion 3)
ENERGY_REL_TOL = 1e-10  # closed-form values against the reference formula
VALUE_REL_TOL = 1e-8   # sampled R(r) against the reference R, relative to max |R|


def gauss_jacobi(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (summing to 1) of the weight (1-t)^a (1+t)^b on [-1, 1]."""
    k = np.arange(m, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(m)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    kk, ss = k[1:], s[1:]
    off = np.sqrt(4.0 * kk * (kk + a) * (kk + b) * (kk + a + b) / (ss * ss * (ss + 1.0) * (ss - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, vecs[0] ** 2


def norm_integral(n: int, eps: float, lam: float, b: float, norm: float) -> float:
    """int_0^inf R(r)^2 dr for R with these closed-form parameters."""
    e2, l2 = 2.0 * eps, 2.0 * lam
    t, w = gauss_jacobi(n + 1, e2 - 1.0, l2 + 1.0)
    p = eval_jacobi(n, e2, l2 + 1.0, t)
    poly = float(np.sum(w * (1.0 + t) * p * p))
    log_beta = math.lgamma(e2) + math.lgamma(l2 + 2.0) - math.lgamma(e2 + l2 + 2.0)
    return math.exp(2.0 * math.log(norm) + math.log(b) + log_beta + math.log(0.5 * poly))


def radial_reference(n: int, eps: float, lam: float, b: float, norm: float, r: np.ndarray) -> np.ndarray:
    """N exp(-eps r/b) (1 - exp(-r/b))^(1+L) P_n^(2 eps, 2L+1)(1 - 2 exp(-r/b))."""
    x = np.asarray(r, dtype=float) / b
    z = np.exp(-x)
    return norm * np.exp(-eps * x) * (-np.expm1(-x)) ** (1.0 + lam) * eval_jacobi(n, 2.0 * eps, 2.0 * lam + 1.0, 1.0 - 2.0 * z)


def rel_close(x: float, ref: float, tol: float) -> bool:
    return abs(x - ref) <= tol * max(abs(ref), 1e-300)


def wavefunction_verdict(n: int, l: int, A: float, alpha: float, b: float,
                         eps: float, lam: float, norm: float,
                         r: np.ndarray | None = None, values: np.ndarray | None = None) -> tuple[bool, bool]:
    """(normalized, consistent) for one wavefunction the program built.

    consistent: epsilon and Lambda equal the reference formulas and the
    sampled values, if given, equal the reference R with the program's N.
    normalized: int R^2 dr is 1 within NORM_TOL.
    """
    consistent = (rel_close(eps, reference.epsilon(A, alpha, n, l), ENERGY_REL_TOL)
                  and abs(lam - reference.lam(alpha, l)) <= ENERGY_REL_TOL * max(1.0, abs(lam)))
    if consistent and values is not None:
        want = radial_reference(n, eps, lam, b, norm, r)
        scale = float(np.max(np.abs(want))) or 1.0
        consistent = bool(np.all(np.abs(np.asarray(values) - want) <= VALUE_REL_TOL * scale))
    normalized = abs(norm_integral(n, eps, lam, b, norm) - 1.0) <= NORM_TOL
    return normalized, consistent


def oracle_levels_verdict(A: float, alpha: float, b: float, hbar: float, mu: float, l: int,
                          scheme: str, k: int, eigenvalues, converged) -> tuple[int, bool, bool]:
    """(useful levels, all requested levels useful, result well-formed) for one solve.

    A level is useful when it came back, is flagged converged and, under
    greene_aldrich, lies within GA_TOL of the closed form (same units).
    """
    eigenvalues, converged = list(eigenvalues), list(converged)
    well_formed = (len(eigenvalues) <= k and len(converged) == len(eigenvalues)
                   and eigenvalues == sorted(eigenvalues))
    useful = 0
    for n, (ev, conv) in enumerate(zip(eigenvalues, converged)):
        if not conv:
            continue
        if scheme == "greene_aldrich":
            ref_eps = reference.epsilon(A, alpha, n, l)
            if ref_eps <= 0.0 or abs(ev - reference.energy(A, alpha, b, hbar, mu, n, l)) > GA_TOL:
                continue
        useful += 1
    return useful, useful == k, well_formed
