"""Independent finite-difference eigensolver for the radial problem.

Its eigenvalues never use the closed-form spectrum; only the box size in
`default_problem` is taken from the closed-form epsilon. It discretizes
-(hbar^2/2 mu) R'' + U(r) R = E R with central second differences on a
uniform grid, Dirichlet ends, and finds the lowest eigenvalues of the
symmetric tridiagonal matrix by LAPACK bisection/Sturm counting. Each
reported eigenvalue is Richardson-extrapolated from an M-point and a
(2M+1)-point grid (exact step halving), which removes the leading h^2
error term.

With the greene_aldrich centrifugal scheme the discretized problem is the
same one the closed form solves exactly, so analytic-vs-numeric agreement
cross-validates both code paths; with the exact 1/r^2 term the solver
plays the role of an independent reference spectrum.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, NumericalInstabilityError
from .potential import CentrifugalScheme, PotentialParams, centrifugal_term, mr_value
from .spectrum import QuantumState, _raw_epsilon
from .units import UnitSystem

# Sturm bisection needs an absolute tolerance: the default (eps * Gershgorin
# interval) is ruined by the huge near-origin centrifugal values.
_BISECT_TOL = 1e-13

# Convergence flag: |E_fine - E_coarse|/3 estimates the fine-grid error and
# bounds the extrapolated value's error from above (in practice the
# extrapolated value is orders of magnitude better). Healthy default-grid
# runs stay below 1e-4 relative; pathological boxes sit near 1e-1.
CONV_REL = 5e-4
CONV_ABS = 1e-12


@dataclass(frozen=True)
class RadialProblem:
    """Grid and physics for one l-channel solve."""

    params: PotentialParams
    units: UnitSystem
    l: int
    scheme: CentrifugalScheme
    r_min: float
    r_max: float
    grid_points: int = 20000

    def __post_init__(self):
        if self.l < 0:
            raise DomainError(f"l must be non-negative, got {self.l}")
        if not (0 < self.r_min < self.r_max):
            raise DomainError(
                f"need 0 < r_min < r_max, got r_min={self.r_min}, r_max={self.r_max}"
            )
        if self.grid_points < 1000:
            raise DomainError(f"grid_points must be >= 1000, got {self.grid_points}")


def default_problem(
    params: PotentialParams,
    units: UnitSystem,
    l: int,
    scheme: CentrifugalScheme,
    grid_points: int = 20000,
    n_max: int | None = None,
) -> RadialProblem:
    """Problem with the standard grid: r in [1e-6 b, max(60 b / eps, 40 b)].

    The tail length scales with the decay constant of the shallowest level
    the caller wants (analytic epsilon at n = n_max); by default it covers
    every bound level at this l, which near a threshold can demand an
    enormous box, so callers that only need the lowest few levels should
    pass n_max. Without any bound level a unit decay constant is assumed.
    """
    eps_est = None
    n = 0
    while n_max is None or n <= n_max:
        eps = _raw_epsilon(params, QuantumState(n=n, l=l))
        if eps <= 0.0:
            break
        eps_est = eps
        n += 1
    if eps_est is None:
        eps_est = 1.0
    b = params.b
    return RadialProblem(
        params=params,
        units=units,
        l=l,
        scheme=scheme,
        r_min=1e-6 * b,
        r_max=max(60.0 * b / eps_est, 40.0 * b),
        grid_points=grid_points,
    )


def _interior_nodes(rp: RadialProblem, m: int) -> tuple[np.ndarray, float]:
    import numpy as np

    h = (rp.r_max - rp.r_min) / (m + 1)
    return rp.r_min + h * np.arange(1, m + 1), h


def build_effective_potential(rp: RadialProblem, r: np.ndarray | None = None) -> np.ndarray:
    """U(r) = V(r) + (hbar^2/2 mu) l(l+1) * centrifugal(r) on the grid nodes."""
    import numpy as np

    if r is None:
        r, _ = _interior_nodes(rp, rp.grid_points)
    u = rp.units
    U = np.asarray(mr_value(rp.params, u, r), dtype=float)
    if rp.l > 0:
        pref = u.kinetic * rp.l * (rp.l + 1)
        # both terms are finite; only their sum can still overflow
        with np.errstate(over="ignore"):
            U = U + pref * centrifugal_term(rp.scheme, rp.params.b, r)
    if not np.all(np.isfinite(U)):
        raise DomainError("effective potential is not finite on the grid")
    return U


@dataclass(frozen=True)
class NumericalSpectrum:
    """Bound eigenvalues (E < 0) from one solve, sorted ascending."""

    eigenvalues: tuple[float, ...]
    converged: tuple[bool, ...]
    requested: int

    @property
    def shortfall(self) -> int:
        """How many of the requested levels came out unbound (E >= 0)."""
        return self.requested - len(self.eigenvalues)


def _tridiagonal(rp: RadialProblem, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the m-point finite-difference Hamiltonian."""
    import numpy as np

    r, h = _interior_nodes(rp, m)
    U = build_effective_potential(rp, r)
    kin = rp.units.kinetic / (h * h) if h * h > 0 else math.inf
    if not (0 < kin < math.inf):
        raise NumericalInstabilityError(f"kinetic coupling hbar^2/(2 mu h^2) is {kin} at h={h:.6g}")
    return 2.0 * kin + U, np.full(m - 1, -kin)


def _lowest_eigenvalues(rp: RadialProblem, m: int, k: int) -> np.ndarray:
    # scipy.linalg costs more than the rest of the package to import, so only
    # an actual solve pays for it; the closed-form paths never load it.
    from scipy.linalg import eigvalsh_tridiagonal

    diag, off = _tridiagonal(rp, m)
    return eigvalsh_tridiagonal(
        diag, off, select="i", select_range=(0, k - 1), tol=_BISECT_TOL, lapack_driver="stebz"
    )


def solve(rp: RadialProblem, k: int) -> NumericalSpectrum:
    """The k lowest levels, Richardson-extrapolated, restricted to E < 0."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > rp.grid_points:
        raise DomainError(f"cannot extract {k} levels from {rp.grid_points} grid points")
    coarse = _lowest_eigenvalues(rp, rp.grid_points, k)
    fine = _lowest_eigenvalues(rp, 2 * rp.grid_points + 1, k)
    extrapolated = (4.0 * fine - coarse) / 3.0
    err_est = abs(fine - coarse) / 3.0
    eigenvalues = []
    converged = []
    for ev, err in zip(extrapolated, err_est):
        if ev >= 0.0:
            continue
        eigenvalues.append(float(ev))
        converged.append(bool(err <= max(CONV_REL * abs(ev), CONV_ABS)))
    return NumericalSpectrum(
        eigenvalues=tuple(eigenvalues),
        converged=tuple(converged),
        requested=k,
    )


def eigenfunction_nodes(rp: RadialProblem, k: int) -> list[int]:
    """Interior sign-change counts of the k lowest eigenfunctions."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    diag, off = _tridiagonal(rp, rp.grid_points)
    # stebz bisection for values + stein inverse iteration for vectors
    _, vecs = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, k - 1), tol=_BISECT_TOL, lapack_driver="stebz"
    )
    counts = []
    for i in range(vecs.shape[1]):
        v = vecs[:, i]
        # ignore the numerically dead tail so roundoff there cannot register
        live = np.abs(v) > 1e-9 * np.max(np.abs(v))
        w = v[live]
        counts.append(int(np.sum(w[1:] * w[:-1] < 0.0)))
    return counts


class Level(NamedTuple):
    """One oracle eigenvalue and whether its grid-doubling estimate passed."""

    energy: float
    converged: bool


def levels(
    params: PotentialParams, units: UnitSystem, states: Sequence[QuantumState],
    scheme: CentrifugalScheme, grid_points: int = 20000,
) -> dict[QuantumState, Level]:
    """Oracle levels of the given states, from one solve per l-channel.

    Each channel is solved for every n up to the deepest one requested, in
    the `default_problem` box for that n. A state whose eigenvalue came out
    unbound (E >= 0) is missing from the result.
    """
    n_max: dict[int, int] = {}
    for s in states:
        n_max[s.l] = max(n_max.get(s.l, -1), s.n)
    found: dict[QuantumState, Level] = {}
    for l in sorted(n_max):
        rp = default_problem(params, units, l, scheme, grid_points=grid_points, n_max=n_max[l])
        result = solve(rp, n_max[l] + 1)
        for n, level in enumerate(zip(result.eigenvalues, result.converged)):
            found[QuantumState(n=n, l=l)] = Level(*level)
    return {s: found[s] for s in states if s in found}
