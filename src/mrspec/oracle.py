"""Independent finite-difference eigensolver for the radial problem.

Its eigenvalues never use the closed-form spectrum. The closed-form epsilon
sets only the box in `default_problem` and the ceiling of the bisection
window; the window's floor lies below every eigenvalue of the matrix, and
the Sturm count inside the window must reach the number of levels wanted,
else the plain index search runs, so the closed form changes only the time
a solve takes, never its values. It discretizes
-(hbar^2/2 mu) R'' + U(r) R = E R with central second differences on a
uniform grid, Dirichlet ends, and finds the lowest eigenvalues of the
symmetric tridiagonal matrix by LAPACK bisection/Sturm counting. Each
reported eigenvalue is Richardson-extrapolated from an M-point and a
(2M+1)-point grid, which removes the leading h^2 error term. The step
halving is exact, so the M-point grid is every second node of the fine one
and U is built once per solve, on the 2M+1 fine nodes.

Units are a scale factor. The matrix is hbar^2/(2 mu) times one that does
not depend on the unit system, so every solve runs with hbar^2/(2 mu) = 1,
in energies of 1/length^2, and `solve` multiplies the result by the
problem's hbar^2/(2 mu). The unit-free solve is cached, so problems that
differ only in their units (the molecules of one table row) share it.

With the greene_aldrich centrifugal scheme the discretized problem is the
same one the closed form solves exactly, so analytic-vs-numeric agreement
cross-validates both code paths; with the exact 1/r^2 term the solver
plays the role of an independent reference spectrum.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import DomainError, NumericalInstabilityError
from .potential import CentrifugalScheme, PotentialParams, centrifugal_term, mr_value
from .spectrum import QuantumState, _level_energy, _raw_epsilon
from .units import UnitSystem

# hbar^2/(2 mu) = 1: every solve runs in these units, energies in 1/length^2
_UNIT_FREE = UnitSystem(hbar=1.0, mu=0.5)

# Sturm bisection needs an absolute tolerance: the default (eps * Gershgorin
# interval) is ruined by the huge near-origin centrifugal values. It is in the
# unit-free energy, 1/length^2: 1e-13 hartree in atomic units, 2e-13 kinetic
# in general (6e-13 eV for CO in eV-pm units).
_BISECT_TOL = 2e-13

# Convergence flag: |E_fine - E_coarse|/3 estimates the fine-grid error and
# bounds the extrapolated value's error from above (in practice the
# extrapolated value is orders of magnitude better). Healthy default-grid
# runs stay below 1e-4 relative; pathological boxes sit near 1e-1. There is no
# absolute floor: a level too shallow for its box must not pass as converged.
CONV_REL = 5e-4


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


def build_effective_potential(rp: RadialProblem, r: np.ndarray) -> np.ndarray:
    """U(r) = V(r) + (hbar^2/2 mu) l(l+1) * centrifugal(r) at the radii r."""
    import numpy as np

    u = rp.units
    U = np.asarray(mr_value(rp.params, u, r), dtype=float)
    if rp.l > 0:
        pref = u.kinetic * rp.l * (rp.l + 1)
        # both terms are finite; only their sum can still overflow
        with np.errstate(over="ignore"):
            U = U + pref * centrifugal_term(rp.scheme, rp.params.b, r)
    if not np.all(np.isfinite(U)):
        raise NumericalInstabilityError("effective potential is not finite on the grid")
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


def _couplings(rp: RadialProblem, m: int, refine: bool) -> tuple[float, list[tuple[int, float]]]:
    """Step h of the finest grid, and the stride (in steps h) and kinetic
    coupling hbar^2/(2 mu stride^2 h^2) of the m-point grid and, with refine,
    of the (2m+1)-point one, coarse first."""
    strides = (2, 1) if refine else (1,)
    h = (rp.r_max - rp.r_min) / (m + 1) / strides[0]
    grids = []
    for stride in strides:
        step = stride * h
        kin = rp.units.kinetic / (step * step) if step * step > 0 else math.inf
        if not (0 < kin < math.inf):
            raise NumericalInstabilityError(f"kinetic coupling hbar^2/(2 mu h^2) is {kin} "
                                            f"at h={step:.6g}")
        grids.append((stride, kin))
    return h, grids


def _grid(rp: RadialProblem, m: int, refine: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """Diagonal and off-diagonal of the m-point finite-difference Hamiltonian
    and, with refine, of the (2m+1)-point one on half its step, coarse first.

    Halving the step is exact, so each m-point node is the same float as every
    second fine node: U is evaluated once, on the finest nodes.
    """
    import numpy as np

    h, grids = _couplings(rp, m, refine)
    U = build_effective_potential(rp, rp.r_min + h * np.arange(1, grids[0][0] * (m + 1)))
    matrices = []
    for stride, kin in grids:
        with np.errstate(over="ignore"):
            diag = 2.0 * kin + U[stride - 1 :: stride]
        if not np.all(np.isfinite(diag)):
            raise NumericalInstabilityError(
                f"the finite-difference Hamiltonian is not finite at h={stride * h:.6g}")
        matrices.append((diag, np.full(len(diag) - 1, -kin)))
    return matrices


def _ceiling(rp: RadialProblem, k: int) -> float | None:
    """Top of the bisection window for the k lowest eigenvalues, or None.

    It lies between the closed form's levels k-1 and k of the solved scheme,
    so it only sets how much bisection is done; whether a window holds k
    values is checked where it is used. Nothing here raises.
    """
    b, l = rp.params.b, rp.l

    def closed_form_level(n: int) -> float:
        eps = _raw_epsilon(rp.params, QuantumState(n=n, l=l))
        return _level_energy(rp.units, b, eps) if eps > 0.0 else 0.0

    try:
        top, above = closed_form_level(k - 1), closed_form_level(k)
    except NumericalInstabilityError:
        return None  # the closed-form levels leave the float range
    if not top < 0.0:
        return None  # level k-1 is unbound in the closed form
    hi = 0.5 * (top + above)
    # how far the exact 1/r^2 term lies above the Greene-Aldrich one, in units
    # of l(l+1)/b^2: 1/x^2 - 1/(4 sinh^2(x/2)) <= 1/12 for x = r/b
    q = {"exact": 1.0 / 12.0, "shifted": rp.scheme.shift_c0}.get(rp.scheme.kind, 0.0)
    if l > 0 and q != 0.0:
        hi += rp.units.kinetic * l * (l + 1) * q / b / b
    return min(0.0, hi) if math.isfinite(hi) else None


def _stebz(eigensolver, diag: np.ndarray, off: np.ndarray, **select):
    """eigensolver(diag, off, **select) by LAPACK bisection at `_BISECT_TOL`;
    a LAPACK failure (entries near the float limit) is a compute error."""
    from scipy.linalg import LinAlgError

    try:
        return eigensolver(diag, off, tol=_BISECT_TOL, lapack_driver="stebz", **select)
    except LinAlgError as exc:
        raise NumericalInstabilityError(f"the grid eigensolver failed: {exc}") from None


def _lowest_eigenvalues(diag: np.ndarray, off: np.ndarray, k: int, ceiling: float | None):
    # scipy.linalg costs more than the rest of the package to import, so only
    # an actual solve pays for it; the closed-form paths never load it.
    from scipy.linalg import eigvalsh_tridiagonal

    # the Gershgorin floor, a few ulps low for its rounding: no eigenvalue lies below it
    kin, floor = -float(off[0]), float(diag.min())
    lo = floor - 2.0 * kin - 4.0 * math.ulp(max(abs(floor), 2.0 * kin))
    if ceiling is not None and math.isfinite(lo) and lo < ceiling:
        # a value window spares stebz the search for the k-th index over the
        # whole Gershgorin interval; as nothing lies below the window, its
        # first k eigenvalues are the k lowest
        found = _stebz(eigvalsh_tridiagonal, diag, off, select="v", select_range=(lo, ceiling))
        if len(found) >= k:
            return found[:k]
    return _stebz(eigvalsh_tridiagonal, diag, off, select="i", select_range=(0, k - 1))


def _unit_free(rp: RadialProblem) -> RadialProblem:
    """The same problem with hbar^2/(2 mu) = 1, the form every solve runs in."""
    return replace(rp, units=_UNIT_FREE)


@functools.lru_cache(maxsize=256)
def _solve_unit_free(rp: RadialProblem, k: int) -> NumericalSpectrum:
    """`solve` for a problem with hbar^2/(2 mu) = 1; energies in 1/length^2."""
    ceiling = _ceiling(rp, k)
    coarse, fine = (_lowest_eigenvalues(diag, off, k, ceiling)
                    for diag, off in _grid(rp, rp.grid_points, refine=True))
    extrapolated = (4.0 * fine - coarse) / 3.0
    err_est = abs(fine - coarse) / 3.0
    eigenvalues = []
    converged = []
    for ev, err in zip(extrapolated, err_est):
        if ev >= 0.0:
            continue
        eigenvalues.append(float(ev))
        converged.append(bool(err <= CONV_REL * abs(ev)))
    return NumericalSpectrum(
        eigenvalues=tuple(eigenvalues),
        converged=tuple(converged),
        requested=k,
    )


def solve(rp: RadialProblem, k: int) -> NumericalSpectrum:
    """The k lowest levels, Richardson-extrapolated, restricted to E < 0.

    The unit-free solve is cached, so a problem that differs from an earlier
    one only in its units costs one multiplication per level.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > rp.grid_points:
        raise DomainError(f"cannot extract {k} levels from {rp.grid_points} grid points")
    _couplings(rp, rp.grid_points, refine=True)  # its own hbar^2/(2 mu h^2), ahead of the cache
    result = _solve_unit_free(_unit_free(rp), k)
    kinetic = rp.units.kinetic
    eigenvalues = tuple(kinetic * ev for ev in result.eigenvalues)
    if not all(-math.inf < ev < 0.0 for ev in eigenvalues):
        raise NumericalInstabilityError(
            f"a level times hbar^2/(2 mu) = {kinetic:.6g} leaves the float range")
    return replace(result, eigenvalues=eigenvalues)


def eigenfunction_nodes(rp: RadialProblem, k: int) -> list[int]:
    """Interior sign-change counts of the k lowest eigenfunctions."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    # node counts do not depend on the energy scale: the unit-free matrix serves
    [(diag, off)] = _grid(_unit_free(rp), rp.grid_points, refine=False)
    # stebz bisection for values + stein inverse iteration for vectors
    _, vecs = _stebz(eigh_tridiagonal, diag, off, select="i", select_range=(0, k - 1))
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
