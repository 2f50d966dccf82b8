import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg

from mrspec import (
    EXACT,
    GREENE_ALDRICH,
    CentrifugalScheme,
    DomainError,
    Level,
    NumericalInstabilityError,
    NumericalSpectrum,
    PotentialParams,
    QuantumState,
    RadialProblem,
    UnitSystem,
    atomic_units,
    build_effective_potential,
    default_problem,
    energy,
    levels,
    molecular_units,
    mr_value,
    solve,
)
from mrspec import oracle
from mrspec.oracle import CONV_REL, _BISECT_TOL, _ceiling, _lowest_eigenvalues

U = atomic_units()
P075 = PotentialParams(A=80.0, alpha=0.75, b=40.0)


def test_problem_validation():
    with pytest.raises(DomainError):
        RadialProblem(params=P075, units=U, l=-1, scheme=EXACT, r_min=0.1, r_max=10.0)
    with pytest.raises(DomainError):
        RadialProblem(params=P075, units=U, l=0, scheme=EXACT, r_min=5.0, r_max=1.0)
    with pytest.raises(DomainError):
        RadialProblem(params=P075, units=U, l=0, scheme=EXACT, r_min=0.1, r_max=10.0,
                      grid_points=10)


def test_default_problem_geometry():
    rp = default_problem(P075, U, 1, GREENE_ALDRICH, n_max=0)
    assert rp.r_min == pytest.approx(1e-6 * 40.0)
    assert rp.r_max > 40.0 * 40.0 / 20.0  # at least the decay length of 2p
    assert rp.grid_points == 20000


def test_default_problem_box_respects_n_max():
    # a near-threshold halo level (n=3 here) must not blow up the box when
    # only the lowest levels are wanted
    p = PotentialParams(A=2.0 / 0.075, alpha=1.5, b=1.0 / 0.075)
    small = default_problem(p, U, 1, EXACT, n_max=2)
    full = default_problem(p, U, 1, EXACT, n_max=3)
    assert small.r_max < 1000.0
    assert full.r_max > 50000.0
    # levels above the last bound one leave the box as it is
    assert default_problem(p, U, 1, EXACT, n_max=9) == full


def test_default_problem_rejects_a_negative_n_max():
    with pytest.raises(DomainError):
        default_problem(P075, U, 1, GREENE_ALDRICH, n_max=-1)


def test_effective_potential_composition():
    rp = default_problem(P075, U, 2, GREENE_ALDRICH, n_max=0)
    r = np.linspace(1.0, 100.0, 50)
    u_eff = build_effective_potential(rp, r)
    bare = mr_value(P075, U, r)
    assert np.all(u_eff > bare)  # centrifugal part is positive
    rp0 = default_problem(P075, U, 0, GREENE_ALDRICH, n_max=0)
    np.testing.assert_array_equal(build_effective_potential(rp0, r), bare)


def test_greene_aldrich_scheme_reproduces_closed_form():
    # with the approximate centrifugal term the discretized operator has the
    # closed-form spectrum; one deep and one shallow level
    rp = default_problem(P075, U, 1, GREENE_ALDRICH, n_max=1)
    result = solve(rp, 2)
    assert len(result.eigenvalues) == 2
    assert result.shortfall == 0
    for n in range(2):
        analytic = energy(P075, U, QuantumState(n=n, l=1))
        assert result.eigenvalues[n] == pytest.approx(analytic, abs=5e-8)
        assert result.converged[n]


def test_eigenvalues_sorted_and_negative():
    rp = default_problem(P075, U, 1, GREENE_ALDRICH, n_max=3)
    result = solve(rp, 4)
    evs = list(result.eigenvalues)
    assert evs == sorted(evs)
    assert all(e < 0 for e in evs)


def test_shortfall_when_levels_run_out():
    # alpha=0.75, 1/b=0.1, l=2 binds exactly two levels; asking for five
    # returns two and reports the gap
    p = PotentialParams(A=20.0, alpha=0.75, b=10.0)
    rp = default_problem(p, U, 2, GREENE_ALDRICH, n_max=4)
    result = solve(rp, 5)
    assert len(result.eigenvalues) == 2
    assert result.requested == 5
    assert result.shortfall == 3


def test_no_bound_levels_at_all():
    p = PotentialParams(A=20.0, alpha=0.75, b=10.0)
    rp = default_problem(p, U, 4, GREENE_ALDRICH, n_max=2)  # l=4 needs A > 24.98
    result = solve(rp, 3)
    assert result.eigenvalues == ()
    assert result.shortfall == 3


def test_convergence_flag_trips_on_bad_box():
    # the halo-state box from test_default_problem_box_respects_n_max is
    # genuinely under-resolved at the default grid; the flag must say so
    p = PotentialParams(A=2.0 / 0.075, alpha=1.5, b=1.0 / 0.075)
    rp = default_problem(p, U, 1, GREENE_ALDRICH, n_max=3)
    result = solve(rp, 1)
    assert not result.converged[0]


def test_richardson_grid_doubling_invariance():
    # doubling the grid moves each extrapolated eigenvalue by far less than
    # the published precision
    rp1 = default_problem(P075, U, 1, GREENE_ALDRICH, n_max=0, grid_points=20000)
    rp2 = default_problem(P075, U, 1, GREENE_ALDRICH, n_max=0, grid_points=40001)
    e1 = solve(rp1, 1).eigenvalues[0]
    e2 = solve(rp2, 1).eigenvalues[0]
    assert abs(e1 - e2) < 1e-7


def test_solve_validation():
    rp = default_problem(P075, U, 1, GREENE_ALDRICH, n_max=0)
    with pytest.raises(DomainError):
        solve(rp, 0)


def test_hydrogen_limit_self_test():
    # alpha=0, A=2b with huge b is a Coulomb potential to 1 part in 2b;
    # ground state must come out at -1/2 hartree
    b = 1.0e7
    p = PotentialParams(A=2.0 * b, alpha=0.0, b=b)
    rp = RadialProblem(params=p, units=U, l=0, scheme=EXACT,
                       r_min=1e-8, r_max=60.0, grid_points=20000)
    result = solve(rp, 1)
    assert result.eigenvalues[0] == pytest.approx(-0.5, abs=1e-6)
    assert result.converged[0]


@pytest.mark.parametrize("scheme", [GREENE_ALDRICH, EXACT], ids=lambda sc: sc.kind)
def test_levels_match_one_direct_solve_per_l(scheme):
    labels = ("3p", "2p", "3d", "4f", "5p")
    states = [QuantumState.from_label(lab) for lab in labels]
    got = levels(P075, U, states, scheme, grid_points=4000)
    assert list(got) == states
    for l, n_max in ((1, 3), (2, 0), (3, 0)):
        rp = default_problem(P075, U, l, scheme, grid_points=4000, n_max=n_max)
        result = solve(rp, n_max + 1)
        for s in states:
            if s.l == l:
                assert got[s] == Level(result.eigenvalues[s.n], result.converged[s.n])


def test_levels_omit_unbound_states():
    # alpha=0.75, 1/b=0.1: l=2 binds exactly two levels and l=4 none
    p = PotentialParams(A=20.0, alpha=0.75, b=10.0)
    states = [QuantumState(n=0, l=2), QuantumState(n=4, l=2), QuantumState(n=0, l=4)]
    got = levels(p, U, states, GREENE_ALDRICH, grid_points=4000)
    assert list(got) == [QuantumState(n=0, l=2)]
    assert got[states[0]].energy < 0


def test_levels_of_no_states_is_empty():
    assert levels(P075, U, [], GREENE_ALDRICH) == {}


def test_numerical_spectrum_shortfall_property():
    ns = NumericalSpectrum(eigenvalues=(-0.1,), converged=(True,), requested=3)
    assert ns.shortfall == 2


def _matrix(rp, m):
    # the m-point finite-difference Hamiltonian, built on its own
    h = (rp.r_max - rp.r_min) / (m + 1)
    kin = rp.units.kinetic / (h * h)
    diag = 2.0 * kin + build_effective_potential(rp, rp.r_min + h * np.arange(1, m + 1))
    return diag, np.full(m - 1, -kin)


def _index_search(diag, off, k):
    return scipy.linalg.eigvalsh_tridiagonal(
        diag, off, select="i", select_range=(0, k - 1), tol=_BISECT_TOL, lapack_driver="stebz"
    )


def _richardson(coarse, fine, k):
    extrapolated, err_est = (4.0 * fine - coarse) / 3.0, abs(fine - coarse) / 3.0
    bound = [(float(ev), bool(err <= CONV_REL * abs(ev)))
             for ev, err in zip(extrapolated, err_est) if ev < 0.0]
    return NumericalSpectrum(eigenvalues=tuple(ev for ev, _ in bound),
                             converged=tuple(c for _, c in bound), requested=k)


def _record_selects(monkeypatch):
    selects = []
    real = scipy.linalg.eigvalsh_tridiagonal

    def recording(*args, **kwargs):
        selects.append(kwargs["select"])
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", recording)
    return selects


@pytest.mark.parametrize(
    "scheme",
    [GREENE_ALDRICH, EXACT, CentrifugalScheme("shifted", 1.0 / 12.0),
     CentrifugalScheme("shifted", -0.5)],
    ids=lambda sc: f"{sc.kind}{sc.shift_c0:+.3g}",
)
def test_value_window_gives_the_index_search_levels(scheme):
    # the closed-form ceiling may only change how long bisection takes, never
    # which levels come out; the sweep includes unbound requested levels
    for alpha, inv_b, l, n_max in itertools.product((0.0, 0.75, 1.5), (0.025, 0.075),
                                                    (1, 2, 3, 4), range(4)):
        b = 1.0 / inv_b
        p = PotentialParams(A=2.0 * b, alpha=alpha, b=b)
        rp = default_problem(p, U, l, scheme, grid_points=1000, n_max=n_max)
        free = oracle._unit_free(rp)  # the matrices a solve bisects
        k = n_max + 1
        pair = []
        for m in (rp.grid_points, 2 * rp.grid_points + 1):
            diag, off = _matrix(free, m)
            pair.append(_lowest_eigenvalues(diag, off, k, _ceiling(free, k)))
            np.testing.assert_allclose(pair[-1], _index_search(diag, off, k),
                                       rtol=0, atol=2 * _BISECT_TOL)
        # the M-point grid of a solve is every second node of its fine grid,
        # so both match two independent builds to the bit, and hbar^2/(2 mu)
        # = 1/2 scales the unit-free levels exactly
        assert solve(rp, k) == _richardson(*(U.kinetic * e for e in pair), k)


def test_fallback_cases_give_the_index_search_levels(monkeypatch):
    selects = _record_selects(monkeypatch)
    # 5 requested, 2 bound: the closed form has no ceiling for level 4
    shortfall = default_problem(PotentialParams(A=20.0, alpha=0.75, b=10.0), U, 2,
                                GREENE_ALDRICH, n_max=4)
    # a hand-built box too small for 2s pushes it above the window
    b = 1.0e7
    hydrogen = RadialProblem(params=PotentialParams(A=2.0 * b, alpha=0.0, b=b), units=U,
                             l=0, scheme=EXACT, r_min=1e-8, r_max=8.0, grid_points=4000)
    # the closed-form levels leave the float range, so there is no ceiling either
    huge_a = default_problem(PotentialParams(A=1e300, alpha=0.75, b=40.0), U, 1,
                             GREENE_ALDRICH, grid_points=4000, n_max=1)
    for rp, k, path in ((shortfall, 5, ["i"]), (hydrogen, 2, ["v", "i"]), (huge_a, 2, ["i"])):
        free = oracle._unit_free(rp)
        for m in (rp.grid_points, 2 * rp.grid_points + 1):
            diag, off = _matrix(free, m)
            selects.clear()
            got = _lowest_eigenvalues(diag, off, k, _ceiling(free, k))
            assert selects == path
            np.testing.assert_allclose(got, _index_search(diag, off, k), rtol=0,
                                       atol=2 * _BISECT_TOL)


def test_bound_levels_are_found_in_a_value_window(monkeypatch):
    selects = _record_selects(monkeypatch)
    solve(default_problem(P075, U, 1, GREENE_ALDRICH, n_max=3), 4)
    assert selects == ["v", "v"]
    selects.clear()
    # 5 requested, 2 bound: only the index search can return all five
    solve(default_problem(PotentialParams(A=20.0, alpha=0.75, b=10.0), U, 2, GREENE_ALDRICH,
                          n_max=4), 5)
    assert selects == ["i", "i"]


def test_effective_potential_is_built_once_per_solve(monkeypatch):
    sizes = []
    real = oracle.build_effective_potential

    def recording(rp, r):
        sizes.append(len(r))
        return real(rp, r)

    monkeypatch.setattr(oracle, "build_effective_potential", recording)
    rp = default_problem(P075, U, 1, GREENE_ALDRICH, n_max=1, grid_points=1000)
    solve(rp, 2)
    assert sizes == [2001]  # the fine nodes only


def test_molecular_solve_is_kinetic_times_the_unit_free_solve():
    rp = default_problem(P075, molecular_units("CO"), 1, EXACT, grid_points=4000, n_max=2)
    free = solve(dataclasses.replace(rp, units=UnitSystem(hbar=1.0, mu=0.5)), 3)
    got = solve(rp, 3)
    assert got.eigenvalues == tuple(rp.units.kinetic * e for e in free.eigenvalues)
    assert (got.converged, got.requested) == (free.converged, free.requested)


def test_unit_systems_share_one_cached_solve():
    rp = default_problem(P075, U, 1, GREENE_ALDRICH, grid_points=1000, n_max=1)
    for units in (U, molecular_units("HCl"), molecular_units("CH")):
        solve(dataclasses.replace(rp, units=units), 2)
    info = oracle._solve_unit_free.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_problems_that_differ_beyond_their_units_do_not_share_a_solve():
    shifted = CentrifugalScheme("shifted", 1.0 / 12.0)
    rp = default_problem(P075, U, 1, shifted, grid_points=1000, n_max=1)
    variants = [(rp, 2), (rp, 3), (dataclasses.replace(rp, grid_points=1001), 2),
                (dataclasses.replace(rp, scheme=CentrifugalScheme("shifted", -0.5)), 2)]
    results = [solve(problem, k) for problem, k in variants]
    info = oracle._solve_unit_free.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 0, 4)
    assert len({r.eigenvalues[0] for r in results}) == 4


@pytest.mark.parametrize("b", [1e-80, 1e-100, 1e-151, 1.4e-152, 2e-152])
def test_a_tiny_screening_length_is_a_compute_error(b):
    # the matrix entries approach the float limit: LAPACK's bisection fails
    # (b from about 1e-80 down), U overflows (1.4e-152), or U + 2 hbar^2/(2 mu h^2)
    # does (2e-152)
    rp = default_problem(PotentialParams(A=5.0, alpha=0.75, b=b), U, 1, GREENE_ALDRICH, n_max=0)
    with pytest.raises(NumericalInstabilityError):
        solve(rp, 1)
