import numpy as np
import pytest

from mrspec import (
    EXACT,
    GREENE_ALDRICH,
    DomainError,
    Level,
    NumericalSpectrum,
    PotentialParams,
    QuantumState,
    RadialProblem,
    atomic_units,
    build_effective_potential,
    default_problem,
    eigenfunction_nodes,
    energy,
    levels,
    mr_value,
    solve,
)

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
    full = default_problem(p, U, 1, EXACT)
    assert small.r_max < 1000.0
    assert full.r_max > 50000.0


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
    rp = default_problem(p, U, 2, GREENE_ALDRICH)
    result = solve(rp, 5)
    assert len(result.eigenvalues) == 2
    assert result.requested == 5
    assert result.shortfall == 3


def test_no_bound_levels_at_all():
    p = PotentialParams(A=20.0, alpha=0.75, b=10.0)
    rp = default_problem(p, U, 4, GREENE_ALDRICH)  # l=4 needs A > 24.98
    result = solve(rp, 3)
    assert result.eigenvalues == ()
    assert result.shortfall == 3


def test_convergence_flag_trips_on_bad_box():
    # the halo-state box from test_default_problem_box_respects_n_max is
    # genuinely under-resolved at the default grid; the flag must say so
    p = PotentialParams(A=2.0 / 0.075, alpha=1.5, b=1.0 / 0.075)
    rp = default_problem(p, U, 1, GREENE_ALDRICH)
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


def test_node_counts_match_radial_quantum_number():
    rp = default_problem(P075, U, 1, GREENE_ALDRICH, n_max=3, grid_points=4000)
    assert eigenfunction_nodes(rp, 4) == [0, 1, 2, 3]
    rp = default_problem(P075, U, 2, EXACT, n_max=2, grid_points=4000)
    assert eigenfunction_nodes(rp, 3) == [0, 1, 2]


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
