import math

import pytest

from mrspec import (
    DomainError,
    NoBoundStateError,
    NumericalInstabilityError,
    PotentialParams,
    QuantumState,
    atomic_units,
    coulomb_energy,
    critical_coupling,
    energy,
    enumerate_bound_states,
    epsilon_of,
    hulthen_energy,
    is_bound,
    molecular_units,
    nu_parameters,
    solve_state,
)

U = atomic_units()


def test_label_parsing():
    s = QuantumState.from_label("2p")
    assert (s.n, s.l) == (0, 1)
    assert s.principal == 2
    assert s.label == "2p"
    s = QuantumState.from_label("6g")
    assert (s.n, s.l) == (1, 4)
    s = QuantumState.from_label("1s")
    assert (s.n, s.l) == (0, 0)


def test_label_round_trip_high_l():
    # double-digit principal numbers and deep letters survive the round trip
    s = QuantumState(n=0, l=10)
    assert s.label == "11n"
    assert QuantumState.from_label("11n") == s


def test_label_rejects_malformed():
    for bad in ("", "p", "2", "2x", "x2", "2P ", "0s", "-1p", "1p"):
        with pytest.raises(DomainError):
            QuantumState.from_label(bad)


def test_state_validation():
    with pytest.raises(DomainError):
        QuantumState(n=-1, l=0)
    with pytest.raises(DomainError):
        QuantumState(n=0, l=-2)


def test_nu_parameters_hand_computed():
    p = PotentialParams(A=80.0, alpha=0.75, b=40.0)
    a, lam = nu_parameters(p, QuantumState.from_label("2p"))
    assert a == pytest.approx(math.sqrt(0.25 + 8.0), rel=1e-15)
    assert lam == pytest.approx((math.sqrt(8.25) - 1.0) / 2.0, rel=1e-15)


def test_nu_parameters_hulthen_limit():
    # alpha in {0, 1} collapses Lambda to l
    for alpha in (0.0, 1.0):
        p = PotentialParams(A=80.0, alpha=alpha, b=40.0)
        for lab in ("1s", "2p", "3d", "4f"):
            s = QuantumState.from_label(lab)
            _, lam = nu_parameters(p, s)
            assert lam == pytest.approx(s.l, abs=1e-14)


def test_epsilon_matches_inline_formula():
    p = PotentialParams(A=80.0, alpha=0.75, b=40.0)
    s = QuantumState.from_label("3d")  # n=0, l=2
    lam = (math.sqrt(0.25 + 24.0) - 1.0) / 2.0
    expected = (80.0 - 1.0 - 6.0 - lam) / (2.0 * (1.0 + lam))
    assert epsilon_of(p, s) == pytest.approx(expected, rel=1e-14)


def test_energy_published_anchor_cells():
    # two cells of the reproduced atomic-units table, printed to 1e-7
    p075 = PotentialParams(A=80.0, alpha=0.75, b=40.0)
    p15 = PotentialParams(A=80.0, alpha=1.5, b=40.0)
    s = QuantumState.from_label("2p")
    assert energy(p075, U, s) == pytest.approx(-0.1205793, abs=5e-7)
    assert energy(p15, U, s) == pytest.approx(-0.0900228, abs=5e-7)


def test_alpha_reflection_invariance():
    # a depends on (1-2 alpha)^2 only, so alpha and 1-alpha give one spectrum
    for alpha in (0.75, 1.5, 0.0, 2.3):
        pa = PotentialParams(A=80.0, alpha=alpha, b=40.0)
        pb = PotentialParams(A=80.0, alpha=1.0 - alpha, b=40.0)
        for lab in ("1s", "2p", "3d", "5g"):
            s = QuantumState.from_label(lab)
            ea, eb = energy(pa, U, s), energy(pb, U, s)
            assert ea == pytest.approx(eb, rel=1e-13)


def test_critical_coupling_zeroes_energy():
    for alpha in (0.75, 1.5):
        for lab in ("1s", "2p", "4d"):
            s = QuantumState.from_label(lab)
            ac = critical_coupling(s, alpha)
            p = PotentialParams(A=ac, alpha=alpha, b=40.0)
            assert energy(p, U, s) == pytest.approx(0.0, abs=1e-25)
            assert not is_bound(p, s)
            assert is_bound(PotentialParams(A=ac + 1e-9, alpha=alpha, b=40.0), s)
            assert not is_bound(PotentialParams(A=ac - 1e-9, alpha=alpha, b=40.0), s)


def test_critical_coupling_closed_form():
    # A_c = (n+1)^2 + (2n+1) Lambda + l(l+1)
    s = QuantumState.from_label("3p")  # n=1, l=1
    lam = (math.sqrt((1.0 - 1.5) ** 2 + 8.0) - 1.0) / 2.0
    assert critical_coupling(s, 0.75) == pytest.approx(4.0 + 3.0 * lam + 2.0, rel=1e-14)


def test_epsilon_raises_for_unbound():
    p = PotentialParams(A=5.0, alpha=0.75, b=40.0)
    s = QuantumState.from_label("5g")
    with pytest.raises(NoBoundStateError):
        epsilon_of(p, s)
    with pytest.raises(NoBoundStateError):
        solve_state(p, U, s)
    # the formula value itself stays defined and non-positive
    assert energy(p, U, s) <= 0.0


def test_solve_state_consistency():
    p = PotentialParams(A=80.0, alpha=1.5, b=40.0)
    s = QuantumState.from_label("4f")
    sol = solve_state(p, U, s)
    assert sol.energy == pytest.approx(-U.kinetic * (sol.epsilon / 40.0) ** 2, rel=1e-15)
    assert sol.Lambda == pytest.approx((sol.a - 1.0) / 2.0, rel=1e-15)
    assert sol.energy == energy(p, U, s)


# epsilon from moderate to one whose square overflows a float
EPSILONS = [20.0, 1e4, 1e8, 1e12, 5e299]


@pytest.mark.parametrize("eps", EPSILONS)
def test_energy_is_finite_or_raises(eps):
    s = QuantumState(n=3, l=1)
    b = 40.0
    _, lam = nu_parameters(PotentialParams(A=1.0, alpha=0.75, b=b), s)
    p = PotentialParams(A=critical_coupling(s, 0.75) + 2.0 * eps * (s.n + 1 + lam),
                        alpha=0.75, b=b)
    expected = -U.kinetic / (b * b) * eps * eps
    if math.isfinite(expected):
        assert energy(p, U, s) == pytest.approx(expected, rel=1e-9)
        assert solve_state(p, U, s).energy == energy(p, U, s)
    else:
        with pytest.raises(NumericalInstabilityError):
            energy(p, U, s)
        with pytest.raises(NumericalInstabilityError):
            solve_state(p, U, s)
        with pytest.raises(NumericalInstabilityError):
            hulthen_energy(p.A, b, U, s)


def test_enumerate_bound_states():
    p = PotentialParams(A=20.0, alpha=0.75, b=10.0)
    levels = enumerate_bound_states(p, l_max=3)
    assert levels, "A=20 must bind something"
    energies = [e for _, e in levels]
    assert energies == sorted(energies)
    listed = {(s.n, s.l) for s, _ in levels}
    # cross-check against direct is_bound over a generous grid
    for l in range(4):
        for n in range(12):
            s = QuantumState(n=n, l=l)
            assert ((n, l) in listed) == is_bound(p, s)
    with pytest.raises(DomainError):
        enumerate_bound_states(p, l_max=-1)


def test_hulthen_reduction_identity():
    # at alpha in {0,1} the spectrum collapses to the Hulthen closed form
    for alpha in (0.0, 1.0):
        p = PotentialParams(A=80.0, alpha=alpha, b=40.0)
        for lab in ("1s", "2p", "3p", "3d", "4f"):
            s = QuantumState.from_label(lab)
            assert energy(p, U, s) == pytest.approx(
                hulthen_energy(80.0, 40.0, U, s), rel=1e-13
            )


def test_hulthen_degeneracy_in_principal_number():
    # Hulthen energies depend on N = n + l + 1 only
    e_3p = hulthen_energy(80.0, 40.0, U, QuantumState.from_label("3p"))
    e_3d = hulthen_energy(80.0, 40.0, U, QuantumState.from_label("3d"))
    assert e_3p == e_3d


def test_hulthen_threshold():
    s = QuantumState.from_label("3d")  # N = 3
    with pytest.raises(NoBoundStateError):
        hulthen_energy(9.0, 40.0, U, s)
    assert hulthen_energy(9.0 + 1e-6, 40.0, U, s) < 0.0


def test_coulomb_energy_atomic():
    for lab, N in (("1s", 1), ("2p", 2), ("3d", 3)):
        e = coulomb_energy(1.0, U, QuantumState.from_label(lab))
        assert e == pytest.approx(-0.5 / N**2, rel=1e-15)
    assert coulomb_energy(2.0, U, QuantumState.from_label("1s")) == pytest.approx(-2.0, rel=1e-15)
    with pytest.raises(DomainError):
        coulomb_energy(0.0, U, QuantumState.from_label("1s"))


def test_molecular_table_anchor_cells():
    # one sound cell per molecular table, printed to 1e-8 eV
    s = QuantumState.from_label("2p")
    p = PotentialParams(A=80.0, alpha=0.0, b=40.0)
    assert energy(p, molecular_units("HCl"), s) == pytest.approx(-4.81152646, abs=1e-4)
    p = PotentialParams(A=80.0, alpha=0.75, b=40.0)
    assert energy(p, molecular_units("LiH"), s) == pytest.approx(-5.72700906, abs=1e-4)
