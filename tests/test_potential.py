import math

import numpy as np
import pytest

from mrspec import (
    EXACT,
    GREENE_ALDRICH,
    SHIFTED,
    CDForm,
    CentrifugalScheme,
    DomainError,
    NumericalInstabilityError,
    PotentialParams,
    QuantumState,
    atomic_units,
    centrifugal_term,
    energy,
    force_constant,
    minimum,
    molecular_units,
    mr_value,
    mr_value_cd,
)

U = atomic_units()


def reference_value(p, r):
    # independent elementary-function evaluation of the potential
    s = 1.0 / (2.0 * p.b * p.b)
    e1 = math.exp(-r / p.b)
    e2 = math.exp(-2.0 * r / p.b)
    om = 1.0 - e1
    return s * (p.alpha * (p.alpha - 1.0) * e2 / (om * om) - p.A * e1 / om)


def test_value_against_reference():
    p = PotentialParams(A=80.0, alpha=0.75, b=40.0)
    for r in (0.01, 0.5, 1.0, 7.3, 40.0, 200.0):
        assert mr_value(p, U, r) == pytest.approx(reference_value(p, r), rel=1e-12)


def test_value_vectorized_matches_scalar():
    p = PotentialParams(A=30.0, alpha=1.5, b=10.0)
    r = np.array([0.1, 1.0, 5.0, 60.0])
    vec = mr_value(p, U, r)
    assert vec.shape == r.shape
    for i, ri in enumerate(r):
        assert vec[i] == mr_value(p, U, float(ri))


def test_value_rejects_nonpositive_r():
    p = PotentialParams(A=80.0, alpha=0.75, b=40.0)
    with pytest.raises(DomainError):
        mr_value(p, U, 0.0)
    with pytest.raises(DomainError):
        mr_value(p, U, np.array([1.0, -2.0]))


def test_non_finite_values_raise():
    # finite parameters whose values leave the float range raise instead of
    # returning inf or nan; a numpy warning would fail the suite here
    r = np.array([1e-10, 1.0, 60.0])
    for p in (PotentialParams(A=1e308, alpha=0.75, b=40.0),  # -A/(b r) overflows
              PotentialParams(A=80.0, alpha=1e150, b=40.0)):  # alpha^2/r^2 overflows
        for rr in (r, 1e-10):
            with pytest.raises(NumericalInstabilityError):
                mr_value(p, U, rr)
            with pytest.raises(NumericalInstabilityError):
                mr_value_cd(CDForm.from_params(p), p.b, U, rr)
    for scheme in (EXACT, GREENE_ALDRICH, SHIFTED):
        with pytest.raises(NumericalInstabilityError):
            centrifugal_term(scheme, 10.0, 1e-200)  # 1/r^2 overflows
    with pytest.raises(NumericalInstabilityError):
        centrifugal_term(SHIFTED, 1e-300, r)  # c0/b^2 overflows


def test_huge_screening_length_stays_finite():
    # V and the centrifugal terms tend to their Coulomb-like limits as 1/b -> 0
    r = np.array([0.05, 1.0, 60.0])
    b = 1e300
    v = mr_value(PotentialParams(A=2.0 * b, alpha=0.75, b=b), U, r)
    np.testing.assert_allclose(v, U.kinetic * (-0.1875 / r**2 - 2.0 / r), rtol=1e-12)
    for scheme in (GREENE_ALDRICH, SHIFTED):
        np.testing.assert_allclose(centrifugal_term(scheme, b, r), 1.0 / r**2, rtol=1e-12)


def test_params_validation():
    with pytest.raises(DomainError):
        PotentialParams(A=80.0, alpha=0.75, b=0.0)
    with pytest.raises(DomainError):
        PotentialParams(A=math.inf, alpha=0.75, b=40.0)
    with pytest.raises(DomainError):
        PotentialParams(A=5.0, alpha=0.75, b=math.inf)
    with pytest.raises(DomainError):
        PotentialParams(A=5.0, alpha=1e200, b=40.0)  # alpha(alpha-1) overflows
    # the evaluators that take a bare b check it themselves
    for b in (0.0, -1.0):
        with pytest.raises(DomainError):
            mr_value_cd(CDForm(C=80.0, D=-80.0), b, U, 1.0)
        with pytest.raises(DomainError):
            centrifugal_term(GREENE_ALDRICH, b, 1.0)


def test_cd_form_mapping():
    p = PotentialParams(A=80.0, alpha=1.5, b=40.0)
    cd = CDForm.from_params(p)
    assert cd.C == 80.0
    assert cd.D == -80.0 - 1.5 * 0.5


def test_cd_form_value_identity():
    # -(C z + D z^2)/(1-z)^2 is the same function as the defining form
    for alpha in (0.3, 0.75, 1.0, 1.5, -0.5):
        p = PotentialParams(A=80.0, alpha=alpha, b=40.0)
        cd = CDForm.from_params(p)
        r = np.linspace(0.05, 300.0, 400)
        np.testing.assert_allclose(
            mr_value_cd(cd, p.b, U, r), mr_value(p, U, r), rtol=1e-12, atol=1e-18
        )


def test_alpha_reflection_leaves_potential_invariant():
    # alpha(alpha-1) is symmetric about alpha = 1/2
    r = np.linspace(0.1, 200.0, 50)
    a = mr_value(PotentialParams(A=80.0, alpha=1.5, b=40.0), U, r)
    b = mr_value(PotentialParams(A=80.0, alpha=-0.5, b=40.0), U, r)
    np.testing.assert_array_equal(a, b)


def test_minimum_location_and_depth():
    p = PotentialParams(A=80.0, alpha=1.5, b=40.0)
    r0, v0 = minimum(p, U)
    aa = 1.5 * 0.5
    assert r0 == pytest.approx(40.0 * math.log(1.0 + 2.0 * aa / 80.0), rel=1e-14)
    assert v0 == pytest.approx(-U.kinetic * (80.0 / 40.0) ** 2 / (4.0 * aa), rel=1e-14)
    # the formula point really is the minimum of the evaluated curve
    assert mr_value(p, U, r0) == pytest.approx(v0, rel=1e-15)
    for dr in (1e-4, 0.1, 0.5):
        assert mr_value(p, U, r0 - dr) > v0
        assert mr_value(p, U, r0 + dr) > v0


def test_minimum_absent_for_monotone_wells():
    # alpha in [0, 1] kills the repulsive core; A <= 0 kills the attraction
    assert minimum(PotentialParams(A=80.0, alpha=0.75, b=40.0), U) is None
    assert minimum(PotentialParams(A=80.0, alpha=0.0, b=40.0), U) is None
    assert minimum(PotentialParams(A=80.0, alpha=1.0, b=40.0), U) is None
    assert minimum(PotentialParams(A=-5.0, alpha=1.5, b=40.0), U) is None


def test_force_constant_against_finite_differences():
    p = PotentialParams(A=80.0, alpha=1.5, b=40.0)
    k = force_constant(p, U)
    assert k == pytest.approx(2.4600925926, rel=1e-9)
    r0, _ = minimum(p, U)
    h = 1e-3
    vals = [mr_value(p, U, r0 + i * h) for i in (-2, -1, 0, 1, 2)]
    fd = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
    assert k == pytest.approx(fd, rel=1e-8)


def test_force_constant_is_finite_at_huge_b_and_alpha():
    # (A + 2 aa)^2 / (b^4 aa^3) in one power each overflowed a float
    k = force_constant(PotentialParams(A=2e100, alpha=1.5, b=1e100), U)
    assert k == pytest.approx(U.kinetic * 4.0 * (2.0 / 0.75) ** 2 / 6.0, rel=1e-14)
    alpha = 1e60
    aa = alpha * (alpha - 1.0)
    k = force_constant(PotentialParams(A=80.0, alpha=alpha, b=40.0), U)
    assert k == pytest.approx(U.kinetic * 4.0 * 0.05**2 / (8.0 * aa), rel=1e-14)


def test_non_finite_minimum_and_force_constant_raise():
    # (A/b)^2 overflows in the well depth; in the force constant alone at A=1e90
    with pytest.raises(NumericalInstabilityError):
        minimum(PotentialParams(A=1e308, alpha=1.5, b=1e-10), U)
    with pytest.raises(NumericalInstabilityError):
        force_constant(PotentialParams(A=1e300, alpha=1.5, b=1e-10), U)
    p = PotentialParams(A=1e90, alpha=1.5, b=1e-10)
    assert math.isfinite(minimum(p, U)[1])
    with pytest.raises(NumericalInstabilityError):
        force_constant(p, U)


def test_energies_scale_with_the_unit_systems_kinetic_ratio():
    # every energy is hbar^2/(2 mu) times a number fixed by the potential
    hcl, co = molecular_units("HCl"), molecular_units("CO")
    ratio = hcl.kinetic / co.kinetic
    for p in (PotentialParams(A=80.0, alpha=1.5, b=40.0),
              PotentialParams(A=2e100, alpha=1.5, b=1e100)):
        pairs = [(energy(p, u, QuantumState(n=1, l=2)), force_constant(p, u),
                  *mr_value(p, u, np.array([0.5, 40.0, 300.0])), minimum(p, u)[1])
                 for u in (hcl, co)]
        for a, b in zip(*pairs):
            assert a == pytest.approx(ratio * b, rel=1e-15)


def test_force_constant_needs_a_minimum():
    with pytest.raises(DomainError):
        force_constant(PotentialParams(A=80.0, alpha=0.75, b=40.0), U)


def test_centrifugal_exact_is_inverse_square():
    r = np.array([0.5, 2.0, 10.0])
    np.testing.assert_allclose(centrifugal_term(EXACT, 40.0, r), 1.0 / r**2, rtol=1e-15)


def test_centrifugal_greene_aldrich_closed_form():
    # z/(b^2 (1-z)^2) = 1/(4 b^2 sinh^2(r/2b))
    b = 10.0
    for r in (0.01, 0.3, 1.0, 5.0, 33.0):
        expected = 1.0 / (4.0 * b * b * math.sinh(r / (2.0 * b)) ** 2)
        assert centrifugal_term(GREENE_ALDRICH, b, r) == pytest.approx(expected, rel=1e-12)


def test_centrifugal_shifted_adds_constant():
    b = 10.0
    r = np.linspace(0.1, 50.0, 20)
    ga = centrifugal_term(GREENE_ALDRICH, b, r)
    sh = centrifugal_term(SHIFTED, b, r)
    np.testing.assert_allclose(sh - ga, np.full_like(r, 1.0 / (12.0 * b * b)), rtol=1e-9)
    custom = CentrifugalScheme("shifted", shift_c0=0.5)
    np.testing.assert_allclose(
        centrifugal_term(custom, b, r) - ga, np.full_like(r, 0.5 / (b * b)), rtol=1e-9
    )


def test_greene_aldrich_bounds_and_small_r_limit():
    b = 10.0
    r = np.linspace(1e-3, 80.0, 500)
    ga = centrifugal_term(GREENE_ALDRICH, b, r)
    ex = centrifugal_term(EXACT, b, r)
    assert np.all(ga <= ex)
    # 1/r^2 - GA -> 1/(12 b^2) as r -> 0
    gap = centrifugal_term(EXACT, b, 1e-3 * b) - centrifugal_term(GREENE_ALDRICH, b, 1e-3 * b)
    assert gap == pytest.approx(1.0 / (12.0 * b * b), rel=1e-6)


def test_approximation_quality_windows():
    # at r = b/10 all three terms agree within 5%; at r = 10 b the
    # Greene-Aldrich form has collapsed far below 1/r^2
    b = 10.0
    r_good = b / 10.0
    ex = centrifugal_term(EXACT, b, r_good)
    for scheme in (GREENE_ALDRICH, SHIFTED):
        assert abs(centrifugal_term(scheme, b, r_good) / ex - 1.0) < 0.05
    r_bad = 10.0 * b
    ratio = centrifugal_term(GREENE_ALDRICH, b, r_bad) / centrifugal_term(EXACT, b, r_bad)
    assert ratio < 0.01


def test_scheme_validation():
    with pytest.raises(DomainError):
        CentrifugalScheme("bogus")
    for c0 in (math.nan, math.inf):
        with pytest.raises(DomainError):
            CentrifugalScheme("shifted", shift_c0=c0)
    with pytest.raises(DomainError):
        centrifugal_term(GREENE_ALDRICH, 10.0, 0.0)
    for scheme in (EXACT, GREENE_ALDRICH):
        with pytest.raises(DomainError):
            centrifugal_term(scheme, math.inf, 1.0)
