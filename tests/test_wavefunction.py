import math

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.special

from mrspec import (
    DomainError,
    NoBoundStateError,
    NumericalInstabilityError,
    PotentialParams,
    QuantumState,
    RadialWavefunction,
    atomic_units,
    build_radial_wavefunction,
    epsilon_of,
    hulthen_wavefunction,
    hyp_integral,
    is_bound,
    jacobi,
    normalization_constant,
    nu_parameters,
    radial_value,
)

U = atomic_units()
P075 = PotentialParams(A=80.0, alpha=0.75, b=40.0)

mpmath.mp.dps = 50


def mp_jacobi_sum(n, rho, nu, x):
    # explicit binomial-sum representation, evaluated in 50-digit arithmetic
    x = mpmath.mpf(x)
    total = mpmath.mpf(0)
    for p in range(n + 1):
        total += (
            mpmath.binomial(n + rho, p)
            * mpmath.binomial(n + nu, n - p)
            * ((x - 1) / 2) ** (n - p)
            * ((x + 1) / 2) ** p
        )
    return total


def mp_jacobi_hyp(n, rho, nu, x):
    # terminating-hypergeometric representation of the same polynomial,
    # summed term by term (mpmath's generic 2F1 machinery balks at some
    # degenerate parameter combinations)
    t = (1 - mpmath.mpf(x)) / 2
    pref = mpmath.gamma(n + rho + 1) / (mpmath.factorial(n) * mpmath.gamma(rho + 1))
    total = mpmath.mpf(0)
    for k in range(n + 1):
        total += (
            mpmath.rf(-n, k) * mpmath.rf(n + rho + nu + 1, k)
            / (mpmath.rf(rho + 1, k) * mpmath.factorial(k))
            * t**k
        )
    return pref * total


def mp_paper_norm_sum(n, eps, lam, b):
    # the paper's s(n) = 1/N^2 as its alternating double sum over the Beta
    # kernels I(p, r), evaluated in 50-digit arithmetic
    e2 = 2 * mpmath.mpf(eps)
    l2 = 2 * mpmath.mpf(lam)
    g = mpmath.gamma
    fact = mpmath.factorial
    total = mpmath.mpf(0)
    for p in range(n + 1):
        for r in range(n + 1):
            total += (
                (-1) ** (p + r)
                * g(n + e2 + l2 + r + 2)
                * mpmath.beta(n + e2 + r - p, p + l2 + 3)
                / (fact(p) * fact(r) * fact(n - p) * fact(n - r)
                   * g(p + l2 + 2) * g(n + e2 - p + 1) * g(e2 + r + 1))
            )
    return b * (-1) ** n * g(n + l2 + 2) * g(n + e2 + 1) ** 2 / g(n + e2 + l2 + 2) * total


def test_jacobi_dual_formula_agreement():
    # recurrence vs both explicit representations, n <= 10
    params = [(2.3, 1.4), (39.3, 2.87), (0.0, 0.0), (5.5, -0.5)]
    xs = [-0.9, -0.3, 0.0, 0.4, 0.95]
    for rho, nu in params:
        for n in range(11):
            for x in xs:
                got = jacobi(n, rho, nu, x)
                ref_sum = float(mp_jacobi_sum(n, rho, nu, x))
                ref_hyp = float(mp_jacobi_hyp(n, rho, nu, x))
                scale = max(abs(ref_sum), 1e-30)
                assert abs(got - ref_sum) / scale < 1e-10
                assert abs(got - ref_hyp) / scale < 1e-10


def test_jacobi_against_scipy():
    r = np.linspace(-1.0, 1.0, 41)
    for n in (0, 1, 2, 5, 9):
        mine = jacobi(n, 4.2, 3.1, r)
        ref = scipy.special.eval_jacobi(n, 4.2, 3.1, r)
        np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=1e-14)


def test_jacobi_low_orders_closed_form():
    rho, nu, x = 2.0, 3.0, 0.37
    assert jacobi(0, rho, nu, x) == 1.0
    expected = (rho + 1.0) + (rho + nu + 2.0) * (x - 1.0) / 2.0
    assert jacobi(1, rho, nu, x) == pytest.approx(expected, rel=1e-15)


def test_jacobi_validation():
    with pytest.raises(DomainError):
        jacobi(-1, 1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        jacobi(2, -1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        jacobi(2, 0.5, -1.2, 0.5)


def test_hyp_integral_against_quadrature():
    # Beta-kernel integral that carries the normalization sum
    cases = [
        (0, 19.6, 0.94, 0, 0),
        (2, 7.3, 1.5, 1, 2),
        (3, 3.2, 2.9, 3, 0),
    ]
    for n, eps, lam, p, r in cases:
        got = hyp_integral(n, eps, lam, p, r)
        f = lambda z: z ** (n + 2 * eps + r - p - 1.0) * (1.0 - z) ** (p + 2 * lam + 2.0)
        ref, err = si.quad(f, 0.0, 1.0, limit=200)
        assert got == pytest.approx(ref, rel=1e-9)


def test_hyp_integral_domain():
    # the z-exponent must stay positive for the integral to converge;
    # for p <= n that can only fail with an unphysical epsilon
    with pytest.raises(DomainError):
        hyp_integral(0, -0.5, 1.0, 0, 0)
    # p + 2 Lambda + 3 <= 0: lgamma would return log|Gamma| of a negative
    # argument and a silently wrong number
    with pytest.raises(DomainError):
        hyp_integral(0, 1.0, -2.0, 0, 0)


def test_normalization_reduces_to_beta_at_n0():
    for eps, lam in ((19.64, 0.936), (3.2, 2.5), (0.7, 0.1)):
        s0 = QuantumState(n=0, l=0)
        got = normalization_constant(s0, eps, lam, 40.0)
        beta = float(mpmath.beta(2 * eps, 2 * lam + 3))
        assert got == pytest.approx(1.0 / math.sqrt(40.0 * beta), rel=1e-12)


def test_normalization_matches_paper_double_sum():
    # the closed form against the paper's own alternating sum (50 digits),
    # for every bound state with n <= 12 at A = 2b, alpha = 0.75
    checked = 0
    for inv_b in (0.0025, 0.025):
        b = 1.0 / inv_b
        p = PotentialParams(A=2.0 * b, alpha=0.75, b=b)
        for l in (0, 1, 2):
            for n in range(13):
                s = QuantumState(n=n, l=l)
                if not is_bound(p, s):
                    continue
                eps = epsilon_of(p, s)
                _, lam = nu_parameters(p, s)
                got = normalization_constant(s, eps, lam, b) ** -2
                ref = mp_paper_norm_sum(n, eps, lam, b)
                assert float(abs(got - ref) / ref) < 1e-11, (inv_b, n, l)
                checked += 1
    assert checked == 61  # of 78; at 1/b = 0.025 the highest n are unbound


@pytest.mark.parametrize("label", ["9p", "11p"])
def test_weak_screening_wavefunction_is_normalized(label):
    # weak screening, where the paper's alternating sum cancels in floats
    b = 400.0
    wf = build_radial_wavefunction(PotentialParams(A=2.0 * b, alpha=0.75, b=b),
                                   QuantumState.from_label(label))
    r_max = 60.0 * b / wf.epsilon
    val, err = si.quad(lambda r: radial_value(wf, r) ** 2, 0.0, r_max, limit=500)
    assert val == pytest.approx(1.0, abs=1e-8)


def mp_norm(n, eps, lam, b):
    # N from the same closed form as normalization_constant. Its log-Gamma
    # terms are about 2 eps log(2 eps), so resolving their O(1) difference
    # takes log10(eps) digits beyond the usual 50.
    with mpmath.workdps(50 + int(math.log10(eps))):
        e2, l2 = 2 * mpmath.mpf(eps), 2 * mpmath.mpf(lam)
        lg = mpmath.loggamma
        log_s = (lg(n + e2 + 1) + lg(n + l2 + 2) - lg(n + 1) - lg(n + e2 + l2 + 2)
                 + mpmath.log((n + lam + 1) / (e2 * (n + eps + lam + 1))))
        return mpmath.exp(-(mpmath.log(b) + log_s) / 2)


@pytest.mark.parametrize("eps", [20.0, 1e4, 1e8, 1e12, 5e299])
def test_normalization_far_from_the_tables(eps):
    # the Gamma ratio must not lose digits as epsilon grows; an N beyond the
    # float range has to raise instead of coming back as inf, 0 or a crash
    for n in (0, 3):
        ref = mp_norm(n, eps, 1.3, 40.0)
        s = QuantumState(n=n, l=1)
        if ref < 1e300:
            got = normalization_constant(s, eps, 1.3, 40.0)
            assert float(abs(got - ref) / ref) < 1e-9, (n, eps)
        else:
            with pytest.raises(NumericalInstabilityError):
                normalization_constant(s, eps, 1.3, 40.0)


def test_normalization_domain():
    s = QuantumState(n=2, l=1)
    for eps, lam, b in ((0.0, 1.0, 40.0), (math.inf, 1.0, 40.0), (1.0, -1.0, 40.0),
                        (1.0, -1.5, 40.0), (1.0, 1.0, 0.0)):
        with pytest.raises(DomainError):
            normalization_constant(s, eps, lam, b)


def test_normalization_positive_across_sweep():
    # the instability guard must never trip for physical bound states
    for alpha in (0.0, 0.75, 1.5):
        p = PotentialParams(A=80.0, alpha=alpha, b=40.0)
        for lab in ("1s", "2p", "3p", "3d", "4p", "4f", "5g"):
            s = QuantumState.from_label(lab)
            wf = build_radial_wavefunction(p, s)
            assert wf.norm > 0 and math.isfinite(wf.norm)


def test_wavefunction_unit_norm_quadrature():
    wf = build_radial_wavefunction(P075, QuantumState.from_label("3p"))
    val, err = si.quad(lambda r: radial_value(wf, r) ** 2, 0.0, 3000.0, limit=500)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_wavefunction_boundary_values():
    wf = build_radial_wavefunction(P075, QuantumState.from_label("2p"))
    assert radial_value(wf, 0.0) == 0.0
    assert abs(radial_value(wf, 500.0)) < 1e-80
    with pytest.raises(DomainError):
        radial_value(wf, -1.0)


def test_wavefunction_vectorized_matches_scalar():
    wf = build_radial_wavefunction(P075, QuantumState.from_label("3d"))
    r = np.linspace(0.0, 100.0, 37)
    vec = radial_value(wf, r)
    assert vec.shape == r.shape
    for i, ri in enumerate(r):
        # numpy's vectorized transcendentals may differ from the scalar
        # path by an ulp
        assert vec[i] == pytest.approx(radial_value(wf, float(ri)), rel=5e-15)
    assert np.array_equal(wf(r), vec)


def test_wavefunction_node_counts():
    # the radial quantum number counts interior sign changes
    r = np.linspace(1e-3, 400.0, 40000)
    for lab in ("2p", "3p", "4p", "3d", "4d", "4f"):
        s = QuantumState.from_label(lab)
        wf = build_radial_wavefunction(P075, s)
        vals = radial_value(wf, r)
        live = vals[np.abs(vals) > 1e-12 * np.max(np.abs(vals))]
        nodes = int(np.sum(np.sign(live[1:]) != np.sign(live[:-1])))
        assert nodes == s.n, lab


def test_unbound_state_raises():
    p = PotentialParams(A=5.0, alpha=0.75, b=40.0)
    with pytest.raises(NoBoundStateError):
        build_radial_wavefunction(p, QuantumState.from_label("5g"))


def test_hulthen_wavefunction_matches_mr_limit():
    # at alpha = 0, A = 2 mu Z e^2 b / hbar^2 the two constructions coincide
    delta = 0.025
    Z = 1.0  # gives A = 2 b = 80 in atomic units
    p = PotentialParams(A=80.0, alpha=0.0, b=40.0)
    s = QuantumState.from_label("3p")
    wf = build_radial_wavefunction(p, s)
    for r in (0.5, 3.0, 17.0, 60.0):
        hv = hulthen_wavefunction(Z, delta, U, s, r)
        assert hv == pytest.approx(radial_value(wf, r), rel=1e-12)


def test_hulthen_wavefunction_normalized_and_guarded():
    val, err = si.quad(
        lambda r: hulthen_wavefunction(1.0, 0.025, U, QuantumState(n=1, l=1), r) ** 2,
        0.0, 4000.0, limit=400,
    )
    assert val == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(NoBoundStateError):
        hulthen_wavefunction(1.0, 3.0, U, QuantumState.from_label("2p"), 1.0)


def test_radial_wavefunction_validation():
    with pytest.raises(DomainError):
        RadialWavefunction(
            state=QuantumState(n=0, l=1), epsilon=-1.0, Lambda=1.0, b=40.0, norm=1.0
        )
    with pytest.raises(DomainError):
        RadialWavefunction(
            state=QuantumState(n=0, l=1), epsilon=1.0, Lambda=1.0, b=-4.0, norm=1.0
        )
