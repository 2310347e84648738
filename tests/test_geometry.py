import dataclasses
import fractions
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from knads.geometry import (
    BlackHoleParams,
    NoHorizon,
    OutsideExterior,
    alpha_weight,
    delta_r,
    delta_r_prime,
    delta_theta,
    extremal_mass,
    find_horizons,
    horizon_slope,
    komar,
    reparameterize,
)

from conftest import draw_near_extremal, draw_nonextremal


def quartic_coeffs(p):
    # Delta_r = r^4/l^2 + (1 + a^2/l^2) r^2 - 2 m r + (a^2 + z^2)
    return [1.0 / p.l**2, 0.0, 1.0 + (p.a / p.l) ** 2, -2.0 * p.m, p.a**2 + p.z2]


def test_delta_r_matches_exact_rational_horner():
    # evaluate the quartic with Fraction arithmetic at dyadic points
    p = BlackHoleParams(m=1.25, a=0.375, q_e=0.25, q_m=0.125, l=2.0)
    coeffs = [fractions.Fraction(c).limit_denominator(2**40) for c in quartic_coeffs(p)]
    for r in [0.5, 1.0, 1.75, 2.5, 3.25]:
        rf = fractions.Fraction(r)
        acc = fractions.Fraction(0)
        for c in coeffs:
            acc = acc * rf + c
        assert math.isclose(delta_r(p, r), float(acc), rel_tol=1e-14, abs_tol=1e-14)


def test_roots_match_companion_matrix_oracle(rng):
    for _ in range(40):
        p = draw_nonextremal(rng)
        hd = find_horizons(p)
        roots = np.roots(quartic_coeffs(p))
        real = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)
        assert len(real) >= 2
        assert hd.r_minus == pytest.approx(real[-2], rel=1e-9, abs=1e-11)
        assert hd.r_plus == pytest.approx(real[-1], rel=1e-11)
        # residual at the polished root is at machine scale
        scale = max(abs(c) for c in quartic_coeffs(p)) * max(1.0, hd.r_plus) ** 4
        assert abs(delta_r(p, hd.r_plus)) < 1e-12 * scale


def test_horizons_do_not_depend_on_the_sign_of_a(rng):
    # the bracket once started at a + 1, so -a bisected another interval:
    # r_plus at m = 3, a = +-1.9, l = 2 was 1.4440322190307076 vs ...073
    cases = [BlackHoleParams(m=3.0, a=1.9, l=2.0)] + [draw_nonextremal(rng) for _ in range(200)]
    for p in cases:
        assert find_horizons(dataclasses.replace(p, a=-p.a)) == find_horizons(p)


def test_exterior_positivity(rng):
    for _ in range(10):
        p = draw_nonextremal(rng)
        hd = find_horizons(p)
        rs = hd.r_plus + np.geomspace(1e-8, 50.0, 40)
        assert all(delta_r(p, r) > 0.0 for r in rs)


def test_no_horizon_below_extremal_mass(rng):
    for off in (-1e-4, -0.1):
        p = draw_near_extremal(rng, off)
        with pytest.raises(NoHorizon):
            find_horizons(p)


def test_extremal_mass_boundary_flip(rng):
    # crossing m_ext by +-1e-4 relative flips existence of the horizon pair
    for _ in range(5):
        above = draw_near_extremal(rng, +1e-4)
        hd = find_horizons(above)
        assert hd.r_plus > hd.r_minus
        below = BlackHoleParams(
            m=above.m * (1.0 - 2e-4), a=above.a, q_e=above.q_e, q_m=above.q_m, l=above.l
        )
        with pytest.raises(NoHorizon):
            find_horizons(below)


def test_extremal_mass_against_double_root_newton():
    """2D Newton on (Delta_r, Delta_r') = 0 over (m, r) reproduces the
    closed form."""
    for a, z2, l in [(0.2, 0.01, 1.0), (0.4, 0.09, 1.2), (0.05, 0.0, 0.8)]:
        m, r = 1.0, 0.5
        for _ in range(200):
            p = BlackHoleParams(m=m, a=a, q_e=math.sqrt(z2), q_m=0.0, l=l)
            f1 = delta_r(p, r)
            f2 = delta_r_prime(p, r)
            # d Delta_r / dm = -2r ; d Delta_r' / dm = -2
            j11, j12 = f2, -2.0 * r
            j21 = 12.0 * r * r / l**2 + 2.0 * (1.0 + (a / l) ** 2)
            j22 = -2.0
            det = j11 * j22 - j12 * j21
            dr = (f2 * j12 - f1 * j22) / det
            dm = (f1 * j21 - f2 * j11) / det
            r += dr
            m += dm
            if abs(dr) + abs(dm) < 1e-15:
                break
        assert extremal_mass(a, z2, l) == pytest.approx(m, rel=1e-12)


def test_reparameterize_round_trip(rng):
    for _ in range(50):
        p = draw_nonextremal(rng)
        hd = find_horizons(p)
        m, z2 = reparameterize(hd.r_plus, hd.r_minus, p.a, p.l)
        assert m == pytest.approx(p.m, rel=1e-10)
        assert z2 == pytest.approx(p.z2, rel=1e-10, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    l=st.floats(0.3, 5.0),
    spin=st.floats(0.0, 0.95),
    q_e=st.floats(-1.0, 1.0),
    q_m=st.floats(-1.0, 1.0),
    log10_excess=st.floats(-3.0, 1.0),
)
# The Newton polish once stepped r_minus to -4e-46 here, which reparameterize
# refuses as a negative root.
@example(l=1.0, spin=0.0, q_e=1e-60, q_m=0.0, log10_excess=0.25)
def test_reparameterize_inverts_find_horizons(l, spin, q_e, q_m, log10_excess):
    # Over non-extremal backgrounds, the horizon pair maps back to the mass
    # and to the charge term, which enters the quartic as a^2 + z2 (so it is
    # recovered to the rounding of that coefficient, or of 1).
    a = spin * l
    z2 = q_e * q_e + q_m * q_m
    excess = 10.0**log10_excess  # also above a = z2 = 0, where m_ext = 0
    m = extremal_mass(a, z2, l) * (1.0 + excess) + excess * l
    hd = find_horizons(BlackHoleParams(m=m, a=a, q_e=q_e, q_m=q_m, l=l))
    m_back, z2_back = reparameterize(hd.r_plus, hd.r_minus, a, l)
    assert m_back == pytest.approx(m, rel=1e-12)
    assert abs(z2_back - z2) <= 1e-12 * max(1.0, a * a + z2)


def test_reparameterization_jacobian_positive_and_consistent(rng):
    p = draw_nonextremal(rng)
    hd = find_horizons(p)
    rp, rm = hd.r_plus, hd.r_minus
    # closed form of det d(m, z2)/d(r_plus, r_minus)
    a_p = 3.0 * rp**2 + rm**2 + 2.0 * rp * rm + p.a**2 + p.l**2
    a_m = rp**2 + 3.0 * rm**2 + 2.0 * rp * rm + p.a**2 + p.l**2
    jac = a_p * a_m * (rp - rm) / (2.0 * p.l**4)
    assert jac > 0.0
    # finite-difference determinant agrees
    h = 1e-6
    def mz(rpl, rmn):
        return np.array(reparameterize(rpl, rmn, p.a, p.l))
    col1 = (mz(rp + h, rm) - mz(rp - h, rm)) / (2 * h)
    col2 = (mz(rp, rm + h) - mz(rp, rm - h)) / (2 * h)
    fd = col1[0] * col2[1] - col1[1] * col2[0]
    assert jac == pytest.approx(fd, rel=1e-6)


def test_komar_scalings():
    p = BlackHoleParams(m=1.0, a=0.3, q_e=0.2, q_m=0.1, l=1.0)
    mk, jk, qe, qm = komar(p)
    assert mk == pytest.approx(p.m / p.xi**2)
    assert jk == pytest.approx(p.a * mk)
    assert qe == pytest.approx(p.q_e / p.xi)
    assert qm == pytest.approx(p.q_m / p.xi)
    # J = a M exactly in this parameterization
    assert jk / mk == pytest.approx(p.a, rel=1e-14)


def test_schwarzschild_ads_horizon():
    # r_plus solves r^4/l^2 + r^2 - 2mr = 0; at m=1, l=1: r(1+r^2+r^3 ... )
    p = BlackHoleParams(m=1.0, a=0.0, q_e=0.0, q_m=0.0, l=1.0)
    hd = find_horizons(p)
    assert delta_r(p, hd.r_plus) == pytest.approx(0.0, abs=1e-13)
    assert hd.r_minus == pytest.approx(0.0, abs=1e-12)
    assert hd.r_plus == pytest.approx(1.0, rel=1e-12)  # 1 + 1 - 2 = 0


def test_delta_theta_range():
    p = BlackHoleParams(m=1.0, a=0.5, q_e=0.0, q_m=0.0, l=1.0)
    th = np.linspace(0.0, math.pi, 101)
    vals = np.array([delta_theta(p, t) for t in th])
    assert np.all(vals >= p.xi - 1e-15)
    assert np.all(vals <= 1.0 + 1e-15)
    assert vals[50] == pytest.approx(1.0)  # theta = pi/2


def test_weight_bound_and_domain(rng):
    for _ in range(10):
        p = draw_nonextremal(rng)
        hd = find_horizons(p)
        # sqrt(h(r_plus)) with h(r) = (a^2/l^2)(r^2 + l^2)/(r^2 + a^2)
        h_rplus = (p.a / p.l) ** 2 * (hd.r_plus**2 + p.l**2) / (hd.r_plus**2 + p.a**2)
        bound = math.sqrt(h_rplus)
        assert bound < 1.0
        rs = hd.r_plus + np.geomspace(1e-6, 30.0, 25)
        ths = np.linspace(1e-3, math.pi - 1e-3, 23)
        vals = np.array([[alpha_weight(p, r, t) for t in ths] for r in rs])
        assert vals.max() < bound
        assert h_rplus == pytest.approx(bound**2)
    with pytest.raises(OutsideExterior):
        alpha_weight(p, hd.r_plus * 0.5, 1.0)


def test_horizon_slope_matches_quartic_derivative(rng):
    p = draw_nonextremal(rng)
    hd = find_horizons(p)
    s = horizon_slope(p)
    assert s == pytest.approx((hd.r_plus**2 + p.a**2) / delta_r_prime(p, hd.r_plus))
    assert s > 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        BlackHoleParams(m=1.0, a=1.0, l=1.0)
    with pytest.raises(ValueError):
        BlackHoleParams(m=1.0, a=0.0, l=0.0)
