import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy.integrate import quad

from knads.geometry import (
    BlackHoleParams,
    OutsideExterior,
    delta_r,
    find_horizons,
    horizon_slope,
    reparameterize,
)
from knads.operators import (
    ModeContext,
    _angular_entries,
    _radial_terms,
    confinement_density,
    deviation_norm,
    dirac_d,
    phi_plus,
    sigma_function,
    sqrt_delta_r_from_u,
    tortoise_map,
    tortoise_x,
    tortoise_y,
)

from conftest import draw_nonextremal

P0 = BlackHoleParams(m=1.0, a=0.2, q_e=0.1, q_m=0.0, l=1.0)
CTX0 = ModeContext(mu=1.0, e=0.1, k=0.5)


def extremal_params(r0=0.6, a=0.3, l=1.0, offset=0.0):
    """Background with r_minus = r0 - offset (extremal at offset 0)."""
    m, z2 = reparameterize(r0, r0 - offset, a, l)
    return BlackHoleParams(m=m, a=a, q_e=math.sqrt(z2), q_m=0.0, l=l)


def test_mode_context_half_integer_check():
    ModeContext(mu=1.0, e=0.0, k=-1.5)
    with pytest.raises(ValueError):
        ModeContext(mu=1.0, e=0.0, k=1.0)
    with pytest.raises(ValueError):
        ModeContext(mu=1.0, e=0.0, k=0.4999)


def test_with_omega_preserves_rest():
    c = ModeContext(mu=0.7, e=0.2, k=1.5, gauge_b=0.3).with_omega(2.0)
    assert (c.mu, c.e, c.k, c.omega, c.gauge_b) == (0.7, 0.2, 1.5, 2.0, 0.3)


def test_dirac_d_and_sigma_gauge_shift():
    p = BlackHoleParams(m=1.2, a=0.3, q_e=0.0, q_m=0.5, l=1.0)
    ctx = ModeContext(mu=1.0, e=1.0, k=0.5, gauge_b=0.4)
    d = dirac_d(p, ctx)
    assert d == pytest.approx(p.q_m * ctx.e / p.xi)
    th = 1.1
    base = ModeContext(mu=1.0, e=1.0, k=0.5)
    assert sigma_function(p, ctx, th) == pytest.approx(
        sigma_function(p, base, th) + d * (0.0 - 0.4)
    )


def test_angular_matrix_structure():
    th = 0.9
    m11, m12 = _angular_entries(P0, CTX0.with_omega(1.3), th)
    mat = np.array([[m11, m12], [m12, -m11]])
    assert mat[0, 1] == mat[1, 0]
    assert mat[0, 0] == -mat[1, 1]
    assert mat[0, 1] == pytest.approx(-CTX0.mu * P0.a * math.cos(th))
    dth = 1.0 - (P0.a / P0.l) ** 2 * math.cos(th) ** 2
    want = P0.xi * (-CTX0.k) / (math.sqrt(dth) * math.sin(th)) + (
        P0.a * 1.3 * math.sin(th) / math.sqrt(dth)
    )
    assert mat[0, 0] == pytest.approx(want)


def test_sqrt_delta_r_from_u_matches_direct(rng):
    # away from the root both routes agree tightly; close to it the direct
    # monomial evaluation loses digits to cancellation, so only expect the
    # agreement the quartic's conditioning allows there
    for _ in range(5):
        p = draw_nonextremal(rng)
        hd = find_horizons(p)
        us = np.geomspace(1e-4, 10.0, 20)
        got = sqrt_delta_r_from_u(p, us)
        want = np.sqrt([delta_r(p, hd.r_plus + u) for u in us])
        assert np.max(np.abs(got / want - 1.0)) < 1e-10
        tiny = np.geomspace(1e-10, 1e-5, 10)
        got = sqrt_delta_r_from_u(p, tiny)
        want = np.sqrt([delta_r(p, hd.r_plus + u) for u in tiny])
        assert np.max(np.abs(got / want - 1.0)) < 1e-5
    assert sqrt_delta_r_from_u(p, 0.0) == 0.0


def test_sqrt_delta_r_from_u_leading_order():
    # sqrt(Delta_r) ~ sqrt(Delta_r'(r_plus) u) with a relative correction
    # linear in u; the factored form keeps full precision down to u = 1e-12
    from knads.geometry import delta_r_prime

    hd = find_horizons(P0)
    dpr = delta_r_prime(P0, hd.r_plus)
    for u in (1e-12, 1e-9):
        ratio = float(sqrt_delta_r_from_u(P0, u)) / math.sqrt(dpr * u)
        assert abs(ratio - 1.0) < 5.0 * u / (hd.r_plus - hd.r_minus)


def test_radial_potential_entries():
    lam = 1.7
    hd = find_horizons(P0)
    r = hd.r_plus + 0.8
    diag, conf, off = _radial_terms(P0, CTX0, lam, r - hd.r_plus)
    mat = np.array([[diag + conf, off], [off, diag - conf]])
    assert mat[0, 1] == mat[1, 0]
    sq = math.sqrt(delta_r(P0, r))
    r2a2 = r * r + P0.a**2
    pr = P0.a * P0.xi * CTX0.k + CTX0.e * P0.q_e * r
    assert mat[0, 0] == pytest.approx((pr + CTX0.mu * r * sq) / r2a2)
    assert mat[1, 1] == pytest.approx((pr - CTX0.mu * r * sq) / r2a2)
    assert mat[0, 1] == pytest.approx(lam * sq / r2a2)


def test_radial_potential_horizon_limit():
    # entries approach the diagonal level phi_plus at the sqrt(u) rate set by
    # sqrt(Delta_r); deviation drops by 10x per 100x in u
    ph = phi_plus(P0, CTX0)
    dev = []
    for u in (1e-10, 1e-14, 1e-18):
        diag, conf, v12 = _radial_terms(P0, CTX0, 1.7, u)
        v11, v22 = diag + conf, diag - conf
        assert abs(v11 - ph) < 1e-4
        assert abs(v22 - ph) < 1e-4
        assert v11 - ph == pytest.approx(ph - v22, rel=1e-4)
        dev.append(float(v12))
    assert dev[0] / dev[1] == pytest.approx(100.0, rel=1e-4)
    assert dev[1] / dev[2] == pytest.approx(100.0, rel=1e-4)
    hd = find_horizons(P0)
    assert ph == pytest.approx(
        (P0.a * P0.xi * 0.5 + 0.1 * P0.q_e * hd.r_plus) / (hd.r_plus**2 + P0.a**2)
    )



def test_deviation_norm_scales_its_terms_instead_of_overflowing():
    # Squaring the terms unscaled overflowed for e above about 1.5e155, and
    # knads classify exited 1 on the RuntimeWarning. With a = mu = lambda = 0
    # only the diagonal term is left, and it is e times a fixed profile, so
    # a power-of-two change of e scales the norm exactly.
    p = BlackHoleParams(m=1.0, a=0.0, q_e=0.5, q_m=0.0, l=1.0)
    u = np.geomspace(1e-3, 1e3, 9)
    small = deviation_norm(p, ModeContext(mu=0.0, e=3.0, k=-5.5), 0.0, u)
    big = deviation_norm(p, ModeContext(mu=0.0, e=3.0 * 2.0**515, k=-5.5), 0.0, u)
    assert np.all(np.isfinite(big)) and np.all(small > 0.0)
    assert np.array_equal(big, np.ldexp(small, 515))
    # the Frobenius norm of V - phi_plus I on an ordinary background
    diag, conf, v12 = _radial_terms(P0, CTX0, 1.7, u)
    v11, v22 = diag + conf, diag - conf
    ph = phi_plus(P0, CTX0)
    ref = np.sqrt((v11 - ph) ** 2 + (v22 - ph) ** 2 + 2.0 * v12**2)
    np.testing.assert_allclose(deviation_norm(P0, CTX0, 1.7, u), ref, rtol=1e-12)


def test_confinement_density_tail():
    hd = find_horizons(P0)
    rs = np.geomspace(10.0, 1e6, 12)
    assert hd.r_plus < 10.0
    vals = rs * confinement_density(P0, CTX0, rs)
    # r * mu r / sqrt(Delta_r) -> mu l
    assert vals[-1] == pytest.approx(CTX0.mu * P0.l, rel=1e-10)
    assert np.all(np.diff(np.abs(vals - CTX0.mu * P0.l)) < 0.0)


def test_tortoise_round_trip_nonextremal(rng):
    for _ in range(3):
        p = draw_nonextremal(rng)
        tm = tortoise_map(p)
        rs = tm.r_plus + np.geomspace(1e-10, 1e4, 60)
        ys = tm.y(rs)
        assert np.all(np.diff(ys) < 0.0)
        back = tm.r_plus + tm.u_of_y(ys)
        assert np.max(np.abs(back / rs - 1.0)) < 1e-9
        # and the u-level inverse holds even where r - r_plus is tiny
        lu = tm.log_u_of_y(ys)
        assert np.max(np.abs(lu - np.log(rs - tm.r_plus))) < 1e-8


def test_tortoise_horizon_slope_and_far_field():
    tm = tortoise_map(P0)
    s = horizon_slope(P0)
    assert tm.slope == pytest.approx(s, rel=1e-13)
    # compare against the u values actually representable after adding r_plus
    r1, r2 = tm.r_plus + 1e-9, tm.r_plus + 1e-12
    u1, u2 = r1 - tm.r_plus, r2 - tm.r_plus
    dy = tm.y(r2) - tm.y(r1)
    assert dy == pytest.approx(s * math.log(u1 / u2), rel=1e-9)
    # y ~ l^2 / r at large radius
    r = 1e8
    assert tortoise_y(P0, r) * r / P0.l**2 == pytest.approx(1.0, rel=1e-6)
    assert tortoise_x(P0, r) == -tortoise_y(P0, r)


def test_tortoise_extremal_branch():
    p = extremal_params()
    hd = find_horizons(p)
    assert hd.extremal
    tm = tortoise_map(p)
    a_inf = tm._a_inf
    u = 1e-8
    assert tm.y(tm.r_plus + u) * u == pytest.approx(a_inf, rel=1e-5)
    rs = tm.r_plus + np.geomspace(1e-9, 1e3, 40)
    ys = tm.y(rs)
    back = tm.r_plus + tm.u_of_y(ys)
    assert np.max(np.abs(back / rs - 1.0)) < 1e-9
    with pytest.raises(ValueError):
        horizon_slope(p)


@pytest.mark.parametrize("r0", [0.6, 0.95])
def test_tortoise_extremal_linear_extension_near_r_plus(r0):
    # Closest to an extremal horizon the map continues linearly in
    # v = 1/(r - r_plus), so y ~ a_inf / u there: one ulp above r_plus, y is
    # twice its value two ulps above. r0 = 0.6 is criterion 6's background;
    # at r0 = 0.95 two floats lie on the linear branch.
    tm = tortoise_map(extremal_params(r0))
    rs = [tm.r_plus]
    for _ in range(6):
        rs.append(np.nextafter(rs[-1], np.inf))
    rs = np.array(rs[1:])
    ys = tm.y(rs)
    u = rs - tm.r_plus
    assert ys[0] == pytest.approx(ys[1] * u[1] / u[0], rel=1e-6)
    assert np.all(np.diff(ys) < 0)


def test_tortoise_map_cached():
    assert tortoise_map(P0) is tortoise_map(P0)


def test_outside_exterior_raises():
    tm = tortoise_map(P0)
    with pytest.raises(OutsideExterior):
        tm.y(tm.r_plus)
    with pytest.raises(ValueError):
        tm.log_u_of_y(-1.0)


def _dyds(p, s):
    """dy/ds = -u (r^2 + a^2) / Delta_r at u = e^s, through the factored
    Delta_r (accurate near the horizon)."""
    u = math.exp(s)
    r = find_horizons(p).r_plus + u
    return -u * (r * r + p.a**2) / float(sqrt_delta_r_from_u(p, u)) ** 2


def _seams(tm):
    """s values where y_of_s switches branch."""
    seams = [tm.s_lo, tm.s_hi]
    if tm.extremal:
        seams.append(-math.log(tm.v_hi))
    return seams


@pytest.mark.parametrize("p", [P0, extremal_params()], ids=["P0", "extremal"])
def test_y_of_s_matches_y_and_is_continuous_at_the_seams(p):
    tm = tortoise_map(p)
    rs = tm.r_plus + tm.r_plus * np.geomspace(1e-15, 1e4 - 1.0, 400)
    seam_r = [tm.r_plus + math.exp(s + d) for s in _seams(tm) for d in (-1e-9, 0.0, 1e-9)]
    rs = np.sort(np.concatenate([rs, seam_r]))
    ys = tm.y_of_s(np.log(rs - tm.r_plus))
    assert np.max(np.abs(ys / tm.y(rs) - 1.0)) < 1e-13
    # Across each seam the branches join: the increment of y matches the
    # quadrature of dy/ds over a unit interval around it.
    for seam in _seams(tm):
        lo, hi = seam - 0.5, seam + 0.5
        want, _ = quad(lambda s: _dyds(p, s), lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
        got = tm.y_of_s(hi) - tm.y_of_s(lo)
        assert got == pytest.approx(want, rel=1e-10)


def _tail_reference(p, r):
    """y(r) past the bulk by quad in v = 1/t, where (t^2 + a^2) / Delta_t dt
    becomes (1 + a^2 v^2) / (v^4 Delta_r(1/v)) dv."""

    def g(v):
        w = (1.0 + (p.a * v) ** 2) * (1.0 + (p.l * v) ** 2) / p.l**2 - 2.0 * p.m * v**3 + p.z2 * v**4
        return (1.0 + (p.a * v) ** 2) / w

    return quad(g, 0.0, 1.0 / r, epsabs=0.0, epsrel=1.2e-14, limit=200)[0]


def _y_reference(p, tm, ss):
    """y at each s of ss: the tail quadrature at s_hi plus piecewise quad of
    -dy/ds, summed from s_hi downwards over pieces at most 1 wide."""
    inner = np.asarray([s for s in ss if s < tm.s_hi])
    knots = np.unique(np.concatenate([inner, np.arange(tm.s_hi, inner.min(), -1.0)]))[::-1]
    pieces = [
        quad(lambda s: -_dyds(p, s), lo, hi, epsabs=0.0, epsrel=1.2e-14, limit=200)[0]
        for hi, lo in zip(knots[:-1], knots[1:])
    ]
    y_hi = _tail_reference(p, tm.r_plus + math.exp(tm.s_hi))
    ys = dict(zip(knots[1:], y_hi + np.cumsum(pieces)))
    return np.array([ys[s] if s < tm.s_hi else _tail_reference(p, tm.r_plus + math.exp(s)) for s in ss])


@pytest.mark.parametrize(
    "p",
    [P0, extremal_params(0.6, offset=1e-4), extremal_params()],
    ids=["P0", "near-extremal", "extremal"],
)
def test_y_of_s_matches_a_quadrature_reference(p):
    # The panel table against piecewise quad over the bulk, both sides of
    # every seam and the extremal v-branch. The seam points stay within
    # 1e-9 of it: the linear branch past a non-extremal s_lo drops a
    # relative (r - r_plus) / (r_plus - r_minus) of dy/ds, 1e-8 at offset
    # 1e-4, which is not the table's error.
    tm = tortoise_map(p)
    s_min = -math.log(tm.v_hi) if tm.extremal else tm.s_lo
    ss = np.linspace(s_min, tm.s_hi + 3.0, 41)
    near = [s + d * max(1.0, abs(s)) for s in _seams(tm) for d in (-1e-9, 1e-9)]
    ss = np.concatenate([ss, near])
    want = _y_reference(p, tm, ss)
    assert np.max(np.abs(tm.y_of_s(ss) / want - 1.0)) < 1e-14


@pytest.mark.parametrize("p", [P0, extremal_params()], ids=["P0", "extremal"])
def test_tortoise_maps_do_not_depend_on_the_batch(p):
    # 4,000 points over every branch, split into batches of 1, 7 and the rest.
    tm = tortoise_map(p)
    s_bottom = -700.0 if tm.extremal else -800.0
    ss = np.random.default_rng(3).permutation(np.linspace(s_bottom, tm.s_hi + 30.0, 4000))
    ys = tm.y_of_s(ss)
    for f, xs in ((tm.y_of_s, ss), (tm.log_u_of_y, ys)):
        whole = f(xs)
        parts = np.concatenate([f(xs[:1]), f(xs[1:8]), f(xs[8:])])
        assert np.array_equal(whole, parts)
    # The far branch (s >= s_hi, the tail quadrature), one point at a time.
    far = np.linspace(tm.s_hi, tm.s_hi + 30.0, 601)
    for f, xs in ((tm.y_of_s, far), (tm.log_u_of_y, tm.y_of_s(far))):
        assert np.array_equal(f(xs), [f(x) for x in xs])


@pytest.mark.parametrize("p", [P0, extremal_params()], ids=["P0", "extremal"])
def test_y_of_s_decreasing_round_trip_and_finite(p):
    tm = tortoise_map(p)
    s_top = math.log(1e4 * tm.r_plus)
    if not tm.extremal:
        # far below where e^s underflows (s < -745) the map is linear in s
        s_bottom = -1e6
    else:
        # y ~ a_inf e^(-s) here, which leaves the float range once
        # s < log(a_inf) - 709.8; stay just above that
        s_bottom = -700.0
    ss = np.concatenate([np.linspace(s_bottom, -50.0, 200), np.linspace(-50.0, s_top, 400)[1:]])
    ys = tm.y_of_s(ss)
    assert np.all(np.isfinite(ys)) and np.all(ys > 0.0)
    assert np.all(np.diff(ys) < 0.0)
    if not tm.extremal:
        deep = np.array([-800.0, -1e4, -1e6])
        assert np.array_equal(
            tm.y_of_s(deep), tm.y_at_s_lo + tm.slope * (tm.s_lo - deep)
        )
    back = tm.log_u_of_y(ys)
    assert np.max(np.abs(back - ss) / np.maximum(1.0, np.abs(ss))) < 1e-9
    assert np.max(np.abs(tm.y_of_s(back) / ys - 1.0)) < 1e-12


@pytest.mark.parametrize("p", [P0, extremal_params()], ids=["P0", "extremal"])
@settings(max_examples=200, deadline=None)
@given(log10_y=st.floats(-100.0, 100.0))
def test_log_u_of_y_round_trips(p, log10_y):
    # Seeded from the table, from the linear branch past s_lo, or by
    # extrapolating off either end of the table, the Newton loop lands on
    # the y it was given.
    tm = tortoise_map(p)
    y = 10.0**log10_y
    assert tm.y_of_s(tm.log_u_of_y(y)) == pytest.approx(y, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [P0, extremal_params()], ids=["P0", "extremal"])
@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(-15.0, 6.0),
    dr=st.floats(-12.0, 0.0),
    s=st.floats(-700.0, 40.0),
    ds=st.floats(-9.0, -1.0),
)
def test_y_strictly_decreasing_on_every_branch(p, t, dr, s, ds):
    # r runs from a few ulps above r_plus (the linear branch past s_lo, or
    # the dense v-branch of an extremal horizon) through the bulk into the
    # far tail; s also reaches the extremal v > v_hi branch that no float r
    # resolves.
    tm = tortoise_map(p)
    r1 = tm.r_plus * (1.0 + 10.0**t)
    r2 = r1 * (1.0 + 10.0**dr)
    assert tm.y(r1) > tm.y(r2)
    s2 = s + 10.0**ds * max(1.0, abs(s))
    assert tm.y_of_s(s) > tm.y_of_s(s2) > 0.0
