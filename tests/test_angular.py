import math

import numpy as np
import pytest
from scipy.integrate import quad

import knads.angular as angular_mod
from knads.angular import (
    DEFAULT_MATCHING_POINT,
    MAX_MESH_INTERVALS,
    NotLimitPoint,
    WindowTooWide,
    amplitude_weight,
    angular_eigenvalues,
    eigenvalues_by_label,
    illinois_batched,
    mesh_intervals,
    prufer_rhs,
    shoot_angular,
)
from knads.angular import _defect
from knads.geometry import BlackHoleParams
from knads.operators import ModeContext, angular_matrix, dirac_d
from knads.rk import fit_line

SPHERE = BlackHoleParams(m=1.0, a=0.0, q_e=0.0, q_m=0.0, l=1.0)
ROTATING = BlackHoleParams(m=1.0, a=0.35, q_e=0.1, q_m=0.0, l=1.0)
PMAG = BlackHoleParams(m=1.1, a=0.2, q_e=0.0, q_m=0.5, l=1.0)


def test_sphere_spectrum_is_integer():
    # round-sphere check: plus/minus (j + |k| + 1/2), here k = 1/2
    ctx = ModeContext(mu=0.0, e=0.0, k=0.5)
    sw = angular_eigenvalues(SPHERE, ctx, (-4.5, 4.5))
    assert sw.count == 8
    want = [-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0]
    assert np.max(np.abs(np.array(sw.eigenvalues) - want)) < 1e-8
    assert sw.labels == (-4, -3, -2, -1, 1, 2, 3, 4)
    assert max(sw.residuals) < 1e-8


def test_sphere_higher_wave_number():
    ctx = ModeContext(mu=0.0, e=0.0, k=1.5)
    sw = angular_eigenvalues(SPHERE, ctx, (-3.5, 3.5))
    assert np.max(np.abs(np.abs(sw.eigenvalues) - [3.0, 2.0, 2.0, 3.0])) < 1e-8


def test_sphere_omega_independent():
    # frequency enters only through a*omega
    ctx0 = ModeContext(mu=0.5, e=0.0, k=0.5)
    a = angular_eigenvalues(SPHERE, ctx0, (-2.5, 2.5)).eigenvalues
    b = angular_eigenvalues(SPHERE, ctx0.with_omega(5.0), (-2.5, 2.5)).eigenvalues
    assert np.max(np.abs(np.array(a) - b)) < 1e-10


def test_matching_point_independence():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5, omega=0.7)
    vals = {}
    for c in (1.0, DEFAULT_MATCHING_POINT, 2.0):
        sw = angular_eigenvalues(ROTATING, ctx, (-3.0, 3.0), c=c)
        vals[c] = np.array(sw.eigenvalues)
    assert np.max(np.abs(vals[1.0] - vals[DEFAULT_MATCHING_POINT])) < 1e-9
    assert np.max(np.abs(vals[2.0] - vals[DEFAULT_MATCHING_POINT])) < 1e-9


def test_pole_offset_robustness():
    ctx = ModeContext(mu=0.8, e=0.2, k=-0.5, omega=0.3)
    sw1 = angular_eigenvalues(ROTATING, ctx, (-3.0, 3.0))
    sw2 = angular_eigenvalues(ROTATING, ctx, (-3.0, 3.0), eps=math.pi * 1e-7)
    assert sw1.count == sw2.count
    assert np.max(np.abs(np.array(sw1.eigenvalues) - sw2.eigenvalues)) < 1e-8


def test_eigenvalues_sorted_with_signed_labels():
    ctx = ModeContext(mu=1.0, e=0.1, k=1.5, omega=-0.4)
    sw = angular_eigenvalues(ROTATING, ctx, (-6.0, 6.0))
    ev = np.array(sw.eigenvalues)
    assert np.all(np.diff(ev) > 0)
    assert 0 not in sw.labels
    assert list(sw.labels) == sorted(sw.labels)
    # labels are consecutive once the 0 gap is removed
    squashed = [j + 1 if j < 0 else j for j in sw.labels]
    assert squashed == list(range(squashed[0], squashed[0] + sw.count))


def test_eigenvalues_by_label_matches_window_solve():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5, omega=0.2)
    got = eigenvalues_by_label(ROTATING, ctx, (-2, -1, 1, 2))
    sw = angular_eigenvalues(ROTATING, ctx, (-8.0, 8.0))
    table = dict(zip(sw.labels, sw.eigenvalues))
    for j, lam in got.items():
        assert lam == pytest.approx(table[j], abs=1e-9)


def test_not_limit_point_refusal_and_override():
    # fractional d = q_m e / xi with the exceptional index selected
    ctx = ModeContext(mu=1.0, e=1.0, k=0.5)
    assert 0.5 < dirac_d(PMAG, ctx) < 0.55
    with pytest.raises(NotLimitPoint):
        angular_eigenvalues(PMAG, ctx, (-2.0, 2.0))
    sw = angular_eigenvalues(PMAG, ctx, (-2.0, 2.0), beta_left=math.pi / 4)
    assert sw.count > 0
    assert max(sw.residuals) < 1e-8


def test_not_limit_point_refusal_and_override_at_pi():
    # the theta = pi mirror: k = -1/2 puts rho0 = k + d near 0.021
    ctx = ModeContext(mu=1.0, e=1.0, k=-0.5)
    assert 0.0 < ctx.k + dirac_d(PMAG, ctx) < 0.05
    with pytest.raises(NotLimitPoint):
        angular_eigenvalues(PMAG, ctx, (-2.0, 2.0))
    sw = angular_eigenvalues(PMAG, ctx, (-2.0, 2.0), beta_right=-math.pi / 4)
    assert sw.count == 3
    assert max(sw.residuals) < 1e-8


def test_frobenius_exponent_recovered_from_trace():
    # amplitude near each pole grows like theta^|exponent|
    ctx = ModeContext(mu=1.0, e=1.92, k=1.5)
    d = dirac_d(PMAG, ctx)
    assert d == pytest.approx(1.0, abs=1e-14)
    lam = eigenvalues_by_label(PMAG, ctx, (1,))[1]
    _, _, (lt, rt) = shoot_angular(PMAG, ctx, lam)
    sel = lt.thetas < 3e-3
    slope, _ = fit_line(np.log(lt.thetas[sel]), lt.log_rhos[sel])
    assert slope == pytest.approx(abs(ctx.k - d), abs=1e-3)
    alphas = math.pi - rt.thetas
    sel = alphas < 3e-3
    slope, _ = fit_line(np.log(alphas[sel]), rt.log_rhos[sel])
    assert slope == pytest.approx(abs(ctx.k + d), abs=1e-3)


def test_defect_monotone_and_pi_anchored():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5)
    lams = np.linspace(-3.0, 3.0, 25)
    dv = _defect(ROTATING, ctx, lams, DEFAULT_MATCHING_POINT, math.pi * 1e-6, None, None)
    assert np.all(np.diff(dv) > 0)
    sw = angular_eigenvalues(ROTATING, ctx, (-3.0, 3.0))
    # defect passes a multiple of pi at each eigenvalue
    de = _defect(
        ROTATING, ctx, np.array(sw.eigenvalues), DEFAULT_MATCHING_POINT,
        math.pi * 1e-6, None, None,
    )
    assert np.max(np.abs(de / math.pi - np.round(de / math.pi))) < 1e-9


def test_batched_frequency_offsets_match_scalar_runs():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5, omega=0.4)
    lams = np.array([-1.3, 0.9, 2.1])
    offs = np.array([-0.25, 0.0, 0.6])
    dv = _defect(ROTATING, ctx, lams, DEFAULT_MATCHING_POINT, math.pi * 1e-6,
                 None, None, domega=offs)
    for lam, dw, want in zip(lams, offs, dv):
        one = _defect(ROTATING, ctx.with_omega(0.4 + dw), np.array([lam]),
                      DEFAULT_MATCHING_POINT, math.pi * 1e-6, None, None)
        assert want == pytest.approx(one[0], abs=1e-8)


def test_window_validation():
    ctx = ModeContext(mu=1.0, e=0.0, k=0.5)
    with pytest.raises(ValueError):
        angular_eigenvalues(SPHERE, ctx, (2.0, -2.0))


def test_prufer_rhs_printed_form():
    ctx = ModeContext(mu=0.7, e=0.3, k=1.5, omega=0.9, gauge_b=0.2)
    p = PMAG
    rng = np.random.default_rng(7)
    for _ in range(20):
        th = rng.uniform(0.05, math.pi - 0.05)
        eta = rng.uniform(-4.0, 4.0)
        lam = rng.uniform(-3.0, 3.0)
        mat = angular_matrix(p, ctx, th)
        sq = math.sqrt(1.0 - (p.a / p.l) ** 2 * math.cos(th) ** 2)
        s, c = math.sin(eta), math.cos(eta)
        want = (
            lam / sq
            + 2.0 * p.a * ctx.mu * math.cos(th) * s * c
            + mat[0, 0] * (s * s - c * c)
        )
        got = prufer_rhs(p, ctx, th, eta, lam)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert prufer_rhs(p, ctx, th, eta + math.pi, lam) == pytest.approx(got)


def test_amplitude_weight_identities():
    ctx = ModeContext(mu=1.0, e=0.1, k=1.5)
    assert amplitude_weight(ROTATING, ctx, DEFAULT_MATCHING_POINT) == pytest.approx(1.0)
    ths = np.linspace(0.2, math.pi - 0.2, 9)
    ek = amplitude_weight(ROTATING, ctx, ths)
    emk = amplitude_weight(ROTATING, ModeContext(mu=1.0, e=0.1, k=-1.5), ths)
    assert np.max(np.abs(ek * emk - 1.0)) < 1e-12

    def density(t):
        dth = 1.0 - (ROTATING.a / ROTATING.l) ** 2 * math.cos(t) ** 2
        return -ctx.k * ROTATING.xi / (dth * math.sin(t))

    for th in (0.4, 1.2, 2.6):
        val, err = quad(density, DEFAULT_MATCHING_POINT, th, epsabs=1e-13)
        assert amplitude_weight(ROTATING, ctx, th) == pytest.approx(
            math.exp(val), rel=1e-10
        )

    with pytest.raises(ValueError):
        amplitude_weight(PMAG, ctx, 1.0)
    with pytest.raises(ValueError):
        amplitude_weight(ROTATING, ctx, math.pi)


def test_illinois_batched_cubics_stop_per_item():
    # the bisect_batched cubics: f(x) = (x - s)^3 + (x - s), root at s
    shifts = np.array([-1.7, 0.0, 0.3, 2.9])

    def fun(x, idx):
        d = x - shifts[idx]
        return d**3 + d

    lo, hi = shifts - 2.0, shifts + 3.0
    roots, res = illinois_batched(fun, lo, hi, fun(lo, np.arange(4)), fun(hi, np.arange(4)), 1e-12)
    assert np.max(np.abs(roots - shifts)) < 1e-12
    assert np.array_equal(res, fun(roots, np.arange(4)))
    # each item is frozen on its own bracket: alone it gives the same bits
    for i in range(4):
        k = np.array([i])
        one = illinois_batched(lambda x, idx: fun(x, k[idx]), lo[k], hi[k],
                               fun(lo[k], k), fun(hi[k], k), 1e-12)
        assert one[0][0] == roots[i] and one[1][0] == res[i]


def test_defect_rows_do_not_depend_on_their_batch():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5, omega=0.4)
    lams = np.array([-3.1, -0.2, 0.9, 2.6])
    offs = np.array([0.3, -0.1, 0.0, 0.45])
    dv = _defect(ROTATING, ctx, lams, DEFAULT_MATCHING_POINT, math.pi * 1e-6,
                 None, None, domega=offs)
    for i in range(lams.size):
        one = _defect(ROTATING, ctx, lams[i:i + 1], DEFAULT_MATCHING_POINT,
                      math.pi * 1e-6, None, None, domega=offs[i:i + 1])
        assert one[0] == dv[i]


def test_magnus_mesh_converges_at_sixth_order():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5, omega=0.5)
    lams = np.linspace(-4.0, 4.0, 9)

    def d(n):
        return _defect(ROTATING, ctx, lams, DEFAULT_MATCHING_POINT, math.pi * 1e-6,
                       None, None, n=n)

    d128, d256, d512 = d(128), d(256), d(512)
    ratio = np.max(np.abs(d256 - d128)) / np.max(np.abs(d512 - d256))
    assert 40.0 < ratio < 100.0  # 2^6 = 64 per halving of the interval


def test_trace_nodes_and_mesh_estimate():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5, omega=0.2)
    lam = eigenvalues_by_label(ROTATING, ctx, (1,))[1]
    left, right, traces = shoot_angular(ROTATING, ctx, lam)
    n = mesh_intervals(ROTATING, ctx, abs(lam))
    for tr, end in zip(traces, (left, right)):
        assert tr.thetas.size == tr.etas.size == tr.log_rhos.size == n + 1
        assert tr.etas[-1] == end
        assert tr.thetas[-1] == pytest.approx(DEFAULT_MATCHING_POINT, rel=1e-14)
        assert tr.max_jump() < math.pi / 2
        assert 0.0 <= tr.tol_achieved < 1e-8
    assert (left - right) / math.pi == pytest.approx(round((left - right) / math.pi), abs=1e-9)


def test_mesh_cap_refuses_before_sampling():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5)
    before = angular_mod._magnus_tables.cache_info()
    with pytest.raises(WindowTooWide, match=r"1e\+06.*intervals"):
        angular_eigenvalues(ROTATING, ctx, (1e6, 1e6 + 1.0))
    assert angular_mod._magnus_tables.cache_info() == before
    assert mesh_intervals(ROTATING, ctx, 4.0) <= MAX_MESH_INTERVALS
    with pytest.raises(WindowTooWide):
        mesh_intervals(ROTATING, ctx, math.inf)
