import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

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
from knads.oracle import load_fixtures
from knads.radial import _RADIAL_LAYOUT

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
    slope, _ = np.polyfit(np.log(lt.thetas[sel]), lt.log_rhos[sel], 1)
    assert slope == pytest.approx(abs(ctx.k - d), abs=1e-3)
    alphas = math.pi - rt.thetas
    sel = alphas < 3e-3
    slope, _ = np.polyfit(np.log(alphas[sel]), rt.log_rhos[sel], 1)
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
    # Each Omega block is one matrix product; a single row is padded to two
    # columns, as numpy hands a one-column product to gemv, whose sums may
    # round differently from gemm's.
    rng = np.random.default_rng(11)
    lams, offs = rng.uniform(-4.0, 4.0, 480), rng.uniform(-0.5, 0.5, 480)
    args = (DEFAULT_MATCHING_POINT, math.pi * 1e-6, None, None)
    wide = _defect(ROTATING, ctx, lams, *args, domega=offs)
    for start in (0, 7, 250, 477):
        for size in (1, 2, 3):
            rows = slice(start, start + size)
            got = _defect(ROTATING, ctx, lams[rows], *args, domega=offs[rows])
            assert np.array_equal(got, wide[rows]), (start, size)


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


def test_graded_mesh_never_needs_more_intervals_than_the_uniform_one():
    # The mesh uniform in t took, per side reaching distance x, the smallest
    # power of two >= max(1024, log(x / eps) * rate / 0.1) with the rate bound
    # rate = x L + sigma x / sin(x).
    c, eps = DEFAULT_MATCHING_POINT, math.pi * 1e-6
    for case in load_fixtures()["angular"]:
        p = BlackHoleParams(**case["params"])
        for k in (0.5, 1.5, 4.5, 10.5, 30.5):
            ctx = ModeContext(**dict(case["ctx"], k=math.copysign(k, case["ctx"]["k"])))
            sigma = abs(dirac_d(p, ctx)) * (1.0 + abs(ctx.gauge_b)) + k
            for lam in (1.0, 6.0, 50.0):
                rate_l = (lam + abs(ctx.mu) * p.a) / math.sqrt(p.xi) + p.a * abs(ctx.omega) / p.xi
                need = max(
                    math.log(x / eps) * (x * rate_l + sigma * x / math.sin(x)) / 0.1
                    for x in (c, math.pi - c)
                )
                uniform = 2 ** math.ceil(math.log2(max(1024.0, need)))
                assert mesh_intervals(p, ctx, lam) <= uniform, (case["name"], k, lam)


def test_mesh_bound_does_not_depend_on_the_sign_of_a():
    # a < 0 once lowered the bound, so the mesh could fall short of its
    # per-interval phase caps
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5, omega=0.5)
    mirrored = dataclasses.replace(ROTATING, a=-ROTATING.a)
    for lam in (1.0, 5.0, 20.0, 200.0):
        assert mesh_intervals(mirrored, ctx, lam, 0.5) == mesh_intervals(ROTATING, ctx, lam, 0.5)


def test_mesh_cap_refuses_before_sampling():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5)
    before = angular_mod._magnus_tables.cache_info()
    with pytest.raises(WindowTooWide, match=r"1e\+06.*intervals"):
        angular_eigenvalues(ROTATING, ctx, (1e6, 1e6 + 1.0))
    assert angular_mod._magnus_tables.cache_info() == before
    assert mesh_intervals(ROTATING, ctx, 4.0) <= MAX_MESH_INTERVALS
    with pytest.raises(WindowTooWide):
        mesh_intervals(ROTATING, ctx, math.inf)


def _reference_omega(tab, lam, dw, layout):
    """The sixth-order Magnus Omega by the nested commutators, evaluated at
    one (lambda, domega): the per-call formula the tabulated coefficients
    replace. tab[k, f, i] holds the Magnus terms of the rows f of A, row f
    the coefficient of lambda^i domega^j in component comp, (comp, (i, j)) =
    layout[f]."""
    def comm(x, y):
        return (2.0 * (x[2] * y[1] - x[1] * y[2]), 2.0 * (x[2] * y[0] - x[0] * y[2]),
                2.0 * (x[1] * y[0] - x[0] * y[1]))

    def components(t):
        out = [0.0, 0.0, 0.0]
        for row, (comp, (i, j)) in zip(t, layout):
            out[comp] = out[comp] + lam**i * dw**j * row
        return tuple(out)

    a1, a2, a3 = (components(t) for t in tab)
    c1 = comm(a1, a2)
    c2 = comm(a1, tuple(2.0 * u + v for u, v in zip(a3, c1)))
    left = tuple(-20.0 * u - v + w for u, v, w in zip(a1, a3, c1))
    right = tuple(u - v / 60.0 for u, v in zip(a2, c2))
    return np.stack([u + v / 12.0 + w / 240.0 for u, v, w in zip(a1, a3, comm(left, right))])


def _check_omega_table(tab, layout, monomials, rng, zero_dw=False):
    coef = angular_mod._omega_table(tab, layout)
    assert coef.shape == (2, 64, 3, monomials)
    for lam, dw in zip(rng.uniform(-50.0, 50.0, 12), rng.uniform(-4.0, 4.0, 12)):
        dw = 0.0 if zero_dw else dw
        mono = angular_mod._monomials(np.array([lam]), dw, monomials)[:, 0]
        got = np.moveaxis(coef @ mono, -1, 0)
        want = _reference_omega(tab, lam, dw, layout)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (lam, dw)
    return coef


@pytest.mark.parametrize("rows, zero_g3, monomials", [(4, False, 15), (5, False, 15), (5, True, 4)])
def test_tabulated_omega_matches_the_nested_commutators(rows, zero_g3, monomials):
    # 4 rows: the angular tables; a fifth, constant J row; with g3 = 0 only
    # the four pure-lambda monomials remain
    rng = np.random.default_rng(rows)
    tab = 0.02 * rng.standard_normal((3, rows, 2, 64))
    if zero_g3:
        tab[:, 3] = 0.0
    layout = angular_mod._ANGULAR_LAYOUT + ((1, (0, 0)),)
    coef = _check_omega_table(tab, layout[:rows], monomials, rng, zero_g3)
    # Omega has degree <= 3 in lambda and in domega and <= 5 in total: the
    # table raises on a monomial outside those 15, and without the constant J
    # row each component uses 12 of them
    used = np.count_nonzero(np.any(coef != 0.0, axis=(0, 1)), axis=-1)
    assert np.all(used == 12) if rows == 4 else np.all(used <= monomials)


def test_radial_omega_table_is_a_polynomial_in_omega_and_lambda():
    # lambda h0 sigma_z + (omega g1 + g4) J - g2 sigma_x: omega in the first
    # variable, lambda in the second; Omega uses all 15 monomials
    rng = np.random.default_rng(11)
    tab = 0.02 * rng.standard_normal((3, 4, 2, 64))
    coef = _check_omega_table(tab, _RADIAL_LAYOUT, 15, rng)
    assert np.all(np.any(coef != 0.0, axis=(0, 1, 2)))


def test_mesh_refusal_names_the_dominant_term():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5, omega=0.5)
    with pytest.raises(WindowTooWide, match=r"^\|lambda\| <= 1e\+06 needs"):
        mesh_intervals(ROTATING, ctx, 1e6)
    with pytest.raises(WindowTooWide, match=r"^\|mu a\| = 3\.5e\+06 needs"):
        mesh_intervals(ROTATING, dataclasses.replace(ctx, mu=1e7), 1.0)
    with pytest.raises(WindowTooWide, match=r"^\|a\| \(\|omega\| \+ \|domega\|\) <= 3\.5e\+06"):
        mesh_intervals(ROTATING, ctx.with_omega(1e7), 1.0)
    with pytest.raises(WindowTooWide, match=r"^sigma = .* = 1e\+07 needs"):
        mesh_intervals(ROTATING, dataclasses.replace(ctx, k=1e7 + 0.5), 1.0)
    # per item: the message names the item that needs the most
    with pytest.raises(WindowTooWide, match=r"^\|lambda\| <= 2e\+06 needs"):
        mesh_intervals(ROTATING, ctx, np.array([1.0, 2e6, 3.0]), np.zeros(3))


_SIGMA_Z = np.diag([1.0, -1.0])
_J = np.array([[0.0, -1.0], [1.0, 0.0]])
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("z, j, x", [(0.0, 7.3, 0.0), (2.0, -7.3, 1.5)])
def test_sweep_counts_the_half_turns_of_a_long_elliptic_interval(z, j, x):
    # Regression: an interval's phase gain was arg g alone, which loses every
    # full turn: Omega = 7.3 J gained 7.3 - 2 pi. Both cases have q < 0.
    assert z * z + x * x - j * j < 0.0
    tabs = np.array([z, j, x]).reshape(1, 1, 3, 1)
    eta0 = np.array([0.3])
    gain = angular_mod._sweep(tabs, np.zeros(1), 0.0, eta0, False)[0][0] - eta0[0]
    if z == x == 0.0:
        assert gain == j
    # reference: the same exponential in 4,000 steps, each far below pi
    step = expm((z * _SIGMA_Z + j * _J + x * _SIGMA_X) / 4000.0)
    v, want = np.array([math.cos(eta0[0]), math.sin(eta0[0])]), 0.0
    for _ in range(4000):
        w = step @ v
        want += math.atan2(v[0] * w[1] - v[1] * w[0], v @ w)
        v = w
    assert gain == pytest.approx(want, abs=1e-11)


def test_sweep_records_only_the_masked_nodes():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5)
    tabs, _ = angular_mod._magnus_tables(ROTATING, ctx, DEFAULT_MATCHING_POINT, 1e-6 * math.pi, 256)
    lams, eta0 = np.array([0.7, -2.0]), np.array([0.1, 0.2, -0.3, 0.4])
    end, (etas, logs) = angular_mod._sweep(tabs, lams, 0.0, eta0, True)
    mask = np.zeros(257, bool)
    mask[[0, 5, 100, 256]] = True
    end_m, (etas_m, logs_m) = angular_mod._sweep(tabs, lams, 0.0, eta0, mask)
    assert np.array_equal(end_m, end) and np.array_equal(etas_m, etas[mask])
    assert np.array_equal(logs_m, logs[mask])
