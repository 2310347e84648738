import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

import knads.angular as angular_mod
import knads.magnus as magnus
from knads.angular import (
    DEFAULT_MATCHING_POINT,
    NotLimitPoint,
    amplitude_weight,
    angular_eigenvalues,
    eigenvalues_by_label,
    mesh_intervals,
)
from knads.angular import _defect
from knads.classify import angular_exponents
from knads.geometry import BlackHoleParams, InputError, Refusal, delta_theta
from knads.magnus import MAX_MESH_INTERVALS, WindowTooWide
from knads.operators import ModeContext, _angular_entries, dirac_d, sigma_function, tortoise_map
from knads.oracle import load_fixtures
from knads.radial import _RADIAL_LAYOUT, DEFAULT_DELTA, _radial_tables, default_r0

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
    # The k / sin(theta) rate is hyperbolic and sets no mesh, so large |k|
    # solves on the mesh its window needs.
    sw = angular_eigenvalues(SPHERE, ModeContext(mu=0.0, e=0.0, k=300.5), (300.75, 303.75))
    assert np.max(np.abs(np.array(sw.eigenvalues) - [301.0, 302.0, 303.0])) < 1e-8
    # No eigenvalue below |k| + 1/2. The pole intervals reach s of about 805,
    # past the overflow of cosh s near 710; the suite turns RuntimeWarnings
    # into errors.
    assert angular_eigenvalues(SPHERE, ModeContext(mu=0.0, e=0.0, k=1000.5), (-4.5, 4.5)).count == 0


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


def test_eigenvalues_by_label_matches_window_solve(monkeypatch):
    # At mu a = 14 the eigenvalues of labels +-9 (about +-13.8) lie outside
    # the first window (-11.57, 11.57), so the grid pass runs again on the
    # doubled window before the items are solved.
    ctx = ModeContext(mu=40.0, e=0.1, k=0.5, omega=0.2)
    windows = []

    def spied(defect, lo, hi, n, cause):
        windows.append((lo, hi))
        return brackets(defect, lo, hi, n, cause)

    brackets = angular_mod.window_brackets
    monkeypatch.setattr(angular_mod, "window_brackets", spied)
    got = eigenvalues_by_label(ROTATING, ctx, (-9, -2, -1, 1, 2, 9))
    assert windows == [(-11.57, 11.57), (-23.14, 23.14)]
    sw = angular_eigenvalues(ROTATING, ctx, (-16.0, 16.0))
    table = dict(zip(sw.labels, sw.eigenvalues))
    assert list(got) == [-9, -2, -1, 1, 2, 9]
    for j, lam in got.items():
        assert lam == pytest.approx(table[j], abs=1e-9)


@pytest.mark.parametrize("labels", [[], [0, 1], (0,), [1.5, -2.9], [1.5, -0.7]])
def test_eigenvalues_by_label_refuses_empty_or_zero_labels_before_solving(monkeypatch, labels):
    # Fractional labels were truncated: [1.5, -2.9] returned labels {-2, 1},
    # and [1.5, -0.7] was refused as "got [0, 1]".
    def no_defect(*args, **kwargs):
        raise AssertionError("a defect was evaluated")

    monkeypatch.setattr(angular_mod, "_defect", no_defect)
    with pytest.raises(InputError, match="nonzero integers") as refused:
        eigenvalues_by_label(ROTATING, ModeContext(mu=1.0, e=0.1, k=0.5), labels)
    assert str(refused.value).endswith(f"got {sorted(set(labels))}")


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
    # both sides recorded on the eigenvalue's own mesh, from the recessive
    # phases at theta = eps and pi - eps
    c, eps = DEFAULT_MATCHING_POINT, angular_mod.DEFAULT_EPSILON
    n = mesh_intervals(PMAG, ctx, abs(lam))
    tabs = angular_mod._magnus_tables(PMAG, ctx, c, eps, n)
    exponents = angular_exponents(ctx.k, d, ctx.gauge_b)
    eta0 = np.array([sign * angular_mod._frobenius_init(x, lam, ctx.mu * PMAG.a, PMAG.xi, eps)
                     for sign, x in zip((1.0, -1.0), exponents)])
    _, (etas, log_rhos) = magnus.sweep(tabs, np.array([lam]), 0.0, eta0, True)
    assert np.max(np.abs(np.diff(etas, axis=0))) < math.pi / 2  # per interval
    grade, e0 = magnus.GRADE, eps ** (1.0 / magnus.GRADE)
    for side, ((_, _, x), want) in enumerate(zip(angular_mod._sides(c), (ctx.k - d, ctx.k + d))):
        # distance to the pole at the nodes, uniform in its (1 / GRADE)th power
        dist = (e0 + (x ** (1.0 / grade) - e0) * np.linspace(0.0, 1.0, n + 1)) ** grade
        sel = dist < 3e-3
        slope, _ = np.polyfit(np.log(dist[sel]), log_rhos[sel, side], 1)
        assert slope == pytest.approx(abs(want), abs=1e-3)


def test_defect_monotone_and_pi_anchored():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5)
    lams = np.linspace(-3.0, 3.0, 25)
    dv = _defect(ROTATING, ctx, lams, DEFAULT_MATCHING_POINT, math.pi * 1e-6, None, None, 0.0,
                 mesh_intervals(ROTATING, ctx, np.abs(lams)))
    assert np.all(np.diff(dv) > 0)
    sw = angular_eigenvalues(ROTATING, ctx, (-3.0, 3.0))
    # defect passes a multiple of pi at each eigenvalue
    ev = np.array(sw.eigenvalues)
    de = _defect(ROTATING, ctx, ev, DEFAULT_MATCHING_POINT, math.pi * 1e-6, None, None, 0.0,
                 mesh_intervals(ROTATING, ctx, np.abs(ev)))
    assert np.max(np.abs(de / math.pi - np.round(de / math.pi))) < 1e-9


def test_batched_frequency_offsets_match_scalar_runs():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5, omega=0.4)
    lams = np.array([-1.3, 0.9, 2.1])
    offs = np.array([-0.25, 0.0, 0.6])
    dv = _defect(ROTATING, ctx, lams, DEFAULT_MATCHING_POINT, math.pi * 1e-6,
                 None, None, offs, mesh_intervals(ROTATING, ctx, np.abs(lams), offs))
    for lam, dw, want in zip(lams, offs, dv):
        one = _defect(ROTATING, ctx.with_omega(0.4 + dw), np.array([lam]),
                      DEFAULT_MATCHING_POINT, math.pi * 1e-6, None, None, 0.0,
                      mesh_intervals(ROTATING, ctx.with_omega(0.4 + dw), abs(lam)))
        assert want == pytest.approx(one[0], abs=1e-8)


def test_window_validation():
    ctx = ModeContext(mu=1.0, e=0.0, k=0.5)
    with pytest.raises(ValueError):
        angular_eigenvalues(SPHERE, ctx, (2.0, -2.0))


def test_prufer_rhs_printed_form():
    # the paper's printed phase equation agrees with the production entry M11
    def prufer_rhs(p, ctx, theta, eta, lam):
        """H = lambda/sqrt(Delta_theta) + (2 a mu cos(theta)) sin(eta) cos(eta)
        + [xi sigma_b/(sqrt(Delta_theta) sin(theta))
           + a omega sin(theta)/sqrt(Delta_theta)] (sin^2(eta) - cos^2(eta))."""
        sq = math.sqrt(delta_theta(p, theta))
        sig = sigma_function(p, ctx, theta)
        s, c = math.sin(eta), math.cos(eta)
        return (
            lam / sq
            + (2.0 * p.a * ctx.mu * math.cos(theta)) * s * c
            + (p.xi * sig / (sq * math.sin(theta)) + p.a * ctx.omega * math.sin(theta) / sq)
            * (s * s - c * c)
        )

    ctx = ModeContext(mu=0.7, e=0.3, k=1.5, omega=0.9, gauge_b=0.2)
    p = PMAG
    rng = np.random.default_rng(7)
    for _ in range(20):
        th = rng.uniform(0.05, math.pi - 0.05)
        eta = rng.uniform(-4.0, 4.0)
        lam = rng.uniform(-3.0, 3.0)
        m11, _ = _angular_entries(p, ctx, th)
        sq = math.sqrt(1.0 - (p.a / p.l) ** 2 * math.cos(th) ** 2)
        s, c = math.sin(eta), math.cos(eta)
        want = (
            lam / sq
            + 2.0 * p.a * ctx.mu * math.cos(th) * s * c
            + m11 * (s * s - c * c)
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


def test_defect_rows_do_not_depend_on_their_batch():
    # k = 30.5 and 1000.5 put most pole intervals on the hyperbolic branch,
    # the latter at s up to about 805.
    for k in (0.5, 30.5, 1000.5):
        ctx = ModeContext(mu=1.0, e=0.1, k=k, omega=0.4)
        lams = np.array([-3.1, -0.2, 0.9, 2.6])
        offs = np.array([0.3, -0.1, 0.0, 0.45])
        n = mesh_intervals(ROTATING, ctx, np.abs(lams), offs)
        dv = _defect(ROTATING, ctx, lams, DEFAULT_MATCHING_POINT, math.pi * 1e-6,
                     None, None, offs, n)
        for i in range(lams.size):
            one = _defect(ROTATING, ctx, lams[i:i + 1], DEFAULT_MATCHING_POINT,
                          math.pi * 1e-6, None, None, offs[i:i + 1], n[i:i + 1])
            assert one[0] == dv[i], k
        # Every Omega product has one shape per table: a row's bits depend
        # only on its own values, whether it sweeps alone, in a pair or in a
        # wide batch.
        rng = np.random.default_rng(11)
        lams, offs = rng.uniform(-4.0, 4.0, 480), rng.uniform(-0.5, 0.5, 480)
        args = (DEFAULT_MATCHING_POINT, math.pi * 1e-6, None, None)
        n = mesh_intervals(ROTATING, ctx, np.abs(lams), offs)
        wide = _defect(ROTATING, ctx, lams, *args, offs, n)
        assert np.all(np.isfinite(wide)), k
        for start in (0, 7, 250, 477):
            for size in (1, 2, 3):
                rows = slice(start, start + size)
                got = _defect(ROTATING, ctx, lams[rows], *args, offs[rows], n[rows])
                assert np.array_equal(got, wide[rows]), (k, start, size)
        # Rows are padded to a multiple of 8 columns, so no row falls in a
        # narrower tail product: check the rows past 480 of a 487-row batch,
        # alone and in pairs.
        lams, offs = rng.uniform(-4.0, 4.0, 487), rng.uniform(-0.5, 0.5, 487)
        n = mesh_intervals(ROTATING, ctx, np.abs(lams), offs)
        wide = _defect(ROTATING, ctx, lams, *args, offs, n)
        for start in range(480, 487):
            for size in (1, 2):
                rows = slice(start, min(start + size, 487))
                got = _defect(ROTATING, ctx, lams[rows], *args, offs[rows], n[rows])
                assert np.array_equal(got, wide[rows]), (k, start, size)


@pytest.mark.parametrize("table", ["angular", "radial leg"])
def test_sweep_rows_do_not_depend_on_their_batch(table):
    # Each row of a sweep, batched at every size and place, equals its
    # one-row sweep bit for bit: end phases, recorded phases and amplitudes.
    rng = np.random.default_rng(15)
    pool = 600
    if table == "angular":
        ctx = ModeContext(mu=1.0, e=0.1, k=0.5, omega=0.4)
        tabs = angular_mod._magnus_tables(ROTATING, ctx, DEFAULT_MATCHING_POINT, math.pi * 1e-6, 256)
        values = rng.uniform(-4.0, 4.0, pool), rng.uniform(-0.5, 0.5, pool)
    else:
        tm = tortoise_map(ROTATING)
        sc = float(tm.log_u_of_y(0.5 * tm.y(default_r0(ROTATING))))
        leg = ("exp", float(tm.log_u_of_y(DEFAULT_DELTA)), sc)
        tabs = _radial_tables(ROTATING, ModeContext(mu=1.0, e=0.1, k=0.5), (leg,), 512)
        values = rng.uniform(-3.0, 3.0, pool), rng.uniform(-3.0, 3.0, pool)
    sides = tabs.shape[0]
    eta0 = rng.uniform(-math.pi, math.pi, (sides, pool))

    def sweep(k):
        end, (etas, logs) = magnus.sweep(tabs, values[0][k], values[1][k],
                                               eta0[:, k].ravel(), True)
        return [v.reshape(v.shape[:-1] + (sides, k.size)) for v in (end, etas, logs)]

    alone = [sweep(np.array([i])) for i in range(pool)]
    for size in [*range(1, 71), 100, 243, 486, 487]:
        k = int(rng.integers(0, pool - size + 1)) + np.arange(size)
        for got, want in zip(sweep(k), zip(*(alone[i] for i in k))):
            assert np.array_equal(got, np.concatenate(want, axis=-1)), size


def test_magnus_mesh_converges_at_sixth_order():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5, omega=0.5)
    lams = np.linspace(-4.0, 4.0, 9)

    def d(n):
        return _defect(ROTATING, ctx, lams, DEFAULT_MATCHING_POINT, math.pi * 1e-6,
                       None, None, 0.0, n)

    d128, d256, d512 = d(128), d(256), d(512)
    ratio = np.max(np.abs(d256 - d128)) / np.max(np.abs(d512 - d256))
    assert 40.0 < ratio < 100.0  # 2^6 = 64 per halving of the interval


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


@pytest.mark.parametrize(
    "omega, dom, want, triangle",
    [
        (1.5, -0.7, [256] * 5 + [512] * 2, [256] * 4 + [512] * 3),  # a negative offset
        (-1.5, 2.5, [256] * 5 + [512] * 2, [256] * 4 + [512] * 2 + [1024]),  # across omega = 0
        (1.5, -4.5, [256] * 4 + [512] * 2 + [1024], [256] * 3 + [512] * 3 + [1024]),  # to -3
        (-1.5, 0.0, [256] * 5 + [512] * 2, [256] * 5 + [512] * 2),  # no offset, no change
    ],
)
def test_mesh_intervals_take_the_signed_offset_exactly(omega, dom, want, triangle):
    # The frequency term of the rate is a (omega + domega) sin(theta) /
    # sqrt(Delta_theta), bounded by |a| |omega + domega|, the item's own
    # frequency. The triangle inequality's |a| (|omega| + |domega|) gave
    # `triangle`; at domega = 0 the two agree.
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5, omega=omega)
    lam = np.array([0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0])
    got = mesh_intervals(ROTATING, ctx, lam, dom)
    assert got.tolist() == want
    assert np.array_equal(got, mesh_intervals(ROTATING, ctx.with_omega(omega + dom), lam, 0.0))
    assert mesh_intervals(ROTATING, ctx.with_omega(abs(omega) + abs(dom)), lam).tolist() == triangle
    # per item, each row gets the mesh of its own signed offset
    assert np.array_equal(mesh_intervals(ROTATING, ctx, lam, np.full(lam.size, dom)), got)


def test_refused_refinement_names_sigma():
    # sigma = |d| (1 + |b|) + |k| sets no a-priori mesh; when the doubling
    # reaches the cap, the refusal names it beside the lambda bound.
    p = dataclasses.replace(SPHERE, q_m=0.5)
    with pytest.raises(WindowTooWide, match=r"\|lambda\| <= 4\.5 and sigma = .* = 5e\+09 stays"):
        angular_eigenvalues(p, ModeContext(mu=0.0, e=1e10, k=-5.5), (-4.5, 4.5))


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
    coef = magnus.omega_table(tab, layout)
    assert coef.shape == (2, 64, 3, monomials)
    for lam, dw in zip(rng.uniform(-50.0, 50.0, 12), rng.uniform(-4.0, 4.0, 12)):
        dw = 0.0 if zero_dw else dw
        mono = magnus._monomials(np.array([lam]), dw, monomials)[:, 0]
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
    with pytest.raises(WindowTooWide, match=r"^\|a\| \|omega \+ domega\| <= 3\.5e\+06"):
        mesh_intervals(ROTATING, ctx.with_omega(1e7), 1.0)
    # sigma = |d| (1 + |b|) + |k| is a hyperbolic rate and enters no mesh
    # rule; only past the float range of a pole interval's Omega is it refused
    assert mesh_intervals(ROTATING, dataclasses.replace(ctx, k=1e7 + 0.5), 1.0) == mesh_intervals(
        ROTATING, ctx, 1.0)
    with pytest.raises(Refusal, match=r"^sigma = .* = 5\.20833e\+30 is above 1e\+30"):
        mesh_intervals(PMAG, dataclasses.replace(ctx, e=1e31), 1.0)
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
    gain = magnus.sweep(tabs, np.zeros(1), 0.0, eta0, False)[0][0] - eta0[0]
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


def _mixed_omega(q, rng):
    """(z, j, x), all nonzero and of the scale sqrt(|q|), for which _sweep's
    q = z z + x x - j j is exactly q in floating point."""
    for _ in range(1000):
        z, x = math.sqrt(abs(q)) * rng.uniform(*((0.8, 1.2) if q > 0 else (0.5, 0.7)), 2)
        j0 = math.sqrt(z * z + x * x - q)
        for j in j0 + np.spacing(j0) * np.arange(-8, 9):
            if z * z + x * x - j * j == q:
                return z, float(j), x
    raise AssertionError(f"no (z, j, x) gives q = {q!r}")


_EXPM_SIZES = [1e-300, 1e-8, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 2.0, 50.0]


@pytest.mark.parametrize(
    "size, sign", [(size, sign) for size in _EXPM_SIZES for sign in (1.0, -1.0)] + [(900.0, 1.0)]
)
def test_sweep_exponential_matches_expm(size, sign):
    # |q| <= 1 takes the series for sinh(s)/s, |q| > 1 the scaled hyperbolic
    # form I + (tanh(s)/s) Omega or the half-turn cos/sin fallback: on both
    # sides of the switch, and at hyperbolic s = 30, one interval's phase
    # gain and log amplitude match scipy's expm.
    z, j, x = _mixed_omega(sign * size, np.random.default_rng(int(1e3 * size)))
    eta0 = 0.3
    end, (_, logs) = magnus.sweep(np.array([z, j, x]).reshape(1, 1, 3, 1), np.zeros(1),
                                        0.0, np.array([eta0]), True)
    # reference: expm of Omega / steps, applied steps times, each turn below
    # pi and each s below 1 (expm of Omega itself is off by 4e-13 in the log
    # amplitude at q = 50, and 8 steps by 2.5e-12 at q = 900)
    steps = 8 * math.ceil(math.sqrt(size) / 8.0)
    step = expm((z * _SIGMA_Z + j * _J + x * _SIGMA_X) / steps)
    v, gain = np.array([math.cos(eta0), math.sin(eta0)]), 0.0
    for _ in range(steps):
        v, prev = step @ v, v
        gain += math.atan2(prev[0] * v[1] - prev[1] * v[0], prev @ v)
    assert end[0] - eta0 == pytest.approx(gain, rel=1e-15, abs=1e-15)
    assert logs[-1, 0] == pytest.approx(math.log(math.hypot(*v)), rel=1e-15, abs=1e-15)


def test_sweep_exponential_past_the_overflow_of_cosh():
    # Omega = s sigma_x from eta = 0 maps (1, 0) to (cosh s, sinh s): eta =
    # atan(tanh s) and log rho = log cosh(2 s) / 2 = s - log(2) / 2 + O(e^-4s).
    # At s = 800 cosh s overflows; the sweep carries exp(Omega) / cosh s.
    s = 800.0
    end, (etas, logs) = magnus.sweep(np.array([0.0, 0.0, s]).reshape(1, 1, 3, 1),
                                           np.zeros(1), 0.0, np.zeros(1), True)
    assert end[0] == etas[-1, 0] == pytest.approx(math.atan(math.tanh(s)), rel=1e-15)
    assert logs[-1, 0] == pytest.approx(s - 0.5 * math.log(2.0), rel=1e-15)


def test_sweep_exponential_of_a_mixed_batch_is_row_exact():
    # One block in which every interval holds rows on both sides of |q| = 1
    # and of both signs: each row swept alone gives the same bits.
    # Omega = (j0 + 2 + u lambda) sigma_z + (j0 + u lambda) J + x0 sigma_x has
    # q = 2 (2 j0 + 2 + 2 u lambda) + x0^2, linear in lambda.
    rng = np.random.default_rng(16)
    n, rows = 8, 48
    j0, u = rng.uniform(-1.2, -0.8, n), rng.uniform(0.8, 1.2, n)
    tabs = np.zeros((1, n, 3, 2))
    tabs[0, :, :, 0] = np.stack([j0 + 2.0, j0, rng.uniform(-0.5, 0.5, n)], axis=1)
    tabs[0, :, :2, 1] = u[:, None]
    lams = np.linspace(-4.0, 4.0, rows)
    om = tabs[0, :, :, :1] + tabs[0, :, :, 1:] * lams  # (n, 3, rows)
    q = om[:, 0] ** 2 + om[:, 2] ** 2 - om[:, 1] ** 2
    assert np.all(np.any(np.abs(q) <= 1.0, axis=1)) and np.all(np.any(q > 1.0, axis=1))
    assert np.all(np.any(q < -math.pi**2, axis=1))  # past a half turn
    eta0 = rng.uniform(-math.pi, math.pi, rows)
    end, (etas, logs) = magnus.sweep(tabs, lams, 0.0, eta0, True)
    for i in range(rows):
        one, (etas1, logs1) = magnus.sweep(tabs, lams[i:i + 1], 0.0, eta0[i:i + 1], True)
        assert one[0] == end[i] and np.array_equal(etas1[:, 0], etas[:, i])
        assert np.array_equal(logs1[:, 0], logs[:, i])


def test_sweep_records_only_the_masked_nodes():
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5)
    tabs = angular_mod._magnus_tables(ROTATING, ctx, DEFAULT_MATCHING_POINT, 1e-6 * math.pi, 256)
    lams, eta0 = np.array([0.7, -2.0]), np.array([0.1, 0.2, -0.3, 0.4])
    end, (etas, logs) = magnus.sweep(tabs, lams, 0.0, eta0, True)
    mask = np.zeros(257, bool)
    mask[[0, 5, 100, 256]] = True
    end_m, (etas_m, logs_m) = magnus.sweep(tabs, lams, 0.0, eta0, mask)
    assert np.array_equal(end_m, end) and np.array_equal(etas_m, etas[mask])
    assert np.array_equal(logs_m, logs[mask])
