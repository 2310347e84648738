import collections
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import knads.radial as radial_mod
from knads.angular import NotLimitPoint
from knads.geometry import BlackHoleParams, Refusal, find_horizons, reparameterize
from knads.magnus import WindowTooWide, solve_window
from knads.modescan import coupled_scan
from knads.oracle import discretize_radial_confined
from knads.operators import (
    ModeContext,
    TortoiseMap,
    gauss_segments,
    phi_plus,
    radial_potential_from_u,
    tortoise_map,
)
from knads.radial import (
    DEFAULT_DELTA,
    NotConfining,
    TooCloseToPhiPlus,
    _defect_hinf,
    _infinity_init,
    confinement_certificate,
    default_r0,
    hinf_eigenvalues,
    horizon_ac_certificate,
    horizon_continuation_evidence,
    horizon_oscillation,
    infinity_growth_exponents,
    levinson_phi_plus,
)

from conftest import SEED, draw_nonextremal

P0 = BlackHoleParams(m=1.0, a=0.3, q_e=0.2, q_m=0.0, l=1.0)
CTX = ModeContext(mu=1.0, e=0.1, k=0.5)
LAM = 1.0


def extremal_params(r0=0.6, a=0.3, l=1.0):
    m, z2 = reparameterize(r0, r0, a, l)
    return BlackHoleParams(m=m, a=a, q_e=math.sqrt(z2), q_m=0.0, l=l)


@pytest.fixture(scope="module")
def wide_sw():
    # level spacing here is ~ pi / |x(r0)| ~ 10, so +-25 holds several
    return hinf_eigenvalues(P0, CTX, LAM, window=(-25.0, 25.0))


def test_hinf_window_labels_residuals(wide_sw):
    sw = wide_sw
    assert sw.count == len(sw.eigenvalues) > 2
    ev = np.array(sw.eigenvalues)
    assert np.all(np.diff(ev) > 0)
    assert 0 not in sw.labels and list(sw.labels) == sorted(sw.labels)
    assert max(sw.residuals) < 1e-8
    # positive labels start at the first eigenvalue above zero
    pos = [lam for lam, j in zip(sw.eigenvalues, sw.labels) if j == 1]
    assert pos and pos[0] > 0.0
    assert all(lam < 0 for lam, j in zip(sw.eigenvalues, sw.labels) if j < 0)


def test_hinf_against_fixture_value():
    # independently discretized value for the same confined problem
    sw = hinf_eigenvalues(P0, CTX, LAM, window=(0.5, 1.5))
    assert sw.count == 1
    assert sw.eigenvalues[0] == pytest.approx(1.0346836026292294, abs=1e-4)


def test_confined_solves_across_the_family_match_the_oracle():
    # Criterion 7's tolerance away from its three fixtures: mu*l up to 6,
    # |k| up to 4.5 and |lambda| up to 5, each on the larger _leg_intervals
    # mesh of its two sides, refined only where the n/2 check asks.
    rng = np.random.default_rng(SEED + 31)
    window = (-15.0, 15.0)
    for _ in range(12):
        p = draw_nonextremal(rng)
        ctx = ModeContext(mu=rng.uniform(0.5, 6.0) / p.l, e=rng.uniform(-0.5, 0.5),
                          k=float(rng.choice([-1.5, -0.5, 0.5, 1.5, 4.5])))
        lam = rng.uniform(-5.0, 5.0)
        sw = hinf_eigenvalues(p, ctx, lam, window=window)
        ref = discretize_radial_confined(p, ctx, lam, default_r0(p), 4000).eigenvalues_in_window(*window)
        assert sw.count == ref.size, (p, ctx, lam)
        assert np.max(np.abs(np.array(sw.eigenvalues) - ref), initial=0.0) < 1e-4, (p, ctx, lam)


def test_infinity_offset_robustness():
    a = hinf_eigenvalues(P0, CTX, LAM, window=(-2.0, 2.0), delta=1e-5)
    b = hinf_eigenvalues(P0, CTX, LAM, window=(-2.0, 2.0), delta=1e-6)
    assert a.count == b.count
    assert np.max(np.abs(np.array(a.eigenvalues) - b.eigenvalues)) < 1e-8


def test_empty_window(wide_sw):
    gaps = np.diff(wide_sw.eigenvalues)
    i = int(np.argmax(gaps))
    lo = wide_sw.eigenvalues[i] + 0.2 * gaps[i]
    hi = wide_sw.eigenvalues[i + 1] - 0.2 * gaps[i]
    empty = hinf_eigenvalues(P0, CTX, LAM, window=(lo, hi))
    assert empty.count == 0 and empty.eigenvalues == ()


def test_refusals():
    with pytest.raises(NotConfining):
        hinf_eigenvalues(P0, ModeContext(mu=0.0, e=0.1, k=0.5), LAM)
    light = ModeContext(mu=0.4, e=0.1, k=0.5)
    with pytest.raises(NotLimitPoint):
        hinf_eigenvalues(P0, light, LAM)
    sw = hinf_eigenvalues(P0, light, LAM, beta_infinity=math.pi / 4)
    assert sw.count > 0
    with pytest.raises(ValueError):
        hinf_eigenvalues(P0, CTX, LAM, r0=1e8)


@pytest.mark.parametrize(
    "p, r0, named",
    [
        (P0, 1e8, "r0 = 1e+08 has y(r0) = "),
        # r_plus is about 1.7e5 l here, so r_plus + l sits at y ~ 2.7 delta
        (BlackHoleParams(m=2403036285557493.0, a=0.0, q_e=1.0, l=1.0), None,
         "the default r0 = r_plus + l = 168758.6 has y(r0) = 2.67e-05"),
    ],
    ids=["config_r0", "default_r0"],
)
def test_confined_solve_and_evidence_share_one_r0_guard(p, r0, named):
    # both sweep the infinity leg from y = DEFAULT_DELTA to r0
    with pytest.raises(Refusal) as solve:
        hinf_eigenvalues(p, CTX, LAM, r0=r0)
    with pytest.raises(Refusal) as evidence:
        horizon_continuation_evidence(p, CTX, [LAM], [0.0], r0=r0)
    assert str(solve.value) == str(evidence.value)
    assert str(solve.value).startswith(named)
    assert str(solve.value).endswith("not above 20 times the infinity cutoff y = 1e-05")


def test_horizon_ac_certificate_nonextremal():
    cert = horizon_ac_certificate(P0, CTX, LAM)
    assert cert.kind == "Hor_AC_L1"
    assert cert.passed
    assert cert.evidence["tail_ratio"] < 0.05
    ints = cert.evidence["integral_Y"]
    # exponential decay toward the horizon: the integral has fully converged
    # by Y = 1e2 (tails vanish at double precision)
    assert 0.0 < ints[1e2] <= ints[1e3] <= ints[1e4]
    assert ints[1e4] - ints[1e3] <= ints[1e3] - ints[1e2]


def test_horizon_ac_certificate_extremal():
    p = extremal_params()
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5)
    cert = horizon_ac_certificate(p, ctx, LAM)
    assert cert.kind == "Extremal_Cesaro"
    assert cert.passed
    assert cert.evidence["l1_diverges"]
    ces = cert.evidence["cesaro_Y"]
    assert ces[1e4] < ces[1e3] < ces[1e2]
    # deviation ~ 1/y: Cesaro mean falls off almost like 1/Y
    assert cert.evidence["decay_rate"] < -0.5


def test_levinson_certificate():
    cert = levinson_phi_plus(P0, CTX, LAM)
    assert cert.kind == "Levinson_phi_plus"
    assert cert.passed
    assert max(cert.evidence["asymptotic_rel_change"]) < 1e-4
    assert cert.evidence["min_norm_over_traces"] > 0.5
    assert cert.evidence["rbar_l1_cauchy_tail"] < 0.05
    final = np.array(cert.evidence["final_vectors"])
    assert np.linalg.norm(final, axis=1).min() > 0.5
    with pytest.raises(ValueError):
        levinson_phi_plus(extremal_params(), CTX, LAM)


def test_oscillation_slopes_antisymmetric():
    ph = phi_plus(P0, CTX)
    up = horizon_oscillation(P0, CTX, LAM, ph + 0.5)
    dn = horizon_oscillation(P0, CTX, LAM, ph - 0.5)
    for rep, want in ((up, 0.5), (dn, -0.5)):
        assert rep.passed
        assert rep.evidence["expected"] == pytest.approx(want, abs=1e-14)
        assert rep.evidence["rel_err"] < 1e-6
        assert rep.evidence["radius_ratio"] < 10.0
    assert up.evidence["slope"] == pytest.approx(-dn.evidence["slope"], rel=1e-6)


def test_oscillation_guards():
    ph = phi_plus(P0, CTX)
    with pytest.raises(TooCloseToPhiPlus):
        horizon_oscillation(P0, CTX, LAM, ph + 1e-7)
    with pytest.raises(ValueError):
        horizon_oscillation(extremal_params(), CTX, LAM, 1.0)


def test_confinement_certificate():
    cert = confinement_certificate(P0, CTX)
    assert cert.kind == "Hinf_discrete"
    assert cert.passed
    target = CTX.mu * P0.l * math.log(10.0)
    assert cert.evidence["per_decade_integrals"][-1] == pytest.approx(
        target, rel=1e-2
    )
    assert cert.evidence["r_times_density_at_far"] == pytest.approx(
        CTX.mu * P0.l, rel=1e-2
    )
    with pytest.raises(NotConfining):
        confinement_certificate(P0, ModeContext(mu=0.0, e=0.1, k=0.5))


def test_infinity_growth_exponents():
    mul = CTX.mu * P0.l
    for lam, omega in ((1.0, 0.3), (-0.7, 1.1)):
        plus, minus = infinity_growth_exponents(P0, CTX, lam, omega)
        assert plus == pytest.approx(mul, rel=1e-2)
        assert minus == pytest.approx(-mul, rel=1e-2)


def test_growth_exponents_across_the_family():
    # Criterion 3's 1e-2 away from its two tested modes: 12 backgrounds with
    # mu*l in [0.5, 2] and |e| <= 0.3, at three modes up to |lambda| = 3 and
    # |omega| = 2.
    rng = np.random.default_rng(7)
    ks = (0.5, -0.5, 1.5, -1.5, 4.5)
    for i in range(12):
        p = draw_nonextremal(rng)
        mul = rng.uniform(0.5, 2.0)
        ctx = ModeContext(mu=mul / p.l, e=rng.uniform(-0.3, 0.3), k=ks[i % 5])
        for lam, omega in ((1.0, 0.3), (-0.5, 1.0), (3.0, -2.0)):
            plus, minus = infinity_growth_exponents(p, ctx, lam, omega)
            assert plus == pytest.approx(mul, rel=1e-2), (p, ctx, lam, omega)
            assert minus == pytest.approx(-mul, rel=1e-2), (p, ctx, lam, omega)


def test_horizon_continuation_evidence_batch():
    ph = phi_plus(P0, CTX)
    lams = np.array([1.0, 1.0, -0.5])
    omegas = ph + np.array([0.8, -1.1, 0.4])
    slopes, amps, decays, got_ph = horizon_continuation_evidence(
        P0, CTX, lams, omegas
    )
    assert got_ph == pytest.approx(ph)
    assert np.max(np.abs(slopes - (omegas - ph)) / np.abs(omegas - ph)) < 1e-3
    # oscillatory continuation: amplitude never collapses at the horizon
    assert np.all(amps > 1e-3)
    # recessive branch decays like t^(mu l) toward infinity
    assert np.max(np.abs(decays - CTX.mu * P0.l)) < 0.05


def _linear_continuation_amplitudes(p, ctx, lams, omegas, y_far=1e3, delta=DEFAULT_DELTA):
    """min |X_i(y >= 0.1 y_far)| / |X_i(y(r0))| per row i for the
    recessive-at-infinity solution of dX/dy = -A X, with X = rho (cos eta,
    sin eta) and dX/dx = A X = [[V12, V22 - omega], [omega - V11, -V12]] X,
    by solve_ivp on the linear system itself (log y toward r0, then y toward
    y_far). The rows are stacked into one system of 2 * rows components, so
    each step maps u_of_y once for every row."""

    tm = tortoise_map(p)

    def minus_a(y, x):
        v11, v22, v12 = radial_potential_from_u(p, ctx, lams, tm.u_of_y(y))
        x0, x1 = x.reshape(-1, 2).T
        dx = np.column_stack([v12 * x0 + (v22 - omegas) * x1, (omegas - v11) * x0 - v12 * x1])
        return -dx.ravel()

    y0 = tm.y(default_r0(p))
    eta = _infinity_init(p, ctx, lams, omegas, delta)
    leg1 = solve_ivp(
        lambda tau, x: math.exp(tau) * minus_a(math.exp(tau), x),
        (math.log(delta), math.log(y0)),
        np.column_stack([np.cos(eta), np.sin(eta)]).ravel(),
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
    )
    x0 = leg1.y[:, -1]
    ys = np.linspace(0.1 * y_far, y_far, 2001)
    leg2 = solve_ivp(
        minus_a, (y0, y_far), x0, method="DOP853", rtol=1e-10, atol=1e-12, t_eval=ys
    )
    norms = np.linalg.norm(leg2.y.reshape(lams.size, 2, -1), axis=1)
    return norms.min(axis=1) / np.linalg.norm(x0.reshape(-1, 2), axis=1)


def test_continuation_amplitude_matches_linear_system():
    # Regression: the horizon leg once kept the x-picture sign of
    # d(log rho)/dy, which reported the reciprocal of the true ratio.
    ph = phi_plus(P0, CTX)
    lams = np.array([1.0, 1.0, -0.5])
    omegas = ph + np.array([0.8, -1.1, 0.4])
    _, amps, _, _ = horizon_continuation_evidence(P0, CTX, lams, omegas)
    assert amps == pytest.approx(_linear_continuation_amplitudes(P0, CTX, lams, omegas), rel=1e-6)


def test_default_r0():
    assert default_r0(P0) == pytest.approx(find_horizons(P0).r_plus + P0.l)
    tm = tortoise_map(P0)
    assert tm.x(default_r0(P0)) < -0.1


@pytest.fixture
def inverse_calls(monkeypatch):
    """Counts TortoiseMap.u_of_y and log_u_of_y calls by name."""
    calls = collections.Counter()
    for name in ("u_of_y", "log_u_of_y"):
        orig = getattr(TortoiseMap, name)

        def counted(self, y, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, y)

        monkeypatch.setattr(TortoiseMap, name, counted)
    return calls


def test_tortoise_inverse_is_off_the_radial_hot_path(inverse_calls):
    legs = _legs(P0)
    inverse_calls.clear()
    _defect_hinf(P0, CTX, LAM, np.linspace(-3.0, 3.0, 9), legs, DEFAULT_DELTA, None, 256)
    assert not inverse_calls

    # Every other path maps its endpoints once, however wide the window or
    # the batch.
    def count(fn):
        inverse_calls.clear()
        fn()
        return dict(inverse_calls)

    ph = phi_plus(P0, CTX)
    runs = [
        [count(lambda: hinf_eigenvalues(P0, CTX, LAM, window=w)) for w in ((-1.0, 1.0), (-12.0, 12.0))],
        [count(lambda: horizon_oscillation(P0, CTX, LAM, ph + d)) for d in (0.5, -2.0)],
        [
            count(lambda: horizon_continuation_evidence(P0, CTX, np.ones(n), ph + np.linspace(0.3, 1.0, n)))
            for n in (1, 12)
        ],
    ]
    for a, b in runs:
        assert a == b and a.get("u_of_y", 0) == 0 and a["log_u_of_y"] <= 3

    # The certificates place the Gauss nodes of their deviation integrals in
    # one u_of_y call (one log_u_of_y inside it), and Levinson maps its
    # checkpoints in one more; the steps of its integration map nothing.
    for cert in (levinson_phi_plus, horizon_ac_certificate):
        a, b = [count(lambda: cert(P0, CTX, lam)) for lam in (1.0, 3.0)]
        assert a == b and a["u_of_y"] == 1 and a["log_u_of_y"] <= 2


def _legs(p, delta=DEFAULT_DELTA):
    """The two legs of hinf_eigenvalues' shooting setup with the default r0,
    from r0 and from y = delta to y(r0) / 2."""
    tm, r0 = tortoise_map(p), default_r0(p)
    sc = float(tm.log_u_of_y(0.5 * tm.y(r0)))
    return ("exp", math.log(r0 - tm.r_plus), sc), ("exp", float(tm.log_u_of_y(delta)), sc)


def test_defect_rows_do_not_depend_on_their_batch():
    # The adaptive stepper controlled the error of the worst batch member,
    # so a row's last bits depended on the rest of the batch.
    legs = _legs(P0)
    omegas = np.linspace(-3.0, 3.0, 9)
    rest = (DEFAULT_DELTA, None, 256)
    batch = _defect_hinf(P0, CTX, LAM, omegas, legs, *rest)
    alone = [_defect_hinf(P0, CTX, LAM, [w], legs, *rest)[0] for w in omegas]
    assert np.array_equal(batch, alone)
    # Every Omega product has one shape per table: a row's bits depend only
    # on its own values, whether it sweeps alone or in a wide batch.
    omegas = np.random.default_rng(5).uniform(-3.0, 3.0, 480)
    wide = _defect_hinf(P0, CTX, LAM, omegas, legs, *rest)
    for start in (0, 7, 250, 477):
        for size in (1, 2, 3):
            rows = slice(start, start + size)
            assert np.array_equal(_defect_hinf(P0, CTX, LAM, omegas[rows], legs, *rest), wide[rows])


def test_confining_term_sets_no_mesh_on_the_infinity_leg():
    # The confining sigma_x term grows toward infinity, but it is hyperbolic
    # where A is nearly constant: at mu = 6 and delta = 1e-6 both legs keep
    # the floor of 256 intervals, and the eigenvalue matches a forced n =
    # 4,096 solve.
    p = BlackHoleParams(m=1.0, a=0.2, q_e=0.1, q_m=0.0, l=1.0)
    ctx, delta = ModeContext(mu=6.0, e=0.1, k=0.5), 1e-6
    legs = _legs(p, delta)
    assert [int(radial_mod._leg_intervals(p, ctx, leg, [5.0], [LAM])[0]) for leg in legs] == [256, 256]
    sw = hinf_eigenvalues(p, ctx, LAM, delta=delta)

    def defect(omegas, n):
        return _defect_hinf(p, ctx, LAM, omegas, legs, delta, None, n)

    ref = solve_window(defect, -5.0, 5.0, 1e-10, 4096, "the reference")
    assert sw.count == ref.count >= 1
    assert np.max(np.abs(np.array(sw.eigenvalues) - ref.eigenvalues)) < 1e-12


def test_mesh_refusal_names_omega_or_the_potential():
    before = radial_mod._radial_tables.cache_info()
    with pytest.raises(WindowTooWide, match=r"^\|omega\| = 1e\+06 needs"):
        hinf_eigenvalues(P0, CTX, LAM, window=(1e6 - 1.0, 1e6))
    with pytest.raises(WindowTooWide, match=r"^the radial potential at lambda = 1 needs"):
        hinf_eigenvalues(P0, ModeContext(mu=1.0, e=1e9, k=0.5), LAM)
    assert radial_mod._radial_tables.cache_info() == before


def test_magnus_defect_converges_at_sixth_order(wide_sw):
    legs = _legs(P0)
    omegas = np.linspace(-25.0, 25.0, 7)
    ref = _defect_hinf(P0, CTX, LAM, omegas, legs, DEFAULT_DELTA, None, 4096)
    err = [np.max(np.abs(_defect_hinf(P0, CTX, LAM, omegas, legs, DEFAULT_DELTA, None, n) - ref))
           for n in (16, 32, 64, 256)]
    assert err[0] / err[1] > 40.0 and err[1] / err[2] > 40.0  # 2^6 = 64
    assert err[3] < 1e-12
    assert wide_sw.mesh_error < 1e-10


def test_levinson_segments_resolve_the_confining_deviation():
    # Regression: the segments once came from the 2x2 matrix
    # [[-V12, ph - V22], [V11 - ph, V12]], whose entries cancel to 0 once
    # mu r sqrt(Delta_r) / (r^2 + a^2) drops below an ulp of phi_plus, so deep
    # segments lost the confining term (27% low on P0). Near the horizon the
    # norm is sqrt(2 (1 + lambda^2 / (mu r)^2)) * confine to O(u).
    cert = levinson_phi_plus(P0, CTX, LAM)
    segs = np.array(cert.evidence["rbar_l1_segments"])
    breaks = np.geomspace(1.0, 1e4, 17)
    tm = tortoise_map(P0)

    def leading(y):
        u = tm.u_of_y(y)
        _, _, v12 = radial_potential_from_u(P0, CTX, LAM, u)
        conf = CTX.mu * (tm.r_plus + u) * v12 / LAM
        return np.sqrt(2.0 * (conf**2 + v12**2))

    deep = (tm.u_of_y(breaks[:-1]) < 1e-20) & (segs > 0.0)
    assert deep.sum() >= 3
    want = gauss_segments(leading, breaks)
    assert segs[deep] == pytest.approx(want[deep], rel=1e-12, abs=0.0)


def test_gauss_segments_match_a_per_segment_loop():
    # Every segment's nodes go through f in one call; the per-segment sums
    # must match one call per segment up to the summation order.
    nodes, weights = np.polynomial.legendre.leggauss(64)
    breaks = np.geomspace(1.0, 1e4, 17)
    f = lambda y: np.exp(-0.01 * y) / (1.0 + y)
    want = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (hi - lo)
        want.append(half * float(f(0.5 * (lo + hi) + half * nodes) @ weights))
    assert gauss_segments(f, breaks) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_evidence_rows_do_not_depend_on_their_batch():
    # The adaptive stepper set the step of the whole batch by its worst
    # member; every row now sweeps the mesh of its own (omega, lambda).
    # Criterion 8's 486 rows, whole and in batches of 1, 7 and 243.
    p = BlackHoleParams(m=1.0, a=0.2, q_e=0.1, q_m=0.0, l=1.0)
    scan = coupled_scan(p, CTX, -2.0 + 0.05 * np.arange(81), j_window=3)
    lams = np.array([r["lambda"] for r in scan.rows])
    omegas = np.array([r["omega"] for r in scan.rows])
    assert lams.size == 486
    whole = horizon_continuation_evidence(p, CTX, lams, omegas)[:3]
    for size in (1, 7, 243):
        parts = [horizon_continuation_evidence(p, CTX, lams[i:i + size], omegas[i:i + size])[:3]
                 for i in range(0, lams.size, size)]
        for k, column in enumerate(whole):
            assert np.concatenate([part[k] for part in parts]).tobytes() == column.tobytes()


@pytest.fixture
def leg_mesh(monkeypatch):
    """Calls fn with every recorded leg on n intervals per piece."""
    def at(n, fn):
        monkeypatch.setattr(radial_mod, "_leg_intervals",
                            lambda p, ctx, leg, omegas, lams: np.full(omegas.shape, n))
        return fn()
    return at


def test_recorded_legs_converge_when_the_mesh_doubles(leg_mesh):
    # Each caller at n = 64, 128, 256 (the default here) and 512 intervals
    # per piece. What the sweep propagates converges at sixth order (2^6 =
    # 64); the phase slopes are at rounding from the start, since the
    # far horizon stretch is a rotation the half-turn count makes exact.
    # The fitted exponents move only with their node set.
    ns = (64, 128, 256, 512)
    ph = phi_plus(P0, CTX)
    lams, omegas = np.array([1.0, 1.0, -0.5]), ph + np.array([0.8, -1.1, 0.4])
    assert np.all(radial_mod._leg_intervals(P0, CTX, (3, 0.0, -3000.0), omegas, lams) == 256)

    def moves(fn, rel=False):
        out = [np.asarray(leg_mesh(n, fn), dtype=float) for n in ns]
        return [float(np.max(np.abs(b / a - 1.0 if rel else b - a))) for a, b in zip(out, out[1:])]

    def sixth_order(d, last):
        assert d[0] / d[1] > 40.0 and d[1] / d[2] > 40.0 and d[2] < last, d

    evidence = lambda k: lambda: horizon_continuation_evidence(P0, CTX, lams, omegas)[k]  # noqa: E731
    sixth_order(moves(evidence(1), rel=True), 1e-8)  # amplitude ratios
    assert max(moves(evidence(0), rel=True)) < 1e-14  # phase slopes
    assert max(moves(evidence(2), rel=True)) < 1e-7  # decay exponents

    def osc():
        rep = horizon_oscillation(P0, CTX, LAM, ph + 0.5)
        return rep.evidence["slope"], rep.evidence["radius_ratio"]

    assert max(moves(osc)) < 1e-13
    sixth_order(moves(lambda: levinson_phi_plus(P0, CTX, LAM).evidence["final_vectors"]), 1e-9)
    # criterion 3 allows 1e-2; across the family the fits are within 3e-5
    assert max(moves(lambda: infinity_growth_exponents(P0, CTX, 1.0, 0.3))) < 5e-4


def test_recorded_legs_match_a_fine_mesh_across_the_family(leg_mesh):
    # Recorded legs have no n/2 check. On each row's own mesh the
    # continuation evidence matches n = 8,192 intervals per piece: the
    # amplitude ratio to 1e-6 relative, the phase slope to 1e-12.
    p = BlackHoleParams(m=1.0, a=0.2, q_e=0.1, q_m=0.0, l=1.0)
    lams, omegas = np.repeat([1.0, 10.0, 30.0], 2), np.tile([0.5, 5.0], 3)
    ctxs = [ModeContext(mu=mu, e=0.1, k=k) for mu, k in ((1.0, 0.5), (3.0, 4.5), (6.0, 0.5))]
    own = [horizon_continuation_evidence(p, ctx, lams, omegas) for ctx in ctxs]
    fine = leg_mesh(8192, lambda: [horizon_continuation_evidence(p, ctx, lams, omegas) for ctx in ctxs])
    for ctx, (slope, amp, _, _), (ref_slope, ref_amp, _, _) in zip(ctxs, own, fine):
        assert np.max(np.abs(amp / ref_amp - 1.0)) < 1e-6, ctx
        assert np.max(np.abs(slope - ref_slope)) < 1e-12, ctx


def test_leg_mesh_grows_with_the_rotation_where_the_potential_mixes():
    # The horizon leg's long intervals are safe only once the sigma_z and
    # sigma_x parts have died away; before that the rotation's rate is
    # capped, so n grows with |omega|. Far beyond the cap the refusal names
    # omega.
    leg = (3, 0.0, -3000.0)
    n = radial_mod._leg_intervals(P0, CTX, leg, np.array([0.5, 10.0, 50.0]), np.ones(3))
    assert n[0] == 256 and n[0] < n[1] < n[2]
    with pytest.raises(WindowTooWide, match=r"^\|omega\| = 1e\+06 needs"):
        radial_mod._leg_intervals(P0, CTX, leg, np.array([1e6]), np.ones(1))
