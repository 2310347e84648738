"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test prints a single summary line with the measured margin so a verbose
run doubles as the certification record.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from knads.angular import (
    amplitude_weight,
    angular_eigenvalues,
    eigenvalues_by_label,
)
from knads.classify import (
    LIMIT_CIRCLE,
    LIMIT_POINT,
    angular_exponents,
    l2_tail_test,
    n_in_joint_lp_set,
    quantization_check,
)
from knads.geometry import (
    BlackHoleParams,
    NoHorizon,
    extremal_mass,
    find_horizons,
    reparameterize,
)
from knads.modescan import coupled_scan, periodicity_verdict
from knads.operators import ModeContext
from knads.oracle import discretize_angular, discretize_radial_confined, load_fixtures
from knads.radial import (
    NotConfining,
    default_r0,
    hinf_eigenvalues,
    horizon_ac_certificate,
    infinity_growth_exponents,
    levinson_phi_plus,
)

from conftest import SEED, draw_nonextremal

P_BASE = BlackHoleParams(m=1.0, a=0.2, q_e=0.1, q_m=0.0, l=1.0)
CTX_BASE = ModeContext(mu=1.0, e=0.1, k=0.5)


def test_criterion_1_geometry_round_trip():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        p = draw_nonextremal(rng)
        hd = find_horizons(p)
        m, z2 = reparameterize(hd.r_plus, hd.r_minus, p.a, p.l)
        worst = max(
            worst,
            abs(m - p.m) / abs(p.m),
            abs(z2 - p.z2) / max(abs(p.z2), 1e-30),
        )
    assert worst < 1e-10

    flips = 0
    for _ in range(5):
        a = rng.uniform(0.05, 0.5)
        z2 = rng.uniform(0.0, 0.2)
        l = rng.uniform(0.7, 1.3)
        m_ext = extremal_mass(a, z2, l)
        qe = math.sqrt(z2)
        above = BlackHoleParams(m=m_ext * (1 + 1e-4), a=a, q_e=qe, q_m=0.0, l=l)
        below = BlackHoleParams(m=m_ext * (1 - 1e-4), a=a, q_e=qe, q_m=0.0, l=l)
        hd = find_horizons(above)
        assert hd.r_plus >= hd.r_minus
        with pytest.raises(NoHorizon):
            find_horizons(below)
        flips += 1
    print(f"criterion 1: PASS (100 round trips, max rel err {worst:.3e}; "
          f"{flips}/5 extremal flips at +-1e-4)")


def test_criterion_2_classification_tables():
    checked = 0
    for b in (0.0, 1.0):
        for d in np.arange(-3.0, 3.001, 0.25):
            for n in range(-6, 7):
                nu, rho0 = angular_exponents(n + 0.5, d, b)
                want = abs(nu) >= 0.5 and abs(rho0) >= 0.5
                assert n_in_joint_lp_set(n, d, b) == want, (n, d, b)
                checked += 1
    # exceptional indices for fractional d match the brute-force failing set
    pm = BlackHoleParams(m=1.1, a=0.2, q_e=0.0, q_m=0.5, l=1.0)
    for e in (1.0, -0.7, 3.3):
        rep = quantization_check(pm, e)
        failing = {n for n in range(-9, 10) if not n_in_joint_lp_set(n, rep.d)}
        if rep.is_integer:
            assert failing == set()
        else:
            assert failing == set(rep.exceptional_n)
    assert quantization_check(pm, 1.92).is_integer
    print(f"criterion 2: PASS ({checked} table entries exact; "
          "exceptional sets match brute force)")


def test_criterion_3_infinity_limit_point_circle():
    for mul, want in ((0.1, LIMIT_CIRCLE), (0.3, LIMIT_CIRCLE), (0.49, LIMIT_CIRCLE),
                      (0.5, LIMIT_POINT), (1.0, LIMIT_POINT)):
        _, verdict = l2_tail_test(P_BASE, mul / P_BASE.l)
        assert verdict == want, mul
    worst = 0.0
    for mu, lam, om in ((1.0, 1.0, 0.3), (0.8, -0.5, 1.0)):
        ctx = ModeContext(mu=mu, e=0.1, k=0.5)
        plus, minus = infinity_growth_exponents(P_BASE, ctx, lam, om)
        mul = mu * P_BASE.l
        worst = max(worst, abs(plus - mul) / mul, abs(minus + mul) / mul)
    assert worst < 1e-2
    print(f"criterion 3: PASS (5 verdicts split at mu*l = 1/2; growth "
          f"exponents +-mu*l to {worst:.3e})")


def test_criterion_4_angular_against_oracle():
    fx = load_fixtures()
    sphere = next(c for c in fx["angular"] if c["name"] == "sphere-k-half")
    p = BlackHoleParams(**sphere["params"])
    ctx = ModeContext(**sphere["ctx"])
    sw = angular_eigenvalues(p, ctx, tuple(sphere["window"]))
    exact = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
    shoot_err = np.max(np.abs(np.array(sw.eigenvalues) - exact))
    assert shoot_err < 1e-8
    oracle_err = np.max(np.abs(np.array(sphere["eigenvalues"]) - exact))
    assert oracle_err < 1e-5

    worst = 0.0
    for case in fx["angular"]:
        if case["name"] == "sphere-k-half":
            continue
        p = BlackHoleParams(**case["params"])
        ctx = ModeContext(**case["ctx"])
        sw = angular_eigenvalues(p, ctx, tuple(case["window"]))
        assert sw.count == len(case["eigenvalues"]), case["name"]
        delta = np.max(np.abs(np.array(sw.eigenvalues) - case["eigenvalues"]))
        worst = max(worst, float(delta))
    assert worst < 1e-5
    print(f"criterion 4: PASS (sphere exact to {shoot_err:.3e}; 5 draws vs "
          f"N=4000 oracle to {worst:.3e}, counts equal)")


def test_angular_against_extrapolated_oracle():
    # Beside criterion 4, not in place of it: the oracle's O(h^2) error,
    # Richardson-extrapolated from N = 2000 and 4000, leaves a witness about
    # 1e-8 from the continuum, tight enough to catch an under-resolved mesh.
    def worst_gap(p, ctx, window):
        ev = np.array(angular_eigenvalues(p, ctx, window).eigenvalues)
        lo, hi = window[0] - 0.5, window[1] + 0.5
        near = []
        for n in (2000, 4000):
            ref = discretize_angular(p, ctx, n).eigenvalues_in_window(lo, hi)
            near.append(ref[np.argmin(np.abs(ref[None, :] - ev[:, None]), axis=1)])
        return float(np.max(np.abs(ev - (4.0 * near[1] - near[0]) / 3.0)))

    cases = [
        (BlackHoleParams(**c["params"]), ModeContext(**c["ctx"]), tuple(c["window"]))
        for c in load_fixtures()["angular"]
        if c["name"] != "sphere-k-half"
    ]
    rng = np.random.default_rng(SEED + 41)
    for _ in range(5):
        p = draw_nonextremal(rng)
        ctx = ModeContext(mu=rng.uniform(0.6, 1.4), e=rng.uniform(-0.5, 0.5),
                          k=float(rng.choice([-1.5, -0.5, 0.5, 1.5])),
                          omega=rng.uniform(-1.0, 1.0))
        cases.append((p, ctx, (-4.0, 4.0)))
    gaps = [worst_gap(*case) for case in cases]
    assert max(gaps) < 1e-7, gaps
    print(f"angular witness: PASS ({len(cases)} cases vs the extrapolated "
          f"oracle to {max(gaps):.3e})")


def test_radial_against_extrapolated_oracle():
    """Beside criterion 7, not in place of it: the confined solve against
    the radial oracle Richardson-extrapolated from N = 2000 and 4000, to
    1e-7.

    Measured order of the oracle, (E_1000 - E_2000) / (E_2000 - E_4000) in
    the window (-5, 5): 4.00 and 4.07 on `radial-deep-cutoff`, whose E_4000
    is 5.2e-7 from shooting, so its O(h^2) error shows. On the two seed-1
    `radial` benchmark cases the ratios are 6.75 and 4.75 and E_4000 is
    already within 2.8e-10 and 3.4e-9 of shooting: the differences are near
    the eigensolver's roundoff, and E_8000 is no closer (1.0e-9 and 3.0e-9
    off). The extrapolated witness is within 1.2e-8 on every case here."""

    def worst_gap(p, ctx, lam, r0, window):
        ev = np.array(hinf_eigenvalues(p, ctx, lam, r0=r0, window=window).eigenvalues)
        lo, hi = window[0] - 0.5, window[1] + 0.5
        near = []
        for n in (2000, 4000):
            ref = discretize_radial_confined(p, ctx, lam, r0, n).eigenvalues_in_window(lo, hi)
            near.append(ref[np.argmin(np.abs(ref[None, :] - ev[:, None]), axis=1)])
        return float(np.max(np.abs(ev - (4.0 * near[1] - near[0]) / 3.0)))

    cases = [
        (BlackHoleParams(**c["params"]), ModeContext(**c["ctx"]), c["lambda"], c["r0"],
         tuple(c["window"]))
        for c in load_fixtures()["radial"]
    ]
    rng = np.random.default_rng(SEED + 47)
    for _ in range(5):
        p = draw_nonextremal(rng)
        ctx = ModeContext(mu=rng.uniform(0.5, 1.5) / p.l, e=rng.uniform(-0.5, 0.5),
                          k=float(rng.choice([-1.5, -0.5, 0.5, 1.5])))
        cases.append((p, ctx, rng.uniform(-2.0, 2.0), default_r0(p), (-5.0, 5.0)))
    gaps = [worst_gap(*case) for case in cases]
    assert max(gaps) < 1e-7, gaps
    print(f"radial witness: PASS ({len(cases)} cases vs the extrapolated "
          f"oracle to {max(gaps):.3e})")


def test_criterion_5_frequency_lipschitz():
    rng = np.random.default_rng(SEED + 5)
    worst = -1.0
    for _ in range(20):
        p = draw_nonextremal(rng)
        k = rng.choice([-1.5, -0.5, 0.5, 1.5])
        ctx = ModeContext(mu=rng.uniform(0.6, 1.4), e=rng.uniform(-0.5, 0.5), k=k)
        j = int(rng.choice([-2, -1, 1, 2]))
        om1, om2 = sorted(rng.uniform(-1.5, 1.5, size=2))
        lam1 = eigenvalues_by_label(p, ctx.with_omega(om1), [j])[j]
        lam2 = eigenvalues_by_label(p, ctx.with_omega(om2), [j])[j]
        slack = abs(lam1 - lam2) - (p.a * abs(om1 - om2) + 1e-8)
        worst = max(worst, slack)
        assert slack <= 0.0, (p, k, j, om1, om2)
    print(f"criterion 5: PASS (20 draws, max slack {worst:.3e} below the "
          "a*|domega| + 1e-8 bound)")


def test_criterion_6_radial_certificates():
    p = BlackHoleParams(m=1.0, a=0.3, q_e=0.2, q_m=0.0, l=1.0)
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5)
    ac = horizon_ac_certificate(p, ctx, 1.0)
    assert ac.kind == "Hor_AC_L1" and ac.passed
    assert ac.evidence["tail_ratio"] < 0.05

    m, z2 = reparameterize(0.6, 0.6, 0.3, 1.0)
    pext = BlackHoleParams(m=m, a=0.3, q_e=math.sqrt(z2), q_m=0.0, l=1.0)
    ces = horizon_ac_certificate(pext, ctx, 1.0)
    assert ces.kind == "Extremal_Cesaro" and ces.passed
    assert ces.evidence["l1_diverges"]

    lev = levinson_phi_plus(p, ctx, 1.0)
    assert lev.passed
    assert max(lev.evidence["asymptotic_rel_change"]) < 1e-4
    assert lev.evidence["min_norm_over_traces"] > 0.5
    finals = np.linalg.norm(np.array(lev.evidence["final_vectors"]), axis=1)
    assert np.all(finals > 0.5)
    print("criterion 6: PASS (AC tail ratio "
          f"{ac.evidence['tail_ratio']:.3e} < 0.05; extremal Cesaro decay "
          f"rate {ces.evidence['decay_rate']:.3f} with L1 divergence; "
          f"Levinson limits settle to {max(lev.evidence['asymptotic_rel_change']):.2e})")


def test_criterion_7_confined_radial():
    fx = load_fixtures()
    worst = 0.0
    for case in fx["radial"]:
        p = BlackHoleParams(**case["params"])
        ctx = ModeContext(**case["ctx"])
        sw = hinf_eigenvalues(p, ctx, case["lambda"], r0=case["r0"],
                              window=tuple(case["window"]))
        assert 1 <= sw.count == len(case["eigenvalues"]), case["name"]
        delta = np.max(np.abs(np.array(sw.eigenvalues) - case["eigenvalues"]))
        worst = max(worst, float(delta))
    assert worst < 1e-4

    base = hinf_eigenvalues(P_BASE, CTX_BASE, 1.0, delta=1e-5)
    fine = hinf_eigenvalues(P_BASE, CTX_BASE, 1.0, delta=1e-6)
    assert base.count == fine.count >= 1
    drift = np.max(np.abs(np.array(base.eigenvalues) - fine.eigenvalues))
    assert drift < 1e-6

    with pytest.raises(NotConfining):
        hinf_eigenvalues(P_BASE, ModeContext(mu=0.0, e=0.1, k=0.5), 1.0)
    print(f"criterion 7: PASS (3 confined problems vs N=4000 oracle to "
          f"{worst:.3e}; cutoff refinement drift {drift:.3e}; mu=0 refused)")


def test_criterion_8_mode_scan():
    grid = -2.0 + 0.05 * np.arange(81)
    scan = coupled_scan(P_BASE, CTX_BASE, grid, j_window=3)
    assert scan.verdict == "NoBoundStateFound"
    assert scan.min_amplitude > scan.threshold
    assert scan.max_rate <= P_BASE.a + 1e-6
    assert scan.notes == ()

    half = coupled_scan(P_BASE, CTX_BASE, -2.0 + 0.025 * np.arange(161), j_window=3)
    assert half.verdict == "NoBoundStateFound"
    # the coarse curves are embedded in the refined ones
    for j in scan.lambda_curves:
        d = np.array(scan.lambda_curves[j]) - np.array(half.lambda_curves[j])[::2]
        assert np.max(np.abs(d)) < 1e-9

    target = float(grid[np.argmin(np.abs(grid - 1.0))])
    rows = tuple(
        dict(r, verdict_code="amp_collapse")
        if r["omega"] == target and r["j"] == 1
        else r
        for r in scan.rows
    )
    doctored = dataclasses.replace(scan, rows=rows)
    rep = periodicity_verdict(doctored, 2.0 * math.pi)
    assert rep.verdict == "PeriodicCandidate"
    clean = periodicity_verdict(scan, 2.0 * math.pi)
    assert clean.verdict == "NoBoundStateFound"
    print(f"criterion 8: PASS (81-point scan NoBoundStateFound, min amplitude "
          f"{scan.min_amplitude:.3e}; verdict stable under step halving; "
          "injected collapse detected as PeriodicCandidate)")


def test_criterion_9_amplitude_weight_quadrature():
    ctx = ModeContext(mu=1.0, e=0.1, k=1.5)
    p = BlackHoleParams(m=1.0, a=0.35, q_e=0.1, q_m=0.0, l=1.0)
    c = math.pi / 2

    def density(t):
        dth = 1.0 - (p.a / p.l) ** 2 * math.cos(t) ** 2
        return -ctx.k * p.xi / (dth * math.sin(t))

    rng = np.random.default_rng(SEED + 9)
    ths = rng.uniform(0.02, math.pi - 0.02, size=1000)
    closed = amplitude_weight(p, ctx, ths)
    worst = 0.0
    for th, got in zip(ths, closed):
        val, _ = quad(density, c, th, epsabs=1e-13, epsrel=1e-13, limit=200)
        worst = max(worst, abs(got - math.exp(val)) / math.exp(val))
    assert worst < 1e-8
    print(f"criterion 9: PASS (1000 samples, closed form vs quadrature to "
          f"{worst:.3e})")
