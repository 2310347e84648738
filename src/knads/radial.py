"""Radial spectral certificates and the confined-operator eigenvalue solver.

The system is written in the tortoise coordinate x = -y, dX/dx = A X with
X = rho (cos eta, sin eta), and slopes are reported in that convention. The
Prüfer phase equation is written in s = log(r - r_plus), _phase_rhs_s: dy/ds
comes in closed form from the factored Delta_r, so no step maps y back to
r. Toward infinity s ~ -log(y), which keeps the confining mass term (mu*l/y
in y) bounded; toward a non-extremal horizon dy/ds tends to -slope and V to
phi_plus * I, finite even where e^s underflows. Endpoints given in y are
mapped to s once per call (TortoiseMap.log_u_of_y), and recorded nodes back
to y once per integration (TortoiseMap.y_of_s), so fits and selections stay
defined in y. The Levinson certificate is the same phase equation at omega
= phi_plus. Only the AC and Levinson deviation integrals stay in y: their
Gauss nodes go through the inverse in one vectorized call.

The confined solve runs angular._sweep on the system behind _phase_rhs_s,
affine in omega like the angular one; the certificates and the
continuation evidence use the adaptive stepper of knads.rk.

Certificate evidence is numeric and reproducible: decade-resolved integrals
with Cauchy-tail ratios, linear fits of Prüfer phase slopes, and growth
exponents fitted from direct integrations of the first-order system.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .angular import (NotLimitPoint, _GAUSS, _GRADE, _PHASE_CAP, _magnus_terms, _mesh_size,
                      _omega_table, _refined_window, _sweep)
from .geometry import find_horizons
from .operators import (
    _factored_quartic_terms,
    _p_function,
    _radial_terms,
    decade_integrals,
    deviation_norm,
    phi_plus,
    sqrt_delta_r_from_u,
    tortoise_map,
)
from .rk import fit_line, integrate

DEFAULT_DELTA = 1e-5


class NotConfining(Exception):
    """The discrete-spectrum mechanism needs mu > 0; without the mass term
    the operator is not confining toward infinity."""


class TooCloseToPhiPlus(Exception):
    """The oscillation certificate is ill-conditioned for omega within 1e-6
    of phi_plus; the Levinson certificate covers that point."""


@dataclass(frozen=True)
class RadialCertificate:
    kind: str
    evidence: dict
    passed: bool


@dataclass(frozen=True)
class OscillationReport:
    slope: float
    expected: float
    rel_err: float
    radius_ratio: float
    phi_plus: float
    omega: float
    y_max: float
    passed: bool


def _phase_rhs_s(p, ctx, lam, omegas, potential_shift=0.0):
    """d(eta, log rho)/ds in s = log(r - r_plus) for the batch of omega
    values (state (B, 2)): dy/ds times the y-picture derivative, whose
    components are the exact negations of the x-picture ones (dy = -dx).

    dy/ds = -l^2 (r^2 + a^2) / ((u + r_plus - r_minus) q2(r)) with u = e^s,
    from the factored Delta_r. Where u underflows to 0 it is -slope and the
    potential is phi_plus * I, so the right-hand side stays finite."""
    rp, rm, c1, c0 = _factored_quartic_terms(p)
    lam = np.asarray(lam, dtype=float)

    def f(s, state):
        u = math.exp(s)
        r = rp + u
        r2a2 = r * r + p.a**2
        q2 = (r + c1) * r + c0
        sq = math.sqrt(u * (u + (rp - rm)) * q2) / p.l
        dyds = -(p.l**2) * r2a2 / ((u + (rp - rm)) * q2)
        diag = _p_function(p, ctx, r) / r2a2 + potential_shift
        conf = ctx.mu * r * sq / r2a2
        v12 = lam * (sq / r2a2)
        eta = state[:, 0]
        c2, s2 = np.cos(2.0 * eta), np.sin(2.0 * eta)
        out = np.empty_like(state)
        out[:, 0] = -dyds * (omegas - diag - conf * c2 - v12 * s2)
        out[:, 1] = -dyds * (v12 * c2 - conf * s2)
        return out

    return f


def _infinity_init(p, ctx, lam, omegas, delta):
    """Recessive phase at y = delta with the first-order correction."""
    mul = ctx.mu * p.l
    return math.pi / 4 + (lam / p.l - np.asarray(omegas, float)) * delta / (
        1.0 + 2.0 * mul
    )


def default_r0(p):
    return find_horizons(p).r_plus + p.l


def _system_rows(p, ctx, lam, s, shift):
    """Rows g0..g4 at s of the system behind _phase_rhs_s, M = g0 sigma_z +
    (omega g1 + g4) J - g2 sigma_x: angular._omega_polynomials' rows with
    omega in lambda's place and g3 = 0."""
    diag, conf, v12 = _radial_terms(p, ctx, lam, np.exp(s))
    g = np.stack([v12, np.ones_like(s), conf, np.zeros_like(s), -(diag + shift)])
    return -tortoise_map(p)._dyds(s) * g


def _radial_sides(ends, n):
    """Node times (2, n + 1) from s0 and sd to sc, uniform in e^{-s/_GRADE}."""
    s0, sc, sd = ends
    v = np.exp(-np.array([[s0], [sd], [sc]]) / _GRADE)
    ts = -_GRADE * np.log(v[:2] + (v[2] - v[:2]) * np.linspace(0.0, 1.0, n + 1))
    ts[:, 0], ts[:, -1] = (s0, sd), sc
    return ts


@lru_cache(maxsize=8)
def _radial_tables(p, ctx, lam, ends, shift, n):
    """Omega coefficients of both sides in angular._magnus_tables' layout,
    with omega in lambda's place: the four pure-omega monomials."""
    ts = _radial_sides(ends, n)
    h = np.diff(ts)
    g = _system_rows(p, ctx, lam, ts[:, :-1, None] + h[..., None] * _GAUSS, shift)
    return _omega_table(_magnus_terms(h, g))


def _mesh_intervals(p, ctx, lam, ends, shift, omega_bound):
    """Magnus intervals per side keeping each interval's phase move within
    _PHASE_CAP for |omega| <= omega_bound (scalar or per row): an interval at
    s spans <= _GRADE |v(start) - v(sc)| / (n v(s)), v = e^{-s/_GRADE}, and
    |d eta/ds| <= |omega g1| + |g4| + hypot(g0, g2)."""
    ts = _radial_sides(ends, 1024)
    g0, g1, g2, _, g4 = _system_rows(p, ctx, lam, ts, shift)
    v = np.exp(-ts / _GRADE)
    w = _GRADE * np.abs(v[:, :1] - v[:, -1:]) / v
    parts = np.max(w * np.abs(g1)) * omega_bound, np.max(w * (np.abs(g4) + np.hypot(g0, g2)))
    return _mesh_size(sum(parts) / _PHASE_CAP, (("|omega| <= {:g}", omega_bound, parts[0]),
                      ("the radial potential at lambda = {:g}", lam, parts[1])))


def _defect_hinf(p, ctx, lam, omegas, s0, sc, sd, delta, beta, beta_infinity, shift, n=None):
    """Phase mismatch at s = sc between the shots from r0 (s = s0) and from
    y = delta (s = sd) per omega, on n intervals per side (default: per row)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    lam, ends, shift = float(lam), (float(s0), float(sc), float(sd)), float(shift)
    if n is None:
        n = _mesh_intervals(p, ctx, lam, ends, shift, np.abs(omegas))
    inf0 = _infinity_init(p, ctx, lam, omegas, delta) if beta_infinity is None else beta_infinity
    eta0 = np.concatenate([np.full(omegas.shape, float(beta)), np.broadcast_to(inf0, omegas.shape)])
    out = np.empty(omegas.size)
    for nn in np.unique(n):
        rows = np.flatnonzero(np.broadcast_to(n, omegas.shape) == nn)
        both = np.concatenate([rows, omegas.size + rows])
        tabs = _radial_tables(p, ctx, lam, ends, shift, int(nn))
        phases, _ = _sweep(tabs, omegas[rows], 0.0, eta0[both], False)
        out[rows] = phases[: rows.size] - phases[rows.size:]
    return out


def hinf_eigenvalues(
    p,
    ctx,
    lam,
    r0=None,
    window=(-5.0, 5.0),
    beta=math.pi / 4,
    beta_infinity=None,
    delta=DEFAULT_DELTA,
    potential_shift=0.0,
    tol=1e-10,
):
    """Eigenvalues of the confined radial operator on (r0, infinity) in the
    frequency window, by two-sided Prüfer shooting.

    The boundary condition at r0 is the phase beta (default pi/4, equal
    components); the infinity side starts on the recessive branch at
    y = delta unless mu*l < 1/2, in which case that endpoint is limit
    circle and an explicit beta_infinity is required. The two sides meet at
    y(r0)/2; the matching defect is strictly increasing in omega, and
    solve_window locates every eigenvalue on a Magnus mesh checked at n/2."""
    if ctx.mu == 0.0:
        raise NotConfining("mu = 0 has no confining term; spectrum not discrete")
    if ctx.mu * p.l < 0.5 and beta_infinity is None:
        raise NotLimitPoint(
            "r=infinity is limit circle for mu*l < 1/2; supply beta_infinity"
        )
    if r0 is None:
        r0 = default_r0(p)
    tm = tortoise_map(p)
    yc = 0.5 * tm.y(r0)
    if not yc > 10.0 * delta:
        raise ValueError("r0 too close to the infinity cutoff")
    s0 = math.log(r0 - tm.r_plus)
    sc, sd = tm.log_u_of_y(yc), tm.log_u_of_y(delta)
    bound = max(abs(float(window[0])), abs(float(window[1])))
    n = _mesh_intervals(p, ctx, lam, (s0, sc, sd), potential_shift, bound)
    return _refined_window(lambda omegas, n: _defect_hinf(
        p, ctx, lam, omegas, s0, sc, sd, delta, beta, beta_infinity, potential_shift, n
    ), window, tol, n, bound, "omega")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gauss_segments(f, breaks):
    """Integral of f over consecutive [breaks_i, breaks_{i+1}] segments by
    fixed Gauss quadrature, every node in one call of f; returns per-segment
    values."""
    breaks = np.asarray(breaks, dtype=float)
    mid = 0.5 * (breaks[1:] + breaks[:-1])[:, None]
    half = 0.5 * (breaks[1:] - breaks[:-1])
    return half * (f(mid + half[:, None] * _GL_NODES) @ _GL_WEIGHTS)


def horizon_ac_certificate(p, ctx, lam, y_start=1.0):
    """Horizon-side decay certificate for the potential.

    Non-extremal: the integral of ||V - phi_plus I|| dy up to Y in
    {1e2, 1e3, 1e4} converges, certified by Cauchy tails (each tail below 5%
    of the previous). Extremal: the deviation decays only like 1/y, so the
    plain integral grows while the Cesàro mean (1/Y) * integral still tends
    to 0; both facts are recorded."""
    hd = find_horizons(p)
    tm = tortoise_map(p)
    f = lambda y: deviation_norm(p, ctx, lam, tm.u_of_y(y))
    breaks = np.concatenate(
        [np.geomspace(y_start, 1e2, 9), np.geomspace(1e2, 1e3, 9)[1:], np.geomspace(1e3, 1e4, 9)[1:]]
    )
    segs = _gauss_segments(f, breaks)
    cum = np.cumsum(segs)
    i100 = 8 - 1  # index of the segment ending at 1e2
    i1k = 16 - 1
    i10k = 24 - 1
    total_100, total_1k, total_10k = cum[i100], cum[i1k], cum[i10k]
    tail_1 = total_1k - total_100
    tail_2 = total_10k - total_1k
    if not hd.extremal:
        ratio = tail_2 / tail_1 if tail_1 > 0 else 0.0
        passed = bool(ratio < 0.05) or (total_10k == 0.0)
        return RadialCertificate(
            kind="Hor_AC_L1",
            evidence={
                "integral_Y": {1e2: float(total_100), 1e3: float(total_1k), 1e4: float(total_10k)},
                "tail_ratio": float(ratio),
                "norm": "frobenius",
            },
            passed=passed,
        )
    cesaro = {1e2: total_100 / 1e2, 1e3: total_1k / 1e3, 1e4: total_10k / 1e4}
    rate = math.log(cesaro[1e4] / cesaro[1e2]) / math.log(1e4 / 1e2) if cesaro[1e2] > 0 else 0.0
    growing = total_10k > total_1k > total_100
    passed = bool(growing and cesaro[1e4] < cesaro[1e3] < cesaro[1e2] and cesaro[1e4] < 0.2 * cesaro[1e2])
    return RadialCertificate(
        kind="Extremal_Cesaro",
        evidence={
            "integral_Y": {1e2: float(total_100), 1e3: float(total_1k), 1e4: float(total_10k)},
            "cesaro_Y": {k: float(v) for k, v in cesaro.items()},
            "decay_rate": float(rate),
            "l1_diverges": bool(growing),
            "norm": "frobenius",
        },
        passed=passed,
    )


def levinson_phi_plus(p, ctx, lam, y_start=1.0, y_max=1e4):
    """Non-eigenvalue certificate at omega = phi_plus.

    Integrates X' = Rbar(y) X for two independent initial vectors, where
    Rbar is the system matrix at omega = phi_plus; since ||Rbar|| is L^1 the
    solutions approach constant non-zero vectors, so no solution is square
    integrable in y and phi_plus is not an eigenvalue. The solutions start
    at the unit vectors, (eta, log rho) = (0, 0) and (pi/2, 0), and follow
    the exact Prüfer form of that system, _phase_rhs_s at omega = phi_plus,
    in s; the checkpoints are mapped to s once."""
    hd = find_horizons(p)
    if hd.extremal:
        raise ValueError("Levinson certificate applies to the non-extremal case")
    ph = phi_plus(p, ctx)
    tm = tortoise_map(p)
    f = _phase_rhs_s(p, ctx, lam, np.full(2, ph))
    checkpoints = tm.log_u_of_y(np.array([y_start, y_max / 8, y_max / 4, y_max / 2, y_max]))
    cur = np.array([[0.0, 0.0], [math.pi / 2, 0.0]])
    states, min_logr = [cur], 0.0
    for a, b in zip(checkpoints[:-1], checkpoints[1:]):
        cur, _, ys = integrate(f, a, b, cur, rtol=1e-11, atol=1e-13, record=True)
        min_logr = min(min_logr, float(ys[:, :, 1].min()))
        states.append(cur)
    # X = rho (cos eta, sin eta) at each checkpoint
    vecs = [np.exp(x[:, 1:]) * np.stack([np.cos(x[:, 0]), np.sin(x[:, 0])], 1) for x in states]
    rel_changes = [
        float(np.max(np.linalg.norm(v2 - v1, axis=1) / np.linalg.norm(v2, axis=1)))
        for v1, v2 in zip(vecs[-3:-1], vecs[-2:])
    ]
    # ||Rbar||_F is the deviation norm of V from phi_plus * I
    integrable = _gauss_segments(
        lambda y: deviation_norm(p, ctx, lam, tm.u_of_y(y)), np.geomspace(y_start, y_max, 17)
    )
    cauchy = float(integrable[-4:].sum() / max(integrable.sum(), 1e-300))
    min_norm = math.exp(min_logr)
    passed = bool(max(rel_changes) < 1e-4 and min_norm > 0.5 and cauchy < 0.05)
    return RadialCertificate(
        kind="Levinson_phi_plus",
        evidence={
            "final_vectors": vecs[-1].tolist(),
            "asymptotic_rel_change": rel_changes,
            "min_norm_over_traces": min_norm,
            "rbar_l1_segments": integrable.tolist(),
            "rbar_l1_cauchy_tail": cauchy,
            "phi_plus": float(ph),
        },
        passed=passed,
    )


def horizon_oscillation(p, ctx, lam, omega, y_start=1.0, y_max=1e4):
    """Oscillatory (non-normalizable) behavior certificate at the horizon for
    omega != phi_plus: the Prüfer phase grows linearly with slope omega -
    phi_plus in the x convention, and the Prüfer radius stays bounded."""
    hd = find_horizons(p)
    if hd.extremal:
        raise ValueError("oscillation certificate applies to the non-extremal case")
    ph = phi_plus(p, ctx)
    if abs(omega - ph) < 1e-6:
        raise TooCloseToPhiPlus(
            f"|omega - phi_plus| = {abs(omega - ph):.2e} < 1e-6"
        )

    tm = tortoise_map(p)
    s_start, s_max = tm.log_u_of_y(y_start), tm.log_u_of_y(y_max)
    _, ss, ys = integrate(
        _phase_rhs_s(p, ctx, lam, omega), s_start, s_max, np.zeros((1, 2)),
        rtol=1e-11, atol=1e-12, max_step=(s_start - s_max) / 64, record=True,
    )
    ts = tm.y_of_s(ss)
    etas = ys[:, 0, 0]
    logr = ys[:, 0, 1]
    sel = ts >= 0.1 * y_max
    slope_y, _ = fit_line(ts[sel], etas[sel])
    slope = -slope_y  # x-convention
    expected = omega - ph
    rel = abs(slope - expected) / abs(expected)
    rr = float(np.exp(logr[sel].max() - logr[sel].min()))
    return OscillationReport(
        slope=float(slope),
        expected=float(expected),
        rel_err=float(rel),
        radius_ratio=rr,
        phi_plus=float(ph),
        omega=float(omega),
        y_max=float(y_max),
        passed=bool(rel < 1e-3 and rr < 10.0),
    )


def confinement_certificate(p, ctx, r0=None, n_decades=4):
    """Discreteness evidence: the confinement density mu*r/sqrt(Delta_r)
    integrates to mu*l per log-decade (so its integral diverges like
    mu*l*log R), and r * density tends to mu*l."""
    if ctx.mu == 0.0:
        raise NotConfining("mu = 0 has no confining term")
    hd = find_horizons(p)
    if r0 is None:
        r0 = default_r0(p)

    def q_times_r(r):
        u = np.asarray(r, dtype=float) - hd.r_plus
        return ctx.mu * np.asarray(r, float) / sqrt_delta_r_from_u(p, u)

    vals = decade_integrals(q_times_r, r0, n_decades)
    mul = ctx.mu * p.l
    target = mul * math.log(10.0)
    rel_last = abs(vals[-1] - target) / target
    tail_r = r0 * 10.0**n_decades
    limit_val = float(q_times_r(tail_r) * tail_r)
    passed = bool(rel_last < 1e-2 and abs(limit_val - mul) / mul < 1e-2)
    return RadialCertificate(
        kind="Hinf_discrete",
        evidence={
            "per_decade_integrals": [float(v) for v in vals],
            "per_decade_target": float(target),
            "r_times_density_at_far": limit_val,
            "mu_l": float(mul),
        },
        passed=passed,
    )


def infinity_growth_exponents(p, ctx, lam, omega, r1=None, decades=3):
    """Fitted growth exponents of the radial system toward infinity.

    Integrating outward from r1, a generic solution is dominated by the
    growing branch and log||X|| vs log r fits +mu*l over the last decade;
    integrating inward from the far end, the backward-dominant branch is the
    decaying one and the fit over the small-r decade gives -mu*l. log||X||
    is the log rho component of _phase_rhs_s, integrated in s."""
    if r1 is None:
        r1 = default_r0(p)
    rp = find_horizons(p).r_plus
    r2 = r1 * 10.0**decades
    f = _phase_rhs_s(p, ctx, lam, omega)
    s1, s2 = math.log(r1 - rp), math.log(r2 - rp)
    slopes = []
    for a, b in ((s1, s2), (s2, s1)):
        _, ss, ys = integrate(
            f, a, b, np.array([[math.atan2(0.7, 1.0), 0.0]]),
            rtol=1e-10, atol=1e-12, max_step=abs(b - a) / 30, record=True,
        )
        logr = np.log(rp + np.exp(ss))
        sel = np.abs(logr - logr[-1]) <= math.log(10.0)  # the decade it ends on
        slopes.append(fit_line(logr[sel], ys[sel, 0, 1])[0])
    return slopes[0], slopes[1]


def _slopes(x, y):
    """Least-squares slopes of the columns of y against x, centred."""
    xc = x - x.mean()
    return np.sum(xc[:, None] * (y - y.mean(axis=0)), axis=0) / np.sum(xc * xc)


def horizon_continuation_evidence(
    p, ctx, lams, omegas, r0=None, y_far=1e3, delta=DEFAULT_DELTA
):
    """Batched non-normalizability evidence for (omega, lambda) pairs.

    The recessive-at-infinity solution is continued from y = delta through
    the matching radius r0 and out to y_far on the horizon side. For a
    normalizable mode the amplitude would have to collapse toward the
    horizon; instead it stays of order one (oscillation). The amplitude
    ratio is min rho(y >= 0.1 * y_far) / rho(r0), the smallest Prüfer
    radius over the fitted horizon stretch relative to its value at r0.
    Also fits the infinity-side decay exponent (should be mu*l) and the
    horizon-side phase slope (should be omega - phi_plus in the x
    convention).

    Returns arrays (slope, amplitude_ratio, decay_exponent, phi_plus)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if r0 is None:
        r0 = default_r0(p)
    tm = tortoise_map(p)
    y0 = tm.y(r0)
    s0 = math.log(r0 - tm.r_plus)
    ph = phi_plus(p, ctx)
    f = _phase_rhs_s(p, ctx, lams, omegas)

    init = np.zeros((lams.size, 2))
    init[:, 0] = _infinity_init(p, ctx, lams, omegas, delta)
    end, ss, ys = integrate(
        f, tm.log_u_of_y(delta), s0, init, rtol=1e-11, atol=1e-12,
        max_step=0.5, phase_cap=math.pi / 2, record=True,
    )
    # infinity-side decay exponent: log rho vs log t on the early decades
    ts = np.log(tm.y_of_s(ss))
    sel = ts <= math.log(delta) + 0.5 * (math.log(y0) - math.log(delta))
    decay = _slopes(ts[sel], ys[sel, :, 1])

    s_far = tm.log_u_of_y(y_far)
    _, ss2, ys2 = integrate(
        f, s0, s_far, end, rtol=1e-10, atol=1e-12, max_step=(s0 - s_far) / 64, record=True
    )
    ts2 = tm.y_of_s(ss2)
    sel2 = ts2 >= 0.1 * y_far
    slopes = -_slopes(ts2[sel2], ys2[sel2, :, 0])
    amp = np.exp(ys2[sel2][:, :, 1].min(axis=0) - end[:, 1])
    return slopes, amp, decay, ph
