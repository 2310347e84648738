"""Radial spectral certificates and the confined-operator eigenvalue solver.

The system is written in the tortoise coordinate x = -y, dX/dx = A X with
X = rho (cos eta, sin eta), and slopes are reported in that convention. It
is integrated in s = log(r - r_plus) (_system_rows): dy/ds comes in closed
form from the factored Delta_r, so no node maps y back to r. Toward
infinity s ~ -log(y), which keeps the confining mass term (mu*l/y in y)
bounded; toward a non-extremal horizon dy/ds tends to -slope and V to
phi_plus * I, finite even where e^s underflows. Endpoints given in y are
mapped to s once per call (TortoiseMap.log_u_of_y), and recorded nodes back
to y once per leg (TortoiseMap.y_of_s), so fits and selections stay defined
in y. Only the AC and Levinson deviation integrals stay in y: their Gauss
nodes go through the inverse in one vectorized call.

Every integration runs angular._sweep on the Magnus Omega tabulated once per
mesh as a polynomial in (omega, lambda) (_radial_tables): the confined solve
on two sides, the certificates and the continuation evidence on recorded
legs (_leg), each row on the mesh of its own (omega, lambda) and endpoints.

Certificate evidence is numeric and reproducible: decade-resolved integrals
with Cauchy-tail ratios, linear fits of Prüfer phase slopes, and growth
exponents fitted from direct integrations of the first-order system.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .angular import (NotLimitPoint, _GAUSS, _GRADE, _PHASE_CAP, _PHASE_STEP, _magnus_terms,
                      _mesh_size, _omega_table, _refined_window, _sweep)
from .geometry import find_horizons
from .operators import (
    _radial_terms,
    decade_integrals,
    deviation_norm,
    phi_plus,
    sqrt_delta_r_from_u,
    tortoise_map,
)
# Unused; perfbench's test_wrappers_restore_original_bindings needs it bound.
from .rk import integrate  # noqa: F401

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


def _infinity_init(p, ctx, lam, omegas, delta):
    """Recessive phase at y = delta with the first-order correction."""
    mul = ctx.mu * p.l
    return math.pi / 4 + (lam / p.l - np.asarray(omegas, float)) * delta / (
        1.0 + 2.0 * mul
    )


def default_r0(p):
    return find_horizons(p).r_plus + p.l


# (component, monomial omega^i lambda^j) of the signed rows (h0, g1, -g2, g4).
_RADIAL_LAYOUT = ((0, (0, 1)), (1, (1, 0)), (2, (0, 0)), (1, (0, 0)))


def _system_rows(p, ctx, s, shift):
    """Rows at s of the radial system in s, A = lambda h0 sigma_z + (omega
    g1 + g4) J - g2 sigma_x, as laid out in _RADIAL_LAYOUT: affine in omega
    and in lambda, like the angular system in (lambda, domega)."""
    diag, conf, off = _radial_terms(p, ctx, 1.0, np.exp(s))
    g = np.stack([off, np.ones_like(s), -conf, -(diag + shift)])
    return -tortoise_map(p)._dyds(s) * g


def _leg_nodes(legs, n):
    """Node times (legs, pieces * n + 1) of legs (grade, s_0, ..., s_k), n
    intervals on each piece [s_i, s_i+1]: uniform in e^{-s/_GRADE} for grade
    "exp" (short toward s_i+1 when s_i > s_i+1), else at s_i + (s_i+1 -
    s_i) u^grade, u uniform (short toward s_i for grade 3)."""
    out, u = [], np.linspace(0.0, 1.0, n + 1)
    for grade, *ends in legs:
        a, b = np.array(ends[:-1])[:, None], np.array(ends[1:])[:, None]
        if grade == "exp":
            v = np.exp(-a / _GRADE)
            ts = -_GRADE * np.log(v + (np.exp(-b / _GRADE) - v) * u)
        else:
            ts = a + (b - a) * u**grade
        ts[:, 0], ts[:, -1] = a[:, 0], b[:, 0]
        out.append(np.append(ts[:, :-1], b[-1]))
    return np.array(out)


@lru_cache(maxsize=8)
def _radial_tables(p, ctx, legs, shift, n):
    """Omega coefficients of the legs (_leg_nodes) in angular._magnus_tables'
    layout, all 15 monomials omega^i lambda^j: one table serves every
    (omega, lambda) row."""
    ts = _leg_nodes(legs, n)
    h = np.diff(ts)
    g = _system_rows(p, ctx, ts[:, :-1, None] + h[..., None] * _GAUSS, shift)
    return _omega_table(_magnus_terms(h, g), _RADIAL_LAYOUT)


def _mesh_intervals(p, ctx, lam, ends, shift, omega_bound):
    """Magnus intervals per side keeping each interval's phase move within
    _PHASE_CAP for |omega| <= omega_bound (scalar or per row): an interval at
    s spans <= _GRADE |v(start) - v(sc)| / (n v(s)), v = e^{-s/_GRADE}, and
    |d eta/ds| <= |omega g1| + |g4| + hypot(lambda h0, g2)."""
    s0, sc, sd = ends
    ts = _leg_nodes((("exp", s0, sc), ("exp", sd, sc)), 1024)
    h0, g1, g2, g4 = _system_rows(p, ctx, ts, shift)
    v = np.exp(-ts / _GRADE)
    w = _GRADE * np.abs(v[:, :1] - v[:, -1:]) / v
    parts = np.max(w * np.abs(g1)) * omega_bound, np.max(w * (np.abs(g4) + np.hypot(lam * h0, g2)))
    return _mesh_size(sum(parts) / _PHASE_CAP, (("|omega| <= {:g}", omega_bound, parts[0]),
                      ("the radial potential at lambda = {:g}", lam, parts[1])))


def _leg_intervals(p, ctx, leg, omegas, lams):
    """Magnus intervals per piece of leg for each row (omega, lambda), from
    the leading-order n h(s) of the leg's grading at n = 1024: the change
    of A across an interval, h^2 |A'|, stays within _PHASE_STEP, and the
    whole rate moves it by at most _PHASE_CAP wherever the sigma_z and
    sigma_x parts still move it by _PHASE_STEP / n or more. Beyond, A is a
    rotation settling to its limit, whose half-turns _sweep counts."""
    ts = _leg_nodes((leg,), 1024)[0]
    nh = 1024.0 * np.abs(np.diff(ts))
    g = _system_rows(p, ctx, ts, 0.0)
    vary = 1024.0 * np.max(nh * np.abs(np.diff(g)), axis=1)
    h0, g1, g2, g4 = nh * np.maximum(np.abs(g[:, 1:]), np.abs(g[:, :-1]))
    om, lam = np.abs(omegas), np.abs(lams)
    cap = np.empty(om.shape)
    for i in range(0, om.size, 64):  # in row blocks, so the (rows, samples) arrays stay small
        mix = lam[i:i + 64, None] * h0 + g2
        cap[i:i + 64] = np.max(np.where(mix >= _PHASE_STEP, om[i:i + 64, None] * g1 + g4 + mix, 0.0), axis=1)
    acc = [np.sqrt(v / _PHASE_STEP) for v in (om * vary[1], lam * vary[0], vary[2] + vary[3])]
    causes = (("|omega| = {:g}", om, np.maximum(acc[0], om * np.max(g1) / _PHASE_CAP)),
              ("|lambda| = {:g}", lam, np.maximum(acc[1], lam * np.max(h0) / _PHASE_CAP)),
              ("the radial potential at lambda = {:g}", lam, acc[2]))
    return _mesh_size(np.maximum(np.sqrt(sum(a * a for a in acc)), cap / _PHASE_CAP), causes)


def _leg(p, ctx, leg, omegas, lams, eta0, keep):
    """Sweeps of the rows (omegas, lams) along leg from the phases eta0,
    each row on the mesh of its own _leg_intervals, recording only the nodes
    whose y passes keep. Yields per mesh size (rows, phases at the end, s and
    y of the kept nodes, etas and log rhos there as arrays (rows, nodes)),
    log rho counted from the leg's start."""
    omegas, lams, eta0 = np.broadcast_arrays(np.atleast_1d(np.asarray(omegas, float)),
                                             np.asarray(lams, float), eta0)
    n = _leg_intervals(p, ctx, leg, omegas, lams)
    for nn in np.unique(n):
        rows = np.flatnonzero(n == nn)
        ts = _leg_nodes((leg,), int(nn))[0]
        ys = tortoise_map(p).y_of_s(ts)
        sel = keep(ys)
        tabs = _radial_tables(p, ctx, (leg,), 0.0, int(nn))
        end, (etas, logs) = _sweep(tabs, omegas[rows], lams[rows], eta0[rows], sel, by_row=True)
        yield rows, end, ts[sel], ys[sel], etas.T.copy(), logs.T.copy()


def _defect_hinf(p, ctx, lam, omegas, s0, sc, sd, delta, beta, beta_infinity, shift, n=None):
    """Phase mismatch at s = sc between the shots from r0 (s = s0) and from
    y = delta (s = sd) per omega, on n intervals per side (default: per row)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    lam, ends, shift = float(lam), (float(s0), float(sc), float(sd)), float(shift)
    legs = (("exp", ends[0], ends[1]), ("exp", ends[2], ends[1]))
    if n is None:
        n = _mesh_intervals(p, ctx, lam, ends, shift, np.abs(omegas))
    inf0 = _infinity_init(p, ctx, lam, omegas, delta) if beta_infinity is None else beta_infinity
    eta0 = np.concatenate([np.full(omegas.shape, float(beta)), np.broadcast_to(inf0, omegas.shape)])
    out = np.empty(omegas.size)
    for nn in np.unique(n):
        rows = np.flatnonzero(np.broadcast_to(n, omegas.shape) == nn)
        both = np.concatenate([rows, omegas.size + rows])
        phases, _ = _sweep(_radial_tables(p, ctx, legs, shift, int(nn)), omegas[rows], lam,
                           eta0[both], False, by_row=True)
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
    at the unit vectors, (eta, log rho) = (0, 0) and (pi/2, 0), and are swept
    in s on a leg whose pieces end at the checkpoints (mapped to s once), so
    every checkpoint is a mesh node."""
    hd = find_horizons(p)
    if hd.extremal:
        raise ValueError("Levinson certificate applies to the non-extremal case")
    ph = phi_plus(p, ctx)
    tm = tortoise_map(p)
    checkpoints = tm.log_u_of_y(np.array([y_start, y_max / 8, y_max / 4, y_max / 2, y_max]))
    (_, _, _, ys, etas, logs), = _leg(p, ctx, (3, *checkpoints), ph, lam, np.array([0.0, math.pi / 2]),
                                      lambda y: np.ones(y.shape, bool))
    min_logr = min(0.0, float(logs.min()))
    at = slice(None, None, (ys.size - 1) // 4)  # the checkpoints, X = rho (cos eta, sin eta)
    vecs = [np.exp(x)[:, None] * np.stack([np.cos(e), np.sin(e)], 1) for e, x in zip(etas.T[at], logs.T[at])]
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

    s_start, s_max = tortoise_map(p).log_u_of_y(np.array([y_start, y_max]))
    (_, _, _, ys, etas, logs), = _leg(p, ctx, (3, s_start, s_max), omega, lam, 0.0,
                                      lambda y: y >= 0.1 * y_max)
    slope = -_slopes(ys, etas)[0]  # x-convention
    expected = omega - ph
    rel = abs(slope - expected) / abs(expected)
    rr = float(np.exp(logs.max() - logs.min()))
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
    decaying one and the fit over the small-r decade gives -mu*l. The legs
    are uniform in s, so each fitted decade is densely and evenly noded."""
    if r1 is None:
        r1 = default_r0(p)
    tm = tortoise_map(p)
    r2 = r1 * 10.0**decades
    s1, s2 = math.log(r1 - tm.r_plus), math.log(r2 - tm.r_plus)
    y1, y2 = tm.y(10.0 * r1), tm.y(0.1 * r2)  # the decade each leg ends on
    slopes = []
    for leg, keep in (((1, s1, s2), lambda y: y <= y2), ((1, s2, s1), lambda y: y >= y1)):
        (_, _, ss, _, _, logs), = _leg(p, ctx, leg, omega, lam, math.atan2(0.7, 1.0), keep)
        slopes.append(float(_slopes(np.log(tm.r_plus + np.exp(ss)), logs)[0]))
    return slopes[0], slopes[1]


def _slopes(x, y):
    """Least-squares slopes of the rows of y against x, centred. Each row's
    sums run along its own contiguous row, so a row does not depend on how
    many share the array."""
    xc = x - x.mean()
    return np.sum(xc * (y - y.mean(axis=1, keepdims=True)), axis=1) / np.sum(xc * xc)


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
    sd, s_far = tm.log_u_of_y(np.array([delta, y_far]))
    ph = phi_plus(p, ctx)
    at_r0, decay, slopes, amp = (np.empty(lams.size) for _ in range(4))
    # infinity-side decay exponent: log rho vs log y on the early decades,
    # on a leg graded like the confined solve's infinity side
    mid = math.log(delta) + 0.5 * (math.log(y0) - math.log(delta))
    inf0 = _infinity_init(p, ctx, lams, omegas, delta)
    for rows, end, _, ys, _, logs in _leg(p, ctx, ("exp", sd, s0), omegas, lams, inf0,
                                          lambda y: np.log(y) <= mid):
        at_r0[rows], decay[rows] = end, _slopes(np.log(ys), logs)
    # the horizon leg, short intervals near r0 where A varies
    for rows, _, _, ys, etas, logs in _leg(p, ctx, (3, s0, s_far), omegas, lams, at_r0,
                                           lambda y: y >= 0.1 * y_far):
        slopes[rows], amp[rows] = -_slopes(ys, etas), np.exp(logs.min(axis=1))
    return slopes, amp, decay, ph
