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

Every integration runs magnus.sweep on the Magnus Omega tabulated once per
mesh as a polynomial in (omega, lambda) (_radial_tables): the confined solve
on two sides, the certificates and the continuation evidence on recorded
legs (_leg). One rule, _leg_intervals, sizes every mesh a priori: per row of
a recorded leg, and for the confined solve as the larger of its two sides at
the window's |omega| bound, from which magnus.solve_window checks each
eigenvalue at n/2.

Certificate evidence is numeric and reproducible: decade-resolved integrals
with Cauchy-tail ratios, linear fits of Prüfer phase slopes, and growth
exponents fitted on the continuation evidence's infinity leg (_infinity_leg).
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .angular import NotLimitPoint
from .geometry import Refusal, find_horizons
from .magnus import (GAUSS, GRADE, PHASE_STEP, magnus_terms, mesh_size, omega_table, solve_window, sweep,
                     sweep_ends, window_bound)
from .operators import (
    _radial_terms,
    confinement_density,
    decade_integrals,
    deviation_norm,
    gauss_segments,
    phi_plus,
    tortoise_map,
)
# Unused; perfbench's test_wrappers_restore_original_bindings needs it bound.
from .rk import integrate  # noqa: F401

DEFAULT_DELTA = 1e-5
_BETA = math.pi / 4  # confined solve: phase at r0, equal components
_TOL = 1e-10  # confined solve: eigenvalue bracket and n/2 mesh check
_Y_START, _Y_MAX = 1.0, 1e4  # horizon certificates: the stretch in y
_Y_FAR = 1e3  # continuation evidence: end of the horizon leg in y
_N_DECADES = 4  # confinement certificate: decades from r0
_PHASE_CAP = 1.0  # recorded legs: the rotation's phase move per interval where the potential mixes


class NotConfining(Refusal):
    """The discrete-spectrum mechanism needs mu > 0; without the mass term
    the operator is not confining toward infinity."""


class TooCloseToPhiPlus(Refusal):
    """The oscillation certificate is ill-conditioned for omega within 1e-6
    of phi_plus; the Levinson certificate covers that point."""


@dataclass(frozen=True)
class RadialCertificate:
    """One radial certificate: its kind (Hor_AC_L1, Extremal_Cesaro,
    Levinson_phi_plus, Hor_oscillation or Hinf_discrete), the numeric
    evidence it rests on, and whether that evidence passes."""

    kind: str
    evidence: dict
    passed: bool


def _infinity_init(p, ctx, lam, omegas, delta):
    """Recessive phase at y = delta with the first-order correction."""
    mul = ctx.mu * p.l
    return math.pi / 4 + (lam / p.l - np.asarray(omegas, float)) * delta / (
        1.0 + 2.0 * mul
    )


def default_r0(p):
    return find_horizons(p).r_plus + p.l


def _matching_point(p, r0, delta):
    """(r0, y(r0)), r0 = default_r0 when None, for a sweep from the infinity
    cutoff y = delta; refused when y(r0) <= 20 delta leaves too short a leg."""
    named = "r0" if r0 is not None else "the default r0 = r_plus + l"
    r0 = default_r0(p) if r0 is None else r0
    if not (y0 := tortoise_map(p).y(r0)) > 20.0 * delta:
        raise Refusal(f"{named} = {r0:.7g} has y(r0) = {y0:.3g}, not above 20 times the "
                      f"infinity cutoff y = {delta:g}")
    return r0, y0


# (component, monomial omega^i lambda^j) of the signed rows (h0, g1, -g2, g4).
_RADIAL_LAYOUT = ((0, (0, 1)), (1, (1, 0)), (2, (0, 0)), (1, (0, 0)))


def _system_rows(p, ctx, s):
    """Rows at s of the radial system in s, A = lambda h0 sigma_z + (omega
    g1 + g4) J - g2 sigma_x, as laid out in _RADIAL_LAYOUT: affine in omega
    and in lambda, like the angular system in (lambda, domega)."""
    diag, conf, off = _radial_terms(p, ctx, 1.0, np.exp(s))
    g = np.stack([off, np.ones_like(s), -conf, -diag])
    return -tortoise_map(p)._dyds(s) * g


def _leg_nodes(legs, n):
    """Node times (legs, pieces * n + 1) of legs (grade, s_0, ..., s_k), n
    intervals on each piece [s_i, s_i+1]: uniform in e^{-s/GRADE} for grade
    "exp" (short toward s_i+1 when s_i > s_i+1), else at s_i + (s_i+1 -
    s_i) u^grade, u uniform (short toward s_i for grade 3)."""
    out, u = [], np.linspace(0.0, 1.0, n + 1)
    for grade, *ends in legs:
        a, b = np.array(ends[:-1])[:, None], np.array(ends[1:])[:, None]
        if grade == "exp":
            v = np.exp(-a / GRADE)
            ts = -GRADE * np.log(v + (np.exp(-b / GRADE) - v) * u)
        else:
            ts = a + (b - a) * u**grade
        ts[:, 0], ts[:, -1] = a[:, 0], b[:, 0]
        out.append(np.append(ts[:, :-1], b[-1]))
    return np.array(out)


@lru_cache(maxsize=8)
def _radial_tables(p, ctx, legs, n):
    """Omega coefficients of the legs (_leg_nodes), as magnus.omega_table
    lays them out for the rows _RADIAL_LAYOUT, all 15 monomials omega^i
    lambda^j: one table serves every (omega, lambda) row."""
    ts = _leg_nodes(legs, n)
    h = np.diff(ts)
    g = _system_rows(p, ctx, ts[:, :-1, None] + h[..., None] * GAUSS)
    return omega_table(magnus_terms(h, g), _RADIAL_LAYOUT)


def _leg_intervals(p, ctx, leg, omegas, lams):
    """Magnus intervals per piece of leg for each row (omega, lambda), from
    the leading-order n h(s) of the leg's grading at n = 1024, by accuracy
    bounds alone: the change of A across an interval, h^2 |A'|, stays within
    PHASE_STEP, and where the sigma_z and sigma_x parts (the potential)
    still move the phase by PHASE_STEP / n or more, the rotation omega g1 +
    g4 that they mix moves it by at most _PHASE_CAP. Beyond, A is a rotation
    settling to its limit, whose half-turns magnus.sweep counts. The hyperbolic
    sigma_z and sigma_x parts need no cap: they peak where A is nearly
    constant, and the swept solution is dominant in its direction of travel."""
    ts = _leg_nodes((leg,), 1024)[0]
    nh = 1024.0 * np.abs(np.diff(ts))
    g = _system_rows(p, ctx, ts)
    vary = 1024.0 * np.max(nh * np.abs(np.diff(g)), axis=1)
    h0, g1, g2, g4 = nh * np.maximum(np.abs(g[:, 1:]), np.abs(g[:, :-1]))
    om, lam = np.abs(omegas), np.abs(lams)
    cap = np.empty(om.shape)
    for i in range(0, om.size, 64):  # in row blocks, so the (rows, samples) arrays stay small
        mix = lam[i:i + 64, None] * h0 + g2
        cap[i:i + 64] = np.max(np.where(mix >= PHASE_STEP, om[i:i + 64, None] * g1 + g4, 0.0), axis=1)
    acc = [np.sqrt(v / PHASE_STEP) for v in (om * vary[1], lam * vary[0], vary[2] + vary[3])]
    causes = (("|omega| = {:g}", om, np.maximum(acc[0], om * np.max(g1) / _PHASE_CAP)),
              ("|lambda| = {:g}", lam, acc[1]),
              ("the radial potential at lambda = {:g}", lam, acc[2]))
    return mesh_size(np.maximum(np.sqrt(sum(a * a for a in acc)), cap / _PHASE_CAP), causes)


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
        tabs = _radial_tables(p, ctx, (leg,), int(nn))
        end, (etas, logs) = sweep(tabs, omegas[rows], lams[rows], eta0[rows], sel)
        yield rows, end, ts[sel], ys[sel], etas.T.copy(), logs.T.copy()


def _defect_hinf(p, ctx, lam, omegas, legs, delta, beta_infinity, n):
    """Phase mismatch per omega at the common end of legs, the shots from r0
    (phase _BETA) and from y = delta, on n intervals per leg (a scalar or
    one per omega)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    inf0 = _infinity_init(p, ctx, lam, omegas, delta) if beta_infinity is None else beta_infinity
    eta0 = np.concatenate([np.full(omegas.shape, _BETA), np.broadcast_to(inf0, omegas.shape)])
    phases = sweep_ends(lambda nn: _radial_tables(p, ctx, legs, nn), n, omegas, float(lam), eta0)
    return phases[: omegas.size] - phases[omegas.size:]


def hinf_eigenvalues(p, ctx, lam, r0=None, window=(-5.0, 5.0), beta_infinity=None, delta=DEFAULT_DELTA):
    """Eigenvalues of the confined radial operator on (r0, infinity) in the
    frequency window, by two-sided Prüfer shooting.

    The boundary condition at r0 is the phase pi/4 (equal components); the
    infinity side starts on the recessive branch at y = delta unless mu*l <
    1/2, in which case that endpoint is limit circle and an explicit
    beta_infinity is required. The two sides meet at y(r0)/2; the matching
    defect is strictly increasing in omega, and solve_window locates every
    eigenvalue to 1e-10 from the _leg_intervals mesh of the window's |omega|
    bound, each item's mesh doubled while its n/2 check estimates a larger
    error. A window without finite ends lo < hi is an InputError."""
    lo, hi, bound = window_bound(window)
    if ctx.mu == 0.0:
        raise NotConfining("mu = 0 has no confining term; spectrum not discrete")
    if ctx.mu * p.l < 0.5 and beta_infinity is None:
        raise NotLimitPoint(
            "r=infinity is limit circle for mu*l < 1/2; supply beta_infinity"
        )
    r0, y0 = _matching_point(p, r0, delta)
    tm = tortoise_map(p)
    s0, sc, sd = math.log(r0 - tm.r_plus), float(tm.log_u_of_y(0.5 * y0)), float(tm.log_u_of_y(delta))
    legs = (("exp", s0, sc), ("exp", sd, sc))
    n = max(int(_leg_intervals(p, ctx, leg, [bound], [lam])[0]) for leg in legs)
    return solve_window(lambda omegas, n: _defect_hinf(p, ctx, lam, omegas, legs, delta, beta_infinity, n),
                        lo, hi, _TOL, n, f"|omega| <= {bound:g}")


def _deviation_segments(p, ctx, lam, breaks):
    """Integrals of ||V - phi_plus I||_F dy over consecutive [breaks_i,
    breaks_{i+1}] in y (gauss_segments), the nodes mapped to r in one call."""
    tm = tortoise_map(p)
    return gauss_segments(lambda y: deviation_norm(p, ctx, lam, tm.u_of_y(y)), breaks)


def horizon_ac_certificate(p, ctx, lam):
    """Horizon-side decay certificate for the potential.

    Non-extremal: the integral of ||V - phi_plus I|| dy up to Y in
    {1e2, 1e3, 1e4} converges, certified by Cauchy tails (each tail below 5%
    of the previous). Extremal: the deviation decays only like 1/y, so the
    plain integral grows while the Cesàro mean (1/Y) * integral still tends
    to 0; both facts are recorded."""
    hd = find_horizons(p)
    breaks = np.concatenate(
        [np.geomspace(_Y_START, 1e2, 9), np.geomspace(1e2, 1e3, 9)[1:], np.geomspace(1e3, _Y_MAX, 9)[1:]]
    )
    totals = np.cumsum(_deviation_segments(p, ctx, lam, breaks))[7::8]  # up to Y = 1e2, 1e3, 1e4
    total_100, total_1k, total_10k = totals
    integral_y = dict(zip((1e2, 1e3, 1e4), totals.tolist()))
    tail_1 = total_1k - total_100
    tail_2 = total_10k - total_1k
    if not hd.extremal:
        ratio = tail_2 / tail_1 if tail_1 > 0 else 0.0
        evidence = {"integral_Y": integral_y, "tail_ratio": float(ratio), "norm": "frobenius"}
        return RadialCertificate("Hor_AC_L1", evidence, bool(ratio < 0.05) or (total_10k == 0.0))
    cesaro = {y: v / y for y, v in integral_y.items()}
    rate = math.log(cesaro[1e4] / cesaro[1e2]) / math.log(1e4 / 1e2) if cesaro[1e2] > 0 else 0.0
    growing = total_10k > total_1k > total_100
    passed = bool(growing and cesaro[1e4] < cesaro[1e3] < cesaro[1e2] and cesaro[1e4] < 0.2 * cesaro[1e2])
    evidence = {"integral_Y": integral_y, "cesaro_Y": cesaro, "decay_rate": float(rate),
                "l1_diverges": bool(growing), "norm": "frobenius"}
    return RadialCertificate("Extremal_Cesaro", evidence, passed)


def levinson_phi_plus(p, ctx, lam):
    """Non-eigenvalue certificate at omega = phi_plus.

    Integrates X' = Rbar(y) X for two independent initial vectors, where
    Rbar is the system matrix at omega = phi_plus; since ||Rbar|| is L^1 the
    solutions approach constant non-zero vectors, so no solution is square
    integrable in y and phi_plus is not an eigenvalue. The solutions start
    at the unit vectors, (eta, log rho) = (0, 0) and (pi/2, 0), and are swept
    in s on a leg whose pieces end at the checkpoints (mapped to s once), so
    every checkpoint is a mesh node."""
    if find_horizons(p).extremal:
        raise Refusal("Levinson certificate applies to the non-extremal case")
    ph = phi_plus(p, ctx)
    tm = tortoise_map(p)
    checkpoints = tm.log_u_of_y(np.array([_Y_START, _Y_MAX / 8, _Y_MAX / 4, _Y_MAX / 2, _Y_MAX]))
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
    integrable = _deviation_segments(p, ctx, lam, np.geomspace(_Y_START, _Y_MAX, 17))
    cauchy = float(integrable[-4:].sum() / max(integrable.sum(), 1e-300))
    min_norm = math.exp(min_logr)
    passed = bool(max(rel_changes) < 1e-4 and min_norm > 0.5 and cauchy < 0.05)
    evidence = {"final_vectors": vecs[-1].tolist(), "asymptotic_rel_change": rel_changes,
                "min_norm_over_traces": min_norm, "rbar_l1_segments": integrable.tolist(),
                "rbar_l1_cauchy_tail": cauchy, "phi_plus": float(ph)}
    return RadialCertificate("Levinson_phi_plus", evidence, passed)


def horizon_oscillation(p, ctx, lam, omega):
    """Oscillatory (non-normalizable) behavior certificate at the horizon for
    omega != phi_plus: the Prüfer phase grows linearly with slope omega -
    phi_plus in the x convention, and the Prüfer radius stays bounded."""
    if find_horizons(p).extremal:
        raise Refusal("oscillation certificate applies to the non-extremal case")
    ph = phi_plus(p, ctx)
    if abs(omega - ph) < 1e-6:
        raise TooCloseToPhiPlus(f"|omega - phi_plus| = {abs(omega - ph):.2e} < 1e-6")
    s_start = float(tortoise_map(p).log_u_of_y(_Y_START))
    (slope,), (lo,), (hi,) = _horizon_leg(p, ctx, s_start, _Y_MAX, omega, lam, 0.0)
    expected = omega - ph
    rel = abs(slope - expected) / abs(expected)
    rr = float(np.exp(hi - lo))
    evidence = {"slope": float(slope), "expected": float(expected), "rel_err": float(rel), "radius_ratio": rr,
                "phi_plus": float(ph), "omega": float(omega), "y_max": _Y_MAX}
    return RadialCertificate("Hor_oscillation", evidence, bool(rel < 1e-3 and rr < 10.0))


def confinement_certificate(p, ctx, r0=None):
    """Discreteness evidence: the confinement density mu*r/sqrt(Delta_r)
    integrates to mu*l per log-decade (so its integral diverges like
    mu*l*log R), and r * density tends to mu*l."""
    if ctx.mu == 0.0:
        raise NotConfining("mu = 0 has no confining term")
    r0 = default_r0(p) if r0 is None else r0
    vals = decade_integrals(lambda r: confinement_density(p, ctx, r), r0, _N_DECADES)
    mul = ctx.mu * p.l
    target = mul * math.log(10.0)
    rel_last = abs(vals[-1] - target) / target
    tail_r = r0 * 10.0**_N_DECADES
    limit_val = float(confinement_density(p, ctx, tail_r) * tail_r)
    passed = bool(rel_last < 1e-2 and abs(limit_val - mul) / mul < 1e-2)
    evidence = {"per_decade_integrals": vals.tolist(), "per_decade_target": float(target),
                "r_times_density_at_far": limit_val, "mu_l": float(mul)}
    return RadialCertificate("Hinf_discrete", evidence, passed)


def infinity_growth_exponents(p, ctx, lam, omega):
    """Fitted growth exponents of the radial system toward infinity, in r.

    Both come from the infinity leg of the continuation evidence
    (_infinity_leg), fitted in log y ~ -log r: a generic solution swept
    outward from default_r0 is dominated by the growing branch and gives
    +mu*l, and the recessive solution swept inward from the cutoff gives
    -mu*l, the evidence's decay exponent."""
    _, _, grow = _infinity_leg(p, ctx, None, [omega], [lam], math.atan2(0.7, 1.0), inward=False)
    _, _, decay = _infinity_leg(p, ctx, None, [omega], [lam],
                                _infinity_init(p, ctx, lam, omega, DEFAULT_DELTA), inward=True)
    return -float(grow[0]), -float(decay[0])


def _infinity_leg(p, ctx, r0, omegas, lams, eta0, inward):
    """Sweeps of the rows (omegas, lams) from the phases eta0 along the
    "exp" leg between r0 (through _matching_point) and the infinity cutoff
    y = DEFAULT_DELTA, graded like the confined solve's infinity side:
    inward from the cutoff, or outward from r0. Returns log(r0 - r_plus)
    and per row the phase at the leg's end and the slope of log rho against
    log y over the half of log y nearest infinity."""
    r0, y0 = _matching_point(p, r0, DEFAULT_DELTA)
    tm = tortoise_map(p)
    s0, sd = math.log(r0 - tm.r_plus), float(tm.log_u_of_y(DEFAULT_DELTA))
    mid = math.log(DEFAULT_DELTA) + 0.5 * (math.log(y0) - math.log(DEFAULT_DELTA))
    end, slope = np.empty(len(lams)), np.empty(len(lams))
    for rows, e, _, ys, _, logs in _leg(p, ctx, ("exp", sd, s0) if inward else ("exp", s0, sd),
                                        omegas, lams, eta0, lambda y: np.log(y) <= mid):
        end[rows], slope[rows] = e, _slopes(np.log(ys), logs)
    return s0, end, slope


def _horizon_leg(p, ctx, s_start, y_end, omegas, lams, eta0):
    """Sweeps of the rows (omegas, lams) from the phases eta0 along the grade
    3 leg from s_start to y = y_end, short intervals near s_start, where A
    varies. Returns per row the phase slope in the x convention and the min
    and max of log rho, counted from s_start, over y >= y_end / 10."""
    s_end = float(tortoise_map(p).log_u_of_y(y_end))
    slope, lo, hi = np.empty((3, np.broadcast(np.atleast_1d(omegas), lams, eta0).size))
    for rows, _, _, ys, etas, logs in _leg(p, ctx, (3, s_start, s_end), omegas, lams, eta0,
                                           lambda y: y >= 0.1 * y_end):
        slope[rows], lo[rows], hi[rows] = -_slopes(ys, etas), logs.min(axis=1), logs.max(axis=1)
    return slope, lo, hi


def _slopes(x, y):
    """Least-squares slopes of the rows of y against x, centred. Each row's
    sums run along its own contiguous row, so a row does not depend on how
    many share the array."""
    xc = x - x.mean()
    return np.sum(xc * (y - y.mean(axis=1, keepdims=True)), axis=1) / np.sum(xc * xc)


def horizon_continuation_evidence(p, ctx, lams, omegas, r0=None):
    """Batched non-normalizability evidence for (omega, lambda) pairs.

    The recessive-at-infinity solution is continued from y = DEFAULT_DELTA
    through the matching radius r0 and out to y_far = 1e3 on the horizon side. For a
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
    inf0 = _infinity_init(p, ctx, lams, omegas, DEFAULT_DELTA)
    s0, at_r0, decay = _infinity_leg(p, ctx, r0, omegas, lams, inf0, inward=True)
    slopes, lo, _ = _horizon_leg(p, ctx, s0, _Y_FAR, omegas, lams, at_r0)
    return slopes, np.exp(lo), decay, phi_plus(p, ctx)

