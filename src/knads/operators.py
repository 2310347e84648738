"""Coefficient functions of the separated angular and radial operators, and
the tortoise-coordinate maps.

The angular operator acts on two-component functions of theta in the measure
dtheta / sqrt(Delta_theta); its potential matrix M(theta) is symmetric with
M22 = -M11. The radial Hamiltonian acts on two-component functions of the
tortoise coordinate; its potential V tends to phi_plus * I at the horizon.

Near-horizon quantities are evaluated through the factored form of Delta_r,
Delta_r = (r - r_plus)(r - r_minus) q2(r) / l^2, which is free of the
cancellation the monomial quartic suffers at small r - r_plus.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from scipy.integrate import solve_ivp

from .geometry import OutsideExterior, find_horizons, horizon_slope, require_finite


class DomainError(ValueError):
    """Raised when a coordinate sits outside the open domain of a coefficient
    function (e.g. theta at an endpoint)."""


class QuadratureFailure(Exception):
    """Raised when adaptive quadrature for the tortoise map exceeds budget."""


@dataclass(frozen=True)
class ModeContext:
    """One partial wave: field mass mu, field charge e, half-integer wave
    number k, frequency omega, and the gauge parameter gauge_b (default 0).

    2k must be an odd integer. The magnetic coupling d = q_m e / xi is never
    stored; it is recomputed from a parameter set via dirac_d."""

    mu: float
    e: float
    k: float
    omega: float = 0.0
    gauge_b: float = 0.0

    def __post_init__(self):
        require_finite(self)
        two_k = 2.0 * self.k
        if abs(two_k - round(two_k)) > 1e-12 or round(two_k) % 2 == 0:
            raise ValueError("2k must be an odd integer")

    @property
    def n(self):
        """Integer index with k = n + 1/2."""
        return int(round(self.k - 0.5))

    def with_omega(self, omega):
        return ModeContext(self.mu, self.e, self.k, omega, self.gauge_b)


def dirac_d(p, ctx):
    """Magnetic coupling d = q_m e / xi. Integer d is the quantization
    condition for essential self-adjointness of every angular partial wave."""
    return p.q_m * ctx.e / p.xi


def sigma_function(p, ctx, theta):
    """sigma_b(theta) = d (cos(theta) - b) - k; the b shift implements the
    gauge replacement q_m cos(theta) -> q_m (cos(theta) - b)."""
    d = dirac_d(p, ctx)
    return d * (np.cos(theta) - ctx.gauge_b) - ctx.k


def _angular_entries(p, ctx, theta):
    """(M11, M12) of the angular potential matrix, vectorized over theta."""
    theta = np.asarray(theta, dtype=float)
    dth = 1.0 - (p.a / p.l) ** 2 * np.cos(theta) ** 2
    sq = np.sqrt(dth)
    m11 = p.xi * sigma_function(p, ctx, theta) / (sq * np.sin(theta)) + (
        p.a * ctx.omega * np.sin(theta) / sq
    )
    m12 = -ctx.mu * p.a * np.cos(theta)
    return m11, m12 + np.zeros_like(m11)


def angular_matrix(p, ctx, theta):
    """Symmetric 2x2 potential matrix M(theta) of the angular operator,
    frequency term included:

        M11 = xi sigma_b / (sqrt(Delta_theta) sin(theta))
              + a omega sin(theta) / sqrt(Delta_theta)
        M22 = -M11,   M12 = M21 = -mu a cos(theta).

    theta must lie strictly inside (0, pi)."""
    if not 0.0 < theta < math.pi:
        raise DomainError("theta must lie in the open interval (0, pi)")
    m11, m12 = _angular_entries(p, ctx, theta)
    m11 = float(m11)
    m12 = float(m12)
    return np.array([[m11, m12], [m12, -m11]])


def _p_function(p, ctx, r):
    """P(r) = a xi k + e (q_e r + b q_m a); enters the radial diagonal."""
    return p.a * p.xi * ctx.k + ctx.e * (p.q_e * r + ctx.gauge_b * p.q_m * p.a)


def phi_plus(p, ctx):
    """Horizon asymptotic potential level P(r_plus) / (r_plus^2 + a^2)."""
    hd = find_horizons(p)
    return _p_function(p, ctx, hd.r_plus) / (hd.r_plus**2 + p.a**2)


def _factored_quartic_terms(p):
    """(r_plus, r_minus, q2 coefficients) with Delta_r =
    (r-r_plus)(r-r_minus) q2(r) / l^2 and q2(r) = r^2 + c1 r + c0."""
    hd = find_horizons(p)
    rp = hd.r_plus
    rm = hd.r_minus if hd.r_minus is not None else 0.0
    c1 = rp + rm
    c0 = rp * rp + rm * rm + rp * rm + p.a**2 + p.l**2
    return rp, rm, c1, c0


def sqrt_delta_r_from_u(p, u):
    """sqrt(Delta_r) at r = r_plus + u, via the factored quartic; exact at
    u = 0 and stable for tiny u, vectorized."""
    rp, rm, c1, c0 = _factored_quartic_terms(p)
    u = np.asarray(u, dtype=float)
    r = rp + u
    q2 = (r + c1) * r + c0
    return np.sqrt(u * (u + (rp - rm)) * q2) / p.l


def _radial_terms(p, ctx, lam, u):
    """(diag, conf, off) at r = r_plus + u, vectorized: V11 = diag + conf,
    V22 = diag - conf, V12 = off."""
    rp = find_horizons(p).r_plus
    u = np.asarray(u, dtype=float)
    r = rp + u
    r2a2 = r * r + p.a**2
    sq = sqrt_delta_r_from_u(p, u)
    return _p_function(p, ctx, r) / r2a2, ctx.mu * r * sq / r2a2, lam * sq / r2a2


def radial_potential_from_u(p, ctx, lam, u):
    """Entries (V11, V22, V12) of the radial potential at r = r_plus + u,
    vectorized and cancellation-free near the horizon:

        V11 = (P + mu r sqrt(Delta_r)) / (r^2 + a^2)
        V22 = (P - mu r sqrt(Delta_r)) / (r^2 + a^2)
        V12 = lambda sqrt(Delta_r) / (r^2 + a^2)."""
    diag, conf, off = _radial_terms(p, ctx, lam, u)
    return diag + conf, diag - conf, off


def deviation_norm(p, ctx, lam, u):
    """Frobenius norm of V - phi_plus * I at r = r_plus + u, vectorized.

    Its diagonal is formed as (diag - phi_plus) +- conf, never as
    V11 - phi_plus: once conf drops below an ulp of phi_plus, V11 and V22
    round to the same value and the difference would lose it."""
    diag, conf, off = _radial_terms(p, ctx, lam, u)
    dev = diag - phi_plus(p, ctx)
    return np.sqrt((dev + conf) ** 2 + (dev - conf) ** 2 + 2.0 * off**2)


def radial_potential(p, ctx, lam, r):
    """Symmetric 2x2 radial potential V(r) in the tortoise form, for a single
    exterior radius r > r_plus. lam is the angular eigenvalue of the partial
    wave (a plain parameter here)."""
    hd = find_horizons(p)
    if r < hd.r_plus:
        raise OutsideExterior("radial potential is defined on r > r_plus")
    v11, v22, v12 = radial_potential_from_u(p, ctx, lam, r - hd.r_plus)
    return np.array([[float(v11), float(v12)], [float(v12), float(v22)]])


def confinement_density(p, ctx, r):
    """mu r / sqrt(Delta_r): the diagonal growth responsible for the discrete
    spectrum of the confined radial operator. Its integral over [r0, R)
    diverges like mu l log R, and r * density -> mu l."""
    r = np.asarray(r, dtype=float)
    return ctx.mu * r / np.sqrt(delta_r_vec(p, r))


def delta_r_vec(p, r):
    """Vectorized Delta_r through the factored form (positive on the
    exterior)."""
    rp, rm, c1, c0 = _factored_quartic_terms(p)
    r = np.asarray(r, dtype=float)
    return (r - rp) * (r - rm) * ((r + c1) * r + c0) / p.l**2


_DECADE_NODES, _DECADE_WEIGHTS = np.polynomial.legendre.leggauss(64)


def decade_integrals(f, r0, n_decades):
    """Integrals of f(r) dr over the decades [r0 10^j, r0 10^(j+1)],
    j < n_decades, each by 64-node Gauss-Legendre in log r (dr = r dlog r).
    f is vectorized over r; returns a list of floats."""
    vals = []
    for j in range(n_decades):
        lo = math.log(r0) + j * math.log(10.0)
        t = 0.5 * math.log(10.0) * (_DECADE_NODES + 1.0) + lo
        r = np.exp(t)
        vals.append(0.5 * math.log(10.0) * float((f(r) * r) @ _DECADE_WEIGHTS))
    return vals


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _tail_integral(p, r):
    """y contribution of [r, infinity): substitute v = 1/t, giving the
    analytic integrand (1 + a^2 v^2) / W(v) with
    W(v) = (1 + a^2 v^2)(1 + l^2 v^2)/l^2 - 2 m v^3 + z^2 v^4."""
    r = np.asarray(r, dtype=float)
    half = 0.5 / r
    v = half[..., None] * (_GAUSS_NODES + 1.0)
    w = (
        (1.0 + (p.a * v) ** 2) * (1.0 + (p.l * v) ** 2) / p.l**2
        - 2.0 * p.m * v**3
        + p.z2 * v**4
    )
    g = (1.0 + (p.a * v) ** 2) / w
    return (g @ _GAUSS_WEIGHTS) * half


class TortoiseMap:
    """Monotone map between exterior radius and the tortoise coordinates.

    y(r) = integral_r^infinity (t^2 + a^2) / Delta_t dt is strictly
    decreasing with y -> infinity at the horizon and y -> 0+ at infinity;
    x = -y. Built once per parameter set: a dense ODE solution in
    s = log(r - r_plus) spans the bulk, a closed quadrature covers the far
    tail, and asymptotic branches extend both ends (exponential approach for
    a non-extremal horizon, 1/y approach for an extremal one).

    Every radial Magnus sweep runs in s itself and maps its nodes back to y
    through y_of_s, so the inverse (log_u_of_y, one vectorized Newton loop)
    stays off its hot path. It maps interval endpoints once per call, and
    places the y nodes of the finite-difference oracle, of classify's
    deviation bound and of the AC/Levinson deviation integrals.
    """

    def __init__(self, p, n_init=4000):
        hd = find_horizons(p)
        self.p = p
        self.r_plus = hd.r_plus
        self.extremal = hd.extremal
        _, rm, c1, c0 = _factored_quartic_terms(p)
        self._rm, self._c1, self._c0 = rm, c1, c0

        self.r_big = 50.0 * max(self.r_plus, p.l)
        s_hi = math.log(self.r_big - self.r_plus)
        u_lo = 1e-12 * max(self.r_plus, p.l)
        s_lo = math.log(u_lo)
        y_big = float(_tail_integral(p, self.r_big))

        if self.extremal:
            # Stop the log-range at a moderate u and hand over to v = 1/u.
            s_lo = math.log(0.25 * self.r_plus)
        sol = solve_ivp(
            lambda s, _y: self._dyds(s),
            (s_hi, s_lo),
            [y_big],
            method="DOP853",
            rtol=1e-12,
            atol=1e-15,
            dense_output=True,
        )
        if not sol.success:
            raise QuadratureFailure(sol.message)
        self._sol = sol.sol
        self.s_lo, self.s_hi = s_lo, s_hi
        self.y_at_s_lo = float(self._sol(s_lo)[0])
        # Horizon-side asymptotics.
        if not self.extremal:
            self.slope = horizon_slope(p)
        else:
            q2e = (self.r_plus + c1) * self.r_plus + c0
            self._a_inf = p.l**2 * (self.r_plus**2 + p.a**2) / q2e
            v_mid = math.exp(-s_lo)
            self.v_hi = v_mid * 1e15

            def dydv(v, _y):
                r = self.r_plus + 1.0 / v
                q2 = (r + c1) * r + c0
                return p.l**2 * (r * r + p.a**2) / q2

            solv = solve_ivp(
                dydv,
                (v_mid, self.v_hi),
                [self.y_at_s_lo],
                method="DOP853",
                rtol=1e-12,
                atol=1e-15,
                dense_output=True,
            )
            if not solv.success:
                raise QuadratureFailure(solv.message)
            self._solv = solv.sol
            self.y_at_v_hi = float(solv.sol(self.v_hi)[0])
        # Seed table of the inverse, from the extremal v-branch (or s_lo)
        # into the far tail (y ~ l^2 / r, down to y ~ 1e-12 l^2 / r_big); s
        # descends so that log y ascends, as np.interp needs.
        s_min = -math.log(self.v_hi) if self.extremal else s_lo
        self._s_table = np.linspace(s_hi + 12.0 * math.log(10.0), s_min, n_init)
        self._logy_table = np.log(self.y_of_s(self._s_table))

    # -- forward map ------------------------------------------------------

    def _dyds(self, s):
        u = np.exp(s)
        r = self.r_plus + u
        q2 = (r + self._c1) * r + self._c0
        rp_minus_rm = self.r_plus - self._rm
        return -(self.p.l**2) * ((r * r + self.p.a**2) / q2) / (u + rp_minus_rm)

    def y(self, r):
        """Tortoise coordinate y(r), scalar or array, for r > r_plus."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= self.r_plus):
            raise OutsideExterior("tortoise map is defined on r > r_plus")
        return self.y_of_s(np.log(r - self.r_plus))

    def y_of_s(self, s):
        """y at r = r_plus + e^s, scalar or array, also where e^s underflows:
        below s_lo the non-extremal map continues linearly in s, the extremal
        one in v = e^-s (there y ~ a_inf e^-s overflows once s is below
        about log(a_inf) - 709)."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        out = np.empty_like(s)
        far = s >= self.s_hi
        if far.any():
            out[far] = _tail_integral(self.p, self.r_plus + np.exp(s[far]))
        inside = ~far & (s >= self.s_lo)
        if inside.any():
            out[inside] = self._sol(s[inside])[0]
        deep = s < self.s_lo
        if deep.any():
            if not self.extremal:
                out[deep] = self.y_at_s_lo + self.slope * (self.s_lo - s[deep])
            else:
                v = np.exp(-s[deep])
                out[deep] = np.where(
                    v > self.v_hi,
                    self.y_at_v_hi + self._a_inf * (v - self.v_hi),
                    self._solv(np.minimum(v, self.v_hi))[0],
                )
        return float(out[0]) if scalar else out

    def x(self, r):
        """Infinity-compactified coordinate x(r) = -y(r), in (-infinity, 0)."""
        return -self.y(r)

    # -- inverse map ------------------------------------------------------

    def log_u_of_y(self, y):
        """log(r - r_plus) as a function of y; exact even where r - r_plus
        underflows. Vectorized.

        Newton on log y_of_s(s) = log y with the analytic dy/ds, seeded from
        the (log y, s) table, or past a non-extremal s_lo from the exact
        linear branch. Each point stops on its own once its step falls below
        1e-14 max(1, |s|), so a result does not depend on the batch."""
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0):
            raise ValueError("y must be positive")
        yf = y.ravel()
        logy = np.log(yf)
        s = np.interp(logy, self._logy_table, self._s_table)
        if not self.extremal:
            deep = yf > self.y_at_s_lo
            s[deep] = self.s_lo - (yf[deep] - self.y_at_s_lo) / self.slope
        active = np.arange(s.size)
        for _ in range(60):
            sa = s[active]
            ya = self.y_of_s(sa)
            step = (np.log(ya) - logy[active]) * ya / self._dyds(sa)
            s[active] = sa - step
            active = active[np.abs(step) > 1e-14 * np.maximum(1.0, np.abs(sa))]
            if not active.size:
                break
        return float(s[0]) if y.ndim == 0 else s.reshape(y.shape)

    def u_of_y(self, y):
        """r - r_plus as a function of y; underflows gracefully to 0 deep in
        the non-extremal horizon region (where the potential is exactly at
        its limit to machine precision)."""
        with np.errstate(under="ignore"):
            return np.exp(self.log_u_of_y(y))


@lru_cache(maxsize=64)
def tortoise_map(p):
    """Cached per-parameter-set TortoiseMap (one-time build, read-only use)."""
    return TortoiseMap(p)


def tortoise_y(p, r):
    """y(r): horizon-compactifying tortoise coordinate (y -> infinity at the
    horizon, y -> 0+ at infinity)."""
    return tortoise_map(p).y(r)


def tortoise_x(p, r):
    """x(r) = -y(r): infinity-compactifying coordinate on (-infinity, 0)."""
    return tortoise_map(p).x(r)
