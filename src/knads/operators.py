"""Coefficient functions of the separated angular and radial operators, and
the tortoise-coordinate maps.

The angular operator acts on two-component functions of theta in the measure
dtheta / sqrt(Delta_theta); its potential matrix M(theta) is symmetric with
M22 = -M11. The radial Hamiltonian acts on two-component functions of the
tortoise coordinate; its potential V tends to phi_plus * I at the horizon.

Near-horizon quantities are evaluated through the factored form of Delta_r
(geometry.quartic_q2 and geometry.horizon_gap), which is free of the
cancellation the monomial quartic suffers at small r - r_plus.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .geometry import (InputError, OutsideExterior, Refusal, delta_theta, find_horizons, horizon_coefficient,
                       horizon_gap, horizon_slope, quartic_q2, require_finite)


class ParameterOverflow(InputError):
    """A parameter so large that a coefficient overflows; names the parameter."""


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
            raise InputError("2k must be an odd integer")

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
    sq = np.sqrt(delta_theta(p, theta))
    m11 = p.xi * sigma_function(p, ctx, theta) / (sq * np.sin(theta)) + (
        p.a * ctx.omega * np.sin(theta) / sq
    )
    m12 = -ctx.mu * p.a * np.cos(theta)
    return m11, m12 + np.zeros_like(m11)


def _p_function(p, ctx, r):
    """P(r) = a xi k + e (q_e r + b q_m a); enters the radial diagonal.
    Raises ParameterOverflow, naming e, where P is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = p.a * p.xi * ctx.k + ctx.e * (p.q_e * r + ctx.gauge_b * p.q_m * p.a)
    if not np.all(np.isfinite(out)):
        raise ParameterOverflow(f"e = {ctx.e:g} overflows P(r) = a xi k + e (q_e r + b q_m a)")
    return out


def phi_plus(p, ctx):
    """Horizon asymptotic potential level P(r_plus) / (r_plus^2 + a^2)."""
    hd = find_horizons(p)
    return _p_function(p, ctx, hd.r_plus) / (hd.r_plus**2 + p.a**2)


def _u_max(p):
    """min(1e75, 1e150 / sqrt(c0)), c0 = q2(0): past this u = r - r_plus,
    u^2 q2(r) could overflow (q2 <= r^2 + 3 r sqrt(c0) + c0)."""
    return min(1e75, 1e150 / math.sqrt(quartic_q2(p, 0.0)))


def sqrt_delta_r_from_u(p, u):
    """sqrt(Delta_r) = sqrt(u (u + gap) q2(r)) / l at r = r_plus + u, via
    the factored quartic; exact at u = 0 and stable for tiny u, vectorized.
    Refuses u past _u_max."""
    u = np.asarray(u, dtype=float)
    if np.any(u > (u_max := _u_max(p))):
        raise Refusal(f"r - r_plus = {np.max(u):.3g} is past {u_max:.3g}, where Delta_r overflows")
    return np.sqrt(u * (u + horizon_gap(p)) * quartic_q2(p, find_horizons(p).r_plus + u)) / p.l


def _radial_terms(p, ctx, lam, u):
    """(diag, conf, off) at r = r_plus + u, vectorized: V11 = diag + conf,
    V22 = diag - conf, V12 = off; ParameterOverflow names an e or mu too large."""
    rp = find_horizons(p).r_plus
    u = np.asarray(u, dtype=float)
    r = rp + u
    r2a2 = r * r + p.a**2
    sq = sqrt_delta_r_from_u(p, u)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(conf := ctx.mu * r * sq / r2a2)):
            raise ParameterOverflow(f"mu = {ctx.mu:g} overflows mu r sqrt(Delta_r)")
    return _p_function(p, ctx, r) / r2a2, conf, lam * sq / r2a2


def deviation_norm(p, ctx, lam, u):
    """Frobenius norm of V - phi_plus * I at r = r_plus + u, vectorized.

    Its diagonal is formed as (diag - phi_plus) +- conf, never as
    V11 - phi_plus: once conf drops below an ulp of phi_plus, V11 and V22
    round to the same value and the difference would lose it. The terms are
    scaled by the power of two of the largest one, which is exact, so the
    squares cannot overflow."""
    diag, conf, off = _radial_terms(p, ctx, lam, u)
    dev = diag - phi_plus(p, ctx)
    _, scale = np.frexp(np.maximum(np.maximum(np.abs(dev), np.abs(conf)), np.abs(off)))
    dev, conf, off = (np.ldexp(t, -scale) for t in (dev, conf, off))
    return np.ldexp(np.sqrt((dev + conf) ** 2 + (dev - conf) ** 2 + 2.0 * off**2), scale)


def confinement_density(p, ctx, r):
    """mu r / sqrt(Delta_r): the diagonal growth responsible for the discrete
    spectrum of the confined radial operator. Its integral over [r0, R)
    diverges like mu l log R, and r * density -> mu l."""
    r = np.asarray(r, dtype=float)
    return ctx.mu * r / sqrt_delta_r_from_u(p, r - find_horizons(p).r_plus)


_SEGMENT_NODES, _SEGMENT_WEIGHTS = np.polynomial.legendre.leggauss(64)


def gauss_segments(f, breaks):
    """Integral of f over consecutive [breaks_i, breaks_{i+1}] segments by
    64-node Gauss-Legendre, every node in one call of f (vectorized over an
    array of shape (segments, 64)); returns per-segment values."""
    breaks = np.asarray(breaks, dtype=float)
    mid = 0.5 * (breaks[1:] + breaks[:-1])[:, None]
    half = 0.5 * (breaks[1:] - breaks[:-1])
    return half * (f(mid + half[:, None] * _SEGMENT_NODES) @ _SEGMENT_WEIGHTS)


def decade_integrals(f, r0, n_decades):
    """Integrals of f(r) dr over the decades [r0 10^j, r0 10^(j+1)],
    j < n_decades, by gauss_segments in log r (dr = r dlog r). f is
    vectorized over r; returns an array."""
    breaks = math.log(r0) + math.log(10.0) * np.arange(n_decades + 1)
    return gauss_segments(lambda t: f(r := np.exp(t)) * r, breaks)


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _tail_integral(p, r):
    """y contribution of [r, infinity): substitute v = 1/t, giving the
    analytic integrand (1 + a^2 v^2) / W(v) with
    W(v) = (1 + a^2 v^2)(1 + l^2 v^2)/l^2 - 2 m v^3 + z^2 v^4. Summed row by
    row, not by a matrix product, so no value depends on its batch."""
    r = np.asarray(r, dtype=float)
    half = 0.5 / r
    v = half[..., None] * (_GAUSS_NODES + 1.0)
    w = (
        (1.0 + (p.a * v) ** 2) * (1.0 + (p.l * v) ** 2) / p.l**2
        - 2.0 * p.m * v**3
        + p.z2 * v**4
    )
    g = (1.0 + (p.a * v) ** 2) / w
    return np.sum(g * _GAUSS_WEIGHTS, axis=-1) * half


# Tortoise panels: at most _PANEL_WIDTH wide in sigma = -s, each a degree
# _CHEB_DEG Chebyshev series through its values at the ascending
# Chebyshev-Lobatto points _CHEB_X. _PANEL_QUAD_X holds, per point, the
# Gauss-Legendre nodes on [-1, _CHEB_X[k]] in panel coordinates.
_PANEL_WIDTH = 0.5
_CHEB_DEG = 15
_CHEB_X = -np.cos(np.pi * np.arange(_CHEB_DEG + 1) / _CHEB_DEG)
_CHEB_FROM_VALUES = np.linalg.inv(np.polynomial.chebyshev.chebvander(_CHEB_X, _CHEB_DEG)).T
_PANEL_GL_X, _PANEL_GL_W = np.polynomial.legendre.leggauss(16)
_PANEL_QUAD_X = 0.5 * (_CHEB_X[:, None] + 1.0) * (_PANEL_GL_X + 1.0) - 1.0
# Points of the log_u_of_y seed table.
_SEED_POINTS = 4000


def _panel_edges(lo, hi):
    """Uniform panel edges on [lo, hi], at most _PANEL_WIDTH apart."""
    return np.linspace(lo, hi, math.ceil((hi - lo) / _PANEL_WIDTH) + 1)


class TortoiseMap:
    """Monotone map between exterior radius and the tortoise coordinates.

    y(r) = integral_r^infinity (t^2 + a^2) / Delta_t dt is strictly
    decreasing with y -> infinity at the horizon and y -> 0+ at infinity;
    x = -y. Built once per parameter set: one table of degree-15 Chebyshev
    panels in sigma = -s, with s = log(r - r_plus), spans [s_lo, s_hi] for
    both horizon types, a closed quadrature covers the far tail, and below
    s_lo the map continues along its horizon asymptotics (linear in s at a
    non-extremal horizon, linear in 1/u at an extremal one).

    The panel values at the Chebyshev points are Gauss-Legendre integrals of
    the analytic dy/dsigma, summed from the tail value at s_hi towards the
    horizon; every summed term is positive, so nothing cancels.

    Every radial Magnus sweep runs in s itself and maps its nodes back to y
    through y_of_s, so the inverse (log_u_of_y, one vectorized Newton loop)
    stays off its hot path. It maps interval endpoints once per call, and
    places the y nodes of the finite-difference oracle, of classify's
    deviation bound and of the AC/Levinson deviation integrals.
    """

    def __init__(self, p):
        hd = find_horizons(p)
        self.p = p
        self.r_plus = hd.r_plus
        self.extremal = hd.extremal
        self._gap, self._a_inf, self._u_max = horizon_gap(p), horizon_coefficient(p), _u_max(p)

        self.r_big = 50.0 * max(self.r_plus, p.l)
        # dy/ds squares r up to r_big; r_plus < 1e103 (find_horizons), so l sets it.
        if not math.isfinite(quartic_q2(p, self.r_big)):
            raise InputError(f"l = {p.l:.4g} is too large: Delta_r overflows at the tortoise "
                             f"map's far radius 50 l = {self.r_big:.4g}")
        s_hi = math.log(self.r_big - self.r_plus)
        if self.extremal:
            # Down to u = 1e-15 r_plus / 4, where y ~ a_inf / u to roundoff.
            s_lo = math.log(0.25 * self.r_plus) - 15.0 * math.log(10.0)
        else:
            # The linear branch below drops u / gap of dy/ds: at most 1e-12.
            s_lo = math.log(1e-12 * min(max(self.r_plus, p.l), self._gap))
        self.s_lo, self.s_hi = s_lo, s_hi

        self._edges = edges = _panel_edges(-s_hi, -s_lo)
        self._mid = 0.5 * (edges[:-1] + edges[1:])
        self._half = 0.5 * np.diff(edges)
        # Integrals from each panel's left end to its Chebyshev points.
        sig = self._mid[:, None, None] + self._half[:, None, None] * _PANEL_QUAD_X
        f = -self._dyds(-sig)
        part = (f @ _PANEL_GL_W) * (0.5 * (_CHEB_X + 1.0)) * self._half[:, None]
        y_big = float(_tail_integral(p, self.r_big))
        self._left = np.cumsum(np.concatenate([[y_big], part[:-1, -1]]))
        self._coef = part @ _CHEB_FROM_VALUES

        self.y_at_s_lo = float(self._series(np.array([-s_lo]))[0])
        self.slope = None if self.extremal else horizon_slope(p)
        # Seed table of the inverse, from s_lo into the far tail (y ~ l^2 / r,
        # down to y ~ 1e-12 l^2 / r_big); s descends so that log y ascends, as
        # np.interp needs.
        self._s_table = np.linspace(s_hi + 12.0 * math.log(10.0), s_lo, _SEED_POINTS)
        self._logy_table = np.log(self.y_of_s(self._s_table))
        # Past r - r_plus = 1e150, r^2 in dy/ds overflows; log_u_of_y
        # refuses y below its image.
        self._y_min = float(self.y_of_s(math.log(1e150)))

    # -- forward map ------------------------------------------------------

    def _dyds(self, s):
        """dy/ds = -l^2 ((r^2 + a^2) / q2(r)) / (u + gap) at r = r_plus + u,
        u = e^s, through the factored Delta_r; tends to -horizon_slope as
        u -> 0 at a non-extremal horizon."""
        u = np.exp(s)
        r = self.r_plus + u
        return -(self.p.l**2) * ((r * r + self.p.a**2) / quartic_q2(self.p, r)) / (u + self._gap)

    def _series(self, sig):
        """y at sigma = -s: the panel's left-end value plus its Chebyshev
        series of the integral from there, by Clenshaw."""
        i = np.clip(np.searchsorted(self._edges, sig, side="right") - 1, 0, self._mid.size - 1)
        x = (sig - self._mid[i]) / self._half[i]
        x2 = 2.0 * x
        c = self._coef[i]
        b1 = b2 = 0.0
        for j in range(_CHEB_DEG, 0, -1):
            b1, b2 = c[:, j] + x2 * b1 - b2, b1
        return self._left[i] + (c[:, 0] + x * b1 - b2)

    def y(self, r):
        """Tortoise coordinate y(r), scalar or array, for r > r_plus."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= self.r_plus):
            raise OutsideExterior("tortoise map is defined on r > r_plus")
        return self.y_of_s(np.log(r - self.r_plus))

    def y_of_s(self, s):
        """y at r = r_plus + e^s, scalar or array, also where e^s underflows:
        below s_lo the non-extremal map continues linearly in s with slope
        horizon_slope, the extremal one linearly in e^-s with slope a_inf
        (y overflows once s is below about log(a_inf) - 709)."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        out = np.empty_like(s)
        far = s >= self.s_hi
        if far.any():
            out[far] = _tail_integral(self.p, self.r_plus + np.exp(s[far]))
        deep = s < self.s_lo
        inside = ~far & ~deep
        if inside.any():
            out[inside] = self._series(-s[inside])
        if deep.any():
            if not self.extremal:
                out[deep] = self.y_at_s_lo + self.slope * (self.s_lo - s[deep])
            else:
                out[deep] = self.y_at_s_lo + self._a_inf * (np.exp(-s[deep]) - math.exp(-self.s_lo))
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
            raise InputError("y must be positive")
        if np.any(y < self._y_min):
            raise InputError(f"l = {self.p.l:.4g} is too large: y = {np.min(y):.3g} maps past "
                             "r - r_plus = 1e+150, where dy/ds overflows")
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
        its limit to machine precision). A y that maps past the u where
        Delta_r overflows (sqrt_delta_r_from_u) is refused as an l too large."""
        with np.errstate(under="ignore"):
            u = np.exp(self.log_u_of_y(y))
        if np.any(u > self._u_max):
            raise InputError(f"l = {self.p.l:.4g} is too large: y = {np.min(y):.3g} maps to r - r_plus = "
                             f"{np.max(u):.3g}, past {self._u_max:.3g}, where Delta_r overflows")
        return u


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
