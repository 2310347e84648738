"""Essential-self-adjointness classification of the four singular endpoints.

Each angular endpoint is limit point exactly when its indicial exponent has
modulus at least 1/2; the radial endpoint at infinity is limit point exactly
when mu*l >= 1/2; the horizon end is always limit point because the potential
is bounded in the tortoise coordinate. The magnetic quantization condition
(coupling d = q_m e / xi an integer) is what makes every angular partial wave
limit point at both poles simultaneously.
"""

from dataclasses import dataclass
import math

import numpy as np

from .geometry import InputError, find_horizons
from .operators import decade_integrals, deviation_norm, dirac_d, sqrt_delta_r_from_u, tortoise_map

LIMIT_POINT = "LimitPoint"
LIMIT_CIRCLE = "LimitCircle"
_TAIL_DECADES = 6  # l2_tail_test: decades integrated


@dataclass(frozen=True)
class EndpointClass:
    """Verdict for one singular endpoint.

    exponent carries the indicial exponent that decided the verdict (nu at
    theta=0, rho0 at theta=pi, mu*l at r=infinity; unused at the horizon).
    bound is only populated for the horizon entry: the verified sup of
    ||V - phi_plus I|| over a tortoise window."""

    endpoint: str
    exponent: float
    verdict: str
    rationale_code: str
    bound: float = math.nan

    @property
    def limit_point(self):
        return self.verdict == LIMIT_POINT


@dataclass(frozen=True)
class QuantizationReport:
    """Outcome of the magnetic quantization check for a charge value."""

    d: float
    is_integer: bool
    exceptional_n: tuple
    rationale_code: str


@dataclass(frozen=True)
class SelfAdjointnessReport:
    """Joint endpoint classification for one partial-wave pair."""

    d: float
    at_theta0: EndpointClass
    at_theta_pi: EndpointClass
    at_horizon: EndpointClass
    at_infinity: EndpointClass
    essentially_self_adjoint: bool
    rationale_codes: tuple
    exceptional_n: tuple
    joint_angular_code: str


def angular_exponents(k, d, gauge_b=0.0):
    """Indicial exponents (nu, rho0) of the angular operator at theta=0 and
    theta=pi: nu = k - d + b d, rho0 = k + d + b d.

    The reflection theta -> pi - theta maps (d, b) -> (-d, -b) and swaps the
    endpoints, so nu(k, -d, -b) = rho0(k, d, b) identically."""
    return k - d + gauge_b * d, k + d + gauge_b * d


def _verdict(exp):
    return LIMIT_POINT if abs(exp) >= 0.5 else LIMIT_CIRCLE


def classify_angular(p, ctx):
    """EndpointClass pair (theta=0, theta=pi) for one partial wave.

    At theta=0 limit point holds iff |nu| >= 1/2, i.e. (b=0) n <= d-1 or
    n >= d; at theta=pi iff |rho0| >= 1/2, i.e. n >= -d or n <= -d-1."""
    d = dirac_d(p, ctx)
    nu, rho0 = angular_exponents(ctx.k, d, ctx.gauge_b)
    at0 = EndpointClass("theta=0", nu, _verdict(nu), "condt0")
    atpi = EndpointClass("theta=pi", rho0, _verdict(rho0), "condtpi")
    return at0, atpi


def joint_angular_code(d, gauge_b=0.0):
    """Stable label of the printed both-endpoint limit-point condition that
    applies: condmin for |d| <= 1/2, condmax for |d| > 1/2 (both at b=0),
    condirac at b=1."""
    if gauge_b == 1.0:
        return "condirac"
    return "condmin" if abs(d) <= 0.5 else "condmax"


def n_in_joint_lp_set(n, d, gauge_b=0.0):
    """Printed-form membership test: is the partial wave with k = n + 1/2
    limit point at both poles? Transcribes the printed union-of-intervals
    conditions rather than the exponent inequalities (the two are checked
    against each other in the test suite)."""
    if gauge_b == 1.0:
        return n >= -2.0 * d or n <= -1.0 - 2.0 * d
    ad = abs(d)
    if ad <= 0.5:
        return n <= -1.0 - ad or n >= ad
    return n <= -1.0 - ad or (-ad <= n <= -1.0 + ad) or n >= ad


def quantization_check(p, e):
    """Magnetic quantization report for field charge e on background p.

    d = q_m e / xi; every partial wave is limit point at both poles iff d is
    an integer (tolerance 1e-12). Otherwise exactly the two indices
    n in {-1 - floor(|d|), floor(|d|)} fail."""
    d = p.q_m * e / p.xi
    is_int = abs(d - round(d)) <= 1e-12
    if is_int:
        exceptional = ()
    else:
        fl = math.floor(abs(d))
        exceptional = (-1 - fl, fl)
    return QuantizationReport(d, is_int, exceptional, joint_angular_code(d))


def classify_radial_infinity(mu, l):
    """Endpoint class at r=infinity: limit point iff mu*l >= 1/2 (boundary
    value included), with the decaying/growing solution exponents +-mu*l."""
    if mu <= 0.0 or l <= 0.0:
        raise InputError("mu and l must be positive")
    mul = mu * l
    return EndpointClass("r=infinity", mul, _verdict(mul), "thm3")


def classify_radial_horizon(p, ctx, lam=0.0):
    """Endpoint class at the horizon: always limit point, because y = infinity
    is an infinite endpoint with bounded potential there. The returned bound
    is the verified sup of ||V(r(y)) - phi_plus I||_F over y in [1, 1e3]
    (lam enters the off-diagonal; the verdict does not depend on it)."""
    dev = deviation_norm(p, ctx, lam, tortoise_map(p).u_of_y(np.geomspace(1.0, 1e3, 64)))
    return EndpointClass(
        "r=horizon", 0.0, LIMIT_POINT, "weidmann", bound=float(np.max(dev))
    )


def sa_report(p, ctx):
    """Aggregate the four endpoint verdicts for one partial-wave pair.

    The pair is essentially self-adjoint on smooth compactly supported
    spinors iff every endpoint is limit point. The horizon bound is taken at
    lambda = 0 (the verdict does not depend on it)."""
    at0, atpi = classify_angular(p, ctx)
    ath = classify_radial_horizon(p, ctx)
    if ctx.mu > 0.0:
        atinf = classify_radial_infinity(ctx.mu, p.l)
    else:
        atinf = EndpointClass("r=infinity", 0.0, LIMIT_CIRCLE, "thm3")
    d = dirac_d(p, ctx)
    ess = all(c.limit_point for c in (at0, atpi, ath, atinf))
    qr = quantization_check(p, ctx.e)
    codes = tuple(c.rationale_code for c in (at0, atpi, ath, atinf))
    return SelfAdjointnessReport(
        d=d,
        at_theta0=at0,
        at_theta_pi=atpi,
        at_horizon=ath,
        at_infinity=atinf,
        essentially_self_adjoint=ess,
        rationale_codes=codes,
        exceptional_n=qr.exceptional_n,
        joint_angular_code=joint_angular_code(d, ctx.gauge_b),
    )


def l2_tail_test(p, mu):
    """Numeric limit-point test at infinity: per-decade integrals of
    r^(2 mu l) (r^2 + a^2) / Delta_r over _TAIL_DECADES decades from r_plus +
    max(l, r_plus) behave like R^(2 mu l - 1), so the decade-to-decade ratio
    fits the exponent 2 mu l - 1. Returns (fitted_exponent, verdict): limit
    point iff the integral diverges, i.e. the exponent is >= 0 up to a small
    tolerance."""
    rp = find_horizons(p).r_plus
    vals = decade_integrals(
        lambda r: r ** (2.0 * mu * p.l) * (r * r + p.a**2) / sqrt_delta_r_from_u(p, r - rp) ** 2,
        rp + max(p.l, rp), _TAIL_DECADES,
    )
    exponent = float(np.mean(np.log10(vals[2:] / vals[1:-1])))
    verdict = LIMIT_POINT if exponent >= -5e-3 else LIMIT_CIRCLE
    return exponent, verdict
