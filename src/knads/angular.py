"""Angular eigenvalues by Prüfer-phase shooting.

The two-component angular system is integrated as a phase/log-amplitude pair
from both poles toward a matching point c. Near each pole the phase equation
has an attracting fixed point selecting the recessive (power-law bounded)
solution, so shooting away from the poles is well conditioned. One
right-hand side, _pole_rhs, serves both poles: it integrates in the log
distance t to the pole, theta = pole + sign * e^t, so the coefficient
singularity becomes a smooth bounded term, and one loop shoots from theta = 0
and theta = pi in turn. Eigenvalues are the roots of the matching defect
eta_left(c) - eta_right(c) = m*pi, which is strictly increasing in lambda;
the integer m doubles as a global mode label.
"""

from dataclasses import dataclass
import math

import numpy as np

from .classify import angular_exponents, classify_angular
from .geometry import delta_theta
from .operators import _angular_entries, dirac_d
from .rk import IntegratorStall, bisect_batched, integrate

__all__ = [
    "PruferTrace",
    "SpectrumWindow",
    "solve_window",
    "NotLimitPoint",
    "WindowTooWide",
    "IntegratorStall",
    "prufer_rhs",
    "shoot_angular",
    "angular_eigenvalues",
    "eigenvalues_by_label",
    "amplitude_weight",
]

DEFAULT_EPSILON = 1e-6 * math.pi
DEFAULT_MATCHING_POINT = math.pi / 2
_RTOL = 1e-11
_ATOL = 1e-12


class NotLimitPoint(Exception):
    """An angular endpoint is limit circle and no boundary parameter beta was
    supplied; shooting refuses rather than picking an extension silently."""


class WindowTooWide(Exception):
    """More than 1e3 eigenvalues requested in a single window, or a window
    wider than MAX_WINDOW_SEGMENTS grid segments."""


# Largest grid solve_window shoots, in segments of width 0.5: a wider window
# is refused before the first defect call, which would shoot the whole grid.
MAX_WINDOW_SEGMENTS = 2000


@dataclass(frozen=True)
class PruferTrace:
    """One shooting trace: theta samples, phase, log amplitude, plus the
    endpoint initialization actually used."""

    thetas: np.ndarray
    etas: np.ndarray
    log_rhos: np.ndarray
    winding: int
    frobenius_eta0: float
    epsilon: float
    tol_achieved: float
    side: str

    def max_jump(self):
        return float(np.max(np.abs(np.diff(self.etas)))) if len(self.etas) > 1 else 0.0


@dataclass(frozen=True)
class SpectrumWindow:
    """Sorted eigenvalues in [lam_lo, lam_hi] with matching-defect residuals
    and signed mode labels (ordered by value, positive labels above lambda=0)."""

    lam_lo: float
    lam_hi: float
    eigenvalues: tuple
    residuals: tuple
    labels: tuple
    count: int
    oracle_deltas: tuple = None


def solve_window(defect, lo, hi, tol):
    """Every root of defect(x) = m*pi in [lo, hi], m integer, for a strictly
    increasing matching defect evaluated in batches (array in, array out).

    The number of multiples of pi crossed between the window ends counts the
    eigenvalues. Each is bracketed in one of the grid segments of width
    <= 0.5 and bisected there until its bracket is narrower than tol / 2.
    Labels are signed indices ordered by value, anchored so the first
    eigenvalue above x = 0 gets +1 (a probe at 0 rides in the grid batch).
    A window of more than MAX_WINDOW_SEGMENTS segments raises WindowTooWide
    before the first defect call."""
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise ValueError("window must satisfy lam_lo < lam_hi")
    if not hi - lo <= 0.5 * MAX_WINDOW_SEGMENTS:
        raise WindowTooWide(f"window [{lo}, {hi}] is wider than {0.5 * MAX_WINDOW_SEGMENTS}")
    nseg = max(2, int(math.ceil((hi - lo) / 0.5)))
    grid = np.linspace(lo, hi, nseg + 1)
    dvals = defect(np.concatenate([grid, [0.0]]))
    dgrid, d0 = dvals[:-1], dvals[-1]
    if (dgrid[-1] - dgrid[0]) / math.pi > 1e3:
        raise WindowTooWide("window holds more than 1e3 eigenvalues")

    m_lo = math.floor(dgrid[0] / math.pi)
    m_hi = math.floor(dgrid[-1] / math.pi)
    targets = np.arange(m_lo + 1, m_hi + 1)
    if targets.size == 0:
        return SpectrumWindow(lo, hi, (), (), (), 0)
    seg_of = np.clip(np.searchsorted(dgrid, targets * math.pi) - 1, 0, nseg - 1)

    def resid(xs):
        return defect(xs) - targets * math.pi

    # Enough halvings to bring a full segment below tol/2; the tol test in
    # bisect_batched ends the loop there.
    n_iter = int(math.ceil(math.log2((hi - lo) / nseg / tol))) + 2
    roots = bisect_batched(resid, grid[seg_of], grid[seg_of + 1], n_iter=n_iter, tol=tol * 0.5)
    residuals = np.abs(resid(roots))

    labels = targets - math.floor(d0 / math.pi)
    labels = np.where(labels <= 0, labels - 1, labels)
    order = np.argsort(roots)
    return SpectrumWindow(
        lam_lo=lo,
        lam_hi=hi,
        eigenvalues=tuple(float(r) for r in roots[order]),
        residuals=tuple(float(r) for r in residuals[order]),
        labels=tuple(int(m) for m in labels[order]),
        count=int(targets.size),
    )


def prufer_rhs(p, ctx, theta, eta, lam):
    """Phase derivative in the printed form

        H = lambda/sqrt(Delta_theta) + (2 a mu cos(theta)) sin(eta) cos(eta)
            + [xi sigma_b/(sqrt(Delta_theta) sin(theta))
               + a omega sin(theta)/sqrt(Delta_theta)] (sin^2(eta) - cos^2(eta)).

    Exposed for direct evaluation and tests; the shooting integrator uses the
    equivalent exact phase equation of the first-order system (the two forms
    coincide when a = 0)."""
    d = dirac_d(p, ctx)
    sq = math.sqrt(delta_theta(p, theta))
    sig = d * (math.cos(theta) - ctx.gauge_b) - ctx.k
    s, c = math.sin(eta), math.cos(eta)
    return (
        lam / sq
        + (2.0 * p.a * ctx.mu * math.cos(theta)) * s * c
        + (p.xi * sig / (sq * math.sin(theta)) + p.a * ctx.omega * math.sin(theta) / sq)
        * (s * s - c * c)
    )


def _frobenius_init(exponent, lam, mu_a, xi, eps):
    """Recessive-direction phase at offset eps from a pole, with the
    first-order inhomogeneous correction. exponent is nu at theta=0 (or rho0
    in the reflected variable at theta=pi)."""
    eta0 = math.copysign(math.pi / 4.0, exponent)
    c1 = (lam + math.copysign(mu_a, exponent)) / math.sqrt(xi)
    return eta0 + c1 * eps / (1.0 + 2.0 * abs(exponent))


def _pole_rhs(p, ctx, lam, pole, sign, domega=None):
    """d(eta, log rho)/dt with theta = pole + sign * e^t, t the log distance
    to the pole (pole 0 with sign +1, pole pi with sign -1): dtheta/dt times
    the theta-picture derivative, smooth up to the pole.

    domega optionally gives each batch member its own frequency offset from
    ctx.omega (the offset enters only through the a*omega*sin(theta) term)."""
    dw = None if domega is None else np.asarray(domega, dtype=float)

    def f(t, state):
        dtheta = sign * math.exp(t)
        theta = pole + dtheta
        m11, m12 = _angular_entries(p, ctx, theta)
        sq = math.sqrt(delta_theta(p, theta))
        if dw is not None:
            m11 = m11 + p.a * dw * math.sin(theta) / sq
        eta = state[:, 0]
        c2, s2 = np.cos(2.0 * eta), np.sin(2.0 * eta)
        out = np.empty_like(state)
        out[:, 0] = dtheta * (lam - m11 * c2 - m12 * s2) / sq
        out[:, 1] = dtheta * (m12 * c2 - m11 * s2) / sq
        return out

    return f


def _shoot_batch(
    p,
    ctx,
    lams,
    c=DEFAULT_MATCHING_POINT,
    eps=DEFAULT_EPSILON,
    record=False,
    beta_left=None,
    beta_right=None,
    domega=None,
):
    """Integrate both sides for a whole array of lambda values at once, from
    theta = eps and theta = pi - eps to the matching point c.

    Returns the final (eta, log rho) states of the left and right shots,
    plus their PruferTraces when record is set (None otherwise). domega
    gives optional per-member frequency offsets (the recessive
    initialization is frequency independent since the omega term vanishes
    to first order at the fixed points)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    nu, rho0 = angular_exponents(ctx.k, dirac_d(p, ctx), ctx.gauge_b)
    mu_a = ctx.mu * p.a
    ends, traces = [], []
    for side, pole, sign, exponent, beta in (
        ("left", 0.0, 1.0, nu, beta_left),
        ("right", math.pi, -1.0, rho0, beta_right),
    ):
        y0 = np.zeros((lams.size, 2))
        if beta is None:
            y0[:, 0] = [sign * _frobenius_init(exponent, la, mu_a, p.xi, eps) for la in lams]
        else:
            y0[:, 0] = beta
        end, ts, ys = integrate(
            _pole_rhs(p, ctx, lams, pole, sign, domega),
            math.log(eps),
            math.log(sign * (c - pole)),
            y0,
            rtol=_RTOL,
            atol=_ATOL,
            max_step=0.25,
            phase_cap=math.pi / 2,
            record=record,
        )
        ends.append(end)
        if record:
            traces.append(
                PruferTrace(
                    thetas=pole + sign * np.exp(ts),
                    etas=ys[:, 0, 0],
                    log_rhos=ys[:, 0, 1],
                    winding=int(math.floor((ys[-1, 0, 0] - ys[0, 0, 0]) / math.pi)),
                    frobenius_eta0=sign * math.copysign(math.pi / 4, exponent)
                    if beta is None
                    else beta,
                    epsilon=eps,
                    tol_achieved=_RTOL,
                    side=side,
                )
            )
    return ends[0], ends[1], tuple(traces) if record else None


def _require_limit_point(p, ctx, beta_left, beta_right):
    at0, atpi = classify_angular(p, ctx)
    if not at0.limit_point and beta_left is None:
        raise NotLimitPoint(
            f"theta=0 is limit circle (nu={at0.exponent}); supply beta_left"
        )
    if not atpi.limit_point and beta_right is None:
        raise NotLimitPoint(
            f"theta=pi is limit circle (rho0={atpi.exponent}); supply beta_right"
        )


def shoot_angular(
    p,
    ctx,
    lam,
    c=DEFAULT_MATCHING_POINT,
    eps=DEFAULT_EPSILON,
    beta_left=None,
    beta_right=None,
):
    """Shoot from both poles to the matching point c for one lambda.

    Returns (eta_left(c), eta_right(c), (left_trace, right_trace)). The
    recessive initialization is applied at theta = eps and theta = pi - eps,
    with the phase measured in the theta picture on both sides."""
    _require_limit_point(p, ctx, beta_left, beta_right)
    left, right, traces = _shoot_batch(
        p,
        ctx,
        [lam],
        c=c,
        eps=eps,
        record=True,
        beta_left=beta_left,
        beta_right=beta_right,
    )
    return float(left[0, 0]), float(right[0, 0]), traces


def _defect(p, ctx, lams, c, eps, beta_left, beta_right, domega=None):
    left, right, _ = _shoot_batch(
        p,
        ctx,
        lams,
        c=c,
        eps=eps,
        beta_left=beta_left,
        beta_right=beta_right,
        domega=domega,
    )
    return left[:, 0] - right[:, 0]


def angular_eigenvalues(
    p,
    ctx,
    window,
    c=DEFAULT_MATCHING_POINT,
    eps=DEFAULT_EPSILON,
    beta_left=None,
    beta_right=None,
    tol=1e-10,
):
    """All eigenvalues in the window: the roots of the matching defect
    D(lambda) = eta_left(c) - eta_right(c) at multiples of pi, located by
    solve_window."""
    _require_limit_point(p, ctx, beta_left, beta_right)

    def defect(lams):
        return _defect(p, ctx, lams, c, eps, beta_left, beta_right)

    return solve_window(defect, window[0], window[1], tol)


def eigenvalues_by_label(p, ctx, labels, window_hint=None, c=DEFAULT_MATCHING_POINT):
    """Eigenvalues for specific signed labels, expanding the search window
    until every requested label is present. Returns {label: eigenvalue}."""
    want = set(int(j) for j in labels)
    if window_hint is None:
        w = max(abs(j) for j in want) + 2.0 + abs(ctx.k) + abs(ctx.omega) * p.a
        lo, hi = -w, w
    else:
        lo, hi = window_hint
    for _ in range(12):
        sw = angular_eigenvalues(p, ctx, (lo, hi), c=c)
        found = dict(zip(sw.labels, sw.eigenvalues))
        if want <= set(found):
            return {j: found[j] for j in sorted(want)}
        if min(want, default=0) < min(found, default=0) or not found:
            lo -= max(2.0, 0.5 * (hi - lo))
        if max(want, default=0) > max(found, default=0) or not found:
            hi += max(2.0, 0.5 * (hi - lo))
    raise WindowTooWide("could not bracket all requested labels")


def amplitude_weight(p, ctx, theta, c=DEFAULT_MATCHING_POINT):
    """Closed-form amplitude weight E(theta) = exp(F(theta) - F(c)) with

        F(t) = -(k/2) [ (a/l) log((l + a cos t)/(l - a cos t))
                        - log((1 + cos t)/(1 - cos t)) ],

    the antiderivative of p(t) = -k*xi/(Delta_theta sin t). Valid on the
    purely electric background (q_m = 0); satisfies E(c) = 1 and
    E_k = 1/E_{-k}."""
    if p.q_m != 0.0:
        raise ValueError("closed-form weight requires q_m = 0")
    theta = np.asarray(theta, dtype=float)
    if np.any((theta <= 0.0) | (theta >= math.pi)):
        raise ValueError("theta must lie in (0, pi)")

    def f_part(t):
        ct = np.cos(t)
        return -(ctx.k / 2.0) * (
            (p.a / p.l) * np.log((p.l + p.a * ct) / (p.l - p.a * ct))
            - np.log((1.0 + ct) / (1.0 - ct))
        )

    out = np.exp(f_part(theta) - f_part(c))
    return float(out) if out.ndim == 0 else out
