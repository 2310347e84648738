"""Angular eigenvalues by Prüfer-phase shooting on a fixed Magnus mesh.

The two-component angular system psi' = A psi is linear and traceless. In
the log distance t to a pole, theta = pole + sign * e^t (pole 0 with sign
+1, pole pi with sign -1),

    A(t) = (sign e^t / sqrt(Delta_theta)) [[m12, -(lambda + m11')],
                                           [lambda - m11', -m12]],
    m11' = m11 + domega a sin(theta) / sqrt(Delta_theta),

which is smooth up to the pole and affine in lambda and in a frequency
offset domega from ctx.omega. Each side, from theta = eps at its pole to the
matching point c, is cut into n intervals graded in t: the nodes are
uniform in e^{t/GRADE}, so intervals are long near the pole, where A tends
to a constant matrix, and short near c, where |lambda| turns the phase. The
coefficients are sampled once per (p, ctx, c, eps, n) into the Omega tables
of knads.magnus, which serve every trial eigenvalue and frequency offset.
Near each pole the recessive (power-law bounded) solution is selected by
the Frobenius phase at theta = eps.

mesh_intervals fixes n, a power of two, from (p, ctx, c, eps) and a bound
on |lambda| and domega alone; each solve checks it at n/2 and doubles it
while the estimated eigenvalue error exceeds tol. Eigenvalues are the roots
of the matching defect D = eta_left(c) - eta_right(c) at multiples m*pi; D
is strictly increasing in lambda and the integer m doubles as a global mode
label. Because the mesh depends only on an item's or window's own bounds,
no eigenvalue depends on what else shares its batch.
"""

from functools import lru_cache
import math
import numbers

import numpy as np

from .classify import angular_exponents, classify_angular
from .geometry import InputError, Refusal, delta_theta
from .magnus import (GAUSS, GRADE, PHASE_STEP, chandrupatla_batched, magnus_terms, mesh_size,
                     omega_table, refined, solve_window, sweep, window_brackets)
from .operators import _angular_entries, dirac_d, sigma_function
# Unused; perfbench's test_wrappers_restore_original_bindings needs it bound.
from .rk import integrate  # noqa: F401

__all__ = [
    "solve_items",
    "mesh_intervals",
    "NotLimitPoint",
    "prufer_rhs",
    "angular_eigenvalues",
    "eigenvalues_by_label",
    "label_brackets",
    "amplitude_weight",
]

DEFAULT_EPSILON = 1e-6 * math.pi
DEFAULT_MATCHING_POINT = math.pi / 2
_SIGMA_MAX = 1e30  # sigma^10 stays finite: Omega multiplies up to 5 samples of A, q squares it
# solve_items predicts each root on n // _COARSE intervals, to a bracket of _COARSE_TOL.
_COARSE = 8
_COARSE_TOL = 1e-6
# Mesh error ~ h^6 (sixth-order Magnus): the n/_COARSE and n/2 roots extrapolate to the n root.
_RICHARDSON = (2.0**6 - 1.0) / (_COARSE**6 - 2.0**6)


class NotLimitPoint(Refusal):
    """An angular endpoint is limit circle and no boundary parameter beta was
    supplied; shooting refuses rather than picking an extension silently."""


def prufer_rhs(p, ctx, theta, eta, lam):
    """Phase derivative in the printed form

        H = lambda/sqrt(Delta_theta) + (2 a mu cos(theta)) sin(eta) cos(eta)
            + [xi sigma_b/(sqrt(Delta_theta) sin(theta))
               + a omega sin(theta)/sqrt(Delta_theta)] (sin^2(eta) - cos^2(eta)).

    Exposed for direct evaluation and tests; shooting propagates the
    equivalent first-order system itself (the two phase equations coincide
    when a = 0)."""
    sq = math.sqrt(delta_theta(p, theta))
    sig = sigma_function(p, ctx, theta)
    s, c = math.sin(eta), math.cos(eta)
    return (
        lam / sq
        + (2.0 * p.a * ctx.mu * math.cos(theta)) * s * c
        + (p.xi * sig / (sq * math.sin(theta)) + p.a * ctx.omega * math.sin(theta) / sq)
        * (s * s - c * c)
    )


def _frobenius_init(exponent, lam, mu_a, xi, eps):
    """Recessive-direction phase at offset eps from a pole, with the
    first-order inhomogeneous correction (lam may be an array). exponent is
    nu at theta=0 (or rho0 in the reflected variable at theta=pi)."""
    eta0 = math.copysign(math.pi / 4.0, exponent)
    c1 = (lam + math.copysign(mu_a, exponent)) / math.sqrt(xi)
    return eta0 + c1 * eps / (1.0 + 2.0 * abs(exponent))


def _sides(c):
    """(pole, sign, distance from the pole to c) for both sides."""
    return ((0.0, 1.0, c), (math.pi, -1.0, math.pi - c))


def mesh_intervals(
    p, ctx, lam_bound, domega=0.0, c=DEFAULT_MATCHING_POINT, eps=DEFAULT_EPSILON
):
    """Magnus intervals per side for |lambda| <= lam_bound at the signed
    frequency offset domega (scalars, or arrays giving each item its own
    mesh): the smallest power of two, at least MIN_MESH_INTERVALS, that
    keeps the lambda and frequency part of every interval's phase move
    within PHASE_STEP, the accuracy budget.

    At distance r = e^t from the pole, Delta_theta >= xi bounds that part of
    |d eta/dt|, at the item's own frequency omega + domega, by r L,

        L = (|lambda| + |mu a|) / sqrt(xi) + |a| |omega + domega| / xi.

    On a side reaching distance x, the mesh graded with beta = GRADE gives
    the interval starting at t a length of at most h(t) = S e^{-t/beta} / n,
    S = beta (x^{1/beta} - eps^{1/beta}), so sup n h r L = S x^{1 - 1/beta} L
    does not depend on n; it sits at c, where the coefficients vary.

    The rest of the rate, at most sigma r / sin r with sigma = |d| (1 + |b|)
    + |k|, is hyperbolic and needs no bound: it peaks at the pole, where A is
    nearly constant, so the Magnus step is nearly exact, and the swept
    solution is the dominant one in its direction of travel. Raises
    WindowTooWide when n would exceed MAX_MESH_INTERVALS, naming the term
    that dominates: |lambda|, |mu a| or |a| |omega + domega|, and
    Refusal for sigma above _SIGMA_MAX, where Omega could overflow."""
    sigma, named = _sigma(p, ctx)
    if not sigma <= _SIGMA_MAX:
        raise Refusal(f"{named} is above {_SIGMA_MAX:g}, "
                      "where the Magnus Omega of a pole interval could overflow")
    lam_bound, domega = (np.asarray(v, dtype=float) for v in (lam_bound, domega))
    mu_a, a_omega = abs(ctx.mu * p.a), abs(p.a) * np.abs(ctx.omega + domega)
    e0 = eps ** (1.0 / GRADE)
    span = max(GRADE * (x ** (1.0 / GRADE) - e0) * x ** (1.0 - 1.0 / GRADE) for *_, x in _sides(c))
    with np.errstate(over="ignore"):  # a rate past the float range is +inf, refused below
        need = span * ((lam_bound + mu_a) / math.sqrt(p.xi) + a_omega / p.xi) / PHASE_STEP
    w = span / PHASE_STEP
    return mesh_size(need, (
        ("|lambda| <= {:g}", lam_bound, w * lam_bound / math.sqrt(p.xi)),
        ("|mu a| = {:g}", mu_a, w * mu_a / math.sqrt(p.xi)),
        ("|a| |omega + domega| <= {:g}", a_omega, w * a_omega / p.xi),
    ))


def _sigma(p, ctx):
    """sigma = |d| (1 + |b|) + |k|, the hyperbolic part of the phase rate,
    and the text that names it in a refusal."""
    sigma = abs(dirac_d(p, ctx)) * (1.0 + abs(ctx.gauge_b)) + abs(ctx.k)
    return sigma, f"sigma = |d| (1 + |b|) + |k| = {sigma:g}"


# (component, monomial) of the signed rows (g0, g1, -g2, -g3) of the angular A.
_ANGULAR_LAYOUT = ((0, (0, 0)), (1, (1, 0)), (2, (0, 0)), (2, (0, 1)))


@lru_cache(maxsize=8)
def _magnus_tables(p, ctx, c, eps, n):
    """Omega coefficients of both sides on the graded mesh of n intervals.

    With A = g0 sigma_z + lambda g1 J - (g2 + domega g3) sigma_x
    (_ANGULAR_LAYOUT), J = [[0, -1], [1, 0]], tabs[side, i, comp, m] is the
    coefficient of monomial m of magnus.omega_table in the (sigma_z, J,
    sigma_x) component comp of the sixth-order Magnus Omega over interval i. The n + 1 node times t of a side are uniform in
    e^{t/GRADE} from log(eps) to log(x)."""
    pole, sign, x = (np.array(v)[:, None] for v in zip(*_sides(c)))
    e0 = eps ** (1.0 / GRADE)
    ts = GRADE * np.log(e0 + (x ** (1.0 / GRADE) - e0) * np.linspace(0.0, 1.0, n + 1))
    ts[:, 0], ts[:, -1] = math.log(eps), np.log(x[:, 0])
    h = np.diff(ts)
    e = np.exp(ts[:, :-1, None] + h[..., None] * GAUSS)
    theta = pole[..., None] + sign[..., None] * e
    m11, m12 = _angular_entries(p, ctx, theta)
    sq = np.sqrt(delta_theta(p, theta))
    f = sign[..., None] * e / sq
    g = np.stack([f * m12, f, -f * m11, -f * p.a * np.sin(theta) / sq])
    return omega_table(magnus_terms(h, g), _ANGULAR_LAYOUT)


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


def _defect(p, ctx, lams, c, eps, beta_left, beta_right, domega=None, n=None):
    """Matching defect eta_left(c) - eta_right(c) per row, both sides shot
    for a whole array of lambda values at once, from theta = eps and theta =
    pi - eps to the matching point c.

    n gives the Magnus intervals per side (a scalar or one per row); by
    default each row gets mesh_intervals of its own |lambda| and offset.
    domega gives optional per-row frequency offsets (the recessive
    initialization is frequency independent since the omega term vanishes
    to first order at the fixed points)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    dw = np.zeros(lams.shape) if domega is None else np.broadcast_to(
        np.asarray(domega, dtype=float), lams.shape
    )
    if n is None:
        n = mesh_intervals(p, ctx, np.abs(lams), dw, c, eps)
    n = np.broadcast_to(np.asarray(n), lams.shape)
    nu, rho0 = angular_exponents(ctx.k, dirac_d(p, ctx), ctx.gauge_b)
    mu_a = ctx.mu * p.a
    eta0 = np.concatenate(
        [
            np.full(lams.shape, float(beta))
            if beta is not None
            else sign * _frobenius_init(exponent, lams, mu_a, p.xi, eps)
            for sign, exponent, beta in ((1.0, nu, beta_left), (-1.0, rho0, beta_right))
        ]
    )
    ends = np.empty(2 * lams.size)
    for nn in np.unique(n):
        rows = np.flatnonzero(n == nn)
        both = np.concatenate([rows, lams.size + rows])
        ends[both], _ = sweep(_magnus_tables(p, ctx, c, eps, int(nn)), lams[rows], dw[rows],
                              eta0[both], False)
    return ends[: lams.size] - ends[lams.size:]


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
    solve_window on the window's Magnus mesh. The mesh is doubled and the
    window solved again while the n/2 check estimates an eigenvalue error
    above tol."""
    _require_limit_point(p, ctx, beta_left, beta_right)
    bound = max(abs(float(window[0])), abs(float(window[1])))

    def defect(lams, n):
        return _defect(p, ctx, lams, c, eps, beta_left, beta_right, n=n)

    return solve_window(defect, *window, tol, mesh_intervals(p, ctx, bound, 0.0, c, eps),
                        f"|lambda| <= {bound:g} and {_sigma(p, ctx)[1]}")


def solve_items(p, ctx, targets, lo, hi, domega, tol):
    """Roots of the matching defect at the integer targets m (D = m*pi),
    one per item, inside the brackets [lo, hi] and at the frequency offsets
    domega from ctx.omega, shooting to the default matching point from the
    default pole offset.

    Each item gets the Magnus mesh of its own bracket and frequency. Its
    root is predicted on coarser meshes (two-grid, Xu & Zhou, Math. Comp.
    70, 2001): chandrupatla_batched solves on n // _COARSE intervals to a
    bracket narrower than _COARSE_TOL, Newton steps with its secant slope
    give the roots r_c there and r_2 on n/2 intervals, and since the
    Magnus error scales as h^6 they extrapolate (Richardson) to the
    full-mesh root x1. Where the full-mesh defect at x1 -+ tol / 8
    straddles the target, that enclosure is the item's bracket, elsewhere
    its own bracket is; one chandrupatla_batched call narrows every bracket
    below tol / 2. Each root is checked against n/2, with the coarse slope;
    an item whose estimated eigenvalue error exceeds tol is solved again on
    the doubled mesh. So every root depends on its own item alone. Returns
    (roots, |residuals|)."""
    tpi = np.asarray(targets, dtype=float) * math.pi
    lo, hi, dw = (np.asarray(v, dtype=float) for v in (lo, hi, domega))
    bound = np.maximum(np.abs(lo), np.abs(hi))
    c, eps = DEFAULT_MATCHING_POINT, DEFAULT_EPSILON
    n = np.broadcast_to(mesh_intervals(p, ctx, bound, dw, c, eps), tpi.shape).copy()
    roots, resid = np.empty(tpi.shape), np.empty(tpi.shape)
    todo = np.arange(tpi.size)
    while todo.size:

        def f(xs, idx, todo=todo, div=1):
            sel = todo[idx]
            return _defect(p, ctx, xs, c, eps, None, None, dw[sel], n[sel] // div) - tpi[sel]

        def at_ends(a, b, idx, div=1):
            ends = f(np.concatenate([a, b]), np.concatenate([idx, idx]), div=div)
            return ends[: idx.size], ends[idx.size:]

        k, a, b = np.arange(todo.size), lo[todo], hi[todo]
        x, fx, slope = chandrupatla_batched(lambda xs, idx: f(xs, idx, div=_COARSE), a, b,
                                            *at_ends(a, b, k, _COARSE), _COARSE_TOL)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r_c, r_2 = x - fx / slope, x - f(x, k, div=2) / slope
            x = np.fmin(np.fmax(r_2 - (r_c - r_2) * _RICHARDSON, a), b)  # a nan step lands on a
        fa, fb = at_ends(x - tol / 8, x + tol / 8, k)
        hit = fa * fb <= 0.0  # the enclosure straddles the target; nan never does
        a, b = np.where(hit, (x - tol / 8, x + tol / 8), (a, b))
        if (miss := np.flatnonzero(~hit)).size:
            fa[miss], fb[miss] = at_ends(a[miss], b[miss], miss)
        x, fx, _ = chandrupatla_batched(f, a, b, fa, fb, 0.5 * tol)
        ok = np.abs(f(x, k, div=2) - fx) <= tol * slope
        roots[todo[ok]], resid[todo[ok]] = x[ok], fx[ok]
        todo = todo[~ok]
        for i in todo:
            n[i] = refined(int(n[i]), f"|lambda| <= {bound[i]:g} and {_sigma(p, ctx)[1]}")
    return roots, np.abs(resid)


def label_brackets(p, ctx, labels):
    """(targets, lo, hi): the winding target and grid segment of each signed
    label in increasing order, from magnus.window_brackets on (-w, w), w
    doubling until every label is present. A label that is not a nonzero
    integer is an InputError, raised before any defect call."""
    want = sorted(set(labels))
    if not want or not all(isinstance(j, numbers.Integral) and j != 0 for j in want):
        raise InputError(f"labels must be a nonempty set of nonzero integers, got {want}")
    _require_limit_point(p, ctx, None, None)
    w = max(abs(j) for j in want) + 2.0 + abs(ctx.k) + abs(ctx.omega) * p.a
    while True:
        _, targets, found, a, b, *_ = window_brackets(
            lambda lams, n: _defect(p, ctx, lams, DEFAULT_MATCHING_POINT, DEFAULT_EPSILON, None, None, n=n),
            -w, w, mesh_intervals(p, ctx, w), f"|lambda| <= {w:g} and {_sigma(p, ctx)[1]}")
        if np.count_nonzero(keep := np.isin(found, want)) == len(want):
            return targets[keep], a[keep], b[keep]
        w *= 2.0


def eigenvalues_by_label(p, ctx, labels):
    """Eigenvalues for specific signed labels, the items of their
    label_brackets solved to 1e-10 (solve_items). Returns {label: eigenvalue}."""
    targets, lo, hi = label_brackets(p, ctx, labels)
    roots, _ = solve_items(p, ctx, targets, lo, hi, np.zeros(lo.size), 1e-10)
    return dict(zip(sorted(set(labels)), roots.tolist()))


def amplitude_weight(p, ctx, theta):
    """Closed-form amplitude weight E(theta) = exp(F(theta) - F(c)), c =
    DEFAULT_MATCHING_POINT, with

        F(t) = -(k/2) [ (a/l) log((l + a cos t)/(l - a cos t))
                        - log((1 + cos t)/(1 - cos t)) ],

    the antiderivative of p(t) = -k*xi/(Delta_theta sin t). Valid on the
    purely electric background (q_m = 0); satisfies E(c) = 1 and
    E_k = 1/E_{-k}."""
    if p.q_m != 0.0:
        raise InputError("closed-form weight requires q_m = 0")
    theta = np.asarray(theta, dtype=float)
    if np.any((theta <= 0.0) | (theta >= math.pi)):
        raise InputError("theta must lie in (0, pi)")

    def f_part(t):
        ct = np.cos(t)
        return -(ctx.k / 2.0) * (
            (p.a / p.l) * np.log((p.l + p.a * ct) / (p.l - p.a * ct))
            - np.log((1.0 + ct) / (1.0 - ct))
        )

    out = np.exp(f_part(theta) - f_part(DEFAULT_MATCHING_POINT))
    return float(out) if out.ndim == 0 else out
