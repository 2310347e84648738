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
uniform in e^{t/_GRADE}, so intervals are long near the pole, where A tends
to a constant matrix, and short near c, where |lambda| turns the phase. The
coefficients are sampled once per (p, ctx, c, eps, n), at 3 Gauss nodes per
interval, and serve every trial eigenvalue, as in MATSLISE (Ledoux, Van
Daele & Vanden Berghe, ACM TOMS 31, 2005). The sixth-order Magnus method of
Blanes, Casas & Ros (BIT 40, 2000) advances psi across an interval by the
exponential C + (S/s) Omega of a traceless 2x2 matrix Omega, S/s a power
series in q = -det Omega where |q| <= 1 and cos/sin beyond, or for q > 1
the exponential over cosh s, I + (tanh s / s) Omega; the Prüfer phase eta
is the sum of the per-interval rotation angles.
Omega is a polynomial in (lambda, domega) on each interval, so the tables
hold its coefficients and a defect call evaluates it by stacked matrix
products of one shape per table. Interval propagators are built in blocks of
at most _BLOCK elements (rows x intervals) where the batch allows, so memory
stays flat however wide the batch. Near each pole the
recessive (power-law bounded) solution is selected by the Frobenius phase at
theta = eps.

mesh_intervals fixes n, a power of two, from (p, ctx, c, eps) and a bound
on |lambda| and |domega| alone, by one accuracy bound per interval: the
lambda and domega part of the phase rate moves the phase by at most
_PHASE_STEP. The hyperbolic k / sin(theta) part needs none. A mesh above
MAX_MESH_INTERVALS is refused with WindowTooWide before anything is
sampled. Each solve checks its mesh once, at the converged roots, against
n/2, and doubles n while the estimated eigenvalue error |D_n - D_{n/2}| /
D' exceeds tol.

Eigenvalues are the roots of the matching defect D = eta_left(c) -
eta_right(c) at multiples m*pi; D is strictly increasing in lambda and the
integer m doubles as a global mode label. chandrupatla_batched finds them:
a batched, safeguarded Chandrupatla iteration (inverse-quadratic steps where
admitted, bisections otherwise) in which each item stops on its own bracket
width and is then frozen. Because the mesh depends only on an item's or
window's own bounds and every operation is elementwise over the batch or a
product of fixed shape, no eigenvalue depends on what else shares its batch.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .classify import angular_exponents, classify_angular
from .geometry import InputError, Refusal, delta_theta
from .operators import _angular_entries, dirac_d
# Unused; perfbench's test_wrappers_restore_original_bindings needs it bound.
from .rk import integrate  # noqa: F401

__all__ = [
    "PruferTrace",
    "SpectrumWindow",
    "solve_window",
    "solve_items",
    "chandrupatla_batched",
    "mesh_intervals",
    "NotLimitPoint",
    "WindowTooWide",
    "prufer_rhs",
    "shoot_angular",
    "angular_eigenvalues",
    "eigenvalues_by_label",
    "amplitude_weight",
]

DEFAULT_EPSILON = 1e-6 * math.pi
DEFAULT_MATCHING_POINT = math.pi / 2

# Magnus mesh: intervals per side are a power of two in [MIN, MAX]; the
# phase bound per interval sets n for large |lambda|, the floor for small.
# _PHASE_STEP bounds the lambda and domega part of an interval's phase move.
MIN_MESH_INTERVALS = 256
MAX_MESH_INTERVALS = 2**16
_PHASE_STEP = 0.1
_SIGMA_MAX = 1e30  # sigma^10 stays finite: Omega multiplies up to 5 samples of A, q squares it
# Mesh grading: interval lengths in t scale as e^(-t / _GRADE).
_GRADE = 3.0
# Largest propagator block built at once, in rows x intervals. Each Omega
# product spans _PER intervals (cut to a divisor of n) and _WIDTH rows.
_BLOCK = 8192
_PER = 4
_WIDTH = 8
# Root-finder steps without halving the bracket before a bisection step, and
# the step budget of one root-finder call.
_STALE_STEPS = 3
_MAX_ROOT_STEPS = 200
_SINC = [1.0 / math.factorial(2 * k + 1) for k in range(9)]  # sinh(s)/s in q = s^2; 1/19! < 2^-53
# Gauss-Legendre nodes of one interval, as fractions of its length.
_GAUSS = 0.5 + (math.sqrt(15.0) / 10.0) * np.array([-1.0, 0.0, 1.0])


class NotLimitPoint(Refusal):
    """An angular endpoint is limit circle and no boundary parameter beta was
    supplied; shooting refuses rather than picking an extension silently."""


class WindowTooWide(Refusal):
    """More than 1e3 eigenvalues requested in a single window, a window
    wider than MAX_WINDOW_SEGMENTS grid segments, or a lambda range whose
    Magnus mesh would exceed MAX_MESH_INTERVALS."""


# Largest grid solve_window shoots, in segments of width 0.5: a wider window
# is refused before the first defect call, which would shoot the whole grid.
MAX_WINDOW_SEGMENTS = 2000


@dataclass(frozen=True)
class PruferTrace:
    """One shooting trace: theta at the mesh nodes, phase, log amplitude,
    plus the endpoint initialization actually used. tol_achieved is the
    a-posteriori estimate |eta_n(c) - eta_{n/2}(c)| of the phase error at
    the matching point."""

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
    and signed mode labels (ordered by value, positive labels above lambda=0).
    mesh_error is the a-posteriori eigenvalue error estimate from the
    coarser mesh's defect."""

    lam_lo: float
    lam_hi: float
    eigenvalues: tuple
    residuals: tuple
    labels: tuple
    count: int
    mesh_error: float


def chandrupatla_batched(fun, lo, hi, flo, fhi, tol):
    """Batched, safeguarded Chandrupatla root finder (Adv. Eng. Software 28,
    145, 1997).

    fun(x, idx) returns the residuals of items idx at abscissae x, in one
    call for every live item. Item i starts on [lo_i, hi_i] with residuals
    flo_i, fhi_i of opposite sign. The first step is the secant between the
    ends; later steps are inverse-quadratic through the bracket ends and the
    point last dropped where 1 - sqrt(1 - xi) < Phi < sqrt(xi) admits them,
    and bisections otherwise. Every trial point stays tol/4 inside its
    bracket, and an item whose bracket did not halve over _STALE_STEPS steps
    bisects next. An item stops once its bracket is narrower than tol and is
    then frozen, so its iterates never depend on the other items.

    Returns (x, fx): per item the evaluated bracket end with the smaller
    |residual|, and that residual."""
    # rows a (the newest bracket end), b (the other end), c (the point last
    # dropped), then their residuals
    st = np.array([lo, hi, hi, flo, fhi, fhi], dtype=float)
    w_ref = st[1] - st[0]  # width when the bracket last halved
    stale = np.zeros(w_ref.shape, dtype=int)  # steps since then
    live = (w_ref >= tol) & (st[3] != 0.0) & (st[4] != 0.0)
    for step in range(_MAX_ROOT_STEPS):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        a, b, c, fa, fb, fc = st[:, idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
            t = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
            quad = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            x = a + (np.where(quad, t, 0.5) if step else fa / (fa - fb)) * (b - a)
        x = np.where((stale[idx] >= _STALE_STEPS) | ~np.isfinite(x), 0.5 * (a + b), x)
        x = np.clip(x, np.minimum(a, b) + 0.25 * tol, np.maximum(a, b) - 0.25 * tol)
        fx = np.asarray(fun(x, idx), dtype=float)

        across = np.sign(fx) != np.sign(fa)  # the root lies between x and a
        st[:, idx] = np.where(across, [x, a, b, fx, fa, fb], [x, b, a, fx, fb, fa])
        width = np.abs(st[1, idx] - x)
        halved = width <= 0.5 * w_ref[idx]
        w_ref[idx] = np.where(halved, width, w_ref[idx])
        stale[idx] = np.where(halved, 0, stale[idx] + 1)
        live[idx] = (width >= tol) & (fx != 0.0)
    a, b, _, fa, fb, _ = st
    use_a = np.abs(fa) <= np.abs(fb)
    return np.where(use_a, a, b), np.where(use_a, fa, fb)


def solve_window(defect, lo, hi, tol, coarse):
    """Every root of defect(x) = m*pi in [lo, hi], m integer, for a strictly
    increasing matching defect evaluated in batches (array in, array out).

    The number of multiples of pi crossed between the window ends counts the
    eigenvalues. Each is bracketed in one of the grid segments of width
    <= 0.5 and located there by chandrupatla_batched, from the secant
    between the segment ends, to a bracket narrower than tol / 2. Labels are
    signed indices ordered by value, anchored so the first eigenvalue above
    x = 0 gets +1 (a probe at 0 rides in the grid batch). A window of more
    than MAX_WINDOW_SEGMENTS segments raises WindowTooWide before the first
    defect call.

    coarse is the same defect on a coarser mesh; mesh_error is the largest
    |coarse - defect| at a root over the secant slope of the root's
    segment, and inf, with no roots, where the defect on the grid is not
    finite and strictly increasing."""
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise InputError("window must satisfy lam_lo < lam_hi")
    if not hi - lo <= 0.5 * MAX_WINDOW_SEGMENTS:
        raise WindowTooWide(f"window [{lo}, {hi}] is wider than {0.5 * MAX_WINDOW_SEGMENTS}")
    nseg = max(2, int(math.ceil((hi - lo) / 0.5)))
    grid = np.linspace(lo, hi, nseg + 1)
    dvals = defect(np.concatenate([grid, [0.0]]))
    dgrid, d0 = dvals[:-1], dvals[-1]
    if not np.all(np.diff(dgrid) > 0.0):  # D rises strictly: the mesh does not resolve it
        return SpectrumWindow(lo, hi, (), (), (), 0, mesh_error=math.inf)
    if (dgrid[-1] - dgrid[0]) / math.pi > 1e3:
        raise WindowTooWide("window holds more than 1e3 eigenvalues")

    m_lo = math.floor(dgrid[0] / math.pi)
    m_hi = math.floor(dgrid[-1] / math.pi)
    targets = np.arange(m_lo + 1, m_hi + 1)
    if targets.size == 0:
        return SpectrumWindow(lo, hi, (), (), (), 0, mesh_error=0.0)
    tpi = targets * math.pi
    seg = np.clip(np.searchsorted(dgrid, tpi) - 1, 0, nseg - 1)
    a, b = grid[seg], grid[seg + 1]
    fa, fb = dgrid[seg] - tpi, dgrid[seg + 1] - tpi
    roots, resid = chandrupatla_batched(
        lambda xs, idx: defect(xs) - tpi[idx], a, b, fa, fb, 0.5 * tol
    )
    slope = (fb - fa) / (b - a)
    mesh_error = float(np.max(np.abs(coarse(roots) - tpi - resid) / slope))

    labels = targets - math.floor(d0 / math.pi)
    labels = np.where(labels <= 0, labels - 1, labels)
    order = np.argsort(roots)
    return SpectrumWindow(
        lam_lo=lo,
        lam_hi=hi,
        eigenvalues=tuple(float(r) for r in roots[order]),
        residuals=tuple(float(r) for r in np.abs(resid)[order]),
        labels=tuple(int(m) for m in labels[order]),
        count=int(targets.size),
        mesh_error=mesh_error,
    )


def prufer_rhs(p, ctx, theta, eta, lam):
    """Phase derivative in the printed form

        H = lambda/sqrt(Delta_theta) + (2 a mu cos(theta)) sin(eta) cos(eta)
            + [xi sigma_b/(sqrt(Delta_theta) sin(theta))
               + a omega sin(theta)/sqrt(Delta_theta)] (sin^2(eta) - cos^2(eta)).

    Exposed for direct evaluation and tests; shooting propagates the
    equivalent first-order system itself (the two phase equations coincide
    when a = 0)."""
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
    first-order inhomogeneous correction (lam may be an array). exponent is
    nu at theta=0 (or rho0 in the reflected variable at theta=pi)."""
    eta0 = math.copysign(math.pi / 4.0, exponent)
    c1 = (lam + math.copysign(mu_a, exponent)) / math.sqrt(xi)
    return eta0 + c1 * eps / (1.0 + 2.0 * abs(exponent))


def _sides(c):
    """(side, pole, sign, distance from the pole to c) for both sides."""
    return (("left", 0.0, 1.0, c), ("right", math.pi, -1.0, math.pi - c))


def mesh_intervals(
    p, ctx, lam_bound, domega_bound=0.0, c=DEFAULT_MATCHING_POINT, eps=DEFAULT_EPSILON
):
    """Magnus intervals per side for |lambda| <= lam_bound and |domega| <=
    domega_bound (scalars, or arrays giving each item its own mesh): the
    smallest power of two, at least MIN_MESH_INTERVALS, that keeps the
    lambda and domega part of every interval's phase move within
    _PHASE_STEP, the accuracy budget.

    At distance r = e^t from the pole, Delta_theta >= xi bounds that part of
    |d eta/dt| by r L,

        L = (|lambda| + |mu a|) / sqrt(xi) + |a| (|omega| + |domega|) / xi.

    On a side reaching distance x, the mesh graded with beta = _GRADE gives
    the interval starting at t a length of at most h(t) = S e^{-t/beta} / n,
    S = beta (x^{1/beta} - eps^{1/beta}), so sup n h r L = S x^{1 - 1/beta} L
    does not depend on n; it sits at c, where the coefficients vary.

    The rest of the rate, at most sigma r / sin r with sigma = |d| (1 + |b|)
    + |k|, is hyperbolic and needs no bound: it peaks at the pole, where A is
    nearly constant, so the Magnus step is nearly exact, and the swept
    solution is the dominant one in its direction of travel. Raises
    WindowTooWide when n would exceed MAX_MESH_INTERVALS, naming the term
    that dominates: |lambda|, |mu a| or |a| (|omega| + |domega|), and
    Refusal for sigma above _SIGMA_MAX, where Omega could overflow."""
    sigma = abs(dirac_d(p, ctx)) * (1.0 + abs(ctx.gauge_b)) + abs(ctx.k)
    if not sigma <= _SIGMA_MAX:
        raise Refusal(f"sigma = |d| (1 + |b|) + |k| = {sigma:g} is above {_SIGMA_MAX:g}, "
                      "where the Magnus Omega of a pole interval could overflow")
    lam_bound = np.asarray(lam_bound, dtype=float)
    domega_bound = np.asarray(domega_bound, dtype=float)
    mu_a, a_omega = abs(ctx.mu * p.a), abs(p.a) * (abs(ctx.omega) + domega_bound)
    e0 = eps ** (1.0 / _GRADE)
    span = max(_GRADE * (x ** (1.0 / _GRADE) - e0) * x ** (1.0 - 1.0 / _GRADE) for *_, x in _sides(c))
    with np.errstate(over="ignore"):  # a rate past the float range is +inf, refused below
        need = span * ((lam_bound + mu_a) / math.sqrt(p.xi) + a_omega / p.xi) / _PHASE_STEP
    w = span / _PHASE_STEP
    return _mesh_size(need, (
        ("|lambda| <= {:g}", lam_bound, w * lam_bound / math.sqrt(p.xi)),
        ("|mu a| = {:g}", mu_a, w * mu_a / math.sqrt(p.xi)),
        ("|a| (|omega| + |domega|) <= {:g}", a_omega, w * a_omega / p.xi),
    ))


def _mesh_size(need, causes):
    """The least power of two >= need and MIN_MESH_INTERVALS (elementwise).
    Above MAX_MESH_INTERVALS, WindowTooWide names the largest of causes,
    (message, value, share of need) triples broadcasting against need, at
    the item that needs the most."""
    if not np.all(need <= MAX_MESH_INTERVALS):  # also refuses nan
        i = np.argmax(np.where(np.isnan(need), np.inf, need))
        item = lambda v: np.ravel(np.broadcast_to(v, np.shape(need)))[i]  # noqa: E731
        worst = item(need)
        n = f"2^{math.ceil(math.log2(worst))}" if math.isfinite(worst) else worst
        text, value, _ = max(causes, key=lambda cause: np.nan_to_num(item(cause[2]), nan=np.inf))
        raise WindowTooWide(
            f"{text.format(item(value))} needs a Magnus mesh of n = {n} "
            f"intervals per side, above the cap of {MAX_MESH_INTERVALS}"
        )
    n = 2 ** np.ceil(np.log2(np.maximum(need, MIN_MESH_INTERVALS))).astype(int)
    return int(n) if n.ndim == 0 else n


def _refined(n, bound, name="lambda"):
    """The doubled mesh size, or WindowTooWide above the cap."""
    if 2 * n > MAX_MESH_INTERVALS:
        raise WindowTooWide(
            f"the Magnus mesh error at |{name}| <= {bound:g} stays above "
            f"tol at {n} intervals per side, the cap is {MAX_MESH_INTERVALS}"
        )
    return 2 * n


def _refined_window(defect, window, tol, n, bound, name="lambda"):
    """solve_window on defect(x, n), checked against defect(x, n // 2), with
    n doubled while the check estimates an eigenvalue error above tol."""
    while True:
        sw = solve_window(lambda x: defect(x, n), *window, tol, coarse=lambda x: defect(x, n // 2))
        if sw.mesh_error <= tol:
            return sw
        n = _refined(n, bound, name)


@lru_cache(maxsize=8)
def _magnus_tables(p, ctx, c, eps, n):
    """Omega coefficients of both sides on the graded mesh of n intervals.

    Returns (tabs, ts). With A = g0 sigma_z + lambda g1 J - (g2 + domega g3)
    sigma_x (_ANGULAR_LAYOUT), J = [[0, -1], [1, 0]], tabs[side, i, comp, m] is the coefficient
    of monomial _MONOMIALS[m] in the (sigma_z, J, sigma_x) component comp of
    the sixth-order Magnus Omega over interval i (_omega_table); ts[side] are
    the n + 1 node times t, uniform in e^{t/_GRADE} from log(eps) to log(x)."""
    _, pole, sign, x = (np.array(v)[:, None] for v in zip(*_sides(c)))
    e0 = eps ** (1.0 / _GRADE)
    ts = _GRADE * np.log(e0 + (x ** (1.0 / _GRADE) - e0) * np.linspace(0.0, 1.0, n + 1))
    ts[:, 0], ts[:, -1] = math.log(eps), np.log(x[:, 0])
    h = np.diff(ts)
    e = np.exp(ts[:, :-1, None] + h[..., None] * _GAUSS)
    theta = pole[..., None] + sign[..., None] * e
    m11, m12 = _angular_entries(p, ctx, theta)
    sq = np.sqrt(1.0 - (p.a / p.l) ** 2 * np.cos(theta) ** 2)
    f = sign[..., None] * e / sq
    g = np.stack([f * m12, f, -f * m11, -f * p.a * np.sin(theta) / sq])
    ts.flags.writeable = False
    return _omega_table(_magnus_terms(h, g), _ANGULAR_LAYOUT), ts


def _magnus_terms(h, g):
    """Sixth-order Magnus terms alpha_1..3 (axis 0) from samples g[..., i,
    node] at the _GAUSS nodes of intervals i of signed lengths h[i]."""
    return np.stack([h * g[..., 1], (math.sqrt(15.0) * h / 3.0) * (g[..., 2] - g[..., 0]),
                     (10.0 * h / 3.0) * (g[..., 2] - 2.0 * g[..., 1] + g[..., 0])])


# Monomials lambda^i domega^j of Omega, pure lambda first: degree <= 3 in
# each and <= 5 in total. _ONE is the polynomial 1.
_MONOMIALS = [(i, j) for j in range(4) for i in range(4) if i + j <= 5]
_ONE = {(0, 0): 1.0}
# (component, monomial) of the signed rows (g0, g1, -g2, -g3) of the angular A.
_ANGULAR_LAYOUT = ((0, (0, 0)), (1, (1, 0)), (2, (0, 0)), (2, (0, 1)))


def _poly(*terms):
    """Sum of c u v over (c, u, v) terms, u and v polynomials {(i, j): array}
    in lambda^i domega^j. A monomial absent from u or v costs nothing."""
    out = {}
    for c, u, v in terms:
        for (i, j), x in u.items():
            cx = x if c == 1.0 else c * x
            for (k, l), y in v.items():
                key, t = (i + k, j + l), cx * y
                out[key] = out[key] + t if key in out else t
    return out


def _pcomm(x, y):
    """[x, y] for traceless 2x2 matrices given as (sigma_z, J, sigma_x)
    coefficient polynomials."""
    return tuple(_poly((2.0, x[u], y[v]), (-2.0, x[v], y[u])) for u, v in ((2, 1), (2, 0), (1, 0)))


def _omega_table(terms, layout):
    """Coefficients C[side, i, comp, m] of the sixth-order Magnus Omega of
    Blanes, Casas & Ros over interval i,

        Omega = a1 + a3/12 + [-20 a1 - a3 + c1, a2 - c2/60] / 240,
        c1 = [a1, a2],  c2 = [a1, 2 a3 + c1],

    in the (sigma_z, J, sigma_x) component comp and the monomial
    _MONOMIALS[m], from Magnus terms terms[k, f, side, i] of the rows f of
    A, row f being the coefficient of the monomial layout[f][1] in the
    component layout[f][0]. The a_k are expanded once as polynomials; a row
    that is zero throughout is left out, so its products are never formed,
    and m stops after the last monomial in use (the four pure-lambda ones
    for the angular rows with g3 zero). Read-only."""
    def term(t):
        comps = ({}, {}, {})
        for row, (comp, key) in ((r, c) for r, c in zip(t, layout) if np.any(r)):
            comps[comp][key] = row
        return comps

    a1, a2, a3 = (term(t) for t in terms)
    c1 = _pcomm(a1, a2)
    c2 = _pcomm(a1, [_poly((2.0, u, _ONE), (1.0, v, _ONE)) for u, v in zip(a3, c1)])
    left = [_poly((-20.0, u, _ONE), (-1.0, v, _ONE), (1.0, w, _ONE)) for u, v, w in zip(a1, a3, c1)]
    right = [_poly((1.0, u, _ONE), (-1.0 / 60.0, v, _ONE)) for u, v in zip(a2, c2)]
    omega = [_poly((1.0, u, _ONE), (1.0 / 12.0, v, _ONE), (1.0 / 240.0, w, _ONE))
             for u, v, w in zip(a1, a3, _pcomm(left, right))]
    m = 1 + max(_MONOMIALS.index(key) for u in omega for key in u)
    tabs = np.zeros(terms.shape[2:] + (3, m))
    for comp, u in enumerate(omega):
        for key, v in u.items():
            tabs[..., comp, _MONOMIALS.index(key)] = v
    tabs.flags.writeable = False
    return tabs


def _monomials(lams, domega, m):
    """The first m of _MONOMIALS at each row, (m, columns), the rows repeated
    up to a multiple of _WIDTH columns: _sweep's products have one width."""
    cols = -(-lams.size // _WIDTH) * _WIDTH
    lams, dw = (np.resize(v, cols) for v in np.broadcast_arrays(lams, domega))
    powers = [[np.ones_like(lams), v, v * v, v * v * v] for v in (lams, dw)]
    return np.stack([powers[0][i] * powers[1][j] for i, j in _MONOMIALS[:m]])


def _sweep(tabs, lams, domega, eta0, record):
    """Propagate rows stacked as [side 0 rows, side 1 rows, ...] across the
    mesh of every side of tabs.

    Per block of intervals, Omega = z sigma_z + j J + x sigma_x is one
    np.matmul of products tabs (per intervals x sides x 3, monomials) @
    _monomials (monomials, _WIDTH rows), per = gcd(n, _PER), of one shape
    per table; every OpenBLAS kernel tested sums their columns alike, so a
    row's bits do not depend on its batch. With q = z^2 + x^2 - j^2 = -det
    Omega and s = sqrt(|q|), exp(Omega) = C + (S / s) Omega. Where |q| <= 1,
    S / s = sum q^k / (2k + 1)! (_SINC, by Horner) and C = sqrt(1 + q (S /
    s)^2) > 0 for either sign of q, so no trig runs. Elements with |q| > 1,
    picked by integer index so each one's bits depend on its own q alone,
    take exp(Omega) / cosh s = I + (tanh s / s) Omega where q > 1, and the
    log amplitude gains log cosh s = s + log1p(e^{-2s}) - log 2: a positive
    factor leaves the phase, which turns by less than pi between Omega's
    eigen-directions, so no s overflows or needs a bound. Where q < -1 the
    vector turns in the sense of j, through pi each time s passes a multiple
    of pi: with k = floor(s / pi), exp(Omega) is (-1)^k times C + (S / s)
    Omega at (C, S) = (cos, sin)(s - k pi), and the phase gains sign(j) k pi
    more. exp(Omega) maps z = u + i v to alpha z + beta conj(z), in place.

    eta0 holds the sides * rows starting phases; record is False, True or a
    mask over the n + 1 nodes. Returns the phases at the end and, when
    recording, (etas, log_rhos) at the recorded nodes (arrays (nodes, sides
    * rows)). The unit vector is carried as w = exp(-2 i eta), so one
    interval is g = alpha + beta w, the phase gains arg g and the amplitude
    the factor |g|. Sums run strictly in mesh order, whatever the block."""
    rows = lams.size
    sides, n, m = tabs.shape[0], tabs.shape[1], tabs.shape[-1]
    per = math.gcd(n, _PER)
    mono = _monomials(lams, domega, m).reshape(m, -1, _WIDTH).swapaxes(0, 1)
    block = per * max(1, _BLOCK // (sides * rows * per))
    keep = np.broadcast_to(record, (n + 1,))
    eta = np.array(eta0, dtype=float)
    logr, w = np.zeros(eta.shape), np.exp(-2j * eta)
    etas, logs = [eta[None][keep[:1]]], [logr[None][keep[:1]]]
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        coef = np.moveaxis(tabs[:, i0:i1], 0, 1).reshape(-1, 1, per * sides * 3, m)
        om = np.empty((coef.shape[0], per * sides * 3, mono.shape[0], _WIDTH))
        np.matmul(coef, mono, out=om.swapaxes(1, 2))  # lands in row order, no copy
        z, j, x = np.moveaxis(om.reshape(i1 - i0, sides, 3, -1)[..., :rows], 2, 0)
        q = z * z + x * x - j * j
        ab = np.empty((2,) + q.shape, dtype=complex)
        cs, sn = ab[0].real, np.full_like(q, _SINC[-1])
        with np.errstate(over="ignore", invalid="ignore"):  # |q| > 1 is overwritten below
            for coef in _SINC[-2::-1]:
                np.add(np.multiply(sn, q, out=sn), coef, out=sn)
            np.sqrt(1.0 + q * sn * sn, out=cs)
        hyp, rot = np.flatnonzero(q > 1.0), np.flatnonzero(q < -1.0)
        s = np.sqrt(q.flat[hyp])
        cs.flat[hyp], sn.flat[hyp] = 1.0, np.tanh(s) / s  # exp(Omega) / cosh s
        log_cosh = s + np.log1p(np.exp(-2.0 * s)) - math.log(2.0)
        s = np.sqrt(-q.flat[rot])
        half = np.floor(s / math.pi) * math.pi
        cs.flat[rot], sn.flat[rot] = np.cos(s - half), np.sin(s - half) / s
        for part, v in ((ab[0].imag, j), (ab[1].real, z), (ab[1].imag, x)):
            np.multiply(sn, v, out=part)
        alpha, beta = ab.reshape(2, i1 - i0, -1)
        g = np.empty_like(alpha)
        for i in range(i1 - i0):
            gi = np.add(alpha[i], np.multiply(beta[i], w, out=g[i]), out=g[i])
            w = w * np.conj(gi) / gi  # not in place: in place, numpy rounds one element apart
        gain = np.angle(g)
        gain.flat[rot] += np.copysign(half, j.flat[rot])
        steps = np.cumsum(np.concatenate([eta[None], gain]), axis=0)[1:]
        eta = steps[-1]
        if record is not False:
            grow = np.log(np.abs(g))
            grow.flat[hyp] += log_cosh
            growth = np.cumsum(np.concatenate([logr[None], grow]), axis=0)[1:]
            logr = growth[-1]
            etas.append(steps[keep[i0 + 1:i1 + 1]])
            logs.append(growth[keep[i0 + 1:i1 + 1]])
    return eta, None if record is False else (np.concatenate(etas), np.concatenate(logs))


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
    n=None,
):
    """Shoot both sides for a whole array of lambda values at once, from
    theta = eps and theta = pi - eps to the matching point c.

    n gives the Magnus intervals per side (a scalar or one per row); by
    default each row gets mesh_intervals of its own |lambda| and |domega|.
    domega gives optional per-row frequency offsets (the recessive
    initialization is frequency independent since the omega term vanishes
    to first order at the fixed points).

    Returns the phases eta_left(c) and eta_right(c), plus the two
    PruferTraces when record is set (None otherwise). Recording shoots a
    single lambda and also sweeps n/2 for each trace's tol_achieved."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    dw = np.zeros(lams.shape) if domega is None else np.broadcast_to(
        np.asarray(domega, dtype=float), lams.shape
    )
    if n is None:
        n = mesh_intervals(p, ctx, np.abs(lams), np.abs(dw), c, eps)
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
        tabs, ts = _magnus_tables(p, ctx, c, eps, int(nn))
        ends[both], nodes = _sweep(tabs, lams[rows], dw[rows], eta0[both], record)
    left, right = ends[: lams.size], ends[lams.size:]
    if not record:
        return left, right, None

    coarse, _ = _sweep(_magnus_tables(p, ctx, c, eps, int(nn) // 2)[0], lams, dw, eta0, False)
    etas, log_rhos = nodes
    traces = tuple(
        PruferTrace(
            thetas=pole + sign * np.exp(ts[s]),
            etas=etas[:, s],
            log_rhos=log_rhos[:, s],
            winding=int(math.floor((etas[-1, s] - etas[0, s]) / math.pi)),
            frobenius_eta0=sign * math.copysign(math.pi / 4, exponent) if beta is None else beta,
            epsilon=eps,
            tol_achieved=float(abs(ends[s] - coarse[s])),
            side=side,
        )
        for s, ((side, pole, sign, _), exponent, beta) in enumerate(
            zip(_sides(c), (nu, rho0), (beta_left, beta_right))
        )
    )
    return left, right, traces


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
    with the phase measured in the theta picture on both sides; the traces
    hold the mesh nodes."""
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
    return float(left[0]), float(right[0]), traces


def _defect(p, ctx, lams, c, eps, beta_left, beta_right, domega=None, n=None):
    """Matching defect eta_left(c) - eta_right(c) per row, on n Magnus
    intervals per side (scalar or per row; by default each row's own
    mesh_intervals)."""
    left, right, _ = _shoot_batch(p, ctx, lams, c=c, eps=eps, beta_left=beta_left,
                                  beta_right=beta_right, domega=domega, n=n)
    return left - right


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

    return _refined_window(defect, window, tol, mesh_intervals(p, ctx, bound, 0.0, c, eps), bound)


def solve_items(p, ctx, targets, lo, hi, domega, tol):
    """Roots of the matching defect at the integer targets m (D = m*pi),
    one per item, inside the brackets [lo, hi] and at the frequency offsets
    domega from ctx.omega, shooting to the default matching point from the
    default pole offset.

    Each item gets the Magnus mesh of its own bracket and offset, is solved
    by chandrupatla_batched to a bracket narrower than tol / 2 (one defect
    call per step for all live items), and is checked against n/2 at its
    root (slope from its bracket ends); an item whose estimated eigenvalue
    error exceeds tol is solved again from its bracket on the doubled mesh.
    So every root depends on its own item alone.
    Returns (roots, |residuals|)."""
    tpi = np.asarray(targets, dtype=float) * math.pi
    lo, hi, dw = (np.asarray(v, dtype=float) for v in (lo, hi, domega))
    bound = np.maximum(np.abs(lo), np.abs(hi))
    c, eps = DEFAULT_MATCHING_POINT, DEFAULT_EPSILON
    n = np.broadcast_to(mesh_intervals(p, ctx, bound, np.abs(dw), c, eps), tpi.shape).copy()
    roots, resid = np.empty(tpi.shape), np.empty(tpi.shape)
    todo = np.arange(tpi.size)
    while todo.size:

        def f(xs, idx, todo=todo, halve=1):
            sel = todo[idx]
            return _defect(p, ctx, xs, c, eps, None, None, dw[sel], n[sel] // halve) - tpi[sel]

        k = np.arange(todo.size)
        ends = f(np.concatenate([lo[todo], hi[todo]]), np.concatenate([k, k]))
        flo, fhi = ends[: todo.size], ends[todo.size:]
        x, fx = chandrupatla_batched(f, lo[todo], hi[todo], flo, fhi, 0.5 * tol)
        slope = (fhi - flo) / (hi[todo] - lo[todo])
        ok = np.abs(f(x, k, halve=2) - fx) <= tol * slope
        roots[todo[ok]], resid[todo[ok]] = x[ok], fx[ok]
        todo = todo[~ok]
        for i in todo:
            n[i] = _refined(int(n[i]), float(bound[i]))
    return roots, np.abs(resid)


def eigenvalues_by_label(p, ctx, labels):
    """Eigenvalues for specific signed labels, expanding the search window
    until every requested label is present. Returns {label: eigenvalue}."""
    want = set(int(j) for j in labels)
    w = max(abs(j) for j in want) + 2.0 + abs(ctx.k) + abs(ctx.omega) * p.a
    lo, hi = -w, w
    for _ in range(12):
        sw = angular_eigenvalues(p, ctx, (lo, hi))
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

    out = np.exp(f_part(theta) - f_part(c))
    return float(out) if out.ndim == 0 else out
