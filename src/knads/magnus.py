"""The sixth-order Magnus sweep and the one eigen-solver shared by the
angular and the radial solver, whose traceless systems psi' = A psi are
affine in two spectral variables.

magnus_terms and omega_table turn samples of A at the GAUSS nodes into the
coefficients of each interval's Omega (Blanes, Casas & Ros, BIT 40, 2000)
as a polynomial in the two variables, once per mesh as in MATSLISE (Ledoux,
Van Daele & Vanden Berghe, ACM TOMS 31, 2005); sweep carries the Prüfer
phase, and the log amplitude where asked, across the mesh, and sweep_ends
each row on its own mesh. mesh_size and refined size the mesh. Every
eigenvalue is an item of solve_items, which checks it at n/2 and doubles
its own mesh while the check asks; solve_window solves the roots of a
window that window_brackets counts, brackets and labels on a grid. No
result depends on what else shares its batch: every operation is
elementwise over the batch or a product of fixed shape.
"""

from dataclasses import dataclass
import math

import numpy as np

from .geometry import InputError, Refusal

# Magnus mesh: intervals per side are a power of two in [MIN, MAX]. The
# a-priori mesh rules (angular.mesh_intervals, radial._leg_intervals) keep
# one interval's phase move within PHASE_STEP, the accuracy budget.
MIN_MESH_INTERVALS = 256
MAX_MESH_INTERVALS = 2**16
PHASE_STEP = 0.1
# Mesh grading: interval lengths in t scale as e^(-t / GRADE).
GRADE = 3.0
# Largest propagator block built at once, in rows x intervals. Each Omega
# product spans _PER intervals (cut to a divisor of n) and _WIDTH rows.
_BLOCK = 8192
_PER = 4
_WIDTH = 8
# Root-finder steps without halving the bracket before a bisection step, and
# the step budget of one root-finder call.
_STALE_STEPS = 3
_MAX_ROOT_STEPS = 200
# solve_items predicts each root on n // _COARSE intervals, to a bracket of _COARSE_TOL.
_COARSE = 8
_COARSE_TOL = 1e-6
# Mesh error ~ h^6 (sixth-order Magnus): the n/_COARSE and n/2 roots extrapolate to the n root.
_RICHARDSON = (2.0**6 - 1.0) / (_COARSE**6 - 2.0**6)
_SINC = [1.0 / math.factorial(2 * k + 1) for k in range(9)]  # sinh(s)/s in q = s^2; 1/19! < 2^-53
# Gauss-Legendre nodes of one interval, as fractions of its length.
GAUSS = 0.5 + (math.sqrt(15.0) / 10.0) * np.array([-1.0, 0.0, 1.0])


class WindowTooWide(Refusal):
    """More than 1e3 eigenvalues requested in a single window, a window
    wider than MAX_WINDOW_SEGMENTS grid segments, or a spectral range,
    angular or radial, whose Magnus mesh would exceed MAX_MESH_INTERVALS, a
    priori or after refinement."""


# Largest grid solve_window shoots, in segments of width 0.5: a wider window
# is refused before the first defect call, which would shoot the whole grid.
MAX_WINDOW_SEGMENTS = 2000


@dataclass(frozen=True)
class SpectrumWindow:
    """Sorted eigenvalues in [lam_lo, lam_hi] with signed mode labels
    (ordered by value, positive labels above lambda = 0). residuals are
    |D - m*pi| at each returned root, the matching defect's distance from
    its target in phase radians. mesh_error is the largest per-root n/2
    estimate |D_{n/2} - D_n| / D' at the roots, in eigenvalue units."""

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

    Returns (x, fx, slope): per item the evaluated bracket end with the
    smaller |residual|, that residual, and the secant slope of the final
    bracket."""
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
    return np.where(use_a, a, b), np.where(use_a, fa, fb), (fb - fa) / (b - a)


def window_bound(window):
    """(lo, hi, max(|lo|, |hi|)) of a window (lo, hi) with finite ends lo <
    hi, checked before any mesh is sized; else an InputError names it."""
    lo, hi = (float(v) for v in window)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InputError(f"window must have finite ends lam_lo < lam_hi, got [{lo}, {hi}]")
    return lo, hi, max(abs(lo), abs(hi))


def window_brackets(defect, lo, hi, n, cause):
    """Count, bracket and label the roots of defect(x, n) = m*pi in [lo,
    hi], m integer, for a strictly increasing matching defect on a mesh of n
    intervals, evaluated in batches (array in, array out), from one grid of
    segments of width <= 0.5 and a probe at x = 0. While the grid defect is
    not finite and strictly increasing, n doubles (refined, naming cause at
    the cap). Labels are signed indices ordered by value, anchored so the
    first eigenvalue above x = 0 gets +1. A window of more than
    MAX_WINDOW_SEGMENTS segments raises WindowTooWide before the first
    defect call, and one of more than 1e3 eigenvalues after it.

    Returns (n, targets, labels, a, b, fa, fb): the mesh reached and, per
    target m in increasing order, its label, its segment [a, b] and the
    defect minus m*pi at the segment ends."""
    if not hi - lo <= 0.5 * MAX_WINDOW_SEGMENTS:
        raise WindowTooWide(f"window [{lo}, {hi}] is wider than {0.5 * MAX_WINDOW_SEGMENTS}")
    nseg = max(2, int(math.ceil((hi - lo) / 0.5)))
    grid = np.linspace(lo, hi, nseg + 1)
    while True:
        dvals = defect(np.concatenate([grid, [0.0]]), n)
        dgrid, d0 = dvals[:-1], dvals[-1]
        if np.all(np.diff(dgrid) > 0.0):  # D rises strictly where the mesh resolves it
            break
        n = refined(n, cause)
    if (dgrid[-1] - dgrid[0]) / math.pi > 1e3:
        raise WindowTooWide("window holds more than 1e3 eigenvalues")
    targets = np.arange(math.floor(dgrid[0] / math.pi) + 1, math.floor(dgrid[-1] / math.pi) + 1)
    labels = targets - math.floor(d0 / math.pi)
    tpi = targets * math.pi
    seg = np.clip(np.searchsorted(dgrid, tpi) - 1, 0, nseg - 1)
    return (n, targets, np.where(labels <= 0, labels - 1, labels), grid[seg], grid[seg + 1],
            dgrid[seg] - tpi, dgrid[seg + 1] - tpi)


def solve_items(defect, targets, lo, hi, n, tol, cause, ends=None):
    """Roots of defect(x, items, n) = m*pi at the integer targets m inside
    the float arrays lo, hi of brackets, item i from n[i] intervals (n may
    be a scalar); defect takes an item index and a mesh size per row. Each
    root is predicted (two-grid, Xu & Zhou, Math. Comp. 70, 2001): Newton
    steps with the slope of a chandrupatla_batched solve on n // _COARSE
    intervals, to _COARSE_TOL, give roots there and on n/2 intervals, which
    extrapolate (Richardson, Magnus error ~ h^6) to the full-mesh root x1.
    Where the full-mesh defect at x1 -+ tol / 8 straddles the target, that
    enclosure is the item's bracket, elsewhere its own bracket is; the
    finder narrows it below tol / 2. Given ends, the defect minus m*pi at
    the bracket ends on the starting mesh, the finder starts there at once:
    its last steps land far inside tol, where an enclosure returns an end.
    An item whose n/2 check, by the coarse slope (else the finder's last),
    estimates an error above tol is predicted again on its doubled mesh
    (refined, naming cause(i) at the cap). Returns per item the root,
    |defect - m*pi| there (phase radians) and the n/2 estimate (eigenvalue
    units); each depends on its own item alone."""
    tpi = np.asarray(targets, dtype=float) * math.pi
    n = np.broadcast_to(n, tpi.shape).copy()
    roots, resid, error = np.empty((3,) + tpi.shape)
    todo = np.arange(tpi.size)
    while todo.size:

        def f(xs, idx, todo=todo, div=1):
            sel = todo[idx]
            return defect(xs, sel, n[sel] // div) - tpi[sel]

        def at_ends(a, b, idx, div=1):
            vals = f(np.concatenate([a, b]), np.concatenate([idx, idx]), div=div)
            return vals[: idx.size], vals[idx.size:]

        k, a, b = np.arange(todo.size), lo[todo], hi[todo]
        if ends is None:
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
        else:
            (fa, fb), slope = ends, None
        x, fx, last = chandrupatla_batched(f, a, b, fa, fb, 0.5 * tol)
        slope, ends = last if slope is None else slope, None
        err = np.abs(f(x, k, div=2) - fx)
        ok = err <= tol * slope
        with np.errstate(divide="ignore", invalid="ignore"):
            roots[todo[ok]], resid[todo[ok]], error[todo[ok]] = x[ok], fx[ok], err[ok] / slope[ok]
        todo = todo[~ok]
        for i in todo:
            n[i] = refined(int(n[i]), cause(i))
    return roots, np.abs(resid), error


def solve_window(defect, lo, hi, tol, n, cause):
    """Every root of defect(x, n) = m*pi in [lo, hi], bracketed and labelled
    by window_brackets and solved by solve_items from the mesh the grid pass
    reached and its defect at the bracket ends; defect takes a mesh size per
    row."""
    n, targets, labels, a, b, fa, fb = window_brackets(defect, lo, hi, n, cause)
    roots, resid, error = solve_items(lambda xs, _, nn: defect(xs, nn), targets, a, b, n, tol,
                                      lambda _: cause, (fa, fb))
    return SpectrumWindow(lo, hi, tuple(roots.tolist()), tuple(resid.tolist()),
                          tuple(labels.tolist()), int(targets.size), float(np.max(error, initial=0.0)))


def mesh_size(need, causes):
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


def refined(n, cause):
    """The doubled mesh size, or WindowTooWide naming cause above the cap."""
    if 2 * n > MAX_MESH_INTERVALS:
        raise WindowTooWide(
            f"the Magnus mesh error at {cause} stays above "
            f"tol at {n} intervals per side, the cap is {MAX_MESH_INTERVALS}"
        )
    return 2 * n


def magnus_terms(h, g):
    """Sixth-order Magnus terms alpha_1..3 (axis 0) from samples g[..., i,
    node] at the GAUSS nodes of intervals i of signed lengths h[i]."""
    return np.stack([h * g[..., 1], (math.sqrt(15.0) * h / 3.0) * (g[..., 2] - g[..., 0]),
                     (10.0 * h / 3.0) * (g[..., 2] - 2.0 * g[..., 1] + g[..., 0])])


# Monomials lambda^i domega^j of Omega, pure lambda first: degree <= 3 in
# each and <= 5 in total. _ONE is the polynomial 1.
_MONOMIALS = [(i, j) for j in range(4) for i in range(4) if i + j <= 5]
_ONE = {(0, 0): 1.0}


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


def omega_table(terms, layout):
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
    up to a multiple of _WIDTH columns: sweep's products have one width."""
    cols = -(-lams.size // _WIDTH) * _WIDTH
    lams, dw = (np.resize(v, cols) for v in np.broadcast_arrays(lams, domega))
    powers = [[np.ones_like(lams), v, v * v, v * v * v] for v in (lams, dw)]
    return np.stack([powers[0][i] * powers[1][j] for i, j in _MONOMIALS[:m]])


def sweep(tabs, lams, domega, eta0, record):
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


def sweep_ends(tables, n, lams, domega, eta0):
    """End phases of sweep for rows (lams, domega) stacked per side, row i on
    n[i] intervals (n may be a scalar): one sweep of tables(size) per size."""
    lams, domega, n = np.broadcast_arrays(lams, domega, n)
    ends = np.empty(eta0.shape)
    for nn in np.unique(n):
        rows = np.flatnonzero(n == nn)
        every = np.concatenate([rows + side * lams.size for side in range(eta0.size // lams.size)])
        ends[every], _ = sweep(tables(int(nn)), lams[rows], domega[rows], eta0[every], False)
    return ends
