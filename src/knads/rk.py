"""Batched embedded Runge-Kutta 5(4) stepper and a batched bisection engine.

The stepper now serves only the radial certificates and the continuation
evidence, which integrate the radial phase equation with recorded nodes over
long horizon stretches; eigenvalue shooting, angular and radial, runs on the
Magnus mesh of knads.angular. One shared adaptive step advances the whole
batch, error controlled by the worst member, on state (batch, 2): (phase,
log amplitude). bisect_batched has no caller in the package.

The Dormand-Prince 5(4) pair with FSAL is used; local error is measured in a
scaled max norm. An optional per-step cap on the first state component keeps
phase increments below pi/2 so winding counts cannot slip a branch.
"""

import numpy as np


class IntegratorStall(RuntimeError):
    """Step size collapsed or the step budget ran out before reaching the end
    of the integration interval."""


_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
# 5th order weights equal the last _A row (FSAL); error weights are b5 - b4.
_E = (
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)


def integrate(
    f,
    t0,
    t1,
    y0,
    rtol=1e-10,
    atol=1e-12,
    max_step=np.inf,
    first_step=None,
    phase_cap=None,
    record=False,
    max_steps=200000,
):
    """Advance y' = f(t, y) from t0 to t1 for a whole batch at once.

    y0 has shape (batch, dim); f must accept and return that shape. Either
    time direction works. If phase_cap is given, any step moving component 0
    of some batch member by more than phase_cap is rejected and retried
    smaller (trace continuity guard). With record=True every accepted node is
    kept and returned as (ts, ys).

    Returns (y_final, ts, ys); ts and ys are None unless record is set.
    Raises IntegratorStall when the step size underflows or max_steps is hit.
    """
    y = np.array(y0, dtype=float)
    t = float(t0)
    t1 = float(t1)
    span = t1 - t0
    if span == 0.0:
        return y, None, None
    direction = 1.0 if span > 0 else -1.0
    h = abs(span) / 100.0 if first_step is None else abs(first_step)
    h = min(h, abs(span), max_step)

    k = np.empty((7,) + y.shape)
    k[0] = f(t, y)
    ts = [t] if record else None
    ys = [y.copy()] if record else None
    hmin = 1e-14 * abs(span)

    steps = 0
    while (t1 - t) * direction > 0:
        h = min(h, abs(t1 - t))
        if h < hmin:
            raise IntegratorStall(f"step size underflow at t={t}")
        hd = h * direction
        for i in range(1, 7):
            yi = y.copy()
            for j, aij in enumerate(_A[i]):
                if aij != 0.0:
                    yi += (hd * aij) * k[j]
            k[i] = f(t + _C[i] * hd, yi)
        y_new = yi  # row 6 of _A is the 5th order solution
        err_vec = np.zeros_like(y)
        for i, ei in enumerate(_E):
            if ei != 0.0:
                err_vec += ei * k[i]
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.max(np.abs(hd * err_vec) / scale))

        jumped = False
        if phase_cap is not None:
            jumped = bool(np.max(np.abs(y_new[..., 0] - y[..., 0])) > phase_cap)

        if err <= 1.0 and not jumped:
            t = t1 if abs(t1 - (t + hd)) < hmin else t + hd
            y = y_new
            k[0] = k[6]  # FSAL
            if record:
                ts.append(t)
                ys.append(y.copy())
            factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** (-0.2))
            h = min(h * factor, max_step)
        else:
            if jumped:
                h *= 0.5
            else:
                h *= max(0.2, 0.9 * err ** (-0.2))
        steps += 1
        if steps > max_steps:
            raise IntegratorStall("step budget exhausted")

    if record:
        return y, np.array(ts), np.array(ys)
    return y, None, None


def bisect_batched(fun, lo, hi, n_iter=60, tol=0.0):
    """Vector bisection: fun maps an array of abscissae to an array of
    residuals, assumed to change sign on each [lo_i, hi_i]. All residual
    evaluations across the batch happen in single calls to fun.

    Returns the midpoint array after n_iter halvings or once every interval
    is narrower than tol."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = np.asarray(fun(lo), dtype=float)
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        fm = np.asarray(fun(mid), dtype=float)
        left = (flo * fm) <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
        if tol > 0.0 and float(np.max(hi - lo)) < tol:
            break
    return 0.5 * (lo + hi)


def fit_line(x, y):
    """Least squares slope and intercept of y against x (plain 1D arrays)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def _self_test():
    """Exponential decay batch, exact solution check."""
    rates = np.array([[1.0], [2.0], [0.5]])

    def f(t, y):
        return -rates * y

    y0 = np.ones((3, 1))
    y, _, _ = integrate(f, 0.0, 1.0, y0, rtol=1e-12, atol=1e-14)
    return float(np.max(np.abs(y - np.exp(-rates))))


if __name__ == "__main__":
    print(_self_test())
