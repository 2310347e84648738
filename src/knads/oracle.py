"""Independent finite-difference oracle for the angular and confined radial
eigenvalue problems.

Both discretizations are staggered first-order-system schemes: the two
spinor components live on interleaved grids so the centered difference of
one component lands exactly on the nodes of the other. That kills the
fermion-doubling artifact a single-grid central difference would produce,
and after weighting by the discrete measure the matrix is exactly symmetric
tridiagonal, solved with the dedicated LAPACK tridiagonal eigensolver.

Grids are uniform in an auxiliary variable s with a smooth sin^2 map toward
the endpoints: spacing shrinks quadratically near the singular ends (enough
resolution for the 1/theta-type coefficients) without inflating the matrix
norm the way stronger grading would, which matters because the absolute
eigenvalue error of the tridiagonal solver scales with the matrix norm.

The off-diagonal coupling uses pair-midpoint values shared by the two rows a
pair touches; together with the boundary components vanishing at the
truncation offsets this keeps the scheme second-order accurate including the
edge rows.
"""

from dataclasses import dataclass
import json
import math
import os
from pathlib import Path

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .geometry import Refusal, delta_theta
from .operators import _angular_entries, _radial_terms, tortoise_map


_EPSILON = 1e-8  # angular grid: truncation offset from each pole


class GridTooCoarse(Refusal):
    """Fewer grid cells than the scheme needs for trustworthy cross-checks."""


@dataclass(frozen=True)
class DiscretizedOperator:
    """Weighted-symmetric tridiagonal discretization of a 2x2 first-order
    system. diag/offdiag define the symmetric matrix; weights holds the
    discrete measure per interleaved degree of freedom (component 1 on even
    indices)."""

    diag: np.ndarray
    offdiag: np.ndarray
    weights: np.ndarray
    interval: tuple
    n_cells: int
    offsets: tuple
    scheme: str

    def eigenvalues_in_window(self, lo, hi):
        """All eigenvalues in (lo, hi], ascending."""
        return eigh_tridiagonal(
            self.diag, self.offdiag, eigvals_only=True, select="v", select_range=(lo, hi)
        )

    def eigenpairs_in_window(self, lo, hi):
        return eigh_tridiagonal(
            self.diag, self.offdiag, select="v", select_range=(lo, hi)
        )

    def component_balance(self, vecs):
        """Weighted norm ratio of the two interleaved components per column;
        spurious doubler modes would push this far from 1."""
        v2 = vecs * vecs
        n1 = np.sqrt(v2[0::2].sum(axis=0))
        n2 = np.sqrt(v2[1::2].sum(axis=0))
        return n1 / n2

    def matrix_norm(self):
        return float(
            np.max(np.abs(self.diag))
            + 2.0 * np.max(np.abs(self.offdiag), initial=0.0)
        )


def _cluster_map(lo, hi):
    """Smooth endpoint-clustering map [0,1] -> [lo,hi] with quadratically
    shrinking spacing at both ends; returns (x(s), x'(s)) callables."""
    span = hi - lo

    def x(s):
        return lo + span * np.sin(0.5 * math.pi * s) ** 2

    def dx(s):
        return span * (0.5 * math.pi) * np.sin(math.pi * s)

    return x, dx


def discretize_angular(p, ctx, N):
    """Staggered discretization of the angular operator on
    [_EPSILON, pi - _EPSILON].

    Component 1 lives at s = (i + 1/4)h, component 2 at s = (i + 3/4)h
    (i = 0..N-1, h = 1/N); zeroing the out-of-range neighbors imposes the
    decay conditions. The reflection s -> 1-s maps one component grid onto
    the other, which preserves the exact lambda -> -lambda symmetry of the
    continuum problem when mu*a = 0, omega = 0 and d = 0."""
    if N < 200:
        raise GridTooCoarse("angular oracle needs N >= 200")
    h = 1.0 / N
    theta_of, dtheta_of = _cluster_map(_EPSILON, math.pi - _EPSILON)
    s_a = (np.arange(N) + 0.25) * h
    s_b = (np.arange(N) + 0.75) * h

    def g_of(s):
        return dtheta_of(s) / np.sqrt(delta_theta(p, theta_of(s)))

    g_a, g_b = g_of(s_a), g_of(s_b)
    m11_a, _ = _angular_entries(p, ctx, theta_of(s_a))
    m11_b, _ = _angular_entries(p, ctx, theta_of(s_b))

    def coupling(s):
        _, m12 = _angular_entries(p, ctx, theta_of(s))
        return 0.5 * h * g_of(s) * m12

    c_plus = coupling((np.arange(N) + 0.5) * h)  # pair (u1_i, u2_i)
    c_minus = coupling(np.arange(1, N) * h)  # pair (u2_{i-1}, u1_i)

    diag = np.empty(2 * N)
    diag[0::2] = m11_a
    diag[1::2] = -m11_b
    off = np.empty(2 * N - 1)
    off[0::2] = (1.0 + c_plus) / (h * np.sqrt(g_a * g_b))
    off[1::2] = (-1.0 + c_minus) / (h * np.sqrt(g_b[:-1] * g_a[1:]))

    weights = np.empty(2 * N)
    weights[0::2] = h * g_a
    weights[1::2] = h * g_b
    return DiscretizedOperator(
        diag=diag,
        offdiag=off,
        weights=weights,
        interval=(_EPSILON, math.pi - _EPSILON),
        n_cells=N,
        offsets=(_EPSILON, _EPSILON),
        scheme="staggered-quarter-offset",
    )


def discretize_radial_confined(p, ctx, lam, r0, N, delta=1e-3):
    """Staggered discretization of the confined radial operator in the
    infinity-compactified coordinate on [x(r0), -delta].

    The system is rotated by 45 degrees first: the recessive direction at
    infinity becomes the first component axis and the default inner boundary
    condition (equal unrotated components) becomes a plain Dirichlet
    condition on the second component, which then lives on integer nodes
    with both end values dropped; the first component lives on half-offset
    nodes. Vector length is 2N - 1."""
    if N < 200:
        raise GridTooCoarse("radial oracle needs N >= 200")
    if ctx.mu * p.l < 0.5:
        raise Refusal("confined oracle requires mu*l >= 1/2")
    tm = tortoise_map(p)
    x0 = tm.x(r0)
    if not x0 < -delta:
        raise Refusal("r0 maps inside the infinity cutoff")
    h = 1.0 / N
    x_of, dx_of = _cluster_map(x0, -delta)

    def entries(s):
        """(V11, V22, V12) of the rotated potential: diag +- off on the diagonal, -conf off it."""
        diag, conf, off = _radial_terms(p, ctx, lam, tm.u_of_y(-x_of(s)))
        return diag + off, diag - off, -conf

    s_half = (np.arange(N) + 0.5) * h
    s_int = np.arange(1, N) * h
    g_half, g_int = dx_of(s_half), dx_of(s_int)
    v11_h, _, _ = entries(s_half)
    _, v22_i, _ = entries(s_int)

    def coupling(s):
        _, _, v12 = entries(s)
        return 0.5 * h * dx_of(s) * v12

    # Pair midpoints: (w1_{i+1/2}, w2_{i+1}) at (i+3/4)h for i = 0..N-2 and
    # (w2_i, w1_{i+1/2}) at (i+1/4)h for i = 1..N-1.
    c_up = coupling((np.arange(N - 1) + 0.75) * h)
    c_dn = coupling((np.arange(1, N) + 0.25) * h)

    diag = np.empty(2 * N - 1)
    diag[0::2] = v11_h
    diag[1::2] = v22_i
    off = np.empty(2 * N - 2)
    off[0::2] = (1.0 + c_up) / (h * np.sqrt(g_half[:-1] * g_int))
    off[1::2] = (-1.0 + c_dn) / (h * np.sqrt(g_int * g_half[1:]))

    weights = np.empty(2 * N - 1)
    weights[0::2] = h * g_half
    weights[1::2] = h * g_int
    return DiscretizedOperator(
        diag=diag,
        offdiag=off,
        weights=weights,
        interval=(x0, -delta),
        n_cells=N,
        offsets=(0.0, delta),
        scheme="staggered-half-integer",
    )


_DEFAULT_FIXTURES = Path(__file__).parent / "data" / "fixtures.json"


def fixtures_path():
    """Fixture file location; the KNADS_FIXTURES environment variable takes
    precedence over the packaged default."""
    env = os.environ.get("KNADS_FIXTURES")
    return Path(env) if env else _DEFAULT_FIXTURES


def load_fixtures(path=None):
    with open(path or fixtures_path()) as fh:
        return json.load(fh)
