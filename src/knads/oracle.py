"""Independent finite-difference oracle for the angular and confined radial
eigenvalue problems.

Both discretizations come from one staggered first-order-system assembly
(_staggered): the two spinor components live on interleaved grids so the
centered difference of one component lands exactly on the nodes of the
other. That kills the fermion-doubling artifact a single-grid central
difference would produce, and after weighting by the discrete measure the
matrix is exactly symmetric tridiagonal, solved with the dedicated LAPACK
tridiagonal eigensolver. Each discretization supplies only its interval,
grid offset, size and the entries of its system.

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
    system: diag/offdiag define the symmetric matrix (component 1 on even
    indices), already weighted by the discrete measure."""

    diag: np.ndarray
    offdiag: np.ndarray

    def eigenvalues_in_window(self, lo, hi):
        """All eigenvalues in (lo, hi], ascending."""
        return eigh_tridiagonal(
            self.diag, self.offdiag, eigvals_only=True, select="v", select_range=(lo, hi)
        )


def _staggered(lo, hi, N, first, dof, entries):
    """Staggered assembly of dof interleaved unknowns on [lo, hi], h = 1/N.

    Unknown k sits at s = (first + k/2) h, component 1 on even k, and the
    pair (k, k+1) is coupled at its midpoint; the out-of-range neighbors are
    zero. The map x(s) = lo + (hi - lo) sin^2(pi s / 2) clusters both ends.
    entries(x, dx/ds) returns (g, v11, v22, v12), the measure density and the
    symmetric potential entries, called once on the nodes and once on the
    midpoints."""
    h = 1.0 / N
    span = hi - lo

    def at(s):
        return entries(lo + span * np.sin(0.5 * math.pi * s) ** 2,
                       span * (0.5 * math.pi) * np.sin(math.pi * s))

    k = np.arange(dof)
    g, v11, v22, _ = at((first + 0.5 * k) * h)
    g_mid, _, _, v12 = at((first + 0.25 + 0.5 * k[:-1]) * h)
    even = k % 2 == 0
    off = (np.where(even[:-1], 1.0, -1.0) + 0.5 * h * g_mid * v12) / (h * np.sqrt(g[:-1] * g[1:]))
    return DiscretizedOperator(diag=np.where(even, v11, v22), offdiag=off)


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

    def entries(theta, dtheta):
        m11, m12 = _angular_entries(p, ctx, theta)
        return dtheta / np.sqrt(delta_theta(p, theta)), m11, -m11, m12

    return _staggered(_EPSILON, math.pi - _EPSILON, N, 0.25, 2 * N, entries)


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

    def entries(x, dx):
        """Rotated potential: diag +- off on the diagonal, -conf off it."""
        diag, conf, off = _radial_terms(p, ctx, lam, tm.u_of_y(-x))
        return dx, diag + off, diag - off, -conf

    return _staggered(x0, -delta, N, 0.5, 2 * N - 1, entries)


_DEFAULT_FIXTURES = Path(__file__).parent / "data" / "fixtures.json"


def load_fixtures(path=None):
    with open(path or _DEFAULT_FIXTURES) as fh:
        return json.load(fh)
