import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import knads
import knads.magnus as magnus
from knads.angular import DEFAULT_EPSILON, DEFAULT_MATCHING_POINT, _defect, angular_eigenvalues, mesh_intervals
from knads.geometry import BlackHoleParams, InputError
from knads.magnus import (MAX_MESH_INTERVALS, MIN_MESH_INTERVALS, WindowTooWide, chandrupatla_batched,
                          solve_items, solve_window, window_brackets)
from knads.modescan import _ITEM_TOL, _solve_items
from knads.operators import ModeContext, tortoise_map
from knads.radial import DEFAULT_DELTA, _defect_hinf, _leg_intervals, default_r0, hinf_eigenvalues

from conftest import CTX_BASE, P_BASE, logged_defect, padded, tracking_items

SPHERE = BlackHoleParams(m=1.0, a=0.0, q_e=0.0, q_m=0.0, l=1.0)


def test_chandrupatla_batched_cubics_stop_per_item():
    # the bisect_batched cubics: f(x) = (x - s)^3 + (x - s), root at s
    shifts = np.array([-1.7, 0.0, 0.3, 2.9])

    def fun(x, idx):
        d = x - shifts[idx]
        return d**3 + d

    lo, hi = shifts - 2.0, shifts + 3.0
    roots, res, slope = chandrupatla_batched(fun, lo, hi, fun(lo, np.arange(4)), fun(hi, np.arange(4)), 1e-12)
    assert np.max(np.abs(roots - shifts)) < 1e-12
    assert np.array_equal(res, fun(roots, np.arange(4)))
    # the final bracket's secant slope is f'(root) = 1
    assert np.max(np.abs(slope - 1.0)) < 1e-6
    # each item is frozen on its own bracket: alone it gives the same bits
    for i in range(4):
        k = np.array([i])
        one = chandrupatla_batched(lambda x, idx: fun(x, k[idx]), lo[k], hi[k],
                                   fun(lo[k], k), fun(hi[k], k), 1e-12)
        assert one[0][0] == roots[i] and one[1][0] == res[i] and one[2][0] == slope[i]


def test_root_finder_steps_are_bounded_where_regula_falsi_stalls():
    # exp(40 x) - 1 on [-1, 1]: regula falsi keeps the end at x = 1 and
    # creeps in from the left. The stale-bracket bisection bounds the steps
    # by _STALE_STEPS + 1 per halving of the bracket; here they stay within
    # the count of plain bisection.
    tol, calls = 1e-12, []

    def fun(x, idx):
        calls.append(x.size)
        return np.expm1(40.0 * x)

    lo, hi = np.array([-1.0]), np.array([1.0])
    root, res, _ = chandrupatla_batched(fun, lo, hi, fun(lo, 0), fun(hi, 0), tol)
    steps = len(calls) - 2
    assert abs(root[0]) < tol and res[0] == np.expm1(40.0 * root[0])
    assert steps <= (magnus._STALE_STEPS + 1) * math.ceil(math.log2(2.0 / tol))
    assert steps <= math.ceil(math.log2(2.0 / tol))


def test_no_module_imports_a_private_name_of_magnus_or_angular():
    # The Magnus machinery and the angular operator are used through their
    # public names only; modescan's attribute call angular._defect stays,
    # since the benchmark's tracer wraps it by name.
    found = []
    for path in sorted(Path(knads.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in ("magnus", "angular"):
                found += [(path.name, alias.name) for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_a_defect_that_does_not_rise_on_the_grid_is_refined():
    # The defect rises strictly in lambda. Where the grid says otherwise, or
    # is not finite, the mesh does not resolve it: the window is solved again
    # on a doubled mesh, up to the cap. Here a magnetic coupling d = 5e9 turns
    # the pole intervals' Omega faster than any mesh below the cap resolves.
    for bad in (lambda x, n: -x, lambda x, n: np.full(x.shape, np.nan)):
        meshes = []
        with pytest.raises(WindowTooWide, match=f"at the test defect stays above tol at {MAX_MESH_INTERVALS}"):
            solve_window(lambda x, n: meshes.append(n) or bad(x, n), -1.0, 1.0, 1e-10, MIN_MESH_INTERVALS,
                         "the test defect")
        assert meshes == [2**k for k in range(8, 17)]
    p = dataclasses.replace(SPHERE, q_m=0.5)
    with pytest.raises(WindowTooWide, match=f"at {MAX_MESH_INTERVALS} intervals"):
        angular_eigenvalues(p, ModeContext(mu=0.0, e=1e10, k=-5.5), (-4.5, 4.5))


def test_items_whose_enclosure_misses_fall_back_to_their_bracket(monkeypatch):
    # With a coarse tolerance wider than every bracket the prediction starts
    # from a bracket end, so its Newton steps on n/8 and n/2 intervals land
    # far from the root, the extrapolated root misses its tol / 4 enclosure,
    # and every item is solved from its own bracket on its full mesh.
    ctx0, items = tracking_items(every=8)
    want, _ = _solve_items(P_BASE, ctx0, *items)
    calls = logged_defect(monkeypatch)
    monkeypatch.setattr(magnus, "_COARSE_TOL", 1.0)
    roots, res = _solve_items(P_BASE, ctx0, *items)
    assert np.max(np.abs(roots - want)) <= _ITEM_TOL
    assert np.max(res) < 1e-8
    # the brackets' ends went to the coarse mesh, then all of them to the full one
    _, lo, hi, dom = items
    lo, hi = padded(P_BASE, lo, hi, dom)
    meshes = [n for lams, n in calls if np.array_equal(lams, np.concatenate([lo, hi]))]
    n0 = mesh_intervals(P_BASE, ctx0, np.maximum(np.abs(lo), np.abs(hi)), dom)
    assert len(meshes) == 2 and np.array_equal(meshes[1], np.tile(n0, 2))
    # and each item passed its n/2 check there: no mesh was doubled
    assert max(np.max(n) for _, n in calls) <= np.max(n0)


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_a_zero_or_nan_coarse_slope_costs_one_doubling(monkeypatch, bad):
    # The Newton steps of the prediction divide by the coarse slope under
    # np.errstate, since pytest turns a RuntimeWarning into an error. With a
    # zero or nan slope the prediction is nan, lands on its bracket's lower
    # end, every enclosure misses and every n/2 check fails, so each item is
    # solved again on its doubled mesh, with a true slope.
    ctx0, items = tracking_items(every=40)
    want, _ = _solve_items(P_BASE, ctx0, *items)
    coarse = []

    def spoil(fun, lo, hi, flo, fhi, tol):
        x, fx, slope = finder(fun, lo, hi, flo, fhi, tol)
        if tol == magnus._COARSE_TOL:
            coarse.append(x.size)
            slope = np.full_like(slope, bad) if len(coarse) == 1 else slope
        return x, fx, slope

    finder = magnus.chandrupatla_batched
    monkeypatch.setattr(magnus, "chandrupatla_batched", spoil)
    roots, _ = _solve_items(P_BASE, ctx0, *items)
    assert coarse == [12, 12] and np.max(np.abs(roots - want)) <= _ITEM_TOL


def _confined_legs(p, delta=DEFAULT_DELTA):
    """The two legs of hinf_eigenvalues with the default r0: from r0 and
    from y = delta to y(r0) / 2."""
    tm, r0 = tortoise_map(p), default_r0(p)
    sc = float(tm.log_u_of_y(0.5 * tm.y(r0)))
    return ("exp", math.log(r0 - tm.r_plus), sc), ("exp", float(tm.log_u_of_y(delta)), sc)


def test_window_eigenvalues_do_not_depend_on_their_batch():
    # A window is window_brackets plus one batch of items on the mesh the
    # grid pass reached, from its defect at the bracket ends. Each
    # eigenvalue and residual, angular and radial, equals its item solved
    # alone from the same bracket, ends and mesh bit for bit, and mesh_error
    # is the largest per-item estimate.
    p, ctx, lam = P_BASE, CTX_BASE.with_omega(0.5), 1.0
    legs = _confined_legs(p)
    cases = [
        (lambda x, n: _defect(p, ctx, x, DEFAULT_MATCHING_POINT, DEFAULT_EPSILON, None, None, 0.0, n),
         (-4.5, 4.5), mesh_intervals(p, ctx, 4.5), angular_eigenvalues(p, ctx, (-4.5, 4.5))),
        (lambda x, n: _defect_hinf(p, ctx, lam, x, legs, DEFAULT_DELTA, None, n),
         (-25.0, 25.0), max(int(_leg_intervals(p, ctx, leg, [25.0], [lam])[0]) for leg in legs),
         hinf_eigenvalues(p, ctx, lam, window=(-25.0, 25.0))),
    ]
    for defect, window, n, sw in cases:
        n, targets, labels, a, b, fa, fb = window_brackets(defect, *window, n, "the test")
        assert sw.labels == tuple(labels.tolist()) and sw.count >= 3
        errors = []
        for i in range(sw.count):
            k = slice(i, i + 1)
            root, res, err = solve_items(lambda x, _, nn: defect(x, nn), targets[k], a[k], b[k], n, 1e-10, str,
                                         (fa[k], fb[k]))
            assert (root[0], res[0]) == (sw.eigenvalues[i], sw.residuals[i]), (window, i)
            errors.append(err[0])
        assert max(errors) == sw.mesh_error <= 1e-10


@pytest.mark.parametrize("window", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0), (1.0, 1.0), (2.0, -2.0)])
def test_a_window_without_finite_ordered_ends_is_an_input_error(window):
    # The window is checked before the mesh is sized, so a nan or infinite
    # end is named as such, not as a Magnus mesh of n = nan intervals.
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5)
    for solve in (lambda: angular_eigenvalues(P_BASE, ctx, window),
                  lambda: hinf_eigenvalues(P_BASE, ctx, 1.0, window=window)):
        with pytest.raises(InputError, match=r"window must have finite ends lam_lo < lam_hi, got \["):
            solve()


def test_a_window_item_whose_check_fails_refines_its_own_mesh_alone():
    # The mesh error of this defect is 5e-10 (256 / n)^6 right of x = 1, so
    # the n/2 check of the root at pi fails on 256 and 512 intervals and
    # passes on 1,024; the roots at -pi and 0 keep the grid pass's 256.
    calls = []

    def defect(x, n):
        calls.append((x.copy(), np.broadcast_to(n, x.shape).copy()))
        return x + np.where(x > 1.0, 5e-10 * (MIN_MESH_INTERVALS / np.asarray(n)) ** 6, 0.0)

    sw = solve_window(defect, -3.9, 4.1, 1e-10, MIN_MESH_INTERVALS, "the test defect")
    assert sw.labels == (-2, -1, 1) and sw.mesh_error <= 1e-10
    assert np.max(np.abs(np.array(sw.eigenvalues) - [-math.pi, 0.0, math.pi])) <= 1e-10
    xs, ns = (np.concatenate(v) for v in zip(*calls))
    assert np.max(ns[xs <= 1.0]) == MIN_MESH_INTERVALS and np.max(ns) == 4 * MIN_MESH_INTERVALS
    # and the refined root is the item's own: solved alone, it has the same bits
    n, targets, _, a, b, fa, fb = window_brackets(defect, -3.9, 4.1, MIN_MESH_INTERVALS, "the test defect")
    root, _, _ = solve_items(lambda x, _, nn: defect(x, nn), targets[2:], a[2:], b[2:], n, 1e-10, str,
                             (fa[2:], fb[2:]))
    assert root[0] == sw.eigenvalues[2]
