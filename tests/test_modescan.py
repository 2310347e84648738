import dataclasses
import math
import time

import numpy as np
import pytest

import knads.angular as angular_mod
import knads.magnus as magnus
from knads.geometry import BlackHoleParams, InputError, Refusal, reparameterize
from knads.angular import eigenvalues_by_label, label_brackets
from knads.modescan import (
    _ITEM_TOL,
    ExtremalUnsupported,
    _solve_items,
    coupled_scan,
    periodicity_verdict,
)
from knads.operators import ModeContext

from conftest import GRID_81, P_BASE, SEED, draw_nonextremal, logged_defect, padded, tracking_items

P0 = BlackHoleParams(m=1.0, a=0.2, q_e=0.1, q_m=0.0, l=1.0)
CTX = ModeContext(mu=1.0, e=0.1, k=0.5)
GRID = np.linspace(-0.4, 0.4, 5)

ALLOWED_CODES = {
    "amp_collapse",
    "levinson_nonnormalizable",
    "levinson_inconclusive",
    "osc_nonnormalizable",
    "osc_slope_mismatch",
}


@pytest.fixture(scope="module")
def scan():
    return coupled_scan(P0, CTX, GRID, j_window=1)


def test_scan_shape_and_verdict(scan):
    assert scan.verdict == "NoBoundStateFound"
    assert scan.omega_grid == tuple(GRID)
    assert scan.labels == (-1, 1)
    assert len(scan.rows) == GRID.size * 2
    assert set(scan.lambda_curves) == {-1, 1}
    assert all(len(c) == GRID.size for c in scan.lambda_curves.values())
    assert scan.notes == ()
    assert scan.min_amplitude > scan.threshold


def test_scan_rows_content(scan):
    mul = CTX.mu * P0.l
    for row in scan.rows:
        assert row["verdict_code"] in ALLOWED_CODES
        assert row["verdict_code"] != "amp_collapse"
        assert row["amplitude_ratio"] > scan.threshold
        assert abs(row["decay_exponent"] - mul) < 0.05
        if not row["verdict_code"].startswith("levinson"):
            rel = abs(row["slope"] - (row["omega"] - row["phi_plus"]))
            assert rel / abs(row["omega"] - row["phi_plus"]) < 1e-3
    # row order follows the grid, labels cycling fastest
    oms = [row["omega"] for row in scan.rows]
    assert oms == sorted(oms)
    assert [row["j"] for row in scan.rows[:2]] == [-1, 1]


def test_scan_lipschitz_rate(scan):
    assert scan.lipschitz_bound == P0.a
    assert scan.max_rate <= P0.a + 1e-6
    for curve in scan.lambda_curves.values():
        rates = np.abs(np.diff(curve)) / np.diff(GRID)
        assert np.all(rates <= P0.a + 1e-6)


def test_scan_deterministic_rerun(scan):
    again = coupled_scan(P0, CTX, GRID, j_window=1)
    for j in scan.lambda_curves:
        assert scan.lambda_curves[j] == again.lambda_curves[j]
    assert scan.rows == again.rows


def test_zero_rotation_curves_constant():
    p = BlackHoleParams(m=1.0, a=0.0, q_e=0.1, q_m=0.0, l=1.0)
    res = coupled_scan(p, CTX, np.linspace(-0.3, 0.3, 4), j_window=1)
    assert res.lipschitz_bound == 0.0
    for curve in res.lambda_curves.values():
        assert np.ptp(curve) < 1e-9


def test_negative_rotation_tracks_within_the_abs_a_bound():
    # The tracking brackets were a * |domega| + margin wide, inverted for
    # a < 0: `knads scan` at a = -0.2 exited 3 with WindowTooWide.
    p = dataclasses.replace(P0, a=-P0.a)
    res = coupled_scan(p, CTX, GRID, j_window=1)
    assert res.lipschitz_bound == P0.a
    for j, curve in res.lambda_curves.items():
        ref = [eigenvalues_by_label(p, CTX.with_omega(om), [j])[j] for om in GRID]
        assert np.max(np.abs(np.array(curve) - ref)) < 1e-8


def test_wider_label_window_is_consistent(scan):
    wider = coupled_scan(P0, CTX, GRID, j_window=2)
    assert set(wider.lambda_curves) == {-2, -1, 1, 2}
    for j in (-1, 1):
        d = np.array(scan.lambda_curves[j]) - wider.lambda_curves[j]
        assert np.max(np.abs(d)) < 1e-9


def test_a_row_with_a_failed_item_is_solved_again_from_its_own_brackets(monkeypatch, scan):
    # An item residual above 1e-6 means its bracket missed the root: the row
    # is solved again by eigenvalues_by_label at its own frequency, and the
    # scan notes it. The first frequency is a row like the others, and its
    # re-solve repeats the scan's own items there bit for bit.
    def spoiled(*args):
        roots, res = solve(*args)
        if res.size == GRID.size * 2:  # the scan's batch, not a re-solve
            res = np.where(np.arange(res.size) == 0, 1.0, res)
        return roots, res

    solve = angular_mod.solve_items
    monkeypatch.setattr(angular_mod, "solve_items", spoiled)
    again = coupled_scan(P0, CTX, GRID, j_window=1)
    assert again.notes == (f"full re-solve at omega={GRID[0]:.6g}",)
    assert again.lambda_curves == scan.lambda_curves


def test_extremal_unsupported():
    m, z2 = reparameterize(0.6, 0.6, 0.3, 1.0)
    p = BlackHoleParams(m=m, a=0.3, q_e=math.sqrt(z2), q_m=0.0, l=1.0)
    with pytest.raises(ExtremalUnsupported):
        coupled_scan(p, CTX, GRID, j_window=1)


def test_self_adjointness_precondition():
    pm = BlackHoleParams(m=1.1, a=0.2, q_e=0.0, q_m=0.5, l=1.0)
    ctx = ModeContext(mu=1.0, e=1.0, k=0.5)  # fractional d, exceptional n=0
    with pytest.raises(ValueError, match="essentially self-adjoint"):
        coupled_scan(pm, ctx, GRID, j_window=1)


def test_grid_validation():
    # NaN compares false, so a NaN grid once passed the ordering check and
    # ended in a WindowTooWide refusal that named the Magnus mesh
    for grid in ([0.3, 0.1], [0.3], [0.0, math.nan, 0.2], [0.0, 0.1, math.inf], [-math.inf, 0.0]):
        with pytest.raises(InputError, match="omega_grid must be finite and strictly increasing"):
            coupled_scan(P0, CTX, grid, j_window=1)


@pytest.mark.parametrize("j_window", [0, -1, 2.5])
def test_j_window_must_be_a_positive_integer(j_window):
    with pytest.raises(InputError, match="j_window must be an integer >= 1"):
        coupled_scan(P0, CTX, GRID, j_window=j_window)


def test_periodicity_all_harmonics_rejected(scan):
    # base frequency 0.2: harmonics -0.4 ... 0.4 all sit on the grid
    rep = periodicity_verdict(scan, 2.0 * math.pi / 0.2)
    assert rep.verdict == "NoBoundStateFound"
    assert len(rep.checked) == 5
    assert all(c[3] == "rejected" for c in rep.checked)
    # n = 0 (the static candidate) is always among the checked harmonics
    assert any(c[0] == 0 for c in rep.checked)


def test_periodicity_single_harmonic(scan):
    rep = periodicity_verdict(scan, 1.0)  # base 2*pi, only n=0 in range
    assert rep.verdict == "NoBoundStateFound"
    assert [c[0] for c in rep.checked] == [0]


def test_periodicity_range_miss(scan):
    # shift the grid away from all multiples of 2*pi/T without rerunning
    fake = dataclasses.replace(scan, omega_grid=(0.5, 0.7, 0.9))
    rep = periodicity_verdict(fake, 2.0 * math.pi)  # base 1.0
    assert rep.verdict == "Inconclusive(RangeMiss)"
    assert rep.checked == ()


def test_periodicity_flags_injected_candidate(scan):
    rows = []
    for row in scan.rows:
        if row["omega"] == scan.omega_grid[3] and row["j"] == 1:
            row = dict(row, verdict_code="amp_collapse")
        rows.append(row)
    doctored = dataclasses.replace(scan, rows=tuple(rows))
    rep = periodicity_verdict(doctored, 2.0 * math.pi / 0.2)
    assert rep.verdict == "PeriodicCandidate"
    assert "amplitude collapse" in rep.detail


def test_periodicity_validation(scan):
    with pytest.raises(ValueError):
        periodicity_verdict(scan, 0.0)


@pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, -1.0, 5e-324])
def test_periodicity_refuses_a_period_not_finite_and_positive(scan, period):
    # nan and inf must not reach math.ceil, and a subnormal T gives 2 pi / T
    # = inf; each is an input error.
    with pytest.raises(InputError, match="finite and positive"):
        periodicity_verdict(scan, period)


def test_periodicity_refuses_too_many_harmonics(scan):
    # T = 1e9 puts 6.4e8 harmonics in [-2, 2]; the refusal names the count
    # and comes before any loop over them.
    wide = dataclasses.replace(scan, omega_grid=(-2.0, 2.0))
    count = 2 * math.floor(2.0 / (2.0 * math.pi / 1e9)) + 1
    start = time.perf_counter()
    with pytest.raises(Refusal, match=f"puts {count} frequencies"):
        periodicity_verdict(wide, 1e9)
    assert time.perf_counter() - start < 1.0


def test_tracking_items_do_not_depend_on_their_batch():
    # coupled_scan's tracking items on criterion 8's grid, as it builds them
    ctx0, items = tracking_items(first=0, every=1)

    roots, res = _solve_items(P_BASE, ctx0, *items)
    assert np.max(res) < 1e-8
    cut = roots.size // 2
    first = _solve_items(P_BASE, ctx0, *(v[:cut] for v in items))
    second = _solve_items(P_BASE, ctx0, *(v[cut:] for v in items))
    assert np.array_equal(np.concatenate([first[0], second[0]]), roots)
    assert np.array_equal(np.concatenate([first[1], second[1]]), res)
    # one at a time, for every eighth item
    for i in range(0, roots.size, 8):
        one = _solve_items(P_BASE, ctx0, *(v[i:i + 1] for v in items))
        assert one[0][0] == roots[i] and one[1][0] == res[i], i


def test_coarse_curves_equal_the_fine_curves_exactly():
    # criterion 8 asserts 1e-9; with batch-independent items the embedding is exact
    coarse = coupled_scan(P_BASE, CTX, GRID_81, j_window=3)
    fine = coupled_scan(P_BASE, CTX, -2.0 + 0.025 * np.arange(161), j_window=3)
    for j in coarse.lambda_curves:
        assert np.array_equal(coarse.lambda_curves[j], fine.lambda_curves[j][::2]), j


def test_scan_first_row_equals_eigenvalues_by_label_exactly():
    # The first frequency is an ordinary item, solved from the same bracket
    # as eigenvalues_by_label's, and items do not depend on their batch.
    scan = coupled_scan(P_BASE, CTX, GRID_81, j_window=3)
    seed = eigenvalues_by_label(P_BASE, CTX.with_omega(float(GRID_81[0])), scan.labels)
    for j, curve in scan.lambda_curves.items():
        assert curve[0] == seed[j], j


def test_criterion_8_scan_needs_at_most_12_defect_calls(monkeypatch):
    # Root-finder steps set the scan's cost: the Illinois finder took 21
    # angular defect calls (4,617 rows), Chandrupatla's 19 (4,240) with a
    # seed window solve; one grid pass and one batch of items take 11.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return defect(*args, **kwargs)

    defect = angular_mod._defect
    monkeypatch.setattr(angular_mod, "_defect", counted)
    coupled_scan(P_BASE, CTX, GRID_81, j_window=3)
    assert len(calls) <= 12


def test_criterion_8_scan_work_is_bounded(monkeypatch):
    # rows x mesh intervals over every sweep of angular._defect: each item's
    # root is predicted from an eighth and from half of the mesh of its own
    # frequency and enclosed on the full mesh (498,560; 594,784 with a full
    # mesh Newton step and the mesh of |omega| + |domega|, 579,744 with a
    # seed window solve and brackets centred on its roots); solving every
    # item on its full mesh took 1,046,016.
    work = []

    def counted(tabs, lams, *args):
        work.append(lams.size * tabs.shape[1])
        return sweep(tabs, lams, *args)

    sweep = magnus.sweep
    monkeypatch.setattr(magnus, "sweep", counted)
    coupled_scan(P_BASE, CTX, GRID_81, j_window=3)
    assert sum(work) <= 520_000


def _missed(p, ctx0, calls, items):
    """(lambda, mesh) rows of the logged calls that took an item's defect on
    its full mesh at an end of its own bracket: there its enclosure missed."""
    _, lo, hi, dom = items
    lo, hi = padded(p, lo, hi, dom)
    n0 = angular_mod.mesh_intervals(p, ctx0, np.maximum(np.abs(lo), np.abs(hi)), dom)
    ends = set(zip(lo.tolist(), n0.tolist())) | set(zip(hi.tolist(), n0.tolist()))
    return {x for lams, n in calls for x in zip(lams.tolist(), n.tolist()) if x in ends}


def test_criterion_8_batch_hits_every_enclosure(monkeypatch):
    # Richardson extrapolation of the n/8 and n/2 roots lands within 3e-13 of
    # the full-mesh root here, well inside the tol / 8 half-width: no item
    # falls back to its own bracket.
    ctx0, items = tracking_items(first=0)
    calls = logged_defect(monkeypatch)
    _solve_items(P_BASE, ctx0, *items)
    assert not _missed(P_BASE, ctx0, calls, items)


def test_criterion_8_batch_meshes_each_item_at_its_own_frequency(monkeypatch):
    # The frequency part of the mesh bound is |a| |omega + domega|, so an item
    # gets the mesh of a window solve at its own frequency, and the 30 items
    # of labels +-3 at omega >= 1.3 no longer sit on 512 intervals.
    ctx0, items = tracking_items(first=0)
    calls = logged_defect(monkeypatch)
    _solve_items(P_BASE, ctx0, *items)
    _, lo, hi, dom = items
    bound = np.maximum(*np.abs(padded(P_BASE, lo, hi, dom)))
    omegas = np.repeat(GRID_81, dom.size // GRID_81.size)
    own = np.array([angular_mod.mesh_intervals(P_BASE, ctx0.with_omega(float(w)), b, 0.0)
                    for b, w in zip(bound, omegas)])
    # the bracket ends' coarse call and the enclosures' call take 2 rows per item
    coarse, enclosure = (n[: dom.size] for lams, n in calls if lams.size == 2 * dom.size)
    assert np.array_equal(enclosure, own) and np.array_equal(coarse, own // 8)
    assert np.max(own) == 256


def test_family_batches_hit_their_enclosures(monkeypatch):
    # Eight seeded backgrounds, k in {+-0.5, 1.5, 4.5}, labels +-1..3 on a
    # grid from omega = -2 across 0 to 2: every prediction hits its
    # enclosure, and every root is within _ITEM_TOL of the item solved from
    # its own bracket (the fallback, forced by a coarse tolerance of 1).
    rng = np.random.default_rng(SEED)
    grid = np.linspace(-2.0, 2.0, 9)
    for k in (0.5, -0.5, 1.5, 4.5) * 2:
        p = draw_nonextremal(rng)
        ctx0 = ModeContext(mu=1.0, e=0.1, k=k, omega=float(grid[0]))
        targets, lo, hi = label_brackets(p, ctx0, (-3, -2, -1, 1, 2, 3))
        dom = np.repeat(grid - grid[0], targets.size)
        items = tuple(np.tile(v, grid.size) for v in (targets, lo, hi)) + (dom,)
        with monkeypatch.context() as m:
            calls = logged_defect(m)
            roots, _ = _solve_items(p, ctx0, *items)
        assert not _missed(p, ctx0, calls, items), (p, k)
        with monkeypatch.context() as m:
            m.setattr(magnus, "_COARSE_TOL", 1.0)
            want, _ = _solve_items(p, ctx0, *items)
        assert np.max(np.abs(roots - want)) <= _ITEM_TOL, (p, k)
