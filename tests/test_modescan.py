import dataclasses
import math

import numpy as np
import pytest

from knads.geometry import BlackHoleParams, reparameterize
from knads.angular import eigenvalues_by_label
from knads.modescan import (
    _TRACK_MARGIN,
    ExtremalUnsupported,
    _defect_targets,
    _solve_items,
    coupled_scan,
    periodicity_verdict,
)
from knads.operators import ModeContext

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


def test_wider_label_window_is_consistent(scan):
    wider = coupled_scan(P0, CTX, GRID, j_window=2)
    assert set(wider.lambda_curves) == {-2, -1, 1, 2}
    for j in (-1, 1):
        d = np.array(scan.lambda_curves[j]) - wider.lambda_curves[j]
        assert np.max(np.abs(d)) < 1e-9


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
    with pytest.raises(ValueError):
        coupled_scan(P0, CTX, [0.3, 0.1], j_window=1)
    with pytest.raises(ValueError):
        coupled_scan(P0, CTX, [0.3], j_window=1)


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


# Criterion 8's background and default grid.
P_BASE = BlackHoleParams(m=1.0, a=0.2, q_e=0.1, q_m=0.0, l=1.0)
GRID_81 = -2.0 + 0.05 * np.arange(81)


def test_tracking_items_do_not_depend_on_their_batch():
    # coupled_scan's tracking items on criterion 8's grid, as it builds them
    labels = (-3, -2, -1, 1, 2, 3)
    ctx0 = CTX.with_omega(float(GRID_81[0]))
    seed = eigenvalues_by_label(P_BASE, ctx0, labels)
    lam0 = np.array([seed[j] for j in labels])
    targets = _defect_targets(P_BASE, ctx0, lam0)
    dom = np.repeat(GRID_81[1:] - GRID_81[0], len(labels))
    half = P_BASE.a * np.abs(dom) + _TRACK_MARGIN
    items = (np.tile(targets, 80), np.tile(lam0, 80), half, dom)

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
