"""Coupled (omega, lambda) mode scan.

A normalizable time-periodic solution would need some frequency omega for
which an angular eigenvalue lambda_j(omega) feeds a radial problem with a
square-integrable solution. The scan walks a frequency grid, follows the
angular eigenvalue curves lambda_j(omega), and for every pair records
horizon-side non-normalizability evidence: the recessive-at-infinity
solution keeps an order-one amplitude toward the horizon instead of
collapsing, and its phase advances at the predicted rate omega - phi_plus.

Curve tracking works on integer winding targets: the matching defect is
strictly increasing in lambda and moves by at most a * |omega - omega_0|
(the Lipschitz bound from the frequency term), so each eigenvalue at each
frequency is the unique defect root inside a bracket centered on the
first-frequency value. That makes every (omega, j) item independent of the
rest of the grid: no sequential hand-off, no branch-swap risk.

The scan is evidence, not proof: the amplitude threshold is conservative
policy and every raw number is emitted for audit.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import angular
from .angular import DEFAULT_EPSILON, DEFAULT_MATCHING_POINT, eigenvalues_by_label
from .classify import sa_report
from .geometry import InputError, Refusal, find_horizons
from .operators import phi_plus
from .radial import horizon_continuation_evidence, levinson_phi_plus
# Unused; perfbench's test_wrappers_restore_original_bindings needs it bound.
from .rk import bisect_batched  # noqa: F401

DEFAULT_THRESHOLD = 1e-3
_TRACK_MARGIN = 0.02
_ITEM_TOL = 1e-10


class ExtremalUnsupported(Refusal):
    """The empty-point-spectrum scan is a non-extremal statement; the
    extremal horizon changes the asymptotics and is out of scope."""


@dataclass(frozen=True)
class ScanResult:
    """Evidence table of a completed scan.

    rows holds one dict per (omega, j) with keys omega, j, lambda, phi_plus,
    slope, amplitude_ratio, decay_exponent, verdict_code. The verdict is
    NoBoundStateFound exactly when the minimum amplitude ratio over the grid
    exceeds the threshold."""

    omega_grid: tuple
    labels: tuple
    lambda_curves: dict
    rows: tuple
    threshold: float
    min_amplitude: float
    max_rate: float
    lipschitz_bound: float
    verdict: str
    notes: tuple = ()


@dataclass(frozen=True)
class PeriodicityReport:
    period: float
    checked: tuple
    verdict: str
    detail: str


def _defect_targets(p, ctx, lams):
    """Integer winding targets m for eigenvalues lams (defect = m*pi there)."""
    d = angular._defect(
        p, ctx, np.asarray(lams, float), DEFAULT_MATCHING_POINT, DEFAULT_EPSILON, None, None
    )
    return np.round(d / math.pi).astype(int)


def _solve_items(p, ctx0, targets, lam_seed, half_width, domega):
    """Solve the defect for the integer targets inside per-item brackets
    lam_seed +- half_width (angular.solve_items).

    All arrays are flat over (omega, j) items; ctx0 carries the seed
    frequency and domega the per-item offsets. Each item has its own mesh
    and stops on its own bracket width, so its root and residual do not
    depend on which other items share the batch. Returns (roots,
    |residuals|)."""
    return angular.solve_items(
        p, ctx0, targets, lam_seed - half_width, lam_seed + half_width, domega, _ITEM_TOL
    )


def coupled_scan(p, ctx_base, omega_grid, j_window=3, r0=None, threshold=DEFAULT_THRESHOLD):
    """Scan the frequency grid and certify the absence of normalizable modes.

    For each omega the angular eigenvalues lambda_j(omega) for |j| <=
    j_window are located by their integer winding targets inside Lipschitz
    brackets around the first-frequency values. Each (omega, j) pair then
    gets radial evidence from the recessive continuation; near omega =
    phi_plus the oscillation slope is meaningless and the Levinson
    certificate is consulted instead. Rerunning with the same inputs
    reproduces the output bit for bit."""
    hd = find_horizons(p)
    if hd.extremal:
        raise ExtremalUnsupported("scan requires a non-extremal horizon")
    rep = sa_report(p, ctx_base)
    if not rep.essentially_self_adjoint:
        raise Refusal(
            "scan precondition failed: operator not essentially self-adjoint "
            f"(codes {rep.rationale_codes})"
        )
    omegas = np.asarray(list(omega_grid), dtype=float)
    if omegas.size < 2 or np.any(np.diff(omegas) <= 0):
        raise InputError("omega_grid must be strictly increasing with >= 2 points")
    if isinstance(j_window, int):
        labels = tuple(range(-j_window, 0)) + tuple(range(1, j_window + 1))
    else:
        labels = tuple(int(j) for j in j_window)
    nj = len(labels)
    lip = abs(p.a)

    ctx0 = ctx_base.with_omega(float(omegas[0]))
    seed = eigenvalues_by_label(p, ctx0, labels)
    lam0 = np.array([seed[j] for j in labels])
    targets = _defect_targets(p, ctx0, lam0)

    curves = np.empty((omegas.size, nj))
    curves[0] = lam0
    notes = []
    n_rest = omegas.size - 1
    dom = np.repeat(omegas[1:] - omegas[0], nj)
    half = lip * np.abs(dom) + _TRACK_MARGIN
    roots, res = _solve_items(
        p, ctx0, np.tile(targets, n_rest), np.tile(lam0, n_rest), half, dom
    )
    curves[1:] = roots.reshape(n_rest, nj)
    for i, bad in enumerate(res.reshape(n_rest, nj), start=1):
        if np.max(bad) > 1e-6:
            # bracket failed; recover with a full window solve
            got = eigenvalues_by_label(p, ctx_base.with_omega(float(omegas[i])), labels)
            curves[i] = [got[j] for j in labels]
            notes.append(f"full re-solve at omega={omegas[i]:.6g}")

    rates = np.abs(np.diff(curves, axis=0)) / np.diff(omegas)[:, None]
    max_rate = float(rates.max()) if rates.size else 0.0
    if max_rate > lip + 1e-6:
        bad_i = int(np.unravel_index(np.argmax(rates), rates.shape)[0])
        notes.append(
            f"lambda jump above the Lipschitz bound near omega={omegas[bad_i]:.6g} "
            f"(rate {max_rate:.3e})"
        )

    ph = phi_plus(p, ctx_base)
    lam_flat = curves.reshape(-1)
    om_flat = np.repeat(omegas, nj)
    slopes, amps, decays, _ = horizon_continuation_evidence(p, ctx_base, lam_flat, om_flat, r0=r0)

    rows = []
    lev_cache = {}
    for idx in range(lam_flat.size):
        om = float(om_flat[idx])
        j = labels[idx % nj]
        lam = float(lam_flat[idx])
        amp = float(amps[idx])
        near_phi = abs(om - ph) < 1e-6
        if amp <= threshold:
            code = "amp_collapse"
        elif near_phi:
            key = round(lam, 12)
            if key not in lev_cache:
                lev_cache[key] = levinson_phi_plus(p, ctx_base, lam)
            code = (
                "levinson_nonnormalizable"
                if lev_cache[key].passed
                else "levinson_inconclusive"
            )
        else:
            rel = abs(float(slopes[idx]) - (om - ph)) / abs(om - ph)
            code = "osc_nonnormalizable" if rel < 1e-3 else "osc_slope_mismatch"
        rows.append(
            {
                "omega": om,
                "j": j,
                "lambda": lam,
                "phi_plus": float(ph),
                "slope": float(slopes[idx]),
                "amplitude_ratio": amp,
                "decay_exponent": float(decays[idx]),
                "verdict_code": code,
            }
        )

    min_amp = float(amps.min())
    verdict = "NoBoundStateFound" if min_amp > threshold else "BoundStateCandidate"
    return ScanResult(
        omega_grid=tuple(float(o) for o in omegas),
        labels=labels,
        lambda_curves={j: tuple(curves[:, i]) for i, j in enumerate(labels)},
        rows=tuple(rows),
        threshold=float(threshold),
        min_amplitude=min_amp,
        max_rate=max_rate,
        lipschitz_bound=lip,
        verdict=verdict,
        notes=tuple(notes),
    )


def periodicity_verdict(scan, period):
    """Translate scan evidence into the time-periodicity statement.

    A solution periodic with period T lives on frequencies 2 pi n / T. Every
    such frequency inside the scanned range is matched to its nearest grid
    point; the mode evidence there either rejects normalizability
    (NoBoundStateFound) or flags a PeriodicCandidate. If no candidate
    frequency lies in the range the scan says nothing about this period."""
    if period <= 0:
        raise InputError("period must be positive")
    omegas = np.asarray(scan.omega_grid)
    lo, hi = omegas[0], omegas[-1]
    base = 2.0 * math.pi / period
    n_lo = math.ceil(lo / base)
    n_hi = math.floor(hi / base)
    if n_lo > n_hi:
        return PeriodicityReport(
            period=float(period),
            checked=(),
            verdict="Inconclusive(RangeMiss)",
            detail=f"no frequency 2*pi*n/{period:g} lies in [{lo:g}, {hi:g}]",
        )
    by_omega = {}
    for row in scan.rows:
        by_omega.setdefault(row["omega"], []).append(row)
    checked = []
    bad = []
    for n in range(n_lo, n_hi + 1):
        target = n * base
        gi = int(np.argmin(np.abs(omegas - target)))
        om = float(omegas[gi])
        rows = by_omega.get(om, [])
        collapsed = [r for r in rows if r["verdict_code"] == "amp_collapse"]
        status = "rejected" if not collapsed else "candidate"
        if collapsed:
            bad.append((n, target, [r["j"] for r in collapsed]))
        checked.append((n, float(target), om, status))
    if bad:
        n0, om0, js = bad[0]
        return PeriodicityReport(
            period=float(period),
            checked=tuple(checked),
            verdict="PeriodicCandidate",
            detail=f"amplitude collapse at omega = 2*pi*{n0}/{period:g} = {om0:.6g} (j in {js})",
        )
    return PeriodicityReport(
        period=float(period),
        checked=tuple(checked),
        verdict="NoBoundStateFound",
        detail=f"all {len(checked)} candidate frequencies rejected",
    )
