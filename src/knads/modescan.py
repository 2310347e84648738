"""Coupled (omega, lambda) mode scan.

A normalizable time-periodic solution would need some frequency omega for
which an angular eigenvalue lambda_j(omega) feeds a radial problem with a
square-integrable solution. The scan walks a frequency grid, follows the
angular eigenvalue curves lambda_j(omega), and for every pair records
horizon-side non-normalizability evidence: the recessive-at-infinity
solution keeps an order-one amplitude toward the horizon instead of
collapsing, and its phase advances at the predicted rate omega - phi_plus.

Curve tracking works on integer winding targets: one grid pass at the
first frequency (angular.label_brackets) gives each label its target and a
grid segment holding its root there. The matching defect is strictly
increasing in lambda and moves by at most |a| |omega - omega_0| (the
Lipschitz bound from the frequency term), so each eigenvalue at each
frequency, the first included, is the unique defect root inside its
segment widened by that bound. That makes every (omega, j) item
independent of the rest of the grid: no sequential hand-off, no
branch-swap risk. Each root is predicted by Richardson extrapolation from
an eighth and from half of the item's Magnus mesh and enclosed on the full
mesh; an item whose enclosure misses is solved from its bracket on the
full mesh (magnus.solve_items, the one item solver, by angular.solve_items).

The scan is evidence, not proof: the amplitude threshold is conservative
policy and every raw number is emitted for audit.
"""

from dataclasses import dataclass
import math
import numbers

import numpy as np

from . import angular
from .angular import eigenvalues_by_label, label_brackets
from .classify import sa_report
from .geometry import InputError, Refusal, find_horizons
from .operators import phi_plus
from .radial import horizon_continuation_evidence, levinson_phi_plus
# Unused; perfbench's test_wrappers_restore_original_bindings needs it bound.
from .rk import bisect_batched  # noqa: F401

DEFAULT_THRESHOLD = 1e-3
_MAX_HARMONICS = 10**5  # periodicity_verdict: most frequencies 2 pi n / T it checks
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


def _solve_items(p, ctx0, targets, lo, hi, domega):
    """Roots and |residuals| of the defect at the integer targets, flat over
    (omega, j) items at the offsets domega from ctx0's frequency, inside the
    segments [lo, hi] at ctx0 widened by the Lipschitz bound |a| |domega|
    plus _TRACK_MARGIN where domega is not 0 (angular.solve_items). No item
    depends on which other items share the batch."""
    pad = np.where(domega == 0.0, 0.0, abs(p.a) * np.abs(domega) + _TRACK_MARGIN)
    return angular.solve_items(p, ctx0, targets, lo - pad, hi + pad, domega, _ITEM_TOL)


def coupled_scan(p, ctx_base, omega_grid, j_window=3, r0=None, threshold=DEFAULT_THRESHOLD):
    """Scan the frequency grid and certify the absence of normalizable modes.

    For each omega the angular eigenvalues lambda_j(omega) for 1 <= |j| <=
    j_window (an int) are located, in one batch of items, by their integer
    winding targets inside the first frequency's grid segments widened by
    the Lipschitz bound. Each (omega, j) pair then gets radial evidence
    from the recessive continuation; near
    omega = phi_plus the oscillation slope is meaningless and the Levinson
    certificate is consulted instead. Rerunning with the same inputs
    reproduces the output bit for bit."""
    if not isinstance(j_window, numbers.Integral) or j_window < 1:
        raise InputError(f"j_window must be an integer >= 1, got {j_window!r}")
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
    if omegas.size < 2 or not (np.all(np.isfinite(omegas)) and np.all(np.diff(omegas) > 0)):
        raise InputError("omega_grid must be finite and strictly increasing with >= 2 points")
    labels = tuple(range(-j_window, 0)) + tuple(range(1, j_window + 1))
    nj = len(labels)
    lip = abs(p.a)

    ctx0 = ctx_base.with_omega(float(omegas[0]))
    items = (np.tile(v, omegas.size) for v in label_brackets(p, ctx0, labels))
    roots, res = _solve_items(p, ctx0, *items, np.repeat(omegas - omegas[0], nj))
    curves = roots.reshape(-1, nj)
    notes = []
    for i, bad in enumerate(res.reshape(-1, nj)):
        if np.max(bad) > 1e-6:
            # bracket failed; recover from this frequency's own label brackets
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
    for idx in range(lam_flat.size):
        om = float(om_flat[idx])
        j = labels[idx % nj]
        lam = float(lam_flat[idx])
        amp = float(amps[idx])
        near_phi = abs(om - ph) < 1e-6
        if amp <= threshold:
            code = "amp_collapse"
        elif near_phi:
            passed = levinson_phi_plus(p, ctx_base, lam).passed
            code = "levinson_nonnormalizable" if passed else "levinson_inconclusive"
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
    frequency lies in the range the scan says nothing about this period.
    A period that is not finite and positive is an InputError; one that puts
    more than _MAX_HARMONICS frequencies in the range is refused."""
    if not (0.0 < period < math.inf and math.isfinite(base := 2.0 * math.pi / float(period))):
        raise InputError(f"period must be finite and positive, with 2*pi/period finite, got {period}")
    omegas = np.asarray(scan.omega_grid)
    lo, hi = omegas[0], omegas[-1]
    n_lo = math.ceil(lo / base)
    n_hi = math.floor(hi / base)
    if n_hi - n_lo + 1 > _MAX_HARMONICS:
        raise Refusal(f"period {period:g} puts {n_hi - n_lo + 1} frequencies 2*pi*n/T in "
                      f"[{lo:g}, {hi:g}], more than {_MAX_HARMONICS}")
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
