"""Command-line front end.

Subcommands: horizons | extremal | classify | angular | radial | scan |
tortoise. A single JSON config file supplies the black-hole parameters and
mode numbers (field names m, a, q_e, q_m, l, mu, e, k, omega, gauge_b);
optional fields tune windows and grids. Output is CSV (default) or JSON,
floats printed with 17 significant digits, row order deterministic, so a
rerun with the same config and flags is byte-identical.

Exit codes: 0 success, 2 on an InputError and 3 on a Refusal (geometry.py);
any other exception is a bug and ends in a traceback. KNADS_FIXTURES
overrides the oracle fixtures path (see oracle.fixtures_path).
"""

import argparse
from dataclasses import MISSING, dataclass, field, fields
import json
import math
import sys

import numpy as np

from . import angular as angular_mod
from . import classify as classify_mod
from . import modescan as modescan_mod
from . import oracle as oracle_mod
from . import radial as radial_mod
from .geometry import (
    BlackHoleParams,
    InputError,
    Refusal,
    extremal_mass,
    find_horizons,
    horizon_slope,
    komar,
)
from .operators import ModeContext, tortoise_map


class ConfigError(InputError):
    pass


# Largest frequency grid a scan accepts; a finer grid is a config error.
MAX_SCAN_POINTS = 10**5
# Largest oracle grid and label band a config may ask for.
MAX_ORACLE_N = 10**5
MAX_J_WINDOW = 100


@dataclass(frozen=True)
class RunConfig:
    """The config schema. A field's JSON key is its name ("lambda" for lam)
    and its type converts the value (float, int or the tuple window); every
    float must be finite. A field without a default is required, and one
    whose default is None also accepts null."""

    m: float
    a: float
    q_e: float
    q_m: float
    l: float
    mu: float
    e: float
    k: float
    omega: float = 0.0
    gauge_b: float = 0.0
    lam: float = field(default=None, metadata={"key": "lambda"})
    window: tuple = None
    r0: float = None
    oracle_n: int = 4000
    omega_min: float = None
    omega_max: float = None
    omega_step: float = 0.05
    j_window: int = 3
    threshold: float = 1e-3

    def params(self):
        return BlackHoleParams(m=self.m, a=self.a, q_e=self.q_e, q_m=self.q_m, l=self.l)

    def mode_ctx(self, gauge_b=None):
        b = self.gauge_b if gauge_b is None else gauge_b
        return ModeContext(mu=self.mu, e=self.e, k=self.k, omega=self.omega, gauge_b=b)


_FIELDS = {f.metadata.get("key", f.name): f for f in fields(RunConfig)}


def _window(val):
    try:
        lo, hi = (float(w) for w in val) if isinstance(val, (list, tuple)) else ()
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"window must be two numbers [lo, hi], got {val!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"window must satisfy lo < hi, both finite, got {[lo, hi]}")
    return (lo, hi)


def _convert(key, f, val):
    if val is None and f.default is None:
        return None
    if f.type is tuple:
        return _window(val)
    try:
        val = f.type(val)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if f.type is int else "a number"
        raise ConfigError(f"{key} must be {kind}, got {val!r}") from None
    if f.type is float and not math.isfinite(val):
        raise ConfigError(f"{key} must be finite, got {val}")
    return val


def parse_config(text):
    try:
        raw = json.loads(text)
    except ValueError as ex:  # not JSON, or an integer of more than 4,300 digits
        raise ConfigError(f"config is not valid JSON: {ex}") from ex
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    missing = [key for key, f in _FIELDS.items() if f.default is MISSING and key not in raw]
    if missing:
        raise ConfigError(f"missing config fields: {missing}")
    cfg = RunConfig(**{f.name: _convert(key, f, raw[key]) for key, f in _FIELDS.items() if key in raw})
    if not 1 <= cfg.j_window <= MAX_J_WINDOW:
        raise ConfigError(f"j_window must lie in [1, {MAX_J_WINDOW}], got {cfg.j_window}")
    if not cfg.oracle_n <= MAX_ORACLE_N:
        raise ConfigError(f"oracle_n must be at most {MAX_ORACLE_N}, got {cfg.oracle_n}")
    return cfg


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise ConfigError(f"cannot read config: {ex}") from ex
    return parse_config(text)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


def _emit(columns, rows, args, extra_json=None):
    """Write rows as CSV or JSON to --out or stdout."""
    if args.format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        doc = {"columns": columns, "rows": rows}
        if extra_json:
            doc.update(extra_json)
        text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _validated(cfg, args):
    """The parameter and mode objects, with --gauge-b in place of the
    config's gauge_b when given; both constructors raise InputError."""
    return cfg.params(), cfg.mode_ctx(gauge_b=args.gauge_b)


def _exterior_r0(cfg, p):
    """Refuse a config r0 at or inside the outer horizon."""
    if cfg.r0 is not None and not cfg.r0 > (r_plus := find_horizons(p).r_plus):
        raise ConfigError(f"r0 must lie outside the horizon, got r0 = {cfg.r0} <= r_plus = {r_plus}")


def _nearest_oracle(op, window, values):
    """Each value's nearest oracle eigenvalue in the window widened by 0.5
    on each side; empty when that window holds none."""
    ov = op.eigenvalues_in_window(window[0] - 0.5, window[1] + 0.5)
    return {v: float(ov[np.argmin(np.abs(ov - v))]) for v in values} if len(ov) else {}


def _certificate_row(cert, value, detail):
    return {"record": "certificate", "label": cert.kind, "value": value, "residual": None,
            "passed": cert.passed, "detail": detail}


def cmd_horizons(cfg, args):
    p, _ = _validated(cfg, args)
    hd = find_horizons(p)
    mk, jk, qe, qm = komar(p)
    row = {
        "r_plus": hd.r_plus,
        "r_minus": hd.r_minus,
        "extremal": hd.extremal,
        "extremal_mass": extremal_mass(p.a, p.z2, p.l),
        "komar_mass": mk,
        "komar_angular_momentum": jk,
        "komar_charge_e": qe,
        "komar_charge_m": qm,
        "horizon_slope": math.inf if hd.extremal else horizon_slope(p),
    }
    _emit(list(row), [row], args)
    return 0


def cmd_extremal(cfg, args):
    p, _ = _validated(cfg, args)
    m_ext = extremal_mass(p.a, p.z2, p.l)
    row = {
        "a": p.a,
        "z2": p.z2,
        "l": p.l,
        "m": p.m,
        "extremal_mass": m_ext,
        "margin": p.m - m_ext,
        "side": "above" if p.m > m_ext else ("extremal" if p.m == m_ext else "below"),
    }
    _emit(list(row), [row], args)
    return 0


def cmd_classify(cfg, args):
    p, ctx = _validated(cfg, args)
    rep = classify_mod.sa_report(p, ctx)
    rows = []
    for ep in (rep.at_theta0, rep.at_theta_pi, rep.at_horizon, rep.at_infinity):
        rows.append(
            {
                "endpoint": ep.endpoint,
                "exponent": ep.exponent,
                "verdict": ep.verdict,
                "rationale_code": ep.rationale_code,
            }
        )
    extra = {
        "essentially_self_adjoint": rep.essentially_self_adjoint,
        "d": rep.d,
        "exceptional_n": list(rep.exceptional_n),
        "joint_angular_code": rep.joint_angular_code,
    }
    _emit(["endpoint", "exponent", "verdict", "rationale_code"], rows, args, extra)
    if args.format == "csv":
        print(
            f"essentially_self_adjoint={rep.essentially_self_adjoint} "
            f"d={_fmt(rep.d)} exceptional_n={list(rep.exceptional_n)}",
            file=sys.stderr,
        )
    return 0


def cmd_angular(cfg, args):
    p, ctx = _validated(cfg, args)
    window = cfg.window or (-4.5, 4.5)
    sw = angular_mod.angular_eigenvalues(p, ctx, window)
    near = {}
    if args.oracle:
        near = _nearest_oracle(oracle_mod.discretize_angular(p, ctx, cfg.oracle_n), window, sw.eigenvalues)
    rows = []
    for lab, lam, res in zip(sw.labels, sw.eigenvalues, sw.residuals):
        row = {"label": lab, "lambda": lam, "residual": res}
        if args.oracle:
            row.update(oracle_lambda=near.get(lam), oracle_delta=lam - near[lam] if lam in near else None)
        rows.append(row)
    cols = ["label", "lambda", "residual"] + (
        ["oracle_lambda", "oracle_delta"] if args.oracle else []
    )
    _emit(cols, rows, args, {"count": sw.count, "window": list(window)})
    return 0


def cmd_radial(cfg, args):
    p, ctx = _validated(cfg, args)
    _exterior_r0(cfg, p)
    lam = cfg.lam
    if lam is None:
        lam = angular_mod.eigenvalues_by_label(p, ctx, [1])[1]
    window = cfg.window or (-5.0, 5.0)
    sw = radial_mod.hinf_eigenvalues(p, ctx, lam, r0=cfg.r0, window=window)
    near = {}
    if args.oracle:
        r0 = cfg.r0 or radial_mod.default_r0(p)
        op = oracle_mod.discretize_radial_confined(p, ctx, lam, r0, cfg.oracle_n)
        near = _nearest_oracle(op, window, sw.eigenvalues)
    rows = [{"record": "eigenvalue", "label": lab, "value": om, "residual": res, "passed": "",
             "detail": f"oracle={_fmt(near[om])}" if om in near else ""}
            for lab, om, res in zip(sw.labels, sw.eigenvalues, sw.residuals)]
    hd = find_horizons(p)
    ac = radial_mod.horizon_ac_certificate(p, ctx, lam)
    head = (
        ac.evidence["tail_ratio"] if not hd.extremal else ac.evidence["decay_rate"]
    )
    rows.append(_certificate_row(
        ac, head, "integral_Y=" + "/".join(_fmt(v) for v in ac.evidence["integral_Y"].values())))
    if not hd.extremal:
        lev = radial_mod.levinson_phi_plus(p, ctx, lam)
        rows.append(_certificate_row(lev, max(lev.evidence["asymptotic_rel_change"]),
                                     "min_norm=" + _fmt(lev.evidence["min_norm_over_traces"])))
    conf = radial_mod.confinement_certificate(p, ctx, r0=cfg.r0)
    rows.append(_certificate_row(conf, conf.evidence["per_decade_integrals"][-1],
                                 "target=" + _fmt(conf.evidence["per_decade_target"])))
    _emit(
        ["record", "label", "value", "residual", "passed", "detail"],
        rows,
        args,
        {"lambda": lam},
    )
    return 0


def cmd_scan(cfg, args):
    p, ctx = _validated(cfg, args)
    lo = cfg.omega_min if cfg.omega_min is not None else cfg.omega - 2.0
    hi = cfg.omega_max if cfg.omega_max is not None else cfg.omega + 2.0
    if not cfg.omega_step > 0.0:
        raise ConfigError(f"omega_step must be positive, got {cfg.omega_step}")
    steps = (hi - lo) / cfg.omega_step
    if not steps < MAX_SCAN_POINTS - 1:  # n + 1 grid points after rounding
        raise ConfigError(
            f"scan grid [{lo}, {hi}] at omega_step {cfg.omega_step} exceeds "
            f"{MAX_SCAN_POINTS} points"
        )
    n = int(round(steps))
    if n < 1:
        raise ConfigError(
            f"scan grid [omega_min, omega_max] = [{lo}, {hi}] at omega_step "
            f"{cfg.omega_step} has fewer than 2 points"
        )
    grid = lo + cfg.omega_step * np.arange(n + 1)
    if not np.all(np.diff(grid) > 0.0):
        raise ConfigError(
            f"scan grid [{grid[0]}, {grid[-1]}] at omega_step {cfg.omega_step} "
            "repeats frequencies in floating point"
        )
    _exterior_r0(cfg, p)
    scan = modescan_mod.coupled_scan(
        p, ctx, grid, j_window=cfg.j_window, r0=cfg.r0, threshold=cfg.threshold
    )
    cols = [
        "omega",
        "j",
        "lambda",
        "phi_plus",
        "slope",
        "amplitude_ratio",
        "decay_exponent",
        "verdict_code",
    ]
    _emit(
        cols,
        list(scan.rows),
        args,
        {
            "verdict": scan.verdict,
            "min_amplitude": scan.min_amplitude,
            "max_rate": scan.max_rate,
            "notes": list(scan.notes),
        },
    )
    stream = sys.stderr if not args.out and args.format == "csv" else sys.stdout
    print(f"verdict={scan.verdict} min_amplitude={_fmt(scan.min_amplitude)}", file=stream)
    return 0


def cmd_tortoise(cfg, args):
    p, _ = _validated(cfg, args)
    hd = find_horizons(p)
    us = np.geomspace(1e-6 * p.l, 1e3 * p.l, 46)
    if not hd.r_plus + us[0] > hd.r_plus:
        raise ConfigError(
            f"tortoise table offset u = {us[0]:g} vanishes against r_plus = "
            f"{hd.r_plus:g} in floating point; the parameters' scale "
            f"(r_plus / l = {hd.r_plus / p.l:g}) is beyond the table's resolution"
        )
    tm = tortoise_map(p)
    rows = []
    for u in us:
        r = hd.r_plus + u
        y = tm.y(r)
        rows.append({"r": float(r), "u": float(u), "y": float(y), "x": float(-y)})
    _emit(["r", "u", "y", "x"], rows, args)
    return 0


_COMMANDS = {
    "horizons": cmd_horizons,
    "extremal": cmd_extremal,
    "classify": cmd_classify,
    "angular": cmd_angular,
    "radial": cmd_radial,
    "scan": cmd_scan,
    "tortoise": cmd_tortoise,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="knads",
        description="Spectral toolkit for the separated Dirac equation on "
        "Kerr-Newman-AdS backgrounds.",
        epilog="KNADS_FIXTURES overrides the oracle fixtures file path.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument(
            "--oracle", action="store_true", help="add finite-difference cross-check"
        )
        sp.add_argument("--gauge-b", dest="gauge_b", type=float, default=None)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](load_config(args.config), args)
    except InputError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except Refusal as ex:
        print(f"solver error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
