"""Command-line front end.

Subcommands: horizons | extremal | classify | angular | radial | scan |
tortoise. A single JSON config file supplies the black-hole parameters and
mode numbers (field names m, a, q_e, q_m, l, mu, e, k, omega, gauge_b);
optional fields tune windows and grids. Output is CSV (default) or JSON,
floats printed with 17 significant digits, row order deterministic, so a
rerun with the same config and flags is byte-identical.

Exit codes: 0 success, 2 config/validation error, 3 solver failure. The
KNADS_FIXTURES environment variable overrides the oracle fixtures path used
by the test suite (see oracle.fixtures_path).
"""

import argparse
from dataclasses import dataclass, fields
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
    NoHorizon,
    OutsideExterior,
    extremal_mass,
    find_horizons,
    komar,
)
from .operators import DomainError, ModeContext, QuadratureFailure, tortoise_map


class ConfigError(ValueError):
    pass


_SOLVER_ERRORS = (
    NoHorizon,
    OutsideExterior,
    DomainError,
    QuadratureFailure,
    angular_mod.NotLimitPoint,
    angular_mod.WindowTooWide,
    radial_mod.NotConfining,
    radial_mod.TooCloseToPhiPlus,
    modescan_mod.ExtremalUnsupported,
    oracle_mod.GridTooCoarse,
)

# Largest frequency grid a scan accepts; a finer grid is a config error.
MAX_SCAN_POINTS = 10**5
# Largest oracle grid and label band a config may ask for.
MAX_ORACLE_N = 10**5
MAX_J_WINDOW = 100

_REQUIRED = ("m", "a", "q_e", "q_m", "l", "mu", "e", "k")
_OPTIONAL = {
    "omega": 0.0,
    "gauge_b": 0.0,
    "lambda": None,
    "window": None,
    "r0": None,
    "oracle_n": 4000,
    "omega_min": None,
    "omega_max": None,
    "omega_step": 0.05,
    "j_window": 3,
    "threshold": 1e-3,
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration; round-trips through to_json unchanged."""

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
    lam: float = None
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

    def to_json(self):
        out = {}
        for f in fields(self):
            key = "lambda" if f.name == "lam" else f.name
            val = getattr(self, f.name)
            if key in _REQUIRED or val != _OPTIONAL.get(key):
                out[key] = list(val) if isinstance(val, tuple) else val
        return json.dumps(out, indent=2, sort_keys=True) + "\n"


def _integer(vals, name):
    try:
        return int(vals[name])
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be an integer, got {vals[name]!r}") from None


def parse_config(text):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as ex:
        raise ConfigError(f"config is not valid JSON: {ex}") from ex
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = set(_REQUIRED) | set(_OPTIONAL)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise ConfigError(f"missing config fields: {missing}")
    vals = dict(_OPTIONAL)
    vals.update(raw)
    window = vals["window"]
    if window is not None:
        try:
            lo, hi = (float(w) for w in window) if isinstance(window, (list, tuple)) else ()
        except (TypeError, ValueError):
            raise ConfigError(f"window must be two numbers [lo, hi], got {window!r}") from None
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError(f"window must satisfy lo < hi, both finite, got {[lo, hi]}")
        window = (lo, hi)
    try:
        cfg = RunConfig(
            m=float(vals["m"]),
            a=float(vals["a"]),
            q_e=float(vals["q_e"]),
            q_m=float(vals["q_m"]),
            l=float(vals["l"]),
            mu=float(vals["mu"]),
            e=float(vals["e"]),
            k=float(vals["k"]),
            omega=float(vals["omega"]),
            gauge_b=float(vals["gauge_b"]),
            lam=None if vals["lambda"] is None else float(vals["lambda"]),
            window=window,
            r0=None if vals["r0"] is None else float(vals["r0"]),
            oracle_n=_integer(vals, "oracle_n"),
            omega_min=None if vals["omega_min"] is None else float(vals["omega_min"]),
            omega_max=None if vals["omega_max"] is None else float(vals["omega_max"]),
            omega_step=float(vals["omega_step"]),
            j_window=_integer(vals, "j_window"),
            threshold=float(vals["threshold"]),
        )
    except (TypeError, ValueError) as ex:
        raise ConfigError(f"bad config value: {ex}") from ex
    if not 1 <= cfg.j_window <= MAX_J_WINDOW:
        raise ConfigError(f"j_window must lie in [1, {MAX_J_WINDOW}], got {cfg.j_window}")
    if not cfg.oracle_n <= MAX_ORACLE_N:
        raise ConfigError(f"oracle_n must be at most {MAX_ORACLE_N}, got {cfg.oracle_n}")
    return cfg


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as ex:
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
    """Construct the parameter and mode objects, with --gauge-b in place of
    the config's gauge_b when given, mapping their validation errors to exit
    code 2."""
    try:
        p = cfg.params()
        ctx = cfg.mode_ctx(gauge_b=args.gauge_b)
    except (ValueError, TypeError) as ex:
        raise ConfigError(str(ex)) from ex
    return p, ctx


def cmd_horizons(cfg, args):
    p, _ = _validated(cfg, args)
    hd = find_horizons(p)
    mk, jk, qe, qm = komar(p)
    tm = tortoise_map(p)
    row = {
        "r_plus": hd.r_plus,
        "r_minus": hd.r_minus,
        "extremal": hd.extremal,
        "extremal_mass": extremal_mass(p.a, p.z2, p.l),
        "komar_mass": mk,
        "komar_angular_momentum": jk,
        "komar_charge_e": qe,
        "komar_charge_m": qm,
        "horizon_slope": getattr(tm, "slope", math.inf),
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
    oracle_vals = {}
    if args.oracle:
        op = oracle_mod.discretize_angular(p, ctx, cfg.oracle_n)
        ov = op.eigenvalues_in_window(window[0] - 0.5, window[1] + 0.5)
        for lam in sw.eigenvalues:
            if len(ov):
                oracle_vals[lam] = float(ov[np.argmin(np.abs(ov - lam))])
    rows = []
    for lab, lam, res in zip(sw.labels, sw.eigenvalues, sw.residuals):
        row = {"label": lab, "lambda": lam, "residual": res}
        if args.oracle:
            row["oracle_lambda"] = oracle_vals.get(lam)
            row["oracle_delta"] = (
                None if lam not in oracle_vals else lam - oracle_vals[lam]
            )
        rows.append(row)
    cols = ["label", "lambda", "residual"] + (
        ["oracle_lambda", "oracle_delta"] if args.oracle else []
    )
    _emit(cols, rows, args, {"count": sw.count, "window": list(window)})
    return 0


def cmd_radial(cfg, args):
    p, ctx = _validated(cfg, args)
    lam = cfg.lam
    if lam is None:
        lam = angular_mod.eigenvalues_by_label(p, ctx, [1])[1]
    window = cfg.window or (-5.0, 5.0)
    rows = []
    sw = radial_mod.hinf_eigenvalues(p, ctx, lam, r0=cfg.r0, window=window)
    oracle_vals = {}
    if args.oracle:
        op = oracle_mod.discretize_radial_confined(
            p, ctx, lam, cfg.r0 or radial_mod.default_r0(p), cfg.oracle_n
        )
        ov = op.eigenvalues_in_window(window[0] - 0.5, window[1] + 0.5)
        for om in sw.eigenvalues:
            if len(ov):
                oracle_vals[om] = float(ov[np.argmin(np.abs(ov - om))])
    for lab, om, res in zip(sw.labels, sw.eigenvalues, sw.residuals):
        detail = f"oracle={_fmt(oracle_vals[om])}" if om in oracle_vals else ""
        rows.append(
            {
                "record": "eigenvalue",
                "label": lab,
                "value": om,
                "residual": res,
                "passed": "",
                "detail": detail,
            }
        )
    hd = find_horizons(p)
    ac = radial_mod.horizon_ac_certificate(p, ctx, lam)
    head = (
        ac.evidence["tail_ratio"] if not hd.extremal else ac.evidence["decay_rate"]
    )
    rows.append(
        {
            "record": "certificate",
            "label": ac.kind,
            "value": head,
            "residual": None,
            "passed": ac.passed,
            "detail": "integral_Y=" + "/".join(_fmt(v) for v in ac.evidence["integral_Y"].values()),
        }
    )
    if not hd.extremal:
        lev = radial_mod.levinson_phi_plus(p, ctx, lam)
        rows.append(
            {
                "record": "certificate",
                "label": lev.kind,
                "value": max(lev.evidence["asymptotic_rel_change"]),
                "residual": None,
                "passed": lev.passed,
                "detail": "min_norm=" + _fmt(lev.evidence["min_norm_over_traces"]),
            }
        )
    conf = radial_mod.confinement_certificate(p, ctx, r0=cfg.r0)
    rows.append(
        {
            "record": "certificate",
            "label": conf.kind,
            "value": conf.evidence["per_decade_integrals"][-1],
            "residual": None,
            "passed": conf.passed,
            "detail": "target=" + _fmt(conf.evidence["per_decade_target"]),
        }
    )
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
    if not (math.isfinite(cfg.omega_step) and cfg.omega_step > 0.0):
        raise ConfigError(f"omega_step must be positive and finite, got {cfg.omega_step}")
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
        cfg = load_config(args.config)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as ex:
        print(f"solver error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 3
    except ValueError as ex:
        print(f"solver error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
