import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

import knads
import knads.cli as cli_mod
import knads.radial as radial_mod
import knads.rk as rk_mod
from knads.angular import eigenvalues_by_label
from knads.cli import RunConfig, main, parse_config
from knads.geometry import BlackHoleParams, InputError, Refusal, extremal_mass, find_horizons, horizon_slope
from knads.operators import ModeContext, phi_plus

BASE = {
    "m": 1.0,
    "a": 0.2,
    "q_e": 0.1,
    "q_m": 0.0,
    "l": 1.0,
    "mu": 1.0,
    "e": 0.1,
    "k": 0.5,
}


def write_config(tmp_path, name="cfg.json", **extra):
    cfg = dict(BASE)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def dumps(cfg):
    """json.dumps that writes integers past the 4,300-digit conversion limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(cfg)
    finally:
        sys.set_int_max_str_digits(limit)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def parse_csv(text):
    lines = [ln for ln in text.strip().split("\n") if ln]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_csv_headers_match_the_schema(tmp_path, capsys):
    # Every subcommand's CSV header is the column list csv_schema.json
    # documents; without --oracle, angular drops the two oracle columns.
    with open(os.path.join(os.path.dirname(knads.__file__), "data", "csv_schema.json")) as fh:
        schema = json.load(fh)["commands"]
    assert set(schema) == set(cli_mod._COMMANDS)
    cfg = write_config(tmp_path, omega_min=-0.2, omega_max=0.2, omega_step=0.2, j_window=1, oracle_n=400)
    for command, doc in schema.items():
        for flags in ([], ["--oracle"]):
            rc, out, _ = run(capsys, [command, "--config", cfg, *flags])
            want = doc["columns"]
            if command == "angular" and not flags:
                want = [c for c in want if not c.startswith("oracle_")]
            assert rc == 0 and out.split("\n", 1)[0].split(",") == want, (command, flags)


def test_horizons_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc, out, _ = run(capsys, ["horizons", "--config", cfg])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[:3] == ["r_plus", "r_minus", "extremal"]
    assert len(rows) == 1
    hd = find_horizons(BlackHoleParams(**{k: BASE[k] for k in ("m", "a", "q_e", "q_m", "l")}))
    # 17 significant digits: the printed value round-trips exactly
    assert float(rows[0]["r_plus"]) == hd.r_plus
    assert rows[0]["extremal"] == "False"
    assert float(rows[0]["horizon_slope"]) > 0.0


def test_extremal_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc, out, _ = run(capsys, ["extremal", "--config", cfg])
    assert rc == 0
    _, rows = parse_csv(out)
    row = rows[0]
    assert row["side"] == "above"
    m_ext = extremal_mass(0.2, 0.1**2, 1.0)
    assert float(row["extremal_mass"]) == m_ext
    assert float(row["margin"]) == pytest.approx(1.0 - m_ext)


def test_classify_json_and_gauge_flag(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc, out, _ = run(capsys, ["classify", "--config", cfg, "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["essentially_self_adjoint"] is True
    assert doc["d"] == 0.0
    assert len(doc["rows"]) == 4
    verdicts = {r["endpoint"]: r["verdict"] for r in doc["rows"]}
    assert set(verdicts.values()) == {"LimitPoint"}

    rc, out, _ = run(
        capsys,
        ["classify", "--config", cfg, "--format", "json", "--gauge-b", "1.0"],
    )
    assert json.loads(out)["joint_angular_code"] == "condirac"


def test_classify_csv_summary_line(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc, out, err = run(capsys, ["classify", "--config", cfg])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["endpoint", "exponent", "verdict", "rationale_code"]
    assert len(rows) == 4
    assert "essentially_self_adjoint=True" in err


def test_angular_with_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path, window=[-2.5, 2.5], oracle_n=600)
    rc, out, _ = run(capsys, ["angular", "--config", cfg, "--oracle"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["label", "lambda", "residual", "oracle_lambda", "oracle_delta"]
    assert len(rows) >= 2
    for row in rows:
        assert abs(float(row["oracle_delta"])) < 1e-3
        assert float(row["residual"]) < 1e-8


def test_angular_plain_columns(tmp_path, capsys):
    cfg = write_config(tmp_path, window=[-2.5, 2.5])
    rc, out, _ = run(capsys, ["angular", "--config", cfg])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["label", "lambda", "residual"]
    labels = [int(r["label"]) for r in rows]
    assert labels == sorted(labels) and 0 not in labels


def test_radial_records(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"lambda": 1.0})
    rc, out, _ = run(capsys, ["radial", "--config", cfg])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["record", "label", "value", "residual", "passed", "detail"]
    kinds = [r["label"] for r in rows if r["record"] == "certificate"]
    assert kinds == ["Hor_AC_L1", "Levinson_phi_plus", "Hinf_discrete"]
    assert all(r["passed"] == "True" for r in rows if r["record"] == "certificate")
    eig = [r for r in rows if r["record"] == "eigenvalue"]
    assert eig and all(float(r["residual"]) < 1e-8 for r in eig)


def test_radial_couples_to_angular_eigenvalue(tmp_path, capsys):
    cfg = write_config(tmp_path, window=[-5.0, 5.0])
    rc, out, _ = run(capsys, ["radial", "--config", cfg, "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    p = BlackHoleParams(**{k: BASE[k] for k in ("m", "a", "q_e", "q_m", "l")})
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5)
    assert doc["lambda"] == pytest.approx(
        eigenvalues_by_label(p, ctx, [1])[1], abs=1e-10
    )


# The window n/2 check divided by its grid segment's secant slope (about
# 2 pi), not by the root finder's: where the defect steps steeply through its
# target the estimate stayed above tol up to the mesh cap, and both runs below
# exited 3 after 15-16 s. The residuals stay large at such a step.
def test_radial_at_mu_14_solves_within_seconds(tmp_path, capsys):
    cfg = write_config(tmp_path, mu=14.0)
    start = time.perf_counter()
    rc, out, err = run(capsys, ["radial", "--config", cfg, "--format", "json", "--oracle"])
    assert rc == 0, err
    assert time.perf_counter() - start < 5.0
    (row,) = [r for r in json.loads(out)["rows"] if r["record"] == "eigenvalue"]
    assert row["value"] == pytest.approx(float(row["detail"].removeprefix("oracle=")), abs=1e-4)


def test_monopole_angular_window_solves_within_seconds(tmp_path, capsys):
    # d = q_m e / xi = 20 on the round sphere: the spectrum is +-sqrt(n^2 - d^2), n >= d
    cfg = write_config(tmp_path, a=0.0, q_e=0.0, q_m=0.5, mu=0.0, e=40.0, k=19.5, window=[-10.0, 10.0])
    start = time.perf_counter()
    rc, out, err = run(capsys, ["angular", "--config", cfg, "--format", "json"])
    assert rc == 0, err
    assert time.perf_counter() - start < 5.0
    got = [r["lambda"] for r in json.loads(out)["rows"]]
    want = [-math.sqrt(84.0), -math.sqrt(41.0), 0.0, math.sqrt(41.0), math.sqrt(84.0)]
    assert np.max(np.abs(np.array(got) - want)) < 1e-8


def test_scan_deterministic_output(tmp_path, capsys):
    cfg = write_config(
        tmp_path, omega_min=-0.3, omega_max=0.3, omega_step=0.15, j_window=1
    )
    out1 = tmp_path / "scan1.csv"
    out2 = tmp_path / "scan2.csv"
    rc, _, err = run(capsys, ["scan", "--config", cfg, "--out", str(out1)])
    assert rc == 0
    rc, _, _ = run(capsys, ["scan", "--config", cfg, "--out", str(out2)])
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = parse_csv(out1.read_text())
    assert header == [
        "omega", "j", "lambda", "phi_plus", "slope",
        "amplitude_ratio", "decay_exponent", "verdict_code",
    ]
    assert len(rows) == 5 * 2
    assert all(r["verdict_code"] != "amp_collapse" for r in rows)


def test_nothing_calls_the_adaptive_stepper(tmp_path, capsys, monkeypatch):
    # rk.integrate stays bound only for the benchmark's tracer: every radial
    # integration, certificates and continuation evidence included, runs on
    # the Magnus sweep
    def refuse(*args, **kwargs):
        raise AssertionError("rk.integrate called")

    bound = [name for name, mod in sys.modules.items()
             if name.startswith("knads") and getattr(mod, "integrate", None) is rk_mod.integrate]
    assert {"knads.rk", "knads.angular", "knads.radial"} <= set(bound)
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "integrate", refuse)
    p = BlackHoleParams(**{k: BASE[k] for k in ("m", "a", "q_e", "q_m", "l")})
    ctx = ModeContext(mu=1.0, e=0.1, k=0.5)
    ph = phi_plus(p, ctx)
    assert radial_mod.levinson_phi_plus(p, ctx, 1.0).passed
    assert radial_mod.horizon_oscillation(p, ctx, 1.0, ph + 0.5).passed
    radial_mod.infinity_growth_exponents(p, ctx, 1.0, 0.3)
    radial_mod.horizon_continuation_evidence(p, ctx, [1.0, -2.0], [ph + 0.5, ph - 1.0])
    rc, _, _ = run(capsys, ["radial", "--config", write_config(tmp_path, **{"lambda": 1.0})])
    assert rc == 0
    cfg = write_config(tmp_path, "scan.json", omega_min=-0.3, omega_max=0.3, omega_step=0.15,
                       j_window=1)
    rc, _, _ = run(capsys, ["scan", "--config", cfg])
    assert rc == 0


def test_scan_verdict_line_on_stderr(tmp_path, capsys):
    cfg = write_config(
        tmp_path, omega_min=-0.2, omega_max=0.2, omega_step=0.2, j_window=1
    )
    rc, out, err = run(capsys, ["scan", "--config", cfg])
    assert rc == 0
    assert "verdict=NoBoundStateFound" in err
    assert "verdict_code" in out.split("\n")[0]


def test_tortoise_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc, out, _ = run(capsys, ["tortoise", "--config", cfg])
    assert rc == 0
    _, rows = parse_csv(out)
    assert len(rows) == 46
    ys = np.array([float(r["y"]) for r in rows])
    assert np.all(np.diff(ys) < 0)
    assert all(float(r["x"]) == -float(r["y"]) for r in rows)


def test_out_file_matches_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc, out, _ = run(capsys, ["horizons", "--config", cfg])
    dest = tmp_path / "h.csv"
    rc2, _, _ = run(capsys, ["horizons", "--config", cfg, "--out", str(dest)])
    assert rc == rc2 == 0
    assert dest.read_text() == out


def test_json_format(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc, out, _ = run(capsys, ["horizons", "--config", cfg, "--format", "json"])
    doc = json.loads(out)
    assert doc["columns"][0] == "r_plus"
    assert isinstance(doc["rows"][0]["r_plus"], float)


def test_exit_code_2_validation(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"m": 1.0}))
    rc, _, err = run(capsys, ["horizons", "--config", str(missing)])
    assert rc == 2 and "missing config fields" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(dict(BASE, bogus=1)))
    rc, _, err = run(capsys, ["horizons", "--config", str(unknown)])
    assert rc == 2 and "unknown config fields" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc, _, err = run(capsys, ["horizons", "--config", str(broken)])
    assert rc == 2 and "not valid JSON" in err

    rc, _, err = run(capsys, ["horizons", "--config", str(tmp_path / "nope.json")])
    assert rc == 2 and "cannot read config" in err

    fast_spin = write_config(tmp_path, "fast.json", a=2.0)
    rc, _, err = run(capsys, ["horizons", "--config", fast_spin])
    assert rc == 2 and "a**2 < l**2" in err

    bad_k = write_config(tmp_path, "badk.json", k=1.0)
    rc, _, err = run(capsys, ["classify", "--config", bad_k])
    assert rc == 2 and "odd integer" in err

    bad_window = write_config(tmp_path, "badw.json", window=[1.0])
    rc, _, err = run(capsys, ["angular", "--config", bad_window])
    assert rc == 2 and "window" in err


def test_exit_code_3_solver(tmp_path, capsys):
    # mass below the extremal bound: no horizon
    light = write_config(tmp_path, "light.json", m=0.05, a=0.5, q_e=0.5)
    rc, _, err = run(capsys, ["horizons", "--config", light])
    assert rc == 3 and "NoHorizon" in err

    # limit circle at infinity: the confined solver refuses
    lc = write_config(tmp_path, "lc.json", mu=0.3, **{"lambda": 1.0})
    rc, _, err = run(capsys, ["radial", "--config", lc])
    assert rc == 3 and "NotLimitPoint" in err

    massless = write_config(tmp_path, "m0.json", mu=0.0, **{"lambda": 1.0})
    rc, _, err = run(capsys, ["radial", "--config", massless])
    assert rc == 3 and "NotConfining" in err


def test_config_lambda_field_mapping(tmp_path):
    cfg = parse_config(json.dumps(dict(BASE, **{"lambda": 2.5})))
    assert cfg.lam == 2.5


@pytest.mark.parametrize("step", [0.0, -0.05, math.nan, math.inf])
def test_scan_rejects_bad_omega_step(tmp_path, capsys, step):
    cfg = write_config(tmp_path, omega_step=step)
    rc, _, err = run(capsys, ["scan", "--config", cfg])
    assert rc == 2 and "omega_step" in err


def test_scan_rejects_oversized_grid(tmp_path, capsys):
    # 4e9 frequencies: refused before any grid array is allocated
    cfg = write_config(tmp_path, omega_step=1e-9)
    rc, _, err = run(capsys, ["scan", "--config", cfg])
    assert rc == 2 and "omega_step" in err and "points" in err


@pytest.mark.parametrize(
    "window",
    [[1.0, -1.0], ["a", 1], ["-Infinity", 1]],
    ids=["reversed", "not_a_number", "infinite"],
)
def test_reversed_window_is_a_config_error(tmp_path, capsys, window):
    cfg = write_config(tmp_path, window=window)
    rc, _, err = run(capsys, ["angular", "--config", cfg])
    assert rc == 2 and "window" in err


def test_over_wide_window_is_refused_before_shooting(tmp_path, capsys):
    # Shooting the grid of [-1e6, 1e6] at |lambda| = 1e6 took over a minute.
    cfg = write_config(tmp_path, window=[-1e6, 1e6])
    start = time.perf_counter()
    rc, _, err = run(capsys, ["angular", "--config", cfg])
    assert rc == 3 and "WindowTooWide" in err
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field", [f.metadata.get("key", f.name) for f in dataclasses.fields(RunConfig) if f.type is float]
)
def test_non_finite_parameter_is_a_config_error(tmp_path, capsys, field, value):
    # json.dumps writes NaN and Infinity literals, which json.loads accepts.
    # horizons reads none of the mode or scan fields, and --gauge-b overrides
    # the config's gauge_b; every float is still checked when it is parsed.
    cfg = write_config(tmp_path, **{field: value})
    rc, _, err = run(capsys, ["horizons", "--config", cfg, "--gauge-b", "0.0"])
    assert rc == 2 and f"{field} must be finite" in err


@pytest.mark.parametrize("value", ["1.5x", [1.0], 10**400], ids=["text", "list", "beyond_float"])
def test_non_numeric_value_names_its_field(tmp_path, capsys, value):
    # a 400-digit JSON integer once overflowed float() with a traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE, omega=value)))
    rc, _, err = run(capsys, ["horizons", "--config", str(path)])
    assert rc == 2 and "omega must be a number" in err


@pytest.mark.parametrize("command", ["radial", "scan"])
@pytest.mark.parametrize("offset", [-0.477, 0.0], ids=["inside", "at"])
def test_r0_inside_the_horizon_is_a_config_error(tmp_path, capsys, command, offset):
    # exited 3 with "OutsideExterior: tortoise map is defined on r > r_plus"
    p = BlackHoleParams(**{key: BASE[key] for key in ("m", "a", "q_e", "q_m", "l")})
    cfg = write_config(tmp_path, r0=find_horizons(p).r_plus + offset)
    rc, _, err = run(capsys, [command, "--config", cfg])
    assert rc == 2 and "r0" in err and "r_plus" in err


def test_huge_mass_is_refused_without_a_traceback(tmp_path, capsys):
    # Bracketing the outer horizon once overflowed with a traceback (exit 1).
    cfg = write_config(tmp_path, m=1e300)
    rc, _, err = run(capsys, ["horizons", "--config", cfg])
    assert rc == 3 and "overflows" in err


def test_near_flat_limit_brackets_from_the_mass_scale(tmp_path, capsys):
    # The bracket once started at the AdS scale l (1 + 2 sqrt(m l)) ~ 2e150
    # and overflowed (exit 3), although r_plus is near the Kerr-Newman root
    # m + sqrt(m^2 - a^2 - q_e^2).
    cfg = write_config(tmp_path, l=1e100)
    rc, out, _ = run(capsys, ["horizons", "--config", cfg])
    assert rc == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["r_plus"]) == pytest.approx(1.0 + math.sqrt(0.95), rel=1e-12)


@pytest.mark.parametrize("command", ["horizons", "extremal", "classify", "angular", "radial", "scan", "tortoise"])
@pytest.mark.parametrize("field, value, square", [("l", 1e300, "l**2"), ("q_e", 1e200, "q_e**2")])
def test_huge_squared_parameter_is_a_config_error(tmp_path, capsys, command, field, value, square):
    # Squaring these once raised OverflowError with a traceback (exit 1).
    cfg = write_config(tmp_path, **{field: value})
    rc, _, err = run(capsys, [command, "--config", cfg])
    assert rc == 2 and square in err and "overflows" in err


@pytest.mark.parametrize("command", ["classify", "angular", "radial", "scan"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_gauge_flag_is_a_config_error(tmp_path, capsys, command, value):
    # The --gauge-b override was once built outside validation (exit 3).
    cfg = write_config(tmp_path)
    rc, _, err = run(capsys, [command, "--config", cfg, "--gauge-b", value])
    assert rc == 2 and "gauge_b must be finite" in err


def test_undecodable_config_is_a_config_error(tmp_path, capsys):
    # a Latin-1 file once ended in a UnicodeDecodeError traceback (exit 1)
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(dict(BASE, note="caf\u00e9"), ensure_ascii=False).encode("latin-1"))
    rc, _, err = run(capsys, ["horizons", "--config", str(path)])
    assert rc == 2 and "config error: cannot read config" in err and "utf-8" in err


def test_integer_past_the_conversion_limit_is_a_config_error(tmp_path, capsys):
    # json.loads raises ValueError, not JSONDecodeError, on an integer of more
    # than 4,300 digits: once a traceback (exit 1)
    path = tmp_path / "huge.json"
    path.write_text(dumps(dict(BASE, m=10**4400)))
    rc, _, err = run(capsys, ["horizons", "--config", str(path)])
    assert rc == 2 and "config error: config is not valid JSON" in err and "4300 digits" in err


def test_collapsed_scan_grid_is_a_config_error(tmp_path, capsys):
    # at omega = 1e16 the grid lo + 0.05 k repeats values: once a solver
    # refusal (exit 3) from coupled_scan
    cfg = write_config(tmp_path, omega=1e16)
    rc, _, err = run(capsys, ["scan", "--config", cfg])
    assert rc == 2 and "[9999999999999998.0, 1.0000000000000002e+16] at omega_step 0.05" in err


@pytest.mark.parametrize("lo, hi", [(1.0, -1.0), (0.0, 0.01)])
def test_reversed_scan_range_is_a_config_error(tmp_path, capsys, lo, hi):
    # reversed, or too short for a second grid point at omega_step 0.05
    cfg = write_config(tmp_path, omega_min=lo, omega_max=hi)
    rc, _, err = run(capsys, ["scan", "--config", cfg])
    assert rc == 2 and "omega_min" in err and "omega_max" in err


def test_empty_label_window_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, j_window=0)
    rc, _, err = run(capsys, ["scan", "--config", cfg])
    assert rc == 2 and "j_window" in err


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate costs about a quarter second per process; the package's
    # one scipy import is the oracle's tridiagonal eigensolver
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(knads.__file__)))
    code = "import sys, knads, knads.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_threads_flag_is_retired(tmp_path, capsys):
    with pytest.raises(SystemExit) as ex:
        main(["scan", "--config", write_config(tmp_path), "--threads", "2"])
    assert ex.value.code == 2


def test_far_window_exceeds_the_mesh_cap(tmp_path, capsys):
    # a narrow window far from 0 needs a mesh above the cap; it is refused
    # before any coefficient is sampled
    cfg = write_config(tmp_path, window=[1e6, 1e6 + 1.0])
    start = time.perf_counter()
    rc, _, err = run(capsys, ["angular", "--config", cfg])
    assert rc == 3 and "WindowTooWide" in err and "intervals" in err
    assert time.perf_counter() - start < 5.0


def test_far_radial_window_exceeds_the_mesh_cap(tmp_path, capsys):
    # exited 3 after about 36 s with "IntegratorStall: step budget
    # exhausted", naming neither omega nor the stage
    cfg = write_config(tmp_path, window=[1e6, 1e6 + 1.0])
    before = radial_mod._radial_tables.cache_info()
    start = time.perf_counter()
    rc, _, err = run(capsys, ["radial", "--config", cfg])
    assert rc == 3 and "WindowTooWide" in err and "|omega| = 1e+06" in err and "intervals" in err
    assert radial_mod._radial_tables.cache_info() == before
    assert time.perf_counter() - start < 5.0


def test_mesh_refusal_names_mu_a(tmp_path, capsys):
    # the fuzz case below: the refusal named |lambda| <= 4.5, though mu a
    # drives the phase rate
    cfg = write_config(tmp_path, a=-0.109, l=0.3, mu=2.6e38, e=5.1e15)
    rc, _, err = run(capsys, ["angular", "--config", cfg])
    assert rc == 3 and "WindowTooWide: |mu a| = 2.834e+37 needs a Magnus mesh" in err
    assert "lambda" not in err


def test_every_knads_exception_declares_its_exit_code():
    # the CLI maps InputError to exit 2 and Refusal to exit 3, and lists no
    # exception class of its own
    package = os.path.dirname(knads.__file__)
    names = sorted(f[:-3] for f in os.listdir(package) if f.endswith(".py") and f not in ("__init__.py", "rk.py"))
    classes = [obj for name in names for obj in vars(importlib.import_module(f"knads.{name}")).values()
               if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == f"knads.{name}"]
    assert {"ConfigError", "ParameterOverflow", "NoHorizon", "GridTooCoarse"} <= {c.__name__ for c in classes}
    for cls in classes:
        assert issubclass(cls, InputError) != issubclass(cls, Refusal), cls


def test_a_bare_value_error_is_a_bug_not_a_refusal(tmp_path, monkeypatch):
    # every ValueError once ended in exit 3 as "solver error"
    def buggy(cfg, args):
        raise ValueError("a bug")

    monkeypatch.setitem(cli_mod._COMMANDS, "horizons", buggy)
    with pytest.raises(ValueError, match="^a bug$"):
        main(["horizons", "--config", write_config(tmp_path)])


def test_negative_a_without_a_mass_ends_without_a_horizon(tmp_path):
    # the horizon bracket started at r = a + 1 = 0 and doubled it forever
    cfg = write_config(tmp_path, m=0.0, a=-1.0, q_e=0.0, l=1.2)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(knads.__file__)))
    out = subprocess.run([sys.executable, "-m", "knads.cli", "horizons", "--config", cfg], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 3
    assert out.stderr == "solver error: NoHorizon: Delta_r has no positive root for these parameters\n"


# hypothesis seed 40 of the fuzz test: Delta_r overflows at 50 l, the tortoise
# map's far radius
HUGE_L = dict(BASE, m=1.0, a=0.0, q_e=0.0, l=2.681025434511607e152, mu=0.0, e=0.0, k=-5.5)


def test_horizon_slope_needs_no_tortoise_map(tmp_path, capsys):
    # horizons built the map for its slope, whose dy/ds overflowed at the far
    # radius (RuntimeWarning, exit 0 or exit 1 under -W error)
    rc, out, err = run(capsys, ["horizons", "--config", write_config(tmp_path, **HUGE_L)])
    assert rc == 0 and err == ""
    p = BlackHoleParams(**{key: HUGE_L[key] for key in ("m", "a", "q_e", "q_m", "l")})
    assert float(parse_csv(out)[1][0]["horizon_slope"]) == horizon_slope(p)


@pytest.mark.parametrize("command", ["tortoise", "classify"])
def test_tortoise_map_refuses_an_overflowing_far_radius(tmp_path, capsys, command):
    rc, _, err = run(capsys, [command, "--config", write_config(tmp_path, **HUGE_L)])
    assert rc == 2 and "config error: l = 2.681e+152 is too large" in err


@pytest.mark.parametrize("l", [1e39, 1e60, 2.681e152, 2.7e152])
def test_an_l_whose_radii_overflow_is_a_config_error(tmp_path, capsys, l):
    # classify maps y = 1 to r - r_plus ~ l^2, past where Delta_r overflows
    # from l of about 3e37 and past where dy/ds does from about 1e75: it
    # exited 3 there, and 2 only from l = 2.7e152, where the tortoise build
    # refuses. The forward map alone still serves tortoise and horizons.
    cfg = write_config(tmp_path, m=1.0, a=0.0, q_e=0.0, l=l)
    rc, out, err = run(capsys, ["classify", "--config", cfg])
    assert rc == 2 and out == "" and err.startswith(f"config error: l = {l:.4g} is too large: ")
    if l < 1e75:
        assert [run(capsys, [c, "--config", cfg])[0] for c in ("tortoise", "horizons")] == [0, 0]


@pytest.mark.parametrize("command", ["radial", "scan"])
def test_default_r0_too_close_to_the_infinity_cutoff_is_refused(tmp_path, capsys, command):
    # radial exited 3 with "ValueError: r0 too close to the infinity cutoff",
    # naming an r0 the config never set; scan exited 0 with decay exponents
    # of 0.295 against mu l = 1
    cfg = write_config(tmp_path, m=2403036285557493, a=0.0, q_e=1.0, k=-5.5)
    rc, out, err = run(capsys, [command, "--config", cfg])
    assert rc == 3 and out == ""
    assert err == ("solver error: Refusal: the default r0 = r_plus + l = 168758.6 has y(r0) = 2.67e-05, "
                   "not above 20 times the infinity cutoff y = 1e-05\n")


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


_ANY = st.floats(allow_nan=False, allow_infinity=False)
_FUZZ_CONFIGS = st.fixed_dictionaries(
    {
        "m": _floats(0.0, 5.0) | _ANY,
        "a": _floats(-1.0, 1.0) | _ANY,
        "q_e": _floats(-1.0, 1.0) | _ANY,
        "q_m": _floats(-0.5, 0.5),
        "l": _floats(0.3, 5.0) | _ANY,
        "mu": _floats(0.0, 3.0) | _ANY,
        "e": _floats(-2.0, 2.0) | _ANY,
        "k": st.sampled_from([-5.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 5.5]) | _floats(-6.0, 6.0),
    },
    optional={
        "omega": _floats(-5.0, 5.0) | _ANY,
        "gauge_b": _floats(-2.0, 2.0),
        "lambda": _floats(-10.0, 10.0) | _ANY,
        "window": st.tuples(_floats(-20.0, 20.0) | _ANY, _floats(1e-3, 2.0)).map(
            lambda lo_w: [lo_w[0], lo_w[0] + lo_w[1]]
        ),
        "r0": _floats(0.0, 10.0) | _ANY,
    },
)


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["horizons", "classify", "tortoise", "angular", "radial", "scan"]),
    cfg=_FUZZ_CONFIGS,
)
@example(
    # a < 0 once shrank the angular mesh bound, so a huge mu overflowed the
    # sweep and exited 3 with "cannot convert float NaN to integer"
    command="angular",
    cfg=dict(BASE, a=-0.109, mu=2.6e38, e=5.1e15, l=0.3),
)
@example(
    # r - r_plus ~ l^2 / y: Delta_r at y = 1 (classify) and dy/ds at y = 1e-5
    # (radial) once overflowed with a RuntimeWarning (exit 1)
    command="classify",
    cfg=dict(BASE, l=3.402823669209399e38),
)
@example(command="radial", cfg=dict(BASE, l=1e100))
@example(command="horizons", cfg=dict(BASE, m=8.98846567431158e307, l=2.0))  # r_plus was NaN
@example(
    # the mesh bound's rate once overflowed (RuntimeWarning, exit 1) instead
    # of being refused as past the cap
    command="angular",
    cfg=dict(BASE, m=0.0, a=0.875, q_e=0.0, l=1.0, mu=9.946336532733077e307, e=0.0, k=-5.5),
)
@example(
    # squaring the horizon deviation overflowed (RuntimeWarning, exit 1)
    command="classify",
    cfg=dict(BASE, a=0.0, q_e=0.5, mu=0.0, e=3e155, k=-5.5),
)
@example(
    # P(r) = a xi k + e (q_e r + b q_m a) overflowed at the horizon
    # (RuntimeWarning, exit 0 with a non-finite horizon bound)
    command="classify",
    cfg=dict(BASE, m=2403036285557493, a=0.0, q_e=1.0, mu=0.0, e=1.07e303, k=-5.5),
)
@example(command="radial", cfg=dict(BASE, r0=0.5))  # inside r_plus: was exit 3
@example(command="horizons", cfg=dict(BASE, m=10**4400))  # json.loads' ValueError: was exit 1
@example(command="horizons", cfg=dict(BASE, m=0.0, a=-1.0, q_e=0.0, l=1.2))  # hung
@example(command="horizons", cfg=HUGE_L)  # RuntimeWarning: was exit 1 here
@example(command="classify", cfg=dict(BASE, a=0.0, q_e=0.0, mu=1.5780240058386693e308, e=0.0, k=-5.5))  # same
@example(command="angular", cfg=dict(BASE, k=1000.5))  # pole intervals reach s of about 805, past cosh overflow
@example(command="angular", cfg=dict(BASE, a=0.0, q_m=0.5, e=1.1088856436091546e54, k=-5.5))  # Omega overflows
@example(
    # the defect fell across the window on every mesh, and solve_window asked
    # np.arange for ~1e66 labels (ValueError, exit 1)
    command="angular",
    cfg=dict(BASE, a=0.5, q_m=0.4, e=4e29, k=-5.5, gauge_b=1.9, window=[500.0, 501.0]),
)
def test_cli_config_fuzz_ends_in_an_exit_code(tmp_path_factory, command, cfg):
    # Drawn configs, windows at most 2 wide and scans of 5 frequencies and
    # two labels: every run ends in exit 0, 2 (config error) or 3 (solver
    # refusal) with a message, never in a traceback.
    if command == "scan":
        cfg = dict(cfg, omega_step=1.0, j_window=1)
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(path)])
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc:
        assert "error:" in err.getvalue() and "NaN" not in err.getvalue()


@pytest.mark.parametrize("command", ["classify", "scan"])
def test_overflowing_charge_coupling_is_a_config_error_naming_e(tmp_path, capsys, command):
    # e q_e r_plus past the float range: classify printed RuntimeWarnings and
    # exited 0 with a non-finite horizon bound
    cfg = write_config(tmp_path, m=2403036285557493, a=0.0, q_e=1.0, mu=0.0, e=1.07e303, k=-5.5)
    rc, _, err = run(capsys, [command, "--config", cfg])
    assert rc == 2 and "config error: e = 1.07e+303 overflows P(r)" in err


@pytest.mark.parametrize("command", ["classify", "radial", "scan"])
def test_overflowing_mass_coupling_is_a_config_error_naming_mu(tmp_path, capsys, command):
    # mu r sqrt(Delta_r) past the float range: classify printed a
    # RuntimeWarning and exited 0 (hypothesis seed 5 of the fuzz test)
    cfg = write_config(tmp_path, a=0.0, q_e=0.0, mu=1.5780240058386693e308, e=0.0, k=-5.5)
    rc, _, err = run(capsys, [command, "--config", cfg])
    assert rc == 2 and "config error: mu = 1.57802e+308 overflows mu r sqrt(Delta_r)" in err


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("angular", "oracle_n", 10**9),
        ("angular", "oracle_n", math.inf),
        ("scan", "j_window", 10**9),
        ("scan", "j_window", math.inf),
    ],
)
def test_oversized_count_is_a_config_error(tmp_path, capsys, command, field, value):
    # was an attempt to allocate the oracle or label arrays, or an
    # OverflowError traceback for Infinity
    cfg = write_config(tmp_path, **{field: value})
    start = time.perf_counter()
    rc, _, err = run(capsys, [command, "--oracle", "--config", cfg])
    assert rc == 2 and field in err
    assert time.perf_counter() - start < 5.0


def test_tortoise_beyond_float_resolution_is_a_config_error(tmp_path, capsys):
    # r_plus + 1e-6 l rounds to r_plus at m = 1e150 (r_plus ~ 1.3e50)
    cfg = write_config(tmp_path, m=1e150)
    rc, _, err = run(capsys, ["tortoise", "--config", cfg])
    assert rc == 2 and "r_plus" in err and "OutsideExterior" not in err
