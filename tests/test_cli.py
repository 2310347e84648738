import contextlib
import io
import json
import math
import sys
import time

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

import knads.cli as cli_mod
import knads.radial as radial_mod
import knads.rk as rk_mod
from knads.angular import eigenvalues_by_label
from knads.cli import main, parse_config
from knads.geometry import BlackHoleParams, extremal_mass, find_horizons
from knads.operators import ModeContext, QuadratureFailure, phi_plus

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


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def parse_csv(text):
    lines = [ln for ln in text.strip().split("\n") if ln]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


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


def test_config_round_trip(tmp_path):
    cfg = parse_config(json.dumps(dict(BASE, omega=0.7, window=[-2.0, 2.0])))
    again = parse_config(cfg.to_json())
    assert again == cfg
    # defaults are omitted from the serialized form
    bare = parse_config(json.dumps(BASE))
    keys = set(json.loads(bare.to_json()))
    assert keys == set(BASE)


def test_config_lambda_field_mapping(tmp_path):
    cfg = parse_config(json.dumps(dict(BASE, **{"lambda": 2.5})))
    assert cfg.lam == 2.5
    assert json.loads(cfg.to_json())["lambda"] == 2.5


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


@pytest.mark.parametrize(
    "field, value", [("m", math.nan), ("a", math.inf), ("mu", -math.inf), ("k", math.inf)]
)
def test_non_finite_parameter_is_a_config_error(tmp_path, capsys, field, value):
    # json.dumps writes NaN and Infinity literals, which json.loads accepts.
    cfg = write_config(tmp_path, **{field: value})
    rc, _, err = run(capsys, ["horizons", "--config", cfg])
    assert rc == 2 and f"{field} must be finite" in err


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


def test_quadrature_failure_is_a_solver_error(tmp_path, capsys, monkeypatch):
    def failing(p):
        raise QuadratureFailure("Required step size is less than spacing between numbers.")

    monkeypatch.setattr(cli_mod, "tortoise_map", failing)
    rc, _, err = run(capsys, ["tortoise", "--config", write_config(tmp_path)])
    assert rc == 3 and "QuadratureFailure" in err


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
    assert rc == 3 and "WindowTooWide" in err and "|omega| <= 1e+06" in err and "intervals" in err
    assert radial_mod._radial_tables.cache_info() == before
    assert time.perf_counter() - start < 5.0


def test_mesh_refusal_names_mu_a(tmp_path, capsys):
    # the fuzz case below: the refusal named |lambda| <= 4.5, though mu a
    # drives the phase rate
    cfg = write_config(tmp_path, a=-0.109, l=0.3, mu=2.6e38, e=5.1e15)
    rc, _, err = run(capsys, ["angular", "--config", cfg])
    assert rc == 3 and "WindowTooWide: |mu a| = 2.834e+37 needs a Magnus mesh" in err
    assert "lambda" not in err


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
    command=st.sampled_from(["horizons", "classify", "tortoise", "angular", "radial"]),
    cfg=_FUZZ_CONFIGS,
)
@example(
    # a < 0 once shrank the angular mesh bound, so a huge mu overflowed the
    # sweep and exited 3 with "cannot convert float NaN to integer"
    command="angular",
    cfg=dict(BASE, a=-0.109, mu=2.6e38, e=5.1e15, l=0.3),
)
def test_cli_config_fuzz_ends_in_an_exit_code(tmp_path_factory, command, cfg):
    # Drawn configs, windows at most 2 wide: every run ends in exit 0, 2
    # (config error) or 3 (solver refusal) with a message, never in a
    # traceback.
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(path)])
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc:
        assert "error:" in err.getvalue() and "NaN" not in err.getvalue()


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
