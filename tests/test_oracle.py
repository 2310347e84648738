import json
import math
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from knads.angular import angular_eigenvalues
from knads.geometry import BlackHoleParams
from knads.operators import ModeContext, tortoise_map
from knads.oracle import (
    GridTooCoarse,
    discretize_angular,
    discretize_radial_confined,
    fixtures_path,
    load_fixtures,
)

ROTATING = BlackHoleParams(m=1.0, a=0.35, q_e=0.1, q_m=0.0, l=1.0)
CTX = ModeContext(mu=1.0, e=0.1, k=0.5, omega=0.3)


def case_inputs(case):
    return BlackHoleParams(**case["params"]), ModeContext(**case["ctx"])


def test_angular_second_order_convergence():
    ref = angular_eigenvalues(ROTATING, CTX, (0.5, 2.5), tol=1e-12).eigenvalues[0]
    errs = []
    for N in (400, 800, 1600):
        ev = discretize_angular(ROTATING, CTX, N).eigenvalues_in_window(0.5, 2.5)
        errs.append(abs(ev[0] - ref))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 1.7) and np.all(orders < 2.3), orders


def test_chiral_pairing_exact_in_symmetric_case():
    # mu*a = 0, omega = 0, d = 0: reflection maps the two staggered grids
    # onto each other, so the spectrum pairs off to rounding
    p = BlackHoleParams(m=1.0, a=0.0, q_e=0.0, q_m=0.0, l=1.0)
    op = discretize_angular(p, ModeContext(mu=1.0, e=0.0, k=0.5), 600)
    ev = op.eigenvalues_in_window(-4.5, 4.5)
    assert len(ev) == 8
    assert np.max(np.abs(ev + ev[::-1])) < 1e-12


def test_no_fermion_doubling():
    op = discretize_angular(ROTATING, CTX, 800)
    ev, vecs = op.eigenpairs_in_window(-4.0, 4.0)
    bal = op.component_balance(vecs)
    assert np.all(bal > 0.1) and np.all(bal < 10.0)
    # doubler modes would also show up as eigenvalues at the grid scale
    assert np.all(np.abs(ev) < 0.1 * op.matrix_norm())


def test_grid_guards():
    with pytest.raises(GridTooCoarse):
        discretize_angular(ROTATING, CTX, 150)
    with pytest.raises(GridTooCoarse):
        discretize_radial_confined(ROTATING, CTX, 1.0, 2.0, 150)
    light = ModeContext(mu=0.4, e=0.1, k=0.5)
    with pytest.raises(ValueError):
        discretize_radial_confined(ROTATING, light, 1.0, 2.0, 400)
    with pytest.raises(ValueError):
        # maps inside the infinity cutoff: x(r0) > -delta for huge r0
        discretize_radial_confined(ROTATING, CTX, 1.0, 1e6, 400, delta=1e-2)


def test_fixture_regeneration_angular():
    fx = load_fixtures()
    case = next(c for c in fx["angular"] if c["name"] == "rotating-mid")
    p, ctx = case_inputs(case)
    op = discretize_angular(p, ctx, case["N"])
    ev = op.eigenvalues_in_window(*case["window"])
    assert len(ev) == len(case["eigenvalues"])
    assert np.max(np.abs(ev - np.array(case["eigenvalues"]))) < 1e-10


def test_fixture_regeneration_radial():
    fx = load_fixtures()
    case = next(c for c in fx["radial"] if c["name"] == "radial-baseline")
    p, ctx = case_inputs(case)
    op = discretize_radial_confined(p, ctx, case["lambda"], case["r0"], case["N"])
    ev = op.eigenvalues_in_window(*case["window"])
    assert np.max(np.abs(ev - np.array(case["eigenvalues"]))) < 1e-10


def test_fixtures_against_shooting():
    fx = load_fixtures()
    for name in ("sphere-k-half", "magnetic-d-one"):
        case = next(c for c in fx["angular"] if c["name"] == name)
        p, ctx = case_inputs(case)
        sw = angular_eigenvalues(p, ctx, tuple(case["window"]))
        assert sw.count == len(case["eigenvalues"])
        assert np.max(np.abs(np.array(sw.eigenvalues) - case["eigenvalues"])) < 1e-4


def test_radial_cutoff_robustness():
    fx = load_fixtures()
    case = next(c for c in fx["radial"] if c["name"] == "radial-baseline")
    p, ctx = case_inputs(case)
    vals = []
    for delta in (1e-3, 5e-4):
        op = discretize_radial_confined(
            p, ctx, case["lambda"], case["r0"], 1500, delta=delta
        )
        vals.append(op.eigenvalues_in_window(0.5, 1.5)[0])
    assert abs(vals[0] - vals[1]) < 1e-5
    assert abs(vals[0] - case["eigenvalues"][0]) < 1e-4


def test_env_var_overrides_fixture_path(tmp_path, monkeypatch):
    alt = tmp_path / "alt.json"
    alt.write_text(json.dumps({"version": 1, "marker": True}))
    monkeypatch.setenv("KNADS_FIXTURES", str(alt))
    assert fixtures_path() == alt
    assert load_fixtures()["marker"] is True
    monkeypatch.delenv("KNADS_FIXTURES")
    assert fixtures_path().name == "fixtures.json"
    assert "angular" in load_fixtures()


def test_weights_positive_and_measure_sane():
    op = discretize_angular(ROTATING, CTX, 400)
    assert np.all(op.weights > 0.0)
    # total discrete measure approximates integral of 1/sqrt(Delta_theta)
    total = op.weights.sum()
    ths = np.linspace(1e-6, math.pi - 1e-6, 20001)
    dth = 1.0 - (ROTATING.a / ROTATING.l) ** 2 * np.cos(ths) ** 2
    want = 2.0 * np.trapezoid(1.0 / np.sqrt(dth), ths)
    assert total == pytest.approx(want, rel=1e-3)
    # radial: each component's weights approximate the length of [x(r0), -delta]
    r0, delta = 2.0, 1e-3
    op = discretize_radial_confined(ROTATING, CTX, 1.0, r0, 400, delta=delta)
    assert np.all(op.weights > 0.0)
    length = -delta - tortoise_map(ROTATING).x(r0)
    for part in (op.weights[0::2], op.weights[1::2]):
        assert part.sum() == pytest.approx(length, rel=1e-4)


def test_generate_fixtures_reproduces_the_packaged_file(tmp_path):
    # Eigenvalues to 1e-12 rather than bytes: LAPACK builds may round the
    # last bits differently.
    script = Path(__file__).resolve().parents[1] / "scripts" / "generate_fixtures.py"
    out = tmp_path / "fixtures.json"
    subprocess.run([sys.executable, str(script), str(out)], check=True, capture_output=True)
    got, want = load_fixtures(out), load_fixtures()
    assert got.keys() == want.keys() and got["grid_n"] == want["grid_n"]
    for kind in ("angular", "radial"):
        assert len(got[kind]) == len(want[kind])
        for g, w in zip(got[kind], want[kind]):
            ev_g, ev_w = g.pop("eigenvalues"), w.pop("eigenvalues")
            assert g == w and len(ev_g) == len(ev_w), w["name"]
            assert np.max(np.abs(np.subtract(ev_g, ev_w)), initial=0.0) <= 1e-12, w["name"]
