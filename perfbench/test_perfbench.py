"""Tests of the benchmark's own machinery: the tracer's wrappers and step
inference, and the gates that feed fail_ratio. Fast; no workload pass."""

import importlib
import math
import os

import numpy as np
import pytest

import knads.rk as rk
import run
import workloads
from tracer import MODULES, SPANNED, Tracer, infer_steps


def _bindings():
    out = {}
    for m in MODULES:
        mod = importlib.import_module(f"knads.{m}")
        out.update({(m, k): v for k, v in vars(mod).items()})
        for name, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                out.update({(m, name, k): v for k, v in vars(obj).items()})
    return out


def test_wrappers_restore_original_bindings():
    before = _bindings()
    with Tracer() as tr:
        during = _bindings()
        changed = {k for k in before if during.get(k) is not before[k]}
        # integrate is bound in angular, radial and rk itself
        assert {("angular", "integrate"), ("radial", "integrate"), ("rk", "integrate")} <= changed
        assert ("modescan", "bisect_batched") in changed
        assert len(changed) >= len(SPANNED)
        assert tr.spans == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_rhs_evals_on_self_test_decay_batch():
    with Tracer() as tr:
        err = rk._self_test()
    assert err < 1e-10
    c = tr.counters
    attempted = c["rk.rk.steps"] + c["rk.rk.steps_rejected"]
    assert c["rk.rk.steps"] > 0
    assert c["rk.rk.rhs_evals"] == 1 + 6 * attempted
    assert c["rk.rk.rhs_rows"] == 3 * c["rk.rk.rhs_evals"]
    assert [s[0] for s in tr.spans] == ["rk.integrate"]


def test_rejected_step_inference_matches_phase_cap_case():
    def f(t, y):
        return np.stack([50.0 * np.cos(50.0 * t) * np.ones(y.shape[0]),
                         np.zeros(y.shape[0])], axis=1)

    with Tracer() as tr:
        _, ts, _ = rk.integrate(f, 0.0, 1.0, np.zeros((1, 2)), phase_cap=0.2, record=True)
    c = tr.counters
    accepted = len(ts) - 1
    attempted = (c["rk.rk.rhs_evals"] - 1) // 6
    assert c["rk.rk.steps"] == accepted
    assert c["rk.rk.steps_rejected"] == attempted - accepted
    assert c["rk.rk.steps_rejected"] > 0


def test_infer_steps_handles_empty_and_stalled_calls():
    assert infer_steps([], 0.0, 1.0, True) == (0, 0)
    assert infer_steps([0.0], 0.0, 1.0, True) == (0, 0)
    # one attempt from 0 with h = 0.5, cut short by a stall
    h = 0.5
    stages = [0.0] + [c * h for c in (0.2, 0.3, 0.8, 8 / 9, 1.0, 1.0)]
    assert infer_steps(stages, 0.0, 1.0, False) == (0, 1)


def test_stall_is_counted():
    def f(t, y):
        return np.ones_like(y)

    with Tracer() as tr:
        with pytest.raises(rk.IntegratorStall):
            rk.integrate(f, 0.0, 1.0, np.zeros((1, 1)), max_step=1e-9, max_steps=50)
    assert tr.counters["rk.stalls"] == 1
    assert not math.isnan(tr.spans[0][3])


def _pass(ops, digest="d", traced=False, per_layer=None):
    return {"ops": ops, "digest": digest, "traced": traced, "per_layer": per_layer or {},
            "wall_s": 2.0, "wall_ref_s": 2.0, "results": 4, "setup_s": 1.0,
            "setup_ref_s": 1.0, "peak_rss_mb": 80.0}


def test_failing_gate_raises_fail_ratio():
    res = workloads.PassResult()
    doc = {"rows": [], "max_rate": 0.1, "verdict": "BoundStateCandidate", "min_amplitude": 0.0}
    assert workloads.check_scan(res, doc, a=0.2) == 0
    assert res.ops[-1][:2] == ["scan", False]
    assert "verdict BoundStateCandidate" in res.ops[-1][2]
    assert not workloads._cross_check(res, "oracle", [1.0, 2.0], [1.0, 2.0 + 2e-5], 1e-5)

    good = _pass([["scan", True, ""], ["oracle", True, ""]])
    bad = _pass(res.ops)
    attempted, failed, lines = run.tally([good, bad], [])
    assert (attempted, failed) == (5, 2)
    assert any("verdict BoundStateCandidate" in line for line in lines)
    a, f, _ = run.tally([good, good], [])
    ok = run.end_to_end([good, good], [good], a, f)["ok_ratio"][0]
    worse = run.end_to_end([good, bad], [good], attempted, failed)["ok_ratio"][0]
    assert ok == 1.0 and worse == pytest.approx(0.6)


def test_determinism_mismatch_is_a_failure():
    ops = [["x", True, ""]]
    attempted, failed, lines = run.tally([_pass(ops, "a"), _pass(ops, "b")], [])
    assert (attempted, failed) == (3, 1)
    layer = {"angular.rk.rhs_evals": 10, "angular.rk_s": 1.0}
    moved = dict(layer, **{"angular.rk.rhs_evals": 11})
    slower = dict(layer, **{"angular.rk_s": 2.0})
    passes = [_pass(ops), _pass(ops, traced=True, per_layer=layer)]
    assert run.tally(passes + [_pass(ops, traced=True, per_layer=slower)], [])[1] == 0
    assert run.tally(passes + [_pass(ops, traced=True, per_layer=moved)], [])[1] == 1


def test_inputs_depend_on_the_seed_alone():
    assert run.WORKLOADS == workloads.WORKLOADS
    for w in workloads.WORKLOADS:
        assert repr(workloads.make_inputs(w, 3)) == repr(workloads.make_inputs(w, 3))
        assert repr(workloads.make_inputs(w, 3)) != repr(workloads.make_inputs(w, 4))


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "angular", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_kernel_time_uses_the_interval_and_drops_the_slowest_tenth():
    samples = [(float(t), 1.0) for t in range(10)] + [(9.5, 50.0), (20.0, 7.0)]
    assert run.kernel_time(samples, 0.0, 9.5) == 1.0
    assert run.kernel_time(samples, 19.0, 21.0) == 7.0
    with pytest.raises(ValueError):
        run.kernel_time(samples, 30.0, 31.0)


def test_times_are_scaled_to_the_reference_speed():
    k = 2.0 * run.REF_KERNEL_S  # a host at half the reference speed
    samples = [(t / 10.0, k) for t in range(100)]
    rep = {"t_spawn": 0.0, "t_ready": 1.0, "setup_s": 1.0, "t_end": 5.0, "wall_s": 4.0}
    lost = {"t_spawn": 20.0, "t_ready": 21.0, "setup_s": 1.0}
    kept, errors = run.scale_to_reference([rep, lost], samples)
    assert kept == [rep] and len(errors) == 1
    assert rep["setup_ref_s"] == pytest.approx(0.5)
    assert rep["wall_ref_s"] == pytest.approx(2.0)


def test_sampler_stops_when_told(tmp_path):
    cpu = max(os.sched_getaffinity(0))
    sampler = run.HostSampler(str(tmp_path / "samples.txt"), cpu)
    samples = sampler.stop()
    assert sampler.proc.returncode == 0
    assert samples and all(k > 0 for _, k in samples)
