import math

import numpy as np
import pytest

from knads.rk import IntegratorStall, bisect_batched, integrate


def test_exponential_decay_batch():
    rates = np.array([[0.5], [1.0], [3.0]])

    def f(t, y):
        return -rates * y

    y0 = np.ones((3, 1))
    yf, _, _ = integrate(f, 0.0, 2.0, y0, rtol=1e-11, atol=1e-13)
    exact = np.exp(-2.0 * rates)
    assert np.max(np.abs(yf - exact)) < 1e-9


def test_reverse_time_and_round_trip():
    def f(t, y):
        return np.stack([y[:, 1], -y[:, 0]], axis=1)

    y0 = np.array([[1.0, 0.0]])
    y1, _, _ = integrate(f, 0.0, math.pi / 2, y0)
    assert y1[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert y1[0, 1] == pytest.approx(-1.0, rel=1e-9)
    back, _, _ = integrate(f, math.pi / 2, 0.0, y1)
    assert np.max(np.abs(back - y0)) < 1e-8


def test_record_nodes_monotone():
    def f(t, y):
        return np.full_like(y, 2.0)

    yf, ts, ys = integrate(f, 0.0, 1.0, np.zeros((1, 1)), record=True)
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert np.all(np.diff(ts) > 0)
    assert ys.shape == (len(ts), 1, 1)
    # linear solution reproduced at every node
    assert np.max(np.abs(ys[:, 0, 0] - 2.0 * ts)) < 1e-12


def test_phase_cap_limits_single_step_motion():
    # stiff-ish rotation: without the cap the first component can jump
    def f(t, y):
        return np.stack([50.0 * np.cos(50.0 * t) * np.ones(y.shape[0]),
                         np.zeros(y.shape[0])], axis=1)

    y0 = np.zeros((1, 2))
    _, ts, ys = integrate(f, 0.0, 1.0, y0, phase_cap=0.2, record=True)
    jumps = np.abs(np.diff(ys[:, 0, 0]))
    assert np.max(jumps) <= 0.2 + 1e-12
    assert ys[-1, 0, 0] == pytest.approx(math.sin(50.0), abs=1e-6)


def test_stall_on_step_budget():
    def f(t, y):
        return np.ones_like(y)

    with pytest.raises(IntegratorStall):
        integrate(f, 0.0, 1.0, np.zeros((1, 1)), max_step=1e-9, max_steps=50)


def test_bisect_batched_cubics():
    shifts = np.linspace(-1.5, 1.5, 7)

    def fun(x):
        return (x - shifts) ** 3 + (x - shifts)

    roots = bisect_batched(fun, shifts - 2.0, shifts + 3.0, n_iter=80)
    assert np.max(np.abs(roots - shifts)) < 1e-14


def test_bisect_batched_tol_early_exit():
    calls = []

    def fun(x):
        calls.append(1)
        return x - 0.3

    bisect_batched(fun, np.array([0.0]), np.array([1.0]), n_iter=60, tol=1e-3)
    assert len(calls) < 15
