import ast
import math
from pathlib import Path

import numpy as np

import knads
import knads.magnus as magnus
from knads.magnus import chandrupatla_batched


def test_chandrupatla_batched_cubics_stop_per_item():
    # the bisect_batched cubics: f(x) = (x - s)^3 + (x - s), root at s
    shifts = np.array([-1.7, 0.0, 0.3, 2.9])

    def fun(x, idx):
        d = x - shifts[idx]
        return d**3 + d

    lo, hi = shifts - 2.0, shifts + 3.0
    roots, res, slope = chandrupatla_batched(fun, lo, hi, fun(lo, np.arange(4)), fun(hi, np.arange(4)), 1e-12)
    assert np.max(np.abs(roots - shifts)) < 1e-12
    assert np.array_equal(res, fun(roots, np.arange(4)))
    # the final bracket's secant slope is f'(root) = 1
    assert np.max(np.abs(slope - 1.0)) < 1e-6
    # each item is frozen on its own bracket: alone it gives the same bits
    for i in range(4):
        k = np.array([i])
        one = chandrupatla_batched(lambda x, idx: fun(x, k[idx]), lo[k], hi[k],
                                   fun(lo[k], k), fun(hi[k], k), 1e-12)
        assert one[0][0] == roots[i] and one[1][0] == res[i] and one[2][0] == slope[i]


def test_root_finder_steps_are_bounded_where_regula_falsi_stalls():
    # exp(40 x) - 1 on [-1, 1]: regula falsi keeps the end at x = 1 and
    # creeps in from the left. The stale-bracket bisection bounds the steps
    # by _STALE_STEPS + 1 per halving of the bracket; here they stay within
    # the count of plain bisection.
    tol, calls = 1e-12, []

    def fun(x, idx):
        calls.append(x.size)
        return np.expm1(40.0 * x)

    lo, hi = np.array([-1.0]), np.array([1.0])
    root, res, _ = chandrupatla_batched(fun, lo, hi, fun(lo, 0), fun(hi, 0), tol)
    steps = len(calls) - 2
    assert abs(root[0]) < tol and res[0] == np.expm1(40.0 * root[0])
    assert steps <= (magnus._STALE_STEPS + 1) * math.ceil(math.log2(2.0 / tol))
    assert steps <= math.ceil(math.log2(2.0 / tol))


def test_no_module_imports_a_private_name_of_magnus_or_angular():
    # The Magnus machinery and the angular operator are used through their
    # public names only; modescan's attribute call angular._defect stays,
    # since the benchmark's tracer wraps it by name.
    found = []
    for path in sorted(Path(knads.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in ("magnus", "angular"):
                found += [(path.name, alias.name) for alias in node.names if alias.name.startswith("_")]
    assert found == []
