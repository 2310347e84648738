import numpy as np
import pytest

import knads.angular as angular_mod
from knads.angular import label_brackets
from knads.geometry import BlackHoleParams, extremal_mass
from knads.modescan import _TRACK_MARGIN
from knads.operators import ModeContext


SEED = 20260815
# Criterion 8's background, mode and default grid.
P_BASE = BlackHoleParams(m=1.0, a=0.2, q_e=0.1, q_m=0.0, l=1.0)
CTX_BASE = ModeContext(mu=1.0, e=0.1, k=0.5)
GRID_81 = -2.0 + 0.05 * np.arange(81)


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def draw_nonextremal(rng, l_lo=0.7, l_hi=1.4, margin=1.05):
    """Random background safely above the extremal mass."""
    l = rng.uniform(l_lo, l_hi)
    a = rng.uniform(0.0, 0.6) * l
    q_e = rng.uniform(-0.4, 0.4)
    q_m = 0.0
    m_ext = extremal_mass(a, q_e * q_e + q_m * q_m, l)
    m = m_ext * margin + rng.uniform(0.05, 1.5)
    return BlackHoleParams(m=m, a=a, q_e=q_e, q_m=q_m, l=l)


def draw_near_extremal(rng, offset):
    """Background at m = m_ext * (1 + offset); offset may be negative."""
    l = rng.uniform(0.8, 1.2)
    a = rng.uniform(0.1, 0.5) * l
    q_e = rng.uniform(0.05, 0.3)
    m_ext = extremal_mass(a, q_e * q_e, l)
    return BlackHoleParams(m=m_ext * (1.0 + offset), a=a, q_e=q_e, q_m=0.0, l=l)


def tracking_items(first=1, every=1):
    """coupled_scan's tracking items (targets, lo, hi, domega) on criterion
    8's grid, at every every-th frequency from GRID_81[first] on."""
    labels = (-3, -2, -1, 1, 2, 3)
    ctx0 = CTX_BASE.with_omega(float(GRID_81[0]))
    targets, lo, hi = label_brackets(P_BASE, ctx0, labels)
    dom = np.repeat(GRID_81[first::every] - GRID_81[0], len(labels))
    reps = dom.size // len(labels)
    return ctx0, (np.tile(targets, reps), np.tile(lo, reps), np.tile(hi, reps), dom)


def logged_defect(monkeypatch):
    """Spies on angular._defect: the list it returns gets (lambdas, meshes)
    of every call, one mesh per row."""
    calls = []
    defect = angular_mod._defect

    def logged(p, ctx, lams, c, eps, bl, br, domega, n):
        calls.append((np.array(lams), np.broadcast_to(n, np.shape(lams)).copy()))
        return defect(p, ctx, lams, c, eps, bl, br, domega, n)

    monkeypatch.setattr(angular_mod, "_defect", logged)
    return calls


def padded(p, lo, hi, dom):
    """The brackets modescan._solve_items hands to angular.solve_items."""
    pad = np.where(dom == 0.0, 0.0, abs(p.a) * np.abs(dom) + _TRACK_MARGIN)
    return lo - pad, hi + pad
