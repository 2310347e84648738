"""Spans and counters for the traced benchmark pass, gathered from outside
the package.

Nothing under src/ is edited. The tracer replaces functions at every module
attribute they are bound to (``angular`` and ``radial`` do
``from .rk import integrate``, so wrapping ``knads.rk.integrate`` alone would
see none of their calls) and puts the originals back on ``restore``.

Spans (name, binding site, start, end, parent) are kept down to
``rk.integrate`` and ``rk.bisect_batched``. Right-hand-side evaluations and
``TortoiseMap.u_of_y`` calls run 10^5 times per pass, so they are only
counted and totalled, never given spans. Spans stay in memory until
``to_json`` is called at the end of the pass.
"""

import collections
import importlib
import math
import time

# Functions that get a span, as (defining module, qualified name). Each is
# wrapped at every knads module attribute that is bound to it.
SPANNED = (
    ("cli", "main"),
    ("modescan", "coupled_scan"),
    ("modescan", "_solve_items"),
    ("angular", "angular_eigenvalues"),
    ("angular", "eigenvalues_by_label"),
    ("angular", "_defect"),
    ("radial", "hinf_eigenvalues"),
    ("radial", "_defect_hinf"),
    ("radial", "horizon_ac_certificate"),
    ("radial", "levinson_phi_plus"),
    ("radial", "horizon_oscillation"),
    ("radial", "confinement_certificate"),
    ("radial", "horizon_continuation_evidence"),
    ("operators", "TortoiseMap.__init__"),
    ("oracle", "discretize_angular"),
    ("oracle", "discretize_radial_confined"),
    ("oracle", "DiscretizedOperator.eigenvalues_in_window"),
    ("rk", "integrate"),
    ("rk", "bisect_batched"),
)
# Counted and timed per call, without spans.
COUNTED = (("operators", "TortoiseMap.u_of_y"),)
MODULES = ("cli", "modescan", "angular", "radial", "operators", "oracle",
           "geometry", "classify", "rk")

# Dormand-Prince stage offsets: stage i of a step from base t is evaluated at
# t + C[i] * h. Must match knads.rk._C.
_C1, _C5 = 0.2, 1.0


def infer_steps(ts, t0, t1, completed):
    """(accepted, rejected) steps of one rk.integrate call from the times of
    its right-hand-side calls.

    The first call is the FSAL start value at t0; every attempted step then
    makes six calls at t + C[i] h, i = 1..6, and C[5] = 1 puts the fifth at
    t + h, the base of the next step if this one is accepted. A rejected step
    is retried from the same base t, so each attempt is classified by
    whether the next one starts from the old base or from the old t + h. The
    last attempt of a call that returned normally was accepted."""
    attempts = (len(ts) - 1) // 6
    if attempts <= 0:
        return 0, 0
    hmin = 1e-14 * abs(t1 - t0)
    base = float(t0)
    accepted = 0
    for k in range(attempts):
        stage = ts[1 + 6 * k: 7 + 6 * k]
        if k + 1 == attempts:
            accepted += 1 if completed else 0
            break
        end = stage[4]
        advanced = t1 if abs(t1 - end) < hmin else end
        nxt = ts[1 + 6 * (k + 1): 7 + 6 * (k + 1)]
        # Base of the next attempt, recovered from its stages 1 and 5.
        guess = nxt[0] - (_C1 / (_C5 - _C1)) * (nxt[4] - nxt[0])
        if abs(guess - advanced) < abs(guess - base):
            accepted += 1
            base = advanced
    return accepted, attempts - accepted


class Tracer:
    """Installs span and counter wrappers on the knads modules.

    Use as a context manager; the original bindings come back on exit even
    if the traced code raised."""

    def __init__(self):
        self.spans = []  # [name, site, start, end, parent index or -1]
        self.counters = collections.Counter()
        self._stack = []  # indices of the open spans
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"knads.{m}") for m in MODULES}
        for mod, qual in SPANNED + COUNTED:
            counted_only = (mod, qual) in COUNTED
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mods[mod], cls_name)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(orig, f"{mod}.{qual}", mod, counted_only))
                continue
            orig = getattr(mods[mod], qual)
            for site, m in mods.items():
                if m.__dict__.get(qual) is orig:
                    self._patch(m, qual, self._wrap(orig, f"{mod}.{qual}", site, counted_only))
        self._stall = mods["rk"].IntegratorStall
        self._cache_start = mods["geometry"].find_horizons.cache_info()
        self._geometry = mods["geometry"]
        return self

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, site, counted_only):
        tracer = self
        if counted_only:
            def counted(obj, y, *args, **kwargs):
                t = time.perf_counter()
                try:
                    return fn(obj, y, *args, **kwargs)
                finally:
                    c = tracer.counters
                    c[f"{name}.calls"] += 1
                    c[f"{name}.points"] += int(getattr(y, "size", 1))
                    c[f"{name}_s"] += time.perf_counter() - t
            return counted

        is_integrate = name == "rk.integrate"
        is_eig = name == "oracle.DiscretizedOperator.eigenvalues_in_window"

        def spanned(*args, **kwargs):
            st = tracer._stack
            idx = len(tracer.spans)
            rec = [name, site, time.perf_counter(), math.nan, st[-1] if st else -1]
            tracer.spans.append(rec)
            st.append(idx)
            try:
                if is_integrate:
                    return tracer._integrate(fn, site, args, kwargs)
                if is_eig:
                    tracer.counters["oracle.dof"] += len(args[0].diag)
                return fn(*args, **kwargs)
            finally:
                st.pop()
                rec[3] = time.perf_counter()

        spanned.__wrapped__ = fn
        return spanned

    def _integrate(self, fn, site, args, kwargs):
        f, t0, t1 = args[0], args[1], args[2]
        ts = []
        rows = [0]

        def rhs(t, y):
            ts.append(t)
            rows[0] += y.shape[0]
            return f(t, y)

        completed = False
        try:
            out = fn(rhs, *args[1:], **kwargs)
            completed = True
            return out
        except self._stall:
            self.counters["rk.stalls"] += 1
            raise
        finally:
            acc, rej = infer_steps(ts, float(t0), float(t1), completed)
            c = self.counters
            c[f"{site}.rk.rhs_evals"] += len(ts)
            c[f"{site}.rk.rhs_rows"] += rows[0]
            c[f"{site}.rk.steps"] += acc
            c[f"{site}.rk.steps_rejected"] += rej
            c["rk.rhs_rows"] += rows[0]

    # -- results ----------------------------------------------------------

    def cache_counts(self):
        """find_horizons lru_cache (hits, misses) since install."""
        now = self._geometry.find_horizons.cache_info()
        return now.hits - self._cache_start.hits, now.misses - self._cache_start.misses

    def to_json(self):
        return {
            "spans": [list(s) for s in self.spans],
            "counters": dict(self.counters),
        }


def _sum(spans, name, site=None):
    return sum(s[3] - s[2] for s in spans if s[0] == name and (site is None or s[1] == site))


def _count(spans, name, site=None):
    return sum(1 for s in spans if s[0] == name and (site is None or s[1] == site))


def per_layer(trace, cache_hits, cache_misses):
    """Per-layer metrics of one traced pass, from its spans and counters."""
    spans, c = trace["spans"], collections.Counter(trace["counters"])

    def within(i, name):
        p = spans[i][4]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][4]
        return False

    def children_s(i):
        return sum(s[3] - s[2] for s in spans if s[4] == i)

    scans = [i for i, s in enumerate(spans) if s[0] == "modescan.coupled_scan"]
    seeds = [
        next((s for s in spans if s[4] == i and s[0] == "angular.eigenvalues_by_label"), None)
        for i in scans
    ]
    mains = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
    out = {
        "angular.window_calls": _count(spans, "angular.angular_eigenvalues"),
        "angular.window_s": _sum(spans, "angular.angular_eigenvalues"),
        "angular.by_label_calls": _count(spans, "angular.eigenvalues_by_label"),
        "angular.by_label_s": _sum(spans, "angular.eigenvalues_by_label"),
        "angular.defect_calls": _count(spans, "angular._defect"),
        "modescan.scan_s": _sum(spans, "modescan.coupled_scan"),
        "modescan.seed_s": sum(s[3] - s[2] for s in seeds if s is not None),
        "modescan.track_s": _sum(spans, "modescan._solve_items"),
        "modescan.track.defect_calls": sum(
            1 for i, s in enumerate(spans)
            if s[0] == "angular._defect" and within(i, "modescan._solve_items")
        ),
        "modescan.evidence_s": _sum(spans, "radial.horizon_continuation_evidence", "modescan"),
        "modescan.levinson_calls": _count(spans, "radial.levinson_phi_plus", "modescan"),
        "modescan.resolves": _count(spans, "angular.eigenvalues_by_label", "modescan") - len(scans),
        "radial.hinf_calls": _count(spans, "radial.hinf_eigenvalues"),
        "radial.hinf_s": _sum(spans, "radial.hinf_eigenvalues"),
        "radial.defect_calls": _count(spans, "radial._defect_hinf"),
        "radial.cert.ac_s": _sum(spans, "radial.horizon_ac_certificate"),
        "radial.cert.levinson_s": _sum(spans, "radial.levinson_phi_plus"),
        "radial.cert.oscillation_s": _sum(spans, "radial.horizon_oscillation"),
        "radial.cert.confinement_s": _sum(spans, "radial.confinement_certificate"),
        "radial.evidence_s": _sum(spans, "radial.horizon_continuation_evidence"),
        "operators.u_of_y.calls": c["operators.TortoiseMap.u_of_y.calls"],
        "operators.u_of_y.points": c["operators.TortoiseMap.u_of_y.points"],
        "operators.u_of_y_s": c["operators.TortoiseMap.u_of_y_s"],
        "operators.tortoise_builds": _count(spans, "operators.TortoiseMap.__init__"),
        "operators.tortoise_build_s": _sum(spans, "operators.TortoiseMap.__init__"),
        "geometry.find_horizons.misses": cache_misses,
        "geometry.find_horizons.hits": cache_hits,
        "oracle.build_s": _sum(spans, "oracle.discretize_angular")
        + _sum(spans, "oracle.discretize_radial_confined"),
        "oracle.eig_s": _sum(spans, "oracle.DiscretizedOperator.eigenvalues_in_window"),
        "oracle.dof": c["oracle.dof"],
        "cli.main_s": _sum(spans, "cli.main"),
        "cli.self_s": sum(spans[i][3] - spans[i][2] - children_s(i) for i in mains),
        "rk.stalls": c["rk.stalls"],
        "rk.rhs_rows": c["rk.rhs_rows"],
    }
    for site in ("angular", "radial"):
        evals = c[f"{site}.rk.rhs_evals"]
        out[f"{site}.rk.rhs_evals"] = evals
        out[f"{site}.rk.rows_per_eval"] = c[f"{site}.rk.rhs_rows"] / evals if evals else 0.0
        out[f"{site}.rk.steps"] = c[f"{site}.rk.steps"]
        out[f"{site}.rk.steps_rejected"] = c[f"{site}.rk.steps_rejected"]
        out[f"{site}.rk_s"] = _sum(spans, "rk.integrate", site)
    return out
