"""Background geometry of a rotating, charged black hole in an anti-de Sitter
universe: metric structure functions, horizon root isolation, extremality,
Komar charges, and the scalar-product positivity weight.

Conventions: geometric units, all lengths in the units of the user-supplied
AdS radius l (no internal rescaling). The cosmological constant is -3/l**2.
The horizon is the largest root of the quartic Delta_r; the structure function
Delta_theta never vanishes for a**2 < l**2.
"""

from dataclasses import dataclass, fields
from functools import lru_cache
import math

import numpy as np


class InputError(ValueError):
    """An input the caller must mend; the CLI exits 2 with a config error."""


class Refusal(ValueError):
    """Inputs the solver declines; the CLI exits 3 with a solver error."""


class NoHorizon(Refusal):
    """Raised when Delta_r has no real root, i.e. m < m_ext, or when its
    outer root cannot be bracketed before Delta_r overflows."""


class InvalidRoots(InputError):
    """Raised when a root pair does not correspond to admissible parameters."""


class OutsideExterior(Refusal):
    """Raised when a radius below the outer horizon is passed to an
    exterior-only quantity."""


def require_finite(obj):
    """Raise InputError naming the first non-finite field of a dataclass."""
    for f in fields(obj):
        val = getattr(obj, f.name)
        if not math.isfinite(val):
            raise InputError(f"{f.name} must be finite, got {val}")


@dataclass(frozen=True)
class BlackHoleParams:
    """Black-hole parameter set (m, a, q_e, q_m, l).

    m is the mass parameter, a the rotation parameter, q_e/q_m the electric
    and magnetic charge parameters, l > 0 the AdS radius. Requires a**2 < l**2
    so that xi > 0 (this is also what makes the positivity weight bound < 1).
    """

    m: float
    a: float
    q_e: float = 0.0
    q_m: float = 0.0
    l: float = 1.0

    def __post_init__(self):
        require_finite(self)
        # a, l and the charges enter Delta_r squared (m only linearly; a
        # huge m is refused by find_horizons when its bracket overflows).
        squares = {
            "a**2": self.a * self.a,
            "l**2": self.l * self.l,
            "q_e**2 + q_m**2": self.q_e * self.q_e + self.q_m * self.q_m,
        }
        for name, sq in squares.items():
            if not math.isfinite(sq):
                raise InputError(f"{name} overflows; the parameters are too large")
        if not self.l > 0:
            raise InputError("AdS radius l must be positive")
        if not self.a**2 < self.l**2:
            raise InputError("need a**2 < l**2")

    @property
    def xi(self):
        """Rotational deformation factor 1 - a**2/l**2."""
        return 1.0 - (self.a / self.l) ** 2

    @property
    def z2(self):
        """Combined squared charge q_e**2 + q_m**2."""
        return self.q_e**2 + self.q_m**2


@dataclass(frozen=True)
class HorizonData:
    """Real roots of Delta_r. r_plus is the outer horizon (largest root);
    r_minus is the next one down (present when the quartic has two real
    roots, possibly 0). extremal marks a double outer root."""

    r_plus: float
    r_minus: float | None
    all_real_roots: tuple
    extremal: bool


def delta_r(p, r):
    """Quartic structure function (r**2+a**2)(1+r**2/l**2) - 2 m r + z**2."""
    return (r * r + p.a * p.a) * (1.0 + (r / p.l) ** 2) - 2.0 * p.m * r + p.z2


def delta_r_prime(p, r):
    """d/dr of delta_r; strictly increasing in r, so the quartic has exactly
    one critical point on r >= 0."""
    return 4.0 * r**3 / p.l**2 + 2.0 * (1.0 + (p.a / p.l) ** 2) * r - 2.0 * p.m


def delta_theta(p, theta):
    """Angular structure function 1 - (a**2/l**2) cos(theta)**2, in [xi, 1];
    vectorized over theta."""
    return 1.0 - (p.a / p.l) ** 2 * np.cos(theta) ** 2


def extremal_mass(a, z2, l):
    """Closed-form extremal mass: the m at which the two positive roots of
    Delta_r merge. Evaluates

        (l/(3 sqrt 6)) (s + 2a^2/l^2 + 2) sqrt(s - a^2/l^2 - 1),
        s = sqrt((1 + a^2/l^2)^2 + 12 (a^2 + z2)/l^2).
    """
    if not l > 0:
        raise InputError("l must be positive")
    if not a * a < l * l:
        raise InputError("need a**2 < l**2")
    if z2 < 0:
        raise InputError("z2 must be nonnegative")
    al2 = (a / l) ** 2
    s = math.sqrt((1.0 + al2) ** 2 + 12.0 * (a * a + z2) / l**2)
    # s - al2 - 1 >= 0 always (equality only when a = z2 = 0); clamp rounding.
    inner = max(s - al2 - 1.0, 0.0)
    return (l / (3.0 * math.sqrt(6.0))) * (s + 2.0 * al2 + 2.0) * math.sqrt(inner)


def _coefficient_scale(p):
    """max(1, |coefficients|) of the quartic, for scaled residual tests."""
    return max(
        1.0,
        1.0 / p.l**2,
        1.0 + (p.a / p.l) ** 2,
        2.0 * abs(p.m),
        p.a**2 + p.z2,
    )


def _bisect_root(f, lo, hi, tol=1e-14):
    """Plain bisection for a bracketed sign change; returns the midpoint."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, abs(mid)):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _newton_polish(p, r):
    for _ in range(3):
        d = delta_r_prime(p, r)
        if d == 0.0:
            break
        step = delta_r(p, r) / d
        r -= step
        if abs(step) < 1e-16 * max(1.0, abs(r)):
            break
    return r


@lru_cache(maxsize=256)
def find_horizons(p):
    """Isolate the real roots of Delta_r.

    Delta_r' is strictly increasing, so on r >= 0 the quartic falls to a
    single minimum at r_c and rises again; all real roots are nonnegative
    (Delta_r is decreasing on r <= 0 with Delta_r(0) = a**2 + z**2 >= 0).
    Bracketing on [0, r_max] with bisection to 1e-14 and a Newton polish.
    r_max starts from the smaller of the AdS scale l (1 + 2 sqrt(m l)) and
    the mass scale 2 m, plus |a| + 1, and doubles until Delta_r > 0 and
    Delta_r' > 0 there, which puts it above r_plus (Delta_r' increasing).

    Raises NoHorizon when the minimum is positive (m below the extremal mass).
    Declares extremal when the two roots agree within 1e-8 relative.
    """
    m = max(p.m, 0.0)
    if not math.isfinite(2.0 * m):  # the mass scale; Delta_r holds -2 m r
        raise NoHorizon(f"2 m overflows at m = {m:.3g}")
    r_max = min(p.l * (1.0 + 2.0 * math.sqrt(m * p.l)), 2.0 * m) + abs(p.a) + 1.0
    try:
        while delta_r_prime(p, r_max) <= 0.0 or delta_r(p, r_max) <= 0.0:
            r_max *= 2.0
    except OverflowError:
        raise NoHorizon(f"Delta_r overflows at r = {r_max:.3g} bracketing r_plus") from None
    scale = _coefficient_scale(p)

    if delta_r_prime(p, 0.0) >= 0.0:
        # No interior minimum on r > 0 (only possible for m <= 0).
        raise NoHorizon("Delta_r has no positive root for these parameters")
    r_c = _bisect_root(lambda r: delta_r_prime(p, r), 0.0, r_max)
    v_c = delta_r(p, r_c)

    if v_c > 1e-12 * scale:
        raise NoHorizon(
            "Delta_r > 0 everywhere (m below the extremal mass for a, z, l)"
        )
    if v_c > -1e-15 * scale:
        # Grazing double root at the minimum.
        return HorizonData(r_c, r_c, (r_c, r_c), True)

    # Every real root is nonnegative, but with a = 0 and a tiny z2 the polish
    # can step a root within rounding of 0 to a tiny negative value.
    r_minus = max(_newton_polish(p, _bisect_root(lambda r: delta_r(p, r), 0.0, r_c)), 0.0)
    r_plus = _newton_polish(p, _bisect_root(lambda r: delta_r(p, r), r_c, r_max))
    if r_plus < r_minus:
        r_plus, r_minus = r_minus, r_plus
    extremal = (r_plus - r_minus) <= 1e-8 * max(abs(r_plus), 1e-300)
    return HorizonData(r_plus, r_minus, (r_minus, r_plus), extremal)


def komar(p):
    """Physical (Komar) charges (M, J, Q_e, Q_m) = (m, a m, q_e, q_m) scaled
    by powers of xi."""
    return (p.m / p.xi**2, p.a * p.m / p.xi**2, p.q_e / p.xi, p.q_m / p.xi)


def reparameterize(r_plus, r_minus, a, l):
    """Map a root pair (r_plus, r_minus) back to (m, z2).

    Inverse of find_horizons: matching the factored quartic
    (1/l^2)(r - r_plus)(r - r_minus)(r^2 + (r_plus + r_minus) r + c),
    c = r_plus^2 + r_minus^2 + r_plus r_minus + a^2 + l^2, against the
    monomial coefficients gives

        m  = (r_plus + r_minus)(r_plus^2 + r_minus^2 + a^2 + l^2) / (2 l^2)
        z2 = r_plus r_minus (r_plus^2 + r_minus^2 + r_plus r_minus
             + a^2 + l^2) / l^2 - a^2.

    Raises InvalidRoots when the resulting z2 is negative or a^2 >= l^2.
    """
    if r_minus > r_plus:
        raise InvalidRoots("need r_plus >= r_minus")
    if r_minus < 0.0:
        raise InvalidRoots("roots must be nonnegative")
    if not a * a < l * l:
        raise InvalidRoots("need a**2 < l**2")
    m = (r_plus + r_minus) * (r_plus**2 + r_minus**2 + a * a + l * l) / (2.0 * l * l)
    z2 = (
        r_plus
        * r_minus
        * (r_plus**2 + r_minus**2 + r_plus * r_minus + a * a + l * l)
        / (l * l)
        - a * a
    )
    if z2 < -1e-12 * max(1.0, a * a):
        raise InvalidRoots("root pair implies negative squared charge")
    return m, max(z2, 0.0)


def alpha_weight(p, r, theta):
    """Positivity weight alpha(r, theta) =
    (sqrt(Delta_r)/sqrt(Delta_theta)) * a sin(theta) / (r^2 + a^2),
    defined on the exterior r >= r_plus; bounded by sqrt(h(r_plus)) < 1, where
    h(r) = (a^2/l^2)(r^2 + l^2)/(r^2 + a^2) decreases in r."""
    hd = find_horizons(p)
    if r < hd.r_plus * (1.0 - 1e-12):
        raise OutsideExterior("alpha weight is defined for r >= r_plus")
    dr = max(delta_r(p, r), 0.0)
    return (
        math.sqrt(dr)
        / math.sqrt(delta_theta(p, theta))
        * p.a
        * math.sin(theta)
        / (r * r + p.a**2)
    )


def horizon_slope(p):
    """(r_plus^2 + a^2) / Delta_r'(r_plus): the rate at which the tortoise
    coordinate grows per e-fold of approach to a non-extremal horizon,
    y ~ -horizon_slope * log(r - r_plus). Reciprocal of twice the surface
    gravity."""
    hd = find_horizons(p)
    if hd.extremal:
        raise Refusal("non-extremal horizon required")
    return (hd.r_plus**2 + p.a**2) / delta_r_prime(p, hd.r_plus)
