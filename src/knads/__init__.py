"""Spectral toolkit for the separated massive charged Dirac equation on
rotating charged anti-de Sitter black-hole backgrounds.

Submodules:
  geometry   -- structure functions, horizons, extremality, Komar charges
  operators  -- separated angular/radial coefficient functions, tortoise maps
  classify   -- endpoint limit point / limit circle classification
  magnus     -- Magnus sweep, mesh sizing and window root finder of both solvers
  angular    -- angular eigenvalues by phase-function shooting
  radial     -- radial spectral certificates and confined-operator eigenvalues
  oracle     -- independent staggered finite-difference cross-checks
  modescan   -- coupled frequency/eigenvalue scan and periodicity verdicts
  cli        -- command-line front end
"""

__version__ = "0.1.0"

from .geometry import (
    BlackHoleParams,
    HorizonData,
    NoHorizon,
    InvalidRoots,
    OutsideExterior,
    delta_r,
    delta_theta,
    extremal_mass,
    find_horizons,
    komar,
    reparameterize,
    alpha_weight,
)
from .operators import ModeContext, dirac_d, TortoiseMap, tortoise_y, tortoise_x

__all__ = [
    "BlackHoleParams",
    "HorizonData",
    "NoHorizon",
    "InvalidRoots",
    "OutsideExterior",
    "delta_r",
    "delta_theta",
    "extremal_mass",
    "find_horizons",
    "komar",
    "reparameterize",
    "alpha_weight",
    "ModeContext",
    "dirac_d",
    "TortoiseMap",
    "tortoise_y",
    "tortoise_x",
    "__version__",
]
