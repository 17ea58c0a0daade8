"""Exact volumes and mixed volumes of normal complexes of marked fans.

The package constructs normal complexes of marked simplicial fans,
computes their (mixed) volumes by several independent exact algorithms,
builds Bergman fans of matroids, and verifies Alexandrov-Fenchel and
log-concavity properties with rational arithmetic throughout.
"""

from .errors import NormalVolError
from .fan import MarkedFan, build_fan, fan_to_json, is_tropical
from .normalcx import (
    Context,
    classify_z,
    find_cubical,
    mvol_polarization_oracle,
    mvol_recursive,
    vol_polynomial,
    vol_recursive,
    w_vector,
)
from .chow import deg_product, deg_products
from .matroid import (
    Matroid,
    alpha_beta_z,
    bergman_fan,
    char_poly,
    e0_inner_product,
    from_flats,
    graphic,
    linear,
    uniform,
)
from .af import af_check, check_reduce_conditions, hrw_verify

__all__ = [
    "NormalVolError",
    "MarkedFan",
    "build_fan",
    "fan_to_json",
    "is_tropical",
    "Context",
    "classify_z",
    "find_cubical",
    "w_vector",
    "vol_recursive",
    "vol_polynomial",
    "mvol_recursive",
    "mvol_polarization_oracle",
    "deg_product",
    "deg_products",
    "Matroid",
    "from_flats",
    "uniform",
    "graphic",
    "linear",
    "char_poly",
    "bergman_fan",
    "e0_inner_product",
    "alpha_beta_z",
    "af_check",
    "check_reduce_conditions",
    "hrw_verify",
]

__version__ = "0.1.0"
