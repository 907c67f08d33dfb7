"""Orthogonal polynomials of complex circle measures and the SU(2)
nonlinear Fourier series that generates them."""

from .laurent import LaurentPoly, Z, ONE
from .measures import (
    CircleMeasure,
    circle_nodes,
    l_functional,
    l_functional_table,
    measure_from_json,
    pairing,
)
from .szego import (
    OrthoSystem,
    extract_coeffs,
    ladder_from_coeffs,
    monic_from_moments,
    plancherel_check,
    plancherel_table,
    verify_system,
)
from .nlfs import (
    NLFSPair,
    forward,
    layer_strip,
    layer_strip_truncated,
    measure_from_pair,
    outer_from_modulus,
    w_from_ab,
)

__version__ = "0.1.0"
