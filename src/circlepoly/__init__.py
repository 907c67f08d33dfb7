"""Orthogonal polynomials of complex circle measures and the SU(2)
nonlinear Fourier series that generates them."""

from .laurent import LaurentPoly, Z, ONE
from .measures import (
    CircleMeasure,
    circle_nodes,
    l_functional,
    l_functional_table,
    measure_from_json,
    moment,
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
    convergence_functional,
    forward,
    from_polys,
    layer_strip,
    layer_strip_truncated,
    measure_from_pair,
    outer_from_modulus,
    to_polys,
    w_from_ab,
)
from .kernels import (
    KernelEval,
    UniversalityRecord,
    dirichlet,
    k_cd,
    k_direct,
    reproduce_check,
    universality_gap,
)
from .localparams import (
    LocalParams,
    ab_diagnostics,
    local_approx_error,
    local_params,
    zero_distance,
)

__version__ = "0.1.0"
