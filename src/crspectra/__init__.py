"""Pseudohermitian invariants and Kohn-Laplacian eigenvalue bounds.

Compute transverse curvature, the Fefferman determinant, Webster scalar
curvature and related invariants of strictly pseudoconvex hypersurfaces in
C^{n+1} (n = 1, 2) from user-supplied defining functions, evaluate sharp
upper and lower bounds for the first positive eigenvalue of the Kohn
Laplacian, and cross-check them against a desk-scale Galerkin spectral
solver.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    Decomposition,
    lower_bound,
    pullback_defining_function,
    reilly_bound,
    special_bound,
    upper_bound,
    validate_decomposition,
)
from .expressions import Expression, parse
from .frames import CRFrame, build_frame, frame_from_jet
from .jets import MAX_ORDER, Jet, jet_space
from .operators import (
    curvature_quantities,
    dbar_pairing,
    delta_tilde,
    fefferman_det_jet,
    kohn_laplacian,
    log_fefferman_jet,
    normal_derivative,
    ricci_tensor,
    sub_laplacian,
    webster_curvatures,
)
from .quadrature import (
    QuadratureRule,
    QuadratureSettings,
    build_quadrature,
    integrate,
    points_on_surface,
    project_rays,
    re_densify,
)
from .spectral import (
    MonomialBasis,
    SpectralProblem,
    SpectralReport,
    assemble,
    estimate_lambda1,
    solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
