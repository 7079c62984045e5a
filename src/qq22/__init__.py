"""Exact computation of genus-0 invariants of even (2,2) intersections.

Reconstructs all genus-zero correlators of an even n-dimensional smooth
intersection of two quadrics (n >= 4) as exact polynomials in the one
undetermined length-(n+3) correlator, checks the cutoff Euler-multiplication
semisimplicity criterion, and replays the dimension-4 conic count and its
first-order rigidity in exact rational arithmetic.
"""

from .engine import (
    CorrelatorEngine,
    DivisionGuardError,
    convergence_witness,
)
from .geometry import (
    conic_pipeline,
    conic_plane_in_conjectural_quadric,
    dual_uniqueness,
    epsilon_gram,
    intersection_dim,
    intersection_number,
    no_conic_through_meeting_points,
    only_base_plane_meets_all_windows,
    plucker_relations,
    window_sum_inequality,
)
from .matrices import mat_charpoly, mat_det, mat_nullspace, mat_rank
from .model import (
    ambient_3pt_tau,
    check_dimension,
    eta_inverse,
    eta_pairing,
    euler_field,
    t_to_tau,
)
from .polynomials import UniPoly, poly_gcd, squarefree
from .scalars import GaussianRational
from .semisimple import (
    branch_discriminant,
    closed_form_charpoly,
    cutoff_matrix,
    semisimple_scan,
    zn_minus_az_plus_1_squarefree,
)

__all__ = [
    "CorrelatorEngine",
    "DivisionGuardError",
    "GaussianRational",
    "UniPoly",
    "ambient_3pt_tau",
    "branch_discriminant",
    "check_dimension",
    "closed_form_charpoly",
    "conic_pipeline",
    "conic_plane_in_conjectural_quadric",
    "convergence_witness",
    "cutoff_matrix",
    "dual_uniqueness",
    "epsilon_gram",
    "eta_inverse",
    "eta_pairing",
    "euler_field",
    "intersection_dim",
    "intersection_number",
    "mat_charpoly",
    "mat_det",
    "mat_nullspace",
    "mat_rank",
    "no_conic_through_meeting_points",
    "only_base_plane_meets_all_windows",
    "plucker_relations",
    "poly_gcd",
    "semisimple_scan",
    "squarefree",
    "t_to_tau",
    "window_sum_inequality",
    "zn_minus_az_plus_1_squarefree",
]

__version__ = "0.1.0"
