"""Zeta function of the square lattice.

Three independent evaluation routes live here:

* a closed form t e^{-F(t)} / (u (1-u^2)) built from theta constants and the
  complete elliptic integral (`surface`, `special`),
* direct quadrature of the log-determinant over the torus (`oracles`),
* an exact rational power series from closed-walk combinatorics
  (`powerseries`, `expansions`),

together with finite grid/torus graphs whose normalized zeta functions
converge to the lattice one (`finite_graphs`), sheet navigation for the
multivalued continuation (`surface`), and a CLI front end (`cli`).
"""

from .errors import (
    BranchAmbiguityError,
    BranchCutError,
    BranchPointError,
    ConditioningError,
    DomainError,
    GridZetaError,
    InvariantError,
    IterationLimitError,
    PoleError,
    PrecisionError,
)
from .expansions import (
    closed_walk_moment,
    det_series,
    f_and_F_series,
    geodesic_counts_from_series,
    t_series_in_u,
    theta_series_exact,
    trlog_series,
    zeta_series,
    zeta_series_via_theta,
)
from .finite_graphs import (
    FiniteGraph,
    convergence_table,
    finite_functional_equation_residual,
    grid_graph,
    ihara_zeta_finite,
    normalized_log_zeta,
    torus_graph,
)
from .oracles import (
    QuadratureSpec,
    closed_walk_count_dp,
    geodesic_count_dp,
    log_det_1d_quadrature,
    log_det_torus_quadrature,
    primitive_class_count,
    zeta_via_quadrature,
    zint_identity_residual,
)
from .powerseries import ExactSeries
from .regions import RegionTag, classify_u
from .special import (
    agm,
    elliptic_k,
    modulus_from_t,
    modulus_from_u,
    nome_t_from_u,
    theta2_sq,
    theta3,
    theta4,
    u_pair_from_t,
)
from .surface import (
    DeckWord,
    F_eval,
    SurfacePoint,
    deck_transform,
    functional_equation_residual,
    involution,
    lift_principal,
    zeta_tilde,
)

__version__ = "0.1.0"
