"""Exact wall-and-chamber computations for the K3^[n] lattice family.

The package computes, in exact integer/rational arithmetic: discriminant
groups and orbit invariants of even lattices, short-vector enumeration,
wall-divisor certificates in the rank-23 family lattice L_n and its
unimodular extension, the candidate/certified wall-type tables, and the
wall-and-chamber geometry of the positive cone for a Picard sublattice
(separating walls, supporting facets with rational certificates, dual
extremal rays).
"""

from .errors import (
    ConfigurationError,
    EnumerationBudgetExceeded,
    InputError,
    InternalError,
    OnWallError,
    WallkitError,
)
from .lattice import (
    DiscriminantGroup,
    Embedding,
    IntegerLattice,
    LatticeVector,
    direct_sum,
    disc_class,
    discriminant_group,
    divisibility,
    orthogonal_complement,
    signature,
    standard_lattice,
)
from .shortvec import (
    CellBudget,
    short_vectors,
)
from .walls import (
    NContext,
    OrbitInvariants,
    WallCondition,
    WallType,
    WallWitness,
    bm_wall_test,
    certified_wall_types,
    dual_ray,
    eichler_invariants,
    eichler_transvection,
    enumerate_wall_types,
    ht_bound_ok,
    hyperbolic_T,
    isotropic_pair,
    make_context,
    markman_wall_test,
    same_orbit,
    wall_test,
    wall_type_exists,
)
from .chambers import (
    ExtremalRay,
    PicardData,
    SupportResult,
    Wall,
    extremal_rays,
    in_dual_cone,
    is_positive_class,
    supporting_walls_report,
    walls_between,
)
from .catalog import (
    FixtureReport,
    list_fixtures,
    load_fixture,
    verify_fixture,
)

__version__ = "1.0.0"

__all__ = [
    "CellBudget",
    "ConfigurationError",
    "DiscriminantGroup",
    "Embedding",
    "EnumerationBudgetExceeded",
    "ExtremalRay",
    "FixtureReport",
    "InputError",
    "IntegerLattice",
    "InternalError",
    "LatticeVector",
    "NContext",
    "OnWallError",
    "OrbitInvariants",
    "PicardData",
    "SupportResult",
    "Wall",
    "WallCondition",
    "WallType",
    "WallWitness",
    "WallkitError",
    "bm_wall_test",
    "certified_wall_types",
    "direct_sum",
    "disc_class",
    "discriminant_group",
    "divisibility",
    "dual_ray",
    "eichler_invariants",
    "eichler_transvection",
    "enumerate_wall_types",
    "extremal_rays",
    "ht_bound_ok",
    "hyperbolic_T",
    "in_dual_cone",
    "is_positive_class",
    "isotropic_pair",
    "list_fixtures",
    "load_fixture",
    "make_context",
    "markman_wall_test",
    "orthogonal_complement",
    "same_orbit",
    "short_vectors",
    "signature",
    "standard_lattice",
    "supporting_walls_report",
    "verify_fixture",
    "wall_test",
    "wall_type_exists",
    "walls_between",
]
