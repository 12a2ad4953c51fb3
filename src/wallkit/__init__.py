"""Exact wall-and-chamber computations for the K3^[n] lattice family.

The package computes, in exact integer/rational arithmetic: divisibility
and Eichler-orbit invariants of classes in the rank-23 family lattice L_n,
short-vector enumeration, wall-divisor certificates in L_n and its
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
    Embedding,
    IntegerLattice,
    LatticeVector,
    direct_sum,
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
    certified_wall_orbits,
    certified_wall_types,
    dual_ray,
    eichler_invariants,
    eichler_transvection,
    enumerate_wall_types,
    ht_bound_ok,
    hyperbolic_T,
    make_context,
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
    "certified_wall_orbits",
    "certified_wall_types",
    "direct_sum",
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
    "list_fixtures",
    "load_fixture",
    "make_context",
    "orthogonal_complement",
    "short_vectors",
    "signature",
    "standard_lattice",
    "supporting_walls_report",
    "verify_fixture",
    "wall_test",
    "wall_type_exists",
    "walls_between",
]
