"""Bistellar-flip reduction of polytope duals with replayable
equivariant-surgery certificates."""

from .complexes import (
    Complex,
    boundary_simplex,
    euler_characteristic,
    f_vector,
    has_face,
    is_boundary_of_simplex,
    is_pseudomanifold,
    join,
    link,
)
from .moves import Move, apply_move, enumerate_moves, inverse_move, is_applicable
from .polytopes import (
    DualComplexMap,
    SimplePolytope,
    corpus,
    cube_polytope,
    dual_complex,
    named_polytope,
    product,
    simplex_polytope,
)
from .quasitoric import (
    CharacteristicPair,
    check_freeness,
    cpn_pair,
    quotient_descriptor,
)
from .reduction import (
    ReductionOptions,
    ReductionResult,
    reduce_to_simplex,
    replay,
)
from .surgery import (
    SurgeryCertificate,
    build_ledger,
    psc_statement,
    verify_certificate,
)

__all__ = [
    "CharacteristicPair",
    "Complex",
    "DualComplexMap",
    "Move",
    "ReductionOptions",
    "ReductionResult",
    "SimplePolytope",
    "SurgeryCertificate",
    "apply_move",
    "boundary_simplex",
    "build_ledger",
    "check_freeness",
    "corpus",
    "cpn_pair",
    "cube_polytope",
    "dual_complex",
    "enumerate_moves",
    "euler_characteristic",
    "f_vector",
    "has_face",
    "inverse_move",
    "is_applicable",
    "is_boundary_of_simplex",
    "is_pseudomanifold",
    "join",
    "link",
    "named_polytope",
    "product",
    "psc_statement",
    "quotient_descriptor",
    "reduce_to_simplex",
    "replay",
    "simplex_polytope",
    "verify_certificate",
]

__version__ = "0.1.0"
