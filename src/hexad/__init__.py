"""Exact verification of the differential-cohomology hexagon on finite
simplicial complexes.

The library computes with simplicial cochains, piecewise-linear (Whitney)
forms and differential cochains over exact rational arithmetic, constructs
the nine cocycle-level hexagon maps, and machine-checks commutativity,
exactness and the descent to the classical cohomology-level hexagon.  The
real numbers are modelled by Q throughout: every map has rational
structure constants in the PL model, so each identity can be decided
exactly.
"""

from .exactalg import (
    FgAbelianGroup,
    Matrix,
    Rational,
    smith_form,
)
from .simplicial import (
    Chain,
    Cochain,
    ComplexParseError,
    InvalidComplexError,
    Ring,
    SimplicialComplex,
    catalog,
    catalog_names,
    cohomology,
    load_complex,
    validate,
)
from .plforms import (
    NotExactError,
    WhitneyForm,
    d,
    derham_cochain,
    derham_representative,
    find_primitive,
    in_omega_A,
    integrate,
    period_vector,
    whitney,
)
from .hscomplex import (
    DiffCochain,
    dhat,
    evaluate_character,
    is_cocycle,
)
from .cone import (
    ConeCochain,
    alpha_cone,
    cone_cohomology_compare,
    delta_cone,
    gamma_cone,
    les_exactness,
)
from .hexagon import (
    HexagonContext,
    check_bunke_schick,
    check_faces,
    check_induced_hexagon,
    check_main_diagonal,
    check_off_diagonal_note,
    map_I,
    map_R,
    map_a,
    map_b,
    map_beta,
    map_ch,
    map_i,
    map_iota,
    run_all_checks,
    witness_I_surjective,
    witness_R_surjective,
)
from .report import CheckReport

__all__ = [
    "Chain",
    "CheckReport",
    "Cochain",
    "ComplexParseError",
    "ConeCochain",
    "DiffCochain",
    "FgAbelianGroup",
    "HexagonContext",
    "InvalidComplexError",
    "Matrix",
    "NotExactError",
    "Rational",
    "Ring",
    "SimplicialComplex",
    "WhitneyForm",
    "alpha_cone",
    "catalog",
    "catalog_names",
    "check_bunke_schick",
    "check_faces",
    "check_induced_hexagon",
    "check_main_diagonal",
    "check_off_diagonal_note",
    "cohomology",
    "cone_cohomology_compare",
    "d",
    "delta_cone",
    "derham_cochain",
    "derham_representative",
    "dhat",
    "evaluate_character",
    "find_primitive",
    "gamma_cone",
    "in_omega_A",
    "integrate",
    "is_cocycle",
    "les_exactness",
    "load_complex",
    "map_I",
    "map_R",
    "map_a",
    "map_b",
    "map_beta",
    "map_ch",
    "map_i",
    "map_iota",
    "period_vector",
    "run_all_checks",
    "smith_form",
    "validate",
    "whitney",
    "witness_I_surjective",
    "witness_R_surjective",
]

__version__ = "0.1.0"
