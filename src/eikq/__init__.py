"""Exact tools for polynomial solutions of the eikonal equation.

The library constructs homogeneous polynomial solutions of
|grad f|^2 = g^2 |x|^(2g-2), verifies candidate solutions exactly, and
classifies quartic solutions as primitive or isoparametric from their
normal form data.
"""

from .analysis import (
    PencilReport,
    Residual,
    ResidualSet,
    check_eikonal,
    check_munzner_second,
    check_pencil,
    check_structure_identities,
    check_system,
)
from .classifier import (
    ClassificationReport,
    classify,
    congruent_primitive,
    laplacian_signature,
)
from .constructors import (
    InfeasibleParameters,
    NormalFormData,
    assemble_from_normal_form,
    make_canonical_quartic,
    make_primitive,
    normal_form_data_from_text,
    normal_form_data_to_text,
    search_isoparametric_pencil,
)
from .matrices import RationalMatrix, cayley_orthogonal, random_rational_orthogonal
from .normalform import (
    NormalForm,
    NotEikonalEvidence,
    extract_normal_form,
    split_theta,
    sphere_maximize,
)
from .polyring import (
    Monomial,
    Polynomial,
    PolyTextError,
    evaluate,
    extend_dimension,
    gradient_inner,
    gradient_norm_sq,
    homogeneous_split,
    laplacian,
    partial_derivative,
    poly_from_text,
    poly_mul,
    poly_to_text,
    radial_power,
    rational,
    rational_from_float,
    substitute_linear,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "InfeasibleParameters",
    "Monomial",
    "NormalForm",
    "NormalFormData",
    "NotEikonalEvidence",
    "PencilReport",
    "PolyTextError",
    "Polynomial",
    "RationalMatrix",
    "Residual",
    "ResidualSet",
    "assemble_from_normal_form",
    "cayley_orthogonal",
    "check_eikonal",
    "check_munzner_second",
    "check_pencil",
    "check_structure_identities",
    "check_system",
    "classify",
    "congruent_primitive",
    "evaluate",
    "extend_dimension",
    "extract_normal_form",
    "gradient_inner",
    "gradient_norm_sq",
    "homogeneous_split",
    "laplacian",
    "laplacian_signature",
    "make_canonical_quartic",
    "make_primitive",
    "normal_form_data_from_text",
    "normal_form_data_to_text",
    "partial_derivative",
    "poly_from_text",
    "poly_mul",
    "poly_to_text",
    "radial_power",
    "random_rational_orthogonal",
    "rational",
    "rational_from_float",
    "search_isoparametric_pencil",
    "split_theta",
    "sphere_maximize",
    "substitute_linear",
    "__version__",
]
