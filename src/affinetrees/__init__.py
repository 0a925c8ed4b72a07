"""Exact constructions of free affine actions for triangular matrix
groups and wreath products on lexicographically ordered abelian groups,
with verification suites for every algebraic law involved.
"""

from .scalars import ExpSum, scalar_sign
from .trimat import TriMat, nilpotent_exp, unipotent_log
from .embedding import (
    AffineRep,
    affine_algebra_rep,
    certify_admissible,
    coord_vector,
    embed_unitriangular,
    integerize,
    is_essentially_hyperbolic,
    left_mult_matrix,
    left_mult_matrix_closed,
    left_symmetric_product,
    matrix_from_coords,
)
from .triangular import (
    TriangularElement,
    conj_coord_matrix,
    conjugate_by_diagonal,
    embed_triangular,
    is_essentially_hyperbolic_embedded,
    verify_conjugation_identities,
)
from .ordered import LexFamily, LexVec, Product, Scalars, dominates, lex_compare, lex_distance
from .actions import (
    MatrixAffineAut,
    ProductAut,
    check_affine_law,
    check_free_and_rigid,
    from_affine_matrix,
)
from .wreath import (
    MatrixBundle,
    TranslationBundle,
    WreathElem,
    WreathGroup,
    iterated_wreath,
)
from .harness import SuiteConfig, Verdict, run_suite

__all__ = [
    "AffineRep",
    "ExpSum",
    "LexFamily",
    "LexVec",
    "MatrixAffineAut",
    "MatrixBundle",
    "Product",
    "ProductAut",
    "Scalars",
    "SuiteConfig",
    "TranslationBundle",
    "TriMat",
    "TriangularElement",
    "Verdict",
    "WreathElem",
    "WreathGroup",
    "affine_algebra_rep",
    "certify_admissible",
    "check_affine_law",
    "check_free_and_rigid",
    "conj_coord_matrix",
    "conjugate_by_diagonal",
    "coord_vector",
    "dominates",
    "embed_triangular",
    "embed_unitriangular",
    "from_affine_matrix",
    "integerize",
    "is_essentially_hyperbolic",
    "is_essentially_hyperbolic_embedded",
    "iterated_wreath",
    "left_mult_matrix",
    "left_mult_matrix_closed",
    "left_symmetric_product",
    "lex_compare",
    "lex_distance",
    "matrix_from_coords",
    "nilpotent_exp",
    "run_suite",
    "scalar_sign",
    "unipotent_log",
    "verify_conjugation_identities",
]
