"""Exact constructions of skew-regular quaternary Hadamard matrices and
their derived families: recursive orthogonal designs, doubled
semi-regular matrices, and maximum-excess real Hadamard matrices."""

from .field import BudgetError, FieldCtx, FieldError, GFElement, make_field
from .qmatrix import (
    MatrixError,
    QMatrix,
    SignMatrix,
    block2,
    conj_transpose,
    diag_similarity,
    gram,
    gram_is_scalar,
    multiply,
    realify,
    row_sums,
    split_real_imag,
)
from .builder import (
    conference_matrix,
    double,
    paley_qhm,
    skew_core,
    skew_regular_qhm,
    twist_vector,
)
from .cod import CODMatrix, certify_gram, cod_base, cod_recurse, expected_row_sum
from .excess import (
    ExcessReport,
    build_triple,
    certify_weighing,
    excess,
    maximize_excess_rows,
    run_pipeline,
)
from .verify import (
    PropertyReport,
    check_quaternary_hadamard,
    check_semi_regular,
    check_skew_type,
    full_report,
)
from .matio import ParseError, parse, serialize

__all__ = [
    "BudgetError", "CODMatrix", "ExcessReport", "FieldCtx", "FieldError", "GFElement",
    "MatrixError", "ParseError", "PropertyReport", "QMatrix", "SignMatrix",
    "block2", "build_triple", "certify_gram", "certify_weighing",
    "check_quaternary_hadamard", "check_semi_regular", "check_skew_type",
    "cod_base", "cod_recurse", "conference_matrix", "conj_transpose",
    "diag_similarity", "double", "excess", "expected_row_sum", "full_report",
    "gram", "gram_is_scalar", "make_field", "maximize_excess_rows", "multiply",
    "paley_qhm", "parse", "realify", "row_sums", "run_pipeline", "serialize",
    "skew_core", "skew_regular_qhm", "split_real_imag", "twist_vector",
]

__version__ = "0.1.0"
