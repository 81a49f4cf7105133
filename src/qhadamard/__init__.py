"""Exact constructions of skew-regular quaternary Hadamard matrices and
their derived families: recursive orthogonal designs, doubled
semi-regular matrices, and maximum-excess real Hadamard matrices."""

from .field import BudgetError, FieldCtx, FieldError, make_field
from .qmatrix import (
    MatrixError,
    QMatrix,
    diag_similarity,
    gram_is_scalar,
    realify,
)
from .builder import double, skew_core, skew_regular_qhm
from .cod import (
    CODMatrix,
    certify_gram,
    cod_recurse,
    factored_summary,
)
from .excess import ExcessReport, run_pipeline
from .verify import (
    PropertyReport,
    check_skew_type,
    full_report,
)
from .matio import ParseError, parse, serialize

__all__ = [
    "BudgetError", "CODMatrix", "ExcessReport", "FieldCtx", "FieldError",
    "MatrixError", "ParseError", "PropertyReport", "QMatrix",
    "certify_gram",
    "check_skew_type",
    "cod_recurse",
    "diag_similarity", "double", "factored_summary",
    "full_report", "gram_is_scalar", "make_field",
    "parse", "realify", "run_pipeline", "serialize",
    "skew_core", "skew_regular_qhm",
]

__version__ = "0.1.0"
