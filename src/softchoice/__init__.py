"""Choice-value decision making over binary, interval-graded and triplet tables."""

from .engine import (
    BinCell,
    Cell,
    CellMismatchError,
    Criterion,
    DecisionReport,
    DecisionTable,
    GradeCell,
    GreyCell,
    Method,
    NeutroCell,
    choice_values_binary,
    choice_values_grey,
    choice_values_neutrosophic,
    decide,
    rank_combined,
    rank_conservative,
    rank_optimistic,
)
from .grades import GradeScale, ScaleValidationError, UnknownGradeError, default_scale
from .grey import GreyNumber
from .neutrosophic import (
    InformationClass,
    Triplet,
    TripletAccumulator,
    classify_information,
    mean,
)
from .softset import BinaryTable, SoftSet
from .tableio import (
    ParseError,
    parse_cell,
    parse_scale,
    parse_table,
    render_report_json,
    render_report_text,
    write_binary_table,
    write_scale,
    write_table,
)

__version__ = "0.1.0"

__all__ = [
    "BinCell",
    "BinaryTable",
    "Cell",
    "CellMismatchError",
    "Criterion",
    "DecisionReport",
    "DecisionTable",
    "GradeCell",
    "GradeScale",
    "GreyCell",
    "GreyNumber",
    "InformationClass",
    "Method",
    "NeutroCell",
    "ParseError",
    "ScaleValidationError",
    "SoftSet",
    "Triplet",
    "TripletAccumulator",
    "UnknownGradeError",
    "choice_values_binary",
    "choice_values_grey",
    "choice_values_neutrosophic",
    "classify_information",
    "decide",
    "default_scale",
    "mean",
    "parse_cell",
    "parse_scale",
    "parse_table",
    "rank_combined",
    "rank_conservative",
    "rank_optimistic",
    "render_report_json",
    "render_report_text",
    "run_cli",
    "write_binary_table",
    "write_scale",
    "write_table",
]


def __getattr__(name):
    # The CLI loads on first use, so ``python -m softchoice.cli`` runs it as
    # __main__ without an earlier import, and argparse stays out of ``import softchoice``.
    if name == "run_cli":
        from .cli import run_cli
        return run_cli
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
