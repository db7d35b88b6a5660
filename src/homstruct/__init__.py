"""Exact-rational verification and construction toolkit for Hom-algebra structures."""

from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    CheckReport,
    ConstructionError,
    DimensionError,
    FormatError,
    LinearMap,
    MissingOperationError,
    PreconditionError,
    RepresentationPresentation,
    UnboundParameterError,
    parse_algebra,
    serialize_algebra,
    substitute_params,
)

__all__ = [
    "AlgebraPresentation",
    "BilinearMap",
    "CheckReport",
    "ConstructionError",
    "DimensionError",
    "FormatError",
    "LinearMap",
    "MissingOperationError",
    "PreconditionError",
    "RepresentationPresentation",
    "UnboundParameterError",
    "parse_algebra",
    "serialize_algebra",
    "substitute_params",
]

__version__ = "0.1.0"
