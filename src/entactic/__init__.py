"""Resource-theoretic toolkit for multipartite entanglement: geometric
measures, robustness bounds, separability certificates and the explicit
filter-and-prepare conversion channels."""

from .linalg import (
    Bipartition,
    DensityMatrix,
    PureState,
    all_bipartitions,
    apply_channel,
    is_ppt,
    partial_transpose,
    reduced_density,
    reduced_density_pure,
    schmidt_spectrum,
)
from . import catalog, conversion, ghz_symmetric, measures, witnesses

__all__ = [
    "Bipartition",
    "DensityMatrix",
    "PureState",
    "all_bipartitions",
    "apply_channel",
    "catalog",
    "conversion",
    "ghz_symmetric",
    "is_ppt",
    "measures",
    "partial_transpose",
    "reduced_density",
    "reduced_density_pure",
    "schmidt_spectrum",
    "witnesses",
]

__version__ = "0.1.0"
