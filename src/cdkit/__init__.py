"""Projection-free conic programming with a memory-light semidefinite engine.

The solver minimizes a smooth convex function over a convex cone using only
linear minimization oracles: per iteration an exact minimization along the
current ray, a momentum average of gradients, one cone LMO call, and a line
search along the returned atom. The negative pairing of the momentum vector
with the atom is a computable distance to the dual cone and doubles as the
stopping certificate.

For semidefinite problems the matrix iterate is never stored; see cdkit.sdp.
"""

from .cones import (
    Cone,
    NonnegativeOrthant,
    PsdCone,
    SecondOrderCone,
)
from .core import (
    ConicProgram,
    SolveResult,
    SolveTrace,
    SolverConfig,
    TraceRecord,
    solve,
)
from .exceptions import (
    DegenerateSignal,
    EigFailure,
    LineSearchDivergence,
    NonFiniteValue,
    RankTooLarge,
    SolverError,
    UnsupportedCone,
)
from .sdp import (
    MeasurementOperator,
    SdpResult,
    SketchState,
    factor_to_dense,
    fw_solve,
    min_eig_lanczos,
    sdp_solve,
    sketch_reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "Cone",
    "ConicProgram",
    "DegenerateSignal",
    "EigFailure",
    "LineSearchDivergence",
    "MeasurementOperator",
    "NonFiniteValue",
    "NonnegativeOrthant",
    "PsdCone",
    "RankTooLarge",
    "SdpResult",
    "SecondOrderCone",
    "SketchState",
    "SolveResult",
    "SolveTrace",
    "SolverConfig",
    "SolverError",
    "TraceRecord",
    "UnsupportedCone",
    "factor_to_dense",
    "fw_solve",
    "min_eig_lanczos",
    "sdp_solve",
    "sketch_reconstruct",
    "solve",
]
