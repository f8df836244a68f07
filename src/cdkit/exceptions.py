"""Exception types shared across the solver modules."""


class SolverError(Exception):
    """Base class for solver failures."""


class NonFiniteValue(SolverError):
    """An objective or gradient oracle returned a non-finite value."""


class LineSearchDivergence(SolverError):
    """A 1D search bracket expanded past the overflow threshold.

    Signals an objective that is unbounded below along the search ray,
    which violates the strict-convexity assumption on rays.
    """


class LmoFailure(SolverError):
    """The cone linear-minimization oracle failed."""


class EigFailure(LmoFailure):
    """An eigensolver did not reach the requested residual tolerance."""


class UnsupportedCone(SolverError):
    """No oracle of the requested kind exists for this cone."""


class RankTooLarge(ValueError):
    """Requested reconstruction rank is incompatible with the sketch width."""


class DegenerateSignal(ValueError):
    """An input signal has zero norm, so a relative noise level is undefined."""
