"""Exception types shared across the solver modules, and the one check of a
count and the one check of a real-valued setting."""

import numbers


def _check_count(what, value, low):
    # a size, count or seed: an int (numpy integers included, bools not) at
    # or above its floor low
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{what} must be an int >= {low}, got {value!r}")


def _check_real(what, value, interval):
    # a real setting: an int or float (numpy reals included; bools, NaN and
    # arrays not) in interval, written as "(0, 1]": a bracket closes an end,
    # a parenthesis opens it, and an end may be inf or -inf. Returns it as a
    # Python float, the value its caller computes with, so a numpy float32
    # setting runs in float64
    low, high = (float(end) for end in interval[1:-1].split(","))
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        (low <= value if interval[0] == "[" else low < value)
        and (value <= high if interval[-1] == "]" else value < high)
    ):
        raise ValueError(f"{what} must be a number in {interval}, got {value!r}")
    return float(value)


class SolverError(Exception):
    """Base class for solver failures."""


class NonFiniteValue(SolverError):
    """An objective or gradient oracle returned a non-finite value."""


class LineSearchDivergence(SolverError):
    """A 1D search has no minimizer it can return.

    Raised when the slope bisection's bracket grows past the overflow
    threshold with the slope still negative, when an exact restriction is
    concave, or when it is linear and decreasing on an unbounded search
    line. Each signals an objective that breaks the convexity assumption or
    is unbounded below along the search ray.
    """


class EigFailure(SolverError):
    """An eigensolver did not reach the requested residual tolerance."""


class UnsupportedCone(SolverError):
    """No oracle of the requested kind exists for this cone."""


class RankTooLarge(ValueError):
    """Requested reconstruction rank is incompatible with the sketch width."""


class DegenerateSignal(ValueError):
    """An input signal has zero norm, so a relative noise level is undefined."""
