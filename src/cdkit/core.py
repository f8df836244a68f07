"""Momentum conic descent over a general convex cone.

Each iteration minimizes the objective exactly along the ray through the
current iterate, averages the gradient into a momentum vector, asks the cone
for the best unit-ball atom against that average, and line-searches along the
atom. The negative inner product between the averaged gradient and the atom
equals the dual-norm distance from the average to the dual cone, so it serves
as a computable stopping certificate: the solver stops once it drops below
sqrt(tol_eps).
"""

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .cones import Cone
from .exceptions import LineSearchDivergence, NonFiniteValue, UnsupportedCone
from .exceptions import _check_count, _check_real

BRACKET_LIMIT = 1e18


@dataclass
class ConicProgram:
    """A smooth convex objective paired with (optionally) a cone handle.

    Parameters
    ----------
    dim : int
        Ambient dimension of the oracle inputs, an int >= 1 (ValueError
        otherwise); solve requires it to equal the size of the cone's points.
    value_oracle, gradient_oracle : callable
        Evaluate f and its gradient at an ambient point.
    cone : Cone or None
        Cone handle for the conic solver; vector-space objectives used by the
        semidefinite path leave it as None.
    restriction_oracle : callable or None
        Optional exact 1D restriction: (base, direction) -> (a, b) with
        f(base + t * direction) = f(base) + a t^2 + b t. No search reads
        the constant f(base), so the oracle does not compute it; an oracle
        that returns three values fails with Python's unpacking ValueError.
        When present, ray, line, segment and greedy factor searches are
        solved in closed form; without it they bisect on the sign of the
        directional derivative, which the gradient oracle gives.

    Calls through .value/.gradient/.restriction are counted on the instance
    (see eval_counts) so runs can be compared by oracle effort.
    """

    dim: int
    value_oracle: Callable
    gradient_oracle: Callable
    cone: Cone | None = None
    restriction_oracle: Callable | None = None

    def __post_init__(self):
        _check_count("dim", self.dim, 1)
        self._counts = {"value": 0, "gradient": 0, "restriction": 0}

    def value(self, x):
        self._counts["value"] += 1
        return float(self.value_oracle(x))

    def gradient(self, x):
        self._counts["gradient"] += 1
        return np.asarray(self.gradient_oracle(x), dtype=float)

    def restriction(self, base, direction):
        if self.restriction_oracle is None:
            raise UnsupportedCone("no restriction oracle on this program")
        self._counts["restriction"] += 1
        a, b = self.restriction_oracle(base, direction)
        return float(a), float(b)

    def eval_counts(self):
        return dict(self._counts)


@dataclass
class SolverConfig:
    """Run parameters shared by the conic and semidefinite solvers.

    momentum_mode "moco" averages gradients with weight 2/(j+2), where j
    counts the visits since the average last restarted: visit 0, or the
    visit after the last committed greedy refit outside the run's last
    three refits (see sdp_solve). "cd" uses the raw current gradient.
    fw_solve runs as "cd" in either mode. With heuristic_m None every step
    searches along the atom; a positive finite heuristic_m M takes
    theta_k = 2 M / (k + 2) instead and performs no search (monotone
    descent is then not guaranteed); fw_solve rejects it.
    The scheduled steps amplify roundoff about tenfold every 5 visits: on
    the 20 random operators of the differential tests, a 1e-15 relative
    gradient perturbation moved the certificate by 1.6e-6 at visit 50.
    Reruns on one machine stay bit-identical, but a run on another BLAS can
    part from them within a few dozen visits, which is why those tests
    stop at visit 40. A greedy run whose average restarts late parts across
    BLAS builds sooner too: a fresh average weighs its few newest gradients
    heavily, so it reads sooner a roundoff difference that two runs' refits
    leave along a flat valley (see the restriction-free agreement case in
    the tests).
    tol_eps must be a number in [0, inf). greedy_period > 0 enables the
    periodic factored descent step and applies to sdp_solve only.
    max_iters must be an int >= 1, and greedy_period and rng_seed ints >= 0
    (numpy integers included, bools not). Every visit adds one record to
    the trace.
    """

    max_iters: int = 300
    tol_eps: float = 0.0
    momentum_mode: str = "moco"
    heuristic_m: float | None = None
    greedy_period: int = 0
    rng_seed: int = 0


@dataclass
class TraceRecord:
    k: int
    f_value: float
    dual_cert: float
    cs_residual: float
    eta: float
    theta: float
    wall_ms: float
    lambda_min: float | None = None


class SolveTrace(list):
    """The run's TraceRecords, one per visit: a list, indexed and iterated
    as one, whose record k is visit k.

    Under exact line search f_value is non-increasing across records.
    """

    def f_values(self):
        return np.array([r.f_value for r in self])

    def dual_certs(self):
        return np.array([r.dual_cert for r in self])

    def cs_residuals(self):
        return np.array([r.cs_residual for r in self])

    def write_csv(self, path):
        # repr() of python floats round-trips exactly, which keeps identical
        # runs byte-identical (wall_ms is excluded from that guarantee).
        lam = ",lambda_min" if any(r.lambda_min is not None for r in self) else ""
        rows = [f"k,f,dual_cert,cs,eta,theta,wall_ms{lam}\n"] + [
            f"{r.k},{float(r.f_value)!r},{float(r.dual_cert)!r},{float(r.cs_residual)!r},"
            f"{float(r.eta)!r},{float(r.theta)!r},{float(r.wall_ms)!r}"
            + (f",{float(r.lambda_min)!r}\n" if lam else "\n")
            for r in self
        ]
        with open(path, "w") as fh:
            fh.write("".join(rows))


@dataclass
class SolveResult:
    """Outcome of solve. certified_dual_cert reads trace[-1].dual_cert, the
    certificate of the visit the run ends on; the result keeps no copy."""

    final_point: np.ndarray
    status: str  # "converged" | "max_iters"
    trace: SolveTrace
    stats: dict = field(default_factory=dict)

    @property
    def certified_dual_cert(self):
        return self.trace[-1].dual_cert


def _quad_argmin_nonneg(a, b, hi=math.inf):
    # Minimize a t^2 + b t over [0, hi] for a convex restriction. Returns None
    # for a constant restriction so callers can apply their own convention.
    # A non-finite coefficient raises, as a non-finite slope does in the
    # bisection, rather than deciding the step by a NaN comparison.
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteValue(f"non-finite restriction coefficients ({a!r}, {b!r})")
    if a < 0.0:
        raise LineSearchDivergence("restriction is concave along the search line")
    if a > 0.0:
        return min(hi, max(0.0, -b / (2.0 * a)))
    if b > 0.0:
        return 0.0
    if b < 0.0:
        if hi == math.inf:
            raise LineSearchDivergence("objective is linear and unbounded on the line")
        return hi
    return None


def minimize_convex_1d(slope, hi=math.inf):
    """argmin over [0, hi] of a convex 1D function, given its derivative.

    Returns 0 when slope(0) >= 0. Otherwise it brackets a sign change of the
    slope by doubling from [0, 1], capped at hi (and returns hi when the
    slope is still <= 0 there), then bisects the bracket until its midpoint
    equals one of its ends. The result is the end with a negative slope, so
    the function there is no higher than at 0, or a point where the slope is
    exactly 0. A nonconvex function gets a local minimizer. Raises
    LineSearchDivergence when the bracket grows past BRACKET_LIMIT with the
    slope still negative, and NonFiniteValue on a non-finite slope. A hi
    that is not a number in [0, inf] raises ValueError before any slope
    call.
    """
    hi = _check_real("hi", hi, "[0, inf]")

    def check(t):
        s = float(slope(t))
        if not math.isfinite(s):
            raise NonFiniteValue(f"non-finite slope at t = {t!r}")
        return s

    if check(0.0) >= 0.0:
        return 0.0
    lo, up = 0.0, min(1.0, hi)
    s_up = check(up)
    while s_up < 0.0:
        if up >= hi:
            return hi
        if up > BRACKET_LIMIT:
            raise LineSearchDivergence("bracket grew past the overflow threshold")
        lo, up = up, min(2.0 * up, hi)
        s_up = check(up)
    while s_up > 0.0:
        mid = 0.5 * (lo + up)
        if mid == lo or mid == up:
            return lo
        s = check(mid)
        if s < 0.0:
            lo = mid
        else:
            up, s_up = mid, s
    return up


def _search(problem, base, direction, linear, flat_value, hi=math.inf):
    # argmin over t in [0, hi] of f(base + t * direction) + linear * t;
    # flat_value is the convention for a constant restriction
    if problem.restriction_oracle is not None:
        a, b = problem.restriction(base, direction)
        t = _quad_argmin_nonneg(a, b + linear, hi)
        return flat_value if t is None else t

    def slope(t):
        return float(np.vdot(problem.gradient(base + t * direction), direction)) + linear

    return minimize_convex_1d(slope, hi)


def ray_minimize(problem, x, base=None, linear=0.0):
    """argmin over eta >= 0 of f(base + eta * x) + linear * eta.

    base defaults to 0, which makes this the exact minimization along the ray
    through x. Uses the exact quadratic restriction when the program provides
    one and a bisection on the sign of the derivative otherwise. At x = 0
    with no linear term every eta gives the same value and the no-op
    convention eta = 1 applies; the same convention covers a constant
    restriction.
    """
    x = np.asarray(x, dtype=float)
    # the dot product np.linalg.norm takes, so an x whose squares underflow
    # is a zero point too
    xr = x.ravel()
    if linear == 0.0 and float(xr.dot(xr)) == 0.0:
        return 1.0
    return _search(problem, np.zeros(x.shape) if base is None else base, x, linear, 1.0)


def line_search_step(problem, base, direction, linear=0.0):
    """argmin over theta >= 0 of f(base + theta * direction) + linear * theta.

    A direction with nonnegative directional derivative yields theta = 0, so
    the searched value never rises above its value at theta = 0.
    """
    return _search(problem, base, direction, linear, 0.0)


def _check_config(config, allow_greedy):
    # returns the config to run: the one given, checked, or the defaults,
    # with each real setting the Python float its check returns
    if config is None:
        config = SolverConfig()
    if not isinstance(config, SolverConfig):
        raise TypeError(f"config must be a SolverConfig, got {type(config).__name__}")
    floors = {"max_iters": 1, "greedy_period": 0, "rng_seed": 0}
    for name, low in floors.items():
        _check_count(name, getattr(config, name), low)
    # NaN would never stop a run or make every scheduled step NaN, and
    # infinity would stop every run at once or make the first step infinite
    config = replace(config, tol_eps=_check_real("tol_eps", config.tol_eps, "[0, inf)"))
    if config.momentum_mode not in ("cd", "moco"):
        raise ValueError(f"unknown momentum mode {config.momentum_mode!r}")
    if config.heuristic_m is not None:
        m = _check_real("heuristic_m", config.heuristic_m, "(0, inf)")
        config = replace(config, heuristic_m=m)
    if config.greedy_period and not allow_greedy:
        raise ValueError("greedy steps apply to sdp_solve only")
    return config


def _counts(counted):
    # the calls the counted objects have passed so far, in one dict
    return {key: n for obj in counted for key, n in obj.eval_counts().items()}


def _descend(counted, config, it, callback, stop_at):
    """The visit loop shared by solve, sdp_solve and fw_solve.

    The loop owns the momentum average, the stop test, the trace (one
    record per visit, so trace[k].k == k), the counters and the result:
    g_avg starts at zero and each visit sets
    g_avg = (1 - delta) g_avg + delta grad, with delta = 2 / (j + 2) under
    momentum_mode "moco" and 1 under "cd". j counts the visits since the
    average last restarted: it is k until a step reports a restart at visit
    k', and k - k' - 1 after, so visit k' + 1's average is its own gradient.
    `it` carries one solver's
    iterate and per-visit math, and reports each visit's facts only by
    return value:
      evaluate() -> (f, gradient, cs, eta) at the visited point, after any
        ray rescale by eta (1 without one); cs is the complementary
        slackness residual <point, gradient> for the trace record;
      certify(g, confirm) -> (cert, lam, confirmed): the visit's
        certificate for g, the average, the eigenvalue behind it (None for
        a cone LMO), and whether the value rests on no earlier visit's
        answer (a cold start, or an exact LMO). With confirm the LMO may
        not start from an earlier visit's answer. The last visit certifies
        with confirm at once. A visit whose unconfirmed certificate would
        stop the run certifies again with confirm and stops only if that
        value still meets the bar; if not, it records that value and steps
        along the confirming atom;
      step(k, theta) -> (theta, restart): moves by theta, or by a searched
        length when theta is None, and returns the length used and whether
        the momentum average restarts after this visit. The scheduled
        theta keeps counting from visit 0;
      payload(record) -> the dict passed to callback: the visit's trace
        record under "record" plus the iterate's own state; the loop adds
        "g_avg";
      result(status, trace, stats) -> the solver's result object, which
        reads the run's certificate from trace[-1], the visit the run ends
        on.
    The run stops once the certificate reaches stop_at, which the solver
    passes in its certificate's units. Steps are searched, or scheduled
    when heuristic_m is set. Callers run _check_config before they build
    `it`, whose set-up already reads rng_seed.

    The loop builds every count in stats as a difference over the run of
    the eval_counts() of the objects in `counted`: the program's oracle
    calls for solve, and for the semidefinite solvers the objective's
    oracle calls and the operator's "gram_calls" and "adjoint_calls". So a
    total includes the calls a callback makes during the run. When the
    objects count adjoint calls, "lmo_matvecs" holds those made inside
    certify, where the Lanczos runs are the only caller: every matvec of
    every run, verification and retries included, and none of a refit's or
    a callback's. "lmo_confirmations" counts one per visit whose stop test
    ends on a confirmed value, the visit the run ends on and each rejected
    stop. Every visit but the last steps, so a run without heuristic_m
    searches trace[-1].k steps. Returns it.result of the status, the trace
    and stats.
    """
    trace = SolveTrace()
    counts0 = _counts(counted)
    lanczos = "adjoint_calls" in counts0
    lmo_matvecs = confirmations = 0
    g_avg = 0.0
    k_restart = 0  # the visit the momentum average starts from
    t_start = time.perf_counter()

    for k in range(config.max_iters + 1):
        fval, grad, cs, eta = it.evaluate()
        if not math.isfinite(fval) or not np.isfinite(grad).all():
            raise NonFiniteValue(f"non-finite objective data at iteration {k}")
        delta = 2.0 / (k - k_restart + 2.0) if config.momentum_mode == "moco" else 1.0
        # the average (1 - delta) g_avg + delta grad, summed into the first
        # product's new array: the same bits as the written-out sum, with one
        # fewer d-vector at the visit's peak, and still a new array per visit
        g_avg = (1.0 - delta) * g_avg
        g_avg += delta * grad
        del grad  # folded into g_avg: one fewer d-vector through the LMO
        last = k == config.max_iters
        # the adjoint calls certify makes are the Lanczos runs' matvecs
        before = lanczos and _counts(counted)["adjoint_calls"]
        cert, lam, confirmed = it.certify(g_avg, last)
        stop = cert <= stop_at
        confirmations += stop or last
        if stop and not confirmed:
            # stop only on a confirmed certificate
            cert, lam, confirmed = it.certify(g_avg, True)
            stop = cert <= stop_at
        lmo_matvecs += lanczos and _counts(counted)["adjoint_calls"] - before
        theta = 0.0
        if not (stop or last):
            m = config.heuristic_m
            theta, restart = it.step(k, None if m is None else 2.0 * m / (k + 2.0))
            if restart:
                k_restart = k + 1
        wall_ms = (time.perf_counter() - t_start) * 1e3
        record = TraceRecord(k, fval, cert, cs, eta, theta, wall_ms, lam)
        trace.append(record)
        if callback is not None:
            info = it.payload(record)
            info["g_avg"] = g_avg
            callback(info)
        if stop or last:
            break

    stats = {key: n - counts0[key] for key, n in _counts(counted).items()}
    stats["lmo_confirmations"] = confirmations
    if lanczos:
        stats["lmo_matvecs"] = lmo_matvecs
    return it.result("converged" if stop else "max_iters", trace, stats)


class _VectorIterate:
    """Per-visit math of momentum conic descent on a vector ConicProgram."""

    def __init__(self, problem, x):
        self.problem = problem
        self.x_next = x

    def evaluate(self):
        self.x = self.x_next
        eta = ray_minimize(self.problem, self.x)
        self.xe = eta * self.x
        fval = self.problem.value(self.xe)
        grad = self.problem.gradient(self.xe)
        return fval, grad, float(np.vdot(self.xe, grad)), eta

    def certify(self, g, confirm):
        self.v = self.problem.cone.lmo(g)
        # -<g, v> equals dist_dual(g, K*) at an exact LMO, so every value is
        # confirmed and a stopping visit needs no second call. Subtracting
        # from 0.0 keeps every nonzero value and makes the zero atom's +0.0
        return 0.0 - float(np.vdot(g, self.v)), None, True

    def step(self, k, theta):
        if theta is None:
            theta = line_search_step(self.problem, self.xe, self.v)
        # taken at the next visit: the callback still sees x_k
        self.x_next = self.xe + theta * self.v
        return theta, False

    def payload(self, record):
        return {"record": record, "x": self.x, "v": self.v}

    def result(self, status, trace, stats):
        return SolveResult(self.xe, status, trace, stats)


def solve(problem, config=None, x0=None, callback=None):
    """Run conic descent (with or without momentum) on a ConicProgram.

    Parameters
    ----------
    problem : ConicProgram
        Objective with a cone handle. A dim other than the size of the
        cone's points raises ValueError.
    config : SolverConfig
    x0 : array or None
        Start point in the cone; default is the cone's canonical start. A
        start of another shape, with a non-finite entry, or outside the cone
        up to roundoff, raises ValueError; a cone without a membership test
        raises UnsupportedCone.
    callback : callable or None
        Invoked once per iteration as callback(info) after the step size is
        known: info["record"] is the TraceRecord, info["x"] the pre-ray
        iterate x_k (the analyzed point is record.eta * x), then "v" (the
        LMO atom) and "g_avg" (the momentum vector).

    Returns a SolveResult whose final_point is the ray-minimized iterate of
    the last visit. Status "converged" means the dual certificate dropped to
    sqrt(tol_eps). stats counts the oracle calls; its "lmo_confirmations"
    is always 1, since the cone LMO is exact and only the visit the run
    ends on counts. A run searches one step per visit that steps,
    trace[-1].k of them, and none under heuristic_m.
    """
    if problem.cone is None:
        raise UnsupportedCone("solve() needs a ConicProgram with a cone handle")
    config = _check_config(config, allow_greedy=False)
    x = problem.cone.default_init()
    if problem.dim != x.size:
        raise ValueError(f"program dim {problem.dim} does not match the cone's {x.size}")
    if x0 is not None:
        x0 = np.array(x0, dtype=float)
        if x0.shape != x.shape or not (np.isfinite(x0).all() and problem.cone.contains(x0)):
            raise ValueError(f"x0 must be a point of the cone of shape {x.shape}")
        x = x0
    it = _VectorIterate(problem, x)
    return _descend((problem,), config, it, callback, math.sqrt(config.tol_eps))
