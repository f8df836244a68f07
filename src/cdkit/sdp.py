"""Semidefinite engine that never stores the matrix iterate.

The positive semidefinite variable X only ever enters the objective through
its measurement image, so the engine tracks three small objects instead of
X itself: the image y = apply(X), a running trace accumulator, and
(optionally) a randomized range sketch S = X @ Omega. Any data the
objective compares the image with belongs to the objective. Every solver
move is rank one or a rescaling, and each admits an exact cheap update of
all three. The matrix is recovered only on demand, as a low-rank
factorization read out of the sketch.

The linear minimization over the unit-nuclear-ball slice of the cone reduces
to a smallest-eigenvalue problem for the adjoint image of the momentum
vector, solved matrix-free by Lanczos iteration.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .core import (
    SolveTrace,
    SolverConfig,
    _check_config,
    _descend,
    _search,
    line_search_step,
    minimize_convex_1d,
    ray_minimize,
)
from .exceptions import EigFailure, RankTooLarge


@dataclass
class MeasurementOperator:
    """Linear measurements of a symmetric matrix.

    Encodes the linear map X -> (tr(G_1 X), ..., tr(G_d X)) on n x n
    matrices, so iterates live in measurement space as y = apply(X). The
    measurement count d must be an int >= 1, or ValueError is raised.

    gram(q) returns the measurement image of q q^T for a vector q of shape
    (n,), or of U U^T when given a matrix of shape (n, r).
    adjoint_matvec(p, u) applies sum_i p_i G_i to u; u may be (n,) or (n, r).
    The Lanczos LMO writes into the array it returns.
    apply_dense / adjoint_dense materialize the map on explicit matrices for
    verification at small n. Every bundled builder sets both, and they
    allocate n x n only when called; an operator built by hand may leave
    them as None.
    """

    n: int
    d: int
    gram: Callable
    adjoint_matvec: Callable
    apply_dense: Callable | None = None
    adjoint_dense: Callable | None = None

    def __post_init__(self):
        d = self.d
        if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
            raise ValueError(f"measurement count d must be an int >= 1, got {d!r}")


@dataclass
class SdpState:
    """Mutable iterate of the engine: image y = apply(X), trace, optional sketch.

    move(scale, weight, q, gram_q) applies X <- scale X + weight q q^T to all
    three: the image becomes scale y + weight gram_q, where gram_q is the
    image of q q^T, the trace scale tr + weight, and the sketch is scaled and
    gets the rank-one term when q is given. A scale of 1 skips the multiply.
    y is rebound to a new array, never updated in place, so a callback may
    keep the previous one. The greedy refit's rank-r commit goes through
    SketchState.replace instead.
    """

    y: np.ndarray
    tr: float
    sketch: "SketchState | None" = None

    def move(self, scale=1.0, weight=0.0, q=None, gram_q=None):
        y = self.y if scale == 1.0 else scale * self.y
        self.y = y if gram_q is None else y + weight * gram_q
        self.tr = scale * self.tr + weight
        if self.sketch is not None:
            if scale != 1.0:
                self.sketch.scale(scale)
            if q is not None:
                self.sketch.add_rank_one(weight, q)


# ---------------------------------------------------------------------------
# randomized range sketch


@dataclass
class SketchState:
    """Running sketch S = X @ omega for a fixed Gaussian test matrix omega."""

    omega: np.ndarray
    s: np.ndarray

    @classmethod
    def create(cls, n, size, seed=0):
        if size < 2:
            raise ValueError("sketch size must be at least 2")
        rng = np.random.default_rng(seed)
        omega = rng.standard_normal((n, size))
        return cls(omega=omega, s=np.zeros((n, size)))

    def scale(self, c):
        self.s *= c

    def add_rank_one(self, theta, q):
        q = np.asarray(q, dtype=float)
        self.s += theta * np.outer(q, q @ self.omega)

    def replace(self, t_sq, u):
        # mirrors X <- t_sq * X + u u^T
        u = np.asarray(u, dtype=float)
        self.s = t_sq * self.s + u @ (u.T @ self.omega)


def sketch_reconstruct(sketch, rank):
    """Rank-`rank` eigenvalue factorization read out of a sketch.

    Returns (u, lam) with u of shape (n, rank), orthonormal columns, and
    nonnegative eigenvalues lam, approximating X ~ u diag(lam) u^T. The
    stabilizing shift follows the usual single-pass recipe: S is perturbed by
    nu * omega with nu at the noise floor of S, the small Gram matrix
    omega^T (S + nu omega) is inverted through an eigenvalue square root, and
    nu is subtracted back off the squared singular values. Directions below
    1e-14 of the largest eigenvalue, where roundoff leaves them when X has
    low rank, are zeroed, so the factor keeps its `rank` columns. A rank
    that is not an integer >= 1 raises ValueError, and one that the sketch
    cannot resolve (size - 1 or more) raises RankTooLarge.
    """
    omega, s = sketch.omega, sketch.s
    n, size = s.shape
    if isinstance(rank, bool) or not isinstance(rank, numbers.Integral) or rank < 1:
        raise ValueError(f"reconstruction rank must be an int >= 1, got {rank!r}")
    if rank >= size - 1:
        raise RankTooLarge(
            f"rank {rank} needs a sketch larger than {size} columns"
        )
    fro = float(np.linalg.norm(s))
    if fro == 0.0:
        return np.zeros((n, rank)), np.zeros(rank)
    nu = math.sqrt(n) * np.finfo(float).eps * fro
    s_nu = s + nu * omega
    b = omega.T @ s_nu
    w, q = np.linalg.eigh(0.5 * (b + b.T))
    keep = w > w.max() * 1e-14
    e = np.zeros_like(s)
    e[:, keep] = s_nu @ (q[:, keep] / np.sqrt(w[keep]))
    u, sig, _ = np.linalg.svd(e, full_matrices=False)
    lam = np.maximum(sig**2 - nu, 0.0)
    return u[:, :rank], lam[:rank]


def factor_to_dense(u, lam):
    """Materialize u diag(lam) u^T."""
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    return (u * lam) @ u.T


# ---------------------------------------------------------------------------
# matrix-free smallest eigenpair


def min_eig_lanczos(matvec, n, seed=0, start=None):
    """Smallest eigenpair (lam, q) of a symmetric operator given as a matvec.

    Runs at most 200 Lanczos steps from a random start drawn from seed, and
    verifies the returned pair against an explicit residual. The basis is
    kept one vector per row. Each step reorthogonalizes the new vector
    against the whole basis with two classical Gram-Schmidt passes; the
    first pass also removes the parts along the current and previous basis
    vectors that the three-term recurrence would subtract, and alpha is the
    current vector's coefficient of the two passes added. The passes write
    into two buffers allocated once per run and subtract in place from the
    array matvec returned, so matvec may return one buffer that it
    overwrites on every call, but not an array it reads again. A unit warm
    start, typically the eigenvector of a nearby operator, may be given; the
    run then starts from it plus 1e-3 times the unit random vector. The random
    part gives the start a nonzero component along every eigenvector with
    probability one, so a warm start orthogonal to the bottom eigenvector
    can still find it; the random-start failure bound covers only a cold
    start (start None), not this mix. The explicit residual check proves an
    eigenpair, not that it is the smallest. One retry from a cold random
    start drawn from seed + 1 is attempted before giving up, so a warm start
    that fails falls back to the cold path.

    The bottom Ritz pair and the residual-estimate stop test run on every
    4th step, on breakdown and on the last allowed step, not on every step.
    The run stops once the residual estimate is at most 1e-8 times the scale
    max(1, max |alpha| + 2 max |beta|), and the explicit residual must then
    be within 10 times that bound. The bottom Ritz value does not increase
    with the step, so a stop up to 3 steps late only brings the value closer
    to the smallest eigenvalue. The Ritz pair comes from the LAPACK bisection
    and inverse-iteration routines (stebz, stein) called directly, which
    gives bit for bit what scipy.linalg.eigh_tridiagonal(select="i") returns
    without its per-call argument checks; a LAPACK failure raises EigFailure
    and so takes the retry. An n below 1 raises ValueError.
    """
    if n < 1:
        raise ValueError(f"operator size n must be at least 1, got {n!r}")
    try:
        return _lanczos_once(matvec, n, seed, start)
    except EigFailure:
        return _lanczos_once(matvec, n, seed + 1)


_STEBZ, _STEIN = scipy.linalg.get_lapack_funcs(("stebz", "stein"), (np.zeros(1),))

# weight of the unit random vector mixed into a warm Lanczos start
_WARM_START_MIX = 1e-3

# Lanczos steps between tridiagonal Ritz solves and residual stop tests
_RITZ_CHECK_EVERY = 4

# step cap and relative residual tolerance of every Lanczos run
_LANCZOS_MAX_STEPS = 200
_LANCZOS_TOL = 1e-8


def _tridiagonal_min_eig(d, e):
    # eigh_tridiagonal(d, e, select="i", select_range=(0, 0)) without the
    # wrapper: the same 1x1 quick exit and the same two LAPACK calls
    if d.size == 1:
        return float(d[0]), np.ones(1)
    m, w, iblock, isplit, info = _STEBZ(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        v, info = _STEIN(d, e, w[:m], iblock, isplit)
        if info == 0:
            return float(w[0]), v[:, 0]
    raise EigFailure(f"tridiagonal eigensolver failed (info {info}) at size {d.size}")


def _lanczos_once(matvec, n, seed, start=None):
    if n == 1:
        q = np.ones(1)
        lam = float(np.asarray(matvec(q)).ravel()[0])
        if not math.isfinite(lam):
            raise EigFailure("operator returned non-finite values")
        return lam, q
    rng = np.random.default_rng(seed)
    m = min(n, _LANCZOS_MAX_STEPS)
    # one Lanczos vector per row, so every step reads and writes contiguous
    # memory; rows past the last step are never read
    basis = np.empty((m, n))
    alphas = np.zeros(m)
    betas = np.zeros(m)
    # the projection coefficients and the projection of every pass are
    # written into these two buffers, which no matvec ever sees
    coef = np.empty(m)
    proj = np.empty(n)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    if start is not None:
        v = np.asarray(start, dtype=float) + _WARM_START_MIX * v
        v /= np.linalg.norm(v)
    # running max |alpha| and max |beta| for the residual scale
    alpha_max = beta_max = 0.0
    next_check = _RITZ_CHECK_EVERY - 1
    for j in range(m):
        basis[j] = v
        w = np.asarray(matvec(v), dtype=float)
        # full reorthogonalization: two classical Gram-Schmidt passes against
        # the whole basis, which keep it usable long past the point where
        # plain Lanczos loses orthogonality. The first pass also takes out
        # the v_j and v_{j-1} parts of the three-term recurrence, and alpha
        # is the v_j coefficient of both passes together. np.dot with out=
        # makes the same BLAS calls as span @ w and h @ span
        span = basis[: j + 1]
        h = coef[: j + 1]
        np.dot(span, w, out=h)
        alpha = float(h[j])
        # a non-finite entry of w makes h[j] = v @ w non-finite, so this one
        # scalar test screens the whole matvec
        if not math.isfinite(alpha):
            raise EigFailure("operator returned non-finite values")
        w -= np.dot(h, span, out=proj)
        np.dot(span, w, out=h)
        w -= np.dot(h, span, out=proj)
        alpha += float(h[j])
        alphas[j] = alpha
        if abs(alpha) > alpha_max:
            alpha_max = abs(alpha)
        beta = math.sqrt(np.dot(w, w))  # what np.linalg.norm(w) computes
        if not math.isfinite(beta):
            raise EigFailure("Lanczos residual overflowed")
        scale = max(1.0, alpha_max + 2.0 * beta_max)
        breakdown = beta <= 1e-14 * scale
        # Ritz pair and stop test only every few steps, on breakdown and on
        # the last step; a later stop only lowers the Ritz value
        if breakdown or j == next_check or j == m - 1:
            next_check = j + _RITZ_CHECK_EVERY
            lam, ritz_vec = _tridiagonal_min_eig(alphas[: j + 1], betas[:j])
            if breakdown or beta * abs(float(ritz_vec[-1])) <= _LANCZOS_TOL * scale:
                break
        betas[j] = beta
        if beta > beta_max:
            beta_max = beta
        v = w / beta
    # the loop ends at a Ritz solve: a break, or the last step, which solves
    q = ritz_vec @ basis[: j + 1]
    q /= np.linalg.norm(q)
    resid = float(np.linalg.norm(np.asarray(matvec(q), dtype=float) - lam * q))
    if resid > 10.0 * _LANCZOS_TOL * scale:
        raise EigFailure(
            f"eigenpair residual {resid:.3e} above tolerance after {j + 1} steps"
        )
    return lam, q


# ---------------------------------------------------------------------------
# rank-constrained descent on the factored family t^2 X + u u^T


# greedy refit: factor rank, inner iterations, relative stall tolerance, and
# the scale of the start perturbation
_GREEDY_RANK = 3
_GREEDY_MAX_INNER = 60
_GREEDY_REL_TOL = 1e-10
_GREEDY_PERTURB = 1e-3


def _factor_quartic(fv, gamma, y_cur, u, big_c, big_d, d):
    """Coefficients (c1, c2, c3, c4) of the greedy factor search polynomial.

    Along u - a d at a fixed scale, the image is y_cur - a C + a^2 D with
    D = gram(d) and, by polarization, C = gram(u + d) - gram(u) - D. For a
    quadratic f, three restrictions at y_cur (along -C, D and D - C) give
    h(a) - h(0) = c1 a + c2 a^2 + c3 a^3 + c4 a^4, where h adds the trace
    penalty gamma |u - a d|^2 to f of the image.
    """
    q_c, l_c, _ = fv.restriction(y_cur, -big_c)
    q_d, l_d, _ = fv.restriction(y_cur, big_d)
    q_cd, _, _ = fv.restriction(y_cur, big_d - big_c)
    return (
        l_c - 2.0 * gamma * float(np.vdot(u, d)),
        l_d + q_c + gamma * float(np.vdot(d, d)),
        q_cd - q_c - q_d,
        q_d,
    )


def _factor_slope(fv, gamma, y_cur, u, big_c, big_d, d):
    """h'(a) of the greedy factor search, for a program without a restriction.

    h and C, D are as in _factor_quartic: the gradient of f at the image
    y_cur - a C + a^2 D paired with the image's derivative 2 a D - C, plus
    the derivative of the trace penalty. No gram call is needed.
    """
    dd, ud = float(np.vdot(d, d)), float(np.vdot(u, d))

    def slope(a):
        p = fv.gradient(y_cur - a * big_c + a * a * big_d)
        return float(np.vdot(p, 2.0 * a * big_d - big_c)) + 2.0 * gamma * (a * dd - ud)

    return slope


def _quartic_argmin(c1, c2, c3, c4):
    """The a >= 0 minimizing p(a) = c1 a + c2 a^2 + c3 a^3 + c4 a^4.

    The minimum sits at 0 or at a positive stationary point, so it is the
    best of 0 and the roots of the cubic p'. Every candidate is a feasible
    point, so taking the real part of a root with roundoff in its imaginary
    part costs nothing; without a bounded minimum the best candidate is
    still a point of descent.
    """
    best_a, best_p = 0.0, 0.0
    for root in np.roots([4.0 * c4, 3.0 * c3, 2.0 * c2, c1]):
        a = float(root.real)
        if a > 0.0:
            p = a * (c1 + a * (c2 + a * (c3 + a * c4)))
            if p < best_p:
                best_a, best_p = a, p
    return best_a


def greedy_step(fv, op, gamma, state, rng):
    """Descend over matrices s X_cur + u u^T and commit only improvements.

    The scalar s >= 0 scales the whole current iterate and u is an n-by-rank
    factor, so the penalized objective and its gradient need only the current
    image, the trace accumulator, and measurement-space primitives. Inner
    iterations alternate an exact update of s (the objective restricted to s
    is a one-dimensional convex problem the restriction oracle solves in
    closed form) with a line-searched gradient step on u. Along the factor
    step the image is y - a C + a^2 D for two images C and D that each inner
    iteration builds with two gram calls. With a restriction oracle the
    objective along the step is then a quartic in the step length, minimized
    exactly over its stationary points. Without one, a bisection on the sign
    of its derivative stands in; it stops at a local minimum, which need not
    be the quartic's global one. Either search only proposes a step length,
    and the factor moves there only when one gram call and one objective
    call find a value strictly below the current one. The start point
    (s, u) = (1, 0) is stationary in u, hence the seeded random perturbation.
    The refit holds one point and commits the point it ends at, only when
    its value is strictly below the incumbent value, so the outer objective
    never increases here. A committed step's info dict carries the scale
    t_sq and the factor u, so X_new = t_sq X + u u^T can be replayed.
    """
    y0 = state.y
    tr0 = state.tr
    f0 = fv.value(y0) + gamma * tr0
    s = 1.0
    u = (
        _GREEDY_PERTURB
        * math.sqrt((1.0 + tr0) / op.n)
        * rng.standard_normal((op.n, _GREEDY_RANK))
    )

    def assemble(sv, gram_u, tr_u):
        y_new = sv * y0 + gram_u
        return fv.value(y_new) + gamma * (sv * tr0 + tr_u), y_new

    gram_u = op.gram(u)
    tr_u = float(np.vdot(u, u))
    h_cur, y_cur = assemble(s, gram_u, tr_u)
    for inner in range(_GREEDY_MAX_INNER):
        h_prev = h_cur
        # exact scale update: along s the problem is the objective restricted
        # to a ray, plus a linear trace term
        s = ray_minimize(fv, y0, gram_u, gamma * tr0)
        h_cur, y_cur = assemble(s, gram_u, tr_u)
        # line-searched gradient step on the factor
        p = fv.gradient(y_cur)
        grad_u = 2.0 * (op.adjoint_matvec(p, u) + gamma * u)
        gn = float(np.linalg.norm(grad_u))
        if gn <= 1e-14 * max(1.0, abs(h_cur)):
            break
        direction = grad_u / gn
        big_d = op.gram(direction)
        big_c = op.gram(u + direction) - gram_u - big_d
        factor = (fv, gamma, y_cur, u, big_c, big_d, direction)
        if fv.restriction_oracle is not None:
            alpha = _quartic_argmin(*_factor_quartic(*factor))
        else:
            alpha = minimize_convex_1d(_factor_slope(*factor))
        if alpha != 0.0:
            u_alpha = u - alpha * direction
            gram_alpha = op.gram(u_alpha)
            tr_alpha = float(np.vdot(u_alpha, u_alpha))
            h_alpha, y_alpha = assemble(s, gram_alpha, tr_alpha)
            if h_alpha < h_cur:
                u, gram_u, tr_u = u_alpha, gram_alpha, tr_alpha
                h_cur, y_cur = h_alpha, y_alpha
        if h_prev - h_cur <= _GREEDY_REL_TOL * max(1.0, abs(h_prev)):
            break
    info = {
        "committed": False,
        "f_before": f0,
        "f_after": f0,
        "inner_iters": inner + 1,
    }
    if h_cur < f0:
        state.y = y_cur
        state.tr = s * tr0 + tr_u
        if state.sketch is not None:
            state.sketch.replace(s, u)
        info["committed"] = True
        info["f_after"] = h_cur
        info["t_sq"] = s
        info["u"] = u
    return info


# ---------------------------------------------------------------------------
# solver loops


@dataclass
class SdpResult:
    """Outcome of sdp_solve or fw_solve.

    certified_dual_cert and final_lambda come from the last visit's Lanczos
    run, which starts cold (see sdp_solve). The trace's dual_cert and
    lambda_min columns hold warm-start values on the visits that did not
    confirm.
    """

    final_y: np.ndarray
    final_tr: float
    sketch: SketchState | None
    status: str
    trace: SolveTrace
    certified_dual_cert: float
    final_lambda: float
    stats: dict = field(default_factory=dict)


class _MeasurementIterate:
    """Iterate of the semidefinite solvers: the state (y, tr, sketch) of X.

    The visited point starts at X = 0. Subclasses supply the per-visit math
    for _descend; this base holds what sdp_solve and fw_solve share.
    """

    eta = 1.0
    greedy = None

    def __init__(self, fv, op, gamma, config, sketch_size):
        if fv.dim != op.d:
            raise ValueError("objective dimension does not match the measurement count")
        if not 0.0 <= gamma < math.inf:
            raise ValueError("trace penalty gamma must be finite and nonnegative")
        self.fv, self.op, self.gamma = fv, op, gamma
        # every Lanczos run draws its seed from this one stream. A visit's
        # run starts from the previous visit's eigenvector plus a little of
        # the seed's random vector: the momentum vector moves little between
        # visits, and a start that misses the bottom eigenvector on one visit
        # does not miss it on all. A confirming run starts from the random
        # vector alone
        self.lanczos_rng = np.random.default_rng(config.rng_seed).spawn(1)[0]
        self.lanczos_start = None
        self.lmo_matvecs = 0
        self.confirmations = 0
        sketch = None
        if sketch_size is not None:
            sketch = SketchState.create(op.n, sketch_size, seed=config.rng_seed + 1)
        self.state = SdpState(y=np.zeros(op.d), tr=0.0, sketch=sketch)
        self.greedy_events = []

    def evaluate(self):
        s = self.state
        fval = self.fv.value(s.y) + self.gamma * s.tr
        p = self.fv.gradient(s.y)
        self.cs = float(np.vdot(s.y, p)) + self.gamma * s.tr
        return fval, p

    def lmo(self, p, confirm):
        # smallest eigenpair of the adjoint image of p plus gamma I, from a
        # cold start when confirming; every matvec counts, the verification
        # and a retry's included. At gamma 0 the adjoint's own array is
        # returned: adding 0 u would change at most the sign of a zero
        adjoint, gamma = self.op.adjoint_matvec, self.gamma

        def matvec(u):
            self.lmo_matvecs += 1
            if gamma:
                return adjoint(p, u) + gamma * u
            return adjoint(p, u)

        start = None if confirm else self.lanczos_start
        lam, q = min_eig_lanczos(
            matvec,
            self.op.n,
            seed=int(self.lanczos_rng.integers(2**32)),
            start=start,
        )
        # a run from no start is cold: a confirming run, or visit 0's, which
        # has no warm start to take
        self.confirmed = start is None
        self.lanczos_start = q
        return lam, q

    def payload(self, record):
        s = self.state
        return {
            "record": record,
            "q": self.q,
            "greedy": self.greedy,
            "y": s.y,
            "tr": s.tr,
            "sketch": s.sketch,
        }

    def result(self, status, trace, cert, stats):
        stats["greedy_events"] = self.greedy_events
        stats["n_greedy_commits"] = sum(1 for e in self.greedy_events if e["committed"])
        stats["lmo_matvecs"] = self.lmo_matvecs
        stats["lmo_confirmations"] = self.confirmations
        return SdpResult(
            final_y=self.state.y,
            final_tr=self.state.tr,
            sketch=self.state.sketch,
            status=status,
            trace=trace,
            certified_dual_cert=cert,
            final_lambda=self.lam,
            stats=stats,
        )


class _SdpIterate(_MeasurementIterate):
    """Momentum conic descent with optional greedy refits, in measurement space."""

    def __init__(self, fv, op, gamma, config, sketch_size):
        super().__init__(fv, op, gamma, config, sketch_size)
        self.greedy_period = config.greedy_period
        self.rng = np.random.default_rng(config.rng_seed)

    def evaluate(self):
        s = self.state
        self.eta = ray_minimize(self.fv, s.y, linear=self.gamma * s.tr)
        if self.eta != 1.0:
            s.move(self.eta)
        self.greedy = None
        return super().evaluate()

    def certify(self, g, confirm):
        self.lam, self.q = self.lmo(g, confirm)
        return max(0.0, -self.lam)

    def step(self, k, theta):
        s = self.state
        g_atom = self.op.gram(self.q)
        if theta is None:
            theta = line_search_step(self.fv, s.y, g_atom, self.gamma)
        s.move(1.0, theta, self.q, g_atom)
        if self.greedy_period and (k + 1) % self.greedy_period == 0:
            self.greedy = greedy_step(self.fv, self.op, self.gamma, s, self.rng)
            self.greedy["k"] = k
            self.greedy_events.append(self.greedy)
        return theta


def sdp_solve(
    fv,
    op,
    gamma=0.0,
    config=None,
    sketch_size=None,
    callback=None,
):
    """Momentum conic descent on min f(apply(X)) + gamma tr(X), X psd.

    fv is the measurement-space objective (a ConicProgram with cone None and
    dim equal to op.d); the trace penalty is handled here, not inside fv.
    The dual certificate of a visit is max(0, -lambda) for the smallest
    eigenvalue lambda of the adjoint image of the momentum vector plus
    gamma I, and the run stops once it reaches sqrt(tol_eps).

    Each visit's Lanczos run after the first starts warm, from the previous
    visit's eigenvector plus a little random noise; visit 0 has no earlier
    eigenvector and starts cold. A visit whose warm certificate would stop
    the run reruns Lanczos from a cold random start and stops only if that
    confirmed certificate still reaches sqrt(tol_eps); otherwise it records
    the confirmed values and steps along the confirmed eigenvector. A stop
    on visit 0 needs no rerun. The last visit takes no step, so its only
    run is cold. Hence certified_dual_cert, final_lambda and a "converged"
    status all rest on a cold start, which the random-start failure bound
    of Lanczos covers.

    The returned state is the ray-rescaled iterate of the final visit. When
    sketch_size is set, a rank sketch of X is maintained through every move
    and returned for factorized readout. stats["lmo_matvecs"] counts the
    operator matvecs of every Lanczos run, verification, retries and cold
    confirmations included; stats["lmo_confirmations"] counts the cold
    runs that decided a stop test: one for the visit the run ends on plus
    one per rejected stop.

    callback(info) runs once per visit, after the step, with "record" (the
    TraceRecord), "q", "greedy", "y", "tr", "sketch" and "g_avg" in info.
    """
    if config is None:
        config = SolverConfig()
    _check_config(config, allow_greedy=True)
    it = _SdpIterate(fv, op, gamma, config, sketch_size)
    return it.result(*_descend(fv, config, it, callback))


class _FwIterate(_MeasurementIterate):
    """Frank-Wolfe on {X psd, tr X <= tau}: no ray rescale, no momentum."""

    def __init__(self, fv, op, gamma, config, sketch_size, tau):
        super().__init__(fv, op, gamma, config, sketch_size)
        self.tau = tau

    def certify(self, p, confirm):
        # extreme point of the set against the gradient p: tau q q^T when
        # lambda < 0, else X = 0 with q None and a zero image; the atom's
        # image is tr_atom * gram_q. The certificate is the gap
        # <p, X - atom> plus the trace term
        self.lam, q = self.lmo(p, confirm)
        if self.lam < 0.0:
            self.q, self.gram_q, self.tr_atom = q, self.op.gram(q), self.tau
        else:
            self.q, self.gram_q, self.tr_atom = None, 0.0, 0.0
        s = self.state
        y_atom = self.tr_atom * self.gram_q
        return float(np.vdot(p, s.y - y_atom)) + self.gamma * (s.tr - self.tr_atom)

    def step(self, k, theta):
        # step length in [0, 1] from the iterate toward the atom
        s, tr_atom = self.state, self.tr_atom
        direction = tr_atom * self.gram_q - s.y
        theta = _search(self.fv, s.y, direction, self.gamma * (tr_atom - s.tr), 0.0, 1.0)
        s.move(1.0 - theta, theta * tr_atom, self.q, self.gram_q)
        return theta


def fw_solve(fv, op, tau, gamma=0.0, config=None, sketch_size=None, callback=None):
    """Baseline solver on the trace-bounded set {X psd, tr X <= tau}.

    No ray rescaling and no momentum; the recorded dual_cert column holds the
    standard linearization gap <grad, X - atom>, and the run stops when the
    gap reaches tol_eps directly (the gap already has objective units). A
    tau below the trace of the true minimizer makes the optimum of this
    problem differ from the unconstrained-cone one; that is the point of the
    comparison, not a defect. A warm gap that would stop the run is
    confirmed from a cold Lanczos start as in sdp_solve, and the first and
    last visits' runs are cold, so certified_dual_cert, final_lambda and a
    "converged" status rest on a cold start. stats["lmo_matvecs"] and
    stats["lmo_confirmations"] are as in sdp_solve. A tau that is not
    positive and finite raises ValueError, and so does a config with
    heuristic_m set, since every step here is an exact search on the
    segment to the atom.

    callback(info) gets sdp_solve's keys but "g_avg"; q is None when the
    atom is X = 0.
    """
    if config is None:
        config = SolverConfig()
    if not 0.0 < tau < math.inf:
        raise ValueError("trace bound tau must be positive and finite")
    if config.heuristic_m is not None:
        raise ValueError("fw_solve takes no heuristic_m: its steps are segment searches")
    _check_config(config, allow_greedy=False)
    it = _FwIterate(fv, op, gamma, config, sketch_size, tau)
    return it.result(*_descend(fv, config, it, callback, frank_wolfe=True))
