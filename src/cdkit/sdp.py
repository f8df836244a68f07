"""Semidefinite engine that never stores the matrix iterate.

The positive semidefinite variable X only ever enters the objective through
its measurement image, so the engine tracks three small objects instead of
X itself: the image y = apply(X), a running trace accumulator, and a
randomized range sketch S = X @ Omega, which every solve keeps. Any data the
objective compares the image with belongs to the objective. Every solver
move is a rescaling plus a rank-one or low-rank term, and each admits an
exact cheap update of all three, made in one place, SdpState.move. The
matrix is recovered only on demand, as a low-rank factorization read out of
the sketch.

The linear minimization over the unit-nuclear-ball slice of the cone reduces
to a smallest-eigenvalue problem for the adjoint image of the momentum
vector, solved matrix-free by Lanczos iteration.
"""

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import (
    SolveTrace,
    _check_config,
    _descend,
    _search,
    line_search_step,
    minimize_convex_1d,
    ray_minimize,
)
from .exceptions import EigFailure, NonFiniteValue, RankTooLarge, _check_count, _check_real


@dataclass
class MeasurementOperator:
    """Linear measurements of a symmetric matrix.

    Encodes the linear map X -> (tr(G_1 X), ..., tr(G_d X)) on n x n
    matrices, so iterates live in measurement space as y = apply(X). The
    matrix side n and the measurement count d must each be an int >= 1, or
    ValueError is raised.

    The solvers touch the map only through two functions of vectors:
    gram(q) returns the measurement image of q q^T, an array of shape (d,),
    for q of shape (n,), and adjoint_matvec(p, u) returns sum_i p_i G_i u,
    of shape (n,), for p of shape (d,) and u of shape (n,). Neither is
    called with a matrix; the greedy refit maps its rank-r factor one
    column at a time. The Lanczos LMO writes into the array adjoint_matvec
    returns. The operator checks every vector its two maps receive and
    return: it rebinds gram and adjoint_matvec to maps that raise ValueError
    for a vector of any other shape and hand the given kernels C-contiguous
    float64 vectors of the checked shapes, so a kernel holds only its
    arithmetic. The maps also raise ValueError, naming the map and the
    shape it got, when a kernel returns anything but shape (d,) from gram
    or (n,) from adjoint_matvec, a scalar included. The checked gram
    returns a float64 array, the kernel's own when it returns one, else its
    output converted (a list, a float32 array), so the iterate stays
    float64; the checked adjoint_matvec returns what the kernel returns,
    which the Lanczos LMO and the refit convert as they read it. Each call
    of a checked map adds one to a count on the instance, as ConicProgram
    counts its oracle calls: eval_counts() returns {"gram_calls",
    "adjoint_calls"}, and the solvers and the greedy refit read their calls
    as differences of it. A copy made by dataclasses.replace wraps the
    checked maps it is given once more, maps every vector to the same bits
    and counts its own calls from zero; a call through it counts on the
    original as well.

    adjoint_dense(p) returns the n x n matrix sum_i p_i G_i, for dense
    checks at small n such as the benchmark's certificate check; no solver
    calls it. It raises ValueError for a p of a shape other than (d,), and
    otherwise applies the adjoint kernel given at construction, unchecked,
    to each column of the n x n identity, so every operator has the view
    and it is built from the kernel Lanczos runs on. It costs n kernel
    calls but adds nothing to eval_counts(); on a copy made by
    dataclasses.replace the kernel it was given is the original's checked
    map, so there the calls count on the original.
    """

    n: int
    d: int
    gram: Callable
    adjoint_matvec: Callable

    def __post_init__(self):
        _check_count("matrix side n", self.n, 1)
        _check_count("measurement count d", self.d, 1)
        n, d, gram, adjoint_matvec = self.n, self.d, self.gram, self.adjoint_matvec
        counts = self._counts = {"gram_calls": 0, "adjoint_calls": 0}
        self._adjoint_kernel = adjoint_matvec

        # a scalar or a (d, 1) image would broadcast into the objective's
        # arithmetic, so a kernel's output is checked as its inputs are
        def returned(name, out, size):
            if np.shape(out) != (size,):
                raise ValueError(f"{name} must return shape ({size},), got {np.shape(out)}")
            return out

        # a kernel given a q of another shape would read it flat, broadcast
        # it or index past it, so no kernel sees one. asarray with order="C"
        # keeps a 0-d array 0-d, where ascontiguousarray makes it (1,)
        def checked_gram(q):
            q = np.asarray(q, dtype=float, order="C")
            if q.shape != (n,):
                raise ValueError(f"gram needs q of shape ({n},), got {q.shape}")
            counts["gram_calls"] += 1
            return returned("gram", np.asarray(gram(q), dtype=float), d)

        def checked_adjoint_matvec(p, u):
            p = np.asarray(p, dtype=float, order="C")
            u = np.asarray(u, dtype=float, order="C")
            if p.shape != (d,) or u.shape != (n,):
                raise ValueError(
                    f"adjoint_matvec needs p of shape ({d},) and u of shape ({n},), "
                    f"got {p.shape} and {u.shape}"
                )
            counts["adjoint_calls"] += 1
            return returned("adjoint_matvec", adjoint_matvec(p, u), n)

        self.gram = checked_gram
        self.adjoint_matvec = checked_adjoint_matvec

    def eval_counts(self):
        return dict(self._counts)

    def adjoint_dense(self, p):
        p = np.asarray(p, dtype=float, order="C")
        if p.shape != (self.d,):
            raise ValueError(f"adjoint_dense needs p of shape ({self.d},), got {p.shape}")
        # each row of the identity is a C-contiguous float64 unit vector
        return np.stack([self._adjoint_kernel(p, e) for e in np.eye(self.n)], axis=1)


@dataclass
class SdpState:
    """Mutable iterate of the engine: image y = apply(X), trace and sketch.

    move(scale, weight, q, gram_q, tr_q) applies X <- scale X + weight q q^T
    to all three, for a unit vector q of shape (n,) or a factor q of shape
    (n, r): the image becomes scale y + weight gram_q, where gram_q is the
    image of q q^T, the trace scale tr + weight tr_q, where tr_q is the trace
    of q q^T (1 for a unit vector, the default), and the sketch is scaled
    and gets the term of q q^T. A scale of 1 skips the multiply, and a q of
    None adds no term. A q of any other shape, or a gram_q of a shape other
    than y's, raises ValueError before the first write, so a rejected move
    leaves y, tr and the sketch as they were.
    This is the one writer of the state: the solvers' steps, the ray rescale
    and the greedy refit's commit all go through it. y is rebound to a new
    array, never updated in place, so a callback may keep the previous one.
    """

    y: np.ndarray
    tr: float
    sketch: "SketchState"

    def move(self, scale=1.0, weight=0.0, q=None, gram_q=None, tr_q=1.0):
        q = None if q is None else _as_factor(q, len(self.sketch.s))
        if q is not None and np.shape(gram_q) != self.y.shape:
            raise ValueError(f"gram_q must have shape {self.y.shape}, got {np.shape(gram_q)}")
        if scale != 1.0:
            self.y = scale * self.y
            self.sketch.scale(scale)
        if q is not None:
            # the sum of the two terms, built on the new term's array
            new = weight * gram_q
            new += self.y
            self.y = new
            self.sketch.add_rank_one(weight, q)
        self.tr = scale * self.tr + weight * tr_q


# ---------------------------------------------------------------------------
# randomized range sketch


@dataclass
class SketchState:
    """Running sketch S = X @ omega for a fixed Gaussian test matrix omega.

    The solvers update it only through SdpState.move. An n that is not an
    int >= 1, a size that is not an int >= 3 (the fewest columns
    sketch_reconstruct reads out) or a seed that is not an int >= 0 raises
    ValueError.
    """

    omega: np.ndarray
    s: np.ndarray

    @classmethod
    def create(cls, n, size, seed=0):
        _check_count("matrix side n", n, 1)
        _check_count("sketch size", size, 3)
        _check_count("seed", seed, 0)
        rng = np.random.default_rng(seed)
        omega = rng.standard_normal((n, size))
        return cls(omega=omega, s=np.zeros((n, size)))

    def scale(self, c):
        self.s *= c

    def add_rank_one(self, theta, q):
        """S += theta q q^T omega, for q of shape (n,) or a factor of shape (n, r).

        A q of any other shape, r = 0 included, raises ValueError and leaves
        the sketch as it was.
        """
        q2 = _as_factor(q, len(self.s))
        self.s += theta * (q2 @ (q2.T @ self.omega))

    def replace(self, t_sq, u):
        # mirrors X <- t_sq * X + u u^T. No package code calls it; it stays
        # only because the benchmark's tracer hooks it by name
        u = np.asarray(u, dtype=float)
        self.s = t_sq * self.s + u @ (u.T @ self.omega)


def _as_factor(q, n):
    # q as an (n, r) factor, r >= 1: a vector is one column, so each entry
    # of its term is one product, as np.outer's
    q = np.asarray(q, dtype=float)
    if q.shape != (n,) and (q.ndim != 2 or q.shape[0] != n or q.shape[1] < 1):
        raise ValueError(f"q must have shape ({n},) or ({n}, r >= 1), got {q.shape}")
    return q.reshape(n, -1)


def sketch_reconstruct(sketch, rank):
    """Rank-`rank` eigenvalue factorization read out of a sketch.

    Returns (u, lam), approximating X ~ u diag(lam) u^T: u of shape (n, rank)
    always has orthonormal columns, a zero sketch included, and lam holds
    the squared singular values of S (omega^T S)^(-1/2), so it is
    nonnegative. The small Gram matrix omega^T S is inverted through an
    eigenvalue square root; directions below 1e-14 of its largest
    eigenvalue, where roundoff leaves them when X has low rank, are zeroed,
    so the factor keeps its `rank` columns. A rank that is not an integer
    >= 1 raises ValueError, and one that the sketch cannot resolve (size - 1
    or more) or that is above the matrix side n raises RankTooLarge.
    """
    omega, s = sketch.omega, sketch.s
    n, size = s.shape
    _check_count("reconstruction rank", rank, 1)
    if rank >= size - 1:
        raise RankTooLarge(f"rank {rank} needs a sketch larger than {size} columns")
    if rank > n:
        raise RankTooLarge(f"rank {rank} is above the matrix side n = {n}")
    b = omega.T @ s
    w, q = np.linalg.eigh(0.5 * (b + b.T))
    keep = w > w.max() * 1e-14
    e = np.zeros_like(s)
    e[:, keep] = s @ (q[:, keep] / np.sqrt(w[keep]))
    u, sig, _ = np.linalg.svd(e, full_matrices=False)
    return u[:, :rank], sig[:rank] ** 2


def factor_to_dense(u, lam):
    """Materialize u diag(lam) u^T for u of shape (n, r) and lam of shape
    (r,); other shapes raise ValueError."""
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if u.ndim != 2 or lam.shape != u.shape[1:]:
        raise ValueError(f"u must be (n, r) and lam (r,), got {u.shape} and {lam.shape}")
    return (u * lam) @ u.T


# ---------------------------------------------------------------------------
# matrix-free smallest eigenpair


def min_eig_lanczos(matvec, n, seed=0, start=None):
    """Smallest eigenpair (lam, q) of a symmetric operator given as a matvec.

    Runs at most 200 Lanczos steps from a random start drawn from seed, and
    verifies the returned pair against an explicit residual. The basis is
    kept one vector per row. Each step reorthogonalizes the new vector
    against the whole basis with one classical Gram-Schmidt pass, which
    also removes the parts along the current and previous basis vectors
    that the three-term recurrence would subtract; alpha is the current
    vector's coefficient. A second pass runs only when the new vector's
    loss of orthogonality, estimated from the pass's coefficients along
    the current and previous vectors, the norm it leaves and the estimates
    of the two earlier steps (a max-norm form of Simon's omega recurrence,
    Math. Comp. 1984), reaches sqrt(eps), the semi-orthogonality level
    that keeps the Ritz values accurate to working precision. The second
    pass's current-vector coefficient is added to alpha. The passes write
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

    The bottom Ritz pair and the residual-estimate stop test run on
    scheduled steps, on breakdown and on the last allowed step, not on every
    step. The first check is on step 4. After a check that does not stop,
    the next one comes 4 steps later, unless the estimate fell since the
    previous check: then the decay rate per step between the two checks
    places the next check half way to the step where the estimate would
    meet the tolerance, 1 to 12 steps later. The schedule reads only the
    run's own numbers, so a rerun repeats it. The run stops once the
    residual estimate is at most 1e-8 times the scale
    max(1, max |alpha| + 2 max |beta|), and the explicit residual must then
    be within 10 times that bound. So a run stops at a checked step whose
    estimate passes; the estimate is not monotone, so that step may come
    several steps after the first step whose estimate passes. The bottom
    Ritz value does not increase with the step, so the returned value is no
    higher than at any earlier step. The Ritz pair comes from the LAPACK
    bisection and inverse-iteration routines (stebz, stein) called
    directly, which gives bit for bit what
    scipy.linalg.eigh_tridiagonal(select="i") returns without its per-call
    argument checks; a LAPACK failure raises EigFailure and so takes the
    retry. scipy.linalg, which holds the two routines, is imported on the
    first Ritz solve of the process, or earlier, when a semidefinite solve
    builds its iterate. An n that is not an int >= 1, a seed that is not an
    int >= 0, or a start that is not a finite array of shape (n,), raises
    ValueError before any matvec. A matvec that returns anything but an
    array of shape (n,), a column (n, 1) or a scalar included, raises
    ValueError naming the shape it returned; the retry does not catch it.
    """
    _check_count("operator size n", n, 1)
    _check_count("seed", seed, 0)
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (n,) or not np.isfinite(start).all():
            raise ValueError(f"start must be a finite array of shape ({n},), got {start.shape}")
    try:
        return _lanczos_once(matvec, n, seed, start)
    except EigFailure:
        return _lanczos_once(matvec, n, seed + 1)


@functools.cache
def _lapack():
    # the float64 LAPACK routines (stebz, stein) of the Ritz solve, fetched
    # once per process; importing scipy.linalg here, not at module level,
    # keeps it out of every process that never solves a tridiagonal
    import scipy.linalg

    return scipy.linalg.get_lapack_funcs(("stebz", "stein"), (np.zeros(1),))


# weight of the unit random vector mixed into a warm Lanczos start
_WARM_START_MIX = 1e-3

# the step of the first tridiagonal Ritz solve and residual stop test, and
# the gap to the next one when the estimate has not yet measurably fallen;
# a gap read from the estimate's decay is at most _RITZ_MAX_GAP
_RITZ_CHECK_EVERY = 4
_RITZ_MAX_GAP = 12

# step cap and relative residual tolerance of every Lanczos run
_LANCZOS_MAX_STEPS = 200
_LANCZOS_TOL = 1e-8

# a Lanczos step takes a second Gram-Schmidt pass once the loss of
# orthogonality estimated for its new vector reaches sqrt(eps), the level
# that keeps the basis semi-orthogonal; a second pass leaves it at eps
_EPS = float(np.finfo(float).eps)
_SEMI_ORTHO = math.sqrt(_EPS)


def _tridiagonal_min_eig(d, e):
    # eigh_tridiagonal(d, e, select="i", select_range=(0, 0)) without the
    # wrapper: the same 1x1 quick exit and the same two LAPACK calls
    if d.size == 1:
        return float(d[0]), np.ones(1)
    stebz, stein = _lapack()
    m, w, iblock, isplit, info = stebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        v, info = stein(d, e, w[:m], iblock, isplit)
        if info == 0:
            return float(w[0]), v[:, 0]
    raise EigFailure(f"tridiagonal eigensolver failed (info {info}) at size {d.size}")


def _image(matvec, v):
    # what matvec returns for v as a float array; any shape but v's (n,)
    # raises ValueError, which the EigFailure retry does not catch
    w = np.asarray(matvec(v), dtype=float)
    if w.shape != v.shape:
        raise ValueError(f"matvec must return an array of shape {v.shape}, got {w.shape}")
    return w


def _lanczos_once(matvec, n, seed, start=None):
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
        v = start + _WARM_START_MIX * v
        v /= np.linalg.norm(v)
    # running max |alpha| and max |beta| for the residual scale, and the
    # estimated loss of orthogonality of v_j and of v_{j-1}
    alpha_max = beta_max = 0.0
    omega = omega_prev = _EPS
    # the next step to check, and the step and estimate of the last check;
    # the first check has no earlier estimate to measure a decay from
    next_check, last_check, last_est = _RITZ_CHECK_EVERY - 1, -1, 0.0
    for j in range(m):
        basis[j] = v
        w = _image(matvec, v)
        # full reorthogonalization: a classical Gram-Schmidt pass against
        # the whole basis, which keeps it usable long past the point where
        # plain Lanczos loses orthogonality. The pass also takes out the v_j
        # and v_{j-1} parts of the three-term recurrence, and alpha is its
        # v_j coefficient. np.dot with out= makes the same BLAS calls as
        # span @ w and h @ span
        span = basis[: j + 1]
        h = coef[: j + 1]
        np.dot(span, w, out=h)
        alpha = float(h[j])
        # a non-finite entry of w makes h[j] = v @ w non-finite, so this one
        # scalar test screens the whole matvec
        if not math.isfinite(alpha):
            raise EigFailure("operator returned non-finite values")
        w -= np.dot(h, span, out=proj)
        beta = math.sqrt(np.dot(w, w))  # what np.linalg.norm(w) computes
        # after the pass V^T w is (V^T V - I) h plus roundoff, and the
        # entries of h that count are alpha and h_{j-1}: so the new vector's
        # loss of orthogonality is about drift / beta, where omega and
        # omega_prev are those of v_j and v_{j-1} (a max-norm form of
        # Simon's omega recurrence). A second pass, which leaves the loss at
        # eps, runs once the estimate reaches _SEMI_ORTHO; its v_j
        # coefficient is added to alpha
        near = float(h[j - 1]) if j else 0.0
        drift = abs(alpha) * omega + abs(near) * omega_prev
        drift += _EPS * math.hypot(alpha, near, beta)
        omega_prev = omega
        if drift >= _SEMI_ORTHO * beta:
            np.dot(span, w, out=h)
            w -= np.dot(h, span, out=proj)
            alpha += float(h[j])
            beta = math.sqrt(np.dot(w, w))
            omega = _EPS
        else:
            omega = drift / beta
        alphas[j] = alpha
        if abs(alpha) > alpha_max:
            alpha_max = abs(alpha)
        if not math.isfinite(beta):
            raise EigFailure("Lanczos residual overflowed")
        scale = max(1.0, alpha_max + 2.0 * beta_max)
        breakdown = beta <= 1e-14 * scale
        # Ritz pair and stop test only on scheduled steps, on breakdown and
        # on the last step; a later stop only lowers the Ritz value
        if breakdown or j == next_check or j == m - 1:
            lam, ritz_vec = _tridiagonal_min_eig(alphas[: j + 1], betas[:j])
            resid_est, tol = beta * abs(float(ritz_vec[-1])), _LANCZOS_TOL * scale
            if breakdown or resid_est <= tol:
                break
            # the next check comes half way to the step where the estimate's
            # decay since the last check would meet the tolerance
            gap = _RITZ_CHECK_EVERY
            if 0.0 < resid_est < last_est:
                rate = math.log(resid_est / last_est) / (j - last_check)
                gap = min(max(int(0.5 * math.log(tol / resid_est) / rate), 1), _RITZ_MAX_GAP)
            next_check, last_check, last_est = j + gap, j, resid_est
        betas[j] = beta
        if beta > beta_max:
            beta_max = beta
        v = w / beta
    # the loop ends at a Ritz solve: a break, or the last step, which solves
    q = ritz_vec @ basis[: j + 1]
    q /= np.linalg.norm(q)
    resid = float(np.linalg.norm(_image(matvec, q) - lam * q))
    if resid > 10.0 * _LANCZOS_TOL * scale:
        raise EigFailure(
            f"eigenpair residual {resid:.3e} above tolerance after {j + 1} steps"
        )
    return lam, q


# ---------------------------------------------------------------------------
# rank-constrained descent on the factored family t^2 X + u u^T


# greedy refit: inner iterations and relative stall tolerance, and the rank
# and scale of the start factor the solver draws
_GREEDY_RANK = 3
_GREEDY_MAX_INNER = 60
_GREEDY_REL_TOL = 1e-10
_GREEDY_PERTURB = 1e-3


def _gram_cols(op, u):
    # image of u u^T for a factor u of shape (n, r): the column images added
    # in column order
    image = op.gram(u[:, 0])
    for c in range(1, u.shape[1]):
        image = image + op.gram(u[:, c])
    return image


def _adjoint_cols(op, p, u):
    # the adjoint image of p applied to each column of u, written into the
    # matching column of one new array of u's shape
    out = np.empty(u.shape)
    for c in range(u.shape[1]):
        out[:, c] = op.adjoint_matvec(p, u[:, c])
    return out


def _factor_quartic(fv, gamma, y_cur, u, big_c, big_d, d):
    """Coefficients (c1, c2, c3, c4) of the greedy factor search polynomial.

    Along u - a d at a fixed scale, the image is y_cur - a C + a^2 D with
    D = gram(d) and, by polarization, C = gram(u + d) - gram(u) - D. For a
    quadratic f, three restrictions at y_cur (along -C, D and D - C) give
    h(a) - h(0) = c1 a + c2 a^2 + c3 a^3 + c4 a^4, where h adds the trace
    penalty gamma |u - a d|^2 to f of the image.
    """
    q_c, l_c = fv.restriction(y_cur, -big_c)
    q_d, l_d = fv.restriction(y_cur, big_d)
    q_cd, _ = fv.restriction(y_cur, big_d - big_c)
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


def _cubic_roots(k3, k2, k1, k0):
    """Real roots of k3 x^3 + k2 x^2 + k1 x + k0, in Python floats.

    A zero leading coefficient drops the degree. A quadratic's roots come
    from the cancellation-free formula q = -(k1 + sign(k1) sqrt(disc)) / 2,
    x = q / k2 and k0 / q. A cubic's root of largest magnitude comes from
    Cardano's formula when it has one real root, or from the trigonometric
    form when it has three, and two Newton steps on the cubic polish it.
    Dividing it out leaves a quadratic for the other two roots, built by
    Vieta's formulas: from their product -(k0 / k3) / x when x is large
    (|x|^3 > |k0 / k3|, so x^2 exceeds that product), where their sum
    k2 / k3 + x would cancel, and from their sum otherwise, where dividing
    by a small x would lose digits. Two Newton steps on the cubic polish
    each of the two as well.
    """
    if k3 == 0.0:
        if k2 == 0.0:
            return [-k0 / k1] if k1 else []
        disc = k1 * k1 - 4.0 * k2 * k0
        q = -0.5 * (k1 + math.copysign(math.sqrt(disc), k1)) if disc >= 0.0 else 0.0
        # q = 0 leaves no root or the double root 0, which no caller needs
        return [q / k2, k0 / q] if q else []

    def polish(x):
        for _ in range(2):
            slope = (3.0 * k3 * x + 2.0 * k2) * x + k1
            x -= (((k3 * x + k2) * x + k1) * x + k0) / slope if slope else 0.0
        return x

    a, b, c = k2 / k3, k1 / k3, k0 / k3
    qq, r = (a * a - 3.0 * b) / 9.0, (a * (2.0 * a * a - 9.0 * b) + 27.0 * c) / 54.0
    qq3 = qq * qq * qq
    if r * r < qq3:
        # three real roots; the two extreme ones sit at angles t and
        # t + 2 pi / 3, and one of them has the largest magnitude
        t, m = math.acos(max(-1.0, min(1.0, r / math.sqrt(qq3)))) / 3.0, -2.0 * math.sqrt(qq)
        x = max(m * math.cos(t) - a / 3.0, m * math.cos(t + math.tau / 3.0) - a / 3.0, key=abs)
    else:
        s = -math.copysign(math.cbrt(abs(r) + math.sqrt(r * r - qq3)), r)
        x = s + (qq / s if s else 0.0) - a / 3.0
    x = polish(x)
    large = abs(x) ** 3 > abs(c)
    q0 = -c / x if large else b + x * (a + x)
    q1 = (q0 - b) / x if large else a + x
    return [x] + [polish(y) for y in _cubic_roots(0.0, 1.0, q1, q0)]


def _quartic_argmin(c1, c2, c3, c4):
    """The a >= 0 minimizing p(a) = c1 a + c2 a^2 + c3 a^3 + c4 a^4.

    The minimum sits at 0 or at a positive stationary point, so it is the
    best of 0 and the real roots of the cubic p', which _cubic_roots finds
    in closed form. Every candidate is a feasible point, so a root's
    roundoff costs at most its effect on p; without a bounded minimum the
    best candidate is still a point of descent. A non-finite coefficient
    raises NonFiniteValue, as a non-finite slope does in the bisection.
    """
    if not all(map(math.isfinite, (c1, c2, c3, c4))):
        raise NonFiniteValue(f"non-finite factor search coefficients {(c1, c2, c3, c4)!r}")
    best_a, best_p = 0.0, 0.0
    for a in _cubic_roots(4.0 * c4, 3.0 * c3, 2.0 * c2, c1):
        if 0.0 < a < math.inf:
            p = a * (c1 + a * (c2 + a * (c3 + a * c4)))
            if p < best_p:
                best_a, best_p = a, p
    return best_a


def greedy_step(fv, op, gamma, state, u):
    """Descend over matrices s X_cur + u u^T and commit only improvements.

    The scalar s >= 0 scales the whole current iterate and u is an n-by-r
    factor, so the penalized objective and its gradient need only the current
    image, the trace accumulator, and measurement-space primitives. The image
    of a factor is the sum of its column images, one gram call per column,
    and the gradient in u applies adjoint_matvec to each column. Inner
    iterations alternate an exact update of s (the objective restricted to s
    is a one-dimensional convex problem the restriction oracle solves in
    closed form), taken only when its value is not above the held one, with
    a line-searched conjugate step on u. The factor step searches along the
    unit vector of d_k = g_k + beta_k d_(k-1), where g_k is the gradient in
    u and beta_k = max(0, <g_k, g_k - g_(k-1)> / <g_(k-1), g_(k-1)>)
    (Polak-Ribiere+). It searches along g_k alone on the first inner
    iteration, after an iteration whose factor step was not taken, and when
    <d_k, g_k> <= 0. Along the factor step the image is y - a C + a^2 D for
    two images C and D that each inner iteration builds with two factor
    images. With a restriction oracle the objective along the step is then
    a quartic in the step length, minimized exactly over its stationary
    points, the real roots of its cubic derivative in closed form
    (_cubic_roots). Without one, a bisection on the sign of its derivative
    stands in; it stops at a local minimum, which need not be the quartic's
    global one. Either search only proposes a step length, and the factor
    moves there only when one factor image and one objective call find a
    value strictly below the current one. The descent starts at
    s = 1 from the factor u it is given, of shape (n, r); u = 0 would be
    stationary in u. On a zero state the scale multiplies nothing, the scale
    search makes no oracle call, and the refit descends on the factor alone.
    The refit holds one point and commits the point it ends at through
    state.move, only when its value is strictly below the incumbent value,
    so the outer objective never increases here. A committed step's info
    dict carries the scale t_sq and the factor u, so X_new = t_sq X + u u^T
    can be replayed. Every info dict holds the refit's operator calls,
    read as differences of op.eval_counts() across the refit: gram_calls,
    r per factor image mapped (the start's, two per factor search and one
    per proposed step), and adjoint_calls, r per inner iteration's
    gradient. A gamma that is not a number in [0, inf) raises ValueError,
    and so does a u that is not 2-D with op.n rows and at least one column;
    either leaves the state as it was and calls no oracle.
    """
    gamma = _check_real("gamma", gamma, "[0, inf)")
    if np.ndim(u) != 2 or np.shape(u)[0] != op.n or np.shape(u)[1] < 1:
        raise ValueError(f"u must have shape (n, r) = ({op.n}, r >= 1), got {np.shape(u)}")
    calls0 = op.eval_counts()
    y0 = state.y
    tr0 = state.tr
    f0 = fv.value(y0) + gamma * tr0
    s = 1.0

    def assemble(sv, gram_u, tr_u):
        y_new = sv * y0 + gram_u
        return fv.value(y_new) + gamma * (sv * tr0 + tr_u), y_new

    gram_u = _gram_cols(op, u)
    tr_u = float(np.vdot(u, u))
    h_cur, y_cur = assemble(s, gram_u, tr_u)
    # the gradient of the last factor step taken; None restarts the next
    # search along the gradient
    grad_prev = None
    for inner in range(_GREEDY_MAX_INNER):
        h_prev = h_cur
        # exact scale update: along s the problem is the objective restricted
        # to a ray, plus a linear trace term. A proposal above the held value
        # (an exact search's roundoff) is not taken, so the held point never
        # gets worse
        s_new = ray_minimize(fv, y0, gram_u, gamma * tr0)
        h_new, y_new = assemble(s_new, gram_u, tr_u)
        if h_new <= h_prev:
            s, h_cur, y_cur = s_new, h_new, y_new
        # line-searched conjugate step on the factor (Polak-Ribiere+)
        p = fv.gradient(y_cur)
        grad_u = 2.0 * (_adjoint_cols(op, p, u) + gamma * u)
        gn = math.sqrt(np.dot(grad_u.ravel(), grad_u.ravel()))  # what np.linalg.norm computes
        if gn <= 1e-14 * max(1.0, abs(h_cur)):
            break
        if grad_prev is None:
            search = grad_u
        else:
            # beta = max(0, <g, g - g_prev> / <g_prev, g_prev>)
            rise = float(np.vdot(grad_u, grad_u - grad_prev))
            search = grad_u + max(0.0, rise / float(np.vdot(grad_prev, grad_prev))) * search
            if float(np.vdot(search, grad_u)) <= 0.0:
                search = grad_u
        direction = search / math.sqrt(np.dot(search.ravel(), search.ravel()))
        big_d = _gram_cols(op, direction)
        big_c = _gram_cols(op, u + direction) - gram_u - big_d
        factor = (fv, gamma, y_cur, u, big_c, big_d, direction)
        if fv.restriction_oracle is not None:
            alpha = _quartic_argmin(*_factor_quartic(*factor))
        else:
            alpha = minimize_convex_1d(_factor_slope(*factor))
        grad_prev = None
        if alpha != 0.0:
            u_alpha = u - alpha * direction
            gram_alpha = _gram_cols(op, u_alpha)
            tr_alpha = float(np.vdot(u_alpha, u_alpha))
            h_alpha, y_alpha = assemble(s, gram_alpha, tr_alpha)
            if h_alpha < h_cur:
                u, gram_u, tr_u = u_alpha, gram_alpha, tr_alpha
                h_cur, y_cur = h_alpha, y_alpha
                grad_prev = grad_u
        if h_prev - h_cur <= _GREEDY_REL_TOL * max(1.0, abs(h_prev)):
            break
    committed = h_cur < f0
    info = {
        "committed": committed,
        "f_before": f0,
        "f_after": h_cur if committed else f0,
        "inner_iters": inner + 1,
    }
    info.update((key, n - calls0[key]) for key, n in op.eval_counts().items())
    if committed:
        state.move(s, 1.0, u, gram_u, tr_u)
        info.update(t_sq=s, u=u)
    return info


# ---------------------------------------------------------------------------
# solver loops


@dataclass
class SdpResult:
    """Outcome of sdp_solve or fw_solve.

    certified_dual_cert and final_lambda read the last trace record's
    dual_cert and lambda_min: those of the visit the run ends on, whose
    Lanczos run starts cold (see sdp_solve). The result keeps no copy. The
    trace's dual_cert and lambda_min columns hold warm-start values on the
    visits that did not confirm. sketch is the range sketch of the final
    iterate, which every solve keeps.
    """

    final_y: np.ndarray
    final_tr: float
    sketch: SketchState
    status: str
    trace: SolveTrace
    stats: dict = field(default_factory=dict)

    @property
    def certified_dual_cert(self):
        return self.trace[-1].dual_cert

    @property
    def final_lambda(self):
        return self.trace[-1].lambda_min


class _MeasurementIterate:
    """Iterate of the semidefinite solvers: the state (y, tr, sketch) of X.

    The visited point starts at X = 0. Subclasses supply the per-visit math
    for _descend; this base holds what sdp_solve and fw_solve share.
    """

    greedy = None

    def __init__(self, fv, op, gamma, config, sketch_size):
        if fv.dim != op.d:
            raise ValueError("objective dimension does not match the measurement count")
        gamma = _check_real("gamma", gamma, "[0, inf)")
        # load the LMO's LAPACK routines now, so the first visit's clock,
        # which _descend starts after this set-up, does not count the import
        _lapack()
        self.fv, self.op, self.gamma = fv, op, gamma
        # every Lanczos run draws its seed from this one stream. A visit's
        # run starts from the previous visit's eigenvector plus a little of
        # the seed's random vector: the momentum vector moves little between
        # visits, and a start that misses the bottom eigenvector on one visit
        # does not miss it on all. A confirming run starts from the random
        # vector alone
        self.lanczos_rng = np.random.default_rng(config.rng_seed).spawn(1)[0]
        self.lanczos_start = None
        sketch = SketchState.create(op.n, sketch_size, seed=config.rng_seed + 1)
        self.state = SdpState(np.zeros(op.d), 0.0, sketch)
        self.greedy_events = []

    def evaluate(self, eta=1.0):
        # eta is the ray rescale already applied to the state, for the record
        s = self.state
        fval = self.fv.value(s.y) + self.gamma * s.tr
        p = self.fv.gradient(s.y)
        return fval, p, float(np.vdot(s.y, p)) + self.gamma * s.tr, eta

    def lmo(self, p, confirm):
        # smallest eigenpair of the adjoint image of p plus gamma I, from a
        # cold start when confirming. A shift leaves the Krylov space and the
        # eigenvector as they are, so Lanczos runs on the adjoint image
        # alone and gamma is added to its smallest eigenvalue once
        start = None if confirm else self.lanczos_start
        lam, q = min_eig_lanczos(
            functools.partial(self.op.adjoint_matvec, p),
            self.op.n,
            seed=int(self.lanczos_rng.integers(2**32)),
            start=start,
        )
        self.lanczos_start = q
        # a run from no start is cold, hence confirmed: a confirming run, or
        # visit 0's, which has no warm start to take
        return lam + self.gamma, q, start is None

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

    def result(self, status, trace, stats):
        stats["greedy_events"] = self.greedy_events
        s = self.state
        return SdpResult(s.y, s.tr, s.sketch, status, trace, stats)


class _SdpIterate(_MeasurementIterate):
    """Momentum conic descent with optional greedy refits, in measurement space."""

    def __init__(self, fv, op, gamma, config, sketch_size):
        super().__init__(fv, op, gamma, config, sketch_size)
        self.greedy_period = config.greedy_period
        self.max_iters = config.max_iters
        self.rng = np.random.default_rng(config.rng_seed)

    def evaluate(self):
        s = self.state
        eta = ray_minimize(self.fv, s.y, linear=self.gamma * s.tr)
        s.move(eta)
        self.greedy = None
        return super().evaluate(eta)

    def certify(self, g, confirm):
        lam, self.q, confirmed = self.lmo(g, confirm)
        return max(0.0, -lam), lam, confirmed

    def step(self, k, theta):
        s = self.state
        g_atom = self.op.gram(self.q)
        if theta is None:
            theta = line_search_step(self.fv, s.y, g_atom, self.gamma)
        s.move(1.0, theta, self.q, g_atom)
        restart = False
        if self.greedy_period and (k + 1) % self.greedy_period == 0:
            # u = 0 is stationary, so the refit starts from a small random
            # factor sized to the trace, grown to its best amplitude: the
            # image of a u is y + a^2 gram(u), so a line search in t = a^2
            # finds it exactly. The start is never smaller than the draw
            n = self.op.n
            size = _GREEDY_PERTURB * math.sqrt((1.0 + s.tr) / n)
            u = size * self.rng.standard_normal((n, _GREEDY_RANK))
            t = line_search_step(
                self.fv, s.y, _gram_cols(self.op, u), self.gamma * float(np.vdot(u, u))
            )
            u = math.sqrt(max(1.0, t)) * u
            refit = self.greedy = greedy_step(self.fv, self.op, self.gamma, s, u)
            refit["k"] = k
            # a committed refit jumps the iterate, so the gradients from
            # before it no longer describe it: restart the momentum average,
            # but never inside the run's last three refits, so the final
            # certificates read an average over at least three refit periods
            restart = refit["committed"] and k + 3 * self.greedy_period < self.max_iters
            refit["restart"] = restart
            # the run keeps each event's scalars; the factor goes only to
            # the callback, so a run holds no factor per refit
            self.greedy_events.append({key: v for key, v in refit.items() if key != "u"})
        return theta, restart


def sdp_solve(
    fv,
    op,
    gamma=0.0,
    config=None,
    sketch_size=8,
    callback=None,
):
    """Momentum conic descent on min f(apply(X)) + gamma tr(X), X psd.

    fv is the measurement-space objective (a ConicProgram with cone None and
    dim equal to op.d); the trace penalty is handled here, not inside fv,
    and a gamma that is not a number in [0, inf) raises ValueError.
    The dual certificate of a visit is max(0, -lambda) for the smallest
    eigenvalue lambda of the adjoint image of the momentum vector plus
    gamma I, and the run stops once it reaches sqrt(tol_eps). Lanczos runs
    on the adjoint image alone, and lambda is its smallest eigenvalue plus
    gamma: the shift moves every eigenvalue by gamma and keeps the
    eigenvectors.

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

    The returned state is the ray-rescaled iterate of the final visit. A
    range sketch of X with sketch_size columns (8 unless given; an int of
    at least 3, or ValueError) is kept through every move and returned for
    factorized readout. Every count in stats is the change over the run
    of what the objective and the operator count (see _descend).
    stats["gram_calls"] and stats["adjoint_calls"] count every call of the
    operator's gram and adjoint_matvec during the run, a callback's
    included: each step's atom, each refit's start search and the refits'
    own calls for gram, the Lanczos matvecs and the refits' gradients for
    adjoint_matvec. stats["lmo_matvecs"] counts the operator matvecs of
    every Lanczos run alone, verification, retries and cold confirmations
    included; stats["lmo_confirmations"] counts the cold runs that decided
    a stop test: one for the visit the run ends on plus one per rejected
    stop. stats["greedy_events"] holds each refit's info dict, with its
    visit k, less the factor u, which only the callback's "greedy"
    carries; the events marked "committed" are the refits that moved the
    iterate, and those marked "restart" the refits that restarted the
    momentum average.

    A committed refit at visit k restarts the average when at least three
    more refits follow in the run (k + 3 greedy_period < max_iters). The
    average's weight then counts from visit k + 1 (see SolverConfig), so
    it holds no gradient from before the refit's jump, and the final
    certificates read an average over at least three refit periods; a
    refit that commits nothing restarts nothing. The average stays a
    convex combination of gradients, so each certificate is still the
    exact distance of a dual point.

    callback(info) runs once per visit, after the step, with "record" (the
    TraceRecord), "q", "greedy", "y", "tr", "sketch" and "g_avg" in info.
    """
    config = _check_config(config, allow_greedy=True)
    it = _SdpIterate(fv, op, gamma, config, sketch_size)
    return _descend((fv, op), config, it, callback, math.sqrt(config.tol_eps))


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
        lam, q, confirmed = self.lmo(p, confirm)
        if lam < 0.0:
            self.q, self.gram_q, self.tr_atom = q, self.op.gram(q), self.tau
        else:
            self.q, self.gram_q, self.tr_atom = None, 0.0, 0.0
        s = self.state
        y_atom = self.tr_atom * self.gram_q
        gap = float(np.vdot(p, s.y - y_atom)) + self.gamma * (s.tr - self.tr_atom)
        return gap, lam, confirmed

    def step(self, k, theta):
        # step length in [0, 1] from the iterate toward the atom
        s, tr_atom = self.state, self.tr_atom
        direction = tr_atom * self.gram_q - s.y
        theta = _search(self.fv, s.y, direction, self.gamma * (tr_atom - s.tr), 0.0, 1.0)
        s.move(1.0 - theta, theta * tr_atom, self.q, self.gram_q)
        return theta, False


def fw_solve(fv, op, tau, gamma=0.0, config=None, sketch_size=8, callback=None):
    """Baseline solver on the trace-bounded set {X psd, tr X <= tau}.

    No ray rescaling and no momentum; the recorded dual_cert column holds the
    standard linearization gap <grad, X - atom>, and the run stops when the
    gap reaches tol_eps directly (the gap already has objective units). A
    tau below the trace of the true minimizer makes the optimum of this
    problem differ from the unconstrained-cone one; that is the point of the
    comparison, not a defect. A warm gap that would stop the run is
    confirmed from a cold Lanczos start as in sdp_solve, and the first and
    last visits' runs are cold, so certified_dual_cert, final_lambda and a
    "converged" status rest on a cold start. stats["lmo_matvecs"],
    stats["lmo_confirmations"], stats["gram_calls"] (one per atom
    tau q q^T) and stats["adjoint_calls"] are as in sdp_solve, read as
    run differences of the objective's and the operator's counts, a
    callback's calls included in the two totals; every visit but the last
    searches its segment, trace[-1].k searches in all. The sketch is kept
    and returned as in sdp_solve, with sketch_size at least 3. A tau
    that is not a number in (0, inf) raises ValueError, and so does a
    config with heuristic_m set, since every step here is an exact search
    on the segment to the atom.

    callback(info) gets sdp_solve's keys, and its "g_avg" is the gradient;
    q is None when the atom is X = 0.
    """
    tau = _check_real("tau", tau, "(0, inf)")
    # under "cd" the loop's average is the gradient itself
    config = replace(_check_config(config, allow_greedy=False), momentum_mode="cd")
    if config.heuristic_m is not None:
        raise ValueError("fw_solve takes no heuristic_m: its steps are segment searches")
    it = _FwIterate(fv, op, gamma, config, sketch_size, tau)
    return _descend((fv, op), config, it, callback, config.tol_eps)
