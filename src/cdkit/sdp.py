"""Semidefinite engine that never stores the matrix iterate.

The positive semidefinite variable X only ever enters the objective through
its measurement image, so the engine tracks three small objects instead of
X itself: the shifted image y = apply(X) - z, a running trace accumulator,
and (optionally) a randomized range sketch S = X @ Omega. Every solver move
is rank one or a rescaling, and each admits an exact cheap update of all
three. The matrix is recovered only on demand, as a low-rank factorization
read out of the sketch.

The linear minimization over the unit-nuclear-ball slice of the cone reduces
to a smallest-eigenvalue problem for the adjoint image of the momentum
vector, solved matrix-free by Lanczos iteration.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .core import (
    SolveTrace,
    SolverConfig,
    _descend,
    _quad_argmin_nonneg,
    delta_schedule,
    line_search_step,
    minimize_convex_1d,
    momentum_update,
    ray_minimize,
    theta_heuristic,  # noqa: F401  (kept importable as cdkit.sdp.theta_heuristic)
)
from .exceptions import EigFailure, RankTooLarge


@dataclass
class MeasurementOperator:
    """Linear measurements of a symmetric matrix, with a constant shift.

    Encodes the map X -> (tr(G_1 X), ..., tr(G_d X)) together with the shift
    z, so iterates live in measurement space as y = apply(X) - z.

    gram(q) returns the measurement image of q q^T for a vector q of shape
    (n,), or of U U^T when given a matrix of shape (n, r).
    adjoint_matvec(p, u) applies sum_i p_i G_i to u; u may be (n,) or (n, r).
    apply_dense / adjoint_dense materialize the map on explicit matrices and
    exist for verification at small n; large instances leave them as None.
    """

    n: int
    d: int
    z: np.ndarray
    gram: Callable
    adjoint_matvec: Callable
    apply_dense: Callable | None = None
    adjoint_dense: Callable | None = None


@dataclass
class SdpState:
    """Mutable iterate of the engine: image, trace, optional sketch."""

    y: np.ndarray
    tr: float
    sketch: "SketchState | None" = None


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

    @property
    def size(self):
        return self.omega.shape[1]

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
    nu * omega with nu at the noise floor of S, the square root of the small
    Gram matrix is Cholesky when it cooperates and an eigenvalue square root
    otherwise, and nu is subtracted back off the squared singular values.
    """
    omega, s = sketch.omega, sketch.s
    n, size = s.shape
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
    b = 0.5 * (b + b.T)
    try:
        chol = np.linalg.cholesky(b)
        e = scipy.linalg.solve_triangular(chol, s_nu.T, lower=True).T
    except np.linalg.LinAlgError:
        # b should be positive definite; roundoff can spoil that, so fall
        # back to a pseudo inverse square root
        w, q = np.linalg.eigh(b)
        keep = w > w.max() * 1e-14
        e = s_nu @ (q[:, keep] / np.sqrt(w[keep]))
    u, sig, _ = np.linalg.svd(e, full_matrices=False)
    lam = np.maximum(sig**2 - nu, 0.0)
    return u[:, :rank], lam[:rank]


def factor_to_dense(u, lam):
    """Materialize u diag(lam) u^T."""
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    return (u * lam) @ u.T


def save_factor(path, u, lam):
    with open(path, "wb") as fh:
        np.savez(fh, u=np.asarray(u, dtype=float), lam=np.asarray(lam, dtype=float))


def load_factor(path):
    with open(path, "rb") as fh:
        data = np.load(fh)
        return data["u"], data["lam"]


# ---------------------------------------------------------------------------
# matrix-free smallest eigenpair


@dataclass
class LanczosConfig:
    max_iters: int = 200
    residual_tol: float = 1e-8
    seed: int = 0


def min_eig_lanczos(matvec, n, config=None):
    """Smallest eigenpair (lam, q) of a symmetric operator given as a matvec.

    Runs Lanczos with full reorthogonalization from a seeded random start and
    verifies the returned pair against an explicit residual. One retry with a
    reseeded start vector is attempted before giving up. The bottom Ritz pair
    of each step comes from the LAPACK bisection and inverse-iteration
    routines (stebz, stein) called directly, which gives bit for bit what
    scipy.linalg.eigh_tridiagonal(select="i") returns without its per-call
    argument checks; a LAPACK failure raises EigFailure and so takes the
    retry.
    """
    cfg = config if config is not None else LanczosConfig()
    try:
        return _lanczos_once(matvec, n, cfg, cfg.seed)
    except EigFailure:
        return _lanczos_once(matvec, n, cfg, cfg.seed + 1)


_STEBZ, _STEIN = scipy.linalg.get_lapack_funcs(("stebz", "stein"), (np.zeros(1),))


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


def _lanczos_once(matvec, n, cfg, seed):
    if n == 1:
        q = np.ones(1)
        lam = float(np.asarray(matvec(q)).ravel()[0])
        return lam, q
    rng = np.random.default_rng(seed)
    m = min(n, cfg.max_iters)
    basis = np.zeros((n, m))
    alphas = np.zeros(m)
    betas = np.zeros(m)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    ritz_vec = None
    j_stop = 0
    # running max |alpha| and max |beta| for the residual scale
    alpha_max = beta_max = 0.0
    for j in range(m):
        basis[:, j] = v
        w = np.asarray(matvec(v), dtype=float)
        alpha = float(v @ w)
        # a non-finite entry of w makes v @ w non-finite, so this one scalar
        # test screens the whole matvec
        if not math.isfinite(alpha):
            raise EigFailure("operator returned non-finite values")
        alphas[j] = alpha
        alpha_max = max(alpha_max, abs(alpha))
        w -= alpha * v
        if j > 0:
            w -= betas[j - 1] * basis[:, j - 1]
        # full reorthogonalization, twice, keeps the basis usable long past
        # the point where plain Lanczos loses orthogonality
        span = basis[:, : j + 1]
        for _ in range(2):
            w -= span @ (span.T @ w)
        beta = math.sqrt(w @ w)  # what np.linalg.norm(w) computes
        if not math.isfinite(beta):
            raise EigFailure("Lanczos residual overflowed")
        lam, ritz_vec = _tridiagonal_min_eig(alphas[: j + 1], betas[:j])
        scale = max(1.0, alpha_max + 2.0 * beta_max)
        resid_est = beta * abs(float(ritz_vec[-1]))
        j_stop = j
        if resid_est <= cfg.residual_tol * scale or beta <= 1e-14 * scale:
            break
        betas[j] = beta
        beta_max = max(beta_max, beta)
        v = w / beta
    q = basis[:, : j_stop + 1] @ ritz_vec
    q /= np.linalg.norm(q)
    resid = float(np.linalg.norm(np.asarray(matvec(q), dtype=float) - lam * q))
    if resid > 10.0 * cfg.residual_tol * scale:
        raise EigFailure(
            f"eigenpair residual {resid:.3e} above tolerance after {j_stop + 1} steps"
        )
    return lam, q


# ---------------------------------------------------------------------------
# rank-constrained descent on the factored family t^2 X + u u^T


@dataclass
class GreedyConfig:
    rank: int = 3
    max_inner: int = 60
    line_search_evals: int = 40
    rel_tol: float = 1e-10
    perturb_scale: float = 1e-3


def greedy_step(fv, op, gamma, state, rng, config=None, record_factors=False):
    """Descend over matrices s X_cur + u u^T and commit only improvements.

    The scalar s >= 0 scales the whole current iterate and u is an n-by-rank
    factor, so the penalized objective and its gradient need only the current
    image, the trace accumulator, and measurement-space primitives. Inner
    iterations alternate an exact update of s (the objective restricted to s
    is a one-dimensional convex problem the restriction oracle solves in
    closed form) with a line-searched gradient step on u. The start point
    (s, u) = (1, 0) is stationary in u, hence the seeded random perturbation;
    the state is rewritten only when the best point found is strictly below
    the incumbent value, so the outer objective never increases here.
    """
    cfg = config if config is not None else GreedyConfig()
    z = np.asarray(op.z, dtype=float)
    y0 = state.y
    tr0 = state.tr
    f0 = fv.value(y0) + gamma * tr0
    base = y0 + z
    s = 1.0
    u = (
        cfg.perturb_scale
        * math.sqrt((1.0 + tr0) / op.n)
        * rng.standard_normal((op.n, cfg.rank))
    )

    def assemble(sv, gram_u, tr_u):
        y_new = sv * base + gram_u - z
        return fv.value(y_new) + gamma * (sv * tr0 + tr_u), y_new

    gram_u = op.gram(u)
    tr_u = float(np.vdot(u, u))
    h_cur, y_cur = assemble(s, gram_u, tr_u)
    h_best, s_best, u_best = h_cur, s, u.copy()
    inner_done = 0
    for inner in range(cfg.max_inner):
        h_prev = h_cur
        # exact scale update: along s the problem is the objective restricted
        # to a ray, plus a linear trace term
        if fv.restriction_oracle is not None:
            a, b, _ = fv.restriction(gram_u - z, base)
            s_new = _quad_argmin_nonneg(a, b + gamma * tr0)
            if s_new is not None:
                s = s_new
        else:
            s, _ = minimize_convex_1d(
                lambda c: fv.value(c * base + gram_u - z) + gamma * c * tr0
            )
        h_cur, y_cur = assemble(s, gram_u, tr_u)
        # line-searched gradient step on the factor
        p = fv.gradient(y_cur)
        grad_u = 2.0 * (op.adjoint_matvec(p, u) + gamma * u)
        gn = float(np.linalg.norm(grad_u))
        if gn <= 1e-14 * max(1.0, abs(h_cur)):
            inner_done = inner + 1
            break
        direction = grad_u / gn

        def along(alpha):
            uv = u - alpha * direction
            hv, _ = assemble(s, op.gram(uv), float(np.vdot(uv, uv)))
            return hv

        alpha, h_alpha = minimize_convex_1d(
            along, max_evals=cfg.line_search_evals
        )
        if h_alpha < h_cur:
            u = u - alpha * direction
            gram_u = op.gram(u)
            tr_u = float(np.vdot(u, u))
            h_cur, y_cur = assemble(s, gram_u, tr_u)
        inner_done = inner + 1
        if h_cur < h_best:
            h_best, s_best, u_best = h_cur, s, u.copy()
        if h_prev - h_cur <= cfg.rel_tol * max(1.0, abs(h_prev)):
            break
    info = {
        "committed": False,
        "f_before": f0,
        "f_after": f0,
        "inner_iters": inner_done,
    }
    if h_best < f0:
        state.y = s_best * base + op.gram(u_best) - z
        state.tr = s_best * tr0 + float(np.vdot(u_best, u_best))
        if state.sketch is not None:
            state.sketch.replace(s_best, u_best)
        info["committed"] = True
        info["f_after"] = h_best
        if record_factors:
            info["t_sq"] = s_best
            info["u"] = u_best.copy()
    return info


# ---------------------------------------------------------------------------
# solver loops


@dataclass
class SdpResult:
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
        self.fv, self.op, self.gamma = fv, op, gamma
        self.z = np.asarray(op.z, dtype=float)
        self.lanczos_cfg = LanczosConfig(seed=config.rng_seed)
        sketch = None
        if sketch_size is not None:
            sketch = SketchState.create(op.n, sketch_size, seed=config.rng_seed + 1)
        self.state = SdpState(y=-self.z.astype(float), tr=0.0, sketch=sketch)
        self.greedy_events = []

    def evaluate(self, k):
        s = self.state
        fval = self.fv.value(s.y) + self.gamma * s.tr
        p = self.fv.gradient(s.y)
        self.cs = float(np.vdot(s.y + self.z, p)) + self.gamma * s.tr
        return fval, p

    def callback_args(self, k, theta, record):
        s = self.state
        info = {
            "k": k,
            "eta": self.eta,
            "theta": theta,
            "q": self.q,
            "lambda": self.lam,
            "greedy": self.greedy,
            "y": s.y,
            "tr": s.tr,
            "sketch": s.sketch,
            "record": record,
        }
        return (info,)

    def result(self, status, trace, cert, stats):
        stats["greedy_events"] = self.greedy_events
        stats["n_greedy_commits"] = sum(1 for e in self.greedy_events if e["committed"])
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

    def __init__(self, fv, op, gamma, config, sketch_size, record_factors):
        super().__init__(fv, op, gamma, config, sketch_size)
        self.mode = config.momentum_mode
        self.greedy_period = config.greedy_period
        self.rng = np.random.default_rng(config.rng_seed)
        self.greedy_cfg = GreedyConfig()
        self.record_factors = record_factors
        self.g_avg = np.zeros(op.d)

    def evaluate(self, k):
        s, z = self.state, self.z
        self.eta = ray_minimize(self.fv, s.y + z, -z, self.gamma * s.tr)
        if self.eta != 1.0:
            s.y = self.eta * (s.y + z) - z
            s.tr *= self.eta
            if s.sketch is not None:
                s.sketch.scale(self.eta)
        self.greedy = None
        return super().evaluate(k)

    def certify(self, k, p):
        self.g_avg = momentum_update(self.g_avg, p, delta_schedule(k, self.mode))
        self.lam, self.q = min_eig_lanczos(
            lambda u: self.op.adjoint_matvec(self.g_avg, u) + self.gamma * u,
            self.op.n,
            self.lanczos_cfg,
        )
        return max(0.0, -self.lam)

    def step(self, k, theta):
        s = self.state
        g_atom = self.op.gram(self.q)
        if theta is None:
            theta = line_search_step(self.fv, s.y, g_atom, self.gamma)
        s.y = s.y + theta * g_atom
        s.tr += theta
        if s.sketch is not None:
            s.sketch.add_rank_one(theta, self.q)
        if self.greedy_period and (k + 1) % self.greedy_period == 0:
            self.greedy = greedy_step(
                self.fv, self.op, self.gamma, s, self.rng, self.greedy_cfg,
                self.record_factors,
            )
            self.greedy["k"] = k
            self.greedy_events.append(self.greedy)
        return theta

    def callback_args(self, k, theta, record):
        (info,) = super().callback_args(k, theta, record)
        info["g_avg"] = self.g_avg
        return (info,)


def sdp_solve(
    fv,
    op,
    gamma=0.0,
    config=None,
    sketch_size=None,
    callback=None,
    record_factors=False,
):
    """Momentum conic descent on min f(apply(X) - z) + gamma tr(X), X psd.

    fv is the measurement-space objective (a ConicProgram with cone None and
    dim equal to op.d); the trace penalty is handled here, not inside fv.
    The dual certificate of a visit is max(0, -lambda) for the smallest
    eigenvalue lambda of the adjoint image of the momentum vector plus
    gamma I, and the run stops once it reaches sqrt(tol_eps).

    The returned state is the ray-rescaled iterate of the final visit. When
    sketch_size is set, a rank sketch of X is maintained through every move
    and returned for factorized readout.
    """
    if config is None:
        config = SolverConfig()
    it = _SdpIterate(fv, op, gamma, config, sketch_size, record_factors)
    return it.result(*_descend(fv, config, it, callback, allow_greedy=True))


def _quad_argmin_segment(a, b):
    # minimize a t^2 + b t over [0, 1]; convexity means a >= 0 up to roundoff
    if a <= 0.0:
        return 0.0 if a + b >= 0.0 else 1.0
    return min(1.0, max(0.0, -b / (2.0 * a)))


def _fw_atom(op, gamma, tau, state, p, lanczos_cfg):
    # extreme point of {X psd, tr X <= tau} against the gradient p, as
    # (lambda, q or None, image of the atom, its trace), and the gap
    lam, q = min_eig_lanczos(
        lambda u: op.adjoint_matvec(p, u) + gamma * u, op.n, lanczos_cfg
    )
    z = np.asarray(op.z, dtype=float)
    if lam < 0.0:
        atom = (lam, q, tau * op.gram(q) - z, tau)
    else:
        atom = (lam, None, -z, 0.0)
    gap = float(np.vdot(p, state.y - atom[2])) + gamma * (state.tr - atom[3])
    return atom, gap


def _fw_segment(fv, gamma, state, atom):
    # step length in [0, 1] from the iterate toward the atom
    _, _, y_atom, tr_atom = atom
    direction = y_atom - state.y
    if fv.restriction_oracle is not None:
        a, b, _ = fv.restriction(state.y, direction)
        return _quad_argmin_segment(a, b + gamma * (tr_atom - state.tr))
    theta, _ = minimize_convex_1d(
        lambda s: fv.value(state.y + min(s, 1.0) * direction)
        + gamma * ((1.0 - min(s, 1.0)) * state.tr + min(s, 1.0) * tr_atom)
    )
    return min(theta, 1.0)


def _fw_move(tau, state, atom, theta):
    _, q, y_atom, tr_atom = atom
    state.y = state.y + theta * (y_atom - state.y)
    state.tr = (1.0 - theta) * state.tr + theta * tr_atom
    if state.sketch is not None:
        state.sketch.scale(1.0 - theta)
        if q is not None:
            state.sketch.add_rank_one(theta * tau, q)


def fw_baseline_step(fv, op, gamma, tau, state, lanczos_cfg=None):
    """One projection-free step on the trace-bounded spectrahedron.

    The feasible set is {X psd, tr X <= tau}; the extreme atom against the
    gradient is tau q q^T for the smallest eigenvector q when the smallest
    eigenvalue is negative, and 0 otherwise. Moves by segment search between
    the iterate and the atom and updates state in place. Returns an info
    dict with the gap, eigenvalue, step, and atom.
    """
    p = fv.gradient(state.y)
    atom, gap = _fw_atom(op, gamma, tau, state, p, lanczos_cfg)
    theta = _fw_segment(fv, gamma, state, atom)
    _fw_move(tau, state, atom, theta)
    return {"lambda": atom[0], "gap": gap, "theta": theta, "q": atom[1]}


class _FwIterate(_MeasurementIterate):
    """Frank-Wolfe on {X psd, tr X <= tau}: no ray rescale, no momentum."""

    def __init__(self, fv, op, gamma, config, sketch_size, tau):
        super().__init__(fv, op, gamma, config, sketch_size)
        self.tau = tau

    def certify(self, k, p):
        self.atom, gap = _fw_atom(
            self.op, self.gamma, self.tau, self.state, p, self.lanczos_cfg
        )
        self.lam, self.q = self.atom[:2]
        return gap

    def step(self, k, theta):
        theta = _fw_segment(self.fv, self.gamma, self.state, self.atom)
        _fw_move(self.tau, self.state, self.atom, theta)
        return theta

    def callback_args(self, k, theta, record):
        (info,) = super().callback_args(k, theta, record)
        info["tau"] = self.tau
        return (info,)


def fw_solve(fv, op, tau, gamma=0.0, config=None, sketch_size=None, callback=None):
    """Baseline solver on the trace-bounded set {X psd, tr X <= tau}.

    No ray rescaling and no momentum; the recorded dual_cert column holds the
    standard linearization gap <grad, X - atom>, and the run stops when the
    gap reaches tol_eps directly (the gap already has objective units). A
    tau below the trace of the true minimizer makes the optimum of this
    problem differ from the unconstrained-cone one; that is the point of the
    comparison, not a defect.
    """
    if config is None:
        config = SolverConfig()
    if tau <= 0.0:
        raise ValueError("trace bound tau must be positive")
    it = _FwIterate(fv, op, gamma, config, sketch_size, tau)
    return it.result(*_descend(fv, config, it, callback, frank_wolfe=True))
