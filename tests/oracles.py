"""Independent oracles for the test suite.

None of this is solver code; each helper recomputes a quantity the solver
reports, by a route the solver does not take:

- a running affine minorant of the objective (PhiTracker) built by the same
  momentum averaging, whose minimum over a ball is a certified lower bound
  on the optimal value;
- finite-difference gradient and smoothness-gap probes of an objective;
- a brute-force grid LMO for small cones, and dense matrix norms;
- the signed cosine-transform measurements of phase retrieval through
  public scipy.fft, beside the private kernels the bundled operator calls;
- each bundled operator on explicit n x n matrices (apply_dense,
  adjoint_dense), written from the bundle's public data rather than from
  the builder's kernels, and the semidefinite program written out over
  dense matrices (dense_program) for the conic solver over PsdCone;
- cone membership and the distance to the dual cone, which the solvers
  never compute: the tests check the identity -<g, lmo(g)> = dist_dual(g, K*)
  against these;
- the complementary-slackness and dual-distance residuals at a point;
- a call log (log_calls) that wraps a solver module's function, so a test
  counts its calls itself instead of reading the solver's own counters;
- the greedy factor search's step length from numpy's companion-matrix
  polynomial roots (quartic_argmin_roots), beside the closed-form cubic
  the solver solves;
- a byte-at-a-time scanner of graymap header fields (pgm_token_scan), beside
  the compiled patterns read_pgm uses.
"""

import math

import numpy as np

from cdkit.cones import NonnegativeOrthant, PsdCone, SecondOrderCone
from cdkit.core import ConicProgram
from cdkit.exceptions import UnsupportedCone
from cdkit.problems import MatrixCompletion, PhaseRetrieval, TraceToy


class PhiTracker:
    """Running affine minorant of the objective.

    update(delta, f_value, grad, point) must be called once per solver
    visit with the weight delta the solver used: 2 / (k + 2) under "moco",
    1 under "cd". The linear coefficient is the same convex combination
    (1 - delta) * linear + delta * grad that the solver's loop forms, so it
    matches the solver's momentum vector bitwise when fed the same gradients.
    """

    def __init__(self, dim):
        self.alpha = 0.0
        self.linear = np.zeros(dim)
        self.n_updates = 0

    def update(self, delta, f_value, grad, point):
        grad = np.asarray(grad, dtype=float)
        point = np.asarray(point, dtype=float)
        # f(x_k) - <grad, x_k> is the intercept of the tangent at x_k; under
        # exact ray minimization <grad, x_k> = 0 and the intercept is f(x_k).
        intercept = float(f_value) - float(np.vdot(grad, point))
        self.alpha = (1.0 - delta) * self.alpha + delta * intercept
        self.linear = (1.0 - delta) * self.linear + delta * grad
        self.n_updates += 1

    def value_at(self, x):
        return self.alpha + float(np.vdot(self.linear, np.asarray(x, float)))


def phi_lower_bound(tracker, cone, radius):
    """Best lower bound the tracker certifies over the radius-ball slice.

    Maximizes the affine model over {r v : v in lmo range} by reusing the
    cone's LMO on the tracker's own linear part.
    """
    v = cone.lmo(tracker.linear)
    cert = -float(np.vdot(tracker.linear, v))
    return tracker.alpha - radius * cert


def fd_gradient_check(value, gradient, x, n_dirs=8, h=1e-6, seed=0):
    """Central-difference directional-derivative check.

    Compares <grad, d> against (f(x + h d) - f(x - h d)) / (2 h) along random
    unit directions. Returns the maximum relative error with the finite
    difference magnitude in the denominator, so a gradient off by a factor of
    two registers near 0.5 regardless of scale.
    """
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    g = np.asarray(gradient(x), dtype=float)
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.standard_normal(x.shape)
        d /= np.linalg.norm(d.ravel())
        fd = (float(value(x + h * d)) - float(value(x - h * d))) / (2.0 * h)
        an = float(np.vdot(g, d))
        err = abs(an - fd) / max(abs(fd), 1e-12)
        worst = max(worst, err)
    return worst


def smoothness_gap_check(value, gradient, pairs, lipschitz):
    """Minimum normalized slack of the smoothness gap inequality.

    For each pair (x, y) checks
        f(y) - f(x) - <grad f(x), y - x> >= ||grad f(y) - grad f(x)||^2 / (2 L)
    and returns min over pairs of (lhs - rhs) / max(1, |f(x)|, |f(y)|).
    Nonnegative (up to roundoff) whenever lipschitz really bounds the gradient
    Lipschitz constant.
    """
    worst = np.inf
    for x, y in pairs:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        fx, fy = float(value(x)), float(value(y))
        gx = np.asarray(gradient(x), dtype=float)
        gy = np.asarray(gradient(y), dtype=float)
        lhs = fy - fx - float(np.vdot(gx, y - x))
        rhs = float(np.vdot(gy - gx, gy - gx)) / (2.0 * lipschitz)
        slack = (lhs - rhs) / max(1.0, abs(fx), abs(fy))
        worst = min(worst, slack)
    return worst


def _soc_project(g):
    # closed-form projection onto {(x, t): ||x|| <= t}
    gx, gt = g[:-1], g[-1]
    nx = np.linalg.norm(gx)
    if nx <= gt:
        return g.copy()
    if nx <= -gt:
        return np.zeros_like(g)
    coef = 0.5 * (nx + gt)
    out = np.empty_like(g)
    out[:-1] = coef * gx / nx
    out[-1] = coef
    return out


def contains(cone, x):
    """Membership of x in the cone up to roundoff.

    The slack is relative: 1e-10 for the orthant and the second-order cone,
    1e-8 of the nuclear norm for the PSD cone. A PSD point must also be
    symmetric: no entry of x - x^T may exceed that slack.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(cone, NonnegativeOrthant):
        scale = max(1.0, float(np.max(np.abs(x), initial=0.0)))
        return bool(np.min(x, initial=0.0) >= -1e-10 * scale)
    if isinstance(cone, SecondOrderCone):
        scale = max(1.0, float(np.linalg.norm(x)))
        return bool(x[-1] - np.linalg.norm(x[:-1]) >= -1e-10 * scale)
    if isinstance(cone, PsdCone):
        evals = np.linalg.eigvalsh(0.5 * (x + x.T))
        slack = 1e-8 * float(np.sum(np.abs(evals)))
        skew = float(np.max(np.abs(x - x.T), initial=0.0))
        return bool(evals[0] >= -slack and skew <= slack)
    raise UnsupportedCone(f"no membership oracle for {type(cone).__name__}")


def dual_distance(cone, g):
    """Distance from g to the dual cone K*, in the cone's dual norm.

    The orthant and the second-order cone are self-dual, measured in l2: the
    residual of the closed-form projection. For the PSD cone, in the
    operator norm, shifting by max(0, -lambda_min) I is the smallest
    perturbation into the cone; lambda_min comes from eigvalsh, not from the
    eigh call that the LMO makes.
    """
    g = np.asarray(g, dtype=float)
    if isinstance(cone, NonnegativeOrthant):
        return float(np.linalg.norm(np.minimum(g, 0.0)))
    if isinstance(cone, SecondOrderCone):
        return float(np.linalg.norm(g - _soc_project(g)))
    if isinstance(cone, PsdCone):
        return max(0.0, -float(np.linalg.eigvalsh(0.5 * (g + g.T))[0]))
    raise UnsupportedCone(f"no dual-distance oracle for {type(cone).__name__}")


def kkt_residuals(problem, x):
    """Complementary-slackness and squared dual-distance residuals at x.

    Returns (<x, grad f(x)>, dist_dual(grad f(x), K*)^2) using the exact
    dual-distance oracle above.
    """
    if problem.cone is None:
        raise UnsupportedCone("kkt_residuals needs a cone handle")
    x = np.asarray(x, dtype=float)
    grad = problem.gradient(x)
    cs = float(np.vdot(x, grad))
    dist = dual_distance(problem.cone, grad)
    return cs, dist * dist


def nuclear_norm(mat):
    """Sum of absolute eigenvalues of a symmetric matrix."""
    sym = 0.5 * (mat + mat.T)
    return float(np.sum(np.abs(np.linalg.eigvalsh(sym))))


def operator_norm(mat):
    """Largest absolute eigenvalue of a symmetric matrix."""
    sym = 0.5 * (mat + mat.T)
    evals = np.linalg.eigvalsh(sym)
    return float(max(abs(evals[0]), abs(evals[-1])))


def _sphere_grid_orthant(dim, grid_n):
    if dim == 2:
        th = np.linspace(0.0, 0.5 * np.pi, grid_n)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if dim == 3:
        npts = max(8, int(math.sqrt(grid_n)))
        th = np.linspace(0.0, 0.5 * np.pi, npts)
        ph = np.linspace(0.0, 0.5 * np.pi, npts)
        T, P = np.meshgrid(th, ph, indexing="ij")
        pts = np.stack(
            [np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1
        )
        return pts.reshape(-1, 3)
    raise UnsupportedCone("grid oracle covers orthant dimensions 2 and 3 only")


def _sphere_grid_soc(dim, grid_n):
    if dim == 2:
        al = np.linspace(-0.25 * np.pi, 0.25 * np.pi, grid_n)
        return np.stack([np.sin(al), np.cos(al)], axis=1)
    if dim == 3:
        # Allocate grid points to each angular axis by its range: the polar
        # angle spans pi/4, the azimuth spans 2 pi.
        nb = max(8, int(math.sqrt(grid_n / 8.0)))
        nphi = max(16, grid_n // nb)
        be = np.linspace(0.0, 0.25 * np.pi, nb)
        ph = np.linspace(0.0, 2.0 * np.pi, nphi, endpoint=False)
        B, P = np.meshgrid(be, ph, indexing="ij")
        pts = np.stack(
            [np.sin(B) * np.cos(P), np.sin(B) * np.sin(P), np.cos(B)], axis=-1
        )
        return pts.reshape(-1, 3)
    raise UnsupportedCone("grid oracle covers second-order dimensions 2 and 3 only")


def brute_lmo(cone, g, grid_n=10000):
    """Grid-search oracle for the cone-ball linear minimization.

    Exhaustively minimizes <g, v> over a dense grid of the unit-sphere slice
    of the cone plus the zero point. Only small ambient dimensions are
    supported; the value is accurate to O(1/grid_n) in the grid spacing and
    exists purely to cross-check the closed-form oracles.
    """
    g = np.asarray(g, dtype=float)
    if isinstance(cone, NonnegativeOrthant):
        pts = _sphere_grid_orthant(g.size, grid_n)
    elif isinstance(cone, SecondOrderCone):
        pts = _sphere_grid_soc(g.size, grid_n)
    elif isinstance(cone, PsdCone):
        # Unit-nuclear-norm extreme points of the PSD cone are q q^T for
        # unit q, and the sign of q does not matter, so a hemisphere grid
        # of q vectors covers the slice.
        if g.shape == (2, 2):
            th = np.linspace(0.0, np.pi, grid_n)
            qs = np.stack([np.cos(th), np.sin(th)], axis=1)
        elif g.shape == (3, 3):
            npts = max(16, int(math.sqrt(grid_n)))
            th = np.linspace(0.0, 0.5 * np.pi, npts)
            ph = np.linspace(0.0, 2.0 * np.pi, 2 * npts, endpoint=False)
            T, P = np.meshgrid(th, ph, indexing="ij")
            qs = np.stack(
                [np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1
            ).reshape(-1, 3)
        else:
            raise UnsupportedCone("grid oracle covers PSD sides 2 and 3 only")
        vals = np.einsum("ki,ij,kj->k", qs, 0.5 * (g + g.T), qs)
        i = int(np.argmin(vals))
        if vals[i] >= 0.0:
            return np.zeros_like(g)
        return np.outer(qs[i], qs[i])
    else:
        raise UnsupportedCone(f"no grid oracle for {type(cone).__name__}")
    vals = pts @ g
    i = int(np.argmin(vals))
    if vals[i] >= 0.0:
        return np.zeros_like(g)
    return pts[i]


def dct_measurement_apply(signs, v):
    """All m*n linear measurements of a vector at once, as an (m, n) array.

    Row j holds the orthonormal cosine transform of signs[j] * v, so the
    squared entries are the intensity measurements of v.
    """
    from scipy.fft import dct

    v = np.asarray(v, dtype=float)
    return dct(signs * v[None, :], axis=1, norm="ortho")


def _mask_entries(bundle):
    # the (row, column) of every observed entry of a completion mask, from
    # its row counts and columns
    rows = np.repeat(np.arange(bundle.op.n), bundle.row_counts)
    return rows, bundle.col_idx


def _phase_masks(bundle):
    # the (m, n, n) stack of sign patterns s_j s_j^T
    return bundle.signs[:, :, None] * bundle.signs[:, None, :]


def apply_dense(bundle, x):
    """The measurement image (tr(G_1 X), ..., tr(G_d X)) of an n x n matrix
    X under a bundled builder's operator, from the bundle's public data:
    the trace for the trace toy, (X_ij + X_ji) / 2 at the entries that
    row_counts and col_idx list for completion, and for phase retrieval the
    diagonal of the 2-D orthonormal cosine transform of S_j X S_j for each
    mask's S_j = diag(signs[j])."""
    from scipy.fft import dctn

    x = np.asarray(x, dtype=float)
    if isinstance(bundle, TraceToy):
        return np.array([np.trace(x)])
    if isinstance(bundle, MatrixCompletion):
        rows, cols = _mask_entries(bundle)
        return 0.5 * (x[rows, cols] + x[cols, rows])
    if isinstance(bundle, PhaseRetrieval):
        t = dctn(_phase_masks(bundle) * x, axes=(1, 2), norm="ortho")
        return np.diagonal(t, axis1=1, axis2=2).ravel()
    raise TypeError(f"no dense operator for {type(bundle).__name__}")


def adjoint_dense(bundle, p):
    """The n x n matrix sum_i p_i G_i of a bundled builder's operator, the
    adjoint of apply_dense, from the same public data: p_0 I for the trace
    toy, the symmetric part of the matrix holding p at the observed entries
    for completion, and for phase retrieval the sum over masks of
    S_j C^T diag(p_j) C S_j, with C^T . C the 2-D inverse transform."""
    from scipy.fft import idctn

    p = np.asarray(p, dtype=float)
    n = bundle.op.n
    if isinstance(bundle, TraceToy):
        return p[0] * np.eye(n)
    if isinstance(bundle, MatrixCompletion):
        rows, cols = _mask_entries(bundle)
        mat = np.bincount(rows * n + cols, weights=p, minlength=n * n).reshape(n, n)
        return 0.5 * (mat + mat.T)
    if isinstance(bundle, PhaseRetrieval):
        diag = np.zeros((p.size // n, n, n))
        diag[:, np.arange(n), np.arange(n)] = p.reshape(-1, n)
        return (_phase_masks(bundle) * idctn(diag, axes=(1, 2), norm="ortho")).sum(axis=0)
    raise TypeError(f"no dense operator for {type(bundle).__name__}")


def dense_program(fv, n, gamma, apply, adjoint):
    """The semidefinite program min f(apply(X)) + gamma tr X written out
    over dense n x n matrices, for the conic solver over PsdCone: its own
    gradient adjoint(grad f) + gamma I, its exact restriction and the
    cone's eigh LMO, none of the matrix-free path. apply maps a matrix to
    its measurement image and adjoint a measurement vector to a matrix."""

    def value(x):
        return fv.value(apply(x)) + gamma * float(np.trace(x))

    def gradient(x):
        return adjoint(fv.gradient(apply(x))) + gamma * np.eye(n)

    def restriction(base, direction):
        a, b = fv.restriction(apply(base), apply(direction))
        return a, b + gamma * float(np.trace(direction))

    return ConicProgram(n * n, value, gradient, cone=PsdCone(n), restriction_oracle=restriction)


def quartic_argmin_roots(c1, c2, c3, c4):
    """The a >= 0 minimizing c1 a + c2 a^2 + c3 a^3 + c4 a^4, as the best of
    0 and the real parts of the roots np.roots gives for its derivative (the
    eigenvalues of the cubic's companion matrix)."""
    best_a, best_p = 0.0, 0.0
    for root in np.roots([4.0 * c4, 3.0 * c3, 2.0 * c2, c1]):
        a = float(root.real)
        if a > 0.0:
            p = a * (c1 + a * (c2 + a * (c3 + a * c4)))
            if p < best_p:
                best_a, best_p = a, p
    return best_a


def log_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper for the rest of the test and return
    the list to which the wrapper appends each call's arguments."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def pgm_token_scan(buf, pos):
    """(field, end) of the next graymap header field at or after pos, read
    one byte at a time: whitespace and "#" comments up to a newline are
    skipped, and the field runs to the next whitespace byte or the end of
    buf. No field left raises ValueError("truncated image header")."""
    while pos < len(buf):
        c = buf[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(buf) and buf[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(buf) and not buf[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated image header")
    return buf[start:pos], pos
