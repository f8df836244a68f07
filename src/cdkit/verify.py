"""Independent checks for solver runs.

The surrogate tracker maintains the running lower model built by the momentum
averaging: a scalar intercept averaged with the same weights as the gradient
average, whose linear part IS the solver's momentum vector. Evaluating the
model at any feasible scaling of an LMO atom gives a certified lower bound on
the optimal value, which is how dual convergence is checked without trusting
the solver's own bookkeeping.
"""

import numpy as np

from .core import dual_certificate, momentum_update


class PhiTracker:
    """Running affine minorant of the objective.

    update(k, delta, f_at_point, grad_dot_point, point) must be called once
    per solver visit with the same delta the solver used. The linear
    coefficient is recomputed with the identical averaging arithmetic, so it
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
        self.linear = momentum_update(self.linear, grad, delta)
        self.n_updates += 1

    def value_at(self, x):
        return self.alpha + float(np.vdot(self.linear, np.asarray(x, float)))


def phi_lower_bound(tracker, cone, radius):
    """Best lower bound the tracker certifies over the radius-ball slice.

    Maximizes the affine model over {r v : v in lmo range} by reusing the
    cone's LMO on the tracker's own linear part.
    """
    v = cone.lmo(tracker.linear)
    cert = dual_certificate(tracker.linear, v)
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
