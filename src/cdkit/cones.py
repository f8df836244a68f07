"""Cone handles: membership tests, linear minimization over the unit-ball
slice of a cone, and dual-cone distance oracles.

Each cone is measured in a norm pair (primal norm for the ball slice, dual
norm for gradients and certificates): l2/l2 for the orthant and second-order
cone, nuclear/operator for the semidefinite cone. For every cone here the
linear-minimization value satisfies -<g, lmo(g)> = dist_dual(g, K*), which is
what makes the certificate computable for free.
"""

import math

import numpy as np

from .exceptions import EigFailure, UnsupportedCone

_SQRT2 = math.sqrt(2.0)


def lmo_psd_dense(mat):
    """Minimize <G, V> over V PSD with nuclear norm at most 1.

    Returns (lambda_min, q, v) where v = q q^T if lambda_min < 0 and v = 0
    otherwise; the attained value is min(lambda_min, 0).
    """
    sym = 0.5 * (np.asarray(mat, dtype=float) + np.asarray(mat, dtype=float).T)
    try:
        evals, evecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy internal
        raise EigFailure("dense eigendecomposition failed") from exc
    lam = float(evals[0])
    q = evecs[:, 0]
    if lam < 0.0:
        v = np.outer(q, q)
    else:
        v = np.zeros_like(sym)
    return lam, q, v


def _soc_project(g):
    # Closed-form projection onto {(x, t): ||x|| <= t}.
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


class Cone:
    """Abstract cone handle."""

    kind = "abstract"

    def lmo(self, g):
        raise NotImplementedError

    def contains(self, x):
        """Membership up to roundoff: a relative slack of 1e-10 for the
        orthant and the second-order cone, 1e-8 for the PSD cone."""
        raise NotImplementedError

    def dual_distance(self, g):
        raise UnsupportedCone(f"no dual-distance oracle for cone kind {self.kind!r}")

    def default_init(self):
        raise NotImplementedError


class NonnegativeOrthant(Cone):
    """Nonnegative orthant in R^d with the l2/l2 norm pair."""

    kind = "orthant"

    def __init__(self, dim):
        self.dim = int(dim)

    def lmo(self, g):
        """Minimize <g, v> over v >= 0, ||v||_2 <= 1.

        Returns [-g]_+ / ||[-g]_+||_2 when g has a negative entry, else 0.
        The attained value is -||[-g]_+||_2.
        """
        g = np.asarray(g, dtype=float)
        neg = np.maximum(-g, 0.0)
        nrm = np.linalg.norm(neg)
        if nrm == 0.0:
            return np.zeros_like(g)
        return neg / nrm

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        scale = max(1.0, float(np.max(np.abs(x), initial=0.0)))
        return bool(np.min(x, initial=0.0) >= -1e-10 * scale)

    def dual_distance(self, g):
        # The dual cone is the orthant itself; the l2 projection residual is
        # the norm of the negative part.
        g = np.asarray(g, dtype=float)
        return float(np.linalg.norm(np.minimum(g, 0.0)))

    def default_init(self):
        e = np.zeros(self.dim)
        e[0] = 1.0
        return e


class SecondOrderCone(Cone):
    """Second-order cone {(x, t): ||x||_2 <= t} in R^d, t stored last."""

    kind = "second_order"

    def __init__(self, dim):
        if dim < 2:
            raise ValueError("second-order cone needs dimension >= 2")
        self.dim = int(dim)

    def lmo(self, g):
        """Minimize <g, v> over the second-order cone intersected with the l2 ball.

        Three cases: -g inside the cone gives -g/||g||; g inside the
        (self-)dual cone gives 0; otherwise the minimizer sits on the cone
        boundary at (-g_x/||g_x||, 1)/sqrt(2).
        """
        g = np.asarray(g, dtype=float)
        gx, gt = g[:-1], g[-1]
        nx = np.linalg.norm(gx)
        ng = np.linalg.norm(g)
        if ng == 0.0:
            return np.zeros_like(g)
        if nx <= -gt:
            return -g / ng
        if nx <= gt:
            return np.zeros_like(g)
        v = np.empty_like(g)
        v[:-1] = -gx / (nx * _SQRT2)
        v[-1] = 1.0 / _SQRT2
        return v

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        scale = max(1.0, float(np.linalg.norm(x)))
        return bool(x[-1] - np.linalg.norm(x[:-1]) >= -1e-10 * scale)

    def dual_distance(self, g):
        # Self-dual; measured with the l2 norm via the closed-form projection.
        g = np.asarray(g, dtype=float)
        return float(np.linalg.norm(g - _soc_project(g)))

    def default_init(self):
        # The first basis vector is not a cone point here (t = 0 < ||x||);
        # the cone axis is the canonical nonzero start.
        e = np.zeros(self.dim)
        e[-1] = 1.0
        return e


class PsdCone(Cone):
    """PSD cone of n x n symmetric matrices, nuclear/operator norm pair.

    All oracles use dense eigendecompositions; suitable for small n.
    """

    kind = "psd_dense"

    def __init__(self, n):
        self.n = int(n)

    def lmo(self, g):
        _, _, v = lmo_psd_dense(g)
        return v

    def contains(self, x):
        sym = 0.5 * (np.asarray(x, dtype=float) + np.asarray(x, dtype=float).T)
        evals = np.linalg.eigvalsh(sym)
        return bool(evals[0] >= -1e-8 * float(np.sum(np.abs(evals))))

    def dual_distance(self, g):
        # Operator-norm distance to the PSD cone: shifting by
        # max(0, -lambda_min) I is the smallest such perturbation.
        lam, _, _ = lmo_psd_dense(g)
        return max(0.0, -lam)

    def default_init(self):
        x = np.zeros((self.n, self.n))
        x[0, 0] = 1.0
        return x
