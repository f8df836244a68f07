"""Cone handles: linear minimization over the unit-ball slice of a cone.

Each cone is measured in a norm pair (primal norm for the ball slice, dual
norm for gradients and certificates): l2/l2 for the orthant and second-order
cone, nuclear/operator for the semidefinite cone. For every cone here the
linear-minimization value satisfies -<g, lmo(g)> = dist_dual(g, K*), which is
what makes the certificate computable for free. The solvers never need the
distance itself; the test suite's oracles compute it by another route to
check the identity.
"""

import math

import numpy as np

from .exceptions import EigFailure, UnsupportedCone, _check_count

_SQRT2 = math.sqrt(2.0)


class Cone:
    """Abstract cone handle."""

    def lmo(self, g):
        raise NotImplementedError

    def default_init(self):
        raise NotImplementedError

    def contains(self, x):
        """Whether x lies in the cone up to roundoff."""
        raise UnsupportedCone(f"{type(self).__name__} has no membership test")


class NonnegativeOrthant(Cone):
    """Nonnegative orthant in R^d with the l2/l2 norm pair; dim an int >= 1."""

    def __init__(self, dim):
        _check_count("dim", dim, 1)
        self.dim = int(dim)

    def lmo(self, g):
        """Minimize <g, v> over v >= 0, ||v||_2 <= 1.

        Returns [-g]_+ / ||[-g]_+||_2 when g has a negative entry, else 0.
        The attained value is -||[-g]_+||_2.
        """
        g = np.asarray(g, dtype=float)
        neg = np.maximum(-g, 0.0)
        nrm = math.sqrt(np.dot(neg, neg))  # what np.linalg.norm(neg) computes
        if nrm == 0.0:
            return np.zeros_like(g)
        return neg / nrm

    def default_init(self):
        e = np.zeros(self.dim)
        e[0] = 1.0
        return e

    def contains(self, x):
        # no entry below -1e-10 of the largest magnitude (or of 1)
        scale = max(1.0, float(np.max(np.abs(x), initial=0.0)))
        return bool(np.min(x, initial=0.0) >= -1e-10 * scale)


class SecondOrderCone(Cone):
    """Second-order cone {(x, t): ||x||_2 <= t} in R^d, t stored last; dim an int >= 2."""

    def __init__(self, dim):
        _check_count("dim", dim, 2)
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

    def default_init(self):
        # The first basis vector is not a cone point here (t = 0 < ||x||);
        # the cone axis is the canonical nonzero start.
        e = np.zeros(self.dim)
        e[-1] = 1.0
        return e

    def contains(self, x):
        # t at least ||x||, less 1e-10 of the norm of (x, t) (or of 1)
        scale = max(1.0, float(np.linalg.norm(x)))
        return bool(x[-1] - np.linalg.norm(x[:-1]) >= -1e-10 * scale)


class PsdCone(Cone):
    """PSD cone of n x n symmetric matrices, nuclear/operator norm pair.

    n is an int >= 1. The LMO uses a dense eigendecomposition; suitable for
    small n. The matrix-free semidefinite path in sdp.py does not use this
    class.
    """

    def __init__(self, n):
        _check_count("n", n, 1)
        self.n = int(n)

    def lmo(self, g):
        """Minimize <G, V> over V PSD with nuclear norm at most 1.

        Returns q q^T for a unit bottom eigenvector q of the symmetric part
        of G when its smallest eigenvalue is negative, else 0. The attained
        value is min(lambda_min, 0).
        """
        sym = 0.5 * (np.asarray(g, dtype=float) + np.asarray(g, dtype=float).T)
        try:
            evals, evecs = np.linalg.eigh(sym)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy internal
            raise EigFailure("dense eigendecomposition failed") from exc
        if evals[0] < 0.0:
            q = evecs[:, 0]
            return np.outer(q, q)
        return np.zeros_like(sym)

    def default_init(self):
        x = np.zeros((self.n, self.n))
        x[0, 0] = 1.0
        return x

    def contains(self, x):
        # symmetric, with no eigenvalue below -1e-8 of the nuclear norm, and
        # no entry off its transpose by more than that
        x = np.asarray(x, dtype=float)
        evals = np.linalg.eigvalsh(0.5 * (x + x.T))
        slack = 1e-8 * float(np.sum(np.abs(evals)))
        return bool(evals[0] >= -slack and np.max(np.abs(x - x.T)) <= slack)
