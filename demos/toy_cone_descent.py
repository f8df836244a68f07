"""Two-dimensional walk-through of conic descent on the nonnegative orthant.

Minimizes f(x, y) = (x - 1)^2 + y^2 subject to (x, y) >= 0. The optimum
sits at (1, 0) on the boundary, so the run shows all three moves of a
visit: the ray rescale, the certificate from the orthant LMO, and the
line-searched step along the new atom.

Run:  python3 demos/toy_cone_descent.py
"""

import numpy as np

from cdkit import ConicProgram, NonnegativeOrthant, SolverConfig, solve

OPT = np.array([1.0, 0.0])


def value(p):
    return float(np.sum((p - OPT) ** 2))


def grad(p):
    return 2.0 * (p - OPT)


def restriction(base, direction):
    # f(base + t * direction) = f(base) + a t^2 + b t
    a = float(direction @ direction)
    b = 2.0 * float((base - OPT) @ direction)
    return a, b


def main():
    prob = ConicProgram(
        2, value, grad,
        cone=NonnegativeOrthant(2),
        restriction_oracle=restriction,
    )
    # start away from the optimum; (1, 0) itself would converge at visit 0
    x0 = np.array([0.0, 1.0])

    for mode in ("cd", "moco"):
        res = solve(prob, SolverConfig(max_iters=20, momentum_mode=mode), x0=x0)
        print(f"\n{mode}: status={res.status}")
        print(f"{'k':>3} {'f':>12} {'dual cert':>12} {'eta':>8} {'theta':>8}  4/(k+1)")
        for rec in res.trace[:8]:
            envelope = 4.0 / (rec.k + 1.0) if rec.k >= 1 else float("inf")
            print(
                f"{rec.k:>3} {rec.f_value:>12.3e} {rec.dual_cert:>12.3e} "
                f"{rec.eta:>8.3f} {rec.theta:>8.3f}  {envelope:.3f}"
            )
        print(f"final point: {np.round(res.final_point, 6)}")


if __name__ == "__main__":
    main()
