"""Recover a signal from magnitude-only masked transform measurements.

The signal x is lifted to X = x x^T so the quadratic measurements become
linear in X, and the solver works on the lifted semidefinite problem while
keeping only a sketch of X. The rank-1 readout of the sketch gives the
recovered signal up to a global sign.

Run:  python3 demos/phase_retrieval.py
"""

import numpy as np

from cdkit import SolverConfig, factor_to_dense, sdp_solve, sketch_reconstruct
from cdkit.problems import build_phase_retrieval, recovery_error


def main():
    ph = build_phase_retrieval(n=64, m=10, seed=0, noise_snr=20.0)
    print(
        f"n=64 signal, {ph.op.d} magnitude measurements over 10 sign masks, "
        f"20 dB noise"
    )
    print(f"energy estimate from the data: {ph.m_estimate:.4f} (truth 1.0)")

    cfg = SolverConfig(max_iters=300, greedy_period=20, rng_seed=0)
    res = sdp_solve(ph.fv, ph.op, gamma=ph.gamma, config=cfg, sketch_size=8)
    print(f"status: {res.status}, final f = {res.trace.f_values()[-1]:.3e}")

    u, lam = sketch_reconstruct(res.sketch, 1)
    x_hat = u[:, 0] * np.sqrt(lam[0])

    lifted_err = np.linalg.norm(
        factor_to_dense(u, lam) - np.outer(ph.x_true, ph.x_true)
    ) / float(ph.x_true @ ph.x_true)
    print(f"lifted matrix error:  {lifted_err:.4f}")
    print(f"signal error (sign-invariant): {recovery_error(x_hat, ph.x_true):.4f}")
    print(f"leading sketch weight: {lam[0]:.4f}, trace of iterate: {res.final_tr:.4f}")


if __name__ == "__main__":
    main()
