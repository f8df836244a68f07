"""Independent checks: the surrogate lower bound tracker, finite-difference
gradient validation, and smoothness gap probing."""

import numpy as np
import pytest

from cdkit import ConicProgram, SolverConfig, sdp_solve, solve
from cdkit.problems import build_matcomp, build_orthant_quadratic
from oracles import (
    PhiTracker,
    fd_gradient_check,
    phi_lower_bound,
    smoothness_gap_check,
)


def _delta(k, mode):
    # the averaging weight of the paper's schedule, written out here rather
    # than read from the solver
    return 2.0 / (k + 2.0) if mode == "moco" else 1.0


def test_phi_tracker_matches_solver_momentum_bitwise():
    # feed the tracker the same (delta, f, grad, point) stream the solver
    # consumes and require bit-identical momentum vectors, with averaging
    # ("moco") and without ("cd": the average is the current gradient)
    built = build_orthant_quadratic(dim=12, seed=0)
    prob = built.program
    for mode in ("moco", "cd"):
        tracker = PhiTracker(12)
        mism = []

        def cb(info):
            record = info["record"]
            xe = record.eta * info["x"]
            grad = prob.gradient_oracle(xe)
            tracker.update(_delta(record.k, mode), record.f_value, grad, xe)
            if not np.array_equal(tracker.linear, info["g_avg"]):
                mism.append(record.k)
            if mode == "cd" and not np.array_equal(info["g_avg"], grad):
                mism.append(("cd", record.k))

        solve(prob, SolverConfig(max_iters=40, momentum_mode=mode), callback=cb)
        assert mism == [], mode
        assert tracker.n_updates == 41


def test_phi_tracker_value_at_affine():
    tracker = PhiTracker(2)
    tracker.update(1.0, 3.0, np.array([1.0, -1.0]), np.array([2.0, 0.0]))
    # surrogate is f + <g, x - point> = 3 + <(1,-1), x> - 2
    assert tracker.value_at(np.array([0.0, 0.0])) == pytest.approx(1.0)
    assert tracker.value_at(np.array([1.0, 1.0])) == pytest.approx(1.0)


def test_phi_lower_bound_below_true_optimum():
    # the averaged linearization minorizes f on the whole cone, so its
    # minimum over the radius ball is a valid lower bound on f_star
    built = build_orthant_quadratic(dim=15, seed=1)
    prob = built.program
    tracker = PhiTracker(15)

    def cb(info):
        record = info["record"]
        xe = record.eta * info["x"]
        tracker.update(_delta(record.k, "moco"), record.f_value, prob.gradient_oracle(xe), xe)

    solve(prob, SolverConfig(max_iters=200), callback=cb)
    radius = float(np.linalg.norm(built.x_star))
    lb = phi_lower_bound(tracker, prob.cone, radius)
    assert lb <= built.f_star + 1e-9
    # and not vacuously loose on a well-conditioned instance
    assert lb > built.f_star - 10.0


def test_phi_minorant_with_restarted_weights_stays_below_a_long_matcomp_run():
    # a 300-visit mocog run on matcomp n = 30 at gamma 0.5, whose average
    # restarts. The tracker takes each visit's tangent of f(A(X)) + gamma tr
    # X in measurement space, weighted 2 / (j + 2) with j counted from the
    # visit after the last restart the refit events report, and its linear
    # part is the loop's g_avg to the bit. A convex combination of tangents
    # minorizes the objective, so its minimum over {X psd, tr X <= R}, for R
    # the largest visited trace, alpha + R min(0, lambda_min(A*(linear) +
    # gamma I)), is below every visited f, the best one included
    mc = build_matcomp(n=30, rank=2, seed=0, block=5, density=0.15)
    gamma = 0.5
    tracker = PhiTracker(mc.op.d)
    visited = {"y": np.zeros(mc.op.d), "tr": 0.0, "since": 0, "traces": [], "restarts": []}
    mism = []

    def cb(info):
        record = info["record"]
        # the visited point: the previous visit's state after the ray rescale
        y, tr = record.eta * visited["y"], record.eta * visited["tr"]
        grad = mc.fv.gradient_oracle(y)
        delta = 2.0 / (record.k - visited["since"] + 2.0)
        tracker.update(delta, record.f_value - gamma * tr, grad, y)
        if not np.array_equal(tracker.linear, info["g_avg"]):
            mism.append(record.k)
        visited["traces"].append(tr)
        visited["y"], visited["tr"] = info["y"], info["tr"]
        if info["greedy"] is not None and info["greedy"]["restart"]:
            visited["since"] = record.k + 1
            visited["restarts"].append(record.k)

    cfg = SolverConfig(max_iters=300, greedy_period=20)
    res = sdp_solve(mc.fv, mc.op, gamma, config=cfg, callback=cb)
    assert mism == []
    assert visited["restarts"], "the run never restarts its average"
    radius = max(visited["traces"])
    adjoint = mc.op.adjoint_dense(tracker.linear) + gamma * np.eye(mc.op.n)
    bound = tracker.alpha + radius * min(0.0, float(np.linalg.eigvalsh(adjoint)[0]))
    best = float(res.trace.f_values().min())
    assert bound <= best
    # and not vacuous: 16.753 against 16.837, after 12 restarts
    assert bound > 0.99 * best


def test_fd_gradient_check_accepts_correct_gradient():
    built = build_orthant_quadratic(dim=10, seed=2)
    x = np.abs(np.random.default_rng(0).standard_normal(10))
    err = fd_gradient_check(built.program.value_oracle, built.program.gradient_oracle, x)
    assert err < 1e-5


def test_fd_gradient_check_flags_wrong_gradient():
    built = build_orthant_quadratic(dim=10, seed=3)

    def bad_grad(x):
        return 2.0 * built.program.gradient_oracle(x)

    x = np.abs(np.random.default_rng(1).standard_normal(10))
    err = fd_gradient_check(built.program.value_oracle, bad_grad, x)
    # a gradient off by a factor of two shows a relative error near one
    assert err > 0.4


def test_smoothness_gap_nonnegative_with_true_constant():
    built = build_orthant_quadratic(dim=10, seed=4)
    rng = np.random.default_rng(5)
    pairs = [(rng.standard_normal(10), rng.standard_normal(10)) for _ in range(60)]
    slack = smoothness_gap_check(
        built.program.value_oracle, built.program.gradient_oracle, pairs, built.lipschitz
    )
    assert slack >= -1e-12


def test_smoothness_gap_detects_understated_constant():
    built = build_orthant_quadratic(dim=10, seed=6)
    rng = np.random.default_rng(7)
    pairs = [(rng.standard_normal(10), rng.standard_normal(10)) for _ in range(60)]
    slack = smoothness_gap_check(
        built.program.value_oracle, built.program.gradient_oracle, pairs, built.lipschitz / 2.0
    )
    assert slack < 0.0
