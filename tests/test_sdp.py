"""Semidefinite engine: Lanczos eigensolver, sketch algebra, reconstruction,
greedy refinement, and the vectorized solve loops against dense mirrors."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from cdkit import sdp
from cdkit import (
    EigFailure,
    GreedyConfig,
    LanczosConfig,
    RankTooLarge,
    SdpState,
    SketchState,
    SolverConfig,
    factor_to_dense,
    fw_solve,
    load_factor,
    min_eig_lanczos,
    save_factor,
    sdp_solve,
    sketch_reconstruct,
)
from cdkit.sdp import (
    _quad_argmin_segment,
    _tridiagonal_min_eig,
    fw_baseline_step,
    greedy_step,
    theta_heuristic,
)
from cdkit.problems import build_matcomp, build_phase_retrieval, build_trace_toy


# ---------------------------------------------------------------------------
# Lanczos


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lanczos_matches_dense_eigh(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((50, 50))
    a = (a + a.T) / 2.0
    lam, q = min_eig_lanczos(lambda v: a @ v, 50, LanczosConfig(seed=seed))
    w = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.abs(w).max()))
    assert abs(lam - w[0]) <= 1e-9 * scale
    assert np.linalg.norm(a @ q - lam * q) <= 1e-5 * scale
    assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)


def test_lanczos_scalar_operator():
    lam, q = min_eig_lanczos(lambda v: -3.0 * v, 1)
    assert lam == -3.0
    np.testing.assert_array_equal(q, [1.0])


def test_lanczos_rejects_nonfinite_operator():
    with pytest.raises(EigFailure):
        min_eig_lanczos(lambda v: v * np.nan, 5)


def test_lanczos_overflowing_residual_raises_eig_failure():
    # every matvec is finite, but the residual norm squared overflows; the
    # tridiagonal step must not see the infinite beta
    d = 1e200 * np.arange(1.0, 9.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EigFailure, match="overflowed"):
            min_eig_lanczos(lambda v: d * v, 8)


def test_lanczos_diag_with_known_minimum():
    d = np.arange(40, dtype=float) - 5.0
    lam, q = min_eig_lanczos(lambda v: d * v, 40, LanczosConfig(seed=1))
    assert lam == pytest.approx(-5.0, abs=1e-10)
    assert abs(q[0]) == pytest.approx(1.0, abs=1e-6)


def _tridiagonal_cases():
    rng = np.random.default_rng(7)
    for size in (1, 2, 10, 34, 86, 200):
        for k in range(5):
            d = rng.standard_normal(size) * np.exp(rng.standard_normal())
            yield f"random-{size}-{k}", d, np.abs(rng.standard_normal(size - 1))
    # clustered diagonal: near-equal eigenvalues stress bisection and
    # inverse iteration the most
    d = 1.0 + 1e-10 * rng.standard_normal(40)
    yield "clustered-40", d, 1e-8 * np.abs(rng.standard_normal(39))
    yield "clustered-tied-40", np.full(40, 2.0), np.full(39, 1e-12)


_TRIDIAGONAL_CASES = list(_tridiagonal_cases())


@pytest.mark.parametrize(
    "d, e", [c[1:] for c in _TRIDIAGONAL_CASES], ids=[c[0] for c in _TRIDIAGONAL_CASES]
)
def test_tridiagonal_step_matches_eigh_tridiagonal_bitwise(d, e):
    ritz, svec = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    lam, vec = _tridiagonal_min_eig(d, e)
    np.testing.assert_array_equal(lam, ritz[0])
    np.testing.assert_array_equal(vec, svec[:, 0])


def _reference_min_eig_lanczos(matvec, n, cfg):
    # the Lanczos loop as it was with scipy's eigh_tridiagonal wrapper, kept
    # to show the direct LAPACK step changes no bit of the answer
    try:
        return _reference_lanczos_once(matvec, n, cfg, cfg.seed)
    except EigFailure:
        return _reference_lanczos_once(matvec, n, cfg, cfg.seed + 1)


def _reference_lanczos_once(matvec, n, cfg, seed):
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
    for j in range(m):
        basis[:, j] = v
        w = np.asarray(matvec(v), dtype=float)
        if not np.all(np.isfinite(w)):
            raise EigFailure("operator returned non-finite values")
        alphas[j] = float(v @ w)
        w -= alphas[j] * v
        if j > 0:
            w -= betas[j - 1] * basis[:, j - 1]
        for _ in range(2):
            w -= basis[:, : j + 1] @ (basis[:, : j + 1].T @ w)
        beta = float(np.linalg.norm(w))
        ritz, svec = scipy.linalg.eigh_tridiagonal(
            alphas[: j + 1], betas[:j], select="i", select_range=(0, 0)
        )
        lam = float(ritz[0])
        ritz_vec = svec[:, 0]
        scale = max(
            1.0,
            float(np.abs(alphas[: j + 1]).max())
            + (2.0 * float(np.abs(betas[:j]).max()) if j > 0 else 0.0),
        )
        resid_est = beta * abs(float(ritz_vec[-1]))
        j_stop = j
        if resid_est <= cfg.residual_tol * scale or beta <= 1e-14 * scale:
            break
        betas[j] = beta
        v = w / beta
    q = basis[:, : j_stop + 1] @ ritz_vec
    q /= np.linalg.norm(q)
    resid = float(np.linalg.norm(np.asarray(matvec(q), dtype=float) - lam * q))
    if resid > 10.0 * cfg.residual_tol * scale:
        raise EigFailure(
            f"eigenpair residual {resid:.3e} above tolerance after {j_stop + 1} steps"
        )
    return lam, q


def _outcome(solver, matvec, n, cfg):
    try:
        return solver(matvec, n, cfg)
    except EigFailure as exc:
        return str(exc), None


@pytest.mark.parametrize("n", [1, 2, 50, 100])
def test_lanczos_matches_reference_loop_bitwise(n):
    for seed in range(4):
        rng = np.random.default_rng(1000 * n + seed)
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        # a 30-step cap leaves most of the n = 50 and 100 cases short of the
        # tolerance, so both must also fail alike, residual included
        for cfg in (LanczosConfig(seed=seed), LanczosConfig(max_iters=30, seed=seed)):
            got = _outcome(min_eig_lanczos, lambda v: a @ v, n, cfg)
            ref = _outcome(_reference_min_eig_lanczos, lambda v: a @ v, n, cfg)
            assert got[0] == ref[0]
            np.testing.assert_array_equal(got[1], ref[1])


def test_lapack_failure_takes_the_retry(monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 30))
    a = (a + a.T) / 2.0
    cfg = LanczosConfig(seed=3)
    stebz = sdp._STEBZ
    failures = []

    def fail_once(*args):
        m, w, iblock, isplit, info = stebz(*args)
        if not failures:
            failures.append(args)
            info = 1
        return m, w, iblock, isplit, info

    monkeypatch.setattr(sdp, "_STEBZ", fail_once)
    lam, q = min_eig_lanczos(lambda v: a @ v, 30, cfg)
    assert len(failures) == 1
    # the retry is a fresh run from the reseeded start
    monkeypatch.setattr(sdp, "_STEBZ", stebz)
    retry_lam, retry_q = sdp._lanczos_once(lambda v: a @ v, 30, cfg, cfg.seed + 1)
    assert lam == retry_lam
    np.testing.assert_array_equal(q, retry_q)
    assert abs(lam - np.linalg.eigvalsh(a)[0]) <= 1e-9 * max(1.0, np.abs(a).sum())


def test_lanczos_gives_up_after_two_lapack_failures(monkeypatch):
    stebz = sdp._STEBZ

    def always_fail(*args):
        m, w, iblock, isplit, info = stebz(*args)
        return m, w, iblock, isplit, 1

    monkeypatch.setattr(sdp, "_STEBZ", always_fail)
    with pytest.raises(EigFailure, match="info 1"):
        min_eig_lanczos(lambda v: np.arange(6.0) * v, 6)


# ---------------------------------------------------------------------------
# sketch algebra mirrors dense updates exactly


def test_sketch_tracks_dense_matrix():
    n = 8
    rng = np.random.default_rng(0)
    sk = SketchState.create(n, 4, seed=3)
    x = np.zeros((n, n))
    for step in range(12):
        q = rng.standard_normal(n)
        if step % 3 == 0:
            eta = float(np.exp(rng.standard_normal() * 0.1))
            sk.scale(eta)
            x *= eta
        theta = float(np.abs(rng.standard_normal()))
        sk.add_rank_one(theta, q)
        x += theta * np.outer(q, q)
    np.testing.assert_allclose(sk.s, x @ sk.omega, rtol=0, atol=1e-10 * (1 + np.abs(x).max()))


def test_sketch_replace_resets_to_scaled_plus_factor():
    n = 6
    sk = SketchState.create(n, 3, seed=0)
    rng = np.random.default_rng(1)
    sk.add_rank_one(2.0, rng.standard_normal(n))
    x_old = None  # replace discards history up to a scalar multiple
    u = rng.standard_normal((n, 2))
    s_prev = sk.s.copy()
    sk.replace(0.5, u)
    want = 0.5 * s_prev + u @ (u.T @ sk.omega)
    np.testing.assert_allclose(sk.s, want, atol=1e-12)


def test_sketch_size_floor():
    with pytest.raises(ValueError):
        SketchState.create(5, 1)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_rank_one_exact():
    n = 20
    rng = np.random.default_rng(2)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    sk = SketchState.create(n, 3, seed=5)
    sk.add_rank_one(1.7, q)
    u, lam = sketch_reconstruct(sk, 1)
    err = np.abs(np.linalg.eigvalsh(factor_to_dense(u, lam) - 1.7 * np.outer(q, q))).sum()
    assert err <= 1e-6 * 1.7


def test_reconstruct_zero_sketch_gives_zeros():
    sk = SketchState.create(10, 4, seed=0)
    u, lam = sketch_reconstruct(sk, 2)
    np.testing.assert_array_equal(lam, np.zeros(2))
    np.testing.assert_array_equal(u @ np.diag(lam) @ u.T, np.zeros((10, 10)))


def test_reconstruct_rank_cap():
    sk = SketchState.create(10, 4, seed=0)
    with pytest.raises(RankTooLarge):
        sketch_reconstruct(sk, 3)
    with pytest.raises(RankTooLarge):
        sketch_reconstruct(sk, 4)


def test_factor_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    u = rng.standard_normal((7, 2))
    lam = np.array([2.0, 0.5])
    path = tmp_path / "factor.npz"
    save_factor(path, u, lam)
    u2, lam2 = load_factor(path)
    np.testing.assert_array_equal(u, u2)
    np.testing.assert_array_equal(lam, lam2)


# ---------------------------------------------------------------------------
# segment argmin for the baseline step


def test_quad_argmin_segment_cases():
    # minimize a t^2 + b t over [0, 1]
    assert _quad_argmin_segment(1.0, -1.0) == 0.5
    assert _quad_argmin_segment(1.0, -4.0) == 1.0
    assert _quad_argmin_segment(1.0, 1.0) == 0.0
    assert _quad_argmin_segment(0.0, -2.0) == 1.0
    assert _quad_argmin_segment(0.0, 2.0) == 0.0
    assert _quad_argmin_segment(-1.0, 0.5) == 1.0
    assert _quad_argmin_segment(-1.0, 3.0) == 0.0


def test_theta_heuristic_schedule():
    assert theta_heuristic(0, 1.0) == 1.0
    assert theta_heuristic(2, 3.0) == 1.5


# ---------------------------------------------------------------------------
# solve loops on the trace toy (known optimum f_star = 0)


def test_sdp_solve_trace_toy_cd():
    toy = build_trace_toy()
    res = sdp_solve(toy.fv, toy.op, config=SolverConfig(max_iters=50, momentum_mode="cd"))
    assert res.status == "converged"
    assert res.trace.f_values()[-1] <= 1e-12
    assert res.certified_dual_cert <= 1e-8


def test_sdp_solve_trace_toy_moco():
    toy = build_trace_toy()
    res = sdp_solve(toy.fv, toy.op, config=SolverConfig(max_iters=200))
    assert res.trace.f_values()[-1] <= 1e-10
    assert res.final_tr == pytest.approx(toy.target, abs=1e-6)


def test_sdp_solve_monotone_on_matcomp():
    mc = build_matcomp(n=40, rank=2, seed=0, block=6, density=0.15)
    res = sdp_solve(mc.fv, mc.op, gamma=mc.gamma, config=SolverConfig(max_iters=60))
    fs = res.trace.f_values()
    assert all(fs[i + 1] <= fs[i] + 1e-12 for i in range(len(fs) - 1))
    assert fs[-1] < fs[0]
    # lambda column is populated on the semidefinite path
    assert all(rec.lambda_min is not None for rec in res.trace.records)


def test_sdp_solve_dense_mirror_consistency():
    # replay the iteration in dense matrix space and require the vectorized
    # state to match the measurement of the dense iterate
    mc = build_matcomp(n=25, rank=2, seed=1, block=5, density=0.2)
    op = mc.op
    x = np.zeros((25, 25))
    worst = [0.0]

    def cb(info):
        # visit order: ray rescale, then the rank-one step, then greedy
        if info["eta"] != 1.0:
            x[:] *= info["eta"]
        if info["theta"] != 0.0:
            x[:] += info["theta"] * np.outer(info["q"], info["q"])
        if info["greedy"] is not None and info["greedy"]["committed"]:
            x[:] *= info["greedy"]["t_sq"]
            x[:] += info["greedy"]["u"] @ info["greedy"]["u"].T
        gap = np.abs(op.apply_dense(x) - op.z - info["y"]).max()
        worst[0] = max(worst[0], gap)

    cfg = SolverConfig(max_iters=40, greedy_period=15, rng_seed=0)
    sdp_solve(mc.fv, op, config=cfg, sketch_size=6, record_factors=True, callback=cb)
    assert worst[0] <= 1e-8


def test_greedy_step_never_commits_an_increase():
    mc = build_matcomp(n=30, rank=2, seed=2, block=5, density=0.15)
    cfg = SolverConfig(max_iters=60, greedy_period=10, rng_seed=0)
    res = sdp_solve(mc.fv, mc.op, config=cfg, sketch_size=6)
    events = res.stats["greedy_events"]
    assert len(events) >= 4
    for ev in events:
        if ev["committed"]:
            assert ev["f_after"] < ev["f_before"]
        else:
            assert ev["f_after"] == ev["f_before"]
    assert res.stats["n_greedy_commits"] == sum(1 for ev in events if ev["committed"])


def test_greedy_step_standalone_improves_from_partial_iterate():
    mc = build_matcomp(n=30, rank=2, seed=3, block=5, density=0.15)
    res = sdp_solve(mc.fv, mc.op, config=SolverConfig(max_iters=15))
    state = SdpState(res.final_y.copy(), res.final_tr, None)
    f0 = mc.fv.value(state.y)
    info = greedy_step(mc.fv, mc.op, 0.0, state, np.random.default_rng(0), GreedyConfig())
    assert info["f_before"] == pytest.approx(f0, rel=1e-12)
    if info["committed"]:
        assert mc.fv.value(state.y) < f0
    else:
        assert mc.fv.value(state.y) == pytest.approx(f0, rel=1e-12)


# ---------------------------------------------------------------------------
# the trace-constrained baseline


def test_fw_trace_toy_small_radius_stalls_at_boundary():
    # with trace budget 0.5 the best feasible value of (tr - 1)^2 is 0.25^...
    # the measured objective is 0.5 * (tr - 1)^2 scaled by the toy, frozen:
    toy = build_trace_toy()
    res = fw_solve(toy.fv, toy.op, tau=0.5, config=SolverConfig(max_iters=100, tol_eps=1e-14))
    assert abs(res.trace.f_values()[-1] - 0.125) <= 1e-9
    assert res.status == "converged"


def test_fw_trace_toy_large_radius_reaches_optimum():
    toy = build_trace_toy()
    res = fw_solve(toy.fv, toy.op, tau=2.0, config=SolverConfig(max_iters=100, tol_eps=1e-14))
    assert res.trace.f_values()[-1] <= 1e-12


def test_fw_gap_column_decreases_on_matcomp():
    mc = build_matcomp(n=30, rank=2, seed=4, block=5, density=0.15)
    res = fw_solve(mc.fv, mc.op, tau=5.0, config=SolverConfig(max_iters=60))
    gaps = res.trace.dual_certs()
    assert gaps[-1] < gaps[0]
    assert res.final_tr <= 5.0 + 1e-9
    assert res.stats["n_theta_searches"] == 0


def test_fw_segment_search_paths_agree_with_trace_penalty():
    # the golden-section fallback must minimize the same penalized objective
    # as the closed-form segment step; dropping the gamma trace term there
    # ends this run near f = 19.09 instead of 17.81
    mc = build_matcomp(n=30, rank=2, seed=0, block=5, density=0.15)
    cfg = SolverConfig(max_iters=40)
    exact = fw_solve(mc.fv, mc.op, tau=50.0, gamma=0.5, config=cfg)
    golden_fv = dataclasses.replace(mc.fv, restriction_oracle=None)
    golden = fw_solve(golden_fv, mc.op, tau=50.0, gamma=0.5, config=cfg)
    assert golden.stats["restriction"] == 0
    f_exact = exact.trace.f_values()[-1]
    assert golden.trace.f_values()[-1] == pytest.approx(f_exact, rel=1e-5)


def test_fw_baseline_step_applies_in_place():
    toy = build_trace_toy()
    state = SdpState(toy.op.z * 0.0 - toy.op.z, 0.0, None)
    info = fw_baseline_step(toy.fv, toy.op, 0.0, 2.0, state)
    assert info["gap"] > 0.0
    assert state.tr > 0.0


# ---------------------------------------------------------------------------
# operator identities


def test_measurement_operator_identities():
    mc = build_matcomp(n=30, rank=2, seed=5, block=5, density=0.15)
    op = mc.op
    rng = np.random.default_rng(6)
    for _ in range(10):
        q = rng.standard_normal(30)
        p = rng.standard_normal(op.d)
        # <p, G(q q^T)> == q^T (G^*(p) q)
        lhs = float(p @ op.gram(q))
        rhs = float(q @ op.adjoint_matvec(p, q))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        # dense apply agrees with the factored gram
        np.testing.assert_allclose(op.apply_dense(np.outer(q, q)), op.gram(q), atol=1e-10)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_matcomp(n=20, rank=2, seed=6, block=4, density=0.2),
        lambda: build_phase_retrieval(n=20, m=4, seed=6),
    ],
    ids=["matcomp", "phase"],
)
def test_gram_accepts_blocks(build):
    op = build().op
    rng = np.random.default_rng(7)
    u = rng.standard_normal((20, 3))
    block = op.gram(u)
    cols = sum(op.gram(u[:, j]) for j in range(3))
    np.testing.assert_allclose(block, cols, atol=1e-12)
    p = rng.standard_normal(op.d)
    by_column = np.stack([op.adjoint_matvec(p, u[:, j]) for j in range(3)], axis=1)
    np.testing.assert_allclose(op.adjoint_matvec(p, u), by_column, atol=1e-12)
