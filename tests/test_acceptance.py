"""Acceptance suite.

One test per shipped guarantee, in order. Each test prints a single
"criterion NN PASS" line with the measured margin (visible under -s; the
pytest -v listing gives the pass/fail per criterion either way).
"""

import functools
import gc
import time
import tracemalloc

import numpy as np
import pytest

import cdkit.sdp
from cdkit import (
    ConicProgram,
    NonnegativeOrthant,
    PsdCone,
    SecondOrderCone,
    SketchState,
    SolverConfig,
    factor_to_dense,
    fw_solve,
    sdp_solve,
    sketch_reconstruct,
    solve,
)
from cdkit.problems import (
    build_matcomp,
    build_orthant_quadratic,
    build_phase_retrieval,
    build_trace_toy,
)
from oracles import brute_lmo, log_calls, operator_norm, smoothness_gap_check


def toy_program():
    # f(x, y) = (x - 1)^2 + y^2 over the nonnegative orthant
    # smoothness constant 2, optimum (1, 0) at distance 1 from the origin
    opt = np.array([1.0, 0.0])

    def value(p):
        return float(np.sum((p - opt) ** 2))

    def grad(p):
        return 2.0 * (p - opt)

    def restriction(base, direction):
        a = float(direction @ direction)
        b = 2.0 * float((base - opt) @ direction)
        return a, b

    return ConicProgram(
        2, value, grad, cone=NonnegativeOrthant(2), restriction_oracle=restriction
    )


# start away from the planted optimum: the default orthant init is (1, 0),
# which already solves the toy problem
TOY_X0 = np.array([0.0, 1.0])


def orthant_dist_sq(g):
    neg = np.minimum(g, 0.0)
    return float(neg @ neg)


@functools.lru_cache(maxsize=1)
def rate_bound_sweep():
    """Run moco for 500 visits on the toy and ten planted quadratics and
    collect the worst ratios against the two dual rate bounds plus the
    certificate identity margin."""
    instances = [(toy_program(), 2.0, 1.0, TOY_X0)]
    for seed in range(10):
        built = build_orthant_quadratic(dim=20, seed=seed)
        instances.append(
            (built.program, built.lipschitz, float(np.linalg.norm(built.x_star)), None)
        )
    worst_grad = 0.0
    worst_mom = 0.0
    worst_ident = 0.0
    for prob, lips, radius, x0 in instances:
        scale = 4.0 * lips * lips * radius * radius
        rows = []

        def cb(info, rows=rows, prob=prob):
            record = info["record"]
            xe = record.eta * info["x"]
            grad = prob.gradient_oracle(xe)
            rows.append(
                (
                    record.k,
                    orthant_dist_sq(grad),
                    orthant_dist_sq(info["g_avg"]),
                    record.dual_cert,
                    float(np.linalg.norm(info["g_avg"])),
                )
            )

        solve(prob, SolverConfig(max_iters=500), x0=x0, callback=cb)
        for k, dg, dm, cert, gnorm in rows:
            worst_grad = max(worst_grad, dg * (k + 1) / scale)
            if k >= 2:
                worst_mom = max(worst_mom, dm * (k + 1) / (2.425 * scale))
            ident = abs(cert - np.sqrt(dm)) / (1.0 + gnorm)
            worst_ident = max(worst_ident, ident)
    return worst_grad, worst_mom, worst_ident


def test_criterion_01_toy_primal_rate():
    prob = toy_program()
    for mode in ("cd", "moco"):
        t0 = time.perf_counter()
        res = solve(prob, SolverConfig(max_iters=50, momentum_mode=mode), x0=TOY_X0)
        wall = time.perf_counter() - t0
        for rec in res.trace:
            if rec.k >= 1:
                assert rec.f_value <= 4.0 / (rec.k + 1.0) + 1e-15, (mode, rec.k)
        assert res.trace.f_values()[-1] <= 1e-6, mode
        assert wall < 1.0, mode
    print("criterion 01 PASS: toy reaches f <= 1e-6 under the 4/(k+1) envelope")


def test_criterion_02_ray_slackness_everywhere():
    obs = []

    # vector runs: scale by 1 + |eta x| |grad|
    for mode in ("cd", "moco"):
        prob = toy_program()

        def cb(info, prob=prob):
            record = info["record"]
            xe = record.eta * info["x"]
            s = 1.0 + np.linalg.norm(xe) * np.linalg.norm(prob.gradient_oracle(xe))
            obs.append(abs(record.cs_residual) / s)

        solve(prob, SolverConfig(max_iters=50, momentum_mode=mode), x0=TOY_X0, callback=cb)
    for seed in range(3):
        built = build_orthant_quadratic(dim=20, seed=seed)

        def cb(info, prob=built.program):
            record = info["record"]
            xe = record.eta * info["x"]
            s = 1.0 + np.linalg.norm(xe) * np.linalg.norm(prob.gradient_oracle(xe))
            obs.append(abs(record.cs_residual) / s)

        solve(built.program, SolverConfig(max_iters=500), callback=cb)

    # semidefinite runs: hold them to the tighter unit scale
    mc = build_matcomp(n=100, rank=3, seed=0, block=10, density=0.1, noise_snr=20.0)
    res = sdp_solve(mc.fv, mc.op, config=SolverConfig(max_iters=300))
    obs.extend(abs(c) for c in res.trace.cs_residuals())
    ph = build_phase_retrieval(n=64, m=10, seed=0, noise_snr=20.0)
    res = sdp_solve(
        ph.fv, ph.op, gamma=ph.gamma,
        config=SolverConfig(max_iters=300, greedy_period=20, rng_seed=0), sketch_size=8,
    )
    obs.extend(abs(c) for c in res.trace.cs_residuals())

    worst = max(obs)
    assert worst <= 1e-8, worst
    print(f"criterion 02 PASS: max scaled ray-slackness residual {worst:.3e} <= 1e-8")


def test_criterion_03_gradient_dual_rate():
    worst_grad, _, _ = rate_bound_sweep()
    assert worst_grad <= 1.0, worst_grad
    print(
        "criterion 03 PASS: dist^2(grad) * (k+1) <= 4 L^2 R^2, worst ratio "
        f"{worst_grad:.4f}"
    )


def test_criterion_04_momentum_dual_rate():
    _, worst_mom, _ = rate_bound_sweep()
    assert worst_mom <= 1.0, worst_mom
    print(
        "criterion 04 PASS: dist^2(momentum) * (k+1) <= 9.7 L^2 R^2 for k >= 2, "
        f"worst ratio {worst_mom:.4f}"
    )


def test_criterion_05_certificate_identity():
    _, _, worst_ident = rate_bound_sweep()
    assert worst_ident <= 1e-10, worst_ident

    # semidefinite side: lanczos certificate vs a dense eigendecomposition
    worst_sdp = 0.0

    def make_cb(op, gamma):
        def cb(info):
            dense = op.adjoint_dense(info["g_avg"]) + gamma * np.eye(op.n)
            lam_dense = float(np.linalg.eigvalsh(dense)[0])
            cert = max(0.0, -info["record"].lambda_min)
            nonlocal worst_sdp
            worst_sdp = max(worst_sdp, abs(cert - max(0.0, -lam_dense)))
        return cb

    mc = build_matcomp(n=100, rank=3, seed=0, block=10, density=0.1, noise_snr=20.0)
    sdp_solve(mc.fv, mc.op, config=SolverConfig(max_iters=60), callback=make_cb(mc.op, 0.0))
    ph = build_phase_retrieval(n=64, m=10, seed=0, noise_snr=20.0)
    sdp_solve(
        ph.fv, ph.op, gamma=ph.gamma,
        config=SolverConfig(max_iters=60, greedy_period=20, rng_seed=0), sketch_size=8,
        callback=make_cb(ph.op, ph.gamma),
    )
    assert worst_sdp <= 1e-6, worst_sdp
    print(
        f"criterion 05 PASS: certificate identity, vector margin {worst_ident:.3e}, "
        f"eigensolver vs dense {worst_sdp:.3e}"
    )


def test_criterion_06_smoothness_slack_suite():
    worst = np.inf
    for idx, seed in enumerate(range(100, 120)):
        built = build_orthant_quadratic(dim=20, seed=seed)
        rng = np.random.default_rng(idx)
        pairs = [(rng.standard_normal(20), rng.standard_normal(20)) for _ in range(1000)]
        slack = smoothness_gap_check(
            built.program.value_oracle,
            built.program.gradient_oracle,
            pairs,
            built.lipschitz,
        )
        worst = min(worst, slack)
    assert worst >= -1e-9, worst
    print(f"criterion 06 PASS: smoothness inequality min scaled slack {worst:+.4f}")


def test_criterion_07_lmo_brute_force_equivalence():
    cones = [
        NonnegativeOrthant(2),
        NonnegativeOrthant(3),
        SecondOrderCone(2),
        SecondOrderCone(3),
        PsdCone(2),
        PsdCone(3),
    ]
    worst = 0.0
    for ci, cone in enumerate(cones):
        rng = np.random.default_rng(ci)
        for _ in range(500):
            if isinstance(cone, PsdCone):
                a = rng.standard_normal((cone.n, cone.n))
                g = (a + a.T) / 2.0
                gnorm = operator_norm(g)
            else:
                g = rng.standard_normal(cone.dim)
                gnorm = float(np.linalg.norm(g))
            exact = -float(np.vdot(g, cone.lmo(g)))
            brute = -float(np.vdot(g, brute_lmo(cone, g, grid_n=10000)))
            gap = abs(exact - brute) / (1.0 + gnorm)
            worst = max(worst, gap)
    assert worst <= 2e-3, worst
    print(f"criterion 07 PASS: closed-form vs grid LMO, worst scaled gap {worst:.2e}")


def test_criterion_08_sketch_consistency_through_greedy():
    mc = build_matcomp(n=40, rank=2, seed=0, block=6, density=0.15)
    op = mc.op
    x = np.zeros((40, 40))
    worst = [0.0]
    commits = []

    def cb(info):
        record = info["record"]
        if record.eta != 1.0:
            x[:] *= record.eta
        if record.theta != 0.0:
            x[:] += record.theta * np.outer(info["q"], info["q"])
        gr = info["greedy"]
        if gr is not None and gr["committed"]:
            commits.append(record.k)
            x[:] *= gr["t_sq"]
            x[:] += gr["u"] @ gr["u"].T
        sk = info["sketch"]
        gap = np.linalg.norm(sk.s - x @ sk.omega) / (1.0 + np.linalg.norm(x))
        worst[0] = max(worst[0], gap)

    cfg = SolverConfig(max_iters=300, greedy_period=20, rng_seed=0)
    res = sdp_solve(mc.fv, op, config=cfg, sketch_size=6, callback=cb)
    # the commits the callback replayed are the run's committed refits
    assert commits == [e["k"] for e in res.stats["greedy_events"] if e["committed"]]
    assert len(commits) >= 1
    assert worst[0] <= 1e-8, worst[0]
    print(
        f"criterion 08 PASS: sketch tracks the dense iterate, worst scaled gap "
        f"{worst[0]:.2e} over 300 visits, {len(commits)} greedy commits"
    )


def test_criterion_09_reconstruction_bounds():
    rng = np.random.default_rng(0)
    # exact rank-1 recovery from a width-3 sketch
    worst = 0.0
    for trial in range(50):
        n = 30
        q = rng.standard_normal(n)
        q /= np.linalg.norm(q)
        weight = float(np.exp(rng.standard_normal()))
        x_mat = weight * np.outer(q, q)
        sk = SketchState.create(n, 3, seed=trial)
        sk.add_rank_one(weight, q)
        u, lam = sketch_reconstruct(sk, 1)
        err = np.abs(np.linalg.eigvalsh(factor_to_dense(u, lam) - x_mat)).sum() / weight
        worst = max(worst, err)
    assert worst <= 1e-6, worst

    # rank-5 spectrum, rank-2 readout from a width-8 sketch: the mean nuclear
    # error stays within 10 percent of the tail expectation bound
    n = 40
    sigma = np.array([1.0, 0.5, 0.05, 0.03, 0.02])
    tail = float(sigma[2:].sum())
    bound = 1.1 * (1.0 + 2.0 / (8 - 2 - 1)) * tail
    errs = []
    for trial in range(200):
        gmat = rng.standard_normal((n, 5))
        qmat, _ = np.linalg.qr(gmat)
        x_mat = (qmat * sigma) @ qmat.T
        sk = SketchState.create(n, 8, seed=1000 + trial)
        sk.s = x_mat @ sk.omega
        u, lam = sketch_reconstruct(sk, 2)
        errs.append(np.abs(np.linalg.eigvalsh(factor_to_dense(u, lam) - x_mat)).sum())
    mean_err = float(np.mean(errs))
    assert mean_err <= bound, (mean_err, bound)
    print(
        f"criterion 09 PASS: rank-1 nuclear error {worst:.1e}; rank-5 mean "
        f"{mean_err:.4f} <= {bound:.4f}"
    )


def test_criterion_10_matcomp_monotone_and_greedy_wins():
    wins = 0
    slowest = 0.0
    for seed in range(10):
        mc = build_matcomp(n=100, rank=3, seed=seed, block=10, density=0.1, noise_snr=20.0)
        finals = {}
        for algo in ("cd", "moco", "mocog"):
            mode = "cd" if algo == "cd" else "moco"
            period = 20 if algo == "mocog" else 0
            cfg = SolverConfig(
                max_iters=300, momentum_mode=mode, greedy_period=period, rng_seed=0
            )
            t0 = time.perf_counter()
            res = sdp_solve(mc.fv, mc.op, config=cfg)
            slowest = max(slowest, time.perf_counter() - t0)
            fs = res.trace.f_values()
            assert all(
                fs[i + 1] <= fs[i] + 1e-12 for i in range(len(fs) - 1)
            ), (seed, algo)
            for ev in res.stats["greedy_events"]:
                assert ev["f_after"] <= ev["f_before"] + 1e-12, (seed, ev["k"])
            assert max(abs(c) for c in res.trace.cs_residuals()) <= 1e-8
            finals[algo] = fs[-1]
        wins += finals["mocog"] <= finals["moco"]
    assert wins >= 8, wins
    assert slowest < 60.0, slowest
    print(
        f"criterion 10 PASS: monotone traces, greedy never increases f, "
        f"mocog <= moco on {wins}/10 seeds, slowest run {slowest:.1f}s"
    )


def test_criterion_11_phase_recovery_and_heuristic(monkeypatch):
    hits = 0
    errs = []
    for seed in range(10):
        ph = build_phase_retrieval(n=64, m=10, seed=seed, noise_snr=20.0)
        cfg = SolverConfig(max_iters=300, greedy_period=20, rng_seed=0)
        res = sdp_solve(ph.fv, ph.op, gamma=ph.gamma, config=cfg, sketch_size=8)
        u, lam = sketch_reconstruct(res.sketch, 1)
        lifted = factor_to_dense(u, lam)
        err = float(
            np.linalg.norm(lifted - np.outer(ph.x_true, ph.x_true))
            / (ph.x_true @ ph.x_true)
        )
        errs.append(err)
        hits += err <= 0.1
    assert hits >= 8, errs

    # the heuristic step rule runs zero line searches along the atoms and
    # spends fewer objective evaluations than the searched variant
    ph = build_phase_retrieval(n=64, m=10, seed=0, noise_snr=20.0)
    res_m = sdp_solve(ph.fv, ph.op, gamma=ph.gamma, config=SolverConfig(max_iters=300))
    searches = log_calls(monkeypatch, cdkit.sdp, "line_search_step")
    res_h = sdp_solve(
        ph.fv, ph.op, gamma=ph.gamma,
        config=SolverConfig(max_iters=300, heuristic_m=ph.m_estimate),
    )
    assert searches == []
    m = ph.m_estimate
    assert all(r.theta == 2.0 * m / (r.k + 2.0) for r in res_h.trace[:-1])
    evals_h = res_h.stats["value"] + res_h.stats["restriction"]
    evals_m = res_m.stats["value"] + res_m.stats["restriction"]
    assert evals_h < evals_m, (evals_h, evals_m)
    print(
        f"criterion 11 PASS: lifted recovery error <= 0.1 on {hits}/10 seeds "
        f"(max {max(errs):.4f}); heuristic used {evals_h} objective evals vs "
        f"{evals_m} with line search"
    )


def test_criterion_12_fw_shrunk_domain_stall():
    toy = build_trace_toy()
    res_fw = fw_solve(
        toy.fv, toy.op, tau=0.5, config=SolverConfig(max_iters=300, tol_eps=1e-14)
    )
    f_fw = res_fw.trace.f_values()[-1]
    assert abs(f_fw - 0.125) <= 1e-6, f_fw
    res_moco = sdp_solve(toy.fv, toy.op, config=SolverConfig(max_iters=300))
    f_moco = res_moco.trace.f_values()[-1]
    assert f_moco <= 1e-6, f_moco
    print(
        f"criterion 12 PASS: baseline stalls at f = {f_fw:.6f} with trace budget "
        f"0.5 while the cone method reaches f = {f_moco:.1e}"
    )


def _load_kernels():
    # cdkit imports scipy's compiled kernels on first use; a tiny build and
    # solve loads them, so a traced solve counts only its own arrays
    small = build_matcomp(n=20)
    sdp_solve(small.fv, small.op, config=SolverConfig(max_iters=1))


def test_criterion_13_memory_contract():
    n = 2000
    mc = build_matcomp(n=n, rank=3, seed=0, block=10, density=0.1)
    _load_kernels()
    gc.collect()
    tracemalloc.start()
    baseline = tracemalloc.get_traced_memory()[0]
    res = sdp_solve(mc.fv, mc.op, config=SolverConfig(max_iters=8), sketch_size=8)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert res.status in ("converged", "max_iters")
    used = peak - baseline
    budget = n * n * 8  # one dense n x n float64 must never exist
    assert used < budget, (used, budget)
    # the peak is the Lanczos basis beside at most 3 d-vectors: the image,
    # the momentum average and one transient of the visit's arithmetic
    vec = 8 * mc.op.d
    lanczos = min(n, 200) * n * 8
    assert used <= lanczos + 3 * vec, (used, lanczos, (used - lanczos) / vec)
    print(
        f"criterion 13 PASS: peak solver allocation {used / 1e6:.1f} MB, "
        f"under the {budget / 1e6:.0f} MB dense-matrix budget; "
        f"{(used - lanczos) / vec:.2f} d-vectors beside the Lanczos basis"
    )


def _traced(call):
    # (result, bytes still held, peak bytes) of call, above what was held before
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held - base, peak - base


def test_criterion_13_measurement_arrays_held_once():
    # A completion instance holds each length-d array once: b (float64,
    # shared by the bundle and the objective) and the int32 col_idx, 12
    # bytes per measurement. O(n) covers v_true (8 rank bytes a row), the
    # row counts and row pointers, and the closures. A second b would add 8
    # bytes per measurement, stored row indices 4
    n, rank = 600, 3
    _load_kernels()
    mc, held, peak = _traced(lambda: build_matcomp(n=n, rank=rank, density=0.1))
    d = mc.op.d
    vec = 8 * d
    budget = 12 * d + 8 * n * (rank + 5)
    assert held <= budget, (held, budget, held / d)
    # the build's transients: the mask's column pieces and the images of
    # the factor columns
    assert peak <= budget + 4 * vec, (peak, budget, (peak - held) / vec)
    # the solve peaks in the LMO: the Lanczos basis beside the few
    # d-vectors a visit keeps (the image and the momentum vector; the
    # gradient is dropped once folded in)
    lanczos = min(n, 200) * n * 8
    res, _, solve_peak = _traced(
        lambda: sdp_solve(mc.fv, mc.op, config=SolverConfig(max_iters=8), sketch_size=8)
    )
    assert res.status in ("converged", "max_iters")
    assert solve_peak < lanczos + 4 * vec, (solve_peak, lanczos, (solve_peak - lanczos) / vec)
    print(
        f"criterion 13 PASS: the instance holds {held / d:.1f} bytes per measurement "
        f"(budget {budget / d:.1f}); a visit peaks at "
        f"{(solve_peak - lanczos) / vec:.1f} d-vectors beside the Lanczos basis"
    )


def _dense_program(fv, op, gamma):
    # the semidefinite program min f(apply(X)) + gamma tr X written out over
    # dense n x n matrices, for the conic solver over PsdCone: its own
    # gradient, restriction and eigh LMO, none of the matrix-free path
    n = op.n

    def value(x):
        return fv.value(op.apply_dense(x)) + gamma * float(np.trace(x))

    def gradient(x):
        return op.adjoint_dense(fv.gradient(op.apply_dense(x))) + gamma * np.eye(n)

    def restriction(base, direction):
        a, b = fv.restriction(op.apply_dense(base), op.apply_dense(direction))
        return a, b + gamma * float(np.trace(direction))

    return ConicProgram(n * n, value, gradient, cone=PsdCone(n), restriction_oracle=restriction)


def test_criterion_14_dense_engine_agrees():
    # sdp_solve without refits against solve over PsdCone on the dense
    # program, both from X = 0, 200 visits, under both momentum modes. The
    # two share _descend, so a change to the shared loop moves both alike
    # and this test does not guard it; criteria 03 and 04 and PhiTracker do.
    # It guards what the matrix-free path adds: the measurement-space
    # iterate, its trace penalty, the Lanczos LMO and the certificate.
    # Phase agrees over the whole run (f to 9.7e-7 relative, certificates
    # to 2.8e-9). Noise-free matcomp agrees to 1e-6 through visit 36 (cd)
    # and 60 (moco), then drifts: its flat bottom spectrum lets a roundoff
    # difference in the LMO pick another eigenvector, and the final f
    # differs by 2.0% (cd) and 2.8% (moco)
    phase = build_phase_retrieval(n=16, m=6, seed=0)
    matcomp = build_matcomp(n=12, rank=2, seed=0, block=4, density=0.3)
    worst = {}
    for name, bundle in (("phase", phase), ("matcomp", matcomp)):
        dense = _dense_program(bundle.fv, bundle.op, bundle.gamma)
        x0 = np.zeros((bundle.op.n, bundle.op.n))
        for mode in ("moco", "cd"):
            config = SolverConfig(max_iters=200, momentum_mode=mode)
            fast = sdp_solve(bundle.fv, bundle.op, bundle.gamma, config=config)
            slow = solve(dense, config, x0=x0)
            f_fast = np.array(fast.trace.f_values())
            f_slow = np.array(slow.trace.f_values())
            assert f_fast.shape == f_slow.shape == (201,), (name, mode)
            rel = np.abs(f_fast - f_slow) / np.abs(f_slow)
            certs = np.abs(np.subtract(fast.trace.dual_certs(), slow.trace.dual_certs()))
            if name == "phase":
                assert rel.max() <= 1e-5, (mode, int(rel.argmax()), rel.max())
                assert certs.max() <= 1e-7, (mode, int(certs.argmax()), certs.max())
            else:
                assert rel[:30].max() <= 1e-6, (mode, int(rel[:30].argmax()), rel[:30].max())
                assert rel[-1] <= 0.05, (mode, rel[-1])
            worst[name, mode] = rel.max()
    print(
        "criterion 14 PASS: sdp_solve tracks the dense PsdCone solve, phase f to "
        f"{max(worst['phase', m] for m in ('moco', 'cd')):.1e} relative over 200 visits"
    )
