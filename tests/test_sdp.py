"""Semidefinite engine: Lanczos eigensolver, sketch algebra, reconstruction,
greedy refinement, and the vectorized solve loops against dense mirrors."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cdkit import sdp
from cdkit import (
    EigFailure,
    LineSearchDivergence,
    MeasurementOperator,
    RankTooLarge,
    SketchState,
    SolverConfig,
    factor_to_dense,
    fw_solve,
    min_eig_lanczos,
    sdp_solve,
    sketch_reconstruct,
    solve,
)
from cdkit.sdp import (
    SdpState,
    _factor_quartic,
    _factor_slope,
    _quartic_argmin,
    _tridiagonal_min_eig,
    greedy_step,
)
from cdkit.core import _quad_argmin_nonneg, minimize_convex_1d
from cdkit.problems import (
    build_matcomp,
    build_orthant_quadratic,
    build_phase_retrieval,
    build_trace_toy,
)


# ---------------------------------------------------------------------------
# Lanczos


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lanczos_matches_dense_eigh(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((50, 50))
    a = (a + a.T) / 2.0
    lam, q = min_eig_lanczos(lambda v: a @ v, 50, seed=seed)
    w = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.abs(w).max()))
    assert abs(lam - w[0]) <= 1e-9 * scale
    assert np.linalg.norm(a @ q - lam * q) <= 1e-5 * scale
    assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)


def test_lanczos_scalar_operator():
    lam, q = min_eig_lanczos(lambda v: -3.0 * v, 1)
    assert lam == -3.0
    np.testing.assert_array_equal(q, [1.0])


def test_lanczos_rejects_empty_operator():
    # the Ritz pair is read after the step loop, which an n of 0 never enters
    with pytest.raises(ValueError, match="at least 1"):
        min_eig_lanczos(lambda v: v, 0)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lanczos_rejects_nonfinite_operator(n, bad):
    # n = 1 reads the one entry of one matvec instead of running the loop,
    # and must screen it the same way
    with pytest.raises(EigFailure, match="non-finite"):
        min_eig_lanczos(lambda v: v * bad, n)


@pytest.mark.parametrize("n", [1, 2])
def test_sdp_solve_rejects_nonfinite_adjoint(n):
    # a NaN eigenvalue would give the certificate max(0, -nan) = 0, a false
    # "converged"
    toy = build_trace_toy(n=n)
    def adjoint_matvec(p, u):
        return np.full(np.shape(u), np.nan)

    op = MeasurementOperator(n=n, d=1, gram=toy.op.gram, adjoint_matvec=adjoint_matvec)
    with pytest.raises(EigFailure, match="non-finite"):
        sdp_solve(toy.fv, op, config=SolverConfig(max_iters=5))


def test_lanczos_overflowing_residual_raises_eig_failure():
    # every matvec is finite, but the residual norm squared overflows; the
    # tridiagonal step must not see the infinite beta
    d = 1e200 * np.arange(1.0, 9.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EigFailure, match="overflowed"):
            min_eig_lanczos(lambda v: d * v, 8)


def test_lanczos_diag_with_known_minimum():
    d = np.arange(40, dtype=float) - 5.0
    lam, q = min_eig_lanczos(lambda v: d * v, 40, seed=1)
    assert lam == pytest.approx(-5.0, abs=1e-10)
    assert abs(q[0]) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_lanczos_warm_start_on_wrong_eigenvector_finds_bottom(seed):
    # e_2 is the eigenvector of eigenvalue 2: alone it spans an invariant
    # subspace and Lanczos would stop there at 2; the random part of the
    # start must carry the run down to 1
    d = np.arange(1.0, 41.0)
    start = np.zeros(40)
    start[1] = 1.0
    lam, q = min_eig_lanczos(lambda v: d * v, 40, seed=seed, start=start)
    assert abs(lam - 1.0) <= 1e-9
    assert abs(q[0]) == pytest.approx(1.0, abs=1e-6)


def test_lanczos_step_cap_is_200():
    # n = 400 with the spectrum clustered at 0: no run converges within 200
    # steps, so each of the two attempts (the retry starts cold from seed
    # + 1) makes exactly 200 loop matvecs and one for the verification
    d = np.linspace(0.0, 1.0, 400) ** 2
    matvecs = [0]

    def matvec(v):
        matvecs[0] += 1
        return d * v

    with pytest.raises(EigFailure, match="after 200 steps"):
        min_eig_lanczos(matvec, 400, seed=0)
    assert matvecs[0] == 2 * (200 + 1)


@pytest.mark.parametrize("seed", range(4))
def test_lanczos_clustered_bottom_at_the_step_cap(seed):
    # n = 100 with the bottom 4 eigenvalues within 1e-9 of each other and the
    # rest close above them: the residual estimate never meets the tolerance
    # early, so the run makes all 100 steps (one matvec each) plus the
    # verification, and the two projection passes must keep the basis
    # orthogonal that long
    rng = np.random.default_rng(seed)
    w = np.concatenate(
        [-1.0 + 1e-9 * np.array([0.0, 0.25, 0.5, 1.0]),
         -1.0 + 1e-3 + 10.0 * np.linspace(0.0, 1.0, 97)[1:] ** 2]
    )
    basis, _ = np.linalg.qr(rng.standard_normal((100, 100)))
    a = (basis * w) @ basis.T
    a = (a + a.T) / 2.0
    matvecs = [0]

    def matvec(v):
        matvecs[0] += 1
        return a @ v

    lam, q = min_eig_lanczos(matvec, 100, seed=seed)
    assert matvecs[0] == 100 + 1
    w = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.abs(w).max()))
    assert abs(lam - w[0]) <= 1e-9 * scale
    # the solver's scale max|alpha| + 2 max|beta| is at most 3 ||A||
    assert np.linalg.norm(a @ q - lam * q) <= 10.0 * sdp._LANCZOS_TOL * 3.0 * scale


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


def _reference_min_eig_lanczos(matvec, n, seed, max_steps):
    # the Lanczos loop on scipy's eigh_tridiagonal wrapper, with the same
    # check schedule and tolerance, kept to show the direct LAPACK step
    # changes no bit of the answer
    try:
        return _reference_lanczos_once(matvec, n, seed, max_steps)
    except EigFailure:
        return _reference_lanczos_once(matvec, n, seed + 1, max_steps)


def _reference_lanczos_once(matvec, n, seed, max_steps):
    tol = 1e-8
    if n == 1:
        q = np.ones(1)
        lam = float(np.asarray(matvec(q)).ravel()[0])
        return lam, q
    rng = np.random.default_rng(seed)
    m = min(n, max_steps)
    basis = np.zeros((m, n))
    alphas = np.zeros(m)
    betas = np.zeros(m)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    ritz_vec = None
    j_stop = 0
    for j in range(m):
        basis[j] = v
        w = np.asarray(matvec(v), dtype=float)
        if not np.all(np.isfinite(w)):
            raise EigFailure("operator returned non-finite values")
        # two classical Gram-Schmidt passes over the row basis; alpha is the
        # v_j coefficient of both
        h = []
        for _ in range(2):
            h.append(basis[: j + 1] @ w)
            w -= h[-1] @ basis[: j + 1]
        alphas[j] = float(h[0][j]) + float(h[1][j])
        beta = float(np.linalg.norm(w))
        scale = max(
            1.0,
            float(np.abs(alphas[: j + 1]).max())
            + (2.0 * float(np.abs(betas[:j]).max()) if j > 0 else 0.0),
        )
        # Ritz pair and stop test on every 4th step, on breakdown and on the
        # last step only
        breakdown = beta <= 1e-14 * scale
        if breakdown or (j + 1) % 4 == 0 or j == m - 1:
            ritz, svec = scipy.linalg.eigh_tridiagonal(
                alphas[: j + 1], betas[:j], select="i", select_range=(0, 0)
            )
            lam = float(ritz[0])
            ritz_vec = svec[:, 0]
            resid_est = beta * abs(float(ritz_vec[-1]))
            j_stop = j
            if resid_est <= tol * scale or breakdown:
                break
        betas[j] = beta
        v = w / beta
    q = ritz_vec @ basis[: j_stop + 1]
    q /= np.linalg.norm(q)
    resid = float(np.linalg.norm(np.asarray(matvec(q), dtype=float) - lam * q))
    if resid > 10.0 * tol * scale:
        raise EigFailure(
            f"eigenpair residual {resid:.3e} above tolerance after {j_stop + 1} steps"
        )
    return lam, q


def _outcome(solver, *args):
    try:
        return solver(*args)
    except EigFailure as exc:
        return str(exc), None


@pytest.mark.parametrize("n", [1, 2, 50, 100])
def test_lanczos_matches_reference_loop_bitwise(monkeypatch, n):
    for seed in range(4):
        rng = np.random.default_rng(1000 * n + seed)
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        # the solver's own 200-step cap, then a 30-step cap, which leaves most
        # of the n = 50 and 100 cases short of the tolerance, so both must
        # also fail alike, residual included
        for max_steps in (200, 30):
            with monkeypatch.context() as patch:
                if max_steps != 200:
                    patch.setattr(sdp, "_LANCZOS_MAX_STEPS", max_steps)
                got = _outcome(min_eig_lanczos, lambda v: a @ v, n, seed)
            ref = _outcome(_reference_min_eig_lanczos, lambda v: a @ v, n, seed, max_steps)
            assert got[0] == ref[0]
            np.testing.assert_array_equal(got[1], ref[1])


def test_lanczos_matvec_may_return_one_reused_buffer():
    # the loop writes into the array matvec returns; a matvec that returns
    # the one buffer it overwrites on every call must give the bits of a
    # copying matvec, so nothing the loop keeps may alias that array
    rng = np.random.default_rng(7)
    a = rng.standard_normal((60, 60))
    a = (a + a.T) / 2.0
    buffer = np.empty(60)

    def reused(v):
        buffer[:] = a @ v
        return buffer

    for start in (None, np.eye(60)[3]):
        lam, q = min_eig_lanczos(lambda v: a @ v, 60, seed=4, start=start)
        got_lam, got_q = min_eig_lanczos(reused, 60, seed=4, start=start)
        assert got_lam == lam
        np.testing.assert_array_equal(got_q, q)


def _schedule_cases():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 40):
        yield f"diag-{n}", np.diag(np.arange(1.0, n + 1))
        for k in range(2):
            b = rng.standard_normal((n, n))
            yield f"random-{n}-{k}", (b + b.T) / 2.0
    # rank 5 of 40: a random start spans a Krylov space of dimension 6, so the
    # run breaks down on step 6, which is not a check step
    u, _ = np.linalg.qr(rng.standard_normal((40, 5)))
    yield "low-rank-40", u @ np.diag([-3.0, -1.0, 2.0, 4.0, 7.0]) @ u.T


_SCHEDULE_CASES = list(_schedule_cases())


@pytest.mark.parametrize("max_steps", [30, 31, 200])
@pytest.mark.parametrize("name, a", _SCHEDULE_CASES, ids=[c[0] for c in _SCHEDULE_CASES])
def test_ritz_check_schedule(monkeypatch, name, a, max_steps):
    # the tridiagonal Ritz solve runs only on every 4th step, on breakdown or
    # on the last step; against the stop test on every step, the run takes at
    # most 3 more matvecs and its Ritz value is no higher
    n = a.shape[0]
    m = min(n, max_steps)
    monkeypatch.setattr(sdp, "_LANCZOS_MAX_STEPS", max_steps)
    solve_ritz = sdp._tridiagonal_min_eig
    sizes = []

    def recording(d, e):
        sizes.append(d.size)
        return solve_ritz(d, e)

    monkeypatch.setattr(sdp, "_tridiagonal_min_eig", recording)
    outcomes = []
    for every in (1, 4):
        monkeypatch.setattr(sdp, "_RITZ_CHECK_EVERY", every)
        sizes.clear()
        matvecs = [0]

        def matvec(v):
            matvecs[0] += 1
            return a @ v

        outcomes.append((_outcome(min_eig_lanczos, matvec, n, 2), matvecs[0]))
    (every_pair, every_matvecs), (pair, n_matvecs) = outcomes
    # steps are 1-based here: a solve off the schedule is a breakdown, which
    # ends its run (the next size, if any, belongs to the retry)
    for i, size in enumerate(sizes):
        assert size % 4 == 0 or size == m or i + 1 == len(sizes) or sizes[i + 1] < size
    if name == "low-rank-40":
        assert sizes == [4, 6]
    assert 0 <= n_matvecs - every_matvecs <= 3
    if every_pair[1] is None:
        # both runs reached the step cap, where they coincide, and failed alike
        assert pair == every_pair
        assert n_matvecs == every_matvecs
        return
    lam, q = pair
    w = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.abs(w).max()))
    # the scale the solver tests against is at most max|alpha| + 2 max|beta|,
    # which is at most 3 ||A||
    assert np.linalg.norm(a @ q - lam * q) <= 10.0 * sdp._LANCZOS_TOL * 3.0 * scale
    assert w[0] - 1e-12 * scale <= lam <= every_pair[0] + 1e-12 * scale


def test_lapack_failure_takes_the_retry(monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 30))
    a = (a + a.T) / 2.0
    stebz = sdp._STEBZ
    failures = []

    def fail_once(*args):
        m, w, iblock, isplit, info = stebz(*args)
        if not failures:
            failures.append(args)
            info = 1
        return m, w, iblock, isplit, info

    monkeypatch.setattr(sdp, "_STEBZ", fail_once)
    lam, q = min_eig_lanczos(lambda v: a @ v, 30, seed=3)
    assert len(failures) == 1
    # a failed warm start takes the same retry
    failures.clear()
    warm_lam, warm_q = min_eig_lanczos(lambda v: a @ v, 30, seed=3, start=np.eye(30)[4])
    assert len(failures) == 1
    # the retry is a fresh run from the reseeded cold start
    monkeypatch.setattr(sdp, "_STEBZ", stebz)
    retry_lam, retry_q = sdp._lanczos_once(lambda v: a @ v, 30, 4)
    assert lam == retry_lam == warm_lam
    np.testing.assert_array_equal(q, retry_q)
    np.testing.assert_array_equal(warm_q, retry_q)
    assert abs(lam - np.linalg.eigvalsh(a)[0]) <= 1e-9 * max(1.0, np.abs(a).sum())


def test_each_visit_starts_lanczos_afresh(monkeypatch):
    # a start vector that misses the bottom eigenvector must not be reused on
    # every visit, and the draws must still repeat given the run's seed; the
    # warm start of each visit is the eigenvector the previous visit returned,
    # and the first and last visits start cold
    seeds = []
    starts = []
    vectors = []

    def recording(matvec, n, seed=0, start=None):
        seeds.append(seed)
        starts.append(start)
        lam, q = min_eig_lanczos(matvec, n, seed, start=start)
        vectors.append(q)
        return lam, q

    monkeypatch.setattr(sdp, "min_eig_lanczos", recording)
    mc = build_matcomp(n=20, rank=2, seed=0, block=4, density=0.2)
    runs = []
    for rng_seed in (0, 0, 1):
        seeds.clear()
        starts.clear()
        vectors.clear()
        res = sdp_solve(mc.fv, mc.op, config=SolverConfig(max_iters=20, rng_seed=rng_seed))
        runs.append((list(seeds), res.trace.f_values()))
        assert starts[0] is None and starts[-1] is None
        for start, previous in zip(starts[1:-1], vectors):
            np.testing.assert_array_equal(start, previous)
        assert res.stats["lmo_confirmations"] == 1
    assert len(runs[0][0]) == 21
    assert len(set(runs[0][0])) == 21
    assert runs[0][0] == runs[1][0]
    np.testing.assert_array_equal(runs[0][1], runs[1][1])
    assert not set(runs[0][0]) & set(runs[2][0])


@pytest.mark.parametrize(
    "build, gamma",
    [
        (lambda: build_matcomp(n=20, rank=2, seed=0, block=4, density=0.2), 0.0),
        (lambda: build_matcomp(n=20, rank=2, seed=0, block=4, density=0.2), 0.5),
        (lambda: build_phase_retrieval(n=16, m=6, seed=0, noise_snr=20.0), None),
    ],
    ids=["matcomp-gamma-0", "matcomp-gamma-0.5", "phase"],
)
def test_lmo_matvec_is_the_shifted_adjoint(monkeypatch, build, gamma):
    # every matvec an LMO hands the eigensolver applies adjoint(p) + gamma I
    # for the p of that LMO, at gamma 0 as well as above it
    bundle = build()
    op = bundle.op
    gamma = bundle.gamma if gamma is None else gamma
    grads = []
    checked = [0]
    lmo = sdp._MeasurementIterate.lmo

    def recording_lmo(self, p, confirm):
        grads.append(p)
        return lmo(self, p, confirm)

    def checking(matvec, n, seed=0, start=None):
        p = grads[-1]

        def compared(u):
            got = matvec(u)
            np.testing.assert_array_equal(got, op.adjoint_matvec(p, u) + gamma * u)
            checked[0] += 1
            return got

        return min_eig_lanczos(compared, n, seed, start=start)

    monkeypatch.setattr(sdp._MeasurementIterate, "lmo", recording_lmo)
    monkeypatch.setattr(sdp, "min_eig_lanczos", checking)
    cfg = SolverConfig(max_iters=20, greedy_period=5)
    res = sdp_solve(bundle.fv, op, gamma=gamma, config=cfg)
    assert len(grads) >= 21
    assert checked[0] == res.stats["lmo_matvecs"] > 0


@pytest.mark.parametrize("solver", ["sdp_solve", "fw_solve"])
@pytest.mark.parametrize(
    "build",
    [
        lambda: build_matcomp(n=20, rank=2, seed=0, block=4, density=0.2),
        lambda: build_phase_retrieval(n=16, m=6, seed=0, noise_snr=20.0),
    ],
    ids=["matcomp", "phase"],
)
def test_runs_stop_only_on_a_cold_start_certificate(monkeypatch, build, solver):
    # every warm-started Lanczos run reports lambda = 0, which would stop the
    # run on the next visit (an sdp certificate of 0, an fw gap of cs <= 0 with
    # the trace bound active); each such stop must be confirmed from a cold
    # start and rejected, and the reported certificate must be the dense one
    bundle = build()
    op, gamma, tau = bundle.op, bundle.gamma, 1.0
    colds = []
    matvecs = [0]

    def lying(matvec, n, seed=0, start=None):
        def counted(u):
            matvecs[0] += 1
            return matvec(u)

        lam, q = min_eig_lanczos(counted, n, seed, start=start)
        colds.append(start is None)
        return (lam, q) if start is None else (0.0, q)

    last = {}
    monkeypatch.setattr(sdp, "min_eig_lanczos", lying)
    cfg = SolverConfig(max_iters=40, tol_eps=1e-6)
    if solver == "sdp_solve":
        res = sdp_solve(bundle.fv, op, gamma=gamma, config=cfg, callback=last.update)
        g = last["g_avg"]
    else:
        res = fw_solve(bundle.fv, op, tau=tau, gamma=gamma, config=cfg, callback=last.update)
        g = bundle.fv.gradient(last["y"])
    assert colds[-1]
    bar = cfg.tol_eps ** 0.5 if solver == "sdp_solve" else cfg.tol_eps
    assert res.status == "max_iters" or res.certified_dual_cert <= bar
    # visit 0 starts cold without confirming; each later visit confirms once
    assert res.stats["lmo_confirmations"] == colds.count(True) - 1 == len(res.trace) - 1 > 1
    assert res.stats["lmo_matvecs"] == matvecs[0]
    w = np.linalg.eigvalsh(op.adjoint_dense(g) + gamma * np.eye(op.n))[0]
    assert abs(res.final_lambda - w) <= 1e-6
    if solver == "sdp_solve":
        dense_cert = max(0.0, -w)
    else:
        dense_cert = last["record"].cs_residual - tau * min(0.0, w)
    assert abs(res.certified_dual_cert - dense_cert) <= 1e-6


@pytest.mark.parametrize("solver", ["sdp_solve", "fw_solve"])
def test_stop_on_visit_0_runs_lanczos_once(monkeypatch, solver):
    # visit 0 has no warm start, so its run is already cold and a stop there
    # takes no confirming rerun: one run of 12 steps and its verification,
    # which counts as the final visit's confirmation
    bundle = build_phase_retrieval(n=16, m=6, seed=0)
    runs = []

    def recording(matvec, n, seed=0, start=None):
        runs.append(start)
        return min_eig_lanczos(matvec, n, seed, start=start)

    monkeypatch.setattr(sdp, "min_eig_lanczos", recording)
    cfg = SolverConfig(tol_eps=1e6)
    if solver == "sdp_solve":
        res = sdp_solve(bundle.fv, bundle.op, gamma=bundle.gamma, config=cfg)
    else:
        res = fw_solve(bundle.fv, bundle.op, tau=1.0, gamma=bundle.gamma, config=cfg)
    assert res.status == "converged"
    assert [r.k for r in res.trace] == [0]
    assert runs == [None]
    assert res.stats["lmo_matvecs"] == 13
    assert res.stats["lmo_confirmations"] == 1


@pytest.mark.parametrize("solver", ["sdp_solve", "fw_solve"])
def test_lmo_matvecs_counts_every_lanczos_matvec(monkeypatch, solver):
    # stats["lmo_matvecs"] against a counter on adjoint_matvec that is live
    # only inside min_eig_lanczos (the greedy refit calls adjoint_matvec too);
    # one LAPACK failure on the fifth tridiagonal solve forces a retry, whose
    # matvecs count as well
    mc = build_matcomp(n=20, rank=2, seed=0, block=4, density=0.2)
    inside = [False]
    counted = [0]

    def adjoint_matvec(p, u):
        counted[0] += inside[0]
        return mc.op.adjoint_matvec(p, u)

    def lanczos(matvec, n, seed=0, start=None):
        inside[0] = True
        try:
            return min_eig_lanczos(matvec, n, seed, start=start)
        finally:
            inside[0] = False

    stebz = sdp._STEBZ
    calls = [0]

    def fail_fifth(*args):
        m, w, iblock, isplit, info = stebz(*args)
        calls[0] += 1
        return m, w, iblock, isplit, 1 if calls[0] == 5 else info

    monkeypatch.setattr(sdp, "min_eig_lanczos", lanczos)
    monkeypatch.setattr(sdp, "_STEBZ", fail_fifth)
    op = dataclasses.replace(mc.op, adjoint_matvec=adjoint_matvec)
    counts = []
    for _ in range(2):
        calls[0] = counted[0] = 0
        if solver == "sdp_solve":
            config = SolverConfig(max_iters=20, greedy_period=5, rng_seed=3)
            res = sdp_solve(mc.fv, op, config=config)
        else:
            res = fw_solve(mc.fv, op, tau=5.0, config=SolverConfig(max_iters=20, rng_seed=3))
        assert res.stats["lmo_matvecs"] == counted[0] > 0
        counts.append(res.stats["lmo_matvecs"])
    assert calls[0] > 5
    assert counts[0] == counts[1]


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


_SKETCH_MOVES = st.tuples(
    st.sampled_from(["scale", "add_rank_one", "replace"]),
    st.floats(0.0, 3.0),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(moves=st.lists(_SKETCH_MOVES, min_size=1, max_size=10), seed=st.integers(0, 99))
def test_sketch_is_linear_in_the_dense_mirror(moves, seed):
    # every update keeps S = X @ omega for a dense X moved the same way
    n = 7
    sk = SketchState.create(n, 4, seed=seed)
    x = np.zeros((n, n))
    for kind, c, vec_seed in moves:
        vec = np.random.default_rng(vec_seed).standard_normal((n, 2))
        if kind == "scale":
            sk.scale(c)
            x *= c
        elif kind == "add_rank_one":
            sk.add_rank_one(c, vec[:, 0])
            x += c * np.outer(vec[:, 0], vec[:, 0])
        else:
            sk.replace(c, vec)
            x = c * x + vec @ vec.T
        scale = 1.0 + float(np.abs(x).max())
        np.testing.assert_allclose(sk.s, x @ sk.omega, rtol=0, atol=1e-12 * n * scale)


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


def test_reconstruct_drops_roundoff_directions(monkeypatch):
    # an exact rank-1 X = v v^T (n = 30) through a width-8 sketch: the small
    # Gram matrix's bottom eigenvalues sit at a few 1e-15 of its largest, so
    # the readout drops the directions below its 1e-14 cutoff (up to 5 of 8
    # here). A rank-5 readout still has 5 orthonormal columns, and both
    # readouts recover X
    eigenvalues = []
    eigh = np.linalg.eigh

    def recording_eigh(b):
        w, q = eigh(b)
        eigenvalues.append(w)
        return w, q

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    dropped = []
    for trial in range(10):
        v = np.random.default_rng(trial).standard_normal(30)
        sk = SketchState.create(30, 8, seed=trial)
        sk.add_rank_one(1.0, v)
        for rank in (1, 5):
            u, lam = sketch_reconstruct(sk, rank)
            assert u.shape == (30, rank) and lam.shape == (rank,)
            np.testing.assert_allclose(u.T @ u, np.eye(rank), atol=1e-12)
            err = np.linalg.norm(factor_to_dense(u, lam) - np.outer(v, v)) / (v @ v)
            assert err <= 1e-6
        w = eigenvalues[-1]
        dropped.append(int(np.sum(w <= w.max() * 1e-14)))
    assert max(dropped) >= 1


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


@pytest.mark.parametrize("rank", [-1, 0, 1.0, 2.5, True])
def test_reconstruct_rejects_rank_below_one_or_not_integer(rank):
    sk = SketchState.create(10, 6, seed=0)
    sk.add_rank_one(1.0, np.ones(10))
    with pytest.raises(ValueError, match="int >= 1") as info:
        sketch_reconstruct(sk, rank)
    assert not isinstance(info.value, RankTooLarge)


# ---------------------------------------------------------------------------
# segment argmin for the baseline step


def test_quad_argmin_segment_cases():
    # minimize a t^2 + b t over [0, 1]
    assert _quad_argmin_nonneg(1.0, -1.0, hi=1.0) == 0.5
    assert _quad_argmin_nonneg(1.0, -4.0, hi=1.0) == 1.0
    assert _quad_argmin_nonneg(1.0, 1.0, hi=1.0) == 0.0
    assert _quad_argmin_nonneg(0.0, -2.0, hi=1.0) == 1.0
    assert _quad_argmin_nonneg(0.0, 2.0, hi=1.0) == 0.0
    # a concave restriction raises on the segment as on the ray
    with pytest.raises(LineSearchDivergence):
        _quad_argmin_nonneg(-1.0, 0.5, hi=1.0)


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_matcomp(n=30, rank=2, seed=0, block=5, density=0.15),
        lambda: build_phase_retrieval(n=16, m=12, seed=0, noise_snr=20.0),
    ],
    ids=["matcomp", "phase"],
)
def test_lmo_eigenvalue_matches_dense_at_every_visit(build):
    # every visit's Lanczos value (warm-started on all but the first and last
    # visits) against eigvalsh of the dense adjoint image of the momentum
    # vector, to the certificate tolerance of 1e-6 relative to the operator's
    # largest eigenvalue
    bundle = build()
    op, gamma = bundle.op, bundle.gamma
    errs = []
    dense_certs = []

    def cb(info):
        w = np.linalg.eigvalsh(op.adjoint_dense(info["g_avg"]) + gamma * np.eye(op.n))
        scale = max(1.0, float(np.abs(w).max()))
        errs.append(abs(info["record"].lambda_min - w[0]) / scale)
        dense_certs.append((max(0.0, -w[0]), scale))

    cfg = SolverConfig(max_iters=40, greedy_period=10)
    res = sdp_solve(bundle.fv, op, gamma=gamma, config=cfg, callback=cb)
    assert len(errs) == len(res.trace) == 41
    assert max(errs) <= 1e-6, max(errs)
    # the reported certificate, from the last visit's cold run
    dense_cert, scale = dense_certs[-1]
    assert abs(res.certified_dual_cert - dense_cert) / scale <= 1e-6


def test_lmo_eigenvalue_matches_dense_on_the_bench_instance(monkeypatch):
    # the matcomp-greedy benchmark instance (n = 100) over the benchmark's 300
    # iterations with a greedy refit every 20: every visit's Lanczos value
    # against eigvalsh of the dense adjoint image of the momentum vector. The
    # runs of the first 150 visits end by step 92; the late ones, which this
    # covers, go all 100 steps
    mc = build_matcomp(n=100, rank=3, block=10, density=0.1, noise_snr=20.0)
    op, gamma = mc.op, mc.gamma
    steps = []

    def counting(matvec, n, seed=0, start=None):
        calls = [0]

        def counted(u):
            calls[0] += 1
            return matvec(u)

        pair = min_eig_lanczos(counted, n, seed, start=start)
        steps.append(calls[0] - 1)
        return pair

    errs = []

    def cb(info):
        w = np.linalg.eigvalsh(op.adjoint_dense(info["g_avg"]) + gamma * np.eye(op.n))
        scale = max(1.0, float(np.abs(w).max()))
        errs.append(abs(info["record"].lambda_min - w[0]) / scale)

    monkeypatch.setattr(sdp, "min_eig_lanczos", counting)
    cfg = SolverConfig(max_iters=300, greedy_period=20)
    res = sdp_solve(mc.fv, op, gamma=gamma, config=cfg, sketch_size=8, callback=cb)
    assert len(errs) == len(res.trace) == 301
    assert max(errs) <= 1e-6, max(errs)
    assert max(steps) == 100


def test_sdp_solve_dense_mirror_consistency():
    # replay the iteration of both solvers in dense matrix space and require
    # the vectorized state to match the image and trace of the dense iterate
    mc = build_matcomp(n=25, rank=2, seed=1, block=5, density=0.2)
    op = mc.op
    tau = 40.0
    x = np.zeros((25, 25))
    worst = [0.0, 0.0]

    def check(info):
        worst[0] = max(worst[0], np.abs(op.apply_dense(x) - info["y"]).max())
        worst[1] = max(worst[1], abs(np.trace(x) - info["tr"]))

    def sdp_cb(info):
        # visit order: ray rescale, then the rank-one step, then greedy
        record = info["record"]
        if record.eta != 1.0:
            x[:] *= record.eta
        if record.theta != 0.0:
            x[:] += record.theta * np.outer(info["q"], info["q"])
        if info["greedy"] is not None and info["greedy"]["committed"]:
            x[:] *= info["greedy"]["t_sq"]
            x[:] += info["greedy"]["u"] @ info["greedy"]["u"].T
        check(info)

    fw_atoms = [0, 0]

    def fw_cb(info):
        # X <- (1 - theta) X + theta tau q q^T, only the scaling when the
        # atom is X = 0 (q None)
        theta = info["record"].theta
        x[:] *= 1.0 - theta
        if info["q"] is not None:
            x[:] += theta * tau * np.outer(info["q"], info["q"])
        fw_atoms[info["q"] is None] += 1
        check(info)

    cfg = SolverConfig(max_iters=40, greedy_period=15, rng_seed=0)
    sdp_solve(mc.fv, op, config=cfg, sketch_size=6, callback=sdp_cb)
    assert worst[0] <= 1e-8 and worst[1] <= 1e-10, worst
    x[:] = 0.0
    # gamma 1 makes the zero atom win on some visits
    fw_solve(mc.fv, op, tau, gamma=1.0, config=SolverConfig(max_iters=40), callback=fw_cb)
    assert worst[0] <= 1e-8 and worst[1] <= 1e-10, worst
    assert min(fw_atoms) >= 1, fw_atoms


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
    info = greedy_step(mc.fv, mc.op, 0.0, state, np.random.default_rng(0))
    assert info["f_before"] == pytest.approx(f0, rel=1e-12)
    if info["committed"]:
        assert mc.fv.value(state.y) < f0
    else:
        assert mc.fv.value(state.y) == pytest.approx(f0, rel=1e-12)


@pytest.mark.parametrize("oracle", [True, False], ids=["restriction", "slope"])
def test_greedy_commit_stores_the_point_it_reports(oracle):
    # a committed refit stores the image and trace of the point it ends at:
    # both replay X <- t_sq X + u u^T from the event, and f_after is the
    # state's penalized value, all bit for bit. With a restriction oracle the
    # scale search needs no gradient, so the refit calls the gradient once
    # per inner iteration, at the factor step
    mc = build_matcomp(n=30, rank=2, seed=3, block=5, density=0.15)
    fv = mc.fv if oracle else dataclasses.replace(mc.fv, restriction_oracle=None)
    gamma = 0.5
    commits = 0
    for iters in (5, 15, 30):
        cfg = SolverConfig(max_iters=iters)
        res = sdp_solve(fv, mc.op, gamma=gamma, config=cfg, sketch_size=6)
        base, tr0 = res.final_y, res.final_tr
        state = SdpState(res.final_y.copy(), tr0, res.sketch)
        before = fv.eval_counts()["gradient"]
        info = greedy_step(fv, mc.op, gamma, state, np.random.default_rng(iters))
        if oracle:
            assert fv.eval_counts()["gradient"] - before == info["inner_iters"]
        if info["committed"]:
            commits += 1
            t_sq, u = info["t_sq"], info["u"]
            assert np.array_equal(state.y, t_sq * base + mc.op.gram(u))
            assert state.tr == t_sq * tr0 + float(np.vdot(u, u))
            assert info["f_after"] == fv.value(state.y) + gamma * state.tr
    assert commits >= 2


_SEARCH_BUILDS = {
    "matcomp": lambda: build_matcomp(n=20, rank=2, seed=6, block=4, density=0.2),
    "phase": lambda: build_phase_retrieval(n=20, m=4, seed=6),
    "trace-toy": build_trace_toy,
}


def _factor_search(fv, op, gamma, u, d):
    # one greedy factor search at X = u u^T (scale 1, nothing else in X):
    # the quartic's coefficients, the restriction-free search's minimizer,
    # and h(a) computed directly through gram
    gram_u = op.gram(u)
    big_d = op.gram(d)
    big_c = op.gram(u + d) - gram_u - big_d
    factor = (fv, gamma, gram_u, u, big_c, big_d, d)

    def h(a):
        uv = u - a * d
        return fv.value(op.gram(uv)) + gamma * float(np.vdot(uv, uv))

    return _factor_quartic(*factor), minimize_convex_1d(_factor_slope(*factor)), h


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("name", list(_SEARCH_BUILDS))
def test_factor_quartic_matches_direct_objective(name, gamma):
    b = _SEARCH_BUILDS[name]()
    rng = np.random.default_rng(8)
    for _ in range(3):
        u = rng.standard_normal((b.op.n, 3))
        d = rng.standard_normal((b.op.n, 3))
        (c1, c2, c3, c4), _, h = _factor_search(b.fv, b.op, gamma, u, d)
        h0 = h(0.0)
        for a in (0.1, 0.5, 1.0, 2.7):
            quartic = h0 + a * (c1 + a * (c2 + a * (c3 + a * c4)))
            assert quartic == pytest.approx(h(a), rel=1e-9)


@pytest.mark.parametrize("name", list(_SEARCH_BUILDS))
def test_quartic_search_no_worse_than_slope_bisection(name):
    # the quartic's global minimum is never above the local minimum that
    # the restriction-free search (a slope bisection) stops at
    b = _SEARCH_BUILDS[name]()
    rng = np.random.default_rng(9)
    for _ in range(10):
        u = 10.0 ** rng.uniform(-2, 1) * rng.standard_normal((b.op.n, 3))
        d = rng.standard_normal((b.op.n, 3))
        coeffs, a_free, h = _factor_search(b.fv, b.op, 0.5, u, d)
        a_quartic = _quartic_argmin(*coeffs)
        h_free = h(a_free)
        assert a_quartic >= 0.0 and a_free >= 0.0
        assert h_free <= h(0.0)
        assert h(a_quartic) <= h_free + 1e-12 * abs(h_free)


def test_quartic_search_finds_minimum_slope_bisection_misses():
    # trace toy at X = u u^T with tr = 0.81 below the target 1: stepping
    # along d first shrinks the trace (h rises until a = 3) and then grows it
    # back through the target at a = 19/3, where h = 0. h is not convex in a
    # and h'(0) > 0, so the restriction-free search (a slope bisection)
    # stops at the local minimum a = 0.
    toy = build_trace_toy()
    u = np.array([[0.9], [0.0]])
    d = np.array([[0.3], [0.0]])
    coeffs, a_free, h = _factor_search(toy.fv, toy.op, 0.0, u, d)
    assert h(1.0) > h(0.0) > h(19.0 / 3.0)
    assert a_free == 0.0
    a_quartic = _quartic_argmin(*coeffs)
    assert a_quartic == pytest.approx(19.0 / 3.0, rel=1e-9)
    assert h(a_quartic) <= 1e-15


# ---------------------------------------------------------------------------
# the trace-constrained baseline


def test_fw_trace_toy_small_radius_stalls_at_boundary():
    # with trace budget 0.5 the best feasible value of (tr - 1)^2 is 0.25^...
    # the measured objective is 0.5 * (tr - 1)^2 scaled by the toy, frozen:
    toy = build_trace_toy()
    res = fw_solve(toy.fv, toy.op, tau=0.5, config=SolverConfig(max_iters=100, tol_eps=1e-14))
    assert abs(res.trace.f_values()[-1] - 0.125) <= 1e-9
    assert res.status == "converged"
    # the first step leaves X = 0 with a positive gap and a positive step,
    # so the trace it takes toward the atom is positive
    first = res.trace.records[0]
    assert first.dual_cert > 0.0
    assert first.theta > 0.0


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


def _fw_on_matcomp(fv, op):
    return fw_solve(fv, op, tau=50.0, gamma=0.5, config=SolverConfig(max_iters=40))


def _greedy_on_matcomp(fv, op):
    cfg = SolverConfig(max_iters=40, greedy_period=10)
    return sdp_solve(fv, op, gamma=0.5, config=cfg)


def _phase_case():
    return build_phase_retrieval(n=16, m=12, noise_snr=20.0, seed=0)


def _greedy_on_phase(fv, op):
    cfg = SolverConfig(max_iters=40, greedy_period=10)
    return sdp_solve(fv, op, gamma=_phase_case().gamma, config=cfg)


def _solve_on_orthant(program, _):
    return solve(program, SolverConfig(max_iters=40))


@pytest.mark.parametrize(
    "run",
    [_fw_on_matcomp, _greedy_on_matcomp, _greedy_on_phase, _solve_on_orthant],
    ids=["fw_solve", "sdp_solve", "phase", "solve"],
)
def test_restriction_free_search_agrees_with_restriction(run):
    # without a restriction oracle every ray, line, segment and greedy
    # search bisects on the sign of the directional derivative, which must
    # minimize the same (trace-penalized) objective as the closed form:
    # final f agrees to a relative 1e-10. The bisection resolves each step to
    # an ulp, so the gaps are roundoff: about 4e-14 for fw_solve and 4e-16 to
    # 3e-15 for the others. Frank-Wolfe's zig-zag between atoms amplifies a
    # step error about 1.25x per visit, so the fw case is the most sensitive.
    # Dropping the linear trace term from the searched slope ends the
    # gamma > 0 runs at f = 19.09 (fw_solve, not 17.81), 20.76 (sdp_solve,
    # not 17.11) and 1.94e-4 (phase, not 1.89e-4).
    if run is _solve_on_orthant:
        program, op = build_orthant_quadratic(dim=20, seed=0).program, None
    elif run is _greedy_on_phase:
        ph = _phase_case()
        program, op = ph.fv, ph.op
    else:
        mc = build_matcomp(n=30, rank=2, seed=0, block=5, density=0.15)
        program, op = mc.fv, mc.op
    exact = run(program, op)
    free = run(dataclasses.replace(program, restriction_oracle=None), op)
    assert exact.stats["restriction"] > 0
    assert free.stats["restriction"] == 0
    f_exact = exact.trace.f_values()[-1]
    assert free.trace.f_values()[-1] == pytest.approx(f_exact, rel=1e-10)


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
    # the measurement count is an int >= 1; an array in its place (the data
    # vector passed second) fails loudly
    for d in (2.0, True, 0, mc.b, np.array(5)):
        with pytest.raises(ValueError, match="int >= 1"):
            dataclasses.replace(op, d=d)


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
