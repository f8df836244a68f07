"""Semidefinite engine: Lanczos eigensolver, sketch algebra, reconstruction,
greedy refinement, and the vectorized solve loops against dense oracles."""

import copy
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cdkit import sdp
from cdkit import (
    ConicProgram,
    EigFailure,
    LineSearchDivergence,
    MeasurementOperator,
    NonFiniteValue,
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
    _gram_cols,
    _quartic_argmin,
    _tridiagonal_min_eig,
    greedy_step,
)
from cdkit.core import _quad_argmin_nonneg, minimize_convex_1d
from cdkit.problems import (
    _scaled_sq_norm_program,
    build_matcomp,
    build_orthant_quadratic,
    build_phase_retrieval,
    build_trace_toy,
)
from oracles import (
    adjoint_dense,
    apply_dense,
    dense_frank_wolfe,
    dense_program,
    log_calls,
    quartic_argmin_roots,
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
    # n = 1 runs the general loop: its random start fixes the sign of q
    lam, q = min_eig_lanczos(lambda v: -3.0 * v, 1)
    assert lam == -3.0
    np.testing.assert_array_equal(np.abs(q), [1.0])


def test_lanczos_rejects_empty_operator():
    # the Ritz pair is read after the step loop, which an n of 0 never enters
    with pytest.raises(ValueError, match="operator size n must be an int >= 1"):
        min_eig_lanczos(lambda v: v, 0)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lanczos_rejects_nonfinite_operator(n, bad):
    # n = 1 runs the same loop and screen as any other n
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


@pytest.mark.parametrize(
    "start",
    [np.ones(5), np.ones((4, 1)), np.array([1.0, np.nan, 0.0, 0.0])],
    ids=["length-5", "column", "nan"],
)
def test_lanczos_rejects_a_bad_start_before_any_matvec(start):
    # a length-5 start used to die in numpy's broadcast, a (4, 1) start was
    # broadcast into a (4, 4) array first, and a NaN entry reached the
    # operator; each now raises a ValueError naming start
    matvecs = []

    def matvec(v):
        matvecs.append(v)
        return v

    with pytest.raises(ValueError, match=r"^start must be a finite array of shape \(4,\)"):
        min_eig_lanczos(matvec, 4, start=start)
    assert matvecs == []


@pytest.mark.parametrize(
    "image, shape",
    [
        (lambda v: v[:, None], "(5, 1)"),
        (lambda v: float(v[0]), "()"),
        (lambda v: np.append(v, 0.0), "(6,)"),
    ],
    ids=["column", "scalar", "length-6"],
)
def test_lanczos_names_a_matvec_of_the_wrong_shape(image, shape):
    # unchecked, a column or a scalar fails inside np.dot's out= check and a
    # length-6 array in its shape alignment, with numpy's messages; each
    # raises a ValueError naming (n,) and the shape returned, at the first
    # matvec and without a retry
    matvecs = []

    def matvec(v):
        matvecs.append(v)
        return image(v)

    with pytest.raises(ValueError) as err:
        min_eig_lanczos(matvec, 5)
    assert str(err.value) == f"matvec must return an array of shape (5,), got {shape}"
    assert len(matvecs) == 1


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
    # verification, and the projection passes must keep the basis
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


def _hard_spectrum_matrix(kind, seed):
    # n = 100 in a random orthonormal basis: the step-cap test's clustered
    # bottom, or the log spectrum 1e-4 .. 1, whose bottom converges only
    # near step 100
    rng = np.random.default_rng(seed)
    if kind == "clustered":
        w = np.concatenate(
            [-1.0 + 1e-9 * np.array([0.0, 0.25, 0.5, 1.0]),
             -1.0 + 1e-3 + 10.0 * np.linspace(0.0, 1.0, 97)[1:] ** 2]
        )
    else:
        w = np.logspace(-4.0, 0.0, 100)
    basis, _ = np.linalg.qr(rng.standard_normal((100, 100)))
    a = (basis * w) @ basis.T
    return (a + a.T) / 2.0


@pytest.mark.parametrize("kind", ["clustered", "log"])
@pytest.mark.parametrize("seed", range(4))
def test_lanczos_second_passes_keep_full_length_runs_exact(kind, seed):
    # one Gram-Schmidt pass per step loses orthogonality over a run this
    # long although no single step cancels: then the clustered runs err by
    # 1e-11 and the log runs fail their residual check. The second passes
    # that the loss estimate schedules keep both within 1e-12 of the dense
    # smallest eigenvalue, as a second pass on every step does
    a = _hard_spectrum_matrix(kind, seed)
    lam, _ = min_eig_lanczos(lambda v: a @ v, 100, seed=seed)
    w = np.linalg.eigvalsh(a)
    assert abs(lam - w[0]) <= 1e-12 * max(1.0, float(np.abs(w).max()))


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
    # the Ritz check schedule: first check on step 4, then a gap of 4, or
    # half the steps the decay since the previous check needs to reach the
    # tolerance, clamped to [1, 12]
    next_check = 3
    checks = []
    # the estimated loss of orthogonality of each basis vector; a second
    # Gram-Schmidt pass leaves it at eps
    eps = float(np.finfo(float).eps)
    loss = [eps]
    for j in range(m):
        basis[j] = v
        w = np.asarray(matvec(v), dtype=float)
        if not np.all(np.isfinite(w)):
            raise EigFailure("operator returned non-finite values")
        # one classical Gram-Schmidt pass over the row basis, and a second
        # when the new vector's estimated loss (|alpha| loss_j + |h_{j-1}|
        # loss_{j-1} + eps |(alpha, h_{j-1}, beta)|) / beta reaches
        # sqrt(eps); alpha is the v_j coefficient of the passes made
        h = basis[: j + 1] @ w
        w -= h @ basis[: j + 1]
        alphas[j] = float(h[j])
        beta = float(np.linalg.norm(w))
        near = float(h[j - 1]) if j > 0 else 0.0
        drift = abs(alphas[j]) * loss[j] + abs(near) * loss[j - 1]
        drift += eps * math.hypot(alphas[j], near, beta)
        if drift >= math.sqrt(eps) * beta:
            h = basis[: j + 1] @ w
            w -= h @ basis[: j + 1]
            alphas[j] += float(h[j])
            beta = float(np.linalg.norm(w))
            loss.append(eps)
        else:
            loss.append(drift / beta)
        scale = max(
            1.0,
            float(np.abs(alphas[: j + 1]).max())
            + (2.0 * float(np.abs(betas[:j]).max()) if j > 0 else 0.0),
        )
        # Ritz pair and stop test on scheduled steps, on breakdown and on the
        # last step only
        breakdown = beta <= 1e-14 * scale
        if breakdown or j == next_check or j == m - 1:
            ritz, svec = scipy.linalg.eigh_tridiagonal(
                alphas[: j + 1], betas[:j], select="i", select_range=(0, 0)
            )
            lam = float(ritz[0])
            ritz_vec = svec[:, 0]
            resid_est = beta * abs(float(ritz_vec[-1]))
            j_stop = j
            if resid_est <= tol * scale or breakdown:
                break
            gap = 4
            if checks and 0.0 < resid_est < checks[-1][1]:
                j0, r0 = checks[-1]
                rate = np.log(resid_est / r0) / (j - j0)
                gap = int(np.clip(np.floor(0.5 * np.log(tol * scale / resid_est) / rate), 1, 12))
            checks.append((j, resid_est))
            next_check = j + gap
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
    for seed, slow in itertools.product(range(4), (False, True)):
        rng = np.random.default_rng(1000 * n + seed)
        a = rng.standard_normal((n, n))
        if slow:
            # a spectrum ((0..n-1) / (n-1))^1.5, slow enough that the decay
            # schedule takes gaps of up to 12 steps
            basis, _ = np.linalg.qr(a)
            a = basis @ np.diag(np.linspace(0.0, 1.0, n) ** 1.5) @ basis.T
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
    # the tridiagonal Ritz solve runs only on scheduled steps (the first on
    # step 4, then gaps of 1 to 12), on breakdown or on the last step;
    # against the stop test on every step, the run takes at most 3 more
    # matvecs on these cases and its Ritz value is no higher
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
    # a first check on step 1 and a gap of at most 1 test every step
    for every, max_gap in ((1, 1), (sdp._RITZ_CHECK_EVERY, sdp._RITZ_MAX_GAP)):
        sizes.clear()
        matvecs = [0]

        def matvec(v):
            matvecs[0] += 1
            return a @ v

        with monkeypatch.context() as patch:
            patch.setattr(sdp, "_RITZ_CHECK_EVERY", every)
            patch.setattr(sdp, "_RITZ_MAX_GAP", max_gap)
            outcomes.append((_outcome(min_eig_lanczos, matvec, n, 2), matvecs[0]))
    (every_pair, every_matvecs), (pair, n_matvecs) = outcomes
    # steps are 1-based here; a size no larger than the one before starts
    # the retry's run
    runs = []
    for i, size in enumerate(sizes):
        if i == 0 or size <= sizes[i - 1]:
            runs.append([])
        runs[-1].append(size)
    for run in runs:
        assert run[0] == min(4, m)
        assert all(0 < b - a <= 12 for a, b in zip(run, run[1:]))
    # every run ends on a check, its stop or its last step, then spends one
    # matvec on the explicit residual
    assert n_matvecs == sum(run[-1] + 1 for run in runs)
    if name == "low-rank-40":
        # the breakdown on step 6 comes before the next scheduled check
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


def test_ritz_schedule_saves_tridiagonal_solves(monkeypatch):
    # on a slowly converging operator (spectrum ((0..99) / 99)^1.5 in a
    # random basis) the estimate's decay spaces the checks out: a run makes
    # at most 60% of the ceil(steps / 4) tridiagonal solves that a check on
    # every 4th step would
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.standard_normal((100, 100)))
    a = basis @ np.diag(np.linspace(0.0, 1.0, 100) ** 1.5) @ basis.T
    a = (a + a.T) / 2.0
    solve_ritz = sdp._tridiagonal_min_eig
    sizes = []

    def recording(d, e):
        sizes.append(d.size)
        return solve_ritz(d, e)

    monkeypatch.setattr(sdp, "_tridiagonal_min_eig", recording)
    for seed in range(4):
        sizes.clear()
        matvecs = [0]

        def matvec(v):
            matvecs[0] += 1
            return a @ v

        lam, _ = min_eig_lanczos(matvec, 100, seed)
        steps = matvecs[0] - 1
        assert steps >= 80
        assert len(sizes) <= 0.6 * math.ceil(steps / 4)
        assert abs(lam) <= 1e-7


def test_lapack_failure_takes_the_retry(monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 30))
    a = (a + a.T) / 2.0
    stebz, stein = sdp._lapack()
    failures = []

    def fail_once(*args):
        m, w, iblock, isplit, info = stebz(*args)
        if not failures:
            failures.append(args)
            info = 1
        return m, w, iblock, isplit, info

    monkeypatch.setattr(sdp, "_lapack", lambda: (fail_once, stein))
    lam, q = min_eig_lanczos(lambda v: a @ v, 30, seed=3)
    assert len(failures) == 1
    # a failed warm start takes the same retry
    failures.clear()
    warm_lam, warm_q = min_eig_lanczos(lambda v: a @ v, 30, seed=3, start=np.eye(30)[4])
    assert len(failures) == 1
    # the retry is a fresh run from the reseeded cold start
    monkeypatch.setattr(sdp, "_lapack", lambda: (stebz, stein))
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
def test_lmo_matvec_is_the_adjoint_and_gamma_shifts_lambda(monkeypatch, build, gamma):
    # every matvec an LMO hands the eigensolver is adjoint(p) for the p of
    # that LMO, gamma I left out, and the LMO returns the smallest eigenpair
    # of the dense adjoint(p) + gamma I. The reference matvec comes from a
    # second bundle built alike, so the solve's operator counts only the
    # LMO's own calls
    bundle = build()
    op, ref = bundle.op, build().op
    gamma = bundle.gamma if gamma is None else gamma
    grads, pairs = [], []
    checked = [0]
    lmo = sdp._MeasurementIterate.lmo

    def recording_lmo(self, p, confirm):
        grads.append(p)
        lam, q, confirmed = lmo(self, p, confirm)
        pairs.append((lam, q))
        return lam, q, confirmed

    def checking(matvec, n, seed=0, start=None):
        p = grads[-1]

        def compared(u):
            got = matvec(u)
            np.testing.assert_array_equal(got, ref.adjoint_matvec(p, u))
            checked[0] += 1
            return got

        return min_eig_lanczos(compared, n, seed, start=start)

    monkeypatch.setattr(sdp._MeasurementIterate, "lmo", recording_lmo)
    monkeypatch.setattr(sdp, "min_eig_lanczos", checking)
    cfg = SolverConfig(max_iters=20, greedy_period=5)
    res = sdp_solve(bundle.fv, op, gamma=gamma, config=cfg)
    assert len(grads) >= 21
    assert checked[0] == res.stats["lmo_matvecs"] > 0
    for p, (lam, q) in zip(grads, pairs):
        dense = adjoint_dense(bundle, p) + gamma * np.eye(op.n)
        assert type(lam) is float
        assert abs(lam - float(np.linalg.eigvalsh(dense)[0])) <= 1e-6
        resid = np.linalg.norm(dense @ q - lam * q)
        assert resid <= 1e-6 * max(1.0, np.linalg.norm(dense, 2))


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
    w = np.linalg.eigvalsh(adjoint_dense(bundle, g) + gamma * np.eye(op.n))[0]
    assert abs(res.final_lambda - w) <= 1e-6
    if solver == "sdp_solve":
        dense_cert = max(0.0, -w)
    else:
        dense_cert = last["record"].cs_residual - tau * min(0.0, w)
    assert abs(res.certified_dual_cert - dense_cert) <= 1e-6


@pytest.mark.parametrize("solver", ["sdp_solve", "fw_solve"])
def test_stop_on_visit_0_runs_lanczos_once(monkeypatch, solver):
    # visit 0 has no warm start, so its run is already cold and a stop there
    # takes no confirming rerun: one run of 11 steps and its verification,
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
    assert res.stats["lmo_matvecs"] == 12
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

    stebz, stein = sdp._lapack()
    calls = [0]

    def fail_fifth(*args):
        m, w, iblock, isplit, info = stebz(*args)
        calls[0] += 1
        return m, w, iblock, isplit, 1 if calls[0] == 5 else info

    monkeypatch.setattr(sdp, "min_eig_lanczos", lanczos)
    monkeypatch.setattr(sdp, "_lapack", lambda: (fail_fifth, stein))
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


@pytest.mark.parametrize("solver", ["sdp_solve", "fw_solve"])
def test_callback_operator_calls_count_in_the_run_totals_only(solver):
    # the run totals are the operator's own counts over the run, so a
    # callback that calls gram and adjoint_matvec once per visit raises
    # stats["gram_calls"] and stats["adjoint_calls"] by the number of
    # visits. The Lanczos matvecs and each refit's counts are read across
    # their own calls, and no other stat moves
    fv, op, gamma, *_ = _random_operator_instance(3)

    def run(callback):
        if solver == "sdp_solve":
            config = SolverConfig(max_iters=20, greedy_period=5)
            return sdp_solve(fv, op, gamma, config=config, callback=callback)
        return fw_solve(fv, op, 5.0, gamma, config=SolverConfig(max_iters=20), callback=callback)

    def callback(info):
        op.gram(np.ones(op.n))
        op.adjoint_matvec(np.ones(op.d), np.ones(op.n))

    quiet, loud = run(None), run(callback)
    for key in ("gram_calls", "adjoint_calls"):
        extra = loud.stats.pop(key) - quiet.stats.pop(key)
        assert extra == len(loud.trace)
    assert loud.stats == quiet.stats
    assert loud.stats["lmo_matvecs"] > 0
    assert len(loud.stats["greedy_events"]) == (4 if solver == "sdp_solve" else 0)


def test_lanczos_gives_up_after_two_lapack_failures(monkeypatch):
    stebz, stein = sdp._lapack()

    def always_fail(*args):
        m, w, iblock, isplit, info = stebz(*args)
        return m, w, iblock, isplit, 1

    monkeypatch.setattr(sdp, "_lapack", lambda: (always_fail, stein))
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
    st.integers(1, 2),
)


@settings(max_examples=60, deadline=None)
@given(moves=st.lists(_SKETCH_MOVES, min_size=1, max_size=10), seed=st.integers(0, 99))
def test_sketch_is_linear_in_the_dense_mirror(moves, seed):
    # every update keeps S = X @ omega for a dense X moved the same way;
    # add_rank_one takes a vector (one column) or an (n, 2) factor
    n = 7
    sk = SketchState.create(n, 4, seed=seed)
    x = np.zeros((n, n))
    for kind, c, vec_seed, width in moves:
        vec = np.random.default_rng(vec_seed).standard_normal((n, 2))
        if kind == "scale":
            sk.scale(c)
            x *= c
        elif kind == "add_rank_one":
            q = vec[:, 0] if width == 1 else vec
            sk.add_rank_one(c, q)
            q2 = q.reshape(n, -1)
            x += c * q2 @ q2.T
        else:
            sk.replace(c, vec)
            x = c * x + vec @ vec.T
        scale = 1.0 + float(np.abs(x).max())
        np.testing.assert_allclose(sk.s, x @ sk.omega, rtol=0, atol=1e-12 * n * scale)


@pytest.mark.parametrize(
    "q", [np.ones(8), np.ones((2, 4)), np.ones((4, 0)), np.ones((4, 1, 1))],
    ids=["length-8", "2-rows", "no-columns", "3-d"],
)
def test_sketch_add_rank_one_rejects_a_term_of_the_wrong_shape(q):
    # a length-8 vector or a (2, 4) factor used to reshape to (4, 2) and add
    # a wrong term; each shape but (n,) and (n, r >= 1) now raises and leaves
    # the sketch as it was
    sk = SketchState.create(4, 4)
    sk.add_rank_one(1.0, np.arange(4.0))
    before = sk.s.copy()
    with pytest.raises(ValueError, match=r"^q must have shape \(4,\) or \(4, r >= 1\)"):
        sk.add_rank_one(2.0, q)
    assert np.array_equal(sk.s, before)


@pytest.mark.parametrize("scale", [1.0, 0.5], ids=["no-scale", "scale"])
def test_rejected_move_writes_nothing(scale):
    # a q whose length is not the sketch's n, or a gram_q whose length is
    # not y's, raises before the first write: without the checks numpy
    # raises later, after y (and, under a scale, the sketch) was written
    sk = SketchState.create(4, 4)
    sk.add_rank_one(1.0, np.arange(4.0))
    state = SdpState(np.array([0.5, -1.0, 2.0]), 3.0, sk)
    before = (state.y.tobytes(), state.tr, state.sketch.s.tobytes())
    for q, gram_q, message in [
        (np.ones(5), np.ones(3), r"^q must have shape \(4,\) or \(4, r >= 1\)"),
        (np.ones(4), np.ones(5), r"^gram_q must have shape \(3,\), got \(5,\)$"),
    ]:
        with pytest.raises(ValueError, match=message):
            state.move(scale, 1.0, q, gram_q)
        assert (state.y.tobytes(), state.tr, state.sketch.s.tobytes()) == before


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


@pytest.mark.parametrize(
    "u, lam",
    [
        (np.ones((3, 2)), [2.0]),
        (np.ones(3), [2.0, 2.0, 2.0]),
        (np.ones((3, 2)), np.ones((2, 1))),
        (np.ones((3, 2, 1)), [2.0, 2.0]),
    ],
    ids=["short-lam", "vector-u", "column-lam", "3d-u"],
)
def test_factor_to_dense_rejects_mismatched_shapes(u, lam):
    # numpy would broadcast each pair to some matrix or a scalar
    shapes = f"{np.shape(u)} and {np.shape(lam)}"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        factor_to_dense(u, lam)
    dense = factor_to_dense(np.ones((3, 2)), [2.0, 1.0])
    np.testing.assert_array_equal(dense, np.full((3, 3), 3.0))


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
    # the zero sketch takes the readout's one path: every direction falls
    # below the cut-off, and u still has the orthonormal columns it promises
    sk = SketchState.create(10, 4, seed=0)
    u, lam = sketch_reconstruct(sk, 2)
    np.testing.assert_array_equal(lam, np.zeros(2))
    np.testing.assert_array_equal(u @ np.diag(lam) @ u.T, np.zeros((10, 10)))
    np.testing.assert_allclose(u.T @ u, np.eye(2), rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_reconstruct_recovers_exact_low_rank_at_every_scale(scale):
    # X of exact rank r up to width - 2, the widest the readout resolves,
    # through sketches of width 3 to 10: the readout at rank r recovers X,
    # and at every rank u is orthonormal and lam nonnegative; the 1e-14
    # eigenvalue cut-off alone guards the pseudo-inverse
    rng = np.random.default_rng(11)
    for n, width in itertools.product((12, 60), range(3, 11)):
        for r in range(1, min(width - 2, n) + 1):
            f = rng.standard_normal((n, r))
            x = scale * (f @ f.T)
            sk = SketchState.create(n, width, seed=n + width + r)
            sk.add_rank_one(scale, f)
            for rank in range(1, r + 1):
                u, lam = sketch_reconstruct(sk, rank)
                np.testing.assert_allclose(u.T @ u, np.eye(rank), rtol=0, atol=1e-12)
                assert np.all(lam >= 0.0)
            err = np.linalg.norm(factor_to_dense(u, lam) - x) / np.linalg.norm(x)
            assert err <= 1e-8, (n, width, r, err)


@pytest.mark.parametrize("solver", ["sdp", "fw"])
def test_solvers_keep_an_eight_column_sketch_by_default(solver):
    # a solve that leaves sketch_size unset still returns a sketch of X,
    # 8 columns wide, which the readout takes
    mc = build_matcomp(n=20, rank=2, seed=0)
    cfg = SolverConfig(max_iters=5)
    if solver == "sdp":
        res = sdp_solve(mc.fv, mc.op, config=cfg)
    else:
        res = fw_solve(mc.fv, mc.op, 10.0, config=cfg)
    assert res.sketch.s.shape == res.sketch.omega.shape == (20, 8)
    assert np.any(res.sketch.s != 0.0)
    u, lam = sketch_reconstruct(res.sketch, 1)
    assert u.shape == (20, 1) and lam[0] > 0.0


@pytest.mark.parametrize("solver", ["sdp", "fw"])
def test_solvers_take_no_sketch_size_of_none(solver):
    # every solve keeps a sketch: None is not a size, and the count check
    # names the setting
    mc = build_matcomp(n=20, rank=2, seed=0)
    cfg = SolverConfig(max_iters=5)
    with pytest.raises(ValueError, match="^sketch size must be an int >= 3, got None"):
        if solver == "sdp":
            sdp_solve(mc.fv, mc.op, config=cfg, sketch_size=None)
        else:
            fw_solve(mc.fv, mc.op, 10.0, config=cfg, sketch_size=None)


def test_reconstruct_rank_cap():
    sk = SketchState.create(10, 4, seed=0)
    with pytest.raises(RankTooLarge):
        sketch_reconstruct(sk, 3)
    with pytest.raises(RankTooLarge):
        sketch_reconstruct(sk, 4)


@pytest.mark.parametrize("zero", [True, False], ids=["zero-sketch", "rank-one-sketch"])
def test_reconstruct_rejects_rank_above_the_matrix_side(zero):
    # a 3 x 3 matrix has no rank-4 factor of shape (3, 4), so a sketch wide
    # enough to resolve rank 4 still refuses it, as the zero sketch does
    sk = SketchState.create(3, 10, seed=0)
    if not zero:
        sk.add_rank_one(1.0, np.ones(3))
    with pytest.raises(RankTooLarge, match=r"matrix side n = 3"):
        sketch_reconstruct(sk, 4)
    u, lam = sketch_reconstruct(sk, 3)
    assert u.shape == (3, 3) and lam.shape == (3,)


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
    assert all(rec.lambda_min is not None for rec in res.trace)


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
        w = np.linalg.eigvalsh(adjoint_dense(bundle, info["g_avg"]) + gamma * np.eye(op.n))
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


def _lmo_errors_and_steps(monkeypatch, mc):
    # a 300-visit mocog solve with a refit every 20 visits: every visit's
    # Lanczos value against eigvalsh of the dense adjoint image of the
    # momentum vector, relative to the operator's largest eigenvalue, the
    # step count of every Lanczos run, every visit's certificate against
    # the dense one, and the run's greedy events
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
    cert_errs = []

    def cb(info):
        w = np.linalg.eigvalsh(adjoint_dense(mc, info["g_avg"]) + gamma * np.eye(op.n))
        scale = max(1.0, float(np.abs(w).max()))
        errs.append(abs(info["record"].lambda_min - w[0]) / scale)
        cert_errs.append(abs(info["record"].dual_cert - max(0.0, -w[0])))

    monkeypatch.setattr(sdp, "min_eig_lanczos", counting)
    cfg = SolverConfig(max_iters=300, greedy_period=20)
    res = sdp_solve(mc.fv, op, gamma=gamma, config=cfg, sketch_size=8, callback=cb)
    assert len(errs) == len(res.trace) == 301
    return errs, steps, cert_errs, res.stats["greedy_events"]


def test_lmo_eigenvalue_matches_dense_on_the_bench_instance(monkeypatch):
    # the matcomp-greedy benchmark instance (n = 100) over the benchmark's
    # 300 iterations; its Lanczos runs end by step 70
    mc = build_matcomp(n=100, rank=3, block=10, density=0.1, noise_snr=20.0)
    errs, _, cert_errs, events = _lmo_errors_and_steps(monkeypatch, mc)
    assert max(errs) <= 1e-6, max(errs)
    # every refit commits, so the run restarts its average after each of
    # visits 19 to 239, and every certificate it reports, warm or cold, is
    # that of the restarted average, to 5e-14 at most
    assert any(e["restart"] for e in events)
    assert max(cert_errs) <= 1e-6, max(cert_errs)


def test_certificates_match_dense_on_the_phase_bench_instance(monkeypatch):
    # the phase-greedy benchmark instance (n = 64, m = 10) over the
    # benchmark's 300 iterations: every refit commits, so the run restarts
    # its average after each of visits 19 to 239, and no refit among the
    # run's last three restarts it. Every certificate the run reports, warm
    # or cold, is that of the restarted average, to 5.2e-10 at most
    ph = build_phase_retrieval(n=64, m=10, noise_snr=20.0)
    _, _, cert_errs, events = _lmo_errors_and_steps(monkeypatch, ph)
    assert any(e["restart"] for e in events)
    assert not any(e["restart"] for e in events[-3:])
    assert max(cert_errs) <= 1e-6, max(cert_errs)


def test_lmo_eigenvalue_matches_dense_over_full_length_runs(monkeypatch):
    # on matcomp n = 60 at density 0.2 the late runs go all n steps, so the
    # 1e-6 bound also covers runs that build the whole n-vector basis
    mc = build_matcomp(n=60, rank=3, density=0.2, noise_snr=20.0)
    errs, steps, _, _ = _lmo_errors_and_steps(monkeypatch, mc)
    assert max(errs) <= 1e-6, max(errs)
    assert max(steps) == 60


def test_sdp_solve_dense_mirror_consistency():
    # replay the iteration of both solvers in dense matrix space and require
    # the vectorized state to match the image and trace of the dense iterate
    mc = build_matcomp(n=25, rank=2, seed=1, block=5, density=0.2)
    op = mc.op
    tau = 40.0
    x = np.zeros((25, 25))
    worst = [0.0, 0.0]

    def check(info):
        worst[0] = max(worst[0], np.abs(apply_dense(mc, x) - info["y"]).max())
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


def _random_operator_instance(seed):
    # a hand-built operator over its own dense symmetric G_i (n 3-9, d from
    # n to 3n), with b = A(Z Z^T) for a rank-2 Z and gamma 0 or 0.05 by
    # seed parity. It returns the objective, the operator, gamma, the dense
    # maps through G, which touch no package code, and tr(Z Z^T)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    d = int(rng.integers(n, 3 * n + 1))
    g = rng.standard_normal((d, n, n))
    g = 0.5 * (g + g.transpose(0, 2, 1))
    z = rng.standard_normal((n, 2))

    def apply(x):
        return np.einsum("kij,ij->k", g, x)

    def adjoint(p):
        return np.einsum("k,kij->ij", p, g)

    op = MeasurementOperator(
        n, d, lambda q: g @ q @ q, lambda p, u: np.einsum("k,kij,j->i", p, g, u)
    )
    gamma = 0.05 * (seed % 2)
    fv = _scaled_sq_norm_program(apply(z @ z.T), 0.5)
    return fv, op, gamma, apply, adjoint, float(np.vdot(z, z))


def _assert_agrees_with_the_dense_engine(mode, heuristic, visits):
    # sdp_solve without refits against solve over PsdCone on the program
    # written out densely through each operator's own G, both from X = 0,
    # over 20 operators: f to 1e-6 relative and the certificate to 1e-6 at
    # every visit. heuristic takes the step schedule with heuristic_m set to
    # the planted trace tr(Z Z^T) in place of the line search
    for seed in range(20):
        fv, op, gamma, apply, adjoint, m = _random_operator_instance(seed)
        config = SolverConfig(
            max_iters=visits, momentum_mode=mode, heuristic_m=m if heuristic else None
        )
        dense = dense_program(fv, op.n, gamma, apply, adjoint)
        fast = sdp_solve(fv, op, gamma, config=config)
        slow = solve(dense, config, x0=np.zeros((op.n, op.n)))
        f_fast = np.array(fast.trace.f_values())
        f_slow = np.array(slow.trace.f_values())
        assert f_fast.shape == f_slow.shape == (visits + 1,), seed
        rel = np.abs(f_fast - f_slow) / np.abs(f_slow)
        certs = np.abs(np.subtract(fast.trace.dual_certs(), slow.trace.dual_certs()))
        assert rel.max() <= 1e-6, (seed, int(rel.argmax()), rel.max())
        assert certs.max() <= 1e-6, (seed, int(certs.argmax()), certs.max())


@pytest.mark.parametrize("mode", ["moco", "cd"])
def test_sdp_solve_agrees_with_the_dense_engine_on_random_operators(mode):
    # 51 visits with the line search. The dense side shares _descend, so
    # this guards what the matrix-free path adds: the measurement-space
    # iterate, the trace penalty in the ray rescale and the line search, the
    # Lanczos LMO and its gamma shift. The largest gaps are 4.5e-8 in f and
    # 3.0e-7 in the certificate, both in cd runs drifting apart late
    _assert_agrees_with_the_dense_engine(mode, False, 50)


@pytest.mark.parametrize("mode", ["moco", "cd"])
def test_sdp_solve_agrees_with_the_dense_engine_under_heuristic_m(mode):
    # 41 visits on the step schedule theta_k = 2 M / (k + 2), where both
    # engines take the same steps without a search. The schedule amplifies
    # roundoff about tenfold every 5 visits: the dense engine against itself
    # with its gradient perturbed by 1e-15 relative drifts by up to 1.6e-6 in
    # the certificate at visit 50 but 2.2e-7 at visit 40, so the runs stop
    # at 40. The largest gaps between the engines there are 1.0e-8 in f and
    # 4.9e-8 in the certificate (cd)
    _assert_agrees_with_the_dense_engine(mode, True, 40)


def test_fw_solve_agrees_with_the_dense_frank_wolfe_on_random_operators():
    # fw_solve against Frank-Wolfe written out over dense matrices through
    # each operator's own G (an eigh LMO and an exact segment search), both
    # from X = 0, on the 20 random operators with tau half or twice the
    # planted trace, so some runs step to the zero atom: f and the gap to
    # 1e-6 relative at every visit through visit 20. The gap is a difference
    # of terms of f's size, so its relative roundoff grows as it falls: a
    # run whose constrained optimum is rank one converges fast, and the
    # worst gap change is 7.9e-9 through visit 20, 6.3e-7 at 21 and 4.4e-6
    # at 24. The worst f change through visit 20 is 3.3e-12
    visits = 20
    zero_atoms = 0
    for seed in range(20):
        fv, op, gamma, apply, adjoint, m = _random_operator_instance(seed)
        tau = m * (0.5 if seed % 4 < 2 else 2.0)
        fast = fw_solve(fv, op, tau, gamma=gamma, config=SolverConfig(max_iters=visits))
        slow = dense_frank_wolfe(fv, op.n, gamma, apply, adjoint, tau, visits)
        assert len(fast.trace) == len(slow) == visits + 1, seed
        rel_f = np.abs(np.array(fast.trace.f_values()) - slow[:, 0]) / np.abs(slow[:, 0])
        rel_gap = np.abs(np.array(fast.trace.dual_certs()) - slow[:, 1]) / np.abs(slow[:, 1])
        assert rel_f.max() <= 1e-6, (seed, int(rel_f.argmax()), rel_f.max())
        assert rel_gap.max() <= 1e-6, (seed, int(rel_gap.argmax()), rel_gap.max())
        zero_atoms += sum(record.lambda_min >= 0.0 for record in fast.trace)
    assert zero_atoms > 0


def test_refit_values_match_a_dense_replay_on_random_operators():
    # mocog runs on the 20 random operators, with X replayed over dense
    # matrices through each operator's own G from the callback, visit by
    # visit: X <- eta X, X <- X + theta q q^T and, on a committed refit,
    # X <- t_sq X + u u^T. Each visit's f, each refit's f_before and each
    # committed f_after equal the dense objective at the replayed X to
    # 1e-12 of the objective at X = 0, the scale of every term; the largest
    # changes are 1.1e-16, 7.7e-17 and 1.3e-17 of it. 179 of the 200 refits
    # commit, with t_sq from 0.29 to 1.01
    commits = 0
    for seed in range(20):
        fv, op, gamma, apply, adjoint, _ = _random_operator_instance(seed)
        scale = fv.value(np.zeros(op.d))
        x = np.zeros((op.n, op.n))

        def off(value):
            return abs(value - fv.value(apply(x)) - gamma * np.trace(x)) / scale

        def replay(info):
            nonlocal x, commits
            record, refit = info["record"], info["greedy"]
            x = record.eta * x
            assert off(record.f_value) <= 1e-12, (seed, record.k)
            x = x + record.theta * np.outer(info["q"], info["q"])
            if refit is not None:
                assert off(refit["f_before"]) <= 1e-12, (seed, record.k)
                if refit["committed"]:
                    commits += 1
                    x = refit["t_sq"] * x + refit["u"] @ refit["u"].T
                    assert off(refit["f_after"]) <= 1e-12, (seed, record.k)

        config = SolverConfig(max_iters=50, greedy_period=5, rng_seed=seed)
        sdp_solve(fv, op, gamma, config=config, callback=replay)
    assert commits >= 100


def _momentum_weights(j):
    # the weights of the gradients of visits 0..j in the average that
    # g = (1 - delta) g + delta grad with delta = 2 / (i + 2) leaves at visit
    # j, written out: 2 (i + 1) / ((j + 1) (j + 2)), summing to 1
    return 2.0 * np.arange(1, j + 2) / ((j + 1) * (j + 2))


def test_restarted_average_matches_a_dense_replay_on_random_operators():
    # mocog runs on the 20 random operators, with X replayed over dense
    # matrices through each operator's own G from the callback. Each refit
    # restarts the average exactly when the rule holds: it committed, and at
    # least three more refits follow in the run. Each visit's g_avg is the
    # 2 / (j + 2) average of exactly the gradients at the replayed X from
    # the visit after the last restart on, j visits ago, to 1e-12 of the
    # gradient at X = 0; the largest change is 1.6e-15 of it. Of the 200
    # refits, 120 restart, 45 commit inside the run's last three refits
    # and restart nothing, and 35 commit nothing
    iters, period = 50, 5
    tally = {"restart": 0, "late": 0, "uncommitted": 0}
    for seed in range(20):
        fv, op, gamma, apply, _, _ = _random_operator_instance(seed)
        x = np.zeros((op.n, op.n))
        grads = []
        since = 0

        def replay(info):
            nonlocal x, since
            record, refit = info["record"], info["greedy"]
            x = record.eta * x
            grads.append(fv.gradient_oracle(apply(x)))
            window = np.array(grads[since:])
            average = _momentum_weights(len(window) - 1) @ window
            change = np.abs(info["g_avg"] - average).max() / np.abs(grads[0]).max()
            assert change <= 1e-12, (seed, record.k)
            x = x + record.theta * np.outer(info["q"], info["q"])
            if refit is None:
                return
            early = record.k + 3 * period < iters
            assert refit["restart"] == (refit["committed"] and early), (seed, record.k)
            if refit["committed"]:
                x = refit["t_sq"] * x + refit["u"] @ refit["u"].T
                tally["restart" if early else "late"] += 1
            else:
                tally["uncommitted"] += 1
            if refit["restart"]:
                since = record.k + 1

        config = SolverConfig(max_iters=iters, greedy_period=period, rng_seed=seed)
        sdp_solve(fv, op, gamma, config=config, callback=replay)
    assert min(tally.values()) > 0, tally


def test_a_refit_that_commits_nothing_never_restarts_the_average(monkeypatch):
    # each refit here commits nothing, as a refit that finds no lower value
    # reports. The refits after visits 4, 9 and 14 have three more after
    # them, so only their commit decides. The average runs on as in the run
    # without refits, to the bit
    mc = build_matcomp(n=20, rank=2, seed=0, block=4, density=0.2)

    def refuse(fv, op, gamma, state, u):
        f0 = fv.value(state.y) + gamma * state.tr
        return {"committed": False, "f_before": f0, "f_after": f0}

    monkeypatch.setattr(sdp, "greedy_step", refuse)
    averages = {}
    for period in (0, 5):
        seen = averages[period] = []
        cfg = SolverConfig(max_iters=30, greedy_period=period)
        res = sdp_solve(
            mc.fv, mc.op, mc.gamma, config=cfg, callback=lambda info: seen.append(info["g_avg"])
        )
    events = res.stats["greedy_events"]
    assert len(events) == 6 and not any(e["restart"] for e in events)
    assert [e["k"] for e in events if e["k"] + 3 * 5 < 30] == [4, 9, 14]
    assert len(averages[0]) == len(averages[5]) == 31
    assert all(map(np.array_equal, averages[0], averages[5]))


def test_refit_events_in_stats_hold_no_array():
    # a run keeps each refit's scalars, not its factor: the factor goes only
    # to the callback, so the run holds no factor per refit
    mc = build_matcomp(n=30, rank=2, seed=2, block=5, density=0.15)
    cfg = SolverConfig(max_iters=60, greedy_period=10, rng_seed=0)
    seen = []
    res = sdp_solve(mc.fv, mc.op, config=cfg, callback=lambda info: seen.append(info["greedy"]))
    refits = [g for g in seen if g is not None]
    events = res.stats["greedy_events"]
    assert len(events) == len(refits) >= 4 and any(e["committed"] for e in events)
    for event, refit in zip(events, refits):
        assert not any(isinstance(v, np.ndarray) for v in event.values())
        assert ("u" in refit) == refit["committed"]
        assert event == {key: v for key, v in refit.items() if key != "u"}


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
    # some refit commits, so the check above covers a commit
    assert any(ev["committed"] for ev in events)


def _refit_start(n, tr, seed):
    # a start factor drawn as the solver draws the refit's, before it grows
    # the draw to its best amplitude: three columns of N(0, 1) entries
    # scaled by 1e-3 sqrt((1 + tr) / n)
    return 1e-3 * math.sqrt((1.0 + tr) / n) * np.random.default_rng(seed).standard_normal((n, 3))


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_refit_starts_from_the_draw_at_its_best_amplitude(monkeypatch, gamma):
    # the solver draws u0 and passes sqrt(max(1, t)) u0 to the refit, where
    # t minimizes f(y + t gram(u0)) + gamma t |u0|^2 over t >= 0; here t is
    # the root of that parabola's slope, read from two gradient calls
    mc = build_matcomp(n=40, rank=3, block=5, density=0.2, noise_snr=20.0)
    starts = []

    def recording(fv, op, penalty, state, u):
        starts.append((state.y.copy(), state.tr, u))
        return greedy_step(fv, op, penalty, state, u)

    monkeypatch.setattr(sdp, "greedy_step", recording)
    sdp_solve(mc.fv, mc.op, gamma=gamma, config=SolverConfig(max_iters=60, greedy_period=10))
    assert len(starts) == 6
    # the solver's refit generator, seeded with rng_seed 0
    draws = np.random.default_rng(0)
    amplitudes = []
    for y, tr, u in starts:
        u0 = 1e-3 * math.sqrt((1.0 + tr) / mc.op.n) * draws.standard_normal((mc.op.n, 3))
        big_d = _gram_cols(mc.op, u0)
        linear = gamma * float(np.vdot(u0, u0))
        slope0 = float(np.vdot(mc.fv.gradient(y), big_d)) + linear
        slope1 = float(np.vdot(mc.fv.gradient(y + big_d), big_d)) + linear
        t = max(0.0, slope0 / (slope0 - slope1))
        np.testing.assert_allclose(u, math.sqrt(max(1.0, t)) * u0, rtol=1e-6)
        amplitudes.append(t)
    # the search grows some starts and leaves the others at the draw
    assert min(amplitudes) <= 1.0 < max(amplitudes)


def test_greedy_step_standalone_improves_from_partial_iterate():
    mc = build_matcomp(n=30, rank=2, seed=3, block=5, density=0.15)
    res = sdp_solve(mc.fv, mc.op, config=SolverConfig(max_iters=15))
    state = SdpState(res.final_y.copy(), res.final_tr, SketchState.create(mc.op.n, 3))
    f0 = mc.fv.value(state.y)
    info = greedy_step(mc.fv, mc.op, 0.0, state, _refit_start(mc.op.n, state.tr, 0))
    assert info["f_before"] == pytest.approx(f0, rel=1e-12)
    if info["committed"]:
        assert mc.fv.value(state.y) < f0
    else:
        assert mc.fv.value(state.y) == pytest.approx(f0, rel=1e-12)


@pytest.mark.parametrize(
    "shape", [(3, 2), (4, 1), (2,), (2, 0)], ids=["3-rows", "4-rows", "1-d", "no-columns"]
)
def test_greedy_step_rejects_a_factor_of_the_wrong_shape(shape):
    # (3, 2) and (4, 1) factors used to commit a wrong sketch term (the
    # sketch reshapes a factor to n rows) and the 1-D and empty ones died
    # with IndexError inside the column loop; each now raises before any
    # oracle call and leaves the state as it was
    toy = build_trace_toy(n=2)
    state = SdpState(np.zeros(1), 0.0, SketchState.create(2, 3))
    with pytest.raises(ValueError, match=r"^u must have shape \(n, r\) = \(2, r >= 1\)"):
        greedy_step(toy.fv, toy.op, 0.0, state, np.ones(shape))
    assert (state.y.tolist(), state.tr, state.sketch.s.tolist()) == ([0.0], 0.0, [[0.0] * 3] * 2)
    assert sum(toy.fv.eval_counts().values()) == 0


@pytest.mark.parametrize("gamma", [-1.0, math.nan, "0.5"], ids=["negative", "nan", "str"])
def test_greedy_step_rejects_a_bad_gamma(gamma):
    # gamma -1 used to refit a different, unbounded problem (f_after -36803
    # from f_before -20.9 here), NaN ran and a str raised TypeError; each now
    # raises the ValueError naming gamma before any oracle call and leaves
    # the state as it was
    mc = build_matcomp(n=20, rank=2, seed=0, block=4, density=0.3)
    res = sdp_solve(mc.fv, mc.op, config=SolverConfig(max_iters=5))
    state = SdpState(res.final_y.copy(), res.final_tr, res.sketch)
    y, tr, sketch = state.y.copy(), state.tr, state.sketch.s.copy()
    calls = mc.fv.eval_counts(), mc.op.eval_counts()
    with pytest.raises(ValueError, match=r"^gamma must be a number in \[0, inf\), got "):
        greedy_step(mc.fv, mc.op, gamma, state, _refit_start(mc.op.n, tr, 0))
    assert np.array_equal(state.y, y) and state.tr == tr
    assert np.array_equal(state.sketch.s, sketch)
    assert (mc.fv.eval_counts(), mc.op.eval_counts()) == calls


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
        base, tr0, s0 = res.final_y, res.final_tr, res.sketch.s.copy()
        state = SdpState(res.final_y.copy(), tr0, res.sketch)
        before = fv.eval_counts()["gradient"]
        info = greedy_step(fv, mc.op, gamma, state, _refit_start(mc.op.n, tr0, iters))
        if oracle:
            assert fv.eval_counts()["gradient"] - before == info["inner_iters"]
        if info["committed"]:
            commits += 1
            t_sq, u = info["t_sq"], info["u"]
            assert np.array_equal(state.y, t_sq * base + _gram_cols(mc.op, u))
            assert state.tr == t_sq * tr0 + float(np.vdot(u, u))
            omega = state.sketch.omega
            assert np.array_equal(state.sketch.s, t_sq * s0 + u @ (u.T @ omega))
            assert info["f_after"] == fv.value(state.y) + gamma * state.tr
        else:
            assert np.array_equal(state.sketch.s, s0)
    assert commits >= 2


def test_greedy_step_on_a_zero_state_descends_on_the_factor_alone():
    # from a rank-3 sketch readout on a zero state the scale multiplies
    # nothing: the scale search makes no oracle call, each inner iteration
    # makes the quartic's three restriction calls, and the committed image
    # and trace are those of the returned factor alone
    mc = build_matcomp(n=40, rank=3, seed=0, block=5, density=0.3)
    cfg = SolverConfig(max_iters=60, greedy_period=20, rng_seed=0)
    res = sdp_solve(mc.fv, mc.op, config=cfg, sketch_size=8)
    u, lam = sketch_reconstruct(res.sketch, 3)
    start = u * np.sqrt(lam)
    state = SdpState(np.zeros(mc.op.d), 0.0, SketchState.create(mc.op.n, 3))
    f_zero = mc.fv.value(state.y)
    before = mc.fv.eval_counts()["restriction"]
    info = greedy_step(mc.fv, mc.op, 0.0, state, start)
    assert mc.fv.eval_counts()["restriction"] - before == 3 * info["inner_iters"]
    assert info["committed"] and info["f_before"] == f_zero
    assert info["f_after"] <= mc.fv.value(_gram_cols(mc.op, start)) < f_zero
    assert info["t_sq"] == 1.0
    assert np.array_equal(state.y, _gram_cols(mc.op, info["u"]))
    assert state.tr == float(np.vdot(info["u"], info["u"]))


def test_greedy_step_that_ties_the_incumbent_commits_nothing():
    # a zero factor on a zero state ends where it starts: its gradient is 0,
    # so the refit holds f0 exactly. A tie is no descent, and each commit
    # restarts a mocog run's momentum average, so the refit must report no
    # commit and leave the image, trace and sketch as they were, to the bit
    mc = build_matcomp(n=20, rank=2, seed=0, block=4, density=0.2)
    state = SdpState(np.zeros(mc.op.d), 0.0, SketchState.create(mc.op.n, 3))
    y, sketch = state.y.tobytes(), state.sketch.s.tobytes()
    info = greedy_step(mc.fv, mc.op, 0.5, state, np.zeros((mc.op.n, 3)))
    assert not info["committed"] and info["f_after"] == info["f_before"]
    assert state.y.tobytes() == y and state.tr == 0.0
    assert state.sketch.s.tobytes() == sketch


def test_greedy_step_never_holds_a_worse_scale():
    # a restriction oracle that places the scale's minimizer 1% too far out,
    # on a start (s, u) = (1, u) that is already the exact minimizer (f = 0):
    # the scale search proposes a worse point, which the refit must not take,
    # so it commits the start itself rather than a point above it
    n = 4
    u = np.arange(1.0, n + 1.0).reshape(n, 1)
    y0 = np.full(n, 0.5)
    target = 1.0 * y0 + u[:, 0] * u[:, 0]
    op = MeasurementOperator(n, n, gram=lambda q: q * q, adjoint_matvec=lambda p, v: p * v)

    def misreported(base, d):
        return 0.5 * float(np.dot(d, d)) / 1.01, float(np.dot(base - target, d))

    fv = ConicProgram(
        dim=n,
        value_oracle=lambda y: 0.5 * float(np.dot(y - target, y - target)),
        gradient_oracle=lambda y: y - target,
        restriction_oracle=misreported,
    )
    state = SdpState(y0.copy(), float(y0.sum()), SketchState.create(n, 3))
    info = greedy_step(fv, op, 0.0, state, u)
    assert info["committed"] and info["f_after"] == 0.0 and info["t_sq"] == 1.0
    assert np.array_equal(state.y, target)


def test_greedy_step_restarts_when_the_conjugate_direction_is_no_ascent():
    # f = 0.5 |s y0 + u u - target|^2 over a diagonal operator, from a factor
    # near the saddle u_2 = 0: between two factor steps the scale update
    # turns the gradient, and on some inner iterations the Polak-Ribiere+
    # direction d_k = g_k + beta_k d_(k-1) has <d_k, g_k> <= 0. The refit
    # must then search along g_k. Each inner iteration's gradient is read
    # from its adjoint call and its search direction from the next gram
    # call, and both are checked against a mirror of the direction rule
    n = 2
    target, y0 = np.array([3.0, 2.0]), np.array([0.5, 0.5])
    adjoint_calls, gram_calls = [], []

    def gram(q):
        gram_calls.append((len(adjoint_calls), q.copy()))
        return q * q

    def adjoint(p, v):
        adjoint_calls.append((p.copy(), v.copy()))
        return p * v

    op = MeasurementOperator(n, n, gram=gram, adjoint_matvec=adjoint)
    fv = ConicProgram(
        dim=n,
        value_oracle=lambda y: 0.5 * float(np.dot(y - target, y - target)),
        gradient_oracle=lambda y: y - target,
        restriction_oracle=lambda base, d: (0.5 * float(d @ d), float((base - target) @ d)),
    )
    state = SdpState(y0.copy(), float(y0.sum()), SketchState.create(n, 3))
    info = greedy_step(fv, op, 0.0, state, np.array([[2.0], [0.01]]))
    assert info["committed"]
    restarts = 0
    for k, (p, u) in enumerate(adjoint_calls):
        # the first gram call after the k-th adjoint call maps the direction
        after = [q for calls, q in gram_calls if calls == k + 1]
        if not after:
            break
        g = 2.0 * p * u
        if k == 0 or np.array_equal(u, adjoint_calls[k - 1][1]):
            search = g
        else:
            g_prev = 2.0 * adjoint_calls[k - 1][0] * adjoint_calls[k - 1][1]
            search = g + max(0.0, g @ (g - g_prev) / (g_prev @ g_prev)) * search
            if search @ g <= 0.0:
                search, restarts = g, restarts + 1
        np.testing.assert_allclose(after[0], search / np.linalg.norm(search), rtol=1e-12)
    assert restarts >= 1


def test_greedy_commit_needs_no_sketch_replace(monkeypatch):
    # the refit commits through SdpState.move, which scales the sketch and
    # adds the factor's term; SketchState.replace is not on the solve path
    def refuse(self, t_sq, u):
        raise AssertionError("SketchState.replace called")

    monkeypatch.setattr(SketchState, "replace", refuse)
    mc = build_matcomp(n=30, rank=2, seed=2, block=5, density=0.15)
    cfg = SolverConfig(max_iters=60, greedy_period=10, rng_seed=0)
    res = sdp_solve(mc.fv, mc.op, config=cfg, sketch_size=6)
    assert any(ev["committed"] for ev in res.stats["greedy_events"])


_SEARCH_BUILDS = {
    "matcomp": lambda: build_matcomp(n=20, rank=2, seed=6, block=4, density=0.2),
    "phase": lambda: build_phase_retrieval(n=20, m=4, seed=6),
    "trace-toy": build_trace_toy,
}


def _factor_search(fv, op, gamma, u, d):
    # one greedy factor search at X = u u^T (scale 1, nothing else in X):
    # the quartic's coefficients, the restriction-free search's minimizer,
    # and h(a) computed directly through gram
    gram_u = _gram_cols(op, u)
    big_d = _gram_cols(op, d)
    big_c = _gram_cols(op, u + d) - gram_u - big_d
    factor = (fv, gamma, gram_u, u, big_c, big_d, d)

    def h(a):
        uv = u - a * d
        return fv.value(_gram_cols(op, uv)) + gamma * float(np.vdot(uv, uv))

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


def _quartic(a, c1, c2, c3, c4):
    return a * (c1 + a * (c2 + a * (c3 + a * c4)))


# hand cases (c1, c2, c3, c4) of the factor search's quartic, with the step
# each must find: a dropped degree or two, a stationary point at 0, a double
# root of the derivative p'(a) = 4 (a - 1)^2 (a - 4), three positive
# stationary points of p'(a) = 4 (a - 1)(a - 2)(a - 6), and no quartic
_QUARTIC_CASES = {
    "c4=0": ((-3.0, -1.0, 0.5, 0.0), (2.0 + math.sqrt(22.0)) / 3.0),
    "c3=c4=0": ((-3.0, 2.0, 0.0, 0.0), 0.75),
    "c1=0": ((0.0, -2.0, 0.5, 1.0), (math.sqrt(66.25) - 1.5) / 8.0),
    "double root": ((-16.0, 18.0, -8.0, 1.0), 4.0),
    "three positive": ((-48.0, 40.0, -12.0, 1.0), 6.0),
    "all zero": ((0.0, 0.0, 0.0, 0.0), 0.0),
}


@pytest.mark.parametrize("name", list(_QUARTIC_CASES))
def test_quartic_argmin_hand_cases(name):
    coeffs, best = _QUARTIC_CASES[name]
    a = _quartic_argmin(*coeffs)
    assert type(a) is float
    assert a == pytest.approx(best, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", range(4))
def test_quartic_argmin_rejects_a_non_finite_coefficient(at, bad):
    # the refit's closed-form search fails on non-finite data as its slope
    # bisection does, rather than deciding the step by a NaN comparison
    coeffs = [-1.0, 1.0, 0.0, 1.0]
    coeffs[at] = bad
    with pytest.raises(NonFiniteValue, match="non-finite factor search coefficients"):
        _quartic_argmin(*coeffs)


def test_quartic_argmin_no_worse_than_companion_roots():
    # the closed-form cubic's step reaches the quartic value at the best
    # root numpy's companion eigenvalues give, to 1e-12 of that value, on
    # the hand cases and on 10^4 coefficient sets whose magnitudes spread
    # from 1e-4 to 1e4 independently, with random signs but c4 >= 0: c4 is
    # the restriction's quadratic coefficient along D, never negative for a
    # convex objective. Small stationary points of such sets, whose descent
    # is small too, are the ones a root solve without deflation or without
    # Newton polishing misses
    rng = np.random.default_rng(45)
    mags = 10.0 ** rng.uniform(-4.0, 4.0, size=(10_000, 4))
    signs = rng.choice([-1.0, 1.0], size=(10_000, 4))
    signs[:, 3] = 1.0
    draws = (mags * signs).tolist()
    for coeffs in [case for case, _ in _QUARTIC_CASES.values()] + draws:
        a = _quartic_argmin(*coeffs)
        assert math.isfinite(a) and a >= 0.0
        p_ref = _quartic(quartic_argmin_roots(*coeffs), *coeffs)
        assert _quartic(a, *coeffs) <= p_ref + 1e-12 * abs(p_ref), coeffs


@pytest.mark.parametrize("name", ["matcomp", "phase"])
def test_refit_events_count_their_operator_calls(name):
    # a refit's info dict holds the gram and adjoint_matvec calls it made,
    # which an operator that counts its own calls confirms: r gram calls per
    # factor image (the start's, two per factor search and one per proposed
    # step) and r adjoint_matvec calls per inner iteration's gradient. The
    # matcomp refit proposes every factor step and runs to the cap of 60
    # inner iterations, so at rank 3 it maps 3 (1 + 3 * 60) = 543 columns
    b = _SEARCH_BUILDS[name]()
    res = sdp_solve(b.fv, b.op, config=SolverConfig(max_iters=20))
    calls = {"gram": 0, "adjoint": 0}

    def gram(q):
        calls["gram"] += 1
        return b.op.gram(q)

    def adjoint_matvec(p, u):
        calls["adjoint"] += 1
        return b.op.adjoint_matvec(p, u)

    op = dataclasses.replace(b.op, gram=gram, adjoint_matvec=adjoint_matvec)
    state = SdpState(res.final_y.copy(), res.final_tr, res.sketch)
    info = greedy_step(b.fv, op, 0.0, state, _refit_start(op.n, res.final_tr, 0))
    inner = info["inner_iters"]
    assert info["gram_calls"] == calls["gram"]
    assert info["adjoint_calls"] == calls["adjoint"] == 3 * inner
    assert 3 * (1 + 2 * inner) <= info["gram_calls"] <= 3 * (1 + 3 * inner)
    if name == "matcomp":
        assert (inner, info["gram_calls"], info["adjoint_calls"]) == (60, 543, 180)


@pytest.mark.parametrize("solver", ["solve", "sdp_solve", "fw_solve"])
def test_float32_settings_run_as_python_floats(solver):
    # numpy float32 settings that are exact in float64 (gamma 0.5, tau 10,
    # heuristic_m 2, and a noise SNR of 20 dB for the data) give each solver
    # the run the Python floats give, bit for bit, and its record fields and
    # final trace stay Python floats
    def run(real):
        if solver == "solve":
            toy = build_orthant_quadratic(dim=20, seed=0)
            return solve(toy.program, SolverConfig(max_iters=20, heuristic_m=real(2.0)))
        mc = build_matcomp(n=20, rank=2, seed=0, block=4, density=0.2, noise_snr=real(20.0))
        if solver == "sdp_solve":
            cfg = SolverConfig(max_iters=20, heuristic_m=real(2.0), greedy_period=10)
            return sdp_solve(mc.fv, mc.op, real(0.5), cfg)
        return fw_solve(mc.fv, mc.op, real(10.0), real(0.5), SolverConfig(max_iters=20))

    ref, res = run(float), run(np.float32)
    fields = ("f_value", "dual_cert", "cs_residual", "eta", "theta", "lambda_min")
    for rec_ref, rec in zip(ref.trace, res.trace, strict=True):
        for name in fields:
            value = getattr(rec, name)
            assert value == getattr(rec_ref, name)
            assert value is None or type(value) is float, (name, type(value))
    if solver != "solve":
        assert type(res.final_tr) is float and res.final_tr == ref.final_tr
        assert np.array_equal(res.final_y, ref.final_y)


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
    first = res.trace[0]
    assert first.dual_cert > 0.0
    assert first.theta > 0.0


def test_fw_trace_toy_large_radius_reaches_optimum():
    toy = build_trace_toy()
    res = fw_solve(toy.fv, toy.op, tau=2.0, config=SolverConfig(max_iters=100, tol_eps=1e-14))
    assert res.trace.f_values()[-1] <= 1e-12


def test_fw_gap_column_decreases_on_matcomp(monkeypatch):
    mc = build_matcomp(n=30, rank=2, seed=4, block=5, density=0.15)
    searches = log_calls(monkeypatch, sdp, "_search")
    res = fw_solve(mc.fv, mc.op, tau=5.0, config=SolverConfig(max_iters=60))
    gaps = res.trace.dual_certs()
    assert gaps[-1] < gaps[0]
    assert res.final_tr <= 5.0 + 1e-9
    # one segment search per visit that steps: all but the last
    assert len(searches) == res.trace[-1].k


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


def _searches_agree_without_the_restriction(monkeypatch, free):
    # every visit of the closed-form run reruns its ray search, and every
    # step its line search and its refit, on a copy of the iterate that
    # holds the restriction-free objective `free`, from the same inputs: the
    # step's own state, and for the refit the state after the closed-form
    # step. Returns the largest relative change of each searched value
    worst = dict.fromkeys(("eta", "f", "theta", "f_after"), 0.0)
    evaluate, step = sdp._SdpIterate.evaluate, sdp._SdpIterate.step

    def twin(it):
        other = copy.deepcopy(it)
        other.fv = free
        return other

    def note(key, a, b):
        if a != b:
            worst[key] = max(worst[key], abs(a - b) / abs(a))

    def shadowed_evaluate(it):
        f_free, _, _, eta_free = evaluate(twin(it))
        f, grad, cs, eta = evaluate(it)
        note("eta", eta, eta_free)
        note("f", f, f_free)
        return f, grad, cs, eta

    def shadowed_step(it, k, theta):
        theta_free, _ = step(twin(it), k, theta)
        other = twin(it)
        theta, restart = step(it, k, theta)
        note("theta", theta, theta_free)
        _, restart_free = step(other, k, theta)
        assert restart_free == restart, k
        if it.greedy is not None:
            assert other.greedy["committed"] == it.greedy["committed"], k
            note("f_after", it.greedy["f_after"], other.greedy["f_after"])
        return theta, restart

    monkeypatch.setattr(sdp._SdpIterate, "evaluate", shadowed_evaluate)
    monkeypatch.setattr(sdp._SdpIterate, "step", shadowed_step)
    return worst


@pytest.mark.parametrize(
    "run",
    [_fw_on_matcomp, _greedy_on_matcomp, _greedy_on_phase, _solve_on_orthant],
    ids=["fw_solve", "sdp_solve", "phase", "solve"],
)
def test_restriction_free_search_agrees_with_restriction(run, monkeypatch):
    # without a restriction oracle every ray, line, segment and greedy
    # search bisects on the sign of the directional derivative, which must
    # minimize the same (trace-penalized) objective as the closed form:
    # final f agrees to a relative 1e-10. The bisection resolves each step to
    # an ulp, so the gaps are roundoff: 1.5e-13 for fw_solve, 3e-15 for
    # phase and 4e-16 for solve. Frank-Wolfe's zig-zag between atoms
    # amplifies a step error about 1.25x per visit, so the fw case is the
    # most sensitive. The sdp_solve case compares its searches instead: from
    # one state its ray searches agree to 5e-16, its line searches to 4e-14
    # and its refits commit the same f to 1.1e-13, with the same commit and
    # restart decisions (the average restarts at visit 9 only). But the two
    # paths leave the refit factors at points up to 3e-10 apart (in u u^T,
    # relative) along a flat valley, and later visits read that difference:
    # f parts by 4e-15 through visit 18 (2e-16 at visit 18) and by 2.9e-14
    # at visit 40. So that case reruns every search of the closed-form run
    # without the oracle, on the same inputs, and compares the two runs' f
    # at visit 18.
    # Dropping the linear trace term from the searched slope ends the
    # gamma > 0 runs at f = 19.09 (fw_solve, not 17.81), 20.70 (sdp_solve,
    # not 16.84) and 1.93e-4 (phase, not 1.87e-4), and the sdp_solve case
    # fails its search comparison.
    if run is _solve_on_orthant:
        program, op = build_orthant_quadratic(dim=20, seed=0).program, None
    elif run is _greedy_on_phase:
        ph = _phase_case()
        program, op = ph.fv, ph.op
    else:
        mc = build_matcomp(n=30, rank=2, seed=0, block=5, density=0.15)
        program, op = mc.fv, mc.op
    free_program = dataclasses.replace(program, restriction_oracle=None)
    free = run(free_program, op)
    last = -1
    if run is _greedy_on_matcomp:
        worst = _searches_agree_without_the_restriction(monkeypatch, free_program)
        last = 18
    exact = run(program, op)
    assert exact.stats["restriction"] > 0
    assert free.stats["restriction"] == 0
    f_exact = exact.trace.f_values()[last]
    assert free.trace.f_values()[last] == pytest.approx(f_exact, rel=1e-10)
    if run is _greedy_on_matcomp:
        assert max(worst.values()) <= 1e-12, worst
        restarts = [e["k"] for e in exact.stats["greedy_events"] if e["restart"]]
        assert restarts == [9]


# ---------------------------------------------------------------------------
# operator identities


def test_measurement_operator_identities():
    mc = build_matcomp(n=30, rank=2, seed=5, block=5, density=0.15)
    rng = np.random.default_rng(6)
    for bundle in (mc, build_trace_toy(n=7)):
        op = bundle.op
        for _ in range(10):
            q = rng.standard_normal(op.n)
            p = rng.standard_normal(op.d)
            # <p, G(q q^T)> == q^T (G^*(p) q)
            lhs = float(p @ op.gram(q))
            rhs = float(q @ op.adjoint_matvec(p, q))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            # the dense oracle agrees with the factored gram
            np.testing.assert_allclose(apply_dense(bundle, np.outer(q, q)), op.gram(q), atol=1e-10)
    op = mc.op
    # the measurement count is an int >= 1; an array in its place (the data
    # vector passed second) fails loudly
    for d in (2.0, True, 0, mc.b, np.array(5)):
        with pytest.raises(ValueError, match="int >= 1"):
            dataclasses.replace(op, d=d)
    # the matrix side follows the same rule; a fractional or boolean n used
    # to build and then fail inside numpy at the first solve
    for n in (2.5, True, 0):
        with pytest.raises(ValueError, match="matrix side n must be an int >= 1"):
            dataclasses.replace(op, n=n)
        with pytest.raises(ValueError):
            build_trace_toy(n=n)


def test_solvers_map_vectors_only():
    # a hand-built operator needs gram and adjoint_matvec on vectors of
    # shape (n,) only: the greedy refit maps its factor column by column
    mc = build_matcomp(n=20, rank=2, seed=6, block=4, density=0.2)
    n, d = mc.op.n, mc.op.d

    def vector_only(fn, *shapes):
        def strict(*args):
            got = tuple(np.shape(a) for a in args)
            if got != shapes:
                raise TypeError(f"got shapes {got}, not {shapes}")
            return fn(*args)

        return strict

    op = MeasurementOperator(
        n=n,
        d=d,
        gram=vector_only(mc.op.gram, (n,)),
        adjoint_matvec=vector_only(mc.op.adjoint_matvec, (d,), (n,)),
    )
    res = sdp_solve(mc.fv, op, config=SolverConfig(max_iters=20, greedy_period=5))
    assert len(res.stats["greedy_events"]) == 4
    assert any(ev["committed"] for ev in res.stats["greedy_events"])
    fw_solve(mc.fv, op, tau=5.0, config=SolverConfig(max_iters=20))
