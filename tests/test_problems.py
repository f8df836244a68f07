"""Problem builders: planted optima, measurement masks, transform
identities, input range checks, noise injection, and graymap reading."""

import dataclasses
import functools
import gc
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.fft import dct, idct

from cdkit import DegenerateSignal, MeasurementOperator, problems
from cdkit.problems import (
    _matcomp_mask,
    add_noise_snr,
    build_matcomp,
    build_orthant_quadratic,
    build_phase_retrieval,
    build_trace_toy,
    read_pgm,
    recovery_error,
)
from cdkit.sdp import _adjoint_cols, _gram_cols
from oracles import adjoint_dense, apply_dense, dct_measurement_apply, pgm_token_scan


# ---------------------------------------------------------------------------
# planted orthant quadratic


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_planted_point_satisfies_kkt(seed):
    built = build_orthant_quadratic(dim=20, seed=seed)
    g_star = built.program.gradient_oracle(built.x_star)
    # stationarity over the orthant: gradient nonnegative, zero on the support
    assert g_star.min() >= -1e-12
    assert abs(float(built.x_star @ g_star)) < 1e-12
    assert built.program.value_oracle(built.x_star) == pytest.approx(built.f_star, rel=1e-12)


def test_planted_support_is_a_third_of_dim():
    built = build_orthant_quadratic(dim=21, seed=2)
    assert int((built.x_star > 0).sum()) == 7


def test_lipschitz_is_largest_curvature():
    built = build_orthant_quadratic(dim=12, seed=3)
    w = np.linalg.eigvalsh(built.quad)
    assert built.lipschitz == pytest.approx(w[-1], rel=1e-12)


def test_restriction_matches_values_along_lines():
    # the measurement programs compare the image with their data b inside
    # the oracles, restriction included, so each bundled restriction is
    # checked against its own value oracle; a bundle's b is the array the
    # program reads, and it is read-only, so a write fails and the value
    # stays put
    bundles = [
        build_orthant_quadratic(dim=10, seed=4).program,
        build_trace_toy(n=3, target=2.0).fv,
        build_matcomp(n=20, rank=2, seed=4, block=4, density=0.2),
        build_phase_retrieval(n=16, m=3, seed=4),
    ]
    rng = np.random.default_rng(0)
    for bundle in bundles:
        prob = getattr(bundle, "fv", bundle)
        base = rng.standard_normal(prob.dim)
        direction = rng.standard_normal(prob.dim)
        a, b = prob.restriction_oracle(base, direction)
        # the restriction leaves out the constant f(base)
        c = prob.value_oracle(base)
        for t in (0.0, 0.3, 1.7):
            want = prob.value_oracle(base + t * direction)
            assert c + a * t * t + b * t == pytest.approx(want, rel=1e-12, abs=1e-12)
        if hasattr(bundle, "b"):
            before = prob.value_oracle(base)
            with pytest.raises(ValueError, match="read-only"):
                bundle.b[:] += 1.0
            assert prob.value_oracle(base) == before


def test_builders_are_deterministic():
    a = build_orthant_quadratic(dim=10, seed=9)
    b = build_orthant_quadratic(dim=10, seed=9)
    np.testing.assert_array_equal(a.quad, b.quad)
    np.testing.assert_array_equal(a.x_star, b.x_star)
    m1 = build_matcomp(n=30, rank=2, seed=9, block=5, density=0.1)
    m2 = build_matcomp(n=30, rank=2, seed=9, block=5, density=0.1)
    np.testing.assert_array_equal(m1.b, m2.b)
    np.testing.assert_array_equal(m1.row_idx, m2.row_idx)


@pytest.mark.parametrize(
    "build, kwargs, name",
    [
        (build_trace_toy, dict(target=math.nan), "target"),
        (build_trace_toy, dict(target=math.inf), "target"),
        (build_trace_toy, dict(target=0.0), "target"),
        (build_matcomp, dict(n=20, block=4, density=math.nan), "density"),
        (build_matcomp, dict(n=20, block=4, density=-1.0), "density"),
        (build_matcomp, dict(n=20, block=4, density=0.0), "density"),
        (build_matcomp, dict(n=20, block=4, density=1.5), "density"),
        (build_phase_retrieval, dict(n=8, m=0), "m must"),
        (build_trace_toy, dict(n=0), "n must"),
        (build_trace_toy, dict(n=math.nan), "n must"),
        (build_matcomp, dict(n=0, block=0), "n must"),
        (build_matcomp, dict(n=math.nan, block=0), "n must"),
        (build_matcomp, dict(n=20, rank=0, block=4), "rank must"),
        (build_matcomp, dict(n=20, rank=math.nan, block=4), "rank must"),
        (build_matcomp, dict(n=20, block=-1), "block must"),
        (build_matcomp, dict(n=20, block=21), "block must"),
        (build_matcomp, dict(n=20, block=math.nan), "block must"),
        (build_phase_retrieval, dict(n=1, m=3), "n must"),
        (build_phase_retrieval, dict(n=math.nan, m=3), "n must"),
    ],
    ids=[
        "trace-target-nan", "trace-target-inf", "trace-target-zero",
        "matcomp-density-nan", "matcomp-density-negative", "matcomp-density-zero",
        "matcomp-density-above-one", "phase-m-zero",
        "trace-n-zero", "trace-n-nan", "matcomp-n-zero", "matcomp-n-nan",
        "matcomp-rank-zero", "matcomp-rank-nan", "matcomp-block-negative",
        "matcomp-block-above-n", "matcomp-block-nan", "phase-n-one", "phase-n-nan",
    ],
)
def test_builders_reject_out_of_range_inputs(build, kwargs, name):
    # each check is written so that NaN fails it
    with pytest.raises(ValueError, match=name):
        build(**kwargs)


# ---------------------------------------------------------------------------
# trace toy


def test_trace_toy_objective_shape():
    toy = build_trace_toy()
    assert toy.op.d == 1
    assert toy.f_star == 0.0
    # measurement of X is its trace; objective is half squared miss of the
    # target, so X = 0 has value 0.5 and a unit trace is optimal
    assert toy.fv.value(np.array([0.0])) == pytest.approx(0.5)
    assert toy.fv.value(np.array([1.0])) == 0.0
    assert toy.fv.value(np.array([3.0])) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# matrix completion masks and measurements


def test_matcomp_mask_statistics():
    mc = build_matcomp(n=100, rank=3, seed=0, block=10, density=0.1)
    i, j = mc.row_idx, mc.col_idx
    # upper triangle, unique pairs
    assert np.all(i <= j)
    pairs = set(zip(i.tolist(), j.tolist()))
    assert len(pairs) == len(i)
    # the dense anchor block is fully observed
    for a in range(10):
        for b in range(a, 10):
            assert (a, b) in pairs
    # expected count 55 + (5050 - 55) * 0.1 = 554.5, sd about 21.2; 4 sigma band
    assert 469 <= len(i) <= 640
    # int32, not intp: at n = 2000 (d about 200k) intp column indices add
    # 1.6 MB to every bundle, which shows in the benchmark's peak_rss_mb.
    # The row indices are not stored: row_idx is derived from the row
    # counts, in int32 so that --dump-to files keep their bytes
    assert i.dtype == j.dtype == np.int32


def test_matcomp_noiseless_measurements_match_truth():
    mc = build_matcomp(n=40, rank=2, seed=1, block=5, density=0.15)
    want = np.einsum("ik,jk->ij", mc.v_true, mc.v_true)[mc.row_idx, mc.col_idx]
    np.testing.assert_array_equal(mc.b, _gram_cols(mc.op, mc.v_true))
    np.testing.assert_allclose(mc.b, want, rtol=1e-12)


@pytest.mark.parametrize(
    "n, block, density, noise_snr",
    [(1, 1, 0.5, None), (12, 0, 0.3, 20.0), (30, 5, 0.2, None), (40, 40, 1.0, None)],
)
def test_matcomp_derived_rows_are_the_built_mask(n, block, density, noise_snr):
    # the bundle keeps the mask as the row counts and col_idx the builder
    # drew; row_idx, derived on access, is the row loop's row index
    for seed in range(3):
        mc = build_matcomp(n=n, rank=2, seed=seed, block=block, density=density,
                           noise_snr=noise_snr)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        rng.standard_normal((n, 2))
        ref.standard_normal((n, 2))
        counts, j = _matcomp_mask(n, block, density, rng)
        rows, _ = _matcomp_mask_loop(n, block, density, ref)
        np.testing.assert_array_equal(problems._mask_rows(counts), rows)
        np.testing.assert_array_equal(mc.row_counts, counts)
        assert mc.row_idx.dtype == np.int32
        np.testing.assert_array_equal(mc.row_idx, rows)
        np.testing.assert_array_equal(mc.col_idx, j)
        assert mc.row_counts.shape == (n,) and mc.row_counts.sum() == mc.op.d


@pytest.mark.parametrize(
    "n, block, density",
    [(1, 1, 0.5), (12, 0, 0.3), (12, 1, 1e-12), (40, 10, 1.0), (200, 10, 0.1)],
    ids=["n1", "block0", "empty-rows", "full", "n200"],
)
def test_matcomp_gram_repeats_rows_to_the_bit(n, block, density):
    # gram writes q[row_idx] by repeating each q_i over its row's entries;
    # the product is the gathered one, rows without entries included
    for seed in range(3):
        mc = build_matcomp(n=n, rank=2, seed=seed, block=block, density=density)
        q = np.random.default_rng(seed).standard_normal(n)
        want = q.take(mc.row_idx) * q.take(mc.col_idx)
        got = mc.op.gram(q)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_matcomp_b_is_the_factor_image_at_rank_8():
    # from rank 8 on numpy sums a row of eight or more products in blocks,
    # so the row sum of v_i v_j differs from the column-order image by
    # roundoff; b is the operator's own image of v v^T at every rank
    mc = build_matcomp(n=60, rank=8, seed=3, block=5, density=0.3)
    np.testing.assert_array_equal(mc.b, _gram_cols(mc.op, mc.v_true))
    terms = mc.v_true[mc.row_idx] * mc.v_true[mc.col_idx]
    # roundoff of a sum is relative to the sum of its terms' magnitudes: an
    # entry whose terms cancel differs by more relative to itself
    scale = np.abs(terms).sum(axis=1)
    assert np.all(np.abs(mc.b - terms.sum(axis=1)) <= 1e-15 * scale)


def test_matcomp_adjoint_is_mask_transpose():
    mc = build_matcomp(n=25, rank=2, seed=2, block=5, density=0.2)
    rng = np.random.default_rng(3)
    p = rng.standard_normal(mc.op.d)
    u = rng.standard_normal(25)
    dense = np.zeros((25, 25))
    for k in range(mc.op.d):
        a, b = mc.row_idx[k], mc.col_idx[k]
        dense[a, b] += p[k] / 2.0
        dense[b, a] += p[k] / 2.0
    # symmetrized mask operator: G^*(p) u must equal the dense action
    np.testing.assert_allclose(mc.op.adjoint_matvec(p, u), dense @ u, atol=1e-10)


# ---------------------------------------------------------------------------
# measurement kernels against one-at-a-time reference loops


def _column_maps(op, u):
    # a vector goes to the operator itself, a factor to the greedy refit's
    # column sums and stacked column adjoints
    if u.ndim == 1:
        return op.gram, op.adjoint_matvec
    return functools.partial(_gram_cols, op), functools.partial(_adjoint_cols, op)


def _matcomp_gram_loop(mc, q):
    cols = q[:, None] if q.ndim == 1 else q
    out = np.zeros(mc.op.d)
    for c in range(cols.shape[1]):
        out += cols[mc.row_idx, c] * cols[mc.col_idx, c]
    return out


def _matcomp_adjoint_loop(mc, p, u):
    if u.ndim == 2:
        return np.stack(
            [_matcomp_adjoint_loop(mc, p, u[:, c]) for c in range(u.shape[1])], axis=1
        )
    n = u.size
    w = np.bincount(mc.row_idx, weights=0.5 * p * u[mc.col_idx], minlength=n)
    w += np.bincount(mc.col_idx, weights=0.5 * p * u[mc.row_idx], minlength=n)
    return w


def _phase_gram_loop(ph, q):
    cols = q[:, None] if q.ndim == 1 else q
    out = np.zeros(ph.op.d)
    for c in range(cols.shape[1]):
        a = dct_measurement_apply(ph.signs, cols[:, c])
        out += (a * a).ravel()
    return out


def _phase_adjoint_loop(ph, p, u):
    cols = u[:, None] if u.ndim == 1 else u
    signs = ph.signs
    pb = p.reshape(signs.shape)
    out = np.zeros_like(cols)
    for j in range(signs.shape[0]):
        t = dct(signs[j][:, None] * cols, axis=0, norm="ortho")
        t *= pb[j][:, None]
        out += signs[j][:, None] * idct(t, axis=0, norm="ortho")
    return out[:, 0] if u.ndim == 1 else out


@pytest.mark.parametrize(
    "build, gram_loop, adjoint_loop",
    [
        (
            lambda seed: build_matcomp(n=30, rank=2, seed=seed, block=5, density=0.2),
            _matcomp_gram_loop,
            _matcomp_adjoint_loop,
        ),
        (
            lambda seed: build_phase_retrieval(n=24, m=5, seed=seed),
            _phase_gram_loop,
            _phase_adjoint_loop,
        ),
    ],
    ids=["matcomp", "phase"],
)
@pytest.mark.parametrize("cols", [None, 1, 3, 8])
def test_kernels_match_reference_loops_bitwise(build, gram_loop, adjoint_loop, cols):
    # the kernels batch or reorder the loops' work but not their arithmetic,
    # and the refit adds its column images in column order, so solves stay
    # bit for bit what the loops gave
    for seed in range(3):
        bundle = build(seed)
        rng = np.random.default_rng(100 + seed)
        p = rng.standard_normal(bundle.op.d)
        u = rng.standard_normal(bundle.op.n if cols is None else (bundle.op.n, cols))
        gram, adjoint = _column_maps(bundle.op, u)
        np.testing.assert_array_equal(gram(u), gram_loop(bundle, u))
        np.testing.assert_array_equal(adjoint(p, u), adjoint_loop(bundle, p, u))


@pytest.mark.parametrize(
    "n, block, density",
    [(1, 1, 0.5), (12, 1, 0.0), (12, 3, 0.3), (30, 5, 0.2), (200, 10, 0.1)],
)
def test_matcomp_mask_is_in_csr_order(n, block, density):
    # adjoint_matvec reads (p / 2, col_idx, row pointers) as a CSR matrix,
    # which is only the upper triangle if rows come in order and columns
    # rise strictly within a row
    for seed in range(3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        counts, j = _matcomp_mask(n, block, density, rng)
        assert counts.dtype == np.intp and counts.shape == (n,)
        i = problems._mask_rows(counts)
        np.testing.assert_array_equal(i, _matcomp_mask_loop(n, block, density, ref)[0])
        assert i.dtype == j.dtype == np.int32
        assert np.all(np.diff(i) >= 0)
        same_row = i[1:] == i[:-1]
        assert np.all(np.diff(j)[same_row] > 0)
        assert np.all(i <= j) and np.all(j < n)


def _matcomp_mask_loop(n, block, density, rng):
    # the reference: one row of draws at a time, row i drawing n - i
    # uniforms in column order
    rows_i = []
    rows_j = []
    for i in range(n):
        js = np.arange(i, n, dtype=np.int32)
        bern = rng.random(n - i) < density
        if i < block:
            keep = (js < block) | bern
        else:
            keep = bern
        kept = js[keep]
        rows_i.append(np.full(kept.size, i, dtype=np.int32))
        rows_j.append(kept)
    return np.concatenate(rows_i), np.concatenate(rows_j)


def _assert_mask_is_the_loops(n, block, density, seed):
    # the mask comes as intp row counts and int32 columns; the rows the
    # counts give are the loop's rows
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    counts, cols = _matcomp_mask(n, block, density, rng)
    assert counts.dtype == np.intp and counts.shape == (n,)
    want = _matcomp_mask_loop(n, block, density, ref)
    for g, w in zip((problems._mask_rows(counts), cols), want):
        assert g.dtype == w.dtype == np.int32
        np.testing.assert_array_equal(g, w)
    # the same uniforms were drawn, no more and no fewer
    assert rng.random() == ref.random()


@pytest.mark.parametrize("density", [0.0, 1e-12, 0.1, 1.0])
@pytest.mark.parametrize("n", [1, 2, 12, 600, 2000])
def test_matcomp_mask_is_the_row_loops(n, density):
    # the mask draws several rows' uniforms at once; rows below block
    # observe the corner, all of them at block = n
    for block in sorted({0, 1, min(10, n), n}):
        _assert_mask_is_the_loops(n, block, density, seed=n + block)


@pytest.mark.parametrize("draws", [1, 5, 12, 13, 30])
def test_matcomp_mask_chunks_split_anywhere(monkeypatch, draws):
    # with a draw budget this small the chunks end inside the corner, rows
    # straddle each budget's end, and a row longer than the budget is drawn
    # alone
    monkeypatch.setattr(problems, "_MASK_DRAWS", draws)
    for block, density in [(0, 0.3), (5, 0.3), (12, 0.1), (3, 1.0)]:
        _assert_mask_is_the_loops(12, block, density, seed=draws)


def test_matcomp_mask_peak_is_the_mask_not_its_draws():
    # at n = 2000 the upper triangle has 2001000 entries: drawing their
    # uniforms at once would take 16 MB. The mask's int32 column pieces and
    # their concatenation take two int32 d-vectors, the row counts with
    # their pieces two intp n-vectors, and a chunk's draws about 1 MB. No
    # int32 row index is built
    n = 2000
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, cols = _matcomp_mask(n, 10, 0.1, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    budget = 2 * 4 * cols.size + 8 * n + 2**20
    assert peak <= budget, (peak, budget)


def _matcomp_edge_inputs():
    rng = np.random.default_rng(5)
    mc = build_matcomp(n=30, rank=2, seed=4, block=5, density=0.2)
    p = rng.standard_normal(mc.op.d)
    big = rng.standard_normal((30, 6))
    long = rng.standard_normal(60)
    yield "fortran", mc, p, np.asfortranarray(big[:, :3])
    yield "strided-cols", mc, p, big[:, ::2]
    yield "strided-vector", mc, p, long[::2]
    yield "column-view", mc, p, big[:, 1]
    yield "p-list", mc, p.tolist(), big[:, 0]
    yield "p-float32", mc, p.astype(np.float32), big[:, :2]
    # rows 1..11 observe nothing: their row pointers repeat (a density of 0
    # is rejected, and this one keeps none of seed 0's draws)
    empty = build_matcomp(n=12, rank=2, seed=0, block=1, density=1e-12)
    assert empty.op.d == 1
    yield "empty-rows", empty, np.array([2.5]), rng.standard_normal(12)
    yield "empty-rows-block", empty, np.array([-1.5]), rng.standard_normal((12, 3))
    one = build_matcomp(n=1, rank=1, seed=0, block=1, density=0.5)
    yield "n1", one, np.array([3.0]), np.array([2.0])
    yield "n1-block", one, np.array([3.0]), np.array([[2.0, -1.0]])


@pytest.mark.parametrize(
    "case, mc, p, u",
    list(_matcomp_edge_inputs()),
    ids=[case[0] for case in _matcomp_edge_inputs()],
)
def test_matcomp_adjoint_edge_layouts_bitwise(case, mc, p, u):
    # a factor of any layout goes through the refit's column adjoints
    got = _column_maps(mc.op, u)[1](p, u)
    p64 = np.asarray(p, dtype=float)
    want = _matcomp_adjoint_loop(mc, p64, np.array(u))
    assert got.shape == np.shape(u)
    np.testing.assert_array_equal(got, want)
    dense = adjoint_dense(mc, p64) @ u
    np.testing.assert_allclose(got, dense, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "case, mc, p, u",
    list(_matcomp_edge_inputs()),
    ids=[case[0] for case in _matcomp_edge_inputs()],
)
def test_matcomp_gram_edge_layouts_bitwise(case, mc, p, u):
    # the compiled kernel reads q through a raw pointer, so a strided or
    # Fortran-ordered column must be read by value, and never written
    u0 = np.array(u)
    got = _column_maps(mc.op, u)[0](u)
    want = _matcomp_gram_loop(mc, u0)
    assert got.shape == (mc.op.d,)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(u, u0)


def _small_bundles():
    # every bundled operator at n = 12, and a diagonal operator built by hand
    # whose kernels check nothing
    diagonal = MeasurementOperator(12, 12, gram=lambda q: q * q, adjoint_matvec=lambda p, u: p * u)
    return {
        "trace": build_trace_toy(n=12),
        "matcomp": build_matcomp(n=12, rank=2, seed=0, block=3, density=0.3),
        "phase": build_phase_retrieval(n=12, m=3, seed=0),
        "hand-built": types.SimpleNamespace(op=diagonal),
    }


@pytest.mark.parametrize("shape", ["column-pair", "row", "short"])
def test_vector_maps_reject_other_shapes(shape):
    # a factor of shape (n, 2), a row of shape (1, n) or a short vector would
    # otherwise be read flat (matcomp and trace gram), broadcast against the
    # masks (phase) or the diagonal (hand-built) or read in part (trace
    # adjoint), and give wrong values of a plausible size. The operator
    # checks them, so a hand-built one fails with the bundled ones' messages
    q = {"column-pair": np.ones((12, 2)), "row": np.ones((1, 12)), "short": np.ones(11)}[shape]
    for bundle in _small_bundles().values():
        op = bundle.op
        with pytest.raises(ValueError, match=r"gram needs q of shape \(12,\)"):
            op.gram(q)
        message = rf"adjoint_matvec needs p of shape \({op.d},\) and u of shape \(12,\)"
        with pytest.raises(ValueError, match=message):
            op.adjoint_matvec(np.ones(op.d), q)


def test_replaced_operator_maps_to_the_same_bits():
    # dataclasses.replace runs the operator's checks again over the checked
    # maps it copies; every vector still maps to the same bits
    rng = np.random.default_rng(4)
    for bundle in _small_bundles().values():
        op = bundle.op
        copy = dataclasses.replace(op)
        q = rng.standard_normal(12)
        p = rng.standard_normal(op.d)
        assert copy.gram(q).tobytes() == op.gram(q).tobytes()
        assert copy.adjoint_matvec(p, q).tobytes() == op.adjoint_matvec(p, q).tobytes()
        with pytest.raises(ValueError, match=r"gram needs q of shape \(12,\)"):
            copy.gram(q[:-1])


def test_matcomp_adjoint_rejects_mismatched_sizes():
    # the compiled kernels index through raw pointers, so a short p or u
    # must fail before they run; the phase, trace and hand-built kernels
    # would reshape p, read it in part or broadcast it, so the operator
    # checks the same shapes with the same message for every kernel
    for kind, bundle in _small_bundles().items():
        op = bundle.op
        p = np.ones(op.d)
        cases = [
            (p[:-1], np.ones(12)),
            (np.ones((op.d, 1)), np.ones(12)),
            (np.ones(op.d + 1), np.ones(12)),
            (p, np.ones(11)),
            (p, np.ones((11, 2))),
            (p, np.ones((12, 2, 1))),
            # a factor is mapped one column at a time, never as a block
            (p, np.ones((12, 3))),
        ]
        if kind == "phase":
            # the (m, n) block of the masks' coefficients is not a p
            cases.append((np.ones(bundle.signs.shape), np.ones(12)))
        for bad_p, bad_u in cases:
            with pytest.raises(ValueError, match="adjoint_matvec needs p of shape"):
                op.adjoint_matvec(bad_p, bad_u)


def test_matcomp_gram_transient_memory_is_its_output():
    # a call repeats q into its output and scales that in place: no index
    # cast and no gathered copy of d (about 200k here) entries
    n = 2000
    mc = build_matcomp(n=n, rank=3, seed=0, block=10, density=0.1)
    q = np.random.default_rng(0).standard_normal(n)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mc.op.gram(q)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    budget = 8 * mc.op.d + 8 * n
    assert peak <= budget, (peak, budget, peak / (8 * mc.op.d))


@pytest.mark.parametrize("cols", [None, 3])
def test_matcomp_adjoint_transient_memory_is_outputs_of_size_u(cols):
    # a call reads p in place and allocates only its n-sized outputs; no
    # temporary grows with the d (about 200k here) measurements, and the
    # refit's column adjoints of a factor add only the stacked result
    n = 2000
    mc = build_matcomp(n=n, rank=3, seed=0, block=10, density=0.1)
    rng = np.random.default_rng(0)
    p = rng.standard_normal(mc.op.d)
    u = rng.standard_normal(n if cols is None else (n, cols))
    adjoint = _column_maps(mc.op, u)[1]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adjoint(p, u)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    budget = 4 * 8 * n * (1 if cols is None else cols)
    assert peak <= budget, (peak, budget, peak / (8 * mc.op.d))


_KERNEL_BUILDERS = {
    "matcomp": lambda: build_matcomp(n=30, rank=2, seed=1, block=5, density=0.2),
    "phase": lambda: build_phase_retrieval(n=24, m=9, seed=1),
}


@pytest.mark.parametrize("kind", sorted(_KERNEL_BUILDERS))
@pytest.mark.parametrize("cols", [None, 3])
def test_kernels_leave_inputs_unchanged_and_read_strided_p(kind, cols):
    # the kernels transform fresh temporaries in place and may read p where
    # it lies, so neither may write into the caller's p or u; the refit hands
    # them column views of its factor, which must stay unchanged too
    op = _KERNEL_BUILDERS[kind]().op
    rng = np.random.default_rng(7)
    p = rng.standard_normal(op.d)
    u = rng.standard_normal(op.n if cols is None else (op.n, cols))
    gram, adjoint = _column_maps(op, u)
    p0, u0 = p.copy(), u.copy()
    want = adjoint(p, u)
    gram(u)
    np.testing.assert_array_equal(p, p0)
    np.testing.assert_array_equal(u, u0)
    strided = np.repeat(p, 2)[::2]
    assert not strided.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(adjoint(strided, u), want)
    np.testing.assert_array_equal(strided, p0)
    np.testing.assert_array_equal(u, u0)


_SMALL_BUNDLES = {
    "trace": lambda seed: build_trace_toy(n=5, target=1.0 + seed % 3),
    "matcomp": lambda seed: build_matcomp(n=12, rank=2, seed=seed, block=3, density=0.3),
    "phase": lambda seed: build_phase_retrieval(n=10, m=3, seed=seed),
}


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(_SMALL_BUNDLES)),
    seed=st.integers(0, 2**31 - 1),
    rank=st.integers(1, 3),
)
def test_adjoint_matvec_is_adjoint_of_gram(kind, seed, rank):
    bundle = _SMALL_BUNDLES[kind](seed)
    op = bundle.op
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(op.d)
    u = rng.standard_normal((op.n, rank))
    # the refit's factor maps: <p, G(U U^T)> = <G^*(p), U U^T>
    image = _adjoint_cols(op, p, u)
    lhs = float(p @ _gram_cols(op, u))
    rhs = float(np.sum(u * image))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
    np.testing.assert_allclose(image, adjoint_dense(bundle, p) @ u, rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# masked transform measurements


def test_dct_measurement_energy_identity():
    # the tests' public scipy.fft reference for the phase kernels
    rng = np.random.default_rng(4)
    signs = np.where(rng.standard_normal((6, 32)) > 0, 1.0, -1.0)
    v = rng.standard_normal(32)
    out = dct_measurement_apply(signs, v)
    assert out.shape == (6, 32)
    # each masked orthonormal transform preserves energy
    assert float((out**2).sum()) == pytest.approx(6.0 * float(v @ v), rel=1e-12)


def test_phase_retrieval_noiseless_energy_estimate():
    ph = build_phase_retrieval(n=32, m=4, seed=0)
    assert np.linalg.norm(ph.x_true) == pytest.approx(1.0, abs=1e-12)
    assert ph.m_estimate == pytest.approx(1.0, rel=1e-12)
    assert ph.b.shape == (4 * 32,)
    assert ph.b.min() >= 0.0


@pytest.mark.parametrize("given", [False, True], ids=["drawn", "given"])
def test_phase_retrieval_b_is_the_operators_image_of_the_truth(given):
    # the clean data is the image of x x^T under the operator the solver
    # runs, to the bit, and under the dense oracle to roundoff relative to
    # the whole image: the oracle's two-sided transform loses more relative
    # accuracy on a small entry than on b as a whole
    signal = np.cos(0.3 * np.arange(24)) if given else None
    ph = build_phase_retrieval(n=24, m=5, seed=6, signal=signal)
    np.testing.assert_array_equal(ph.b, ph.op.gram(ph.x_true))
    dense = apply_dense(ph, np.outer(ph.x_true, ph.x_true))
    assert np.linalg.norm(ph.b - dense) <= 1e-12 * np.linalg.norm(ph.b)


def test_phase_retrieval_truth_is_a_zero_of_the_objective():
    ph = build_phase_retrieval(n=32, m=4, seed=1)
    y_true = ph.op.gram(ph.x_true)
    assert ph.fv.value(y_true) <= 1e-24


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_retrieval_rejects_a_non_finite_signal(bad):
    # a NaN or infinite entry would make every measurement NaN, and the
    # first solve would fail far from the cause
    with pytest.raises(ValueError, match="NaN or infinite"):
        build_phase_retrieval(m=2, signal=[1.0, bad, 2.0, 3.0])


def test_phase_retrieval_holds_a_signal_to_the_n_floor():
    # a given signal sets n and meets the same n >= 2 floor as a drawn one;
    # it used to build an n = 1 instance
    with pytest.raises(ValueError, match=r"^n must be an int >= 2, got 1$"):
        build_phase_retrieval(m=2, signal=[1.0])
    # both paths draw the masks first, so a signal of length n gets the
    # masks a drawn signal of length n gets
    drawn = build_phase_retrieval(n=8, m=3, seed=5)
    given = build_phase_retrieval(m=3, seed=5, signal=3.0 * drawn.x_true)
    np.testing.assert_array_equal(given.signs, drawn.signs)
    np.testing.assert_allclose(given.x_true, drawn.x_true, rtol=1e-15)


def test_phase_dense_and_factored_paths_agree():
    ph = build_phase_retrieval(n=16, m=3, seed=2)
    rng = np.random.default_rng(5)
    q = rng.standard_normal(16)
    np.testing.assert_allclose(apply_dense(ph, np.outer(q, q)), ph.op.gram(q), atol=1e-10)
    p = rng.standard_normal(ph.op.d)
    dense = adjoint_dense(ph, p)
    np.testing.assert_allclose(dense, dense.T, atol=1e-12)
    np.testing.assert_allclose(dense @ q, ph.op.adjoint_matvec(p, q), atol=1e-10)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_matcomp(n=100, rank=3, block=10, density=0.1, noise_snr=20.0),
        lambda: build_phase_retrieval(n=64, m=10, noise_snr=20.0),
    ],
    ids=["matcomp", "phase"],
)
def test_builder_adjoint_dense_matches_the_oracle(build):
    # the two builders that keep adjoint_dense keep it for the benchmark's
    # dense certificate check, here at the benchmark's sizes; the oracle
    # is written from the bundle's data, not beside the kernels. The trace
    # toy has no dense map
    bundle = build()
    assert build_trace_toy().op.adjoint_dense is None
    rng = np.random.default_rng(8)
    for _ in range(3):
        p = rng.standard_normal(bundle.op.d)
        want = adjoint_dense(bundle, p)
        np.testing.assert_allclose(bundle.op.adjoint_dense(p), want, rtol=0, atol=1e-13)


def test_recovery_error_sign_invariant():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(20)
    assert recovery_error(x, x) == 0.0
    assert recovery_error(-x, x) == 0.0
    assert recovery_error(np.zeros(20), x) == pytest.approx(1.0)
    with pytest.raises(DegenerateSignal, match="zero norm"):
        recovery_error(x, np.zeros(20))


def test_recovery_error_rejects_a_size_mismatch():
    # one entry against four would broadcast to an error of 0.5
    with pytest.raises(ValueError, match="x_hat has 1 entries and x_true has 4"):
        recovery_error(np.array([0.5]), np.ones(4))


# ---------------------------------------------------------------------------
# noise injection


def test_add_noise_snr_is_exact():
    rng = np.random.default_rng(7)
    clean = rng.standard_normal(200)
    noisy = add_noise_snr(clean, 20.0, np.random.default_rng(8))
    ratio = np.linalg.norm(noisy - clean) / np.linalg.norm(clean)
    assert ratio == pytest.approx(10.0 ** (-20.0 / 20.0), rel=1e-12)


def test_add_noise_snr_infinite_is_copy():
    clean = np.arange(5, dtype=float)
    out = add_noise_snr(clean, np.inf, np.random.default_rng(0))
    np.testing.assert_array_equal(out, clean)
    assert out is not clean


@pytest.mark.parametrize("snr_db", [7000.0, 6166.0, -6165.0, -6200.0, -7000.0])
def test_add_noise_snr_rejects_ratios_out_of_float_range(snr_db):
    # 10 ** (snr_db / 20) overflows above about 6165 dB; below about -6165
    # dB it underflows to 0 or the noise scale overflows
    with pytest.raises(ValueError, match="^noise SNR .* out of float range"):
        add_noise_snr(np.ones(5), snr_db, np.random.default_rng(0))


@pytest.mark.parametrize("snr_db", [20.0, -20.0, 6165.0, -6100.0])
def test_add_noise_snr_keeps_its_bits_wherever_the_noise_is_finite(snr_db):
    clean = np.ones(5)
    noise = np.random.default_rng(0).standard_normal(5)
    scale = np.linalg.norm(clean) / (np.linalg.norm(noise) * 10.0 ** (snr_db / 20.0))
    want = clean + scale * noise
    got = add_noise_snr(clean, snr_db, np.random.default_rng(0))
    assert np.isfinite(got).all() and got.tobytes() == want.tobytes()


def test_add_noise_snr_rejects_zero_signal():
    with pytest.raises(DegenerateSignal):
        add_noise_snr(np.zeros(4), 20.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# image and instance files


def test_read_pgm_ascii_and_binary(tmp_path):
    p2 = tmp_path / "a.pgm"
    p2.write_bytes(b"P2\n# comment\n3 2\n255\n0 128 255\n64 32 16\n")
    img = read_pgm(p2)
    assert img.shape == (2, 3)
    assert img[0, 2] == pytest.approx(1.0)
    assert img[0, 1] == pytest.approx(128.0 / 255.0)

    p5 = tmp_path / "b.pgm"
    p5.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 128, 255, 64, 32, 16]))
    img5 = read_pgm(p5)
    np.testing.assert_allclose(img5, img, atol=1e-12)


def test_read_pgm_sixteen_bit(tmp_path):
    path = tmp_path / "w.pgm"
    data = np.array([[0, 65535]], dtype=">u2")
    path.write_bytes(b"P5\n2 1\n65535\n" + data.tobytes())
    img = read_pgm(path)
    np.testing.assert_allclose(img, [[0.0, 1.0]], atol=1e-12)


def test_read_pgm_truncated_raises(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 1]))
    with pytest.raises(ValueError):
        read_pgm(path)
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P7\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        read_pgm(bad)


@pytest.mark.parametrize(
    "payload, sample",
    [
        (b"P2\n2 2\n255\n1 2 300 4\n", 300),
        (b"P5\n1 1\n1000\n" + (2000).to_bytes(2, "big"), 2000),
        (b"P2\n1 1\n255\n" + b"9" * 400 + b"\n", int("9" * 400)),
    ],
    ids=["p2", "p5-16-bit", "p2-too-long-for-a-float"],
)
def test_read_pgm_rejects_sample_above_maxval(tmp_path, payload, sample):
    # a sample above maxval would read as a pixel above 1; the check comes
    # before the conversion to floats, which a long sample would overflow
    path = tmp_path / "over.pgm"
    path.write_bytes(payload)
    with pytest.raises(ValueError, match=f"bad graymap payload sample: {sample} "):
        read_pgm(path)


@pytest.mark.parametrize(
    "payload, field",
    [
        (b"P2\n1 1\n255\n" + b"9" * 5000 + b"\n", "payload sample"),
        (b"P5\n" + b"9" * 5000 + b" 1\n255\n\x00", "header width"),
    ],
    ids=["p2-sample", "header-width"],
)
def test_read_pgm_names_a_field_too_long_for_int(tmp_path, payload, field):
    # int() refuses a number of more digits than Python's conversion limit
    # with a message that names neither the file nor the field
    path = tmp_path / "long.pgm"
    path.write_bytes(payload)
    with pytest.raises(ValueError, match=f"^bad graymap {field}: 5000 digits is too long$"):
        read_pgm(path)


# the pieces of a graymap header: whitespace runs, "#" comments that end at
# a newline or at the end of the buffer, and fields, "#" inside one included
_PGM_SPACE = st.binary(min_size=1, max_size=3).map(
    lambda raw: bytes(b" \t\n\r\x0b\x0c"[c % 6] for c in raw)
)
_PGM_COMMENT = st.builds(
    lambda body, end: b"#" + body.replace(b"\n", b"") + end,
    st.binary(max_size=6),
    st.sampled_from([b"\n", b""]),
)
_PGM_FIELD = st.lists(
    st.sampled_from([b"P2", b"P5", b"#", b"12", b"x", b"\x00", b"\xff"]), min_size=1, max_size=3
).map(b"".join)


@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(st.one_of(_PGM_SPACE, _PGM_COMMENT, _PGM_FIELD), max_size=8))
def test_pgm_token_matches_the_byte_scanner(pieces):
    # read_pgm's two compiled patterns return the field and end position of
    # the byte-at-a-time reference from every start, and the same error
    # where the header runs out, inside a comment included
    buf = b"".join(pieces)
    for pos in range(len(buf) + 1):
        try:
            want = pgm_token_scan(buf, pos)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{err}$"):
                problems._pgm_token(buf, pos)
        else:
            assert problems._pgm_token(buf, pos) == want


def _write_pgm(path, pixels, maxval, binary):
    height, width = pixels.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n{maxval}\n".encode()
    if binary:
        body = pixels.astype(">u2" if maxval > 255 else "u1").tobytes()
    else:
        body = "\n".join(" ".join(map(str, row)) for row in pixels).encode() + b"\n"
    path.write_bytes(header + body)


@st.composite
def _graymaps(draw):
    maxval = draw(st.sampled_from([255, 65535]))
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6))
    pixels = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, maxval)))
    return pixels, maxval


@settings(max_examples=60, deadline=None)
@given(image=_graymaps(), binary=st.booleans())
def test_read_pgm_roundtrip(tmp_path_factory, image, binary):
    pixels, maxval = image
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    _write_pgm(path, pixels, maxval, binary)
    img = read_pgm(path)
    assert img.shape == pixels.shape
    assert img.min() >= 0.0 and img.max() <= 1.0
    np.testing.assert_array_equal(np.rint(img * maxval), pixels)
