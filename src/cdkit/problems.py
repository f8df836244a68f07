"""Problem builders for the bundled experiments.

Each builder returns a small bundle holding the objective, the measurement
operator where one applies, and whatever ground truth the construction knows
(planted solutions, optimal values, sensible smoothness constants), so runs
can be checked against independent quantities instead of solver output.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .cones import NonnegativeOrthant
from .core import ConicProgram
from .exceptions import DegenerateSignal, _check_count, _check_real
from .sdp import MeasurementOperator, _gram_cols


def _scaled_sq_norm_program(b, coeff):
    # f(y) = coeff * ||y - b||^2 of the measurement image y = apply(X), with
    # exact quadratic restrictions. The program reads b where it lies and
    # marks it read-only, so a bundle shares its one b with the objective
    # and a write to either raises ValueError instead of moving the optimum
    b = np.asarray(b, dtype=float)
    b.flags.writeable = False

    def value(y):
        r = np.asarray(y, dtype=float) - b
        return coeff * float(np.vdot(r, r))

    def gradient(y):
        # the residual scaled in place: the product (2 coeff) r of the
        # written-out formula, with one d-vector allocated, not two
        r = np.asarray(y, dtype=float) - b
        r *= 2.0 * coeff
        return r

    def restriction(base, direction):
        base = np.asarray(base, dtype=float) - b
        direction = np.asarray(direction, dtype=float)
        return (
            coeff * float(np.vdot(direction, direction)),
            2.0 * coeff * float(np.vdot(base, direction)),
        )

    return ConicProgram(
        dim=b.size,
        value_oracle=value,
        gradient_oracle=gradient,
        restriction_oracle=restriction,
    )


# ---------------------------------------------------------------------------
# nonnegative orthant quadratics with a planted optimum


@dataclass
class OrthantQuadratic:
    program: ConicProgram
    quad: np.ndarray
    lin: np.ndarray
    x_star: np.ndarray
    f_star: float
    lipschitz: float


def build_orthant_quadratic(dim=20, seed=0):
    """Strongly convex quadratic over the nonnegative orthant.

    The optimum is planted: pick x_star supported on a random set of
    max(1, dim // 3) indices, pick nonnegative slacks off the support, and
    back out the linear term so the gradient at x_star equals the slack
    vector. That makes x_star satisfy the optimality conditions exactly, with
    known optimal value. A dim that is not an int >= 1, or a seed that is
    not an int >= 0, raises ValueError.
    """
    _check_count("dim", dim, 1)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    quad = m @ m.T / dim + 0.1 * np.eye(dim)
    size = max(1, dim // 3)
    order = rng.permutation(dim)
    x_star = np.zeros(dim)
    x_star[order[:size]] = np.abs(rng.standard_normal(size)) + 0.1
    slack = np.zeros(dim)
    slack[order[size:]] = np.abs(rng.standard_normal(dim - size))
    lin = quad @ x_star - slack

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ quad @ x) - float(lin @ x)

    def gradient(x):
        return quad @ np.asarray(x, dtype=float) - lin

    def restriction(base, direction):
        base = np.asarray(base, dtype=float)
        direction = np.asarray(direction, dtype=float)
        qd = quad @ direction
        return 0.5 * float(direction @ qd), float(base @ qd) - float(lin @ direction)

    program = ConicProgram(
        dim=dim,
        value_oracle=value,
        gradient_oracle=gradient,
        cone=NonnegativeOrthant(dim),
        restriction_oracle=restriction,
    )
    return OrthantQuadratic(
        program=program,
        quad=quad,
        lin=lin,
        x_star=x_star,
        f_star=value(x_star),
        lipschitz=float(np.linalg.eigvalsh(quad)[-1]),
    )


# ---------------------------------------------------------------------------
# trace-targeting toy semidefinite instance


@dataclass
class TraceToy:
    fv: ConicProgram
    op: MeasurementOperator
    target: float
    f_star: float


def build_trace_toy(n=2, target=1.0):
    """One measurement, the trace: min (1/2)(tr X - target)^2 over psd X.

    Any psd matrix with trace equal to target is optimal, so the optimal
    value is 0 and the minimal nuclear radius of a solution is the target
    itself. Useful as the smallest instance where a trace-bounded feasible
    set with too small a bound visibly changes the answer. An n that is not
    an int >= 1, or a target that is not a number in (0, inf), raises
    ValueError.
    """
    _check_count("n", n, 1)
    _check_real("target", target, "(0, inf)")

    def gram(q):
        return np.array([float(np.vdot(q, q))])

    def adjoint_matvec(p, u):
        return float(p[0]) * u

    op = MeasurementOperator(n=n, d=1, gram=gram, adjoint_matvec=adjoint_matvec)
    fv = _scaled_sq_norm_program([target], 0.5)
    return TraceToy(fv=fv, op=op, target=float(target), f_star=0.0)


# ---------------------------------------------------------------------------
# low-rank matrix completion


@dataclass
class MatrixCompletion:
    """A completion instance. The mask is held once, in the CSR form the
    operator reads: row_counts[i] observed entries in row i, at the columns
    col_idx, in row order. row_idx is derived from the counts on each
    access; b is shared with fv and read-only."""

    fv: ConicProgram
    op: MeasurementOperator
    gamma: float
    v_true: np.ndarray
    b: np.ndarray
    row_counts: np.ndarray
    col_idx: np.ndarray

    @property
    def row_idx(self):
        return _mask_rows(self.row_counts)


def _mask_rows(counts):
    # the int32 row index of every observed entry, in mask order
    return np.repeat(np.arange(counts.size, dtype=np.int32), counts)


# The mask's uniforms are drawn for whole rows at a time, at most this many
# per draw (a longer row is drawn alone), so no buffer grows with n^2
_MASK_DRAWS = 1 << 16


def _matcomp_mask(n, block, density, rng):
    # Upper-triangle sampling: row i draws n - i uniforms, one per column
    # j >= i, and keeps the columns whose draw is below density; the leading
    # block-by-block corner is always observed. One draw of several rows'
    # uniforms gives the same values as drawing them row by row, so the
    # mask and the generator's state are those of a row-by-row loop. The
    # mask comes back in CSR form: each row's count of kept draws (intp)
    # and the int32 column of every kept draw, in row order. starts holds
    # the offset of each row's first draw in the whole sequence
    starts = np.arange(n + 1, dtype=np.int64)
    starts = starts * n - starts * (starts - 1) // 2
    row_counts = []
    cols = []
    i = 0
    while i < n:
        end = int(np.searchsorted(starts, starts[i] + _MASK_DRAWS, side="right")) - 1
        end = max(end, i + 1)
        local = starts[i : end + 1] - starts[i]
        keep = rng.random(int(local[-1])) < density
        # at most block rows observe the corner
        for r in range(i, min(end, block)):
            keep[local[r - i] : local[r - i] + block - r] = True
        # a row's kept draws lie between its start and the next row's, and
        # row r's draw at offset t is column r + t
        flat = np.flatnonzero(keep)
        counts = np.diff(np.searchsorted(flat, local))
        rows = np.arange(i, end, dtype=np.int32)
        row_counts.append(counts)
        cols.append((flat - np.repeat(local[:-1] - rows, counts)).astype(np.int32))
        i = end
    return np.concatenate(row_counts), np.concatenate(cols)


def build_matcomp(n=100, rank=3, seed=0, block=10, density=0.1, noise_snr=None):
    """Symmetric matrix completion from a partial entry mask.

    The ground truth is v v^T for an n-by-rank Gaussian factor v. Observed
    entries are the symmetrized coordinate measurements (so each observation
    reads (X_ij + X_ji) / 2), and the objective is half the squared residual
    of the image y = apply(X) to the observation vector b, so f = 0 at a
    perfect fit. The clean b is the image of v v^T as the refit maps a
    factor: op.gram of each column of v, added in column order. The bundle's
    gamma, the default trace penalty, is 0. It holds each length-d array
    once: b (read-only, shared with fv) and the mask as row_counts and
    col_idx; row_idx is derived on access. An n or rank that is not an
    int >= 1, a seed that is not an int >= 0, a block that is not an int in
    [0, n] or a density that is not a number in (0, 1] raises ValueError.
    """
    _check_count("n", n, 1)
    _check_count("rank", rank, 1)
    _check_count("seed", seed, 0)
    _check_count("block", block, 0)
    if block > n:
        raise ValueError(f"block must lie in [0, n] = [0, {n}], got {block!r}")
    _check_real("density", density, "(0, 1]")
    rng = np.random.default_rng(seed)
    v_true = rng.standard_normal((n, rank))
    # The mask is drawn straight into row counts and col_idx; no row index
    # is built. The counts are intp, which np.repeat reads without a
    # conversion. The column indices stay int32, the index type of the
    # compiled kernels below, which read them beside int32 row pointers
    # with no cast; intp would add 1.6 MB per bundle at n = 2000 (d about
    # 200k)
    counts, col_idx = _matcomp_mask(n, block, density, rng)
    d = col_idx.size

    # The mask comes in CSR order (rows in order, col_idx rising within a
    # row), so (p, col_idx, indptr) is an upper-triangular U in CSR
    # form and, read as CSC, its transpose. The compiled kernels of scipy's
    # private _sparsetools module read these int32 arrays where they lie,
    # with no cast to intp per call. The module, and scipy.sparse with it,
    # is imported here, by the first completion instance of a process; the
    # closures below hold it, so no call imports anything, and a scipy
    # without the module fails this builder alone
    from scipy.sparse import _sparsetools

    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])

    # q[row_idx] is q_i repeated once per entry of row i, and the column
    # factor scales it in place: csr_scale_columns multiplies entry k by
    # q[col_idx[k]], the same product a gathered copy would give, so a call
    # allocates only its output. The kernel reads q through a raw pointer,
    # which is sound because the operator hands every kernel a C-contiguous
    # float64 vector of the checked shape
    def gram(q):
        image = q.repeat(counts)
        _sparsetools.csr_scale_columns(n, n, indptr, col_idx, image, q)
        return image

    # G^*(p) = (U + U^T) / 2, and G^*(p) u is (U u + U^T u) / 2, each product
    # computed by a compiled kernel into its own zeroed output. Each kernel
    # adds the products p_k u_j of an output entry in mask order, as two
    # weighted bincounts over the mask do (the tests' reference), so the sum
    # is the same to the bit; one shared output would not be. Halving the
    # sum at the end, in place of p first, gives the same bits too: a factor
    # of 0.5 commutes exactly with every product and sum outside the
    # subnormal and overflow ranges. So a call reads p where it lies and
    # allocates only two outputs of the size of u, never an O(d) temporary
    # or an n x n matrix. The kernels read p and u through raw pointers, as
    # the C-contiguous float64 vectors of the checked shapes that the
    # operator hands them. The private module skips building a csr_array,
    # which costs more per call than the whole product at n = 100.
    def adjoint_matvec(p, u):
        upper = np.zeros(n)
        lower = np.zeros(n)
        args = (n, n, indptr, col_idx, p, u)
        _sparsetools.csr_matvec(*args, upper)
        _sparsetools.csc_matvec(*args, lower)
        upper += lower
        upper *= 0.5
        return upper

    op = MeasurementOperator(n=n, d=d, gram=gram, adjoint_matvec=adjoint_matvec)
    b = _gram_cols(op, v_true)
    if noise_snr is not None:
        b = add_noise_snr(b, noise_snr, rng)
    fv = _scaled_sq_norm_program(b, 0.5)
    return MatrixCompletion(
        fv=fv,
        op=op,
        gamma=0.0,
        v_true=v_true,
        b=b,
        row_counts=counts,
        col_idx=col_idx,
    )


# ---------------------------------------------------------------------------
# phase retrieval from signed cosine-transform magnitudes


@dataclass
class PhaseRetrieval:
    fv: ConicProgram
    op: MeasurementOperator
    gamma: float
    x_true: np.ndarray
    b: np.ndarray
    signs: np.ndarray
    m_estimate: float


def build_phase_retrieval(n=64, m=10, seed=0, noise_snr=None, signal=None):
    """Recover a signal from squared signed-DCT measurements, lifted to psd.

    Each of the m masks flips signs entrywise before an orthonormal cosine
    transform; only squared transform coefficients are observed. Lifting
    X = x x^T turns the intensities into linear measurements of X. Because
    each mask is orthogonal, the measurements of one mask sum to ||x||^2, so
    the mean of the observation vector over masks estimates the trace of the
    lifted solution; that estimate is what the pre-scheduled step rule uses.
    The clean b is the operator's own image of x x^T: op.gram of the
    unit-norm x_true. The bundle's gamma, the default trace penalty, is
    5e-5. An m that is not an int >= 1, a seed that is not an int >= 0, an
    n (the signal's length when one is given) that is not an int >= 2, or a
    signal with a NaN or infinite entry, raises ValueError.
    """
    _check_count("m", m, 1)
    _check_count("seed", seed, 0)
    if signal is not None:
        x_true = np.asarray(signal, dtype=float).ravel()
        if not np.isfinite(x_true).all():
            raise ValueError("signal has a NaN or infinite entry")
        n = x_true.size
    _check_count("n", n, 2)
    rng = np.random.default_rng(seed)
    signs = (rng.integers(0, 2, size=(m, n)) * 2 - 1).astype(float)
    if signal is None:
        x_true = rng.standard_normal(n)
    nrm = float(np.linalg.norm(x_true))
    if nrm == 0.0:
        raise DegenerateSignal("signal has zero norm")
    x_true = x_true / nrm
    d = m * n

    # The kernels call pocketfft's orthonormal DCT (type 2 forward, type 3
    # inverse) from scipy's private pypocketfft module, with the arguments
    # scipy.fft passes it, but without scipy.fft's dispatch layers, which
    # cost more than the transform itself at n = 64. The module, and
    # scipy.fft with it, is imported here, by the first phase instance of a
    # process; the closures hold it, so no call imports anything and a
    # scipy without the module fails this builder alone
    from scipy.fft._pocketfft import pypocketfft

    def transform(a, kind):
        # transforms each row of a in place, so callers pass a fresh temporary
        return pypocketfft.dct(a, kind, (1,), 1, a, 1)

    # Both kernels transform all m masks in one call over an (m, n) block.
    # The adjoint sums the masks over the leading axis, which numpy adds in
    # loop order, so it equals the one-mask loop bit for bit
    def gram(q):
        a = transform(signs * q[None, :], 2)
        return (a * a).ravel()

    def adjoint_matvec(p, u):
        t = transform(signs * u[None, :], 2)
        t *= p.reshape(m, n)
        return (signs * transform(t, 3)).sum(axis=0)

    op = MeasurementOperator(n=n, d=d, gram=gram, adjoint_matvec=adjoint_matvec)
    # the noise, if any, is the generator's last draw, after the masks and
    # the signal
    b = op.gram(x_true)
    if noise_snr is not None:
        b = add_noise_snr(b, noise_snr, rng)
    fv = _scaled_sq_norm_program(b, 1.0 / d)
    return PhaseRetrieval(
        fv=fv,
        op=op,
        gamma=5e-5,
        x_true=x_true,
        b=b,
        signs=signs,
        m_estimate=float(b.sum() / m),
    )


def recovery_error(x_hat, x_true):
    """Relative signal error up to global sign.

    Signals of different sizes raise ValueError, rather than broadcast.
    """
    x_hat = np.asarray(x_hat, dtype=float).ravel()
    x_true = np.asarray(x_true, dtype=float).ravel()
    if x_hat.size != x_true.size:
        raise ValueError(f"x_hat has {x_hat.size} entries and x_true has {x_true.size}")
    nrm = float(np.linalg.norm(x_true))
    if nrm == 0.0:
        raise DegenerateSignal("reference signal has zero norm")
    return (
        min(
            float(np.linalg.norm(x_hat - x_true)),
            float(np.linalg.norm(x_hat + x_true)),
        )
        / nrm
    )


# ---------------------------------------------------------------------------
# noise and images


def add_noise_snr(clean, snr_db, rng):
    """Additive Gaussian noise scaled to hit the requested SNR exactly.

    The noise draw is rescaled after the fact so that
    ||noise|| / ||clean|| = 10 ** (-snr_db / 20) holds as written, rather
    than only in expectation. snr_db = +inf returns an unchanged copy; an
    snr_db that is not a number in (-inf, inf], NaN included, raises
    ValueError, and so does one so far from 0 dB (about 6165 dB either way)
    that the ratio or the noisy data leave the float range.
    """
    clean = np.asarray(clean, dtype=float)
    snr_db = _check_real("noise SNR", snr_db, "(-inf, inf]")
    if snr_db == math.inf:
        return clean.copy()
    nrm = float(np.linalg.norm(clean))
    if nrm == 0.0:
        raise DegenerateSignal("cannot scale noise against an all-zero signal")
    noise = rng.standard_normal(clean.shape)
    noise_nrm = float(np.linalg.norm(noise))
    try:
        scale = nrm / (noise_nrm * 10.0 ** (snr_db / 20.0))
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    # an overflow is reported below, as the noise SNR's error
    with np.errstate(over="ignore"):
        noisy = clean + scale * noise
    if not np.isfinite(noisy).all():
        raise ValueError(f"noise SNR {snr_db!r} dB puts the noisy data out of float range")
    return noisy


# the whitespace and comments before a graymap header field, and the field;
# a bytes pattern's \s is the set bytes.isspace() accepts
_PGM_GAP = re.compile(rb"(?:\s|#[^\n]*)*")
_PGM_FIELD = re.compile(rb"\S*")


def _pgm_token(buf, pos):
    start = _PGM_GAP.match(buf, pos).end()
    pos = _PGM_FIELD.match(buf, start).end()
    if start == pos:
        raise ValueError("truncated image header")
    return buf[start:pos], pos


def _pgm_int(token, what):
    # PGM writes each header field and P2 sample as a decimal integer; the
    # messages show at most 20 bytes of a token, which may be a whole file
    if not token.isdigit():
        raise ValueError(f"bad graymap {what}: {token[:20]!r} is not a nonnegative integer")
    try:
        return int(token)
    except ValueError:  # more digits than Python converts to an int
        raise ValueError(f"bad graymap {what}: {len(token)} digits is too long") from None


def read_pgm(path):
    """Load an ASCII (P2) or binary (P5) graymap, scaled to [0, 1] floats.

    A malformed header or payload, or a sample above maxval, raises
    ValueError.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _pgm_token(buf, 0)
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"not a graymap file (magic {magic!r})")
    header = []
    for name in ("width", "height", "maxval"):
        token, pos = _pgm_token(buf, pos)
        header.append(_pgm_int(token, f"header {name}"))
    width, height, maxval = header
    if width <= 0 or height <= 0 or not 0 < maxval < 65536:
        raise ValueError("bad graymap dimensions")
    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the payload
        pos += 1
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        if len(buf) - pos < count * dtype.itemsize:
            raise ValueError("truncated image payload")
        arr = np.frombuffer(buf, dtype=dtype, count=count, offset=pos)
    else:
        fields = buf[pos:].split()
        if len(fields) < count:
            raise ValueError("truncated image payload")
        # Python ints until checked: a long sample does not fit a float
        arr = [_pgm_int(t, "payload sample") for t in fields[:count]]
    top = int(np.max(arr))
    if top > maxval:
        raise ValueError(f"bad graymap payload sample: {top} is above maxval {maxval}")
    return np.reshape(arr, (height, width)).astype(float) / maxval
