"""The four benchmark workloads: inputs from a seed, one timed unit, its checks.

A workload expands the run seed into a fixed list of cases (instance seed,
and for the toy sweep also the algorithm). ``setup`` builds one case and
warms it up; ``execute`` is the timed unit, one solve plus its readout; and
``evaluate`` checks the unit's outputs and returns a UnitResult, outside the
timed region and outside the traced unit span.

Library entry points are looked up through their modules at call time
(``cdkit.sdp.sdp_solve``, not a local alias), so the tracer's rebinding
reaches every call the benchmark makes.
"""

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import cdkit.cli
import cdkit.core
import cdkit.problems
import cdkit.sdp

TRACE_COLUMNS = ["k", "f", "dual_cert", "cs", "eta", "theta", "wall_ms"]
CS_TOL = 1e-8  # ray complementary slackness at every visit (criterion 02)
CERT_TOL = 1e-6  # Lanczos certificate against a dense eigensolver (criterion 05)
PHASE_LIFTED_TOL = 0.1  # lifted recovery error (criterion 11)
PHASE_HIT_RATE = 0.8  # share of cases criterion 11 asks to meet PHASE_LIFTED_TOL
# a run fails the criterion when its misses would be this unlikely at that
# rate; a check is dozens of runs, so a false alarm must be rare per run
PHASE_FALSE_ALARM = 0.001


@dataclass
class UnitResult:
    """One unit's measurements; time to certificate is iter_ms[: iters_to_cert + 1]."""

    solve_s: float
    iter_ms: list
    iters_to_cert: int
    final_f: float
    final_cert: float
    recovery_err: float
    lifted_err: float = math.nan
    marks: list = None  # speed-probe count at each iteration's end, if probed inside
    # wall time to reference-speed time, for the unit and per iteration; set
    # by the run loop once the probes after the unit are known
    scale: float = 1.0
    iter_scale: list = None
    problems: list = field(default_factory=list)


def cert_crossing(certs, fraction):
    """First visit whose certificate is at most fraction * the first one, or None."""
    limit = fraction * certs[0]
    for k, c in enumerate(certs):
        if c <= limit:
            return k
    return None


def trace_problems(fs, cs, status, monotone=True):
    """Checks shared by every solve: status, finite and monotone f, ray slackness.

    monotone=False is for the scheduled step rule (mocoh), which searches
    nothing and so does not promise descent.
    """
    out = []
    if status not in ("converged", "max_iters"):
        out.append(f"status {status!r}")
    fs = np.asarray(fs, dtype=float)
    if not np.all(np.isfinite(fs)):
        out.append("non-finite objective in the trace")
    elif monotone and np.any(fs[1:] > fs[:-1] + 1e-12 * np.maximum(1.0, np.abs(fs[:-1]))):
        out.append("objective trace increases")
    worst_cs = float(np.max(np.abs(cs)))
    if not worst_cs <= CS_TOL:
        out.append(f"|cs| {worst_cs:.3e} above {CS_TOL:g}")
    return out


# ---------------------------------------------------------------------------
# semidefinite workloads


@dataclass
class SdpCase:
    seed: int
    bundle: object = None


class SdpWorkload:
    """sdp_solve on a built instance, then a factored readout of the sketch."""

    def __init__(self, builder, build_kwargs, iters, greedy_period, rank,
                 cert_fraction, cases, smoke_kwargs, smoke_iters, memory_check=False):
        self.builder = builder
        self.build_kwargs = build_kwargs
        self.iters = iters
        self.greedy_period = greedy_period
        self.rank = rank
        self.cert_fraction = cert_fraction
        self.n_cases = cases
        self.smoke_kwargs = smoke_kwargs
        self.smoke_iters = smoke_iters
        self.memory_check = memory_check
        self.smoke = False

    def configure(self, smoke):
        self.smoke = smoke
        if smoke:
            self.build_kwargs = self.smoke_kwargs
            self.iters = self.smoke_iters

    def begin(self, out_dir):
        pass

    def end(self):
        pass

    def retrace(self, case):
        # rebuilt through the hooked builder, so the bundle's oracles are traced
        self.build(case)

    def cases(self, seed):
        count = 2 if self.smoke else self.n_cases
        return [SdpCase(seed=1000 * seed + i) for i in range(count)]

    def build(self, case):
        build = getattr(cdkit.problems, self.builder)
        case.bundle = build(seed=case.seed, **self.build_kwargs)
        return case

    def setup(self, case):
        self.build(case)
        # warm-up: a two-iteration solve and a readout touch every code path
        # (LAPACK, FFT plans, allocator) before anything is timed
        self.solve(case, iters=2)
        return case

    def config(self, case, iters):
        return cdkit.core.SolverConfig(
            max_iters=iters, greedy_period=self.greedy_period, rng_seed=case.seed
        )

    def solve(self, case, iters, callback=None):
        b = case.bundle
        res = cdkit.sdp.sdp_solve(
            b.fv, b.op, gamma=b.gamma, config=self.config(case, iters),
            sketch_size=8, callback=callback,
        )
        u, lam = cdkit.sdp.sketch_reconstruct(res.sketch, self.rank)
        return res, u, lam

    def execute(self, case, probe):
        """The timed unit: one solve plus the factored readout.

        Time stamps leave out the time the speed probe (if any) spends
        inside the solver callback.
        """
        stamps = []
        marks = []
        last = {}
        paused0 = probe.paused if probe is not None else 0.0

        def callback(info):
            now = time.perf_counter()
            if probe is not None:
                now -= probe.paused - paused0
                marks.append(len(probe.samples))
                probe.maybe()
            stamps.append(now)
            last["g_avg"] = info["g_avg"]

        t0 = time.perf_counter()
        res, u, lam = self.solve(case, self.iters, callback)
        t1 = time.perf_counter()
        if probe is not None:
            t1 -= probe.paused - paused0
        return dict(
            t0=t0, t1=t1, stamps=stamps, marks=marks, g_avg=last["g_avg"],
            res=res, u=u, lam=lam,
        )

    def evaluate(self, case, raw):
        res, u, lam, t0, stamps = raw["res"], raw["u"], raw["lam"], raw["t0"], raw["stamps"]
        certs = res.trace.dual_certs()
        k_cert = cert_crossing(certs, self.cert_fraction)
        b = case.bundle
        out = UnitResult(
            solve_s=raw["t1"] - t0,
            iter_ms=list(np.diff([t0] + stamps) * 1e3),
            iters_to_cert=len(certs) if k_cert is None else k_cert,
            final_f=float(res.trace[-1].f_value),
            final_cert=float(res.certified_dual_cert),
            recovery_err=math.nan,
            marks=raw["marks"],
        )
        out.problems = trace_problems(
            res.trace.f_values(), res.trace.cs_residuals(), res.status
        )
        if b.op.n <= 100:
            dense = b.op.adjoint_dense(raw["g_avg"]) + b.gamma * np.eye(b.op.n)
            cert_dense = max(0.0, -float(np.linalg.eigvalsh(dense)[0]))
            if not abs(cert_dense - out.final_cert) <= CERT_TOL:
                out.problems.append(
                    f"certificate {out.final_cert!r} vs dense {cert_dense!r}"
                )
        if hasattr(b, "x_true"):
            x_hat = u[:, 0] * math.sqrt(max(float(lam[0]), 0.0))
            out.recovery_err = cdkit.problems.recovery_error(x_hat, b.x_true)
            out.lifted_err = lifted_error(u, lam, b.x_true[:, None])
        else:
            out.recovery_err = lifted_error(u, lam, b.v_true)
        return out

    def case_problems(self, firsts):
        """Criterion 11 over the run's cases, as a one-sided binomial test.

        The criterion asks for the lifted-error bound on 8 in 10 instances.
        At 300 iterations the error of correct solves is 0.08-0.11 and
        misses the bound on about a fifth of instances (it falls below it
        with more iterations), so a few cases cannot be held to the rate
        itself. The run fails when its misses would be less likely than
        PHASE_FALSE_ALARM for a solver that meets the rate.
        """
        lifted = {ci: r.lifted_err for ci, r in firsts.items() if not math.isnan(r.lifted_err)}
        misses = sum(e > PHASE_LIFTED_TOL for e in lifted.values())
        if binomial_tail(len(lifted), misses, 1.0 - PHASE_HIT_RATE) >= PHASE_FALSE_ALARM:
            return {}
        return {
            ci: [f"lifted error {e:.4f} above {PHASE_LIFTED_TOL:g} on {misses}"
                 f" of {len(lifted)} cases"]
            for ci, e in lifted.items()
            if e > PHASE_LIFTED_TOL
        }

    def peak_traced_bytes(self, case):
        """tracemalloc peak of one short solve, as criterion 13 measures it."""
        import gc
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self.solve(case, iters=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - base


def binomial_tail(n, k, p):
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k, n + 1))


def lifted_error(u, lam, v):
    """||u diag(lam) u^T - v v^T||_F / ||v v^T||_F without forming either matrix."""
    vtv = np.linalg.norm(v.T @ v)
    cross = np.linalg.norm((u * np.sqrt(np.maximum(lam, 0.0))).T @ v)
    sq = float(np.sum(lam**2)) + vtv**2 - 2.0 * cross**2
    return math.sqrt(max(sq, 0.0)) / vtv


# ---------------------------------------------------------------------------
# orthant toy through the command-line layer


@dataclass
class ToyCase:
    seed: int
    algo: str
    prefix: str = ""
    bundle: object = None


class ToySweep:
    """cli.run_experiment on the orthant toy, one seed per case, cycling algos."""

    algos = ("cd", "moco", "mocoh")

    memory_check = False

    def __init__(self, dim, iters, cert_fraction, cases):
        self.dim = dim
        self.iters = iters
        self.cert_fraction = cert_fraction
        self.n_cases = cases
        self.out_dir = None
        self.smoke = False
        self.captured = []

    def configure(self, smoke):
        self.smoke = smoke
        if smoke:
            self.dim, self.iters = 6, 20

    def cases(self, seed):
        count = 3 if self.smoke else self.n_cases
        return [
            ToyCase(seed=1000 * seed + i // 3, algo=self.algos[i % 3])
            for i in range(count)
        ]

    def begin(self, out_dir):
        self.out_dir = out_dir
        self._solve = cdkit.cli.solve
        cdkit.cli.solve = self.tap

    def end(self):
        cdkit.cli.solve = self._solve

    def retrace(self, case):
        pass

    def setup(self, case):
        case.prefix = os.path.join(self.out_dir, f"c{case.seed}.{case.algo}")
        # the benchmark's own copy of the instance supplies x* and f*
        case.bundle = cdkit.problems.build_orthant_quadratic(dim=self.dim, seed=case.seed)
        cdkit.core.solve(case.bundle.program, cdkit.core.SolverConfig(max_iters=2))
        return case

    def tap(self, *args, **kwargs):
        # pass-through on cdkit.cli.solve: run_experiment keeps the final point
        # to itself, and the recovery error needs it
        res = cdkit.core.solve(*args, **kwargs)
        self.captured.append(res)
        return res

    def execute(self, case, probe):
        """The timed unit: one run_experiment call, files included.

        A unit is short, so the speed probe runs between units only.
        """
        spec = cdkit.cli.RunSpec(
            command="toy", algo=case.algo, seed=case.seed, iters=self.iters,
            dim=self.dim, prefix=case.prefix,
        )
        self.captured.clear()
        t0 = time.perf_counter()
        summary = cdkit.cli.run_experiment(spec)
        t1 = time.perf_counter()
        (res,) = self.captured
        return dict(t0=t0, t1=t1, summary=summary, res=res)

    def evaluate(self, case, raw):
        summary, res = raw["summary"], raw["res"]
        rows, columns = read_trace_csv(f"{case.prefix}.trace.csv")
        wall = [float(r["wall_ms"]) for r in rows]
        certs = [float(r["dual_cert"]) for r in rows]
        fs = [float(r["f"]) for r in rows]
        k_cert = cert_crossing(certs, self.cert_fraction)
        bundle = case.bundle
        out = UnitResult(
            solve_s=raw["t1"] - raw["t0"],
            iter_ms=list(np.diff([0.0] + wall)),
            iters_to_cert=len(certs) if k_cert is None else k_cert,
            # the toy's optimum is known (and negative): report the gap to it
            final_f=float(summary["final_f"]) - bundle.f_star,
            final_cert=float(summary["final_dual_cert"]),
            recovery_err=float(
                np.linalg.norm(res.final_point - bundle.x_star)
                / np.linalg.norm(bundle.x_star)
            ),
        )
        out.problems = trace_problems(
            fs, [float(r["cs"]) for r in rows], res.status, monotone=case.algo != "mocoh"
        )
        if columns != TRACE_COLUMNS:
            out.problems.append(f"trace columns {columns}")
        if fs != list(res.trace.f_values()):
            out.problems.append("trace csv does not parse back to the solver trace")
        with open(f"{case.prefix}.summary.json") as fh:
            if json.load(fh) != summary:
                out.problems.append("summary json does not parse back")
        f_star = bundle.f_star
        if not summary["final_f"] >= f_star - 1e-9 * max(1.0, abs(f_star)):
            out.problems.append(f"f {summary['final_f']!r} below f* {f_star!r}")
        return out

    def case_problems(self, firsts):
        return {}


def read_trace_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        return rows, reader.fieldnames


# ---------------------------------------------------------------------------
# the benchmark's workload table

WORKLOADS = {
    "matcomp-greedy": lambda: SdpWorkload(
        "build_matcomp",
        dict(n=100, rank=3, block=10, density=0.1, noise_snr=20.0),
        iters=300, greedy_period=20, rank=3, cert_fraction=0.004, cases=4,
        smoke_kwargs=dict(n=24, rank=2, block=4, density=0.3, noise_snr=20.0),
        smoke_iters=20,
    ),
    "phase-greedy": lambda: SdpWorkload(
        "build_phase_retrieval",
        dict(n=64, m=10, noise_snr=20.0),
        iters=300, greedy_period=20, rank=1, cert_fraction=0.005, cases=5,
        smoke_kwargs=dict(n=16, m=12, noise_snr=20.0),
        smoke_iters=40,
    ),
    "matcomp-large": lambda: SdpWorkload(
        "build_matcomp",
        dict(n=2000, rank=3, density=0.1),
        iters=30, greedy_period=0, rank=3, cert_fraction=0.07, cases=8,
        # large enough that the Lanczos basis (n x 200) is not itself n x n
        smoke_kwargs=dict(n=600, rank=3, density=0.1),
        smoke_iters=4, memory_check=True,
    ),
    "orthant-sweep": lambda: ToySweep(
        dim=20, iters=300, cert_fraction=0.01, cases=300,
    ),
}
