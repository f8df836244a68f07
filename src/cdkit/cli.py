"""Command line harness for the bundled experiments.

Usage sketches:

    cdkit toy --algo moco --iters 200 --prefix out/toy
    cdkit matcomp --n 100 --algo mocog --greedy-every 20 --prefix out/mc
    cdkit phase --n 64 --m 10 --algo mocoh --prefix out/ph
    cdkit phase --seeds 0,1,2,3 --jobs 4 --prefix out/sweep

Every run writes <prefix>.trace.csv (one row per recorded iteration) and
<prefix>.summary.json (resolved configuration, final values, oracle call
counts). Phase runs additionally write <prefix>.factor.npz with the factored
reconstruction read out of the sketch.

Option precedence, lowest to highest: built-in defaults, then key=value
lines from --config, then explicit command line flags, then the CDK_SEED
environment variable (which overrides the seed no matter where it came
from, including a --seeds list). Reruns with identical resolved settings
produce identical outputs except for wall-clock columns and fields.

Exit codes: 0 on success, 2 for unusable arguments or degenerate input
data (any ValueError a solve raises, such as a dimension mismatch), 3 when
the solver or a numeric routine fails, 4 for I/O failures.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .core import SolverConfig, solve
from .exceptions import DegenerateSignal, RankTooLarge, SolverError
from .problems import (
    build_matcomp,
    build_orthant_quadratic,
    build_phase_retrieval,
    dump_instance,
    read_pgm,
    recovery_error,
)
from .sdp import fw_solve, save_factor, sdp_solve, sketch_reconstruct

_VECTOR_ALGOS = ("cd", "moco", "mocoh")
_SDP_ALGOS = ("cd", "moco", "mocog", "mocoh", "fw")


@dataclasses.dataclass
class RunSpec:
    """Fully resolved settings for one experiment run."""

    command: str
    algo: str = "moco"
    seed: int = 0
    iters: int = 300
    tol: float = 0.0
    prefix: str = "run"
    trace_every: int = 1
    dim: int = 20
    n: int = 100
    m: int = 10
    rank: int = 3
    density: float = 0.1
    block: int = 10
    noise_snr: float | None = None
    gamma: float | None = None
    sketch: int | None = None
    greedy_every: int = 20
    heuristic_m: float | None = None
    trace_bound: float | None = None
    image: str | None = None
    recon_rank: int = 1
    dump_to: str | None = None


class UsageError(Exception):
    """Raised for settings that cannot be run; maps to exit code 2."""


_INT_KEYS = {
    "seed", "iters", "trace_every", "dim", "n", "m", "rank", "block",
    "sketch", "greedy_every", "recon_rank",
}
_FLOAT_KEYS = {"tol", "density", "noise_snr", "gamma", "heuristic_m", "trace_bound"}
_STR_KEYS = {"algo", "prefix", "image", "dump_to", "seeds"}


def _parse_config_file(path):
    pairs = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            val = val.strip()
            if key in _INT_KEYS:
                try:
                    pairs[key] = int(val)
                except ValueError:
                    raise UsageError(f"{path}:{lineno}: {key} needs an integer")
            elif key in _FLOAT_KEYS:
                try:
                    pairs[key] = float(val)
                except ValueError:
                    raise UsageError(f"{path}:{lineno}: {key} needs a number")
            elif key in _STR_KEYS:
                pairs[key] = val
            else:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
    return pairs


def _parse_seed_list(text):
    try:
        seeds = [int(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"bad seed list {text!r}")
    if not seeds:
        raise UsageError("empty seed list")
    return seeds


def resolve(args, env=None):
    """Merge defaults, config file, flags, and CDK_SEED into run specs.

    Returns (specs, jobs): one spec per requested seed.
    """
    env = os.environ if env is None else env
    spec = RunSpec(command=args.command)
    config_pairs = {}
    if args.config is not None:
        config_pairs = _parse_config_file(args.config)
    cli_pairs = {
        key: val
        for key, val in vars(args).items()
        if key not in ("command", "config", "seeds", "jobs") and val is not None
    }
    seeds = None
    if "seeds" in config_pairs:
        seeds = _parse_seed_list(config_pairs.pop("seeds"))
    for source in (config_pairs, cli_pairs):
        for key, val in source.items():
            if not hasattr(spec, key):
                raise UsageError(f"option {key!r} does not apply to {args.command}")
            setattr(spec, key, val)
    if args.seeds is not None:
        seeds = _parse_seed_list(args.seeds)
    if "CDK_SEED" in env:
        try:
            seeds = [int(env["CDK_SEED"])]
        except ValueError:
            raise UsageError(f"CDK_SEED must be an integer, got {env['CDK_SEED']!r}")
    if seeds is None:
        seeds = [spec.seed]
    jobs = args.jobs if args.jobs is not None else 1
    if jobs < 1:
        raise UsageError("--jobs must be at least 1")
    specs = []
    for seed in seeds:
        one = dataclasses.replace(spec, seed=seed)
        if len(seeds) > 1:
            one.prefix = f"{spec.prefix}.s{seed}"
        validate(one)
        specs.append(one)
    return specs, jobs


def validate(spec):
    allowed = _VECTOR_ALGOS if spec.command == "toy" else _SDP_ALGOS
    if spec.algo not in allowed:
        raise UsageError(
            f"algo {spec.algo!r} is not available for {spec.command} "
            f"(choose from {', '.join(allowed)})"
        )
    if spec.iters < 1:
        raise UsageError("iters must be at least 1")
    if spec.tol < 0.0:
        raise UsageError("tol must be nonnegative")
    if spec.trace_every < 1:
        raise UsageError("trace-every must be at least 1")
    if spec.command == "toy" and spec.dim < 1:
        raise UsageError("dim must be at least 1")
    if spec.command == "matcomp":
        if spec.n < 1 or spec.rank < 1:
            raise UsageError("n and rank must be at least 1")
        if not 0.0 < spec.density <= 1.0:
            raise UsageError("density must lie in (0, 1]")
        if spec.block < 0 or spec.block > spec.n:
            raise UsageError("block must lie in [0, n]")
        if spec.algo == "fw" and spec.trace_bound is None:
            raise UsageError("fw on matcomp needs --trace-bound")
        if spec.algo == "mocoh" and spec.heuristic_m is None:
            raise UsageError("mocoh on matcomp needs --heuristic-m")
    if spec.command == "phase":
        if spec.n < 2 or spec.m < 1:
            raise UsageError("phase needs n >= 2 and m >= 1")
        sketch = spec.sketch if spec.sketch is not None else 8
        if spec.recon_rank < 1 or spec.recon_rank >= sketch - 1:
            raise UsageError("recon-rank must lie in [1, sketch - 2]")
    if spec.sketch is not None and spec.sketch < 2:
        raise UsageError("sketch must be at least 2")
    if spec.heuristic_m is not None and spec.heuristic_m <= 0.0:
        raise UsageError("heuristic-m must be positive")
    if spec.trace_bound is not None and spec.trace_bound <= 0.0:
        raise UsageError("trace-bound must be positive")
    if spec.greedy_every < 1:
        raise UsageError("greedy-every must be at least 1")


def _solver_config(spec, heuristic_m):
    mode = "cd" if spec.algo == "cd" else "moco"
    rule = "heuristic" if spec.algo == "mocoh" else "line_search"
    period = spec.greedy_every if spec.algo == "mocog" else 0
    return SolverConfig(
        max_iters=spec.iters,
        tol_eps=spec.tol,
        momentum_mode=mode,
        step_rule=rule,
        heuristic_m=heuristic_m,
        greedy_period=period,
        rng_seed=spec.seed,
        trace_every=spec.trace_every,
    )


@functools.cache
def _build_stamp():
    # one stamp per process: the modules it describes are loaded only once
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


def _base_summary(spec, result):
    stats = {
        key: val
        for key, val in result.stats.items()
        if key != "greedy_events"
    }
    last = result.trace[-1]
    return {
        "config": dataclasses.asdict(spec),
        "build": _build_stamp(),
        "status": result.status,
        "iters_run": int(last.k),
        "final_f": float(last.f_value),
        "final_dual_cert": float(result.certified_dual_cert),
        "wall_ms_total": float(last.wall_ms),
        "stats": stats,
    }


def run_experiment(spec):
    """Execute one resolved run and write its output files.

    Returns the summary dict that was written to <prefix>.summary.json.
    """
    if spec.command == "toy":
        summary = _run_toy(spec)
    elif spec.command == "matcomp":
        summary = _run_matcomp(spec)
    elif spec.command == "phase":
        summary = _run_phase(spec)
    else:
        raise UsageError(f"unknown command {spec.command!r}")
    with open(f"{spec.prefix}.summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _run_toy(spec):
    bundle = build_orthant_quadratic(dim=spec.dim, seed=spec.seed)
    heuristic_m = spec.heuristic_m
    if spec.algo == "mocoh" and heuristic_m is None:
        heuristic_m = float(np.linalg.norm(bundle.x_star))
    config = _solver_config(spec, heuristic_m)
    result = solve(bundle.program, config)
    result.trace.write_csv(f"{spec.prefix}.trace.csv")
    summary = _base_summary(spec, result)
    summary["f_star_known"] = float(bundle.f_star)
    summary["gap_to_known"] = float(result.trace[-1].f_value - bundle.f_star)
    if spec.dump_to is not None:
        dump_instance(
            spec.dump_to,
            "orthant_quadratic",
            {
                "quad": bundle.quad,
                "lin": bundle.lin,
                "x_star": bundle.x_star,
                "seed": np.array(spec.seed),
            },
        )
    return summary


def _run_matcomp(spec):
    gamma = spec.gamma if spec.gamma is not None else 0.0
    bundle = build_matcomp(
        n=spec.n,
        rank=spec.rank,
        seed=spec.seed,
        block=spec.block,
        density=spec.density,
        noise_snr=spec.noise_snr,
        gamma=gamma,
    )
    config = _solver_config(spec, spec.heuristic_m)
    if spec.algo == "fw":
        result = fw_solve(
            bundle.fv,
            bundle.op,
            tau=spec.trace_bound,
            gamma=gamma,
            config=config,
            sketch_size=spec.sketch,
        )
    else:
        result = sdp_solve(
            bundle.fv,
            bundle.op,
            gamma=gamma,
            config=config,
            sketch_size=spec.sketch,
        )
    result.trace.write_csv(f"{spec.prefix}.trace.csv")
    summary = _base_summary(spec, result)
    summary["final_trace"] = float(result.final_tr)
    summary["final_lambda_min"] = float(result.final_lambda)
    summary["n_observed"] = int(bundle.op.d)
    if spec.dump_to is not None:
        dump_instance(
            spec.dump_to,
            "matcomp",
            {
                "row_idx": bundle.row_idx,
                "col_idx": bundle.col_idx,
                "b": bundle.b,
                "v_true": bundle.v_true,
                "seed": np.array(spec.seed),
            },
        )
    return summary


def _run_phase(spec):
    signal = None
    if spec.image is not None:
        signal = read_pgm(spec.image).ravel()
    gamma = spec.gamma if spec.gamma is not None else 5e-5
    bundle = build_phase_retrieval(
        n=spec.n,
        m=spec.m,
        seed=spec.seed,
        noise_snr=spec.noise_snr,
        gamma=gamma,
        signal=signal,
    )
    sketch_size = spec.sketch if spec.sketch is not None else 8
    heuristic_m = spec.heuristic_m
    if spec.algo == "mocoh" and heuristic_m is None:
        heuristic_m = bundle.m_estimate
    trace_bound = spec.trace_bound
    if spec.algo == "fw" and trace_bound is None:
        trace_bound = 2.0 * bundle.m_estimate
    config = _solver_config(spec, heuristic_m)
    if spec.algo == "fw":
        result = fw_solve(
            bundle.fv,
            bundle.op,
            tau=trace_bound,
            gamma=gamma,
            config=config,
            sketch_size=sketch_size,
        )
    else:
        result = sdp_solve(
            bundle.fv,
            bundle.op,
            gamma=gamma,
            config=config,
            sketch_size=sketch_size,
        )
    result.trace.write_csv(f"{spec.prefix}.trace.csv")
    u, lam = sketch_reconstruct(result.sketch, spec.recon_rank)
    x_hat = u[:, 0] * math.sqrt(max(float(lam[0]), 0.0))
    rec_err = recovery_error(x_hat, bundle.x_true)
    factor_path = f"{spec.prefix}.factor.npz"
    save_factor(factor_path, u, lam)
    summary = _base_summary(spec, result)
    summary["final_trace"] = float(result.final_tr)
    summary["final_lambda_min"] = float(result.final_lambda)
    summary["m_estimate"] = float(bundle.m_estimate)
    summary["recovery_error"] = float(rec_err)
    summary["factor_file"] = factor_path
    if spec.dump_to is not None:
        dump_instance(
            spec.dump_to,
            "phase",
            {
                "signs": bundle.signs,
                "b": bundle.b,
                "x_true": bundle.x_true,
                "seed": np.array(spec.seed),
            },
        )
    return summary


def _spec_worker(spec):
    # runs inside a pool process; returns printable outcome, never raises
    try:
        summary = run_experiment(spec)
        return (
            spec.prefix,
            0,
            f"status={summary['status']} final_f={summary['final_f']:.6g} "
            f"cert={summary['final_dual_cert']:.6g}",
        )
    except (UsageError, DegenerateSignal, RankTooLarge) as exc:
        return (spec.prefix, 2, str(exc))
    except (SolverError, np.linalg.LinAlgError) as exc:
        return (spec.prefix, 3, str(exc))
    except ValueError as exc:
        # after the clause above: LinAlgError is a ValueError and means 3
        return (spec.prefix, 2, str(exc))
    except OSError as exc:
        return (spec.prefix, 4, str(exc))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cdkit",
        description="Projection-free conic solvers on bundled experiment problems.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algo", choices=_SDP_ALGOS, default=None,
                        help="solver variant")
    common.add_argument("--seed", type=int, default=None, help="rng seed")
    common.add_argument("--seeds", default=None,
                        help="comma separated seed list; fans out one run per seed")
    common.add_argument("--jobs", type=int, default=None,
                        help="worker processes for --seeds (default 1)")
    common.add_argument("--iters", type=int, default=None, help="iteration budget")
    common.add_argument("--tol", type=float, default=None,
                        help="stop once the dual certificate reaches sqrt(tol)")
    common.add_argument("--prefix", default=None, help="output file prefix")
    common.add_argument("--config", default=None,
                        help="key=value file applied below explicit flags")
    common.add_argument("--trace-every", type=int, default=None, dest="trace_every",
                        help="record every this-many iterations")
    common.add_argument("--heuristic-m", type=float, default=None,
                        dest="heuristic_m",
                        help="step scale for the mocoh schedule")

    sub = parser.add_subparsers(dest="command", required=True)
    toy = sub.add_parser("toy", parents=[common],
                         help="quadratic over the nonnegative orthant")
    toy.add_argument("--dim", type=int, default=None)
    toy.add_argument("--dump-to", default=None, dest="dump_to",
                     help="also write the instance to this container file")

    matcomp = sub.add_parser("matcomp", parents=[common],
                             help="low-rank symmetric matrix completion")
    matcomp.add_argument("--n", type=int, default=None)
    matcomp.add_argument("--rank", type=int, default=None)
    matcomp.add_argument("--density", type=float, default=None)
    matcomp.add_argument("--block", type=int, default=None)
    matcomp.add_argument("--noise-snr", type=float, default=None, dest="noise_snr")
    matcomp.add_argument("--gamma", type=float, default=None,
                         help="trace penalty weight")
    matcomp.add_argument("--sketch", type=int, default=None,
                         help="sketch column count (omitted: no sketch kept)")
    matcomp.add_argument("--greedy-every", type=int, default=None,
                         dest="greedy_every",
                         help="period of the factored descent step (mocog)")
    matcomp.add_argument("--trace-bound", type=float, default=None,
                         dest="trace_bound", help="feasible trace bound for fw")
    matcomp.add_argument("--dump-to", default=None, dest="dump_to")

    phase = sub.add_parser("phase", parents=[common],
                           help="phase retrieval from signed-DCT magnitudes")
    phase.add_argument("--n", type=int, default=None)
    phase.add_argument("--m", type=int, default=None)
    phase.add_argument("--noise-snr", type=float, default=None, dest="noise_snr")
    phase.add_argument("--gamma", type=float, default=None)
    phase.add_argument("--sketch", type=int, default=None)
    phase.add_argument("--greedy-every", type=int, default=None,
                       dest="greedy_every")
    phase.add_argument("--trace-bound", type=float, default=None,
                       dest="trace_bound")
    phase.add_argument("--image", default=None,
                       help="PGM image used as the ground-truth signal")
    phase.add_argument("--recon-rank", type=int, default=None, dest="recon_rank")
    phase.add_argument("--dump-to", default=None, dest="dump_to")
    return parser


def console_main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        specs, jobs = resolve(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4

    if len(specs) == 1:
        prefix, code, msg = _spec_worker(specs[0])
        stream = sys.stdout if code == 0 else sys.stderr
        print(f"{prefix}: {msg}", file=stream)
        return code

    if jobs == 1:
        outcomes = [_spec_worker(spec) for spec in specs]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_spec_worker, specs))
    worst = 0
    for prefix, code, msg in outcomes:
        stream = sys.stdout if code == 0 else sys.stderr
        print(f"{prefix}: {msg}", file=stream)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(console_main())
