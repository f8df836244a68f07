"""Command line harness for the bundled experiments.

Usage sketches:

    cdkit toy --algo moco --iters 200 --prefix out/toy
    cdkit matcomp --n 100 --algo mocog --greedy-every 20 --prefix out/mc
    cdkit phase --n 64 --m 10 --algo mocoh --prefix out/ph
    cdkit phase --seeds 0,1,2,3 --jobs 4 --prefix out/sweep

Every run writes <prefix>.trace.csv (one row per visit) and
<prefix>.summary.json (the command and the resolved value of each flag it
has, final values, and the solve's stats as they are: oracle call counts,
LMO confirmations and, for the semidefinite algos, LMO matvecs, the
operator's gram and adjoint_matvec call totals and each greedy refit's
event). Phase runs additionally write
<prefix>.factor.npz with the factored reconstruction read out of the
sketch (arrays u and lam); once the instance is built, and before the
solve, --sketch and --recon-rank go through the readout's own checks on an
empty sketch of the run's width, so a readout rank the library rejects
fails before any visit. With --dump-to PATH a run also writes the
instance it built to PATH, exactly as given: a plain .npz file holding
kind, seed and the bundle's arrays, which np.load reads. It takes one
seed: with more than one left after --seeds, --config and CDK_SEED, the
command fails before any run starts.

Option precedence, lowest to highest: built-in defaults, then key=value
lines from --config, then explicit command line flags, then the CDK_SEED
environment variable (which overrides the seed no matter where it came
from, including a --seeds list). A --config key must name one of the
command's own flags. Reruns with identical resolved settings produce
identical outputs except for wall-clock columns and fields.

Exit codes: 0 on success, 2 for unusable arguments or degenerate input
data (any ValueError a solve raises, such as a dimension mismatch), 3 when
the solver or a numeric routine fails, 4 for I/O failures.

A setting out of range fails the run that uses it, with the message of the
library check that rejects it, so it carries the library's name for the
setting (max_iters for --iters, tol_eps for --tol). --heuristic-m,
--trace-bound and --greedy-every reach the library only under some algos,
so each run puts them through the same checks under their flag names.
Each run prints one "<prefix>: <message>" line on stderr, so under --seeds
a bad setting prints one such line per run. A run keeps numpy's
floating-point warnings silent, so one that trips the library's non-finite
guard prints that line alone. A bad --jobs fails the same count check
before any run starts, with one "error: <message>" line.
"""

import argparse
import dataclasses
import functools
import json
import math
import numbers
import os
import subprocess
import sys
import typing

import numpy as np

from .core import SolverConfig, solve
from .exceptions import SolverError, _check_count, _check_real
from .problems import (
    build_matcomp,
    build_orthant_quadratic,
    build_phase_retrieval,
    read_pgm,
    recovery_error,
)
from .sdp import SketchState, fw_solve, sdp_solve, sketch_reconstruct

_VECTOR_ALGOS = ("cd", "moco", "mocoh")
_SDP_ALGOS = ("cd", "moco", "mocog", "mocoh", "fw")
# what --dump-to writes for each command: the kind tag (saved as the string
# array "kind", beside "seed") and the fields of the built bundle
_DUMPS = {
    "toy": ("orthant_quadratic", ("quad", "lin", "x_star")),
    "matcomp": ("matcomp", ("row_idx", "col_idx", "b", "v_true")),
    "phase": ("phase", ("signs", "b", "x_true")),
}


@dataclasses.dataclass
class RunSpec:
    """Fully resolved settings for one experiment run."""

    command: str
    algo: str = "moco"
    seed: int = 0
    iters: int = 300
    tol: float = 0.0
    prefix: str = "run"
    dim: int = 20
    n: int = 100
    m: int = 10
    rank: int = 3
    density: float = 0.1
    block: int = 10
    noise_snr: float | None = None
    gamma: float | None = None
    sketch: int = 8
    greedy_every: int = 20
    heuristic_m: float | None = None
    trace_bound: float | None = None
    image: str | None = None
    recon_rank: int = 1
    dump_to: str | None = None


class UsageError(ValueError):
    """Raised for settings that cannot be run; maps to exit code 2."""


# what a RunSpec field's declared type admits, and how messages name it
_KINDS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
}


def _field_kind(field_type):
    # "int | None" takes int values
    return (typing.get_args(field_type) or (field_type,))[0]


# the type of each RunSpec field, which its flag and its --config key parse to
_FIELD_KINDS = {f.name: _field_kind(f.type) for f in dataclasses.fields(RunSpec)}


def _parse_config_file(path):
    # each value takes its RunSpec field's type; whether the command has the
    # option is resolve's check
    kinds = dict(_FIELD_KINDS, seeds=str)
    del kinds["command"]
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
            if key not in kinds:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                pairs[key] = kinds[key](val.strip())
            except ValueError:
                raise UsageError(f"{path}:{lineno}: {key} needs {_KINDS[kinds[key]][1]}")
    return pairs


def _parse_seed_list(text):
    try:
        seeds = [int(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"bad seed list {text!r}")
    if not seeds:
        raise UsageError("empty seed list")
    if len(set(seeds)) < len(seeds):
        # two runs of one seed would write the same files
        raise UsageError(f"repeated seed in seed list {text!r}")
    return seeds


def resolve(args, env=None):
    """Merge defaults, config file, flags, and CDK_SEED into run specs.

    Returns (specs, jobs): one spec per requested seed, and the worker
    count, --jobs capped at one worker per spec.
    """
    env = os.environ if env is None else env
    given = vars(args)
    config_pairs = {}
    if args.config is not None:
        config_pairs = _parse_config_file(args.config)
    for key in config_pairs:
        if key not in given:
            raise UsageError(f"option {key!r} does not apply to {args.command}")
    seeds = None
    if "seeds" in config_pairs:
        seeds = _parse_seed_list(config_pairs.pop("seeds"))
    cli_pairs = {
        key: val
        for key, val in given.items()
        if key not in ("command", "config", "seeds", "jobs") and val is not None
    }
    spec = RunSpec(command=args.command, **{**config_pairs, **cli_pairs})
    if args.seeds is not None:
        seeds = _parse_seed_list(args.seeds)
    if "CDK_SEED" in env:
        try:
            seeds = [int(env["CDK_SEED"])]
        except ValueError:
            raise UsageError(f"CDK_SEED must be an integer, got {env['CDK_SEED']!r}")
    if seeds is None:
        seeds = [spec.seed]
    if spec.dump_to is not None and len(seeds) > 1:
        # every run would write its instance to the one path
        raise UsageError(f"dump-to writes one file, so it takes one seed, got {len(seeds)} seeds")
    jobs = args.jobs if args.jobs is not None else 1
    _check_count("--jobs", jobs, 1)
    specs = []
    for seed in seeds:
        one = dataclasses.replace(spec, seed=seed)
        if len(seeds) > 1:
            one.prefix = f"{spec.prefix}.s{seed}"
        specs.append(one)
    return specs, min(jobs, len(specs))


def validate(spec):
    # a RunSpec built in code is not parsed, so check each field's type
    # first. The library checks the range of every value a run passes it, in
    # its own names (max_iters, tol_eps). heuristic-m and trace-bound reach it
    # only under mocoh and fw, and greedy-every only under mocog, so the
    # library's own checks see them here, under their flag names
    for f in dataclasses.fields(RunSpec):
        value = getattr(spec, f.name)
        if value is None and type(None) in typing.get_args(f.type):
            continue
        admits, what = _KINDS[_FIELD_KINDS[f.name]]
        if not isinstance(value, admits):
            raise UsageError(f"{f.name} needs {what}, got {value!r}")
    allowed = _VECTOR_ALGOS if spec.command == "toy" else _SDP_ALGOS
    if spec.algo not in allowed:
        raise UsageError(
            f"algo {spec.algo!r} is not available for {spec.command} "
            f"(choose from {', '.join(allowed)})"
        )
    if spec.command == "matcomp":
        if spec.algo == "fw" and spec.trace_bound is None:
            raise UsageError("fw on matcomp needs --trace-bound")
        if spec.algo == "mocoh" and spec.heuristic_m is None:
            raise UsageError("mocoh on matcomp needs --heuristic-m")
    if spec.heuristic_m is not None:
        _check_real("heuristic-m", spec.heuristic_m, "(0, inf)")
    if spec.trace_bound is not None:
        _check_real("trace-bound", spec.trace_bound, "(0, inf)")
    _check_count("greedy-every", spec.greedy_every, 1)


def _solver_config(spec, m_estimate):
    # only mocoh takes the scheduled step, with M from --heuristic-m or else
    # the command's own estimate; the other algos ignore both
    heuristic_m = None
    if spec.algo == "mocoh":
        heuristic_m = spec.heuristic_m if spec.heuristic_m is not None else m_estimate
    return SolverConfig(
        max_iters=spec.iters,
        tol_eps=spec.tol,
        momentum_mode="cd" if spec.algo == "cd" else "moco",
        heuristic_m=heuristic_m,
        greedy_period=spec.greedy_every if spec.algo == "mocog" else 0,
        rng_seed=spec.seed,
    )


@functools.cache
def _build_stamp():
    # one stamp per process: the modules it describes are loaded only once.
    # A copy of the package that an enclosing repository does not track (a
    # virtualenv or a vendored copy in a user's project) is not described by
    # that repository's commit, so only tracked files get one
    here = os.path.dirname(os.path.abspath(__file__))
    tracked = ["git", "ls-files", "--error-unmatch", "__init__.py"]
    for argv in (tracked, ["git", "describe", "--always", "--dirty"]):
        try:
            out = subprocess.run(argv, cwd=here, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        if out.returncode != 0:
            return "unknown"
    return out.stdout.strip()


@functools.cache
def _own_fields(command):
    # the RunSpec fields the command has a flag for, command included: the
    # keys of the namespace resolve checks --config keys against. Once per
    # process and command, as building the parser is not free
    given = vars(build_parser().parse_args([command]))
    return [f.name for f in dataclasses.fields(RunSpec) if f.name in given]


def _build(spec):
    # the spec as the run echoes it, the instance, and the command's own
    # estimate of M. matcomp has none: validate demands --heuristic-m for
    # mocoh and --trace-bound for fw there
    if spec.command == "toy":
        bundle = build_orthant_quadratic(dim=spec.dim, seed=spec.seed)
        return spec, bundle, float(np.linalg.norm(bundle.x_star))
    if spec.command == "matcomp":
        bundle = build_matcomp(
            n=spec.n,
            rank=spec.rank,
            seed=spec.seed,
            block=spec.block,
            density=spec.density,
            noise_snr=spec.noise_snr,
        )
        return spec, bundle, None
    if spec.command != "phase":
        raise UsageError(f"unknown command {spec.command!r}")
    signal = None if spec.image is None else read_pgm(spec.image).ravel()
    bundle = build_phase_retrieval(
        n=spec.n, m=spec.m, seed=spec.seed, noise_snr=spec.noise_snr, signal=signal
    )
    # an image sets the signal length; the summary echoes it as n
    spec = dataclasses.replace(spec, n=bundle.op.n)
    # the readout's own checks, on an empty sketch of the run's width: a
    # width or rank it rejects fails here, before the solve
    sketch_reconstruct(SketchState.create(bundle.op.n, spec.sketch), spec.recon_rank)
    return spec, bundle, bundle.m_estimate


def run_experiment(spec):
    """Execute one resolved run and write its output files.

    Returns the summary dict that was written to <prefix>.summary.json.
    Raises UsageError for a field of the wrong type or a setting that does
    not fit the command or algo, and the ValueError of the library's count
    and real checks for a setting outside its range, whether validate or
    the library applies them.
    """
    validate(spec)
    spec, bundle, m_estimate = _build(spec)
    config = _solver_config(spec, m_estimate)
    if spec.command == "toy":
        result = solve(bundle.program, config)
    else:
        gamma = spec.gamma if spec.gamma is not None else bundle.gamma
        solver = sdp_solve
        if spec.algo == "fw":
            tau = spec.trace_bound if spec.trace_bound is not None else 2.0 * m_estimate
            solver = functools.partial(fw_solve, tau=tau)
        result = solver(bundle.fv, bundle.op, gamma=gamma, config=config, sketch_size=spec.sketch)
    if spec.command == "phase":
        u, lam = sketch_reconstruct(result.sketch, spec.recon_rank)
    result.trace.write_csv(f"{spec.prefix}.trace.csv")
    last = result.trace[-1]
    summary = {
        "config": {name: getattr(spec, name) for name in _own_fields(spec.command)},
        "build": _build_stamp(),
        "status": result.status,
        "iters_run": int(last.k),
        "final_f": float(last.f_value),
        "final_dual_cert": float(result.certified_dual_cert),
        "wall_ms_total": float(last.wall_ms),
        "stats": result.stats,
    }
    if spec.command == "toy":
        summary["f_star_known"] = float(bundle.f_star)
        summary["gap_to_known"] = float(last.f_value - bundle.f_star)
    else:
        summary["final_trace"] = float(result.final_tr)
        summary["final_lambda_min"] = float(result.final_lambda)
    if spec.command == "matcomp":
        summary["n_observed"] = int(bundle.op.d)
    if spec.command == "phase":
        summary["factor_file"] = f"{spec.prefix}.factor.npz"
        _write_npz(summary["factor_file"], u=u, lam=lam)
        x_hat = u[:, 0] * math.sqrt(max(float(lam[0]), 0.0))
        summary["m_estimate"] = float(m_estimate)
        summary["recovery_error"] = float(recovery_error(x_hat, bundle.x_true))
    if spec.dump_to is not None:
        kind, names = _DUMPS[spec.command]
        arrays = {name: getattr(bundle, name) for name in names}
        _write_npz(spec.dump_to, kind=kind, seed=spec.seed, **arrays)
    with open(f"{spec.prefix}.summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _write_npz(path, **arrays):
    # np.savez appends ".npz" to a str path that lacks it; an open file is
    # written where it is
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _spec_worker(spec):
    # runs inside a pool process; returns printable outcome, never raises.
    # numpy's floating-point warnings stay silent: a run that trips the
    # library's non-finite guard reports it on its one stderr line
    try:
        with np.errstate(all="ignore"):
            summary = run_experiment(spec)
        return (
            spec.prefix,
            0,
            f"status={summary['status']} final_f={summary['final_f']:.6g} "
            f"cert={summary['final_dual_cert']:.6g}",
        )
    except (SolverError, np.linalg.LinAlgError) as exc:
        return (spec.prefix, 3, str(exc))
    except ValueError as exc:
        # after the clause above: LinAlgError is a ValueError and means 3;
        # UsageError, DegenerateSignal and RankTooLarge are ValueErrors too
        return (spec.prefix, 2, str(exc))
    except OSError as exc:
        return (spec.prefix, 4, str(exc))


def _add_flags(parser, **helps):
    # one flag per named RunSpec field, typed by the field; argparse derives
    # the destination from the flag and leaves an absent flag at None
    for name, text in helps.items():
        parser.add_argument("--" + name.replace("_", "-"), type=_FIELD_KINDS[name], help=text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cdkit",
        description="Projection-free conic solvers on bundled experiment problems.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algo", choices=_SDP_ALGOS, help="solver variant")
    common.add_argument("--seeds", help="comma separated seed list; fans out one run per seed")
    common.add_argument("--jobs", type=int, help="worker processes for --seeds (default 1)")
    common.add_argument("--config", help="key=value file applied below explicit flags")
    _add_flags(
        common,
        seed="rng seed",
        iters="iteration budget",
        tol="stop once the dual certificate reaches sqrt(tol), or fw's gap reaches tol",
        prefix="output file prefix",
        heuristic_m="step scale for the mocoh schedule",
        dump_to="also write the built instance to this exact path as a plain .npz file",
    )
    sdp_flags = argparse.ArgumentParser(add_help=False)
    _add_flags(
        sdp_flags,
        n="matrix side; phase takes it from --image when one is given",
        noise_snr=None,
        gamma="trace penalty weight",
        sketch="columns of the sketch every run keeps (default 8)",
        greedy_every="period of the factored descent step (mocog)",
        trace_bound="feasible trace bound for fw",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    toy = sub.add_parser("toy", parents=[common], help="quadratic over the nonnegative orthant")
    _add_flags(toy, dim=None)
    matcomp = sub.add_parser(
        "matcomp", parents=[common, sdp_flags], help="low-rank symmetric matrix completion"
    )
    _add_flags(matcomp, rank=None, density=None, block=None)
    phase = sub.add_parser(
        "phase", parents=[common, sdp_flags], help="phase retrieval from signed-DCT magnitudes"
    )
    _add_flags(phase, m=None, image="PGM image used as the ground-truth signal", recon_rank=None)
    return parser


def console_main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        specs, jobs = resolve(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4

    if jobs == 1:
        outcomes = [_spec_worker(spec) for spec in specs]
    else:
        # the pool's module is imported only by a command that starts one
        from concurrent.futures import ProcessPoolExecutor

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
