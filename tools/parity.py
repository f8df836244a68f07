"""Compare every solve output and built instance of this checkout with
another checkout's.

Run from the repository root, against a second checkout of cdkit, here
the commit before HEAD:

    git worktree add ../cdkit-parent HEAD~1
    python3 tools/parity.py --against ../cdkit-parent
    python3 tools/parity.py --against . --smoke

Each side runs in its own subprocess, with that side's src/ first on
sys.path; the subprocess checks that cdkit was imported from there. Both
sides run this file's fixed set of solves and, without --smoke, its set of
built instances and five command-line runs, one of them a phase run on a
small graymap with a header comment that the side writes first, and write
what they return to a temporary directory: per solve the trace (every
column but wall_ms), stats (greedy events included), status, the final
point or final_y and final_tr, the sketch's s, certified_dual_cert and
final_lambda; per instance its data (the orthant toy's quad, lin, x_star,
f_star and lipschitz, matcomp's b, row_idx and col_idx, phase's b, signs
and x_true, for drawn and given signals), the objective's gradient at 0,
which reads the data the objective holds, and for matcomp and phase the
operator's adjoint_dense at a fixed p, the benchmark's dense reference; per
command-line run the trace CSV without wall_ms, the summary JSON without
wall_ms_total and build, the phase runs' factor.npz and the matcomp
--dump-to file. --smoke runs 3 small solves and nothing else.

For each solve, instance and field this prints "identical", the largest
relative change, or the keys one side has and the other lacks. Identical
means equal to the bit, NaN included. The exit code is 0 when every field
is identical, 1 when any differs, and 2 when a side could not run.
"""

import argparse
import csv
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_COLUMNS = ("k", "f_value", "dual_cert", "cs_residual", "eta", "theta", "lambda_min")


# ---------------------------------------------------------------------------
# one side: run the solve and instance sets and write what they return


def solve_set(smoke):
    """name -> zero-argument call returning a SolveResult or an SdpResult."""
    from cdkit import MeasurementOperator, SolverConfig, fw_solve, sdp_solve, solve
    from cdkit.problems import (
        build_matcomp,
        build_orthant_quadratic,
        build_phase_retrieval,
        build_trace_toy,
    )

    def orthant(mode, seed, iters=300, free=False):
        # free drops the restriction oracle, so every search bisects
        bundle = build_orthant_quadratic(dim=20, seed=seed)
        m = float(np.linalg.norm(bundle.x_star)) if mode == "mocoh" else None
        momentum = "cd" if mode == "cd" else "moco"
        cfg = SolverConfig(max_iters=iters, momentum_mode=momentum, heuristic_m=m, rng_seed=seed)
        program = bundle.program
        if free:
            program = dataclasses.replace(program, restriction_oracle=None)
        return lambda: solve(program, cfg)

    def small_matcomp(seed):
        return build_matcomp(n=30, rank=2, seed=seed, block=5, density=0.15)

    def greedy(bundle, seed, iters, period, gamma=None):
        cfg = SolverConfig(max_iters=iters, greedy_period=period, rng_seed=seed)
        gamma = bundle.gamma if gamma is None else gamma
        return lambda: sdp_solve(bundle.fv, bundle.op, gamma, config=cfg, sketch_size=8)

    def frank_wolfe(bundle, seed, iters, tau):
        cfg = SolverConfig(max_iters=iters, rng_seed=seed)
        return lambda: fw_solve(
            bundle.fv, bundle.op, tau, gamma=bundle.gamma, config=cfg, sketch_size=8
        )

    if smoke:
        small = small_matcomp(0)
        phase = build_phase_retrieval(n=16, m=4, seed=0)
        return {
            "orthant-moco-s0": orthant("moco", 0, iters=50),
            "matcomp30-mocog-s0": greedy(small, 0, 30, 5),
            "phase16-fw-s0": frank_wolfe(phase, 0, 20, 2.0 * phase.m_estimate),
        }
    calls = {}
    for seed in (0, 1):
        for mode in ("cd", "moco", "mocoh"):
            calls[f"orthant-{mode}-s{seed}"] = orthant(mode, seed)
        calls[f"orthant-moco-free-s{seed}"] = orthant("moco", seed, free=True)
        calls[f"matcomp100-mocog-s{seed}"] = greedy(build_matcomp(n=100, seed=seed), seed, 300, 20)
        phase = build_phase_retrieval(n=64, m=10, seed=seed)
        calls[f"phase64-mocog-s{seed}"] = greedy(phase, seed, 300, 20)
        calls[f"phase64-fw-s{seed}"] = frank_wolfe(phase, seed, 100, 2.0 * phase.m_estimate)
        small = small_matcomp(seed)
        free = dataclasses.replace(small.fv, restriction_oracle=None)
        for gamma in (0.0, 0.5):
            calls[f"matcomp30-mocog-g{gamma}-s{seed}"] = greedy(small, seed, 60, 5, gamma=gamma)
            calls[f"matcomp30-mocog-free-g{gamma}-s{seed}"] = greedy(
                dataclasses.replace(small, fv=free), seed, 60, 5, gamma=gamma
            )
        calls[f"matcomp30-fw-s{seed}"] = frank_wolfe(small, seed, 100, 30.0)
    # the matcomp-greedy benchmark's instance and schedule: 20 dB noise
    bench = build_matcomp(n=100, block=10, density=0.1, noise_snr=20.0)
    calls["matcomp100-bench-mocog-s0"] = greedy(bench, 0, 300, 20)
    # one solve of each solver that leaves sketch_size at its default
    plain = small_matcomp(0)
    calls["matcomp30-mocog-sketch-default-s0"] = lambda: sdp_solve(
        plain.fv, plain.op, plain.gamma, config=SolverConfig(max_iters=60, greedy_period=5)
    )
    calls["matcomp30-fw-sketch-default-s0"] = lambda: fw_solve(
        plain.fv, plain.op, 30.0, gamma=plain.gamma, config=SolverConfig(max_iters=100)
    )
    # an operator built outside problems, over a bundled operator's maps
    op = MeasurementOperator(plain.op.n, plain.op.d, plain.op.gram, plain.op.adjoint_matvec)
    calls["matcomp30-hand-built-op-mocog-s0"] = greedy(dataclasses.replace(plain, op=op), 0, 60, 5)
    toy = build_trace_toy(n=4)
    calls["trace-toy-tol"] = lambda: sdp_solve(
        toy.fv, toy.op, config=SolverConfig(tol_eps=1e-12), sketch_size=3
    )
    return calls


def instance_set():
    """name -> zero-argument call returning the arrays of a built instance."""
    from cdkit.problems import (
        build_matcomp,
        build_orthant_quadratic,
        build_phase_retrieval,
        build_trace_toy,
    )

    def arrays(build, names, **kwargs):
        # the orthant bundle holds its objective as program, the
        # measurement bundles as fv; matcomp and phase keep a dense adjoint
        def call():
            bundle = build(**kwargs)
            out = {name: getattr(bundle, name) for name in names}
            key = "program" if hasattr(bundle, "program") else "fv"
            program = getattr(bundle, key)
            out[f"{key}.gradient(0)"] = program.gradient(np.zeros(program.dim))
            if build in (build_matcomp, build_phase_retrieval):
                op = bundle.op
                out["op.adjoint_dense(p)"] = op.adjoint_dense(np.linspace(-1.0, 1.0, op.d))
            return out

        return call

    calls = {}
    for dim in (20, 50):
        for seed in (0, 1):
            calls[f"orthant{dim}-s{seed}"] = arrays(
                build_orthant_quadratic, ("quad", "lin", "x_star", "f_star", "lipschitz"),
                dim=dim, seed=seed,
            )
    for n in (40, 600):
        for rank in (1, 3):
            for block in (0, 10):
                for snr in (None, 20.0):
                    noise = "clean" if snr is None else "noisy"
                    calls[f"matcomp{n}-r{rank}-b{block}-{noise}"] = arrays(
                        build_matcomp, ("b", "row_idx", "col_idx"),
                        n=n, rank=rank, seed=n + rank, block=block, noise_snr=snr,
                    )
    # the matcomp-large benchmark's instance, whose mask is drawn in many
    # chunks of rows, and a mask whose every row observes the corner
    calls["matcomp2000-bench"] = arrays(
        build_matcomp, ("b", "row_idx", "col_idx"), n=2000, rank=3, seed=0, density=0.1
    )
    calls["matcomp40-b40"] = arrays(
        build_matcomp, ("b", "row_idx", "col_idx"), n=40, rank=3, seed=7, block=40
    )
    phase_arrays = ("b", "signs", "x_true")
    for snr in (None, 20.0):
        noise = "clean" if snr is None else "noisy"
        calls[f"phase64-{noise}"] = arrays(
            build_phase_retrieval, phase_arrays, n=64, m=10, seed=3, noise_snr=snr
        )
    # the builder's other path: a given signal, which sets n
    calls["phase-signal"] = arrays(
        build_phase_retrieval, phase_arrays, m=6, seed=4, signal=np.cos(0.3 * np.arange(48))
    )
    calls["trace-toy"] = arrays(build_trace_toy, (), n=4, target=2.0)
    return calls


# trace CSV, summary JSON and, where written, factor.npz and the --dump-to
# file <name>.dump.npz of each command-line run
CLI_RUNS = {
    "toy": ["toy"],
    "phase-mocog": ["phase", "--algo", "mocog"],
    "matcomp-fw": ["matcomp", "--algo", "fw", "--n", "40", "--trace-bound", "50", "--iters", "100"],
    "matcomp-dump": ["matcomp", "--n", "40", "--iters", "20", "--dump-to", "matcomp-dump.dump.npz"],
    "phase-image": ["phase", "--image", "img.pgm", "--iters", "20"],
}
# the 6 x 4 ASCII graymap the phase-image run reads
IMAGE_PGM = (
    b"P2\n# a fixed test image\n6 4\n255\n"
    b"0 40 80 120 160 200\n30 70 110 150 190 230\n"
    b"60 100 140 180 220 255\n90 130 170 210 250 10\n"
)


def fields(res):
    # what a solve returns, but wall time
    trace = [[getattr(r, c) for c in TRACE_COLUMNS] for r in res.trace]
    out = {
        "trace": np.array([[np.nan if v is None else v for v in row] for row in trace], float),
        "stats": res.stats,
        "status": res.status,
        "certified_dual_cert": res.certified_dual_cert,
    }
    if hasattr(res, "final_point"):
        out["final_point"] = res.final_point
    else:
        out["final_y"] = res.final_y
        out["final_tr"] = res.final_tr
        out["sketch.s"] = res.sketch.s
        out["final_lambda"] = res.final_lambda
    return out


def run_side(src, out_dir, smoke):
    sys.path.insert(0, src)
    import cdkit

    if not os.path.abspath(cdkit.__file__).startswith(src + os.sep):
        print(f"error: imported cdkit from {cdkit.__file__}, not {src}", file=sys.stderr)
        return 2
    results = {name: fields(call()) for name, call in solve_set(smoke).items()}
    if not smoke:
        results.update({f"instance:{k}": call() for k, call in instance_set().items()})
        from cdkit.cli import console_main

        # the side runs in out_dir: relative prefixes and the image are
        # written there, and each summary echoes the same prefix
        with open("img.pgm", "wb") as fh:
            fh.write(IMAGE_PGM)
        for name, argv in CLI_RUNS.items():
            if console_main(argv + ["--prefix", name]) != 0:
                print(f"error: command-line run {name} failed", file=sys.stderr)
                return 2
    with open(os.path.join(out_dir, "solves.pkl"), "wb") as fh:
        pickle.dump(results, fh)
    return 0


# ---------------------------------------------------------------------------
# comparison


def flatten(value, path, out):
    # leaves of nested dicts and lists by path; arrays and scalars are leaves
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{path}.{key}", out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            flatten(item, f"{path}[{i}]", out)
    else:
        out[path] = value
    return out


def leaf_change(a, b):
    """0.0 for leaves equal to the bit, else the largest relative change (inf
    for a change of kind, shape or text)."""
    numeric = (int, float, np.number, np.ndarray)
    if not (isinstance(a, numeric) and isinstance(b, numeric)) or isinstance(a, bool):
        return 0.0 if type(a) is type(b) and a == b else float("inf")
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return float("inf")
    if a.tobytes() == b.tobytes():
        return 0.0
    a, b = a.astype(float), b.astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    # a change from 0 reads 1; NaN against a number or inf against another
    # value reads inf
    rel = np.where(a == b, 0.0, np.where(np.isnan(rel), np.inf, rel))
    return float(rel.max())


def compare(a, b):
    """"identical", or what differs between two values of one field."""
    fa, fb = flatten(a, "", {}), flatten(b, "", {})
    added = [k.lstrip(".") for k in fb if k not in fa]
    removed = [k.lstrip(".") for k in fa if k not in fb]
    changes = [(leaf_change(fa[k], fb[k]), k.lstrip(".")) for k in fa if k in fb]
    parts = []
    if added:
        parts.append("keys added: " + ", ".join(added))
    if removed:
        parts.append("keys removed: " + ", ".join(removed))
    worst, where = max(changes, default=(0.0, ""))
    if worst > 0.0:
        parts.append(f"largest relative change {worst:.3g}" + (f" at {where}" if where else ""))
    return "; ".join(parts) or "identical"


def read_cli_outputs(out_dir):
    """run -> {file: value} of the command-line outputs, wall time dropped."""
    found = {}
    for name in CLI_RUNS:
        files = {}
        with open(os.path.join(out_dir, f"{name}.trace.csv")) as fh:
            rows = list(csv.reader(fh))
        keep = [i for i, column in enumerate(rows[0]) if column != "wall_ms"]
        files["trace.csv"] = {
            "header": [rows[0][i] for i in keep],
            "rows": np.array([[float(row[i]) for i in keep] for row in rows[1:]]),
        }
        with open(os.path.join(out_dir, f"{name}.summary.json")) as fh:
            summary = json.load(fh)
        summary.pop("wall_ms_total")
        summary.pop("build")
        files["summary.json"] = summary
        for suffix in ("factor.npz", "dump.npz"):
            path = os.path.join(out_dir, f"{name}.{suffix}")
            if os.path.exists(path):
                with np.load(path) as npz:
                    files[suffix] = {key: npz[key] for key in npz.files}
        found[name] = files
    return found


def read_side(out_dir, smoke):
    with open(os.path.join(out_dir, "solves.pkl"), "rb") as fh:
        found = pickle.load(fh)
    if not smoke:
        found.update({f"cli:{k}": v for k, v in read_cli_outputs(out_dir).items()})
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="root of the other checkout")
    parser.add_argument("--smoke", action="store_true", help="3 small solves only")
    # the subprocess of one side: the src/ directory to import and where to write
    parser.add_argument("--side", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side is not None:
        src, out_dir = (os.path.abspath(p) for p in args.side)
        return run_side(src, out_dir, args.smoke)

    sides = {"this": ROOT, "against": os.path.abspath(args.against)}
    for root in sides.values():
        if not os.path.isfile(os.path.join(root, "src", "cdkit", "__init__.py")):
            print(f"error: cdkit sources not found under {root}/src", file=sys.stderr)
            return 2
    found = {}
    with tempfile.TemporaryDirectory(prefix="cdkit-parity-") as tmp:
        for side, root in sides.items():
            out_dir = os.path.join(tmp, side)
            os.mkdir(out_dir)
            cmd = [sys.executable, os.path.abspath(__file__), "--against", root]
            cmd += ["--side", os.path.join(root, "src"), out_dir]
            cmd += ["--smoke"] if args.smoke else []
            proc = subprocess.run(cmd, cwd=out_dir, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"error: the {side} side failed:\n{proc.stderr}", file=sys.stderr)
                return 2
            found[side] = read_side(out_dir, args.smoke)
    # both sides ran this file's sets; keys added are on this side only,
    # keys removed on the other only
    before, after = found["against"], found["this"]
    differ = 0
    for name in sorted(before):
        for field in sorted(set(before[name]) | set(after[name])):
            verdict = compare(before[name].get(field), after[name].get(field))
            differ += verdict != "identical"
            print(f"{name:34} {field:20} {verdict}")
    print(f"{differ} fields differ" if differ else "every field identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
