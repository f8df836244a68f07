"""cdkit benchmark: four solver workloads, end to end and split by layer.

Run from the repository root:

    python3 perfbench/run.py --workload matcomp-greedy --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload matcomp-greedy --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

One process runs one workload as a closed loop: a single client starts the
next unit (one solve plus its readout) only after the previous one returned,
and keeps going for --seconds, with at least one full pass over the
workload's cases. No threads are started beyond the numeric libraries' own.

--trace 0 prints the end-to-end metrics. --trace 1 is a separate run that
hooks cdkit's public functions (see tracer.py) and prints per-layer metrics;
its spans are written to .perfbench_out/ at the end. --smoke runs every
workload at a tiny size and checks metric names, units, and that every
count repeats exactly across two traced runs.

Human-readable lines (environment, metrics with units, failures) come first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when the run completed,
whether or not its checks passed, and 2 when it could not start.
"""

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# per-layer units of measured (not counted) quantities; smoke mode requires
# every other per-layer metric to repeat exactly
MEASURED_UNITS = {"ms/unit", "%", "s", "MB", "ratio"}
SETUP_SECONDS = 1.0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    import ctypes

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git": git_describe(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# closed loop


def closed_loop(wl, cases, seconds, full_pass, fixed, tracer=None, probe=None):
    """Run units back to back; returns [(case index, UnitResult or None, error)].

    With a SpeedProbe, the kernel is timed before the first unit, about
    every SpeedProbe.EVERY_S during and between units, and after the last
    one; each UnitResult gets the scale of the probes around it.
    """
    results = []
    seen = []  # per unit: first and last probe index around it
    if probe is not None:
        probe.probe()
    t_start = time.perf_counter()
    i = 0
    while True:
        ci = i % len(cases)
        root = None
        if tracer is not None:
            tracer.unit = i
            root = tracer.open("bench.unit")
        first = len(probe.samples) - 1 if probe is not None else 0
        try:
            try:
                raw = wl.execute(cases[ci], probe)
            finally:
                if root is not None:
                    tracer.close(root)
            results.append((ci, wl.evaluate(cases[ci], raw), None))
        except Exception:  # a failed unit is counted, the loop goes on
            results.append((ci, None, traceback.format_exc(limit=4)))
        if probe is not None:
            seen.append((first, len(probe.samples)))
        i += 1
        if fixed:
            done = i >= len(cases)
        elif full_pass and i < len(cases):
            done = False
        else:
            elapsed = time.perf_counter() - t_start
            # stop at the unit boundary nearest to the budget
            done = elapsed + 0.5 * elapsed / i >= seconds
        if probe is not None:
            if done:
                probe.probe()
            else:
                probe.maybe()
        if done:
            break
    if probe is not None:
        for (_, r, _), (first, last) in zip(results, seen):
            if r is not None:
                set_scales(r, probe, first, last)
    return results


def set_scales(r, probe, first, last):
    """Unit scale from all probes around the unit; iteration scales from the
    probes just before and after each iteration, where the unit probed inside."""
    r.scale = probe.scale(first, last)
    if not r.marks:
        r.iter_scale = [r.scale] * len(r.iter_ms)
        return
    starts = [first + 1] + r.marks[:-1]
    r.iter_scale = [probe.scale(lo - 1, hi) for lo, hi in zip(starts, r.marks)]


def first_per_case(results):
    firsts = {}
    for ci, r, _ in results:
        if r is not None and ci not in firsts:
            firsts[ci] = r
    return firsts


def mark_problems(wl, results):
    """Add the run-level checks to the unit results; returns the failure count."""
    firsts = first_per_case(results)
    for ci, r, _ in results:
        first = firsts.get(ci)
        if r is not None and first is not None and r is not first:
            if (r.final_f, r.final_cert) != (first.final_f, first.final_cert):
                r.problems.append("rerun of the case is not bit-identical")
    run_level = wl.case_problems(firsts)
    for ci, r, _ in results:
        if r is not None:
            r.problems.extend(run_level.get(ci, []))
    return sum(1 for _, r, err in results if r is None or r.problems)


def failure_lines(results):
    lines = []
    for ci, r, err in results:
        if r is None:
            lines.append(f"case {ci}: {err.strip().splitlines()[-1]}")
        elif r.problems:
            lines.append(f"case {ci}: {'; '.join(r.problems)}")
    return lines


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(results, setup_s, setup_scale):
    """Timed metrics at reference speed (see speed.py), quality per case."""
    ok = [r for _, r, _ in results if r is not None]
    firsts = first_per_case(results)
    iters = [t * s for r in ok for t, s in zip(r.iter_ms, r.iter_scale)]
    raw_iters = [t for r in ok for t in r.iter_ms]

    def case_mean(attr):
        return statistics.fmean(getattr(r, attr) for r in firsts.values())

    def solve_median(scaled=True):
        return statistics.median(r.solve_s * (r.scale if scaled else 1.0) for r in ok)

    def cert_median(scaled=True):
        def cert_s(r):
            n = r.iters_to_cert + 1
            pairs = zip(r.iter_ms[:n], r.iter_scale[:n])
            return sum(t * (s if scaled else 1.0) for t, s in pairs) / 1e3

        return statistics.median(cert_s(r) for r in ok)

    metrics = {
        "setup_s": (statistics.median(setup_s) * setup_scale, "s"),
        "solve_s": (solve_median(), "s"),
        "iter_ms_p50": (percentile(iters, 50), "ms"),
        "iter_ms_p90": (percentile(iters, 90), "ms"),
        "time_to_cert_s": (cert_median(), "s"),
        "final_f": (case_mean("final_f"), "value"),
        "final_cert": (case_mean("final_cert"), "value"),
        "recovery_err": (case_mean("recovery_err"), "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    notes = {
        "setup_s": f"wall {statistics.median(setup_s):.6g} s",
        "solve_s": f"wall {solve_median(False):.6g} s; {len(ok)} units",
        "iter_ms_p50": f"wall {percentile(raw_iters, 50):.6g} ms",
        "iter_ms_p90": f"wall {percentile(raw_iters, 90):.6g} ms; {len(iters)} samples",
        "time_to_cert_s": f"wall {cert_median(False):.6g} s",
        "final_f": f"mean over {len(firsts)} cases",
    }
    return metrics, notes


def per_layer(tracer, results, base, memory_mb):
    from tracer import ROOTS, SPANS

    units = len(results)
    own = tracer.self_times()
    calls = dict.fromkeys(SPANS + ROOTS, 0)
    total = dict.fromkeys(SPANS + ROOTS, 0.0)
    selft = dict.fromkeys(SPANS + ROOTS, 0.0)
    wall = 0.0
    for idx, span in enumerate(tracer.spans):
        dur = span.end - span.start
        calls[span.name] += 1
        total[span.name] += dur
        selft[span.name] += own[idx]
        if span.parent < 0:
            wall += dur
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (calls[name] / units, "count/unit")
        metrics[f"{name}.total_ms"] = (total[name] * 1e3 / units, "ms/unit")
        metrics[f"{name}.self_ms"] = (selft[name] * 1e3 / units, "ms/unit")
        metrics[f"{name}.share"] = (100.0 * selft[name] / wall, "%")

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    ok = [r for _, r, _ in results if r is not None]
    traced_case0 = [r.solve_s for ci, r, _ in results if ci == 0 and r is not None]
    metrics.update({
        "sdp.lmo.matvecs_per_call": (
            ratio(counts["sdp.lmo.matvecs"], calls["sdp.min_eig_lanczos"]), "matvecs/call"
        ),
        "sdp.greedy.gram_per_refit": (
            ratio(counts["sdp.greedy.gram"], counts["sdp.greedy.refits"]), "calls/refit"
        ),
        "sdp.greedy.commit_ratio": (
            ratio(counts["sdp.greedy.commits"], counts["sdp.greedy.refits"]), "commits/refit"
        ),
        "core.minimize_convex_1d.evals_per_call": (
            ratio(counts["core.minimize_convex_1d.evals"], calls["core.minimize_convex_1d"]),
            "evals/call",
        ),
        "sdp.iters_to_cert": (statistics.fmean(r.iters_to_cert for r in ok), "count"),
        "sdp.peak_traced_mb": (memory_mb, "MB"),
        "bench.units": (units, "count"),
        "bench.unattributed_share": (
            100.0 * (selft["bench.unit"] + selft["bench.setup"]) / wall, "%"
        ),
        "trace.base_solve_s": (base.solve_s, "s"),
        "trace.overhead_ratio": (statistics.median(traced_case0) / base.solve_s, "ratio"),
    })
    return metrics


# ---------------------------------------------------------------------------
# one run


def run(name, seed, seconds, trace, smoke=False):
    """Measure one workload; returns (result dict, human-readable lines)."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    wl.configure(smoke)
    os.makedirs(OUT_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{name}.s{seed}.", dir=OUT_DIR)
    lines = []
    try:
        wl.begin(out_dir)
        cases = wl.cases(seed)
        probe = None
        if not trace:
            from speed import SpeedProbe

            probe = SpeedProbe()
        setup_s, setup_scale = set_up(wl, cases, probe, once=trace or smoke)
        extra_attempts, extra_failures, memory_mb = 0, 0, 0.0
        if not trace:
            results = closed_loop(
                wl, cases, seconds, full_pass=True, fixed=smoke, probe=probe
            )
            metrics, notes = end_to_end(results, setup_s, setup_scale)
        else:
            results, base, tracer = traced_loop(wl, cases, seconds, smoke)
            extra_attempts += 1
            problem = bit_identical(base, results)
            if problem:
                extra_failures += 1
                lines.append(f"FAILED traced vs untraced: {problem}")
            tracer.write(os.path.join(OUT_DIR, f"{name}.s{seed}.spans.jsonl"))
            notes = {}
        if wl.memory_check:
            used = wl.peak_traced_bytes(cases[0])
            budget = 8 * cases[0].bundle.op.n ** 2
            memory_mb = used / 1e6
            extra_attempts += 1
            lines.append(f"memory check: traced peak {memory_mb:.2f} MB, budget {budget / 1e6:.0f} MB")
            if not used < budget:
                extra_failures += 1
                lines.append("FAILED memory check: the solve allocated a dense n x n budget")
        if trace:
            metrics = per_layer(tracer, results, base, memory_mb)
    finally:
        wl.end()
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = mark_problems(wl, results) + extra_failures
    attempted = len(results) + extra_attempts
    lines += [f"FAILED {line}" for line in failure_lines(results)]
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        lines.append(f"{key:42s} {value:14.6g} {unit}{note}")
    lines.append(f"{'failed_frac':42s} {failed / attempted:14.6g} ratio  ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def set_up(wl, cases, probe, once):
    """Set up every case, in rounds until SETUP_SECONDS have passed.

    A set-up takes milliseconds for most workloads, so one round is too few
    samples for a steady median; later rounds rebuild identical cases. The
    probe runs between set-ups. Returns (set-up seconds, scale for them).
    """
    times = []
    t_start = time.perf_counter()
    if probe is not None:
        probe.probe()
    while True:
        for case in cases:
            t0 = time.perf_counter()
            wl.setup(case)
            times.append(time.perf_counter() - t0)
            if probe is not None:
                probe.maybe()
        if once or time.perf_counter() - t_start >= SETUP_SECONDS:
            break
    if probe is None:
        return times, 1.0
    probe.probe()
    return times, probe.scale(0, len(probe.samples) - 1)


def traced_loop(wl, cases, seconds, smoke):
    """One untraced base unit, then traced units; returns (results, base, tracer)."""
    from tracer import Tracer

    t0 = time.perf_counter()
    base = wl.evaluate(cases[0], wl.execute(cases[0], None))
    seconds -= time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        for case in cases:
            root = tracer.open("bench.setup")
            try:
                wl.retrace(case)
            finally:
                tracer.close(root)
        results = closed_loop(wl, cases, seconds, full_pass=False, fixed=smoke, tracer=tracer)
    finally:
        tracer.uninstall()
    return results, base, tracer


def bit_identical(base, results):
    for ci, r, _ in results:
        if ci == 0 and r is not None:
            if (r.final_f, r.final_cert) != (base.final_f, base.final_cert):
                return (f"final_f/final_cert {r.final_f!r}/{r.final_cert!r} vs "
                        f"{base.final_f!r}/{base.final_cert!r}")
            return None
    return "no traced unit of case 0 completed"


# ---------------------------------------------------------------------------
# smoke mode


def smoke():
    """Tiny run of every workload; returns a list of problems (empty when fine)."""
    spec = load_spec()
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run(name, 0, 0, trace=t, smoke=True) for t in (False, True, True)]
        for (res, lines), want in zip(runs, (want_e2e, want_layer, want_layer)):
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name}: metric names or units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            problems += [f"{name}: {line}" for line in lines if line.startswith("FAILED")]
        traced = [res for res, _ in runs[1:]]
        for key, m in traced[0]["metrics"].items():
            if m["unit"] not in MEASURED_UNITS:
                other = traced[1]["metrics"][key]["value"]
                if m["value"] != other:
                    problems.append(f"{name}: count {key} {m['value']} vs {other}")
    return problems


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cdkit", "__init__.py")):
        print(f"error: cdkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import cdkit

    if not os.path.abspath(cdkit.__file__).startswith(SRC + os.sep):
        print(f"error: imported cdkit from {cdkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.smoke:
        problems = smoke()
        for p in problems:
            print(f"SMOKE FAILED {p}")
        print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
        return 1 if problems else 0

    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        print(f"error: --workload must be one of {', '.join(names)}", file=sys.stderr)
        return 2
    from speed import calibrate

    env = environment(args.seed)
    calib_before = calibrate()
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    calib_after = calibrate()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"calibration_ms before={calib_before:.4f} after={calib_after:.4f} "
          f"drift={calib_after / calib_before:.4f}")
    print(f"workload={args.workload} trace={args.trace} seconds={args.seconds:g}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
