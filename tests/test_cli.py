"""Command-line harness: option precedence, validation, output files, exit
codes, and multi-seed fan-out."""

import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdkit import SolverConfig, cli, core, sdp, sdp_solve, solve
from cdkit.cli import RunSpec, UsageError, build_parser, console_main, resolve, validate
from cdkit.problems import build_matcomp, build_orthant_quadratic, build_phase_retrieval
from oracles import log_calls


def parse(argv):
    return build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# precedence: defaults < config file < flags < CDK_SEED


def test_resolve_defaults():
    specs, jobs = resolve(parse(["toy"]), env={})
    assert jobs == 1
    assert len(specs) == 1
    assert specs[0].seed == 0
    assert specs[0].algo == "moco"
    assert specs[0].iters == 300


def test_resolve_config_file_overrides_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\niters = 42\nalgo = cd\ndim = 7\n")
    specs, _ = resolve(parse(["toy", "--config", str(cfg)]), env={})
    assert specs[0].iters == 42
    assert specs[0].algo == "cd"
    assert specs[0].dim == 7


def test_resolve_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iters = 42\nalgo = cd\n")
    specs, _ = resolve(parse(["toy", "--config", str(cfg), "--iters", "9"]), env={})
    assert specs[0].iters == 9
    assert specs[0].algo == "cd"


def test_resolve_env_seed_replaces_seed_list(tmp_path):
    specs, _ = resolve(parse(["toy", "--seeds", "1,2,3"]), env={"CDK_SEED": "7"})
    assert [s.seed for s in specs] == [7]
    # and without the env override the full list survives
    specs, _ = resolve(parse(["toy", "--seeds", "1,2,3"]), env={})
    assert [s.seed for s in specs] == [1, 2, 3]
    assert [s.prefix for s in specs] == ["run.s1", "run.s2", "run.s3"]


def test_resolve_seeds_from_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seeds = 4, 5\n")
    specs, _ = resolve(parse(["toy", "--config", str(cfg)]), env={})
    assert [s.seed for s in specs] == [4, 5]


def test_resolve_bad_env_seed():
    with pytest.raises(UsageError):
        resolve(parse(["toy"]), env={"CDK_SEED": "x"})


def test_resolve_unknown_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 3\n")
    with pytest.raises(UsageError):
        resolve(parse(["toy", "--config", str(cfg)]), env={})


@pytest.mark.parametrize(
    "command, line",
    [("toy", "n = 50"), ("matcomp", "dim = 3")],
    ids=["toy-n", "matcomp-dim"],
)
def test_resolve_config_key_without_command_flag(tmp_path, command, line):
    # a RunSpec field the command has no flag for is refused, not ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(UsageError, match="does not apply"):
        resolve(parse([command, "--config", str(cfg)]), env={})


def test_resolve_missing_config_file(tmp_path):
    with pytest.raises(OSError):
        resolve(parse(["toy", "--config", str(tmp_path / "absent.cfg")]), env={})


# a config value is read back with its key's RunSpec type; strings are
# stripped, so a drawn string has no surrounding whitespace
_CONFIG_VALUES = {
    int: st.integers(-(10**12), 10**12),
    float: st.floats(allow_nan=False),
    str: st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12).filter(
        lambda t: t == t.strip()
    ),
}
_CONFIG_KINDS = {
    f.name: cli._field_kind(f.type) for f in dataclasses.fields(RunSpec) if f.name != "command"
}
_CONFIG_KINDS["seeds"] = str


@st.composite
def _config_entries(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_KINDS)), unique=True, max_size=8))
    return {key: draw(_CONFIG_VALUES[_CONFIG_KINDS[key]]) for key in keys}


@settings(max_examples=80, deadline=None)
@given(entries=_config_entries(), data=st.data())
def test_config_file_roundtrip(tmp_path_factory, entries, data):
    lines = ["# drawn settings", ""]
    for key, val in entries.items():
        spelled = key.replace("_", "-") if data.draw(st.booleans()) else key
        pad = data.draw(st.sampled_from(["", " ", "\t"]))
        lines.append(f"{pad}{spelled}{pad}={pad}{val}{pad}")
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    parsed = cli._parse_config_file(path)
    assert parsed == entries
    assert {key: type(val) for key, val in parsed.items()} == {
        key: _CONFIG_KINDS[key] for key in entries
    }


# the flags of each command: its RunSpec fields, beside command, seeds, jobs
# and config, which are not RunSpec fields or not flags
_COMMON_FIELDS = {
    "algo", "seed", "iters", "tol", "prefix", "heuristic_m", "dump_to",
}
_SDP_FIELDS = {"n", "noise_snr", "gamma", "sketch", "greedy_every", "trace_bound"}
_COMMAND_FIELDS = {
    "toy": _COMMON_FIELDS | {"dim"},
    "matcomp": _COMMON_FIELDS | _SDP_FIELDS | {"rank", "density", "block"},
    "phase": _COMMON_FIELDS | _SDP_FIELDS | {"m", "image", "recon_rank"},
}
# a value to spell on the command line for each RunSpec flag, and what it
# must parse to, type included
_FLAG_SAMPLES = {
    "algo": ("mocoh", "mocoh"),
    "seed": ("7", 7),
    "iters": ("12", 12),
    "tol": ("1e-6", 1e-6),
    "prefix": ("out/x", "out/x"),
    "heuristic_m": ("2.5", 2.5),
    "dump_to": ("inst.npz", "inst.npz"),
    "dim": ("6", 6),
    "n": ("40", 40),
    "noise_snr": ("20", 20.0),
    "gamma": ("0.5", 0.5),
    "sketch": ("6", 6),
    "greedy_every": ("5", 5),
    "trace_bound": ("3", 3.0),
    "rank": ("2", 2),
    "density": ("0.2", 0.2),
    "block": ("4", 4),
    "m": ("8", 8),
    "image": ("face.pgm", "face.pgm"),
    "recon_rank": ("2", 2),
}


def test_each_command_has_exactly_its_flags():
    runspec_fields = {f.name for f in dataclasses.fields(RunSpec)} - {"command"}
    assert set(_FLAG_SAMPLES) == runspec_fields
    assert set().union(*_COMMAND_FIELDS.values()) == runspec_fields
    for command, fields in _COMMAND_FIELDS.items():
        given = vars(parse([command]))
        assert set(given) == fields | {"command", "seeds", "jobs", "config"}
        assert given["command"] == command
        assert all(given[key] is None for key in given if key != "command")
        argv = [command]
        for name in sorted(fields):
            argv += ["--" + name.replace("_", "-"), _FLAG_SAMPLES[name][0]]
        parsed = vars(parse(argv + ["--seeds", "1,2", "--jobs", "2", "--config", "c.cfg"]))
        for name in fields:
            expected = _FLAG_SAMPLES[name][1]
            assert parsed[name] == expected, name
            assert type(parsed[name]) is type(expected), name
        assert (parsed["seeds"], parsed["jobs"], parsed["config"]) == ("1,2", 2, "c.cfg")


# ---------------------------------------------------------------------------
# validation


def test_validate_algo_command_pairing():
    with pytest.raises(UsageError):
        validate(RunSpec(command="toy", algo="fw"))
    with pytest.raises(UsageError):
        validate(RunSpec(command="toy", algo="mocog"))
    validate(RunSpec(command="matcomp", algo="mocog"))


def test_validate_fw_needs_trace_bound():
    with pytest.raises(UsageError):
        validate(RunSpec(command="matcomp", algo="fw"))
    validate(RunSpec(command="matcomp", algo="fw", trace_bound=3.0))


def test_validate_mocoh_matcomp_needs_m():
    with pytest.raises(UsageError):
        validate(RunSpec(command="matcomp", algo="mocoh"))
    validate(RunSpec(command="matcomp", algo="mocoh", heuristic_m=2.0))


# ---------------------------------------------------------------------------
# end-to-end runs


@pytest.mark.parametrize(
    "argv",
    [["toy"], ["matcomp", "--n", "20"], ["phase", "--n", "16", "--m", "4"]],
    ids=["toy", "matcomp", "phase"],
)
def test_summary_echoes_only_the_commands_settings(tmp_path, argv):
    # the config echo holds the command and one key per flag it has, the
    # keys a --config file may set; toy echoes no sketch, rank or image
    command = argv[0]
    prefix = tmp_path / "x"
    assert console_main(argv + ["--iters", "3", "--prefix", str(prefix)]) == 0
    with open(f"{prefix}.summary.json") as fh:
        echo = json.load(fh)["config"]
    assert set(echo) == _COMMAND_FIELDS[command] | {"command"}
    assert echo["command"] == command and echo["iters"] == 3


_SHARED_KEYS = {
    "build", "config", "final_dual_cert", "final_f", "iters_run", "stats", "status",
    "wall_ms_total",
}
_SDP_KEYS = {"final_trace", "final_lambda_min"}


@pytest.mark.parametrize(
    "argv, own_keys",
    [
        (["toy"], {"f_star_known", "gap_to_known"}),
        (["matcomp", "--n", "20"], _SDP_KEYS | {"n_observed"}),
        (
            ["matcomp", "--n", "20", "--algo", "fw", "--trace-bound", "30"],
            _SDP_KEYS | {"n_observed"},
        ),
        (
            ["phase", "--n", "16", "--m", "4"],
            _SDP_KEYS | {"m_estimate", "recovery_error", "factor_file"},
        ),
        (
            ["phase", "--n", "16", "--m", "4", "--algo", "fw"],
            _SDP_KEYS | {"m_estimate", "recovery_error", "factor_file"},
        ),
    ],
    ids=["toy", "matcomp", "matcomp-fw", "phase", "phase-fw"],
)
def test_each_command_writes_its_files_and_summary_keys(tmp_path, argv, own_keys):
    # every run writes the trace, the summary and the --dump-to file, and
    # phase its factor file; the summary holds the shared keys and the
    # command's own
    prefix = tmp_path / "run"
    extra = ["--iters", "5", "--prefix", str(prefix), "--dump-to", str(tmp_path / "inst.npz")]
    assert console_main(argv + extra) == 0
    written = {"run.trace.csv", "run.summary.json", "inst.npz"}
    if argv[0] == "phase":
        written.add("run.factor.npz")
    assert {p.name for p in tmp_path.iterdir()} == written
    with open(f"{prefix}.summary.json") as fh:
        summary = json.load(fh)
    assert set(summary) == _SHARED_KEYS | own_keys


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git on PATH")
def test_build_stamp_of_an_untracked_copy_is_unknown(tmp_path):
    # a copy of the package that sits untracked inside another repository
    # does not stamp that repository's commit
    outer = tmp_path / "project"
    outer.mkdir()
    env = {key: val for key, val in os.environ.items() if not key.startswith("GIT_")}
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["commit", "-q", "--allow-empty", "-m", "one"]):
        subprocess.run(git + args, cwd=outer, env=env, check=True, capture_output=True)
    vendor = outer / "vendor"
    shutil.copytree(
        os.path.dirname(cli.__file__), vendor / "cdkit",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    script = (
        f"import sys; sys.path.insert(0, {str(vendor)!r}); import cdkit.cli; "
        f"assert cdkit.cli.__file__.startswith({str(vendor)!r}); "
        "print(cdkit.cli._build_stamp())"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "unknown\n"


def test_removed_trace_every_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        console_main(["toy", "--trace-every", "3"])
    assert info.value.code == 2
    assert "--trace-every" in capsys.readouterr().err


def test_toy_run_writes_trace_and_summary(tmp_path):
    prefix = tmp_path / "t"
    code = console_main(["toy", "--iters", "40", "--prefix", str(prefix)])
    assert code == 0
    with open(f"{prefix}.trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "f", "dual_cert", "cs", "eta", "theta", "wall_ms"]
    assert len(rows) > 2
    with open(f"{prefix}.summary.json") as fh:
        summary = json.load(fh)
    assert summary["status"] in ("converged", "max_iters")
    assert summary["config"]["iters"] == 40
    assert "f_star_known" in summary
    assert list(summary) == sorted(summary)


def test_runs_are_deterministic_modulo_walltime(tmp_path):
    # the phase-mocog summary carries its refit events, which reruns match
    def strip(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_ms")
        return [[c for i, c in enumerate(row) if i != drop] for row in rows]

    def summary(prefix):
        with open(f"{prefix}.summary.json") as fh:
            out = json.load(fh)
        out.pop("wall_ms_total"), out["config"].pop("prefix"), out.pop("factor_file", None)
        return out

    runs = {
        "toy": ["toy", "--iters", "30"],
        "phase": ["phase", "--n", "16", "--m", "3", "--algo", "mocog", "--greedy-every", "5",
                  "--iters", "20"],
    }
    for name, argv in runs.items():
        a = tmp_path / f"{name}-a"
        b = tmp_path / f"{name}-b"
        for prefix in (a, b):
            assert console_main(argv + ["--prefix", str(prefix)]) == 0
        assert strip(f"{a}.trace.csv") == strip(f"{b}.trace.csv")
        assert summary(a) == summary(b)
    events = summary(tmp_path / "phase-a")["stats"]["greedy_events"]
    assert [e["k"] for e in events] == [4, 9, 14, 19]
    # each event says whether its refit restarted the momentum average
    assert [e["restart"] for e in events] == [True, False, False, False]


def test_phase_run_writes_factor(tmp_path):
    prefix = tmp_path / "p"
    code = console_main(
        ["phase", "--n", "16", "--m", "3", "--iters", "30", "--prefix", str(prefix)]
    )
    assert code == 0
    with np.load(f"{prefix}.factor.npz") as npz:
        assert npz["u"].shape[0] == 16
    with open(f"{prefix}.summary.json") as fh:
        summary = json.load(fh)
    assert "recovery_error" in summary
    # a max_iters run confirms once, on its last visit
    assert summary["stats"]["lmo_confirmations"] == 1


@pytest.mark.parametrize("extra", [[], ["--n", "1"]], ids=["image", "image-overrides-n"])
def test_phase_image_sets_signal_length(tmp_path, extra):
    # a 4 x 5 graymap is a signal of length 20, whatever --n says
    image = tmp_path / "img.pgm"
    image.write_bytes(b"P5\n5 4\n255\n" + np.arange(1, 21, dtype=np.uint8).tobytes())
    prefix = tmp_path / "p"
    code = console_main(
        ["phase", "--image", str(image), "--m", "3", "--iters", "5", "--prefix", str(prefix)]
        + extra
    )
    assert code == 0
    with np.load(f"{prefix}.factor.npz") as npz:
        assert npz["u"].shape[0] == 20
    with open(f"{prefix}.summary.json") as fh:
        assert json.load(fh)["config"]["n"] == 20


@pytest.mark.parametrize(
    "argv, build, kind, names",
    [
        (
            ["toy", "--dim", "6"],
            lambda: build_orthant_quadratic(dim=6, seed=3),
            "orthant_quadratic",
            ("quad", "lin", "x_star"),
        ),
        (
            ["matcomp", "--n", "20", "--rank", "2", "--block", "4", "--density", "0.2"],
            lambda: build_matcomp(n=20, rank=2, seed=3, block=4, density=0.2),
            "matcomp",
            ("row_idx", "col_idx", "b", "v_true"),
        ),
        (
            ["phase", "--n", "16", "--m", "3"],
            lambda: build_phase_retrieval(n=16, m=3, seed=3),
            "phase",
            ("signs", "b", "x_true"),
        ),
    ],
    ids=["toy", "matcomp", "phase"],
)
def test_dump_to_writes_plain_npz_at_given_path(tmp_path, argv, build, kind, names):
    # no .npz suffix: the file must sit at exactly this path, where
    # np.savez given the bare string would have appended one
    path = tmp_path / "instance.bin"
    prefix = tmp_path / "run"
    code = console_main(
        argv + ["--seed", "3", "--iters", "5", "--prefix", str(prefix), "--dump-to", str(path)]
    )
    assert code == 0
    written = {p.name for p in tmp_path.iterdir()}
    assert {p for p in written if not p.startswith("run.")} == {"instance.bin"}
    bundle = build()
    with np.load(path, allow_pickle=False) as npz:
        assert sorted(npz.files) == sorted(("kind", "seed") + names)
        assert npz["kind"].dtype.kind == "U"
        assert str(npz["kind"]) == kind
        assert npz["seed"].shape == ()
        assert int(npz["seed"]) == 3
        for name in names:
            want = getattr(bundle, name)
            assert npz[name].dtype == want.dtype, name
            np.testing.assert_array_equal(npz[name], want)


def test_dump_to_takes_the_one_seed_cdk_seed_pins(tmp_path, monkeypatch):
    # CDK_SEED overrides a seed list, so the one run writes the one file
    monkeypatch.setenv("CDK_SEED", "3")
    path = tmp_path / "instance.npz"
    argv = ["toy", "--seeds", "0,1", "--iters", "5", "--prefix", str(tmp_path / "run")]
    assert console_main(argv + ["--dump-to", str(path)]) == 0
    with np.load(path) as npz:
        assert int(npz["seed"]) == 3
        np.testing.assert_array_equal(npz["x_star"], build_orthant_quadratic(seed=3).x_star)


def test_matcomp_env_seed_is_echoed(tmp_path, monkeypatch):
    monkeypatch.setenv("CDK_SEED", "11")
    prefix = tmp_path / "m"
    code = console_main(
        ["matcomp", "--n", "30", "--rank", "2", "--iters", "20", "--prefix", str(prefix)]
    )
    assert code == 0
    with open(f"{prefix}.summary.json") as fh:
        summary = json.load(fh)
    assert summary["config"]["seed"] == 11


def test_seed_fanout_writes_one_file_per_seed(tmp_path):
    prefix = tmp_path / "fan"
    code = console_main(
        ["toy", "--iters", "15", "--seeds", "0,1,2", "--prefix", str(prefix)]
    )
    assert code == 0
    for seed in (0, 1, 2):
        with open(f"{prefix}.s{seed}.summary.json") as fh:
            assert json.load(fh)["config"]["seed"] == seed


def _scheduled_thetas(prefix, m):
    # whether every step in the trace file is 2 M / (k + 2); the last visit
    # takes none
    with open(f"{prefix}.trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    return len(rows) > 1 and all(
        float(row["theta"]) == 2.0 * m / (int(row["k"]) + 2.0) for row in rows[:-1]
    )


def test_mocoh_auto_m_on_toy_and_phase(tmp_path, monkeypatch):
    # mocoh takes each step from the command's own estimate of M and
    # searches none
    toy_searches = log_calls(monkeypatch, core, "line_search_step")
    sdp_searches = log_calls(monkeypatch, sdp, "line_search_step")
    prefix = tmp_path / "h"
    code = console_main(["toy", "--algo", "mocoh", "--iters", "25", "--prefix", str(prefix)])
    assert code == 0
    toy = build_orthant_quadratic(dim=RunSpec(command="toy").dim, seed=0)
    assert _scheduled_thetas(prefix, float(np.linalg.norm(toy.x_star)))

    prefix2 = tmp_path / "h2"
    code = console_main(
        ["phase", "--algo", "mocoh", "--n", "16", "--m", "3", "--iters", "25",
         "--prefix", str(prefix2)]
    )
    assert code == 0
    with open(f"{prefix2}.summary.json") as fh:
        summary2 = json.load(fh)
    assert _scheduled_thetas(prefix2, summary2["m_estimate"])
    assert toy_searches == sdp_searches == []


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exits_two(capsys):
    assert console_main(["matcomp", "--algo", "fw", "--n", "20"]) == 2
    assert "trace-bound" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["toy", "--tol", "nan"], "tol"),
        (["matcomp", "--n", "20", "--algo", "fw", "--trace-bound", "nan"], "trace-bound"),
        (["matcomp", "--n", "20", "--gamma", "nan"], "gamma"),
        (["toy", "--tol", "inf"], "tol"),
        (["toy", "--algo", "mocoh", "--heuristic-m", "inf"], "heuristic-m"),
        (["matcomp", "--n", "20", "--algo", "fw", "--trace-bound", "inf"], "trace-bound"),
        (["matcomp", "--n", "20", "--gamma", "inf"], "gamma"),
        (["matcomp", "--n", "20", "--density", "nan"], "density"),
    ],
    ids=[
        "toy-tol", "matcomp-fw-trace-bound", "matcomp-gamma", "toy-tol-inf",
        "toy-heuristic-m-inf", "matcomp-fw-trace-bound-inf", "matcomp-gamma-inf",
        "matcomp-density-nan",
    ],
)
def test_nan_option_exits_two(tmp_path, capsys, argv, option):
    # NaN compares false both ways, so each range check must be written to
    # fail it, and an infinite value must fail it too; these used to run
    # (exit 0, an infinite tol stopping at the first visit) or fail in the
    # solver (exit 3)
    code = console_main(argv + ["--iters", "5", "--prefix", str(tmp_path / "x")])
    assert code == 2
    assert option in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _toy_solve(**config):
    return solve(build_orthant_quadratic(dim=3).program, SolverConfig(**config))


def _matcomp_solve(**kwargs):
    bundle = build_matcomp(n=20)
    return sdp_solve(bundle.fv, bundle.op, **kwargs)


def _phase_solve(**kwargs):
    bundle = build_phase_retrieval(n=16)
    return sdp_solve(bundle.fv, bundle.op, **kwargs)


# one case per range the command line leaves to the library: the flags, and
# the library call that rejects the same setting
_LIBRARY_RANGES = {
    "toy-iters": (["toy", "--iters", "0"], lambda: _toy_solve(max_iters=0)),
    "toy-tol": (["toy", "--tol=-1"], lambda: _toy_solve(tol_eps=-1.0)),
    "toy-dim": (["toy", "--dim", "0"], lambda: build_orthant_quadratic(dim=0)),
    "toy-seed": (["toy", "--seed", "-1"], lambda: build_orthant_quadratic(seed=-1)),
    "matcomp-n": (["matcomp", "--n", "0"], lambda: build_matcomp(n=0)),
    "matcomp-rank": (
        ["matcomp", "--n", "20", "--rank", "0"], lambda: build_matcomp(n=20, rank=0)
    ),
    "matcomp-block": (
        ["matcomp", "--n", "20", "--block", "-1"], lambda: build_matcomp(n=20, block=-1)
    ),
    "matcomp-density": (
        ["matcomp", "--n", "20", "--density", "0"], lambda: build_matcomp(n=20, density=0.0)
    ),
    "phase-n": (["phase", "--n", "1"], lambda: build_phase_retrieval(n=1)),
    "phase-m": (["phase", "--n", "16", "--m", "0"], lambda: build_phase_retrieval(n=16, m=0)),
    "matcomp-sketch": (
        ["matcomp", "--n", "20", "--sketch", "1"], lambda: _matcomp_solve(sketch_size=1)
    ),
    "phase-sketch": (
        ["phase", "--n", "16", "--sketch", "1"], lambda: _phase_solve(sketch_size=1)
    ),
    # two columns read out at no rank, so the floor is 3
    "matcomp-sketch-2": (
        ["matcomp", "--n", "20", "--sketch", "2"], lambda: _matcomp_solve(sketch_size=2)
    ),
    "matcomp-gamma": (["matcomp", "--n", "20", "--gamma=-1"], lambda: _matcomp_solve(gamma=-1.0)),
    "phase-noise-snr": (
        ["phase", "--n", "16", "--m", "4", "--noise-snr", "nan"],
        lambda: build_phase_retrieval(n=16, m=4, noise_snr=math.nan),
    ),
    # argparse reads a bare "-inf" as a flag
    "phase-noise-snr-minus-inf": (
        ["phase", "--n", "16", "--m", "4", "--noise-snr=-inf"],
        lambda: build_phase_retrieval(n=16, m=4, noise_snr=-math.inf),
    ),
    "toy-iters-jobs2": (
        ["toy", "--iters", "0", "--seeds", "0,1", "--jobs", "2"],
        lambda: _toy_solve(max_iters=0),
    ),
    # SNRs so far from 0 dB that the ratio or the noise leaves the float range
    "phase-noise-snr-7000": (
        ["phase", "--n", "16", "--m", "4", "--noise-snr", "7000"],
        lambda: build_phase_retrieval(n=16, m=4, noise_snr=7000.0),
    ),
    "phase-noise-snr-minus-6200": (
        ["phase", "--n", "16", "--m", "4", "--noise-snr=-6200"],
        lambda: build_phase_retrieval(n=16, m=4, noise_snr=-6200.0),
    ),
    "matcomp-noise-snr-minus-7000": (
        ["matcomp", "--n", "20", "--noise-snr=-7000"],
        lambda: build_matcomp(n=20, noise_snr=-7000.0),
    ),
    # the three readout ranks sketch_reconstruct rejects: below 1, too wide
    # for the sketch, and above the matrix side, which a sketch of 10
    # columns would otherwise resolve
    "phase-recon-rank-0": (
        ["phase", "--n", "16", "--m", "4", "--recon-rank", "0"],
        lambda: sdp.sketch_reconstruct(sdp.SketchState.create(16, 8), 0),
    ),
    "phase-recon-rank-5-sketch-6": (
        ["phase", "--n", "16", "--m", "4", "--sketch", "6", "--recon-rank", "5"],
        lambda: sdp.sketch_reconstruct(sdp.SketchState.create(16, 6), 5),
    ),
    "phase-recon-rank-above-n": (
        ["phase", "--n", "3", "--m", "4", "--iters", "5", "--sketch", "10", "--recon-rank", "6"],
        lambda: sdp.sketch_reconstruct(sdp.SketchState.create(3, 10), 6),
    ),
}


@pytest.mark.parametrize(
    "argv, call", list(_LIBRARY_RANGES.values()), ids=list(_LIBRARY_RANGES)
)
def test_cli_range_errors_are_library_errors(tmp_path, capsys, argv, call):
    # the library owns these checks: each run fails with the library's own
    # message on one "<prefix>: <message>" line, exits 2 and writes nothing
    with pytest.raises(ValueError) as info:
        call()
    prefix = str(tmp_path / "x")
    code = console_main(argv + ["--prefix", prefix])
    assert code == 2
    prefixes = [f"{prefix}.s0", f"{prefix}.s1"] if "--seeds" in argv else [prefix]
    assert capsys.readouterr().err.splitlines() == [f"{p}: {info.value}" for p in prefixes]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--recon-rank", "0"], "reconstruction rank must be an int >= 1, got 0"),
        (["--sketch", "6", "--recon-rank", "5"], "rank 5 needs a sketch larger than 6 columns"),
        (["--sketch", "10", "--recon-rank", "6"], "rank 6 is above the matrix side n = 3"),
        # a width below 3 is reported before any rank
        (["--sketch", "2", "--recon-rank", "6"], "sketch size must be an int >= 3, got 2"),
    ],
    ids=["rank-0", "rank-5-sketch-6", "rank-above-n", "sketch-2"],
)
@pytest.mark.parametrize("algo", ["moco", "fw"])
def test_readout_errors_fail_before_the_solve(tmp_path, monkeypatch, capsys, extra, message, algo):
    # the readout's checks run once the instance is built, so a rejected
    # width or rank starts no solve and writes no file
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve started")

    monkeypatch.setattr(cli, "sdp_solve", no_solve)
    monkeypatch.setattr(cli, "fw_solve", no_solve)
    prefix = str(tmp_path / "x")
    argv = ["phase", "--n", "3", "--m", "4", "--algo", algo, "--prefix", prefix]
    assert console_main(argv + extra) == 2
    assert capsys.readouterr().err.splitlines() == [f"{prefix}: {message}"]
    assert list(tmp_path.iterdir()) == []


def test_zero_atom_certificate_is_positive_zero(tmp_path):
    # on one dimension the orthant LMO returns the zero atom at visit 0, so
    # -<g, v> is a zero; the trace, its CSV and the summary hold +0.0
    res = solve(build_orthant_quadratic(dim=1, seed=0).program, SolverConfig(max_iters=3))
    path = tmp_path / "t.csv"
    res.trace.write_csv(path)
    with open(path) as fh:
        csv_certs = [float(row["dual_cert"]) for row in csv.DictReader(fh)]
    prefix = tmp_path / "x"
    assert console_main(["toy", "--dim", "1", "--iters", "3", "--prefix", str(prefix)]) == 0
    with open(f"{prefix}.summary.json") as fh:
        summary_cert = json.load(fh)["final_dual_cert"]
    certs = list(res.trace.dual_certs()) + csv_certs + [summary_cert]
    assert certs and all(c == 0.0 and math.copysign(1.0, c) == 1.0 for c in certs)


def test_non_finite_run_prints_no_numpy_warning(tmp_path):
    # an M near the float limit overflows the schedule: the run fails the
    # library's non-finite guard on its one stderr line, and numpy's
    # RuntimeWarnings, which name library source lines, stay silent
    argv = ["toy", "--iters", "3", "--algo", "mocoh", "--heuristic-m", "1e308"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert console_main(argv + ["--prefix", str(tmp_path / "x")]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_infinite_noise_snr_means_no_noise(tmp_path):
    # +inf stays a valid SNR: the run sees the clean measurements
    finals = []
    for name, extra in (("clean", []), ("inf", ["--noise-snr", "inf"])):
        prefix = tmp_path / name
        argv = ["phase", "--n", "16", "--m", "4", "--iters", "10", "--prefix", str(prefix)]
        assert console_main(argv + extra) == 0
        with open(f"{prefix}.summary.json") as fh:
            summary = json.load(fh)
        finals.append((summary["final_f"], summary["final_dual_cert"]))
    assert finals[0] == finals[1]


@pytest.mark.parametrize(
    "fields",
    [
        dict(command="toy", iters="5"),
        dict(command="toy", seed=1.5),
        dict(command="matcomp", gamma="0.5"),
        dict(command="phase", prefix=3),
    ],
    ids=["str-int", "float-int", "str-float", "int-str"],
)
def test_spec_worker_rejects_mistyped_fields(tmp_path, monkeypatch, fields):
    # a library RunSpec is not parsed, so validate checks each field against
    # its declared type; the spec worker must answer with exit 2, not raise
    monkeypatch.chdir(tmp_path)
    _, code, msg = cli._spec_worker(RunSpec(**fields))
    assert code == 2, msg
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "fields",
    [
        dict(command="matcomp", algo="fw", n=20),
        dict(command="toy", algo="fw"),
        dict(command="toy", algo="moco", heuristic_m=-1.0),
        dict(command="toy", algo="mocoh", heuristic_m=float("nan")),
        dict(command="toy", iters=0),
        dict(command="toy", tol=-1.0),
        dict(command="matcomp", density=0.0),
        dict(command="bogus"),
    ],
    ids=[
        "matcomp-fw-without-bound", "toy-fw", "toy-negative-m", "toy-nan-m",
        "toy-zero-iters", "toy-negative-tol", "matcomp-zero-density", "unknown-command",
    ],
)
def test_run_experiment_validates_its_spec(tmp_path, fields):
    # the library entry point rejects a bad spec before any file is written:
    # validate checks what the library cannot, and the builders and solvers
    # check the ranges of what they are given (a NaN M fails the solver's own
    # config check)
    spec = RunSpec(**{"iters": 5, "prefix": str(tmp_path / "x"), **fields})
    _, code, msg = cli._spec_worker(spec)
    assert code == 2, msg
    assert list(tmp_path.iterdir()) == []


def test_solver_error_exits_three(tmp_path, monkeypatch):
    from cdkit.exceptions import EigFailure

    def boom(*args, **kwargs):
        raise EigFailure("synthetic failure")

    monkeypatch.setattr(cli, "sdp_solve", boom)
    code = console_main(
        ["matcomp", "--n", "20", "--rank", "2", "--iters", "5",
         "--prefix", str(tmp_path / "x")]
    )
    assert code == 3


@pytest.mark.parametrize(
    "fanout", [[], ["--seeds", "0,1", "--jobs", "2"]], ids=["single", "jobs2"]
)
def test_value_error_in_solve_exits_two(tmp_path, monkeypatch, capsys, fanout):
    def bad_input(*args, **kwargs):
        raise ValueError("synthetic dimension mismatch")

    monkeypatch.setattr(cli, "sdp_solve", bad_input)
    code = console_main(
        ["matcomp", "--n", "20", "--rank", "2", "--iters", "5",
         "--prefix", str(tmp_path / "x")] + fanout
    )
    assert code == 2
    assert "synthetic dimension mismatch" in capsys.readouterr().err


def test_io_error_exits_four(tmp_path):
    missing_dir = tmp_path / "nope" / "deeper" / "out"
    code = console_main(["toy", "--iters", "5", "--prefix", str(missing_dir)])
    assert code == 4


def test_solver_error_exits_three_under_jobs(tmp_path, monkeypatch, capsys):
    from cdkit.exceptions import EigFailure

    def boom(*args, **kwargs):
        raise EigFailure("synthetic failure")

    monkeypatch.setattr(cli, "sdp_solve", boom)
    code = console_main(
        ["matcomp", "--n", "20", "--rank", "2", "--iters", "5",
         "--prefix", str(tmp_path / "x"), "--seeds", "0,1", "--jobs", "2"]
    )
    assert code == 3
    assert capsys.readouterr().err.count("synthetic failure") == 2


def test_jobs_start_at_most_one_worker_per_run(tmp_path, monkeypatch, capsys):
    # a fake pool that records its size and maps in this process: a real
    # one would fork every worker it is asked for at the first submit
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # console_main imports the pool class when it starts a pool, so the fake
    # replaces it where that import reads it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    printed = []
    for jobs in ("64", "2"):
        argv = ["toy", "--iters", "5", "--seeds", "0,1", "--jobs", jobs]
        assert console_main(argv + ["--prefix", str(tmp_path / "x")]) == 0
        printed.append(capsys.readouterr().out)
    assert sizes == [2, 2]
    assert printed[0] == printed[1] and printed[0].count("status=") == 2


def test_io_error_exits_four_under_jobs(tmp_path):
    missing_dir = tmp_path / "nope" / "deeper" / "out"
    code = console_main(
        ["toy", "--iters", "5", "--prefix", str(missing_dir), "--seeds", "0,1",
         "--jobs", "2"]
    )
    assert code == 4


# ---------------------------------------------------------------------------
# entry paths: resolve-time exits, fw runs, malformed images


@pytest.mark.parametrize(
    "lines, argv, env",
    [
        ("bogus = 3\n", [], {}),
        ("trace_every = 7\n", [], {}),
        ("iters 42\n", [], {}),
        ("iters = many\n", [], {}),
        (None, ["--seeds", "1,x"], {}),
        (None, ["--seeds", ","], {}),
        (None, ["--jobs", "0"], {}),
        (None, [], {"CDK_SEED": "x"}),
        # two runs of one seed would write the same files
        (None, ["--seeds", "1,1"], {}),
        (None, ["--seeds", "1,2,01", "--jobs", "2"], {}),
        ("seeds = 2, 3, 2\n", [], {}),
        # every run would write its instance to the one --dump-to path
        (None, ["--seeds", "0,1", "--dump-to", "d.npz"], {}),
        (None, ["--seeds", "0,1", "--jobs", "2", "--dump-to", "d.npz"], {}),
        ("seeds = 0, 1\ndump_to = d.npz\n", [], {}),
        ("dump_to = d.npz\n", ["--seeds", "0,1"], {}),
    ],
    ids=[
        "unknown-key", "trace-every-key", "no-equals", "bad-value", "seeds-bad",
        "seeds-empty", "jobs-0", "env-seed", "seeds-repeated", "seeds-repeated-jobs2",
        "seeds-repeated-config", "dump-to-seeds", "dump-to-seeds-jobs2", "dump-to-config",
        "dump-to-config-seeds-flag",
    ],
)
def test_resolve_errors_exit_two(tmp_path, monkeypatch, capsys, lines, argv, env):
    # settings that cannot be resolved fail before any run: one "error:"
    # line on stderr, exit 2 and no files, relative --dump-to paths included
    monkeypatch.delenv("CDK_SEED", raising=False)
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    if lines is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        argv = argv + ["--config", str(cfg)]
    code = console_main(["toy", "--iters", "5", "--prefix", str(out / "x")] + argv)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert list(out.iterdir()) == []


def test_missing_config_file_exits_four(tmp_path, capsys):
    code = console_main(
        ["toy", "--config", str(tmp_path / "absent.cfg"), "--prefix", str(tmp_path / "x")]
    )
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("io error: ")
    assert list(tmp_path.iterdir()) == []


def test_greedy_every_zero_exits_two(tmp_path, capsys):
    prefix = str(tmp_path / "x")
    argv = ["matcomp", "--n", "20", "--algo", "mocog", "--greedy-every", "0"]
    assert console_main(argv + ["--prefix", prefix]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"{prefix}: greedy-every must be an int >= 1, got 0"
    ]
    assert list(tmp_path.iterdir()) == []


def test_jobs_zero_exits_two(tmp_path, capsys):
    # --jobs goes through the library's count check, whose ValueError is a
    # usage error before any run starts
    argv = ["toy", "--jobs", "0", "--prefix", str(tmp_path / "x")]
    assert console_main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: --jobs must be an int >= 1, got 0"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, tau",
    [
        (["matcomp", "--n", "20", "--rank", "2", "--trace-bound", "30"], lambda b: 30.0),
        (["phase", "--n", "16", "--m", "4"], lambda b: 2.0 * b.m_estimate),
    ],
    ids=["matcomp-trace-bound", "phase-default-bound"],
)
def test_fw_run_writes_trace_and_summary(tmp_path, monkeypatch, argv, tau):
    # a successful fw run through the command line: its files agree with
    # fw_solve called directly at the same trace bound
    prefix = tmp_path / "fw"
    searches = log_calls(monkeypatch, sdp, "_search")
    code = console_main(argv + ["--algo", "fw", "--iters", "15", "--prefix", str(prefix)])
    assert code == 0
    n_searches = len(searches)
    with open(f"{prefix}.trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "lambda_min" and len(rows) == 17
    with open(f"{prefix}.summary.json") as fh:
        summary = json.load(fh)
    if argv[0] == "phase":
        bundle = build_phase_retrieval(n=16, m=4, seed=0)
    else:
        bundle = build_matcomp(n=20, rank=2, seed=0)
    res = cli.fw_solve(
        bundle.fv, bundle.op, tau=tau(bundle), gamma=bundle.gamma,
        config=SolverConfig(max_iters=15),
    )
    assert summary["final_f"] == res.trace[-1].f_value
    assert summary["final_trace"] == res.final_tr
    # one segment search per visit that stepped: all but the last
    assert n_searches == res.trace[-1].k == summary["iters_run"]


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"P7\n5 4\n255\n" + bytes(range(1, 21)), "not a graymap file"),
        (b"P5\n0 4\n255\n", "bad graymap dimensions"),
        (b"P5\n5 4\n255\n" + bytes(range(1, 11)), "truncated image payload"),
        (b"P5\n5 4\n255\n" + bytes(20), "signal has zero norm"),
        (b"P5\nx 2\n255\n", "bad graymap header width"),
        (b"P2\n2 2\n255\n1 2 x 4\n", "bad graymap payload"),
        # a NaN sample would otherwise reach the solver and exit 3
        (b"P2\n2 2\n255\n1 2 nan 4\n", "bad graymap payload"),
        (b"P5\n2 2\n", "truncated image header"),
        (b"P2\n2 2\n255\n1 2 3\n", "truncated image payload"),
        # a sample above maxval would read as a pixel above 1
        (b"P2\n2 2\n255\n1 2 300 4\n", "bad graymap payload sample: 300"),
        (b"P5\n1 1\n1000\n" + (2000).to_bytes(2, "big"), "bad graymap payload sample: 2000"),
        # one too long for a float
        (b"P2\n1 1\n255\n" + b"9" * 400 + b"\n", "bad graymap payload sample: 999"),
        # too long for int() itself
        (b"P2\n1 1\n255\n" + b"9" * 5000 + b"\n", "bad graymap payload sample: 5000 digits"),
        (b"P5\n" + b"9" * 5000 + b" 1\n255\n\x00", "bad graymap header width: 5000 digits"),
    ],
    ids=[
        "header", "dimensions", "payload", "all-zero", "header-token", "p2-payload-token",
        "p2-payload-nan", "header-cut", "p2-payload-cut", "p2-above-maxval", "p5-above-maxval",
        "p2-long-sample", "p2-huge-sample", "huge-header-width",
    ],
)
def test_bad_phase_image_exits_two(tmp_path, capsys, payload, message):
    image = tmp_path / "img.pgm"
    image.write_bytes(payload)
    out = tmp_path / "out"
    out.mkdir()
    prefix = str(out / "p")
    code = console_main(
        ["phase", "--image", str(image), "--m", "3", "--iters", "5", "--prefix", prefix]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{prefix}: {message}")
    assert list(out.iterdir()) == []
