"""Command-line harness: option precedence, validation, output files, exit
codes, and multi-seed fan-out."""

import csv
import json

import numpy as np
import pytest

from cdkit import cli
from cdkit.cli import RunSpec, UsageError, build_parser, console_main, resolve, validate


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


def test_resolve_missing_config_file(tmp_path):
    with pytest.raises(OSError):
        resolve(parse(["toy", "--config", str(tmp_path / "absent.cfg")]), env={})


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


def test_validate_recon_rank_bounds():
    with pytest.raises(UsageError):
        validate(RunSpec(command="phase", recon_rank=0))
    with pytest.raises(UsageError):
        validate(RunSpec(command="phase", sketch=6, recon_rank=5))
    validate(RunSpec(command="phase", sketch=6, recon_rank=4))


def test_validate_numeric_ranges():
    with pytest.raises(UsageError):
        validate(RunSpec(command="toy", iters=0))
    with pytest.raises(UsageError):
        validate(RunSpec(command="toy", tol=-1.0))
    with pytest.raises(UsageError):
        validate(RunSpec(command="matcomp", density=0.0))


# ---------------------------------------------------------------------------
# end-to-end runs


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
    a = tmp_path / "a"
    b = tmp_path / "b"
    for prefix in (a, b):
        assert console_main(["toy", "--iters", "30", "--prefix", str(prefix)]) == 0

    def strip(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_ms")
        return [[c for i, c in enumerate(row) if i != drop] for row in rows]

    assert strip(f"{a}.trace.csv") == strip(f"{b}.trace.csv")
    with open(f"{a}.summary.json") as fh:
        sa = json.load(fh)
    with open(f"{b}.summary.json") as fh:
        sb = json.load(fh)
    sa.pop("wall_ms_total"), sb.pop("wall_ms_total")
    sa["config"].pop("prefix"), sb["config"].pop("prefix")
    assert sa == sb


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


def test_mocoh_auto_m_on_toy_and_phase(tmp_path):
    prefix = tmp_path / "h"
    code = console_main(["toy", "--algo", "mocoh", "--iters", "25", "--prefix", str(prefix)])
    assert code == 0
    with open(f"{prefix}.summary.json") as fh:
        summary = json.load(fh)
    assert summary["stats"]["n_theta_searches"] == 0

    prefix2 = tmp_path / "h2"
    code = console_main(
        ["phase", "--algo", "mocoh", "--n", "16", "--m", "3", "--iters", "25",
         "--prefix", str(prefix2)]
    )
    assert code == 0
    with open(f"{prefix2}.summary.json") as fh:
        summary2 = json.load(fh)
    assert summary2["stats"]["n_theta_searches"] == 0


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exits_two(capsys):
    assert console_main(["matcomp", "--algo", "fw", "--n", "20"]) == 2
    assert "trace-bound" in capsys.readouterr().err


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
