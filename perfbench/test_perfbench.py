"""Tests of the benchmark itself.

Run from the repository root with: python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402


def test_smoke_mode_checks_names_units_and_counts():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == "smoke ok"


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    root = tracer.open("bench.unit")
    for _ in range(3):
        outer = tracer.open("core.solve")
        tracer.close(tracer.open("cones.lmo"))
        tracer.close(outer)
    tracer.close(root)
    own = tracer.self_times()
    span = tracer.spans[root]
    assert abs(sum(own) - (span.end - span.start)) < 1e-12
    assert all(t >= 0.0 for t in own)
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0, 3, 0, 5]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    out = subprocess.run(
        spec["command"] + ["--workload", "orthant-sweep", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
