"""The code-line count of tools/loc.py, run on this checkout."""

import os
import subprocess
import sys

import cdkit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_loc_module_counts_add_up_to_the_total():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "loc.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    counts = {name: int(value) for name, value in map(str.split, out.stdout.splitlines())}
    package = os.path.join(ROOT, "src", "cdkit")
    modules = sorted(name[:-3] for name in os.listdir(package) if name.endswith(".py"))
    assert list(counts) == modules + ["total", "__all__"]
    assert all(counts[name] > 0 for name in modules)
    assert sum(counts[name] for name in modules) == counts["total"]
    assert counts["__all__"] == len(cdkit.__all__)
