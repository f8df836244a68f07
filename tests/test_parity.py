"""The parity check of tools/parity.py, run against this checkout itself."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_parity_smoke_against_itself():
    # both sides import this checkout's src/, so every field of the 3 smoke
    # solves must be identical to the bit and the check must exit 0
    script = os.path.join(ROOT, "tools", "parity.py")
    out = subprocess.run(
        [sys.executable, script, "--against", ROOT, "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[-1] == "every field identical"
    assert len(lines) == 22 and all(line.endswith(" identical") for line in lines)


def test_parity_compare_reports_what_differs():
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        import parity
    finally:
        sys.path.pop(0)
    assert parity.compare({"a": 1.0, "b": [2, "x"]}, {"a": 1.0, "b": [2, "x"]}) == "identical"
    assert parity.compare({"a": 0.5}, {"a": 0.5, "c": 1}) == "keys added: c"
    assert parity.compare({"a": 4.0}, {"a": 5.0}) == "largest relative change 0.2 at a"
    assert parity.compare({"a": "x"}, {"a": "y"}) == "largest relative change inf at a"
