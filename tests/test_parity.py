"""The parity check of tools/parity.py, run against this checkout itself."""

import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_parity_smoke_against_itself():
    # both sides import this checkout's src/, so every field of the 3 smoke
    # solves, the two semidefinite ones' readouts included, must be
    # identical to the bit and the check must exit 0
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
    assert len(lines) == 24 and all(line.endswith(" identical") for line in lines)


def test_parity_compare_reports_what_differs():
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        import parity
    finally:
        sys.path.pop(0)
    assert parity.compare({"a": 1.0, "b": [2, "x"]}, {"a": 1.0, "b": [2, "x"]}) == "identical"
    assert parity.compare({"a": 0.5}, {"a": 0.5, "c": 1}) == "keys added: c"
    both = "largest relative change 0.2 at a; largest scaled absolute change 0.2 at a"
    assert parity.compare({"a": 4.0}, {"a": 5.0}) == both
    text = "largest relative change inf at a; largest scaled absolute change inf at a"
    assert parity.compare({"a": "x"}, {"a": "y"}) == text
    # a roundoff flip of an entry near zero reads 2 relative, but its
    # absolute change over the leaf's largest magnitude reads it as roundoff
    near_zero = parity.compare(
        {"a": np.array([-2.0, 1e-17]), "b": 1.0},
        {"a": np.array([-2.0, -1e-17]), "b": 1.0 + 2**-52},
    )
    assert near_zero == (
        "largest relative change 2 at a; largest scaled absolute change 2.22e-16 at b"
    )
    # a zero whose sign flipped differs in its bytes, so it never reads
    # identical, whether a number or an entry of an array
    assert parity.compare({"a": 0.0}, {"a": -0.0}) == "sign of zero at a"
    flipped = parity.compare(
        {"a": np.array([1.0, 0.0]), "b": 2.0}, {"a": np.array([1.0, -0.0]), "b": 2.5}
    )
    assert flipped == (
        "sign of zero at a; largest relative change 0.2 at b; "
        "largest scaled absolute change 0.2 at b"
    )
    assert parity.compare(np.array([0.0, 1.0]), np.array([-0.0, 1.0])) == "sign of zero"
    # NaN against a number, and inf against another value, read inf both ways
    assert parity.leaf_change(np.array([np.nan, 1.0]), np.array([0.0, 1.0])) == (np.inf, np.inf)
    assert parity.leaf_change(np.array([np.inf, 3.0]), np.array([1.0, 3.0])) == (np.inf, np.inf)
