"""scipy's compiled kernels load where they are first needed.

The package root and the command line import numpy only. The LAPACK
routines load when the first semidefinite solve builds its iterate, the
completion kernels with the first build_matcomp and the cosine transforms
with the first build_phase_retrieval. A --seeds run of the command line
runs its seeds in this process, so it loads no process pool either. The
suite itself imports scipy, so the load order is read from sys.modules in a
fresh interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

import cdkit
from cdkit import SolverConfig, fw_solve, sdp, sdp_solve
from cdkit.problems import build_matcomp

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(cdkit.__file__)))

# runs each stage in turn and prints, per stage, which of the watched
# modules it loaded
_STAGES = """
import json, sys

WATCHED = ("scipy.linalg", "scipy.sparse", "scipy.fft", "concurrent.futures.process")
seen = {m for m in WATCHED if m in sys.modules}
added = {}

def stage(name):
    global seen
    now = {m for m in WATCHED if m in sys.modules}
    added[name] = sorted(now - seen)
    seen = now

import cdkit
stage("import cdkit")
import cdkit.cli
stage("import cdkit.cli")
code = cdkit.cli.console_main(["toy", "--iters", "20", "--seeds", "0,1", "--prefix", sys.argv[1]])
assert code == 0, code
stage("cdkit toy")
from cdkit.problems import build_matcomp, build_phase_retrieval
mc = build_matcomp(n=20, rank=2, seed=0)
stage("build_matcomp")
ph = build_phase_retrieval(n=8, m=2, seed=0)
stage("build_phase_retrieval")
cdkit.sdp_solve(mc.fv, mc.op, config=cdkit.SolverConfig(max_iters=2))
stage("sdp_solve")
print(json.dumps(added))
"""


def test_each_scipy_family_loads_with_its_first_user(tmp_path):
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run(
        [sys.executable, "-c", _STAGES, str(tmp_path / "toy")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    added = json.loads(out.stdout.splitlines()[-1])
    assert added == {
        "import cdkit": [],
        "import cdkit.cli": [],
        "cdkit toy": [],
        "build_matcomp": ["scipy.sparse"],
        "build_phase_retrieval": ["scipy.fft"],
        "sdp_solve": ["scipy.linalg"],
    }


@pytest.mark.parametrize("solver", ["sdp_solve", "fw_solve"])
def test_lapack_loads_before_the_descent_starts(monkeypatch, solver):
    # the iterate fetches the LAPACK routines when it is built, so a
    # process's first solve imports scipy.linalg before _descend starts the
    # clock that the trace's wall_ms reads
    events = []
    lapack, descend = sdp._lapack, sdp._descend

    def recording_lapack():
        events.append("lapack")
        return lapack()

    def recording_descend(*args):
        events.append("descend")
        return descend(*args)

    monkeypatch.setattr(sdp, "_lapack", recording_lapack)
    monkeypatch.setattr(sdp, "_descend", recording_descend)
    mc = build_matcomp(n=20, rank=2, seed=0)
    config = SolverConfig(max_iters=3, rng_seed=1)
    if solver == "sdp_solve":
        sdp_solve(mc.fv, mc.op, config=config)
    else:
        fw_solve(mc.fv, mc.op, tau=5.0, config=config)
    assert events[:2] == ["lapack", "descend"]
    # every Ritz solve reads the routines through the same accessor
    assert events.count("lapack") > 2
