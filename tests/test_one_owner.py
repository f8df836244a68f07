"""One owner per rule: one writer of the semidefinite state, one check of a
count and one of a real setting, and a visit loop that reads its iterate
only through the protocol."""

import ast
import dataclasses
import inspect
import json
import math
import pathlib
import re

import numpy as np
import pytest

import cdkit.core
import cdkit.sdp
from cdkit import (
    ConicProgram,
    MeasurementOperator,
    NonnegativeOrthant,
    PsdCone,
    SecondOrderCone,
    SketchState,
    SolverConfig,
    fw_solve,
    min_eig_lanczos,
    sdp_solve,
    sketch_reconstruct,
    solve,
)
from cdkit.cli import RunSpec, validate
from cdkit.problems import (
    add_noise_snr,
    build_matcomp,
    build_orthant_quadratic,
    build_phase_retrieval,
    build_trace_toy,
)

_STATE_ATTRS = {"y", "tr"}
_SKETCH_WRITES = {"scale", "add_rank_one", "replace"}


def _state_writes(tree):
    # (function, line) of every assignment to an attribute y or tr and every
    # call of a method that writes the sketch, tagged with the enclosing
    # class-qualified function name
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            targets = []
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr in _STATE_ATTRS:
                        found.append((owner, child.lineno))
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _SKETCH_WRITES
            ):
                found.append((owner, child.lineno))
            visit(child, name)

    visit(tree, "")
    return found


def test_only_sdp_state_move_writes_the_state():
    # the image, the trace and the sketch of X change in one method; a
    # solver step, the ray rescale or the greedy commit that wrote them
    # itself could let the three drift apart
    tree = ast.parse(pathlib.Path(cdkit.sdp.__file__).read_text())
    writes = _state_writes(tree)
    assert {owner for owner, _ in writes} == {"SdpState.move"}, writes


def test_state_check_sees_a_direct_write():
    # the check itself: a greedy commit written out by hand is caught
    source = (
        "def greedy_step(state, y, s, u):\n"
        "    state.y = y\n"
        "    state.tr += 1.0\n"
        "    state.sketch.replace(s, u)\n"
    )
    owners = [owner for owner, _ in _state_writes(ast.parse(source))]
    assert owners == ["greedy_step"] * 3


def test_measurement_operator_holds_the_only_vector_map_check():
    # the builders write kernels only: each shape message of the two maps
    # appears once in the package, in the operator that checks every
    # operator's vectors
    package = pathlib.Path(cdkit.sdp.__file__).parent
    for message in ("gram needs q of shape", "adjoint_matvec needs p of shape"):
        found = {path.name: path.read_text().count(message) for path in package.glob("*.py")}
        assert {name: k for name, k in found.items() if k} == {"sdp.py": 1}, message
        assert message in inspect.getsource(MeasurementOperator.__post_init__)


def test_sketch_reconstruct_holds_the_only_readout_rank_check():
    # the command line puts --recon-rank through the readout itself: each
    # readout-rank message appears once in the package, in sketch_reconstruct,
    # and no comparison in cli.py reads recon_rank
    package = pathlib.Path(cdkit.sdp.__file__).parent
    for message in ("needs a sketch larger than", "is above the matrix side n ="):
        found = {path.name: path.read_text().count(message) for path in package.glob("*.py")}
        assert {name: k for name, k in found.items() if k} == {"sdp.py": 1}, message
        assert message in inspect.getsource(sketch_reconstruct)
    tree = ast.parse((package / "cli.py").read_text())
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            getattr(sub, "attr", getattr(sub, "id", None)) == "recon_rank"
            for sub in ast.walk(node)
        )
    ]
    assert reads == []


# numpy's random draws and the generator they come from
_RANDOM_CALLS = {
    "default_rng",
    "standard_normal",
    "normal",
    "uniform",
    "random",
    "integers",
    "choice",
    "permutation",
    "spawn",
}


def _random_calls(tree, function):
    # the names of the random draws the function makes
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            funcs = [sub.func for sub in ast.walk(node) if isinstance(sub, ast.Call)]
            names = {getattr(f, "attr", getattr(f, "id", None)) for f in funcs}
            return names & _RANDOM_CALLS
    raise AssertionError(f"no function {function}")


def test_greedy_step_descends_from_the_factor_it_is_given():
    # the refit's start is its caller's choice: a draw inside the descent
    # would tie it to one start policy and one stream
    tree = ast.parse(pathlib.Path(cdkit.sdp.__file__).read_text())
    assert _random_calls(tree, "greedy_step") == set()
    params = list(inspect.signature(cdkit.sdp.greedy_step).parameters)
    assert params == ["fv", "op", "gamma", "state", "u"]


def test_random_call_check_sees_a_draw():
    # the check itself: a start drawn inside the refit is caught
    source = (
        "def greedy_step(fv, op, gamma, state, rng):\n"
        "    u = 1e-3 * rng.standard_normal((op.n, 3))\n"
        "    v = np.random.default_rng(0).normal(size=3)\n"
    )
    calls = _random_calls(ast.parse(source), "greedy_step")
    assert calls == {"standard_normal", "default_rng", "normal"}


def _toy_solve(**config):
    toy = build_trace_toy()
    return sdp_solve(toy.fv, toy.op, config=SolverConfig(**config))


def _operator(**sizes):
    toy = build_trace_toy()
    kwargs = dict(n=2, d=1, gram=toy.op.gram, adjoint_matvec=toy.op.adjoint_matvec)
    kwargs.update(sizes)
    return MeasurementOperator(**kwargs)


def _readout(rank):
    sk = SketchState.create(10, 6, seed=0)
    sk.add_rank_one(1.0, np.ones(10))
    return sketch_reconstruct(sk, rank)


def _sketched_solve(size):
    toy = build_trace_toy()
    return sdp_solve(toy.fv, toy.op, config=SolverConfig(max_iters=3), sketch_size=size)


# every count argument: the name its error gives, its floor, and a call
# that passes the value to it
_COUNT_SITES = {
    "max_iters": ("max_iters", 1, lambda v: _toy_solve(max_iters=v)),
    "greedy_period": ("greedy_period", 0, lambda v: _toy_solve(max_iters=3, greedy_period=v)),
    "rng_seed": ("rng_seed", 0, lambda v: _toy_solve(max_iters=3, rng_seed=v)),
    "operator-n": ("matrix side n", 1, lambda v: _operator(n=v)),
    "operator-d": ("measurement count d", 1, lambda v: _operator(d=v)),
    "reconstruct-rank": ("reconstruction rank", 1, _readout),
    "sketch-size": ("sketch size", 3, _sketched_solve),
    "lanczos-n": ("operator size n", 1, lambda v: min_eig_lanczos(lambda x: -x, v)),
    "program-dim": ("dim", 1, lambda v: ConicProgram(v, np.sum, np.ones_like)),
    "orthant-dim": ("dim", 1, NonnegativeOrthant),
    "soc-dim": ("dim", 2, SecondOrderCone),
    "psd-n": ("n", 1, PsdCone),
    "orthant-quadratic-dim": ("dim", 1, lambda v: build_orthant_quadratic(dim=v)),
    "trace-toy-n": ("n", 1, lambda v: build_trace_toy(n=v)),
    "matcomp-n": ("n", 1, lambda v: build_matcomp(n=v, block=0, density=1.0)),
    "matcomp-rank": ("rank", 1, lambda v: build_matcomp(n=10, rank=v, block=2)),
    "phase-m": ("m", 1, lambda v: build_phase_retrieval(n=8, m=v)),
    "phase-n": ("n", 2, lambda v: build_phase_retrieval(n=v, m=2)),
    "orthant-quadratic-seed": ("seed", 0, lambda v: build_orthant_quadratic(dim=2, seed=v)),
    "matcomp-seed": ("seed", 0, lambda v: build_matcomp(n=10, rank=1, seed=v, block=2)),
    "matcomp-block": ("block", 0, lambda v: build_matcomp(n=10, rank=1, block=v)),
    "phase-seed": ("seed", 0, lambda v: build_phase_retrieval(n=8, m=2, seed=v)),
    "lanczos-seed": ("seed", 0, lambda v: min_eig_lanczos(lambda x: -x, 3, seed=v)),
    "sketch-n": ("matrix side n", 1, lambda v: SketchState.create(v, 4)),
    "sketch-seed": ("seed", 0, lambda v: SketchState.create(3, 4, seed=v)),
}


@pytest.mark.parametrize("site", list(_COUNT_SITES))
def test_every_count_argument_takes_ints_at_its_floor(site):
    # a float, a bool and the floor minus one each raise ValueError naming
    # the argument; a numpy integer at the floor is accepted
    what, low, call = _COUNT_SITES[site]
    for bad in (2.5, True, low - 1):
        with pytest.raises(ValueError, match=f"^{what} must be an int >= {low}, got "):
            call(bad)
    call(np.int64(low))


def _toy_sdp(solver, **kwargs):
    toy = build_trace_toy()
    return solver(toy.fv, toy.op, config=SolverConfig(max_iters=3), **kwargs)


# every real-valued setting: the name its error gives, its interval, the
# nearest values beyond its ends (an open end itself; a closed infinite end
# has none), and a call that passes the value to it
_REAL_SITES = {
    "tol_eps": ("tol_eps", "[0, inf)", (-5e-324, math.inf),
                lambda v: _toy_solve(max_iters=3, tol_eps=v)),
    "heuristic_m": ("heuristic_m", "(0, inf)", (0.0, math.inf),
                    lambda v: _toy_solve(max_iters=3, heuristic_m=v)),
    "gamma": ("gamma", "[0, inf)", (-5e-324, math.inf), lambda v: _toy_sdp(sdp_solve, gamma=v)),
    "tau": ("tau", "(0, inf)", (0.0, math.inf), lambda v: _toy_sdp(fw_solve, tau=v)),
    "trace-toy-target": ("target", "(0, inf)", (0.0, math.inf),
                         lambda v: build_trace_toy(target=v)),
    "matcomp-density": ("density", "(0, 1]", (0.0, np.nextafter(1.0, 2.0)),
                        lambda v: build_matcomp(n=10, rank=1, block=2, density=v)),
    "noise-snr": ("noise SNR", "(-inf, inf]", (-math.inf,),
                  lambda v: add_noise_snr(np.ones(3), v, np.random.default_rng(0))),
    "cli-heuristic-m": ("heuristic-m", "(0, inf)", (0.0, math.inf),
                        lambda v: validate(RunSpec(command="toy", heuristic_m=v))),
    "cli-trace-bound": ("trace-bound", "(0, inf)", (0.0, math.inf),
                        lambda v: validate(RunSpec(command="matcomp", trace_bound=v))),
}
# where None leaves the setting unset
_NONE_UNSETS = {"heuristic_m", "cli-heuristic-m", "cli-trace-bound"}


@pytest.mark.parametrize("site", list(_REAL_SITES))
def test_every_real_setting_takes_numbers_in_its_interval(site):
    # a str, None, a bool, NaN, an int beyond the float range either way
    # and the nearest value beyond each end each raise ValueError naming the
    # setting, and a numpy float inside is accepted. Where None means unset
    # it is accepted, and the CLI's field type check turns a str away before
    # the range check sees it
    what, interval, outside, call = _REAL_SITES[site]
    for bad in ("0.5", None, True, math.nan, 10**400, -(10**400), *outside):
        message = f"^{what} must be a number in {re.escape(interval)}, got {re.escape(repr(bad))}$"
        if bad is None and site in _NONE_UNSETS:
            call(bad)
            continue
        if isinstance(bad, str) and site.startswith("cli-"):
            message = "needs a number, got '0.5'$"
        with pytest.raises(ValueError, match=message):
            call(bad)
    call(np.float64(0.5))


# what _descend may read of its iterate: the three per-visit methods, the
# callback payload and the result
_PROTOCOL = {"evaluate", "certify", "step", "payload", "result"}


def _iterate_attrs(tree, function, name="it"):
    # every attribute of the variable `name` that the function touches
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return {
                sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == name
            }
    raise AssertionError(f"no function {function}")


def test_descend_reads_its_iterate_only_through_the_protocol():
    # each visit's facts come back as return values; an attribute the
    # iterate sets on the side for the loop to read is a second channel
    # that every iterate must remember to feed
    tree = ast.parse(pathlib.Path(cdkit.core.__file__).read_text())
    assert _iterate_attrs(tree, "_descend") == _PROTOCOL


def test_protocol_check_sees_a_side_channel():
    # the check itself: a loop that reads a fact or keeps a count on the
    # iterate is caught
    source = (
        "def _descend(it):\n"
        "    fval, grad = it.evaluate()\n"
        "    it.confirmations += it.confirmed\n"
        "    return it.result(it.lam)\n"
    )
    attrs = _iterate_attrs(ast.parse(source), "_descend")
    assert attrs - _PROTOCOL == {"confirmations", "confirmed", "lam"}


def test_descend_takes_its_stop_threshold_and_no_solver_switch():
    # each solver passes the threshold in its certificate's units, so the
    # shared loop has one path and never asks which solver called it
    params = list(inspect.signature(cdkit.core._descend).parameters)
    assert params == ["problem", "config", "it", "callback", "stop_at"]


# each solver on a small problem, with the tol_eps that stops it (orthant
# at visit 52, matcomp 41, phase 115)
def _orthant_run(config, callback):
    return solve(build_orthant_quadratic(dim=20, seed=0).program, config, callback=callback)


def _matcomp_run(config, callback):
    bundle = build_matcomp(n=30, rank=2, seed=0, block=5, density=0.15)
    config = dataclasses.replace(config, greedy_period=5)
    return sdp_solve(
        bundle.fv, bundle.op, bundle.gamma, config=config, sketch_size=8, callback=callback
    )


def _phase_run(config, callback):
    bundle = build_phase_retrieval(n=16, m=4, seed=0)
    tau = 2.0 * bundle.m_estimate
    return fw_solve(
        bundle.fv, bundle.op, tau, bundle.gamma, config=config, sketch_size=8, callback=callback
    )


_EACH_SOLVER = pytest.mark.parametrize(
    "run, tol_eps",
    [(_orthant_run, 1e-4), (_matcomp_run, 1e-3), (_phase_run, 1e-4)],
    ids=["solve", "sdp_solve", "fw_solve"],
)
_EACH_STOP = pytest.mark.parametrize("stop", ["max_iters", "converged"])


def _run_to(run, tol_eps, stop):
    # the result of a run that stops on max_iters or on tol_eps, and the
    # record its callback got at each visit
    records = []
    if stop == "max_iters":
        config = SolverConfig(max_iters=30)
    else:
        config = SolverConfig(max_iters=300, tol_eps=tol_eps)
    res = run(config, lambda info: records.append(info["record"]))
    assert res.status == stop
    return res, records


@_EACH_SOLVER
@_EACH_STOP
def test_every_visit_adds_one_record(run, tol_eps, stop):
    # the trace is the list of the visits' records: record k is visit k's,
    # the one its callback got
    res, records = _run_to(run, tol_eps, stop)
    assert [r.k for r in res.trace] == list(range(len(records)))
    assert all(kept is given for kept, given in zip(res.trace, records))


@_EACH_SOLVER
@_EACH_STOP
def test_result_certificate_is_the_last_records(run, tol_eps, stop):
    # the result keeps no copy of the certificate: it reads the record of
    # the visit the run ends on, so another last record changes it
    res, records = _run_to(run, tol_eps, stop)
    assert isinstance(res.trace, list)
    assert res.trace[-1] is records[-1]
    fields = {f.name for f in dataclasses.fields(res)}
    assert not fields & {"certified_dual_cert", "final_lambda"}
    assert res.certified_dual_cert == res.trace[-1].dual_cert
    if run is not _orthant_run:
        assert res.final_lambda == res.trace[-1].lambda_min
    other = dataclasses.replace(
        res.trace[-1], dual_cert=res.trace[-1].dual_cert + 1.0, lambda_min=-7.0
    )
    res.trace[-1] = other
    assert res.certified_dual_cert == other.dual_cert
    if run is not _orthant_run:
        assert res.final_lambda == -7.0


@_EACH_SOLVER
def test_stats_hold_only_json_values(run, tol_eps):
    # a run's stats go into the command line's summary as they are, so no
    # array may get into them; the sdp_solve run refits six times
    res, _ = _run_to(run, tol_eps, "max_iters")
    json.dumps(res.stats)
    assert all(isinstance(v, int) for v in res.stats.values() if not isinstance(v, list))
    if run is _matcomp_run:
        assert len(res.stats["greedy_events"]) == 6
