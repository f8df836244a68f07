"""The benchmark's tracer hooks cdkit's public names from outside the
package; a renamed or moved name must fail here, not only in a traced run."""

import os
import sys

import cdkit.core
import cdkit.problems
import cdkit.sdp

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

from tracer import Tracer  # noqa: E402


def test_tracer_installs_and_restores_its_hooks():
    original = cdkit.core.ray_minimize
    tracer = Tracer()
    try:
        tracer.install()
        assert cdkit.core.ray_minimize is not original
        assert cdkit.sdp.ray_minimize is cdkit.core.ray_minimize
    finally:
        tracer.uninstall()
    assert cdkit.core.ray_minimize is original
    assert cdkit.sdp.ray_minimize is original


def test_tracer_counts_match_solver_stats():
    # the tracer counts LMO matvecs through min_eig_lanczos's first argument,
    # greedy refits through greedy_step's result, refit gram calls and every
    # operator call through the bundle's operator; each must agree with what
    # sdp_solve and fw_solve report themselves
    tracer = Tracer()

    def calls():
        # the spans of the operator's two maps so far
        return tuple(
            sum(span.name == name for span in tracer.spans)
            for name in ("problems.gram", "problems.adjoint")
        )

    try:
        tracer.install()
        mc = cdkit.problems.build_matcomp(n=20, rank=2, seed=0, block=4, density=0.2)
        config = cdkit.SolverConfig(max_iters=20, greedy_period=5)
        res = cdkit.sdp.sdp_solve(mc.fv, mc.op, config=config)
        sdp_calls = calls()
        fw = cdkit.sdp.fw_solve(mc.fv, mc.op, 5.0, config=cdkit.SolverConfig(max_iters=20))
        fw_calls = tuple(after - before for after, before in zip(calls(), sdp_calls))
    finally:
        tracer.uninstall()
    assert tracer.counts["sdp.lmo.matvecs"] == res.stats["lmo_matvecs"] + fw.stats["lmo_matvecs"]
    events = res.stats["greedy_events"]
    assert tracer.counts["sdp.greedy.refits"] == len(events) > 0
    assert tracer.counts["sdp.greedy.gram"] == sum(ev["gram_calls"] for ev in events) > 0
    assert sdp_calls == (res.stats["gram_calls"], res.stats["adjoint_calls"])
    assert fw_calls == (fw.stats["gram_calls"], fw.stats["adjoint_calls"])
    assert min(sdp_calls + fw_calls) > 0
