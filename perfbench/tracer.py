"""Wall-time spans around cdkit's public functions, hooked from outside.

A hook wraps one public name and rebinds the wrapper in every cdkit module
that holds the original object, so a call is seen whichever module it goes
through (``minimize_convex_1d`` is bound in both ``cdkit.core`` and
``cdkit.sdp``). Private helpers are never hooked: their time is the self time
of the public function that called them, and deleting or renaming one cannot
break the traced run.

Spans carry a name, start, end, parent and unit id. They are kept in memory
and written out once the run ends. A span's self time is its duration minus
the time covered by its direct children; since children nest inside their
parent, the self times of one unit add up to the unit's wall time.
"""

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

# Span names reported by the benchmark, in table order. "bench.unit" and
# "bench.setup" are the roots the benchmark opens itself; their self time is
# the glue around the library calls.
SPANS = (
    "sdp.sdp_solve",
    "sdp.min_eig_lanczos",
    "sdp.greedy_step",
    "sdp.sketch",
    "sdp.sketch_reconstruct",
    "core.solve",
    "core.ray_minimize",
    "core.line_search_step",
    "core.minimize_convex_1d",
    "core.trace_write",
    "cones.lmo",
    "problems.build",
    "problems.value",
    "problems.gradient",
    "problems.restriction",
    "problems.gram",
    "problems.adjoint",
    "cli.run_experiment",
)
ROOTS = ("bench.setup", "bench.unit")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    unit: int  # shared by all spans of one unit; set-up spans use -1


class Tracer:
    """In-memory span recorder plus the hooks that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.unit = -1
        self._stack = []
        self._open = Counter()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.unit))
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1

    def inside(self, name):
        return self._open[name] > 0

    def wrap(self, fn, name, args_hook=None, result_hook=None):
        """fn wrapped in a span; the hooks may rewrite args or inspect results."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if args_hook is not None:
                args = args_hook(args)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if result_hook is not None:
                result_hook(out)
            return out

        return traced

    # -- hooks -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def hook_function(self, module, attr, name, **hooks):
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "cdkit" and mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def hook_method(self, cls, attr, name, **hooks):
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name, **hooks))

    def count_calls(self, counter):
        """An args_hook that counts the calls of the first positional argument."""

        def hook(args):
            fn = args[0]

            def counted(*a, **k):
                self.counts[counter] += 1
                return fn(*a, **k)

            return (counted,) + tuple(args[1:])

        return hook

    def trace_bundle(self, bundle):
        """Wrap the oracles of a built problem bundle (they are plain attributes)."""
        program = getattr(bundle, "program", None) or bundle.fv
        for attr, name in (
            ("value_oracle", "problems.value"),
            ("gradient_oracle", "problems.gradient"),
            ("restriction_oracle", "problems.restriction"),
        ):
            fn = getattr(program, attr)
            if fn is not None:
                self._set(program, attr, self.wrap(fn, name))
        op = getattr(bundle, "op", None)
        if op is not None:
            self._set(op, "gram", self.wrap(op.gram, "problems.gram", args_hook=self._gram_hook))
            self._set(op, "adjoint_matvec", self.wrap(op.adjoint_matvec, "problems.adjoint"))
        return bundle

    def _gram_hook(self, args):
        if self.inside("sdp.greedy_step"):
            self.counts["sdp.greedy.gram"] += 1
        return args

    def _greedy_result(self, info):
        self.counts["sdp.greedy.refits"] += 1
        self.counts["sdp.greedy.commits"] += int(bool(info["committed"]))

    def install(self):
        """Hook every measured public name of cdkit."""
        import cdkit.cli
        import cdkit.cones
        import cdkit.core
        import cdkit.problems
        import cdkit.sdp

        sdp, core, problems = cdkit.sdp, cdkit.core, cdkit.problems
        self.hook_function(sdp, "sdp_solve", "sdp.sdp_solve")
        self.hook_function(
            sdp, "min_eig_lanczos", "sdp.min_eig_lanczos",
            args_hook=self.count_calls("sdp.lmo.matvecs"),
        )
        self.hook_function(
            sdp, "greedy_step", "sdp.greedy_step", result_hook=self._greedy_result
        )
        for attr in ("scale", "add_rank_one", "replace"):
            self.hook_method(sdp.SketchState, attr, "sdp.sketch")
        self.hook_function(sdp, "sketch_reconstruct", "sdp.sketch_reconstruct")
        self.hook_function(core, "solve", "core.solve")
        self.hook_function(core, "ray_minimize", "core.ray_minimize")
        self.hook_function(core, "line_search_step", "core.line_search_step")
        self.hook_function(
            core, "minimize_convex_1d", "core.minimize_convex_1d",
            args_hook=self.count_calls("core.minimize_convex_1d.evals"),
        )
        self.hook_method(core.SolveTrace, "write_csv", "core.trace_write")
        for cls in vars(cdkit.cones).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, cdkit.cones.Cone)
                and "lmo" in cls.__dict__
            ):
                self.hook_method(cls, "lmo", "cones.lmo")
        for attr in ("build_matcomp", "build_phase_retrieval", "build_orthant_quadratic"):
            self.hook_function(
                problems, attr, "problems.build", result_hook=self.trace_bundle
            )
        self.hook_function(cdkit.cli, "run_experiment", "cli.run_experiment")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Self time in seconds of every span, by index."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path):
        """One JSON array per span after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id"] + list(Span.__dataclass_fields__)) + "\n")
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps([idx, s.name, s.start, s.end, s.parent, s.unit]) + "\n")
