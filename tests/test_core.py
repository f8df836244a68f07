"""Core solver machinery: 1-d searches, ray/step exactness, and
the full visit loop on small planted problems."""

import csv
import io
import math
import pathlib
import re

import numpy as np
import pytest

import cdkit.core
from cdkit import (
    Cone,
    ConicProgram,
    LineSearchDivergence,
    NonFiniteValue,
    NonnegativeOrthant,
    PsdCone,
    SecondOrderCone,
    SolverConfig,
    UnsupportedCone,
    fw_solve,
    sdp_solve,
    solve,
)
from cdkit.core import (
    _quad_argmin_nonneg,
    line_search_step,
    minimize_convex_1d,
    ray_minimize,
)
from cdkit.problems import add_noise_snr, build_orthant_quadratic, build_trace_toy
from oracles import kkt_residuals, log_calls


def quad_program(dim, quad, lin, cone=None):
    def value(x):
        return 0.5 * float(x @ quad @ x) + float(lin @ x)

    def grad(x):
        return quad @ x + lin

    def restriction(base, direction):
        # f(base + t*direction) = f(base) + a t^2 + b t
        a = 0.5 * float(direction @ quad @ direction)
        b = float(direction @ quad @ base) + float(lin @ direction)
        return a, b

    return ConicProgram(dim, value, grad, cone=cone, restriction_oracle=restriction)


# ---------------------------------------------------------------------------
# quadratic argmin over t >= 0: minimize a t^2 + b t


def test_quad_argmin_nonneg_cases():
    assert _quad_argmin_nonneg(1.0, -4.0) == 2.0
    assert _quad_argmin_nonneg(1.0, 4.0) == 0.0
    assert _quad_argmin_nonneg(0.0, 4.0) == 0.0
    assert _quad_argmin_nonneg(0.0, 0.0) is None
    with pytest.raises(LineSearchDivergence):
        _quad_argmin_nonneg(0.0, -1.0)
    with pytest.raises(LineSearchDivergence):
        _quad_argmin_nonneg(-1.0, 2.0)
    # a linear restriction that decreases stops at a finite upper end
    assert _quad_argmin_nonneg(0.0, -1.0, hi=3.0) == 3.0


# ---------------------------------------------------------------------------
# slope bisection for programs without a restriction oracle


def test_minimize_convex_1d_brackets_far_minimum():
    # (t - 37)^2: doubling brackets [32, 64], bisection lands on 37 itself,
    # where the slope is exactly 0
    assert minimize_convex_1d(lambda t: 2.0 * (t - 37.0)) == 37.0
    # minimizers off the dyadic grid are placed to one ulp, on the side
    # where the slope is still negative
    for t_star in (37.3, 1e-7, 3.0e5, math.pi):
        t = minimize_convex_1d(lambda t: 2.0 * (t - t_star))
        assert t <= t_star
        assert t_star - t <= math.ulp(t_star)


def test_minimize_convex_1d_minimum_at_zero():
    calls = []

    def slope(t):
        calls.append(t)
        return 2.0 * t

    assert minimize_convex_1d(slope) == 0.0
    assert calls == [0.0]
    assert minimize_convex_1d(lambda t: 2.0 * t + 1.0) == 0.0


def test_minimize_convex_1d_clamps_at_hi():
    # slope still negative at hi: the end of the interval is the minimizer
    assert minimize_convex_1d(lambda t: 2.0 * (t - 37.0), hi=1.0) == 1.0
    assert minimize_convex_1d(lambda t: 2.0 * (t - 37.0), hi=5.0) == 5.0
    assert minimize_convex_1d(lambda t: -1.0, hi=1.0) == 1.0
    # an interior minimizer is found as without the bound
    assert minimize_convex_1d(lambda t: 2.0 * (t - 0.25), hi=1.0) == 0.25
    assert minimize_convex_1d(lambda t: 2.0 * (t - 3.0), hi=5.0) == 3.0


def test_minimize_convex_1d_divergence():
    with pytest.raises(LineSearchDivergence):
        minimize_convex_1d(lambda t: -1.0)
    with pytest.raises(LineSearchDivergence):
        minimize_convex_1d(lambda t: -1.0 / (1.0 + t))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_minimize_convex_1d_rejects_non_finite_slope(bad):
    with pytest.raises(NonFiniteValue):
        minimize_convex_1d(lambda t: bad)
    # a slope that turns non-finite while bracketing
    with pytest.raises(NonFiniteValue):
        minimize_convex_1d(lambda t: -1.0 if t < 4.0 else bad)


@pytest.mark.parametrize("oracle", [True, False], ids=["restriction", "bisection"])
def test_searches_reject_non_finite_data_with_or_without_the_restriction(oracle):
    # the closed-form search used to return 0 for a non-finite linear term
    # or slope coefficient, and to call a NaN curvature linear and
    # unbounded; it now raises NonFiniteValue as the bisection does, on
    # the same inputs
    def program(quad, lin):
        prog = quad_program(2, np.array(quad), np.array(lin))
        return prog if oracle else ConicProgram(2, prog.value_oracle, prog.gradient_oracle)

    x, d = np.zeros(2), np.array([1.0, 0.0])
    good = program([[1.0, 0.0], [0.0, 1.0]], [-1.0, 0.0])
    for linear in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteValue):
            line_search_step(good, x, d, linear)
        with pytest.raises(NonFiniteValue):
            ray_minimize(good, d, linear=linear)
    # a NaN slope coefficient b, then a NaN curvature a with b = -1
    for quad, lin in (([[1.0, 0.0], [0.0, 1.0]], [math.nan, 0.0]),
                      ([[math.nan, 0.0], [0.0, 1.0]], [-1.0, 0.0])):
        with pytest.raises(NonFiniteValue):
            line_search_step(program(quad, lin), x, d)


# ---------------------------------------------------------------------------
# ray and step searches agree with closed forms when a restriction exists


def test_ray_minimize_exact_on_quadratic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4))
    quad = m @ m.T + 0.5 * np.eye(4)
    lin = rng.standard_normal(4)
    prob = quad_program(4, quad, lin)
    x = rng.standard_normal(4)
    # minimize f(eta * x) over eta >= 0: quadratic in eta with exact argmin
    a = 0.5 * float(x @ quad @ x)
    b = float(lin @ x)
    want = max(0.0, -b / (2.0 * a))
    assert ray_minimize(prob, x) == pytest.approx(want, rel=1e-12)


def test_ray_minimize_zero_point_returns_one():
    prob = quad_program(3, np.eye(3), np.ones(3))
    assert ray_minimize(prob, np.zeros(3)) == 1.0
    # the squared norm of a nonzero x can underflow to 0; np.linalg.norm
    # reads such an x as the zero point, and so does the search
    tiny = np.full(3, 1e-200)
    assert float(np.linalg.norm(tiny)) == 0.0
    assert ray_minimize(prob, tiny) == 1.0


def test_line_search_step_exact_on_quadratic():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((4, 4))
    quad = m @ m.T + 0.5 * np.eye(4)
    lin = rng.standard_normal(4)
    prob = quad_program(4, quad, lin)
    base = rng.standard_normal(4)
    direction = rng.standard_normal(4)
    a = 0.5 * float(direction @ quad @ direction)
    b = float(direction @ quad @ base) + float(lin @ direction)
    want = max(0.0, -b / (2.0 * a))
    got = line_search_step(prob, base, direction)
    assert got == pytest.approx(want, rel=1e-12)


def test_searches_without_restriction_fall_back_to_bisection():
    def value(x):
        return float(np.sum((x - 2.0) ** 2))

    def grad(x):
        return 2.0 * (x - 2.0)

    # without a restriction oracle the searches bisect on the sign of the
    # directional derivative, which the gradient oracle gives
    prob = ConicProgram(2, value, grad)
    x = np.array([1.0, 1.0])
    # min over eta of 2*(eta-2)^2 is eta=2
    assert ray_minimize(prob, x) == 2.0
    # along (1, 0) from (0, 3): (t - 2)^2 + 1, with a linear term 0.5 t
    assert line_search_step(prob, np.array([0.0, 3.0]), np.array([1.0, 0.0])) == 2.0
    assert line_search_step(prob, np.array([0.0, 3.0]), np.array([1.0, 0.0]), 0.5) == 1.75
    assert prob.eval_counts()["value"] == 0


# ---------------------------------------------------------------------------
# the full loop


def test_solve_planted_quadratic_reaches_optimum():
    built = build_orthant_quadratic(dim=20, seed=0)
    cfg = SolverConfig(max_iters=400, momentum_mode="moco")
    res = solve(built.program, cfg)
    fs = res.trace.f_values()
    # exact ray + line search makes the objective monotone
    assert all(fs[i + 1] <= fs[i] + 1e-12 for i in range(len(fs) - 1))
    # sublinear rate, so only ask for a modest gap after 400 visits
    assert fs[-1] - built.f_star < 1e-4
    assert fs[-1] - built.f_star > -1e-12
    # ray optimality kills the radial derivative
    assert max(abs(c) for c in res.trace.cs_residuals()) < 1e-10


def test_solve_cd_mode_matches_plain_gradient():
    built = build_orthant_quadratic(dim=12, seed=1)
    res = solve(built.program, SolverConfig(max_iters=400, momentum_mode="cd"))
    # plain descent converges slower than the momentum variant
    assert res.trace.f_values()[-1] - built.f_star < 0.05


def test_solve_converges_immediately_at_optimum():
    # gradient at zero is nonnegative, so the lmo returns zero and the
    # certificate is already exact
    prob = quad_program(3, np.eye(3), np.ones(3), cone=NonnegativeOrthant(3))
    res = solve(prob, SolverConfig(max_iters=50), x0=np.zeros(3))
    assert res.status == "converged"
    assert res.trace[-1].k == 0
    np.testing.assert_array_equal(res.final_point, np.zeros(3))
    assert res.certified_dual_cert == 0.0


def _psd_quad_program(n):
    # (1/2)||X - I||_F^2 over the PSD cone, on the flattened matrix
    eye = np.eye(n)

    def value(x):
        return 0.5 * float(np.sum((x - eye) ** 2))

    return ConicProgram(n * n, value, lambda x: x - eye, cone=PsdCone(n))


_OUTSIDE_STARTS = {
    "orthant-negative": (NonnegativeOrthant, 5, -np.ones(5)),
    "orthant-mixed": (NonnegativeOrthant, 5, np.array([1.0, -0.5, 0.0, 0.0, 0.0])),
    "orthant-shape": (NonnegativeOrthant, 5, np.ones(4)),
    "psd-unsymmetric": (PsdCone, 2, np.array([[1.0, 0.5], [0.0, 1.0]])),
    "psd-indefinite": (PsdCone, 2, np.diag([1.0, -0.5])),
    "psd-flat": (PsdCone, 2, np.ones(4)),
    "soc-outside": (SecondOrderCone, 3, np.array([1.0, 1.0, 1.0])),
    # the membership slack scales with the largest magnitude, so an infinite
    # entry passed it and the solve failed later on non-finite data
    "orthant-inf": (NonnegativeOrthant, 5, np.array([math.inf, -1.0, 0.0, 0.0, 0.0])),
    "orthant-nan": (NonnegativeOrthant, 5, np.array([math.nan, 1.0, 0.0, 0.0, 0.0])),
    "soc-inf": (SecondOrderCone, 3, np.array([1.0, 0.0, math.inf])),
    "psd-nan": (PsdCone, 2, np.array([[1.0, math.nan], [math.nan, 1.0]])),
}


@pytest.mark.parametrize(
    "cone_type, dim, x0", list(_OUTSIDE_STARTS.values()), ids=list(_OUTSIDE_STARTS)
)
def test_solve_rejects_start_outside_the_cone(cone_type, dim, x0):
    # a start outside the cone used to run: from -1 on the planted orthant
    # quadratic (dim 5, seed 0) it ended "converged" at f = -1.787, far
    # below f* = -0.0386, at a point with entries near -3.4
    cone = cone_type(dim)
    if cone_type is NonnegativeOrthant:
        prob = build_orthant_quadratic(dim=dim, seed=0).program
    elif cone_type is PsdCone:
        prob = _psd_quad_program(dim)
    else:
        prob = quad_program(dim, np.eye(dim), -np.ones(dim), cone=cone)
    with pytest.raises(ValueError, match="x0 must be a point of the cone"):
        solve(prob, SolverConfig(max_iters=300, tol_eps=1e-8), x0=x0)


@pytest.mark.parametrize(
    "cone, dim",
    [(NonnegativeOrthant(4), 3), (NonnegativeOrthant(4), 5), (PsdCone(3), 3)],
    ids=["orthant-short", "orthant-long", "psd-side"],
)
def test_solve_rejects_a_dim_other_than_the_cones(cone, dim):
    # a program of another dim used to solve over its cone's points; a PSD
    # program's dim is n * n
    prob = ConicProgram(dim, lambda x: float(np.sum(x * x)), lambda x: 2.0 * x, cone=cone)
    size = cone.default_init().size
    with pytest.raises(ValueError, match=f"^program dim {dim} does not match the cone's {size}$"):
        solve(prob, SolverConfig(max_iters=3))


@pytest.mark.parametrize("cone_type", [NonnegativeOrthant, SecondOrderCone, PsdCone])
def test_solve_accepts_starts_in_the_cone(cone_type):
    # the canonical start, given explicitly, runs the same solve as the
    # default; a point on the boundary, off it by roundoff, runs too
    cone = cone_type(3)
    if cone_type is PsdCone:
        prob = _psd_quad_program(3)
    else:
        prob = quad_program(3, np.eye(3), -np.ones(3), cone=cone)
    config = SolverConfig(max_iters=20)
    default = solve(prob, config)
    given = solve(prob, config, x0=cone.default_init())
    np.testing.assert_array_equal(given.final_point, default.final_point)
    edge = cone.default_init() - 1e-13
    solve(prob, config, x0=edge)


def test_solve_start_needs_a_membership_test():
    # a cone written without contains() can still run from its own start
    class Ray(Cone):
        def lmo(self, g):
            return np.array([1.0]) if g[0] < 0.0 else np.zeros(1)

        def default_init(self):
            return np.ones(1)

    prob = quad_program(1, np.eye(1), -np.ones(1), cone=Ray())
    assert solve(prob, SolverConfig(max_iters=5)).status in ("converged", "max_iters")
    with pytest.raises(UnsupportedCone):
        solve(prob, SolverConfig(max_iters=5), x0=np.ones(1))


@pytest.mark.parametrize(
    "call, message",
    [
        (solve, "cone handle"),
        (lambda prob: prob.restriction(np.zeros(2), np.ones(2)), "no restriction oracle"),
    ],
    ids=["solve-without-cone", "restriction-without-oracle"],
)
def test_missing_oracle_raises_unsupported_cone(call, message):
    prob = ConicProgram(2, lambda x: float(x @ x), lambda x: 2.0 * x)
    with pytest.raises(UnsupportedCone, match=message):
        call(prob)


@pytest.mark.parametrize(
    "f, g",
    [(math.nan, 0.0), (1.0, math.inf), (1.0, math.nan)],
    ids=["nan-value", "inf-gradient", "nan-gradient"],
)
def test_solve_rejects_nonfinite_objective(f, g):
    # a non-finite value, or one non-finite gradient entry beside a finite
    # value, stops the run at the visit's screen; the finite restriction
    # keeps the ray search from reading the gradient first
    def value(x):
        return f

    def grad(x):
        return np.array([0.0, g])

    prob = ConicProgram(
        2, value, grad, cone=NonnegativeOrthant(2),
        restriction_oracle=lambda base, direction: (1.0, -1.0),
    )
    with pytest.raises(NonFiniteValue, match="non-finite objective data at iteration 0"):
        solve(prob, SolverConfig(max_iters=3))


def test_eval_counting_and_stats(monkeypatch):
    built = build_orthant_quadratic(dim=10, seed=2)
    prob = built.program
    searches = log_calls(monkeypatch, cdkit.core, "line_search_step")
    res = solve(prob, SolverConfig(max_iters=30))
    counts = prob.eval_counts()
    # stats report the counter deltas for this run, one gradient per visit
    assert counts["gradient"] == res.stats["gradient"]
    assert res.stats["gradient"] == len(res.trace)
    # one searched step per visit that steps: all but the last
    assert len(searches) == res.trace[-1].k > 0


def test_heuristic_step_skips_theta_search(monkeypatch):
    built = build_orthant_quadratic(dim=10, seed=3)
    m = float(np.linalg.norm(built.x_star))
    cfg = SolverConfig(max_iters=60, heuristic_m=m)
    searches = log_calls(monkeypatch, cdkit.core, "line_search_step")
    res = solve(built.program, cfg)
    assert searches == []
    # every step but the last visit's (which takes none) is 2 M / (k + 2)
    for r in res.trace[:-1]:
        assert r.theta == 2.0 * m / (r.k + 2.0)
    assert len(res.trace) > 1
    # still makes progress
    assert res.trace.f_values()[-1] < res.trace.f_values()[0]


def test_callback_sees_every_visit():
    built = build_orthant_quadratic(dim=8, seed=4)
    seen = []

    def cb(info):
        seen.append((info["record"].k, info["record"].f_value))
        # the certificate is -<g_avg, v> for the visit's momentum and atom
        assert info["record"].dual_cert == -np.vdot(info["g_avg"], info["v"])

    solve(built.program, SolverConfig(max_iters=25), callback=cb)
    assert [k for k, _ in seen] == list(range(len(seen)))


def _readme_callback_keys():
    # the README's Callbacks table: per solver, the backticked names that
    # are not inside a parenthesized remark, plus "record"
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    table = text.split("### Callbacks", 1)[1].split("\n## ", 1)[0]
    keys = {}
    for row in re.findall(r"^\| `(\w+)` +\|(.*)\|$", table, flags=re.M):
        solver, cell = row
        keys[solver] = {"record"} | set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell)))
    return keys


def test_callback_keys_match_readme_table():
    # every solver's payload has exactly the keys the README lists, and the
    # shared loop gives each one "g_avg"
    readme = _readme_callback_keys()
    assert set(readme) == {"solve", "sdp_solve", "fw_solve"}
    assert all("g_avg" in keys for keys in readme.values())
    toy = build_trace_toy()
    runs = {
        "solve": lambda cb: solve(
            build_orthant_quadratic(dim=6, seed=0).program, SolverConfig(max_iters=3),
            callback=cb,
        ),
        "sdp_solve": lambda cb: sdp_solve(
            toy.fv, toy.op, config=SolverConfig(max_iters=3), callback=cb
        ),
        "fw_solve": lambda cb: fw_solve(
            toy.fv, toy.op, tau=0.5, config=SolverConfig(max_iters=3), callback=cb
        ),
    }
    for solver, run in runs.items():
        seen = []
        run(lambda info: seen.append(set(info)))
        assert seen and all(keys == readme[solver] for keys in seen), solver


# ---------------------------------------------------------------------------
# config validation and trace serialization


def test_config_validation_errors():
    built = build_orthant_quadratic(dim=6, seed=6)
    with pytest.raises(ValueError):
        solve(built.program, SolverConfig(momentum_mode="bogus"))
    with pytest.raises(ValueError):
        solve(built.program, SolverConfig(heuristic_m=0.0))
    with pytest.raises(ValueError):
        solve(built.program, SolverConfig(greedy_period=5))
    with pytest.raises(ValueError):
        solve(built.program, SolverConfig(max_iters=-1))
    # an infinite tol_eps would stop every run at its first visit and an
    # infinite M make the first scheduled step infinite
    with pytest.raises(ValueError, match="tol_eps"):
        solve(built.program, SolverConfig(tol_eps=math.inf))
    with pytest.raises(ValueError, match="heuristic_m"):
        solve(built.program, SolverConfig(heuristic_m=math.inf))
    toy = build_trace_toy()
    for config in (
        SolverConfig(tol_eps=-1.0),
        SolverConfig(tol_eps=math.nan),
        SolverConfig(tol_eps=math.inf),
        # fw_solve steps by segment search only, so a scheduled step is
        # refused rather than ignored
        SolverConfig(heuristic_m=0.01),
    ):
        with pytest.raises(ValueError):
            fw_solve(toy.fv, toy.op, tau=1.0, config=config)
    for tau in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tau"):
            fw_solve(toy.fv, toy.op, tau=tau)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma"):
            sdp_solve(toy.fv, toy.op, gamma=gamma)
        with pytest.raises(ValueError, match="gamma"):
            fw_solve(toy.fv, toy.op, tau=1.0, gamma=gamma)
    for snr in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="SNR"):
            add_noise_snr(np.ones(3), snr, np.random.default_rng(0))
    with pytest.raises(ValueError):
        fw_solve(quad_program(2, np.eye(2), np.zeros(2)), toy.op, tau=1.0)


@pytest.mark.parametrize("solver", ["solve", "sdp_solve", "fw_solve"])
def test_config_of_another_type_raises_type_error(solver):
    # a dict, an int or a str used to fail with AttributeError on max_iters
    toy = build_trace_toy()
    run = {
        "solve": lambda c: solve(build_orthant_quadratic(dim=3).program, c),
        "sdp_solve": lambda c: sdp_solve(toy.fv, toy.op, config=c),
        "fw_solve": lambda c: fw_solve(toy.fv, toy.op, tau=1.0, config=c),
    }[solver]
    for bad in ({"max_iters": 3}, 3, "moco"):
        name = type(bad).__name__
        with pytest.raises(TypeError, match=f"^config must be a SolverConfig, got {name}$"):
            run(bad)


def test_no_setting_thins_the_trace():
    # every visit adds its record, so there is no thinning setting to take
    with pytest.raises(TypeError, match="trace_every"):
        SolverConfig(trace_every=7)


@pytest.mark.parametrize(
    "name, bad",
    [
        ("max_iters", 3.0),
        ("max_iters", True),
        ("greedy_period", 2.5),
        ("rng_seed", 1.5),
    ],
)
def test_config_counts_must_be_integers(name, bad):
    # a float greedy_period would run on an off schedule and a
    # float max_iters or rng_seed fail with TypeError; numpy integers pass
    toy = build_trace_toy()
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        sdp_solve(toy.fv, toy.op, config=SolverConfig(**{name: bad}))
    good = {"max_iters": 3, "greedy_period": 2, "rng_seed": 1}[name]
    res = sdp_solve(toy.fv, toy.op, config=SolverConfig(**{name: np.int64(good)}))
    assert len(res.trace) >= 1


def test_solvers_reject_a_negative_rng_seed():
    # numpy's default_rng would reject it later without naming the setting,
    # and solve, which draws nothing, would accept it
    toy = build_trace_toy()
    config = SolverConfig(max_iters=3, rng_seed=-1)
    for call in (
        lambda: solve(build_orthant_quadratic(dim=3).program, config),
        lambda: sdp_solve(toy.fv, toy.op, config=config),
        lambda: fw_solve(toy.fv, toy.op, tau=1.0, config=config),
    ):
        with pytest.raises(ValueError, match="rng_seed must be an int >= 0"):
            call()


@pytest.mark.parametrize("tol_eps", [1e6, 1e-2])
def test_stopping_visit_calls_the_exact_cone_lmo_once(monkeypatch, tol_eps):
    # the cone LMO is exact, so the certificate that stops a run needs no
    # confirming call: a run that stops at visit k makes k + 1 LMO calls,
    # and only the stopping visit counts as a confirmation
    built = build_orthant_quadratic(dim=8, seed=7)
    cone = built.program.cone
    lmo = cone.lmo
    calls = [0]

    def counting(g):
        calls[0] += 1
        return lmo(g)

    monkeypatch.setattr(cone, "lmo", counting)
    res = solve(built.program, SolverConfig(max_iters=300, tol_eps=tol_eps))
    assert res.status == "converged"
    assert calls[0] == res.trace[-1].k + 1
    assert res.stats["lmo_confirmations"] == 1
    if tol_eps > 1.0:
        assert res.trace[-1].k == 0


def test_trace_csv_roundtrip(tmp_path):
    built = build_orthant_quadratic(dim=8, seed=7)
    res = solve(built.program, SolverConfig(max_iters=15))
    path = tmp_path / "trace.csv"
    res.trace.write_csv(path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "k,f,dual_cert,cs,eta,theta,wall_ms"
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == len(res.trace) + 1
    # repr round trip: floats survive exactly
    for row, rec in zip(rows[1:], res.trace):
        assert int(row[0]) == rec.k
        assert float(row[1]) == rec.f_value
        assert float(row[2]) == rec.dual_cert
        assert float(row[5]) == rec.theta


def test_trace_csv_row_includes_lambda_when_asked(tmp_path):
    from cdkit.core import SolveTrace, TraceRecord

    rec = TraceRecord(0, 1.0, 0.5, 0.0, 1.0, 0.1, 3.0, lambda_min=-0.25)
    path = tmp_path / "trace.csv"
    SolveTrace([rec]).write_csv(path)
    header, row = path.read_text().strip().split("\n")
    assert header.endswith(",lambda_min")
    assert row.endswith(",-0.25")


@pytest.mark.parametrize("lam", [False, True], ids=["no-lambda", "lambda"])
def test_trace_csv_bytes(tmp_path, lam):
    # the exact bytes, so a change of format (2.0 written as 2, a lost -0.0
    # sign, a line ending) fails here although every parsed value survives
    from cdkit.core import SolveTrace, TraceRecord

    recs = [
        TraceRecord(0, 2.0, -0.0, 1e-300, float("inf"), 0.0, 0.125),
        TraceRecord(1, -1.5, 0.1, 0.0, 1.0, 1 / 3, 7.0),
    ]
    if lam:
        recs[0].lambda_min, recs[1].lambda_min = -0.0, 3.0
    path = tmp_path / "trace.csv"
    SolveTrace(recs).write_csv(path)
    if lam:
        expected = (
            b"k,f,dual_cert,cs,eta,theta,wall_ms,lambda_min\n"
            b"0,2.0,-0.0,1e-300,inf,0.0,0.125,-0.0\n"
            b"1,-1.5,0.1,0.0,1.0,0.3333333333333333,7.0,3.0\n"
        )
    else:
        expected = (
            b"k,f,dual_cert,cs,eta,theta,wall_ms\n"
            b"0,2.0,-0.0,1e-300,inf,0.0,0.125\n"
            b"1,-1.5,0.1,0.0,1.0,0.3333333333333333,7.0\n"
        )
    assert path.read_bytes() == expected


def test_kkt_residuals_vanish_at_planted_optimum():
    built = build_orthant_quadratic(dim=15, seed=8)
    cs, dist_sq = kkt_residuals(built.program, built.x_star)
    assert abs(cs) < 1e-10
    assert dist_sq < 1e-20
