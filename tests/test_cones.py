"""Cone oracles: closed-form LMOs checked against hand-worked examples and
a brute-force grid search."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdkit.cones import NonnegativeOrthant, PsdCone, SecondOrderCone
from oracles import brute_lmo, contains, dual_distance, nuclear_norm, operator_norm


# ---------------------------------------------------------------------------
# worked examples, derived by hand


def test_orthant_lmo_picks_most_negative_coordinate():
    g = np.array([1.0, -2.0, 2.0])
    v = NonnegativeOrthant(3).lmo(g)
    np.testing.assert_array_equal(v, [0.0, 1.0, 0.0])
    assert -np.vdot(g, v) == 2.0


def test_orthant_lmo_nonnegative_gradient_returns_zero():
    v = NonnegativeOrthant(3).lmo(np.array([0.5, 0.0, 3.0]))
    np.testing.assert_array_equal(v, np.zeros(3))


def test_soc_lmo_three_regimes():
    # outside both cones: extreme ray at 45 degrees against the bar part
    g = np.array([3.0, 0.0, 1.0])
    v = SecondOrderCone(3).lmo(g)
    r2 = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(v, [-r2, 0.0, r2], atol=1e-15)
    assert abs(-np.vdot(g, v) - np.sqrt(2.0)) < 1e-14

    # g in the dual cone: nothing to gain, lmo is zero
    v = SecondOrderCone(3).lmo(np.array([0.0, 0.0, 2.0]))
    np.testing.assert_array_equal(v, np.zeros(3))

    # -g in the cone interior: unit vector along the steepest ray
    g = np.array([1.0, 0.0, -3.0])
    v = SecondOrderCone(3).lmo(g)
    r10 = 1.0 / np.sqrt(10.0)
    np.testing.assert_allclose(v, [-r10, 0.0, 3.0 * r10], atol=1e-14)
    assert abs(-np.vdot(g, v) - np.sqrt(10.0)) < 1e-13


def test_soc_lmo_on_the_dual_cone_boundary_returns_zero():
    # ||g_x|| = g_t exactly (3-4-5): g lies on the dual cone's boundary, so
    # by the documented case split the LMO returns the zero atom, not the
    # boundary ray that also gives <g, v> = 0
    v = SecondOrderCone(3).lmo(np.array([3.0, 4.0, 5.0]))
    np.testing.assert_array_equal(v, np.zeros(3))


def test_psd_lmo_diag_example():
    g = np.diag([1.0, -2.0])
    v = PsdCone(2).lmo(g)
    np.testing.assert_allclose(v, np.array([[0.0, 0.0], [0.0, 1.0]]), atol=1e-14)
    assert abs(-np.vdot(g, v) - 2.0) < 1e-14


def test_psd_lmo_psd_input_returns_zero():
    v = PsdCone(2).lmo(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_array_equal(v, np.zeros((2, 2)))


def test_psd_lmo_returns_bottom_eigvector_outer_product():
    mat = np.diag([1.0, -2.0, 0.5])
    v = PsdCone(3).lmo(mat)
    e2 = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(v, np.outer(e2, e2), atol=1e-14)
    assert -np.vdot(mat, v) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# cert equals the dual-norm distance to the dual cone (strong duality)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_orthant_cert_matches_dual_distance(dim):
    rng = np.random.default_rng(dim)
    cone = NonnegativeOrthant(dim)
    for _ in range(50):
        g = rng.standard_normal(dim) * np.exp(rng.standard_normal())
        cert = -np.vdot(g, cone.lmo(g))
        dist = dual_distance(cone, g)
        assert abs(cert - dist) <= 1e-10 * (1.0 + np.linalg.norm(g))


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_soc_cert_matches_dual_distance(dim):
    rng = np.random.default_rng(100 + dim)
    cone = SecondOrderCone(dim)
    for _ in range(50):
        g = rng.standard_normal(dim)
        cert = -np.vdot(g, cone.lmo(g))
        dist = dual_distance(cone, g)
        assert abs(cert - dist) <= 1e-10 * (1.0 + np.linalg.norm(g))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_psd_cert_matches_dual_distance(n):
    rng = np.random.default_rng(200 + n)
    cone = PsdCone(n)
    for _ in range(30):
        a = rng.standard_normal((n, n))
        g = (a + a.T) / 2.0
        cert = -np.vdot(g, cone.lmo(g))
        dist = dual_distance(cone, g)
        # operator-norm distance for the nuclear/operator pairing
        assert abs(cert - dist) <= 1e-10 * (1.0 + operator_norm(g))


# the same identity as a property, with the zero gradient and every branch of
# the second-order LMO pinned by examples; 1e-12 is relative to the dual norm
# of g, so g = 0 must give exactly 0 on both sides

# magnitudes below 1e-100 become 0 so that squared norms never underflow
_entries = st.floats(-1e3, 1e3).map(lambda x: 0.0 if abs(x) < 1e-100 else x)


def _assert_cert_is_dual_distance(cone, g, dual_norm):
    cert = -np.vdot(g, cone.lmo(g))
    dist = dual_distance(cone, g)
    assert abs(cert - dist) <= 1e-12 * dual_norm


@settings(max_examples=200, deadline=None)
@given(g=st.lists(_entries, min_size=1, max_size=6))
@example(g=[0.0, 0.0, 0.0])
@example(g=[1.0, 0.0, 2.0])
def test_orthant_cert_is_dual_distance_property(g):
    g = np.array(g)
    _assert_cert_is_dual_distance(NonnegativeOrthant(g.size), g, np.linalg.norm(g))


# t as a multiple of ||x||: below -1 puts -g inside the cone, above 1 puts g
# inside it, and -1 / 1 are the two boundaries
_SOC_T = {
    "minus_g_inside": lambda r: -(1.0 + r),
    "minus_g_boundary": lambda r: -1.0,
    "between": lambda r: 2.0 * r - 1.0,
    "g_boundary": lambda r: 1.0,
    "g_inside": lambda r: 1.0 + r,
}


@settings(max_examples=300, deadline=None)
@given(
    x=st.lists(_entries, min_size=1, max_size=5),
    branch=st.sampled_from(sorted(_SOC_T)),
    r=st.floats(0.0, 1.0),
)
@example(x=[0.0, 0.0], branch="between", r=0.5)
@example(x=[3.0, 4.0], branch="minus_g_inside", r=1.0)
@example(x=[3.0, 4.0], branch="minus_g_boundary", r=0.0)
@example(x=[3.0, 4.0], branch="between", r=0.75)
@example(x=[3.0, 4.0], branch="g_boundary", r=0.0)
@example(x=[3.0, 4.0], branch="g_inside", r=0.5)
def test_soc_cert_is_dual_distance_property(x, branch, r):
    x = np.array(x)
    nx = np.linalg.norm(x)
    g = np.append(x, _SOC_T[branch](r) * nx)
    _assert_cert_is_dual_distance(SecondOrderCone(g.size), g, np.linalg.norm(g))


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(1, 4).flatmap(
        lambda n: st.lists(_entries, min_size=n * n, max_size=n * n)
    )
)
@example(a=[0.0] * 9)
@example(a=[2.0, 1.0, 1.0, 2.0])
@example(a=[2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0])
def test_psd_cert_is_dual_distance_property(a):
    n = math.isqrt(len(a))
    a = np.reshape(a, (n, n))
    g = 0.5 * (a + a.T)
    _assert_cert_is_dual_distance(PsdCone(n), g, operator_norm(g))


# ---------------------------------------------------------------------------
# brute-force grid agrees with the closed forms


def test_brute_orthant_lmo_matches_closed_form():
    cone = NonnegativeOrthant(3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = rng.standard_normal(3)
        exact = -np.vdot(g, cone.lmo(g))
        brute = -np.vdot(g, brute_lmo(cone, g, grid_n=10000))
        assert brute <= exact + 1e-12
        assert exact - brute <= 2e-3 * (1.0 + np.linalg.norm(g))


def test_brute_soc_lmo_matches_closed_form():
    cone = SecondOrderCone(3)
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = rng.standard_normal(3)
        exact = -np.vdot(g, cone.lmo(g))
        brute = -np.vdot(g, brute_lmo(cone, g, grid_n=10000))
        assert brute <= exact + 1e-12
        assert exact - brute <= 2e-3 * (1.0 + np.linalg.norm(g))


@pytest.mark.parametrize("n", [2, 3])
def test_brute_lmo_psd_matches_closed_form(n):
    cone = PsdCone(n)
    rng = np.random.default_rng(9 + n)
    for _ in range(10):
        a = rng.standard_normal((n, n))
        g = (a + a.T) / 2.0
        exact = -np.vdot(g, cone.lmo(g))
        brute = -np.vdot(g, brute_lmo(cone, g, grid_n=10000))
        assert brute <= exact + 1e-12
        assert exact - brute <= 2e-3 * (1.0 + np.linalg.norm(g))


# ---------------------------------------------------------------------------
# membership and default points


def test_contains_and_default_init():
    o = NonnegativeOrthant(3)
    assert contains(o, o.default_init())
    assert contains(o, np.array([1.0, 0.0, 2.0]))
    assert not contains(o, np.array([-1e-6, 0.0, 0.0]))

    s = SecondOrderCone(3)
    assert contains(s, s.default_init())
    assert contains(s, np.array([0.6, 0.0, 1.0]))
    assert not contains(s, np.array([1.1, 0.0, 1.0]))

    p = PsdCone(2)
    assert contains(p, p.default_init())
    assert contains(p, np.eye(2))
    assert not contains(p, -np.eye(2))


def _membership_points(cone, rng):
    # random points inside and outside, boundary points, and points just off
    # the boundary by more and by less than the roundoff slack. The PSD
    # points add an unsymmetric matrix whose symmetric part is PSD, which
    # both tests reject
    if isinstance(cone, NonnegativeOrthant):
        inside = np.abs(rng.standard_normal(cone.dim))
        edge = inside.copy()
        edge[0] = 0.0
        pts = [inside, edge, rng.standard_normal(cone.dim), np.zeros(cone.dim)]
        for off in (1e-12, 1e-6):
            bent = edge.copy()
            bent[0] = -off
            pts.append(bent)
        return pts
    if isinstance(cone, SecondOrderCone):
        x = rng.standard_normal(cone.dim - 1)
        r = float(np.linalg.norm(x))
        pts = [np.append(x, t) for t in (2.0 * r, r, 0.5 * r, -r, r - 1e-12, r - 1e-6)]
        return pts + [rng.standard_normal(cone.dim), np.zeros(cone.dim)]
    a = rng.standard_normal((cone.n, cone.n))
    evecs = np.linalg.qr(a)[0]
    pts = [a @ a.T, 0.5 * (a + a.T), np.zeros((cone.n, cone.n)), a @ a.T + (a - a.T)]
    for low in (0.0, -1e-12, -1e-6, -1.0):
        evals = np.abs(rng.standard_normal(cone.n)) + 0.1
        evals[0] = low
        pts.append((evecs * evals) @ evecs.T)
    return pts


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "cone",
    [NonnegativeOrthant(4), SecondOrderCone(4), PsdCone(4)],
    ids=["orthant", "soc", "psd"],
)
def test_library_membership_matches_oracle(cone, seed):
    # the check solve() makes on a start point agrees with the oracle's,
    # which is written separately
    pts = _membership_points(cone, np.random.default_rng(seed))
    verdicts = [cone.contains(x) for x in pts]
    assert verdicts == [contains(cone, x) for x in pts]
    assert True in verdicts and False in verdicts


def test_default_init_has_unit_scale():
    assert np.linalg.norm(NonnegativeOrthant(4).default_init()) == 1.0
    assert np.linalg.norm(SecondOrderCone(4).default_init()) == 1.0
    assert nuclear_norm(PsdCone(3).default_init()) == pytest.approx(1.0)


def test_matrix_norms_match_eigvalsh():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert nuclear_norm(m) == pytest.approx(4.0)
    assert operator_norm(m) == pytest.approx(3.0)
    ind = np.diag([1.0, -2.0])
    assert nuclear_norm(ind) == pytest.approx(3.0)
    assert operator_norm(ind) == pytest.approx(2.0)
