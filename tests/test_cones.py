"""Cone oracles: closed-form LMOs checked against hand-worked examples and
a brute-force grid search."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdkit.cones import (
    NonnegativeOrthant,
    PsdCone,
    SecondOrderCone,
    brute_lmo,
    dual_distance,
    lmo_orthant,
    lmo_psd_dense,
    lmo_soc,
    nuclear_norm,
    operator_norm,
)


# ---------------------------------------------------------------------------
# worked examples, derived by hand


def test_orthant_lmo_picks_most_negative_coordinate():
    g = np.array([1.0, -2.0, 2.0])
    v = lmo_orthant(g)
    np.testing.assert_array_equal(v, [0.0, 1.0, 0.0])
    assert -np.vdot(g, v) == 2.0


def test_orthant_lmo_nonnegative_gradient_returns_zero():
    v = lmo_orthant(np.array([0.5, 0.0, 3.0]))
    np.testing.assert_array_equal(v, np.zeros(3))


def test_soc_lmo_three_regimes():
    # outside both cones: extreme ray at 45 degrees against the bar part
    g = np.array([3.0, 0.0, 1.0])
    v = lmo_soc(g)
    r2 = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(v, [-r2, 0.0, r2], atol=1e-15)
    assert abs(-np.vdot(g, v) - np.sqrt(2.0)) < 1e-14

    # g in the dual cone: nothing to gain, lmo is zero
    np.testing.assert_array_equal(lmo_soc(np.array([0.0, 0.0, 2.0])), np.zeros(3))

    # -g in the cone interior: unit vector along the steepest ray
    g = np.array([1.0, 0.0, -3.0])
    v = lmo_soc(g)
    r10 = 1.0 / np.sqrt(10.0)
    np.testing.assert_allclose(v, [-r10, 0.0, 3.0 * r10], atol=1e-14)
    assert abs(-np.vdot(g, v) - np.sqrt(10.0)) < 1e-13


def test_psd_lmo_diag_example():
    g = np.diag([1.0, -2.0])
    lam, q, v = None, None, PsdCone(2).lmo(g)
    np.testing.assert_allclose(v, np.array([[0.0, 0.0], [0.0, 1.0]]), atol=1e-14)
    assert abs(-np.vdot(g, v) - 2.0) < 1e-14


def test_psd_lmo_psd_input_returns_zero():
    v = PsdCone(2).lmo(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_array_equal(v, np.zeros((2, 2)))


def test_lmo_psd_dense_returns_eigpair():
    mat = np.diag([1.0, -2.0, 0.5])
    lam, q, v = lmo_psd_dense(mat)
    assert lam == pytest.approx(-2.0)
    np.testing.assert_allclose(np.abs(q), [0.0, 1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(v, np.outer(q, q), atol=1e-15)


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
    dist = cone.dual_distance(g)
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


def test_brute_lmo_orthant_matches_closed_form():
    cone = NonnegativeOrthant(3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = rng.standard_normal(3)
        exact = -np.vdot(g, cone.lmo(g))
        brute = -np.vdot(g, brute_lmo(cone, g, grid_n=10000))
        assert brute <= exact + 1e-12
        assert exact - brute <= 2e-3 * (1.0 + np.linalg.norm(g))


def test_brute_lmo_soc_matches_closed_form():
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
    assert o.contains(o.default_init())
    assert o.contains(np.array([1.0, 0.0, 2.0]))
    assert not o.contains(np.array([-1e-6, 0.0, 0.0]))

    s = SecondOrderCone(3)
    assert s.contains(s.default_init())
    assert s.contains(np.array([0.6, 0.0, 1.0]))
    assert not s.contains(np.array([1.1, 0.0, 1.0]))

    p = PsdCone(2)
    assert p.contains(p.default_init())
    assert p.contains(np.eye(2))
    assert not p.contains(-np.eye(2))


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
