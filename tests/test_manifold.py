"""Atlas structure checks and generalized points."""

import math

import numpy as np
import pytest

from colombeau.errors import CoherenceFailure, NotComparable, PartitionMismatch
from colombeau.manifold import (
    Atlas,
    Chart,
    GeneralizedPoint,
    PartitionOfUnity,
    Transition,
    point_equiv,
)
from colombeau.manifolds import circle, euclidean, torus2, wrap_pi
from colombeau.nets import box_lattice

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def s1():
    return circle()


@pytest.fixture(scope="module")
def t2():
    return torus2()


def test_circle_atlas_validates(s1):
    report = s1.atlas.validate(n_samples=25)
    assert report["round_trip"]["A"] < 1e-12
    assert report["round_trip"]["B"] < 1e-12
    for key, entry in report["transition"].items():
        assert entry["inverse"] < 1e-12, key
        assert entry["chart_consistency"] < 1e-12, key
        assert abs(entry["min_abs_det"] - 1.0) < 1e-14, key


def test_circle_pou_validates(s1):
    report = s1.pou.validate(n_samples=60)
    assert report["sum_minus_one"] < 1e-12
    assert report["zeta_plateau"] == 0.0


def test_circle_transition_geometry(s1):
    t = s1.atlas.transition("A", "B")
    x = np.array([[0.5], [-0.5]])
    y = t.fn(x)
    assert y[0, 0] == pytest.approx(0.5)
    assert y[1, 0] == pytest.approx(-0.5 + TWO_PI)
    back = s1.atlas.transition("B", "A").fn(y)
    assert np.allclose(back, x, atol=1e-15)


def test_torus_atlas_and_pou_validate(t2):
    report = t2.atlas.validate(n_samples=9)
    for entry in report["transition"].values():
        assert entry["inverse"] < 1e-12
        assert entry["jac_fd"] < 1e-6
    for worst in report["cocycle"].values():
        assert worst < 1e-12
    pou_report = t2.pou.validate(n_samples=21)
    assert pou_report["sum_minus_one"] < 1e-12


def test_torus_is_circle_times_circle(s1, t2):
    pi = math.pi
    factor_boxes = {
        ("A", "B"): [(0.15, pi - 0.15), (-pi + 0.15, -0.15)],
        ("B", "A"): [(0.15, pi - 0.15), (pi + 0.15, TWO_PI - 0.15)],
        ("A", "A"): [(-2.9, 2.9)],
        ("B", "B"): [(0.25, TWO_PI - 0.25)],
    }
    names = ["AA", "AB", "BA", "BB"]
    assert sorted(t2.atlas.charts) == names
    for a in names:
        for b in names:
            if a == b:
                continue
            boxes = [(i1, i2) for i1 in factor_boxes[(a[0], b[0])]
                     for i2 in factor_boxes[(a[1], b[1])]]
            assert t2.atlas.overlap_boxes[(a, b)] == boxes
            tr = t2.atlas.transitions[(a, b)]
            for box in boxes:
                x = box_lattice(box, 9)
                y, jac = tr.fn(x), tr.jac(x)
                for axis in (0, 1):
                    f = s1.atlas.transition(a[axis], b[axis])
                    col = x[:, axis:axis + 1]
                    assert np.array_equal(y[:, axis:axis + 1], f.fn(col))
                    assert np.array_equal(jac[:, axis, axis], f.jac(col)[:, 0, 0])
                assert not jac[:, 0, 1].any() and not jac[:, 1, 0].any()
    for c in names:
        x = box_lattice(t2.atlas.charts[c].sample_box, 21)
        for t_members, s_members in ((t2.pou.chi, s1.pou.chi),
                                     (t2.pou.zeta, s1.pou.zeta)):
            want = s_members[c[0]](x[:, 0]) * s_members[c[1]](x[:, 1])
            assert np.max(np.abs(t_members[c](x) - want)) <= 1e-15


def test_affine_transitions_have_diagonal_jacobians(s1, t2):
    # transport_net scales by the Jacobian's diagonal: exact only while the
    # Jacobian is diagonal, and constant on each (connected) overlap box
    for atlas in (s1.atlas, t2.atlas):
        cases = list(atlas.overlap_boxes.items())
        cases += [((c, c), [ch.sample_box]) for c, ch in atlas.charts.items()]
        for (a, b), boxes in cases:
            tr = atlas.transition(a, b)
            assert tr.affine, (a, b)
            for box in boxes:
                jac = tr.jac(box_lattice(box, 9))
                assert not (jac * (1.0 - np.eye(atlas.dim))).any(), (a, b, box)
                assert np.array_equal(jac, np.broadcast_to(jac[0], jac.shape)), (a, b, box)


def test_cubic_line_validates(cubic_line):
    report = cubic_line.atlas.validate(n_samples=30)
    assert report["round_trip"]["V"] < 1e-12
    entry = report["transition"]["U->V"]
    assert entry["jac_fd"] < 1e-6
    # Jacobian genuinely varies: 3x^2+1 on [-1.8, 1.8] (lattice min near 1)
    assert entry["min_abs_det"] == pytest.approx(1.0, abs=0.02)
    jac = cubic_line.atlas.transition("U", "V").jac(np.array([[1.0]]))
    assert jac[0, 0, 0] == pytest.approx(4.0)
    cubic_line.pou.validate(n_samples=40)


def test_validation_catches_bad_jacobian():
    chart = Chart("0", 1, lambda p: True,
                  lambda p: np.atleast_1d(float(p)),
                  lambda x: float(np.asarray(x).reshape(-1)[0]),
                  ((-1.0, 1.0),))
    chart2 = Chart("1", 1, lambda p: True,
                   lambda p: np.atleast_1d(float(p) * 2.0),
                   lambda x: float(np.asarray(x).reshape(-1)[0]) / 2.0,
                   ((-2.0, 2.0),))
    bad = Transition(lambda x: 2.0 * np.asarray(x, dtype=float),
                     lambda x: np.full((len(x), 1, 1), 7.7))  # wrong slope
    good_back = Transition(lambda y: 0.5 * np.asarray(y, dtype=float),
                           lambda y: np.full((len(y), 1, 1), 0.5))
    atlas = Atlas("bad", 1, {"0": chart, "1": chart2},
                  {("0", "1"): bad, ("1", "0"): good_back},
                  {("0", "1"): [((-0.9, 0.9),)]})
    with pytest.raises(CoherenceFailure):
        atlas.validate(n_samples=9)


@pytest.mark.parametrize("affine", [False, True])
def test_validation_holds_an_affine_declaration_to_a_diagonal_jacobian(affine):
    # a quarter turn is a valid transition, but transport_net cannot move a
    # net through it by diagonal scaling, so it may not be declared affine
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])
    charts = {name: Chart(name, 2, lambda p: True,
                          lambda p, m=m: m @ np.asarray(p, dtype=float),
                          lambda x, m=m: m.T @ np.asarray(x, dtype=float),
                          ((-1.0, 1.0),) * 2)
              for name, m in (("P", np.eye(2)), ("Q", turn))}
    transitions = {
        ("P", "Q"): Transition(lambda x: np.asarray(x) @ turn.T,
                               lambda x: np.broadcast_to(turn, (len(x), 2, 2)), affine),
        ("Q", "P"): Transition(lambda y: np.asarray(y) @ turn,
                               lambda y: np.broadcast_to(turn.T, (len(y), 2, 2)), affine),
    }
    atlas = Atlas("turn", 2, charts, transitions, {("P", "Q"): [((-1.0, 1.0),) * 2]})
    if not affine:
        atlas.validate(n_samples=5)
        return
    with pytest.raises(CoherenceFailure, match="affine"):
        atlas.validate(n_samples=5)


def test_validation_raises_on_nan_transition():
    """A transition that maps every point to NaN must fail, not read as 0.0."""
    charts = {name: Chart(name, 1, lambda p: True,
                          lambda p: np.atleast_1d(float(p)),
                          lambda x: float(np.asarray(x).reshape(-1)[0]),
                          ((-1.0, 1.0),))
              for name in ("0", "1")}
    nan = Transition(lambda x: np.full(np.shape(x), np.nan),
                     lambda x: np.ones((len(x), 1, 1)))
    same = Transition(lambda y: np.asarray(y, dtype=float),
                      lambda y: np.ones((len(y), 1, 1)))
    atlas = Atlas("nan-line", 1, charts, {("0", "1"): nan, ("1", "0"): same},
                  {("0", "1"): [((-0.9, 0.9),)]})
    with pytest.raises(CoherenceFailure):
        atlas.validate(n_samples=9)


def test_pou_membership_must_match_charts(s1):
    with pytest.raises(PartitionMismatch):
        PartitionOfUnity(s1.atlas, {"A": s1.pou.chi["A"]}, s1.pou.zeta,
                         s1.pou.supp_boxes)


def test_point_equiv_basics():
    m = euclidean(1)
    p = GeneralizedPoint.classical(m.atlas, "0", [0.3])
    q = GeneralizedPoint.classical(m.atlas, "0", [0.3])
    eq, fit = point_equiv(p, q)
    assert eq and fit.slope == np.inf
    r = GeneralizedPoint(m.atlas, "0", lambda eps: np.array([0.3 + eps]),
                         ((0.2, 0.5),))
    eq2, fit2 = point_equiv(p, r)
    assert not eq2
    assert fit2.slope == pytest.approx(1.0, abs=1e-9)
    s = GeneralizedPoint(m.atlas, "0", lambda eps: np.array([0.3 + math.exp(-1 / eps)]),
                         ((0.2, 0.5),))
    eq3, _ = point_equiv(p, s)
    assert eq3


def test_point_equiv_chart_independent_on_circle(s1):
    # the same pair of point nets measured in both charts gives the same
    # gap net on this atlas (transitions are rigid shifts)
    base = -0.5  # sits on the overlap component mapped by +2pi
    p_a = GeneralizedPoint(s1.atlas, "A", lambda eps: np.array([base + eps]),
                           ((-0.7, -0.3),))
    q_a = GeneralizedPoint(s1.atlas, "A", lambda eps: np.array([base + 3 * eps]),
                           ((-0.7, -0.3),))
    p_b = GeneralizedPoint(s1.atlas, "B", lambda eps: np.array([base + eps + TWO_PI]),
                           ((TWO_PI - 0.7, TWO_PI - 0.3),))
    q_b = GeneralizedPoint(s1.atlas, "B", lambda eps: np.array([base + 3 * eps + TWO_PI]),
                           ((TWO_PI - 0.7, TWO_PI - 0.3),))
    eq_a, fit_a = point_equiv(p_a, q_a)
    eq_b, fit_b = point_equiv(p_b, q_b)
    assert not eq_a and not eq_b
    assert fit_a.slope == pytest.approx(fit_b.slope, abs=1e-12)
    # and across charts through the transition
    eq_x, fit_x = point_equiv(p_a, q_b)
    assert not eq_x
    assert fit_x.slope == pytest.approx(fit_a.slope, abs=1e-9)


def test_point_equiv_scaling_invariance_on_cubic_line(cubic_line):
    # coordinate changes rescale the gap by a bounded Jacobian factor, so
    # the asymptotic verdict agrees between charts
    pu = GeneralizedPoint(cubic_line.atlas, "U", lambda eps: np.array([0.8 + eps ** 2]),
                          ((0.7, 1.0),))
    qu = GeneralizedPoint.classical(cubic_line.atlas, "U", [0.8])
    t = cubic_line.atlas.transition("U", "V")
    pv = GeneralizedPoint(cubic_line.atlas, "V",
                          lambda eps: t.fn(np.array([[0.8 + eps ** 2]]))[0],
                          ((1.0, 1.5),))
    qv = GeneralizedPoint(cubic_line.atlas, "V",
                          lambda eps: t.fn(np.array([[0.8]]))[0],
                          ((1.0, 1.5),))
    _, fit_u = point_equiv(pu, qu)
    _, fit_v = point_equiv(pv, qv)
    assert fit_u.slope == pytest.approx(2.0, abs=1e-9)
    # gap in V is (3 x^2 + 1) eps^2 + O(eps^4): same slope up to tiny bend
    assert fit_v.slope == pytest.approx(2.0, abs=1e-3)
    assert fit_u.verdict == fit_v.verdict == "moderate"


@pytest.mark.parametrize("x", [-0.3, -1.7])
def test_point_equiv_reads_a_transported_rounding_gap_as_equal(s1, x):
    # a classical point and its own image in the other chart: transported
    # back, the gap is one or two ulps at every eps, not an order-0 gap
    p = GeneralizedPoint.classical(s1.atlas, "A", [x])
    q = GeneralizedPoint.classical(s1.atlas, "B", s1.atlas.transition("A", "B").fn(
        np.array([[x]]))[0])
    eq, fit = point_equiv(p, q)
    assert 0.0 < max(fit.magnitudes) < 1e-15
    assert eq and fit.verdict == "negligible"


def test_point_equiv_not_comparable():
    m1 = euclidean(1)
    m2 = euclidean(1)
    p = GeneralizedPoint.classical(m1.atlas, "0", [0.0])
    q = GeneralizedPoint.classical(m2.atlas, "0", [0.0])
    with pytest.raises(NotComparable):
        point_equiv(p, q)


def test_point_equiv_not_comparable_without_a_transition(scaled_line):
    # scaled_line's two charts with no transition joining them: the chart check,
    # not the atlas check, refuses, and Atlas.transition's CoherenceFailure never shows
    atlas = Atlas("two-apart", 1, scaled_line.charts, {}, {})
    p = GeneralizedPoint.classical(atlas, "L", [0.0])
    q = GeneralizedPoint.classical(atlas, "S", [0.0])
    with pytest.raises(NotComparable, match="no common chart between L and S"):
        point_equiv(p, q)
    assert point_equiv(p, GeneralizedPoint.classical(atlas, "L", [0.0]))[0]


def test_generalized_point_box(s1):
    p = GeneralizedPoint(s1.atlas, "A", lambda eps: np.array([0.5 + eps]),
                         ((0.4, 0.6),))
    assert p.in_box(0.01)
    assert not p.in_box(0.2)
    assert wrap_pi(7.0) == pytest.approx(7.0 - TWO_PI)
