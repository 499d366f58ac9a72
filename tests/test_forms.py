"""Differential forms: antisymmetric storage, exterior calculus, the
radial homotopy, top-degree integration, and boundary-theorem reports."""

import functools
import itertools
import math
import operator

import numpy as np
import pytest
import sympy as sp

from colombeau import _mindex as mi
from colombeau import forms as F
from colombeau import quadrature
from colombeau import tensor as T
from colombeau.embed import dirac, embed_rn, heaviside
from colombeau.errors import (AtlasMismatch, DegreeOverflow, DomainError,
                              InvalidDegree, InvalidSlots, QuadratureFailure)
from colombeau.gfunc import GeneralizedFunction, sigma_embed
from colombeau.grid import dyadic_grid
from colombeau.manifold import Atlas, Chart
from colombeau.manifolds import circle, euclidean, torus2
from colombeau.mechanics import SymplecticForm, poisson
from colombeau.mollifier import build_mollifier
from colombeau.nets import Net, box_lattice
from colombeau.smooth import SmoothFn, constant, coordinate, from_sympy

X0, X1, X2 = sp.symbols("x0 x1 x2")


@pytest.fixture(scope="module")
def fourier():
    return build_mollifier("fourier")


@pytest.fixture(scope="module")
def line():
    return euclidean(1)


@pytest.fixture(scope="module")
def plane():
    return euclidean(2)


@pytest.fixture(scope="module")
def space3():
    return euclidean(3)


@pytest.fixture(scope="module")
def t2():
    return torus2()


def smooth3(expr):
    return from_sympy(expr, [X0, X1, X2])


def values(net, eps, pts):
    return np.asarray(net.at(eps)._partial_fn((0,) * net.dim, pts))


def form_sup(omega, chart, eps, pts):
    worst = 0.0
    for K in omega.keys():
        worst = max(worst, float(np.max(np.abs(values(omega.comps[chart][K], eps, pts)))))
    return worst


def seeded_form(space, k, seed):
    fns = T.random_coherent_functions(space, count=12, seed=seed)
    keys = F.index_tuples(space.atlas.dim, k)
    comps = {c: {K: fns[t].nets[c] for t, K in enumerate(keys)}
             for c in space.atlas.charts}
    return F.GeneralizedKForm(space, k, comps)


def seeded_field(space, seed):
    return T.random_tensor_field(space, (1, 0), seed=seed)


# -- storage and algebra ------------------------------------------------------


def test_antisymmetric_storage(plane):
    w = F.GeneralizedKForm(plane, 2, {"0": {(0, 1): constant(2.0, 2)}})
    pts = box_lattice(plane.atlas.charts["0"].sample_box, 5)
    plus = values(w.component("0", (0, 1)), 0.5, pts)
    minus = values(w.component("0", (1, 0)), 0.5, pts)
    assert np.array_equal(plus, -minus)
    assert np.all(values(w.component("0", (1, 1)), 0.5, pts) == 0.0)
    with pytest.raises(InvalidSlots):
        F.GeneralizedKForm(plane, 2, {"0": {(1, 0): constant(1.0, 2)}})
    with pytest.raises(InvalidDegree):
        F.GeneralizedKForm(plane, 0, {"0": {(): constant(1.0, 2)}})


@pytest.mark.parametrize("entries", [1, 3])
def test_kform_sequence_needs_one_entry_per_increasing_tuple(plane, entries):
    # a sequence has no keys to leave out, so a short or long one is refused;
    # a dict may leave components out, and they are zero
    x0 = coordinate(0, 2)
    with pytest.raises(AtlasMismatch):
        F.GeneralizedKForm(plane, 1, {"0": [x0] * entries})
    w = F.GeneralizedKForm(plane, 1, {"0": {(0,): x0}})
    assert w.comps["0"][(1,)].at(0.5)(np.zeros((3, 2))).tolist() == [0.0] * 3


def test_exterior_d_of_scalar(plane):
    U = sigma_embed(plane, {"0": from_sympy(X0 ** 2 * X1, [X0, X1])})
    dU = F.exterior_d(U)
    assert dU.degree == 1
    pts = box_lattice(plane.atlas.charts["0"].sample_box, 9)
    assert np.allclose(values(dU.comps["0"][(0,)], 0.25, pts),
                       2 * pts[:, 0] * pts[:, 1], rtol=1e-14, atol=0)
    assert np.allclose(values(dU.comps["0"][(1,)], 0.25, pts),
                       pts[:, 0] ** 2, rtol=1e-14, atol=0)


def test_d_squared_vanishes(space3):
    A = seeded_form(space3, 1, seed=2)
    dd = F.exterior_d(F.exterior_d(A))
    assert dd.degree == 3
    pts = box_lattice(space3.atlas.charts["0"].sample_box, 5)
    for eps in (0.5, 2.0 ** -8, 2.0 ** -14):
        assert form_sup(dd, "0", eps, pts) < 1e-13


def test_wedge_overflow_and_anticommutativity(plane):
    A = seeded_form(plane, 1, seed=3)
    B = seeded_form(plane, 1, seed=4)
    with pytest.raises(DegreeOverflow):
        F.wedge(F.wedge(A, B), A)
    AB = F.wedge(A, B)
    BA = F.wedge(B, A)
    pts = box_lattice(plane.atlas.charts["0"].sample_box, 9)
    left = values(AB.comps["0"][(0, 1)], 0.25, pts)
    right = values(BA.comps["0"][(0, 1)], 0.25, pts)
    assert np.allclose(left, -right, rtol=0, atol=1e-14 * (1 + np.max(np.abs(left))))


def test_graded_leibniz(space3):
    A = seeded_form(space3, 1, seed=5)
    B = seeded_form(space3, 1, seed=6)
    resid = F.exterior_d(F.wedge(A, B)) - F.wedge(F.exterior_d(A), B) \
        + F.wedge(A, F.exterior_d(B))
    pts = box_lattice(space3.atlas.charts["0"].sample_box, 5)
    for eps in (0.5, 2.0 ** -8, 2.0 ** -14):
        assert form_sup(resid, "0", eps, pts) < 1e-12


def test_insert_pairs_with_fields(plane):
    A = seeded_form(plane, 1, seed=7)
    Xi = seeded_field(plane, seed=8)
    paired = F.insert(A, Xi)
    assert isinstance(paired, GeneralizedFunction)
    want = (Xi.comps["0"][(0,)] * A.comps["0"][(0,)]
            + Xi.comps["0"][(1,)] * A.comps["0"][(1,)])
    pts = box_lattice(plane.atlas.charts["0"].sample_box, 9)
    assert np.array_equal(values(paired.nets["0"], 0.25, pts),
                          values(want, 0.25, pts))
    with pytest.raises(InvalidDegree):
        F.insert(paired, Xi)


def test_insert_squares_to_zero(space3):
    w = seeded_form(space3, 2, seed=9)
    Xi = seeded_field(space3, seed=10)
    twice = F.insert(F.insert(w, Xi), Xi)
    assert isinstance(twice, GeneralizedFunction)
    pts = box_lattice(space3.atlas.charts["0"].sample_box, 5)
    for eps in (0.5, 2.0 ** -8, 2.0 ** -14):
        assert np.max(np.abs(values(twice.nets["0"], eps, pts))) < 1e-10


def test_cartan_formula(space3):
    w = seeded_form(space3, 2, seed=11)
    Xi = seeded_field(space3, seed=12)
    lhs = F.lie_derivative_form(w, Xi)
    rhs = F.exterior_d(F.insert(w, Xi)) + F.insert(F.exterior_d(w), Xi)
    resid = lhs - rhs
    pts = box_lattice(space3.atlas.charts["0"].sample_box, 5)
    for eps in (0.5, 2.0 ** -8, 2.0 ** -14):
        assert form_sup(resid, "0", eps, pts) < 1e-10


def test_cartan_top_degree(plane):
    # d omega is the empty 3-form on the plane; the identity reduces to
    # L = d(i_Xi omega)
    w = seeded_form(plane, 2, seed=13)
    Xi = seeded_field(plane, seed=14)
    dw = F.exterior_d(w)
    assert dw.keys() == []
    resid = F.lie_derivative_form(w, Xi) \
        - F.exterior_d(F.insert(w, Xi)) - F.insert(dw, Xi)
    pts = box_lattice(plane.atlas.charts["0"].sample_box, 9)
    for eps in (0.5, 2.0 ** -10):
        assert form_sup(resid, "0", eps, pts) < 1e-12


def _reference_lie_form(omega, Xi):
    """Per-chart components of L_Xi omega by the form's own formula: the
    transport term Xi^m d_m w_K, then per slot b and axis m the correction
    d_K[b] Xi^m times the stored component at K with slot b set to m,
    signed by its permutation and skipped at repeated indices."""
    dim, k = omega.atlas.dim, omega.degree
    comps = {}
    for c, table in omega.comps.items():
        xs = [Xi.comps[c][(m,)] for m in range(dim)]
        dxs = [[xs[i].partial(mi.unit(dim, m)) for m in range(dim)]
               for i in range(dim)]

        def terms(K):
            for m in range(dim):
                yield xs[m] * table[K].partial(mi.unit(dim, m))
            for b in range(k):
                for m in range(dim):
                    sign, key = F.canonical_index(K[:b] + (m,) + K[b + 1:])
                    if sign != 0:
                        term = dxs[m][K[b]] * table[key]
                        yield term * -1.0 if sign < 0 else term

        comps[c] = {K: functools.reduce(operator.add, terms(K)) for K in omega.keys()}
    return comps


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_form_lie_matches_tensor_lie():
    # lie_derivative_form is the tensor Lie derivative of to_tensor() read at
    # increasing indices.  For k >= 2 that sum also carries exact zero
    # products at repeated indices, which can only turn -0.0 into +0.0 or an
    # infinity into NaN (these seeded values are finite), so their bits are
    # compared after adding 0.0; a 1-form's terms are the reference's own,
    # so its bits must agree as they are.
    cases = [(torus2(), k) for k in (1, 2)] + [(euclidean(3, 1.0), k) for k in (1, 2, 3)]
    for M, k in cases:
        dim = M.atlas.dim
        for seed in range(3):
            omega = F.random_kform(M, k, seed=seed)
            Xi = seeded_field(M, seed + 50)
            got = F.lie_derivative_form(omega, Xi)
            ref = _reference_lie_form(omega, Xi)
            for c in sorted(M.atlas.charts):
                pts = box_lattice(M.atlas.charts[c].sample_box, 9)
                for K in omega.keys():
                    for eps in (0.5, 2.0 ** -6, 2.0 ** -9):
                        for alpha in mi.up_to(dim, 1):
                            new = got.comps[c][K].at(eps)._partial_fn(alpha, pts)
                            want = ref[c][K].at(eps)._partial_fn(alpha, pts)
                            assert _bits(new + 0.0) == _bits(want + 0.0), (M.name, k, seed)
                            if k == 1:
                                assert _bits(new) == _bits(want), (M.name, seed)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_form_lie_builds_only_increasing_entries(monkeypatch, k):
    # the transport term of each built entry takes dim partials, and Xi's
    # dim^2 first partials are taken once per chart; no other entry is built
    M = euclidean(3, 1.0)
    omega = F.random_kform(M, k, seed=k)
    Xi = seeded_field(M, 50)
    taken, partial = [], Net.partial
    monkeypatch.setattr(Net, "partial", lambda net, alpha: taken.append(alpha)
                        or partial(net, alpha))
    F.lie_derivative_form(omega, Xi)
    assert len(taken) == 3 * 3 + 3 * math.comb(3, k)


# -- homotopy -----------------------------------------------------------------


def test_poincare_identity_all_degrees(space3):
    grid = dyadic_grid(4, 9)
    for k, seed in ((1, 21), (2, 22), (3, 23)):
        rep = F.poincare_check(seeded_form(space3, k, seed), grid=grid,
                               n_samples=5)
        assert rep["ok"], rep["max_residual"]
        assert rep["max_residual"] < 1e-7


def test_poincare_nan_residual_fails():
    """sqrt(x0 - 2) is NaN on the unit ball: the residual must not read as 0."""
    ball = euclidean(3, 1.0)
    w = F.GeneralizedKForm(ball, 1, {"0": {(0,): smooth3(sp.sqrt(X0 - 2)),
                                           (1,): 0.0, (2,): 0.0}})
    rep = F.poincare_check(w, grid=dyadic_grid(4, 7), n_samples=5)
    assert rep["ok"] is False
    assert math.isnan(rep["max_residual"])
    assert all(math.isnan(r["sup_residual"]) for r in rep["rows"])


def _homotopy_per_node(omega, J, eps, alpha, pts, n_t=32):
    """Reference: the homotopy component J of ``omega`` at ``eps``, evaluated
    node by node in t, each source leaf called once per node."""
    from colombeau import _mindex as mi
    from colombeau.quadrature import gauss_legendre
    dim, k = omega.atlas.dim, omega.degree
    g, w = gauss_legendre(n_t)
    terms = []
    for m in range(dim):
        sign, key = F.canonical_index((m,) + J)
        if sign != 0:
            terms.append((sign, m, omega.comps["0"][key].at(eps)))
    n_a = mi.order(alpha)
    out = np.zeros(pts.shape[0])
    for tq, wq in zip((g + 1.0) / 2.0, w / 2.0):
        scaled = tq * pts
        layer = np.zeros(pts.shape[0])
        for sign, m, f in terms:
            val = pts[:, m] * tq ** n_a * f._partial_fn(alpha, scaled)
            if alpha[m]:
                val = val + alpha[m] * tq ** (n_a - 1) \
                    * f._partial_fn(mi.sub(alpha, mi.unit(dim, m)), scaled)
            layer = layer + sign * val
        out = out + wq * tq ** (k - 1) * layer
    return out


def test_homotopy_on_stacked_nodes_matches_per_node_loop(space3):
    from colombeau import _mindex as mi
    trig = {}
    for i, K in enumerate(F.index_tuples(3, 2)):
        f = from_sympy(sp.sin(X0 + i * X1) * sp.exp(-X2) + sp.cos(2 * X2), [X0, X1, X2])
        trig[K] = Net(3, lambda e, f=f: f * (1.0 + e))
    forms = [seeded_form(space3, k, seed) for k, seed in ((1, 31), (2, 32), (3, 33))]
    forms.append(F.GeneralizedKForm(space3, 2, {"0": trig}))
    pts = box_lattice(space3.atlas.charts["0"].sample_box, 5)
    for omega in forms:
        H = F.homotopy_H(omega)
        for J, net in H.comps["0"].items():
            for eps in (0.5, 2.0 ** -9):
                fn = net.at(eps)
                for alpha in mi.up_to(3, 2):
                    got = fn._partial_fn(alpha, pts)
                    want = _homotopy_per_node(omega, J, eps, alpha, pts)
                    assert got.tobytes() == want.tobytes(), (omega.degree, J, alpha)


def _homotopy_by_node_sums(omega, J, eps, alpha, pts, n_t=32):
    """Reference: the homotopy component J of ``omega`` at ``eps`` as the
    per-node loop evaluated it before its terms were stacked: each source
    leaf on the stacked lattice, then every term and sum node by node."""
    from colombeau.quadrature import interval_rule
    dim, k = omega.atlas.dim, omega.degree
    t_nodes, t_weights = interval_rule(0.0, 1.0, n_t)
    terms = []
    for m in range(dim):
        sign, key = F.canonical_index((m,) + J)
        if sign != 0:
            terms.append((sign, m, omega.comps["0"][key].at(eps)))
    n_a, n = mi.order(alpha), pts.shape[0]
    stack = (t_nodes[:, None, None] * pts).reshape(-1, dim)

    def at(f, beta):
        return f._partial_fn(beta, stack).reshape(n_t, n)

    out = np.zeros(n)
    for q, (tq, wq) in enumerate(zip(t_nodes, t_weights)):
        layer = np.zeros(n)
        for sign, m, f in terms:
            val = pts[:, m] * tq ** n_a * at(f, alpha)[q]
            if alpha[m]:
                val = val + alpha[m] * tq ** (n_a - 1) \
                    * at(f, mi.sub(alpha, mi.unit(dim, m)))[q]
            layer = layer + sign * val
        out = out + wq * tq ** (k - 1) * layer
    return out


@pytest.mark.parametrize("space", [euclidean(3, 1.0), euclidean(2)], ids=["ball3", "plane"])
@pytest.mark.parametrize("k", [1, 2])
def test_homotopy_terms_over_all_nodes_match_the_per_node_sums(space, k):
    omega = F.random_kform(space, k, seed=40 + k)
    H = F.homotopy_H(omega)
    comps = {(): H.nets["0"]} if k == 1 else H.comps["0"]
    pts = box_lattice(space.atlas.charts["0"].sample_box, 4)
    for J, net in comps.items():
        for eps in (0.5, 2.0 ** -7):
            fn = net.at(eps)
            for alpha in mi.up_to(space.atlas.dim, 1):
                want = _homotopy_by_node_sums(omega, J, eps, alpha, pts)
                assert fn._partial_fn(alpha, pts).tobytes() == want.tobytes(), (J, alpha)


def test_homotopy_domain_guard(t2, line):
    w = F.random_kform(t2, 1, seed=1)
    with pytest.raises(DomainError):
        F.homotopy_H(w)
    chart = Chart(name="0", dim=1, contains=lambda p: True,
                  to_coords=lambda p: np.atleast_1d(np.asarray(p, dtype=float)),
                  from_coords=lambda x: np.atleast_1d(np.asarray(x, dtype=float)),
                  sample_box=((1.0, 2.0),))
    off = Atlas("offset-line", 1, {"0": chart}, {}, {})
    shifted = F.GeneralizedKForm(off, 1, {"0": {(0,): constant(1.0, 1)}})
    with pytest.raises(DomainError):
        F.homotopy_H(shifted)


def test_homotopy_preserves_decay(line):
    from colombeau.asymptotic import estimate_order
    f = from_sympy(1 + X0 ** 2, [X0])
    w = F.GeneralizedKForm(line, 1, {"0": {(0,): Net(1, lambda e: f * e ** 7)}})
    Hw = F.homotopy_H(w)
    grid = dyadic_grid(4, 11)
    pts = box_lattice(line.atlas.charts["0"].sample_box, 41)
    fits = []
    for net in (w.comps["0"][(0,)], Hw.nets["0"]):
        samples = [(float(e), float(np.max(np.abs(values(net, e, pts)))))
                   for e in grid]
        fits.append(estimate_order(samples).slope)
    assert abs(fits[0] - fits[1]) < 0.25


# -- integration and Stokes ---------------------------------------------------


def test_integrate_nform(line, plane, fourier):
    w = F.GeneralizedKForm(line, 1, {"0": {(0,): from_sympy(X0, [X0])}})
    gi = F.integrate_nform(w, box=((0.0, 1.0),), grid=dyadic_grid(4, 8))
    assert np.allclose(gi.values, 0.5, rtol=0, atol=1e-13)
    spike = F.GeneralizedKForm(line, 1, {"0": {(0,): embed_rn(dirac(), fourier)}})
    gs = F.integrate_nform(spike, grid=dyadic_grid(4, 11))
    assert abs(gs.values[-1] - 1.0) < 1e-10
    with pytest.raises(DomainError):
        F.integrate_nform(F.GeneralizedKForm(plane, 1, {
            "0": [constant(1.0, 2), constant(0.0, 2)]}))


def test_stokes_interval_with_jump(line, fourier):
    H = GeneralizedFunction(line.atlas, {"0": embed_rn(heaviside(), fourier)})
    rep = F.stokes_check(H, ("box", ((-1.0, 1.0),)), grid=dyadic_grid(4, 11))
    assert rep["ok"]
    assert rep["max_rel_residual"] < 1e-6
    assert {"eps", "lhs", "rhs", "residual"} <= set(rep["rows"][0])
    # an interval is the 1-box: reversed, empty or two-axis boxes are refused
    for box in (((1.0, -1.0),), ((0.5, 0.5),), ((-1.0, 1.0), (-1.0, 1.0))):
        with pytest.raises(DomainError):
            F.stokes_check(H, ("box", box))


def test_stokes_disk(plane):
    xy = [X0, X1]
    w = F.GeneralizedKForm(plane, 1, {"0": {
        (0,): from_sympy(-X1 + X0 ** 2 * X1, xy),
        (1,): from_sympy(X0 * X1 ** 2 + X0, xy)}})
    rep = F.stokes_check(w, ("disk", 1.0), grid=dyadic_grid(4, 8))
    assert rep["ok"] and rep["max_rel_residual"] < 1e-9
    assert abs(rep["rows"][0]["lhs"] - 2.0 * np.pi) < 1e-9
    with pytest.raises(DomainError):
        F.stokes_check(w, ("disk", -1.0))
    with pytest.raises(DomainError):
        F.stokes_check(w, ("box", ((0.0, 1.0),)))
    for domain in (("disk", 1.0, 2), ("disk", "a"), ("disk", None), ("disk", np.nan),
                   ("disk", np.inf)):
        with pytest.raises(DomainError):
            F.stokes_check(w, domain)
    assert F.stokes_check(w, ("disk",), grid=dyadic_grid(4, 8))["rows"] == rep["rows"]


def test_quadrature_of_constant_components(line, plane):
    """Forms whose derivatives are constant sympy leaves integrate exactly."""
    xy = [X0, X1]
    grid = dyadic_grid(4, 6)
    rot = F.GeneralizedKForm(plane, 1, {"0": {(0,): from_sympy(-X1, xy),
                                              (1,): from_sympy(X0, xy)}})
    rep = F.stokes_check(rot, ("disk", 1.0), grid=grid)
    assert rep["ok"]
    for row in rep["rows"]:
        assert abs(row["lhs"] - 2.0 * np.pi) < 1e-12 and abs(row["rhs"] - 2.0 * np.pi) < 1e-12
    u = sigma_embed(line, {"0": from_sympy(2 * X0, [X0])})
    rep = F.stokes_check(u, ("box", ((-1.0, 1.0),)), grid=grid)
    assert rep["ok"]
    for row in rep["rows"]:
        assert abs(row["lhs"] - 4.0) < 1e-14 and row["rhs"] == 4.0
    area = F.GeneralizedKForm(plane, 2, {"0": {(0, 1): from_sympy(sp.Integer(1), xy)}})
    gi = F.integrate_nform(area, box=((-1.0, 1.0), (-1.0, 1.0)), grid=grid)
    assert np.allclose(gi.values, 4.0, rtol=0, atol=1e-13)


def test_stokes_disk_rejects_non_finite_sides(plane):
    """sqrt(x + 0.5) is NaN on part of the unit disk: no residual can be read."""
    xy = [X0, X1]
    w = F.GeneralizedKForm(plane, 1, {"0": {(0,): from_sympy(-X0 * X1, xy),
                                            (1,): from_sympy(sp.sqrt(X0 + 0.5), xy)}})
    with pytest.raises(QuadratureFailure):
        F.stokes_check(w, ("disk", 1.0), grid=dyadic_grid(4, 6))


def test_stokes_box_starts_coarser_or_reports_unresolved_eps(plane, monkeypatch):
    """At 2^-12 the 8*eps grid of the 2-d bulk exceeds the point budget: its
    sweep starts at 2^-9, the coarsest eps whose grid fits, and halves down.
    Under a budget no first level fits, the report lists every eps and fails."""
    xy = [X0, X1]
    w = F.GeneralizedKForm(plane, 1, {"0": {(0,): from_sympy(-X1, xy),
                                            (1,): from_sympy(X0, xy)}})
    grid, box = dyadic_grid(12, 15), ("box", ((-1.0, 1.0), (-1.0, 1.0)))
    rep = F.stokes_check(w, box, grid=grid)
    assert rep["ok"] and "unresolved" not in rep
    assert all(abs(row["lhs"] - 8.0) < 1e-12 and abs(row["rhs"] - 8.0) < 1e-12
               for row in rep["rows"])
    monkeypatch.setattr(quadrature, "POINT_BUDGET", 100)
    rep = F.stokes_check(w, box, grid=grid)
    assert rep["unresolved"] == grid.tolist() and not rep["ok"]
    assert all(np.isnan(row["lhs"]) and np.isnan(row["rhs"]) for row in rep["rows"])


def test_stokes_interval_rejects_a_non_finite_boundary_value(line):
    """The bulk of x on [-1, 1] is 2, but the value at 1 is NaN: no residual."""
    def fn(alpha, pts):
        x = pts[:, 0]
        return np.where(x < 1.0, x, np.nan) if alpha == (0,) else np.ones(len(x))

    u = GeneralizedFunction(line, {"0": SmoothFn(1, fn)})
    with pytest.raises(QuadratureFailure, match="boundary value at 1.0"):
        F.stokes_check(u, ("box", ((-1.0, 1.0),)), grid=dyadic_grid(4, 6))


def test_stokes_box_r3(space3):
    xyz = [X0, X1, X2]
    w = F.GeneralizedKForm(space3, 2, {"0": {
        (0, 1): from_sympy(X0 * X1 * X2, xyz),
        (0, 2): from_sympy(X1 ** 2 - X0, xyz),
        (1, 2): from_sympy(X2 + X0 ** 3 + 2 * X0, xyz)}})
    box = ((-1.0, 1.0), (-0.5, 1.5), (0.0, 2.0))
    rep = F.stokes_check(w, ("box", box), grid=dyadic_grid(4, 8))
    assert rep["ok"] and rep["max_rel_residual"] < 1e-9
    assert abs(rep["rows"][0]["lhs"] - 16.0) < 1e-10
    # a zero-width box would compare 0 with 0
    for domain in (("triangle", box),
                   ("box", ((0.5, 0.5), (-0.5, 1.5), (0.0, 2.0))),
                   ("box", ((1.0, -1.0), (-0.5, 1.5), (0.0, 2.0))),
                   ("box", box[:2]), ("box",), ("box", box, 3), (), ("box", 5),
                   ("box", ((-1.0, 1.0, 2.0),) + box[1:])):
        with pytest.raises(DomainError):
            F.stokes_check(w, domain)


# -- coherence on overlaps ----------------------------------------------------


def test_seeded_forms_coherent_on_torus(t2):
    grid = dyadic_grid(4, 9)
    A = F.random_kform(t2, 1, seed=31)
    B = F.random_kform(t2, 1, seed=32)
    for out in (A, F.exterior_d(A), F.wedge(A, B)):
        rep = F.coherence_check_form(out, grid=grid, n_samples=9)
        assert rep["coherent"]


def test_circle_top_degree_d_is_empty(t2):
    s1 = circle()
    A = F.random_kform(s1, 1, seed=33)
    dA = F.exterior_d(A)
    assert dA.degree == 2 and dA.keys() == []
    with pytest.raises(DegreeOverflow):
        F.wedge(A, A)


# -- the component store -----------------------------------------------------


def _store_case(case):
    """(section, expected keys of each chart part) of one indexed kind."""
    t2, s3 = torus2(), euclidean(3)
    Xi, Al = seeded_field(t2, 50), T.random_tensor_field(t2, (0, 1), seed=100)
    A1 = F.random_kform(t2, 1, seed=125)
    (U,) = T.random_coherent_functions(t2, count=1, seed=0)
    c_order = lambda dim, rank: list(itertools.product(range(dim), repeat=rank))
    reversed_dict = {idx: 1.0 for idx in reversed(c_order(2, 2))}
    cases = {
        "vector field": lambda: (Xi, c_order(2, 1)),
        "tensor from a dict": lambda: (T.GeneralizedTensorField(
            t2, (1, 1), {c: reversed_dict for c in t2.atlas.charts}), c_order(2, 2)),
        "tensor_product": lambda: (T.tensor_product(Xi, Al), c_order(2, 2)),
        "tensor sum": lambda: (Al + Al * 2.0, c_order(2, 1)),
        "gen_lie_derivative": lambda: (T.gen_lie_derivative(T.tensor_product(Al, Al), Xi),
                                       c_order(2, 2)),
        "3-form view": lambda: (F.random_kform(s3, 3, seed=1).to_tensor(), c_order(3, 3)),
        "2-form": lambda: (F.random_kform(s3, 2, seed=1), [(0, 1), (0, 2), (1, 2)]),
        "wedge": lambda: (F.wedge(A1, A1 * 2.0), [(0, 1)]),
        "form from a sequence": lambda: (
            F.GeneralizedKForm(s3, 2, {"0": [1.0, 2.0, 3.0]}), [(0, 1), (0, 2), (1, 2)]),
        "function product": lambda: (U * U, [()]),
        "contraction": lambda: (T.contract(T.tensor_product(Xi, Al)), [()]),
    }
    return cases[case]()


@pytest.mark.parametrize("case", ["vector field", "tensor from a dict", "tensor_product",
                                  "tensor sum", "gen_lie_derivative", "3-form view",
                                  "2-form", "wedge", "form from a sequence",
                                  "function product", "contraction"])
def test_section_parts_are_index_dicts_in_key_order(case):
    section, keys = _store_case(case)
    assert section.keys() == keys
    for part in section.comps.values():
        assert type(part) is dict and list(part) == keys
        assert all(isinstance(net, Net) for net in part.values())


def test_function_part_is_its_net_at_the_empty_index(t2):
    # a generalized function is the rank-0 section: nets reads the one part
    (U,) = T.random_coherent_functions(t2, count=1, seed=0)
    for V in (U, U * U, U + 1.0, 1.0 - U, -U):
        assert V.valence == (0, 0) and V.keys() == [()]
        for c in V.chart_names():
            assert V.comps[c] == {(): V.nets[c]} and V.nets[c] is V.comps[c][()]
            assert V.net(c) is V.comps[c][()]


def _zip_operands(t2):
    (U,) = T.random_coherent_functions(t2, count=1, seed=0)
    return {"U": U, "A1": F.random_kform(t2, 1, seed=125), "A2": F.random_kform(t2, 2, seed=1),
            "Xi": seeded_field(t2, 50), "Al": T.random_tensor_field(t2, (0, 1), seed=100)}


# a sum or difference of sections, and what it raises; None where it is
# taken, entry by entry, as on the net values themselves
ZIP_CASES = {
    "form + form of another degree": (lambda s: s["A1"] + s["A2"], InvalidDegree),
    "form - form of another degree": (lambda s: s["A2"] - s["A1"], InvalidDegree),
    "tensor + tensor of another valence": (lambda s: s["Xi"] + s["Al"], InvalidSlots),
    "tensor - tensor of another valence": (lambda s: s["Al"] - s["Xi"], InvalidSlots),
    "form + tensor": (lambda s: s["A1"] + s["Al"], TypeError),
    "tensor + form": (lambda s: s["Al"] + s["A1"], TypeError),
    "U + tensor": (lambda s: s["U"] + s["Xi"], TypeError),
    "U + form": (lambda s: s["U"] + s["A1"], TypeError),
    'U + "a"': (lambda s: s["U"] + "a", TypeError),
    "form + 1.0": (lambda s: s["A1"] + 1.0, TypeError),
    "1.0 - tensor": (lambda s: 1.0 - s["Xi"], TypeError),
    "U + 1.0": (lambda s: s["U"] + 1.0, None),
    "1.0 - U": (lambda s: 1.0 - s["U"], None),
}


@pytest.mark.parametrize("case", sorted(ZIP_CASES))
def test_plus_and_minus_check_their_operands(t2, case):
    build, error = ZIP_CASES[case]
    s = _zip_operands(t2)
    if error is not None:
        with pytest.raises(error) as info:
            build(s)
        assert info.type is error  # not a subclass standing in for it
        return
    c = sorted(t2.atlas.charts)[0]
    pts = box_lattice(t2.atlas.charts[c].sample_box, 7)
    for eps in (0.5, 2.0 ** -9):
        want = build({"U": values(s["U"].nets[c], eps, pts)})
        assert np.array_equal(values(build(s).nets[c], eps, pts), want)


def test_degree_zero_routes_match_their_explicit_nets(t2):
    """d, the wedge, i_X, the contraction and Xi(U) with a degree- or rank-0
    operand or result go through the general formulas and equal the
    explicit nets bitwise at derivative orders 0 and 1."""
    s = _zip_operands(t2)
    U, A1, Xi, Al = s["U"], s["A1"], s["Xi"], s["Al"]
    pairs = []  # (got, want) nets
    dU, UA = F.exterior_d(U), F.wedge(U, A1)
    iA, tr = F.insert(A1, Xi), T.contract(T.tensor_product(Xi, Al))
    XU = T.field_apply(Xi, U)
    assert all(isinstance(V, GeneralizedFunction) for V in (iA, tr, XU))
    assert isinstance(F.wedge(U, U), GeneralizedFunction)
    for c in t2.atlas.charts:
        pairs += [(dU.comps[c][(i,)], U.nets[c].partial(mi.unit(2, i))) for i in range(2)]
        pairs += [(UA.comps[c][K], U.nets[c] * A1.comps[c][K]) for K in A1.keys()]
        pairs.append((iA.nets[c], Xi.comps[c][(0,)] * A1.comps[c][(0,)]
                      + Xi.comps[c][(1,)] * A1.comps[c][(1,)]))
        pairs.append((tr.nets[c], Xi.comps[c][(0,)] * Al.comps[c][(0,)]
                      + Xi.comps[c][(1,)] * Al.comps[c][(1,)]))
        pairs.append((XU.nets[c], Xi.comps[c][(0,)] * U.nets[c].partial((1, 0))
                      + Xi.comps[c][(1,)] * U.nets[c].partial((0, 1))))
    pts = box_lattice(t2.atlas.charts[sorted(t2.atlas.charts)[0]].sample_box, 7)
    for got, want in pairs:
        for eps in (0.5, 2.0 ** -9):
            for alpha in mi.up_to(2, 1):
                assert got.at(eps)._partial_fn(alpha, pts).tobytes() \
                    == want.at(eps)._partial_fn(alpha, pts).tobytes()


def test_homotopy_of_a_one_form_is_a_function():
    plane = euclidean(2, 1.0)
    H = F.homotopy_H(seeded_form(plane, 1, seed=21))
    assert isinstance(H, GeneralizedFunction) and H.keys() == [()]


# -- the chart contract -------------------------------------------------------


def _sections(space, charts):
    """A zero function, vector field, one-form tensor and 1-form on ``charts``."""
    dim = space.atlas.dim
    return {"gf": GeneralizedFunction(space, {c: Net.zero(dim) for c in charts}),
            "vf": T.GeneralizedTensorField(space, (1, 0), {c: [0.0] * dim for c in charts}),
            "one": T.GeneralizedTensorField(space, (0, 1), {c: [0.0] * dim for c in charts}),
            "form": F.GeneralizedKForm(space, 1, {c: {} for c in charts})}


# operation on sections s of the full torus, and the kind of its odd operand
CHART_CONTRACT = {
    "function +": (lambda s, odd: s["gf"] + odd, "gf"),
    "function *": (lambda s, odd: s["gf"] * odd, "gf"),
    "tensor +": (lambda s, odd: s["vf"] + odd, "vf"),
    "tensor * function": (lambda s, odd: s["vf"] * odd, "gf"),
    "tensor_product": (lambda s, odd: T.tensor_product(s["vf"], odd), "one"),
    "field_apply": (lambda s, odd: T.field_apply(s["vf"], odd), "gf"),
    "gen_lie_derivative": (lambda s, odd: T.gen_lie_derivative(s["one"], odd), "vf"),
    "evaluate upper slot": (lambda s, odd: s["vf"].evaluate(one_forms=(odd,)), "one"),
    "evaluate lower slot": (lambda s, odd: s["one"].evaluate(vector_fields=(odd,)), "vf"),
    "form +": (lambda s, odd: s["form"] + odd, "form"),
    "form * function": (lambda s, odd: s["form"] * odd, "gf"),
    "wedge": (lambda s, odd: F.wedge(s["form"], odd), "form"),
    "insert": (lambda s, odd: F.insert(s["form"], odd), "vf"),
    "lie_derivative_form": (lambda s, odd: F.lie_derivative_form(s["form"], odd), "vf"),
    "poisson": (lambda s, odd: poisson(s["gf"], odd, SymplecticForm(1)), "gf"),
}


# each section built on the plane with one given entry per component
SECTION_BUILDERS = {
    "function": lambda space, f: GeneralizedFunction(space, {"0": f}),
    "vector field": lambda space, f: T.GeneralizedTensorField(space, (1, 0), {"0": [f, f]}),
    "1-form": lambda space, f: F.GeneralizedKForm(space, 1, {"0": {(0,): f}}),
}


@pytest.mark.parametrize("entry", ["Net", "SmoothFn"])
@pytest.mark.parametrize("section", sorted(SECTION_BUILDERS))
def test_sections_reject_nets_of_another_dimension(plane, section, entry):
    build = SECTION_BUILDERS[section]
    wrong = Net.zero(3) if entry == "Net" else coordinate(0, 1)
    with pytest.raises(AtlasMismatch):
        build(plane, wrong)
    build(plane, Net.constant_in_eps(coordinate(0, 2)))  # R^2 nets are accepted


@pytest.mark.parametrize("mismatch", ["foreign atlas", "missing chart"])
@pytest.mark.parametrize("op", sorted(CHART_CONTRACT))
def test_chart_contract_rejects_mismatched_operands(t2, op, mismatch):
    build, kind = CHART_CONTRACT[op]
    charts = sorted(t2.atlas.charts)
    full = _sections(t2, charts)
    odd = (_sections(torus2(), charts) if mismatch == "foreign atlas"
           else _sections(t2, charts[1:]))[kind]
    with pytest.raises(AtlasMismatch):
        build(full, odd)
    build(full, full[kind])  # the matched operands are accepted
