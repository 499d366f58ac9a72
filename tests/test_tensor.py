"""Tensor fields: module algebra, products, contractions, Lie
derivatives, overlap coherence, and vector fields from derivations."""

import numpy as np
import pytest
import sympy as sp

from colombeau import tensor as T
from colombeau.embed import dirac, dirac_prime, embed_rn
from colombeau.errors import AtlasMismatch, InvalidSlots, NotADerivation
from colombeau.forms import GeneralizedKForm, random_kform
from colombeau.gfunc import (GeneralizedFunction, associate, coherence_check,
                             embed_manifold, sigma_embed)
from colombeau.grid import dyadic_grid
from colombeau.manifolds import circle, euclidean, torus2
from colombeau.mollifier import build_mollifier
from colombeau.nets import Net, box_lattice
from colombeau.smooth import constant, coordinate, from_sympy

X = sp.Symbol("x0")


@pytest.fixture(scope="module")
def fourier():
    return build_mollifier("fourier")


@pytest.fixture(scope="module")
def line():
    return euclidean(1)


@pytest.fixture(scope="module")
def s1():
    return circle()


@pytest.fixture(scope="module")
def t2():
    return torus2()


def vf(space, *fns):
    chart = sorted(T._atlas_of(space).charts)[0]
    return T.GeneralizedTensorField(space, (1, 0), {chart: list(fns)})


def values(net, eps, pts):
    dim = net.dim
    return np.asarray(net.at(eps)._partial_fn((0,) * dim, pts))


def field_values(F, chart, eps, pts):
    return np.stack([values(net, eps, pts) for net in F.comps[chart].values()])


# -- construction and algebra -----------------------------------------------


def test_component_shape_guard(line):
    plane = euclidean(2)
    with pytest.raises(AtlasMismatch):
        T.GeneralizedTensorField(plane, (1, 0), {"0": [coordinate(0, 2)]})
    with pytest.raises(InvalidSlots):
        T.GeneralizedTensorField(line, (0, 0), {"0": coordinate(0, 1)})
    with pytest.raises(AtlasMismatch):
        T.GeneralizedTensorField(line, (1, 0), {"Q": [coordinate(0, 1)]})


def test_tensor_dict_part_needs_exactly_every_index():
    plane = euclidean(2)
    full = {idx: 1.0 for idx in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    T.GeneralizedTensorField(plane, (1, 1), {"0": full})
    missing = {idx: v for idx, v in full.items() if idx != (1, 0)}
    with pytest.raises(AtlasMismatch):
        T.GeneralizedTensorField(plane, (1, 1), {"0": missing})
    # a key that is no index of the shape is a slot error, as in a form
    for valence, part in [((1, 1), {**full, (2, 0): 1.0}),
                          ((1, 0), full),  # rank-2 keys on a rank-1 field
                          ((0, 1), {(0,): 1.0, (1,): 1.0, (5,): 1.0})]:
        with pytest.raises(InvalidSlots):
            T.GeneralizedTensorField(plane, valence, {"0": part})
    with pytest.raises(InvalidSlots):
        GeneralizedKForm(plane, 1, {"0": {(0,): 1.0, (5,): 1.0}})
    with pytest.raises(AtlasMismatch):
        T.GeneralizedTensorField(plane, (1, 0), {"0": [1.0, 2.0, 3.0]})
    with pytest.raises(AtlasMismatch):
        T.GeneralizedTensorField(plane, (1, 1), {"0": [[1.0, 2.0], [3.0]]})


def test_component_index_out_of_range_is_invalid_slots():
    plane = euclidean(2)
    F = T.GeneralizedTensorField(plane, (1, 1), {"0": [[1.0, 2.0], [3.0, 4.0]]})
    assert F.component("0", (1, 0)) is F.comps["0"][(1, 0)]
    assert values(F.component("0", (1, 0)), 0.5, np.zeros((1, 2))) == 3.0  # C order
    for idx in [(2, 0), (0, -1), (0,), (0, 0, 0)]:
        with pytest.raises(InvalidSlots):
            F.component("0", idx)
    with pytest.raises(InvalidSlots):
        T.GeneralizedTensorField(plane, (1, 0), {"0": [1.0, 2.0]}).component("0", 2)
    with pytest.raises(AtlasMismatch):
        F.component("Q", (0, 0))
    # a form reads its entries through the same method
    omega = random_kform(torus2(), 1)
    with pytest.raises(AtlasMismatch):
        omega.component("Q", (0,))
    with pytest.raises(InvalidSlots):
        omega.component("AA", (5,))


def test_module_algebra(line):
    x = coordinate(0, 1)
    sin = from_sympy(sp.sin(X), [X])
    A = vf(line, sin)
    B = vf(line, x)
    U = sigma_embed(line, {"0": from_sympy(1 + X ** 2, [X])})
    pts = box_lattice(line.atlas.charts["0"].sample_box, 41)
    left = field_values(U * (A + B), "0", 0.125, pts)
    right = field_values(U * A + U * B, "0", 0.125, pts)
    assert np.allclose(left, right, rtol=1e-14, atol=0)
    doubled = field_values(2.0 * A, "0", 0.125, pts)
    assert np.array_equal(doubled, 2.0 * field_values(A, "0", 0.125, pts))
    with pytest.raises(InvalidSlots):
        A + T.GeneralizedTensorField(line, (0, 1), {"0": [sin]})
    other = euclidean(1)
    with pytest.raises(AtlasMismatch):
        A + vf(other, sin)


def test_tensor_product_components(line):
    sin = from_sympy(sp.sin(X), [X])
    cos = from_sympy(sp.cos(X), [X])
    P = T.tensor_product(vf(line, sin), T.GeneralizedTensorField(line, (0, 1), {"0": [cos]}))
    assert P.valence == (1, 1)
    pts = box_lattice(line.atlas.charts["0"].sample_box, 41)
    got = values(P.component("0", (0, 0)), 0.25, pts)
    assert np.array_equal(got, np.sin(pts[:, 0]) * np.cos(pts[:, 0]))
    with pytest.raises(AtlasMismatch):
        T.tensor_product(vf(line, sin), vf(euclidean(1), sin))


def test_contract_dual_pairing(line):
    one = constant(1.0, 1)
    P = T.tensor_product(vf(line, one), T.GeneralizedTensorField(line, (0, 1), {"0": [one]}))
    tr = T.contract(P)
    assert isinstance(tr, GeneralizedFunction)
    pts = box_lattice(line.atlas.charts["0"].sample_box, 21)
    assert np.array_equal(values(tr.nets["0"], 0.5, pts), np.ones(len(pts)))

    # trace of the identity (1, 1) tensor is the dimension
    plane = euclidean(2)
    eye = [[constant(1.0 if i == j else 0.0, 2) for j in range(2)] for i in range(2)]
    ident = T.GeneralizedTensorField(plane, (1, 1), {"0": eye})
    pts2 = box_lattice(plane.atlas.charts["0"].sample_box, 5)
    assert np.array_equal(values(T.contract(ident).nets["0"], 0.5, pts2),
                          np.full(len(pts2), 2.0))


def test_contract_slot_guard(line):
    sin = from_sympy(sp.sin(X), [X])
    with pytest.raises(InvalidSlots):
        T.contract(vf(line, sin))
    P = T.tensor_product(vf(line, sin), T.GeneralizedTensorField(line, (0, 1), {"0": [sin]}))
    with pytest.raises(InvalidSlots):
        T.contract(P, up=1, low=0)


def test_evaluate_multilinear(s1):
    F = T.random_tensor_field(s1, (1, 1), seed=3)
    A = T.random_tensor_field(s1, (0, 1), seed=4)
    B = T.random_tensor_field(s1, (0, 1), seed=5)
    Xi = T.random_tensor_field(s1, (1, 0), seed=6)
    with pytest.raises(InvalidSlots):
        F.evaluate(one_forms=(A,))
    left = F.evaluate((A + B,), (Xi,))
    right = F.evaluate((A,), (Xi,)) + F.evaluate((B,), (Xi,))
    pts = box_lattice(s1.atlas.charts["A"].sample_box, 31)
    for eps in (0.25, 2.0 ** -10):
        la = values(left.nets["A"], eps, pts)
        ra = values(right.nets["A"], eps, pts)
        assert np.allclose(la, ra, rtol=0, atol=1e-13 * (1 + np.max(np.abs(la))))


def test_call_goes_by_valence(s1):
    # a computed vector field acts on functions as field_apply does, a
    # one-form pairs with a vector field as evaluate does, and no other
    # valence takes a single argument
    Xi, Yi = (T.random_tensor_field(s1, (1, 0), seed=s) for s in (6, 7))
    field = T.bracket(Xi, Yi)
    A = T.random_tensor_field(s1, (0, 1), seed=4)
    (U,) = T.random_coherent_functions(s1, count=1, seed=8)
    pairs = [(field(U), T.field_apply(field, U)), (A(Xi), A.evaluate(vector_fields=(Xi,)))]
    for c in ("A", "B"):
        pts = box_lattice(s1.atlas.charts[c].sample_box, 31)
        for eps in (0.25, 2.0 ** -10):
            for got, want in pairs:
                assert np.array_equal(values(got.nets[c], eps, pts),
                                      values(want.nets[c], eps, pts))
    with pytest.raises(InvalidSlots):
        T.random_tensor_field(s1, (1, 1), seed=3)(U)
    for arg in (U, 2.0):  # a one-form pairs with vector fields only
        with pytest.raises(InvalidSlots):
            A(arg)


# -- Lie derivatives ---------------------------------------------------------


def test_bracket_antisymmetry_exact_on_line(line):
    sin = from_sympy(sp.sin(X) + X ** 2 / 7, [X])
    gexp = from_sympy(sp.exp(-X ** 2) + X, [X])
    A = T.GeneralizedTensorField(
        line, (1, 0), {"0": [Net(1, lambda e: sin * (1.0 + e))]})
    B = T.GeneralizedTensorField(
        line, (1, 0), {"0": [Net(1, lambda e: gexp * (1.0 - 0.5 * e))]})
    Z = T.bracket(A, B) + T.bracket(B, A)
    pts = box_lattice(line.atlas.charts["0"].sample_box, 201)
    for eps in dyadic_grid(4, 9):
        assert np.all(values(Z.comps["0"][(0,)], eps, pts) == 0.0)


def test_bracket_antisymmetry_torus(t2):
    A = T.random_tensor_field(t2, (1, 0), seed=11)
    B = T.random_tensor_field(t2, (1, 0), seed=12)
    Z = T.bracket(A, B) + T.bracket(B, A)
    chart = sorted(t2.atlas.charts)[0]
    pts = box_lattice(t2.atlas.charts[chart].sample_box, 9)
    for eps in (0.25, 2.0 ** -12):
        assert np.max(np.abs(field_values(Z, chart, eps, pts))) < 1e-12


@pytest.mark.parametrize("operands", ["field, one-form", "one-form, field", "field, 2-tensor",
                                      "field, function", "field, 1-form"])
def test_bracket_takes_two_vector_fields(t2, operands):
    (U,) = T.random_coherent_functions(t2, count=1, seed=1)
    kinds = {"field": T.random_tensor_field(t2, (1, 0), seed=11),
             "one-form": T.random_tensor_field(t2, (0, 1), seed=12),
             "2-tensor": T.random_tensor_field(t2, (1, 1), seed=13),
             "function": U, "1-form": random_kform(t2, 1, seed=14)}
    X, Y = (kinds[k] for k in operands.split(", "))
    with pytest.raises(InvalidSlots, match="bracket takes vector fields"):
        T.bracket(X, Y)
    assert T.bracket(kinds["field"], kinds["field"]).valence == (1, 0)


def _incremental_probes(manifold, count, seed):
    """Reference: the probe expressions summed one term at a time."""
    rng = np.random.default_rng(seed)
    dim = manifold.atlas.dim
    out = []
    for _ in range(count):
        if manifold.name.startswith("euclidean"):
            syms = sp.symbols(f"x0:{dim}")
            coef = rng.normal(size=3 * dim + 1)
            expr = sp.Integer(0) + round(float(coef[-1]), 6)
            t = 0
            for v in syms:
                for p in range(1, 4):
                    expr = expr + round(float(coef[t]) / (p * p), 6) * v ** p
                    t += 1
        else:
            syms = sp.symbols(f"y0:{dim}")
            coef = rng.normal(size=(dim, 2, 2))
            expr = round(float(rng.normal()), 6)
            for i, v in enumerate(syms):
                for kf in (1, 2):
                    expr = expr + round(float(coef[i, kf - 1, 0]) / kf, 6) * sp.sin(kf * v)
                    expr = expr + round(float(coef[i, kf - 1, 1]) / kf, 6) * sp.cos(kf * v)
        rng.uniform(0.5, 2.0)  # the eps factor's draw
        out.append(sp.srepr(expr))
    return out


@pytest.mark.parametrize("manifold", [euclidean(1), euclidean(2), euclidean(3), circle(),
                                      torus2()], ids=lambda m: m.name)
def test_probe_leaves_equal_the_term_by_term_sum(manifold, monkeypatch):
    seen = []

    def recording(expr, syms, label=""):
        seen.append(sp.srepr(expr))
        return from_sympy(expr, syms, label=label)

    monkeypatch.setattr(T, "from_sympy", recording)
    for seed in range(10):
        seen.clear()
        T.random_coherent_functions(manifold, count=4, seed=seed)
        assert seen == _incremental_probes(manifold, 4, seed), seed


def test_module_bracket_identity(s1):
    # [U Xi, H] = U [Xi, H] - H(U) Xi, up to roundoff from reassociation
    U = T.random_coherent_functions(s1, count=1, seed=5)[0]
    Xi = T.random_tensor_field(s1, (1, 0), seed=6)
    H = T.random_tensor_field(s1, (1, 0), seed=7)
    resid = T.bracket(U * Xi, H) - U * T.bracket(Xi, H) + T.field_apply(H, U) * Xi
    for c in ("A", "B"):
        pts = box_lattice(s1.atlas.charts[c].sample_box, 101)
        for eps in (0.5, 2.0 ** -8, 2.0 ** -14):
            assert np.max(np.abs(field_values(resid, c, eps, pts))) < 1e-11


def test_jacobi_identity(t2):
    A = T.random_tensor_field(t2, (1, 0), seed=21)
    B = T.random_tensor_field(t2, (1, 0), seed=22)
    C = T.random_tensor_field(t2, (1, 0), seed=23)
    J = (T.bracket(A, T.bracket(B, C)) + T.bracket(B, T.bracket(C, A))
         + T.bracket(C, T.bracket(A, B)))
    chart = sorted(t2.atlas.charts)[0]
    pts = box_lattice(t2.atlas.charts[chart].sample_box, 7)
    for eps in (0.25, 2.0 ** -12):
        assert np.max(np.abs(field_values(J, chart, eps, pts))) < 1e-8


def test_smooth_route_matches_generalized(s1):
    F = T.random_tensor_field(s1, (1, 1), seed=1)
    xi = {c: [from_sympy(sp.sin(sp.Symbol("y0")), [sp.Symbol("y0")])]
          for c in ("A", "B")}
    via_smooth = T.lie_derivative_tensor(F, xi)
    via_net = T.gen_lie_derivative(F, T.smooth_vector_field(s1.atlas, xi))
    pts = box_lattice(s1.atlas.charts["A"].sample_box, 31)
    got = field_values(via_smooth, "A", 2.0 ** -6, pts)
    want = field_values(via_net, "A", 2.0 ** -6, pts)
    assert np.array_equal(got, want)


def test_lie_of_spike_field_is_spike_derivative(line, fourier):
    # L_{d/dx} (iota(delta) d/dx) has coefficient iota(delta)', which
    # pairs like the derivative-of-point-mass functional
    S = T.GeneralizedTensorField(line, (1, 0), {"0": [embed_rn(dirac(), fourier)]})
    L = T.gen_lie_derivative(S, vf(line, constant(1.0, 1)))
    coeff = GeneralizedFunction(line.atlas, {"0": L.comps["0"][(0,)]})
    verdict = associate(coeff, dirac_prime(), grid=dyadic_grid(4, 11))
    assert verdict.associated
    assert max(r["residual"] for r in verdict.rows) < 1e-6


def test_tensor_product_spike_with_smooth(line, fourier):
    # (iota(delta) d/dx) (x) (g d/dx) pairs like g(0) times a point mass
    S = T.GeneralizedTensorField(line, (1, 0), {"0": [embed_rn(dirac(), fourier)]})
    g = from_sympy(2 + sp.cos(X), [X])
    P = T.tensor_product(S, vf(line, g))
    coeff = GeneralizedFunction(line.atlas, {"0": P.comps["0"][(0, 0)]})
    verdict = associate(coeff, dirac(weight=3.0), grid=dyadic_grid(4, 11))
    assert verdict.associated
    assert max(r["residual"] for r in verdict.rows) < 1e-6


# -- coherence ---------------------------------------------------------------


def test_seeded_fields_are_coherent(s1):
    F = T.random_tensor_field(s1, (1, 1), seed=0)
    rep = T.coherence_check_tensor(F, grid=dyadic_grid(4, 9), n_samples=21)
    assert rep["coherent"]
    assert rep["n_pairs"] >= 2
    assert all(row["negligible"] for row in rep["rows"])


def test_incoherent_components_flagged(s1):
    y = sp.Symbol("y0")
    comps = {"A": [from_sympy(sp.sin(y), [y])],
             "B": [from_sympy(sp.cos(y), [y])]}
    F = T.GeneralizedTensorField(s1, (1, 0), comps)
    rep = T.coherence_check_tensor(F, grid=dyadic_grid(4, 9), n_samples=21)
    assert not rep["coherent"]


def test_jacobian_weights_in_coherence(scaled_line):
    atlas = scaled_line
    y = sp.Symbol("x0")
    # vector components scale with the Jacobian, one-form components
    # against it
    V = T.GeneralizedTensorField(
        atlas, (1, 0), {"L": [from_sympy(sp.sin(y), [y])],
                        "S": [from_sympy(2 * sp.sin(y / 2), [y])]})
    A = T.GeneralizedTensorField(
        atlas, (0, 1), {"L": [from_sympy(sp.sin(y), [y])],
                        "S": [from_sympy(sp.sin(y / 2) / 2, [y])]})
    grid = dyadic_grid(4, 9)
    assert T.coherence_check_tensor(V, grid=grid, n_samples=17)["coherent"]
    assert T.coherence_check_tensor(A, grid=grid, n_samples=17)["coherent"]
    # dropping the weight breaks the law
    W = T.GeneralizedTensorField(
        atlas, (1, 0), {"L": [from_sympy(sp.sin(y), [y])],
                        "S": [from_sympy(sp.sin(y / 2), [y])]})
    assert not T.coherence_check_tensor(W, grid=grid, n_samples=17)["coherent"]


def test_contraction_commutes_with_transitions(s1):
    F = T.random_tensor_field(s1, (1, 1), seed=2)
    tr = T.contract(F)
    rep = coherence_check(tr, grid=dyadic_grid(4, 9), n_samples=21)
    assert rep["coherent"]


# -- derivations -------------------------------------------------------------


def test_derivation_roundtrip_on_line(line):
    comp = Net(1, lambda e: from_sympy(sp.sin(X) + X / 3, [X]) * (1.0 + e))
    Xi0 = T.GeneralizedTensorField(line, (1, 0), {"0": [comp]})
    Xi = T.derivation_to_vector_field(lambda U: T.field_apply(Xi0, U), line,
                                      grid=dyadic_grid(4, 9))
    assert isinstance(Xi, T.GeneralizedTensorField) and Xi.valence == (1, 0)
    pts = box_lattice(line.atlas.charts["0"].sample_box, 101)
    for eps in dyadic_grid(4, 9):
        assert np.array_equal(values(Xi.comps["0"][(0,)], eps, pts),
                              values(comp, eps, pts))


def test_derivation_roundtrip_on_circle(s1):
    Xi0 = T.random_tensor_field(s1, (1, 0), seed=9)
    Xi = T.derivation_to_vector_field(lambda U: T.field_apply(Xi0, U), s1,
                                      grid=dyadic_grid(4, 9))
    for c in ("A", "B"):
        pts = box_lattice(s1.atlas.charts[c].sample_box, 101)
        for eps in (0.0625, 2.0 ** -9):
            assert np.array_equal(values(Xi.comps[c][(0,)], eps, pts),
                                  values(Xi0.comps[c][(0,)], eps, pts))


def test_spike_coefficient_derivation(s1, fourier):
    # theta = iota(delta) * d/dtheta is a derivation with a generalized,
    # nowhere-classical coefficient; recovery is still exact on cores
    loc = np.pi / 2
    spike = embed_manifold({"A": dirac(loc), "B": dirac(loc)}, s1, fourier)
    unit = T.smooth_vector_field(
        s1.atlas, {c: [constant(1.0, 1)] for c in ("A", "B")})
    theta = lambda U: spike * T.field_apply(unit, U)
    Xi = T.derivation_to_vector_field(theta, s1, grid=dyadic_grid(4, 9))
    for c in ("A", "B"):
        pts = box_lattice(s1.atlas.charts[c].sample_box, 101)
        assert np.array_equal(values(Xi.comps[c][(0,)], 2.0 ** -7, pts),
                              values(spike.nets[c], 2.0 ** -7, pts))


def test_not_a_derivation(line):
    with pytest.raises(NotADerivation):
        T.derivation_to_vector_field(lambda U: U * U, line, grid=dyadic_grid(4, 9))
    # Leibniz failure with linearity intact
    D = vf(line, constant(1.0, 1))
    with pytest.raises(NotADerivation):
        T.derivation_to_vector_field(lambda U: T.field_apply(D, U) + U, line,
                                     grid=dyadic_grid(4, 9))
    with pytest.raises(NotADerivation):
        T.derivation_to_vector_field(lambda U: 3.0, line, grid=dyadic_grid(4, 9))
