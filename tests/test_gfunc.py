"""Generalized functions on atlases: algebra, classification, point
values, coherence, association, products, and the atlas embedding."""

import contextlib
import operator

import numpy as np
import pytest
import sympy as sp

from colombeau import _mindex as mi
from colombeau import gfunc as G
from colombeau import quadrature, smooth
from colombeau import tensor as T
from colombeau.embed import (
    DistributionSpec,
    dirac,
    dirac_prime,
    embed_rn,
    heaviside,
    smooth_piece,
)
from colombeau.errors import (
    AtlasMismatch,
    CoherenceFailure,
    NotComparable,
    PartitionMismatch,
    QuadratureFailure,
)
from colombeau.gnumber import GeneralizedNumber
from colombeau.grid import DEFAULT_GRID, dyadic_grid
from colombeau.manifold import Atlas, GeneralizedPoint, Transition
from colombeau.manifolds import circle, euclidean, torus2
from colombeau.mollifier import build_mollifier
from colombeau.nets import Net, box_lattice
from colombeau.smooth import SmoothFn, coordinate, from_sympy

X = sp.Symbol("x")
Y = sp.Symbol("y0")

# independent high-precision values for the bandlimited kernel
# (600-digit arithmetic; the truncation tail past the radius is < 3e-69)
RHO_SQ = 0.45591437462066602
RHO_AT_1 = 0.31523463575021287


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
def delta_fn(fourier, line):
    return G.GeneralizedFunction(line, {"0": embed_rn(dirac(), fourier)},
                                 label="iota(delta)")


@pytest.fixture(scope="module")
def sigma_x(line):
    return G.sigma_embed(line, {"0": coordinate(0, 1)})


# -- algebra ---------------------------------------------------------------


def test_sigma_is_a_morphism_per_eps(line):
    f = from_sympy(sp.sin(X), [X])
    g = from_sympy(1 + X ** 2, [X])
    prod = G.sigma_embed(line, {"0": f}) * G.sigma_embed(line, {"0": g})
    xs = np.linspace(-3, 3, 41)
    want = np.sin(xs) * (1 + xs ** 2)
    for eps in (0.25, 2.0 ** -9):
        assert np.allclose(prod.net("0").at(eps)(xs), want, rtol=1e-15, atol=0)


def test_ring_identities_exact(delta_fn, sigma_x):
    zero = G.GeneralizedFunction(delta_fn.atlas, {"0": Net.zero(1)})
    xs = np.linspace(-2, 2, 31)
    eps = 2.0 ** -6
    lhs = (delta_fn + zero).net("0").at(eps)(xs)
    assert np.array_equal(lhs, delta_fn.net("0").at(eps)(xs))
    # multiplication commutes exactly in floating point
    uv = (sigma_x * delta_fn).net("0").at(eps)(xs)
    vu = (delta_fn * sigma_x).net("0").at(eps)(xs)
    assert np.array_equal(uv, vu)
    # scalars broadcast
    assert np.array_equal((2.5 * delta_fn).net("0").at(eps)(xs),
                          2.5 * delta_fn.net("0").at(eps)(xs))
    assert np.array_equal((delta_fn - delta_fn).net("0").at(eps)(xs), np.zeros(31))


def test_atlas_mismatch_between_distinct_spaces(delta_fn):
    other = euclidean(1)
    v = G.sigma_embed(other, {"0": coordinate(0, 1)})
    with pytest.raises(AtlasMismatch):
        delta_fn + v


def test_lie_derivative_of_heaviside_is_delta_like(fourier, line):
    H = G.GeneralizedFunction(line, {"0": embed_rn(heaviside(), fourier)})
    LH = T.field_apply(T.smooth_vector_field(line, {"0": [from_sympy(sp.Integer(1), [X])]}), H)
    eps = 2.0 ** -6
    xs = np.array([-0.4, 0.0, 0.3])
    want = fourier.deriv(0, xs / eps) / eps - fourier.deriv(0, (xs - 10) / eps) / eps
    assert np.allclose(LH.net("0").at(eps)(xs), want, rtol=0, atol=0)


# -- classification --------------------------------------------------------


def test_classify_embedded_delta(delta_fn):
    rep = G.classify(delta_fn, orders=(0, 1), boxes={"0": ((-1.0, 1.0),)},
                     grid=dyadic_grid(4, 11), n_samples="auto")
    assert rep["summary"] == "moderate" and rep["order"] == 2
    slopes = {tuple(r["alpha"]): r["slope"] for r in rep["rows"]}
    assert slopes[(0,)] == pytest.approx(-1.0, abs=0.01)
    assert slopes[(1,)] == pytest.approx(-2.0, abs=0.05)
    assert rep["order0_shortcut"] is False


def test_classify_scaled_delta_is_bounded(delta_fn):
    damped = G.GeneralizedFunction(
        delta_fn.atlas, {"0": delta_fn.net("0").scale_by_eps(1.0)})
    rep = G.classify(damped, orders=(0,), boxes={"0": ((-1.0, 1.0),)},
                     grid=dyadic_grid(4, 11), n_samples=81)
    assert rep["summary"] == "moderate" and rep["order"] == 0


@pytest.mark.parametrize("orders", [("1",), (0, "1")])
def test_classify_rejects_string_orders(delta_fn, orders):
    with pytest.raises(TypeError):
        G.classify(delta_fn, orders=orders)


@pytest.mark.parametrize("orders", [(1.5,), (0, 1.0), (np.float64(2.0),), ((0.5,),)])
def test_classify_rejects_non_integer_orders(orders):
    # a total order of 1.5 was truncated to 1 and fit the multi-index (1,)
    U = G.GeneralizedFunction(euclidean(1), {"0": 1.0})
    with pytest.raises(TypeError, match="is not an integer"):
        G.classify(U, orders=orders, n_samples=11)
    rep = G.classify(U, orders=(np.int64(1),), n_samples=11)
    assert [r["alpha"] for r in rep["rows"]] == [[1]]


def test_classify_divergent(line):
    bad = G.GeneralizedFunction(
        line, {"0": Net(1, lambda e: from_sympy(sp.Float(e) ** -30 * (1 + 0 * X), [X]))})
    rep = G.classify(bad, orders=(0,), grid=dyadic_grid(4, 10), n_samples=11)
    assert rep["summary"] == "divergent" and rep["order"] is None


def test_classify_order0_shortcut(line):
    # values fall like eps^6 but the first derivative only like eps^3:
    # negligible values plus moderateness gives a negligible summary
    osc = G.GeneralizedFunction(
        line, {"0": Net(1, lambda e: from_sympy(e ** 6 * sp.sin(X / e ** 3), [X]))})
    rep = G.classify(osc, orders=(0, 1), grid=dyadic_grid(4, 8), n_samples=101)
    assert rep["summary"] == "negligible"
    assert rep["order0_shortcut"] is True
    by_alpha = {tuple(r["alpha"]): r for r in rep["rows"]}
    assert by_alpha[(0,)]["verdict"] == "negligible"
    assert by_alpha[(1,)]["verdict"] == "moderate"


def test_classify_auto_lattice(line):
    u = G.sigma_embed(line, {"0": from_sympy(sp.sin(X), [X])})
    rep = G.classify(u, orders=(0,), grid=dyadic_grid(4, 7), n_samples="auto")
    assert rep["summary"] == "moderate" and rep["order"] == 0


# -- point values ----------------------------------------------------------


def test_point_value_on_drifting_point(delta_fn, sigma_x, fourier):
    # F = sigma(x) iota(delta) at the point net eps -> eps: every value
    # is rho(1) up to two rounding operations
    F = sigma_x * delta_fn
    p = GeneralizedPoint(delta_fn.atlas, "0", lambda e: np.array([e]),
                         ((-0.5, 0.5),), label="drift")
    pv = G.point_value(F, p, grid=dyadic_grid(4, 11))
    assert np.allclose(pv.values, RHO_AT_1, rtol=0, atol=1e-15)
    fit = pv.classify()
    assert fit.verdict == "moderate" and fit.order == 0


def test_point_value_at_classical_points_vanishes(delta_fn, sigma_x):
    F = sigma_x * delta_fn
    for x0 in (0.7, -1.3):
        p = GeneralizedPoint.classical(delta_fn.atlas, "0", [x0])
        fit = G.point_value(F, p, grid=dyadic_grid(4, 11)).classify()
        assert fit.is_negligible


def test_point_value_transports_to_carried_chart(s1):
    # net lives on chart B only; witness point sits in chart A
    u = G.GeneralizedFunction(s1, {"B": Net.constant_in_eps(from_sympy(sp.sin(Y), [Y]))})
    p = GeneralizedPoint.classical(u.atlas, "A", [2.0])
    pv = G.point_value(u, p, grid=dyadic_grid(4, 6))
    assert np.allclose(pv.values, np.sin(2.0), rtol=0, atol=1e-15)
    q = GeneralizedPoint.classical(euclidean(1).atlas, "0", [0.0])
    with pytest.raises(NotComparable):
        G.point_value(u, q)


def test_point_value_not_comparable_without_a_transition_to_a_carried_chart(scaled_line):
    # scaled_line's two charts with no transition joining them; the net lives on "S" only
    atlas = Atlas("two-apart", 1, scaled_line.charts, {}, {})
    u = G.GeneralizedFunction(atlas, {"S": Net.constant_in_eps(from_sympy(sp.sin(Y), [Y]))})
    with pytest.raises(NotComparable, match="carries no net and no transition reaches one"):
        G.point_value(u, GeneralizedPoint.classical(atlas, "L", [0.5]))
    pv = G.point_value(u, GeneralizedPoint.classical(atlas, "S", [0.5]), grid=dyadic_grid(4, 7))
    assert np.array_equal(pv.values, np.full(4, np.sin(0.5)))


def test_zero_test_finds_drift_witness(delta_fn, sigma_x):
    F = sigma_x * delta_fn
    rep = G.zero_test_by_points(F, grid=dyadic_grid(4, 11))
    assert rep["all_negligible"] is False
    assert len(rep["witnesses"]) >= 1
    zero = G.GeneralizedFunction(delta_fn.atlas, {"0": Net.zero(1)})
    rep0 = G.zero_test_by_points(zero, grid=dyadic_grid(4, 11))
    assert rep0["all_negligible"] is True and rep0["witnesses"] == []


def _zero_test_agrees_with_classify(U, grid):
    """The zero test and the order-0 rows of ``classify``, checked to agree:
    a witness per chart whose fit is not negligible, and none elsewhere.
    A witness's fit is its chart's lattice sups, bit for bit: the same
    magnitudes as the witness's own point values and as the chart's row."""
    rep = G.zero_test_by_points(U, grid=grid)
    rows = G.classify(U, orders=(0,), grid=grid, n_samples="auto")["rows"]
    assert [w["chart"] for w in rep["witnesses"]] == \
        [r["chart"] for r in rows if r["verdict"] != "negligible"]
    assert rep["all_negligible"] is (not rep["witnesses"])
    for w in rep["witnesses"]:
        p = w["point"]
        assert p.chart == w["chart"] and p.box == U.atlas.charts[p.chart].sample_box
        assert all(p.in_box(e) for e in grid)
        (row,) = [r for r in rows if r["chart"] == w["chart"]]
        again = G.point_value(U, p, grid).classify()
        for magnitudes in (again.magnitudes, row["magnitudes"]):
            assert np.array_equal(np.array(w["fit"].magnitudes).view(np.int64),
                                  np.array(magnitudes).view(np.int64))
        assert (again.verdict, again.slope) == (w["fit"].verdict, w["fit"].slope)
    return rep, rows


@pytest.mark.parametrize("regular, grid", [
    ("sigma", DEFAULT_GRID),
    ("iota", dyadic_grid(4, 9)),  # the embedded piece is convolved on 2^18 + 1 points per eps
])
def test_zero_test_witness_follows_the_sup_to_the_product_peak(fourier, line, regular, grid):
    # (x - 0.3) iota(delta at 0.3) peaks about one kernel width off 0.3
    x = coordinate(0, 1) - 0.3
    F = (G.sigma_embed(line, {"0": x}) if regular == "sigma" else
         G.GeneralizedFunction(line, {"0": embed_rn(smooth_piece(x, -1.0, 1.0), fourier)}))
    F = F * G.GeneralizedFunction(line, {"0": embed_rn(dirac(0.3), fourier)})
    (w,) = _zero_test_agrees_with_classify(F, grid)[0]["witnesses"]
    assert w["fit"].verdict == "moderate" and w["fit"].order == 0
    for e in grid:
        assert abs(w["point"].coords_at(e)[0] - 0.3) <= 1.25 * e


@pytest.mark.parametrize("power, slope", [(8, 7.0), (4, 3.0)])
def test_zero_test_reads_the_sup_order_of_a_scaled_delta(fourier, line, power, slope):
    # eps^power iota(delta) has a sup of order eps^(power - 1): negligible at m_max 6
    F = G.GeneralizedFunction(line, {"0": embed_rn(dirac(), fourier).scale_by_eps(power)})
    rep, (row,) = _zero_test_agrees_with_classify(F, DEFAULT_GRID)
    assert row["slope"] == pytest.approx(slope, abs=0.01)
    assert len(rep["witnesses"]) == (slope < 6)


def test_zero_test_on_the_circle(s1):
    U = T.random_coherent_functions(s1, 1, seed=0)[0]
    rep, _ = _zero_test_agrees_with_classify(U, DEFAULT_GRID)
    assert [w["chart"] for w in rep["witnesses"]] == ["A", "B"]
    assert _zero_test_agrees_with_classify(U - U, DEFAULT_GRID)[0]["witnesses"] == []


@pytest.mark.slow
def test_zero_test_on_the_torus():
    # five eps: every eps samples the capped 511 x 511 lattice per chart
    grid = dyadic_grid(4, 8)
    U = T.random_coherent_functions(torus2(), 1, seed=0)[0]
    rep, _ = _zero_test_agrees_with_classify(U, grid)
    assert [w["chart"] for w in rep["witnesses"]] == ["AA", "AB", "BA", "BB"]
    assert _zero_test_agrees_with_classify(U - U, grid)[0]["witnesses"] == []


# -- coherence -------------------------------------------------------------


def test_sigma_embed_coherent_on_circle(s1):
    u = G.sigma_embed(s1, {"A": from_sympy(sp.sin(Y), [Y]),
                           "B": from_sympy(sp.sin(Y), [Y])})
    rep = G.coherence_check(u, grid=dyadic_grid(4, 8), n_samples=41)
    assert rep["coherent"] is True
    assert rep["n_pairs"] >= 2


def test_sigma_embed_rejects_incoherent_charts(s1):
    fns = {"A": from_sympy(sp.sin(Y), [Y]), "B": from_sympy(sp.cos(Y), [Y])}
    with pytest.raises(CoherenceFailure):
        G.sigma_embed(s1, fns)
    u = G.GeneralizedFunction(s1, {c: Net.constant_in_eps(f) for c, f in fns.items()})
    rep = G.coherence_check(u, grid=dyadic_grid(4, 8), n_samples=41)
    assert rep["coherent"] is False
    assert any(not row["negligible"] for row in rep["rows"])


def test_sigma_embed_judges_by_coherence_check(s1):
    """A constant offset between the charts fails exactly when the
    coherence check's rounding clamp does not absorb it."""
    sin_a = from_sympy(sp.sin(Y), [Y])
    with pytest.raises(CoherenceFailure, match="A->B: gap 1e-11"):
        G.sigma_embed(s1, {"A": sin_a, "B": from_sympy(sp.sin(Y) + 1e-11, [Y])})
    u = G.sigma_embed(s1, {"A": sin_a, "B": from_sympy(sp.sin(Y) + 1e-13, [Y])})
    assert G.coherence_check(u)["coherent"] is True


def test_sigma_embed_rejects_a_non_finite_gap(s1):
    # chart B is NaN on the whole overlap: a NaN gap is not below the tolerance
    fns = {"A": from_sympy(sp.sin(Y), [Y]), "B": from_sympy(sp.sqrt(Y - 10), [Y])}
    with pytest.raises(CoherenceFailure):
        G.sigma_embed(s1, fns)


def test_coherence_of_rough_nets_clamps_rounding(fourier, s1):
    # embedded point mass on the circle: the overlap gap is pure float
    # round trip, below the value clamp at every eps (rough-cubic below
    # is the input whose clamp the derivative scale decides)
    theta = np.pi / 2
    iota = G.embed_manifold({"A": dirac(theta), "B": dirac(theta)}, s1, fourier)
    rep = G.coherence_check(iota, grid=dyadic_grid(4, 11), n_samples=41)
    assert rep["coherent"] is True
    assert all(row["n_clamped"] == len(dyadic_grid(4, 11)) for row in rep["rows"])


def _reference_rows(atlas, comps, valence, grid, n_samples):
    """The overlap residual's rows from an eager loop, one box at a time:
    no leaf memo, and the first-derivative scale evaluated at every
    (box, eps)."""
    dim = atlas.dim
    r, s = valence
    zero = (0,) * dim
    rows = []
    for (a, b), tr in sorted(atlas.transitions.items()):
        if a not in comps or b not in comps:
            continue
        ca, cb = comps[a], comps[b]
        for k, box in enumerate(atlas.overlap_boxes[(a, b)]):
            x = box_lattice(box, n_samples)
            y = tr.fn(x)
            jac = np.asarray(tr.jac(x), dtype=float) if r + s else None
            jinv = np.linalg.inv(jac) if r else None

            def gap_at(e):
                gap, s0, s1 = 0.0, 0.0, 0.0
                vb = {kdx: np.asarray(cb[kdx].at(e)._partial_fn(zero, y)) for kdx in cb}
                for idx in ca:
                    fa = ca[idx].at(e)
                    va = np.asarray(fa._partial_fn(zero, x))
                    pullback = np.zeros(len(x))
                    for kdx in cb:
                        w = np.ones(len(x))
                        for ai in range(r):
                            w = w * jinv[:, idx[ai], kdx[ai]]
                        for bi in range(s):
                            w = w * jac[:, kdx[r + bi], idx[r + bi]]
                        pullback = pullback + w * vb[kdx]
                    gap = max(gap, float(np.max(np.abs(va - pullback))))
                    s0 = max(s0, float(np.max(np.abs(va))),
                             float(np.max(np.abs(pullback))))
                    for i in range(dim):
                        s1 = max(s1, float(np.max(np.abs(
                            fa._partial_fn(mi.unit(dim, i), x)))))
                return (0.0 if gap <= G.COHERENCE_RTOL * s0 + G.COHERENCE_GRAD_RTOL * s1
                        else gap)

            fit = GeneralizedNumber.from_fn(gap_at, grid).classify()
            rows.append(_row_key(fit.slope, float(max(fit.magnitudes)),
                                 fit.n_clamped, fit.verdict))
    return rows


def _row_key(slope, max_gap, n_clamped, verdict):
    return (float(slope).hex(), float(max_gap).hex(), n_clamped, verdict)


def _residual_inputs(name, request):
    """(section, grid, n_samples) of one overlap-residual input."""
    s1, y = circle(), sp.Symbol("y0")
    if name == "circle-product":
        U, V = T.random_coherent_functions(s1, count=2, seed=0)
        return U * V, dyadic_grid(4, 9), 61
    if name == "torus-field-apply":
        # rank 0 at the default 61**2 lattice: 2- and 4-box transitions
        t2 = torus2()
        (U,) = T.random_coherent_functions(t2, count=1, seed=3)
        Xi = T.random_tensor_field(t2, (1, 0), seed=53)
        return T.field_apply(Xi, U), dyadic_grid(4, 9), 61
    if name == "torus-bracket":
        t2 = torus2()
        return T.bracket(T.random_tensor_field(t2, (1, 0), seed=50),
                         T.random_tensor_field(t2, (1, 0), seed=75)), dyadic_grid(4, 9), 9
    if name == "incoherent-field":
        F = T.GeneralizedTensorField(s1, (1, 0), {"A": [from_sympy(sp.sin(y), [y])],
                                                  "B": [from_sympy(sp.cos(y), [y])]})
        return F, dyadic_grid(4, 9), 21
    if name == "embedded-dirac":
        iota = G.embed_manifold({"A": dirac(np.pi / 2), "B": dirac(np.pi / 2)}, s1,
                                request.getfixturevalue("fourier"))
        return iota, dyadic_grid(4, 11), 41
    if name == "rough-cubic":
        # sin(x/eps) through the cubic transition: the round trip's gap
        # outgrows the value clamp and the derivative scale decides
        atlas, (x, y) = request.getfixturevalue("cubic_line").atlas, sp.symbols("x y")
        x_of_y = 2 / sp.sqrt(3) * sp.sinh(sp.asinh(sp.Rational(3, 2) * sp.sqrt(3) * y) / 3)
        U = G.GeneralizedFunction(atlas, {
            "U": Net(1, lambda e: from_sympy(sp.sin(x / e), [x])),
            "V": Net(1, lambda e: from_sympy(sp.sin(x_of_y / e), [y]))})
        return U, dyadic_grid(4, 14), 41
    atlas, x0 = request.getfixturevalue("scaled_line"), sp.Symbol("x0")
    if name == "jacobian-field":
        F = T.GeneralizedTensorField(atlas, (1, 0), {
            "L": [from_sympy(sp.sin(x0), [x0])], "S": [from_sympy(2 * sp.sin(x0 / 2), [x0])]})
    else:  # jacobian-one-form
        F = T.GeneralizedTensorField(atlas, (0, 1), {
            "L": [from_sympy(sp.sin(x0), [x0])], "S": [from_sympy(sp.sin(x0 / 2) / 2, [x0])]})
    return F, dyadic_grid(4, 9), 17


@pytest.mark.parametrize("name", ["circle-product", "torus-field-apply", "torus-bracket",
                                  "incoherent-field", "embedded-dirac", "rough-cubic",
                                  "jacobian-field", "jacobian-one-form"])
def test_overlap_residual_rows_match_eager_reference(name, request):
    # the per-transition lattice, the sweep's leaf memo and its skipped
    # derivative scale change no row: slopes and max gaps bitwise, clamp
    # counts and verdicts exactly
    section, grid, n = _residual_inputs(name, request)
    rep = G.overlap_residual(section, grid, n)
    got = [_row_key(row["slope"], row["max_gap"], row["n_clamped"], row["verdict"])
           for row in rep["rows"]]
    assert got == _reference_rows(section.atlas, section.comps, section.valence, grid, n)
    assert rep["coherent"] is (name != "incoherent-field")


def test_overlap_residual_evaluates_one_lattice_per_transition(monkeypatch):
    # at n=61 each torus transition is larger than SWEEP_POINTS and sweeps
    # as a block alone: every leaf call sees one transition's boxes
    # together, as chart-a points or their images, never one box alone
    t2, n = torus2(), 61
    assert min(2 * len(boxes) * n ** 2 for boxes in t2.atlas.overlap_boxes.values()) \
        > G.SWEEP_POINTS
    U, V = T.random_coherent_functions(t2, count=2, seed=6)
    lattices = {}
    for (a, b), tr in t2.atlas.transitions.items():
        x = np.concatenate([box_lattice(box, n) for box in t2.atlas.overlap_boxes[(a, b)]])
        lattices[x.tobytes()] = lattices[tr.fn(x).tobytes()] = (a, b)
    seen = []
    lambdify = smooth.lambdify

    def recording(*args, **kwargs):
        fn = lambdify(*args, **kwargs)

        def wrapped(*cols):
            seen.append((len(cols[0]), np.column_stack(cols).tobytes()))
            return fn(*cols)

        return wrapped

    monkeypatch.setattr(smooth, "lambdify", recording)
    rep = G.coherence_check(U * V, grid=dyadic_grid(4, 9), n_samples=n)
    assert rep["coherent"] and len(rep["rows"]) == 32
    assert max(m for m, _ in seen) <= 4 * n ** 2
    owners = [lattices.get(pts) for _, pts in seen]  # None: no transition's lattice
    assert None not in owners
    assert set(owners) == set(t2.atlas.transitions)


def test_overlap_residual_evaluates_one_lattice_per_chart_and_block(monkeypatch):
    # at n=9 every torus transition fits in one block: each leaf call sees
    # one chart's lattice, its points on every overlap and the images of
    # the other charts' overlap points in it, and no lattice exceeds the
    # budget or the largest transition
    t2, n = torus2(), 9
    U, V = T.random_coherent_functions(t2, count=2, seed=6)
    union, largest = {}, 0
    for (a, b), tr in t2.atlas.transitions.items():
        x = np.concatenate([box_lattice(box, n) for box in t2.atlas.overlap_boxes[(a, b)]])
        union.setdefault(a, []).append(x)
        union.setdefault(b, []).append(tr.fn(x))
        largest = max(largest, 2 * len(x))
    union = {c: np.unique(np.concatenate(p), axis=0) for c, p in union.items()}
    registered, seen = [], []
    lambdify, leaf_memo = smooth.lambdify, G.leaf_memo

    def recording(*args, **kwargs):
        fn = lambdify(*args, **kwargs)

        def wrapped(*cols):
            seen.append(np.column_stack(cols).tobytes())
            return fn(*cols)

        return wrapped

    @contextlib.contextmanager
    def registering(*lattices):
        registered.extend(lattices)
        with leaf_memo(*lattices):
            yield

    monkeypatch.setattr(smooth, "lambdify", recording)
    monkeypatch.setattr(G, "leaf_memo", registering)
    rep = G.coherence_check(U * V, grid=dyadic_grid(4, 9), n_samples=n)
    assert rep["coherent"] and len(rep["rows"]) == 32
    assert len(registered) == 4
    assert max(map(len, registered)) <= max(G.SWEEP_POINTS, largest)
    assert seen and set(seen) <= {pts.tobytes() for pts in registered}
    assert sorted(np.unique(pts, axis=0).tobytes() for pts in registered) \
        == sorted(pts.tobytes() for pts in union.values())


def _evaluations(monkeypatch, check):
    """Counts during ``check()``: compiled leaf evaluations; distinct (leaf,
    multi-index, lattice) triples, lattices by content within one leaf-memo
    block, as a content-keyed memo would serve them; elementary-function
    (sin, cos, exp) array evaluations; atom lookups; and distinct (atom
    key, lattice) pairs within one block, with the names of the atoms'
    functions."""
    calls, triples, block = [], set(), [0]
    elementary, lookups, pairs, names = [0], [0], set(), set()
    lambdify, leaf_memo, atom = smooth.lambdify, G.leaf_memo, smooth._atom

    def recording(*args, **kwargs):
        fn, serial = lambdify(*args, **kwargs), len(calls)  # one per leaf and alpha
        calls.append(0)

        def wrapped(*cols):
            calls[serial] += 1
            triples.add((block[0], serial, np.column_stack(cols).tobytes()))
            return fn(*cols)

        return wrapped

    @contextlib.contextmanager
    def numbered(*lattices):
        block[0] += 1
        with leaf_memo(*lattices):
            yield

    def recording_atom(key, thunk):
        # the table is current only on a registered lattice, alive in its block
        if smooth._atoms is not None:
            pairs.add((block[0], id(smooth._atoms), key))
        lookups[0] += 1
        names.add(key.split(") ", 1)[1].split("(", 1)[0])
        return atom(key, thunk)

    def counting(f):
        def counted(v, *args, **kwargs):
            elementary[0] += isinstance(v, np.ndarray) and v.ndim > 0
            return f(v, *args, **kwargs)

        return counted

    monkeypatch.setattr(smooth, "lambdify", recording)
    monkeypatch.setattr(G, "leaf_memo", numbered)
    for printer in (smooth._NumPyAtomPrinter, smooth._SciPyAtomPrinter):
        ns = smooth._namespace(printer)  # the globals of every compiled leaf
        monkeypatch.setitem(ns, "_atom", recording_atom)
        for name in ("sin", "cos", "exp"):
            monkeypatch.setitem(ns, name, counting(ns[name]))
    assert check()["coherent"]
    return {"calls": sum(calls), "distinct": len(triples), "elementary": elementary[0],
            "lookups": lookups[0], "pairs": len(pairs), "names": names}


def _torus_check(name):
    """A coherence check of a torus field_apply or bracket, and its compiled
    leaf evaluations (the counts of the former content-keyed memo too)."""
    t2 = torus2()
    (U,) = T.random_coherent_functions(t2, count=1, seed=3)
    Xi = T.random_tensor_field(t2, (1, 0), seed=50)
    Yi = T.random_tensor_field(t2, (1, 0), seed=75)
    grid = dyadic_grid(4, 9)
    return {
        "field_apply": (lambda: G.coherence_check(T.field_apply(Xi, U), grid=grid), 96),
        "bracket": (lambda: T.coherence_check_tensor(T.bracket(Xi, Yi), grid=grid,
                                                     n_samples=9), 48),
    }[name]


@pytest.mark.parametrize("name", ["field_apply", "bracket"])
def test_coherence_sweep_evaluates_each_leaf_once_per_lattice(name, monkeypatch):
    # a memo keyed by the registered lattices must serve every repeat a
    # content-keyed memo would: a lost hit shows as an extra evaluation
    check, expected = _torus_check(name)
    counts = _evaluations(monkeypatch, check)
    assert counts["calls"] == counts["distinct"] == expected


def test_coherence_sweep_evaluates_each_atom_once_per_lattice(monkeypatch):
    # every leaf and multi-index on a lattice shares each sin and cos: one
    # array evaluation per distinct (atom, lattice), where the 96 leaf
    # evaluations name 576 atoms
    check, expected = _torus_check("field_apply")
    counts = _evaluations(monkeypatch, check)
    assert counts["names"] == {"sin", "cos"}
    assert counts["calls"] == expected and counts["lookups"] == 576
    assert counts["elementary"] == counts["pairs"] == 192


@pytest.mark.parametrize("chart_b", [sp.sqrt(Y - 10), sp.exp(1000 + Y)])
def test_non_finite_residual_is_not_coherent(chart_b, s1):
    # chart B is NaN (or infinite) on the whole overlap: the gap must not
    # read as exact agreement, as it did when the sup dropped NaNs and an
    # infinite gap fell under its infinite clamp
    fa, fb = from_sympy(sp.sin(Y), [Y]), from_sympy(chart_b, [Y])
    U = G.GeneralizedFunction(s1.atlas, {"A": Net(1, lambda e: fa),
                                         "B": Net(1, lambda e: fb)})
    rep = G.coherence_check(U, grid=dyadic_grid(4, 9))
    assert rep["coherent"] is False and len(rep["rows"]) == 4
    for row in rep["rows"]:
        assert row["verdict"] == "non-finite" and row["negligible"] is False
        assert np.isnan(row["slope"]) and np.isnan(row["max_gap"])
        assert row["n_clamped"] == 0


# -- association -----------------------------------------------------------


def test_richardson_limit_exact_on_quadratic():
    grid = np.array([0.4, 0.2, 0.1, 0.05])
    vals = 1.0 + 2.0 * grid + 3.0 * grid ** 2
    limit, resid = G.richardson_limit(grid, vals)
    assert limit == pytest.approx(1.0, abs=1e-12)
    assert resid == pytest.approx(3.0 * 0.1 * 0.05, abs=1e-12)


def test_x_times_delta_associates_to_zero(delta_fn, sigma_x):
    v = G.associate(sigma_x * delta_fn, grid=dyadic_grid(4, 11))
    assert v.status == "associated_to_zero" and v.associated
    assert max(r["residual"] for r in v.rows) < 1e-9


def test_delta_itself_is_not_zero_associated(delta_fn):
    v = G.associate(delta_fn, target=None, grid=dyadic_grid(4, 11))
    assert v.status == "not_associated" and not v.associated


def test_associate_against_dirac_target(delta_fn):
    v = G.associate(delta_fn, dirac(0.0), grid=dyadic_grid(4, 11))
    assert v.status == "associated"
    assert max(r["residual"] for r in v.rows) < 1e-9
    # linearity: 2 iota(delta) pairs against the doubled target
    v2 = G.associate(2.0 * delta_fn, dirac(0.0, weight=2.0), grid=dyadic_grid(4, 11))
    assert v2.status == "associated"


def test_square_scaled_delta_recovers_kernel_energy(delta_fn):
    # eps * iota(delta)^2 has no distributional limit a priori, yet it
    # associates to the kernel energy times delta
    W = G.GeneralizedFunction(
        delta_fn.atlas, {"0": (delta_fn.net("0") * delta_fn.net("0")).scale_by_eps(1.0)})
    v = G.associate(W, dirac(0.0, weight=RHO_SQ), grid=dyadic_grid(4, 11))
    assert v.status == "associated"
    assert max(r["residual"] for r in v.rows) < 1e-6
    wrong = G.associate(W, dirac(0.0, weight=RHO_SQ + 0.01), grid=dyadic_grid(4, 11))
    assert wrong.status == "not_associated"


@pytest.mark.parametrize("target", ["0", "abc", b"0"])
def test_string_association_target_is_a_type_error(delta_fn, target):
    with pytest.raises(TypeError, match="unsupported association target"):
        G.associate(delta_fn, target=target)


def test_heaviside_derivative_associates_to_delta(fourier, line):
    H = G.GeneralizedFunction(line, {"0": embed_rn(heaviside(), fourier)})
    LH = T.field_apply(T.smooth_vector_field(line, {"0": [from_sympy(sp.Integer(1), [X])]}), H)
    v = G.associate(LH, dirac(0.0), grid=dyadic_grid(4, 11))
    assert v.status == "associated"
    assert max(r["residual"] for r in v.rows) < 1e-9


def test_gausspoly_embedding_associates_too(line):
    gp = build_mollifier("gausspoly:2")
    Dg = G.GeneralizedFunction(line, {"0": embed_rn(dirac(), gp)})
    v = G.associate(Dg, dirac(0.0), grid=dyadic_grid(4, 11))
    assert v.status == "associated"
    assert max(r["residual"] for r in v.rows) < 1e-6


def test_association_verdict_serialization(delta_fn):
    v = G.associate(delta_fn, dirac(0.0), grid=dyadic_grid(4, 9))
    blob = v.to_json()
    assert blob["status"] == "associated" and blob["tol"] == 1e-3
    csv = v.to_csv().splitlines()
    assert csv[0] == "density,eps,pairing,extrapolated,target,residual,ok"
    assert len(csv) > 1


@pytest.mark.parametrize("spec", ["fourier", "gausspoly:2"])
def test_delta_in_the_plane_associates_to_delta(spec):
    """The fixed 48^2 rule made the fourier case "not_associated" at grid 4..9."""
    p = (0.1, 0.1)
    U = G.embed_manifold({"0": dirac(p, dim=2)}, euclidean(2), build_mollifier(spec))
    for grid in (dyadic_grid(4, 9), DEFAULT_GRID):
        v = G.associate(U, dirac(p, dim=2), grid=grid)
        assert v.status == "associated", (len(grid), v.rows)


def test_an_unresolved_pairing_makes_the_verdict_unresolved(monkeypatch):
    """Under a point budget that no first level fits, every pairing is NaN."""
    p = (0.1, 0.1)
    U = G.embed_manifold({"0": dirac(p, dim=2)}, euclidean(2), build_mollifier("fourier"))
    monkeypatch.setattr(quadrature, "POINT_BUDGET", 100)
    v = G.associate(U, dirac(p, dim=2), grid=dyadic_grid(4, 9))
    assert v.status == "unresolved" and not v.associated
    assert all(np.isnan(r["pairings"]).all() for r in v.rows)


def test_delta_on_circle_associates_chartwise(fourier, s1):
    theta = np.pi / 2
    iota = G.embed_manifold({"A": dirac(theta), "B": dirac(theta)}, s1, fourier)
    target = {"A": dirac(theta), "B": dirac(theta)}
    v = G.associate(iota, target, grid=dyadic_grid(4, 11))
    assert v.status == "associated"
    assert max(r["residual"] for r in v.rows) < 1e-6


# -- C^k association and products ------------------------------------------


def test_ck_association_of_embedded_sine(fourier, line):
    sin_fn = from_sympy(sp.sin(X), [X])
    E = G.GeneralizedFunction(line, {"0": embed_rn(smooth_piece(sin_fn, -9.5, 9.5), fourier)})
    rep = G.ck_associate(E, {"0": sin_fn}, k=3, grid=dyadic_grid(4, 8), n_samples=61)
    assert rep["ok"] is True
    assert len(rep["rows"]) == 4
    # the kernel reproduces the sine to rounding level, so every row sits
    # at the rounding floor rather than on a measurable slope
    assert all(r["note"].startswith("negligible at working precision") for r in rep["rows"])


def test_delta_is_not_ck_associated_to_zero(delta_fn):
    zero_fn = from_sympy(sp.Integer(0), [X])
    rep = G.ck_associate(delta_fn, {"0": zero_fn}, k=0, grid=dyadic_grid(4, 8))
    assert rep["ok"] is False
    assert rep["rows"][0]["slope"] == pytest.approx(-1.0, abs=0.02)


def test_product_consistency_mode_a(fourier, line, sigma_x):
    # sigma(x) * iota(delta') associates to x * delta' = -delta
    Dp = G.GeneralizedFunction(line, {"0": embed_rn(dirac_prime(), fourier)})
    rep = G.product_consistency_check(sigma_x, Dp, {"0": coordinate(0, 1)},
                                      dirac_prime(), mode="a", grid=dyadic_grid(4, 11))
    assert rep["hypotheses"]["ok"] is True
    assert rep["v_verdict"]["status"] == "associated"
    assert rep["product_verdict"]["status"] == "associated"
    assert rep["consistent"] is True


def test_product_consistency_counterexample_flagged(fourier, line, delta_fn):
    # U = eps * iota(delta) associates to 0 but is not C^k-associated to
    # it; the product with iota(delta) keeps a kernel-energy remnant and
    # the report points at the failed hypothesis
    U = G.GeneralizedFunction(line, {"0": delta_fn.net("0").scale_by_eps(1.0)})
    zero_fn = from_sympy(sp.Integer(0), [X])
    rep = G.product_consistency_check(U, delta_fn, {"0": zero_fn}, dirac(0.0),
                                      mode="b", k=1, grid=dyadic_grid(4, 11))
    assert rep["hypotheses"]["ok"] is False
    assert rep["consistent"] is False
    assert rep["product_verdict"]["status"] == "not_associated"
    assert rep["v_verdict"]["status"] == "associated"


def test_product_consistency_rejects_unknown_mode(delta_fn, sigma_x):
    with pytest.raises(ValueError):
        G.product_consistency_check(sigma_x, delta_fn, {"0": coordinate(0, 1)},
                                    dirac(0.0), mode="c")


# -- atlas embedding -------------------------------------------------------


def test_embed_manifold_smooth_function_on_circle(fourier, s1):
    sin_a = smooth_piece(from_sympy(sp.sin(Y), [Y]), -np.pi - 3.2, np.pi + 3.2)
    sin_b = smooth_piece(from_sympy(sp.sin(Y), [Y]), -3.2, 2 * np.pi + 3.2)
    iota = G.embed_manifold({"A": sin_a, "B": sin_b}, s1, fourier)
    sig = G.sigma_embed(s1, {"A": from_sympy(sp.sin(Y), [Y]),
                             "B": from_sympy(sp.sin(Y), [Y])})
    rep = G.classify(iota - sig, orders=(0,), grid=dyadic_grid(4, 8), n_samples=41)
    assert rep["summary"] == "negligible"
    assert all(r["slope"] >= 5.75 for r in rep["rows"])


def test_embed_manifold_requires_full_partition(fourier, s1):
    with pytest.raises(PartitionMismatch):
        G.embed_manifold({"A": dirac(0.0)}, s1, fourier)


def test_embed_manifold_zero_spec_gives_zero(fourier, s1):
    iota = G.embed_manifold({"A": DistributionSpec(1), "B": DistributionSpec(1)},
                            s1, fourier)
    xs = np.linspace(-2, 2, 17)
    for c in ("A", "B"):
        assert np.array_equal(iota.net(c).at(0.125)(xs), np.zeros(17))


def test_transport_requires_an_affine_transition():
    tr = Transition(lambda pts: pts + 1.0, lambda pts: np.ones((len(pts), 1, 1)))
    with pytest.raises(CoherenceFailure):
        G.transport_net(Net.zero(1), tr)


def test_transport_through_a_scaling_is_scale_shift(scaled_line):
    # x -> 2x: each derivative of order k picks up 2**k, bit for bit as scale_shift
    f = from_sympy(sp.sin(X) * sp.exp(-X ** 2), [X])
    moved = G.transport_net(Net.constant_in_eps(f), scaled_line.transition("L", "S")).at(0.5)
    xs = np.linspace(-1.0, 1.0, 101)
    for k in range(3):
        assert np.array_equal(moved.partial((k,), xs), f.scale_shift(2.0, 0.0).partial((k,), xs))


def test_transport_on_the_torus_evaluates_its_source_once_per_call():
    t2, calls = torus2(), []

    def pfn(alpha, pts):
        calls.append(len(pts))
        return pts[:, 0] * pts[:, 1]

    source = Net.constant_in_eps(SmoothFn(2, pfn))
    pts = box_lattice(((0.2, 3.0), (-3.0, 3.0)), 9)
    for a, b in t2.atlas.transitions:
        moved = G.transport_net(source, t2.atlas.transition(a, b)).at(0.5)
        for alpha in ((0, 0), (1, 0), (1, 1)):
            calls.clear()
            moved.partial(alpha, pts)
            assert calls == [len(pts)], (a, b, alpha)


def test_lie_route_agreement_on_embedded_sine(fourier, line):
    sin_fn = from_sympy(sp.sin(X), [X])
    E = G.GeneralizedFunction(line, {"0": embed_rn(smooth_piece(sin_fn, -9.5, 9.5), fourier)})
    rep = T.lie_route_agreement(E, [{"0": [sin_fn]}], depth=2,
                                grid=dyadic_grid(4, 7), n_samples=41)
    assert rep["agree"] is True
    assert rep["partial_summary"] == "moderate"


# -- integration -----------------------------------------------------------


def test_integrate_embedded_delta(delta_fn):
    gi = G.integrate(delta_fn, grid=dyadic_grid(4, 11))
    assert abs(gi.values[-1] - 1.0) < 1e-12
    weighted = G.integrate(delta_fn, density=from_sympy(sp.cos(X), [X]),
                           grid=dyadic_grid(4, 11))
    assert abs(weighted.values[-1] - 1.0) < 1e-12


def test_integrate_needs_chart_name_on_atlases(s1):
    u = G.sigma_embed(s1, {"A": from_sympy(sp.sin(Y), [Y]),
                           "B": from_sympy(sp.sin(Y), [Y])})
    with pytest.raises(NotComparable):
        G.integrate(u)
    gi = G.integrate(u, chart="A", box=((0.0, 1.0),), grid=dyadic_grid(4, 6))
    assert np.allclose(gi.values, 1.0 - np.cos(1.0), atol=1e-12)


def test_integrate_box_rejects_non_finite():
    bad = from_sympy(sp.sqrt(X), [X])
    with pytest.raises(QuadratureFailure):
        G.integrate_box(bad, ((-1.0, 1.0),), eps_hint=0.1)


def test_integrate_box_of_a_constant_leaf():
    """A constant sympy leaf evaluates to one value per point on both paths."""
    Y0, Y1 = sp.symbols("y0 y1")
    three = from_sympy(sp.Integer(3), [X])
    assert three._partial_fn((0,), np.zeros((5, 1))).shape == (5,)
    assert G.integrate_box(three, ((0.0, 1.0),), eps_hint=0.1) == pytest.approx(3.0, abs=1e-14)
    plane_three = from_sympy(sp.Integer(3), [Y0, Y1])
    assert G.integrate_box(plane_three, ((0.0, 1.0), (-1.0, 1.0)), eps_hint=0.1) \
        == pytest.approx(6.0, abs=1e-13)


_LINE = euclidean(1)


@pytest.mark.parametrize("operand", [
    pytest.param(lambda: G.GeneralizedFunction(_LINE, {"0": Net.zero(1)}), id="function"),
    pytest.param(lambda: T.GeneralizedTensorField(_LINE, (1, 0), {"0": [Net.zero(1)]}),
                 id="field"),
    pytest.param(lambda: smooth.constant(0.0, 1), id="smooth"),
    pytest.param(lambda: Net.zero(1), id="net"),
    pytest.param(lambda: GeneralizedNumber(np.array([0.5, 0.25]), np.zeros(2)), id="gnumber"),
])
@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_string_operands_raise_type_error(operand, op):
    # np.isscalar holds for a str; "a" is not a number to weight by
    x = operand()
    for args in ((x, "a"), ("a", x)):
        with pytest.raises(TypeError):
            getattr(operator, op)(*args)
