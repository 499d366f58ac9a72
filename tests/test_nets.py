"""Nets and lattice sup-norms."""

import sys
import tracemalloc

import numpy as np
import pytest
import sympy as sp

from colombeau.errors import DerivativeUnavailable, DimensionMismatch
from colombeau.gfunc import GeneralizedFunction, overlap_residual
from colombeau.manifolds import torus2
from colombeau.experiments import ExperimentConfig, run_experiment
from colombeau.nets import (AUTO_LATTICE_CAP, Net, _auto_samples, box_lattice, box_lattices,
                            classify_net, lattice_sup, sup_norm_on_box, sup_norms)
from colombeau.quadrature import POINT_BUDGET
from colombeau.smooth import constant, from_sympy


@pytest.fixture(scope="module")
def gauss2d():
    x, y = sp.symbols("x y")
    return from_sympy(sp.exp(-(x ** 2 + y ** 2)), [x, y])


def test_sup_norm_2d_gaussian_cross_derivative(gauss2d):
    box = ((-2.0, 2.0), (-2.0, 2.0))
    v = sup_norm_on_box(gauss2d, (1, 1), box)
    # frozen 201-per-axis lattice value; true max is 2/e ~ 0.7357588
    assert v == pytest.approx(0.735609753749, abs=1e-9)
    fine = sup_norm_on_box(gauss2d, (1, 1), box, n_samples=2001)
    assert abs(v - fine) < 1e-3


def test_lattice_sup_returns_the_first_point_reaching_the_sup(gauss2d):
    box = ((-2.0, 2.0), (-2.0, 2.0))
    sup, x = lattice_sup(gauss2d, (1, 1), box)
    assert sup == sup_norm_on_box(gauss2d, (1, 1), box)
    vals = np.abs(gauss2d.partial((1, 1), box_lattice(box, 201)))
    first = box_lattice(box, 201)[np.flatnonzero(vals == sup)[0]]
    assert np.array_equal(x, first)
    assert abs(gauss2d.partial((1, 1), x)) == sup
    # a NaN anywhere is the sup, at the first NaN
    t = sp.Symbol("t")
    f = from_sympy(sp.log(t), [t])
    sup, x = lattice_sup(f, (0,), ((-1.0, 1.0),), 5)
    assert np.isnan(sup) and np.isnan(sup_norm_on_box(f, (0,), ((-1.0, 1.0),), 5))
    assert x.tolist() == [-1.0]


def test_sup_norm_validation(gauss2d):
    with pytest.raises(DimensionMismatch):
        sup_norm_on_box(gauss2d, (1, 1), ((-1, 1),))
    f = from_sympy(sp.Symbol("x") ** 2, [sp.Symbol("x")])
    f.max_order = 1
    with pytest.raises(DerivativeUnavailable):
        sup_norm_on_box(f, (2,), ((-1, 1),))


def test_net_algebra_and_scaling():
    x = sp.Symbol("x")
    base = from_sympy(sp.exp(-x ** 2), [x])
    net = Net(1, lambda eps: base.scale_shift(1.0 / eps, 0.0) * (1.0 / eps))
    # peak of (1/eps) exp(-(x/eps)^2) sits at the on-lattice point 0
    fit = classify_net(net, (0,), ((-1.0, 1.0),), n_samples=101)
    assert fit.verdict == "moderate" and fit.order == 1
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    # the derivative peak sits at x ~ eps/sqrt(2): a fixed lattice misses
    # it entirely, the auto lattice resolves it and reads slope -2
    fit1 = classify_net(net, (1,), ((-1.0, 1.0),), n_samples="auto")
    assert fit1.order == 2
    assert fit1.slope == pytest.approx(-2.0, abs=0.01)

    scaled = net.scale_by_eps(1.0)
    fit0 = classify_net(scaled, (0,), ((-1.0, 1.0),), n_samples=101)
    assert abs(fit0.slope) < 1e-9 and fit0.order == 0


def test_net_pointwise_ops_exact():
    x = sp.Symbol("x")
    f = Net.constant_in_eps(from_sympy(sp.sin(x), [x]))
    g = Net(1, lambda eps: constant(eps, 1))
    h = f * g + f - f * g  # equals f up to one rounding in the sum
    for eps in (0.5, 0.125):
        xs = np.linspace(-1, 1, 17)
        assert np.allclose(h.at(eps)(xs), np.sin(xs), rtol=0, atol=1e-15)
    diff = (h - f).at(0.25)
    assert np.max(np.abs(diff(np.linspace(-1, 1, 17)))) < 1e-15


def test_net_partial_shifts_alpha():
    x = sp.Symbol("x")
    net = Net.constant_in_eps(from_sympy(sp.sin(x), [x]))
    dnet = net.partial((1,))
    xs = np.linspace(0, 1, 5)
    assert np.allclose(dnet.at(0.5)(xs), np.cos(xs))
    assert np.allclose(dnet.at(0.5).partial((1,), xs), -np.sin(xs))


def test_net_cache_returns_same_object():
    x = sp.Symbol("x")
    net = Net(1, lambda eps: from_sympy(sp.sin(x) * eps, [x]))
    assert net.at(0.5) is net.at(0.5)
    assert net.at(0.5) is not net.at(0.25)


def test_lattice_point_budget(gauss2d):
    # 10^6 per axis in 2-d is 10^12 points: refused before anything is allocated
    box = ((-1.0, 1.0),) * 2
    with pytest.raises(ValueError, match="budget"):
        box_lattice(box, 10 ** 6)
    with pytest.raises(ValueError, match="budget"):
        sup_norms(Net.constant_in_eps(gauss2d), (0, 0), box, [0.5], n_samples=10 ** 6)
    assert 2896 ** 2 <= POINT_BUDGET < 2897 ** 2  # the first refused request in 2-d
    with pytest.raises(ValueError, match="budget"):
        box_lattice(box, 2897)


def _meshgrid_lattice(box, n):
    """One box's lattice as an explicit meshgrid of per-axis linspaces, stacked."""
    axes = [np.linspace(float(lo), float(hi), n) for lo, hi in box]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


@pytest.mark.parametrize("n", [2, 9, 61])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_boxes", [1, 4])
def test_box_lattices_are_meshgrids_bit_for_bit(n_boxes, dim, n):
    # S boxes built at once are each box's meshgrid, box after box, bit for
    # bit: zero-width axes, subnormal widths and -0.0 bounds among them
    rng = np.random.default_rng(100 * dim + n)
    specials = [(0.7, 0.7), (-1.0, -1.0 + 1e-320), (-3.0, -0.0), (np.pi, -np.e)]
    boxes = [tuple(specials[(s + i) % 4] if rng.random() < 0.3
                   else tuple(sorted(rng.normal(size=2) * 10.0 ** rng.integers(-3, 3)))
                   for i in range(dim)) for s in range(n_boxes)]
    got = box_lattices(boxes, n)
    want = np.concatenate([_meshgrid_lattice(box, n) for box in boxes])
    assert got.shape == want.shape == (n_boxes * n ** dim, dim)
    assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()
    first = box_lattice(boxes[0], n)
    assert first.view(np.int64).tobytes() == _meshgrid_lattice(boxes[0], n).view(np.int64).tobytes()
    assert first.base is None  # a read-only copy of it is a leaf-memo lattice


def test_over_budget_lattices_are_refused_before_allocating():
    t2 = torus2()
    n = 2897  # the first refused request in 2-d: 8.4e6 points, 134 MB per chart
    U = GeneralizedFunction(t2.atlas, {c: constant(1.0, 2) for c in t2.atlas.charts})
    tracemalloc.start()
    try:
        for refuse in (lambda: box_lattice(((-1.0, 1.0),) * 2, n),
                       lambda: box_lattices(t2.atlas.overlap_boxes[("AA", "BB")], n),
                       lambda: overlap_residual(U, [0.5, 0.25], n)):
            tracemalloc.reset_peak()
            with pytest.raises(ValueError, match="budget"):
                refuse()
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_auto_lattice_is_bounded_in_total(dim):
    box = ((-1.0, 1.0),) * dim
    n = _auto_samples(box, 2.0 ** -14)
    assert n % 2 == 1
    assert n ** dim <= AUTO_LATTICE_CAP < (n + 2) ** dim
    if dim == 1:
        assert n == 262145


def test_classify_samples_each_reference_net_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return sup_norm_on_box(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("colombeau") and \
                getattr(mod, "sup_norm_on_box", None) is sup_norm_on_box:
            monkeypatch.setattr(mod, "sup_norm_on_box", counted)
    run_experiment(ExperimentConfig("classify"))
    # six eps: iota(delta) at orders 0 and 1 on the chart box (12), then
    # the fading and the blow-up net once each on (-1, 1) (12)
    assert len(calls) == 24
