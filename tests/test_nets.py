"""Nets and lattice sup-norms."""

import sys

import numpy as np
import pytest
import sympy as sp

from colombeau.errors import DerivativeUnavailable, DimensionMismatch
from colombeau.experiments import ExperimentConfig, run_experiment
from colombeau.nets import (AUTO_LATTICE_CAP, Net, _auto_samples, classify_net,
                            sup_norm_on_box)
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
    # iota(delta), the fading and the blow-up net once each on (-1, 1) (18)
    assert len(calls) == 30
