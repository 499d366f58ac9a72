"""The shared quadrature module: one cached Gauss-Legendre rule, the rules it
maps onto intervals, boxes and panels, the adaptive rule, one quad wrapper."""

import math

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad as scipy_quad

from colombeau.embed import _kernel_rule
from colombeau.errors import QuadratureFailure
from colombeau.mollifier import build_mollifier, mollifier_spec
from colombeau.quadrature import (adaptive, box_rule, gauss_legendre, interval_rule,
                                  panel_rule, quad)
from colombeau.smooth import from_sympy


@pytest.mark.parametrize("n", [16, 48, 96])
def test_gauss_legendre_is_the_cached_read_only_leggauss_rule(n):
    nodes, weights = gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()
    again = gauss_legendre(n)
    assert again[0] is nodes and again[1] is weights
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights *= 2.0


def test_quad_passes_the_callers_tolerances_through():
    fn = lambda x: np.exp(-x * x) * np.cos(3 * x)
    for tol in (dict(epsabs=1e-13, epsrel=1e-11, limit=200),
                dict(epsabs=1e-12, epsrel=1e-10, limit=400)):
        assert quad(fn, -4.0, 4.0, **tol) == scipy_quad(fn, -4.0, 4.0, **tol)


def test_quad_raises_on_a_non_finite_value():
    with pytest.raises(QuadratureFailure):
        quad(lambda x: np.nan, 0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=50)


# -- the mapped rules, against the inline formulas they replaced ---------------


@pytest.mark.parametrize("radius", [1.0, 0.7, 2.5, 1e-3, 3.0])
def test_interval_rule_is_the_disk_radial_rule(radius):
    g, w = gauss_legendre(64)
    nodes, weights = interval_rule(0.0, radius, 64)
    assert nodes.tobytes() == ((g + 1.0) * radius / 2.0).tobytes()
    assert weights.tobytes() == (w * radius / 2.0).tobytes()


def test_interval_rule_is_the_homotopy_rule():
    g, w = gauss_legendre(32)
    nodes, weights = interval_rule(0.0, 1.0, 32)
    assert nodes.tobytes() == ((g + 1.0) / 2.0).tobytes()
    assert weights.tobytes() == (w / 2.0).tobytes()


def _meshgrid_tensor_rule(box, n):
    nodes, weights = gauss_legendre(n)
    grids, wgts = [], []
    for lo, hi in box:
        half = (hi - lo) / 2.0
        grids.append((nodes + 1.0) * half + lo)
        wgts.append(weights * half)
    mesh = np.stack([g.ravel() for g in np.meshgrid(*grids, indexing="ij")], axis=1)
    wmesh = np.prod(np.stack(
        [g.ravel() for g in np.meshgrid(*wgts, indexing="ij")], axis=1), axis=1)
    return mesh, wmesh


@pytest.mark.parametrize("box", [((-1.0, 1.0), (-0.5, 1.5)),
                                 [(-1.0, 1.0), (0.0, 2.0)],
                                 ((-1.0, 1.0), (-0.5, 1.5), (0.0, 2.0)),
                                 ((0.1, 0.3), (-3.0, 7.0))])
def test_box_rule_is_the_meshgrid_tensor_rule(box):
    pts, weights = box_rule(box, 48)
    ref_pts, ref_weights = _meshgrid_tensor_rule(box, 48)
    assert pts.shape == (48 ** len(box), len(box))
    assert pts.tobytes() == ref_pts.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()


@pytest.mark.parametrize("spec", ["fourier", "gausspoly:2", "gausspoly:3", "gausspoly:5"])
def test_panel_rule_is_the_kernel_rule(spec):
    """``_kernel_rule`` used one scalar half-width for every panel."""
    kind, params = mollifier_spec(spec)
    mol = build_mollifier(kind, **params)
    r = float(mol.support_radius_hint)
    n_panels = max(16, int(math.ceil(r)))
    edges = np.linspace(-r, r, n_panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    centers = (edges[:-1] + edges[1:]) / 2.0
    gl_nodes, gl_weights = gauss_legendre(16)
    ref_nodes = (centers[:, None] + half * gl_nodes[None, :]).ravel()
    ref_kern_w = np.tile(half * gl_weights, n_panels) * mol._evaluator.deriv(0, ref_nodes)
    nodes, kern_w, rule_edges = _kernel_rule(mol)
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert kern_w.tobytes() == ref_kern_w.tobytes()
    assert rule_edges.tobytes() == edges.tobytes()


def test_panel_rule_is_the_certificate_rule():
    """Panels of width 2 on [0, 7], the last one cut short."""
    edges = np.minimum(np.arange(5) * 2.0, 7.0)
    mid = (edges[1:] + edges[:-1])[:, None] / 2
    half = (edges[1:] - edges[:-1])[:, None] / 2
    for n in (48, 96):
        t, wt = gauss_legendre(n)
        nodes, weights = panel_rule(edges, n)
        assert nodes.tobytes() == (mid + half * t).ravel().tobytes()
        assert weights.tobytes() == (half * wt).ravel().tobytes()


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_adaptive_agrees_with_quad_on_a_concentrated_integrand(eps):
    x = sp.Symbol("x")
    bump = sp.exp(-((x - 0.3) / eps) ** 2) * sp.cos(x / eps) / eps
    got = adaptive(from_sympy(bump, [x]), -1.0, 1.0, eps)
    f = sp.lambdify(x, bump, "math")
    want, _ = scipy_quad(f, -1.0, 1.0, points=[0.3], epsabs=1e-14, epsrel=1e-13, limit=400)
    assert abs(got - want) < 1e-12
