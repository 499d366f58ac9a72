"""The shared quadrature module: one cached Gauss-Legendre rule, the rules it
maps onto intervals and panels, and the adaptive cubature, with
``scipy.integrate.quad`` and the 1-d adaptive rule it replaced as its
references, and its point budget from eps to eps in 1, 2 and 3 dimensions."""

import math

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad as scipy_quad

from colombeau.embed import DistributionSpec, _kernel_rule, dirac, embed_rn, heaviside
from colombeau.errors import QuadratureFailure
from colombeau.gfunc import (GeneralizedFunction, default_densities, embed_manifold, integrate,
                             integrate_box)
from colombeau.grid import DEFAULT_GRID, dyadic_grid
from colombeau.manifolds import euclidean
from colombeau.mechanics import StrictDeltaNet
from colombeau.mollifier import build_mollifier
from colombeau.quadrature import (POINT_BUDGET, Sweep, cubature, gauss_legendre, interval_rule,
                                  panel_rule)
from colombeau.smooth import SmoothFn, from_sympy


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


def test_adaptive_raises_on_a_non_finite_value():
    nan = SmoothFn(1, lambda alpha, pts: np.full(len(pts), np.nan))
    with pytest.raises(QuadratureFailure):
        cubature(nan, ((0.0, 1.0),), 1.0)
    with pytest.raises(QuadratureFailure):
        cubature(nan, ((0.0, 1.0),), 1.0, Sweep())


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


@pytest.mark.parametrize("spec", ["fourier", "gausspoly:2", "gausspoly:3", "gausspoly:5"])
def test_panel_rule_is_the_kernel_rule(spec):
    """``_kernel_rule`` used one scalar half-width for every panel."""
    mol = build_mollifier(spec)
    r = float(mol.support_radius_hint)
    n_panels = max(16, int(math.ceil(r)))
    edges = np.linspace(-r, r, n_panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    centers = (edges[:-1] + edges[1:]) / 2.0
    gl_nodes, gl_weights = gauss_legendre(16)
    ref_nodes = (centers[:, None] + half * gl_nodes[None, :]).ravel()
    ref_kern_w = np.tile(half * gl_weights, n_panels) * mol.deriv(0, ref_nodes)
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
    got = cubature(from_sympy(bump, [x]), ((-1.0, 1.0),), eps)
    f = sp.lambdify(x, bump, "math")
    want, _ = scipy_quad(f, -1.0, 1.0, points=[0.3], epsabs=1e-14, epsrel=1e-13, limit=400)
    assert abs(got - want) < 1e-12


# -- the 1-d rule it replaced, frozen as the reference --------------------------


def _adaptive_reference(fn, lo, hi, eps_hint):
    """The library's 1-d adaptive Gauss-Legendre before ``cubature``, verbatim."""
    g, w = gauss_legendre(16)
    width = hi - lo
    n_seed = int(np.clip(math.ceil(width / (8.0 * eps_hint)), 8, 32768))
    edges = np.linspace(lo, hi, n_seed + 1)
    los, his = edges[:-1], edges[1:]

    def gl_batch(a, b):
        half = (b - a) / 2.0
        nodes = (a + half)[:, None] + half[:, None] * g[None, :]
        vals = fn._partial_fn((0,), nodes.reshape(-1, 1)).reshape(nodes.shape)
        return (vals @ w) * half

    estimates = gl_batch(los, his)
    accepted = 0.0
    for _ in range(40):
        scale = max(1.0, abs(accepted + float(np.sum(estimates))))
        mid = (los + his) / 2.0
        left = gl_batch(los, mid)
        right = gl_batch(mid, his)
        err = np.abs(estimates - left - right)
        done = err <= 1e-14 * scale
        refined = (16.0 * (left + right) - estimates) / 15.0
        accepted += float(np.sum(refined[done]))
        keep = ~done
        if not keep.any():
            break
        if 2 * int(keep.sum()) > 20000:
            accepted += float(np.sum(refined[keep]))
            break
        los = np.concatenate([los[keep], mid[keep]])
        his = np.concatenate([mid[keep], his[keep]])
        estimates = np.concatenate([left[keep], right[keep]])
    else:
        accepted += float(np.sum(estimates))
    return accepted


def _catalog_integrand(name):
    """eps -> one 1-d integrand of the kind each catalog caller integrates."""
    fourier = build_mollifier("fourier")
    delta = embed_rn(dirac(), fourier)
    x = sp.Symbol("x")
    bump_sin = default_densities(euclidean(1), seed=0)[0].fn * from_sympy(sp.sin(x), [x])
    return {
        "delta-fourier": delta.at,
        "delta-gausspoly3": embed_rn(dirac(), build_mollifier("gausspoly:3")).at,
        "heaviside-prime": embed_rn(heaviside(), fourier).partial((1,)).at,
        "eps-delta-squared": (delta * delta).scale_by_eps(1.0).at,
        "bump-sin": lambda eps: bump_sin,
    }[name]


# the deltas reach 2^-17, the 32768-seed edge; the others stop short of it for
# time, iota(H)' (convolved at every point, about 100 times the delta's cost) first
@pytest.mark.parametrize("name, k_max", [("delta-fourier", 17), ("delta-gausspoly3", 17),
                                         ("heaviside-prime", 10), ("eps-delta-squared", 15),
                                         ("bump-sin", 15)])
def test_cubature_is_the_replaced_1d_rule_bit_for_bit(name, k_max):
    """Up to 32768 seeds (2^-17 on [-1, 1]) each 1-d eps of a sweep starts on the
    replaced rule's uniform seeds and refines as it did."""
    at = _catalog_integrand(name)
    sweep = Sweep()
    for k in range(4, k_max + 1):
        eps = 2.0 ** -k
        want = np.array([_adaptive_reference(at(eps), -1.0, 1.0, eps)])
        got = np.array([cubature(at(eps), ((-1.0, 1.0),), eps, sweep)])
        assert got.view(np.int64) == want.view(np.int64), (k, got, want)


# -- the point budget -----------------------------------------------------------


def test_a_single_call_past_the_budget_raises_naming_its_interval():
    """At 2^-30 the 8*eps seeds of [-1, 1] alone exceed the budget; the replaced
    rule clipped them and returned 2.3e-95."""
    eps = 2.0 ** -30
    delta = embed_rn(dirac(), build_mollifier("fourier")).at(eps)
    with pytest.raises(QuadratureFailure, match=r"\[\(-1\.0, 1\.0\)\].*unresolved"):
        cubature(delta, ((-1.0, 1.0),), eps)


def test_single_eps_callers_raise_when_unresolved():
    """The action of a regular piece and a strict delta net's mass are one-eps
    integrals: an integrand no budget resolves raises and names the interval."""
    chirp = SmoothFn(1, lambda alpha, pts: np.sin(1e7 * pts[:, 0] ** 2))
    spec = DistributionSpec(1).piece(chirp, 0.0, 1.0)
    with pytest.raises(QuadratureFailure, match=r"\[\(0\.0, 1\.0\)\].*unresolved"):
        spec.action(from_sympy(sp.Integer(1), [sp.Symbol("x")]))
    # a support of half-width 1e6 at eps 1: 250000 seeds, past the budget unevaluated
    with pytest.raises(QuadratureFailure, match=r"\[\(-1000000\.0, 1000000\.0\)\].*unresolved"):
        StrictDeltaNet(chirp, radius=1e6).mass(1.0)


def _resolved_prefix(values):
    """How many eps of a sweep are resolved; every later one must be unresolved."""
    resolved = ~np.isnan(values)
    end = len(values) if resolved.all() else int(np.argmin(resolved))
    assert not resolved[end:].any(), values
    return end


def test_a_sweep_to_2_pow_minus_30_gives_one_or_unresolved():
    """Past 32768 seeds a 1-d sweep continues from the last eps's boxes."""
    U = GeneralizedFunction(euclidean(1), {"0": embed_rn(dirac(), build_mollifier("fourier"))})
    values = integrate(U, box=((-1.0, 1.0),), grid=dyadic_grid(4, 30)).values
    end = _resolved_prefix(values)
    # the kernel's tails reach past [-1, 1] at 2^-4 and 2^-5
    assert np.all(np.abs(values[2:end] - 1.0) < 1e-10), values


def test_a_sweep_across_a_gap_in_eps_starts_from_its_coarsest_fitting_eps():
    """The boxes of 2^-4 are no start for 2^-30, and its 8*eps grid exceeds the
    budget: knowing the integrand at every eps, the sweep runs 2^-19 (the
    coarsest eps whose grid fits), halves down and reads 1; not knowing it,
    2^-30 is unresolved."""
    delta = embed_rn(dirac(), build_mollifier("gausspoly:2"))
    for sweep in (Sweep(), Sweep(delta.at)):
        assert abs(cubature(delta.at(2.0 ** -4), ((-1.0, 1.0),), 2.0 ** -4, sweep) - 1.0) < 1e-10
        value = cubature(delta.at(2.0 ** -30), ((-1.0, 1.0),), 2.0 ** -30, sweep)
        assert sweep.unresolved == (sweep.at is None)
        assert math.isnan(value) if sweep.unresolved else abs(value - 1.0) < 1e-10


def _points_per_eps(net, box, grid):
    """Each eps's integral in one sweep, and the integrand points it evaluated."""
    sweep, values, points = Sweep(), [], []
    for eps in grid:
        f, count = net.at(float(eps)), [0]

        def counted(alpha, pts, f=f, count=count):
            count[0] += len(pts)
            return f._partial_fn(alpha, pts)

        values.append(integrate_box(SmoothFn(f.dim, counted), box, float(eps), sweep))
        points.append(count[0])
    return np.array(values), points


@pytest.mark.parametrize("spec", ["fourier", "gausspoly:2"])
def test_a_2d_delta_integrates_to_one_within_the_budget(spec):
    """The fixed 48^2 rule read 3.21, 13.1, 38.4 and 25.2 at 2^-6..2^-9."""
    p = (0.1, 0.1)
    U = embed_manifold({"0": dirac(p, dim=2)}, euclidean(2), build_mollifier(spec))
    values, points = _points_per_eps(U.nets["0"], ((-1.0, 1.0),) * 2, DEFAULT_GRID)
    assert np.all(np.abs(values[2:] - 1.0) < 1e-10), values
    assert max(points) <= POINT_BUDGET


@pytest.mark.parametrize("spec", ["gausspoly:2", "fourier"])
def test_a_3d_delta_integrates_to_one_or_reports_unresolved(spec):
    """gausspoly:2 fits the budget; fourier needs 8.6M points at 2^-4."""
    grid = dyadic_grid(4, 5)
    U = embed_manifold({"0": dirac((0.1, 0.1, 0.1), dim=3)}, euclidean(3),
                       build_mollifier(spec))
    values, points = _points_per_eps(U.nets["0"], ((-1.0, 1.0),) * 3, grid)
    end = _resolved_prefix(values)
    assert np.all(np.abs(values[:end] - 1.0) < 1e-8), values
    assert max(points) <= POINT_BUDGET
    assert (end == len(grid)) == (spec == "gausspoly:2")
