"""Distribution embedding: closed-form Dirac parts, convolution pieces,
pullback commutator, smoothing consistency."""

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad

from colombeau.asymptotic import estimate_order
from colombeau import embed, mollifier
from colombeau.embed import (
    DistributionSpec,
    dirac,
    dirac_prime,
    embed_rn,
    heaviside,
    pullback_commutator_demo,
    pullback_spec_affine,
    smooth_piece,
)
from colombeau.errors import UnsupportedDistribution
from colombeau.experiments import ExperimentConfig, run_experiment
from colombeau.gfunc import default_densities
from colombeau.grid import DEFAULT_GRID, dyadic_grid
from colombeau.manifolds import euclidean
from colombeau.mollifier import Mollifier, build_mollifier
from colombeau.nets import Net, box_lattice, classify_net, sup_norm_on_box, sup_norms
from colombeau.smooth import SmoothFn, from_sympy, smoothstep_expr

X = sp.Symbol("x")


@pytest.fixture(scope="module")
def fourier():
    return build_mollifier("fourier")


@pytest.fixture(scope="module")
def delta_net(fourier):
    return embed_rn(dirac(), fourier)


def test_embedded_delta_is_scaled_profile(fourier, delta_net):
    eps = 2.0 ** -5
    xs = np.linspace(-0.5, 0.5, 11)
    want = fourier.deriv(0, xs / eps) / eps
    assert np.allclose(delta_net.at(eps)(xs), want, rtol=0, atol=0)
    # derivative of the embedded net is the scaled derivative, exactly
    want1 = fourier.deriv(1, xs / eps) / eps ** 2
    assert np.array_equal(delta_net.at(eps).partial((1,), xs), want1)


def test_kernel_has_one_evaluator(fourier, monkeypatch):
    """Embedding reaches the kernel through ``Mollifier.deriv`` only.

    The kernel's pieces, the sinc's closed form and every polynomial
    evaluation in ``mollifier``, run only inside a ``deriv`` call.
    """
    depth = [0]
    calls = {"deriv": 0, "_sinc_closed": 0, "polyval": 0}
    outside = []
    inner_deriv = Mollifier.deriv

    def deriv(self, k, x):
        calls["deriv"] += 1
        depth[0] += 1
        try:
            return inner_deriv(self, k, x)
        finally:
            depth[0] -= 1

    def watch(name):
        inner = getattr(mollifier, name)

        def piece(*args):
            calls[name] += 1
            if not depth[0]:
                outside.append(name)
            return inner(*args)

        monkeypatch.setattr(mollifier, name, piece)

    monkeypatch.setattr(Mollifier, "deriv", deriv)
    watch("_sinc_closed")
    watch("polyval")
    xs = np.linspace(-1.0, 1.0, 9)
    for spec in (dirac(), dirac_prime(), heaviside()):
        net = embed_rn(spec, fourier)
        for eps in (2.0 ** -4, 2.0 ** -6):
            for k in range(3):
                net.at(eps).partial((k,), xs)
    assert min(calls.values()) > 0
    assert outside == []


def test_embedded_delta_order_slopes(delta_net):
    fit0 = classify_net(delta_net, (0,), ((-1.0, 1.0),), n_samples="auto")
    assert fit0.slope == pytest.approx(-1.0, abs=0.01)
    assert fit0.verdict == "moderate" and fit0.order == 1
    fit1 = classify_net(delta_net, (1,), ((-1.0, 1.0),), n_samples="auto")
    assert fit1.slope == pytest.approx(-2.0, abs=0.05)
    assert fit1.order == 2


@pytest.mark.parametrize("grid", [dyadic_grid(4, 9), DEFAULT_GRID], ids=["4..9", "default"])
@pytest.mark.parametrize("spec", ["fourier", "gausspoly:3"])
def test_embedded_sine_is_sine_at_working_precision(spec, grid):
    # iota(sin) - sin on (-3, 3) sits at the rounding level of sin itself:
    # without a floor its few-ulp sups fit to "moderate, order 0"
    sin_fn = from_sympy(sp.sin(X), [X])
    box = ((-3.0, 3.0),)
    resid = embed_rn(smooth_piece(sin_fn, -10.0, 10.0), build_mollifier(spec)) \
        - Net.constant_in_eps(sin_fn)
    sups = sup_norms(resid, (0,), box, grid)
    assert estimate_order(zip(grid, sups)).verdict == "moderate"
    fit = estimate_order(zip(grid, sups), scale=sup_norm_on_box(sin_fn, (0,), box, 201))
    assert fit.verdict == "negligible"
    assert fit.note.startswith("negligible at working precision")


def test_embedded_delta_stays_moderate_above_its_floor(delta_net):
    grid = dyadic_grid(4, 9)
    sups = sup_norms(delta_net, (0,), ((-3.0, 3.0),), grid)
    fit = estimate_order(zip(grid, sups), scale=1.0)
    assert fit.n_clamped == 0
    assert fit.verdict == "moderate" and fit.order == 1


# embed-check's decay fits, pinned bit for bit: the line's and the circle
# charts' slopes as float.hex, the line's floor count and the threshold
EMBED_CHECK_PINS = {
    ("fourier", 9): (("0x1.31945304bd199p+3", "0x1.bae125ea0e2a4p+2", "0x1.18696aa5ae2d9p+3"),
                     2, 5.75),
    ("gausspoly:3", 8): (("inf", "inf", "inf"), 4, 3.75),
}


@pytest.mark.parametrize("spec, k_max", sorted(EMBED_CHECK_PINS))
def test_embed_check_fits_are_pinned(spec, k_max):
    slopes, n_floor, threshold = EMBED_CHECK_PINS[spec, k_max]
    report, series = run_experiment(ExperimentConfig("embed-check", mollifier=spec, k_max=k_max))
    line, circle = report["checks"]
    rows = [r.split(",") for r in series["decay_slopes"].split()[1:]]
    assert [float(r[2]).hex() for r in rows] == list(slopes)
    assert float(line["slope"]).hex() == slopes[0]
    assert float(circle["slope"]) == min(float.fromhex(h) for h in slopes[1:])
    assert line["n_floor_samples"] == n_floor
    assert line["threshold"] == circle["threshold"] == threshold
    assert report["pass"]


def test_derivative_entry_sign_conventions(fourier):
    eps = 0.125
    xs = np.linspace(-1, 1, 9)
    # raw entry (beta=1, weight=1) embeds as -(1/eps^2) rho'(x/eps)
    raw = embed_rn(dirac(0.0, beta=(1,), weight=1.0), fourier)
    want = -fourier.deriv(1, xs / eps) / eps ** 2
    assert np.allclose(raw.at(eps)(xs), want, rtol=0, atol=0)
    # the classical delta' flips the sign back
    dp = embed_rn(dirac_prime(), fourier)
    assert np.allclose(dp.at(eps)(xs), -want, rtol=0, atol=0)


def test_dirac_action_and_smooth_multiplication():
    phi = from_sympy(sp.sin(X) + X ** 2, [X])
    assert dirac().action(phi) == pytest.approx(0.0)
    assert dirac(0.5).action(phi) == pytest.approx(np.sin(0.5) + 0.25)
    assert dirac_prime().action(phi) == pytest.approx(-1.0)  # -phi'(0)
    # x * delta' = -delta as functionals
    xfn = from_sympy(X, [X])
    prod = dirac_prime().mul_smooth(xfn)
    for test in (phi, from_sympy(sp.cos(X), [X])):
        assert prod.action(test) == pytest.approx(-dirac().action(test), abs=1e-14)


@pytest.mark.parametrize("spec", [heaviside(), smooth_piece(
    from_sympy(sp.sin(X) * sp.exp(X / 3), [X]), -2.0, 1.5)], ids=["heaviside", "sin-exp"])
def test_regular_piece_action_against_scipy_quad(spec):
    (p,) = spec.regular
    for rho in default_densities(euclidean(1)):
        want, _ = quad(lambda y: p.density(y) * rho.fn(y), p.lo, p.hi,
                       epsabs=1e-13, epsrel=1e-11, limit=200)
        assert spec.action(rho.fn) == pytest.approx(want, abs=1e-13, rel=1e-11), rho.label


def test_regular_piece_against_trapezoid_oracle(fourier):
    dens = from_sympy(sp.exp(-X ** 2), [X])
    net = embed_rn(smooth_piece(dens, -4.0, 4.0), fourier)
    eps = 2.0 ** -4
    f = net.at(eps)
    for x0 in (0.0, 0.4, -1.1):
        lo = max(-4.0, x0 - fourier.support_radius_hint * eps)
        hi = min(4.0, x0 + fourier.support_radius_hint * eps)
        ys = np.linspace(lo, hi, 40001)
        vals = np.exp(-ys ** 2) * fourier.deriv(0, (x0 - ys) / eps) / eps
        oracle = np.trapezoid(vals, ys)
        assert f(x0) == pytest.approx(oracle, rel=1e-9)


def test_embedding_linearity_exact_per_eps(fourier):
    u = dirac(0.3)
    v = dirac(-0.2, beta=(1,), weight=2.0)
    both = DistributionSpec(1)
    both.singular = u.singular + v.singular
    lhs = embed_rn(both, fourier)
    rhs = embed_rn(u, fourier) + embed_rn(v, fourier)
    xs = np.linspace(-1, 1, 33)
    for eps in (0.25, 2.0 ** -6):
        assert np.array_equal(lhs.at(eps)(xs), rhs.at(eps)(xs))


def test_support_localization_of_embedding(fourier, delta_net):
    fit = classify_net(delta_net, (0,), ((2.0, 3.0),), n_samples=51)
    assert fit.verdict == "negligible"


def test_heaviside_embedding_and_derivative(fourier):
    net = embed_rn(heaviside(), fourier)
    eps = 2.0 ** -6
    f = net.at(eps)
    assert f(0.0) == pytest.approx(0.5, abs=1e-8)
    assert f(1.0) == pytest.approx(1.0, abs=1e-9)
    assert f(-1.0) == pytest.approx(0.0, abs=1e-9)
    # d/dx (H * rho_eps) = rho_eps exactly (modulo the far window edge)
    xs = np.array([-0.5, 0.0, 0.7])
    want = fourier.deriv(0, xs / eps) / eps
    got = f.partial((1,), xs)
    assert np.allclose(got, want, rtol=1e-8, atol=1e-10)


_BATCH_EPS = (2.0 ** -3, 2.0 ** -6, 2.0 ** -9)


def _batch_specs():
    return {"heaviside": heaviside(),
            "sin_exp": smooth_piece(from_sympy(sp.sin(3 * X) * sp.exp(X), [X]), -0.7, 0.9)}


def _batch_mollifier(kind):
    return build_mollifier("gausspoly:3" if kind == "gausspoly3" else kind)


@pytest.mark.parametrize("spec", ["heaviside", "sin_exp"])
@pytest.mark.parametrize("kind", ["fourier", "gausspoly3"])
def test_embedded_values_do_not_depend_on_the_batch(kind, spec):
    """A point's value is the same bits alone, in slices of 7 and among 2000
    (alone for every fifth point, which keeps the test to a few seconds)."""
    net = embed_rn(_batch_specs()[spec], _batch_mollifier(kind))
    pts = np.linspace(-1.2, 1.3, 2000).reshape(-1, 1)
    for eps in _BATCH_EPS:
        f = net.at(eps)
        for k in range(3):
            full = f._partial_fn((k,), pts)
            sliced = np.concatenate([f._partial_fn((k,), pts[i:i + 7])
                                     for i in range(0, len(pts), 7)])
            assert sliced.tobytes() == full.tobytes(), (eps, k)
            for i in range(0, len(pts), 5):
                alone = f._partial_fn((k,), pts[i:i + 1])
                assert alone.tobytes() == full[i:i + 1].tobytes(), (eps, k, i)


@pytest.mark.parametrize("kind", ["fourier", "gausspoly3"])
def test_convolution_block_size_moves_no_bit(kind, monkeypatch):
    mol = _batch_mollifier(kind)
    pts = np.linspace(-1.2, 1.3, 2000).reshape(-1, 1)

    def values():
        out = []
        for spec in _batch_specs().values():
            net = embed_rn(spec, mol)
            for eps in _BATCH_EPS:
                out += [net.at(eps)._partial_fn((k,), pts).tobytes() for k in range(3)]
        return out

    runs = []
    for block in (1 << 14, 1 << 18, 1 << 30):
        monkeypatch.setattr(embed, "CONV_BLOCK", block)
        runs.append(values())
    assert runs[0] == runs[1] == runs[2]


def test_convolution_density_calls_stay_within_the_block(fourier):
    seen = []

    def pfn(alpha, pts):
        seen.append(len(pts))
        return np.full(len(pts), 1.0 if alpha == (0,) else 0.0)

    spy = SmoothFn(1, pfn, label="spy")
    f = embed_rn(smooth_piece(spy, -1.0, 1.0), fourier).at(2.0 ** -6)
    f._partial_fn((0,), np.linspace(-2.0, 2.0, 10 ** 4).reshape(-1, 1))
    assert sum(seen) > 10 ** 4 * 1600  # the main sweep and the edge panels both ran
    assert max(seen) <= embed.CONV_BLOCK


def test_unsupported_specs():
    with pytest.raises(UnsupportedDistribution):
        smooth_piece(from_sympy(X, [X]), 0.0, np.inf)
    with pytest.raises(UnsupportedDistribution):
        DistributionSpec(2).piece(from_sympy(X, [X]), 0.0, 1.0)
    with pytest.raises(UnsupportedDistribution):
        dirac((0.0, 0.0), dim=1)
    with pytest.raises(UnsupportedDistribution):
        dirac((0.0,), dim=2)


def test_scalar_dirac_location_repeats_on_every_axis(fourier):
    pts = box_lattice(((-0.3, 0.3), (-0.2, 0.4)), 7)
    default = embed_rn(dirac(dim=2), fourier)
    explicit = embed_rn(dirac((0.0, 0.0), dim=2), fourier)
    for e in (2.0 ** -2, 2.0 ** -5):
        for alpha in ((0, 0), (1, 0)):
            assert np.array_equal(default.at(e).partial(alpha, pts),
                                  explicit.at(e).partial(alpha, pts))


def test_pullback_commutator_identity_map_is_zero(fourier):
    net, report = pullback_commutator_demo(1.0, 0.0, dirac(), fourier)
    assert report["identity_map"]
    assert report["order_fit"]["verdict"] == "negligible"
    assert report["order_fit"]["slope"] == np.inf
    xs = np.linspace(-1, 1, 21)
    assert np.max(np.abs(net.at(0.125)(xs))) == 0.0


@pytest.mark.parametrize("a, b", [(2.0, 0.5), (-0.5, 0.25)])
def test_pullback_of_a_regular_piece_acts_through_the_inverse_map(a, b):
    # <mu^* u, phi> = <u, phi o mu^-1> / |a| for mu(x) = a x + b; a < 0 swaps the bounds
    u = smooth_piece(from_sympy(sp.exp(X) * (1 + X ** 2), [X]), -0.5, 1.0)
    phi = from_sympy(sp.cos(X) + X ** 3, [X])
    pulled = pullback_spec_affine(u, a, b)
    (piece,) = pulled.regular
    assert piece.lo < piece.hi and not pulled.singular
    want = u.action(phi.scale_shift(1.0 / a, -b / a)) / abs(a)
    assert pulled.action(phi) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_pullback_commutator_doubling_map(fourier):
    # iota(mu^* delta) - mu^* iota(delta) = rho_eps(x)/2 - rho_eps(2x):
    # a nonzero moderate net of order one
    spec = pullback_spec_affine(dirac(), 2.0)
    assert spec.singular[0].weight == pytest.approx(0.5)
    net, report = pullback_commutator_demo(2.0, 0.0, dirac(), fourier)
    fit = report["order_fit"]
    assert fit["verdict"] == "moderate" and fit["order"] == 1
    assert fit["slope"] == pytest.approx(-1.0, abs=0.02)
    # yet all pairings against test densities go to zero, far below the
    # association tolerance of 1e-3
    dens = from_sympy(sp.exp(-X ** 2) * (1 + X), [X])
    vals = [abs(quad(lambda y: net.at(eps)(y) * dens(y), -4.0, 4.0,
                     epsabs=1e-13, epsrel=1e-11, limit=200)[0])
            for eps in (2.0 ** -4, 2.0 ** -6, 2.0 ** -8)]
    assert all(v < 1e-6 for v in vals)
    assert vals[-1] < 1e-10


def _window_expr(flat, outer):
    w = outer - flat
    return smoothstep_expr((X + outer) / w) * smoothstep_expr((outer - X) / w)


@pytest.mark.slow
def test_smoothing_consistency_fourier(fourier):
    # windowed sine agrees with sin on [-1, 1]; the embedding residual
    # decays faster than any power readable on this grid
    wind = from_sympy(sp.sin(X) * _window_expr(1.2, 2.0), [X])
    target = Net.constant_in_eps(from_sympy(sp.sin(X), [X]))
    resid = embed_rn(smooth_piece(wind, -2.0, 2.0), fourier) - target
    samples = []
    for k in range(4, 9):
        eps = 2.0 ** -k
        samples.append((eps, sup_norm_on_box(resid.at(eps), (0,), ((-1.0, 1.0),), 21)))
    fit = estimate_order(samples)
    assert fit.slope >= 6.0
    assert fit.verdict == "negligible"


@pytest.mark.slow
def test_smoothing_consistency_gausspoly():
    mol = build_mollifier("gausspoly:2")
    wind = from_sympy(sp.sin(X) * _window_expr(1.2, 2.0), [X])
    target = Net.constant_in_eps(from_sympy(sp.sin(X), [X]))
    resid = embed_rn(smooth_piece(wind, -2.0, 2.0), mol) - target
    samples = []
    for k in range(4, 8):
        eps = 2.0 ** -k
        samples.append((eps, sup_norm_on_box(resid.at(eps), (0,), ((-1.0, 1.0),), 21)))
    fit = estimate_order(samples)
    # order 2 cancels moments through 5: residual ~ eps^6 >> M+1 = 3
    assert fit.slope >= 2.75
    assert fit.slope == pytest.approx(6.0, abs=1.0)
