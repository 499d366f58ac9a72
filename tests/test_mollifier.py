"""Mollifier profiles: frozen values, certificates, scaling laws.

Expected numbers were computed independently with 40-digit mpmath
arithmetic (profile values, high-order derivatives) and an exact
Gamma-matrix solve (gausspoly leading coefficients).
"""

import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.integrate import IntegrationWarning, quad

from colombeau.embed import dirac, embed_rn
from colombeau.errors import MomentSystemSingular, QuadratureFailure
from colombeau.mollifier import (
    FOURIER_C,
    FOURIER_S,
    ROUNDOFF_MULTIPLE,
    _SERIES_DEG,
    _SERIES_SWITCH,
    _panelled_moments,
    build_mollifier,
    gausspoly_coefficients,
    mollifier_spec,
)
from colombeau.nets import classify_net


@pytest.fixture(scope="module")
def fourier():
    return build_mollifier("fourier")


@pytest.fixture(scope="module")
def gp2():
    return build_mollifier("gausspoly:2")


# -- frozen profile values (mpmath, 40 digits) -------------------------

# -- reference evaluators ----------------------------------------------------
# The same kernels through lazily grown caches of ``Polynomial`` objects,
# with both sinc branches evaluated on every point and merged by np.where.


class _FourierReference:
    def __init__(self, c, s):
        self.c, self.s = float(c), float(s)
        coeffs = np.zeros(_SERIES_DEG + 1)
        for m in range(_SERIES_DEG // 2 + 1):
            coeffs[2 * m] = (-1.0) ** m * self.c ** (2 * m + 1) / (
                math.factorial(2 * m + 1) * math.pi)
        self._g_series = {0: Polynomial(coeffs)}
        self._r = {0: Polynomial([1.0])}

    def _g_ser(self, j):
        if j not in self._g_series:
            self._g_series[j] = self._g_ser(j - 1).deriv()
        return self._g_series[j]

    def _r_poly(self, j):
        if j not in self._r:
            q = self._r_poly(j - 1)
            self._r[j] = q.deriv() - Polynomial([0.0, self.s ** 2]) * q
        return self._r[j]

    def _g_closed(self, j, x):
        c = self.c
        acc = np.zeros_like(x)
        for i in range(j + 1):
            acc = acc + (math.comb(j, i) * c ** i * np.sin(c * x + i * math.pi / 2)
                         * (-1.0) ** (j - i) * math.factorial(j - i)
                         * x ** (-(j - i + 1)))
        return acc / math.pi

    def deriv(self, k, x):
        x = np.asarray(x, dtype=float)
        hx = np.exp(-0.5 * (self.s * x) ** 2)
        small = np.abs(x) < _SERIES_SWITCH
        acc = np.zeros_like(x)
        for j in range(k + 1):
            with np.errstate(all="ignore"):
                gj = np.where(small, self._g_ser(j)(x), self._g_closed(j, x))
            acc = acc + math.comb(k, j) * gj * self._r_poly(k - j)(x) * hx
        return acc


class _GaussPolyReference:
    def __init__(self, coeffs):
        self._q = {0: Polynomial(np.asarray(coeffs, dtype=float))}

    def _q_poly(self, j):
        if j not in self._q:
            q = self._q_poly(j - 1)
            self._q[j] = q.deriv() - Polynomial([0.0, 2.0]) * q
        return self._q[j]

    def deriv(self, k, x):
        x = np.asarray(x, dtype=float)
        return self._q_poly(k)(x) * np.exp(-(x ** 2))


def _reference(spec):
    order = mollifier_spec(spec)
    if order is None:
        return _FourierReference(FOURIER_C, FOURIER_S)
    return _GaussPolyReference(gausspoly_coefficients(order))


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


_POINTS = np.concatenate([
    np.linspace(-120.0, 120.0, 10000),
    [0.0, -0.0, 0.5, -0.5, np.nextafter(0.5, 0.0), np.nextafter(-0.5, 0.0)],
])


@pytest.mark.parametrize("spec", ["fourier", "gausspoly:1", "gausspoly:2",
                                  "gausspoly:3", "gausspoly:5"])
def test_deriv_is_bitwise_the_polynomial_evaluators(spec):
    """Every value, signed zeros included, equals the Polynomial-based one."""
    mol, ref = build_mollifier(spec), _reference(spec)
    inputs = [3.7, 0.25, -0.0, 0.0, np.float64(-0.3), np.array(0.2), np.array(-0.0),
              [0.1, -0.0, 4.0, -0.5], _POINTS[4990:5002].reshape(3, 4)]
    for k in range(7):
        assert np.array_equal(_bits(mol.deriv(k, _POINTS)), _bits(ref.deriv(k, _POINTS))), k
        for x in inputs:
            got, want = mol.deriv(k, x), ref.deriv(k, x)
            assert type(got) is type(want) and np.shape(got) == np.shape(want), (k, x)
            assert np.array_equal(_bits(got), _bits(want)), (k, x)


def test_fourier_value_at_one_against_closed_form(fourier):
    # rho(1) = sin(C)/pi * exp(-S^2/2), recomputed at 40 digits
    with mp.workdps(40):
        want = mp.sin(FOURIER_C) / mp.pi * mp.exp(-mp.mpf(FOURIER_S) ** 2 / 2)
    assert fourier.deriv(0, 1.0) == pytest.approx(float(want), rel=1e-14)


def test_fourier_profile_values(fourier):
    p = functools.partial(fourier.deriv, 0)
    assert p(0.0) == pytest.approx(0.47746482927568601, rel=1e-14)
    assert p(1.0) == pytest.approx(0.31523463575021287, rel=1e-14)
    assert p(0.25) == pytest.approx(0.46614285669295942, rel=1e-14)
    assert abs(p(100.0)) == pytest.approx(1.2242734e-34, rel=1e-5)
    # even function, checked on both branches of the evaluator
    xs = np.array([0.1, 0.4, 0.7, 3.0, 11.0])
    assert np.allclose(p(xs), p(-xs), rtol=0, atol=1e-17)


def test_fourier_derivatives_match_mpmath(fourier):
    cases = {
        (1, 0.0): 0.0,
        (1, 0.3): -0.10719406263772455,
        (1, 1.7): -0.29099235194417233,
        (1, 4.0): 0.10823604035111692,
        (2, 0.0): -0.36497411549833438,
        (2, 0.3): -0.34211085743743855,
        (2, 1.7): 0.12200185485364884,
        (2, 4.0): -0.021079654302265446,
        (3, 0.0): 0.0,
        (3, 0.3): 0.15045383811972544,
        (3, 1.7): 0.32490292579795251,
        (5, 0.3): -0.25786460908206493,
        (5, 1.7): -0.47302421708992391,
        (8, 0.0): 1.6944230177547314,
        (8, 0.3): 1.5399112867712354,
        (8, 1.7): -1.2195459171175958,
        (8, 4.0): 1.1292397886850417,
    }
    for (k, x), want in cases.items():
        got = fourier.deriv(k, x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13), (k, x)


def _fourier_moments_exact(n: int) -> list:
    """Moments 0..n of the fourier profile from its transform, at 40 digits.

    The transform of sin(Cx)/(pi x) exp(-S^2 x^2 / 2) is the indicator of
    [-C, C] smoothed by a unit-mass Gaussian of width S, so moment k is
    i^k times the k-th derivative of that window at zero frequency.  The
    tails past the support radius are far below double precision.
    """
    with mp.workdps(40):
        c, s = mp.mpf(FOURIER_C), mp.mpf(FOURIER_S)
        hat = lambda xi: mp.ncdf((c - xi) / s) - mp.ncdf((-c - xi) / s)
        return [float(mp.re(mp.mpc(0, 1) ** k * mp.diff(hat, 0, k))) for k in range(n + 1)]


def test_fourier_certificates(fourier):
    cert = fourier.certificates
    assert cert["integral_error"] < 1e-12
    assert fourier.moment_order == 8
    assert set(cert["moments"]) == set(range(1, 9))
    for k, v in cert["moments"].items():
        assert abs(v) < 1e-6, (k, v)
    # the exact moments are below 1e-18, so what is measured is roundoff,
    # and it must stay within the rule's own roundoff floor of the truth
    exact = _fourier_moments_exact(8)
    assert max(abs(m) for m in exact[1:]) < 1e-18
    assert abs(exact[0] - 1.0) < 1e-30
    assert cert["integral_error"] <= cert["roundoff"][0]
    for k, v in cert["moments"].items():
        assert abs(v - exact[k]) <= cert["roundoff"][k], (k, v, exact[k])


def _quad_moment(fn, k: int, radius: float) -> float:
    """Reference: integral of x^k fn(x) over [-radius, radius], scalar quad per panel.

    Folded to [0, radius] as x^k (fn(x) + (-1)^k fn(-x)) on the same
    panels as the library's rule, each pushed to near machine accuracy.
    """
    sign = (-1.0) ** k

    def integrand(x):
        return x ** k * (fn(np.array([x]))[0] + sign * fn(np.array([-x]))[0])

    edges = np.arange(0.0, radius + 2.0, 2.0)
    edges[-1] = radius
    total = 0.0
    with warnings.catch_warnings():
        # panels are pushed to machine accuracy on purpose; the roundoff
        # warning is the expected stopping condition
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi > lo:
                total += quad(integrand, lo, hi, epsabs=1e-16, epsrel=1e-14, limit=200)[0]
    return total


@pytest.mark.parametrize("spec", ["fourier", "gausspoly:4"])
def test_certificates_agree_with_scalar_quad(spec):
    # gausspoly's polynomial factor loses tens of floors to cancellation,
    # so the bar is the multiple at which the rule itself gives up
    mol = build_mollifier(spec)
    cert = mol.certificates
    bar = {k: ROUNDOFF_MULTIPLE * r for k, r in cert["roundoff"].items()}
    ref = [_quad_moment(lambda x: mol.deriv(0, x), k, mol.support_radius_hint)
           for k in range(mol.moment_order + 1)]
    assert abs(cert["integral_error"] - abs(ref[0] - 1.0)) <= bar[0]
    for k, v in cert["moments"].items():
        assert abs(v - ref[k]) <= bar[k], (k, v, ref[k])


def test_gausspoly_leading_values():
    # frozen exact-solve oracle: rho(0) = p(0), e^0 = 1
    want = {
        0: 0.56418958354775629,
        1: 0.84628437532163443,
        2: 1.057855469152043,
        3: 1.2341647140107169,
    }
    # order 0 is the plain Gaussian, which no mollifier name builds
    assert gausspoly_coefficients(0)[0] == pytest.approx(want[0], rel=1e-12)
    for order in (1, 2, 3):
        mol = build_mollifier(f"gausspoly:{order}")
        assert mol.deriv(0, 0.0) == pytest.approx(want[order], rel=1e-12)


def test_gausspoly_is_gaussian_at_order_zero():
    assert gausspoly_coefficients(0) == pytest.approx([1.0 / math.sqrt(math.pi)], rel=1e-15)
    # exact closed-form second derivative at M = 1:
    # (p e^{-x^2})'' = (p'' - 4x p' + (4x^2 - 2) p) e^{-x^2}
    mol = build_mollifier("gausspoly:1")
    c0, _, c2 = gausspoly_coefficients(1)
    xs = np.linspace(-3, 3, 25)
    p, dp, d2p = c0 + c2 * xs ** 2, 2 * c2 * xs, 2 * c2
    ref = (d2p - 4 * xs * dp + (4 * xs ** 2 - 2) * p) * np.exp(-xs ** 2)
    assert np.allclose(mol.deriv(2, xs), ref, rtol=1e-12, atol=1e-15)


def test_gausspoly_certificates(gp2):
    cert = gp2.certificates
    assert cert["integral_error"] < 1e-12
    assert gp2.moment_order == 5
    for k, v in cert["moments"].items():
        assert abs(v) < 1e-10, (k, v)


def test_gausspoly_singular_system_raises():
    with pytest.raises(MomentSystemSingular):
        gausspoly_coefficients(7)
    with pytest.raises(MomentSystemSingular):
        build_mollifier("gausspoly:8")


def test_build_rejects_unknown():
    # the grammar the command line accepts: no default order, no suffix,
    # no fractional order
    for spec in ("box", "spline:2", "fourier:3", "gausspoly", "gausspoly:",
                 "gausspoly:0", "gausspoly:2.7"):
        with pytest.raises(ValueError):
            mollifier_spec(spec)
        with pytest.raises(ValueError):
            build_mollifier(spec)


def test_mollifier_spec(fourier):
    assert mollifier_spec("fourier") is None and fourier.kind == "fourier"
    assert mollifier_spec("gausspoly:1") == 1
    gp = build_mollifier("gausspoly:1")
    assert gp.kind == "gausspoly" and gp.moment_order == 3


# -- scaled nets: rho_eps is the embedded Dirac ------------------------

def test_scaled_integral_and_peak(fourier):
    net = embed_rn(dirac(), fourier)
    for eps in (2.0 ** -4, 2.0 ** -8, 2.0 ** -14):
        f = net.at(eps)
        # panels of 2 eps are the certificate's 2 kernel units
        values, _ = _panelled_moments(
            f, (0,), fourier.support_radius_hint * eps, panel=2.0 * eps)
        assert abs(values[0] - 1.0) < 1e-8
        assert f(0.0) == pytest.approx(0.47746482927568601 / eps, rel=1e-13)


def test_unresolved_panels_raise(fourier):
    # rho_eps on panels of width 2 instead of 2 eps: one panel holds the
    # whole oscillating kernel, and the n- and 2n-point sums disagree
    eps = 2.0 ** -8
    rho_eps = lambda x: fourier.deriv(0, x / eps) / eps
    with pytest.raises(QuadratureFailure, match="unresolved"):
        _panelled_moments(rho_eps, (0,), 100.0 * eps, panel=2.0)


def test_scaled_lift_2d(fourier):
    eps = 0.125
    f = embed_rn(dirac((0.0, 0.0), dim=2), fourier).at(eps)
    pts = np.array([[0.0, 0.0], [0.3, 0.7]])
    prof = functools.partial(fourier.deriv, 0)
    want0 = prof(0.0) ** 2 / eps ** 2
    want1 = prof(0.3 / eps) * prof(0.7 / eps) / eps ** 2
    assert np.allclose(f(pts), [want0, want1], rtol=1e-13)
    d = f.partial((1, 2), pts[1:])
    want_d = (
        fourier.deriv(1, 0.3 / eps) * fourier.deriv(2, 0.7 / eps) / eps ** (2 + 3)
    )
    assert d[0] == pytest.approx(want_d, rel=1e-12)


def test_scaling_law_slopes(fourier):
    # sup |d^alpha rho_eps| ~ eps^-(1+|alpha|) on a box containing 0
    net = embed_rn(dirac(), fourier)
    box = ((-1.0, 1.0),)
    for k in range(4):
        fit = classify_net(net, (k,), box, n_samples="auto")
        assert fit.slope == pytest.approx(-1.0 - k, abs=0.05), k
        assert fit.verdict == "moderate" and fit.order == 1 + k


def test_support_localization(fourier):
    # away from the concentration point the net dies faster than any power
    net = embed_rn(dirac(), fourier)
    fit = classify_net(net, (0,), ((2.0, 3.0),), n_samples=51)
    assert fit.verdict == "negligible"
