"""Mollifier construction with measured moment certificates.

A mollifier is named by one grammar, the one the command line accepts:
``"fourier"`` or ``"gausspoly:M"`` with an integer M >= 1
(:func:`mollifier_spec`).  Two families:

* ``fourier``: rho(x) = sin(Cx)/(pi x) * exp(-S^2 x^2 / 2).  This is the
  inverse transform of a smoothed frequency window (an indicator on
  [-C, C] convolved with a Gaussian of width S), so rho integrates to
  one and its moments of order >= 1 vanish up to the window's flatness
  at zero frequency.  With C = 1.5, S = 0.12 the first eight moments
  measure below 1e-6 and the profile is 1.2e-34 at the truncation
  radius 100.  All derivatives are closed-form.

* ``gausspoly``: rho(x) = p(x) exp(-x^2) with p an even polynomial of
  degree 2M chosen so moments 1..2M+1 vanish exactly; the moment system
  is a Gram matrix of Gamma values.

Certificates (integral error, measured moments) are computed at build
time by one vectorized Gauss-Legendre pass.  The moment integrands are
large and oscillatory with massive cancellation, so [0, radius] is cut
into panels of 2 kernel units and x^k (rho(x) + (-1)^k rho(-x)) is
summed there for every k at once: folding measures symmetry instead of
assuming it.  The profile is evaluated once, on the nodes of an n-point
and a 2n-point rule (n = 48) on every panel.  The 2n-point sum is the
value; |Q_2n - Q_n| is its error estimate, and the roundoff floor is
eps_mach times the sum of |w| |x|^k (|rho(x)| + |rho(-x)|), the size of
the terms before they cancel.  A value whose two sums disagree by more
than ROUNDOFF_MULTIPLE floors, or is not finite, raises
QuadratureFailure instead of being returned: the panels do not resolve
that integrand.  Resolved certificates sit at 55 floors or less, so the
numbers they report are roundoff, not the true moments (for ``fourier``
those are below 1e-18).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

from .errors import MomentSystemSingular, QuadratureFailure
from .quadrature import panel_rule

INTEGRAL_TOL = 1e-8
MOMENT_TOL = 1e-6

FOURIER_C = 1.5
FOURIER_S = 0.12
FOURIER_RADIUS = 100.0
FOURIER_MOMENT_ORDER = 8

# |Q_2n - Q_n| above this many roundoff floors means unresolved panels
ROUNDOFF_MULTIPLE = 1e3
_GL_POINTS = 48

_SERIES_SWITCH = 0.5
_SERIES_DEG = 60


class _FourierProfile:
    """Evaluator for sin(cx)/(pi x) * exp(-s^2 x^2 / 2) and derivatives.

    The sinc factor is differentiated in closed form away from zero and
    through an exact Taylor polynomial near zero; the Gaussian factor
    satisfies h^(j) = r_j(x) h(x) with a simple polynomial recursion.
    """

    def __init__(self, c: float, s: float):
        self.c = float(c)
        self.s = float(s)
        coeffs = np.zeros(_SERIES_DEG + 1)
        for m in range(_SERIES_DEG // 2 + 1):
            coeffs[2 * m] = (-1.0) ** m * self.c ** (2 * m + 1) / (
                math.factorial(2 * m + 1) * math.pi
            )
        self._g_series = {0: Polynomial(coeffs)}
        self._r = {0: Polynomial([1.0])}

    def _g_ser(self, j: int) -> Polynomial:
        p = self._g_series.get(j)
        if p is None:
            p = self._g_ser(j - 1).deriv()
            self._g_series[j] = p
        return p

    def _r_poly(self, j: int) -> Polynomial:
        p = self._r.get(j)
        if p is None:
            q = self._r_poly(j - 1)
            p = q.deriv() - Polynomial([0.0, self.s ** 2]) * q
            self._r[j] = p
        return p

    def _g_closed(self, j: int, x: np.ndarray) -> np.ndarray:
        c = self.c
        acc = np.zeros_like(x)
        for i in range(j + 1):
            term = (
                math.comb(j, i)
                * c ** i
                * np.sin(c * x + i * math.pi / 2)
                * (-1.0) ** (j - i)
                * math.factorial(j - i)
                * x ** (-(j - i + 1))
            )
            acc = acc + term
        return acc / math.pi

    def deriv(self, k: int, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        hx = np.exp(-0.5 * (self.s * x) ** 2)
        small = np.abs(x) < _SERIES_SWITCH
        acc = np.zeros_like(x)
        for j in range(k + 1):
            with np.errstate(all="ignore"):
                gj = np.where(small, self._g_ser(j)(x), self._g_closed(j, x))
            acc = acc + math.comb(k, j) * gj * self._r_poly(k - j)(x) * hx
        return acc


class _GaussPolyProfile:
    """Evaluator for p(x) exp(-x^2) and derivatives via q' - 2x q."""

    def __init__(self, poly_coeffs):
        self._q = {0: Polynomial(np.asarray(poly_coeffs, dtype=float))}

    def _q_poly(self, j: int) -> Polynomial:
        p = self._q.get(j)
        if p is None:
            q = self._q_poly(j - 1)
            p = q.deriv() - Polynomial([0.0, 2.0]) * q
            self._q[j] = p
        return p

    def deriv(self, k: int, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self._q_poly(k)(x) * np.exp(-(x ** 2))


class Mollifier:
    """A 1-d mollifier profile with moment certificates.

    ``deriv(k, x)`` evaluates the profile and its analytic derivatives of
    every order; ``embed.embed_rn`` scales it to rho_eps.

    Attributes
    ----------
    kind : "fourier" or "gausspoly".
    support_radius_hint : radius beyond which the profile is numerically
        zero (these profiles decay like Gaussians rather than vanishing).
    moment_order : largest K such that moments 1..K are certified below
        the moment tolerance.
    certificates : measured integral error and moments.
    """

    def __init__(self, kind, evaluator, support_radius_hint, moment_order):
        self.kind = kind
        self._evaluator = evaluator
        self.support_radius_hint = float(support_radius_hint)
        self.moment_order = int(moment_order)
        self.certificates: dict = {}

    def deriv(self, k: int, x):
        """Vectorized k-th derivative of the profile."""
        return self._evaluator.deriv(k, np.asarray(x, dtype=float))

    def energy(self) -> float:
        """Integral of rho^2 over the support radius, by the certificate rule."""
        values, _ = _panelled_moments(
            lambda x: self.deriv(0, x) ** 2, (0,), self.support_radius_hint
        )
        return float(values[0])


def _panelled_moments(fn, ks, radius: float, panel: float = 2.0):
    """Integrals of x^k fn(x) over [-radius, radius] for every k in ``ks``.

    Folded to [0, radius] as x^k (fn(x) + (-1)^k fn(-x)) and summed over
    panels of width ``panel`` by the n- and 2n-point rules; ``fn`` is
    called once, on every node of both.  Returns ``(values, floors)``,
    the 2n-point sums and their roundoff floors (see the module
    docstring).  Raises QuadratureFailure when a value is not finite or
    the two rules disagree by more than ROUNDOFF_MULTIPLE floors.
    """
    ks = np.asarray(ks)[:, None]
    n_panels = math.ceil(radius / panel)
    edges = np.minimum(np.arange(n_panels + 1) * panel, radius)
    rules = [panel_rule(edges, m) for m in (_GL_POINTS, 2 * _GL_POINTS)]
    x = np.concatenate([t for t, _ in rules])
    w = np.concatenate([wt for _, wt in rules])
    f = fn(np.concatenate([x, -x]))
    f_pos, f_neg = f[:x.size], f[x.size:]
    wx = w * x ** ks
    terms = wx * (f_pos + (-1.0) ** ks * f_neg)
    sizes = np.abs(wx) * (np.abs(f_pos) + np.abs(f_neg))
    split = n_panels * _GL_POINTS  # the n-point nodes come first
    q_n = terms[:, :split].sum(axis=1)
    values = terms[:, split:].sum(axis=1)
    floors = np.finfo(float).eps * sizes[:, split:].sum(axis=1)
    gap = np.abs(values - q_n)
    bad = ~np.isfinite(values) | (gap > ROUNDOFF_MULTIPLE * floors)
    if bad.any():
        k = int(ks[bad, 0][0])
        raise QuadratureFailure(
            f"x^{k} integral over [-{radius}, {radius}] unresolved on panels of "
            f"{panel}: |Q_2n - Q_n| = {gap[bad][0]:.3e}, roundoff floor "
            f"{floors[bad][0]:.3e}"
        )
    return values, floors


def _certify(mol: Mollifier):
    """Measure the integral and moments 1..moment_order; raise on any out of tolerance."""
    n_moments = mol.moment_order
    values, floors = _panelled_moments(
        lambda x: mol.deriv(0, x), range(n_moments + 1), mol.support_radius_hint
    )
    integral = float(values[0])
    moments = {k: float(values[k]) for k in range(1, n_moments + 1)}
    mol.certificates = {
        "integral_error": abs(integral - 1.0),
        "moments": moments,
        "roundoff": {k: float(floors[k]) for k in range(n_moments + 1)},
        "integral_tol": INTEGRAL_TOL,
        "moment_tol": MOMENT_TOL,
    }
    if abs(integral - 1.0) > INTEGRAL_TOL:
        raise QuadratureFailure(
            f"mollifier integral off by {abs(integral - 1.0):.3e} (tol {INTEGRAL_TOL})"
        )
    bad = {k: v for k, v in moments.items() if abs(v) > MOMENT_TOL}
    if bad:
        raise QuadratureFailure(f"moment certificate out of tolerance: {bad}")


def gausspoly_coefficients(order: int) -> np.ndarray:
    """Coefficients of the even polynomial p with vanishing moments.

    Solves the Gram system A c = e_0 with A[j, i] = Gamma(i + j + 1/2),
    which encodes integral of x^(2i) x^(2j) exp(-x^2) over R.  Returns
    dense coefficients (low degree first) with zeros at odd powers.
    """
    m = int(order)
    if m < 0:
        raise ValueError("order must be >= 0")
    a = np.empty((m + 1, m + 1))
    for j in range(m + 1):
        for i in range(m + 1):
            a[j, i] = math.gamma(i + j + 0.5)
    if np.linalg.cond(a) > 1e12:
        raise MomentSystemSingular(
            f"moment system for order {m} has condition number {np.linalg.cond(a):.2e}"
        )
    rhs = np.zeros(m + 1)
    rhs[0] = 1.0
    try:
        c = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise MomentSystemSingular(str(exc)) from exc
    coeffs = np.zeros(2 * m + 1)
    coeffs[::2] = c
    return coeffs


def mollifier_spec(text: str) -> int | None:
    """The gausspoly order M that a mollifier name stands for, None for 'fourier'.

    The names are 'fourier' and 'gausspoly:M' with an integer M >= 1;
    any other text raises ValueError.  Nothing is built.
    """
    if text == "fourier":
        return None
    if isinstance(text, str) and text.startswith("gausspoly:"):
        try:
            order = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed mollifier spec {text!r}")
        if order < 1:
            raise ValueError("gausspoly order must be >= 1")
        return order
    raise ValueError(f"unknown mollifier {text!r}")


def build_mollifier(spec: str = "fourier") -> Mollifier:
    """Build and certify the mollifier named ``spec`` (see :func:`mollifier_spec`).

    "fourier" uses FOURIER_C, FOURIER_S and FOURIER_RADIUS; "gausspoly:M"
    has moments 1..2M+1 certified.  Raises ValueError on any other name,
    MomentSystemSingular or QuadratureFailure on a failed build.
    """
    order = mollifier_spec(spec)
    if order is None:
        mol = Mollifier("fourier", _FourierProfile(FOURIER_C, FOURIER_S), FOURIER_RADIUS,
                        FOURIER_MOMENT_ORDER)
    else:
        # exp(-x^2) * poly is below 1e-33 past x ~ 9.5 for small orders
        mol = Mollifier("gausspoly", _GaussPolyProfile(gausspoly_coefficients(order)), 9.5,
                        2 * order + 1)
    _certify(mol)
    return mol
