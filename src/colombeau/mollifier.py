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
  radius 100.

* ``gausspoly``: rho(x) = p(x) exp(-x^2) with p an even polynomial of
  degree 2M chosen so moments 1..2M+1 vanish exactly; the moment system
  is a Gram matrix of Gamma values.

Both are a polynomial r_0 times G = exp(-sigma x^2 / 2) (r_0 = p,
sigma = 2 for ``gausspoly``; r_0 = 1, sigma = S^2 for the Gaussian
factor of ``fourier``), and (d/dx)^j (r_0 G) = r_j G with
r_j = r_{j-1}' - sigma x r_{j-1}.  Each r_j is a coefficient array built
once by that recursion.  The sinc's derivatives are Leibniz on
sin(Cx) / x for |x| >= 1/2 and, nearer zero, its degree-60 Taylor
series differentiated by the same recursion with sigma = 0.

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
from numpy.polynomial.polynomial import polyder, polymul, polysub, polyval

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


def _chain(r: list, sigma: float, j: int) -> np.ndarray:
    """r_j in (d/dx)^j (r_0 G) = r_j G for G = exp(-sigma x^2 / 2).

    ``r`` holds the coefficient arrays (low degree first) built so far,
    from r_0 on; it grows by r_j = r_{j-1}' - sigma x r_{j-1}.
    """
    while len(r) <= j:
        r.append(polysub(polyder(r[-1]), polymul([0.0, sigma], r[-1])))
    return r[j]


def _sinc_closed(j: int, x: np.ndarray) -> np.ndarray:
    """j-th derivative of sin(Cx)/(pi x) at nonzero x, by Leibniz on sin(Cx) / x."""
    c = FOURIER_C
    acc = np.zeros_like(x)
    for i in range(j + 1):
        acc = acc + (math.comb(j, i) * c ** i * np.sin(c * x + i * math.pi / 2)
                     * (-1.0) ** (j - i) * math.factorial(j - i) * x ** (-(j - i + 1)))
    return acc / math.pi


class Mollifier:
    """A 1-d mollifier profile with moment certificates.

    ``deriv(k, x)`` evaluates the profile and its analytic derivatives of
    every order; ``embed.embed_rn`` scales it to rho_eps.  Every
    derivative polynomial comes from :func:`_chain` (module docstring).

    Attributes
    ----------
    kind : "fourier" or "gausspoly".
    support_radius_hint : radius beyond which the profile is numerically
        zero (these profiles decay like Gaussians rather than vanishing).
    moment_order : largest K such that moments 1..K are certified below
        the moment tolerance.
    certificates : measured integral error and moments.
    """

    def __init__(self, kind, r0, sigma, support_radius_hint, moment_order):
        self.kind = kind
        self._r = [np.asarray(r0, dtype=float)]
        self._sigma = float(sigma)
        self.support_radius_hint = float(support_radius_hint)
        self.moment_order = int(moment_order)
        self.certificates: dict = {}
        if kind == "fourier":  # Taylor series of the sinc, degree _SERIES_DEG
            series = np.zeros(_SERIES_DEG + 1)
            for m in range(_SERIES_DEG // 2 + 1):
                series[2 * m] = (-1.0) ** m * FOURIER_C ** (2 * m + 1) / (
                    math.factorial(2 * m + 1) * math.pi
                )
            self._series = [series]

    def deriv(self, k: int, x):
        """Vectorized k-th derivative of the profile."""
        # -0.0 -> +0.0, so that odd derivatives keep the sign of their zero
        x = np.asarray(x, dtype=float) + 0.0
        if self.kind == "gausspoly":
            return polyval(x, _chain(self._r, self._sigma, k)) * np.exp(-(x ** 2))
        # fourier: Leibniz over the sinc and the Gaussian factor; the sinc's
        # Taylor series near zero, its closed form elsewhere
        hx = np.exp(-0.5 * (FOURIER_S * x) ** 2)
        small = np.abs(x) < _SERIES_SWITCH
        acc = np.zeros_like(x)
        for j in range(k + 1):
            if not small.any():
                gj = _sinc_closed(j, x)
            else:
                gj = np.empty_like(x)
                gj[small] = polyval(x[small], _chain(self._series, 0.0, j))
                gj[~small] = _sinc_closed(j, x[~small])
            rj = _chain(self._r, self._sigma, k - j)
            acc = acc + math.comb(k, j) * gj * polyval(x, rj) * hx
        return acc

    def energy(self) -> float:
        """Integral of rho^2 over the support radius, by the certificate rule."""
        values, _ = _panelled_moments(lambda x: self.deriv(0, x) ** 2, (0,),
                                      self.support_radius_hint)
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
    a = np.array([[math.gamma(i + j + 0.5) for i in range(m + 1)] for j in range(m + 1)])
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
        mol = Mollifier("fourier", [1.0], FOURIER_S ** 2, FOURIER_RADIUS,
                        FOURIER_MOMENT_ORDER)
    else:
        # exp(-x^2) * poly is below 1e-33 past x ~ 9.5 for small orders
        mol = Mollifier("gausspoly", gausspoly_coefficients(order), 2.0, 9.5,
                        2 * order + 1)
    _certify(mol)
    return mol
