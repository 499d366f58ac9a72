"""Quadrature shared by the library: ``gauss_legendre(n)``, the n-point rule on
[-1, 1] computed once per n and returned read-only, and ``quad``, the one
adaptive scalar integral, which loads ``scipy.integrate`` on its first call.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .errors import QuadratureFailure


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


def quad(fn, lo, hi, *, epsabs, epsrel, limit) -> tuple[float, float]:
    """``scipy.integrate.quad`` at the caller's tolerances: (value, error estimate)."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(fn, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=limit)
    if not math.isfinite(val):
        raise QuadratureFailure(f"integral over [{lo}, {hi}] returned {val}")
    return val, err
