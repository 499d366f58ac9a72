"""The shared quadrature module: one cached Gauss-Legendre rule, one quad wrapper."""

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from colombeau.errors import QuadratureFailure
from colombeau.quadrature import gauss_legendre, quad


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
