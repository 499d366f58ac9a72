"""pytest-benchmark: the kernel evaluator ``Mollifier.deriv``.

    PYTHONPATH=src pytest benchmarks/test_kernel_eval.py

Outside the tier-1 suite (``testpaths = ["tests"]``).  Orders 0..2 of
the fourier and gausspoly:3 kernels, at one point (x = 3.7, the per-call
cost that one-point embedding calls pay) and on 20001 points spanning
|x| <= 10 (both sinc branches for fourier).  The derivative polynomials
are built by a warm-up call, so the rounds time evaluation only.
"""

import numpy as np
import pytest

from colombeau.mollifier import build_mollifier

POINTS = np.linspace(-10.0, 10.0, 20001)


@pytest.fixture(scope="module", params=["fourier", "gausspoly:3"])
def kernel(request):
    return build_mollifier(request.param)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_one_point(benchmark, kernel, k):
    kernel.deriv(k, 3.7)
    value = benchmark(kernel.deriv, k, 3.7)
    assert np.isfinite(value)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_many_points(benchmark, kernel, k):
    kernel.deriv(k, POINTS)
    values = benchmark(kernel.deriv, k, POINTS)
    assert values.shape == POINTS.shape and np.isfinite(values).all()
