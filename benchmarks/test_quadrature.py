"""pytest-benchmark: the two paths of ``gfunc.integrate_box``.

    PYTHONPATH=src pytest benchmarks/

Outside the tier-1 suite (``testpaths = ["tests"]``).  The 1-d path is
``quadrature.adaptive`` on the fourier-embedded delta at eps = 2^-11,
a net concentrated at the eps scale whose seed intervals and refinement
levels are what a pairing or a Stokes interval check pays per eps.  The
2-d path is the 48-point tensor rule (``quadrature.box_rule``) of the
Stokes box check on a smooth sympy integrand.  Nets and lambdified
callables are warm after the first round.
"""

import math

import pytest
import sympy as sp

from colombeau.embed import dirac, embed_rn
from colombeau.gfunc import integrate_box
from colombeau.mollifier import build_mollifier
from colombeau.smooth import from_sympy

EPS = 2.0 ** -11


@pytest.fixture(scope="module")
def delta_at_eps():
    return embed_rn(dirac(), build_mollifier("fourier")).at(EPS)


@pytest.fixture(scope="module")
def smooth_2d():
    x0, x1 = sp.symbols("x0 x1")
    return from_sympy(sp.cos(x0) * sp.exp(x1) + x0 ** 2 * x1, [x0, x1])


def test_adaptive_on_a_concentrated_net(benchmark, delta_at_eps):
    value = benchmark(integrate_box, delta_at_eps, ((-1.0, 1.0),), eps_hint=EPS)
    assert abs(value - 1.0) < 1e-10


def test_tensor_rule_on_a_2d_box(benchmark, smooth_2d):
    value = benchmark(integrate_box, smooth_2d, ((-1.0, 1.0), (-0.5, 1.5)), eps_hint=EPS)
    want = 2.0 * math.sin(1.0) * (math.exp(1.5) - math.exp(-0.5)) + 2.0 / 3.0
    assert value == pytest.approx(want, rel=1e-12)
