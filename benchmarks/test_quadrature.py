"""pytest-benchmark: ``gfunc.integrate_box`` in 1-d and 2-d, through the one
adaptive cubature of ``quadrature.py``.

    PYTHONPATH=src pytest benchmarks/

Outside the tier-1 suite (``testpaths = ["tests"]``).  The 1-d case is one
eps, 2^-11, of the fourier-embedded delta, a net concentrated at the eps
scale whose seed intervals and refinement levels are what a pairing or a
Stokes interval check pays per eps.  The 2-d case is the whole sweep over
``DEFAULT_GRID`` of the fourier-embedded delta at (0.1, 0.1) on [-1, 1]^2,
each eps continued from the boxes the last one accepted.  Nets are warm
after the first round.
"""

import numpy as np
import pytest

from colombeau.embed import dirac, embed_rn
from colombeau.gfunc import embed_manifold, integrate_box
from colombeau.grid import DEFAULT_GRID
from colombeau.manifolds import euclidean
from colombeau.mollifier import build_mollifier
from colombeau.quadrature import Sweep

EPS = 2.0 ** -11


@pytest.fixture(scope="module")
def delta_at_eps():
    return embed_rn(dirac(), build_mollifier("fourier")).at(EPS)


@pytest.fixture(scope="module")
def delta_2d():
    p = (0.1, 0.1)
    return embed_manifold({"0": dirac(p, dim=2)}, euclidean(2), build_mollifier("fourier")).nets["0"]


def test_adaptive_on_a_concentrated_net(benchmark, delta_at_eps):
    value = benchmark(integrate_box, delta_at_eps, ((-1.0, 1.0),), eps_hint=EPS)
    assert abs(value - 1.0) < 1e-10


def _sweep(net):
    sweep = Sweep()
    return np.array([integrate_box(net.at(float(e)), ((-1.0, 1.0),) * 2, float(e), sweep)
                     for e in DEFAULT_GRID])


def test_continued_sweep_of_a_2d_delta(benchmark, delta_2d):
    values = benchmark(_sweep, delta_2d)
    assert np.all(np.abs(values[2:] - 1.0) < 1e-10), values  # from 2^-6 on
