"""pytest-benchmark: the blocked convolution of ``embed._regular_part_fn``.

    PYTHONPATH=src pytest benchmarks/test_embed_conv.py

Outside the tier-1 suite (``testpaths = ["tests"]``).  Two cases
evaluate 2*10^4 points at eps = 2^-9 with the fourier kernel, in
blocks of at most ``embed.CONV_BLOCK`` (point, kernel-node) pairs: the
embedded Heaviside's first derivative and a sympy-leaf ``smooth_piece``
at order 0 (the density evaluated on every pair).  The Heaviside's
density is a constant, whose first derivative is known to vanish
(``SmoothFn.vanishes``), so that case is the kernel jump terms at the
piece's edges, with no sweep.

Two more evaluate 2*10^5 points at eps = 2^-10 with the fourier kernel:
iota(H)' and iota(delta), whose costs per point the two give side by
side.  iota(H)' is rho_eps(x) - rho_eps(x - 10), so it should cost about
what iota(delta) costs, rho_eps(x).
"""

import numpy as np
import pytest
import sympy as sp

from colombeau.embed import dirac, embed_rn, heaviside, smooth_piece
from colombeau.mollifier import build_mollifier
from colombeau.smooth import from_sympy

EPS = 2.0 ** -9
PTS = np.linspace(-1.0, 1.0, 2 * 10 ** 4).reshape(-1, 1)
FINE_EPS = 2.0 ** -10
FINE_PTS = np.linspace(-1.0, 1.0, 2 * 10 ** 5).reshape(-1, 1)


@pytest.fixture(scope="module")
def fourier():
    return build_mollifier("fourier")


def test_heaviside_derivative(benchmark, fourier):
    f = embed_rn(heaviside(), fourier).at(EPS)
    values = benchmark(f._partial_fn, (1,), PTS)
    # d/dx (H * rho_eps) = rho_eps(x), up to the far window edge
    want = fourier.deriv(0, PTS[:, 0] / EPS) / EPS
    assert np.allclose(values, want, rtol=1e-8, atol=1e-9)


def test_smooth_piece_values(benchmark, fourier):
    x = sp.Symbol("x")
    f = embed_rn(smooth_piece(from_sympy(sp.sin(3 * x) * sp.exp(x), [x]), -0.7, 0.9),
                 fourier).at(EPS)
    values = benchmark(f._partial_fn, (0,), PTS)
    inside = np.abs(PTS[:, 0] - 0.1) < 0.7  # far from the piece edges
    want = np.sin(3 * PTS[inside, 0]) * np.exp(PTS[inside, 0])
    assert np.allclose(values[inside], want, atol=1e-9)


@pytest.mark.parametrize("name", ["heaviside-derivative", "dirac"])
def test_fine_eps_per_point(benchmark, fourier, name):
    spec, alpha = (heaviside(), (1,)) if name == "heaviside-derivative" else (dirac(), (0,))
    f = embed_rn(spec, fourier).at(FINE_EPS)
    values = benchmark(f._partial_fn, alpha, FINE_PTS)
    want = fourier.deriv(0, FINE_PTS[:, 0] / FINE_EPS) / FINE_EPS
    assert np.allclose(values, want, rtol=1e-8, atol=1e-9)
