"""pytest-benchmark: one whole torus tensor coherence check through the block sweep.

    PYTHONPATH=src pytest benchmarks/

Outside the tier-1 suite (``testpaths = ["tests"]``).  One round runs
``gfunc.overlap_residual`` on the bracket field of criterion 10 on the
2-torus at ``n_samples=9`` and the dyadic grid 4..9: all twelve
transitions fit in one block of at most ``gfunc.SWEEP_POINTS`` points,
so each chart component is evaluated once per eps on its chart's
lattice.  Nets, derivatives and lambdified callables are warm after the
first round; every round evaluates its leaves and their atoms afresh,
because the leaf memo is dropped with its block.
"""

import pytest

from colombeau import gfunc as G
from colombeau import tensor as T
from colombeau.grid import dyadic_grid
from colombeau.manifolds import torus2


@pytest.fixture(scope="module")
def sweep():
    t2 = torus2()
    F = T.bracket(T.random_tensor_field(t2, (1, 0), seed=50),
                  T.random_tensor_field(t2, (1, 0), seed=75))
    grid = dyadic_grid(4, 9)

    def run():
        return G.overlap_residual(F, grid, 9)

    return run


def test_torus_bracket_coherence_sweep(benchmark, sweep):
    rep = benchmark(sweep)
    assert rep["coherent"] and len(rep["rows"]) == 32
