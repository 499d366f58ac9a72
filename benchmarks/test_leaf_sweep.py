"""pytest-benchmark: the leaf evaluations of one torus overlap sweep.

    PYTHONPATH=src pytest benchmarks/

Outside the tier-1 suite (``testpaths = ["tests"]``).  One round opens
one leaf-memo block on a torus transition's chart-a lattice and its
image, as ``gfunc.overlap_residual`` does, and evaluates the values of
the field_apply net of criterion 10 on both charts at every eps of the
dyadic grid 4..9.  Nets, derivatives and lambdified callables are warm
after the first round; every round evaluates its leaves and their atoms
afresh, because the memo is dropped with its block.
"""

import numpy as np
import pytest

from colombeau import tensor as T
from colombeau.grid import dyadic_grid
from colombeau.manifolds import torus2
from colombeau.nets import box_lattice
from colombeau.smooth import leaf_memo


@pytest.fixture(scope="module")
def sweep():
    t2 = torus2()
    (U,) = T.random_coherent_functions(t2, count=1, seed=3)
    Xi = T.random_tensor_field(t2, (1, 0), seed=50)
    F = T.field_apply(Xi, U)
    # the transition with the most overlap boxes: the largest lattice
    (a, b), tr = max(sorted(t2.atlas.transitions.items()),
                     key=lambda item: len(t2.atlas.overlap_boxes[item[0]]))
    x = np.concatenate([box_lattice(box, 61) for box in t2.atlas.overlap_boxes[(a, b)]])
    y = tr.fn(x).copy()
    x.flags.writeable = y.flags.writeable = False
    na, nb, grid, zero = F.nets[a], F.nets[b], dyadic_grid(4, 9), (0, 0)

    def run():
        with leaf_memo(x, y):
            return [(na.at(e)._partial_fn(zero, x), nb.at(e)._partial_fn(zero, y))
                    for e in grid]

    return run


def test_torus_sweep_leaf_evaluations(benchmark, sweep):
    values = benchmark(sweep)
    assert len(values) == 6 and all(np.all(np.isfinite(v)) for pair in values for v in pair)
