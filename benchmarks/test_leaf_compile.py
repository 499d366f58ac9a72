"""pytest-benchmark: one first-order derivative of a sympy leaf and its compilation.

    PYTHONPATH=src pytest benchmarks/test_leaf_compile.py

Outside the tier-1 suite (``testpaths = ["tests"]``).  The leaves are the
seeded coherent probes (``tensor.random_coherent_functions``, seed 4) on
the circle, the 2-torus and euclidean(3).  Each round builds a fresh
``from_sympy`` leaf from a probe's expression and asks for the callable
of its first derivative along axis 0: one derivative step and one
compilation, nothing evaluated.  sympy's own caches are warm after the
first round, on both sides of a comparison alike.
"""

import pytest
import sympy as sp

from colombeau import manifolds, tensor
from colombeau.smooth import from_sympy


def _probe(manifold):
    """The (expression, symbols) of the first seeded probe on ``manifold``."""
    seen = []

    def recording(expr, symbols, *args, **kwargs):
        seen.append((expr, tuple(symbols)))
        return from_sympy(expr, symbols, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "from_sympy", recording)
        tensor.random_coherent_functions(manifold, count=1, seed=4)
    return seen[0]


@pytest.mark.parametrize("name", ["circle", "torus2", "euclidean3"])
def test_first_derivative_and_compile(benchmark, name):
    manifold = manifolds.euclidean(3) if name == "euclidean3" else getattr(manifolds, name)()
    expr, symbols = _probe(manifold)
    unit = (1,) + (0,) * (len(symbols) - 1)

    def build():
        return from_sympy(expr, symbols)._lambdified(unit)

    fn = benchmark(build)
    want = sp.diff(expr, symbols[0]).subs({x: 0.3 for x in symbols})
    assert float(fn(*[0.3] * len(symbols))) == pytest.approx(float(want), rel=1e-12)
