"""pytest-benchmark: first derivatives of sympy leaves, by ``smooth._diff`` and by
``sp.diff``.

    PYTHONPATH=src pytest benchmarks/test_leaf_diff.py

Outside the tier-1 suite (``testpaths = ["tests"]``).  The leaves are the
trigonometric polynomials the coherence workload differentiates: the
seeded coherent probes (``tensor.random_coherent_functions``, count 3,
seed 4) on the circle and the 2-torus.  Each round takes every probe's
first derivative along every axis after clearing sympy's cache, so that
both sides pay what the derivatives of a fresh field pay: sympy caches
its ``Add`` and ``Mul`` rules, and a warm round would time the cache.
"""

import pytest
import sympy as sp
from sympy.core.cache import clear_cache

from colombeau import manifolds, smooth, tensor
from colombeau.smooth import from_sympy

_WAYS = {"smooth._diff": lambda e, s: smooth._diff(e, s, 1), "sp.diff": sp.diff}


def _probes(manifold):
    """The (expression, symbols) of the seeded probes on ``manifold``."""
    seen = []

    def recording(expr, symbols, *args, **kwargs):
        seen.append((expr, tuple(symbols)))
        return from_sympy(expr, symbols, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "from_sympy", recording)
        tensor.random_coherent_functions(manifold, count=3, seed=4)
    return seen


@pytest.mark.parametrize("way", sorted(_WAYS))
@pytest.mark.parametrize("name", ["circle", "torus2"])
def test_first_derivatives(benchmark, name, way):
    steps = [(e, s) for e, symbols in _probes(getattr(manifolds, name)()) for s in symbols]
    diff = _WAYS[way]

    def differentiate():
        return [diff(e, s) for e, s in steps]

    def fresh_cache():
        clear_cache()
        return (), {}

    got = benchmark.pedantic(differentiate, setup=fresh_cache, rounds=30)
    assert [sp.srepr(d) for d in got] == [sp.srepr(sp.diff(e, s)) for e, s in steps]
