"""pytest-benchmark: one first-order derivative of a sympy leaf and its compilation,
and the printing alone of a leaf's first-order derivatives.

    PYTHONPATH=src pytest benchmarks/test_leaf_compile.py

Outside the tier-1 suite (``testpaths = ["tests"]``).  The leaves are the
seeded coherent probes (``tensor.random_coherent_functions``, seed 4) on
the circle, the 2-torus and euclidean(3).  Each round builds a fresh
``from_sympy`` leaf from a probe's expression and asks for the callable
of its first derivative along axis 0: one derivative step and one
compilation, nothing evaluated.  sympy's own caches are warm after the
first round, on both sides of a comparison alike.

The print-only case prints each first-order derivative of the same probe
with the printer ``from_sympy`` would pick (``printer.doprint``, nothing
compiled), after clearing sympy's cache at the start of each round, so
that every round pays the term ordering and assumption queries a fresh
derivative pays.
"""

import pytest
import sympy as sp
from sympy.core.cache import clear_cache

from colombeau import manifolds, smooth, tensor
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


def _manifold(name):
    return manifolds.euclidean(3) if name == "euclidean3" else getattr(manifolds, name)()


@pytest.mark.parametrize("name", ["circle", "torus2", "euclidean3"])
def test_first_derivative_and_compile(benchmark, name):
    expr, symbols = _probe(_manifold(name))
    unit = (1,) + (0,) * (len(symbols) - 1)

    def build():
        return from_sympy(expr, symbols)._lambdified(unit)

    fn = benchmark(build)
    want = sp.diff(expr, symbols[0]).subs({x: 0.3 for x in symbols})
    assert float(fn(*[0.3] * len(symbols))) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("name", ["circle", "torus2", "euclidean3"])
def test_print_first_derivatives(benchmark, name):
    expr, symbols = _probe(_manifold(name))
    params = ",".join(map(str, symbols))
    derivatives = [sp.diff(expr, x) for x in symbols]
    printers = [smooth._modules(d) for d in derivatives]

    def print_all():
        return [printer(params).doprint(d) for printer, d in zip(printers, derivatives)]

    def fresh_cache():
        clear_cache()
        return (), {}

    sources = benchmark.pedantic(print_all, setup=fresh_cache, rounds=30)
    for src in sources:
        compile(src, "<leaf>", "eval")
