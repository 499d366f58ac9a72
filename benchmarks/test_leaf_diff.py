"""pytest-benchmark: derivatives of sympy leaves, by ``smooth._diff`` and by
``sp.diff``.

    PYTHONPATH=src pytest benchmarks/test_leaf_diff.py

Outside the tier-1 suite (``testpaths = ["tests"]``).  Three cases:

* first derivatives of the trigonometric polynomials the coherence
  workload differentiates: the seeded coherent probes
  (``tensor.random_coherent_functions``, count 3, seed 4) on the circle
  and the 2-torus, along every axis;
* pure second derivatives of the cubic polynomials ``poincare``
  differentiates: the probes ``forms.random_kform(euclidean(3, 1.0), 1,
  seed=0)`` builds, along every axis.

* the same second derivatives by ``smooth._diff`` with and without the
  Float-polynomial shortcut (``smooth._all_negative``): without it every
  step takes ``is_zero`` and ``factor_terms(signsimp(.))`` as
  ``Derivative.__new__`` does.

Each round clears sympy's cache first, so that both sides pay what the
derivatives of a fresh field pay: sympy caches its ``Add`` and ``Mul``
rules, and a warm round would time the cache.
"""

import pytest
import sympy as sp
from sympy.core.cache import clear_cache

from colombeau import forms, manifolds, smooth, tensor
from colombeau.smooth import from_sympy

_WAYS = {"smooth._diff": smooth._diff, "sp.diff": sp.diff}


def _probes(build):
    """The (expression, symbols) of the leaves ``tensor`` builds in ``build()``."""
    seen = []

    def recording(expr, symbols, *args, **kwargs):
        seen.append((expr, tuple(symbols)))
        return from_sympy(expr, symbols, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "from_sympy", recording)
        build()
    return seen


def _bench(benchmark, steps, way):
    diff = _WAYS[way]

    def differentiate():
        return [diff(e, s, n) for e, s, n in steps]

    def fresh_cache():
        clear_cache()
        return (), {}

    got = benchmark.pedantic(differentiate, setup=fresh_cache, rounds=30)
    assert [sp.srepr(d) for d in got] == [sp.srepr(sp.diff(e, s, n)) for e, s, n in steps]


@pytest.mark.parametrize("way", sorted(_WAYS))
@pytest.mark.parametrize("name", ["circle", "torus2"])
def test_first_derivatives(benchmark, name, way):
    manifold = getattr(manifolds, name)()
    probes = _probes(lambda: tensor.random_coherent_functions(manifold, count=3, seed=4))
    _bench(benchmark, [(e, s, 1) for e, symbols in probes for s in symbols], way)


@pytest.mark.parametrize("way", sorted(_WAYS))
def test_second_derivatives_poincare(benchmark, way):
    probes = _probes(lambda: forms.random_kform(manifolds.euclidean(3, 1.0), 1, seed=0))
    _bench(benchmark, [(e, s, 2) for e, symbols in probes for s in symbols], way)


@pytest.mark.parametrize("shortcut", ["on", "off"])
def test_second_derivatives_poincare_shortcut(benchmark, shortcut, monkeypatch):
    probes = _probes(lambda: forms.random_kform(manifolds.euclidean(3, 1.0), 1, seed=0))
    if shortcut == "off":  # no expression is in the class: sympy's simplifiers run
        monkeypatch.setattr(smooth, "_all_negative", lambda expr: None)
    _bench(benchmark, [(e, s, 2) for e, symbols in probes for s in symbols], "smooth._diff")
