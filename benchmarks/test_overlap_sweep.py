"""pytest-benchmark: the overlap sweep of two torus coherence checks.

    PYTHONPATH=src pytest benchmarks/test_overlap_sweep.py

Outside the tier-1 suite (``testpaths = ["tests"]``).  Two checks of the
coherence workload's kinds on the 2-torus, on the workload's grid 4..9:

* ``scalar``: a ``coherence_check`` of U * V at the default 61 x 61
  points per overlap box, the rank-0 pullback (the chart-b value itself)
  on two- and four-box transitions built as one lattice each;
* ``two_form``: a ``coherence_check_form`` of the wedge of two one-forms
  at 9 x 9 points per box, four components per chart, each chart-a
  component compared against a stack of four weighted chart-b ones.

Every round clears sympy's cache and builds its fields afresh from the
next seed, untimed, so no round runs on the per-net caches of the one
before; the set-up ends with a full garbage collection, so that no round
pays for one the set-up's objects would trigger.  Run it on two trees to
compare them: the library has no switch between sweeps.
"""

import gc
import itertools

import pytest
from sympy.core.cache import clear_cache

from colombeau import forms, gfunc, tensor
from colombeau.grid import dyadic_grid
from colombeau.manifolds import torus2

GRID = dyadic_grid(4, 9)
ROUNDS = 20


def _scalar(M, seed):
    U, V = tensor.random_coherent_functions(M, count=2, seed=seed)
    return lambda: gfunc.coherence_check(U * V, grid=GRID)


def _two_form(M, seed):
    w = forms.wedge(forms.random_kform(M, 1, seed=seed + 50),
                    forms.random_kform(M, 1, seed=seed + 100))
    return lambda: forms.coherence_check_form(w, grid=GRID, n_samples=9)


_CHECKS = {"scalar": _scalar, "two_form": _two_form}


@pytest.mark.parametrize("kind", sorted(_CHECKS))
def test_torus_check(benchmark, kind):
    M, seeds = torus2(), itertools.count(7)

    def fresh_fields():
        clear_cache()
        check = _CHECKS[kind](M, next(seeds))
        gc.collect()
        return (check,), {}

    rep = benchmark.pedantic(lambda check: check(), setup=fresh_fields, rounds=ROUNDS)
    assert rep["coherent"]
