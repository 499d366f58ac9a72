"""pytest-benchmark: torus coherence checks with leaves on open meshes and on columns.

    PYTHONPATH=src pytest benchmarks/test_leaf_mesh.py

Outside the tier-1 suite (``testpaths = ["tests"]``).  Two checks of the
coherence workload's kinds on the 2-torus, on the workload's grid 4..9:

* ``product``: a scalar ``coherence_check`` of U * V at the default
  61 x 61 points per overlap box;
* ``lie_derivative``: a ``coherence_check_tensor`` of the Lie derivative
  of a one-form along a vector field at 9 x 9 points per box.

Each runs with the mesh, as the library does (each sympy leaf evaluates
on its chart lattice's per-axis arrays, ``gfunc._open_mesh``), and
without it, where this file patches the mesh builder to find none, so
every leaf evaluates on the lattice's flat columns.  Every round clears
sympy's cache and builds its fields afresh from the next seed, untimed:
a check repeated on the same fields runs on warm per-net caches, and the
two sides see the same seeds, so neither reads the other's derivatives.
The set-up ends with a full garbage collection, so that no round pays
for one the set-up's objects would trigger (a gen-2 pass takes about
30 ms here, as long as a check).
"""

import gc
import itertools

import pytest
from sympy.core.cache import clear_cache

from colombeau import gfunc, tensor
from colombeau.grid import dyadic_grid
from colombeau.manifolds import torus2

GRID = dyadic_grid(4, 9)
ROUNDS = 20


def _product(M, seed):
    U, V = tensor.random_coherent_functions(M, count=2, seed=seed)
    return lambda: gfunc.coherence_check(U * V, grid=GRID)


def _lie_derivative(M, seed):
    Xi = tensor.random_tensor_field(M, (1, 0), seed=seed + 50)
    Al = tensor.random_tensor_field(M, (0, 1), seed=seed + 100)
    return lambda: tensor.coherence_check_tensor(
        tensor.gen_lie_derivative(Al, Xi), grid=GRID, n_samples=9)


_CHECKS = {"product": _product, "lie_derivative": _lie_derivative}


@pytest.mark.parametrize("mesh", ["on", "off"])
@pytest.mark.parametrize("kind", sorted(_CHECKS))
def test_torus_check(benchmark, kind, mesh, monkeypatch):
    if mesh == "off":  # no lattice is found separable: flat columns everywhere
        monkeypatch.setattr(gfunc, "_open_mesh", lambda pts, n: None)
    M, seeds = torus2(), itertools.count(7)

    def fresh_fields():
        clear_cache()
        check = _CHECKS[kind](M, next(seeds))
        gc.collect()
        return (check,), {}

    rep = benchmark.pedantic(lambda check: check(), setup=fresh_fields, rounds=ROUNDS)
    assert rep["coherent"]
