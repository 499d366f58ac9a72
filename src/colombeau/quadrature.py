"""Quadrature shared by the library, and the one module that maps a rule onto
a domain: ``gauss_legendre(n)`` is the n-point rule on [-1, 1], computed once
per n and returned read-only; ``interval_rule`` and ``panel_rule`` map it onto
an interval and each panel between edges.

``cubature`` is the library's one adaptive integral, h-adaptive over boxes of
any dimension d as in DCUHRE (Berntsen, Espelid and Genz, ACM TOMS 17, 1991).
A box carries the tensor Gauss-Legendre rule, 16 nodes in 1-d and 8 per axis
above, and is accepted when it agrees with the sum of its 2^d children to
1e-14 of the running total (floored at 1); the rest split, a level at a time.
An eps starts on a grid of boxes about 8*eps wide (at least 8 in 1-d), or, in
a ``Sweep`` at most twice finer than its last eps, from the boxes that eps
accepted with each complete set of 2^d siblings merged into its parent, so
points per eps do not grow with the number of eps; 1-d keeps the grid while
it has at most ``UNIFORM_SEEDS_1D`` boxes.  An eps that can do neither within
``POINT_BUDGET`` integrand points first runs 2*eps (and so on while the grid
shrinks) when ``Sweep.at`` gives the integrand there.  An eps that needs more
than the budget is unresolved, and so is every later eps of its sweep: NaN in
a sweep, QuadratureFailure alone.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure

POINT_BUDGET = 1 << 23     # integrand points per eps, seeds and every level
UNIFORM_SEEDS_1D = 32768   # most 1-d grid boxes a sweep's eps starts on


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


def interval_rule(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [lo, hi]."""
    g, w = gauss_legendre(n)
    half = (hi - lo) / 2.0
    return (g + 1.0) * half + lo, w * half


def panel_rule(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule on each panel between ``edges``, flattened panel by panel."""
    g, w = gauss_legendre(n)
    mid = (edges[1:] + edges[:-1])[:, None] / 2
    half = (edges[1:] - edges[:-1])[:, None] / 2
    return (mid + half * g).ravel(), (half * w).ravel()


@dataclass
class Sweep:
    """One integral from eps to eps: its integrand at any eps, if known, the last
    resolved eps and the boxes it accepted, and whether an eps ran out."""

    at: Callable | None = None
    eps: float = math.inf
    boxes: tuple | None = None
    unresolved: bool = False


@functools.cache
def _tensor_rule(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [-1, 1]^d, shape (n^d, d) in C order, and their weights."""
    g, w = gauss_legendre(16 if d == 1 else 8)
    nodes = np.stack(np.meshgrid(*[g] * d, indexing="ij"), axis=-1).reshape(-1, d)
    return nodes, functools.reduce(np.multiply.outer, [w] * d).ravel()


def _estimate(fn, lo, hi):
    """The tensor rule's value on each box (rows of lo, hi)."""
    (m, d), (nodes, w) = lo.shape, _tensor_rule(lo.shape[1])
    half = (hi - lo) / 2.0
    pts = (lo + half)[:, None] + half[:, None] * nodes
    out = (fn._partial_fn((0,) * d, pts.reshape(-1, d)).reshape(m, -1) @ w) * np.prod(half, 1)
    if not np.isfinite(out).all():
        raise QuadratureFailure("adaptive quadrature met a non-finite integrand value")
    return out


def _seeds(box, eps: float) -> int:
    """Boxes per axis of the grid an eps starts on afresh."""
    n = max(1, math.ceil(max(b - a for a, b in box) / (8.0 * eps)))
    return max(8, n) if len(box) == 1 else n


def _start(box, eps: float, sweep: Sweep):
    """The boxes (lo, hi, index) an eps starts from, or None when it cannot
    continue and the first level of its grid exceeds the budget.  A box's index
    on each axis is its heap number in a binary tree whose leaves (at one depth)
    include the grid's boxes: its parent is ``index >> 1``."""
    d, k, n = len(box), 2 ** len(box), _seeds(box, eps)
    if sweep.boxes is not None and 2.0 * eps >= sweep.eps and (d > 1 or n > UNIFORM_SEEDS_1D):
        lo, hi, index = sweep.boxes
        _, group, size = np.unique(index >> 1, axis=0, return_inverse=True, return_counts=True)
        merge = (size[group.ravel()] == k) & (index > 0).all(axis=1)
        child = (index & 1) @ (1 << np.arange(d - 1, -1, -1))  # its place among its siblings
        rows = np.flatnonzero(merge)[np.lexsort((child[merge], group.ravel()[merge]))]
        parents = (lo[rows][::k], hi[rows][k - 1::k], index[rows][::k] >> 1)
        return tuple(np.concatenate([a[~merge], p]) for a, p in zip(sweep.boxes, parents))
    if n ** d * len(_tensor_rule(d)[1]) * (1 + k) > POINT_BUDGET:
        return None
    cells, axis = np.indices((n,) * d).reshape(d, -1).T, np.arange(d)
    edges = np.array([np.linspace(a, b, n + 1) for a, b in box])
    return edges[axis, cells], edges[axis, cells + 1], cells | 1 << (n - 1).bit_length()


def _refine(fn, boxes):
    """The accepted value and boxes, or None when the budget runs out."""
    lo, hi, index = boxes
    d = lo.shape[1]
    k, per_box = 2 ** d, len(_tensor_rule(d)[1])
    bits = (np.arange(k)[:, None] >> np.arange(d - 1, -1, -1)) & 1
    estimates, used = _estimate(fn, lo, hi), len(lo) * per_box
    accepted, kept = 0.0, []
    while len(lo):
        used += k * len(lo) * per_box
        if used > POINT_BUDGET:
            return None
        scale = max(1.0, abs(accepted + float(np.sum(estimates))))
        mid = (lo + hi) / 2.0
        kids = [(np.where(b, mid, lo), np.where(b, hi, mid)) for b in bits]
        parts = [_estimate(fn, a, b) for a, b in kids]
        err = functools.reduce(operator.sub, parts, estimates)
        done = np.abs(err) <= 1e-14 * scale
        refined = (16.0 * functools.reduce(operator.add, parts) - estimates) / 15.0
        accepted += float(np.sum(refined[done]))
        kept.append((lo[done], hi[done], index[done]))
        keep = ~done
        lo, hi = (np.concatenate([kid[j][keep] for kid in kids]) for j in (0, 1))
        estimates = np.concatenate([p[keep] for p in parts])
        # a heap index past 2^62 would wrap: such a box gets 0 and is never merged
        index = np.concatenate([np.where((index[keep] > 0) & (index[keep] < 2 ** 62),
                                         2 * index[keep] + b, 0) for b in bits])
    if not math.isfinite(accepted):
        raise QuadratureFailure("adaptive quadrature returned non-finite value")
    return accepted, tuple(np.concatenate(c) for c in zip(*kept))


def cubature(fn, box, eps: float, sweep: Sweep | None = None) -> float:
    """Integral of a SmoothFn over a box (one (lo, hi) pair per axis) at the
    scale ``eps``, continued from the last eps of ``sweep`` (module docstring)."""
    box, eps = tuple((float(a), float(b)) for a, b in box), float(eps)
    state = Sweep() if sweep is None else sweep
    boxes = None if state.unresolved else _start(box, eps, state)
    if boxes is None and state.at and not state.unresolved \
            and _seeds(box, 2 * eps) < _seeds(box, eps):
        cubature(state.at(2.0 * eps), box, 2.0 * eps, state)
        boxes = None if state.unresolved else _start(box, eps, state)
    result = None if boxes is None else _refine(fn, boxes)
    if result is None:
        state.unresolved, state.boxes = True, None
        if sweep is None:
            raise QuadratureFailure(f"integral over {list(box)} at eps {eps:g} unresolved "
                                    f"within {POINT_BUDGET} points")
        return math.nan
    (value, state.boxes), state.eps = result, eps
    return value
