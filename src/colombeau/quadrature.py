"""Quadrature shared by the library, and the one module that maps a rule onto
a domain: ``gauss_legendre(n)`` is the n-point rule on [-1, 1], computed once
per n and returned read-only; ``interval_rule``, ``box_rule`` and
``panel_rule`` map it onto an interval, the tensor product over a box, and
each panel between edges; ``adaptive``, the library's one adaptive
integral, refines it on a 1-d SmoothFn from the eps scale.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureFailure


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


def box_rule(box, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of ``interval_rule`` over the box's axes: points of shape
    (n**dim, dim) in C order, each weighted by the product of its axis weights."""
    grids, wgts = zip(*(interval_rule(lo, hi, n) for lo, hi in box))
    pts = np.stack([m.ravel() for m in np.meshgrid(*grids, indexing="ij")], axis=1)
    weights = np.prod(np.stack(
        [m.ravel() for m in np.meshgrid(*wgts, indexing="ij")], axis=1), axis=1)
    return pts, weights


def panel_rule(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule on each panel between ``edges``, flattened panel by panel."""
    g, w = gauss_legendre(n)
    mid = (edges[1:] + edges[:-1])[:, None] / 2
    half = (edges[1:] - edges[:-1])[:, None] / 2
    return (mid + half * g).ravel(), (half * w).ravel()


MAX_PAIR_INTERVALS = 20000


def adaptive(fn, lo: float, hi: float, eps_hint: float) -> float:
    """Vectorized adaptive Gauss-Legendre of a 1-d SmoothFn over [lo, hi].

    Seed intervals are about 8*eps wide, so a concentrated net cannot
    fall between the nodes of a coarse first pass; intervals where the
    two-half refinement disagrees are subdivided, whole levels at a time.
    """
    g, w = gauss_legendre(16)
    width = hi - lo
    n_seed = int(np.clip(math.ceil(width / (8.0 * eps_hint)), 8, 32768))
    edges = np.linspace(lo, hi, n_seed + 1)
    los, his = edges[:-1], edges[1:]

    def gl_batch(a, b):
        half = (b - a) / 2.0
        nodes = (a + half)[:, None] + half[:, None] * g[None, :]
        vals = fn._partial_fn((0,), nodes.reshape(-1, 1)).reshape(nodes.shape)
        return (vals @ w) * half

    estimates = gl_batch(los, his)
    accepted = 0.0
    for _ in range(40):
        scale = max(1.0, abs(accepted + float(np.sum(estimates))))
        mid = (los + his) / 2.0
        left = gl_batch(los, mid)
        right = gl_batch(mid, his)
        err = np.abs(estimates - left - right)
        done = err <= 1e-14 * scale
        refined = (16.0 * (left + right) - estimates) / 15.0
        accepted += float(np.sum(refined[done]))
        keep = ~done
        if not keep.any():
            break
        if 2 * int(keep.sum()) > MAX_PAIR_INTERVALS:
            accepted += float(np.sum(refined[keep]))
            break
        los = np.concatenate([los[keep], mid[keep]])
        his = np.concatenate([mid[keep], his[keep]])
        estimates = np.concatenate([left[keep], right[keep]])
    else:
        accepted += float(np.sum(estimates))
    if not np.isfinite(accepted):
        raise QuadratureFailure("adaptive quadrature returned non-finite value")
    return accepted

