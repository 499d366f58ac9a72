"""Nets of smooth functions and sup-norm sampling.

A ``Net`` is a family eps -> SmoothFn on a fixed R^dim.  Algebra is
pointwise in eps.  ``sup_norm_on_box`` realizes the seminorms used by
the order classifier: max of |partial derivative| over a uniform
lattice on a box, which ``lattice_sup`` returns with the point reaching
it; ``sup_norms`` takes it at each eps of a grid.
"""

from __future__ import annotations

import math

import numpy as np

from . import _mindex as mi
from ._algebra import Pointwise, is_number
from .asymptotic import DEFAULT_M_MAX, AsymptoticFit, estimate_order
from .errors import DimensionMismatch
from .grid import DEFAULT_GRID
from .quadrature import POINT_BUDGET
from .smooth import SmoothFn, constant


def box_lattice(box, n_samples: int = 201) -> np.ndarray:
    """Uniform lattice on a product box, shape (n_samples^dim, dim); ValueError,
    before allocating, above ``quadrature.POINT_BUDGET`` points."""
    points = int(n_samples) ** len(box)
    if points > POINT_BUDGET:
        raise ValueError(f"a {n_samples}-per-axis lattice in {len(box)}-d has {points} "
                         f"points, over the budget {POINT_BUDGET}")
    box = [(float(lo), float(hi)) for lo, hi in box]
    axes = [np.linspace(lo, hi, n_samples) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def lattice_sup(f: SmoothFn, alpha, box, n_samples: int = 201) -> tuple[float, np.ndarray]:
    """Max of |d^alpha f| over a uniform lattice on ``box``, and the first
    lattice point that reaches it (the first NaN's, if any is NaN)."""
    alpha = mi.check(alpha, f.dim)
    if len(box) != f.dim:
        raise DimensionMismatch(f"box has {len(box)} axes, function has {f.dim}")
    pts = box_lattice(box, n_samples)
    vals = np.abs(f.partial(alpha, pts))
    k = int(np.argmax(vals))
    return float(vals[k]), pts[k].copy()  # a copy does not keep the lattice alive


def sup_norm_on_box(f: SmoothFn, alpha, box, n_samples: int = 201) -> float:
    """Max of |d^alpha f| over a uniform lattice on ``box`` (see ``lattice_sup``)."""
    return lattice_sup(f, alpha, box, n_samples)[0]


class Net(Pointwise):
    """An eps-parameterized family of smooth functions on R^dim."""

    def __init__(self, dim: int, factory, label: str = ""):
        self.dim = int(dim)
        self._factory = factory
        self._cache: dict[float, SmoothFn] = {}
        self.label = label

    def at(self, eps: float) -> SmoothFn:
        eps = float(eps)
        fn = self._cache.get(eps)
        if fn is None:
            fn = self._factory(eps)
            if fn.dim != self.dim:
                raise DimensionMismatch("factory produced wrong dimension")
            self._cache[eps] = fn
        return fn

    def __call__(self, eps: float) -> SmoothFn:
        return self.at(eps)

    @classmethod
    def constant_in_eps(cls, f: SmoothFn, label: str = "") -> "Net":
        return cls(f.dim, lambda eps: f, label or f"const-net {f.label}")

    @classmethod
    def zero(cls, dim: int) -> "Net":
        return cls.constant_in_eps(constant(0.0, dim), "zero")

    # -- pointwise-in-eps algebra --------------------------------------

    def _zip(self, other, op):
        """``op`` at each eps of the function and a net's, a SmoothFn or a number."""
        if isinstance(other, (Net, SmoothFn)) and other.dim != self.dim:
            raise DimensionMismatch("nets on different dimensions")
        if isinstance(other, Net):
            return Net(self.dim, lambda eps: op(self.at(eps), other.at(eps)))
        if isinstance(other, SmoothFn) or is_number(other):
            return Net(self.dim, lambda eps: op(self.at(eps), other))
        return NotImplemented

    def partial(self, alpha) -> "Net":
        """The net of partial derivatives d^alpha u_eps."""
        alpha = mi.check(alpha, self.dim)
        parent = self

        def factory(eps):
            f = parent.at(eps)

            def pfn(beta, pts):
                return f._partial_fn(mi.add(alpha, beta), pts)

            mo = None if f.max_order is None else f.max_order - mi.order(alpha)
            return SmoothFn(parent.dim, pfn, max_order=mo, uses_fd=f.uses_fd)

        return Net(self.dim, factory, f"d{alpha} {self.label}")

    def scale_by_eps(self, power: float) -> "Net":
        """The net eps^power * u_eps."""
        return Net(self.dim, lambda eps: self.at(eps) * (eps ** power))


def _as_net(value, dim: int) -> Net:
    """A Net as it is; a SmoothFn or a number as a net constant in eps on R^dim."""
    if isinstance(value, Net):
        return value
    if isinstance(value, SmoothFn):
        return Net.constant_in_eps(value)
    if is_number(value):
        return Net.constant_in_eps(constant(float(value), dim))
    raise TypeError(f"cannot use {value!r} as a net")


AUTO_LATTICE_CAP = 262145


def _auto_samples(box, eps: float) -> int:
    """Per-axis lattice size resolving features of width eps inside the box.

    Nets that concentrate on an eps-scale (mollifier derivatives, say)
    have sup-norm peaks a fixed 201-point lattice never sees; aim for a
    spacing of eps/8.  The count is odd, so the midpoint of a symmetric
    box stays on the lattice, and at most the largest odd n with
    n**dim <= AUTO_LATTICE_CAP, so the whole lattice stays bounded in
    any dimension.
    """
    dim = len(box)
    n_max = round(AUTO_LATTICE_CAP ** (1.0 / dim))  # never below the integer root
    while n_max ** dim > AUTO_LATTICE_CAP or n_max % 2 == 0:
        n_max -= 1
    width = max(float(hi) - float(lo) for lo, hi in box)
    n = int(min(n_max, max(201, math.ceil(8.0 * width / eps) + 1)))
    return n | 1


def sup_norms(net: Net, alpha, box, grid, n_samples=201) -> list[float]:
    """Lattice sup of |d^alpha u_eps| over ``box`` at each eps of ``grid``.

    ``n_samples`` is a per-axis lattice count, or "auto" to refine the
    lattice with eps (needed when the net concentrates on small scales).
    """
    return [sup_norm_on_box(net.at(e), alpha, box,
                            _auto_samples(box, e) if n_samples == "auto" else int(n_samples))
            for e in grid]


def classify_net(net: Net, alpha, box, grid=DEFAULT_GRID, m_max: int = DEFAULT_M_MAX,
                 n_samples=201) -> AsymptoticFit:
    """Order fit of eps -> sup-norm of d^alpha u_eps over a box (see ``sup_norms``)."""
    return estimate_order(zip(grid, sup_norms(net, alpha, box, grid, n_samples)),
                          m_max=m_max)
