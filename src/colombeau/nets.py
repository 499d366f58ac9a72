"""Nets of smooth functions and sup-norm sampling.

A ``Net`` is a family eps -> SmoothFn on a fixed R^dim.  Algebra is
pointwise in eps.  ``sup_norm_on_box`` realizes the seminorms used by
the order classifier: max of |partial derivative| over a uniform
lattice on a box.
"""

from __future__ import annotations

import math

import numpy as np

from . import _mindex as mi
from .asymptotic import DEFAULT_M_MAX, AsymptoticFit, classify_scalar_net
from .errors import DimensionMismatch
from .smooth import SmoothFn, constant


def box_lattice(box, n_samples: int = 201) -> np.ndarray:
    """Uniform lattice on a product box, shape (n_samples^dim, dim)."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    axes = [np.linspace(lo, hi, n_samples) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def sup_norm_on_box(f: SmoothFn, alpha, box, n_samples: int = 201) -> float:
    """Max of |d^alpha f| over a uniform lattice on ``box``."""
    alpha = mi.check(alpha, f.dim)
    if len(box) != f.dim:
        raise DimensionMismatch(f"box has {len(box)} axes, function has {f.dim}")
    pts = box_lattice(box, n_samples)
    vals = f.partial(alpha, pts)
    return float(np.max(np.abs(vals)))


class Net:
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

    def _check(self, other: "Net"):
        if self.dim != other.dim:
            raise DimensionMismatch("nets on different dimensions")

    def __add__(self, other):
        other = _as_net(other, self.dim)
        self._check(other)
        return Net(self.dim, lambda eps: self.at(eps) + other.at(eps))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_net(other, self.dim)
        self._check(other)
        return Net(self.dim, lambda eps: self.at(eps) - other.at(eps))

    def __rsub__(self, other):
        return _as_net(other, self.dim) - self

    def __mul__(self, other):
        if np.isscalar(other):
            c = float(other)
            return Net(self.dim, lambda eps: self.at(eps) * c)
        other = _as_net(other, self.dim)
        self._check(other)
        return Net(self.dim, lambda eps: self.at(eps) * other.at(eps))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

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
    if np.isscalar(value):
        return Net.constant_in_eps(constant(float(value), dim))
    raise TypeError(f"cannot use {value!r} as a net")


AUTO_LATTICE_CAP = 262145


def _auto_samples(box, eps: float, base: int = 201, cap: int = AUTO_LATTICE_CAP) -> int:
    """Per-axis lattice size resolving features of width eps inside the box.

    Nets that concentrate on an eps-scale (mollifier derivatives, say)
    have sup-norm peaks a fixed 201-point lattice never sees; aim for a
    spacing of eps/8.  The count is odd, so the midpoint of a symmetric
    box stays on the lattice, and at most the largest odd n with
    n**dim <= cap, so the whole lattice stays bounded in any dimension.
    """
    dim = len(box)
    n_max = round(cap ** (1.0 / dim))  # never below the integer root
    while n_max ** dim > cap or n_max % 2 == 0:
        n_max -= 1
    width = max(float(hi) - float(lo) for lo, hi in box)
    n = int(min(n_max, max(base, math.ceil(8.0 * width / eps) + 1)))
    return n | 1


def classify_net(net: Net, alpha, box, grid=None, m_max: int = DEFAULT_M_MAX,
                 n_samples=201) -> AsymptoticFit:
    """Order fit of eps -> sup-norm of d^alpha u_eps over a box.

    ``n_samples`` is a per-axis lattice count, or "auto" to refine the
    lattice with eps (needed when the net concentrates on small scales).
    """

    def sup(eps):
        n = _auto_samples(box, eps) if n_samples == "auto" else int(n_samples)
        return sup_norm_on_box(net.at(eps), alpha, box, n)

    return classify_scalar_net(sup, grid, m_max=m_max)
