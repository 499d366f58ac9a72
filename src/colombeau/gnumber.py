"""Generalized numbers: nets of reals sampled on an eps grid."""

from __future__ import annotations

import numpy as np

from .asymptotic import DEFAULT_M_MAX, AsymptoticFit, estimate_order
from .errors import DimensionMismatch
from .grid import DEFAULT_GRID


class GeneralizedNumber:
    """A real net sampled on a fixed eps grid.

    Ring operations work pointwise in eps; two numbers are equal when
    their difference is negligible.
    """

    def __init__(self, grid, values, label: str = ""):
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.grid.shape != self.values.shape:
            raise DimensionMismatch("grid and values must have matching shape")
        self.label = label

    @classmethod
    def from_fn(cls, fn, grid=DEFAULT_GRID) -> "GeneralizedNumber":
        grid = np.asarray(grid, dtype=float)
        return cls(grid, [float(fn(float(e))) for e in grid])

    @classmethod
    def const(cls, c: float) -> "GeneralizedNumber":
        return cls(DEFAULT_GRID, np.full_like(DEFAULT_GRID, float(c)))

    def _check_grid(self, other: "GeneralizedNumber"):
        if self.grid.shape != other.grid.shape or not np.array_equal(self.grid, other.grid):
            raise DimensionMismatch("generalized numbers live on different eps grids")

    def __add__(self, other):
        other = self._coerce(other)
        self._check_grid(other)
        return GeneralizedNumber(self.grid, self.values + other.values)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        self._check_grid(other)
        return GeneralizedNumber(self.grid, self.values - other.values)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_grid(other)
        return GeneralizedNumber(self.grid, self.values * other.values)

    __rmul__ = __mul__

    def __neg__(self):
        return GeneralizedNumber(self.grid, -self.values)

    def _coerce(self, other):
        if isinstance(other, GeneralizedNumber):
            return other
        if np.isscalar(other) and not isinstance(other, (str, bytes)):
            return GeneralizedNumber(self.grid, np.full_like(self.grid, float(other)))
        raise TypeError(f"cannot combine generalized number with {other!r}")

    def classify(self, m_max: int = DEFAULT_M_MAX) -> AsymptoticFit:
        return estimate_order(list(zip(self.grid, np.abs(self.values))), m_max=m_max)

    def __repr__(self):
        head = ", ".join(f"{v:.6g}" for v in self.values[:3])
        return f"<GeneralizedNumber [{head}, ...] {self.label}>".replace("  ", " ")


def gn_equal(a: GeneralizedNumber, b: GeneralizedNumber) -> tuple[bool, AsymptoticFit]:
    """Equality in the ring: the difference net is negligible."""
    fit = (a - b).classify()
    return fit.is_negligible, fit
