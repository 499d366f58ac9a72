"""The pointwise ring and module operations of every net-like class.

``SmoothFn``, ``Net``, ``GeneralizedNumber`` and the generalized sections
define only ``_zip(other, op)``: coerce and check ``other``, then apply
``op(own part, other's part)`` part by part, or return ``NotImplemented``
for an operand the class does not take, so Python asks the other operand.
A reflected operator swaps ``op``'s arguments: the left operand stays first.
"""

from __future__ import annotations

import operator

import numpy as np


def is_number(x) -> bool:
    """A Python or numpy scalar that is not text."""
    return np.isscalar(x) and not isinstance(x, (str, bytes))


def rmul(a, b):
    return b * a


class Pointwise:
    def __add__(self, other):
        return self._zip(other, operator.add)

    def __radd__(self, other):
        return self._zip(other, lambda a, b: b + a)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __rsub__(self, other):
        return self._zip(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._zip(other, operator.mul)

    def __rmul__(self, other):
        return self._zip(other, rmul)

    def __neg__(self):
        return self * -1.0
