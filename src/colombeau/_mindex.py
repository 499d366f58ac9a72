"""Multi-index helpers.

A multi-index is a tuple of non-negative ints, one entry per axis.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator


def index(a) -> int:
    """``a`` as an int by ``operator.index``: a float or a string is a TypeError."""
    try:
        return operator.index(a)
    except TypeError:
        raise TypeError(f"{a!r} is not an integer") from None


def check(alpha, dim: int) -> tuple[int, ...]:
    """Validate and normalize a multi-index for ``dim`` axes."""
    alpha = tuple(map(index, alpha))
    if len(alpha) != dim:
        raise ValueError(f"multi-index {alpha} has {len(alpha)} entries, expected {dim}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index {alpha} has negative entries")
    return alpha


def order(alpha) -> int:
    return sum(alpha)


def up_to(dim: int, max_order: int):
    """All multi-indices on ``dim`` axes with |alpha| <= max_order, graded order."""
    return [c for total in range(max_order + 1)
            for c in itertools.product(range(total + 1), repeat=dim) if sum(c) == total]


def sub_indices(alpha):
    """All beta with beta <= alpha componentwise."""
    return [tuple(c) for c in itertools.product(*(range(a + 1) for a in alpha))]


@functools.lru_cache(maxsize=None)
def leibniz_terms(alpha) -> tuple:
    """The Leibniz rule's (beta, C(alpha, beta), alpha - beta), beta in sub_indices order."""
    return tuple((beta, binom(alpha, beta), sub(alpha, beta)) for beta in sub_indices(alpha))


def binom(alpha, beta) -> int:
    """Product of componentwise binomial coefficients C(alpha_i, beta_i)."""
    return math.prod(math.comb(a, b) for a, b in zip(alpha, beta))


def add(alpha, beta):
    return tuple(a + b for a, b in zip(alpha, beta))


def sub(alpha, beta):
    return tuple(a - b for a, b in zip(alpha, beta))


def unit(dim: int, axis: int):
    return tuple(1 if i == axis else 0 for i in range(dim))
