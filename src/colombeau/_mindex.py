"""Multi-index helpers.

A multi-index is a tuple of non-negative ints, one entry per axis.
"""

from __future__ import annotations

import itertools
import math


def check(alpha, dim: int) -> tuple[int, ...]:
    """Validate and normalize a multi-index for ``dim`` axes."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dim:
        raise ValueError(f"multi-index {alpha} has {len(alpha)} entries, expected {dim}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index {alpha} has negative entries")
    return alpha


def order(alpha) -> int:
    return sum(alpha)


def up_to(dim: int, max_order: int):
    """All multi-indices on ``dim`` axes with |alpha| <= max_order, graded order."""
    out = []
    for total in range(max_order + 1):
        for c in itertools.product(range(total + 1), repeat=dim):
            if sum(c) == total:
                out.append(c)
    return out


def sub_indices(alpha):
    """All beta with beta <= alpha componentwise."""
    return [tuple(c) for c in itertools.product(*(range(a + 1) for a in alpha))]


def binom(alpha, beta) -> int:
    """Product of componentwise binomial coefficients C(alpha_i, beta_i)."""
    out = 1
    for a, b in zip(alpha, beta):
        out *= math.comb(a, b)
    return out


def add(alpha, beta):
    return tuple(a + b for a, b in zip(alpha, beta))


def sub(alpha, beta):
    return tuple(a - b for a, b in zip(alpha, beta))


def unit(dim: int, axis: int):
    return tuple(1 if i == axis else 0 for i in range(dim))
