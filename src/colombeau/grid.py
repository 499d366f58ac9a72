"""Epsilon grids for sampling nets."""

from __future__ import annotations

import numpy as np

DEFAULT_K_MIN = 4
DEFAULT_K_MAX = 14


def dyadic_grid(k_min: int = DEFAULT_K_MIN, k_max: int = DEFAULT_K_MAX) -> np.ndarray:
    """Grid eps_k = 2^-k for k = k_min..k_max, descending in eps."""
    if k_max < k_min:
        raise ValueError(f"empty grid: k_max={k_max} < k_min={k_min}")
    ks = np.arange(int(k_min), int(k_max) + 1)
    return np.ldexp(1.0, -ks)

