"""Asymptotic order estimation for scalar nets.

The central primitive: given samples (eps_k, magnitude_k), fit
log magnitude ~ slope * log eps + intercept by least squares and read
off a growth verdict.  A net behaving like eps^p yields slope p:

* slope >= m_max - SLOPE_TOLERANCE                 -> negligible (at level m_max)
* slope < -(DIVERGENCE_ORDER + SLOPE_TOLERANCE)    -> divergent
* otherwise                                        -> moderate of order
  N = ceil(max(0, -slope - SLOPE_TOLERANCE))

Exact zeros are the strongest possible negligibility evidence; zero
magnitudes are clamped to a tiny floor so the fit stays defined, and a
net that vanishes identically on the grid is declared negligible
outright with an infinite slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, InvalidSample

MIN_SAMPLES = 4
SLOPE_TOLERANCE = 0.25
DEFAULT_M_MAX = 6
DIVERGENCE_ORDER = 20
ZERO_FLOOR = 1e-300

NEGLIGIBLE = "negligible"
MODERATE = "moderate"
DIVERGENT = "divergent"


@dataclass
class AsymptoticFit:
    """Result of a log-log order fit.

    ``residual`` is the max absolute deviation of log magnitude from the
    fitted line; large residuals mean the power-law read is unreliable.
    ``order`` is the moderateness order N (0 for bounded nets), None for
    the other verdicts.
    """

    slope: float
    intercept: float
    residual: float
    verdict: str
    order: int | None
    m_max: int
    grid: tuple[float, ...]
    magnitudes: tuple[float, ...]
    n_clamped: int = 0
    note: str = ""

    @property
    def is_negligible(self) -> bool:
        return self.verdict == NEGLIGIBLE

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "verdict": self.verdict,
            "order": self.order,
            "m_max": self.m_max,
            "grid": list(self.grid),
            "magnitudes": list(self.magnitudes),
            "n_clamped": self.n_clamped,
            "note": self.note,
        }


def _validate(samples):
    pairs = [(float(e), float(m)) for e, m in samples]
    if len(pairs) < MIN_SAMPLES:
        raise InsufficientSamples(f"need at least {MIN_SAMPLES} samples, got {len(pairs)}")
    eps = [e for e, _ in pairs]
    if any(not (0.0 < e <= 1.0) for e in eps):
        raise InvalidSample(f"eps values must lie in (0, 1]: {eps}")
    if len(set(eps)) != len(eps):
        raise InvalidSample("duplicate eps values")
    for _, m in pairs:
        if not math.isfinite(m):
            raise InvalidSample(f"non-finite magnitude {m}")
    return pairs


def estimate_order(samples, m_max: int = DEFAULT_M_MAX) -> AsymptoticFit:
    """Fit the asymptotic order of a sampled net.

    ``samples`` is an iterable of (eps, magnitude) with at least four
    distinct eps values in (0, 1].  Magnitudes are taken in absolute
    value.
    """
    pairs = _validate(samples)
    pairs.sort(key=lambda p: -p[0])
    eps = np.array([e for e, _ in pairs])
    mag = np.abs(np.array([m for _, m in pairs]))

    clamped = mag < ZERO_FLOOR
    n_clamped = int(clamped.sum())
    if n_clamped == len(pairs):
        # identically zero on the grid: negligible at every level
        return AsymptoticFit(
            slope=math.inf, intercept=-math.inf, residual=0.0,
            verdict=NEGLIGIBLE, order=None, m_max=m_max,
            grid=tuple(eps), magnitudes=tuple(mag),
            n_clamped=n_clamped, note="all magnitudes at zero floor",
        )
    mag = np.maximum(mag, ZERO_FLOOR)

    x = np.log(eps)
    y = np.log(mag)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(y - (slope * x + intercept))))
    slope = float(slope)
    intercept = float(intercept)

    note = f"{n_clamped} magnitudes clamped to floor" if n_clamped else ""
    if slope < -(DIVERGENCE_ORDER + SLOPE_TOLERANCE):
        verdict, order = DIVERGENT, None
    elif slope >= m_max - SLOPE_TOLERANCE:
        verdict, order = NEGLIGIBLE, None
    else:
        verdict = MODERATE
        order = math.ceil(max(0.0, -slope - SLOPE_TOLERANCE))
    return AsymptoticFit(
        slope=slope, intercept=intercept, residual=residual,
        verdict=verdict, order=order, m_max=m_max,
        grid=tuple(eps), magnitudes=tuple(mag),
        n_clamped=n_clamped, note=note,
    )
