"""Asymptotic order estimation for scalar nets.

The central primitive: given samples (eps_k, magnitude_k), fit
log magnitude ~ slope * log eps + intercept by least squares and read
off a growth verdict.  A net behaving like eps^p yields slope p:

* slope >= m_max - SLOPE_TOLERANCE                 -> negligible (at level m_max)
* slope < -(DIVERGENCE_ORDER + SLOPE_TOLERANCE)    -> divergent
* otherwise                                        -> moderate of order
  N = ceil(max(0, -slope - SLOPE_TOLERANCE))

Doubles cannot show decay below the rounding level of what a magnitude
was computed from (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 2-3), and an exact zero is O(eps^m) for every m without
having a slope.  One rule covers both: a magnitude at most FLOOR_ULPS ulps
of its ``scale`` (one per eps, or one for all; 0 by default, so exactly
the zeros) is at the floor and leaves the fit.  A series whose finest
sample is at the floor is negligible at working precision, with slope
+inf when fewer than MIN_SAMPLES samples stay above it; a series whose
finest sample is above the floor needs MIN_SAMPLES such samples to fit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _mindex
from .errors import InsufficientSamples, InvalidSample

MIN_SAMPLES = 4
SLOPE_TOLERANCE = 0.25
DEFAULT_M_MAX = 6
DIVERGENCE_ORDER = 20
FLOOR_ULPS = 64
_FLOOR_REL = FLOOR_ULPS * float(np.finfo(float).eps)

NEGLIGIBLE = "negligible"
MODERATE = "moderate"
DIVERGENT = "divergent"


@dataclass
class AsymptoticFit:
    """Result of a log-log order fit.

    ``residual`` is the max absolute deviation of log magnitude from the
    fitted line; large residuals mean the power-law read is unreliable.
    ``order`` is the moderateness order N (0 for bounded nets), None for
    the other verdicts.  ``n_clamped`` counts the samples at the floor,
    exact zeros included, which the fit leaves out; ``magnitudes`` keeps
    them all, unclamped.
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
        return {**asdict(self), "grid": list(self.grid), "magnitudes": list(self.magnitudes)}


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


def estimate_order(samples, m_max: int = DEFAULT_M_MAX, scale=0.0) -> AsymptoticFit:
    """Fit the asymptotic order of a sampled net, floor rule as in the module docstring.

    ``samples`` is an iterable of (eps, magnitude) with at least four distinct
    eps values in (0, 1]; magnitudes are taken in absolute value.  ``m_max`` is
    an integer >= 1; ``scale`` is finite and >= 0, one for all samples or one
    per sample.  Samples at the floor count in ``n_clamped``; a verdict the
    floor decides reads "negligible at working precision" in ``note``.
    Fewer than MIN_SAMPLES samples above the floor raise InsufficientSamples
    unless the finest sample is at the floor.
    """
    m_max = _mindex.index(m_max)
    if m_max < 1:
        raise InvalidSample(f"m_max must be at least 1, got {m_max}")
    pairs = _validate(samples)
    eps, mag = np.array([e for e, _ in pairs]), np.abs([m for _, m in pairs])
    scale = np.asarray(scale, dtype=float)
    if scale.shape not in ((), eps.shape) or not 0.0 <= scale.min() <= scale.max() < math.inf:
        raise InvalidSample(f"scale must be finite, >= 0, one or one per sample: {scale}")
    by_eps = np.argsort(-eps, kind="stable")
    eps, mag, floor = eps[by_eps], mag[by_eps], (mag <= _FLOOR_REL * scale)[by_eps]
    n_floor = int(np.count_nonzero(floor))
    if len(mag) - n_floor >= MIN_SAMPLES:
        live = ~floor
        x, y = np.log(eps[live]), np.log(mag[live])
        slope, intercept = map(float, np.polyfit(x, y, 1))
        residual = float(np.max(np.abs(y - (slope * x + intercept))))
    elif floor[-1]:
        slope, intercept, residual = math.inf, -math.inf, 0.0
    else:
        # the finest sample is above the floor, so the floor cannot decide
        raise InsufficientSamples(f"need at least {MIN_SAMPLES} samples above the floor "
                                  f"when the finest is, got {len(mag) - n_floor}")
    note = f"{n_floor} magnitudes at the floor" if n_floor else ""
    order = None
    if floor[-1]:
        verdict, note = NEGLIGIBLE, "negligible at working precision: " + note
    elif slope < -(DIVERGENCE_ORDER + SLOPE_TOLERANCE):
        verdict = DIVERGENT
    elif slope >= m_max - SLOPE_TOLERANCE:
        verdict = NEGLIGIBLE
    else:
        verdict = MODERATE
        order = math.ceil(max(0.0, -slope - SLOPE_TOLERANCE))
    return AsymptoticFit(slope=slope, intercept=intercept, residual=residual, verdict=verdict,
                         order=order, m_max=m_max, grid=tuple(eps), magnitudes=tuple(mag),
                         n_clamped=n_floor, note=note)
