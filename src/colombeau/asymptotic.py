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
outright with an infinite slope.  Magnitudes within FLOOR_ULPS ulps of
the ``scale`` they were computed from (one per eps, or one for all) are
at the rounding floor (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 2-3) and leave the fit; a series that ends there or
keeps fewer than MIN_SAMPLES is negligible at working precision.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InsufficientSamples, InvalidSample

MIN_SAMPLES = 4
SLOPE_TOLERANCE = 0.25
DEFAULT_M_MAX = 6
DIVERGENCE_ORDER = 20
ZERO_FLOOR = 1e-300
FLOOR_ULPS = 64

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


def _fit(eps, mag, m_max) -> AsymptoticFit:
    clamped = mag < ZERO_FLOOR
    n_clamped = int(clamped.sum())
    if len(mag) < MIN_SAMPLES or n_clamped == len(mag):
        # identically zero, or too few samples above the rounding floor
        return AsymptoticFit(slope=math.inf, intercept=-math.inf, residual=0.0,
                             verdict=NEGLIGIBLE, order=None, m_max=m_max, grid=tuple(eps),
                             magnitudes=tuple(mag), n_clamped=n_clamped,
                             note="all magnitudes at zero floor")
    mag = np.maximum(mag, ZERO_FLOOR)

    x = np.log(eps)
    y = np.log(mag)
    slope, intercept = map(float, np.polyfit(x, y, 1))
    residual = float(np.max(np.abs(y - (slope * x + intercept))))

    note = f"{n_clamped} magnitudes clamped to floor" if n_clamped else ""
    if slope < -(DIVERGENCE_ORDER + SLOPE_TOLERANCE):
        verdict, order = DIVERGENT, None
    elif slope >= m_max - SLOPE_TOLERANCE:
        verdict, order = NEGLIGIBLE, None
    else:
        verdict = MODERATE
        order = math.ceil(max(0.0, -slope - SLOPE_TOLERANCE))
    return AsymptoticFit(slope=slope, intercept=intercept, residual=residual, verdict=verdict,
                         order=order, m_max=m_max, grid=tuple(eps), magnitudes=tuple(mag),
                         n_clamped=n_clamped, note=note)


def estimate_order(samples, m_max: int = DEFAULT_M_MAX, scale=None) -> AsymptoticFit:
    """Fit the asymptotic order of a sampled net.

    ``samples`` is an iterable of (eps, magnitude) with at least four distinct
    eps values in (0, 1]; magnitudes are taken in absolute value.  Those at
    most ``FLOOR_ULPS * finfo.eps * scale`` (``scale`` finite, >= 0, one for all
    samples or one per sample) count in ``n_clamped`` and leave the fit (slope
    +inf when fewer than MIN_SAMPLES stay); then, or with the finest-eps sample
    at the floor, the verdict is "negligible at working precision" (``note``).
    """
    pairs = _validate(samples)
    order = np.argsort([-e for e, _ in pairs], kind="stable")
    eps, mag = np.array([e for e, _ in pairs])[order], np.abs([m for _, m in pairs])[order]
    if scale is None:
        return _fit(eps, mag, m_max)
    scale = np.asarray(scale, dtype=float)
    if scale.shape not in ((), eps.shape) or not np.all((scale >= 0.0) & (scale < math.inf)):
        raise InvalidSample(f"scale must be finite, non-negative, one or one per sample: {scale}")
    floor = mag <= FLOOR_ULPS * np.finfo(float).eps * np.broadcast_to(scale, eps.shape)[order]
    fit = _fit(eps[~floor], mag[~floor], m_max)
    fit.grid, fit.magnitudes = tuple(eps), tuple(mag)
    fit.n_clamped += int(floor.sum())
    if fit.slope == math.inf or floor[-1]:
        fit.verdict, fit.order = NEGLIGIBLE, None
        fit.note = f"negligible at working precision: {fit.n_clamped} magnitudes at the floor"
    return fit
