"""Order estimation: thresholds, clamping, and the power-law invariant."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colombeau.asymptotic import (
    DIVERGENT,
    FLOOR_ULPS,
    MODERATE,
    NEGLIGIBLE,
    estimate_order,
)
from colombeau.errors import InsufficientSamples, InvalidSample
from colombeau.gnumber import GeneralizedNumber
from colombeau.grid import DEFAULT_GRID, dyadic_grid


def test_default_grid_is_dyadic_4_to_14():
    g = dyadic_grid()
    assert len(g) == 11
    assert g[0] == 2.0 ** -4
    assert g[-1] == 2.0 ** -14
    assert np.all(np.diff(g) < 0)


def test_shared_default_grid_is_read_only():
    assert np.array_equal(DEFAULT_GRID, dyadic_grid())
    with pytest.raises(ValueError):
        DEFAULT_GRID[0] = 1.0


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=-6, max_value=6),
    logc=st.floats(min_value=-8.0, max_value=8.0),
)
def test_exact_power_law_recovery(p, logc):
    # for c * eps^p the fitted slope must be p to near machine accuracy
    c = math.exp(logc)
    fit = GeneralizedNumber.from_fn(lambda e: c * e ** p).classify()
    assert abs(fit.slope - p) < 1e-9
    assert fit.residual < 1e-9


def test_eps_squared_moderate_at_default_level_negligible_at_low_level():
    fit = GeneralizedNumber.from_fn(lambda e: e ** 2).classify()
    assert abs(fit.slope - 2.0) < 1e-9
    # slope 2 < m_max - 0.25 = 5.75: not negligible at level 6
    assert fit.verdict == MODERATE and fit.order == 0
    fit2 = GeneralizedNumber.from_fn(lambda e: e ** 2).classify(m_max=2)
    assert fit2.verdict == NEGLIGIBLE


def test_one_over_eps_is_moderate_order_one():
    fit = GeneralizedNumber.from_fn(lambda e: 1.0 / e).classify()
    assert abs(fit.slope + 1.0) < 1e-9
    assert fit.verdict == MODERATE and fit.order == 1


def test_exp_minus_inverse_eps_is_negligible():
    fit = GeneralizedNumber.from_fn(lambda e: math.exp(-1.0 / e)).classify()
    # frozen oracle: exp(-1/eps) underflows to 0.0 for eps <= 2^-10, so the
    # five smallest grid points are at the floor and the slope is the fit of
    # the six non-zero samples
    assert fit.n_clamped == 5
    assert fit.slope == pytest.approx(132.563064329, abs=1e-6)
    assert fit.verdict == NEGLIGIBLE
    assert fit.note.startswith("negligible at working precision")
    # the huge residual records that this is no power law
    assert fit.residual > 1.0


def test_constant_net_is_moderate_order_zero():
    for n_zeros in (0, 2, 4, 7):
        # zeros at the coarsest eps of 2^-4..2^-14 leave the fit: they lend no slope
        edge = 2.0 ** -(4 + n_zeros)
        fit = GeneralizedNumber.from_fn(lambda e: 0.0 if e > edge else 7.0).classify()
        assert fit.n_clamped == n_zeros
        assert abs(fit.slope) < 1e-9
        assert fit.verdict == MODERATE and fit.order == 0


def test_inverse_cube_plus_one():
    fit = GeneralizedNumber.from_fn(lambda e: e ** -3 + 1.0).classify()
    # frozen oracle: the +1 bends the line slightly at the largest eps
    assert fit.slope == pytest.approx(-2.999982228, abs=1e-6)
    assert fit.verdict == MODERATE and fit.order == 3


def test_identically_zero_net_is_negligible_via_floor():
    fit = GeneralizedNumber.from_fn(lambda e: 0.0).classify()
    assert fit.verdict == NEGLIGIBLE
    assert fit.slope == math.inf
    assert fit.n_clamped == len(dyadic_grid())
    assert "floor" in fit.note


def test_partial_zero_magnitudes_are_clamped_not_fatal():
    g = dyadic_grid()
    vals = {float(e): (0.0 if i % 2 else float(e)) for i, e in enumerate(g)}
    fit = GeneralizedNumber.from_fn(lambda e: vals[e]).classify()
    assert fit.n_clamped == len(g) // 2
    assert fit.note == "5 magnitudes at the floor"
    assert fit == estimate_order(zip(g, np.abs(list(vals.values()))), scale=0.0)
    # frozen oracle: the zeros leave the fit, the slope-1 line stays
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.verdict == MODERATE and fit.order == 0


def test_divergent_verdict():
    fit = GeneralizedNumber.from_fn(lambda e: e ** -25).classify()
    assert fit.verdict == DIVERGENT
    fit2 = GeneralizedNumber.from_fn(lambda e: e ** -20).classify()
    # still within the moderate scale window
    assert fit2.verdict == MODERATE and fit2.order == 20


def test_verdict_invariants_against_slope():
    # negligible verdict implies slope >= m_max - tol; moderate implies slope >= -N - tol
    for f in (lambda e: e ** 7, lambda e: 3.0 / e ** 2, lambda e: e ** 0.5):
        fit = GeneralizedNumber.from_fn(f).classify()
        if fit.verdict == NEGLIGIBLE and fit.slope != math.inf:
            assert fit.slope >= fit.m_max - 0.25
        if fit.verdict == MODERATE:
            assert fit.slope >= -fit.order - 0.25


def test_sample_validation_errors():
    with pytest.raises(InsufficientSamples):
        estimate_order([(0.5, 1.0), (0.25, 2.0), (0.125, 4.0)])
    # with the finest sample above the floor, the floor cannot read it negligible
    with pytest.raises(InsufficientSamples):
        estimate_order([(0.5, 1e-16), (0.25, 0.0), (0.125, 1e-15), (0.0625, 1.0)], scale=1.0)
    # the constant 7 behind eight zeros of 2^-4..2^-14 keeps three samples
    with pytest.raises(InsufficientSamples):
        GeneralizedNumber.from_fn(lambda e: 0.0 if e > 2.0 ** -12 else 7.0).classify()
    with pytest.raises(InvalidSample):
        estimate_order([(1.5, 1.0), (0.5, 1.0), (0.25, 1.0), (0.125, 1.0)])
    with pytest.raises(InvalidSample):
        estimate_order([(0.5, 1.0), (0.5, 1.0), (0.25, 1.0), (0.125, 1.0)])
    with pytest.raises(InvalidSample):
        estimate_order([(0.5, float("nan")), (0.25, 1.0), (0.125, 1.0), (0.0625, 1.0)])
    with pytest.raises(InvalidSample):
        estimate_order([(0.5, float("inf")), (0.25, 1.0), (0.125, 1.0), (0.0625, 1.0)])
    # an m_max below 1 would read the constant 7 as negligible
    for m_max in (0, -3):
        with pytest.raises(InvalidSample):
            estimate_order([(2.0 ** -k, 7.0) for k in range(4, 9)], m_max=m_max)
    with pytest.raises(TypeError):
        estimate_order([(2.0 ** -k, 7.0) for k in range(4, 9)], m_max=2.0)


def test_json_round_trip_fields():
    fit = GeneralizedNumber.from_fn(lambda e: 1.0 / e).classify()
    d = fit.to_json()
    for key in ("slope", "intercept", "residual", "verdict", "grid"):
        assert key in d
    assert d["verdict"] == MODERATE
    assert len(d["grid"]) == len(dyadic_grid())
    # a floor count is a plain int: reports serialize it as it stands
    zeros = GeneralizedNumber.from_fn(lambda e: 0.0).classify().to_json()
    assert type(zeros["n_clamped"]) is int and json.loads(json.dumps(zeros))["n_clamped"] == 11


# embed-check's line row at --grid 4..9 with the Fourier kernel: four live
# sups, then two at the rounding floor of the unit-scale sine
EMBED_CHECK_LINE_ROW = [(0.0625, 0.00070525353296391202), (0.03125, 1.2444384706156164e-05),
                        (0.015625, 1.4779293122657577e-08), (0.0078125, 1.7430501486614958e-12),
                        (0.00390625, 1.1102230246251565e-16), (0.001953125, 1.1102230246251565e-16)]


def test_floor_samples_leave_the_live_fit_bitwise():
    fit = estimate_order(EMBED_CHECK_LINE_ROW, scale=1.0)
    live = estimate_order(EMBED_CHECK_LINE_ROW[:4])
    assert fit.slope == live.slope == 9.549355992560594
    assert (fit.intercept, fit.residual) == (live.intercept, live.residual)
    assert fit.n_clamped == 2
    # the finest sample sits at the floor
    assert fit.verdict == NEGLIGIBLE
    assert fit.note.startswith("negligible at working precision")
    # every sample is kept for the report, unclamped
    assert fit.magnitudes == tuple(m for _, m in EMBED_CHECK_LINE_ROW)


def test_floor_is_inclusive_and_relative_to_scale():
    floor = FLOOR_ULPS * np.finfo(float).eps
    samples = [(2.0 ** -k, 2.0 ** -k) for k in range(4, 8)] + [(2.0 ** -8, 3.0 * floor)]
    assert estimate_order(samples, scale=3.0).n_clamped == 1
    assert estimate_order(samples, scale=2.9).n_clamped == 0


def test_too_few_live_samples_is_negligible_with_infinite_slope():
    # one sample above the floor, the coarsest: too few left to fit
    samples = [(0.5, 1.0), (0.25, 0.0), (0.125, 1e-15), (0.0625, 1e-16)]
    fit = estimate_order(samples, scale=1.0)
    assert fit.slope == math.inf and fit.verdict == NEGLIGIBLE and fit.order is None
    assert fit.n_clamped == 3
    assert fit.note.startswith("negligible at working precision")


def test_a_live_finest_sample_is_fit_as_usual():
    # a floor sample mid-series drops out of the fit, the verdict stays the fit's
    samples = [(0.5, 2.0), (0.25, 4.0), (0.125, 1e-20), (0.0625, 16.0), (0.03125, 32.0)]
    fit = estimate_order(samples, scale=1.0)
    assert fit.n_clamped == 1 and "negligible at working precision" not in fit.note
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.verdict == MODERATE and fit.order == 1


def test_per_sample_scale_follows_its_sample():
    # samples out of eps order; each scale floors only its own magnitude
    samples = [(2.0 ** -k, 2.0 ** (3 * k)) for k in (6, 4, 8, 5, 7)]
    scales = [2.0 ** (6 * k) for k in (6, 4, 8, 5, 7)]
    fit = estimate_order(samples, scale=scales)
    assert fit.n_clamped == 0 and fit.slope == pytest.approx(-3.0, abs=1e-12)
    scales[2] = 2.0 ** 24 / (FLOOR_ULPS * np.finfo(float).eps)
    fit = estimate_order(samples, scale=scales)
    assert fit.n_clamped == 1 and fit.note.startswith("negligible at working precision")


@pytest.mark.parametrize("scale", [float("nan"), -1.0, float("inf"), [1.0, 1.0]])
def test_bad_scale_is_rejected(scale):
    samples = [(2.0 ** -k, 1.0) for k in range(4, 9)]
    with pytest.raises(InvalidSample):
        estimate_order(samples, scale=scale)
