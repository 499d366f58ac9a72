"""Order estimation: thresholds, clamping, and the power-law invariant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colombeau.asymptotic import (
    DIVERGENT,
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
    # five smallest grid points sit at the clamp floor
    assert fit.n_clamped == 5
    assert fit.slope == pytest.approx(123.935804997, abs=1e-6)
    assert fit.verdict == NEGLIGIBLE
    # the huge residual records that this is no power law
    assert fit.residual > 1.0


def test_constant_net_is_moderate_order_zero():
    fit = GeneralizedNumber.from_fn(lambda e: 7.0).classify()
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
    assert "clamped" in fit.note
    # frozen oracle: mix of a slope-1 line and the flat floor
    assert fit.slope == pytest.approx(0.636364, abs=1e-4)
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
    with pytest.raises(InvalidSample):
        estimate_order([(1.5, 1.0), (0.5, 1.0), (0.25, 1.0), (0.125, 1.0)])
    with pytest.raises(InvalidSample):
        estimate_order([(0.5, 1.0), (0.5, 1.0), (0.25, 1.0), (0.125, 1.0)])
    with pytest.raises(InvalidSample):
        estimate_order([(0.5, float("nan")), (0.25, 1.0), (0.125, 1.0), (0.0625, 1.0)])
    with pytest.raises(InvalidSample):
        estimate_order([(0.5, float("inf")), (0.25, 1.0), (0.125, 1.0), (0.0625, 1.0)])


def test_json_round_trip_fields():
    fit = GeneralizedNumber.from_fn(lambda e: 1.0 / e).classify()
    d = fit.to_json()
    for key in ("slope", "intercept", "residual", "verdict", "grid"):
        assert key in d
    assert d["verdict"] == MODERATE
    assert len(d["grid"]) == len(dyadic_grid())
