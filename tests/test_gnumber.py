"""Generalized number ring: pointwise ops, equality by negligibility."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colombeau.errors import DimensionMismatch
from colombeau.gnumber import GeneralizedNumber, gn_equal
from colombeau.grid import dyadic_grid


def test_construction_and_ops():
    a = GeneralizedNumber.from_fn(lambda e: e)
    b = GeneralizedNumber.from_fn(lambda e: 1.0 / e)
    prod = a * b
    assert np.allclose(prod.values, 1.0)
    s = a + b
    assert np.allclose(s.values, a.values + b.values)
    d = s - b
    eq, fit = gn_equal(d, a)
    assert eq and fit.is_negligible


def test_grid_mismatch_rejected():
    a = GeneralizedNumber.from_fn(lambda e: e, grid=dyadic_grid(4, 10))
    b = GeneralizedNumber.from_fn(lambda e: e, grid=dyadic_grid(4, 14))
    with pytest.raises(DimensionMismatch):
        a + b


def test_eps_and_exp_floor_are_nonzero_and_zero_respectively():
    eps_net = GeneralizedNumber.from_fn(lambda e: e)
    zero = GeneralizedNumber.const(0.0)
    eq, fit = gn_equal(eps_net, zero)
    # eps is a nonzero infinitesimal: slope 1 < m_max - 0.25
    assert not eq and fit.verdict == "moderate"
    tiny = GeneralizedNumber.from_fn(lambda e: np.exp(-1.0 / e))
    eq2, _ = gn_equal(tiny, zero)
    assert eq2


def test_rounding_level_twins_are_equal():
    # 0.1 + 0.2 and 0.3 differ by one ulp; without a floor the constant
    # difference fits to "moderate, order 0"
    g = dyadic_grid()
    eq, fit = gn_equal(GeneralizedNumber(g, np.full_like(g, 0.1 + 0.2)),
                       GeneralizedNumber.const(0.3))
    assert eq and fit.note.startswith("negligible at working precision")
    # sin^2 + cos^2 misses 1 by an ulp at scattered eps (read "moderate"
    # and "divergent" without a floor)
    for arg in (lambda e: 1.0 / e, lambda e: e):
        one = GeneralizedNumber.from_fn(lambda e: math.sin(arg(e)) ** 2 + math.cos(arg(e)) ** 2)
        assert np.any(one.values != 1.0)
        eq, fit = gn_equal(one, GeneralizedNumber.const(1.0))
        assert eq and fit.note.startswith("negligible at working precision")


def test_moderate_difference_beside_large_operands_is_unequal():
    # the difference eps^-3 is exact, and far above the rounding floor of
    # eps^-6 at each eps; one floor for the whole grid, set by the largest
    # eps^-6, would drop all but two samples and call the two equal
    big = GeneralizedNumber.from_fn(lambda e: e ** -6)
    eq, fit = gn_equal(GeneralizedNumber.from_fn(lambda e: e ** -6 + e ** -3), big)
    assert not eq and fit.n_clamped == 0
    assert fit.verdict == "moderate" and fit.order == 3


@settings(max_examples=40, deadline=None)
@given(
    c1=st.floats(min_value=-10, max_value=10),
    c2=st.floats(min_value=-10, max_value=10),
    c3=st.floats(min_value=-10, max_value=10),
)
# b + c cancels at eps = 2^-11 and leaves a * (b + c) near 1e-20, far
# below any bound relative to the result
@example(c1=1.192092896e-07, c2=-0.5, c3=1.192092896e-07)
def test_ring_axioms_pointwise(c1, c2, c3):
    a = GeneralizedNumber.const(c1)
    b = GeneralizedNumber.from_fn(lambda e: c2 * e)
    c = GeneralizedNumber.from_fn(lambda e: c3 / e)
    # commutativity is bitwise exact in IEEE arithmetic
    assert np.array_equal((a + b).values, (b + a).values)
    assert np.array_equal((a * b).values, (b * a).values)
    # associativity and distributivity only up to rounding, bounded by
    # the operands' magnitudes: a result that cancels keeps their error
    ulp = np.finfo(float).eps
    av, bv, cv = np.abs(a.values), np.abs(b.values), np.abs(c.values)
    err = np.abs(((a + b) + c).values - (a + (b + c)).values)
    assert np.all(err <= 4 * ulp * (av + bv + cv))
    err = np.abs((a * (b + c)).values - (a * b + a * c).values)
    # products that underflow round to a multiple of the smallest subnormal
    assert np.all(err <= 4 * ulp * (av * (bv + cv)) + 4 * np.finfo(float).smallest_subnormal)


def test_scalar_coercion():
    a = GeneralizedNumber.from_fn(lambda e: e)
    assert np.allclose((a + 1.0).values, a.values + 1.0)
    assert np.allclose((2.0 * a).values, 2.0 * a.values)
    assert np.allclose((1.0 - a).values, 1.0 - a.values)
    assert np.allclose((-a).values, -a.values)
