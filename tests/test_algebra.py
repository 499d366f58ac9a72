"""The one pointwise algebra: +, - and * of every net-like class, componentwise."""

import operator

import numpy as np
import pytest
import sympy as sp

from colombeau import gfunc as G
from colombeau.gnumber import GeneralizedNumber
from colombeau.manifolds import euclidean
from colombeau.nets import Net
from colombeau.smooth import from_sympy

X = sp.Symbol("x")
PTS = np.linspace(-1.5, 1.5, 13)
EPS = (2.0 ** -3, 2.0 ** -6)
C = 2.5
_F = from_sympy(sp.sin(3 * X) + 2, [X])
_G = from_sympy(sp.exp(X / 3) * sp.cos(X), [X])
_LINE = euclidean(1)


def _net(f):
    return Net(1, lambda e: f.scale_shift(1.0 + e, e))


def _fn_parts(f, order):
    return [f.partial((k,), PTS) for k in range(order + 1)]


# (a, b, parts): parts(x, order) lists x's components as arrays, derivatives
# up to ``order`` included; a generalized number has only values
TYPES = {
    "SmoothFn": (lambda: (_F, _G, _fn_parts)),
    "Net": (lambda: (_net(_F), _net(_G),
                     lambda n, order: [p for e in EPS for p in _fn_parts(n.at(e), order)])),
    "GeneralizedNumber": (lambda: (GeneralizedNumber.from_fn(lambda e: np.sin(1 / e)),
                                   GeneralizedNumber.from_fn(lambda e: e ** 0.5 - 3),
                                   lambda x, order: [x.values])),
    "GeneralizedFunction": (lambda: (
        G.GeneralizedFunction(_LINE, {"0": _net(_F)}),
        G.GeneralizedFunction(_LINE, {"0": _net(_G)}),
        lambda U, order: [p for e in EPS for p in _fn_parts(U.net("0").at(e), order)])),
}

# each operation, applied to the objects and to their parts, and the highest
# derivative order the two agree at: a sum, a difference and a number multiple
# at every order; a product and c +/- a (a constant has zero derivatives) on values
CASES = {
    "a + b": (operator.add, 2),
    "b + a": (lambda a, b: b + a, 2),
    "a - b": (operator.sub, 2),
    "b - a": (lambda a, b: b - a, 2),
    "a * b": (operator.mul, 0),
    "c * a": (lambda a, b: C * a, 2),
    "a * c": (lambda a, b: a * C, 2),
    "c + a": (lambda a, b: C + a, 0),
    "c - a": (lambda a, b: C - a, 0),
    "-a": (lambda a, b: -a, 2),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", TYPES)
def test_operators_act_componentwise(kind, case):
    a, b, parts = TYPES[kind]()
    op, order = CASES[case]
    want = [op(pa, pb) for pa, pb in zip(parts(a, order), parts(b, order))]
    got = parts(op(a, b), order)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_smooth_fn_and_net_combine_on_either_side():
    """f + net, f - net and f * net go to the net's reflected operators."""
    n = _net(_G)
    pairs = [(_F + n, n + _F), (_F - n, -(n - _F)), (_F * n, n * _F)]
    for left, right in pairs:
        assert isinstance(left, Net)
        for e in EPS:  # a Leibniz sum of two terms does not depend on their order
            assert all(np.array_equal(p, q) for p, q in
                       zip(_fn_parts(left.at(e), 1), _fn_parts(right.at(e), 1)))
