"""SmoothFn: exact derivative algebra and shape handling."""

import ast
import contextlib
import inspect
import sys
import warnings
import weakref

import conftest
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.core.cache import clear_cache
from sympy.printing.codeprinter import CodePrinter
from sympy.printing.numpy import NumPyPrinter, SciPyPrinter
from sympy.printing.printer import Printer
from sympy.printing.str import StrPrinter

from colombeau import _mindex as mi
from colombeau import embed, experiments, forms, gfunc, manifolds, mechanics, smooth, tensor
from colombeau.errors import DerivativeUnavailable, DimensionMismatch
from colombeau.mollifier import build_mollifier
from colombeau.nets import Net, box_lattice
from colombeau.smooth import SmoothFn, constant, coordinate, from_sympy, smoothstep_expr

# sympy's own functions, kept before any test patches them
_DIFF, _LAMBDIFY = sp.diff, sp.lambdify


@pytest.fixture(scope="module")
def sin_fn():
    x = sp.Symbol("x")
    return from_sympy(sp.sin(x), [x])


def test_sympy_derivatives_cycle(sin_fn):
    xs = np.linspace(-3, 3, 41)
    assert np.allclose(sin_fn.partial((1,), xs), np.cos(xs), atol=1e-14)
    assert np.allclose(sin_fn.partial((4,), xs), np.sin(xs), atol=1e-14)


def test_shape_handling(sin_fn):
    assert isinstance(sin_fn(0.5), float)
    v = sin_fn(np.linspace(0, 1, 7))
    assert v.shape == (7,)
    v2 = sin_fn(np.zeros((3, 4, 1)))
    assert v2.shape == (3, 4)
    x, y = sp.symbols("x y")
    g = from_sympy(x * y, [x, y])
    pts = np.random.default_rng(0).normal(size=(5, 2))
    assert np.allclose(g(pts), pts[:, 0] * pts[:, 1])
    with pytest.raises(DimensionMismatch):
        g(np.zeros((5, 3)))


def test_constant_and_coordinate():
    c = constant(3.5, 2)
    pts = np.zeros((4, 2))
    assert np.allclose(c(pts), 3.5)
    assert np.allclose(c.partial((1, 0), pts), 0.0)
    x1 = coordinate(1, 2)
    pts = np.arange(8.0).reshape(4, 2)
    assert np.allclose(x1(pts), pts[:, 1])
    assert np.allclose(x1.partial((0, 1), pts), 1.0)
    assert np.allclose(x1.partial((1, 0), pts), 0.0)
    assert np.allclose(x1.partial((0, 2), pts), 0.0)


def test_zero_derivatives_known_by_construction():
    x, y = sp.symbols("x y")
    assert [constant(3.5, 2).vanishes(a) for a in ((0, 0), (1, 0), (0, 2))] == [False, True, True]
    assert constant(0.0, 1).vanishes((0,))
    f = from_sympy(x ** 2 * 3 + y, [x, y])
    assert [f.vanishes(a) for a in ((0, 0), (2, 0), (3, 0), (0, 1), (0, 2), (1, 1))] == \
        [False, False, True, False, True, True]
    assert from_sympy(sp.Float(2.5), [x]).vanishes((1,))
    # what no constructor states is not known: the query is False
    assert not coordinate(0, 1).vanishes((2,))
    assert not (constant(1.0, 1) + constant(2.0, 1)).vanishes((1,))


def test_product_leibniz_matches_symbolic():
    x = sp.Symbol("x")
    f = from_sympy(sp.sin(x), [x])
    g = from_sympy(sp.exp(-x ** 2), [x])
    prod = f * g
    ref = from_sympy(sp.sin(x) * sp.exp(-x ** 2), [x])
    xs = np.linspace(-2, 2, 31)
    for k in range(4):
        a = prod.partial((k,), xs)
        b = ref.partial((k,), xs)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


_SPECIAL = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.5, -2.0, -0.0, 3.0, np.inf, 0.0])


def _special_fn(shift):
    """A 2-d SmoothFn whose d^alpha is ``_SPECIAL`` rolled by an alpha-dependent
    amount: factors of -0.0, +-inf and NaN, and 0 * inf across them."""
    return SmoothFn(2, lambda alpha, pts: np.roll(_SPECIAL, shift + 3 * alpha[0] + 5 * alpha[1]))


@pytest.mark.parametrize("alpha", mi.up_to(2, 2))
@pytest.mark.parametrize("shift", [0, 1, 4])
def test_leibniz_product_is_the_sum_from_zeros_bit_for_bit(alpha, shift):
    # the product's terms, without the c * of a binomial 1 and summed from
    # the first term plus 0.0, are the old sum from zeros: -0.0, inf, NaN
    # and 0 * inf included, compared as bits
    f, g = _special_fn(shift), _special_fn(2 * shift + 1)
    pts = np.zeros((len(_SPECIAL), 2))

    def oracle(a, b):
        acc = np.zeros(len(pts))
        for beta, c, rest in mi.leibniz_terms(alpha):
            acc = acc + c * a._partial_fn(beta, pts) * b._partial_fn(rest, pts)
        return acc

    with np.errstate(all="ignore"):
        for a, b, product in ((f, g, f * g), (g, f, g * f), (f, g, g.__rmul__(f))):
            got, want = product._partial_fn(alpha, pts), oracle(a, b)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert any(c != 1 for _, c, _ in mi.leibniz_terms((2, 0)))  # a binomial 2 is covered


@pytest.mark.parametrize("alpha", [(0,), (3,), (0, 0), (2, 1), (1, 0, 2), (3, 3)])
def test_leibniz_terms_match_the_index_helpers(alpha):
    # the cached terms are the products' old triples, in sub_indices order
    terms = [(beta, mi.binom(alpha, beta), mi.sub(alpha, beta))
             for beta in mi.sub_indices(alpha)]
    assert list(mi.leibniz_terms(alpha)) == terms
    assert mi.leibniz_terms(alpha) is mi.leibniz_terms(alpha)


def test_linear_combination_derivatives():
    x = sp.Symbol("x")
    f = from_sympy(sp.cos(x), [x])
    g = from_sympy(x ** 3, [x])
    h = 2.0 * f - g + 1.0
    xs = np.linspace(-1, 1, 11)
    assert np.allclose(h(xs), 2 * np.cos(xs) - xs ** 3 + 1)
    assert np.allclose(h.partial((2,), xs), -2 * np.cos(xs) - 6 * xs)


def test_scale_shift_exact():
    x = sp.Symbol("x")
    f = from_sympy(sp.sin(x), [x])
    g = f.scale_shift(2.0, 0.5)  # sin(2x + 0.5)
    xs = np.linspace(-1, 1, 9)
    assert np.allclose(g(xs), np.sin(2 * xs + 0.5), atol=1e-15)
    assert np.allclose(g.partial((3,), xs), -8 * np.cos(2 * xs + 0.5), atol=1e-13)
    # per-axis scaling in 2d
    x0, x1 = sp.symbols("x0 x1")
    h = from_sympy(x0 * sp.sin(x1), [x0, x1]).scale_shift([3.0, -1.0], [0.0, 2.0])
    pts = np.random.default_rng(1).normal(size=(6, 2))
    ref = 3 * pts[:, 0] * np.sin(-pts[:, 1] + 2)
    assert np.allclose(h(pts), ref)
    d = h.partial((1, 1), pts)
    assert np.allclose(d, 3 * -1 * np.cos(-pts[:, 1] + 2))


def _scale_shift_by_closure(f, a, b):
    """Reference: scale_shift as its own closure, a float factor times f at a*x + b."""
    a_vec = np.broadcast_to(np.asarray(a, dtype=float), (f.dim,)).copy()
    b_vec = np.broadcast_to(np.asarray(b, dtype=float), (f.dim,)).copy()

    def pfn(alpha, pts):
        factor = float(np.prod(a_vec ** np.array(alpha)))
        return factor * f._partial_fn(alpha, pts * a_vec + b_vec)

    return SmoothFn(f.dim, pfn)


def test_scale_shift_is_its_closure_bit_for_bit():
    x0, x1 = sp.symbols("x0 x1")
    f = from_sympy(sp.sin(x0) * sp.exp(-x1 ** 2) + x0 * x1 ** 2, [x0, x1])
    lattice = box_lattice(((-1.5, 1.5), (-1.0, 2.0)), 13)
    lattice.flags.writeable = False
    for a, b in (([3.0, -0.7], [0.0, 2.0]), ([1.0 / 3.0, 2.5], [-0.1, 0.3]), (-1.25, 0.5)):
        got, ref = f.scale_shift(a, b), _scale_shift_by_closure(f, a, b)
        for alpha in mi.up_to(2, 2):
            want = ref._partial_fn(alpha, lattice)
            assert np.array_equal(got._partial_fn(alpha, lattice), want), (a, b, alpha)
            with smooth.leaf_memo(lattice):  # f's own values on the lattice are stored
                f._partial_fn(alpha, lattice)
                assert np.array_equal(got._partial_fn(alpha, lattice), want), (a, b, alpha)


def test_where_combinator():
    one = constant(1.0, 1)
    two = constant(2.0, 1)
    f = one.where(lambda p: p[:, 0] > 0, two)
    xs = np.array([-1.0, 1.0])
    assert np.allclose(f(xs), [2.0, 1.0])


def test_leaves_off_their_pieces_evaluate_without_a_warning():
    # Piecewise lowers to np.where, which evaluates every branch: off its
    # piece the bump divides by zero at |x| = 1 and overflows just past it,
    # and sqrt(x) is NaN below 0.  The leaf's own np.errstate silences them
    # (_partial_fn is the raw evaluator, outside SmoothFn.partial's errstate)
    x = sp.Symbol("x")
    root = from_sympy(sp.Piecewise((sp.sqrt(x), x > 0), (0, True)), [x])
    bump = mechanics.bump_profile()
    pts = np.array([[-2.0], [-1.0], [0.0], [1.0], [1.0 + 1e-7], [4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in ((0,), (1,), (2,)):
            vals = bump._partial_fn(alpha, pts)
            assert np.all(np.isfinite(vals)) and np.array_equal(vals[[0, 1, 3, 4, 5]], np.zeros(5))
        assert np.array_equal(root._partial_fn((0,), pts), [0, 0, 0, 1, np.sqrt(1 + 1e-7), 2])
        assert np.array_equal(root._partial_fn((1,), pts)[:3], np.zeros(3))


def test_finite_difference_fallback_flagged():
    """A hand-built SmoothFn's derivative flags propagate through the algebra."""
    cycle = (np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    f = SmoothFn(1, lambda alpha, pts: cycle[alpha[0] % 4](pts[:, 0]),
                 max_order=4, uses_fd=True)
    xs = np.linspace(-1, 1, 5)
    assert np.array_equal(f.partial((1,), xs), np.cos(xs))
    with pytest.raises(DerivativeUnavailable):
        f.partial((5,), xs)
    g = from_sympy(sp.Symbol("x") ** 2, [sp.Symbol("x")])
    prod = f * g
    assert prod.uses_fd and not g.uses_fd and prod.max_order == 4
    assert g.max_order is None
    with pytest.raises(DerivativeUnavailable):
        prod.partial((5,), xs)
    shifted = f.scale_shift(2.0, 1.0)
    assert shifted.uses_fd and shifted.max_order == 4


X0, X1 = sp.symbols("x0 x1")


def _homotopy_component():
    omega = forms.GeneralizedKForm(manifolds.euclidean(2), 1,
                                   {"0": {(0,): from_sympy(X0 ** 2 * X1, [X0, X1]),
                                          (1,): constant(1.0, 2)}})
    return forms.homotopy_H(omega).nets["0"].at(0.25)


def _embedded(spec):
    return embed.embed_rn(spec, build_mollifier("fourier")).at(0.1)


# producers of SmoothFn evaluators across the library, each building a fresh one
_PRODUCERS = {
    "constant": lambda: constant(2.5, 2),
    "coordinate": lambda: coordinate(1, 2),
    "from_sympy-constant": lambda: from_sympy(sp.Integer(3), [X0, X1]),
    "from_sympy": lambda: from_sympy(X0 * sp.sin(X1), [X0, X1]),
    "lift_axis": lambda: smooth.lift_axis(from_sympy(sp.sin(X0), [X0]), 1, 2),
    "scale_shift": lambda: from_sympy(X0 * X1, [X0, X1]).scale_shift([2.0, -1.0], [0.5, 0.0]),
    "where": lambda: constant(1.0, 2).where(lambda p: p[:, 0] > 0, coordinate(0, 2)),
    "add": lambda: from_sympy(X1 ** 2, [X0, X1]) + constant(1.0, 2),
    "mul": lambda: coordinate(0, 2) * from_sympy(sp.cos(X1), [X0, X1]),
    "Net.partial": lambda: Net.constant_in_eps(
        from_sympy(X0 ** 3 * X1, [X0, X1])).partial((1, 0)).at(0.1),
    "embed_rn-dirac": lambda: _embedded(embed.dirac()),
    "embed_rn-smooth_piece": lambda: _embedded(
        embed.smooth_piece(from_sympy(sp.sin(X0), [X0]), -0.5, 0.5)),
    "embed_rn-dirac-2d": lambda: _embedded(embed.dirac((0.0, 0.0), dim=2)),
    "StrictDeltaNet.at": lambda: mechanics.StrictDeltaNet().at(0.1),
    "homotopy_H": _homotopy_component,
}


@pytest.mark.parametrize("m", [1, 7])
@pytest.mark.parametrize("producer", sorted(_PRODUCERS))
def test_partial_fn_returns_one_float_per_point(producer, m):
    """Every evaluator returns a float array of shape (m,), even for a
    constant derivative, so callers need no broadcast."""
    fn = _PRODUCERS[producer]()
    pts = np.random.default_rng(m).uniform(-0.6, 0.6, size=(m, fn.dim))
    for alpha in mi.up_to(fn.dim, 2):
        out = fn._partial_fn(alpha, pts)
        assert isinstance(out, np.ndarray) and out.dtype == float, (alpha, type(out))
        assert out.shape == (m,), alpha


def test_smoothstep_profile():
    t = sp.Symbol("t", real=True)
    s = from_sympy(smoothstep_expr(t), [t])
    ts = np.linspace(-0.5, 1.5, 101)
    vals = s(ts)
    assert np.all(vals[ts <= 0.0] == 0.0)
    assert np.all(vals[ts >= 1.0] == 1.0)
    mid = vals[(ts > 0.02) & (ts < 0.98)]
    assert np.all(np.diff(mid) > 0)
    assert s(0.5) == pytest.approx(0.5)
    # flat to all tested orders at the endpoints
    for k in (1, 2, 3):
        assert abs(s.partial((k,), -0.1)) == 0.0
        assert abs(s.partial((k,), 1.1)) == 0.0


# -- leaf memo ----------------------------------------------------------


@pytest.fixture
def counted_sin(monkeypatch):
    """sin as a sympy leaf, and the list its compiled callables append to."""
    calls = []
    lambdify = smooth.lambdify

    def counting(*args, **kwargs):
        fn = lambdify(*args, **kwargs)

        def wrapped(*cols):
            calls.append(len(cols[0]))
            return fn(*cols)

        return wrapped

    monkeypatch.setattr(smooth, "lambdify", counting)
    x = sp.Symbol("x")
    return from_sympy(sp.sin(x), [x]), calls


def _lattice(lo=-1.0, hi=1.0, n=9):
    """A read-only lattice of shape (n, 1), as a leaf_memo block requires."""
    pts = np.linspace(lo, hi, n).reshape(-1, 1).copy()  # owns its data
    pts.flags.writeable = False
    return pts


def test_leaf_memo_evaluates_once_per_lattice(counted_sin):
    f, calls = counted_sin
    pts = _lattice()
    with smooth.leaf_memo(pts):
        v = f._partial_fn((0,), pts)
        assert f._partial_fn((0,), pts) is v and len(calls) == 1
        assert np.array_equal(v, np.sin(pts[:, 0]))
        f._partial_fn((1,), pts)  # another multi-index
        assert len(calls) == 2
        # the key is the array object, not its contents: an equal-valued
        # copy or a view is another lattice, evaluated afresh and equally
        w = f._partial_fn((0,), pts.copy())
        u = f._partial_fn((0,), pts[:])
        assert len(calls) == 4 and np.array_equal(v, w) and np.array_equal(v, u)
        f._partial_fn((0,), pts.copy())
        assert len(calls) == 5  # an unregistered array is never memoized
        with pytest.raises(ValueError):
            v[0] = 0.0
    assert np.array_equal(f._partial_fn((0,), pts), np.sin(pts[:, 0]))


def test_leaf_memo_rejects_a_writable_lattice(counted_sin):
    f, calls = counted_sin
    pts = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
    with pytest.raises(ValueError):
        with smooth.leaf_memo(pts):
            pass
    view = pts[:]
    view.flags.writeable = False  # read-only, but its base can still change
    with pytest.raises(ValueError):
        with smooth.leaf_memo(view):
            pass
    with pytest.raises(ValueError):
        with smooth.leaf_memo(pts.tolist()):
            pass
    assert smooth._memo is None
    ro = _lattice()
    with smooth.leaf_memo(ro):
        with pytest.raises(ValueError):  # a nested block checks its lattices too
            with smooth.leaf_memo(pts):
                pass
        assert set(smooth._memo) == {id(ro)}
    assert smooth._memo is None and not calls


def test_leaf_memo_copies_values_that_alias_the_lattice():
    x = sp.Symbol("x")
    ident = from_sympy(x, [x])
    pts = _lattice(0.0, 1.0, 5)
    with smooth.leaf_memo(pts):
        v = ident._partial_fn((0,), pts)
        assert not np.shares_memory(v, pts) and not v.flags.writeable
        assert ident._partial_fn((0,), pts) is v
    pts.flags.writeable = True  # the owner reuses its array after the block
    pts[0, 0] = 7.0
    assert v[0] == 0.0


def test_leaf_memo_is_scoped_to_its_block(counted_sin):
    f, calls = counted_sin
    pts, other = _lattice(), _lattice(0.0, 2.0)
    f._partial_fn((0,), pts)
    f._partial_fn((0,), pts)
    assert len(calls) == 2 and smooth._memo is None  # no memo outside a block
    with smooth.leaf_memo(pts):
        f._partial_fn((0,), pts)
        with smooth.leaf_memo(other):  # a nested block joins the open memo
            f._partial_fn((0,), pts)
            f._partial_fn((0,), other)
        f._partial_fn((0,), pts)
        f._partial_fn((0,), other)  # still registered after the inner block
        assert len(calls) == 4
    assert smooth._memo is None
    with pytest.raises(RuntimeError):
        with smooth.leaf_memo(pts):
            f._partial_fn((0,), pts)
            raise RuntimeError("sweep failed")
    assert smooth._memo is None and len(calls) == 5
    with smooth.leaf_memo(pts):  # nothing retained from the earlier blocks
        f._partial_fn((0,), pts)
    assert len(calls) == 6


def test_leaf_memo_keeps_its_lattices_alive(counted_sin):
    f, calls = counted_sin
    with smooth.leaf_memo():
        for _ in range(20):
            # register a lattice in a nested block, then drop the caller's
            # only reference: the open memo still holds it, so no new array
            # can take its address and pick up its values
            pts = _lattice()
            with smooth.leaf_memo(pts):
                f._partial_fn((0,), pts)
            del pts
            fresh = _lattice(2.0, 3.0)
            assert np.array_equal(f._partial_fn((0,), fresh), np.sin(fresh[:, 0]))
        assert len(smooth._memo) == 20
    assert len(calls) == 40 and smooth._memo is None


# -- shared atoms ---------------------------------------------------------


@pytest.fixture
def atom_runs(monkeypatch):
    """The runs of each atom's thunk by key, for leaves evaluated from now on;
    setting ``fail`` makes the next thunk raise."""
    runs, fail = {}, []
    atom = smooth._atom

    def counting(key, thunk):
        def counted():
            if fail:
                raise RuntimeError("atom failed")
            runs[key] = runs.get(key, 0) + 1
            return thunk()

        return atom(key, counted)

    for printer in (smooth._NumPyAtomPrinter, smooth._SciPyAtomPrinter):
        monkeypatch.setitem(smooth._namespace(printer), "_atom", counting)
    return runs, fail


def _plane(n=7):
    """A read-only lattice of shape (n, 2) with distinct columns."""
    t = np.linspace(-1.0, 1.0, n)
    pts = np.column_stack([t, 0.5 - 2 * t])
    pts.flags.writeable = False
    return pts


def test_leaves_on_a_registered_lattice_share_each_atom(atom_runs):
    runs, _ = atom_runs
    y0, y1 = sp.symbols("y0 y1")
    f = from_sympy(sp.sin(y0) * y1, [y0, y1])
    g = from_sympy(sp.sin(y0) + sp.cos(2 * y1), [y0, y1])
    pts = _plane()
    with smooth.leaf_memo(pts):
        vf = f._partial_fn((0, 0), pts)
        vg = g._partial_fn((0, 0), pts)
        vd = f._partial_fn((0, 1), pts)  # sin(y0): the stored atom itself
        table = smooth._memo[id(pts)][2]
        assert all(not v.flags.writeable for v in table.values())
    assert runs == {"numpy(y0,y1) sin(y0)": 1, "numpy(y0,y1) cos(2*y1)": 1}
    assert set(table) == set(runs)
    s0, c1 = np.sin(pts[:, 0]), np.cos(2 * pts[:, 1])
    assert vf.tobytes() == (s0 * pts[:, 1]).tobytes()
    assert vg.tobytes() == (s0 + c1).tobytes() and vd.tobytes() == s0.tobytes()


def test_atoms_are_keyed_by_parameter_order_and_module_set(atom_runs):
    runs, _ = atom_runs
    y0, y1 = sp.symbols("y0 y1")
    f = from_sympy(sp.sin(y0), [y0, y1])
    g = from_sympy(sp.sin(y0), [y1, y0])  # y0 is the second column here
    h_expr = sp.sin(y0) * sp.erf(y1)  # numpy and scipy
    h = from_sympy(h_expr, [y0, y1])
    pts = _plane()
    with smooth.leaf_memo(pts):
        vf, vg, vh = (u._partial_fn((0, 0), pts) for u in (f, g, h))
    assert vf.tobytes() == np.sin(pts[:, 0]).tobytes()
    assert vg.tobytes() == np.sin(pts[:, 1]).tobytes()
    assert vh.tobytes() == _reference_values(h_expr, (y0, y1), (0, 0), pts).tobytes()
    assert runs == {"numpy(y0,y1) sin(y0)": 1, "numpy(y1,y0) sin(y0)": 1,
                    "numpy+scipy(y0,y1) sin(y0)": 1, "numpy+scipy(y0,y1) erf(y1)": 1}


def test_constant_atoms_are_not_wrapped(sympy_calls):
    _, lambdified = sympy_calls
    x = sp.Symbol("x")
    expr = x * sp.sin(1) + sp.exp(2) + sp.cos(x)
    pts = _lattice()
    want = _reference_values(expr, (x,), (0,), pts)
    assert from_sympy(expr, [x])._partial_fn((0,), pts).tobytes() == want.tobytes()
    src = inspect.getsource(lambdified[-1][2])
    assert src.count("_atom(") == 1 and "_atom('numpy(x) cos(x)', lambda: cos(x))" in src


def test_atoms_are_stored_only_on_registered_lattices(atom_runs):
    runs, _ = atom_runs
    x = sp.Symbol("x")
    f = from_sympy(2 * sp.sin(x), [x])
    pts, other = _lattice(), _lattice(0.0, 2.0)
    f._partial_fn((0,), pts)
    f._partial_fn((0,), pts)
    assert runs == {"numpy(x) sin(x)": 2} and smooth._atoms is None  # outside a block
    with smooth.leaf_memo(pts):
        v = f._partial_fn((0,), other)
        w = f._partial_fn((0,), other)
        assert runs["numpy(x) sin(x)"] == 4 and smooth._memo[id(pts)][2] == {}
        assert v.flags.writeable and w is not v  # unregistered: nothing stored
        ref = weakref.ref(f._partial_fn((1,), pts))  # 2*cos(x): its atom is cos(x)
        atom = weakref.ref(smooth._memo[id(pts)][2]["numpy(x) cos(x)"])
        assert smooth._atoms is None  # the table is current only during the call
    assert smooth._memo is None and smooth._atoms is None
    assert ref() is None and atom() is None  # leaf values and atoms leave with the block


def test_a_failing_leaf_resets_the_current_table(atom_runs):
    runs, fail = atom_runs
    x = sp.Symbol("x")
    f = from_sympy(sp.exp(x), [x])
    pts = _lattice()
    with smooth.leaf_memo(pts):
        fail.append(True)
        with pytest.raises(RuntimeError):
            f._partial_fn((0,), pts)
        assert smooth._atoms is None and smooth._memo[id(pts)][2] == {}
        fail.clear()
        assert f._partial_fn((0,), pts).tobytes() == np.exp(pts[:, 0]).tobytes()
    assert runs == {"numpy(x) exp(x)": 1} and smooth._atoms is None


def test_a_call_off_the_memo_computes_each_repeated_atom_once(atom_runs, sympy_calls):
    runs, _ = atom_runs
    _, lambdified = sympy_calls
    x = sp.Symbol("x")
    expr = smoothstep_expr(sp.Float(1.25) * x + sp.Float(1.5))
    f, pts = from_sympy(expr, [x]), _lattice(-1.5, 0.5, 41)
    for alpha in ((0,), (1,), (2,)):
        runs.clear()
        got = f._partial_fn(alpha, pts)
        src = inspect.getsource(lambdified[-1][2])
        keys = {k for k in runs if src.count(repr(k)) >= 2}  # printed twice or more
        assert keys and runs == dict.fromkeys(runs, 1) and smooth._atoms is None
        want = _LAMBDIFY((x,), _diff_from_scratch(expr, (x,), alpha), modules=[np])
        with np.errstate(all="ignore"):
            assert got.tobytes() == want(pts[:, 0]).tobytes()
        runs.clear()
        assert f._partial_fn(alpha, pts).tobytes() == got.tobytes()  # a fresh table
        assert runs == dict.fromkeys(runs, 1) and set(runs) >= keys


def test_a_bare_atom_off_the_memo_stays_writable():
    x = sp.Symbol("x")
    v = from_sympy(sp.sin(x), [x])._partial_fn((0,), _lattice())
    assert v.flags.writeable  # only a registered lattice's atoms are read-only


# -- derivative chain and module choice ----------------------------------


def _diff_from_scratch(expr, symbols, alpha):
    """Reference: the derivative differentiated from ``expr`` axis by axis."""
    d = expr
    for s, k in zip(symbols, alpha):
        if k:
            d = _DIFF(d, s, k)
    return d


def _reference_values(expr, symbols, alpha, pts, d=None):
    """Reference: the from-scratch derivative (``d`` if given) ``sp.lambdify``-ed
    against numpy and scipy."""
    if d is None:
        d = _diff_from_scratch(expr, symbols, alpha)
    fn = _LAMBDIFY(symbols, d, modules=["numpy", "scipy"])
    with np.errstate(all="ignore"):
        out = fn(*[pts[:, i] for i in range(len(symbols))])
    return np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],))


def _smoothstep_by_subs(u):
    """Reference: the smoothstep as the glue step with t replaced by u."""
    t = sp.Symbol("t", real=True)
    up, dn = sp.exp(-1 / t), sp.exp(-1 / (1 - t))
    step = sp.Piecewise((sp.Integer(0), t <= smooth._GLUE_TAU),
                        (sp.Integer(1), t >= 1 - smooth._GLUE_TAU),
                        (up / (up + dn), True))
    return step.subs(t, u)


class _WherePrinter(smooth._WherePiecewise, NumPyPrinter):
    """Plain ``NumPyPrinter`` but for the library's Piecewise printing."""


class _SciPyWherePrinter(smooth._WherePiecewise, SciPyPrinter):
    """Plain ``SciPyPrinter`` but for the library's Piecewise printing."""


# the settings lambdify gives the printer it picks itself
_LAMBDIFY_SETTINGS = {"fully_qualified_modules": False, "inline": True,
                      "allow_unknown_functions": True, "user_functions": {}}


def _unwrap_atoms(src):
    """``src`` with each ``_atom(key, lambda: X)`` replaced by the text X,
    after checking that the key ends with that text."""
    starts = [0]
    for line in src.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def span(node):
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    calls = sorted((*span(n), n) for n in ast.walk(ast.parse(src))
                   if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_atom")

    def render(lo, hi):  # src[lo:hi] with the atoms in it unwrapped
        out, pos = [], lo
        for start, end, call in calls:
            if start < pos or end > hi:  # inside an atom already rendered, or past hi
                continue
            key, thunk = call.args
            b0, b1 = span(thunk.body)
            assert isinstance(key.value, str) and key.value.endswith(") " + src[b0:b1])
            out += [src[pos:start], render(b0, b1)]
            pos = end
        return "".join(out) + src[pos:hi]

    return render(0, len(src))


@pytest.fixture
def sympy_calls(monkeypatch):
    """Record each derivative step ``smooth._diff`` takes as (symbol, order,
    result), and each expression ``smooth.lambdify`` compiles with its
    printer class and the callable."""
    diffs, lambdified = [], []
    _diff, lambdify = smooth._diff, smooth.lambdify

    def diff(*args):
        out = _diff(*args)
        diffs.append((*args[1:], out))
        return out

    def compiling(printer, names, expr):
        fn = lambdify(printer, names, expr)
        lambdified.append((expr, type(printer), fn))
        return fn

    monkeypatch.setattr(smooth, "_diff", diff)
    monkeypatch.setattr(smooth, "lambdify", compiling)
    return diffs, lambdified


def _poly3():
    x, y, z = sp.symbols("x y z")
    return (1 + x * y - 2 * z ** 2) ** 3 + x ** 4 * z - y ** 3 * z ** 2, (x, y, z)


def _smoothstep_product2():
    x, y = sp.symbols("x y")
    return (smoothstep_expr((x + sp.Rational(3, 2)) / sp.Rational(3, 10))
            * smoothstep_expr((1 - y) / 0.6)), (x, y)


@pytest.mark.parametrize("build", [_poly3, _smoothstep_product2])
def test_derivatives_from_the_parent_match_from_scratch(build, sympy_calls):
    diffs, lambdified = sympy_calls
    expr, symbols = build()
    dim = len(symbols)
    f = from_sympy(expr, symbols)
    alphas = mi.up_to(dim, 3)
    order = np.random.default_rng(3).permutation(len(alphas))  # parents not first
    pts = np.random.default_rng(4).uniform(-1.6, 1.6, size=(64, dim))
    for j in order:
        alpha = alphas[j]
        got = f._partial_fn(alpha, pts)
        f._partial_fn(alpha, pts)  # a repeat compiles and differentiates nothing
        d, printer, fn = lambdified[-1]
        assert d == _diff_from_scratch(expr, symbols, alpha), alpha
        assert printer is smooth._NumPyAtomPrinter
        # each atom wraps lambdify's text: unwrapped, the code is lambdify's
        # but for the Piecewise, printed as nested where (the values below
        # stay bitwise)
        assert (_unwrap_atoms(inspect.getsource(fn))
                == inspect.getsource(_LAMBDIFY(symbols, d, modules=[np],
                                               printer=_WherePrinter(_LAMBDIFY_SETTINGS))))
        want = _reference_values(expr, symbols, alpha, pts)
        assert got.tobytes() == want.tobytes(), alpha
    assert len(lambdified) == len(alphas)
    assert len(diffs) == len(alphas) - 1  # one per distinct nonzero multi-index


def test_a_vanishing_derivative_is_not_printed(sympy_calls):
    """A derivative that is 0 compiles nothing; its values are the bits the
    compiled ``0`` gives, flat, on a registered lattice and on its open mesh."""
    _, lambdified = sympy_calls
    x, y = sp.symbols("x y")
    expr = x ** 2 * y + sp.sin(x)
    f = from_sympy(expr, [x, y])
    pts, mesh = _mesh_lattice("9x4", 2)
    alphas = mi.up_to(2, 3)
    for alpha in alphas:
        want = _reference_values(expr, (x, y), alpha, pts)
        for block in (contextlib.nullcontext(), smooth.leaf_memo(pts),
                      smooth.leaf_memo((pts, mesh))):
            with block:
                got = f._partial_fn(alpha, pts)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), alpha
    vanishing = [alpha for alpha in alphas if f.vanishes(alpha)]
    assert vanishing == [(0, 2), (0, 3), (1, 2)]
    assert len(lambdified) == len(alphas) - len(vanishing)
    assert all(d != 0 for d, _, _ in lambdified)


def test_a_derivative_extends_its_parent_by_one_axis(sympy_calls):
    diffs, _ = sympy_calls
    x, y = sp.symbols("x y")
    f = from_sympy(sp.sin(x * y) * sp.exp(y), [x, y])
    pts = np.zeros((3, 2))
    f._partial_fn((2, 1), pts)  # (0, 0) -> (2, 0) -> (2, 1)
    assert [d[:2] for d in diffs] == [(x, 2), (y, 1)]
    f._partial_fn((2, 0), pts)
    f._partial_fn((2, 3), pts)  # (2, 0) -> (2, 3)
    assert [d[:2] for d in diffs[2:]] == [(y, 3)]


@pytest.mark.parametrize("make", [sp.erf, sp.gamma, lambda v: sp.besselj(0, v)],
                         ids=["erf", "gamma", "besselj0"])
def test_functions_numpy_lacks_lambdify_against_scipy(make, sympy_calls):
    _, lambdified = sympy_calls
    x = sp.Symbol("x")
    expr = make(x)
    assert smooth._modules(expr) is smooth._SciPyAtomPrinter
    assert smooth._SciPyAtomPrinter.modules == ("numpy", "scipy")
    f = from_sympy(expr, [x])
    pts = np.linspace(0.3, 4.0, 37).reshape(-1, 1)
    for k in range(3):
        want = _reference_values(expr, (x,), (k,), pts)
        assert f._partial_fn((k,), pts).tobytes() == want.tobytes(), k
        # a derivative may need numpy alone (erf' is a Gaussian)
        d, printer, fn = lambdified[-1]
        assert printer is smooth._modules(d)
        assert (_unwrap_atoms(inspect.getsource(fn))
                == inspect.getsource(_LAMBDIFY((x,), d, modules=list(printer.modules))))


def _leaves_built_by(module, build):
    """The (expression, symbols) pairs ``module`` hands ``from_sympy`` in ``build()``."""
    seen = []

    def recording(expr, symbols, *args, **kwargs):
        seen.append((expr, tuple(symbols)))
        return from_sympy(expr, symbols, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "from_sympy", recording)
        build()
    return seen


def _probes(manifold):
    return _leaves_built_by(tensor, lambda: tensor.random_coherent_functions(
        manifold, count=2, seed=4))


_T = sp.Symbol("t", real=True)
# the glue bump exp(-1/t), cut to 0 at t <= tau, and the smoothstep in t
_GLUE_BUMP = sp.Piecewise((sp.exp(-1 / _T), _T > smooth._GLUE_TAU), (sp.Integer(0), True))
# every family of leaf the library builds, and one undefined function
_LEAF_FAMILIES = {
    "probes-euclidean3": lambda: _probes(manifolds.euclidean(3)),
    "probes-circle": lambda: _probes(manifolds.circle()),
    "probes-torus2": lambda: _probes(manifolds.torus2()),
    "circle-partition": lambda: _leaves_built_by(manifolds, manifolds.circle)[:1],
    "circle-wrap": lambda: [leaf for leaf in _leaves_built_by(manifolds, manifolds.circle)
                            if leaf[0].has(sp.pi)][:1],
    "smoothstep": lambda: [(smoothstep_expr((X0 + sp.Rational(3, 2)) / sp.Rational(3, 10)),
                            (X0,))],
    "glue-bump": lambda: [(_GLUE_BUMP, (_T,))],
    "glue-step": lambda: [(smoothstep_expr(_T), (_T,))],
    "window": lambda: [(experiments._window_expr(1.2, 2.0), (experiments.X,))],
    "mechanics-bump": lambda: _leaves_built_by(mechanics, mechanics.bump_profile),
    # golden_ratio is imported from scipy.constants on first use
    "erf": lambda: [(sp.erf(X0) * X1 * sp.GoldenRatio, (X0, X1))],
    "gamma": lambda: [(sp.gamma(X0), (X0,))],
    "besselj": lambda: [(sp.besselj(1, X0 * X1), (X0, X1))],
    "undefined": lambda: [(sp.Function("f")(X0 ** 2) * sp.sin(X0), (X0,))],
}


def _outcome(run):
    """What ``run()`` returns, or the type of what it raises."""
    try:
        return run()
    except Exception as err:
        return type(err)


@pytest.mark.parametrize("family", sorted(_LEAF_FAMILIES))
def test_compiled_leaves_are_sympys_own(family, sympy_calls):
    """Derivatives are ``sp.diff``'s by ``srepr``, sources ``sp.lambdify``'s once the
    atoms are unwrapped, and values bitwise, at orders 0-3; where sympy raises,
    the leaf raises the same."""
    diffs, _ = sympy_calls
    leaves = _LEAF_FAMILIES[family]()
    assert leaves
    for expr, symbols in leaves:
        f = from_sympy(expr, symbols)
        pts = np.random.default_rng(5).uniform(-1.6, 1.6, size=(40, len(symbols)))
        for alpha in mi.up_to(len(symbols), 3):  # parents first: one step each
            before = len(diffs)
            got = _outcome(lambda: f._partial_fn(alpha, pts))
            d = diffs[-1][2] if any(alpha) else expr
            assert len(diffs) == before + any(alpha)
            d_ref = _diff_from_scratch(expr, symbols, alpha)
            assert sp.srepr(d) == sp.srepr(d_ref), alpha
            want = _outcome(lambda: _reference_values(expr, symbols, alpha, pts, d_ref))
            printer = smooth._modules(d)
            base = _WherePrinter if printer is smooth._NumPyAtomPrinter else _SciPyWherePrinter
            src = _outcome(lambda: inspect.getsource(f._lambdified(alpha)))
            ref = _outcome(lambda: inspect.getsource(_LAMBDIFY(
                symbols, d, modules=list(printer.modules), printer=base(_LAMBDIFY_SETTINGS))))
            assert (_unwrap_atoms(src) if isinstance(src, str) else src) == ref, alpha
            if isinstance(want, np.ndarray):
                assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                                      np.ascontiguousarray(want).view(np.int64)), alpha
            else:
                assert got is want, alpha


# -- leaves on an open mesh ---------------------------------------------------


def _torus_image_axes(n):
    """The open mesh of the image lattice of the torus transition AA -> BB
    (four boxes of n x n points): axis arrays of shapes (4, n, 1), (4, 1, n)."""
    t2 = manifolds.torus2()
    x = np.concatenate([box_lattice(box, n) for box in t2.atlas.overlap_boxes[("AA", "BB")]])
    y = t2.atlas.transitions[("AA", "BB")].fn(x)
    mesh = gfunc._open_mesh(y, n)
    assert mesh is not None and [m.shape for m in mesh] == [(4, n, 1), (4, 1, n)]
    return mesh


def _mesh_lattice(kind, dim):
    """(read-only lattice, its open mesh) in ``dim`` axes: boxes of n^dim
    product-grid points at seeded abscissae for ``kind`` "n x boxes"; or the
    axes of a torus image lattice, taken in turn, for "torus-image"."""
    if kind == "torus-image":
        axes = _torus_image_axes(61)
        mesh = [axes[i % 2] for i in range(dim)]
    else:
        n, boxes = map(int, kind.split("x"))
        rng = np.random.default_rng(dim)
        mesh = [rng.uniform(-1.6, 1.6, size=boxes * n).reshape(
            (boxes,) + tuple(n if j == i else 1 for j in range(dim))) for i in range(dim)]
    pts = np.stack(np.broadcast_arrays(*mesh), axis=-1).reshape(-1, dim).copy()
    pts.flags.writeable = False
    return pts, mesh


@pytest.mark.parametrize("kind", ["9x1", "9x4", "61x1", "61x4", "torus-image"])
@pytest.mark.parametrize("family", sorted(_LEAF_FAMILIES))
def test_leaves_on_an_open_mesh_are_bitwise_flat(family, kind):
    """A leaf evaluated through a registered lattice's per-axis arrays gives its
    flat-column values bit for bit at orders 0-2 (odd axis lengths leave SIMD
    tail lanes), or raises what the flat call raises."""
    for expr, symbols in _LEAF_FAMILIES[family]():
        f, dim = from_sympy(expr, symbols), len(symbols)
        pts, mesh = _mesh_lattice(kind, dim)
        if dim > 1 and kind != "torus-image":  # the builder finds the same mesh
            n = mesh[0].shape[1]
            assert [m.tobytes() for m in gfunc._open_mesh(pts, n)] == \
                [m.tobytes() for m in mesh]
        for alpha in mi.up_to(dim, 2):
            flat = _outcome(lambda: f._partial_fn(alpha, pts))
            with smooth.leaf_memo((pts, mesh)):  # one block per multi-index: small memo
                got = _outcome(lambda: f._partial_fn(alpha, pts))
            if isinstance(flat, np.ndarray):
                assert got.shape == (len(pts),) and got.tobytes() == flat.tobytes(), alpha
            else:
                assert got is flat, alpha


def test_open_mesh_needs_product_grids():
    n = 9
    pts = box_lattice(((-1.0, 1.0), (0.0, 2.0)), n)
    assert [m.shape for m in gfunc._open_mesh(pts, n)] == [(1, n, 1), (1, 1, n)]
    assert gfunc._open_mesh(pts[:, ::-1].copy(), n) is None  # axes swapped: a quarter turn
    assert gfunc._open_mesh(pts[:, :1].copy(), n) is None  # 1-d: the columns serve
    bent = pts.copy()
    bent[5, 1] = np.nextafter(bent[5, 1], 9.0)  # one bit off the grid
    assert gfunc._open_mesh(bent, n) is None
    signed = pts.copy()
    signed[np.flatnonzero(signed[:, 0] == 0.0)[0], 0] = -0.0  # -0.0 is another bit pattern
    assert gfunc._open_mesh(signed, n) is None


def test_leaf_memo_checks_and_drops_its_meshes():
    x, y = sp.symbols("x y")
    f = from_sympy(sp.sin(x) * sp.cos(y), [x, y])
    pts, mesh = _mesh_lattice("9x4", 2)
    with pytest.raises(ValueError, match="mesh"):
        with smooth.leaf_memo((pts, mesh[:1])):  # an axis short
            pass
    with pytest.raises(ValueError, match="mesh"):
        with smooth.leaf_memo((pts, [mesh[0], mesh[1][..., :2]])):  # 72 points, not 324
            pass
    refs = [weakref.ref(m) for m in mesh]
    with smooth.leaf_memo((pts, mesh)):
        del mesh
        assert all(r() is not None for r in refs)  # the block holds the mesh
        v = f._partial_fn((1, 1), pts)
    assert smooth._memo is None
    assert all(r() is None for r in refs)  # and no longer after it
    assert v.tobytes() == f._partial_fn((1, 1), pts).tobytes()


# -- first derivatives without Derivative ------------------------------------


def _coherent(manifold):
    """The leaves ``random_coherent_functions`` builds on ``manifold``, seeds 0-2."""
    return [leaf for seed in range(3) for leaf in _leaves_built_by(
        tensor, lambda: tensor.random_coherent_functions(manifold, count=3, seed=seed))]


# the leaf families whose first derivatives the library takes
_FIRST_DERIVATIVE_FAMILIES = {
    "trig-circle": lambda: _coherent(manifolds.circle()),
    "trig-torus2": lambda: _coherent(manifolds.torus2()),
    "poincare-polynomials": lambda: _coherent(manifolds.euclidean(3)),
    "circle-partition": lambda: _leaves_built_by(manifolds, manifolds.circle),
    "bump": lambda: _leaves_built_by(
        gfunc, lambda: gfunc.default_densities(manifolds.torus2(), per_chart=1)),
    "window": lambda: [(experiments._window_expr(1.2, 2.0), (experiments.X,))],
    "mechanics-bump": lambda: _leaves_built_by(mechanics, mechanics.bump_profile),
    "nested": lambda: [(sp.sin(sp.cos(X0)), (X0,)), (sp.exp(-1 / X0), (X0,)),
                       (X0 ** X0, (X0,)),
                       (sp.Rational(2, 3) * X0 ** 3 - sp.Rational(1, 5) * sp.cos(X0 * X1)
                        + X1 / 7, (X0, X1))],
}


@pytest.mark.parametrize("family", sorted(_FIRST_DERIVATIVE_FAMILIES))
def test_first_derivatives_are_sympys_own(family):
    leaves = _FIRST_DERIVATIVE_FAMILIES[family]()
    assert leaves
    for expr, symbols in leaves:
        for s in symbols:
            clear_cache()  # neither side reads what the other built
            got = smooth._diff(expr, s, 1)
            clear_cache()
            want = _DIFF(expr, s)
            assert got == want and sp.srepr(got) == sp.srepr(want), (expr, s)


def test_first_derivatives_of_trig_and_polynomial_leaves_build_no_derivative(monkeypatch):
    leaves = [leaf for family in ("trig-circle", "trig-torus2", "poincare-polynomials")
              for leaf in _FIRST_DERIVATIVE_FAMILIES[family]()]
    new, calls = sp.Derivative.__new__, []

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(sp.Derivative, "__new__", staticmethod(counting))
    for expr, symbols in leaves:
        for s in symbols:
            smooth._diff(expr, s, 1)
    assert calls == []
    expr, symbols = leaves[0]
    _DIFF(expr, symbols[0])  # the wrapper sees sympy's own steps
    assert calls


class _NoRule(sp.Function):
    """A function whose derivative rule gives ``None``."""

    def _eval_derivative(self, s):
        return None


_F = sp.Function("f")


@pytest.mark.parametrize("expr", [
    sp.sin(X0) + _F(X0), X0 * _F(X0 ** 2),  # an undefined function
    sp.erf(X0) + X0 * sp.gamma(X0), sp.besselj(0, X0 ** 2) * X0,  # functions numpy lacks
    sp.sin(X0) + _NoRule(X0), X0 * _NoRule(X0) + 1,  # a rule that gives None
], ids=["undefined-sum", "undefined-product", "erf-gamma", "besselj0", "no-rule-sum",
        "no-rule-product"])
def test_first_derivatives_sympy_leaves_unevaluated_are_sympys_own(expr):
    got = smooth._diff(expr, X0, 1)
    assert sp.srepr(got) == sp.srepr(_DIFF(expr, X0))
    if expr.has(_NoRule):
        with pytest.raises(smooth._Unhandled):  # the walk puts no None into a sum
            smooth._derivative(expr, X0, 1)
        assert got.has(sp.Derivative)


# -- derivatives of order >= 2 without Derivative ----------------------------


def test_derivatives_of_order_two_and_three_build_no_derivative(monkeypatch):
    leaves = [leaf for family in ("probes-euclidean3", "probes-circle", "probes-torus2",
                                  "smoothstep") for leaf in _LEAF_FAMILIES[family]()]
    new, calls, orders = sp.Derivative.__new__, [], set()

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(sp.Derivative, "__new__", staticmethod(counting))
    for expr, symbols in leaves:
        dim = len(symbols)
        exprs = {(0,) * dim: expr}
        for alpha in mi.up_to(dim, 3)[1:]:  # parents first, as from_sympy takes them
            i = max(i for i, k in enumerate(alpha) if k)
            orders.add(alpha[i])
            exprs[alpha] = smooth._diff(exprs[alpha[:i] + (0,) * (dim - i)], symbols[i],
                                        alpha[i])
    assert calls == [] and orders == {1, 2, 3}
    _DIFF(expr, symbols[0], 2)  # the wrapper sees sympy's own steps
    assert calls


@pytest.mark.parametrize("expr", [
    X0 ** 2 / 2 + 3,  # a sum whose first step is a bare symbol
    sp.exp(X0), sp.exp(X0) + X0,  # fixed points
    3 + 2 * X0 ** 3,  # a sum whose first step is a product
    X0 ** 3 * sp.sin(X0), X0 * sp.exp(X0 ** 2),  # factors differentiated twice or more
    sp.exp(-1 / X0) / (sp.exp(-1 / X0) + sp.exp(-1 / (1 - X0))),  # ... and simplified
    X0 ** X0, sp.sin(sp.cos(X0)), sp.Rational(1, 3) * X0 ** 4,
], ids=["half-square", "exp", "exp-sum", "cubic-sum", "cubic-sin", "x-gauss", "step-ratio",
        "power-tower", "sin-cos", "third-quartic"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_derivatives_of_order_two_to_four_are_sympys_own(expr, n):
    clear_cache()  # neither side reads what the other built
    got = smooth._derivative(expr, X0, n)  # the walk alone: no fallback
    clear_cache()
    assert sp.srepr(got) == sp.srepr(_DIFF(expr, X0, n))


def test_a_derivative_known_to_be_zero_is_not_simplified():
    x, z = sp.Symbol("x", real=True), sp.Symbol("z", zero=True)
    expr = z * x ** 3 + z * x ** 2
    got = smooth._derivative(expr, x, 2)  # 6*x*z + 2*z, not 2*z*(3*x + 1)
    assert got.is_zero and sp.srepr(got) == sp.srepr(_DIFF(expr, x, 2))


def _float_polynomial(rng, symbols, s, n, negative):
    """A seeded polynomial in ``symbols`` with Float coefficients, mixed
    monomials among its terms, whose n-th derivative along ``s`` keeps a
    nonzero constant term; every coefficient negative if ``negative``."""
    def coefficient():
        if rng.random() < 0.3:
            c = float(rng.integers(1, 6))  # an integral Float such as 4.0
        else:
            c = float(rng.choice([1e-3, 1.0, 1e3]) * rng.uniform(0.5, 2.0))
        return sp.Float(-c if negative or rng.random() < 0.5 else c)

    # the constant and a term in s of the n-th derivative
    terms = [coefficient() * s ** n, coefficient() * s ** (n + int(rng.integers(1, 3)))]
    for _ in range(rng.integers(1, 5)):
        terms.append(coefficient() * sp.Mul(*[x ** int(rng.integers(0, 4)) for x in symbols]))
    return sp.Add(*terms)


@pytest.fixture
def simplifiers(monkeypatch):
    """Record, while ``on`` is set, each ``factor_terms`` call and each
    ``is_zero`` query that ``_derivative`` itself makes (sympy's own
    constructors ask ``is_zero`` of their arguments too)."""
    calls, on, is_zero = [], [], sp.Expr.is_zero
    factor_terms, walk = smooth.factor_terms, smooth._derivative.__code__

    def factoring(expr, *args, **kwargs):
        calls.extend(("factor_terms", expr) for _ in on)
        return factor_terms(expr, *args, **kwargs)

    def query(expr):
        if sys._getframe(1).f_code is walk:
            calls.extend(("is_zero", expr) for _ in on)
        return is_zero.fget(expr)

    monkeypatch.setattr(smooth, "factor_terms", factoring)
    monkeypatch.setattr(sp.Expr, "is_zero", property(query))
    return calls, on


def test_float_polynomial_derivatives_skip_the_simplifiers_and_are_sympys_own(simplifiers):
    """In the Float-polynomial class the common-sign rule is all that
    ``is_zero`` and ``factor_terms(signsimp(.))`` would do."""
    calls, on = simplifiers
    rng = np.random.default_rng(0)
    negated = 0
    for case in range(120):
        symbols = sp.symbols(f"x0:{case % 3 + 1}")
        s, n = symbols[int(rng.integers(len(symbols)))], 2 + case % 2
        expr = _float_polynomial(rng, symbols, s, n, negative=case % 4 == 0)
        clear_cache()  # neither side reads what the other built
        on.append(True)
        got = smooth._derivative(expr, s, n)
        on.clear()
        clear_cache()
        assert sp.srepr(got) == sp.srepr(_DIFF(expr, s, n)), (expr, s, n)
        negated += got.is_Mul and got.args[0] is sp.S.NegativeOne
    assert calls == [] and 30 <= negated < 120


@pytest.mark.parametrize("expr", [
    sp.Float(0.5) * X0 ** 4 + sp.Float(0.25) * X0 ** 3,  # no constant: x0*(6.0*x0 + 1.5)
    X0 ** 3 / 3 + 2 * X0 ** 2,  # Rational coefficients: 2*(x0 + 2)
    sp.Float(0.5) * X0 ** 2 * sp.sin(X0) + sp.Float(1.0) * X0 ** 3,
    sp.Piecewise((sp.Float(0.5) * X0 ** 3, X0 > 0), (sp.Float(1.0) * X0 ** 2, True)),
], ids=["no-constant", "rational", "trig", "piecewise"])
def test_derivatives_outside_the_float_polynomial_class_take_sympys_simplifiers(
        expr, simplifiers):
    calls, on = simplifiers
    clear_cache()
    on.append(True)
    got = smooth._derivative(expr, X0, 2)
    on.clear()
    clear_cache()
    assert sp.srepr(got) == sp.srepr(_DIFF(expr, X0, 2))
    assert [c[0] for c in calls] == ["is_zero", "factor_terms"]


def test_poincare_second_derivatives_skip_the_simplifiers(simplifiers):
    calls, on = simplifiers
    probes = _leaves_built_by(tensor, lambda: forms.random_kform(
        manifolds.euclidean(3, 1.0), 1, seed=0))
    steps = [(expr, s) for expr, symbols in probes for s in symbols]
    clear_cache()
    on.append(True)
    got = [smooth._diff(expr, s, 2) for expr, s in steps]
    on.clear()
    assert len(steps) == 9 and calls == []
    clear_cache()
    assert [sp.srepr(d) for d in got] == [sp.srepr(_DIFF(e, s, 2)) for e, s in steps]


@pytest.mark.parametrize("expr", [
    sp.Mul(2, X0 ** 3 + X0, sp.sin(X0)),  # binary products: 2*(3*x**2 + 1) is distributed
    sp.Pow(0, sp.Symbol("y")),  # no zero where x is not free: 0*log(0) is nan
    sp.Piecewise((X0 ** 2, X0 > 1), (sp.exp(X0), True)),
    sp.sin(X0) ** 3, sp.exp(X0) + X0, sp.sin(sp.cos(X0)), X0, sp.Integer(3),
], ids=["product", "zero-power", "piecewise", "power", "sum", "chain", "symbol", "number"])
def test_a_step_is_the_nodes_own_rule(expr):
    assert sp.srepr(smooth._step(expr, X0)) == sp.srepr(expr._eval_derivative(X0))


@pytest.mark.parametrize("expr", [_NoRule(X0), X0 ** 2 * _NoRule(X0)],
                         ids=["no-rule", "no-rule-product"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_derivatives_of_order_two_to_four_sympy_leaves_unevaluated_are_sympys_own(expr, n):
    with pytest.raises(smooth._Unhandled):
        smooth._derivative(expr, X0, n)
    got = smooth._diff(expr, X0, n)
    assert got.has(sp.Derivative)
    assert sp.srepr(got) == sp.srepr(_DIFF(expr, X0, n))


@pytest.mark.parametrize("symbol", [sp.Dummy("d"), sp.Symbol("lambda"), sp.Symbol("x.1")],
                         ids=["dummy", "keyword", "dotted"])
def test_first_derivatives_over_stand_ins_are_sympys_own(symbol, sympy_calls):
    diffs, _ = sympy_calls
    y = sp.Symbol("y")
    expr = symbol ** 2 * sp.exp(symbol) * y + sp.sin(y * symbol)
    f = from_sympy(expr, [symbol, y])
    pts = _plane()
    for alpha, s in [((1, 0), symbol), ((0, 1), y)]:
        want = _reference_values(expr, (symbol, y), alpha, pts)
        assert f._partial_fn(alpha, pts).tobytes() == want.tobytes(), alpha
        assert diffs[-1][:2] == (s, 1)
        assert sp.srepr(diffs[-1][2]) == sp.srepr(_DIFF(expr, s)), alpha


class _SympyArithmetic(smooth._NumPyAtomPrinter):
    """The atom printer with sympy's own printing of sums and products."""

    _print_Add, _print_Mul = StrPrinter._print_Add, CodePrinter._print_Mul


class _SciPySympyArithmetic(smooth._SciPyAtomPrinter):
    _print_Add, _print_Mul = StrPrinter._print_Add, CodePrinter._print_Mul


_Y, _POS = sp.Symbol("y"), sp.Symbol("t", positive=True)
_F15 = sp.Float("1.23456789012345", 15)


@pytest.mark.parametrize("expr", [
    -X0 + sp.sin(X1), -sp.cos(X0) - 2 * X1,  # a leading negative term
    -sp.sin(X0), -X0, -X0 ** 3, -sp.Float(1.0) * X0,  # a coefficient of -1
    3 * X0, -3 * sp.exp(X1), sp.Rational(2, 3) * X0, -sp.Rational(2, 3) * sp.sin(X0),
    _F15 * sp.cos(X0), -_F15 * X1 ** 2,  # Integer, Rational and Float coefficients
    X0 + sp.Float(0.5), sp.Float(2.5),  # a Float printed inside a sum and alone
    sp.diff(sp.Float(2.5) * X0, X0), sp.sin(X0) - sp.Float(0.25),
    X0 ** 2, X0 ** -2, 3 * X0 ** -2, -X0 ** sp.Rational(1, 2), 2 * X0 * X1, -2 * X0 * _Y,
    sp.Mul(2, X0 + 1, evaluate=False), sp.Mul(-_F15, X0 - sp.sin(X1), evaluate=False),
    sp.Mul(-1, X0 + sp.sin(X1), evaluate=False), sp.exp(-1 / _POS), -2 * sp.exp(-1 / _POS),
    sp.Piecewise((2 * X0, X0 > 0.3), (-sp.Rational(1, 2) * sp.cos(X0) * X1, True)) - X1,
    -3 * sp.erf(X0) + X1, sp.Add(X0, sp.Add(X1, 2, evaluate=False), evaluate=False),
])
def test_sums_and_products_print_as_sympy_prints_them(expr):
    """The library's ``_print_Add`` and ``_print_Mul`` against sympy's, on each
    branch and fallback, with the scipy printer where sympy would pick it."""
    scipy = smooth._modules(expr) is smooth._SciPyAtomPrinter
    ours, ref = ((smooth._SciPyAtomPrinter, _SciPySympyArithmetic) if scipy
                 else (smooth._NumPyAtomPrinter, _SympyArithmetic))
    got, want = ours("x0,x1"), ref("x0,x1")
    assert got.doprint(expr) == want.doprint(expr)
    assert got.module_imports == want.module_imports


@pytest.mark.parametrize("manifold", [manifolds.circle, manifolds.torus2])
def test_probe_leaves_print_without_sympys_sum_and_product_printers(manifold, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sympy's printer was asked")

    leaves = _probes(manifold())
    monkeypatch.setattr(StrPrinter, "_print_Add", refuse)
    monkeypatch.setattr(CodePrinter, "_print_Mul", refuse)
    for expr, symbols in leaves:
        f = from_sympy(expr, symbols)
        for alpha in mi.up_to(len(symbols), 2):
            assert callable(f._lambdified(alpha))


# a Number times one factor, as the shortcuts of ``_derivative``, ``_print_Mul``
# and ``_as_ordered_terms`` see them: Integer, Rational and Float coefficients
# of both signs, +-1 among them
_NUMBERS = st.one_of(
    st.sampled_from([sp.S.One, sp.S.NegativeOne, sp.Float(1.0), sp.Float(-1.0)]),
    st.integers(-12, 12).filter(bool).map(sp.Integer),
    st.builds(sp.Rational, st.integers(-12, 12).filter(bool), st.integers(2, 9)),
    st.floats(-20, 20, allow_nan=False, allow_infinity=False).filter(bool).map(sp.Float))


def _factor(kind, k):
    return [sp.sin(k * X0), sp.cos(k * X1), sp.exp(-1 / X0), X0 ** (k + 1), 1 / X1,
            smoothstep_expr((X0 + 1) / 2), X0 * X1, sp.pi * X0][kind]


def _assert_shortcuts_are_sympys(expr):
    """``_diff`` is ``sp.diff`` along each symbol, and every sum of ``expr`` and
    of those derivatives has sympy's term order and, atoms unwrapped, sympy's
    source."""
    exprs = [expr]
    for s in sorted(expr.free_symbols, key=str):
        d, want = smooth._diff(expr, s, 1), _DIFF(expr, s)
        assert d == want and sp.srepr(d) == sp.srepr(want), s
        exprs.append(d)
    printer = smooth._NumPyAtomPrinter("x0,x1")
    for e in exprs:
        for a in sp.preorder_traversal(e):
            if a.is_Add:
                assert printer._as_ordered_terms(a) == a.as_ordered_terms()
        if e.has(sp.zoo):  # lambdify prints no zoo
            continue
        src = inspect.getsource(smooth.lambdify(smooth._modules(e)("x0,x1"), ["x0", "x1"], e))
        assert _unwrap_atoms(src) == inspect.getsource(_LAMBDIFY(
            (X0, X1), e, modules=[np], printer=_WherePrinter(_LAMBDIFY_SETTINGS)))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.lists(st.tuples(_NUMBERS, st.integers(0, 7), st.integers(1, 3)),
                min_size=1, max_size=4))
def test_derivative_and_printing_shortcuts_are_sympys_own(terms):
    _assert_shortcuts_are_sympys(sp.Add(*[c * _factor(kind, k) for c, kind, k in terms]))


_INFINITE = sp.Symbol("w", infinite=True)


@pytest.mark.parametrize("expr", [
    sp.I * sp.sin(X0) - 2 * X1,  # a complex number factor
    sp.oo * sp.cos(X0) + X1, -sp.oo * X0 ** 2 + sp.sin(X1),  # infinite coefficients
    sp.zoo * X0 + sp.sin(X1),  # a complex-infinite factor
    3 * _INFINITE + sp.sin(X0),  # 0 * w is nan, not 0: the Leibniz terms are kept
], ids=["I", "oo", "-oo", "zoo", "infinite-symbol"])
def test_shortcut_fallbacks_are_sympys_own(expr, monkeypatch):
    ordered, products = [], []
    monkeypatch.setattr(Printer, "_as_ordered_terms", _recorded(Printer._as_ordered_terms, ordered))
    monkeypatch.setattr(smooth, "_multinomial", _recorded(smooth._multinomial, products))
    _assert_shortcuts_are_sympys(expr)
    if expr.has(_INFINITE):
        assert sp.Mul(0, _INFINITE) is sp.nan and products  # 3*w took the Leibniz terms
    else:
        assert ordered  # some sum was ordered by sympy


def _recorded(fn, calls):
    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return recording


class _ScaledSum(sp.Function):
    """A function whose derivative is the unevaluated product 3*(x + x1)."""

    def fdiff(self, argindex=1):
        return sp.Mul(3, self.args[0] + X1, evaluate=False)


def test_a_number_times_a_scaled_sum_keeps_sympys_product():
    # 2 * 3*(x0 + x1) is the held 6*(x0 + x1), where 6 * (x0 + x1) would expand
    expr = 2 * _ScaledSum(X0)
    _assert_shortcuts_are_sympys(expr)
    assert sp.srepr(smooth._diff(expr, X0, 1)) == sp.srepr(sp.Mul(6, X0 + X1, evaluate=False))


def test_order_terms_are_ordered_by_sympy(monkeypatch):
    ordered = []
    monkeypatch.setattr(Printer, "_as_ordered_terms", _recorded(Printer._as_ordered_terms, ordered))
    expr = 1 + X0 - 2 * X0 ** 2 + sp.O(X0 ** 3)
    got = smooth._NumPyAtomPrinter("x0")._as_ordered_terms(expr)
    assert got == expr.as_ordered_terms() and got[-1].is_Order and ordered


@pytest.mark.parametrize("alpha", ["1", (1.7,), (1.0,), ("1",), (np.float64(1.0),)])
def test_multi_index_entries_must_be_integers(alpha):
    x = sp.Symbol("x")
    f = from_sympy(x ** 2, [x])
    with pytest.raises(TypeError, match="is not an integer"):
        f.partial(alpha, 3.0)
    assert f.partial((np.int64(1),), 3.0) == f.partial([1], 3.0) == 6.0


@pytest.mark.parametrize("name", ["lambda", "x.1"])
def test_arguments_that_are_no_identifiers_share_their_atoms(name, atom_runs):
    # lambdify printed such an argument as a fresh Dummy_N per derivative,
    # so exp(Dummy_34) and exp(Dummy_35) were two atoms on one lattice
    runs, _ = atom_runs
    a, y = sp.Symbol(name), sp.Symbol("y")
    expr = a ** 2 * sp.exp(a) * y + sp.sin(y)
    f = from_sympy(expr, [a, y])
    pts = _plane()
    with smooth.leaf_memo(pts):
        for alpha in [(1, 0), (2, 0), (1, 1)]:
            want = _reference_values(expr, (a, y), alpha, pts)
            assert f._partial_fn(alpha, pts).view(np.int64).tolist() \
                == want.view(np.int64).tolist(), alpha
    assert runs == {f"numpy({name},y) exp(Dummy_0)": 1}


def test_an_undefined_function_leaf_names_the_function():
    """With scipy importable too; ``tests/test_cli.py`` runs it without."""
    x = sp.Symbol("x")
    leaf = from_sympy(sp.Function("f")(x), [x])
    assert smooth._modules(sp.Function("f")(x)) is smooth._NumPyAtomPrinter
    with pytest.raises(NameError, match="'f'") as err:
        leaf(0.5)
    assert err.value.name == "f"


def test_library_functions_lambdify_against_numpy_alone():
    th = sp.Symbol("theta")
    for expr in (smoothstep_expr(sp.cos(th) / 2), sp.sin(th) * sp.exp(th),
                 sp.Piecewise((th, th < sp.pi), (th - 2 * sp.pi, True))):
        assert smooth._modules(expr) is smooth._NumPyAtomPrinter
    assert smooth._NumPyAtomPrinter.modules == (np,)


def test_smoothstep_is_the_substituted_glue_step(monkeypatch):
    """Every argument the library and the shared fixtures pass is checked."""
    seen = []

    def recording(u):
        seen.append(u)
        return smoothstep_expr(u)

    for mod in (manifolds, gfunc, experiments, conftest):
        monkeypatch.setattr(mod, "smoothstep_expr", recording)
    gfunc.default_densities(manifolds.circle(), per_chart=2)  # two bumps per chart
    experiments._window_expr(1.2, 2.0)
    conftest.build_cubic_line()
    assert len(seen) == 5 + 2 * 2 * 2 + 2 + 4
    assert any(isinstance(a, sp.Rational) and not a.is_integer
               for u in seen for a in u.atoms(sp.Number))
    for u in seen + [sp.Symbol("t", real=True)]:
        assert sp.srepr(smoothstep_expr(u)) == sp.srepr(_smoothstep_by_subs(u)), u
