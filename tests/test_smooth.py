"""SmoothFn: exact derivative algebra and shape handling."""

import ast
import inspect
import weakref

import conftest
import numpy as np
import pytest
import sympy as sp

from colombeau import _mindex as mi
from colombeau import embed, experiments, forms, gfunc, manifolds, mechanics, smooth
from colombeau.errors import DerivativeUnavailable, DimensionMismatch
from colombeau.mollifier import build_mollifier
from colombeau.nets import Net
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


def test_where_combinator():
    one = constant(1.0, 1)
    two = constant(2.0, 1)
    f = one.where(lambda p: p[:, 0] > 0, two)
    xs = np.array([-1.0, 1.0])
    assert np.allclose(f(xs), [2.0, 1.0])


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
    t, _, step = smooth.glue_exprs()
    s = from_sympy(step, [t])
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
    """sin as a sympy leaf, and the list its lambdified callables append to."""
    calls = []
    lambdify = sp.lambdify

    def counting(*args, **kwargs):
        fn = lambdify(*args, **kwargs)

        def wrapped(*cols):
            calls.append(len(cols[0]))
            return fn(*cols)

        return wrapped

    monkeypatch.setattr(sp, "lambdify", counting)
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
    """The runs of each atom's thunk by key, for leaves lambdified from now on;
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

    monkeypatch.setitem(smooth._ATOM_NAMESPACE, "_atom", counting)
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


# -- derivative chain and module choice ----------------------------------


def _diff_from_scratch(expr, symbols, alpha):
    """Reference: the derivative differentiated from ``expr`` axis by axis."""
    d = expr
    for s, k in zip(symbols, alpha):
        if k:
            d = _DIFF(d, s, k)
    return d


def _reference_values(expr, symbols, alpha, pts):
    """Reference: the from-scratch derivative lambdified against numpy and scipy."""
    fn = _LAMBDIFY(symbols, _diff_from_scratch(expr, symbols, alpha),
                   modules=["numpy", "scipy"])
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


def _unwrap_atoms(src):
    """``src`` with each ``_atom(key, lambda: X)`` replaced by the text X,
    after checking that the key ends with that text."""
    while True:
        calls = [n for n in ast.walk(ast.parse(src))
                 if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_atom"]
        if not calls:
            return src
        call = calls[0]  # breadth first: no other atom encloses it
        key, thunk = call.args
        body = ast.get_source_segment(src, thunk.body)
        assert isinstance(key.value, str) and key.value.endswith(") " + body)
        lines = src.splitlines(keepends=True)
        start = sum(map(len, lines[:call.lineno - 1])) + call.col_offset
        end = sum(map(len, lines[:call.end_lineno - 1])) + call.end_col_offset
        src = src[:start] + body + src[end:]


@pytest.fixture
def sympy_calls(monkeypatch):
    """Record each ``sp.diff`` call, and each expression handed to ``sp.lambdify``
    with its modules and the callable it returned."""
    diffs, lambdified = [], []

    def diff(*args, **kwargs):
        diffs.append(args[1:])
        return _DIFF(*args, **kwargs)

    def lambdify(symbols, expr, modules=None, **kwargs):
        fn = _LAMBDIFY(symbols, expr, modules=modules, **kwargs)
        lambdified.append((expr, modules, fn))
        return fn

    monkeypatch.setattr(sp, "diff", diff)
    monkeypatch.setattr(sp, "lambdify", lambdify)
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
        f._partial_fn(alpha, pts)  # a repeat lambdifies and differentiates nothing
        d, modules, fn = lambdified[-1]
        assert d == _diff_from_scratch(expr, symbols, alpha), alpha
        assert modules == [smooth._ATOM_NAMESPACE, np]
        # lambdify skips only printing the docstring, and each atom wraps the
        # default's text: unwrapped, the code is the default's
        assert "EXPRESSION REDACTED" in fn.__doc__
        assert (_unwrap_atoms(inspect.getsource(fn))
                == inspect.getsource(_LAMBDIFY(symbols, d, modules=[np])))
        want = _reference_values(expr, symbols, alpha, pts)
        assert got.tobytes() == want.tobytes(), alpha
    assert len(lambdified) == len(alphas)
    assert len(diffs) == len(alphas) - 1  # one per distinct nonzero multi-index


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
    assert smooth._modules(expr).modules == [smooth._ATOM_NAMESPACE, "numpy", "scipy"]
    f = from_sympy(expr, [x])
    pts = np.linspace(0.3, 4.0, 37).reshape(-1, 1)
    for k in range(3):
        want = _reference_values(expr, (x,), (k,), pts)
        assert f._partial_fn((k,), pts).tobytes() == want.tobytes(), k
        # a derivative may need numpy alone (erf' is a Gaussian)
        d, modules, fn = lambdified[-1]
        assert modules == smooth._modules(d).modules and modules[0] is smooth._ATOM_NAMESPACE
        assert (_unwrap_atoms(inspect.getsource(fn))
                == inspect.getsource(_LAMBDIFY((x,), d, modules=modules[1:])))


def test_library_functions_lambdify_against_numpy_alone():
    th = sp.Symbol("theta")
    for expr in (smoothstep_expr(sp.cos(th) / 2), sp.sin(th) * sp.exp(th),
                 sp.Piecewise((th, th < sp.pi), (th - 2 * sp.pi, True))):
        assert smooth._modules(expr).modules == [smooth._ATOM_NAMESPACE, np]


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
