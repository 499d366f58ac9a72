"""Smooth functions with exact partial derivatives.

``SmoothFn`` wraps a vectorized evaluator for a C^inf function on R^dim
together with evaluators for its partial derivatives.  Derivatives are
analytic wherever possible (symbolic differentiation, closed-form rules
for products, affine substitutions, linear combinations).

Points are arrays of shape (..., dim); in dimension one a bare scalar or
a shape (m,) array is also accepted.

A ``from_sympy`` leaf differentiates once per multi-index, from its cached
parent: alpha with its last nonzero axis zeroed, differentiated along that
axis.  That is the chain of ``sp.diff`` calls of differentiating from
scratch axis by axis, so the expressions are unchanged.  A derivative is
lambdified against the numpy module, whose namespace spares the ``from
numpy import *`` that loads every numpy submodule, unless it names a
function numpy lacks (``erf``, ``gamma``, ``besselj``); only then is
``scipy.special`` loaded.  scipy is the optional ``colombeau[scipy]``
extra: without it such a derivative raises ``ImportError`` naming the
extra.  ``lambdify`` runs with ``docstring_limit=0``: the expression is
not printed a second time only to fill the callable's docstring.

The derivative is printed by a subclass of the printer lambdify would
pick (``NumPyPrinter``, or ``SciPyPrinter`` with scipy) that prints each
elementary-function call with free symbols (an *atom*: ``sin(y0)``,
``exp(-1/t)``; not a Piecewise, whose branches are printed as usual,
nor an undefined function) as ``_atom(key, lambda: <its usual source>)``.
The key is the text that runs: the module set, the parameter names in
order and the atom's source, so one key is one computation on the same
columns.  Everything around the atoms is printed as lambdify prints it,
except that a Piecewise is printed as nested ``numpy.where`` calls
rather than one ``numpy.select``: ``where`` picks the element ``select``
picks, at a few microseconds a call on a small array where ``select``
costs tens.  So every sum and product runs in the same order and the
values are bitwise those of plain ``lambdify``.

A ``leaf_memo(*lattices)`` block names the lattice arrays it sweeps.
Inside it each ``from_sympy`` leaf evaluates a given multi-index on a
registered lattice once; later calls with that same array object get
the stored values.  The memo is keyed by the identity of the array, not
by its contents: an equal-valued copy or a view is another lattice and
is evaluated afresh.  So a registered lattice must be read-only, and so
must the array it views, if any; the block holds a reference to each,
which keeps its id from being reused while the block runs.  Stored
values are read-only too.  Each registered lattice also has an atom
table: while a leaf evaluates on that lattice, ``_atom`` returns the
stored value of its key or runs the thunk once and stores the result,
read-only, so every leaf and multi-index on the lattice shares each
``sin``, ``cos`` or ``exp`` array.  Anywhere else ``_atom`` just runs
the thunk.  The memo lives only while the outermost block runs and is
dropped on exit, by exception too, so it holds at most the leaf values
and atoms of the lattices that one block registers.  Overlap-residual
sweeps open one block per group of transitions of at most
``gfunc.SWEEP_POINTS`` points and register one lattice per chart: the
group's points in it and their images in it.
"""

from __future__ import annotations

import contextlib
import warnings
from typing import Callable, Sequence

import numpy as np
import sympy as sp
from sympy.core.function import AppliedUndef
from sympy.logic.boolalg import ITE, simplify_logic
from sympy.printing.numpy import NumPyPrinter, SciPyPrinter

from . import _mindex as mi
from .errors import DerivativeUnavailable, DimensionMismatch

__all__ = ["SmoothFn", "from_sympy", "constant", "coordinate", "glue_exprs", "lift_axis",
           "leaf_memo"]

# id(lattice) -> (lattice, {(leaf, alpha): read-only values}, {key: atom})
# inside a leaf_memo block; holding the lattice keeps its id from being reused
_memo: dict[int, tuple[np.ndarray, dict, dict]] | None = None
# the atom table of the registered lattice a leaf is evaluating on, if any
_atoms: dict | None = None


@contextlib.contextmanager
def leaf_memo(*lattices: np.ndarray):
    """Evaluate each sympy leaf once per (multi-index, lattice) in this block.

    Only the ``lattices`` named here are memoized, by identity; each must
    be a read-only array whose base, if any, is read-only too, else
    ``ValueError``.  A nested block adds its lattices to the memo that
    is already open; the outermost block drops it on exit.
    """
    global _memo
    for a in lattices:
        if (not isinstance(a, np.ndarray) or a.flags.writeable
                or (isinstance(a.base, np.ndarray) and a.base.flags.writeable)):
            raise ValueError("a leaf_memo lattice must be a read-only array "
                             "that views no writable array")
    outer = _memo is None
    if outer:
        _memo = {}
    for a in lattices:
        _memo.setdefault(id(a), (a, {}, {}))
    try:
        yield
    finally:
        if outer:
            _memo = None


def _atom(key: str, thunk):
    """The atom ``key`` on the lattice being evaluated, computed at most once there."""
    table = _atoms
    if table is None:
        return thunk()
    out = table.get(key)
    if out is None:
        out = table[key] = thunk()
        if isinstance(out, np.ndarray):
            out.flags.writeable = False
    return out


def _as_points(x, dim: int):
    """Normalize ``x`` to shape (m, dim); return (flat, lead_shape)."""
    a = np.asarray(x, dtype=float)
    if dim == 1:
        if a.ndim == 0:
            return a.reshape(1, 1), ()
        if a.shape[-1] != 1:
            return a.reshape(-1, 1), a.shape
    if a.ndim == 0 or a.shape[-1] != dim:
        raise DimensionMismatch(f"points of shape {a.shape} are not in R^{dim}")
    return a.reshape(-1, dim), a.shape[:-1]


class SmoothFn:
    """A smooth function on R^dim with derivative evaluators.

    Parameters
    ----------
    dim : number of axes.
    partial_fn : callable (alpha, pts) -> values, with pts of shape (m, dim)
        and result of shape (m,).  ``alpha`` is a validated multi-index.
    max_order : highest derivative order supported, or None for unlimited.
    uses_fd : True when any derivative goes through finite differences.
    """

    def __init__(self, dim: int, partial_fn, max_order=None, uses_fd=False, label=""):
        self.dim = int(dim)
        self._partial_fn = partial_fn
        self.max_order = max_order
        self.uses_fd = bool(uses_fd)
        self.label = label

    # -- evaluation ---------------------------------------------------

    def partial(self, alpha, x):
        alpha = mi.check(alpha, self.dim)
        if self.max_order is not None and mi.order(alpha) > self.max_order:
            raise DerivativeUnavailable(
                f"order {mi.order(alpha)} exceeds max_order={self.max_order}"
            )
        pts, lead = _as_points(x, self.dim)
        with np.errstate(all="ignore"):
            vals = self._partial_fn(alpha, pts)
        if lead == ():
            return float(vals[0])
        return vals.reshape(lead)

    def __call__(self, x):
        return self.partial((0,) * self.dim, x)

    def __repr__(self):
        tag = self.label or "smooth"
        return f"<SmoothFn {tag} dim={self.dim}>"

    # -- algebra ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.dim)
        if other.dim != self.dim:
            raise DimensionMismatch("adding functions of different dimension")
        f, g = self, other

        def pfn(alpha, pts):
            return f._partial_fn(alpha, pts) + g._partial_fn(alpha, pts)

        return SmoothFn(self.dim, pfn, _min_order(f, g), f.uses_fd or g.uses_fd)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (_coerce(other, self.dim) * -1.0)

    def __rsub__(self, other):
        return _coerce(other, self.dim) + (self * -1.0)

    def __neg__(self):
        return self * -1.0

    def __mul__(self, other):
        if np.isscalar(other) and not isinstance(other, (str, bytes)):
            c = float(other)
            f = self

            def pfn(alpha, pts):
                return c * f._partial_fn(alpha, pts)

            return SmoothFn(self.dim, pfn, f.max_order, f.uses_fd)
        other = _coerce(other, self.dim)
        if other.dim != self.dim:
            raise DimensionMismatch("multiplying functions of different dimension")
        f, g = self, other

        def pfn(alpha, pts):
            # general Leibniz rule; exact given exact factor derivatives
            acc = np.zeros(pts.shape[0])
            for beta, c, rest in mi.leibniz_terms(alpha):
                acc = acc + c * f._partial_fn(beta, pts) * g._partial_fn(rest, pts)
            return acc

        return SmoothFn(self.dim, pfn, _min_order(f, g), f.uses_fd or g.uses_fd)

    __rmul__ = __mul__

    # -- composition with affine maps ---------------------------------

    def scale_shift(self, a, b):
        """The function x -> f(a*x + b) with a, b scalars or per-axis vectors."""
        a_vec = np.broadcast_to(np.asarray(a, dtype=float), (self.dim,)).copy()
        b_vec = np.broadcast_to(np.asarray(b, dtype=float), (self.dim,)).copy()
        f = self

        def pfn(alpha, pts):
            factor = float(np.prod(a_vec ** np.array(alpha)))
            return factor * f._partial_fn(alpha, pts * a_vec + b_vec)

        return SmoothFn(self.dim, pfn, f.max_order, f.uses_fd)

    def where(self, cond, other):
        """Piecewise select: self where ``cond(pts)`` holds, ``other`` elsewhere.

        Caller is responsible for the seam being harmless (both branches
        agreeing on a neighborhood of the switching set).
        """
        other = _coerce(other, self.dim)
        f, g = self, other

        def pfn(alpha, pts):
            mask = np.asarray(cond(pts), dtype=bool)
            va = f._partial_fn(alpha, pts)
            vb = g._partial_fn(alpha, pts)
            return np.where(mask, va, vb)

        return SmoothFn(self.dim, pfn, _min_order(f, g), f.uses_fd or g.uses_fd)


def _per_point(values, m: int) -> np.ndarray:
    """``values`` as float values of shape (m,), a scalar repeated m times."""
    out = np.asarray(values, dtype=float)
    return out if out.shape == (m,) else np.full(m, out)


def _min_order(f: SmoothFn, g: SmoothFn):
    if f.max_order is None:
        return g.max_order
    if g.max_order is None:
        return f.max_order
    return min(f.max_order, g.max_order)


def _coerce(obj, dim: int) -> SmoothFn:
    if isinstance(obj, SmoothFn):
        return obj
    if np.isscalar(obj) and not isinstance(obj, (str, bytes)):
        return constant(float(obj), dim)
    raise TypeError(f"cannot interpret {obj!r} as a smooth function")


# -- constructors -----------------------------------------------------


def constant(c: float, dim: int) -> SmoothFn:
    c = float(c)

    def pfn(alpha, pts):
        if mi.order(alpha) == 0:
            return np.full(pts.shape[0], c)
        return np.zeros(pts.shape[0])

    return SmoothFn(dim, pfn, label=f"const {c}")


def coordinate(axis: int, dim: int) -> SmoothFn:
    if not 0 <= axis < dim:
        raise DimensionMismatch(f"axis {axis} out of range for dim {dim}")

    def pfn(alpha, pts):
        k = mi.order(alpha)
        if k == 0:
            return pts[:, axis].copy()
        if k == 1 and alpha[axis] == 1:
            return np.ones(pts.shape[0])
        return np.zeros(pts.shape[0])

    return SmoothFn(dim, pfn, label=f"x{axis}")


def lift_axis(f: SmoothFn, axis: int, dim: int) -> SmoothFn:
    """View ``f`` as a function of coordinates axis .. axis + f.dim - 1 of R^dim."""
    stop = axis + f.dim

    def pfn(alpha, pts):
        if any(alpha[:axis]) or any(alpha[stop:]):
            return np.zeros(pts.shape[0])
        return f._partial_fn(alpha[axis:stop], pts[:, axis:stop])

    return SmoothFn(dim, pfn, max_order=f.max_order, uses_fd=f.uses_fd,
                    label=f"{f.label}@x{axis}")


# functions the numpy printer lowers to numpy exactly as the scipy printer does
_NUMPY_FUNCTIONS = {name for name, path in NumPyPrinter._kf.items()
                    if SciPyPrinter._kf.get(name) == path} | {"Piecewise"}
# the namespace that gives generated code its atom lookup
_ATOM_NAMESPACE = {"_atom": _atom}


class _WherePiecewise:
    """Print a Piecewise as nested ``where`` calls instead of one ``select``.

    ``where(c1, e1, where(c2, e2, ... where(cn, en, nan)))`` picks the
    element ``select([c1, ..., cn], [e1, ..., en], default=nan)`` picks,
    and the innermost ``nan`` gives it ``select``'s float dtype.  The
    conditions are printed as ``NumPyPrinter`` prints them.
    """

    def _print_Piecewise(self, expr):
        where = self._module_format(self._module + ".where")
        out = self._print(sp.nan)
        for arg in reversed(expr.args):
            cond = simplify_logic(arg.cond) if arg.cond.has(ITE) else arg.cond
            out = f"{where}({self._print(cond)}, {self._print(arg.expr)}, {out})"
        return out


class _AtomPrinting(_WherePiecewise):
    """Print each elementary-function call with free symbols as a shared atom."""

    def __init__(self, params: str):
        # the settings lambdify gives the printer it picks itself
        super().__init__({"fully_qualified_modules": False, "inline": True,
                          "allow_unknown_functions": True, "user_functions": {}})
        self._prefix = f"{self.module_set}({params}) "

    def _print(self, expr, **kwargs):
        src = super()._print(expr, **kwargs)
        if (isinstance(expr, sp.Function) and not isinstance(expr, (sp.Piecewise, AppliedUndef))
                and expr.free_symbols):
            return f"_atom({self._prefix + src!r}, lambda: {src})"
        return src


class _NumPyAtomPrinter(_AtomPrinting, NumPyPrinter):
    module_set = "numpy"
    modules = [_ATOM_NAMESPACE, np]


class _SciPyAtomPrinter(_AtomPrinting, SciPyPrinter):
    module_set = "numpy+scipy"
    modules = [_ATOM_NAMESPACE, "numpy", "scipy"]


def _modules(expr):
    """The atom printer class for ``expr``, with the modules it lambdifies against:
    numpy alone unless ``expr`` names a function numpy lacks."""
    numpy_only = all(type(f).__name__ in _NUMPY_FUNCTIONS for f in expr.atoms(sp.Function))
    return _NumPyAtomPrinter if numpy_only else _SciPyAtomPrinter


def from_sympy(expr, symbols: Sequence[sp.Symbol], label="") -> SmoothFn:
    """Build a SmoothFn from a sympy expression; derivatives are symbolic.

    Derivatives and lambdified callables are cached per multi-index, on this
    leaf only.  Inside a ``leaf_memo(*lattices)`` block values are also
    memoized, read-only, per multi-index and registered lattice, keyed by
    the array's identity; any other array is evaluated directly.  Each
    derivative is lambdified with its ``sin``, ``cos``, ``exp``, ... calls
    printed as atoms: on a registered lattice every leaf and multi-index
    shares one evaluation of each atom, elsewhere an atom is just computed.
    """
    symbols = tuple(symbols)
    dim = len(symbols)
    params = ",".join(str(x) for x in symbols)
    expr = sp.sympify(expr)
    exprs = {(0,) * dim: expr}
    cache: dict[tuple, Callable] = {}

    def derivative(alpha):  # the parent zeroes alpha's last nonzero axis
        if alpha not in exprs:
            i = max(i for i, k in enumerate(alpha) if k)
            exprs[alpha] = sp.diff(derivative(alpha[:i] + (0,) * (dim - i)), symbols[i], alpha[i])
        return exprs[alpha]

    def lam(alpha):
        fn = cache.get(alpha)
        if fn is None:
            d = derivative(alpha)
            printer = _modules(d)
            try:
                fn = cache[alpha] = sp.lambdify(symbols, d, modules=printer.modules,
                                                printer=printer(params), docstring_limit=0)
            except ImportError as err:  # only the scipy modules can be missing
                raise ImportError(f"{d} needs scipy.special: "
                                  "pip install 'colombeau[scipy]'") from err
        return fn

    def evaluate(alpha, pts):
        cols = [pts[:, i] for i in range(dim)]
        # Piecewise lowers to np.where, which evaluates every branch;
        # guarded branches may divide by zero or overflow off their piece
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                # a constant derivative lambdifies to a scalar
                return _per_point(lam(alpha)(*cols), len(pts))

    def pfn(alpha, pts):
        global _atoms
        # the memo holds each registered lattice, so no other live array has its id
        entry = None if _memo is None else _memo.get(id(pts))
        if entry is None:
            return evaluate(alpha, pts)
        _, values, atoms = entry
        out = values.get((lam, alpha))
        if out is None:
            outer, _atoms = _atoms, atoms  # the atoms of this lattice, for this call
            try:
                out = evaluate(alpha, pts)
            finally:
                _atoms = outer
            if np.may_share_memory(out, pts):  # e.g. the leaf x -> x
                out = out.copy()
            out.setflags(write=False)
            values[(lam, alpha)] = out
        return out

    fn = SmoothFn(dim, pfn, label=label or sp.srepr(expr)[:40])
    fn._lambdified = lam  # alpha -> the raw callable on columns, for hot loops
    return fn


# -- smooth glue ------------------------------------------------------

_GLUE_TAU = 0.01  # below this, exp(-1/t) underflows anyway; branch to exact 0


def glue_exprs():
    """Sympy building blocks: (t, G(t), smoothstep S(t)).

    G(t) = exp(-1/t) for t > tau else 0, S = G(t) / (G(t) + G(1-t)).
    S is 0 for t <= tau, 1 for t >= 1 - tau, strictly increasing between.
    The branch cuts introduce jumps of order exp(-1/tau) ~ 4e-44, far
    below double rounding for every quantity built on top of these.
    """
    t = sp.Symbol("t", real=True)
    bump = sp.Piecewise((sp.exp(-1 / t), t > _GLUE_TAU), (sp.Integer(0), True))
    return t, bump, smoothstep_expr(t)


def smoothstep_expr(u):
    """Smoothstep S(u) in an arbitrary sympy expression ``u``, built directly."""
    up, dn = sp.exp(-1 / u), sp.exp(-1 / (1 - u))
    return sp.Piecewise((sp.Integer(0), u <= _GLUE_TAU), (sp.Integer(1), u >= 1 - _GLUE_TAU),
                        (up / (up + dn), True))
