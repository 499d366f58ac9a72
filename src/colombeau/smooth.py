"""Smooth functions with exact partial derivatives.

``SmoothFn`` wraps a vectorized evaluator for a C^inf function on R^dim
together with evaluators for its partial derivatives.  Derivatives are
analytic wherever possible (symbolic differentiation, closed-form rules
for products, affine substitutions, linear combinations).

Points are arrays of shape (..., dim); in dimension one a bare scalar or
a shape (m,) array is also accepted.

A ``from_sympy`` leaf differentiates once per multi-index, from its
cached parent: alpha with its last nonzero axis zeroed, differentiated
along that axis.  That is the chain of ``sp.diff`` calls of
differentiating from scratch axis by axis, and each step gives
``sp.diff``'s expression (``_diff``).  A derivative of any order applies
each node's own rule and recurses with itself where the rule would call
``.diff``, so it builds no ``Derivative`` per node and skips that
constructor's ``is_zero`` query of each first derivative.  At n = 1 a
number c times one factor g, with ``Mul(0, g)`` zero and ``k*rest`` the
derivative of g, is ``Mul(c*k, rest)``: Leibniz's ``0*g + c*dg``, in the
arguments a sum collecting it multiplies again, which then hit sympy's
cache (a sum ``rest`` with k != 1 is left to ``0 + Mul(c, dg)``, which
keeps a rational ``c*k*(sum)`` unexpanded).  At order n >= 2 it follows
``_eval_derivative_n_times``: a product's multinomial Leibniz terms, and
for a sum, power or function n steps of the node's first-order rule, to
a fixed point; each factor differentiated k >= 2 times is tested with
``is_zero`` and simplified by ``factor_terms(signsimp(.))``, as the
constructor does.  No result can change: the constructor returns the
rule's result whether or not its query holds, its ``replace`` walk
changes nothing without a ``Derivative``, and the steps that can change
a result are repeated at every node.  A *Float polynomial* (a sum of
Float multiples of monomials with positive integer exponents and a
nonzero Float constant term) skips both: the simplifiers can only pull
out a common negative sign there, which ``_derivative`` does itself.

A derivative is printed by a subclass of the printer ``sp.lambdify``
would pick (``NumPyPrinter``, or ``SciPyPrinter`` when it names a
function numpy lacks: ``erf``, ``gamma``, ``besselj``) into the source
``sp.lambdify`` writes, and compiled against one namespace per printer
class, built on first use.  Only the scipy printer's namespace loads
``scipy.special``; scipy is the optional ``colombeau[scipy]`` extra, and
without it such a derivative raises ``ImportError`` naming the extra.
An argument that is no Python identifier (``lambda``, ``x.1``) is
printed under one fixed stand-in name per position.

The printer prints each elementary-function call with free symbols (an
*atom*: ``sin(y0)``, ``exp(-1/t)``; not a Piecewise, whose branches are
printed as usual, nor an undefined function) as ``_atom(key, lambda:
<its usual source>)``.  The key is the text that runs: the module set,
the parameter names in order and the atom's source, so one key is one
computation on the same columns.  Everything around the atoms is printed
as lambdify prints it, except that a Piecewise is printed as nested
``numpy.where`` calls rather than one ``numpy.select``: ``where`` picks
the element ``select`` picks, at a few microseconds a call on a small
array where ``select`` costs tens.  So every sum and product runs in the
same order and the values are bitwise those of plain ``lambdify``.
Sums, and a number times a symbol, sum, numpy function or positive
integer power of a symbol, are printed by the printer's own
``_print_Add`` and ``_print_Mul``: sympy's term order and text, without
sympy's generic sign tests, which negate each product (a coefficient's
sign is read off the number).  Other products go to sympy's method.  The
terms are sorted by sympy's default-order key, a Rational or Float
coefficient read by ``complex(float(c))`` instead of ``evalf``; a sum with
another coefficient, a number factor or an ``Order`` is sorted by sympy.
A derivative that is 0 is not printed: its values are ``np.zeros``, the
compiled ``0``'s bits.

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
``sin``, ``cos`` or ``exp`` array.  A call on any other array gets a
table of its own, whose arrays stay writable, so an atom printed twice
(the smoothstep's ``exp(-1/u)``) is computed once per call.  The memo
lives only while the outermost block runs and is dropped on exit, by
exception too, so it holds at most the leaf values, atoms and meshes of
the lattices that one block registers.  A lattice registered with an
*open mesh*, per-axis arrays of shapes (S, n, 1, ...), (S, 1, n, ...),
... for S boxes of n^dim product-grid points, is evaluated on the mesh:
``sin(y0)`` takes the S*n values of its axis, not S*n^dim points, and
the result is broadcast and raveled in C order, the lattice's own.  The
bits are the flat columns': broadcasting applies the same scalar
operation to the same operands.  Overlap-residual sweeps open one block
per group of transitions of at most ``gfunc.SWEEP_POINTS`` points and
register one lattice per chart: the group's points in it and their
images in it, with its open mesh where it has one.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import itertools
import keyword
import linecache
import operator
import weakref
from typing import Callable, Sequence

import numpy as np
import sympy as sp
from mpmath.libmp import fzero, mpf_lt
from sympy.core.basic import Basic
from sympy.core.exprtools import decompose_power, factor_terms
from sympy.core.function import AppliedUndef, ArgumentIndexError, Function
from sympy.logic.boolalg import ITE, simplify_logic
from sympy.ntheory.multinomial import multinomial_coefficients_iterator
from sympy.printing.numpy import NumPyPrinter, SciPyPrinter
from sympy.printing.precedence import PRECEDENCE, precedence
from sympy.simplify.simplify import signsimp
from sympy.utilities.lambdify import _get_namespace

from . import _mindex as mi
from ._algebra import Pointwise, is_number, rmul
from .errors import DerivativeUnavailable, DimensionMismatch

__all__ = ["SmoothFn", "from_sympy", "constant", "coordinate", "lift_axis", "leaf_memo"]


class _SharedAtoms(dict):
    """A registered lattice's atom table: {key: atom}, arrays stored read-only."""


# id(lattice) -> (lattice, {(leaf, alpha): read-only values}, _SharedAtoms, None or
# (mesh, its shape)) in a leaf_memo block; the held lattice's id is not reused
_memo: dict[int, tuple[np.ndarray, dict, _SharedAtoms, tuple | None]] | None = None
# the atom table of the array a leaf is evaluating on: its registered
# lattice's, or a plain dict for that one call
_atoms: dict | None = None


@contextlib.contextmanager
def leaf_memo(*lattices):
    """Evaluate each sympy leaf once per (multi-index, lattice) in this block.

    Only the ``lattices`` named here are memoized, by identity; each must
    be a read-only array whose base, if any, is read-only too, else
    ``ValueError``.  A pair ``(lattice, mesh)`` registers, unless mesh is
    None, the lattice's open mesh: one array per axis whose broadcast,
    raveled in C order, is the lattice bit for bit, as the caller
    guarantees; its broadcast shape is taken once, here, and a wrong axis
    count or size raises ``ValueError``.  A nested block adds its lattices
    to the memo that is already open; the outermost block drops it on
    exit, meshes too.
    """
    global _memo
    entries = []
    for a in lattices:
        a, mesh = a if isinstance(a, tuple) else (a, None)
        if (not isinstance(a, np.ndarray) or a.flags.writeable
                or (isinstance(a.base, np.ndarray) and a.base.flags.writeable)):
            raise ValueError("a leaf_memo lattice must be a read-only array "
                             "that views no writable array")
        if mesh is not None:  # its broadcast shape, once per lattice
            full = np.broadcast(*mesh)
            if len(mesh) != a.shape[-1] or full.size != len(a):
                raise ValueError("a leaf_memo mesh must broadcast to the lattice's points")
            mesh = (tuple(mesh), full.shape)
        entries.append((a, mesh))
    outer = _memo is None
    if outer:
        _memo = {}
    for a, mesh in entries:
        _memo.setdefault(id(a), (a, {}, _SharedAtoms(), mesh))
    try:
        yield
    finally:
        if outer:
            _memo = None


def _atom(key: str, thunk):
    """The atom ``key`` on the array being evaluated, computed at most once there."""
    table = _atoms
    if table is None:
        return thunk()
    out = table.get(key)
    if out is None:
        out = table[key] = thunk()
        if type(table) is _SharedAtoms and isinstance(out, np.ndarray):
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


class SmoothFn(Pointwise):
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

    def vanishes(self, alpha) -> bool:
        """Whether d^alpha is identically zero as its constructor knows; False if unknown."""
        return False

    def __repr__(self):
        tag = self.label or "smooth"
        return f"<SmoothFn {tag} dim={self.dim}>"

    # -- algebra ------------------------------------------------------

    def _zip(self, other, op):
        """``op`` of this function and a SmoothFn or a number, value by value;
        a product by the Leibniz rule, left factor first (the sum of its terms
        depends on their order), and a number c times f as ``c * f``: the
        Leibniz terms 0 * f' of a constant would turn -0.0 into 0.0 and inf
        into NaN.  A Leibniz term is ``(c * f_beta) * g_rest``, with no ``c *``
        for a binomial 1; the sum is the first term plus 0.0 (as from zeros:
        -0.0 reads 0.0), then the later terms in order, in place."""
        product = op is operator.mul or op is rmul
        if is_number(other):
            if product:
                c, f = float(other), self
                return SmoothFn(self.dim, lambda alpha, pts: c * f._partial_fn(alpha, pts),
                                f.max_order, f.uses_fd)
            other = constant(float(other), self.dim)
        elif not isinstance(other, SmoothFn):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch("combining functions of different dimension")
        f, g = (other, self) if op is rmul else (self, other)
        if product:

            def pfn(alpha, pts):
                # general Leibniz rule; exact given exact factor derivatives
                acc = None
                for beta, c, rest in mi.leibniz_terms(alpha):
                    fb = f._partial_fn(beta, pts)
                    term = (fb if c == 1 else c * fb) * g._partial_fn(rest, pts)
                    acc = np.add(term, 0.0, out=term) if acc is None else np.add(acc, term, out=acc)
                return acc
        else:

            def pfn(alpha, pts):
                return op(self._partial_fn(alpha, pts), other._partial_fn(alpha, pts))

        return SmoothFn(self.dim, pfn, _min_order(f, g), f.uses_fd or g.uses_fd)

    # -- composition with affine maps ---------------------------------

    def _pullback(self, g, diag):
        """f o g for g diagonal and affine near each point, with diagonal s = ``diag(pts)``:
        d^alpha (f o g)(x) = prod_i s_i(x)**alpha_i * (d^alpha f)(g(x)) (no s at alpha 0)."""

        def pfn(alpha, pts):
            vals = self._partial_fn(alpha, g(pts))
            if not any(alpha):
                return vals
            return np.prod(diag(pts) ** np.array(alpha), axis=-1) * vals

        return SmoothFn(self.dim, pfn, self.max_order, self.uses_fd)

    def scale_shift(self, a, b):
        """The function x -> f(a*x + b) with a, b scalars or per-axis vectors."""
        a_vec = np.broadcast_to(np.asarray(a, dtype=float), (self.dim,)).copy()
        b_vec = np.broadcast_to(np.asarray(b, dtype=float), (self.dim,)).copy()
        return self._pullback(lambda pts: pts * a_vec + b_vec, lambda pts: a_vec)

    def where(self, cond, other):
        """Piecewise select: self where ``cond(pts)`` holds, the SmoothFn ``other``
        elsewhere.

        Caller is responsible for the seam being harmless (both branches
        agreeing on a neighborhood of the switching set).
        """
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


# -- constructors -----------------------------------------------------


def constant(c: float, dim: int) -> SmoothFn:
    c = float(c)

    def pfn(alpha, pts):
        if mi.order(alpha) == 0:
            return np.full(pts.shape[0], c)
        return np.zeros(pts.shape[0])

    fn = SmoothFn(dim, pfn, label=f"const {c}")
    fn.vanishes = lambda alpha: any(alpha) or not c
    return fn


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

    def _print_Add(self, expr, order=None):
        """``StrPrinter._print_Add``'s text, without its precedence test of each
        product, which negates the product to read its sign."""
        out = ""
        for term in self._as_ordered_terms(expr, order=order):
            t = self._print(term)
            sign, t = ("-", t[1:]) if t.startswith("-") and not term.is_Add else ("+", t)
            if term.is_Add or not term.is_Mul and precedence(term) < PRECEDENCE["Add"]:
                t = f"({t})"
            out += f" {sign} {t}"
        return out[3:] if out.startswith(" + ") else "-" + out[3:]

    def _print_Mul(self, expr):
        """A number times a symbol, a sum, a numpy function or a symbol to a
        positive integer power, printed as ``CodePrinter._print_Mul`` prints it
        without building the negated product; any other product by that method."""
        c, f = expr.as_coeff_Mul()
        if not ((c.is_Rational or c.is_Float)  # a Float is finite: inf is oo
                and (f.is_Symbol or f.is_Add or type(f).__name__ in _NUMPY_FUNCTIONS
                     or f.is_Pow and f.base.is_Symbol and f.exp.is_Integer and f.exp > 0)):
            return super()._print_Mul(expr)
        if c is sp.S.NegativeOne:  # unary minus binds between * and **
            return "-" + self.parenthesize(f, (PRECEDENCE["Pow"] + PRECEDENCE["Mul"]) / 2)
        # a product with a negative coefficient has the precedence of a sum (its
        # sign read off the number, as ``c < 0`` reads it); a positive Integer or
        # Float is an atom, a fraction is parenthesized: (10/3)*x
        negative = c.p < 0 if c.is_Rational else mpf_lt(c._mpf_, fzero)
        sign, c, level = ("-", -c, PRECEDENCE["Add"]) if negative else ("", c, PRECEDENCE["Mul"])
        text = self._print(c) if c.is_Integer or c.is_Float else self.parenthesize(c, level)
        return f"{sign}{text}*{self.parenthesize(f, level)}"

    def _as_ordered_terms(self, expr, order=None):
        """``expr.as_ordered_terms()``: sympy's code at the default order, but a
        Rational or Float coefficient is read as ``complex(float(c))``, the bits
        of ``complex(c)`` without ``evalf``; any other term takes sympy's path."""
        if (order or self.order) is not None or not expr.is_Add:
            return super()._as_ordered_terms(expr, order=order)
        key = lambda a: not isinstance(a, (sp.Number, sp.NumberSymbol))
        args = sorted(expr.args, key=key)  # a positive number, then a negative product
        if len(args) == 2 and not key(args[0]) and isinstance(args[1], sp.Mul):
            head = sorted(args[1].args, key=key)
            if (len(head) == 2 and isinstance(head[0], sp.Number)
                    and args[0].is_positive and head[0].is_negative):
                return args
        terms, gens = [], set()
        for term in expr.args:
            c, rest = term.as_coeff_Mul()
            factors = sp.Mul.make_args(rest) if rest is not sp.S.One else ()
            if not (c.is_Rational or c.is_Float) or any(  # an Order is not commutative
                    f.is_number or not f.is_commutative for f in factors):
                return super()._as_ordered_terms(expr, order=order)
            terms.append((term, complex(float(c)), dict(map(decompose_power, factors))))
            gens.update(terms[-1][2])
        gens = sorted(gens, key=sp.default_sort_key)
        rows = [(t, ((z.real, z.imag), tuple(p.get(g, 0) for g in gens), ())) for t, z, p in terms]
        return [t for t, _ in sorted(rows, key=expr._parse_order(None)[0])]


class _NumPyAtomPrinter(_AtomPrinting, NumPyPrinter):
    module_set = "numpy"
    modules = (np,)


class _SciPyAtomPrinter(_AtomPrinting, SciPyPrinter):
    module_set = "numpy+scipy"
    modules = ("numpy", "scipy")


def _modules(expr):
    """The atom printer class for ``expr``: numpy alone unless ``expr`` names a
    function numpy lacks; an undefined function (``sp.Function("f")``) is in no
    module, so it asks for none, and evaluating it raises NameError naming it."""
    numpy_only = all(type(f).__name__ in _NUMPY_FUNCTIONS or isinstance(f, AppliedUndef)
                     for f in expr.atoms(sp.Function))
    return _NumPyAtomPrinter if numpy_only else _SciPyAtomPrinter


# printer class -> the globals of the code it prints
_NAMESPACES: dict[type, dict] = {}


def _namespace(printer: type) -> dict:
    """The globals of ``printer``'s code, built on first use: its modules, the
    first taking precedence, as lambdify merges them, and ``_atom``.  Only
    the scipy printer's loads ``scipy.special``; without scipy it raises
    ``ImportError`` and is tried afresh next time."""
    ns = _NAMESPACES.get(printer)
    if ns is None:
        ns = {}
        for m in reversed(printer.modules):
            ns.update(_get_namespace(m))
        ns.update(_atom=_atom, builtins=builtins, range=range)
        _NAMESPACES[printer] = ns
    return ns


_sources = itertools.count()


def lambdify(printer: _AtomPrinting, names: Sequence[str], expr) -> Callable:
    """``expr`` printed by ``printer`` and compiled as a function of ``names``.

    The source is the one ``sp.lambdify`` writes with this printer, which
    prints sums and common products itself and the rest by sympy's
    methods; the function runs in the printer class's one namespace.  The
    source is kept in ``linecache`` while the function lives, for
    ``inspect`` and tracebacks.  (``bench/tracer.py`` times this as the
    ``smooth.lambdify`` layer.)
    """
    body = printer.doprint(expr)
    if "\n" in body:
        body = f"({body})"
    src = f"def _lambdifygenerated({', '.join(names)}):\n    return {body}\n"
    ns = _namespace(type(printer))
    for module, keys in printer.module_imports.items():
        for key in keys - ns.keys():  # a name the module namespaces lack
            exec(f"from {module} import {key}", {}, ns)
    filename = f"<colombeau-leaf-{next(_sources)}>"
    local: dict = {}
    exec(compile(src, filename, "exec"), ns, local)
    fn = local["_lambdifygenerated"]
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    weakref.finalize(fn, linecache.cache.pop, filename, None)
    return fn


@functools.cache
def _multinomial(m: int, n: int) -> tuple:
    """The (k_1, ..., k_m), coefficient pairs of the multinomial Leibniz
    rule of order n for m factors, in the order ``Mul`` takes them; one
    small immutable tuple per (m, n), built once instead of per product."""
    return tuple(multinomial_coefficients_iterator(m, n))


class _Unhandled(Exception):
    """A node that ``_derivative`` leaves to ``sp.diff``."""


def _derivative(expr, s, n: int):
    """``expr.diff((s, n))`` for a symbol ``s`` and n >= 1, with this walk in
    place of ``.diff``.

    ``Derivative.__new__``'s steps: zero where ``s`` is not free, the rule,
    and for n >= 2 its ``is_zero`` test and ``factor_terms(signsimp(.))``,
    except on a *Float polynomial*: a sum of Floats and Floats times
    positive integer powers of symbols, with a nonzero Float constant term.
    Such a sum is not zero at the origin, so ``is_zero`` cannot hold;
    ``signsimp`` rebuilds the same sum; ``factor_terms`` finds no content
    (a Float has no Rational content, two Floats have gcd 1.0) and no
    common symbol (the constant has none).  The one change left is its
    common negative, ``-(...)`` when every coefficient is negative
    (``_all_negative``), which is made here without the simplifiers.
    The rule is the node's ``_eval_derivative_n_times(s, n)``: a product's
    multinomial Leibniz terms ``c * Mul(*factors)`` in sympy's order, each
    factor differentiated k times, at n = 1 a number times one factor as the
    module docstring says; a symbol's 1 (n = 1) or 0; ``Basic``'s
    loop of n ``_step``s, stopping at a fixed point, where the class keeps
    it; any other node's own method.  Raises ``_Unhandled`` where ``.diff``
    would leave a ``Derivative`` unevaluated.
    """
    if s not in expr.free_symbols:
        return sp.S.Zero
    cls = type(expr)
    if cls is sp.Mul and n == 1 and len(expr.args) == 2 and expr.args[0].is_Number \
            and sp.Mul(0, expr.args[1]) is sp.S.Zero:  # Leibniz's 0*g + c*dg
        c, dg = expr.args[0], _derivative(expr.args[1], s, 1)
        k, rest = dg.as_coeff_Mul()
        # Mul(c, dg) holds a rational c*k*(sum) unexpanded where Mul(c*k, sum) expands
        out = sp.Add(0, sp.Mul(c, dg)) if rest.is_Add and k is not sp.S.One else sp.Mul(c * k, rest)
    elif cls is sp.Mul:
        terms = []
        for ks, c in _multinomial(len(expr.args), n):
            factors = [_derivative(a, s, k) if k else a for k, a in zip(ks, expr.args)]
            p = sp.Mul(*factors)
            terms.append(p if c == 1 else c * p)  # 1 * p is p
        out = sp.Add(*terms)
    elif isinstance(expr, sp.Symbol):
        out = sp.S.One if n == 1 else sp.S.Zero
    elif cls._eval_derivative_n_times is Basic._eval_derivative_n_times:
        out = expr
        for _ in range(n):
            prev, out = out, _step(out, s)
            if out == prev:
                break
    elif hasattr(expr, "_eval_derivative") and not isinstance(expr, sp.Derivative):
        out = expr._eval_derivative_n_times(s, sp.Integer(n))
    else:
        raise _Unhandled
    if out is None or (n > 1 and out.has(sp.Derivative)):
        raise _Unhandled
    if n > 1:
        negative = _all_negative(out)
        if negative:  # factor_terms' common negative
            out = sp.Mul(sp.S.NegativeOne, -out, evaluate=False)
        elif negative is None and not out.is_zero:
            out = factor_terms(signsimp(out))
    return out


def _all_negative(expr):
    """Whether every coefficient of a Float polynomial (see ``_derivative``)
    is negative; None for any other expression."""
    if type(expr) is not sp.Add or not any(a.is_Float and a for a in expr.args):
        return None
    signs = set()
    for term in expr.args:
        c, *factors = term.args if type(term) is sp.Mul else (term,)
        if not (c.is_Float and all(f.is_Symbol or f.is_Pow and f.base.is_Symbol
                                   and f.exp.is_Integer and f.exp > 0 for f in factors)):
            return None
        signs.add(c.is_negative)
    return signs == {True}


def _step(expr, s):
    """``expr._eval_derivative(s)``, with ``_derivative`` in place of ``.diff``:
    the rule of an ``Add``, ``Pow`` and ``Piecewise``, ``Mul``'s binary
    products over the factors whose derivative is not zero, and
    ``Function._eval_derivative``'s chain rule where the class keeps it
    (its ``da.is_zero`` test and ``ArgumentIndexError`` fallback kept); any
    other node's own rule.  Unlike ``.diff`` it does not return zero at
    once where ``s`` is not free, as the rule does not.
    """
    cls = type(expr)
    if cls is sp.Add:
        return sp.Add(*[_derivative(a, s, 1) for a in expr.args])
    if cls is sp.Mul:
        args = list(expr.args)
        terms = []
        for i, a in enumerate(args):
            d = _derivative(a, s, 1)
            if d:
                terms.append(functools.reduce(operator.mul, args[:i] + [d] + args[i + 1:],
                                              sp.S.One))
        return sp.Add.fromiter(terms)
    if cls is sp.Pow:
        b, e = expr.args
        return expr * (_derivative(e, s, 1) * sp.log(b) + _derivative(b, s, 1) * e / b)
    if cls is sp.Piecewise:
        return sp.Piecewise(*[(_derivative(e, s, 1), c) for e, c in expr.args])
    if getattr(cls, "_eval_derivative", None) is Function._eval_derivative:
        terms = []
        for i, a in enumerate(expr.args, 1):
            da = _derivative(a, s, 1)
            if da.is_zero:
                continue
            try:
                df = expr.fdiff(i)
            except ArgumentIndexError:
                df = Function.fdiff(expr, i)
            terms.append(df * da)
        return sp.Add(*terms)
    out = None
    if hasattr(expr, "_eval_derivative") and not isinstance(expr, sp.Derivative):
        out = expr._eval_derivative(s)
    if out is None:
        raise _Unhandled
    return out


def _diff(expr, symbol, n: int):
    """``sp.diff(expr, symbol, n)``, through ``expr``'s own rules (``_derivative``,
    see the module docstring) where that is the same.  A node the walk leaves
    unhandled, a rule that gives ``None``, and a result that holds a
    ``Derivative`` send the whole expression to ``sp.diff``."""
    try:
        out = _derivative(expr, symbol, n)
        if not out.has(sp.Derivative):
            return out
    except _Unhandled:
        pass
    return sp.diff(expr, symbol, n)


def _stand_ins(symbols) -> dict:
    """A stand-in symbol for each argument that is no Python identifier (for
    every argument if one is a ``Dummy``), one fixed name per position.

    lambdify prints such an argument as a fresh ``Dummy_N`` on every call,
    so the atoms of two derivatives never shared a key.  The stand-ins are
    named and numbered as lambdify's, in its order, so terms sort as they
    did.
    """
    every = any(isinstance(x, sp.Dummy) for x in symbols)
    unsafe = [x for x in symbols
              if every or not str(x).isidentifier() or keyword.iskeyword(str(x))]
    names, out = {str(x) for x in symbols}, {}
    for x in reversed(list(sp.ordered(unsafe))):
        name = f"Dummy_{len(out)}"
        while name in names:
            name = "_" + name
        out[x] = sp.Symbol(name)
    return out


def from_sympy(expr, symbols: Sequence[sp.Symbol], label="") -> SmoothFn:
    """Build a SmoothFn from a sympy expression; derivatives are symbolic.

    Derivatives and compiled callables are cached per multi-index, on this
    leaf only.  Inside a ``leaf_memo(*lattices)`` block values are also
    memoized, read-only, per multi-index and registered lattice, keyed by
    the array's identity; any other array is evaluated directly.  On a
    lattice with an open mesh the leaf runs on the per-axis arrays, and
    its result, broadcast and raveled in C order, is the flat columns'
    bit for bit.  Each derivative is compiled with its ``sin``, ``cos``,
    ``exp``, ... calls printed as atoms: on a registered lattice every
    leaf and multi-index shares one evaluation of each atom, elsewhere
    each call computes an atom once.  ``vanishes(alpha)`` holds where the
    derivative expression is 0.
    """
    symbols = tuple(symbols)
    dim = len(symbols)
    params = ",".join(str(x) for x in symbols)
    stand_ins = _stand_ins(symbols)
    names = [str(stand_ins.get(x, x)) for x in symbols]
    expr = sp.sympify(expr)
    exprs = {(0,) * dim: expr}
    cache: dict[tuple, Callable] = {}

    def derivative(alpha):  # the parent zeroes alpha's last nonzero axis
        if alpha not in exprs:
            i = max(i for i, k in enumerate(alpha) if k)
            exprs[alpha] = _diff(derivative(alpha[:i] + (0,) * (dim - i)), symbols[i], alpha[i])
        return exprs[alpha]

    def lam(alpha):
        fn = cache.get(alpha)
        if fn is None:
            d = derivative(alpha)
            printer = _modules(d)
            try:
                fn = cache[alpha] = lambdify(printer(params), names,
                                             d.xreplace(stand_ins) if stand_ins else d)
            except ImportError as err:  # only the scipy modules can be missing
                raise ImportError(f"{d} needs scipy.special: "
                                  "pip install 'colombeau[scipy]'") from err
        return fn
    def evaluate(alpha, pts, mesh):
        if derivative(alpha) == 0:  # the bits of the compiled 0, nothing compiled
            return np.zeros(len(pts))
        cols = mesh[0] if mesh else [pts[:, i] for i in range(dim)]
        # Piecewise lowers to np.where, which evaluates every branch;
        # guarded branches may divide by zero or overflow off their piece
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = lam(alpha)(*cols)
        if mesh and np.ndim(out):  # the lattice's points are the mesh's in C order
            if out.shape != mesh[1]:  # free of some axis; cheaper than np.broadcast_to
                full = np.empty(mesh[1])
                full[...] = out
                out = full
            out = out.reshape(-1)
        return _per_point(out, len(pts))  # a constant derivative lambdifies to a scalar

    def pfn(alpha, pts):
        global _atoms
        # the memo holds each registered lattice, so no other live array has its id
        _, values, atoms, mesh = (_memo and _memo.get(id(pts))) or (None, None, {}, None)
        out = None if values is None else values.get((lam, alpha))
        if out is None:
            outer, _atoms = _atoms, atoms  # the atoms of this array, for this call
            try:
                out = evaluate(alpha, pts, mesh)
            finally:
                _atoms = outer
            if values is None:
                return out
            if np.may_share_memory(out, pts):  # e.g. the leaf x -> x
                out = out.copy()
            out.setflags(write=False)
            values[(lam, alpha)] = out
        return out

    fn = SmoothFn(dim, pfn, label=label or sp.srepr(expr)[:40])
    fn._lambdified = lam  # alpha -> the raw callable on columns, for hot loops
    fn.vanishes = lambda alpha: derivative(mi.check(alpha, dim)) == 0
    return fn


# -- smooth glue ------------------------------------------------------

_GLUE_TAU = 0.01  # below this, exp(-1/t) underflows anyway; branch to exact 0


def smoothstep_expr(u):
    """Smoothstep S(u) = G(u) / (G(u) + G(1 - u)), G(t) = exp(-1/t), in a sympy
    expression ``u``: 0 for u <= tau, 1 for u >= 1 - tau, strictly increasing
    between; the cuts jump by about exp(-1/tau) ~ 4e-44, far below rounding."""
    up, dn = sp.exp(-1 / u), sp.exp(-1 / (1 - u))
    return sp.Piecewise((sp.Integer(0), u <= _GLUE_TAU), (sp.Integer(1), u >= 1 - _GLUE_TAU),
                        (up / (up + dn), True))
