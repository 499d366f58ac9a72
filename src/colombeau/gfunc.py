"""Generalized functions on an atlas: coherent families of local nets.

A generalized function is stored as one net of local smooth functions
per chart.  On chart overlaps the local nets must satisfy the
transformation law up to a negligible error; ``coherence_check``
measures that residual and classifies its decay.  On top of this sit
classification, algebra, Lie derivatives, point values, association
testing against distribution targets, and integration.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _mindex as mi
from ._algebra import Pointwise, is_number
from .asymptotic import DEFAULT_M_MAX, estimate_order
from .embed import DistributionSpec, embed_rn
from .errors import (AtlasMismatch, CoherenceFailure, InvalidSlots, NotComparable,
                     PartitionMismatch, QuadratureFailure)
from .gnumber import GeneralizedNumber
from .grid import DEFAULT_GRID
from .manifold import Atlas, GeneralizedPoint, Transition
from .manifolds import Manifold
from .mollifier import Mollifier
from .nets import (Net, _as_net, _auto_samples, box_lattice, classify_net, lattice_sup,
                   sup_norm_on_box, sup_norms)
from .quadrature import Sweep, cubature
from .smooth import SmoothFn, from_sympy, leaf_memo, smoothstep_expr

# Relative clamp for overlap residuals: a gap this far below the net's
# own scale is attributed to rounding and treated as exact agreement.
COHERENCE_RTOL = 5e-13
# Companion clamp proportional to the first-derivative scale.  Mapping a
# lattice point through a transition and back perturbs the coordinate by
# a few ulps, so even a genuinely coherent family shows gaps of size
# |grad u| * O(1e-15); gaps below 1e-13 * |grad u| are rounding artifacts.
COHERENCE_GRAD_RTOL = 1e-13

PAIRING_TOL = 1e-3
# the sup every C^k-association residual must end below
CK_TOL = 1e-6

# An overlap sweep evaluates its transitions in blocks of at most this
# many lattice points, chart-a points and their images counted together
SWEEP_POINTS = 8192


def _atlas_of(obj):
    if isinstance(obj, Manifold):
        return obj.atlas
    if isinstance(obj, Atlas):
        return obj
    raise TypeError(f"expected Manifold or Atlas, got {obj!r}")


# -- the chart contract every generalized section keeps --------------------


def _same_charts(a, b):
    """Raise AtlasMismatch unless sections ``a`` and ``b`` share atlas and charts."""
    if b.atlas is not a.atlas:
        raise AtlasMismatch("operands live on different atlases")
    if b.chart_names() != a.chart_names():
        raise AtlasMismatch("operands carry different chart sets")


def _weight(section, w):
    """The chartwise weighting (chart, net) -> w * net, or None for other ``w``.

    A generalized function weights each chart's net by its own net there,
    a number by itself.
    """
    if isinstance(w, GeneralizedFunction):
        _same_charts(section, w)
        return lambda c, net: w.net(c) * net
    if is_number(w):
        return lambda c, net: net * float(w)
    return None


def _sum(terms, empty=None):
    """((t0 + t1) + t2) + ... of ``terms`` in order, or ``empty`` when there are none."""
    terms = iter(terms)
    first = next(terms, None)
    return empty if first is None else functools.reduce(operator.add, terms, first)


def _keys(dim: int, rank: int) -> list:
    """Every index tuple of (dim,) * rank, in C order; [()] at rank 0."""
    return list(itertools.product(range(dim), repeat=rank))


class GeneralizedSection(Pointwise):
    """Chartwise component nets on one atlas: a generalized section.

    ``comps`` maps each chart carrying the section to its part there, a
    dict from each index tuple of ``keys()`` to its net, in that order,
    built by :meth:`_part`.  A generalized function is the rank-0 case:
    its part is ``{(): net}``.  Every net is coerced by ``nets._as_net``
    and must live on R^dim of the atlas.  ``+`` and ``-`` are the shared
    pointwise ones (``_algebra.Pointwise``) over :meth:`_zip`, which
    combines a section of the same class and valence entry by entry, and
    a number only at rank 0; ``s * w`` and ``w * s`` weight by a number
    or a generalized function, so ``-s`` is ``s * -1.0``.  Sections
    combine entrywise through :meth:`_map` and ``_like(comps)``.
    """

    _Mismatch = InvalidSlots  # what ``+`` and ``-`` raise on another valence

    def __init__(self, space, parts: dict, label: str = ""):
        self.atlas = _atlas_of(space)
        self.label = label
        self.comps = {}
        for c, part in parts.items():
            if c not in self.atlas.charts:
                raise AtlasMismatch(f"no chart {c!r} in atlas {self.atlas.name}")
            self.comps[c] = self._part(c, part)

    def _net(self, c, value) -> Net:
        net = _as_net(value, self.atlas.dim)
        if net.dim != self.atlas.dim:
            raise AtlasMismatch(
                f"net for chart {c!r} has dim {net.dim}, atlas has {self.atlas.dim}")
        return net

    def _part(self, c, src) -> dict:
        """{index: net} from a dict of exactly the indices, or from nested sequences or arrays."""
        keys, shape = self.keys(), (self.atlas.dim,) * self.rank
        if not isinstance(src, dict):
            flat = [src.tolist() if isinstance(src, np.ndarray) else src]
            for _ in shape:  # one nesting level per slot, so C order
                if not all(isinstance(row, (list, tuple, np.ndarray)) and len(row) == shape[0]
                           for row in flat):
                    raise AtlasMismatch(f"components for chart {c!r} do not nest as {shape}")
                flat = [x for row in flat for x in row]
            src = dict(zip(keys, flat))
        extra = [K for K in src if K not in keys]
        if extra:
            raise InvalidSlots(f"components for chart {c!r}: no index {extra[0]} in shape {shape}")
        if len(src) != len(keys):
            raise AtlasMismatch(f"components for chart {c!r} have keys {list(src)}, "
                                f"want every index of shape {shape}")
        return {K: self._net(c, src[K]) for K in keys}

    def keys(self):
        return _keys(self.atlas.dim, self.rank)

    def chart_names(self):
        return sorted(self.comps)

    @property
    def rank(self) -> int:
        return self.valence[0] + self.valence[1]

    _canonical = staticmethod(lambda idx: (1, idx))  # (sign, stored key) of an index

    def component(self, chart: str, idx) -> Net:
        """The net at any index tuple of an indexed section; a form's carries the
        antisymmetry sign of its index, and is zero on a repeated one."""
        idx = tuple(idx) if np.iterable(idx) else (idx,)
        if chart not in self.comps:
            raise AtlasMismatch(f"chart {chart!r} carries no components")
        shape = (self.atlas.dim,) * self.rank
        if len(idx) != len(shape) or not set(idx) <= set(range(self.atlas.dim)):
            raise InvalidSlots(f"no index {idx} in shape {shape}")
        sign, key = self._canonical(idx)
        if sign == 0:
            return Net.zero(self.atlas.dim)
        net = self.comps[chart][key]
        return net if sign == 1 else net * -1.0

    def _map(self, entry):
        """The section of this kind with ``entry(c, K, net)`` for each chart c's net at key K."""
        return self._like({c: {K: entry(c, K, net) for K, net in part.items()}
                           for c, part in self.comps.items()})

    def _zip(self, other, op):
        """``op(net, other's net)`` at every chart and key for a section of this class
        and valence, ``op(net, float(other))`` for a number at rank 0, else
        NotImplemented."""
        if isinstance(other, type(self)):
            _same_charts(self, other)
            if other.valence != self.valence:
                raise self._Mismatch(f"valence {other.valence} != {self.valence}")
            return self._map(lambda c, K, net: op(net, other.comps[c][K]))
        if self.rank == 0 and is_number(other):
            return self._map(lambda c, K, net: op(net, float(other)))
        return NotImplemented

    def __mul__(self, w):
        weight = _weight(self, w)
        return NotImplemented if weight is None else self._map(lambda c, K, net: weight(c, net))

    __rmul__ = __mul__


class GeneralizedFunction(GeneralizedSection):
    """Per-chart nets subject to the overlap transformation law: the rank-0 section."""

    valence = (0, 0)

    @property
    def nets(self) -> dict[str, Net]:
        """The net of each chart, read from its part ``{(): net}``."""
        return {c: part[()] for c, part in self.comps.items()}

    def net(self, chart: str) -> Net:
        try:
            return self.comps[chart][()]
        except KeyError:
            raise NotComparable(f"chart {chart!r} carries no net")

    def _like(self, comps, label: str = "") -> "GeneralizedFunction":
        return GeneralizedFunction(self.atlas, comps, label)

    # U * V is U's net times V's, not the base's V-weighting of U
    __mul__, __rmul__ = Pointwise.__mul__, Pointwise.__rmul__


def _section(cls, space, shape, comps: dict, label: str = ""):
    """``cls(space, shape, comps, label)`` for a degree or valence ``shape``, and the
    generalized function of ``comps`` when ``shape`` has rank 0."""
    if shape in (0, (0, 0)):
        return GeneralizedFunction(space, comps, label)
    return cls(space, shape, comps, label)


def sigma_embed(space, fns: dict) -> GeneralizedFunction:
    """Constant-in-eps embedding of a chartwise smooth function.

    ``fns`` maps chart names to SmoothFns in chart coordinates.  Raises
    ``CoherenceFailure`` exactly when :func:`coherence_check` finds the
    constant nets incoherent, naming the first failing overlap and its gap.
    """
    U = GeneralizedFunction(space, fns, label="sigma")  # each SmoothFn as a constant net
    for row in coherence_check(U)["rows"]:
        if not row["negligible"]:
            a, b = row["pair"]
            raise CoherenceFailure(
                f"chart functions disagree on overlap {a}->{b}: gap {row['max_gap']:.3g}")
    return U


# -- coherence -----------------------------------------------------------


def _block_gaps(section: GeneralizedSection, block: list, grid, n_samples: int) -> list:
    """(pair, box count, {eps: clamped gap per box}) of each transition in ``block``."""
    atlas, comps, (r, s) = section.atlas, section.comps, section.valence
    dim = atlas.dim
    zero = (0,) * dim
    parts: dict[str, list] = {}  # chart -> the block's points in it, in order
    jobs = []
    for (a, b), tr in block:
        lattices = [box_lattice(box, n_samples) for box in atlas.overlap_boxes[(a, b)]]
        x = np.concatenate(lattices)
        # x and its image y join their charts' lattices at these slices
        xs, ys = (slice(k, k + len(x)) for k in
                  [sum(map(len, parts.setdefault(c, []))) for c in (a, b)])
        parts[a].append(x)
        parts[b].append(tr.fn(x))
        # the weights need J on lower slots and its inverse on upper ones
        jac = np.asarray(tr.jac(x), dtype=float) if r + s else None
        jinv = np.linalg.inv(jac) if r else None
        weights = []  # per chart-a component, one array per chart-b component
        for idx in comps[a]:
            weights.append([])
            for kdx in comps[b]:
                w = np.ones(len(x))
                for ai in range(r):
                    w = w * jinv[:, idx[ai], kdx[ai]]
                for bi in range(s):
                    w = w * jac[:, kdx[r + bi], idx[r + bi]]
                weights[-1].append(w)
        starts = np.cumsum([0] + [len(p) for p in lattices[:-1]])
        jobs.append(((a, b), starts, xs, ys, weights))
    lattice = {c: np.concatenate(p) for c, p in parts.items()}
    for pts in lattice.values():  # the leaf memo keys them by identity
        pts.flags.writeable = False

    def gaps_at(e):
        fns = {c: [net.at(e) for net in comps[c].values()] for c in lattice}  # C order
        vals = {c: [f._partial_fn(zero, lattice[c]) for f in fns[c]] for c in lattice}
        grads = {}  # chart -> its components' first derivatives, once a box needs them
        out = []
        for (a, b), starts, xs, ys, weights in jobs:

            def raise_to(acc, v):
                # per box: the max of |v| over its own slice joins the running
                # sup; np.maximum lets a NaN through, so a NaN box stays NaN
                return np.maximum(acc, np.maximum.reduceat(np.abs(v), starts))

            gap, s0, s1 = (np.zeros(len(starts)) for _ in range(3))
            vb = [v[ys] for v in vals[b]]
            for va, row in zip(vals[a], weights):
                va = va[xs]
                pullback = np.zeros(len(va))
                for w, v in zip(row, vb):
                    pullback = pullback + w * v
                gap = raise_to(gap, va - pullback)
                s0 = raise_to(raise_to(s0, va), pullback)
            # COHERENCE_GRAD_RTOL * s1 >= 0, so the derivative scale can only
            # decide the clamp of a box the value term alone does not clamp
            if np.any(gap > COHERENCE_RTOL * s0):
                if a not in grads:
                    grads[a] = [f._partial_fn(mi.unit(dim, i), lattice[a])
                                for f in fns[a] for i in range(dim)]
                for g in grads[a]:
                    s1 = raise_to(s1, g[xs])
            # a non-finite gap or scale must not clamp: it reads NaN
            finite = np.isfinite(gap) & np.isfinite(s0) & np.isfinite(s1)
            clamp = gap <= COHERENCE_RTOL * s0 + COHERENCE_GRAD_RTOL * s1
            out.append(np.where(finite, np.where(clamp, 0.0, gap), np.nan))
        return out

    # clamped gaps are exact zeros: the fit counts them at its floor; the
    # memo serves the leaves every eps, component and transition share
    with leaf_memo(*lattice.values()):
        sweep = {e: gaps_at(e) for e in grid}
    return [(pair, len(starts), {e: sweep[e][j] for e in grid})
            for j, (pair, starts, *_) in enumerate(jobs)]


def overlap_residual(section: GeneralizedSection, grid, n_samples: int) -> dict:
    """Classify the transformation-law residual of a section's chart parts.

    The section is a tensor field of valence (r, s) or a generalized
    function, the rank-0 case: each chart part maps every index tuple of
    (dim,) * (r + s), in C order, to a net, a scalar's part is
    ``{(): net}``, and a form passes its ``to_tensor()`` view.  For each
    transition a -> b with Jacobian J carried by both charts, the
    chart-a components are compared on the overlap boxes against the
    pullback of the chart-b ones: inverse-J factors on upper slots, J
    factors on lower slots, chart-b components at the mapped points.
    Per eps and box the sup over components and lattice points is
    clamped to zero below ``COHERENCE_RTOL`` times the value scale plus
    ``COHERENCE_GRAD_RTOL`` times the chart-a first-derivative scale,
    then each box is order-fitted at ``DEFAULT_M_MAX``.  The
    first-derivative scale is evaluated only when the value term alone
    does not clamp some box.  A box whose gap or scale is non-finite
    (NaN or infinite) at any eps is not clamped at that eps: its row has
    verdict ``"non-finite"``, NaN slope and max_gap, and is not
    negligible.

    The sorted transitions are swept in blocks of at most
    ``SWEEP_POINTS`` points, each transition's overlap-box lattice x and
    its image y counted together; a larger transition is a block alone.
    In each chart, a block's x (chart a) and y (chart b) arrays make one
    read-only lattice, registered with one :func:`smooth.leaf_memo`
    block for the eps sweep.  Per eps each chart component, and its
    first derivatives when a box needs them, is evaluated once on its
    chart's lattice; each transition reads slices of those values, each
    box its sup from its own slice.  The pullback weights (products of
    J and inverse-J entries) are computed once per transition.  A
    block's lattices, weights and memo are dropped after it, so memory
    is bounded by the larger of ``SWEEP_POINTS`` and one transition's
    points.  The family is coherent when every fit is negligible.
    """
    atlas, comps = section.atlas, section.comps
    grid = tuple(float(e) for e in grid)
    blocks, used = [], 0
    for (a, b), tr in sorted(atlas.transitions.items()):
        if a not in comps or b not in comps or not atlas.overlap_boxes[(a, b)]:
            continue
        size = 2 * len(atlas.overlap_boxes[(a, b)]) * n_samples ** atlas.dim
        if not blocks or used + size > SWEEP_POINTS:
            blocks.append([])
            used = 0
        blocks[-1].append(((a, b), tr))
        used += size
    rows = []
    for block in blocks:
        for pair, n_boxes, sweep in _block_gaps(section, block, grid, n_samples):
            for k in range(n_boxes):
                gaps = [sweep[e][k] for e in grid]
                if not np.all(np.isfinite(gaps)):
                    rows.append({"pair": list(pair), "box": k, "slope": math.nan,
                                 "verdict": "non-finite", "negligible": False,
                                 "n_clamped": gaps.count(0.0), "max_gap": math.nan})
                    continue
                fit = estimate_order(zip(grid, gaps))
                rows.append({
                    "pair": list(pair), "box": k, "slope": fit.slope,
                    "verdict": fit.verdict, "negligible": fit.is_negligible,
                    "n_clamped": fit.n_clamped, "max_gap": float(max(fit.magnitudes)),
                })
    return {"coherent": all(row["negligible"] for row in rows), "n_pairs": len(rows),
            "m_max": DEFAULT_M_MAX, "rows": rows}


def coherence_check(U: GeneralizedFunction, grid=DEFAULT_GRID, n_samples: int = 61) -> dict:
    """Classify the transformation-law residual on every overlap.

    The gap sup |U_a(x) - U_b(t_ab(x))| per eps is the rank-0 case of
    :func:`overlap_residual`; coherent means every fit is negligible.
    """
    return overlap_residual(U, grid, n_samples)


# -- classification ------------------------------------------------------


def _expand_orders(orders, dim: int):
    alphas = []
    for item in orders:
        if is_number(item):
            total = mi.index(item)
            alphas.extend(a for a in mi.up_to(dim, total) if mi.order(a) == total)
        elif isinstance(item, (str, bytes)):
            raise TypeError(f"order {item!r} is neither a total order nor a multi-index")
        else:
            alphas.append(mi.check(item, dim))
    return list(dict.fromkeys(alphas))  # first occurrences, in order


def classify(U: GeneralizedFunction, orders=(0, 1), boxes: dict | None = None,
             grid=DEFAULT_GRID, m_max: int = DEFAULT_M_MAX, n_samples=201) -> dict:
    """Sup-norm order fits per chart and derivative multi-index.

    ``orders`` lists total derivative orders (ints) or explicit
    multi-indices.  The summary verdict is Moderate(N) over all fits;
    the negligibility summary may use order-0 fits alone once
    moderateness at the requested orders is established (a moderate net
    with negligible values is negligible), in which case
    ``order0_shortcut`` is flagged.
    """
    alphas = _expand_orders(orders, U.atlas.dim)
    rows = []
    for c in U.chart_names():
        box = (boxes or {}).get(c, U.atlas.charts[c].sample_box)
        for alpha in alphas:
            fit = classify_net(U.nets[c], alpha, box, grid=grid, m_max=m_max,
                               n_samples=n_samples)
            rows.append({"chart": c, "alpha": list(alpha), "fit": fit})

    verdicts = [r["fit"].verdict for r in rows]
    all_moderate = all(v in ("moderate", "negligible") for v in verdicts)
    order0 = [r["fit"] for r in rows if mi.order(tuple(r["alpha"])) == 0]
    shortcut = False
    if not all_moderate:
        summary, order = "divergent", None
    elif all(v == "negligible" for v in verdicts):
        summary, order = "negligible", None
    elif order0 and all(f.is_negligible for f in order0):
        # values negligible + moderateness at the requested orders
        summary, order = "negligible", None
        shortcut = True
    else:
        summary = "moderate"
        order = max((r["fit"].order or 0) for r in rows)
    return {
        "summary": summary, "order": order, "order0_shortcut": shortcut,
        "m_max": m_max,
        "rows": [{"chart": r["chart"], "alpha": r["alpha"],
                  **r["fit"].to_json()} for r in rows],
    }


# -- point values --------------------------------------------------------


def point_value(U: GeneralizedFunction, p: GeneralizedPoint,
                grid=DEFAULT_GRID) -> GeneralizedNumber:
    """The net eps -> u_eps(p_eps), evaluated in a chart carrying U.

    That chart is the point's own when U carries it, else the first chart
    of U that an atlas transition reaches; the coordinates move there by
    ``Atlas.transition``, the identity included.
    """
    if p.atlas is not U.atlas:
        raise NotComparable("point and function live on different atlases")
    carried = [p.chart] if p.chart in U.nets else [
        b for b in U.chart_names() if (p.chart, b) in U.atlas.transitions]
    if not carried:
        raise NotComparable(
            f"witness chart {p.chart!r} carries no net and no transition reaches one")
    tr, net = U.atlas.transition(p.chart, carried[0]), U.net(carried[0])
    values = [net.at(e)(tr.fn(p.coords_at(e)[None, :]))[0] for e in grid]
    return GeneralizedNumber(grid, values, label=f"{U.label}({p.label})")


def zero_test_by_points(U: GeneralizedFunction, grid=DEFAULT_GRID) -> dict:
    """Zero test by point values, two-sided on the grid.

    Each chart's witness is the point net x_eps where |u_eps| reaches its
    lattice sup on the chart's sample box, on the lattice of
    ``sup_norms(..., n_samples="auto")``; it is defined at the grid's eps.
    Its point value is that sup, so its fit is the fit of the sups, and a
    chart gives a witness exactly when its order-0 sup series is not
    negligible, as ``classify(U, orders=(0,), n_samples="auto")`` reads it.
    """
    witnesses, alpha = [], (0,) * U.atlas.dim
    for c in U.chart_names():
        net, box = U.nets[c], U.atlas.charts[c].sample_box
        sup = {float(e): lattice_sup(net.at(e), alpha, box, _auto_samples(box, e))
               for e in grid}
        p = GeneralizedPoint(U.atlas, c, lambda e, s=sup: s[e][1], box, label=f"argmax {c}")
        fit = estimate_order((e, s) for e, (s, _) in sup.items())
        if not fit.is_negligible:
            witnesses.append({"chart": c, "point": p, "fit": fit})
    return {"witnesses": witnesses, "all_negligible": not witnesses}


# -- association ---------------------------------------------------------


@dataclass(frozen=True)
class TestDensity:
    """A compactly supported smooth density factor in one chart."""

    chart: str
    fn: SmoothFn
    box: tuple
    label: str = ""


def _bump_expr(u):
    # plateau bump: 1 on [-1/2, 1/2], smooth, exactly 0 outside (-1, 1)
    return smoothstep_expr(2 + 2 * u) * smoothstep_expr(2 - 2 * u)


def default_densities(space, per_chart: int = 5, seed: int = 7) -> list[TestDensity]:
    """Seeded bump suite: ``per_chart`` random centers/widths per chart.

    Each bump's half-width per axis is 0.15 to 0.45 of the box's.
    """
    import sympy as sp

    atlas = _atlas_of(space)
    dim = atlas.dim
    rng = np.random.default_rng(seed)
    syms = sp.symbols(f"y0:{dim}") if dim > 1 else (sp.Symbol("y0"),)
    out = []
    for c in sorted(atlas.charts):
        box = atlas.charts[c].sample_box
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        for k in range(per_chart):
            w = rng.uniform(0.15, 0.45, size=dim) * (hi - lo) / 2.0
            ctr = rng.uniform(lo + w, hi - w)
            expr = sp.Integer(1)
            for i in range(dim):
                expr = expr * _bump_expr((syms[i] - float(ctr[i])) / float(w[i]))
            fn = from_sympy(expr, syms, label=f"bump{k}@{c}")
            out.append(TestDensity(
                c, fn, tuple((float(a), float(b)) for a, b in zip(ctr - w, ctr + w)),
                label=f"{c}:{k}"))
    return out


def integrate_box(fn: SmoothFn, box, eps_hint: float, sweep: Sweep | None = None) -> float:
    """Integral of a SmoothFn over a box, by ``quadrature.cubature`` seeded at
    the scale ``eps_hint``, so concentrated or oscillatory nets are resolved
    without paying for it on smooth ones, in every dimension.  Alone it
    raises QuadratureFailure when the integral is unresolved; in a ``sweep``
    over eps it continues from the last eps and returns NaN there.
    """
    if not isinstance(box[0], tuple):
        box = (box,)
    return cubature(fn, box, eps_hint, sweep)


def integrate(U: GeneralizedFunction, density: SmoothFn | None = None,
              box=None, chart: str | None = None, grid=DEFAULT_GRID) -> GeneralizedNumber:
    """eps -> integral over a chart box of u_eps times a density factor; NaN at
    an eps whose integral is unresolved (``quadrature`` module docstring)."""
    if chart is None:
        names = U.chart_names()
        if len(names) != 1:
            raise NotComparable("chart must be named when U lives on several charts")
        chart = names[0]
    if box is None:
        box = U.atlas.charts[chart].sample_box
    net = U.net(chart)
    sweep = Sweep(net.at if density is None else lambda e: net.at(e) * density)
    values = [integrate_box(sweep.at(float(e)), box, float(e), sweep) for e in grid]
    return GeneralizedNumber(grid, values, label=f"int {U.label}")


def richardson_limit(grid, values):
    """Quadratic extrapolation to eps = 0 through the three smallest eps.

    Returns (limit, residual) where the residual is the shift relative
    to the linear two-point extrapolation, an error indicator.
    """
    order = np.argsort(np.asarray(grid, dtype=float))
    e = np.asarray(grid, dtype=float)[order][:3]
    v = np.asarray(values, dtype=float)[order][:3]
    if len(e) < 3:
        raise QuadratureFailure("need at least three grid points to extrapolate")
    quad = 0.0
    for i in range(3):
        li = 1.0
        for j in range(3):
            if j != i:
                li *= (0.0 - e[j]) / (e[i] - e[j])
        quad += v[i] * li
    lin = v[0] + (v[1] - v[0]) * (0.0 - e[0]) / (e[1] - e[0])
    return float(quad), abs(float(quad - lin))


@dataclass
class AssociationVerdict:
    """Per-density pairing table with extrapolated limits and a status."""

    status: str
    rows: list = field(default_factory=list)
    tol: float = PAIRING_TOL
    meta: dict = field(default_factory=dict)

    @property
    def associated(self) -> bool:
        return self.status in ("associated", "associated_to_zero")

    def to_json(self) -> dict:
        return {"status": self.status, "tol": self.tol, "rows": self.rows,
                "meta": self.meta}

    def to_csv(self) -> str:
        lines = ["density,eps,pairing,extrapolated,target,residual,ok"]
        for r in self.rows:
            for e, v in zip(r["grid"], r["pairings"]):
                lines.append(
                    f"{r['density']},{e:.10g},{v:.17g},{r['extrapolated']:.17g},"
                    f"{r['target']:.17g},{r['residual']:.6g},{int(r['ok'])}")
        return "\n".join(lines) + "\n"


def _target_action(target, density: TestDensity) -> float:
    if target is None or (is_number(target) and float(target) == 0.0):
        return 0.0
    if isinstance(target, DistributionSpec):
        return target.action(density.fn)
    if isinstance(target, dict):
        spec = target.get(density.chart)
        return 0.0 if spec is None else spec.action(density.fn)
    raise TypeError(f"unsupported association target {target!r}")


def associate(U: GeneralizedFunction, target=None, densities=None, grid=DEFAULT_GRID,
              tol: float = PAIRING_TOL) -> AssociationVerdict:
    """Association test: pairings against a density suite, extrapolated.

    ``target`` is None/0, a DistributionSpec (applied in the density's
    chart coordinates), or a dict of specs per chart.  Each density is
    paired over the grid, Richardson-extrapolated to eps = 0, and
    compared with the target's action.  A pairing that is unresolved at
    some eps (NaN from ``integrate``) makes the status "unresolved".
    """
    if densities is None:
        densities = default_densities(U.atlas, seed=7)
    densities = [d for d in densities if d.chart in U.nets]
    if not densities:
        raise NotComparable("no test density lands in a chart carried by U")
    rows = []
    all_ok, resolved = True, True
    for d in densities:  # a pairing: u_eps times the density over its box
        tgt = _target_action(target, d)
        pairings = integrate(U, d.fn, d.box, d.chart, grid).values.tolist()
        resolved = resolved and not np.isnan(pairings).any()
        limit, extrap_res = richardson_limit(grid, pairings)
        residual = abs(limit - tgt)
        ok = residual < tol
        all_ok = all_ok and ok
        rows.append({
            "density": d.label or d.chart, "chart": d.chart,
            "grid": [float(e) for e in grid], "pairings": pairings,
            "extrapolated": limit, "extrapolation_residual": extrap_res,
            "target": tgt, "residual": residual, "ok": ok,
        })
    zero_target = target is None or (is_number(target) and float(target) == 0.0)
    if not resolved:
        status = "unresolved"
    elif all_ok:
        status = "associated_to_zero" if zero_target else "associated"
    else:
        status = "not_associated"
    return AssociationVerdict(status, rows, tol, meta={
        "n_densities": len(densities),
        "note": "finite density suite; a surrogate for all compactly "
                "supported densities",
    })


def ck_associate(U: GeneralizedFunction, fns: dict, k: int, grid=DEFAULT_GRID,
                 n_samples: int = 201) -> dict:
    """C^k association: all coordinate partials of (u_eps - f) up to
    order k decay uniformly on the chart sample boxes.

    Coordinate partials stand in for iterated Lie derivatives; locally
    every iterated Lie derivative is a combination of them with smooth
    coefficients, so the verdicts agree.  Each sup sequence must end
    below ``CK_TOL`` with a positive fitted slope, or be negligible with
    its rounding floor set by ``1 + sup|d^alpha f|``.
    """
    dim = U.atlas.dim
    rows = []
    ok_all = True
    for c in U.chart_names():
        f = fns[c]
        box = U.atlas.charts[c].sample_box
        diff = U.nets[c] - Net.constant_in_eps(f)
        for alpha in mi.up_to(dim, k):
            sups = sup_norms(diff, alpha, box, grid, n_samples)
            fit = estimate_order(zip(grid, sups),
                                 scale=1.0 + sup_norm_on_box(f, alpha, box, n_samples))
            final = float(fit.magnitudes[-1])  # the finest eps
            row_ok = final < CK_TOL and (fit.slope > 0.0 or fit.is_negligible)
            ok_all = ok_all and row_ok
            rows.append({"chart": c, "alpha": list(alpha), "slope": fit.slope,
                         "final_sup": final, "note": fit.note, "ok": row_ok})
    return {"k": k, "ok": ok_all, "tol": CK_TOL, "rows": rows}


def product_consistency_check(U: GeneralizedFunction, V: GeneralizedFunction,
                              f: dict, w, mode: str = "a", grid=DEFAULT_GRID,
                              k: int = 2) -> dict:
    """Does U*V associate to f*w, given the smooth-factor hypotheses?

    mode "a": U must equal the constant embedding of f (checked exactly
    per eps at lattice points).  mode "b": U must be C^k-associated to f
    (finite-k stand-in for C^infinity).  V must associate to w.  The
    product pairing runs either way; failed hypotheses are reported, and
    explain a failed product verdict rather than invalidating the run.
    """
    if mode not in ("a", "b"):
        raise ValueError("mode must be 'a' or 'b'")
    hyp = {"mode": mode}
    if mode == "a":
        three = [grid[0], grid[len(grid) // 2], grid[-1]]
        hyp["sigma_gap"] = float(np.max([
            sup_norms(U.nets[c] - f[c], (0,) * U.atlas.dim, U.atlas.charts[c].sample_box,
                      three, 61) for c in U.chart_names()]))
        hyp["ok"] = hyp["sigma_gap"] == 0.0
    else:
        ck = ck_associate(U, f, k, grid=grid)
        hyp["ck"] = {"k": k, "ok": ck["ok"]}
        hyp["ok"] = ck["ok"]

    v_verdict = associate(V, w, grid=grid)
    hyp["v_associated"] = v_verdict.associated

    if isinstance(w, DistributionSpec):
        target = {c: w.mul_smooth(f[c]) for c in U.chart_names()}
    elif isinstance(w, dict):
        target = {c: spec.mul_smooth(f[c]) for c, spec in w.items()}
    else:
        target = 0.0
    prod_verdict = associate(U * V, target, grid=grid)
    consistent = hyp["ok"] and hyp["v_associated"] and prod_verdict.associated
    return {
        "hypotheses": hyp,
        "v_verdict": v_verdict.to_json(),
        "product_verdict": prod_verdict.to_json(),
        "consistent": consistent,
        "note": "hypothesis failures explain a failed product verdict",
    }


# -- manifold embedding --------------------------------------------------


def transport_net(net: Net, tr: Transition) -> Net:
    """Pull a chart-local net through an affine transition t, exactly: d^alpha of
    f o t at x is prod_i J_ii(x)**alpha_i * (d^alpha f)(t(x)), one evaluation of f."""
    if not tr.affine:
        raise CoherenceFailure("transition is not declared affine; cannot transport through it")

    def factory(eps):
        f = net.at(eps)

        def pfn(alpha, pts):
            vals = f._partial_fn(alpha, tr.fn(pts))
            if not any(alpha):
                return vals
            return np.prod(np.diagonal(tr.jac(pts), axis1=1, axis2=2) ** alpha, axis=1) * vals

        return SmoothFn(net.dim, pfn, f.max_order, f.uses_fd)

    return Net(net.dim, factory, label=f"transported {net.label}")


def embed_manifold(specs: dict, manifold: Manifold, mol: Mollifier) -> GeneralizedFunction:
    """Atlas embedding of a chartwise distribution family.

    Each chart j contributes zeta_j * ((chi_j u_j) * rho_eps) in its own
    coordinates; the plateau zeta_j (identically one on supp chi_j) cuts
    the mollified tail so every term stays supported inside its chart.
    Terms are then transported to the other charts through the affine
    transitions (``transport_net``), and summed.
    """
    atlas = manifold.atlas
    pou = manifold.pou
    if set(specs) != set(atlas.charts):
        raise PartitionMismatch(
            f"spec charts {sorted(specs)} != atlas charts {sorted(atlas.charts)}")
    dim = atlas.dim

    terms = {}
    for j in sorted(atlas.charts):
        spec = specs[j]
        localized = spec.mul_smooth(pou.chi[j])
        if not localized.singular and not localized.regular:
            continue
        conv = embed_rn(localized, mol)
        terms[j] = conv * Net.constant_in_eps(pou.zeta[j])

    nets = {}
    for i in sorted(atlas.charts):
        acc = Net.zero(dim)
        for j, term in terms.items():
            if i == j:
                acc = acc + term
            else:
                tr = atlas.transitions.get((i, j))
                if tr is None:
                    raise CoherenceFailure(f"no transition {i} -> {j} to transport term")
                acc = acc + transport_net(term, tr)
        nets[i] = acc
    return GeneralizedFunction(atlas, nets, label="iota_A")
