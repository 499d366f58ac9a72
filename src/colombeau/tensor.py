"""Generalized tensor fields: chartwise component nets.

One class serves every valence (r, s): a field stores one net per chart
and index tuple of (dim,) * (r + s), in C order.  Called on one
argument, a (1, 0) field acts on a generalized function as a
derivation and a (0, 1) field pairs with a vector field.  On overlaps
the components must satisfy the Jacobian-weighted transformation law up
to a negligible residual; ``coherence_check_tensor`` measures that.  On
top sit the module algebra over generalized functions, tensor products,
contractions, Lie derivatives along smooth and generalized vector
fields, and reconstruction of a vector field from an algebraic
derivation.
"""

from __future__ import annotations

import functools

import numpy as np
import sympy as sp

from . import _mindex as mi
from .errors import InvalidSlots, NotADerivation
from .gfunc import (GeneralizedFunction, GeneralizedSection, _atlas_of, _keys, _same_charts,
                    _section, _sum, classify, overlap_residual)
from .gnumber import GeneralizedNumber
from .grid import DEFAULT_GRID
from .manifolds import Manifold
from .nets import Net
from .smooth import from_sympy


class GeneralizedTensorField(GeneralizedSection):
    """Valence-(r, s) tensor field with one component net per chart."""

    def __init__(self, space, valence, comps: dict, label: str = ""):
        r, s = int(valence[0]), int(valence[1])
        if r < 0 or s < 0 or r + s == 0:
            raise InvalidSlots(f"valence {valence} must be nonnegative with rank >= 1")
        self.valence = (r, s)
        super().__init__(space, comps, label)

    # -- module algebra over generalized functions ----------------------

    def _like(self, comps, label: str = "") -> "GeneralizedTensorField":
        return GeneralizedTensorField(self.atlas, self.valence, comps, label)

    # -- evaluation ------------------------------------------------------

    def evaluate(self, one_forms=(), vector_fields=()) -> GeneralizedFunction:
        """Full contraction T(A_1..A_r, X_1..X_s) as a generalized function.

        Multilinear over the generalized scalars in every slot.
        """
        r, s = self.valence
        one_forms = tuple(one_forms)
        vector_fields = tuple(vector_fields)
        if len(one_forms) != r or len(vector_fields) != s:
            raise InvalidSlots(
                f"need {r} one-forms and {s} vector fields, "
                f"got {len(one_forms)} and {len(vector_fields)}")
        for a in one_forms:
            if getattr(a, "valence", None) != (0, 1):
                raise InvalidSlots("upper slots take one-forms")
            _same_charts(self, a)
        for x in vector_fields:
            if getattr(x, "valence", None) != (1, 0):
                raise InvalidSlots("lower slots take vector fields")
            _same_charts(self, x)

        def term(c, idx):
            out = self.comps[c][idx]
            for k in range(r):
                out = out * one_forms[k].comps[c][(idx[k],)]
            for l in range(s):
                out = out * vector_fields[l].comps[c][(idx[r + l],)]
            return out

        nets = {c: _sum(term(c, idx) for idx in part) for c, part in self.comps.items()}
        return GeneralizedFunction(self.atlas, nets, label=f"eval {self.label}")

    def __call__(self, arg) -> GeneralizedFunction:
        """A vector field acts on a generalized function; a one-form pairs with a vector field."""
        if self.valence == (1, 0):
            return field_apply(self, arg)
        if self.valence == (0, 1):
            return self.evaluate(vector_fields=(arg,))
        raise InvalidSlots(f"a valence-{self.valence} field takes no single argument")


def smooth_vector_field(space, fns: dict, label: str = "") -> GeneralizedTensorField:
    """Wrap chartwise component SmoothFn lists as a constant-in-eps field."""
    return GeneralizedTensorField(_atlas_of(space), (1, 0), fns, label=label)


# -- products and contractions --------------------------------------------


def tensor_product(S: GeneralizedTensorField,
                   T: GeneralizedTensorField) -> GeneralizedTensorField:
    """S (x) T with upper slots of S first, then of T; same for lower."""
    if not isinstance(S, GeneralizedTensorField) or not isinstance(T, GeneralizedTensorField):
        raise TypeError("tensor_product takes two tensor fields")
    _same_charts(S, T)
    r1, s1 = S.valence
    r2, s2 = T.valence
    keys = _keys(S.atlas.dim, r1 + r2 + s1 + s2)
    # an index of the product reads (upper of S, upper of T, lower of S, lower of T)
    comps = {c: {idx: S.comps[c][idx[:r1] + idx[r1 + r2:r1 + r2 + s1]]
                 * T.comps[c][idx[r1:r1 + r2] + idx[r1 + r2 + s1:]] for idx in keys}
             for c in S.comps}
    return GeneralizedTensorField(S.atlas, (r1 + r2, s1 + s2), comps,
                                  label=f"({S.label})x({T.label})")


def contract(T: GeneralizedTensorField, up: int = 0, low: int = 0):
    """Trace the ``up``-th upper slot against the ``low``-th lower slot.

    Rank-2 input collapses to a GeneralizedFunction, the rank-0 section.
    """
    r, s = T.valence
    if not (0 <= up < r):
        raise InvalidSlots(f"no upper slot {up} on valence {T.valence}")
    if not (0 <= low < s):
        raise InvalidSlots(f"no lower slot {low} on valence {T.valence}")
    dim = T.atlas.dim

    def traced(c, rest):
        up_rest, low_rest = rest[:r - 1], rest[r - 1:]
        keys = (up_rest[:up] + (k,) + up_rest[up:]
                + low_rest[:low] + (k,) + low_rest[low:] for k in range(dim))
        return _sum(T.comps[c][key] for key in keys)

    comps = {c: {rest: traced(c, rest) for rest in _keys(dim, r + s - 2)} for c in T.comps}
    return _section(GeneralizedTensorField, T.atlas, (r - 1, s - 1), comps, f"tr {T.label}")


# -- Lie derivatives -------------------------------------------------------


def field_apply(Xi: GeneralizedTensorField, U: GeneralizedFunction) -> GeneralizedFunction:
    """Xi acting on a generalized scalar: sum_m Xi^m d_m U per chart, the rank-0
    :func:`gen_lie_derivative`."""
    if not isinstance(Xi, GeneralizedTensorField) or Xi.valence != (1, 0):
        raise InvalidSlots("only vector fields act on scalars")
    if not isinstance(U, GeneralizedFunction):
        raise TypeError(f"expected a generalized function, got {U!r}")
    return U._like(_lie_parts(U, Xi, U.keys()), label=f"Xi({U.label})")


def _lie_parts(T: GeneralizedTensorField, Xi: GeneralizedTensorField, keys) -> dict:
    """The chart parts of :func:`gen_lie_derivative` ``(T, Xi)``, built at ``keys`` only,
    each entry of T read once through ``T.component`` (so a (0, k) form passes itself)."""
    if not isinstance(Xi, GeneralizedTensorField) or Xi.valence != (1, 0):
        raise InvalidSlots("Lie derivative needs a vector field")
    _same_charts(T, Xi)
    r, s = T.valence
    dim = T.atlas.dim
    comps = {}
    for c in T.comps:
        xs = [Xi.comps[c][(m,)] for m in range(dim)]
        dxs = [[xs[i].partial(mi.unit(dim, m)) for m in range(dim)]
               for i in range(dim)]
        entry = functools.cache(functools.partial(T.component, c))
        comps[c] = {}
        for idx in keys:
            upper, lower = idx[:r], idx[r:]
            acc = _sum(xs[m] * entry(idx).partial(mi.unit(dim, m)) for m in range(dim))
            for a in range(r):
                for m in range(dim):
                    jdx = upper[:a] + (m,) + upper[a + 1:] + lower
                    acc = acc - dxs[upper[a]][m] * entry(jdx)
            for b in range(s):
                for m in range(dim):
                    jdx = upper + lower[:b] + (m,) + lower[b + 1:]
                    acc = acc + dxs[m][lower[b]] * entry(jdx)
            comps[c][idx] = acc
    return comps


def gen_lie_derivative(T: GeneralizedTensorField,
                       Xi: GeneralizedTensorField) -> GeneralizedTensorField:
    """Lie derivative of T along a generalized vector field Xi.

    Chartwise classical formula: the transport term Xi^m d_m T, minus a
    d_m Xi^i correction for every upper slot, plus a d_j Xi^m correction
    for every lower slot.
    """
    return T._like(_lie_parts(T, Xi, T.keys()), label=f"L_Xi {T.label}")


def lie_derivative_tensor(T: GeneralizedTensorField, xi: dict) -> GeneralizedTensorField:
    """Lie derivative along a smooth field given per chart as SmoothFn lists.

    Delegates to the generalized-field version with constant-in-eps
    components, so the two routes agree identically when xi is the
    constant embedding of a smooth field.
    """
    return gen_lie_derivative(T, smooth_vector_field(T.atlas, xi, label="smooth xi"))


def bracket(X: GeneralizedTensorField, Y: GeneralizedTensorField) -> GeneralizedTensorField:
    """Lie bracket [X, Y] of two generalized vector fields."""
    if not all(isinstance(Z, GeneralizedTensorField) and Z.valence == (1, 0) for Z in (X, Y)):
        raise InvalidSlots("bracket takes vector fields")
    return gen_lie_derivative(Y, X)


def lie_route_agreement(U: GeneralizedFunction, fields: list, depth: int,
                        grid=DEFAULT_GRID, n_samples=201) -> dict:
    """Compare iterated-Lie-derivative verdicts with partial-derivative ones.

    ``fields`` lists smooth vector fields, each given per chart as a list
    of component SmoothFns; all words in them up to the given depth are
    classified at order 0 and the summary verdict is matched against
    classify() at total orders 0..depth.
    """
    fields = [smooth_vector_field(U.atlas, xi) for xi in fields]
    rows = []
    layer = [((), U)]
    words = [((), U)]
    for _ in range(depth):
        layer = [(word + (idx,), field_apply(Xi, gf))
                 for word, gf in layer for idx, Xi in enumerate(fields)]
        words.extend(layer)
    for word, gf in words:
        rep = classify(gf, orders=(0,), grid=grid, n_samples=n_samples)
        rows.append({"word": list(word), "summary": rep["summary"],
                     "order": rep["order"]})
    lie_neg = all(r["summary"] == "negligible" for r in rows)
    lie_mod = all(r["summary"] in ("negligible", "moderate") for r in rows)
    part = classify(U, orders=tuple(range(depth + 1)), grid=grid, n_samples=n_samples)
    part_neg = part["summary"] == "negligible"
    part_mod = part["summary"] in ("negligible", "moderate")
    return {
        "agree": (lie_neg == part_neg) and (lie_mod == part_mod),
        "lie_rows": rows,
        "partial_summary": part["summary"],
        "depth": depth,
    }


# -- coherence on overlaps -------------------------------------------------


def coherence_check_tensor(T: GeneralizedTensorField, grid=DEFAULT_GRID,
                           n_samples: int = 31) -> dict:
    """Classify the Jacobian-weighted transformation residual per overlap.

    The valence-(r, s) case of :func:`gfunc.overlap_residual`; coherent
    means every fit is negligible.
    """
    return overlap_residual(T, grid, n_samples)


# -- seeded coherent inputs -------------------------------------------------


def random_coherent_functions(manifold: Manifold, count: int = 5, seed: int = 0):
    """Seeded smooth generalized functions with exact overlap coherence.

    On periodic manifolds the chart expressions are trigonometric
    polynomials shared verbatim between charts, which the shift
    transitions preserve; on euclidean space plain polynomials.  A mild
    per-function (1 + a*eps) factor gives the nets genuine eps
    dependence without disturbing coherence.
    """
    rng = np.random.default_rng(seed)
    atlas = manifold.atlas
    name = manifold.name
    out = []
    for j in range(count):
        if name.startswith("euclidean"):
            syms = tuple(sp.symbols(f"x0:{atlas.dim}"))
            coef = rng.normal(size=3 * atlas.dim + 1)
            terms = [round(float(coef[-1]), 6)]
            t = 0
            for i, v in enumerate(syms):
                for p in range(1, 4):
                    terms.append(round(float(coef[t]) / (p * p), 6) * v ** p)
                    t += 1
        elif name in ("circle", "torus2"):
            syms = tuple(sp.symbols(f"y0:{atlas.dim}"))
            coef = rng.normal(size=(len(syms), 2, 2))
            terms = [round(float(rng.normal()), 6)]
            for i, v in enumerate(syms):
                for kf in (1, 2):
                    terms.append(round(float(coef[i, kf - 1, 0]) / kf, 6) * sp.sin(kf * v))
                    terms.append(round(float(coef[i, kf - 1, 1]) / kf, 6) * sp.cos(kf * v))
        else:
            raise ValueError(f"no coherent probe family for manifold {name!r}")
        f = from_sympy(sp.Add(*terms), syms, label=f"probe{j}")  # one flatten, not one per term
        a = round(float(rng.uniform(0.5, 2.0)), 6)
        nets = {c: Net(atlas.dim, lambda e, f=f, a=a: f * (1.0 + a * e))
                for c in atlas.charts}
        out.append(GeneralizedFunction(atlas, nets, label=f"probe{j}"))
    return out


def random_tensor_field(manifold: Manifold, valence, seed: int = 0) -> GeneralizedTensorField:
    """Seeded coherent tensor field built from coherent scalar components.

    The builtin periodic manifolds have unit-Jacobian transitions, so
    component scalars shared between charts transform correctly for
    every valence.
    """
    r, s = int(valence[0]), int(valence[1])
    comps = _seeded_comps(manifold, _keys(manifold.atlas.dim, r + s), seed)
    return GeneralizedTensorField(manifold, (r, s), comps, label=f"seeded {valence}")


def _seeded_comps(manifold: Manifold, keys, seed: int) -> dict:
    """Per-chart components, one seeded coherent function's nets for each key."""
    fns = random_coherent_functions(manifold, count=max(1, len(keys)), seed=seed)
    return {c: {K: fns[t].nets[c] for t, K in enumerate(keys)} for c in manifold.atlas.charts}


# -- derivations ------------------------------------------------------------


DERIVATION_TOL = 1e-9
DERIVATION_POINTS = 50


def _surrogate_function(manifold: Manifold, surrogate) -> GeneralizedFunction:
    return GeneralizedFunction(manifold.atlas, surrogate.exprs, label=f"W{surrogate.axis}")


def _theta_output(theta, U, atlas, charts):
    V = theta(U)
    if not isinstance(V, GeneralizedFunction):
        raise NotADerivation(f"map returned {type(V).__name__}, not a generalized function")
    if V.atlas is not atlas or set(V.nets) != charts:
        raise NotADerivation("map does not preserve the atlas and chart set")
    return V


def derivation_to_vector_field(theta, manifold: Manifold,
                               grid=DEFAULT_GRID) -> GeneralizedTensorField:
    """Recover the vector field Xi with theta = Xi(.) from a derivation.

    The candidate components are theta applied to the manifold's
    coordinate surrogates, stitched across each surrogate's core region
    where the surrogate is an exact coordinate.  Before trusting theta
    it is probed for linearity and the Leibniz rule on the surrogates,
    their squares, and five seeded coherent functions, at
    ``DERIVATION_POINTS`` random points per chart to ``DERIVATION_TOL``;
    failure raises NotADerivation, as does a non-negligible residual
    theta(U) - Xi(U) on the probe suite.
    """
    if not isinstance(manifold, Manifold) or not manifold.surrogates:
        raise TypeError("need a Manifold carrying coordinate surrogates")
    atlas = manifold.atlas
    dim = atlas.dim
    charts = set(atlas.charts)
    rng = np.random.default_rng(0)
    pts = {}
    for c, ch in atlas.charts.items():
        box = ch.sample_box
        pts[c] = np.stack([rng.uniform(lo, hi, size=DERIVATION_POINTS)
                           for lo, hi in box], axis=-1)
    eps_probe = [grid[0], grid[len(grid) // 2], grid[-1]]
    zero = (0,) * dim

    surrogate_fns = [_surrogate_function(manifold, s) for s in manifold.surrogates]
    probes = list(surrogate_fns)
    probes += [S * S for S in surrogate_fns]
    probes += random_coherent_functions(manifold, count=5)

    def sup_at(V, c, e):
        return float(np.max(np.abs(V.nets[c].at(e)._partial_fn(zero, pts[c]))))

    thetas = [_theta_output(theta, U, atlas, charts) for U in probes]
    for i, U in enumerate(probes):
        V = probes[(i + 1) % len(probes)]
        lin = _theta_output(theta, U + V, atlas, charts) - thetas[i] \
            - thetas[(i + 1) % len(probes)]
        lei = _theta_output(theta, U * V, atlas, charts) - thetas[i] * V \
            - U * thetas[(i + 1) % len(probes)]
        for c in sorted(charts):
            for e in eps_probe:
                bad = np.maximum(sup_at(lin, c, e), sup_at(lei, c, e))
                if not bad <= DERIVATION_TOL:
                    raise NotADerivation(
                        f"probe {i} fails linearity/Leibniz in chart {c!r} "
                        f"at eps {e:.3g}: residual {bad:.3g}")

    # stitch theta(surrogate) over the cores where the surrogate is an
    # exact coordinate; the cores cover each sample box by construction
    theta_s = dict(zip((id(s) for s in manifold.surrogates),
                       thetas[:len(manifold.surrogates)]))
    comps = {}
    for c in sorted(charts):
        col = {}
        for axis in range(dim):
            cands = [s for s in manifold.surrogates if s.axis == axis]
            if not cands:
                raise NotADerivation(f"no coordinate surrogate for axis {axis}")
            covered = np.zeros(len(pts[c]), dtype=bool)
            for s in cands:
                covered |= s.core_mask[c](pts[c])
            if not covered.all():
                raise NotADerivation(
                    f"surrogate cores miss part of chart {c!r} on axis {axis}")

            def factory(e, c=c, cands=cands):
                fn = theta_s[id(cands[-1])].nets[c].at(e)
                for s in reversed(cands[:-1]):
                    fn = theta_s[id(s)].nets[c].at(e).where(s.core_mask[c], fn)
                return fn

            col[(axis,)] = Net(dim, factory)
        comps[c] = col
    Xi = GeneralizedTensorField(atlas, (1, 0), comps, label="recovered")

    for i, U in enumerate(probes):
        resid = thetas[i] - field_apply(Xi, U)
        for c in sorted(charts):
            fit = GeneralizedNumber.from_fn(lambda e: sup_at(resid, c, e), grid).classify()
            if not fit.is_negligible:
                raise NotADerivation(
                    f"probe {i} residual in chart {c!r} is {fit.verdict} "
                    f"(slope {fit.slope:.2f}), not negligible")
    return Xi
