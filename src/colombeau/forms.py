"""Generalized differential forms: antisymmetric chartwise nets.

A degree-k form stores one component net per chart and strictly
increasing index tuple; components at permuted indices carry the parity
sign and repeated indices vanish, so antisymmetry holds by storage.
Provides the exterior derivative, wedge products, interior products,
Lie derivatives, the star-shaped homotopy inverse of d, top-degree
integration, and Stokes residual reports on nonempty coordinate boxes
(an interval is the 1-box) and on disks.  Box integrals go through
``gfunc.integrate``, faces through ``quadrature.cubature``, box sups
through ``nets.sup_norms``.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import _mindex as mi
from .errors import (AtlasMismatch, DegreeOverflow, DomainError, InvalidDegree,
                     InvalidSlots, QuadratureFailure)
from .gfunc import (GeneralizedFunction, GeneralizedSection, _keys, _same_charts, _section,
                    _sum, integrate)
from .gnumber import GeneralizedNumber
from .grid import DEFAULT_GRID
from .manifolds import Manifold
from .nets import Net, sup_norms
from .quadrature import Sweep, cubature, interval_rule
from .smooth import SmoothFn
from .tensor import GeneralizedTensorField, _lie_parts, _seeded_comps, coherence_check_tensor

HOMOTOPY_NODES = 32   # Gauss-Legendre nodes in t of the radial homotopy
DISK_ANGLES = 256     # equispaced angles of the disk Stokes check
DISK_RADII = 64       # Gauss-Legendre nodes in r of the disk Stokes check


def index_tuples(dim: int, k: int):
    """Strictly increasing k-tuples from range(dim); empty list for k > dim."""
    return list(itertools.combinations(range(dim), k))


def canonical_index(idx):
    """(sign, sorted tuple) of an index tuple; sign 0 on repeats."""
    idx = tuple(int(i) for i in idx)
    if len(set(idx)) != len(idx):
        return 0, None
    inversions = sum(1 for a, b in itertools.combinations(idx, 2) if a > b)
    return (-1) ** inversions, tuple(sorted(idx))


def _merge_sign(positions):
    # parity of pulling the chosen positions to the front, order kept
    return (-1) ** sum(p - i for i, p in enumerate(positions))


def _signed(net, negate):
    return net * -1.0 if negate else net


class GeneralizedKForm(GeneralizedSection):
    """Degree-k form with one net per chart and increasing index tuple."""

    _Mismatch = InvalidDegree

    def __init__(self, space, degree: int, comps: dict, label: str = ""):
        k = int(degree)
        if k < 1:
            raise InvalidDegree(f"degree {degree} forms are plain generalized functions")
        self.degree = k
        self.valence = (0, k)
        super().__init__(space, comps, label)

    def _part(self, c, table) -> dict:
        keys = self.keys()
        if not isinstance(table, dict):
            if len(table) != len(keys):
                raise AtlasMismatch(f"components for chart {c!r}: {len(table)} entries, want "
                                    f"one per increasing degree-{self.degree} tuple, {len(keys)}")
            table = dict(zip(keys, table))
        extra = set(table) - set(keys)
        if extra:
            raise InvalidSlots(f"not increasing degree-{self.degree} tuples: {sorted(extra)}")
        return {K: self._net(c, table.get(K, 0.0)) for K in keys}

    def keys(self):
        return index_tuples(self.atlas.dim, self.degree)

    _canonical = staticmethod(canonical_index)

    # -- module algebra --------------------------------------------------

    def _like(self, comps, label: str = "") -> "GeneralizedKForm":
        return GeneralizedKForm(self.atlas, self.degree, comps, label)

    # -- views -----------------------------------------------------------

    def to_tensor(self) -> GeneralizedTensorField:
        """The (0, k) tensor with fully antisymmetrized components."""
        keys = _keys(self.atlas.dim, self.degree)
        comps = {c: {idx: self.component(c, idx) for idx in keys} for c in self.comps}
        return GeneralizedTensorField(self.atlas, (0, self.degree), comps,
                                      label=self.label)

    def evaluate(self, vector_fields) -> GeneralizedFunction:
        return self.to_tensor().evaluate(vector_fields=tuple(vector_fields))


# -- exterior calculus -------------------------------------------------------


def exterior_d(omega):
    """Exterior derivative; a generalized function is the 0-form, its part ``{(): net}``."""
    if not isinstance(omega, (GeneralizedFunction, GeneralizedKForm)):
        raise TypeError(f"cannot differentiate {omega!r}")
    dim = omega.atlas.dim
    k = omega.rank
    comps = {}
    for c, table in omega.comps.items():
        comps[c] = {}
        for J in index_tuples(dim, k + 1):
            terms = []
            for t in range(k + 1):
                term = table[J[:t] + J[t + 1:]].partial(mi.unit(dim, J[t]))
                terms.append(_signed(term, t % 2))
            comps[c][J] = _sum(terms)
    return GeneralizedKForm(omega.atlas, k + 1, comps, label=f"d {omega.label}")


def wedge(a, b):
    """Wedge product; either factor may be a generalized function, the 0-form."""
    if not all(isinstance(f, (GeneralizedFunction, GeneralizedKForm)) for f in (a, b)):
        raise TypeError("wedge takes forms or generalized functions")
    _same_charts(a, b)
    dim = a.atlas.dim
    k, l = a.rank, b.rank
    if k + l > dim:
        raise DegreeOverflow(f"degree {k}+{l} exceeds dimension {dim}")
    comps = {}
    for c in a.comps:
        comps[c] = {}
        for K in index_tuples(dim, k + l):
            terms = []
            for pos in itertools.combinations(range(k + l), k):
                comp = tuple(p for p in range(k + l) if p not in pos)
                term = a.comps[c][tuple(K[p] for p in pos)] \
                    * b.comps[c][tuple(K[p] for p in comp)]
                terms.append(_signed(term, _merge_sign(pos) < 0))
            comps[c][K] = _sum(terms)
    return _section(GeneralizedKForm, a.atlas, k + l, comps, f"({a.label})^({b.label})")


def insert(omega: GeneralizedKForm, Xi: GeneralizedTensorField):
    """Interior product i_Xi omega; degree drops by one.

    A 1-form collapses to a generalized function.
    """
    if not isinstance(omega, GeneralizedKForm):
        raise InvalidDegree("interior product needs a form of degree >= 1")
    if not isinstance(Xi, GeneralizedTensorField) or Xi.valence != (1, 0):
        raise InvalidSlots("interior product inserts a vector field")
    _same_charts(omega, Xi)
    k = omega.degree
    comps = {}
    for c, table in omega.comps.items():
        terms = {J: [] for J in index_tuples(omega.atlas.dim, k - 1)}
        for K, net in table.items():
            for t in range(k):
                term = Xi.comps[c][(K[t],)] * net
                terms[K[:t] + K[t + 1:]].append(_signed(term, t % 2))
        comps[c] = {J: _sum(ts, 0.0) for J, ts in terms.items()}
    return _section(GeneralizedKForm, omega.atlas, k - 1, comps, f"i_Xi {omega.label}")


def lie_derivative_form(omega: GeneralizedKForm,
                        Xi: GeneralizedTensorField) -> GeneralizedKForm:
    """L_Xi omega: the tensor Lie derivative of omega, a (0, k) tensor, along
    Xi, built at the increasing index tuples only."""
    if not isinstance(omega, GeneralizedKForm):
        raise InvalidDegree("need a form of degree >= 1")
    comps = _lie_parts(omega, Xi, omega.keys())
    return omega._like(comps, label=f"L_Xi {omega.label}")


# -- homotopy inverse of d ---------------------------------------------------


def _single_star_chart(atlas):
    names = sorted(atlas.charts)
    if len(names) != 1:
        raise DomainError("the homotopy needs a single chart star-shaped about 0")
    c = names[0]
    for lo, hi in atlas.charts[c].sample_box:
        if not (lo <= 0.0 <= hi):
            raise DomainError("chart box does not contain the origin")
    return c


def homotopy_H(omega: GeneralizedKForm):
    """Radial homotopy: (H w)(x)(v...) integrates t^(k-1) w(tx)(x, v...).

    Gauss-Legendre with n_t = HOMOTOPY_NODES nodes in t.  The resulting
    component evaluators carry exact derivative rules, so d(H w) is
    available analytically.  A 1-form collapses to a generalized function.

    An evaluation on m points stacks the n_t scaled lattices t_q * x
    into one lattice of n_t * m points and evaluates each source
    component and multi-index it needs once on that stack, as an
    (n_t, m) array: a leaf call sees n_t * m points.  Each term of the
    integrand is formed for all nodes at once, row q scaled by the node
    powers t_q^|alpha| and alpha_m t_q^(|alpha|-1) taken one node at a
    time as scalars, so every element is the product a per-node loop
    forms.  The weighted sum over the nodes then runs node by node in
    that loop's order, so the values are the same to the bit.
    """
    if not isinstance(omega, GeneralizedKForm):
        raise InvalidDegree("the homotopy applies to forms of degree >= 1")
    atlas = omega.atlas
    c = _single_star_chart(atlas)
    dim = atlas.dim
    k = omega.degree
    t_nodes, t_weights = interval_rule(0.0, 1.0, HOMOTOPY_NODES)

    def comp_net(J):
        terms = []  # (sign, m, source key)
        for m in range(dim):
            sign, key = canonical_index((m,) + J)
            if sign != 0:
                terms.append((sign, m, key))

        def factory(eps):
            fns = {key: omega.comps[c][key].at(eps) for _, _, key in terms}
            orders = [f.max_order for f in fns.values()]
            max_order = None if (not orders or None in orders) else min(orders)
            uses_fd = any(f.uses_fd for f in fns.values())

            def pfn(alpha, pts):
                n_a, n_t, n = mi.order(alpha), len(t_nodes), pts.shape[0]
                stack = (t_nodes[:, None, None] * pts).reshape(-1, dim)

                def at(key, beta):  # row q: the values at the points t_q * x
                    return fns[key]._partial_fn(beta, stack).reshape(n_t, n)

                # each node's powers are the scalars the per-node loop took
                powers = np.array([tq ** n_a for tq in t_nodes])[:, None]
                layer = np.zeros((n_t, n))
                for sign, m, key in terms:
                    val = pts[:, m] * powers * at(key, alpha)
                    if alpha[m]:
                        lower = np.array([alpha[m] * tq ** (n_a - 1) for tq in t_nodes])
                        val = val + lower[:, None] * at(key, mi.sub(alpha, mi.unit(dim, m)))
                    layer = layer + sign * val
                # no np.sum over the nodes: its pairwise order would change the bits
                out = np.zeros(n)
                for tq, wq, row in zip(t_nodes, t_weights, layer):
                    out = out + wq * tq ** (k - 1) * row
                return out

            return SmoothFn(dim, pfn, max_order=max_order, uses_fd=uses_fd)

        return Net(dim, factory)

    comps = {c: {J: comp_net(J) for J in index_tuples(dim, k - 1)}}
    return _section(GeneralizedKForm, atlas, k - 1, comps, f"H {omega.label}")


def poincare_check(omega: GeneralizedKForm, grid=DEFAULT_GRID, n_samples: int = 21,
                   tol: float = 1e-7) -> dict:
    """Lattice residual of d(H w) + H(dw) = w, per eps: the largest
    ``nets.sup_norms`` of any component's gap.  A NaN gap gives a NaN
    residual and ``ok`` False.

    On the top degree the second term is the homotopy of the empty
    (n+1)-form, identically zero.
    """
    atlas = omega.atlas
    c = _single_star_chart(atlas)
    dim = atlas.dim
    recon = exterior_d(homotopy_H(omega))
    if omega.degree < dim:
        recon = recon + homotopy_H(exterior_d(omega))
    gap = recon - omega
    sups = np.max([sup_norms(net, (0,) * dim, atlas.charts[c].sample_box, grid, n_samples)
                   for net in gap.comps[c].values()], axis=0)
    worst = float(np.max(sups))
    rows = [{"eps": float(e), "sup_residual": float(s)} for e, s in zip(grid, sups)]
    return {"ok": worst < tol, "max_residual": worst, "tol": tol, "rows": rows}


# -- integration and Stokes --------------------------------------------------


def integrate_nform(omega: GeneralizedKForm, box=None, grid=DEFAULT_GRID) -> GeneralizedNumber:
    """Integral of a top-degree form over a chart box, per eps: ``gfunc.integrate``
    of its one component."""
    if not isinstance(omega, GeneralizedKForm):
        raise InvalidDegree("integration needs a form")
    names = omega.chart_names()
    if len(names) != 1:
        raise DomainError("top-degree integration works on a single chart")
    dim = omega.atlas.dim
    if omega.degree != dim:
        raise DomainError(f"degree {omega.degree} is not the dimension {dim}")
    top = {names[0]: omega.comps[names[0]][tuple(range(dim))]}
    return integrate(GeneralizedFunction(omega.atlas, top, label=omega.label), box=box, grid=grid)


def _face_integral(net: Net, box, axis: int, value: float, grid) -> np.ndarray:
    """Per eps, the net's integral over the box face with one coordinate pinned:
    a sweep on the (d-1)-box, the pin inserted; a 1-box's face is a point."""
    dim = len(box)
    rest = [b for i, b in enumerate(box) if i != axis]
    if not rest:
        out = np.array([np.ravel(net.at(float(e))(np.array([[value]])))[0] for e in grid])
        if not np.isfinite(out).all():
            raise QuadratureFailure(f"boundary value at {value} is not finite: {out}")
        return out

    def face(e):
        f = net.at(e)
        return SmoothFn(dim - 1, lambda alpha, pts: f._partial_fn(
            (0,) * dim, np.insert(pts, axis, value, axis=1)))

    sweep = Sweep(face)
    return np.array([cubature(face(float(e)), rest, float(e), sweep) for e in grid])


def stokes_check(omega, domain, grid=DEFAULT_GRID, tol: float = 1e-6) -> dict:
    """Residual of the boundary theorem on a supported domain, per eps.

    Domains: ("box", box) for forms of degree dim - 1 on a coordinate
    box with lo < hi on every axis of the chart, a generalized function
    on a line chart counting as the 0-form on a 1-box (an interval), and
    ("disk",) or ("disk", radius) for 1-forms in the plane, radius 1 by
    default.  Anything else raises DomainError.  The report carries lhs
    (integral of d omega), rhs (boundary integral), and their gap for
    every eps; an eps where a box integral is unresolved (NaN) is listed
    under "unresolved" and fails it.
    """
    if not isinstance(omega, (GeneralizedFunction, GeneralizedKForm)):
        raise TypeError("stokes_check needs a form or generalized function")
    kind = domain[0] if isinstance(domain, (tuple, list)) and domain else None
    try:
        if kind == "disk" and len(domain) <= 2:
            radius = float(domain[1]) if len(domain) > 1 else 1.0
        elif kind == "box" and len(domain) == 2:
            box = tuple((float(lo), float(hi)) for lo, hi in domain[1])
        else:
            raise ValueError
    except (TypeError, ValueError):
        raise DomainError(f"unsupported domain {domain!r}") from None
    names = omega.chart_names()
    if len(names) != 1:
        raise DomainError("the boundary theorem report works on a single chart")
    c = names[0]
    dim = omega.atlas.dim

    rows = []
    if kind == "disk":
        if dim != 2 or omega.rank != 1:
            raise DomainError("disk domains take 1-forms in the plane")
        if not 0.0 < radius < np.inf:
            raise DomainError(f"radius {radius} is not positive and finite")
        curl = exterior_d(omega).comps[c][(0, 1)]
        r_nodes, r_weights = interval_rule(0.0, radius, DISK_RADII)
        theta = np.linspace(0.0, 2.0 * np.pi, DISK_ANGLES, endpoint=False)
        ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        area_pts = np.concatenate([r * ring for r in r_nodes])
        area_w = np.concatenate([np.full(len(theta), rw * r)
                                 for r, rw in zip(r_nodes, r_weights)])
        area_w = area_w * (2.0 * np.pi / len(theta))
        bnd = radius * ring
        tangent = radius * np.stack([-np.sin(theta), np.cos(theta)], axis=1)
        w0 = omega.comps[c][(0,)]
        w1 = omega.comps[c][(1,)]
        for e in grid:
            lhs = float(np.dot(area_w, curl.at(float(e))._partial_fn((0, 0), area_pts)))
            v0 = w0.at(float(e))._partial_fn((0, 0), bnd)
            v1 = w1.at(float(e))._partial_fn((0, 0), bnd)
            rhs = float(np.mean(v0 * tangent[:, 0] + v1 * tangent[:, 1])) * 2.0 * np.pi
            if not (np.isfinite(lhs) and np.isfinite(rhs)):
                raise QuadratureFailure(f"disk check at eps {e}: lhs {lhs}, rhs {rhs}")
            rows.append((lhs, rhs))
    else:
        if omega.rank != dim - 1:
            raise DomainError("box domains take forms of degree dim - 1")
        if len(box) != dim or not all(lo < hi for lo, hi in box):
            raise DomainError(f"box {box} needs {dim} axes, each with lo < hi")
        bulk = integrate_nform(exterior_d(omega), box, grid).values.tolist()
        rhs = 0.0
        for i in range(dim):
            upper, lower = (_face_integral(omega.comps[c][tuple(j for j in range(dim) if j != i)],
                                           box, i, v, grid) for v in (box[i][1], box[i][0]))
            rhs = rhs + (-1.0) ** i * (upper - lower)
        rows = list(zip(bulk, rhs.tolist()))

    report_rows, unresolved = [], []
    worst = 0.0
    for e, (lhs, rhs) in zip(grid, rows):
        if not (np.isfinite(lhs) and np.isfinite(rhs)):
            unresolved.append(float(e))  # the box integrals' NaN (quadrature docstring)
        resid = abs(lhs - rhs)
        # relative to the larger side, floored at one so a vanishing
        # flux does not divide roundoff by roundoff
        rel = resid / max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, rel)
        report_rows.append({"eps": float(e), "lhs": lhs, "rhs": rhs,
                            "residual": resid, "rel_residual": rel})
    report = {"domain": list(domain), "ok": worst < tol and not unresolved, "tol": tol,
              "max_rel_residual": worst, "rows": report_rows}
    if unresolved:
        report["unresolved"] = unresolved
    return report


# -- seeded coherent forms ---------------------------------------------------


def random_kform(manifold: Manifold, k: int, seed: int = 0) -> GeneralizedKForm:
    """Seeded coherent k-form from coherent scalar components.

    The builtin periodic manifolds have unit-Jacobian transitions, so
    shared chart expressions satisfy the pullback law for every degree.
    """
    comps = _seeded_comps(manifold, index_tuples(manifold.atlas.dim, int(k)), seed)
    return GeneralizedKForm(manifold, int(k), comps, label=f"seeded {k}-form")


def coherence_check_form(omega: GeneralizedKForm, **kwargs) -> dict:
    """Overlap residual classification via the antisymmetric tensor view."""
    return coherence_check_tensor(omega.to_tensor(), **kwargs)
