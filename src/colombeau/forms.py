"""Generalized differential forms: antisymmetric chartwise nets.

A degree-k form stores one component net per chart and strictly
increasing index tuple; components at permuted indices carry the parity
sign and repeated indices vanish, so antisymmetry holds by storage.
Provides the exterior derivative, wedge products, interior products,
Lie derivatives, the star-shaped homotopy inverse of d, top-degree
integration, and Stokes residual reports on intervals, disks, and
boxes.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import _mindex as mi
from .errors import (DegreeOverflow, DomainError, InvalidDegree, InvalidSlots,
                     QuadratureFailure)
from .gfunc import (GeneralizedFunction, GeneralizedSection, _same_charts, _sum, _weight,
                    integrate_box)
from .gnumber import GeneralizedNumber
from .grid import DEFAULT_GRID
from .manifolds import Manifold
from .nets import Net, box_lattice
from .quadrature import box_rule, interval_rule
from .smooth import SmoothFn
from .tensor import (GeneralizedTensorField, _object_array, coherence_check_tensor,
                     gen_lie_derivative, random_coherent_functions)

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

    def __init__(self, space, degree: int, comps: dict, label: str = ""):
        k = int(degree)
        if k < 1:
            raise InvalidDegree(f"degree {degree} forms are plain generalized functions")
        self.degree = k
        super().__init__(space, comps, label)

    def _part(self, c, table) -> dict:
        keys = self.keys()
        if not isinstance(table, dict):
            table = dict(zip(keys, table))
        extra = set(table) - set(keys)
        if extra:
            raise InvalidSlots(f"not increasing degree-{self.degree} tuples: {sorted(extra)}")
        return {K: self._net(c, table.get(K, 0.0)) for K in keys}

    def keys(self):
        return index_tuples(self.atlas.dim, self.degree)

    def component(self, chart: str, idx) -> Net:
        """Component at any index tuple, with the antisymmetry sign."""
        idx = tuple(idx)
        if len(idx) != self.degree:
            raise InvalidSlots(f"index {idx} has {len(idx)} slots, degree is {self.degree}")
        sign, key = canonical_index(idx)
        if sign == 0:
            return Net.zero(self.atlas.dim)
        net = self.comps[chart][key]
        return net if sign == 1 else net * -1.0

    # -- module algebra --------------------------------------------------

    def _zip(self, other, op):
        if not isinstance(other, GeneralizedKForm):
            raise TypeError(f"cannot combine a form with {other!r}")
        _same_charts(self, other)
        if other.degree != self.degree:
            raise InvalidDegree(f"degree {other.degree} != {self.degree}")
        return GeneralizedKForm(
            self.atlas, self.degree,
            {c: {K: op(self.comps[c][K], other.comps[c][K]) for K in self.comps[c]}
             for c in self.comps})

    def __mul__(self, w):
        weight = _weight(self, w)
        if weight is None:
            return NotImplemented
        return GeneralizedKForm(
            self.atlas, self.degree,
            {c: {K: weight(c, net) for K, net in self.comps[c].items()} for c in self.comps})

    # -- views -----------------------------------------------------------

    def to_tensor(self) -> GeneralizedTensorField:
        """The (0, k) tensor with fully antisymmetrized components."""
        dim = self.atlas.dim
        shape = (dim,) * self.degree
        comps = {c: _object_array(shape, lambda idx: self.component(c, idx))
                 for c in self.comps}
        return GeneralizedTensorField(self.atlas, (0, self.degree), comps,
                                      label=self.label)

    def evaluate(self, vector_fields) -> GeneralizedFunction:
        return self.to_tensor().evaluate(vector_fields=tuple(vector_fields))


# -- exterior calculus -------------------------------------------------------


def exterior_d(omega):
    """Exterior derivative; accepts a generalized function as a 0-form."""
    if isinstance(omega, GeneralizedFunction):
        dim = omega.atlas.dim
        comps = {c: {(i,): omega.nets[c].partial(mi.unit(dim, i))
                     for i in range(dim)}
                 for c in omega.nets}
        return GeneralizedKForm(omega.atlas, 1, comps, label=f"d {omega.label}")
    if not isinstance(omega, GeneralizedKForm):
        raise TypeError(f"cannot differentiate {omega!r}")
    dim = omega.atlas.dim
    k = omega.degree
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
    """Wedge product; either factor may be a generalized function."""
    if isinstance(a, GeneralizedFunction):
        return b * a if isinstance(b, GeneralizedFunction) else b.__mul__(a)
    if isinstance(b, GeneralizedFunction):
        return a * b
    if not isinstance(a, GeneralizedKForm) or not isinstance(b, GeneralizedKForm):
        raise TypeError("wedge takes forms or generalized functions")
    _same_charts(a, b)
    dim = a.atlas.dim
    k, l = a.degree, b.degree
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
    return GeneralizedKForm(a.atlas, k + l, comps,
                            label=f"({a.label})^({b.label})")


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
    if k == 1:
        nets = {c: _sum(Xi.comps[c][(m,)] * net for (m,), net in table.items())
                for c, table in omega.comps.items()}
        return GeneralizedFunction(omega.atlas, nets, label=f"i_Xi {omega.label}")
    comps = {}
    for c, table in omega.comps.items():
        terms = {J: [] for J in index_tuples(omega.atlas.dim, k - 1)}
        for K, net in table.items():
            for t in range(k):
                term = Xi.comps[c][(K[t],)] * net
                terms[K[:t] + K[t + 1:]].append(_signed(term, t % 2))
        comps[c] = {J: _sum(ts, 0.0) for J, ts in terms.items()}
    return GeneralizedKForm(omega.atlas, k - 1, comps, label=f"i_Xi {omega.label}")


def lie_derivative_form(omega: GeneralizedKForm,
                        Xi: GeneralizedTensorField) -> GeneralizedKForm:
    """L_Xi omega: the tensor Lie derivative of ``omega.to_tensor()`` along
    Xi, read at the increasing index tuples."""
    if not isinstance(omega, GeneralizedKForm):
        raise InvalidDegree("need a form of degree >= 1")
    lie = gen_lie_derivative(omega.to_tensor(), Xi)
    comps = {c: {K: arr[K] for K in omega.keys()} for c, arr in lie.comps.items()}
    return GeneralizedKForm(omega.atlas, omega.degree, comps, label=f"L_Xi {omega.label}")


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
    component and multi-index it needs once on that stack: a leaf call
    sees n_t * m points, and an evaluation holds at most 2 * dim value
    arrays of that length.  The sum over the nodes then runs node by
    node in the same order as a per-node loop, so the values are the
    same to the bit.
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
                n_a = mi.order(alpha)
                n = pts.shape[0]
                stack = (t_nodes[:, None, None] * pts).reshape(-1, dim)
                vals = {}  # (key, multi-index) -> values on the stack, per node

                def at(key, beta):
                    if (key, beta) not in vals:
                        vals[key, beta] = fns[key]._partial_fn(beta, stack).reshape(len(t_nodes), n)
                    return vals[key, beta]

                # no np.sum over the nodes: its pairwise order would change the bits
                out = np.zeros(n)
                for q, (tq, wq) in enumerate(zip(t_nodes, t_weights)):
                    layer = np.zeros(n)
                    for sign, m, key in terms:
                        val = pts[:, m] * tq ** n_a * at(key, alpha)[q]
                        if alpha[m]:
                            val = val + alpha[m] * tq ** (n_a - 1) \
                                * at(key, mi.sub(alpha, mi.unit(dim, m)))[q]
                        layer = layer + sign * val
                    out = out + wq * tq ** (k - 1) * layer
                return out

            return SmoothFn(dim, pfn, max_order=max_order, uses_fd=uses_fd)

        return Net(dim, factory)

    if k == 1:
        return GeneralizedFunction(atlas, {c: comp_net(())},
                                   label=f"H {omega.label}")
    comps = {c: {J: comp_net(J) for J in index_tuples(dim, k - 1)}}
    return GeneralizedKForm(atlas, k - 1, comps, label=f"H {omega.label}")


def poincare_check(omega: GeneralizedKForm, grid=DEFAULT_GRID, n_samples: int = 21,
                   box=None, tol: float = 1e-7) -> dict:
    """Lattice residual of d(H w) + H(dw) = w, per eps.

    On the top degree the second term is the homotopy of the empty
    (n+1)-form, identically zero.
    """
    atlas = omega.atlas
    c = _single_star_chart(atlas)
    dim = atlas.dim
    if box is None:
        box = atlas.charts[c].sample_box
    pts = box_lattice(box, n_samples)
    recon = exterior_d(homotopy_H(omega))
    if omega.degree < dim:
        recon = recon + homotopy_H(exterior_d(omega))
    rows = []
    worst = 0.0
    zero = (0,) * dim
    for e in grid:
        sup = 0.0
        for K in omega.keys():
            have = recon.comps[c][K].at(e)._partial_fn(zero, pts)
            want = omega.comps[c][K].at(e)._partial_fn(zero, pts)
            sup = max(sup, float(np.max(np.abs(have - want))))
        worst = max(worst, sup)
        rows.append({"eps": float(e), "sup_residual": sup})
    return {"ok": worst < tol, "max_residual": worst, "tol": tol, "rows": rows}


# -- integration and Stokes --------------------------------------------------


def integrate_nform(omega: GeneralizedKForm, box=None, grid=DEFAULT_GRID) -> GeneralizedNumber:
    """Integral of a top-degree form over a chart box, per eps."""
    if not isinstance(omega, GeneralizedKForm):
        raise InvalidDegree("integration needs a form")
    atlas = omega.atlas
    names = omega.chart_names()
    if len(names) != 1:
        raise DomainError("top-degree integration works on a single chart")
    c = names[0]
    dim = atlas.dim
    if omega.degree != dim:
        raise DomainError(f"degree {omega.degree} is not the dimension {dim}")
    if box is None:
        box = atlas.charts[c].sample_box
    net = omega.comps[c][tuple(range(dim))]
    values = [integrate_box(net.at(float(e)), box, eps_hint=float(e))
              for e in grid]
    return GeneralizedNumber(grid, values, label=f"int {omega.label}")


def _face_integral(fn: SmoothFn, box, axis: int, value: float) -> float:
    """Integral of fn over the box face with one coordinate pinned."""
    dim = len(box)
    rest = [b for i, b in enumerate(box) if i != axis]
    if not rest:
        return float(np.ravel(fn(np.array([[value]])))[0])
    mesh, wmesh = box_rule(rest, 48)
    pts = np.insert(mesh, axis, value, axis=1)
    vals = fn._partial_fn((0,) * dim, pts)
    out = float(np.dot(wmesh, vals))
    if not np.isfinite(out):
        raise QuadratureFailure("face quadrature returned non-finite value")
    return out


def stokes_check(omega, domain, grid=DEFAULT_GRID, tol: float = 1e-6) -> dict:
    """Residual of the boundary theorem on a supported domain, per eps.

    Domains: ("interval", (a, b)) for 0-forms on a line chart,
    ("disk", radius) for 1-forms in the plane, ("box", box) for
    codimension-one forms on a coordinate box.  Anything else raises
    DomainError.  The report carries lhs (integral of d omega), rhs
    (boundary integral), and their gap for every eps.
    """
    kind = domain[0] if isinstance(domain, (tuple, list)) and domain else None
    atlas = omega.atlas if isinstance(omega, (GeneralizedFunction, GeneralizedKForm)) \
        else None
    if atlas is None:
        raise TypeError("stokes_check needs a form or generalized function")
    names = omega.chart_names()
    if len(names) != 1:
        raise DomainError("the boundary theorem report works on a single chart")
    c = names[0]
    dim = atlas.dim

    rows = []
    if kind == "interval":
        if dim != 1 or not isinstance(omega, GeneralizedFunction):
            raise DomainError("interval domains take 0-forms on a line chart")
        a, b = float(domain[1][0]), float(domain[1][1])
        if not a < b:
            raise DomainError(f"empty interval ({a}, {b})")
        dnet = exterior_d(omega).comps[c][(0,)]
        unet = omega.nets[c]
        for e in grid:
            lhs = integrate_box(dnet.at(float(e)), ((a, b),), eps_hint=float(e))
            fe = unet.at(float(e))
            rhs = float(fe(b)) - float(fe(a))
            rows.append((lhs, rhs))
    elif kind == "disk":
        if dim != 2 or not isinstance(omega, GeneralizedKForm) or omega.degree != 1:
            raise DomainError("disk domains take 1-forms in the plane")
        radius = float(domain[1]) if len(domain) > 1 else 1.0
        if radius <= 0:
            raise DomainError(f"radius {radius} is not positive")
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
            rows.append((lhs, rhs))
    elif kind == "box":
        if not isinstance(omega, GeneralizedKForm) or omega.degree != dim - 1:
            raise DomainError("box domains take forms of degree dim - 1")
        box = tuple((float(lo), float(hi)) for lo, hi in domain[1])
        if len(box) != dim:
            raise DomainError(f"box has {len(box)} axes, chart has {dim}")
        top = exterior_d(omega).comps[c][tuple(range(dim))]
        for e in grid:
            lhs = integrate_box(top.at(float(e)), box, eps_hint=float(e))
            rhs = 0.0
            for i in range(dim):
                key = tuple(j for j in range(dim) if j != i)
                f = omega.comps[c][key].at(float(e))
                flux = _face_integral(f, box, i, box[i][1]) \
                    - _face_integral(f, box, i, box[i][0])
                rhs += (-1.0) ** i * flux
            rows.append((lhs, rhs))
    else:
        raise DomainError(f"unsupported domain {domain!r}")

    report_rows = []
    worst = 0.0
    for e, (lhs, rhs) in zip(grid, rows):
        if not (np.isfinite(lhs) and np.isfinite(rhs)):
            raise QuadratureFailure(f"{kind} check at eps {e}: lhs {lhs}, rhs {rhs}")
        resid = abs(lhs - rhs)
        # relative to the larger side, floored at one so a vanishing
        # flux does not divide roundoff by roundoff
        rel = resid / max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, rel)
        report_rows.append({"eps": float(e), "lhs": lhs, "rhs": rhs,
                            "residual": resid, "rel_residual": rel})
    return {"domain": list(domain), "ok": worst < tol, "tol": tol,
            "max_rel_residual": worst, "rows": report_rows}


# -- seeded coherent forms ---------------------------------------------------


def random_kform(manifold: Manifold, k: int, seed: int = 0) -> GeneralizedKForm:
    """Seeded coherent k-form from coherent scalar components.

    The builtin periodic manifolds have unit-Jacobian transitions, so
    shared chart expressions satisfy the pullback law for every degree.
    """
    atlas = manifold.atlas
    keys = index_tuples(atlas.dim, int(k))
    fns = random_coherent_functions(manifold, count=max(1, len(keys)), seed=seed)
    comps = {c: {K: fns[t].nets[c] for t, K in enumerate(keys)}
             for c in atlas.charts}
    return GeneralizedKForm(manifold, int(k), comps, label=f"seeded {k}-form")


def coherence_check_form(omega: GeneralizedKForm, **kwargs) -> dict:
    """Overlap residual classification via the antisymmetric tensor view."""
    return coherence_check_tensor(omega.to_tensor(), **kwargs)
