"""Embedding distributions on R^n as mollified nets.

A ``DistributionSpec`` is a finite sum of

* Dirac entries (loc, beta, weight): the functional
  phi -> weight * (d^beta phi)(loc).  Note the plain classical
  derivative-of-delta carries the opposite sign: delta' = entry with
  beta = 1 and weight = -1 (see ``dirac_prime``).
* regular pieces (lo, hi, density): phi -> integral of density * phi
  over [lo, hi].  Regular pieces are one-dimensional and bounded.

Embedding convolves with a scaled mollifier rho_eps.  Dirac entries
embed in closed form,

    net(eps)(x) = weight * (-1)^|beta| * (d^beta rho_eps)(x - loc),

so all derivatives stay analytic; regular pieces go through adaptive
quadrature over the mollifier window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import _mindex as mi
from .errors import UnsupportedDistribution
from .grid import DEFAULT_GRID
from .mollifier import Mollifier
from .nets import Net, classify_net
from .quadrature import cubature, gauss_legendre, panel_rule
from .smooth import SmoothFn, constant

# (point, kernel node) pairs per convolution block: 2 MiB per float64 array
CONV_BLOCK = 1 << 18


@dataclass(frozen=True)
class DiracEntry:
    loc: tuple[float, ...]
    beta: tuple[int, ...]
    weight: float


@dataclass(frozen=True)
class RegularPiece:
    lo: float
    hi: float
    density: SmoothFn


@dataclass
class DistributionSpec:
    """A compactly supported distribution given by explicit data."""

    dim: int = 1
    singular: list = field(default_factory=list)
    regular: list = field(default_factory=list)
    label: str = ""

    def dirac(self, loc, beta=None, weight: float = 1.0) -> "DistributionSpec":
        loc = np.asarray(loc, dtype=float)  # a scalar stands at that value on every axis
        loc = tuple(float(v) for v in (np.full(self.dim, loc) if loc.ndim == 0 else loc))
        if len(loc) != self.dim:
            raise UnsupportedDistribution(f"loc {loc} not in R^{self.dim}")
        beta = mi.check(beta if beta is not None else (0,) * self.dim, self.dim)
        self.singular.append(DiracEntry(loc, beta, float(weight)))
        return self

    def piece(self, density: SmoothFn, lo: float, hi: float) -> "DistributionSpec":
        if self.dim != 1:
            raise UnsupportedDistribution("regular pieces are supported in dimension 1")
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise UnsupportedDistribution(f"piece bounds [{lo}, {hi}] must be finite")
        if density.dim != 1:
            raise UnsupportedDistribution("density must be one-dimensional")
        self.regular.append(RegularPiece(lo, hi, density))
        return self

    def action(self, phi: SmoothFn) -> float:
        """Apply the distribution to a smooth test function."""
        total = 0.0
        for e in self.singular:
            total += e.weight * phi.partial(e.beta, np.array(e.loc))
        for p in self.regular:
            total += cubature(p.density * phi, ((p.lo, p.hi),), p.hi - p.lo)
        return total

    def mul_smooth(self, f: SmoothFn) -> "DistributionSpec":
        """The product f * u for smooth f, expanded by the Leibniz rule.

        A Dirac entry phi -> w (d^beta phi)(loc) becomes, acting on
        f*phi, the sum over gamma <= beta of entries at order beta-gamma
        weighted by w C(beta, gamma) (d^gamma f)(loc).
        """
        out = DistributionSpec(self.dim, label=f"({f.label})*({self.label})")
        for e in self.singular:
            loc = np.array(e.loc)
            for gamma in mi.sub_indices(e.beta):
                w = e.weight * mi.binom(e.beta, gamma) * f.partial(gamma, loc)
                out.singular.append(DiracEntry(e.loc, mi.sub(e.beta, gamma), w))
        for p in self.regular:
            out.regular.append(RegularPiece(p.lo, p.hi, p.density * f))
        return out


def dirac(loc=0.0, beta=None, weight: float = 1.0, dim: int = 1) -> DistributionSpec:
    return DistributionSpec(dim, label="dirac").dirac(loc, beta, weight)


def dirac_prime() -> DistributionSpec:
    """The classical delta': phi -> -phi'(0)."""
    return DistributionSpec(1, label="dirac'").dirac(0.0, (1,), -1.0)


def heaviside() -> DistributionSpec:
    """Heaviside step modeled on the working box [-10, 10]."""
    spec = DistributionSpec(1, label="heaviside")
    return spec.piece(constant(1.0, 1), 0.0, 10.0)


def smooth_piece(fn: SmoothFn, lo: float, hi: float) -> DistributionSpec:
    return DistributionSpec(1, label="regular").piece(fn, lo, hi)


def _dirac_part_fn(entries, mol: Mollifier, dim: int, eps: float) -> SmoothFn:
    def pfn(alpha, pts):
        acc = np.zeros(pts.shape[0])
        for e in entries:
            k = mi.add(e.beta, alpha)
            sign = (-1.0) ** mi.order(e.beta)
            term = np.full(pts.shape[0], e.weight * sign * eps ** -(dim + mi.order(k)))
            for i, ki in enumerate(k):
                term = term * mol.deriv(ki, (pts[:, i] - e.loc[i]) / eps)
            acc = acc + term
        return acc

    return SmoothFn(dim, pfn, label="dirac part")


@cache
def _kernel_rule(mol: Mollifier):
    """Panelled GL rule for the mollifier on its own scale, built once.

    The rule lives in kernel coordinates u = (x - y) / eps, so it is
    shared by every eps and every piece.  Panels two units wide resolve
    the kernel oscillation to machine precision (checked against the
    squared-norm value of the bandlimited kernel).
    """
    r = float(mol.support_radius_hint)
    n_panels = max(16, int(math.ceil(r)))
    edges = np.linspace(-r, r, n_panels + 1)
    nodes, weights = panel_rule(edges, 16)
    return nodes, weights * mol.deriv(0, nodes), edges


def _regular_part_fn(pieces, mol: Mollifier, eps: float) -> SmoothFn:
    """Convolution of piecewise densities with the scaled mollifier.

    Evaluated in kernel coordinates: conv(x) = int f(x - eps u) rho(u) du
    over the window where x - eps u stays inside the piece.  Kernel
    weights sit on a fixed grid shared by all eps, so each point costs
    one density sweep plus a dot product.  Points go through in blocks
    of at most ``CONV_BLOCK`` (point, node) pairs, and each point's row
    is summed by its own ``np.vecdot``, so a value depends only on
    (x, eps), never on the other points of the call.  Derivatives fall on the
    density, with closed-form kernel boundary terms at the piece edges; a
    density derivative known to vanish (``SmoothFn.vanishes``: a constant,
    a polynomial above its degree) is not convolved, since its sweep adds
    exact zeros.
    Windows cutting a panel mid-way get that panel replaced by an exact
    GL segment, so points near an edge stay accurate.
    """
    radius = float(mol.support_radius_hint)
    nodes, kern_w, edges = _kernel_rule(mol)
    gl_nodes, gl_weights = gauss_legendre(16)
    n_panels = edges.size - 1
    w_pan = edges[1] - edges[0]
    pan_nodes = nodes.reshape(n_panels, 16)
    pan_kw = kern_w.reshape(n_panels, 16)

    def conv0(fn, j, x, lo, hi):
        # order-0 convolution of the j-th density derivative
        out = np.zeros(x.size)
        a = (x - hi) / eps
        b = (x - lo) / eps
        touched = (b > -radius) & (a < radius)
        if not np.any(touched):
            return out
        xt = x[touched]
        at = a[touched]
        bt = b[touched]
        acc = np.zeros(xt.size)
        step = max(1, CONV_BLOCK // nodes.size)
        for s in range(0, xt.size, step):
            xx = xt[s:s + step]
            yy = np.clip(xx[:, None] - eps * nodes[None, :], lo, hi)
            ff = fn._partial_fn((j,), yy.reshape(-1, 1))
            mask = (nodes[None, :] >= at[s:s + step, None]) & (
                nodes[None, :] <= bt[s:s + step, None])
            acc[s:s + step] = np.vecdot(ff.reshape(yy.shape) * mask, kern_w)
        # replace panels split by a window cut with exact GL segments
        keys = []
        for cut in (at, bt):
            hit = np.nonzero((cut > -radius) & (cut < radius))[0]
            pan = np.clip(((cut[hit] + radius) // w_pan).astype(int), 0, n_panels - 1)
            keys.append(hit * n_panels + pan)
        keys = np.sort(np.concatenate(keys))  # unique, without np.unique's numpy.ma
        keys = keys[np.diff(keys, prepend=-1) != 0]
        step = CONV_BLOCK // gl_nodes.size
        for s in range(0, keys.size, step):  # sorted keys: np.add.at adds in one order
            ipt = keys[s:s + step] // n_panels
            ipan = keys[s:s + step] % n_panels
            u_sub = pan_nodes[ipan]
            y_sub = np.clip(xt[ipt, None] - eps * u_sub, lo, hi)
            f_sub = fn._partial_fn((j,), y_sub.reshape(-1, 1))
            m_sub = (u_sub >= at[ipt, None]) & (u_sub <= bt[ipt, None])
            crude = ((f_sub.reshape(u_sub.shape) * m_sub) * pan_kw[ipan]).sum(axis=1)
            seg_lo = np.maximum(edges[ipan], at[ipt])
            seg_hi = np.minimum(edges[ipan + 1], bt[ipt])
            hw = np.maximum(seg_hi - seg_lo, 0.0) / 2.0
            u_ex = (seg_lo + seg_hi)[:, None] / 2.0 + hw[:, None] * gl_nodes[None, :]
            k_ex = mol.deriv(0, u_ex.ravel()).reshape(u_ex.shape)
            y_ex = np.clip(xt[ipt, None] - eps * u_ex, lo, hi)
            f_ex = fn._partial_fn((j,), y_ex.reshape(-1, 1))
            exact = np.vecdot(k_ex * f_ex.reshape(u_ex.shape), gl_weights) * hw
            np.add.at(acc, ipt, exact - crude)
        out[touched] = acc
        return out

    def pfn(alpha, pts):
        k = alpha[0]
        x = pts[:, 0]
        res = np.zeros(x.size)
        for p in pieces:
            if not p.density.vanishes((k,)):  # else a sum of exact zeros
                res += conv0(p.density, k, x, p.lo, p.hi)
            for j in range(k):
                m = k - 1 - j
                flo = float(p.density._partial_fn((j,), np.array([[p.lo]]))[0])
                fhi = float(p.density._partial_fn((j,), np.array([[p.hi]]))[0])
                sc = eps ** (-(1 + m))
                if flo:
                    res += flo * sc * mol.deriv(m, (x - p.lo) / eps)
                if fhi:
                    res -= fhi * sc * mol.deriv(m, (x - p.hi) / eps)
        return res

    return SmoothFn(1, pfn, label="regular part")


def embed_rn(spec: DistributionSpec, mol: Mollifier) -> Net:
    """Embed a distribution on R^dim as the net of mollified functions."""
    if spec.regular and spec.dim != 1:
        raise UnsupportedDistribution("regular pieces only embed in dimension 1")
    dim = spec.dim

    def factory(eps):
        parts = []
        if spec.singular:
            parts.append(_dirac_part_fn(spec.singular, mol, dim, eps))
        if spec.regular:
            parts.append(_regular_part_fn(spec.regular, mol, eps))
        if not parts:
            return constant(0.0, dim)
        return sum(parts[1:], parts[0])

    return Net(dim, factory, label=f"embed {spec.label}")


def pullback_affine(net: Net, a: float, b: float = 0.0) -> Net:
    """Composition net(eps) o mu for the affine map mu(x) = a x + b."""
    if a == 0.0:
        raise ValueError("pullback map must be invertible")
    return Net(net.dim, lambda eps: net.at(eps).scale_shift(a, b))


def pullback_spec_affine(spec: DistributionSpec, a: float, b: float = 0.0) -> DistributionSpec:
    """The distributional pullback mu^* u for mu(x) = a x + b on R.

    For a Dirac entry at loc the pullback concentrates at (loc - b)/a
    with the Jacobian factor 1/|a| and a chain-rule factor a^|beta|.
    """
    if spec.dim != 1:
        raise UnsupportedDistribution("affine pullback implemented in dimension 1")
    if a == 0.0:
        raise ValueError("pullback map must be invertible")
    out = DistributionSpec(1, label=f"pullback({spec.label})")
    for e in spec.singular:
        new_loc = ((e.loc[0] - b) / a,)
        w = e.weight * a ** mi.order(e.beta) / abs(a)
        out.singular.append(DiracEntry(new_loc, e.beta, w))
    for p in spec.regular:
        lo, hi = sorted(((p.lo - b) / a, (p.hi - b) / a))
        out.regular.append(RegularPiece(lo, hi, p.density.scale_shift(a, b)))
    return out


def pullback_commutator_demo(a: float, b: float, spec: DistributionSpec,
                             mol: Mollifier, grid=DEFAULT_GRID):
    """Net and report for iota(mu^* u) - mu^*(iota u), mu(x) = a x + b.

    Embedding and pullback do not commute in general; the difference is
    a nonzero moderate net that is nevertheless associated to zero.  For
    mu = identity the commutator vanishes identically.
    """
    emb_then_pull = pullback_affine(embed_rn(spec, mol), a, b)
    pull_then_emb = embed_rn(pullback_spec_affine(spec, a, b), mol)
    commutator = pull_then_emb - emb_then_pull
    fit = classify_net(commutator, (0,), ((-1.0, 1.0),), grid=grid, n_samples="auto")
    report = {
        "map": {"a": a, "b": b},
        "identity_map": a == 1.0 and b == 0.0,
        "order_fit": fit.to_json(),
    }
    return commutator, report
