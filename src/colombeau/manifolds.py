"""Built-in manifolds: Euclidean spaces, the circle, the 2-torus.

Circle points are angles in [0, 2pi).  Chart "A" uses the angle wrapped
to (-pi, pi); chart "B" uses the raw angle on (0, 2pi).  On the two
overlap components the transition is the identity or a shift by 2pi, so
Jacobians are identically one.  The torus is ``product(circle(),
circle())``, with four charts named "AA", "AB", "BA", "BB".

Partition-of-unity members and the tapered coordinate surrogates are
built from 2pi-periodic expressions in cos(theta), which makes one
formula valid in every chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from .manifold import Atlas, Chart, PartitionOfUnity, Transition
from .smooth import coordinate, from_sympy, lift_axis, smoothstep_expr

TWO_PI = 2.0 * math.pi

# angular knots for the circle bumps (plateau edge, support edge)
CHI_FLAT, CHI_SUPP = 1.9, 2.9
ZETA_A_SUPP = 3.04
ZETA_B_FLAT = 1.76
TAPER_A_FLAT, TAPER_A_SUPP = 2.6, 2.97
TAPER_B_FLAT, TAPER_B_SUPP = 0.7, 1.1  # measured from theta = pi


def wrap_pi(t):
    return np.mod(np.asarray(t, dtype=float) + math.pi, TWO_PI) - math.pi


def wrap_2pi(t):
    return np.mod(np.asarray(t, dtype=float), TWO_PI)


@dataclass
class CoordinateSurrogate:
    """A global smooth function equal to one coordinate on a core region.

    ``exprs`` holds the chart representations; ``core_mask`` marks the
    coordinate-space region of each chart where the surrogate equals the
    plain coordinate function exactly.
    """

    axis: int
    exprs: dict
    core_mask: dict


@dataclass
class Manifold:
    """Bundle of atlas, partition of unity, and coordinate surrogates."""

    name: str
    atlas: Atlas
    pou: PartitionOfUnity
    surrogates: list = field(default_factory=list)
    # per chart, the boxes standing for the chart's overlap with itself
    # when it is a factor of a product chart pair; the sample box if absent
    diagonal_boxes: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.atlas.dim


# -- Euclidean ---------------------------------------------------------


def euclidean(dim: int, box_halfwidth: float = 3.0) -> Manifold:
    dim = int(dim)
    box = tuple((-box_halfwidth, box_halfwidth) for _ in range(dim))
    chart = Chart(
        name="0", dim=dim,
        contains=lambda p: True,
        to_coords=lambda p: np.atleast_1d(np.asarray(p, dtype=float)),
        from_coords=lambda x: np.atleast_1d(np.asarray(x, dtype=float)),
        sample_box=box,
    )
    atlas = Atlas(f"euclidean{dim}", dim, {"0": chart}, {}, {})
    one = sp.Integer(1)
    syms = sp.symbols(f"x0:{dim}") if dim > 1 else (sp.Symbol("x0"),)
    chi = {"0": from_sympy(one, syms)}
    zeta = {"0": from_sympy(one, syms)}
    pou = PartitionOfUnity(atlas, chi, zeta, {"0": box})
    surrogates = [
        CoordinateSurrogate(
            axis=i,
            exprs={"0": coordinate(i, dim)},
            core_mask={"0": lambda pts: np.ones(len(pts), dtype=bool)},
        )
        for i in range(dim)
    ]
    return Manifold(atlas.name, atlas, pou, surrogates)


# -- circle ------------------------------------------------------------


def _circle_charts():
    eps_dom = 1e-7
    chart_a = Chart(
        name="A", dim=1,
        contains=lambda p: bool(abs(wrap_pi(p)) < math.pi - eps_dom),
        to_coords=lambda p: np.atleast_1d(wrap_pi(p)),
        from_coords=lambda x: float(wrap_2pi(np.asarray(x).reshape(-1)[0])),
        sample_box=((-2.95, 2.95),),
    )
    chart_b = Chart(
        name="B", dim=1,
        contains=lambda p: bool(eps_dom < wrap_2pi(p) < TWO_PI - eps_dom),
        to_coords=lambda p: np.atleast_1d(wrap_2pi(p)),
        from_coords=lambda x: float(wrap_2pi(np.asarray(x).reshape(-1)[0])),
        sample_box=((0.2, TWO_PI - 0.2),),
    )
    return chart_a, chart_b


def circle() -> Manifold:
    chart_a, chart_b = _circle_charts()

    def a_to_b(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, x, x + TWO_PI)

    def b_to_a(y):
        y = np.asarray(y, dtype=float)
        return np.where(y < math.pi, y, y - TWO_PI)

    eye1 = lambda x: np.broadcast_to(np.eye(1), (len(x), 1, 1)).copy()
    transitions = {
        ("A", "B"): Transition(a_to_b, eye1, affine_pieces=[
            (lambda pts: pts[:, 0] > 0, 1.0, 0.0),
            (lambda pts: pts[:, 0] <= 0, 1.0, TWO_PI),
        ]),
        ("B", "A"): Transition(b_to_a, eye1, affine_pieces=[
            (lambda pts: pts[:, 0] < math.pi, 1.0, 0.0),
            (lambda pts: pts[:, 0] >= math.pi, 1.0, -TWO_PI),
        ]),
    }
    overlap = {
        ("A", "B"): [((0.15, math.pi - 0.15),), ((-math.pi + 0.15, -0.15),)],
        ("B", "A"): [((0.15, math.pi - 0.15),), ((math.pi + 0.15, TWO_PI - 0.15),)],
    }
    atlas = Atlas("circle", 1, {"A": chart_a, "B": chart_b}, transitions, overlap)

    th = sp.Symbol("theta")
    chi_a_expr = smoothstep_expr(
        (sp.cos(th) - math.cos(CHI_SUPP)) / (math.cos(CHI_FLAT) - math.cos(CHI_SUPP)))
    zeta_a_expr = smoothstep_expr(
        (sp.cos(th) - math.cos(ZETA_A_SUPP)) / (math.cos(CHI_SUPP) - math.cos(ZETA_A_SUPP)))
    zeta_b_expr = smoothstep_expr(
        (math.cos(ZETA_B_FLAT) - sp.cos(th)) / (math.cos(ZETA_B_FLAT) - math.cos(CHI_FLAT)))
    chi = {
        "A": from_sympy(chi_a_expr, [th], label="chi_A"),
        "B": from_sympy(1 - chi_a_expr, [th], label="chi_B"),
    }
    zeta = {
        "A": from_sympy(zeta_a_expr, [th], label="zeta_A"),
        "B": from_sympy(zeta_b_expr, [th], label="zeta_B"),
    }
    supp = {
        "A": ((-CHI_SUPP, CHI_SUPP),),
        "B": ((CHI_FLAT, TWO_PI - CHI_FLAT),),
    }
    pou = PartitionOfUnity(atlas, chi, zeta, supp)

    surrogates = _circle_surrogates(th)
    diagonal = {"A": [((-2.9, 2.9),)], "B": [((0.25, TWO_PI - 0.25),)]}
    return Manifold("circle", atlas, pou, surrogates, diagonal_boxes=diagonal)


def _circle_surrogates(th):
    # taper_a: 1 for |theta| <= 2.6, 0 beyond 2.97 (periodic in cos)
    taper_a = smoothstep_expr(
        (sp.cos(th) - math.cos(TAPER_A_SUPP))
        / (math.cos(TAPER_A_FLAT) - math.cos(TAPER_A_SUPP)))
    # taper_b: 1 for |theta - pi| <= 0.7, 0 beyond 1.1
    taper_b = smoothstep_expr(
        (-sp.cos(th) - math.cos(TAPER_B_SUPP))
        / (math.cos(TAPER_B_FLAT) - math.cos(TAPER_B_SUPP)))
    # the A-angle as a periodic sawtooth, valid inside supp(taper_a)
    wrap_a = sp.Piecewise((th, th < sp.pi), (th - 2 * sp.pi, True))
    # the B-angle sawtooth, valid inside supp(taper_b)
    wrap_b = sp.Piecewise((th, th > 0), (th + 2 * sp.pi, True))

    w_a = CoordinateSurrogate(
        axis=0,
        exprs={
            "A": from_sympy(th * taper_a, [th], label="W_A|A"),
            "B": from_sympy(wrap_a * taper_a, [th], label="W_A|B"),
        },
        core_mask={
            "A": lambda pts: np.abs(pts[:, 0]) <= TAPER_A_FLAT,
            "B": lambda pts: (pts[:, 0] <= TAPER_A_FLAT)
            | (pts[:, 0] >= TWO_PI - TAPER_A_FLAT),
        },
    )
    w_b = CoordinateSurrogate(
        axis=0,
        exprs={
            "A": from_sympy(wrap_b * taper_b, [th], label="W_B|A"),
            "B": from_sympy(th * taper_b, [th], label="W_B|B"),
        },
        core_mask={
            "A": lambda pts: np.abs(np.abs(pts[:, 0]) - math.pi) <= TAPER_B_FLAT,
            "B": lambda pts: np.abs(pts[:, 0] - math.pi) <= TAPER_B_FLAT,
        },
    )
    return [w_a, w_b]


# -- products ----------------------------------------------------------


def _product_chart(name: str, c1: Chart, c2: Chart) -> Chart:
    d1 = c1.dim
    return Chart(
        name, d1 + c2.dim,
        contains=lambda p: c1.contains(p[0]) and c2.contains(p[1]),
        to_coords=lambda p: np.concatenate([np.atleast_1d(c1.to_coords(p[0])),
                                            np.atleast_1d(c2.to_coords(p[1]))]),
        from_coords=lambda x: (c1.from_coords(x[:d1]), c2.from_coords(x[d1:])),
        sample_box=tuple(c1.sample_box) + tuple(c2.sample_box),
    )


def _factor_step(M: Manifold, a: str, b: str):
    """(transition, overlap boxes) of one factor; the identity when a == b."""
    if a == b:
        return M.atlas.transition(a, a), M.diagonal_boxes.get(
            a, [M.atlas.charts[a].sample_box])
    return M.atlas.transitions.get((a, b)), M.atlas.overlap_boxes.get((a, b))


def _product_transition(t1: Transition, t2: Transition, d1: int, d2: int) -> Transition:
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.concatenate([t1.fn(x[:, :d1]), t2.fn(x[:, d1:])], axis=1)

    def jac(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros((len(x), d1 + d2, d1 + d2))
        out[:, :d1, :d1] = t1.jac(x[:, :d1])
        out[:, d1:, d1:] = t2.jac(x[:, d1:])
        return out

    pieces = []
    for m1, a1, b1 in t1.affine_pieces or []:
        for m2, a2, b2 in t2.affine_pieces or []:
            mask = (lambda m1, m2: lambda x: m1(x[:, :d1]) & m2(x[:, d1:]))(m1, m2)
            pieces.append((mask, np.r_[np.broadcast_to(a1, d1), np.broadcast_to(a2, d2)],
                           np.r_[np.broadcast_to(b1, d1), np.broadcast_to(b2, d2)]))
    return Transition(fn, jac, pieces or None)


def _lift_surrogate(s: CoordinateSurrogate, charts: dict, lo: int, hi: int,
                    dim: int) -> CoordinateSurrogate:
    # ``charts`` maps each product chart to the factor chart on axes lo..hi-1
    return CoordinateSurrogate(
        lo + s.axis,
        {c: lift_axis(s.exprs[f], lo, dim) for c, f in charts.items()},
        {c: (lambda m: lambda x: m(x[:, lo:hi]))(s.core_mask[f]) for c, f in charts.items()},
    )


def product(M: Manifold, N: Manifold, name: str | None = None) -> Manifold:
    """The product manifold M x N; its points are pairs of factor points.

    Charts are pairs of factor charts, named by joining the factor chart
    names, with M's coordinates first.  Transitions act factor by factor
    (the identity where a factor keeps its chart) with block-diagonal
    Jacobians and products of the affine pieces; overlap boxes are
    products of factor boxes, M's outer, a kept chart contributing its
    ``diagonal_boxes``.  Partition members are products of factor
    members and every factor surrogate is lifted to its block of axes.
    """
    d1, dim = M.dim, M.dim + N.dim
    name = name or f"{M.name}x{N.name}"
    pairs = {c1 + c2: (c1, c2) for c1 in sorted(M.atlas.charts)
             for c2 in sorted(N.atlas.charts)}
    charts = {c: _product_chart(c, M.atlas.charts[c1], N.atlas.charts[c2])
              for c, (c1, c2) in pairs.items()}
    transitions, overlap = {}, {}
    for a, (a1, a2) in pairs.items():
        for b, (b1, b2) in pairs.items():
            t1, boxes1 = _factor_step(M, a1, b1)
            t2, boxes2 = _factor_step(N, a2, b2)
            if a == b or t1 is None or t2 is None:
                continue
            transitions[(a, b)] = _product_transition(t1, t2, d1, N.dim)
            overlap[(a, b)] = [tuple(i1) + tuple(i2) for i1 in boxes1 for i2 in boxes2]
    atlas = Atlas(name, dim, charts, transitions, overlap)
    lifted = lambda f1, f2: {c: lift_axis(f1[c1], 0, dim) * lift_axis(f2[c2], d1, dim)
                             for c, (c1, c2) in pairs.items()}
    pou = PartitionOfUnity(atlas, lifted(M.pou.chi, N.pou.chi),
                           lifted(M.pou.zeta, N.pou.zeta),
                           {c: tuple(M.pou.supp_boxes[c1]) + tuple(N.pou.supp_boxes[c2])
                            for c, (c1, c2) in pairs.items()})
    first = {c: c1 for c, (c1, _) in pairs.items()}
    second = {c: c2 for c, (_, c2) in pairs.items()}
    surrogates = ([_lift_surrogate(s, first, 0, d1, dim) for s in M.surrogates]
                  + [_lift_surrogate(s, second, d1, dim, dim) for s in N.surrogates])
    return Manifold(name, atlas, pou, surrogates)


def torus2() -> Manifold:
    """The 2-torus: ``product(circle(), circle())``, charts AA, AB, BA, BB."""
    return product(circle(), circle(), name="torus2")
