"""Charts, atlases, partitions of unity, generalized points.

Points of a manifold are opaque values; charts map them to coordinate
arrays.  An atlas carries explicit transition maps with analytic
Jacobians plus sample boxes for each overlap, which is what every
coherence check in the package lattices over.

``validate`` measures the structural invariants (chart round trips,
transition consistency, cocycle on triple overlaps, Jacobian
invertibility) and raises ``CoherenceFailure`` when a tolerance is
breached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .asymptotic import AsymptoticFit, estimate_order
from .errors import CoherenceFailure, NotComparable, PartitionMismatch
from .grid import DEFAULT_GRID
from .nets import box_lattice

ROUND_TRIP_TOL = 1e-12
TRANSITION_TOL = 1e-10
COCYCLE_TOL = 1e-10
JAC_FD_TOL = 1e-6
POU_SUM_TOL = 1e-10


@dataclass
class Chart:
    """A coordinate chart.

    ``sample_box`` is a closed box in coordinate space guaranteed to sit
    inside the chart image; lattice checks draw from it.
    """

    name: str
    dim: int
    contains: Callable
    to_coords: Callable
    from_coords: Callable
    sample_box: tuple


@dataclass
class Transition:
    """Coordinate change between two charts with analytic Jacobian.

    ``fn`` maps (m, n) coordinate arrays to (m, n); ``jac`` returns
    (m, n, n) Jacobian matrices.

    ``affine`` declares that near every point the map is x -> a * x + b
    with ``a`` diagonal and constant, so ``jac`` is diagonal and locally
    constant; a smooth function is then pulled through exactly, its
    derivatives scaled by powers of the diagonal (``gfunc.transport_net``).
    ``Atlas.validate`` checks that the Jacobian is diagonal.
    """

    fn: Callable
    jac: Callable
    affine: bool = False


class Atlas:
    def __init__(self, name: str, dim: int, charts, transitions, overlap_boxes):
        self.name = name
        self.dim = int(dim)
        self.charts: dict[str, Chart] = dict(charts)
        self.transitions: dict[tuple[str, str], Transition] = dict(transitions)
        # (a, b) -> list of sample boxes in a-coordinates covering the overlap
        self.overlap_boxes: dict[tuple[str, str], list] = dict(overlap_boxes)

    def chart_names(self):
        return sorted(self.charts)

    def transition(self, a: str, b: str) -> Transition:
        if a == b:
            eye = np.eye(self.dim)
            return Transition(lambda x: np.asarray(x, dtype=float),
                              lambda x: np.broadcast_to(eye, (len(x), self.dim, self.dim)), True)
        try:
            return self.transitions[(a, b)]
        except KeyError:
            raise CoherenceFailure(f"no transition {a} -> {b} in atlas {self.name}")

    def validate(self, n_samples: int = 25) -> dict:
        report = {"atlas": self.name, "round_trip": {}, "transition": {},
                  "cocycle": {}, "jacobian": {}}
        # np.maximum and `not r <= tol` keep a NaN residual from reading as a pass
        for name, ch in self.charts.items():
            pts = box_lattice(ch.sample_box, n_samples)
            worst = 0.0
            for x in pts:
                y = np.atleast_1d(np.asarray(ch.to_coords(ch.from_coords(x)), dtype=float))
                worst = float(np.maximum(worst, np.max(np.abs(y - x))))
            report["round_trip"][name] = worst
            if not worst <= ROUND_TRIP_TOL:
                raise CoherenceFailure(
                    f"chart {name} round trip off by {worst:.3e} (tol {ROUND_TRIP_TOL})")

        for (a, b), boxes in self.overlap_boxes.items():
            t_ab = self.transition(a, b)
            t_ba = self.transition(b, a)
            cha, chb = self.charts[a], self.charts[b]
            worst_t, worst_inv, worst_jac, min_det = 0.0, 0.0, 0.0, np.inf
            for box in boxes:
                x = box_lattice(box, n_samples)
                y = t_ab.fn(x)
                # transition agrees with the underlying chart maps
                for xi, yi in zip(x[:: max(1, len(x) // 10)], y[:: max(1, len(x) // 10)]):
                    yc = np.atleast_1d(np.asarray(
                        chb.to_coords(cha.from_coords(xi)), dtype=float))
                    worst_t = float(np.maximum(worst_t, np.max(np.abs(yc - yi))))
                back = t_ba.fn(y)
                worst_inv = float(np.maximum(worst_inv, np.max(np.abs(back - x))))
                jac = t_ab.jac(x)
                if t_ab.affine and (jac * (1.0 - np.eye(self.dim))).any():
                    raise CoherenceFailure(f"transition {a}->{b} is declared affine, "
                                           "but its Jacobian is not diagonal")
                min_det = float(np.minimum(min_det, np.min(np.abs(np.linalg.det(jac)))))
                worst_jac = float(np.maximum(worst_jac, _jac_fd_residual(t_ab, x)))
            report["transition"][f"{a}->{b}"] = {
                "chart_consistency": worst_t, "inverse": worst_inv,
                "jac_fd": worst_jac, "min_abs_det": min_det,
            }
            if not (worst_t <= TRANSITION_TOL and worst_inv <= TRANSITION_TOL):
                raise CoherenceFailure(f"transition {a}->{b} inconsistent: {report['transition'][f'{a}->{b}']}")
            if not min_det >= 1e-8:
                raise CoherenceFailure(f"transition {a}->{b} has near-singular Jacobian")
            if not worst_jac <= JAC_FD_TOL:
                raise CoherenceFailure(f"transition {a}->{b} Jacobian disagrees with finite differences")

        for (a, b) in self.overlap_boxes:
            for c in self.chart_names():
                if c in (a, b) or (b, c) not in self.transitions or (a, c) not in self.transitions:
                    continue
                worst = _cocycle_residual(self, a, b, c, n_samples)
                if worst is not None:
                    report["cocycle"][f"{a}->{b}->{c}"] = worst
                    if not worst <= COCYCLE_TOL:
                        raise CoherenceFailure(
                            f"cocycle {a}->{b}->{c} off by {worst:.3e}")
        return report


def _jac_fd_residual(t: Transition, x: np.ndarray) -> float:
    h = 1e-6
    jac = t.jac(x)
    dim = x.shape[1]
    worst = 0.0
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        col = (t.fn(x + e) - t.fn(x - e)) / (2 * h)
        worst = float(np.maximum(worst, np.max(np.abs(col - jac[:, :, k]))))
    return worst


def _cocycle_residual(atlas: Atlas, a: str, b: str, c: str, n_samples: int):
    cha = atlas.charts[a]
    chc = atlas.charts[c]
    t_ab, t_bc, t_ac = (atlas.transition(a, b), atlas.transition(b, c),
                        atlas.transition(a, c))
    worst = None
    for box in atlas.overlap_boxes[(a, b)]:
        x = box_lattice(box, n_samples)
        keep = np.array([chc.contains(cha.from_coords(xi)) for xi in x])
        if not keep.any():
            continue
        x = x[keep]
        via_b = t_bc.fn(t_ab.fn(x))
        direct = t_ac.fn(x)
        r = float(np.max(np.abs(via_b - direct)))
        worst = r if worst is None else float(np.maximum(worst, r))
    return worst


class PartitionOfUnity:
    """Bump functions chi (summing to one) with plateaus zeta.

    Each member is a SmoothFn in its own chart's coordinates, supported
    in ``supp_box`` strictly inside the chart; zeta is identically one
    on the support of chi.
    """

    def __init__(self, atlas: Atlas, chi: dict, zeta: dict, supp_boxes: dict):
        if set(chi) != set(atlas.charts) or set(zeta) != set(atlas.charts):
            raise PartitionMismatch(
                f"members {sorted(chi)} do not match charts {atlas.chart_names()}")
        self.atlas = atlas
        self.chi = dict(chi)
        self.zeta = dict(zeta)
        self.supp_boxes = dict(supp_boxes)

    def value(self, name: str, point) -> float:
        """chi_name evaluated at a manifold point (zero off its chart)."""
        ch = self.atlas.charts[name]
        if not ch.contains(point):
            return 0.0
        return float(self.chi[name](np.atleast_1d(ch.to_coords(point))))

    def validate(self, n_samples: int = 40) -> dict:
        report = {}
        worst_sum = 0.0
        for name, ch in self.atlas.charts.items():
            for x in box_lattice(ch.sample_box, n_samples):
                p = ch.from_coords(x)
                s = sum(self.value(j, p) for j in self.atlas.charts)
                worst_sum = float(np.maximum(worst_sum, abs(s - 1.0)))
        report["sum_minus_one"] = worst_sum
        if not worst_sum <= POU_SUM_TOL:
            raise PartitionMismatch(f"partition sums to 1 off by {worst_sum:.3e}")
        worst_plateau = 0.0
        for name in self.atlas.charts:
            box = self.supp_boxes[name]
            pts = box_lattice(box, n_samples)
            chiv = self.chi[name](pts)
            zetav = self.zeta[name](pts)
            mask = np.abs(chiv) > 1e-30
            if mask.any():
                worst_plateau = float(np.maximum(worst_plateau, np.max(np.abs(zetav[mask] - 1.0))))
        report["zeta_plateau"] = worst_plateau
        if not worst_plateau <= 1e-12:
            raise PartitionMismatch(f"zeta not flat on supp chi: {worst_plateau:.3e}")
        return report


@dataclass
class GeneralizedPoint:
    """A point net held in a witness chart.

    ``coords_net`` maps eps to coordinates, promised to stay inside
    ``box`` for small eps.
    """

    atlas: Atlas
    chart: str
    coords_net: Callable
    box: tuple
    label: str = ""

    @classmethod
    def classical(cls, atlas: Atlas, chart: str, coords) -> "GeneralizedPoint":
        coords = np.atleast_1d(np.asarray(coords, dtype=float))
        box = tuple((c - 0.1, c + 0.1) for c in coords)
        return cls(atlas, chart, lambda eps: coords, box, label="classical")

    def coords_at(self, eps: float) -> np.ndarray:
        c = np.atleast_1d(np.asarray(self.coords_net(float(eps)), dtype=float))
        if c.shape != (self.atlas.dim,):
            raise NotComparable(f"coords net returned shape {c.shape}")
        return c

    def in_box(self, eps: float) -> bool:
        c = self.coords_at(eps)
        return all(lo <= v <= hi for v, (lo, hi) in zip(c, self.box))


def point_equiv(p: GeneralizedPoint, q: GeneralizedPoint) -> tuple[bool, AsymptoticFit]:
    """Equivalence of generalized points: coordinate gap is negligible.

    The rounding floor at each eps is set by the larger coordinate norm
    of the two points there, in the common chart.

    q's coordinates move into p's chart by ``Atlas.transition``, the
    identity when the charts agree; with no transition between the
    charts the points are NotComparable.
    """
    if p.atlas is not q.atlas:
        raise NotComparable("points live on different atlases")
    if q.chart != p.chart and (q.chart, p.chart) not in p.atlas.transitions:
        raise NotComparable(f"no common chart between {p.chart} and {q.chart}")
    t = p.atlas.transition(q.chart, p.chart)
    pairs = [(p.coords_at(e), t.fn(q.coords_at(e)[None, :])[0]) for e in DEFAULT_GRID]
    fit = estimate_order(zip(DEFAULT_GRID, [np.linalg.norm(x - y) for x, y in pairs]),
                         scale=[max(np.linalg.norm(x), np.linalg.norm(y)) for x, y in pairs])
    return fit.is_negligible, fit
