"""Symplectic phase space, Poisson brackets, and the delta-barrier oscillator.

Phase space is R^{2n} with coordinates ordered (q_1..q_n, p_1..p_n).
Every sign convention used by this module (and its tests) is fixed here
and nowhere else:

    omega            = sum_i dq_i ^ dp_i
    flat(Xi)         = omega(Xi, .)          flat(d/dq_i) = +dp_i
    sharp            = inverse of flat       sharp(dq_i)  = -d/dp_i
    Xi_H             = sharp(dH)             components (H_p, -H_q)
    {F, G}           = sum_i F_q G_p - F_p G_q = Xi_G(F) = -Xi_F(G)

so Hamilton's equations read qdot = H_p, pdot = -H_q, and for
H = p^2/2 + V(q) the flow solves qddot = -V'(q).

The singular experiment replaces V by a strict delta net: a compactly
supported profile rho >= 0 with unit mass, rescaled to
delta_eps(x) = (1/eps) rho(x/eps).  Trajectories reflect off the barrier
and converge (away from the impact time) to sign(q0)|q0 + qdot0 t|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from . import _mindex as mi
from .errors import DimensionMismatch, InvalidSlots, NoImpact, StiffnessFailure
from .forms import GeneralizedKForm, exterior_d
from .gfunc import GeneralizedFunction, _atlas_of, _same_charts, _sum
from .gnumber import GeneralizedNumber
from .manifolds import euclidean
from .nets import Net
from .quadrature import adaptive, panel_rule
from .smooth import SmoothFn, from_sympy, lift_axis
from .tensor import GeneralizedTensorField, GeneralizedVectorField, _make

# Mass of the unnormalized bump exp(-1/(1-x^2)) on (-1, 1), frozen from a
# high-precision quadrature; the normalized profile divides by it.
BUMP_NORMALIZATION = 0.44399381616807944

# Below 1 - x^2 = _BUMP_GATE the bump is under 4e-44 and is clamped to
# zero so lambdified branches never feed exp a huge positive argument.
_BUMP_GATE = 0.01

# StrictDeltaNet.l1_norm: an L1_NODES-point rule on L1_PANELS equal panels
L1_PANELS, L1_NODES = 8, 64


def bump_profile() -> SmoothFn:
    """The normalized C-infinity bump supported on [-1, 1]."""
    x = sp.Symbol("x")
    body = sp.exp(-1 / (1 - x**2)) / BUMP_NORMALIZATION
    expr = sp.Piecewise((body, 1 - x**2 > _BUMP_GATE), (0, True))
    return from_sympy(expr, (x,), label="bump")


class StrictDeltaNet:
    """The scaled family delta_eps(x) = (1/eps) rho(x/eps).

    ``generator`` is a smooth profile supported in [-radius, radius];
    the default is the normalized bump.  Certificates report mass,
    L1 bound, support radius and exactness of the scaling.
    """

    def __init__(self, generator: SmoothFn | None = None, radius: float = 1.0,
                 label: str = "delta"):
        self.generator = generator if generator is not None else bump_profile()
        if self.generator.dim != 1:
            raise DimensionMismatch("delta generator must be one-dimensional")
        self.radius = float(radius)
        self.label = label
        self.net = Net(1, self._at_eps, label=label)

    def _at_eps(self, eps: float) -> SmoothFn:
        a = 1.0 / float(eps)
        return self.generator.scale_shift(a, 0.0) * a

    def at(self, eps: float) -> SmoothFn:
        return self.net.at(eps)

    def support_radius(self, eps: float) -> float:
        return self.radius * float(eps)

    def mass(self, eps: float) -> float:
        r = self.support_radius(eps)
        return adaptive(self.at(eps), -r, r, float(eps))

    def l1_norm(self, eps: float) -> float:
        r = self.support_radius(eps)
        xs, ws = panel_rule(np.linspace(-r, r, L1_PANELS + 1), L1_NODES)
        return float(np.sum(ws * np.abs(self.at(eps)(xs))))

    def certify(self, eps_values, n_check: int = 9,
                mass_tol: float = 1e-8) -> dict:
        """Strict-delta-net certificates over the given eps values."""
        rows = []
        scaling_ok = True
        for e in eps_values:
            e = float(e)
            r = self.support_radius(e)
            m = self.mass(e)
            # the net is the literal expression rho(x * (1/eps)) * (1/eps);
            # recomputing it the same way must match bit for bit
            a = 1.0 / e
            xs = np.linspace(-r, r, n_check)
            ref = a * self.generator(xs * a)
            if not np.array_equal(self.at(e)(xs), ref):
                scaling_ok = False
            rows.append({
                "eps": e,
                "support_radius": r,
                "mass": m,
                "mass_err": abs(m - 1.0),
                "l1": self.l1_norm(e),
            })
        l1_bound = max(r["l1"] for r in rows)
        mass_ok = all(r["mass_err"] < mass_tol for r in rows)
        return {
            "rows": rows,
            "mass_ok": mass_ok,
            "mass_tol": mass_tol,
            "l1_bound": l1_bound,
            "scaling_exact": scaling_ok,
            "ok": mass_ok and scaling_ok,
        }


class SymplecticForm:
    """Canonical symplectic structure on R^{2n} in (q, p) block order."""

    def __init__(self, dofs: int):
        self.dofs = int(dofs)
        if self.dofs < 1:
            raise DimensionMismatch("need at least one degree of freedom")
        self.dim = 2 * self.dofs

    @property
    def matrix(self) -> np.ndarray:
        """Entries omega(e_a, e_b); the canonical [[0, I], [-I, 0]]."""
        n = self.dofs
        m = np.zeros((2 * n, 2 * n))
        m[:n, n:] = np.eye(n)
        m[n:, :n] = -np.eye(n)
        return m

    @property
    def inverse_matrix(self) -> np.ndarray:
        # analytic inverse of the canonical block matrix, not a solve
        return -self.matrix

    def as_form(self, space) -> GeneralizedKForm:
        atlas = _atlas_of(space)
        if atlas.dim != self.dim:
            raise DimensionMismatch(
                f"space has dim {atlas.dim}, symplectic form wants {self.dim}")
        n = self.dofs
        comps = {c: {(i, n + i): 1.0 for i in range(n)} for c in atlas.charts}
        return GeneralizedKForm(space, 2, comps, label="omega")


def _columns(T, valence, omega: SymplecticForm, error: str) -> tuple:
    """The atlas and per-chart component nets of a valence (1, 0) or (0, 1) field."""
    if not isinstance(T, GeneralizedTensorField) or T.valence != valence:
        raise InvalidSlots(error)
    if T.atlas.dim != omega.dim:
        raise DimensionMismatch(
            f"field lives on dim {T.atlas.dim}, form on dim {omega.dim}")
    return T.atlas, {c: [T.comps[c][(i,)] for i in range(omega.dim)] for c in T.comps}


def flat(Xi, omega: SymplecticForm):
    """omega(Xi, .) as a one-form; the musical lowering.

    Componentwise this is the transposed-matrix application
    (dq_j part) = -Xi^{p_j}, (dp_j part) = +Xi^{q_j}, so it is exact.
    """
    atlas, vecs = _columns(Xi, (1, 0), omega, "flat expects a vector field")
    n = omega.dofs
    comps = {}
    for c, v in vecs.items():
        alpha = [None] * (2 * n)
        for i in range(n):
            alpha[i] = -v[n + i]
            alpha[n + i] = v[i]
        comps[c] = np.array(alpha, dtype=object)
    return _make(atlas, (0, 1), comps, label=f"flat {getattr(Xi, 'label', '')}")


def sharp(A, omega: SymplecticForm) -> GeneralizedVectorField:
    """Inverse of :func:`flat`: (q_j part) = +A_{dp_j}, (p_j part) = -A_{dq_j}."""
    if isinstance(A, GeneralizedKForm) and A.degree == 1:
        A = A.to_tensor()
    atlas, covs = _columns(A, (0, 1), omega, "sharp expects a one-form")
    n = omega.dofs
    comps = {}
    for c, a in covs.items():
        v = [None] * (2 * n)
        for i in range(n):
            v[i] = a[n + i]
            v[n + i] = -a[i]
        comps[c] = np.array(v, dtype=object)
    return _make(atlas, (1, 0), comps, label=f"sharp {getattr(A, 'label', '')}")


def hamiltonian_vf(H: GeneralizedFunction, omega: SymplecticForm) -> GeneralizedVectorField:
    """The field Xi_H = sharp(dH), components (H_p, -H_q)."""
    Xi = sharp(exterior_d(H), omega)
    Xi.label = f"Xi_{H.label or 'H'}"
    return Xi


def poisson(F: GeneralizedFunction, G: GeneralizedFunction,
            omega: SymplecticForm) -> GeneralizedFunction:
    """{F, G} = sum_i F_{q_i} G_{p_i} - F_{p_i} G_{q_i}, per eps."""
    atlas = F.atlas
    _same_charts(F, G)
    if atlas.dim != omega.dim:
        raise DimensionMismatch(
            f"functions on dim {atlas.dim}, symplectic form on dim {omega.dim}")
    n = omega.dofs
    dim = omega.dim
    nets = {}
    for c in F.nets:
        f, g = F.nets[c], G.nets[c]
        nets[c] = _sum(f.partial(mi.unit(dim, i)) * g.partial(mi.unit(dim, n + i))
                       - f.partial(mi.unit(dim, n + i)) * g.partial(mi.unit(dim, i))
                       for i in range(n))
    return GeneralizedFunction(atlas, nets,
                               label=f"{{{F.label or 'F'},{G.label or 'G'}}}")


_KINETIC = from_sympy(sp.Symbol("s") ** 2 / 2, (sp.Symbol("s"),), label="p^2/2")


def _resolve_initial(value, eps: float) -> float:
    if isinstance(value, GeneralizedNumber):
        grid = np.asarray(value.grid, dtype=float)
        j = int(np.argmin(np.abs(grid - eps)))
        if abs(grid[j] - eps) > 1e-12 * max(1.0, abs(eps)):
            raise ValueError(f"eps={eps} not on the grid of {value.label!r}")
        return float(value.values[j])
    return float(value)


class HamiltonianSystem:
    """One degree of freedom, H = p^2/2 + V(q) + delta_eps(q).

    ``delta`` is a :class:`StrictDeltaNet` or None; ``potential`` an
    optional smooth one-dimensional background potential.  Initial data
    may be scalars or generalized numbers on the working grid.
    """

    def __init__(self, delta: StrictDeltaNet | None = None,
                 q0=1.0, qdot0=-1.0, potential: SmoothFn | None = None,
                 box_halfwidth: float = 3.0):
        if potential is not None and potential.dim != 1:
            raise DimensionMismatch("background potential must be one-dimensional")
        self.delta = delta
        self.potential = potential
        self.q0 = q0
        self.qdot0 = qdot0
        self.omega = SymplecticForm(1)
        self.space = euclidean(2, box_halfwidth)

    def initial_state(self, eps: float) -> tuple[float, float]:
        # qdot = H_p = p, so the initial momentum is qdot0 itself
        return _resolve_initial(self.q0, eps), _resolve_initial(self.qdot0, eps)

    def hamiltonian(self) -> GeneralizedFunction:
        delta, pot = self.delta, self.potential

        def factory(eps):
            h = lift_axis(_KINETIC, 1, 2)
            if pot is not None:
                h = h + lift_axis(pot, 0, 2)
            if delta is not None:
                h = h + lift_axis(delta.at(eps), 0, 2)
            return h

        return GeneralizedFunction(self.space, {"0": Net(2, factory)}, label="H")

    def vector_field(self) -> GeneralizedVectorField:
        return hamiltonian_vf(self.hamiltonian(), self.omega)

    def barrier_radius(self, eps: float) -> float:
        return 0.0 if self.delta is None else self.delta.support_radius(eps)

    def force(self, eps: float):
        """-dV/dq - d(delta_eps)/dq as a fast scalar callable."""
        terms = []
        if self.potential is not None:
            vp = self.potential
            terms.append(lambda q: vp._partial_fn((1,), np.array([[q]]))[0])
        if self.delta is not None:
            dfn = self.delta.at(eps)
            terms.append(lambda q: dfn._partial_fn((1,), np.array([[q]]))[0])
        if not terms:
            return lambda q: 0.0
        if len(terms) == 1:
            t0 = terms[0]
            return lambda q: -float(t0(q))
        return lambda q: -float(sum(t(q) for t in terms))

    def energy_values(self, eps: float, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        e = 0.5 * p * p
        if self.potential is not None:
            e = e + self.potential(q)
        if self.delta is not None:
            e = e + self.delta.at(eps)(q)
        return e


@dataclass
class Trajectory:
    """Sampled phase-space path of one regularized solve."""

    eps: float
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    energy: np.ndarray
    energy_drift: float
    ode_tol: float
    n_steps: int
    nfev: int
    n_segments: int
    meta: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "eps": self.eps,
            "energy_drift": self.energy_drift,
            "ode_tol": self.ode_tol,
            "n_steps": self.n_steps,
            "nfev": self.nfev,
            "n_segments": self.n_segments,
        }


def _boundary_event(level: float, direction: int):
    def ev(t, y):
        return y[0] - level

    ev.terminal = True
    ev.direction = direction
    return ev


def _integrate_segments(rhs, y0, t_span, eps, radius, rtol, atol, max_nfev):
    """Event-split RK45 run; the step cap drops to eps^2 inside the barrier."""
    from scipy.integrate import solve_ivp

    t0, t1 = float(t_span[0]), float(t_span[1])
    t, y = t0, np.asarray(y0, dtype=float)
    segs, nfev, n_steps = [], 0, 0
    while t < t1:
        if radius > 0.0:
            b = abs(y[0]) - radius
            if b < -1e-12:
                inside = True
            elif b > 1e-12:
                inside = False
            else:
                inside = y[0] * y[1] < 0  # on the edge: heading inward?
            if inside:
                events = [_boundary_event(radius, +1), _boundary_event(-radius, -1)]
                max_step = eps * eps
            else:
                events = [_boundary_event(radius, -1), _boundary_event(-radius, +1)]
                max_step = np.inf
        else:
            events, max_step = None, np.inf
        sol = solve_ivp(rhs, (t, t1), y, method="RK45", rtol=rtol, atol=atol,
                        dense_output=True, events=events, max_step=max_step)
        nfev += sol.nfev
        n_steps += max(len(sol.t) - 1, 0)
        if sol.status == -1:
            raise StiffnessFailure(
                f"integration stalled at t={sol.t[-1]:.6g} (eps={eps:g}): {sol.message}")
        if nfev > max_nfev:
            raise StiffnessFailure(
                f"evaluation budget {max_nfev} exhausted at t={sol.t[-1]:.6g} "
                f"(eps={eps:g}, {nfev} evaluations)")
        if float(sol.t[-1]) <= t:
            raise StiffnessFailure(
                f"no progress past t={t:.6g} (eps={eps:g})")
        segs.append(sol)
        t, y = float(sol.t[-1]), sol.y[:, -1]
        if sol.status == 0:
            break
    return segs, nfev, n_steps


def _sample_segments(segs, ts):
    ends = np.array([float(s.t[-1]) for s in segs])
    idx = np.clip(np.searchsorted(ends, ts, side="left"), 0, len(segs) - 1)
    out = np.empty((2, len(ts)))
    for k, s in enumerate(segs):
        mask = idx == k
        if np.any(mask):
            out[:, mask] = s.sol(ts[mask])
    return out[0], out[1]


def solve_singular_oscillator(sys: HamiltonianSystem, t_span=(0.0, 2.0),
                              eps_values=(1e-1, 1e-2, 1e-3), rtol: float = 1e-10,
                              atol: float = 1e-12, n_samples: int = 2001,
                              max_nfev: int = 5_000_000) -> list[Trajectory]:
    """Integrate qdot = p, pdot = force(q) for each eps.

    Outside the barrier support the force vanishes identically and RK45
    coasts; inside, the maximum step is capped at eps^2 to resolve a
    right-hand side of order eps^{-2}.  Step-size underflow or an
    exhausted evaluation budget raises StiffnessFailure.
    """
    eps_list = [float(e) for e in np.atleast_1d(eps_values)]
    if not eps_list:
        raise ValueError("need at least one eps value")
    if not (float(t_span[1]) > float(t_span[0])):
        raise ValueError("t_span must be increasing")
    out = []
    ts = np.linspace(float(t_span[0]), float(t_span[1]), int(n_samples))
    for eps in eps_list:
        q0, p0 = sys.initial_state(eps)
        force = sys.force(eps)
        rhs = lambda t, y: (y[1], force(y[0]))
        segs, nfev, n_steps = _integrate_segments(
            rhs, (q0, p0), t_span, eps, sys.barrier_radius(eps),
            rtol, atol, max_nfev)
        q, p = _sample_segments(segs, ts)
        energy = sys.energy_values(eps, q, p)
        drift = float(np.max(np.abs(energy - energy[0])))
        ode_tol = rtol * float(np.max(np.abs(energy))) + atol
        out.append(Trajectory(
            eps=eps, t=ts.copy(), q=q, p=p, energy=energy,
            energy_drift=drift, ode_tol=ode_tol, n_steps=n_steps,
            nfev=nfev, n_segments=len(segs),
            meta={"q0": q0, "p0": p0, "rtol": rtol, "atol": atol}))
    return out


def reflection_limit_check(trajectories, q0: float, qdot0: float,
                           eta: float = 0.1, tol: float = 0.05) -> dict:
    """Sup distance to the reflected ray sign(q0)|q0 + qdot0 t|.

    The open window (t* - eta, t* + eta) around the impact time
    t* = -q0/qdot0 is excluded; convergence there is not expected.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    if qdot0 == 0.0:
        raise NoImpact("zero initial velocity: no impact time")
    t_star = -q0 / qdot0
    lo = float(min(tr.t[0] for tr in trajectories))
    hi = float(max(tr.t[-1] for tr in trajectories))
    if not (lo < t_star < hi):
        raise NoImpact(f"impact time {t_star:.6g} outside [{lo:.6g}, {hi:.6g}]")
    sgn = 1.0 if q0 > 0 else -1.0
    rows = []
    for tr in sorted(trajectories, key=lambda tr: -tr.eps):
        mask = (tr.t <= t_star - eta) | (tr.t >= t_star + eta)
        limit = sgn * np.abs(q0 + qdot0 * tr.t[mask])
        dev = float(np.max(np.abs(tr.q[mask] - limit)))
        rows.append({"eps": tr.eps, "sup_deviation": dev})
    devs = [r["sup_deviation"] for r in rows]
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    return {
        "t_star": t_star,
        "eta": eta,
        "tol": tol,
        "rows": rows,
        "decreasing": decreasing,
        "pass": decreasing and devs[-1] < tol,
    }
