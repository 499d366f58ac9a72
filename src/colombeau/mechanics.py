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
from .quadrature import cubature, panel_rule
from .smooth import _GLUE_TAU, SmoothFn, _per_point, from_sympy, lift_axis
from .tensor import GeneralizedTensorField

# Mass of the unnormalized bump exp(-1/(1-x^2)) on (-1, 1), frozen from a
# high-precision quadrature; the normalized profile divides by it.
BUMP_NORMALIZATION = 0.44399381616807944

# StrictDeltaNet.l1_norm: an L1_NODES-point rule on L1_PANELS equal panels
L1_PANELS, L1_NODES = 8, 64
# StrictDeltaNet.certify: the scaling is checked at SCALING_POINTS points of
# the support, and each mass must lie within MASS_TOL of one
SCALING_POINTS, MASS_TOL = 9, 1e-8
# solve_singular_oscillator: the RK45 tolerances, reported in each Trajectory.meta
ODE_RTOL, ODE_ATOL = 1e-10, 1e-12


def bump_profile() -> SmoothFn:
    """The normalized C-infinity bump on [-1, 1]: 0 where 1 - x^2 <= _GLUE_TAU, as the
    glue cuts exp(-1/t), so no branch feeds exp a huge positive argument."""
    x = sp.Symbol("x")
    body = sp.exp(-1 / (1 - x**2)) / BUMP_NORMALIZATION
    expr = sp.Piecewise((body, 1 - x**2 > _GLUE_TAU), (0, True))
    return from_sympy(expr, (x,), label="bump")


class StrictDeltaNet(Net):
    """The scaled family delta_eps(x) = (1/eps) rho(x/eps), a ``Net`` on R^1.

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
        super().__init__(1, self._at_eps, label=label)

    def _at_eps(self, eps: float) -> SmoothFn:
        a = 1.0 / float(eps)
        return self.generator.scale_shift(a, 0.0) * a

    def support_radius(self, eps: float) -> float:
        return self.radius * float(eps)

    def mass(self, eps: float) -> float:
        r = self.support_radius(eps)
        return cubature(self.at(eps), ((-r, r),), float(eps))

    def l1_norm(self, eps: float) -> float:
        r = self.support_radius(eps)
        xs, ws = panel_rule(np.linspace(-r, r, L1_PANELS + 1), L1_NODES)
        return float(np.sum(ws * np.abs(self.at(eps)(xs))))

    def certify(self, eps_values) -> dict:
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
            xs = np.linspace(-r, r, SCALING_POINTS)
            ref = a * self.generator(xs * a)
            if not np.array_equal(self.at(e)(xs), ref):
                scaling_ok = False
            rows.append({"eps": e, "support_radius": r, "mass": m, "mass_err": abs(m - 1.0),
                         "l1": self.l1_norm(e)})
        mass_ok = all(r["mass_err"] < MASS_TOL for r in rows)
        return {"rows": rows, "mass_ok": mass_ok, "mass_tol": MASS_TOL,
                "l1_bound": max(r["l1"] for r in rows), "scaling_exact": scaling_ok,
                "ok": mass_ok and scaling_ok}


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
    comps = {c: [-x for x in v[n:]] + v[:n] for c, v in vecs.items()}
    return GeneralizedTensorField(atlas, (0, 1), comps, label=f"flat {getattr(Xi, 'label', '')}")


def sharp(A, omega: SymplecticForm) -> GeneralizedTensorField:
    """Inverse of :func:`flat`: (q_j part) = +A_{dp_j}, (p_j part) = -A_{dq_j}."""
    if isinstance(A, GeneralizedKForm) and A.degree == 1:
        A = A.to_tensor()
    atlas, covs = _columns(A, (0, 1), omega, "sharp expects a one-form")
    n = omega.dofs
    comps = {c: a[n:] + [-x for x in a[:n]] for c, a in covs.items()}
    return GeneralizedTensorField(atlas, (1, 0), comps, label=f"sharp {getattr(A, 'label', '')}")


def hamiltonian_vf(H: GeneralizedFunction, omega: SymplecticForm) -> GeneralizedTensorField:
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


def _slope(rho: SmoothFn):
    """rho' on a (1, 1) lattice: a sympy leaf's lambdified derivative, else rho's partial."""
    lam = getattr(rho, "_lambdified", None)
    if lam is None:
        return lambda pts: rho._partial_fn((1,), pts)
    d1 = lam((1,))
    return lambda pts: _per_point(d1(pts[:, 0]), 1)


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
                 q0=1.0, qdot0=-1.0, potential: SmoothFn | None = None):
        if potential is not None and potential.dim != 1:
            raise DimensionMismatch("background potential must be one-dimensional")
        self.delta = delta
        self.potential = potential
        self.q0 = q0
        self.qdot0 = qdot0
        self.omega = SymplecticForm(1)
        self.space = euclidean(2)

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

    def vector_field(self) -> GeneralizedTensorField:
        return hamiltonian_vf(self.hamiltonian(), self.omega)

    def barrier_radius(self, eps: float) -> float:
        return 0.0 if self.delta is None else self.delta.support_radius(eps)

    def force(self, eps: float):
        """-dV/dq - d(delta_eps)/dq as a fast scalar callable."""
        terms = []
        if self.potential is not None:
            terms.append(lambda q, vp=self.potential: vp._partial_fn((1,), np.array([[q]]))[0])
        if self.delta is not None:
            # delta_eps' = a * (a * rho'(q*a + 0.0)), a = 1/eps: its closures' operations
            a, slope = 1.0 / float(eps), _slope(self.delta.generator)
            terms.append(lambda q: (a * (a * slope(np.array([[q * a + 0.0]]))))[0])
        if not terms:
            return lambda q: 0.0
        if len(terms) == 1:
            return lambda q, t0=terms[0]: -float(t0(q))
        return lambda q: -float(sum(t(q) for t in terms))

    def energy_values(self, eps: float, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self.hamiltonian().net("0").at(eps)(np.stack([q, p], -1))


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
        keys = ("eps", "energy_drift", "ode_tol", "n_steps", "nfev", "n_segments")
        return {k: getattr(self, k) for k in keys}


# scipy's RK45 tableau (Dormand & Prince 1980), with Shampine's dense-output matrix P
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([[0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0],
               [44/45, -56/15, 32/9, 0, 0], [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
               [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_EPS = np.finfo(float).eps


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dense(step, t):
    """The interpolant (t_old, h, y_old, Q) of one step at a time or an array of times."""
    t_old, h, y_old, Q = step
    x = (t - t_old) / h
    if np.ndim(x) == 0:
        return h * np.dot(Q, np.cumprod(np.tile(x, 4))) + y_old
    return h * np.dot(Q, np.cumprod(np.tile(x, (4, 1)), axis=0)) + y_old[:, None]


def _brentq(f, xpre, xcur):
    """A root of ``f`` between ``xpre`` and ``xcur``: scipy's C brentq, solve_ivp's tolerances."""
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta, sbis = (4 * _EPS + 4 * _EPS * abs(xcur)) / 2, (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("brentq did not converge in 100 iterations")


def _rk45(fun, t, y, t_bound, rtol, atol, max_step, events):
    """scipy's solve_ivp(fun, (t, t_bound), y, "RK45", dense_output=True) for t < t_bound,
    operation for operation, with terminal ``events`` (level, rising) on y[0].

    Returns the steps [(t0, y0, None), (t1, y1, interpolant), ...], cut at an
    event root; the number of ``fun`` calls; and the status: 0 at t_bound,
    1 at an event, -1 when the step falls below ten spacings of t or is NaN.
    """
    rtol = max(rtol, 100 * _EPS)
    f = fun(t, y)
    span, scale = abs(t_bound - t), atol + np.abs(y) * rtol  # initial step: Hairer et al. II.4
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, span, max_step)
    K, g = np.empty((7, len(y))), [y[0] - level for level, _ in events]
    steps, nfev, status = [(t, y, None)], 2, None
    while status is None:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected = max_step if h_abs > max_step else max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # a NaN step stalls too
                return steps, nfev, -1
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            K[-1] = f_new = fun(t + h, y_new)
            nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(K.T, _E) * h / scale)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        step = (t, t_new - t, y, K.T.dot(_P))
        t, y, f = t_new, y_new, f_new
        status = 0 if t >= t_bound else None
        g_new = [y[0] - level for level, _ in events]
        roots = [_brentq(lambda s, c=level: _dense(step, s)[0] - c, step[0], t)
                 for (level, rising), a, b in zip(events, g, g_new)
                 if (a <= 0 <= b if rising else b <= 0 <= a)]
        g, t_end, y_end = g_new, t, y
        if roots:
            t_end = min(roots)
            y_end, status = _dense(step, t_end), 1
        if len(steps) == 1 or steps[-1][0] != t_end:  # scipy drops a zero-length last step
            steps.append((t_end, y_end, step))
    return steps, nfev, status


def _integrate_segments(rhs, y0, t_span, eps, radius, rtol, atol, max_nfev):
    """Event-split RK45 run; the step cap drops to eps^2 inside the barrier."""
    t, t1 = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=float)
    segs, nfev, n_steps = [], 0, 0
    while t < t1:
        events, max_step = [], np.inf
        if radius > 0.0:
            b = abs(y[0]) - radius
            if b < -1e-12 or (b <= 1e-12 and y[0] * y[1] < 0):  # on the edge: heading inward?
                events, max_step = [(radius, True), (-radius, False)], eps * eps
            else:
                events = [(radius, False), (-radius, True)]
        steps, n, status = _rk45(rhs, t, y, t1, rtol, atol, max_step, events)
        nfev, n_steps = nfev + n, n_steps + len(steps) - 1
        t_end, y_end, _ = steps[-1]
        if status == -1:
            raise StiffnessFailure(f"integration stalled at t={t_end:.6g} (eps={eps:g}): "
                                   "the step fell below ten spacings of t")
        if nfev > max_nfev:
            raise StiffnessFailure(f"evaluation budget {max_nfev} exhausted at t={t_end:.6g} "
                                   f"(eps={eps:g}, {nfev} evaluations)")
        if float(t_end) <= t:
            raise StiffnessFailure(f"no progress past t={t:.6g} (eps={eps:g})")
        segs.append(steps)
        t, y = float(t_end), y_end
        if status == 0:
            break
    return segs, nfev, n_steps


def _sample_segments(segs, ts):
    """Dense output at increasing ``ts``, each time on the first step ending at or
    after it and one call per run of times on a step, as scipy's OdeSolution."""
    steps = [s for seg in segs for s in seg[1:]]
    idx = np.clip(np.searchsorted([s[0] for s in steps], ts, side="left"), 0, len(steps) - 1)
    cuts = [0, *(np.flatnonzero(np.diff(idx)) + 1), len(ts)]
    out = np.empty((2, len(ts)))
    for lo, hi in zip(cuts, cuts[1:]):
        out[:, lo:hi] = _dense(steps[idx[lo]][2], ts[lo:hi])
    return out[0], out[1]


def solve_singular_oscillator(sys: HamiltonianSystem, t_span=(0.0, 2.0),
                              eps_values=(1e-1, 1e-2, 1e-3), n_samples: int = 2001,
                              max_nfev: int = 5_000_000) -> list[Trajectory]:
    """Integrate qdot = p, pdot = force(q) for each eps.

    The stepper is an in-library Dormand-Prince 5(4) pair that repeats
    scipy's ``solve_ivp(method="RK45", dense_output=True)`` operation for
    operation: initial step, step control, dense output, and event roots
    by Brent's method, so trajectories and counts are scipy's bit for bit.
    The run is split into segments at the barrier edges |q| = radius.
    Outside the barrier support the force vanishes identically and the
    stepper coasts; inside, the maximum step is capped at eps^2 to resolve
    a right-hand side of order eps^{-2}.  Step-size underflow or an
    exhausted evaluation budget raises StiffnessFailure.
    """
    eps_list = [float(e) for e in np.atleast_1d(eps_values)]
    if not eps_list:
        raise ValueError("need at least one eps value")
    if not all(0 < e < np.inf for e in eps_list):
        raise ValueError(f"eps values must be finite and positive, got {eps_list}")
    if not (float(t_span[1]) > float(t_span[0])):
        raise ValueError("t_span must be increasing")
    if int(n_samples) < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    out = []
    ts = np.linspace(float(t_span[0]), float(t_span[1]), int(n_samples))
    for eps in eps_list:
        q0, p0 = sys.initial_state(eps)
        force = sys.force(eps)
        rhs = lambda t, y: np.array((y[1], force(y[0])))
        # lambdified branches off their piece may overflow; their values are discarded
        with np.errstate(all="ignore"):
            segs, nfev, n_steps = _integrate_segments(
                rhs, (q0, p0), t_span, eps, sys.barrier_radius(eps),
                ODE_RTOL, ODE_ATOL, max_nfev)
        q, p = _sample_segments(segs, ts)
        energy = sys.energy_values(eps, q, p)
        drift = float(np.max(np.abs(energy - energy[0])))
        ode_tol = ODE_RTOL * float(np.max(np.abs(energy))) + ODE_ATOL
        out.append(Trajectory(
            eps=eps, t=ts.copy(), q=q, p=p, energy=energy,
            energy_drift=drift, ode_tol=ode_tol, n_steps=n_steps,
            nfev=nfev, n_segments=len(segs),
            meta={"q0": q0, "p0": p0, "rtol": ODE_RTOL, "atol": ODE_ATOL}))
    return out


def reflection_limit_check(trajectories, q0: float, qdot0: float,
                           eta: float = 0.1, tol: float = 0.05) -> dict:
    """Sup distance to the reflected ray sign(q0)|q0 + qdot0 t|.

    The open window (t* - eta, t* + eta) around the impact time
    t* = -q0/qdot0 is excluded; convergence there is not expected.  A
    negative ``eta``, or one that leaves no sample before or after the
    window, raises ``ValueError``.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    if not eta >= 0:
        raise ValueError(f"eta must be non-negative, got {eta}")
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
        before, after = tr.t <= t_star - eta, tr.t >= t_star + eta
        if not (before.any() and after.any()):
            raise ValueError(f"eta={eta} leaves no sample on one side of the impact "
                             f"time {t_star:.6g} at eps {tr.eps:g}")
        mask = before | after
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
