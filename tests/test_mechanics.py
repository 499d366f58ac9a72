"""Symplectic algebra, strict delta nets, and the reflected oscillator."""

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from colombeau.asymptotic import estimate_order
from colombeau.errors import (DimensionMismatch, InvalidSlots, NoImpact,
                              StiffnessFailure)
from colombeau.forms import exterior_d, insert
from colombeau.gfunc import GeneralizedFunction, sigma_embed
from colombeau.gnumber import GeneralizedNumber
from colombeau.grid import dyadic_grid
from colombeau.manifolds import euclidean
from colombeau.mechanics import (BUMP_NORMALIZATION, HamiltonianSystem,
                                 StrictDeltaNet, SymplecticForm, bump_profile, flat,
                                 hamiltonian_vf, poisson,
                                 reflection_limit_check, sharp,
                                 solve_singular_oscillator)
from colombeau.nets import Net, box_lattice
from colombeau.smooth import constant, coordinate, from_sympy
from colombeau.tensor import GeneralizedTensorField, bracket, field_apply, smooth_vector_field

X0, X1 = sp.symbols("x0 x1")

# normalized bump at the origin, frozen from a 60-digit quadrature
BUMP_PEAK = 0.8285688398691052


@pytest.fixture(scope="module")
def phase():
    return euclidean(2)


@pytest.fixture(scope="module")
def sf():
    return SymplecticForm(1)


def phase_gf(phase, expr, pert=None):
    """Generalized function on the (q, p) plane, optionally eps-dependent."""
    base = from_sympy(expr, (X0, X1))
    if pert is None:
        return sigma_embed(phase, {"0": base})
    p = from_sympy(pert, (X0, X1))
    return GeneralizedFunction(
        phase, {"0": Net(2, lambda e, b=base, q=p: b + q * float(e))})


def comp_vals(T, idx, eps, pts):
    return T.comps["0"][idx].at(eps)(pts)


GRID = dyadic_grid(4, 9)
PTS = box_lattice(((-3.0, 3.0), (-3.0, 3.0)), 7)


# -- strict delta nets ----------------------------------------------------


def test_bump_normalization_against_mpmath():
    # mass of exp(-1/(1-x^2)) on (-1, 1), recomputed at 30 digits
    with mp.workdps(30):
        want = mp.quad(lambda x: mp.exp(-1 / (1 - x * x)), [-1, 0, 1])
    assert BUMP_NORMALIZATION == pytest.approx(float(want), rel=1e-15)


def test_bump_profile_values():
    rho = bump_profile()
    assert abs(float(rho(0.0)) - BUMP_PEAK) < 1e-12
    xs = np.array([-1.5, -1.0, -0.995, 0.995, 1.0, 1.5])
    assert np.all(rho(xs) == 0.0)
    # even profile, odd derivative
    pair = rho(np.array([0.3, -0.3]))
    assert abs(pair[0] - pair[1]) < 1e-15
    d = rho.partial((1,), np.array([[0.3], [-0.3]]))
    assert abs(d[0] + d[1]) < 1e-12


def test_delta_certificates():
    delta = StrictDeltaNet()
    rep = delta.certify(GRID)
    assert rep["ok"] and rep["mass_ok"] and rep["scaling_exact"]
    assert rep["l1_bound"] < 1.0 + 1e-9
    for row, eps in zip(rep["rows"], GRID):
        assert row["support_radius"] == eps
        assert row["mass_err"] < 1e-10


def test_delta_generator_must_be_univariate():
    with pytest.raises(DimensionMismatch):
        StrictDeltaNet(generator=constant(1.0, 2))


def test_strict_delta_net_is_a_net():
    delta, xs = StrictDeltaNet(), np.linspace(-0.06, 0.06, 41)
    assert isinstance(delta, Net) and delta.label == "delta"
    for e in GRID:
        assert np.array_equal(delta.partial((1,)).at(e)(xs), delta.at(e).partial((1,), xs))
        assert np.array_equal((delta * 2.0).at(e)(xs), delta.at(e)(xs) * 2.0)
    assert delta.at(GRID[0]) is delta.at(GRID[0])  # the net caches each eps


# -- musical isomorphisms -------------------------------------------------


def test_symplectic_matrix_pair():
    for n in (1, 3):
        sf_n = SymplecticForm(n)
        m = sf_n.matrix
        assert np.array_equal(m @ -m, np.eye(2 * n))  # -m is the inverse
        assert np.array_equal(m.T, -m)
    with pytest.raises(DimensionMismatch):
        SymplecticForm(0)


def test_canonical_form_closed():
    space = euclidean(4)
    om = SymplecticForm(2).as_form(space)
    dom = exterior_d(om)
    pts = box_lattice(tuple((-2.0, 2.0) for _ in range(4)), 3)
    for key in dom.keys():
        assert np.all(dom.component("0", key).at(0.25)(pts) == 0.0)


def test_flat_sign_convention(phase, sf):
    # flat(d/dq) = +dp and sharp(dq) = -d/dp under omega = dq ^ dp
    dq_dir = smooth_vector_field(phase, {"0": [constant(1.0, 2), constant(0.0, 2)]})
    alpha = flat(dq_dir, sf)
    assert np.all(comp_vals(alpha, (0,), 0.5, PTS) == 0.0)
    assert np.all(comp_vals(alpha, (1,), 0.5, PTS) == 1.0)
    q_fn = sigma_embed(phase, {"0": coordinate(0, 2)})
    up = sharp(exterior_d(q_fn), sf)
    assert np.all(comp_vals(up, (0,), 0.5, PTS) == 0.0)
    assert np.all(comp_vals(up, (1,), 0.5, PTS) == -1.0)


def test_sharp_inverts_flat_bitwise(phase, sf):
    Xi = smooth_vector_field(
        phase, {"0": [from_sympy(X1 + X0**2, (X0, X1)),
                      from_sympy(sp.sin(X0) * X1, (X0, X1))]})
    rt = sharp(flat(Xi, sf), sf)
    for e in GRID:
        for i in range(2):
            assert np.array_equal(comp_vals(rt, (i,), e, PTS),
                                  comp_vals(Xi, (i,), e, PTS))


def test_flat_equals_interior_product(phase, sf):
    Xi = smooth_vector_field(
        phase, {"0": [from_sympy(X0 * X1, (X0, X1)),
                      from_sympy(X1**2 - X0, (X0, X1))]})
    alpha = flat(Xi, sf)
    beta = insert(sf.as_form(phase), Xi)
    for e in (GRID[0], GRID[-1]):
        for i in range(2):
            assert np.array_equal(comp_vals(alpha, (i,), e, PTS),
                                  comp_vals(beta, (i,), e, PTS))


def test_flat_pairing_limit(phase, sf):
    # eps-perturbed field: the lowered pairing converges to the classical one
    Xi_nets = {"0": np.array(
        [Net(2, lambda e: from_sympy(X1, (X0, X1)) * (1.0 + e)),
         Net(2, lambda e: from_sympy(-X0, (X0, X1)))], dtype=object)}
    Xi = GeneralizedTensorField(phase, (1, 0), Xi_nets)
    V = smooth_vector_field(phase, {"0": [constant(1.0, 2), constant(2.0, 2)]})
    pairing = flat(Xi, sf)(V)
    target = from_sympy(X0 + 2 * X1, (X0, X1))
    samples = [(e, float(np.max(np.abs(pairing.nets["0"].at(e)(PTS) - target(PTS)))))
               for e in GRID]
    fit = estimate_order(samples)
    assert fit.slope > 0.75


def test_dimension_guards(phase, sf):
    Xi = smooth_vector_field(phase, {"0": [constant(1.0, 2), constant(0.0, 2)]})
    with pytest.raises(DimensionMismatch):
        flat(Xi, SymplecticForm(2))
    with pytest.raises(DimensionMismatch):
        SymplecticForm(2).as_form(phase)
    with pytest.raises(InvalidSlots):
        sharp(Xi, sf)  # a vector field is not a one-form


# -- Hamiltonian fields and Poisson brackets ------------------------------


def test_hamiltonian_field_oscillator(phase, sf):
    H = phase_gf(phase, (X0**2 + X1**2) / 2)
    Xi = hamiltonian_vf(H, sf)
    assert np.array_equal(comp_vals(Xi, (0,), 0.5, PTS), PTS[:, 1])
    assert np.array_equal(comp_vals(Xi, (1,), 0.5, PTS), -PTS[:, 0])


def test_hamiltonian_field_constant(phase, sf):
    Xi = hamiltonian_vf(phase_gf(phase, sp.Integer(7) / 2), sf)
    for i in range(2):
        assert np.all(comp_vals(Xi, (i,), 0.25, PTS) == 0.0)


def test_hamiltonian_field_barrier_components(sf):
    sys = HamiltonianSystem(StrictDeltaNet())
    Xi = sys.vector_field()
    eps = float(GRID[2])
    qs = np.linspace(-2.0, 2.0, 41)
    pts = np.column_stack([qs, np.linspace(-1.0, 1.0, 41)])
    assert np.array_equal(Xi.comps["0"][(0,)].at(eps)(pts), pts[:, 1])
    dref = sys.delta.at(eps)._partial_fn((1,), qs[:, None])
    assert np.array_equal(Xi.comps["0"][(1,)].at(eps)(pts), -dref)


def test_poisson_canonical_pair(phase, sf):
    q_fn = sigma_embed(phase, {"0": coordinate(0, 2)})
    p_fn = sigma_embed(phase, {"0": coordinate(1, 2)})
    qp = poisson(q_fn, p_fn, sf)
    assert np.all(qp.nets["0"].at(0.5)(PTS) == 1.0)


def test_poisson_antisymmetry_bitwise(phase, sf):
    F = phase_gf(phase, X0**2 * X1 + sp.sin(X0), pert=X0 * X1)
    G = phase_gf(phase, X1**3 / 3 + sp.cos(X0) * X1, pert=X1**2 / 2)
    zero_ff = poisson(F, F, sf)
    anti = poisson(F, G, sf) + poisson(G, F, sf)
    for e in GRID:
        assert np.all(zero_ff.nets["0"].at(e)(PTS) == 0.0)
        assert np.all(anti.nets["0"].at(e)(PTS) == 0.0)


def test_poisson_lie_derivative_routes_bitwise(phase, sf):
    F = phase_gf(phase, X0**2 * X1 + sp.sin(X0), pert=X0 * X1)
    G = phase_gf(phase, X1**3 / 3 + sp.cos(X0) * X1, pert=X1**2 / 2)
    FG = poisson(F, G, sf)
    lg = field_apply(hamiltonian_vf(G, sf), F)
    nlf = -field_apply(hamiltonian_vf(F, sf), G)
    for e in GRID:
        ref = FG.nets["0"].at(e)(PTS)
        assert np.array_equal(ref, lg.nets["0"].at(e)(PTS))
        assert np.array_equal(ref, nlf.nets["0"].at(e)(PTS))


def test_poisson_bilinearity(phase, sf):
    F = phase_gf(phase, X0**2 * X1, pert=X0 * X1)
    G = phase_gf(phase, sp.cos(X0) * X1, pert=X1**2 / 2)
    H = phase_gf(phase, X0 * X1 + X0**3 / 6, pert=X0)
    lhs = poisson(2.0 * F + 3.0 * G, H, sf)
    rhs = 2.0 * poisson(F, H, sf) + 3.0 * poisson(G, H, sf)
    for e in GRID:
        gap = np.max(np.abs(lhs.nets["0"].at(e)(PTS) - rhs.nets["0"].at(e)(PTS)))
        assert gap < 1e-12


def test_poisson_jacobi(phase, sf):
    F = phase_gf(phase, X0**2 * X1 + sp.sin(X0), pert=X0 * X1)
    G = phase_gf(phase, X1**3 / 3 + sp.cos(X0) * X1, pert=X1**2 / 2)
    H = phase_gf(phase, X0 * X1 + X0**3 / 6, pert=X0)
    J = (poisson(F, poisson(G, H, sf), sf)
         + poisson(G, poisson(H, F, sf), sf)
         + poisson(H, poisson(F, G, sf), sf))
    worst = max(float(np.max(np.abs(J.nets["0"].at(e)(PTS)))) for e in GRID)
    assert worst < 1e-8


def test_hamiltonian_field_of_bracket(phase, sf):
    # Xi_{F,G} = -[Xi_F, Xi_G]; reassociation leaves a few ulp at scale ~160
    F = phase_gf(phase, X0**2 * X1 + sp.sin(X0), pert=X0 * X1)
    G = phase_gf(phase, X1**3 / 3 + sp.cos(X0) * X1, pert=X1**2 / 2)
    lhs = hamiltonian_vf(poisson(F, G, sf), sf)
    rhs = bracket(hamiltonian_vf(F, sf), hamiltonian_vf(G, sf))
    for e in GRID[:4]:
        for i in range(2):
            gap = np.max(np.abs(comp_vals(lhs, (i,), e, PTS)
                                + comp_vals(rhs, (i,), e, PTS)))
            assert gap < 1e-12


def test_hamiltonian_is_moderate():
    sys = HamiltonianSystem(StrictDeltaNet())
    H = sys.hamiltonian()
    pts = box_lattice(((-3.0, 3.0), (-3.0, 3.0)), 41)
    samples = [(e, float(np.max(np.abs(H.nets["0"].at(e)(pts))))) for e in GRID]
    fit = estimate_order(samples)
    assert fit.verdict == "moderate"
    assert abs(fit.slope + 1.0) < 0.1


# -- the singular oscillator ----------------------------------------------


def test_free_particle_linear():
    sys = HamiltonianSystem(None, 1.0, -1.0)
    tr = solve_singular_oscillator(sys, (0.0, 2.0), [0.05], n_samples=201)[0]
    assert tr.n_segments == 1
    assert float(np.max(np.abs(tr.q - (1.0 - tr.t)))) < 1e-12
    assert tr.energy_drift < 1e-13


def test_smooth_oscillator_closed_form():
    y = sp.Symbol("y")
    sys = HamiltonianSystem(None, 1.0, -1.0, potential=from_sympy(y**2 / 2, (y,)))
    tr = solve_singular_oscillator(sys, (0.0, 2.0), [0.05], n_samples=401)[0]
    ref = np.cos(tr.t) - np.sin(tr.t)
    assert float(np.max(np.abs(tr.q - ref))) < 1e-9
    assert tr.energy_drift < 100.0 * tr.ode_tol


def test_energy_is_read_from_the_hamiltonian_bit_for_bit():
    y = sp.Symbol("y")
    sys = HamiltonianSystem(StrictDeltaNet(), 1.0, -1.0,
                            potential=from_sympy(sp.cos(y) + y ** 2 / 3, (y,)))
    rng = np.random.default_rng(2)
    q, p = rng.uniform(-0.1, 0.1, 200), rng.normal(size=200)
    for eps in (0.1, 0.03):
        # the three terms written out: p^2/2, the background, the delta net
        want = 0.5 * p * p + sys.potential(q) + sys.delta.at(eps)(q)
        assert np.array_equal(sys.energy_values(eps, q, p), want)


def test_barrier_reflection():
    sys = HamiltonianSystem(StrictDeltaNet(), 1.0, -1.0)
    tr = solve_singular_oscillator(sys, (0.0, 2.0), [0.05], n_samples=801)[0]
    assert tr.n_segments == 3           # coast in, climb the barrier, coast out
    assert 0.0 < float(np.min(tr.q)) < 0.05
    assert abs(tr.p[-1] - 1.0) < 1e-6   # reflected: speed restored, sign flipped
    assert tr.energy_drift < 100.0 * tr.ode_tol
    assert np.array_equal(tr.energy, sys.energy_values(tr.eps, tr.q, tr.p))
    assert set(tr.summary()) == {"eps", "energy_drift", "ode_tol", "n_steps",
                                 "nfev", "n_segments"}


def test_start_inside_barrier():
    sys = HamiltonianSystem(StrictDeltaNet(), 0.0, 1.5)
    tr = solve_singular_oscillator(sys, (0.0, 2.0), [0.05], n_samples=401)[0]
    assert tr.n_segments == 2
    assert tr.q[-1] > 1.0               # launched off the barrier
    assert tr.energy_drift < 100.0 * tr.ode_tol


def test_reflection_limit_sweep():
    sys = HamiltonianSystem(StrictDeltaNet(), 1.0, -1.0)
    trs = solve_singular_oscillator(sys, (0.0, 2.0), [1e-1, 3e-2, 1e-2],
                                    n_samples=801)
    rep = reflection_limit_check(trs, 1.0, -1.0, eta=0.1)
    assert rep["t_star"] == 1.0
    assert rep["decreasing"]
    devs = [r["sup_deviation"] for r in rep["rows"]]
    assert devs[0] < 0.25 and devs[-1] < 0.05
    eps_order = [r["eps"] for r in rep["rows"]]
    assert eps_order == sorted(eps_order, reverse=True)


def test_generalized_initial_data_is_read_at_the_solves_eps():
    # a constant generalized q0 on a grid holding the solve's eps is the scalar q0
    q0 = GeneralizedNumber([0.1, 0.05, 0.025, 0.0125], [1.0] * 4, label="q0")
    scalar, gen = (solve_singular_oscillator(HamiltonianSystem(StrictDeltaNet(), q, -1.0),
                                             (0.0, 2.0), [0.05, 0.025], n_samples=201)
                   for q in (1.0, q0))
    for a, b in zip(scalar, gen):
        for name in ("eps", "t", "q", "p", "energy", "energy_drift", "n_steps", "nfev",
                     "n_segments"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    with pytest.raises(ValueError, match="not on the grid"):
        solve_singular_oscillator(HamiltonianSystem(StrictDeltaNet(), q0, -1.0),
                                  (0.0, 2.0), [0.03], n_samples=201)


@pytest.mark.parametrize("n_samples", [0, 1])
def test_too_few_samples_rejected(n_samples):
    sys = HamiltonianSystem(StrictDeltaNet(), 1.0, -1.0)
    with pytest.raises(ValueError, match="n_samples"):
        solve_singular_oscillator(sys, (0.0, 2.0), [0.1], n_samples=n_samples)


@pytest.mark.parametrize("eta", [-0.5, 5.0])
def test_reflection_window_must_leave_samples_on_both_sides(eta):
    sys = HamiltonianSystem(StrictDeltaNet(), 1.0, -1.0)
    trs = solve_singular_oscillator(sys, (0.0, 2.0), [0.1], n_samples=51)
    with pytest.raises(ValueError, match="eta"):
        reflection_limit_check(trs, 1.0, -1.0, eta=eta)


def test_no_impact():
    still = HamiltonianSystem(None, 1.0, 0.0)
    trs = solve_singular_oscillator(still, (0.0, 2.0), [0.05], n_samples=51)
    with pytest.raises(NoImpact):
        reflection_limit_check(trs, 1.0, 0.0)
    moving = HamiltonianSystem(StrictDeltaNet(), 1.0, -1.0)
    short = solve_singular_oscillator(moving, (0.0, 0.5), [0.05], n_samples=51)
    with pytest.raises(NoImpact):
        reflection_limit_check(short, 1.0, -1.0)


def test_stiffness_budget():
    sys = HamiltonianSystem(StrictDeltaNet(), 1.0, -1.0)
    with pytest.raises(StiffnessFailure):
        solve_singular_oscillator(sys, (0.0, 2.0), [1e-3], max_nfev=40)
    with pytest.raises(ValueError):
        solve_singular_oscillator(sys, (2.0, 0.0), [0.05])
    with pytest.raises(ValueError):
        solve_singular_oscillator(sys, (0.0, 2.0), [])


# -- the in-library Dormand-Prince stepper against scipy's solve_ivp --------

from colombeau import mechanics as M  # noqa: E402
from colombeau.experiments import MECHANICS_EPS  # noqa: E402

FP_EPS = np.finfo(float).eps


def _scipy_force(sys, eps):
    """The force through the SmoothFn closures of delta_eps, as scipy was fed it."""
    terms = []
    if sys.potential is not None:
        terms.append(lambda q: sys.potential._partial_fn((1,), np.array([[q]]))[0])
    if sys.delta is not None:
        dfn = sys.delta.at(eps)
        terms.append(lambda q: dfn._partial_fn((1,), np.array([[q]]))[0])
    if not terms:
        return lambda q: 0.0
    if len(terms) == 1:
        return lambda q: -float(terms[0](q))
    return lambda q: -float(sum(t(q) for t in terms))


def _scipy_segments(sys, eps, t_span=(0.0, 2.0), rtol=1e-10, atol=1e-12):
    """The solve_ivp route the stepper replaces: one RK45 run per barrier segment."""
    from scipy.integrate import solve_ivp

    def edge(level, direction):
        def ev(t, y):
            return y[0] - level
        ev.terminal, ev.direction = True, direction
        return ev

    force, radius = _scipy_force(sys, eps), sys.barrier_radius(eps)
    rhs = lambda t, y: (y[1], force(y[0]))
    t, t1 = float(t_span[0]), float(t_span[1])
    y = np.asarray(sys.initial_state(eps), dtype=float)
    segs = []
    while t < t1:
        events, max_step = None, np.inf
        if radius > 0.0:
            b = abs(y[0]) - radius
            inside = b < -1e-12 or (b <= 1e-12 and y[0] * y[1] < 0)
            if inside:
                events, max_step = [edge(radius, +1), edge(-radius, -1)], eps * eps
            else:
                events = [edge(radius, -1), edge(-radius, +1)]
        sol = solve_ivp(rhs, (t, t1), y, method="RK45", rtol=rtol, atol=atol,
                        dense_output=True, events=events, max_step=max_step)
        segs.append(sol)
        if sol.status == -1:
            break
        t, y = float(sol.t[-1]), sol.y[:, -1]
        if sol.status == 0:
            break
    return segs


def _scipy_samples(segs, ts):
    ends = np.array([float(s.t[-1]) for s in segs])
    idx = np.clip(np.searchsorted(ends, ts, side="left"), 0, len(segs) - 1)
    out = np.empty((2, len(ts)))
    for k, s in enumerate(segs):
        mask = idx == k
        if np.any(mask):
            out[:, mask] = s.sol(ts[mask])
    return out


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


_BUMP_V = HamiltonianSystem(StrictDeltaNet(), 1.0, -1.0,
                            potential=from_sympy(sp.Symbol("y") ** 2 / 2, (sp.Symbol("y"),)))
_STEPPER_CASES = (
    [pytest.param(HamiltonianSystem(StrictDeltaNet(), 1.0, -1.0), e, id=f"catalog-{e:g}")
     for e in MECHANICS_EPS]
    + [pytest.param(HamiltonianSystem(StrictDeltaNet(), 0.0, 1.5), 0.05, id="inside"),
       pytest.param(_BUMP_V, 0.03, id="background-potential"),
       pytest.param(HamiltonianSystem(None, 1.0, -1.0), 0.05, id="free")])


@pytest.mark.parametrize("sys, eps", _STEPPER_CASES)
def test_stepper_matches_solve_ivp_bitwise(sys, eps):
    ref = _scipy_segments(sys, eps)
    force = sys.force(eps)
    with np.errstate(all="ignore"):
        segs, nfev, n_steps = M._integrate_segments(
            lambda t, y: np.array((y[1], force(y[0]))), sys.initial_state(eps),
            (0.0, 2.0), eps, sys.barrier_radius(eps), 1e-10, 1e-12, 5_000_000)
    assert [s.status for s in ref][-1] == 0
    assert len(segs) == len(ref)
    assert nfev == sum(s.nfev for s in ref)
    assert n_steps == sum(len(s.t) - 1 for s in ref)
    for steps, sol in zip(segs, ref):
        assert _hex([s[0] for s in steps]) == _hex(sol.t)  # step ends, the segment end last
        assert _hex(np.array([s[1] for s in steps]).T) == _hex(sol.y)
    ts = np.linspace(0.0, 2.0, 2001)
    q, p = M._sample_segments(segs, ts)
    want = _scipy_samples(ref, ts)
    assert q.tobytes() == want[0].tobytes() and p.tobytes() == want[1].tobytes()
    # a time on a step end takes the step that ends there, as OdeSolution does
    ends = np.unique([s[0] for steps in segs for s in steps])
    assert np.array(M._sample_segments(segs, ends)).tobytes() == _scipy_samples(ref, ends).tobytes()
    tr = solve_singular_oscillator(sys, (0.0, 2.0), [eps])[0]
    assert (tr.nfev, tr.n_steps, tr.n_segments) == (nfev, n_steps, len(segs))
    assert tr.q.tobytes() == q.tobytes() and tr.p.tobytes() == p.tobytes()


def test_brent_port_matches_scipy_brentq_bitwise(monkeypatch):
    from scipy.optimize import brentq

    brackets, inner = [], M._brentq

    def record(f, a, b, **kw):
        brackets.append((f, a, b))
        return inner(f, a, b, **kw)

    monkeypatch.setattr(M, "_brentq", record)
    for sys, eps in ((HamiltonianSystem(StrictDeltaNet(), 1.0, -1.0), 1e-2),
                     (HamiltonianSystem(StrictDeltaNet(), 0.0, 1.5), 0.05)):
        solve_singular_oscillator(sys, (0.0, 2.0), [eps], n_samples=11)
    brackets += [(lambda x: x - 0.5, 0.5, 1.0), (lambda x: x - 0.5, 0.0, 0.5),  # exact roots
                 (lambda x: x ** 3 - 2.0, 0.0, 3.0), (lambda x: np.cos(x) - x, 0.0, 1.0),
                 (lambda x: np.exp(-1.0 / x) - 1e-3, 0.01, 2.0)]
    assert len(brackets) == 8  # three edge crossings, then the synthetic brackets
    for f, a, b in brackets:
        got = inner(f, a, b)
        assert float(got).hex() == float(brentq(f, a, b, xtol=4 * FP_EPS,
                                                rtol=4 * FP_EPS)).hex()
    with pytest.raises(ValueError):
        inner(lambda x: x + 1.0, 0.0, 1.0)


def test_stalled_step_raises_stiffness_failure():
    # V = (q - 0.9)^(3/2) pushes the particle to q < 0.9, where the force is
    # NaN; the step shrinks below ten spacings of t at the edge
    y = sp.Symbol("y")
    sys = HamiltonianSystem(None, 1.0, -1.0, potential=from_sympy((y - 0.9) ** 1.5, (y,)))
    (ref,) = _scipy_segments(sys, 0.05)
    assert ref.status == -1
    force = sys.force(0.05)
    with np.errstate(all="ignore"):
        steps, nfev, status = M._rk45(lambda t, y: np.array((y[1], force(y[0]))), 0.0,
                                      np.array([1.0, -1.0]), 2.0, 1e-10, 1e-12, np.inf, [])
    assert (status, nfev) == (-1, ref.nfev)
    assert _hex([s[0] for s in steps]) == _hex(ref.t)
    with pytest.raises(StiffnessFailure, match="stalled"):
        solve_singular_oscillator(sys, (0.0, 2.0), [0.05])


def test_nan_at_start_raises_instead_of_looping():
    # V = sqrt(q) at q0 = -1 gives a NaN force, hence a NaN first step,
    # which no comparison with the minimum step would stop
    y = sp.Symbol("y")
    sys = HamiltonianSystem(None, -1.0, 1.0, potential=from_sympy(sp.sqrt(y), (y,)))
    with pytest.raises(StiffnessFailure, match="stalled"):
        solve_singular_oscillator(sys, (0.0, 2.0), [0.05])
    for eps in (float("nan"), float("inf"), 0.0, -0.1):
        with pytest.raises(ValueError, match="finite and positive"):
            solve_singular_oscillator(HamiltonianSystem(StrictDeltaNet()), (0.0, 2.0), [eps])
