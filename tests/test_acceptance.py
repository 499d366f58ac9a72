"""End-to-end acceptance: one test per shipped guarantee.

Each test prints a single pass/fail line carrying the headline numbers
and enforces a wall-clock budget alongside the quantitative bars, so a
regression in either physics or performance turns the line red.
"""

import time

import mpmath as mp
import numpy as np
import pytest

from colombeau import forms as F
from colombeau import tensor as T
from colombeau.experiments import ExperimentConfig, run_experiment
from colombeau.gfunc import coherence_check
from colombeau.grid import dyadic_grid
from colombeau.manifolds import circle, euclidean, torus2
from colombeau.mollifier import FOURIER_C, FOURIER_S, build_mollifier
from colombeau.nets import box_lattice

pytestmark = pytest.mark.acceptance


def _line(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {text}")
    assert ok, f"criterion {num:02d}: {text}"


def _run(name, **kw):
    return run_experiment(ExperimentConfig(name, **kw))[0]


def test_criterion_01_mollifier_certificates():
    t0 = time.monotonic()
    certs = []
    for mol in (build_mollifier("fourier"), build_mollifier("gausspoly:4")):
        c = mol.certificates
        moments = [abs(c["moments"][k]) for k in range(1, mol.moment_order + 1)]
        certs.append((c["integral_error"], max(moments)))
    dt = time.monotonic() - t0
    worst_int = max(ci for ci, _ in certs)
    worst_mom = max(cm for _, cm in certs)
    ok = worst_int < 1e-8 and worst_mom < 1e-6 and dt < 5.0
    _line(1, ok, f"mollifier certificates: |integral-1| {worst_int:.2e} < 1e-8, "
                 f"max moment {worst_mom:.2e} < 1e-6, {dt:.1f}s < 5s")


def test_criterion_02_embedding_smoothness():
    t0 = time.monotonic()
    rep_f = _run("embed-check")                       # slope bar m_max - 0.25
    rep_g = _run("embed-check", mollifier="gausspoly:3", k_max=8)  # bar M + 0.75
    dt = time.monotonic() - t0
    slopes = {c["name"]: c["slope"] for c in rep_f["checks"]}
    ok = rep_f["pass"] and rep_g["pass"] and dt < 30.0
    _line(2, ok, f"embedding smoothness on line and circle: fourier slopes "
                 f"{slopes['line_sin_decay']:.2f}/{slopes['circle_sin_decay']:.2f} "
                 f">= 5.75, gausspoly(3) bar 3.75, {dt:.1f}s < 30s")


def _parseval_kernel_energy(c: float, s: float) -> float:
    """Integral of rho^2 for rho(x) = sin(cx)/(pi x) exp(-s^2 x^2 / 2), at 30 digits.

    The transform of rho is the indicator of [-c, c] convolved with a
    unit-mass Gaussian of width s, so by Parseval the energy is the
    integral of its square over 2 pi, free of rho's oscillations.
    """
    with mp.workdps(30):
        c, s = mp.mpf(c), mp.mpf(s)
        k = s * mp.sqrt(2)
        hat = lambda w: (mp.erf((w + c) / k) - mp.erf((w - c) / k)) / 2
        edge = c + 40 * s
        return float(mp.quad(lambda w: hat(w) ** 2, [-edge, -c, c, edge]) / (2 * mp.pi))


def test_criterion_03_delta_square_pairings():
    t0 = time.monotonic()
    rep = _run("product-demo")
    dt = time.monotonic() - t0
    sq, xd = rep["checks"]
    energy = _parseval_kernel_energy(FOURIER_C, FOURIER_S)
    assert sq["kernel_energy"] == pytest.approx(energy, rel=1e-10), \
        "reported kernel energy disagrees with the Parseval oracle"
    ok = rep["pass"] and dt < 30.0
    _line(3, ok, f"eps*delta^2 pairs to (kernel energy)*phi(0) within 1e-3 "
                 f"(worst {sq['max_residual']:.2e}) and x*delta to 0 "
                 f"(worst {xd['max_residual']:.2e}), {dt:.1f}s < 30s")


def test_criterion_04_pullback_commutator():
    t0 = time.monotonic()
    rep = _run("pullback-demo")
    dt = time.monotonic() - t0
    fit, assoc = rep["checks"]
    ok = rep["pass"] and abs(fit["slope"] + 1.0) <= 0.1 and dt < 30.0
    _line(4, ok, f"doubling commutator is moderate of order 1 "
                 f"(slope {fit['slope']:.3f} within 0.1 of -1) and associated "
                 f"to 0 (worst {assoc['max_residual']:.2e} < 1e-3), {dt:.1f}s < 30s")


def test_criterion_05_point_values():
    t0 = time.monotonic()
    rep = _run("point-value-demo", k_max=11)
    dt = time.monotonic() - t0
    cls, drift = rep["checks"]
    ok = rep["pass"] and dt < 10.0
    _line(5, ok, f"x*delta point values: negligible at 10 classical points "
                 f"(min slope {cls['min_slope']:.2f} >= 5.75), kernel value "
                 f"along eps->eps within 1e-3 (gap {drift['max_gap']:.2e}), "
                 f"{dt:.1f}s < 10s")


def test_criterion_06_exterior_identities():
    t0 = time.monotonic()
    space3 = euclidean(3)
    rng = np.random.default_rng(0)
    box = space3.atlas.charts["0"].sample_box
    pts = np.stack([rng.uniform(lo, hi, size=100) for lo, hi in box], axis=-1)
    eps_list = (2.0 ** -4, 2.0 ** -8, 2.0 ** -12)

    def form_sup(omega, eps):
        worst = 0.0
        for K in omega.keys():
            vals = omega.component("0", K).at(eps)._partial_fn((0, 0, 0), pts)
            worst = max(worst, float(np.max(np.abs(vals))))
        return worst

    worst = 0.0
    for seed in range(10):
        A = F.random_kform(space3, 1, seed=seed)
        B = F.random_kform(space3, 1, seed=100 + seed)
        w = F.random_kform(space3, 2, seed=200 + seed)
        Xi = T.random_tensor_field(space3, (1, 0), seed=300 + seed)
        dd = F.exterior_d(F.exterior_d(A))
        leib = F.exterior_d(F.wedge(A, B)) - F.wedge(F.exterior_d(A), B) \
            + F.wedge(A, F.exterior_d(B))
        cartan = F.lie_derivative_form(w, Xi) \
            - F.exterior_d(F.insert(w, Xi)) - F.insert(F.exterior_d(w), Xi)
        twice = F.insert(F.insert(w, Xi), Xi)
        for e in eps_list:
            worst = max(worst, form_sup(dd, e), form_sup(leib, e),
                        form_sup(cartan, e))
            tv = twice.nets["0"].at(e)._partial_fn((0, 0, 0), pts)
            worst = max(worst, float(np.max(np.abs(tv))))
    dt = time.monotonic() - t0
    ok = worst < 1e-10 and dt < 60.0
    _line(6, ok, f"d^2, graded Leibniz, Cartan, double insertion: max residual "
                 f"{worst:.2e} < 1e-10 over 10 seeds x 3 eps x 100 points, "
                 f"{dt:.1f}s < 60s")


def test_criterion_07_poincare_reconstruction():
    t0 = time.monotonic()
    rep = _run("poincare")
    dt = time.monotonic() - t0
    c = rep["checks"][0]
    ok = rep["pass"] and dt < 60.0
    _line(7, ok, f"d(H A) = A for 10 seeded closed polynomial 2-forms on the "
                 f"ball: sup residual {c['max_residual']:.2e} < 1e-7 per eps, "
                 f"{dt:.1f}s < 60s")


def test_criterion_08_stokes_reports():
    t0 = time.monotonic()
    rep = _run("stokes", k_max=11)
    dt = time.monotonic() - t0
    worst = max(c["max_rel_residual"] for c in rep["checks"])
    ok = rep["pass"] and dt < 60.0
    _line(8, ok, f"boundary theorem on interval (jump integrand), disk, box: "
                 f"max relative residual {worst:.2e} < 1e-6 per eps, {dt:.1f}s < 60s")


def test_criterion_09_singular_oscillator():
    t0 = time.monotonic()
    rep = _run("mechanics")
    dt = time.monotonic() - t0
    drift, limit, pois = rep["checks"]
    devs = [r["sup_deviation"] for r in limit["rows"]]
    ok = (rep["pass"] and drift["ok"] and limit["decreasing"]
          and devs[-1] < 0.05 and pois["antisymmetry_exact"]
          and pois["lie_routes_exact"] and pois["jacobi_max"] < 1e-8
          and pois["field_identity_max"] < 1e-12 and dt < 300.0)
    _line(9, ok, f"reflected oscillator: drift < 100x ode tol at 5 eps, "
                 f"deviation from |1-t| decreasing to {devs[-1]:.2e} < 0.05, "
                 f"Poisson suite (antisym exact, Jacobi {pois['jacobi_max']:.1e} "
                 f"< 1e-8, bracket field {pois['field_identity_max']:.1e}), "
                 f"{dt:.1f}s < 5min")


def test_criterion_10_operation_coherence():
    t0 = time.monotonic()
    grid = dyadic_grid(4, 9)
    worst_slope = np.inf
    n_checks = 0

    def take(rep):
        nonlocal worst_slope, n_checks
        assert rep["coherent"], rep["rows"]
        n_checks += 1
        for r in rep["rows"]:
            if np.isfinite(r["slope"]):
                worst_slope = min(worst_slope, r["slope"])

    for M in (circle(), torus2()):
        dim = M.atlas.dim
        for seed in range(5):
            U, V = T.random_coherent_functions(M, count=2, seed=seed)
            Xi = T.random_tensor_field(M, (1, 0), seed=seed + 50)
            Yi = T.random_tensor_field(M, (1, 0), seed=seed + 75)
            Al = T.random_tensor_field(M, (0, 1), seed=seed + 100)
            A1 = F.random_kform(M, 1, seed=seed + 125)

            take(coherence_check(U * V, grid=grid))
            take(coherence_check(T.field_apply(Xi, U), grid=grid))
            take(coherence_check(T.contract(T.tensor_product(Xi, Al)), grid=grid))
            n_lat = 31 if dim == 1 else 9
            take(T.coherence_check_tensor(T.tensor_product(Xi, Al),
                                          grid=grid, n_samples=n_lat))
            take(T.coherence_check_tensor(T.gen_lie_derivative(Al, Xi),
                                          grid=grid, n_samples=n_lat))
            take(T.coherence_check_tensor(T.bracket(Xi, Yi),
                                          grid=grid, n_samples=n_lat))
            take(F.coherence_check_form(F.exterior_d(U), grid=grid,
                                        n_samples=n_lat))
            take(F.coherence_check_form(F.wedge(U, A1), grid=grid,
                                        n_samples=n_lat))
            take(coherence_check(F.insert(A1, Xi), grid=grid))
            if dim >= 2:
                B1 = F.random_kform(M, 1, seed=seed + 150)
                take(F.coherence_check_form(F.wedge(A1, B1), grid=grid,
                                            n_samples=n_lat))
                take(F.coherence_check_form(F.exterior_d(A1), grid=grid,
                                            n_samples=n_lat))
                take(F.coherence_check_form(F.lie_derivative_form(A1, Xi),
                                            grid=grid, n_samples=n_lat))
    dt = time.monotonic() - t0
    ok = worst_slope >= 5.75 and dt < 30.0
    _line(10, ok, f"overlap coherence of {n_checks} operation outputs on the "
                  f"circle and the torus (5 seeds each): min fitted slope "
                  f"{worst_slope:.2f} >= 5.75, {dt:.1f}s < 30s")


def test_criterion_11_derivation_roundtrip():
    t0 = time.monotonic()
    s1 = circle()
    grid = dyadic_grid(4, 9)
    Xi0 = T.random_tensor_field(s1, (1, 0), seed=4)
    theta = lambda U: T.field_apply(Xi0, U)
    Xi = T.derivation_to_vector_field(theta, s1, grid=grid)

    exact = True
    for c in ("A", "B"):
        pts = box_lattice(s1.atlas.charts[c].sample_box, 101)
        for e in grid:
            got = Xi.comps[c][(0,)].at(e)._partial_fn((0,), pts)
            want = Xi0.comps[c][(0,)].at(e)._partial_fn((0,), pts)
            exact = exact and np.array_equal(got, want)

    probe = T.random_coherent_functions(s1, count=1, seed=77)[0]
    resid = theta(probe) - T.field_apply(Xi, probe)
    min_slope = np.inf
    for c in ("A", "B"):
        pts = box_lattice(s1.atlas.charts[c].sample_box, 101)
        samples = []
        for e in grid:
            vals = resid.nets[c].at(e)._partial_fn((0,), pts)
            samples.append((float(e), float(np.max(np.abs(vals)))))
        from colombeau.asymptotic import estimate_order
        fit = estimate_order(samples)
        if np.isfinite(fit.slope):
            min_slope = min(min_slope, fit.slope)
    dt = time.monotonic() - t0
    slope_txt = "all residuals at rounding floor" if not np.isfinite(min_slope) \
        else f"probe residual slope {min_slope:.2f} >= 5.75"
    ok = exact and (not np.isfinite(min_slope) or min_slope >= 5.75) and dt < 60.0
    _line(11, ok, f"derivation recovery: components match the source field "
                  f"bitwise per eps on both charts; {slope_txt}, {dt:.1f}s < 60s")
