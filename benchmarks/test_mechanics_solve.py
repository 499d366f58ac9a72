"""pytest-benchmark: the delta-barrier oscillator of ``colombeau run mechanics``.

    PYTHONPATH=src pytest benchmarks/

Outside the tier-1 suite (``testpaths = ["tests"]``).  One round is
``mechanics.solve_singular_oscillator`` at the catalog's five eps
(``experiments.MECHANICS_EPS``) with the catalog's system: the particle
starts at q = 1 with velocity -1 and reflects off the normalized bump
barrier.  Each eps integrates the barrier's in, climb and out segments
with the in-library Dormand-Prince stepper and samples 2001 dense-output
points.  The delta net's lambdified derivative is warm after the first
round.
"""

import pytest

from colombeau.experiments import MECHANICS_EPS
from colombeau.mechanics import HamiltonianSystem, StrictDeltaNet, solve_singular_oscillator


@pytest.fixture(scope="module")
def system():
    return HamiltonianSystem(StrictDeltaNet(), 1.0, -1.0)


def test_solve_singular_oscillator(benchmark, system):
    trajs = benchmark(solve_singular_oscillator, system, (0.0, 2.0), MECHANICS_EPS)
    assert [tr.n_segments for tr in trajs] == [3] * len(MECHANICS_EPS)
    assert all(tr.energy_drift < 100.0 * tr.ode_tol for tr in trajs)
