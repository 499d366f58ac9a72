"""The benchmark's outside-in tracer (``bench/tracer.py``) against the library.

The tracer rebinds names across every ``colombeau`` namespace, so it
runs in a child interpreter: nothing it patches reaches this process.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import sympy as sp
from tracer import Tracer

tracer = Tracer()
tracer.install()
from colombeau import gfunc, smooth

x = sp.Symbol("x")
leaf = smooth.from_sympy(sp.sin(x) ** 2, [x])
value = gfunc.integrate_box(leaf, ((0.0, 1.0),), eps_hint=0.1)
print(value, tracer.counts["gfunc.quad_points"], tracer.counts["smooth.leaf_calls"])
"""


def test_tracer_counts_a_traced_leaf_integral():
    """The traced integrand is a SmoothFn rebuilt from the integrand's
    fields: quadrature points and leaf calls are both counted."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    value, quad_points, leaf_calls = proc.stdout.split()
    assert math.isclose(float(value), 0.5 - math.sin(2.0) / 4.0, rel_tol=1e-13)
    assert int(quad_points) > 0
    assert int(leaf_calls) > 0
