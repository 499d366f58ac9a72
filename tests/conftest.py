"""Shared fixtures.

``cubic_line`` is a two-chart atlas on the real line whose transition
y = x^3 + x has a genuinely non-constant Jacobian, for exercising the
coordinate-change machinery beyond the shift-by-2pi built-ins.  The
inverse is closed form: x(y) = (2/sqrt(3)) sinh(asinh(3 sqrt(3) y / 2) / 3).
``scaled_line`` is a two-chart atlas on the real line, the second chart
in doubled units: its constant non-unit Jacobian exercises the slot
weights of the overlap residual, and its transitions, declared affine,
the Jacobian powers of ``gfunc.transport_net``.
"""

import math

import numpy as np
import pytest
import sympy as sp

from colombeau.manifold import Atlas, Chart, PartitionOfUnity, Transition
from colombeau.manifolds import Manifold
from colombeau.smooth import from_sympy, smoothstep_expr

_S3 = math.sqrt(3.0)


def cubic_forward(x):
    x = np.asarray(x, dtype=float)
    return x ** 3 + x


def cubic_inverse(y):
    y = np.asarray(y, dtype=float)
    return 2.0 / _S3 * np.sinh(np.arcsinh(1.5 * _S3 * y) / 3.0)


def build_cubic_line() -> Manifold:
    # points are plain x-values on R
    chart_u = Chart(
        name="U", dim=1,
        contains=lambda p: bool(abs(p) < 2.0),
        to_coords=lambda p: np.atleast_1d(float(p)),
        from_coords=lambda x: float(np.asarray(x).reshape(-1)[0]),
        sample_box=((-1.9, 1.9),),
    )
    chart_v = Chart(
        name="V", dim=1,
        contains=lambda p: True,
        to_coords=lambda p: np.atleast_1d(cubic_forward(float(p))),
        from_coords=lambda y: float(cubic_inverse(np.asarray(y).reshape(-1)[0])),
        sample_box=((-9.0, 9.0),),
    )

    def fwd(x):
        return cubic_forward(np.asarray(x, dtype=float))

    def fwd_jac(x):
        x = np.asarray(x, dtype=float)
        return (3.0 * x[:, 0] ** 2 + 1.0).reshape(-1, 1, 1)

    def inv(y):
        return cubic_inverse(np.asarray(y, dtype=float))

    def inv_jac(y):
        x = cubic_inverse(np.asarray(y, dtype=float))
        return (1.0 / (3.0 * x[:, 0] ** 2 + 1.0)).reshape(-1, 1, 1)

    transitions = {
        ("U", "V"): Transition(fwd, fwd_jac),
        ("V", "U"): Transition(inv, inv_jac),
    }
    overlap = {
        ("U", "V"): [((-1.8, 1.8),)],
        ("V", "U"): [((-7.6, 7.6),)],
    }
    atlas = Atlas("cubic_line", 1, {"U": chart_u, "V": chart_v}, transitions, overlap)

    x, y = sp.symbols("x y")
    x_of_y = 2 / sp.sqrt(3) * sp.sinh(sp.asinh(sp.Rational(3, 2) * sp.sqrt(3) * y) / 3)
    chi_u_x = smoothstep_expr((x + sp.Rational(3, 2)) / sp.Rational(3, 10)) * \
        smoothstep_expr((sp.Rational(3, 2) - x) / sp.Rational(3, 10))
    zeta_u_x = smoothstep_expr((x + sp.Rational(17, 10)) / sp.Rational(1, 5)) * \
        smoothstep_expr((sp.Rational(17, 10) - x) / sp.Rational(1, 5))
    chi = {
        "U": from_sympy(chi_u_x, [x], label="chi_U"),
        "V": from_sympy((1 - chi_u_x).subs(x, x_of_y), [y], label="chi_V"),
    }
    zeta = {
        "U": from_sympy(zeta_u_x, [x], label="zeta_U"),
        "V": from_sympy(sp.Integer(1), [y], label="zeta_V"),
    }
    supp = {
        "U": ((-1.5, 1.5),),
        "V": ((-9.0, 9.0),),
    }
    pou = PartitionOfUnity(atlas, chi, zeta, supp)
    return Manifold("cubic_line", atlas, pou, [])


@pytest.fixture(scope="session")
def cubic_line():
    return build_cubic_line()


@pytest.fixture(scope="session")
def scaled_line() -> Atlas:
    mk = lambda name, box: Chart(
        name=name, dim=1, contains=lambda p: True,
        to_coords=lambda p: np.atleast_1d(np.asarray(p, dtype=float)),
        from_coords=lambda x: np.atleast_1d(np.asarray(x, dtype=float)),
        sample_box=box)
    charts = {"L": mk("L", ((-1.0, 1.0),)), "S": mk("S", ((-2.0, 2.0),))}
    transitions = {
        ("L", "S"): Transition(
            fn=lambda x: 2.0 * np.asarray(x, dtype=float),
            jac=lambda x: np.full((len(x), 1, 1), 2.0), affine=True),
        ("S", "L"): Transition(
            fn=lambda x: 0.5 * np.asarray(x, dtype=float),
            jac=lambda x: np.full((len(x), 1, 1), 0.5), affine=True),
    }
    boxes = {("L", "S"): [((-1.0, 1.0),)], ("S", "L"): [((-2.0, 2.0),)]}
    return Atlas("scaled-line", 1, charts, transitions, boxes)
