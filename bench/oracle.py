"""Correctness oracles that do not share code with the library.

* Reference outcomes: ``reference.json`` holds, per workload, the
  discrete outcome of every operation kind, recorded at the commit that
  defined the benchmark.  An operation whose outcome differs counts as
  failed, so a wrong verdict is caught as well as an exception.
* Frozen constants recomputed with mpmath at 30 digits: the fourier
  kernel energy (integral of rho^2) by Parseval's identity instead of
  quadrature of the oscillating profile, checked against the kernel
  energy the product-demo experiment reports; and ``BUMP_NORMALIZATION``
  (the mass of exp(-1/(1-x^2)) on (-1, 1)), checked as the constant and
  as implied by the value of the mechanics module's delta net.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp
import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

ENERGY_RTOL = 1e-10
NORMALIZATION_RTOL = 1e-13


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def canonical(outcome) -> object:
    """JSON round trip, so tuples and lists compare equal."""
    return json.loads(json.dumps(outcome, sort_keys=True))


def fourier_energy(c: float, s: float) -> float:
    """Integral of rho^2 for rho(x) = sin(cx)/(pi x) exp(-s^2 x^2 / 2).

    rho's Fourier transform is the indicator of [-c, c] smoothed by a
    Gaussian of width s, (erf((w + c)/(s sqrt 2)) - erf((w - c)/(s sqrt 2))) / 2,
    and the energy is its squared L2 norm over 2 pi.
    """
    with mp.workdps(30):
        c, s = mp.mpf(c), mp.mpf(s)
        k = s * mp.sqrt(2)

        def hat(w):
            return (mp.erf((w + c) / k) - mp.erf((w - c) / k)) / 2

        tail = c + 40 * s
        val = mp.quad(lambda w: hat(w) ** 2, [-tail, -c, c, tail]) / (2 * mp.pi)
        return float(val)


def bump_normalization() -> float:
    with mp.workdps(30):
        return float(mp.quad(lambda x: mp.exp(-1 / (1 - x * x)), [-1, 0, 1]))


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


ENERGY_CHECK = "scaled_square_recovers_kernel_energy"


def check_product_demo_energy(reports: dict) -> dict:
    """The kernel energy in the product-demo report against Parseval."""
    from colombeau.mollifier import FOURIER_C, FOURIER_S

    checks = reports.get("product-demo", {}).get("checks", [])
    value = next((c.get("kernel_energy") for c in checks if c.get("name") == ENERGY_CHECK),
                 None)
    if value is None:
        return {"name": "kernel_energy", "ok": False,
                "error": f"product-demo reported no {ENERGY_CHECK} check"}
    want = fourier_energy(FOURIER_C, FOURIER_S)
    gap = rel_gap(value, want)
    return {"name": "kernel_energy", "ok": gap < ENERGY_RTOL, "value": value,
            "mpmath": want, "rel_gap": gap}


def check_bump() -> dict:
    """The delta net's value at 0 implies the normalization it divides by."""
    from colombeau.mechanics import BUMP_NORMALIZATION, StrictDeltaNet

    delta = StrictDeltaNet()
    want = bump_normalization()
    eps = 1e-3
    implied = float(np.exp(-1.0)) / (eps * float(delta.at(eps)(0.0)))
    gap = max(rel_gap(BUMP_NORMALIZATION, want), rel_gap(implied, want))
    return {"name": "bump_normalization", "ok": gap < NORMALIZATION_RTOL,
            "constant": BUMP_NORMALIZATION, "implied_by_net": implied,
            "mpmath": want, "rel_gap": gap}
