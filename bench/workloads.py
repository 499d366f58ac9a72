"""The benchmark workloads.

Each workload turns the benchmark seed into library inputs, builds its
fixtures once in ``setup`` and lists a fixed set of operations for one
pass.  An operation returns its discrete outcome: a dict of flags,
verdict or status strings and fitted orders, with ``ok`` the in-suite
check.  ``ref`` names the reference entry an outcome is compared with;
it leaves out the seed, because these outcomes do not depend on it.

``PASS_S`` is the nominal wall time of one pass at the commit that
defined the benchmark; the runner derives the number of passes from it
and ``--seconds``, so the work in a run does not depend on how fast it
goes.  ``IMPORTS`` is the module a user's process imports before the
first operation, ``CALIB_UNITS`` the size of the calibration blocks
between operations and ``IN_PROCESS`` whether the operations run in the
benchmark's process, where a ``calib.Sampler`` then samples the host's
speed inside them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from colombeau import forms as F
from colombeau import tensor as T
from colombeau.gfunc import coherence_check
from colombeau.grid import dyadic_grid
from colombeau.manifolds import circle, torus2

GRID = dyadic_grid(4, 9)


@dataclass
class Op:
    key: str
    ref: str
    run: Callable[[], dict]
    # for an operation in a child process: the calibration units the child
    # sampled and the time they took (see calib.HostSpeed.timed)
    inside: Callable[[], tuple[list[float], float]] | None = None


CHILD = Path(__file__).with_name("cli_child.py")


def read_host(path: Path) -> tuple[list[float], float]:
    """The calibration units a child sampled, and the time they took."""
    if not path.is_file():  # the child died early; the blocks around it serve
        return [], 0.0
    host = json.loads(path.read_text())
    return host["units_s"], host["spent_s"]


def import_child(module: str, out: Path, env: dict) -> Op:
    """Import ``module`` in a fresh interpreter that samples the host's speed."""
    host = out / "bench_host.json"

    def run():
        host.unlink(missing_ok=True)
        subprocess.run([sys.executable, str(CHILD), "--import", module, "--out", str(out)],
                       env=env, check=True, timeout=120)

    return Op(f"import {module}", "", run, lambda: read_host(host))


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _verdicts(rep: dict) -> dict:
    return {"ok": bool(rep["coherent"]), "coherent": bool(rep["coherent"]),
            "verdicts": [r["verdict"] for r in rep["rows"]]}


# -- coherence -----------------------------------------------------------------


class Coherence:
    """Criterion-10 operation outputs on the circle and the 2-torus.

    Six circle seeds and three torus seeds, each checked once per pass:
    the median operation is a circle check and the tail one of the heavier
    torus checks.  Every check runs on fields it has not seen, because a
    check repeated on the same objects runs on warm per-net caches up to
    ten times faster, and a pool of cold and warm checks puts the median
    on the edge between the two.  The circle checks are spread evenly
    between the torus checks, so that the median samples the host's speed
    over the whole pass and not over the second or so the circle checks
    take together.
    """

    PASS_S = 34.0
    IMPORTS = "workloads"
    IN_PROCESS = True  # the checks run in this process; sample inside them
    CALIB_UNITS = 8  # ~10 ms of calibration between checks of 25 ms to 1.5 s
    MANIFOLDS = (circle,) * 6 + (torus2,) * 3

    def setup(self, seed: int) -> dict:
        seeds = _rng(seed, 1).integers(0, 2 ** 20, size=len(self.MANIFOLDS))
        fields = []
        for j, (build, s) in enumerate(zip(self.MANIFOLDS, seeds)):
            M, s = build(), int(s)
            U, V = T.random_coherent_functions(M, count=2, seed=s)
            f = {"M": M, "tag": j, "U": U, "V": V,
                 "Xi": T.random_tensor_field(M, (1, 0), seed=s + 50),
                 "Yi": T.random_tensor_field(M, (1, 0), seed=s + 75),
                 "Al": T.random_tensor_field(M, (0, 1), seed=s + 100),
                 "A1": F.random_kform(M, 1, seed=s + 125)}
            if M.atlas.dim >= 2:
                f["B1"] = F.random_kform(M, 1, seed=s + 150)
            fields.append(f)
        return {"fields": fields}

    def ops(self, fx: dict) -> list[Op]:
        by_manifold: dict[str, list[Op]] = {}
        for f in fx["fields"]:
            name = f["M"].name
            by_manifold.setdefault(name, []).extend(
                Op(f"{name}.{k}#{f['tag']}", f"{name}.{k}", fn)
                for k, fn in self._cases(f).items())
        # each manifold's checks in order, merged by their fraction of its list
        placed = [((i + 0.5) / len(ops), op)
                  for ops in by_manifold.values() for i, op in enumerate(ops)]
        return [op for _, op in sorted(placed, key=lambda t: t[0])]

    @staticmethod
    def _cases(f: dict) -> dict:
        n_lat = 31 if f["M"].atlas.dim == 1 else 9
        U, V, Xi, Yi, Al, A1 = (f[k] for k in ("U", "V", "Xi", "Yi", "Al", "A1"))

        def scalar(build):
            return lambda: _verdicts(coherence_check(build(), grid=GRID))

        def tensor(build):
            return lambda: _verdicts(T.coherence_check_tensor(
                build(), grid=GRID, n_samples=n_lat))

        def form(build):
            return lambda: _verdicts(F.coherence_check_form(
                build(), grid=GRID, n_samples=n_lat))

        cases = {
            "product": scalar(lambda: U * V),
            "field_apply": scalar(lambda: T.field_apply(Xi, U)),
            "contraction": scalar(lambda: T.contract(T.tensor_product(Xi, Al))),
            "tensor_product": tensor(lambda: T.tensor_product(Xi, Al)),
            "lie_derivative": tensor(lambda: T.gen_lie_derivative(Al, Xi)),
            "bracket": tensor(lambda: T.bracket(Xi, Yi)),
            "d_function": form(lambda: F.exterior_d(U)),
            "wedge_function": form(lambda: F.wedge(U, A1)),
            "insert": scalar(lambda: F.insert(A1, Xi)),
        }
        if "B1" in f:
            B1 = f["B1"]
            cases["wedge_forms"] = form(lambda: F.wedge(A1, B1))
            cases["d_form"] = form(lambda: F.exterior_d(A1))
            cases["lie_derivative_form"] = form(lambda: F.lie_derivative_form(A1, Xi))
        return cases


# -- cli-cold ------------------------------------------------------------------


CLI_RUNS = {
    "classify": ["classify"],
    "embed-check": ["embed-check"],
    "pullback-demo": ["pullback-demo"],
    "point-value-demo": ["point-value-demo"],
    "product-demo": ["product-demo"],
    "poincare": ["poincare"],
    "stokes": ["stokes"],
    "mechanics": ["mechanics"],
    "embed-check_gausspoly3": ["embed-check", "--mollifier", "gausspoly:3",
                               "--grid", "4..8"],
}

# report fields that are discrete outcomes, besides every boolean flag
_DISCRETE_KEYS = ("summary", "order", "status", "verdict")


def report_outcome(report: dict) -> dict:
    checks = {}
    for c in report["checks"]:
        checks[c["name"]] = {k: v for k, v in c.items()
                             if isinstance(v, bool) or k in _DISCRETE_KEYS}
    return {"ok": bool(report["pass"]), "pass": bool(report["pass"]), "checks": checks}


class CliCold:
    """Every catalog experiment through the CLI, one fresh interpreter each."""

    PASS_S = 45.0
    CALIB_UNITS = 8  # the runs sample the host's speed themselves

    def __init__(self, src: Path, out_dir: Path, trace: bool = False):
        self.out_dir = out_dir
        # the command that stands for `colombeau`: the CLI with the host's
        # speed sampled inside it, and traced in the traced pass
        self.child = [sys.executable, str(CHILD)]
        if trace:
            self.child.append("--trace")
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.reports: dict[str, dict] = {}

    IMPORTS = "colombeau.cli"  # the set-up a user waits for
    IN_PROCESS = False  # the runs sample inside themselves

    def setup(self, seed: int) -> dict:
        return {"seed": seed}

    def ops(self, fx: dict) -> list[Op]:
        return [Op(name, name, self._runner(name, args, fx["seed"]), self._inside(name))
                for name, args in CLI_RUNS.items()]

    def _inside(self, name: str):
        return lambda: read_host(self.out_dir / name / "bench_host.json")

    def _runner(self, name: str, args: list[str], seed: int):
        def run():
            out = self.out_dir / name
            # files left by an earlier run must not stand in for this one's
            (out / "report.json").unlink(missing_ok=True)
            (out / "bench_host.json").unlink(missing_ok=True)
            proc = subprocess.run(
                self.child + ["run"] + args + ["--seed", str(seed), "--out", str(out)],
                env=self.env, capture_output=True, text=True, timeout=170)
            if proc.returncode not in (0, 1):
                raise RuntimeError(f"{name}: exit {proc.returncode}: {proc.stderr[-400:]}")
            if not (out / "report.json").is_file():
                raise RuntimeError(f"{name}: exit {proc.returncode} without a report: "
                                   f"{proc.stderr[-400:]}")
            report = json.loads((out / "report.json").read_text())
            self.reports[name] = report
            return report_outcome(report)
        return run

