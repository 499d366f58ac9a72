"""Driver behavior: catalog, exit codes, files on disk, determinism."""

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import colombeau
from colombeau import cli
from colombeau.cli import main


@pytest.fixture(autouse=True)
def _unfreeze():
    """``main`` freezes the heap of the process it runs in; thaw pytest's after each test."""
    yield
    gc.unfreeze()


def _child_env() -> dict:
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(colombeau.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_list_catalog_stable(capsys):
    assert main(["list"]) == 0
    first = capsys.readouterr().out
    assert main(["list"]) == 0
    assert capsys.readouterr().out == first
    lines = first.strip().splitlines()
    assert len(lines) >= 8
    assert all("§" in ln for ln in lines)
    assert lines == sorted(lines)


def test_unknown_experiment_writes_nothing(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["run", "no-such-thing", "--out", str(out)]) == 2
    assert not out.exists()
    assert "unknown experiment" in capsys.readouterr().err


def test_malformed_flags_exit_two(tmp_path):
    out = str(tmp_path / "never")
    assert main(["run", "classify", "--grid", "banana", "--out", out]) == 2
    assert main(["run", "classify", "--grid", "9..4", "--out", out]) == 2
    for spec in ("gausspoly:x", "fourier:3", "gausspoly:", "gausspoly:0"):
        assert main(["run", "classify", "--mollifier", spec, "--out", out]) == 2, spec
    assert main(["run", "mechanics", "--eps", "0.1,zap", "--out", out]) == 2
    assert main(["run", "mechanics", "--eps", "nan", "--out", out]) == 2
    assert main(["run", "classify", "--eps", "0.1,0.2", "--out", out]) == 2  # mechanics only
    for name in ("classify", "poincare"):
        assert main(["run", name, "--seed", "-1", "--out", out]) == 2, name
    assert main(["run", "--out", out]) == 2  # no experiment named anywhere
    assert not (tmp_path / "never").exists()


def test_grid_past_the_bound_exits_two(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["run", "classify", "--grid", "4..21", "--out", str(out)]) == 2
    assert "at most 20" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "classify", "k_max": 21}')
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["run", "classify", "--grid", "4..20", "--out", str(tmp_path / "o")]) == 0


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "classify", "bogus": 1}')
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    cfg.write_text("[1, 2]")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("knob", ['"seed": "abc"', '"seed": 1.5', '"seed": true',
                                  '"seed": -1', '"k_min": 4.5', '"k_max": 9.0', '"m_max": 2.5',
                                  '"mollifier": 3', '"tol": true',
                                  # an infinite tolerance passes every check
                                  '"tol": Infinity', '"tol": 1e400'])
def test_config_rejects_mistyped_knobs(tmp_path, knob):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "classify", ' + knob + "}")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
def test_unusable_out_exits_two_before_the_run(tmp_path, monkeypatch, capsys, under_file):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "o" if under_file else taken

    def never(cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", never)
    assert main(["run", "classify", "--out", str(out)]) == 2
    assert f"error: cannot write to {out}: " in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


def test_series_holds_only_this_runs_csvs(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "classify", "--out", str(out)]) == 0
    (out / "series" / "notes.txt").write_text("mine\n")
    assert main(["run", "point-value-demo", "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "series").iterdir()) == ["notes.txt",
                                                                    "point_values.csv"]
    assert (out / "series" / "notes.txt").read_text() == "mine\n"


def test_run_writes_report_and_series(tmp_path, capsys):
    out = tmp_path / "classify"
    assert main(["run", "classify", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["experiment"] == "classify"
    assert report["anchor"] == "§2"
    assert all(c["ok"] for c in report["checks"])
    csv = (out / "series" / "classification.csv").read_text()
    assert csv.splitlines()[0] == "net,eps,sup"
    assert "PASS" in capsys.readouterr().out


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "classify", "--out", str(a)]) == 0
    assert main(["run", "classify", "--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


# sha256 prefixes of the shipped reports at --seed 0: the eight catalog runs
# at their defaults, and embed-check with gausspoly:3 on the grid 4..8.  A
# change that moves report bytes on purpose updates the pin here.
REPORT_DIGESTS = {
    "classify": "dc04689107929084",
    "embed-check": "713225e1ee49f304",
    "embed-check_gausspoly3": "c8fbfa0dfce5d78b",
    "mechanics": "ef81ff88b4e9f5b9",
    "poincare": "f927b30a6ee2e047",
    "point-value-demo": "220e0266b0a5f86b",
    "product-demo": "b8f02e5c3bcaae70",
    "pullback-demo": "1e9711b444227b2b",
    "stokes": "3ca6bfe5e66ae735",
}


def test_shipped_reports_keep_their_bytes(tmp_path):
    digests = {}
    for name in REPORT_DIGESTS:
        exp, _, variant = name.partition("_")
        flags = ["--mollifier", "gausspoly:3", "--grid", "4..8"] if variant else []
        out = tmp_path / name
        assert main(["run", exp, *flags, "--seed", "0", "--out", str(out)]) == 0, name
        digests[name] = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()[:16]
    assert digests == REPORT_DIGESTS, f"report digests now: {digests}"


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "classify", "k_max": 8, "seed": 3}')
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--grid", "4..9",
                 "--out", str(out)]) == 0
    echoed = json.loads((out / "report.json").read_text())["config"]
    assert echoed["k_max"] == 9      # flag wins
    assert echoed["seed"] == 3       # file value kept


def test_failing_check_exits_one_with_report(tmp_path, capsys):
    cfg = tmp_path / "tight.json"
    cfg.write_text('{"experiment": "pullback-demo", "tol": 1e-15}')
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    assert "FAIL" in capsys.readouterr().out


def test_stokes_passes_on_a_grid_whose_first_box_grid_exceeds_the_budget(tmp_path):
    """At 2^-6 the 8*eps grid of the 3-d bulk, 16^3 boxes, exceeds the point
    budget: that sweep starts at 2^-5 and halves down."""
    out = tmp_path / "stokes"
    assert main(["run", "stokes", "--grid", "6..9", "--out", str(out)]) == 0
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert all(c["ok"] for c in checks), checks


def test_mechanics_quick_run(tmp_path):
    out = tmp_path / "mech"
    assert main(["run", "mechanics", "--eps", "1e-2", "--grid", "4..7",
                 "--out", str(out)]) == 0
    csv = (out / "series" / "trajectory_eps1e-02.csv").read_text()
    assert csv.splitlines()[0] == "t,q,p,E"
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["eps"] == [0.01]


_COLD_RUN = """
import json
import math
import sys


class NoScipy:  # the import system of an install without scipy
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"No module named {name!r}")


sys.meta_path.insert(0, NoScipy())

import sympy as sp
import colombeau.cli
from colombeau.embed import heaviside
from colombeau.experiments import CATALOG
from colombeau.gfunc import default_densities
from colombeau.manifolds import euclidean
from colombeau.smooth import from_sympy

out = sys.argv[1]
assert len(CATALOG) == 8, sorted(CATALOG)
for name in CATALOG:
    assert colombeau.cli.main(["run", name, "--out", f"{out}/{name}"]) == 0, name
    with open(f"{out}/{name}/report.json") as f:
        assert json.load(f)["pass"] is True, name
assert [m for m in sys.modules if m.split(".")[0] == "scipy"] == []
assert math.isfinite(heaviside().action(default_densities(euclidean(1))[0].fn))
x = sp.Symbol("x")
try:
    from_sympy(sp.erf(x), [x])(0.5)
except ImportError as err:
    assert "colombeau[scipy]" in str(err), err
else:
    raise AssertionError("an erf leaf evaluated without scipy")
try:
    from_sympy(sp.Function("f")(x), [x])(0.5)
except NameError as err:
    assert err.name == "f" and "scipy" not in str(err), err
else:
    raise AssertionError("an undefined function evaluated")
"""


def test_cold_runs_load_no_scipy(tmp_path):
    """Every catalog experiment, and the regular-piece action, run where scipy cannot be
    imported; only a leaf naming a function numpy lacks asks for the scipy extra, and
    a leaf calling an undefined function names it instead."""
    env = _child_env()
    proc = subprocess.run([sys.executable, "-c", _COLD_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cold_stokes_run_loads_no_numpy_ma(tmp_path):
    """The convolution's panel keys are deduplicated without ``np.unique``,
    whose masked-array test imports ``numpy.ma`` (8-14 ms of a cold run)."""
    env = _child_env()
    code = ("import sys, colombeau.cli\n"
            "assert colombeau.cli.main(['run', 'stokes', '--out', sys.argv[1]]) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "stokes")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_piped_cold_run_prints_every_line(tmp_path):
    """A buffered stdout that is a pipe still gets every line of a run: the frozen heap
    does not keep the interpreter from flushing it at exit."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    out = tmp_path / "pv"
    proc = subprocess.run([sys.executable, "-m", "colombeau.cli", "run", "point-value-demo",
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert proc.stdout.splitlines() == [f"  [ ok ] {c['name']}" for c in report["checks"]] + [
        f"point-value-demo: PASS  ({out / 'report.json'})"]


# a run frees some frozen objects by reference counting, as it should (its
# argv, entries evicted from sympy's cache), so the count is read after `list`
_FREEZE = """
import gc
import colombeau.cli

argv = ["list"]
gc.collect()
tracked = len(gc.get_objects())
assert colombeau.cli.main(argv) == 0
frozen = gc.get_freeze_count()
assert frozen >= tracked, (frozen, tracked)
"""


def test_main_freezes_the_import_heap():
    proc = subprocess.run([sys.executable, "-c", _FREEZE], env=_child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


# runs its arguments as its one child and prints that child's peak RSS in KiB;
# one wrapper per measurement, since RUSAGE_CHILDREN is a maximum over children
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_stokes_run_peak_rss_stays_near_the_import_floor(tmp_path):
    """Embedding convolves in bounded blocks, so a run holds no large temporaries."""
    env = _child_env()

    def peak_mb(*argv):
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, sys.executable, *argv],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return int(proc.stdout) / 1024.0

    floor = peak_mb("-c", "import colombeau.cli")
    run = peak_mb("-m", "colombeau.cli", "run", "stokes", "--out", str(tmp_path / "stokes"))
    assert run - floor <= 24.0, (run, floor)
