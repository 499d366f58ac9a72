"""pytest-benchmark: where the time of a cold ``colombeau run classify`` goes.

    PYTHONPATH=src pytest benchmarks/test_cold_stages.py

Outside the tier-1 suite (``testpaths = ["tests"]``).  Each round runs
``colombeau run classify --seed 0`` in a fresh interpreter that reads the
wall clock at its first statement, after ``import colombeau.cli`` and
after ``main`` returns.  With the clock read around the child here, that
splits one cold run into four stages, whose medians over the rounds go
to ``extra_info``:

* ``startup_s``   from the spawn to the child's first statement;
* ``import_s``    ``import colombeau.cli``: numpy, sympy and the library,
                  compiled first when no bytecode is cached;
* ``work_s``      ``main``: the experiment and its output files;
* ``teardown_s``  from ``main``'s return to the child's exit.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import colombeau

# the wall clock is the one clock both processes read
_CHILD = """
import time
start = time.time()
import sys
import colombeau.cli
imported = time.time()
status = colombeau.cli.main(sys.argv[1:])
done = time.time()
print(start, imported, done, file=sys.stderr)
sys.exit(status)
"""


def cold_stages(argv, src) -> dict:
    """The four stages, in seconds, of ``colombeau *argv`` run cold against ``src``."""
    path = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src)] + path))
    spawn = time.time()
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    exited = time.time()
    assert proc.returncode == 0, proc.stderr[-2000:]
    start, imported, done = map(float, proc.stderr.split()[-3:])
    return {"startup_s": start - spawn, "import_s": imported - start,
            "work_s": done - imported, "teardown_s": exited - done}


def test_cold_classify_stages(benchmark, tmp_path):
    src = Path(colombeau.__file__).resolve().parents[1]
    out = tmp_path / "classify"
    rows = []

    def run():
        rows.append(cold_stages(["run", "classify", "--seed", "0", "--out", str(out)], src))

    benchmark.pedantic(run, rounds=5, iterations=1)
    for stage in rows[0]:
        benchmark.extra_info[stage] = statistics.median(row[stage] for row in rows)
    assert json.loads((out / "report.json").read_text())["pass"] is True
