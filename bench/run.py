"""Benchmark of the colombeau library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``workloads.py``):

* ``cli-cold``      every catalog experiment, plus embed-check with
                    gausspoly:3 on the grid 4..8, each run as
                    ``colombeau run <exp> --seed N`` in a fresh interpreter;
* ``coherence``     criterion-10 operation outputs on the circle and the
                    2-torus, from seeded random fields.

Together they reach every traced layer within the time budget of a full
round: cli-cold the mollifier, quadrature, embedding, mechanics and CLI
layers, coherence the leaf, lattice and tensor layers.

Both are closed loops with one client in one process (cli-cold: one
child at a time).  Set-up is repeated and its median reported: the
import, in a fresh interpreter, plus the fixtures the workload builds
once.  The timed part runs a fixed number of passes over the workload's
operations, derived from ``--seconds`` and the workload's nominal pass
time, and the operation latencies of all passes are pooled.

Every time that feeds an end-to-end metric is measured between blocks of
a fixed calibration unit and reported in nominal seconds, the measured
time divided by the host's speed at that moment (``calib.py``): on this
shared host the speed drifts by a third between runs, and a wall time
alone would measure the neighbours.  Child processes (the cli-cold runs
and the fresh-interpreter imports of the set-up) go through
``cli_child.py``, which samples the speed inside them.  ``wall_s`` is
the sum of a pass's nominal operation latencies.  The measured times
and the host speeds are in the context line.  Every operation's
discrete outcome is compared with ``reference.json`` and an untimed
mpmath oracle checks the frozen constants the workload uses.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
pass untraced, installs the outside-in tracer (``tracer.py``), builds
the fixtures again and runs one traced pass; it prints the per-layer
metrics and ``trace.overhead_s``, the traced pass's wall time minus the
untraced one's, and keeps the spans in ``.bench_out/``.

The next-to-last line of output is the run context (machine, versions,
source digest, seed); the last is the result object.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli-cold", "coherence")
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND operations above it."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def attempt(op):
    """Run one operation; a failed operation is counted, the run goes on."""
    try:
        return op.run(), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


class Runner:
    def __init__(self, args, workloads, oracle, calib):
        self.args = args
        self.wl_mod = workloads
        self.oracle = oracle
        self.reference = oracle.load_reference()
        self.expected = self.reference.get(args.workload, {})
        self.failures: list = []
        self.attempted = 0
        self.tracer = None
        self.host = calib.HostSpeed(self.make().CALIB_UNITS)
        # (measured seconds, index of the calibration block before)
        self.measured: dict[str, list] = {"import": [], "setup": [], "op": []}

    def make(self, trace=False):
        if self.args.workload == "cli-cold":
            return self.wl_mod.CliCold(SRC, OUT / "cli-cold", trace)
        return self.wl_mod.Coherence()

    def timed(self, kind, fn, inside=None):
        out, raw, i = self.host.timed(fn, inside)
        self.measured[kind].append((raw, i))
        return out

    def nominal(self, kind, part=slice(None)) -> list[float]:
        """The measured times of ``kind`` in nominal seconds (``calib.py``)."""
        return [self.host.nominal(raw, i) for raw, i in self.measured[kind][part]]

    def raw(self, kind) -> list[float]:
        return [raw for raw, _ in self.measured[kind]]

    def import_times(self, wl, repeats):
        """Import the workload's modules ``repeats`` times, each in a fresh
        interpreter as a user's process does."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        op = self.wl_mod.import_child(wl.IMPORTS, OUT / "import", env)
        for _ in range(repeats):
            self.timed("import", op.run, op.inside)

    def setup(self, wl, repeats):
        """Build the fixtures ``repeats`` times; return the last build."""
        from sympy.core.cache import clear_cache

        fx = None
        for _ in range(repeats):
            clear_cache()  # each build starts from sympy's cold state
            fx = self.timed("setup", lambda: wl.setup(self.args.seed))
        return fx

    def run_pass(self, wl, fx) -> slice:
        """One pass; return the slice of its operations in ``measured["op"]``."""
        start = len(self.measured["op"])
        for op in wl.ops(fx):
            if self.tracer is not None:
                self.tracer.op_key = op.key
            outcome, error = self.timed("op", lambda: attempt(op), op.inside)
            self.attempted += 1
            self.judge(op, outcome, error)
        return slice(start, len(self.measured["op"]))

    def wall(self, part: slice) -> float:
        """A pass's wall time: the sum of its operations' nominal latencies."""
        return sum(self.nominal("op", part))

    def judge(self, op, outcome, error):
        if error is None:
            outcome = self.oracle.canonical(outcome)
            if not outcome["ok"]:
                error = "in-suite check failed"
            elif self.expected.get(op.ref) != outcome:
                error = f"outcome {outcome} differs from reference {self.expected.get(op.ref)}"
        if error is not None:
            self.failures.append({"op": op.key, "error": error[:500]})

    def passes(self, wl, fx, count):
        """Run ``count`` passes; return each one's slice of operations."""
        return [self.run_pass(wl, fx) for _ in range(count)]

    def oracle_checks(self, wl):
        """Untimed checks of the frozen constants against mpmath."""
        checks = [self.oracle.check_bump()]
        if self.args.workload == "cli-cold":
            checks.append(self.oracle.check_product_demo_energy(wl.reports))
        return checks


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "colombeau").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def context(args, extra) -> dict:
    import numpy
    import scipy
    import sympy

    return {"context": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "sympy": sympy.__version__,
        "commit": git_commit(), "src_digest": source_digest(),
        "host_noise": "see bench/noise.json", **extra}}


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def trace_cli(runner, fx):
    """One traced pass of cli-cold: each child installs the tracer itself."""
    import layers

    files = [OUT / "cli-cold" / name / "bench_trace.json" for name in runner.wl_mod.CLI_RUNS]
    for f in files:
        f.unlink(missing_ok=True)
    wl = runner.make(trace=True)
    wall = runner.wall(runner.run_pass(wl, fx))
    total = {}
    metrics = {f"experiments.run_s.{name}": 0.0 for name in runner.wl_mod.CLI_RUNS}
    for name, f in zip(runner.wl_mod.CLI_RUNS, files):
        if not f.exists():  # the child failed; the failure is already counted
            continue
        part = json.loads(f.read_text())
        metrics[f"experiments.run_s.{name}"] = part.pop("experiments.run_s")
        total = layers.add(total, part)
    metrics.update(layers.finish(total))
    return wall, metrics


def trace_in_process(runner):
    import numpy as np
    from sympy.core.cache import clear_cache

    import layers
    import tracer as tracer_mod

    runner.tracer = tracer_mod.Tracer()
    runner.tracer.install(extra=[runner.wl_mod])
    clear_cache()
    wl = runner.make()
    fx = runner.setup(wl, 1)
    wall = runner.wall(runner.run_pass(wl, fx))
    metrics = layers.finish(layers.raw(runner.tracer))
    for name in runner.wl_mod.CLI_RUNS:
        metrics[f"experiments.run_s.{name}"] = 0.0
    OUT.mkdir(exist_ok=True)
    np.savez_compressed(OUT / f"spans-{runner.args.workload}-{runner.args.seed}.npz",
                        **runner.tracer.span_arrays())
    return wall, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "colombeau" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC / 'colombeau'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import calib
    import oracle
    import workloads

    import colombeau

    if not Path(colombeau.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: colombeau imported from {colombeau.__file__}", file=sys.stderr)
        return 2

    runner = Runner(args, workloads, oracle, calib)
    wl = runner.make()
    # a traced run needs one untraced pass to compare the traced one with
    n_passes = 1 if args.trace else max(1, round(args.seconds / wl.PASS_S))
    repeats = SETUP_REPEATS if args.trace == 0 else 1
    runner.import_times(wl, repeats)
    if wl.IN_PROCESS:
        runner.host.sample()
    fx = runner.setup(wl, repeats)
    walls = [runner.wall(part) for part in runner.passes(wl, fx, n_passes)]
    latencies = runner.nominal("op")
    op_tail, tail_pct = tail(latencies)
    checks = runner.oracle_checks(wl)

    speeds = [runner.host.speed(i) for i in range(len(runner.host.blocks) - 1)]
    extra = {"passes": n_passes, "setup_repeats": repeats,
             "import_times_s": runner.nominal("import"),
             "setup_times_s": runner.nominal("setup"), "pass_walls_s": walls,
             "measured_import_times_s": runner.raw("import"),
             "measured_setup_times_s": runner.raw("setup"),
             "measured_wall_s": sum(runner.raw("op")),
             "host_speed": {"min": min(speeds), "median": statistics.median(speeds),
                            "max": max(speeds), "blocks": len(runner.host.blocks)},
             "ops": len(latencies), "tail_percentile": tail_pct,
             "op_latencies_s": latencies, "oracle": checks}
    if args.trace == 0:
        setup_s = (statistics.median(runner.nominal("setup"))
                   + statistics.median(runner.nominal("import")))
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (op_tail, "s"),
            "success_ratio": (1.0 - len(runner.failures) / runner.attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
        }
    else:
        import layers

        # the traced pass runs on fresh fixtures, like the untraced one
        untraced = walls[0]
        if args.workload == "cli-cold":
            wall, raw = trace_cli(runner, fx)
        else:
            wall, raw = trace_in_process(runner)
        raw["trace.overhead_s"] = wall - untraced
        raw["cli.import_s"] = statistics.median(runner.nominal("import"))
        extra["traced_pass_wall_s"] = wall
        metrics = {k: (v, layers.unit(k)) for k, v in sorted(raw.items())}

    if runner.host.sampler is not None:
        runner.host.sampler.stop()
    extra["failures"] = runner.failures[:20]
    print(json.dumps(context(args, extra)))
    correct = not runner.failures and all(c["ok"] for c in checks)
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
