"""``colombeau`` with the host's speed sampled, and optionally traced.

    PYTHONPATH=src python3 bench/cli_child.py [--trace] run <experiment> ... --out DIR
    PYTHONPATH=src python3 bench/cli_child.py --import MODULE --out DIR

Stands in for the ``colombeau`` command in the cli-cold passes, and for
a fresh interpreter importing ``MODULE`` in the set-up of every
workload.  A ``calib.Sampler`` runs a calibration unit every 0.1 s from
the start of the library import to the end; their times, and the time
they took, go to ``DIR/bench_host.json``.  With ``--trace`` the
outside-in tracer is installed after the import, and the additive
per-layer figures and the experiment's run time go to
``DIR/bench_trace.json``, the spans to ``DIR/bench_spans.npz``.
"""

import importlib
import json
import sys
from pathlib import Path


def main(argv) -> int:
    mode = argv[0] if argv[:1] in (["--trace"], ["--import"]) else None
    if mode is not None:
        argv = argv[1:]
    trace = mode == "--trace"
    out = Path(argv[argv.index("--out") + 1])
    import calib

    sampler = calib.Sampler()
    sampler.start()
    try:
        if mode == "--import":
            importlib.import_module(argv[0])
            return 0
        import colombeau.cli

        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        status = colombeau.cli.main(argv)
    finally:
        host = sampler.stop()
        out.mkdir(parents=True, exist_ok=True)
        (out / "bench_host.json").write_text(json.dumps(host))
    if trace:
        import numpy as np

        import layers

        figures = layers.raw(tracer)
        figures["experiments.run_s"] = tracer.outer_time({"experiments.run_experiment"})
        (out / "bench_trace.json").write_text(json.dumps(figures))
        np.savez_compressed(out / "bench_spans.npz", **tracer.span_arrays())
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
