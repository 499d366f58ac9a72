"""Self-checks of the benchmark itself, run from the repository root.

    python3 bench/selftest.py counts  [--seed N] [WORKLOAD ...]
    python3 bench/selftest.py heldout [--seed N] [WORKLOAD ...]
    python3 bench/selftest.py spread  [--seeds K] [--first N] [WORKLOAD ...]

``counts`` makes two traced runs at one seed and requires the exact
counts (``layers.EXACT_COUNTS``) to repeat, and every per-layer metric
named in BENCHMARK.json to be reported.  ``heldout`` requires no failed
operation at a seed kept out of the benchmark's development.
``spread`` runs K seeds per workload and reports, per end-to-end metric,
the quartile spread (Q3 - Q1) / median next to the metric's bound; with
``--write`` it stores the figures per workload in ``bench/noise.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ROUND = [w["name"] for w in SPEC["workloads"]]
HELD_OUT_SEED = 48611


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[-2])["context"]
    return result


def counts(workloads, seed) -> bool:
    names = {m["name"] for m in SPEC["per_layer"]}
    ok = True
    for w in workloads:
        a, b = run(w, seed, 1), run(w, seed, 1)
        if set(a["metrics"]) != names:
            print(f"{w}: reported per-layer metrics differ from BENCHMARK.json: "
                  f"{sorted(set(a['metrics']) ^ names)}")
            ok = False
        for name in layers.EXACT_COUNTS:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            same = va == vb
            ok &= same
            print(f"{w:13s} {name:24s} {va:>12} {vb:>12} {'same' if same else 'DIFFERENT'}")
        for r in (a, b):
            if not r["correct"]:
                print(f"{w}: traced run not correct: {r['context']['failures']}")
                ok = False
    return ok


def heldout(workloads, seed) -> bool:
    ok = True
    for w in workloads:
        r = run(w, seed, 0)
        good = r["correct"] and r["failed"] == 0
        ok &= good
        print(f"{w:13s} seed {seed}: attempted {r['attempted']}, failed {r['failed']}, "
              f"correct {r['correct']}")
    return ok


def spread(workloads, seeds, write) -> bool:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    table, ok = {}, True
    for w in workloads:
        results = [run(w, s, 0) for s in seeds]
        ok &= all(r["correct"] for r in results)
        table[w] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            table[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                              "bound": bound, "values": values}
            flag = "" if share <= bound / 3 else "  WIDE"
            print(f"{w:13s} {name:14s} median {med:12.6g} spread {share:7.4f} "
                  f"bound {bound}{flag}  [{' '.join(f'{v:.4g}' for v in values)}]")
    if write:
        path = BENCH / "noise.json"
        noise = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
        r = results[-1]["context"]
        noise["host"] = {k: r[k] for k in ("nproc", "python", "numpy", "scipy", "sympy",
                                            "commit", "src_digest")}
        for w in table:
            noise["workloads"][w] = {"seeds": list(seeds), "metrics": table[w]}
        path.write_text(json.dumps(noise, indent=1) + "\n")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("check", choices=("counts", "heldout", "spread"))
    p.add_argument("workloads", nargs="*",
                   help="default: every workload in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first", type=int, default=1)
    p.add_argument("--write", action="store_true")
    args = p.parse_intermixed_args(argv)
    if args.check == "counts":
        ok = counts(args.workloads or ROUND, 0 if args.seed is None else args.seed)
    elif args.check == "heldout":
        ok = heldout(args.workloads or ROUND,
                     HELD_OUT_SEED if args.seed is None else args.seed)
    else:
        ok = spread(args.workloads or ROUND, range(args.first, args.first + args.seeds),
                    args.write)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
