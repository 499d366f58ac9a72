"""Command line driver.

``colombeau run <experiment>`` executes one named experiment and writes
``report.json`` plus ``series/*.csv`` under the output directory; the
exit status is 0 when every in-suite check passed, 1 when some check
failed (the report is still written), and 2 for usage errors, which
never touch the filesystem.  ``colombeau list`` prints the catalog.

A JSON config file may carry the scientific knobs (experiment, k_min,
k_max, mollifier, m_max, seed, eps, tol); explicit flags override it.
The output location is a flag only.  For a fixed config and seed the
written report is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

from .experiments import ExperimentConfig, catalog_text, run_experiment

CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="colombeau",
        description="run reproducible experiments on generalized-function nets")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment; write report.json and series/")
    run.add_argument("experiment", nargs="?", default=None,
                     help="experiment name (see `colombeau list`)")
    run.add_argument("--experiment", dest="experiment_flag", default=None,
                     help="experiment name (overrides the positional and config file)")
    run.add_argument("--config", default=None,
                     help="JSON file of config knobs; explicit flags override it")
    run.add_argument("--grid", default=None, metavar="KMIN..KMAX",
                     help="dyadic eps grid exponents, e.g. 4..11")
    run.add_argument("--mollifier", default=None,
                     help="fourier (default) or gausspoly:M")
    run.add_argument("--mmax", type=int, default=None,
                     help="negligibility cutoff for order fits")
    run.add_argument("--seed", type=int, default=None,
                     help="seed for the randomized parts of an experiment")
    run.add_argument("--eps", default=None,
                     help="comma-separated eps list (mechanics only)")
    run.add_argument("--out", default=None,
                     help="output directory (default: ./<experiment>-report)")

    sub.add_parser("list", help="print the experiment catalog")
    return p


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _run(args) -> int:
    file_cfg = {}
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return _usage_error(f"cannot read config: {exc}")
        if not isinstance(file_cfg, dict):
            return _usage_error("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - CONFIG_KEYS)
        if unknown:
            return _usage_error(f"unknown config keys: {', '.join(unknown)}")

    experiment = (args.experiment_flag or args.experiment
                  or file_cfg.get("experiment"))
    if experiment is None:
        return _usage_error("no experiment named; pass a name, --experiment, "
                            "or a config file with an 'experiment' key")

    kwargs = {k: v for k, v in file_cfg.items() if k != "experiment"}
    if args.grid is not None:
        m = re.fullmatch(r"(\d+)\.\.(\d+)", args.grid)
        if not m:
            return _usage_error(f"grid must look like 4..11, got {args.grid!r}")
        kwargs["k_min"], kwargs["k_max"] = int(m.group(1)), int(m.group(2))
    if args.mollifier is not None:
        kwargs["mollifier"] = args.mollifier
    if args.mmax is not None:
        kwargs["m_max"] = args.mmax
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.eps is not None:
        try:
            kwargs["eps"] = [float(tok) for tok in args.eps.split(",") if tok]
        except ValueError:
            return _usage_error(f"eps must be comma-separated floats, got {args.eps!r}")

    try:
        cfg = ExperimentConfig(experiment, **kwargs)
    except (TypeError, ValueError) as exc:
        return _usage_error(str(exc))

    report, series = run_experiment(cfg)

    out_dir = Path(args.out) if args.out is not None else Path(f"{experiment}-report")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n")
    series_dir = out_dir / "series"
    series_dir.mkdir(exist_ok=True)
    for stem in sorted(series):
        (series_dir / f"{stem}.csv").write_text(series[stem])

    for c in report["checks"]:
        mark = "ok" if c["ok"] else "FAIL"
        print(f"  [{mark:^4}] {c['name']}")
    status = "PASS" if report["pass"] else "FAIL"
    print(f"{experiment}: {status}  ({out_dir / 'report.json'})")
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command == "list":
        sys.stdout.write(catalog_text())
        return 0
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
