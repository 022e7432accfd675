"""Batch runner: `ambitlab run <config> [overrides...]`.

Exit codes: 0 success, 2 inconclusive (the verdict is null: a slope's CI
holds its threshold, see montecarlo.decide), 1 error (invalid config,
missing output directory, runtime failure).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import ConfigError, load_config
from .experiments import run_experiment, write_artifacts

__all__ = ["main", "run"]


def _parser():
    p = argparse.ArgumentParser(
        prog="ambitlab",
        description="Density-existence experiments for stochastic PDEs and "
                    "ambit fields")
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run one configured experiment")
    r.add_argument("config", nargs="?", default=None,
                   help="config file; may be omitted when --experiment and "
                        "overrides supply everything")
    r.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                   help="config overrides (section.key=value, or bare key "
                        "when unambiguous)")
    r.add_argument("--experiment", default=None,
                   help="shorthand for run.experiment=NAME")
    r.add_argument("--seed", type=int, default=None,
                   help="shorthand for run.seed=N")
    r.add_argument("--workers", type=int, default=None,
                   help="worker threads (falls back to run.workers)")
    r.add_argument("--outdir", default=None,
                   help="shorthand for run.outdir=DIR (must exist)")
    return p


def run(config_path, overrides=(), experiment=None, seed=None, workers=None,
        outdir=None) -> int:
    """Programmatic equivalent of `ambitlab run`; returns the exit code."""
    extra = list(overrides)
    if experiment is not None:
        extra.append(f"run.experiment={experiment}")
    if seed is not None:
        extra.append(f"run.seed={seed}")
    if workers is not None:
        extra.append(f"run.workers={workers}")
    if outdir is not None:
        extra.append(f"run.outdir={outdir}")

    try:
        cfg = load_config(config_path, extra)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = Path(cfg.get("run", "outdir"))
    if not out.is_dir():
        print(f"error: output directory {out} does not exist", file=sys.stderr)
        return 1

    start = time.perf_counter()
    try:
        result = run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - boundary turns errors to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = write_artifacts(out, cfg, result, time.perf_counter() - start)

    bits = [f"experiment={cfg.experiment}", f"flag={result.flag}"]
    # most experiments give a verdict; ambit-decay passes or fails
    for key in ("verdict", "passed"):
        if summary.get(key) is not None:
            bits.append(f"{key}={summary[key]}")
    bits.append(f"outdir={out}")
    print("  ".join(bits))
    return 2 if result.flag == "inconclusive" else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.config is not None and "=" in args.config \
            and not Path(args.config).exists():
        # `ambitlab run alpha=1 --experiment ...`: first positional is an
        # override, not a config path
        args.overrides.insert(0, args.config)
        args.config = None
    if args.config is None and args.experiment is None \
            and not any(o.startswith("run.experiment=") or
                        o.startswith("experiment=")
                        for o in args.overrides):
        print("error: no config file and no --experiment given",
              file=sys.stderr)
        return 1
    return run(args.config, args.overrides, experiment=args.experiment,
               seed=args.seed, workers=args.workers, outdir=args.outdir)


if __name__ == "__main__":
    sys.exit(main())
