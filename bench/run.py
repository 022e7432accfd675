"""ambitlab benchmark: seeded verdict workloads through `ambitlab.cli.run`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest

Run it from anywhere; it uses the package source in `src/` next to this
directory and writes only under `.bench_work/` there.  Every run of the
program is a fresh interpreter (child.py) that receives only generated config
overrides; the seed becomes `run.seed`.

Workloads are scaled-down copies of the acceptance runs, at 2 workers:

  spde-wave      spde-exponents, wave operator, white noise (d=1, L=8,
                 m=512), sigma=1, t=1 (128 steps), 512 paths.  Work is the
                 spectral solver plus the wave quadrature of exponent_gamma.
  ambit-decay    ambit-decay on a cone with power kernel theta=0.5,
                 Weierstrass volatility, alpha=1.2, beta=0.8, gamma=2, 6 eps
                 in [0.02, 0.4], nt=nx=48, 1024 paths.  Work is the per-path
                 Python coupling (make_path, approx_parts, 12 replays).
  ambit-density  ambit-density on a slab (c=1, zeta=0), constant kernel and
                 volatility, alpha=1.2, c+=c-=1/60, n=1, 400000 samples.
                 Work is one bulk Levy sampler call and the criterion
                 statistic; the ensemble runner is bypassed.

--trace 0 repeats the workload for --seconds (at least MIN_REPS runs) and
reports medians: wall_s (one cli.run call, config resolution to artifacts
written, package already imported), setup_s (`import ambitlab` plus
`config.load_config` in the fresh interpreter of each run) and peak_rss_mb
(peak resident memory of the run's process).  Runs that fail the
gate are the result's "failed" out of "attempted".

--trace 1 runs the workload untraced and traced at 2 workers, and traced at
1 worker for the ensemble workloads, and reports the per-layer metrics of
layer_metrics().  Spans go to .bench_work/<workload>/spans-*.json.

Correctness gate, applied to every run (a failed check is counted, never
skipped): exit code 0 (2, "inconclusive", fails too), the workload's verdict
(see the gate_* functions), and equal sha256 digests of results.csv and
summary.json across all runs of one invocation, which repeat one seed and,
with --trace 1, compare 1 and 2 workers.  The gate does not test that the
density criterion can reject a point mass at difference order n = 1: at
n >= 1 the statistic's slope in h is n for every law, so a Dirac mass is
accepted.  That is a known defect of the criterion; ambit-density runs the
positive case only, and the gate cannot tell a correct "yes" from that.

--selftest runs a small copy of each workload traced, checks that the gate
passes, that the runs call exactly the traced functions the workload should,
and that a run with a wrong verdict is counted as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

MIN_REPS = 3
HARD_LIMIT_S = 170.0       # a run must end within 180 s
WORKERS = 2


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------


def _num(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return float("nan")


def gate_spde_wave(s):
    """verdict true, gamma = 2 +- 0.05 and gamma2 = 3 +- 0.05."""
    bad = []
    if s.get("verdict") is not True:
        bad.append(f"verdict is {s.get('verdict')!r}")
    for key, want in (("gamma", 2.0), ("gamma2", 3.0)):
        got = _num(s.get(key))
        if not abs(got - want) <= 0.05:
            bad.append(f"{key} = {got}, want {want} +- 0.05")
    return bad


def gate_ambit_decay(s):
    """passed true and flag "ok"."""
    bad = []
    if s.get("passed") is not True:
        bad.append(f"passed is {s.get('passed')!r}")
    if s.get("flag") != "ok":
        bad.append(f"flag is {s.get('flag')!r}")
    return bad


def gate_ambit_density(s):
    """verdict true, all 5 frequency slopes above the Hoelder order."""
    bad = []
    if s.get("verdict") is not True:
        bad.append(f"verdict is {s.get('verdict')!r}")
    slopes = s.get("slopes") or {}
    holder = _num(s.get("holder_order"))
    if len(slopes) != 5:
        bad.append(f"{len(slopes)} frequency slopes, want 5")
    low = {k: v for k, v in slopes.items() if not _num(v) > holder}
    if low:
        bad.append(f"slopes not above {holder}: {low}")
    return bad


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

_ALWAYS = frozenset({"config.load_config", "experiments.run_experiment",
                     "experiments.write_artifacts"})
_ENSEMBLE = frozenset({"montecarlo.run_ensemble_blocks", "montecarlo.block",
                       "montecarlo.path_rng"})


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple     # the workload's config
    smoke: tuple         # added by --selftest to make it small
    wrong: tuple         # added by --selftest to make the verdict wrong
    gate: object
    calls: frozenset     # traced functions a run calls (all others: none)
    one_worker_baseline: bool

    def inputs(self, seed, *extra):
        return list(self.overrides) + [f"run.seed={seed}"] + list(extra)


WORKLOADS = {w.name: w for w in (
    Workload(
        "spde-wave",
        ("run.experiment=spde-exponents", "run.n_paths=512",
         "noise.kind=white", "noise.d=1", "noise.L=8", "noise.m=512",
         "spde.operator=wave", "spde.coefficients=constant",
         "spde.sigma0=1", "spde.b0=0", "spde.t=1.0"),
        ("noise.m=64", "spde.eps_points=4"),
        ("spde.operator=heat",),
        gate_spde_wave,
        _ALWAYS | _ENSEMBLE | {"noise.exponent_gamma", "spde.solve_batch"},
        True),
    Workload(
        "ambit-decay",
        ("run.experiment=ambit-decay", "run.n_paths=1024",
         "levy.alpha=1.2", "levy.c_plus=0.5", "levy.c_minus=0.5",
         "ambit.kernel_g=power", "ambit.theta_g=0.5",
         "ambit.sigma_field=weierstrass", "ambit.beta=0.8",
         "ambit.gamma=2.0", "ambit.eps_min=0.02", "ambit.eps_max=0.4",
         "ambit.eps_points=6", "ambit.nt=48", "ambit.nx=48"),
        ("run.n_paths=512", "ambit.eps_points=4", "ambit.nt=12",
         "ambit.nx=12"),
        ("ambit.sigma_field=constant",),
        gate_ambit_decay,
        _ALWAYS | _ENSEMBLE | {"levy.sample_integral", "levy.replay_integral",
                               "ambit.make_path", "ambit.approx_parts",
                               "ambit.exponent_conditions"},
        True),
    Workload(
        "ambit-density",
        ("run.experiment=ambit-density", "run.n_paths=400000",
         "ambit.c=1", "ambit.zeta=0", "ambit.kernel_g=constant",
         "ambit.sigma_field=constant", "levy.alpha=1.2",
         f"levy.c_plus={1 / 60!r}", f"levy.c_minus={1 / 60!r}",
         "ambit.n=1", "ambit.holder=0.5"),
        ("run.n_paths=20000", "ambit.nt=16", "ambit.nx=16"),
        ("ambit.value_g=0", "ambit.n=0"),
        gate_ambit_density,
        _ALWAYS | {"montecarlo.path_rng", "levy.sample_integral",
                   "besov.criterion_statistic"},
        False),
)}


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------


class Runner:
    """Starts child.py runs of one workload and judges each with the gate."""

    def __init__(self, workload, work, deadline):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.digests = None
        self.versions = {}
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        env.pop("AMBITLAB_WORKERS", None)
        self.env = env

    def child(self, overrides, workers=WORKERS, tag=None, traced=False):
        """One child run; None if it crashed or ran out of time.

        With tag None the child only sets up; otherwise the run is judged.
        """
        req = {"overrides": overrides, "workers": workers,
               "outdir": None, "spans": None}
        if tag is not None:
            out = self.work / tag
            out.mkdir(parents=True, exist_ok=True)
            req["outdir"] = str(out)
            if traced:
                req["spans"] = str(self.work / f"spans-{tag}.json")
        timeout = self.deadline - time.perf_counter()
        report = None
        if timeout > 0:
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "child.py"), json.dumps(req)],
                    capture_output=True, text=True, env=self.env,
                    timeout=timeout, check=False)
            except subprocess.TimeoutExpired:
                print(f"{tag}: timed out", file=sys.stderr)
            else:
                lines = proc.stdout.strip().splitlines()
                if proc.returncode == 0 and lines:
                    report = json.loads(lines[-1])
                    self.versions = report["versions"]
                else:
                    print(f"{tag}: child exited {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}", file=sys.stderr)
        if tag is not None:
            self._judge(tag, report)
        return report

    def _judge(self, tag, report):
        self.attempted += 1
        if report is None:
            bad = ["no report"]
        else:
            bad = []
            if report["exit_code"] != 0:
                bad.append(f"exit code {report['exit_code']}")
            if report["summary"] is None:
                bad.append("no summary.json")
            else:
                bad += self.workload.gate(report["summary"])
            if self.digests is None:
                self.digests = report["digests"]
            elif report["digests"] != self.digests:
                bad.append("results differ from the first run's")
        if bad:
            self.failed += 1
        line = {k: report[k] for k in ("wall_s", "setup_s", "peak_rss_mb")} \
            if report else {}
        print(f"{tag}: {'ok' if not bad else 'FAILED ' + '; '.join(bad)} "
              f"{json.dumps(line)}", flush=True)


def _dur(span):
    return span["end"] - span["start"]


def _totals(spans):
    """Per span name: calls, wall s, thread CPU s and summed attributes."""
    out = {}
    for sp in spans:
        e = out.setdefault(sp["name"], {"calls": 0, "s": 0.0, "cpu_s": 0.0})
        e["calls"] += 1
        e["s"] += _dur(sp)
        e["cpu_s"] += sp["cpu"]
        for k, v in sp.get("attrs", {}).items():
            e[k] = e.get(k, 0) + v
    return out


def _ratio(a, b):
    return a / b if b else 0.0


_EMPTY = {"calls": 0, "s": 0.0, "cpu_s": 0.0}


def layer_metrics(traced, untraced, one_worker=None):
    """Per-layer metrics of one traced 2-worker run.

    `untraced` is an untraced run of the same inputs (for the tracing
    overhead) and `one_worker` a traced 1-worker run, the base of
    thread_speedup, of block.wait_s.1worker and of coupling.ms_per_path.
    A layer the workload never calls reads 0.  None if the run never
    reached experiments.run_experiment.
    """
    spans = traced["spans"]
    rx = [sp for sp in spans if sp["name"] == "experiments.run_experiment"]
    if len(rx) != 1:
        return None
    rx = rx[0]
    t = _totals(spans)

    def get(name, key="s", totals=t):
        return totals.get(name, _EMPTY).get(key, 0)

    t1 = _totals(one_worker["spans"]) if one_worker else {}
    coupling = t1 if one_worker else t
    top = sum(_dur(sp) for sp in spans if sp["parent"] == rx["id"])
    block_s, block_cpu = get("montecarlo.block"), get("montecarlo.block",
                                                       "cpu_s")
    return {
        "config.load_config.s": (get("config.load_config"), "s"),
        "experiments.run_experiment.s": (_dur(rx), "s"),
        "experiments.write_artifacts.s": (get("experiments.write_artifacts"),
                                          "s"),
        "montecarlo.run_ensemble_blocks.s":
            (get("montecarlo.run_ensemble_blocks"), "s"),
        "montecarlo.block.cpu_s": (block_cpu, "s"),
        "montecarlo.block.wait_s": (block_s - block_cpu, "s"),
        "montecarlo.block.wait_s.1worker":
            (get("montecarlo.block", totals=t1)
             - get("montecarlo.block", "cpu_s", t1), "s"),
        "montecarlo.blocks": (get("montecarlo.block", "calls"), "count"),
        "montecarlo.path_rng.s": (get("montecarlo.path_rng"), "s"),
        "montecarlo.thread_speedup":
            (_ratio(get("montecarlo.run_ensemble_blocks", totals=t1),
                    get("montecarlo.run_ensemble_blocks")), "ratio"),
        "noise.exponent_gamma.s": (get("noise.exponent_gamma"), "s"),
        "spde.solve_batch.s": (get("spde.solve_batch"), "s"),
        "spde.solve_batch.cpu_s": (get("spde.solve_batch", "cpu_s"), "s"),
        "spde.path_step_modes":
            (get("spde.solve_batch", "path_step_modes"), "count"),
        "spde.path_step_modes_per_s":
            (_ratio(get("spde.solve_batch", "path_step_modes"),
                    get("spde.solve_batch", "cpu_s")), "1/s"),
        "levy.sample_integral.s": (get("levy.sample_integral"), "s"),
        "levy.draws": (get("levy.sample_integral", "draws"), "count"),
        "levy.jumps_per_path":
            (_ratio(get("levy.sample_integral", "jumps"),
                    get("levy.sample_integral", "draws")), "count"),
        "levy.cells": (_ratio(get("levy.sample_integral", "cells"),
                              get("levy.sample_integral", "calls")), "count"),
        "levy.replay_integral.s": (get("levy.replay_integral"), "s"),
        "levy.replay_integral.calls_per_path":
            (_ratio(get("levy.replay_integral", "calls"),
                    get("ambit.make_path", "calls")), "count"),
        "ambit.make_path.s": (get("ambit.make_path"), "s"),
        "ambit.approx_parts.s": (get("ambit.approx_parts"), "s"),
        "ambit.coupling.ms_per_path":
            (1e3 * _ratio(get("ambit.make_path", totals=coupling)
                          + get("ambit.approx_parts", totals=coupling),
                          get("ambit.make_path", "calls", coupling)), "ms"),
        "ambit.exponent_conditions.s": (get("ambit.exponent_conditions"),
                                        "s"),
        "besov.criterion_statistic.s": (get("besov.criterion_statistic"),
                                        "s"),
        "besov.criterion_statistic.evals":
            (get("besov.criterion_statistic", "evals"), "count"),
        "besov.criterion_statistic.evals_per_s":
            (_ratio(get("besov.criterion_statistic", "evals"),
                    get("besov.criterion_statistic")), "1/s"),
        "besov.fit_window_fraction":
            (_ratio(get("besov.criterion_statistic", "kept"),
                    get("besov.criterion_statistic", "points")), "share"),
        "trace.overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
        "trace.coverage": (_ratio(top, _dur(rx)), "share"),
    }


def _load_spans(runner, tag, report):
    if report is not None:
        with open(runner.work / f"spans-{tag}.json", encoding="utf-8") as fh:
            report.update(json.load(fh))
    return report


def traced_pass(runner, inputs):
    """Untraced and traced runs of one input set; per-layer metrics."""
    untraced = runner.child(inputs, tag="untraced")
    traced = _load_spans(runner, "traced-2w",
                         runner.child(inputs, tag="traced-2w", traced=True))
    one = None
    if runner.workload.one_worker_baseline:
        one = _load_spans(runner, "traced-1w",
                          runner.child(inputs, workers=1, tag="traced-1w",
                                       traced=True))
        if one is None:
            return None, traced
    if untraced is None or traced is None:
        return None, traced
    return layer_metrics(traced, untraced, one), traced


def measure(runner, inputs, seconds, trace):
    """Repeat runs for `seconds`; return {metric: (median value, unit)}."""
    start = time.perf_counter()
    durations, samples = [], []
    while True:
        t0 = time.perf_counter()
        if trace:
            layers, _ = traced_pass(runner, inputs)
            if layers is not None:
                samples.append(layers)
        else:
            report = runner.child(inputs, tag=f"rep{len(durations) + 1}")
            if report is not None:
                samples.append({"wall_s": (report["wall_s"], "s"),
                                "setup_s": (report["setup_s"], "s"),
                                "peak_rss_mb": (report["peak_rss_mb"],
                                                "MB")})
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds \
                and len(durations) >= (1 if trace else MIN_REPS):
            break
        if time.perf_counter() + max(durations) > runner.deadline:
            break
    if not samples:
        return None
    return {name: (statistics.median(s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}


# ---------------------------------------------------------------------------
# run facts, self-test, entry point
# ---------------------------------------------------------------------------


def run_facts(versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                                   "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
        except OSError:
            pass
        else:
            commit = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": commit, **versions}


def selftest():
    problems = []
    for wl in WORKLOADS.values():
        work = WORK / "selftest" / wl.name
        shutil.rmtree(work, ignore_errors=True)
        runner = Runner(wl, work, time.perf_counter() + HARD_LIMIT_S)
        layers, traced = traced_pass(runner, wl.inputs(1, *wl.smoke))
        if runner.failed or layers is None:
            problems.append(f"{wl.name}: smoke runs failed the gate")
            continue
        called = {name for name, e in _totals(traced["spans"]).items()
                  if e["calls"]}
        if called != wl.calls:
            problems.append(f"{wl.name}: traced calls {sorted(called)}, "
                            f"want {sorted(wl.calls)}")
        if layers["trace.coverage"][0] < 0.9:
            problems.append(f"{wl.name}: spans cover "
                            f"{layers['trace.coverage'][0]:.3f} of the run")
        wrong = Runner(wl, work / "wrong", runner.deadline)
        wrong.child(wl.inputs(1, *wl.smoke, *wl.wrong), tag="wrong")
        if wrong.failed != 1:
            problems.append(f"{wl.name}: a wrong verdict was not counted as "
                            f"a failed run")
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ambitlab" / "__init__.py").is_file():
        print(f"error: no ambitlab source under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")

    wl = WORKLOADS[args.workload]
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(wl, work, time.perf_counter() + HARD_LIMIT_S)
    inputs = wl.inputs(args.seed)
    metrics = measure(runner, inputs, args.seconds, bool(args.trace))
    if metrics is None:
        print("error: no run produced measurements", file=sys.stderr)
        return 1
    facts = run_facts(runner.versions)
    (work / "facts.json").write_text(json.dumps(facts, indent=2) + "\n")
    print(json.dumps({"facts": facts, "workload": wl.name, "seed": args.seed,
                      "trace": args.trace}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
