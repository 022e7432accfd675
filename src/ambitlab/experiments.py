"""Named experiments behind the CLI: build models from a Config, run the
module operation, and emit deterministic artifacts.

results.csv is long-format (experiment, quantity, x, value, stderr) with
%.12g floats; all Monte-Carlo work goes through the fixed-block ensemble
runner, so the bytes never depend on the worker count.  summary.json holds
the fitted exponents and verdicts plus the config hash and seed.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from . import __version__, ambit, besov, levy, noise, spde
from .montecarlo import DEFAULT_BLOCK, path_rng, run_ensemble_blocks
from .operators import heat_operator, wave_operator

__all__ = ["ExperimentResult", "REGISTRY", "run_experiment",
           "write_artifacts", "format_csv"]


@dataclass
class ExperimentResult:
    rows: list                       # (quantity, x, value, stderr|None)
    summary: dict
    flag: str = "ok"                 # "ok" | "inconclusive"
    logs: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# config -> model helpers
# ---------------------------------------------------------------------------


def _noise_model(cfg):
    n = cfg.sections["noise"]
    return noise.make_noise_model(n["kind"], n["d"], n["L"], n["m"],
                                  beta=n["beta"], ell=n["ell"])


def _operator(cfg):
    d = cfg.sections["noise"]["d"]
    kind = cfg.sections["spde"]["operator"]
    return heat_operator(d) if kind == "heat" else wave_operator(d)


def _spde_coeffs(cfg):
    s = cfg.sections["spde"]
    if s["coefficients"] == "constant":
        return spde.constant_coefficients(s["sigma0"], s["b0"])
    return spde.anderson_coefficients(s["anderson_lam"], s["b0"])


def _spde_step(cfg, model, lam):
    """dt honoring the CFL bound, adjusted to divide t exactly."""
    s = cfg.sections["spde"]
    t = s["t"]
    dt = s["dt"]
    if dt is None:
        dx = model.dx
        dt = 2.0 * dx * dx if lam.kind == "heat" else 0.5 * dx
    n_steps = max(1, int(math.ceil(t / dt - 1e-9)))
    return t / n_steps


def _levy_model(cfg):
    s = cfg.sections["levy"]
    return levy.make_levy_model(s["alpha"], s["c_plus"], s["c_minus"],
                                tau=s["tau"], normalize=s["normalize"])


def _ambit_kernel(a, which):
    kind = a[f"kernel_{which}"]
    if kind == "constant":
        return ambit.constant_kernel(a[f"value_{which}"])
    if kind == "power":
        return ambit.power_kernel(a[f"theta_{which}"], a[f"value_{which}"])
    return ambit.bump_kernel(a[f"width_{which}"], a[f"value_{which}"])


def _ambit_field(a, which):
    if a[f"{which}_field"] == "constant":
        return ambit.constant_field(a["sigma0" if which == "sigma" else "b0"])
    return ambit.weierstrass_field(a[f"{which}_base"], a[f"{which}_amp"],
                                   a[f"{which}_delta1"], a[f"{which}_delta2"])


def _ambit_spec(cfg):
    a = cfg.sections["ambit"]
    return ambit.make_ambit_spec(
        ambit_set=ambit.make_cone(a["c"], a["zeta"]),
        kernel_g=_ambit_kernel(a, "g"), kernel_h=_ambit_kernel(a, "h"),
        sigma=_ambit_field(a, "sigma"), b=_ambit_field(a, "b"), x0=a["x0"])


def _eps_grid(section):
    return np.geomspace(section["eps_min"], section["eps_max"],
                        section["eps_points"])


def _run(cfg):
    return cfg.sections["run"]


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _solver_logs(run, model, lam, n_steps, ensemble_s):
    """run.log lines of an ensemble of solve_batch blocks: its time and
    work, and the generator calls of each path (one per step)."""
    npts = model.m ** model.d
    return [f"ensemble_s={ensemble_s:.3f}", f"paths={run['n_paths']}",
            f"blocks={math.ceil(run['n_paths'] / DEFAULT_BLOCK)}",
            f"steps_x_modes={n_steps}x{npts}",
            f"calls_per_path={n_steps}",
            f"normals_per_call={spde.noises_per_step(lam) * npts}"]


def _exp_spde_exponents(cfg):
    model = _noise_model(cfg)
    lam = _operator(cfg)
    coeffs = _spde_coeffs(cfg)
    s = cfg.sections["spde"]
    run = _run(cfg)
    eps = _eps_grid(s)
    clock = time.perf_counter()
    ge = noise.exponent_gamma(model, lam, eps)
    gamma_s = time.perf_counter() - clock

    dt = _spde_step(cfg, model, lam)
    t = s["t"]
    t0 = round(t / (2.0 * dt)) * dt
    lags = [dt * 2 ** j for j in range(s["n_lags"])]
    lags = [lag for lag in lags if t0 + lag <= t + 1e-12]
    if len(lags) < 4:
        raise ValueError("fewer than 4 usable lags; increase t or shrink dt")

    def block(_idx, rngs):
        sol = spde.solve_batch(model, lam, coeffs, s["u0"], t, dt, rngs)
        return sol.point_series

    clock = time.perf_counter()
    series = run_ensemble_blocks(run["n_paths"], block,
                                 master_seed=run["seed"],
                                 stream="spde-exponents",
                                 workers=run["workers"])
    ensemble_s = time.perf_counter() - clock
    times = np.arange(series.shape[1]) * dt
    delta_fit = spde.time_holder_delta(series, times, t0, lags)
    report = spde.gammabar(ge, delta_fit)

    rows = []
    for e, g, z in zip(eps, ge.g_values, ge.zero_mode_values):
        rows.append(("variance_g", e, g, None))
        rows.append(("zero_mode_integral", e, z, None))
    i0 = int(round(t0 / dt))
    for lag in lags:
        d2 = (series[:, i0 + int(round(lag / dt))] - series[:, i0]) ** 2
        rows.append(("time_increment_msq", lag, float(d2.mean()),
                     float(d2.std(ddof=1) / math.sqrt(d2.shape[0]))))

    flags = [ge.gamma.flag, ge.gamma1.flag, ge.gamma2.flag, delta_fit.flag]
    summary = {
        "gamma": report.gamma, "gamma1": report.gamma1,
        "gamma2": report.gamma2, "delta": report.delta,
        "gammabar": report.gammabar, "verdict": report.verdict,
        "besov_order_interval": list(report.beta_interval),
        "fits": {"gamma": asdict(ge.gamma), "gamma1": asdict(ge.gamma1),
                 "gamma2": asdict(ge.gamma2),
                 "delta": asdict(delta_fit)},
        "operator": lam.kind, "dt": dt, "t": t,
    }
    flag = "ok" if all(f == "ok" for f in flags) else "inconclusive"
    logs = [f"exponent_gamma_s={gamma_s:.3f}"]
    logs += _solver_logs(run, model, lam, series.shape[1] - 1, ensemble_s)
    logs += [f"g_evaluations eps={e:.6g} calls={n}"
             for e, n in zip(eps, ge.evaluations)]
    return ExperimentResult(rows, summary, flag, logs)


def _exp_spde_density(cfg):
    model = _noise_model(cfg)
    lam = _operator(cfg)
    coeffs = _spde_coeffs(cfg)
    s = cfg.sections["spde"]
    run = _run(cfg)
    dt = _spde_step(cfg, model, lam)

    def block(_idx, rngs):
        sol = spde.solve_batch(model, lam, coeffs, s["u0"], s["t"], dt, rngs)
        return sol.final_point_values()[:, None]

    clock = time.perf_counter()
    values = run_ensemble_blocks(run["n_paths"], block,
                                 master_seed=run["seed"],
                                 stream="spde-density",
                                 workers=run["workers"])[:, 0]
    ensemble_s = time.perf_counter() - clock
    report = spde.density_criterion_experiment(values, coeffs, s["n"],
                                               alpha=s["holder"])
    logs = _solver_logs(run, model, lam, int(round(s["t"] / dt)), ensemble_s)
    return _criterion_result(report, logs, verdict=report.verdict, n=s["n"],
                             n_paths=run["n_paths"], operator=lam.kind)


def _exp_levy_check(cfg):
    model = _levy_model(cfg)
    s = cfg.sections["levy"]
    report = levy.verify_assumptions(model)
    lemma = levy.moment_lemma_check(model, s["gamma"])
    rows = []
    for a, integral, bound in zip(lemma.a_grid, lemma.integrals,
                                  lemma.bounds):
        rows.append(("moment_integral", a, integral, None))
        rows.append(("moment_bound", a, bound, None))
    c = report.constants
    summary = {
        "alpha": c.alpha, "c_sum": c.c_sum, "kappa": c.kappa,
        "C_bar": c.C_bar, "c_lower": c.c_lower,
        "tail_violation": report.tail_violation,
        "small_jump_violation": report.small_jump_violation,
        "cosine_violation": report.cosine_violation,
        "assumptions_passed": report.passed,
        "moment_lemma": {"gamma": lemma.gamma, "constant": lemma.constant,
                         "max_violation": lemma.max_violation,
                         "passed": lemma.passed},
        "verdict": bool(report.passed and lemma.passed),
    }
    return ExperimentResult(rows, summary, "ok")


def _exp_ambit_exponents(cfg):
    spec = _ambit_spec(cfg)
    model = _levy_model(cfg)
    a = cfg.sections["ambit"]
    bundle = ambit.exponent_conditions(spec, model, _eps_grid(a),
                                       beta=a["beta"], gamma=a["gamma"],
                                       t=a["t"], x=a["x"])
    rows = []
    for name, vals in sorted(bundle.integrals.items()):
        for e, v in zip(bundle.eps_grid, vals):
            rows.append((f"slab_integral_{name}", e, v, None))
    fits = {"gamma0": bundle.gamma0, "gamma1": bundle.gamma1,
            "gamma2": bundle.gamma2, "gamma3": bundle.gamma3,
            "gamma4": bundle.gamma4}
    summary = {
        "exponents": {k: f.slope for k, f in fits.items()},
        "fits": {k: asdict(f) for k, f in fits.items()},
        "gammabar": bundle.gammabar, "verdict": bundle.verdict,
        "beta": bundle.beta, "gamma": bundle.gamma,
        "richardson_error": bundle.richardson_error,
    }
    present = [f for f in fits.values() if f.flag != "degenerate"]
    flag = "ok" if all(f.flag == "ok" for f in present) else "inconclusive"
    return ExperimentResult(rows, summary, flag)


def _exp_ambit_decay(cfg):
    spec = _ambit_spec(cfg)
    model = _levy_model(cfg)
    a = cfg.sections["ambit"]
    run = _run(cfg)
    beta = a["beta"]
    if beta is None:
        beta = ambit.default_beta_gamma(model.alpha)[0]
    report = ambit.error_decay(spec, model, a["t"], a["x"], beta,
                               _eps_grid(a), run["n_paths"],
                               master_seed=run["seed"], gamma=a["gamma"],
                               workers=run["workers"], nt=a["nt"],
                               nx=a["nx"])
    rows = [("gap_moment", e, m, s) for e, m, s in
            zip(report.eps_grid, report.means, report.stderrs)]
    summary = {
        "beta": report.beta, "gammabar": report.gammabar,
        "target_rate": report.target_rate, "slope": report.fit.slope,
        "fit": asdict(report.fit), "passed": report.passed,
        "flag": report.flag, "n_paths": run["n_paths"],
    }
    flag = "inconclusive" if report.flag == "inconclusive" else "ok"
    disc = report.discretization
    n_rows, n_cols = disc.shape
    logs = [f"tau={disc.tau:.6g}", f"cells={n_rows}x{n_cols}"]
    logs += [f"cut_row eps={e:.6g} row={disc.cut_row(e)}"
             for e in report.eps_grid]
    logs.append(f"jumps_per_path={report.jumps_per_path:.2f}")
    logs += [f"exponent_conditions_s="
             f"{report.seconds['exponent_conditions']:.3f}",
             f"ensemble_s={report.seconds['ensemble']:.3f}",
             f"paths={run['n_paths']}",
             f"blocks={math.ceil(run['n_paths'] / DEFAULT_BLOCK)}",
             f"paths_per_stack={ambit.PATHS_PER_STACK}"]
    return ExperimentResult(rows, summary, flag, logs)


def _exp_ambit_density(cfg):
    spec = _ambit_spec(cfg)
    model = _levy_model(cfg)
    a = cfg.sections["ambit"]
    run = _run(cfg)
    report = ambit.density_criterion_experiment(
        spec, model, a["t"], a["x"], a["n"], n_paths=run["n_paths"],
        master_seed=run["seed"], workers=run["workers"],
        holder_order=a["holder"], nt=a["nt"], nx=a["nx"])
    n_rows, n_cols = report.discretization.shape
    logs = [f"tau={report.discretization.tau:.6g}",
            f"cells={n_rows}x{n_cols}"]
    logs.append(f"jumps_per_draw={report.jumps_per_draw:.2f}")
    if report.chunks is not None:
        logs.append(f"chunks={report.chunks}")
    logs += [f"sampler_s={report.seconds['sampler']:.3f}",
             f"criterion_s={report.seconds['criterion']:.3f}"]
    return _criterion_result(report, logs, verdict=report.verdict, n=a["n"],
                             n_paths=run["n_paths"])


def _exp_besov_stat(cfg):
    run = _run(cfg)
    order = run["order"]
    scale = run["scale"]
    values = scale * path_rng(run["seed"], "besov-stat", 0).standard_normal(
        run["n_paths"])
    stats = besov.criterion_statistic(values, None, order,
                                      alpha=run["holder"])
    result = _criterion_result(besov.criterion_report(stats, run["holder"]),
                               [], order=order, scale=scale,
                               n_paths=run["n_paths"])
    for st in stats:
        k = st.frequency
        oracle = np.exp(-0.5 * (k * scale) ** 2) \
            * np.abs(2.0 * np.sin(k * st.h_values / 2.0)) ** order \
            / st.norm_constant
        result.rows.extend((f"oracle(k={k:g})", h, o, None)
                           for h, o in zip(st.h_values, oracle))
    return result


def _criterion_result(report, logs, **summary):
    """A density experiment's result from its criterion report: one row
    per frequency and h, the slopes, their minimum and the Hölder order
    beside `summary`.  The flag is ok when every frequency's fit is ok or
    degenerate: an exactly zero statistic is conclusive, since more paths
    cannot change it."""
    rows = [(f"stat(k={st.frequency:g})", h, v, e)
            for st in report.statistics for h, v, e in st.rows()]
    summary.update(slopes=report.slopes, min_slope=report.min_slope,
                   holder_order=report.holder_order)
    conclusive = all(st.fitted.flag in ("ok", "degenerate")
                     for st in report.statistics)
    return ExperimentResult(rows, summary,
                            "ok" if conclusive else "inconclusive", logs)


REGISTRY = {
    "spde-exponents": _exp_spde_exponents,
    "spde-density": _exp_spde_density,
    "levy-check": _exp_levy_check,
    "ambit-exponents": _exp_ambit_exponents,
    "ambit-decay": _exp_ambit_decay,
    "ambit-density": _exp_ambit_density,
    "besov-stat": _exp_besov_stat,
}


def run_experiment(cfg) -> ExperimentResult:
    return REGISTRY[cfg.experiment](cfg)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def _fmt(value):
    if value is None:
        return ""
    return "%.12g" % float(value)


def format_csv(experiment, rows) -> str:
    lines = ["experiment,quantity,x,value,stderr"]
    for quantity, x, value, stderr in rows:
        lines.append(",".join((experiment, quantity, _fmt(x), _fmt(value),
                               _fmt(stderr))))
    return "\n".join(lines) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_artifacts(outdir, cfg, result, elapsed) -> dict:
    """Write results.csv, summary.json and run.log; returns the summary."""
    run = _run(cfg)
    summary = {
        "experiment": cfg.experiment,
        "config_hash": cfg.digest,
        "seed": run["seed"],
        "flag": result.flag,
    }
    summary.update(_jsonable(result.summary))
    csv_text = format_csv(cfg.experiment, result.rows)
    with open(outdir / "results.csv", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(csv_text)
    with open(outdir / "summary.json", "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    log_lines = [
        f"experiment={cfg.experiment}",
        f"config={cfg.path}",
        f"config_hash={cfg.digest}",
        f"seed={run['seed']}",
        f"workers={run['workers']}",
        f"n_paths={run['n_paths']}",
        f"rows={len(result.rows)}",
        f"flag={result.flag}",
        f"python={platform.python_version()}",
        f"numpy={np.__version__}",
        f"scipy={scipy.__version__}",
        f"ambitlab={__version__}",
        f"elapsed_s={elapsed:.3f}",
    ] + list(result.logs)
    with open(outdir / "run.log", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(log_lines) + "\n")
    return summary
