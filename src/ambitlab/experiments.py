"""Named experiments behind the CLI: build models from a Config, run the
module operation, and emit deterministic artifacts.

results.csv is long-format (experiment, quantity, x, value, stderr) with
%.12g floats.  The path ensembles run through the fixed-block ensemble
runner, the SPDE ones in blocks of spde.paths_per_block(model) paths;
ambit-density's bulk sampler and besov-stat draw from one path_rng stream
directly.  Either way the bytes never depend on the worker count.
summary.json holds the exponents, Monte-Carlo fits and verdicts plus the
config hash and seed; a non-finite number in it is null.
"""

from __future__ import annotations

import json
import math
import platform
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from . import __version__, ambit, besov, levy, noise, spde
from .montecarlo import DEFAULT_BLOCK, path_rng, run_ensemble_blocks

__all__ = ["ExperimentResult", "REGISTRY", "run_experiment",
           "write_artifacts", "format_csv"]


@dataclass
class ExperimentResult:
    rows: list                       # (quantity, x, value, stderr|None)
    summary: dict
    flag: str = "ok"                 # "ok" | "inconclusive" | "degenerate"
    logs: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# config -> model helpers
# ---------------------------------------------------------------------------


def _noise_model(cfg):
    n = cfg.sections["noise"]
    return noise.make_noise_model(n["kind"], n["d"], n["L"], n["m"],
                                  beta=n["beta"], ell=n["ell"])


def _spde_coeffs(cfg):
    s = cfg.sections["spde"]
    if s["coefficients"] == "constant":
        return spde.constant_coefficients(s["sigma0"], s["b0"])
    return spde.anderson_coefficients(s["anderson_lam"], s["b0"])


def _spde_step(cfg, model):
    """dt honoring the CFL bound, adjusted to divide t exactly."""
    s = cfg.sections["spde"]
    t = s["t"]
    dt = s["dt"]
    if dt is None:
        dx = model.dx
        dt = 2.0 * dx * dx if s["operator"] == "heat" else 0.5 * dx
    n_steps = max(1, int(math.ceil(t / dt - 1e-9)))
    return t / n_steps


def _levy_model(cfg):
    s = cfg.sections["levy"]
    return levy.make_levy_model(s["alpha"], s["c_plus"], s["c_minus"],
                                tau=s["tau"])


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


def _solver_logs(run, model, operator, coeffs, n_steps, ensemble_s):
    """run.log lines of an ensemble of solve_batch blocks: its time and
    work, and the generator calls of each path (one per step).  A
    constant-sigma solve works on S radius shells (a shells=S line), an
    Anderson one on the m**d grid points."""
    blocks = math.ceil(run["n_paths"] / spde.paths_per_block(model))
    logs = [f"ensemble_s={ensemble_s:.3f}", f"paths={run['n_paths']}",
            f"blocks={blocks}"]
    if coeffs.sigma_constant is None:
        modes = model.m ** model.d
    else:
        modes = spde.radius_shells(model)[1].size
        logs.append(f"shells={modes}")
    return logs + [f"steps_x_modes={n_steps}x{modes}",
                   f"calls_per_path={n_steps}",
                   f"normals_per_call={spde.noises_per_step(operator) * modes}"]


def _exp_spde_exponents(cfg):
    model = _noise_model(cfg)
    coeffs = _spde_coeffs(cfg)
    s = cfg.sections["spde"]
    operator = s["operator"]
    run = _run(cfg)
    eps = _eps_grid(s)
    clock = time.perf_counter()
    ge = noise.exponent_gamma(model, operator, eps)
    gamma_s = time.perf_counter() - clock

    dt = _spde_step(cfg, model)
    t = s["t"]
    t0 = round(t / (2.0 * dt)) * dt
    lags = [dt * 2 ** j for j in range(s["n_lags"])]
    lags = [lag for lag in lags if t0 + lag <= t + 1e-12]
    if len(lags) < 4:
        raise ValueError("fewer than 4 usable lags; increase t or shrink dt")

    def block(_idx, rngs):
        sol = spde.solve_batch(model, operator, coeffs, s["u0"], t, dt, rngs)
        return sol.point_series

    clock = time.perf_counter()
    series = run_ensemble_blocks(run["n_paths"], block,
                                 master_seed=run["seed"],
                                 stream="spde-exponents",
                                 workers=run["workers"],
                                 block_size=spde.paths_per_block(model))
    ensemble_s = time.perf_counter() - clock
    times = np.arange(series.shape[1]) * dt
    delta_fit, msq, msq_err = spde.time_holder_delta(series, times, t0, lags)
    report = spde.gammabar(ge, delta_fit)

    rows = []
    for e, g, z in zip(eps, ge.g_values, ge.zero_mode_values):
        rows.append(("variance_g", e, g, None))
        rows.append(("zero_mode_integral", e, z, None))
    rows += [("time_increment_msq", lag, m, err)
             for lag, m, err in zip(lags, msq, msq_err)]

    summary = {
        "gamma": report.gamma1, "gamma1": report.gamma1,
        "gamma2": report.gamma2, "delta": report.delta,
        "gammabar": report.gammabar, "verdict": report.verdict,
        "besov_order_interval": report.beta_interval,
        "fits": {"delta": asdict(delta_fit)},
        "operator": operator, "dt": dt, "t": t,
    }
    logs = [f"exponent_gamma_s={gamma_s:.3f}"]
    logs += _solver_logs(run, model, operator, coeffs, series.shape[1] - 1,
                         ensemble_s)
    if ge.evaluations is None:
        logs.append("variance_g=closed_form")
    else:
        logs += [f"g_evaluations eps={e:.6g} calls={n}"
                 for e, n in zip(eps, ge.evaluations)]
    return ExperimentResult(rows, summary, report.flag, logs)


def _exp_spde_density(cfg):
    model = _noise_model(cfg)
    coeffs = _spde_coeffs(cfg)
    s = cfg.sections["spde"]
    operator = s["operator"]
    run = _run(cfg)
    dt = _spde_step(cfg, model)

    def block(_idx, rngs):
        sol = spde.solve_batch(model, operator, coeffs, s["u0"], s["t"], dt,
                               rngs)
        return sol.final_point_values()[:, None]

    clock = time.perf_counter()
    values = run_ensemble_blocks(run["n_paths"], block,
                                 master_seed=run["seed"],
                                 stream="spde-density",
                                 workers=run["workers"],
                                 block_size=spde.paths_per_block(model))[:, 0]
    ensemble_s = time.perf_counter() - clock
    # the density of u(t, 0) on {sigma != 0}: weights |sigma(u)|^n
    weights = np.abs(coeffs.sigma_values(values)) ** s["n"]
    logs = _solver_logs(run, model, operator, coeffs,
                        int(round(s["t"] / dt)), ensemble_s)
    return _criterion_result(values, weights, s["n"], s["holder"], logs,
                             n=s["n"], n_paths=run["n_paths"],
                             operator=operator)


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
    bundle = report.exponents
    constants = levy.assumption_constants(model)
    # the theorem's hypotheses on this spec: the basis's constants, the
    # (H4) exponents and whether gammabar / gamma0 > 1 / alpha holds
    hypotheses = {name: getattr(bundle, name) for name in
                  ("beta", "gamma", "gamma0", "gamma1", "gamma2", "gamma3",
                   "gamma4", "gammabar")}
    hypotheses.update(kappa=constants.kappa, C_bar=constants.C_bar,
                      c_lower=constants.c_lower, hold=bundle.verdict)
    summary = {
        "beta": bundle.beta, "gammabar": bundle.gammabar,
        "target_rate": report.target_rate, "slope": report.fit.slope,
        "fit": asdict(report.fit), "passed": report.passed,
        "n_paths": run["n_paths"], "hypotheses": hypotheses,
    }
    disc = report.discretization
    n_rows, n_cols = disc.shape
    logs = [f"tau={disc.box_model.tau:.6g}", f"cells={n_rows}x{n_cols}"]
    logs += [f"cut_row eps={e:.6g} row={disc.cut_row(e)}"
             for e in report.eps_grid]
    logs.append(f"jumps_per_path={report.jumps_per_path:.2f}")
    logs += [f"exponent_conditions_s="
             f"{report.seconds['exponent_conditions']:.3f}",
             f"ensemble_s={report.seconds['ensemble']:.3f}",
             f"paths={run['n_paths']}",
             f"blocks={math.ceil(run['n_paths'] / DEFAULT_BLOCK)}",
             f"paths_per_stack={ambit.PATHS_PER_STACK}"]
    return ExperimentResult(rows, summary, report.flag, logs)


def _exp_ambit_density(cfg):
    spec = _ambit_spec(cfg)
    model = _levy_model(cfg)
    a = cfg.sections["ambit"]
    run = _run(cfg)
    sample = ambit.density_sample(spec, model, a["t"], a["x"], a["n"],
                                  run["n_paths"], master_seed=run["seed"],
                                  workers=run["workers"], nt=a["nt"],
                                  nx=a["nx"])
    n_rows, n_cols = sample.discretization.shape
    logs = [f"tau={sample.discretization.box_model.tau:.6g}",
            f"cells={n_rows}x{n_cols}"]
    logs.append(f"jumps_per_draw={sample.jumps_per_draw:.2f}")
    tally = sample.tally
    if tally is not None:
        chunk_s = tally["chunk_s"]
        # the most bytes one worker's reused uniform buffer held
        scratch = 8 * tally["uniforms_per_jump"] \
            * max(tally["buffer_jumps"], tally["max_chunk_jumps"])
        logs += [f"chunks={tally['chunks']}",
                 f"draws_per_chunk={tally['draws_per_chunk']}",
                 f"integrand={sample.integrand}",
                 f"uniforms_per_jump={tally['uniforms_per_jump']}",
                 f"max_chunk_jumps={tally['max_chunk_jumps']}",
                 f"scratch_bytes_per_worker={scratch}",
                 f"chunk_s_min={min(chunk_s):.4f}",
                 # not np.median, which would import numpy.ma in the run
                 f"chunk_s_median={statistics.median(chunk_s):.4f}",
                 f"chunk_s_max={max(chunk_s):.4f}"]
    logs.append(f"sampler_s={sample.sampler_s:.3f}")
    return _criterion_result(sample.values, sample.weights, a["n"],
                             a["holder"], logs, n=a["n"],
                             n_paths=run["n_paths"])


def _exp_besov_stat(cfg):
    run = _run(cfg)
    order = run["order"]
    scale = run["scale"]
    values = scale * path_rng(run["seed"], "besov-stat", 0).standard_normal(
        run["n_paths"])
    result = _criterion_result(values, None, order, run["holder"], [],
                               order=order, scale=scale,
                               n_paths=run["n_paths"])
    # a known law's statistic beside its oracle, not a verdict
    del result.summary["verdict"]
    h_grid = besov.default_h_grid()
    for k in besov.DEFAULT_FREQUENCIES:
        oracle = np.exp(-0.5 * (k * scale) ** 2) \
            * np.abs(2.0 * np.sin(k * h_grid / 2.0)) ** order \
            / besov.oscillatory_norm(k, run["holder"])
        result.rows.extend((f"oracle(k={k:g})", h, o, None)
                           for h, o in zip(h_grid, oracle))
    return result


def _criterion_result(values, weights, n, holder, logs, /, **summary):
    """A density experiment's result from besov.criterion_report on its
    weighted sample: one row per frequency and h, the verdict, slopes,
    their minimum and the Hölder order beside `summary`, the report's flag,
    and the criterion's wall time appended to `logs`."""
    clock = time.perf_counter()
    report = besov.criterion_report(values, weights, n, holder)
    logs.append(f"criterion_s={time.perf_counter() - clock:.3f}")
    rows = [(f"stat(k={st.frequency:g})", h, v, e)
            for st in report.statistics for h, v, e in st.rows()]
    summary.update(verdict=report.verdict, slopes=report.slopes,
                   min_slope=report.min_slope,
                   holder_order=report.holder_order)
    return ExperimentResult(rows, summary, report.flag, logs)


REGISTRY = {
    "spde-exponents": _exp_spde_exponents,
    "spde-density": _exp_spde_density,
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
        return f if math.isfinite(f) else None
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
        json.dump(summary, fh, sort_keys=True, indent=2, allow_nan=False)
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
