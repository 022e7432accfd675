"""Config grammar, override resolution, artifact layout, exit codes."""

import json
import platform
import warnings

import numpy as np
import pytest
import scipy

import ambitlab
from ambitlab import ambit, cli, levy, spde
from ambitlab.besov import MAX_ORDER
from ambitlab.config import ConfigError, parse_config, resolve_config


GOOD = """\
# demo run
[run]
experiment = besov-stat
seed = 11

[levy]
alpha = 1.1
c_plus = 1.0
c_minus = 1.0
"""


def _load(text, overrides=(), path="demo.cfg"):
    return resolve_config(parse_config(text, path), path, overrides)


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_comments_sections_and_types():
    cfg = _load(GOOD)
    assert cfg.experiment == "besov-stat"
    assert cfg.get("run", "seed") == 11
    assert cfg.get("levy", "alpha") == 1.1
    # untouched sections are pure defaults
    assert cfg.get("noise", "kind") == "white"
    assert cfg.get("run", "workers") == 1


@pytest.mark.parametrize("text,loc,reason", [
    ("key = 1\n", ":1:", "outside any"),
    ("[run]\nexperiment besov-stat\n", ":2:", "expected 'key = value'"),
    ("[run]\n2bad = 1\n", ":2:", "malformed key"),
    ("[run]\nseed = 1\nseed = 2\n", ":3:", "duplicate"),
    ("[run]\nexperiment = besov-stat\nseed = -3\n", ":3:", "out of range"),
    ("[run]\nexperiment = besov-stat\nseed = two\n", ":3:", "expected int"),
    ("[run]\nexperiment = dance\n", ":2:", "must be one of"),
    ("[mystery]\nx = 1\n", ":2:", "unknown section"),
    ("[run]\nexperiment = besov-stat\nbogus = 1\n", ":3:", "unknown key"),
    # difference orders past besov.MAX_ORDER, which the criterion rejects
    ("[run]\nexperiment = besov-stat\norder = 21\n", ":3:",
     "[run] order: value '21' out of range"),
    ("[run]\nexperiment = spde-density\n[spde]\nn = 21\n", ":4:",
     "[spde] n: value '21' out of range"),
    ("[run]\nexperiment = ambit-density\n[ambit]\nn = 21\n", ":4:",
     "[ambit] n: value '21' out of range"),
    ("[run]\nexperiment = besov-stat\n[levy]\nnt = 8\n", ":4:",
     "unknown key"),
    # the Levy constants and the (H4) exponents are ambit-decay's
    # hypotheses block, not experiments of their own
    ("[run]\nexperiment = levy-check\n", ":2:", "must be one of"),
    ("[run]\nexperiment = ambit-exponents\n", ":2:", "must be one of"),
    ("[run]\nexperiment = besov-stat\n[levy]\ngamma = 2.0\n", ":4:",
     "unknown key"),
    ("[run]\nexperiment = besov-stat\n[levy]\nnormalize = true\n", ":4:",
     "unknown key"),
])
def test_errors_carry_file_and_line(text, loc, reason):
    with pytest.raises(ConfigError) as err:
        _load(text)
    msg = str(err.value)
    assert msg.startswith("demo.cfg"), msg
    assert loc in msg, msg
    assert reason in msg, msg


def test_missing_experiment_is_required():
    with pytest.raises(ConfigError, match="experiment"):
        _load("[run]\nseed = 1\n")


@pytest.mark.parametrize("text,reason", [
    ("[run]\nexperiment = besov-stat\n[noise]\nkind = riesz\n",
     "0 < beta < d"),
    ("[run]\nexperiment = besov-stat\n[noise]\nkind = exponential\n",
     "needs ell"),
    ("[run]\nexperiment = besov-stat\n[spde]\neps_min = 0.5\n"
     "eps_max = 0.1\n", "eps_min < eps_max"),
    ("[run]\nexperiment = besov-stat\n[ambit]\nt = 0.25\neps_max = 0.5\n",
     "eps_max <= t"),
    ("[run]\nexperiment = besov-stat\n[ambit]\nbeta = 1.4\n",
     "beta < \\[levy\\] alpha"),
    ("[run]\nexperiment = ambit-decay\n[levy]\nalpha = 1.2\n[ambit]\n"
     "gamma = 1.0\n", "\\[ambit\\] needs gamma > \\[levy\\] alpha"),
    ("[run]\nexperiment = ambit-decay\n[levy]\nalpha = 1.2\n[ambit]\n"
     "gamma = 1.2\n", "\\[ambit\\] needs gamma > \\[levy\\] alpha"),
    # every frequency slope is n - O(h^2) at holder = n: no verdict
    ("[run]\nexperiment = spde-density\n[spde]\nn = 1\nholder = 1.0\n",
     "\\[spde\\] needs holder != n: .* undecidable"),
    ("[run]\nexperiment = ambit-density\n[ambit]\nn = 1\nholder = 1.0\n",
     "\\[ambit\\] needs holder != n: .* undecidable"),
])
def test_cross_checks(text, reason):
    with pytest.raises(ConfigError, match=reason):
        _load(text)


# ---------------------------------------------------------------------------
# overrides
# ---------------------------------------------------------------------------


def test_override_forms():
    cfg = _load(GOOD, overrides=["levy.alpha=0.9", "n_paths=77"])
    assert cfg.get("levy", "alpha") == 0.9
    assert cfg.get("run", "n_paths") == 77  # bare key, unique owner
    with pytest.raises(ConfigError, match="qualify"):
        _load(GOOD, overrides=["holder=0.4"])  # run, spde and ambit have it
    with pytest.raises(ConfigError, match="unknown key"):
        _load(GOOD, overrides=["nothere=1"])
    with pytest.raises(ConfigError, match="unknown section"):
        _load(GOOD, overrides=["nope.alpha=1"])
    with pytest.raises(ConfigError, match="KEY=VALUE"):
        _load(GOOD, overrides=["justakey"])
    with pytest.raises(ConfigError, match="out of range"):
        _load(GOOD, overrides=["levy.alpha=7"])
    top = _load(GOOD, overrides=[f"run.order={MAX_ORDER}",
                                 f"spde.n={MAX_ORDER}",
                                 f"ambit.n={MAX_ORDER}"])
    assert top.get("run", "order") == top.get("ambit", "n") == MAX_ORDER


def test_overrides_win_over_file_values():
    cfg = _load(GOOD, overrides=["run.seed=99"])
    assert cfg.get("run", "seed") == 99


# ---------------------------------------------------------------------------
# canonical form / digest
# ---------------------------------------------------------------------------


def test_digest_ignores_execution_details():
    base = _load(GOOD)
    moved = _load(GOOD, overrides=["run.workers=16", "run.outdir=elsewhere"])
    assert base.digest == moved.digest
    assert "workers" not in base.canonical()
    assert "outdir" not in base.canonical()


def test_digest_tracks_result_defining_keys():
    base = _load(GOOD)
    assert _load(GOOD, overrides=["run.seed=12"]).digest != base.digest
    assert _load(GOOD, overrides=["levy.alpha=1.3"]).digest != base.digest
    # defaults spelled out explicitly hash the same
    spelled = _load(GOOD + "\n[ambit]\nt = 1.0\n")
    assert spelled.digest == base.digest


def test_canonical_is_sorted_and_total():
    canon = _load(GOOD).canonical()
    lines = canon.strip().splitlines()
    pairs = [tuple(line.split("=", 1)[0].split(".", 1)) for line in lines]
    assert pairs == sorted(pairs)
    assert "run.experiment=besov-stat" in lines
    assert canon.endswith("\n")


# ---------------------------------------------------------------------------
# runner: exit codes and artifacts
# ---------------------------------------------------------------------------


def test_run_writes_artifacts(tmp_path):
    code = cli.run(None, [], experiment="besov-stat", seed=3,
                   outdir=str(tmp_path))
    assert code == 0
    csv = (tmp_path / "results.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == "experiment,quantity,x,value,stderr"
    assert csv.endswith("\n")
    assert all(line.startswith("besov-stat,") for line in lines[1:])
    # numeric cells are %.12g: reparse exactly
    for line in lines[1:]:
        _, _, x, value, stderr = line.split(",")
        for cell in (x, value, stderr):
            assert cell == "" or np.isfinite(float(cell))

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["experiment"] == "besov-stat"
    assert summary["seed"] == 3
    assert summary["flag"] == "ok"
    assert len(summary["config_hash"]) == 64
    keys = list(summary)
    assert keys == sorted(keys)

    log = (tmp_path / "run.log").read_text().splitlines()
    assert log[0] == "experiment=besov-stat"
    assert any(line.startswith("elapsed_s=") for line in log)
    # one timer per stage, kept out of the artifacts
    timers = [line for line in log if line.startswith("criterion_s=")]
    assert len(timers) == 1 and float(timers[0].split("=")[1]) >= 0
    assert "_s=" not in csv
    assert "_s=" not in (tmp_path / "summary.json").read_text()
    versions = dict(line.split("=", 1) for line in log
                    if line.startswith(("python=", "numpy=", "scipy=",
                                        "ambitlab=")))
    assert versions == {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "scipy": scipy.__version__,
                        "ambitlab": ambitlab.__version__}
    # versions stay out of the artifacts
    assert np.__version__ not in csv
    assert "numpy" not in (tmp_path / "summary.json").read_text()


def _non_finite(value):
    """Every non-finite number in a parsed summary, as JSON or as text."""
    if isinstance(value, dict):
        return [v for x in value.values() for v in _non_finite(x)]
    if isinstance(value, list):
        return [v for x in value for v in _non_finite(x)]
    if isinstance(value, float) and not np.isfinite(value):
        return [value]
    if isinstance(value, str) and value.lower().lstrip("+-") in ("nan",
                                                                  "inf"):
        return [value]
    return []


@pytest.mark.parametrize("experiment,overrides", [
    ("ambit-decay", []),
    ("ambit-decay", ["ambit.sigma_field=constant", "run.n_paths=64",
                     "ambit.nt=8", "ambit.nx=8"]),
])
def test_summary_holds_no_non_finite_number(tmp_path, capsys, experiment,
                                            overrides):
    """An absent condition (constant sigma and b, as at the defaults) is
    null, not NaN; an infinite gammabar is null too.  The decay run is
    degenerate: it exits 0 and says so alike on stdout, in run.log and in
    summary.json, and its rate check has no answer."""
    assert cli.run(None, overrides, experiment=experiment,
                   outdir=str(tmp_path)) == 0
    assert "flag=degenerate" in capsys.readouterr().out.split()
    text = (tmp_path / "summary.json").read_text()
    summary = json.loads(text, parse_constant=lambda c: float(c))
    assert _non_finite(summary) == []
    assert summary["gammabar"] is None
    assert summary["hypotheses"]["gammabar"] is None
    assert [summary["hypotheses"][f"gamma{i}"] for i in range(1, 5)] \
        == [None] * 4
    assert summary["passed"] is None
    assert summary["flag"] == "degenerate"
    # the exponent conditions are timed in run.log only
    log = (tmp_path / "run.log").read_text().splitlines()
    assert "flag=degenerate" in log
    assert sum(line.startswith("exponent_conditions_s=") for line in log) \
        == 1
    assert "exponent_conditions_s" not in text


def test_ambit_decay_log_counts_the_work(tmp_path):
    overrides = ["run.n_paths=64", "ambit.kernel_g=power",
                 "ambit.theta_g=0.5", "ambit.sigma_field=weierstrass",
                 "ambit.eps_min=0.05", "ambit.eps_max=1.0",
                 "ambit.eps_points=4", "ambit.nt=12", "ambit.nx=10"]
    runs = {}
    for w in (1, 2):
        out = tmp_path / f"w{w}"
        out.mkdir()
        assert cli.run(None, overrides, experiment="ambit-decay", seed=2,
                       workers=w, outdir=str(out)) in (0, 2)
        log = (out / "run.log").read_text().splitlines()
        counters = [line for line in log
                    if line.startswith(("tau=", "cells=", "cut_row ",
                                        "jumps_per_path="))]
        runs[w] = (counters, (out / "results.csv").read_bytes(),
                   (out / "summary.json").read_bytes())
    counters = runs[1][0]
    assert counters == runs[2][0]
    assert float(counters[0].removeprefix("tau=")) > 0
    # 12 time rows, split again at t - eps for eps = 0.05, 0.136, 0.368
    # (t - 1 = 0 is an edge already)
    assert counters[1] == "cells=15x10"
    cut = [line for line in counters if line.startswith("cut_row ")]
    assert len(cut) == 4
    assert cut[-1].endswith(" row=0")          # eps = t cuts at s = 0
    assert float(counters[-1].removeprefix("jumps_per_path=")) > 0
    # counters stay out of the artifacts
    for _, csv, summary in runs.values():
        assert b"jumps" not in csv + summary and b"tau" not in csv + summary
    assert runs[1][1:] == runs[2][1:]


@pytest.mark.parametrize("experiment,overrides", [
    ("ambit-decay", ["ambit.eps_points=4", "run.n_paths=64"]),
    ("ambit-density", ["run.n_paths=2000"]),
])
def test_levy_tau_override_reaches_the_discretization(tmp_path, monkeypatch,
                                                      experiment, overrides):
    """levy.tau is the model's tau: the run logs it, and the box model and
    the sub-tau cell factors of the run's discretization are built at it."""
    discs, make = [], ambit.make_discretization

    def spy(*args, **kwargs):
        discs.append(make(*args, **kwargs))
        return discs[-1]

    monkeypatch.setattr(ambit, "make_discretization", spy)
    overrides = [*overrides, "levy.tau=0.05", "ambit.nt=8", "ambit.nx=8"]
    assert cli.run(None, overrides, experiment=experiment, seed=1,
                   outdir=str(tmp_path)) in (0, 2)
    assert "tau=0.05" in (tmp_path / "run.log").read_text().splitlines()
    (disc,) = discs
    assert disc.box_model.tau == 0.05
    gauss_sd, comp_cell = levy.cell_factors(disc.box_model, disc.cells)
    assert np.array_equal(disc.gauss_sd, gauss_sd)
    assert np.array_equal(disc.comp_cell, comp_cell)


@pytest.mark.parametrize("sigma_field", ["constant", "weierstrass"])
def test_ambit_decay_prints_its_pass_fail(tmp_path, capsys, sigma_field):
    """ambit-decay has no verdict: stdout carries its passed flag, the one
    summary.json holds, when the rate check is decided (here 1.16 +- 0.09
    against the rate 0.467).  Constant sigma makes the run degenerate:
    passed is null and stdout omits it."""
    overrides = [f"ambit.sigma_field={sigma_field}", "ambit.kernel_g=power",
                 "ambit.theta_g=0.5", "ambit.beta=0.8", "ambit.gamma=2.0",
                 "levy.alpha=1.2", "levy.c_plus=0.5", "levy.c_minus=0.5",
                 "ambit.eps_min=0.02", "ambit.eps_max=0.4", "run.n_paths=64",
                 "ambit.eps_points=4", "ambit.nt=8", "ambit.nx=8"]
    assert cli.run(None, overrides, experiment="ambit-decay", seed=2,
                   outdir=str(tmp_path)) == 0
    out = capsys.readouterr().out.split()
    summary = json.loads((tmp_path / "summary.json").read_text())
    if sigma_field == "constant":
        assert summary["passed"] is None
        assert not any(bit.startswith("passed=") for bit in out)
    else:
        assert summary["passed"] is True and "passed=True" in out
    assert not any(bit.startswith("verdict=") for bit in out)


def test_ambit_decay_log_times_the_stages(tmp_path):
    overrides = ["run.n_paths=300", "ambit.kernel_g=power",
                 "ambit.theta_g=0.5", "ambit.sigma_field=weierstrass",
                 "ambit.eps_min=0.05", "ambit.eps_max=1.0",
                 "ambit.eps_points=4", "ambit.nt=12", "ambit.nx=10"]
    stage = ("exponent_conditions_s=", "ensemble_s=")
    work = ("paths=", "blocks=", "paths_per_stack=")
    runs = {}
    for w in (1, 2):
        out = tmp_path / f"w{w}"
        out.mkdir()
        assert cli.run(None, overrides, experiment="ambit-decay", seed=2,
                       workers=w, outdir=str(out)) in (0, 2)
        log = (out / "run.log").read_text().splitlines()
        runs[w] = (log, (out / "results.csv").read_bytes(),
                   (out / "summary.json").read_bytes())
    log = runs[1][0]
    timers = [line for line in log if line.startswith(stage)]
    assert len(timers) == 2
    assert all(float(line.split("=")[1]) >= 0 for line in timers)
    counters = [line for line in log if line.startswith(work)]
    assert counters == [line for line in runs[2][0]
                        if line.startswith(work)]
    # 300 paths in blocks of 256, each reduced in stacks of 16
    assert counters == ["paths=300", "blocks=2", "paths_per_stack=16"]
    # timers and counters stay out of the artifacts
    for _, csv, summary in runs.values():
        for word in (b"_s=", b"blocks", b"paths_per_stack"):
            assert word not in csv + summary
    assert runs[1][1:] == runs[2][1:]


def test_ambit_decay_with_random_drift_is_worker_independent(tmp_path):
    """A Weierstrass drift b reaches the run: its Hölder exponents give the
    drift conditions gamma3 = 1 + delta1 + 1 and gamma4 = 1 + 1 + delta2
    of a constant kernel h on the unit cone, and the artifacts are the
    same at 1 and 2 workers (300 paths are two blocks of 256)."""
    overrides = ["ambit.sigma_field=weierstrass", "ambit.b_field=weierstrass",
                 "ambit.b_delta1=0.3", "ambit.b_delta2=0.6", "ambit.nt=12",
                 "ambit.nx=12", "ambit.eps_points=4", "run.n_paths=300"]
    runs = {}
    for w in (1, 2):
        out = tmp_path / f"w{w}"
        out.mkdir()
        assert cli.run(None, overrides, experiment="ambit-decay",
                       workers=w, outdir=str(out)) in (0, 2)
        runs[w] = ((out / "results.csv").read_bytes(),
                   (out / "summary.json").read_bytes())
    assert runs[1] == runs[2]
    hypotheses = json.loads(runs[1][1])["hypotheses"]
    assert hypotheses["gamma3"] == pytest.approx(2.3, abs=1e-12)
    assert hypotheses["gamma4"] == pytest.approx(2.6, abs=1e-12)


def test_spde_exponents_log_counts_the_work(tmp_path):
    overrides = ["run.n_paths=300", "noise.kind=white", "noise.m=64",
                 "spde.operator=wave", "spde.t=1.0", "spde.eps_points=5"]
    runs = {}
    for w in (1, 2):
        out = tmp_path / f"w{w}"
        out.mkdir()
        assert cli.run(None, overrides, experiment="spde-exponents", seed=4,
                       workers=w, outdir=str(out)) == 0
        log = (out / "run.log").read_text().splitlines()
        runs[w] = (log, (out / "results.csv").read_bytes(),
                   (out / "summary.json").read_bytes())
    log = runs[1][0]
    timers = [line for line in log
              if line.startswith(("exponent_gamma_s=", "ensemble_s=",
                                  "law_s="))]
    assert len(timers) == 3
    assert all(float(line.split("=")[1]) >= 0 for line in timers)
    work = ("paths=", "blocks=", "law=", "shells=", "steps_x_modes=",
            "law_steps=", "normals_per_path=", "law_condition=",
            "steps_per_call=", "calls_per_path=", "normals_per_call=",
            "g_evaluations ")
    counters = [line for line in log if line.startswith(work)]
    assert counters == [line for line in runs[2][0]
                        if line.startswith(work)]
    # 300 paths in blocks of 256; dt = dx/2 = 1/16 over t = 1, so t0 is
    # step 8 and the lags 1, 2, 4 and 8 steps fit; sigma is constant, so
    # each path is drawn from the exact law of the 64 points' 33 radius
    # shells at those 5 steps: 5 normals per path, and no step loop
    assert counters[:7] == ["paths=300", "blocks=2", "law=exact",
                            "shells=33", "steps_x_modes=16x33",
                            "law_steps=5", "normals_per_path=5"]
    # the 5 x 5 covariance's condition number
    assert float(counters[7].partition("law_condition=")[2]) > 1.0
    assert len(counters) == 8
    # white noise: g(eps) is a closed form, so no quadrature ran
    assert not any(line.startswith("g_evaluations ") for line in log)
    assert log.count("variance_g=closed_form") == 1
    # timers and counters stay out of the artifacts
    for _, csv, summary in runs.values():
        for word in (b"_s=", b"blocks", b"g_evaluations", b"shells",
                     b"steps_x_modes", b"law_steps", b"normals_per_path",
                     b"law_condition"):
            assert word not in csv + summary
    assert runs[1][1:] == runs[2][1:]


def test_spde_blocks_follow_the_grid_and_move_no_byte(tmp_path,
                                                       monkeypatch):
    """At m=512 an SPDE block holds 2**15 // 512 = 64 paths, so 300 paths
    make 5 blocks; with a points budget of 256 such paths they make 2, and
    the artifacts are the same bytes."""
    overrides = ["run.n_paths=300", "noise.kind=white", "noise.m=512",
                 "spde.operator=wave", "spde.t=0.25"]
    runs = {}
    for budget in (spde.POINTS_PER_BLOCK, 256 * 512):
        monkeypatch.setattr(spde, "POINTS_PER_BLOCK", budget)
        out = tmp_path / f"b{budget}"
        out.mkdir()
        assert cli.run(None, overrides, experiment="spde-exponents", seed=2,
                       workers=2, outdir=str(out)) == 0
        log = (out / "run.log").read_text().splitlines()
        runs[budget] = ([line for line in log if line.startswith("blocks=")],
                        (out / "results.csv").read_bytes(),
                        (out / "summary.json").read_bytes())
    assert runs[2**15][0] == ["blocks=5"]
    assert runs[256 * 512][0] == ["blocks=2"]
    assert runs[2**15][1:] == runs[256 * 512][1:]


def test_spde_exponents_log_counts_the_quadrature(tmp_path):
    # the exponential covariance is the one noise whose g(eps) is a
    # quadrature: run.log gives its integrand calls per eps
    overrides = ["run.n_paths=300", "noise.kind=exponential", "noise.ell=0.5",
                 "noise.m=64", "spde.operator=wave", "spde.t=1.0",
                 "spde.eps_points=5"]
    assert cli.run(None, overrides, experiment="spde-exponents", seed=4,
                   outdir=str(tmp_path)) == 0
    log = (tmp_path / "run.log").read_text().splitlines()
    calls = [line for line in log if line.startswith("g_evaluations ")]
    assert len(calls) == 5
    assert all(int(line.rsplit("calls=", 1)[1]) > 0 for line in calls)
    assert "variance_g=closed_form" not in log


def test_spde_density_log_counts_the_work(tmp_path):
    overrides = ["run.n_paths=300", "noise.kind=white", "noise.m=64",
                 "spde.operator=heat", "spde.coefficients=anderson"]
    work = ("paths=", "blocks=", "shells=", "steps_x_modes=",
            "steps_per_call=", "calls_per_path=", "normals_per_call=")
    runs = {}
    for w in (1, 2):
        out = tmp_path / f"w{w}"
        out.mkdir()
        assert cli.run(None, overrides, experiment="spde-density", seed=4,
                       workers=w, outdir=str(out)) in (0, 2)
        log = (out / "run.log").read_text().splitlines()
        runs[w] = (log, (out / "results.csv").read_bytes(),
                   (out / "summary.json").read_bytes())
    log = runs[1][0]
    for timer in ("ensemble_s=", "criterion_s="):
        lines = [line for line in log if line.startswith(timer)]
        assert len(lines) == 1 and float(lines[0].split("=")[1]) >= 0
    counters = [line for line in log if line.startswith(work)]
    assert counters == [line for line in runs[2][0]
                        if line.startswith(work)]
    # dt = 2 dx^2 = 1/32 over t = 0.25; one heat noise per step, white
    # noise on all 64 points for an Anderson sigma (no shells line); the 8
    # steps' 512 normals are one call
    assert counters == ["paths=300", "blocks=2", "steps_x_modes=8x64",
                        "steps_per_call=8", "calls_per_path=1",
                        "normals_per_call=512"]
    for _, csv, summary in runs.values():
        for word in (b"_s=", b"criterion_s", b"blocks", b"steps_x_modes",
                     b"steps_per_call", b"calls_per_path",
                     b"normals_per_call"):
            assert word not in csv + summary
    assert runs[1][1:] == runs[2][1:]


# the benchmark's ambit-density model (a slab, constant kernel and
# volatility) at a small grid: its 40000 draws come from the exact stable law
DENSITY = ["run.n_paths=40000", "ambit.c=1", "ambit.zeta=0",
           "ambit.kernel_g=constant", "ambit.sigma_field=constant",
           "levy.alpha=1.2", f"levy.c_plus={1 / 60!r}",
           f"levy.c_minus={1 / 60!r}", "ambit.n=1", "ambit.holder=0.5",
           "ambit.nt=16", "ambit.nx=16"]


def _density_runs(tmp_path, workers):
    runs = {}
    for w in workers:
        out = tmp_path / f"w{w}"
        out.mkdir()
        assert cli.run(None, DENSITY, experiment="ambit-density", seed=3,
                       workers=w, outdir=str(out)) == 0
        runs[w] = ((out / "run.log").read_text().splitlines(),
                   (out / "results.csv").read_bytes(),
                   (out / "summary.json").read_bytes())
    return runs


def test_ambit_density_is_worker_independent(tmp_path):
    """The exact stable draws come from one generator; the artifacts stay
    byte for byte those of one worker."""
    runs = _density_runs(tmp_path, (1, 2, 4))
    assert json.loads(runs[1][2])["verdict"] is True
    assert runs[1][1:] == runs[2][1:] == runs[4][1:]


def test_ambit_density_log_counts_the_work(tmp_path):
    runs = _density_runs(tmp_path, (1, 2))
    keys = ("tau=", "cells=", "law=", "scale=", "skew=", "shift=",
            "sampler_s=", "criterion_s=")
    # the slab [0, 1] x [-1, 1]: scale^alpha = c_sum K_alpha 2
    scale = (2.0 / 60 * levy.kappa_alpha(1.2) * 2.0) ** (1.0 / 1.2)
    for log, csv, summary in runs.values():
        lines = [line for line in log if line.startswith(keys)]
        assert [line.split("=")[0] + "=" for line in lines] == list(keys)
        values = dict(line.split("=") for line in lines)
        assert float(values["tau"]) > 0
        assert values["cells"] == "16x16"
        assert values["law"] == "stable"
        assert float(values["scale"]) == pytest.approx(scale, rel=1e-5)
        # a symmetric basis: no skew and no shift
        assert values["skew"] == values["shift"] == "0"
        assert not any(line.startswith("jumps_per_draw=") for line in log)
        assert float(values["sampler_s"]) > 0
        assert float(values["criterion_s"]) > 0
        # counters and timers stay out of the artifacts
        for word in (b"_s=", b"law", b"scale", b"skew", b"shift"):
            assert word not in csv + summary
    counters = [[line for line in runs[w][0]
                 if line.startswith(keys[:6])] for w in runs]
    assert counters[0] == counters[1]
    assert runs[1][1:] == runs[2][1:]


def test_ambit_density_draws_no_jumps(tmp_path, capsys):
    """At alpha = 1.6 the default tau asks for 1.25e8 jumps per draw, past
    the jump budget; constant coefficients draw the exact law instead,
    which has no jumps and no budget."""
    code = cli.run(None, ["levy.alpha=1.6", "run.n_paths=20000"],
                   experiment="ambit-density", seed=2, outdir=str(tmp_path))
    assert code in (0, 2)
    assert "budget" not in capsys.readouterr().err
    assert "law=stable" in (tmp_path / "run.log").read_text().splitlines()


def test_run_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nexperiment = besov-stat\nseed = -1\n")
    assert cli.run(str(bad), [], outdir=str(tmp_path)) == 1
    assert "out of range" in capsys.readouterr().err
    assert cli.run(str(tmp_path / "void.cfg"), [],
                   outdir=str(tmp_path)) == 1
    assert "cannot read" in capsys.readouterr().err


def test_run_requires_existing_outdir(tmp_path, capsys):
    code = cli.run(None, [], experiment="besov-stat",
                   outdir=str(tmp_path / "missing"))
    assert code == 1
    assert "does not exist" in capsys.readouterr().err


def test_one_path_exponent_run_is_a_named_error(tmp_path, capsys):
    # a standard error needs two paths: one path exits 1 by name instead
    # of writing a delta fit without a slope flagged "ok"
    code = cli.run(None, ["run.n_paths=1", "spde.t=1.0", "noise.m=64"],
                   experiment="spde-exponents", outdir=str(tmp_path))
    assert code == 1
    assert "at least 2 paths" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("experiment,overrides,words", [
    ("besov-stat", [], "at least 2 samples"),
    ("ambit-decay", ["ambit.sigma_field=weierstrass", "ambit.nt=8",
                     "ambit.nx=8", "ambit.eps_points=4"], "at least 2 paths"),
], ids=["besov-stat", "ambit-decay"])
def test_one_sample_runs_are_named_errors(tmp_path, capsys, monkeypatch,
                                          experiment, overrides, words):
    """One sample fits the criterion's slope n by construction, and one
    decay path has no standard error: both exit 1 by name, with no NumPy
    warning and no artifacts; the decay run refuses before it draws."""
    def no_draw(*_args, **_kwargs):
        raise AssertionError("drew paths")

    monkeypatch.setattr(ambit, "_ensemble", no_draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(None, overrides + ["run.n_paths=1"],
                       experiment=experiment, outdir=str(tmp_path))
    assert code == 1
    assert words in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_spde_exponents_report_delta_exact(tmp_path):
    """delta_exact is the slope of the constant-sigma law's exact increment
    variance over the run's lags (0.5222 at the heat defaults, whatever
    the path count); an Anderson sigma has no such law: null."""
    runs = {"heat": ["run.n_paths=64"],
            "anderson": ["run.n_paths=64", "spde.coefficients=anderson",
                         "spde.operator=wave", "noise.m=64", "spde.t=1.0"]}
    exact = {}
    for name, overrides in runs.items():
        out = tmp_path / name
        out.mkdir()
        assert cli.run(None, overrides, experiment="spde-exponents",
                       outdir=str(out)) in (0, 2)
        exact[name] = json.loads((out / "summary.json").read_text())[
            "delta_exact"]
    assert exact["heat"] == pytest.approx(0.5222, abs=5e-4)
    assert exact["anderson"] is None


def test_run_flags_inconclusive_statistics(tmp_path):
    # at unit scale the top frequency is unresolvable with 200 paths
    code = cli.run(None, ["run.scale=1.0", "run.n_paths=200"],
                   experiment="besov-stat", outdir=str(tmp_path))
    assert code == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["flag"] == "inconclusive"


@pytest.mark.parametrize("experiment,overrides", [
    ("spde-exponents", ["spde.operator=heat", "noise.m=64", "spde.t=1.0",
                        "run.n_paths=4"]),
    ("ambit-decay", ["ambit.kernel_g=bump", "ambit.sigma_field=weierstrass",
                     "ambit.nt=8", "ambit.nx=8", "ambit.eps_points=4",
                     "run.n_paths=64"]),
], ids=["spde-exponents", "ambit-decay"])
def test_undecided_verdicts_exit_2_with_null(tmp_path, capsys, experiment,
                                             overrides):
    """A CI that holds the threshold leaves the verdict null and the run
    inconclusive.  Four heat paths fit delta = -0.27 +- 0.42 against the
    threshold 0: exit 2 with the point gammabar still reported.  The
    64-path bump-kernel decay fit, 2.16 +- 1.23 against the rate 1.635,
    neither passes nor fails, so stdout carries no passed=."""
    assert cli.run(None, overrides, experiment=experiment, seed=0,
                   workers=2, outdir=str(tmp_path)) == 2
    out = capsys.readouterr().out.split()
    assert "flag=inconclusive" in out
    assert not any(bit.startswith(("verdict=", "passed=")) for bit in out)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["flag"] == "inconclusive"
    if experiment == "spde-exponents":
        assert summary["verdict"] is None
        assert summary["gammabar"] == pytest.approx(0.4505, abs=1e-3)
        assert summary["fits"]["delta"]["flag"] == "ok"
    else:
        assert summary["passed"] is None


def test_zero_statistic_is_conclusive(tmp_path, capsys):
    """sigma = 0 makes every weight and every increment, so every statistic
    and the delta fit's data, exactly zero: more paths cannot change that,
    so the run exits 0, but a zero measure or a placeholder slope says
    nothing about the law, so it is degenerate with no verdict (False
    would read as "no density")."""
    cases = {
        "spde-density": (["spde.sigma0=0", "run.n_paths=256", "noise.m=32",
                          "spde.t=0.05"],
                         {"verdict": None, "min_slope": None, "slopes": {}}),
        "spde-exponents": (["spde.sigma0=0", "run.n_paths=64",
                            "noise.m=128"],
                           {"verdict": None, "delta": None, "gammabar": None,
                            "besov_order_interval": None,
                            "delta_exact": None}),
    }
    for experiment, (overrides, want) in cases.items():
        out_dir = tmp_path / experiment
        out_dir.mkdir()
        code = cli.run(None, overrides, experiment=experiment,
                       outdir=str(out_dir))
        assert code == 0, experiment
        out = capsys.readouterr().out
        assert "flag=degenerate" in out and "verdict=" not in out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["flag"] == "degenerate"
        assert {key: summary[key] for key in want} == want


def test_repeat_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        assert cli.run(None, ["run.n_paths=20000"], experiment="besov-stat",
                       seed=5, outdir=str(out)) == 0
        # the criterion's wall time goes to run.log only
        log = (out / "run.log").read_text().splitlines()
        assert sum(line.startswith("criterion_s=") for line in log) == 1
        assert b"criterion_s" not in (out / "summary.json").read_bytes()
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "summary.json").read_bytes() \
        == (b / "summary.json").read_bytes()


# ---------------------------------------------------------------------------
# argv handling
# ---------------------------------------------------------------------------


def test_main_accepts_override_as_first_positional(tmp_path):
    code = cli.main(["run", "n_paths=20000", "--experiment", "besov-stat",
                     "--outdir", str(tmp_path)])
    assert code == 0


def test_main_needs_an_experiment(capsys):
    assert cli.main(["run", "run.seed=1"]) == 1
    assert "no --experiment" in capsys.readouterr().err
