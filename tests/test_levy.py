"""Stable-like basis: tail constants, sampling laws, record replay, density.

Oracles used here, all independent of the implementation:

  * kappa closed form -Gamma(-a) cos(pi a / 2), with kappa(1) = pi/2;
  * the symmetric alpha=1 unit-weight basis over a set of Lebesgue measure V
    is Cauchy with scale V pi, giving exact CF, density and |p'| mass;
  * KS two-sample agreement between tau values and between T-additivity
    splits (stable laws are infinitely divisible).
"""

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma as gamma_fn

from ambitlab import levy
from ambitlab.montecarlo import empirical_cf, path_rng


ONE = lambda s, y: np.ones_like(s)


def test_kappa_closed_form():
    assert levy.kappa_alpha(1.0) == pytest.approx(np.pi / 2.0, abs=1e-9)
    for a in (0.3, 0.5, 0.8, 1.2, 1.5, 1.9):
        want = -gamma_fn(-a) * np.cos(np.pi * a / 2.0)
        assert levy.kappa_alpha(a) == pytest.approx(want, rel=1e-8)
    assert levy.kappa_alpha(1.2) == pytest.approx(1.4990281954058275)
    assert levy.kappa_alpha(0.7) == pytest.approx(1.9402055710365986)
    with pytest.raises(ValueError):
        levy.kappa_alpha(2.0)


def test_normalization_mass():
    m = levy.make_levy_model(1.3, 2.0, 0.5)
    # int min(1, z^2) rho(dz) = (c+ + c-) (1/(2-a) + 1/a)
    assert levy.normalization_mass(m) \
        == pytest.approx(2.5 * (1 / 0.7 + 1 / 1.3), rel=1e-9)
    mn = levy.make_levy_model(1.3, 2.0, 0.5, normalize=True)
    assert levy.normalization_mass(mn) == pytest.approx(1.0, abs=1e-9)
    # normalization rescales both sides by the same factor
    assert mn.c_plus / mn.c_minus == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("kwargs,match", [
    (dict(alpha=2.0), "alpha"),
    (dict(alpha=0.0), "alpha"),
    (dict(alpha=1.0, c_plus=0.0, c_minus=0.0), "weights"),
    (dict(alpha=1.0, c_plus=-1.0), "weights"),
    (dict(alpha=1.0, T=0.0), "T must"),
    (dict(alpha=1.0, domain=((1.0, 1.0),)), "domain"),
    (dict(alpha=1.0, weight=lambda s, y: 1.0), "weight_bound"),
    (dict(alpha=1.0, tau=-0.1), "tau"),
])
def test_model_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        levy.make_levy_model(**kwargs)


def test_assumption_constants_symmetric_cauchy():
    m1 = levy.make_levy_model(1.0, 1.0, 1.0)
    ac = levy.assumption_constants(m1)
    assert ac.C_beta(0.0) == pytest.approx(2.0, abs=1e-12)
    assert ac.C_bar == pytest.approx(2.0, abs=1e-12)
    # lower cosine constant: 2 kappa(1) = pi for the symmetric unit basis
    assert ac.c_lower == pytest.approx(np.pi, abs=1e-7)
    rep = levy.verify_assumptions(m1)
    assert rep.passed
    assert rep.tail_violation <= 1e-9
    assert rep.small_jump_violation <= 1e-9
    assert rep.cosine_violation <= 1e-9


def test_moment_lemma_constant_and_check():
    assert levy.moment_lemma_constant(2.0, 1.0) == pytest.approx(2.0,
                                                                 abs=1e-14)
    with pytest.raises(ValueError, match="gamma"):
        levy.moment_lemma_constant(1.0, 1.2)
    with pytest.raises(ValueError, match="gamma"):
        levy.moment_lemma_constant(2.5, 1.0)
    for a in (0.5, 1.0, 1.5):
        mm = levy.make_levy_model(a, 1.0, 1.0)
        for g in (a + 0.2, 2.0):
            rep = levy.moment_lemma_check(mm, g)
            assert rep.passed, (a, g, rep.max_violation)
            assert len(rep.a_grid) == 20


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_matches_cauchy_cf():
    # f = 1 on [0, 0.5] x [-1, 1], alpha=1 symmetric: Psi = 2*0.5*pi|xi|
    m = levy.make_levy_model(1.0, 1.0, 1.0, T=0.5, tau=0.01)
    vals = levy.sample_integral(m, ONE, path_rng(42, "cf", 0),
                                n_draws=100_000)
    for xi in (0.5, 1.0, 2.0):
        phi, err = empirical_cf(vals, np.array([xi]))
        want = np.exp(-np.pi * xi)
        assert abs(abs(phi[0]) - want) < 5.0 * err[0]


def test_draw_shapes_and_budget():
    m = levy.make_levy_model(1.0, 1.0, 1.0, T=0.5, tau=0.05)
    one = levy.sample_integral(m, ONE, path_rng(1, "s", 0))
    assert np.isscalar(one) or np.ndim(one) == 0
    seven = levy.sample_integral(m, ONE, path_rng(1, "s", 1), n_draws=7)
    assert seven.shape == (7,)
    with pytest.raises(ValueError, match="budget"):
        levy.sample_integral(m, ONE, path_rng(1, "s", 2), tau=1e-9)
    with pytest.raises(ValueError, match="n_draws"):
        levy.sample_integral(m, ONE, path_rng(1, "s", 3), n_draws=0)


def test_tau_insensitivity_ks():
    """Halving the jump cutoff must not move the sampled law."""
    m = levy.make_levy_model(1.2, 1.0, 1.0, T=1.0, domain=((-1.0, 1.0),))
    a = levy.sample_integral(m, ONE, path_rng(3, "tau", 0), n_draws=4000,
                             tau=0.05)
    b = levy.sample_integral(m, ONE, path_rng(3, "tau", 1), n_draws=4000,
                             tau=0.025)
    assert stats.ks_2samp(a, b).pvalue > 1e-3


def test_infinite_divisibility_ks():
    """X_T over [0,1] equals in law the sum of two independent halves."""
    whole = levy.make_levy_model(1.3, 1.0, 1.0, T=1.0, tau=0.02)
    half = levy.make_levy_model(1.3, 1.0, 1.0, T=0.5, tau=0.02)
    x = levy.sample_integral(whole, ONE, path_rng(5, "id", 0), n_draws=4000)
    y = levy.sample_integral(half, ONE, path_rng(5, "id", 1), n_draws=4000) \
        + levy.sample_integral(half, ONE, path_rng(5, "id", 2), n_draws=4000)
    assert stats.ks_2samp(x, y).pvalue > 1e-3


def test_weight_doubles_like_coefficients():
    base = levy.make_levy_model(1.0, 1.0, 1.0, T=1.0, domain=((0.0, 1.0),))
    weighted = levy.make_levy_model(1.0, 1.0, 1.0, T=1.0,
                                    domain=((0.0, 1.0),),
                                    weight=lambda s, y: 2.0 * np.ones_like(s),
                                    weight_bound=2.0)
    doubled = levy.make_levy_model(1.0, 2.0, 2.0, T=1.0, domain=((0.0, 1.0),))
    xi = np.geomspace(1.0, 50.0, 8)
    cw = levy.characteristic_exponent(weighted, ONE, xi)
    cd = levy.characteristic_exponent(doubled, ONE, xi)
    cb = levy.characteristic_exponent(base, ONE, xi)
    assert np.allclose(cw.values, cd.values, rtol=1e-12)
    assert np.allclose(cw.values, 2.0 * cb.values, rtol=1e-12)


# ---------------------------------------------------------------------------
# record / replay
# ---------------------------------------------------------------------------


def _osc(s, y):
    return np.cos(s) * np.exp(-np.asarray(y)[..., 0] ** 2)


def test_replay_is_bit_identical():
    m = levy.make_levy_model(1.2, 1.0, 1.0, T=1.0, domain=((-2.0, 2.0),),
                             tau=0.05)
    vals, rec = levy.sample_integral(m, _osc, path_rng(7, "rec", 0),
                                     n_draws=5, return_record=True)
    assert np.array_equal(levy.replay_integral(m, rec, _osc), vals)


def test_replay_is_linear_in_the_integrand():
    m = levy.make_levy_model(1.2, 1.0, 1.0, T=1.0, tau=0.05)
    _, rec = levy.sample_integral(m, _osc, path_rng(7, "lin", 0), n_draws=4,
                                  return_record=True)
    one = levy.replay_integral(m, rec, _osc)
    two = levy.replay_integral(m, rec, lambda s, y: 2.0 * _osc(s, y))
    assert np.allclose(two, 2.0 * one, rtol=1e-12)


def test_erase_after_preserves_history():
    """Erasing the record beyond a cut cannot change history integrals."""
    m = levy.make_levy_model(1.2, 1.0, 1.0, T=1.0, domain=((-2.0, 2.0),),
                             tau=0.05)
    cells = levy.build_cells(m, nt=16, nx=16, extra_time_edges=[0.75])
    _, rec = levy.sample_integral(m, _osc, path_rng(7, "rec", 1), n_draws=3,
                                  cells=cells, return_record=True)
    hist = lambda s, y: _osc(s, y) * (s <= 0.75)
    h1 = levy.replay_integral(m, rec, hist)
    h2 = levy.replay_integral(m, rec.erase_after(0.75), hist)
    assert np.array_equal(h1, h2)


def _thin(s, y):
    return 0.5 + 0.4 * np.cos(3.0 * s + np.asarray(y)[..., 0])


# models of the stacked-record tests, each sampled at its own tau
RECORD_CASES = {
    "unweighted": levy.make_levy_model(1.2, 1.0, 0.4, T=1.0,
                                       domain=((-2.0, 2.0),), tau=0.05),
    "thinned": levy.make_levy_model(1.2, 1.0, 0.4, T=1.0,
                                    domain=((-2.0, 2.0),), tau=0.05,
                                    weight=_thin, weight_bound=1.0),
    "d2": levy.make_levy_model(0.8, 1.0, 0.6, T=0.7,
                               domain=((-1.0, 1.0), (0.0, 2.0)), tau=0.05),
    "d2-thinned": levy.make_levy_model(1.5, 0.3, 1.0, T=0.7,
                                       domain=((-1.0, 1.0), (0.0, 2.0)),
                                       tau=0.05, weight=_thin,
                                       weight_bound=1.0),
    # about 0.73 expected jumps per draw: many draws have none
    "sparse": levy.make_levy_model(1.5, 1.0, 1.0, T=1.0,
                                   domain=((0.0, 1.0),), tau=1.5),
}


def _explicit_record(m, rng, tau, cells, n_draws):
    """(counts, s, y, z, cell normals) of n_draws draws, rebuilt with one
    generator call per quantity: poisson, then uniform times, positions,
    thinning, signs and magnitudes over all draws, then the normals."""
    rate = m.box_volume * m.weight_bound * m.c_sum * tau ** (-m.alpha) \
        / m.alpha
    counts = rng.poisson(rate, n_draws)
    tot = int(counts.sum())
    lo = np.array([iv[0] for iv in m.domain])
    hi = np.array([iv[1] for iv in m.domain])
    s = rng.uniform(0.0, m.T, tot)
    y = rng.uniform(lo, hi, (tot, m.d))
    keep = np.ones(tot, dtype=bool)
    if m.weight is not None:
        keep = rng.uniform(0.0, 1.0, tot) * m.weight_bound \
            <= m.weight_values(s, y)
    sign = np.where(rng.uniform(0.0, 1.0, tot) * m.c_sum < m.c_plus,
                    1.0, -1.0)
    z = sign * (tau * rng.uniform(0.0, 1.0, tot) ** (-1.0 / m.alpha))
    normals = rng.standard_normal((n_draws, cells.n_cells))
    did = np.repeat(np.arange(n_draws), counts)
    return (np.bincount(did[keep], minlength=n_draws), s[keep], y[keep],
            z[keep], normals)


_RECORD_FIELDS = ("counts", "s", "y", "z", "cell_normals")


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_stacked_records_equal_single_records(case):
    """Draw i of sample_records is sample_record's draw from generator i,
    and each generator ends where sample_record leaves it."""
    m = RECORD_CASES[case]
    tau = m.tau
    cells = levy.build_cells(m, nt=8, nx=8)
    f_mid = np.stack([np.cos(i + cells.s_mid) for i in range(12)])
    rngs = [path_rng(7, "stack", i) for i in range(12)]
    rec = levy.sample_records(m, f_mid, rngs, tau=tau, cells=cells)
    if case == "sparse":
        assert 0 < np.count_nonzero(rec.counts) < len(rngs)
    first = np.concatenate(([0], np.cumsum(rec.counts)))
    for i, rng in enumerate(rngs):
        ref_rng = path_rng(7, "stack", i)
        ref = levy.sample_record(m, f_mid[i], ref_rng, tau=tau, cells=cells)
        assert rec.counts[i] == ref.counts[0]
        for name in ("s", "y", "z"):
            assert np.array_equal(getattr(rec, name)[first[i]:first[i + 1]],
                                  getattr(ref, name))
        assert np.array_equal(rec.cell_normals[i], ref.cell_normals[0])
        assert rng.random() == ref_rng.random()
    f_mid[3, 5] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        levy.sample_records(m, f_mid, rngs, tau=tau, cells=cells)
    with pytest.raises(ValueError, match="one row"):
        levy.sample_records(m, f_mid[:4], rngs, tau=tau, cells=cells)


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_records_equal_explicit_uniform_draws(case):
    """Both record samplers give the jumps, normals and generator state of
    one explicit uniform()/standard_normal() call per quantity."""
    m = RECORD_CASES[case]
    tau = m.tau
    cells = levy.build_cells(m, nt=8, nx=8)
    f_mid = np.stack([np.cos(i + cells.s_mid) for i in range(12)])
    rngs = [path_rng(9, "explicit", i) for i in range(12)]
    rec = levy.sample_records(m, f_mid, rngs, tau=tau, cells=cells)
    refs = []
    for i, rng in enumerate(rngs):
        ref_rng = path_rng(9, "explicit", i)
        refs.append(_explicit_record(m, ref_rng, tau, cells, 1))
        assert rng.random() == ref_rng.random()
    for name, ref in zip(_RECORD_FIELDS, zip(*refs)):
        assert np.array_equal(getattr(rec, name), np.concatenate(ref)), name

    rng, ref_rng = path_rng(9, "explicit-multi", 0), \
        path_rng(9, "explicit-multi", 0)
    rec = levy.sample_record(m, f_mid[0], rng, tau=tau, cells=cells,
                             n_draws=5)
    ref = _explicit_record(m, ref_rng, tau, cells, 5)
    for name, want in zip(_RECORD_FIELDS, ref):
        assert np.array_equal(getattr(rec, name), want), name
    assert rng.random() == ref_rng.random()


def _osc2(s, y):
    y = np.asarray(y)
    return np.cos(s) * np.exp(-y[..., 0] ** 2 - 0.5 * y[..., 1] ** 2)


# (model, integrand, n_draws, extra sample_integral arguments)
SPLIT_CASES = {
    "d1": (levy.make_levy_model(1.2, 1.0, 0.5, T=1.0,
                                domain=((-2.0, 2.0),), tau=0.05),
           _osc, 2001, {}),
    "thinned": (levy.make_levy_model(
        1.1, 0.7, 1.0, T=1.0, domain=((0.0, 1.0),), tau=0.03,
        weight=lambda s, y: 1.0 + np.sin(3.0 * s) * np.asarray(y)[..., 0],
        weight_bound=2.0), _osc, 1500, {}),
    "d2": (levy.make_levy_model(0.8, 1.0, 1.0, T=0.7,
                                domain=((-1.0, 1.0), (0.0, 2.0)), tau=0.05),
           _osc2, 999, {}),
    # 0.06 expected jumps per draw: most draws, and some parts, have none
    "sparse": (levy.make_levy_model(1.5, 1.0, 1.0, T=0.1,
                                    domain=((0.0, 0.2),), tau=0.6),
               _osc, 1234, {}),
    # about 5800 expected jumps per draw: chunks of 345 draws, the second
    # one short
    "chunks": (levy.make_levy_model(1.2, 1.0, 1.0, T=1.0,
                                    domain=((-1.0, 1.0),), tau=0.002),
               _osc, 400, dict(max_expected_jumps=1e6)),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_sampler_equals_serial(case):
    """Any worker count gives the serial values and leaves the generator
    where the serial draw leaves it."""
    m, f, n, kw = SPLIT_CASES[case]
    kw = dict(kw, nt=8, nx=8)
    ref_rng = path_rng(11, case, 0)
    ref = levy.sample_integral(m, f, ref_rng, n_draws=n, **kw)
    ref_next = ref_rng.random()
    for workers in (1, 2, 3, 5):
        rng = path_rng(11, case, 0)
        tally = {}
        vals = levy.sample_integral(m, f, rng, n_draws=n, workers=workers,
                                    tally=tally, **kw)
        assert np.array_equal(vals, ref), workers
        assert rng.random() == ref_next, workers
        assert tally["parts"] == workers
    if case == "chunks":
        assert tally["chunks"] == 2
    # the record branch draws in one part whatever the worker count
    ref_vals, ref_rec = levy.sample_integral(m, f, path_rng(11, case, 0),
                                             n_draws=n, return_record=True,
                                             **kw)
    vals, rec = levy.sample_integral(m, f, path_rng(11, case, 0), n_draws=n,
                                     return_record=True, workers=3, **kw)
    assert np.array_equal(vals, ref_vals)
    for name in ("counts", "s", "y", "z", "cell_normals"):
        assert np.array_equal(getattr(rec, name), getattr(ref_rec, name))
    if case != "chunks":
        # one chunk: the tally counts the jumps the record keeps
        assert tally["jumps"] == ref_rec.counts.sum()


def test_split_sampler_keeps_the_buffered_half():
    """A 32-bit draw before the sampler leaves half an output buffered;
    the jump-ahead keeps it, as drawing the doubles does."""
    m, f, n, _ = SPLIT_CASES["d1"]
    rngs = [path_rng(3, "half", 0) for _ in range(2)]
    for workers, rng in zip((1, 4), rngs):
        rng.integers(0, 2 ** 31, dtype=np.uint32)
        levy.sample_integral(m, f, rng, n_draws=50, workers=workers, nt=4,
                             nx=4)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_split_sampler_validates_workers():
    m, f, _, _ = SPLIT_CASES["d1"]
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError, match="workers"):
            levy.sample_integral(m, f, path_rng(1, "w", 0), n_draws=3,
                                 workers=bad)
    # Philox's advance() counts 256-bit blocks, not 64-bit outputs
    for bit_gen in (np.random.MT19937(1), np.random.Philox(1)):
        with pytest.raises(TypeError, match="PCG64"):
            levy.sample_integral(m, f, np.random.Generator(bit_gen),
                                 n_draws=3, workers=2)
        # one part draws from the generator itself
        levy.sample_integral(m, f, np.random.Generator(bit_gen), n_draws=3)


def test_default_tau_honors_model_setting():
    m = levy.make_levy_model(1.0, 1.0, 1.0, tau=0.125)
    assert levy.default_tau(m) == 0.125
    auto = levy.default_tau(levy.make_levy_model(1.0, 1.0, 1.0))
    assert auto > 0


# ---------------------------------------------------------------------------
# characteristic exponent and smoothed density
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def unit_mass_model():
    return levy.make_levy_model(1.0, 1.0, 1.0, T=1.0, domain=((0.0, 1.0),))


def test_characteristic_exponent_cauchy(unit_mass_model):
    ce = levy.characteristic_exponent(unit_mass_model, ONE,
                                      np.geomspace(1.0, 100.0, 12))
    assert ce.values[0] == pytest.approx(np.pi, abs=1e-6)
    assert ce.alpha_coefficient == pytest.approx(np.pi, rel=1e-6)


def test_smoothed_density_cauchy_oracle(unit_mass_model):
    sd = levy.smoothed_density(unit_mass_model, ONE)
    sigma_c = np.pi
    assert sd.density_at(0.0) == pytest.approx(1.0 / (np.pi * sigma_c),
                                               abs=1e-6)
    # Cauchy: ||p'||_1 = 2 max p = 2 / (pi sigma)
    assert sd.derivative_l1(1) == pytest.approx(2.0 / (np.pi * sigma_c),
                                                rel=1e-4)
    assert sd.p.min() > -1e-8
    assert sd.derivative_l1(0) == pytest.approx(sd.mass, abs=1e-12)
    assert sd.mass == pytest.approx(1.0, abs=1e-3)


def test_density_requires_symmetry():
    skew = levy.make_levy_model(1.0, 1.0, 0.25, T=1.0, domain=((0.0, 1.0),))
    with pytest.raises(ValueError, match="symmetric"):
        levy.smoothed_density(skew, ONE)
