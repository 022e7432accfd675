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


@pytest.mark.parametrize("weight", [None, lambda s, y: 0.5 + 0.4 * np.cos(
    3.0 * s + np.asarray(y)[..., 0])], ids=["unweighted", "thinned"])
def test_stacked_records_equal_single_records(weight):
    """Draw i of sample_records is sample_record's draw from generator i,
    and each generator ends where sample_record leaves it."""
    m = levy.make_levy_model(1.2, 1.0, 0.4, T=1.0, domain=((-2.0, 2.0),),
                             tau=0.05, weight=weight, weight_bound=1.0)
    cells = levy.build_cells(m, nt=8, nx=8)
    f_mid = np.stack([np.cos(i + cells.s_mid) for i in range(5)])
    rngs = [path_rng(7, "stack", i) for i in range(5)]
    rec = levy.sample_records(m, f_mid, rngs, tau=0.05, cells=cells)
    first = np.concatenate(([0], np.cumsum(rec.counts)))
    for i, rng in enumerate(rngs):
        ref_rng = path_rng(7, "stack", i)
        ref = levy.sample_record(m, f_mid[i], ref_rng, tau=0.05, cells=cells)
        assert rec.counts[i] == ref.counts[0]
        for name in ("s", "y", "z"):
            assert np.array_equal(getattr(rec, name)[first[i]:first[i + 1]],
                                  getattr(ref, name))
        assert np.array_equal(rec.cell_normals[i], ref.cell_normals[0])
        assert rng.random() == ref_rng.random()
    f_mid[3, 5] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        levy.sample_records(m, f_mid, rngs, tau=0.05, cells=cells)
    with pytest.raises(ValueError, match="one row"):
        levy.sample_records(m, f_mid[:4], rngs, tau=0.05, cells=cells)


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
