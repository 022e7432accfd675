"""Stable-like basis: tail constants, sampling laws, record replay.

Oracles used here, all independent of the implementation:

  * kappa closed form -Gamma(-a) cos(pi a / 2), with kappa(1) = pi/2;
  * the symmetric alpha=1 unit-weight basis over a set of Lebesgue measure V
    is Cauchy with scale V pi, giving its exact CF;
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
    (dict(alpha=1.0, domain=(1.0, 1.0)), "domain"),
    (dict(alpha=1.0, domain=((-1.0, 1.0),)), "domain"),
    (dict(alpha=1.0, tau=-0.1), "tau"),
    (dict(alpha=1.0, domain=((-1.0, 1.0), (0.0, 2.0))), "domain"),
    (dict(alpha=1.0, domain=(0.0, np.inf)), "domain"),
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
    m = levy.make_levy_model(1.2, 1.0, 1.0, T=1.0, domain=(-1.0, 1.0))
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


# ---------------------------------------------------------------------------
# record / replay
# ---------------------------------------------------------------------------


def _osc(s, y):
    return np.cos(s) * np.exp(-np.asarray(y) ** 2)


def _osc_record(m, cells, stream, n_draws):
    """A sample_records record of n_draws draws against _osc, one
    generator per draw."""
    f_mid = np.tile(_osc(cells.s_mid, cells.y_mid), (n_draws, 1))
    rngs = [path_rng(7, stream, i) for i in range(n_draws)]
    return levy.sample_records(m, f_mid, rngs, tau=m.tau, cells=cells)


def test_replay_is_linear_in_the_integrand():
    m = levy.make_levy_model(1.2, 1.0, 1.0, T=1.0, tau=0.05)
    rec = _osc_record(m, levy.build_cells(m), "lin", 4)
    one = levy.replay_integral(m, rec, _osc)
    two = levy.replay_integral(m, rec, lambda s, y: 2.0 * _osc(s, y))
    assert np.allclose(two, 2.0 * one, rtol=1e-12)


def test_erase_after_preserves_history():
    """Erasing the record beyond a cut cannot change history integrals."""
    m = levy.make_levy_model(1.2, 1.0, 1.0, T=1.0, domain=(-2.0, 2.0),
                             tau=0.05)
    cells = levy.build_cells(m, nt=16, nx=16, extra_time_edges=[0.75])
    rec = _osc_record(m, cells, "rec", 3)
    hist = lambda s, y: _osc(s, y) * (s <= 0.75)
    h1 = levy.replay_integral(m, rec, hist)
    h2 = levy.replay_integral(m, rec.erase_after(0.75), hist)
    assert np.array_equal(h1, h2)


# models of the stacked-record tests, each sampled at its own tau
RECORD_CASES = {
    "unweighted": levy.make_levy_model(1.2, 1.0, 0.4, T=1.0,
                                       domain=(-2.0, 2.0), tau=0.05),
    # about 0.73 expected jumps per draw: many draws have none
    "sparse": levy.make_levy_model(1.5, 1.0, 1.0, T=1.0,
                                   domain=(0.0, 1.0), tau=1.5),
}


def _explicit_jumps(m, rng, tau, n_draws):
    """(counts, s, y, z) of the jumps of n_draws draws, rebuilt with one
    generator call per quantity: poisson, then uniform times, positions,
    signs and magnitudes over all draws."""
    rate = m.box_volume * m.c_sum * tau ** (-m.alpha) / m.alpha
    counts = rng.poisson(rate, n_draws)
    tot = int(counts.sum())
    s = rng.uniform(0.0, m.T, tot)
    y = rng.uniform(*m.domain, tot)
    sign = np.where(rng.uniform(0.0, 1.0, tot) * m.c_sum < m.c_plus,
                    1.0, -1.0)
    z = sign * (tau * rng.uniform(0.0, 1.0, tot) ** (-1.0 / m.alpha))
    return counts, s, y, z


def _explicit_integral(m, f, rng, tau, cells, n_draws):
    """(values, jump count) of n_draws sample_integral draws in one chunk,
    rebuilt from _explicit_jumps and then standard_normal(n_draws) on rng."""
    counts, s, y, z = _explicit_jumps(m, rng, tau, n_draws)
    jumps = np.bincount(np.repeat(np.arange(n_draws), counts),
                        weights=f(s, y) * z, minlength=n_draws)
    sd, comp = levy.cell_factors(m, tau, cells)
    f_cell = f(cells.s_mid, cells.y_mid)
    values = jumps + np.sqrt(np.sum((f_cell * sd) ** 2)) \
        * rng.standard_normal(n_draws) - np.sum(f_cell * comp)
    return values, counts.sum()


_RECORD_FIELDS = ("counts", "s", "y", "z", "cell_normals")


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_records_equal_explicit_uniform_draws(case):
    """sample_records gives the jumps, cell normals and generator states,
    and a one-chunk sample_integral the values, of one explicit
    uniform()/standard_normal() call per quantity."""
    m = RECORD_CASES[case]
    tau = m.tau
    cells = levy.build_cells(m, nt=8, nx=8)
    f_mid = np.stack([np.cos(i + cells.s_mid) for i in range(12)])
    rngs = [path_rng(9, "explicit", i) for i in range(12)]
    rec = levy.sample_records(m, f_mid, rngs, tau=tau, cells=cells)
    if case == "sparse":
        assert 0 < np.count_nonzero(rec.counts) < len(rngs)
    refs = []
    for i, rng in enumerate(rngs):
        ref_rng = path_rng(9, "explicit", i)
        refs.append(_explicit_jumps(m, ref_rng, tau, 1)
                    + (ref_rng.standard_normal((1, cells.n_cells)),))
        assert rng.random() == ref_rng.random()
    for name, ref in zip(_RECORD_FIELDS, zip(*refs)):
        assert np.array_equal(getattr(rec, name), np.concatenate(ref)), name

    # the chunk drawer, on the chunk's child generator: the same blocks
    # over all draws, then one normal per draw for the sub-tau Gaussian
    f = lambda s, y: np.cos(s)
    vals = levy.sample_integral(m, f, path_rng(9, "explicit-multi", 0),
                                n_draws=5, tau=tau, cells=cells)
    child = path_rng(9, "explicit-multi", 0).spawn(1)[0]
    want = _explicit_integral(m, f, child, tau, cells, 5)[0]
    assert vals == pytest.approx(want, rel=1e-12)

    f_mid[3, 5] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        levy.sample_records(m, f_mid, rngs, tau=tau, cells=cells)
    with pytest.raises(ValueError, match="one row"):
        levy.sample_records(m, f_mid[:4], rngs, tau=tau, cells=cells)


# (model, integrand, n_draws, extra sample_integral arguments)
SPLIT_CASES = {
    "d1": (levy.make_levy_model(1.2, 1.0, 0.5, T=1.0,
                                domain=(-2.0, 2.0), tau=0.05),
           _osc, 2001, {}),
    # 0.06 expected jumps per draw: most draws have none
    "sparse": (levy.make_levy_model(1.5, 1.0, 1.0, T=0.1,
                                    domain=(0.0, 0.2), tau=0.6),
               _osc, 1234, {}),
    # about 5800 expected jumps per draw: chunks of 43 draws, the tenth
    # one of 13
    "chunks": (levy.make_levy_model(1.2, 1.0, 1.0, T=1.0,
                                    domain=(-1.0, 1.0), tau=0.002),
               _osc, 400, dict(max_expected_jumps=1e6)),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_sampler_equals_serial(case):
    """Any worker count gives the one-thread values and jump tally, and
    the generator passed in draws nothing."""
    m, f, n, kw = SPLIT_CASES[case]
    kw = dict(kw, nt=8, nx=8)
    ref_tally = {}
    ref = levy.sample_integral(m, f, path_rng(11, case, 0), n_draws=n,
                               tally=ref_tally, **kw)
    for workers in (1, 2, 3, 5):
        rng = path_rng(11, case, 0)
        state = rng.bit_generator.state
        tally = {}
        vals = levy.sample_integral(m, f, rng, n_draws=n, workers=workers,
                                    tally=tally, **kw)
        assert np.array_equal(vals, ref), workers
        assert tally == ref_tally, workers
        assert rng.bit_generator.state == state, workers
    if tally["chunks"] == 1:
        # the tally counts the jumps of the chunk's explicit draw
        child = path_rng(11, case, 0).spawn(1)[0]
        counts = _explicit_jumps(m, child, m.tau, n)[0]
        assert tally["jumps"] == counts.sum()


def test_chunks_draw_from_spawned_generators():
    """Chunk c of sample_integral is explicit poisson/uniform/
    standard_normal calls on child c of the generator passed in, and a
    second call on that generator draws new values."""
    m, f, n, kw = SPLIT_CASES["chunks"]
    cells = levy.build_cells(m, nt=8, nx=8)
    rng = path_rng(11, "chunks", 0)
    tally = {}
    vals = levy.sample_integral(m, f, rng, n_draws=n, cells=cells,
                                tally=tally, **kw)
    assert tally["chunks"] == 10
    jumps = 0
    for c, child in enumerate(path_rng(11, "chunks", 0).spawn(10)):
        nb = min(43, n - 43 * c)
        want, tot = _explicit_integral(m, f, child, m.tau, cells, nb)
        assert vals[43 * c:43 * c + nb] == pytest.approx(want, rel=1e-12), c
        jumps += tot
    assert tally["jumps"] == jumps
    again = levy.sample_integral(m, f, rng, n_draws=n, cells=cells, **kw)
    assert not np.any(again == vals)


def test_split_sampler_validates_workers():
    m, f, _, _ = SPLIT_CASES["d1"]
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError, match="workers"):
            levy.sample_integral(m, f, path_rng(1, "w", 0), n_draws=3,
                                 workers=bad)


def test_default_tau_honors_model_setting():
    m = levy.make_levy_model(1.0, 1.0, 1.0, tau=0.125)
    assert levy.default_tau(m) == 0.125
    auto = levy.default_tau(levy.make_levy_model(1.0, 1.0, 1.0))
    assert auto > 0


# ---------------------------------------------------------------------------
# characteristic exponent
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def unit_mass_model():
    return levy.make_levy_model(1.0, 1.0, 1.0, T=1.0, domain=(0.0, 1.0))


def test_characteristic_exponent_cauchy(unit_mass_model):
    ce = levy.characteristic_exponent(unit_mass_model, ONE,
                                      np.geomspace(1.0, 100.0, 12))
    assert ce.values[0] == pytest.approx(np.pi, abs=1e-6)
    assert ce.alpha_coefficient == pytest.approx(np.pi, rel=1e-6)
