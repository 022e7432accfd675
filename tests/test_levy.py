"""Stable-like basis: tail constants, sampling laws, record replay.

Oracles used here, all independent of the implementation:

  * kappa closed form -Gamma(-a) cos(pi a / 2), with kappa(1) = pi/2;
  * QUADPACK quadrature of the defining integrals of kappa, the tail,
    small-jump and cosine constants and the moment-lemma integrals;
  * the symmetric alpha=1 unit-weight basis over a set of Lebesgue measure V
    is Cauchy with scale V pi, giving its exact CF;
  * the exact CF of an alpha-stable law with the basis's scale, skewness
    and 1_{[-1,1]} shift, written out from the Levy measure;
  * KS two-sample agreement between tau values of the jump sampler and
    between T-additivity splits (stable laws are infinitely divisible).
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gamma as gamma_fn

from ambitlab import levy
from ambitlab.montecarlo import path_rng

import oracles
from oracles import empirical_cf


ONE = lambda s, y: np.ones_like(s)


def _quad(f, lo, hi, **kw):
    """QUADPACK with no absolute tolerance, so that an integral of 1e-5
    still gets its 1e-12 relative accuracy."""
    return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, **kw)[0]


def _cosine_integral(alpha, xi):
    """int_0^inf (1 - cos(xi z)) z^(-1-alpha) dz: the head [0, 1/xi] with
    1 - cos written as 2 sin^2 (no cancellation near 0), the tail as
    int z^(-1-alpha) minus QUADPACK's Fourier integral QAWF.  QAWF refuses
    epsabs=0, so its tolerance is 1e-12 of the integral's size xi^alpha."""
    head = _quad(lambda z: 2.0 * np.sin(xi * z / 2.0) ** 2
                 * z ** (-1.0 - alpha), 0.0, 1.0 / xi)
    osc = integrate.quad(lambda z: z ** (-1.0 - alpha), 1.0 / xi, np.inf,
                         weight="cos", wvar=xi, epsabs=1e-12 * xi ** alpha)[0]
    return head + xi ** alpha / alpha - osc


def test_kappa_closed_form():
    assert levy.kappa_alpha(1.0) == math.pi / 2.0
    for a in (0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 1.9):
        assert levy.kappa_alpha(a) == pytest.approx(_cosine_integral(a, 1.0),
                                                    rel=1e-11)
        if a != 1.0:
            want = -gamma_fn(-a) * np.cos(np.pi * a / 2.0)
            assert levy.kappa_alpha(a) == pytest.approx(want, rel=1e-13)
    for a in (0.0, 2.0):
        with pytest.raises(ValueError):
            levy.kappa_alpha(a)


def test_normalization_mass():
    m = levy.make_levy_model(1.3, 2.0, 0.5)
    # int min(1, z^2) rho(dz) = (c+ + c-) (1/(2-a) + 1/a)
    mass = m.c_sum * (_quad(lambda z: z ** (1.0 - m.alpha), 0.0, 1.0)
                      + _quad(lambda z: z ** (-1.0 - m.alpha), 1.0, np.inf))
    assert mass == pytest.approx(2.5 * (1 / 0.7 + 1 / 1.3), rel=1e-12)


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
    (dict(alpha=1.2, tau=float("nan")), "tau must be positive and finite"),
    (dict(alpha=1.2, tau=float("inf")), "tau must be positive and finite"),
])
def test_model_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        levy.make_levy_model(**kwargs)


@pytest.mark.parametrize("change,match", [
    (dict(T=0.0), "T must"),
    (dict(T=math.nan), "T must"),
    (dict(alpha=2.0), "alpha"),
    (dict(c_plus=0.0, c_minus=0.0), "weights"),
    (dict(domain=(1.0, -1.0)), "domain"),
    (dict(tau=0.0), "tau"),
])
def test_replaced_model_is_checked(change, match):
    """The model checks its own fields, so dataclasses.replace, which
    skips the factory, is refused too (T = 0 would sample zeros)."""
    m = levy.make_levy_model(1.2)
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(m, **change)


def test_assumption_constants_symmetric_cauchy():
    ac = levy.assumption_constants(levy.make_levy_model(1.0, 1.0, 1.0))
    assert oracles.C_beta(ac, 0.0) == 2.0
    assert ac.C_bar == 2.0
    # lower cosine constant: 2 kappa(1) = pi for the symmetric unit basis
    assert ac.c_lower == math.pi
    with pytest.raises(ValueError, match="beta < alpha"):
        oracles.C_beta(ac, 1.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_assumption_constants_match_their_integrals(alpha):
    m = levy.make_levy_model(alpha, 0.7, 0.2)
    ac = levy.assumption_constants(m)
    assert ac.kappa == levy.kappa_alpha(alpha)
    for av in (0.01, 1.0, 10.0):
        for beta in (0.0, 0.5 * alpha, 0.9 * alpha):
            tail = m.c_sum * _quad(lambda z: z ** (beta - alpha - 1.0), av,
                                   np.inf)
            assert tail == pytest.approx(oracles.C_beta(ac, beta)
                                         * av ** (beta - alpha), rel=1e-10)
        small = m.c_sum * _quad(lambda z: z ** (1.0 - alpha), 0.0, av)
        assert small == pytest.approx(ac.C_bar * av ** (2.0 - alpha),
                                      rel=1e-10)
    # RePsi_rho(xi) = c_lower |xi|^alpha at every scale, not a lower bound
    for xi in (0.3, 1.0, 7.0, 100.0):
        repsi = m.c_sum * _cosine_integral(alpha, xi)
        assert repsi == pytest.approx(ac.c_lower * xi ** alpha, rel=1e-11)


def test_moment_lemma_constant_and_check():
    assert oracles.moment_lemma_constant(2.0, 1.0) == pytest.approx(2.0,
                                                                 abs=1e-14)
    with pytest.raises(ValueError, match="gamma"):
        oracles.moment_lemma_constant(1.0, 1.2)
    with pytest.raises(ValueError, match="gamma"):
        oracles.moment_lemma_constant(2.5, 1.0)
    for a in (0.5, 1.0, 1.5):
        mm = levy.make_levy_model(a, 1.0, 1.0)
        for g in (a + 0.2, 2.0):
            rep = oracles.moment_lemma_check(mm, g)
            assert rep.passed, (a, g, rep.max_violation)
            assert len(rep.a_grid) == 20
    # the closed-form integrals against quadrature; at alpha = 0.5 they are
    # near 2e-5 at a = 1e-3, below quad's default absolute tolerance
    mm = levy.make_levy_model(0.5, 1.0, 1.0)
    rep = oracles.moment_lemma_check(mm, 2.0)
    want = [mm.c_sum * _quad(lambda z: z ** 0.5, 0.0, av)
            for av in rep.a_grid]
    assert np.allclose(rep.integrals, want, rtol=1e-10, atol=0.0)


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
    one = levy.sample_integral(m, ONE, path_rng(1, "s", 0), n_draws=1)
    assert one.shape == (1,)
    seven = levy.sample_integral(m, ONE, path_rng(1, "s", 1), n_draws=7)
    assert seven.shape == (7,)
    # the jump budget binds the jump sampler; the exact law draws no jumps
    fine = dataclasses.replace(m, tau=1e-9)
    cells = levy.build_cells(fine, nt=4, nx=4)
    with pytest.raises(ValueError, match="budget"):
        levy.sample_records(fine, np.ones((1, cells.n_cells)),
                            [path_rng(1, "s", 2)], cells=cells)
    assert levy.sample_integral(fine, ONE, path_rng(1, "s", 2),
                                n_draws=3).shape == (3,)
    with pytest.raises(ValueError, match="n_draws"):
        levy.sample_integral(m, ONE, path_rng(1, "s", 3), n_draws=0)


def test_integrability_audit_catches_overflow():
    """Finite cell values whose sum of |f|^alpha vol overflows still fail
    the audit; values whose cheap bound max|f|^alpha max(vol) n_cells is
    not below 1e300 but whose sum is finite still pass it."""
    m = levy.make_levy_model(1.2, 1.0, 1.0, T=4.0, domain=(0.0, 4.0),
                             tau=0.05)
    cells = levy.build_cells(m, nt=4, nx=4)
    assert np.all(cells.cell_vol == 1.0)
    # |f|^alpha vol is a finite 1e308 per unit cell; 16 cells overflow
    edge = 1e308 ** (1.0 / m.alpha)
    with pytest.raises(ValueError, match="integrability"):
        levy.sample_integral(m, lambda s, y: np.full_like(s, edge),
                             path_rng(1, "audit", 0), n_draws=1,
                             cells=cells)
    with pytest.raises(ValueError, match="integrability"):
        levy.sample_records(m, np.full((2, cells.n_cells), -edge),
                            [path_rng(1, "audit", i) for i in range(2)],
                            cells=cells)
    # one such cell in a row: the bound fails, the exact sum does not
    one = np.zeros((1, cells.n_cells))
    one[0, 3] = edge
    levy._check_integrand(m, cells, one)


def _jump_integrals(m, f, stream, n_draws, cells):
    """n_draws integrals of f by the jump sampler: sample_records against
    f's cell values, one generator per draw, replayed by replay_integral,
    in stacks of 1000 draws."""
    f_mid = f(cells.s_mid, cells.y_mid)
    out = []
    for start in range(0, n_draws, 1000):
        rngs = [path_rng(3, stream, i)
                for i in range(start, min(start + 1000, n_draws))]
        rec = levy.sample_records(m, np.tile(f_mid, (len(rngs), 1)), rngs,
                                  cells=cells)
        out.append(levy.replay_integral(m, rec, f))
    return np.concatenate(out)


def test_tau_insensitivity_ks():
    """Halving the jump cutoff must not move the jump sampler's law."""
    m = levy.make_levy_model(1.2, 1.0, 1.0, T=1.0, domain=(-1.0, 1.0))
    cells = levy.build_cells(m, nt=8, nx=8)
    a = _jump_integrals(dataclasses.replace(m, tau=0.05), ONE, "tau-a",
                        4000, cells)
    b = _jump_integrals(dataclasses.replace(m, tau=0.025), ONE, "tau-b",
                        4000, cells)
    assert stats.ks_2samp(a, b).pvalue > 1e-3


def test_jump_integrals_match_quadrature_cf():
    """On test_08's model (symmetric alpha = 1, tau = 0.01, about 200
    jumps per draw), the jump sampler's integrals have the |CF|
    exp(-characteristic_exponent) within 5 standard errors at xi <= 1."""
    m = levy.make_levy_model(1.0, 1.0, 1.0, T=0.5, tau=0.01)
    xi = np.array([0.25, 0.5, 1.0])
    ce = levy.characteristic_exponent(m, ONE, xi)
    vals = _jump_integrals(m, ONE, "jump-cf", 40_000,
                           levy.build_cells(m, nt=8, nx=8))
    phi, err = empirical_cf(vals, xi)
    assert np.all(np.abs(np.abs(phi) - np.exp(-ce.values)) < 5.0 * err)


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
    return levy.sample_records(m, f_mid, rngs, cells=cells)


def test_replay_is_linear_in_the_integrand():
    m = levy.make_levy_model(1.2, 1.0, 1.0, T=1.0, tau=0.05)
    rec = _osc_record(m, levy.build_cells(m), "lin", 4)
    one = levy.replay_integral(m, rec, _osc)
    two = levy.replay_integral(m, rec, lambda s, y: 2.0 * _osc(s, y))
    assert np.allclose(two, 2.0 * one, rtol=1e-12)


def test_extra_time_edges_equal_np_unique():
    """build_cells merges extra time edges as np.unique would (its oracle):
    sorted, duplicates of the uniform edges and of each other dropped,
    neighbours an ulp apart kept."""
    m = levy.make_levy_model(1.2, T=2.0)
    extra = [1.5, 0.0, 0.75, np.nextafter(0.5, 1.0), 1.5, 2.0, 0.3]
    cells = levy.build_cells(m, nt=8, nx=4, extra_time_edges=extra)
    want = np.unique(np.concatenate([np.linspace(0.0, 2.0, 9), extra]))
    assert np.array_equal(cells.time_edges, want)
    assert cells.n_cells == 4 * (want.size - 1)


def test_erase_after_preserves_history():
    """Erasing the record beyond a cut cannot change history integrals."""
    m = levy.make_levy_model(1.2, 1.0, 1.0, T=1.0, domain=(-2.0, 2.0),
                             tau=0.05)
    cells = levy.build_cells(m, nt=16, nx=16, extra_time_edges=[0.75])
    rec = _osc_record(m, cells, "rec", 3)
    hist = lambda s, y: _osc(s, y) * (s <= 0.75)
    h1 = levy.replay_integral(m, rec, hist)
    h2 = levy.replay_integral(m, oracles.erase_after(rec, 0.75), hist)
    assert np.array_equal(h1, h2)


# models of the stacked-record tests, each sampled at its own tau
RECORD_CASES = {
    "unweighted": levy.make_levy_model(1.2, 1.0, 0.4, T=1.0,
                                       domain=(-2.0, 2.0), tau=0.05),
    # about 0.73 expected jumps per draw: many draws have none
    "sparse": levy.make_levy_model(1.5, 1.0, 1.0, T=1.0,
                                   domain=(0.0, 1.0), tau=1.5),
    # one-sided: the sign map flips every jump or none
    "positive": levy.make_levy_model(0.8, 1.3, 0.0, T=1.0,
                                     domain=(-1.0, 1.0), tau=0.1),
    "negative": levy.make_levy_model(1.7, 0.0, 0.6, T=1.0,
                                     domain=(-1.0, 1.0), tau=0.1),
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


_RECORD_FIELDS = ("counts", "s", "y", "z", "cell_normals")


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_records_equal_explicit_uniform_draws(case):
    """sample_records gives the jumps, cell normals and generator states
    of one explicit uniform()/standard_normal() call per quantity."""
    m = RECORD_CASES[case]
    tau = m.tau
    cells = levy.build_cells(m, nt=8, nx=8)
    f_mid = np.stack([np.cos(i + cells.s_mid) for i in range(12)])
    rngs = [path_rng(9, "explicit", i) for i in range(12)]
    rec = levy.sample_records(m, f_mid, rngs, cells=cells)
    if case == "sparse":
        assert 0 < np.count_nonzero(rec.counts) < len(rngs)
    if case in ("positive", "negative"):
        assert rec.z.size and np.all((rec.z > 0) == (case == "positive"))
    if rec.s.size:
        assert 0.0 <= rec.s.min() and rec.s.max() < m.T
        assert m.domain[0] <= rec.y.min() and rec.y.max() <= m.domain[1]
    refs = []
    for i, rng in enumerate(rngs):
        ref_rng = path_rng(9, "explicit", i)
        refs.append(_explicit_jumps(m, ref_rng, tau, 1)
                    + (ref_rng.standard_normal((1, cells.n_cells)),))
        assert rng.random() == ref_rng.random()
    for name, ref in zip(_RECORD_FIELDS, zip(*refs)):
        assert np.array_equal(getattr(rec, name), np.concatenate(ref)), name

    f_mid[3, 5] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        levy.sample_records(m, f_mid, rngs, cells=cells)
    with pytest.raises(ValueError, match="one row"):
        levy.sample_records(m, f_mid[:4], rngs, cells=cells)


# ---------------------------------------------------------------------------
# the exact stable law
# ---------------------------------------------------------------------------


def _exact_cf(m, vol, xi):
    """CF of int int 1 dL over a set of Lebesgue measure vol, from the
    Levy measure: -c_sum K |xi|^a (1 - i beta sign(xi) tan(pi a / 2)) with
    beta = c_diff / c_sum, plus i xi times the 1_{[-1,1]} shift
    c_diff vol int_1^inf z^-a dz (a > 1) or -c_diff vol int_0^1 z^-a dz
    (a < 1), both c_diff vol / (a - 1)."""
    a = m.alpha
    beta = m.c_diff / m.c_sum
    kappa = -gamma_fn(-a) * np.cos(np.pi * a / 2.0)
    psi = -m.c_sum * kappa * vol * np.abs(xi) ** a \
        * (1.0 - 1j * beta * np.sign(xi) * np.tan(np.pi * a / 2.0))
    return np.exp(psi + 1j * xi * m.c_diff * vol / (a - 1.0))


@pytest.mark.parametrize("alpha", [0.7, 1.5])
def test_stable_draws_match_the_skewed_cf(alpha):
    """A skewed basis (c+ = 1, c- = 0.2): the complex ECF of the draws is
    within 5 standard errors of the exact CF, shift included."""
    m = levy.make_levy_model(alpha, 1.0, 0.2, T=0.5, domain=(-1.0, 1.0))
    xi = np.array([0.25, 0.5, 1.0, 2.0])
    vals = levy.sample_integral(m, ONE, path_rng(21, "skew", 0),
                                n_draws=100_000)
    phi, err = empirical_cf(vals, xi)
    assert np.all(np.abs(phi - _exact_cf(m, m.box_volume, xi)) < 5.0 * err)
    _, skew, shift = levy.stable_law(m, ONE)
    assert skew == pytest.approx(0.8 / 1.2, rel=1e-12)
    assert shift == pytest.approx(0.8 / (alpha - 1.0), rel=1e-12)


def test_asymmetric_alpha_one_is_refused():
    m = levy.make_levy_model(1.0, 1.0, 0.5)
    for call in (lambda: levy.stable_law(m, ONE),
                 lambda: levy.sample_integral(m, ONE, path_rng(1, "a", 0),
                                              n_draws=3)):
        with pytest.raises(ValueError, match="asymmetric basis"):
            call()


def test_zero_integrand_returns_the_shift():
    """sigma = 0 has no scale and no skew (no 0/0): every draw is the
    shift, 0, exactly."""
    m = levy.make_levy_model(1.5, 1.0, 0.2)
    assert levy.stable_law(m, lambda s, y: np.zeros_like(s)) \
        == (0.0, 0.0, 0.0)
    vals = levy.sample_integral(m, lambda s, y: np.zeros_like(s),
                                path_rng(1, "z", 0), n_draws=5)
    assert np.array_equal(vals, np.zeros(5))


class _Uniforms:
    """A generator whose random() returns the uniforms given and whose
    standard_exponential() returns ones."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return self.u[:n].copy()

    def standard_exponential(self, n):
        return np.ones(n)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 1.9])
def test_every_draw_is_finite(alpha):
    """Uniforms at and next to both ends of [0, 1), exactly 0 included,
    give finite draws, for symmetric and one-sided bases alike."""
    k = np.arange(40) * 2.0 ** -53
    u = np.concatenate([k, 1.0 - 2.0 ** -53 - k, [0.25, 0.5]])
    weights = [(1.0, 1.0)] if alpha == 1.0 else \
        [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.2)]
    for c_plus, c_minus in weights:
        m = levy.make_levy_model(alpha, c_plus, c_minus, T=0.5)
        vals = levy.sample_integral(m, ONE, _Uniforms(u), n_draws=u.size)
        assert np.all(np.isfinite(vals)), (c_plus, c_minus)


def test_default_tau_honors_model_setting():
    m = levy.make_levy_model(1.0, 1.0, 1.0, tau=0.125)
    assert m.tau == 0.125
    auto = levy.make_levy_model(1.0, 1.0, 1.0).tau
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
