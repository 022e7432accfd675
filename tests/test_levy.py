"""Stable-like basis: tail constants, sampling laws, record replay.

Oracles used here, all independent of the implementation:

  * kappa closed form -Gamma(-a) cos(pi a / 2), with kappa(1) = pi/2;
  * QUADPACK quadrature of the defining integrals of kappa, the tail,
    small-jump and cosine constants and the moment-lemma integrals;
  * the symmetric alpha=1 unit-weight basis over a set of Lebesgue measure V
    is Cauchy with scale V pi, giving its exact CF;
  * KS two-sample agreement between tau values and between T-additivity
    splits (stable laws are infinitely divisible).
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
    with pytest.raises(ValueError, match="budget"):
        levy.sample_integral(dataclasses.replace(m, tau=1e-9), ONE,
                             path_rng(1, "s", 2), n_draws=1)
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
    assert levy._check_integrand(m, cells, one) > 0


def test_tau_insensitivity_ks():
    """Halving the jump cutoff must not move the sampled law."""
    m = levy.make_levy_model(1.2, 1.0, 1.0, T=1.0, domain=(-1.0, 1.0))
    a = levy.sample_integral(dataclasses.replace(m, tau=0.05), ONE,
                             path_rng(3, "tau", 0), n_draws=4000)
    b = levy.sample_integral(dataclasses.replace(m, tau=0.025), ONE,
                             path_rng(3, "tau", 1), n_draws=4000)
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


def _explicit_integral(m, f, rng, tau, cells, n_draws):
    """(values, jump count) of n_draws sample_integral draws in one chunk,
    rebuilt from _explicit_jumps and then standard_normal(n_draws) on rng."""
    counts, s, y, z = _explicit_jumps(m, rng, tau, n_draws)
    jumps = np.bincount(np.repeat(np.arange(n_draws), counts),
                        weights=f(s, y) * z, minlength=n_draws)
    sd, comp = levy.cell_factors(m, cells)
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
    rec = levy.sample_records(m, f_mid, rngs, cells=cells)
    if case == "sparse":
        assert 0 < np.count_nonzero(rec.counts) < len(rngs)
    if case in ("positive", "negative"):
        assert rec.z.size and np.all((rec.z > 0) == (case == "positive"))
    (s0, s1), (y0, y1) = levy.jump_bounds(m)
    assert s0 == 0.0 and s1 < m.T and y0 == m.domain[0] and y1 <= m.domain[1]
    if rec.s.size:
        assert s0 <= rec.s.min() and rec.s.max() <= s1
        assert y0 <= rec.y.min() and rec.y.max() <= y1
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
                                n_draws=5, cells=cells)
    child = path_rng(9, "explicit-multi", 0).spawn(1)[0]
    want = _explicit_integral(m, f, child, tau, cells, 5)[0]
    assert vals == pytest.approx(want, rel=1e-12)

    f_mid[3, 5] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        levy.sample_records(m, f_mid, rngs, cells=cells)
    with pytest.raises(ValueError, match="one row"):
        levy.sample_records(m, f_mid[:4], rngs, cells=cells)


# (model, integrand, n_draws, extra sample_integral arguments)
SPLIT_CASES = {
    "d1": (levy.make_levy_model(1.2, 1.0, 0.5, T=1.0,
                                domain=(-2.0, 2.0), tau=0.05),
           _osc, 2001),
    # 0.06 expected jumps per draw: most draws have none
    "sparse": (levy.make_levy_model(1.5, 1.0, 1.0, T=0.1,
                                    domain=(0.0, 0.2), tau=0.6),
               _osc, 1234),
    # about 5800 expected jumps per draw: chunks of 43 draws, the tenth
    # one of 13
    "chunks": (levy.make_levy_model(1.2, 1.0, 1.0, T=1.0,
                                    domain=(-1.0, 1.0), tau=0.002),
               _osc, 400),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_sampler_equals_serial(case):
    """Any worker count gives the one-thread values and work tally (all
    but the chunk times), and the generator passed in draws nothing."""
    m, f, n = SPLIT_CASES[case]
    kw = dict(cells=levy.build_cells(m, nt=8, nx=8))
    ref_tally = {}
    ref = levy.sample_integral(m, f, path_rng(11, case, 0), n_draws=n,
                               tally=ref_tally, **kw)
    ref_tally.pop("chunk_s")
    for workers in (1, 2, 3, 5):
        rng = path_rng(11, case, 0)
        state = rng.bit_generator.state
        tally = {}
        vals = levy.sample_integral(m, f, rng, n_draws=n, workers=workers,
                                    tally=tally, **kw)
        assert np.array_equal(vals, ref), workers
        chunk_s = tally.pop("chunk_s")
        assert len(chunk_s) == tally["chunks"] and min(chunk_s) > 0
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
    m, f, n = SPLIT_CASES["chunks"]
    cells = levy.build_cells(m, nt=8, nx=8)
    rng = path_rng(11, "chunks", 0)
    tally = {}
    vals = levy.sample_integral(m, f, rng, n_draws=n, cells=cells,
                                tally=tally)
    assert tally["chunks"] == 10 and tally["draws_per_chunk"] == 43
    jumps = 0
    for c, child in enumerate(path_rng(11, "chunks", 0).spawn(10)):
        nb = min(43, n - 43 * c)
        want, tot = _explicit_integral(m, f, child, m.tau, cells, nb)
        assert vals[43 * c:43 * c + nb] == pytest.approx(want, rel=1e-12), c
        jumps += tot
    assert tally["jumps"] == jumps
    again = levy.sample_integral(m, f, rng, n_draws=n, cells=cells)
    assert not np.any(again == vals)


# (model, n_draws) of the one-number integrand tests
SKIP_CASES = {
    # c_plus != c_minus: the sign map draws both signs
    "signs": (levy.make_levy_model(1.3, 1.0, 0.3, T=1.0,
                                   domain=(-1.0, 1.0), tau=0.05), 3001),
    "sparse": SPLIT_CASES["sparse"][0::2],
    # the sparse model's five draws hold no jump: advance(0), random((2, 0))
    "empty": (SPLIT_CASES["sparse"][0], 5),
    "chunks": SPLIT_CASES["chunks"][0::2],
}


@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_constant_integrand_skips_unread_uniforms(case):
    """A one-number integrand advances past the time and position blocks
    instead of drawing them: the values and work tally (all but chunk_s
    and uniforms_per_jump) of that number returned per jump, bit for bit,
    at any worker count and on either PCG64 generator."""
    m, n = SKIP_CASES[case]
    c = -0.7
    kw = dict(n_draws=n, cells=levy.build_cells(m, nt=8, nx=8))
    rngs = {"PCG64": lambda: path_rng(13, case, 0),
            "PCG64DXSM": lambda: np.random.Generator(np.random.PCG64DXSM(13))}
    for name, make_rng in rngs.items():
        for workers in (1, 2, 3):
            one, per_jump = {}, {}
            got = levy.sample_integral(m, lambda s, y: c, make_rng(),
                                       workers=workers, tally=one, **kw)
            want = levy.sample_integral(
                m, lambda s, y: np.full(np.shape(s), c), make_rng(),
                workers=workers, tally=per_jump, **kw)
            assert np.array_equal(got, want), (name, workers)
            del one["chunk_s"], per_jump["chunk_s"]
            assert one.pop("uniforms_per_jump") == 2
            assert per_jump.pop("uniforms_per_jump") == 4
            assert one == per_jump, (name, workers)
            if name == "PCG64" and case == "empty":
                assert one["jumps"] == 0
    if case == "chunks":
        assert one["chunks"] == 10


@pytest.mark.parametrize("case", ["d1", "chunks"])
@pytest.mark.parametrize("branch", ["callable", "constant"])
def test_chunk_past_its_worker_buffer_grows_it(case, branch, monkeypatch):
    """A chunk whose jump total exceeds its worker's reused uniform buffer
    draws into a larger one: the values of buffers that hold every chunk,
    and the one-thread values and tally (all but chunk_s) at any worker
    count, on both integrand branches."""
    m, f, n = SPLIT_CASES[case]
    if branch == "constant":
        f = lambda s, y: -0.7  # noqa: E731
    kw = dict(n_draws=n, cells=levy.build_cells(m, nt=8, nx=8))
    roomy_tally = {}
    roomy = levy.sample_integral(m, f, path_rng(17, case, 0),
                                 tally=roomy_tally, **kw)
    assert roomy_tally["max_chunk_jumps"] < roomy_tally["buffer_jumps"]
    # buffers three Poisson standard deviations short of a chunk's mean
    monkeypatch.setattr(levy, "_MARGIN_SD", -3.0)
    ref_tally = {}
    ref = levy.sample_integral(m, f, path_rng(17, case, 0),
                               tally=ref_tally, **kw)
    del ref_tally["chunk_s"]
    assert ref_tally["max_chunk_jumps"] > ref_tally["buffer_jumps"]
    assert np.array_equal(ref, roomy)
    for workers in (1, 2, 3):
        tally = {}
        vals = levy.sample_integral(m, f, path_rng(17, case, 0),
                                    workers=workers, tally=tally, **kw)
        assert np.array_equal(vals, ref), workers
        del tally["chunk_s"]
        assert tally == ref_tally, workers


def test_chunk_error_hands_its_buffer_on():
    """An integrand that raises on a chunk's jumps surfaces its error; the
    chunk still returns its worker's buffer, so the chunks queued behind it
    run and the call ends."""
    m, _, n = SPLIT_CASES["chunks"]
    cells = levy.build_cells(m, nt=8, nx=8)

    def f(s, y):
        if s.size != cells.n_cells:
            raise RuntimeError("jump integrand failed")
        return np.cos(s)

    with pytest.raises(RuntimeError, match="jump integrand"):
        levy.sample_integral(m, f, path_rng(19, "chunks", 0), n_draws=n,
                             cells=cells, workers=1)


@pytest.mark.parametrize("bit_generator", [np.random.Philox,
                                           np.random.MT19937])
def test_constant_integrand_needs_a_pcg64_generator(bit_generator):
    """advance() skips one random() double per step only on PCG64 and
    PCG64DXSM, so a one-number integrand refuses any other generator; a
    per-jump integrand draws every block and takes any."""
    m, f, _ = SPLIT_CASES["d1"]
    rng = np.random.Generator(bit_generator(1))
    with pytest.raises(ValueError, match="PCG64 or PCG64DXSM"):
        levy.sample_integral(m, lambda s, y: 0.5, rng, n_draws=3,
                             cells=levy.build_cells(m, nt=4, nx=4))
    assert levy.sample_integral(m, f, rng, n_draws=3,
                                cells=levy.build_cells(m, nt=4,
                                                       nx=4)).shape == (3,)


def test_split_sampler_validates_workers():
    m, f, _ = SPLIT_CASES["d1"]
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError, match="workers"):
            levy.sample_integral(m, f, path_rng(1, "w", 0), n_draws=3,
                                 workers=bad)


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
