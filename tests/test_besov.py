"""Finite-difference stencils and criterion statistics.

Oracles used here, all independent of the implementation:

  * moment conditions:  sum_j c_j j^p = 0 for p < n and = n! at p = n
    (classical identity for forward differences, exact in integers);
  * exponential eigenrelation:  D_h^n e^x = e^x (e^h - 1)^n;
  * explicit stencil sum:  w sum_j c_j e^{ik(x + jh)} sample by sample, the
    reference for the closed-form criterion statistic;
  * Gaussian statistic:  |E D_h e^{ikX}| = e^{-k^2/2} |2 sin(kh/2)| for
    X ~ N(0,1), since |E e^{ikX}| = e^{-k^2/2} and the difference factors;
  * Holder seminorm of cos(kx): k^alpha sup_u 2 sin(u/2)/u^alpha, checked
    against a dense-grid maximum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambitlab import besov
from ambitlab.montecarlo import path_rng

from oracles import compose, finite_difference, make_stencil


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


def test_low_order_coefficients():
    assert make_stencil(1).coefficients == (-1, 1)
    assert make_stencil(2).coefficients == (1, -2, 1)
    assert make_stencil(3).coefficients == (-1, 3, -3, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_moment_conditions_exact(n):
    c = make_stencil(n).coefficients
    for p in range(n):
        assert sum(cj * j**p for j, cj in enumerate(c)) == 0
    assert sum(cj * j**n for j, cj in enumerate(c)) == math.factorial(n)


@given(st.integers(min_value=1, max_value=20))
def test_coefficients_alternate_and_cancel(n):
    c = make_stencil(n).coefficients
    assert sum(c) == 0
    assert all(c[j] * c[j + 1] < 0 for j in range(n))
    assert c[n] == 1


def test_compose_equals_direct_stencil():
    for a, b in ((1, 1), (2, 3), (4, 4), (1, 7)):
        assert compose(make_stencil(a), make_stencil(b)) \
            == make_stencil(a + b)


def test_compose_associative():
    s1, s2, s3 = (make_stencil(n) for n in (2, 3, 4))
    left = compose(compose(s1, s2), s3)
    right = compose(s1, compose(s2, s3))
    assert left == right == make_stencil(9)


@pytest.mark.parametrize("bad", [0, -1, 21, 2.5, True])
def test_make_stencil_rejects_bad_orders(bad):
    with pytest.raises(ValueError):
        make_stencil(bad)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_exponential_eigenrelation():
    x = np.linspace(-1.0, 1.0, 7)
    for n in (1, 2, 5):
        for h in (0.1, 0.37):
            got = finite_difference(np.exp, x, h, n)
            want = np.exp(x) * (np.exp(h) - 1.0) ** n
            assert np.allclose(got, want, rtol=1e-12)


def test_polynomial_annihilation():
    x = np.array([0.0, 0.3, 1.1])
    # D_h^n kills degree < n and maps x^n to n! h^n
    got = finite_difference(lambda t: t**2, x, 0.25, 3)
    assert np.allclose(got, 0.0, atol=1e-12)
    got = finite_difference(lambda t: t**3, x, 0.25, 3)
    assert np.allclose(got, 6.0 * 0.25**3, rtol=1e-12)


def test_default_h_grid_span():
    h = besov.default_h_grid()
    assert h.size == 16
    assert h[0] == 1.0
    assert h[-1] == pytest.approx(2.0**-15)
    assert np.all(np.diff(h) < 0)


# ---------------------------------------------------------------------------
# oscillatory family
# ---------------------------------------------------------------------------


def test_holder_sup_constant_dense_grid_oracle():
    u = np.linspace(1e-9, 2.0 * np.pi, 2_000_001)
    for alpha in (0.1, 0.25, 0.5, 0.75, 0.99):
        grid_max = float(np.max(2.0 * np.sin(u / 2.0) / u**alpha))
        assert besov.holder_sup_constant(alpha) \
            == pytest.approx(grid_max, abs=1e-9)
    assert besov.holder_sup_constant(1.0) == pytest.approx(1.0, abs=1e-8)


def test_holder_sup_constant_frozen_values():
    # maxima found by a bounded scalar minimiser (xatol 1e-12)
    frozen = {0.1: 1.78744493664742, 0.25: 1.5236453800905982,
              0.5: 1.2038366614925038, 0.75: 1.009252430246527, 1.0: 1.0}
    for alpha, want in frozen.items():
        assert besov.holder_sup_constant(alpha) \
            == pytest.approx(want, rel=1e-12, abs=0)


def test_oscillatory_norm_composition():
    for k, alpha in ((0.5, 0.5), (8.0, 0.3)):
        want = 1.0 + k**alpha * besov.holder_sup_constant(alpha)
        assert besov.oscillatory_norm(k, alpha) == pytest.approx(want)


def test_holder_sup_rejects_bad_alpha():
    for alpha in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            besov.holder_sup_constant(alpha)


# ---------------------------------------------------------------------------
# criterion statistic
# ---------------------------------------------------------------------------


def test_gaussian_statistic_matches_cf_oracle():
    x = path_rng(0, "besov-oracle", 0).standard_normal(30_000)
    stats = besov.criterion_statistic(x, None, 1, frequencies=(0.5, 1.0),
                                      normalize=False)
    for s in stats:
        k = s.frequency
        oracle = np.exp(-k * k / 2.0) * np.abs(2.0 * np.sin(k * s.h_values / 2.0))
        assert np.all(np.abs(s.stat_values - oracle) < 5.0 * s.stderr_values)


def test_fitted_slope_matches_difference_order():
    x = 0.25 * path_rng(1, "besov-slope", 0).standard_normal(50_000)
    for n in (1, 2):
        stats = besov.criterion_statistic(x, None, n, frequencies=(1.0, 2.0))
        for s in stats:
            assert s.fitted.flag == "ok"
            # stat ~ |2 sin(kh/2)|^n ~ h^n in the small-h window
            assert abs(s.fitted.slope - n) < 0.05


def test_identity_order_keeps_statistic_flat():
    x = 0.25 * path_rng(2, "besov-flat", 0).standard_normal(50_000)
    stats = besov.criterion_statistic(x, None, 0, frequencies=(1.0,))
    (s,) = stats
    assert s.fitted.flag == "ok"
    assert abs(s.fitted.slope) < 1e-6  # no h dependence at all
    assert np.allclose(s.stat_values, s.stat_values[0])


def test_normalization_divides_by_holder_norm():
    x = path_rng(3, "besov-norm", 0).standard_normal(2000)
    raw = besov.criterion_statistic(x, None, 1, frequencies=(2.0,),
                                    normalize=False)[0]
    scaled = besov.criterion_statistic(x, None, 1, frequencies=(2.0,))[0]
    assert raw.norm_constant == 1.0
    assert np.allclose(scaled.stat_values * scaled.norm_constant,
                       raw.stat_values, rtol=1e-12)


def test_zero_weights_degenerate():
    x = path_rng(4, "besov-zero", 0).standard_normal(500)
    (s,) = besov.criterion_statistic(x, np.zeros(500), 1, frequencies=(1.0,))
    assert s.fitted.flag == "degenerate"
    assert s.window == ()


@pytest.mark.parametrize("w", [1.0, 0.7])
def test_scalar_weight_equals_its_full_array(w):
    """One weight for every sample, None for unit weights and the array of
    that weight give the same statistic and standard error, bit for bit."""
    x = path_rng(10, "besov-scalar", 0).standard_normal(3000)
    full = besov.criterion_statistic(x, np.full(x.size, w), 2)
    forms = [w] + ([None] if w == 1.0 else [])
    for weights in forms:
        got = besov.criterion_statistic(x, weights, 2)
        for a, b in zip(got, full):
            assert np.array_equal(a.stat_values, b.stat_values), weights
            assert np.array_equal(a.stderr_values, b.stderr_values), weights
    # and the weight scales the statistic and its error
    for a, b in zip(full, besov.criterion_statistic(x, None, 2)):
        assert a.stat_values == pytest.approx(w * b.stat_values, rel=1e-12)
        assert a.stderr_values == pytest.approx(w * b.stderr_values,
                                                rel=1e-12)


def test_unresolvable_frequency_inconclusive():
    # sqrt(N) |phi(k)| << 3 for k = 8 on a standard normal: no window
    x = path_rng(5, "besov-weak", 0).standard_normal(500)
    (s,) = besov.criterion_statistic(x, None, 1, frequencies=(8.0,))
    assert s.fitted.flag == "inconclusive"
    assert np.isnan(s.fitted.slope)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0,
                 allow_nan=False, allow_infinity=False))
def test_statistic_translation_invariant(shift):
    x = path_rng(6, "besov-shift", 0).standard_normal(400)
    h = np.geomspace(1.0, 2.0**-6, 6)
    base = besov.criterion_statistic(x, None, 2, h_grid=h,
                                     frequencies=(1.0,))[0]
    moved = besov.criterion_statistic(x + shift, None, 2, h_grid=h,
                                      frequencies=(1.0,))[0]
    # modulus of the weighted mean is blind to a global phase e^{ik c}
    assert np.allclose(moved.stat_values, base.stat_values,
                       rtol=1e-10, atol=1e-15)


def test_criterion_input_validation():
    x = np.zeros(10)
    with pytest.raises(ValueError):
        besov.criterion_statistic(np.zeros((2, 5)), None, 1)
    with pytest.raises(ValueError, match="weights"):
        besov.criterion_statistic(x, np.ones(4), 1)
    with pytest.raises(ValueError, match="order"):
        besov.criterion_statistic(x, None, -1)
    with pytest.raises(ValueError, match="positive"):
        besov.criterion_statistic(x, None, 1, h_grid=[0.5, -0.5])
    with pytest.raises(ValueError, match="finite"):
        besov.criterion_statistic(x, np.full(10, np.nan), 1)
    with pytest.raises(ValueError, match="finite"):
        besov.criterion_statistic(np.full(10, np.inf), None, 1)


@pytest.mark.parametrize("n", range(4))
def test_closed_form_matches_stencil_sum(n):
    """The statistic and its standard error equal those of the explicit
    stencil sum sum_j c_j e^{ik(x + jh)}, weighted, sample by sample."""
    rng = path_rng(9, "besov-stencil-sum", n)
    x = rng.standard_normal(3000)
    w = rng.uniform(0.0, 2.0, 3000)
    h = np.geomspace(1.0, 2.0**-6, 7)
    freqs = (0.5, 2.0, 8.0)
    coeffs = make_stencil(n).coefficients if n else (1,)
    stats = besov.criterion_statistic(x, w, n, h_grid=h, frequencies=freqs,
                                      normalize=False)
    for s, k in zip(stats, freqs):
        for i, hv in enumerate(h):
            acc = w * sum(c * np.exp(1j * k * (x + j * hv))
                          for j, c in enumerate(coeffs))
            err = np.sqrt(acc.real.var(ddof=1) + acc.imag.var(ddof=1)) \
                / np.sqrt(x.size)
            assert s.stat_values[i] == pytest.approx(abs(acc.mean()),
                                                     rel=1e-8), (k, hv)
            assert s.stderr_values[i] == pytest.approx(err, rel=1e-8), \
                (k, hv)


def test_criterion_report_skips_unusable_fits():
    # sqrt(N) |phi(k)| << 3 at k = 4, 8 on 20,000 standard normals: the
    # two high frequencies are inconclusive at the default frequencies
    x = path_rng(7, "besov-family", 0).standard_normal(20_000)
    rep = besov.criterion_report(x, None, 1, 0.5)
    stats = rep.statistics
    assert [s.frequency for s in stats] == list(besov.DEFAULT_FREQUENCIES)
    assert [s.fitted.flag for s in stats] == ["ok"] * 3 + ["inconclusive"] * 2
    assert rep.slopes == {s.test_function_id: s.fitted.slope
                          for s in stats[:3]}
    assert rep.min_slope == min(s.fitted.slope for s in stats[:3])
    # the three resolved slopes clear 0.5, but two frequencies are undecided
    assert rep.holder_order == 0.5
    assert rep.verdict is None and rep.flag == "inconclusive"
    # slope 1 against Hölder order 1: each CI holds the threshold
    at_one = besov.criterion_report(x, None, 1, 1.0)
    assert at_one.verdict is None and at_one.flag == "inconclusive"
    # one frequency decided False decides the run: n = 0 gives slope 0
    flat = besov.criterion_report(x, None, 0, 0.5)
    assert [s.fitted.flag for s in flat.statistics] \
        == ["ok"] * 3 + ["inconclusive"] * 2
    assert flat.verdict is False and flat.flag == "ok"
    # at scale 100 no frequency resolves: no slope and no verdict
    wide = 100.0 * path_rng(5, "besov-weak", 0).standard_normal(500)
    empty = besov.criterion_report(wide, None, 1, 0.5)
    assert empty.slopes == {} and empty.min_slope is None
    assert empty.verdict is None and empty.flag == "inconclusive"
    # at scale 0.25 every frequency resolves: a conclusive run
    narrow = besov.criterion_report(0.25 * x, None, 1, 0.5)
    assert [s.fitted.flag for s in narrow.statistics] == ["ok"] * 5
    assert narrow.flag == "ok" and narrow.verdict


def test_rows_align_with_h_grid():
    x = path_rng(8, "besov-rows", 0).standard_normal(100)
    (s,) = besov.criterion_statistic(x, None, 1, frequencies=(1.0,))
    rows = s.rows()
    assert len(rows) == s.h_values.size
    assert rows[0][0] == s.h_values[0]
