"""Spectral noise models: densities, grid geometry, variance functionals.

Closed-form oracles (computed by hand, double-checked by quadrature where
noted):

  * heat, white, d=1:  I(s) = 2 int_0^inf e^{-2 s r^2} dr = sqrt(pi/2s),
    so g(eps) = sqrt(2 pi eps);
  * wave, white, d=1:  I(s) = 2 int_0^inf sin^2(sr)/r^2 dr = pi s, so
    g(eps) = pi eps^2 / 2;
  * exponential covariance, d=1:  S(r) = (1/2pi) F(e^{-|x|/ell})(r)
    = ell / (pi (1 + (ell r)^2)); for the wave operator Lambda(s) is
    1{|x| < s}/2, so g(eps) = int_0^eps ds (1/4) int int_{|x|,|y|<s}
    e^{-|x-y|/ell} dx dy = ell eps^2/2 - (ell^2/2)(eps + (ell/2)
    expm1(-2 eps/ell));
  * riesz(beta), wave:  S(r) r^(d-1) = r^(beta-1), and the time integral
    scales as eps^3 q(eps r), so g(eps) = C eps^(3-beta) exactly.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from ambitlab import noise
from ambitlab.montecarlo import fit_scaling


HEAT = "heat"
WAVE = "wave"


# ---------------------------------------------------------------------------
# model construction and spectral densities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs,msg", [
    (dict(kind="pink", d=1, Lbox=8.0, m=64), "kind"),
    (dict(kind="white", d=0, Lbox=8.0, m=64), "dimension"),
    (dict(kind="white", d=1, Lbox=-1.0, m=64), "Lbox"),
    (dict(kind="white", d=1, Lbox=8.0, m=100), "power of two"),
    (dict(kind="white", d=1, Lbox=8.0, m=1), "power of two"),
    (dict(kind="riesz", d=1, Lbox=8.0, m=64), "riesz"),
    (dict(kind="riesz", d=1, Lbox=8.0, m=64, beta=1.5), "riesz"),
    (dict(kind="exponential", d=1, Lbox=8.0, m=64), "ell"),
    (dict(kind="exponential", d=1, Lbox=8.0, m=64, ell=-2.0), "ell"),
    (dict(kind="riesz", d=4, Lbox=8.0, m=64, beta=1.0), "dimension"),
])
def test_model_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        noise.make_noise_model(**kwargs)


@pytest.mark.parametrize("change,msg", [
    (dict(Lbox=-8.0), "Lbox"),
    (dict(Lbox=math.nan), "Lbox"),
    (dict(m=1), "at least 2"),
    (dict(d=4), "dimension"),
    (dict(kind="riesz"), "riesz"),
    (dict(kind="exponential"), "ell"),
    (dict(kind="exponential", ell=math.nan), "ell"),
])
def test_replaced_model_is_checked(change, msg):
    """The model checks its own fields, so dataclasses.replace, which
    skips the factory, is refused too."""
    model = noise.make_noise_model("white", d=1, Lbox=8.0, m=64)
    with pytest.raises(ValueError, match=msg):
        dataclasses.replace(model, **change)


def test_white_density_is_flat():
    m = noise.make_noise_model("white", d=2, Lbox=4.0, m=16)
    assert np.all(noise.spectral_density_radial(m, np.array([0.0, 1.0, 9.0]))
                  == 1.0)


def test_riesz_density_power():
    m = noise.make_noise_model("riesz", d=2, Lbox=4.0, m=16, beta=1.25)
    r = np.array([0.5, 1.0, 3.0])
    assert np.allclose(noise.spectral_density_radial(m, r), r ** (1.25 - 2))
    assert noise.spectral_density_radial(m, np.array([0.0]))[0] == np.inf


def test_exponential_density_quadrature_oracle():
    ell = 1.7
    m = noise.make_noise_model("exponential", d=1, Lbox=8.0, m=64, ell=ell)
    for r in (0.0, 0.9, 4.0):
        want, _ = integrate.quad(
            lambda x: np.exp(-abs(x) / ell) * np.cos(r * x) / (2.0 * np.pi),
            -80.0, 80.0, limit=400)
        got = noise.spectral_density_radial(m, np.array([r]))[0]
        assert got == pytest.approx(want, rel=1e-8)


def test_grid_geometry():
    m = noise.make_noise_model("white", d=1, Lbox=8.0, m=64)
    assert m.dx == 0.125
    (xi,) = noise.grid_frequencies(m)
    assert xi.size == 64
    assert xi[1] == pytest.approx(2.0 * np.pi / 8.0)


# ---------------------------------------------------------------------------
# variance functional g and exponents
# ---------------------------------------------------------------------------


def test_heat_variance_closed_form():
    m = noise.make_noise_model("white", d=1, Lbox=8.0, m=64)
    for eps in (0.05, 0.25):
        assert noise.variance_g(m, HEAT, eps) \
            == pytest.approx(np.sqrt(2.0 * np.pi * eps), rel=1e-8)
    assert noise.variance_g(m, HEAT, 0.0) == 0.0


def test_wave_variance_closed_form():
    # at small eps g is far below QAWF's default epsabs; the Fourier-weight
    # tail's absolute target is scaled to g, so g stays exact there
    m = noise.make_noise_model("white", d=1, Lbox=8.0, m=64)
    eps = np.append(np.geomspace(1e-4, 0.1, 12), 0.25)
    got = [noise.variance_g(m, WAVE, e) for e in eps]
    assert got == pytest.approx(np.pi * eps**2 / 2.0, rel=1e-12)


@pytest.mark.parametrize("d,beta", [(1, 0.5), (2, 1.0)])
def test_riesz_wave_variance_is_a_pure_power(d, beta):
    m = noise.make_noise_model("riesz", d=d, Lbox=8.0, m=64, beta=beta)
    eps = np.geomspace(1e-4, 0.1, 12)
    ratio = np.array([noise.variance_g(m, WAVE, e) for e in eps]) \
        / eps ** (3.0 - beta)
    assert ratio == pytest.approx(ratio[0], rel=1e-12)


def _quadrature_g(d, beta, operator, eps):
    """g(eps) of noise with S(r) r^(d-1) = r^(beta-1) by quadrature of the
    radial integrand, split where the time integral turns over; the wave
    tail splits into a plain part and a Fourier integral (QAWF)."""
    f = lambda r: r ** (beta - 1.0) \
        * noise.squared_time_integral(operator, eps, r)
    kw = dict(epsabs=0.0, epsrel=1e-13, limit=300)
    if operator == "heat":
        r1 = 1.0 / math.sqrt(2.0 * eps)
        total = integrate.quad(f, 0.0, r1, **kw)[0] \
            + integrate.quad(f, r1, np.inf, **kw)[0]
    else:
        r1 = 1.0 / eps
        head = integrate.quad(f, 0.0, r1, **kw)[0]
        plain = 0.5 * eps * integrate.quad(lambda r: r ** (beta - 3.0), r1,
                                           np.inf, **kw)[0]
        osc = integrate.quad(lambda r: 0.25 * r ** (beta - 4.0), r1, np.inf,
                             weight="sin", wvar=2.0 * eps,
                             epsabs=1e-13 * (head + plain), limit=300)[0]
        total = head + plain - osc
    return noise._SPHERE_AREA[d] * total


# every white and Riesz noise with beta < 2 (Dalang) in d = 1, 2, 3
_POWER_MODELS = [dict(kind="white", d=1)] + [
    dict(kind="riesz", d=d, beta=b) for d in (1, 2, 3)
    for b in (0.3, 0.7, 1.0, 1.5, 1.9) if b < d]


@pytest.mark.parametrize("op", ["heat", "wave"])
@pytest.mark.parametrize("kw", _POWER_MODELS, ids=lambda kw: "-".join(
    str(v) for v in kw.values()))
def test_closed_form_g_matches_quadrature(kw, op):
    """The quadrature that computed g before its closed form is its
    oracle."""
    m = noise.make_noise_model(Lbox=8.0, m=16, **kw)
    beta = kw.get("beta", kw["d"])
    for eps in (1e-3, 0.02, 0.3, 1.0):
        assert noise.variance_g(m, op, eps) == pytest.approx(
            _quadrature_g(kw["d"], beta, op, eps), rel=1e-11, abs=0.0)


def test_grid_variance_converges_to_continuum():
    """The summand decays like 1/(2 r^2), so truncating at the Nyquist
    radius R loses 2 * int_R^inf dr/(2 r^2) = 1/R; check that law."""
    exact = np.sqrt(2.0 * np.pi * 0.25)
    deficits = []
    for mm in (256, 512):
        m = noise.make_noise_model("white", d=1, Lbox=8.0, m=mm)
        got = noise.grid_variance_g(m, HEAT, 0.25)
        deficit = exact - got
        assert deficit == pytest.approx(1.0 / (np.pi * mm / 8.0), rel=0.05)
        deficits.append(deficit)
    assert deficits[1] == pytest.approx(deficits[0] / 2.0, rel=0.05)


def test_squared_time_integral_closed_forms():
    r = np.array([0.0, 0.3, 2.0, 40.0])
    t = 0.7
    heat = noise.squared_time_integral(HEAT, t, r)
    assert heat[0] == pytest.approx(t)
    assert np.allclose(heat[1:], (1.0 - np.exp(-2 * t * r[1:] ** 2))
                       / (2 * r[1:] ** 2))
    wave = noise.squared_time_integral(WAVE, t, r)
    assert wave[0] == pytest.approx(t**3 / 3.0)
    for rv, got in zip(r[1:], wave[1:]):
        want, _ = integrate.quad(
            lambda u: np.sin(u * rv) ** 2 / rv**2, 0.0, t)
        assert got == pytest.approx(want, rel=1e-10)


def test_wave_time_integral_has_no_cancellation():
    """The wave time integral against 50-digit arithmetic, across the
    switch from the Taylor series to the closed form at 2tr = 1/4."""
    mpmath = pytest.importorskip("mpmath")
    t = 0.7
    x = np.geomspace(1e-6, 4.0, 200)   # x = 2 t r
    r = x / (2.0 * t)
    got = noise.squared_time_integral(WAVE, t, r)
    with mpmath.workdps(50):
        for rv, g in zip(r, got):
            rm, tm = mpmath.mpf(float(rv)), mpmath.mpf(t)
            want = float((tm - mpmath.sin(2 * tm * rm) / (2 * rm))
                         / (2 * rm**2))
            assert abs(g - want) <= 1e-13 * want
    below = 0.25 / (2.0 * t) * (1.0 - 1e-12)
    above = 0.25 / (2.0 * t) * (1.0 + 1e-12)
    lo, hi = noise.squared_time_integral(WAVE, t, np.array([below, above]))
    assert abs(hi - lo) <= 1e-13 * lo
    assert noise.squared_time_integral(WAVE, np.array([0.0, t]), 0.0) \
        == pytest.approx([0.0, t**3 / 3.0], rel=1e-15)


def test_heat_time_integral_has_no_cancellation():
    """The heat time integral against 50-digit arithmetic where 2tr^2 is
    small and 1 - exp(-2tr^2) would cancel."""
    mpmath = pytest.importorskip("mpmath")
    t = 0.7
    x = np.geomspace(1e-12, 1.0, 200)   # x = 2 t r^2
    r = np.sqrt(x / (2.0 * t))
    got = noise.squared_time_integral(HEAT, t, r)
    with mpmath.workdps(50):
        for rv, g in zip(r, got):
            rm, tm = mpmath.mpf(float(rv)), mpmath.mpf(t)
            want = float(-mpmath.expm1(-2 * tm * rm**2) / (2 * rm**2))
            assert abs(g - want) <= 1e-13 * want


def test_exponent_fits_heat():
    m = noise.make_noise_model("white", d=1, Lbox=8.0, m=64)
    ex = noise.exponent_gamma(m, HEAT, np.geomspace(1e-3, 1e-1, 5))
    # closed forms, not fits: no alias or fit object is left
    assert (ex.gamma1, ex.gamma2) == (0.5, 1.0)
    assert not hasattr(ex, "gamma")


def test_exponent_fits_wave():
    m = noise.make_noise_model("white", d=1, Lbox=8.0, m=64)
    ex = noise.exponent_gamma(m, WAVE, np.geomspace(1e-3, 1e-1, 5))
    assert (ex.gamma1, ex.gamma2) == (2.0, 3.0)


_ORACLE_MODELS = [dict(kind="white", d=1)] \
    + [dict(kind="riesz", d=d, beta=b) for d, b in ((1, 0.5), (2, 1.0),
                                                   (3, 1.5))] \
    + [dict(kind="exponential", d=d, ell=0.7) for d in (1, 2, 3)]


@pytest.mark.parametrize("op", ["heat", "wave"])
@pytest.mark.parametrize("kw", _ORACLE_MODELS, ids=lambda kw: "-".join(
    str(v) for v in kw.values()))
def test_quadrature_recovers_closed_form_exponents(kw, op):
    """The closed-form exponents of each model.  For white and Riesz noise
    g is a pure power, checked against its quadrature oracle by
    test_closed_form_g_matches_quadrature; for the exponential covariance
    (not a power) the local slope of g tends to gamma1 as eps shrinks."""
    m = noise.make_noise_model(Lbox=8.0, m=16, **kw)
    eps = np.geomspace(1e-4, 0.1, 12)
    ex = noise.exponent_gamma(m, op, eps)
    beta = {"white": kw["d"], "riesz": kw.get("beta"), "exponential": 0.0}
    want = 1.0 - beta[kw["kind"]] / 2.0 if op == "heat" \
        else 3.0 - beta[kw["kind"]]
    assert ex.gamma1 == pytest.approx(want, abs=1e-12)
    assert ex.gamma2 == (1.0 if op == "heat" else 3.0)
    assert fit_scaling(eps, ex.zero_mode_values).slope \
        == pytest.approx(ex.gamma2, abs=1e-9)
    if kw["kind"] == "exponential":
        local = np.log(ex.g_values[1] / ex.g_values[0]) \
            / np.log(eps[1] / eps[0])
        assert local == pytest.approx(ex.gamma1, abs=0.02)



@pytest.mark.parametrize("op", ["heat", "wave"])
@pytest.mark.parametrize("kw", [dict(kind="white", d=1),
                                dict(kind="riesz", d=2, beta=1.0),
                                dict(kind="exponential", d=1, ell=0.7)],
                         ids=lambda kw: kw["kind"])
def test_exponent_gamma_reads_variance_g(kw, op):
    """exponent_gamma's g values are variance_g's, bit for bit, and its
    evaluation counts are the ones variance_g tallies: the quadrature's
    integrand calls, which run.log reports, and none for a closed form."""
    m = noise.make_noise_model(Lbox=8.0, m=16, **kw)
    eps = np.geomspace(1e-3, 0.1, 5)
    ex = noise.exponent_gamma(m, op, eps)
    tallies = [{} for _ in eps]
    want = [noise.variance_g(m, op, e, tally=t) for e, t in zip(eps, tallies)]
    assert ex.g_values.tolist() == want
    counts = [t["evaluations"] for t in tallies]
    if kw["kind"] == "exponential":
        assert ex.evaluations.tolist() == counts
        assert min(counts) > 0
    else:
        assert ex.evaluations is None
        assert counts == [0] * len(eps)

def test_exponential_wave_variance_closed_form():
    # with x = 2 eps/ell the closed form is (ell^3/4)(x^2/2 - x + 1 - e^-x);
    # its power series sum_{k>=3} (-1)^(k+1) x^k/k! does not cancel
    ell = 0.7
    m = noise.make_noise_model("exponential", d=1, Lbox=8.0, m=64, ell=ell)
    eps = np.geomspace(1e-4, 0.1, 12)
    x = 2 * eps / ell
    want = ell**3 / 4 * sum((-1.0) ** (k + 1) * x**k / math.factorial(k)
                            for k in range(3, 30))
    got = [noise.variance_g(m, WAVE, e) for e in eps]
    assert got == pytest.approx(want, rel=1e-12)


def test_riesz_wave_exponent_is_exact():
    beta = 0.5
    m = noise.make_noise_model("riesz", d=1, Lbox=8.0, m=64, beta=beta)
    ex = noise.exponent_gamma(m, WAVE, np.geomspace(1e-4, 0.1, 12))
    assert ex.gamma1 == 3.0 - beta


def test_exponent_grid_needs_four_points():
    m = noise.make_noise_model("white", d=1, Lbox=8.0, m=64)
    with pytest.raises(ValueError, match="4"):
        noise.exponent_gamma(m, HEAT, [0.1, 0.2, 0.3])


@pytest.mark.parametrize("kwargs,diverges", [
    (dict(kind="white", d=2), True),
    (dict(kind="white", d=3), True),
    (dict(kind="riesz", d=3, beta=2.0), True),
    (dict(kind="riesz", d=3, beta=2.5), True),
    (dict(kind="riesz", d=3, beta=1.99), False),
    (dict(kind="exponential", d=3, ell=0.7), False),
], ids=["white-d2", "white-d3", "riesz-d3-beta2", "riesz-d3-beta2.5",
        "riesz-d3-beta1.99", "exponential-d3"])
def test_dalang_failure_detected(kwargs, diverges):
    # int mu(dxi)/(1+|xi|^2) is finite iff S(r) ~ r^-p has p > d - 2;
    # e.g. riesz in d=3 needs beta < 2 (I(s) ~ s^{-beta/2} near s = 0)
    model = noise.make_noise_model(Lbox=8.0, m=16, **kwargs)
    for op in (HEAT, WAVE):
        if diverges:
            with pytest.raises(noise.DalangConditionError):
                noise.variance_g(model, op, 0.1)
        else:
            g = noise.variance_g(model, op, 0.1)
            assert np.isfinite(g) and g > 0


def test_riesz_heat_d1_is_fine():
    ok = noise.make_noise_model("riesz", d=1, Lbox=8.0, m=64, beta=0.5)
    g = noise.variance_g(ok, HEAT, 0.1)
    assert np.isfinite(g) and g > 0


# ---------------------------------------------------------------------------
# the operator and the dimension
# ---------------------------------------------------------------------------


def test_operator_dimension_limits():
    """Dalang's setting: heat or wave on R^d with d in {1, 2, 3}; the
    exponential model takes the same limit as the power laws."""
    for d in (0, 4):
        with pytest.raises(ValueError, match="dimension"):
            noise.make_noise_model("exponential", d=d, Lbox=8.0, m=16,
                                   ell=0.5)
    white = noise.make_noise_model("white", d=1, Lbox=8.0, m=16)
    # white noise takes the closed form, which never reaches the time
    # integral
    for call in (lambda: noise.squared_time_integral("hat", 0.1, 1.0),
                 lambda: noise.variance_g(white, "hat", 0.1),
                 lambda: noise.grid_variance_g(white, "hat", 0.1)):
        with pytest.raises(ValueError, match="operator 'hat'"):
            call()
