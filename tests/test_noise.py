"""Spectral noise models: densities, grid synthesis, variance functionals.

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

import numpy as np
import pytest
from scipy import integrate

from ambitlab import noise, operators
from ambitlab.montecarlo import path_rng


HEAT = operators.heat_operator(1)
WAVE = operators.wave_operator(1)


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
])
def test_model_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        noise.make_noise_model(**kwargs)


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
    assert m.cell_volume == 0.125
    (xi,) = noise.grid_frequencies(m)
    assert xi.size == 64
    assert xi[1] == pytest.approx(2.0 * np.pi / 8.0)
    (x,) = noise.grid_points(m)
    assert x[0] == -4.0 and x[-1] == pytest.approx(4.0 - 0.125)
    assert m.cutoff == pytest.approx(np.pi * 64 / 8.0)


# ---------------------------------------------------------------------------
# increment synthesis
# ---------------------------------------------------------------------------


def test_white_increment_point_variance():
    """Each mode carries dt * (2 pi / L), so one grid value has variance
    m * dt * (2 pi / L) = 2 pi dt / dx (the delta-correlation divergence)."""
    m = noise.make_noise_model("white", d=1, Lbox=8.0, m=64)
    dt = 0.01
    rng = path_rng(0, "noise-var", 0)
    sq = np.mean([noise.sample_increment(m, dt, rng).values**2
                  for _ in range(400)])
    want = 2.0 * np.pi * dt / m.dx
    assert sq == pytest.approx(want, rel=0.05)


def test_increment_is_real_and_shaped():
    m2 = noise.make_noise_model("white", d=2, Lbox=4.0, m=16)
    inc = noise.sample_increment(m2, 0.1, path_rng(1, "noise-2d", 0))
    assert inc.values.shape == (16, 16)
    assert inc.values.dtype == np.float64
    assert inc.cell_volume == pytest.approx(0.25**2)


def test_zero_and_negative_dt():
    m = noise.make_noise_model("white", d=1, Lbox=8.0, m=64)
    assert np.all(noise.sample_increment(m, 0.0, path_rng(0, "z", 0)).values
                  == 0.0)
    with pytest.raises(ValueError):
        noise.sample_increment(m, -0.1, path_rng(0, "z", 0))


def test_inner_product_white_is_scaled_l2():
    m = noise.make_noise_model("white", d=1, Lbox=16.0, m=256)
    (x,) = noise.grid_points(m)
    phi = np.exp(-(x**2))
    # <phi, phi>_H = (2 pi)^d ||phi||_2^2 = 2 pi sqrt(pi/2)
    want = 2.0 * np.pi * np.sqrt(np.pi / 2.0)
    assert noise.inner_product_H(m, phi, phi) == pytest.approx(want, rel=1e-8)


def test_inner_product_shift_invariance():
    m = noise.make_noise_model("exponential", d=1, Lbox=16.0, m=128, ell=0.7)
    (x,) = noise.grid_points(m)
    phi = np.exp(-(x**2))
    psi = np.exp(-2.0 * (x - 0.5) ** 2)
    a = noise.inner_product_H(m, phi, psi)
    b = noise.inner_product_H(m, np.roll(phi, 9), np.roll(psi, 9))
    assert a == pytest.approx(b, rel=1e-10)
    with pytest.raises(ValueError, match="grid"):
        noise.inner_product_H(m, phi[:5], psi[:5])


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
    m = noise.make_noise_model("white", d=1, Lbox=8.0, m=64)
    for eps in (0.1, 0.25):
        assert noise.variance_g(m, WAVE, eps) \
            == pytest.approx(np.pi * eps**2 / 2.0, rel=1e-7)


def test_grid_variance_converges_to_continuum():
    """The summand decays like 1/(2 r^2), so truncating at the Nyquist
    radius R loses 2 * int_R^inf dr/(2 r^2) = 1/R; check that law."""
    exact = np.sqrt(2.0 * np.pi * 0.25)
    deficits = []
    for mm in (256, 512):
        m = noise.make_noise_model("white", d=1, Lbox=8.0, m=mm)
        got = noise.grid_variance_g(m, HEAT, 0.25)
        deficit = exact - got
        assert deficit == pytest.approx(1.0 / m.cutoff, rel=0.05)
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


def test_exponent_fits_heat():
    m = noise.make_noise_model("white", d=1, Lbox=8.0, m=64)
    ex = noise.exponent_gamma(m, HEAT, np.geomspace(1e-3, 1e-1, 5))
    assert ex.gamma.flag == "ok"
    assert ex.gamma.slope == pytest.approx(0.5, abs=1e-6)
    assert ex.gamma1.slope == ex.gamma.slope
    assert ex.gamma2.slope == pytest.approx(1.0, abs=1e-9)


def test_exponent_fits_wave():
    m = noise.make_noise_model("white", d=1, Lbox=8.0, m=64)
    ex = noise.exponent_gamma(m, WAVE, np.geomspace(1e-3, 1e-1, 5))
    assert ex.gamma.slope == pytest.approx(2.0, abs=1e-4)
    assert ex.gamma2.slope == pytest.approx(3.0, abs=1e-9)


def test_exponential_wave_variance_closed_form():
    ell = 0.7
    m = noise.make_noise_model("exponential", d=1, Lbox=8.0, m=64, ell=ell)
    eps = np.geomspace(1e-4, 0.1, 12)
    want = ell * eps**2 / 2 - (ell**2 / 2) * (
        eps + (ell / 2) * np.expm1(-2 * eps / ell))
    got = [noise.variance_g(m, WAVE, e) for e in eps]
    assert got == pytest.approx(want, rel=1e-4)


def test_riesz_wave_exponent_is_exact():
    beta = 0.5
    m = noise.make_noise_model("riesz", d=1, Lbox=8.0, m=64, beta=beta)
    ex = noise.exponent_gamma(m, WAVE, np.geomspace(1e-4, 0.1, 12))
    assert ex.gamma.slope == pytest.approx(3.0 - beta, abs=1e-6)


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
    d = kwargs["d"]
    for lam in (operators.heat_operator(d), operators.wave_operator(d)):
        if diverges:
            with pytest.raises(noise.DalangConditionError):
                noise.variance_g(model, lam, 0.1)
        else:
            g = noise.variance_g(model, lam, 0.1)
            assert np.isfinite(g) and g > 0


def test_riesz_heat_d1_is_fine():
    ok = noise.make_noise_model("riesz", d=1, Lbox=8.0, m=64, beta=0.5)
    g = noise.variance_g(ok, HEAT, 0.1)
    assert np.isfinite(g) and g > 0


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def test_fundamental_solution_transforms():
    r = np.array([0.0, 0.5, 2.0])
    assert np.allclose(HEAT.fourier_radial(0.3, r), np.exp(-0.3 * r**2))
    w = WAVE.fourier_radial(0.3, r)
    assert w[0] == pytest.approx(0.3)
    assert np.allclose(w[1:], np.sin(0.3 * r[1:]) / r[1:])
    assert HEAT.mass_sup(3.0) == 1.0
    assert WAVE.mass_sup(3.0) == 3.0


def test_operator_dimension_limits():
    with pytest.raises(ValueError):
        operators.heat_operator(0)
    with pytest.raises(ValueError):
        operators.wave_operator(4)
