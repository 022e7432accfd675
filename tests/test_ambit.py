"""Ambit fields over a stable basis: geometry, exponent bundle, coupling.

Oracles:

  * cone + constant kernel + constant sigma gives the zeroth quadrature
    in closed form c_A eps^2, so its slope is exactly 2;
  * constant-kernel slab field is a pure stable integral over a region of
    Lebesgue measure 2t, checked against the exact stable CF;
  * constant sigma and b make the frozen-coefficient approximation exact
    for every eps, including eps = t;
  * erasing the record after t - eps cannot change the surrogate part.
"""

import dataclasses

import numpy as np
import pytest

import ambitlab.ambit as am
import ambitlab.levy as lv
from ambitlab import besov
from ambitlab.montecarlo import fit_scaling, path_rng

import oracles
from oracles import empirical_cf


EPS = np.geomspace(1e-3, 0.5, 10)


@pytest.fixture(scope="module")
def model():
    return lv.make_levy_model(1.2, 0.5, 0.5, T=1.0, domain=(-1.0, 1.0))


@pytest.fixture(scope="module")
def cone_spec():
    return am.make_ambit_spec(ambit_set=am.make_cone(1.0, 1.0),
                              kernel_g=am.constant_kernel(1.0),
                              sigma=am.constant_field(1.0),
                              b=am.constant_field(0.0))


@pytest.fixture(scope="module")
def reference_spec():
    return am.make_ambit_spec(ambit_set=am.make_cone(1.0, 1.0),
                              kernel_g=am.power_kernel(0.5),
                              sigma=am.weierstrass_field(delta1=0.5,
                                                         delta2=0.5),
                              b=am.constant_field(0.0))


# ---------------------------------------------------------------------------
# geometry and field primitives
# ---------------------------------------------------------------------------


def test_cone_geometry():
    cone = am.make_cone(2.0, 0.5)
    assert cone.half_width(0.04) == pytest.approx(2.0 * 0.04**0.5)
    assert cone.max_half_width(1.0) == pytest.approx(2.0)
    with np.errstate(invalid="ignore"):
        ind = cone.indicator(1.0, 0.0, np.array([0.99, 0.99, 1.5]),
                             np.array([0.1, 0.5, 0.0]))
    assert ind.tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="aperture"):
        am.make_cone(-1.0)
    with pytest.raises(ValueError, match="zeta"):
        am.make_cone(1.0, -0.5)


def test_slab_geometry():
    slab = am.make_cone(1.5, 0.0)
    assert slab.half_width(0.7) == 1.5
    assert slab.indicator(1.0, 0.0, np.array([0.5]),
                          np.array([1.4]))[0] == 1.0


def test_kernel_families():
    g = am.power_kernel(0.5, 2.0)
    assert g(1.0, np.array([0.75]), 0.0, np.array([0.0]))[0] \
        == pytest.approx(2.0 * 0.25 ** -0.5)
    assert g.time_power == pytest.approx(-0.5)
    bump = am.bump_kernel(0.7, 1.5)
    assert bump.time_power == 0.0
    assert bump(1.0, np.array([0.5]), 0.0, np.array([0.0]))[0] \
        == pytest.approx(1.5)
    # smooth bump profile: negligible several widths out
    assert bump(1.0, np.array([0.5]), 0.0, np.array([5.0]))[0] < 1e-10
    with pytest.raises(ValueError, match="theta"):
        am.power_kernel(0.0)
    with pytest.raises(ValueError, match="width"):
        am.bump_kernel(-1.0)


def test_field_specs():
    assert am.constant_field(2.0).is_constant
    w = am.weierstrass_field(delta1=0.5, delta2=0.5)
    assert not w.is_constant
    with pytest.raises(ValueError, match="(0, 1)|lie in"):
        am.weierstrass_field(delta1=1.5)
    with pytest.raises(ValueError, match="levels"):
        am.weierstrass_field(levels=1)


def test_field_draws():
    """A Weierstrass draw is the time gains, space gains, time phases and
    space phases of its levels, drawn in that order; a constant field
    draws nothing, and its grid is its value at every path and point."""
    spec = am.weierstrass_field(delta1=0.3, delta2=0.7, levels=5)
    rng = path_rng(6, "draw", 0)
    _, decay_t, decay_x = spec.dyadic_scales
    want = [rng.standard_normal(5) * decay_t,
            rng.standard_normal(5) * decay_x,
            rng.uniform(0.0, 2.0 * np.pi, 5),
            rng.uniform(0.0, 2.0 * np.pi, 5)]
    assert np.array_equal(spec.draw(path_rng(6, "draw", 0)), want)
    const = am.constant_field(0.4)
    rng = path_rng(6, "draw", 1)
    draws = np.stack([const.draw(rng) for _ in range(3)], axis=1)
    assert draws.shape == (4, 3, 0)
    assert rng.random() == path_rng(6, "draw", 1).random()
    grid = const.grid(draws, np.array([0.1, 0.2]), np.array([0.0]))
    assert grid.shape == (3, 2, 1) and np.all(grid == 0.4)


def test_default_beta_gamma_ordering():
    for a in (0.3, 0.8, 1.0, 1.2, 1.7, 1.95):
        beta, gamma = am.default_beta_gamma(a)
        assert 0 < beta < a < gamma <= 2.0


# ---------------------------------------------------------------------------
# exponent bundle
# ---------------------------------------------------------------------------


def _integrals(spec, model, bundle, eps):
    """The slab integrals on eps of the (H4) conditions behind bundle, by
    the quadrature oracle _slab_condition_integral."""
    conds = am._conditions(spec, model.alpha, bundle.gamma)
    return {name: np.array([oracles._slab_condition_integral(e, *cond)
                            for e in eps]) for name, cond in conds.items()}


def test_cone_quadrature_closed_form(model, cone_spec):
    bundle = am.exponent_conditions(cone_spec, model)
    integrals = _integrals(cone_spec, model, bundle, EPS)
    assert bundle.gamma0 == 2.0
    assert np.allclose(integrals["gamma0"], EPS**2, rtol=1e-12)
    # constant sigma and b: no condition beyond gamma0 applies
    assert bundle.gamma1 is bundle.gamma2 is bundle.gamma3 \
        is bundle.gamma4 is None
    assert set(integrals) == {"gamma0"}
    assert bundle.gammabar == float("inf")
    assert bundle.verdict


def test_reference_spec_remark_rules(model, reference_spec):
    b2 = am.exponent_conditions(reference_spec, model, beta=0.8, gamma=2.0)
    integrals = _integrals(reference_spec, model, b2, EPS)
    # gammabar1 = (1 + zeta - theta gamma)/gamma = 0.5 here, so
    # gamma1 = gammabar1 + delta1 and gamma2 = gammabar1 + delta2 * zeta
    assert b2.gamma1 == b2.gamma2 == b2.gammabar == 1.0
    assert b2.gamma0 == pytest.approx(1.4, abs=1e-15)
    assert b2.gamma3 is None and b2.gamma4 is None
    # the quadrature rows are pure powers with these exponents
    for name, want in (("gamma0", 1.4), ("gamma1", 2.0), ("gamma2", 2.0)):
        assert fit_scaling(EPS, integrals[name]).slope \
            == pytest.approx(want, abs=1e-6)
    assert not b2.verdict  # 1.0 / 1.4 < 1 / alpha = 1 / 1.2


def test_five_condition_bundle(model):
    spec5 = am.make_ambit_spec(
        ambit_set=am.make_cone(1.0, 1.0),
        kernel_g=am.bump_kernel(0.7),
        kernel_h=am.power_kernel(0.3),
        sigma=am.weierstrass_field(delta1=0.4, delta2=0.6),
        b=am.weierstrass_field(delta1=0.3, delta2=0.7))
    b5 = am.exponent_conditions(spec5, model)
    integrals = _integrals(spec5, model, b5, EPS)
    _, gamma = am.default_beta_gamma(1.2)
    # 1 + a + q theta + zeta (1 + p), divided by gamma for gamma1/gamma2
    assert b5.gamma0 == 2.0
    assert b5.gamma1 == pytest.approx(2.0 / gamma + 0.4, abs=1e-12)
    assert b5.gamma2 == pytest.approx(2.0 / gamma + 0.6, abs=1e-12)
    assert b5.gamma3 == pytest.approx(2.0, abs=1e-12)
    assert b5.gamma4 == pytest.approx(2.4, abs=1e-12)
    assert b5.gammabar == b5.gamma1
    for name in ("gamma3", "gamma4"):
        assert fit_scaling(EPS, integrals[name]).slope \
            == pytest.approx(getattr(b5, name), abs=1e-6)


def test_bump_quadrature_is_flat_at_small_eps(model):
    """The bump kernel is the one family the quadrature does more than
    scale: its local slope tends to the closed-form exponent as eps
    shrinks, and 48 Gauss-Jacobi nodes agree with 96."""
    spec = am.make_ambit_spec(
        ambit_set=am.make_cone(1.0, 1.0), kernel_g=am.bump_kernel(0.7),
        sigma=am.weierstrass_field(delta1=0.4, delta2=0.6))
    small = np.geomspace(1e-5, 1e-3, 5)
    grid = np.append(small, EPS[1:])
    bundle = am.exponent_conditions(spec, model)
    integrals = _integrals(spec, model, bundle, grid)
    _, gamma = am.default_beta_gamma(1.2)
    conds = {"gamma0": (1.2, 0.0, 0.0), "gamma1": (gamma, 0.4 * gamma, 0.0),
             "gamma2": (gamma, 0.0, 0.6 * gamma)}
    for name, (q, a, p) in conds.items():
        want = getattr(bundle, name) * (1.0 if name == "gamma0" else gamma)
        rows = integrals[name][:small.size]
        local = np.diff(np.log(rows)) / np.diff(np.log(small))
        assert np.abs(local - want).max() <= 1e-4, name
        for e, v in zip(grid, integrals[name]):
            fine = oracles._slab_condition_integral(e, spec.kernel_g,
                                                    spec.ambit_set, q, a, p,
                                                    96)
            assert v == pytest.approx(fine, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("aset", [am.make_cone(1.3, 0.7),
                                  am.make_cone(0.8, 0.0)],
                         ids=["cone", "slab"])
@pytest.mark.parametrize("kernel", [am.constant_kernel(1.3),
                                    am.power_kernel(0.5, -0.8)],
                         ids=["constant", "power"])
def test_flat_slab_integral_matches_gauss_jacobi(kernel, aset):
    """The 48-node Gauss-Jacobi sum that computed the flat profile's slab
    integral before its closed form is its oracle."""
    from scipy.special import roots_jacobi

    for q, a, p in ((1.2, 0.0, 0.0), (1.7, 0.68, 0.0), (1.7, 0.0, 1.02)):
        b = q * kernel.time_power + aset.zeta * (1.0 + p)
        const = abs(kernel.value) ** q * 2.0 * aset.c ** (1.0 + p) / (1.0 + p)
        _, wj = roots_jacobi(48, b, a)
        for eps in EPS:
            want = const * (eps / 2.0) ** (a + b + 1.0) * wj.sum()
            got = oracles._slab_condition_integral(eps, kernel, aset, q, a, p)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_cone_aperture_homogeneity(model, cone_spec):
    wide = am.make_ambit_spec(ambit_set=am.make_cone(2.0, 1.0),
                              kernel_g=am.constant_kernel(1.0),
                              sigma=am.constant_field(1.0),
                              b=am.constant_field(0.0))
    b1 = am.exponent_conditions(cone_spec, model)
    b2 = am.exponent_conditions(wide, model)
    assert np.allclose(_integrals(wide, model, b2, EPS)["gamma0"]
                       / _integrals(cone_spec, model, b1, EPS)["gamma0"],
                       2.0, rtol=1e-12)
    assert b2.gamma0 == b1.gamma0 == 2.0


def test_divergent_kernel_names_the_condition(model):
    hot = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 0.0),
                             kernel_g=am.power_kernel(0.9),
                             sigma=am.constant_field(1.0),
                             b=am.constant_field(0.0))
    with pytest.raises(ValueError, match="gamma0"):
        am.exponent_conditions(hot, model)


def test_exponent_validation(model, cone_spec):
    # error_decay, the one reader of an eps grid, checks it before sampling
    with pytest.raises(ValueError, match=">= 4"):
        am.error_decay(cone_spec, model, 1.0, 0.0, 0.8, EPS[:3], 16)
    with pytest.raises(ValueError, match="in \\(0, t\\]"):
        am.error_decay(cone_spec, model, 1.0, 0.0, 0.8,
                       np.geomspace(0.01, 2.0, 6), 16)
    with pytest.raises(ValueError, match="beta"):
        am.exponent_conditions(cone_spec, model, beta=1.3, gamma=2.0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_zero_fields_return_start_value(model):
    spec = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 0.0),
                              sigma=am.constant_field(0.0),
                              b=am.constant_field(0.0), x0=3.25)
    disc = am.make_discretization(spec, model, 1.0, 0.0)
    assert am.make_path(spec, disc, path_rng(1, "v", 0)).values[0] == 3.25


def test_pure_drift_integrates_the_set(model):
    # g = 0, h = 1, b = 1 on [0, t] x [x-1, x+1]: X = x0 + 2t
    spec = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 0.0),
                              kernel_g=am.constant_kernel(0.0),
                              kernel_h=am.constant_kernel(1.0),
                              sigma=am.constant_field(1.0),
                              b=am.constant_field(1.0), x0=0.5)
    disc = am.make_discretization(spec, model, 1.0, 0.0)
    v = am.make_path(spec, disc, path_rng(1, "v", 1)).values[0]
    assert v == pytest.approx(2.5, rel=1e-8)


def test_slab_field_matches_stable_cf(model):
    """Constant-kernel slab value is stable(alpha) with A = c_sum K 2t."""
    lite = lv.make_levy_model(1.2, 1 / 60, 1 / 60, T=1.0,
                              domain=(-1.0, 1.0))
    spec = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 0.0),
                              kernel_g=am.constant_kernel(1.0),
                              sigma=am.constant_field(1.0),
                              b=am.constant_field(0.0))
    disc = am.make_discretization(spec, lite, 1.0, 0.0)
    vals = lv.sample_integral(disc.box_model, lambda s, y: np.ones_like(s),
                              path_rng(7, "cfx", 0), n_draws=40_000,
                              cells=disc.cells)
    A = lite.c_sum * lv.kappa_alpha(lite.alpha) * 2.0
    for xi in (0.5, 1.0, 2.0, 8.0):
        phi, se = empirical_cf(vals, np.array([xi]))
        assert abs(abs(phi[0]) - np.exp(-A * xi**lite.alpha)) < 5.0 * se[0]


# ---------------------------------------------------------------------------
# frozen-coefficient coupling
# ---------------------------------------------------------------------------


def test_constant_coefficients_freeze_exactly(model):
    spec = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 1.0),
                              kernel_g=am.power_kernel(0.5),
                              sigma=am.constant_field(1.3),
                              b=am.constant_field(0.7), x0=0.2)
    grid = (0.125, 0.25, 0.5, 1.0)
    disc = am.make_discretization(spec, model, 1.0, 0.0, eps_grid=grid)
    for i in range(5):
        path = am.make_path(spec, disc, path_rng(3, "c", i))
        for e in grid:  # includes eps = t
            parts = am.approx_parts(path, e)
            assert parts.value[0] == pytest.approx(path.values[0], abs=1e-10,
                                                   rel=1e-10)


def test_approx_parts_validation(model, reference_spec):
    disc = am.make_discretization(reference_spec, model, 1.0, 0.0,
                                  eps_grid=(0.25,))
    path = am.make_path(reference_spec, disc, path_rng(4, "w", 5))
    with pytest.raises(ValueError, match="eps"):
        am.approx_parts(path, 2.0)
    with pytest.raises(ValueError, match="eps_grid"):
        am.approx_parts(path, 0.17)


def test_erased_record_keeps_surrogate(model):
    """U^eps is measurable before the cut: erasing the slab leaves it."""
    spec = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 1.0),
                              kernel_g=am.power_kernel(0.5),
                              sigma=am.weierstrass_field(),
                              b=am.weierstrass_field(base=0.3))
    disc = am.make_discretization(spec, model, 1.0, 0.0, eps_grid=(0.25,))
    path = am.make_path(spec, disc, path_rng(4, "w", 0))
    parts = am.approx_parts(path, 0.25)
    erased = dataclasses.replace(
        path, record=oracles.erase_after(path.record, 0.75))
    parts_e = am.approx_parts(erased, 0.25)
    assert parts.u_eps[0] == parts_e.u_eps[0]
    assert parts_e.slab_noise[0] == 0.0
    # u_eps already folds in the frozen drift; the slab adds the noise term
    assert parts.value[0] == pytest.approx(parts.u_eps[0]
                                           + parts.sigma_frozen[0]
                                           * parts.slab_noise[0], rel=1e-12)


def test_coupling_triangle_replay(model):
    """|X - X^eps| decomposes as a replayed gap integral plus a drift gap."""
    spec = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 1.0),
                              kernel_g=am.power_kernel(0.5),
                              sigma=am.weierstrass_field(),
                              b=am.weierstrass_field(base=0.3))
    disc = am.make_discretization(spec, model, 1.0, 0.0, eps_grid=(0.25,))
    for i in range(10):
        path = am.make_path(spec, disc, path_rng(5, "tri", i))
        parts = am.approx_parts(path, 0.25)
        lhs = abs(path.values[0] - parts.value[0])

        def gap_int(s, y):
            sig = path.sigma_mid[0][oracles.cell_index(disc, s, y)]
            ind = spec.ambit_set.indicator(1.0, 0.0, s, y)
            gv = spec.kernel_g(1.0, s, 0.0, y)
            return ind * gv * (sig - parts.sigma_frozen[0]) \
                * (s > 0.75 + 1e-15)

        gap = lv.replay_integral(disc.box_model, path.record, gap_int)[0]
        slab = path.record.cells.s_mid > 0.75 + 1e-15
        drift_gap = float(np.sum(path.disc.drift_cell[slab]
                                 * path.b_mid[0][slab])) \
            - parts.drift_frozen[0]
        assert lhs == pytest.approx(abs(gap + drift_gap), abs=1e-10,
                                    rel=1e-8)


def _replayed_parts(path, eps):
    """The coupling of a stack of one path evaluated directly: one replay of
    the record against the history integrand and one against the sigma-free
    slab integrand."""
    disc, spec = path.disc, path.spec
    t, x = disc.t, disc.x
    t_cut = t - eps

    def unit(s, y):
        return spec.ambit_set.indicator(t, x, s, y) \
            * spec.kernel_g(t, s, x, y)

    def hist_integrand(s, y):
        return unit(s, y) \
            * path.sigma_mid[0][oracles.cell_index(disc, s, y)] \
            * (s <= t_cut + 1e-15)

    def slab_integrand(s, y):
        return unit(s, y) * (s > t_cut + 1e-15)

    hist = lv.replay_integral(disc.box_model, path.record, hist_integrand)[0]
    slab = lv.replay_integral(disc.box_model, path.record, slab_integrand)[0]
    point = (np.array([t_cut]), np.array([x]))
    sigma_frozen = oracles.field_at(spec.sigma, path.sigma_draws[:, 0],
                                    *point)[0]
    b_frozen = oracles.field_at(spec.b, path.b_draws[:, 0], *point)[0]
    in_hist = disc.cells.s_mid <= t_cut + 1e-15
    drift_hist = np.sum(path.disc.drift_cell[in_hist]
                        * path.b_mid[0][in_hist])
    drift_frozen = b_frozen * np.sum(path.disc.drift_cell[~in_hist])
    u_eps = spec.x0 + hist + drift_hist + drift_frozen
    return dict(value=u_eps + sigma_frozen * slab, u_eps=u_eps,
                slab_noise=slab, drift_history=drift_hist,
                drift_frozen=drift_frozen)


COUPLING_SPECS = pytest.mark.parametrize("spec", [
    am.make_ambit_spec(ambit_set=am.make_cone(1.0, 1.0),
                       kernel_g=am.power_kernel(0.5),
                       sigma=am.weierstrass_field(),
                       b=am.weierstrass_field(base=0.3), x0=0.2),
    am.make_ambit_spec(ambit_set=am.make_cone(0.8, 0.0),
                       kernel_g=am.bump_kernel(0.4),
                       sigma=am.weierstrass_field(delta1=0.3, delta2=0.7),
                       b=am.constant_field(0.5)),
], ids=["cone-power", "slab-bump"])
COUPLING_SKEWS = pytest.mark.parametrize("c_minus", [0.5, 0.2],
                                         ids=["symmetric", "skewed"])


@COUPLING_SPECS
@COUPLING_SKEWS
def test_one_pass_coupling_matches_replay(spec, c_minus):
    """Prefix/suffix reads of the per-row integrals equal two replays of
    the record per eps, and the separable field equals the pointwise one."""
    model = lv.make_levy_model(1.2, 0.5, c_minus, T=1.0,
                               domain=(-1.0, 1.0))
    grid = (0.03, 0.1, 0.37, 1.0)  # includes eps = t
    disc = am.make_discretization(spec, model, 1.0, 0.0, eps_grid=grid,
                                  nt=20, nx=16)
    for i in range(4):
        path = am.make_path(spec, disc, path_rng(8, "one-pass", i))
        cells = disc.cells
        direct = oracles.field_at(spec.sigma, path.sigma_draws[:, 0],
                                  cells.s_mid, cells.y_mid)
        ulp = np.spacing(np.abs(direct))
        assert np.all(np.abs(path.sigma_mid[0] - direct) <= 4 * ulp)

        def full(s, y):
            return spec.ambit_set.indicator(1.0, 0.0, s, y) \
                * spec.kernel_g(1.0, s, 0.0, y) \
                * path.sigma_mid[0][oracles.cell_index(disc, s, y)]

        value = spec.x0 \
            + lv.replay_integral(disc.box_model, path.record, full)[0] \
            + np.sum(path.disc.drift_cell * path.b_mid[0])
        assert path.values[0] == pytest.approx(value, rel=1e-10, abs=1e-12)
        for e in grid:
            parts = am.approx_parts(path, e)
            for name, ref in _replayed_parts(path, e).items():
                assert getattr(parts, name)[0] == pytest.approx(
                    ref, rel=1e-10, abs=1e-12), (name, e)


def _searchsorted_cells(edges, v):
    """The cell lookup's oracle: the binary search it replaces."""
    return np.clip(np.searchsorted(edges, v, side="right") - 1, 0,
                   edges.size - 2)


_UNIFORM = np.linspace(0.0, 1.0, 49)
LOOKUP_EDGES = {
    "uniform": np.linspace(-1.0, 1.0, 49),
    # the benchmark's time axis: 48 cells and the edges t - eps of six eps
    "eps-edges": np.unique(np.concatenate(
        [_UNIFORM, 1.0 - np.geomspace(0.02, 0.4, 6)])),
    # eps edges an ulp above one uniform edge and an ulp below another
    "ulp-apart": np.unique(np.concatenate(
        [_UNIFORM, [np.nextafter(0.5, 1.0), np.nextafter(0.75, 0.0)]])),
    # five edges inside one uniform bin
    "shared-bin": np.unique(np.concatenate(
        [_UNIFORM, 0.3 + 1e-5 * np.arange(1, 6)])),
    "irregular": np.concatenate(
        ([-2.0], np.sort(np.random.default_rng(3).uniform(-2.0, 3.0, 30)),
         [3.0])),
}


@pytest.mark.parametrize("name", sorted(LOOKUP_EDGES))
def test_cell_lookup_equals_searchsorted(name):
    """The O(1) lookup gives the binary search's cell for random points,
    every edge and both float neighbours of each, and points outside the
    box, out to the largest finite doubles."""
    edges = LOOKUP_EDGES[name]
    lookup = am._EdgeLookup(edges)
    if name in ("ulp-apart", "shared-bin"):
        assert lookup.steps >= 2    # the correction runs more than once
    lo, hi = edges[0], edges[-1]
    big = np.finfo(float).max
    v = np.concatenate([
        np.random.default_rng(4).uniform(lo, hi, 20_000),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [lo - 1.0, hi + 1.0, lo - 1e-300, 2 * hi - lo, -1e300, 1e300,
         -big, big]])
    assert np.array_equal(lookup(v), _searchsorted_cells(edges, v))


def test_cell_index_is_time_major(model, reference_spec):
    disc = am.make_discretization(reference_spec, model, 1.0, 0.0,
                                  eps_grid=np.geomspace(0.02, 0.4, 6),
                                  nt=48, nx=40)
    rng = np.random.default_rng(5)
    s, y = rng.uniform(-0.1, 1.1, 5000), rng.uniform(-1.1, 1.1, 5000)
    cells = disc.cells
    want = _searchsorted_cells(cells.time_edges, s) * 40 \
        + _searchsorted_cells(cells.space_edges, y)
    assert np.array_equal(oracles.cell_index(disc, s, y), want)
    # each cell's midpoint lies in that cell
    assert np.array_equal(oracles.cell_index(disc, cells.s_mid,
                                             cells.y_mid),
                          np.arange(cells.n_cells))


# stack sizes the ensembles are checked at: single paths, a size that
# leaves a short last stack, and the default
STACK_SIZES = (1, 5, am.PATHS_PER_STACK)


@COUPLING_SPECS
@COUPLING_SKEWS
def test_stacked_paths_equal_single_paths(spec, c_minus, monkeypatch):
    """The path ensemble draws stacks of every size in STACK_SIZES with
    sample_stack (a short last stack included).  Each stack gives each
    path exactly what make_path, a stack of one, gives it, and leaves its
    generator where make_path leaves it; so do the ensemble's X_eps,
    sigma(t, x) and jump counts."""
    model = lv.make_levy_model(1.2, 0.5, c_minus, T=1.0,
                               domain=(-1.0, 1.0))
    grid = (0.03, 0.1, 0.37, 1.0)
    disc = am.make_discretization(spec, model, 1.0, 0.0, eps_grid=grid,
                                  nt=20, nx=16)
    k = [disc.cut_row(e) for e in grid] + [-1]
    terms = [f.name for f in dataclasses.fields(am.ApproxParts)
             if f.name != "eps"]
    n = 37
    paths, path_parts, after = [], [], []
    for i in range(n):
        rng = path_rng(8, "stacked", i)
        paths.append(am.make_path(spec, disc, rng))
        path_parts.append([am.approx_parts(paths[-1], e) for e in grid])
        after.append(rng.random())
    sample = am.sample_stack
    for size in STACK_SIZES:
        monkeypatch.setattr(am, "PATHS_PER_STACK", size)
        stacks, rngs = [], []

        def spy(spec, disc, stack_rngs):
            rngs.extend(stack_rngs)
            stacks.append(sample(spec, disc, stack_rngs))
            return stacks[-1]

        monkeypatch.setattr(am, "sample_stack", spy)
        x_eps, sigma, counts = am._ensemble(spec, disc, k, n, master_seed=8,
                                            stream="stacked", workers=1)
        assert [stack.values.size for stack in stacks] \
            == [size] * (n // size) + [n % size] * bool(n % size)
        assert [rng.random() for rng in rngs] == after
        i = 0
        for stack in stacks:
            first = np.concatenate(([0], np.cumsum(stack.record.counts)))
            values = stack.values
            stack_parts = [am.approx_parts(stack, e) for e in grid]
            for j in range(values.size):
                path = paths[i]
                assert path.values[0] == values[j]
                assert np.array_equal(path.sigma_draws[:, 0],
                                      stack.sigma_draws[:, j])
                assert np.array_equal(path.b_draws[:, 0],
                                      stack.b_draws[:, j])
                assert np.array_equal(path.sigma_mid[0], stack.sigma_mid[j])
                assert np.array_equal(path.b_mid[0], stack.b_mid[j])
                jumps = slice(first[j], first[j + 1])
                for name in ("s", "y", "z"):
                    assert np.array_equal(getattr(path.record, name),
                                          getattr(stack.record, name)[jumps])
                assert np.array_equal(path.record.cell_normals[0],
                                      stack.record.cell_normals[j])
                for one, many in zip(path_parts[i], stack_parts):
                    assert one.eps == many.eps
                    for name in terms:
                        assert getattr(one, name)[0] \
                            == getattr(many, name)[j], (size, many.eps, name)
                assert x_eps[i].tolist() \
                    == [one.value[0] for one in path_parts[i]] \
                    + [path.values[0]]
                assert sigma[i] == am._parts(path, -1).sigma_frozen[0]
                assert counts[i] == path.record.counts[0]
                i += 1
        assert i == n


def test_error_decay_gaps_equal_single_path_gaps(model, reference_spec,
                                                  monkeypatch):
    eps_grid = np.geomspace(0.02, 0.4, 6)
    n, beta = 37, 0.8
    reports = []
    for size in STACK_SIZES:
        monkeypatch.setattr(am, "PATHS_PER_STACK", size)
        reports.append(am.error_decay(reference_spec, model, 1.0, 0.0, beta,
                                      eps_grid, n, master_seed=5, workers=2,
                                      nt=20, nx=16))
    disc = reports[0].discretization
    gaps, jumps = np.empty((n, eps_grid.size)), np.empty(n)
    for i in range(n):
        path = am.make_path(reference_spec, disc,
                            path_rng(5, "ambit-decay", i))
        gaps[i] = [abs(path.values[0] - am.approx_parts(path, e).value[0])
                   for e in eps_grid]
        jumps[i] = path.record.s.size
    gaps **= beta
    for dec in reports:
        assert np.array_equal(dec.means, gaps.mean(axis=0))
        assert np.array_equal(dec.stderrs,
                              gaps.std(axis=0, ddof=1) / np.sqrt(n))
        assert dec.jumps_per_path == jumps.mean()


class _InfiniteFirstGain:
    """A generator whose first normal draw, the volatility's first
    Weierstrass gain, is infinite."""

    def __init__(self, rng):
        self._rng, self._fresh = rng, True

    def standard_normal(self, *args, **kwargs):
        out = self._rng.standard_normal(*args, **kwargs)
        if self._fresh:
            out[0], self._fresh = np.inf, False
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_stacked_paths_check_every_integrand(model, reference_spec):
    disc = am.make_discretization(reference_spec, model, 1.0, 0.0,
                                  nt=12, nx=10)
    mid = am.PATHS_PER_STACK // 2
    rngs = [path_rng(9, "bad", i) for i in range(am.PATHS_PER_STACK)]
    rngs[mid] = _InfiniteFirstGain(rngs[mid])
    with np.errstate(invalid="ignore"):   # inf * 0 outside the cone
        with pytest.raises(ValueError) as single:
            am.make_path(reference_spec, disc,
                         _InfiniteFirstGain(path_rng(9, "bad", mid)))
        with pytest.raises(ValueError) as stacked:
            am.sample_stack(reference_spec, disc, rngs)
    assert "not finite" in str(single.value)
    assert str(stacked.value) == str(single.value)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def test_error_decay_reference_spec(model, reference_spec):
    dec = am.error_decay(reference_spec, model, 1.0, 0.0, 0.8,
                         np.geomspace(0.02, 0.4, 6), 400, master_seed=11,
                         gamma=2.0)
    assert dec.exponents.gammabar == pytest.approx(1.0, abs=1e-9)
    # target rate beta (1/alpha + gammabar) - 1
    assert dec.target_rate == pytest.approx(0.8 * (1 / 1.2 + 1.0) - 1.0,
                                            abs=1e-9)
    assert dec.flag == "ok"
    assert dec.passed
    assert dec.fit.slope - dec.fit.ci_halfwidth > dec.target_rate


def test_error_decay_degenerate_for_constant_fields(model):
    spec = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 1.0),
                              kernel_g=am.power_kernel(0.5),
                              sigma=am.constant_field(1.3),
                              b=am.constant_field(0.7), x0=0.2)
    dc = am.error_decay(spec, model, 1.0, 0.0, 0.8,
                        np.geomspace(0.05, 0.4, 4), 50, master_seed=11)
    assert dc.flag == "degenerate"
    assert dc.passed is None


def test_density_criterion_dirac_control(model):
    dirac = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 0.0),
                               kernel_g=am.constant_kernel(0.0),
                               sigma=am.constant_field(1.0),
                               b=am.constant_field(0.0))
    sample = am.density_sample(dirac, model, 1.0, 0.0, 0, 2000,
                               master_seed=7)
    assert sample.weights == 1.0
    rep = besov.criterion_report(sample.values, sample.weights, 0, 0.5)
    assert rep.verdict is False


@pytest.mark.parametrize("workers", [1, 2])
def test_random_volatility_density_sample_reads_each_path(model, workers):
    """Random volatility runs the path ensemble: draw i is make_path's X on
    the i-th "ambit-density" generator, weighted by |sigma_i(t, x)|^n with
    sigma_i that path's own field."""
    spec = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 1.0),
                              kernel_g=am.power_kernel(0.5),
                              sigma=am.weierstrass_field(),
                              b=am.weierstrass_field(base=0.3), x0=0.2)
    n, n_paths, seed = 2, 40, 4
    sample = am.density_sample(spec, model, 1.0, 0.0, n, n_paths,
                               master_seed=seed, workers=workers, nt=16,
                               nx=12)
    assert sample.values.shape == sample.weights.shape == (n_paths,)
    point = (np.array([1.0]), np.array([0.0]))
    for i in range(n_paths):
        path = am.make_path(spec, sample.discretization,
                            path_rng(seed, "ambit-density", i))
        assert sample.values[i] == path.values[0]
        want = abs(oracles.field_at(spec.sigma, path.sigma_draws[:, 0],
                                    *point)[0]) ** n
        assert abs(sample.weights[i] - want) <= 8 * np.spacing(want)


def test_zero_kernel_gives_a_constant_sample(model):
    """g = 0 (the benchmark's wrong case): the stochastic integral is its
    shift, 0, so every draw is x0 plus the drift."""
    spec = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 0.0),
                              kernel_g=am.constant_kernel(0.0),
                              sigma=am.constant_field(1.0),
                              b=am.constant_field(0.4), x0=0.1)
    sample = am.density_sample(spec, model, 1.0, 0.0, 0, 500, nt=8, nx=8)
    assert sample.law == (0.0, 0.0, 0.0)
    drift = float(np.sum(sample.discretization.drift_cell * 0.4))
    assert np.all(sample.values == 0.1 + drift)


@pytest.mark.parametrize("zeta,rel", [(0.0, 1e-12), (1.0, 5e-3)])
def test_power_kernel_moment_is_exact_per_row(zeta, rel):
    """int int |1_A g|^alpha of g = (t - s)^(-theta) over the cone of
    aperture c is 2 c t^(1 + zeta - theta alpha) / (1 + zeta - theta
    alpha): the law's cell integrals give it exactly on the slab and
    within 0.5% on the zeta = 1 cone at 64 x 64, where the midpoint rule
    misses the slab's by 7.6%."""
    lite = lv.make_levy_model(1.2, 1 / 60, 1 / 60, T=1.0,
                              domain=(-1.0, 1.0))
    spec = am.make_ambit_spec(ambit_set=am.make_cone(1.0, zeta),
                              kernel_g=am.power_kernel(0.5),
                              sigma=am.constant_field(1.0),
                              b=am.constant_field(0.0))
    disc = am.make_discretization(spec, lite, 1.0, 0.0)
    f = am._Integrand(spec, 1.0, 0.0, 1.0)
    unit = lite.c_sum * lv.kappa_alpha(lite.alpha)

    def moment(integrand):
        return lv.characteristic_exponent(
            disc.box_model, integrand, 1.0,
            cells=disc.cells).alpha_coefficient / unit

    q = 1.0 + zeta - 0.5 * lite.alpha
    assert moment(f) == pytest.approx(2.0 / q, rel=rel)
    if not zeta:
        midpoint = moment(lambda s, y: f(s, y))
        assert midpoint / (2.0 / q) - 1.0 == pytest.approx(-0.076, abs=5e-4)


def test_divergent_power_kernel_moment_is_refused(model):
    """theta alpha >= 1 on a slab: int int |1_A g|^alpha is infinite, so
    X(t, x) is not defined and density_sample refuses by name."""
    spec = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 0.0),
                              kernel_g=am.power_kernel(0.9),
                              sigma=am.constant_field(1.0),
                              b=am.constant_field(0.0))
    with pytest.raises(ValueError, match="diverged"):
        am.density_sample(spec, model, 1.0, 0.0, 1, 100, nt=8, nx=8)


def test_weierstrass_holder_fit():
    # (H2) by construction: E|f(s+h, y) - f(s, y)|^2 ~ h^(2 delta1) on the
    # time axis and E|f(s, y+h) - f(s, y)|^2 ~ h^(2 delta2) on the space
    # axis; unequal deltas catch a swap of the two gains
    spec = am.weierstrass_field(delta1=0.3, delta2=0.7)
    rng = path_rng(6, "h2", 0)
    lags = np.geomspace(1e-4, 1e-2, 8)
    s0, y0 = 0.3, 0.2
    d2 = {"time": [], "space": []}
    for _ in range(400):
        draw = spec.draw(rng)

        def path(s, y):
            return oracles.field_at(spec, draw, s, y)

        v0 = path(np.array([s0]), np.array([y0]))[0]
        d2["time"].append((path(s0 + lags, np.full(lags.size, y0)) - v0)**2)
        d2["space"].append((path(np.full(lags.size, s0), y0 + lags) - v0)**2)
    for axis, delta in (("time", 0.3), ("space", 0.7)):
        acc = np.array(d2[axis])
        fit = fit_scaling(lags, acc.mean(axis=0),
                          acc.std(axis=0, ddof=1) / np.sqrt(acc.shape[0]))
        assert fit.slope == pytest.approx(2.0 * delta, abs=0.2), axis
