import numpy as np
import pytest

import uwdg
from oracles import legendre_eval
from uwdg.basis import legendre_table
from uwdg.correction import build_correction
from uwdg.diagnostics import (DNE, cell_average_error, flux_errors,
                              numerical_fluxes, observed_orders, point_errors,
                              projection_error)
from uwdg.errors import ResidualUndefinedError
from uwdg.flux import ALTERNATING, CENTRAL, FluxConfig, scale_flux
from uwdg.harness import StudyConfig, run_study
from uwdg.projection import (AnalyticField, DGFunction, leading_residual,
                             plane_wave, project_l2, project_star,
                             special_points)


def zero_field():
    return AnalyticField(eval=lambda x, t, d=0: np.zeros_like(np.asarray(x, float),
                                                              dtype=complex),
                         d_max=10)


def test_flux_errors_vanish_on_matching_projection():
    f = plane_wave(3.0)
    for cfg in (CENTRAL, ALTERNATING):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 12)
        ps = project_star(f, 0.7, mesh, 3, cfg)
        e_f, e_fx = flux_errors(ps, f, 0.7, cfg)
        assert e_f < 1e-11
        assert e_fx < 1e-10


def test_flux_errors_invariant_under_corrections():
    # adding any field with vanishing numerical fluxes leaves E_f, E_fx alone
    f = plane_wave(3.0)
    mesh = uwdg.make_mesh(0, 2 * np.pi, 12)
    cfg = CENTRAL
    u_h = project_l2(f, 0.0, mesh, 3)
    w1 = build_correction(f, 0.0, mesh, 3, cfg)[0]
    base = flux_errors(u_h, f, 0.0, cfg)
    shifted = flux_errors(DGFunction(mesh, 3, u_h.coeffs + 37.0 * w1.coeffs),
                          f, 0.0, cfg)
    assert shifted[0] == pytest.approx(base[0], rel=1e-9)
    assert shifted[1] == pytest.approx(base[1], rel=1e-9)


def test_cell_average_error_vanishes_on_l2_projection():
    f = plane_wave(3.0)
    mesh = uwdg.make_mesh(0, 2 * np.pi, 10, "perturbed", 0.1, 5)
    p0 = project_l2(f, 0.0, mesh, 2)
    assert cell_average_error(p0, f, 0.0) < 1e-14


def test_projection_error_vanishes_on_projection():
    f = plane_wave(3.0)
    mesh = uwdg.make_mesh(0, 2 * np.pi, 10)
    ps = project_star(f, 0.3, mesh, 3, CENTRAL)
    assert projection_error(ps, f, 0.3, CENTRAL) < 1e-13


@pytest.mark.parametrize("cfg", [CENTRAL, FluxConfig(0.25, 5, 0)],
                         ids=lambda c: c.label())
def test_projection_error_takes_a_given_projection(cfg):
    # a given P*u(t) is the one E_P would build: the same bits
    f = plane_wave(3.0)
    mesh = uwdg.make_mesh(0, 2 * np.pi, 10)
    u_h = project_l2(f, 0.3, mesh, 3)
    ps = project_star(f, 0.3, mesh, 3, cfg)
    assert (projection_error(u_h, f, 0.3, cfg, ps=ps)
            == projection_error(u_h, f, 0.3, cfg))
    # and it is used as given
    assert projection_error(ps, f, 0.3, cfg, ps=ps) == 0.0


def test_point_errors_derivative_orders():
    # the L2 projection is no special projection: each derivative of its
    # point errors costs one power of h, orders k+1, k, k-1
    f = plane_wave(3.0)
    errs = []
    for N in (16, 32, 64):
        mesh = uwdg.make_mesh(0, 2 * np.pi, N)
        errs.append(point_errors(project_l2(f, 0.0, mesh, 3), f, 0.0,
                                 ALTERNATING))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    np.testing.assert_allclose(orders, [[4.0, 3.0, 2.0]] * 2, atol=0.2)
    assert all(e0 < e1 < e2 for e0, e1, e2 in errs)


def test_point_errors_dne_sentinel():
    f = plane_wave(3.0)
    mesh = uwdg.make_mesh(0, 2 * np.pi, 10)
    cfg = FluxConfig(0.3, 0.4, 0.4)
    u_h = project_l2(f, 0.0, mesh, 2)
    e_u, e_ux, e_uxx = point_errors(u_h, f, 0.0, cfg)
    assert e_ux == DNE
    assert isinstance(e_u, float) and isinstance(e_uxx, float)


def test_point_errors_chain_rule_scaling():
    # same coefficients against the zero field on a dilated mesh:
    # s-th derivative point errors scale as (2/h)^s
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=(8, 4)).astype(complex)
    cfg = CENTRAL
    vals = []
    for length in (2 * np.pi, np.pi):
        mesh = uwdg.make_mesh(0, length, 8)
        u = DGFunction(mesh, 3, coeffs)
        vals.append(point_errors(u, zero_field(), 0.0, cfg))
    for s in range(3):
        assert vals[1][s] / vals[0][s] == pytest.approx(2.0 ** s, rel=1e-10)


def test_point_errors_perturbed_mesh_per_cell_reference():
    # every cell has its own width, hence its own point sets
    f = plane_wave(3.0)
    k, cfg = 3, FluxConfig(0.3, 0.4, 0.4)
    mesh = uwdg.make_mesh(0, 2 * np.pi, 12, "perturbed", 0.1, 3)
    rng = np.random.default_rng(2)
    u_h = DGFunction(mesh, k, rng.normal(size=(12, k + 1))
                     + 1j * rng.normal(size=(12, k + 1)))
    sf = scale_flux(cfg, mesh.h)
    sums, counts = np.zeros(3), np.zeros(3)
    for j in range(mesh.N):
        hj = mesh.h_sizes[j]
        for s, xi in enumerate(special_points(k, hj, sf).sets()):
            x = mesh.nodes[j] + 0.5 * hj * (xi + 1.0)
            uh = sum(u_h.coeffs[j, m] * legendre_eval(m, s, xi)
                     for m in range(k + 1)) * (2.0 / hj) ** s
            sums[s] += np.sum(np.abs(f.eval(x, 0.3, s) - uh) ** 2)
            counts[s] += xi.size
    assert counts.all()
    got = point_errors(u_h, f, 0.3, cfg)
    np.testing.assert_allclose(got, np.sqrt(sums / counts), rtol=1e-12)


@pytest.mark.parametrize("kind", ["uniform", "perturbed"])
def test_point_errors_one_special_points_call(kind, monkeypatch):
    # uniform meshes of one (k, flux) share one unit-width call, however
    # many widths node roundoff gives them (six at N=640); a perturbed
    # mesh passes every width in one call per case
    import uwdg.diagnostics as diag
    calls = []

    def counted(k, h_j, sf):
        calls.append(h_j if np.size(h_j) == 1 else np.size(h_j))
        return special_points(k, h_j, sf)

    monkeypatch.setattr(diag, "special_points", counted)
    diag._unit_point_tables.cache_clear()
    for N in (320, 640):
        mesh = uwdg.make_mesh(0, 2 * np.pi, N, kind, 0.1, 1)
        if kind == "uniform":
            assert mesh.is_uniform and np.unique(mesh.h_sizes).size > 1
        u_h = project_l2(plane_wave(3.0), 0.0, mesh, 2)
        errs = point_errors(u_h, plane_wave(3.0), 0.0, CENTRAL)
        assert all(isinstance(e, float) and e > 0 for e in errs)
    assert calls == ([1.0] if kind == "uniform" else [320, 640])


def test_unit_point_tables_are_unit_width_sets_read_only():
    from uwdg.diagnostics import _unit_point_tables
    cfg = FluxConfig(0.25, 5, 0)
    sets, tabs = _unit_point_tables(3, cfg)
    assert _unit_point_tables(3, cfg) is _unit_point_tables(3, cfg)
    pts = special_points(3, 1.0, scale_flux(cfg, 1.0))
    for s, (xi, tab) in enumerate(zip(sets, tabs)):
        assert xi.tobytes() == pts.sets()[s].tobytes()
        np.testing.assert_array_equal(
            tab, legendre_table(3, xi, ders=2)[:, s, :])
        for a in (xi, tab):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0


def test_undefined_residual_dne_on_every_uniform_case():
    # beta1 puts Gamma + Lambda within roundoff of zero at k=2; the error
    # is not cached, and its note names the value at each mesh's width
    from uwdg.diagnostics import _unit_point_tables
    cfg = FluxConfig(0.5000000001, 4.00000000120004, 0)
    cached = _unit_point_tables.cache_info().currsize
    for N in (8, 16, 32):
        mesh = uwdg.make_mesh(0, 2 * np.pi, N)
        with pytest.raises(ResidualUndefinedError) as at_h:
            leading_residual(2, mesh.h, scale_flux(cfg, mesh.h))
        u_h = project_l2(plane_wave(3.0), 0.0, mesh, 2)
        with pytest.raises(ResidualUndefinedError) as exc:
            point_errors(u_h, plane_wave(3.0), 0.0, cfg)
        assert str(exc.value) == str(at_h.value)
    assert _unit_point_tables.cache_info().currsize == cached
    rep = run_study(StudyConfig(k=2, Ns=(8, 16, 32), flux=cfg, t_end=0.0,
                                init="l2", metrics=("eu", "eux", "euxx")))
    for row in rep.rows:
        assert row["eu"] == row["eux"] == row["euxx"] == DNE
        assert row["status"].startswith(
            "ok (points skipped: leading residual undefined")


def test_observed_orders_examples():
    assert observed_orders([1e-2, 2.5e-3], [10, 20]) == [pytest.approx(2.0)]
    assert observed_orders([5.0, 5.0, 5.0], [8, 16, 32]) == [
        pytest.approx(0.0), pytest.approx(0.0)]


def test_observed_orders_requires_doubling():
    with pytest.raises(ValueError):
        observed_orders([1.0, 0.5], [10, 30])


def test_observed_orders_undefined_entries():
    out = observed_orders([1e-2, 0.0, np.nan], [10, 20, 40])
    assert out == [None, None]


def test_numerical_fluxes_single_valued_consistency():
    # for a globally continuous field the fluxes equal the trace values
    mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
    u = DGFunction(mesh, 2, np.zeros((8, 3), complex))
    u.coeffs[:, 0] = 3.0 + 1.0j
    uhat, uxt = numerical_fluxes(u, FluxConfig(0.3, 0.4, 0.4))
    np.testing.assert_allclose(uhat, 3.0 + 1.0j, atol=1e-14)
    np.testing.assert_allclose(uxt, 0.0, atol=1e-14)
