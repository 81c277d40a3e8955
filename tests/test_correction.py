import numpy as np
import pytest

import uwdg
from oracles import golub_welsch_rule, legendre_eval
from uwdg.basis import antiderivative_map, gauss_rule, legendre_table
from uwdg.correction import (_d2_table, build_correction, interface_jumps,
                             max_correction_levels, reference_interpolant,
                             second_derivative_norm, zeta_diagnostics)
from uwdg.errors import ProjectionUndefinedError
from uwdg.flux import ALTERNATING, CENTRAL, FluxConfig
from uwdg.projection import (plane_wave, project_l2, project_star,
                             time_derivative_field)

FLUX_FAMILIES = [CENTRAL, ALTERNATING, FluxConfig(0.3, 0.4, 0.4),
                 FluxConfig(0.25, 5, 0)]


def test_levels():
    assert [max_correction_levels(k) for k in (2, 3, 4, 5, 6)] == [0, 1, 1, 2, 2]


@pytest.mark.parametrize("q_max", [5, 2, -1, 1.5, 1.0, True])
def test_q_max_out_of_range_rejected(q_max):
    # k = 3 has one correction level; the CLI takes q_max in 0..1 only
    mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
    f = plane_wave(3.0)
    with pytest.raises(ValueError, match="q_max"):
        build_correction(f, 0.0, mesh, 3, CENTRAL, q_max=q_max)
    with pytest.raises(ValueError, match="q_max"):
        reference_interpolant(f, 0.0, mesh, 3, CENTRAL, q_max=q_max)
    assert build_correction(f, 0.0, mesh, 3, CENTRAL, q_max=0) == []
    assert len(build_correction(f, 0.0, mesh, 3, CENTRAL,
                                q_max=np.int64(1))) == 1


def test_unsupported_class_raises_before_any_solve(monkeypatch):
    # the global classes need a uniform mesh: central flux on a perturbed
    # one is refused before any projection or interface solve
    mesh = uwdg.make_mesh(0, 2 * np.pi, 8, "perturbed", 0.1, 1)

    def solved(*args):
        raise AssertionError("a solve ran")

    for name in ("project_l2", "_top_two"):
        monkeypatch.setattr(uwdg.correction, name, solved)
    with pytest.raises(ProjectionUndefinedError, match="is Unsupported"):
        build_correction(plane_wave(3.0), 0.0, mesh, 3, CENTRAL, q_max=1)


def test_k2_has_no_corrections():
    mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
    assert build_correction(plane_wave(3.0), 0.0, mesh, 2, CENTRAL) == []
    u_i = reference_interpolant(plane_wave(3.0), 0.0, mesh, 2, CENTRAL)
    ps = project_star(plane_wave(3.0), 0.0, mesh, 2, CENTRAL)
    np.testing.assert_array_equal(u_i.coeffs, ps.coeffs)


@pytest.mark.parametrize("cfg", FLUX_FAMILIES, ids=lambda c: c.label())
@pytest.mark.parametrize("k", [3, 4, 5])
def test_homogeneous_fluxes_and_support(cfg, k):
    f = plane_wave(3.0)
    kind = ("perturbed" if cfg.alpha1_t ** 2 + cfg.beta1_t * cfg.beta2_t
            == 0.25 else "uniform")
    mesh = uwdg.make_mesh(0, 2 * np.pi, 12, kind, 0.1, 4)
    w = build_correction(f, 0.2, mesh, k, cfg)
    scale = 3.0 ** (k + 1)     # field derivative scale entering w_q
    for q, wq in enumerate(w, start=1):
        uhat, uxt = uwdg.numerical_fluxes(wq, cfg)
        assert np.abs(uhat).max() < 1e-10 * scale
        assert np.abs(uxt).max() < 1e-10 * scale / mesh.h
        support_start = k - 1 - 2 * q
        if support_start > 0:
            assert np.abs(wq.coeffs[:, :support_start]).max() < 1e-13 * scale


def test_first_level_low_modes_vanish():
    # c^1_{j,m} = 0 for m <= k-4
    f = plane_wave(3.0)
    mesh = uwdg.make_mesh(0, 2 * np.pi, 10)
    for k in (5, 6):
        w1 = build_correction(f, 0.0, mesh, k, CENTRAL, q_max=1)[0]
        assert np.abs(w1.coeffs[:, : k - 3]).max() == 0.0


def test_size_order_k_plus_one_plus_two_q():
    f = plane_wave(3.0)
    norms = {q: [] for q in (1, 2)}
    for N in (16, 32):
        mesh = uwdg.make_mesh(0, 2 * np.pi, N)
        w = build_correction(f, 0.0, mesh, 5, CENTRAL)
        for q in (1, 2):
            norms[q].append(uwdg.l2_norm(w[q - 1]))
    assert np.log2(norms[1][0] / norms[1][1]) == pytest.approx(5 + 1 + 2, abs=0.5)
    assert np.log2(norms[2][0] / norms[2][1]) == pytest.approx(5 + 1 + 4, abs=0.8)


def test_volume_condition_against_quadrature():
    # the coefficient-product evaluation of the defining volume integral
    # against double antiderivatives equals 20-point quadrature
    f = plane_wave(3.0)
    mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
    k = 4
    ft = time_derivative_field(f, 1)
    p0 = project_l2(ft, 0.0, mesh, k)
    ps = project_star(ft, 0.0, mesh, k, CENTRAL)
    trunc = p0.coeffs - ps.coeffs               # degree <= k part of d_t w0
    rule = golub_welsch_rule(20)   # basis pins n <= 10
    pts = mesh.quad_points(rule.nodes)
    psv = ps.eval_ref(rule.nodes)
    w0t_vals = ft.eval(pts, 0.0, 0) - psv       # full d_t w0, with tail
    for m in range(k - 1):
        e = np.zeros(m + 1)
        e[m] = 1.0
        d2 = antiderivative_map(2, e)
        d2_vals = legendre_table(m + 2, rule.nodes)[:, 0, :] @ d2
        quad = 0.5 * mesh.h_sizes * ((w0t_vals * d2_vals) @ rule.weights)
        d2_pad = np.zeros(k + 1)
        d2_pad[: m + 3] = d2
        inv = 1.0 / (2 * np.arange(k + 1) + 1)
        exact = mesh.h_sizes * ((trunc * inv) @ d2_pad)
        np.testing.assert_allclose(quad, exact, atol=1e-12 * 3 ** (k + 2))


def test_cached_levels_are_time_derivatives():
    # the q = 2 level starts from d_t w_1, which is w_1 of the field d_t u;
    # cross-check it against a centered difference of w_1 in time
    f = plane_wave(3.0)
    mesh = uwdg.make_mesh(0, 2 * np.pi, 10)
    k, eps, t = 5, 1e-4, 0.3
    dt_w1 = build_correction(time_derivative_field(f, 1), t, mesh, k,
                             CENTRAL, q_max=1)[0]
    plus = build_correction(f, t + eps, mesh, k, CENTRAL, q_max=1)[0]
    minus = build_correction(f, t - eps, mesh, k, CENTRAL, q_max=1)[0]
    fd = (plus.coeffs - minus.coeffs) / (2 * eps)
    # plane wave time dependence is exp(-i 9 t): second-order FD error
    assert np.abs(dt_w1.coeffs - fd).max() < 1e-6 * np.abs(fd).max()
    # the low modes of w_2 are the volume moments of d_t w_1 against the
    # double antiderivatives: h_j/(2m+1) c_m = -i (h_j/2)^2 int d_t w_1 D2_m
    w2 = build_correction(f, t, mesh, k, CENTRAL, q_max=2)[1]
    rule = golub_welsch_rule(20)   # basis pins n <= 10
    vals = dt_w1.eval_ref(rule.nodes)                   # (N, nq)
    for m in range(k - 1):
        e = np.zeros(m + 1)
        e[m] = 1.0
        d2_vals = legendre_table(m + 2, rule.nodes)[:, 0, :] \
            @ antiderivative_map(2, e)
        moment = 0.5 * mesh.h_sizes * ((vals * d2_vals) @ rule.weights)
        expect = -1j * (mesh.h_sizes / 2) ** 2 * moment \
            * (2 * m + 1) / mesh.h_sizes
        np.testing.assert_allclose(w2.coeffs[:, m], expect, rtol=0,
                                   atol=1e-12 * np.abs(w2.coeffs).max())


def test_interpolant_keeps_interface_conditions():
    f = plane_wave(3.0)
    mesh = uwdg.make_mesh(0, 2 * np.pi, 12)
    u_i = reference_interpolant(f, 0.4, mesh, 3, CENTRAL)
    uhat, uxt = uwdg.numerical_fluxes(u_i, CENTRAL)
    xs = mesh.nodes[1:]
    assert np.abs(uhat - f.eval(xs, 0.4, 0)).max() < 1e-10
    assert np.abs(uxt - f.eval(xs, 0.4, 1)).max() < 1e-10


def test_zeta_diagnostics_zero_on_interpolant():
    f = plane_wave(3.0)
    mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
    u_i = reference_interpolant(f, 0.0, mesh, 3, CENTRAL)
    zd = zeta_diagnostics(u_i, f, 0.0, CENTRAL)
    for key, val in zd.items():
        assert val == pytest.approx(0.0, abs=1e-14), key


@pytest.mark.parametrize("k", [2, 3, 5])
def test_zeta_takes_a_given_projection(k):
    # the zeta metrics and u_I from a given P*u(t) are those built from
    # scratch, bit for bit
    f = plane_wave(3.0)
    mesh = uwdg.make_mesh(0, 2 * np.pi, 12)
    u_h = project_l2(f, 0.4, mesh, k)
    ps = project_star(f, 0.4, mesh, k, CENTRAL)
    np.testing.assert_array_equal(
        reference_interpolant(f, 0.4, mesh, k, CENTRAL, ps=ps).coeffs,
        reference_interpolant(f, 0.4, mesh, k, CENTRAL).coeffs)
    assert (zeta_diagnostics(u_h, f, 0.4, CENTRAL, ps=ps)
            == zeta_diagnostics(u_h, f, 0.4, CENTRAL))
    # and the given projection is left as it was
    np.testing.assert_array_equal(
        ps.coeffs, project_star(f, 0.4, mesh, k, CENTRAL).coeffs)


def test_d2_table_cached_read_only():
    for k in (2, 3, 6):
        tab = _d2_table(k)
        assert _d2_table(k) is tab and tab.shape == (k - 1, k + 1)
        assert not tab.flags.writeable
        for m in range(k - 1):
            np.testing.assert_array_equal(
                tab[m, :m + 3], antiderivative_map(2, np.eye(m + 1)[m]))


def test_second_derivative_norm_matches_quadrature():
    mesh = uwdg.make_mesh(0, 2 * np.pi, 8, "perturbed", 0.1, 12)
    rng = np.random.default_rng(2)
    u = uwdg.DGFunction(mesh, 4, rng.normal(size=(8, 5))
                        + 1j * rng.normal(size=(8, 5)))
    rule = gauss_rule(10)
    vals = u.eval_ref(rule.nodes, s=2)
    ref = np.sqrt(np.sum(0.5 * mesh.h_sizes * (np.abs(vals) ** 2 @ rule.weights)))
    assert second_derivative_norm(u) == pytest.approx(ref, rel=1e-12)


def test_interface_jumps_match_pointwise():
    mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
    rng = np.random.default_rng(4)
    u = uwdg.DGFunction(mesh, 3, rng.normal(size=(8, 4)).astype(complex))
    jump, djump = interface_jumps(u)
    # interface j+1/2 joins xi = 1 of cell j to xi = -1 of cell j+1,
    # and interface N-1/2 joins cell N-1 to cell 0
    for s, got in enumerate((jump, djump)):
        end, start = (u.coeffs @ [legendre_eval(m, s, xi) for m in range(4)]
                      * (2.0 / mesh.h_sizes) ** s for xi in (1.0, -1.0))
        np.testing.assert_allclose(got, np.roll(start, -1) - end,
                                   rtol=1e-13, atol=1e-13)
