import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import uwdg
from oracles import (bloch_project_star, golub_welsch_rule, legendre_eval,
                     residual_eval)
from uwdg.basis import (gauss_rule, legendre_derivative_matrix,
                        legendre_table)
from uwdg.errors import (ProjectionUndefinedError, ResidualUndefinedError,
                         SingularSymbolError)
from uwdg.flux import (ALTERNATING, CENTRAL, ROOT_CLUSTER_TOL, ROOT_EDGE_TOL,
                       ROOT_IMAG_TOL, ROOT_MERGE_TOL, ROOT_VALUE_TOL,
                       FluxConfig, _symbol_inverse, scale_flux, symbol_conds,
                       trace_maps)
from uwdg.projection import (AnalyticField, DGFunction, LeadingResidual,
                             _footprints, _top_two_global, _top_two_local,
                             _uniform_footprints, interface_data,
                             leading_residual, legendre_roots, plane_wave,
                             project_l2, project_star, special_points,
                             time_derivative_field)

FLUX_FAMILIES = [CENTRAL, ALTERNATING, FluxConfig(0.3, 0.4, 0.4),
                 FluxConfig(0.25, 5, 0)]


def dg_field(u: DGFunction) -> AnalyticField:
    """Expose a DG function as an exact-solution provider on [a, b]: each
    point is evaluated in its own cell by legendre_eval."""
    mesh = u.mesh

    def _eval(x, t, d=0):
        x = np.asarray(x, dtype=float)
        j = np.clip(np.searchsorted(mesh.nodes, x, side="right") - 1,
                    0, mesh.N - 1)
        xi = 2.0 * (x - mesh.nodes[j]) / mesh.h_sizes[j] - 1.0
        return (sum(u.coeffs[j, m] * legendre_eval(m, d, xi)
                    for m in range(u.k + 1))
                * (2.0 / mesh.h_sizes[j]) ** d)

    return AnalyticField(eval=_eval, d_max=2)


def poly_field(mono_coeffs) -> AnalyticField:
    mono = np.asarray(mono_coeffs, dtype=complex)

    def _eval(x, t, d=0):
        c = mono
        for _ in range(d):
            c = np.polynomial.polynomial.polyder(c)
        return np.polynomial.polynomial.polyval(np.asarray(x, float), c)

    return AnalyticField(eval=_eval, d_max=10)


class TestPlaneWaveField:
    def test_derivative_identity(self):
        f = plane_wave(3.0)
        x = np.linspace(0, 2 * np.pi, 7)
        for d in range(5):
            np.testing.assert_allclose(f.eval(x, 0.4, d),
                                       (3j) ** d * f.eval(x, 0.4, 0),
                                       rtol=1e-13)

    def test_solves_the_equation(self):
        # i u_t + u_xx = 0  <=>  d_t u = i d_x^2 u
        f = plane_wave(3.0)
        ft = time_derivative_field(f, 1)
        x = np.linspace(0, 2 * np.pi, 7)
        eps = 1e-6
        fd = (f.eval(x, 0.2 + eps, 0) - f.eval(x, 0.2 - eps, 0)) / (2 * eps)
        np.testing.assert_allclose(ft.eval(x, 0.2, 0), fd, rtol=1e-8)

    def test_periodicity(self):
        f = plane_wave(3.0)
        assert f.eval(0.0, 1.0, 0) == pytest.approx(f.eval(2 * np.pi, 1.0, 0))

    @staticmethod
    def counted_exps(monkeypatch) -> list:
        """The arguments of every np.exp that uwdg.projection takes."""
        exps = []

        class CountedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, z):
                exps.append(z)
                return np.exp(z)

        monkeypatch.setattr(uwdg.projection, "np", CountedNumpy())
        return exps

    @staticmethod
    def closed_form(kappa, x, t, d):
        return (1j * kappa) ** d * np.exp(1j * kappa * (x - kappa * t))

    @pytest.mark.parametrize("kappa", [3.0, 1.0])
    def test_one_phase_per_read_only_points_and_t(self, kappa, monkeypatch):
        exps = self.counted_exps(monkeypatch)
        mesh = uwdg.make_mesh(0, 2 * np.pi, 12, "perturbed", 0.1, 3)
        quad = mesh.quad_points(gauss_rule(5).nodes)
        free = np.linspace(0.1, 6.0, 7)
        f = plane_wave(kappa)
        for t in (0.0, 0.37):
            for _ in range(2):
                for x in (quad, mesh.interfaces, free):
                    for d in range(5):
                        assert f.eval(x, t, d).tobytes() \
                            == self.closed_form(kappa, x, t, d).tobytes()
        # one per read-only array and t; the writable points every call
        assert len(exps) == 2 * 2 + 2 * 2 * 5
        free += 0.25                # a writable array is read anew
        assert f.eval(free, 0.37, 2).tobytes() \
            == self.closed_form(kappa, free, 0.37, 2).tobytes()
        assert f.eval(mesh.interfaces, 1.5, 1).tobytes() \
            == self.closed_form(kappa, mesh.interfaces, 1.5, 1).tobytes()
        assert len(exps) == 4 + 20 + 2

    def test_time_derivative_reads_the_phase(self, monkeypatch):
        exps = self.counted_exps(monkeypatch)
        mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
        x = mesh.quad_points(gauss_rule(4).nodes)
        f = plane_wave(3.0)
        f.eval(x, 0.2, 0)
        for r in (1, 2):
            for d in range(3):
                assert time_derivative_field(f, r).eval(x, 0.2, d).tobytes() \
                    == ((1j ** r) * self.closed_form(3.0, x, 0.2, d + 2 * r)
                        ).tobytes()
        assert len(exps) == 1


class TestDGFunction:
    def test_coefficients_are_required(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
        with pytest.raises(TypeError):
            DGFunction(mesh, 2)

    def test_coefficients_of_wrong_shape_rejected(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
        for shape in ((8, 2), (7, 3), (8, 3, 1)):
            with pytest.raises(ValueError, match="wrong shape"):
                DGFunction(mesh, 2, np.zeros(shape))
        u = DGFunction(mesh, 2, np.ones((8, 3)))
        assert u.coeffs.dtype == complex


class TestL2Projection:
    def test_reproduces_piecewise_polynomials(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 8, "perturbed", 0.1, 2)
        rng = np.random.default_rng(0)
        u = DGFunction(mesh, 3, rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4)))
        p = project_l2(dg_field(u), 0.0, mesh, 3)
        np.testing.assert_allclose(p.coeffs, u.coeffs, atol=1e-13)

    def test_orthogonality_to_higher_mode(self):
        # a pure degree k+1 Legendre mode projects to zero
        mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
        hi = DGFunction(mesh, 4, np.zeros((8, 5), complex))
        hi.coeffs[:, 4] = 1.0
        p = project_l2(dg_field(hi), 0.0, mesh, 3)
        np.testing.assert_allclose(p.coeffs, 0.0, atol=1e-13)

    @pytest.mark.parametrize("kind", ["uniform", "perturbed"])
    def test_scaling_after_table_product(self, kind):
        # coeffs = (f at the nodes @ weighted table) * (2m+1)/2, bit for
        # bit: folding the scaling into the table moves Table 7 rows
        f = plane_wave(3.0)
        mesh = uwdg.make_mesh(0, 2 * np.pi, 16, kind, 0.1, 3)
        rule = gauss_rule(10)
        fv = f.eval(mesh.quad_points(rule.nodes), 0.5, 0)
        wtab = legendre_table(3, rule.nodes)[:, 0, :] * rule.weights[:, None]
        np.testing.assert_array_equal(
            project_l2(f, 0.5, mesh, 3).coeffs,
            (fv @ wtab) * ((2 * np.arange(4) + 1) / 2.0))

    def test_order_k_plus_one(self):
        f = plane_wave(3.0)
        errs = []
        for N in (40, 80, 160):
            mesh = uwdg.make_mesh(0, 2 * np.pi, N)
            errs.append(uwdg.broken_l2_error(project_l2(f, 0.0, mesh, 2), f, 0.0))
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        np.testing.assert_allclose(orders, 3.0, atol=0.1)


class TestFluxMatchingProjection:
    @pytest.mark.parametrize("cfg", FLUX_FAMILIES, ids=lambda c: c.label())
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_interface_conditions(self, cfg, k):
        f = plane_wave(3.0)
        kind = ("perturbed" if cfg.alpha1_t ** 2 + cfg.beta1_t * cfg.beta2_t
                == 0.25 else "uniform")
        mesh = uwdg.make_mesh(0, 2 * np.pi, 16, kind, 0.1, 5)
        ps = project_star(f, 0.3, mesh, k, cfg)
        uhat, uxt = uwdg.numerical_fluxes(ps, cfg)
        xs = mesh.nodes[1:]
        assert np.abs(uhat - f.eval(xs, 0.3, 0)).max() < 1e-10
        assert np.abs(uxt - f.eval(xs, 0.3, 1)).max() < 1e-10

    @pytest.mark.parametrize("k, N, cfg", [
        (3, 20, CENTRAL), (3, 40, CENTRAL),                 # A2, Table 5
        (3, 20, FluxConfig(0.25, 5, 0)),                    # A3, Table 7
        (2, 20, ALTERNATING),                               # A1, local
    ], ids=["central_N20", "central_N40", "table7_N20", "alternating_N20"])
    def test_uniform_projection_is_one_cell_bloch_solve(self, k, N, cfg):
        # exp(3ix) on a uniform mesh excites the one Bloch frequency
        # w = exp(3ih): cell 0 of the projection is the 2x2 interface solve
        # of the oracle, in 30 digits.  A backward error of one eps per
        # rounding in the right-hand side, of size |e| + |M_low| |c_low|
        # + |M| |y|, moves y by up to cond(M) / |M| times it; the symbol
        # M = A + w B has cond(M) <= symbol_conds.  Each right-hand entry
        # sums at most 2(k+1) products, and the FFT and inverse FFT of N
        # points add about log2(N) roundings each
        pytest.importorskip("mpmath")
        mesh = uwdg.make_mesh(0, 2 * np.pi, N)
        got = project_star(plane_wave(3.0), 0.0, mesh, k, cfg).coeffs[0]
        want = bloch_project_star(3.0, k, N,
                                  (cfg.alpha1_t, cfg.beta1_t, cfg.beta2_t))
        low, A, B = _uniform_footprints(k, cfg, mesh.h)
        w = np.exp(3j * mesh.h)
        M, M_low = A + w * B, low[:, :2].T + w * low[:, 2:].T
        conds = symbol_conds(M[0, 0], M[0, 1], M[1, 0], M[1, 1])
        norm = np.linalg.norm
        terms = (norm([w, 3j * w]) + norm(M_low) * norm(want[:k - 1])
                 + norm(M) * norm(want[k - 1:]))
        roundings = 2 * (k + 1) + 2 * np.log2(N)
        tol = np.finfo(float).eps * conds * roundings * terms / norm(M)
        assert np.abs(got - want).max() <= tol

    def test_low_moments_match_l2_projection(self):
        f = plane_wave(3.0)
        mesh = uwdg.make_mesh(0, 2 * np.pi, 12)
        k = 4
        ps = project_star(f, 0.0, mesh, k, CENTRAL)
        p0 = project_l2(f, 0.0, mesh, k)
        np.testing.assert_allclose(ps.coeffs[:, : k - 1], p0.coeffs[:, : k - 1],
                                   atol=1e-13)

    def test_orthogonality_invariant(self):
        # (f - Pstar f) is L2-orthogonal to degree <= k-2 per cell
        f = plane_wave(3.0)
        mesh = uwdg.make_mesh(0, 2 * np.pi, 12)
        k = 3
        ps = project_star(f, 0.0, mesh, k, CENTRAL)
        rule = golub_welsch_rule(20)   # basis pins n <= 10
        pts = mesh.quad_points(rule.nodes)
        diff = f.eval(pts, 0.0, 0) - ps.eval_ref(rule.nodes)
        tab = legendre_table(k - 2, rule.nodes)[:, 0, :]
        moments = (diff * rule.weights) @ tab
        assert np.abs(moments).max() < 1e-12

    def test_polynomial_reproduction_local_class(self):
        # the test polynomial is not periodic, so cell 0 (whose left
        # endpoint data wraps to x = b) is excluded; every other cell's
        # local solve must reproduce the polynomial exactly
        mesh = uwdg.make_mesh(0, 1.0, 8, "perturbed", 0.2, 9)
        f = poly_field([0.3 + 0.2j, -1.0, 0.5j, 0.25])
        ps = project_star(f, 0.0, mesh, 3, ALTERNATING)
        ref = project_l2(f, 0.0, mesh, 3)
        np.testing.assert_allclose(ps.coeffs[1:], ref.coeffs[1:], atol=1e-12)

    def test_order_k_plus_one(self):
        f = plane_wave(3.0)
        errs = []
        for N in (20, 40, 80):
            mesh = uwdg.make_mesh(0, 2 * np.pi, N)
            errs.append(uwdg.broken_l2_error(
                project_star(f, 0.0, mesh, 3, CENTRAL), f, 0.0))
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        np.testing.assert_allclose(orders, 4.0, atol=0.25)

    def test_unsupported_configuration_raises(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 16, "perturbed", 0.1, 3)
        with pytest.raises(ProjectionUndefinedError):
            project_star(plane_wave(3.0), 0.0, mesh, 2, CENTRAL)

    def test_series_identity_local_class(self):
        # under the local class the top-two correction equals the trace
        # series sum_{m>k} u_{j,m} (A+B)^{-1}(G L-_m + H L+_m), truncated
        # at m = k+6 for a smooth field
        f = plane_wave(3.0)
        mesh = uwdg.make_mesh(0, 2 * np.pi, 20)
        k = 3
        sf = scale_flux(ALTERNATING, mesh.h)
        ps = project_star(f, 0.0, mesh, k, ALTERNATING)
        rule = golub_welsch_rule(40)   # basis pins n <= 10
        pts = mesh.quad_points(rule.nodes)
        fv = f.eval(pts, 0.0, 0)
        tab = legendre_table(k + 6, rule.nodes)[:, 0, :]
        wtab = tab * rule.weights[:, None]
        coef = (fv @ wtab) * ((2 * np.arange(k + 7) + 1) / 2.0)   # (N, k+7)
        AB = sum(_footprints(k, sf, mesh.h))[0, :, k - 1:]   # A + B
        G, H = uwdg.interface_matrices(sf)
        correction = np.zeros((mesh.N, 2), dtype=complex)
        R, L = trace_maps(k + 6, mesh.h)
        for m in range(k + 1, k + 7):
            rhs = G @ R[0, :, m] + H @ L[0, :, m]
            Mm = np.linalg.solve(AB, rhs)
            correction += coef[:, m][:, None] * Mm[None, :]
        direct = ps.coeffs[:, k - 1:] - coef[:, k - 1: k + 1]
        np.testing.assert_allclose(direct, correction, atol=1e-10)


class TestGlobalSolve:
    SYSTEMS = [(2, CENTRAL, 16), (3, FluxConfig(0.25, 5, 0), 20),
               (3, CENTRAL, 20)]

    @staticmethod
    def _inputs(k, cfg, N, seed):
        mesh = uwdg.make_mesh(0, 2 * np.pi, N)
        rng = np.random.default_rng(seed)
        low = rng.normal(size=(N, k + 1)) + 1j * rng.normal(size=(N, k + 1))
        data = rng.normal(size=(N, 2)) + 0j
        return mesh, k, cfg, low, data

    def _solve(self, k, cfg, N, seed):
        return _top_two_global(*self._inputs(k, cfg, N, seed))

    def test_interleaved_systems_match_fresh_calls(self):
        # each system's memo entries are rebuilt whenever the other one
        # ran last; every call must equal a call on empty caches
        fresh = {}
        for i, (k, cfg, N) in enumerate(self.SYSTEMS):
            _uniform_footprints.cache_clear()
            _symbol_inverse.cache_clear()
            fresh[i] = self._solve(k, cfg, N, seed=i)
            # the fluxes of the full coefficients match the data at every
            # interface, by footprints built without the caches
            mesh, k, cfg, low, data = self._inputs(k, cfg, N, seed=i)
            c = low.copy()
            c[:, k - 1:] = fresh[i]
            GR, HL = _footprints(k, scale_flux(cfg, mesh.h), mesh.h_sizes)
            flux = ((GR @ c[:, :, None])[:, :, 0]
                    + np.roll((HL @ c[:, :, None])[:, :, 0], -1, axis=0))
            np.testing.assert_allclose(flux, data, rtol=0, atol=1e-9)
        for i in (0, 1, 1, 0, 2, 0, 2, 2, 1):
            got = self._solve(*self.SYSTEMS[i], seed=i)
            assert np.array_equal(got, fresh[i])

    def test_singular_system_raises_on_every_call(self):
        # Gamma + Lambda at roundoff: A + B is singular, so P* raises at
        # l = 0, however often the same (k, flux, N) is projected
        cfg = FluxConfig(0.5000000001, 4.00000000120004, 0)
        mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
        for _ in range(3):
            with pytest.raises(SingularSymbolError) as err:
                project_star(plane_wave(), 0.0, mesh, 2, cfg)
            assert err.value.frequency == 0
        self._solve(2, CENTRAL, 8, seed=0)
        with pytest.raises(SingularSymbolError):
            project_star(plane_wave(), 0.0, mesh, 2, cfg)


def local_projection(f: AnalyticField, t: float, mesh, k: int,
                     cfg: FluxConfig) -> DGFunction:
    """L2 moments up to k-2 and top two modes from the per-cell 2x2
    solves of _top_two_local, under any flux: each cell matches the
    interface data at its own endpoints only."""
    out = project_l2(f, t, mesh, k)
    out.coeffs[:, k - 1:] = _top_two_local(mesh, k, cfg, out.coeffs,
                                           interface_data(f, t, mesh))
    return out


class TestLocalVariant:
    """The per-cell 2x2 solve of the local class A1, _top_two_local."""

    def test_equals_star_under_local_class(self):
        f = plane_wave(3.0)
        for mesh in (uwdg.make_mesh(0, 2 * np.pi, 12, "perturbed", 0.1, 7),
                     uwdg.make_mesh(0, 2 * np.pi, 12)):
            for cfg in (ALTERNATING, FluxConfig(0.3, 0.4, 0.4)):
                ps = project_star(f, 0.5, mesh, 3, cfg)
                pd = local_projection(f, 0.5, mesh, 3, cfg)
                assert np.abs(ps.coeffs - pd.coeffs).max() < 1e-11
        # on a uniform mesh the periodic solve reaches the same top modes
        low = project_l2(f, 0.5, mesh, 3).coeffs
        iface = interface_data(f, 0.5, mesh)
        np.testing.assert_allclose(_top_two_global(mesh, 3, ALTERNATING, low,
                                                   iface),
                                   _top_two_local(mesh, 3, ALTERNATING, low,
                                                  iface),
                                   rtol=0, atol=1e-11)

    def test_polynomial_identity(self):
        # non-periodic test polynomial: cell 0 reads wrapped left-endpoint
        # data, so the identity is checked on the remaining cells
        mesh = uwdg.make_mesh(0, 1.0, 8)
        f = poly_field([1.0, 0.5, -0.25j])
        pd = local_projection(f, 0.0, mesh, 2, CENTRAL)
        ref = project_l2(f, 0.0, mesh, 2)
        np.testing.assert_allclose(pd.coeffs[1:], ref.coeffs[1:], atol=1e-13)

    def test_distance_to_star_gains_one_order(self):
        f = plane_wave(3.0)
        errs = []
        for N in (20, 40, 80):
            mesh = uwdg.make_mesh(0, 2 * np.pi, N)
            d = project_star(f, 0.0, mesh, 3, CENTRAL) \
                - local_projection(f, 0.0, mesh, 3, CENTRAL)
            errs.append(uwdg.l2_norm(d))
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        np.testing.assert_allclose(orders, 5.0, atol=0.25)

    def test_batched_solve_matches_per_cell_loop(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 11, "perturbed", 0.1, 9)
        rng = np.random.default_rng(4)
        for k, cfg in ((2, ALTERNATING), (3, FluxConfig(0.3, 0.4, 0.4)),
                       (4, FluxConfig(-0.2, 1.5, 0.3))):
            sf = scale_flux(cfg, mesh.h)
            G, H = uwdg.interface_matrices(sf)
            low = rng.normal(size=(11, k + 1)) + 1j * rng.normal(size=(11, k + 1))
            iface = rng.normal(size=(11, 2)) + 1j * rng.normal(size=(11, 2))
            expect = np.empty((11, 2), dtype=complex)
            for j in range(mesh.N):
                h = mesh.h_sizes[j]
                AB = sum(_footprints(k, sf, h))[0, :, k - 1:]
                R, L = trace_maps(k, h)
                foot = G @ R[0, :, : k - 1] + H @ L[0, :, : k - 1]
                data = G @ iface[j] + H @ iface[j - 1]
                expect[j] = np.linalg.solve(AB, data - foot @ low[j, : k - 1])
            got = _top_two_local(mesh, k, cfg, low, iface)
            np.testing.assert_allclose(got, expect, rtol=1e-13,
                                       atol=1e-13 * np.abs(expect).max())

    def test_singular_cell_named(self):
        # beta1~ = 1 at k = 2: det(A_j+B_j) is proportional to
        # beta1 - 1/h_j, which vanishes on the widest cells (1 and 3)
        # only; dyadic widths keep the nodes exact
        sizes = np.array([0.5, 0.75, 0.5, 0.75, 0.625, 0.5])
        nodes = np.concatenate([[0.0], np.cumsum(sizes)])
        mesh = uwdg.Mesh1D(nodes)
        with pytest.raises(ProjectionUndefinedError,
                           match="undefined on cell 1:"):
            self._solve(mesh)

    def test_singular_cell_raises(self):
        # ratio +1 with even k makes det(A_j+B_j) = 0
        mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
        with pytest.raises(ProjectionUndefinedError, match="Gamma_j/Lambda_j"):
            self._solve(mesh)

    @staticmethod
    def _solve(mesh):
        """The k = 2 solve under the flux (0, 1, 0), on zero data."""
        return _top_two_local(mesh, 2, FluxConfig(0, 1, 0),
                              np.zeros((mesh.N, 3)),
                              np.zeros((mesh.N, 2)))


class TestLeadingResidual:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_alternating(self, k):
        # displayed formulas give b = +-(2k+1)/k^2, c = -(k+1)^2/k^2
        # (verified against the first-principles 2x2 solve)
        for sgn in (+1.0, -1.0):
            sf = scale_flux(FluxConfig(0.5 * sgn, 0, 0), 1.0)
            res = leading_residual(k, 1.0, sf)
            assert res.b == pytest.approx(sgn * (2 * k + 1) / k ** 2, rel=1e-13)
            assert res.c == pytest.approx(-((k + 1) ** 2) / k ** 2, rel=1e-13)

    @pytest.mark.parametrize("k", [3, 5])
    def test_central_odd(self, k):
        res = leading_residual(k, 0.4, scale_flux(CENTRAL, 0.4))
        assert res.b == pytest.approx(0.0, abs=1e-14)
        assert res.c == pytest.approx(-1.0, rel=1e-14)

    @pytest.mark.parametrize("k", [2, 4])
    def test_central_even(self, k):
        res = leading_residual(k, 0.4, scale_flux(CENTRAL, 0.4))
        assert res.b == pytest.approx(0.0, abs=1e-14)
        assert res.c == pytest.approx(-((k + 1) * (k + 2)) / (k * (k - 1)),
                                      rel=1e-13)

    @pytest.mark.parametrize("k,b1t", [(2, 3.0), (4, 5.0)])
    def test_ipdg_even(self, k, b1t):
        h = 0.37
        res = leading_residual(k, h, scale_flux(FluxConfig(0, b1t, 0), h))
        expect = -((k + 1) * (k + 2) - 2 * b1t) / (k * (k - 1) - 2 * b1t)
        assert res.c == pytest.approx(expect, rel=1e-12)
        assert res.b == pytest.approx(0.0, abs=1e-13)

    def test_residual_matches_projector_algebra(self):
        # R_{k+1} = L_{k+1} - [L_{k-1}, L_k] (A+B)^{-1}(G L-_{k+1} + H L+_{k+1})
        rng = np.random.default_rng(6)
        for _ in range(25):
            k = int(rng.integers(2, 6))
            h = float(rng.uniform(0.1, 1.5))
            sf = scale_flux(FluxConfig(*rng.normal(size=3) * 0.5), h)
            AB = sum(_footprints(k, sf, h))[0, :, k - 1:]
            if abs(np.linalg.det(AB)) < 1e-8:
                continue
            G, H = uwdg.interface_matrices(sf)
            R, L = trace_maps(k + 1, h)
            rhs = G @ R[0, :, k + 1] + H @ L[0, :, k + 1]
            Mm = np.linalg.solve(AB, rhs)
            res = leading_residual(k, h, sf)
            assert res.c == pytest.approx(-Mm[0], rel=1e-10, abs=1e-12)
            assert res.b == pytest.approx(-Mm[1], rel=1e-10, abs=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(ResidualUndefinedError):
            leading_residual(2, 1.0, scale_flux(FluxConfig(0, 1, 0), 1.0))

    def test_orthogonal_to_low_degrees(self):
        rule = golub_welsch_rule(12)   # basis pins n <= 10
        res = leading_residual(4, 1.0, scale_flux(FluxConfig(0.3, 0.4, 0.4), 1.0))
        vals = residual_eval(res, rule.nodes)
        tab = legendre_table(2, rule.nodes)[:, 0, :]
        moments = (vals * rule.weights) @ tab
        assert np.abs(moments).max() < 1e-12


class TestSpecialPoints:
    def test_central_k3_lobatto_gauss(self):
        pts = special_points(3, 1.0, scale_flux(CENTRAL, 1.0))
        lobatto4 = np.array([-1.0, -1 / np.sqrt(5), 1 / np.sqrt(5), 1.0])
        gauss3 = np.array([-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)])
        np.testing.assert_allclose(pts.sets[0], lobatto4, atol=1e-10)
        np.testing.assert_allclose(pts.sets[1], gauss3, atol=1e-10)
        np.testing.assert_allclose(pts.sets[2], lobatto4[1:3], atol=1e-10)

    def test_dne_cases(self):
        pts = special_points(2, 1.0, scale_flux(FluxConfig(0.3, 0.4, 0.4), 1.0))
        assert pts.sets[1].size == 0    # no first-derivative points
        pts2 = special_points(2, 1.0, scale_flux(FluxConfig(0.25, 2, 0), 1.0))
        assert pts2.sets[2].size == 0   # no second-derivative points

    def test_roots_are_polished(self):
        for cfg in FLUX_FAMILIES:
            pts = special_points(3, 0.7, scale_flux(cfg, 0.7))
            for s, xi in enumerate(pts.sets):
                if xi.size:
                    vals = residual_eval(pts.residual, xi, s)
                    assert np.abs(vals).max() < 1e-10

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("flux", [
        (0, 0, 0), (0.5, 0, 0), (-0.5, 0, 0), (0.25, 5, 0), (0.25, 2, 0),
        (0.3, 0.4, 0.4), (0, 0.5, 0.5), (1, 1, 1)], ids=str)
    def test_unit_width_sets_match_uniform_mesh_width(self, k, flux):
        # b and c do not depend on the width of a uniform mesh, so the
        # point metrics take the sets at h = 1: the same counts, roots
        # within 16 ulps, and bitwise for the central flux at the degrees
        # the tables run (k = 2, 3; roundoff in b and c moves some
        # central roots at k >= 4 by a few ulps)
        cfg = FluxConfig(*flux)
        unit = special_points(k, 1.0, scale_flux(cfg, 1.0)).sets
        for N in (10, 33, 640, 4096):
            h = uwdg.make_mesh(0, 2 * np.pi, N).h
            at_h = special_points(k, h, scale_flux(cfg, h)).sets
            for a, b in zip(unit, at_h):
                assert a.size == b.size
                ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
                assert np.all(np.abs(a - b) <= 16 * ulp)
                if cfg == CENTRAL and k <= 3:
                    assert a.tobytes() == b.tobytes()

    def test_minimum_point_counts(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(60):
            k = int(rng.integers(2, 5))
            cfg = FluxConfig(*(rng.normal(size=3) * 0.6))
            try:
                pts = special_points(k, 1.0, scale_flux(cfg, 1.0))
            except ResidualUndefinedError:
                continue
            assert pts.sets[0].size >= k - 1
            if k >= 3:
                assert pts.sets[1].size >= k - 2
            checked += 1
        assert checked > 40


def _real_roots_in_reference(leg_coeffs: np.ndarray) -> np.ndarray:
    """One series at a time, as the library found roots before they were
    batched: companion-matrix roots of the monomial form, one Newton step
    on the Legendre evaluation, neighbours whose mean is a root to
    roundoff taken as one double root, then the |imag|, edge and merge
    filters."""
    mono = np.polynomial.legendre.leg2poly(leg_coeffs)
    mono = np.trim_zeros(mono, "b")
    if len(mono) <= 1:
        return np.array([])
    roots = np.sort(np.polynomial.polynomial.polyroots(mono))

    dmat = legendre_derivative_matrix(len(leg_coeffs) - 1)
    dcoef = dmat @ leg_coeffs
    deg = len(leg_coeffs) - 1

    def p(x):
        return legendre_table(deg, x)[0, 0, :] @ leg_coeffs

    xs = []
    for r in roots:
        x = float(r.real)
        val = p(x)
        der = legendre_table(deg, x)[0, 0, :] @ dcoef
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if der != 0.0 and abs(val / der) <= ROOT_MERGE_TOL:
                x = x - val / der
        xs.append(x)
    paired = [False] * len(roots)
    for i in range(len(roots) - 1):
        mean = 0.5 * (roots[i].real + roots[i + 1].real)
        if (abs(roots[i + 1] - roots[i]) <= ROOT_CLUSTER_TOL
                and abs(p(mean)) <= ROOT_VALUE_TOL
                * np.abs(leg_coeffs).sum()):
            xs[i] = xs[i + 1] = mean
            paired[i] = paired[i + 1] = True

    keep = []
    for r, x, two in zip(roots, xs, paired):
        if abs(r.imag) > ROOT_IMAG_TOL and not two:
            continue
        if abs(x) > 1.0 + ROOT_EDGE_TOL:
            continue
        keep.append(min(1.0, max(-1.0, x)))
    keep.sort()
    out = []
    for x in keep:
        if not out or x - out[-1] > ROOT_MERGE_TOL:
            out.append(x)
    return np.array(out)


def _double_root_bc(k, x0):
    """(b, c) with R = L_{k+1} + b L_k + c L_{k-1} = R' = 0 at x0."""
    M = [[legendre_eval(m, s, x0) for m in (k, k - 1)] for s in (0, 1)]
    rhs = [-legendre_eval(k + 1, s, x0) for s in (0, 1)]
    return np.linalg.solve(M, rhs)


@st.composite
def _residual_stacks(draw):
    """(k, b, c): residual coefficients of every kind of root set: random
    (b, c), a root at x = 1 or at x = -1, and a double root inside."""
    k = draw(st.integers(2, 6))
    g = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = rng.normal(size=g) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    c = rng.normal(size=g) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    for i in range(g):
        kind = draw(st.sampled_from(["random", "right", "left", "double"]))
        if kind == "right":
            c[i] = -1.0 - b[i]
        elif kind == "left":
            c[i] = b[i] - 1.0
        elif kind == "double":
            b[i], c[i] = _double_root_bc(k, rng.uniform(-0.95, 0.95))
    return k, b, c


class TestBatchedRoots:
    @settings(max_examples=200, deadline=None)
    @given(case=_residual_stacks())
    def test_matches_one_series_at_a_time(self, case):
        k, b, c = case
        res = LeadingResidual(k=k, b=b, c=c)
        for s in range(3):
            coeffs = res.legendre_coeffs(s)[:, :k + 2 - s]
            rows, roots = legendre_roots(coeffs)
            assert np.all(np.diff(rows) >= 0)
            for g in range(len(b)):
                want = _real_roots_in_reference(coeffs[g])
                got = roots[rows == g]
                assert got.shape == want.shape
                # a double root is found to ~sqrt(eps) only
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_double_root_found_once(self, k):
        # roundoff splits the double root at 0.3 into a complex pair
        # (k = 2, 4) or a real pair (k = 3) about 1e-8 apart; both are
        # one root, and the Newton step, roundoff over roundoff there, is
        # not taken on the complex pair
        b, c = _double_root_bc(k, 0.3)
        res = LeadingResidual(k=k, b=np.array([b]), c=np.array([c]))
        _, roots = legendre_roots(res.legendre_coeffs(0)[:, :k + 2])
        near = roots[np.abs(roots - 0.3) < 1e-3]
        assert len(near) == 1
        assert abs(near[0] - 0.3) < 1e-7
        # the derivative has a simple root there
        _, roots = legendre_roots(res.legendre_coeffs(1)[:, :k + 1])
        assert np.sum(np.abs(roots - 0.3) < 1e-12) == 1

    @pytest.mark.parametrize("k, x0, third", [
        # the double root's pair is complex, 2.2e-6 apart: it was dropped
        (6, 0.46887024, -6.434e-5),
        # the pair is real, 1.3e-6 apart after Newton: it was kept twice
        (3, -0.44717813043340326, -1.064e-4),
    ])
    def test_double_root_next_to_third_root_found_once(self, k, x0, third):
        # a third root within ~1e-4 makes p'' small at x0, so roundoff
        # splits the double root wider than ROOT_MERGE_TOL
        b, c = _double_root_bc(k, x0)
        res = LeadingResidual(k=k, b=np.array([b]), c=np.array([c]))
        _, roots = legendre_roots(res.legendre_coeffs(0)[:, :k + 2])
        near = roots[np.abs(roots - x0) < 1e-5]
        assert len(near) == 1
        assert abs(near[0] - x0) < 1e-7
        assert np.sum(np.abs(roots - (x0 + third)) < 1e-6) == 1
        np.testing.assert_array_equal(
            roots, _real_roots_in_reference(res.legendre_coeffs(0)[0]))

    def test_distinct_close_roots_kept_apart(self):
        # roots 0.3 and 0.3 + 1e-6 are distinct: |p| at their mean is
        # |p''| 1e-12 / 8, far above roundoff, so both stay
        x1, x2 = 0.3, 0.3 + 1e-6
        leg = np.polynomial.legendre.poly2leg(
            np.polynomial.polynomial.polyfromroots([x1, x2, -0.5]))
        _, roots = legendre_roots(leg[None, :])
        np.testing.assert_allclose(roots, [-0.5, x1, x2], rtol=0, atol=1e-10)

    def test_endpoint_roots_kept_exactly(self):
        # b + c = -1 puts a root at 1, b - c = 1 one at -1
        rows, roots = legendre_roots(LeadingResidual(
            k=3, b=np.array([0.4, 0.4]),
            c=np.array([-1.4, -0.6])).legendre_coeffs())
        assert roots[rows == 0].max() == 1.0
        assert roots[rows == 1].min() == -1.0

    @settings(max_examples=200, deadline=None)
    @given(case=_residual_stacks())
    def test_one_call_matches_each_order(self, case):
        # special_points finds each order's roots with one legendre_roots
        # call over all widths; they are those of the order's own
        # legendre_roots call, bit for bit, double roots included
        k, b, c = case
        res = LeadingResidual(k=k, b=b, c=c)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(uwdg.projection, "leading_residual", lambda *a: res)
            pts = special_points(k, np.ones(len(b)), scale_flux(CENTRAL, 1.0))
        for s, (xi, owner) in enumerate(zip(pts.sets, pts.owners)):
            rows, roots = legendre_roots(res.legendre_coeffs(s)[:, :k + 2 - s])
            np.testing.assert_array_equal(owner, rows)
            np.testing.assert_array_equal(xi, roots)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("cfg", FLUX_FAMILIES, ids=lambda c: c.label())
    @pytest.mark.parametrize("widths", [[0.7], [0.05, 0.7, 1.3, 3.0]],
                             ids=["one", "many"])
    def test_one_call_matches_each_order_on_fluxes(self, k, cfg, widths):
        sf = scale_flux(cfg, max(widths))
        h = widths[0] if len(widths) == 1 else np.array(widths)
        pts = special_points(k, h, sf)
        res = leading_residual(k, h, sf)
        for s, (xi, owner) in enumerate(zip(pts.sets, pts.owners)):
            rows, roots = legendre_roots(
                res.legendre_coeffs(s).reshape(len(widths), -1)[:, :k + 2 - s])
            np.testing.assert_array_equal(owner, rows)
            np.testing.assert_array_equal(xi, roots)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 6),
           flux=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
           widths=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6))
    # h ** 2 is libm pow for a float and a product for an array, one ulp
    # apart at this width, which moved c from -5.999999999999999 to -6.0
    @example(k=2, flux=(0, 0, 1), widths=[1.0620641977305854])
    def test_widths_in_one_call_match_one_at_a_time(self, k, flux, widths):
        sf = scale_flux(FluxConfig(*flux), max(widths))
        try:
            batch = special_points(k, np.array(widths), sf)
        except ResidualUndefinedError:
            assume(False)
        for g, hj in enumerate(widths):
            one = special_points(k, hj, sf)
            for s, (xi, owner) in enumerate(zip(batch.sets, batch.owners)):
                np.testing.assert_array_equal(xi[owner == g], one.sets[s])
                want = _real_roots_in_reference(
                    one.residual.legendre_coeffs(s)[:k + 2 - s])
                np.testing.assert_allclose(one.sets[s], want,
                                           rtol=0, atol=1e-7)
