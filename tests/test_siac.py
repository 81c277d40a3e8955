import numpy as np
import pytest

import uwdg
from oracles import rational_kernel_weights
from uwdg import basis
from uwdg.basis import gauss_rule
from uwdg.errors import UnsupportedOperationError
from uwdg.projection import AnalyticField, DGFunction, plane_wave, project_l2
from uwdg.siac import (KernelSpec, _apply, _stencil, kernel_coeffs,
                       postprocessed_error)


def kernel_convolve_monomial(spec, m, s):
    """(K * x^m)(s) = int K(z) (s - z)^m dz by exact piecewise Gauss;
    s may be an array."""
    s = np.asarray(s, dtype=float)
    rule = gauss_rule(spec.k + 2 + m // 2)
    knots = spec.knots()
    total = np.zeros_like(s)
    for a, b in zip(knots[:-1], knots[1:]):
        z = 0.5 * (a + b) + 0.5 * (b - a) * rule.nodes
        kw = spec.eval(z) * rule.weights * (0.5 * (b - a))
        total += (s[..., None] - z) ** m @ kw
    return total


def convolve_per_point(u_h, cells, xi0, spec, n_gauss):
    """Reference u* at reference offset xi0 in the given cells: every
    Gauss node of every piece between kernel knots and cell crossings
    evaluates the DG solution in the cell it falls in."""
    half = spec.support_halfwidth
    shift = (1.0 - xi0) / 2.0
    cross = shift + np.arange(np.ceil(-half - shift),
                              np.floor(half - shift) + 1)
    breaks = np.unique(np.concatenate([spec.knots(), cross]))
    breaks = breaks[(breaks > -half - 1e-12) & (breaks < half + 1e-12)]
    rule = gauss_rule(n_gauss)
    out = np.zeros(len(cells), dtype=complex)
    for z0, z1 in zip(breaks[:-1], breaks[1:]):
        if z1 - z0 < 1e-14:
            continue
        zg = 0.5 * (z0 + z1) + 0.5 * (z1 - z0) * rule.nodes
        kv = spec.eval(zg) * (0.5 * (z1 - z0) * rule.weights)
        for zq, kw in zip(zg, kv):
            off = int(np.floor((xi0 + 2.0 * zq + 1.0) / 2.0))
            xi = xi0 + 2.0 * zq - 2.0 * off
            tab = basis.legendre_table(u_h.k, xi)[0, 0, :]
            out += kw * (u_h.coeffs[(cells + off) % u_h.mesh.N] @ tab)
    return out


def stencil_values(u_h, cells, xi0, n_gauss=None):
    """u* at reference offset xi0 in the given cells, by the stencil
    product the error metric runs with the kernel of u_h's degree."""
    return _apply(u_h, np.asarray(cells),
                  _stencil(kernel_coeffs(u_h.k), float(xi0),
                           n_gauss or u_h.k + 1))


def reference_error(u_h, f, t, spec, n_quad):
    mesh = u_h.mesh
    rule = gauss_rule(n_quad)
    cells = np.arange(mesh.N)
    total = 0.0
    for q, xi0 in enumerate(rule.nodes):
        star = convolve_per_point(u_h, cells, float(xi0), spec, u_h.k + 1)
        x = mesh.centers + 0.5 * mesh.h_sizes * xi0
        total += np.sum(0.5 * mesh.h_sizes * rule.weights[q]
                        * np.abs(f.eval(x, t, 0) - star) ** 2)
    return np.sqrt(total)


def random_dg(k, N, seed):
    rng = np.random.default_rng(seed)
    u = DGFunction(uwdg.make_mesh(0, 2 * np.pi, N), k,
                   rng.standard_normal((N, k + 1))
                   + 1j * rng.standard_normal((N, k + 1)))
    return u, rng


class TestKernelWeights:
    def test_hashed_by_identity(self):
        # a spec is compared by identity, not by its arrays
        spec = kernel_coeffs(2)
        twin = KernelSpec(spec.k, spec.weights)
        assert spec != twin
        assert hash(spec) == object.__hash__(spec)
        assert len({spec, twin, spec}) == 2

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_order_and_shifts_follow_the_degree(self, k):
        spec = kernel_coeffs(k)
        assert spec.order == k + 1
        np.testing.assert_array_equal(spec.shifts, np.arange(-k, k + 1))
        assert not spec.shifts.flags.writeable

    def test_built_once_per_degree_and_read_only(self):
        spec = kernel_coeffs(3)
        assert kernel_coeffs(3) is spec
        for arr in (spec.weights, spec.shifts):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_unit_mass_and_symmetry(self, k):
        spec = kernel_coeffs(k)
        assert spec.weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(spec.weights, spec.weights[::-1], atol=1e-15)
        assert spec.order == k + 1
        assert spec.support_halfwidth == (3 * k + 1) / 2

    def test_known_weights_k1(self):
        spec = kernel_coeffs(1)
        np.testing.assert_allclose(spec.weights, [-1 / 12, 7 / 6, -1 / 12],
                                   atol=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reproduces_polynomials(self, k):
        # convolution against the kernel preserves monomials up to 2k+1
        spec = kernel_coeffs(k)
        samples = np.linspace(-1.7, 2.3, 50)
        for m in range(2 * k + 2):
            worst = np.abs(kernel_convolve_monomial(spec, m, samples)
                           - samples ** m).max()
            assert worst < 1e-9, f"degree {m}"

    @pytest.mark.parametrize("k", range(1, 7))
    def test_weights_are_the_rational_solution(self, k):
        # every pinned weight is the double nearest the exact solution
        spec = kernel_coeffs(k)
        exact = [float(w) for w in rational_kernel_weights(k)]
        assert spec.weights.tolist() == exact
        assert all(np.signbit(spec.weights) == np.signbit(exact))
        np.testing.assert_array_equal(spec.shifts, np.arange(-k, k + 1))

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            kernel_coeffs(0)
        with pytest.raises(ValueError):
            kernel_coeffs(7)


class TestPostprocess:
    XI0 = (-1.0, -0.61, 0.0, 0.37, 0.999)

    def test_constant_field(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 16)
        u = DGFunction(mesh, 2, np.zeros((16, 3), complex))
        u.coeffs[:, 0] = 2.0 - 0.5j
        for xi0 in self.XI0:
            vals = stencil_values(u, np.arange(16), xi0)
            np.testing.assert_allclose(vals, 2.0 - 0.5j, atol=1e-12)

    def test_reproduces_dg_polynomial_interior(self):
        # a global degree <= k polynomial represented exactly in V_h^k is
        # reproduced pointwise away from the periodic wrap
        mesh = uwdg.make_mesh(0.0, 8.0, 32)
        k = 3
        mono = np.array([0.2, -1.0, 0.3, 0.05])

        def field(x, t=0.0, d=0):
            c = mono
            for _ in range(d):
                c = np.polynomial.polynomial.polyder(c)
            return np.polynomial.polynomial.polyval(np.asarray(x, float), c) \
                .astype(complex)

        u = project_l2(AnalyticField(eval=field, d_max=4), 0.0, mesh, k)
        spec = kernel_coeffs(k)
        reach = int(np.ceil(spec.support_halfwidth)) + 1
        cells = np.arange(reach, mesh.N - reach)
        for xi0 in self.XI0:
            x = mesh.centers[cells] + 0.5 * mesh.h_sizes[cells] * xi0
            np.testing.assert_allclose(stencil_values(u, cells, xi0),
                                       field(x), atol=1e-10)

    def test_gauss_refinement_is_noise(self):
        # the piecewise split makes the quadrature exact: doubling points
        # changes nothing
        f = plane_wave(3.0)
        mesh = uwdg.make_mesh(0, 2 * np.pi, 20)
        u = project_l2(f, 0.0, mesh, 2)
        for xi0 in self.XI0:
            a = stencil_values(u, np.arange(20), xi0, n_gauss=3)
            b = stencil_values(u, np.arange(20), xi0, n_gauss=6)
            assert np.abs(a - b).max() < 1e-13

    def test_linearity(self):
        f = plane_wave(3.0)
        g = plane_wave(1.0)
        mesh = uwdg.make_mesh(0, 2 * np.pi, 16)
        uf = project_l2(f, 0.0, mesh, 2)
        ug = project_l2(g, 0.0, mesh, 2)
        z = 0.7 - 0.4j
        cells = np.arange(16)
        for xi0 in self.XI0:
            lhs = stencil_values(DGFunction(mesh, 2, uf.coeffs + z * ug.coeffs),
                                 cells, xi0)
            rhs = (stencil_values(uf, cells, xi0)
                   + z * stencil_values(ug, cells, xi0))
            assert np.abs(lhs - rhs).max() < 1e-13

    def test_nonuniform_mesh_rejected(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 16, "perturbed", 0.1, 3)
        u = DGFunction(mesh, 2, np.zeros((16, 3), complex))
        with pytest.raises(UnsupportedOperationError):
            postprocessed_error(u, plane_wave(3.0), 0.0)

    def test_error_of_projection_superconverges(self):
        # without time stepping: E* of the L2 projection already shows the
        # enhanced rate (2k vs k+1)
        f = plane_wave(3.0)
        errs = []
        for N in (40, 80):
            mesh = uwdg.make_mesh(0, 2 * np.pi, N)
            u = project_l2(f, 0.0, mesh, 2)
            errs.append(postprocessed_error(u, f, 0.0))
        assert np.log2(errs[0] / errs[1]) > 3.7


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("N", [12, 20])
class TestStencilMatchesPerPointConvolution:
    def test_values(self, k, N):
        u, rng = random_dg(k, N, seed=10 * k + N)
        spec = kernel_coeffs(k)
        cells = rng.integers(0, N, 25)
        scale = np.abs(u.coeffs).max()
        # a cell crossing meets a kernel knot at xi0 = +-1 for odd k and
        # at xi0 = 0 for even k; +-0.5 put the crossings between knots
        for xi0 in np.concatenate([[-1.0, 1.0, 0.0, 0.5, -0.5],
                                   rng.uniform(-1, 1, 5)]):
            for ng in (None, k + 3):
                got = stencil_values(u, cells, xi0, ng)
                want = convolve_per_point(u, cells, xi0, spec, ng or k + 1)
                assert np.abs(got - want).max() < 1e-13 * scale

    def test_error(self, k, N):
        u, _ = random_dg(k, N, seed=10 * k + N)
        spec = kernel_coeffs(k)
        f = plane_wave(3.0)
        scale = np.abs(u.coeffs).max()
        got = postprocessed_error(u, f, 0.3)
        want = reference_error(u, f, 0.3, spec, basis.default_quad_points(k))
        assert abs(got - want) < 1e-13 * scale

    def test_error_is_quadrature_of_values(self, k, N):
        u, _ = random_dg(k, N, seed=10 * k + N)
        f = plane_wave(3.0)
        mesh = u.mesh
        rule = gauss_rule(basis.default_quad_points(k))
        x = mesh.quad_points(rule.nodes)
        star = np.column_stack([stencil_values(u, np.arange(N), xi0)
                                for xi0 in rule.nodes])
        total = np.sum(0.5 * mesh.h_sizes[:, None] * rule.weights
                       * np.abs(f.eval(x, 0.3, 0) - star) ** 2)
        assert abs(postprocessed_error(u, f, 0.3) - np.sqrt(total)) \
            < 1e-13 * np.abs(u.coeffs).max()


def test_stencil_is_continuous_across_coincident_breaks():
    # u* is continuous in x, so the stencil is continuous in xi0; at
    # xi0 = 0, +-0.5 and +-1 cell crossings meet kernel knots for some k,
    # and the merged breaks must neither drop nor repeat a piece
    eps = 1e-9
    for k in range(1, 7):
        spec = kernel_coeffs(k)
        for xi0 in (-1.0, -0.5, 0.0, 0.5, 1.0):
            at = _stencil(spec, xi0, k + 1)
            for near in (xi0 - eps, xi0 + eps):
                if abs(near) <= 1.0:
                    np.testing.assert_allclose(_stencil(spec, near, k + 1),
                                               at, rtol=0, atol=1e-7)
