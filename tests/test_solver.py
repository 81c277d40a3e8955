import os
import subprocess
import sys
import threading
import time
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import row_digest
import uwdg
from oracles import as_matrix, bloch_march
from uwdg import solver
from uwdg.basis import gauss_rule, legendre_table
from uwdg.errors import ConfigurationError, InstabilityError
from uwdg.flux import (ALTERNATING, CENTRAL, FluxConfig, interface_matrices,
                       scale_flux)
from uwdg.projection import DGFunction, l2_norm, plane_wave, project_star
from uwdg.solver import (DEFAULT_DT_CONSTANTS, RK4_LIMIT, DGOperator,
                         _BandMarch, _count_outside, _EigenMarch, _rk4_power,
                         _spectral_radius, _step_counts, _symmetric_bands,
                         _two_step_rows, integrate, rk4_step)

FLUX_FAMILIES = [CENTRAL, ALTERNATING, FluxConfig(0.3, 0.4, 0.4),
                 FluxConfig(0.25, 5, 0)]


def random_field(mesh, k, rng):
    c = rng.normal(size=(mesh.N, k + 1)) + 1j * rng.normal(size=(mesh.N, k + 1))
    return DGFunction(mesh, k, c)


def mass_inner(u: DGFunction, v: DGFunction) -> complex:
    w = u.mesh.h_sizes[:, None] / (2 * np.arange(u.k + 1) + 1)
    return complex(np.sum(u.coeffs * np.conj(v.coeffs) * w))


class TestBilinearForm:
    @pytest.mark.parametrize("cfg", FLUX_FAMILIES, ids=lambda c: c.label())
    def test_symmetry_and_realness(self, cfg):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 12, "perturbed", 0.05, 8)
        op = DGOperator(mesh, cfg, 3)
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = random_field(mesh, 3, rng)
            v = random_field(mesh, 3, rng)
            # A(u, v) = sum v . weak_action(u): bilinear, no conjugation
            auv = np.sum(v.coeffs * op.weak_action(u.coeffs))
            avu = np.sum(u.coeffs * op.weak_action(v.coeffs))
            assert abs(auv - avu) <= 1e-12 * abs(auv)
            avvb = np.sum(np.conj(v.coeffs) * op.weak_action(v.coeffs))
            assert abs(avvb.imag) <= 1e-12 * abs(avvb)

    @settings(max_examples=60, deadline=None)
    @given(a1=st.floats(-3, 3), b1=st.floats(-3, 3), b2=st.floats(-3, 3),
           k=st.integers(2, 5), seed=st.integers(0, 10 ** 6))
    def test_blocks_symmetric(self, a1, b1, b2, k, seed):
        # the uniform march diagonalizes the scaled DFT symbol with eigh,
        # which needs C0[j] = C0[j]^T and Cm[j] = Cp[j-1]^T
        mesh = uwdg.make_mesh(0, 2 * np.pi, 7, "perturbed", 0.2, seed)
        Cm, C0, Cp = DGOperator(mesh, FluxConfig(a1, b1, b2), k).blocks
        tol = 1e-13 * np.abs(C0).max()
        Cp_prev = np.roll(Cp, 1, axis=0)
        np.testing.assert_allclose(C0, C0.transpose(0, 2, 1), rtol=0, atol=tol)
        np.testing.assert_allclose(Cm, Cp_prev.transpose(0, 2, 1), rtol=0,
                                   atol=tol)

    def test_constants_in_kernel(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
        op = DGOperator(mesh, FluxConfig(0.3, 0.4, 0.4), 2)
        const = DGFunction(mesh, 2, np.zeros((8, 3), complex))
        const.coeffs[:, 0] = 2.0 - 1.0j
        assert np.abs(op.apply(const.coeffs)).max() < 1e-13
        rng = np.random.default_rng(3)
        v = random_field(mesh, 2, rng)
        assert abs(np.sum(v.coeffs * op.weak_action(const.coeffs))) < 1e-12


class TestTimeDerivative:
    @pytest.mark.parametrize("cfg", FLUX_FAMILIES, ids=lambda c: c.label())
    def test_conservation_residual(self, cfg):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 10, "perturbed", 0.05, 1)
        op = DGOperator(mesh, cfg, 3)
        rng = np.random.default_rng(23)
        for _ in range(100):
            v = random_field(mesh, 3, rng)
            td = DGFunction(mesh, 3, op.apply(v.coeffs))
            ip = mass_inner(td, v)
            assert abs(2 * ip.real) <= 1e-12 * l2_norm(td) * l2_norm(v)

    def test_linearity(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
        op = DGOperator(mesh, CENTRAL, 2)
        rng = np.random.default_rng(5)
        u, v = random_field(mesh, 2, rng), random_field(mesh, 2, rng)
        a, b = 1.3 - 0.2j, -0.7j
        lhs = op.apply(a * u.coeffs + b * v.coeffs)
        rhs = a * op.apply(u.coeffs) + b * op.apply(v.coeffs)
        assert np.abs(lhs - rhs).max() < 1e-13 * np.abs(lhs).max()

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_inverse_mass_is_the_gauss_mass_inverted(self, k):
        # the mass of L_{j,m} is h_j/2 times the Gauss integral of L_m^2,
        # 2/(2m+1); apply() divides the weak form by it
        rule = gauss_rule(k + 1)
        tab = legendre_table(k, rule.nodes)[:, 0, :]
        ref_mass = rule.weights @ tab ** 2
        np.testing.assert_allclose(ref_mass, 2 / (2 * np.arange(k + 1) + 1),
                                   rtol=1e-14)
        for kind in ("perturbed", "uniform"):
            mesh = uwdg.make_mesh(0, 2 * np.pi, 9, kind, 0.1, 6)
            op = DGOperator(mesh, CENTRAL, k)
            mass = 0.5 * mesh.h_sizes[:, None] * ref_mass
            np.testing.assert_allclose(op._cells(op._inv_mass) * mass, 1.0,
                                       rtol=1e-14)

    def test_matrix_free_equals_assembled(self):
        # on a uniform mesh both broadcast the one row of blocks
        for kind, rows in (("perturbed", 6), ("uniform", 1)):
            mesh = uwdg.make_mesh(0, 2 * np.pi, 6, kind, 0.1, 4)
            op = DGOperator(mesh, FluxConfig(0.3, 0.4, 0.4), 3)
            assert all(len(C) == rows for C in op.blocks)
            M = as_matrix(op)
            rng = np.random.default_rng(7)
            u = random_field(mesh, 3, rng)
            mf = op.apply(u.coeffs).ravel()
            mat = M @ u.coeffs.ravel()
            assert np.abs(mf - mat).max() <= 1e-13 * np.abs(mat).max()

    def test_weak_action_quadrature_oracle(self):
        for kind in ("perturbed", "uniform"):
            self._check_quadrature_oracle(
                uwdg.make_mesh(0, 2 * np.pi, 7, kind, 0.1, 5))

    def _check_quadrature_oracle(self, mesh):
        # weak_action[j, m] = int_{I_j} u d_x^2 L_{j,m} dx
        #   + (uxt v - uhat v_x)(x_{j+1/2}^-) - (uxt v - uhat v_x)(x_{j-1/2}^+)
        # with [uhat, uxt] = G [u, u_x]^- + H [u, u_x]^+ at each interface;
        # the oracle takes every cell's own width, also on a uniform mesh
        k, cfg = 3, FluxConfig(0.3, 0.4, 0.4)
        op = DGOperator(mesh, cfg, k)
        c = random_field(mesh, k, np.random.default_rng(12)).coeffs
        G, H = interface_matrices(scale_flux(cfg, mesh.h))
        hj = mesh.h_sizes
        rule = gauss_rule(k + 2)
        vol_tab = legendre_table(k, rule.nodes, ders=2)     # (nq, 3, k+1)
        ends = legendre_table(k, [1.0, -1.0], ders=1)       # (2, 2, k+1)
        # one-sided [u, u_x] at the right (e=0) and left (e=1) cell ends
        side = [np.stack([c @ ends[e, 0], (c @ ends[e, 1]) * 2 / hj], axis=1)
                for e in (0, 1)]
        flux = side[0] @ G.T + np.roll(side[1], -1, axis=0) @ H.T
        expect = np.empty_like(c)
        for j in range(mesh.N):
            u_q = vol_tab[:, 0, :] @ c[j]
            for m in range(k + 1):
                vol = (0.5 * hj[j] * (2 / hj[j]) ** 2
                       * np.sum(rule.weights * u_q * vol_tab[:, 2, m]))
                v, v_x = ends[:, 0, m], ends[:, 1, m] * 2 / hj[j]
                (uhat_r, uxt_r), (uhat_l, uxt_l) = flux[j], flux[j - 1]
                expect[j, m] = (vol + (uxt_r * v[0] - uhat_r * v_x[0])
                                - (uxt_l * v[1] - uhat_l * v_x[1]))
        got = op.weak_action(c)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_coupling_blocks_match_apply(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 9, "perturbed", 0.1, 2)
        op = DGOperator(mesh, ALTERNATING, 2)
        Cm, C0, Cp = op.coupling_blocks()
        rng = np.random.default_rng(8)
        c = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
        via_blocks = (np.matmul(C0, c[:, :, None])[:, :, 0]
                      + np.matmul(Cp, np.roll(c, -1, 0)[:, :, None])[:, :, 0]
                      + np.matmul(Cm, np.roll(c, 1, 0)[:, :, None])[:, :, 0])
        direct = op.apply(c)
        assert np.abs(via_blocks - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_steady_plane_wave_consistency(self):
        # td(Pstar e^{i3x}) approaches i * (-9) * field at order k+1
        f = plane_wave(3.0)
        errs = []
        for N in (20, 40, 80):
            mesh = uwdg.make_mesh(0, 2 * np.pi, N)
            op = DGOperator(mesh, CENTRAL, 3)
            ps = project_star(f, 0.0, mesh, 3, CENTRAL)
            resid = DGFunction(mesh, 3, op.apply(ps.coeffs) + 9j * ps.coeffs)
            errs.append(l2_norm(resid) / l2_norm(ps))
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        np.testing.assert_allclose(orders, 4.0, atol=0.35)


class TestNorm:
    def test_single_mode(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 8, "perturbed", 0.2, 3)
        u = DGFunction(mesh, 2, np.zeros((8, 3), complex))
        u.coeffs[3, 0] = 1.0
        assert l2_norm(u) == pytest.approx(np.sqrt(mesh.h_sizes[3]), rel=1e-14)

    def test_matches_quadrature(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 8, "perturbed", 0.2, 3)
        rng = np.random.default_rng(9)
        u = random_field(mesh, 3, rng)
        rule = uwdg.gauss_rule(10)
        vals = u.eval_ref(rule.nodes)
        ref = np.sqrt(np.sum(0.5 * mesh.h_sizes
                             * (np.abs(vals) ** 2 @ rule.weights)))
        assert l2_norm(u) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("kind", ["uniform", "perturbed"])
    def test_bit_for_bit_the_weights_built_per_call(self, kind):
        # the mesh's cached weights give the norm of weights built per call
        mesh = uwdg.make_mesh(0, 2 * np.pi, 40, kind, 0.1, 5)
        rng = np.random.default_rng(11)
        for k in (2, 3, 6):
            u = random_field(mesh, k, rng)
            w = mesh.h_sizes[:, None] / (2 * np.arange(k + 1) + 1)
            old = float(np.sqrt(np.sum(np.sum(np.abs(u.coeffs) ** 2 * w,
                                              axis=1)).real))
            assert l2_norm(u).hex() == old.hex()
            assert mesh.parseval_weights(k).tobytes() == w.tobytes()


def test_march_needs_only_numpy():
    # of the installed packages, uwdg loads numpy alone, also while it
    # marches on uniform and on perturbed meshes
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import numpy as np, uwdg\n"
        "for kind in ('uniform', 'perturbed'):\n"
        "    mesh = uwdg.make_mesh(0, 2 * np.pi, 8, kind, 0.1, 3)\n"
        "    op = uwdg.DGOperator(mesh, uwdg.ALTERNATING, 2)\n"
        "    u0 = uwdg.project_l2(uwdg.plane_wave(1.0), 0.0, mesh, 2)\n"
        "    uwdg.integrate(op, u0, c=0.05, t_end=0.01)\n"
        "from importlib.metadata import packages_distributions\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(loaded & set(packages_distributions()) - {'uwdg'}))\n")
    src = os.path.dirname(os.path.dirname(uwdg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "['numpy']"


class _DiagonalOp:
    """Test hook: du/dt = i lambda u."""

    def __init__(self, lam):
        self.lam = lam

    def apply(self, coeffs):
        return 1j * self.lam * coeffs


class TestRK4:
    def test_zero_field(self):
        # c = 0.04: at 0.05 this mesh is past the RK4 limit (margin 1.10)
        mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
        op = DGOperator(mesh, CENTRAL, 2)
        u = DGFunction(mesh, 2, np.zeros((8, 3), complex))
        out = integrate(op, u, c=0.04, t_end=0.2)
        assert np.abs(out.u.coeffs).max() == 0.0

    def test_single_step_matches_taylor(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 4)
        u = DGFunction(mesh, 2, np.zeros((4, 3), complex))
        u.coeffs[:, :] = 1.0 + 0.5j
        lam, dt = 2.7, 0.13
        stepped = rk4_step(_DiagonalOp(lam), u, dt)
        z = 1j * lam * dt
        taylor = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
        np.testing.assert_allclose(stepped.coeffs, taylor * u.coeffs, rtol=1e-14)

    def test_final_time_is_exact(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 8)
        op = DGOperator(mesh, CENTRAL, 2)
        f = plane_wave(1.0)
        u0 = uwdg.project_l2(f, 0.0, mesh, 2)
        res = integrate(op, u0, c=0.04, t_end=0.1)    # margin 0.88
        n_full = int(np.floor(0.1 / res.dt + 1e-12))
        assert res.n_steps == n_full + 1       # truncated final step
        # the literal steps that land on t = 0.1, n_full * dt + rem
        u = u0
        for _ in range(n_full):
            u = rk4_step(op, u, res.dt)
        u = rk4_step(op, u, 0.1 - n_full * res.dt)
        assert np.abs(res.u.coeffs - u.coeffs).max() < 1e-13
        assert l2_norm(res.u) == pytest.approx(l2_norm(u), rel=1e-13)

    @pytest.mark.parametrize("k, cfg, kind, t_end, n_full", [
        (3, CENTRAL, "uniform", 0.043, 21),
        (3, FluxConfig(0.25, 5, 0), "uniform", 0.043, 21),
        (3, ALTERNATING, "perturbed", 0.02, 7),
        (3, ALTERNATING, "perturbed", 0.187, 70),
        (3, ALTERNATING, "perturbed", 0.28, 105),
    ], ids=["uniform-central", "uniform-A3", "perturbed-alternating",
            "perturbed-even-steps", "perturbed-odd-steps"])
    def test_matches_rk4_step_loop(self, k, cfg, kind, t_end, n_full):
        # the perturbed march takes the n_full steps two per banded
        # product, and an odd one left over as a literal step
        mesh = uwdg.make_mesh(0, 2 * np.pi, 12, kind, 0.1, 6)
        op = DGOperator(mesh, cfg, k)
        u0 = project_star(plane_wave(3.0), 0.0, mesh, k, cfg)
        out = integrate(op, u0, c=0.01, t_end=t_end)
        assert _step_counts(t_end, out.dt)[0] == n_full
        rem = t_end - n_full * out.dt
        assert rem > 0.1 * out.dt and out.n_steps == n_full + 1
        u = u0
        for _ in range(n_full):
            u = rk4_step(op, u, out.dt)
        u = rk4_step(op, u, rem)
        assert np.abs(out.u.coeffs - u.coeffs).max() < 1e-11
        assert l2_norm(out.u) == pytest.approx(l2_norm(u), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(4, 24), k=st.integers(2, 4),
           seed=st.integers(0, 10 ** 6), n_full=st.integers(128, 300),
           frac=st.floats(0.2, 0.8))
    def test_band_march_matches_rk4_step_loop(self, N, k, seed, n_full, frac):
        # c = 1e-3 keeps dt*rho(L) below ~1.2 here, inside the RK4 limit
        # 2*sqrt(2); n_full >= 128 makes the march mostly banded products
        mesh = uwdg.make_mesh(0, 2 * np.pi, N, "perturbed", 0.1, seed)
        op = DGOperator(mesh, ALTERNATING, k)
        u0 = random_field(mesh, k, np.random.default_rng(seed))
        dt = 1e-3 * mesh.h ** 2.5
        t_end = (n_full + frac) * dt
        out = integrate(op, u0, c=1e-3, t_end=t_end)
        assert out.n_steps == n_full + 1
        u = u0
        for _ in range(n_full):
            u = rk4_step(op, u, dt)
        u = rk4_step(op, u, t_end - n_full * dt)
        assert np.abs(out.u.coeffs - u.coeffs).max() < 1e-11

    def test_eigen_march_reuses_multiplier(self, monkeypatch):
        # a uniform run is two multipliers: R4(i dt lam)^n_full, one power,
        # and R4(i rem lam) for the truncated step
        mesh = uwdg.make_mesh(0, 2 * np.pi, 20)
        op = DGOperator(mesh, CENTRAL, 3)
        u0 = project_star(plane_wave(3.0), 0.0, mesh, 3, CENTRAL)
        calls = []

        def counted(y, n):
            calls.append(n)
            return _rk4_power(y, n)

        monkeypatch.setattr(solver, "_rk4_power", counted)
        out = integrate(op, u0, c=0.01, t_end=0.5)
        n_full, rem = _step_counts(0.5, out.dt)
        assert n_full > 100 and rem > 0 and calls == [n_full, 1]
        march = _EigenMarch(op, u0.coeffs)
        lam = march.lam_half[march.fold]
        march.state = (march.state * _rk4_power(out.dt * lam, n_full)
                       * _rk4_power(rem * lam, 1))
        assert np.array_equal(out.u.coeffs, march.coeffs())

    @pytest.mark.parametrize("N", [4, 7, 8])
    def test_half_spectrum_matches_every_symbol(self, N):
        # eigh runs on l = 0..N/2; l > N/2 mirrors N - l by conjugation
        mesh = uwdg.make_mesh(0, 2 * np.pi, N)
        op = DGOperator(mesh, FluxConfig(0.3, 0.4, 0.4), 3)
        march = _EigenMarch(op, np.zeros((N, 4)))
        lam, V = march.lam_half[march.fold], march.V
        Cm, C0, Cp = (C[0] for C in op.blocks)
        d = np.sqrt(op._inv_mass[0])
        for l in range(N):
            w = np.exp(2j * np.pi * l / N)
            H = d[:, None] * (C0 + w * Cp + np.conj(w) * Cm) * d
            np.testing.assert_allclose(lam[l], np.linalg.eigvalsh(H),
                                       rtol=0, atol=1e-12 * np.abs(lam).max())
            np.testing.assert_allclose(H @ V[l], V[l] * lam[l], rtol=0,
                                       atol=1e-12 * np.abs(lam).max())
            np.testing.assert_allclose(V[l].conj().T @ V[l], np.eye(4),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("N", [4, 9])
    def test_banded_update_is_dense_rk4_polynomial(self, N):
        # N=4 aliases the offsets -4 and +4 onto the cell itself
        mesh = uwdg.make_mesh(0, 2 * np.pi, N, "perturbed", 0.1, 1)
        op = DGOperator(mesh, FluxConfig(0.3, 0.4, 0.4), 2)
        Z, eye = 0.01 * as_matrix(op), np.eye(3 * N)
        expect = eye + Z @ (eye + Z / 2 @ (eye + Z / 3 @ (eye + Z / 4)))
        bands = op.rk4_sparse_update(0.01).reshape(N, 3, 9, 3)
        got = np.zeros((N, 3, N, 3), dtype=complex)
        for i in range(9):
            got[np.arange(N), :, (np.arange(N) + i - 4) % N] += bands[:, :, i]
        np.testing.assert_allclose(got.reshape(3 * N, 3 * N), expect, rtol=0,
                                   atol=1e-14 * np.abs(expect).max())

    def test_banded_update_peak_memory(self):
        # the build keeps S, the sum L S and one product buffer alive, not
        # a rolled copy and a product per neighbour
        mesh = uwdg.make_mesh(0, 2 * np.pi, 640, "perturbed", 0.1, 42)
        op = DGOperator(mesh, ALTERNATING, 2)
        tracemalloc.start()
        try:
            bands = op.rk4_sparse_update(1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * bands.nbytes

    @pytest.mark.parametrize("N, pad", [(5, 0), (9, 0), (18, 0),
                                        (4, 6), (8, 6), (16, 6)])
    def test_two_step_rows_are_dense_rk4_square(self, N, pad):
        # row block b holds cells 4b..4b+3 against cells 4b-8..4b+11.  A
        # march in parts pads the ring's row blocks with 6 more on each
        # side, on N a multiple of 4; N not a multiple of 4 is marched in
        # one part, unpadded, and leaves zero rows.  The gathers wrap
        # around the ring at both ends, and N < 17 aliases the offsets
        k, kp1, dt = 3, 4, 0.01
        mesh = uwdg.make_mesh(0, 2 * np.pi, N, "perturbed", 0.1, 1)
        op = DGOperator(mesh, FluxConfig(0.3, 0.4, 0.4), k)
        Z, eye = dt * as_matrix(op), np.eye(kp1 * N)
        R4 = eye + Z @ (eye + Z / 2 @ (eye + Z / 3 @ (eye + Z / 4)))
        expect = (R4 @ R4).reshape(N, kp1, N * kp1)
        n_blocks = -(-N // 4)
        P = op.rk4_sparse_update(dt)
        Q = _two_step_rows(P, pad)
        assert Q.shape == (n_blocks + 2 * pad, 4 * kp1, 20 * kp1)
        assert Q.ctypes.data % 64 == 0      # on a cache line, for the march
        Q = Q.reshape(len(Q), 4, kp1, 20, kp1)
        for r, b in enumerate(np.arange(-pad, n_blocks + pad) % n_blocks):
            for i in range(4):
                j = 4 * b + i
                if j >= N:
                    assert not Q[r, i].any()
                    continue
                got = np.zeros((kp1, N, kp1), dtype=complex)
                for c in range(20):
                    got[:, (4 * b - 8 + c) % N] += Q[r, i, :, c]
                np.testing.assert_allclose(
                    got.reshape(kp1, N * kp1), expect[j], rtol=0,
                    atol=1e-13 * np.abs(expect).max())

    def test_two_step_rows_keep_their_bytes(self):
        # the band at row_digest.BAND_CASES, byte for byte on the build the
        # digest was taken on, however the band's build is written
        differ = row_digest.differs()
        if differ:
            pytest.skip(f"the band digest holds for {row_digest.BUILD}; "
                        f"this build differs in {differ}")
        assert row_digest.band_digest() == row_digest.BAND_SHA256

    @pytest.mark.parametrize("k, N, pad", [(2, 80, 6), (4, 24, 6),
                                           (6, 12, 6), (3, 8, 6),
                                           (3, 18, 0), (2, 9, 0)])
    def test_two_step_rows_sum_each_cell_in_order(self, k, N, pad):
        # on any build: each cell's band is that of one matmul per offset a
        # of its own, added to zero in the order of a, wherever the build
        # gathers its operands; ring cells of the pad wrap, and rows past
        # cell N-1 are zero
        kp1 = k + 1
        mesh = uwdg.make_mesh(0, 2 * np.pi, N, "perturbed", 0.1, 42)
        P = DGOperator(mesh, ALTERNATING, k).rk4_sparse_update(
            DEFAULT_DT_CONSTANTS[k] * mesh.h ** 2.5)
        Q = _two_step_rows(P, pad)
        n_blocks = -(-N // 4)
        expect = np.zeros_like(Q)
        for r, b in enumerate(range(-pad, n_blocks + pad)):
            for i in range(4):
                if 4 * (b % n_blocks) + i >= N:
                    continue
                j = 4 * b + i
                rows = expect[r, i * kp1:(i + 1) * kp1]
                for a in range(9):
                    rows[:, (i + a) * kp1:(i + a + 9) * kp1] += (
                        P[j % N][:, a * kp1:(a + 1) * kp1] @ P[(j + a - 4) % N])
        assert Q.tobytes() == expect.tobytes()

    def test_two_step_rows_pad_needs_whole_row_blocks(self):
        # _part_count never cuts a ring of N not a multiple of 4, so its
        # march takes no pad, and a pad there is refused
        mesh = uwdg.make_mesh(0, 2 * np.pi, 5, "perturbed", 0.1, 1)
        P = DGOperator(mesh, ALTERNATING, 3).rk4_sparse_update(0.01)
        with pytest.raises(ValueError, match="multiple of 4"):
            _two_step_rows(P, 6)

    @pytest.mark.parametrize("k, N, c", [(2, 640, 0.05), (3, 160, 0.01)])
    def test_single_power_no_farther_than_checkpoint_chunks(self, k, N, c):
        # the k=2, N=640 and k=3, N=160 uniform rows: 2.1e6 and 3.3e5
        # steps in one R4(i dt lam)^n.  Over every mode, its distance from
        # extended precision is at most that of the product of the 33
        # chunk powers the march used to take, each exp(n (log|R4| + i
        # arg R4)) with the product n arg R4 rounded
        mp = pytest.importorskip("mpmath")
        mesh = uwdg.make_mesh(0, 2 * np.pi, N)
        op = DGOperator(mesh, CENTRAL, k)
        dt = c * mesh.h ** 2.5
        n, _ = _step_counts(1.0, dt)
        march = _EigenMarch(op, np.zeros((N, k + 1)))
        y = dt * march.lam_half[march.fold].ravel()

        def old_power(m):
            y2 = y * y
            log_mod = 0.5 * np.log1p(y2 ** 3 * (y2 - 8.0) / 576.0)
            phase = np.arctan2(y - y * y2 / 6.0,
                               1.0 - y2 / 2.0 + y2 * y2 / 24.0)
            return np.exp(m * (log_mod + 1j * phase))

        every = n // 32                   # the old checkpoint spacing
        chunk, chunked = old_power(every), np.ones(len(y), complex)
        for _ in range(n // every):
            chunked = chunked * chunk
        chunked = chunked * old_power(n % every)
        with mp.workdps(40):
            ref = []
            for yi in y:
                z = mp.mpc(0, float(yi))
                ref.append(complex(
                    (1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24) ** n))
        assert (np.linalg.norm(_rk4_power(y, n) - ref)
                <= np.linalg.norm(chunked - ref))

    def test_rk4_power_matches_extended_precision(self):
        # the uniform-mesh march takes R4(i dt lam)^n in one go; at the
        # 2e6 steps of the k=2, N=640 row its error must stay at the
        # roundoff of the total phase n*arg, with no n*eps modulus drift
        mp = pytest.importorskip("mpmath")
        n = 2_000_000
        y = np.array([1e-6, 1e-4, 1e-2, 0.1, -0.05])
        got = _rk4_power(y, n)
        eps = np.finfo(float).eps
        with mp.workdps(40):
            for yi, gi in zip(y, got):
                z = mp.mpc(0, float(yi))
                ref = (1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24) ** n
                assert abs(gi - complex(ref)) <= 8 * eps * (1 + n * abs(yi))

    @pytest.mark.parametrize("k, N, flux, init", [
        (3, 20, CENTRAL, "uI"), (3, 40, CENTRAL, "uI"),     # Table 5
        (3, 20, FluxConfig(0.25, 5, 0), "uI"),              # Table 7
        (2, 20, CENTRAL, "l2"),                             # Table 8
    ], ids=["table5_N20", "table5_N40", "table7_N20", "table8_N20"])
    def test_uniform_march_is_one_cell_bloch_march(self, k, N, flux, init):
        # the study field exp(3ix) on a uniform mesh excites the one Bloch
        # frequency w = exp(3ih): cell j of u0 and of u_h(T) is exp(3ijh)
        # times cell 0, and the march of cell 0 is R4(dt K(w))^n R4(rem
        # K(w)), K(w) the symbol of apply() at w
        mp = pytest.importorskip("mpmath")
        mesh = uwdg.make_mesh(0, 2 * np.pi, N)
        f = plane_wave(3.0)
        u0 = (uwdg.reference_interpolant(f, 0.0, mesh, k, flux)
              if init == "uI" else uwdg.project_l2(f, 0.0, mesh, k))
        op = DGOperator(mesh, flux, k)
        res = integrate(op, u0, DEFAULT_DT_CONSTANTS[k], 1.0)
        phase = np.exp(3j * mesh.h * np.arange(N))[:, None]
        for c in (u0.coeffs, res.u.coeffs):
            assert np.abs(c - phase * c[0]).max() <= 1e-12 * np.abs(c).max()
        want, n = bloch_march([C[0] for C in op.coupling_blocks()],
                              u0.coeffs[0], 6 * mp.pi / N, res.dt, 1.0)
        assert n == res.n_steps
        # the eigen march's phase n * angle(R4) carries about n 2 sqrt(2)
        # eps of error (see solver.MAX_STEPS), relative to the field
        tol = n * RK4_LIMIT * np.finfo(float).eps
        assert np.abs(res.u.coeffs[0] - want).max() <= tol * np.abs(want).max()

    def test_rk4_power_one_step_is_the_polynomial(self):
        # the truncated final step of a march multiplies by R4(iy) itself;
        # over the stable range |y| <= 2 sqrt(2) it is within a few ulps
        # of the log/exp form the other powers take
        y = np.linspace(-RK4_LIMIT, RK4_LIMIT, 4001)
        got = _rk4_power(y, 1)
        y2 = y * y
        np.testing.assert_array_equal(got.real, 1.0 - y2 / 2.0 + y2 * y2 / 24.0)
        np.testing.assert_array_equal(got.imag, y - y * y2 / 6.0)
        log_mod = 0.5 * np.log1p(y2 ** 3 * (y2 - 8.0) / 576.0)
        phase = np.arctan2(y - y * y2 / 6.0, 1.0 - y2 / 2.0 + y2 * y2 / 24.0)
        assert (np.abs(got - np.exp(log_mod + 1j * phase)).max()
                <= 4 * np.finfo(float).eps)

    def test_norm_drift_small(self):
        f = plane_wave(3.0)
        mesh = uwdg.make_mesh(0, 2 * np.pi, 40)
        op = DGOperator(mesh, CENTRAL, 2)
        u0 = uwdg.reference_interpolant(f, 0.0, mesh, 2, CENTRAL)
        res = integrate(op, u0, c=0.05, t_end=1.0)
        assert abs(l2_norm(res.u) / l2_norm(u0) - 1.0) < 1e-8

    def test_instability_detected(self):
        for kind in ("uniform", "perturbed"):
            mesh = uwdg.make_mesh(0, 2 * np.pi, 16, kind, 0.1, 2)
            op = DGOperator(mesh, CENTRAL, 2)
            u0 = uwdg.project_l2(plane_wave(3.0), 0.0, mesh, 2)
            c = 0.05 / mesh.h ** 2.5
            with pytest.raises(InstabilityError,
                               match=r"stability margin .* > 1") as err:
                integrate(op, u0, c=c, t_end=3.0)   # dt = 0.05
            assert err.value.dt == pytest.approx(0.05)
            assert err.value.margin > 1
            assert err.value.c_stable * err.value.margin == pytest.approx(c)

    def test_overflow_between_checkpoints_detected(self):
        # this flux family exceeds the RK4 limit at k=2, N=80 with the
        # default constant; the norm used to overflow to non-finite within
        # the march, and the margin now flags the run before any step
        mesh = uwdg.make_mesh(0, 2 * np.pi, 80)
        cfg = FluxConfig(0.3, 0.4, 0.4)
        op = DGOperator(mesh, cfg, 2)
        u0 = project_star(plane_wave(3.0), 0.0, mesh, 2, cfg)
        with pytest.raises(InstabilityError,
                           match=r"stability margin .* > 1") as err:
            integrate(op, u0, c=0.05, t_end=0.05)
        assert err.value.margin == pytest.approx(1.1467, abs=1e-4)


class _Stepped(Exception):
    pass


def _no_step(*args):
    raise _Stepped


class TestStabilityCertificate:
    """RK4 is stable iff dt rho(S) <= 2 sqrt(2); integrate decides it
    before any step."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 4), cfg=st.sampled_from(FLUX_FAMILIES),
           kind=st.sampled_from(["uniform", "perturbed"]),
           seed=st.integers(0, 10 ** 6), N=st.integers(4, 13),
           target=st.floats(0.3, 3.0))
    def test_verdict_matches_dense_spectrum(self, k, cfg, kind, seed, N,
                                            target):
        assume(abs(target - 1.0) > 1e-6)
        mesh = uwdg.make_mesh(0, 2 * np.pi, N, kind, 0.2, seed)
        op = DGOperator(mesh, cfg, k)
        rho = np.abs(np.linalg.eigvals(as_matrix(op))).max()
        c = target * RK4_LIMIT / (rho * mesh.h ** 2.5)
        t_end = 3.5 * c * mesh.h ** 2.5
        u0 = random_field(mesh, k, np.random.default_rng(seed))
        with patch.object(solver._EigenMarch, "advance", _no_step), \
                patch.object(solver._BandMarch, "advance", _no_step):
            if target < 1.0:
                with pytest.raises(_Stepped):
                    integrate(op, u0, c, t_end)
            else:
                with pytest.raises(InstabilityError) as err:
                    integrate(op, u0, c, t_end)
                assert err.value.margin == pytest.approx(target, rel=1e-8)
                assert err.value.c_stable == pytest.approx(c / target,
                                                           rel=1e-8)
        # the count at any shift, and rho bisected from it, on any mesh
        bands = _symmetric_bands(op)
        upper = _spectral_radius(bands, 0.0)
        assert upper == pytest.approx(rho, rel=1e-8)
        assert _count_outside(bands, upper) == 0     # a proven upper bound
        lam = np.abs(np.linalg.eigvals(as_matrix(op)).imag)
        for sigma in rho * np.array([0.3, 0.7, 0.99, 1.01]):
            assert _count_outside(bands, sigma) == np.sum(lam > sigma)

    @pytest.mark.parametrize("kind", ["uniform", "perturbed"])
    def test_unstable_run_takes_no_step(self, kind, monkeypatch):
        # k=4, N=20 at c=0.0093: margin 1.0003 on the uniform mesh, where
        # 1943 steps grow the worst mode only 56x
        for march in (solver._EigenMarch, solver._BandMarch):
            monkeypatch.setattr(march, "advance", _no_step)
        mesh = uwdg.make_mesh(0, 2 * np.pi, 20, kind, 0.1, 3)
        op = DGOperator(mesh, CENTRAL, 4)
        u0 = uwdg.project_l2(plane_wave(1.0), 0.0, mesh, 4)
        with pytest.raises(InstabilityError, match="stability margin") as err:
            integrate(op, u0, c=0.0093, t_end=1.0)
        assert err.value.margin > 1
        assert "largest stable c = " in str(err.value)

    @pytest.mark.parametrize("kind, cfg, k, c, margin, printed", [
        ("uniform", CENTRAL, 4, 0.0093, 1.00029, "0.009297"),
        ("perturbed", FluxConfig(0.5, 0, 0), 3, 1.0, 85.2461, "0.01173"),
    ], ids=["eigen", "band"])
    def test_verdict_of_each_propagator(self, kind, cfg, k, c, margin,
                                        printed):
        # the rows `uwdg study --k 4 --N 20 --c 0.0093` and `--k 3 --N 20
        # --mesh perturbed:0.1:0 --flux 0.5,0,0 --c 1`: the eigen march
        # answers max|lam|; the band march's inertia count finds
        # eigenvalues past 2 sqrt(2) / dt, and rho is bisected
        mesh = uwdg.make_mesh(0, 2 * np.pi, 20, kind, 0.1, 0)
        op = DGOperator(mesh, cfg, k)
        u0 = uwdg.project_l2(plane_wave(3.0), 0.0, mesh, k)
        with pytest.raises(InstabilityError) as err:
            integrate(op, u0, c, t_end=1.0)
        assert f"{err.value.margin:.6g}" == f"{margin:.6g}"
        assert err.value.c_stable == pytest.approx(c / margin, rel=1e-5)
        assert str(err.value).endswith(f"largest stable c = {printed}")

    def test_uniform_margin_is_exact(self):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 20)
        op = DGOperator(mesh, CENTRAL, 4)
        u0 = project_star(plane_wave(1.0), 0.0, mesh, 4, CENTRAL)
        with pytest.raises(InstabilityError) as err:
            integrate(op, u0, c=0.0093, t_end=1.0)
        dt = 0.0093 * mesh.h ** 2.5
        rho = np.abs(np.linalg.eigvals(as_matrix(op))).max()
        assert err.value.margin == pytest.approx(dt * rho / RK4_LIMIT,
                                                 rel=1e-12)
        assert 1.0002 < err.value.margin < 1.0004
        # the printed c, rounded down, is stable: it marches
        printed = float(str(err.value).rsplit("= ", 1)[1])
        assert printed <= err.value.c_stable
        out = integrate(op, u0, c=printed, t_end=1.0)
        assert l2_norm(out.u) == pytest.approx(l2_norm(u0), rel=1e-6)

    @pytest.mark.parametrize("c_stable, printed", [
        (0.00929799, "0.009297"), (12.3456, "12.34"), (1.0, "1")])
    def test_printed_c_rounds_down(self, c_stable, printed):
        err = InstabilityError(1e-3, 1.5, c_stable)
        assert str(err).endswith(f"largest stable c = {printed}")

    @pytest.mark.parametrize("kind", ["uniform", "perturbed"])
    def test_final_norm_backstop(self, kind, monkeypatch):
        # with the certificate switched off, an unstable march still ends
        # in InstabilityError, from the final norm
        for march in (solver._EigenMarch, solver._BandMarch):
            monkeypatch.setattr(march, "rho", lambda self, sigma: 0.0)
        mesh = uwdg.make_mesh(0, 2 * np.pi, 16, kind, 0.1, 2)
        op = DGOperator(mesh, CENTRAL, 2)
        u0 = uwdg.project_l2(plane_wave(3.0), 0.0, mesh, 2)
        c = 0.05 / mesh.h ** 2.5                 # dt = 0.05
        with pytest.raises(InstabilityError, match="L2 norm grew by") as err:
            integrate(op, u0, c, t_end=0.5)
        assert err.value.margin is None and err.value.norm_ratio > 10

    def test_run_shorter_than_one_step_not_judged(self, monkeypatch):
        # t_end < dt: only the truncated step is taken, one bounded
        # multiplication, so the unstable dt is not judged
        mesh = uwdg.make_mesh(0, 2 * np.pi, 16, "perturbed", 0.1, 2)
        op = DGOperator(mesh, CENTRAL, 2)
        u0 = uwdg.project_l2(plane_wave(3.0), 0.0, mesh, 2)
        out = integrate(op, u0, c=0.05 / mesh.h ** 2.5, t_end=0.01)  # dt 0.05
        assert out.n_steps == 1
        np.testing.assert_allclose(out.u.coeffs,
                                   rk4_step(op, u0, 0.01).coeffs,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", ["uniform", "perturbed"])
    def test_step_longer_than_the_run_is_taken(self, kind):
        # dt = 1e300 h^2.5 >> t_end: the march is one truncated step of
        # t_end, not none, and the backstop judges its blow-up
        mesh = uwdg.make_mesh(0, 2 * np.pi, 16, kind, 0.1, 2)
        op = DGOperator(mesh, CENTRAL, 2)
        u0 = uwdg.project_l2(plane_wave(3.0), 0.0, mesh, 2)
        assert _step_counts(1.0, 1e300 * mesh.h ** 2.5) == (0, 1.0)
        with pytest.raises(InstabilityError, match="L2 norm grew by") as err:
            integrate(op, u0, c=1e300, t_end=1.0)
        assert err.value.margin is None and err.value.norm_ratio > 10

    @pytest.mark.parametrize("N", [4, 5, 6, 7, 9, 33])
    def test_count_on_odd_and_even_levels(self, N):
        # odd cell counts keep a direct coupling at each reduction level;
        # N=4..7 reach one cell through two, three and four cells
        mesh = uwdg.make_mesh(0, 2 * np.pi, N, "perturbed", 0.2, N)
        op = DGOperator(mesh, FluxConfig(0.3, 0.4, 0.4), 3)
        lam = np.abs(np.linalg.eigvals(as_matrix(op)).imag)
        bands = _symmetric_bands(op)
        for sigma in np.quantile(lam, [0.1, 0.5, 0.9, 0.999]):
            assert _count_outside(bands, sigma) == np.sum(lam > sigma)


class TestStepGuard:
    """Inputs whose march cannot be run are rejected before any step."""

    def _case(self, kind):
        mesh = uwdg.make_mesh(0, 2 * np.pi, 16, kind, 0.1, 1)
        op = DGOperator(mesh, CENTRAL, 2)
        return op, uwdg.project_l2(plane_wave(3.0), 0.0, mesh, 2)

    @pytest.mark.parametrize("kind", ["uniform", "perturbed"])
    @pytest.mark.parametrize("c, t_end, match", [
        (1e-320, 1.0, "not finite"),      # dt is subnormal, t_end/dt inf
        (5e-324, 1.0, "not positive"),    # dt underflows to 0
        (1e-200, 1e300, "not finite"),
        (0.0, 1.0, r"time step c\*h\^2\.5 = 0\*.* not positive"),
        (-0.01, 1.0, r"time step c\*h\^2\.5 = -0\.01\*.* not positive"),
        (0.05, -1.0, r"final time t_end = -1 is negative"),
    ])
    def test_rejected_on_every_mesh(self, kind, c, t_end, match):
        op, u0 = self._case(kind)
        with pytest.raises(ConfigurationError, match=match):
            integrate(op, u0, c=c, t_end=t_end)

    def test_band_march_step_cap(self, monkeypatch):
        # one cap for both propagators: a step count past it is rejected
        # before either march is built
        def no_march(*args):
            raise AssertionError("marched past the step cap")

        monkeypatch.setattr(solver, "_BandMarch", no_march)
        monkeypatch.setattr(solver, "_EigenMarch", no_march)
        for kind in ("perturbed", "uniform"):
            op, u0 = self._case(kind)
            n_full, _ = _step_counts(0.1, 0.05 * op.mesh.h ** 2.5)
            monkeypatch.setattr(solver, "MAX_STEPS", n_full - 1)
            with pytest.raises(ConfigurationError, match="exceed"):
                integrate(op, u0, c=0.05, t_end=0.1)

    def test_every_benchmark_case_under_the_cap(self):
        # the largest: Table 2 at k=3, N=160, 213k steps; dt uses the
        # largest cell, so the uniform h bounds the count from above
        dt = 0.01 * (2 * np.pi / 160) ** 2.5
        assert _step_counts(1.0, dt)[0] < solver.MAX_STEPS / 100


class TestBandParts:
    """A band march cut into parts, one thread each, is bitwise the march
    in one part, and leaves no thread behind."""

    def _case(self, k, N):
        mesh = uwdg.make_mesh(0, 2 * np.pi, N, "perturbed", 0.1, 42)
        op = DGOperator(mesh, ALTERNATING, k)
        return op, random_field(mesh, k, np.random.default_rng(N))

    @pytest.mark.parametrize("k, N, n, n2", [
        # 23 products, odd n, a short round of 3; then 2 rounds of 4 parts
        (2, 640, 47, 10),
        # 16 row blocks: an 8-block halo is wider than a part; then 3 steps,
        # one short round, so both advances end on states[1] in every part
        (3, 64, 19, 7),
        # split in two on 2 cores: 6 products, a short round of 2; then 3
        (4, 240, 13, 6),
        # split in two on 2 cores however short the advance: 1 product,
        # then 32, eight rounds of 4
        (2, 640, 2, 64),
        # split in two on 2 cores: 4 products, one round; then a short
        # round of 2
        (6, 160, 9, 4),
    ])
    def test_parts_are_bitwise_one_part(self, k, N, n, n2, monkeypatch):
        op, u0 = self._case(k, N)
        dt = DEFAULT_DT_CONSTANTS[k] * op.mesh.h ** 2.5
        got, interval = [], sys.getswitchinterval()
        march_part, started = solver._march_part, []

        def recorded(*args):
            started.append(args[:2])
            march_part(*args)

        monkeypatch.setattr(solver, "_march_part", recorded)
        sys.setswitchinterval(1e-6)     # switch threads as often as can be
        try:
            for T in (1, 2, 3):     # 3 parts on 2 cores: more than the cores
                monkeypatch.setattr(solver, "_part_count", lambda *a, T=T: T)
                started.clear()
                march = _BandMarch(op, u0.coeffs)
                march.advance(n, dt)
                march.advance(n2, dt)
                march.advance(1, 0.5 * dt)
                got.append(march.coeffs())
                # T parts in each advance that takes products
                assert len(started) == len(set(started)) * 2 == 2 * T
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got[0], got[1])
        assert np.array_equal(got[0], got[2])
        u = u0
        for step in [dt] * (n + n2) + [0.5 * dt]:
            u = rk4_step(op, u, step)
        assert np.abs(got[0] - u.coeffs).max() < 1e-11 * np.abs(u.coeffs).max()

    @pytest.mark.parametrize("cpus, parts", [(None, 1), (2, 2), ("pinned", 1)])
    def test_march_without_affinity(self, cpus, parts, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity: the march takes
        # os.cpu_count() cores, or one.  A thread pinned to one core, as by
        # `taskset -c 0`, takes one part where the host's cores take two.
        # u_h(T) keeps its bits.  Table 2's flux at k=2, N=640 to
        # t_end = 0.001: 681 products
        op, u0 = self._case(2, 640)
        c, t_end = DEFAULT_DT_CONSTANTS[2], 0.001
        if cpus == "pinned":
            if not hasattr(os, "sched_setaffinity"):
                pytest.skip("no os.sched_setaffinity to pin a thread")
            cores = os.sched_getaffinity(0)
            if len(cores) < 2:
                pytest.skip("one CPU: the march takes one part unpinned too")
            assert solver._part_count(640, 3) == 2
        want = integrate(op, u0, c, t_end).u.coeffs
        if cpus == "pinned":
            os.sched_setaffinity(0, {min(cores)})
            try:
                assert solver._part_count(640, 3) == parts
                got = integrate(op, u0, c, t_end).u.coeffs
            finally:
                os.sched_setaffinity(0, cores)
        else:
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert solver._part_count(640, 3) == parts
            got = integrate(op, u0, c, t_end).u.coeffs
        assert np.array_equal(want, got)

    def _fake_host(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))

    @pytest.mark.parametrize("cpus, k, N, parts", [
        (2, 2, 640, 2),     # 960 output rows and 57.6k multiply-adds a part
        (2, 4, 240, 2),     # 60k
        (2, 6, 160, 2),     # 78k
        (2, 3, 320, 2), (2, 4, 320, 2),
        (2, 3, 256, 1),     # 512 rows, but 41k multiply-adds a part
        (2, 3, 288, 1),     # 46k
        (2, 2, 448, 1),     # 40k
        (2, 2, 480, 1),     # 43k
        (2, 2, 400, 1),     # 36k
        (2, 5, 160, 1),     # 58k, but 480 rows a part
        (2, 4, 160, 1), (2, 3, 160, 1), (2, 2, 320, 1),
        (1, 2, 640, 1),
        (8, 2, 640, 2),     # a k=2 part needs 70 row blocks, a k=3 part 40
        (8, 2, 1280, 4), (8, 3, 1280, 8), (3, 3, 1280, 3)])
    def test_part_count_rule(self, cpus, k, N, parts, monkeypatch):
        # 2 cores: the cases timed when the rule was set; then the core
        # cap
        self._fake_host(monkeypatch, cpus)
        assert solver._part_count(N, k + 1) == parts
        # a ring of N not a multiple of 4 is never cut
        assert solver._part_count(N + 2, k + 1) == 1

    @pytest.mark.parametrize("k, N, parts", [
        *[(3, N, 1) for N in (20, 40, 80, 160)],   # perturbed_march
        *[(2, N, 1) for N in (80, 160, 320)],      # perturbed_short
        (2, 640, 2),                # 57.6k multiply-adds a part, past 50k
        (2, 642, 1),                               # a ragged last row block
    ])
    def test_parts_of_benchmark_cases(self, k, N, parts, monkeypatch):
        # every advance of each case on 2 cores; the truncated step takes
        # no product
        self._fake_host(monkeypatch, 2)
        assert solver._part_count(N, k + 1) == parts

    def test_threads_end_and_errors_are_raised(self, monkeypatch):
        op, u0 = self._case(2, 640)
        monkeypatch.setattr(solver, "_part_count", lambda *a: 3)
        march_part, started = solver._march_part, []

        def in_worker():
            return threading.current_thread() is not threading.main_thread()

        def slow(*args):
            march_part(*args)
            if in_worker():     # ends well after the calling thread's part
                time.sleep(0.05)

        def failing(*args):
            if in_worker():
                raise RuntimeError("part failed")
            march_part(*args)

        def recorded(*args):
            started.append(threading.get_ident())
            march_part(*args)

        def failing_build(P, pad):
            raise RuntimeError("build failed")

        t_end = 20.5 * 0.05 * op.mesh.h ** 2.5     # 21 steps, 10 products
        threads = threading.active_count()
        monkeypatch.setattr(solver, "_march_part", slow)
        assert integrate(op, u0, 0.05, t_end).n_steps == 21
        assert threading.active_count() == threads
        monkeypatch.setattr(solver, "_march_part", failing)
        with pytest.raises(RuntimeError, match="part failed"):
            integrate(op, u0, 0.05, t_end)
        assert threading.active_count() == threads
        # the band is built in the calling thread before any part starts
        # (it used to be built in the parts' threads, under their guard)
        monkeypatch.setattr(solver, "_march_part", recorded)
        monkeypatch.setattr(solver, "_two_step_rows", failing_build)
        with pytest.raises(RuntimeError, match="build failed"):
            integrate(op, u0, 0.05, t_end)
        assert threading.active_count() == threads
        assert not started

    def test_one_band_is_built_in_the_calling_thread(self, monkeypatch):
        # each advance that takes products makes one update and one band
        # of row blocks [-6, 166) (3 parts, rounds of 4), in this thread,
        # and each part marches, in its own thread, on a view of that band
        # at its row blocks and halos.  (It replaces a test that each part
        # built its own rows, halos included, in its own thread.)
        op, u0 = self._case(2, 640)
        monkeypatch.setattr(solver, "_part_count", lambda *a: 3)
        update = DGOperator.rk4_sparse_update
        march_part, two_step_rows = solver._march_part, solver._two_step_rows
        updates, built, parts = [], [], []

        def recorded_update(self, dt):
            updates.append(threading.get_ident())
            return update(self, dt)

        def recorded_rows(P, pad):
            built.append((threading.get_ident(), pad, two_step_rows(P, pad)))
            return built[-1][2]

        def recorded_part(b0, b1, s, Q, *args):
            parts.append((threading.get_ident(), b0, b1, Q))
            march_part(b0, b1, s, Q, *args)

        monkeypatch.setattr(DGOperator, "rk4_sparse_update", recorded_update)
        monkeypatch.setattr(solver, "_two_step_rows", recorded_rows)
        monkeypatch.setattr(solver, "_march_part", recorded_part)
        march = _BandMarch(op, u0.coeffs)
        dt = DEFAULT_DT_CONSTANTS[2] * op.mesh.h ** 2.5
        me = threading.get_ident()
        for n in (9, 2, 1):
            updates.clear()
            built.clear()
            parts.clear()
            march.advance(n, dt)
            if n == 1:              # no products: no update, no band
                assert not updates and not built and not parts
                continue
            assert updates == [me]
            assert [(t, pad, len(Q)) for t, pad, Q in built] == [
                (me, 6, 172)]
            band = built[0][2]
            assert len({t for t, *_ in parts}) == 3
            assert sorted(b0 for _, b0, _, _ in parts) == [0, 53, 106]
            for _, b0, b1, Q in parts:
                assert np.shares_memory(Q, band)
                assert Q.ctypes.data == band[b0].ctypes.data
                assert len(Q) == b1 - b0 + 12

    def test_part_threads_allocate_nothing_large(self, monkeypatch):
        # a two-part k=2, N=640 march.  Past the band, the buffers of a
        # slot's cells, of their neighbours and of one product, and the two
        # buffers through which numpy 2.4 adds the product to the strided
        # band rows (at most 8192 entries each), the build allocates about
        # 4 KB; past the band and the parts' cells and gather buffers,
        # which this thread allocates before any part starts, the products
        # allocate about 18 KB (0.66 MiB past all of these when each part
        # allocated its band and made 40 gathers in its own thread)
        self._fake_host(monkeypatch, 2)
        op, u0 = self._case(2, 640)
        march = _BandMarch(op, u0.coeffs)
        assert solver._part_count(640, 3) == 2
        P = op.rk4_sparse_update(DEFAULT_DT_CONSTANTS[2] * op.mesh.h ** 2.5)
        build, march_part = solver._two_step_rows, solver._march_part
        peaks, parts = [], []

        def recorded_build(P, pad):
            Q = build(P, pad)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return Q

        def recorded(b0, b1, s, Q, cells, bufs, *args):
            parts.append((Q, cells, bufs))
            march_part(b0, b1, s, Q, cells, bufs, *args)

        monkeypatch.setattr(solver, "_two_step_rows", recorded_build)
        monkeypatch.setattr(solver, "_march_part", recorded)
        tracemalloc.start()
        try:
            march._run(P, 36)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(peaks) == 2 and len(parts) == 2
        band = parts[0][0].base.nbytes
        slot = (640 // 4 + 2 * 6) * P[0].nbytes    # a cell a row block, pad 6
        adds = 2 * min(slot, 8192 * 16)
        assert peaks[0] - band - 3 * slot - adds < 0.1 * 2 ** 20
        owned = band + sum(a.nbytes for _, cells, bufs in parts
                           for a in (cells, *bufs))
        assert peaks[1] - owned < 0.1 * 2 ** 20
