import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import uwdg
from uwdg.basis import legendre_table
from uwdg.errors import SingularSymbolError
from uwdg.flux import (ALTERNATING, CENTRAL, RESONANCE_TOL, SYMBOL_COND_MAX,
                       FluxConfig, _symbol_inverse, classify_assumption,
                       gamma_lambda, interface_matrices, scale_flux,
                       solve_block_circulant, symbol_conds, trace_maps)
from uwdg.projection import _footprints

finite = st.floats(-3.0, 3.0, allow_nan=False)


def random_a1_flux(rng):
    """Random flux with alpha1^2 + beta1*beta2 = 1/4 (the local class)."""
    a1 = rng.uniform(-0.6, 0.6)
    b1 = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
    return FluxConfig(a1, b1, (0.25 - a1 * a1) / b1)


def random_perturbed_mesh(rng):
    """4..11 cells, 20% perturbed, with mean width h in [0.05, 2]."""
    N = int(rng.integers(4, 12))
    b = N * rng.uniform(0.05, 2.0)
    return uwdg.make_mesh(0.0, b, N, "perturbed", 0.2, int(rng.integers(99)))


def boundary_blocks(k, sf, h_sizes):
    """A_j and B_j of every cell width: columns k-1, k of the interface
    footprints, which the cell-local projection inverts as A_j + B_j."""
    GR, HL = _footprints(k, sf, h_sizes)
    return GR[..., k - 1:], HL[..., k - 1:]


class TestScaling:
    def test_equal_values_hash_equal(self):
        # both key caches: _unit_point_tables and _uniform_footprints
        a, b = FluxConfig(0.25, 5, 0), FluxConfig(0.25, 5.0, 0.0)
        assert a == b and hash(a) == hash(b)
        assert a != FluxConfig(0.25, 5, 1e-300)

    def test_alternating(self):
        sf = scale_flux(FluxConfig(0.5, 0, 0), 0.1)
        assert (sf.alpha1, sf.beta1, sf.beta2) == (0.5, 0.0, 0.0)

    def test_beta1(self):
        assert scale_flux(FluxConfig(0, 1, 0), 0.1).beta1 == pytest.approx(10.0)

    def test_general(self):
        h = 0.37
        sf = scale_flux(FluxConfig(0.3, 0.4, 0.4), h)
        assert sf.alpha1 == 0.3
        assert sf.beta1 == pytest.approx(0.4 / h)
        assert sf.beta2 == pytest.approx(0.4 * h)

    @settings(max_examples=100, deadline=None)
    @given(a1=finite, b1=finite, b2=finite)
    def test_g_plus_h_identity(self, a1, b1, b2):
        G, H = interface_matrices(scale_flux(FluxConfig(a1, b1, b2), 0.25))
        np.testing.assert_allclose(G + H, np.eye(2), atol=5e-16)

    def test_g_plus_h_exact_for_standard_fluxes(self):
        # off-diagonals cancel exactly; diagonals are exact in the
        # Sterbenz range |alpha1| <= 1/2 covering all standard fluxes
        for cfg in (CENTRAL, ALTERNATING, FluxConfig(0.3, 0.4, 0.4),
                    FluxConfig(0.25, 5, 0)):
            G, H = interface_matrices(scale_flux(cfg, 0.37))
            np.testing.assert_array_equal(G + H, np.eye(2))

    def test_central_matrices(self):
        G, H = interface_matrices(scale_flux(CENTRAL, 1.0))
        np.testing.assert_allclose(G, 0.5 * np.eye(2))
        np.testing.assert_allclose(H, 0.5 * np.eye(2))

    def test_alternating_matrices(self):
        G, H = interface_matrices(scale_flux(ALTERNATING, 1.0))
        np.testing.assert_allclose(G, [[1, 0], [0, 0]])
        np.testing.assert_allclose(H, [[0, 0], [0, 1]])


class TestTraceMaps:
    def test_match_legendre_table(self):
        # [v, v_x] of L_{j,m} at xi = +1 (R) and xi = -1 (L), with the
        # chain rule d/dx = (2/h_j) d/dxi
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = int(rng.integers(2, 7))
            h = rng.uniform(0.01, 2.0, size=int(rng.integers(1, 9)))
            R, L = trace_maps(k, h)
            tab = legendre_table(k, [1.0, -1.0], ders=1)     # (2, 2, k+1)
            chain = np.stack([np.ones_like(h), 2.0 / h], axis=1)[:, :, None]
            np.testing.assert_allclose(R, chain * tab[0], rtol=1e-13, atol=0)
            np.testing.assert_allclose(L, chain * tab[1], rtol=1e-13, atol=0)


class TestCellBlocks:
    """Identities of the boundary blocks the projections solve with, on
    every cell of a perturbed mesh at that cell's own width."""

    def test_det_identity_a1(self):
        # local class: det(A_j+B_j) = 2 (-1)^k Gamma_j and Lambda_j = 0
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            mesh = random_perturbed_mesh(rng)
            sf = scale_flux(random_a1_flux(rng), mesh.h)
            A, B = boundary_blocks(k, sf, mesh.h_sizes)
            gamma, lam = gamma_lambda(sf, k, mesh.h_sizes)
            np.testing.assert_allclose(np.linalg.det(A + B),
                                       2 * (-1) ** k * gamma, rtol=1e-12)
            assert np.all(np.abs(lam) <= 1e-12 / mesh.h_sizes)

    def test_det_identity_general(self):
        # det(A_j+B_j) = 2((-1)^k Gamma_j + Lambda_j) for arbitrary parameters
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            mesh = random_perturbed_mesh(rng)
            sf = scale_flux(FluxConfig(*rng.normal(size=3)), mesh.h)
            A, B = boundary_blocks(k, sf, mesh.h_sizes)
            gamma, lam = gamma_lambda(sf, k, mesh.h_sizes)
            for det, ref in zip(np.linalg.det(A + B),
                                2 * ((-1) ** k * gamma + lam)):
                assert det == pytest.approx(ref, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_central_gamma_lambda(self, k):
        h = 0.31
        g, l = gamma_lambda(scale_flux(CENTRAL, h), k, h)
        assert g == pytest.approx(-k ** 2 / (2 * h), rel=1e-14)
        assert l == pytest.approx(k / (2 * h), rel=1e-14)
        assert abs(g / l) == pytest.approx(k, rel=1e-14)

    def test_q_eigenvalues_match_formula(self):
        # eig(-A^{-1}B) = (-1)^{k+1} (rho +- sqrt(rho^2 - 1)), rho = Gamma/Lambda
        for k, b1t in [(2, 2.0), (3, 5.0), (4, 9.0)]:
            h = 2 * np.pi / 40
            sf = scale_flux(FluxConfig(0.25, b1t, 0), h)
            A, B = boundary_blocks(k, sf, h)
            gamma, lam = gamma_lambda(sf, k, h)
            rho = gamma / lam
            sign = (-1.0) ** (k + 1)
            pred = sorted([sign * (rho + np.sqrt(complex(rho ** 2 - 1))),
                           sign * (rho - np.sqrt(complex(rho ** 2 - 1)))],
                          key=lambda z: z.imag)
            Q = -np.linalg.solve(A[0], B[0])
            got = sorted(np.linalg.eigvals(Q), key=lambda z: z.imag)
            np.testing.assert_allclose(got, pred, atol=1e-12)


class TestClassification:
    def test_alternating_is_a1(self):
        m = uwdg.make_mesh(0, 2 * np.pi, 16, "perturbed", 0.1, 3)
        for a1 in (0.5, -0.5):
            assert classify_assumption(FluxConfig(a1, 0, 0), m, 3).tag == "A1"

    def test_a1_gamma_zero_on_narrow_cells(self):
        # alpha1 = 1/2, beta2 = 0 at k = 2: Gamma_j = beta1 - 4/h_j, and
        # beta1~ = 6 with h = 0.75 puts its zero at h_j = 0.5, so only the
        # narrow cells of this dyadic mesh have Gamma_j = 0
        sizes = np.array([0.5, 0.75, 0.5, 0.75, 0.625, 0.5])
        nodes = np.concatenate([[0.0], np.cumsum(sizes)])
        m = uwdg.Mesh1D(nodes)
        cls = classify_assumption(FluxConfig(0.5, 6.0, 0.0), m, 2)
        assert cls.tag == "Unsupported"
        assert cls.warning == "Gamma_j = 0 on some cell"
        assert classify_assumption(FluxConfig(0.5, 5.0, 0.0), m, 2).tag == "A1"

    def test_central_is_a2(self):
        m = uwdg.make_mesh(0, 2 * np.pi, 16)
        for k in (2, 3, 4):
            assert classify_assumption(CENTRAL, m, k).tag == "A2"

    @pytest.mark.parametrize("k,b1t", [(2, 2.0), (3, 5.0), (4, 9.0)])
    def test_table_a3_fluxes(self, k, b1t):
        for N in (20, 40, 80, 160):
            m = uwdg.make_mesh(0, 2 * np.pi, N)
            cls = classify_assumption(FluxConfig(0.25, b1t, 0), m, k)
            assert cls.tag == "A3", cls.warning

    def test_scale_free(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cfg = FluxConfig(*rng.normal(size=3))
            k = int(rng.integers(2, 5))
            tags = set()
            for N in (16, 32):
                tags.add(classify_assumption(cfg, uwdg.make_mesh(0, 1, N), k).tag)
            # resonance checks are N dependent; outside them the class is
            # scale free.  Restrict to the |Gamma/Lambda| != 1 cases.
            if "A3" not in tags:
                assert len(tags) == 1

    def test_global_needs_uniform(self):
        m = uwdg.make_mesh(0, 2 * np.pi, 16, "perturbed", 0.1, 3)
        cls = classify_assumption(CENTRAL, m, 2)
        assert cls.tag == "Unsupported"
        assert "uniform" in cls.warning

    def test_lambda_zero_guard(self):
        # |s - 1/4| just above the A1 tolerance with a huge Gamma makes the
        # Gamma/Lambda ratio numerically undefined
        b1t = 1e6
        b2t = (0.25 + 2e-12) / b1t
        m = uwdg.make_mesh(0, 2 * np.pi, 8)
        cls = classify_assumption(FluxConfig(0.0, b1t, b2t), m, 2)
        assert cls.tag == "Unsupported"
        assert "Lambda" in cls.warning

    @pytest.mark.parametrize("cfg, k, rho, resonant, free, warning", [
        # |Gamma/Lambda| = 1 needs odd N and eigenvalue -1.  For k = 2,
        # alpha1 = beta2 = 0: Gamma h = b1 - 2, Lambda h = 1, and the
        # repeated eigenvalue is (-1)^{k+1} Gamma/Lambda; b1 = 3 puts it
        # at -1, so odd N is non-resonant and even N is resonant.
        (FluxConfig(0.0, 3.0, 0.0), 2, 1.0, 16, 15,
         "|Gamma/Lambda| = 1 resonance"),
        # |Gamma/Lambda| < 1: at k = 3 and alpha1 = 1/4, beta2 = 0,
        # b1~ = 2k^2 (a1^2 + 1/4) - 2k (a1^2 - 1/4) cos(2 pi m / 20) puts
        # Gamma/Lambda at cos(2 pi m / 20) and eig(Q) at
        # exp(+-2 pi i m / 20), so eig(Q)^20 is 1 to 3.1e-15 (m = 1) and
        # 4.9e-15 (m = 3), and eig(Q)^21 is not
        (FluxConfig(0.25, 6.694938580832048, 0.0), 3, np.cos(np.pi / 10),
         20, 21, "near-resonant A3 configuration: |eig(Q)^N - 1| = "),
        (FluxConfig(0.25, 6.286258408829032, 0.0), 3, np.cos(3 * np.pi / 10),
         20, 21, "near-resonant A3 configuration: |eig(Q)^N - 1| = "),
    ], ids=["ratio_one", "near_resonant_m1", "near_resonant_m3"])
    def test_resonance_depends_on_n(self, cfg, k, rho, resonant, free,
                                    warning):
        from uwdg.harness import StudyConfig, run_case
        g, l = gamma_lambda(scale_flux(cfg, 1.0), k, 1.0)
        assert g / l == pytest.approx(rho, rel=1e-14)
        cls = classify_assumption(cfg, uwdg.make_mesh(0, 2 * np.pi, resonant),
                                  k)
        assert cls.tag == "Unsupported"
        assert cls.warning.startswith(warning)
        assert cls.diagnostics["resonance"] <= RESONANCE_TOL
        row = run_case(StudyConfig(k=k, flux=cfg).validate(), resonant)
        assert row["status"] == f"unsupported: {cls.warning}"
        m_free = uwdg.make_mesh(0, 2 * np.pi, free)
        assert classify_assumption(cfg, m_free, k).tag == "A3"

    def test_eigenvalue_plus_one_always_resonant(self):
        # ratio -1 for even k puts the repeated eigenvalue at +1: resonant
        # for every N
        cfg = FluxConfig(0.0, 1.0, 0.0)
        for N in (15, 16):
            m = uwdg.make_mesh(0, 2 * np.pi, N)
            assert classify_assumption(cfg, m, 2).tag == "Unsupported"

    @pytest.mark.parametrize("flux, mesh_kind, note", [
        # a1 = 1e154: Gamma and Lambda are -inf, not Lambda = 0
        (FluxConfig(1e154, 0, 0), "uniform",
         "Gamma or Lambda is past float64: Gamma/Lambda undefined"),
        # b1~ = 1.7e308 over h < 1: Gamma_j is inf, not 0
        (FluxConfig(0.5, 1.7e308, 0), "uniform",
         "Gamma_j is past float64 on some cell"),
        (FluxConfig(0.5, 0, 1.7e308), "perturbed",
         "Gamma_j is past float64 on some cell"),
    ])
    def test_gamma_lambda_past_float64(self, flux, mesh_kind, note):
        m = uwdg.make_mesh(0, 2 * np.pi, 16, mesh_kind, 0.1, 1)
        with np.errstate(all="raise"):
            cls = classify_assumption(flux, m, 3)
        assert (cls.tag, cls.warning) == ("Unsupported", note)

    def test_a_case_classifies_once(self):
        # the row, both P* and both corrections of a k=3 MAIN+ZETA case
        # share one classification
        from uwdg.harness import (MAIN_METRICS, ZETA_METRICS, StudyConfig,
                                  run_case)
        cfg = StudyConfig(k=3, Ns=(20,), t_end=0.05,
                          metrics=tuple(MAIN_METRICS) + tuple(ZETA_METRICS))
        before = classify_assumption.cache_info()
        assert run_case(cfg.validate(), 20)["status"] == "ok"
        after = classify_assumption.cache_info()
        assert (after.misses - before.misses,
                after.hits - before.hits) == (1, 4)

    def test_each_mesh_flux_and_degree_has_its_own_class(self):
        m = uwdg.make_mesh(0, 2 * np.pi, 16)
        twin = uwdg.Mesh1D(m.nodes)
        cls = classify_assumption(CENTRAL, m, 3)
        assert classify_assumption(CENTRAL, m, 3) is cls
        for other, tag in [((CENTRAL, twin, 3), "A2"),
                           ((ALTERNATING, m, 3), "A1"),
                           ((CENTRAL, m, 2), "A2")]:
            got = classify_assumption(*other)
            assert got is not cls
            assert classify_assumption(*other) is got
            fresh = classify_assumption.__wrapped__(*other)
            assert (got.tag, got.diagnostics) == (tag, fresh.diagnostics)


class TestBlockCirculant:
    def test_identity(self):
        rng = np.random.default_rng(0)
        rhs = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
        x = solve_block_circulant(np.eye(2), np.zeros((2, 2)), rhs)
        np.testing.assert_allclose(x, rhs, atol=1e-14)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(2, 2)) + np.eye(2) * 3
        B = rng.normal(size=(2, 2))
        rhs = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        x = solve_block_circulant(A, B, rhs)
        # assemble the full 2n x 2n circulant and solve densely
        M = np.zeros((2 * n, 2 * n))
        for j in range(n):
            M[2 * j: 2 * j + 2, 2 * j: 2 * j + 2] = A
            jp = (j + 1) % n
            M[2 * j: 2 * j + 2, 2 * jp: 2 * jp + 2] = B
        ref = np.linalg.solve(M, rhs.ravel()).reshape(n, 2)
        np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12)

    def test_real_data_gives_real_solution(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(2, 2)) + np.eye(2) * 3
        B = rng.normal(size=(2, 2))
        rhs = rng.normal(size=(12, 2)).astype(complex)
        x = solve_block_circulant(A, B, rhs)
        assert np.abs(x.imag).max() < 1e-13

    def test_singular_symbol_names_frequency(self):
        rhs = np.ones((6, 2), dtype=complex)
        with pytest.raises(SingularSymbolError) as err:
            solve_block_circulant(np.eye(2), -np.eye(2), rhs)
        assert err.value.frequency == 0

    def test_singular_symbol_raises_on_every_call(self):
        # the inverse of the last system is cached; a raise is not
        rhs = np.ones((6, 2), dtype=complex)
        for _ in range(3):
            with pytest.raises(SingularSymbolError):
                solve_block_circulant(np.eye(2), -np.eye(2), rhs)
        x = solve_block_circulant(np.eye(2), np.zeros((2, 2)), rhs)
        np.testing.assert_array_equal(x, rhs)
        with pytest.raises(SingularSymbolError):
            solve_block_circulant(np.eye(2), -np.eye(2), rhs)


@st.composite
def _real_block_pairs(draw):
    """Random real A, B over scales 1e-100 .. 1e100, some with B drawn so
    that the symbol at a real frequency (l = 0 or N/2) is a rank-one
    matrix plus a drawn perturbation: cond from ~1 up past 1e8."""
    N = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        w = draw(st.sampled_from([1.0, -1.0] if N % 2 == 0 else [1.0]))
        S = (np.outer(rng.normal(size=2), rng.normal(size=2))
             + draw(st.sampled_from([1e-2, 1e-5, 1e-7])) * rng.normal(
                 size=(2, 2)))
        B = (S - A) / w
    scale = 10.0 ** draw(st.sampled_from([-100, -3, 0, 5, 100]))
    return A * scale, B * scale, N, rng


@settings(max_examples=300, deadline=None)
@given(case=_real_block_pairs())
def test_closed_form_inverse_matches_lapack(case):
    A, B, N, rng = case
    symbols = A + np.exp(2j * np.pi * np.arange(N) / N)[:, None, None] * B
    cond = np.linalg.cond(symbols)
    assume(cond.max() <= 1e8)
    rhat = rng.normal(size=(N, 2)) + 1j * rng.normal(size=(N, 2))
    want = np.linalg.solve(symbols, rhat[:, :, None])[:, :, 0]
    inv = _symbol_inverse(tuple(A.ravel()), tuple(B.ravel()), N)
    got = (inv[:, 0] * rhat[:, 0] + inv[:, 1] * rhat[:, 1]).T
    # both solves are backward stable, so they agree to a few eps * cond
    # relative per frequency: 1e-12 up to cond ~ 280, 16 eps cond beyond
    tol = np.maximum(1e-12, 16 * np.finfo(float).eps * cond)
    err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
    np.testing.assert_array_less(err, tol)


def _svd_conds(M):
    sv = np.linalg.svd(M, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return sv[:, 0] / sv[:, 1]


@st.composite
def _symbol_stacks(draw):
    """(N, 2, 2) complex stacks: random blocks, multiples of a unitary
    matrix (sigma1 = sigma2), blocks whose rows are parallel up to a drawn
    relative perturbation (cond up to ~1e16), exactly singular blocks and
    zero blocks, over scales 1e-100 .. 1e100."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    for i in range(n):
        kind = draw(st.sampled_from(["random", "unitary", "near", "singular",
                                     "zero"]))
        if kind == "unitary":
            M[i] = np.linalg.qr(M[i])[0]
        elif kind != "random":
            eps = (draw(st.sampled_from([1e-2, 1e-6, 1e-10, 1e-13, 1e-16]))
                   if kind == "near" else 0.0)
            z = complex(*rng.normal(size=2))
            M[i, 1] = z * M[i, 0] + eps * M[i, 1]
        if kind == "zero":
            M[i] = 0.0
        M[i] *= 10.0 ** draw(st.sampled_from([-100, -3, 0, 5, 100]))
    return M


@settings(max_examples=300, deadline=None)
@given(M=_symbol_stacks())
def test_symbol_ratio_bounds_svd_cond(M):
    # ||M||_F^2 / |det M| = cond + 1/cond.  Both sides are computed with
    # an absolute error of a few ulps of sigma_1 in sigma_2, so they agree
    # to a relative 1e-14 * cond
    ref = _svd_conds(M)
    got = symbol_conds(M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1])
    fine = np.isfinite(ref) & (ref < 1e15)
    ref_f, got_f = ref[fine], got[fine]
    slack = 1e-14 * ref_f ** 2
    np.testing.assert_array_less(ref_f - slack, got_f)
    np.testing.assert_array_less(got_f, ref_f + 1 / ref_f + slack)
    # the same first frequency is flagged, away from the cutoff itself
    finite = ref[np.isfinite(ref)]
    assume(not np.any(np.abs(finite / SYMBOL_COND_MAX - 1) < 0.01))
    flagged = np.flatnonzero(~(got <= SYMBOL_COND_MAX))
    flagged_ref = np.flatnonzero(~np.isfinite(ref) | (ref > SYMBOL_COND_MAX))
    assert flagged[:1].tolist() == flagged_ref[:1].tolist()


def test_singular_symbol_reports_first_bad_frequency():
    # B = (S - A) / omega^2 with S of rank one: the symbol A + omega^l B is
    # S, up to roundoff, at l = 2 and regular at every other frequency
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 2)) + np.eye(2) * 3
    S = np.outer(rng.normal(size=2), rng.normal(size=2))
    N = 8
    B = (S - A) / np.exp(2j * np.pi * 2 / N)
    with pytest.raises(SingularSymbolError) as err:
        solve_block_circulant(A, B, np.ones((N, 2)))
    assert err.value.frequency == 2
    assert not err.value.cond <= SYMBOL_COND_MAX
