import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from oracles import golub_welsch_rule, legendre_eval
from uwdg import basis


class TestLegendreEval:
    def test_endpoint_value(self):
        for m in range(9):
            assert legendre_eval(m, 0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_l2_at_zero(self):
        assert legendre_eval(2, 0, 0.0) == pytest.approx(-0.5, abs=1e-15)

    def test_derivative_at_one(self):
        # L'_m(1) = m(m+1)/2
        assert legendre_eval(3, 1, 1.0) == pytest.approx(6.0, abs=1e-13)
        for m in range(8):
            assert legendre_eval(m, 1, 1.0) == pytest.approx(
                m * (m + 1) / 2, abs=1e-12)
            assert legendre_eval(m, 1, -1.0) == pytest.approx(
                (-1) ** (m + 1) * m * (m + 1) / 2, abs=1e-12)

    def test_against_numpy(self):
        xi = np.linspace(-1, 1, 17)
        for m in range(7):
            c = np.zeros(m + 1)
            c[m] = 1.0
            ref = npleg.legval(xi, c)
            np.testing.assert_allclose(legendre_eval(m, 0, xi), ref,
                                       atol=1e-13)
            ref1 = npleg.legval(xi, npleg.legder(c)) if m else np.zeros_like(xi)
            np.testing.assert_allclose(legendre_eval(m, 1, xi), ref1,
                                       atol=1e-12)

    def test_table_matches_eval(self):
        xi = np.linspace(-0.97, 0.97, 11)
        tab = basis.legendre_table(6, xi, ders=2)
        for m in range(7):
            for s in range(3):
                np.testing.assert_allclose(
                    tab[:, s, m], legendre_eval(m, s, xi), atol=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            legendre_eval(-1, 0, 0.0)
        with pytest.raises(ValueError):
            legendre_eval(2, 3, 0.0)


# gauss_rule(n) for n <= 10, every rule the studies use, as float.hex of
# the nodes >= 0 and their weights; numpy 2.4's leggauss(n) gives them, and
# so does the Golub-Welsch oracle with this numpy's LAPACK
GAUSS_PINNED = {
    1: (('0x0.0p+0',),
        ('0x1.0000000000000p+1',)),
    2: (('0x1.279a74590331cp-1',),
        ('0x1.0000000000000p+0',)),
    3: (('0x0.0p+0', '0x1.8c97ef43f7248p-1'),
        ('0x1.c71c71c71c71cp-1', '0x1.1c71c71c71c73p-1')),
    4: (('0x1.5c23fd9dd3dfcp-2', '0x1.b8e6dbcf63985p-1'),
        ('0x1.4de5f840c24cdp-1', '0x1.64340f7e7b666p-2')),
    5: (('0x0.0p+0', '0x1.13b23fd99b705p-1', '0x1.cff6ce0533a69p-1'),
        ('0x1.23456789abcddp-1', '0x1.ea1da25ae4158p-2',
         '0x1.e539ec36e0393p-3')),
    6: (('0x1.e8b12d03675c5p-3', '0x1.528a09655c95ep-1',
         '0x1.dd6ca4e80a01dp-1'),
        ('0x1.df24d499545e8p-2', '0x1.716b7b5794c1ep-2',
         '0x1.5edf601e2dbf5p-3')),
    7: (('0x0.0p+0', '0x1.9f95df119fd62p-2', '0x1.7ba9f9be3a1d6p-1',
         '0x1.e5f178e7c622ap-1'),
        ('0x1.abfd7e03c2fa4p-2', '0x1.86fe74ee32b39p-2',
         '0x1.1e6b1713d8648p-2', '0x1.092f69f826d58p-3')),
    8: (('0x1.77ac94f3c7344p-3', '0x1.0d129583284b4p-1',
         '0x1.97e4ab249f41ep-1', '0x1.ebab1cb0acc66p-1'),
        ('0x1.736360b19933dp-2', '0x1.413c50a25560ep-2',
         '0x1.c76fb531d2b94p-3', '0x1.9ea1d04ca03aep-4')),
    9: (('0x0.0p+0', '0x1.4c0916e48aa66p-2', '0x1.3a0bd2077fd8cp-1',
         '0x1.ac0c44f0d0298p-1', '0x1.efb2b2ebf2106p-1'),
        ('0x1.522a43f65486bp-2', '0x1.3fd7e9838d513p-2',
         '0x1.0add87c827509p-2', '0x1.71f7a9b222be9p-3',
         '0x1.4ce65f803eee6p-4')),
    10: (('0x1.30e507891e27ap-3', '0x1.bbcc009016adcp-2',
          '0x1.5bdb9228de198p-1', '0x1.bae995e9cb2f3p-1',
          '0x1.f2a3e062af2d8p-1'),
         ('0x1.2e9de7014d6eep-2', '0x1.13baa7a559c01p-2',
          '0x1.c0b059d00bc30p-3', '0x1.32138c878efdep-3',
          '0x1.1115f8b62dc1fp-4')),
}


def _upper_half_hex(nodes, weights):
    n = len(nodes)
    return (tuple(x.hex() for x in nodes[n // 2:]),
            tuple(w.hex() for w in weights[n // 2:]))


# numpy before 2.4 rounds each Clenshaw step of legval as
# (c1 * (nd - 1)) / nd, so its leggauss is an ulp away from n = 4 on;
# with a numpy that does not give the pinned rules, they are the reference
NUMPY_LEGGAUSS_PINNED = all(_upper_half_hex(*npleg.leggauss(n)) == pinned
                            for n, pinned in GAUSS_PINNED.items())


class TestGaussRule:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_leggauss_bit_for_bit(self, n):
        # the pinned table for n <= 10, the Golub-Welsch oracle past it
        rule = basis.gauss_rule(n) if n in GAUSS_PINNED \
            else golub_welsch_rule(n)
        np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
        np.testing.assert_array_equal(rule.weights, rule.weights[::-1])
        if n in GAUSS_PINNED:
            assert _upper_half_hex(rule.nodes, rule.weights) \
                == GAUSS_PINNED[n]
        if NUMPY_LEGGAUSS_PINNED:
            nodes, weights = npleg.leggauss(n)
            assert rule.nodes.tobytes() == nodes.tobytes()
            assert rule.weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("n", GAUSS_PINNED)
    def test_table_is_the_golub_welsch_rule(self, n):
        # every entry of the table against its derivation: bit for bit
        # where this numpy's LAPACK gives the pinned rules, else to 4 ulps;
        # odd rules have +0.0 in the middle
        rule, oracle = basis.gauss_rule(n), golub_welsch_rule(n)
        if NUMPY_LEGGAUSS_PINNED:
            assert rule.nodes.tobytes() == oracle.nodes.tobytes()
            assert rule.weights.tobytes() == oracle.weights.tobytes()
        else:
            np.testing.assert_array_max_ulp(rule.nodes, oracle.nodes, 4)
            np.testing.assert_array_max_ulp(rule.weights, oracle.weights, 4)
        if n % 2:
            assert not np.signbit(rule.nodes[n // 2])

    def test_cached_and_read_only(self):
        rule = basis.gauss_rule(7)
        assert rule is basis.gauss_rule(7)
        assert not rule.nodes.flags.writeable
        assert not rule.weights.flags.writeable
        with pytest.raises(ValueError):
            basis.gauss_rule(0)
        with pytest.raises(ValueError):
            basis.gauss_rule(11)

    def test_one_point(self):
        r = basis.gauss_rule(1)
        np.testing.assert_allclose(r.nodes, [0.0])
        np.testing.assert_allclose(r.weights, [2.0])

    def test_two_point(self):
        r = basis.gauss_rule(2)
        np.testing.assert_allclose(np.sort(r.nodes), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
        np.testing.assert_allclose(r.weights, [1.0, 1.0])

    def test_five_point_degree_eight(self):
        r = basis.gauss_rule(5)
        assert r.nodes ** 8 @ r.weights == pytest.approx(2.0 / 9.0, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_exactness(self, n):
        # n points integrate monomials up to degree 2n-1 (past the table,
        # the oracle's rules)
        r = basis.gauss_rule(n) if n <= 10 else golub_welsch_rule(n)
        assert r.weights.sum() == pytest.approx(2.0, abs=1e-14)
        assert np.all(r.weights > 0)
        for p in range(2 * n):
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            assert r.nodes ** p @ r.weights == pytest.approx(exact, abs=1e-13)


    def test_weighted_legendre_table(self):
        # the quadrature table of project_l2 is cached and read-only
        rule = basis.gauss_rule(10)
        tab = basis.weighted_legendre_table(3, 10)
        assert tab is basis.weighted_legendre_table(3, 10)
        assert not tab.flags.writeable
        np.testing.assert_array_equal(
            tab, basis.legendre_table(3, rule.nodes)[:, 0, :]
            * rule.weights[:, None])


class TestAntiderivative:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_first_order_identity(self, m):
        e = np.zeros(m + 1)
        e[m] = 1.0
        out = basis.antiderivative_map(1, e)
        expect = np.zeros(m + 2)
        expect[m + 1] = 1.0 / (2 * m + 1)
        expect[m - 1] = -1.0 / (2 * m + 1)
        np.testing.assert_allclose(out, expect, atol=1e-15)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_second_order_identity(self, m):
        e = np.zeros(m + 1)
        e[m] = 1.0
        out = basis.antiderivative_map(2, e)
        expect = np.zeros(m + 3)
        expect[m + 2] = 1.0 / ((2 * m + 1) * (2 * m + 3))
        expect[m] = -1.0 / ((2 * m + 1) * (2 * m + 3)) \
            - 1.0 / ((2 * m + 1) * (2 * m - 1))
        expect[m - 2] = 1.0 / ((2 * m + 1) * (2 * m - 1))
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_constant(self):
        np.testing.assert_allclose(basis.antiderivative_map(1, [1.0]), [1.0, 1.0])

    def test_left_endpoint_zero(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=7)
        for order in (1, 2):
            out = basis.antiderivative_map(order, c)
            assert npleg.legval(-1.0, out) == pytest.approx(0.0, abs=1e-13)

    def test_differentiation_recovers(self):
        rng = np.random.default_rng(4)
        for order in (1, 2):
            c = rng.normal(size=6) + 1j * rng.normal(size=6)
            out = basis.antiderivative_map(order, c)
            back = out
            for _ in range(order):
                back = npleg.legder(back)
            np.testing.assert_allclose(back[: len(c)], c, atol=1e-10)


class TestReferenceMatrices:
    def test_stiff2_entry(self):
        stiff2 = basis.reference_matrices(2)
        assert stiff2.shape == (3, 3) and not stiff2.flags.writeable
        assert stiff2[2, 0] == pytest.approx(6.0, abs=1e-13)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_zero_pattern(self, k):
        stiff2 = basis.reference_matrices(k)
        for m in range(k + 1):
            for n in range(k + 1):
                if n > m - 2 or (m + n) % 2:
                    assert stiff2[m, n] == 0.0

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_against_sympy(self, k):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        stiff2 = basis.reference_matrices(k)
        for m in range(k + 1):
            dd = sympy.diff(sympy.legendre(m, x), x, 2)
            for n in range(k + 1):
                exact = sympy.integrate(sympy.legendre(n, x) * dd, (x, -1, 1))
                assert stiff2[m, n] == pytest.approx(float(exact), abs=1e-12)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            basis.reference_matrices(1)


def cox_de_boor(ell, x):
    """Reference: the recursion over the half-open indicator of [-1/2, 1/2),
    (x + ell/2) psi^(ell-1)(x + 1/2) + (ell/2 - x) psi^(ell-1)(x - 1/2)
    over ell - 1."""
    if ell == 1:
        return np.where((x >= -0.5) & (x < 0.5), 1.0, 0.0)
    return ((x + ell / 2) * cox_de_boor(ell - 1, x + 0.5)
            + (ell / 2 - x) * cox_de_boor(ell - 1, x - 0.5)) / (ell - 1)


class TestBSpline:
    @pytest.mark.parametrize("ell", range(1, 8))
    def test_table_matches_cox_de_boor(self, ell):
        knots = np.arange(ell + 1) - ell / 2
        x = np.concatenate([np.linspace(-ell / 2 - 1, ell / 2 + 1, 1001),
                            knots, knots + 0.25])
        np.testing.assert_allclose(basis.bspline_eval(ell, x),
                                   cox_de_boor(ell, x), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("ell", range(1, 8))
    def test_half_open_at_knots(self, ell):
        lo, hi = -ell / 2, ell / 2
        assert basis.bspline_eval(ell, lo) == (1.0 if ell == 1 else 0.0)
        assert basis.bspline_eval(ell, hi) == 0.0
        assert basis.bspline_eval(ell, np.nextafter(lo, -np.inf)) == 0.0
        below_hi = basis.bspline_eval(ell, np.nextafter(hi, 0.0))
        assert (below_hi == 1.0) if ell == 1 else abs(below_hi) < 1e-14

    def test_indicator(self):
        assert basis.bspline_eval(1, 0.0) == 1.0
        assert basis.bspline_eval(1, 0.6) == 0.0

    def test_hat_peak(self):
        assert basis.bspline_eval(2, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("ell", range(1, 8))
    def test_unit_mass(self, ell):
        # integrate piecewise over the knot intervals, exact Gauss per piece
        rule = basis.gauss_rule(ell + 1)
        total = 0.0
        for i in range(ell):
            a, b = -ell / 2 + i, -ell / 2 + i + 1
            x = 0.5 * (a + b) + 0.5 * (b - a) * rule.nodes
            total += 0.5 * (b - a) * (basis.bspline_eval(ell, x) @ rule.weights)
        assert total == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("ell", range(1, 8))
    def test_partition_of_unity(self, ell):
        x = np.linspace(-0.5, 0.5, 100, endpoint=False)
        total = sum(basis.bspline_eval(ell, x - j) for j in range(-8, 9))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_support(self):
        for ell in range(1, 6):
            assert basis.bspline_eval(ell, ell / 2 + 1e-9) == 0.0
            assert basis.bspline_eval(ell, -ell / 2 - 1e-9) == 0.0
