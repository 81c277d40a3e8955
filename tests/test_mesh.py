import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwdg import make_mesh
from uwdg.errors import ConfigurationError


def test_uniform_sizes():
    m = make_mesh(0, 2 * np.pi, 10)
    np.testing.assert_allclose(m.h_sizes, np.pi / 5)
    assert m.sigma == pytest.approx(1.0)
    assert m.is_uniform


def test_perturbed_bounds():
    m = make_mesh(0, 2 * np.pi, 10, "perturbed", 0.1, seed=11)
    h = np.pi / 5
    assert np.all(m.h_sizes >= 0.8 * h - 1e-15)
    assert np.all(m.h_sizes <= 1.2 * h + 1e-15)
    assert not m.is_uniform


def test_zero_fraction_is_uniform():
    a = make_mesh(0, 2 * np.pi, 16, "perturbed", 0.0, seed=9)
    b = make_mesh(0, 2 * np.pi, 16)
    np.testing.assert_array_equal(a.nodes, b.nodes)


def test_seed_determinism():
    a = make_mesh(0, 1, 32, "perturbed", 0.2, seed=123)
    b = make_mesh(0,  1, 32, "perturbed", 0.2, seed=123)
    np.testing.assert_array_equal(a.nodes, b.nodes)
    c = make_mesh(0, 1, 32, "perturbed", 0.2, seed=124)
    assert not np.array_equal(a.nodes, c.nodes)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 9),
       n=st.integers(4, 64),
       frac=st.floats(0.0, 0.49))
def test_node_invariants(seed, n, frac):
    m = make_mesh(-1.0, 3.0, n, "perturbed", frac, seed=seed)
    assert np.all(np.diff(m.nodes) > 0)
    assert np.sum(m.h_sizes) == pytest.approx(4.0, abs=1e-12)
    assert m.sigma <= (1 + 2 * frac) / (1 - 2 * frac) + 1e-9


def test_thousand_seeds_stay_valid():
    for seed in range(1000):
        m = make_mesh(0, 2 * np.pi, 12, "perturbed", 0.1, seed=seed)
        assert np.all(np.diff(m.nodes) > 0)
        assert np.sum(m.h_sizes) == pytest.approx(2 * np.pi, abs=1e-12)


@pytest.mark.parametrize("bad", [
    dict(N=3), dict(N=10, kind="perturbed", fraction=0.5),
    dict(N=10, kind="perturbed", fraction=-0.1), dict(N=10, kind="random"),
])
def test_config_errors(bad):
    kwargs = dict(kind=bad.get("kind", "uniform"),
                  fraction=bad.get("fraction", 0.0))
    with pytest.raises(ConfigurationError):
        make_mesh(0, 1, bad.get("N", 10), **kwargs)


def test_empty_interval():
    with pytest.raises(ConfigurationError):
        make_mesh(1.0, 1.0, 8)


def test_wrap_and_cell_lookup():
    m = make_mesh(0, 2 * np.pi, 8)
    assert m.wrap(8) == 0
    assert m.wrap(-1) == 7
    j, xi = m.reference_coord(m.centers[3])
    assert j == 3
    assert xi == pytest.approx(0.0, abs=1e-14)
    # periodic reduction
    j2, _ = m.reference_coord(m.centers[3] + 2 * np.pi)
    assert j2 == 3


@pytest.mark.parametrize("N", [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6])
def test_uniformity_is_node_roundoff_at_any_n(N):
    # diff(nodes) carries roundoff of a few ulps of max|x|, which relative
    # to h grows with N; a 1e-6 perturbation must still count
    assert make_mesh(0, 2 * np.pi, N).is_uniform
    assert not make_mesh(0, 2 * np.pi, N, "perturbed", 1e-6, seed=3).is_uniform


@pytest.mark.parametrize("kind", ["uniform", "perturbed"])
def test_mesh_tables_are_cached_read_only(kind):
    m = make_mesh(0, 2 * np.pi, 12, kind, 0.1, seed=4)
    nodes = np.polynomial.legendre.leggauss(5)[0]
    pts = m.quad_points(nodes)
    np.testing.assert_array_equal(
        pts, 0.5 * (m.nodes[:-1] + m.nodes[1:])[:, None]
        + 0.5 * m.h_sizes[:, None] * nodes[None, :])
    np.testing.assert_array_equal(m.centers,
                                  0.5 * (m.nodes[:-1] + m.nodes[1:]))
    # one table per set of reference nodes, equal nodes included
    assert m.quad_points(nodes.copy()) is pts
    assert m.centers is m.centers and m.interfaces is m.interfaces
    np.testing.assert_array_equal(m.interfaces, m.nodes[1:])
    other = m.quad_points(nodes[:3])
    assert other.shape == (12, 3) and other is not pts
    np.testing.assert_array_equal(m.quad_points(0.5 * nodes),
                                  m.centers[:, None]
                                  + 0.25 * m.h_sizes[:, None] * nodes)
    for table in (pts, other, m.centers, m.interfaces):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
