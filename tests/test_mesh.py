import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uwdg
from uwdg import make_mesh
from uwdg.errors import ConfigurationError
from uwdg.mesh import _uniform_draws


def test_uniform_sizes():
    m = make_mesh(0, 2 * np.pi, 10)
    np.testing.assert_allclose(m.h_sizes, np.pi / 5)
    assert m.h == pytest.approx(np.pi / 5)
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
    d = make_mesh(0, 1, 32, "perturbed", 0.2, seed=np.uint8(123))
    np.testing.assert_array_equal(a.nodes, d.nodes)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 9),
       n=st.integers(4, 64),
       frac=st.floats(0.0, 0.49))
def test_node_invariants(seed, n, frac):
    m = make_mesh(-1.0, 3.0, n, "perturbed", frac, seed=seed)
    assert np.all(np.diff(m.nodes) > 0)
    assert np.sum(m.h_sizes) == pytest.approx(4.0, abs=1e-12)
    assert (m.h_sizes.max() / m.h_sizes.min()
            <= (1 + 2 * frac) / (1 - 2 * frac) + 1e-9)


def test_thousand_seeds_stay_valid():
    for seed in range(1000):
        m = make_mesh(0, 2 * np.pi, 12, "perturbed", 0.1, seed=seed)
        assert np.all(np.diff(m.nodes) > 0)
        assert np.sum(m.h_sizes) == pytest.approx(2 * np.pi, abs=1e-12)


@pytest.mark.parametrize("bad", [
    dict(N=3), dict(N=10, kind="perturbed", fraction=0.5),
    dict(N=10, kind="perturbed", fraction=-0.1), dict(N=10, kind="random"),
    dict(N=10, kind="perturbed", fraction=0.1, seed=-1),
    dict(N=10, kind="perturbed", fraction=0.0, seed=-2 ** 70),
    dict(N=10, kind="perturbed", fraction=0.1, seed=np.int64(-3)),
    dict(N=10, kind="perturbed", fraction=0.1, seed=1.5),
    dict(N=10, kind="perturbed", fraction=0.1, seed=2.0),
    dict(N=10, kind="perturbed", fraction=0.1, seed="3"),
    dict(N=10, kind="perturbed", fraction=0.1, seed=None),
    dict(N=20.5), dict(N=20.0), dict(N="20"), dict(N=None), dict(N=True),
    dict(N=10, kind="perturbed", fraction=0.1, seed=True),
    dict(N=10, kind="perturbed", fraction=0.1, seed=False),
    # N + 1 nodes past 2^53: float64 no longer holds every node index
    dict(N=2 ** 63 - 1), dict(N=2 ** 53),
])
def test_config_errors(bad):
    kwargs = dict(kind=bad.get("kind", "uniform"),
                  fraction=bad.get("fraction", 0.0), seed=bad.get("seed", 0))
    with pytest.raises(ConfigurationError):
        make_mesh(0, 1, bad.get("N", 10), **kwargs)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 300 - 1), n=st.integers(1, 700),
       half=st.floats(1e-300, 1e300))
# seeds of 1, 2, 3, 5 and 7 32-bit words; the pool holds 4
@example(seed=0, n=7, half=0.1)
@example(seed=2 ** 32, n=20, half=0.1)
@example(seed=2 ** 64, n=641, half=0.1)
@example(seed=2 ** 128, n=1, half=0.1)
@example(seed=2 ** 200 + 1, n=700, half=0.1)
def test_draws_are_default_rng_bit_for_bit(seed, n, half):
    expected = np.random.default_rng(seed).uniform(-half, half, n)
    got = _uniform_draws(seed, -half, half, n)
    assert got.dtype == expected.dtype and got.shape == (n,)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("N", [20, 40, 80, 160, 320, 640])
def test_golden_seeds_keep_their_meshes(N):
    # the seeds the golden records are keyed by, on the benchmark's meshes
    for seed in [*range(20), 42]:
        m = make_mesh(0, 2 * np.pi, N, "perturbed", 0.1, seed=seed)
        h = 2 * np.pi / N
        nodes = 0 + h * np.arange(N + 1, dtype=float)
        nodes[1:-1] += np.random.default_rng(seed).uniform(
            -0.1 * h, 0.1 * h, size=N - 1)
        nodes[0], nodes[-1] = 0, 2 * np.pi
        assert m.nodes.tobytes() == nodes.tobytes()
        assert m.h_sizes.tobytes() == np.diff(nodes).tobytes()


def test_perturbed_case_never_imports_numpy_random():
    # numpy loads its random package only on first use; a perturbed study
    # must not be that use
    code = (
        "import sys\n"
        "from uwdg.harness import StudyConfig, run_case\n"
        "from uwdg import ALTERNATING\n"
        "cfg = StudyConfig(k=2, Ns=(8,), flux=ALTERNATING, t_end=0.01,\n"
        "                  mesh_kind='perturbed', fraction=0.1, seed=42)\n"
        "row = run_case(cfg.validate(), 8)\n"
        "assert row['status'] == 'ok', row\n"
        "print('numpy.random' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(uwdg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_bad_cell_count_quoted_as_given():
    with pytest.raises(ConfigurationError, match="got N=True$"):
        make_mesh(0, 1, True)


def test_numpy_integer_cell_count():
    m = make_mesh(0, 1, np.int64(20))
    assert type(m.N) is int and m.N == 20 and m.is_uniform
    assert m.nodes.tobytes() == make_mesh(0, 1, 20).nodes.tobytes()


def test_empty_interval():
    with pytest.raises(ConfigurationError):
        make_mesh(1.0, 1.0, 8)


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


@pytest.mark.parametrize("kind", ["uniform", "perturbed"])
def test_parseval_weights_are_shared_per_degree_read_only(kind):
    m = make_mesh(0, 2 * np.pi, 12, kind, 0.1, seed=4)
    w = m.parseval_weights(3)
    np.testing.assert_array_equal(
        w, m.h_sizes[:, None] / np.array([1.0, 3.0, 5.0, 7.0]))
    assert m.parseval_weights(3) is w
    other = m.parseval_weights(2)
    assert other.shape == (12, 3) and other is not w
    assert make_mesh(0, 2 * np.pi, 12, kind, 0.1, seed=4) \
        .parseval_weights(3) is not w
    for table in (w, other):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
