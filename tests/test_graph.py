import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import K2, P3, random_connected_graph
from waveplan.errors import NumericalError, ValidationError
from waveplan.graph import (
    Laplacian,
    WeightedGraph,
    build_laplacian,
    graph_from_dict,
    graph_to_dict,
    random_geometric_graph,
    spectral_decompose,
)


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop"):
            WeightedGraph(n=2, edges=((1, 1, 1.0),))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValidationError, match="nonpositive weight"):
            WeightedGraph(n=2, edges=((1, 2, 0.0),))
        with pytest.raises(ValidationError, match="nonpositive weight"):
            WeightedGraph(n=2, edges=((1, 2, -1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValidationError, match="duplicate"):
            WeightedGraph(n=3, edges=((1, 2, 1.0), (1, 2, 2.0), (2, 3, 1.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            WeightedGraph(n=2, edges=((2, 1, 1.0),))
        with pytest.raises(ValidationError):
            WeightedGraph(n=2, edges=((1, 3, 1.0),))

    def test_disconnected_error_names_component(self):
        with pytest.raises(ValidationError) as err:
            WeightedGraph(n=4, edges=((1, 2, 1.0), (3, 4, 1.0)))
        assert "[1, 2]" in str(err.value)
        assert "[3, 4]" in str(err.value)


class TestBuildLaplacian:
    def test_k2(self):
        lap = build_laplacian(K2)
        assert lap.matrix.tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_triangle(self):
        tri = WeightedGraph(n=3, edges=((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
        lap = build_laplacian(tri)
        expected = [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]
        assert lap.matrix.tolist() == expected

    def test_path(self):
        lap = build_laplacian(P3)
        expected = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
        assert lap.matrix.tolist() == expected

    def test_nonadjacent_offdiagonals_exactly_zero(self):
        lap = build_laplacian(P3)
        assert lap.matrix[0, 2] == 0.0
        assert lap.matrix[2, 0] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    def test_row_sums_and_symmetry(self, n, seed):
        g = random_connected_graph(np.random.default_rng(seed), n)
        lap = build_laplacian(g)
        assert np.max(np.abs(lap.matrix.sum(axis=1))) <= 1e-12
        assert np.array_equal(lap.matrix, lap.matrix.T)


class TestSpectralDecompose:
    def test_k2_analytic(self):
        sd = spectral_decompose(build_laplacian(K2))
        assert np.allclose(sd.eigenvalues, [0.0, 2.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(sd.vectors[:, 0], [s, s], atol=1e-12)
        assert np.allclose(np.abs(sd.vectors[:, 1]), [s, s], atol=1e-12)
        # Sign convention: first nonzero component positive.
        assert sd.vectors[0, 1] > 0.0

    def test_path_eigenvalues(self):
        # Characteristic polynomial of the path Laplacian factors as
        # -x (x - 1) (x - 3), computed by hand from the 3x3 determinant.
        sd = spectral_decompose(build_laplacian(P3))
        assert np.allclose(sd.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=15), st.integers(min_value=0, max_value=2**31 - 1))
    def test_invariants(self, n, seed):
        g = random_connected_graph(np.random.default_rng(seed), n)
        lap = build_laplacian(g)
        sd = spectral_decompose(lap)
        q = sd.vectors
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10
        recon = q @ np.diag(sd.eigenvalues) @ q.T
        assert np.max(np.abs(recon - lap.matrix)) <= 1e-9 * np.max(np.abs(lap.matrix))
        assert np.all(np.diff(sd.eigenvalues) >= -1e-12)
        assert np.all(sd.eigenvalues >= -1e-10)
        assert np.allclose(sd.vectors[:, 0], np.full(n, 1.0 / np.sqrt(n)), atol=1e-10)
        ones = np.ones(n)
        for j in range(1, n):
            assert abs(q[:, j] @ ones) <= 1e-10 * np.sqrt(n)

    def test_groups_cover_all_indices(self):
        tri = WeightedGraph(n=3, edges=((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
        sd = spectral_decompose(build_laplacian(tri))
        # Triangle spectrum {0, 3, 3}: the repeated eigenvalue forms one group.
        assert sd.groups == ((0,), (1, 2))
        assert sd.group_rates[0] == 0.0
        assert sd.group_rates[1] == pytest.approx(3.0, abs=1e-12)

    def test_numerically_disconnected(self):
        near_zero = Laplacian(n=2, matrix=np.array([[1e-15, -1e-15], [-1e-15, 1e-15]]))
        with pytest.raises(NumericalError, match="disconnected"):
            spectral_decompose(near_zero)


def _reference_signs(q):
    """The per-column sign loop that _fix_signs vectorises."""
    out = q.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))
        if nz.size and col[nz[0]] < 0.0:
            out[:, k] = -col
    return out


def _reference_groups(evals, group_tol, zero_tol):
    """The grouping loop and per-group np.mean that spectral_decompose vectorises."""
    groups = []
    current = [0]
    for k in range(1, evals.size):
        if float(evals[k] - evals[k - 1]) <= group_tol:
            current.append(k)
        else:
            groups.append(tuple(current))
            current = [k]
    groups.append(tuple(current))
    rates = []
    for grp in groups:
        r = float(np.mean(evals[list(grp)]))
        rates.append(0.0 if abs(r) <= zero_tol else r)
    return tuple(groups), tuple(rates)


def _complete(n):
    return WeightedGraph(n=n, edges=tuple((i, j, 1.0) for i in range(1, n) for j in range(i + 1, n + 1)))


def _star(n):
    return WeightedGraph(n=n, edges=tuple((1, j, 1.0) for j in range(2, n + 1)))


def _cycle(n):
    return WeightedGraph(n=n, edges=tuple((i, i + 1, 1.0) for i in range(1, n)) + ((1, n, 1.0),))


def _path(n):
    return WeightedGraph(n=n, edges=tuple((i, i + 1, 1.0) for i in range(1, n)))


def _reference_laplacian(g):
    """The per-edge loop that build_laplacian vectorises."""
    m = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        a, b = i - 1, j - 1
        m[a, b] = -w
        m[b, a] = -w
        m[a, a] += w
        m[b, b] += w
    return m


def _reweighted(g, seed):
    """``g`` with weights drawn from [0.1, 3], so each diagonal sum depends on its order of additions."""
    w = np.random.default_rng(seed).uniform(0.1, 3.0, len(g.edges))
    return WeightedGraph(n=g.n, edges=tuple((i, j, float(x)) for (i, j, _), x in zip(g.edges, w)))


class TestLaplacianMatchesReferenceLoop:
    GRAPHS = (
        [K2, _path(9), _star(12), WeightedGraph(n=1, edges=())]
        + [_reweighted(_star(30), 1), _reweighted(_path(25), 2)]
        + [random_geometric_graph(n, 0.3, seed)[0] for n, seed in ((7, 1), (40, 2), (120, 3))]
        + [_reweighted(random_geometric_graph(n, 0.25, seed)[0], seed) for n, seed in ((9, 4), (60, 5), (200, 6), (400, 7))]
    )

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}e{len(g.edges)}")
    def test_bit_identical(self, g):
        assert np.array_equal(build_laplacian(g).matrix, _reference_laplacian(g))


class TestDecompositionMatchesReferenceLoops:
    GRAPHS = (
        [_complete(n) for n in (2, 5, 9, 10, 30)]
        + [_star(n) for n in (3, 9, 10, 25)]
        + [_cycle(n) for n in (3, 8, 41)]
        + [_path(n) for n in (2, 7, 60)]
        + [random_geometric_graph(n, 0.35, seed)[0] for n, seed in ((20, 1), (60, 2), (150, 3))]
    )

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}e{len(g.edges)}")
    def test_groups_signs_and_rates(self, g):
        lap = build_laplacian(g)
        sd = spectral_decompose(lap)
        evals, q = np.linalg.eigh(lap.matrix)
        assert np.array_equal(sd.vectors, _reference_signs(q))
        groups, rates = _reference_groups(evals, sd.group_tol, sd.zero_tol)
        assert sd.groups == groups
        assert sd.group_rates[0] == 0.0 == rates[0]
        for grp, new, old in zip(groups, sd.group_rates, rates):
            if len(grp) <= 8:
                assert new == old
            else:
                assert abs(new - old) <= 2 * np.spacing(abs(old))

    def test_large_groups_are_exercised(self):
        sizes = {len(grp) for g in self.GRAPHS for grp in spectral_decompose(build_laplacian(g)).groups}
        assert max(sizes) > 8 and 8 in sizes


class TestRandomGeometricGraph:
    def test_k2_when_radius_exceeds_diameter(self):
        g, seed = random_geometric_graph(2, 2.0, seed=123)
        assert g.edges == ((1, 2, 1.0),)
        assert seed == 123

    def test_deterministic(self):
        g1, s1 = random_geometric_graph(30, 0.35, seed=5)
        g2, s2 = random_geometric_graph(30, 0.35, seed=5)
        assert g1.edges == g2.edges
        assert s1 == s2

    def test_golden_n50(self):
        g, seed = random_geometric_graph(50, 0.3, seed=7)
        assert seed == 7
        assert len(g.edges) == 241

    def test_retry_cap_suggests_larger_radius(self):
        with pytest.raises(ValidationError, match="larger radius"):
            random_geometric_graph(40, 0.01, seed=1, max_retries=3)

    def test_needs_two_nodes(self):
        with pytest.raises(ValidationError):
            random_geometric_graph(1, 0.5, seed=1)


class TestGraphJson:
    def test_round_trip(self):
        g = WeightedGraph(n=3, edges=((1, 2, 0.5), (2, 3, 1.5)))
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_malformed(self):
        with pytest.raises(ValidationError, match="malformed graph"):
            graph_from_dict({"edges": []})
