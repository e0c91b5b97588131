import dataclasses
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import K2, P3, random_connected_graph
from oracles import dense_geometric_edges
from waveplan import graph, oracle
from waveplan.bundles import seven_agent_problem
from waveplan.costate import projected_coefficients
from waveplan.dynamics import terminal_state
from waveplan.errors import NumericalError, ValidationError
from waveplan.graph import (
    MAX_AGENTS,
    WeightedGraph,
    build_laplacian,
    graph_from_dict,
    graph_to_dict,
    group_support,
    project,
    random_geometric_graph,
    spectral_decompose,
)
from waveplan.problem import CampaignProblem, Channel, CostModel, Drift, Objective, Prepared, check_conditions
from waveplan.sweep import default_radius, sweep_instance
from waveplan.waterfill import BangBangSchedule, ChannelSchedule


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

    def test_rejects_nan_index(self):
        with pytest.raises(ValidationError, match="finite integer"):
            WeightedGraph(n=3, edges=((1, 2, 1.0), (float("nan"), 3, 1.0)))

    @pytest.mark.parametrize("edge, shown", [((1.5, 2, 1.0), "(1.5, 2)"), ((1, 2.5, 1.0), "(1, 2.5)")])
    def test_rejects_fractional_index(self, edge, shown):
        with pytest.raises(ValidationError, match=re.escape(f"edge {shown} must have finite integer")):
            WeightedGraph(n=3, edges=((1, 3, 1.0), edge))

    def test_rejects_non_numeric_weight(self):
        with pytest.raises(ValidationError, match="triples of numbers"):
            WeightedGraph(n=2, edges=((1, 2, "x"),))

    def test_rejects_edges_that_are_not_triples(self):
        with pytest.raises(ValidationError, match="triples"):
            WeightedGraph(n=2, edges=((1, 2),))

    @pytest.mark.parametrize("n", [7.9, 7.0, "7", True, 0])
    def test_rejects_agent_count_that_is_not_a_positive_integer(self, n):
        with pytest.raises(ValidationError, match="^agent count must be (an integer|at least 1), got "):
            WeightedGraph(n=n, edges=())

    # 3037000499 is the least n with n * (n + 2) above the int64 maximum.
    @pytest.mark.parametrize("n", [2**63, 3037000499, np.int64(3037000499)])
    def test_rejects_agent_count_whose_pair_keys_overflow(self, n):
        with pytest.raises(ValidationError, match="too large"):
            WeightedGraph(n=n, edges=((1, 2, 1.0),))

    def test_rejects_agent_count_above_the_limit(self):
        # A connected path: accepted up to the limit, rejected one node past it.
        n = MAX_AGENTS + 1
        edges = np.column_stack((np.arange(1, n), np.arange(2, n + 1), np.ones(n - 1)))
        with pytest.raises(ValidationError, match=f"at most {MAX_AGENTS} agents"):
            WeightedGraph(n=n, edges=edges)
        assert WeightedGraph(n=n - 1, edges=edges[:-1]).n == MAX_AGENTS

    def test_sample_arrays_share_the_laplacian_ceiling(self):
        # The largest Laplacian's MAX_AGENTS x MAX_AGENTS entries, 2 GiB, and one row more.
        assert graph._entries_fault(MAX_AGENTS, "rows", MAX_AGENTS, MAX_AGENTS) is None
        fault = graph._entries_fault(MAX_AGENTS + 1, "rows", MAX_AGENTS + 1, MAX_AGENTS)
        assert fault.startswith(f"rows {MAX_AGENTS + 1} is too large") and "2 GiB" in fault

    def test_geometric_graph_checks_the_limit_before_placing_points(self):
        # Past the limit the n points and their candidate pairs would be
        # formed first.
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"at most {MAX_AGENTS} agents"):
                random_geometric_graph(MAX_AGENTS + 1, 0.1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "edges, message",
        [
            (((True, 2, 1.0),), r"field edges\[0\]\[0\] is a boolean"),
            (((1, 2, True),), r"field edges\[0\]\[2\] is a boolean"),
            ([np.array([1.0, 2.0, 1.0]), (1, np.bool_(True), 1.0)], r"field edges\[1\]\[1\] is a boolean"),
            (np.array([[True, True, True]]), "triples of numbers"),
        ],
    )
    def test_rejects_booleans(self, edges, message):
        # numpy reads True as 1, so each of these would be the edge (1, 2, 1.0).
        with pytest.raises(ValidationError, match=message):
            WeightedGraph(n=2, edges=edges)

    @pytest.mark.parametrize("seed, n", [(1, 2), (2, 7), (3, 15), (4, 40)])
    def test_array_input_equals_tuple_input(self, seed, n):
        g = random_connected_graph(np.random.default_rng(seed), n)
        arr = np.array(g.edges)
        from_array = WeightedGraph(n=n, edges=arr)
        assert from_array == g
        assert all(type(i) is int and type(j) is int and type(w) is float for i, j, w in from_array.edges)
        assert np.array_equal(build_laplacian(from_array), build_laplacian(g))
        int_ends = WeightedGraph(n=n, edges=np.column_stack((arr[:, :2].astype(int), arr[:, 2])))
        assert int_ends == g

    def test_first_bad_edge_reported_as_by_edge_loop(self):
        rng = np.random.default_rng(12)
        weights = [1.0, 0.5, 0.0, -1.0, float("inf"), float("nan")]
        for _ in range(400):
            n = int(rng.integers(1, 7))
            edges = []
            for _ in range(int(rng.integers(1, 8))):
                if n >= 2 and rng.random() < 0.6:
                    i, j = sorted(rng.choice(np.arange(1, n + 1), 2, replace=False).tolist())
                else:
                    i, j = rng.integers(0, n + 2, size=2).tolist()
                edges.append((i, j, weights[int(rng.choice(6, p=[0.5, 0.2, 0.1, 0.1, 0.05, 0.05]))]))
            expected = _reference_first_error(n, edges)
            if expected is None:
                continue
            with pytest.raises(ValidationError) as err:
                WeightedGraph(n=n, edges=tuple(edges))
            assert str(err.value) == expected


def _reference_first_error(n, edges):
    """The per-edge validation loop that WeightedGraph vectorises: the message it raises, or None."""
    seen = set()
    for e in edges:
        i, j, w = int(e[0]), int(e[1]), float(e[2])
        if i == j:
            return f"self-loop on node {i} is forbidden"
        if not (1 <= i < j <= n):
            return f"edge ({i}, {j}) must satisfy 1 <= i < j <= n={n}"
        if (i, j) in seen:
            return f"duplicate edge ({i}, {j})"
        if not (w > 0.0) or not np.isfinite(w):
            return f"edge ({i}, {j}) has nonpositive weight {w}"
        seen.add((i, j))
    return None


class TestBuildLaplacian:
    def test_k2(self):
        lap = build_laplacian(K2)
        assert lap.tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_triangle(self):
        tri = WeightedGraph(n=3, edges=((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
        lap = build_laplacian(tri)
        expected = [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]
        assert lap.tolist() == expected

    def test_path(self):
        lap = build_laplacian(P3)
        expected = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
        assert lap.tolist() == expected

    def test_nonadjacent_offdiagonals_exactly_zero(self):
        lap = build_laplacian(P3)
        assert lap[0, 2] == 0.0
        assert lap[2, 0] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    def test_row_sums_and_symmetry(self, n, seed):
        g = random_connected_graph(np.random.default_rng(seed), n)
        lap = build_laplacian(g)
        assert np.max(np.abs(lap.sum(axis=1))) <= 1e-12
        assert np.array_equal(lap, lap.T)


class TestSpectralDecompose:
    def test_k2_analytic(self):
        sd = spectral_decompose(build_laplacian(K2))
        assert np.allclose(sd.eigenvalues, [0.0, 2.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(sd.vectors), s, atol=1e-12)
        assert sd.vectors[0, 1] * sd.vectors[1, 1] < 0.0  # the difference mode, whatever its sign

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
        assert np.max(np.abs(recon - lap)) <= 1e-9 * np.max(np.abs(lap))
        assert np.all(np.diff(sd.eigenvalues) >= -1e-12)
        assert np.all(sd.eigenvalues >= -1e-10)
        assert np.allclose(np.abs(sd.vectors[:, 0]), 1.0 / np.sqrt(n), atol=1e-10)
        ones = np.ones(n)
        for j in range(1, n):
            assert abs(q[:, j] @ ones) <= 1e-10 * np.sqrt(n)

    def test_groups_cover_all_indices(self):
        tri = WeightedGraph(n=3, edges=((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
        sd = spectral_decompose(build_laplacian(tri))
        # Triangle spectrum {0, 3, 3}: the repeated eigenvalue forms one
        # group, the index run that starts at 1 and ends at n = 3.
        assert sd.group_starts.tolist() == [0, 1]
        assert sd.group_rates[0] == 0.0
        assert sd.group_rates[1] == pytest.approx(3.0, abs=1e-12)

    def test_numerically_disconnected(self):
        near_zero = np.array([[1e-15, -1e-15], [-1e-15, 1e-15]])
        with pytest.raises(NumericalError, match="disconnected"):
            spectral_decompose(near_zero)


def _family_graph(kind: str, n: int, rng: np.random.Generator) -> WeightedGraph:
    """Complete graphs, stars and cycles have repeated eigenvalues; the random graphs mostly do not."""
    if kind == "complete":
        return _complete(n)
    if kind == "star":
        return _star(n)
    if kind == "cycle" and n >= 3:
        return _cycle(n)
    return random_connected_graph(rng, n)


def _sigmoid_desk_problem(g: WeightedGraph, m: int, rng: np.random.Generator) -> CampaignProblem:
    """A sigmoid problem with mixed-sign gains, a nonzero start and a two-piece drift."""
    n = g.n
    channels = tuple(
        Channel(b=rng.uniform(-1.0, 1.0, n), cost=CostModel("power", 1.0, 0.7), u_max=1.0) for _ in range(m)
    )
    objective = Objective(
        kind="sigmoid", p=rng.uniform(0.2, 1.0, n), alpha=rng.uniform(1.0, 4.0, n), theta=rng.normal(0.0, 0.2, n)
    )
    drift = Drift(breakpoints=np.array([0.0, 0.4]), values=rng.normal(0.0, 0.3, (2, n)))
    return CampaignProblem(
        graph=g, channels=channels, objective=objective, T=1.0, r=0.5 * m, x0=rng.normal(0.0, 0.3, n), drift=drift
    )


def _negated(sd, flip):
    """``sd`` with the eigenvector columns where ``flip`` is true negated."""
    vectors = sd.vectors * np.where(flip, -1.0, 1.0)
    vectors.setflags(write=False)
    return dataclasses.replace(sd, vectors=vectors)


def _prepared(prob, sd):
    """``prob`` prepared on the decomposition ``sd``, its gains projected onto it."""
    return Prepared(problem=prob, sd=sd, gains=project(sd, [ch.b for ch in prob.channels]))


def _sigmoid_scores(prep, spec):
    """The sigmoid oracle's result and every feasible candidate's score."""
    scores = []
    score = oracle._score_sigmoid

    def recording(*args):
        values = score(*args)
        scores.append(values)
        return values

    with mock.patch.object(oracle, "_score_sigmoid", recording):
        result = oracle.enumerate_best(prep, spec)
    (values,) = scores
    return result, values.tobytes()


class TestSignInvariance:
    """No output depends on the signs of the eigenvector columns, which the eigensolver picks freely."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["complete", "star", "cycle", "random"]),
        st.integers(2, 8),
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
    )
    def test_negating_eigenvector_columns_changes_no_bit(self, kind, n, m, seed):
        rng = np.random.default_rng(seed)
        prob = _sigmoid_desk_problem(_family_graph(kind, n, rng), m, rng)
        sd = spectral_decompose(build_laplacian(prob.graph))
        flipped = _negated(sd, rng.random(n) < 0.5)
        bs = np.array([ch.b for ch in prob.channels])
        lam = rng.uniform(0.0, 1.0, n)
        coeffs = projected_coefficients(sd, lam, project(sd, bs))
        assert coeffs.tobytes() == projected_coefficients(flipped, lam, project(flipped, bs)).tobytes()
        assert np.array_equal(group_support(sd, project(sd, bs)), group_support(flipped, project(flipped, bs)))
        prep, flip = _prepared(prob, sd), _prepared(prob, flipped)
        assert check_conditions(prep) == check_conditions(flip)
        schedule = BangBangSchedule(
            channels=tuple(
                ChannelSchedule(u_max=1.0, intervals=((0.1 * (k + 1), 0.5), (0.7, 1.0))) for k in range(m)
            )
        )
        assert terminal_state(prep, schedule).tobytes() == terminal_state(flip, schedule).tobytes()
        spec = oracle.EnumerationSpec(switch_grid=4, max_switches_per_channel=1)
        assert _sigmoid_scores(prep, spec) == _sigmoid_scores(flip, spec)

    def test_repeated_eigenvalues_are_exercised(self):
        sd = spectral_decompose(build_laplacian(_complete(6)))
        assert sd.group_starts.tolist() == [0, 1]


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
        + [random_connected_graph(np.random.default_rng(seed), n) for n, seed in ((3, 8), (17, 9), (80, 10))]
    )

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}e{len(g.edges)}")
    def test_bit_identical(self, g):
        assert np.array_equal(build_laplacian(g), _reference_laplacian(g))


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
        evals, q = np.linalg.eigh(lap)
        assert np.array_equal(sd.vectors, q)  # the eigensolver's columns and signs, unchanged
        groups, rates = _reference_groups(evals, sd.group_tol, sd.zero_tol)
        # Groups are contiguous index runs: the starts and the eigenvalue
        # count give every group back.
        ends = sd.group_starts[1:].tolist() + [g.n]
        assert tuple(tuple(range(a, b)) for a, b in zip(sd.group_starts.tolist(), ends)) == groups
        assert sd.group_rates.shape == (len(groups),)
        assert sd.group_rates[0] == 0.0 == rates[0]
        for grp, new, old in zip(groups, sd.group_rates, rates):
            if len(grp) <= 8:
                assert new == old
            else:
                assert abs(new - old) <= 2 * np.spacing(abs(old))

    def test_large_groups_are_exercised(self):
        sizes = {
            size
            for g in self.GRAPHS
            for size in np.diff(spectral_decompose(build_laplacian(g)).group_starts, append=g.n).tolist()
        }
        assert max(sizes) > 8 and 8 in sizes


def _padded_reduceat_groups(evals, group_tol, zero_tol):
    """Group starts, and rates by np.add.reduceat with a 0.0 inserted at each group's head: the reference."""
    starts = np.concatenate([[0], np.flatnonzero(np.diff(evals) > group_tol) + 1])
    ends = np.append(starts[1:], evals.size)
    padded = np.insert(evals, starts, 0.0)
    rates = np.add.reduceat(padded, starts + np.arange(starts.size)) / (ends - starts)
    rates[np.abs(rates) <= zero_tol] = 0.0
    return starts, rates


def _singleton_geometric(n, seed):
    g = random_geometric_graph(n, default_radius(n), seed)[0]
    assert spectral_decompose(build_laplacian(g)).group_starts.size == n  # every group a singleton
    return g


class TestGroupRatesMatchPaddedReduceat:
    GRAPHS = (
        [_complete(n) for n in (3, 8, 9, 40, 100)]
        + [_star(n) for n in (4, 10, 50)]
        + [_cycle(n) for n in (4, 9, 64)]
        + [_path(n) for n in (5, 33)]
        + [seven_agent_problem().graph]
        + [_singleton_geometric(n, seed) for n, seed in ((30, 2), (60, 3), (150, 3), (200, 3))]
    )

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}e{len(g.edges)}")
    def test_bit_identical(self, g):
        sd = spectral_decompose(build_laplacian(g))
        starts, rates = _padded_reduceat_groups(sd.eigenvalues, sd.group_tol, sd.zero_tol)
        assert np.array_equal(sd.group_starts, starts) and sd.group_starts.dtype == starts.dtype
        assert sd.group_rates.tobytes() == rates.tobytes()

    def test_repeated_eigenvalues_are_exercised(self):
        sizes = [np.diff(spectral_decompose(build_laplacian(g)).group_starts, append=g.n).max() for g in self.GRAPHS]
        assert max(sizes) == 99 and min(sizes) == 1


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

    def test_retry_cap_suggests_larger_radius(self, monkeypatch):
        monkeypatch.setattr(graph, "GEOMETRIC_RETRIES", 3)
        with pytest.raises(ValidationError, match="larger radius"):
            random_geometric_graph(40, 0.01, seed=1)

    def test_one_connectivity_check_per_draw(self, monkeypatch):
        from waveplan import graph

        calls = []

        def counting(n, ends):
            calls.append(n)
            return original(n, ends)

        original = graph._connected_component
        monkeypatch.setattr(graph, "_connected_component", counting)
        g, used = random_geometric_graph(30, 0.25, seed=1)
        assert used == 5  # four disconnected draws, then the accepted one
        assert len(calls) == 5
        calls.clear()
        random_geometric_graph(30, 0.35, seed=5)
        assert len(calls) == 1

    def test_needs_two_nodes(self):
        with pytest.raises(ValidationError):
            random_geometric_graph(1, 0.5, seed=1)

    @pytest.mark.parametrize("radius", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_radius_not_finite_and_positive(self, radius):
        with pytest.raises(ValidationError, match="radius"):
            random_geometric_graph(10, radius, seed=1)

    @pytest.mark.parametrize("n, radius", [(2, 2.0), (20, 0.4), (60, 0.25), (150, 0.2), (300, 0.12)])
    def test_edges_match_pair_loop(self, n, radius):
        # The pair comprehension the vectorised edge selection replaced.
        g, seed = random_geometric_graph(n, radius, seed=11)
        pts = np.random.default_rng(seed).random((n, 2))
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        expected = tuple(
            (i + 1, j + 1, 1.0)
            for i in range(n)
            for j in range(i + 1, n)
            if d2[i, j] <= radius * radius
        )
        assert g.edges == expected


    @pytest.mark.parametrize("n", [2, 3, 8, 100, 200])
    def test_window_search_matches_the_dense_reference(self, n):
        radii = [1e-300, 1e-3, 0.05, default_radius(n), 0.3, 1.0, 1.5, 3.0]
        for seed in range(12):
            pts = np.random.default_rng(seed).random((n, 2))
            for radius in radii:
                got = graph._geometric_edges(pts, radius)
                want = dense_geometric_edges(pts, radius)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (seed, radius)

    def test_window_search_on_ties_and_exact_distances(self):
        # Lattice points: equal x coordinates, and pairs at exactly the radius.
        for seed in range(40):
            pts = np.random.default_rng(seed).integers(0, 8, (30, 2)) / 8.0
            for radius in (0.125, 0.25, np.sqrt(2.0) * 0.125, 0.3):
                got = graph._geometric_edges(pts, radius)
                want = dense_geometric_edges(pts, radius)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (seed, radius)

    @pytest.mark.parametrize("n, radius, seed", [(30, 0.25, 1), (60, 0.18, 3), (12, 0.3, 9), (200, 0.12, 4)])
    def test_retried_draws_match_the_dense_reference(self, n, radius, seed):
        used = None
        for s in range(seed, seed + 65):
            rows, cols = dense_geometric_edges(np.random.default_rng(s).random((n, 2)), radius)
            try:
                want = WeightedGraph(n=n, edges=np.column_stack((rows + 1, cols + 1, np.ones(rows.size))))
            except ValidationError:
                continue
            used = s
            break
        g, s = random_geometric_graph(n, radius, seed)
        assert (g, s) == (want, used)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((10, True, 1), "radius must be a real number, got True"),
            ((10, np.bool_(True), 1), "radius must be a real number"),
            ((10, "0.5", 1), "radius must be a real number, got '0.5'"),
            ((10, None, 1), "radius must be a real number, got None"),
            ((10, 10**400, 1), "radius must be finite, got 1000"),
            ((10.0, 0.5, 1), "agent count must be an integer, got 10.0"),
            ((True, 0.5, 1), "agent count must be an integer, got True"),
            (("10", 0.5, 1), "agent count must be an integer"),
            ((10, 0.5, 1.5), "seed must be an integer, got 1.5"),
            ((10, 0.5, True), "seed must be an integer, got True"),
            ((10, 0.5, -1), "seed must be at least 0, got -1"),
        ],
    )
    def test_rejects_inputs_of_the_wrong_kind(self, args, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            random_geometric_graph(*args)

    def test_integer_inputs_of_numpy_type_are_accepted(self):
        g, s = random_geometric_graph(np.int64(30), 0.35, np.uint32(5))
        assert (g, s) == random_geometric_graph(30, 0.35, 5)
        assert random_geometric_graph(2, 2, 1)[0].edges == ((1, 2, 1.0),)

    def test_retries_from_a_seed_at_its_type_limit_do_not_wrap(self, monkeypatch):
        # seed + 1 in int64 would wrap to a negative seed, which numpy rejects.
        monkeypatch.setattr(graph, "GEOMETRIC_RETRIES", 2)
        with pytest.raises(ValidationError, match="no connected geometric graph in 3 attempts"):
            random_geometric_graph(30, 0.01, np.int64(2**63 - 1))

    @pytest.mark.parametrize("radius", [True, "0.5"])
    def test_sweep_radius_of_the_wrong_kind_is_a_validation_error(self, radius):
        with pytest.raises(ValidationError, match="radius must be a real number"):
            sweep_instance(20, 0, 1, radius=radius)


class TestGraphJson:
    def test_round_trip(self):
        g = WeightedGraph(n=3, edges=((1, 2, 0.5), (2, 3, 1.5)))
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_malformed(self):
        with pytest.raises(ValidationError, match="malformed graph"):
            graph_from_dict({"edges": []})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"n": 2, "edges": [[True, 2, 1.0]]}, r"^malformed graph object: field edges\[0\]\[0\] is a boolean"),
            ({"n": 2, "edges": [[1, 2, True]]}, r"^malformed graph object: field edges\[0\]\[2\] is a boolean"),
            ({"n": True, "edges": []}, "^agent count must be an integer, got True"),
        ],
    )
    def test_boolean_is_not_a_number(self, payload, message):
        # JSON true would otherwise load as the number 1.
        with pytest.raises(ValidationError, match=message):
            graph_from_dict(payload)

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"n": 3, "edges": [[1.5, 2, 1.0], [2, 3, 1.0]]}, "finite integer"),
            ({"n": 3, "edges": [[1, 2, "1.0"], [2, 3, 1.0]]}, "numbers"),
            ({"n": 7.9, "edges": [[1, 2, 1.0]]}, "agent count must be an integer, got 7.9"),
            ({"n": 2**63, "edges": [[1, 2, 1.0]]}, "too large"),
        ],
        ids=["fractional-index", "string-weight", "fractional-n", "huge-n"],
    )
    def test_entries_reach_validation_unconverted(self, payload, match):
        # Nothing is truncated or parsed before WeightedGraph checks it.
        with pytest.raises(ValidationError, match=match):
            graph_from_dict(payload)


class TestReadOnlyArrays:
    def test_laplacian_and_decomposition(self):
        lap = build_laplacian(P3)
        sd = spectral_decompose(lap)
        assert type(lap) is np.ndarray
        assert sd.group_starts.dtype == np.intp
        assert sd.group_rates.dtype == np.float64
        for arr in (lap, sd.eigenvalues, sd.vectors, sd.group_starts, sd.group_rates):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
