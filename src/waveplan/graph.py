"""Weighted consensus graphs, their Laplacians, and spectral decompositions.

Node indices are 1-based in ``WeightedGraph`` edges and in the JSON graph
format; matrices and eigenvector arrays are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def _connected_component(n: int, pairs: list[tuple[int, int]]) -> set[int]:
    """Return the set of 1-based nodes reachable from node 1."""
    adj: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected connected graph with strictly positive trust weights.

    Edges are (i, j, weight) triples with 1 <= i < j <= n; each unordered
    pair appears at most once and weight symmetry is implicit.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValidationError(f"agent count must be a positive integer, got {self.n!r}")
        canon = []
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            i, j, w = int(e[0]), int(e[1]), float(e[2])
            if i == j:
                raise ValidationError(f"self-loop on node {i} is forbidden")
            if not (1 <= i < j <= self.n):
                raise ValidationError(f"edge ({i}, {j}) must satisfy 1 <= i < j <= n={self.n}")
            if (i, j) in seen:
                raise ValidationError(f"duplicate edge ({i}, {j})")
            if not (w > 0.0) or not np.isfinite(w):
                raise ValidationError(f"edge ({i}, {j}) has nonpositive weight {w}")
            seen.add((i, j))
            canon.append((i, j, w))
        object.__setattr__(self, "edges", tuple(canon))
        if self.n > 1:
            comp = _connected_component(self.n, [(i, j) for i, j, _ in canon])
            if len(comp) != self.n:
                raise ValidationError(
                    f"graph is disconnected: nodes {sorted(comp)} are separated "
                    f"from {sorted(set(range(1, self.n + 1)) - comp)}"
                )


@dataclass(frozen=True)
class Laplacian:
    """Dense symmetric weighted Laplacian: l_ii = sum of incident weights, l_ij = -a_ij."""

    n: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _as_readonly(self.matrix))


def build_laplacian(g: WeightedGraph) -> Laplacian:
    """Assemble the weighted Laplacian of a validated graph.

    Off-diagonals of non-adjacent pairs are exactly zero and every row sums
    to zero up to rounding in the diagonal accumulation. Each diagonal entry
    adds its node's incident weights in edge order.
    """
    edges = np.array(g.edges, dtype=np.float64).reshape(-1, 3)
    ends = edges[:, :2].astype(np.intp).ravel() - 1  # interleaved 0-based (i, j) pairs
    w = edges[:, 2]
    m = np.diag(np.bincount(ends, weights=np.repeat(w, 2), minlength=g.n))
    a, b = ends[0::2], ends[1::2]
    m[a, b] = -w
    m[b, a] = -w
    return Laplacian(n=g.n, matrix=m)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a Laplacian with distinct-eigenvalue grouping.

    ``eigenvalues`` are ascending; ``vectors`` holds orthonormal eigenvector
    columns with the first nonzero component of each made positive so
    outputs are reproducible. ``groups`` partitions eigenvalue indices into
    clusters closer than ``group_tol``; ``group_rates`` gives one
    representative rate per cluster, with the connected-graph zero cluster
    pinned to exactly 0.0. Downstream consumers work with groups and
    eigenspace projections, never individual eigenvectors, because those are
    non-unique under multiplicity.
    """

    n: int
    eigenvalues: np.ndarray
    vectors: np.ndarray
    zero_tol: float
    group_tol: float
    groups: tuple[tuple[int, ...], ...] = field(default=())
    group_rates: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", _as_readonly(self.eigenvalues))
        object.__setattr__(self, "vectors", _as_readonly(self.vectors))

    @property
    def group_starts(self) -> np.ndarray:
        """First eigenvalue index of each group.

        Groups are contiguous index runs because the eigenvalues are sorted.
        """
        return np.array([grp[0] for grp in self.groups], dtype=np.intp)


def projected_group_count(
    sd: SpectralDecomposition, x: np.ndarray, tol: float | None = None
) -> int:
    """Number of eigenvalue groups onto which x has a projection of norm above tol.

    The default tolerance is 1e-10 * max(1, |x|). For a symmetric Laplacian
    this count is also the Kalman rank of (L, x): the Krylov space of x is
    spanned by its projections onto the distinct eigenspaces.
    """
    xv = np.asarray(x, dtype=np.float64)
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.linalg.norm(xv)))
    proj = sd.vectors.T @ xv
    norms = np.sqrt(np.add.reduceat(proj * proj, sd.group_starts))
    return int(np.count_nonzero(norms > tol))


def _fix_signs(q: np.ndarray) -> np.ndarray:
    """Make the first nonzero component of each column positive."""
    absq = np.abs(q)
    first = np.argmax(absq > 1e-12 * np.max(absq, axis=0), axis=0)
    flip = q[first, np.arange(q.shape[1])] < 0.0
    return np.where(flip, -q, q)


def spectral_decompose(lap: Laplacian) -> SpectralDecomposition:
    """Symmetric eigendecomposition with scale-relative tolerances.

    Raises NumericalError when the second eigenvalue falls below the zero
    tolerance, which marks the graph as numerically disconnected.
    """
    evals, q = np.linalg.eigh(lap.matrix)
    q = _fix_signs(q)
    scale = max(1.0, float(evals[-1]))
    zero_tol = 1e-9 * scale
    group_tol = 1e-8 * scale
    if abs(float(evals[0])) > zero_tol:
        raise NumericalError(
            f"smallest eigenvalue {evals[0]:.3e} exceeds the zero tolerance {zero_tol:.3e}"
        )
    if lap.n >= 2 and float(evals[1]) <= zero_tol:
        raise NumericalError("graph numerically disconnected: second eigenvalue within zero tolerance")

    starts = np.concatenate([[0], np.flatnonzero(np.diff(evals) > group_tol) + 1])
    ends = np.append(starts[1:], lap.n)
    # reduceat adds a segment's tail onto its first entry; a 0.0 inserted at
    # the head of each group makes every sum the pairwise one np.mean takes.
    padded = np.insert(evals, starts, 0.0)
    rates = np.add.reduceat(padded, starts + np.arange(starts.size)) / (ends - starts)
    rates[np.abs(rates) <= zero_tol] = 0.0

    return SpectralDecomposition(
        n=lap.n,
        eigenvalues=evals,
        vectors=q,
        zero_tol=zero_tol,
        group_tol=group_tol,
        groups=tuple(tuple(range(a, b)) for a, b in zip(starts.tolist(), ends.tolist())),
        group_rates=tuple(rates.tolist()),
    )


def random_geometric_graph(
    n: int, radius: float, seed: int, max_retries: int = 64
) -> tuple[WeightedGraph, int]:
    """Seeded unit-square geometric graph with unit edge weights.

    Nodes are placed uniformly in the unit square; an edge joins every pair
    within Euclidean distance ``radius``. Disconnected draws are resampled
    with the seed incremented, up to ``max_retries`` extra attempts.

    Returns the graph together with the seed that produced it.
    """
    if n < 2:
        raise ValidationError(f"need at least 2 nodes, got {n}")
    for attempt in range(max_retries + 1):
        s = seed + attempt
        rng = np.random.default_rng(s)
        pts = rng.random((n, 2))
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        pairs = [
            (i + 1, j + 1)
            for i in range(n)
            for j in range(i + 1, n)
            if d2[i, j] <= radius * radius
        ]
        if len(_connected_component(n, pairs)) == n:
            edges = tuple((i, j, 1.0) for i, j in pairs)
            return WeightedGraph(n=n, edges=edges), s
    raise ValidationError(
        f"no connected geometric graph in {max_retries + 1} attempts "
        f"(n={n}, radius={radius}); try a larger radius"
    )


def graph_to_dict(g: WeightedGraph) -> dict:
    """JSON-ready form: {"n": int, "edges": [[i, j, weight], ...]} with 1-based indices."""
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}


def graph_from_dict(d: dict) -> WeightedGraph:
    try:
        n = int(d["n"])
        edges = tuple((int(i), int(j), float(w)) for i, j, w in d["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed graph object: {exc}") from exc
    return WeightedGraph(n=n, edges=edges)
