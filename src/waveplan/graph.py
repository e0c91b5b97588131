"""Weighted consensus graphs, their Laplacians, and spectral decompositions.

Node indices are 1-based in ``WeightedGraph`` edges and in the JSON graph
format; matrices and eigenvector arrays are 0-based.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError, NumericalError, ValidationError, _int_fault, _real, _real_fault, _require

# Most agents a graph may have: the dense n x n float64 Laplacian is then 2 GiB.
MAX_AGENTS = 16384

# Disconnected geometric draws that random_geometric_graph resamples, with the
# seed incremented, before it gives up.
GEOMETRIC_RETRIES = 64


def _agent_count_fault(n, name: str = "agent count", lo: int = 1) -> str | None:
    """Why ``n`` is not an integer from ``lo`` up to ``MAX_AGENTS``, or None."""
    fault = _int_fault(n, name, lo)
    if fault is None and n > MAX_AGENTS:
        fault = f"{name} {n} is too large: at most {MAX_AGENTS} agents, whose dense float64 Laplacian takes 2 GiB"
    return fault


def _entries_fault(count: int, name: str, rows: int, width: int) -> str | None:
    """Why ``count`` is too large, its ``rows`` x ``width`` floats passing a MAX_AGENTS Laplacian's 2 GiB; or None."""
    if rows * width > MAX_AGENTS * MAX_AGENTS:
        limit = f"2 GiB, the dense Laplacian's at {MAX_AGENTS} agents"
        return f"{name} {count} is too large: its {rows} x {width} float64 array would pass {limit}"
    return None


def _as_readonly(arr) -> np.ndarray:
    """A read-only float64 copy of arr, as the frozen value types keep their arrays."""
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


class _Disconnected(ValidationError):
    """Raised for a graph with a node that node 1 cannot reach."""


def _reject_booleans(value, obj: str, field: str = "") -> None:
    """Raise for a JSON boolean anywhere in value: no field of a problem or graph object is one."""
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"malformed {obj} object: field {field} is a boolean, not a number")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_booleans(item, obj, f"{field}.{key}" if field else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _reject_booleans(item, obj, f"{field}[{i}]")


def _edge_columns(edges) -> np.ndarray:
    """The (i, j, weight) columns of numeric edge triples as a (3, E) float array.

    A boolean, as an entry of a sequence or as a boolean array, is not a
    number here, although numpy would read it as 0 or 1.
    """
    _reject_booleans(edges, "graph", "edges")
    try:
        arr = _float_array(edges)
        if arr.shape == (0,):
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"got an array of shape {arr.shape}")
        return np.array(arr.T, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"edges must be (i, j, weight) triples of numbers: {exc}") from exc


def _float_array(x) -> np.ndarray:
    """x as a float64 array, not copied if it is one; ValueError when an entry is not a number, such as a string.

    numpy would parse a numeric string; an int too large for a float raises OverflowError.
    """
    arr = np.asarray(x)
    kind = arr.dtype.kind
    if kind not in "iufO" or (kind == "O" and not all(isinstance(v, numbers.Real) for v in arr.flat)):
        raise ValueError(f"entries of dtype {arr.dtype} are not all numbers")
    return np.asarray(arr, dtype=np.float64)


def _validated_edges(n: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1-based end indices i and j, and the weights, of valid edges, checked in one pass.

    The first bad edge in input order is reported, by the first check it
    fails in this order: integer indices, self-loop, range, duplicate of an
    earlier edge, positive finite weight. Indices are checked as floats, so
    none is cast to an integer before it is known to be one in range.
    """
    i, j, w = _edge_columns(edges)
    # NaN and infinite indices fail these comparisons too.
    ok = (np.floor(i) == i) & (np.floor(j) == j) & (1.0 <= i) & (i < j) & (j <= n)
    a = np.where(ok, i, 0.0).astype(np.intp)
    b = np.where(ok, j, 0.0).astype(np.intp)
    good = ok & (w > 0.0) & (w < np.inf)
    # Distinct for distinct in-range pairs, 0 for every other edge; n <= MAX_AGENTS keeps it in intp.
    key = a * (n + 1) + b
    dup = np.zeros(i.size, dtype=bool)
    if not (key[1:] > key[:-1]).all():  # increasing keys, as in sorted input, cannot repeat
        order = np.argsort(key, kind="stable")
        dup[order[1:]] = key[order[1:]] == key[order[:-1]]
        good &= ~dup
    if not good.all():
        k = int(np.argmin(good))
        ik, jk, wk = float(i[k]), float(j[k]), float(w[k])
        if not (math.isfinite(ik) and math.isfinite(jk) and ik.is_integer() and jk.is_integer()):
            raise ValidationError(f"edge ({ik:g}, {jk:g}) must have finite integer node indices")
        ik, jk = int(ik), int(jk)
        if ik == jk:
            raise ValidationError(f"self-loop on node {ik} is forbidden")
        if not (1 <= ik < jk <= n):
            raise ValidationError(f"edge ({ik}, {jk}) must satisfy 1 <= i < j <= n={n}")
        if dup[k]:
            raise ValidationError(f"duplicate edge ({ik}, {jk})")
        raise ValidationError(f"edge ({ik}, {jk}) has nonpositive weight {wk}")
    return a, b, w


def _connected_component(n: int, ends: np.ndarray) -> list[bool]:
    """Which nodes node 1 reaches, 0-based, over interleaved 0-based (i, j) edge ends."""
    adj: list[list[int]] = [[] for _ in range(n)]
    flat = ends.tolist()
    for i, j in zip(flat[0::2], flat[1::2]):
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    return seen


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected connected graph with strictly positive trust weights.

    Edges are (i, j, weight) triples with 1 <= i < j <= n, given as any
    sequence of triples or an (E, 3) array; each unordered pair appears at
    most once and weight symmetry is implicit. ``edges`` is kept as a tuple
    of (int, int, float) triples, which equality and JSON read. The
    validated ends, as interleaved 0-based (i, j) pairs, and the weights are
    also kept as read-only arrays, which ``build_laplacian`` reads. The
    agent count n is at most ``MAX_AGENTS`` = 16384, where the dense n x n
    float64 Laplacian takes 2 GiB; a larger n is rejected before anything
    n-sized is allocated.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    _ends: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require(ValidationError, _agent_count_fault(self.n))
        i, j, w = _validated_edges(self.n, self.edges)
        ends = np.array((i, j)).T.ravel() - 1
        if self.n > 1:
            reached = _connected_component(self.n, ends)
            if not all(reached):
                raise _Disconnected(
                    f"graph is disconnected: nodes {[v + 1 for v in range(self.n) if reached[v]]} "
                    f"are separated from {[v + 1 for v in range(self.n) if not reached[v]]}"
                )
        ends.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_weights", w)
        object.__setattr__(self, "edges", tuple(zip(i.tolist(), j.tolist(), w.tolist())))


def build_laplacian(g: WeightedGraph) -> np.ndarray:
    """The dense symmetric weighted Laplacian of a validated graph, as a read-only n x n array.

    l_ii is the sum of node i's incident weights and l_ij = -a_ij.
    Off-diagonals of non-adjacent pairs are exactly zero and every row sums
    to zero up to rounding in the diagonal accumulation. Each diagonal entry
    adds its node's incident weights in edge order.
    """
    ends, w, n = g._ends, g._weights, g.n
    m = np.zeros((n, n))
    m.flat[:: n + 1] = np.bincount(ends, weights=w.repeat(2), minlength=n)
    a, b = ends[0::2], ends[1::2]
    m[a, b] = -w
    m[b, a] = -w
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a Laplacian with distinct-eigenvalue grouping, all read-only arrays.

    ``eigenvalues`` are ascending; ``vectors`` holds the eigensolver's
    orthonormal eigenvector columns as returned, with no sign convention.
    Every consumer multiplies a column by its own projection onto that
    column, so negating any column leaves every output bit-identical.
    Eigenvalues closer than ``group_tol`` form a group; groups are
    contiguous index runs because the eigenvalues are sorted, so
    ``group_starts`` (the first index of each run) partitions the indices.
    ``group_rates`` gives one representative rate per group, with the
    connected-graph zero group pinned to exactly 0.0. Downstream consumers
    work with groups and eigenspace projections, never individual
    eigenvectors, because those are non-unique under multiplicity.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    zero_tol: float
    group_tol: float
    group_starts: np.ndarray
    group_rates: np.ndarray

    @property
    def mode_rates(self) -> np.ndarray:
        """Each eigenvalue as the decay rate of its mode, the zero mode's pinned to exactly 0.0."""
        return np.where(np.abs(self.eigenvalues) <= self.zero_tol, 0.0, self.eigenvalues)


def _norm(x) -> float:
    """Euclidean norm of a vector, sqrt(x . x) as np.linalg.norm takes it, without its wrapper's calls."""
    x = np.asarray(x, dtype=np.float64)
    return math.sqrt(x.dot(x))


class Projection(NamedTuple):
    """Rows x_k in the eigenbasis of a decomposition: ``coords[k]`` is x_k @ V, ``norms[k]`` is |x_k|."""

    coords: np.ndarray
    norms: list[float]


def project(sd: SpectralDecomposition, xs) -> Projection:
    """Every row of ``xs`` projected onto the eigenvectors, with one product, and its norm."""
    xs = np.asarray(xs, dtype=np.float64)
    return Projection(xs @ sd.vectors, [_norm(x) for x in xs])


def group_support(sd: SpectralDecomposition, proj: Projection) -> np.ndarray:
    """Mask of the eigenvalue groups onto which each projected row has a projection of norm above tolerance.

    Row x's tolerance is 1e-10 * max(1, |x|). The first group is the
    constant mode of the connected graph, so the first column says whether
    x has nonzero total reach. For a symmetric Laplacian a row's count is
    the Kalman rank of (L, x): the Krylov space of x is spanned by its
    projections onto the distinct eigenspaces.
    """
    c = proj.coords
    tol = np.array([1e-10 * max(1.0, norm) for norm in proj.norms])
    return np.sqrt(np.add.reduceat(c * c, sd.group_starts, axis=1)) > tol[:, None]


def spectral_decompose(lap: np.ndarray) -> SpectralDecomposition:
    """Symmetric eigendecomposition of a Laplacian matrix with scale-relative tolerances.

    Raises ContractError unless the matrix is real, square, nonempty and
    finite, and NumericalError when the second eigenvalue falls below the
    zero tolerance, which marks the graph as numerically disconnected.
    """
    try:
        lap = np.asarray(lap, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"Laplacian must be a real matrix: {exc}") from None
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1] or not lap.size:
        raise ContractError(f"Laplacian has shape {lap.shape}, expected (n, n) with n >= 1")
    if not np.isfinite(lap).all():
        raise ContractError("Laplacian has non-finite entries")
    evals, q = np.linalg.eigh(lap)
    scale = max(1.0, float(evals[-1]))
    zero_tol = 1e-9 * scale
    group_tol = 1e-8 * scale
    if abs(float(evals[0])) > zero_tol:
        raise NumericalError(
            f"smallest eigenvalue {evals[0]:.3e} exceeds the zero tolerance {zero_tol:.3e}"
        )
    if evals.size >= 2 and float(evals[1]) <= zero_tol:
        raise NumericalError("graph numerically disconnected: second eigenvalue within zero tolerance")

    first = np.empty(evals.size, dtype=bool)  # whether each eigenvalue starts a group
    first[0] = True
    np.greater(evals[1:] - evals[:-1], group_tol, out=first[1:])
    starts = first.nonzero()[0]
    # A singleton group's rate is its eigenvalue; a group of repeated
    # eigenvalues takes their mean.
    rates = evals[starts]
    if starts.size < evals.size:
        bounds = starts.tolist() + [evals.size]
        for g in np.flatnonzero(np.diff(bounds) > 1).tolist():
            rates[g] = evals[bounds[g] : bounds[g + 1]].mean()
    rates[np.abs(rates) <= zero_tol] = 0.0

    for arr in (evals, q, starts, rates):
        arr.setflags(write=False)
    return SpectralDecomposition(
        eigenvalues=evals,
        vectors=q,
        zero_tol=zero_tol,
        group_tol=group_tol,
        group_starts=starts,
        group_rates=rates,
    )


def _geometric_edges(pts: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """0-based ends i < j of every pair of points within ``radius``, in row-major order.

    A pair is an edge when dx * dx + dy * dy <= radius * radius. That sum
    is at least dx * dx, so an edge's points lie within about radius of
    each other in x. Candidate pairs are taken from a window on the
    x-sorted points, padded for rounding, and each is then tested exactly:
    the work and memory follow the candidates, not the n^2 pairs.
    """
    x, y = pts[:, 0], pts[:, 1]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ends = np.searchsorted(xs, xs + (radius + 1e-9 * radius + 1e-15), side="right")
    counts = ends - np.arange(1, x.size + 1)  # candidates after each sorted point
    first = np.repeat(np.arange(x.size), counts)
    # The k-th candidate of sorted point a is sorted point a + 1 + k.
    second = first + np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    a, b = order[first], order[second]
    dx, dy = x[a] - x[b], y[a] - y[b]
    near = dx * dx + dy * dy <= radius * radius
    a, b = a[near], b[near]
    key = np.sort(np.minimum(a, b) * x.size + np.maximum(a, b))
    return np.divmod(key, x.size)


def random_geometric_graph(n: int, radius: float, seed: int) -> tuple[WeightedGraph, int]:
    """Seeded unit-square geometric graph with unit edge weights.

    Nodes are placed uniformly in the unit square; an edge joins every pair
    within Euclidean distance ``radius``. Disconnected draws are resampled
    with the seed incremented, up to ``GEOMETRIC_RETRIES`` extra attempts.

    Returns the graph together with the seed that produced it. n (at least
    2) and seed (at least 0) must be integers and radius a finite positive
    real number. The agent limit ``MAX_AGENTS`` is checked before the n
    points are placed, and no n x n array is formed: the pairs are found
    from a window on the x-sorted points (``_geometric_edges``).
    """
    _require(ValidationError, _agent_count_fault(n, lo=2), _real_fault(radius, "radius", "positive"))
    _require(ValidationError, _int_fault(seed, "seed", 0))
    for attempt in range(GEOMETRIC_RETRIES + 1):
        s = int(seed) + attempt  # a Python int: a numpy seed near its type's limit would wrap
        rows, cols = _geometric_edges(np.random.default_rng(s).random((n, 2)), _real(radius))
        try:
            return WeightedGraph(n=n, edges=np.column_stack((rows + 1, cols + 1, np.ones(rows.size)))), s
        except _Disconnected:
            continue
    raise ValidationError(
        f"no connected geometric graph in {GEOMETRIC_RETRIES + 1} attempts "
        f"(n={n}, radius={radius}); try a larger radius"
    )


def graph_to_dict(g: WeightedGraph) -> dict:
    """JSON-ready form: {"n": int, "edges": [[i, j, weight], ...]} with 1-based indices."""
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}


def graph_from_dict(d: dict) -> WeightedGraph:
    """The graph of a JSON graph object; ``WeightedGraph`` validates n and the edges as given."""
    try:
        n, edges = d["n"], d["edges"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed graph object: missing or bad field {exc}") from exc
    return WeightedGraph(n=n, edges=edges)
