"""Bound sweep over random geometric graphs: how the switch bounds scale with n.

Each instance draws a seeded geometric graph and a uniformly random positive
objective weight vector; the channel reaches only the first agent. Per
instance the sweep records the spectral-support bound, the sign-variation
bound at level zero and its sup over levels, and the algebraic connectivity.
Both bounds are read as the certificate reads them, from the gain vector's
one projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import linear_bounds, support_bound
from .costate import projected_coefficients
from .errors import ValidationError, _int_fault, _real_fault, _require
from .graph import _agent_count_fault, build_laplacian, group_support, project
from .graph import random_geometric_graph, spectral_decompose


@dataclass(frozen=True)
class SweepRow:
    n: int
    instance: int
    seed: int
    bound_general: int
    bound_linear_zero: int
    bound_linear_sup: int
    eigenvalue_gap: float


@dataclass(frozen=True)
class SweepAggregate:
    n: int
    instances: int
    mean_bound_general: float
    std_bound_general: float
    mean_bound_linear_zero: float
    std_bound_linear_zero: float
    mean_bound_linear_sup: float
    std_bound_linear_sup: float
    mean_eigenvalue_gap: float


def default_radius(n: int) -> float:
    """Connectivity-comfortable geometric radius, shrinking like sqrt(log n / n), for n in [2, MAX_AGENTS]."""
    _require(ValidationError, _agent_count_fault(n, lo=2))
    return min(1.0, 1.7 * math.sqrt(math.log(n) / (math.pi * n)))


def sweep_instance(n: int, instance: int, base_seed: int, radius: float | None = None) -> SweepRow:
    """One (n, instance) cell: seeded graph, seeded random p, b = first basis vector; arguments are checked first."""
    _require(ValidationError, _agent_count_fault(n, lo=2), _int_fault(instance, "instance", 0))
    radius = default_radius(n) if radius is None else radius
    _require(ValidationError, _int_fault(base_seed, "base_seed", 0), _real_fault(radius, "radius", "positive"))
    graph_seed = base_seed * 1_000_003 + n * 1_009 + instance
    graph, used_seed = random_geometric_graph(n, radius, graph_seed)
    sd = spectral_decompose(build_laplacian(graph))
    rng = np.random.default_rng([base_seed, n, instance])
    p = rng.random(n)
    b = np.zeros(n)
    b[0] = 1.0
    gains = project(sd, b[None, :])
    zero, sup = linear_bounds(projected_coefficients(sd, p, gains)[0], 0.0)
    return SweepRow(
        n=n,
        instance=instance,
        seed=used_seed,
        bound_general=support_bound(np.count_nonzero(group_support(sd, gains))),
        bound_linear_zero=zero,
        bound_linear_sup=sup,
        eigenvalue_gap=float(sd.eigenvalues[1]),
    )


def run_sweep(
    ns: list[int], instances: int, base_seed: int, radius: float | None = None
) -> tuple[list[SweepRow], list[SweepAggregate]]:
    """All rows plus per-n aggregates. Instances are independent, so order never matters.

    A size listed more than once is swept once, at its first place in ``ns``.
    Every size and ``instances`` are checked before the first instance runs,
    which checks ``base_seed`` and ``radius``.
    """
    try:
        ns = list(dict.fromkeys(ns))
    except TypeError:
        raise ValidationError(f"ns must be a list of integers, got {ns!r}") from None
    sizes = (_agent_count_fault(n, "each of ns", 2) for n in ns)
    _require(ValidationError, _int_fault(instances, "instances", 1), *sizes)
    rows = [
        sweep_instance(n, i, base_seed, radius=radius) for n in ns for i in range(instances)
    ]
    aggregates = []
    for n in ns:
        sub = [r for r in rows if r.n == n]
        bg = np.array([r.bound_general for r in sub], dtype=np.float64)
        b0 = np.array([r.bound_linear_zero for r in sub], dtype=np.float64)
        bs = np.array([r.bound_linear_sup for r in sub], dtype=np.float64)
        gap = np.array([r.eigenvalue_gap for r in sub], dtype=np.float64)
        aggregates.append(
            SweepAggregate(
                n=n,
                instances=len(sub),
                mean_bound_general=float(bg.mean()),
                std_bound_general=float(bg.std()),
                mean_bound_linear_zero=float(b0.mean()),
                std_bound_linear_zero=float(b0.std()),
                mean_bound_linear_sup=float(bs.mean()),
                std_bound_linear_sup=float(bs.std()),
                mean_eigenvalue_gap=float(gap.mean()),
            )
        )
    return rows, aggregates
