"""Campaign problem definition, validation findings, and structure-theorem diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError, _int_fault, _real, _real_fault, _require
from .graph import (
    Projection,
    SpectralDecomposition,
    WeightedGraph,
    _as_readonly,
    _float_array,
    _reject_booleans,
    build_laplacian,
    graph_from_dict,
    graph_to_dict,
    group_support,
    project,
    spectral_decompose,
)


@dataclass(frozen=True)
class CostModel:
    """Concave power-family cost c(u) = v * u**a with a in (0, 1]; kind 'linear' pins a = 1."""

    kind: str
    v: float
    a: float = 1.0

    def __call__(self, u: float) -> float:
        return self.v * float(u) ** self.a


@dataclass(frozen=True)
class Channel:
    """Influence channel: per-agent gain vector, cost model, and effort ceiling."""

    b: np.ndarray
    cost: CostModel
    u_max: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", _as_readonly(self.b))

    @property
    def max_cost_rate(self) -> float:
        """Cost per unit time while the channel runs flat out."""
        return self.cost(self.u_max)


@dataclass(frozen=True)
class Objective:
    """Terminal objective: linear sum(p * x) or per-agent sigmoids with sharpness alpha and threshold theta."""

    kind: str
    p: np.ndarray
    alpha: np.ndarray | None = None
    theta: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _as_readonly(self.p))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", _as_readonly(self.alpha))
        if self.theta is not None:
            object.__setattr__(self, "theta", _as_readonly(self.theta))


@dataclass(frozen=True)
class Drift:
    """Piecewise-constant exogenous drift: values[k] applies on [breakpoints[k], breakpoints[k+1])."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", _as_readonly(self.breakpoints))
        object.__setattr__(self, "values", _as_readonly(np.atleast_2d(self.values)))

    @staticmethod
    def zero(n: int) -> "Drift":
        _require(ContractError, _int_fault(n, "agent count", 1))
        return Drift(breakpoints=np.array([0.0]), values=np.zeros((1, n)))

    def piece(self, t):
        """Index of the value that holds at time t (elementwise for an array of times)."""
        return np.maximum(np.searchsorted(self.breakpoints, t, side="right") - 1, 0)

    def at(self, t) -> np.ndarray:
        """Drift value at time t, or one row per time when t is an array."""
        return self.values[self.piece(t)]


@dataclass(frozen=True)
class CampaignProblem:
    """Everything a solve needs: network, channels, objective, horizon T, budget r, start state, drift."""

    graph: WeightedGraph
    channels: tuple[Channel, ...]
    objective: Objective
    T: float
    r: float
    x0: np.ndarray
    drift: Drift | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "x0", _as_readonly(self.x0))
        if self.drift is None:
            object.__setattr__(self, "drift", Drift.zero(self.graph.n))

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return len(self.channels)


def _finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a).all())


def validate_problem(p: CampaignProblem) -> list[str]:
    """Collect every violated invariant as a human-readable finding.

    Returns an empty list iff the problem is well-formed; never raises. The
    scalar fields (T, r, u_max, cost v and a) are checked by the package's
    one real-number rule, ``errors._real_fault``.
    """
    findings: list[str] = []
    n = p.n
    obj, d = p.objective, p.drift
    # One finiteness pass over every array field; each field is checked on
    # its own only when that pass finds a non-finite entry somewhere.
    arrays = [ch.b for ch in p.channels] + [obj.p, p.x0, d.values, d.breakpoints]
    arrays += [a for a in (obj.alpha, obj.theta) if a is not None]
    all_finite = _finite(np.concatenate(arrays, axis=None))

    if p.m < 1:
        findings.append("problem needs at least one channel")
    for k, ch in enumerate(p.channels, start=1):
        if ch.b.shape != (n,):
            findings.append(f"channel {k}: gain vector has shape {ch.b.shape}, expected ({n},)")
        elif not (all_finite or _finite(ch.b)):
            findings.append(f"channel {k}: gain vector has non-finite entries")
        elif not np.count_nonzero(ch.b):
            findings.append(f"channel {k} has empty reach")
        kind, a = ch.cost.kind, ch.cost.a
        a_fault = _real_fault(a, "cost exponent a")
        if a_fault is None and kind == "linear" and a != 1.0:
            a_fault = f"linear cost requires a = 1, got {a}"
        elif a_fault is None and kind == "power" and not (0.0 < a <= 1.0):
            a_fault = f"power cost exponent must lie in (0, 1], got {a}"
        faults = (
            _real_fault(ch.u_max, "u_max", "positive"),
            None if kind in ("linear", "power") else f"unknown cost kind {kind!r}",
            _real_fault(ch.cost.v, "cost rate v", "positive"),
            a_fault,
        )
        findings += [f"channel {k}: {fault}" for fault in faults if fault]

    if obj.kind not in ("linear", "sigmoid"):
        findings.append(f"unknown objective kind {obj.kind!r}")
    if obj.p.shape != (n,):
        findings.append(f"objective weights have shape {obj.p.shape}, expected ({n},)")
    elif not (all_finite or _finite(obj.p)):
        findings.append("objective weights have non-finite entries")
    else:
        if np.count_nonzero(obj.p < 0.0):
            findings.append("objective weights must be nonnegative")
        if not np.count_nonzero(obj.p > 0.0):
            findings.append("objective needs at least one positive weight")
    if obj.kind == "sigmoid":
        if obj.alpha is None or obj.theta is None:
            findings.append("sigmoid objective requires alpha and theta vectors")
        else:
            if obj.alpha.shape != (n,) or obj.theta.shape != (n,):
                findings.append("sigmoid alpha/theta must match the agent count")
            elif not (all_finite or (_finite(obj.alpha) and _finite(obj.theta))):
                findings.append("sigmoid alpha/theta have non-finite entries")
            elif (obj.alpha <= 0.0).any():
                findings.append("sigmoid sharpness alpha must be positive")

    t_fault = _real_fault(p.T, "horizon T", "positive")
    findings += [f for f in (t_fault, _real_fault(p.r, "budget", "positive")) if f]
    if p.x0.shape != (n,):
        findings.append(f"initial state has shape {p.x0.shape}, expected ({n},)")
    elif not (all_finite or _finite(p.x0)):
        findings.append("initial state has non-finite entries")

    bps = d.breakpoints
    if d.values.shape[0] != bps.shape[0]:
        findings.append("drift needs one value row per breakpoint")
    elif d.values.shape[1] != n:
        findings.append(f"drift values have width {d.values.shape[1]}, expected {n}")
    elif not (all_finite or _finite(d.values)):
        findings.append("drift values have non-finite entries")
    if not (all_finite or _finite(bps)):
        findings.append("drift breakpoints have non-finite entries")
    if bps.size:
        if bps[0] != 0.0:
            findings.append("drift breakpoints must start at 0")
        if bps.size > 1:
            # inf - inf is nan, not <= 0: non-finite breakpoints have their own finding.
            with np.errstate(invalid="ignore"):
                if ((bps[1:] - bps[:-1]) <= 0.0).any():
                    findings.append("drift breakpoints must be strictly increasing")
            if t_fault is None and (bps >= _real(p.T)).any():
                findings.append("drift breakpoints must lie within [0, T)")
    else:
        findings.append("drift needs at least one breakpoint at 0")

    return findings


def require_valid(p: CampaignProblem) -> None:
    findings = validate_problem(p)
    if findings:
        raise ValidationError("problem failed validation: " + "; ".join(findings))


@dataclass(frozen=True)
class Prepared:
    """A validated problem, the decomposition ``sd`` of its Laplacian and its channel gains' ``project``ion onto it.

    The profiles h_i, the water level, both switch bounds and the exact
    terminal state are all read from ``sd`` and ``gains``.
    """

    problem: CampaignProblem
    sd: SpectralDecomposition
    gains: Projection


def prepare(x: CampaignProblem | Prepared) -> Prepared:
    """Validate, decompose and project a problem; a ``Prepared`` is returned unchanged.

    Every public solve, oracle and diagnostic call starts here, so one
    ``Prepared`` serves many calls. Raises ValidationError for an invalid problem.
    """
    if isinstance(x, Prepared):
        return x
    require_valid(x)
    sd = spectral_decompose(build_laplacian(x.graph))
    return Prepared(x, sd, project(sd, [ch.b for ch in x.channels]))


@dataclass(frozen=True)
class ChannelConditions:
    """Diagnostics for one channel against the structure theorem's hypotheses."""

    channel: int
    total_reach: float
    reach_nonzero: bool
    controllability_rank: int
    controllable: bool
    theorem_applicable: bool


def check_conditions(problem: CampaignProblem | Prepared) -> tuple[ChannelConditions, ...]:
    """Evaluate, per channel, whether the bang-bang structure theorem certifies it.

    Strictly concave (power) costs need nonzero total reach; linear costs
    need (L, b) controllable. Both are read from the groups b projects onto
    (``group_support``, one call for all channels): the reach is nonzero
    when b projects onto the constant mode, and for symmetric L the Kalman
    rank of (L, b) is the number of groups, so (L, b) is controllable when
    every eigenvalue is simple and b projects onto every eigenvector. When a flag is false the
    solver still runs but tags its output as not structure-certified.
    """
    prep = prepare(problem)
    p = prep.problem
    out = []
    masks = group_support(prep.sd, prep.gains)
    for k, (ch, groups) in enumerate(zip(p.channels, masks), start=1):
        reach_nonzero = bool(groups[0])
        rank = int(np.count_nonzero(groups))
        controllable = rank == p.n
        applicable = reach_nonzero if ch.cost.kind == "power" else controllable
        out.append(
            ChannelConditions(
                channel=k,
                total_reach=float(ch.b.sum()),
                reach_nonzero=reach_nonzero,
                controllability_rank=rank,
                controllable=controllable,
                theorem_applicable=applicable,
            )
        )
    return tuple(out)


# --- JSON problem format -----------------------------------------------------


def problem_to_dict(p: CampaignProblem) -> dict:
    obj: dict = {"kind": p.objective.kind, "p": p.objective.p.tolist()}
    if p.objective.kind == "sigmoid":
        obj["alpha"] = p.objective.alpha.tolist()
        obj["theta"] = p.objective.theta.tolist()
    return {
        "graph": graph_to_dict(p.graph),
        "channels": [
            {
                "b": ch.b.tolist(),
                "cost": {"kind": ch.cost.kind, "v": ch.cost.v, "a": ch.cost.a},
                "u_max": ch.u_max,
            }
            for ch in p.channels
        ],
        "objective": obj,
        "T": p.T,
        "r": p.r,
        "x0": p.x0.tolist(),
        "drift": {
            "breakpoints": p.drift.breakpoints.tolist(),
            "values": p.drift.values.tolist(),
        },
    }


def _number(x) -> float:
    """x as a float, an int too large for a float as +-inf (``errors._real``), which validation reports.

    Anything but a real number, a numeric string included, raises ValueError.
    """
    value = _real(x)
    if value is None:
        raise ValueError(f"{x!r} is not a number")
    return value


def problem_from_dict(d: dict) -> CampaignProblem:
    _reject_booleans(d, "problem")
    try:
        graph = graph_from_dict(d["graph"])
        channels = tuple(
            Channel(
                b=_float_array(c["b"]),
                cost=CostModel(
                    kind=str(c["cost"]["kind"]),
                    v=_number(c["cost"]["v"]),
                    a=_number(c["cost"].get("a", 1.0)),
                ),
                u_max=_number(c["u_max"]),
            )
            for c in d["channels"]
        )
        o = d["objective"]
        objective = Objective(
            kind=str(o["kind"]),
            p=_float_array(o["p"]),
            alpha=_float_array(o["alpha"]) if "alpha" in o else None,
            theta=_float_array(o["theta"]) if "theta" in o else None,
        )
        drift = None
        if "drift" in d:
            drift = Drift(
                breakpoints=_float_array(d["drift"]["breakpoints"]),
                values=_float_array(d["drift"]["values"]),
            )
        return CampaignProblem(
            graph=graph,
            channels=channels,
            objective=objective,
            T=_number(d["T"]),
            r=_number(d["r"]),
            x0=_float_array(d["x0"]),
            drift=drift,
        )
    except ValidationError:
        # A ValueError subclass: the graph's own messages pass through as raised.
        raise
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed problem object: missing or bad field {exc}") from exc
