"""Terminal costates and closed-form cost-effectiveness profiles h_i(t).

The adjoint flow runs the consensus operator backward from the horizon, so
every nonconstant mode decays as t moves below T:

    h_i(t) = sum_g <P_g lam(T), b_i> * exp(rate_g * (t - T)),

with P_g the orthogonal projector onto eigenspace g. A backward one-step
adjoint integrator is provided purely as an independent oracle for this
expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .graph import Laplacian, SpectralDecomposition
from .problem import Objective


def _stable_sigmoid(w: np.ndarray) -> np.ndarray:
    out = np.empty_like(w)
    pos = w >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-w[pos]))
    ew = np.exp(w[~pos])
    out[~pos] = ew / (1.0 + ew)
    return out


@dataclass(frozen=True)
class TerminalCostate:
    """Adjoint state at the horizon, lam(T) = dJ/dx evaluated at x(T)."""

    lam: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.lam, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "lam", arr)


def terminal_costate(obj: Objective, xT: np.ndarray | None = None) -> TerminalCostate:
    """Gradient of the objective at the terminal state.

    Linear objectives give lam(T) = p exactly and need no state. Sigmoid
    objectives give lam_i = p_i * alpha_i * z / (1 + z)^2 with
    z = exp(-alpha_i (x_i(T) - theta_i)), evaluated in the overflow-safe
    product form so saturated agents underflow cleanly to zero.
    """
    if obj.kind == "linear":
        return TerminalCostate(lam=obj.p)
    if obj.kind == "sigmoid":
        if xT is None:
            raise ContractError("sigmoid terminal costate requires the terminal state xT")
        w = obj.alpha * (np.asarray(xT, dtype=np.float64) - obj.theta)
        lam = obj.p * obj.alpha * _stable_sigmoid(w) * _stable_sigmoid(-w)
        return TerminalCostate(lam=lam)
    raise ContractError(f"unknown objective kind {obj.kind!r}")


@dataclass(frozen=True)
class ChannelProfile:
    """Mode expansion of one channel's cost-effectiveness signal over [0, horizon].

    ``rates`` are strictly increasing eigenvalue-group rates (the zero group,
    when present, comes first with rate exactly 0.0); ``coeffs`` are the
    matching eigenspace coefficients. ``dropped`` counts spectrally silent
    groups removed below the coefficient tolerance. Calling the profile
    evaluates h(t); t may be a scalar or an array.
    """

    horizon: float
    rates: tuple[float, ...]
    coeffs: tuple[float, ...]
    dropped: int = 0
    channel: int = 0

    def __call__(self, t):
        return eval_h(self, t)


def group_coefficients(
    sd: SpectralDecomposition, lam: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group coefficients <P_g lam, b>, returned with the group rates.

    Summing <Q_j, lam><Q_j, b> over each distinct-eigenvalue group makes the
    result invariant to the eigensolver's basis choice inside an eigenspace.
    """
    proj = (sd.vectors.T @ np.asarray(lam, dtype=np.float64)) * (
        sd.vectors.T @ np.asarray(b, dtype=np.float64)
    )
    rates = np.array(sd.group_rates, dtype=np.float64)
    return rates, np.add.reduceat(proj, sd.group_starts)


def channel_profile(
    sd: SpectralDecomposition,
    lamT: TerminalCostate,
    b: np.ndarray,
    horizon: float,
    channel: int = 0,
) -> ChannelProfile:
    """Build the closed-form h profile for one channel from the spectral data."""
    rates, coeffs = group_coefficients(sd, lamT.lam, b)
    coeff_tol = 1e-10 * max(
        1.0, float(np.linalg.norm(lamT.lam)) * float(np.linalg.norm(b))
    )
    keep = np.abs(coeffs) > coeff_tol
    return ChannelProfile(
        horizon=float(horizon),
        rates=tuple(float(r) for r in rates[keep]),
        coeffs=tuple(float(c) for c in coeffs[keep]),
        dropped=int(np.sum(~keep)),
        channel=channel,
    )


def eval_h(profile: ChannelProfile, t):
    """Evaluate h(t) = sum_g d_g exp(rate_g (t - horizon)); accepts scalars or arrays."""
    ts = np.asarray(t, dtype=np.float64)
    scalar = ts.ndim == 0
    ts1 = np.atleast_1d(ts)
    if not profile.coeffs:
        out = np.zeros(ts1.shape)
    else:
        rates = np.array(profile.rates)
        coeffs = np.array(profile.coeffs)
        # Per-row pairwise summation is shape-independent, so scalar and
        # array calls agree bit for bit (BLAS matmul kernels do not).
        out = np.sum(np.exp(np.multiply.outer(ts1 - profile.horizon, rates)) * coeffs, axis=-1)
    return float(out[0]) if scalar else out


def integrate_h(profile: ChannelProfile, a, b):
    """Exact integral of h over [a, b]; the zero-rate mode contributes d_0 * (b - a).

    Accepts scalars or arrays of endpoints. An array call adds the modes in
    the scalar call's order, so each entry equals that call bit for bit.
    """
    shape = np.broadcast(a, b).shape
    total = np.zeros(shape) if shape else 0.0
    T = profile.horizon
    for rate, d in zip(profile.rates, profile.coeffs):
        if rate == 0.0:
            total += d * (b - a)
        else:
            total += (d / rate) * (np.exp(rate * (b - T)) - np.exp(rate * (a - T)))
    return total if shape else float(total)


def adjoint_check(lap: Laplacian, lamT: TerminalCostate, grid: np.ndarray) -> np.ndarray:
    """Backward adjoint integration, intended solely as an oracle for eval_h.

    Integrates d(lam)/dt = L lam backward from lam(grid[-1]) = lam(T) with
    the classical 4th-order one-step method at the grid's resolution.
    Returns the trajectory row-aligned with ``grid`` (ascending times).
    """
    ts = np.asarray(grid, dtype=np.float64)
    n = lap.n
    traj = np.empty((ts.size, n))
    traj[-1] = lamT.lam
    mat = lap.matrix
    x = np.array(lamT.lam, dtype=np.float64)
    for k in range(ts.size - 1, 0, -1):
        h = ts[k - 1] - ts[k]
        k1 = mat @ x
        k2 = mat @ (x + 0.5 * h * k1)
        k3 = mat @ (x + 0.5 * h * k2)
        k4 = mat @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj[k - 1] = x
    return traj
