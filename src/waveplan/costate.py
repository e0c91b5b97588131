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
from .graph import SpectralDecomposition, _norm
from .problem import Objective


def _stable_sigmoid(w: np.ndarray) -> np.ndarray:
    out = np.empty_like(w)
    pos = w >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-w[pos]))
    ew = np.exp(w[~pos])
    out[~pos] = ew / (1.0 + ew)
    return out


def terminal_costate(obj: Objective, xT: np.ndarray | None = None) -> np.ndarray:
    """The adjoint state at the horizon, lam(T) = dJ/dx at x(T), as a read-only array.

    Linear objectives give lam(T) = p exactly and need no state. Sigmoid
    objectives give lam_i = p_i * alpha_i * z / (1 + z)^2 with
    z = exp(-alpha_i (x_i(T) - theta_i)), evaluated in the overflow-safe
    product form so saturated agents underflow cleanly to zero.
    """
    if obj.kind == "linear":
        return obj.p
    if obj.kind == "sigmoid":
        if xT is None:
            raise ContractError("sigmoid terminal costate requires the terminal state xT")
        w = obj.alpha * (np.asarray(xT, dtype=np.float64) - obj.theta)
        lam = obj.p * obj.alpha * _stable_sigmoid(w) * _stable_sigmoid(-w)
        lam.setflags(write=False)
        return lam
    raise ContractError(f"unknown objective kind {obj.kind!r}")


@dataclass(frozen=True, eq=False)
class ChannelProfile:
    """Mode expansion of one channel's cost-effectiveness signal over [0, horizon].

    ``rates`` are strictly increasing eigenvalue-group rates (the zero group,
    when present, comes first with rate exactly 0.0); ``coeffs`` are the
    matching eigenspace coefficients. Both are kept as read-only float64
    arrays: a float64 array passed in is kept, not copied, and flagged
    read-only. ``dropped`` counts spectrally silent groups removed below the
    coefficient tolerance. Calling the profile evaluates h(t); t may be a
    scalar or an array. Profiles compare and hash by identity.
    """

    horizon: float
    rates: np.ndarray
    coeffs: np.ndarray
    dropped: int = 0

    def __post_init__(self) -> None:
        for name in ("rates", "coeffs"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __call__(self, t):
        return eval_h(self, t)


def group_coefficients(sd: SpectralDecomposition, lam: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Group coefficients <P_g lam, b_k>, one row per gain vector b_k (the rows of ``bs``).

    Row k has one entry per entry of ``sd.group_rates``. Summing <Q_j, lam>
    <Q_j, b_k> over each distinct-eigenvalue group makes the result
    invariant to the eigensolver's basis choice inside an eigenspace; lam
    and all rows are projected with one product each. Every coefficient of
    row k within 1e-10 * max(1, |lam| |b_k|) of zero is set to 0.0: that
    mode is absent from the channel's signal, for its profile and its switch
    bounds alike.
    """
    coeffs = np.add.reduceat((bs @ sd.vectors) * (sd.vectors.T @ lam), sd.group_starts, axis=1)
    scale = _norm(lam)
    tol = np.array([1e-10 * max(1.0, scale * _norm(b)) for b in bs])
    coeffs[np.abs(coeffs) <= tol[:, None]] = 0.0
    return coeffs


def _row_profile(rates: np.ndarray, coeffs: np.ndarray, horizon: float) -> ChannelProfile:
    """The profile of one row of ``group_coefficients``: its nonzero modes."""
    keep = coeffs != 0.0
    kept = coeffs[keep]
    return ChannelProfile(
        horizon=float(horizon), rates=rates[keep], coeffs=kept, dropped=coeffs.size - kept.size
    )


def channel_profile(
    sd: SpectralDecomposition,
    lam: np.ndarray,
    b: np.ndarray,
    horizon: float,
) -> ChannelProfile:
    """Build the closed-form h profile for one channel from the spectral data and lam(T)."""
    return _row_profile(sd.group_rates, group_coefficients(sd, lam, np.asarray(b)[None, :])[0], horizon)


def eval_h(profile: ChannelProfile, t):
    """Evaluate h(t) = sum_g d_g exp(rate_g (t - horizon)); accepts scalars or arrays."""
    ts = np.asarray(t, dtype=np.float64)
    scalar = ts.ndim == 0
    ts1 = np.atleast_1d(ts)
    # Per-row pairwise summation is shape-independent, so scalar and array
    # calls agree bit for bit (BLAS matmul kernels do not). With no modes
    # every row sums to 0.0.
    modes = np.exp(np.multiply.outer(ts1 - profile.horizon, profile.rates))
    out = np.sum(modes * profile.coeffs, axis=-1)
    return float(out[0]) if scalar else out


def integrate_h(profile: ChannelProfile, a, b):
    """Exact integral of h over [a, b]; the zero-rate mode contributes d_0 * (b - a).

    Accepts scalars or arrays of endpoints. The modes' terms form one array
    and are added left to right from 0.0, so each entry of an array call
    equals the scalar call bit for bit.
    """
    rates, coeffs, T = profile.rates, profile.coeffs, profile.horizon
    lo = np.asarray(a, dtype=np.float64)[..., None]
    hi = np.asarray(b, dtype=np.float64)[..., None]
    flat = rates == 0.0
    decay = np.exp(rates * (hi - T)) - np.exp(rates * (lo - T))
    terms = np.where(flat, coeffs * (hi - lo), coeffs / np.where(flat, 1.0, rates) * decay)
    terms = np.concatenate((np.zeros(terms.shape[:-1] + (1,)), terms), axis=-1)
    total = np.add.accumulate(terms, axis=-1)[..., -1]
    return total if total.ndim else float(total)


def adjoint_check(lap: np.ndarray, lam: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Backward adjoint integration, intended solely as an oracle for eval_h.

    Integrates d(lam)/dt = L lam backward from lam(grid[-1]) = lam(T) with
    the classical 4th-order one-step method at the grid's resolution.
    Returns the trajectory row-aligned with ``grid`` (ascending times).
    """
    ts = np.asarray(grid, dtype=np.float64)
    traj = np.empty((ts.size, lap.shape[0]))
    traj[-1] = lam
    x = np.asarray(lam, dtype=np.float64)
    for k in range(ts.size - 1, 0, -1):
        h = ts[k - 1] - ts[k]
        k1 = lap @ x
        k2 = lap @ (x + 0.5 * h * k1)
        k3 = lap @ (x + 0.5 * h * k2)
        k4 = lap @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj[k - 1] = x
    return traj
