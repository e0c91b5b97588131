"""Terminal costates and closed-form cost-effectiveness profiles h_i(t).

The adjoint flow runs the consensus operator backward from the horizon, so
every nonconstant mode decays as t moves below T:

    h_i(t) = sum_g <P_g lam(T), b_i> * exp(rate_g * (t - T)),

with P_g the orthogonal projector onto eigenspace g. A profile is one row
of ``projected_coefficients`` next to ``SpectralDecomposition.group_rates``: a
mode the channel does not see has coefficient 0.0 and adds nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, _real_fault, _require
from .graph import Projection, SpectralDecomposition, _norm
from .problem import Objective


def _stable_sigmoid(w: np.ndarray) -> np.ndarray:
    out = np.empty_like(w)
    pos = w >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-w[pos]))
    ew = np.exp(w[~pos])
    out[~pos] = ew / (1.0 + ew)
    return out


def _terminal_state(obj: Objective, xT, batch: bool = False) -> np.ndarray:
    """xT as a float array: one state of the objective's n agents, or with ``batch`` any stack of them; else ContractError."""
    x = np.asarray(xT, dtype=np.float64)
    if x.shape[-1:] != obj.p.shape or not (batch or x.ndim == 1):
        expected = f"(..., {obj.p.size})" if batch else f"({obj.p.size},)"
        raise ContractError(f"terminal state has shape {x.shape}, expected {expected}")
    return x


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
        w = obj.alpha * (_terminal_state(obj, xT) - obj.theta)
        lam = obj.p * obj.alpha * _stable_sigmoid(w) * _stable_sigmoid(-w)
        lam.setflags(write=False)
        return lam
    raise ContractError(f"unknown objective kind {obj.kind!r}")


def projected_coefficients(sd: SpectralDecomposition, lam: np.ndarray, gains: Projection) -> np.ndarray:
    """Group coefficients <P_g lam, b_k> from the gain vectors' ``project``ion, one row per b_k.

    Row k has one entry per entry of ``sd.group_rates``. Summing <Q_j, lam>
    <Q_j, b_k> over each distinct-eigenvalue group makes the result
    invariant to the eigensolver's basis choice inside an eigenspace; lam
    is projected with one product. Every coefficient of row k within 1e-10
    * max(1, |lam| |b_k|) of zero is set to 0.0: that mode is absent from
    the channel's signal, for its profile and its switch bounds alike.
    """
    coeffs = np.add.reduceat(gains.coords * (sd.vectors.T @ lam), sd.group_starts, axis=1)
    scale = _norm(lam)
    tol = np.array([1e-10 * max(1.0, scale * norm) for norm in gains.norms])
    coeffs[np.abs(coeffs) <= tol[:, None]] = 0.0
    return coeffs


def modal_integrals(rates: np.ndarray, T: float, a, b) -> np.ndarray:
    """Integral over [a, b] of exp(rate (t - T)) per rate, e^{rate (b - T)} phi(rate, b - a), on a new last axis.

    phi(rate, tau) = -expm1(-rate tau) / rate, the integral of e^{-rate s}
    over [0, tau] (tau on a zero rate), keeps its relative accuracy where
    rate tau is tiny and a difference of exponentials cancels. For
    nonnegative rates and a <= b <= T nothing overflows. a and b are
    scalars or arrays.
    """
    lo = np.asarray(a, dtype=np.float64)[..., None]
    hi = np.asarray(b, dtype=np.float64)[..., None]
    tau = hi - lo
    zero = rates == 0.0
    neg = np.where(zero, -1.0, -rates)
    return np.exp(rates * (hi - T)) * np.where(zero, tau, np.expm1(neg * tau) / neg)


def integrate_h(rates: np.ndarray, coeffs: np.ndarray, T: float, a, b):
    """Exact integral over [a, b] of h(t) = sum_g coeffs_g exp(rates_g (t - T)), for scalar or array a and b.

    Each mode's term is coeffs_g times its ``modal_integrals`` entry. The
    modes run along the last axis of ``coeffs``, and its leading axes
    broadcast against the endpoints': one call takes one row per interval,
    or every channel's row over shared endpoints as ``coeffs[:, None, :]``.
    The terms are added left to right from 0.0, so each entry of an array
    call equals the scalar call bit for bit, and a zero coefficient adds a
    signed zero that leaves the sum's bits unchanged. T must be a finite
    positive real number, and a and b real numbers with 0 <= a <= b <= T.
    """
    _require(ContractError, _real_fault(T, "horizon T", "positive"))
    lo, hi = np.asarray(a), np.asarray(b)
    if lo.dtype.kind not in "iuf" or hi.dtype.kind not in "iuf" or not ((0.0 <= lo) & (lo <= hi) & (hi <= T)).all():
        raise ContractError(f"integration bounds must be reals with 0 <= a <= b <= T = {T}, got a={a!r}, b={b!r}")
    terms = coeffs * modal_integrals(rates, T, lo, hi)
    terms = np.concatenate((np.zeros(terms.shape[:-1] + (1,)), terms), axis=-1)
    total = np.add.accumulate(terms, axis=-1)[..., -1]
    return total if total.ndim else float(total)
