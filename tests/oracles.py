"""Independent oracles for the test suite: nothing in the package calls them.

``h_at`` evaluates a profile row point by point, ``adjoint_check`` integrates
the adjoint flow that the profile expansion solves in closed form,
``count_exp_poly_zeros`` counts the zeros that the switch bounds cap, and
``dense_geometric_edges`` tests every pair of points that a geometric graph
could join. Each stays apart from the code it checks.
"""

from __future__ import annotations

import numpy as np

from waveplan.errors import ContractError


def h_at(rates, coeffs, T: float, t):
    """h(t) = sum_g coeffs_g exp(rates_g (t - T)) for a scalar or an array of times.

    Each time's terms are summed pairwise over the modes, so scalar and
    array calls agree bit for bit; with no modes h is 0.0.
    """
    rates = np.asarray(rates, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    out = np.sum(np.exp(np.multiply.outer(np.asarray(t, dtype=np.float64) - T, rates)) * coeffs, axis=-1)
    return out if out.ndim else float(out)


def adjoint_check(lap: np.ndarray, lam: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Backward adjoint integration, an oracle for the closed-form profiles.

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


def _eval_exp_poly(rates: np.ndarray, coeffs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    return np.exp(np.multiply.outer(ts, rates)) @ coeffs


def _bisect_root(f, lo: float, hi: float, flo: float, tol: float) -> float:
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def count_exp_poly_zeros(
    rates, coeffs, window: tuple[float, float], resolution: int = 4096
) -> int:
    """Numerically count zeros of f(t) = sum_g d_g exp(rate_g t) on a window.

    Sign changes on a uniform grid are refined by bisection to 1e-12 of the
    window width. Tangential (even-order) zeros are hunted via sign changes
    of f' and counted with multiplicity 2 when the extremum value sits at
    zero within tolerance. This is the brute-force oracle that the
    zero-counting lemmas are tested against, so it stays independent of the
    sign-variation machinery in ``waveplan.bounds``.
    """
    rates = np.asarray(rates, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if rates.shape != coeffs.shape or rates.ndim != 1:
        raise ContractError("rates and coeffs must be 1-d arrays of equal length")
    if not np.any(coeffs):
        raise ContractError("all coefficients are zero; the zero count is undefined")
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (np.isfinite(t_lo) and np.isfinite(t_hi) and t_lo < t_hi):
        raise ContractError(f"window must be a finite increasing pair, got {window}")
    if resolution < 2:
        raise ContractError("resolution must be at least 2 points")

    ts = np.linspace(t_lo, t_hi, resolution)
    vals = _eval_exp_poly(rates, coeffs, ts)
    ztol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    ttol = 1e-12 * max(1.0, t_hi - t_lo)

    f = lambda t: float(_eval_exp_poly(rates, coeffs, np.array([t]))[0])

    nz = np.flatnonzero(np.abs(vals) > ztol)
    roots: list[float] = []
    for a_idx, b_idx in zip(nz[:-1], nz[1:]):
        if (vals[a_idx] > 0.0) != (vals[b_idx] > 0.0):
            root = _bisect_root(f, ts[a_idx], ts[b_idx], vals[a_idx], ttol)
            # Refinement also dedupes: chatter around one zero collapses here.
            if not roots or root - roots[-1] > ttol:
                roots.append(root)
    count = len(roots)

    # Tangential zeros: bracket extrema via f' and test the extremum value.
    dcoeffs = coeffs * rates
    if np.any(dcoeffs):
        dvals = _eval_exp_poly(rates, dcoeffs, ts)
        df = lambda t: float(_eval_exp_poly(rates, dcoeffs, np.array([t]))[0])
        dnz = np.flatnonzero(np.abs(dvals) > 0.0)
        for a_idx, b_idx in zip(dnz[:-1], dnz[1:]):
            if (dvals[a_idx] > 0.0) != (dvals[b_idx] > 0.0):
                t_star = _bisect_root(df, ts[a_idx], ts[b_idx], dvals[a_idx], ttol)
                # Only an even-order zero if f does not change sign there.
                fa, fb = f(ts[a_idx]), f(ts[b_idx])
                if (
                    abs(f(t_star)) <= ztol
                    and abs(fa) > ztol
                    and abs(fb) > ztol
                    and (fa > 0.0) == (fb > 0.0)
                ):
                    count += 2
    return count


def dense_geometric_edges(pts: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """0-based ends (i, j), i < j in row-major order, of every pair within ``radius``, from n x n arrays.

    The distance test is dx * dx + dy * dy <= radius * radius on the full
    matrices of coordinate differences, as geometric graphs were first
    built.
    """
    dx = pts[:, 0, None] - pts[:, 0]
    dy = pts[:, 1, None] - pts[:, 1]
    d2 = dx * dx + dy * dy
    return np.nonzero(np.triu(d2 <= radius * radius, 1))
