"""Switch-count upper bounds and the exponential-polynomial zero-counting oracle.

Two bounds per channel: the spectral-support bound (one less than the number
of eigenvalue groups the channel projects onto) and the sign-variation bound
on threshold-shifted partial coefficient sums. The shift matters: the
comparison signal crosses beta * v_i, not zero, so the constant term of the
exponential polynomial carries the threshold. The at-threshold and the
sup-over-thresholds variants read one partial-sum sequence, so one pass
returns both. That pass sorts the sequence's adjacent pairs once and counts
every candidate level against them by binary search; only levels within
tolerance of a partial sum are recounted entry by entry.
"""

from __future__ import annotations

import numpy as np

from .costate import group_coefficients
from .errors import ContractError
from .graph import SpectralDecomposition, projected_groups


def bound_general(sd: SpectralDecomposition, b: np.ndarray) -> int:
    """Spectral-support switch bound: max(0, G - 1) over the G groups that b projects onto."""
    return max(0, int(np.count_nonzero(projected_groups(sd, np.asarray(b)[None, :]))) - 1)


# Entries of one block of partial sums minus levels in _sign_variations;
# bounds its memory whatever the group count.
_VARIATION_BLOCK = 1 << 16


def _sign_variations(partial: np.ndarray, levels: np.ndarray, tol: float) -> np.ndarray:
    """Strict sign alternations of partial - s for each level s.

    Entries within tol of zero are skipped. Each entry is compared with the
    last entry before it that is not skipped; that entry's sign is carried
    forward by a running maximum over the indices of the entries that count.
    """
    idx = np.arange(partial.size)
    rows = max(1, _VARIATION_BLOCK // partial.size)
    out = []
    for start in range(0, levels.size, rows):
        diff = partial[None, :] - levels[start : start + rows, None]
        counted = np.abs(diff) > tol
        last = np.maximum.accumulate(np.where(counted, idx, -1), axis=1)
        carried = np.take_along_axis(diff > tol, np.maximum(last, 0), axis=1)
        changes = (carried[:, 1:] != carried[:, :-1]) & (last[:, :-1] >= 0)
        out.append(np.count_nonzero(changes, axis=1))
    return np.concatenate(out)


def _variation_bounds(partial: np.ndarray, shift: float, tol: float) -> tuple[int, int]:
    """Sign variations of partial - shift, and their maximum over all levels s >= 0.

    The count is piecewise constant in s with breakpoints at the values of
    ``partial``, so the maximum tests s = 0, the nonnegative midpoints
    between consecutive distinct values, and one point beyond the largest;
    ``shift`` is counted in the same pass but is not one of those levels.

    A level with no partial sum within ``tol`` skips no entry, so its count
    is the number of adjacent pairs that straddle it: pair minima below it
    less pair maxima at or below it, read from the two arrays sorted once.
    Whether a partial sum lies within ``tol`` is decided by the nearest
    distinct value on each side, since rounded differences are monotone;
    those levels are recounted exactly by ``_sign_variations``.
    """
    vals = partial.copy()
    vals.sort()
    distinct = np.empty(vals.size, dtype=bool)
    distinct[0] = True
    np.not_equal(vals[1:], vals[:-1], out=distinct[1:])
    vals = vals[distinct]
    mids = 0.5 * (vals[:-1] + vals[1:])
    top = float(vals[-1])
    beyond = top + max(1.0, abs(top))
    levels = np.concatenate(([shift, 0.0], mids[mids >= 0.0], [beyond] if beyond >= 0.0 else []))
    lo = np.minimum(partial[:-1], partial[1:])
    lo.sort()
    hi = np.maximum(partial[:-1], partial[1:])
    hi.sort()
    counts = lo.searchsorted(levels, "left") - hi.searchsorted(levels, "right")
    k = vals.searchsorted(levels)
    below = vals[np.maximum(k - 1, 0)]
    above = vals[np.minimum(k, vals.size - 1)]
    near = (np.abs(below - levels) <= tol) | (np.abs(above - levels) <= tol)
    if near.any():
        counts[near] = _sign_variations(partial, levels[near], tol)
    return int(counts[0]), int(counts[1:].max())


def _linear_bounds(coeffs: np.ndarray, shift: float) -> tuple[int, int]:
    """``bound_linear`` from one row of ``group_coefficients``, zeros included, in rate order."""
    s = float(shift)
    if s < 0.0:
        raise ContractError(f"threshold shift must be nonnegative, got {s}")
    stol = 1e-12 * max(1.0, float(np.abs(coeffs).sum()))
    return _variation_bounds(coeffs.cumsum(), s, stol)


def bound_linear(
    sd: SpectralDecomposition, p: np.ndarray, b: np.ndarray, shift: float
) -> tuple[int, int]:
    """Sign-variation switch bounds ``(at_shift, sup)`` for the linear objective with costate p.

    The sequence is the running sum of the group coefficients ordered by
    increasing rate, with a threshold level subtracted (it enters the
    constant term, hence every partial sum). The coefficients are those of
    ``group_coefficients``, so the bounds count exactly the modes the
    channel's profile keeps. One pass returns both bounds:
    the variation count at the level ``shift >= 0``, and its maximum over
    all levels.
    """
    bs = np.asarray(b, dtype=np.float64)[None, :]
    return _linear_bounds(group_coefficients(sd, np.asarray(p, dtype=np.float64), bs)[0], shift)


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
    sign-variation machinery above.
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

