"""Switch-count upper bounds for each channel's exponential-polynomial signal.

Two bounds per channel, both read from the one projection of the gains:
the spectral-support bound (``support_bound``, one less than the number of
eigenvalue groups the channel projects onto, from ``graph.group_support``)
and the sign-variation bounds (``linear_bounds``) on threshold-shifted
partial sums of the channel's row of ``costate.projected_coefficients``.
Every caller, the certificate, ``waveplan bounds``, the oracle's caps and
the sweep, goes through these two functions. The shift matters: the
comparison signal crosses beta * v_i, not zero, so the constant term of the
exponential polynomial carries the threshold. The at-threshold and the
sup-over-thresholds variants read one partial-sum sequence, so one pass
returns both. That pass sorts the sequence's adjacent pairs once and counts
every candidate level against them by binary search; only levels within
tolerance of a partial sum are recounted entry by entry. The brute-force
zero counter that these bounds are tested against is kept with the tests,
apart from this machinery.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, _int_fault, _real_fault, _require


def support_bound(groups) -> int:
    """Spectral-support switch bound, max(0, groups - 1), of a channel projecting onto ``groups`` eigenvalue groups."""
    _require(ContractError, _int_fault(groups, "group count", 0))
    return max(0, int(groups) - 1)


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


def linear_bounds(coeffs: np.ndarray, shift: float) -> tuple[int, int]:
    """Sign-variation switch bounds ``(at_shift, sup)`` of one channel's row of group coefficients.

    ``coeffs`` is one row of ``costate.projected_coefficients``, zeros
    included, in order of increasing rate, so the bounds count exactly the
    modes that are nonzero in the channel's row. The sequence is the
    running sum of the row with a threshold level subtracted (it enters the
    constant term, hence every partial sum). One pass returns both bounds:
    the variation count at the level ``shift >= 0``, and its maximum over
    all levels. A shift that is not a finite real number at least 0 is a
    ContractError.
    """
    _require(ContractError, _real_fault(shift, "threshold shift", "nonnegative"))
    stol = 1e-12 * max(1.0, float(np.abs(coeffs).sum()))
    return _variation_bounds(coeffs.cumsum(), float(shift), stol)
