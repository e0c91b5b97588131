"""Independent oracles for the test suite: nothing in the package calls them.

``h_at`` evaluates a profile row point by point, ``adjoint_check`` integrates
the adjoint flow that the profile expansion solves in closed form,
``count_exp_poly_zeros`` counts the zeros that the switch bounds cap, and
``dense_geometric_edges`` tests every pair of points that a geometric graph
could join. Each stays apart from the code it checks.

``reference_probe`` and ``reference_crossings`` are one exception: the
level probe's tail written with one numpy operation per step over all
crossings, where ``waterfill`` runs it on Python floats. They evaluate the
signals with the grid's own ``_modes`` and ``_at`` on the same points, so
the scalar tail must agree with them bit for bit.

``per_cell_schedule`` is the other: the enumeration oracle's winning
schedule built with one interval per on-cell, touching cells merged by
``ChannelSchedule``, where ``oracle._schedule_from_indices`` builds one
interval per run of on-cells.
"""

from __future__ import annotations

import numpy as np

from waveplan.errors import ContractError
from waveplan.waterfill import BangBangSchedule, ChannelSchedule


def per_cell_schedule(problem, tables, edges, idx):
    """The schedule of candidate idx[k] of each channel's table, from one interval per on-cell, merged by ``ChannelSchedule``."""
    channels = []
    for k, ch in enumerate(problem.channels):
        t = tables[k]
        on = t.masks[int(t.mask_of[idx[k]])] > 0.0
        intervals = tuple(zip(edges[:-1][on].tolist(), edges[1:][on].tolist()))
        channels.append(ChannelSchedule(u_max=float(t.levels[idx[k]]) * ch.u_max, intervals=intervals))
    return BangBangSchedule(channels=tuple(channels))


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


def _split_columns(pieces, t, v, d, bound):
    """The halves [lo, t] and [t, hi] of every column of a 7 x n piece array (rows as in ``waterfill._split``)."""
    left, right = pieces.copy(), pieces.copy()
    left[1], left[3], left[5], left[6] = t, v, d, bound
    right[0], right[2], right[4] = t, v, d
    return left, right


def _cell_columns(grid) -> np.ndarray:
    """Every cell of every channel of a ``_SignalGrid`` as a piece, 7 x m x K."""
    vlo, vhi = grid.values[:, :-1], grid.values[:, 1:]
    cells = np.empty((7,) + vlo.shape)
    cells[0], cells[1], cells[2], cells[3] = grid.times[:-1], grid.times[1:], vlo, vhi
    cells[4], cells[5], cells[6] = grid.slopes[:, :-1], grid.slopes[:, 1:], grid.curvature[:, 1:]
    return cells


def _reference_isolate(grid, chan, cell, beta):
    """``_SignalGrid._isolate`` on 7 x n piece arrays: the one-crossing pieces' channels and columns."""
    tol = 1e-12 * grid.T
    piece = _cell_columns(grid)[:, chan, cell]
    found, found_chan = [], []
    while chan.size:
        mid = 0.5 * (piece[0] + piece[1])
        piece = np.concatenate(_split_columns(piece, mid, *grid._at(chan, grid._modes(mid), 3)), axis=1)
        chan = np.concatenate((chan, chan))
        lo, hi, vlo, vhi, _, _, bound = piece
        width = hi - lo
        curve = bound * width * width
        flip = (vlo > beta) != (vhi > beta)
        monotone = np.abs(vhi - vlo) > curve
        short = width <= tol
        clear = (np.minimum(vlo, vhi) - 0.125 * curve > beta) | (np.maximum(vlo, vhi) + 0.125 * curve <= beta)
        one = flip & (monotone | short)
        found.append(piece[:, one])
        found_chan.append(chan[one])
        rest = ~(one | monotone | clear | short)
        piece, chan = piece[:, rest], chan[rest]
    return np.concatenate(found_chan), np.concatenate(found, axis=1)


def reference_crossings(grid, chan, pieces, beta):
    """``_SignalGrid._crossings`` on numpy arrays: crossing times and 1 / |g'|, for channels ``chan`` and 7 x n ``pieces``.

    Each round's arithmetic is one numpy operation over the unsettled
    pieces, under ``errstate``: a zero g' or cubic slope gives inf or nan,
    a near-zero one may overflow to inf, as Python floats do silently, and
    every comparison with a nan is false.
    """
    tol = 1e-12 * grid.T
    found, size = np.empty(chan.size), np.empty(chan.size)
    todo = np.arange(chan.size)
    first = True
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while todo.size:
            lo, hi, vlo, vhi, dlo, dhi, bound = pieces
            width, rise = hi - lo, vhi - vlo
            c1 = width * dlo
            c3 = c1 + width * dhi - 2.0 * rise
            c2 = rise - c1 - c3
            s = (vlo - beta) / (vlo - vhi)
            cubic = s - (vlo - beta + s * (c1 + s * (c2 + s * c3))) / (c1 + s * (2.0 * c2 + 3.0 * s * c3))
            s = np.where((0.0 <= cubic) & (cubic <= 1.0), cubic, s)
            if not first:
                s = np.clip(s, 0.125, 0.875)
            first = False
            t = lo + width * s
            e = grid._modes(t)
            value, slope = grid._at(chan, e, 2)
            step = (beta - value) / slope
            size[todo] = mag = np.abs(slope)
            eps = bound * step * step / mag
            t1 = t + step
            good = (4.0 * bound * np.abs(step) <= mag) & (eps <= tol) & (lo + eps <= t1) & (t1 <= hi - eps)
            found[todo] = t1
            if good.all():
                break
            split = ~good
            chan, t, e, todo = chan[split], t[split], e[split], todo[split]
            found[todo] = t
            halves = _split_columns(pieces[:, split], t, value[split], slope[split], grid._at(chan, e, 3)[2])
            pieces = np.where((halves[0][2] > beta) != (halves[0][3] > beta), *halves)
            rest = pieces[1] - pieces[0] > tol
            todo, chan, pieces = todo[rest], chan[rest], pieces[:, rest]
        found[found <= tol] = 0.0
        found[found >= grid.T - tol] = grid.T
        return found, 1.0 / size


def reference_probe(grid, beta, costs):
    """``_SignalGrid.probe`` with every step after the scan on numpy arrays: (spend, |dS/dbeta|, (chan, starts, ends))."""
    cells = grid.values.shape[1] - 1
    above = grid._padded > beta
    # Flip c of a row lies between its padded columns c and c + 1: a pad
    # flip at 0 for c = 0 or at T for c = K + 1, else a crossing in cell c - 1.
    chan, col = np.divmod((above[1:] != above[:-1]).nonzero()[0], cells + 3)
    times = np.concatenate(([0.0], grid.times))[col]
    inner = (col > 0) & (col <= cells)
    cross, cell = chan[inner], col[inner] - 1
    pieces = _cell_columns(grid)[:, cross, cell]
    suspect = grid._open[(grid._open_low <= beta) & (beta < grid._open_high)]
    if suspect.size:
        keep = ~np.isin(cross * cells + cell, suspect)
        fine, fine_pieces = _reference_isolate(grid, *np.divmod(suspect, cells), beta)
        cross = np.concatenate((cross[keep], fine))
        pieces = np.concatenate((pieces[:, keep], fine_pieces), axis=1)
    rate, t = 0.0, pieces[0]
    if cross.size:
        t, inverse_slopes = reference_crossings(grid, cross, pieces, beta)
        rate = float(costs[cross] @ inverse_slopes)
    if suspect.size:
        pads = ~inner
        chan = np.concatenate((chan[pads], cross))
        times = np.concatenate((times[pads], t))
        order = np.lexsort((np.concatenate((np.where(col[pads] == 0, -np.inf, np.inf), pieces[0])), chan))
        chan, times = chan[order], times[order]
    else:
        times[inner] = t
    chan, starts, ends = chan[::2], times[::2], times[1::2]
    return float(costs[chan] @ (ends - starts)), rate, (chan, starts, ends)
