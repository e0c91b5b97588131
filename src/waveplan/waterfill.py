"""Exact linear-objective allocation by a safeguarded search on the water level beta.

A channel runs flat out wherever its cost-normalized signal g_i(t) =
h_i(t) * u_max_i / c_i(u_max_i) sits above the water level, and is off
elsewhere. Total spend is monotone nonincreasing in the level. A slack
budget short-circuits to level zero by complementary slackness. Otherwise
the search probes the level where the spend of the signals' chords between
samples meets the budget, and then takes safeguarded Newton steps on the
exact spend, falling back to bisection, inside [0, a proven bound on every
signal].

A channel whose coefficients, summed in ascending-rate order, have no
positive partial sum P_j is never on and is left off the grid. By Abel
summation g(t) = sum_j P_j (w_j - w_{j+1}) with w_j = exp(rate_j (t - T))
nonincreasing in j on [0, T] and w_G = 0, so such a g is <= 0 <= beta at
every time and every level: its on-set is empty and it adds no spend.

One engine serves every level probe and the returned on-sets: the
channels' group coefficients, one matrix per solve scaled to the signals,
and one product per solve that samples each signal, its slope and a bound
on its curvature at the ends of a few hundred uniform cells. At each
level, a cell's end values and curvature bound prove that it holds no
crossing or exactly one. One loop (``_crossings``) bisects the few cells
that neither test settles until every piece is settled, so a crossing
count never rests on the grid size and a close pair of crossings inside
one cell is found as a pair. It finds each crossing by a Newton step on
the closed form that the curvature bound certifies, or else a split of
the piece at the evaluated point and a retry on the half that holds the
crossing. Each retry leaves at most 7/8 of the piece, so the loop ends
within a proven number of rounds, without an iteration cap. A probe
returns the spend and its slope from the crossing times alone: the
on-intervals are built once, at the returned level.

A probe is one vectorised scan of all m x K samples, then a scalar tail.
The scan compares every sample with the level and finds the flips
between cell ends. The tail works on the few flips as Python floats: the
cubic start, the Newton test and the split of each piece. Per round it
makes one vectorised call that evaluates g, g' and the curvature bound at
the points of all unsettled pieces, and the spend and its slope are two
numpy dots. A channel's crossings at any level are at most its switch
bound, typically far below n, so the tail costs O(switches) per probe: a
few Python float operations per crossing, where numpy's fixed cost per
call would dominate arrays of one to four entries.

``solve_with_costate`` builds the schedule (``_schedule``) and then its
certificate (``_certified``); the sigmoid loop runs the first half on every
iterate and the second once, on the iterate it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .costate import projected_coefficients
from .dynamics import _grid, closed_form_gain
from .errors import ContractError, NumericalError, _real, _real_fault, _require
from .problem import CampaignProblem, Prepared, check_conditions, prepare

BISECTION_MAX_ITERS = 200
SPEND_REL_TOL = 1e-9
# Uniform cells of the signal grid. Performance only: every cell's crossing
# count is proven from its samples, so no crossing depends on it.
_CELLS = 256


@dataclass(frozen=True)
class ChannelSchedule:
    """On-intervals for one channel; the control equals u_max inside them and 0 outside.

    ``u_max`` is the level applied while on (the channel ceiling for
    bang-bang schedules; the enumeration oracle also emits interior levels).
    Construction raises ``ContractError`` unless u_max is finite and >= 0
    and the intervals are sorted, non-overlapping real pairs with 0 <= lo <=
    hi < inf; it stores them as float pairs, empty ones dropped and touching
    ones merged, the control's own on-set. Readers check that they end by T.
    """

    u_max: float
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        _require(ContractError, _real_fault(self.u_max, "schedule u_max", "nonnegative"))
        merged, end = [], 0.0
        for iv in self.intervals:
            try:
                lo, hi = map(_real, iv)
            except (TypeError, ValueError):
                lo = hi = None
            if lo is None or hi is None:
                raise ContractError(f"schedule interval must be a pair of real numbers, got {iv!r}")
            if not 0.0 <= lo <= hi < math.inf:
                raise ContractError(f"schedule interval ({lo}, {hi}) must have 0 <= lo <= hi < inf")
            if lo < end:
                raise ContractError(f"schedule interval ({lo}, {hi}) starts before the last ends, at {end}")
            if merged and merged[-1][1] == lo:
                lo = merged.pop()[0]
            if lo < hi:
                merged.append((lo, hi))
            end = hi
        object.__setattr__(self, "intervals", tuple(merged))

    @property
    def on_time(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))


@dataclass(frozen=True)
class BangBangSchedule:
    channels: tuple[ChannelSchedule, ...]

    def switch_counts(self, T: float) -> tuple[int, ...]:
        """Per-channel count of on/off transitions strictly inside (0, T)."""
        return tuple([sum([(lo > 0.0) + (hi < T) for lo, hi in cs.intervals]) for cs in self.channels])


@dataclass(frozen=True)
class ChannelCertificate:
    """Realized switch count of one channel next to its applicable bounds."""

    channel: int
    realized_switches: int
    bound_general: int
    bound_linear_shifted: int
    bound_linear_sup: int
    threshold_shift: float
    theorem_applicable: bool


@dataclass(frozen=True)
class WaterfillSolution:
    beta_star: float
    schedule: BangBangSchedule
    spend: float
    binding: bool
    objective_gain: float
    certificate: tuple[ChannelCertificate, ...]
    # (level, exact spend) of every level probed, in order: level 0 first,
    # the returned level last.
    bisection_trace: tuple[tuple[float, float], ...] = field(default=())

    @property
    def structure_certified(self) -> bool:
        return all(c.theorem_applicable for c in self.certificate)


def _split(piece, t, v, d, bound) -> tuple[tuple, tuple]:
    """The halves [lo, t] and [t, hi] of ``piece``, given g, g' and the curvature bound M at t.

    A piece of signal is the seven floats lo, hi, v_lo, v_hi, d_lo, d_hi,
    M: g and g' at both ends and the curvature bound at hi. Every rate is
    nonnegative, so M at t bounds |g''| on the left half, and the right
    half keeps the piece's M.
    """
    lo, hi, vlo, vhi, dlo, dhi, m = piece
    return (lo, t, vlo, v, dlo, d, bound), (t, hi, v, vhi, d, dhi, m)


class _SignalGrid:
    """The cost-normalized signals g_k of several channels, sampled once at the ends of ``_CELLS`` uniform cells.

    ``rates`` are increasing group rates and ``rows`` the m x G matrix of
    the channels' coefficients d_g on them, 0 where a channel lacks a mode,
    kept as the G x m matrix ``coeffs``. One product samples, at the K + 1
    cell ends (K = ``_CELLS``), each g_k (``values``, m x (K + 1)), its slope g_k' and its
    curvature bound M_k(t) = sum_g |d_g| rate_g^2 exp(rate_g (t - T)). The
    cell ends, ``times``, come from ``dynamics._grid``: the bits of
    ``np.linspace(0.0, T, K + 1)`` without its wrapper's calls.
    Every rate is nonnegative, so M_k is nondecreasing in t, and its value
    M at a cell's upper end bounds |g_k''| on the cell. With h the cell
    width and v_lo, v_hi the end values:

    - chord test: g is within M h^2 / 8 of the chord through the end
      values, so it stays above a level beta where min(v_lo, v_hi) - M h^2
      / 8 > beta and at or below it where max(v_lo, v_hi) + M h^2 / 8 <=
      beta;
    - slope test: where |v_hi - v_lo| > M h^2, the chord's slope exceeds M
      h, so g' keeps one sign on the cell: g crosses beta once if the ends
      lie on different sides of it, and never otherwise.

    A cell that neither test settles at a level is open there, and
    ``_crossings`` bisects it. So every crossing count is proven, whatever
    K is: K only sets how much sampling and bisection a solve does.
    ``top``, the largest max(v_lo, v_hi) + M h^2 / 8, bounds every g_k.
    """

    def __init__(self, rates: np.ndarray, rows: np.ndarray, T: float) -> None:
        self.T = float(T)
        self.rates = rates
        self.coeffs = np.ascontiguousarray(rows.T)
        m = self.coeffs.shape[1]
        self.dcoeffs = self.coeffs * rates[:, None]  # coefficients of g'
        # Coefficients of g, g' and M_k, G x 3 x m, so one product evaluates all three.
        terms = self._terms = np.empty((rates.size, 3, m))
        terms[:, 0], terms[:, 1] = self.coeffs, self.dcoeffs
        terms[:, 2] = np.abs(self.dcoeffs) * rates[:, None]
        self.times = _grid(self.T, _CELLS)
        samples = (self._modes(self.times) @ terms.reshape(rates.size, 3 * m)).T
        # Each row padded with -inf at both ends; ``values`` is a view of the samples.
        padded = np.empty((m, _CELLS + 3))
        padded.fill(-np.inf)
        padded[:, 1:-1] = samples[:m]
        self.values = padded[:, 1:-1]
        self._padded = padded.ravel()
        self.slopes, self.curvature = samples[m : 2 * m], samples[2 * m :]
        vlo, vhi, bound = self.values[:, :-1], self.values[:, 1:], self.curvature[:, 1:]
        # Every cell of every channel as a piece (``_split``), one column per
        # channel * K + cell.
        cells = np.empty((7, m, _CELLS))
        cells[0], cells[1], cells[2], cells[3] = self.times[:-1], self.times[1:], vlo, vhi
        cells[4], cells[5], cells[6] = self.slopes[:, :-1], self.slopes[:, 1:], bound
        self._cells = cells.reshape(7, m * _CELLS)
        curve = bound * (self.T / _CELLS) ** 2  # M h^2
        low = np.minimum(vlo, vhi) - 0.125 * curve
        high = np.maximum(vlo, vhi) + 0.125 * curve
        self.top = float(high.max())
        open_cells = np.abs(vhi - vlo) <= curve
        # Cells the slope test leaves open, as channel * K + cell, and the
        # levels [low, high) at which the chord test leaves them open too.
        self._open = open_cells.ravel().nonzero()[0]
        self._open_low, self._open_high = low[open_cells], high[open_cells]

    def probe(self, beta: float, costs: np.ndarray):
        """The spend at level beta, |dS/dbeta| there, and every channel's on-set {g_k > beta}.

        One vectorised scan of the padded rows, compared with the level as
        one flat array, finds every flip between cell ends of every
        channel, in channel then time order, so they alternate on, off
        within each channel. The -inf pads are off at every level, so no
        flip spans two rows. All that follows runs on the few flips as
        Python floats. A flip next to a pad is the time 0 or T. Every other
        flip lies in a cell with one crossing, unless the cell is open at
        beta. One ``_crossings`` call takes the one-crossing cells and,
        after them, the cells open at beta, which it bisects until each
        piece holds one crossing or none; it refines every crossing, and
        the flips are put in order by channel and piece. The on-sets come
        back flat, as ``(chan, starts, ends)`` arrays with interval j of
        channel chan[j] being [starts[j], ends[j]], and the spend is sum_j
        costs[chan[j]] (ends[j] - starts[j]). dS/dbeta is -sum over
        crossings of costs_k / |g_k'|. Both sums are numpy dots.

        A channel crosses the level at most as often as it switches, which
        the switch bounds cap far below n, so the scalar tail is O(switches)
        while the scan is O(m K).

        Points with g_k(t) = beta are assigned off (the boundary set has
        measure zero under the no-singular-arc conditions, and a
        deterministic tie-break keeps outputs reproducible).
        """
        above = self._padded > beta
        suspect = self._open[(self._open_low <= beta) & (beta < self._open_high)].tolist()
        opened = set(suspect)
        # Each flip as (channel, sort key, time). A piece's key is its lo;
        # -inf puts a start pad before every piece of its channel, inf an end pad after.
        events, chan, cells = [], [], []
        # Flip c of a row lies between its padded columns c and c + 1.
        for flip in (above[1:] != above[:-1]).nonzero()[0].tolist():
            k, col = divmod(flip, _CELLS + 3)
            cell = k * _CELLS + col - 1
            if col == 0:
                events.append((k, -math.inf, 0.0))
            elif col > _CELLS:
                events.append((k, math.inf, self.T))
            elif cell not in opened:
                chan.append(k)
                cells.append(cell)
        rate = 0.0
        if cells or suspect:
            pieces = self._cells.take(cells + suspect, axis=1).T.tolist()
            chan += [cell // _CELLS for cell in suspect]
            chan, keys, found, inverse_slopes = self._crossings(chan, pieces, len(cells), beta)
            rate = float(costs[chan] @ np.array(inverse_slopes))
            events += zip(chan, keys, found)
        events.sort()
        chan = np.array([e[0] for e in events[::2]], dtype=np.intp)
        times = [e[2] for e in events]
        starts, ends = np.array(times[::2]), np.array(times[1::2])
        return float(costs[chan] @ (ends - starts)), rate, (chan, starts, ends)

    def on_sets(self, events) -> list[tuple[tuple[float, float], ...]]:
        """Every channel's on-set as sorted intervals, from ``probe``'s flat form; ``ChannelSchedule`` drops empty ones."""
        chan, starts, ends = events
        bounds = chan.searchsorted(np.arange(self.coeffs.shape[1] + 1)).tolist()
        pairs = list(zip(starts.tolist(), ends.tolist()))
        return [tuple(pairs[a:b]) for a, b in zip(bounds, bounds[1:])]

    def _crossings(self, chan, pieces, settled, beta) -> tuple[list, list, list, list]:
        """Every crossing g_k = beta in ``pieces``: its channel, its piece's key (lo), its time and 1 / |g'| there.

        Piece i is channel chan[i]'s, in ``_split``'s layout; the first
        ``settled`` hold one crossing each, the rest are open. Each round
        evaluates g, g' and M_k at one point of every unsettled piece in one
        vectorised call, then works piece by piece on Python floats.

        An open piece is split at its midpoint, and the class docstring's
        two tests settle each half at its own width and curvature bound:
        one crossing or none. A half still open once no longer than 1e-12 *
        T straddles a tangency, and the tie-break (g = beta is off) decides
        it from its ends. A one-crossing half joins the next round, the
        left halves before the right ones.

        A one-crossing piece is evaluated at t: in its first round one
        Newton step on its cubic (the cubic that matches g and g' at both
        ends) from the secant through the end values, or the secant where
        that step leaves the piece or the cubic is flat there; in later
        rounds the same start on the current piece, moved to 1/8 or 7/8 of
        its width where it lies in an outer eighth. A failed first step
        leaves the crossing next to an end of the kept half, so this closes
        in on it eight times faster than a midpoint would. Then:

        - the Newton step delta = -(g(t) - beta) / g'(t) is accepted when 4
          M |delta| <= |g'(t)|, eps = M delta^2 / |g'(t)| <= 1e-12 * T and
          t1 = t + delta lies in the piece at least eps from its ends, M
          being the piece's curvature bound. Then a root lies within eps of
          t1: by Taylor |g(t1) - beta| <= M delta^2 / 2, and within 2
          |delta| of t |g' - g'(t)| <= 2 M |delta| <= |g'(t)| / 2, so g is
          monotone there with |g'| >= |g'(t)| / 2 and reaches beta within
          (M delta^2 / 2) / (|g'(t)| / 2) = eps of t1 (eps <= |delta| / 4).
          As the piece holds one crossing, that root is its crossing. No
          step is taken where g'(t) = 0.
        - otherwise the piece is split at t (``_split``) and keeps the half
          whose ends lie on different sides of beta; it still holds the one
          crossing. Where that half is no longer than 1e-12 * T, the
          crossing is settled at t, one of its ends.

        1 / |g'| is read at the last evaluated point, inf where g' is 0.
        The crossings come in their pieces' order: the settled pieces, then
        the one-crossing halves as they are found.

        The loop ends without a cap. From its second round on, t lies in
        the middle three quarters of a one-crossing piece, so a round that
        does not settle it leaves at most 7/8 of its width (to the rounding
        of t): a piece of width h is settled within 1 + ceil(log(h / (1e-12
        * T)) / log(8/7)) rounds, 167 for a cell of 256, 208 for [0, T]. An
        open piece of width h > 1e-12 * T is settled within ceil(log2(h /
        (1e-12 * T))) halvings, and a half it hands on in halving j, of
        width h / 2^j, within the bound above from round j + 1; as log 2 >
        5 log(8/7), that bound holds for the open piece too. Each point is
        evaluated once: a later point lies inside a kept half, whose ends
        are earlier points or the piece's own. A crossing within 1e-12 * T
        of 0 or T is returned as that end.
        """
        tol = 1e-12 * self.T
        crossed, keys = chan[:settled], [piece[0] for piece in pieces[:settled]]
        found, size = [0.0] * settled, [0.0] * settled
        # Each unsettled piece as (channel, piece, index of its crossing or
        # -1 while it is open, whether its first round is to come).
        todo = [(k, piece, i if i < settled else -1, True) for i, (k, piece) in enumerate(zip(chan, pieces))]
        while todo:
            points = []
            for _, (lo, hi, vlo, vhi, dlo, dhi, _), j, first in todo:
                if j < 0:
                    points.append(0.5 * (lo + hi))
                    continue
                width, rise = hi - lo, vhi - vlo
                c1 = width * dlo
                c3 = c1 + width * dhi - 2.0 * rise
                c2 = rise - c1 - c3
                s = (vlo - beta) / (vlo - vhi)
                dcubic = c1 + s * (2.0 * c2 + 3.0 * s * c3)
                if dcubic:
                    cubic = s - (vlo - beta + s * (c1 + s * (c2 + s * c3))) / dcubic
                    if 0.0 <= cubic <= 1.0:
                        s = cubic
                if not first:
                    s = min(max(s, 0.125), 0.875)
                points.append(lo + width * s)
            evaluated = self._at([entry[0] for entry in todo], self._modes(np.array(points)), 3).tolist()
            rest, lefts, rights = [], [], []
            for (k, piece, j, _), point, value, slope, bound in zip(todo, points, *evaluated):
                if j < 0:
                    left, right = _split(piece, point, value, slope, bound)
                    lefts.append((k, left))
                    rights.append((k, right))
                    continue
                size[j] = mag = abs(slope)
                found[j] = point
                if slope:
                    lo, hi, curvature = piece[0], piece[1], piece[6]
                    step = (beta - value) / slope
                    eps = curvature * step * step / mag
                    t1 = point + step
                    if 4.0 * curvature * abs(step) <= mag and eps <= tol and lo + eps <= t1 <= hi - eps:
                        found[j] = t1
                        continue
                left, right = _split(piece, point, value, slope, bound)
                half = left if (left[2] > beta) != (left[3] > beta) else right
                if half[1] - half[0] > tol:
                    rest.append((k, half, j, False))
            for k, half in lefts + rights:
                lo, hi, vlo, vhi, _, _, bound = half
                width = hi - lo
                curve = bound * width * width
                if abs(vhi - vlo) > curve or width <= tol:
                    if (vlo > beta) != (vhi > beta):
                        rest.append((k, half, len(found), True))
                        crossed.append(k)
                        keys.append(lo)
                        found.append(0.0)
                        size.append(0.0)
                elif min(vlo, vhi) - 0.125 * curve <= beta < max(vlo, vhi) + 0.125 * curve:
                    rest.append((k, half, -1, True))
            todo = rest
        # A crossing within the 1e-12 T it is found to of 0 or T is that
        # end, so rounding there never makes a switch.
        end = self.T - tol
        found = [0.0 if x <= tol else self.T if x >= end else x for x in found]
        return crossed, keys, found, [1.0 / x if x else math.inf for x in size]

    def _at(self, chan, modes, terms) -> np.ndarray:
        """g (and g', and M_k, as ``terms`` is 1, 2 or 3) of channel chan[i] on row i of ``modes``, one row per function.

        Each entry is summed over the modes on its own, so it does not
        depend on which other channels or times are evaluated with it.
        """
        return np.einsum("ig,gji->ji", modes, self._terms[:, :terms, chan])

    def _modes(self, t: np.ndarray) -> np.ndarray:
        """exp(rate_g (t - T)) for each time in t (rows) and each group rate (columns)."""
        e = np.multiply.outer(t - self.T, self.rates)
        return np.exp(e, out=e)

    def interpolated_level(self, costs: np.ndarray, r: float) -> float:
        """The level where the spend of the chords through the samples meets r; 0.0 if it stays below r.

        On a cell of channel k with end values v_min <= v_max, the chord is
        above the level beta for a fraction clip((v_max - beta) / (v_max -
        v_min), 0, 1) of the width h. So the chords' spend is piecewise
        linear in beta, with knots at the samples: walking the knots down
        from the top, its slope rises by c_k h / (v_max - v_min) at a
        cell's v_max and falls back at its v_min, and a flat cell (v_min =
        v_max) adds c_k h just below its value. It is a first guess, which
        the search checks with an exact spend.
        """
        v = self.values
        cells = v.shape[1] - 1
        low = np.minimum(v[:, :-1], v[:, 1:]).ravel()
        high = np.maximum(v[:, :-1], v[:, 1:]).ravel()
        spend = (costs * (self.T / cells)).repeat(cells)
        flat = high == low
        slope = np.divide(spend, high - low, out=np.zeros(spend.size), where=~flat)
        knots = np.concatenate((high, low))
        order = knots.argsort()[::-1]
        knots = knots[order]
        rise = np.concatenate((slope, -slope))[order].cumsum()  # the spend's slope below each knot
        jump = np.zeros(2 * spend.size)
        np.copyto(jump[: spend.size], spend, where=flat)
        jump = jump[order]
        below = jump.cumsum()  # the spend just below each knot
        below[1:] += (rise[:-1] * (knots[:-1] - knots[1:])).cumsum()
        j = int(below.searchsorted(r))
        if j == below.size:
            return 0.0
        if below[j] - jump[j] < r or rise[j - 1] <= 0.0:  # r is met at knot j: a flat cell's step, or rounding
            return float(knots[j])
        return float(knots[j - 1] - (r - below[j - 1]) / rise[j - 1])


def _find_level(grid: _SignalGrid, probe, costs: np.ndarray, r: float):
    """The level whose exact spend meets a binding budget r, with its on-sets in flat form.

    The search keeps a bracket lo < beta* < hi with spend(lo) > r >=
    spend(hi), starting from [0, ``grid.top``]. It first probes the grid's
    interpolated level, then takes Newton steps from the probe closest to r, with
    dS/dbeta = -sum_k c_k sum_crossings 1/|g_k'|. A step that leaves the
    bracket, or follows a probe that did not halve |spend - r|, becomes a
    bisection step. ``probe(beta)`` returns the exact spend, |dS/dbeta| and
    the on-sets there.
    """
    lo = 0.0
    # Every g_k <= top, so spend(top) = 0; spend(0) > r > 0 puts some g_k above 0, so top > 0.
    hi = grid.top
    tol = SPEND_REL_TOL * r
    beta = grid.interpolated_level(costs, r)
    best = None  # (|spend - r|, beta, spend, |dS/dbeta|) of the probe closest to r
    spend = float("nan")
    for _ in range(BISECTION_MAX_ITERS):
        if not lo < beta < hi:
            beta = 0.5 * (lo + hi)
            if not lo < beta < hi:
                break
        spend, rate, events = probe(beta)
        gap = abs(spend - r)
        if gap <= tol:
            return beta, events
        if spend > r:
            lo = beta
        else:
            hi = beta
        stalled = best is not None and gap > 0.5 * best[0]
        if best is None or gap < best[0]:
            best = (gap, beta, spend, rate)
        beta = 0.5 * (lo + hi)
        if not stalled and best[3] > 0.0:
            beta = best[1] + (best[2] - r) / best[3]
    raise NumericalError(
        "water-level bisection did not converge: bracket "
        f"[{lo:.17g}, {hi:.17g}], spend at last iterate {spend:.17g}, budget {r:.17g}; "
        "the spend curve may jump here (flat comparison signal at the level)"
    )


def _schedule(prep: Prepared, lam: np.ndarray):
    """The schedule half of ``solve_with_costate``, before any certificate.

    Returns the m x G group coefficients of h (``projected_coefficients``,
    one row per channel), the water level, the schedule, its spend and the
    (level, spend) trace of every level probed. The rows scaled to the
    signals g_k are sampled only for the channels with a positive partial
    coefficient sum, on the modes one of them has; the others are never on
    (see the module docstring). With none sampled the budget is slack at
    level 0. The on-sets are built once, at the returned level, and the
    returned spend is summed from them.
    """
    problem, sd = prep.problem, prep.sd
    T, r = problem.T, problem.r
    chans = problem.channels
    coeffs = projected_coefficients(sd, lam, prep.gains)
    signals = coeffs * np.array([ch.u_max / ch.max_cost_rate for ch in chans])[:, None]
    live = (signals.cumsum(axis=1) > 0.0).any(axis=1).nonzero()[0]
    costs = np.array([chans[k].max_cost_rate for k in live])
    trace: list[tuple[float, float]] = []
    beta_star, sets = 0.0, []
    if not live.size:
        trace.append((0.0, 0.0))
    else:
        modes = (coeffs[live] != 0.0).any(axis=0)
        grid = _SignalGrid(sd.group_rates[modes], signals[live][:, modes], T)

        def probe(beta: float):
            out = grid.probe(beta, costs)
            trace.append((beta, out[0]))
            return out

        spend, _, events = probe(0.0)
        if spend > r:
            beta_star, events = _find_level(grid, probe, costs, r)
        sets = grid.on_sets(events)

    on = dict(zip(live.tolist(), sets))
    schedule = BangBangSchedule(
        channels=tuple(
            ChannelSchedule(u_max=ch.u_max, intervals=on.get(k, ())) for k, ch in enumerate(chans)
        )
    )
    spend = float(sum(ch.max_cost_rate * cs.on_time for ch, cs in zip(chans, schedule.channels)))
    return coeffs, beta_star, schedule, spend, tuple(trace)


def _certified(prep: Prepared, coeffs, beta_star, schedule, spend, trace) -> WaterfillSolution:
    """The certificate half of ``solve_with_costate``: gain, conditions and switch bounds.

    The conditions read the support masks from the projection that the
    schedule half read too. One pass per channel over its row of group
    coefficients, its conditions row and its realized switches: the
    support bound (``bounds.support_bound``) is read from the conditions'
    rank, and the row gives both variation bounds at the channel's
    threshold shift (``bounds.linear_bounds``), so no coefficient is
    computed twice. Raises NumericalError when a channel switches more often
    than a bound that applies to it allows.
    """
    problem = prep.problem
    gain = closed_form_gain(prep.sd.group_rates, coeffs, problem.T, schedule)
    certificate = []
    conditions = check_conditions(prep)
    switches = schedule.switch_counts(problem.T)
    for ch, row, cond, realized in zip(problem.channels, coeffs, conditions, switches):
        shift = beta_star * ch.max_cost_rate / ch.u_max
        shifted, sup = bounds.linear_bounds(row, shift)
        general = bounds.support_bound(cond.controllability_rank)
        certificate.append(
            ChannelCertificate(
                channel=cond.channel,
                realized_switches=realized,
                bound_general=general,
                bound_linear_shifted=shifted,
                bound_linear_sup=sup,
                threshold_shift=shift,
                theorem_applicable=cond.theorem_applicable,
            )
        )
        # The shift-aware sign-variation bound holds unconditionally; the
        # spectral-support bound additionally needs the constant mode present
        # (a channel with zero total reach plus a positive level gains one
        # extra admissible crossing).
        if realized > shifted:
            raise NumericalError(
                f"channel {cond.channel}: {realized} switches exceed variation bound {shifted}"
            )
        if cond.reach_nonzero and realized > general:
            raise NumericalError(
                f"channel {cond.channel}: {realized} switches exceed support bound {general}"
            )

    return WaterfillSolution(
        beta_star=float(beta_star),
        schedule=schedule,
        spend=float(spend),
        binding=beta_star > 0.0,
        objective_gain=float(gain),
        certificate=tuple(certificate),
        bisection_trace=trace,
    )


def solve_with_costate(problem: CampaignProblem | Prepared, lam: np.ndarray) -> WaterfillSolution:
    """Water-filling against an explicit terminal costate vector, with its certificate.

    This is the shared engine: the linear objective passes lam = p, the
    sigmoid loop passes its surrogate costates. Nothing here reads x0 or the
    drift, which is what makes linear-objective schedules invariant to both.
    A costate of the wrong shape or with a non-finite entry raises
    ContractError.
    """
    prep = prepare(problem)
    n = prep.problem.n
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (n,):
        raise ContractError(f"costate has shape {lam.shape}, expected ({n},)")
    if not np.isfinite(lam).all():
        raise ContractError("costate has non-finite entries")
    return _certified(prep, *_schedule(prep, lam))


def solve(problem: CampaignProblem | Prepared) -> WaterfillSolution:
    """Exact optimal schedule for the separable linear objective.

    Raises ContractError for other objective kinds; the sigmoid surrogate
    loop lives in the sigmoid module.
    """
    prep = prepare(problem)
    if prep.problem.objective.kind != "linear":
        raise ContractError(
            "water-filling solve requires the linear objective; use solve_sigmoid for the sigmoid kind"
        )
    return solve_with_costate(prep, prep.problem.objective.p)
