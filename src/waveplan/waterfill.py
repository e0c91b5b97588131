"""Exact linear-objective allocation by a safeguarded search on the water level beta.

A channel runs flat out wherever its cost-normalized signal g_i(t) =
h_i(t) * u_max_i / c_i(u_max_i) sits above the water level, and is off
elsewhere. Total spend is monotone nonincreasing in the level. A slack
budget short-circuits to level zero by complementary slackness. Otherwise
the search probes the level where the spend of at most ``_LEVEL_SAMPLES``
evenly strided grid samples meets the budget, read from a cost-weighted
histogram, and then takes safeguarded Newton steps on the exact spend,
falling back to bisection, inside [0, max sample].

A channel whose coefficients, summed in ascending-rate order, have no
positive partial sum P_j is never on and is left off the grid. By Abel
summation g(t) = sum_j P_j (w_j - w_{j+1}) with w_j = exp(rate_j (t - T))
nonincreasing in j on [0, T] and w_G = 0, so such a g is <= 0 <= beta at
every time and every level: its on-set is empty and it adds no spend.

One engine serves every level probe and the returned on-sets: the
channels' group coefficients, one matrix per solve scaled to the signals,
one modal block exp((t - T) * rate) evaluated per solve on a shared grid,
one scan of the grid per level for the crossing cells of all channels, and
one evaluation of g, g' and a curvature bound at every crossing, which
certifies most Newton steps from the cells' secants; the rest go to
vectorized safeguarded Newton refinement. A probe returns the spend and its slope
from the crossing times alone: the on-intervals are built once, at the
returned level. A sign change between two samples is always a true
crossing, so a scan can exceed the certificate's switch bounds only
through rounding, which a finer grid does not remove: the grid has one
fixed size (``_grid_points``), is compared with each level once and is
never refined.

``solve_with_costate`` builds the schedule (``_schedule``) and then its
certificate (``_certified``); the sigmoid loop runs the first half on every
iterate and the second once, on the iterate it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .costate import projected_coefficients
from .dynamics import closed_form_gain
from .errors import ContractError, NumericalError
from .problem import CampaignProblem, Prepared, check_conditions, prepare

BISECTION_MAX_ITERS = 200
CROSSING_MAX_ITERS = 100
# A crossing is a root once |g - beta| is this many ulp of its terms' magnitude.
_ROOT_ULPS = 4
SPEND_REL_TOL = 1e-9
# Entries of one row block of the modal grid; bounds the grid's working memory.
_GRID_BLOCK_ENTRIES = 1 << 16
# Most grid samples the sampled level reads; larger grids are read at a stride.
_LEVEL_SAMPLES = 8192
# Equal bins of the histogram that gives the sampled level.
_LEVEL_BINS = 1024


@dataclass(frozen=True)
class ChannelSchedule:
    """On-intervals for one channel; the control equals u_max inside them and 0 outside.

    ``u_max`` is the level applied while on (the channel ceiling for
    bang-bang schedules; the enumeration oracle also emits interior levels).
    """

    u_max: float
    intervals: tuple[tuple[float, float], ...]

    @property
    def on_time(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))


@dataclass(frozen=True)
class BangBangSchedule:
    channels: tuple[ChannelSchedule, ...]

    def switch_counts(self, T: float) -> tuple[int, ...]:
        """Per-channel count of on/off transitions strictly inside (0, T)."""
        counts = []
        for cs in self.channels:
            k = 0
            for lo, hi in cs.intervals:
                k += int(lo > 0.0) + int(hi < T)
            counts.append(k)
        return tuple(counts)


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


def _grid_points(n: int) -> int:
    """Samples per signal for a problem on n agents: 4096, or 64 per agent above 64 agents."""
    return max(4096, 64 * n)


def _sample_signals(
    rates: np.ndarray, coeffs: np.ndarray, T: float, points: int
) -> tuple[np.ndarray, np.ndarray]:
    """A uniform grid on [0, T] and every channel's signal on it, each row padded with -inf at both ends.

    The result has shape (m, points + 2); columns 1 to points hold the
    samples. The modal block exp((t - T) * rate) is taken in row blocks of
    fixed size as exp((t - t_e) * rate) * exp((t_e - T) * rate), with t_e
    the last time of the block. The first factor is the same for every
    block and is computed once; the second folds into the coefficients. So
    each block costs G exponentials and one matrix product, memory stays
    O(block * G), and both factors are at most 1, so nothing overflows.
    """
    ts = np.linspace(0.0, T, points)
    dt = T / max(1, points - 1)
    rows = max(1, min(points, _GRID_BLOCK_ENTRIES // max(1, rates.size)))
    offsets = np.multiply.outer(rates, np.arange(1 - rows, 1) * dt)
    np.exp(offsets, out=offsets)  # in place: one block-sized array per solve, not two
    out = np.empty((coeffs.shape[1], points + 2))
    out[:, 0] = out[:, -1] = -np.inf
    for stop in range(points, 0, -rows):
        start = max(0, stop - rows)
        anchored = coeffs * np.exp((ts[stop - 1] - T) * rates)[:, None]
        out[:, start + 1 : stop + 1] = anchored.T @ offsets[:, rows - (stop - start) :]
    return ts, out


class _SignalGrid:
    """The cost-normalized signals g_k of several channels, sampled once on a shared grid.

    ``rates`` are increasing group rates and ``rows`` the m x G matrix of
    the channels' coefficients on them, 0 where a channel lacks a mode,
    kept as the G x m matrix ``coeffs``. The samples supply signs, brackets
    and a first guess of the level only: ``probe`` compares them with the
    level, takes each crossing's grid cell and the signs at the cell ends,
    then refines the crossing on the closed form. ``values`` (m x points)
    is a view of the samples inside the padded rows that ``probe`` scans.
    """

    def __init__(self, rates: np.ndarray, rows: np.ndarray, T: float, points: int) -> None:
        self.T = float(T)
        self.rates = rates
        self.coeffs = np.ascontiguousarray(rows.T)
        self.dcoeffs = self.coeffs * rates[:, None]  # coefficients of g'
        # Coefficients of g, g' and the curvature bound sum_g |d_g| rate_g^2
        # exp(rate_g (t - T)) side by side, so one product evaluates all three.
        curvature = np.abs(self.dcoeffs) * rates[:, None]
        self.terms = np.concatenate((self.coeffs, self.dcoeffs, curvature), axis=1)
        self.times, padded = _sample_signals(rates, self.coeffs, self.T, points)
        self.values = padded[:, 1:-1]
        self._padded = padded.ravel()
        # Per padded column c, for the flip between columns c and c + 1: its
        # time if it is a pad flip (0 for c = 0, T for c = points), and
        # whether it is a crossing, inside sample cell c - 1.
        self._flip_times = np.concatenate(([0.0], self.times))
        self._inner = np.ones(points + 1, dtype=bool)
        self._inner[0] = self._inner[-1] = False

    def probe(self, beta: float, costs: np.ndarray):
        """The spend at level beta, |dS/dbeta| there, and every channel's on-set {g_k > beta}.

        One scan of the padded rows, compared with the level as one flat
        array, finds every switch of every channel: its flips, in channel
        then time order, so they alternate on, off within each channel. The
        -inf pads are off at every level, so no flip spans two rows. A flip
        next to a pad is the time 0 or T, and every other flip is a
        crossing, refined by ``_crossings``. The on-sets come back flat, as
        ``(chan, starts, ends)`` with interval j of channel chan[j] being
        [starts[j], ends[j]], and the spend is sum_j costs[chan[j]]
        (ends[j] - starts[j]). dS/dbeta is -sum over crossings of costs_k /
        |g_k'|.

        Points with g_k(t) = beta are assigned off (the boundary set has
        measure zero under the no-singular-arc conditions, and a
        deterministic tie-break keeps outputs reproducible).
        """
        above = self._padded > beta
        # Flip c of a row lies between its padded columns c and c + 1.
        chan, col = np.divmod((above[1:] != above[:-1]).nonzero()[0], self.values.shape[1] + 2)
        times = self._flip_times[col]
        inner = self._inner[col]
        rate = 0.0
        if inner.any():
            cross = chan[inner]
            times[inner], inverse_slopes = self._crossings(cross, col[inner] - 1, beta)
            rate = float(costs[cross] @ inverse_slopes)
        chan, starts, ends = chan[::2], times[::2], times[1::2]
        return float(costs[chan] @ (ends - starts)), rate, (chan, starts, ends)

    def on_sets(self, events) -> list[tuple[tuple[float, float], ...]]:
        """Every channel's on-set as sorted disjoint intervals, from ``probe``'s flat form."""
        chan, starts, ends = events
        bounds = chan.searchsorted(np.arange(self.coeffs.shape[1] + 1)).tolist()
        pairs = list(zip(starts.tolist(), ends.tolist()))
        return [tuple(iv for iv in pairs[a:b] if iv[1] > iv[0]) for a, b in zip(bounds, bounds[1:])]

    def _crossings(self, chan, cell, beta) -> tuple[np.ndarray, np.ndarray]:
        """Crossings g_chan = beta inside the grid cells ``cell``, with 1 / |g'| at each.

        Each starts from the secant t0 through the grid values and takes one
        Newton step delta = -(g(t0) - beta) / g'(t0). On the cell, |g''| is
        at most M = sum_g |d_g| rate_g^2 exp(rate_g (t_hi - T)), t_hi the
        cell's upper end, since every rate is nonnegative. The step is
        accepted without a second evaluation when 4 M |delta| <= |g'(t0)|,
        eps = M delta^2 / |g'(t0)| <= 1e-12 * T and t1 = t0 + delta lies in
        the cell at least eps from its ends. Then a root lies within eps of
        t1: by Taylor |g(t1) - beta| <= M delta^2 / 2, and within 2 |delta|
        of t0 |g' - g'(t0)| <= 2 M |delta| <= |g'(t0)| / 2, so g is monotone
        there with |g'| >= |g'(t0)| / 2 and reaches beta within
        (M delta^2 / 2) / (|g'(t0)| / 2) = eps of t1 (eps <= |delta| / 4).
        So, up to the rounding of g, t1 is the cell's crossing to the
        1e-12 * T that ``_refine`` works to. Every crossing that fails the
        test goes on in ``_refine``, which is the only refinement loop; g'
        is then read where the refinement stopped.
        """
        ts, T = self.times, self.T
        upper = cell + 1
        lo, hi = ts[cell], ts[upper]
        vlo, vhi = self.values[chan, cell], self.values[chan, upper]
        t0 = lo + (hi - lo) * (vlo - beta) / (vlo - vhi)
        e = self._modes(np.concatenate((t0, hi)))
        n, m = t0.size, self.coeffs.shape[1]
        # One product: rows at t0 then at hi, columns g, g' and the
        # curvature bound of each channel; each crossing keeps its channel's.
        at = (e @ self.terms).reshape(2, n, 3, m)[:, np.arange(n), :, chan]
        value, slopes, curvature = at[:, 0, 0], at[:, 0, 1], at[:, 1, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (beta - value) / slopes
            size = np.abs(slopes)
            eps = curvature * step * step / size
            t = t0 + step
            good = 4.0 * curvature * np.abs(step) <= size
            good &= eps <= 1e-12 * T
            good &= lo + eps <= t
            good &= t <= hi - eps
            if not good.all():
                bad = np.flatnonzero(~good)
                t[bad], slopes[bad] = self._refine(
                    lo[bad], hi[bad], vlo[bad] > beta, chan[bad], beta, t0[bad], e[bad]
                )
                size = np.abs(slopes)
            return t, 1.0 / size

    def _modes(self, t: np.ndarray) -> np.ndarray:
        """exp(rate_g (t - T)) for each time in t (rows) and each group rate (columns)."""
        return np.exp(np.multiply.outer(t - self.T, self.rates))

    def _refine(self, lo, hi, above_lo, chan, beta, t, modes) -> tuple[np.ndarray, np.ndarray]:
        """Crossings g_chan = beta inside the cells [lo, hi], all refined together, with g' there.

        Safeguarded Newton on the closed form g' = sum_g d_g rate_g
        exp(rate_g (t - T)), started from the secant points t through the
        grid values, whose ``modes`` rows the caller has computed already;
        ``above_lo`` is the sign of g - beta at each lower end, from the
        grid. A step that leaves the cell's bracket, or that did not halve
        |g - beta|, is replaced by bisection. Each crossing stops once its
        step or its bracket is within 1e-12 * T, or once |g - beta| is within
        a few ulp of the sum of the magnitudes it is made of, sum_g |d_g
        exp(rate_g (t - T))| + |beta|: such a t is a root to rounding, and
        stepping on would only bisect away from it.
        """
        tol = 1e-12 * self.T
        ulps = _ROOT_ULPS * np.finfo(np.float64).eps
        slopes = np.zeros_like(t)
        last = np.full_like(t, np.inf)
        active = np.arange(t.size)
        e = modes
        for _ in range(CROSSING_MAX_ITERS):
            if active.size == 0:
                break
            ta = t[active]
            if e is None:
                e = self._modes(ta)
            coeffs = self.coeffs[:, chan[active]]
            f = np.einsum("cg,gc->c", e, coeffs) - beta
            fp = np.einsum("cg,gc->c", e, self.dcoeffs[:, chan[active]])
            root = np.abs(f) <= ulps * (np.einsum("cg,gc->c", e, np.abs(coeffs)) + abs(beta))
            e = None
            slopes[active] = fp
            keep_lo = (f > 0.0) == above_lo[active]
            a = np.where(keep_lo, ta, lo[active])
            b = np.where(keep_lo, hi[active], ta)
            lo[active], hi[active] = a, b
            with np.errstate(divide="ignore", invalid="ignore"):
                step = ta - f / fp
            newton = (a < step) & (step < b) & (np.abs(f) <= 0.5 * last[active])
            nxt = np.where(root, ta, np.where(newton, step, 0.5 * (a + b)))
            done = root | (np.abs(nxt - ta) <= tol) | (b - a <= tol)
            last[active] = np.abs(f)
            t[active] = nxt
            active = active[~done]
        return t, slopes

    def sampled_level(self, costs: np.ndarray, r: float, top: float) -> float:
        """The level in [0, top) where the spend of the strided samples crosses r; top > every sample, top > 0.

        The samples are every stride-th grid time, the stride being the least
        that keeps at most ``_LEVEL_SAMPLES`` of them over all channels. Each
        stands for c_k * dt of spend, dt the strided spacing. A histogram of
        ``_LEVEL_BINS`` equal bins on [0, top) weighted by those spends gives
        the sampled spend at every bin edge, hence the bin where it crosses r.
        Only that bin's samples are sorted: the level is the one at which
        their running spend, added to the spend above the bin, reaches r. It
        is a first guess, which the search checks with an exact spend.
        Returns 0.0 when even level 0 samples below r.
        """
        stride = -(-self.values.size // _LEVEL_SAMPLES)
        sample = self.values[:, ::stride]
        dt = stride * self.T / max(1, self.times.size - 1)
        # Bin b >= 1 holds [(b - 1) w, b w) with w = top / bins, and bin 0 every negative sample.
        scaled = sample * (_LEVEL_BINS / top)
        scaled += 1.0
        bins = np.maximum(scaled, 0.0, out=scaled).astype(np.intp).ravel()
        weights = (costs * dt).repeat(sample.shape[1])
        hist = np.bincount(bins, weights, minlength=_LEVEL_BINS + 1)
        above = hist[:0:-1].cumsum()  # sampled spend at each bin's lower edge, top bin first
        i = int(above.searchsorted(r))
        if i == above.size:
            return 0.0
        inside = bins == _LEVEL_BINS - i
        vals = sample[inside.reshape(sample.shape)]  # row-major, as the flat bins run
        order = vals.argsort()[::-1]
        spent = (above[i - 1] if i else 0.0) + weights[inside][order].cumsum()
        return float(vals[order[min(int(spent.searchsorted(r)), vals.size - 1)]])


def _find_level(grid: _SignalGrid, probe, costs: np.ndarray, r: float):
    """The level whose exact spend meets a binding budget r, with its on-sets in flat form.

    The search keeps a bracket lo < beta* < hi with spend(lo) > r >=
    spend(hi), starting from [0, max sample]. It first probes the grid's
    sampled level, then takes Newton steps from the probe closest to r, with
    dS/dbeta = -sum_k c_k sum_crossings 1/|g_k'|. A step that leaves the
    bracket, or follows a probe that did not halve |spend - r|, becomes a
    bisection step. ``probe(beta)`` returns the exact spend, |dS/dbeta| and
    the on-sets there.
    """
    lo = 0.0
    # spend(0) > r > 0 only if some sample lies above level 0, so hi > 0.
    hi = float(grid.values.max())
    hi += 1e-9 * max(1.0, abs(hi))
    tol = SPEND_REL_TOL * r
    beta = grid.sampled_level(costs, r, hi)
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


def _spend(costs, sets) -> float:
    return float(sum(c * sum(hi - lo for lo, hi in s) for c, s in zip(costs, sets)))


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
        grid = _SignalGrid(sd.group_rates[modes], signals[live][:, modes], T, _grid_points(problem.n))

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
    return coeffs, beta_star, schedule, _spend(costs, sets), tuple(trace)


def _certified(prep: Prepared, coeffs, beta_star, schedule, spend, trace) -> WaterfillSolution:
    """The certificate half of ``solve_with_costate``: gain, conditions and switch bounds.

    The conditions read the support masks from the projection that the
    schedule half read too. One pass per channel over its row of group
    coefficients, its conditions row and its realized switches: the
    support bound (``bounds.support_bound``) is read from the conditions'
    rank, and the row gives both variation bounds at the channel's
    threshold shift (``bounds._linear_bounds``), so no coefficient is
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
        shifted, sup = bounds._linear_bounds(row, shift)
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
