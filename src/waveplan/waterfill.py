"""Exact linear-objective allocation by a bracketed search on the water level beta.

A channel runs flat out wherever its cost-normalized signal g_i(t) =
h_i(t) * u_max_i / c_i(u_max_i) sits above the water level, and is off
elsewhere. Total spend is monotone nonincreasing in the level. A slack
budget short-circuits to level zero by complementary slackness. Otherwise
one weighted sort of at most ``_BRACKET_SAMPLES`` evenly strided grid samples
brackets the level that meets the budget, exact spends confirm the bracket,
and safeguarded Newton steps on the spend, falling back to bisection, find
the level.

A channel whose coefficients, summed in ascending-rate order, have no
positive partial sum P_j is never on and is left off the grid. By Abel
summation g(t) = sum_j P_j (w_j - w_{j+1}) with w_j = exp(rate_j (t - T))
nonincreasing in j on [0, T] and w_G = 0, so such a g is <= 0 <= beta at
every time and every level: its on-set is empty and it adds no spend.

One engine serves every level probe, ``on_set`` and ``spend_for_beta``:
the G x m matrix of cost-normalized group coefficients, one modal block
exp((t - T) * rate) evaluated per solve on a shared grid, and vectorized
safeguarded Newton refinement of all crossings of all channels together.
A sign change between two samples is always a true crossing, so a scan can
exceed the certificate's switch bounds only through rounding, which a finer
grid does not remove: the grid has one fixed size (``_grid_points``), is
compared with each level once and is never refined.

``solve_with_costate`` builds the schedule (``_schedule``) and then its
certificate (``_certified``); the sigmoid loop runs the first half on every
iterate and the second once, on the iterate it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .costate import ChannelProfile, channel_profile
from .dynamics import closed_form_gain
from .errors import ContractError, NumericalError
from .graph import SpectralDecomposition, build_laplacian, spectral_decompose
from .problem import CampaignProblem, Channel, check_conditions, require_valid

BISECTION_MAX_ITERS = 200
CROSSING_MAX_ITERS = 100
# A crossing is a root once |g - beta| is this many ulp of its terms' magnitude.
_ROOT_ULPS = 4
SPEND_REL_TOL = 1e-9
# Entries of one row block of the modal grid; bounds the grid's working memory.
_GRID_BLOCK_ENTRIES = 1 << 16
# Most grid samples the level bracket sorts; larger grids are read at a stride.
_BRACKET_SAMPLES = 8192


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


def threshold_profile(profile: ChannelProfile, ch: Channel) -> ChannelProfile:
    """Scale h into the comparison signal g(t) = h(t) * u_max / c(u_max).

    For linear cost this is h(t) / v. The result is a profile again, so it
    evaluates like any other scalar function of t.
    """
    kappa = ch.u_max / ch.max_cost_rate
    return ChannelProfile(
        horizon=profile.horizon,
        rates=profile.rates,
        coeffs=kappa * profile.coeffs,
        dropped=profile.dropped,
    )


def _grid_points(n: int) -> int:
    """Samples per signal for a problem on n agents: 4096, or 64 per agent above 64 agents."""
    return max(4096, 64 * n)


def _sample_signals(
    rates: np.ndarray, coeffs: np.ndarray, T: float, points: int
) -> tuple[np.ndarray, np.ndarray]:
    """A uniform grid on [0, T] and every channel's signal on it, shape (m, points).

    The modal block exp((t - T) * rate) is taken in row blocks of fixed size
    as exp((t - t_e) * rate) * exp((t_e - T) * rate), with t_e the last time
    of the block. The first factor is the same for every block and is
    computed once; the second folds into the coefficients. So each block
    costs G exponentials and one matrix product, memory stays O(block * G),
    and both factors are at most 1, so nothing overflows.
    """
    ts = np.linspace(0.0, T, points)
    dt = T / max(1, points - 1)
    rows = max(1, min(points, _GRID_BLOCK_ENTRIES // max(1, rates.size)))
    offsets = np.exp(np.multiply.outer(rates, np.arange(1 - rows, 1) * dt))
    out = np.empty((coeffs.shape[1], points))
    for stop in range(points, 0, -rows):
        start = max(0, stop - rows)
        anchored = coeffs * np.exp((ts[stop - 1] - T) * rates)[:, None]
        out[:, start:stop] = anchored.T @ offsets[:, rows - (stop - start) :]
    return ts, out


class _SignalGrid:
    """The cost-normalized signals g_k of several channels, sampled once on a shared grid.

    ``rates`` is the union of the channels' group rates and ``coeffs`` the
    G x m matrix of their coefficients, 0 where a channel dropped a mode.
    The samples supply signs and brackets only: ``on_sets`` compares them
    with the level, takes each crossing's grid cell and the signs at the
    cell ends, then refines the crossing on the closed form.
    """

    def __init__(self, gs: list[ChannelProfile], T: float, points: int) -> None:
        self.T = float(T)
        self.rates = np.unique(np.concatenate([g.rates for g in gs]))
        self.coeffs = np.zeros((self.rates.size, len(gs)))
        for k, g in enumerate(gs):
            self.coeffs[np.searchsorted(self.rates, g.rates), k] = g.coeffs
        self.dcoeffs = self.coeffs * self.rates[:, None]  # coefficients of g'
        self.times, self.values = _sample_signals(self.rates, self.coeffs, self.T, points)

    def on_sets(self, beta: float) -> tuple[list[tuple[tuple[float, float], ...]], np.ndarray]:
        """Every channel's region {t : g_k(t) > beta}, and the sum of 1/|g_k'| over its crossings.

        Points with g_k(t) = beta are assigned off (the boundary set has
        measure zero under the no-singular-arc conditions, and a
        deterministic tie-break keeps outputs reproducible).
        """
        ts = self.times
        scans, cells = [], []
        for k, above in enumerate(self.values > beta):
            vals = self.values[k]
            idx = np.flatnonzero(above[:-1] != above[1:])
            scans.append((bool(above[0]), above[idx].tolist()))
            cells.append((ts[idx], ts[idx + 1], vals[idx], vals[idx + 1], np.full(idx.size, k)))
        lo, hi, vlo, vhi, chan = (np.concatenate(col) for col in zip(*cells))
        crossings, slopes = self._refine(lo, hi, vlo, vhi, chan, beta)
        with np.errstate(divide="ignore"):
            inverse = np.bincount(chan, 1.0 / np.abs(slopes), minlength=len(scans))
        sets, pos = [], 0
        for on_at_start, falling in scans:
            intervals: list[tuple[float, float]] = []
            start = 0.0 if on_at_start else None
            for c, fall in zip(crossings[pos : pos + len(falling)].tolist(), falling):
                if fall:
                    intervals.append((start, c))
                    start = None
                else:
                    start = c
            if start is not None:
                intervals.append((start, self.T))
            pos += len(falling)
            sets.append(tuple(iv for iv in intervals if iv[1] > iv[0]))
        return sets, inverse

    def _refine(self, lo, hi, vlo, vhi, chan, beta) -> tuple[np.ndarray, np.ndarray]:
        """Crossings g_chan = beta inside the cells [lo, hi], all refined together, with g' there.

        Safeguarded Newton on the closed form g' = sum_g d_g rate_g
        exp(rate_g (t - T)), started from the secant through the grid values.
        A step that leaves the cell's bracket, or that did not halve
        |g - beta|, is replaced by bisection. The sign at the lower end comes
        from the grid. Each crossing stops once its step or its bracket is
        within 1e-12 * T, or once |g - beta| is within a few ulp of the sum of
        the magnitudes it is made of, sum_g |d_g exp(rate_g (t - T))| + |beta|:
        such a t is a root to rounding, and stepping on would only bisect away
        from it.
        """
        tol = 1e-12 * self.T
        ulps = _ROOT_ULPS * np.finfo(np.float64).eps
        above_lo = vlo > beta
        t = lo + (hi - lo) * (vlo - beta) / (vlo - vhi)
        slopes = np.zeros_like(t)
        last = np.full_like(t, np.inf)
        active = np.arange(t.size)
        for _ in range(CROSSING_MAX_ITERS):
            if active.size == 0:
                break
            ta = t[active]
            e = np.exp(np.multiply.outer(ta - self.T, self.rates))
            coeffs = self.coeffs[:, chan[active]]
            f = np.einsum("cg,gc->c", e, coeffs) - beta
            fp = np.einsum("cg,gc->c", e, self.dcoeffs[:, chan[active]])
            root = np.abs(f) <= ulps * (np.einsum("cg,gc->c", e, np.abs(coeffs)) + abs(beta))
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

    def level_bracket(self, costs: np.ndarray, r: float) -> tuple[float, float]:
        """Two levels on either side of where the sampled spend crosses r.

        The samples are every stride-th grid time, the stride being the least
        that keeps at most ``_BRACKET_SAMPLES`` of them over all channels.
        Each stands for c_k * dt of spend, dt the strided spacing, so one
        sort of the samples gives the sampled spend at every level. Its error
        is about c_k * dt per crossing of channel k, so the levels sit that
        far (plus two samples per channel) to either side of r. The bracket
        is a guess: exact spends confirm it.
        """
        stride = -(-self.values.size // _BRACKET_SAMPLES)
        sample = self.values[:, ::stride]
        dt = stride * self.T / max(1, self.times.size - 1)
        vals = sample.ravel()
        order = np.argsort(vals)[::-1]
        sampled = np.cumsum(np.repeat(costs * dt, sample.shape[1])[order])
        last = vals.size - 1
        level = vals[order[min(int(np.searchsorted(sampled, r)), last)]]
        above = sample > level
        crossings = np.count_nonzero(above[:, 1:] != above[:, :-1], axis=1)
        slack = dt * float(costs @ (crossings + 2))
        i_lo = min(int(np.searchsorted(sampled, r + slack)) + 1, last)
        i_hi = min(int(np.searchsorted(sampled, r - slack)), last)
        return float(vals[order[i_lo]]), float(vals[order[i_hi]])


def _find_level(grid: _SignalGrid, spend_at, costs: np.ndarray, r: float):
    """The level whose exact spend meets a binding budget r, with its on-sets and spend.

    The search keeps a bracket lo < beta* < hi with spend(lo) > r >
    spend(hi), starting from [0, max sample]. It first probes the two
    levels of the grid's bracket, then takes Newton steps from the probe
    closest to r, with dS/dbeta = -sum_k c_k sum_crossings 1/|g_k'|. A step
    that leaves the bracket, or follows a probe that did not halve
    |spend - r|, becomes a bisection step. ``spend_at(beta)`` returns the
    on-sets, the exact spend and |dS/dbeta| there.
    """
    lo = 0.0
    # spend(0) > r > 0 only if some sample lies above level 0, so hi > 0.
    hi = float(np.max(grid.values))
    hi += 1e-9 * max(1.0, abs(hi))
    tol = SPEND_REL_TOL * r
    probes = list(grid.level_bracket(costs, r))
    best = None  # (|spend - r|, beta, spend, |dS/dbeta|) of the probe closest to r
    stalled = False
    spend = float("nan")
    for _ in range(BISECTION_MAX_ITERS):
        probing = bool(probes)
        if probing:
            beta = probes.pop()
            if not lo < beta < hi:
                continue
        else:
            beta = 0.5 * (lo + hi)
            if best is not None and not stalled and best[3] > 0.0:
                step = best[1] + (best[2] - r) / best[3]
                if lo < step < hi:
                    beta = step
            if not lo < beta < hi:
                break
        sets, spend, rate = spend_at(beta)
        gap = abs(spend - r)
        if gap <= tol:
            return beta, sets, spend
        if spend > r:
            lo = beta
        else:
            hi = beta
        stalled = not probing and best is not None and gap > 0.5 * best[0]
        if best is None or gap < best[0]:
            best = (gap, beta, spend, rate)
    raise NumericalError(
        "water-level bisection did not converge: bracket "
        f"[{lo:.17g}, {hi:.17g}], spend at last iterate {spend:.17g}, budget {r:.17g}; "
        "the spend curve may jump here (flat comparison signal at the level)"
    )


def on_set(g: ChannelProfile, beta: float, T: float) -> tuple[tuple[float, float], ...]:
    """The region {t in [0, T] : g(t) > beta} as disjoint sorted intervals.

    One scan of 4096 samples against beta, followed by Newton refinement of
    each crossing to 1e-12 * T. Points with g(t) = beta are assigned off.
    """
    if beta < 0.0:
        raise ContractError(f"water level must be nonnegative, got {beta}")
    sets, _ = _SignalGrid([g], T, _grid_points(0)).on_sets(beta)
    return sets[0]


def _spend(costs, sets) -> float:
    return float(sum(c * sum(hi - lo for lo, hi in s) for c, s in zip(costs, sets)))


def spend_for_beta(problem: CampaignProblem, profiles: list[ChannelProfile], beta: float) -> float:
    """Total budget burned at water level beta: sum of c_i(u_max_i) times on-time."""
    gs = [threshold_profile(profile, ch) for profile, ch in zip(profiles, problem.channels)]
    sets, _ = _SignalGrid(gs, problem.T, _grid_points(problem.n)).on_sets(beta)
    return _spend([ch.max_cost_rate for ch in problem.channels], sets)


def _schedule(problem: CampaignProblem, lam: np.ndarray, sd: SpectralDecomposition):
    """The schedule half of ``solve_with_costate``, before any certificate.

    Returns the channel profiles, the water level, the schedule, its spend
    and the (level, spend) trace of every level probed. Only the channels
    with a positive partial coefficient sum are sampled; the others are
    never on (see the module docstring). With none sampled the budget is
    slack at level 0.
    """
    T, r = problem.T, problem.r
    profiles = [channel_profile(sd, lam, ch.b, T) for ch in problem.channels]
    gs = [threshold_profile(pr, ch) for pr, ch in zip(profiles, problem.channels)]
    live = [k for k, g in enumerate(gs) if np.any(np.cumsum(g.coeffs) > 0.0)]
    grid = _SignalGrid([gs[k] for k in live], T, _grid_points(problem.n)) if live else None
    costs = np.array([problem.channels[k].max_cost_rate for k in live])
    trace: list[tuple[float, float]] = []

    def spend_at(beta: float):
        sets, inverse_slopes = grid.on_sets(beta) if grid is not None else ([], np.zeros(0))
        spend = _spend(costs, sets)
        trace.append((beta, spend))
        return sets, spend, float(costs @ inverse_slopes)

    sets, spend, _ = spend_at(0.0)
    beta_star = 0.0
    if spend > r:
        beta_star, sets, spend = _find_level(grid, spend_at, costs, r)

    on = dict(zip(live, sets))
    schedule = BangBangSchedule(
        channels=tuple(
            ChannelSchedule(u_max=ch.u_max, intervals=on.get(k, ()))
            for k, ch in enumerate(problem.channels)
        )
    )
    return profiles, beta_star, schedule, spend, tuple(trace)


def _certified(problem, lam, sd, profiles, beta_star, schedule, spend, trace) -> WaterfillSolution:
    """The certificate half of ``solve_with_costate``: gain, conditions and switch bounds.

    One pass per channel over its conditions row and realized switches: the
    support bound is the conditions' rank less one, and one ``bound_linear``
    call at the channel's threshold shift gives both variation bounds.
    Raises NumericalError when a channel switches more often than a bound
    that applies to it allows.
    """
    gain = closed_form_gain(profiles, schedule)
    certificate = []
    rows = zip(problem.channels, check_conditions(problem, sd), schedule.switch_counts(problem.T))
    for ch, cond, realized in rows:
        shift = beta_star * ch.max_cost_rate / ch.u_max
        shifted, sup = bounds.bound_linear(sd, lam, ch.b, shift)
        general = max(0, cond.controllability_rank - 1)
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


def solve_with_costate(
    problem: CampaignProblem,
    lam: np.ndarray,
    sd: SpectralDecomposition | None = None,
) -> WaterfillSolution:
    """Water-filling against an explicit terminal costate vector, with its certificate.

    This is the shared engine: the linear objective passes lam = p, the
    sigmoid loop passes its surrogate costates. Nothing here reads x0 or the
    drift, which is what makes linear-objective schedules invariant to both.
    Pass ``sd`` to reuse a decomposition of the problem's Laplacian across
    calls.
    """
    require_valid(problem)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (problem.n,):
        raise ContractError(f"costate has shape {lam.shape}, expected ({problem.n},)")
    if sd is None:
        sd = spectral_decompose(build_laplacian(problem.graph))
    return _certified(problem, lam, sd, *_schedule(problem, lam, sd))


def solve(problem: CampaignProblem) -> WaterfillSolution:
    """Exact optimal schedule for the separable linear objective.

    Raises ContractError for other objective kinds; the sigmoid surrogate
    loop lives in the sigmoid module.
    """
    if problem.objective.kind != "linear":
        raise ContractError(
            "water-filling solve requires the linear objective; use solve_sigmoid "
            "for the sigmoid kind"
        )
    return solve_with_costate(problem, problem.objective.p)
