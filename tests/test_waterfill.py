import dataclasses
import functools
import json
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import K2, k2_problem, random_connected_graph, random_linear_problem
import oracles
from oracles import h_at
from waveplan import bounds, costate, graph, problem, sigmoid, waterfill
from waveplan.bundles import seven_agent_problem, seven_agent_sigmoid_problem
from waveplan.costate import projected_coefficients
from waveplan.dynamics import terminal_state
from waveplan.errors import ContractError, NumericalError
from waveplan.graph import build_laplacian, group_support, project, random_geometric_graph, spectral_decompose
from waveplan.oracle import EnumerationSpec, enumerate_best, grid_slack
from waveplan.problem import CampaignProblem, Channel, CostModel, Drift, Objective, prepare, problem_from_dict
from waveplan.sweep import default_radius
from waveplan.waterfill import solve

BETA_STAR_K2 = 0.5 - 0.5 * np.exp(-1.0)


def _k2_h(T=1.0):
    """The worked K2 channel's profile as (rates, row of group coefficients, horizon)."""
    sd = spectral_decompose(build_laplacian(K2))
    row = projected_coefficients(sd, np.array([0.0, 1.0]), project(sd, [[1.0, 0.0]]))[0]
    return sd.group_rates, row, T


def _constant(value, T=1.0):
    return np.array([0.0]), np.array([value]), T


def _g_row(row, ch):
    """A channel's signal g = h u_max / c(u_max) from its row of h, as ``_schedule`` scales it."""
    return row * (ch.u_max / ch.max_cost_rate)


class TestSignalScaling:
    def test_linear_cost_divides_by_v(self):
        ch = Channel(b=np.array([1.0, 0.0]), cost=CostModel("linear", 2.0), u_max=1.0)
        rates, row, T = _constant(1.0)
        assert h_at(rates, _g_row(row, ch), T, 0.3) == pytest.approx(0.5, abs=1e-15)

    def test_power_cost_scaling(self):
        ch = Channel(b=np.array([1.0, 0.0]), cost=CostModel("power", 1.0, 0.5), u_max=4.0)
        rates, row, T = _k2_h()
        # c(u_max) = 2, so g = (4/2) h = 2 h.
        ts = np.linspace(0, 1, 9)
        assert np.allclose(h_at(rates, _g_row(row, ch), T, ts), 2.0 * h_at(rates, row, T, ts), atol=1e-15)

    def test_late_limit_is_targeting_over_cost(self):
        rates, row, T = _k2_h()
        ch = Channel(b=np.array([1.0, 0.0]), cost=CostModel("linear", 1.0), u_max=1.0)
        p = np.array([0.0, 1.0])
        b = np.array([1.0, 0.0])
        assert h_at(rates, _g_row(row, ch), T, 1.0) == pytest.approx(float(p @ b) / 1.0, abs=1e-12)


def _on_set(rates, coeffs, T, beta):
    """The on-set {g > beta} of one signal from one probe of a grid that samples only it, as a schedule stores it."""
    grid = waterfill._SignalGrid(rates, coeffs[None, :], T)
    return waterfill.ChannelSchedule(1.0, grid.on_sets(grid.probe(beta, np.ones(1))[2])[0]).intervals


def _spend_for_beta(prob, beta):
    """Total spend at level beta >= 0: one probe of the grid ``_schedule`` samples (never-on channels spend 0)."""
    grid, live, costs = _live_grid(prob)
    return grid.probe(beta, costs)[0] if live else 0.0


class TestOnSet:
    def test_constant_above(self):
        assert _on_set(*_constant(1.0), 0.5) == ((0.0, 1.0),)

    def test_constant_below(self):
        assert _on_set(*_constant(1.0), 2.0) == ()

    def test_k2_halfway_level(self):
        prof = _k2_h()
        beta = h_at(*prof, 0.5)
        (interval,) = _on_set(*prof, beta)
        assert interval[0] == 0.0
        assert interval[1] == pytest.approx(0.5, abs=1e-9)

    def test_tie_break_excludes_boundary(self):
        # Constant signal exactly at the level: assigned off.
        assert _on_set(*_constant(0.5), 0.5) == ()

    def test_level_at_the_end_value_switches_at_the_end(self):
        # The K2 profile falls to its level at T. Off at T by the tie-break,
        # its crossing rounds to within 1e-12 T of T, which is T: the on-set
        # is the whole horizon, with no switch.
        prof = _k2_h()
        assert _on_set(*prof, h_at(*prof, 1.0)) == ((0.0, 1.0),)


class TestSpendForBeta:
    def test_above_peak_spends_nothing(self):
        assert _spend_for_beta(k2_problem(), 10.0) == 0.0

    def test_zero_level_spends_saturation(self):
        prob = CampaignProblem(
            graph=K2,
            channels=(Channel(b=np.array([1.0, 1.0]), cost=CostModel("linear", 2.0), u_max=1.0),),
            objective=Objective(kind="linear", p=np.array([0.5, 0.5])),
            T=1.0,
            r=0.5,
            x0=np.zeros(2),
        )
        assert _spend_for_beta(prob, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_k2_worked_level(self):
        assert _spend_for_beta(k2_problem(), BETA_STAR_K2) == pytest.approx(0.5, abs=1e-9)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            prob = random_linear_problem(rng, int(rng.integers(2, 7)))
            betas = np.sort(rng.uniform(0.0, 1.0, 5))
            spends = [_spend_for_beta(prob, float(b)) for b in betas]
            for lo, hi in zip(spends, spends[1:]):
                assert lo >= hi - 1e-12


class TestSolve:
    def test_k2_worked_case(self):
        sol = solve(k2_problem())
        assert sol.beta_star == pytest.approx(BETA_STAR_K2, abs=1e-9)
        (interval,) = sol.schedule.channels[0].intervals
        assert interval[0] == 0.0
        assert interval[1] == pytest.approx(0.5, abs=1e-9)
        assert sol.binding
        assert sol.spend == pytest.approx(0.5, abs=1e-6 * 0.5)

    def test_slack_budget_short_circuits(self):
        prob = CampaignProblem(
            graph=K2,
            channels=(Channel(b=np.array([1.0, 1.0]), cost=CostModel("linear", 1.0), u_max=1.0),),
            objective=Objective(kind="linear", p=np.array([0.5, 0.5])),
            T=1.0,
            r=5.0,
            x0=np.zeros(2),
        )
        sol = solve(prob)
        assert sol.beta_star == 0.0
        assert not sol.binding
        assert sol.schedule.channels[0].intervals == ((0.0, 1.0),)
        assert len(sol.bisection_trace) == 1

    def test_binding_budget_complementary_slackness(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            prob = random_linear_problem(rng, int(rng.integers(2, 8)), budget_fraction=0.5)
            sol = solve(prob)
            assert sol.spend <= prob.r * (1 + 1e-6)
            assert sol.binding == (sol.beta_star > 0.0)
            if sol.binding:
                assert abs(sol.spend - prob.r) <= 1e-6 * prob.r

    def test_bang_bang_purity(self):
        sol = solve(k2_problem())
        for cs, ch in zip(sol.schedule.channels, k2_problem().channels):
            assert cs.u_max == ch.u_max

    def test_rejects_sigmoid_objective(self):
        prob = CampaignProblem(
            graph=K2,
            channels=k2_problem().channels,
            objective=Objective(
                kind="sigmoid",
                p=np.array([0.0, 1.0]),
                alpha=np.array([1.0, 1.0]),
                theta=np.zeros(2),
            ),
            T=1.0,
            r=0.5,
            x0=np.zeros(2),
        )
        with pytest.raises(ContractError, match="solve_sigmoid"):
            solve(prob)

    def test_rejects_invalid_problem(self):
        from waveplan.errors import ValidationError

        with pytest.raises(ValidationError, match="budget"):
            solve(k2_problem(r=0.0))

    def test_flat_signal_binding_budget_diverges(self):
        # Constant comparison signal with a binding budget: spend jumps at the
        # level, so the bisection reports non-convergence instead of guessing.
        prob = CampaignProblem(
            graph=K2,
            channels=(Channel(b=np.array([1.0, 1.0]), cost=CostModel("linear", 1.0), u_max=1.0),),
            objective=Objective(kind="linear", p=np.array([0.5, 0.5])),
            T=1.0,
            r=0.5,
            x0=np.zeros(2),
        )
        with pytest.raises(NumericalError, match="bisection"):
            solve(prob)

    def test_invariance_to_x0_and_drift(self):
        rng = np.random.default_rng(40)
        prob = random_linear_problem(rng, 6)
        base = solve(prob)
        perturbed = CampaignProblem(
            graph=prob.graph,
            channels=prob.channels,
            objective=prob.objective,
            T=prob.T,
            r=prob.r,
            x0=rng.normal(size=6),
            drift=Drift(
                breakpoints=np.array([0.0, 0.4]), values=rng.normal(size=(2, 6))
            ),
        )
        again = solve(perturbed)
        assert again.beta_star == base.beta_star
        for a, b in zip(again.schedule.channels, base.schedule.channels):
            assert a.intervals == b.intervals

    def test_switch_conformance_small_random(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            prob = random_linear_problem(rng, int(rng.integers(2, 9)))
            sol = solve(prob)
            for cert in sol.certificate:
                assert cert.realized_switches <= cert.bound_linear_shifted
                assert cert.bound_linear_shifted <= prob.n - 1

    def test_trace_records_bisection(self):
        sol = solve(k2_problem())
        assert sol.bisection_trace[0][0] == 0.0
        assert len(sol.bisection_trace) >= 2
        assert sol.bisection_trace[-1][0] == sol.beta_star


class TestCertificateChecks:
    def test_switches_above_variation_bound_raise(self, monkeypatch):
        # The K2 schedule switches once; a bound of 0 must be reported, not
        # passed over.
        monkeypatch.setattr(bounds, "linear_bounds", lambda *args: (0, 0))
        with pytest.raises(NumericalError, match="variation bound"):
            solve(k2_problem())

    def test_group_coefficients_run_once_per_solve(self, monkeypatch):
        calls = []
        original = costate.projected_coefficients

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in (costate, waterfill):
            monkeypatch.setattr(module, "projected_coefficients", counting)
        solve(seven_agent_problem())
        assert len(calls) == 1

    def test_bounds_are_the_direct_bound_calls(self):
        # The certificate reads the solve's coefficient rows and conditions;
        # here each channel's bounds come from a projection of its own gain
        # vector. A zero-reach channel (sum b = 0) has no constant mode,
        # whose slot still carries the shift.
        rng = np.random.default_rng(31)
        zero_reach = 0
        for _ in range(200):
            prob = random_linear_problem(rng, int(rng.integers(2, 13)))
            b = prob.channels[0].b - np.mean(prob.channels[0].b)
            centered = dataclasses.replace(prob.channels[0], b=b)
            prob = dataclasses.replace(prob, channels=prob.channels + (centered,), r=1.5 * prob.r)
            sol = solve(prob)
            sd = spectral_decompose(build_laplacian(prob.graph))
            zero_reach += not group_support(sd, project(sd, b[None, :]))[0, 0]
            p = prob.objective.p
            for k, (ch, cert) in enumerate(zip(prob.channels, sol.certificate, strict=True), start=1):
                shift = sol.beta_star * ch.max_cost_rate / ch.u_max
                gains = project(sd, ch.b[None, :])
                assert cert.channel == k
                assert cert.threshold_shift == shift
                assert cert.bound_general == bounds.support_bound(np.count_nonzero(group_support(sd, gains)))
                shifted, sup = bounds.linear_bounds(costate.projected_coefficients(sd, p, gains)[0], shift)
                assert (cert.bound_linear_shifted, cert.bound_linear_sup) == (shifted, sup)
        assert zero_reach == 200

    def test_k2_certificate_at_the_water_level(self):
        # Coefficients (1/2, -1/2): at the level 0.316 the partial sums less
        # the shift are (+0.184, -0.316), one variation; b = (1, 0) reaches
        # both groups.
        (cert,) = solve(k2_problem()).certificate
        assert cert.threshold_shift == pytest.approx(BETA_STAR_K2)
        assert cert.realized_switches == 1
        assert (cert.bound_general, cert.bound_linear_shifted, cert.bound_linear_sup) == (1, 1, 1)

    @staticmethod
    def _zero_reach_k2(excess):
        """K2 with p = (1, 0) and b = (1, -1 + excess): h rises to 1 at T, so a binding level switches once."""
        return CampaignProblem(
            graph=K2,
            channels=(Channel(b=np.array([1.0, -1.0 + excess]), cost=CostModel("linear", 1.0), u_max=1.0),),
            objective=Objective(kind="linear", p=np.array([1.0, 0.0])),
            T=1.0,
            r=0.5,
            x0=np.zeros(2),
        )

    def test_support_bound_skipped_without_the_constant_mode(self):
        # Total reach 1e-11 clears the old rule |sum b| > 1e-12 * sum |b|, but
        # b's constant-mode projection is below 1e-10 * |b|: b reaches one
        # group, so the support bound 0 does not apply to its one switch.
        prob = self._zero_reach_k2(1e-11)
        sd = spectral_decompose(build_laplacian(K2))
        assert not group_support(sd, project(sd, prob.channels[0].b[None, :]))[0, 0]
        (cert,) = solve(prob).certificate
        assert (cert.realized_switches, cert.bound_general) == (1, 0)

    def test_support_bound_raise_follows_the_reach_decision(self, monkeypatch):
        # The same channel read as reaching the constant mode (and one other
        # group) is held to its support bound 0.
        monkeypatch.setattr(problem, "group_support", lambda sd, proj: np.array([[True, False]]))
        with pytest.raises(NumericalError, match="support bound 0"):
            solve(self._zero_reach_k2(1e-11))

    def test_certified_solve_decides_each_projection_once(self, monkeypatch):
        calls = {"project": 0, "group_support": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("project", "group_support"):
            wrapped = counting(name, getattr(graph, name))
            for module in (graph, costate, bounds, problem, waterfill):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        solve(seven_agent_problem())
        # One projection of the gains serves the coefficients and the support masks.
        assert calls == {"project": 1, "group_support": 1}


def _random_problem(rng, n, m):
    channels = []
    for _ in range(m):
        b = np.zeros(n)
        support = rng.choice(n, size=max(1, n // 2), replace=False)
        b[support] = rng.uniform(-1.0, 1.0, size=support.size)
        cost = CostModel("linear", float(rng.uniform(0.5, 2.0)))
        channels.append(Channel(b=b, cost=cost, u_max=float(rng.uniform(0.5, 2.0))))
    T = float(rng.uniform(0.5, 3.0))
    saturation = sum(ch.max_cost_rate for ch in channels) * T
    return CampaignProblem(
        graph=random_connected_graph(rng, n),
        channels=tuple(channels),
        objective=Objective(kind="linear", p=rng.uniform(0.0, 1.0, n)),
        T=T,
        r=float(rng.uniform(0.1, 1.2)) * saturation,
        x0=np.zeros(n),
    )


class TestEngineAgainstScalarSignals:
    def test_random_problems(self):
        # Every schedule is checked point by point against the scalar value
        # of its own closed-form signal.
        rng = np.random.default_rng(2024)
        for _ in range(30):
            prob = _random_problem(rng, int(rng.integers(2, 41)), int(rng.integers(1, 4)))
            T, r = prob.T, prob.r
            sol = solve(prob)
            beta = sol.beta_star
            sd = spectral_decompose(build_laplacian(prob.graph))
            _, signals = _signal_rows(prob, prob.objective.p, sd)
            for row, cs in zip(signals, sol.schedule.channels):
                g = lambda t: h_at(sd.group_rates, row, T, t)
                scale = float(np.max(np.abs(g(np.linspace(0.0, T, 2049)))))
                edges = [t for iv in cs.intervals for t in iv]
                for t in edges:
                    if 0.0 < t < T:
                        assert abs(g(t) - beta) <= 1e-9 * scale
                for lo, hi in cs.intervals:
                    assert g(0.5 * (lo + hi)) > beta
                gaps = zip([0.0] + edges[1::2], edges[::2] + [T])
                for lo, hi in gaps:
                    if hi > lo:
                        assert g(0.5 * (lo + hi)) <= beta
            pairs = zip(prob.channels, sol.schedule.channels)
            spend = sum(ch.max_cost_rate * cs.on_time for ch, cs in pairs)
            if sol.binding:
                assert abs(spend - r) <= 1e-9 * r
            else:
                assert beta == 0.0 and spend <= r


def _piece_rounds(run):
    """Run ``run()``; for every ``_crossings`` call it makes, its rounds, its pieces and each piece's proven bound.

    A round is one ``_modes`` call at the points of the unsettled pieces
    and one ``_at`` call on their channels, listed as (channels, points).
    A piece of width h > 1e-12 T, open or with one crossing, is settled
    within 1 + ceil(log(h / 1e-12 T) / log(8/7)) rounds.
    """
    calls = []
    crossings, modes, at = waterfill._SignalGrid._crossings, waterfill._SignalGrid._modes, waterfill._SignalGrid._at

    def counting(grid, chan, pieces, settled, beta):
        times, evaluations = [], []

        def counting_modes(self, t):
            times.append(t.tolist())
            return modes(self, t)

        def counting_at(self, chan, e, terms):
            evaluations.append((list(chan), terms))
            return at(self, chan, e, terms)

        with mock.patch.object(waterfill._SignalGrid, "_modes", counting_modes):
            with mock.patch.object(waterfill._SignalGrid, "_at", counting_at):
                out = crossings(grid, chan, pieces, settled, beta)
        # One evaluation of g, g' and M_k per round, at every point of the round.
        assert len(evaluations) == len(times)
        assert all(terms == 3 and len(c) == len(t) for (c, terms), t in zip(evaluations, times))
        widths = np.array([piece[1] - piece[0] for piece in pieces])
        assert np.all(widths > 1e-12 * grid.T)
        ratio = np.log(widths / (1e-12 * grid.T)) / np.log(8.0 / 7.0)
        bound = 1 + np.maximum(np.ceil(ratio), 0.0)
        rounds = [(c, t) for (c, _), t in zip(evaluations, times)]
        calls.append((rounds, list(chan), [tuple(piece) for piece in pieces], settled, bound))
        return out

    with mock.patch.object(waterfill._SignalGrid, "_crossings", counting):
        run()
    return calls


def _assert_within_proven_rounds(calls):
    """Each point of round k lies in a piece of its channel whose bound is at least k; a one-crossing piece has one point a round.

    A point on the shared end of two pieces is counted for neither's
    one-point rule. With one-crossing pieces only, no more points are
    evaluated in round k than pieces have a bound of at least k.
    """
    for rounds, chan, pieces, settled, bound in calls:
        for k, (evaluated, points) in enumerate(rounds, start=1):
            inside = np.zeros(len(pieces), dtype=int)
            for c, t in zip(evaluated, points):
                hosts = [i for i, (ch, piece) in enumerate(zip(chan, pieces)) if ch == c and piece[0] <= t <= piece[1]]
                assert any(bound[i] >= k for i in hosts)
                if len(hosts) == 1:
                    inside[hosts[0]] += 1
            assert np.all(inside[:settled] <= 1)
            if settled == len(pieces):
                assert len(points) <= np.count_nonzero(bound >= k)


def _recorded_modes(monkeypatch):
    """The times of every later ``_SignalGrid._modes`` call, one list per call."""
    calls = []
    modes = waterfill._SignalGrid._modes

    def recording(self, t):
        calls.append(t.tolist())
        return modes(self, t)

    monkeypatch.setattr(waterfill._SignalGrid, "_modes", recording)
    return calls


class TestExactRootCrossing:
    def test_start_on_a_root_is_certified_after_one_evaluation(self, monkeypatch):
        # g(t) = 1 - 0.5 exp(t - T) falls through beta = g(0.375). On the
        # piece [0.25, 0.5] with end values beta + 1, beta - 1 and the
        # chord's slope at both ends the cubic is the chord, so the start
        # is 0.375, where the Newton step is 0 and certified.
        grid = waterfill._SignalGrid(np.array([0.0, 1.0]), np.array([[1.0, -0.5]]), 1.0)
        beta, slope = grid._at([0], grid._modes(np.array([0.375])), 2)[:, 0].tolist()
        piece = (0.25, 0.5, beta + 1.0, beta - 1.0, -8.0, -8.0, 1.0)
        evaluated = _recorded_modes(monkeypatch)
        chan, keys, t, inverse_slopes = grid._crossings([0], [piece], 1, beta)
        assert evaluated == [[0.375]]
        assert chan == [0] and keys == [0.25]
        assert t[0] == 0.375 and inverse_slopes[0] == 1.0 / abs(slope)

    @pytest.mark.parametrize("beta, loose", [(0.55, False), (0.8, True)])
    def test_failed_rounds_shrink_their_piece_and_evaluate_no_point_twice(self, monkeypatch, beta, loose):
        # g(t) = 1 - 0.5 exp(t - 1) crosses beta at 1 + log(2 (1 - beta)).
        # On a one-cell grid the first start is too far off for the one-step
        # test, and several rounds split the piece before one is certified.
        # A curvature bound 1e30 times too large is still a bound, but it
        # certifies only a step of 0: then each round splits, and the
        # crossing is settled where the kept half is within 1e-12 T, within
        # the proven 1 + ceil(log(1e12) / log(8/7)) = 208 rounds.
        monkeypatch.setattr(waterfill, "_CELLS", 1)
        grid = waterfill._SignalGrid(np.array([0.0, 1.0]), np.array([[1.0, -0.5]]), 1.0)
        if loose:
            grid._terms[:, 2] *= 1e30
            grid._cells[6] *= 1e30
        assert grid.values[0, 0] > beta >= grid.values[0, 1]
        widths = []
        split = waterfill._split

        def recording_split(piece, t, *rest):
            widths.append(piece[1] - piece[0])
            return split(piece, t, *rest)

        rounds = _recorded_modes(monkeypatch)
        monkeypatch.setattr(waterfill, "_split", recording_split)
        _, _, t, _ = grid._crossings([0], grid._cells.T[:1].tolist(), 1, beta)
        evaluated = [point for points in rounds for point in points]
        assert abs(t[0] - (1.0 + np.log(2.0 * (1.0 - beta)))) <= 1e-12
        # One evaluation per round, and a split in every round but a
        # certified last one.
        assert len(widths) <= len(evaluated) - (not loose) <= len(widths)
        assert 4 <= len(evaluated) <= 208
        assert len(set(evaluated)) == len(evaluated)
        # From the second round on, each split leaves at most 7/8 of the piece.
        assert all(after <= 0.875 * before for before, after in zip(widths[1:], widths[2:]))

    def test_crossings_match_the_bisecting_reference(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            prob = _random_problem(rng, int(rng.integers(2, 41)), int(rng.integers(1, 4)))
            sol = solve(prob)
            grid, live, _ = _live_grid(prob)
            if not live:
                continue
            reference = _reference_crossings(grid, sol.beta_star)
            for k, ref in zip(live, reference):
                ends = [t for iv in sol.schedule.channels[k].intervals for t in iv if 0.0 < t < prob.T]
                assert len(ends) == len(ref)
                assert np.all(np.abs(np.array(ends) - ref) <= 1e-12 * prob.T)

    @pytest.mark.parametrize("cells", [waterfill._CELLS, 2, 1])
    def test_every_crossing_brackets_a_root(self, monkeypatch, cells):
        # Each crossing a probe returns, an accepted Newton step or a split
        # point whose kept half is within 1e-12 T, lies within 1e-12 T of a
        # root: g - beta changes sign (or vanishes) across that distance.
        monkeypatch.setattr(waterfill, "_CELLS", cells)
        rng = np.random.default_rng(7)
        crossings = 0
        for _ in range(30):
            prob = _random_problem(rng, int(rng.integers(2, 41)), int(rng.integers(1, 4)))
            grid, live, _ = _live_grid(prob)
            if not live:
                continue
            tol = 1e-12 * prob.T
            for beta in (0.0, float(np.median(grid.values)), float(np.percentile(grid.values, 90))):
                events = grid.probe(beta, np.ones(len(live)))[2]
                for k, t in enumerate(_interior_crossings(grid, beta, events)):
                    chan = np.full(t.size, k)
                    left = _signal(grid, chan, t - tol) - beta
                    right = _signal(grid, chan, t + tol) - beta
                    assert np.all(left * right <= 0.0)
                    crossings += t.size
        assert crossings > 0

    @pytest.mark.parametrize("cells", [waterfill._CELLS, 2, 1])
    def test_random_crossings_take_at_most_the_proven_rounds(self, monkeypatch, cells):
        monkeypatch.setattr(waterfill, "_CELLS", cells)
        rng = np.random.default_rng(11)

        def run():
            for _ in range(20):
                _solve_or_bracket(_random_problem(rng, int(rng.integers(2, 41)), int(rng.integers(1, 4))))

        calls = _piece_rounds(run)
        assert max(len(points) for rounds, *_ in calls for _, points in rounds) > 1
        # On one or two cells some calls bisect open cells; on 256 these draws meet none.
        assert any(settled < len(pieces) for _, _, pieces, settled, _ in calls) == (cells < 256)
        _assert_within_proven_rounds(calls)

    @pytest.mark.parametrize("cells", [waterfill._CELLS, 2, 1])
    @pytest.mark.parametrize("name", ["seed98", "seed131"])
    def test_hidden_pair_crossings_take_at_most_the_proven_rounds(self, monkeypatch, name, cells):
        monkeypatch.setattr(waterfill, "_CELLS", cells)
        calls = _piece_rounds(lambda: solve(_pinned_problem("hidden_pairs", name)))
        _assert_within_proven_rounds(calls)


def _signal(grid, chan, t):
    return np.einsum("cg,gc->c", np.exp(np.multiply.outer(t - grid.T, grid.rates)), grid.coeffs[:, chan])


def _signal_rows(prob, lam, sd):
    """Every channel's group coefficients of h and of its signal g, as ``_schedule`` forms them."""
    coeffs = projected_coefficients(sd, lam, project(sd, [ch.b for ch in prob.channels]))
    kappa = np.array([ch.u_max / ch.max_cost_rate for ch in prob.channels])
    return coeffs, coeffs * kappa[:, None]


def _live_grid(prob):
    """The grid ``_schedule`` samples: the live channels' signals, with their indices and costs.

    The grid is None when no channel is live.
    """
    sd = spectral_decompose(build_laplacian(prob.graph))
    coeffs, signals = _signal_rows(prob, prob.objective.p, sd)
    live = [k for k, row in enumerate(signals) if np.any(np.cumsum(row) > 0.0)]
    modes = np.any(coeffs[live] != 0.0, axis=0)
    grid = waterfill._SignalGrid(sd.group_rates[modes], signals[live][:, modes], prob.T) if live else None
    return grid, live, np.array([prob.channels[k].max_cost_rate for k in live])


def _closed_form(grid, coeffs, t):
    """sum_g coeffs[g, c] exp(rate_g (t[c] - T)): channel c's function at its own time t[c]."""
    return np.einsum("cg,gc->c", np.exp(np.multiply.outer(t - grid.T, grid.rates)), coeffs)


def _bisect(flag, lo, hi, steps=50):
    """Where the boolean ``flag`` changes in each bracket [lo, hi], bisected ``steps`` times; flag(lo) != flag(hi)."""
    start = flag(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        same = flag(mid) == start
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=4)
def _extremes(grid):
    """Each channel's interior extremes: the sign changes of g' on 4,097 uniform times, bisected to 1e-15 T."""
    ts = np.linspace(0.0, grid.T, 4097)
    rising = np.exp(np.multiply.outer(ts - grid.T, grid.rates)) @ grid.dcoeffs > 0.0
    out = []
    for k in range(grid.coeffs.shape[1]):
        cell = np.flatnonzero(rising[1:, k] != rising[:-1, k])
        dcoeffs = grid.dcoeffs[:, np.full(cell.size, k)]
        out.append(_bisect(lambda t: _closed_form(grid, dcoeffs, t) > 0.0, ts[cell], ts[cell + 1]))
    return out


def _reference_crossings(grid, beta):
    """Each channel's crossings of beta, found apart from the engine and its samples.

    Between consecutive interior extremes of g (``_extremes``), and the
    ends, g is monotone, so such a stretch holds one crossing when g lies
    on different sides of beta at its ends (g = beta is off) and none
    otherwise; each crossing is bisected to 1e-15 T. A close pair of
    crossings has an extreme between them, which the scan of g' finds
    unless g' itself has two zeros within one scan step.
    """
    out = []
    for k, extremes in enumerate(_extremes(grid)):
        ends = np.concatenate(([0.0], extremes, [grid.T]))
        on = _closed_form(grid, grid.coeffs[:, np.full(ends.size, k)], ends) > beta
        flip = np.flatnonzero(on[1:] != on[:-1])
        coeffs = grid.coeffs[:, np.full(flip.size, k)]
        out.append(_bisect(lambda t: _closed_form(grid, coeffs, t) > beta, ends[flip], ends[flip + 1]))
    return out


@st.composite
def whole_problems(draw, desk=False):
    """Linear-objective problems: m 1-8, T 0.05-20, binding and slack budgets, linear and power costs.

    Most have n 2-40 on a random connected graph; about one in six has n
    2-400 on a geometric graph at the sweep radius. With ``desk`` every
    problem has n 2-8 and m 1-2 on a random connected graph, the oracle's
    sizes.
    """
    geometric = not desk and draw(st.sampled_from((False,) * 5 + (True,)))
    n = draw(st.integers(2, 8 if desk else 400 if geometric else 40))
    m = draw(st.integers(1, 2 if desk else 8))
    T = draw(st.floats(0.05, 20.0))
    budget = draw(st.floats(0.05, 1.5))  # of the saturation spend; above 1 the budget is slack
    power = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = []
    for _ in range(m):
        b = np.zeros(n)
        support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        b[support] = rng.uniform(-1.0, 1.0, support.size)
        a = float(rng.uniform(0.3, 1.0)) if power else 1.0
        cost = CostModel("power" if power else "linear", float(rng.uniform(0.5, 2.0)), a)
        channels.append(Channel(b=b, cost=cost, u_max=float(rng.uniform(0.5, 2.0))))
    saturation = sum(ch.max_cost_rate for ch in channels) * T
    if geometric:
        g = random_geometric_graph(n, default_radius(n), int(rng.integers(0, 2**31)))[0]
    else:
        g = random_connected_graph(rng, n)
    return CampaignProblem(
        graph=g,
        channels=tuple(channels),
        objective=Objective(kind="linear", p=rng.uniform(0.0, 1.0, n)),
        T=T,
        r=budget * saturation,
        x0=np.zeros(n),
    )


@st.composite
def problems_with_state_and_drift(draw):
    """A ``whole_problems`` problem with a random x0 and a drift of 1-3 pieces on [0, T)."""
    prob = draw(whole_problems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = draw(st.integers(1, 3))
    breakpoints = np.concatenate(([0.0], np.sort(rng.uniform(0.0, prob.T, pieces - 1))))
    drift = Drift(breakpoints=breakpoints, values=rng.normal(0.0, 1.0, (pieces, prob.n)))
    return dataclasses.replace(prob, x0=rng.normal(0.0, 1.0, prob.n), drift=drift)


def _solve_or_bracket(prob):
    """``solve(prob)``, or None where it raises the long-horizon failure.

    In that failure no float level meets r, so the bracket shrank to
    adjacent floats. Any other NumericalError is raised as it is.
    """
    try:
        return solve(prob)
    except NumericalError as err:
        bracket = re.search(r"bracket \[(\S+), (\S+)\]", str(err))
        if bracket is None:
            raise
        lo, hi = map(float, bracket.groups())
        assert hi <= np.nextafter(lo, np.inf)
        return None


def _check_gain_and_invariance(prob):
    """The solve of prob equals the solve without x0 and drift, and its gain is p @ x(T) without them.

    The gain is compared with the terminal state of the problem with x0 = 0
    and zero drift, where it is all of p @ x(T). A difference of two
    terminal states with x0 and drift would cancel their O(1) parts and
    leave rounding far above a small gain's 1e-9.
    """
    sol = _solve_or_bracket(prob)
    still = dataclasses.replace(prob, x0=np.zeros(prob.n), drift=Drift.zero(prob.n))
    base = _solve_or_bracket(still)
    assert (sol is None) == (base is None)
    if sol is None:
        return
    assert (sol.schedule, sol.beta_star, sol.certificate) == (base.schedule, base.beta_star, base.certificate)
    # The closed-form gain sums h over the on-intervals in the group
    # coefficients; terminal_state integrates the eigenmodes of x.
    gain = float(prob.objective.p @ terminal_state(still, sol.schedule))
    assert sol.objective_gain == pytest.approx(gain, rel=1e-9, abs=0.0)


class TestEndToEndInvariants:
    @settings(max_examples=40, deadline=None)
    @given(problems_with_state_and_drift())
    def test_gain_is_the_terminal_state_gain_and_x0_and_drift_change_nothing(self, prob):
        _check_gain_and_invariance(prob)

    def test_small_gain_next_to_a_large_terminal_state(self):
        # The draw of hypothesis seed 132: a 3.75e-8 gain, while x0 and the
        # drift move x(T) by O(1).
        _check_gain_and_invariance(_pinned_problem("small_gain", "seed132"))


class TestOracleWithinGridSlack:
    """The solve and the enumeration oracle agree within ``grid_slack``, both ways."""

    @staticmethod
    def _check(prob, grid, sol):
        res = enumerate_best(prob, EnumerationSpec(switch_grid=grid))
        slack = grid_slack(prob, grid)
        rounding = 1e-12 * max(1.0, abs(sol.objective_gain))
        assert sol.objective_gain >= res.value - slack
        assert res.value >= sol.objective_gain - slack - rounding

    # m <= 2 and grids up to 10 keep the candidates under MAX_CANDIDATES.
    @settings(max_examples=100, deadline=None)
    @given(whole_problems(desk=True), st.integers(2, 10))
    def test_oracle_is_within_grid_slack_of_the_solve(self, prob, grid):
        sol = _solve_or_bracket(prob)
        if sol is not None:
            self._check(prob, grid, sol)

    @pytest.mark.parametrize("grid", [4, 8, 16])
    def test_zero_reach_channel_is_within_grid_slack(self, grid):
        # The channel's one switch, at T/2, is over its support bound 0: the
        # default cap turns it off, and the slack is its whole gain 0.316.
        prob = TestCertificateChecks._zero_reach_k2(1e-11)
        self._check(prob, grid, solve(prob))


# Allowance of the Lagrangian cross-check, relative to its scale M + beta * c T:
# M = sum_k u_k sum_g |d_kg| T bounds every gain, and beta * c T, with
# c T = sum_k c_k T, every level times spend. Gains and spends are sums of
# fewer than a thousand terms, so their rounding is below 1e-12 of that
# scale. A crossing of one solve placed within 1e-12 T of its root, where
# g_k = beta_1, moves that schedule's value on the other Lagrangian by at
# most c_k |beta_1 - beta_2| 1e-12 T. 1e-9 leaves room for a thousand of each.
_LAGRANGIAN_TOL = 1e-9


class TestLagrangianCrossCheck:
    @settings(max_examples=30, deadline=None)
    @given(whole_problems(), st.floats(0.05, 1.5))
    def test_each_schedule_beats_the_other_on_its_own_lagrangian(self, prob, fraction):
        # Solve i's schedule maximises G - beta_i S over all schedules, so
        # G_1 - beta_1 s_1 >= G_2 - beta_1 s_2 and the same with 1 and 2
        # swapped: beta_2 (s_2 - s_1) <= G_2 - G_1 <= beta_1 (s_2 - s_1),
        # with s_i and G_i solve i's own spend and gain, not r_i. Adding the
        # two sides gives (beta_1 - beta_2)(s_2 - s_1) >= 0: beta* does not
        # rise with the spend. The second budget is a fraction of the first
        # solve's spend; a budget above the level-0 spend is slack at level
        # 0, and a pair of those checks nothing.
        first = _solve_or_bracket(prob)
        if first is None or first.spend == 0.0:
            return
        second = _solve_or_bracket(dataclasses.replace(prob, r=fraction * first.spend))
        if second is None:
            return
        prep = problem.prepare(prob)
        coeffs = costate.projected_coefficients(prep.sd, prob.objective.p, prep.gains)
        gains = sum(ch.u_max * float(np.abs(row).sum()) for ch, row in zip(prob.channels, coeffs)) * prob.T
        beta_1, beta_2 = first.beta_star, second.beta_star
        saturation = sum(ch.max_cost_rate for ch in prob.channels) * prob.T
        tol = _LAGRANGIAN_TOL * (gains + max(beta_1, beta_2) * saturation)
        ds, dg = second.spend - first.spend, second.objective_gain - first.objective_gain
        assert beta_2 * ds - tol <= dg <= beta_1 * ds + tol
        assert (beta_1 - beta_2) * ds >= -2.0 * tol


# g - beta is computed to within this many ulp of the magnitudes it is made of.
_ROOT_ULPS = 4


def _root_spread(grid, k, t, beta):
    """How far apart two roots of g_k = beta at t can lie when each is a root to rounding.

    Where |g - beta| is within ``_ROOT_ULPS`` ulp of the magnitudes g is
    made of, t is a root to rounding; so two such roots can differ by
    twice that rounding over |g'|. It is far below 1e-12 T unless g is
    nearly flat at the level.
    """
    e = np.exp(np.multiply.outer(t - grid.T, grid.rates))
    magnitude = e @ np.abs(grid.coeffs[:, k]) + abs(beta)
    rounding = _ROOT_ULPS * np.finfo(np.float64).eps * magnitude
    with np.errstate(divide="ignore"):
        return 2.0 * rounding / np.abs(e @ grid.dcoeffs[:, k])


def _interior_crossings(grid, beta, events):
    """Each channel's crossing times from a probe's flat on-sets, without the ends 0 and T."""
    chan, starts, ends = events
    out = []
    for k, vals in enumerate(grid.values):
        times = np.column_stack((starts[chan == k], ends[chan == k])).ravel()
        out.append(times[int(vals[0] > beta) : times.size - int(vals[-1] > beta)])
    return out


def _recorded_tails(run):
    """``run()``, with every probe it made as (grid, beta, costs, output) and every ``_crossings`` call as (grid, chan, pieces, settled, beta, output)."""
    probes, crossings = [], []
    probe, refine = waterfill._SignalGrid.probe, waterfill._SignalGrid._crossings

    def recording_probe(grid, beta, costs):
        out = probe(grid, beta, costs)
        probes.append((grid, beta, costs, out))
        return out

    def recording_crossings(grid, chan, pieces, settled, beta):
        call = (grid, list(chan), [tuple(piece) for piece in pieces], settled, beta)
        out = refine(grid, chan, pieces, settled, beta)
        crossings.append(call + (out,))
        return out

    with mock.patch.object(waterfill._SignalGrid, "probe", recording_probe):
        with mock.patch.object(waterfill._SignalGrid, "_crossings", recording_crossings):
            return run(), probes, crossings


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


def _assert_tails_match_the_reference(probes, crossings):
    """Every probe's spend, |dS/dbeta| and on-sets, and every crossing time and 1 / |g'|, equal the vectorised reference's bit for bit."""
    for grid, beta, costs, (spend, rate, events) in probes:
        ref_spend, ref_rate, ref_events = oracles.reference_probe(grid, beta, costs)
        assert _bits(spend, rate) == _bits(ref_spend, ref_rate)
        for ours, ref in zip(events, ref_events, strict=True):
            assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()
    for grid, chan, pieces, settled, beta, out in crossings:
        _assert_loop_matches_the_reference(grid, chan, pieces, settled, beta, out)


def _assert_loop_matches_the_reference(grid, chan, pieces, settled, beta, out):
    """One ``_crossings`` call's channels, keys, times and 1 / |g'| equal, bit for bit, ``oracles._reference_isolate`` on its open pieces followed by ``oracles.reference_crossings``.

    The open pieces must be whole cells of the grid, as the reference
    isolates cells.
    """
    cells = grid.values.shape[1] - 1
    open_chan = np.array(chan[settled:], dtype=np.intp)
    open_cell = grid.times.searchsorted([piece[0] for piece in pieces[settled:]])
    assert np.array(pieces[settled:]).tobytes() == grid._cells[:, open_chan * cells + open_cell].T.tobytes()
    ref_chan, ref_pieces = np.array(chan[:settled], dtype=np.intp), np.array(pieces[:settled]).reshape(-1, 7).T
    if open_chan.size:
        fine_chan, fine_pieces = oracles._reference_isolate(grid, open_chan, open_cell, beta)
        ref_chan = np.concatenate((ref_chan, fine_chan))
        ref_pieces = np.concatenate((ref_pieces, fine_pieces), axis=1)
    ref_found, ref_inverse_slopes = oracles.reference_crossings(grid, ref_chan, ref_pieces, beta)
    found_chan, keys, found, inverse_slopes = out
    assert found_chan == ref_chan.tolist() and _bits(*keys) == ref_pieces[0].tobytes()
    assert _bits(*found) == ref_found.tobytes() and _bits(*inverse_slopes) == ref_inverse_slopes.tobytes()


def _check_probes_and_budget(prob):
    """Every probe against the vectorised reference and its crossings against the independent one, then the budget; returns the solution."""
    sol, probes, crossings = _recorded_tails(lambda: _solve_or_bracket(prob))
    _assert_tails_match_the_reference(probes, crossings)
    for grid, beta, costs, (spend, _, events) in probes:
        on_times = [sum(hi - lo for lo, hi in s) for s in grid.on_sets(events)]
        assert spend == pytest.approx(float(np.dot(costs, on_times)), rel=1e-12, abs=0.0)
        reference = _reference_crossings(grid, beta)
        crossings = _interior_crossings(grid, beta, events)
        for k, (times, ref) in enumerate(zip(crossings, reference, strict=True)):
            assert times.size == ref.size
            assert np.all(np.abs(times - ref) <= 1e-12 * prob.T + _root_spread(grid, k, ref, beta))
    if sol is not None and sol.binding:
        assert abs(sol.spend - prob.r) <= waterfill.SPEND_REL_TOL * prob.r
    elif sol is not None:
        assert sol.beta_star == 0.0 and sol.spend <= prob.r
    return sol


class TestProbe:
    @settings(max_examples=40, deadline=None)
    @given(whole_problems())
    def test_spend_crossings_and_budget(self, prob):
        _check_probes_and_budget(prob)

    @pytest.mark.parametrize("cells", [1, 2])
    @settings(max_examples=15, deadline=None)
    @given(prob=whole_problems())
    def test_spend_crossings_and_budget_on_one_or_two_cells(self, cells, prob):
        # Every cell's crossing count is proven, so no count rests on the
        # grid size: on one or two cells nearly every probe bisects.
        with mock.patch.object(waterfill, "_CELLS", cells):
            _check_probes_and_budget(prob)

    def test_bundle_solves_take_at_most_four_probes(self, monkeypatch):
        traces = []

        def recording(*args):
            draft = waterfill._schedule(*args)
            traces.append(draft[4])
            return draft

        assert len(solve(seven_agent_problem()).bisection_trace) <= 4
        monkeypatch.setattr(sigmoid, "_schedule", recording)
        sigmoid.solve_sigmoid(seven_agent_sigmoid_problem())
        assert len(traces) == 2
        assert all(len(trace) <= 4 and trace[-1][0] > 0.0 for trace in traces)


def _pinned_problem(stem, name):
    """Problem ``name`` of ``tests/<stem>.json``, which stores every float as ``float.hex``."""

    def unhex(x):
        if isinstance(x, dict):
            return {key: unhex(v) for key, v in x.items()}
        if isinstance(x, list):
            return [unhex(v) for v in x]
        return float.fromhex(x) if isinstance(x, str) and "0x" in x else x

    pinned = json.loads((Path(__file__).parent / f"{stem}.json").read_text())
    return problem_from_dict(unhex(pinned[name]))


class TestHiddenPairs:
    """Two ``whole_problems`` draws (hypothesis seeds 98 and 131) whose level search meets a close pair of crossings.

    Near the water level, channel 1 dips below it for 1e-5 to 1.3e-4 T, so
    the pair can lie inside one cell. A fixed grid of 4,096 samples saw no
    sign change there and lost both crossings, so the spend jumped as the
    dip appeared and the search stopped on adjacent floats.
    """

    @pytest.mark.parametrize("cells", [waterfill._CELLS, 1, 2])
    @pytest.mark.parametrize("name, dip", [("seed98", 0.27955), ("seed131", 0.82411)])
    def test_both_crossings_are_found(self, name, dip, cells):
        prob = _pinned_problem("hidden_pairs", name)
        with mock.patch.object(waterfill, "_CELLS", cells):
            sol = _check_probes_and_budget(prob)
        assert sol is not None and sol.binding
        ends = [t for iv in sol.schedule.channels[0].intervals for t in iv if 0.0 < t < prob.T]
        assert len([t for t in ends if abs(t - dip) < 1e-4]) == 2


@st.composite
def degenerate_pieces(draw):
    """A grid, a level, one-crossing pieces that share one of the cases where a scalar division could fail, and open cells.

    - ``flat``: a constant signal, so g' = 0 at every evaluated point;
    - ``cubic``: g' = 0 at both ends and g = beta at lo, so the cubic's
      slope at the secant start s = 0 is 0;
    - ``narrow``: no wider than 1e-12 T;
    - ``end``: g(t) = 1 - exp(t - T) / 2 crosses beta within 1e-12 T of
      0 or T, inside the grid's first or last cell.

    The first three draw their end values and slopes on their own; a
    piece's ends lie on different sides of beta, as the probe hands them on.
    Up to two of the grid's cells are drawn as open pieces as well, the
    first or last cell (which holds the ``end`` crossing) more often than
    the others.
    """
    kind = draw(st.sampled_from(["flat", "cubic", "narrow", "end"]))
    T = draw(st.floats(0.05, 20.0))
    if kind == "end":
        grid = waterfill._SignalGrid(np.array([0.0, 1.0]), np.array([[1.0, -0.5]]), T)
        near_T = draw(st.booleans())
        root = T * (1.0 - draw(st.floats(0.0, 1e-12))) if near_T else T * draw(st.floats(0.0, 1e-12))
        beta = grid._at([0], grid._modes(np.array([root])), 1)[0, 0].item()
        pieces = [grid._cells[:, -1 if near_T else 0].tolist()]
    else:
        if kind == "flat":
            grid = waterfill._SignalGrid(np.array([0.0]), np.array([[draw(st.floats(-2.0, 2.0))]]), T)
        else:
            coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
            grid = waterfill._SignalGrid(np.array([0.0, 1.0, 2.0]), np.array([coeffs]), T)
        beta = draw(st.floats(-2.0, 2.0))
        pieces = []
        for _ in range(draw(st.integers(1, 3))):
            lo = T * draw(st.floats(0.0, 1.0))
            width = T * (draw(st.floats(0.0, 1e-12)) if kind == "narrow" else draw(st.floats(0.0, 1.0)))
            on, off = beta + draw(st.floats(1e-9, 4.0)), beta - draw(st.floats(0.0, 4.0))
            dlo, dhi, bound = draw(st.floats(-8.0, 8.0)), draw(st.floats(-8.0, 8.0)), draw(st.floats(0.0, 64.0))
            if kind == "cubic":
                on, off, dlo, dhi = beta, on, 0.0, 0.0  # g = beta at lo is off
            vlo, vhi = (on, off) if draw(st.booleans()) else (off, on)
            pieces.append((lo, min(lo + width, T), vlo, vhi, dlo, dhi, bound))
    assume(all(lo < hi and (vlo > beta) != (vhi > beta) for lo, hi, vlo, vhi, *_ in pieces))
    last = grid.values.shape[1] - 2
    cell = st.one_of(st.sampled_from([0, last]), st.integers(0, last))
    return grid, beta, pieces, draw(st.lists(cell, max_size=2, unique=True))


class TestScalarTail:
    """The probe's tail on Python floats against its vectorised reference (``oracles.reference_probe``)."""

    @pytest.mark.parametrize("workload", ["desk", "rgg_mid", "sigmoid"])
    def test_every_probe_of_a_seed_1_benchmark_ladder(self, monkeypatch, workload):
        # The benchmark's own instances; its oracle and sweep ops make no probe.
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        import workloads

        ops = [op for op in workloads.WORKLOADS[workload](1) if op.kind in ("solve", "sigmoid")]
        _, probes, crossings = _recorded_tails(lambda: [op.run() for op in ops])
        assert probes and crossings
        _assert_tails_match_the_reference(probes, crossings)

    @settings(max_examples=200, deadline=None)
    @given(degenerate_pieces())
    def test_degenerate_pieces_neither_raise_nor_warn(self, case):
        grid, beta, settled, cells = case
        pieces = settled + grid._cells.T[cells].tolist()
        chan = [0] * len(pieces)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = grid._crossings(chan, pieces, len(settled), beta)
        _assert_loop_matches_the_reference(grid, chan, pieces, len(settled), beta, out)
        found, fine = out[2][: len(settled)], out[2][len(settled) :]
        assert all(lo <= t <= hi or t in (0.0, grid.T) for t, (lo, hi, *_) in zip(found, settled))
        assert all(any(lo <= t <= hi for lo, hi, *_ in pieces[len(settled) :]) or t in (0.0, grid.T) for t in fine)


class TestSharedDecomposition:
    def test_prepared_problem_gives_the_same_solution(self):
        prob = random_linear_problem(np.random.default_rng(8), 12)
        lam = prob.objective.p
        assert waterfill.solve_with_costate(prepare(prob), lam) == waterfill.solve_with_costate(prob, lam)


class TestCostateContract:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ContractError, match="costate has shape"):
            waterfill.solve_with_costate(k2_problem(), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # A NaN costate used to return every channel off; an infinite one leaked a RuntimeWarning.
        with pytest.raises(ContractError, match="costate has non-finite entries"):
            waterfill.solve_with_costate(k2_problem(), np.array([0.5, bad]))


def _schedule_every_channel_on_the_grid(prep, lam):
    """``_schedule`` with every channel sampled, never-on ones included: the reference for the skip."""
    problem, sd = prep.problem, prep.sd
    T, r = problem.T, problem.r
    coeffs, signals = _signal_rows(problem, lam, sd)
    modes = np.any(coeffs != 0.0, axis=0)
    grid = waterfill._SignalGrid(sd.group_rates[modes], signals[:, modes], T)
    costs = np.array([ch.max_cost_rate for ch in problem.channels])
    trace = []

    def probe(beta):
        out = grid.probe(beta, costs)
        trace.append((beta, out[0]))
        return out

    spend, _, events = probe(0.0)
    beta_star = 0.0
    if spend > r:
        beta_star, events = waterfill._find_level(grid, probe, costs, r)
    sets = grid.on_sets(events)
    schedule = waterfill.BangBangSchedule(
        channels=tuple(
            waterfill.ChannelSchedule(u_max=ch.u_max, intervals=s) for ch, s in zip(problem.channels, sets)
        )
    )
    spend = float(sum(c * cs.on_time for c, cs in zip(costs, schedule.channels)))
    return coeffs, beta_star, schedule, spend, tuple(trace)


def _assert_same_solution(sol, ref, prob):
    """Equal certificates and interval counts; level within 1e-8, crossings within 1e-8 T, spends within tolerance."""
    assert sol.binding == ref.binding
    assert sol.beta_star == pytest.approx(ref.beta_star, rel=1e-8)
    assert sol.spend == pytest.approx(ref.spend, rel=2 * waterfill.SPEND_REL_TOL)
    for cs, rs in zip(sol.schedule.channels, ref.schedule.channels, strict=True):
        assert len(cs.intervals) == len(rs.intervals)
        assert np.all(np.abs(np.ravel(cs.intervals) - np.ravel(rs.intervals)) <= 1e-8 * prob.T)
    for cert, rc in zip(sol.certificate, ref.certificate, strict=True):
        assert cert.threshold_shift == pytest.approx(rc.threshold_shift, rel=1e-8)
        assert cert == dataclasses.replace(rc, threshold_shift=cert.threshold_shift)


def _k2_channels(*gains):
    return tuple(Channel(b=np.array(b), cost=CostModel("linear", 1.0), u_max=1.0) for b in gains)


class TestNeverOnChannels:
    # On K2 with p = (0, 1), b = (1, 0) has coefficients (1/2, -1/2) over
    # rates (0, 2): partial sums (1/2, 0), so it can be on. b = (-1, -1/2)
    # has (-3/4, 1/4), partial sums (-3/4, -1/2): g <= -1/2 everywhere.
    # b = (0, -1) has (-1/2, -1/2), partial sums (-1/2, -1).
    LIVE, NEVER, NEVER_TOO = (1.0, 0.0), (-1.0, -0.5), (0.0, -1.0)

    @staticmethod
    def _problem(channels, r):
        return CampaignProblem(
            graph=K2,
            channels=channels,
            objective=Objective(kind="linear", p=np.array([0.0, 1.0])),
            T=1.0,
            r=r,
            x0=np.zeros(2),
        )

    @staticmethod
    def _grid_sizes(monkeypatch):
        sizes = []

        class Recording(waterfill._SignalGrid):
            def __init__(self, rates, rows, T):
                sizes.append(len(rows))
                super().__init__(rates, rows, T)

        monkeypatch.setattr(waterfill, "_SignalGrid", Recording)
        return sizes

    @pytest.mark.parametrize(
        "gains, r, sampled",
        [
            ((LIVE, NEVER), 5.0, [1]),  # slack: the live channel runs all of [0, 1)
            ((NEVER, LIVE), 0.5, [1]),  # binding at the K2 worked level
            ((NEVER, NEVER_TOO), 0.5, []),  # nothing can be on: slack at level 0
        ],
    )
    def test_equals_the_every_channel_reference(self, monkeypatch, gains, r, sampled):
        prob = self._problem(_k2_channels(*gains), r)
        with monkeypatch.context() as patch:
            patch.setattr(waterfill, "_schedule", _schedule_every_channel_on_the_grid)
            reference = solve(prob)
        sizes = self._grid_sizes(monkeypatch)
        sol = solve(prob)
        assert sizes == sampled
        # A never-on channel's samples are <= 0, so they leave the sampled
        # level alone, and its empty on-set leaves every probe's spend and
        # slope alone: the probes and the solution are the reference's.
        assert sol == reference
        never = [k for k, b in enumerate(gains) if b != self.LIVE]
        for k in never:
            assert sol.schedule.channels[k].intervals == ()
            assert sol.certificate[k].realized_switches == 0
        if not sampled:
            assert (sol.beta_star, sol.spend, sol.bisection_trace) == (0.0, 0.0, ((0.0, 0.0),))
        elif r == 0.5:
            assert sol.binding and sol.beta_star == pytest.approx(BETA_STAR_K2, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.0, 50.0, allow_subnormal=False), min_size=1, max_size=8, unique=True),
        st.lists(st.floats(-5.0, 0.0, allow_subnormal=False), min_size=8, max_size=8),
        st.floats(0.1, 5.0),
    )
    def test_no_positive_partial_sum_means_never_above_zero(self, rates, partials, T):
        # Abel summation: g(t) = sum_j P_j (w_j - w_{j+1}) with w_j =
        # exp(rate_j (t - T)) nonincreasing in j and w_G = 0, so P_j <= 0
        # for every j gives g <= 0 on [0, T], up to the rounding of the sum:
        # about one ulp of the terms' magnitude per term.
        rates = np.sort(rates)
        coeffs = np.diff(np.concatenate(([0.0], partials[: rates.size])))
        ts = np.linspace(0.0, T, 2001)
        terms = np.abs(coeffs) * np.exp(np.multiply.outer(ts - T, rates))
        rounding = rates.size * np.finfo(np.float64).eps * terms.sum(axis=1)
        assert np.all(h_at(rates, coeffs, T, ts) <= rounding)


def _chord_spend(grid, costs, beta):
    """The spend at level beta of the chords between the grid's samples: the reference for ``interpolated_level``."""
    v = grid.values
    low, high = np.minimum(v[:, :-1], v[:, 1:]), np.maximum(v[:, :-1], v[:, 1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        above = np.where(high > low, np.clip((high - beta) / (high - low), 0.0, 1.0), low > beta)
    return float(costs @ above.sum(axis=1)) * grid.T / (v.shape[1] - 1)


def _bisected_level(self, costs, r):
    """The level where the chord spend meets r, by bisection of ``_chord_spend``: the reference first guess."""
    lo, hi = float(self.values.min()) - 1.0, self.top
    if _chord_spend(self, costs, lo) < r:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if _chord_spend(self, costs, mid) > r else (lo, mid)
    return hi


class TestInterpolatedLevel:
    def test_level_is_where_the_chord_spend_meets_r(self):
        # The chord spend is nonincreasing in the level, so the level is
        # right when the spend is at least r just below it and at most r
        # just above it (each to the rounding of the sums).
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(200):
            prob = random_linear_problem(rng, int(rng.integers(2, 30)), budget_fraction=float(rng.uniform(0.05, 1.2)))
            grid, live, costs = _live_grid(prob)
            if not live:
                continue
            level = grid.interpolated_level(costs, prob.r)
            tol = 1e-9 * prob.r
            if _chord_spend(grid, costs, -np.inf) < prob.r:
                assert level == 0.0
                continue
            assert _chord_spend(grid, costs, np.nextafter(level, -np.inf)) >= prob.r - tol
            assert _chord_spend(grid, costs, np.nextafter(level, np.inf)) <= prob.r + tol
            checked += 1
        assert checked >= 100

    def test_solves_do_not_depend_on_the_first_guess(self, monkeypatch):
        # The first guess only starts the search: with a bisected guess in
        # its place, the solves agree to the search's tolerance.
        rng = np.random.default_rng(77)
        binding = 0
        for _ in range(6):
            prob = random_linear_problem(rng, int(rng.integers(130, 201)), geometric=True, budget_fraction=0.15)
            with monkeypatch.context() as patch:
                patch.setattr(waterfill._SignalGrid, "interpolated_level", _bisected_level)
                reference = solve(prob)
            sol = solve(prob)
            binding += sol.binding
            _assert_same_solution(sol, reference, prob)
        assert binding >= 3  # the first guess is read only for a binding budget


class TestSolveMemory:
    def test_peak_is_the_arrays_a_solve_holds(self):
        # n = 200, m = 8: while sampling, a solve holds the n x n
        # eigenvectors, the (K + 1) x G modal block (G <= n) and one
        # temporary of its size, and the grid's samples, piece rows and
        # padded rows, about 12 floats per cell and channel. Every other
        # array of a solve is far smaller.
        rng = np.random.default_rng(3)
        n, m = 200, 8
        g, _ = random_geometric_graph(n, default_radius(n), 11)
        channels = []
        for _ in range(m):
            b = np.zeros(n)
            support = rng.choice(n, size=n // 3, replace=False)
            b[support] = rng.uniform(-1.0, 1.0, support.size)
            channels.append(Channel(b=b, cost=CostModel("linear", 1.0), u_max=1.0))
        prob = CampaignProblem(
            graph=g,
            channels=tuple(channels),
            objective=Objective(kind="linear", p=rng.uniform(0.0, 1.0, n)),
            T=1.0,
            r=0.3 * m,
            x0=np.zeros(n),
        )
        points = waterfill._CELLS + 1
        bound = 8 * (n * n + 2 * points * n + 12 * m * points)
        solve(prob)
        tracemalloc.start()
        try:
            sol = solve(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.binding
        assert peak < bound, (peak, bound)
