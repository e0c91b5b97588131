import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import K2, k2_problem, random_connected_graph, random_linear_problem
from waveplan.costate import integrate_h, projected_coefficients
from waveplan.dynamics import _grid, closed_form_gain, objective_value, simulate, terminal_state
from waveplan.errors import ContractError, ValidationError
from waveplan.graph import WeightedGraph, build_laplacian, project, spectral_decompose
from waveplan.oracle import EnumerationSpec, enumerate_best
from waveplan.problem import CampaignProblem, Channel, CostModel, Drift, Objective, prepare
from waveplan.waterfill import BangBangSchedule, ChannelSchedule, solve

SEVEN_P = np.array([0.03, 0.02, 0.10, 1.00, 0.06, 0.07, 0.01])


def _empty_schedule(problem):
    return BangBangSchedule(
        channels=tuple(ChannelSchedule(u_max=ch.u_max, intervals=()) for ch in problem.channels)
    )


class TestSimulate:
    def test_k2_free_consensus_closed_form(self):
        prob = CampaignProblem(
            graph=K2,
            channels=k2_problem().channels,
            objective=Objective(kind="linear", p=np.array([0.0, 1.0])),
            T=1.0,
            r=0.5,
            x0=np.array([1.0, 0.0]),
        )
        traj = simulate(prob, _empty_schedule(prob), steps=4096)
        t = traj.times
        expected = 0.5 * np.ones((t.size, 2)) + 0.5 * np.exp(-2 * t)[:, None] * np.array([1.0, -1.0])
        assert np.max(np.abs(traj.states - expected)) <= 1e-8

    def test_mean_conserved_without_control(self):
        rng = np.random.default_rng(12)
        g = random_connected_graph(rng, 9)
        prob = CampaignProblem(
            graph=g,
            channels=(Channel(b=np.eye(9)[0], cost=CostModel("linear", 1.0), u_max=1.0),),
            objective=Objective(kind="linear", p=np.ones(9)),
            T=1.0,
            r=0.5,
            x0=rng.normal(size=9),
        )
        traj = simulate(prob, _empty_schedule(prob), steps=256)
        means = traj.states.mean(axis=1)
        assert np.max(np.abs(means - means[0])) <= 1e-10

    def test_consensus_decay_rate(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 6)
        sd = spectral_decompose(build_laplacian(g))
        xi2 = sd.eigenvalues[1]
        x0 = rng.normal(size=6)
        prob = CampaignProblem(
            graph=g,
            channels=(Channel(b=np.eye(6)[0], cost=CostModel("linear", 1.0), u_max=1.0),),
            objective=Objective(kind="linear", p=np.ones(6)),
            T=1.0,
            r=0.5,
            x0=x0,
        )
        traj = simulate(prob, _empty_schedule(prob), steps=512)
        dev0 = np.linalg.norm(x0 - x0.mean())
        for i, t in enumerate(traj.times):
            dev = np.linalg.norm(traj.states[i] - traj.states[i].mean())
            assert dev <= dev0 * np.exp(-xi2 * t) * (1 + 1e-6)

    def test_step_halving_fourth_order(self):
        prob = k2_problem()
        sol = solve(prob)
        ref = simulate(prob, sol.schedule, steps=2**16).terminal_state
        errs = []
        for steps in (128, 256, 512, 1024):
            xT = simulate(prob, sol.schedule, steps=steps).terminal_state
            errs.append(np.max(np.abs(xT - ref)))
        for e_coarse, e_fine in zip(errs, errs[1:]):
            if e_fine < 1e-12:
                break
            assert e_coarse / e_fine >= 8.0

    def test_spend_accumulates_exactly(self):
        prob = k2_problem()
        sol = solve(prob)
        traj = simulate(prob, sol.schedule, steps=128)
        assert traj.spend_accum[-1] == pytest.approx(sol.spend, abs=1e-9 * prob.r)
        assert np.all(np.diff(traj.spend_accum) >= -1e-15)

    def test_drift_applied(self):
        prob = CampaignProblem(
            graph=K2,
            channels=k2_problem().channels,
            objective=Objective(kind="linear", p=np.array([0.0, 1.0])),
            T=1.0,
            r=0.5,
            x0=np.zeros(2),
            drift=Drift(breakpoints=np.array([0.0, 0.5]), values=np.array([[1.0, 1.0], [0.0, 0.0]])),
        )
        traj = simulate(prob, _empty_schedule(prob), steps=256)
        # Uniform drift of 1 for half the horizon shifts every opinion by 0.5.
        assert np.allclose(traj.terminal_state, [0.5, 0.5], atol=1e-10)

    def test_rejects_too_few_steps(self):
        prob = k2_problem()
        with pytest.raises(ContractError, match="64"):
            simulate(prob, _empty_schedule(prob), steps=32)

    @pytest.mark.parametrize("steps", [10**11, 10**30])
    def test_rejects_a_step_count_whose_trajectory_passes_2_gib(self, steps):
        # Rejected before the time grid is formed.
        prob = k2_problem()
        with pytest.raises(ContractError, match=f"steps {steps} is too large: .*2 GiB"):
            simulate(prob, _empty_schedule(prob), steps=steps)

    @pytest.mark.parametrize("steps", [200.0, 256.5, True, "256", None])
    def test_rejects_a_step_count_that_is_not_an_integer(self, steps):
        prob = k2_problem()
        with pytest.raises(ContractError, match="steps must be an integer"):
            simulate(prob, _empty_schedule(prob), steps=steps)

    def test_accepts_a_numpy_integer_step_count(self):
        prob = k2_problem()
        ref = simulate(prob, _empty_schedule(prob), steps=128)
        assert np.array_equal(simulate(prob, _empty_schedule(prob), steps=np.int64(128)).states, ref.states)

    def test_seven_agent_terminal_golden(self):
        from waveplan.bundles import seven_agent_problem

        prob = seven_agent_problem()
        sol = solve(prob)
        golden = np.array(
            [
                2.3619777422490276,
                3.1238236662240424,
                2.8573148110632536,
                3.290117120789129,
                2.6107096823922142,
                2.794988642761829,
                2.6235863975689133,
            ]
        )
        xT = simulate(prob, sol.schedule, steps=4096).terminal_state
        assert np.max(np.abs(xT - golden)) <= 1e-8


class TestObjectiveValue:
    def test_linear_sum_of_weights(self):
        obj = Objective(kind="linear", p=SEVEN_P)
        assert objective_value(obj, np.ones(7)) == pytest.approx(1.29, abs=1e-12)

    def test_sigmoid_midpoint(self):
        obj = Objective(kind="sigmoid", p=SEVEN_P, alpha=np.full(7, 2.0), theta=np.linspace(-1, 1, 7))
        assert objective_value(obj, np.linspace(-1, 1, 7)) == pytest.approx(1.29 / 2, abs=1e-12)

    def test_sigmoid_saturation(self):
        obj = Objective(kind="sigmoid", p=SEVEN_P, alpha=np.full(7, 2.0), theta=np.zeros(7))
        assert objective_value(obj, np.full(7, 1e6)) == pytest.approx(1.29, abs=1e-12)


def _rows(sd, lam, gains):
    """The group-coefficient rows of the channels with the given gain vectors."""
    return projected_coefficients(sd, np.asarray(lam, dtype=np.float64), project(sd, [np.asarray(b) for b in gains]))


class TestGrid:
    @settings(max_examples=500, deadline=None)
    @given(
        T=st.one_of(
            st.floats(0.0, 1e6, exclude_min=True),
            # Subnormal horizons: T / cells underflows to 0 once cells > 2 k.
            st.integers(1, 64).map(lambda k: k * 5e-324),
        ),
        cells=st.integers(1, 4096),
    )
    @example(T=1.0, cells=256)
    @example(T=5e-324, cells=4)
    @example(T=3e-320, cells=4096)
    def test_equals_linspace_bit_for_bit(self, T, cells):
        assert _grid(T, cells).tobytes() == np.linspace(0.0, T, cells + 1).tobytes()


class TestClosedFormGain:
    def _k2_rows(self):
        sd = spectral_decompose(build_laplacian(K2))
        return sd.group_rates, _rows(sd, [0.0, 1.0], [[1.0, 0.0]])

    def test_empty_schedule_zero(self):
        prob = k2_problem()
        assert closed_form_gain(*self._k2_rows(), 1.0, _empty_schedule(prob)) == 0.0

    def test_rejects_a_row_count_other_than_the_channel_count(self):
        rates, coeffs = self._k2_rows()
        schedule = _empty_schedule(k2_problem())
        for bad in (np.vstack([coeffs, coeffs]), coeffs[:, :1], coeffs[0]):
            with pytest.raises(ContractError, match="one row per schedule channel"):
                closed_form_gain(rates, bad, 1.0, schedule)

    def test_constant_h_rectangle(self):
        rng = np.random.default_rng(1)
        g = random_connected_graph(rng, 5)
        sd = spectral_decompose(build_laplacian(g))
        b = rng.uniform(-1, 1, 5)
        coeffs = _rows(sd, np.full(5, 0.3), [b])
        schedule = BangBangSchedule(channels=(ChannelSchedule(u_max=1.5, intervals=((0.0, 2.0),)),))
        expected = 1.5 * coeffs[0, 0] * 2.0
        assert closed_form_gain(sd.group_rates, coeffs, 2.0, schedule) == pytest.approx(expected, abs=1e-12)

    def test_k2_hand_integral(self):
        # Integral of 1/2 - (1/2) e^{2(t-1)} over [0, 1/2] equals
        # 1/4 - (e^{-1} - e^{-2}) / 4.
        schedule = BangBangSchedule(channels=(ChannelSchedule(u_max=1.0, intervals=((0.0, 0.5),)),))
        expected = 0.25 - (np.exp(-1.0) - np.exp(-2.0)) / 4.0
        assert closed_form_gain(*self._k2_rows(), 1.0, schedule) == pytest.approx(expected, abs=1e-14)

    def test_matches_simulation_differencing(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            prob = random_linear_problem(rng, int(rng.integers(2, 7)))
            sol = solve(prob)
            sd = spectral_decompose(build_laplacian(prob.graph))
            coeffs = _rows(sd, prob.objective.p, [ch.b for ch in prob.channels])
            gain = closed_form_gain(sd.group_rates, coeffs, prob.T, sol.schedule)
            with_u = simulate(prob, sol.schedule, steps=8192).terminal_state
            without_u = simulate(prob, _empty_schedule(prob), steps=8192).terminal_state
            diff = float(prob.objective.p @ (with_u - without_u))
            assert diff == pytest.approx(gain, rel=1e-6, abs=1e-9)

    def test_equals_the_loop_of_scalar_integrals(self):
        # One integrate_h call for every channel's intervals, the terms added in channel then interval order.
        rng = np.random.default_rng(37)
        intervals = 0
        for _ in range(12):
            n = int(rng.integers(2, 9))
            prob = random_linear_problem(rng, n)
            sd = spectral_decompose(build_laplacian(prob.graph))
            coeffs = _rows(sd, prob.objective.p, [ch.b for ch in prob.channels])
            cuts = np.sort(rng.uniform(0.0, prob.T, (prob.m, 6)), axis=1)
            schedule = BangBangSchedule(
                channels=tuple(
                    ChannelSchedule(u_max=ch.u_max, intervals=tuple(zip(c[0::2].tolist(), c[1::2].tolist())))
                    for ch, c in zip(prob.channels, cuts)
                )
            )
            total = 0.0
            for row, cs in zip(coeffs, schedule.channels):
                for lo, hi in cs.intervals:
                    total += cs.u_max * integrate_h(sd.group_rates, row, prob.T, lo, hi)
                    intervals += 1
            assert closed_form_gain(sd.group_rates, coeffs, prob.T, schedule) == total
        assert intervals >= 36


class TestSlowModes:
    """Slow modes on short intervals (rate * width down to 2e-13), where a difference of exponentials cancels."""

    @pytest.mark.parametrize("weight", [1e-3, 1e-5, 1e-7])
    def test_gain_and_oracle_cells_keep_full_relative_accuracy(self, weight):
        # On K2 with p = b = e_1 both group coefficients are 1/2, so neither mode cancels the other.
        prob = CampaignProblem(
            graph=WeightedGraph(n=2, edges=((1, 2, weight),)),
            channels=(Channel(b=np.array([1.0, 0.0]), cost=CostModel("linear", 1.0), u_max=1.0),),
            objective=Objective(kind="linear", p=np.array([1.0, 0.0])),
            T=1.0,
            r=1.0 / 16,
            x0=np.zeros(2),
        )
        prep = prepare(prob)
        coeffs = projected_coefficients(prep.sd, prob.objective.p, prep.gains)
        on = ((0.5, 0.501), (0.9, 0.9 + 1e-6))
        schedule = BangBangSchedule(channels=(ChannelSchedule(u_max=1.0, intervals=on),))
        exact = float(prob.objective.p @ terminal_state(prep, schedule))
        gain = closed_form_gain(prep.sd.group_rates, coeffs, prob.T, schedule)
        assert gain == pytest.approx(exact, rel=1e-12, abs=0.0)

        # The budget buys one cell of 16; its value is u_max times the integral of h over it.
        res = enumerate_best(prep, EnumerationSpec(switch_grid=16))
        ((lo, hi),) = res.schedule.channels[0].intervals
        rate = 2.0 * weight
        hand = 0.5 * (hi - lo) + 0.5 * math.exp(-rate * (prob.T - hi)) * -math.expm1(-rate * (hi - lo)) / rate
        assert res.value == pytest.approx(hand, rel=1e-12, abs=0.0)


class TestScheduleRobustness:
    def test_touching_intervals_act_as_their_union(self):
        touching = ChannelSchedule(u_max=1.0, intervals=((0.25, 0.5), (0.5, 0.85)))
        assert touching == ChannelSchedule(u_max=1.0, intervals=((0.25, 0.85),))
        assert BangBangSchedule(channels=(touching,)).switch_counts(2.0) == (2,)

    @pytest.mark.parametrize(
        "intervals, stored",
        [
            (((0.5, 0.5),), ()),
            (((0.0, 1.0), (1.0, 2.0), (2.0, 3.0)), ((0.0, 3.0),)),
            (((0.0, 1.0), (1.0, 1.0), (1.0, 2.0)), ((0.0, 2.0),)),
            (((0.5, 0.5), (0.5, 1.0)), ((0.5, 1.0),)),
            (((0.0, 0.5), (0.5 + 1e-12, 1.0)), ((0.0, 0.5), (0.5 + 1e-12, 1.0))),
            (np.array([[0.0, 0.5], [0.5, 1.0], [2.0, 2.0]]), ((0.0, 1.0),)),
        ],
        ids=["empty", "touching-chain", "empty-between-touching", "empty-then-touching", "near-touching", "array"],
    )
    def test_construction_normalises_intervals(self, intervals, stored):
        # Empty intervals are dropped and touching ones merged; only equal endpoints touch.
        assert ChannelSchedule(u_max=1.0, intervals=intervals).intervals == stored

    def test_intervals_are_stored_as_float_pairs(self):
        cs = ChannelSchedule(u_max=1.0, intervals=[[0, np.float64(0.5)], (np.int64(1), 2)])
        assert cs.intervals == ((0.0, 0.5), (1.0, 2.0))
        assert all(type(t) is float for iv in cs.intervals for t in iv)

    @settings(max_examples=200, deadline=None)
    @given(
        T=st.floats(0.5, 20.0),
        fractions=st.lists(st.one_of(st.integers(0, 8).map(lambda k: k / 8), st.floats(0.0, 1.0)), max_size=12),
    )
    def test_switch_counts_and_on_time_count_the_control(self, T, fractions):
        # Sorted pairs in [0, T]; the small grid of fractions makes touching and empty pairs common.
        ends = sorted(T * f for f in fractions)
        pairs = tuple(zip(ends[0::2], ends[1::2]))
        schedule = BangBangSchedule(channels=(ChannelSchedule(u_max=1.0, intervals=pairs),))
        # The union is constant on each cell between consecutive endpoints; scan it at every cell.
        cuts = sorted({0.0, T, *ends})
        on = [any(lo <= t < hi for lo, hi in pairs) for t in cuts[:-1]]
        flips = sum(a != b for a, b in zip(on, on[1:]))
        measure = math.fsum(b - a for a, b, x in zip(cuts, cuts[1:], on) if x)
        assert schedule.switch_counts(T) == (flips,)
        assert schedule.channels[0].on_time == pytest.approx(measure, rel=1e-12, abs=1e-15 * T)


def _reference_simulate(problem, schedule, steps):
    """Per-midpoint Drift.at and per-step matvec RK4, as simulate was first written."""
    T = problem.T
    a_mat = -build_laplacian(problem.graph)
    b_mat = np.column_stack([ch.b for ch in problem.channels])
    events = [problem.drift.breakpoints]
    for cs in schedule.channels:
        for lo, hi in cs.intervals:
            events.append(np.array([lo, hi]))
    events = np.concatenate(events)
    events = events[(events > 0.0) & (events < T)]
    ts = np.unique(np.concatenate([np.linspace(0.0, T, steps + 1), events]))
    mids = 0.5 * (ts[:-1] + ts[1:])
    u = np.zeros((mids.size, problem.m))
    cost_rate = np.zeros(mids.size)
    for k, (cs, ch) in enumerate(zip(schedule.channels, problem.channels)):
        for lo, hi in cs.intervals:
            on = (mids >= lo) & (mids < hi)
            u[on, k] = cs.u_max
            cost_rate[on] += ch.cost(cs.u_max)
    drift_vals = np.stack([problem.drift.at(float(t)) for t in mids])
    forcing = u @ b_mat.T + drift_vals
    states = [np.array(problem.x0, dtype=np.float64)]
    spend = [0.0]
    x = states[0]
    for k in range(mids.size):
        h = ts[k + 1] - ts[k]
        c = forcing[k]
        k1 = a_mat @ x + c
        k2 = a_mat @ (x + 0.5 * h * k1) + c
        k3 = a_mat @ (x + 0.5 * h * k2) + c
        k4 = a_mat @ (x + h * k3) + c
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
        spend.append(spend[-1] + cost_rate[k] * h)
    return ts, np.array(states), np.array(spend), drift_vals


def _random_schedule(rng, problem):
    """0-3 disjoint on-intervals per channel, some pinned to 0 or T."""
    T = problem.T
    channels = []
    for ch in problem.channels:
        k = int(rng.integers(0, 4))
        pts = np.sort(rng.uniform(0.0, T, 2 * k))
        if k and rng.random() < 0.5:
            pts[0] = 0.0
        if k and rng.random() < 0.5:
            pts[-1] = T
        ivs = tuple((float(pts[2 * j]), float(pts[2 * j + 1])) for j in range(k))
        channels.append(ChannelSchedule(u_max=ch.u_max, intervals=ivs))
    return BangBangSchedule(channels=tuple(channels))


def _random_dynamic_problem(rng, n, beyond=True):
    """Random graph, 1-3 linear or power channels, x0 != 0, drift with breakpoints inside and beyond T.

    With ``beyond`` false every breakpoint lies inside [0, T), so the problem is valid.
    """
    g = random_connected_graph(rng, n)
    T = float(rng.uniform(0.5, 3.0))
    channels = []
    for _ in range(int(rng.integers(1, 4))):
        kind = "linear" if rng.random() < 0.5 else "power"
        a = 1.0 if kind == "linear" else float(rng.uniform(0.3, 0.9))
        cost = CostModel(kind, float(rng.uniform(0.5, 2.0)), a)
        channels.append(Channel(b=rng.uniform(-1.0, 1.0, n), cost=cost, u_max=float(rng.uniform(0.5, 2.0))))
    inner = np.sort(rng.uniform(0.0, T, int(rng.integers(0, 3))))
    later = T * rng.uniform(1.0, 2.0, int(rng.integers(0, 2))) if beyond else []
    breakpoints = np.concatenate([[0.0], inner, later])
    drift = Drift(breakpoints=breakpoints, values=rng.normal(0.0, 0.5, (breakpoints.size, n)))
    return CampaignProblem(
        graph=g,
        channels=tuple(channels),
        objective=Objective(kind="linear", p=rng.uniform(0.0, 1.0, n)),
        T=T,
        r=1.0,
        x0=rng.normal(0.0, 1.0, n),
        drift=drift,
    )


class TestTerminalState:
    def test_matches_fine_rk4(self):
        rng = np.random.default_rng(2024)
        for trial in range(16):
            n = int(rng.integers(2, 41))
            prob = _random_dynamic_problem(rng, n, beyond=False)
            schedule = _empty_schedule(prob) if trial % 5 == 0 else _random_schedule(rng, prob)
            exact = terminal_state(prob, schedule)
            ref = simulate(prob, schedule, steps=8192).terminal_state
            assert np.max(np.abs(exact - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

    def test_k2_hand_derived(self):
        # On K2 the mean obeys dm/dt = (u b_1 + e_1 + e_2) / 2 and the
        # difference d = x_1 - x_2 obeys dd/dt = -2 d + u b_1 + e_1 - e_2.
        a, c, e1, e2, T, lo, hi = 0.7, -0.2, 0.3, -0.1, 1.5, 0.25, 1.0
        prob = CampaignProblem(
            graph=K2,
            channels=k2_problem().channels,
            objective=Objective(kind="linear", p=np.array([0.0, 1.0])),
            T=T,
            r=1.0,
            x0=np.array([a, c]),
            drift=Drift(breakpoints=np.array([0.0]), values=np.array([[e1, e2]])),
        )
        schedule = BangBangSchedule(channels=(ChannelSchedule(u_max=1.0, intervals=((lo, hi),)),))
        m = (a + c) / 2 + (hi - lo) / 2 + (e1 + e2) * T / 2
        d = (
            (a - c) * np.exp(-2 * T)
            + np.exp(-2 * (T - hi)) * (1 - np.exp(-2 * (hi - lo))) / 2
            + (e1 - e2) * (1 - np.exp(-2 * T)) / 2
        )
        expected = np.array([m + d / 2, m - d / 2])
        assert np.max(np.abs(terminal_state(prob, schedule) - expected)) <= 1e-14

    def test_prepared_problem_and_validation(self):
        rng = np.random.default_rng(8)
        prob = _random_dynamic_problem(rng, 6, beyond=False)
        schedule = _random_schedule(rng, prob)
        assert np.array_equal(terminal_state(prepare(prob), schedule), terminal_state(prob, schedule))
        bad = BangBangSchedule(
            channels=tuple(ChannelSchedule(u_max=1.0, intervals=((0.0, 2 * prob.T),)) for _ in prob.channels)
        )
        with pytest.raises(ContractError, match="outside"):
            terminal_state(prob, bad)
        with pytest.raises(ContractError, match="channels"):
            terminal_state(prob, BangBangSchedule(channels=()))

    @pytest.mark.parametrize("field", ["x0", "drift"])
    def test_invalid_problem_raises(self, field):
        # A NaN start or a breakpoint at T is a validation finding, not a NaN or a clipped state.
        prob = _random_dynamic_problem(np.random.default_rng(3), 4, beyond=False)
        if field == "x0":
            bad = dataclasses.replace(prob, x0=np.full(prob.n, np.nan))
        else:
            drift = Drift(breakpoints=np.array([0.0, prob.T]), values=np.zeros((2, prob.n)))
            bad = dataclasses.replace(prob, drift=drift)
        with pytest.raises(ValidationError, match="problem failed validation"):
            terminal_state(bad, _empty_schedule(bad))


class TestVectorisedDrift:
    def test_drift_rows_match_scalar_lookup(self):
        drift = Drift(breakpoints=np.array([0.0, 0.3, 0.7]), values=np.arange(9.0).reshape(3, 3))
        ts = np.array([-0.1, 0.0, 0.2, 0.3, 0.5, 0.7, 0.9, 5.0])
        assert np.array_equal(drift.at(ts), np.stack([drift.at(float(t)) for t in ts]))

    def test_simulate_matches_per_midpoint_path(self):
        rng = np.random.default_rng(77)
        for _ in range(6):
            prob = _random_dynamic_problem(rng, int(rng.integers(2, 12)))
            # Breakpoints off the uniform nodes: they fall between grid nodes.
            schedule = _random_schedule(rng, prob)
            traj = simulate(prob, schedule, steps=200)
            ts, states, spend, drift_vals = _reference_simulate(prob, schedule, 200)
            mids = 0.5 * (ts[:-1] + ts[1:])
            assert np.array_equal(prob.drift.at(mids), drift_vals)
            assert np.array_equal(traj.times, ts)
            assert np.array_equal(traj.spend_accum, spend)
            scale = max(1.0, np.max(np.abs(states)))
            assert np.max(np.abs(traj.states - states)) <= 1e-13 * scale
