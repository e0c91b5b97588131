from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import K2, P3, count_calls, k2_problem
from waveplan import problem as problem_module
from waveplan.bundles import seven_agent_problem, seven_agent_sigmoid_problem
from waveplan.dynamics import terminal_state
from waveplan.graph import WeightedGraph, build_laplacian, group_support, project, spectral_decompose
from waveplan.oracle import EnumerationSpec, enumerate_best, grid_slack
from waveplan.problem import (
    CampaignProblem,
    Channel,
    CostModel,
    Drift,
    Objective,
    check_conditions,
    prepare,
    problem_from_dict,
    problem_to_dict,
    validate_problem,
)
from waveplan.errors import ValidationError
from waveplan.sigmoid import solve_sigmoid
from waveplan.waterfill import solve, solve_with_costate


def _channel(b, kind="linear", v=1.0, a=1.0, u_max=1.0):
    return Channel(b=np.array(b, dtype=float), cost=CostModel(kind, v, a), u_max=u_max)


class TestValidateProblem:
    def test_well_formed_is_clean(self):
        assert validate_problem(k2_problem()) == []

    def test_empty_reach_finding(self):
        p = CampaignProblem(
            graph=K2,
            channels=(_channel([0.0, 0.0]),),
            objective=Objective(kind="linear", p=np.array([0.0, 1.0])),
            T=1.0,
            r=0.5,
            x0=np.zeros(2),
        )
        assert any("empty reach" in f for f in validate_problem(p))

    def test_zero_budget_finding(self):
        p = k2_problem(r=0.0)
        assert any("budget must be positive" in f for f in validate_problem(p))

    def test_multiple_findings_all_reported(self):
        p = CampaignProblem(
            graph=K2,
            channels=(_channel([0.0, 0.0], v=-1.0),),
            objective=Objective(kind="linear", p=np.array([0.0, 0.0])),
            T=-1.0,
            r=0.0,
            x0=np.zeros(2),
        )
        findings = validate_problem(p)
        assert len(findings) >= 4

    def test_sigmoid_requires_alpha_theta(self):
        p = CampaignProblem(
            graph=K2,
            channels=(_channel([1.0, 0.0]),),
            objective=Objective(kind="sigmoid", p=np.array([0.5, 0.5])),
            T=1.0,
            r=0.5,
            x0=np.zeros(2),
        )
        assert any("alpha and theta" in f for f in validate_problem(p))

    def test_drift_breakpoints_checked(self):
        p = CampaignProblem(
            graph=K2,
            channels=(_channel([1.0, 0.0]),),
            objective=Objective(kind="linear", p=np.array([0.0, 1.0])),
            T=1.0,
            r=0.5,
            x0=np.zeros(2),
            drift=Drift(breakpoints=np.array([0.0, 0.5, 0.5]), values=np.zeros((3, 2))),
        )
        assert any("strictly increasing" in f for f in validate_problem(p))


_INF, _NAN = float("inf"), float("nan")


def _sigmoid(**arrays):
    fields = dict(p=np.array([0.5, 0.5]), alpha=np.array([2.0, 2.0]), theta=np.array([0.1, 0.2]))
    return Objective(kind="sigmoid", **{**fields, **arrays})


def _power(b=(1.0, 0.0), v=1.0, a=0.5, u_max=1.0):
    return _channel(list(b), kind="power", v=v, a=a, u_max=u_max)


def _sigmoid_k2(**changes):
    """A clean sigmoid instance on K2 with a two-piece drift, with ``changes`` applied."""
    fields = dict(
        graph=K2,
        channels=(_power(),),
        objective=_sigmoid(),
        T=1.0,
        r=0.5,
        x0=np.zeros(2),
        drift=Drift(breakpoints=np.array([0.0, 0.5]), values=np.zeros((2, 2))),
    )
    return CampaignProblem(**{**fields, **changes})


class TestNonFiniteFindings:
    def test_base_is_clean(self):
        assert validate_problem(_sigmoid_k2()) == []

    @pytest.mark.parametrize(
        "changes, finding",
        [
            (dict(T=_INF), "horizon T must be finite, got inf"),
            (dict(T=_NAN), "horizon T must be finite, got nan"),
            (dict(r=_INF), "budget must be finite, got inf"),
            (dict(channels=(_power(v=_INF),)), "cost rate v must be finite, got inf"),
            (dict(channels=(_power(a=_NAN),)), "cost exponent a must be finite, got nan"),
            (dict(channels=(_power(b=(1.0, _INF)),)), "gain vector has non-finite entries"),
            (dict(objective=_sigmoid(p=np.array([_INF, 0.5]))), "objective weights have non-finite entries"),
            (dict(objective=_sigmoid(p=np.array([_NAN, 0.5]))), "objective weights have non-finite entries"),
            (dict(objective=_sigmoid(alpha=np.array([2.0, _NAN]))), "alpha/theta have non-finite entries"),
            (dict(objective=_sigmoid(theta=np.array([_INF, 0.2]))), "alpha/theta have non-finite entries"),
            (dict(x0=np.array([0.0, _NAN])), "initial state has non-finite entries"),
            (
                dict(drift=Drift(breakpoints=np.array([0.0, 0.5]), values=np.array([[0.0, _INF], [0.0, 0.0]]))),
                "drift values have non-finite entries",
            ),
            (
                dict(drift=Drift(breakpoints=np.array([0.0, _INF]), values=np.zeros((2, 2)))),
                "drift breakpoints have non-finite entries",
            ),
        ],
        ids=[
            "T-inf", "T-nan", "r-inf", "v-inf", "a-nan", "b-inf", "p-inf", "p-nan",
            "alpha-nan", "theta-inf", "x0-nan", "drift-values-inf", "drift-breakpoints-inf",
        ],
    )
    def test_non_finite_value_is_a_finding(self, changes, finding):
        findings = validate_problem(_sigmoid_k2(**changes))
        assert any(finding in f for f in findings), findings

    def test_finite_arrays_take_one_pass(self, monkeypatch):
        calls = []
        original = problem_module._finite

        def counting(a):
            calls.append(a.size)
            return original(a)

        monkeypatch.setattr(problem_module, "_finite", counting)
        assert validate_problem(_sigmoid_k2()) == []
        # Every array field at once: b, p, x0, the drift values and breakpoints, alpha and theta.
        assert calls == [2 + 2 + 2 + 4 + 2 + 2 + 2]
        calls.clear()
        findings = validate_problem(_sigmoid_k2(x0=np.array([0.0, _NAN])))
        assert findings == ["initial state has non-finite entries"]
        assert len(calls) > 1  # only a failed pass breaks the check down per field


# Malformed problems, as changes to the clean sigmoid instance, with every
# finding each gets, in order.
MALFORMED = [
    ("T-inf", dict(T=_INF), ["horizon T must be finite, got inf"]),
    ("T-nan", dict(T=_NAN), ["horizon T must be finite, got nan"]),
    ("T-zero", dict(T=0.0), ["horizon T must be positive, got 0.0"]),
    ("T-negative", dict(T=-1.0), ["horizon T must be positive, got -1.0"]),
    ("r-inf", dict(r=_INF), ["budget must be finite, got inf"]),
    ("r-zero", dict(r=0.0), ["budget must be positive, got 0.0"]),
    ("r-negative", dict(r=-2.0), ["budget must be positive, got -2.0"]),
    ("no-channel", dict(channels=()), ["problem needs at least one channel"]),
    (
        "b-shape",
        dict(channels=(_power(b=(1.0, 0.0, 0.0)),)),
        ["channel 1: gain vector has shape (3,), expected (2,)"],
    ),
    ("b-inf", dict(channels=(_power(b=(1.0, _INF)),)), ["channel 1: gain vector has non-finite entries"]),
    ("b-empty-reach", dict(channels=(_power(b=(0.0, 0.0)),)), ["channel 1 has empty reach"]),
    (
        "u_max-zero",
        dict(channels=(_power(u_max=0.0),)),
        ["channel 1: u_max must be positive, got 0.0"],
    ),
    (
        "u_max-inf",
        dict(channels=(_power(u_max=_INF),)),
        ["channel 1: u_max must be finite, got inf"],
    ),
    (
        "u_max-nan",
        dict(channels=(_power(u_max=_NAN),)),
        ["channel 1: u_max must be finite, got nan"],
    ),
    (
        "u_max-int",
        dict(channels=(_power(u_max=-2),)),
        ["channel 1: u_max must be positive, got -2"],
    ),
    (
        "cost-kind",
        dict(channels=(_channel([1.0, 0.0], kind="cubic"),)),
        ["channel 1: unknown cost kind 'cubic'"],
    ),
    ("v-inf", dict(channels=(_power(v=_INF),)), ["channel 1: cost rate v must be finite, got inf"]),
    ("v-zero", dict(channels=(_power(v=0.0),)), ["channel 1: cost rate v must be positive, got 0.0"]),
    ("v-int", dict(channels=(_power(v=-3),)), ["channel 1: cost rate v must be positive, got -3"]),
    ("a-nan", dict(channels=(_power(a=_NAN),)), ["channel 1: cost exponent a must be finite, got nan"]),
    (
        "a-linear",
        dict(channels=(_channel([1.0, 0.0], a=0.5),)),
        ["channel 1: linear cost requires a = 1, got 0.5"],
    ),
    (
        "a-power-high",
        dict(channels=(_power(a=1.5),)),
        ["channel 1: power cost exponent must lie in (0, 1], got 1.5"],
    ),
    (
        "a-power-zero",
        dict(channels=(_power(a=0),)),
        ["channel 1: power cost exponent must lie in (0, 1], got 0"],
    ),
    (
        "objective-kind",
        dict(objective=Objective(kind="quadratic", p=np.array([0.5, 0.5]))),
        ["unknown objective kind 'quadratic'"],
    ),
    (
        "p-shape",
        dict(objective=_sigmoid(p=np.array([0.5, 0.5, 0.5]))),
        ["objective weights have shape (3,), expected (2,)"],
    ),
    (
        "p-inf",
        dict(objective=_sigmoid(p=np.array([_INF, 0.5]))),
        ["objective weights have non-finite entries"],
    ),
    (
        "p-nan",
        dict(objective=_sigmoid(p=np.array([_NAN, 0.5]))),
        ["objective weights have non-finite entries"],
    ),
    (
        "p-negative",
        dict(objective=_sigmoid(p=np.array([-0.5, 0.5]))),
        ["objective weights must be nonnegative"],
    ),
    (
        "p-zero",
        dict(objective=_sigmoid(p=np.array([0.0, 0.0]))),
        ["objective needs at least one positive weight"],
    ),
    (
        "sigmoid-no-alpha",
        dict(objective=Objective(kind="sigmoid", p=np.array([0.5, 0.5]))),
        ["sigmoid objective requires alpha and theta vectors"],
    ),
    (
        "alpha-shape",
        dict(objective=_sigmoid(alpha=np.array([2.0]))),
        ["sigmoid alpha/theta must match the agent count"],
    ),
    (
        "alpha-nan",
        dict(objective=_sigmoid(alpha=np.array([2.0, _NAN]))),
        ["sigmoid alpha/theta have non-finite entries"],
    ),
    (
        "theta-inf",
        dict(objective=_sigmoid(theta=np.array([_INF, 0.2]))),
        ["sigmoid alpha/theta have non-finite entries"],
    ),
    (
        "alpha-zero",
        dict(objective=_sigmoid(alpha=np.array([2.0, 0.0]))),
        ["sigmoid sharpness alpha must be positive"],
    ),
    ("x0-shape", dict(x0=np.zeros(3)), ["initial state has shape (3,), expected (2,)"]),
    ("x0-nan", dict(x0=np.array([0.0, _NAN])), ["initial state has non-finite entries"]),
    (
        "drift-rows",
        dict(drift=Drift(breakpoints=np.array([0.0, 0.5]), values=np.zeros((3, 2)))),
        ["drift needs one value row per breakpoint"],
    ),
    (
        "drift-width",
        dict(drift=Drift(breakpoints=np.array([0.0, 0.5]), values=np.zeros((2, 3)))),
        ["drift values have width 3, expected 2"],
    ),
    (
        "drift-values-inf",
        dict(drift=Drift(breakpoints=np.array([0.0, 0.5]), values=np.array([[0.0, _INF], [0.0, 0.0]]))),
        ["drift values have non-finite entries"],
    ),
    (
        "drift-breakpoints-inf",
        dict(drift=Drift(breakpoints=np.array([0.0, _INF]), values=np.zeros((2, 2)))),
        ["drift breakpoints have non-finite entries", "drift breakpoints must lie within [0, T)"],
    ),
    (
        "drift-breakpoints-inf-twice",
        dict(drift=Drift(breakpoints=np.array([0.0, _INF, _INF]), values=np.zeros((3, 2)))),
        ["drift breakpoints have non-finite entries", "drift breakpoints must lie within [0, T)"],
    ),
    (
        "drift-breakpoints-nan",
        dict(drift=Drift(breakpoints=np.array([0.0, _NAN]), values=np.zeros((2, 2)))),
        ["drift breakpoints have non-finite entries"],
    ),
    (
        "drift-start",
        dict(drift=Drift(breakpoints=np.array([0.25, 0.5]), values=np.zeros((2, 2)))),
        ["drift breakpoints must start at 0"],
    ),
    (
        "drift-order",
        dict(drift=Drift(breakpoints=np.array([0.0, 0.5, 0.5]), values=np.zeros((3, 2)))),
        ["drift breakpoints must be strictly increasing"],
    ),
    (
        "drift-past-T",
        dict(drift=Drift(breakpoints=np.array([0.0, 1.5]), values=np.zeros((2, 2)))),
        ["drift breakpoints must lie within [0, T)"],
    ),
    (
        "drift-empty",
        dict(drift=Drift(breakpoints=np.zeros(0), values=np.zeros((0, 2)))),
        ["drift needs at least one breakpoint at 0"],
    ),
    (
        "many",
        dict(
            channels=(_channel([0.0, 0.0], v=-1.0), _power(b=(1.0, _NAN), u_max=0.0, a=2.0)),
            objective=Objective(kind="linear", p=np.array([0.0, 0.0])),
            T=-1.0,
            r=0.0,
            x0=np.array([_INF, 0.0]),
            drift=Drift(breakpoints=np.array([0.5, 0.25]), values=np.zeros((2, 2))),
        ),
        ["channel 1 has empty reach", "channel 1: cost rate v must be positive, got -1.0", "channel 2: gain vector has non-finite entries", "channel 2: u_max must be positive, got 0.0", "channel 2: power cost exponent must lie in (0, 1], got 2.0", "objective needs at least one positive weight", "horizon T must be positive, got -1.0", "budget must be positive, got 0.0", "initial state has non-finite entries", "drift breakpoints must start at 0", "drift breakpoints must be strictly increasing"],
    ),
]


class TestFindingsCorpus:
    @pytest.mark.parametrize("changes, findings", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
    def test_every_finding_in_order(self, changes, findings):
        assert validate_problem(_sigmoid_k2(**changes)) == findings


_NOT_REAL = [None, "5", True, [1.0]]


def _with_scalar(field, value):
    """The clean linear K2 instance with one scalar field set to value."""
    p = k2_problem()
    if field in ("T", "r"):
        return replace(p, **{field: value})
    (ch,) = p.channels
    if field == "u_max":
        return replace(p, channels=(replace(ch, u_max=value),))
    return replace(p, channels=(replace(ch, cost=replace(ch.cost, **{field: value})),))


class TestScalarsThatAreNotRealNumbers:
    NAMES = {"T": "horizon T", "r": "budget", "u_max": "u_max", "v": "cost rate v", "a": "cost exponent a"}

    @pytest.mark.parametrize("field", list(NAMES))
    @pytest.mark.parametrize("value", _NOT_REAL, ids=["None", "str", "bool", "list"])
    def test_is_a_finding_and_solve_raises_validation_error(self, field, value):
        prob = _with_scalar(field, value)
        assert validate_problem(prob) == [
            ("channel 1: " if field in ("u_max", "v", "a") else "")
            + f"{self.NAMES[field]} must be a real number, got {value!r}"
        ]
        with pytest.raises(ValidationError, match="must be a real number"):
            solve(prob)

    @pytest.mark.parametrize("field", list(NAMES))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_int_too_large_for_a_float_is_not_finite(self, field, sign):
        prob = _with_scalar(field, sign * 10**400)
        (finding,) = validate_problem(prob)
        assert f"{self.NAMES[field]} must be finite, got {sign * 10**400}" in finding
        with pytest.raises(ValidationError):
            solve(prob)

    @pytest.mark.parametrize("field", list(NAMES))
    def test_numpy_and_python_numbers_are_real(self, field):
        value = {"T": 1, "r": 2, "u_max": 1, "v": 1, "a": 1}[field]
        for number in (value, float(value), np.int64(value), np.float64(value)):
            assert validate_problem(_with_scalar(field, number)) == []


class TestCostModel:
    def test_zero_cost_at_zero(self):
        for cost in (CostModel("linear", 2.0), CostModel("power", 3.0, 0.5)):
            assert cost(0.0) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=0.1, max_value=4.0),
    )
    def test_monotone_on_grid(self, v, a, u_max):
        cost = CostModel("power", v, a)
        grid = np.linspace(0.0, u_max, 100)
        vals = [cost(u) for u in grid]
        assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))


def _ranks(graph, gains):
    p = CampaignProblem(
        graph=graph,
        channels=tuple(_channel(b) for b in gains),
        objective=Objective(kind="linear", p=np.ones(graph.n)),
        T=1.0,
        r=0.5,
        x0=np.zeros(graph.n),
    )
    return [(c.controllability_rank, c.controllable) for c in check_conditions(p)]


class TestCheckConditions:
    def test_k2_single_agent_channel_controllable(self):
        # [b | L b] = [(1, 0) | (1, -1)] has rank 2, so the linear-cost
        # branch is certified.
        cond = check_conditions(k2_problem())[0]
        assert cond.controllability_rank == 2
        assert cond.controllable
        assert cond.theorem_applicable

    def test_k2_uniform_gain_reaches_only_the_mean(self):
        # b = (1, 1) is an eigenvector: L b = 0, rank 1.
        assert _ranks(K2, [[1.0, 1.0]]) == [(1, False)]

    def test_path_end_and_middle(self):
        # P3 has simple eigenvalues 0, 1, 3 with eigenvectors (1, 1, 1),
        # (1, 0, -1), (1, -2, 1). An end agent projects onto all three; the
        # middle agent misses (1, 0, -1).
        assert _ranks(P3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]) == [(3, True), (2, False)]

    def test_star_never_controllable(self):
        # The star on 4 nodes has eigenvalues 0, 1 (twice) and 4, so the rank
        # is at most 3. A leaf reaches all three eigenspaces; the hub misses
        # the leaf-difference eigenspace of 1: L e1 = (3, -1, -1, -1) and
        # L^2 e1 = 4 L e1.
        star = WeightedGraph(n=4, edges=((1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)))
        leaf, hub = [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]
        assert _ranks(star, [leaf, hub]) == [(3, False), (2, False)]

    def test_seven_agent_channels(self):
        # All seven eigenvalues are simple. The reach channel is orthogonal
        # to the eigenvector of eigenvalue 2; the targeted channel reaches all
        # seven.
        p = seven_agent_problem()
        rows = check_conditions(p)
        assert [c.controllability_rank for c in rows] == [6, 7]
        assert [c.controllable for c in rows] == [False, True]

    def test_k2_power_cost_with_reach(self):
        p = CampaignProblem(
            graph=K2,
            channels=(_channel([1.0, 1.0], kind="power", a=0.5),),
            objective=Objective(kind="linear", p=np.array([0.0, 1.0])),
            T=1.0,
            r=0.5,
            x0=np.zeros(2),
        )
        cond = check_conditions(p)[0]
        assert cond.total_reach == pytest.approx(2.0)
        assert cond.reach_nonzero
        assert cond.theorem_applicable

    def test_k2_power_cost_zero_reach(self):
        p = CampaignProblem(
            graph=K2,
            channels=(_channel([1.0, -1.0], kind="power", a=0.5),),
            objective=Objective(kind="linear", p=np.array([0.0, 1.0])),
            T=1.0,
            r=0.5,
            x0=np.zeros(2),
        )
        cond = check_conditions(p)[0]
        assert cond.total_reach == pytest.approx(0.0)
        assert not cond.reach_nonzero
        assert not cond.theorem_applicable

    @pytest.mark.parametrize("excess, reaches", [(1e-11, False), (1e-9, True)])
    def test_reach_is_the_constant_mode_projection(self, excess, reaches):
        # b = (1, -1 + excess) sums to excess. Both excesses clear the old
        # rule |sum b| > 1e-12 * sum |b|; only the larger one projects onto
        # the constant mode above 1e-10 * |b|, and that projection decides.
        b = np.array([1.0, -1.0 + excess])
        p = CampaignProblem(
            graph=K2,
            channels=(_channel(b, kind="power", a=0.5),),
            objective=Objective(kind="linear", p=np.array([1.0, 0.0])),
            T=1.0,
            r=0.5,
            x0=np.zeros(2),
        )
        sd = spectral_decompose(build_laplacian(K2))
        cond = check_conditions(p)[0]
        assert cond.reach_nonzero == bool(group_support(sd, project(sd, b[None, :]))[0, 0]) == reaches
        assert cond.theorem_applicable == reaches
        assert cond.total_reach == float(np.sum(b))

    def test_flags_deterministic(self):
        p = k2_problem()
        prep = prepare(p)
        assert check_conditions(prep) == check_conditions(prep) == check_conditions(p)


class TestPrepare:
    def test_returns_a_prepared_problem_unchanged(self):
        prep = prepare(seven_agent_problem())
        assert prepare(prep) is prep
        assert prep.gains.coords.shape == (prep.problem.m, prep.problem.n)

    def test_invalid_problem_raises(self):
        with pytest.raises(ValidationError, match="^problem failed validation: budget must be positive, got 0.0$"):
            prepare(k2_problem(r=0.0))

    PUBLIC_CALLS = {
        "solve": lambda lin, sig: solve(lin),
        "solve_with_costate": lambda lin, sig: solve_with_costate(lin, lin.problem.objective.p),
        "check_conditions": lambda lin, sig: check_conditions(lin),
        "terminal_state": lambda lin, sig: terminal_state(lin, solve(lin).schedule),
        "enumerate_best": lambda lin, sig: enumerate_best(lin, EnumerationSpec(switch_grid=6)),
        "enumerate_best-sigmoid": lambda lin, sig: enumerate_best(sig, EnumerationSpec(switch_grid=4)),
        "grid_slack": lambda lin, sig: grid_slack(lin, 6),
        "solve_sigmoid": lambda lin, sig: solve_sigmoid(sig),
    }

    @pytest.mark.parametrize("name", list(PUBLIC_CALLS))
    def test_public_calls_neither_validate_nor_decompose_it_again(self, name, monkeypatch):
        lin, sig = prepare(seven_agent_problem()), prepare(seven_agent_sigmoid_problem())
        calls = count_calls(monkeypatch, validate_problem, build_laplacian, spectral_decompose, project)
        self.PUBLIC_CALLS[name](lin, sig)
        assert calls == {"validate_problem": 0, "build_laplacian": 0, "spectral_decompose": 0, "project": 0}


class TestObjectiveBounds:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=2))
    def test_sigmoid_objective_bounded(self, x):
        from waveplan.dynamics import objective_value

        obj = Objective(
            kind="sigmoid",
            p=np.array([0.4, 0.6]),
            alpha=np.array([2.0, 3.0]),
            theta=np.array([0.5, -0.5]),
        )
        val = objective_value(obj, np.array(x))
        assert 0.0 <= val <= 1.0 + 1e-12


class TestProblemJson:
    def test_round_trip_field_for_field(self):
        p = CampaignProblem(
            graph=K2,
            channels=(
                _channel([1.0, -0.5], kind="power", v=1.25, a=0.5, u_max=2.0),
                _channel([0.0, 1.0]),
            ),
            objective=Objective(
                kind="sigmoid",
                p=np.array([0.3, 0.7]),
                alpha=np.array([2.0, 2.5]),
                theta=np.array([0.1, 0.2]),
            ),
            T=2.0,
            r=1.5,
            x0=np.array([0.5, -0.5]),
            drift=Drift(breakpoints=np.array([0.0, 1.0]), values=np.array([[0.1, 0.0], [0.0, 0.2]])),
        )
        q = problem_from_dict(problem_to_dict(p))
        assert q.graph == p.graph
        assert q.T == p.T and q.r == p.r
        assert np.array_equal(q.x0, p.x0)
        for a, b in zip(q.channels, p.channels):
            assert np.array_equal(a.b, b.b)
            assert a.cost == b.cost
            assert a.u_max == b.u_max
        assert q.objective.kind == p.objective.kind
        assert np.array_equal(q.objective.p, p.objective.p)
        assert np.array_equal(q.objective.alpha, p.objective.alpha)
        assert np.array_equal(q.objective.theta, p.objective.theta)
        assert np.array_equal(q.drift.breakpoints, p.drift.breakpoints)
        assert np.array_equal(q.drift.values, p.drift.values)

    def test_malformed_raises(self):
        with pytest.raises(ValidationError, match="malformed problem"):
            problem_from_dict({"graph": {"n": 2, "edges": [[1, 2, 1.0]]}})

    @pytest.mark.parametrize("path, value", [(("T",), "abc"), (("channels", 0, "u_max"), "x"), (("channels", 0, "b", 1), "a")])
    def test_unparsable_number_raises_validation_error(self, path, value):
        d = problem_to_dict(k2_problem())
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValidationError, match="malformed problem"):
            problem_from_dict(d)

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("T",), True, "T"),
            (("r",), True, "r"),
            (("channels", 0, "u_max"), True, r"channels\[0\]\.u_max"),
            (("channels", 0, "b", 1), True, r"channels\[0\]\.b\[1\]"),
            (("objective", "p", 0), False, r"objective\.p\[0\]"),
            (("graph", "edges", 0, 0), True, r"graph\.edges\[0\]\[0\]"),
        ],
    )
    def test_boolean_raises_naming_the_field(self, path, value, field):
        # JSON true and false would otherwise load as the numbers 1.0 and 0.0.
        d = problem_to_dict(k2_problem())
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValidationError, match=rf"^malformed problem object: field {field} is a boolean"):
            problem_from_dict(d)

    @pytest.mark.parametrize(
        "graph, message",
        [
            ({"n": 3, "edges": [[1, 2, 1.0]]}, "^graph is disconnected"),
            ({"n": 2, "edges": [[1, 2, 1.0], [1, 2, 2.0]]}, r"^duplicate edge \(1, 2\)$"),
            ({"n": 2}, "^malformed graph object"),
        ],
    )
    def test_graph_errors_pass_through_unwrapped(self, graph, message):
        d = problem_to_dict(k2_problem())
        d["graph"] = graph
        with pytest.raises(ValidationError, match=message):
            problem_from_dict(d)


class TestDrift:
    def test_piecewise_lookup(self):
        d = Drift(breakpoints=np.array([0.0, 1.0, 2.0]), values=np.array([[1.0], [2.0], [3.0]]))
        assert d.at(0.0)[0] == 1.0
        assert d.at(0.999)[0] == 1.0
        assert d.at(1.0)[0] == 2.0
        assert d.at(5.0)[0] == 3.0
