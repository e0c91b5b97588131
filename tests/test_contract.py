"""One argument contract: every scalar parameter of the public API, and every scalar problem field.

An integer is an int or numpy integer, not a bool; a real number is a
finite int, float or numpy real, not a bool. Each bad value must raise
ValidationError or ContractError with a message that names the argument and
shows the value passed: ``repr`` for a value that is not a real number,
plain ``str`` for one that is.
"""

from dataclasses import replace

import numpy as np
import pytest

from waveplan import (
    BangBangSchedule,
    ChannelSchedule,
    ContractError,
    Drift,
    EnumerationSpec,
    ValidationError,
    WeightedGraph,
    closed_form_gain,
    enumerate_best,
    grid_slack,
    integrate_h,
    late_deciders,
    objective_value,
    prepare,
    random_geometric_graph,
    run_sweep,
    seven_agent_problem,
    seven_agent_sigmoid_problem,
    simulate,
    solve_sigmoid,
    spectral_decompose,
    terminal_costate,
    terminal_state,
)
from waveplan.bounds import linear_bounds, support_bound
from waveplan.costate import projected_coefficients
from waveplan.sweep import default_radius, sweep_instance

LINEAR = seven_agent_problem()
SIGMOID = seven_agent_sigmoid_problem()
PREP = prepare(LINEAR)
COEFFS = projected_coefficients(PREP.sd, LINEAR.objective.p, PREP.gains)
RATES = PREP.sd.group_rates


def _schedule(u_max=LINEAR.channels[0].u_max) -> BangBangSchedule:
    return BangBangSchedule(
        channels=(ChannelSchedule(u_max=u_max, intervals=((0.0, 0.5),)), ChannelSchedule(u_max=1.0, intervals=()))
    )


def _channel(**changes):
    ch = LINEAR.channels[0]
    if "u_max" in changes:
        ch = replace(ch, u_max=changes.pop("u_max"))
    return replace(LINEAR, channels=(replace(ch, cost=replace(ch.cost, **changes)), LINEAR.channels[1]))


NAN, INF = float("nan"), float("inf")
# Values that no rule accepts, whatever its range.
NOT_INTEGER = [True, "3", None, 2.5, NAN, INF]
NOT_REAL = [True, "0.5", None, NAN, INF, -INF]

# (id, call taking the bad value, name the message must hold, value below the range or None).
INTEGER_PARAMETERS = [
    ("WeightedGraph.n", lambda v: WeightedGraph(n=v, edges=()), "agent count", 0),
    ("random_geometric_graph.n", lambda v: random_geometric_graph(v, 0.5, 1), "agent count", 1),
    ("random_geometric_graph.seed", lambda v: random_geometric_graph(20, 0.5, v), "seed", -1),
    ("simulate.steps", lambda v: simulate(LINEAR, _schedule(), steps=v), "steps", 63),
    ("grid_slack.switch_grid", lambda v: grid_slack(PREP, v), "switch_grid", 1),
    ("enumerate_best.switch_grid", lambda v: enumerate_best(PREP, EnumerationSpec(v)), "switch_grid", 1),
    ("solve_sigmoid.max_iters", lambda v: solve_sigmoid(SIGMOID, max_iters=v), "max_iters", 0),
    ("run_sweep.ns", lambda v: run_sweep([v], 1, 1), "ns", 1),
    ("run_sweep.instances", lambda v: run_sweep([20], v, 1), "instances", 0),
    ("run_sweep.base_seed", lambda v: run_sweep([20], 1, v), "base_seed", -1),
    ("sweep_instance.n", lambda v: sweep_instance(v, 0, 1), "agent count", 1),
    ("sweep_instance.instance", lambda v: sweep_instance(20, v, 1), "instance", -1),
    ("sweep_instance.base_seed", lambda v: sweep_instance(20, 0, v), "base_seed", -1),
    ("default_radius.n", default_radius, "agent count", 1),
    ("support_bound.groups", support_bound, "group count", -1),
    ("Drift.zero.n", Drift.zero, "agent count", 0),
]
# A cap of None takes the support bounds, so None is not a bad cap.
INTEGER_PARAMETERS_WITH_DEFAULT = [
    (
        "enumerate_best.max_switches_per_channel",
        lambda v: enumerate_best(PREP, EnumerationSpec(4, max_switches_per_channel=v)),
        "switch cap",
        -1,
    ),
]
REAL_PARAMETERS = [
    ("random_geometric_graph.radius", lambda v: random_geometric_graph(20, v, 1), "radius", 0.0),
    ("late_deciders.epsilon", lambda v: late_deciders(SIGMOID.objective.theta, SIGMOID.objective, v), "epsilon", 0.0),
    ("linear_bounds.shift", lambda v: linear_bounds(COEFFS[0], v), "threshold shift", -1.0),
    ("integrate_h.T", lambda v: integrate_h(RATES, COEFFS[0], v, 0.0, 0.5), "horizon T", 0.0),
    ("closed_form_gain.T", lambda v: closed_form_gain(RATES, COEFFS, v, _schedule()), "horizon T", 0.0),
    ("terminal_state.schedule.u_max", lambda v: terminal_state(PREP, _schedule(v)), "u_max", -1.0),
    ("simulate.schedule.u_max", lambda v: simulate(LINEAR, _schedule(v)), "u_max", -1.0),
    # Problem fields: prepare validates them, as every public solve does.
    ("problem.T", lambda v: prepare(replace(LINEAR, T=v)), "horizon T", 0.0),
    ("problem.r", lambda v: prepare(replace(LINEAR, r=v)), "budget", 0.0),
    ("problem.u_max", lambda v: prepare(_channel(u_max=v)), "u_max", 0.0),
    ("problem.cost.v", lambda v: prepare(_channel(v=v)), "cost rate v", 0.0),
    ("problem.cost.a", lambda v: prepare(_channel(kind="power", a=v)), "cost exponent", 0.0),
]
# None means the default for these: the default epsilon and radius.
REAL_PARAMETERS_WITH_DEFAULT = [
    ("solve_sigmoid.epsilon", lambda v: solve_sigmoid(SIGMOID, epsilon=v), "epsilon", 0.0),
    ("run_sweep.radius", lambda v: run_sweep([20], 1, 1, radius=v), "radius", 0.0),
    ("sweep_instance.radius", lambda v: sweep_instance(20, 0, 1, radius=v), "radius", 0.0),
]


def _cases(params, bad, allow_none=False):
    for pid, call, name, below in params:
        values = [v for v in bad if not (allow_none and v is None)] + [below]
        for v in values:
            yield pytest.param(call, name, v, id=f"{pid}={v!r}")


def _shown(value) -> str:
    """How a message shows the value passed: repr for one that is not a real number."""
    return repr(value) if isinstance(value, (str, bool)) or value is None else str(value)


def _assert_rejected(call, name, value):
    with pytest.raises((ValidationError, ContractError)) as info:
        call(value)
    message = str(info.value)
    assert name in message and f"got {_shown(value)}" in message, message


@pytest.mark.parametrize(
    "call, name, value",
    list(_cases(INTEGER_PARAMETERS, NOT_INTEGER)) + list(_cases(INTEGER_PARAMETERS_WITH_DEFAULT, NOT_INTEGER, True)),
)
def test_integer_parameter(call, name, value):
    _assert_rejected(call, name, value)


@pytest.mark.parametrize(
    "call, name, value",
    list(_cases(REAL_PARAMETERS, NOT_REAL)) + list(_cases(REAL_PARAMETERS_WITH_DEFAULT, NOT_REAL, True)),
)
def test_real_parameter(call, name, value):
    _assert_rejected(call, name, value)


@pytest.mark.parametrize("ns", [5, None, 2.5, True, [[20]]], ids=repr)
def test_sweep_sizes_that_are_not_a_list_of_integers(ns):
    _assert_rejected(lambda v: run_sweep(v, 1, 1), "ns", ns)


def test_a_real_number_of_numpy_type_prints_as_a_number():
    with pytest.raises(ValidationError, match=r"^radius must be positive, got -1\.5$"):
        random_geometric_graph(20, np.float64(-1.5), 1)
    with pytest.raises(ContractError, match=r"^threshold shift must be finite, got nan$"):
        linear_bounds(COEFFS[0], np.float64("nan"))


def test_an_int_too_large_for_a_float_is_not_finite():
    with pytest.raises(ContractError, match="^epsilon must be finite, got 1000"):
        late_deciders(SIGMOID.objective.theta, SIGMOID.objective, 10**400)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: late_deciders(x, SIGMOID.objective, 0.05),
        lambda x: objective_value(SIGMOID.objective, x),
        lambda x: objective_value(LINEAR.objective, x),
        lambda x: terminal_costate(SIGMOID.objective, x),
    ],
    ids=["late_deciders", "objective_value-sigmoid", "objective_value-linear", "terminal_costate"],
)
@pytest.mark.parametrize("size", [6, 8])
def test_a_state_of_the_wrong_length_is_a_contract_error(call, size):
    with pytest.raises(ContractError, match=rf"^terminal state has shape \({size},\), expected "):
        call(np.zeros(size))


def test_a_batch_of_states_is_one_objective_per_state():
    batch = np.zeros((3, LINEAR.n))
    assert objective_value(LINEAR.objective, batch).shape == (3,)
    with pytest.raises(ContractError, match=r"expected \(7,\)"):
        late_deciders(batch, SIGMOID.objective, 0.05)


@pytest.mark.parametrize(
    "lap, match",
    [
        (np.zeros((2, 3)), r"has shape \(2, 3\)"),
        (np.zeros(3), r"has shape \(3,\)"),
        (np.zeros((0, 0)), r"has shape \(0, 0\)"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
        (np.array([[1.0, -1.0], [-1.0, np.inf]]), "non-finite"),
        ([["a", "b"], ["c", "d"]], "must be a real matrix"),
    ],
    ids=["non-square", "1-d", "empty", "nan", "inf", "strings"],
)
def test_spectral_decompose_rejects_what_is_not_a_finite_square_matrix(lap, match):
    with pytest.raises(ContractError, match=match):
        spectral_decompose(lap)


@pytest.mark.parametrize("n", [0, 1])
def test_default_radius_takes_two_agents_or_more(n):
    with pytest.raises(ValidationError, match=f"^agent count must be at least 2, got {n}$"):
        default_radius(n)


def test_sweep_seeds_are_reported_as_passed():
    # The graph seed is derived from base_seed and instance; the caller's value is named.
    with pytest.raises(ValidationError, match="^base_seed must be at least 0, got -1$"):
        run_sweep([20], 1, -1)
    with pytest.raises(ValidationError, match="^instance must be an integer, got 0.5$"):
        sweep_instance(20, 0.5, 1)


# A channel schedule checks its intervals when it is built: sorted, disjoint pairs of reals with 0 <= lo <= hi < inf.
@pytest.mark.parametrize(
    "intervals, match",
    [
        (((0.5, 0.7), (0.6, 0.9)), r"^schedule interval \(0\.6, 0\.9\) starts before the last ends, at 0\.7$"),
        (((0.6, 0.9), (0.1, 0.2)), r"^schedule interval \(0\.1, 0\.2\) starts before the last ends, at 0\.9$"),
        ((("a", 1.0),), r"^schedule interval must be a pair of real numbers, got \('a', 1\.0\)$"),
        (((0.5, True),), r"^schedule interval must be a pair of real numbers, got \(0\.5, True\)$"),
        (((0.5, 0.6, 0.7),), r"^schedule interval must be a pair of real numbers, got \(0\.5, 0\.6, 0\.7\)$"),
        ((0.5,), r"^schedule interval must be a pair of real numbers, got 0\.5$"),
        (((-3.0, 20.0),), r"^schedule interval \(-3\.0, 20\.0\) must have 0 <= lo <= hi < inf$"),
        (((0.7, 0.5),), r"^schedule interval \(0\.7, 0\.5\) must have 0 <= lo <= hi < inf$"),
        (((0.5, NAN),), r"^schedule interval \(0\.5, nan\) must have 0 <= lo <= hi < inf$"),
        (((0.5, INF),), r"^schedule interval \(0\.5, inf\) must have 0 <= lo <= hi < inf$"),
    ],
    ids=["overlapping", "unsorted", "string", "bool", "triple", "scalar", "beyond-horizon", "reversed", "nan", "inf"],
)
def test_schedule_intervals(intervals, match):
    with pytest.raises(ContractError, match=match):
        ChannelSchedule(u_max=1.0, intervals=intervals)


# Each schedule reader checks that the schedule fits: each channel ends by T, one channel per problem channel.
SCHEDULE_READERS = {
    "terminal_state": lambda s: terminal_state(PREP, s),
    "simulate": lambda s: simulate(LINEAR, s, steps=64),
    "closed_form_gain": lambda s: closed_form_gain(RATES, COEFFS, LINEAR.T, s),
}
ONE_CHANNEL_MESSAGES = {
    "terminal_state": r"^schedule has 1 channels, problem has 2$",
    "simulate": r"^schedule has 1 channels, problem has 2$",
    "closed_form_gain": r"^coefficients have shape \(2, \d+\), expected \(1, \d+\): one row per schedule channel$",
}


@pytest.mark.parametrize("reader", SCHEDULE_READERS)
@pytest.mark.parametrize("case", ["beyond-horizon", "one-channel"])
def test_schedule_fit(reader, case):
    if case == "beyond-horizon":
        channels = (ChannelSchedule(1.0, ((0.5, 1.0), (5.0, 20.0))), ChannelSchedule(1.0, ()))
        match = r"^schedule channel 1: interval \(5\.0, 20\.0\) outside \[0, 10\.0\]$"
    else:
        channels, match = (ChannelSchedule(1.0, ((0.5, 1.0),)),), ONE_CHANNEL_MESSAGES[reader]
    with pytest.raises(ContractError, match=match):
        SCHEDULE_READERS[reader](BangBangSchedule(channels=channels))


@pytest.mark.parametrize("reader", SCHEDULE_READERS)
def test_schedule_ending_at_horizon_fits(reader):
    # A channel may stay on to the end: the fit check admits a last interval that ends at T itself.
    channels = (ChannelSchedule(1.0, ((0.5, 1.0), (9.0, LINEAR.T))), ChannelSchedule(1.0, ()))
    SCHEDULE_READERS[reader](BangBangSchedule(channels=channels))


@pytest.mark.parametrize(
    "a, b",
    [
        (-5.0, 3.0), (3.0, 1.0), (0.0, 50.0), ("x", 1.0), (0.0, "1"), (True, 1.0), (NAN, 1.0),
        (np.array([0.0, 2.0]), np.array([1.0, 1.5])),
    ],
    ids=["below-zero", "reversed", "beyond-horizon", "string", "string-end", "bool", "nan", "one-reversed-entry"],
)
def test_integrate_h_endpoints(a, b):
    with pytest.raises(ContractError, match=r"^integration bounds must be reals with 0 <= a <= b <= T = 10\.0, got a="):
        integrate_h(RATES, COEFFS[0], LINEAR.T, a, b)


@pytest.mark.parametrize(
    "levels, match",
    [
        (0.5, r"got 0\.5$"),
        (None, r"got None$"),
        ((0.5, 0.5), r"got \(0\.5, 0\.5\)$"),
        ((0.75, 0.5, 0.75), r"got \(0\.75, 0\.5, 0\.75\)$"),
    ],
    ids=["number", "none", "duplicate", "duplicate-apart"],
)
def test_interior_levels(levels, match):
    with pytest.raises(ContractError, match="^interior levels must be distinct and inside \\(0, 1\\), " + match):
        enumerate_best(PREP, EnumerationSpec(4, interior_levels=levels))
