"""Optimal influence-budget allocation over consensus networks.

Spectral water-filling produces exact bang-bang schedules for linear
objectives, certifies switch-count bounds, and cross-checks everything
against simulation and brute-force enumeration oracles.
"""

from .bundles import seven_agent_problem, seven_agent_sigmoid_problem
from .costate import integrate_h, terminal_costate
from .dynamics import Trajectory, closed_form_gain, objective_value, simulate, terminal_state
from .errors import ContractError, NumericalError, ValidationError
from .graph import (
    SpectralDecomposition,
    WeightedGraph,
    build_laplacian,
    random_geometric_graph,
    spectral_decompose,
)
from .oracle import EnumerationSpec, OracleResult, enumerate_best, grid_slack
from .problem import (
    CampaignProblem,
    Channel,
    CostModel,
    Drift,
    Objective,
    Prepared,
    check_conditions,
    prepare,
    problem_from_dict,
    problem_to_dict,
    validate_problem,
)
from .sigmoid import LateDeciderSet, SigmoidSolution, late_deciders, solve_sigmoid
from .sweep import run_sweep
from .waterfill import (
    BangBangSchedule,
    ChannelSchedule,
    WaterfillSolution,
    solve,
    solve_with_costate,
)

__version__ = "0.1.0"
