"""Self-contained lab for simulating and auto-tuning a proactive MANET
routing protocol over vehicular scenarios."""

from .fitness import DEFAULT_WEIGHTS, Evaluation, FitnessWeights, OlsrObjective, comm_cost
from .netsim import QosMetrics, Simulator, collect_metrics, run_simulation
from .olsr import ControlMessage, NodeState, OlsrConfig, compute_routing_table, select_mprs
from .optimizers import OptimizerConfig, RunRecord, optimize, search
from .params import ParamSpace, decode_params, default_param_space
from .scenario import (
    CbrSession,
    MobilityTrace,
    RadioMacParams,
    ScenarioSpec,
    catalog,
    generate_random_waypoint,
    load_scenario,
    position_at,
    save_scenario,
)
from .stats import friedman_mean_ranks, kruskal_wallis, summary_table

__version__ = "0.1.0"
