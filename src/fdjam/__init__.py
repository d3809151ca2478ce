"""Secrecy-throughput design for a switched full-duplex/half-duplex
jamming receiver on a device-to-device link with Poisson-distributed
eavesdroppers.

The package splits into:

- :mod:`fdjam.params`    the base module: scenario types and validation, the
  error types, dB/linear units, the design grid, the step records, and
  solution (de)serialization
- :mod:`fdjam.analytics` outage probability (fixed-node quadrature and
  closed form), throughput expressions, comparison metrics
- :mod:`fdjam.optimizer` the off-line design: rates, on-off threshold,
  jamming power, mode-switch threshold
- :mod:`fdjam.online`    the per-slot transmit decision
- :mod:`fdjam.sim`       Monte Carlo oracle and slot-level simulator
- :mod:`fdjam.config`    INI configuration for scenarios, grids and sweeps
- :mod:`fdjam.cli`       the ``fdjam`` command-line front end

Each module imports only from modules above it in this list: params ->
analytics -> optimizer, params -> online -> sim, params -> config, and cli from
all of them.
"""

__version__ = "0.1.0"

from .analytics import (ComparisonMetrics, comparison_metrics, hd_weight,
                        sop_approx, sop_exact, throughput_fd, throughput_hd)
from .online import Action, Mode, decide
from .optimizer import optimize, solve_step1, solve_step2, v_of_y
from .params import (FdParams, GridSpec, HdParams, InfeasibleError,
                     Step1Result, Step2Result, SwitchedSolution, SystemParams,
                     ValidationError, db_to_linear, dbm_to_watts,
                     linear_to_db, validate, watts_to_dbm)
from .sim import McEstimate, SimReport, empirical_sop, run_online

__all__ = [
    "__version__",
    # params: errors, units, scenario, grid, step records, solution
    "ValidationError", "InfeasibleError",
    "dbm_to_watts", "watts_to_dbm", "db_to_linear", "linear_to_db",
    "SystemParams", "FdParams", "HdParams", "SwitchedSolution", "validate",
    "GridSpec", "Step1Result", "Step2Result",
    # analytics
    "ComparisonMetrics", "sop_exact", "sop_approx", "throughput_fd",
    "throughput_hd", "hd_weight", "comparison_metrics",
    # optimizer
    "v_of_y", "solve_step1", "solve_step2", "optimize",
    # online
    "Mode", "Action", "decide",
    # sim
    "McEstimate", "SimReport", "empirical_sop", "run_online",
]
