"""Secrecy-throughput design for a switched full-duplex/half-duplex
jamming receiver on a device-to-device link with Poisson-distributed
eavesdroppers.

The package splits into:

- :mod:`fdjam.params`    scenario types, validation, solution (de)serialization
- :mod:`fdjam.analytics` outage probability (fixed-node quadrature and
  closed form), throughput expressions, comparison metrics
- :mod:`fdjam.optimizer` the off-line design: rates, on-off threshold,
  jamming power, mode-switch threshold
- :mod:`fdjam.online`    the per-slot transmit decision
- :mod:`fdjam.sim`       Monte Carlo oracle and slot-level simulator
- :mod:`fdjam.cli`       the ``fdjam`` command-line front end
"""

__version__ = "0.1.0"

from .analytics import (ComparisonMetrics, comparison_metrics, hd_weight,
                        sop_approx, sop_exact, throughput_fd, throughput_hd)
from .errors import InfeasibleError, ValidationError
from .online import Action, Mode, decide
from .optimizer import (GridSpec, Step1Result, Step2Result, optimize,
                        solve_step1, solve_step2, v_of_y)
from .params import (FdParams, HdParams, SwitchedSolution, SystemParams,
                     validate)
from .sim import McEstimate, SimReport, empirical_sop, run_online
from .units import dbm_to_watts, db_to_linear, linear_to_db, watts_to_dbm

__all__ = [
    "__version__",
    # errors
    "ValidationError", "InfeasibleError",
    # units
    "dbm_to_watts", "watts_to_dbm", "db_to_linear", "linear_to_db",
    # params
    "SystemParams", "FdParams", "HdParams", "SwitchedSolution", "validate",
    # analytics
    "ComparisonMetrics", "sop_exact", "sop_approx", "throughput_fd",
    "throughput_hd", "hd_weight", "comparison_metrics",
    # optimizer
    "GridSpec", "Step1Result", "Step2Result", "v_of_y",
    "solve_step1", "solve_step2", "optimize",
    # online
    "Mode", "Action", "decide",
    # sim
    "McEstimate", "SimReport", "empirical_sop", "run_online",
]
