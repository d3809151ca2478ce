"""Domain types for the switched FD/HD jamming-receiver link design.

All types are immutable value objects.  Construction performs no checking;
call :func:`validate` (done automatically by the config loader and the
optimizer) to enforce the physical invariants.  This split lets simulation
code exercise degenerate corners, e.g. ``lambda_e = 0`` for an empty
eavesdropper field, that the optimizer itself rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from .errors import ValidationError
from .units import dbm_to_watts, db_to_linear, linear_to_db, watts_to_dbm

if TYPE_CHECKING:
    from .optimizer import Step1Result, Step2Result

__all__ = [
    "SystemParams",
    "FdParams",
    "HdParams",
    "SwitchedSolution",
    "DerivedConstants",
    "validate",
    "derived_constants",
    "solution_to_dict",
    "solution_from_dict",
]


@dataclass(frozen=True)
class SystemParams:
    """Static scenario description.

    Powers and noise levels are linear watts (configure in dBm at the file
    boundary); ``rho`` is a linear self-interference power ratio; distances
    are meters; ``lambda_e`` is the eavesdropper density per square meter.
    """

    alpha: float          # path-loss exponent, >= 2
    d_ab: float           # Alice-Bob distance [m], > 0
    lambda_e: float       # eavesdropper PPP intensity [1/m^2], > 0
    sigma_b2: float       # Bob noise power [W], > 0
    sigma_e2: float       # eavesdropper noise power [W], > 0
    rho: float            # residual SI suppression factor, in [0, 1]
    epsilon: float        # secrecy outage bound, in (0, 1)
    p_a_max: float        # Alice power budget [W], > 0
    p_b_max: float        # Bob jamming power budget [W], >= 0


# (field, admissible range, message when out of range), in checking order
_CHECKS = (
    ("alpha", lambda v: v >= 2.0, "alpha below 2: {}"),
    ("d_ab", lambda v: v > 0.0, "d_ab must be > 0 m: {}"),
    ("lambda_e", lambda v: v > 0.0, "lambda_e must be > 0 per m^2: {}"),
    ("sigma_b2", lambda v: v > 0.0, "sigma_b2 must be > 0 W: {}"),
    ("sigma_e2", lambda v: v > 0.0, "sigma_e2 must be > 0 W: {}"),
    ("rho", lambda v: 0.0 <= v <= 1.0, "rho out of [0,1]: {}"),
    ("epsilon", lambda v: 0.0 < v < 1.0, "epsilon out of (0,1): {}"),
    ("p_a_max", lambda v: v > 0.0, "p_a_max must be > 0 W: {}"),
    ("p_b_max", lambda v: v >= 0.0, "p_b_max must be >= 0 W: {}"),
)


def validate(params: SystemParams) -> SystemParams:
    """Return ``params`` unchanged if every invariant holds.

    Raises :class:`ValidationError` naming the violated field otherwise;
    every range is checked before any finiteness.
    """
    for name, ok, message in _CHECKS:
        value = getattr(params, name)
        if not ok(value):
            raise ValidationError(message.format(value))
    for name, _, _ in _CHECKS:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite: {value}")
    return params


@dataclass(frozen=True)
class FdParams:
    """Optimized transceiver group for the full-duplex (jamming) mode."""

    r_c: float    # codeword rate [bits/s/Hz], > 0
    r_s: float    # secrecy rate [bits/s/Hz], 0 < r_s < r_c
    mu_a: float   # on-off threshold on the main-channel gain, > 0
    p_b: float    # jamming power [W], > 0


@dataclass(frozen=True)
class HdParams:
    """Optimized transceiver group for the half-duplex (silent-receiver) mode."""

    r_c: float
    r_s: float
    mu_a: float


@dataclass(frozen=True)
class SwitchedSolution:
    """Full off-line design output: both parameter groups plus the mode switch.

    The receiver jams (FD group) while ``rho * gamma_bb <= mu_b`` and stays
    silent (HD group) otherwise.  ``omega_s = omega_fd + omega_hd`` is the
    predicted secrecy throughput in bits/s/Hz.

    A solution returned by :func:`fdjam.optimizer.optimize` also carries
    the solver records it was built from: ``step2``, the jamming group's
    step-2 record, and ``hd_result``, the step-1 record at zero jamming that
    ``hd`` is taken from (see there).  They are diagnostics only: not
    serialized, not compared, and ``None`` on a solution built any other
    way.
    """

    mu_b: float
    fd: FdParams
    hd: HdParams
    omega_s: float
    omega_fd: float
    omega_hd: float
    # True when the jamming-power search hit the configured floor because the
    # throughput decreases over the whole jamming range (FD degenerates to HD).
    degenerate_fd: bool = False
    # True when the optimal jamming power is the budget p_b_max itself.
    capped_fd: bool = False
    step2: Optional[Step2Result] = field(default=None, compare=False, repr=False)
    hd_result: Optional[Step1Result] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class DerivedConstants:
    """Scenario constants shared by the secrecy-outage and optimizer algebra.

    ``beta`` folds the path-loss exponent into the eavesdropper-field
    geometry factor (2*pi/alpha)*Gamma(2/alpha); ``tau`` is the largest
    admissible field exposure -ln(1-epsilon)/(beta*lambda_e); ``u`` and
    ``varpi`` are the power-budget coefficients d_ab^alpha*(sigma_b2 +
    p_b*mu_b)/p_a_max and d_ab^alpha*mu_b/p_a_max (so du/dp_b = varpi);
    ``eta`` is 2/alpha.
    """

    beta: float
    tau: float
    u: float
    varpi: float
    eta: float


def _beta_eta(alpha: float) -> Tuple[float, float]:
    """Field geometry factor beta = (2*pi/alpha)*Gamma(2/alpha) and eta = 2/alpha."""
    return (2.0 * math.pi / alpha) * math.gamma(2.0 / alpha), 2.0 / alpha


def derived_constants(params: SystemParams, p_b: float, mu_b: float) -> DerivedConstants:
    """Evaluate the derived constants at a given jamming power and switch threshold."""
    if p_b < 0.0:
        raise ValidationError(f"p_b must be >= 0 W: {p_b}")
    if mu_b < 0.0:
        raise ValidationError(f"mu_b must be >= 0: {mu_b}")
    beta, eta = _beta_eta(params.alpha)
    tau = -math.log1p(-params.epsilon) / (beta * params.lambda_e)
    d_pow = params.d_ab ** params.alpha
    u = d_pow * (params.sigma_b2 + p_b * mu_b) / params.p_a_max
    varpi = d_pow * mu_b / params.p_a_max
    return DerivedConstants(beta=beta, tau=tau, u=u, varpi=varpi, eta=eta)


def _group_to_dict(group) -> Dict[str, Any]:
    d: Dict[str, Any] = {"r_c": group.r_c, "r_s": group.r_s, "mu_a": group.mu_a}
    if isinstance(group, FdParams):
        d["p_b_w"] = group.p_b
        d["p_b_dbm"] = watts_to_dbm(group.p_b)
    return d


def solution_to_dict(solution: SwitchedSolution) -> Dict[str, Any]:
    """Serialize a solution with thresholds in both linear and dB form."""
    mu_b_db = linear_to_db(solution.mu_b) if solution.mu_b > 0.0 else None
    return {
        "mu_b": solution.mu_b,
        "mu_b_db": mu_b_db,
        "fd": _group_to_dict(solution.fd),
        "hd": _group_to_dict(solution.hd),
        "omega_s": solution.omega_s,
        "omega_fd": solution.omega_fd,
        "omega_hd": solution.omega_hd,
        "degenerate_fd": solution.degenerate_fd,
        "capped_fd": solution.capped_fd,
    }


def solution_from_dict(data: Dict[str, Any]) -> SwitchedSolution:
    """Inverse of :func:`solution_to_dict` (accepts dBm or watts for p_b)."""
    fd_d = data["fd"]
    p_b = fd_d["p_b_w"] if "p_b_w" in fd_d else dbm_to_watts(fd_d["p_b_dbm"])
    fd = FdParams(r_c=fd_d["r_c"], r_s=fd_d["r_s"], mu_a=fd_d["mu_a"], p_b=p_b)
    hd_d = data["hd"]
    hd = HdParams(r_c=hd_d["r_c"], r_s=hd_d["r_s"], mu_a=hd_d["mu_a"])
    mu_b = data["mu_b"] if data.get("mu_b") is not None else db_to_linear(data["mu_b_db"])
    return SwitchedSolution(
        mu_b=mu_b,
        fd=fd,
        hd=hd,
        omega_s=data["omega_s"],
        omega_fd=data["omega_fd"],
        omega_hd=data["omega_hd"],
        degenerate_fd=bool(data.get("degenerate_fd", False)),
        capped_fd=bool(data.get("capped_fd", False)),
    )
