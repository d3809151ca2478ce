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
from typing import TYPE_CHECKING, Any, Dict, Optional

from .errors import ValidationError
from .units import linear_to_db, watts_to_dbm

if TYPE_CHECKING:
    from .optimizer import Step1Result, Step2Result

__all__ = [
    "SystemParams",
    "FdParams",
    "HdParams",
    "SwitchedSolution",
    "validate",
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


def _number(data: Any, key: str, ok=lambda v: True, rule: str = "finite") -> float:
    """Field ``key`` (``group.field`` in a group) of a parsed solution as a
    float; ValidationError naming it unless it is a number passing ``ok``."""
    value = data
    for part in key.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    try:    # TypeError: not a number; OverflowError: an int past double range
        good = not isinstance(value, bool) and math.isfinite(value) and ok(value)
    except (TypeError, OverflowError):
        good = False
    if not good:
        raise ValidationError(f"solution field {key} " + (
            "is missing" if value is None else f"must be {rule}: {value!r}"))
    return float(value)


def _flag(data: Dict[str, Any], key: str) -> bool:
    """Flag ``key`` of a parsed solution: false when absent; otherwise it
    must be a JSON boolean, or ValidationError names it."""
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise ValidationError(
            f"solution field {key} must be true or false: {value!r}")
    return value


def solution_from_dict(data: Dict[str, Any]) -> SwitchedSolution:
    """Inverse of :func:`solution_to_dict`.  It reads the linear fields only
    (``fd.p_b_w``, ``mu_b``; the dB ones are for readers); a missing or bad
    field raises ValidationError, except that an absent flag
    (``degenerate_fd``, ``capped_fd``) reads as false."""
    if not isinstance(data, dict):
        raise ValidationError(f"solution must be an object: {type(data).__name__}")
    groups = {}
    for g in ("fd", "hd"):
        r_s = _number(data, g + ".r_s", lambda v: v > 0.0, "> 0")
        # below 1024 bits the power rule's 2^r_c - 1 stays within double range
        r_c = _number(data, g + ".r_c", lambda v: r_s < v < 1024.0, "in (r_s, 1024)")
        mu_a = _number(data, g + ".mu_a", lambda v: v >= 0.0, ">= 0")
        groups[g] = {"r_c": r_c, "r_s": r_s, "mu_a": mu_a}
    return SwitchedSolution(
        mu_b=_number(data, "mu_b", lambda v: v >= 0.0, ">= 0"),
        fd=FdParams(p_b=_number(data, "fd.p_b_w", lambda v: v > 0.0, "> 0 W"),
                    **groups["fd"]),
        hd=HdParams(**groups["hd"]),
        omega_s=_number(data, "omega_s"),
        omega_fd=_number(data, "omega_fd"),
        omega_hd=_number(data, "omega_hd"),
        degenerate_fd=_flag(data, "degenerate_fd"),
        capped_fd=_flag(data, "capped_fd"),
    )
