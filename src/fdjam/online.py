"""Per-slot transmit decision for a designed switched FD/HD link.

Everything heavy happens off-line in :mod:`fdjam.optimizer`; the slot-rate
work is one stateless rule: compare two gains against two thresholds and,
when transmitting, set the transmit power that makes the main channel
support the mode's codeword rate with equality.  :func:`decide_slots`
applies it to arrays of slots (the simulator's kernel) and :func:`decide`
to one slot.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .errors import ValidationError
from .params import SwitchedSolution, SystemParams

__all__ = ["Mode", "Action", "decide", "decide_slots"]

# Relative slack on the power-budget guarantee; the boundary case lands on
# the budget exactly up to roundoff.
_BUDGET_RTOL = 1e-9


class Mode(Enum):
    SILENT = "silent"
    FD = "fd"
    HD = "hd"


@dataclass(frozen=True)
class Action:
    """One slot's decision: stay silent or transmit in one of the two modes.

    ``p_a`` is Alice's transmit power and ``p_b`` the receiver's jamming
    power; both are zero when silent and ``p_b`` is zero in HD mode.
    """

    mode: Mode
    p_a: float = 0.0
    p_b: float = 0.0


def _path_gain(params: SystemParams) -> float:
    """The main channel's path gain d_ab^-alpha; ValidationError where it is
    not a normal double, as the transmit power it sets would overflow."""
    try:
        gain = params.d_ab ** (-params.alpha)
    except OverflowError:
        gain = math.inf
    if not sys.float_info.min <= gain < math.inf:
        raise ValidationError(
            f"path gain d_ab^-alpha = {gain} at d_ab = {params.d_ab} m and "
            f"alpha = {params.alpha} is outside the normal double range")
    return gain


def decide_slots(gamma_ab: np.ndarray, gamma_bb: np.ndarray,
                 solution: SwitchedSolution, params: SystemParams
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Map each slot's channel gains to a transmit action, as arrays.

    Returns ``(fd, hd, p_a, p_b)``: masks of the slots that transmit in FD
    and in HD mode, and each slot's powers (zero when silent; ``p_b`` is
    also zero in HD mode).

    Residual self-interference at or below the switch threshold selects the
    jamming branch (ties jam; mu_b = 0, the pure half-duplex design, never
    jams, as in :func:`~fdjam.analytics.hd_weight`); within a branch,
    transmission happens only if the main-channel gain clears that branch's
    on-off threshold.  The
    transmit power inverts the main-channel capacity at the branch's
    codeword rate, so the realized capacity equals the rate exactly and the
    power never exceeds the budget (equality at the threshold corner).
    """
    gamma_ab = np.asarray(gamma_ab, dtype=float)
    gamma_bb = np.asarray(gamma_bb, dtype=float)
    bad = np.flatnonzero(~((gamma_ab >= 0.0) & (gamma_bb >= 0.0)))   # NaN too
    if bad.size:
        i = bad[0]
        raise ValidationError(
            f"channel gains must be >= 0: gamma_ab={float(gamma_ab[i])}, "
            f"gamma_bb={float(gamma_bb[i])}")
    fd, hd = solution.fd, solution.hd
    jam = (solution.mu_b > 0.0) & (params.rho * gamma_bb <= solution.mu_b)
    is_fd = jam & (gamma_ab >= fd.mu_a)
    is_hd = ~jam & (gamma_ab >= hd.mu_a)
    tx = is_fd | is_hd

    noise = np.where(is_fd, params.sigma_b2 + params.rho * fd.p_b * gamma_bb,
                     params.sigma_b2)
    rate = np.where(is_fd, 2.0 ** fd.r_c - 1.0, 2.0 ** hd.r_c - 1.0)
    p_a = np.zeros(gamma_ab.shape)
    p_a[tx] = rate[tx] * noise[tx] / (gamma_ab[tx] * _path_gain(params))
    over = np.flatnonzero(p_a > params.p_a_max * (1.0 + _BUDGET_RTOL))
    if over.size:
        raise ValidationError(
            f"required transmit power {float(p_a[over[0]])} W exceeds p_a_max "
            f"{params.p_a_max} W; the solution violates its threshold invariants")
    return (is_fd, is_hd, np.minimum(p_a, params.p_a_max),
            np.where(is_fd, fd.p_b, 0.0))


def decide(gamma_ab: float, gamma_bb: float, solution: SwitchedSolution,
           params: SystemParams) -> Action:
    """One slot's transmit action: :func:`decide_slots` on a single slot."""
    is_fd, is_hd, p_a, p_b = decide_slots(
        np.array([gamma_ab]), np.array([gamma_bb]), solution, params)
    if is_fd[0]:
        return Action(Mode.FD, p_a=float(p_a[0]), p_b=float(p_b[0]))
    if is_hd[0]:
        return Action(Mode.HD, p_a=float(p_a[0]))
    return Action(Mode.SILENT)
