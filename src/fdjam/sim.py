"""Monte Carlo oracle and end-to-end slot simulator.

Eavesdroppers are realized as a Poisson point process on a disk of radius
``r_cut`` around the transmitter (the analysis integrates over the whole
plane; choose ``r_cut`` so the straggler contribution is negligible and
check it with the doubling test in the suite).  All fading gains are
unit-mean exponentials drawn by inverse CDF, ``-log1p(-U)``, from numpy's
PCG64 generator, so a (seed, numpy-version) pair pins every result bit for
bit.

Reproducibility and parallelism contract: trial/slot ``i`` of a run with
master seed ``s`` draws from the dedicated substream
``default_rng((s, domain, i))`` (domain 0 for field/outage trials, 1 for
on-line slots).  Results are therefore independent of evaluation order and
safe to shard across workers, as long as the per-index mapping is kept.

Per-trial draw order (fixed, part of the reproducibility contract):
count ~ Poisson(lambda_e * pi * r_cut^2), then squared radii (area-uniform),
azimuths, signal-path gains, jamming-path gains; the on-line simulator draws
the main-channel and self-interference gains before any field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ValidationError
from .online import Mode, decide
from .params import SwitchedSolution, SystemParams

__all__ = [
    "McEstimate",
    "ModeCounts",
    "SimReport",
    "sub_rng",
    "empirical_sop",
    "run_online",
]


def sub_rng(seed: int, domain: int, index: int) -> np.random.Generator:
    """Dedicated substream for one trial/slot of one experiment domain."""
    return np.random.default_rng((seed, domain, index))


def _exponential(rng: np.random.Generator, n: int | None = None):
    """Unit-mean exponential by inverse CDF (stable across numpy versions)."""
    return -np.log1p(-rng.random(n))


def _draw_field(rng: np.random.Generator, lambda_e: float, r_cut: float
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d_ak^2, theta, gamma_ak, gamma_bk) for one PPP realization."""
    n = int(rng.poisson(lambda_e * math.pi * r_cut * r_cut))
    d_ak2 = rng.random(n) * (r_cut * r_cut)   # area-uniform radii
    theta = rng.random(n) * (2.0 * math.pi)
    gamma_ak = _exponential(rng, n)
    gamma_bk = _exponential(rng, n)
    return d_ak2, theta, gamma_ak, gamma_bk


def _max_eve_sinr(d_ak2: np.ndarray, theta: np.ndarray, gamma_ak: np.ndarray,
                  gamma_bk: np.ndarray, p_a: float, p_b: float,
                  params: SystemParams) -> float:
    """Largest per-eavesdropper SINR in a field; -inf for an empty field."""
    if d_ak2.size == 0:
        return -math.inf
    half = params.alpha / 2.0
    signal = p_a * gamma_ak * d_ak2 ** (-half)
    if p_b > 0.0:
        d_bk2 = (params.d_ab * params.d_ab + d_ak2
                 - 2.0 * params.d_ab * np.sqrt(d_ak2) * np.cos(theta))
        interference = params.sigma_e2 + p_b * gamma_bk * d_bk2 ** (-half)
    else:
        interference = params.sigma_e2
    return float(np.max(signal / interference))


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo probability estimate with its binomial standard error."""

    value: float
    stderr: float
    n_trials: int


def empirical_sop(p_a: float, p_b: float, r_c: float, r_s: float,
                  params: SystemParams, n_trials: int, r_cut: float,
                  seed: int) -> McEstimate:
    """Fraction of field realizations whose best eavesdropper SINR exceeds
    2^(r_c - r_s) - 1.

    Transmit powers are held fixed across trials (this is the oracle for the
    closed-form outage expressions, not the adaptive on-line scheme).
    """
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1: {n_trials}")
    if r_cut <= 0.0:
        raise ValidationError(f"r_cut must be > 0 m: {r_cut}")
    if r_s > r_c:
        raise ValidationError(f"require r_s <= r_c, got r_s={r_s}, r_c={r_c}")
    x = 2.0 ** (r_c - r_s) - 1.0
    hits = 0
    for i in range(n_trials):
        rng = sub_rng(seed, 0, i)
        field = _draw_field(rng, params.lambda_e, r_cut)
        if _max_eve_sinr(*field, p_a, p_b, params) > x:
            hits += 1
    p = hits / n_trials
    return McEstimate(value=p, stderr=math.sqrt(p * (1.0 - p) / n_trials),
                      n_trials=n_trials)


@dataclass(frozen=True)
class ModeCounts:
    fd: int
    hd: int
    silent: int


@dataclass(frozen=True)
class SimReport:
    """Empirical performance of a designed link over ``n_slots`` slots.

    ``empirical_sop`` conditions on transmission; the throughput counts the
    active mode's secrecy rate on every slot that transmits with a reliable
    connection.  Standard errors are binomial for the probabilities and the
    plug-in sample formula for the throughput.
    """

    n_slots: int
    empirical_sop: float
    sop_stderr: float
    empirical_tx_prob: float
    tx_prob_stderr: float
    empirical_throughput: float
    throughput_stderr: float
    mode_counts: ModeCounts
    secrecy_outages: int
    connection_outages: int
    transmissions: int


# Reliability slack: the power rule meets the codeword rate with equality,
# so anything below r_c by more than roundoff counts as a connection outage.
_CONNECTION_RTOL = 1e-9


def run_online(solution: SwitchedSolution, params: SystemParams, n_slots: int,
               r_cut: float, seed: int) -> SimReport:
    """Simulate the per-slot decision rule end to end.

    Every slot draws fresh channel gains, applies :func:`fdjam.online.decide`,
    and, when transmitting, draws an eavesdropper field to test for secrecy
    outage against the active mode's rate gap.  Connection outages are
    counted (never expected: the transmit power is set to close the link
    budget exactly) rather than silently ignored.
    """
    if n_slots < 1:
        raise ValidationError(f"n_slots must be >= 1: {n_slots}")
    if r_cut <= 0.0:
        raise ValidationError(f"r_cut must be > 0 m: {r_cut}")

    thresholds = {
        Mode.FD: 2.0 ** (solution.fd.r_c - solution.fd.r_s) - 1.0,
        Mode.HD: 2.0 ** (solution.hd.r_c - solution.hd.r_s) - 1.0,
    }
    rates = {Mode.FD: (solution.fd.r_c, solution.fd.r_s),
             Mode.HD: (solution.hd.r_c, solution.hd.r_s)}
    loss = params.d_ab ** (-params.alpha)

    n_fd = n_hd = 0
    secrecy_outages = connection_outages = 0
    throughput_sum = 0.0
    throughput_sq_sum = 0.0

    for i in range(n_slots):
        rng = sub_rng(seed, 1, i)
        gamma_ab = float(_exponential(rng))
        gamma_bb = float(_exponential(rng))
        action = decide(gamma_ab, gamma_bb, solution, params)
        if not action.transmitting:
            continue
        if action.mode is Mode.FD:
            n_fd += 1
            si = params.rho * action.p_b * gamma_bb
        else:
            n_hd += 1
            si = 0.0
        r_c, r_s = rates[action.mode]

        field = _draw_field(rng, params.lambda_e, r_cut)
        if _max_eve_sinr(*field, action.p_a, action.p_b, params) > thresholds[action.mode]:
            secrecy_outages += 1

        c_b = math.log2(1.0 + action.p_a * gamma_ab * loss
                        / (params.sigma_b2 + si))
        if c_b < r_c * (1.0 - _CONNECTION_RTOL):
            connection_outages += 1
        else:
            throughput_sum += r_s
            throughput_sq_sum += r_s * r_s

    transmissions = n_fd + n_hd
    tx_prob = transmissions / n_slots
    if transmissions > 0:
        sop = secrecy_outages / transmissions
        sop_stderr = math.sqrt(sop * (1.0 - sop) / transmissions)
    else:
        sop, sop_stderr = 0.0, 0.0
    mean_tp = throughput_sum / n_slots
    var_tp = max(0.0, throughput_sq_sum / n_slots - mean_tp * mean_tp)
    return SimReport(
        n_slots=n_slots,
        empirical_sop=sop,
        sop_stderr=sop_stderr,
        empirical_tx_prob=tx_prob,
        tx_prob_stderr=math.sqrt(tx_prob * (1.0 - tx_prob) / n_slots),
        empirical_throughput=mean_tp,
        throughput_stderr=math.sqrt(var_tp / n_slots),
        mode_counts=ModeCounts(fd=n_fd, hd=n_hd, silent=n_slots - transmissions),
        secrecy_outages=secrecy_outages,
        connection_outages=connection_outages,
        transmissions=transmissions,
    )
