"""Shared oracle utilities for the test suite.

Apart from the reference scans at the end, the unthinned field sampler,
the block-at-a-time Monte Carlo engine and the scalar slot rule,
everything here deliberately avoids the package's own solvers: constraint
roots come from scipy's brentq or from closed forms, objectives are
evaluated from their raw formulas, and parameter sets are drawn from a
seeded generator so the same scenarios reproduce everywhere.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy import integrate
from scipy import optimize as sciopt
from scipy.special import hyp1f1, roots_legendre, wrightomega

from fdjam import (GridSpec, InfeasibleError, SystemParams, ValidationError,
                   dbm_to_watts, solve_step1, solve_step2)
from fdjam.analytics import _Outage, throughput_fd, throughput_hd
from fdjam.optimizer import _derivative_sign
from fdjam.params import (FdParams, HdParams, Step1Result, Step2Result,
                          SwitchedSolution, validate)
from fdjam.online import _BUDGET_RTOL, Action, Mode
from fdjam.online import decide_slots
from fdjam.sim import (_BLOCK, _CHUNK, _CONNECTION_RTOL, McEstimate, SimReport,
                       _report)


def vi_defaults(**overrides) -> SystemParams:
    """Baseline scenario used throughout: alpha 4, 10 m link, -90 dBm noise."""
    base = dict(alpha=4.0, d_ab=10.0, lambda_e=1e-4,
                sigma_b2=dbm_to_watts(-90.0), sigma_e2=dbm_to_watts(-90.0),
                rho=1e-7, epsilon=0.1,
                p_a_max=dbm_to_watts(10.0), p_b_max=dbm_to_watts(10.0))
    base.update(overrides)
    return SystemParams(**base)


def beta_of(alpha: float) -> float:
    return 2.0 * math.pi / alpha * math.gamma(2.0 / alpha)


def tau_of(params: SystemParams) -> float:
    return -math.log1p(-params.epsilon) / (beta_of(params.alpha) * params.lambda_e)


def yz_root_brentq(p_b: float, params: SystemParams) -> float:
    """Redundancy variable pinned by the outage constraint, via scipy brentq."""
    tau = tau_of(params)
    eta = 2.0 / params.alpha

    def f(log_s: float) -> float:
        s = math.exp(log_s)
        return (-math.log1p(s * p_b / params.p_a_max)
                - eta * math.log(s * params.sigma_e2 / params.p_a_max)
                - math.log(tau))

    return math.exp(sciopt.brentq(f, -600.0, 600.0, xtol=1e-13))


def mu_a_from_sop_constraint(r_c: float, r_s: float, p_b: float, mu_b: float,
                             params: SystemParams) -> float:
    """On-off threshold required by the outage constraint alone, via brentq.

    Inverts the worst-case outage exposure (evaluated at the on-off gain
    threshold and the switch-level residual SI) with respect to mu_a; the
    exposure is strictly decreasing in mu_a.  Independent of the step-1
    solve path on purpose: at a step-1 optimum it must reproduce
    mu_a = u * y_star.
    """
    k = 2.0 ** (r_c - r_s) - 1.0
    if k <= 0.0:
        raise ValidationError(f"require r_s < r_c, got r_s={r_s}, r_c={r_c}")
    den = (2.0 ** r_c - 1.0) * (params.sigma_b2 + p_b * mu_b)
    scale = k * params.d_ab ** (-params.alpha) / den
    log_tau = math.log(tau_of(params))
    eta = 2.0 / params.alpha

    def f(t: float) -> float:
        mu_a = math.exp(t)
        return (-math.log1p(p_b * scale * mu_a)
                - eta * math.log(params.sigma_e2 * scale * mu_a)
                - log_tau)

    return math.exp(sciopt.brentq(f, -600.0, 600.0, xtol=1e-13))


@dataclass(frozen=True)
class HdResult:
    """Half-duplex group by the closed-form route, with the residual of its
    rate condition."""

    hd: HdParams
    residual: float


def solve_hd(mu_b: float, params: SystemParams) -> HdResult:
    """The half-duplex design by a route of its own, as a reference for the
    package's step-1 solve at zero jamming.

    With zero jamming the outage constraint has the closed-form redundancy
    yz = (p_a_max/sigma_e2) * tau^(-alpha/2), and the rate optimality
    condition becomes a single increasing scalar equation in r_c,

        2^r_c * (r_c - log2(1 + yz)) = p_a_max / (sigma_b2 * d_ab^alpha * ln 2).

    In w = r_s*ln2, with r_s = r_c - log2(1 + yz), its logarithm reads
    w + ln w = ln k - ln2*log2(1 + yz) + ln ln2 (k the right-hand side), so w
    is the Wright omega function of that constant.  mu_a = u*(2^r_c - 1) is
    formed with expm1, so it stays exact on low-rate links.
    """
    validate(params)
    if mu_b < 0.0:
        raise ValidationError(f"mu_b must be >= 0: {mu_b}")
    ln2 = math.log(2.0)

    log_yz = (math.log(params.p_a_max / params.sigma_e2)
              - 0.5 * params.alpha * math.log(tau_of(params)))
    if not math.isfinite(log_yz):
        raise InfeasibleError(f"outage constraint unsatisfiable: log yz={log_yz}")
    c = float(np.logaddexp(0.0, log_yz)) / ln2    # log2(1 + yz)
    log_k = math.log(params.p_a_max) - math.log(params.sigma_b2) \
        - params.alpha * math.log(params.d_ab) - math.log(ln2)

    rhs = log_k - c * ln2
    if rhs < -690.0:
        raise InfeasibleError("half-duplex secrecy rate underflows")
    r_s = float(wrightomega(rhs + math.log(ln2))) / ln2
    r_c = c + r_s
    if r_c * ln2 > 700.0:
        raise InfeasibleError(
            f"half-duplex codeword rate beyond representable range: r_c={r_c}")
    mu_a = u_of(params, 0.0, mu_b) * math.expm1(r_c * ln2)
    # ln of 2^r_c * r_s / k, zero at the root
    residual = abs(math.expm1(r_c * ln2 + math.log(r_s) - log_k))
    return HdResult(hd=HdParams(r_c=r_c, r_s=r_s, mu_a=mu_a), residual=residual)


# Tail cutoff and relative tolerance of the adaptive exposure integral.
_TAIL_EXPONENT = 50.0
_QUAD_EPSREL = 1e-8


def exposure_integral_adaptive(x: float, p_a: float, p_b: float,
                               sigma_e2: float, alpha: float, d_ab: float) -> float:
    """J(x) by nested adaptive scipy ``quad``: the rule the package's
    fixed-node J replaced, kept as its reference.

    Integrates over u = (eavesdropper-to-transmitter distance)^2 and the
    azimuth theta, exploiting the theta -> 2*pi - theta symmetry.  The
    integrand has a sharp notch where an eavesdropper sits on top of the
    receiver (jamming diverges), so breakpoints around u = d_ab^2 are passed
    to the adaptive scheme.  Raises RuntimeError where ``quad`` does not
    converge (short links with weak jamming, e.g. d_ab = 0.2 m).
    """
    a = sigma_e2 * x / p_a            # radial decay coefficient
    q = p_b * x / p_a                 # jamming-to-signal weight
    half = alpha / 2.0
    u_cut = (_TAIL_EXPONENT / a) ** (1.0 / half)
    s = d_ab * d_ab

    def inner(theta: float) -> float:
        two_d_cos = 2.0 * d_ab * math.cos(theta)

        def f(u: float) -> float:
            d_bk2 = s + u - two_d_cos * math.sqrt(u)
            return math.exp(-a * u ** half) / (1.0 + q * (u / d_bk2) ** half)

        pts = sorted({p for p in (0.25 * s, s, 4.0 * s, a ** (-1.0 / half))
                      if 0.0 < p < u_cut})
        out = integrate.quad(f, 0.0, u_cut, points=pts or None,
                             limit=400, epsabs=0.0, epsrel=_QUAD_EPSREL * 0.1,
                             full_output=1)
        if len(out) > 3:
            raise RuntimeError(
                f"radial quadrature did not converge at theta={theta}: {out[3]}")
        return out[0]

    out = integrate.quad(inner, 0.0, math.pi, limit=200,
                         epsabs=0.0, epsrel=_QUAD_EPSREL, full_output=1)
    if len(out) > 3:
        raise RuntimeError(f"azimuthal quadrature did not converge: {out[3]}")
    val, abserr = out[0], out[1]
    if abserr > 10.0 * _QUAD_EPSREL * abs(val) + 1e-300:
        raise RuntimeError(
            f"quadrature error estimate {abserr} exceeds tolerance for J={val}")
    return 2.0 * val


def exposure_integral_refined(x: float, p_a: float, p_b: float,
                              sigma_e2: float, alpha: float, d_ab: float) -> float:
    """J(x) by a much finer fixed-node rule than the package's: 24
    Gauss-Legendre nodes per panel, radial panels at most 0.5 wide in
    t = ln u from 60 e-folds below the smallest length scale (link, decay
    or jamming transition t_link - ln(q)/(alpha/2)), and azimuth
    panels graded geometrically toward the notch at theta = 0.  A
    convergence reference where adaptive ``quad`` is itself unreliable (its
    error reaches 1e-8 relative on sub-meter links).

    With weak jamming the notch has half-width s = q^(1/alpha) in azimuth
    and about s*d_ab in distance.  The azimuth halving then goes on below
    pi*2^-12 down to s/16, and when s < 1 the radial axis also breaks where
    sqrt(u) = d_ab*(1 -+ k*s) for each k = 1/8, 1/4, ..., 8 with k*s < 1."""
    nodes, weights = roots_legendre(24)

    def rule(edges):
        edges = np.asarray(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        width = 0.5 * (edges[1:] - edges[:-1])
        return ((mid[:, None] + width[:, None] * nodes).ravel(),
                (width[:, None] * weights).ravel())

    a = sigma_e2 * x / p_a
    q = p_b * x / p_a
    half = alpha / 2.0
    t_link = 2.0 * math.log(d_ab)
    t_decay = -math.log(a) / half
    t_tr = t_link - math.log(q) / half if q > 0.0 else math.inf
    t_lo = min(t_link, t_decay, t_tr) - 60.0
    t_cut = t_decay + math.log(_TAIL_EXPONENT) / half
    s = q ** (1.0 / alpha)
    notch = [t_link + 2.0 * math.log1p(sign * k * s)
             for k in 2.0 ** np.arange(-3.0, 4.0) for sign in (-1.0, 1.0)
             if 0.0 < s < 1.0 and k * s < 1.0]
    breaks = sorted({t_lo, t_cut} | {
        t for t in [t_link - math.log(4.0), t_link, t_link + math.log(4.0), t_decay]
        + notch if t_lo < t < t_cut})
    t, w = rule(np.concatenate(
        [np.linspace(lo, hi, math.ceil((hi - lo) / 0.5) + 1)[:-1]
         for lo, hi in zip(breaks, breaks[1:])] + [[t_cut]]))
    halvings = max(12.0, math.ceil(math.log2(16.0 * math.pi / s))) if s > 0.0 else 12.0
    theta, theta_w = rule(np.concatenate(
        [[0.0], math.pi * 2.0 ** -np.arange(halvings, 2.0, -1.0),
         np.linspace(0.25 * math.pi, math.pi, 4)]))
    u = np.exp(t)
    d_bk2 = ((np.sqrt(u) - d_ab) ** 2)[:, None] \
        + (4.0 * d_ab * np.sqrt(u))[:, None] * np.sin(0.5 * theta) ** 2
    jam = 1.0 / (1.0 + q * (u[:, None] / d_bk2) ** half)
    return float(2.0 * (w * u * np.exp(-a * u ** half)) @ jam @ theta_w)


def omega_tilde_formula(y: float, yz: float, u: float) -> float:
    """Objective log2((1+y)/(1+yz)) * exp(-u*y), straight from its definition."""
    if y <= yz:
        return 0.0
    return (math.log1p(y) - math.log1p(yz)) / math.log(2.0) * math.exp(-u * y)


def u_of(params: SystemParams, p_b: float, mu_b: float) -> float:
    return params.d_ab ** params.alpha * (params.sigma_b2 + p_b * mu_b) / params.p_a_max


def sign_changes(values: np.ndarray) -> int:
    """Number of sign changes in the first differences of a profile."""
    diffs = np.diff(values)
    signs = np.sign(diffs[diffs != 0.0])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _exponential(rng: np.random.Generator, n: int | None = None):
    """Unit-mean exponential by inverse CDF, as the engine draws its gains."""
    return -np.log1p(-rng.random(n))


# --------------------------------------------------------------------------
# The block-at-a-time Monte Carlo engine: each block of ``_BLOCK`` trials or
# slots draws from its own substream and is evaluated on its own.  The
# package evaluates batches of blocks together from the same draws, so it
# must reproduce these loops bit for bit.  The substreams come from numpy's
# ``default_rng((seed, domain, block))`` itself, not from ``sim.sub_rng``,
# so the package's own construction of them is checked too.
# --------------------------------------------------------------------------

def blocks(n: int):
    """``(block index, size)`` for ``n`` trials or slots."""
    for block, start in enumerate(range(0, n, _BLOCK)):
        yield block, min(_BLOCK, n - start)


def truncated_gamma_blockwise(rng: np.random.Generator, k: float, c: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
    """``v ~ Gamma(k)`` truncated to ``[0, c]`` and ``(v / c)^(k/2)``: Gamma
    proposals where c >= Gamma(1+k)^(1/k), area-uniform positions accepted
    with probability exp(-v) elsewhere, always through the masks."""
    v = np.empty(c.size)
    s = np.empty(c.size)
    small = c < math.gamma(1.0 + k) ** (1.0 / k)
    large = ~small
    todo = np.flatnonzero(large)
    while todo.size:
        g = rng.gamma(k, size=todo.size)
        ok = g <= c[todo]
        v[todo[ok]] = g[ok]
        todo = todo[~ok]
    s[large] = (v[large] / c[large]) ** (k / 2.0)
    todo = np.flatnonzero(small)
    while todo.size:
        w = rng.random(todo.size)
        g = c[todo] * w ** (1.0 / k)
        ok = rng.random(todo.size) < np.exp(-g)
        v[todo[ok]] = g[ok]
        s[todo[ok]] = np.sqrt(w[ok])
        todo = todo[~ok]
    return v, s


def field_outages_blockwise(rng: np.random.Generator, c: np.ndarray,
                            mean: np.ndarray, p_b: np.ndarray,
                            params: SystemParams, radius: float,
                            bound: Optional[tuple] = None) -> np.ndarray:
    """Secrecy outage per row of one block, for a field of thinning scales
    ``c`` and kept-count means ``mean`` on the disk of radius ``radius``:
    kept counts, then the jammed rows' points in chunks of ``_CHUNK``
    (positions, azimuths, coins).  With ``bound = (r_in, p_out)`` a point at
    d_ak >= r_in tests its coin times p_out."""
    k = 2.0 / params.alpha
    counts = rng.poisson(mean)
    jammed = p_b > 0.0
    owner = np.repeat(np.flatnonzero(jammed), counts[jammed])
    outage = (counts > 0) & ~jammed
    for start in range(0, owner.size, _CHUNK):
        rows = owner[start:start + _CHUNK]
        v, s = truncated_gamma_blockwise(rng, k, c[rows])
        half_theta = math.pi * rng.random(v.size)
        d_ak, d_ab = radius * s, params.d_ab
        d_bk2 = (d_ak - d_ab) ** 2 + 4.0 * d_ab * d_ak * np.sin(half_theta) ** 2
        noise = params.sigma_e2 * d_bk2 ** (params.alpha / 2.0)
        coin = rng.random(v.size)
        if bound is not None:
            coin = coin * np.where(d_ak < bound[0], 1.0, bound[1])
        hit = coin * (noise + v * p_b[rows]) < noise
        outage |= np.bincount(rows[hit], minlength=c.size) > 0
    return outage


def kept_mean(c: np.ndarray, params: SystemParams, radius: float) -> np.ndarray:
    """Mean kept count of a field of thinning scales ``c`` on a disk."""
    k = 2.0 / params.alpha
    return (params.lambda_e * math.pi * radius * radius
            * hyp1f1(k, k + 1.0, -c))


def split_fields(a: float, q: float, params: SystemParams, r_cut: float,
                 m: int) -> list:
    """The fields ``empirical_sop`` draws for ``m`` trials at thinning
    coefficient ``a`` and jamming weight ``q``, as keyword arguments of
    :func:`field_outages_blockwise`: the outer field on the whole disk,
    its count mean scaled by p_out = 1 / (1 + q (r_in / (r_in + d_ab))^alpha),
    then the inner field on the disk of radius r_in, its count mean scaled
    by 1 - p_out.  r_in is the point of the grid d_ab * 2^(j/2), j >= -4,
    below r_cut that gives the fewest expected points per trial; one
    unscaled field where no q > 0 or no r_in at least halves them."""
    c = np.full(m, a * r_cut ** params.alpha)
    mean = kept_mean(c, params, r_cut)
    one = [dict(c=c, mean=mean, radius=r_cut)]
    if not q > 0.0:
        return one
    best = None
    for j in itertools.count(-4):
        r_in = params.d_ab * 2.0 ** (j / 2.0)
        if r_in >= r_cut:
            break
        p_out = 1.0 / (1.0 + q * (r_in / (r_in + params.d_ab)) ** params.alpha)
        c_in = c * (r_in / r_cut) ** params.alpha
        mean_in = kept_mean(c_in, params, r_in) * (1.0 - p_out)
        points = float(mean[0] * p_out + mean_in[0])
        if best is None or points < best[0]:
            best = (points, r_in, p_out, c_in, mean_in)
    if best is None or not 0.0 < 2.0 * best[0] <= mean[0]:
        return one
    _, r_in, p_out, c_in, mean_in = best
    return [dict(c=c, mean=mean * p_out, radius=r_cut, bound=(r_in, p_out)),
            dict(c=c_in, mean=mean_in, radius=r_in)]


def empirical_sop_blockwise(p_a: float, p_b: float, r_c: float, r_s: float,
                            params: SystemParams, n_trials: int, r_cut: float,
                            seed: int) -> McEstimate:
    """:func:`fdjam.empirical_sop` one block at a time, for valid inputs:
    each block draws its outer field, then its inner field."""
    x = 2.0 ** (r_c - r_s) - 1.0
    a = params.sigma_e2 * x / p_a
    hits = 0
    for block, m in blocks(n_trials):
        rng = np.random.default_rng((seed, 0, block))
        outage = np.zeros(m, bool)
        for field in split_fields(a, x * p_b / p_a, params, r_cut, m):
            outage |= field_outages_blockwise(rng, p_b=np.full(m, p_b),
                                              params=params, **field)
        hits += int(np.count_nonzero(outage))
    p = hits / n_trials
    return McEstimate(value=p, stderr=math.sqrt(p * (1.0 - p) / n_trials),
                      n_trials=n_trials)


def run_online_blockwise(solution: SwitchedSolution, params: SystemParams,
                         n_slots: int, r_cut: float, seed: int) -> SimReport:
    """:func:`fdjam.run_online` one block at a time, for valid inputs."""
    fd, hd = solution.fd, solution.hd
    x_fd = 2.0 ** (fd.r_c - fd.r_s) - 1.0
    x_hd = 2.0 ** (hd.r_c - hd.r_s) - 1.0
    loss = params.d_ab ** (-params.alpha)
    n_fd = n_hd = reliable_fd = reliable_hd = secrecy_outages = 0
    for block, m in blocks(n_slots):
        rng = np.random.default_rng((seed, 1, block))
        gamma_ab = _exponential(rng, m)
        gamma_bb = _exponential(rng, m)
        is_fd, is_hd, p_a, p_b = decide_slots(gamma_ab, gamma_bb, solution, params)
        tx = is_fd | is_hd
        c = (params.sigma_e2 * np.where(is_fd, x_fd, x_hd)[tx] / p_a[tx]
             * r_cut ** params.alpha)
        secrecy_outages += int(np.count_nonzero(field_outages_blockwise(
            rng, c, kept_mean(c, params, r_cut), p_b[tx], params, r_cut)))
        c_b = np.log2(1.0 + p_a * gamma_ab * loss
                      / (params.sigma_b2 + params.rho * p_b * gamma_bb))
        reliable = c_b >= np.where(is_fd, fd.r_c, hd.r_c) * (1.0 - _CONNECTION_RTOL)
        n_fd += int(np.count_nonzero(is_fd))
        n_hd += int(np.count_nonzero(is_hd))
        reliable_fd += int(np.count_nonzero(is_fd & reliable))
        reliable_hd += int(np.count_nonzero(is_hd & reliable))
    return _report(solution, n_slots, n_fd, n_hd, reliable_fd, reliable_hd,
                   secrecy_outages)


@dataclass(frozen=True)
class LinkState:
    """One slot's transmit powers and fading gains on the A-B link."""

    p_a: float       # Alice transmit power [W], > 0
    p_b: float       # Bob jamming power [W], >= 0
    gamma_ab: float  # main-channel gain, >= 0
    gamma_bb: float  # self-interference channel gain, >= 0


def main_channel_sinr(link: LinkState, params: SystemParams) -> float:
    """SINR at the receiver: signal over noise plus residual self-interference."""
    signal = link.p_a * link.gamma_ab * params.d_ab ** (-params.alpha)
    return signal / (params.sigma_b2 + params.rho * link.p_b * link.gamma_bb)


def draw_field(rng: np.random.Generator, lambda_e: float, r_cut: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d_ak^2, theta, gamma_ak, gamma_bk) for one unthinned PPP realization:
    count ~ Poisson(lambda_e * pi * r_cut^2), then area-uniform squared
    radii, azimuths, signal-path gains and jamming-path gains."""
    n = int(rng.poisson(lambda_e * math.pi * r_cut * r_cut))
    d_ak2 = rng.random(n) * (r_cut * r_cut)
    theta = rng.random(n) * (2.0 * math.pi)
    gamma_ak = _exponential(rng, n)
    gamma_bk = _exponential(rng, n)
    return d_ak2, theta, gamma_ak, gamma_bk


def max_eve_sinr(d_ak2: np.ndarray, theta: np.ndarray, gamma_ak: np.ndarray,
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


def empirical_sop_reference(p_a: float, p_b: float, r_c: float, r_s: float,
                            params: SystemParams, n_trials: int, r_cut: float,
                            seed: int) -> McEstimate:
    """The unthinned, one-trial-at-a-time Monte Carlo SOP: trial i draws a
    whole field from ``default_rng((seed, 0, i))`` and compares its best
    SINR with 2^(r_c - r_s) - 1."""
    x = 2.0 ** (r_c - r_s) - 1.0
    hits = sum(
        max_eve_sinr(*draw_field(np.random.default_rng((seed, 0, i)),
                                 params.lambda_e, r_cut),
                     p_a, p_b, params) > x
        for i in range(n_trials))
    p = hits / n_trials
    return McEstimate(value=p, stderr=math.sqrt(p * (1.0 - p) / n_trials),
                      n_trials=n_trials)


def decide_reference(gamma_ab: float, gamma_bb: float,
                     solution: SwitchedSolution, params: SystemParams) -> Action:
    """The slot rule written for one slot in scalar arithmetic."""
    if gamma_ab < 0.0 or gamma_bb < 0.0:
        raise ValidationError(
            f"channel gains must be >= 0: gamma_ab={gamma_ab}, gamma_bb={gamma_bb}")
    gain_over_loss = gamma_ab * params.d_ab ** (-params.alpha)

    def cap(p_a: float) -> float:
        if p_a > params.p_a_max * (1.0 + _BUDGET_RTOL):
            raise ValidationError(
                f"required transmit power {p_a} W exceeds p_a_max "
                f"{params.p_a_max} W; the solution violates its threshold invariants")
        return min(p_a, params.p_a_max)

    if solution.mu_b > 0.0 and params.rho * gamma_bb <= solution.mu_b:
        fd = solution.fd
        if gamma_ab >= fd.mu_a:
            noise = params.sigma_b2 + params.rho * fd.p_b * gamma_bb
            p_a = (2.0 ** fd.r_c - 1.0) * noise / gain_over_loss
            return Action(Mode.FD, p_a=cap(p_a), p_b=fd.p_b)
    else:
        hd = solution.hd
        if gamma_ab >= hd.mu_a:
            p_a = (2.0 ** hd.r_c - 1.0) * params.sigma_b2 / gain_over_loss
            return Action(Mode.HD, p_a=cap(p_a))
    return Action(Mode.SILENT)


@dataclass(frozen=True)
class EveField:
    """One realization of eavesdropper positions and per-path fading gains.

    Positions are polar around the transmitter; ``d_ak`` in meters,
    ``theta_k`` in radians.  Arrays share a common length (possibly zero).
    """

    d_ak: np.ndarray
    theta_k: np.ndarray
    gamma_ak: np.ndarray
    gamma_bk: np.ndarray

    def __len__(self) -> int:
        return self.d_ak.size


def sample_eve_field(params: SystemParams, r_cut: float, rng_seed: int) -> EveField:
    """Draw one unthinned eavesdropper field on the disk of radius ``r_cut``
    with :func:`draw_field`."""
    if r_cut <= 0.0:
        raise ValidationError(f"r_cut must be > 0 m: {r_cut}")
    d_ak2, theta, g_a, g_b = draw_field(
        np.random.default_rng((rng_seed, 0, 0)), params.lambda_e, r_cut)
    return EveField(d_ak=np.sqrt(d_ak2), theta_k=theta,
                    gamma_ak=g_a, gamma_bk=g_b)


@dataclass(frozen=True)
class ScenarioDraw:
    params: SystemParams
    p_b: float
    mu_b: float


def random_scenarios(n: int, seed: int = 20251107) -> list[ScenarioDraw]:
    """Seeded random but physically valid scenarios for solver stress tests."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        params = SystemParams(
            alpha=float(rng.uniform(2.2, 5.0)),
            d_ab=float(rng.uniform(0.5, 30.0)),
            lambda_e=float(10.0 ** rng.uniform(-6.0, -3.0)),
            sigma_b2=dbm_to_watts(float(rng.uniform(-100.0, -80.0))),
            sigma_e2=dbm_to_watts(float(rng.uniform(-100.0, -80.0))),
            rho=float(10.0 ** rng.uniform(-9.0, -5.0)),
            epsilon=float(10.0 ** rng.uniform(-2.3, -0.4)),
            p_a_max=dbm_to_watts(float(rng.uniform(-10.0, 20.0))),
            p_b_max=dbm_to_watts(float(rng.uniform(10.0, 30.0))),
        )
        p_b = 0.0 if rng.random() < 0.25 else float(
            params.p_b_max * 10.0 ** rng.uniform(-3.0, 0.0))
        mu_b = 0.0 if rng.random() < 0.25 else float(10.0 ** rng.uniform(-9.0, -5.0))
        out.append(ScenarioDraw(params=params, p_b=p_b, mu_b=mu_b))
    return out


# --------------------------------------------------------------------------
# Reference scans: the exhaustive switch-threshold search that the
# optimizer's Fibonacci search replaces, and a fixed power scan on which the
# step-2 bracket is checked.  They reuse the package's step-1 and step-2
# solvers on purpose, so a comparison isolates the switch-threshold search
# and may demand bit-identical results.  The derivative signs on the power
# scan are memoised, because several tests inspect the same scans.
# --------------------------------------------------------------------------

def hd_group(params: SystemParams) -> tuple[HdParams, Step1Result]:
    """The half-duplex group as the optimizer takes it: the step-1 solve at
    zero jamming and zero switch level, and its rates."""
    r0 = solve_step1(0.0, 0.0, params)
    return HdParams(r_c=r0.r_c, r_s=r0.r_s, mu_a=r0.mu_a), r0


def power_scan(params: SystemParams, grid: GridSpec = GridSpec()) -> tuple[float, ...]:
    """A fixed 60-point logarithmic scan of the step-2 search range
    [floor, p_b_max], floor = min(p_b_floor, p_b_max), with both ends exact;
    one point when the floor reaches the budget."""
    floor = min(grid.p_b_floor, params.p_b_max)
    if floor == params.p_b_max:
        return (params.p_b_max,)
    return tuple(map(float, np.geomspace(floor, params.p_b_max, 60)))


@lru_cache(maxsize=None)
def derivative_signs(mu_b: float, params: SystemParams,
                     grid: GridSpec = GridSpec()) -> tuple[float, ...]:
    """Jamming-power derivative sign at every power of :func:`power_scan`."""
    outage = _Outage(params)
    return tuple(_derivative_sign(p, solve_step1(p, mu_b, params), outage)
                 for p in power_scan(params, grid))


def optimize_reference(params: SystemParams, grid: Optional[GridSpec] = None, *,
                       forced_p_b: Optional[float] = None,
                       step2: Callable[..., Step2Result] = solve_step2,
                       ) -> SwitchedSolution:
    """The full design by a loop over every switch threshold of the grid,
    keeping the first strict maximum; infeasible points warn and are skipped."""
    validate(params)
    grid = grid or GridSpec()
    grid.check(params)
    if forced_p_b is not None and not 0.0 < forced_p_b <= params.p_b_max:
        raise ValidationError(
            f"forced p_b must be in (0, p_b_max]: {forced_p_b}")

    hd, hd_core = hd_group(params)
    best = None
    failures = 0
    for mu_b in map(float, grid.mu_b_values()):
        try:
            if forced_p_b is not None:
                step1 = solve_step1(forced_p_b, mu_b, params)
                record = Step2Result(p_b_dagger=forced_p_b, capped=False,
                                     degenerate=False, step1=step1,
                                     residual=math.nan, iterations=0)
            else:
                record = step2(mu_b, params, grid)
        except (InfeasibleError, ValidationError) as exc:
            failures += 1
            warnings.warn(f"switch-threshold grid point mu_b={mu_b:.3g} "
                          f"infeasible: {exc}", RuntimeWarning, stacklevel=2)
            continue
        omega_fd = throughput_fd(record.step1.r_s, record.step1.mu_a, mu_b, params.rho)
        omega_hd = throughput_hd(hd.r_s, hd.mu_a, mu_b, params.rho)
        omega_s = omega_fd + omega_hd
        if best is None or omega_s > best[0]:
            best = (omega_s, omega_fd, omega_hd, mu_b, record)

    if best is None:
        raise InfeasibleError(
            f"every switch-threshold grid point infeasible ({failures} tried)")

    omega_s, omega_fd, omega_hd, mu_b, record = best
    step1 = record.step1
    fd = FdParams(r_c=step1.r_c, r_s=step1.r_s, mu_a=step1.mu_a, p_b=record.p_b_dagger)
    return SwitchedSolution(mu_b=float(mu_b), fd=fd, hd=hd,
                            omega_s=omega_s, omega_fd=omega_fd,
                            omega_hd=omega_hd, degenerate_fd=record.degenerate,
                            capped_fd=record.capped, step2=record,
                            hd_result=hd_core)


def omega_s_profile(params: SystemParams, grid: Optional[GridSpec] = None, *,
                    forced_p_b: Optional[float] = None) -> list[float]:
    """Switched throughput at every switch threshold of the grid, each point
    designed by the package's step 2 (or at the forced jamming power)."""
    grid = grid or GridSpec()
    hd, _ = hd_group(params)
    out = []
    for mu_b in map(float, grid.mu_b_values()):
        if forced_p_b is None:
            fd = solve_step2(mu_b, params, grid).step1
        else:
            fd = solve_step1(forced_p_b, mu_b, params)
        out.append(throughput_fd(fd.r_s, fd.mu_a, mu_b, params.rho)
                   + throughput_hd(hd.r_s, hd.mu_a, mu_b, params.rho))
    return out
