"""Closed-form and quadrature evaluation of the wiretap-side statistics.

The quantity everything here revolves around is the secrecy outage
probability at rates r_c and r_s, 1 - F(x) at x = 2^(r_c - r_s) - 1, with F
the CDF of the best eavesdropper's SINR when eavesdroppers form a
homogeneous PPP of density ``lambda_e`` around the transmitter, each one
seeing the confidential signal attenuated over its own distance and the
receiver's jamming attenuated over the (law-of-cosines) distance to the
receiver, under unit-mean exponential fading on every path.  Averaging the
per-point hit probability over the PPP gives

    F(x) = exp( -lambda_e/2 * J(x) ),

with ``J`` a double integral over squared distance and azimuth.  ``J`` is
evaluated by one fixed-node composite Gauss-Legendre rule, in log squared
distance times azimuth, as a single numpy expression; it never fails to
converge.  Its panels follow the geometry: one e-fold wide around the length
scales (the link, the radial decay and the jamming transition, below which
the jamming factor is near 1), doubling in width in the low tail where the
integrand is e^t times a slowly varying factor, and, with weak jamming,
breaking and shrinking around the narrow notch where an eavesdropper sits on
top of the receiver.  ``J`` does not depend on ``lambda_e``, so a table over
densities forms it, and the closed form's exposure, once per geometry
(``_sop_column``).  In the small transmitter-receiver separation regime the
jamming path loss equals the signal path loss and ``J`` collapses to a
closed form; both routes are implemented and cross-validated (the simulator
provides a third, Monte Carlo, route).

The closed form is the paper's outage model, defined here once for the
optimizer's design and for :func:`sop_approx`.  With q = p_b*x/p_a,
a = sigma_e2*x/p_a and eta = 2/alpha the exposure is
beta*lambda_e*(1 + q)^-1*a^-eta; :func:`log_exposure_approx` is its log over
beta*lambda_e.  The design reads it only through :class:`_Outage`: the
outage root, the exposure at p_a_max, and the root's slope term w, as
-ln(1 + x*p_b/p_a) - eta*ln x = const gives dx/dp_b = -x^2/w with
w = eta*p_a + (1 + eta)*p_b*x.

All probabilities returned by this module are clamped to [0, 1] to guard
against floating-point residue of order 1e-17; a NaN stays NaN.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy.special import roots_legendre

from .errors import InfeasibleError, ValidationError
from .params import SwitchedSolution, SystemParams

__all__ = [
    "ComparisonMetrics", "exposure_integral", "field_beta", "exposure_budget",
    "log_exposure_approx", "sop_exact", "sop_approx", "hd_weight",
    "throughput_fd", "throughput_hd", "comparison_metrics",
]

# Tail cutoff for the radial integral: beyond u_cut the integrand is bounded
# by exp(-_TAIL_EXPONENT) ~ 2e-22.
_TAIL_EXPONENT = 50.0
# Smallest radial decay coefficient a: the tail nodes reach a*u^(alpha/2) =
# _TAIL_EXPONENT, so below this u^(alpha/2) overflows and J comes out wrong.
_MIN_DECAY = _TAIL_EXPONENT / sys.float_info.max
# Link distances whose square is a normal double: beyond them the squared
# distances to the receiver overflow, or underflow to 0/0 next to it.
_MIN_LINK = math.sqrt(sys.float_info.min)
_MAX_LINK = math.sqrt(sys.float_info.max)
# Fixed-node rule for J (composite Gauss-Legendre; Davis & Rabinowitz,
# Methods of Numerical Integration, 1984): 12 nodes per panel on both axes.
_GL_NODES, _GL_WEIGHTS = roots_legendre(12)
_PANEL_WIDTH = 1.0                # radial panel width near the scales, in t = ln u
_LOW_EFOLDS = 40.0                # radial start below the smallest length scale
_GRADE_MARGIN = 2.0               # panels double from this far below the scales
_NOTCH_MAX = 0.25                 # resolve the notch when q^(1/alpha) is below this
_LN4 = math.log(4.0)


def _panel_rule(edges: np.ndarray):
    """Nodes and weights of the composite rule on consecutive panel edges."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    width = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + width[:, None] * _GL_NODES).ravel(),
            (width[:, None] * _GL_WEIGHTS).ravel())


# azimuth panels graded toward the notch at theta = 0
_THETA_EDGES = math.pi * np.array([0.0, 0.125, 0.25, 0.5, 1.0])
_THETA, _THETA_WEIGHTS = _panel_rule(_THETA_EDGES)
_SIN2_HALF_THETA = np.sin(0.5 * _THETA) ** 2


def _clamp01(p: float) -> float:
    return min(max(p, 0.0), 1.0)    # a NaN first argument survives max and min


def exposure_integral(x: float, p_a: float, p_b: float, params: SystemParams) -> float:
    """J(x) such that the best-eavesdropper SINR CDF is exp(-lambda_e/2 * J).

    Independent of ``lambda_e``, so a table over the eavesdropper density
    forms it once per geometry (:func:`_sop_column`).  Raises
    :class:`ValidationError` when the radial decay coefficient
    sigma_e2*x/p_a is below 50/DBL_MAX, or d_ab^2 is not a normal double,
    where J cannot be formed in doubles.

    One tensor-product composite Gauss-Legendre rule over t = ln u, with
    u = (eavesdropper-to-transmitter distance)^2, integrating u*f dt, and
    the azimuth theta in [0, pi], exploiting the theta -> 2*pi - theta
    symmetry.  Three length scales shape the radial axis: the link
    t_link = ln d_ab^2, the decay t_decay = ln a^(-2/alpha), and the jamming
    transition t_tr = t_link - ln(q)/(alpha/2), under which the jamming
    factor is near 1.  The axis runs from _LOW_EFOLDS below the smallest of
    the three up to the tail cutoff.  Panels are at most _PANEL_WIDTH wide
    and break at t_link - ln 4, t_link, t_link + ln 4 and t_decay, so the
    notch where an eavesdropper sits on top of the receiver (jamming
    diverges) falls on a panel corner.  Below all three scales the
    integrand is e^t times a slowly varying factor.  So from _GRADE_MARGIN
    under the smallest of them (or from the lowest break, if that is lower)
    the panels double in width, 1, 2, 4, ..., down to the start.  With weak
    jamming the notch is narrower than the panels: its half-width is
    s = q^(1/alpha) in azimuth and about s*d_ab in distance.  When
    s < _NOTCH_MAX the radial axis also breaks where sqrt(u) = d_ab*(1 -+ s)
    and d_ab*(1 -+ 4s), and azimuth panels shrinking by 4 from pi/8 reach
    down to s.  The receiver distance is formed as
    (sqrt(u) - d_ab)^2 + 4*d_ab*sqrt(u)*sin^2(theta/2), a sum of
    non-negative terms, so it cannot cancel to a negative value.
    """
    _check_sinr_args(x, p_a, p_b)
    sigma_e2, alpha, d_ab = params.sigma_e2, params.alpha, params.d_ab
    a = sigma_e2 * x / p_a            # radial decay coefficient
    q = p_b * x / p_a                 # jamming-to-signal weight
    if q == math.inf:
        return 0.0                    # the jamming drowns every eavesdropper
    if a < _MIN_DECAY:
        raise ValidationError(
            f"radial decay coefficient sigma_e2*x/p_a = {a!r} is below "
            f"{_MIN_DECAY!r}, where the exposure integral overflows")
    if not _MIN_LINK <= d_ab <= _MAX_LINK:
        raise ValidationError(
            f"d_ab = {d_ab!r} m is outside [{_MIN_LINK!r}, {_MAX_LINK!r}] m, "
            f"where the exposure integral's squared distances leave double "
            f"range")
    half = alpha / 2.0
    t_link = 2.0 * math.log(d_ab)
    t_decay = -math.log(a) / half
    t_tr = t_link - math.log(q) / half if q > 0.0 else math.inf
    t_min = min(t_link, t_decay, t_tr)
    t_lo = t_min - _LOW_EFOLDS
    t_cut = t_decay + math.log(_TAIL_EXPONENT) / half
    cuts = [t_link - _LN4, t_link, t_link + _LN4, t_decay]
    theta, theta_w, sin2 = _THETA, _THETA_WEIGHTS, _SIN2_HALF_THETA
    s = q ** (1.0 / alpha)            # notch half-width in azimuth
    if 0.0 < s < _NOTCH_MAX:
        cuts += [t_link + 2.0 * math.log1p(k * s) for k in (-4.0, -1.0, 1.0, 4.0)]
        shrinks = math.ceil(math.log(_THETA_EDGES[1] / s) / _LN4)
        theta, theta_w = _panel_rule(np.concatenate(
            [[0.0], _THETA_EDGES[1] * 4.0 ** np.arange(-shrinks, 0.0),
             _THETA_EDGES[1:]]))
        sin2 = np.sin(0.5 * theta) ** 2
    fine = max(min([t_min - _GRADE_MARGIN] + cuts), t_lo)
    breaks = sorted({fine, t_cut} | {t for t in cuts if fine < t < t_cut})
    n_low = math.ceil(math.log2(1.0 + fine - t_lo))    # doubling panels below fine
    edges = [t_lo] if n_low else []
    edges += [fine + 1.0 - 2.0 ** k for k in range(n_low - 1, 0, -1)]
    for lo, hi in zip(breaks, breaks[1:]):
        n = math.ceil((hi - lo) / _PANEL_WIDTH)
        edges += [lo + (hi - lo) * k / n for k in range(n)]
    t, w = _panel_rule(np.array(edges + [t_cut]))
    u = np.exp(t)
    root_u = np.exp(0.5 * t)
    d_bk2 = (((root_u - d_ab) ** 2)[:, None]
             + (4.0 * d_ab * root_u)[:, None] * sin2)
    # q*(u/d_bk2)^half overflows where the factor is below 1/DBL_MAX, or deep
    # in the notch next to the receiver; 1/(1 + inf) = 0 leaves J unchanged
    with np.errstate(over="ignore"):
        jam = 1.0 / (1.0 + q * (u[:, None] / d_bk2) ** half)
    radial = w * u * np.exp(-a * u ** half)
    return float(2.0 * (radial @ jam @ theta_w))


def _check_sinr_args(x: float, p_a: float, p_b: float) -> None:
    # p_b = inf is allowed: the jamming drowns every eavesdropper
    if not 0.0 < x < math.inf:
        raise ValidationError(f"SINR threshold x must be finite and > 0: {x}")
    if not 0.0 < p_a < math.inf:
        raise ValidationError(f"p_a must be finite and > 0 W: {p_a}")
    if not p_b >= 0.0:
        raise ValidationError(f"p_b must be >= 0 W: {p_b}")


def field_beta(alpha: float) -> float:
    """Field geometry factor beta = (2*pi/alpha)*Gamma(2/alpha)."""
    return (2.0 * math.pi / alpha) * math.gamma(2.0 / alpha)


def exposure_budget(params: SystemParams) -> float:
    """tau = -ln(1 - epsilon)/(beta*lambda_e): the closed-form outage equals
    epsilon where :func:`log_exposure_approx` equals ln tau."""
    return -math.log1p(-params.epsilon) / (field_beta(params.alpha) * params.lambda_e)


def log_exposure_approx(log_x: float, p_a: float, p_b: float,
                        params: SystemParams) -> float:
    """-ln(1 + p_b*x/p_a) - eta*ln(sigma_e2*x/p_a) at x = exp(log_x); takes
    ln x and checks nothing: it runs in the step-1 residual, through
    :meth:`_Outage.log_exposure`, and in the closed-form SOP."""
    eta = 2.0 / params.alpha
    x = math.exp(log_x)
    return -math.log1p(x * p_b / p_a) - eta * (log_x + math.log(params.sigma_e2 / p_a))


# Newton steps allowed for the outage root (it takes at most 5 on the test
# scenarios), and the bound on its error in ln yz at which it stops.
_ROOT_STEPS = 50
_ROOT_ERROR = 1e-16


class _Outage:
    """The closed-form outage constraint of one design's params, formed once
    at its entry; the optimizer reaches the outage model only through it.
    It holds tau = :func:`exposure_budget`, ln tau, eta = 2/alpha, the level
    L = -ln tau - eta*ln(sigma_e2/p_a_max) of the constraint in the form
    :meth:`_newton` solves, and the roots solved so far, by jamming power."""

    def __init__(self, params: SystemParams) -> None:
        tau = exposure_budget(params)
        if not 0.0 < tau < math.inf:
            raise InfeasibleError(
                f"outage budget tau={tau} beyond double range "
                f"(epsilon={params.epsilon}, lambda_e={params.lambda_e})")
        self.params = params
        self.tau = tau
        self.log_tau = math.log(tau)
        self.eta = 2.0 / params.alpha
        self.level = -self.log_tau - self.eta * (
            math.log(params.sigma_e2) - math.log(params.p_a_max))
        self._roots: dict[float, tuple[float, int]] = {}

    def root(self, p_b: float) -> tuple[float, int]:
        """:meth:`_newton` at ``p_b``, solved once for the object's life, so
        every switch level a design visits shares one root per power."""
        if p_b not in self._roots:
            self._roots[p_b] = self._newton(p_b)
        return self._roots[p_b]

    def log_exposure(self, log_x: float, p_b: float) -> float:
        """:func:`log_exposure_approx` at the worst-case power p_a_max."""
        return log_exposure_approx(log_x, self.params.p_a_max, p_b, self.params)

    def slope(self, x: float, p_b: float) -> float:
        """w = eta*p_a_max + (1 + eta)*p_b*x: on the outage root,
        dx/dp_b = -x^2/w."""
        return self.eta * self.params.p_a_max + (1.0 + self.eta) * p_b * x

    def _newton(self, p_b: float) -> tuple[float, int]:
        """The outage-constraint root yz at jamming power ``p_b`` and the
        Newton steps that found it; it does not depend on the switch level.

        In t = ln yz, with c = p_b/p_a_max, the constraint reads
        g(t) = ln(1 + c*e^t) + eta*t - L = 0, where g is ln tau minus
        :meth:`log_exposure`.  g is
        increasing and convex (eta < g' < 1 + eta, 0 < g'' <= 1/4), and at
        t_hi = min(L/eta, (L - ln c)/(1 + eta)) it is >= 0, with the root in
        [t_hi - ln2/eta, t_hi].  So Newton's method from t_hi descends
        monotonically onto the root and converges quadratically: after a
        step of size dt the error is at most about dt^2/(8*eta).  At p_b = 0
        the root is L/eta, with no step.
        """
        eta, level = self.eta, self.level
        t, steps = level / eta, 0
        if p_b > 0.0:
            log_c = math.log(p_b) - math.log(self.params.p_a_max)
            t = min(t, (level - log_c) / (1.0 + eta))
            for steps in range(1, _ROOT_STEPS + 1):
                # ln(1 + e^s) and its slope e^s/(1 + e^s), s = ln(c*e^t), with
                # no overflow once c*e^t passes double range
                s = log_c + t
                if s > 0.0:
                    e = math.exp(-s)
                    softplus, slope = s + math.log1p(e), 1.0 / (1.0 + e)
                else:
                    e = math.exp(s)
                    softplus, slope = math.log1p(e), e / (1.0 + e)
                dt = (softplus + eta * t - level) / (slope + eta)
                t -= dt
                if dt * dt <= 8.0 * eta * _ROOT_ERROR:
                    break
            else:
                raise InfeasibleError(
                    f"outage-constraint root yz not converged in {_ROOT_STEPS} "
                    f"Newton steps (ln yz={t}, tau={self.tau})")
        # exp(+-700) stays clear of double overflow
        if not -700.0 <= t <= 700.0:
            raise InfeasibleError(
                f"outage-constraint root yz not found for ln yz in [-700, 700] "
                f"(tau={self.tau}): the root is at ln yz={t:.6g}")
        return math.exp(t), steps


def _rate_threshold(r_c: float, r_s: float) -> float:
    if r_s >= r_c:
        raise ValidationError(f"require r_s < r_c, got r_s={r_s}, r_c={r_c}")
    if r_s <= 0.0:
        raise ValidationError(f"r_s must be > 0: {r_s}")
    try:
        return 2.0 ** (r_c - r_s) - 1.0
    except OverflowError:
        raise ValidationError(f"rate gap r_c - r_s = {r_c - r_s} bits puts the "
                              f"SINR threshold beyond double range") from None


def _sop_column(p_a: float, p_b: float, r_c: float, r_s: float,
                params: SystemParams, lambdas: Sequence[float],
                quadrature: bool) -> List[float]:
    """Secrecy outage 1 - F(x), x = 2^(r_c - r_s) - 1 and
    F(x) = exp(-lambda_e*E), at each density of ``lambdas`` (the one in
    ``params`` is not read), by quadrature, E = J/2, or by the closed form,
    E = beta*exp(L).  The density-free E is formed once; each density costs
    one ``math.exp`` (not numpy's, which may differ in the last bit), and
    the one-density public routes are this column's special case."""
    x = _rate_threshold(r_c, r_s)
    if quadrature:
        weight, exposure = 0.5, exposure_integral(x, p_a, p_b, params)
    else:
        _check_sinr_args(x, p_a, p_b)
        weight = field_beta(params.alpha)
        exposure = math.exp(log_exposure_approx(math.log(x), p_a, p_b, params))
    return [_clamp01(1.0 - math.exp(-(weight * lam * exposure))) for lam in lambdas]


def sop_exact(p_a: float, p_b: float, r_c: float, r_s: float,
              params: SystemParams) -> float:
    """Secrecy outage probability 1 - F(2^(r_c - r_s) - 1), quadrature route."""
    return _sop_column(p_a, p_b, r_c, r_s, params, (params.lambda_e,),
                       quadrature=True)[0]


def sop_approx(p_a: float, p_b: float, r_c: float, r_s: float,
               params: SystemParams) -> float:
    """Secrecy outage probability, closed-form small-d_ab route."""
    return _sop_column(p_a, p_b, r_c, r_s, params, (params.lambda_e,),
                       quadrature=False)[0]


def hd_weight(mu_b: float, rho: float) -> float:
    """Probability exp(-mu_b/rho) that the residual SI exceeds the switch level.

    rho = 0 (perfect suppression) is taken as the limit: the receiver always
    jams when mu_b > 0; the mu_b = 0 corner keeps the half-duplex branch.
    """
    if not mu_b >= 0.0:
        raise ValidationError(f"mu_b must be >= 0: {mu_b}")
    if not 0.0 <= rho <= 1.0:
        raise ValidationError(f"rho out of [0,1]: {rho}")
    if rho == 0.0:
        return 1.0 if mu_b == 0.0 else 0.0
    return math.exp(-mu_b / rho)


def throughput_fd(r_s: float, mu_a: float, mu_b: float, rho: float) -> float:
    """Secrecy throughput carried by the jamming mode:
    r_s * exp(-mu_a) * (1 - exp(-mu_b/rho))."""
    return r_s * math.exp(-mu_a) * (1.0 - hd_weight(mu_b, rho))


def throughput_hd(r_s: float, mu_a: float, mu_b: float, rho: float) -> float:
    """Secrecy throughput carried by the half-duplex mode:
    r_s * exp(-mu_a) * exp(-mu_b/rho)."""
    return r_s * math.exp(-mu_a) * hd_weight(mu_b, rho)


@dataclass(frozen=True)
class ComparisonMetrics:
    """Single-mode yardsticks evaluated on the jamming-eligible slots.

    ``omega_fd_comp`` and ``omega_hd_comp`` weight both parameter groups by
    the same event (residual SI below the switch level) so the two modes are
    compared on equal footing; ``p_fd``/``p_hd`` are the probabilities of
    actually transmitting in each mode.
    """

    omega_fd_comp: float
    omega_hd_comp: float
    p_fd: float
    p_hd: float


def comparison_metrics(solution: SwitchedSolution, params: SystemParams) -> ComparisonMetrics:
    """Evaluate the four comparison expressions for a switched solution."""
    w = hd_weight(solution.mu_b, params.rho)
    fd, hd = solution.fd, solution.hd
    return ComparisonMetrics(
        omega_fd_comp=throughput_fd(fd.r_s, fd.mu_a, solution.mu_b, params.rho),
        omega_hd_comp=throughput_fd(hd.r_s, hd.mu_a, solution.mu_b, params.rho),
        p_fd=math.exp(-fd.mu_a) * (1.0 - w),
        p_hd=math.exp(-hd.mu_a) * w,
    )
