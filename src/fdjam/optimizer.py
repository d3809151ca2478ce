"""Off-line design: rates, on-off threshold, jamming power, mode switch.

This module holds the rate and search algebra; it reaches the outage model
only through one :class:`~fdjam.analytics._Outage` per entry, the closed
form's root, exposure at p_a_max and root slope.  For a fixed jamming power
and switch threshold, the throughput maximization over the rates reduces to
two nested scalar roots in y = 2^r_c - 1 and yz = 2^(r_c - r_s) - 1.  The
outage root pins yz; the first-order optimality condition pins y through
the increasing map :func:`v_of_y`, in closed form by the Wright omega
function (Corless and Jeffrey, "The Wright omega function", 2002;
:func:`scipy.special.wrightomega`).  The half-duplex group is the same
solution at p_b = 0 (:func:`solve_step1`).  The outage root depends on the
jamming power only, so the object solves it once per power for every
threshold the call visits.

The throughput is quasi-concave in the jamming power: the single sign
change of its derivative, bracketed by the floor and the budget, is found by
Brent's method (Brent, *Algorithms for Minimization without Derivatives*,
1973) on ln p_b (:func:`solve_step2`).  :func:`_brentq` ports
:func:`scipy.optimize.brentq` step for step, so roots and iteration counts
are scipy's bit for bit and no command imports :mod:`scipy.optimize`.  The
switch threshold is found on its grid by a Fibonacci search for the single
peak of the throughput (:func:`optimize`), which returns exactly what an
exhaustive scan of the grid returns.  Both searches are exact whenever the
profile has the assumed shape; the test suite checks that shape rather than
assume it.

A root outside its window, a root search that does not converge, and an
outage budget or a rate beyond double range raise
:class:`~fdjam.errors.InfeasibleError` naming the quantity and its window.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import wrightomega

from .analytics import _Outage, throughput_fd, throughput_hd
from .errors import InfeasibleError, ValidationError
from .params import (FdParams, HdParams, SwitchedSolution, SystemParams,
                     validate)
from .units import dbm_to_watts

__all__ = [
    "GridSpec",
    "Step1Result",
    "Step2Result",
    "v_of_y",
    "solve_step1",
    "solve_step2",
    "optimize",
]

LN2 = math.log(2.0)

# Root tolerance on the logarithm of the unknown (step 2).
_XTOL_LOG = 1e-13

@dataclass(frozen=True)
class GridSpec:
    """The mode-switch threshold grid and the jamming-power search range.

    ``mu_b_steps`` logarithmic points cover [mu_b_min, mu_b_max], with the
    pure-HD point mu_b = 0 always prepended.  The jamming power is searched
    over [p_b_floor, p_b_max] (the floor capped at the budget); the floor
    also serves as the reported power when the throughput decreases over the
    whole range (degenerate FD).
    """

    mu_b_min: float = 1e-10
    mu_b_max: float = 1e-5
    mu_b_steps: int = 60
    p_b_floor: float = dbm_to_watts(-10.0)

    def check(self, params: SystemParams) -> None:
        if not 0.0 < self.mu_b_min <= self.mu_b_max:
            raise ValidationError(
                f"grid requires 0 < mu_b_min <= mu_b_max, got "
                f"[{self.mu_b_min}, {self.mu_b_max}]")
        if self.mu_b_steps < 1:
            raise ValidationError(f"mu_b_steps must be >= 1: {self.mu_b_steps}")
        if not self.p_b_floor > 0.0:
            raise ValidationError(f"p_b_floor must be > 0 W: {self.p_b_floor}")
        if params.p_b_max <= 0.0:
            raise ValidationError(
                f"p_b_max must be > 0 W to design the jamming mode: {params.p_b_max}")

    def mu_b_values(self) -> np.ndarray:
        log_pts = np.logspace(math.log10(self.mu_b_min),
                              math.log10(self.mu_b_max), self.mu_b_steps)
        return np.concatenate(([0.0], log_pts))


# --------------------------------------------------------------------------
# step 1: rates and on-off threshold for a given jamming power
# --------------------------------------------------------------------------

def v_of_y(y: float, u: float) -> float:
    """Stationarity map: the redundancy variable yz at which the throughput
    derivative in y vanishes, as a function of y.

    v(y) = (1+y) * exp(-1/(u*(1+y))) - 1; strictly increasing in y, negative
    at y = 0, v(y) < y everywhere, and v(y) -> y as u -> infinity.
    """
    if not y >= 0.0:
        raise ValidationError(f"y must be >= 0: {y}")
    if not u > 0.0:
        raise ValidationError(f"u must be > 0: {u}")
    return (1.0 + y) * math.exp(-1.0 / (u * (1.0 + y))) - 1.0


@dataclass(frozen=True)
class Step1Result:
    """Optimal rates and on-off threshold for fixed jamming power and switch level."""

    y_star: float         # 2^r_c - 1 at the optimum
    yz_star: float        # 2^(r_c - r_s) - 1 pinned by the outage constraint
    r_c: float            # codeword rate [bits/s/Hz]
    r_s: float            # secrecy rate [bits/s/Hz]
    mu_a: float           # on-off threshold, = u * y_star
    omega_tilde: float    # r_s * exp(-mu_a)
    residual: float       # relative residual of the optimality equation at y_star
    omega_forms_gap: float  # relative gap between the two closed forms of omega_tilde
    iterations: int       # Newton steps of the solve that found yz (0 at
                          # p_b = 0, where it is closed form); a design makes
                          # one per p_b, shared by every mu_b (the rates are
                          # closed-form)
    u: float              # d_ab^alpha*(sigma_b2 + p_b*mu_b)/p_a_max
    varpi: float          # du/dp_b = d_ab^alpha*mu_b/p_a_max


def _check_mu_b(mu_b: float) -> None:
    if not mu_b >= 0.0:
        raise ValidationError(f"mu_b must be >= 0: {mu_b}")


def solve_step1(p_b: float, mu_b: float, params: SystemParams) -> Step1Result:
    """Maximize r_s*exp(-mu_a) over rates and on-off threshold at fixed p_b.

    The outage root of :class:`~fdjam.analytics._Outage` pins yz.  Then
    v(y) = yz pins y: the substitution z = 1/(u*(1+y)) turns it into
    z + ln z = -ln u - ln(1+yz), solved by the Wright omega function, which
    yields r_s = z/ln2 and ln(1+y) = ln(1+yz) + z without subtractive
    cancellation, even when the rate gap is many orders below the rates.
    mu_a = u*y saturates the power budget exactly at the threshold.

    At p_b = 0 this is the half-duplex group: with no jamming the switch
    level drops out of u.
    """
    validate(params)
    if not p_b >= 0.0:
        raise ValidationError(f"p_b must be >= 0 W: {p_b}")
    _check_mu_b(mu_b)
    return _step1(p_b, mu_b, _Outage(params))


def _step1(p_b: float, mu_b: float, outage: _Outage) -> Step1Result:
    """:func:`solve_step1` on the outage constraint ``outage``, without
    checking its inputs."""
    params = outage.params
    yz_star, iterations = outage.root(p_b)
    try:
        d_pow = params.d_ab ** params.alpha
    except OverflowError:
        raise InfeasibleError(
            f"path loss d_ab^alpha overflows: d_ab={params.d_ab}, "
            f"alpha={params.alpha}") from None
    u = d_pow * (params.sigma_b2 + p_b * mu_b) / params.p_a_max
    varpi = d_pow * mu_b / params.p_a_max
    if not 0.0 < u < math.inf:
        raise InfeasibleError(
            f"power scale u = d_ab^alpha*(sigma_b2 + p_b*mu_b)/p_a_max "
            f"{'underflows to 0' if u == 0.0 else 'overflows'}: "
            f"d_ab={params.d_ab}, alpha={params.alpha}, p_a_max={params.p_a_max}")

    log1p_yz = math.log1p(yz_star)
    c_rhs = -math.log(u) - log1p_yz
    if c_rhs < -690.0:
        raise InfeasibleError(
            f"secrecy rate underflows: yz={yz_star}, u={u}, tau={outage.tau}")
    z_star = float(wrightomega(c_rhs))

    log1p_y = log1p_yz + z_star
    if log1p_y > 700.0:
        raise InfeasibleError(
            f"codeword rate beyond representable range: ln(1+y)={log1p_y}")
    y_star = math.expm1(log1p_y)
    r_c = log1p_y / LN2
    r_s = z_star / LN2
    mu_a = u * y_star
    omega_tilde = r_s * math.exp(-mu_a)

    # Residual of the optimality equation: plug v(y*) back into the
    # outage-constraint left side and compare with tau (relative); inf where
    # a logarithm's argument is 0 or below: v(y*) <= 0, or sigma_e2/p_a_max
    # underflowing to 0.
    try:
        lhs = outage.log_exposure(math.log(v_of_y(y_star, u)), p_b)
    except ValueError:
        lhs = math.inf
    residual = abs(math.expm1(lhs - outage.log_tau))

    # The first-order condition makes r_s equal 1/((1+y)*u*ln2); the product
    # with exp(-u*y) is the second closed form of omega_tilde.
    omega_alt = math.exp(-mu_a) / ((1.0 + y_star) * u * LN2)
    forms_gap = abs(omega_alt / omega_tilde - 1.0) if omega_tilde > 0.0 else math.inf

    return Step1Result(y_star=y_star, yz_star=yz_star, r_c=r_c, r_s=r_s,
                       mu_a=mu_a, omega_tilde=omega_tilde, residual=residual,
                       omega_forms_gap=forms_gap, iterations=iterations,
                       u=u, varpi=varpi)


# --------------------------------------------------------------------------
# step 2: jamming power
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Step2Result:
    """Optimal jamming power for a given switch threshold."""

    p_b_dagger: float       # chosen jamming power [W]
    capped: bool            # p_b_dagger == p_b_max (interior root above budget)
    degenerate: bool        # throughput decreases over the whole range; floor used
    step1: Step1Result      # rates/threshold at p_b_dagger
    residual: float         # relative residual of the stationarity equation
    iterations: int         # Brent iterations refining the sign change, else 0


def _log_gain(p_b: float, r1: Step1Result, outage: _Outage) -> float:
    """ln of the gain u*v^2*(1+y)/(w*(1+v)) in the step-2 stationarity
    condition varpi*y = gain, from the step-1 solution ``r1`` at ``p_b``;
    -v^2/w is the outage root's slope dv/dp_b, with w from
    :meth:`_Outage.slope <fdjam.analytics._Outage.slope>`.

    v = v(y*) equals the outage root yz* by construction and is taken from
    there: recomputing it from y* cancels to zero or below once yz* falls
    under about 1e-13.
    """
    v = r1.yz_star
    w = outage.slope(v, p_b)
    return (math.log(r1.u) + 2.0 * math.log(v) + math.log1p(r1.y_star)
            - math.log(w) - math.log1p(v))


def _derivative_sign(p_b: float, r1: Step1Result, outage: _Outage) -> float:
    """Sign-carrying bracket of d(omega_tilde*)/d(p_b), from the step-1
    solution ``r1`` at ``p_b``.

    Equals u*v^2*(1+y)/(w*(1+v)) - varpi*y after exact cancellation of the
    varpi/u terms; the first term is formed in log form to survive extreme y,
    and is +inf where it leaves double range.
    """
    try:
        return math.exp(_log_gain(p_b, r1, outage)) - r1.varpi * r1.y_star
    except OverflowError:
        return math.inf


def _brentq(f: Callable[[float], float], a: float, b: float, xtol: float
            ) -> tuple[float, int]:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign, and
    the iterations taken to find it.

    Brent's method as :func:`scipy.optimize.brentq` runs it (its
    ``brentq.c``, with its defaults), step for step, so the root and the
    iteration count equal scipy's bit for bit; at a root on an end, where
    scipy leaves its count unset, the count is 0.  ValueError where f is NaN
    or f(a) and f(b) share a sign; RuntimeError after 100 iterations.
    """
    rtol, maxiter = 4.0 * math.ulp(1.0), 100

    def at(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = at(xpre), at(xcur)
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for i in range(1, maxiter + 1):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, i

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:               # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.nan     # C's inf or NaN: the test below bisects
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = at(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def solve_step2(mu_b: float, params: SystemParams,
                grid: Optional[GridSpec] = None) -> Step2Result:
    """Maximize the step-1 throughput over the jamming power.

    The derivative bracket has at most one sign change, from + to -
    (quasi-concavity), over [floor, p_b_max] with floor = min(p_b_floor,
    p_b_max).  A derivative that is <= 0 already at the floor means jamming
    only hurts (degenerate FD: the floor is reported); one still >= 0 at the
    budget means the budget binds (capped).  Otherwise the two end signs
    bracket the change, which Brent's method refines on ln p_b.
    """
    validate(params)
    _check_mu_b(mu_b)
    grid = grid or GridSpec()
    grid.check(params)
    return _step2(mu_b, grid, _Outage(params))


def _step2(mu_b: float, grid: GridSpec, outage: _Outage) -> Step2Result:
    """:func:`solve_step2` on the outage constraint ``outage``, without
    checking its inputs."""
    params = outage.params

    # step-1 solves by exact p_b, so no power is solved twice: Brent's end
    # evaluations and the final solve at p_dag reuse solves already made
    @functools.cache
    def step1_at(p_b: float) -> Step1Result:
        return _step1(p_b, mu_b, outage)

    def sign_at(p_b: float) -> float:
        return _derivative_sign(p_b, step1_at(p_b), outage)

    floor, p_max = min(grid.p_b_floor, params.p_b_max), params.p_b_max
    if sign_at(floor) <= 0.0:
        p_dag, capped, degenerate, iters = floor, False, True, 0
    elif floor == p_max or sign_at(p_max) >= 0.0:
        p_dag, capped, degenerate, iters = p_max, True, False, 0
    else:
        # Brent's method on t = ln p_b; its ends map back to the powers
        # solved above, not to exp(ln p) a few ulps away
        lo, hi = math.log(floor), math.log(p_max)
        ends = {lo: floor, hi: p_max}

        def power(t: float) -> float:
            return ends.get(t) or math.exp(t)

        try:
            t_root, iters = _brentq(lambda t: sign_at(power(t)), lo, hi,
                                    _XTOL_LOG)
        except (InfeasibleError, ValidationError):
            raise   # a step-1 failure keeps its own message
        except (ValueError, RuntimeError) as exc:
            raise InfeasibleError(
                f"jamming-power root not found for p_b in "
                f"[{floor:.6g}, {p_max:.6g}] W: {exc}") from exc
        p_dag, capped, degenerate = power(t_root), False, False

    step1 = step1_at(p_dag)
    # relative residual of the stationarity condition varpi*y = gain at an
    # interior root, where varpi > 0: without it the sign is never negative
    residual = math.nan if (capped or degenerate) else abs(math.expm1(
        math.log(step1.varpi) + math.log(step1.y_star) - _log_gain(p_dag, step1, outage)))
    return Step2Result(p_b_dagger=p_dag, capped=capped, degenerate=degenerate,
                       step1=step1, residual=residual, iterations=iters)


# --------------------------------------------------------------------------
# outer search over the switch threshold
# --------------------------------------------------------------------------

def _peak_bracket(value: Callable[[int], float], n: int) -> range:
    """At most two indices that hold the first maximum of value(0..n-1).

    Fibonacci search (Kiefer, "Sequential minimax search for a maximum",
    1953) on the index, with indices past n-1 standing for -inf and never
    evaluated.  Exact whenever the values increase strictly up to their
    first maximum and never increase after it; each step reuses one probe,
    so about log_phi(n) values are evaluated in all.
    """
    fib = [1, 1]
    while fib[-1] < n + 1:
        fib.append(fib[-1] + fib[-2])
    k = len(fib) - 1
    lo = -1   # the open bracket (lo, lo + fib[k]) holds the first maximum

    def at(i: int) -> float:
        return value(i) if i < n else -math.inf

    while fib[k] > 3:
        x1, x2 = lo + fib[k - 2], lo + fib[k - 1]
        if at(x1) < at(x2):
            lo = x1
        k -= 1
    return range(lo + 1, min(lo + fib[k], n))


def optimize(params: SystemParams, grid: Optional[GridSpec] = None, *,
             forced_mu_b: Optional[float] = None,
             forced_p_b: Optional[float] = None) -> SwitchedSolution:
    """Full off-line design: argmax over the switch threshold grid.

    For a candidate mu_b the jamming-mode group is optimized by
    :func:`solve_step2` (or pinned to ``forced_p_b``), the half-duplex group
    is reused from a single step-1 solve at p_b = mu_b = 0 (without jamming
    it does not depend on mu_b), and the two are combined with the
    mode-occupancy weights.  The smallest mu_b wins ties, making the search
    deterministic.  ``forced_mu_b`` replaces the grid by that one threshold,
    solved directly: its own error reaches the caller.  The inputs are
    checked, and the outage budget formed, once, here; every mu_b visited
    shares one outage root per jamming power, remembered only for this call.

    The throughput has a single peak over the grid, so a Fibonacci search
    finds it from about ten of its points; the result equals that of a
    scan of every point.  If a point the search visits fails to solve, the
    search gives way to that full scan: failing points are reported as
    warnings, and only a fully infeasible grid raises.  A failing point the
    search never visits is never solved, so it is not reported.

    The returned solution also carries the solver records behind it, for
    diagnostics: ``step2`` is the winning point's :class:`Step2Result` (at a
    forced power, the step-1 solve wrapped with ``residual = nan`` and
    ``iterations = 0``), and ``hd_result`` is the half-duplex group's
    :class:`Step1Result` at p_b = mu_b = 0 (so its ``omega_tilde`` is
    unweighted).  If that solve fails, its error is raised prefixed with
    ``half-duplex group:``.
    """
    validate(params)
    grid = grid or GridSpec()
    grid.check(params)
    if forced_mu_b is not None and not 0.0 <= forced_mu_b < math.inf:
        raise ValidationError(f"forced mu_b must be finite and >= 0: {forced_mu_b}")
    if forced_p_b is not None and not 0.0 < forced_p_b <= params.p_b_max:
        raise ValidationError(
            f"forced p_b must be in (0, p_b_max]: {forced_p_b}")

    outage = _Outage(params)
    try:
        hd_core = _step1(0.0, 0.0, outage)
    except InfeasibleError as exc:
        raise InfeasibleError(f"half-duplex group: {exc}") from exc
    hd = HdParams(r_c=hd_core.r_c, r_s=hd_core.r_s, mu_a=hd_core.mu_a)
    mu_b_grid = [float(forced_mu_b)] if forced_mu_b is not None \
        else [float(v) for v in grid.mu_b_values()]

    @functools.cache
    def point(i: int):
        """(omega_s, omega_fd, omega_hd, mu_b, record) at grid index i."""
        mu_b = mu_b_grid[i]
        if forced_p_b is not None:
            step1 = _step1(forced_p_b, mu_b, outage)
            record = Step2Result(p_b_dagger=forced_p_b, capped=False,
                                 degenerate=False, step1=step1,
                                 residual=math.nan, iterations=0)
        else:
            record = _step2(mu_b, grid, outage)
        omega_fd = throughput_fd(record.step1.r_s, record.step1.mu_a, mu_b, params.rho)
        omega_hd = throughput_hd(hd.r_s, hd.mu_a, mu_b, params.rho)
        return omega_fd + omega_hd, omega_fd, omega_hd, mu_b, record

    try:
        candidates = [point(i) for i in
                      _peak_bracket(lambda i: point(i)[0], len(mu_b_grid))]
    except (InfeasibleError, ValidationError):
        if forced_mu_b is not None:
            raise   # the grid's one point: no scan, its own error
        candidates = []
        for i, mu_b in enumerate(mu_b_grid):
            try:
                candidates.append(point(i))
            except (InfeasibleError, ValidationError) as exc:
                warnings.warn(f"switch-threshold grid point mu_b={mu_b:.3g} "
                              f"infeasible: {exc}", RuntimeWarning, stacklevel=2)
        if not candidates:
            raise InfeasibleError(
                f"every switch-threshold grid point infeasible "
                f"({len(mu_b_grid)} tried)") from None

    # max keeps the first of equal throughputs: the smallest mu_b wins ties
    omega_s, omega_fd, omega_hd, mu_b, record = max(candidates, key=lambda c: c[0])
    step1 = record.step1
    fd = FdParams(r_c=step1.r_c, r_s=step1.r_s, mu_a=step1.mu_a, p_b=record.p_b_dagger)
    return SwitchedSolution(mu_b=float(mu_b), fd=fd, hd=hd,
                            omega_s=omega_s, omega_fd=omega_fd,
                            omega_hd=omega_hd, degenerate_fd=record.degenerate,
                            capped_fd=record.capped, step2=record,
                            hd_result=hd_core)
