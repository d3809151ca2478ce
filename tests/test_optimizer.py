import dataclasses
import itertools
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fdjam.analytics
import fdjam.optimizer
from fdjam import (GridSpec, InfeasibleError, SystemParams, ValidationError,
                   dbm_to_watts, optimize, solve_step1, solve_step2, v_of_y)
from fdjam.analytics import (comparison_metrics, hd_weight, log_exposure_approx,
                             sop_approx, sop_exact)
from fdjam.config import load_config
from fdjam.params import solution_from_dict, solution_to_dict

from oracles import (derivative_signs, mu_a_from_sop_constraint,
                     omega_s_profile, omega_tilde_formula, optimize_reference,
                     power_scan, random_scenarios, sign_changes, solve_hd,
                     tau_of, u_of, vi_defaults, yz_root_brentq)

VI_PB = dbm_to_watts(10.0)
VI_MU_B = 1e-7

# Interior-optimum regime for the jamming-power search: tight outage bounds
# and switch levels low enough that the optimum clears the power floor.
INTERIOR_SETS = [
    (1e-4, 1e-4, 1e-9), (1e-4, 1e-3, 1e-9), (1e-4, 1e-2, 1e-9),
    (1e-3, 1e-3, 1e-9), (1e-3, 1e-2, 1e-9), (1e-4, 1e-4, 3e-9),
    (1e-4, 1e-3, 3e-9), (1e-3, 1e-2, 3e-9), (1e-4, 1e-2, 1e-8),
    (1e-3, 1e-3, 3e-9),
]


def interior_params(lam, eps):
    return vi_defaults(lambda_e=lam, epsilon=eps, p_b_max=dbm_to_watts(30.0))


# ---------------------------------------------------------------- v_of_y

def test_v_of_y_reference_value():
    # closed form at y = u = 1: 2 * exp(-1/2) - 1
    assert v_of_y(1.0, 1.0) == pytest.approx(2.0 * math.exp(-0.5) - 1.0, rel=1e-15)
    assert v_of_y(1.0, 1.0) == pytest.approx(0.21306131942526685, rel=1e-12)


def test_v_of_y_shape():
    for u in (1e-6, 1e-2, 1.0, 100.0):
        assert v_of_y(0.0, u) < 0.0
        ys = np.logspace(-3, 8, 50)
        vals = [v_of_y(y, u) for y in ys]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # strictly increasing wherever the exponential has not underflowed
        assert all(b > a for a, b in zip(vals, vals[1:]) if a > -1.0)
        assert all(v < y for v, y in zip(vals, ys))
    assert v_of_y(5.0, 1e15) == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize("y, u, message", [
    (-1.0, 1.0, "y must be >= 0: -1.0"), (math.nan, 1.0, "y must be >= 0: nan"),
    (1.0, 0.0, "u must be > 0: 0.0"), (1.0, math.nan, "u must be > 0: nan"),
])
def test_v_of_y_rejects_out_of_domain_inputs(y, u, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        v_of_y(y, u)


# ---------------------------------------------------------------- step 1

def test_step1_matches_brute_force_grid():
    p = vi_defaults()
    r1 = solve_step1(VI_PB, VI_MU_B, p)
    # independent oracle: constraint root via brentq, dense objective scan
    yz = yz_root_brentq(VI_PB, p)
    u = u_of(p, VI_PB, VI_MU_B)
    ys = np.logspace(-6, 20.0 * math.log10(2.0), 20000)
    best = max(omega_tilde_formula(y, yz, u) for y in ys)
    assert r1.omega_tilde == pytest.approx(best, rel=1e-2)
    assert r1.omega_tilde >= best - 1e-9
    assert r1.yz_star == pytest.approx(yz, rel=1e-9)


def test_step1_invariants_on_random_scenarios():
    for sc in random_scenarios(20):
        r1 = solve_step1(sc.p_b, sc.mu_b, sc.params)
        assert r1.residual <= 1e-9
        assert r1.omega_forms_gap <= 1e-9
        assert 0.0 < r1.r_s < r1.r_c
        assert r1.r_c == pytest.approx(math.log2(1.0 + r1.y_star), rel=1e-12)
        assert r1.r_c - r1.r_s == pytest.approx(math.log2(1.0 + r1.yz_star), rel=1e-12)
        u = u_of(sc.params, sc.p_b, sc.mu_b)
        assert r1.mu_a == pytest.approx(u * r1.y_star, rel=1e-12)
        assert r1.omega_tilde == pytest.approx(r1.r_s * math.exp(-r1.mu_a), rel=1e-12)


def test_step1_profile_unimodal_on_random_scenarios():
    for sc in random_scenarios(12, seed=77):
        r1 = solve_step1(sc.p_b, sc.mu_b, sc.params)
        u = u_of(sc.params, sc.p_b, sc.mu_b)
        lo = max(r1.yz_star * (1.0 + 1e-9), r1.y_star / 1e3)
        ys = np.logspace(math.log10(lo), math.log10(r1.y_star * 1e3), 1000)
        profile = np.array([omega_tilde_formula(y, r1.yz_star, u) for y in ys])
        assert sign_changes(profile) == 1


def test_on_off_threshold_matches_independent_outage_inversion():
    for sc in random_scenarios(10, seed=5):
        r1 = solve_step1(sc.p_b, sc.mu_b, sc.params)
        mu_a2 = mu_a_from_sop_constraint(r1.r_c, r1.r_s, sc.p_b, sc.mu_b, sc.params)
        assert mu_a2 == pytest.approx(r1.mu_a, rel=1e-9)


def test_rate_collapses_under_loose_outage_bound():
    # with u near 1 the codeword rate shrinks toward zero as epsilon -> 1
    p = vi_defaults(p_a_max=0.01, p_b_max=2.0)
    r = [solve_step1(1.0, 1e-3, dataclasses.replace(p, epsilon=eps)).r_c
         for eps in (0.99, 0.9999, 0.999999)]
    assert r[0] > r[1] > r[2]
    assert r[1] < 1.0


def test_step1_names_a_codeword_rate_beyond_the_representable_range():
    # at 1e100 W over a 1e-206 W noise floor, ln(1 + y*) passes 700 and
    # exp(ln(1 + y*)) would overflow; a noise floor ten times higher designs
    p = SystemParams(alpha=4.0, d_ab=1.0, lambda_e=0.038, sigma_b2=1e-206,
                     sigma_e2=1e-182, rho=1e-7, epsilon=0.1, p_a_max=1e100,
                     p_b_max=1e-2)
    with pytest.raises(InfeasibleError, match=re.escape(
            "codeword rate beyond representable range: ln(1+y)=700.65")):
        solve_step1(0.0, 0.0, p)
    r1 = solve_step1(0.0, 0.0, dataclasses.replace(p, sigma_b2=1e-205))
    assert r1.r_c == pytest.approx(1007.57, abs=0.01)
    assert math.isfinite(r1.y_star) and r1.residual < 1e-9


def test_step1_rejects_invalid_params():
    with pytest.raises(ValidationError):
        solve_step1(VI_PB, VI_MU_B, dataclasses.replace(vi_defaults(), epsilon=0.0))
    with pytest.raises(ValidationError, match=r"p_b must be >= 0 W: -1.0"):
        solve_step1(-1.0, VI_MU_B, vi_defaults())
    with pytest.raises(ValidationError, match=r"p_b must be >= 0 W: nan"):
        solve_step1(math.nan, VI_MU_B, vi_defaults())
    with pytest.raises(ValidationError, match=r"mu_b must be >= 0: -1e-08"):
        solve_step1(VI_PB, -1e-8, vi_defaults())
    with pytest.raises(ValidationError, match=r"mu_b must be >= 0: nan"):
        solve_step1(VI_PB, math.nan, vi_defaults())


def test_step2_rejects_invalid_params():
    with pytest.raises(ValidationError, match=r"epsilon out of \(0,1\): 0.0"):
        solve_step2(VI_MU_B, dataclasses.replace(vi_defaults(), epsilon=0.0))
    with pytest.raises(ValidationError, match=r"mu_b must be >= 0: -1e-08"):
        solve_step2(-1e-8, vi_defaults())
    with pytest.raises(ValidationError, match=r"mu_b must be >= 0: nan"):
        solve_step2(math.nan, vi_defaults())
    with pytest.raises(ValidationError,
                       match=r"grid requires 0 < mu_b_min <= mu_b_max"):
        solve_step2(VI_MU_B, vi_defaults(), GridSpec(mu_b_min=0.0))
    with pytest.raises(ValidationError,
                       match=r"p_b_max must be > 0 W to design the jamming mode: 0.0"):
        solve_step2(VI_MU_B, dataclasses.replace(vi_defaults(), p_b_max=0.0))


def test_rate_solvers_fail_only_with_package_errors_on_extreme_inputs():
    # far outside the physical range every solve either returns rates or
    # raises one of the package's own errors, never a bare arithmetic one
    rng = np.random.default_rng(20261018)

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))

    for _ in range(1000):
        epsilon = (log_uniform(-300.0, -0.3) if rng.random() < 0.5
                   else 1.0 - log_uniform(-16.0, -0.3))
        params = SystemParams(
            alpha=float(rng.uniform(2.0, 8.0)), d_ab=log_uniform(-3.0, 4.0),
            lambda_e=log_uniform(-12.0, 0.0), sigma_b2=log_uniform(-22.0, 0.0),
            sigma_e2=log_uniform(-22.0, 0.0), rho=log_uniform(-12.0, 0.0),
            epsilon=epsilon, p_a_max=log_uniform(-10.0, 12.0),
            p_b_max=log_uniform(-10.0, 12.0))
        p_b = 0.0 if rng.random() < 0.25 else params.p_b_max * log_uniform(-6.0, 0.0)
        mu_b = 0.0 if rng.random() < 0.25 else log_uniform(-12.0, -2.0)
        for solve in (lambda: solve_step1(p_b, mu_b, params),
                      lambda: solve_step2(mu_b, params).step1):
            try:
                rates = solve()
            except (InfeasibleError, ValidationError):
                continue
            assert 0.0 < rates.r_s <= rates.r_c < math.inf


def test_optimize_fails_only_with_package_errors_on_extreme_inputs():
    # every value log-uniform over most of double range: a design either
    # comes out or ends in one of the package's own errors.  An overflowing
    # step-2 gain (OverflowError) and sigma_e2/p_a_max underflowing under
    # the step-1 residual's logarithm (ValueError) escaped on about 1 % of
    # such scenarios each
    rng = np.random.default_rng(20261020)

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))

    designs = 0
    for _ in range(2000):
        params = SystemParams(
            alpha=float(rng.uniform(2.0, 8.0)), d_ab=log_uniform(-10.0, 10.0),
            lambda_e=log_uniform(-300.0, 300.0), epsilon=log_uniform(-300.0, 0.0),
            sigma_b2=log_uniform(-300.0, 300.0), sigma_e2=log_uniform(-300.0, 300.0),
            rho=log_uniform(-300.0, 0.0), p_a_max=log_uniform(-300.0, 300.0),
            p_b_max=log_uniform(-300.0, 300.0))
        mu_b_min, mu_b_max = sorted(log_uniform(-300.0, 300.0) for _ in range(2))
        grid = GridSpec(mu_b_min=mu_b_min, mu_b_max=mu_b_max,
                        mu_b_steps=int(rng.integers(1, 61)),
                        p_b_floor=log_uniform(-300.0, 300.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")    # infeasible grid points
            try:
                optimize(params, grid)
            except (InfeasibleError, ValidationError):
                continue
        designs += 1
    assert designs > 200


# ---------------------------------------------------------------- step 2

def test_step2_interior_matches_grid_scan():
    lam, eps, mu_b = 1e-4, 1e-2, 1e-9
    p = interior_params(lam, eps)
    s2 = solve_step2(mu_b, p)
    assert not s2.capped and not s2.degenerate
    assert s2.residual <= 1e-7
    grid = GridSpec()
    scan = np.logspace(math.log10(grid.p_b_floor), math.log10(p.p_b_max), 200)
    omegas = [solve_step1(pb, mu_b, p).omega_tilde for pb in scan]
    best = scan[int(np.argmax(omegas))]
    step = math.log(scan[1]) - math.log(scan[0])
    assert abs(math.log(s2.p_b_dagger) - math.log(best)) <= step


def test_step2_degenerate_flag_for_sparse_eavesdroppers():
    p = dataclasses.replace(vi_defaults(), lambda_e=1e-12)
    s2 = solve_step2(1e-7, p)
    assert s2.degenerate and not s2.capped
    assert s2.p_b_dagger == GridSpec().p_b_floor


def test_step2_caps_at_budget():
    p = dataclasses.replace(interior_params(1e-4, 1e-3), p_b_max=dbm_to_watts(0.0))
    s2 = solve_step2(1e-9, p)
    assert s2.capped and s2.p_b_dagger == p.p_b_max


def test_step2_sign_of_zero_at_the_budget_is_capped():
    # without a switch level (varpi = 0) the sign exp(ln gain) is never
    # negative, but here the gain underflows to 0 at the budget: brentq took
    # that end as an interior root, whose residual needs ln varpi
    p = SystemParams(
        alpha=7.408036626724904, d_ab=18.08979872932033,
        lambda_e=1.7475076522409014e-143, sigma_b2=4.084052601548702e-122,
        sigma_e2=1.996375812671972e+78, rho=1.6261387809345069e-124,
        epsilon=8.963622545692112e-151, p_a_max=6.560301319934751e+124,
        p_b_max=2.6181939833939122e+284)
    grid = GridSpec(p_b_floor=3.563687542124881e-278)
    sign = {p_b: fdjam.optimizer._derivative_sign(
        p_b, solve_step1(p_b, 0.0, p), fdjam.analytics._Outage(p))
        for p_b in (grid.p_b_floor, p.p_b_max)}
    assert sign[grid.p_b_floor] > 0.0 and sign[p.p_b_max] == 0.0
    s2 = solve_step2(0.0, p, grid)
    assert s2.capped and not s2.degenerate and s2.p_b_dagger == p.p_b_max
    assert math.isnan(s2.residual) and s2.iterations == 0


def _sign_nan_inside(floor, p_max):
    """A derivative sign that is NaN strictly inside (floor, p_max)."""
    sign = fdjam.optimizer._derivative_sign

    def patched(p_b, r1, outage):
        return sign(p_b, r1, outage) if p_b in (floor, p_max) else math.nan
    return patched


def _brentq_capped(*args, **kwargs):
    raise RuntimeError("Failed to converge after 100 iterations, value is 0.5.")


@pytest.mark.parametrize("failure", ["nan_sign", "iteration_cap"])
def test_step2_names_a_jamming_power_root_that_brentq_cannot_find(monkeypatch,
                                                                   failure):
    # brentq raises ValueError at a NaN sign and RuntimeError at its
    # iteration cap; neither is an input error, so step 2 reports the
    # search range as infeasible
    p, mu_b = interior_params(1e-4, 1e-2), 1e-9
    floor = GridSpec().p_b_floor
    assert not solve_step2(mu_b, p).capped
    if failure == "nan_sign":
        monkeypatch.setattr(fdjam.optimizer, "_derivative_sign",
                            _sign_nan_inside(floor, p.p_b_max))
        reason = "NaN"
    else:
        monkeypatch.setattr(fdjam.optimizer, "_brentq", _brentq_capped)
        reason = "Failed to converge after 100 iterations"
    with pytest.raises(InfeasibleError) as exc:
        solve_step2(mu_b, p)
    assert str(exc.value).startswith(
        f"jamming-power root not found for p_b in [{floor:.6g}, {p.p_b_max:.6g}] W: ")
    assert reason in str(exc.value)


def _sign_family(kind: int, n: int, seed: int = 35):
    """``n`` seeded sign functions of one kind, each with a bracket [a, b]
    over which it changes sign, and a root tolerance."""
    rng = np.random.default_rng((seed, kind))
    for _ in range(n):
        a = float(rng.uniform(-50.0, 10.0))
        b = a + float(10.0 ** rng.uniform(-6.0, 2.0))
        r, s = float(rng.uniform(a, b)), float(rng.choice([-1.0, 1.0]))
        k, w = float(10.0 ** rng.uniform(-3.0, 3.0)), float(rng.uniform(0.0, 1.0))
        xtol = float(10.0 ** rng.uniform(-15.0, -3.0))
        if kind == 0:       # of odd order at the root, and tiny: products
            # of its values underflow, and the interpolation divides by 0
            p = int(rng.integers(0, 3)) * 2 + 1
            scale = float(10.0 ** rng.uniform(-300.0, 0.0))
            f = lambda x, r=r, s=s, p=p, scale=scale: s * scale * (x - r) ** p
        elif kind == 1:     # a staircase: flat stretches, no zero
            f = lambda x, r=r, s=s, k=k: s * (math.floor(k * (x - r)) + 0.5)
        elif kind == 2:     # clipped: flat beyond both levels
            f = lambda x, r=r, s=s, k=k, w=w: s * min(max(k * (x - r) ** 3, -w),
                                                      1.0 - w)
        elif kind == 3:     # -inf and +inf beyond a point on each side
            lo, hi = r - w * (r - a), r + w * (b - r)
            f = lambda x, r=r, s=s, lo=lo, hi=hi: s * (
                -math.inf if x < lo else math.inf if x > hi else (x - r) ** 3)
        else:               # a saturating sign
            f = lambda x, r=r, s=s, k=k: s * math.tanh(k * (x - r))
        yield f, a, b, xtol


def _search(solve):
    """The root and iteration count a search returns, or its error's type
    and message."""
    try:
        return solve()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _scipy_brentq(f, a, b, xtol):
    from scipy.optimize import brentq
    root, info = brentq(f, a, b, xtol=xtol, full_output=True)
    return root, info.iterations


@pytest.mark.parametrize("kind", range(5), ids=["tiny_odd_power", "staircase",
                                                "clipped", "infinite_tails",
                                                "saturating"])
def test_brentq_port_equals_scipy_brentq(kind):
    # the step-2 root search is a port of scipy's brentq, pinned to it here
    # root for root, count for count and message for message (its iteration
    # cap and a bracket [a, a] without a sign change included);
    # scipy.optimize stays the reference, in tests only
    for f, a, b, xtol in _sign_family(kind, 300):
        for end in (b, a):
            expected = _search(lambda: _scipy_brentq(f, a, end, xtol))
            if 0.0 in (f(a), f(end)):   # a tiny value underflows: scipy
                expected = expected[0], 0   # leaves its count unset
            got = _search(lambda: fdjam.optimizer._brentq(f, a, end, xtol))
            assert got == expected, (a, end, xtol)


def test_brentq_port_equals_scipy_brentq_on_step2_signs(monkeypatch):
    # every interior step-2 search of seeded random scenarios, on the very
    # sign function solve_step2 passes (its step-1 solves are cached, so the
    # second search sees the same values)
    port, searches = fdjam.optimizer._brentq, []

    def both(f, a, b, xtol):
        found = port(f, a, b, xtol)
        searches.append(found == _scipy_brentq(f, a, b, xtol))
        return found

    monkeypatch.setattr(fdjam.optimizer, "_brentq", both)
    for sc in random_scenarios(100, seed=35):
        for mu_b in np.logspace(-9.0, -5.0, 5):
            solve_step2(float(mu_b), sc.params)
    assert len(searches) >= 100 and all(searches)


def test_step2_profile_quasi_concave():
    for lam, eps, mu_b in [(1e-4, 1e-3, 1e-9), (1e-4, 0.1, 1e-7), (1e-12, 0.1, 1e-7)]:
        p = interior_params(lam, eps) if lam > 1e-6 else \
            dataclasses.replace(vi_defaults(), lambda_e=lam)
        scan = np.logspace(math.log10(GridSpec().p_b_floor),
                           math.log10(p.p_b_max), 200)
        profile = np.array([solve_step1(pb, mu_b, p).omega_tilde for pb in scan])
        assert sign_changes(profile) <= 1


def test_step2_optimum_power_nonincreasing_in_outage_bound():
    roots = [solve_step2(1e-9, interior_params(1e-4, eps)).p_b_dagger
             for eps in (1e-4, 1e-3, 1e-2)]
    assert all(a >= b * (1.0 - 1e-6) for a, b in zip(roots, roots[1:]))


def test_step2_degenerate_when_outage_bound_loose():
    p = interior_params(1e-4, 0.9999)
    grid = GridSpec()
    floor_omega = solve_step1(grid.p_b_floor, 1e-7, p).omega_tilde
    for pb in np.logspace(math.log10(grid.p_b_floor), math.log10(p.p_b_max), 12)[1:]:
        assert solve_step1(float(pb), 1e-7, p).omega_tilde <= floor_omega
    assert solve_step2(1e-7, p, grid).degenerate


# ---------------------------------------------------------------- HD case

def test_hd_equals_step1_without_jamming():
    for sc in random_scenarios(6, seed=9):
        hd = solve_hd(sc.mu_b, sc.params)
        r0 = solve_step1(0.0, sc.mu_b, sc.params)
        assert hd.hd.r_c == pytest.approx(r0.r_c, rel=1e-9)
        assert hd.hd.r_s == pytest.approx(r0.r_s, rel=1e-9)
        assert hd.hd.mu_a == pytest.approx(r0.mu_a, rel=1e-9)
        assert hd.residual <= 1e-9


def test_hd_on_off_threshold_exact_on_low_rate_link():
    # r_c ~ 9e-11 on this long link, where u*(2^r_c - 1) cancels to 5e-7
    # relative; the optimizer's half-duplex group must not
    p = SystemParams(alpha=5.4512369396749385, d_ab=616.5157770528308,
                     lambda_e=5.954258000023205e-08, sigma_b2=1.5933452164472334e-06,
                     sigma_e2=3.9034501621761685e-05, rho=2.404240943713292e-09,
                     epsilon=0.2910841779542763, p_a_max=0.15622474703373992,
                     p_b_max=0.11134514558742532)
    hd = optimize(p, forced_mu_b=0.0).hd
    assert hd.mu_a == pytest.approx(
        u_of(p, 0.0, 0.0) * math.expm1(hd.r_c * math.log(2.0)), rel=1e-12)


def test_hd_redundancy_vanishes_without_eavesdroppers():
    p = dataclasses.replace(vi_defaults(), lambda_e=1e-12)
    hd = solve_step1(0.0, 0.0, p)
    assert hd.r_c - hd.r_s < 1e-3 * hd.r_c


def test_hd_throughput_grows_then_plateaus_in_power_budget():
    for lam, eps in [(1e-5, 0.01), (1e-5, 0.1), (1e-4, 0.01), (1e-4, 0.1)]:
        omegas = []
        for p_dbm in range(-10, 45, 5):
            p = vi_defaults(lambda_e=lam, epsilon=eps,
                            p_a_max=dbm_to_watts(p_dbm), rho=1e-7)
            omegas.append(solve_step1(0.0, VI_MU_B, p).omega_tilde)
        assert all(b >= a * (1.0 - 1e-9) for a, b in zip(omegas, omegas[1:]))
        assert omegas[-1] - omegas[-2] <= max(1e-9, 0.01 * omegas[-1])


# ---------------------------------------------------------------- optimize

def test_optimize_pure_hd_when_switch_disabled():
    p = vi_defaults()
    sol = optimize(p, forced_mu_b=0.0)
    assert sol.mu_b == 0.0
    assert sol.omega_fd == 0.0
    hd = solve_step1(0.0, 0.0, p)
    assert sol.omega_s == pytest.approx(hd.omega_tilde, rel=1e-12)


def test_optimize_perfect_suppression_is_jamming_only():
    p = vi_defaults(rho=0.0)
    sol = optimize(p)
    assert sol.mu_b > 0.0
    assert sol.omega_hd == 0.0
    assert sol.omega_s == pytest.approx(sol.omega_fd, rel=1e-12)


def test_optimize_consistency_of_components():
    p = vi_defaults(lambda_e=1e-5, epsilon=0.05)
    sol = optimize(p)
    assert sol.omega_s == pytest.approx(sol.omega_fd + sol.omega_hd, rel=1e-12)
    w = hd_weight(sol.mu_b, p.rho)
    assert sol.omega_fd == pytest.approx(
        sol.fd.r_s * math.exp(-sol.fd.mu_a) * (1.0 - w), rel=1e-12)
    assert sol.omega_hd == pytest.approx(
        sol.hd.r_s * math.exp(-sol.hd.mu_a) * w, rel=1e-12)
    assert 0.0 < sol.fd.p_b <= p.p_b_max


def test_optimize_dominates_single_mode_yardsticks():
    p = vi_defaults(lambda_e=1e-5, epsilon=0.05)
    sol = optimize(p)
    m = comparison_metrics(sol, p)
    assert sol.omega_s >= m.omega_fd_comp - 1e-12
    assert sol.omega_s >= m.omega_hd_comp - 1e-12


def test_optimize_forced_jamming_power():
    p = vi_defaults(lambda_e=1e-5, epsilon=0.05)
    sol = optimize(p, forced_p_b=2e-3)
    assert sol.fd.p_b == 2e-3
    with pytest.raises(ValidationError):
        optimize(p, forced_p_b=2.0 * p.p_b_max)


@pytest.mark.parametrize("mu_b", [-1.0, math.nan, math.inf])
def test_optimize_rejects_a_forced_switch_level_by_name(mu_b):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match=re.escape(
                f"forced mu_b must be finite and >= 0: {mu_b}")):
            optimize(vi_defaults(lambda_e=1e-5, epsilon=0.05), forced_mu_b=mu_b)


def test_optimize_raises_a_forced_switch_level_s_own_error():
    # the jamming term p_b * mu_b swamps u: the secrecy rate underflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InfeasibleError, match="^secrecy rate underflows"):
            optimize(vi_defaults(lambda_e=1e-5, epsilon=0.05), forced_mu_b=1e300)


def test_optimize_carries_its_solver_records():
    p = vi_defaults(lambda_e=1e-5, epsilon=0.05)
    sol = optimize(p)
    assert sol.step2 == solve_step2(sol.mu_b, p)
    assert sol.step2.p_b_dagger == sol.fd.p_b
    assert sol.hd_result == solve_step1(0.0, 0.0, p)
    assert (sol.hd.r_c, sol.hd.r_s, sol.hd.mu_a) == \
        (sol.hd_result.r_c, sol.hd_result.r_s, sol.hd_result.mu_a)
    # diagnostics only: neither serialized nor compared
    assert solution_from_dict(solution_to_dict(sol)) == sol

    forced = optimize(p, forced_p_b=2e-3)
    assert forced.step2.step1 == solve_step1(2e-3, forced.mu_b, p)
    assert math.isnan(forced.step2.residual) and forced.step2.iterations == 0


def _default_config():
    return load_config(str(Path(__file__).resolve().parents[1]
                           / "configs" / "default.ini"))


@pytest.mark.parametrize("d_ab, fd_sop", [(10.0, 0.136093), (30.0, 0.257801)])
def test_closed_form_design_breaks_epsilon_on_the_exact_outage(d_ab, fd_sop):
    # a known fault, pinned so that it shows: the design meets epsilon on
    # the closed-form outage, which holds for small d_ab only; on the
    # quadrature its jamming group's worst case (p_a_max) exceeds epsilon
    # = 0.1, while the half-duplex group (p_b = 0, where the two forms
    # agree) meets it
    config = _default_config()
    p = dataclasses.replace(config.system, d_ab=d_ab)
    sol = optimize(p, config.grid)
    fd = sop_exact(p.p_a_max, sol.fd.p_b, sol.fd.r_c, sol.fd.r_s, p)
    assert fd == pytest.approx(fd_sop, abs=1e-3)
    assert fd > p.epsilon == 0.1
    hd = sop_exact(p.p_a_max, 0.0, sol.hd.r_c, sol.hd.r_s, p)
    assert hd <= p.epsilon * (1.0 + 1e-9)


def test_step1_solves_per_default_design(monkeypatch):
    # within one step-2 solve each jamming power is solved once: brentq's
    # bracket ends reuse the solves at the floor and the budget, and the
    # final solve at the chosen power reuses one already made; one more
    # solve, at zero jamming, is the half-duplex group
    config = _default_config()
    calls = []
    original = fdjam.optimizer._step1

    def counted(p_b, mu_b, *rest):
        calls.append((p_b, mu_b))
        return original(p_b, mu_b, *rest)

    monkeypatch.setattr(fdjam.optimizer, "_step1", counted)
    optimize(config.system, config.grid)
    assert len(calls) == 21
    assert len(set(calls)) == len(calls)
    # nor twice a few ulps apart, as exp(ln p) of a power already solved
    for (p1, mu1), (p2, mu2) in itertools.combinations(calls, 2):
        assert mu1 != mu2 or abs(p1 - p2) > 1e-14 * max(p1, p2)


def _count_design_work(monkeypatch):
    """Record the outage roots solved (by jamming power), the params
    validations, the grid checks and the outage budgets formed."""
    counts = dict(powers=[], validations=[], grid_checks=[], budgets=[])
    newton, budget = fdjam.analytics._Outage._newton, fdjam.analytics.exposure_budget
    validate, check = fdjam.optimizer.validate, GridSpec.check

    def counted_newton(outage, p_b):
        counts["powers"].append(p_b)
        return newton(outage, p_b)

    def counted_budget(params):
        counts["budgets"].append(params)
        return budget(params)

    def counted_validate(params):
        counts["validations"].append(params)
        return validate(params)

    def counted_check(grid, params):
        counts["grid_checks"].append(grid)
        return check(grid, params)

    monkeypatch.setattr(fdjam.analytics._Outage, "_newton", counted_newton)
    monkeypatch.setattr(fdjam.analytics, "exposure_budget", counted_budget)
    monkeypatch.setattr(fdjam.optimizer, "validate", counted_validate)
    monkeypatch.setattr(GridSpec, "check", counted_check)
    return counts


def test_outage_roots_and_checks_per_default_design(monkeypatch):
    # the outage root depends on the jamming power only, so one design
    # solves it once per power, however many switch levels share it; the
    # params and the grid are checked, and the outage budget formed, once,
    # at the entry
    config = _default_config()
    counts = _count_design_work(monkeypatch)
    optimize(config.system, config.grid)
    # no power is solved twice
    assert len(counts["powers"]) == 13
    assert len(set(counts["powers"])) == 13
    assert len(counts["validations"]) == 1 and len(counts["grid_checks"]) == 1
    assert len(counts["budgets"]) == 1


def test_step_solvers_check_and_form_the_budget_once(monkeypatch):
    # each public step solver is an entry of its own: one check of its
    # inputs, one outage budget, and one root per jamming power it visits
    config = _default_config()
    counts = _count_design_work(monkeypatch)
    solve_step1(VI_PB, VI_MU_B, config.system)
    assert len(counts["validations"]) == 1 and len(counts["budgets"]) == 1
    assert counts["grid_checks"] == [] and counts["powers"] == [VI_PB]
    # a switch level at which brentq refines an interior power
    record = solve_step2(1e-8, config.system, config.grid)
    assert record.iterations > 0
    assert len(counts["validations"]) == 2 and len(counts["budgets"]) == 2
    assert len(counts["grid_checks"]) == 1
    step2_powers = counts["powers"][1:]
    assert len(set(step2_powers)) == len(step2_powers) > 2
    assert record.p_b_dagger in step2_powers


class _Recorder:
    """Passes every read of ``outage`` through, recording each answer."""

    def __init__(self, outage):
        self.outage, self.answers = outage, {}

    def __getattr__(self, name):
        value = getattr(self.outage, name)
        if not callable(value):
            self.answers[name] = value
            return value

        def recorded(*args):
            self.answers[name, args] = value(*args)
            return self.answers[name, args]
        return recorded


class _Replay:
    """Gives only the answers recorded; any other read is a KeyError."""

    def __init__(self, answers):
        self.answers = answers

    def __getattr__(self, name):
        if name in self.answers:
            return self.answers[name]
        return lambda *args: self.answers[name, args]


def test_step2_reads_the_outage_model_only_through_its_object(monkeypatch):
    # steps 1 and 2 ask the outage object, and nothing else, about the
    # model: replaying its answers with the closed form's free functions
    # disabled gives the same design; this is the seam an exact outage
    # model plugs into
    outage = fdjam.analytics._Outage(_default_config().system)
    runs = []
    for mu_b in (1e-10, 1e-9, 1e-7):
        recorder = _Recorder(outage)
        runs.append((mu_b, recorder.answers,
                     fdjam.optimizer._step2(mu_b, GridSpec(), recorder)))
    # capped, interior and degenerate
    assert [(r.capped, r.degenerate, r.iterations > 0) for *_, r in runs] == [
        (True, False, False), (False, False, True), (False, True, False)]

    def unreachable(*args):
        raise AssertionError("outage model read around its object")

    for module in [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "fdjam"]:
        for name in ("log_exposure_approx", "exposure_budget", "field_beta"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unreachable)
    for mu_b, answers, record in runs:
        assert fdjam.optimizer._step2(mu_b, GridSpec(), _Replay(answers)) == record


def test_optimize_rejects_zero_jamming_budget():
    p = dataclasses.replace(vi_defaults(), p_b_max=0.0)
    with pytest.raises(ValidationError, match="p_b_max"):
        optimize(p)


def test_grid_spec_validation():
    p = vi_defaults()
    with pytest.raises(ValidationError):
        GridSpec(mu_b_min=0.0).check(p)
    with pytest.raises(ValidationError):
        GridSpec(mu_b_min=1e-3, mu_b_max=1e-5).check(p)
    with pytest.raises(ValidationError, match="mu_b_steps must be >= 1: 0"):
        GridSpec(mu_b_steps=0).check(p)


@pytest.mark.parametrize("floor", [0.0, -1.0, math.nan])
def test_optimize_rejects_a_jamming_floor_that_is_not_positive(floor):
    with pytest.raises(ValidationError, match=f"p_b_floor must be > 0 W: {floor}"):
        optimize(vi_defaults(), GridSpec(p_b_floor=floor))


# ------------------------------------------- searches against full scans

def _search_scenarios():
    """(name, params, grid): default.ini, the seeded random scenarios, perfect
    SI suppression, and a jamming budget below the power-grid floor."""
    default = load_config(str(Path(__file__).resolve().parents[1]
                              / "configs" / "default.ini"))
    out = [("default", default.system, default.grid)]
    out += [(f"random{i}", sc.params, GridSpec())
            for i, sc in enumerate(random_scenarios(40))]
    out.append(("rho0", dataclasses.replace(default.system, rho=0.0), default.grid))
    out.append(("p_b_max_-30dBm", dataclasses.replace(
        default.system, p_b_max=dbm_to_watts(-30.0)), default.grid))
    return out


SEARCH_SCENARIOS = _search_scenarios()
SEARCH_IDS = [name for name, _, _ in SEARCH_SCENARIOS]


def _forced_powers(params):
    return (params.p_b_max * 1e-3, params.p_b_max * 0.1, params.p_b_max)


def _rises_then_falls(values):
    """Strictly increasing up to the first maximum and never increasing
    after it: the single peak on which the Fibonacci search is exact."""
    peak = values.index(max(values))
    return (all(a < b for a, b in zip(values[:peak], values[1:peak + 1]))
            and all(a >= b for a, b in zip(values[peak:], values[peak + 1:])))


@pytest.mark.parametrize("name, params, grid", SEARCH_SCENARIOS, ids=SEARCH_IDS)
def test_search_assumptions_hold(name, params, grid):
    # a model change that breaks quasi-concavity must fail here, not shift
    # the optimum the searches return
    for mu_b in map(float, grid.mu_b_values()):
        positive = [s > 0.0 for s in derivative_signs(mu_b, params, grid)]
        assert positive == sorted(positive, reverse=True), \
            f"derivative sign changes other than once from + to - at mu_b={mu_b}"
    assert _rises_then_falls(omega_s_profile(params, grid))
    for p_b in _forced_powers(params):
        assert _rises_then_falls(omega_s_profile(params, grid, forced_p_b=p_b))


@pytest.mark.parametrize("name, params, grid", SEARCH_SCENARIOS, ids=SEARCH_IDS)
def test_searches_equal_full_scans_bit_for_bit(name, params, grid):
    # step 2 lands where the fixed power scan puts the sign change; the
    # switch-threshold search equals a scan of every grid point exactly
    powers = power_scan(params, grid)
    for mu_b in map(float, grid.mu_b_values()):
        s2 = solve_step2(mu_b, params, grid)
        signs = derivative_signs(mu_b, params, grid)
        assert s2.degenerate == (signs[0] <= 0.0)
        assert s2.capped == (not s2.degenerate and signs[-1] > 0.0)
        if s2.degenerate:
            assert s2.p_b_dagger == powers[0]
        elif s2.capped:
            assert s2.p_b_dagger == params.p_b_max
        else:
            j = next(k for k, d in enumerate(signs) if d <= 0.0)
            assert powers[j - 1] <= s2.p_b_dagger <= powers[j]
    sol, ref = optimize(params, grid), optimize_reference(params, grid)
    assert sol == ref
    assert sol.step2 == ref.step2 and sol.hd_result == ref.hd_result
    for p_b in _forced_powers(params):
        sol = optimize(params, grid, forced_p_b=p_b)
        ref = optimize_reference(params, grid, forced_p_b=p_b)
        assert sol == ref and sol.step2 == ref.step2


@pytest.mark.parametrize("name, params, grid", SEARCH_SCENARIOS, ids=SEARCH_IDS)
def test_designs_sit_on_their_closed_form_bound(name, params, grid):
    # the outage constraint the optimizer solves and sop_approx read one
    # closed-form model, so both groups meet epsilon with equality at the
    # worst-case power p_a_max
    sol = optimize(params, grid)
    for group, p_b in ((sol.fd, sol.fd.p_b), (sol.hd, 0.0)):
        sop = sop_approx(params.p_a_max, p_b, group.r_c, group.r_s, params)
        assert abs(sop / params.epsilon - 1.0) <= 1e-9, group


# ---------------------------------------------------------- outage root

def _root_equation(params):
    """(eta, L) of the outage root equation ln(1 + c*e^t) + eta*t = L in
    t = ln yz, c = p_b/p_a_max, from the raw formula."""
    eta = 2.0 / params.alpha
    return eta, -math.log(tau_of(params)) - eta * math.log(params.sigma_e2 / params.p_a_max)


def _root_at(p_b, params):
    return fdjam.analytics._Outage(params).root(p_b)


@pytest.mark.parametrize("name, params, grid", SEARCH_SCENARIOS, ids=SEARCH_IDS)
def test_outage_root_matches_brentq_inside_its_bracket(name, params, grid):
    eta, level = _root_equation(params)
    log_tau = math.log(tau_of(params))
    for p_b in (0.0, grid.p_b_floor, 1e-3 * params.p_b_max, params.p_b_max):
        yz, _ = _root_at(p_b, params)
        assert yz == pytest.approx(yz_root_brentq(p_b, params), rel=1e-12)
        t = math.log(yz)
        t_hi = level / eta if p_b == 0.0 else min(
            level / eta, (level - math.log(p_b / params.p_a_max)) / (1.0 + eta))
        slack = 1e-14 * max(1.0, abs(t))
        assert t_hi - math.log(2.0) / eta - slack <= t <= t_hi + slack
        residual = log_exposure_approx(t, params.p_a_max, p_b, params) - log_tau
        assert abs(residual) <= 1e-14 * max(1.0, abs(log_tau))


def test_outage_root_without_jamming_is_closed_form():
    for sc in random_scenarios(20):
        eta, level = _root_equation(sc.params)
        yz, steps = _root_at(0.0, sc.params)
        assert yz == pytest.approx(math.exp(level / eta), rel=1e-14)
        assert steps == 0


def test_outage_root_survives_jamming_term_beyond_double_range():
    # c = p_b/p_a_max = 1e300 and c*yz near e^714 at the root, past the
    # largest double; the root stays finite and on its equation
    params = vi_defaults(alpha=2.0, sigma_e2=5e-324, p_a_max=1.0)
    p_b = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yz, steps = _root_at(p_b, params)
    eta, level = _root_equation(params)
    t, log_c = math.log(yz), math.log(p_b / params.p_a_max)
    assert 0.0 < yz < math.inf and 0 < steps
    assert log_c + t > math.log(sys.float_info.max)
    # ln(1 + c*yz) = ln(c*yz) to double precision this far out
    assert log_c + t + eta * t == pytest.approx(level, rel=1e-14)
    # c = 1e310 is itself beyond double range
    params = vi_defaults(p_a_max=1e-10)
    assert _root_at(p_b, params)[0] == pytest.approx(yz_root_brentq(p_b, params), rel=1e-12)


@pytest.mark.parametrize("lambda_e", [1e200, 1e-300])
def test_outage_root_outside_its_window_is_infeasible(lambda_e):
    # a dense field puts ln yz above 700, a sparse one below -700
    params = vi_defaults(lambda_e=lambda_e)
    with pytest.raises(InfeasibleError, match="^" + re.escape(
            f"outage-constraint root yz not found for ln yz in [-700, 700] "
            f"(tau={tau_of(params)})")):
        solve_step1(0.0, 0.0, params)


def test_outage_root_raises_at_its_step_cap(monkeypatch):
    monkeypatch.setattr(fdjam.analytics, "_ROOT_STEPS", 1)
    with pytest.raises(InfeasibleError,
                       match=r"outage-constraint root yz not converged in 1 Newton steps"):
        solve_step1(VI_PB, VI_MU_B, vi_defaults())


def test_outage_budget_beyond_double_range_is_infeasible():
    # tau = -ln(1 - epsilon)/(beta*lambda_e) underflows to 0
    params = vi_defaults(lambda_e=1e30, epsilon=1e-300)
    for solve in (lambda: solve_step1(VI_PB, VI_MU_B, params),
                  lambda: solve_step2(VI_MU_B, params),
                  lambda: optimize(params)):
        with pytest.raises(InfeasibleError, match=r"outage budget tau=0.0 beyond double range"):
            solve()


def _failing_above(mu_b_max, step2=solve_step2):
    """``step2`` (the public solver, or the one the design path calls),
    failing above ``mu_b_max``."""
    def failing(mu_b, *rest):
        if mu_b > mu_b_max:
            raise InfeasibleError(f"forced above {mu_b_max}")
        return step2(mu_b, *rest)
    return failing


def _with_warnings(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [str(w.message) for w in caught]


@pytest.mark.parametrize("index", [1, 20, 38, 60])
def test_optimize_falls_back_to_full_scan_on_infeasible_points(monkeypatch, index):
    p = vi_defaults(lambda_e=1e-5, epsilon=0.05)
    mu_b_grid = GridSpec().mu_b_values()
    mu_b_max = float(mu_b_grid[index])
    monkeypatch.setattr(fdjam.optimizer, "_step2",
                        _failing_above(mu_b_max, fdjam.optimizer._step2))
    sol, caught = _with_warnings(optimize, p)
    ref, ref_caught = _with_warnings(optimize_reference, p,
                                     step2=_failing_above(mu_b_max))
    assert sol == ref and sol.step2 == ref.step2
    assert caught == ref_caught
    assert len(caught) == len(mu_b_grid) - 1 - index


def test_optimize_reports_a_fully_infeasible_grid(monkeypatch):
    p = vi_defaults()
    monkeypatch.setattr(fdjam.optimizer, "_step2",
                        _failing_above(-1.0, fdjam.optimizer._step2))
    with pytest.raises(InfeasibleError) as exc, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        optimize(p)
    assert str(exc.value) == \
        "every switch-threshold grid point infeasible (61 tried)"


@pytest.mark.parametrize("overrides, named", [
    # d_ab^alpha = 1e-320 leaves u = d_ab^alpha*sigma_b2/p_a_max at 0
    pytest.param({"d_ab": 1e-80}, "power scale u", id="1e-80-power scale u"),
    # d_ab^alpha overflows
    pytest.param({"d_ab": 1e80}, "path loss d_ab^alpha",
                 id="1e+80-path loss d_ab^alpha"),
    # d_ab^alpha = 1e280 is finite, but u overflows at a tiny power budget
    pytest.param({"d_ab": 1e70, "p_a_max": 1e-60},
                 "power scale u = d_ab^alpha*(sigma_b2 + p_b*mu_b)/p_a_max "
                 "overflows: d_ab=1e+70, alpha=4.0, p_a_max=1e-60",
                 id="1e+70-power scale u overflows")])
def test_optimize_names_what_an_extreme_link_distance_breaks(overrides, named):
    with pytest.raises(InfeasibleError, match=re.escape(named)):
        optimize(vi_defaults(**overrides))
