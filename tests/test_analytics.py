import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from fdjam import (ValidationError, comparison_metrics, dbm_to_watts,
                   empirical_sop, hd_weight, sop_approx, sop_exact,
                   throughput_fd, throughput_hd)
from fdjam.analytics import (_clamp01, _Outage, exposure_integral,
                             log_exposure_approx)
from fdjam.params import FdParams, HdParams, SwitchedSolution
import fdjam.analytics as analytics

from oracles import (LinkState, beta_of, exposure_integral_adaptive,
                     exposure_integral_refined, main_channel_sinr, vi_defaults)

# Outage-validation scenario: 20 dBm signal, 30 dBm jamming, 3 bits/s/Hz gap.
P_A = dbm_to_watts(20.0)
P_B = dbm_to_watts(30.0)
R_C, R_S = 4.0, 1.0
X = 2.0 ** (R_C - R_S) - 1.0


def fig_params(**overrides):
    return vi_defaults(p_a_max=P_A, p_b_max=P_B, **overrides)


def rate_gap(x):
    """The rate gap r_c - r_s whose SINR threshold 2^(r_c - r_s) - 1 is x,
    to rounding."""
    return math.log2(1.0 + x)


# The best-eavesdropper SINR CDF F(x) is read through the SOP, 1 - F(x) at
# x = 2^(r_c - r_s) - 1, the only way the program queries it.

# ---------------------------------------------------------------- CDF limits

def test_cdf_limits_exact():
    p = fig_params()
    assert 1.0 - sop_exact(P_A, P_B, 1.0 + rate_gap(1e-4), 1.0, p) < 1e-6
    assert 1.0 - sop_exact(P_A, P_B, 1.0 + rate_gap(1e6), 1.0, p) > 0.9999


def test_cdf_limits_approx():
    p = fig_params()
    assert 1.0 - sop_approx(P_A, P_B, 1.0 + rate_gap(1e-4), 1.0, p) < 1e-6
    assert 1.0 - sop_approx(P_A, P_B, 1.0 + rate_gap(1e6), 1.0, p) > 0.9999


@pytest.mark.parametrize("sop", [sop_exact, sop_approx],
                         ids=["cdf_phi_e_exact", "cdf_phi_e_approx"])
def test_cdf_nondecreasing_in_threshold(sop):
    # F(x) = 1 - SOP at the rate gap log2(1 + x), through each outage route
    p = fig_params()
    values = [1.0 - sop(P_A, P_B, 1.0 + rate_gap(x), 1.0, p)
              for x in np.logspace(-1, 3, 13)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_cdf_domain_error():
    # a rate gap of 2.2e-19 bits rounds x = 2^(r_c - r_s) - 1 to 0, outside
    # the CDF's domain, and the refusal names the rates and their gap;
    # r_s >= r_c (x <= 0) is refused before x is formed
    r_s = 1e-3
    r_c = math.nextafter(r_s, 1.0)
    assert 2.0 ** (r_c - r_s) - 1.0 == 0.0
    named = re.escape(f"rate gap r_c - r_s = {r_c - r_s} bits (r_c={r_c}, "
                      f"r_s={r_s}) is below double resolution")
    for sop in (sop_exact, sop_approx):
        with pytest.raises(ValidationError, match=named):
            sop(P_A, P_B, r_c, r_s, fig_params())
        with pytest.raises(ValidationError, match="require r_s < r_c"):
            sop(P_A, P_B, r_s, r_c, fig_params())


def test_approx_closed_form_reduces_without_jamming():
    # at lambda_e = 1e-4 the outage is 1 - 8e-18, so sparser fields carry
    # the comparison
    r_c, r_s = 1.0 + rate_gap(5.0), 1.0
    x = 2.0 ** (r_c - r_s) - 1.0
    for lam in (1e-6, 1e-5, 1e-4):
        p = fig_params(lambda_e=lam)
        expected = 1.0 - math.exp(-beta_of(p.alpha) * p.lambda_e
                                  * (p.sigma_e2 * x / P_A) ** (-2.0 / p.alpha))
        assert sop_approx(P_A, 0.0, r_c, r_s, p) == pytest.approx(expected, rel=1e-12)


def test_exact_matches_approx_at_tiny_separation():
    p = fig_params(d_ab=0.2)
    for lam in (1e-5, 1e-4, 1e-3):
        q = dataclasses.replace(p, lambda_e=lam)
        assert abs(sop_exact(P_A, P_B, R_C, R_S, q)
                   - sop_approx(P_A, P_B, R_C, R_S, q)) < 1e-3


def test_closed_form_is_the_paper_exposure():
    # the log exposure over beta*lambda_e, and the SOP that reads it, over
    # densities that put each threshold's outage away from 1
    p = fig_params()
    for threshold in (1e-3, 0.7, X, 1e4):
        r_c = 1.0 + rate_gap(threshold)
        x = 2.0 ** (r_c - 1.0) - 1.0
        bound = ((1.0 + P_B * x / P_A) ** -1
                 * (p.sigma_e2 * x / P_A) ** (-2.0 / p.alpha))
        assert math.exp(log_exposure_approx(math.log(x), P_A, P_B, p)) \
            == pytest.approx(bound, rel=1e-12)
        for lam in (1e-6, 1e-5, 1e-4):
            q = dataclasses.replace(p, lambda_e=lam)
            assert sop_approx(P_A, P_B, r_c, 1.0, q) == pytest.approx(
                1.0 - math.exp(-beta_of(p.alpha) * lam * bound), rel=1e-12)


@pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
def test_root_slope_is_the_implicit_derivative(alpha):
    # dx/dp_b = -x^2/w along a level set of the log exposure, against
    # central differences of roots found by brentq
    p = fig_params(alpha=alpha)
    level = log_exposure_approx(math.log(X), P_A, P_B, p)

    def root(p_b):
        return math.exp(brentq(
            lambda t: log_exposure_approx(t, P_A, p_b, p) - level,
            -50.0, 50.0, xtol=1e-15))

    h = 1e-4 * P_B
    slope = (root(P_B + h) - root(P_B - h)) / (2.0 * h)
    assert root(P_B) == pytest.approx(X, rel=1e-12)
    w = _Outage(dataclasses.replace(p, p_a_max=P_A)).slope(X, P_B)
    assert slope == pytest.approx(-X ** 2 / w, rel=1e-6)


def test_clamp_never_turns_nan_into_a_probability():
    assert math.isnan(_clamp01(math.nan))
    assert [_clamp01(v) for v in (-1e-17, 0.3, 1.0 + 1e-15)] == [0.0, 0.3, 1.0]


# ---------------------------------------------------------------- SOP

def test_sop_validates_rates():
    p = fig_params()
    with pytest.raises(ValidationError):
        sop_approx(P_A, P_B, 2.0, 2.0, p)
    with pytest.raises(ValidationError):
        sop_exact(P_A, P_B, 2.0, -1.0, p)


@pytest.mark.parametrize("sop", [sop_exact, sop_approx])
@pytest.mark.parametrize("p_a, p_b, named", [
    (math.nan, P_B, "p_a"), (math.inf, P_B, "p_a"), (0.0, P_B, "p_a"),
    (P_A, math.nan, "p_b"), (P_A, -1.0, "p_b")])
def test_sop_rejects_out_of_range_powers(sop, p_a, p_b, named):
    with pytest.raises(ValidationError, match=named):
        sop(p_a, p_b, R_C, R_S, fig_params())


def test_infinite_jamming_is_the_zero_outage_limit():
    assert sop_exact(P_A, math.inf, R_C, R_S, fig_params()) == 0.0
    assert sop_approx(P_A, math.inf, R_C, R_S, fig_params()) == 0.0


def test_sop_vanishes_without_eavesdroppers():
    quiet = dataclasses.replace(fig_params(), lambda_e=0.0)  # bypasses validate
    assert sop_exact(P_A, P_B, R_C, R_S, quiet) == 0.0
    assert sop_approx(P_A, P_B, R_C, R_S, quiet) == 0.0
    assert sop_approx(P_A, P_B, 60.0, 1.0, fig_params()) < 1e-12


# rate gaps of 1, 2, 3, 5 and 8 bits and those of a 13-point threshold grid
# from x = 0.1 to 1000
GAPS = sorted([1.0, 2.0, 3.0, 5.0, 8.0]
              + [rate_gap(x) for x in np.logspace(-1, 3, 13)])


def test_sop_monotone_in_rate_gap_and_powers():
    p = fig_params()
    gaps = [sop_approx(P_A, P_B, 1.0 + g, 1.0, p) for g in GAPS]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert all(0.0 <= v <= 1.0 for v in gaps)
    in_pb = [sop_approx(P_A, pb, R_C, R_S, p) for pb in (0.0, 0.1, 1.0, 10.0)]
    assert all(a >= b for a, b in zip(in_pb, in_pb[1:]))
    in_pa = [sop_approx(pa, P_B, R_C, R_S, p) for pa in (0.01, 0.1, 1.0)]
    assert all(a <= b for a, b in zip(in_pa, in_pa[1:]))
    in_lam = [sop_approx(P_A, P_B, R_C, R_S, dataclasses.replace(p, lambda_e=lam))
              for lam in (1e-6, 1e-5, 1e-4)]
    assert all(a <= b for a, b in zip(in_lam, in_lam[1:]))


def test_exact_sop_monotone_in_rate_gap():
    p = fig_params()
    values = [sop_exact(P_A, P_B, 1.0 + g, 1.0, p) for g in GAPS]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_sop_agreement_at_baseline_distance():
    # 10 m link: closed form tracks the quadrature within 0.02 over the sweep
    p = fig_params()
    worst = 0.0
    for lam in np.logspace(-6, -2, 25):
        q = dataclasses.replace(p, lambda_e=lam)
        worst = max(worst, abs(sop_exact(P_A, P_B, R_C, R_S, q)
                               - sop_approx(P_A, P_B, R_C, R_S, q)))
    assert worst <= 0.02


def test_exposure_integral_reused_across_densities():
    p = fig_params()
    j1 = exposure_integral(X, P_A, P_B, p)
    j2 = exposure_integral(X, P_A, P_B, dataclasses.replace(p, lambda_e=1e-2))
    assert j1 == j2  # independent of lambda_e


def _geometry(rng, d_lo, d_hi):
    """One outage-validation geometry: alpha 2.5-5, jamming -5 to +15 dB
    relative to the signal, a 1-4 bit rate gap, -100 to -80 dBm noise."""
    p_a = dbm_to_watts(float(rng.uniform(0.0, 30.0)))
    return dict(x=2.0 ** float(rng.uniform(1.0, 4.0)) - 1.0, p_a=p_a,
                p_b=p_a * 10.0 ** (float(rng.uniform(-5.0, 15.0)) / 10.0),
                sigma_e2=dbm_to_watts(float(rng.uniform(-100.0, -80.0))),
                alpha=float(rng.uniform(2.5, 5.0)),
                d_ab=float(rng.uniform(d_lo, d_hi)))


def _fixed_node_j(g):
    params = vi_defaults(alpha=g["alpha"], d_ab=g["d_ab"], sigma_e2=g["sigma_e2"])
    return exposure_integral(g["x"], g["p_a"], g["p_b"], params)


def test_exposure_integral_matches_adaptive_quadrature():
    rng = np.random.default_rng(20261018)
    for _ in range(120):
        g = _geometry(rng, 1.0, 100.0)
        ref = exposure_integral_adaptive(**g)
        assert _fixed_node_j(g) == pytest.approx(ref, rel=1e-8, abs=0.0), g


def test_exposure_integral_converged_on_short_links():
    # below 1 m adaptive quad is itself off by up to about 1e-8 (or does not
    # converge at all), so short links are checked against a far finer
    # fixed-node rule; the recorded 0.2 m geometry comes first
    recorded = dict(x=2.0 ** 1.5813836603180378 - 1.0, p_a=0.5295026406593171,
                    p_b=0.4404555364279015, sigma_e2=dbm_to_watts(-90.0),
                    alpha=4.0, d_ab=0.2031818992364538)
    rng = np.random.default_rng(20261019)
    for g in [recorded] + [_geometry(rng, 0.2, 1.0) for _ in range(20)]:
        ref = exposure_integral_refined(**g)
        assert _fixed_node_j(g) == pytest.approx(ref, rel=1e-10, abs=0.0), g


def _weak_jamming_geometry(rng):
    """A geometry with q = p_b*x/p_a from 1e-8 to 1e-4, alpha 2.5-8 and a
    0.2-100 m link."""
    p_a = dbm_to_watts(float(rng.uniform(0.0, 30.0)))
    x = 2.0 ** float(rng.uniform(1.0, 4.0)) - 1.0
    q = 10.0 ** float(rng.uniform(-8.0, -4.0))
    return dict(x=x, p_a=p_a, p_b=q * p_a / x,
                sigma_e2=dbm_to_watts(float(rng.uniform(-100.0, -80.0))),
                alpha=float(rng.uniform(2.5, 8.0)),
                d_ab=float(np.exp(rng.uniform(math.log(0.2), math.log(100.0)))))


def test_exposure_integral_resolves_the_weak_jamming_notch():
    # with weak jamming the notch around the receiver (half-width
    # q^(1/alpha) in azimuth) is narrower than the panels; the rule breaks
    # there, and J stays within 1e-9 up to alpha 5 and 1e-7 up to alpha 8,
    # where panels that ignore the notch are off by up to about 1e-5
    rng = np.random.default_rng(20261022)
    corners = [dict(x=7.0, p_a=0.1, p_b=0.1e-8 / 7.0, sigma_e2=1e-12,
                    alpha=alpha, d_ab=10.0) for alpha in (2.5, 4.0, 8.0)]
    for g in corners + [_weak_jamming_geometry(rng) for _ in range(30)]:
        rel = 1e-9 if g["alpha"] <= 5.0 else 1e-7
        ref = exposure_integral_refined(**g)
        assert _fixed_node_j(g) == pytest.approx(ref, rel=rel, abs=0.0), g


@pytest.mark.parametrize("alpha, q", [(2.05, 1e18), (4.0, 1e30), (3.0, 1e25)])
def test_exposure_integral_reaches_below_the_jamming_transition(alpha, q):
    # with very strong jamming J's mass lies near the jamming transition
    # t_tr = t_link - ln(q)/(alpha/2), tens of e-folds below the link and
    # the decay scales; a radial axis that starts 40 e-folds below those
    # two alone cuts it off (2.7e-3 relative at alpha 4, 7.9e-2 at alpha 3)
    g = dict(x=7.0, p_a=1.0, p_b=q / 7.0, sigma_e2=1e-12, alpha=alpha, d_ab=10.0)
    ref = exposure_integral_refined(**g)
    assert _fixed_node_j(g) == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_cold_exposure_integral_radial_nodes_on_table_geometries(monkeypatch):
    # geometries like the validate-sop tables: alpha 4, 0.2-30 m links,
    # jamming 5-15 dB above the signal (q >= 3).  Below the smallest length
    # scale the radial panels double in width, so one J takes at most 360
    # radial nodes (about 650 on panels one e-fold wide)
    rule, sizes = analytics._panel_rule, []

    def spy(edges):
        nodes, weights = rule(edges)
        sizes.append(nodes.size)
        return nodes, weights

    monkeypatch.setattr(analytics, "_panel_rule", spy)
    rng = np.random.default_rng(20261023)
    for _ in range(64):
        p_a_dbm = float(rng.uniform(10.0, 25.0))
        p_a = dbm_to_watts(p_a_dbm)
        p_b = dbm_to_watts(p_a_dbm + float(rng.uniform(5.0, 15.0)))
        x = 2.0 ** float(rng.uniform(1.0, 4.0)) - 1.0
        d_ab = float(np.exp(rng.uniform(math.log(0.2), math.log(30.0))))
        exposure_integral(x, p_a, p_b, vi_defaults(d_ab=d_ab))
    # no notch at q >= 3: one radial rule per call
    assert len(sizes) == 64
    assert max(sizes) <= 360


def test_exposure_integral_strictly_decreasing_in_x():
    rng = np.random.default_rng(20261020)
    xs = np.logspace(-3.0, 3.0, 31)
    for _ in range(10):
        g = _geometry(rng, 0.2, 100.0)
        js = [_fixed_node_j(dict(g, x=float(x))) for x in xs]
        assert all(a > b for a, b in zip(js, js[1:])), g


def test_exposure_integral_finite_and_positive_on_extreme_inputs():
    # far outside the physical range J is a finite positive number or the
    # call raises the package's ValidationError; no numpy warning is raised
    rng = np.random.default_rng(20261021)

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))

    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2000):
            params = vi_defaults(alpha=float(rng.uniform(2.05, 8.0)),
                                 d_ab=log_uniform(-3.0, 4.0),
                                 sigma_e2=log_uniform(-22.0, 0.0))
            x = log_uniform(-6.0, 6.0) * (-1.0 if rng.random() < 0.05 else 1.0)
            p_a = log_uniform(-10.0, 12.0)
            p_b = 0.0 if rng.random() < 0.25 else log_uniform(-10.0, 12.0)
            try:
                j = exposure_integral(x, p_a, p_b, params)
            except ValidationError:
                assert x < 0.0
                continue
            assert 0.0 < j < math.inf


@pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
def test_exposure_integral_rejects_decay_below_double_range(alpha):
    # below a = sigma_e2*x/p_a = 50/DBL_MAX the tail nodes overflow
    # u^(alpha/2); just above it J still equals the closed form, which at
    # p_b = 0 is the same formula: J = 2*beta*a^(-2/alpha)
    bound = 50.0 / sys.float_info.max
    p = fig_params(alpha=alpha, sigma_e2=1e-300)
    x = 1.0001 * bound * P_A / p.sigma_e2
    a = p.sigma_e2 * x / P_A
    with np.errstate(over="raise", invalid="raise"):
        j = exposure_integral(x, P_A, 0.0, p)
    assert j == pytest.approx(2.0 * beta_of(alpha) * a ** (-2.0 / alpha), rel=1e-12)
    with pytest.raises(ValidationError, match="decay coefficient"):
        exposure_integral(0.99 * x, P_A, 0.0, p)
    assert exposure_integral(0.99 * x, P_A, math.inf, p) == 0.0


@pytest.mark.parametrize("d_ab", [1e-200, 1e200])
def test_exposure_integral_rejects_a_link_beyond_double_range(d_ab):
    # where d_ab^2 is not a normal double the squared distances next to the
    # receiver underflow to 0/0 (J came out NaN) or overflow; at the bound J
    # is finite and equals its limit: the co-located link's J for a tiny
    # link, the unjammed J for a huge one
    tiny = d_ab < 1.0
    bound = analytics._MIN_LINK if tiny else analytics._MAX_LINK
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                divide="raise"):
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=re.escape(f"d_ab = {d_ab!r} m")):
            exposure_integral(X, P_A, P_B, fig_params(d_ab=d_ab))
        j = exposure_integral(X, P_A, P_B, fig_params(d_ab=bound))
        limit = (exposure_integral(X, P_A, P_B, fig_params(d_ab=1e-100)) if tiny
                 else exposure_integral(X, P_A, 0.0, fig_params()))
    assert j == pytest.approx(limit, rel=1e-12)


# ------------------------------------------------- Monte Carlo equivalence

def _mc_scenarios(n, seed):
    """Random scenarios with the field radius and density calibrated so the
    outage sits mid-range and the mean eavesdropper count stays small."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        alpha = float(rng.uniform(2.5, 5.0))
        d_ab = float(rng.uniform(0.5, 15.0))
        p_a = dbm_to_watts(float(rng.uniform(0.0, 20.0)))
        x = float(rng.uniform(2.0, 30.0))
        q = float(rng.uniform(0.0, 8.0))
        p_b = q * p_a / x
        sigma_e2 = dbm_to_watts(-90.0)
        a = sigma_e2 * x / p_a
        r_cut = (45.0 / a) ** (1.0 / alpha)
        lam = 0.51 * (1.0 + q) * a ** (2.0 / alpha) / beta_of(alpha)
        params = vi_defaults(alpha=alpha, d_ab=d_ab, lambda_e=lam,
                             sigma_e2=sigma_e2, p_a_max=p_a,
                             p_b_max=max(p_b, 1e-6))
        yield params, p_a, p_b, x, r_cut


def test_exact_cdf_agrees_with_monte_carlo():
    for i, (params, p_a, p_b, x, r_cut) in enumerate(_mc_scenarios(5, seed=42)):
        r_c = 1.0 + rate_gap(x)
        analytic = sop_exact(p_a, p_b, r_c, 1.0, params)
        est = empirical_sop(p_a, p_b, r_c, 1.0, params, n_trials=5000,
                            r_cut=r_cut, seed=1000 + i)
        assert abs(est.value - analytic) <= 3.0 * max(est.stderr, 1e-4), \
            f"scenario {i}: mc={est.value} analytic={analytic} se={est.stderr}"


# ---------------------------------------------------------------- throughput

def test_throughput_corner_cases():
    assert throughput_fd(1.0, 0.3, 0.0, 0.5) == 0.0
    assert throughput_hd(1.0, 0.3, 1e9 * 0.5, 0.5) == pytest.approx(0.0, abs=1e-300)
    w = math.log(2.0) * 0.5
    assert throughput_fd(1.0, 0.0, w, 0.5) == pytest.approx(0.5, rel=1e-12)
    assert throughput_hd(1.0, 0.0, w, 0.5) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("mu_b", [-1.0, math.nan])
def test_hd_weight_rejects_a_negative_or_nan_switch_level(mu_b):
    with pytest.raises(ValidationError, match=f"mu_b must be >= 0: {mu_b}"):
        hd_weight(mu_b, 1e-7)


@pytest.mark.parametrize("rho", [-1e-9, 1.5, math.nan])
def test_hd_weight_rejects_suppression_outside_0_1(rho):
    with pytest.raises(ValidationError, match=re.escape(f"rho out of [0,1]: {rho}")):
        hd_weight(1e-9, rho)


def test_perfect_suppression_limits():
    assert hd_weight(0.0, 0.0) == 1.0
    assert hd_weight(1e-9, 0.0) == 0.0
    assert throughput_fd(2.0, 0.1, 1e-9, 0.0) == pytest.approx(2.0 * math.exp(-0.1))
    assert throughput_hd(2.0, 0.1, 1e-9, 0.0) == 0.0
    assert throughput_fd(2.0, 0.1, 0.0, 0.0) == 0.0


@settings(max_examples=80, deadline=None)
@given(r_s=st.floats(0.01, 20.0), mu_a=st.floats(0.0, 10.0),
       mu_b=st.floats(0.0, 1e-4), rho=st.floats(1e-9, 1.0))
def test_throughput_split_is_exhaustive(r_s, mu_a, mu_b, rho):
    total = r_s * math.exp(-mu_a)
    fd = throughput_fd(r_s, mu_a, mu_b, rho)
    hd = throughput_hd(r_s, mu_a, mu_b, rho)
    assert 0.0 <= fd <= total and 0.0 <= hd <= total
    assert fd + hd == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------- metrics

def _solution(mu_a_fd=0.2, mu_a_hd=0.25, mu_b=3e-8):
    return SwitchedSolution(
        mu_b=mu_b,
        fd=FdParams(r_c=9.0, r_s=4.0, mu_a=mu_a_fd, p_b=2e-3),
        hd=HdParams(r_c=12.0, r_s=3.5, mu_a=mu_a_hd),
        omega_s=0.0, omega_fd=0.0, omega_hd=0.0)


def test_comparison_metrics_corners():
    p = vi_defaults()
    m0 = comparison_metrics(_solution(mu_b=0.0), p)
    assert m0.p_fd == 0.0
    assert m0.p_hd == pytest.approx(math.exp(-0.25), rel=1e-12)
    m1 = comparison_metrics(_solution(mu_a_fd=0.0, mu_a_hd=0.0,
                                      mu_b=math.log(2.0) * p.rho), p)
    assert m1.p_fd == pytest.approx(0.5, rel=1e-12)
    assert m1.p_hd == pytest.approx(0.5, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(mu_a_fd=st.floats(0.0, 5.0), mu_a_hd=st.floats(0.0, 5.0),
       mu_b=st.floats(0.0, 1e-5))
def test_mode_probabilities_subadditive(mu_a_fd, mu_a_hd, mu_b):
    m = comparison_metrics(_solution(mu_a_fd, mu_a_hd, mu_b), vi_defaults())
    assert 0.0 <= m.p_fd <= 1.0 and 0.0 <= m.p_hd <= 1.0
    assert m.p_fd + m.p_hd <= 1.0 + 1e-12


def test_link_state_capacity():
    p = vi_defaults()
    link = LinkState(p_a=0.01, p_b=0.001, gamma_ab=1.5, gamma_bb=2.0)
    phi = main_channel_sinr(link, p)
    expected = 0.01 * 1.5 * 10.0 ** -4 / (p.sigma_b2 + p.rho * 0.001 * 2.0)
    assert phi == pytest.approx(expected, rel=1e-12)
