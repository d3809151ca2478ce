import dataclasses
import math

import numpy as np
import pytest

from fdjam import (comparison_metrics, dbm_to_watts, empirical_sop, optimize,
                   run_online, sop_exact, ValidationError)
from fdjam.sim import ModeCounts, sub_rng, _draw_field, _max_eve_sinr

from oracles import sample_eve_field, vi_defaults

P_A = dbm_to_watts(20.0)
P_B = dbm_to_watts(30.0)
R_C, R_S = 4.0, 1.0

ONLINE_PARAMS = vi_defaults(lambda_e=1e-5, epsilon=0.05)
ONLINE_SOLUTION = optimize(ONLINE_PARAMS)


# ---------------------------------------------------------------- fields

def test_empty_field_without_eavesdroppers():
    p = dataclasses.replace(vi_defaults(), lambda_e=0.0)
    for seed in range(5):
        assert len(sample_eve_field(p, 500.0, seed)) == 0


def test_field_is_reproducible_and_seed_sensitive():
    p = vi_defaults()
    f1 = sample_eve_field(p, 500.0, 7)
    f2 = sample_eve_field(p, 500.0, 7)
    f3 = sample_eve_field(p, 500.0, 8)
    assert np.array_equal(f1.d_ak, f2.d_ak)
    assert np.array_equal(f1.gamma_bk, f2.gamma_bk)
    assert not np.array_equal(f1.d_ak, f3.d_ak)


def test_field_geometry_within_disk():
    f = sample_eve_field(vi_defaults(), 300.0, 3)
    assert np.all(f.d_ak <= 300.0) and np.all(f.d_ak >= 0.0)
    assert np.all(f.theta_k >= 0.0) and np.all(f.theta_k <= 2 * math.pi)
    assert np.all(f.gamma_ak >= 0.0) and np.all(f.gamma_bk >= 0.0)


def test_poisson_mean_small_field():
    p = dataclasses.replace(vi_defaults(), lambda_e=1e-5)
    r_cut = 357.0  # mean about 4 per realization
    mean_expect = p.lambda_e * math.pi * r_cut ** 2
    counts = [len(sample_eve_field(p, r_cut, seed)) for seed in range(10000)]
    stderr = math.sqrt(mean_expect / len(counts))
    assert abs(np.mean(counts) - mean_expect) <= 3.0 * stderr


def test_poisson_mean_large_field():
    # lambda 1e-4 on a 2 km disk: mean count 1256.6
    p = vi_defaults()
    r_cut = 2000.0
    mean_expect = p.lambda_e * math.pi * r_cut ** 2
    assert mean_expect == pytest.approx(1256.637, abs=1e-3)
    counts = [_draw_field(sub_rng(11, 0, i), p.lambda_e, r_cut)[0].size
              for i in range(2000)]
    stderr = math.sqrt(mean_expect / len(counts))
    assert abs(np.mean(counts) - mean_expect) <= 3.0 * stderr


# ---------------------------------------------------------------- outage MC

def test_empirical_sop_zero_density():
    p = dataclasses.replace(vi_defaults(), lambda_e=0.0)
    est = empirical_sop(P_A, P_B, R_C, R_S, p, n_trials=200, r_cut=500.0, seed=0)
    assert est.value == 0.0


def test_empirical_sop_zero_rate_gap_counts_nonempty_fields():
    p = dataclasses.replace(vi_defaults(), lambda_e=1e-5)
    r_cut = 252.0  # mean about 2 per realization
    est = empirical_sop(P_A, P_B, 2.0, 2.0, p, n_trials=3000, r_cut=r_cut, seed=4)
    expected = 1.0 - math.exp(-p.lambda_e * math.pi * r_cut ** 2)
    assert abs(est.value - expected) <= 3.0 * est.stderr


def test_empirical_sop_matches_quadrature():
    p = vi_defaults()
    est = empirical_sop(P_A, P_B, R_C, R_S, p, n_trials=20000, r_cut=800.0, seed=9)
    exact = sop_exact(P_A, P_B, R_C, R_S, p)
    assert abs(est.value - exact) <= 3.0 * est.stderr


def test_truncation_insensitive_beyond_cutoff():
    # same realizations, restricted to the inner disk: only the annulus differs
    p = vi_defaults()
    x = 2.0 ** (R_C - R_S) - 1.0
    n = 4000
    hits_full = hits_inner = 0
    for i in range(n):
        d2, th, ga, gb = _draw_field(sub_rng(21, 0, i), p.lambda_e, 1600.0)
        inner = d2 <= 800.0 ** 2
        if _max_eve_sinr(d2, th, ga, gb, P_A, P_B, p) > x:
            hits_full += 1
        if _max_eve_sinr(d2[inner], th[inner], ga[inner], gb[inner],
                         P_A, P_B, p) > x:
            hits_inner += 1
    p_full = hits_full / n
    stderr = math.sqrt(max(p_full * (1 - p_full), 1e-12) / n)
    assert abs(hits_full - hits_inner) / n < stderr


def test_empirical_sop_argument_checks():
    p = vi_defaults()
    with pytest.raises(ValidationError):
        empirical_sop(P_A, P_B, R_C, R_S, p, n_trials=0, r_cut=500.0, seed=0)
    with pytest.raises(ValidationError):
        empirical_sop(P_A, P_B, 1.0, 2.0, p, n_trials=10, r_cut=500.0, seed=0)


# ---------------------------------------------------------------- on-line

def test_online_no_jamming_mode_when_switch_disabled():
    sol = optimize(ONLINE_PARAMS, forced_mu_b=0.0)
    rep = run_online(sol, ONLINE_PARAMS, n_slots=4000, r_cut=400.0, seed=2)
    assert rep.mode_counts.fd == 0
    assert rep.mode_counts.hd + rep.mode_counts.silent == 4000


def test_online_transmission_probability_matches_design():
    rep = run_online(ONLINE_SOLUTION, ONLINE_PARAMS, n_slots=20000,
                     r_cut=500.0, seed=13)
    m = comparison_metrics(ONLINE_SOLUTION, ONLINE_PARAMS)
    predicted = m.p_fd + m.p_hd
    assert abs(rep.empirical_tx_prob - predicted) <= 3.0 * rep.tx_prob_stderr
    # per-mode occupancy
    assert abs(rep.mode_counts.fd / rep.n_slots - m.p_fd) \
        <= 3.0 * math.sqrt(m.p_fd * (1 - m.p_fd) / rep.n_slots) + 1e-12
    assert abs(rep.mode_counts.hd / rep.n_slots - m.p_hd) \
        <= 3.0 * math.sqrt(m.p_hd * (1 - m.p_hd) / rep.n_slots) + 1e-12


def test_online_meets_outage_bound_and_never_drops_connection():
    rep = run_online(ONLINE_SOLUTION, ONLINE_PARAMS, n_slots=20000,
                     r_cut=500.0, seed=14)
    assert rep.connection_outages == 0
    assert rep.empirical_sop <= ONLINE_PARAMS.epsilon + 3.0 * rep.sop_stderr


def test_online_throughput_tracks_prediction_at_small_separation():
    params = vi_defaults(d_ab=0.5)
    sol = optimize(params)
    rep = run_online(sol, params, n_slots=20000, r_cut=500.0, seed=15)
    assert rep.connection_outages == 0
    assert abs(rep.empirical_throughput - sol.omega_s) \
        <= max(3.0 * rep.throughput_stderr, 0.05 * sol.omega_s)


def test_online_seed_determinism():
    r1 = run_online(ONLINE_SOLUTION, ONLINE_PARAMS, n_slots=3000,
                    r_cut=400.0, seed=77)
    r2 = run_online(ONLINE_SOLUTION, ONLINE_PARAMS, n_slots=3000,
                    r_cut=400.0, seed=77)
    assert dataclasses.asdict(r1) == dataclasses.asdict(r2)
    r3 = run_online(ONLINE_SOLUTION, ONLINE_PARAMS, n_slots=3000,
                    r_cut=400.0, seed=78)
    assert dataclasses.asdict(r1) != dataclasses.asdict(r3)


def test_online_report_accounting():
    rep = run_online(ONLINE_SOLUTION, ONLINE_PARAMS, n_slots=5000,
                     r_cut=400.0, seed=5)
    mc = rep.mode_counts
    assert isinstance(mc, ModeCounts)
    assert mc.fd + mc.hd + mc.silent == rep.n_slots
    assert rep.transmissions == mc.fd + mc.hd
    assert 0.0 <= rep.empirical_sop <= 1.0
    assert 0.0 <= rep.empirical_tx_prob <= 1.0
    # throughput bounded by the larger secrecy rate
    top = max(ONLINE_SOLUTION.fd.r_s, ONLINE_SOLUTION.hd.r_s)
    assert 0.0 <= rep.empirical_throughput <= top
