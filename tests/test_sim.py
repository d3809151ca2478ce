import contextlib
import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma as gamma_fn, gammainc, hyp1f1

import fdjam.sim as sim
from fdjam import (comparison_metrics, dbm_to_watts, empirical_sop, optimize,
                   run_online, sop_exact, ValidationError)
from fdjam.sim import (ModeCounts, _CHUNK, _beats_jamming, _kept_mean,
                       _truncated_gamma, sub_rng)

from oracles import (blocks, empirical_sop_reference, kept_mean,
                     sample_eve_field, split_fields, vi_defaults)

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


def _engine_blocks(seed, n, a, params, r_cut):
    """The engine's draws for ``n`` jammed trials at thinning scale ``a``,
    as ``(rng, counts, owner, v, d_ak)`` per block of one chunk."""
    for block, m in blocks(n):
        rng = sub_rng(seed, 0, block)
        c = np.full(m, a * r_cut ** params.alpha)
        counts = rng.poisson(_kept_mean(c, params, r_cut))
        owner = np.repeat(np.arange(m), counts)
        assert owner.size <= _CHUNK
        v, s = _truncated_gamma(rng, 2.0 / params.alpha, c[owner], owner.size)
        yield rng, counts, owner, v, r_cut * s


def test_poisson_mean_large_field():
    # lambda 1e-4 on a 2 km disk, nothing thinned (a = 0): mean count 1256.6
    p = vi_defaults()
    r_cut = 2000.0
    mean_expect = p.lambda_e * math.pi * r_cut ** 2
    assert mean_expect == pytest.approx(1256.637, abs=1e-3)
    counts = np.concatenate([
        sub_rng(11, 0, block).poisson(_kept_mean(np.zeros(m), p, r_cut))
        for block, m in blocks(2000)])
    assert counts.size == 2000
    stderr = math.sqrt(mean_expect / len(counts))
    assert abs(np.mean(counts) - mean_expect) <= 3.0 * stderr


def test_kept_count_mean_is_the_thinned_intensity():
    # lambda*pi*r_cut^2 * 1F1(k; k+1; -c) == lambda*pi*a^(-k)*Gamma(1+k)*P(k, c)
    for alpha in (2.0, 2.5, 4.0, 6.0):
        k = 2.0 / alpha
        for c in (1e-12, 1e-6, 1e-3, 0.5, 1.0, 3.0, 28.7, 1e3, 1e6, 1e10):
            r_cut = 500.0
            a = c / r_cut ** alpha
            thinned = r_cut ** 2 * hyp1f1(k, k + 1.0, -c)
            gamma_form = a ** (-k) * gamma_fn(1.0 + k) * gammainc(k, c)
            assert thinned == pytest.approx(gamma_form, rel=1e-14), (alpha, c)
    # the sampler's counts follow it, on both sides of the proposal switch
    p = vi_defaults(lambda_e=1e-4)
    r_cut = 400.0
    for c in (2e-3, 2.0):
        a = c / r_cut ** p.alpha
        mean_expect = p.lambda_e * math.pi * r_cut ** 2 * hyp1f1(0.5, 1.5, -c)
        counts = np.concatenate([b[1] for b in _engine_blocks(12, 2000, a, p, r_cut)])
        stderr = math.sqrt(mean_expect / len(counts))
        assert abs(np.mean(counts) - mean_expect) <= 3.0 * stderr, c


@pytest.mark.parametrize("alpha", [2.5, 4.0])
@pytest.mark.parametrize("c", [1e-3, 2.0, 50.0])
def test_kept_points_follow_the_thinned_intensity(alpha, c):
    # kept distances have CDF P(k, c (r/r_cut)^alpha) / P(k, c), and each
    # point's v is a * d_ak^alpha
    p = vi_defaults(alpha=alpha, lambda_e=1e-3)
    r_cut, k = 200.0, 2.0 / alpha
    a = c / r_cut ** alpha
    blocks = list(_engine_blocks(13, 640, a, p, r_cut))
    v = np.concatenate([b[3] for b in blocks])
    d = np.concatenate([b[4] for b in blocks])
    assert d.size > 2000
    assert np.all((d >= 0.0) & (d <= r_cut))
    assert np.allclose(v, a * d ** alpha, rtol=1e-12, atol=0.0)
    ks = stats.kstest(d, lambda r: gammainc(k, c * (r / r_cut) ** alpha)
                      / gammainc(k, c))
    assert ks.pvalue > 1e-3, ks


@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0, 6.0, 8.0])
def test_kept_mean_matches_the_hyp1f1_oracle(alpha):
    # the kept-count mean against scipy's 1F1 where 1F1 is accurate
    p = vi_defaults(alpha=alpha, lambda_e=1e-4)
    c = np.concatenate(([0.0], np.logspace(-20.0, 9.0, 59)))
    np.testing.assert_allclose(_kept_mean(c, p, 300.0), kept_mean(c, p, 300.0),
                               rtol=1e-13, atol=0.0)


# No longer an independent check: below c = 38 sim._kept_mean sums this same
# series (to 2^-53 of the sum, not 1e-17), so the tests against it pin the
# cut-off and the stopping rule; scipy's hyp1f1 and gammainc are the
# independent references.
def _kummer(k, c):
    """1F1(k; k+1; -c) = e^-c * sum_n c^n / (k+1)_n (Kummer's transformation),
    a sum of positive terms."""
    term = total = 1.0
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= c / (k + n)
        total += term
    return math.exp(-c) * total


KEPT_ALPHAS = [2.0, 2.2, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0, 35.0, 50.0]


@pytest.mark.parametrize("alpha", KEPT_ALPHAS)
def test_kept_mean_matches_the_gammainc_form(alpha):
    # the mean as scipy's gammainc formed it: equal bit for bit from c = 38,
    # where P(k, c) rounds to 1 and both are the whole plane's
    # Gamma(1+k) * c^-k, and the area itself below c = 2^-54
    p = vi_defaults(alpha=alpha, lambda_e=1e-4)
    k = 2.0 / alpha
    area = p.lambda_e * math.pi * 300.0 ** 2
    c = np.concatenate((np.logspace(-16.0, 300.0), np.linspace(0.0, 60.0),
                        [np.nextafter(38.0, 0.0), 38.0, 5e-324, 1e-310]))
    got = _kept_mean(c, p, 300.0)
    tiny = c < 2.0 ** -54
    assert {0.0, 5e-324, 1e-310} <= set(c[tiny]) and np.all(got[tiny] == area)
    s = c[~tiny]
    expect = area * (math.gamma(1.0 + k) * s ** -k * gammainc(k, s))
    np.testing.assert_allclose(got[~tiny], expect, rtol=1e-14, atol=0.0)
    plane = s >= 38.0
    assert np.count_nonzero(plane) > 50
    assert np.all(got[~tiny][plane] == expect[plane])


@pytest.mark.parametrize("alpha", KEPT_ALPHAS)
def test_kept_mean_matches_the_kummer_series_up_to_40(alpha):
    p = vi_defaults(alpha=alpha, lambda_e=1e-4)
    c = np.array([0.0, 1e-300, 1e-12, 1e-3, 0.1, 1.0, 2.5, 10.0, 28.7, 40.0])
    area = p.lambda_e * math.pi * 300.0 ** 2
    expect = [area * _kummer(2.0 / alpha, ci) for ci in c]
    np.testing.assert_allclose(_kept_mean(c, p, 300.0), expect, rtol=1e-13,
                               atol=0.0)


@pytest.mark.parametrize("alpha", KEPT_ALPHAS)
def test_kept_mean_is_the_whole_plane_limit_from_50(alpha):
    # P(k, c) rounds to 1 from c = 50, leaving Gamma(1+k) * c^-k: at alpha = 50
    # scipy's 1F1 was NaN from c ~ 1e11, and the simulators refused to run
    p = vi_defaults(alpha=alpha, lambda_e=1e-4)
    k = 2.0 / alpha
    c = np.array([50.0, 1e3, 1e9, 1e11, 1e100, 1e200, 1e308])
    area = p.lambda_e * math.pi * 300.0 ** 2
    expect = [area * math.gamma(1.0 + k) * ci ** -k for ci in c]
    np.testing.assert_allclose(_kept_mean(c, p, 300.0), expect, rtol=1e-14,
                               atol=0.0)


@pytest.mark.parametrize("alpha", [2.0, 4.0, 50.0])
def test_kept_mean_at_extreme_scales_is_finite_and_at_most_the_area(alpha):
    # c^-k overflowed at a subnormal c for alpha = 2; c = 0 keeps every point;
    # a series summed in numpy underflowed at tiny c
    p = vi_defaults(alpha=alpha, lambda_e=1e-4)
    area = p.lambda_e * math.pi * 300.0 ** 2
    c = np.array([0.0, 5e-324, 1e-310, 1e-300, 1e308])
    with _warnings_raise():
        got = _kept_mean(c, p, 300.0)
    assert np.all(np.isfinite(got)) and np.all((got > 0.0) & (got <= area))
    assert got[0] == area


# ---------------------------------------------------------------- outage MC

@contextlib.contextmanager
def _warnings_raise():
    """Turn every warning and floating-point error into an exception."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        yield


def test_empirical_sop_zero_density():
    p = dataclasses.replace(vi_defaults(), lambda_e=0.0)
    with _warnings_raise():
        est = empirical_sop(P_A, P_B, R_C, R_S, p, n_trials=200, r_cut=500.0, seed=0)
    assert est.value == 0.0


def test_empirical_sop_zero_rate_gap_counts_nonempty_fields():
    # rate gap 0 gives a = 0: nothing is thinned
    p = dataclasses.replace(vi_defaults(), lambda_e=1e-5)
    r_cut = 252.0  # mean about 2 per realization
    with _warnings_raise():
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
    a = p.sigma_e2 * (2.0 ** (R_C - R_S) - 1.0) / P_A
    n = 4000
    hits_full = hits_inner = 0
    for rng, counts, owner, v, d_ak in _engine_blocks(21, n, a, p, 1600.0):
        turn, coin = rng.random(v.size), rng.random(v.size)
        hit = _beats_jamming(turn, coin, v, d_ak, P_B, p)
        hits_full += np.count_nonzero(np.bincount(owner[hit], minlength=counts.size))
        inner = hit & (d_ak <= 800.0)
        hits_inner += np.count_nonzero(np.bincount(owner[inner], minlength=counts.size))
    p_full = hits_full / n
    stderr = math.sqrt(max(p_full * (1 - p_full), 1e-12) / n)
    assert abs(hits_full - hits_inner) / n < stderr


# Engine against the unthinned reference: each case sets the density that
# gives one eavesdropper per trial able to beat x without jamming.
@pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
@pytest.mark.parametrize("p_b", [0.0, P_B])
@pytest.mark.parametrize("rate_gap", [0.0, 3.0])
def test_empirical_sop_matches_unthinned_reference(alpha, p_b, rate_gap):
    r_cut, n = 400.0, 4000
    base = vi_defaults(alpha=alpha)
    c = base.sigma_e2 * (2.0 ** rate_gap - 1.0) / P_A * r_cut ** alpha
    k = 2.0 / alpha
    p = dataclasses.replace(
        base, lambda_e=1.0 / (math.pi * r_cut ** 2 * hyp1f1(k, k + 1.0, -c)))
    r_c = 1.0 + rate_gap
    est = empirical_sop(P_A, p_b, r_c, 1.0, p, n_trials=n, r_cut=r_cut, seed=31)
    ref = empirical_sop_reference(P_A, p_b, r_c, 1.0, p, n_trials=n,
                                  r_cut=r_cut, seed=31)
    assert abs(est.value - ref.value) \
        <= 3.0 * math.hypot(est.stderr, ref.stderr), (est.value, ref.value)


def test_chunked_points_match_unthinned_reference(monkeypatch):
    # a chunk of 7 points splits every block (about 40 kept points per trial)
    monkeypatch.setattr(sim, "_CHUNK", 7)
    r_cut, n = 400.0, 4000
    base = vi_defaults()
    c = base.sigma_e2 * 7.0 / P_A * r_cut ** base.alpha
    p = dataclasses.replace(
        base, lambda_e=40.0 / (math.pi * r_cut ** 2 * hyp1f1(0.5, 1.5, -c)))
    est = empirical_sop(P_A, P_B, 4.0, 1.0, p, n_trials=n, r_cut=r_cut, seed=32)
    ref = empirical_sop_reference(P_A, P_B, 4.0, 1.0, p, n_trials=n,
                                  r_cut=r_cut, seed=32)
    assert 0.2 < ref.value < 0.8
    assert abs(est.value - ref.value) \
        <= 3.0 * math.hypot(est.stderr, ref.stderr), (est.value, ref.value)


class _CountingRng:
    """A generator proxy that appends the size of every draw to ``tally``."""

    def __init__(self, rng, tally):
        self._rng = rng
        self._tally = tally

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def counted(*args, **kwargs):
            out = draw(*args, **kwargs)
            self._tally.append(np.size(out))
            return out
        return counted


def test_thinning_stays_finite_where_it_barely_thins(monkeypatch):
    """c <= 1e-6: no warning, no overflow, no more candidate eavesdroppers
    than the unthinned field, and the unthinned sampler's answer."""
    p = vi_defaults(lambda_e=1e-4)
    r_cut, r_c, n = 100.0, 2.001, 2000
    c = p.sigma_e2 * (2.0 ** (r_c - 2.0) - 1.0) / P_A * r_cut ** p.alpha
    assert 0.0 < c <= 1e-6
    tally = []
    monkeypatch.setattr(sim, "sub_rng",
                        lambda *key: _CountingRng(sub_rng(*key), tally))
    with _warnings_raise():
        est = empirical_sop(P_A, P_B, r_c, 2.0, p, n_trials=n, r_cut=r_cut, seed=43)
    # one Poisson count per trial; each candidate costs four uniforms
    # (position, acceptance, azimuth, jamming coin)
    candidates = (sum(tally) - n) / 4.0
    assert candidates <= 1.05 * n * p.lambda_e * math.pi * r_cut ** 2
    ref = empirical_sop_reference(P_A, P_B, r_c, 2.0, p, n_trials=n,
                                  r_cut=r_cut, seed=43)
    assert abs(est.value - ref.value) <= 3.0 * math.hypot(est.stderr, ref.stderr)


# ---------------------------------------------------------------- two fields

SPLIT_R_CUT = 400.0


def _strongly_jammed(alpha, d_ab, q=100.0):
    """Powers and parameters at rate gap 3 bits (x = 7) and jamming weight
    q = x * p_b / p_a, where the field has thinning scale 2 on a 400 m disk
    and keeps 20 points per trial without jamming."""
    base = vi_defaults(alpha=alpha, d_ab=d_ab)
    p_a = base.sigma_e2 * 7.0 * SPLIT_R_CUT ** alpha / 2.0
    k = 2.0 / alpha
    params = dataclasses.replace(base, lambda_e=20.0 / (
        math.pi * SPLIT_R_CUT ** 2 * hyp1f1(k, k + 1.0, -2.0)))
    return p_a, q * p_a / 7.0, params


def _fields_of(p_a, p_b, params):
    """The fields ``empirical_sop`` draws at rates (4, 1) on SPLIT_R_CUT."""
    c = sim._thinning_scale([(4.0, 1.0)], p_a, params, SPLIT_R_CUT)
    return sim._fields(c, 7.0 * p_b / p_a, params, SPLIT_R_CUT)


def _record_fields(monkeypatch):
    """Record the fields of every ``empirical_sop`` call."""
    seen = []
    choose = sim._fields

    def spy(*args):
        seen.append(choose(*args))
        return seen[-1]
    monkeypatch.setattr(sim, "_fields", spy)
    return seen


@pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
@pytest.mark.parametrize("d_ab", [1.0, 10.0, 50.0])
def test_outer_coin_bound_holds_beyond_r_in(alpha, d_ab):
    # the coin probability 1 / (1 + q (d_ak/d_bk)^alpha), with d_bk by the
    # law of cosines, is at most p_out at every d_ak >= r_in and azimuth,
    # and reaches it at d_ak = r_in, theta = pi
    p_a, p_b, params = _strongly_jammed(alpha, d_ab)
    (_, _, radius, (r_in, p_out)), (_, _, inner, bound) = _fields_of(p_a, p_b, params)
    assert radius == SPLIT_R_CUT and inner == r_in and bound is None
    rng = np.random.default_rng(51)
    d_ak = np.concatenate(([r_in, SPLIT_R_CUT],
                           rng.uniform(r_in, SPLIT_R_CUT, 2000)))[:, None]
    theta = np.concatenate(([0.0, math.pi], rng.uniform(0.0, math.pi, 2000)))
    d_bk = np.sqrt(d_ak ** 2 + d_ab ** 2 - 2.0 * d_ak * d_ab * np.cos(theta))
    with np.errstate(divide="ignore"):    # r_in = d_ab, theta = 0: on the jammer
        coin = 1.0 / (1.0 + 7.0 * p_b / p_a * (d_ak / d_bk) ** alpha)
    assert coin.max() <= p_out * (1.0 + 1e-12)
    assert coin[0, 1] == pytest.approx(p_out, rel=1e-12)


@pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
def test_fields_match_the_loop_oracle(alpha):
    # one array call over every candidate inner disk plans the fields the
    # oracle's loop plans, one hyp1f1 mean per candidate
    seen = set()
    for d_ab, r_cut, c, q in itertools.product(
            (0.5, 10.0, 200.0), (50.0, 800.0, 5000.0), (1e-3, 2.0, 1e3),
            (0.0, 1e-3, 1.0, 1e3, math.inf)):
        params = vi_defaults(alpha=alpha, d_ab=d_ab)
        got = sim._fields(c, q, params, r_cut)
        expect = split_fields(c / r_cut ** alpha, q, params, r_cut, 1)
        case = (d_ab, r_cut, c, q)
        assert len(got) == len(expect), case
        seen.add(len(got))
        for (c_f, mean, radius, bound), field in zip(got, expect):
            assert c_f == pytest.approx(field["c"][0], rel=1e-14, abs=0.0), case
            assert mean == pytest.approx(field["mean"][0], rel=1e-12, abs=0.0), case
            assert radius == pytest.approx(field["radius"], rel=1e-14, abs=0.0), case
            assert (bound is None) == ("bound" not in field), case
            if bound is not None:
                assert bound == pytest.approx(field["bound"], rel=1e-14, abs=0.0), case
    assert seen == {1, 2}


@pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
@pytest.mark.parametrize("d_ab", [1.0, 10.0, 50.0])
def test_two_fields_match_unthinned_reference(alpha, d_ab, monkeypatch):
    p_a, p_b, params = _strongly_jammed(alpha, d_ab)
    seen = _record_fields(monkeypatch)
    args = (p_a, p_b, 4.0, 1.0, params, 4000, SPLIT_R_CUT, 33)
    est = empirical_sop(*args)
    assert [len(fields) for fields in seen] == [2]
    ref = empirical_sop_reference(*args)
    assert abs(est.value - ref.value) \
        <= 3.0 * math.hypot(est.stderr, ref.stderr), (est.value, ref.value)


@pytest.mark.parametrize("q", [0.0, 0.05])
def test_unsplit_calls_equal_the_one_field_engine(q, monkeypatch):
    # without jamming, or with jamming too weak for the split to halve the
    # points, every draw is the one field's
    p_a, p_b, params = _strongly_jammed(4.0, 10.0, q)
    assert len(_fields_of(p_a, p_b, params)) == 1
    args = (p_a, p_b, 4.0, 1.0, params, 3000, SPLIT_R_CUT, 34)
    split = empirical_sop(*args)
    monkeypatch.setattr(sim, "_fields", lambda c, _q, params, r_cut: [
        (c, _kept_mean(np.array([c]), params, r_cut)[0], r_cut, None)])
    assert split == empirical_sop(*args)


def test_infinite_jamming_has_no_outage(monkeypatch):
    seen = _record_fields(monkeypatch)
    with _warnings_raise():
        est = empirical_sop(P_A, math.inf, R_C, R_S, vi_defaults(lambda_e=1e-3),
                            n_trials=2000, r_cut=800.0, seed=35)
    assert est.value == 0.0
    # no outer point: its coin bound is 0
    assert seen[0][0][1] == 0.0 and seen[0][0][3][1] == 0.0


def test_infinite_jamming_at_rate_gap_zero_has_no_outage():
    # x = 0 keeps every point with v = 0, and v * p_b is 0 * inf; the SINR
    # under infinite jamming is 0, which beats no threshold
    with _warnings_raise():
        est = empirical_sop(P_A, math.inf, 2.0, 2.0, vi_defaults(lambda_e=1e-3),
                            n_trials=500, r_cut=800.0, seed=36)
    assert est.value == 0.0


def test_empirical_sop_argument_checks():
    p = vi_defaults()
    with pytest.raises(ValidationError):
        empirical_sop(P_A, P_B, R_C, R_S, p, n_trials=0, r_cut=500.0, seed=0)
    with pytest.raises(ValidationError):
        empirical_sop(P_A, P_B, 1.0, 2.0, p, n_trials=10, r_cut=500.0, seed=0)
    with pytest.raises(ValidationError, match="p_a"):
        empirical_sop(0.0, P_B, R_C, R_S, p, n_trials=10, r_cut=500.0, seed=0)
    with pytest.raises(ValidationError, match="p_b"):
        empirical_sop(P_A, -1.0, R_C, R_S, p, n_trials=10, r_cut=500.0, seed=0)


RUN_ARGS = dict(r_cut=500.0, seed=0)


@pytest.mark.parametrize("bad, message", [
    ({"r_cut": math.nan}, "r_cut must be finite"),
    ({"r_cut": math.inf}, "r_cut must be finite"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"seed": 0.5}, "seed must be an integer: 0.5"),
    ({"seed": math.inf}, "seed must be an integer: inf"),
    ({"n": 1.5}, "{n} must be an integer: 1.5"),
    ({"n": math.inf}, "{n} must be an integer: inf"),
    ({"n": 10.0}, "{n} must be an integer: 10.0"),
    ({"n": 0}, "{n} must be >= 1: 0"),
    ({"n": True}, "{n} must be an integer: True"),
    ({"seed": False}, "seed must be an integer: False"),
    ({"n": True, "seed": False}, "{n} must be an integer: True"),
])
def test_run_arguments_checked_before_any_draw(bad, message, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before checking its arguments")
    monkeypatch.setattr(sim, "sub_rng", no_draws)
    args = {**RUN_ARGS, "n": 10, **bad}
    n = args.pop("n")
    with pytest.raises(ValidationError, match=re.escape(message.format(n="n_trials"))):
        empirical_sop(P_A, P_B, R_C, R_S, vi_defaults(), n_trials=n, **args)
    with pytest.raises(ValidationError, match=re.escape(message.format(n="n_slots"))):
        run_online(ONLINE_SOLUTION, ONLINE_PARAMS, n_slots=n, **args)


def test_run_arguments_accept_numpy_integers():
    args = (P_A, P_B, R_C, R_S, vi_defaults())
    assert (empirical_sop(*args, n_trials=np.int64(100), r_cut=500.0,
                          seed=np.uint32(3))
            == empirical_sop(*args, n_trials=100, r_cut=500.0, seed=3))
    assert (run_online(ONLINE_SOLUTION, ONLINE_PARAMS, np.int32(100), 500.0,
                       np.int64(3))
            == run_online(ONLINE_SOLUTION, ONLINE_PARAMS, 100, 500.0, 3))


@pytest.mark.parametrize("p_a, p_b", [(math.nan, P_B), (math.inf, P_B), (P_A, math.nan)])
def test_empirical_sop_rejects_non_finite_powers(p_a, p_b):
    with pytest.raises(ValidationError, match="require finite p_a > 0 W and p_b >= 0 W"):
        empirical_sop(p_a, p_b, R_C, R_S, vi_defaults(), n_trials=10, **RUN_ARGS)


def test_empirical_sop_refuses_more_than_2_to_the_40_drawn_points():
    # the bound is on the expected kept points of all trials together, and
    # holds only under jamming: without it no point is drawn, only the counts
    params, r_cut = vi_defaults(lambda_e=1e5), 2000.0
    c = sim._thinning_scale([(R_C, R_S)], P_A, params, r_cut)
    fields = sim._fields(c, (2.0 ** (R_C - R_S) - 1.0) * P_B / P_A, params, r_cut)
    n = int(2.0 ** 40 / sum(float(mean) for _, mean, _, _ in fields)) + 1
    assert 1 < n < 10_000
    with pytest.raises(ValidationError, match=re.escape(
            f"lambda_e = 100000.0 per m^2 on a disk of radius 2000.0 m is too "
            f"dense to simulate: n_trials = {n} would draw ")):
        empirical_sop(P_A, P_B, R_C, R_S, params, n, r_cut, seed=1)
    assert empirical_sop(P_A, 0.0, R_C, R_S, params, n, r_cut, seed=1).value == 1.0



def test_online_run_refuses_more_than_2_to_the_40_drawn_points(monkeypatch):
    # the bound is on the running sum of the kept-count means of the jammed
    # slots, checked once per batch before its points are drawn; a run of
    # HD slots only draws no point and sums 0
    n, seen, check = 2 * sim._CHUNK + 100, [], sim._check_drawn

    def recorded(drawn, *args):
        seen.append(drawn)
        check(drawn, *args)

    monkeypatch.setattr(sim, "_check_drawn", recorded)
    run_online(ONLINE_SOLUTION, ONLINE_PARAMS, n, 500.0, seed=1)
    assert len(seen) == 3 and 0.0 < seen[0] < seen[1] < seen[2]
    sums = seen[:]

    monkeypatch.setattr(sim, "_DRAWN_MAX", (sums[0] + sums[1]) / 2.0)
    seen.clear()
    with pytest.raises(ValidationError, match=re.escape(
            f"lambda_e = 1e-05 per m^2 on a disk of radius 500.0 m is too "
            f"dense to simulate: n_slots = {n} would draw {sums[1]:.6g} kept "
            f"points in expectation, more than 2^40")):
        run_online(ONLINE_SOLUTION, ONLINE_PARAMS, n, 500.0, seed=1)
    assert seen == sums[:2]

    monkeypatch.setattr(sim, "_DRAWN_MAX", 0.0)
    seen.clear()
    hd_only = optimize(ONLINE_PARAMS, forced_mu_b=0.0)
    assert run_online(hd_only, ONLINE_PARAMS, n, 500.0, seed=1).mode_counts.fd == 0
    assert seen == [0.0, 0.0, 0.0]

def test_thinning_scale_overflow_is_a_validation_error_without_a_warning():
    # sigma_e2*x/p_a*r_cut^alpha past double range on some rows of an array
    # (x = 2^999 - 1, r_cut^alpha = 1.6e13): numpy warned of the overflow
    # before the package's own error.  A pair no row picks cannot fail the
    # call, and a faulty row names its own pair
    p = vi_defaults(sigma_e2=1e-3)
    rates = [(2.0, 1.0), (1000.0, 1.0)]
    p_a = np.array([10.0, 1e-3, 10.0])
    with _warnings_raise():
        for call in (lambda: sim._thinning_scale(rates[1:], p_a, p, 2000.0),
                     lambda: sim._thinning_scale(rates, p_a, p, 2000.0,
                                                 pick=np.array([0, 1, 0]))):
            with pytest.raises(ValidationError, match="rate gap r_c - r_s = 999.0 bits"):
                call()
        with pytest.raises(ValidationError, match=re.escape(
                "transmit power 0 W at rates r_c = 1000.0, r_s = 1.0")):
            sim._thinning_scale(rates, np.array([10.0, 10.0, 0.0]), p, 2000.0,
                                pick=np.array([0, 0, 1]))
        c = sim._thinning_scale(rates, p_a, p, 2000.0, pick=np.zeros(3, bool))
    assert np.array_equal(c, sim._thinning_scale(rates[:1], p_a, p, 2000.0))
    assert list(c) == [1e-3 * 1.0 / pa * 2000.0 ** 4 for pa in p_a]


# ---------------------------------------------------------------- on-line

def test_online_no_jamming_mode_when_switch_disabled():
    sol = optimize(ONLINE_PARAMS, forced_mu_b=0.0)
    rep = run_online(sol, ONLINE_PARAMS, n_slots=4000, r_cut=400.0, seed=2)
    assert rep.mode_counts.fd == 0
    assert rep.mode_counts.hd + rep.mode_counts.silent == 4000


def test_online_run_without_a_transmitting_slot_reports_no_outage():
    # on-off thresholds no unit-mean exponential gain reaches: every slot is
    # silent, and the conditional secrecy outage has no sample
    high = dataclasses.replace(ONLINE_SOLUTION,
                               fd=dataclasses.replace(ONLINE_SOLUTION.fd, mu_a=1e6),
                               hd=dataclasses.replace(ONLINE_SOLUTION.hd, mu_a=1e6))
    rep = run_online(high, ONLINE_PARAMS, n_slots=1000, r_cut=400.0, seed=2)
    assert rep.mode_counts == ModeCounts(fd=0, hd=0, silent=1000)
    assert rep.transmissions == rep.secrecy_outages == 0
    assert rep.empirical_sop == rep.sop_stderr == 0.0
    assert rep.empirical_tx_prob == rep.empirical_throughput == 0.0


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
