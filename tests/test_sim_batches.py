"""The batched Monte Carlo engine against the block-at-a-time loops it
replaced: every estimate and report must be equal bit for bit, also when
smaller chunks, blocks and window bounds cut the work into many batches and
windows."""

import math
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fdjam.sim as sim
import oracles
from fdjam import (FdParams, SwitchedSolution, ValidationError, dbm_to_watts,
                   empirical_sop, optimize, run_online)
from fdjam.cli import main

from oracles import (empirical_sop_blockwise, run_online_blockwise,
                     vi_defaults)

DEFAULT_INI = str(Path(__file__).resolve().parents[1] / "configs" / "default.ini")
P_A = dbm_to_watts(20.0)
P_B = dbm_to_watts(30.0)

ONLINE_PARAMS = vi_defaults(lambda_e=1e-5, epsilon=0.05)
ONLINE_SOLUTION = optimize(ONLINE_PARAMS)
# the same design in a dense field on a 50 m disk: its FD slots' thinning
# scales fall on both sides of the truncated-Gamma proposal switch
DENSE_PARAMS = vi_defaults(lambda_e=3e-3, epsilon=0.05)

# perfect suppression, where the design is the pure half-duplex point mu_b = 0
RHO0_PARAMS = vi_defaults(
    alpha=4.5, d_ab=9.0, lambda_e=4e-6, epsilon=0.3,
    sigma_b2=dbm_to_watts(-91.0), sigma_e2=dbm_to_watts(-86.0), rho=0.0,
    p_a_max=dbm_to_watts(-5.0), p_b_max=dbm_to_watts(9.0))

# an on-off gate below the budget-saturating threshold demands p_a > p_a_max
BAD_SOLUTION = SwitchedSolution(
    mu_b=ONLINE_SOLUTION.mu_b,
    fd=FdParams(r_c=ONLINE_SOLUTION.fd.r_c, r_s=ONLINE_SOLUTION.fd.r_s,
                mu_a=ONLINE_SOLUTION.fd.mu_a / 4.0, p_b=ONLINE_SOLUTION.fd.p_b),
    hd=ONLINE_SOLUTION.hd, omega_s=0.0, omega_fd=0.0, omega_hd=0.0)


@pytest.fixture
def regimes(monkeypatch):
    """Record, per ``_truncated_gamma`` call, whether its thinning scales
    fall below and at or above the proposal switch."""
    calls = []
    draw = sim._truncated_gamma

    def spy(rng, k, c, n):
        below = np.asarray(c) < math.gamma(1.0 + k) ** (1.0 / k)
        calls.append((bool(below.any()), bool((~below).any())))
        return draw(rng, k, c, n)
    monkeypatch.setattr(sim, "_truncated_gamma", spy)
    return calls


def _chunk_of_seven(monkeypatch):
    monkeypatch.setattr(sim, "_CHUNK", 7)
    monkeypatch.setattr(oracles, "_CHUNK", 7)


def _blocks_of_two(monkeypatch):
    """Blocks of two rows in chunks of seven points: three blocks a batch,
    and most blocks cut into several chunks."""
    _chunk_of_seven(monkeypatch)
    monkeypatch.setattr(sim, "_BLOCK", 2)
    monkeypatch.setattr(oracles, "_BLOCK", 2)


def _windows_of_five(monkeypatch):
    """Bound windows of whole blocks at five kept points in all: a block
    that keeps more is a window of its own, one chunk at a time."""
    monkeypatch.setattr(sim, "_POINTS", 5)


def _field_means(params, r_c, r_s, r_cut):
    """An empirical_sop trial's mean kept count per field at powers P_A and
    P_B."""
    c = params.sigma_e2 * (2.0 ** (r_c - r_s) - 1.0) / P_A * r_cut ** params.alpha
    q = (2.0 ** (r_c - r_s) - 1.0) * P_B / P_A
    return [float(mean) for _, mean, _, _ in sim._fields(c, q, params, r_cut)]


@pytest.mark.parametrize("case, params, r_c, r_s, n, r_cut", [
    # 15 full blocks and one of 40; points evaluated across blocks
    ("partial block", vi_defaults(), 4.0, 1.0, 1000, 800.0),
    # two batches
    ("two batches", vi_defaults(lambda_e=1e-5), 4.0, 1.0,
     sim._CHUNK + 1000, 800.0),
    # 130 trials in one block, which keeps about 87,000 points in the outer
    # field: more than one chunk
    ("dense", vi_defaults(lambda_e=6e-2), 4.0, 1.0, 130, 800.0),
    # c <= 1e-6: area-uniform proposals only
    ("barely thinned", vi_defaults(), 2.001, 2.0, 2000, 100.0),
    # 200 trials in one block, which keeps about 45,000 points in the outer
    # field and 20,000 in the inner: windows of a chunk or its remainder,
    # far above _POINTS, each tested whole
    ("chunk windows", vi_defaults(lambda_e=2e-2), 4.0, 1.0, 200, 800.0),
])
def test_empirical_sop_equals_blockwise_loop(case, params, r_c, r_s, n, r_cut,
                                             regimes):
    args = (P_A, P_B, r_c, r_s, params, n, r_cut, 17)
    assert empirical_sop(*args) == empirical_sop_blockwise(*args), case
    assert regimes
    assert all(small != large for small, large in regimes)


def test_empirical_sop_without_jamming_equals_blockwise_loop():
    args = (P_A, 0.0, 4.0, 1.0, vi_defaults(), 1000, 800.0, 18)
    assert empirical_sop(*args) == empirical_sop_blockwise(*args)


def test_empirical_sop_in_chunks_of_seven_equals_blockwise_loop(monkeypatch):
    _chunk_of_seven(monkeypatch)
    args = (P_A, P_B, 4.0, 1.0, vi_defaults(), 300, 800.0, 19)
    assert empirical_sop(*args) == empirical_sop_blockwise(*args)


@pytest.mark.parametrize("lambda_e, below_ten", [(1e-5, True), (1e-3, False)])
def test_empirical_sop_in_both_poisson_regimes_equals_blockwise_loop(
        lambda_e, below_ten):
    # numpy draws a Poisson count by multiplying uniforms below a mean of 10
    # and by transformed rejection at and above it
    params = vi_defaults(lambda_e=lambda_e)
    assert (max(_field_means(params, 4.0, 1.0, 800.0)) < 10.0) == below_ten
    args = (P_A, P_B, 4.0, 1.0, params, 1000, 800.0, 25)
    assert empirical_sop(*args) == empirical_sop_blockwise(*args)


@pytest.mark.parametrize("shape, lambda_e, n", [
    (None, 1e-5, 1000), (None, 1e-4, 300), (_chunk_of_seven, 1e-4, 300),
    # two batches
    (None, 1e-5, sim._CHUNK + 1000),
    # 6 trials a batch, whose outer field keeps several windows of points
    (_blocks_of_two, 1e-3, 300)])
def test_empirical_sop_in_slices_of_five_equals_blockwise_loop(
        monkeypatch, shape, lambda_e, n):
    if shape:
        shape(monkeypatch)
    _windows_of_five(monkeypatch)
    args = (P_A, P_B, 4.0, 1.0, vi_defaults(lambda_e=lambda_e), n, 800.0, 26)
    assert empirical_sop(*args) == empirical_sop_blockwise(*args)


def test_run_online_mixing_modes_and_regimes_equals_blockwise_loop(regimes):
    args = (ONLINE_SOLUTION, DENSE_PARAMS, 5000, 50.0, 20)
    rep = run_online(*args)
    assert rep == run_online_blockwise(*args)
    counts = rep.mode_counts
    assert min(counts.fd, counts.hd, counts.silent) > 0
    assert (True, True) in regimes


def test_run_online_over_two_batches_equals_blockwise_loop():
    args = (ONLINE_SOLUTION, ONLINE_PARAMS, sim._CHUNK + 1000, 2000.0, 21)
    assert run_online(*args) == run_online_blockwise(*args)


def test_run_online_pure_half_duplex_equals_blockwise_loop():
    solution = optimize(RHO0_PARAMS)
    assert solution.mu_b == 0.0
    args = (solution, RHO0_PARAMS, 3000, 2000.0, 3)
    rep = run_online(*args)
    assert rep == run_online_blockwise(*args)
    assert rep.mode_counts.fd == 0 and rep.mode_counts.hd > 0


def test_run_online_in_chunks_of_seven_equals_blockwise_loop(monkeypatch):
    _chunk_of_seven(monkeypatch)
    args = (ONLINE_SOLUTION, DENSE_PARAMS, 1000, 50.0, 22)
    assert run_online(*args) == run_online_blockwise(*args)


@pytest.mark.parametrize("shape, params, n, r_cut", [
    (None, DENSE_PARAMS, 1000, 50.0), (_chunk_of_seven, DENSE_PARAMS, 1000, 50.0),
    # two batches
    (None, ONLINE_PARAMS, sim._CHUNK + 1000, 2000.0),
    (_blocks_of_two, DENSE_PARAMS, 1000, 50.0)])
def test_run_online_in_slices_of_five_equals_blockwise_loop(
        monkeypatch, shape, params, n, r_cut):
    if shape:
        shape(monkeypatch)
    _windows_of_five(monkeypatch)
    args = (ONLINE_SOLUTION, params, n, r_cut, 28)
    assert run_online(*args) == run_online_blockwise(*args)


def test_run_online_reports_the_over_budget_slot_of_a_later_block():
    # at seed 11 the first slot that breaks the budget is in block 1: the
    # first block of slots passes, and five blocks of slots raise there
    one, five = sim._BLOCK, 5 * sim._BLOCK
    run_online_blockwise(BAD_SOLUTION, ONLINE_PARAMS, one, 2000.0, 11)
    with pytest.raises(ValidationError, match="p_a_max") as ref:
        run_online_blockwise(BAD_SOLUTION, ONLINE_PARAMS, five, 2000.0, 11)
    with pytest.raises(ValidationError, match=re.escape(str(ref.value))):
        run_online(BAD_SOLUTION, ONLINE_PARAMS, five, 2000.0, 11)


def _windows_spy(monkeypatch):
    """Record, per ``_field_outages`` call, each block's kept-point edges and
    the windows planned from them."""
    plans = []
    plan = sim._windows

    def spy(points):
        windows = list(plan(points))
        plans.append((points, windows))
        return iter(windows)
    monkeypatch.setattr(sim, "_windows", spy)
    return plans


def _assert_every_kind_of_window(plans):
    """Some batch is cut into several windows, some window is a run of
    blocks, and some block keeps more than a chunk."""
    assert any(len(windows) > 1 for _, windows in plans)
    assert any(stop - first > 1 for _, windows in plans
               for first, stop, _, _ in windows)
    assert any(b - a > sim._CHUNK for points, _ in plans
               for a, b in zip(points, points[1:]))


# the first key word needs two 32-bit words of entropy
@pytest.mark.parametrize("seed", [31, 2 ** 32 + 31])
def test_empirical_sop_across_windows_equals_blockwise_loop(monkeypatch, seed):
    # 3 blocks of two trials a batch, about 4 kept points a block in the
    # two fields: runs of blocks of at most five points, and blocks of more
    # than seven
    _blocks_of_two(monkeypatch)
    _windows_of_five(monkeypatch)
    plans = _windows_spy(monkeypatch)
    args = (P_A, P_B, 4.0, 1.0, vi_defaults(lambda_e=1.2e-4), 600, 800.0, seed)
    assert empirical_sop(*args) == empirical_sop_blockwise(*args)
    _assert_every_kind_of_window(plans)


@pytest.mark.parametrize("seed", [32, 2 ** 32 + 32])
def test_run_online_across_windows_equals_blockwise_loop(monkeypatch, seed):
    _blocks_of_two(monkeypatch)
    _windows_of_five(monkeypatch)
    plans = _windows_spy(monkeypatch)
    args = (ONLINE_SOLUTION, vi_defaults(lambda_e=1e-3, epsilon=0.05), 600,
            50.0, seed)
    assert run_online(*args) == run_online_blockwise(*args)
    _assert_every_kind_of_window(plans)


# seeds and block indices of one, two and four 32-bit words, numpy integers
EDGE_KEYS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 100 + 3, 10 ** 12,
             np.int64(7), np.uint64(2 ** 64 - 1), np.uint32(2 ** 32 - 1),
             np.int8(3)]


@pytest.mark.parametrize("seed", EDGE_KEYS, ids=repr)
def test_substreams_equal_default_rng(seed):
    for domain in (0, 1):
        for block in EDGE_KEYS:
            assert (sim.sub_rng(seed, domain, block).bit_generator.state
                    == np.random.default_rng(
                        (seed, domain, block)).bit_generator.state)


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError),
                                          (None, TypeError)])
def test_substreams_reject_what_default_rng_rejects(seed, error):
    with pytest.raises(error):
        np.random.default_rng((seed, 0, 0))
    with pytest.raises(error):
        sim.sub_rng(seed, 0, 0)


# windows of whole blocks bounded at one point, at two, at one less than a
# chunk of seven, at a whole chunk, and at more than a chunk, which windows
# cap at the chunk
WINDOW_BOUNDS = [1, 2, 6, 7, 1 << 16]


@pytest.mark.parametrize("points", WINDOW_BOUNDS)
def test_empirical_sop_in_any_slice_size_equals_blockwise_loop(monkeypatch,
                                                               points):
    # 6 trials a batch, whose outer field keeps blocks of several chunks
    _blocks_of_two(monkeypatch)
    monkeypatch.setattr(sim, "_POINTS", points)
    args = (P_A, P_B, 4.0, 1.0, vi_defaults(lambda_e=1e-3), 300, 800.0, 29)
    assert empirical_sop(*args) == empirical_sop_blockwise(*args)


@pytest.mark.parametrize("points", WINDOW_BOUNDS)
def test_run_online_in_any_slice_size_equals_blockwise_loop(monkeypatch,
                                                            points):
    _blocks_of_two(monkeypatch)
    monkeypatch.setattr(sim, "_POINTS", points)
    args = (ONLINE_SOLUTION, DENSE_PARAMS, 1000, 50.0, 30)
    assert run_online(*args) == run_online_blockwise(*args)


def _no_thread_starts(monkeypatch):
    def start(thread):
        raise AssertionError(f"started {thread!r}")
    monkeypatch.setattr(threading.Thread, "start", start)


@pytest.mark.parametrize("case", ["sparse", "dense", "online", "cli"])
def test_the_engine_starts_no_thread(monkeypatch, tmp_path, case):
    # "dense": 1,250 trials at 1e-3 keep about 14,000 points in the outer
    # field of one batch
    _no_thread_starts(monkeypatch)
    if case == "sparse":
        empirical_sop(P_A, P_B, 4.0, 1.0, vi_defaults(lambda_e=1e-4), 300,
                      800.0, 7)
    elif case == "dense":
        empirical_sop(P_A, P_B, 4.0, 1.0, vi_defaults(lambda_e=1e-3), 1250,
                      800.0, 7)
    elif case == "online":
        run_online(ONLINE_SOLUTION, DENSE_PARAMS, 1000, 50.0, 7)
    else:
        assert main(["validate-sop", "--config", DEFAULT_INI, "--d-ab", "10",
                     "--lambda-list", "1e-5,1e-3", "--trials", "1250",
                     "--out", str(tmp_path / "sop.csv")]) == 0


def _blocks(n):
    """Blocks that ``n`` trials fill."""
    return -(-n // sim._BLOCK)


# blocks per batch: one batch, and two (a full batch of _CHUNK rows, then
# the blocks of the last 1,000)
@pytest.mark.parametrize("n, blocks", [
    (1250, [_blocks(1250)]),
    (sim._CHUNK + 1000, [sim._CHUNK // sim._BLOCK, _blocks(1000)])])
def test_each_field_of_a_batch_is_evaluated_in_one_call(monkeypatch, n,
                                                        blocks):
    calls = []
    evaluate = sim._field_outages

    def spy(rngs, *args):
        calls.append(len(rngs))
        return evaluate(rngs, *args)
    monkeypatch.setattr(sim, "_field_outages", spy)
    lambda_e = 1e-3 if n < sim._CHUNK else 1e-5
    empirical_sop(P_A, P_B, 4.0, 1.0, vi_defaults(lambda_e=lambda_e), n,
                  800.0, 5)
    # the outer field's call, then the inner field's, per batch
    assert calls == [size for size in blocks for _ in range(2)]


def test_substreams_are_created_once_per_block_on_the_calling_thread(
        monkeypatch):
    _windows_of_five(monkeypatch)
    threads = []
    create = sim.sub_rng

    def spy(*key):
        threads.append(threading.get_ident())
        return create(*key)
    monkeypatch.setattr(sim, "sub_rng", spy)
    empirical_sop(P_A, P_B, 4.0, 1.0, vi_defaults(lambda_e=1e-4), 300, 800.0, 8)
    run_online(ONLINE_SOLUTION, DENSE_PARAMS, 1000, 50.0, 8)
    assert len(threads) == _blocks(300) + _blocks(1000)
    assert set(threads) == {threading.get_ident()}


@pytest.mark.parametrize("run", ["empirical_sop", "run_online"])
def test_an_error_in_a_block_reaches_the_caller_unchanged(monkeypatch, run):
    _windows_of_five(monkeypatch)
    create, draw = sim.sub_rng, sim._truncated_gamma
    second = []

    def create_spy(seed, domain, index):
        rng = create(seed, domain, index)
        if index == 1:
            second.append(rng)
        return rng

    def fail_on_second_block(rng, *args):
        if rng is second[0]:
            raise ArithmeticError("second block")
        return draw(rng, *args)
    monkeypatch.setattr(sim, "sub_rng", create_spy)
    monkeypatch.setattr(sim, "_truncated_gamma", fail_on_second_block)
    with pytest.raises(ArithmeticError) as err:
        if run == "empirical_sop":
            empirical_sop(P_A, P_B, 4.0, 1.0, vi_defaults(lambda_e=1e-4), 300,
                          800.0, 9)
        else:
            run_online(ONLINE_SOLUTION, DENSE_PARAMS, 1000, 50.0, 9)
    assert type(err.value) is ArithmeticError
    assert str(err.value) == "second block"


def test_a_dense_trial_holds_memory_bounded_by_the_chunk():
    # about 1.7 million kept points in the outer field of one trial, all in
    # block 0: their owner indices alone would take 13 MiB at once
    params = vi_defaults(lambda_e=150.0)
    kept = max(_field_means(params, 4.0, 1.0, 800.0))
    bound = 16 * 8 * sim._CHUNK
    assert kept * 8 > 3 * bound
    tracemalloc.start()
    try:
        empirical_sop(P_A, P_B, 4.0, 1.0, params, 1, 800.0, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak
