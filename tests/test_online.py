import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdjam import Mode, ValidationError, decide, dbm_to_watts, optimize
from fdjam.online import decide_slots
from fdjam.params import FdParams, HdParams, SwitchedSolution

from oracles import decide_reference, vi_defaults

PARAMS = vi_defaults(lambda_e=1e-5, epsilon=0.05)
SOLUTION = optimize(PARAMS)


def test_silent_below_both_thresholds():
    fd_gate = SOLUTION.fd.mu_a
    hd_gate = SOLUTION.hd.mu_a
    low = 0.5 * min(fd_gate, hd_gate)
    # jamming branch (tiny residual SI) and half-duplex branch (huge SI)
    assert decide(low, 0.0, SOLUTION, PARAMS).mode is Mode.SILENT
    assert decide(low, 1e9, SOLUTION, PARAMS).mode is Mode.SILENT


def test_switch_tie_goes_to_jamming_branch():
    gamma_bb = SOLUTION.mu_b / PARAMS.rho
    act = decide(SOLUTION.fd.mu_a, gamma_bb, SOLUTION, PARAMS)
    assert act.mode is Mode.FD


def test_zero_switch_level_never_jams():
    # mu_b = 0 is the pure half-duplex design (hd_weight(0, rho) = 1 for
    # every rho): a slot never jams, even at rho = 0, where rho*gamma_bb
    # ties the switch level on every slot, or at gamma_bb = 0
    gate = 2.0 * max(SOLUTION.fd.mu_a, SOLUTION.hd.mu_a)
    pure_hd = dataclasses.replace(SOLUTION, mu_b=0.0)
    for rho in (0.0, PARAMS.rho):
        params = dataclasses.replace(PARAMS, rho=rho)
        for gamma_bb in (0.0, 1.0):
            assert decide(gate, gamma_bb, pure_hd, params).mode is Mode.HD
            assert decide_reference(gate, gamma_bb, pure_hd, params).mode is Mode.HD
    # any mu_b > 0 at rho = 0 jams on every slot
    params = dataclasses.replace(PARAMS, rho=0.0)
    assert decide(gate, 1.0, SOLUTION, params).mode is Mode.FD


def test_boundary_power_hits_budget_exactly():
    gamma_bb = SOLUTION.mu_b / PARAMS.rho
    act = decide(SOLUTION.fd.mu_a, gamma_bb, SOLUTION, PARAMS)
    assert act.p_a == pytest.approx(PARAMS.p_a_max, rel=1e-12)
    assert act.p_b == SOLUTION.fd.p_b


def test_half_gate_power_without_self_interference():
    fd = SOLUTION.fd
    act = decide(2.0 * fd.mu_a, 0.0, SOLUTION, PARAMS)
    assert act.mode is Mode.FD
    expected = ((2.0 ** fd.r_c - 1.0) * PARAMS.sigma_b2
                * PARAMS.d_ab ** PARAMS.alpha / (2.0 * fd.mu_a))
    assert act.p_a == pytest.approx(expected, rel=1e-12)


def test_power_strictly_decreasing_in_main_gain():
    factors = [1.0, 1.5, 2.5, 5.0, 20.0]
    powers = [decide(f * SOLUTION.fd.mu_a, 0.0, SOLUTION, PARAMS).p_a
              for f in factors]
    assert all(a > b for a, b in zip(powers, powers[1:]))


@settings(max_examples=100, deadline=None)
@given(gain_factor=st.floats(1.0, 1e4), si_fraction=st.floats(0.0, 1.0))
def test_fd_capacity_meets_codeword_rate(gain_factor, si_fraction):
    gamma_ab = SOLUTION.fd.mu_a * gain_factor
    gamma_bb = si_fraction * SOLUTION.mu_b / PARAMS.rho
    act = decide(gamma_ab, gamma_bb, SOLUTION, PARAMS)
    assert act.mode is Mode.FD
    assert 0.0 < act.p_a <= PARAMS.p_a_max * (1.0 + 1e-12)
    sinr = (act.p_a * gamma_ab * PARAMS.d_ab ** (-PARAMS.alpha)
            / (PARAMS.sigma_b2 + PARAMS.rho * act.p_b * gamma_bb))
    assert math.log2(1.0 + sinr) == pytest.approx(SOLUTION.fd.r_c, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(gain_factor=st.floats(1.0, 1e4), si_factor=st.floats(1.0 + 1e-9, 1e6))
def test_hd_capacity_meets_codeword_rate(gain_factor, si_factor):
    gamma_ab = SOLUTION.hd.mu_a * gain_factor
    gamma_bb = si_factor * SOLUTION.mu_b / PARAMS.rho
    act = decide(gamma_ab, gamma_bb, SOLUTION, PARAMS)
    assert act.mode is Mode.HD
    assert act.p_b == 0.0
    sinr = act.p_a * gamma_ab * PARAMS.d_ab ** (-PARAMS.alpha) / PARAMS.sigma_b2
    assert math.log2(1.0 + sinr) == pytest.approx(SOLUTION.hd.r_c, rel=1e-12)


@pytest.mark.parametrize("gamma_ab, gamma_bb", [
    (-1.0, 0.0), (1.0, -1e-9), (math.nan, 0.2), (1.3, math.nan), (math.nan, math.nan)])
def test_rejects_negative_gains(gamma_ab, gamma_bb):
    # NaN compares false with everything, so a "< 0" test alone passes it
    message = f"channel gains must be >= 0: gamma_ab={gamma_ab}, gamma_bb={gamma_bb}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        decide(gamma_ab, gamma_bb, SOLUTION, PARAMS)
    # the array rule names the first bad slot of a block
    gamma_ab = np.array([1.3, 1.3, gamma_ab, -1.0])
    gamma_bb = np.array([0.2, 0.2, gamma_bb, 0.2])
    with pytest.raises(ValidationError, match=re.escape(message)):
        decide_slots(gamma_ab, gamma_bb, SOLUTION, PARAMS)


# an on-off gate below the budget-saturating threshold demands p_a > p_a_max
BAD_SOLUTION = SwitchedSolution(
    mu_b=SOLUTION.mu_b,
    fd=FdParams(r_c=SOLUTION.fd.r_c, r_s=SOLUTION.fd.r_s,
                mu_a=SOLUTION.fd.mu_a / 4.0, p_b=SOLUTION.fd.p_b),
    hd=SOLUTION.hd,
    omega_s=0.0, omega_fd=0.0, omega_hd=0.0)


def test_rejects_solution_violating_power_budget():
    with pytest.raises(ValidationError, match="p_a_max"):
        decide(BAD_SOLUTION.fd.mu_a, 0.5 * SOLUTION.mu_b / PARAMS.rho,
               BAD_SOLUTION, PARAMS)
    # the array rule rejects a block in which any one slot breaks the budget
    gamma_ab = np.array([10.0 * SOLUTION.fd.mu_a, BAD_SOLUTION.fd.mu_a])
    gamma_bb = np.full(2, 0.5 * SOLUTION.mu_b / PARAMS.rho)
    with pytest.raises(ValidationError, match="p_a_max"):
        decide_slots(gamma_ab, gamma_bb, BAD_SOLUTION, PARAMS)
    with pytest.raises(ValidationError, match="p_a_max"):
        decide_reference(BAD_SOLUTION.fd.mu_a, 0.5 * SOLUTION.mu_b / PARAMS.rho,
                         BAD_SOLUTION, PARAMS)


def _switch_tie_gain() -> float:
    """A self-interference gain with rho * gamma_bb == mu_b exactly."""
    g = SOLUTION.mu_b / PARAMS.rho
    for _ in range(8):
        if PARAMS.rho * g == SOLUTION.mu_b:
            return g
        g = np.nextafter(g, math.inf if PARAMS.rho * g < SOLUTION.mu_b else -math.inf)
    raise AssertionError("no exact tie within 8 ulps")


def test_slot_kernel_equals_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(20261018)
    n = 10_000
    # gains spread over three decades around each threshold
    gate = min(SOLUTION.fd.mu_a, SOLUTION.hd.mu_a)
    gamma_ab = gate * 10.0 ** rng.uniform(-1.5, 1.5, n)
    gamma_bb = SOLUTION.mu_b / PARAMS.rho * 10.0 ** rng.uniform(-1.5, 1.5, n)
    tie = _switch_tie_gain()
    corners = [(SOLUTION.fd.mu_a, tie), (2.0 * SOLUTION.fd.mu_a, tie),
               (SOLUTION.fd.mu_a, 0.0), (SOLUTION.hd.mu_a, 1e9),
               (np.nextafter(SOLUTION.fd.mu_a, 0.0), 0.0),
               (np.nextafter(SOLUTION.hd.mu_a, 0.0), 1e9), (0.0, 0.0)]
    gamma_ab = np.concatenate([gamma_ab, [g for g, _ in corners]])
    gamma_bb = np.concatenate([gamma_bb, [b for _, b in corners]])

    is_fd, is_hd, p_a, p_b = decide_slots(gamma_ab, gamma_bb, SOLUTION, PARAMS)
    modes = set()
    for i in range(gamma_ab.size):
        ref = decide_reference(float(gamma_ab[i]), float(gamma_bb[i]),
                               SOLUTION, PARAMS)
        mode = Mode.FD if is_fd[i] else Mode.HD if is_hd[i] else Mode.SILENT
        assert (mode, p_a[i], p_b[i]) == (ref.mode, ref.p_a, ref.p_b), i
        assert decide(float(gamma_ab[i]), float(gamma_bb[i]), SOLUTION, PARAMS) == ref
        modes.add(mode)
    assert modes == {Mode.FD, Mode.HD, Mode.SILENT}
    # the corners land where the rule says: ties jam, gates are inclusive
    tail = [decide_reference(g, b, SOLUTION, PARAMS).mode for g, b in corners]
    assert tail == [Mode.FD, Mode.FD, Mode.FD, Mode.HD,
                    Mode.SILENT, Mode.SILENT, Mode.SILENT]
    # the FD gate at the tie saturates the budget
    assert p_a[n] == pytest.approx(PARAMS.p_a_max, rel=1e-12)


@pytest.mark.parametrize("d_ab", [1e-80, 1e80])
def test_decide_rejects_a_path_gain_beyond_double_range(d_ab):
    # d_ab^-alpha overflows, or is subnormal, where the power would overflow
    with pytest.raises(ValidationError, match=re.escape("path gain d_ab^-alpha")):
        decide(1.0, 0.0, SOLUTION, dataclasses.replace(PARAMS, d_ab=d_ab))
