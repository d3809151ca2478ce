"""Acceptance suite.

Each test implements one release gate at its stated tolerance and runtime
budget; the conftest hook prints one PASS/FAIL line per criterion at the
end of the run.  Gates that need the same heavy computation share
module-scoped fixtures.

Known limitation, kept as an honest failure rather than a loosened bound:
the small-separation closed form for the outage probability drifts up to
~0.09 absolute from the exact quadrature at a 30 m link (see a1 below);
both routes are cross-validated against Monte Carlo, which sides with the
quadrature.
"""

import csv
import dataclasses
import io
import math
import time

import numpy as np
import pytest

from fdjam import (GridSpec, comparison_metrics, dbm_to_watts, optimize,
                   run_online, solve_step1, solve_step2)
from fdjam.cli import main
from oracles import (mu_a_from_sop_constraint, omega_tilde_formula,
                     random_scenarios, sign_changes, solve_hd, u_of,
                     vi_defaults)

SEED = 20260810

ACCEPT_INI = """\
[system]
alpha = 4.0
d_ab_m = 10.0
lambda_e_per_m2 = 1e-4
epsilon = 0.1
sigma_b2_dbm = -90
sigma_e2_dbm = -90
rho_db = -70
p_a_max_dbm = 10
p_b_max_dbm = 10

[sim]
r_cut_m = 800
"""

# Jamming-power sets with interior optima (tight outage bounds, low switch
# levels); budget 30 dBm so the stationary point clears floor and cap.
INTERIOR_SETS = [
    (1e-4, 1e-4, 1e-9), (1e-4, 1e-3, 1e-9), (1e-4, 1e-2, 1e-9),
    (1e-3, 1e-3, 1e-9), (1e-3, 1e-2, 1e-9), (1e-4, 1e-4, 3e-9),
    (1e-4, 1e-3, 3e-9), (1e-3, 1e-2, 3e-9), (1e-4, 1e-2, 1e-8),
    (1e-3, 1e-3, 3e-9),
]


@pytest.fixture(scope="module")
def accept_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept") / "accept.ini"
    path.write_text(ACCEPT_INI)
    return str(path)


def _run_cli_csv(argv):
    import fdjam.cli as cli_mod
    buf = io.StringIO()
    orig = cli_mod.sys.stdout
    cli_mod.sys.stdout = buf
    try:
        code = main(argv)
    finally:
        cli_mod.sys.stdout = orig
    assert code == 0
    text = buf.getvalue()
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    return text, list(csv.DictReader(io.StringIO(body)))


# -------------------------------------------------------------------- A1

@pytest.fixture(scope="module")
def a1_table(accept_config):
    start = time.monotonic()
    _, rows = _run_cli_csv([
        "validate-sop", "--config", accept_config,
        "--d-ab", "0.2,10,30",
        "--lambda-min", "1e-6", "--lambda-max", "1e-2", "--lambda-steps", "25",
        "--p-a-w", repr(dbm_to_watts(20.0)), "--p-b-w", repr(dbm_to_watts(30.0)),
        "--rate-gap", "3.0", "--trials", "0"])
    return rows, time.monotonic() - start


@pytest.mark.parametrize("d_ab", [0.2, 10.0, 30.0])
def test_a1_approximation_fidelity(a1_table, d_ab):
    rows, elapsed = a1_table
    assert elapsed < 30.0
    mine = [r for r in rows if float(r["d_ab_m"]) == d_ab]
    assert len(mine) == 25
    gaps = [abs(float(r["sop_exact"]) - float(r["sop_approx"])) for r in mine]
    assert max(gaps) <= 0.02, \
        f"d_ab={d_ab} m: worst |exact - approx| = {max(gaps):.4f}"


# -------------------------------------------------------------------- A2

A2_ARGV_TAIL = [
    "--d-ab", "10",
    # densities spanning outage 0.005 to 0.99; beyond 1e-3 the outage
    # saturates at 1 and the comparison carries no information
    "--lambda-list", "1e-6,1e-5,1e-4,3.16e-4,1e-3",
    "--p-a-w", repr(dbm_to_watts(20.0)), "--p-b-w", repr(dbm_to_watts(30.0)),
    "--rate-gap", "3.0", "--trials", "100000", "--seed", str(SEED)]


@pytest.fixture(scope="module")
def a2_table(accept_config):
    start = time.monotonic()
    text, rows = _run_cli_csv(["validate-sop", "--config", accept_config]
                              + A2_ARGV_TAIL)
    return text, rows, time.monotonic() - start


def test_a2_monte_carlo_oracle(a2_table):
    text, rows, elapsed = a2_table
    assert elapsed < 60.0
    assert len(rows) == 5
    for row in rows:
        gap = abs(float(row["sop_mc"]) - float(row["sop_exact"]))
        assert gap <= 3.0 * float(row["mc_stderr"]), \
            f"lambda_e={row['lambda_e']}: |mc - exact| = {gap}"


# -------------------------------------------------------------------- A3/A4

@pytest.fixture(scope="module")
def a3_results():
    scenarios = random_scenarios(20, seed=SEED)
    start = time.monotonic()
    results = [(sc, solve_step1(sc.p_b, sc.mu_b, sc.params)) for sc in scenarios]
    solve_time = time.monotonic() - start
    return results, solve_time


def test_a3_rate_root_quality(a3_results):
    results, solve_time = a3_results
    start = time.monotonic()
    for sc, r1 in results:
        assert r1.residual <= 1e-9
        u = u_of(sc.params, sc.p_b, sc.mu_b)
        lo = max(r1.yz_star * (1.0 + 1e-9), r1.y_star / 1e3)
        ys = np.logspace(math.log10(lo), math.log10(r1.y_star * 1e3), 1000)
        profile = np.array([omega_tilde_formula(y, r1.yz_star, u) for y in ys])
        assert sign_changes(profile) == 1
    assert solve_time + (time.monotonic() - start) < 10.0


def test_a4_on_off_threshold_consistency(a3_results):
    results, _ = a3_results
    for sc, r1 in results:
        mu_a2 = mu_a_from_sop_constraint(r1.r_c, r1.r_s, sc.p_b, sc.mu_b,
                                         sc.params)
        assert mu_a2 == pytest.approx(r1.mu_a, rel=1e-9)


# -------------------------------------------------------------------- A5

def test_a5_jamming_power_root_quality():
    start = time.monotonic()
    grid = GridSpec()
    for lam, eps, mu_b in INTERIOR_SETS:
        params = vi_defaults(lambda_e=lam, epsilon=eps,
                             p_b_max=dbm_to_watts(30.0))
        s2 = solve_step2(mu_b, params, grid)
        assert not s2.capped and not s2.degenerate, (lam, eps, mu_b)
        assert s2.residual <= 1e-7, (lam, eps, mu_b, s2.residual)
        scan = np.logspace(math.log10(grid.p_b_floor),
                           math.log10(params.p_b_max), 200)
        omegas = [solve_step1(float(pb), mu_b, params).omega_tilde for pb in scan]
        best = scan[int(np.argmax(omegas))]
        step = math.log(scan[1]) - math.log(scan[0])
        assert abs(math.log(s2.p_b_dagger) - math.log(best)) <= step, \
            (lam, eps, mu_b)
    # budget below the stationary point: the cap must bind
    capped = solve_step2(1e-9, vi_defaults(lambda_e=1e-4, epsilon=1e-3,
                                           p_b_max=dbm_to_watts(0.0)), grid)
    assert capped.capped and capped.p_b_dagger == dbm_to_watts(0.0)
    assert time.monotonic() - start < 60.0


# -------------------------------------------------------------------- A6

def test_a6_half_duplex_consistency():
    for sc in random_scenarios(10, seed=SEED + 1):
        hd = solve_hd(sc.mu_b, sc.params)
        r0 = solve_step1(0.0, sc.mu_b, sc.params)
        assert hd.hd.r_c == pytest.approx(r0.r_c, rel=1e-9)
        assert hd.hd.r_s == pytest.approx(r0.r_s, rel=1e-9)
        assert hd.hd.mu_a == pytest.approx(r0.mu_a, rel=1e-9)


# -------------------------------------------------------------------- A7

def test_a7_design_monotonicities():
    p_b, mu_b = dbm_to_watts(10.0), 1e-7
    r_c = [solve_step1(p_b, mu_b, vi_defaults(epsilon=eps)).r_c
           for eps in (0.01, 0.05, 0.1, 0.3)]
    assert all(a >= b - 1e-12 for a, b in zip(r_c, r_c[1:]))

    omega_vs_budget = [
        solve_step1(p_b, mu_b, vi_defaults(p_a_max=dbm_to_watts(pa))).omega_tilde
        for pa in (-10.0, 0.0, 10.0, 20.0)]
    assert all(b >= a - 1e-12 for a, b in zip(omega_vs_budget, omega_vs_budget[1:]))

    omega_vs_density = [
        solve_step1(p_b, mu_b, vi_defaults(lambda_e=lam)).omega_tilde
        for lam in (1e-6, 1e-5, 1e-4)]
    assert all(a >= b - 1e-12 for a, b in zip(omega_vs_density, omega_vs_density[1:]))


# -------------------------------------------------------------------- A8

def test_a8_switched_design_dominates_single_modes():
    strict = 0
    for eps in (0.05, 0.3):
        for pa_dbm in (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0):
            params = vi_defaults(lambda_e=1e-5, epsilon=eps,
                                 p_a_max=dbm_to_watts(pa_dbm),
                                 p_b_max=dbm_to_watts(10.0))
            sol = optimize(params)
            m = comparison_metrics(sol, params)
            assert sol.omega_s >= m.omega_fd_comp - 1e-12, (eps, pa_dbm)
            assert sol.omega_s >= m.omega_hd_comp - 1e-12, (eps, pa_dbm)
            if sol.omega_s > max(m.omega_fd_comp, m.omega_hd_comp) + 1e-9:
                strict += 1
    assert strict >= 1


# -------------------------------------------------------------------- A9/A10

A9_SLOTS = 100000
A9_R_CUT = 800.0


@pytest.fixture(scope="module")
def a9_setup():
    params = vi_defaults(d_ab=0.5)
    solution = optimize(params)
    start = time.monotonic()
    report = run_online(solution, params, A9_SLOTS, A9_R_CUT, SEED)
    return params, solution, report, time.monotonic() - start


def _annulus_exposure(params, x, p_a, r_inner):
    """Upper bound on the mean number of outage-capable eavesdroppers beyond
    r_inner (jamming ignored, so this over-counts)."""
    from scipy import integrate
    a = params.sigma_e2 * x / p_a
    half = params.alpha / 2.0
    val, _ = integrate.quad(lambda u: math.exp(-a * u ** half),
                            r_inner ** 2, np.inf, limit=200)
    return params.lambda_e * math.pi * val


def test_a9_end_to_end_constraints(a9_setup):
    params, solution, report, elapsed = a9_setup
    assert elapsed < 120.0
    # the truncation radius keeps stragglers far below the Monte Carlo noise
    x_min = min(2.0 ** (solution.fd.r_c - solution.fd.r_s) - 1.0,
                2.0 ** (solution.hd.r_c - solution.hd.r_s) - 1.0)
    assert _annulus_exposure(params, x_min, params.p_a_max, A9_R_CUT) < 1e-6

    assert report.connection_outages == 0
    assert report.empirical_sop <= params.epsilon + 3.0 * report.sop_stderr
    gap = abs(report.empirical_throughput - solution.omega_s)
    assert gap <= max(3.0 * report.throughput_stderr, 0.05 * solution.omega_s), \
        f"throughput gap {gap} vs omega_s {solution.omega_s}"


def test_a10_determinism(accept_config, a2_table, a9_setup):
    text, _, _ = a2_table
    text_again, _ = _run_cli_csv(["validate-sop", "--config", accept_config]
                                 + A2_ARGV_TAIL)
    assert text_again == text

    params, solution, report, _ = a9_setup
    report_again = run_online(solution, params, A9_SLOTS, A9_R_CUT, SEED)
    assert dataclasses.asdict(report_again) == dataclasses.asdict(report)
