import concurrent.futures
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fdjam.analytics import comparison_metrics, sop_approx, sop_exact
from fdjam.cli import main
from fdjam.config import load_config
from fdjam.optimizer import optimize, solve_step1, solve_step2
from fdjam.params import (GridSpec, InfeasibleError, SystemParams,
                          ValidationError, solution_from_dict,
                          solution_to_dict, watts_to_dbm)
from fdjam.sim import empirical_sop, run_online
import fdjam.cli

DEFAULT_INI = str(Path(__file__).resolve().parents[1] / "configs" / "default.ini")
SWEEP_INI = str(Path(__file__).resolve().parents[1] / "configs" / "sweep_p_a_max.ini")
# an --out path in a directory that does not exist
MISSING_DIR_OUT = str(Path(DEFAULT_INI).parent / "no_such_dir" / "x.json")
SIM = ["simulate", "--config", DEFAULT_INI, "--solution", "design.json"]


BASE_INI = """\
[system]
alpha = 4.0
d_ab_m = 10.0
lambda_e_per_m2 = 1e-5
epsilon = 0.05
sigma_b2_dbm = -90
sigma_e2_dbm = -90
rho_db = -70
p_a_max_dbm = 10
p_b_max_dbm = 10

[sim]
r_cut_m = 600
"""


@pytest.fixture
def base_config(tmp_path):
    path = tmp_path / "base.ini"
    path.write_text(BASE_INI)
    return str(path)


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        return _read_csv_text(fh.read())


def _read_csv_text(text):
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    return comments, list(csv.DictReader(io.StringIO(body)))


# ---------------------------------------------------------------- optimize

def test_optimize_emits_full_record(base_config, tmp_path):
    out = tmp_path / "sol.json"
    assert main(["optimize", "--config", base_config, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["artifact"]["name"] == "fdjam"
    assert data["config"]["p_a_max_dbm"] == pytest.approx(10.0)
    sol = data["solution"]
    assert sol["omega_s"] > 0.0
    assert {"r_c", "r_s", "mu_a", "p_b_w", "p_b_dbm"} <= set(sol["fd"])
    assert {"r_c", "r_s", "mu_a"} <= set(sol["hd"])
    assert sol["omega_s"] == pytest.approx(sol["omega_fd"] + sol["omega_hd"],
                                           rel=1e-12)
    assert data["diagnostics"]["step1_residual"] <= 1e-9


def test_optimize_diagnostics_match_direct_solves(base_config, tmp_path):
    # the design pass reports its own solver records; they must equal a
    # fresh solve at the chosen switch threshold
    out = tmp_path / "sol.json"
    assert main(["optimize", "--config", base_config, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    config = load_config(base_config)
    mu_b = data["solution"]["mu_b"]
    step2 = solve_step2(mu_b, config.system, config.grid)
    hd = solve_step1(0.0, 0.0, config.system)

    def jsonable(v):
        return None if isinstance(v, float) and not math.isfinite(v) else v

    assert data["diagnostics"] == {
        "step1_residual": step2.step1.residual,
        "step1_omega_forms_gap": step2.step1.omega_forms_gap,
        "step1_iterations": step2.step1.iterations,
        "step2_residual": jsonable(step2.residual),
        "step2_iterations": step2.iterations,
        "hd_residual": hd.residual,
        "mu_b_grid_points": config.grid.mu_b_steps + 1,
    }


def test_optimize_deterministic(base_config, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["optimize", "--config", base_config, "--out", str(out1)])
    main(["optimize", "--config", base_config, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_optimize_rejects_bad_epsilon(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(BASE_INI.replace("epsilon = 0.05", "epsilon = 0"))
    assert main(["optimize", "--config", str(cfg)]) == 1
    assert "epsilon" in capsys.readouterr().err


def test_optimize_perfect_suppression_notes_jamming_only(tmp_path):
    cfg = tmp_path / "rho0.ini"
    cfg.write_text(BASE_INI.replace("rho_db = -70", "rho = 0"))
    out = tmp_path / "sol.json"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["solution"]["omega_hd"] == 0.0
    assert any("rho = 0" in note for note in data["notes"])


def test_malformed_config_reports_parse_error(tmp_path, capsys):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("alpha = 4\n")  # key before any section header
    assert main(["optimize", "--config", str(cfg)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "extra.ini"
    cfg.write_text(BASE_INI + "\n[grid]\nbogus = 1\n")
    assert main(["optimize", "--config", str(cfg)]) == 1
    assert "bogus" in capsys.readouterr().err


def test_infeasible_maps_to_exit_code_2(base_config, monkeypatch):
    def boom(*args, **kwargs):
        raise InfeasibleError("forced for the exit-code contract")

    monkeypatch.setattr(fdjam.cli, "optimize", boom)
    assert main(["optimize", "--config", base_config]) == 2


def test_optimize_codeword_rate_beyond_double_range_exits_2(tmp_path, capsys):
    # a huge transmit budget over a near-silent receiver pushes the
    # half-duplex codeword rate past double range, with the outage root
    # inside its window; the one-line error names the half-duplex group
    cfg = tmp_path / "huge_rate.ini"
    cfg.write_text("""\
[system]
alpha = 4.0
d_ab_m = 1.0
lambda_e_per_m2 = 0.038
epsilon = 0.1
sigma_b2_w = 1e-206
sigma_e2_w = 1e-182
rho = 1e-7
p_a_max_w = 1e100
p_b_max_w = 1e-2
""")
    assert main(["optimize", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fdjam: infeasible: half-duplex group: codeword rate "
                          "beyond representable range: ln(1+y)=700.65")
    assert err.count("\n") == 1


def test_optimize_sparse_eavesdropper_link_exits_0(tmp_path, capsys):
    # so few eavesdroppers that the outage root yz* falls below 1e-13, where
    # recomputing it from the codeword rate cancels to zero; the step-2
    # derivative once took its logarithm and died with a traceback
    cfg = tmp_path / "sparse.ini"
    cfg.write_text("""\
[system]
alpha = 4.0
d_ab_m = 3.6843602018620816
lambda_e_per_m2 = 1.4315159012186063e-12
epsilon = 0.839073624282871
sigma_b2_dbm = -90
sigma_e2_dbm = -90
rho_db = -70
p_a_max_w = 0.002102164720944374
p_b_max_w = 0.13481566664537806
""")
    out = tmp_path / "sol.json"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    sol = json.loads(out.read_text())["solution"]
    assert sol["omega_s"] == pytest.approx(sol["omega_fd"] + sol["omega_hd"],
                                           rel=1e-12)


# ---------------------------------------------------------------- validate-sop

# the recorded 0.2 m link with jamming below the signal power, on which the
# earlier adaptive quadrature did not converge
SHORT_LINK = "0.2031818992364538"
SHORT_LINK_POWERS = ["--p-a-w", "0.5295026406593171", "--p-b-w", "0.4404555364279015",
                     "--rate-gap", "1.5813836603180378", "--trials", "0"]


def _assert_sop_exact_is_a_cdf_in_lambda(rows):
    sop = [float(r["sop_exact"]) for r in rows]
    assert all(0.0 <= v <= 1.0 for v in sop)
    assert all(a <= b for a, b in zip(sop, sop[1:]))


def test_validate_sop_recorded_short_link_evaluates(tmp_path, capsys):
    out = tmp_path / "short.csv"
    assert main(["validate-sop", "--config", DEFAULT_INI, "--d-ab", SHORT_LINK,
                 "--out", str(out)] + SHORT_LINK_POWERS) == 0
    assert capsys.readouterr().err == ""
    _, rows = _read_csv(str(out))
    assert len(rows) == 25
    _assert_sop_exact_is_a_cdf_in_lambda(rows)


def test_validate_sop_short_link_rows_beside_a_10m_link(tmp_path, capsys):
    # the 10 m rows must be written as if asked for alone
    both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
    assert main(["validate-sop", "--config", DEFAULT_INI, "--d-ab",
                 f"10,{SHORT_LINK}", "--out", str(both)] + SHORT_LINK_POWERS) == 0
    assert main(["validate-sop", "--config", DEFAULT_INI, "--d-ab", "10",
                 "--out", str(alone)] + SHORT_LINK_POWERS) == 0
    assert capsys.readouterr().err == ""
    _, rows = _read_csv(str(both))
    _, rows_alone = _read_csv(str(alone))
    assert [r for r in rows if r["d_ab_m"] == "10.0"] == rows_alone
    short = [r for r in rows if r["d_ab_m"] != "10.0"]
    assert len(short) == 25
    _assert_sop_exact_is_a_cdf_in_lambda(short)


def test_validate_sop_zero_density_row(base_config, tmp_path):
    out = tmp_path / "sop.csv"
    assert main(["validate-sop", "--config", base_config, "--d-ab", "10",
                 "--lambda-list", "0", "--trials", "50",
                 "--out", str(out)]) == 0
    comments, rows = _read_csv(str(out))
    assert any("sim_r_cut_m" in c for c in comments)
    assert len(rows) == 1
    assert float(rows[0]["sop_exact"]) == 0.0
    assert float(rows[0]["sop_approx"]) == 0.0
    assert float(rows[0]["sop_mc"]) == 0.0


def test_validate_sop_monte_carlo_brackets_quadrature(base_config, tmp_path):
    out = tmp_path / "sop.csv"
    assert main(["validate-sop", "--config", base_config, "--d-ab", "10",
                 "--lambda-list", "1e-4", "--trials", "3000", "--seed", "6",
                 "--out", str(out)]) == 0
    comments, rows = _read_csv(str(out))
    assert "# block_size = 256" in comments
    row = rows[0]
    assert abs(float(row["sop_mc"]) - float(row["sop_exact"])) \
        <= 3.0 * float(row["mc_stderr"])


def test_validate_sop_skips_mc_without_trials(base_config, tmp_path):
    out = tmp_path / "sop.csv"
    assert main(["validate-sop", "--config", base_config, "--d-ab", "0.2,10",
                 "--lambda-list", "1e-5,1e-4", "--out", str(out)]) == 0
    _, rows = _read_csv(str(out))
    assert len(rows) == 4
    assert all(row["sop_mc"] == "" for row in rows)


@pytest.mark.parametrize("trials", [0, 200])
def test_validate_sop_rows_equal_the_scalar_routes(trials, capsys):
    # the table forms J once per distance, yet every cell must equal the
    # row-by-row public routes on replace(system, d_ab=d, lambda_e=lam), and
    # row i's Monte Carlo must use seed + i
    d_abs, lambdas = [0.2, 10.0, 30.0], [0.0, 1e-6, 3e-5, 1e-3]
    assert main(["validate-sop", "--config", DEFAULT_INI, "--d-ab", "0.2,10,30",
                 "--lambda-list", "0,1e-6,3e-5,1e-3", "--trials", str(trials),
                 "--seed", "7"]) == 0
    _, rows = _read_csv_text(capsys.readouterr().out)
    config = load_config(DEFAULT_INI)
    p_a, p_b, r_c, r_s = 0.1, 1.0, 4.0, 1.0        # the flag defaults
    assert len(rows) == len(d_abs) * len(lambdas)
    for index, (row, (d_ab, lam)) in enumerate(
            zip(rows, itertools.product(d_abs, lambdas))):
        params = dataclasses.replace(config.system, d_ab=d_ab, lambda_e=lam)
        expected = [lam, d_ab, sop_exact(p_a, p_b, r_c, r_s, params),
                    sop_approx(p_a, p_b, r_c, r_s, params)]
        if trials:
            est = empirical_sop(p_a, p_b, r_c, r_s, params, trials,
                                config.r_cut, 7 + index)
            expected += [est.value, est.stderr]
        cells = [float(row[k]) for k in
                 ("lambda_e", "d_ab_m", "sop_exact", "sop_approx", "sop_mc",
                  "mc_stderr")[:len(expected)]]
        assert cells == expected, index
        if not trials:
            assert row["sop_mc"] == row["mc_stderr"] == ""


def test_validate_sop_forms_j_once_per_distance(monkeypatch, capsys):
    # J does not depend on the density: 3 distances x 25 densities ask for
    # it 3 times, not 75
    calls = []
    j = fdjam.analytics.exposure_integral

    def counted(*args):
        calls.append(args)
        return j(*args)

    monkeypatch.setattr(fdjam.analytics, "exposure_integral", counted)
    assert main(["validate-sop", "--config", DEFAULT_INI, "--d-ab", "0.2,10,30",
                 "--lambda-steps", "25", "--trials", "0"]) == 0
    _, rows = _read_csv_text(capsys.readouterr().out)
    assert len(rows) == 75
    assert len(calls) == 3


EXTREME_GAP = ["validate-sop", "--config", DEFAULT_INI, "--d-ab", "10",
               "--lambda-list", "1e-4"]


def test_validate_sop_threshold_past_jamming_weight_range(tmp_path, capsys):
    # x = 2^1023.9 - 1 is finite but q = p_b*x/p_a overflows: no eavesdropper
    # beats the threshold, by either route
    out = tmp_path / "sop.csv"
    assert main(EXTREME_GAP + ["--rate-gap", "1023.9", "--trials", "0",
                               "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = _read_csv(str(out))
    assert float(rows[0]["sop_exact"]) == 0.0
    assert float(rows[0]["sop_approx"]) == 0.0


@pytest.mark.parametrize("extra", [["--rate-gap", "1100"],
                                   ["--rate-gap", "1020", "--trials", "10"]],
                         ids=["threshold", "monte_carlo_field"])
def test_validate_sop_rate_gap_beyond_range_exits_1(extra, capsys):
    assert main(EXTREME_GAP + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdjam: validation error: rate gap r_c - r_s = ")
    assert err.count("\n") == 1


VSOP = ["validate-sop", "--config", DEFAULT_INI, "--d-ab", "10"]


@pytest.mark.parametrize("argv, named", [
    (VSOP + ["--lambda-min", "0"], "--lambda-min"),
    (VSOP + ["--lambda-max", "0"], "--lambda-max"),
    (VSOP + ["--lambda-steps", "0"], "--lambda-steps"),
    (VSOP + ["--lambda-steps", "-3"], "--lambda-steps"),
    (VSOP + ["--lambda-list", "nan"], "--lambda-list"),
    (VSOP + ["--lambda-list", "1e-4", "--trials", "-5"], "--trials"),
    (VSOP + ["--lambda-list", "1e-4", "--d-ab", "-1"], "--d-ab"),
    (VSOP + ["--lambda-list", "1e-4", "--d-ab", "nan"], "--d-ab"),
    (VSOP + ["--lambda-list", "1e-4", "--p-b-w", "nan"], "--p-b-w"),
    (VSOP + ["--lambda-list", "1e-4", "--trials", "10", "--seed", "-1"], "seed"),
    (["sweep", "--config", SWEEP_INI, "--jobs", "0"], "--jobs"),
    (["sweep", "--config", SWEEP_INI, "--jobs", "-1"], "--jobs"),
    (VSOP + ["--lambda-list", "1e-4", "--p-b-w", "-1"], "--p-b-w"),
    (VSOP + ["--lambda-list", "1e-4", "--p-a-w", "0"], "--p-a-w"),
    (VSOP + ["--lambda-list", "1e-4", "--p-a-w", "inf"], "--p-a-w"),
    (VSOP + ["--lambda-list", "1e-4", "--p-a-w", "nan"], "--p-a-w"),
    (VSOP + ["--lambda-list", "1e-4", "--rate-gap", "nan"], "--rate-gap"),
    (VSOP + ["--lambda-list", "1e-4", "--rate-gap", "0"], "--rate-gap"),
    (VSOP + ["--lambda-list", "1e-4", "--rate-gap", "-1"], "--rate-gap"),
    (VSOP + ["--lambda-list", "1e-4", "--rate-gap", "inf"], "--rate-gap"),
    (VSOP + ["--trials", "abc"], "--trials"),
    (["optimize"], "--config"),
    (["optimize", "--config", DEFAULT_INI, "--bogus"], "--bogus"),
    ([], "command"),
    (VSOP + ["--lambda-list", "1e-4", "--trials", "0", "--seed", "-1"], "--seed"),
    (VSOP + ["--lambda-list", "1e-4", "--rate-gap", "1e-17"], "--rate-gap"),
    (["validate-sop"], "--config"),
    (["sweep"], "--config"),
    (["simulate", "--solution", "design.json"], "--config"),
    (SIM + ["--slots", "0"], "--slots"),
    (SIM + ["--r-cut", "900"], "unrecognized arguments: --r-cut 900"),
    (SIM + ["--r-cut=900"], "unrecognized arguments: --r-cut=900"),
    (SIM + ["--seed", "-1"], "--seed"),
    (["sweep", "--config", SWEEP_INI, "--out", MISSING_DIR_OUT], "--out"),
    (VSOP + ["--lambda-min", "1e-2", "--lambda-max", "1e-6"], "--lambda-max"),
    (VSOP + ["--lambda-min", "1e-6", "--lambda-max", "1e-2", "--lambda-steps", "1"],
     "--lambda-steps"),
    (VSOP + ["--lambda-list", "1e-4", "--lambda-min", "1e-6"],
     "--lambda-min must be left out with --lambda-list"),
    (VSOP + ["--lambda-max", "1e-2", "--lambda-list", "1e-4"],
     "--lambda-max must be left out with --lambda-list"),
    (VSOP + ["--lambda-list", "1e-4", "--lambda-steps", "25"],
     "--lambda-steps must be left out with --lambda-list"),
    (VSOP + ["--lambda-list", "1e-4", "--d-ab", "10,ten"],
     "--d-ab: '10,ten' is not a comma-separated list of numbers"),
    (["simulate", "--config", DEFAULT_INI, "--solution", MISSING_DIR_OUT],
     f"cannot read solution {MISSING_DIR_OUT}"),
])
def test_bad_flag_exits_1_naming_it(argv, named, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdjam: validation error: ") and err.count("\n") == 1
    assert named in err


def test_validate_sop_infinite_jamming_is_accepted(capsys):
    assert main(VSOP + ["--lambda-list", "1e-4", "--p-b-w", "inf"]) == 0
    _, rows = _read_csv_text(capsys.readouterr().out)
    assert float(rows[0]["sop_exact"]) == 0.0 and float(rows[0]["sop_approx"]) == 0.0


def test_validate_sop_noise_below_exposure_range_exits_1(tmp_path, capsys):
    # sigma_e2*x/p_a ~ 7e-310: J's tail nodes would overflow in doubles, so
    # the row exits 1 instead of printing a wrong exact column
    cfg = tmp_path / "tiny_noise.ini"
    cfg.write_text(Path(DEFAULT_INI).read_text().replace(
        "sigma_e2_dbm = -90", "sigma_e2_w = 1e-300"))
    assert main(["validate-sop", "--config", str(cfg), "--d-ab", "10",
                 "--lambda-list", "1e-155", "--rate-gap", "1e-10",
                 "--p-b-w", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdjam: validation error: radial decay coefficient")
    assert err.count("\n") == 1


def _with_system(tmp_path, **keys):
    """default.ini with some of its ``key = value`` lines replaced."""
    text = Path(DEFAULT_INI).read_text()
    for key, value in keys.items():
        old = next(line for line in text.splitlines()
                   if line.startswith(key + " ="))
        text = text.replace(old, f"{key} = {value}")
    cfg = tmp_path / "system.ini"
    cfg.write_text(text)
    return str(cfg)


@pytest.mark.parametrize("d_ab", ["1e-200", "1e200"])
def test_validate_sop_link_beyond_exposure_range_exits_1(d_ab, capsys):
    # J came out NaN (an empty sop_exact cell, exit 0) or warned of overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(VSOP[:-1] + [d_ab, "--lambda-list", "1e-4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fdjam: validation error: d_ab = {float(d_ab)!r} m")
    assert err.count("\n") == 1


@pytest.mark.parametrize("overrides, named", [
    pytest.param({"d_ab_m": "1e-80"}, "power scale u", id="1e-80-power scale u"),
    pytest.param({"d_ab_m": "1e80"}, "path loss d_ab^alpha",
                 id="1e80-path loss d_ab^alpha"),
    # a finite d_ab^alpha = 1e280 over a 1e-60 W budget: u overflows
    pytest.param({"d_ab_m": "1e70", "p_a_max_dbm": "-570"},
                 "power scale u = d_ab^alpha*(sigma_b2 + p_b*mu_b)/p_a_max "
                 "overflows", id="1e70-power scale u overflows")])
def test_optimize_at_an_extreme_link_distance_exits_2(tmp_path, capsys,
                                                      overrides, named):
    cfg = _with_system(tmp_path, **overrides)
    assert main(["optimize", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fdjam: infeasible: ") and err.count("\n") == 1
    assert named in err


def test_sweep_rows_at_extreme_link_distances_carry_their_error(tmp_path):
    cfg = _sweep_config(tmp_path, """
[sweep]
variable = d_ab
min = 1e-80
max = 1e80
steps = 3
scale = log
""")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _read_csv(str(out))
    assert "power scale u" in rows[0]["error"]
    assert rows[1]["error"] == "" and float(rows[1]["omega_s"]) > 0.0
    assert "path loss d_ab^alpha" in rows[2]["error"]


@pytest.mark.parametrize("d_ab", ["1e-80", "1e80"])
def test_simulate_at_an_extreme_link_distance_exits_1(tmp_path, capsys, d_ab):
    design = tmp_path / "design.json"
    assert main(["optimize", "--config", DEFAULT_INI, "--out", str(design)]) == 0
    cfg = _with_system(tmp_path, d_ab_m=d_ab)
    assert main(["simulate", "--config", cfg, "--solution", str(design),
                 "--slots", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdjam: validation error: path gain d_ab^-alpha")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate-sop", "simulate"])
def test_kept_mean_at_alpha_50_runs(tmp_path, capsys, command):
    # at alpha = 50 the thinning scales reach c ~ 1e11-1e15, where scipy's
    # 1F1(k; k+1; -c) was NaN and both commands exited 1; the kept-count
    # mean, the whole plane's Gamma(1+k) * c^-k there, is defined at every c
    out = tmp_path / "out"
    if command == "validate-sop":
        argv = ["validate-sop", "--config", _with_system(tmp_path, alpha=50),
                "--d-ab", "10", "--lambda-list", "1e-4", "--trials", "50"]
    else:
        # half duplex only, on a 1 m link in a 2 m disk: c ~ 5e14 * gamma_ab
        cfg = _with_system(tmp_path, alpha=50, d_ab_m=1.0, r_cut_m=2)
        design = tmp_path / "design.json"
        design.write_text(json.dumps({
            "mu_b": 0.0, "fd": {"r_c": 4.0, "r_s": 1.0, "mu_a": 1e-8, "p_b_w": 0.01},
            "hd": {"r_c": 4.0, "r_s": 1.0, "mu_a": 1e-8},
            "omega_s": 0.0, "omega_fd": 0.0, "omega_hd": 0.0}))
        argv = ["simulate", "--config", cfg, "--solution", str(design),
                "--slots", "500"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    if command == "validate-sop":
        comments, rows = _read_csv(str(out))
        assert any("alpha = 50.0" in line for line in comments)
        assert [float(r["lambda_e"]) for r in rows] == [1e-4]
        assert 0.0 <= float(rows[0]["sop_mc"]) <= 1.0
        assert float(rows[0]["mc_stderr"]) >= 0.0
    else:
        data = json.loads(out.read_text())
        assert data["config"]["alpha"] == 50.0
        rep = data["report"]
        counts = rep["mode_counts"]
        assert counts["fd"] == 0 and counts["hd"] + counts["silent"] == 500
        assert rep["transmissions"] == counts["hd"] > 0
        assert 0 <= rep["secrecy_outages"] <= rep["transmissions"]


def test_simulate_idle_group_with_a_huge_rate_gap_runs(tmp_path, capsys):
    # every slot jams, so the half-duplex group's 999-bit rate gap, whose
    # thinning scale overflows, is never sent; it ended the run with exit 1
    # after a numpy overflow warning
    text = Path(DEFAULT_INI).read_text()
    for old, new in (("sigma_e2_dbm = -90", "sigma_e2_w = 1e-3"),
                     ("p_a_max_dbm = 10", "p_a_max_w = 10")):
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "loud.ini"
    cfg.write_text(text)
    reports = {}
    for hd_r_c in (1000.0, 3.0):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({
            "mu_b": 1.0,
            "fd": {"r_c": 2.0, "r_s": 1.0, "mu_a": 0.1, "p_b_w": 1.0},
            "hd": {"r_c": hd_r_c, "r_s": 1.0, "mu_a": 0.1},
            "omega_s": 0.0, "omega_fd": 0.0, "omega_hd": 0.0}))
        out = tmp_path / "report.json"
        assert main(["simulate", "--config", str(cfg), "--solution", str(design),
                     "--slots", "2000", "--seed", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        reports[hd_r_c] = json.loads(out.read_text())["report"]
    assert reports[1000.0] == reports[3.0]
    assert reports[3.0]["mode_counts"] == {"fd": 1832, "hd": 0, "silent": 168}


def test_simulate_rates_below_double_resolution_exit_1_naming_them(tmp_path,
                                                                   capsys):
    # the alpha = 50 design of default.ini has r_c ~ 1.4e-40 bits, so a slot's
    # power and x are both 0: the thinning scale is 0/0, not an overflow
    cfg = _with_system(tmp_path, alpha=50)
    design = tmp_path / "design.json"
    assert main(["optimize", "--config", cfg, "--out", str(design)]) == 0
    r_c = json.loads(design.read_text())["solution"]["hd"]["r_c"]
    assert 0.0 < r_c < 1e-30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg, "--solution", str(design),
                     "--slots", "1000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"fdjam: validation error: transmit power 0 W at rates r_c = {r_c!r}, r_s = ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("p_b, sop", [("1e300", 0.0), ("1e-300", 0.9999999999999964)])
def test_validate_sop_at_extreme_jamming_weights_does_not_warn(capsys, p_b, sop):
    # q*(u/d_bk2)^half overflowed to inf in J's jamming factor, whose value
    # 1/(1 + inf) = 0 was right but came with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["validate-sop", "--config", DEFAULT_INI, "--d-ab", "1",
                     "--lambda-list", "1e-4", "--p-a-w", "0.1",
                     "--p-b-w", p_b]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    _, rows = _read_csv_text(captured.out)
    assert float(rows[0]["sop_exact"]) == sop


# finite, valid scenarios on which optimize ended in a traceback: the step-2
# gain u*v^2*(1+y)/(w*(1+v)) overflowed math.exp, and sigma_e2/p_a_max
# underflowed to 0 under the step-1 residual's logarithm
EXTREME_DESIGNS = {
    "gain_overflow": ("""\
[system]
alpha = 2.843850291696735
d_ab_m = 458191968.4845962
lambda_e_per_m2 = 3.2828460986098293e-167
epsilon = 4.983968630348912e-160
sigma_b2_w = 9.396959523251615e-108
sigma_e2_w = 2.039461912238344e-291
rho = 8.593657553887055e-99
p_a_max_w = 2.083378863671586e-114
p_b_max_w = 1.818357854615973e-262
[grid]
mu_b_min = 1.3179861565160286e-130
mu_b_max = 2.970287522971772e+166
mu_b_steps = 45
p_b_floor_w = 2.2875338911843017e+61
"""),
    "residual_underflow": ("""\
[system]
alpha = 5.625723896680595
d_ab_m = 13789576.506597444
lambda_e_per_m2 = 2.4740631911262218e-54
epsilon = 1.4936689000003738e-37
sigma_b2_w = 1.2620746066141661e-148
sigma_e2_w = 6.247285903790332e-161
rho = 5.814834541583595e-68
p_a_max_w = 5.48308847538279e+163
p_b_max_w = 1.0365923224136974e+79
[grid]
mu_b_min = 1.3268102077067219e-56
mu_b_max = 1.235510293885845e+55
mu_b_steps = 13
p_b_floor_w = 1.5955575642589e+93
"""),
}


@pytest.mark.parametrize("name", EXTREME_DESIGNS)
def test_optimize_designs_extreme_finite_configs(tmp_path, capsys, name):
    cfg = tmp_path / "extreme.ini"
    cfg.write_text(EXTREME_DESIGNS[name])
    out = tmp_path / "design.json"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    data = json.loads(out.read_text())
    if name == "gain_overflow":
        # an overflowing gain is a derivative sign of +inf: the budget binds
        assert data["solution"]["capped_fd"] is True
    else:
        # a residual that cannot be formed is inf, written as null
        assert data["diagnostics"]["step1_residual"] is None


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert "fdjam" in capsys.readouterr().out


def _fresh_interpreter(args, **kwargs):
    """``python *args`` in a fresh interpreter that imports this fdjam,
    with a two-minute timeout."""
    src = str(Path(fdjam.cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


@pytest.mark.parametrize("argv, code, out, err", [
    (["--version"], 0, "fdjam 0.1.0\n", ""),
    (["optimize"], 1, "",
     "fdjam: validation error: the following arguments are required: --config\n")])
def test_module_run_exits_with_the_status_of_main(tmp_path, argv, code, out,
                                                  err):
    done = _fresh_interpreter(["-m", "fdjam.cli", *argv], cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


# ---------------------------------------------------------------- sweep

def _sweep_config(tmp_path, sweep_block):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(BASE_INI + sweep_block)
    return str(cfg)


def test_sweep_db_endpoint_past_double_range_exits_1(tmp_path):
    # 4000 dBm is past double range in watts: the config is refused before
    # any row runs, so numpy never warns of an overflow on stderr
    cfg = _sweep_config(tmp_path, """
[sweep]
variable = p_a_max
min = -10
max = 4000
steps = 3
scale = dB
""")
    out = tmp_path / "sweep.csv"
    done = _fresh_interpreter(["-m", "fdjam.cli", "sweep", "--config", cfg,
                               "--out", str(out)])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("fdjam: validation error: [sweep] max = 4000.0 "
                           "overflows in linear units\n")
    assert not out.exists()


def test_sweep_switch_threshold_shows_mode_crossover(tmp_path):
    cfg = _sweep_config(tmp_path, """
[sweep]
variable = mu_b
min = -90
max = -30
steps = 7
scale = dB
""")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _read_csv(str(out))
    assert [int(r["index"]) for r in rows] == list(range(7))
    assert all(r["error"] == "" for r in rows)
    gap = [float(r["omega_fd_comp"]) - float(r["omega_hd_comp"]) for r in rows]
    assert gap[0] > 0.0 and gap[-1] < 0.0  # jamming wins early, loses late


def test_sweep_suppression_shifts_mode_occupancy(tmp_path):
    cfg = _sweep_config(tmp_path, """
[sweep]
variable = rho
min = -90
max = -50
steps = 5
scale = dB
""")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _read_csv(str(out))
    p_fd = [float(r["p_fd"]) for r in rows]
    p_hd = [float(r["p_hd"]) for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(p_fd, p_fd[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(p_hd, p_hd[1:]))


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = _sweep_config(tmp_path, """
[sweep]
variable = p_a_max
min = -10
max = 10
steps = 3
scale = dB
""")
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--jobs", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the switched design never loses to either single-mode yardstick
    _, rows = _read_csv(str(out1))
    for r in rows:
        assert float(r["omega_s"]) >= float(r["omega_fd_comp"]) - 1e-12
        assert float(r["omega_s"]) >= float(r["omega_hd_comp"]) - 1e-12


@pytest.mark.parametrize("jobs, workers", [("3", 3), ("5000", 7)])
def test_sweep_starts_no_more_workers_than_points(jobs, workers, monkeypatch, capsys):
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    assert main(["sweep", "--config", SWEEP_INI]) == 0
    serial = capsys.readouterr().out
    # sweep imports the pool class when it needs one, from concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    assert main(["sweep", "--config", SWEEP_INI, "--jobs", jobs]) == 0
    assert started == [workers]
    assert capsys.readouterr().out == serial


def _assert_sweep_row(row, sol, params):
    """A sweep CSV row holds exactly the design ``sol`` at ``params``."""
    d = solution_to_dict(sol)
    expected = {"mu_b": d["mu_b"], "omega_s": d["omega_s"],
                "omega_fd": d["omega_fd"], "omega_hd": d["omega_hd"],
                "fd_r_c": d["fd"]["r_c"], "fd_r_s": d["fd"]["r_s"],
                "fd_mu_a": d["fd"]["mu_a"], "fd_p_b_w": d["fd"]["p_b_w"],
                "hd_r_c": d["hd"]["r_c"], "hd_r_s": d["hd"]["r_s"],
                "hd_mu_a": d["hd"]["mu_a"],
                **dataclasses.asdict(comparison_metrics(sol, params))}
    assert {k: float(row[k]) for k in expected} == expected
    assert row["degenerate_fd"] == str(d["degenerate_fd"])
    assert row["capped_fd"] == str(d["capped_fd"])
    assert row["error"] == ""


def test_sweep_requires_sweep_section(base_config, capsys):
    assert main(["sweep", "--config", base_config]) == 1
    assert "sweep" in capsys.readouterr().err


def test_sweep_records_per_point_failures_and_continues(tmp_path):
    # epsilon = 1.0 at the top of the range is invalid; the row must carry
    # the error while the remaining rows still solve
    cfg = _sweep_config(tmp_path, """
[sweep]
variable = epsilon
min = 0.2
max = 1.0
steps = 3
""")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_bytes().decode("utf-8")
    comments, rows = _read_csv_text(text)
    assert rows[0]["error"] == "" and float(rows[0]["omega_s"]) > 0.0
    assert "epsilon" in rows[2]["error"]
    assert rows[2]["omega_s"] == ""
    # the error holds a comma: the file must be byte for byte what
    # csv.DictWriter writes for the same cells
    assert "," in rows[2]["error"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    assert text == "\n".join(comments) + "\n" + buf.getvalue()


def test_sweep_rows_report_a_forced_switch_level_s_own_error(tmp_path):
    # a linear mu_b sweep from below 0: row 0 is rejected by name, and the
    # level 1e300, where the secrecy rate underflows, keeps that message
    cfg = _sweep_config(tmp_path, """
[sweep]
variable = mu_b
min = -1e-6
max = 1e300
steps = 2
""")
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _read_csv(str(out))
    assert rows[0]["error"] == "forced mu_b must be finite and >= 0: -1e-06"
    assert rows[1]["error"].startswith("secrecy rate underflows")


# ---------------------------------------------------------------- recompute

# the linear keys of an artifact's embedded config, by SystemParams and
# GridSpec field: the artifact alone must rebuild the settings it ran with
SYSTEM_KEYS = {"alpha": "alpha", "d_ab": "d_ab_m", "lambda_e": "lambda_e_per_m2",
               "epsilon": "epsilon", "sigma_b2": "sigma_b2_w",
               "sigma_e2": "sigma_e2_w", "rho": "rho", "p_a_max": "p_a_max_w",
               "p_b_max": "p_b_max_w"}
GRID_KEYS = {"mu_b_min": "grid_mu_b_min", "mu_b_max": "grid_mu_b_max",
             "mu_b_steps": "grid_mu_b_steps", "p_b_floor": "grid_p_b_floor_w"}


def _settings(embedded):
    """SystemParams and GridSpec from an artifact's embedded config."""
    assert set(SYSTEM_KEYS) == {f.name for f in dataclasses.fields(SystemParams)}
    assert set(GRID_KEYS) == {f.name for f in dataclasses.fields(GridSpec)}
    params = SystemParams(**{f: float(embedded[k]) for f, k in SYSTEM_KEYS.items()})
    grid = GridSpec(**{f: (int if f == "mu_b_steps" else float)(embedded[k])
                       for f, k in GRID_KEYS.items()})
    return params, grid


SWEEP_P_B = """
[sweep]
variable = p_b
min = -20
max = 10
steps = 4
scale = dB
"""


@pytest.mark.parametrize("name", ["sweep_p_a_max.ini", "sweep_mu_b.ini", "p_b"])
def test_sweep_rows_recompute_from_the_csv_header(name, tmp_path):
    if name == "p_b":   # a forced jamming power off the default epsilon and grid
        cfg = tmp_path / "sweep_p_b.ini"
        cfg.write_text(Path(DEFAULT_INI).read_text().replace(
            "epsilon = 0.1", "epsilon = 0.08").replace(
            "mu_b_steps = 60", "mu_b_steps = 9").replace(
            "p_b_floor_dbm = -10", "p_b_floor_dbm = -15") + SWEEP_P_B)
    else:
        cfg = Path(DEFAULT_INI).parent / name
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    comments, rows = _read_csv(str(out))
    header = dict(c[2:].split(" = ", 1) for c in comments[1:])
    params, grid = _settings(header)
    assert params.epsilon == (0.08 if name == "p_b" else 0.05)
    variable = header["sweep_variable"]
    assert len(rows) == int(header["sweep_steps"]) >= 3
    for row in rows:
        value = float(row["value"])
        assert row["variable"] == variable
        if variable in ("mu_b", "p_b"):
            point = params
            sol = optimize(point, grid, **{"forced_" + variable: value})
            if variable == "p_b":
                assert float(row["value_db"]) == watts_to_dbm(value)
        else:
            point = dataclasses.replace(params, **{variable: value})
            sol = optimize(point, grid)
        _assert_sweep_row(row, sol, point)


def test_simulate_report_recomputes_from_the_json_config(tmp_path):
    # a disk this small truncates the eavesdroppers that matter, so the
    # report shows which radius the run used
    cfg = tmp_path / "small_disk.ini"
    cfg.write_text(BASE_INI.replace("r_cut_m = 600", "r_cut_m = 30"))
    design, out = tmp_path / "design.json", tmp_path / "report.json"
    assert main(["optimize", "--config", str(cfg), "--out", str(design)]) == 0
    assert main(["simulate", "--config", str(cfg), "--solution", str(design),
                 "--slots", "3000", "--seed", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    params, _ = _settings(data["config"])
    solution, run = solution_from_dict(data["solution"]), data["simulation"]

    def report(r_cut):
        return dataclasses.asdict(run_online(solution, params, run["n_slots"],
                                             r_cut, run["seed"]))

    assert data["config"]["sim_r_cut_m"] == 30.0
    assert report(data["config"]["sim_r_cut_m"]) == data["report"]
    assert report(2000.0) != data["report"]


# ---------------------------------------------------------------- simulate

def test_simulate_round_trip(base_config, tmp_path):
    sol_path = tmp_path / "sol.json"
    main(["optimize", "--config", base_config, "--out", str(sol_path)])
    out = tmp_path / "report.json"
    assert main(["simulate", "--config", base_config, "--solution",
                 str(sol_path), "--slots", "2000", "--seed", "3",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    rep = data["report"]
    assert rep["n_slots"] == 2000
    counts = rep["mode_counts"]
    assert counts["fd"] + counts["hd"] + counts["silent"] == 2000
    assert rep["connection_outages"] == 0
    assert data["simulation"]["r_cut_m"] == pytest.approx(600.0)
    assert data["simulation"]["block_size"] == 256


# perfect suppression (rho = 0) where the design picks mu_b = 0, the pure
# half-duplex point
RHO0_INI = """\
[system]
alpha = 4.5
d_ab_m = 9
lambda_e_per_m2 = 4e-6
epsilon = 0.3
sigma_b2_dbm = -91
sigma_e2_dbm = -86
rho = 0
p_a_max_dbm = -5
p_b_max_dbm = 9
"""


def test_simulate_pure_half_duplex_design_never_jams(tmp_path):
    config = tmp_path / "rho0.ini"
    config.write_text(RHO0_INI)
    sol_path, out = tmp_path / "sol.json", tmp_path / "report.json"
    assert main(["optimize", "--config", str(config), "--out", str(sol_path)]) == 0
    solution = json.loads(sol_path.read_text())["solution"]
    assert solution["mu_b"] == 0.0 and solution["omega_fd"] == 0.0
    assert main(["simulate", "--config", str(config), "--solution",
                 str(sol_path), "--slots", "5000", "--seed", "3",
                 "--out", str(out)]) == 0
    counts = json.loads(out.read_text())["report"]["mode_counts"]
    assert counts["fd"] == 0 and counts["hd"] > 0


@pytest.mark.parametrize("extra", [["--seed", "-1"]])
def test_simulate_bad_run_flag_exits_1(base_config, tmp_path, capsys, extra):
    sol = tmp_path / "sol.json"
    assert main(["optimize", "--config", base_config, "--out", str(sol)]) == 0
    assert main(["simulate", "--config", base_config, "--solution", str(sol),
                 "--slots", "100"] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdjam: validation error: ") and err.count("\n") == 1
    assert extra[0] in err


def _fd_with(s, **entries):
    return {**s, "fd": {**s["fd"], **entries}}


@pytest.mark.parametrize("edit, named", [
    (lambda s: {k: v for k, v in s.items() if k != "hd"}, "hd.r_s is missing"),
    (lambda s: {**s, "mu_b": None}, "solution field mu_b is missing"),
    (lambda s: {k: v for k, v in s.items() if k != "mu_b"}, "solution field mu_b is missing"),
    (lambda s: _fd_with(s, r_s="4.0"), "fd.r_s"),
    (lambda s: [s], "solution must be an object"),
    (lambda s: _fd_with(s, p_b_w=0.0), "fd.p_b_w"),
    (lambda s: _fd_with(s, r_c=1100.0), "fd.r_c"),
    (lambda s: {**s, "hd": {**s["hd"], "r_c": s["hd"]["r_s"]}}, "hd.r_c"),
    (lambda s: {**s, "hd": {**s["hd"], "mu_a": math.nan}}, "hd.mu_a"),
    (lambda s: _fd_with(s, p_b_w=None, p_b_dbm=4000.0), "fd.p_b_w"),
    (lambda s: {**s, "fd": {k: v for k, v in s["fd"].items() if k != "p_b_w"}},
     "solution field fd.p_b_w is missing"),
    (lambda s: {**s, "omega_s": True}, "omega_s"),
    # a flag is a JSON boolean: a string, a number or null is not one
    (lambda s: {**s, "capped_fd": "false"},
     "solution field capped_fd must be true or false: 'false'"),
    (lambda s: {**s, "degenerate_fd": 0},
     "solution field degenerate_fd must be true or false: 0"),
    (lambda s: {**s, "capped_fd": None},
     "solution field capped_fd must be true or false: None"),
])
def test_simulate_malformed_solution_exits_1_naming_the_field(
        base_config, tmp_path, capsys, edit, named):
    sol = tmp_path / "sol.json"
    assert main(["optimize", "--config", base_config, "--out", str(sol)]) == 0
    sol.write_text(json.dumps(edit(json.loads(sol.read_text())["solution"])))
    assert main(["simulate", "--config", base_config, "--solution", str(sol),
                 "--slots", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdjam: validation error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("flags, written", [
    ({}, {"degenerate_fd": False, "capped_fd": False}),
    ({"degenerate_fd": False, "capped_fd": True},
     {"degenerate_fd": False, "capped_fd": True}),
])
def test_simulate_reads_solution_flags_as_written(base_config, tmp_path, flags,
                                                  written):
    # an absent flag reads as false; a present one is written back as read
    sol, out = tmp_path / "sol.json", tmp_path / "report.json"
    assert main(["optimize", "--config", base_config, "--out", str(sol)]) == 0
    solution = json.loads(sol.read_text())["solution"]
    del solution["degenerate_fd"], solution["capped_fd"]
    sol.write_text(json.dumps({**solution, **flags}))
    assert main(["simulate", "--config", base_config, "--solution", str(sol),
                 "--slots", "100", "--out", str(out)]) == 0
    echoed = json.loads(out.read_text())["solution"]
    assert {key: echoed[key] for key in written} == written


def test_simulate_beyond_the_thinning_range_exits_1(tmp_path, capsys):
    # r_cut^alpha overflows a double: one line naming the radius, as
    # validate-sop gives, not a traceback
    cfg = tmp_path / "huge_disk.ini"
    cfg.write_text(BASE_INI.replace("r_cut_m = 600", "r_cut_m = 1e100"))
    sol = tmp_path / "sol.json"
    assert main(["optimize", "--config", str(cfg), "--out", str(sol)]) == 0
    assert main(["simulate", "--config", str(cfg), "--solution", str(sol),
                 "--slots", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdjam: validation error: ") and err.count("\n") == 1
    assert "at r_cut = 1e+100 m is too large to simulate" in err


def test_validate_sop_beyond_the_poisson_limit_exits_1(capsys):
    # numpy refuses a Poisson mean above about 9.2e18: one line naming the
    # density and the disk, not a traceback
    assert main(VSOP + ["--lambda-list", "1e300", "--trials", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdjam: validation error: lambda_e = 1e+300 per m^2 "
                          "on a disk of radius 2000.0 m is too dense")
    assert err.count("\n") == 1


def test_validate_sop_beyond_the_drawn_point_bound_exits_1(capsys):
    # far below the Poisson limit, one jammed trial would still draw about
    # 1.6e13 kept points, hours of work: one line naming the density, the
    # disk and the trial count, not a run without end
    assert main(VSOP + ["--lambda-list", "1e9", "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdjam: validation error: lambda_e = 1000000000.0 "
                          "per m^2 on a disk of radius 2000.0 m is too dense "
                          "to simulate: n_trials = 1 would draw ")
    assert err.endswith(" kept points in expectation, more than 2^40\n")
    assert err.count("\n") == 1


def test_simulate_beyond_the_poisson_limit_exits_1(base_config, tmp_path,
                                                   capsys):
    cfg = tmp_path / "dense.ini"
    cfg.write_text(BASE_INI.replace("lambda_e_per_m2 = 1e-5",
                                    "lambda_e_per_m2 = 1e300"))
    sol = tmp_path / "sol.json"
    assert main(["optimize", "--config", base_config, "--out", str(sol)]) == 0
    assert main(["simulate", "--config", str(cfg), "--solution", str(sol),
                 "--slots", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdjam: validation error: lambda_e = 1e+300 per m^2 "
                          "on a disk of radius 600.0 m is too dense")
    assert err.count("\n") == 1


def test_simulate_beyond_the_drawn_point_bound_exits_1(tmp_path):
    # far below the Poisson limit, ten slots of the default design in a
    # field of 1e9 eavesdroppers per m^2 would draw about 1.4e13 kept points
    # and run for days: one line naming the density, the disk and the slot
    # count, and no report.  Run in a subprocess, so that a regression ends
    # in its timeout rather than hanging the suite
    cfg = tmp_path / "dense.ini"
    cfg.write_text(Path(DEFAULT_INI).read_text().replace(
        "lambda_e_per_m2 = 1e-4", "lambda_e_per_m2 = 1e9"))
    design, report = tmp_path / "design.json", tmp_path / "report.json"
    assert main(["optimize", "--config", DEFAULT_INI, "--out", str(design)]) == 0
    done = _fresh_interpreter(["-m", "fdjam.cli", "simulate", "--config",
                               str(cfg), "--solution", str(design), "--slots",
                               "10", "--out", str(report)])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith(
        "fdjam: validation error: lambda_e = 1000000000.0 per m^2 on a disk "
        "of radius 2000.0 m is too dense to simulate: n_slots = 10 would draw ")
    assert done.stderr.endswith(" kept points in expectation, more than 2^40\n")
    assert done.stderr.count("\n") == 1
    assert not report.exists()

def test_simulate_deterministic(base_config, tmp_path):
    sol_path = tmp_path / "sol.json"
    main(["optimize", "--config", base_config, "--out", str(sol_path)])
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        main(["simulate", "--config", base_config, "--solution", str(sol_path),
              "--slots", "1500", "--seed", "9", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------- shared front end

@pytest.mark.parametrize("argv", [
    ["optimize", "--config", DEFAULT_INI],
    VSOP + ["--lambda-list", "0,1e-4", "--trials", "20"],
    ["sweep", "--config", SWEEP_INI],
    ["simulate", "--config", DEFAULT_INI, "--solution", "DESIGN", "--slots", "300"],
], ids=["optimize", "validate-sop", "sweep", "simulate"])
def test_out_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    design = tmp_path / "design.json"
    assert main(["optimize", "--config", DEFAULT_INI, "--out", str(design)]) == 0
    argv = [str(design) if a == "DESIGN" else a for a in argv]
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "artifact"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == stdout.encode("utf-8")


def test_out_that_cannot_be_opened_fails_before_the_command(monkeypatch, capsys):
    def design(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(fdjam.cli, "optimize", design)
    assert main(["optimize", "--config", DEFAULT_INI, "--out", MISSING_DIR_OUT]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdjam: validation error: --out ") and err.count("\n") == 1


@pytest.mark.parametrize("error, code", [(ValidationError, 1), (InfeasibleError, 2)])
def test_failed_command_leaves_out_as_it_was(error, code, tmp_path, monkeypatch):
    def design(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(fdjam.cli, "optimize", design)
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("earlier artifact\n")
    for out in (kept, fresh):
        assert main(["optimize", "--config", DEFAULT_INI, "--out", str(out)]) == code
    assert kept.read_text() == "earlier artifact\n"
    assert not fresh.exists()


def test_reused_parser_leaves_no_state_behind(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; calls with optional flags, then
    # a usage error, then the same commands without those flags must give
    # what a freshly built parser gives
    design = tmp_path / "design.json"
    assert main(["optimize", "--config", DEFAULT_INI, "--out", str(design)]) == 0
    out = tmp_path / "artifact"
    sim = ["simulate", "--config", DEFAULT_INI, "--solution", str(design),
           "--slots", "300"]
    calls = [
        VSOP + ["--lambda-list", "0,1e-4", "--out", str(out)],
        sim + ["--seed", "5", "--out", str(out)],
        VSOP + ["--trials", "abc"],
        VSOP,
        sim,
    ]

    def results():
        found = []
        for argv in calls:
            out.unlink(missing_ok=True)
            code = main(argv)
            found.append((code, capsys.readouterr(),
                          out.read_bytes() if out.exists() else None))
        return found

    assert fdjam.cli._build_parser() is fdjam.cli._build_parser()
    reused = results()
    monkeypatch.setattr(fdjam.cli, "_build_parser",
                        fdjam.cli._build_parser.__wrapped__)
    fresh = results()
    assert [code for code, _, _ in reused] == [0, 0, 1, 0, 0]
    assert reused == fresh


def test_no_command_loads_scipy(tmp_path):
    # scipy is slow to import and no command needs it: step 1 runs its own
    # port of wrightomega and step 2 its own port of brentq, J's Legendre
    # nodes are literals, and the Monte Carlo kept-count mean sums Kummer's
    # series; scipy stays the tests' reference.  Only sweep --jobs > 1
    # needs concurrent.futures.process (and with it multiprocessing), which
    # no other fdjam module imports; the Monte Carlo engine runs on the
    # calling thread, also in a field dense enough to keep thousands of
    # points per batch, so concurrent.futures.thread stays out
    design = tmp_path / "design.json"
    assert main(["optimize", "--config", DEFAULT_INI, "--out", str(design)]) == 0
    process = ["concurrent.futures.process"]
    threads = process + ["concurrent.futures.thread"]
    script = f"""
import sys
import fdjam.cli
def scipy_free(step):
    loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    assert not loaded, "loaded by " + step + ": " + ", ".join(sorted(loaded))
scipy_free("import fdjam.cli")
for argv, unloaded in (
        (["optimize", "--config", {DEFAULT_INI!r}], {process!r}),
        (["sweep", "--config", {SWEEP_INI!r}, "--jobs", "1"], {process!r}),
        (["validate-sop", "--config", {DEFAULT_INI!r}, "--trials", "0"],
         {process!r}),
        (["validate-sop", "--config", {DEFAULT_INI!r}, "--d-ab", "10",
          "--trials", "64"], {process!r}),
        (["validate-sop", "--config", {DEFAULT_INI!r}, "--d-ab", "10",
          "--lambda-list", "1e-3", "--p-a-w", "0.1", "--p-b-w", "1.0",
          "--rate-gap", "3", "--trials", "1250"], {threads!r}),
        (["simulate", "--config", {DEFAULT_INI!r}, "--solution",
          {str(design)!r}, "--slots", "64"], {process!r})):
    assert fdjam.cli.main(argv + ["--out", {str(tmp_path / "out")!r}]) == 0
    assert not set(unloaded) & set(sys.modules), "loaded by " + argv[0]
    scipy_free(argv[0])
"""
    done = _fresh_interpreter(["-c", script])
    assert done.returncode == 0, done.stderr
