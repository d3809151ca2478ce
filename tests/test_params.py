import dataclasses
import math

import numpy as np
import pytest

from fdjam import (ValidationError, dbm_to_watts, FdParams, HdParams,
                   SwitchedSolution, solve_step1, validate)
from fdjam.analytics import exposure_budget, field_beta
from fdjam.params import solution_from_dict, solution_to_dict

from oracles import beta_of, tau_of, vi_defaults


def test_defaults_accepted():
    p = vi_defaults()
    assert validate(p) is p


@pytest.mark.parametrize("field,value,fragment", [
    ("epsilon", 0.0, "epsilon"),
    ("epsilon", 1.0, "epsilon"),
    ("alpha", 1.5, "alpha"),
    ("d_ab", 0.0, "d_ab"),
    ("lambda_e", 0.0, "lambda_e"),
    ("sigma_b2", 0.0, "sigma_b2"),
    ("sigma_e2", -1e-12, "sigma_e2"),
    ("rho", 1.5, "rho"),
    ("rho", -0.1, "rho"),
    ("p_a_max", 0.0, "p_a_max"),
    ("p_b_max", -1e-3, "p_b_max"),
    ("d_ab", math.nan, "d_ab"),
    ("alpha", math.inf, "alpha must be finite"),
])
def test_validate_names_offending_field(field, value, fragment):
    p = dataclasses.replace(vi_defaults(), **{field: value})
    with pytest.raises(ValidationError, match=fragment):
        validate(p)


def test_field_beta_and_exposure_budget_match_oracles():
    p = vi_defaults()
    # beta for alpha = 4 is (pi/2) * Gamma(1/2)
    assert field_beta(4.0) == pytest.approx(0.5 * math.pi * math.sqrt(math.pi), rel=1e-14)
    for alpha in (2.0, 2.5, 4.0, 6.0):
        assert field_beta(alpha) == pytest.approx(beta_of(alpha), rel=1e-15)
    assert math.log(exposure_budget(p)) == pytest.approx(math.log(tau_of(p)), rel=1e-14)
    assert exposure_budget(p) == pytest.approx(-math.log(0.9) / (field_beta(4.0) * 1e-4),
                                               rel=1e-12)
    r1 = solve_step1(dbm_to_watts(10.0), 1e-7, p)
    assert r1.u > 0 and r1.varpi > 0


def test_u_slope_matches_varpi_by_finite_difference():
    p = vi_defaults()
    mu_b = 3e-8
    p_b = 5e-3
    h = 1e-9
    slope = (solve_step1(p_b + h, mu_b, p).u - solve_step1(p_b - h, mu_b, p).u) / (2 * h)
    assert slope == pytest.approx(solve_step1(p_b, mu_b, p).varpi, rel=1e-6)


def test_tau_monotone_in_density_and_outage_bound():
    taus_lambda = [exposure_budget(dataclasses.replace(vi_defaults(), lambda_e=lam))
                   for lam in np.logspace(-6, -2, 9)]
    assert all(a > b for a, b in zip(taus_lambda, taus_lambda[1:]))
    taus_eps = [exposure_budget(dataclasses.replace(vi_defaults(), epsilon=eps))
                for eps in (0.01, 0.05, 0.1, 0.3, 0.9)]
    assert all(a < b for a, b in zip(taus_eps, taus_eps[1:]))


def test_solution_dict_round_trip():
    sol = SwitchedSolution(
        mu_b=3e-8,
        fd=FdParams(r_c=9.0, r_s=4.0, mu_a=0.2, p_b=2e-3),
        hd=HdParams(r_c=12.0, r_s=3.5, mu_a=0.25),
        omega_s=3.0, omega_fd=1.0, omega_hd=2.0,
        degenerate_fd=False, capped_fd=True,
    )
    assert solution_from_dict(solution_to_dict(sol)) == sol
