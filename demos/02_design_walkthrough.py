"""The off-line design, taken apart one stage at a time.

Stage 1: for a fixed jamming power, the outage constraint pins the rate
redundancy (2^(r_c - r_s) - 1), and a single scalar root pins the codeword
rate; the on-off threshold falls out of the power budget.  Stage 2: the
resulting throughput is single-peaked in the jamming power, so a sign
change of its derivative locates the optimum.  Stage 3: the half-duplex
group is stage 1 with no jamming power, and a search for the single
throughput peak over the mode-switch threshold balances the two modes.

Run:  python demos/02_design_walkthrough.py
"""

import numpy as np

from fdjam import (GridSpec, SystemParams, dbm_to_watts, optimize, solve_step1,
                   solve_step2, watts_to_dbm)

params = SystemParams(alpha=4.0, d_ab=10.0, lambda_e=1e-4,
                      sigma_b2=dbm_to_watts(-90.0), sigma_e2=dbm_to_watts(-90.0),
                      rho=1e-7, epsilon=1e-3,
                      p_a_max=dbm_to_watts(10.0), p_b_max=dbm_to_watts(30.0))
mu_b = 1e-9

print("== stage 1: rates for a fixed 0 dBm jamming power ==")
r1 = solve_step1(dbm_to_watts(0.0), mu_b, params)
print(f"  codeword rate  r_c   = {r1.r_c:8.3f} bits/s/Hz")
print(f"  secrecy rate   r_s   = {r1.r_s:8.3f} bits/s/Hz")
print(f"  on-off gate    mu_a  = {r1.mu_a:8.4f}")
print(f"  throughput core      = {r1.omega_tilde:8.4f} bits/s/Hz")
print(f"  optimality residual  = {r1.residual:.2e}")

print("\n== stage 2: the jamming power is a one-peak problem ==")
for p_dbm in (-10, -5, 0, 3, 6, 10, 20, 30):
    om = solve_step1(dbm_to_watts(p_dbm), mu_b, params).omega_tilde
    print(f"  p_b = {p_dbm:+4d} dBm   throughput core = {om:7.4f}")
s2 = solve_step2(mu_b, params)
print(f"  -> stationary point p_b = {watts_to_dbm(s2.p_b_dagger):+.2f} dBm "
      f"(capped={s2.capped}, floor={s2.degenerate})")

print("\n== stage 3: split the slots between the two modes ==")
hd = solve_step1(0.0, mu_b, params)     # the silent receiver: no jamming
print(f"  half-duplex core throughput = {hd.omega_tilde:.4f} bits/s/Hz")
grid = GridSpec()
solution = optimize(params, grid)
print(f"  best switch threshold mu_b  = {solution.mu_b:.3e}")
print(f"  jamming-mode share          = {solution.omega_fd:.4f}")
print(f"  half-duplex share           = {solution.omega_hd:.4f}")
print(f"  total secrecy throughput    = {solution.omega_s:.4f} bits/s/Hz")
print(f"  jamming power               = {watts_to_dbm(solution.fd.p_b):+.2f} dBm"
      f"  (floor={solution.degenerate_fd}, capped={solution.capped_fd})")
print("\nNote how the outer search rebalances stage 2: raising mu_b buys")
print("jamming-mode occupancy but admits worse self-interference into its")
print("power budget, so the preferred jamming power shifts with mu_b.")
