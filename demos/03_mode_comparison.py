"""When does receiver jamming stop paying for itself?

Force the mode-switch threshold across six decades and compare the two
parameter groups on the same event (residual self-interference below the
threshold).  Low thresholds: the jamming group supports a higher secrecy
rate because jamming shrinks the rate redundancy the outage constraint
demands.  High thresholds: the worst-case self-interference admitted into
the jamming mode inflates the power budget needed at the on-off gate, and
the half-duplex group wins.  The switched design never does worse than
either yardstick.

Run:  python demos/03_mode_comparison.py
"""

import numpy as np

from fdjam import SystemParams, comparison_metrics, dbm_to_watts, optimize

params = SystemParams(alpha=4.0, d_ab=10.0, lambda_e=1e-5,
                      sigma_b2=dbm_to_watts(-90.0), sigma_e2=dbm_to_watts(-90.0),
                      rho=1e-7, epsilon=0.05,
                      p_a_max=dbm_to_watts(10.0), p_b_max=dbm_to_watts(10.0))

print(f"{'mu_b':>9} {'jam-mode':>9} {'hd-mode':>9} {'leader':>8}")
for mu_b in np.logspace(-9, -3, 13):
    forced = optimize(params, forced_mu_b=float(mu_b))
    m = comparison_metrics(forced, params)
    leader = "jamming" if m.omega_fd_comp > m.omega_hd_comp else "hd"
    print(f"{mu_b:9.1e} {m.omega_fd_comp:9.4f} {m.omega_hd_comp:9.4f} {leader:>8}")

best = optimize(params)
m = comparison_metrics(best, params)
print(f"\nswitched design: mu_b = {best.mu_b:.2e}, "
      f"omega_s = {best.omega_s:.4f} bits/s/Hz")
print(f"  vs jamming-only yardstick {m.omega_fd_comp:.4f} "
      f"and half-duplex yardstick {m.omega_hd_comp:.4f}")
