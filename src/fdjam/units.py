"""dB/dBm conversions.

Everything inside the package works in linear units: watts for powers and
plain ratios for gains and thresholds.  Decibel values appear only at the
configuration and reporting boundaries, and these four helpers are the only
place the conversion happens.
"""

import math


def dbm_to_watts(x_dbm: float) -> float:
    """Convert a power from dBm to watts (0 dBm = 1 mW)."""
    if not math.isfinite(x_dbm):
        raise ValueError(f"dBm value must be finite, got {x_dbm}")
    return 10.0 ** (x_dbm / 10.0) * 1e-3


def watts_to_dbm(p_watts: float) -> float:
    """Convert a power from watts to dBm. Requires p_watts > 0."""
    if not p_watts > 0.0:
        raise ValueError(f"power must be > 0 W to express in dBm, got {p_watts}")
    return 10.0 * math.log10(p_watts * 1e3)


def db_to_linear(x_db: float) -> float:
    """Convert a dimensionless ratio from dB to linear (x -> 10^(x/10))."""
    if not math.isfinite(x_db):
        raise ValueError(f"dB value must be finite, got {x_db}")
    return 10.0 ** (x_db / 10.0)


def linear_to_db(v: float) -> float:
    """Convert a dimensionless linear ratio to dB. Requires v > 0."""
    if not v > 0.0:
        raise ValueError(f"ratio must be > 0 to express in dB, got {v}")
    return 10.0 * math.log10(v)
