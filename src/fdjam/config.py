"""INI configuration for scenarios, search grids, and sweeps.

Schema ([system] is required, the other sections are optional):

    [system]                 ; all nine fields required, one spelling each
    alpha            = 4.0
    d_ab_m           = 10.0
    lambda_e_per_m2  = 1e-4
    epsilon          = 0.1
    sigma_b2_dbm     = -90     ; or sigma_b2_w in watts
    sigma_e2_dbm     = -90     ; or sigma_e2_w
    rho_db           = -70     ; or rho (linear, may be 0)
    p_a_max_dbm      = 10      ; or p_a_max_w
    p_b_max_dbm      = 10      ; or p_b_max_w

    [grid]                   ; optional, defaults in fdjam.optimizer.GridSpec
    mu_b_min_db      = -100    ; or mu_b_min (linear)
    mu_b_max_db      = -50     ; or mu_b_max
    mu_b_steps       = 60
    p_b_floor_dbm    = -10     ; or p_b_floor_w
    p_b_steps        = 60

    [sim]                    ; optional
    r_cut_m          = 2000

    [sweep]                  ; only read by the sweep command
    variable         = p_a_max ; a [system] field, or mu_b / p_b (forced)
    min              = -10
    max              = 20
    steps            = 7
    scale            = dB      ; linear | log | dB
    fix_epsilon      = 0.05    ; optional overrides, any [system] key spelling

Powers are dBm, dimensionless ratios (rho, mu_b) plain dB, distances meters.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional

import numpy as np

from .errors import ValidationError
from .optimizer import GridSpec
from .params import SystemParams, validate
from .units import dbm_to_watts, db_to_linear, linear_to_db, watts_to_dbm

__all__ = ["SweepSpec", "Config", "load_config", "sweep_values", "resolved_dict"]

# Fields expressed in dBm when a dB scale is requested.
_POWER_FIELDS = {"sigma_b2", "sigma_e2", "p_a_max", "p_b_max", "p_b"}
# Dimensionless fields expressed in plain dB.
_RATIO_FIELDS = {"rho", "mu_b"}
_SWEEPABLE = {f.name for f in fields(SystemParams)} | {"mu_b", "p_b"}

# Accepted [system]-style spellings (also usable as fix_<key> sweep overrides).
_identity = float
_SYSTEM_KEY_MAP = {
    "alpha": ("alpha", _identity),
    "d_ab_m": ("d_ab", _identity),
    "lambda_e_per_m2": ("lambda_e", _identity),
    "epsilon": ("epsilon", _identity),
    "sigma_b2_dbm": ("sigma_b2", dbm_to_watts),
    "sigma_b2_w": ("sigma_b2", _identity),
    "sigma_e2_dbm": ("sigma_e2", dbm_to_watts),
    "sigma_e2_w": ("sigma_e2", _identity),
    "rho_db": ("rho", db_to_linear),
    "rho": ("rho", _identity),
    "p_a_max_dbm": ("p_a_max", dbm_to_watts),
    "p_a_max_w": ("p_a_max", _identity),
    "p_b_max_dbm": ("p_b_max", dbm_to_watts),
    "p_b_max_w": ("p_b_max", _identity),
}


@dataclass(frozen=True)
class SweepSpec:
    """One-variable sweep: grid definition plus fixed scenario overrides."""

    variable: str
    vmin: float
    vmax: float
    steps: int
    scale: str = "linear"                     # linear | log | dB
    fixed: Optional[Dict[str, float]] = None  # overrides on SystemParams fields

    def check(self) -> "SweepSpec":
        if self.variable not in _SWEEPABLE:
            raise ValidationError(
                f"sweep variable {self.variable!r} not one of {sorted(_SWEEPABLE)}")
        if not self.vmin < self.vmax:
            raise ValidationError(
                f"sweep requires min < max, got [{self.vmin}, {self.vmax}]")
        if self.steps < 2:
            raise ValidationError(f"sweep steps must be >= 2: {self.steps}")
        if self.scale not in ("linear", "log", "dB"):
            raise ValidationError(f"sweep scale {self.scale!r} not in linear/log/dB")
        if self.scale == "dB" and self.variable not in _POWER_FIELDS | _RATIO_FIELDS:
            raise ValidationError(
                f"sweep variable {self.variable!r} has no dB representation")
        if self.scale == "log" and self.vmin <= 0.0:
            raise ValidationError(f"log sweep requires min > 0: {self.vmin}")
        return self


def sweep_values(spec: SweepSpec) -> np.ndarray:
    """Linear-unit grid of the swept variable (watts for power fields)."""
    if spec.scale == "log":
        raw = np.logspace(math.log10(spec.vmin), math.log10(spec.vmax), spec.steps)
    else:
        raw = np.linspace(spec.vmin, spec.vmax, spec.steps)
    if spec.scale != "dB":
        return raw
    conv = dbm_to_watts if spec.variable in _POWER_FIELDS else db_to_linear
    return np.array([conv(v) for v in raw])


def _value_db(variable: str, value: float) -> Optional[float]:
    """A swept value in dBm (power fields) or dB (ratio fields); None when
    the variable has no dB form or the value is not positive."""
    if value <= 0.0:
        return None
    if variable in _POWER_FIELDS:
        return watts_to_dbm(value)
    if variable in _RATIO_FIELDS:
        return linear_to_db(value)
    return None


@dataclass(frozen=True)
class Config:
    """A fully resolved configuration file."""

    system: SystemParams
    grid: GridSpec
    r_cut: float
    sweep: Optional[SweepSpec]


def _read(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser errors carry file/line context in their message
        raise ValidationError(f"config parse error: {exc}") from exc
    return cp


def _section(cp: configparser.ConfigParser, name: str) -> Dict[str, str]:
    return dict(cp[name]) if cp.has_section(name) else {}


def _pop_float(sec: Dict[str, str], section: str, key: str,
               default: Optional[float] = None) -> Optional[float]:
    if key not in sec:
        return default
    raw = sec.pop(key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ValidationError(f"[{section}] {key} = {raw!r} is not a number") from exc


def _pop_unit(sec: Dict[str, str], section: str, base: str,
              db_key: str, db_conv, linear_key: str,
              default: Optional[float] = None) -> Optional[float]:
    """Read a value given either in dB(m) or linear form, rejecting both."""
    if db_key in sec and linear_key in sec:
        raise ValidationError(
            f"[{section}] give {base} as {db_key} or {linear_key}, not both")
    if db_key in sec:
        return db_conv(_pop_float(sec, section, db_key))
    if linear_key in sec:
        return _pop_float(sec, section, linear_key)
    return default


def _require(value: Optional[float], section: str, what: str) -> float:
    if value is None:
        raise ValidationError(f"[{section}] missing required key for {what}")
    return value


def load_config(path: str) -> Config:
    """Parse and validate a configuration file."""
    cp = _read(path)
    if not cp.has_section("system"):
        raise ValidationError("config missing required [system] section")

    sec = _section(cp, "system")
    spellings: Dict[str, List[str]] = {}
    for key, (name, _) in _SYSTEM_KEY_MAP.items():
        spellings.setdefault(name, []).append(key)
    values: Dict[str, float] = {}
    for name, keys in spellings.items():
        given = [k for k in keys if k in sec]
        if len(given) > 1:
            raise ValidationError(
                f"[system] give {name} as {keys[0]} or {keys[1]}, not both")
        if not given:
            raise ValidationError(f"[system] missing required key for {'/'.join(keys)}")
        key = given[0]
        values[name] = _SYSTEM_KEY_MAP[key][1](_pop_float(sec, "system", key))
    system = SystemParams(**values)
    if sec:
        raise ValidationError(f"[system] unknown keys: {sorted(sec)}")
    validate(system)

    gsec = _section(cp, "grid")
    defaults = GridSpec()
    grid = GridSpec(
        mu_b_min=_pop_unit(gsec, "grid", "mu_b_min", "mu_b_min_db",
                           db_to_linear, "mu_b_min", defaults.mu_b_min),
        mu_b_max=_pop_unit(gsec, "grid", "mu_b_max", "mu_b_max_db",
                           db_to_linear, "mu_b_max", defaults.mu_b_max),
        mu_b_steps=int(_pop_float(gsec, "grid", "mu_b_steps", defaults.mu_b_steps)),
        p_b_floor=_pop_unit(gsec, "grid", "p_b_floor", "p_b_floor_dbm",
                            dbm_to_watts, "p_b_floor_w", defaults.p_b_floor),
        p_b_steps=int(_pop_float(gsec, "grid", "p_b_steps", defaults.p_b_steps)),
    )
    if gsec:
        raise ValidationError(f"[grid] unknown keys: {sorted(gsec)}")

    ssec = _section(cp, "sim")
    r_cut = _pop_float(ssec, "sim", "r_cut_m", 2000.0)
    if ssec:
        raise ValidationError(f"[sim] unknown keys: {sorted(ssec)}")
    if r_cut <= 0.0:
        raise ValidationError(f"[sim] r_cut_m must be > 0: {r_cut}")

    sweep = None
    if cp.has_section("sweep"):
        wsec = _section(cp, "sweep")
        variable = wsec.pop("variable", None)
        if variable is None:
            raise ValidationError("[sweep] missing required key variable")
        fixed: Dict[str, float] = {}
        for key in [k for k in wsec if k.startswith("fix_")]:
            spelling = key[len("fix_"):]
            if spelling not in _SYSTEM_KEY_MAP:
                raise ValidationError(
                    f"[sweep] {key}: unknown system key {spelling!r} "
                    f"(expected one of {sorted(_SYSTEM_KEY_MAP)})")
            field, conv = _SYSTEM_KEY_MAP[spelling]
            fixed[field] = conv(_pop_float(wsec, "sweep", key))
        sweep = SweepSpec(
            variable=variable,
            vmin=_require(_pop_float(wsec, "sweep", "min"), "sweep", "min"),
            vmax=_require(_pop_float(wsec, "sweep", "max"), "sweep", "max"),
            steps=int(_require(_pop_float(wsec, "sweep", "steps"), "sweep", "steps")),
            scale=wsec.pop("scale", "linear"),
            fixed=fixed,
        ).check()
        if wsec:
            raise ValidationError(f"[sweep] unknown keys: {sorted(wsec)}")
        if sweep.fixed:
            validate(replace(system, **sweep.fixed))

    return Config(system=system, grid=grid, r_cut=r_cut, sweep=sweep)


def resolved_dict(config: Config) -> Dict[str, object]:
    """Flat key/value view of a config (both unit systems) for report headers."""
    s = config.system
    return {
        "alpha": s.alpha,
        "d_ab_m": s.d_ab,
        "lambda_e_per_m2": s.lambda_e,
        "epsilon": s.epsilon,
        "sigma_b2_w": s.sigma_b2,
        "sigma_b2_dbm": watts_to_dbm(s.sigma_b2),
        "sigma_e2_w": s.sigma_e2,
        "sigma_e2_dbm": watts_to_dbm(s.sigma_e2),
        "rho": s.rho,
        "rho_db": linear_to_db(s.rho) if s.rho > 0 else None,
        "p_a_max_w": s.p_a_max,
        "p_a_max_dbm": watts_to_dbm(s.p_a_max),
        "p_b_max_w": s.p_b_max,
        "p_b_max_dbm": watts_to_dbm(s.p_b_max) if s.p_b_max > 0 else None,
        "grid_mu_b_min": config.grid.mu_b_min,
        "grid_mu_b_max": config.grid.mu_b_max,
        "grid_mu_b_steps": config.grid.mu_b_steps,
        "grid_p_b_floor_w": config.grid.p_b_floor,
        "grid_p_b_steps": config.grid.p_b_steps,
        "sim_r_cut_m": config.r_cut,
    }
