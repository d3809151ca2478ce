"""INI configuration for scenarios, search grids, and sweeps.

Schema ([system] is required, the other sections are optional, and no
other section is accepted):

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

    [grid]                   ; optional, defaults in fdjam.params.GridSpec
    mu_b_min_db      = -100    ; or mu_b_min (linear)
    mu_b_max_db      = -50     ; or mu_b_max
    mu_b_steps       = 60
    p_b_floor_dbm    = -10     ; or p_b_floor_w

    [sim]                    ; optional
    r_cut_m          = 2000

    [sweep]                  ; only read by the sweep command
    variable         = p_a_max ; a [system] field, or mu_b / p_b (forced)
    min              = -10
    max              = 20
    steps            = 7
    scale            = dB      ; linear | log | dB

Powers are dBm, dimensionless ratios (rho, mu_b) plain dB, distances meters.
Every value must be a finite number, in linear units too, and the counts
(mu_b_steps, steps) whole.  One table, ``_FIELDS``, gives each field's
section, key stem and unit: the reader, the sweep's dB scale and the report
header all follow it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .params import (GridSpec, SystemParams, ValidationError, db_to_linear,
                     dbm_to_watts, linear_to_db, validate, watts_to_dbm)

__all__ = ["SweepSpec", "Config", "load_config", "sweep_values", "resolved_dict"]

# Every numeric field: name -> (section, key stem, unit), in report-header
# order.  The unit fixes the spellings (see _spellings) and the conversion to
# linear units.  Section None: only ever swept (forced), never read.
_FIELDS: Dict[str, Tuple[Optional[str], str, str]] = {
    "alpha": ("system", "alpha", "plain"),
    "d_ab": ("system", "d_ab_m", "plain"),
    "lambda_e": ("system", "lambda_e_per_m2", "plain"),
    "epsilon": ("system", "epsilon", "plain"),
    "sigma_b2": ("system", "sigma_b2", "power"),
    "sigma_e2": ("system", "sigma_e2", "power"),
    "rho": ("system", "rho", "ratio"),
    "p_a_max": ("system", "p_a_max", "power"),
    "p_b_max": ("system", "p_b_max", "power"),
    "mu_b_min": ("grid", "mu_b_min", "ratio"),
    "mu_b_max": ("grid", "mu_b_max", "ratio"),
    "mu_b_steps": ("grid", "mu_b_steps", "count"),
    "p_b_floor": ("grid", "p_b_floor", "power"),
    "r_cut": ("sim", "r_cut_m", "plain"),
    "vmin": ("sweep", "min", "plain"),
    "vmax": ("sweep", "max", "plain"),
    "steps": ("sweep", "steps", "count"),
    "mu_b": (None, "mu_b", "ratio"),
    "p_b": (None, "p_b", "power"),
}
# The sections a config may hold, in table order; any other is an error.
_SECTIONS = tuple(dict.fromkeys(s for s, _, _ in _FIELDS.values() if s))

# Units with a dB form: key suffixes (dB, linear) and conversions.  Powers
# are dBm or watts, ratios plain dB or linear; other units have one spelling.
_SUFFIXES = {"power": ("_dbm", "_w"), "ratio": ("_db", "")}
_FROM_DB = {"power": dbm_to_watts, "ratio": db_to_linear}
_TO_DB = {"power": watts_to_dbm, "ratio": linear_to_db}


def _spellings(stem: str, unit: str) -> Tuple[str, ...]:
    """Accepted keys of one field, the documented (dB) spelling first."""
    return tuple(stem + s for s in _SUFFIXES.get(unit, ("",)))


@dataclass(frozen=True)
class SweepSpec:
    """One-variable sweep grid; every other setting is the config's own."""

    variable: str
    vmin: float
    vmax: float
    steps: int
    scale: str = "linear"    # linear | log | dB

    def check(self) -> "SweepSpec":
        if _FIELDS.get(self.variable, ("",))[0] not in ("system", None):
            raise ValidationError(f"sweep variable {self.variable!r} is not a "
                                  f"[system] field, mu_b or p_b")
        if not self.vmin < self.vmax:
            raise ValidationError(
                f"sweep requires min < max, got [{self.vmin}, {self.vmax}]")
        if self.steps < 2:
            raise ValidationError(f"sweep steps must be >= 2: {self.steps}")
        if self.scale not in ("linear", "log", "dB"):
            raise ValidationError(f"sweep scale {self.scale!r} not in linear/log/dB")
        if self.scale == "dB":
            unit = _FIELDS[self.variable][2]
            if unit not in _TO_DB:
                raise ValidationError(
                    f"sweep variable {self.variable!r} has no dB representation")
            for key, value in (("min", self.vmin), ("max", self.vmax)):
                try:
                    _FROM_DB[unit](value)
                except OverflowError as exc:
                    raise ValidationError(
                        f"[sweep] {key} = {value} overflows in linear units") from exc
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
    conv = _FROM_DB[_FIELDS[spec.variable][2]]
    return np.array([conv(v) for v in raw])


def _value_db(variable: str, value: float) -> Optional[float]:
    """A swept value in dBm (power fields) or dB (ratio fields); None when
    the variable has no dB form or the value is not positive."""
    to_db = _TO_DB.get(_FIELDS[variable][2])
    return to_db(value) if to_db and value > 0.0 else None


@dataclass(frozen=True)
class Config:
    """A fully resolved configuration file."""

    system: SystemParams
    grid: GridSpec
    r_cut: float
    sweep: Optional[SweepSpec]


def _read(path: str) -> configparser.ConfigParser:
    # values are literals: no %-interpolation, so a stray % is just a bad number
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
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


def _take(sec: Dict[str, str], section: str, stem: str, unit: str,
          default: Optional[float]):
    """Pop one field from ``sec`` in linear units (an int for a count), or
    return ``default`` when no spelling is given (``None``: required)."""
    keys = _spellings(stem, unit)
    given = [k for k in keys if k in sec]
    if len(given) > 1:
        raise ValidationError(f"[{section}] give {stem} as {' or '.join(keys)}, not both")
    if not given:
        if default is None:
            raise ValidationError(f"[{section}] missing required key {' or '.join(keys)}")
        return default
    key = given[0]
    raw = sec.pop(key)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValidationError(f"[{section}] {key} = {raw!r} is not a number") from exc
    if not math.isfinite(value):
        raise ValidationError(f"[{section}] {key} = {raw} is not a finite number")
    if key == keys[0] and unit in _FROM_DB:
        try:
            value = _FROM_DB[unit](value)
        except OverflowError as exc:
            raise ValidationError(
                f"[{section}] {key} = {raw} overflows in linear units") from exc
    if unit == "count":
        if value != int(value):
            raise ValidationError(f"[{section}] {key} = {raw} is not a whole number")
        return int(value)
    return value


def _take_section(sec: Dict[str, str], section: str,
                  defaults: Dict[str, float]) -> Dict[str, float]:
    """Every table field of ``section`` by name; no other key may remain."""
    values = {field: _take(sec, section, stem, unit, defaults.get(field))
              for field, (s, stem, unit) in _FIELDS.items() if s == section}
    if sec:
        raise ValidationError(f"[{section}] unknown keys: {sorted(sec)}")
    return values


def load_config(path: str) -> Config:
    """Parse and validate a configuration file."""
    cp = _read(path)
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ValidationError(
                f"config has unknown section [{name}]; the sections are "
                + ", ".join(f"[{s}]" for s in _SECTIONS))
    if not cp.has_section("system"):
        raise ValidationError("config missing required [system] section")

    system = validate(SystemParams(**_take_section(_section(cp, "system"), "system", {})))
    grid = GridSpec(**_take_section(_section(cp, "grid"), "grid", vars(GridSpec())))
    r_cut = _take_section(_section(cp, "sim"), "sim", {"r_cut": 2000.0})["r_cut"]
    if r_cut <= 0.0:
        raise ValidationError(f"[sim] r_cut_m must be > 0: {r_cut}")

    sweep = None
    if cp.has_section("sweep"):
        wsec = _section(cp, "sweep")
        variable = wsec.pop("variable", None)
        if variable is None:
            raise ValidationError("[sweep] missing required key variable")
        scale = wsec.pop("scale", "linear")
        sweep = SweepSpec(variable=variable, scale=scale,
                          **_take_section(wsec, "sweep", {})).check()

    return Config(system=system, grid=grid, r_cut=r_cut, sweep=sweep)


def resolved_dict(config: Config) -> Dict[str, object]:
    """Flat key/value view of a config for report headers, in table order:
    [system] fields in both unit forms (linear first), then [grid] and [sim]
    fields in linear units, prefixed by their section."""
    sources = {"system": config.system, "grid": config.grid, "sim": config}
    out: Dict[str, object] = {}
    for field, (section, stem, unit) in _FIELDS.items():
        if section not in sources:
            continue
        value = getattr(sources[section], field)
        keys = _spellings(stem, unit)
        out[keys[-1] if section == "system" else f"{section}_{keys[-1]}"] = value
        if section == "system" and unit in _TO_DB:
            out[keys[0]] = _TO_DB[unit](value) if value > 0.0 else None
    return out
