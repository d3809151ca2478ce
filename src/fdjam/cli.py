"""Command-line front end.

Four subcommands: ``optimize`` (one off-line design, JSON out),
``validate-sop`` (closed-form vs fixed-node quadrature vs Monte Carlo
outage table, CSV out), ``sweep`` (one design per grid point of a swept
variable, CSV out), and ``simulate`` (slot-level Monte Carlo of a saved
design, JSON out).  Every output embeds the fully resolved configuration
and package version, so any row can be recomputed.  A command only builds
and returns that text; :func:`main` checks that ``--out`` can be opened,
loads ``--config`` (both common to all four commands), writes the text to
``--out`` or stdout, and maps exit codes: 0 success, 1 configuration/
validation error, 2 solver infeasibility.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import __version__
from .analytics import _sop_column, comparison_metrics
from .config import Config, _value_db, load_config, resolved_dict, sweep_values
from .errors import InfeasibleError, ValidationError
from .optimizer import optimize
from .params import solution_from_dict, solution_to_dict
from .sim import _BLOCK, empirical_sop, run_online

__all__ = ["main"]

_SWEEP_COLUMNS = [
    "index", "variable", "value", "value_db", "omega_s", "omega_fd",
    "omega_hd", "omega_fd_comp", "omega_hd_comp", "p_fd", "p_hd", "mu_b",
    "fd_r_c", "fd_r_s", "fd_mu_a", "fd_p_b_w", "hd_r_c", "hd_r_s",
    "hd_mu_a", "degenerate_fd", "capped_fd", "error",
]


def _scalar(v):
    """Non-finite floats as None."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _jsonable(obj):
    """Recursively replace non-finite floats by None for strict JSON."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return _scalar(obj)


def _json_payload(config: Config, body: Dict) -> str:
    payload = {"artifact": {"name": "fdjam", "version": __version__},
               "config": resolved_dict(config)}
    payload.update(body)
    return json.dumps(_jsonable(payload), indent=2) + "\n"


def _csv_text(config: Config, extra_header: Dict[str, object],
              columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Commented header, then one CSV line per row, each row a sequence in
    ``columns`` order.  ``csv`` writes None as an empty cell and a float by
    its repr; non-finite floats become empty cells."""
    lines = [f"# fdjam {__version__}"]
    header = dict(resolved_dict(config))
    header.update(extra_header)
    lines += [f"# {k} = {v}" for k, v in header.items()]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(map(_scalar, row) for row in rows)
    return "\n".join(lines) + "\n" + buf.getvalue()


# --------------------------------------------------------------------------
# optimize
# --------------------------------------------------------------------------

def _cmd_optimize(args: argparse.Namespace, config: Config) -> str:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solution = optimize(config.system, config.grid)

    step2, hd = solution.step2, solution.hd_result
    diagnostics = {
        "step1_residual": step2.step1.residual,
        "step1_omega_forms_gap": step2.step1.omega_forms_gap,
        "step1_iterations": step2.step1.iterations,
        "step2_residual": step2.residual,
        "step2_iterations": step2.iterations,
        "hd_residual": hd.residual,
        "mu_b_grid_points": len(config.grid.mu_b_values()),
    }
    notes = []
    if config.system.rho == 0.0:
        notes.append("rho = 0: perfect self-interference suppression; any "
                     "mu_b > 0 keeps the receiver jamming on every slot")
    if solution.degenerate_fd:
        notes.append("jamming-power search degenerate: throughput decreases "
                     "over the whole jamming range, floor power reported")
    if solution.capped_fd:
        notes.append("jamming power capped at the p_b_max budget")

    body = {
        "solution": solution_to_dict(solution),
        "diagnostics": diagnostics,
        "notes": notes,
        "warnings": [str(w.message) for w in caught],
    }
    return _json_payload(config, body)


# --------------------------------------------------------------------------
# validate-sop
# --------------------------------------------------------------------------

def _check_flag(ok: bool, flag: str, rule: str, value) -> None:
    if not ok:
        raise ValidationError(f"{flag} must be {rule}: {value}")


def _parse_float_list(text: str, flag: str, ok, rule: str) -> List[float]:
    """Comma-separated numbers, at least one, each passing ``ok``."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"{flag}: {text!r} is not a comma-separated "
                              f"list of numbers") from exc
    _check_flag(values != [] and all(map(ok, values)), flag, rule, repr(text))
    return values


# validate-sop's density range when --lambda-list is absent, by flag dest
_LAMBDA_RANGE = {"lambda_min": 1e-6, "lambda_max": 1e-2, "lambda_steps": 25}


def _cmd_validate_sop(args: argparse.Namespace, config: Config) -> str:
    """One row per (distance, density): the fixed-node quadrature, the
    small-separation closed form and, with ``--trials`` > 0, the Monte Carlo
    oracle."""
    # checked here, not by validate(): a density of 0 is a valid row
    d_abs = _parse_float_list(args.d_ab, "--d-ab", lambda d: 0.0 < d < math.inf,
                              "a list of finite distances > 0 m")
    # the densities come from the list or from the range, never both
    span = {dest: getattr(args, dest) for dest in _LAMBDA_RANGE}
    if args.lambda_list is not None:
        for dest, v in span.items():
            _check_flag(v is None, "--" + dest.replace("_", "-"),
                        "left out with --lambda-list", v)
        lambdas = _parse_float_list(args.lambda_list, "--lambda-list",
                                    lambda v: 0.0 <= v < math.inf,
                                    "a list of finite densities >= 0")
    else:
        lam_min, lam_max, steps = (_LAMBDA_RANGE[dest] if v is None else v
                                   for dest, v in span.items())
        for flag, v in (("--lambda-min", lam_min), ("--lambda-max", lam_max)):
            _check_flag(0.0 < v < math.inf, flag, "finite and > 0", v)
        _check_flag(steps >= 1, "--lambda-steps", ">= 1", steps)
        _check_flag(lam_max >= lam_min, "--lambda-max",
                    f">= --lambda-min ({lam_min})", lam_max)
        # one row would keep --lambda-min only
        _check_flag(steps >= 2 or lam_min == lam_max, "--lambda-steps",
                    ">= 2 when --lambda-min < --lambda-max", steps)
        lambdas = np.logspace(math.log10(lam_min), math.log10(lam_max),
                              steps).tolist()
    _check_flag(args.trials >= 0, "--trials", ">= 0", args.trials)
    _check_flag(args.seed >= 0, "--seed", ">= 0", args.seed)
    for flag, v in (("--p-a-w", args.p_a_w), ("--rate-gap", args.rate_gap)):
        _check_flag(0.0 < v < math.inf, flag, "finite and > 0", v)
    _check_flag(args.p_b_w >= 0.0, "--p-b-w", ">= 0", args.p_b_w)   # inf: no outage
    p_a = args.p_a_w
    p_b = args.p_b_w
    r_s = 1.0
    r_c = 1.0 + args.rate_gap
    _check_flag(r_c > r_s, "--rate-gap", "large enough that 1.0 + gap > 1.0",
                args.rate_gap)

    # J and the closed-form exposure do not depend on the density, so each
    # distance forms them once for its whole column of densities
    rows = []
    for d_ab in d_abs:
        params = replace(config.system, d_ab=d_ab)
        rows += zip(lambdas, itertools.repeat(d_ab),
                    _sop_column(p_a, p_b, r_c, r_s, params, lambdas, quadrature=True),
                    _sop_column(p_a, p_b, r_c, r_s, params, lambdas, quadrature=False),
                    itertools.repeat(None), itertools.repeat(None))
    if args.trials > 0:
        for index, row in enumerate(rows):
            lam, d_ab = row[:2]
            est = empirical_sop(p_a, p_b, r_c, r_s,
                                replace(config.system, d_ab=d_ab, lambda_e=lam),
                                args.trials, config.r_cut, args.seed + index)
            rows[index] = row[:4] + (est.value, est.stderr)

    extra = {"p_a_w": p_a, "p_b_w": p_b, "rate_gap_bits": args.rate_gap,
             "trials": args.trials, "seed": args.seed, "block_size": _BLOCK}
    return _csv_text(config, extra,
                     ["lambda_e", "d_ab_m", "sop_exact", "sop_approx",
                      "sop_mc", "mc_stderr"], rows)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def _sweep_point(task) -> Dict:
    """Solve one sweep point; module-level so process pools can pickle it."""
    base, grid, variable, value, index = task
    row: Dict = {"index": index, "variable": variable, "value": value,
                 "value_db": None, "error": None}
    forced = {f"forced_{variable}": value} if variable in ("mu_b", "p_b") else {}
    params = base if forced else replace(base, **{variable: value})
    try:
        solution = optimize(params, grid, **forced)
    except (ValidationError, InfeasibleError) as exc:
        row["error"] = str(exc)
        return row
    row["value_db"] = _value_db(variable, value)
    flat = solution_to_dict(solution)
    for group in ("fd", "hd"):
        flat.update({f"{group}_{k}": v for k, v in flat.pop(group).items()})
    row.update(flat)
    row.update(dataclasses.asdict(comparison_metrics(solution, params)))
    return row


def _cmd_sweep(args: argparse.Namespace, config: Config) -> str:
    _check_flag(args.jobs >= 1, "--jobs", ">= 1", args.jobs)
    if config.sweep is None:
        raise ValidationError("sweep command needs a [sweep] section in the config")
    spec = config.sweep
    tasks = [(config.system, config.grid, spec.variable, float(v), i)
             for i, v in enumerate(sweep_values(spec))]

    if args.jobs > 1:
        # imported here: only a parallel sweep needs process pools
        from concurrent.futures import ProcessPoolExecutor
        # the pool starts all its workers at once: no more than there are points
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]

    extra = {"sweep_variable": spec.variable, "sweep_scale": spec.scale,
             "sweep_steps": spec.steps}
    return _csv_text(config, extra, _SWEEP_COLUMNS,
                     (tuple(map(row.get, _SWEEP_COLUMNS)) for row in rows))


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace, config: Config) -> str:
    _check_flag(args.slots >= 1, "--slots", ">= 1", args.slots)
    _check_flag(args.seed >= 0, "--seed", ">= 0", args.seed)
    try:
        with open(args.solution, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read solution {args.solution}: {exc}") from exc
    solution = solution_from_dict(
        data.get("solution", data) if isinstance(data, dict) else data)

    report = run_online(solution, config.system, args.slots, config.r_cut, args.seed)
    body = {
        "solution": solution_to_dict(solution),
        "simulation": {"n_slots": args.slots, "r_cut_m": config.r_cut,
                       "seed": args.seed, "block_size": _BLOCK},
        "report": dataclasses.asdict(report),
    }
    return _json_payload(config, body)


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one line, like every other bad input."""

    def error(self, message):
        raise ValidationError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="fdjam",
        description="Design and validate a switched FD/HD jamming-receiver link.")
    parser.add_argument("--version", action="version", version=f"fdjam {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="INI scenario file")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", parents=[common],
                           help="run the off-line design, emit JSON")
    p_opt.set_defaults(func=_cmd_optimize)

    p_val = sub.add_parser("validate-sop", parents=[common],
                           help="tabulate exact/approximate/Monte Carlo outage")
    p_val.add_argument("--d-ab", default="0.2,10,30",
                       help="comma-separated link distances in meters")
    p_val.add_argument("--lambda-min", type=float, help=(
        f"smallest density of the log range "
        f"(default {_LAMBDA_RANGE['lambda_min']:g})"))
    p_val.add_argument("--lambda-max", type=float, help=(
        f"largest density of the log range "
        f"(default {_LAMBDA_RANGE['lambda_max']:g})"))
    p_val.add_argument("--lambda-steps", type=int, help=(
        f"densities in the log range (default {_LAMBDA_RANGE['lambda_steps']})"))
    p_val.add_argument("--lambda-list", default=None, help=(
        "explicit comma-separated densities, instead of the range "
        "(not with --lambda-min, --lambda-max or --lambda-steps)"))
    p_val.add_argument("--p-a-w", type=float, default=0.1,
                       help="fixed transmit power in watts")
    p_val.add_argument("--p-b-w", type=float, default=1.0,
                       help="fixed jamming power in watts")
    p_val.add_argument("--rate-gap", type=float, default=3.0,
                       help="codeword minus secrecy rate in bits/s/Hz")
    p_val.add_argument("--trials", type=int, default=0,
                       help="Monte Carlo trials per row (0 skips the simulation)")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=_cmd_validate_sop)

    p_sw = sub.add_parser("sweep", parents=[common],
                          help="one design per swept-variable value, CSV")
    p_sw.add_argument("--jobs", type=int, default=1,
                      help="parallel worker processes for sweep points")
    p_sw.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="slot-level Monte Carlo of a design")
    p_sim.add_argument("--solution", required=True,
                       help="JSON produced by the optimize command")
    p_sim.add_argument("--slots", type=int, default=100000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def _check_out(path: str) -> None:
    """Fail before the command runs if ``path`` cannot be opened for writing.
    An existing file keeps its content, and no new file is left behind."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ValidationError(f"--out cannot be opened for writing: {exc}") from exc
    if not existed:
        os.remove(path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.out is not None:
            _check_out(args.out)
        text = args.func(args, load_config(args.config))
    except ValidationError as exc:
        print(f"fdjam: validation error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"fdjam: infeasible: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
