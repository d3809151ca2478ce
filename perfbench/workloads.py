"""The four benchmark workloads: inputs from the seed, CLI calls, output checks.

Each workload generates its inputs from the benchmark seed in :meth:`setup`
and then yields rounds of ``fdjam`` command lines.  A round is the unit the
benchmark times; rounds of one workload do the same amount of work, so
their rates can be compared and their median taken.  Every command's output
is checked; :meth:`Workload.check` returns the work units it completed
(designs, Monte Carlo trials, slots or table rows) or raises
:class:`CheckFailed`.  Statistical checks are made once per run, on the
pooled Monte Carlo output of all rounds, by :meth:`Workload.final_checks`.

The tolerances are the acceptance gates' own: A8 for designs, A2 for the
Monte Carlo oracle, A9 for the slot simulation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

DBM_TO_W = 1e-3


class CheckFailed(Exception):
    """An output that violates the workload's correctness rule."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _dbm(dbm: float) -> float:
    return DBM_TO_W * 10.0 ** (dbm / 10.0)


def parse_csv(text: str) -> Tuple[Dict[str, str], List[Dict[str, str]]]:
    """Split an fdjam CSV artifact into its ``# key = value`` header and rows."""
    header, body = {}, []
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            header[key] = value
        elif not line.startswith("#"):
            body.append(line)
    return header, list(csv.DictReader(io.StringIO("\n".join(body))))


def check_design(omega_s, mu_b, fd_r_s, fd_mu_a, hd_r_s, hd_mu_a, rho,
                 optimized_mu_b: bool = True) -> None:
    """A8's dominance rule and the throughput identity for one design.

    The yardsticks and ``omega_fd + omega_hd`` are recomputed here from the
    reported parameters, independently of fdjam's own formulas.  Dominance
    is A8's claim about the switch threshold the optimizer chose; a design
    at a forced threshold (``sweep`` over ``mu_b`` or ``p_b``) need not
    dominate, so only the identity is checked for it.
    """
    _require(_finite(omega_s), f"omega_s not finite: {omega_s}")
    if rho == 0.0:
        w = 1.0 if mu_b == 0.0 else 0.0
    else:
        w = math.exp(-mu_b / rho)
    fd = fd_r_s * math.exp(-fd_mu_a)
    hd = hd_r_s * math.exp(-hd_mu_a)
    if optimized_mu_b:
        _require(omega_s >= fd * (1.0 - w) - 1e-12,
                 f"omega_s {omega_s} below the FD yardstick {fd * (1.0 - w)}")
        _require(omega_s >= hd * (1.0 - w) - 1e-12,
                 f"omega_s {omega_s} below the HD yardstick {hd * (1.0 - w)}")
    total = fd * (1.0 - w) + hd * w
    _require(abs(omega_s - total) <= 1e-9 * abs(total),
             f"omega_s {omega_s} != throughput_fd + throughput_hd = {total}")


class Workload:
    """Base class; subclasses set ``name`` and ``unit`` and fill the hooks."""

    name = ""
    unit = ""          # the work unit counted by check(), plural

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke

    def config(self, name: str) -> str:
        return str(self.root / "configs" / name)

    def setup(self, cli_main) -> None:
        """Generate the inputs; ``cli_main`` is ``fdjam.cli.main``."""

    def round_argv(self, r: int) -> List[List[str]]:
        raise NotImplementedError

    def check(self, argv: List[str], text: str) -> int:
        raise NotImplementedError

    def final_checks(self) -> List[Tuple[str, bool, str]]:
        """Run-level checks as ``(label, ok, detail)``."""
        return []


class Design(Workload):
    """optimize on default.ini, both shipped sweeps, and random scenarios.

    The random scenarios come from the ranges of
    ``tests/oracles.random_scenarios``; each round takes the next two.
    """

    name = "design"
    unit = "designs"
    POOL = 8
    PER_ROUND = 2

    def setup(self, cli_main) -> None:
        rng = np.random.default_rng(self.seed)
        self.scenarios = []
        for i in range(1 if self.smoke else self.POOL):
            values = {
                "alpha": rng.uniform(2.2, 5.0),
                "d_ab_m": rng.uniform(0.5, 30.0),
                "lambda_e_per_m2": 10.0 ** rng.uniform(-6.0, -3.0),
                "sigma_b2_w": _dbm(rng.uniform(-100.0, -80.0)),
                "sigma_e2_w": _dbm(rng.uniform(-100.0, -80.0)),
                "rho": 10.0 ** rng.uniform(-9.0, -5.0),
                "epsilon": 10.0 ** rng.uniform(-2.3, -0.4),
                "p_a_max_w": _dbm(rng.uniform(-10.0, 20.0)),
                "p_b_max_w": _dbm(rng.uniform(10.0, 30.0)),
            }
            path = self.workdir / f"scenario_{i}.ini"
            path.write_text("[system]\n" + "".join(
                f"{k} = {float(v)!r}\n" for k, v in values.items()))
            self.scenarios.append(str(path))

    def round_argv(self, r: int) -> List[List[str]]:
        n = len(self.scenarios)
        picks = [self.scenarios[(self.PER_ROUND * r + k) % n]
                 for k in range(1 if self.smoke else self.PER_ROUND)]
        sweeps = ["sweep_mu_b.ini"] if self.smoke else \
            ["sweep_p_a_max.ini", "sweep_mu_b.ini"]
        return ([["optimize", "--config", self.config("default.ini")]]
                + [["sweep", "--config", self.config(s), "--jobs", "1"]
                   for s in sweeps]
                + [["optimize", "--config", p] for p in picks])

    def check(self, argv: List[str], text: str) -> int:
        if argv[0] == "optimize":
            data = json.loads(text)
            s = data["solution"]
            check_design(s["omega_s"], s["mu_b"], s["fd"]["r_s"], s["fd"]["mu_a"],
                         s["hd"]["r_s"], s["hd"]["mu_a"], data["config"]["rho"])
            return 1
        header, rows = parse_csv(text)
        _require(len(rows) == int(header["sweep_steps"]),
                 f"{len(rows)} sweep rows, expected {header['sweep_steps']}")
        rho = float(header["rho"])
        optimized = header["sweep_variable"] not in ("mu_b", "p_b")
        for row in rows:
            _require(row["error"] == "", f"sweep point failed: {row['error']}")
            check_design(*(float(row[k]) for k in (
                "omega_s", "mu_b", "fd_r_s", "fd_mu_a", "hd_r_s", "hd_mu_a")),
                rho, optimized)
        return len(rows)


# The A2 gate's scenario: 10 m link, 20 dBm signal, 30 dBm jamming, rate
# gap 3 bits, r_cut 800 m, densities from outage 0.005 to 0.99.
A2_INI = """\
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
A2_LAMBDAS = ("1e-6", "1e-5", "1e-4", "3.16e-4", "1e-3")


class McOracle(Workload):
    """validate-sop with Monte Carlo trials at the A2 settings.

    Round ``r`` passes ``--seed`` ``8 * (1000 * seed + r)``: the command seeds
    row ``i`` with ``--seed + i``, so rows of different rounds and seeds
    never share a substream and their trials can be pooled.
    """

    name = "mc_oracle"
    unit = "trials"
    TRIALS = 1250

    def setup(self, cli_main) -> None:
        self.ini = self.workdir / "a2.ini"
        self.ini.write_text(A2_INI)
        self.hits = {lam: 0 for lam in A2_LAMBDAS}
        self.trials = 0
        self.exact: Dict[str, float] = {}

    def round_argv(self, r: int) -> List[List[str]]:
        return [["validate-sop", "--config", str(self.ini), "--d-ab", "10",
                 "--lambda-list", ",".join(A2_LAMBDAS),
                 "--p-a-w", repr(_dbm(20.0)), "--p-b-w", repr(_dbm(30.0)),
                 "--rate-gap", "3.0", "--trials", str(self.TRIALS),
                 "--seed", str(8 * (1000 * self.seed + r))]]

    def check(self, argv: List[str], text: str) -> int:
        _, rows = parse_csv(text)
        _require(len(rows) == len(A2_LAMBDAS), f"{len(rows)} rows, expected 5")
        for lam, row in zip(A2_LAMBDAS, rows):
            _require(float(row["lambda_e"]) == float(lam), f"row order: {row}")
            exact, mc = float(row["sop_exact"]), float(row["sop_mc"])
            _require(0.0 <= exact <= 1.0 and 0.0 <= mc <= 1.0,
                     f"SOP outside [0, 1]: {row}")
            _require(self.exact.setdefault(lam, exact) == exact,
                     f"sop_exact changed between calls at lambda {lam}")
            self.hits[lam] += round(mc * self.TRIALS)
        self.trials += self.TRIALS
        return len(rows) * self.TRIALS

    def final_checks(self) -> List[Tuple[str, bool, str]]:
        n = self.trials
        if n == 0:
            return [("A2", False, "no validate-sop call succeeded")]
        out = []
        for lam in A2_LAMBDAS:
            p = self.hits[lam] / n
            se = math.sqrt(p * (1.0 - p) / n)
            gap = abs(p - self.exact[lam])
            out.append((f"A2 lambda={lam}", gap <= 3.0 * se,
                        f"pooled mc {p:.5f} vs exact {self.exact[lam]:.5f}, "
                        f"|gap| {gap:.2e} <= 3 x {se:.2e}, n={n}"))
        return out


class Online(Workload):
    """simulate of the default.ini design at its r_cut of 2000 m."""

    name = "online"
    unit = "slots"
    SLOTS = 5000

    def setup(self, cli_main) -> None:
        out = io.StringIO()
        argv = ["optimize", "--config", self.config("default.ini")]
        with redirect_stdout(out):
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"set-up design failed with exit code {code}")
        self.design = self.workdir / "design.json"
        self.design.write_text(out.getvalue())
        data = json.loads(out.getvalue())
        self.omega_s = data["solution"]["omega_s"]
        self.epsilon = data["config"]["epsilon"]
        self.slots = self.transmissions = self.outages = 0
        self.tp_sum = self.tp_sq_sum = 0.0

    def round_argv(self, r: int) -> List[List[str]]:
        return [["simulate", "--config", self.config("default.ini"),
                 "--solution", str(self.design), "--slots", str(self.SLOTS),
                 "--seed", str(1000 * self.seed + r)]]

    def check(self, argv: List[str], text: str) -> int:
        rep = json.loads(text)["report"]
        n = rep["n_slots"]
        _require(n == self.SLOTS, f"n_slots {n}")
        _require(rep["connection_outages"] == 0,
                 f"{rep['connection_outages']} connection outages")
        counts = rep["mode_counts"]
        _require(counts["fd"] + counts["hd"] == rep["transmissions"]
                 and rep["transmissions"] + counts["silent"] == n,
                 f"mode counts do not add up: {counts}")
        self.slots += n
        self.transmissions += rep["transmissions"]
        self.outages += rep["secrecy_outages"]
        mean, se = rep["empirical_throughput"], rep["throughput_stderr"]
        self.tp_sum += n * mean
        self.tp_sq_sum += n * (se * se * n + mean * mean)
        return n

    def final_checks(self) -> List[Tuple[str, bool, str]]:
        if self.transmissions == 0:
            return [("A9", False, f"no transmission in {self.slots} slots")]
        sop = self.outages / self.transmissions
        sop_se = math.sqrt(sop * (1.0 - sop) / self.transmissions)
        mean = self.tp_sum / self.slots
        tp_se = math.sqrt(max(0.0, self.tp_sq_sum / self.slots - mean * mean)
                          / self.slots)
        gap = abs(mean - self.omega_s)
        return [
            ("A9 sop", sop <= self.epsilon + 3.0 * sop_se,
             f"pooled sop {sop:.5f} <= eps {self.epsilon} + 3 x {sop_se:.2e}, "
             f"n={self.transmissions} transmissions"),
            ("A9 throughput", gap <= max(3.0 * tp_se, 0.05 * self.omega_s),
             f"pooled throughput {mean:.5f} vs omega_s {self.omega_s:.5f}, "
             f"|gap| {gap:.2e}, stderr {tp_se:.2e}, n={self.slots} slots"),
        ]


class ExactTable(Workload):
    """validate-sop --trials 0 over a pool of geometries cycled in a fixed order.

    The pool is ``CALLS`` calls, each with its own (p_a, p_b, rate gap)
    triple and ``PER_CALL`` link distances: 1024 geometries, twice the 512
    entries of the quadrature cache.  Each call tabulates ``LAMBDAS``
    densities per distance, so the first density of a geometry is a cold
    quadrature and the rest are cache hits.  The calls run in pool order and
    start over when it ends, so a geometry comes back after 1023 others:
    under LRU every repeat misses, and a larger or smarter cache turns
    repeats into hits.

    Powers follow the A1/A2 regime, jamming 5 to 15 dB above the signal.
    With jamming at or below the signal and a link near 0.2 m the radial
    quadrature can fail to converge (see CHANGES.md), which is a defect of
    its own and not what this workload measures.
    """

    name = "exact_table"
    unit = "rows"
    CALLS, PER_CALL, LAMBDAS, CALLS_PER_ROUND = 256, 4, 16, 16

    def setup(self, cli_main) -> None:
        if self.smoke:
            self.CALLS, self.CALLS_PER_ROUND = 4, 2
        rng = np.random.default_rng(self.seed)
        self.calls = []
        for _ in range(self.CALLS):
            p_a_dbm = rng.uniform(10.0, 25.0)
            p_b_dbm = p_a_dbm + rng.uniform(5.0, 15.0)
            gap = rng.uniform(1.0, 4.0)
            d_ab = np.exp(rng.uniform(math.log(0.2), math.log(30.0), self.PER_CALL))
            self.calls.append([
                "validate-sop", "--config", self.config("default.ini"),
                "--d-ab", ",".join(repr(float(d)) for d in d_ab),
                "--lambda-min", "1e-6", "--lambda-max", "1e-2",
                "--lambda-steps", str(self.LAMBDAS),
                "--p-a-w", repr(_dbm(p_a_dbm)), "--p-b-w", repr(_dbm(p_b_dbm)),
                "--rate-gap", repr(float(gap)), "--trials", "0"])

    def round_argv(self, r: int) -> List[List[str]]:
        return [self.calls[(r * self.CALLS_PER_ROUND + k) % self.CALLS]
                for k in range(self.CALLS_PER_ROUND)]

    def check(self, argv: List[str], text: str) -> int:
        _, rows = parse_csv(text)
        _require(len(rows) == self.PER_CALL * self.LAMBDAS, f"{len(rows)} rows")
        last: Dict[str, Tuple[float, float]] = {}
        for row in rows:
            lam, exact = float(row["lambda_e"]), float(row["sop_exact"])
            approx = float(row["sop_approx"])
            _require(0.0 <= exact <= 1.0 and 0.0 <= approx <= 1.0,
                     f"SOP outside [0, 1]: {row}")
            prev = last.get(row["d_ab_m"])
            if prev is not None:
                _require(lam > prev[0] and exact >= prev[1],
                         f"sop_exact decreases in lambda at d_ab {row['d_ab_m']}")
            last[row["d_ab_m"]] = (lam, exact)
        return len(rows)


WORKLOADS = {w.name: w for w in (Design, McOracle, Online, ExactTable)}
