"""fdjam benchmark: drive the ``fdjam`` CLI in-process on one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload design --seed 1 --seconds 15 --trace 0

One caller runs a closed loop of rounds (see ``workloads.py``) until
``--seconds`` have passed, checks every output, and prints a human-readable
report followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``ops_per_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
ones, gathered by wrapping fdjam's functions from outside (``tracer.py``)
on every other round.  ``--smoke`` shrinks every workload for a quick
self-check.  The package is imported from ``src/`` next to this directory;
without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import List, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7      # fresh interpreters timed for setup_s

# Host-speed calibration.  The shared host's speed drifts by +-15 % over
# tens of seconds (other tenants on the same cores; steal time stays near
# zero, so process CPU time drifts too).  A fixed burst of float math and
# small numpy calls, the same mix fdjam runs, is timed between CLI calls;
# times are rescaled to a host on which the burst takes CAL_REF_S, the
# burst's median on the 2-core host these bounds were set on.  A burst runs
# at the start of each round, after its last call, and after any call that
# ends at least CAL_EVERY_S after the previous burst.
CAL_REF_S = 0.016
CAL_EVERY_S = 0.2


def calibration_burst() -> float:
    """Seconds for a fixed mix of math-module and small-array work: three
    times the median of three equal pieces, so one disturbed piece does not
    move it."""
    pieces = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(13000):
            acc += math.exp(-i * 1e-4) * math.log1p(i)
        rng = np.random.default_rng(0)
        for _ in range(200):
            acc += float(np.max(rng.random(64) ** 2))
        pieces.append(time.perf_counter() - start)
    return 3.0 * statistics.median(pieces)


def _load_fdjam():
    """Import fdjam from this checkout's ``src/``, or return None."""
    if not (SRC / "fdjam" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        return None
    sys.path.insert(0, str(SRC))
    import fdjam.cli
    if Path(fdjam.cli.__file__).resolve().parent != SRC / "fdjam":
        return None
    return fdjam.cli


def _invoke(cli, argv):
    """Run ``fdjam <argv>`` in-process: (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def _setup_times(workload: str, seed: int, n: int):
    """Wall times of ``n`` fresh interpreters that import fdjam and set up the
    workload's inputs: (raw seconds, seconds at reference host speed)."""
    raw, ref = [], []
    burst = calibration_burst()
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload, "--seed", str(seed),
                        "--setup-probe"],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        raw.append(time.perf_counter() - start)
        after = calibration_burst()
        ref.append(raw[-1] * CAL_REF_S / (0.5 * (burst + after)))
        burst = after
    return raw, ref


def _provenance(seed: int, version: str) -> str:
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "fdjam").glob("*.py")):
        digest.update(path.read_bytes())
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} "
            f"fdjam={version} commit={commit or 'unknown'} "
            f"source_sha256={digest.hexdigest()[:16]} seed={seed}")


class Round(NamedTuple):
    busy_s: float     # wall time inside fdjam calls
    ref_s: float      # the same, rescaled to reference host speed
    work: int         # work units the checked outputs completed
    traced: bool


class Run:
    """One benchmark run: rounds of checked CLI calls and their timings."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.wl = workload
        self.attempted = self.failed = 0
        self.rounds: List[Round] = []
        self.first_texts: List[str] = []     # artifacts of round 0, in order
        self.problems: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    def round(self, r: int, traced: bool = False) -> None:
        """Run and check round ``r``.  The calls between two calibration
        bursts form a segment, whose time is rescaled by the mean of the two."""
        busy = ref = segment = 0.0
        work = 0
        burst = calibration_burst()
        last_burst = time.perf_counter()
        calls = self.wl.round_argv(r)
        for i, argv in enumerate(calls):
            self.attempted += 1
            start = time.perf_counter()
            code, text, err = _invoke(self.cli, argv)
            segment += time.perf_counter() - start
            if r == 0:
                self.first_texts.append(text)
            if code != 0:
                self.fail(f"exit {code}: fdjam {' '.join(argv)}\n{err.strip()}")
            else:
                try:
                    work += self.wl.check(argv, text)
                except Exception as exc:       # any malformed output is a failure
                    self.fail(f"check: {type(exc).__name__}: {exc}: "
                              f"fdjam {' '.join(argv)}")
            if i == len(calls) - 1 or time.perf_counter() - last_burst >= CAL_EVERY_S:
                after = calibration_burst()
                busy += segment
                ref += segment * CAL_REF_S / (0.5 * (burst + after))
                burst, segment = after, 0.0
                last_burst = time.perf_counter()
        self.rounds.append(Round(busy, ref, work, traced))

    def replay_matches(self) -> bool:
        """Re-run round 0's first call; its artifact must be byte-identical."""
        _, text, _ = _invoke(self.cli, self.wl.round_argv(0)[0])
        return text == self.first_texts[0]


def _layer_metrics(tracer, quad, rounds: List[Round]):
    """Per-layer metrics as ``name -> (value, unit)``."""
    m = {}
    for name in tracer.names:
        st = tracer.stats[name]
        m[f"{name}.calls"] = (st.calls, "count")
        m[f"{name}.self_s"] = (st.self_s, "s")
        m[f"{name}.errors"] = (st.errors, "count")
    c = tracer.counters
    designs = tracer.stats["optimizer.optimize"].calls
    m["optimizer.solve_step1.iterations"] = (c["optimizer.solve_step1.iterations"], "count")
    m["optimizer.step1_per_design"] = (
        tracer.stats["optimizer.solve_step1"].calls / designs if designs else 0.0,
        "calls/design")
    hits, misses = quad
    m["analytics.quad_cache.hits"] = (hits, "count")
    m["analytics.quad_cache.misses"] = (misses, "count")
    m["analytics.quad_cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["sim.trials"] = (c["sim.trials"], "count")
    m["sim.slots"] = (c["sim.slots"], "count")
    m["online.tx_ratio"] = (
        c["sim.transmissions"] / c["sim.slots"] if c["sim.slots"] else 0.0, "ratio")
    per_unit = [[x.ref_s / x.work for x in rounds if x.traced == flag and x.work]
                for flag in (False, True)]
    m["trace.overhead_ratio"] = (
        statistics.median(per_unit[1]) / statistics.median(per_unit[0]) - 1.0
        if all(per_unit) else 0.0, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload for a quick self-check")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = _load_fdjam()
    if cli is None:
        print(f"perfbench: no fdjam sources under {SRC} (and configs/ beside "
              f"them); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer, quad_cache_info
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"perfbench: --seed must be >= 0: {args.seed}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = WORKLOADS[args.workload](ROOT, workdir, args.seed, args.smoke)
        if args.setup_probe:
            wl.setup(cli.main)
            return 0

        print(f"perfbench workload={wl.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}"
              f"{' smoke' if args.smoke else ''}")
        print("machine:", _provenance(args.seed, sys.modules["fdjam"].__version__))
        if not args.trace:
            probes, probes_ref = _setup_times(
                wl.name, args.seed, 1 if args.smoke else SETUP_PROBES)

        tracer = Tracer()
        quad = [0, 0]

        def traced(fn, *a):
            tracer.install()
            before = quad_cache_info()
            try:
                return fn(*a)
            finally:
                after = quad_cache_info()
                tracer.uninstall()
                if before and after:
                    quad[0] += after[0] - before[0]
                    quad[1] += after[1] - before[1]

        if args.trace:
            traced(wl.setup, cli.main)
        else:
            wl.setup(cli.main)

        run = Run(cli, wl)
        min_rounds = 2 if args.trace else 1
        start = time.perf_counter()
        r = 0
        while r < min_rounds or time.perf_counter() - start < args.seconds:
            if args.trace and r % 2 == 1:
                traced(run.round, r, True)
            else:
                run.round(r)
            r += 1

        checks = list(wl.final_checks())
        checks.append(("determinism", run.replay_matches(),
                       "re-run of round 0's first call gives the same artifact"))
        for label, ok, detail in checks:
            run.attempted += 1
            if not ok:
                run.fail(f"{label}: {detail}")

        digest = hashlib.sha256("".join(run.first_texts).encode()).hexdigest()
        done = run.rounds
        print(f"rounds: {len(done)} ({sum(x.work for x in done)} {wl.unit}, "
              f"{sum(x.busy_s for x in done):.3f} s busy); {wl.unit}/s per "
              f"round at reference speed (* traced): " + " ".join(
                  f"{x.work / x.ref_s:.5g}{'*' if x.traced else ''}" for x in done))
        for label, ok, detail in checks:
            print(f"check {label}: {'ok' if ok else 'FAILED'} ({detail})")
        for problem in run.problems:
            print(f"failure: {problem}", file=sys.stderr)
        print(f"error_rate = {run.failed}/{run.attempted} = "
              f"{run.failed / run.attempted:.4g} ratio")
        print(f"artifact_sha256 = {digest}")

        if args.trace:
            m = _layer_metrics(tracer, quad, done)
            if tracer.absent:
                print("absent (reported as zero):", ", ".join(tracer.absent))
            for name, (value, unit) in m.items():
                print(f"{name} = {value:.6g} {unit}")
        else:
            rate = statistics.median(x.work / x.ref_s for x in done)
            raw_rate = statistics.median(x.work / x.busy_s for x in done)
            setup_s = statistics.median(probes_ref)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            m = {"ops_per_s": (rate, "1/s"), "setup_s": (setup_s, "s"),
                 "peak_rss_mb": (rss_mb, "MiB")}
            print(f"ops_per_s ({wl.unit}_per_s) = {rate:.6g} 1/s at reference "
                  f"speed, median of {len(done)} rounds; {raw_rate:.6g} 1/s wall clock")
            print(f"setup_s = {setup_s:.6g} s at reference speed, median of "
                  f"{len(probes)} fresh interpreters; {statistics.median(probes):.6g}"
                  f" s wall clock")
            print(f"peak_rss_mb = {rss_mb:.6g} MiB")
        print(json.dumps({
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
