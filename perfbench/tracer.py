"""Outside-in tracer: wraps fdjam's public functions from the benchmark side.

fdjam's modules import each other's functions by name (``from .optimizer
import optimize``), so a function is looked up in every namespace that
imported it.  :meth:`Tracer.install` finds each traced function in its
defining module, then replaces every binding of that same object in every
loaded ``fdjam`` module, so calls made from any layer go through the wrapper.
:meth:`Tracer.uninstall` puts the originals back; timed rounds run with the
tracer uninstalled.

A name that does not exist (a later version deleted or renamed it) is
recorded in :attr:`Tracer.absent` and reports zero calls.

Self time is a span's duration minus the time of wrapped calls it made,
kept with a stack of child-time accumulators.  The benchmark is single
threaded, so one stack suffices.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Tuple

# Layer functions as ``<module>.<function>`` under the ``fdjam`` package.
TRACED = (
    "cli.main",
    "config.load_config",
    "params.validate",
    "params.derived_constants",
    "optimizer.optimize",
    "optimizer.solve_step2",
    "optimizer.solve_step1",
    "optimizer.solve_hd",
    "analytics.exposure_integral",
    "analytics.sop_exact",
    "analytics.sop_approx",
    "sim.empirical_sop",
    "sim.sub_rng",
    "sim.run_online",
    "online.decide",
)

# Counters read from return values: function -> [(counter, attribute)].
_RETURN_COUNTERS = {
    "optimizer.solve_step1": [("optimizer.solve_step1.iterations", "iterations")],
    "sim.empirical_sop": [("sim.trials", "n_trials")],
    "sim.run_online": [("sim.slots", "n_slots"),
                       ("sim.transmissions", "transmissions")],
}

QUAD_CACHE = ("analytics", "_exposure_integral_cached")


class Stat:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Per-function call counts, self time and errors, plus return counters."""

    def __init__(self, names=TRACED) -> None:
        self.names = tuple(names)
        self.stats: Dict[str, Stat] = {n: Stat() for n in self.names}
        self.counters: Dict[str, float] = {
            c: 0 for specs in _RETURN_COUNTERS.values() for c, _ in specs}
        self.absent: List[str] = []
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        counters = self.counters
        readers = _RETURN_COUNTERS.get(name, ())
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            for counter, attr in readers:
                counters[counter] += getattr(result, attr)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function in loaded fdjam modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "fdjam" or k.startswith("fdjam."))]
        self.absent = []
        for name in self.names:
            mod_name, func_name = name.split(".")
            fn = getattr(sys.modules.get(f"fdjam.{mod_name}"), func_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches = []


def quad_cache_info():
    """``(hits, misses)`` of analytics' quadrature cache, or None if absent."""
    cached = getattr(sys.modules.get(f"fdjam.{QUAD_CACHE[0]}"), QUAD_CACHE[1], None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses
