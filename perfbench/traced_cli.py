"""Run one ``nonauto`` command with every layer boundary wrapped.

Usage: python3 perfbench/traced_cli.py TRACE_JSON run|verify ARGS...

The wrappers are installed from outside the package: every module-level
name in ``nonauto.*`` that is bound to a traced function is rebound to a
wrapper, so calls through ``from .x import f`` bindings and recursive
calls through module globals are both seen. Nothing under ``src/``
changes. When the command returns, the counters and span times are
written to TRACE_JSON and the command's exit code is passed through.

A span's self time is its duration minus the durations of the traced
spans it called directly.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

perf_counter = time.perf_counter


class Tracer:
    """Span times and call counts per traced name.

    Each name has a stat cell [calls, inclusive s, self s, depth, direct
    child calls]. Inclusive time counts only the outermost call of a
    recursive name, so ``member`` on a dual family or ``map_at`` on a
    k-th iterate is not counted twice.
    """

    def __init__(self):
        self.stack = []               # per active span: [child s, child calls]
        self.stats = {}
        self.covered = [0.0]          # time inside top-level spans

    def timed(self, name, fn, after=None):
        """Wrap fn in a span; ``after(result, args)`` sees each result."""
        stat = self.stats[name] = [0, 0.0, 0.0, 0, 0]
        stack, covered = self.stack, self.covered

        def wrapper(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            stat[3] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat[3] -= 1
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    parent[1] += 1
                else:
                    covered[0] += dt
                if not stat[3]:
                    stat[1] += dt
                stat[0] += 1
                stat[2] += dt - frame[0]
                stat[4] += frame[1]
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        stat = self.stats[name] = [0, 0.0, 0.0, 0, 0]

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


class RssSampler:
    """Peak resident set size while a span runs, sampled from /proc."""

    PERIOD_S = 0.01

    def __init__(self):
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.peak = 0
        self._stop = threading.Event()
        self._thread = None

    def _rss(self) -> int:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * self.page

    def _loop(self):
        while not self._stop.wait(self.PERIOD_S):
            self.peak = max(self.peak, self._rss())

    def start(self):
        self.peak = self._rss()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._rss())
        return self.peak / 2 ** 20


def _rebind(original, replacement) -> int:
    """Point every nonauto module attribute bound to ``original`` at
    ``replacement``; returns how many bindings moved."""
    moved = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "nonauto"
                               or modname.startswith("nonauto.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                moved += 1
    return moved


def install(tracer: Tracer) -> dict:
    """Wrap the public functions of each layer. Returns the facts that are
    not span times: scan-cache info, per-miss scan sizes, bytes written
    and per-check peak RSS."""
    import nonauto.cli as cli
    from nonauto import acceptance, families, registry, sensitivity, spaces
    from nonauto import systems

    scan_fn = sensitivity.region_scan
    facts = {"scan_cache": scan_fn, "scans": [], "misses_seen": 0,
             "last_shifts": 0, "orbit_horizon_steps": 0, "samples": 0,
             "scan_dist_symbolic": 0, "bytes_written": 0, "check_rss_mb": {}}

    def after_orbit(result, args):
        facts["orbit_horizon_steps"] += args[2]

    def after_shifts(result, args):
        if result is not None:
            facts["last_shifts"] = len(set(result))

    def after_sample(result, args):
        facts["samples"] += len(result)

    def after_dist(result, args):
        if tracer.stats["sensitivity.region_scan"][3]:
            facts["scan_dist_symbolic"] += 1

    def after_scan(result, args):
        misses = scan_fn.cache_info().misses
        if misses == facts["misses_seen"]:
            return
        facts["misses_seen"] = misses
        n = len(result.sample)
        hausdorff = args[1].kind == "hausdorff-ball"
        symbolic = result.truncation_bound is not None
        facts["scans"].append({
            "kind": "symbolic" if symbolic else "numeric",
            "samples": n, "pairs": n * (n - 1) // 2, "horizon": args[2],
            "width": (max(len(s.elements) for s in result.sample)
                      if hausdorff else 1),
            "shifts": facts["last_shifts"] if symbolic else 0})

    def after_write(result, args):
        facts["bytes_written"] += sum(os.path.getsize(p) for p in result)

    timed, counted = tracer.timed, tracer.counted
    targets = [
        (systems.orbit, timed("systems.orbit", systems.orbit, after_orbit)),
        (systems.map_at, timed("systems.map_at", systems.map_at)),
        (systems.apply, counted("systems.apply", systems.apply)),
        (systems.net_shift_series,
         timed("systems.net_shift_series", systems.net_shift_series,
               after_shifts)),
        (spaces.dist_symbolic,
         timed("spaces.dist_symbolic", spaces.dist_symbolic, after_dist)),
        (spaces.sample_region,
         timed("spaces.sample_region", spaces.sample_region, after_sample)),
        (families.member, timed("families.member", families.member)),
        (families.windowed, timed("families.windowed", families.windowed)),
        (scan_fn, timed("sensitivity.region_scan", scan_fn, after_scan)),
        (sensitivity.sensitivity_probe,
         timed("sensitivity.sensitivity_probe",
               sensitivity.sensitivity_probe)),
        (sensitivity.weak_sensitivity_probe,
         timed("sensitivity.weak_sensitivity_probe",
               sensitivity.weak_sensitivity_probe)),
        (registry.build, counted("registry.build", registry.build)),
        (registry.default_cover,
         counted("registry.default_cover", registry.default_cover)),
        (cli.parse_config, timed("cli.parse_config", cli.parse_config)),
        (cli.run_experiment, timed("cli.run_experiment",
                                   cli.run_experiment)),
        (cli.write_outputs, timed("cli.write_outputs", cli.write_outputs,
                                  after_write)),
    ]
    for original, wrapper in targets:
        if not _rebind(original, wrapper):
            raise RuntimeError(f"no binding found for {original.__name__}")

    cls = sensitivity.RegionScan
    cls.pair_times = counted("sensitivity.pair_times", cls.pair_times)

    sampler = RssSampler()

    def check_wrapper(key, fn):
        span = timed(f"acceptance.{key}", fn)

        def run_check():
            sampler.start()
            try:
                return span()
            finally:
                facts["check_rss_mb"][key] = sampler.stop()

        return run_check

    acceptance.CRITERIA = tuple((key, title, check_wrapper(key, fn))
                                for key, title, fn in acceptance.CRITERIA)
    return facts


def main(argv) -> int:
    t_start = perf_counter()
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    import nonauto.cli as cli

    facts = install(tracer)
    t_body = perf_counter()
    code = cli.main(cli_args)
    t_end = perf_counter()
    info = facts.pop("scan_cache").cache_info()
    trace = {
        "module": cli.__file__,
        "exit": code,
        "wall_s": t_end - t_start,
        "startup_s": t_body - t_start,
        "covered_s": tracer.covered[0],
        "stats": {name: {"calls": st[0], "incl_s": st[1], "self_s": st[2],
                         "child_calls": st[4]}
                  for name, st in tracer.stats.items()},
        "scan_hits": info.hits,
        "scan_misses": info.misses,
        **facts,
    }
    with open(trace_path, "w") as f:
        json.dump(trace, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
