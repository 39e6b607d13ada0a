#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for ``nonauto run`` and ``nonauto verify``.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is a real CLI invocation (``python3 -m nonauto.cli``) in a
fresh process, built from this checkout's ``src/``. Inputs come from the
seed: seed 0 keeps the registry's default covers, any other seed draws the
16 ball centres of the interval and circle covers (radius 1/32 and every
other parameter unchanged). Each invocation's exit code, verdict lines and
output digests are checked against ``reference.json`` where it holds the
same inputs, and against the run's first pass otherwise.

With ``--trace 0`` the end-to-end metrics are reported: wall and CPU time
of a whole workload pass, the largest peak RSS of any of its processes,
and interpreter set-up time. With ``--trace 1`` one untraced pass and then
traced passes (``traced_cli.py``) give the per-layer metrics. The last
line of standard output is one JSON object; a fuller record with quartiles
and the environment goes to ``.perfbench/results/``.

``--record SEED...`` runs each workload once per seed and stores the
outputs as the reference, to be used only on a commit whose outputs are
known to be right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"
TRACED_CLI = BENCH_DIR / "traced_cli.py"

# one run must end within 180 s; leave room for clean-up and the report
RUN_DEADLINE_S = 172.0
# the whole of a --record session; one pass per seed takes about a minute
RECORD_DEADLINE_S = 3600.0
SETUP_REPEATS = 10

NUMERIC_SYSTEMS = ("example41_f1", "example41_f2", "example41_composition",
                   "example41_generated", "rotations_summable",
                   "rotations_harmonic", "identity")
PROBE_MODES = ["F-sensitive", "weakly-F-sensitive"]
PROBE_FAMILY = {"kind": "infinite", "min_count": 10, "tail_fraction": 0.25}
COVER_SIZE = 16
COVER_RADIUS = 1 / 32

WORKLOADS = ("run-builtins", "verify")
CHECKS = ("transcription-guard", "two-map-family", "shift-blocks",
          "generated-embedding", "iterate-embedding",
          "hyperspace-consistency", "weak-strong-agreement",
          "family-classifiers", "perturbation-bound", "metric-suite")
INVOCATIONS = NUMERIC_SYSTEMS + ("inline_two_balls", "example31_modes",
                                 "example31_probes",
                                 "rotations_harmonic_h2000", "verify")
# the one check that is red at the seed commit (README, "Self checks")
EXPECTED_RED = ("shift-blocks",)


@dataclass(frozen=True)
class Invocation:
    name: str
    args: tuple          # CLI arguments after ``nonauto``
    inputs: str          # canonical text of everything the process reads

    @property
    def is_run(self) -> bool:
        return self.args[0] == "run"

    @property
    def key(self) -> str:
        return hashlib.sha256(self.inputs.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Inputs


def draw_cover(seed: int):
    """None for seed 0 (registry default); else 16 seeded ball centres."""
    if seed == 0:
        return None
    rng = random.Random(seed)
    return [{"kind": "ball",
             "center": rng.uniform(COVER_RADIUS, 1 - COVER_RADIUS),
             "radius": COVER_RADIUS, "label": f"ball-{i:02d}"}
            for i in range(COVER_SIZE)]


def _probe_config(system: str, cover, **params) -> dict:
    raw = {"system": system, "modes": PROBE_MODES, "family": PROBE_FAMILY,
           **params}
    if cover is not None:
        raw["cover"] = cover
    return raw


def _run_invocation(name: str, raw: dict, config_dir: Path) -> Invocation:
    text = json.dumps(raw, sort_keys=True, indent=1) + "\n"
    path = config_dir / f"{name}.json"
    path.write_text(text)
    return Invocation(name, ("run", str(path)), "run\n" + text)


def _inline_invocation(config_dir: Path) -> Invocation:
    shipped = ROOT / "scripts" / "configs" / "inline_two_balls.json"
    return _run_invocation("inline_two_balls",
                           json.loads(shipped.read_text()), config_dir)


def workload_invocations(workload: str, seed: int,
                         config_dir: Path) -> list:
    """The CLI invocations of one pass, with their configs written out."""
    config_dir.mkdir(parents=True, exist_ok=True)
    if workload == "verify":
        return [Invocation("verify", ("verify",), "verify\n")]
    if workload != "run-builtins":
        raise ValueError(f"unknown workload {workload!r}")
    cover = draw_cover(seed)
    shipped = ROOT / "scripts" / "configs"
    modes = json.loads((shipped / "example31.json").read_text())
    long_horizon = _probe_config("rotations_harmonic", cover, horizon=2000,
                                 resolution=8)
    return ([_run_invocation(name, _probe_config(name, cover), config_dir)
             for name in NUMERIC_SYSTEMS]
            + [_inline_invocation(config_dir),
               _run_invocation("example31_modes", modes, config_dir),
               _run_invocation("example31_probes",
                               _probe_config("example31", None), config_dir),
               _run_invocation("rotations_harmonic_h2000", long_horizon,
                               config_dir)])


def warmup_invocations(workload: str, config_dir: Path) -> list:
    """One discarded invocation through the same command before anything
    is timed, so bytecode compilation and cold file caches are not timed.
    A full discarded pass would not fit the run budget: ``verify`` alone
    takes about 50 s."""
    if workload == "verify":
        return [Invocation("verify-warmup",
                           ("verify", "--only", "transcription-guard"),
                           "verify --only transcription-guard\n")]
    config_dir.mkdir(parents=True, exist_ok=True)
    return [_inline_invocation(config_dir)]


# ---------------------------------------------------------------------------
# Processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("NONAUTO_WORKERS", None)
    return env


def spawn(argv: list, stdout_path: Path, timeout: float) -> dict:
    """Run one process; rusage comes from wait4 on that child alone, since
    RUSAGE_CHILDREN keeps the largest RSS of every child so far."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "exit": code,
            "timed_out": code == -9 and wall >= timeout}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_record(inv: Invocation, exit_code: int, stdout: str,
                  out_dir: Path) -> dict:
    """What a correct invocation must reproduce exactly."""
    if not inv.is_run:
        checks = {}
        for line in stdout.splitlines():
            flag, _, rest = line.partition("  ")
            if flag in ("PASS", "FAIL") and rest.split():
                checks[rest.split()[0]] = flag
        return {"exit": exit_code, "checks": checks,
                "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    files = {}
    if out_dir.is_dir():
        files = {p.name: _sha256(p) for p in sorted(out_dir.iterdir())}
    verdicts = [line for line in stdout.splitlines() if " -> " in line]
    return {"exit": exit_code, "verdicts": verdicts, "files": files}


def _consistent(inv: Invocation, record: dict, out_dir: Path) -> str:
    """Checks that need no reference; empty string when all hold."""
    if not inv.is_run:
        red = tuple(k for k, v in record["checks"].items() if v == "FAIL")
        if len(record["checks"]) != (1 if "--only" in inv.args
                                     else len(CHECKS)):
            return f"expected a row per check, got {record['checks']}"
        expected_exit = 1 if red else 0
        if record["exit"] != expected_exit:
            return f"exit {record['exit']} with red checks {red}"
        return ""
    if record["exit"] != 0:
        return f"exit {record['exit']}"
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return f"unreadable report.json: {exc}"
    printed = {}
    for entry in report["reports"]:
        printed[entry["requested_mode"]] = entry["verdict"]
    expected = [f"{report['system']}: {m} -> {v}" for m, v in printed.items()]
    if record["verdicts"] != expected:
        return f"verdict lines {record['verdicts']} != report {expected}"
    if "plotdata.tsv" not in record["files"]:
        return "no plotdata.tsv"
    return ""


class Gate:
    """Correctness of every invocation: the reference where it has these
    inputs, else the first pass of this run; plus self-consistency."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.first = {}
        self.attempted = 0
        self.failures = []

    def check(self, inv: Invocation, record: dict, out_dir: Path,
              timed_out: bool = False) -> bool:
        self.attempted += 1
        problem = "timed out" if timed_out else _consistent(inv, record,
                                                             out_dir)
        expected = self.reference.get(inv.key)
        if not problem and expected is not None:
            if expected != {"invocation": inv.name, **record}:
                problem = "differs from reference"
        if not problem and inv.key in self.first:
            if record != self.first[inv.key]:
                problem = "differs from the first pass of this run"
        if inv.name == "verify" and not problem:
            red = tuple(k for k, v in record["checks"].items()
                        if v == "FAIL")
            if red != EXPECTED_RED:
                problem = f"red checks {red}, expected {EXPECTED_RED}"
        self.first.setdefault(inv.key, record)
        if problem:
            self.failures.append(f"{inv.name}: {problem}")
        return not problem


class Runner:
    def __init__(self, run_dir: Path, gate: Gate, deadline: float):
        self.run_dir = run_dir
        self.gate = gate
        self.deadline = deadline
        self.passes = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run_pass(self, invs: list, traced: bool = False) -> list:
        """One pass: every invocation in order. Returns per-invocation
        measurements; traced passes also carry the trace."""
        self.passes += 1
        pass_dir = self.run_dir / f"pass{self.passes:03d}"
        pass_dir.mkdir(parents=True)
        rows = []
        for inv in invs:
            out_dir = pass_dir / inv.name
            trace_path = pass_dir / f"{inv.name}.trace.json"
            args = list(inv.args)
            if inv.is_run:
                args += ["--out", str(out_dir)]
            if traced:
                argv = [sys.executable, str(TRACED_CLI), str(trace_path)]
            else:
                argv = [sys.executable, "-m", "nonauto.cli"]
            stdout_path = pass_dir / f"{inv.name}.stdout"
            m = spawn(argv + args, stdout_path, self.remaining())
            stdout = stdout_path.read_text(errors="replace")
            record = output_record(inv, m["exit"], stdout, out_dir)
            self.gate.check(inv, record, out_dir, m["timed_out"])
            m["name"] = inv.name
            m["record"] = record
            if traced and trace_path.exists():
                m["trace"] = json.loads(trace_path.read_text())
            rows.append(m)
        shutil.rmtree(pass_dir)
        return rows

    def setup_times(self, repeats: int, discard: int = 0) -> list:
        """Fresh interpreter plus ``import nonauto.cli``, which also builds
        the registry. A discarded first import compiles the bytecode."""
        argv = [sys.executable, "-c", "import nonauto.cli"]
        out = self.run_dir / "setup.stdout"
        times = []
        for i in range(discard + repeats):
            m = spawn(argv, out, self.remaining())
            if m["exit"] != 0:
                raise RuntimeError("import nonauto.cli failed: "
                                   + out.read_text(errors="replace"))
            if i >= discard:
                times.append(m["wall_s"])
        return times


# ---------------------------------------------------------------------------
# Metrics


def summary(values: list, value: float) -> dict:
    """The reported value plus the median, quartiles and count of the
    samples it came from."""
    med = statistics.median(values)
    q1, q3 = med, med
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": value, "median": med, "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end(runner: Runner, invs: list, warmup: list,
               seconds: float) -> dict:
    """Passes repeat for ``seconds``. Other tenants of a shared machine
    slow whole stretches of seconds by up to 2x, wall and CPU time alike,
    so wall_s and cpu_s sum each invocation's fastest pass: that keeps
    the run-to-run spread inside the bounds where a median over two or
    three passes does not. Set-up samples are split between the start
    and the end of the run for the same reason."""
    setup = runner.setup_times(SETUP_REPEATS, discard=1)
    runner.run_pass(warmup)
    passes = []
    start = time.monotonic()
    last = 0.0
    while not passes or (time.monotonic() - start < seconds
                         and runner.remaining() > 2 * last):
        t0 = time.monotonic()
        passes.append(runner.run_pass(invs))
        last = time.monotonic() - t0
    setup += runner.setup_times(SETUP_REPEATS)

    def best_sum(field):
        return sum(min(rows[i][field] for rows in passes)
                   for i in range(len(invs)))

    walls = [sum(r["wall_s"] for r in rows) for rows in passes]
    cpus = [sum(r["cpu_s"] for r in rows) for rows in passes]
    rsss = [max(r["rss_mb"] for r in rows) for rows in passes]
    return {"wall_s": ("s", summary(walls, best_sum("wall_s"))),
            "cpu_s": ("s", summary(cpus, best_sum("cpu_s"))),
            "peak_rss_mb": ("MB", summary(rsss, statistics.median(rsss))),
            "setup_s": ("s", summary(setup, statistics.median(setup)))}


# per-layer metric -> (traced span, field of its stats, unit)
SPAN_METRICS = {
    "systems.orbit.s": ("systems.orbit", "incl_s", "s"),
    "systems.orbit.calls": ("systems.orbit", "calls", "count"),
    # orbit's only traced child is map_at: one call per step
    "systems.orbit_steps": ("systems.orbit", "child_calls", "count"),
    "systems.apply.calls": ("systems.apply", "calls", "count"),
    "systems.map_at.s": ("systems.map_at", "incl_s", "s"),
    "systems.map_at.calls": ("systems.map_at", "calls", "count"),
    "systems.net_shift_series.s": ("systems.net_shift_series", "incl_s", "s"),
    "spaces.dist_symbolic.s": ("spaces.dist_symbolic", "incl_s", "s"),
    "spaces.dist_symbolic.calls": ("spaces.dist_symbolic", "calls", "count"),
    "spaces.sample_region.s": ("spaces.sample_region", "incl_s", "s"),
    "sensitivity.region_scan.self_s": ("sensitivity.region_scan", "self_s",
                                       "s"),
    "sensitivity.sensitivity_probe.self_s": (
        "sensitivity.sensitivity_probe", "self_s", "s"),
    "sensitivity.weak_sensitivity_probe.self_s": (
        "sensitivity.weak_sensitivity_probe", "self_s", "s"),
    "sensitivity.pair_times.calls": ("sensitivity.pair_times", "calls",
                                     "count"),
    "families.member.s": ("families.member", "incl_s", "s"),
    "families.member.calls": ("families.member", "calls", "count"),
    "families.windowed.s": ("families.windowed", "incl_s", "s"),
    "families.windowed.calls": ("families.windowed", "calls", "count"),
    "registry.build.calls": ("registry.build", "calls", "count"),
    "registry.default_cover.calls": ("registry.default_cover", "calls",
                                     "count"),
    "cli.parse_config.s": ("cli.parse_config", "incl_s", "s"),
    "cli.run_experiment.s": ("cli.run_experiment", "incl_s", "s"),
    "cli.write_outputs.s": ("cli.write_outputs", "incl_s", "s"),
    **{f"acceptance.{key}.s": (f"acceptance.{key}", "incl_s", "s")
       for key in CHECKS},
}


def _stat(traces, name, field):
    return sum(t["stats"][name][field] for t in traces)


def layer_counts(traces: list) -> dict:
    """Counters of one traced pass; they must repeat exactly."""
    counts = {name: _stat(traces, span, field)
              for name, (span, field, unit) in SPAN_METRICS.items()
              if unit == "count"}
    counts["spaces.samples"] = sum(t["samples"] for t in traces)
    counts["sensitivity.region_scan.hits"] = sum(t["scan_hits"]
                                                 for t in traces)
    counts["sensitivity.region_scan.misses"] = sum(t["scan_misses"]
                                                   for t in traces)
    counts["sensitivity.pairs"] = sum(s["pairs"] for t in traces
                                      for s in t["scans"])
    counts["cli.bytes_written"] = sum(t["bytes_written"] for t in traces)
    return counts


def cross_checks(traces: list) -> list:
    """Counts that must agree with each other; returns the failures."""
    numeric = [s for t in traces for s in t["scans"] if s["kind"] == "numeric"]
    symbolic = [s for t in traces for s in t["scans"]
                if s["kind"] == "symbolic"]
    orbit_calls = _stat(traces, "systems.orbit", "calls")
    orbit_steps = _stat(traces, "systems.orbit", "child_calls")
    expect_calls = sum(s["samples"] * s["width"] for s in numeric)
    expect_steps = sum(s["samples"] * s["width"] * s["horizon"]
                       for s in numeric)
    horizon_steps = sum(t["orbit_horizon_steps"] for t in traces)
    scan_dist = sum(t["scan_dist_symbolic"] for t in traces)
    expect_dist = sum(s["pairs"] * s["shifts"] for s in symbolic)
    problems = []
    if orbit_calls != expect_calls:
        problems.append(f"orbit.calls {orbit_calls} != samples over numeric "
                        f"scan misses {expect_calls}")
    if not orbit_steps == horizon_steps == expect_steps:
        problems.append(f"orbit_steps {orbit_steps} (map_at under orbit) vs "
                        f"calls x horizon {horizon_steps} vs {expect_steps}")
    if scan_dist != expect_dist:
        problems.append(f"dist_symbolic calls in scans {scan_dist} != pairs "
                        f"x distinct shifts {expect_dist}")
    return problems


def per_layer(untraced: list, traced_passes: list) -> dict:
    """Metric name -> (value, unit) from the first traced pass; run walls
    come from the untraced pass."""
    traces = [r["trace"] for r in traced_passes[0]]
    metrics = {name: (_stat(traces, span, field), unit)
               for name, (span, field, unit) in SPAN_METRICS.items()}
    for name, value in layer_counts(traces).items():
        metrics[name] = (value, "B" if name == "cli.bytes_written"
                         else "count")
    hits = metrics["sensitivity.region_scan.hits"][0]
    lookups = hits + metrics["sensitivity.region_scan.misses"][0]
    metrics["sensitivity.region_scan.hit_ratio"] = (
        hits / lookups if lookups else 0.0, "ratio")
    rows = {r["name"]: r for r in untraced}
    for name in INVOCATIONS:
        row = rows.get(name, {"wall_s": 0.0, "rss_mb": 0.0})
        metrics[f"run.{name}.wall_s"] = (row["wall_s"], "s")
        metrics[f"run.{name}.rss_mb"] = (row["rss_mb"], "MB")
    check_rss = {}
    for t in traces:
        check_rss.update(t["check_rss_mb"])
    for key in CHECKS:
        metrics[f"acceptance.{key}.rss_mb"] = (check_rss.get(key, 0.0), "MB")
    traced_wall = statistics.median(sum(r["wall_s"] for r in rows)
                                    for rows in traced_passes)
    metrics["trace.overhead_s"] = (
        traced_wall - sum(r["wall_s"] for r in untraced), "s")
    metrics["trace.uncovered_s"] = (
        sum(r["wall_s"] - r["trace"]["covered_s"]
            for r in traced_passes[0]), "s")
    return metrics


def traced_run(runner: Runner, workload: str, invs: list,
               warmup: list) -> tuple:
    runner.setup_times(0, discard=1)
    runner.run_pass(warmup)
    untraced = runner.run_pass(invs)
    # counts must repeat exactly; a second traced verify does not fit in
    # one run, so on verify the repeat is checked across two runs
    repeats = 1 if workload == "verify" else 2
    traced = [runner.run_pass(invs, traced=True) for _ in range(repeats)]
    problems = []
    for rows in traced:
        missing = [r["name"] for r in rows if "trace" not in r]
        if missing:
            problems.append(f"no trace written by {missing}")
            return {}, problems
        foreign = [r["trace"]["module"] for r in rows
                   if not r["trace"]["module"].startswith(str(SRC))]
        if foreign:
            problems.append(f"traced a nonauto outside this checkout: "
                            f"{foreign}")
        problems += cross_checks([r["trace"] for r in rows])
    first = layer_counts([r["trace"] for r in traced[0]])
    for rows in traced[1:]:
        again = layer_counts([r["trace"] for r in rows])
        if again != first:
            diff = {k: (first[k], again[k]) for k in first
                    if first[k] != again[k]}
            problems.append(f"counts differ between traced passes: {diff}")
    return per_layer(untraced, traced), problems


# ---------------------------------------------------------------------------
# Reporting


def environment(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "commit": commit}


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())["invocations"]


def record_reference(seeds: list) -> int:
    """Run each workload once per seed and merge its records in."""
    data = load_reference()
    run_dir = WORK / "record"
    shutil.rmtree(run_dir, ignore_errors=True)
    gate = Gate({})
    runner = Runner(run_dir, gate, time.monotonic() + RECORD_DEADLINE_S)
    for seed in seeds:
        for workload in WORKLOADS:
            invs = [inv for inv in workload_invocations(
                workload, seed, run_dir / "configs") if inv.key not in data]
            for inv, row in zip(invs, runner.run_pass(invs)):
                data[inv.key] = {"invocation": inv.name, **row["record"]}
                print(f"recorded {workload} seed {seed} {inv.name}")
            if gate.failures:
                print("\n".join(gate.failures), file=sys.stderr)
                return 1
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                       for k, v in sorted(data.items()))
    REFERENCE.write_text('{"invocations": {\n' + lines + "\n}}\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED",
                        help="store outputs for these seeds as the reference")
    args = parser.parse_args(argv)

    if not (SRC / "nonauto" / "cli.py").is_file():
        print(f"no nonauto sources under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    if args.record:
        return record_reference(args.record)
    if args.workload is None:
        parser.error("--workload is required")

    deadline = time.monotonic() + RUN_DEADLINE_S
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    gate = Gate(load_reference())
    runner = Runner(run_dir, gate, deadline)
    invs = workload_invocations(args.workload, args.seed, run_dir / "configs")
    warmup = warmup_invocations(args.workload, run_dir / "warmup")
    try:
        if args.trace:
            layers, problems = traced_run(runner, args.workload, invs, warmup)
            metrics = {name: {"value": v, "unit": u}
                       for name, (v, u) in layers.items()}
            detail = metrics
        else:
            e2e = end_to_end(runner, invs, warmup, args.seconds)
            problems = []
            metrics = {name: {"value": s["value"], "unit": u}
                       for name, (u, s) in e2e.items()}
            detail = {name: {"unit": u, **s} for name, (u, s) in e2e.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(gate.failures)
    result = {"correct": not failed and not problems,
              "attempted": gate.attempted, "failed": failed,
              "metrics": metrics}
    full = {"environment": environment(args),
            "failed_ops": failed / gate.attempted if gate.attempted else 0.0,
            "failures": gate.failures, "problems": problems,
            "metrics": detail}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_dir.name}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n")
    for line in gate.failures + problems:
        print(f"FAILED {line}")
    print("env " + json.dumps(full["environment"], sort_keys=True))
    print(f"failed_ops {full['failed_ops']:.4f} "
          f"({failed} of {gate.attempted})")
    if not args.trace:
        for name, s in detail.items():
            print(f"{name:12s} value {s['value']:.4f} median {s['median']:.4f} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} n {s['n']} {s['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
