"""Batch experiment runner and self-check front end.

``nonauto run config.json`` executes the probes described by a JSON config
and writes a versioned report plus per-region CSV and TSV series, all
byte-identical across reruns. The run is one ``probe_cover`` walk of the
cover for every mode and delta: a region's scan is built as the walk
reaches it, its max series and argmax pair are kept, and it is freed once
the walk is done with it. Each file is then streamed to a temporary
beside it, a line or a JSON chunk at a time, and renamed over its target.
So a run holds one region's scan, three rows of horizon + 1 per region
and the report, but no file's whole text, and a failed write leaves the
old file. ``nonauto verify`` prints the pass/fail table of the built-in
checks, and ``nonauto list`` enumerates the shipped systems.

Exit codes: 0 run complete or all checks pass, 1 check failure, 2 config
error, 3 unknown system, 4 output error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import families, spaces
from .families import FamilySpec, cofinite_family, nonempty, syndetic_family
from .registry import (
    COVER_KINDS,
    RESOLUTION,
    build,
    default_cover,
    registry_names,
)
from .sensitivity import drop_scans, probe_cover, region_scan
from .spaces import SYMBOLIC, WINDOW_RADIUS, cylinder_region, metric_ball
from .systems import MapSequence, sequence_from_dict

REPORT_SCHEMA = 1

# Largest memory a run's scans may keep, as ``parse_config`` estimates it
# before the run builds any; the shipped and built-in configs need under
# 70 MB.
MAX_RUN_BYTES = 2 ** 30
# times of the kept max series an output file reads at once
OUTPUT_BLOCK_ROWS = 1024

MODES = ("sensitive", "cofinite", "syndetic", "F-sensitive",
         "weakly-F-sensitive")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment config."""


class UnknownSystemError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    label: str
    sequence: MapSequence
    family: FamilySpec | None
    deltas: tuple
    horizon: int
    resolution: int
    cover: tuple
    modes: tuple
    out_dir: str


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@contextlib.contextmanager
def _refused(prefix: str = "", errors=(KeyError, TypeError, ValueError)):
    """Raise the block's ``errors`` as ConfigErrors led by ``prefix``."""
    try:
        yield
    except errors as exc:
        raise ConfigError(prefix + str(exc)) from exc


def _parse_cover(spec, space):
    if isinstance(spec, str):
        with _refused():
            return default_cover(spec)
    _require(isinstance(spec, list) and spec,
             "cover must be a kind name or a nonempty list of regions")
    regions = []
    for i, rd in enumerate(spec):
        _require(isinstance(rd, dict), f"cover entry {i} is not an object")
        kind = rd.get("kind", "ball")
        label = rd.get("label", "")
        _require(isinstance(label, str),
                 f"cover entry {i} label must be a string")
        label = label or f"region-{i:02d}"
        if kind == "ball":
            _require("center" in rd and "radius" in rd,
                     f"ball region {i} needs center and radius")
        elif kind == "cylinder":
            _require(isinstance(rd.get("constraints"), dict),
                     f"cylinder region {i} needs a constraints object")
        else:
            raise ConfigError(f"unknown region kind {kind!r} in cover")
        with _refused(f"bad cover entry {i}: "):
            if kind == "ball":
                regions.append(metric_ball(
                    space, spaces.number_value(rd["center"], "ball center"),
                    spaces.number_value(rd["radius"], "ball radius"),
                    label=label))
            else:
                keys = rd["constraints"]
                constraints = {int(j): spaces.int_value(v, "cylinder value")
                               for j, v in keys.items()}
                # int() also reads "+0", "-0", " 1 " and non-ASCII digits,
                # so two keys could name one coordinate
                _require(set(map(str, constraints)) == set(keys),
                         "cylinder keys must be integers written plainly")
                regions.append(cylinder_region(constraints, label=label))
    return tuple(regions)


def _run_bytes(sequence: MapSequence, cover, horizon: int,
               resolution: int) -> int:
    """About the bytes the run's scans keep, from its parameters alone.

    It still counts every region's scan, though ``run_experiment`` holds
    one at a time: an upper bound, which ROADMAP item 4 recounts.
    ``write_outputs`` streams every file and reads the kept rows a block
    of ``OUTPUT_BLOCK_ROWS`` times at once. A config region is a ball or a
    cylinder: a point region of at most resolution + 1 points (a ball's
    grid and its centre; a cylinder's from resolution 12 up).
    """
    n = resolution + 1
    pairs = n * (n - 1) // 2
    if sequence.space == SYMBOLIC:
        # pair x shift table; a window that no shift drains sees at most
        # this many distinct shifts
        per_region = pairs * min(horizon + 1, 2 * WINDOW_RADIUS - 1) * 8
    else:
        per_region = (horizon + 1) * n * 8  # orbits
    # the max series, two argmax rows and a symbolic time -> column map
    per_region += 4 * (horizon + 1) * 8
    total = len(cover) * per_region + 2 * pairs * 8  # pair indices
    while sequence.rule == "kth-iterate":
        # a k-th iterate builds k base maps per map
        horizon *= sequence.k
        total += horizon * 8
        sequence = sequence.base
    return total


def parse_config(raw: dict, out_override: str | None = None) -> ExperimentConfig:
    """Check a raw config and estimate its scans' bytes, building none:
    ``run_experiment`` builds each region's scan in its turn."""
    _require(isinstance(raw, dict), "config root must be an object")
    _require("system" in raw, "config needs a 'system' entry")
    _require(all(isinstance(raw.get(k, ""), str) for k in ("label", "out")),
             "'label' and 'out' must be strings")

    system = raw["system"]
    named = None
    if isinstance(system, str):
        try:
            named = build(system)
        except KeyError as exc:
            raise UnknownSystemError(exc.args[0]) from exc
        label, sequence = system, named.sequence
    elif isinstance(system, dict):
        with _refused("bad inline system: "):
            sequence = sequence_from_dict(system)
        label = raw.get("label", "inline")
    else:
        raise ConfigError("'system' must be a name or an inline object")
    space = sequence.space

    modes = raw.get("modes")
    _require(isinstance(modes, list) and modes,
             "config needs a nonempty 'modes' list")
    for m in modes:
        _require(m in MODES, f"unknown mode {m!r}; known: {', '.join(MODES)}")

    if "deltas" in raw:
        deltas = raw["deltas"]
        _require(isinstance(deltas, list) and deltas,
                 "'deltas' must be a nonempty list")
    elif "delta" in raw:
        deltas = [raw["delta"]]
    elif named is not None:
        deltas = list(named.deltas)
    else:
        raise ConfigError("config needs 'delta' or 'deltas'")
    with _refused("bad delta: "):
        deltas = tuple(spaces.number_value(d, "delta") for d in deltas)
    _require(all(d > 0 for d in deltas), "every delta must be positive")

    family = None
    if "family" in raw:
        with _refused("bad family: "):
            family = families.family_from_dict(raw["family"])
    if any(m in ("F-sensitive", "weakly-F-sensitive") for m in modes):
        _require(family is not None,
                 "family-based modes need a 'family' entry")

    with _refused():
        horizon = spaces.int_value(
            raw.get("horizon", named.horizon if named else None), "horizon")
        resolution = spaces.int_value(raw.get("resolution", RESOLUTION),
                                      "resolution")
    _require(horizon >= 1, "horizon must be >= 1")
    _require(resolution >= 2, "resolution must be >= 2")

    cover_spec = raw.get("cover")
    cover = _parse_cover(COVER_KINDS[space] if cover_spec is None
                         else cover_spec, space)
    files = {}
    for r in cover:
        path = _hits_name(r.label)
        _require(path not in files, f"cover labels {files.get(path)!r} and "
                                    f"{r.label!r} would both write {path}")
        files[path] = r.label
    size = _run_bytes(sequence, cover, horizon, resolution)
    # an int past the float range would overflow the division
    mb = size / 2 ** 20 if size < 2 ** 1000 else math.inf
    _require(size <= MAX_RUN_BYTES,
             f"the run's scans need about {mb:.4g} MB, over the limit of "
             f"{MAX_RUN_BYTES / 2 ** 20:.4g} MB; lower the horizon, the "
             f"resolution or the cover")

    return ExperimentConfig(label=label, sequence=sequence, family=family,
                            deltas=deltas, horizon=horizon,
                            resolution=resolution, cover=cover,
                            modes=tuple(modes),
                            out_dir=out_override or raw.get("out", "out"))


def _mode_family(mode: str, cfg: ExperimentConfig) -> FamilySpec:
    if mode == "sensitive":
        return nonempty()
    default = {"cofinite": cofinite_family, "syndetic": syndetic_family}
    if mode in default and (cfg.family is None or cfg.family.kind != mode):
        return default[mode]()
    return cfg.family


def run_experiment(cfg: ExperimentConfig) -> tuple:
    """Run every (mode, delta) probe in one ``probe_cover`` walk, which
    asks for a region when it is done with the last: build the region's
    scan (once for regions equal but for their label), keep its rows and
    free it after the walk's turn. Returns the report and, in cover order,
    each region's rows ``(max_series, argmax_i, argmax_j)``. A scan that
    cannot be built (a region of another space, a shift that drains the
    sampled window) is a ConfigError; a probe's own error is not."""
    series, kept = [], {}

    def regions():
        for region in cfg.cover:
            key = region.unlabelled()
            if key not in kept:
                with _refused(errors=ValueError):
                    scan = region_scan(cfg.sequence, region, cfg.horizon,
                                       cfg.resolution)
                kept[key] = scan.max_series, scan.argmax_i, scan.argmax_j
                del scan
            series.append(kept[key])
            yield region
            # the walk is done with it: this frees the region's scan
            drop_scans(cfg.sequence)

    requested = [(mode, delta) for mode in cfg.modes for delta in cfg.deltas]
    reports = probe_cover(cfg.sequence, [
        (mode == "weakly-F-sensitive", delta, _mode_family(mode, cfg))
        for mode, delta in requested], regions(), cfg.horizon, cfg.resolution)
    entries = [{**rep.to_dict(), "requested_mode": mode}
               for (mode, _), rep in zip(requested, reports)]
    report = {"schema": REPORT_SCHEMA, "system": cfg.label,
              "horizon": cfg.horizon, "resolution": cfg.resolution,
              "deltas": list(cfg.deltas), "reports": entries}
    return report, series


@contextlib.contextmanager
def _write_atomic(path: Path):
    """Yield a text file open on a temporary beside ``path``, which then
    replaces ``path``; on any exception the temporary is removed and
    ``path`` keeps its old bytes."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _hits_name(label: str) -> str:
    return "hits_" + re.sub(r"[^A-Za-z0-9_-]", "_", label) + ".csv"


def write_outputs(cfg: ExperimentConfig, report: dict, series) -> list:
    """Write the run's files line by line from ``run_experiment``'s report
    and kept rows, looking up no scan: writing adds no scan and never a
    whole file's text to the three rows of horizon + 1 per region and the
    report that the run holds. Returns the paths written."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    report_path = out / "report.json"
    with _write_atomic(report_path) as f:
        json.dump(report, f, sort_keys=True, indent=2)
        f.write("\n")
    written.append(report_path)

    # hit series use the first delta; the rows are delta-independent
    delta = cfg.deltas[0]
    for region, (top, best_i, best_j) in zip(cfg.cover, series):
        path = out / _hits_name(region.label)
        with _write_atomic(path) as f:
            f.write("n,max_separation,witness\n")
            # the times of the scan's times(delta), a block of times at once
            for start in range(1, cfg.horizon + 1, OUTPUT_BLOCK_ROWS):
                part = top[start:start + OUTPUT_BLOCK_ROWS]
                hit = np.flatnonzero(part > delta) + start
                for n, sep, i, j in zip(hit.tolist(), top[hit].tolist(),
                                        best_i[hit].tolist(),
                                        best_j[hit].tolist()):
                    f.write(f"{n},{sep!r},{i}-{j}\n")
        written.append(path)

    plot_path = out / "plotdata.tsv"
    with _write_atomic(plot_path) as f:
        f.write("n\t" + "\t".join(r.label for r in cfg.cover) + "\n")
        for start in range(0, cfg.horizon + 1, OUTPUT_BLOCK_ROWS):
            stop = start + OUTPUT_BLOCK_ROWS
            block = np.stack([top[start:stop] for top, _, _ in series],
                             axis=1)
            for n, row in enumerate(block, start):
                f.write(f"{n}\t" + "\t".join(map(repr, row.tolist()))
                        + "\n")
    written.append(plot_path)
    return written


def _cmd_run(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text())
    # ValueError also covers bytes that are not UTF-8 and integers too
    # long for int(), besides malformed JSON
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(raw, out_override=args.out)
        report, series = run_experiment(cfg)
    except UnknownSystemError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        written = write_outputs(cfg, report, series)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4
    verdicts = {r["requested_mode"]: r["verdict"] for r in report["reports"]}
    for mode, verdict in verdicts.items():
        print(f"{cfg.label}: {mode} -> {verdict}")
    print(f"wrote {len(written)} files to {cfg.out_dir}")
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance  # only verify loads the check battery
    try:
        results = acceptance.run_all(only=args.only)
    except KeyError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    width = max(len(r.key) for r in results)
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{flag}  {r.key:<{width}}  {r.title}")
        if not r.passed:
            print(f"      {r.details}")
    passed = sum(r.passed for r in results)
    print(f"{passed} of {len(results)} checks passed")
    return 0 if passed == len(results) else 1


def _cmd_list(_args) -> int:
    width = max(len(n) for n in registry_names())
    for name in registry_names():
        named = build(name)
        cover = COVER_KINDS[named.sequence.space]
        print(f"{name:<{width}}  {named.description}")
        print(f"{'':<{width}}  deltas={list(named.deltas)} "
              f"horizon={named.horizon} resolution={RESOLUTION} "
              f"cover={cover}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nonauto",
        description=("finite-horizon sensitivity probes for time-varying "
                     "iterated maps"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the probes described by a "
                                       "JSON config and write reports")
    p_run.add_argument("config", help="path to the experiment config")
    p_run.add_argument("--out", default=None,
                       help="output directory (overrides the config)")

    p_verify = sub.add_parser("verify", help="run the built-in checks and "
                                             "print a pass/fail table")
    p_verify.add_argument("--only", default=None,
                          help="run a single named check")

    sub.add_parser("list", help="list built-in systems")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_list(args)


if __name__ == "__main__":
    sys.exit(main())
