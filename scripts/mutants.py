#!/usr/bin/env python3
"""Mutation gate: plant known faults one at a time and check that the
tests named for each one fail.

Usage, from the repository root:

    python3 scripts/mutants.py [NAME ...]

Each row of ``MUTANTS`` names a fault, the file it goes in, the exact old
text, the new text and the tests that must catch it. For each row (every
row, or only the named ones) the script copies ``src/``, ``tests/``,
``scripts/``, ``perfbench/`` and ``pyproject.toml`` to a temporary
directory, replaces the old text, which must occur exactly once, and runs
the row's tests there with ``pytest -x``. A mutant is killed only when a
test fails (pytest exit status 1); an error that stops collection is
reported, not counted as a kill. Before any mutant, every named test runs
on an unmutated copy and must pass. The script exits 1 if an old text
does not occur exactly once, the unmutated copy fails, or a mutant
survives. It uses the standard library only and is not part of the test
suite, which checks only that every old text occurs exactly once.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")

Mutant = namedtuple("Mutant", "name file old new tests")

RUN_SHAPE = "tests/test_cli.py::test_each_region_scan_is_built_once_per_run"

MUTANTS = (
    # the cover walk of ``nonauto run`` and ``probe_cover``
    Mutant("run-keeps-every-scan", "src/nonauto/cli.py",
           "            yield region\n"
           "            # the walk is done with it: this frees the region's"
           " scan\n"
           "            drop_scans(cfg.sequence)\n",
           "            yield region\n",
           (RUN_SHAPE, "tests/test_cli.py::test_run_holds_one_region_scan")),
    Mutant("run-keeps-its-last-build", "src/nonauto/cli.py",
           "                kept[key] = scan.max_series, scan.argmax_i,"
           " scan.argmax_j\n"
           "                del scan\n",
           "                kept[key] = scan.max_series, scan.argmax_i,"
           " scan.argmax_j\n",
           (RUN_SHAPE,)),
    Mutant("walk-keeps-its-last-scan", "src/nonauto/sensitivity.py",
           "            del scan\n", "",
           ("tests/test_sensitivity.py::TestProbeOnIterable::"
            "test_hyperspace_probe_holds_one_ball_scan", RUN_SHAPE)),
    Mutant("walk-looks-up-per-probe", "src/nonauto/sensitivity.py",
           "                _classify(scan, weak, delta, fam,"
           " hit_sets[delta])\n",
           "                _classify(region_scan(seq, region, horizon,"
           " resolution),\n"
           "                          weak, delta, fam, hit_sets[delta])\n",
           (RUN_SHAPE,)),
    Mutant("walk-hit-set-per-probe", "src/nonauto/sensitivity.py",
           "                _classify(scan, weak, delta, fam,"
           " hit_sets[delta])\n",
           "                _classify(scan, weak, delta, fam,"
           " scan.times(delta))\n",
           ("tests/test_cli.py::"
            "test_strong_modes_at_one_delta_share_one_hit_set",)),
    Mutant("walk-classifies-each-label", "src/nonauto/sensitivity.py",
           "        key = region.unlabelled()\n", "        key = region\n",
           ("tests/test_sensitivity.py::TestProbeOnIterable::"
            "test_regions_equal_but_for_label_share_one_scan",)),
    Mutant("run-builds-each-label", "src/nonauto/cli.py",
           "            key = region.unlabelled()\n",
           "            key = region\n",
           ("tests/test_cli.py::"
            "test_regions_equal_but_for_label_are_built_once",)),
    # the interval summary takes a block of times at once
    Mutant("interval-summary-whole-horizon", "src/nonauto/sensitivity.py",
           "    step = _block_rows(count)\n", "    step = width\n",
           ("tests/test_sensitivity.py::TestScanMachinery::"
            "test_scan_build_peak_above_what_it_keeps",)),
    # recorded earlier in CHANGES.md as killed on a scratch copy
    Mutant("numpy-before-blas-cap", "src/nonauto/__init__.py",
           "import os\n\n# nonauto makes no BLAS call",
           "import os\n\nimport numpy\n\n"
           "# nonauto makes no BLAS call",
           ("tests/test_cli.py::TestBlasThreadCap::"
            "test_import_starts_no_worker_thread",)),
    Mutant("whole-text-report", "src/nonauto/cli.py",
           "        json.dump(report, f, sort_keys=True, indent=2)\n"
           "        f.write(\"\\n\")\n",
           "        f.write(json.dumps(report, sort_keys=True, indent=2)"
           " + \"\\n\")\n",
           ("tests/test_hygiene.py::test_package_writes_no_whole_text",)),
    Mutant("whole-series-writer", "src/nonauto/cli.py",
           "OUTPUT_BLOCK_ROWS = 1024\n", "OUTPUT_BLOCK_ROWS = 2 ** 30\n",
           ("tests/test_cli.py::TestStreamedOutputs::"
            "test_write_holds_a_fraction_of_the_series_file",)),
    Mutant("witness-without-union", "src/nonauto/families.py",
           "    unions = np.bitwise_or.accumulate(refused)\n",
           "    unions = refused\n",
           ("tests/test_families.py::TestPartitionWitness::"
            "test_witness_is_the_first_accepted_running_union",)),
    Mutant("verify-clears-the-cache-object", "src/nonauto/acceptance.py",
           "        if key == SCAN_FREE_FROM:\n"
           "            drop_scans()\n",
           "        if key == SCAN_FREE_FROM:\n"
           "            region_scan.cache_clear()\n",
           ("tests/test_hygiene.py::"
            "test_package_reads_no_scan_cache_attribute",)),
    Mutant("shift-series-returns-its-memo", "src/nonauto/systems.py",
           "    return totals[:horizon + 1]\n", "    return totals\n",
           ("tests/test_systems.py::TestNetShift::"
            "test_series_is_kept_per_sequence",)),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    return (root / mutant.file).read_text().count(mutant.old)


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        else:
            shutil.copy2(src, dest / name)


def run_tests(root: Path, tests) -> int:
    """pytest's exit status on ``tests`` in the copy at ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=root, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="rows to run (default: every row)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant: {', '.join(sorted(unknown))}")
    rows = [m for m in MUTANTS if not args.names or m.name in args.names]

    start = time.perf_counter()
    bad = [m.name for m in rows if occurrences(m) != 1]
    if bad:
        print(f"old text does not occur exactly once: {', '.join(bad)}")
        return 1
    failed = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        tests = sorted({t for m in rows for t in m.tests})
        code = run_tests(clean, tests)
        if code != 0:
            print(f"the unmutated copy fails its tests (pytest exit {code})")
            return 1
        for m in rows:
            root = Path(tmp) / m.name
            copy_tree(root)
            path = root / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            t = time.perf_counter()
            code = run_tests(root, m.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(
                code, f"ERROR (pytest exit {code})")
            print(f"{verdict:<8}  {m.name}  {time.perf_counter() - t:.1f} s")
            if code != 1:
                failed.append(m.name)
            shutil.rmtree(root)
    print(f"{len(rows) - len(failed)} of {len(rows)} mutants killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
