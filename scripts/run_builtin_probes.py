#!/usr/bin/env python3
"""Probe every built-in system at its recommended parameters.

Writes one output directory per system (report.json, per-region hit CSVs,
plotdata.tsv) and prints the verdict lines. Strong and per-pair probes both
run, with the count-and-tail family as the classifier.
"""

import argparse
import sys

from nonauto.cli import parse_config, run_experiment, write_outputs
from nonauto.registry import registry_names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="probe-results",
                        help="root directory for per-system outputs")
    parser.add_argument("--systems", nargs="*", default=None,
                        choices=registry_names(),
                        help="subset of systems to run (default: all)")
    args = parser.parse_args(argv)

    names = args.systems or list(registry_names())
    for name in names:
        # deltas, horizon, resolution and cover default to the registry's
        raw = {
            "system": name,
            "modes": ["F-sensitive", "weakly-F-sensitive"],
            "family": {"kind": "infinite", "min_count": 10,
                       "tail_fraction": 0.25},
        }
        cfg = parse_config(raw, out_override=f"{args.out}/{name}")
        report = run_experiment(cfg)
        write_outputs(cfg, report)
        for entry in report["reports"]:
            print(f"{name}: {entry['requested_mode']} "
                  f"delta={entry['delta']} -> {entry['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
