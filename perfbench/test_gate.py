"""Self-tests of the benchmark's correctness gate and count cross-checks.

Run from the repository root: python3 -m pytest perfbench/test_gate.py -q
"""

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402


def _inline_invocation(tmp_path):
    return bench._inline_invocation(tmp_path)


def _run_once(inv, tmp_path, name="out"):
    out_dir = tmp_path / name
    stdout = tmp_path / f"{name}.stdout"
    m = bench.spawn([sys.executable, "-m", "nonauto.cli", *inv.args,
                     "--out", str(out_dir)], stdout, 120)
    return bench.output_record(inv, m["exit"], stdout.read_text(), out_dir), \
        out_dir


def test_reference_matches_and_tampered_digest_is_caught(tmp_path):
    inv = _inline_invocation(tmp_path)
    assert inv.name == "inline_two_balls"
    reference = bench.load_reference()
    assert inv.key in reference, "reference.json lacks the inline config"
    record, out_dir = _run_once(inv, tmp_path)

    assert bench.Gate(reference).check(inv, record, out_dir)

    tampered = copy.deepcopy(reference)
    files = tampered[inv.key]["files"]
    name = sorted(files)[0]
    files[name] = ("0" if files[name][0] != "0" else "1") + files[name][1:]
    gate = bench.Gate(tampered)
    assert not gate.check(inv, record, out_dir)
    assert gate.failures == ["inline_two_balls: differs from reference"]


def test_changed_output_byte_is_caught(tmp_path):
    inv = _inline_invocation(tmp_path)
    record, out_dir = _run_once(inv, tmp_path)
    plot = out_dir / "plotdata.tsv"
    plot.write_text(plot.read_text().replace("\t", " ", 1))
    changed = bench.output_record(inv, record["exit"],
                                  "\n".join(record["verdicts"]), out_dir)
    gate = bench.Gate({})
    assert gate.check(inv, record, out_dir)
    assert not gate.check(inv, changed, out_dir)
    assert "first pass" in gate.failures[0]


def test_verdict_line_must_match_report(tmp_path):
    inv = _inline_invocation(tmp_path)
    record, out_dir = _run_once(inv, tmp_path)
    wrong = dict(record, verdicts=[v + "!" for v in record["verdicts"]])
    gate = bench.Gate({})
    assert not gate.check(inv, wrong, out_dir)
    assert "verdict lines" in gate.failures[0]


def test_verify_needs_exactly_the_expected_red_check():
    inv = bench.workload_invocations("verify", 0, Path("."))[0]
    checks = {key: "PASS" for key in bench.CHECKS}
    checks["shift-blocks"] = "FAIL"
    good = {"exit": 1, "checks": checks, "stdout_sha256": "x"}
    assert bench.Gate({}).check(inv, good, Path("."))

    all_green = {"exit": 0, "checks": {k: "PASS" for k in bench.CHECKS},
                 "stdout_sha256": "x"}
    gate = bench.Gate({})
    assert not gate.check(inv, all_green, Path("."))
    assert "red checks ()" in gate.failures[0]

    wrong_exit = dict(good, exit=0)
    assert not bench.Gate({}).check(inv, wrong_exit, Path("."))


def _trace(orbit_calls, orbit_steps, horizon_steps, scan_dist, scans):
    stats = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                    "child_calls": 0}
             for name in ("systems.orbit",)}
    stats["systems.orbit"].update(calls=orbit_calls, child_calls=orbit_steps)
    return {"stats": stats, "orbit_horizon_steps": horizon_steps,
            "scan_dist_symbolic": scan_dist, "scans": scans}


def test_cross_checks():
    scans = [{"kind": "numeric", "samples": 65, "width": 1, "horizon": 200,
              "pairs": 2080, "shifts": 0},
             {"kind": "symbolic", "samples": 34, "width": 1, "horizon": 2000,
              "pairs": 561, "shifts": 3}]
    good = _trace(65, 65 * 200, 65 * 200, 561 * 3, scans)
    assert bench.cross_checks([good]) == []

    for broken in (_trace(64, 65 * 200, 65 * 200, 561 * 3, scans),
                   _trace(65, 65 * 200 - 1, 65 * 200, 561 * 3, scans),
                   _trace(65, 65 * 200, 65 * 200, 561 * 3 + 1, scans)):
        assert len(bench.cross_checks([broken])) == 1


def test_seeded_covers_are_reproducible():
    assert bench.draw_cover(0) is None
    a, b = bench.draw_cover(5), bench.draw_cover(5)
    assert a == b and a != bench.draw_cover(6)
    assert len(a) == bench.COVER_SIZE
    assert all(bench.COVER_RADIUS <= c["center"] <= 1 - bench.COVER_RADIUS
               and c["radius"] == bench.COVER_RADIUS for c in a)
    json.dumps(a)
