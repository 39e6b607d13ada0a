"""Command-line flows: config parsing, exit codes, output determinism."""

import contextlib
import copy
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonauto import cli
from nonauto.cli import (
    ConfigError,
    main,
    parse_config,
    run_experiment,
    write_outputs,
)
from nonauto.registry import COVER_KINDS, RESOLUTION, build, registry_names
from nonauto.sensitivity import region_scan
from nonauto.systems import cyclic_sequence, piecewise_linear, sequence_to_dict

F1_KNOTS = [[0.0, 0.0], [0.25, 1.0], [1.0, 0.25]]
CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"
COUNT_AND_TAIL = {"kind": "infinite", "min_count": 10, "tail_fraction": 0.25}
# small enough that no run drawn below takes long
SMALL_BUDGET = 2 ** 20


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def kth_iterate_of_f1(k, **tag):
    return {"rule": "kth-iterate", "k": k, **tag,
            "base": {"rule": "cyclic",
                     "maps": [{"kind": "piecewise-linear",
                               "knots": F1_KNOTS}]}}


def shift_system(power):
    return {"rule": "cyclic", "space": "symbolic",
            "maps": [{"kind": "shift", "power": power}]}


def rotation_system(offset):
    return {"rule": "cyclic", "maps": [{"kind": "rotation", "offset": offset}]}


def composition_config(tmp_path, **overrides):
    payload = {
        "system": "example41_composition",
        "modes": ["F-sensitive"],
        "family": {"kind": "infinite", "min_count": 10,
                   "tail_fraction": 0.25},
        "delta": 0.2,
        "horizon": 200,
    }
    payload.update(overrides)
    return write_config(tmp_path / "config.json", payload)


class TestRunCommand:
    def test_composition_run_writes_reports(self, tmp_path, capsys):
        cfg = composition_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert report["system"] == "example41_composition"
        assert report["reports"][0]["verdict"] == "holds-at-horizon"
        assert len(list(out.glob("hits_*.csv"))) == 16
        assert (out / "plotdata.tsv").exists()
        assert "holds-at-horizon" in capsys.readouterr().out

    def test_identity_fails_at_horizon(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "system": "identity", "modes": ["sensitive"], "delta": 0.1,
            "horizon": 50,
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["reports"][0]["verdict"] == "fails-at-horizon"
        # no hits: header line only
        csv = (out / "hits_ball-00.csv").read_text().splitlines()
        assert csv == ["n,max_separation,witness"]

    def test_inline_system_with_custom_cover(self, tmp_path):
        seq = cyclic_sequence([piecewise_linear(F1_KNOTS)])
        cfg = write_config(tmp_path / "c.json", {
            "system": sequence_to_dict(seq),
            "label": "lone-tent",
            "modes": ["sensitive"],
            "delta": 0.2,
            "horizon": 60,
            "resolution": 16,
            "cover": [
                {"kind": "ball", "center": 0.1, "radius": 0.05,
                 "label": "low"},
                {"kind": "ball", "center": 0.6, "radius": 0.05,
                 "label": "mid"},
            ],
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["system"] == "lone-tent"
        labels = [r["region"] for r in report["reports"][0]["regions"]]
        assert labels == ["low", "mid"]

    def test_plotdata_has_region_columns(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "system": "identity", "modes": ["sensitive"], "delta": 0.1,
            "horizon": 10,
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        lines = (out / "plotdata.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "n"
        assert len(header) == 17
        assert len(lines) == 12  # header + times 0..10


# bad values refused by what their message names, not by a later symptom: an
# overflowing slope would otherwise surface as the nan point it steps to
NAMED_IN_ERROR = {"knot-slope-overflow": "(1e-310, 1.0)"}


class TestExitCodes:
    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        b"\xff\xfe{",
        b'{"system": "identity", "horizon": 1' + b"0" * 5000 + b"}",
    ], ids=["not-utf8", "integer-too-long"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys,
                                               payload):
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload)
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    def test_unknown_system(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "system": "volcano", "modes": ["sensitive"], "delta": 0.1,
        })
        assert main(["run", cfg]) == 3
        assert "volcano" in capsys.readouterr().err

    def test_missing_modes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "system": "identity", "delta": 0.1,
        })
        assert main(["run", cfg]) == 2

    def test_family_mode_without_family(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "system": "identity", "modes": ["F-sensitive"], "delta": 0.1,
        })
        assert main(["run", cfg]) == 2

    def test_nonpositive_delta(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "system": "identity", "modes": ["sensitive"], "delta": -1.0,
        })
        assert main(["run", cfg]) == 2

    @pytest.mark.parametrize("overrides", [
        {"deltas": ["abc"]},
        {"delta": None},
        {"cover": [{"center": 0.5, "radius": -1}]},
        {"system": "example31", "cover": [{"kind": "cylinder",
                                           "constraints": {"x": 1}}]},
        {"horizon": True},
        {"resolution": True},
        {"cover": [{"center": 5.0, "radius": 0.1}]},
        {"cover": [{"center": 0.5, "radius": 0.1, "label": 7}]},
        {"delta": True},
        {"deltas": [0.1, True]},
        {"cover": "nope"},
        {"family": 5},
        {"cover": "cylinders"},
        {"cover": [{"kind": "cylinder", "constraints": {"0": 1}}]},
        {"family": {"kind": "dual", "of": 5}},
        {"cover": [{"center": 0.5, "radius": 1e-300}]},
        {"family": {"kind": "infinite", "min_count": 1e400}},
        {"deltas": [1e309]},
        {"system": "example31", "cover": [{"kind": "cylinder",
                                           "constraints": {"0": 1e400}}]},
        {"system": {"rule": "cyclic", "space": "interval",
                    "maps": [{"kind": "shift", "power": 1}]}},
        {"system": {"rule": "cyclic", "space": "circle",
                    "maps": [{"kind": "piecewise-linear", "knots": F1_KNOTS}]}},
        {"system": {"rule": "cyclic", "space": "interval",
                    "maps": [{"kind": "rotation", "offset": 0.3}]}},
        {"system": {"rule": "block-structured", "space": "interval",
                    "generator": "shift-blocks"}},
        {"system": {"rule": "block-structured", "space": "interval",
                    "generator": "rot-harmonic"}},
        {"system": {"rule": "explicit-list", "space": "circle",
                    "maps": [{"kind": "rotation", "offset": 0.3},
                             {"kind": "piecewise-linear", "knots": F1_KNOTS}]}},
        {"system": {"rule": "cyclic", "space": "torus",
                    "maps": [{"kind": "identity"}]}},
        {"system": {"rule": "cyclic", "maps": [{"kind": "identity"}]}},
        {"system": kth_iterate_of_f1(2, space="circle")},
        {"system": kth_iterate_of_f1(2.9)},
        {"system": kth_iterate_of_f1(True)},
        {"system": "example41_f1",
         "cover": [{"center": -0.05, "radius": 0.1}]},
        {"cover": [{"center": 1.05, "radius": 0.1}]},
        {"cover": [{"center": 0.5, "radius": float("nan")}]},
        {"system": "example31", "cover": [{"center": 0.5, "radius": 0.1}]},
        {"system": {"rule": "cyclic", "maps": "x"}},
        {"system": {"rule": "cyclic", "maps": [5]}},
        {"system": {"rule": "kth-iterate", "k": 2, "base": None}},
        {"system": shift_system(float("inf"))},
        {"system": {"rule": "cyclic", "maps": [{
            "kind": "piecewise-linear",
            "knots": [[0.0, 0.0], [float("nan"), 1.0], [1.0, 0.25]]}]}},
        {"system": rotation_system(float("nan"))},
        {"system": rotation_system(float("inf"))},
        {"system": shift_system(1.9)},
        {"system": shift_system(True)},
        {"cover": [{"center": "0.5", "radius": 0.1}]},
        {"cover": [{"center": True, "radius": 0.1}]},
        {"cover": [{"center": 0.5, "radius": "0.1"}]},
        {"system": "example31", "cover": [{"kind": "cylinder",
                                           "constraints": {"0": 1.5}}]},
        {"system": "example31", "cover": [{"kind": "cylinder",
                                           "constraints": {"1": True}}]},
        {"system": "example31", "cover": [{"kind": "cylinder",
                                           "constraints": {"0": "1"}}]},
        {"family": {"kind": "infinite", "min_count": 2.9}},
        {"family": {"kind": "infinite", "tail_fraction": True}},
        {"family": {"kind": "syndetic", "max_gap": 1.9}},
        {"family": {"kind": "syndetic", "max_gap": "7"}},
        {"label": 5},
        {"out": None},
        {"system": {"rule": "cyclic", "maps": [{
            "kind": "piecewise-linear",
            "knots": [[0.0, "0"], [0.25, 1.0], [1.0, 0.25]]}]}},
        {"system": {"rule": "cyclic", "maps": [{
            "kind": "piecewise-linear",
            "knots": [[False, 0.0], [0.25, 1.0], [1.0, 0.25]]}]}},
        {"system": "example31", "cover": [{"kind": "cylinder",
                                           "constraints": {"0": 1, "+0": 0}}]},
        {"system": "example31", "cover": [{"kind": "cylinder",
                                           "constraints": {" 1 ": 1}}]},
        {"system": "example31", "cover": [{"kind": "cylinder",
                                           "constraints": {"\u0663": 1}}]},
        {"system": "example31", "cover": [{"kind": "cylinder",
                                           "constraints": {"-0": 1}}]},
        {"system": {"rule": "cyclic", "maps": [{
            "kind": "piecewise-linear",
            "knots": [[0.0, 0.0], [1e-310, 1.0], [1.0, 0.0]]}]}},
    ], ids=["delta-text", "delta-null", "negative-radius", "cylinder-key",
            "horizon-bool", "resolution-bool", "ball-off-interval",
            "label-number", "delta-bool", "deltas-bool", "cover-kind-unknown",
            "family-number", "cover-kind-other-space",
            "cylinder-on-interval", "dual-of-number", "ball-degenerate",
            "count-infinite", "delta-infinite", "cylinder-value-infinite",
            "shift-tagged-interval", "knots-tagged-circle",
            "rotation-tagged-interval", "shift-blocks-tagged-interval",
            "rot-harmonic-tagged-interval", "mixed-maps-tagged-circle",
            "identity-tagged-unknown", "identity-untagged",
            "iterate-tagged-circle", "iterate-k-fraction", "iterate-k-bool",
            "ball-below-interval", "ball-above-interval", "radius-nan",
            "ball-on-symbolic", "maps-text", "map-number", "iterate-base-null",
            "power-infinite", "knot-nan", "offset-nan", "offset-infinite",
            "power-fraction", "power-bool", "center-text", "center-bool",
            "radius-text", "cylinder-value-fraction", "cylinder-value-bool",
            "cylinder-value-text", "min-count-fraction", "tail-fraction-bool",
            "max-gap-fraction", "max-gap-text", "top-label-number",
            "out-null", "knot-text", "knot-bool", "cylinder-key-plus-zero",
            "cylinder-key-blanks", "cylinder-key-arabic-digit",
            "cylinder-key-minus-zero", "knot-slope-overflow"])
    def test_bad_values_are_config_errors(self, tmp_path, capsys, overrides,
                                          request):
        payload = {"system": "identity", "modes": ["sensitive"],
                   "delta": 0.1, "horizon": 20, **overrides}
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert NAMED_IN_ERROR.get(request.node.callspec.id, "") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("labels", [("a b", "a_b"), ("x", "x"),
                                        ("region-01", None)],
                             ids=["same-file-name", "same-label",
                                  "default-label"])
    def test_labels_naming_one_csv_are_refused(self, tmp_path, capsys,
                                               labels):
        cover = [{"center": 0.25, "radius": 0.1},
                 {"center": 0.75, "radius": 0.1}]
        for entry, label in zip(cover, labels):
            if label is not None:
                entry["label"] = label
        cfg = write_config(tmp_path / "c.json", {
            "system": "identity", "modes": ["sensitive"], "delta": 0.1,
            "horizon": 20, "cover": cover})
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        first, second = labels[0], labels[1] or "region-01"
        assert f"{first!r} and {second!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("power", [1, -1])
    def test_shift_that_drains_the_window_is_refused(self, tmp_path, capsys,
                                                     power):
        system = {"rule": "cyclic", "space": "symbolic",
                  "maps": [{"kind": "shift", "power": power}]}
        cfg = write_config(tmp_path / "c.json", {
            "system": system, "modes": ["sensitive"], "delta": 0.5,
            "horizon": 100})
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: net shift {64 * power} at time 64 drains the "
            "sampled window of radius 64; use a horizon below 64\n")
        assert not (tmp_path / "out").exists()
        # one coordinate is left on each side at the last time accepted
        cfg = write_config(tmp_path / "c.json", {
            "system": system, "modes": ["sensitive"], "delta": 0.5,
            "horizon": 63, "resolution": 4,
            "cover": [{"kind": "cylinder", "constraints": {"0": 1}}]})
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_symbolic_system_of_other_maps_is_refused(self, tmp_path,
                                                      capsys):
        cfg = write_config(tmp_path / "c.json", {
            "system": {"rule": "cyclic", "space": "symbolic",
                       "maps": [{"kind": "rotation", "offset": 0.1}]},
            "modes": ["sensitive"], "delta": 0.5, "horizon": 10})
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: bad inline system: space tag symbolic disagrees "
            "with maps on the circle space\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_check_name(self, capsys):
        assert main(["verify", "--only", "no-such-check"]) == 2
        assert "unknown check" in capsys.readouterr().err


class TestDeterminism:
    @staticmethod
    def assert_runs_identical(tmp_path, envs):
        """``nonauto run`` of the identity config, once in a fresh process
        per environment, writes the same files with the same bytes."""
        cfg = write_config(tmp_path / "c.json", {
            "system": "identity", "modes": ["sensitive"], "delta": 0.1,
            "horizon": 40,
        })
        outs = []
        for i, env in enumerate(envs):
            out = tmp_path / str(i)
            subprocess.run(
                [sys.executable, "-m", "nonauto.cli", "run", cfg,
                 "--out", str(out)],
                check=True, capture_output=True, env=env)
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_reruns_are_byte_identical_across_processes(self, tmp_path):
        self.assert_runs_identical(tmp_path, [None, None])

    def test_blas_thread_count_does_not_change_outputs(self, tmp_path):
        self.assert_runs_identical(
            tmp_path, [{**os.environ, "OPENBLAS_NUM_THREADS": n}
                       for n in ("1", "2")])


THREAD_PROBE = ("import os, nonauto.cli\n"
                "print(len(os.listdir('/proc/self/task')),"
                " os.environ['OPENBLAS_NUM_THREADS'])")


def child_threads(env) -> tuple:
    """(OS threads, OPENBLAS_NUM_THREADS) of a fresh process that has just
    imported ``nonauto.cli``."""
    out = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    threads, value = out.split()
    return int(threads), value


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counting threads needs /proc/self/task")
class TestBlasThreadCap:
    """Importing the package sets OPENBLAS_NUM_THREADS before numpy loads,
    so numpy starts no OpenBLAS worker thread, unless the variable was set.
    The environment is passed explicitly: this process may already have set
    the variable through its own import of the package."""

    def test_import_starts_no_worker_thread(self):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        assert child_threads(env) == (1, "1")

    def test_a_set_value_is_kept(self):
        # the control: with a pool allowed, the probe counts its thread
        threads, value = child_threads({**os.environ,
                                        "OPENBLAS_NUM_THREADS": "2"})
        assert value == "2"
        # OpenBLAS starts no more threads than the process may run on
        if len(os.sched_getaffinity(0)) >= 2:
            assert threads == 2


def load_probe_script():
    path = (Path(__file__).resolve().parent.parent / "scripts"
            / "run_builtin_probes.py")
    spec = importlib.util.spec_from_file_location("run_builtin_probes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestProbeScript:
    def test_outputs_match_nonauto_run(self, tmp_path, capsys):
        names = ["identity", "rotations_summable"]
        script = load_probe_script()
        assert script.main(["--systems", *names,
                            "--out", str(tmp_path / "script")]) == 0
        assert "identity: F-sensitive" in capsys.readouterr().out
        for name in names:
            named = build(name)
            cfg = write_config(tmp_path / f"{name}.json", {
                "system": name,
                "modes": ["F-sensitive", "weakly-F-sensitive"],
                "family": {"kind": "infinite", "min_count": 10,
                           "tail_fraction": 0.25},
                "deltas": list(named.deltas),
                "horizon": named.horizon,
                "resolution": RESOLUTION,
                "cover": COVER_KINDS[named.sequence.space],
            })
            ran = tmp_path / "run" / name
            assert main(["run", cfg, "--out", str(ran)]) == 0
            probed = tmp_path / "script" / name
            files = sorted(p.name for p in ran.iterdir())
            assert files == sorted(p.name for p in probed.iterdir())
            assert "report.json" in files
            for f in files:
                assert (probed / f).read_bytes() == (ran / f).read_bytes()


    def test_unknown_system_is_a_usage_error(self, tmp_path, capsys):
        script = load_probe_script()
        with pytest.raises(SystemExit) as info:
            script.main(["--systems", "identity", "nosuch",
                         "--out", str(tmp_path / "script")])
        assert info.value.code == 2
        assert "invalid choice: 'nosuch'" in capsys.readouterr().err
        assert not (tmp_path / "script").exists()


class TestVerifyAndList:
    def test_single_check_passes(self, capsys):
        assert main(["verify", "--only", "two-map-family"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "1 of 1 checks passed" in out

    def test_exit_one_when_any_check_fails(self, monkeypatch, capsys):
        from nonauto import acceptance
        fake = (acceptance.CriterionResult("a", "t", True, "fine"),
                acceptance.CriterionResult("b", "t", False, "broken"))
        monkeypatch.setattr(acceptance, "run_all", lambda only=None: fake)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "broken" in out

    def test_only_verify_loads_the_check_battery(self, tmp_path):
        code = ("import sys\nfrom nonauto import cli\n"
                "assert cli.main(sys.argv[1:]) == 0\n"
                "print('nonauto.acceptance' in sys.modules)\n")

        def loads(*argv):
            done = subprocess.run([sys.executable, "-c", code, *argv],
                                  check=True, capture_output=True, text=True)
            return done.stdout.splitlines()[-1] == "True"

        assert not loads("run", str(CONFIGS / "inline_two_balls.json"),
                         "--out", str(tmp_path / "out"))
        assert not loads("list")
        assert loads("verify", "--only", "transcription-guard")

    def test_list_names_all_systems(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("example31", "example41_composition",
                     "rotations_harmonic", "identity"):
            assert name in out

    def test_list_pins_parameter_lines(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        params = {lines[i].split()[0]: lines[i + 1].strip()
                  for i in range(0, len(lines), 2)}
        assert params["example31"] == (
            "deltas=[0.5] horizon=2000 resolution=64 cover=cylinders")
        assert params["identity"] == (
            "deltas=[0.1] horizon=200 resolution=64 cover=interval-balls")


def shipped_configs():
    return [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]


def builtin_configs():
    """Each built-in as ``scripts/run_builtin_probes.py`` runs it, and
    inline at its recommended parameters."""
    out = []
    for name in registry_names():
        named = build(name)
        raw = {"system": name, "modes": ["F-sensitive", "weakly-F-sensitive"],
               "family": COUNT_AND_TAIL}
        out.append(raw)
        out.append({**raw, "system": sequence_to_dict(named.sequence),
                    "label": name, "deltas": list(named.deltas),
                    "horizon": named.horizon})
    return out


class TestBudget:
    def test_over_budget_is_refused_before_any_scan(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(cli, "MAX_RUN_BYTES", SMALL_BUDGET)
        misses = region_scan.cache_info().misses
        cfg = composition_config(tmp_path, resolution=65)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: the run's scans need about 1.75 MB, over the "
            "limit of 1 MB; lower the horizon, the resolution or the "
            "cover\n")
        assert not (tmp_path / "out").exists()
        assert region_scan.cache_info().misses == misses
        cfg = composition_config(tmp_path, resolution=65, horizon=100)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("overrides", [
        {"system": kth_iterate_of_f1(10 ** 30)},
        {"resolution": 100000, "cover": [{"center": 0.5, "radius": 0.1}]},
        {"horizon": 10 ** 400},
    ], ids=["iterate-k-huge", "resolution-huge", "horizon-huge"])
    def test_huge_runs_are_refused(self, overrides):
        raw = {"system": "identity", "modes": ["sensitive"], "delta": 0.1,
               "horizon": 20, **overrides}
        with pytest.raises(ConfigError, match="^the run's scans need about "
                                              r"\S+ MB, over the limit of "
                                              "1024 MB;"):
            parse_config(raw)

    def test_shipped_and_builtin_configs_fit_with_room(self, monkeypatch):
        # a zero limit refuses every run, and the message states its size
        limit = cli.MAX_RUN_BYTES
        monkeypatch.setattr(cli, "MAX_RUN_BYTES", 0)
        for raw in shipped_configs() + builtin_configs():
            with pytest.raises(ConfigError) as info:
                parse_config(raw)
            size = re.search(r"need about (\S+) MB", str(info.value))
            assert float(size.group(1)) * 2 ** 20 < limit / 8, raw


@pytest.fixture
def empty_scan_cache():
    region_scan.cache_clear()
    yield
    region_scan.cache_clear()


@pytest.mark.usefixtures("empty_scan_cache")
@pytest.mark.parametrize("name", ["example31", "example41_composition",
                                  "inline_two_balls"])
def test_run_reads_only_the_scans_parse_built(tmp_path, name):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg = parse_config(raw, out_override=str(tmp_path / "out"))
    assert region_scan.cache_info().misses == len(cfg.cover)
    write_outputs(cfg, run_experiment(cfg))
    assert region_scan.cache_info().misses == len(cfg.cover)


# a symbolic system whose net shift cycles 0, 2, 1, so its horizon may
# run past one output block; its cylinders name one file with a space
CYLINDER_CONFIG = {
    "system": {"rule": "cyclic", "space": "symbolic",
               "maps": [{"kind": "shift", "power": 2},
                        {"kind": "shift", "power": -1},
                        {"kind": "shift", "power": -1}]},
    "label": "two-back-two", "modes": ["sensitive", "syndetic"],
    "deltas": [0.6, 0.3], "horizon": 1500, "resolution": 16,
    "cover": [{"kind": "cylinder", "constraints": {"0": 1, "1": 0},
               "label": "pinned pair"},
              {"kind": "cylinder", "constraints": {"-1": 1}}],
}


def whole_text_outputs(cfg, report) -> dict:
    """File name -> the text ``write_outputs`` writes, each file built
    whole and its series read cell by cell: the oracle for the streamed
    writer."""
    delta = cfg.deltas[0]
    scans = [region_scan(cfg.sequence, r, cfg.horizon, cfg.resolution)
             for r in cfg.cover]
    texts = {"report.json": json.dumps(report, sort_keys=True, indent=2)
             + "\n"}
    for region, scan in zip(cfg.cover, scans):
        lines = ["n,max_separation,witness"]
        for n in scan.times(delta).indices:
            i, j, sep = scan.witness(n)
            lines.append(f"{n},{sep!r},{i}-{j}")
        texts[cli._hits_name(region.label)] = "\n".join(lines) + "\n"
    rows = ["n\t" + "\t".join(r.label for r in cfg.cover)]
    for n in range(cfg.horizon + 1):
        cells = [repr(float(scan.max_series[n])) for scan in scans]
        rows.append(f"{n}\t" + "\t".join(cells))
    texts["plotdata.tsv"] = "\n".join(rows) + "\n"
    return texts


class TestStreamedOutputs:
    @pytest.mark.parametrize("raw", shipped_configs() + [CYLINDER_CONFIG],
                             ids=[p.stem for p in sorted(
                                 CONFIGS.glob("*.json"))] + ["cylinders"])
    def test_files_equal_whole_text_oracle(self, tmp_path, raw):
        cfg = parse_config(raw, out_override=str(tmp_path))
        report = run_experiment(cfg)
        written = write_outputs(cfg, report)
        texts = whole_text_outputs(cfg, report)
        assert [p.name for p in written] == list(texts)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(texts)
        for path in written:
            assert path.read_bytes() == texts[path.name].encode()

    def test_write_holds_a_fraction_of_the_series_file(self, tmp_path):
        # a long horizon at resolution 2: the series file and the hit
        # files, a line per time, are large beside each scan's orbits
        cfg = parse_config({
            "system": "rotations_harmonic", "modes": ["sensitive"],
            "delta": 0.1, "horizon": 16000, "resolution": 2,
            "cover": [{"center": 0.3, "radius": 0.1},
                      {"center": 0.7, "radius": 0.1}],
        }, out_override=str(tmp_path))
        report = run_experiment(cfg)
        tracemalloc.start()
        try:
            write_outputs(cfg, report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "plotdata.tsv").stat().st_size
        assert size > 500_000
        assert peak < size / 4

    def test_failed_write_leaves_the_old_file_and_no_temporary(
            self, tmp_path, monkeypatch):
        cfg = parse_config({"system": "identity", "modes": ["sensitive"],
                            "delta": 0.1, "horizon": 10},
                           out_override=str(tmp_path))
        report = run_experiment(cfg)
        write_outputs(cfg, report)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def dump_part_way(obj, f, **kwargs):
            f.write("{")
            raise OSError("no space left on device")

        monkeypatch.setattr(cli.json, "dump", dump_part_way)
        with pytest.raises(OSError, match="^no space left on device$"):
            write_outputs(cfg, {**report, "system": "changed"})
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# values a mutation writes, and keys it may add to any object
MUTANT_VALUES = [
    None, True, False, 0, -1, 1, 3, 10 ** 30, -10 ** 30, 0.5, -0.5, 1.9, 2.0,
    1e-300, float("nan"), float("inf"), float("-inf"), "", "x", "0.5", "1",
    [], [0.5],
    {}, {"kind": "nope"}, "interval", "circle", "symbolic", "torus",
    "identity", "cylinders", "circle-balls", "hold", "kth-iterate",
    "block-structured", "shift-blocks", {"kind": "shift", "power": 1},
    {"kind": "rotation", "offset": 0.3},
    [{"kind": "cylinder", "constraints": {"0": 1}}],
    [{"center": 0.5, "radius": 0.1}],
]
MUTANT_KEYS = [
    "system", "modes", "family", "delta", "deltas", "horizon", "resolution",
    "cover", "label", "rule", "space", "maps", "tail", "generator", "base",
    "k", "kind", "power", "offset", "knots", "center", "radius",
    "constraints", "min_count", "tail_fraction", "max_missing", "max_gap",
    "of", "nonsense",
]
MUTANT_BASES = (shipped_configs() + builtin_configs()
                + [{"system": kth_iterate_of_f1(2), "modes": ["syndetic"],
                    "delta": 0.2, "horizon": 30}])


def _slots(node):
    """Every (container, key) a mutation may write or delete."""
    if isinstance(node, dict):
        yield from ((node, k) for k in MUTANT_KEYS)
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def mutated_configs(draw):
    raw = copy.deepcopy(draw(st.sampled_from(MUTANT_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        node, key = draw(st.sampled_from(list(_slots(raw))))
        if draw(st.booleans()) and (key in node if isinstance(node, dict)
                                    else key < len(node)):
            del node[key]
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(MUTANT_VALUES)))
    return raw


@given(mutated_configs())
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
def test_mutated_configs_end_without_a_traceback(raw):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "MAX_RUN_BYTES", SMALL_BUDGET), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        path = write_config(Path(tmp) / "c.json", raw)
        out = Path(tmp) / "out"
        code = main(["run", path, "--out", str(out)])
        wrote = out.exists()
    assert code in (0, 2, 3)
    assert code == 0 or not wrote


class TestConfigParsing:
    def test_registry_defaults_fill_in(self):
        cfg = parse_config({"system": "example41_composition",
                            "modes": ["sensitive"]})
        assert cfg.deltas == (0.2,)
        assert cfg.horizon == 200
        assert cfg.resolution == 64
        assert len(cfg.cover) == 16

    def test_ints_read_as_floats_where_a_number_is_expected(self):
        def config(one):
            return parse_config({
                "system": "identity", "modes": ["sensitive"], "delta": one,
                "horizon": 20, "cover": [{"center": one, "radius": one}],
                "family": {"kind": "infinite", "tail_fraction": one}})
        assert repr(config(1)) == repr(config(1.0))

    def test_cover_kind_by_name(self):
        cfg = parse_config({"system": "example31", "modes": ["sensitive"],
                            "cover": "cylinders"})
        assert len(cfg.cover) == 32

    def test_inline_needs_horizon(self):
        seq = cyclic_sequence([piecewise_linear(F1_KNOTS)])
        with pytest.raises(ConfigError):
            parse_config({"system": sequence_to_dict(seq),
                          "modes": ["sensitive"], "delta": 0.1})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"system": "identity", "modes": ["psychic"],
                          "delta": 0.1})

    def test_unknown_region_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"system": "identity", "modes": ["sensitive"],
                          "delta": 0.1,
                          "cover": [{"kind": "simplex", "center": 0.5}]})
