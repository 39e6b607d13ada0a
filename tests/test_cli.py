"""Command-line flows: config parsing, exit codes, output determinism."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from nonauto.cli import main, parse_config, ConfigError
from nonauto.registry import COVER_KINDS, RESOLUTION, build
from nonauto.systems import cyclic_sequence, piecewise_linear, sequence_to_dict

F1_KNOTS = [[0.0, 0.0], [0.25, 1.0], [1.0, 0.25]]


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def kth_iterate_of_f1(k, **tag):
    return {"rule": "kth-iterate", "k": k, **tag,
            "base": {"rule": "cyclic",
                     "maps": [{"kind": "piecewise-linear",
                               "knots": F1_KNOTS}]}}


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


class TestExitCodes:
    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

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
            "ball-on-symbolic"])
    def test_bad_values_are_config_errors(self, tmp_path, capsys, overrides):
        payload = {"system": "identity", "modes": ["sensitive"],
                   "delta": 0.1, "horizon": 20, **overrides}
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
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
    def test_reruns_are_byte_identical_across_processes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "system": "identity", "modes": ["sensitive"], "delta": 0.1,
            "horizon": 40,
        })
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "nonauto.cli", "run", cfg,
                 "--out", str(out)],
                check=True, capture_output=True)
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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


class TestConfigParsing:
    def test_registry_defaults_fill_in(self):
        cfg = parse_config({"system": "example41_composition",
                            "modes": ["sensitive"]})
        assert cfg.deltas == (0.2,)
        assert cfg.horizon == 200
        assert cfg.resolution == 64
        assert len(cfg.cover) == 16

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
