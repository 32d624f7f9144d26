"""Command-line entry points: exit codes, output artifacts, manifest
integrity, and override handling."""

import json
from pathlib import Path

import pytest

from vmlab import cli, pic
from vmlab import retarded as rt


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def small_scenario(tmp_path_factory):
    cfg = {
        "mode": "2d", "grid_n": 24, "box": 20.0, "dt": 0.05, "t_final": 0.3,
        "seed": 7, "n_particles": 1500,
        "f0": {"sigma_x": 1.5, "alpha": 18.0,
               "beams": [[0.5, 0.0], [-0.5, 0.0]], "mass": 0.05},
        "fields0": {"poisson": True},
    }
    f = tmp_path_factory.mktemp("scn") / "small.json"
    f.write_text(json.dumps(cfg))
    return f


@pytest.fixture(scope="module")
def history_run(small_scenario, tmp_path_factory):
    cfg = json.loads(small_scenario.read_text())
    cfg["store_history"] = True
    f = small_scenario.parent / "hist.json"
    f.write_text(json.dumps(cfg))
    out = tmp_path_factory.mktemp("run")
    assert run_cli("simulate", str(f), "--out", str(out)) == cli.EXIT_OK
    return out


class TestSimulate:
    def test_outputs_and_manifest(self, small_scenario, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", str(small_scenario),
                       "--out", str(out)) == cli.EXIT_OK
        for name in ("diagnostics.csv", "ensemble.csv", "fields.csv",
                     "scenario.json", "manifest.json"):
            assert (out / name).exists(), name
        man = json.loads((out / "manifest.json").read_text())
        assert len(man["config_hash"]) == 64
        assert man["mode"] == "2d"
        assert "diagnostics.csv" in man["outputs"]

    def test_overrides_change_hash(self, small_scenario, tmp_path):
        o1, o2 = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", str(small_scenario), "--out", str(o1))
        run_cli("simulate", str(small_scenario), "--out", str(o2),
                "--seed", "99")
        m1 = json.loads((o1 / "manifest.json").read_text())
        m2 = json.loads((o2 / "manifest.json").read_text())
        assert m1["config_hash"] != m2["config_hash"]
        s2 = json.loads((o2 / "scenario.json").read_text())
        assert s2["seed"] == 99

    def test_repeat_run_byte_identical(self, small_scenario, tmp_path):
        o1, o2 = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", str(small_scenario), "--out", str(o1))
        run_cli("simulate", str(small_scenario), "--out", str(o2))
        assert ((o1 / "diagnostics.csv").read_bytes()
                == (o2 / "diagnostics.csv").read_bytes())
        assert ((o1 / "ensemble.csv").read_bytes()
                == (o2 / "ensemble.csv").read_bytes())

    def test_bad_scenario_is_usage_error(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"mode": "2d"}))
        assert run_cli("simulate", str(f),
                       "--out", str(tmp_path / "o")) == cli.EXIT_USAGE

    def test_bad_scenario_value_is_usage_error(self, small_scenario, tmp_path,
                                               capsys):
        cfg = json.loads(small_scenario.read_text())
        cfg["diagnostic_every"] = 0
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(cfg))
        assert run_cli("simulate", str(f),
                       "--out", str(tmp_path / "o")) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "diagnostic_every: must be a positive integer" in err

    def test_missing_scenario_file(self, tmp_path):
        assert run_cli("simulate", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")) == cli.EXIT_USAGE

    def test_unstable_dt_is_run_failure(self, small_scenario, tmp_path):
        assert run_cli("simulate", str(small_scenario),
                       "--out", str(tmp_path / "o"),
                       "--dt", "2.0") == cli.EXIT_FAIL


class TestVerify:
    @pytest.mark.parametrize("suite", ["identities", "geometry",
                                       "interpolation", "strichartz"])
    def test_suites_pass(self, suite, capsys):
        assert run_cli("verify", suite, "--count", "5000") == cli.EXIT_OK
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines()
                   if line.startswith("{")]
        assert records
        assert all(r["passed"] for r in records)

    def test_json_report_written(self, tmp_path):
        rep = tmp_path / "rep.json"
        assert run_cli("verify", "gronwall", "--out", str(rep)) == cli.EXIT_OK
        data = json.loads(rep.read_text())
        assert isinstance(data, list) and data
        assert all(c["passed"] for c in data)

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run_cli("verify", "bogus") == cli.EXIT_USAGE


class TestFieldsCompare:
    def _probes(self, tmp_path, pts):
        f = tmp_path / "probes.json"
        f.write_text(json.dumps(pts))
        return f

    def test_report(self, history_run, tmp_path, capsys):
        probes = self._probes(tmp_path, [
            {"t": 0.3, "x": [10.0, 10.0]},
            {"t": 0.3, "x": [11.0, 9.0]},
        ])
        rep = tmp_path / "rep.json"
        code = run_cli("fields-compare", str(history_run),
                       "--probes", str(probes), "--out", str(rep))
        assert code == cli.EXIT_OK
        data = json.loads(rep.read_text())
        assert len(data["probes"]) == 2
        assert data["summary"]["relative_l2_error"] >= 0.0

    def test_out_of_range_probe_warns(self, history_run, tmp_path):
        probes = self._probes(tmp_path, [{"t": 99.0, "x": [10.0, 10.0]}])
        rep = tmp_path / "rep.json"
        code = run_cli("fields-compare", str(history_run),
                       "--probes", str(probes), "--out", str(rep))
        assert code == cli.EXIT_OK
        data = json.loads(rep.read_text())
        assert "warning" in data["probes"][0]

    def test_records_in_input_order_across_times(self, history_run, tmp_path):
        pts = [{"t": 0.1, "x": [10.0, 10.0]},
               {"t": 0.2, "x": [11.0, 9.0]},
               {"t": 0.1, "x": [9.5, 10.5]}]
        rep = tmp_path / "rep.json"
        assert run_cli("fields-compare", str(history_run),
                       "--probes", str(self._probes(tmp_path, pts)),
                       "--out", str(rep)) == cli.EXIT_OK
        records = json.loads(rep.read_text())["probes"]
        history = pic.RunHistory.load_npz(history_run / "history.npz")
        assert len(records) == len(pts)
        for pr, rec in zip(pts, records):
            one = rt.field_from_representation(history, pr["t"], pr["x"])
            for key, val in one.to_dict().items():
                assert rec[key] == val, key

    @pytest.mark.parametrize("record,key", [
        ({"x": [10.0, 10.0]}, "t"),
        ({"t": 0.3, "x": [10.0, 10.0, 1.0]}, "x"),
        ({"t": "0.3", "x": [10.0, 10.0]}, "t"),
    ])
    def test_bad_probe_record_is_usage_error(self, history_run, tmp_path,
                                             monkeypatch, capsys, record, key):
        def no_load(path):
            raise AssertionError("history loaded before the probes were checked")

        monkeypatch.setattr(pic.RunHistory, "load_npz", no_load)
        probes = self._probes(tmp_path, [{"t": 0.3, "x": [10.0, 10.0]},
                                         record])
        assert run_cli("fields-compare", str(history_run),
                       "--probes", str(probes)) == cli.EXIT_USAGE
        assert f"probe 1: {key} " in capsys.readouterr().err

    def test_probe_on_particle_is_usage_error(self, history_run, tmp_path,
                                              capsys):
        history = pic.RunHistory.load_npz(history_run / "history.npz")
        x = history.part_x[-1][0].tolist()
        probes = self._probes(tmp_path, [{"t": 0.3, "x": x}])
        assert run_cli("fields-compare", str(history_run),
                       "--probes", str(probes)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "sits on a particle" in err

    def test_missing_history(self, small_scenario, tmp_path):
        out = tmp_path / "nohist"
        run_cli("simulate", str(small_scenario), "--out", str(out))
        probes = self._probes(tmp_path, [{"t": 0.3, "x": [10.0, 10.0]}])
        assert run_cli("fields-compare", str(out),
                       "--probes", str(probes)) == cli.EXIT_MISSING

    def test_missing_probes_file(self, history_run, tmp_path):
        assert run_cli("fields-compare", str(history_run),
                       "--probes",
                       str(tmp_path / "nope.json")) == cli.EXIT_MISSING


class TestStrichartzCheck:
    def test_admissible(self):
        assert run_cli("strichartz-check", "336/19", "32/5",
                       "112/31", "96/17") == cli.EXIT_OK

    def test_inadmissible(self):
        assert run_cli("strichartz-check", "2", "4", "2", "4") == cli.EXIT_FAIL

    def test_infinite_exponent(self):
        code = run_cli("strichartz-check", "4", "inf", "1", "2")
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL)

    def test_bad_exponent_is_usage_error(self):
        assert run_cli("strichartz-check", "x", "4", "2",
                       "4") == cli.EXIT_USAGE


class TestParser:
    def test_no_command_is_usage_error(self):
        assert run_cli() == cli.EXIT_USAGE

    def test_unknown_command(self):
        assert run_cli("frobnicate") == cli.EXIT_USAGE


SCENARIOS_DIR = Path(__file__).resolve().parents[1] / "scenarios"
GOLDEN_SCENARIOS = sorted(p for p in SCENARIOS_DIR.glob("golden_*.json")
                          if not p.name.endswith("_probes.json"))


class TestGoldenScenarioFiles:
    def test_all_three_found(self):
        assert [p.stem for p in GOLDEN_SCENARIOS] == [
            "golden_25d", "golden_2d", "golden_repr"]

    @pytest.mark.parametrize("path", GOLDEN_SCENARIOS, ids=lambda p: p.stem)
    def test_checked_in_files_are_canonical(self, path):
        # the golden scenarios live only on disk; each file must be the
        # canonical form of the scenario it loads to
        on_disk = json.loads(path.read_text())
        assert on_disk == pic.load_scenario(path).to_canonical_dict()
