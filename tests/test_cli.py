"""Command-line entry points: exit codes, output artifacts, manifest
integrity, and override handling."""

import contextlib
import io
import json
import math
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from vmlab import cli, phase, pic
from vmlab import maxwell as mx
from vmlab.phase import embed3
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
        env = man["environment"]
        assert sorted(env) == ["cpu_count", "numpy", "platform", "python"]
        assert env["numpy"] == np.__version__
        assert env["python"] == platform.python_version()
        assert env["platform"] == platform.platform()
        assert env["cpu_count"] == os.cpu_count()

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
        # dt = 0.3 divides t_final but exceeds the cell size 20 / 128
        assert run_cli("simulate", str(small_scenario),
                       "--out", str(tmp_path / "o"),
                       "--grid", "128", "--dt", "0.3") == cli.EXIT_FAIL

    def test_t_final_off_the_step_grid_is_usage_error(self, small_scenario,
                                                      tmp_path, capsys):
        cfg = json.loads(small_scenario.read_text())
        cfg["t_final"] = 0.07                 # 1.4 steps of 0.05
        f = tmp_path / "off.json"
        f.write_text(json.dumps(cfg))
        assert run_cli("simulate", str(f),
                       "--out", str(tmp_path / "o")) == cli.EXIT_USAGE
        assert "t_final: must be a whole number of steps" in \
            capsys.readouterr().err
        # t_final 0.3 is no whole number of steps of an overriding dt
        assert run_cli("simulate", str(small_scenario),
                       "--out", str(tmp_path / "o"),
                       "--dt", "0.07") == cli.EXIT_USAGE
        assert "t_final" in capsys.readouterr().err

    def test_fields_snapshot_time_is_the_last_step(self, small_scenario,
                                                  tmp_path):
        # ten additions of 0.05 give 0.49999999999999994; the run's clock
        # reads step k at k * dt
        cfg = json.loads(small_scenario.read_text())
        cfg["t_final"] = 0.5
        f = tmp_path / "half.json"
        f.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli("simulate", str(f), "--out", str(out)) == cli.EXIT_OK
        head = (out / "fields.csv").read_text().split("\n", 1)[0]
        assert head.endswith(" time=0.5")

    def test_nonfinite_field_is_run_failure(self, small_scenario, tmp_path,
                                            monkeypatch, capsys):
        # one step: the second Maxwell half-step ends it with a non-finite
        # B1, which neither the particles nor E see within the step
        cfg = json.loads(small_scenario.read_text())
        cfg["t_final"] = cfg["dt"]
        f = tmp_path / "one.json"
        f.write_text(json.dumps(cfg))
        step_maxwell = mx.step_maxwell
        calls = []

        def poisoned(fields, j, dt):
            out = step_maxwell(fields, j, dt)
            calls.append(dt)
            if len(calls) == 2:
                out.B[0, 3, 4] = np.inf
            return out

        monkeypatch.setattr(mx, "step_maxwell", poisoned)
        assert run_cli("simulate", str(f),
                       "--out", str(tmp_path / "o")) == cli.EXIT_FAIL
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: run aborted: non-finite B "
                                    "at t=0.05"]

    def test_moment_overflow_is_run_failure(self, tmp_path, capsys):
        # p0^800 overflows on the heavy tail of alpha = 3: the run stops
        # at the first diagnostics row instead of writing moment_800 = inf
        cfg = json.loads((SCENARIOS_DIR / "golden_2d.json").read_text())
        cfg.update(n_particles=2000, moment_orders=[2, 800], t_final=0.1)
        cfg["f0"]["alpha"] = 3
        f = tmp_path / "heavy.json"
        f.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli("simulate", str(f),
                       "--out", str(out)) == cli.EXIT_FAIL
        assert capsys.readouterr().err.splitlines() == [
            "error: run aborted: moment of order N=800 is not finite"]
        assert not (out / "diagnostics.csv").exists()


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

    @pytest.mark.parametrize("suite,count", [("all", "1"),
                                             ("identities", "2"),
                                             ("geometry", "0")])
    def test_small_count_is_usage_error(self, suite, count, capsys):
        assert run_cli("verify", suite, "--count", count) == cli.EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: --count must be at least 3, got {count}\n"

    @pytest.mark.parametrize("suite", ["identities", "all"])
    def test_negative_seed_is_usage_error(self, suite, capsys):
        assert run_cli("verify", suite, "--seed", "-1",
                       "--count", "10") == cli.EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: --seed must be nonnegative, got -1\n"

    def test_smallest_count_runs(self, capsys):
        assert run_cli("verify", "identities", "--count", "3") == cli.EXIT_OK

    def test_block_size_leaves_report_unchanged(self, tmp_path, monkeypatch,
                                                capsys):
        # the sampled suites run ``phase._BLOCK`` rows at a time; the planar
        # subset k = count // 3 = 5,463 ends inside a block at every size
        count = 2 * phase._BLOCK + 5
        outs = []
        for block in (phase._BLOCK, 7, count + 1):
            monkeypatch.setattr(phase, "_BLOCK", block)
            rep = tmp_path / f"block{block}.json"
            assert run_cli("verify", "all", "--seed", "3", "--count",
                           str(count), "--out", str(rep)) == cli.EXIT_OK
            outs.append((rep.read_bytes(), capsys.readouterr().out))
        assert outs[1] == outs[0]
        assert outs[2] == outs[0]


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

    @pytest.mark.parametrize("t_off", [-5e-10, 5e-10])
    def test_probe_time_window_is_symmetric(self, history_run, tmp_path,
                                            t_off):
        # a probe within the 1e-9 match window of t = 0 on either side gives
        # the t = 0 record, apart from t
        pts = [{"t": 0.0, "x": [10.5, 9.5]}, {"t": t_off, "x": [10.5, 9.5]}]
        rep = tmp_path / "rep.json"
        assert run_cli("fields-compare", str(history_run),
                       "--probes", str(self._probes(tmp_path, pts)),
                       "--out", str(rep)) == cli.EXIT_OK
        at, off = json.loads(rep.read_text())["probes"]
        assert "warning" not in off and off.pop("t") == t_off
        del at["t"]
        assert off == at

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
            one = rt.field_from_representation(history, pr["t"], [pr["x"]])[0]
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

    @pytest.mark.parametrize("x", [[1e300, 5.0], [-1e20, 3.0],
                                   [1e308, 1e308], [20.0, 5.0]])
    def test_probe_outside_box_is_usage_error(self, history_run, tmp_path,
                                              capsys, x):
        # such probes once gave a record from a meaningless grid node, or
        # were rejected as sitting on a particle
        probes = self._probes(tmp_path, [{"t": 0.3, "x": [10.0, 10.0]},
                                         {"t": 0.3, "x": x}])
        rep = tmp_path / "rep.json"
        assert run_cli("fields-compare", str(history_run), "--probes",
                       str(probes), "--out", str(rep)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: probe t=0.3 x={x!r} lies outside the box "
            f"[0, 20.0) x [0, 20.0)"]
        assert not rep.exists()

    _GRID = "grid: must be two positive integers and two positive finite lengths"
    _TIMES = "times: must be finite, strictly increasing from 0"
    _PLANAR = "2d mode requires {} = 0, got a nonzero one at step {}"
    _FINITE = "{}: must be finite, got a non-finite value at step {}"
    _WEIGHT = "w: must be positive and finite, got "

    @staticmethod
    def _set(key, index, value):
        def damage(arrays):
            arrays[key] = arrays[key].astype(float)
            arrays[key][index] = value
        return damage

    @pytest.mark.parametrize("damage,message", [
        ("junk", "cannot read an .npz archive of ('mode', 'grid', 'times', "
                 "'E', 'B', 'part_x', 'part_p', 'w')"),
        (lambda a: a.pop("part_p"), "missing key 'part_p'"),
        (lambda a: a.update(part_p=embed3(a["part_p"])),
         "part_p: must be a numeric array of shape (7, 1500, 2), "
         "got float64 (7, 1500, 3)"),
        (_set("grid", 0, 16.5), _GRID + ", got [16.5, 24.0, 20.0, 20.0]"),
        (_set("grid", 2, 0.0), _GRID),
        (_set("grid", 2, math.nan), _GRID),
        (_set("grid", 2, -20.0), _GRID),
        (_set("times", 3, math.nan), _TIMES + ", got times[3] = nan"),
        (lambda a: a.update(times=a["times"][::-1].copy()),
         _TIMES + ", got times[0] = 0.3"),
        (lambda a: a.update(times=a["times"] + 0.05),
         _TIMES + ", got times[0] = 0.05"),
        # out-of-plane fields at a late step were once accepted silently
        (_set("E", (5, 2, 3, 4), 1e-3), "E: " + _PLANAR.format("E3", 5)),
        (_set("E", (0, 2, 0, 0), -1.0), "E: " + _PLANAR.format("E3", 0)),
        (_set("B", (6, 1, 23, 0), 1e-300),
         "B: " + _PLANAR.format("B1 = B2", 6)),
        # a non-finite step would drop out of the cone sums, or reach
        # compare.json as NaN, with exit 0
        (_set("part_x", (3, 0), math.nan), _FINITE.format("part_x", 3)),
        (_set("part_p", (3, 0), math.nan), _FINITE.format("part_p", 3)),
        (_set("E", (3, 0, 2, 2), math.inf), _FINITE.format("E", 3)),
        (_set("B", (6, 2, 0, 20), -math.inf), _FINITE.format("B", 6)),
        (_set("w", 7, math.nan), _WEIGHT + "w[7] = nan"),
        (_set("w", 0, -1e-3), _WEIGHT + "w[0] = -0.001"),
        (_set("w", 1499, math.inf), _WEIGHT + "w[1499] = inf"),
    ], ids=["junk", "no_part_p", "part_p_3d", "grid_fraction", "lx_zero",
            "lx_nan", "lx_negative", "times_nan", "times_descending",
            "times_late_start", "e3_late", "e3_first", "b2_last",
            "part_x_nan", "part_p_nan", "e_inf", "b_minus_inf", "w_nan",
            "w_negative", "w_inf"])
    def test_malformed_history_is_usage_error(self, history_run, tmp_path,
                                              capsys, damage, message):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        hist = run_dir / "history.npz"
        if damage == "junk":
            hist.write_bytes(b"not an archive\n")
        else:
            with np.load(history_run / "history.npz") as z:
                arrays = dict(z)
            damage(arrays)
            np.savez_compressed(hist, **arrays)
        probes = self._probes(tmp_path, [{"t": 0.3, "x": [10.0, 10.0]}])
        assert run_cli("fields-compare", str(run_dir),
                       "--probes", str(probes)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"{hist}: " in err and message in err

    def test_compressed_history_still_loads(self, history_run, tmp_path):
        # earlier versions wrote history.npz with zlib compression
        old_dir = tmp_path / "old"
        old_dir.mkdir()
        with np.load(history_run / "history.npz") as z:
            np.savez_compressed(old_dir / "history.npz", **z)
        new = pic.RunHistory.load_npz(history_run / "history.npz")
        old = pic.RunHistory.load_npz(old_dir / "history.npz")
        assert (old.mode, old.grid) == (new.mode, new.grid)
        for key in ("times", "E", "B", "part_x", "part_p", "w"):
            assert np.array_equal(getattr(old, key), getattr(new, key)), key
        probes = self._probes(tmp_path, [{"t": 0.3, "x": [10.0, 10.0]},
                                         {"t": 0.2, "x": [19.5, 0.5]}])
        reps = []
        for run_dir in (history_run, old_dir):
            reps.append(tmp_path / f"{run_dir.name}.json")
            assert run_cli("fields-compare", str(run_dir), "--probes",
                           str(probes), "--out", str(reps[-1])) == cli.EXIT_OK
        assert reps[0].read_bytes() == reps[1].read_bytes()

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


class TestUnusablePaths:
    @pytest.mark.parametrize("command,flag,target", [
        ("simulate", "--out", "file"),
        ("verify", "--out", "missing"),
        ("verify", "--out", "dir"),
        ("fields-compare", "--out", "missing"),
        ("fields-compare", "--probes", "dir"),
    ])
    def test_exits_2_naming_the_path_before_any_work(
            self, small_scenario, history_run, tmp_path, monkeypatch, capsys,
            command, flag, target):
        def no_work(*args):
            raise AssertionError("work started before the path was checked")

        monkeypatch.setattr(pic, "run", no_work)
        monkeypatch.setattr(cli, "_suite_identities", no_work)
        monkeypatch.setattr(rt, "field_from_representation", no_work)
        probes = tmp_path / "probes.json"
        probes.write_text(json.dumps([{"t": 0.3, "x": [10.0, 10.0]}]))
        path = {"file": probes, "missing": tmp_path / "missing" / "r.json",
                "dir": tmp_path}[target]
        argv = {"simulate": ["simulate", str(small_scenario)],
                "verify": ["verify", "identities"],
                "fields-compare": ["fields-compare", str(history_run),
                                   "--probes", str(probes)]}[command]
        assert run_cli(*argv, flag, str(path)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(path) in err


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

    def test_removed_option_is_usage_error(self):
        # 1/r1 + 1/r2 < 1/2 never fails alone, so nothing is left to drop
        assert run_cli("strichartz-check", "336/19", "32/5", "112/31",
                       "96/17", "--drop-redundant-upper") == cli.EXIT_USAGE


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


def _key_paths(cfg: dict) -> list:
    """Every key path of a scenario: the top-level keys and the members of
    its nested objects as ``f0.alpha``."""
    return [k for k in cfg] + [f"{k}.{m}" for k, v in cfg.items()
                               if isinstance(v, dict) for m in v]


_NUMBER = st.one_of(st.integers(-3, 200), st.floats(-1e3, 1e3),
                    st.sampled_from([math.nan, math.inf, -math.inf]))
# small values only: no draw may allocate a large grid or ensemble
_VALUE = st.one_of(_NUMBER, st.booleans(), st.text(max_size=6), st.none(),
                   st.lists(_NUMBER | st.lists(_NUMBER, max_size=3),
                            max_size=3))
_MAX_STEPS = 40


def _simulate_mutated(path, key, value):
    """Run ``vmlab simulate`` on the golden scenario at ``path`` cut to
    2,000 particles and 3 steps, unless ``key`` is one of those two, with
    ``key`` set to ``value``; return the exit code and stderr, or None when
    the scenario loads but asks for more than ``_MAX_STEPS`` steps."""
    cfg = json.loads(path.read_text())
    cfg["n_particles"] = 2000
    cfg["t_final"] = 3 * cfg["dt"]
    head, _, leaf = key.partition(".")
    if leaf:
        cfg[head][leaf] = value
    else:
        cfg[key] = value
    try:
        if pic.scenario_from_dict(cfg, path="inline").n_steps > _MAX_STEPS:
            return None
    except ValueError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "scenario.json"
        f.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("simulate", str(f), "--out", str(Path(tmp) / "o"))
    return code, err.getvalue()


class TestScenarioBoundary:
    @given(st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_one_mutated_key_exits_cleanly(self, data):
        path = data.draw(st.sampled_from(GOLDEN_SCENARIOS), label="scenario")
        key = data.draw(st.sampled_from(_key_paths(json.loads(
            path.read_text()))), label="key")
        out = _simulate_mutated(path, key, data.draw(_VALUE, label="value"))
        # a valid t_final or dt may ask for any number of steps; only the
        # short runs are run
        assume(out is not None)
        code, err = out
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_USAGE)
        if code == cli.EXIT_USAGE:
            assert key in err

    @pytest.mark.parametrize("name,key,value,code", [
        # the blob's resampling would keep almost none of its draws
        ("golden_2d", "f0.sigma_x", 1000.0, cli.EXIT_USAGE),
        # a field Gaussian narrower than a grid cell (2 sigma^2 underflowed)
        ("golden_25d", "fields0.a3_sigma", 2.2250738585072014e-308,
         cli.EXIT_USAGE),
        ("golden_25d", "fields0.e3_sigma", 5e-324, cli.EXIT_USAGE),
        # a positive t_final shorter than half a step
        ("golden_2d", "t_final", 1e-12, cli.EXIT_USAGE),
        # the sampled momenta overflow
        ("golden_2d", "f0.alpha", 2.0000001, cli.EXIT_FAIL),
        ("golden_25d", "f0.p3_nu", 1e-300, cli.EXIT_FAIL),
        # two orders whose diagnostics columns share a name
        ("golden_2d", "moment_orders", [2, 2], cli.EXIT_USAGE),
        ("golden_2d", "moment_orders", [2.5, 2.5000001], cli.EXIT_USAGE),
        ("golden_2d", "moment_orders", [0.123451, 0.123452], cli.EXIT_USAGE),
    ])
    def test_found_inputs(self, name, key, value, code):
        # inputs that ended with a RuntimeWarning raised deep in the run,
        # sampled for a long time or wrote a column name twice: each exits
        # with one stderr line
        got, err = _simulate_mutated(SCENARIOS_DIR / f"{name}.json", key,
                                     value)
        assert got == code
        assert len(err.splitlines()) == 1
        if code == cli.EXIT_USAGE:
            assert key in err
