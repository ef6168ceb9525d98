import csv
import json
import re

import numpy as np
import pytest

from petident import cli
from petident.cli import _campaign_from_file, build_parser, main
from petident.experiments import default_scenario, scenario_to_dict
from petident.solver import IrgnmSettings


@pytest.fixture(scope="module")
def scenario_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenarios")
    scn = default_scenario()
    paths = {}
    for units in ("min", "s"):
        path = root / f"reference_{units}.json"
        path.write_text(json.dumps(scenario_to_dict(scn, units)))
        paths[units] = path
    return paths


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_hundred_entry_measurement_file(self, scenario_files, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--scenario", scenario_files["min"], "--out", out) == 0
        with open(out / "y_true.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        assert {"x_true.csv", "y_true.csv", "curves.csv"} <= {
            p.name for p in out.iterdir()
        }

    def test_units_round_trip(self, scenario_files, tmp_path):
        out_min = tmp_path / "min"
        out_sec = tmp_path / "sec"
        run_cli("simulate", "--scenario", scenario_files["min"], "--out", out_min)
        run_cli("simulate", "--scenario", scenario_files["s"], "--out", out_sec)
        for name in ("x_true.csv", "y_true.csv", "curves.csv"):
            assert (out_min / name).read_bytes() == (out_sec / name).read_bytes()

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert run_cli("simulate", "--scenario", bad, "--out", tmp_path / "o") == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("simulate", "--scenario", tmp_path / "nope.json", "--out", tmp_path) == 2


class TestIdentify:
    def test_noiseless_small_perturbation_recovers(self, scenario_files, tmp_path, capsys):
        code = run_cli(
            "identify", "--scenario", scenario_files["min"], "--synthesize",
            "--delta-x", "0.01", "--out", tmp_path,
        )
        assert code == 0
        out = capsys.readouterr().out
        match = re.search(r"rel_error: ([0-9.e+-]+)", out)
        assert match and float(match.group(1)) < 1e-4
        trace = (tmp_path / "identify_trace.csv").read_text().splitlines()
        assert trace[0] == "iter,residual_norm,rel_error"

    def test_known_cart_mode_reflected(self, scenario_files, tmp_path, capsys):
        code = run_cli(
            "identify", "--scenario", scenario_files["min"], "--synthesize",
            "--mode", "known_cart", "--max-iter", "20", "--out", tmp_path,
        )
        assert code == 0
        assert "mode: known_cart" in capsys.readouterr().out

    def test_tau_below_one_rejected(self, scenario_files, tmp_path):
        code = run_cli(
            "identify", "--scenario", scenario_files["min"], "--synthesize",
            "--tau", "0.9", "--out", tmp_path,
        )
        assert code == 1

    def test_data_dimension_mismatch_exits_2(self, scenario_files, tmp_path):
        data = tmp_path / "short.json"
        data.write_text(json.dumps({"y": [0.0] * 55}))
        code = run_cli(
            "identify", "--scenario", scenario_files["min"], "--data", data,
            "--out", tmp_path,
        )
        assert code == 2

    def test_simulated_file_feeds_back(self, scenario_files, tmp_path, capsys):
        out = tmp_path / "sim"
        run_cli("simulate", "--scenario", scenario_files["min"], "--out", out)
        capsys.readouterr()
        code = run_cli(
            "identify", "--scenario", scenario_files["min"],
            "--data", out / "y_true.csv", "--delta-x", "0.01",
            "--out", tmp_path,
        )
        assert code == 0
        assert "stop:" in capsys.readouterr().out

    def test_measured_data_reports_no_truth_errors(self, scenario_files, tmp_path, capsys):
        # the scenario is only the prior for measured data: no error against it
        out = tmp_path / "sim"
        run_cli("simulate", "--scenario", scenario_files["min"], "--out", out)
        capsys.readouterr()
        code = run_cli(
            "identify", "--scenario", scenario_files["min"],
            "--data", out / "y_true.csv", "--max-iter", "3", "--out", tmp_path,
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "rel_error" not in printed and "rho_" not in printed
        rows = list(csv.DictReader((tmp_path / "identify_trace.csv").read_text().splitlines()))
        assert len(rows) == 4 and all(row["rel_error"] == "" for row in rows)

    @pytest.mark.parametrize("bad", ["nan", "abc"])
    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_invalid_data_value_exits_2(self, scenario_files, tmp_path, bad, suffix):
        values = ["0.5"] * 100
        values[7] = bad
        data = tmp_path / f"bad{suffix}"
        if suffix == ".json":
            # NaN is a JSON literal for the parser; "abc" is a non-numeric string
            y = [float(v) if v != "abc" else v for v in values]
            data.write_text(json.dumps({"y": y}))
        else:
            data.write_text("value\n" + "\n".join(values) + "\n")
        code = run_cli(
            "identify", "--scenario", scenario_files["min"], "--data", data,
            "--out", tmp_path,
        )
        assert code == 2


def _spoil_rate(data):
    data["regions"][1]["k2"] = float("nan")


def _spoil_lambda(data):
    data["lambda"][0] = float("inf")


def _spoil_grid_order(data):
    times = data["grid"]["times"]
    times[3], times[4] = times[4], times[3]


def _spoil_grid_sign(data):
    data["grid"]["times"][0] = -1.0


def _spoil_plasma_short(data):
    data["plasma"] = {"model": "biexp", "m": [0.1, -0.005]}


def _spoil_plasma_long(data):
    data["plasma"] = {"model": "biexp", "m": [0.1, -0.005, -0.1, 0.3]}


def _spoil_plasma_model(data):
    data["plasma"]["model"] = "gamma"


def _spoil_mode(data):
    data["mode"] = "bogus"


def _spoil_extra_key(data):
    data["arterial"] = data["lambda"]


def _spoil_extra_plasma_key(data):
    data["plasma"]["m"] = [0.1, -0.005, -0.1]


def _spoil_extra_region_key(data):
    data["regions"][1]["k4"] = 0.01


def _spoil_top_level_units(data):
    # the time unit is declared under grid only
    del data["grid"]["units"]
    data["units"] = "s"


class TestScenarioValidation:
    """A scenario file with a non-finite value, a bad time grid, a plasma
    block other than the biexponential's, an unknown mode or a key the file
    form does not have is an input error for every subcommand that reads
    it."""

    @pytest.mark.parametrize(
        "spoil",
        [
            _spoil_rate, _spoil_lambda, _spoil_grid_order, _spoil_grid_sign,
            _spoil_plasma_short, _spoil_plasma_long, _spoil_plasma_model,
            _spoil_mode, _spoil_extra_key, _spoil_extra_plasma_key,
            _spoil_extra_region_key, _spoil_top_level_units,
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["check"],
            ["simulate"],
            ["identify", "--synthesize", "--max-iter", "1"],
            ["reproduce", "--all", "--repetitions", "1"],
            ["jaccheck", "--trials", "1"],
        ],
        ids=lambda command: command[0],
    )
    def test_bad_scenario_exits_2(self, tmp_path, capsys, spoil, command):
        data = scenario_to_dict(default_scenario())
        spoil(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = run_cli(*command, "--scenario", path, "--out", tmp_path / "out")
        assert code == 2
        assert "cannot parse scenario" in capsys.readouterr().err


class TestNegativeSeed:
    """Philox takes nonnegative seeds only: a negative one, from the flag or
    from a campaign file, is a usage error before any run starts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["identify", "--synthesize", "--scenario", "{scenario}", "--seed", "-1"],
            ["jaccheck", "--trials", "1", "--seed", "-1"],
            ["reproduce", "--campaign", "{campaign}", "--seed", "-1"],
            ["reproduce", "--campaign", "{negative_campaign}"],
        ],
        ids=["identify", "jaccheck", "reproduce-flag", "reproduce-file"],
    )
    def test_exits_1(self, scenario_files, tmp_path, capsys, argv):
        paths = {"scenario": scenario_files["min"]}
        for name, seed in (("campaign", 0), ("negative_campaign", -1)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(
                json.dumps({"delta_y": 1e-3, "delta_x": 0.1, "repetitions": 1, "seed": seed})
            )
        argv = [a.format(**paths) for a in argv]
        assert run_cli(*argv, "--out", tmp_path / "out") == 1
        assert "usage error:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.json").exists()


class TestCampaignFile:
    """A campaign file is read strictly, before any cell runs: an unknown
    key or a level that is not a number is an input error (exit 2), an
    integer field that is not an integer or an unknown mode a usage error
    (exit 1); each message names the field."""

    @pytest.mark.parametrize(
        "fields, code, named",
        [
            ({"repetitons": 1, "max_iters": 5}, 2, "['max_iters', 'repetitons']"),
            ({"mode": "bogus"}, 1, "'bogus'"),
            ({"repetitions": 2.5}, 1, "repetitions"),
            ({"repetitions": True}, 1, "repetitions"),
            ({"seed": 1.5}, 1, "seed"),
            ({"seed": True}, 1, "seed"),
            ({"max_iter": 2.5}, 1, "max_iter"),
            ({"max_iter": True}, 1, "max_iter"),
            ({"delta_y": "x"}, 2, "delta_y"),
            ({"delta_x": "x"}, 2, "delta_x"),
            ({"tau": None}, 2, "tau"),
            ({"delta_y": float("nan")}, 2, "delta_y"),
            ({"delta_x": float("inf")}, 2, "delta_x"),
        ],
    )
    def test_rejected_before_any_run(self, tmp_path, capsys, fields, code, named):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(
            json.dumps({"delta_y": 1e-3, "delta_x": 0.1, "repetitions": 1, **fields})
        )
        out = tmp_path / "rep"
        assert run_cli("reproduce", "--campaign", campaign, "--out", out) == code
        err = capsys.readouterr().err
        assert err.startswith("usage error:" if code == 1 else "input error:")
        assert named in err
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize(
        "text, named",
        [('{"delta_y": 0.001}', "missing field 'delta_x'"), ("5", "not a JSON object")],
    )
    def test_malformed_file_is_an_input_error(self, tmp_path, capsys, text, named):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(text)
        assert run_cli("reproduce", "--campaign", campaign, "--out", tmp_path) == 2
        assert named in capsys.readouterr().err


class TestCheck:
    def test_reference_scenario_report(self, scenario_files, capsys):
        assert run_cli("check", "--scenario", scenario_files["min"]) == 0
        out = capsys.readouterr().out
        assert "region diversity: satisfied" in out
        assert "T=25 >= 12 OK" in out

    def test_short_grid_warns(self, tmp_path, capsys):
        data = scenario_to_dict(default_scenario())
        data["grid"] = {"times": np.linspace(0, 62.5, 10).tolist()}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        assert run_cli("check", "--scenario", path) == 0
        assert "warning T=10 < 12" in capsys.readouterr().out

    def test_duplicate_regions_named_clause(self, tmp_path, capsys):
        data = scenario_to_dict(default_scenario())
        data["regions"] = [data["regions"][0]] * 3
        data.pop("n", None)
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(data))
        assert run_cli("check", "--scenario", path) == 0
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "k3 not pairwise distinct" in out


class TestJaccheck:
    def test_default_passes(self, capsys):
        assert run_cli("jaccheck", "--trials", "5") == 0
        assert "PASS" in capsys.readouterr().out

    def test_corruption_detected(self, capsys):
        code = run_cli("jaccheck", "--trials", "2", "--corrupt", "74", "0", "0.01")
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_zero_trials_is_usage_error(self):
        assert run_cli("jaccheck", "--trials", "0") == 1


class TestReproduce:
    def test_campaign_file(self, scenario_files, tmp_path, capsys):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(
            json.dumps(
                {"delta_y": 1e-3, "delta_x": 0.05, "repetitions": 3, "seed": 9}
            )
        )
        out = tmp_path / "rep"
        code = run_cli(
            "reproduce", "--campaign", campaign, "--scenario",
            scenario_files["min"], "--out", out,
        )
        assert code == 0
        table = (out / "table1.csv").read_text().splitlines()
        assert len(table) == 2 and table[0].startswith("delta_y,")
        assert (out / "results.json").exists()

    @pytest.mark.parametrize(
        "fields, max_iter",
        [({"delta_y": 1e-3}, 200), ({"delta_y": 0.0}, 300), ({"delta_y": 1e-3, "max_iter": 50}, 50)],
    )
    def test_campaign_file_solver_defaults(self, tmp_path, fields, max_iter):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps({**fields, "delta_x": 0.1}))
        args = build_parser().parse_args(["reproduce", "--campaign", str(campaign)])
        assert _campaign_from_file(str(campaign), args).settings == IrgnmSettings(
            a=800.0, b=0.2, tau=1.1, epsilon=1e-3, max_iter=max_iter,
            delta_estimate=fields["delta_y"],
        )

    @pytest.mark.parametrize("flag_seed, seed", [(None, 7), (3, 3)])
    def test_campaign_file_seed_unless_flag(self, tmp_path, flag_seed, seed):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(
            json.dumps({"delta_y": 1e-3, "delta_x": 0.1, "repetitions": 1, "seed": 7})
        )
        argv = ["reproduce", "--campaign", campaign, "--out", tmp_path / "rep"]
        assert run_cli(*argv, *(["--seed", flag_seed] if flag_seed is not None else [])) == 0
        [entry] = json.loads((tmp_path / "rep" / "results.json").read_text())
        assert entry["spec"]["seed"] == seed

    def test_requires_exactly_one_source(self, tmp_path):
        assert run_cli("reproduce", "--out", tmp_path) == 1

    @pytest.mark.parametrize("source", ["--all", "--campaign"])
    @pytest.mark.parametrize("repetitions", ["0", "-1"])
    def test_repetitions_below_one_is_usage_error(self, tmp_path, capsys, source, repetitions):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps({"delta_y": 1e-3, "delta_x": 0.1, "repetitions": 2}))
        argv = ["--all"] if source == "--all" else ["--campaign", campaign]
        code = run_cli("reproduce", *argv, "--repetitions", repetitions, "--out", tmp_path / "rep")
        assert code == 1
        assert "usage error:" in capsys.readouterr().err
        assert not (tmp_path / "rep" / "results.json").exists()

    def test_mode_with_all_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "reproduce", "--all", "--mode", "known_cart", "--repetitions", "1",
            "--out", tmp_path,
        )
        assert code == 1
        assert "--mode cannot be combined with --all" in capsys.readouterr().err
        assert not (tmp_path / "results.json").exists()

    def test_outputs_of_an_earlier_run_are_removed(self, tmp_path):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(
            json.dumps({"delta_y": 1e-3, "delta_x": 0.1, "repetitions": 2, "seed": 3})
        )
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert run_cli("reproduce", "--all", "--repetitions", "1", "--out", reused) == 0
        for out in (reused, fresh):
            assert run_cli("reproduce", "--campaign", campaign, "--out", out) == 0
        names = sorted(p.name for p in reused.iterdir())
        assert names == sorted(p.name for p in fresh.iterdir())
        for name in names:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()

    def test_interrupt_keeps_the_finished_cells(self, tmp_path, monkeypatch):
        finished = []

        def run_two_cells(spec, scenario):
            if len(finished) == 2:
                raise KeyboardInterrupt
            finished.append(real_run_campaign(spec, scenario))
            return finished[-1]

        real_run_campaign = cli.run_campaign
        monkeypatch.setattr(cli, "run_campaign", run_two_cells)
        with pytest.raises(KeyboardInterrupt):
            run_cli("reproduce", "--all", "--repetitions", "1", "--out", tmp_path)
        rows = (tmp_path / "table1.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert len(json.loads((tmp_path / "results.json").read_text())) == 2

    def test_rerun_is_byte_identical(self, scenario_files, tmp_path):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(
            json.dumps(
                {"delta_y": 1e-3, "delta_x": 0.1, "repetitions": 4, "seed": 17}
            )
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(
                "reproduce", "--campaign", campaign, "--scenario",
                scenario_files["min"], "--out", out,
            ) == 0
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
