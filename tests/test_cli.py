import argparse
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from petident import cli
from petident.cli import _cells, build_parser, main
from petident.experiments import (
    CampaignSpec, default_scenario, run_campaign, scenario_from_dict, scenario_to_dict,
    simulate_ground_truth,
)
from petident.forward import MODES
from petident.solver import IrgnmSettings

from numeric_platform import pin_message
from test_output_bytes import REPRODUCE, reproduce_digests


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

    def test_plasma_fraction_underflow_after_the_last_blood_sample(self, tmp_path):
        # past 30 min the dense curve grid finds C_art / f overflowing, then
        # f underflowing to 0: c_bl reads inf, then 0, and nothing warns
        data = scenario_to_dict(default_scenario())
        data["grid"]["blood_times"] = [0, 1, 5, 10, 20, 30]
        data["plasma"].update(A=0, xi1=0, xi2=-12)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert run_cli("simulate", "--scenario", path, "--out", tmp_path / "sim") == 0
        with open(tmp_path / "sim" / "curves.csv", newline="") as fh:
            c_bl = [row["c_bl"] for row in csv.DictReader(fh)]
        assert "inf" in c_bl and c_bl[-1] == "0"

    @pytest.mark.parametrize("form", ["reference", "known_cart", "own_blood_times"])
    def test_curves_agree_with_y_true(self, tmp_path, form):
        # curves.csv and y_true.csv come from one formula: at every time both
        # files have, each region's tissue value is the same text
        data = scenario_to_dict(default_scenario("known_cart" if form == "known_cart" else "full"))
        if form == "own_blood_times":
            data["grid"]["blood_times"] = [0, 0.5, 3, 10, 25, 45, 62.5]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "sim"
        assert run_cli("simulate", "--scenario", path, "--out", out) == 0
        with open(out / "y_true.csv", newline="") as fh:
            y_true = {
                (row["t_sec"], row["region"]): row["value"]
                for row in csv.DictReader(fh) if row["block"] == "c_tis"
            }
        with open(out / "curves.csv", newline="") as fh:
            curves = {
                (row["t_sec"], str(i)): row[f"c_tis_{i}"]
                for row in csv.DictReader(fh) for i in (1, 2, 3)
            }
        shared = y_true.keys() & curves.keys()
        assert len(shared) > 3 * 10
        assert {key: curves[key] for key in shared} == {key: y_true[key] for key in shared}

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
        assert "failure:" not in out
        trace = (tmp_path / "identify_trace.csv").read_text().splitlines()
        assert trace[0] == "iter,residual_norm,rel_error"

    @pytest.mark.parametrize(
        "spoil, flags, stop, failure, answer",
        [
            # a datum whose square overflows: J^T (F - y) is not finite, so
            # the first step fails, on a start where J is finite
            ("overflowing", [], 0,
             "normal-equation solve failed at alpha=8.000e+02 (cond~inf) at iteration 0",
             "answer: rank 18 of 18, "),
            # data 1e20 times the truth's: the first step leaves the float range
            ("scaled", ["--delta-x", "0", "--max-iter", "1"], 1,
             "residual norm is nan at iteration 1",
             "answer: jacobian not finite at the final iterate"),
        ],
        ids=["overflowing", "scaled"],
    )
    def test_failure_stop_exits_3_after_its_report_and_trace(
        self, scenario_files, tmp_path, capsys, spoil, flags, stop, failure, answer
    ):
        y = simulate_ground_truth(default_scenario())[1].flat()
        if spoil == "overflowing":
            y[32] = 1.7e308
        else:
            y *= 1e20
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"y": y.tolist()}))
        out = tmp_path / "out"
        code = run_cli(
            "identify", "--scenario", scenario_files["min"], "--data", data, *flags,
            "--out", out,
        )
        assert code == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == [f"stop: failure at iteration {stop}", f"failure: {failure}"]
        assert lines[3].startswith("residual: ") and lines[4].startswith(answer)
        trace = (out / "identify_trace.csv").read_text().splitlines()
        assert trace[0] == "iter,residual_norm,rel_error" and len(trace) == stop + 2

    @pytest.mark.parametrize("delta_y, delta_x", [(1e-3, 0.1), (0.0, 0.05)])
    @pytest.mark.parametrize("mode", ["full", "known_cart"])
    @pytest.mark.parametrize("seed", [0, 7, 300])
    def test_synthesize_is_repetition_0_of_a_one_cell_campaign(
        self, scenario_files, tmp_path, monkeypatch, delta_y, delta_x, mode, seed
    ):
        fits = []

        def keep_record(*args, **kwargs):
            fits.append(real_run_irgnm(*args, **kwargs))
            return fits[-1]

        real_run_irgnm = cli.run_irgnm
        monkeypatch.setattr(cli, "run_irgnm", keep_record)
        code = run_cli(
            "identify", "--scenario", scenario_files["min"], "--synthesize", "--mode", mode,
            "--seed", seed, "--delta-y", delta_y, "--delta-x", delta_x, "--out", tmp_path,
        )
        [fit] = fits
        assert code == (3 if fit.stop_reason == "failure" else 0)
        scenario = scenario_from_dict(json.loads(scenario_files["min"].read_text()))
        spec = CampaignSpec(delta_y, delta_x, repetitions=1, mode=mode, seed=seed)
        [rep] = run_campaign(spec, scenario).records
        for field in ("residual_norms", "rel_errors"):
            assert np.array_equal(getattr(fit, field), getattr(rep, field), equal_nan=True)
        assert np.array_equal(fit.final_x.flat, rep.final_x.flat, equal_nan=True)
        assert (fit.stop_reason, fit.stop_iter, fit.rho_opt, fit.rho_d) == (
            rep.stop_reason, rep.stop_iter, rep.rho_opt, rep.rho_d
        )

    @pytest.mark.parametrize(
        "mode, answer",
        [
            ("full", "answer: rank 18 of 18, sigma_min/sigma_max 7.295e-05"),
            # without the three plasma columns, which known_cart mode zeroes
            ("known_cart", "answer: rank 15 of 15, sigma_min/sigma_max 1.402e-04"),
        ],
    )
    def test_answer_certificate_follows_the_residual(
        self, scenario_files, tmp_path, capsys, mode, answer
    ):
        # the noise-free data of the scenario, synthesized or read from the
        # full-mode file that simulate writes, give the same fit and answer line
        run_cli("simulate", "--scenario", scenario_files["min"], "--out", tmp_path / "sim")
        sources = [["--synthesize"], ["--data", tmp_path / "sim" / "y_true.csv"]]
        for source in sources if mode == "full" else sources[:1]:
            capsys.readouterr()
            code = run_cli(
                "identify", "--scenario", scenario_files["min"], *source, "--mode", mode,
                "--out", tmp_path,
            )
            assert code == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[2].startswith("residual: ") and lines[3] == answer

    def test_known_cart_mode_reflected(self, scenario_files, tmp_path, capsys):
        code = run_cli(
            "identify", "--scenario", scenario_files["min"], "--synthesize",
            "--mode", "known_cart", "--max-iter", "20", "--out", tmp_path,
        )
        assert code == 0
        assert "mode: known_cart" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--max-iter", "3727"], "max_iter=3727 is too large for a=800.0, b=0.2"),
            (["--alpha-b", "4", "--max-iter", "300"], "max_iter=300 is too large for a=800.0, b=4.0"),
        ],
    )
    def test_schedule_underflow_is_usage_error(
        self, scenario_files, tmp_path, capsys, flags, named
    ):
        # alpha_k = 0 before the last step: rejected before any run, not after
        code = run_cli(
            "identify", "--scenario", scenario_files["min"], "--synthesize",
            *flags, "--out", tmp_path / "out",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"usage error: {named}")
        assert not (tmp_path / "out").exists()

    def test_tau_below_one_rejected(self, scenario_files, tmp_path):
        code = run_cli(
            "identify", "--scenario", scenario_files["min"], "--synthesize",
            "--tau", "0.9", "--out", tmp_path,
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--tau", "nan"), ("--alpha-a", "nan"), ("--alpha-b", "inf"), ("--epsilon", "inf"),
         ("--delta-y", "nan"), ("--delta-x", "nan"), ("--delta-x", "-1")],
    )
    def test_nonfinite_or_negative_setting_is_usage_error(
        self, scenario_files, tmp_path, capsys, flag, value
    ):
        # such a value would run on, with NaN rates or without a stop rule
        code = run_cli(
            "identify", "--scenario", scenario_files["min"], "--synthesize",
            flag, value, "--max-iter", "2", "--out", tmp_path,
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "identify_trace.csv").exists()

    @pytest.mark.parametrize(
        "source, named",
        [
            (
                ["--data", "{data}", "--synthesize"],
                "argument --synthesize: not allowed with argument --data",
            ),
            ([], "one of the arguments --data --synthesize is required"),
        ],
        ids=["both", "neither"],
    )
    def test_exactly_one_data_source(self, scenario_files, tmp_path, capsys, source, named):
        data = tmp_path / "data.json"
        data.write_text(json.dumps([0.5] * 100))
        argv = [a.format(data=data) for a in source]
        code = run_cli(
            "identify", "--scenario", scenario_files["min"], *argv, "--out", tmp_path / "out"
        )
        assert code == 1
        captured = capsys.readouterr()
        assert f"usage error: {named}\n" in captured.err
        assert captured.out == ""  # no fit
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"y": ["0.5"] * 100}, "y entry 0 must be a finite number, got '0.5'"),
            ([0.5] * 7 + [True] + [0.5] * 92, "y entry 7 must be a finite number, got True"),
            ({"values": [0.5] * 100}, "unknown data keys ['values']"),
            ({"y": [0.5] * 100, "units": "min"}, "unknown data keys ['units']"),
        ],
        ids=["string", "bool", "missing_y", "extra_key"],
    )
    def test_json_data_follows_the_reader_number_rule(
        self, scenario_files, tmp_path, capsys, payload, named
    ):
        # the JSON numbers of the scenario and campaign readers: no strings, no bools
        data = tmp_path / "data.json"
        data.write_text(json.dumps(payload))
        code = run_cli(
            "identify", "--scenario", scenario_files["min"], "--data", data,
            "--max-iter", "1", "--out", tmp_path / "out",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"input error: cannot parse data {data}: {named}")
        assert not (tmp_path / "out").exists()


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


def _spoil_plasma_sign(data):
    # f(t) = 2 e^(-t) - 1 turns negative after ln 2 minutes
    data["plasma"].update(A=2.0, xi1=-1.0, xi2=0.0)


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


# a value of the wrong JSON type, and a file that is not an object
def _spoil_grid_not_object(data):
    data["grid"] = []


def _spoil_nested_times(data):
    data["grid"]["times"] = [[0, 1], [2, 3]]


def _spoil_string_rate(data):
    data["regions"][0]["K1"] = "0.1"


def _spoil_bool_rate(data):
    data["regions"][0]["K1"] = True


def _spoil_fractional_p(data):
    data["p"] = 3.7


def _spoil_scalar_lambda(data):
    data.pop("p")
    data.update({"lambda": 5.0, "mu": -0.1})


def _spoil_plasma_not_object(data):
    data["plasma"] = [0.1, -0.005, -0.1]


def _spoil_region_not_object(data):
    data["regions"][1] = [0.1, 0.2, 0.05]


def _spoil_top_level_list(data):
    return [data]


def _spoil_regions_not_list(data):
    data["regions"] = {"1": data["regions"][0]}


# a declared size, or the arterial pairing, that the lists do not have
def _spoil_declared_n(data):
    data["n"] = 4


def _spoil_short_mu(data):
    data["mu"] = data["mu"][:2]


# a required key left out, at each level
def _spoil_missing_lambda(data):
    data.pop("lambda")


def _spoil_missing_plasma_A(data):
    data["plasma"].pop("A")


def _spoil_missing_region_K1(data):
    data["regions"][1].pop("K1")


def _spoil_merged_mu(data):
    # two equal exponents would make one term of the arterial sum
    data["mu"] = [-0.5, -0.2, -0.2]


def _spoil_clearance(data):
    # the closed forms divide by k2 + k3
    data["regions"][1].update(k2=0.0, k3=0.0)


def _spoil_zero_lambda(data):
    # a zero weight would leave the arterial sum a term short
    data["lambda"] = [-5.0, 0.0, 1.0]


def _spoil_empty_lambda(data):
    data.pop("p")
    data["lambda"] = []


def _spoil_empty_mu(data):
    data.pop("p")
    data["mu"] = []


def _spoil_no_regions(data):
    data.update(n=0, regions=[])


def _spoil_empty_times(data):
    data["grid"]["times"] = []


def _spoil_empty_blood_times(data):
    data["grid"]["blood_times"] = []


def _spoil_overflowing_K1(data):
    # finite in 1/s, beyond the largest double once multiplied by 60
    data["grid"]["units"] = "s"
    data["regions"][1]["K1"] = 1e307


def _spoil_overflowing_mu(data):
    data["grid"]["units"] = "s"
    data["mu"][0] = -1e307


# each negative rate leaves k2 + k3 positive
def _spoil_negative_K1(data):
    data["regions"][1]["K1"] = -0.05


def _spoil_negative_k2(data):
    data["regions"][1]["k2"] = -0.05


def _spoil_negative_k3(data):
    data["regions"][1]["k3"] = -0.05


def _spoil_negative_A(data):
    data["plasma"]["A"] = -0.1


def _spoil_positive_xi1(data):
    data["plasma"]["xi1"] = 0.01


def _spoil_positive_xi2(data):
    data["plasma"]["xi2"] = 0.01


# every number is finite in 1/min, the noise-free measurements are not
def _spoil_infinite_clearance(data):
    data["regions"][1].update(k2=1.5e308, k3=1.5e308)


def _spoil_overflowing_gain(data):
    data["regions"][1].update(K1=1e200, k3=1e200)


def _spoil_growing_exponent(data):
    data["mu"][2] = 20


def _spoil_growing_exponent_in_blood(data):
    # the tissue frames end before e^(20 t) overflows, the blood samples do not
    data["mu"][2] = 20
    times = data["grid"]["times"]
    data["grid"].update(times=[t for t in times if t <= 32.5], blood_times=times)


# f(62.5 min) is about 4e-322 > 0, so C_art / f overflows in full mode only
def _spoil_known_cart_plasma_underflow(data):
    data["mode"] = "known_cart"
    data["plasma"].update(A=0, xi1=0, xi2=-11.84)


class TestScenarioValidation:
    """A scenario file with a non-finite value, a bad time grid, a plasma
    block other than the biexponential's, a plasma fraction that is not
    positive at a blood sample time, a region whose k2 + k3 is not positive,
    an empty piece, a truth outside the solver's admissible set, noise-free
    measurements that are not finite, an unknown mode or a key the file form
    does not have is an input error for every subcommand that reads it."""

    @pytest.mark.parametrize(
        "spoil",
        [
            _spoil_rate, _spoil_lambda, _spoil_grid_order, _spoil_grid_sign,
            _spoil_plasma_short, _spoil_plasma_long, _spoil_plasma_model,
            _spoil_plasma_sign, _spoil_mode, _spoil_extra_key, _spoil_extra_plasma_key,
            _spoil_extra_region_key, _spoil_top_level_units, _spoil_clearance,
            _spoil_grid_not_object, _spoil_nested_times, _spoil_string_rate,
            _spoil_bool_rate, _spoil_fractional_p, _spoil_scalar_lambda,
            _spoil_plasma_not_object, _spoil_region_not_object, _spoil_top_level_list,
            _spoil_regions_not_list, _spoil_declared_n, _spoil_short_mu,
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["check"],
            ["simulate", "--out", "{out}"],
            ["identify", "--synthesize", "--max-iter", "1", "--out", "{out}"],
            ["reproduce", "--all", "--repetitions", "1", "--out", "{out}"],
            ["jaccheck", "--trials", "1"],
        ],
        ids=lambda command: command[0],
    )
    def test_bad_scenario_exits_2(self, tmp_path, capsys, spoil, command):
        data = scenario_to_dict(default_scenario())
        data = spoil(data) or data  # a spoil may replace the whole file
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv = [a.format(out=tmp_path / "out") for a in command]
        code = run_cli(*argv, "--scenario", path)
        assert code == 2
        assert "cannot parse scenario" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spoil, named",
        [
            (_spoil_grid_not_object, "grid must be an object"),
            (_spoil_nested_times, "times entry 0 must be a finite number, got [0, 1]"),
            (_spoil_string_rate, "region 1 K1 must be a finite number, got '0.1'"),
            (_spoil_bool_rate, "region 1 K1 must be a finite number, got True"),
            (_spoil_fractional_p, "p must be an integer, got 3.7"),
            (_spoil_scalar_lambda, "lambda must be a flat list of finite numbers, got 5.0"),
            (_spoil_plasma_not_object, "plasma must be an object"),
            (_spoil_region_not_object, "region 2 must be an object"),
            (_spoil_top_level_list, "scenario must be an object"),
            (_spoil_missing_lambda, "scenario is missing lambda"),
            (_spoil_missing_plasma_A, "plasma is missing A"),
            (_spoil_missing_region_K1, "region 2 is missing K1"),
            (_spoil_regions_not_list, "regions must be a list of objects"),
            (_spoil_declared_n, "declared n does not match the number of regions"),
            (_spoil_short_mu, "lambda has 3 entries, mu has 2"),
        ],
        ids=lambda value: value.__name__.removeprefix("_spoil_") if callable(value) else None,
    )
    def test_bad_type_names_its_key(self, tmp_path, capsys, spoil, named):
        data = scenario_to_dict(default_scenario())
        data = spoil(data) or data
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run_cli("check", "--scenario", path) == 2
        err = capsys.readouterr().err
        assert "cannot parse scenario" in err and named in err

    @pytest.mark.parametrize(
        "spoil, named", [(_spoil_merged_mu, "mu entries"), (_spoil_zero_lambda, "lambda")]
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["check"],
            ["simulate", "--out", "{out}"],
            ["identify", "--synthesize", "--max-iter", "1", "--out", "{out}"],
            ["reproduce", "--campaign", "{campaign}", "--out", "{out}"],
        ],
        ids=lambda command: command[0],
    )
    def test_fewer_arterial_terms_than_listed_exits_2(
        self, tmp_path, capsys, spoil, named, command
    ):
        # a file with "p": 3 whose arterial sum has fewer than 3 terms
        data = scenario_to_dict(default_scenario())
        spoil(data)
        assert data["p"] == 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps({"delta_y": 1e-3, "delta_x": 0.1, "repetitions": 1}))
        argv = [a.format(campaign=campaign, out=tmp_path / "out") for a in command]
        code = run_cli(*argv, "--scenario", path)
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot parse scenario" in err and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "spoil, named",
        [
            (_spoil_empty_lambda, "lambda must not be empty"),
            (_spoil_empty_mu, "mu must not be empty"),
            (_spoil_no_regions, "regions must not be empty"),
            (_spoil_empty_times, "times must not be empty"),
            (_spoil_empty_blood_times, "blood_times must not be empty"),
            (_spoil_overflowing_K1, "region 2 K1 = 1e+307 overflows in 1/min"),
            (_spoil_overflowing_mu, "mu entry 0 = -1e+307 overflows in 1/min"),
            (_spoil_negative_K1, "region 2 of 3 has K1 = -0.05 1/min"),
            (_spoil_negative_k2, "region 2 of 3 has k2 = -0.05 1/min"),
            (_spoil_negative_k3, "region 2 of 3 has k3 = -0.05 1/min"),
            (_spoil_negative_A, "plasma A must be nonnegative, got -0.1"),
            (_spoil_positive_xi1, "plasma xi1 must not be positive, got 0.01 1/min"),
            (_spoil_positive_xi2, "plasma xi2 must not be positive, got 0.01 1/min"),
        ],
        ids=lambda value: value.__name__.removeprefix("_spoil_") if callable(value) else None,
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["check"],
            ["simulate", "--out", "{out}"],
            ["identify", "--synthesize", "--max-iter", "1", "--out", "{out}"],
            ["jaccheck", "--trials", "1"],
        ],
        ids=lambda command: command[0],
    )
    def test_empty_piece_or_truth_outside_the_box_exits_2(
        self, tmp_path, capsys, spoil, named, command
    ):
        data = scenario_to_dict(default_scenario())
        spoil(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv = [a.format(out=tmp_path / "out") for a in command]
        code = run_cli(*argv, "--scenario", path)
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot parse scenario" in err and named in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "spoil, named",
        [
            (_spoil_infinite_clearance, "region 2 at time 0 min gives nan"),
            (_spoil_overflowing_gain, "region 2 at time 0 min gives nan"),
            (_spoil_growing_exponent, "region 1 at time 37.5 min gives inf"),
            (_spoil_growing_exponent_in_blood, "blood time 37.5 min gives nan"),
            (_spoil_known_cart_plasma_underflow, "in full mode, blood time 62.5 min gives inf"),
        ],
        ids=lambda value: value.__name__.removeprefix("_spoil_") if callable(value) else None,
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["check"],
            ["simulate", "--out", "{out}"],
            ["identify", "--synthesize", "--max-iter", "2", "--out", "{out}"],
            ["reproduce", "--all", "--repetitions", "1", "--out", "{out}"],
            ["jaccheck", "--trials", "1"],
        ],
        ids=lambda command: command[0],
    )
    def test_nonfinite_ground_truth_exits_2(self, tmp_path, capsys, spoil, named, command):
        # a RuntimeWarning on the way is an error under this suite's settings
        data = scenario_to_dict(default_scenario())
        spoil(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv = [a.format(out=tmp_path / "out") for a in command]
        code = run_cli(*argv, "--scenario", path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: cannot parse scenario {path}: noise-free ")
        assert named in err
        assert not (tmp_path / "out").exists()


class TestUnreadableFile:
    """A file flag naming a directory, an empty file or bytes that are not
    UTF-8 is an input error with one line, before anything is written."""

    @pytest.mark.parametrize(
        "argv, kind, suffix",
        [
            (["check", "--scenario"], "scenario", ".json"),
            (["reproduce", "--out", "{out}", "--campaign"], "campaign", ".json"),
            (["identify", "--scenario", "{scenario}", "--out", "{out}", "--data"], "data", ".json"),
            (["identify", "--scenario", "{scenario}", "--out", "{out}", "--data"], "data", ".csv"),
        ],
        ids=["scenario", "campaign", "data-json", "data-csv"],
    )
    @pytest.mark.parametrize("content", ["directory", "empty", "not-utf8"])
    def test_exits_2_with_one_line(
        self, scenario_files, tmp_path, capsys, argv, kind, suffix, content
    ):
        path = tmp_path / f"x{suffix}"
        if content == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"" if content == "empty" else b"\xff\xfe\x00[1]")
        out = tmp_path / "out"
        argv = [a.format(scenario=scenario_files["min"], out=out) for a in argv]
        assert run_cli(*argv, path) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"input error: cannot parse {kind} {path}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()


class TestOutDirectory:
    """An ``--out`` that cannot be a directory is a usage error, found
    before any work; ``check`` and ``jaccheck``, which write nothing, take
    no ``--out`` at all."""

    @pytest.mark.parametrize(
        "argv, below",
        [
            (["simulate"], False),
            (["identify", "--synthesize"], False),
            (["reproduce", "--all", "--repetitions", "1"], True),
            (["check"], False),
            (["jaccheck", "--trials", "1"], True),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else None,
    )
    def test_exits_1(self, scenario_files, tmp_path, capsys, argv, below):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x" if below else blocker
        code = run_cli(*argv, "--scenario", scenario_files["min"], "--out", out)
        assert code == 1
        captured = capsys.readouterr()
        if argv[0] in ("check", "jaccheck"):
            assert captured.err.startswith(f"usage: petident {argv[0]} [-h] ")
            assert f"usage error: unrecognized arguments: --out {out}\n" in captured.err
        else:
            assert captured.err.startswith("usage error: --out")
        assert captured.out == ""  # no fit, no cell ran
        assert blocker.read_text() == ""


def _dests_and_reads(argv):
    """The flags ``argv`` parses to, and the attributes its command reads."""
    args = build_parser().parse_args([str(a) for a in argv])
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    assert args.func(Recorder(**vars(args))) == 0
    return set(vars(args)) - {"command", "func"}, reads


class TestFlagsAreRead:
    """Each subcommand takes only the flags its command reads: a flag it
    parsed and never read would be accepted and silently ignored."""

    @pytest.mark.parametrize("command", ["simulate", "identify", "check", "reproduce", "jaccheck"])
    def test_every_parsed_flag_is_read(self, scenario_files, tmp_path, capsys, command):
        scenario, out = scenario_files["min"], ["--out", tmp_path / "out"]
        assert run_cli("simulate", "--scenario", scenario, "--out", tmp_path / "sim") == 0
        campaign = tmp_path / "campaign.json"
        campaign.write_text(
            json.dumps({"delta_y": 1e-3, "delta_x": 0.1, "repetitions": 1, "max_iter": 1})
        )
        argvs = {
            "simulate": [["--scenario", scenario, *out]],
            "identify": [
                ["--scenario", scenario, "--synthesize", "--max-iter", "1", *out],
                ["--scenario", scenario, "--data", tmp_path / "sim" / "y_true.csv",
                 "--max-iter", "1", *out],
            ],
            "check": [["--scenario", scenario]],
            "reproduce": [["--campaign", campaign, *out]],
            "jaccheck": [["--trials", "1"]],
        }
        parsed, read = set(), set()
        for argv in argvs[command]:
            dests, reads = _dests_and_reads([command, *argv])
            parsed |= dests
            read |= reads
        assert parsed - read == set()

    @pytest.mark.parametrize(
        "argv", [["simulate", "--out", "{out}"], ["check"]], ids=lambda argv: argv[0]
    )
    def test_seed_is_not_taken(self, scenario_files, tmp_path, capsys, argv):
        argv = [a.format(out=tmp_path / "out") for a in argv]
        assert run_cli(*argv, "--scenario", scenario_files["min"], "--seed", "3") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: petident {argv[0]} [-h] ")
        assert "usage error: unrecognized arguments: --seed 3\n" in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()


class TestOneNamePerField:
    """A flag stores to the name of the field it sets, which a campaign file
    uses as its key, and both ``--mode`` flags offer the forward modes."""

    @staticmethod
    def options(command) -> dict:
        return {a.dest: a for a in build_parser().commands[command]._actions}

    def test_identify_flags_are_the_settings_keys(self):
        assert set(cli.SETTINGS_KEYS) <= set(self.options("identify"))

    def test_reproduce_flags_are_the_cell_keys(self):
        assert set(cli.CELL_KEYS) <= set(self.options("reproduce"))

    @pytest.mark.parametrize("command", ["identify", "reproduce"])
    def test_mode_choices_are_the_modes(self, command):
        assert tuple(self.options(command)["mode"].choices) == MODES


class TestNegativeSeed:
    """Philox takes nonnegative seeds only: a negative ``--seed`` is a usage
    error before any run starts (a negative seed in a campaign file is an
    input error, see TestCampaignFile)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["identify", "--synthesize", "--scenario", "{scenario}", "--seed", "-1",
             "--out", "{out}"],
            ["jaccheck", "--trials", "1", "--seed", "-1"],
            ["reproduce", "--campaign", "{campaign}", "--seed", "-1", "--out", "{out}"],
        ],
        ids=["identify", "jaccheck", "reproduce-flag"],
    )
    def test_exits_1(self, scenario_files, tmp_path, capsys, argv):
        paths = {"scenario": scenario_files["min"], "out": tmp_path / "out"}
        paths["campaign"] = tmp_path / "campaign.json"
        paths["campaign"].write_text(
            json.dumps({"delta_y": 1e-3, "delta_x": 0.1, "repetitions": 1, "seed": 0})
        )
        argv = [a.format(**paths) for a in argv]
        assert run_cli(*argv) == 1
        assert "usage error:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.json").exists()


class TestCampaignFile:
    """A campaign file is read strictly, before any cell runs: an unknown
    key, a level or setting that is not a finite number, an integer field
    that is not a nonnegative integer or an unknown mode is an input error
    (exit 2), like any fault in a scenario file; each message names the
    file and the field."""

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"repetitons": 1, "max_iters": 5}, "['max_iters', 'repetitons']"),
            ({"mode": "bogus"}, "'bogus'"),
            ({"repetitions": 2.5}, "repetitions"),
            ({"repetitions": True}, "repetitions"),
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"max_iter": 2.5}, "max_iter"),
            ({"max_iter": True}, "max_iter"),
            ({"delta_y": "x"}, "delta_y"),
            ({"delta_x": "x"}, "delta_x"),
            ({"tau": None}, "tau"),
            ({"delta_y": float("nan")}, "delta_y"),
            ({"delta_x": float("inf")}, "delta_x"),
            ({"delta_y": 10**400}, "delta_y"),
            ({"delta_x": 10**400}, "delta_x"),
            ({"a": 10**400}, "a must be"),
            ({"seed": -1}, "seed must be nonnegative"),
            ({"delta_y": -1}, "delta_y must be finite and nonnegative, got -1"),
            ({"delta_x": -0.1}, "delta_x must be finite and nonnegative, got -0.1"),
            ({"max_iter": 3727}, "max_iter=3727 is too large for a=800.0, b=0.2"),
        ],
    )
    def test_rejected_before_any_run(self, tmp_path, capsys, fields, named):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(
            json.dumps({"delta_y": 1e-3, "delta_x": 0.1, "repetitions": 1, **fields})
        )
        out = tmp_path / "rep"
        assert run_cli("reproduce", "--campaign", campaign, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: cannot parse campaign {campaign}:")
        assert named in err
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize(
        "fields, flag",
        [
            ({"mode": "bogus"}, ["--mode", "full"]),
            ({"seed": -1}, ["--seed", "3"]),
            ({"repetitions": 2.5}, ["--repetitions", "1"]),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else None,
    )
    def test_fault_under_an_overriding_flag_is_an_input_error(
        self, tmp_path, capsys, fields, flag
    ):
        # the file is checked as written, before a flag replaces the value
        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps({"delta_y": 1e-3, "delta_x": 0.1, **fields}))
        out = tmp_path / "rep"
        assert run_cli("reproduce", "--campaign", campaign, *flag, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"input error: cannot parse campaign {campaign}:")
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"delta_y": 0.001}', "campaign is missing delta_x"),
            ("5", "campaign must be an object"),
        ],
    )
    def test_malformed_file_is_an_input_error(self, tmp_path, capsys, text, named):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(text)
        assert run_cli("reproduce", "--campaign", campaign, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert str(campaign) in err and named in err


class TestCampaignList:
    """A campaign file may list its cells: each is read as a one-cell file
    is, a fault names the cell by its number, and the cells run in order
    into one set of outputs, as ``--all`` runs its built-in list."""

    CELLS = [
        {"delta_y": 1e-3, "delta_x": 0.1, "repetitions": 2, "seed": 4},
        {"delta_y": 0, "delta_x": 0.05, "repetitions": 1, "mode": "known_cart", "max_iter": 20},
    ]

    def test_the_built_in_list_as_a_file_writes_the_all_bytes(self, tmp_path):
        cells = [
            {"delta_y": dy, "delta_x": dx, "mode": mode}
            for dy in (0.0, 1e-4, 1e-3, 1e-2)
            for dx in (0.01, 0.05, 0.1, 0.15)
            for mode in ("full", "known_cart")
        ]
        assert cells == cli.ALL_CELLS
        campaign = tmp_path / "all.json"
        campaign.write_text(json.dumps(cells))
        out = tmp_path / "rep"
        argv = ["--repetitions", "1", "--seed", "5", "--out", out]
        assert run_cli("reproduce", "--campaign", campaign, *argv) == 0
        assert reproduce_digests(out) == REPRODUCE, pin_message()

    def test_a_list_writes_what_its_cells_write_one_at_a_time(self, tmp_path, capsys):
        campaign = tmp_path / "list.json"
        campaign.write_text(json.dumps(self.CELLS))
        assert run_cli("reproduce", "--campaign", campaign, "--out", tmp_path / "list") == 0
        listed = capsys.readouterr().out.splitlines()[:2]
        rows, entries, lines = [], [], []
        for number, cell in enumerate(self.CELLS):
            campaign = tmp_path / f"cell{number}.json"
            campaign.write_text(json.dumps(cell))
            out = tmp_path / f"cell{number}"
            assert run_cli("reproduce", "--campaign", campaign, "--out", out) == 0
            lines += capsys.readouterr().out.splitlines()[:1]
            rows += (out / "table1.csv").read_text().splitlines()[1:]
            entries += json.loads((out / "results.json").read_text())
        assert (tmp_path / "list" / "table1.csv").read_text().splitlines()[1:] == rows
        assert json.loads((tmp_path / "list" / "results.json").read_text()) == entries
        assert listed == lines
        assert [e["spec"]["mode"] for e in entries] == ["full", "known_cart"]

    @pytest.mark.parametrize(
        "cells, flag, named",
        [
            ([CELLS[0], {**CELLS[1], "bogus": 1}], [], "cell 2: unknown campaign keys ['bogus']"),
            ([CELLS[0], 5], [], "cell 2: campaign must be an object, got int"),
            ([CELLS[0], {"delta_y": 1e-3}], [], "cell 2: campaign is missing delta_x"),
            ([{**CELLS[0], "seed": -1}, CELLS[1]], [], "cell 1: seed must be nonnegative"),
            ([], [], "campaign list must not be empty"),
            (
                [CELLS[0], {**CELLS[0], "delta_y": 0.001, "mode": "known_cart"}],
                ["--mode", "full"],
                "cell 2: delta_y=0.001 delta_x=0.1 mode=full repeats cell 1",
            ),
        ],
        ids=["unknown-key", "not-an-object", "missing-level", "seed", "empty", "repeated-label"],
    )
    def test_fault_names_its_cell(self, tmp_path, capsys, cells, flag, named):
        campaign = tmp_path / "list.json"
        campaign.write_text(json.dumps(cells))
        out = tmp_path / "rep"
        assert run_cli("reproduce", "--campaign", campaign, *flag, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == f"input error: cannot parse campaign {campaign}: {named}\n"
        assert not (out / "results.json").exists()

    def test_cells_apart_until_mode_is_given_both_run(self, tmp_path):
        campaign = tmp_path / "list.json"
        campaign.write_text(json.dumps([
            {**self.CELLS[1], "mode": mode} for mode in ("full", "known_cart")
        ]))
        assert run_cli("reproduce", "--campaign", campaign, "--out", tmp_path / "rep") == 0
        assert len(list((tmp_path / "rep").glob("trace_*.csv"))) == 2

    @pytest.mark.parametrize("flag_mode", [None, "full"])
    def test_listed_cell_mode_is_the_flag_then_the_cell_then_the_scenario(
        self, tmp_path, flag_mode
    ):
        scenario = tmp_path / "known_cart.json"
        scenario.write_text(json.dumps(scenario_to_dict(default_scenario("known_cart"))))
        fields = {"delta_x": 0.1, "repetitions": 1, "max_iter": 1}
        campaign = tmp_path / "list.json"
        campaign.write_text(json.dumps([
            {**fields, "delta_y": 1e-3}, {**fields, "delta_y": 1e-2, "mode": "full"},
        ]))
        argv = ["reproduce", "--campaign", campaign, "--scenario", scenario, "--out", tmp_path]
        assert run_cli(*argv, *(["--mode", flag_mode] if flag_mode else [])) == 0
        modes = [e["spec"]["mode"] for e in json.loads((tmp_path / "results.json").read_text())]
        assert modes == ([flag_mode] * 2 if flag_mode else ["known_cart", "full"])


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

    def test_equal_clearances_named_clause(self, tmp_path, capsys):
        # k3 pairwise distinct, k2 + k3 = 0.26 in every region
        data = scenario_to_dict(default_scenario())
        data["regions"] = [
            {"K1": 0.16, "k2": k2, "k3": k3} for k2, k3 in ((0.17, 0.09), (0.16, 0.1), (0.15, 0.11))
        ]
        path = tmp_path / "equal.json"
        path.write_text(json.dumps(data))
        assert run_cli("check", "--scenario", path) == 0
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "exponent 1, regions (1, 2, 3): k2+k3 not pairwise distinct" in out

    def test_names_the_smallest_exponent_gap(self, tmp_path, capsys):
        # exponents 7e-5 apart pass PolyExp but leave J at the truth nearly
        # rank deficient, which the region-diversity margin does not show
        data = scenario_to_dict(default_scenario())
        data["mu"] = [-0.5, -0.2, -0.2 + 7e-5]
        path = tmp_path / "close.json"
        path.write_text(json.dumps(data))
        assert run_cli("check", "--scenario", path) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "arterial exponents: smallest gap 7.000e-05 (mu_2, mu_3)" in lines
        assert lines.index("sufficient condition (6 regions with distinct rates): not satisfied") == (
            lines.index("arterial exponents: smallest gap 7.000e-05 (mu_2, mu_3)") + 1
        )

    def test_single_time_at_zero_has_rank_0(self, tmp_path, capsys):
        # every tissue curve is zero at t = 0, so the tissue rows are zero
        data = scenario_to_dict(default_scenario())
        data["grid"] = {"times": [0.0]}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data))
        assert run_cli("check", "--scenario", path) == 0
        out = capsys.readouterr().out
        assert "tissue rows: rank 0, nullity 18, sigma_min/sigma_max 0.000e+00" in out


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

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--corrupt", "999", "0", "0.01"], "ROW must be in 0..99"),
            (["--corrupt", "100", "0", "0.01"], "ROW must be in 0..99"),
            (["--corrupt", "-1", "0", "0.5"], "ROW must be in 0..99"),
            (["--corrupt", "0", "18", "0.5"], "COL must be in 0..17"),
            (["--corrupt", "0", "-1", "0.5"], "COL must be in 0..17"),
            (["--corrupt", "a", "0", "1"], "'a'"),
            (["--corrupt", "0", "1.5", "1"], "'1.5'"),
            (["--corrupt", "0", "0", "x"], "'x'"),
            (["--tolerance", "nan"], "--tolerance"),
            (["--tolerance", "inf"], "--tolerance"),
            (["--tolerance", "-1"], "--tolerance"),
            (["--tolerance", "0"], "--tolerance"),
        ],
    )
    def test_bad_argument_is_usage_error(self, capsys, argv, named):
        assert run_cli("jaccheck", "--trials", "1", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert named in err

    @pytest.mark.parametrize(
        "corrupt, entry",
        [(["0", "0", "nan"], (0, 0)), (["99", "0", "nan"], (99, 0)), (["99", "0", "0.5"], (99, 0))],
    )
    def test_failure_below_the_noise_floor_names_its_entry(self, capsys, corrupt, entry):
        # (0, 0) and (99, 0) sit below the quotient's noise floor: a NaN or
        # an error there fails, and the report names that entry
        assert run_cli("jaccheck", "--trials", "1", "--corrupt", *corrupt) == 3
        assert f"FAIL (worst entry {entry})" in capsys.readouterr().out

    def test_nan_amount_is_the_nan_self_test(self, capsys):
        assert run_cli("jaccheck", "--trials", "1", "--corrupt", "74", "0", "nan") == 3
        assert "FAIL" in capsys.readouterr().out

    def test_a_failing_trial_does_not_end_the_run(self, capsys, monkeypatch):
        checks = []

        def count(*args, **kwargs):
            checks.append(real_check(*args, **kwargs))
            return checks[-1]

        real_check = cli.finite_difference_check
        monkeypatch.setattr(cli, "finite_difference_check", count)
        assert run_cli("jaccheck", "--trials", "3", "--corrupt", "74", "0", "0.01") == 3
        out = capsys.readouterr().out
        assert len(checks) == 3 and [c.passed for c in checks] == [False, True, True]
        assert f"FAIL (worst entry {checks[0].worst_entry})" in out
        assert f"{checks[0].max_rel_dev:.3e} over 3 trials" in out

    def test_report_covers_every_trial(self, capsys, monkeypatch):
        checks = []

        def keep(*args, **kwargs):
            checks.append(real_check(*args, **kwargs))
            return checks[-1]

        real_check = cli.finite_difference_check
        monkeypatch.setattr(cli, "finite_difference_check", keep)
        # the NaN at (0, 0) fails trial 0 below the noise floor, outside its
        # deviation, so a passing trial deviates more
        assert run_cli("jaccheck", "--trials", "20", "--corrupt", "0", "0", "nan") == 3
        out = capsys.readouterr().out
        largest = max(check.max_rel_dev for check in checks)
        assert largest > checks[0].max_rel_dev
        below = sum(check.n_noise_limited for check in checks)
        assert f"max relative deviation {largest:.3e} over 20 trials ({below} entries" in out
        assert "FAIL (worst entry (0, 0))" in out


class TestBuiltInScenario:
    """Without ``--scenario`` every subcommand runs the built-in reference
    scenario, so it writes what it writes given that scenario's file."""

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--out", "out"], ["identify", "--synthesize", "--delta-y", "1e-3",
         "--out", "out"], ["check"]],
        ids=lambda argv: argv[0],
    )
    def test_same_bytes_as_the_reference_file(
        self, scenario_files, tmp_path, monkeypatch, capsys, argv
    ):
        outputs = []
        for where, flag in (("built_in", []), ("file", ["--scenario", scenario_files["min"]])):
            (tmp_path / where).mkdir()
            monkeypatch.chdir(tmp_path / where)
            assert run_cli(*argv, *flag) == 0
            written = {p.name: p.read_bytes() for p in Path("out").glob("*")}
            outputs.append((capsys.readouterr().out, written))
        assert outputs[0] == outputs[1]
        for name, parser in build_parser().commands.items():
            assert f"usage: petident {name} [-h] [--scenario SCENARIO]" in parser.format_usage()


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
        [spec] = _cells(json.loads(campaign.read_text()), "full", args)
        assert spec.resolved_settings() == IrgnmSettings(
            a=800.0, b=0.2, tau=1.1, epsilon=1e-3, max_iter=max_iter,
            delta_estimate=fields["delta_y"],
        )

    @pytest.mark.parametrize(
        "file_mode, flag_mode, mode",
        [(None, None, "known_cart"), ("full", None, "full"), (None, "full", "full"),
         ("full", "known_cart", "known_cart")],
    )
    def test_campaign_mode_is_the_flag_then_the_file_then_the_scenario(
        self, tmp_path, file_mode, flag_mode, mode
    ):
        scenario = tmp_path / "known_cart.json"
        scenario.write_text(json.dumps(scenario_to_dict(default_scenario("known_cart"))))
        fields = {"delta_y": 1e-3, "delta_x": 0.1, "repetitions": 1, "max_iter": 1}
        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps({**fields, **({"mode": file_mode} if file_mode else {})}))
        argv = ["reproduce", "--campaign", campaign, "--scenario", scenario, "--out", tmp_path]
        assert run_cli(*argv, *(["--mode", flag_mode] if flag_mode else [])) == 0
        [entry] = json.loads((tmp_path / "results.json").read_text())
        assert entry["spec"]["mode"] == mode

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

    def test_integer_numbers_write_the_results_of_their_float_twin(self, tmp_path):
        # results.json holds the numbers of a cell, not how the file wrote them
        written = []
        for dy, a in ((0, 800), (0.0, 800.0)):
            campaign = tmp_path / "campaign.json"
            campaign.write_text(json.dumps(
                {"delta_y": dy, "delta_x": 0.1, "a": a, "repetitions": 1, "max_iter": 2}
            ))
            out = tmp_path / f"rep_{dy!r}"
            assert run_cli("reproduce", "--campaign", campaign, "--out", out) == 0
            written.append((out / "results.json").read_bytes())
        assert written[0] == written[1]
        assert b'"delta_y": 0.0' in written[0] and b'"a": 800.0' in written[0]

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

    def test_bad_campaign_file_keeps_earlier_outputs(self, tmp_path, capsys):
        # the campaign file is read before the outputs of an earlier run go
        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps({"delta_y": 1e-3, "delta_x": 0.1, "repetitions": 1}))
        out = tmp_path / "rep"
        assert run_cli("reproduce", "--campaign", campaign, "--out", out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "results.json" in before and "table1.csv" in before
        campaign.write_text(json.dumps({"delta_y": 1e-3}))
        assert run_cli("reproduce", "--campaign", campaign, "--out", out) == 2
        assert "campaign is missing delta_x" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

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

    def test_a_cell_that_raises_does_not_stop_the_others(self, tmp_path, capsys, monkeypatch):
        cells = []

        def fail_second_cell(spec, scenario):
            cells.append(spec)
            if len(cells) == 2:
                raise ValueError("injected")
            return real_run_campaign(spec, scenario)

        real_run_campaign = cli.run_campaign
        monkeypatch.setattr(cli, "run_campaign", fail_second_cell)
        code = run_cli("reproduce", "--all", "--repetitions", "1", "--out", tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert "delta_y=0 delta_x=0.01 mode=known_cart: FAILED (injected)" in err
        assert "1 cell(s) failed" in err
        kept = [(s.delta_y, s.delta_x, s.mode) for i, s in enumerate(cells) if i != 1]
        with open(tmp_path / "table1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(float(r["delta_y"]), float(r["delta_x"]), r["mode"]) for r in rows] == kept
        specs = [e["spec"] for e in json.loads((tmp_path / "results.json").read_text())]
        assert [(s["delta_y"], s["delta_x"], s["mode"]) for s in specs] == kept
        assert len(kept) == 31

    def test_results_are_strict_json(self, tmp_path):
        # every run breaks down with a NaN residual, which is written as null
        campaign = tmp_path / "campaign.json"
        campaign.write_text(
            json.dumps({"delta_y": 0.001, "delta_x": 100, "repetitions": 4, "seed": 0})
        )
        assert run_cli("reproduce", "--campaign", campaign, "--out", tmp_path / "rep") == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        with open(tmp_path / "rep" / "results.json") as fh:
            [entry] = json.load(fh, parse_constant=reject)
        assert [run["final_residual"] for run in entry["runs"]] == [None] * 4
        assert all(run["failure"].startswith("residual norm is nan") for run in entry["runs"])

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
