import json

import numpy as np
import pytest

import splitmhe as sm
from splitmhe.cli import main
from splitmhe.errors import FactorizationError
from splitmhe.harness import read_convergence_csv, read_estimates_csv, read_sweep_csv

from helpers import failing_for


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scenario.json"
    code = main(["simulate", "--steps", "30", "--seed", "3", "--out", str(path)])
    assert code == 0
    return path


def test_simulate_writes_schema(scenario_file):
    payload = json.loads(scenario_file.read_text())
    assert set(payload) == {"model", "controls", "true_states", "measurements"}
    assert set(payload["model"]) == {"T", "sigma_r", "sigma_alpha", "seed"}
    assert len(payload["controls"]) == 30
    assert len(payload["true_states"]) == 31
    assert len(payload["measurements"]) == 31
    # floats carry enough digits to round-trip exactly
    scenario = sm.load_scenario(scenario_file)
    regenerated = sm.generate_scenario(steps=30, seed=3)
    np.testing.assert_array_equal(scenario.measurements, regenerated.measurements)


def test_simulate_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["simulate", "--steps", "12", "--seed", "7", "--out", str(a)]) == 0
    assert main(["simulate", "--steps", "12", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_writes_result_and_log(scenario_file, tmp_path):
    result_path = tmp_path / "result.json"
    log_path = tmp_path / "iters.csv"
    code = main(
        [
            "solve",
            "--scenario", str(scenario_file),
            "--algorithm", "dsqp",
            "--window-end", "25",
            "--sub-windows", "4",
            "--max-iter", "80",
            "--log", str(log_path),
            "--out", str(result_path),
        ]
    )
    assert code == 0
    payload = json.loads(result_path.read_text())
    assert payload["status"] == "converged"
    assert payload["config"]["algorithm"] == "dsqp"
    assert payload["config"]["sub_windows"] == 4
    assert len(payload["trajectory"]) == 26
    rows = read_convergence_csv(log_path)
    assert len(rows) == payload["iterations"]


def test_config_echo_of_a_noise_free_scenario(tmp_path):
    scenario, out = tmp_path / "scenario.json", tmp_path / "result.json"
    simulate = ["simulate", "--steps", "25", "--sigma-r", "0", "--sigma-alpha", "0"]
    assert main(simulate + ["--out", str(scenario)]) == 0
    assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) in (0, 2)
    assert json.loads(out.read_text())["config"] == {
        "algorithm": "dsqp",
        "rho": 1e3,
        "tol": 1e-8,
        "max_iter": 50,
        "sub_windows": 4,
        "horizon": 25,
        "scenario_seed": 0,
        "weights": {"P": "identity", "V": "identity"},
        "window_end": 25,
    }


def test_solve_exit_code_two_on_max_iter(scenario_file, tmp_path):
    code = main(
        [
            "solve",
            "--scenario", str(scenario_file),
            "--algorithm", "dsqp",
            "--max-iter", "2",
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert code == 2


def test_solve_missing_scenario_is_input_error(tmp_path):
    code = main(["solve", "--scenario", str(tmp_path / "missing.json")])
    assert code == 3


def test_bad_subcommand_and_bad_choice_are_input_errors():
    assert main(["frobnicate"]) == 3
    assert main(["solve", "--scenario", "x", "--algorithm", "nope"]) == 3


def test_bad_partition_is_input_error(scenario_file):
    code = main(
        ["solve", "--scenario", str(scenario_file), "--sub-windows", "99"]
    )
    assert code == 3


def test_numerical_failure_exit_code(origin_scenario, tmp_path, capsys):
    # the default initial guess of the first window sits on the observation
    # singularity, so every algorithm fails on its first evaluation
    path = str(sm.write_scenario(origin_scenario, tmp_path / "origin.json"))
    for name in ("gn-aladin", "sa-aladin", "dsqp", "centralized"):
        assert main(["solve", "--scenario", path, "--algorithm", name]) == 4, name
        err = capsys.readouterr().err
        assert f"{name.replace('-', '_')} iteration" in err, err
        assert "observation undefined at state 5" in err
    assert main(["estimate", "--scenario", path, "--out", str(tmp_path / "est.csv")]) == 4


def test_estimate_names_the_error_of_each_failed_window(origin_scenario, tmp_path, capsys):
    path = str(sm.write_scenario(origin_scenario, tmp_path / "origin.json"))
    assert main(["estimate", "--scenario", path, "--out", str(tmp_path / "est.csv")]) == 4
    err = capsys.readouterr().err.splitlines()
    # the six windows ending at steps 25..30 all hold the singular state 5
    assert len(err) == 6, err
    assert err[0].startswith("window ending at step 25: OriginSingularityError: dsqp iteration 1")
    assert "observation undefined at state 5" in err[0]


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--iters", "0", "--sub-windows", "3"],
        ["solve", "--max-iter", "-3"],
        ["solve", "--algorithm", "gn-aladin", "--rho", "-25"],
        ["solve", "--rho", "nan"],
        ["solve", "--rho", "inf"],
        ["solve", "--tol", "nan"],
        ["sweep", "--sub-windows", ","],
    ],
)
def test_out_of_range_solver_options_are_input_errors(scenario_file, tmp_path, capsys, args):
    code = main(args + ["--scenario", str(scenario_file), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [["--sigma-r", "nan"], ["--sigma-alpha", "inf"], ["--control", "nan,0.4"]],
)
def test_non_finite_simulate_inputs_are_input_errors(tmp_path, capsys, args):
    out = tmp_path / "scenario.json"
    assert main(["simulate", "--steps", "5", "--out", str(out)] + args) == 3
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["simulate", "--control", "1"], "expected 'v,omega', got '1'"),
        (["sweep", "--scenario", "s.json", "--sub-windows", "3,x"],
         "expected comma-separated integers, got '3,x'"),
        # the sweep's budget is --iters, so it takes no --max-iter
        (["sweep", "--scenario", "s.json", "--max-iter", "1"],
         "unrecognized arguments: --max-iter 1"),
        # a type function's ArgumentTypeError reaches main as argparse's own error
        (["simulate", "--control", "1,2,3"],
         "argument --control: expected 'v,omega', got '1,2,3'"),
    ],
)
def test_malformed_option_lists_are_input_errors(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_estimate_writes_csv(scenario_file, tmp_path):
    out = tmp_path / "estimates.csv"
    code = main(
        [
            "estimate",
            "--scenario", str(scenario_file),
            "--algorithm", "dsqp",
            "--sub-windows", "4",
            "--max-iter", "120",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_estimates_csv(out)
    assert [row["step"] for row in rows] == list(range(25, 31))
    assert all(row["status"] == "converged" for row in rows)


def test_solve_result_bytes_deterministic(scenario_file, tmp_path):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        code = main(
            [
                "solve",
                "--scenario", str(scenario_file),
                "--algorithm", "gn-aladin",
                "--rho", "25",
                "--max-iter", "60",
                "--out", str(p),
            ]
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_writes_rows(scenario_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--scenario", str(scenario_file),
            "--algorithm", "dsqp",
            "--sub-windows", "3,5",
            "--iters", "50",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_sweep_csv(out)
    assert [row["N"] for row in rows] == [3, 5]
    assert all(row["total_wall_ms"] > 0 for row in rows)


def test_sweep_exits_numerical_when_a_count_fails(scenario_file, tmp_path, monkeypatch):
    failure = FactorizationError("forced failure")
    monkeypatch.setattr(sm.harness, "solve_window", failing_for(sm.solve_window, 5, failure))
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--scenario", str(scenario_file),
            "--algorithm", "dsqp",
            "--sub-windows", "3,5",
            "--iters", "5",
            "--out", str(out),
        ]
    )
    assert code == 4
    rows = read_sweep_csv(out)
    assert [(row["N"], row["status"]) for row in rows] == [(3, "max_iter"), (5, "error")]


def test_check_subcommand_passes(capsys):
    assert main(["check"]) == 0
    output = capsys.readouterr().out
    assert "PASS model-derivatives" in output
    assert "PASS qp-oracle" in output
    assert "PASS split-identities" in output
