"""Config parsing, round-trips, report schema, and the exit-code contract."""

import csv
import json
import math
import os

import jsonschema
import pytest

from gravortex.cli import (
    COMMANDS,
    EXIT_OBSTRUCTED,
    EXIT_OK,
    EXIT_USAGE,
    ConfigValidationError,
    RunConfig,
    execute,
    main,
    parse_config,
)
from gravortex.reporting import conventions_hash, report_schema


def run_config(tmp_path, payload, extra_args=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    code = main(["--config", str(path), "--out", str(out), *extra_args])
    report_path = out / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, report


class TestParseConfig:
    def test_minimal_flat_config(self):
        cfg = parse_config(
            '{"command": "solve-vortex", "degrees": [1], "exponents": [0], "tau": 3, "n": 129}'
        )
        assert cfg.command == "solve-vortex"
        assert cfg.problem["degrees"] == [1]
        assert cfg.numerics.n == 129

    def test_negative_tau_reported(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(
                '{"command": "solve-vortex", "degrees": [1], "exponents": [0], "tau": -1}'
            )
        assert any("tau must be positive" in e for e in err.value.errors)

    def test_even_n_reported(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(
                '{"command": "solve-vortex", "degrees": [1], "exponents": [0], "tau": 3, "n": 128}'
            )
        assert any("n must be odd" in e for e in err.value.errors)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(
                '{"command": "stability", "degrees": [1], "exponents": [0], "tau": 3, "wibble": 1}'
            )
        assert any("wibble" in e for e in err.value.errors)

    def test_all_errors_collected(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config('{"command": "solve-vortex", "tau": -2, "n": 10}')
        text = "\n".join(err.value.errors)
        assert "tau must be positive" in text
        assert "n must" in text
        assert "missing required key: problem.degrees" in text
        assert "missing required key: problem.exponents" in text

    def test_sweep_values_must_be_lists(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(
                '{"command": "sweep", "degrees": [2], "exponents": [1],'
                ' "sweep": {"over": {"tau": 5}}}'
            )
        assert "sweep requires a 'sweep' object with an 'over' map of value lists" in err.value.errors

    def test_round_trip_identity(self):
        source = {
            "command": "solve-gravitating",
            "problem": {"degrees": [2], "exponents": [1], "tau": 5, "alpha": 0.1},
            "numerics": {"n": 65, "tolerance": 1e-9, "max_iter": 40, "schedule": [0, 0.1]},
            "output": {"directory": "somewhere", "formats": ["json"]},
        }
        cfg = parse_config(json.dumps(source))
        text = json.dumps(cfg.to_json_dict(), sort_keys=True)
        again = parse_config(text)
        assert json.dumps(again.to_json_dict(), sort_keys=True) == text

    def test_schedule_must_start_at_zero(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(
                '{"command": "solve-gravitating", "degrees": [2], "exponents": [1],'
                ' "tau": 5, "schedule": [0.1, 0.2]}'
            )
        assert any("schedule" in e for e in err.value.errors)


class TestExecuteAndExitCodes:
    def test_solve_vortex_ok(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "solve-vortex",
                "degrees": [1],
                "exponents": [0],
                "tau": 3,
                "n": 65,
            },
        )
        assert code == EXIT_OK
        assert report["status"] == "ok"
        assert report["solver"]["converged"] is True
        csvs = [p for p in report["outputs"] if p.endswith(".csv")]
        assert csvs and os.path.exists(csvs[0])

    def test_solve_vortex_infeasible_exit_two(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "solve-vortex",
                "degrees": [1],
                "exponents": [0],
                "tau": 2,
                "n": 65,
            },
        )
        assert code == EXIT_OBSTRUCTED
        assert report["status"] == "infeasible"
        assert any("N < tau/2" in r for r in report["reasons"])

    def test_stability_obstructed_exit_two(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "stability",
                "problem": {"degrees": [2, 2], "exponents": [1, 0], "tau": 5, "alpha": 1.0},
            },
        )
        assert code == EXIT_OBSTRUCTED
        assert report["status"] == "obstructed"
        assert any("balancing" in r for r in report["reasons"])

    def test_stability_clear_exit_zero(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "stability",
                "problem": {"degrees": [1, 1], "exponents": [0, 1], "tau": 3},
            },
        )
        assert code == EXIT_OK
        assert report["stability"]["balanced"] is True

    def test_gravitating_obstruction_gate_exit_two(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "solve-gravitating",
                "degrees": [1],
                "exponents": [0],
                "tau": 3,
                "n": 65,
                "schedule": [0, 0.02],
            },
        )
        assert code == EXIT_OBSTRUCTED
        assert report["status"] == "obstructed"
        assert any("only one zero" in r for r in report["reasons"])
        assert report.get("continuation") is None  # Newton never ran

    def test_asymmetric_two_zero_gate_exit_two(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "solve-gravitating",
                "degrees": [3],
                "exponents": [1],
                "tau": 7,
                "n": 129,
                "schedule": [0, 0.05],
            },
        )
        assert code == EXIT_OBSTRUCTED
        assert report["status"] == "obstructed"
        assert any("Futaki character" in r for r in report["reasons"])
        assert report.get("continuation") is None

    def test_abelian_futaki_closed_form_reported(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "futaki",
                "problem": {"degrees": [3], "exponents": [1], "tau": 7, "alpha": 1.0},
            },
        )
        assert code == EXIT_OK
        assert report["futaki"]["closed_form"] == pytest.approx(2.0 * math.pi)
        assert report["futaki"]["quadrature"] == pytest.approx(2.0 * math.pi, rel=1e-8)

    def test_gravitating_override_runs(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "solve-gravitating",
                "degrees": [1],
                "exponents": [0],
                "tau": 3,
                "n": 65,
                "schedule": [0.0],
            },
            extra_args=["--override-obstruction"],
        )
        assert code == EXIT_OK
        assert report["continuation"]["steps"][0]["converged"] is True

    def test_gravitating_ok(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "solve-gravitating",
                "degrees": [2],
                "exponents": [1],
                "tau": 5,
                "n": 65,
                "schedule": [0, 0.05],
            },
        )
        assert code == EXIT_OK
        assert report["checks"]["c_est"] == pytest.approx(3.0, abs=1e-8)

    def test_futaki_ok(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "futaki",
                "problem": {"degrees": [1, 1], "exponents": [0, 1], "tau": 3, "alpha": 1.0},
            },
        )
        assert code == EXIT_OK
        assert report["futaki"]["closed_form"] == 0.0
        assert abs(report["futaki"]["quadrature"]) <= 1e-8

    def test_eb_solve_ok(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "eb-solve",
                "degrees": [2],
                "exponents": [1],
                "tau": 5,
                "n": 65,
            },
        )
        assert code == EXIT_OK
        payload = report["einstein_bogomolnyi"]
        assert abs(payload["c_value"]) <= 1e-8
        assert payload["predictions"]["alpha_tau_N"] == pytest.approx(2.0, abs=1e-6)

    def test_quiver_check_ok(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "quiver-check",
                "problem": {
                    "quiver": {
                        "vertices": ["a", "b"],
                        "arrows": [{"id": "x", "tail": "a", "head": "b", "exponent": 1}],
                        "degrees": {"a": 0, "b": 2},
                        "sigma": {"a": 1.0, "b": 1.0},
                        "tau": {"a": 0.0, "b": 2.5},
                        "rho": 0.1,
                    }
                },
                "n": 65,
            },
        )
        assert code == EXIT_OK
        assert report["quiver"]["trace_identity_defect_at_midpoint"] <= 1e-12

    def test_sweep_aggregates_csv(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "sweep",
                "problem": {"degrees": [2, 2], "exponents": [1, 0], "alpha": 1.0},
                "sweep": {"over": {"tau": [5, 11]}},
            },
        )
        assert code == EXIT_OK
        rows = report["sweep"]["rows"]
        assert [row["tau"] for row in rows] == [5, 11]
        assert rows[0]["obstructed"] is True  # inside the window, unbalanced
        assert rows[1]["nonabelian_window"] is False
        csv_path = [p for p in report["outputs"] if p.endswith("sweep_summary.csv")]
        assert csv_path and os.path.exists(csv_path[0])

    def test_sweep_config_built_without_parse_config_fails_loudly(self, tmp_path):
        # the HiggsConfig of each sweep point is built once, by parse_config
        config = RunConfig(
            command="sweep",
            problem={"degrees": [2, 2], "exponents": [1, 0], "alpha": 1.0},
            sweep={"over": {"tau": [5, 11]}},
        )
        config.output.directory = str(tmp_path)
        report, code = execute(config)
        assert code == EXIT_USAGE and "sweep" not in report
        assert "parse_config" in report["reasons"][0]

    def test_sweep_csv_quotes_list_values(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "sweep",
                "problem": {"degrees": [2, 2], "tau": 5, "alpha": 1.0},
                "sweep": {"over": {"exponents": [[1, 0], [1, 1]]}},
            },
        )
        assert code == EXIT_OK
        (path,) = [p for p in report["outputs"] if p.endswith("sweep_summary.csv")]
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)
        assert [row[header.index("exponents")] for row in rows] == ["[1, 0]", "[1, 1]"]

    @pytest.mark.parametrize(
        "taus, message",
        [
            ([True, 3], "tau must be a positive number, got True"),
            (["5", 3], "tau must be a positive number, got '5'"),
        ],
    )
    def test_sweep_values_checked_before_any_row(self, tmp_path, capsys, taus, message):
        code, report = run_config(
            tmp_path,
            {
                "command": "sweep",
                "problem": {"degrees": [2, 2], "exponents": [1, 0], "alpha": 1.0},
                "sweep": {"over": {"tau": taus}},
            },
        )
        assert code == EXIT_USAGE and report is None
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]

    def test_usage_error_exit_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"command": "no-such-command"}')
        assert main(["--config", str(path)]) == EXIT_USAGE

    def test_missing_config_file_exit_io(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.json")]) == 4

    @pytest.mark.parametrize(
        "args",
        [
            [],  # no --config
            ["--wibble"],
            ["--resolution", "65"],  # removed: numerics.n sets the grid
        ],
    )
    def test_command_line_usage_error_exit_one(self, tmp_path, capsys, args):
        # argparse's own exit code 2 would read as an obstruction
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"command": "stability", "degrees": [1], "exponents": [0]}))
        argv = args if not args else ["--config", str(path), *args]
        assert main(argv) == EXIT_USAGE
        assert "usage: gravortex" in capsys.readouterr().err

    def test_help_exit_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "--config" in capsys.readouterr().out

    # sweep: test_sweep_config_built_without_parse_config_fails_loudly
    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "sweep"])
    def test_config_built_without_parse_config_fails_loudly(self, tmp_path, command):
        # what a command runs on is built once, by parse_config
        config = RunConfig(command=command, problem={"degrees": [2], "exponents": [1], "tau": 5})
        config.output.directory = str(tmp_path)
        report, code = execute(config)
        assert code == EXIT_USAGE and report["status"] == "error"
        assert "parse_config" in report["reasons"][0]
        assert report["outputs"] == [str(tmp_path / "report.json")]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("tau", "abc", "tau must be a positive number, got 'abc'"),
            ("alpha", "x", "alpha must be a number, got 'x'"),
            # JSON booleans are not numbers, although Python's float() takes them
            ("tau", True, "tau must be a positive number, got True"),
            ("alpha", False, "alpha must be a number, got False"),
            ("degrees", [True], "degrees must be positive integers, got True"),
            ("exponents", [True], "exponents must satisfy 0 <= l <= N, got l=True for N=2"),
            ("tolerance", True, "tolerance must be a positive number, got True"),
            ("max_iter", True, "max_iter must be a positive integer, got True"),
            ("schedule", [0, True], "schedule entries must be numbers, got True"),
            # numeric strings are not JSON numbers either
            ("tau", "5", "tau must be a positive number, got '5'"),
            ("alpha", "0.1", "alpha must be a number, got '0.1'"),
        ],
    )
    def test_non_numeric_coupling_reported_once(self, tmp_path, capsys, key, value, message):
        problem = {"degrees": [2], "exponents": [1], "tau": 5}
        numerics = {}
        (numerics if key in ("tolerance", "max_iter", "schedule") else problem)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"command": "solve-vortex", "problem": problem, "numerics": numerics})
        )
        # --out keeps a config that wrongly parses from writing into the working directory
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]

    @pytest.mark.parametrize("command", ["stability", "sweep", "solve-vortex"])
    @pytest.mark.parametrize(
        "key, literal, message",
        [
            ("tau", "1e400", "tau must be a finite number, got inf"),
            ("tau", "Infinity", "tau must be a finite number, got inf"),
            ("alpha", "Infinity", "alpha must be a finite number, got inf"),
            ("alpha", "NaN", "alpha must be a finite number, got nan"),
        ],
    )
    def test_non_finite_coupling_exit_one(self, tmp_path, capsys, command, key, literal, message):
        values = {"tau": "5", "alpha": "0.5"}
        if command == "sweep":
            swept = values.pop(key)
            sweep = f', "sweep": {{"over": {{"{key}": [{literal}, {swept}]}}}}'
        else:
            values[key] = literal
            sweep = ""
        couplings = "".join(f', "{k}": {v}' for k, v in values.items())
        path = tmp_path / "bad.json"
        path.write_text(
            f'{{"command": "{command}", "problem": '
            f'{{"degrees": [2], "exponents": [1]{couplings}}}{sweep}}}'
        )
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not (out / "report.json").exists()


class TestReportContract:
    def test_schema_validates_reports(self, tmp_path):
        schema = report_schema()
        for payload in (
            {
                "command": "stability",
                "problem": {"degrees": [1, 1], "exponents": [0, 1], "tau": 3},
            },
            {
                "command": "solve-vortex",
                "degrees": [1],
                "exponents": [0],
                "tau": 3,
                "n": 65,
            },
        ):
            _, report = run_config(tmp_path, payload)
            jsonschema.validate(report, schema)

    def test_floor_stop_named_and_exits_three(self, tmp_path):
        payload = {
            "command": "solve-gravitating",
            "problem": {"degrees": [2], "exponents": [1], "tau": 5},
            # a tolerance far below the n = 513 floor of about 1.1e-10
            "numerics": {"n": 513, "schedule": [0, 0.05], "tolerance": 1e-12},
        }
        code, report = run_config(tmp_path, payload)
        assert code == 3 and report["status"] == "not_converged"
        assert report["solver"]["stop_reason"] == "roundoff_floor"
        assert not report["solver"]["converged"]
        assert [s["stop_reason"] for s in report["continuation"]["steps"]] == ["roundoff_floor"]
        # profiles of continuation steps are exported only when they converged
        assert not any("_step" in path for path in report["outputs"])
        jsonschema.validate(report, report_schema())

    @pytest.mark.parametrize(
        "numerics",
        [
            # a tolerance below the n = 513 floor: the alpha = 0 step stops on it
            {"n": 513, "schedule": [0, 0.05, 0.1], "tolerance": 1e-12},
            {"n": 65, "schedule": [0, 0.05], "max_iter": 1},
        ],
    )
    def test_unsolved_continuation_exports_no_state(self, tmp_path, numerics):
        payload = {
            "command": "solve-gravitating",
            "problem": {"degrees": [2], "exponents": [1], "tau": 5},
            "numerics": numerics,
        }
        code, report = run_config(tmp_path, payload)
        assert code == 3 and report["status"] == "not_converged"
        assert not any(step["converged"] for step in report["continuation"]["steps"])
        # the start guess is neither checked nor exported as a solution
        assert report["checks"] is None
        assert report["outputs"] == []
        assert os.listdir(tmp_path / "out") == ["report.json"]
        jsonschema.validate(report, report_schema())

    def test_continuation_reports_bordered_steps(self, tmp_path):
        code, report = run_config(
            tmp_path,
            {
                "command": "solve-gravitating",
                "degrees": [2],
                "exponents": [1],
                "tau": 5,
                "n": 65,
                "schedule": [0, 0.1, 0.2],
            },
        )
        assert code == EXIT_OK
        jsonschema.validate(report, report_schema())
        # the alpha tau N = 2 step meets the concentration family and borders
        counts = [step["bordered_steps"] for step in report["continuation"]["steps"]]
        assert counts[:2] == [0, 0] and counts[2] >= 1

    def test_conventions_hash_embedded(self, tmp_path):
        _, report = run_config(
            tmp_path,
            {
                "command": "stability",
                "problem": {"degrees": [1, 1], "exponents": [0, 1], "tau": 3},
            },
        )
        assert report["conventions_hash"] == conventions_hash()

    def test_deterministic_modulo_wall_time(self, tmp_path):
        payload = {
            "command": "solve-gravitating",
            "degrees": [2],
            "exponents": [1],
            "tau": 5,
            "n": 65,
            "schedule": [0, 0.05],
        }
        _, first = run_config(tmp_path / "a", payload)
        _, second = run_config(tmp_path / "b", payload)
        for report in (first, second):
            report.pop("wall_time_seconds")
            report["outputs"] = [os.path.basename(p) for p in report["outputs"]]
            report["config"]["output"]["directory"] = "X"
        assert first == second

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAVORTEX_OUT", str(tmp_path / "envout"))
        payload = {
            "command": "stability",
            "problem": {"degrees": [1, 1], "exponents": [0, 1], "tau": 3},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        code = main(["--config", str(path)])
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "report.json").exists()


QUIVER = {
    "vertices": ["a", "b"],
    "arrows": [{"id": "x", "tail": "a", "head": "b", "exponent": 1}],
    "degrees": {"a": 0, "b": 2},
    "sigma": {"a": 1.0, "b": 1.0},
    "tau": {"a": 0.0, "b": 2.5},
    "rho": 0.1,
}


class TestParseTimeErrors:
    """Config errors that used to surface only when the command ran."""

    @staticmethod
    def run_text(tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        out = tmp_path / "out"
        code = main(["--config", str(path), "--out", str(out)])
        assert not out.exists()  # refused before the output directory is made
        return code, capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize(
        "quiver, message",
        [
            (
                {k: v for k, v in QUIVER.items() if k != "degrees"},
                "missing required key in problem.quiver: 'degrees'",
            ),
            ("abc", "problem.quiver must be an object, got 'abc'"),
            (
                {**QUIVER, "tau": {"a": 0.0, "b": "2.5"}},
                "problem.quiver.tau.b must be a number, got '2.5'",
            ),
            ({**QUIVER, "sigma": {"a": 1.0}}, "vertex 'b' missing sigma or tau"),
            # a string is not the list of its characters
            ({**QUIVER, "vertices": "ab"}, "problem.quiver.vertices must be a list, got 'ab'"),
            (
                {**QUIVER, "ranks": {"a": 1, "b": 2}},
                "quiver-check requires rank-1 vertex bundles, got rank 2 at vertex 'b'",
            ),
        ],
    )
    def test_malformed_quiver_exit_one(self, tmp_path, capsys, quiver, message):
        config = {"command": "quiver-check", "problem": {"quiver": quiver}, "n": 65}
        code, err = self.run_text(tmp_path, capsys, json.dumps(config))
        assert code == EXIT_USAGE
        assert err == [f"config error: {message}"]

    @pytest.mark.parametrize("command", ["solve-vortex", "solve-gravitating", "eb-solve"])
    def test_rank_two_solve_exit_one(self, tmp_path, capsys, command):
        problem = {"degrees": [1, 2], "exponents": [0, 1], "tau": 5}
        code, err = self.run_text(
            tmp_path, capsys, json.dumps({"command": command, "problem": problem})
        )
        assert code == EXIT_USAGE
        assert err == [f"config error: {command} requires an abelian (rank-1) configuration"]

    def test_quiver_spec_built_once_at_parse_time(self):
        config = parse_config(
            json.dumps({"command": "quiver-check", "problem": {"quiver": QUIVER}})
        )
        assert config.quiver_spec.tau == {"a": 0.0, "b": 2.5}
        assert config.quiver_spec.section_exponents == {"x": 1}

    def test_problem_built_once_at_parse_time(self):
        config = parse_config(
            json.dumps(
                {"command": "stability", "problem": {"degrees": [2], "exponents": [1], "tau": 5}}
            )
        )
        # tau as given, so that the report echoes an integer tau as one
        assert config.higgs.tau == 5 and type(config.higgs.tau) is int
        assert config.higgs.alpha == 0.0

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("[0, NaN]", "schedule entry must be a finite number, got nan"),
            ("[0, Infinity]", "schedule entry must be a finite number, got inf"),
            ("[0, 1e400]", "schedule entry must be a finite number, got inf"),
            ('["0", "0.05"]', "schedule entries must be numbers, got '0'"),
            ('"0"', "schedule must be a list of numbers, got '0'"),
        ],
    )
    def test_bad_schedule_exit_one(self, tmp_path, capsys, literal, message):
        text = (
            '{"command": "solve-gravitating", "problem": {"degrees": [2], "exponents": [1],'
            f' "tau": 5}}, "numerics": {{"n": 65, "schedule": {literal}}}}}'
        )
        code, err = self.run_text(tmp_path, capsys, text)
        assert code == EXIT_USAGE
        assert err == [f"config error: {message}"]

    def test_bad_tolerance_and_max_iter_both_named(self, tmp_path, capsys):
        text = (
            '{"command": "solve-vortex", "problem": {"degrees": [2], "exponents": [1],'
            ' "tau": 5}, "numerics": {"tolerance": Infinity, "max_iter": 2.5}}'
        )
        code, err = self.run_text(tmp_path, capsys, text)
        assert code == EXIT_USAGE
        assert err == [
            "config error: tolerance must be a positive number, got inf; "
            "max_iter must be a positive integer, got 2.5"
        ]

    @pytest.mark.parametrize("directory", [5, None, ["out"]])
    def test_non_string_output_directory_exit_one(self, tmp_path, capsys, directory):
        config = {
            "command": "stability",
            "problem": {"degrees": [2], "exponents": [1], "tau": 5},
            "output": {"directory": directory},
        }
        code, err = self.run_text(tmp_path, capsys, json.dumps(config))
        assert code == EXIT_USAGE
        assert err == [f"config error: output.directory must be a string, got {directory!r}"]

    def test_string_output_formats_exit_one(self, tmp_path, capsys):
        # a string is not the list of its characters
        config = {
            "command": "stability",
            "problem": {"degrees": [2], "exponents": [1], "tau": 5},
            "output": {"formats": "json"},
        }
        code, err = self.run_text(tmp_path, capsys, json.dumps(config))
        assert code == EXIT_USAGE
        assert err == ["config error: output.formats must be a list, got 'json'"]

    @pytest.mark.parametrize("degrees, exponents", [([1, 2], [0, None]), ([2], [None])])
    def test_futaki_vanishing_component_exit_one(self, tmp_path, capsys, degrees, exponents):
        problem = {"degrees": degrees, "exponents": exponents, "tau": 5}
        code, err = self.run_text(
            tmp_path, capsys, json.dumps({"command": "futaki", "problem": problem})
        )
        assert code == EXIT_USAGE
        assert err == ["config error: closed form requires every Higgs component nonzero"]

    @pytest.mark.parametrize("command", ["stability", "sweep"])
    @pytest.mark.parametrize("key", ["tau", "alpha"])
    def test_integer_too_large_for_a_float_exit_one(self, tmp_path, capsys, command, key):
        huge = "1" + "0" * 400  # a JSON integer; float() of it overflows
        values = {"tau": "5", "alpha": "0.5", key: huge}
        if command == "sweep":
            sweep = f', "sweep": {{"over": {{"{key}": [{values.pop(key)}]}}}}'
        else:
            sweep = ""
        couplings = "".join(f', "{k}": {v}' for k, v in values.items())
        text = (
            f'{{"command": "{command}", "problem": '
            f'{{"degrees": [2], "exponents": [1]{couplings}}}{sweep}}}'
        )
        code, err = self.run_text(tmp_path, capsys, text)
        assert code == EXIT_USAGE
        too_large = "must be a finite number, got an integer too large for a float"
        assert err == [f"config error: {key} {too_large}"]


class TestVanishingHiggsField:
    @pytest.mark.parametrize(
        "command, degrees, exponents, status",
        [
            ("stability", [2], [None], "obstructed"),
            ("stability", [1, 2], [None, None], "obstructed"),
            ("solve-vortex", [2], [None], "infeasible"),
            ("solve-gravitating", [2], [None], "infeasible"),
            ("eb-solve", [2], [None], "infeasible"),
        ],
    )
    def test_every_component_zero_exit_two(self, tmp_path, command, degrees, exponents, status):
        problem = {"degrees": degrees, "exponents": exponents, "tau": 5}
        code, report = run_config(tmp_path, {"command": command, "problem": problem, "n": 65})
        assert code == EXIT_OBSTRUCTED and report["status"] == status
        assert any("the Higgs field vanishes identically" in r for r in report["reasons"])
        assert report["outputs"] == []
        jsonschema.validate(report, report_schema())

    @pytest.mark.parametrize("exponents, sat_degree", [([0, None], 1), ([None, 1], 2)])
    def test_one_rank2_component_zero_exit_two(self, tmp_path, exponents, sat_degree):
        problem = {"degrees": [1, 2], "exponents": exponents, "tau": 5, "alpha": 1.0}
        code, report = run_config(tmp_path, {"command": "stability", "problem": problem})
        assert code == EXIT_OBSTRUCTED and report["status"] == "obstructed"
        verdict = report["stability"]
        # the saturation of phi(O) is the nonzero summand, which empties the window
        assert verdict["saturation_degree"] == sat_degree
        assert verdict["nonabelian_window"] is False
        assert verdict["balanced"] is None and verdict["futaki_value"] is None
        assert "the rank-2 vortex window" in report["reasons"][0]


def test_unsolved_eb_search_exports_no_state(tmp_path):
    # with a tolerance below the n = 513 floor both evaluations stop on it
    payload = {
        "command": "eb-solve",
        "problem": {"degrees": [2], "exponents": [1], "tau": 5},
        "numerics": {"n": 513, "tolerance": 1e-12},
    }
    code, report = run_config(tmp_path, payload)
    assert code == 3 and report["status"] == "not_converged"
    eb = report["einstein_bogomolnyi"]
    assert not eb["converged"]
    # 4.0, the start value of c, is not quoted as the c of an unsolved state
    assert eb["c_value"] is None
    assert [c for _, c in eb["secant_history"]] == [None, None]
    assert eb["endpoint_c_values"] == [None, None]
    assert report["outputs"] == []
    assert os.listdir(tmp_path / "out") == ["report.json"]
    jsonschema.validate(report, report_schema())
