"""CLI tests, run in-process through cli(argv).

Exit-code contract: 0 success (a proven infeasible/unbounded model is an
answer), 1 usage error, 2 data error, 3 solve failure.
"""

import dataclasses
import json
import math

import pytest

from ucbench import (Line, Network, Solution, generate_instance,
                     save_instance)
from ucbench import cli as cli_module
from ucbench import oracle
from ucbench.cli import cli

from conftest import make_instance, ramped


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "tiny.json"
    save_instance(make_instance([15.0, 15.0], name="tiny"), path)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.json"
    save_instance(make_instance([15.0, 15.0], p_min=30.0), path)
    return str(path)


@pytest.fixture
def hot_file(tmp_path):
    path = tmp_path / "hot.json"
    save_instance(make_instance([15.0, 15.0], heat_loss=1.5), path)
    return str(path)


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli([]) == 1

    def test_unknown_command(self, capsys):
        assert cli(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli(["--help"]) == 0
        assert "ucbench" in capsys.readouterr().out

    def test_bad_flag_values_are_usage_errors(self, inst_file, capsys):
        assert cli(["solve", inst_file, "--gap", "-0.1"]) == 1
        assert cli(["solve", inst_file, "--time-limit", "0"]) == 1
        assert cli(["approx", inst_file, "--ktol", "-1"]) == 1
        assert cli(["approx", inst_file, "--ktol", "nan"]) == 1
        assert cli(["build", inst_file, "--formulation", "one_bin",
                    "--ktol", "nan", "--out", "x.mps"]) == 1
        assert cli(["solve", inst_file, "--gap", "nan"]) == 1
        assert cli(["solve", inst_file, "--time-limit", "nan"]) == 1
        assert cli(["approx", inst_file, "--ktol", "inf"]) == 1
        assert cli(["build", inst_file, "--formulation", "one_bin",
                    "--ktol", "inf", "--out", "x.mps"]) == 1
        assert cli(["gap", inst_file, "--formulations", "one_bin",
                    "--ktol", "inf"]) == 1
        assert cli(["oracle", inst_file, "--guard", "-3"]) == 1


class TestValidate:
    def test_ok(self, inst_file, capsys):
        assert cli(["validate", inst_file]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_violations_listed(self, bad_file, capsys):
        assert cli(["validate", bad_file]) == 2
        assert "p_min" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert cli(["validate", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli(["validate", str(path)]) == 2

    def test_zero_horizon_is_a_data_error(self, tmp_path, capsys):
        doc = make_instance([15.0, 15.0]).to_dict()
        doc.update(horizon=0, load=[])
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli(["validate", str(path)]) == 2
        assert capsys.readouterr().out == "horizon must be >= 1, got 0\n"
        assert cli(["solve", str(path), "--formulation", "temp"]) == 2
        assert capsys.readouterr() == (
            "", "error: invalid instance: horizon must be >= 1, got 0\n")


class TestBuild:
    def test_writes_mps(self, inst_file, tmp_path, capsys):
        out = tmp_path / "model.mps"
        code = cli(["build", inst_file, "--formulation", "temp",
                    "--out", str(out)])
        assert code == 0
        assert "12 variables" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8").startswith("NAME")

    def test_data_error(self, bad_file, tmp_path):
        out = tmp_path / "model.mps"
        assert cli(["build", bad_file, "--formulation", "one_bin",
                    "--out", str(out)]) == 2
        assert not out.exists()

    def test_out_under_a_file(self, inst_file, capsys):
        out = inst_file + "/x.mps"
        assert cli(["build", inst_file, "--formulation", "one_bin",
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSolve:
    def test_instance_to_optimum(self, inst_file, capsys):
        assert cli(["solve", inst_file, "--gap", "0"]) == 0
        out = capsys.readouterr().out
        assert "status     optimal" in out
        assert "objective  70.0" in out  # 2 periods x (5 + 2*15)

    def test_solution_file(self, inst_file, tmp_path, capsys):
        out = tmp_path / "sol.txt"
        assert cli(["solve", inst_file, "--gap", "0",
                    "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# solution for tiny_basic_one_bin")
        values = dict(l.split() for l in lines[1:])
        assert values["v_1_1"] == "1.0"
        assert values["p_1_2"] == "15.0"

    def test_mps_input(self, inst_file, tmp_path, capsys):
        mps = tmp_path / "model.mps"
        assert cli(["build", inst_file, "--formulation", "one_bin",
                    "--out", str(mps)]) == 0
        capsys.readouterr()
        assert cli(["solve", str(mps), "--gap", "0"]) == 0
        assert "status     optimal" in capsys.readouterr().out

    def test_infeasible_is_an_answer(self, tmp_path, capsys):
        path = tmp_path / "heavy.json"
        save_instance(make_instance([100.0, 100.0], name="heavy"), path)
        assert cli(["solve", str(path)]) == 0
        assert "status     infeasible" in capsys.readouterr().out

    def test_out_in_a_missing_directory(self, inst_file, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.sol"
        assert cli(["solve", inst_file, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.parent.exists()

    def test_time_limit_without_values_exits_three(self, tmp_path, capsys):
        # the root LP runs whatever the budget; at gap 0 its fractional
        # optimum gives no incumbent, and the budget stops the next node
        path = tmp_path / "seeded.json"
        save_instance(generate_instance(1, 2, 4), path)
        assert cli(["solve", str(path), "--formulation", "temp", "--gap",
                    "0", "--time-limit", "1e-9"]) == 3
        out = capsys.readouterr().out
        assert "status     time_limit" in out
        assert "nodes      1" in out

    def test_solver_error_exits_three(self, inst_file, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "solve_mip",
                            lambda model, config: Solution(
                                status="error", message="node LP failed"))
        assert cli(["solve", inst_file]) == 3
        out = capsys.readouterr().out
        assert "status     error" in out
        assert "note       node LP failed" in out

    def test_malformed_backend_exits_two(self, inst_file, capsys):
        for backend in ("false", "solver {input} {output}"):
            assert cli(["solve", inst_file, "--backend", backend]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: unknown backend {backend!r}; "
                                    "expected one of ('reference',)\n")


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_parsers(self, inst_file,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [inst_file],
                                   "formulations": ["temp"]}),
                       encoding="utf-8")
        gap = ["gap", inst_file, "--formulations", "one_bin"]
        calls = [gap, ["bench", str(cfg), "--out-dir", str(tmp_path)],
                 gap + ["--ktol", "0.2"], gap + ["--ktol", "-1"], gap]

        def run_all():
            ends = []
            for argv in calls:
                code = cli(argv)
                out, err = capsys.readouterr()
                ends.append((code, out, err))
            return ends

        reused = run_all()
        assert cli_module._parser() is cli_module._parser()
        monkeypatch.setattr(cli_module, "_parser",
                            cli_module._parser.__wrapped__)
        assert run_all() == reused
        assert [code for code, _, _ in reused] == [0, 0, 0, 1, 0]
        ktols = [out.splitlines()[1].split(",")[2]
                 for _, out, _ in (reused[0], reused[2], reused[4])]
        assert ktols == ["0.0", "0.2", "0.0"]


class TestGap:
    def test_csv_on_stdout(self, inst_file, capsys):
        code = cli(["gap", inst_file, "--formulations", "one_bin,temp",
                    "--gap", "0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("instance,formulation,ktol,z_mip")
        assert len(lines) == 3
        assert lines[1].split(",")[:2] == ["tiny", "one_bin"]
        assert lines[2].split(",")[:2] == ["tiny", "temp"]

    def test_unknown_formulation(self, inst_file, capsys):
        assert cli(["gap", inst_file, "--formulations", "two_bin"]) == 2
        assert "unknown formulation" in capsys.readouterr().err

    def test_malformed_backend_exits_two_before_any_row(self, inst_file,
                                                       capsys):
        assert cli(["gap", inst_file, "--formulations", "temp",
                    "--backend", "cplx"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown backend 'cplx'" in captured.err

    def test_rows_equal_the_bench_csv(self, inst_file, tmp_path, capsys):
        """gap is a one-instance bench: same rows, order and bytes."""
        assert cli(["gap", inst_file, "--formulations", "temp,one_bin",
                    "--base", "extended", "--ktol", "0.05", "--gap", "0.01",
                    "--time-limit", "60"]) == 0
        gap_out = capsys.readouterr().out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [inst_file], "formulations": ["temp", "one_bin"],
            "base": "extended", "ktols": [0.05], "gap": 0.01,
            "time_limit": 60.0,
        }), encoding="utf-8")
        assert cli(["bench", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "bench.csv").read_bytes() == gap_out.encode()


class TestInvalidInstance:
    """Every subcommand that reads an instance exits 2 on an invalid one
    and names the violation, before writing any output."""

    @pytest.mark.parametrize("command", ["validate", "build", "solve", "gap",
                                         "approx", "oracle", "bench"])
    def test_exits_two_naming_the_violation(self, command, hot_file,
                                            tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [hot_file]}),
                       encoding="utf-8")
        argv = {
            "validate": [hot_file],
            "build": [hot_file, "--formulation", "temp",
                      "--out", str(tmp_path / "m.mps")],
            "solve": [hot_file],
            "gap": [hot_file, "--formulations", "temp"],
            "approx": [hot_file],
            "oracle": [hot_file],
            "bench": [str(cfg), "--out-dir", str(tmp_path / "out")],
        }[command]
        assert cli([command] + argv) == 2
        out, err = capsys.readouterr()
        violation = "unit u1: heat_loss must lie in (0, 1), got 1.5"
        if command == "validate":
            assert out.splitlines() == [violation]
        else:
            assert out == ""
            assert err == f"error: invalid instance: {violation}\n"
        assert not (tmp_path / "m.mps").exists()
        assert not (tmp_path / "out").exists()


# case -> (command, change to a valid input document, part of the message)
BAD_INPUTS = {
    "load_entries": ("solve", lambda d: d.update(load=[True, "15.0"]),
                     "load[0]: expected a number, got True"),
    "null_name": ("solve", lambda d: d.update(name=None),
                  "name: expected a string, got None"),
    "numeric_node": ("solve", lambda d: d["units"][0].update(node=5),
                     "units[0].node: expected a string, got 5"),
    "string_alpha": ("solve", lambda d: d["network"]["lines"][0].update(
        alpha={"n1": "1.0"}),
        "network.lines[0].alpha.n1: expected a number, got '1.0'"),
    "boolean_gamma": ("solve",
                      lambda d: d["network"]["nodes"][0].update(gamma=True),
                      "network.nodes[0].gamma: expected a number, got True"),
    "unit_not_object": ("solve", lambda d: d.update(units=[5]),
                        "units[0]: expected an object, got 5"),
    "nan_cost": ("solve",
                 lambda d: d["units"][0].update(cost_variable=math.nan),
                 "invalid instance: unit u1: cost_variable must be finite, "
                 "got nan"),
    "instances_string": ("bench", lambda c: c.update(instances="a.json"),
                         "instances: expected an array, got 'a.json'"),
    "ktols_number": ("bench", lambda c: c.update(ktols=0.05),
                     "ktols: expected an array, got 0.05"),
    "generate_key": ("bench", lambda c: c["generate"][0].update(n_unit=2),
                     "unexpected keyword argument 'n_unit'"),
    "generate_string": ("bench",
                        lambda c: c["generate"][0].update(n_units="2"),
                        "generate[0].n_units: expected an integer, got '2'"),
    "generate_flag": ("bench",
                      lambda c: c["generate"][0].update(with_network="no"),
                      "generate[0].with_network: expected a boolean, "
                      "got 'no'"),
    "generate_volatility": ("bench",
                            lambda c: c["generate"][0].update(volatility=True),
                            "generate[0].volatility: expected a number, "
                            "got True"),
}


class TestBadInput:
    """A malformed instance or config exits 2, and its message names the
    field at fault."""

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_exits_two_naming_the_field(self, case, tmp_path, capsys):
        command, spoil, message = BAD_INPUTS[case]
        if command == "solve":
            net = Network(nodes={"n1": 1.0},
                          lines=[Line(id="l1", capacity=40.0,
                                      alpha={"n1": 1.0})])
            doc = make_instance([15.0, 15.0], network=net,
                                node="n1").to_dict()
        else:
            doc = {"generate": [{"seed": 1, "n_units": 2, "T": 6}],
                   "formulations": ["temp"], "ktols": [0.0]}
        spoil(doc)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out_dir = tmp_path / "out"
        argv = [command, str(path)]
        if command == "bench":
            argv += ["--out-dir", str(out_dir)]
        assert cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert not out_dir.exists()


class TestBench:
    def test_field_error_names_the_instance_file(self, tmp_path, capsys):
        doc = make_instance([15.0, 15.0]).to_dict()
        (tmp_path / "i1.json").write_text(json.dumps(doc), encoding="utf-8")
        doc["load"][0] = True
        bad = tmp_path / "i2.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [str(tmp_path / "i1.json"), str(bad)],
            "formulations": ["temp"], "ktols": [0.0],
        }), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert cli(["bench", str(cfg), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: load[0]: expected a number, got True\n")
        assert not out_dir.exists()

    def test_runs_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "generate": [{"seed": 1, "n_units": 2, "T": 6}],
            "formulations": ["temp"], "ktols": [0.0], "gap": 0.0,
        }), encoding="utf-8")
        assert cli(["bench", str(cfg), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert (tmp_path / "bench.csv").exists()
        assert (tmp_path / "bench_summary.csv").exists()
        assert (tmp_path / "bench.json").exists()
        assert "csv:" in out and "json:" in out

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}', encoding="utf-8")
        assert cli(["bench", str(cfg)]) == 2

    def test_config_referencing_missing_instance(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [str(tmp_path / "ghost.json")],
            "formulations": ["temp"], "ktols": [0.0],
        }), encoding="utf-8")
        assert cli(["bench", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_two_nameless_instances_exit_two_naming_the_duplicate(
            self, tmp_path, capsys):
        """Both files fall back to the default name; their rows would
        merge, so the run stops before measuring anything."""
        paths = []
        for k, load in enumerate(([15.0, 15.0], [12.0, 18.0])):
            doc = make_instance(load).to_dict()
            del doc["name"]
            path = tmp_path / f"nameless{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": paths, "formulations": ["temp"], "ktols": [0.0],
        }), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert cli(["bench", str(cfg), "--out-dir", str(out_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: duplicate instance name 'instance'")
        assert not out_dir.exists()


class TestApprox:
    def test_prints_step_tables(self, tmp_path, capsys):
        path = tmp_path / "steps.json"
        save_instance(make_instance([15.0] * 6, name="steps"), path)
        assert cli(["approx", str(path), "--ktol", "0.05"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("u1:")
        assert "off-time [1]" in out

    def test_prints_the_tables_the_builder_prices(self, tmp_path, capsys):
        from ucbench import FormulationChoice, build_model, load_instance
        from ucbench.formulations import step_functions

        path = tmp_path / "steps.json"
        save_instance(make_instance([15.0] * 6, name="steps",
                                    pre_offline=3), path)
        assert cli(["approx", str(path), "--ktol", "0.05"]) == 0
        out = capsys.readouterr().out
        inst = load_instance(path)
        (sf,) = step_functions(inst, 0.05).values()
        assert out.startswith(f"u1: {sf.n_steps} steps")
        last = sf.steps[-1]
        assert out.endswith(f"  off-time [{last.lo}, {last.hi}]: "
                            f"{last.value!r}\n")
        assert last.hi == 6 - 1 + 3  # the window covers the outage
        # three_bin charges the last start type that same value
        model, vix = build_model(inst, FormulationChoice("basic", "three_bin",
                                                         0.05))
        assert len(vix.d[0]) == sf.n_steps  # unit 1's start types
        assert model.objective[vix.d[0][sf.n_steps - 1][1]] == last.value
        assert vix.d[0][sf.n_steps - 1][1] == model.var_id(
            f"d_1_1_{sf.n_steps}")


class TestOracle:
    def test_certification_report(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        save_instance(make_instance([0.0, 10.0], name="pair",
                                    pre_offline=1), path)
        assert cli(["oracle", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["conclusive"] is True
        assert report["oracle"]["objective"] == pytest.approx(110.0)

    def test_agreed_infeasibility_exits_zero(self, tmp_path, capsys):
        # no schedule meets the load under these ramps, and every MILP
        # proves the model infeasible
        path = tmp_path / "ramp.json"
        save_instance(ramped(generate_instance(105, 2, 4), 0.6), path)
        assert cli(["oracle", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["conclusive"] is True
        assert report["max_rel_deviation"] is None

    def test_inconclusive_exits_three(self, inst_file, capsys):
        assert cli(["oracle", inst_file, "--guard", "1"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["conclusive"] is False

    def test_optima_away_from_the_enumeration_exit_three(
            self, tmp_path, capsys, monkeypatch):
        # every module ends optimal, 1e-6 (relative) above the enumeration
        solve = oracle.solve_mip

        def off(model, config, start=None):
            res = solve(model, config, start)
            return dataclasses.replace(res,
                                       objective=res.objective * (1 + 1e-6))

        monkeypatch.setattr(oracle, "solve_mip", off)
        path = tmp_path / "pair.json"
        save_instance(make_instance([0.0, 10.0], name="pair",
                                    pre_offline=1), path)
        assert cli(["oracle", str(path)]) == 3
        report = json.loads(capsys.readouterr().out)
        assert {entry["status"] for entry
                in report["formulations"].values()} == {"optimal"}
        assert report["max_rel_deviation"] == pytest.approx(1e-6)
        assert report["conclusive"] is True
