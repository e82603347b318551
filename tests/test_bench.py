"""Benchmark harness tests: generator determinism and ranges, gap
measurement semantics, and the CSV/JSON report contract."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from ucbench import (
    STARTUPS,
    BenchConfig,
    FormulationChoice,
    build_base,
    build_model,
    generate_instance,
    measure_gap,
    root_start,
    run_benchmark,
    solve_lp,
    validate_instance,
)
from ucbench.bench import gap_rows

from conftest import make_instance


class TestGenerateInstance:
    def test_deterministic_for_a_seed(self):
        a = generate_instance(7, 2, 6)
        b = generate_instance(7, 2, 6)
        assert a.to_dict() == b.to_dict()
        assert a.name == "gen-s7-u2-t6"

    def test_generated_instances_validate(self):
        for seed in (1, 2, 3):
            assert validate_instance(generate_instance(seed, 3, 10)) == []
        netted = generate_instance(4, 2, 8, with_network=True)
        assert validate_instance(netted) == []
        assert netted.name.endswith("-net")

    def test_parameter_ranges(self):
        inst = generate_instance(11, 5, 6)
        total = sum(u.p_max for u in inst.units)
        for u in inst.units:
            assert 50.0 <= u.p_max <= 1000.0
            assert 0.3 * u.p_max <= u.p_min <= 0.6 * u.p_max
            # separable dispatch: a unit sweeps its whole range in a step
            assert u.ramp_up >= u.p_max - u.p_min
            assert u.ramp_up == u.ramp_down
            assert u.startup_ramp == u.p_min
            assert u.shutdown_ramp == u.p_min
            assert 1 <= u.min_up <= 8 and 1 <= u.min_down <= 8
            assert 0.02 <= u.heat_loss <= 0.7
            assert u.pre_offline == 0
        assert len(inst.load) == 6
        for x in inst.load:
            assert 0.3 * total <= x <= 0.95 * total

    def test_zero_volatility_load_is_daily_periodic(self):
        inst = generate_instance(5, 2, 48, volatility=0.0)
        for t in range(24):
            assert inst.load[t] == pytest.approx(inst.load[t + 24])

    def test_star_network_shape(self):
        inst = generate_instance(9, 3, 6, with_network=True)
        net = inst.network
        assert set(net.nodes) == {"hub", "n1", "n2", "n3"}
        assert sum(net.nodes.values()) == pytest.approx(1.0)
        assert len(net.lines) == 3
        for k, line in enumerate(net.lines, 1):
            assert line.alpha == {f"n{k}": 1.0}
            assert line.capacity > 0

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="n_units"):
            generate_instance(1, 0, 6)
        with pytest.raises(ValueError, match="horizon"):
            generate_instance(1, 2, 1)
        with pytest.raises(ValueError, match="volatility"):
            generate_instance(1, 2, 6, volatility=1.5)


def measure(inst, choice, config):
    """measure_gap as gap_rows calls it: on the instance's base, with its
    LP's optimal basis as the root's start."""
    base = build_base(inst, choice.base)
    return measure_gap(inst, choice, config, base, root_start(base[0]))


class TestMeasureGap:
    def test_row_semantics_on_a_seeded_instance(self):
        inst = generate_instance(1, 2, 6)
        row = measure(inst, FormulationChoice("basic", "one_bin"),
                      BenchConfig(gap=0.0))
        assert row.status == "optimal"
        assert row.backend == "reference"
        assert row.instance == inst.name
        assert row.formulation == "one_bin"
        assert row.z_mip >= row.z_lp - 1e-9
        assert row.gap_abs == pytest.approx(row.z_mip - row.z_lp)
        assert row.gap_rel == pytest.approx(row.gap_abs / row.z_mip)
        assert row.nodes >= 1
        assert row.wall_ms == 0.0  # timing off by default

    def test_record_timing_flag(self):
        inst = make_instance([15.0, 15.0])
        row = measure(inst, FormulationChoice("basic", "temp"),
                      BenchConfig(gap=0.0, record_timing=True))
        assert row.wall_ms > 0.0

    def test_integral_relaxation_has_zero_gap(self):
        """Fixing p_min = p_max pins the indicator in the relaxation, so
        root LP and MIP coincide exactly."""
        inst = make_instance([15.0, 15.0], p_min=15.0, p_max=15.0)
        row = measure(inst, FormulationChoice("basic", "one_bin"),
                      BenchConfig(gap=0.0))
        assert row.status == "optimal"
        assert row.nodes == 1
        assert row.gap_abs == 0.0
        assert row.gap_rel == 0.0

    def test_a_zero_optimum_has_a_zero_relative_gap(self):
        # with no load every unit stays off at no cost: z_mip = z_lp = 0.0
        # on both bases, and gap_rel is 0.0 rather than 0 / 0
        inst = generate_instance(1, 2, 3)
        inst = dataclasses.replace(inst, load=[0.0] * inst.horizon)
        for base in ("basic", "extended"):
            row = measure(inst, FormulationChoice(base, "one_bin", 0.0),
                          BenchConfig(gap=0.0))
            assert (row.status, row.z_mip, row.z_lp, row.gap_abs,
                    row.gap_rel) == ("optimal", 0.0, 0.0, 0.0, 0.0)


class TestRootBoundSource:
    """z_LP is the branch-and-bound root node, which starts from the
    base LP's optimal basis; it must be what a stand-alone ``solve_lp``
    reports, up to rounding, and no second LP is solved for it."""

    CHOICES = [FormulationChoice(base, m, 0.0)
               for base in ("basic", "extended") for m in STARTUPS]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("time_limit", [60.0, 1e-9])
    def test_z_lp_matches_solve_lp(self, seed, time_limit, monkeypatch):
        import ucbench.bench as bench

        def second_lp(model):
            raise AssertionError("measure_gap solved a second LP")

        monkeypatch.setattr(bench, "solve_lp", second_lp)
        inst = generate_instance(seed, 2, 3)
        cfg = BenchConfig(time_limit=time_limit)
        for choice in self.CHOICES:
            model, _ = build_model(inst, choice)
            row = measure(inst, choice, cfg)
            z_lp = solve_lp(model).objective
            assert abs(row.z_lp - z_lp) <= 1e-12 * abs(z_lp), choice


class TestBenchConfig:
    def test_rejects_unknown_formulation(self):
        with pytest.raises(ValueError, match="unknown formulation"):
            BenchConfig(formulations=["two_bin"])
        with pytest.raises(ValueError, match="must not be empty"):
            BenchConfig(formulations=[])
        with pytest.raises(ValueError, match="unknown base"):
            BenchConfig(base="fancy")
        with pytest.raises(ValueError, match="ktol"):
            BenchConfig(ktols=[-0.05])
        with pytest.raises(ValueError, match="ktol"):
            BenchConfig(ktols=[float("nan")])
        with pytest.raises(ValueError, match="ktol must be finite"):
            BenchConfig(ktols=[float("inf")])
        with pytest.raises(ValueError, match="gap must be >= 0"):
            BenchConfig(gap=-1.0)
        with pytest.raises(ValueError, match="gap must be >= 0"):
            BenchConfig(gap=float("nan"))
        with pytest.raises(ValueError, match="time limit must be > 0"):
            BenchConfig(time_limit=0.0)

    def test_rejects_an_empty_ktol_list_as_it_does_formulations(self):
        # no ktol would measure no row, as no formulation would
        with pytest.raises(ValueError, match="^ktol list must not be empty$"):
            BenchConfig(ktols=[])
        with pytest.raises(ValueError, match="^formulation list must not be "
                                             "empty$"):
            BenchConfig(formulations=[], ktols=[])

    @pytest.mark.parametrize("backend", [
        "cplx", "x {input}", "'x {input} {output}",
        "x {input} {output} {foo}"])
    def test_rejects_a_malformed_backend_before_any_row(self, backend):
        # the config itself raises, so no row is measured or recorded
        with pytest.raises(ValueError, match=re.escape(repr(backend))):
            BenchConfig(generate=[{"seed": 1, "n_units": 2, "T": 3}],
                        backend=backend)

    def test_from_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "generate": [{"seed": 1, "n_units": 2, "T": 6}],
            "formulations": ["temp"], "ktols": [0.0], "gap": 0.0,
        }), encoding="utf-8")
        cfg = BenchConfig.from_json(path)
        assert cfg.formulations == ["temp"]
        assert cfg.generate == [{"seed": 1, "n_units": 2, "T": 6}]
        assert cfg.gap == 0.0

    def test_documented_example_is_valid(self, tmp_path):
        doc = (Path(__file__).resolve().parent.parent / "docs"
               / "bench-config.md").read_text(encoding="utf-8")
        path = tmp_path / "cfg.json"
        path.write_text(re.search(r"```json\n(.*?)```", doc, re.S).group(1),
                        encoding="utf-8")
        cfg = BenchConfig.from_json(path)
        assert (cfg.base, cfg.ktols, cfg.gap) == ("extended", [0.0, 0.05], 0.0)
        assert [generate_instance(**spec).name for spec in cfg.generate] == [
            "gen-s1-u2-t6", "gen-s2-u3-t24-net"]

    def test_from_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"gap": 0.0, "bogus": 1}', encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config keys"):
            BenchConfig.from_json(path)


class TestRunBenchmark:
    def config(self, **over):
        base = dict(generate=[{"seed": 1, "n_units": 2, "T": 6}],
                    formulations=["one_bin", "temp"], ktols=[0.0, 0.05],
                    gap=0.0, time_limit=60.0)
        base.update(over)
        return BenchConfig(**base)

    def test_report_files_and_shapes(self, tmp_path):
        paths = run_benchmark(self.config(), out_dir=tmp_path)
        csv_lines = Path(paths["csv"]).read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == ("instance,formulation,ktol,z_mip,z_lp,"
                                "gap_abs,gap_rel,wall_ms,nodes,status,"
                                "backend")
        assert len(csv_lines) == 1 + 4  # 2 formulations x 2 ktols
        summary = Path(paths["summary"]).read_text(encoding="utf-8").splitlines()
        assert summary == ["horizon,n_rows,n_solved", "6,4,4"]
        payload = json.loads(Path(paths["json"]).read_text(encoding="utf-8"))
        assert len(payload["rows"]) == 4
        assert payload["summary"] == [{"horizon": 6, "n_rows": 4,
                                       "n_solved": 4}]
        assert payload["config"]["formulations"] == ["one_bin", "temp"]
        for r in payload["rows"]:
            assert r["status"] == "optimal"
            assert r["z_mip"] >= r["z_lp"] - 1e-9

    def test_reports_are_byte_deterministic(self, tmp_path):
        first = run_benchmark(self.config(), out_dir=tmp_path / "a")
        second = run_benchmark(self.config(), out_dir=tmp_path / "b")
        for key in ("csv", "summary", "json"):
            a = Path(first[key]).read_bytes()
            b = Path(second[key]).read_bytes()
            assert a == b, key

    def test_row_failures_are_recorded_not_raised(self, tmp_path,
                                                  monkeypatch):
        import ucbench.bench as bench

        def failing_build(instance, choice, base=None):
            raise ValueError("build failed")

        monkeypatch.setattr(bench, "build_model", failing_build)
        cfg = self.config(formulations=["one_bin"], ktols=[0.0])
        paths = run_benchmark(cfg, out_dir=tmp_path)
        payload = json.loads(Path(paths["json"]).read_text(encoding="utf-8"))
        (r,) = payload["rows"]
        assert r["status"] == "error: build failed"
        assert r["z_mip"] is None  # NaN serialized as null
        summary = Path(paths["summary"]).read_text(encoding="utf-8").splitlines()
        assert summary[1] == "6,1,0"

    def test_a_failing_base_fails_each_row_of_its_instance(self,
                                                           monkeypatch):
        """An instance's rows share one base build; when it raises, each
        of them records the error and the other instances' rows run."""
        import ucbench.formulations as formulations
        build_base = formulations.build_base

        def failing_base(instance, base="basic"):
            if instance.name == "gen-s1-u2-t6":
                raise ValueError("base failed")
            return build_base(instance, base)

        monkeypatch.setattr(formulations, "build_base", failing_base)
        cfg = self.config(generate=[{"seed": 1, "n_units": 2, "T": 6},
                                    {"seed": 3, "n_units": 2, "T": 6}])
        rows, _ = gap_rows(cfg)
        assert [(r.instance, r.formulation, r.ktol, r.status) for r in rows] \
            == [("gen-s1-u2-t6", m, k, "error: base failed")
                for m in ("one_bin", "temp") for k in (0.0, 0.05)] \
            + [("gen-s3-u2-t6", m, k, "optimal")
               for m in ("one_bin", "temp") for k in (0.0, 0.05)]

    def test_one_base_lp_per_instance_starts_each_of_its_rows(self,
                                                              monkeypatch):
        """gap_rows solves each instance's base LP once and hands that
        start to every row of the instance."""
        import ucbench.bench as bench
        starts, given = [], []

        def counted_start(model):
            starts.append(root_start(model))
            return starts[-1]

        def measured(inst, choice, config, base, start):
            given.append(start)
            return measure_gap(inst, choice, config, base, start)

        monkeypatch.setattr(bench, "root_start", counted_start)
        monkeypatch.setattr(bench, "measure_gap", measured)
        cfg = self.config(generate=[{"seed": 1, "n_units": 2, "T": 6},
                                    {"seed": 3, "n_units": 2, "T": 6}])
        rows, _ = gap_rows(cfg)
        assert len(starts) == 2 and None not in starts
        assert [id(s) for s in given] == [id(s) for s in starts
                                          for _ in range(4)]
        assert {r.status for r in rows} == {"optimal"}
