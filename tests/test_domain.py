import json
import re
from pathlib import Path

import pytest

from ucbench import (Instance, InstanceFormatError, Line, Network, Schedule,
                     load_instance, offline_runs, save_instance,
                     validate_instance)

from conftest import make_instance, make_unit


class TestValidateInstance:
    def test_well_formed_two_unit_instance_is_clean(self, two_unit_instance):
        assert validate_instance(two_unit_instance) == []

    def test_p_min_above_p_max_is_reported_with_unit_id(self):
        bad = make_unit("g7", p_min=30.0, p_max=20.0,
                        startup_ramp=30.0, shutdown_ramp=30.0)
        inst = make_instance([15.0], units=[bad])
        problems = validate_instance(inst)
        assert len(problems) == 1
        assert "g7" in problems[0]

    def test_node_factors_must_sum_to_one(self):
        net = Network(nodes={"n1": 0.5, "n2": 0.4},
                      lines=[Line(id="l1", capacity=50.0,
                                  alpha={"n1": 1.0})])
        inst = make_instance([12.0], network=net, uid="u1")
        inst.units[0].node = "n1"
        problems = [p for p in validate_instance(inst) if "factor" in p]
        assert len(problems) == 1

    def test_startup_ramp_below_p_min_is_reported(self):
        bad = make_unit(startup_ramp=5.0)
        problems = validate_instance(make_instance([12.0], units=[bad]))
        assert any("startup_ramp" in p for p in problems)

    def test_negative_load_is_reported(self):
        problems = validate_instance(make_instance([12.0, -1.0]))
        assert any("load" in p for p in problems)


class TestOfflineRuns:
    """Start periods paired with the offline time each start pays for."""

    def test_always_on_never_starts(self):
        sched = Schedule([[1, 1, 1]])
        assert offline_runs(sched, 0, pre_offline=0) == []

    def test_two_offline_periods_then_start(self):
        sched = Schedule([[0, 0, 1]])
        assert offline_runs(sched, 0, pre_offline=0) == [(3, 2)]

    def test_pre_horizon_offline_time_with_interior_gap(self):
        # pre_offline > 0 with the unit online at t=1 is itself a start
        # (paying for the 5 pre-horizon periods); the interior gap at
        # t=2,3 does not reach the horizon start, so the t=4 start pays
        # for exactly 2 periods
        sched = Schedule([[1, 0, 0, 1]])
        assert offline_runs(sched, 0, pre_offline=5) == [(1, 5), (4, 2)]

    def test_online_at_first_period_after_prior_downtime(self):
        sched = Schedule([[1, 1]])
        assert offline_runs(sched, 0, pre_offline=3) == [(1, 3)]

    def test_online_at_first_period_with_no_prior_downtime(self):
        # the unit was running before the horizon, so this is not a start
        sched = Schedule([[1, 1]])
        assert offline_runs(sched, 0, pre_offline=0) == []

    def test_gap_touching_horizon_start_includes_pre_offline(self):
        sched = Schedule([[0, 1, 1]])
        assert offline_runs(sched, 0, pre_offline=2) == [(2, 3)]

    def test_multiple_gaps(self):
        sched = Schedule([[0, 1, 0, 0, 1, 1]])
        assert offline_runs(sched, 0, pre_offline=1) == [(2, 2), (5, 2)]


class TestSchedule:
    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError):
            Schedule([[0, 2, 1]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            Schedule([[0, 1], [1]])

    def test_shape_properties(self):
        s = Schedule([[0, 1, 1], [1, 0, 0]])
        assert s.n_units == 2
        assert s.horizon == 3


class TestJsonRoundTrip:
    def test_save_load_identity(self, tmp_path, two_unit_instance):
        p = tmp_path / "inst.json"
        save_instance(two_unit_instance, p)
        back = load_instance(p)
        assert back.to_dict() == two_unit_instance.to_dict()

    def test_network_survives_round_trip(self, tmp_path):
        net = Network(nodes={"n1": 0.25, "n2": 0.75},
                      lines=[Line(id="l1", capacity=40.0,
                                  alpha={"n1": 0.8, "n2": -0.2})])
        u1 = make_unit("u1")
        u1.node = "n1"
        u2 = make_unit("u2")
        u2.node = "n2"
        inst = make_instance([12.0, 18.0], units=[u1, u2], network=net)
        p = tmp_path / "net.json"
        save_instance(inst, p)
        back = load_instance(p)
        assert back.network is not None
        assert back.to_dict() == inst.to_dict()

    def test_missing_required_key_raises_format_error(self, tmp_path):
        p = tmp_path / "broken.json"
        payload = make_instance([10.0]).to_dict()
        del payload["units"][0]["p_max"]
        p.write_text(json.dumps(payload))
        with pytest.raises(InstanceFormatError, match="missing field: p_max"):
            load_instance(p)
        payload = make_instance([10.0]).to_dict()
        del payload["load"]
        p.write_text(json.dumps(payload))
        with pytest.raises(InstanceFormatError, match="missing field: load$"):
            load_instance(p)

    def test_documented_example_is_valid(self, tmp_path):
        doc = (Path(__file__).resolve().parent.parent / "docs"
               / "instance-format.md").read_text(encoding="utf-8")
        example = re.search(r"```json\n(.*?)```", doc, re.S).group(1)
        p = tmp_path / "example.json"
        p.write_text(example)
        inst = load_instance(p)
        assert (inst.name, inst.horizon, len(inst.units)) == ("pair", 3, 2)
        assert validate_instance(inst) == []

    def test_non_json_file_raises(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("not json at all {")
        with pytest.raises((InstanceFormatError, json.JSONDecodeError)):
            load_instance(p)


class TestViolationReports:
    """Bad parameter values are reported, not raised, so a CLI can list
    every problem in one pass."""

    def test_heat_loss_must_be_in_open_unit_interval(self):
        for bad in (0.0, 1.0, 1.5, -0.2):
            inst = make_instance([12.0], units=[make_unit(heat_loss=bad)])
            assert any("heat_loss" in p for p in validate_instance(inst))

    def test_negative_pre_offline_reported(self):
        inst = make_instance([12.0], units=[make_unit(pre_offline=-1)])
        assert any("pre_offline" in p for p in validate_instance(inst))

    def test_horizon_load_length_mismatch_reported(self):
        inst = Instance(name="x", horizon=3, load=[1.0, 2.0],
                        units=[make_unit()])
        assert any("horizon" in p for p in validate_instance(inst))

    def test_duplicate_unit_ids_reported(self):
        inst = make_instance([12.0], units=[make_unit("a"), make_unit("a")])
        assert any("not unique" in p for p in validate_instance(inst))
