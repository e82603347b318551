"""Model-construction tests: row inventories, coefficient algebra, and the
start-up pricing invariant shared by all four cost modules.

Most tests pin exact constraint names and coefficients on tiny instances
where every row can be derived by hand. The last class sweeps every
commitment pattern of a one-unit instance through all module choices and
checks the minimized cost against the closed-form start-up curve.
"""

import copy
import itertools
import logging
import math

import pytest

from ucbench import (
    BASES,
    STARTUPS,
    FormulationChoice,
    Line,
    Network,
    Schedule,
    add_startup_1bin,
    add_startup_3bin,
    build_base,
    build_model,
    enumerate_schedules,
    fix_variables,
    generate_instance,
    offline_runs,
    solve_lp,
    startup_cost,
    write_mps,
)
from ucbench.formulations import step_functions

from conftest import make_instance, make_unit, rows

# default unit of the fixtures: V=100, F=10, heat_loss=ln 2, so the exact
# curve is K(l) = 100 (1 - 2^-l) + 10
K1, K2, K3, K4 = 60.0, 85.0, 97.5, 103.75


def row(model, name):
    for con in rows(model):
        if con.name == name:
            return con
    raise AssertionError(f"no constraint named {name!r}")


def row_names(model, prefix):
    return sorted(n for n in model.row_names if n.startswith(prefix))


def terms(model, con):
    """A row's coefficients keyed by variable name."""
    return {model.var_names[i]: c for i, c in zip(con.ids, con.coeffs)}


def satisfied(model, con, values, tol=1e-9):
    lhs = sum(c * values.get(model.var_names[i], 0.0)
              for i, c in zip(con.ids, con.coeffs))
    if con.sense == "<=":
        return lhs <= con.rhs + tol
    if con.sense == ">=":
        return lhs >= con.rhs - tol
    return abs(lhs - con.rhs) <= tol


class TestBaseShape:
    def test_basic_one_unit_two_periods_rows(self):
        """The smallest basic skeleton: 9 rows, all named predictably."""
        model, _ = build_base(make_instance([15.0, 15.0]), "basic")
        assert model.n_constraints == 9
        assert sorted(model.row_names) == sorted([
            "demand_1", "demand_2",
            "lim_lo_1_1", "lim_hi_1_1", "lim_lo_1_2", "lim_hi_1_2",
            "ramp_up_1_2", "ramp_down_1_2", "shut_ramp_1_1",
        ])

    def test_rejects_invalid_instance(self):
        bad = make_instance([15.0], p_min=30.0)  # p_min above p_max
        with pytest.raises(ValueError, match="invalid instance"):
            build_base(bad, "basic")

    def test_variable_counts_per_module(self):
        inst = make_instance([25.0, 25.0, 25.0],
                             units=[make_unit("g1"), make_unit("g2")])
        n, t = 2, 3
        for startup in ("one_bin", "one_bin_star"):
            model, _ = build_model(inst, FormulationChoice("basic", startup))
            assert model.n_variables == 3 * n * t
        model, _ = build_model(inst, FormulationChoice("basic", "temp"))
        assert model.n_variables == 6 * n * t
        # three_bin: 5 core families plus one selector per period and step;
        # both units see 2 off-times over this horizon, one step each
        model, _ = build_model(inst, FormulationChoice("extended",
                                                       "three_bin"))
        n_steps = sum(sf.n_steps for sf in step_functions(inst, 0.0).values())
        assert n_steps == 2 * 2
        assert model.n_variables == 5 * n * t + t * n_steps

    def test_variable_creation_order(self):
        """v block, p block, then indicator/cost families in adder order."""
        inst = make_instance([15.0, 15.0])
        model, _ = build_model(inst, FormulationChoice("basic", "temp"))
        assert model.var_names == [
            "v_1_1", "v_1_2", "p_1_1", "p_1_2", "y_1_1", "y_1_2",
            "cu_1_1", "cu_1_2", "tmp_1_1", "tmp_1_2", "h_1_0", "h_1_1",
        ]

    def test_extended_indicator_blocks(self):
        inst = make_instance([25.0, 25.0],
                             units=[make_unit("g1"), make_unit("g2")])
        model, _ = build_model(inst, FormulationChoice("extended", "one_bin"))
        names = model.var_names
        assert names[:4] == ["v_1_1", "v_1_2", "v_2_1", "v_2_2"]
        assert names[4:8] == ["p_1_1", "p_1_2", "p_2_1", "p_2_2"]
        assert names[8:12] == ["y_1_1", "y_1_2", "y_2_1", "y_2_2"]
        assert names[12:16] == ["z_1_1", "z_1_2", "z_2_1", "z_2_2"]

    def test_no_network_is_not_a_warning(self, caplog):
        # generated instances carry no network by default, so an empty
        # line-limit family is the common case, not a problem
        inst = make_instance([25.0, 25.0])
        with caplog.at_level(logging.DEBUG, logger="ucbench.formulations"):
            build_model(inst, FormulationChoice("extended", "one_bin"))
        assert [r.levelno for r in caplog.records
                if "without a network" in r.getMessage()] == [logging.DEBUG]

    def test_choice_validation(self):
        with pytest.raises(ValueError, match="unknown base"):
            FormulationChoice("fancy", "one_bin")
        with pytest.raises(ValueError, match="unknown formulation"):
            FormulationChoice("basic", "two_bin")
        with pytest.raises(ValueError, match="ktol"):
            FormulationChoice("basic", "one_bin", ktol=-0.1)
        with pytest.raises(ValueError, match="ktol must be finite"):
            FormulationChoice("basic", "one_bin", ktol=math.inf)


class TestBasicRampRows:
    def test_start_stop_speeds_clamped_to_capacity(self):
        """Nameplate start/stop speeds above p_max cannot bind and must be
        capped before entering the rows, or coefficient signs flip."""
        inst = make_instance([15.0, 15.0], ramp_up=5.0, ramp_down=7.0,
                             startup_ramp=1000.0, shutdown_ramp=1000.0)
        model, _ = build_base(inst, "basic")
        up = row(model, "ramp_up_1_2")
        # su clamps to p_max = 20: v_1 coeff su - ru = 15, v_2 term vanishes
        assert terms(model, up) == {"p_1_2": 1.0, "p_1_1": -1.0,
                                    "v_1_1": 15.0}
        assert (up.sense, up.rhs) == ("<=", 20.0)
        down = row(model, "ramp_down_1_2")
        assert terms(model, down) == {"p_1_2": 1.0, "p_1_1": -1.0,
                                      "v_1_2": -13.0}
        assert (down.sense, down.rhs) == (">=", -20.0)

    def test_shut_ramp_caps_output_before_stop(self):
        inst = make_instance([15.0, 15.0], shutdown_ramp=15.0)
        model, _ = build_base(inst, "basic")
        con = row(model, "shut_ramp_1_1")
        assert terms(model, con) == {"p_1_1": 1.0, "v_1_1": -15.0,
                                     "v_1_2": -5.0}
        # stopping after period 1 caps p_1 at the shutdown speed
        assert satisfied(model, con, {"p_1_1": 15.0, "v_1_1": 1.0})
        assert not satisfied(model, con, {"p_1_1": 15.01, "v_1_1": 1.0})
        # staying on relaxes the cap back to p_max
        assert satisfied(model, con, {"p_1_1": 20.0, "v_1_1": 1.0,
                                      "v_1_2": 1.0})


class TestStartupLookbackRows:
    """The single-binary module: rows bounding cu from below on v alone."""

    def horizon6(self, startup="one_bin"):
        inst = make_instance([15.0] * 6)
        return build_model(inst, FormulationChoice("basic", startup))

    def test_row_inventory_tracks_elapsed_periods(self):
        model, _ = self.horizon6()
        # no pre-horizon outage: period t can prove at most t-1 off periods
        assert row_names(model, "su1_1_1_") == []
        assert row_names(model, "su1_1_4_") == ["su1_1_4_1", "su1_1_4_2",
                                                "su1_1_4_3"]
        assert len(row_names(model, "su1_")) == sum(range(6))

    def test_plain_coefficients(self):
        model, _ = self.horizon6()
        con = row(model, "su1_1_4_2")
        assert terms(model, con) == {"v_1_2": K2, "v_1_3": K2,
                                     "v_1_4": -K2, "cu_1_4": 1.0}
        assert (con.sense, con.rhs) == (">=", 0.0)

    def test_tightened_coefficients(self):
        """The sharpened variant discounts deep lookback terms by the cost
        already provable from a shorter outage."""
        model, _ = self.horizon6("one_bin_star")
        con = row(model, "su1_1_4_2")
        assert terms(model, con) == {"v_1_2": K2 - K1, "v_1_3": K2,
                                     "v_1_4": -K2, "cu_1_4": 1.0}

    def test_rows_price_a_pure_start(self):
        for startup in ("one_bin", "one_bin_star"):
            model, _ = self.horizon6(startup)
            vals = {"v_1_1": 1.0, "v_1_4": 1.0}  # two off periods, restart
            bound = 0.0
            for name in row_names(model, "su1_1_4_"):
                con = row(model, name)
                tt = terms(model, con)
                cu_coeff = tt.pop("cu_1_4")
                assert cu_coeff == 1.0
                bound = max(bound, -sum(c * vals.get(v, 0.0)
                                        for v, c in tt.items()))
            assert bound == pytest.approx(K2)

    def test_tightened_rows_vacuous_without_a_start(self):
        model, _ = self.horizon6("one_bin_star")
        con = row(model, "su1_1_4_3")
        online = {f"v_1_{t}": 1.0 for t in range(1, 4)}
        assert satisfied(model, con, {**online, "v_1_4": 0.0})
        assert satisfied(model, con, {"v_1_4": 0.0})

    def test_recorded_outage_extends_the_lookback(self):
        """A unit that enters the horizon two periods cold can be charged
        for off-times beyond what the horizon itself can prove."""
        inst = make_instance([15.0] * 3, pre_offline=2)
        model, _ = build_model(inst, FormulationChoice("basic", "one_bin"))
        assert row_names(model, "su1_") == [
            "su1_1_1_1", "su1_1_1_2",
            "su1_1_2_1", "su1_1_2_2", "su1_1_2_3",
            "su1_1_3_1", "su1_1_3_2", "su1_1_3_3", "su1_1_3_4",
        ]
        # period-1 start: no lookback periods exist, the outage alone
        # justifies the two-period cost
        con = row(model, "su1_1_1_2")
        assert terms(model, con) == {"v_1_1": -K2, "cu_1_1": 1.0}
        # period-2 row for three off periods: one in-horizon lookback term
        con = row(model, "su1_1_2_3")
        assert terms(model, con) == {"v_1_1": K3, "v_1_2": -K3,
                                     "cu_1_2": 1.0}


class TestStartTypeRows:
    """The selector module: one weighted start type per step and period."""

    def test_single_step_table_needs_no_caps(self):
        inst = make_instance([15.0, 15.0])
        model, _ = build_model(inst, FormulationChoice("extended",
                                                       "three_bin"))
        assert step_functions(inst, 0.0)["u1"].n_steps == 1
        assert row_names(model, "stype_") == []
        assert row_names(model, "ssum_") == ["ssum_1_1", "ssum_1_2"]
        assert row_names(model, "sdef_") == ["sdef_1_1", "sdef_1_2"]

    def test_selector_ties(self):
        inst = make_instance([15.0] * 3)
        model, vix = build_model(inst, FormulationChoice("extended",
                                                         "three_bin"))
        con = row(model, "ssum_1_2")
        assert terms(model, con) == {"y_1_2": -1.0, "d_1_2_1": 1.0,
                                     "d_1_2_2": 1.0}
        assert (con.sense, con.rhs) == ("=", 0.0)
        con = row(model, "sdef_1_2")
        assert terms(model, con) == {"cu_1_2": 1.0, "d_1_2_1": -K1,
                                     "d_1_2_2": -K2}

    def test_free_starts_leave_only_cu_in_the_cost_tie(self):
        """A unit whose restarts cost nothing has one zero-cost start type;
        its selector drops out of the cost tie, pinning cu to zero."""
        inst = make_instance([15.0] * 3, startup_var_cost=0.0,
                             startup_fixed_cost=0.0)
        model, _ = build_model(inst, FormulationChoice("extended",
                                                       "three_bin"))
        assert [st.value for st in step_functions(inst, 0.0)["u1"].steps] \
            == [0.0]
        assert row_names(model, "sdef_") == ["sdef_1_1", "sdef_1_2",
                                             "sdef_1_3"]
        for t in (1, 2, 3):
            con = row(model, f"sdef_1_{t}")
            assert terms(model, con) == {f"cu_1_{t}": 1.0}
            assert (con.sense, con.rhs) == ("=", 0.0)

    def test_cap_rows_with_recorded_outage(self):
        """T=3, two periods cold at entry: each non-final type is capped by
        the shutdowns that could produce it, with the recorded outage
        either covering a type (no row) or ruling it out (selector
        pinned to zero)."""
        inst = make_instance([15.0] * 3, pre_offline=2)
        model, _ = build_model(inst, FormulationChoice("extended",
                                                       "three_bin"))
        assert step_functions(inst, 0.0)["u1"].n_steps == 4
        assert row_names(model, "stype_") == [
            "stype_1_1_1", "stype_1_1_3", "stype_1_2_1", "stype_1_2_2",
            "stype_1_3_1", "stype_1_3_2", "stype_1_3_3",
        ]
        # a one-period outage cannot be seen at t=1 (the recorded one is
        # longer), so the cheap type is unavailable outright
        assert terms(model, row(model, "stype_1_1_1")) == {"d_1_1_1": 1.0}
        # two off periods at t=1 is exactly the recorded outage: no row
        # for s=2 at t=1 at all
        assert "stype_1_1_2" not in model.row_names
        # in-horizon part only: a type-2 claim at t=3 needs the period-1
        # shutdown
        assert terms(model, row(model, "stype_1_3_2")) == {"z_1_1": -1.0,
                                                           "d_1_3_2": 1.0}

    def test_no_cap_rows_reach_before_an_online_entry(self):
        inst = make_instance([15.0] * 3)  # pre_offline = 0
        model, _ = build_model(inst, FormulationChoice("extended",
                                                       "three_bin"))
        # only literal rows with t > step hi survive; period 1 has none
        assert row_names(model, "stype_1_1_") == []
        assert row_names(model, "stype_") == ["stype_1_2_1", "stype_1_3_1"]

    def test_cost_follows_the_real_shutdown(self):
        """After an observed two-period outage the selector must claim the
        two-period type, nothing cheaper."""
        inst = make_instance([0.0] * 5, p_min=0.0)
        model, _ = build_model(inst, FormulationChoice("extended",
                                                       "three_bin"))
        plan = {f"v_1_{t}": x for t, x in enumerate((1, 1, 0, 0, 1), 1)}
        sol = solve_lp(fix_variables(model, plan))
        assert sol.status == "optimal"
        assert sol.values["z_1_3"] == pytest.approx(1.0)
        assert sol.values["d_1_5_2"] == pytest.approx(1.0)
        assert sol.values["cu_1_5"] == pytest.approx(K2)


class TestTemperatureRows:
    def test_always_on_unit_never_heats(self):
        inst = make_instance([15.0] * 3)
        model, _ = build_model(inst, FormulationChoice("basic", "temp"))
        sol = solve_lp(fix_variables(model, {f"v_1_{t}": 1.0
                                             for t in range(1, 4)}))
        assert sol.status == "optimal"
        for t in range(1, 4):
            assert sol.values[f"tmp_1_{t}"] == pytest.approx(1.0)
            assert sol.values[f"cu_1_{t}"] == pytest.approx(0.0)
        assert sol.values["h_1_0"] == 0.0
        assert sol.objective == pytest.approx(3 * (5.0 + 2.0 * 15.0))

    def test_reheat_after_recorded_outage(self):
        """Starting three periods cold costs exactly the closed-form curve:
        the pre-horizon heating slot buys back the lost temperature."""
        inst = make_instance([15.0, 15.0], pre_offline=3)
        model, _ = build_model(inst, FormulationChoice("basic", "temp"))
        sol = solve_lp(fix_variables(model, {"v_1_1": 1.0, "v_1_2": 1.0}))
        assert sol.status == "optimal"
        assert sol.values["h_1_0"] == pytest.approx(1 - 0.5 ** 3)
        assert sol.values["tmp_1_1"] == pytest.approx(1.0)
        u = inst.units[0]
        assert sol.values["cu_1_1"] == pytest.approx(startup_cost(u, 3))
        assert sol.values["cu_1_2"] == pytest.approx(0.0)

    def test_heating_slot_pinned_without_outage(self):
        model, vix = build_model(make_instance([15.0, 15.0]),
                                 FormulationChoice("basic", "temp"))
        h0 = model.variable(vix.h[0][0])  # unit 1's slot at period 0
        assert h0.name == "h_1_0"
        assert (h0.lb, h0.ub) == (0.0, 0.0)

    def test_dynamics_coefficients(self):
        inst = make_instance([15.0, 15.0])
        model, _ = build_model(inst, FormulationChoice("basic", "temp"))
        decay = math.exp(-math.log(2.0))
        con = row(model, "trec_1_2")
        assert terms(model, con) == pytest.approx(
            {"tmp_1_2": 1.0, "tmp_1_1": -decay, "v_1_1": -(1 - decay),
             "h_1_1": -1.0})
        assert (con.sense, con.rhs) == ("=", 0.0)
        con = row(model, "tcost_1_1")
        assert terms(model, con) == {"cu_1_1": 1.0, "h_1_0": -100.0,
                                     "y_1_1": -10.0}

    def test_start_indicator_rows_on_the_basic_base(self):
        cold = make_instance([15.0, 15.0], pre_offline=1)
        model, _ = build_model(cold, FormulationChoice("basic", "temp"))
        assert row_names(model, "ystart_") == ["ystart_1_1", "ystart_1_2"]
        warm = make_instance([15.0, 15.0])
        model, _ = build_model(warm, FormulationChoice("basic", "temp"))
        # entering online, v_1 = 1 is not a start: no period-1 row
        assert row_names(model, "ystart_") == ["ystart_1_2"]


class TestExtendedGateRows:
    def build(self, **over):
        inst = make_instance([15.0] * 6, **over)
        return build_model(inst, FormulationChoice("extended", "one_bin"))

    def test_min_uptime_one_suppresses_sharpened_families(self):
        model, _ = self.build()  # min_up = min_down = 1
        for family in ("rampdn_start_", "rampdn_close_", "rampup_stop_",
                       "rampup_two_"):
            assert row_names(model, family) == []
        assert len(row_names(model, "rampdn_two_")) == 4  # t = 3..6

    def test_full_gate_set_row_counts(self):
        model, _ = self.build(min_up=3, min_down=2)
        assert len(row_names(model, "rampdn_start_")) == 5  # t = 2..6
        assert len(row_names(model, "rampdn_close_")) == 4  # t = 2..5
        assert len(row_names(model, "rampdn_two_")) == 4    # t = 3..6
        assert len(row_names(model, "rampup_stop_")) == 4   # t = 2..5
        assert len(row_names(model, "rampup_two_")) == 3    # t = 3..5

    def test_slow_down_ramp_disables_start_sharpening(self):
        # rd <= su - p_min invalidates the start-aware down-ramping rows
        model, _ = self.build(min_up=3, min_down=2, ramp_down=5.0)
        assert row_names(model, "rampdn_start_") == []
        assert row_names(model, "rampdn_close_") == []
        assert len(row_names(model, "rampup_stop_")) == 4

    def test_min_up_down_window_rows(self):
        inst = make_instance([15.0] * 4, min_up=2, min_down=3, pre_offline=2)
        model, _ = build_model(inst, FormulationChoice("extended", "one_bin"))
        assert row_names(model, "minup_") == ["minup_1_2", "minup_1_3",
                                              "minup_1_4"]
        con = row(model, "minup_1_3")
        assert terms(model, con) == {"y_1_2": 1.0, "y_1_3": 1.0,
                                     "v_1_3": -1.0}
        assert row_names(model, "mindown_") == ["mindown_1_3", "mindown_1_4"]
        # two of the three down periods are already served pre-horizon
        assert row_names(model, "predown_") == ["predown_1_1"]
        con = row(model, "predown_1_1")
        assert terms(model, con) == {"z_1_1": 1.0, "v_1_1": 1.0}
        assert (con.sense, con.rhs) == ("<=", 0.0)

    def test_logic_rhs_reflects_entry_state(self):
        model, _ = self.build()
        assert row(model, "logic_1_1").rhs == -1.0  # entered online
        model, _ = self.build(pre_offline=2)
        assert row(model, "logic_1_1").rhs == 0.0


class TestNetworkRows:
    def grid(self):
        units = [make_unit("g1", node="n1"), make_unit("g2", node="n2")]
        net = Network(nodes={"n1": 0.6, "n2": 0.4},
                      lines=[Line(id="l1", capacity=15.0,
                                  alpha={"n1": 0.3, "n2": -0.2})])
        return make_instance([25.0, 30.0], units=units, network=net)

    def test_two_rows_per_line_and_period(self):
        model, _ = build_model(self.grid(),
                               FormulationChoice("extended", "one_bin"))
        assert row_names(model, "flow_") == ["flow_hi_1_1", "flow_hi_1_2",
                                             "flow_lo_1_1", "flow_lo_1_2"]
        shift = 0.3 * 0.6 + (-0.2) * 0.4
        hi = row(model, "flow_hi_1_2")
        assert terms(model, hi) == {"p_1_2": 0.3, "p_2_2": -0.2}
        assert hi.sense == "<="
        assert hi.rhs == pytest.approx(15.0 + shift * 30.0)
        lo = row(model, "flow_lo_1_1")
        assert lo.sense == ">="
        assert lo.rhs == pytest.approx(-15.0 + shift * 25.0)

    def test_zero_sensitivity_units_drop_out(self):
        inst = self.grid()
        inst.network.lines[0].alpha = {"n1": 0.5}
        model, _ = build_model(inst, FormulationChoice("extended", "one_bin"))
        assert terms(model, row(model, "flow_hi_1_1")) == {"p_1_1": 0.5}

    def test_basic_base_has_no_flow_rows(self):
        model, _ = build_model(self.grid(),
                               FormulationChoice("basic", "one_bin"))
        assert row_names(model, "flow_") == []


class TestMissingStepFunction:
    """A step module derives every unit's step table from ktol before it
    touches the model, so a unit that gets none leaves the model and its
    index as they were, even when earlier units' rows could have been
    built."""

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("add", [add_startup_1bin, add_startup_3bin])
    def test_model_is_unchanged(self, base, add):
        """The second unit's pricing window is one period (T = 1, no
        recorded outage), too short for a step table."""
        inst = make_instance([15.0], units=[make_unit("u1", pre_offline=2),
                                            make_unit("u2")])
        model, vix = build_base(inst, base)
        before, vix_before = copy.deepcopy(model), copy.deepcopy(vix)
        with pytest.raises(ValueError, match="horizon must be >= 2, got 1"):
            add(model, vix, inst, 0.2)
        assert model == before
        assert vix == vix_before
        assert model._name_index() == before._name_index()


class TestStepModules:
    """A step module builds what build_model builds."""

    @pytest.mark.parametrize("ktol", [0.0, 0.2])
    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("startup, add, kwargs", [
        ("one_bin", add_startup_1bin, {"tightened": False}),
        ("one_bin_star", add_startup_1bin, {"tightened": True}),
        ("three_bin", add_startup_3bin, {}),
    ], ids=["one_bin", "one_bin_star", "three_bin"])
    def test_module_on_a_base_is_build_model(self, startup, add, kwargs,
                                             base, ktol):
        inst = make_instance(
            [15.0, 35.0, 20.0, 12.0, 30.0],
            units=[make_unit("u1", pre_offline=2),
                   make_unit("u2", p_min=5.0, p_max=30.0, heat_loss=0.3,
                             pre_offline=1)])
        model, vix = build_base(inst, base)
        add(model, vix, inst, ktol, **kwargs)
        built, built_vix = build_model(inst,
                                       FormulationChoice(base, startup, ktol))
        model.name = built.name
        assert model == built
        assert vix == built_vix


class TestSharedBase:
    """build_model on a base that build_base returned builds what it
    builds on its own, and leaves the base as it was, so one base serves
    every module of an instance."""

    SHAPES = {
        "2x3": lambda seed: generate_instance(seed, 2, 3),
        "3x6": lambda seed: generate_instance(seed, 3, 6),
        "2x6-net": lambda seed: generate_instance(seed, 2, 6,
                                                  with_network=True),
    }

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_equals_a_fresh_build(self, shape, base):
        for seed in range(1, 9):
            inst = self.SHAPES[shape](seed)
            shared = build_base(inst, base)
            shared_mps = write_mps(shared[0])
            shared_vix = copy.deepcopy(shared[1])
            for startup in STARTUPS:
                for ktol in (0.0, 0.05):
                    choice = FormulationChoice(base, startup, ktol)
                    model, vix = build_model(inst, choice, base=shared)
                    fresh, fresh_vix = build_model(inst, choice)
                    assert model == fresh, (seed, startup, ktol)
                    assert vix == fresh_vix
                    assert write_mps(model) == write_mps(fresh)
            assert write_mps(shared[0]) == shared_mps
            assert shared[1] == shared_vix

    def test_a_base_of_another_kind_is_refused(self):
        inst = generate_instance(1, 2, 3)
        with pytest.raises(ValueError, match="not built for instance"):
            build_model(inst, FormulationChoice("extended", "temp"),
                        base=build_base(inst, "basic"))


class TestModelNaming:
    def test_name_sanitized(self):
        inst = make_instance([15.0, 15.0], name="week 1/jan")
        model, _ = build_model(inst, FormulationChoice("basic", "one_bin"))
        assert model.name == "week_1_jan_basic_one_bin"

    def test_leading_digit_gets_prefix(self):
        inst = make_instance([15.0, 15.0], name="42grid")
        model, _ = build_model(inst, FormulationChoice("basic", "temp"))
        assert model.name == "m_42grid_basic_temp"

    def test_one_period_horizon_needs_a_recorded_outage(self):
        """A single-period horizon has no in-horizon off-times; the step
        modules only build once a pre-horizon outage opens the pricing
        window."""
        with pytest.raises(ValueError, match="horizon"):
            build_model(make_instance([15.0]),
                        FormulationChoice("basic", "one_bin"))
        model, _ = build_model(make_instance([15.0], pre_offline=2),
                               FormulationChoice("basic", "one_bin"))
        assert model.n_variables == 3


def expected_commitment_cost(unit, bits):
    """Fixed on-costs plus the closed-form cost of every start, for a
    schedule with free (zero) production."""
    sched = Schedule(on_off=[list(bits)])
    total = unit.cost_fixed_on * sum(bits)
    for _, off in offline_runs(sched, 0, unit.pre_offline):
        total += startup_cost(unit, off)
    return total


class TestStartupPricingInvariant:
    """Minimized start-up cost must equal the closed-form curve on every
    commitment pattern, for every module, at step tolerance zero.

    The unit enters the horizon after a recorded two-period outage, so
    off-times both inside the horizon and reaching before it are priced.
    Production is decoupled (zero load, zero p_min) to isolate the
    start-up machinery.
    """

    @pytest.mark.parametrize("startup", ["one_bin", "one_bin_star", "temp"])
    def test_basic_base_prices_all_sixteen_patterns(self, startup):
        inst = make_instance([0.0] * 4, p_min=0.0, pre_offline=2)
        u = inst.units[0]
        model, _ = build_model(inst, FormulationChoice("basic", startup))
        for bits in itertools.product((0, 1), repeat=4):
            plan = {f"v_1_{t}": float(x) for t, x in enumerate(bits, 1)}
            sol = solve_lp(fix_variables(model, plan))
            assert sol.status == "optimal", (bits, sol.message)
            expected = expected_commitment_cost(u, bits)
            assert sol.objective == pytest.approx(expected, abs=1e-7), bits

    @pytest.mark.parametrize("startup", ["one_bin", "one_bin_star",
                                         "three_bin", "temp"])
    def test_extended_base_prices_the_feasible_set(self, startup):
        """The sharpened ramping rows are valid inequalities only for
        units that start and stop at minimum power with long enough
        up/down times; inside that regime the model must accept exactly
        the commitment-rule-feasible patterns and price each one
        exactly."""
        inst = make_instance([0.0] * 4, p_min=0.0, startup_ramp=0.0,
                             shutdown_ramp=0.0, min_up=3, min_down=2,
                             pre_offline=2)
        u = inst.units[0]
        feasible = {tuple(s.on_off[0])
                    for s in enumerate_schedules(inst, "extended")}
        assert (0, 0, 1, 1) in feasible and (0, 1, 1, 0) not in feasible
        model, _ = build_model(inst, FormulationChoice("extended", startup))
        for bits in itertools.product((0, 1), repeat=4):
            plan = {f"v_1_{t}": float(x) for t, x in enumerate(bits, 1)}
            sol = solve_lp(fix_variables(model, plan))
            if bits not in feasible:
                assert sol.status == "infeasible", bits
                continue
            assert sol.status == "optimal", (bits, sol.message)
            expected = expected_commitment_cost(u, bits)
            assert sol.objective == pytest.approx(expected, abs=1e-7), bits
