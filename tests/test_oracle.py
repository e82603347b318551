"""Enumeration-oracle tests: schedule filters, dispatch costing, exact
start-up accounting, and the cross-formulation certification report.

The oracle is the independent yardstick the acceptance suite measures the
MILP formulations against, so these tests pin its behavior on instances
small enough to check by hand.
"""

import dataclasses
import itertools
import tracemalloc

import pytest

from ucbench import (
    STARTUPS,
    Schedule,
    brute_force_optimum,
    build_base,
    certify_equivalence,
    enumerate_schedules,
    exact_total_cost,
    generate_instance,
    optimal_dispatch,
    startup_cost,
)
from ucbench import oracle, solver

from conftest import make_instance, make_unit, ramped, rows


def bit_rows(schedules):
    return [tuple(s.on_off[0]) for s in schedules]


class TestEnumerateSchedules:
    def test_basic_base_enumerates_everything(self):
        inst = make_instance([15.0, 15.0])
        assert bit_rows(enumerate_schedules(inst, "basic")) == [
            (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_extended_base_applies_run_length_rules(self):
        """min_up = min_down = 2 with a two-period recorded outage: runs
        may be cut short only by the horizon end."""
        inst = make_instance([15.0] * 3, min_up=2, min_down=2, pre_offline=2)
        assert bit_rows(enumerate_schedules(inst, "extended")) == [
            (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0), (1, 1, 1)]

    def test_residual_downtime_delays_the_first_start(self):
        """One period already served of a three-period minimum downtime:
        the first two horizon periods stay off."""
        inst = make_instance([15.0] * 4, min_down=3, pre_offline=1)
        rows = bit_rows(enumerate_schedules(inst, "extended"))
        assert all(r[0] == 0 and r[1] == 0 for r in rows)
        assert (0, 0, 1, 1) in rows

    def test_enumeration_guard(self):
        inst = make_instance([15.0] * 13,
                             units=[make_unit("g1"), make_unit("g2")])
        with pytest.raises(ValueError, match="guard"):
            next(enumerate_schedules(inst, "basic"))
        first = next(enumerate_schedules(inst, "basic", guard=26))
        assert first.on_off == [[0] * 13, [0] * 13]

    def test_unknown_base_rejected(self):
        with pytest.raises(ValueError, match="unknown base"):
            next(enumerate_schedules(make_instance([15.0, 15.0]), "fancy"))

    @staticmethod
    def listed_rows(inst, base):
        """The enumeration as a product over each unit's rows, listed from
        the enumeration of a one-unit instance."""
        per_unit = [[s.on_off[0] for s in enumerate_schedules(
            dataclasses.replace(inst, units=[u]), base)] for u in inst.units]
        return [list(combo) for combo in itertools.product(*per_unit)]

    @pytest.mark.parametrize("base", ["basic", "extended"])
    @pytest.mark.parametrize("inst", [
        make_instance([15.0] * 4, units=[
            make_unit("g1", min_up=2, min_down=3, pre_offline=1),
            make_unit("g2", min_up=3, min_down=2)]),
        make_instance([15.0] * 3, units=[
            make_unit("g1"), make_unit("g2", min_up=2, min_down=2),
            make_unit("g3", min_down=3, pre_offline=2)]),
        generate_instance(5, 2, 5),
    ], ids=["2x4", "3x3", "seeded-2x5"])
    def test_order_equals_the_product_over_a_row_list(self, inst, base):
        got = [s.on_off for s in enumerate_schedules(inst, base, guard=10)]
        assert got == self.listed_rows(inst, base)

    @pytest.mark.parametrize("base", ["basic", "extended"])
    def test_one_units_rows_are_not_materialized(self, base):
        # 2^18 rows as tuples take about 51 MB; with min_up = min_down = 1
        # the extended base admits every one of them, and the enumeration
        # needs the current matrix only
        inst = make_instance([15.0] * 18)
        tracemalloc.start()
        try:
            first = list(itertools.islice(
                enumerate_schedules(inst, base), 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert first[0].on_off == [[0] * 18]
        assert first[-1].on_off == [[0] * 8 + [1, 1, 1, 1, 1, 0, 0, 1, 1, 1]]


class TestAdmissionMatchesTheBuilders:
    """The extended base's commitment rows, one unit at a time: a row is
    enumerated exactly when its lifted point, v the row and y and z its
    starts and stops from the pre-horizon state, satisfies every
    ``logic_``, ``minup_``, ``mindown_`` and ``predown_`` row that
    ``build_base`` emits. The windows' reach (from t >= min_up and t >=
    min_down, min times past the horizon included) and the pre-horizon
    rule are thus pinned to the MILP's, independently of the oracle."""

    FAMILIES = ("logic_", "minup_", "mindown_", "predown_")

    @staticmethod
    def holds(row, x):
        lhs = sum(a * x[j] for j, a in zip(row.ids, row.coeffs))
        if row.sense == "<=":
            return lhs <= row.rhs + 1e-9
        if row.sense == ">=":
            return lhs >= row.rhs - 1e-9
        return abs(lhs - row.rhs) <= 1e-9

    @pytest.mark.parametrize("T", [4, 6])
    def test_enumerated_rows_are_the_lifted_points_the_rows_admit(self, T):
        inst = generate_instance(1, 1, T)
        checked = admitted_total = 0
        for min_up, min_down, pre_offline in itertools.product(
                range(1, 9), range(1, 9), (0, 1, 2, 3, 5, 9)):
            one = dataclasses.replace(inst, units=[dataclasses.replace(
                inst.units[0], min_up=min_up, min_down=min_down,
                pre_offline=pre_offline)])
            admitted = {tuple(s.on_off[0])
                        for s in enumerate_schedules(one, "extended")}
            model, vix = build_base(one, "extended")
            commit = [r for r in rows(model)
                      if r.name.startswith(self.FAMILIES)]
            assert sum(r.name.startswith("logic_") for r in commit) == T
            v, y, z = vix.v[0], vix.y[0], vix.z[0]
            for on in itertools.product((0, 1), repeat=T):
                x, prev = {}, 0 if pre_offline > 0 else 1
                for t, b in enumerate(on, 1):
                    x[v[t]], x[y[t]], x[z[t]] = b, int(b > prev), int(b < prev)
                    prev = b
                feasible = all(self.holds(r, x) for r in commit)
                assert (on in admitted) == feasible, \
                    (min_up, min_down, pre_offline, on)
                checked += 1
            admitted_total += len(admitted)
        assert checked == 384 * 2 ** T
        assert 0 < admitted_total < checked


class TestOptimalDispatch:
    def test_single_unit_follows_the_load(self):
        inst = make_instance([12.0, 17.0])
        p, cost = optimal_dispatch(inst, Schedule([[1, 1]]))
        assert p == [[12.0, 17.0]]
        assert cost == pytest.approx(2 * 5.0 + 2.0 * (12 + 17))

    def test_unserved_demand_raises(self):
        inst = make_instance([5.0, 5.0])
        with pytest.raises(ValueError, match="infeasible schedule"):
            optimal_dispatch(inst, Schedule([[0, 0]]))

    def test_merit_order_with_minimum_power_floors(self):
        units = [make_unit("cheap", cost_variable=1.0),
                 make_unit("dear", cost_variable=3.0)]
        inst = make_instance([25.0], units=units)
        p, cost = optimal_dispatch(inst, Schedule([[1], [1]]))
        # the cheap unit absorbs everything above the floors
        assert p == [[15.0], [10.0]]
        assert cost == pytest.approx(2 * 5.0 + 15.0 + 30.0)

    def test_ramps_bind_across_periods(self):
        inst = make_instance([10.0, 13.0, 16.0], ramp_up=3.0, ramp_down=3.0)
        p, cost = optimal_dispatch(inst, Schedule([[1, 1, 1]]))
        assert p == [[10.0, 13.0, 16.0]]
        assert cost == pytest.approx(3 * 5.0 + 2.0 * 39)
        steep = make_instance([10.0, 18.0], ramp_up=3.0, ramp_down=3.0)
        with pytest.raises(ValueError, match="infeasible schedule"):
            optimal_dispatch(steep, Schedule([[1, 1]]))

    def test_start_period_reaches_a_startup_ramp_above_ramp_up(self):
        """The pair of periods 1-2 is not online in both, so ramp_up does
        not apply to it: the start period's cap is the startup ramp."""
        inst = make_instance([0.0, 18.0, 19.0], ramp_up=2.0, ramp_down=2.0,
                             startup_ramp=18.0)
        p, _ = optimal_dispatch(inst, Schedule([[0, 1, 1]]))
        assert p == [[0.0, 18.0, 19.0]]
        over = make_instance([0.0, 18.5, 19.0], ramp_up=2.0, ramp_down=2.0,
                             startup_ramp=18.0)
        with pytest.raises(ValueError, match="infeasible schedule"):
            optimal_dispatch(over, Schedule([[0, 1, 1]]))

    @pytest.mark.parametrize("pre_offline", [0, 2])
    def test_a_stop_in_period_two_caps_period_one(self, pre_offline):
        """A unit online in period 1 alone stops in period 2, so period 1
        is capped at the shutdown ramp; the startup ramp does not cap it,
        whether the unit was online before the horizon or starts at its
        boundary."""
        def inst(load):
            return make_instance(load, startup_ramp=10.0, shutdown_ramp=18.0,
                                 pre_offline=pre_offline)
        p, _ = optimal_dispatch(inst([18.0, 0.0]), Schedule([[1, 0]]))
        assert p == [[18.0, 0.0]]
        with pytest.raises(ValueError, match="infeasible schedule"):
            optimal_dispatch(inst([18.5, 0.0]), Schedule([[1, 0]]))

    def test_last_period_reaches_a_shutdown_ramp_above_ramp_down(self):
        """Likewise ramp_down does not apply to the pair of periods 2-3:
        the last online period's cap is the shutdown ramp."""
        inst = make_instance([19.0, 18.0, 0.0], ramp_up=2.0, ramp_down=2.0,
                             shutdown_ramp=18.0)
        p, _ = optimal_dispatch(inst, Schedule([[1, 1, 0]]))
        assert p == [[19.0, 18.0, 0.0]]
        over = make_instance([19.0, 18.5, 0.0], ramp_up=2.0, ramp_down=2.0,
                             shutdown_ramp=18.0)
        with pytest.raises(ValueError, match="infeasible schedule"):
            optimal_dispatch(over, Schedule([[1, 1, 0]]))

    def test_dimension_mismatch_rejected(self):
        inst = make_instance([15.0, 15.0])
        with pytest.raises(ValueError, match="dimensions"):
            optimal_dispatch(inst, Schedule([[1, 1, 1]]))

    def test_line_limits_bind_only_on_the_extended_base(self):
        from ucbench import Line, Network
        units = [make_unit("g1", cost_variable=1.0, node="n1"),
                 make_unit("g2", cost_variable=3.0, node="n2")]
        net = Network(nodes={"n1": 0.5, "n2": 0.5},
                      lines=[Line(id="l1", capacity=3.0,
                                  alpha={"n1": 1.0})])
        inst = make_instance([30.0], units=units, network=net)
        both = Schedule([[1], [1]])
        p, cost = optimal_dispatch(inst, both, base="basic")
        assert p == [[20.0], [10.0]]          # network ignored
        assert cost == pytest.approx(60.0)
        p, cost = optimal_dispatch(inst, both, base="extended")
        assert p == [[18.0], [12.0]]          # flow of n1 capped at 3
        assert cost == pytest.approx(64.0)


class TestExactTotalCost:
    def test_interior_restart(self):
        inst = make_instance([15.0, 0.0, 15.0])
        u = inst.units[0]
        bd = exact_total_cost(inst, Schedule([[1, 0, 1]]))
        assert bd.production == pytest.approx(2 * 5.0 + 2.0 * 30)
        assert bd.startup_fixed == pytest.approx(10.0)
        assert bd.startup_variable == pytest.approx(startup_cost(u, 1) - 10)
        assert bd.total == pytest.approx(bd.production + startup_cost(u, 1))

    def test_recorded_outage_charged_at_entry(self):
        inst = make_instance([15.0, 15.0], pre_offline=2)
        u = inst.units[0]
        bd = exact_total_cost(inst, Schedule([[1, 1]]))
        assert bd.startup_variable + bd.startup_fixed == pytest.approx(
            startup_cost(u, 2))

    def test_no_starts_no_startup_cost(self):
        inst = make_instance([15.0, 15.0])
        bd = exact_total_cost(inst, Schedule([[1, 1]]))
        assert bd.startup_variable == 0.0
        assert bd.startup_fixed == 0.0
        assert bd.total == bd.production


class TestBruteForce:
    def test_unique_schedule_instance(self):
        """Period-1 load of zero with a positive p_min forces the unit off,
        then the restart pays for the combined outage."""
        inst = make_instance([0.0, 10.0], pre_offline=1)
        res = brute_force_optimum(inst)
        assert res.schedule.on_off == [[0, 1]]
        assert res.n_feasible == 1
        assert res.breakdown.total == pytest.approx(110.0)
        assert res.dispatch == [[0.0, 10.0]]

    def test_zero_load_ties_go_lexicographically_first(self):
        inst = make_instance([0.0, 0.0], p_min=0.0, cost_fixed_on=0.0)
        res = brute_force_optimum(inst)
        assert res.schedule.on_off == [[0, 0]]
        assert res.breakdown.total == 0.0
        assert res.n_feasible == 4

    def test_unreachable_demand_raises(self):
        inst = make_instance([100.0, 100.0])
        with pytest.raises(ValueError, match="feasible"):
            brute_force_optimum(inst)

    def test_guard_trips(self):
        inst = make_instance([15.0] * 13,
                             units=[make_unit("g1"), make_unit("g2")])
        with pytest.raises(ValueError, match="guard"):
            brute_force_optimum(inst)

    def test_priced_rows_stream(self, monkeypatch):
        """One unit over 16 periods whose ramps bind: each of its 2^16
        rows is priced for the dispatch LP as the enumeration reaches it,
        and none is kept. Every LP is infeasible, and the search is cut
        after 2048 of them; a table of the rows, whether made up front or
        as they come, would hold over 2 MB by then."""
        inst = make_instance([15.0] * 16, units=[
            make_unit("g1", ramp_up=5.0, ramp_down=5.0)])
        lps = itertools.count(1)

        class Cut(Exception):
            pass

        def infeasible(model):
            if next(lps) > 2048:
                raise Cut
            return solver.Solution("infeasible")

        monkeypatch.setattr(oracle, "solve_lp", infeasible)
        tracemalloc.start()
        try:
            with pytest.raises(Cut):
                brute_force_optimum(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18

    def test_greedy_and_lp_dispatch_paths_agree(self):
        """Units that can sweep their whole range take a closed-form
        merit-order fill; capping the ramps below that threshold reroutes
        costing through the dispatch LP and must not change the answer."""
        units = [make_unit("g1", cost_variable=1.0),
                 make_unit("g2", cost_variable=3.0)]
        load = [22.0, 24.0, 26.0]
        fast = brute_force_optimum(make_instance(load, units=units))
        slow_units = [make_unit("g1", cost_variable=1.0, ramp_up=9.9,
                                ramp_down=9.9),
                      make_unit("g2", cost_variable=3.0, ramp_up=9.9,
                                ramp_down=9.9)]
        slow = brute_force_optimum(make_instance(load, units=slow_units))
        assert fast.schedule.on_off == slow.schedule.on_off
        assert fast.n_feasible == slow.n_feasible
        assert fast.breakdown.total == pytest.approx(slow.breakdown.total)
        for frow, srow in zip(fast.dispatch, slow.dispatch):
            assert frow == pytest.approx(srow)


class TestCertifyEquivalence:
    def test_four_formulations_meet_the_oracle(self):
        """All four modules at step tolerance zero price the forced
        restart identically, recorded outage included."""
        inst = make_instance([0.0, 10.0], pre_offline=1)
        report = certify_equivalence(inst)
        assert report["conclusive"] is True
        assert report["oracle"]["objective"] == pytest.approx(110.0)
        for entry in report["formulations"].values():
            assert entry["status"] == "optimal"
            assert entry["objective"] == pytest.approx(110.0)
        assert report["max_rel_deviation"] < 1e-6

    def test_zero_cost_optimum_uses_absolute_scale(self):
        inst = make_instance([0.0, 0.0])
        report = certify_equivalence(inst)
        assert report["conclusive"] is True
        assert report["oracle"]["objective"] == 0.0
        assert report["max_rel_deviation"] == pytest.approx(0.0)

    def test_seeded_instances_certify(self):
        report = certify_equivalence(generate_instance(3, 2, 6))
        assert report["conclusive"] is True
        assert report["max_rel_deviation"] < 1e-6
        netted = generate_instance(41, 2, 6, with_network=True)
        report = certify_equivalence(netted, base="extended")
        assert report["conclusive"] is True
        assert report["max_rel_deviation"] < 1e-6

    def test_a_network_draw_with_no_extended_schedule(self):
        # generate_instance does not check that a network draw fits some
        # schedule on both bases: this one has none on the extended base,
        # where all four MILPs prove it, and an optimum on the basic one
        inst = generate_instance(1, 2, 6, with_network=True)
        report = certify_equivalence(inst, base="extended")
        assert report["conclusive"] is True
        assert report["oracle"]["error"].startswith("no feasible schedule")
        assert {entry["status"] for entry
                in report["formulations"].values()} == {"infeasible"}
        report = certify_equivalence(inst, base="basic")
        assert report["conclusive"] is True
        assert {entry["status"] for entry
                in report["formulations"].values()} == {"optimal"}
        assert report["max_rel_deviation"] < 1e-9

    def test_guard_failure_is_reported_not_raised(self):
        inst = make_instance([15.0, 15.0])
        report = certify_equivalence(inst, guard=1)
        assert report["conclusive"] is False
        assert "error" in report["oracle"]
        assert report["max_rel_deviation"] is None
        # the formulation solves themselves still ran
        for entry in report["formulations"].values():
            assert entry["status"] == "optimal"

    @pytest.mark.parametrize("seed", [102, 105])
    def test_agreed_infeasibility_is_conclusive(self, seed):
        # ramps of 0.6 of the output range leave no schedule that meets
        # the load, and all four MILPs prove it
        report = certify_equivalence(ramped(generate_instance(seed, 2, 4),
                                            0.6))
        assert report["oracle"]["error"].startswith("no feasible schedule")
        assert {entry["status"] for entry
                in report["formulations"].values()} == {"infeasible"}
        assert report["conclusive"] is True
        assert report["max_rel_deviation"] is None

    def test_infeasibility_behind_a_tripped_guard_is_inconclusive(self):
        report = certify_equivalence(ramped(generate_instance(102, 2, 4),
                                            0.6), guard=7)
        assert report["oracle"]["error"].startswith("enumeration guard")
        assert {entry["status"] for entry
                in report["formulations"].values()} == {"infeasible"}
        assert report["conclusive"] is False

    def test_infeasibility_one_module_does_not_prove_is_inconclusive(
            self, monkeypatch):
        # the last module's MIP runs out of time
        solve, calls = oracle.solve_mip, []

        def short_on_temp(model, config, start=None):
            calls.append(model)
            if len(calls) == STARTUPS.index("temp") + 1:
                return solver.Solution(status="time_limit")
            return solve(model, config, start)

        monkeypatch.setattr(oracle, "solve_mip", short_on_temp)
        report = certify_equivalence(ramped(generate_instance(102, 2, 4),
                                            0.6))
        assert report["formulations"]["temp"]["status"] == "time_limit"
        assert report["conclusive"] is False

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 20: the extended base's ramp rows cut off short runs "
        "and let a unit start and stop in one period"))
    @pytest.mark.parametrize("seed, horizon, ramp", [
        (26, 4, None),  # all four modules 3539.71, the oracle 3054.29
        (26, 6, None),  # 6664.24 against 6203.83
        (49, 6, None),  # 1051.58 against 942.46
        (7003, 4, 0.3),  # one_bin 10063.90, below the oracle's 10076.46
    ])
    def test_extended_base_meets_the_enumeration(self, seed, horizon, ramp):
        inst = generate_instance(seed, 2, horizon)
        if ramp is not None:
            inst = ramped(inst, ramp)
        report = certify_equivalence(inst, base="extended")
        assert report["conclusive"] is True
        assert report["max_rel_deviation"] <= 1e-9


def record_solves(monkeypatch):
    """Route the oracle's dispatch LPs through a recorder; returns the
    list of (model, solution) pairs it fills."""
    calls = []

    def spy(model):
        sol = solver.solve_lp(model)
        calls.append((model, sol))
        return sol
    monkeypatch.setattr(oracle, "solve_lp", spy)
    return calls


def by_row_check(sol):
    """Whether solve_lp's row check, not the simplex, rejected the LP."""
    return "cannot be met" in sol.message


def margin(load):
    """The row check's margin on a dispatch model whose largest
    right-hand side is ``load``, less its tiny rounding term."""
    return 2 * solver.RESID_TOL * (1.0 + load)


class TestDispatchRowCheck:
    """Most schedules cannot meet some period's load; solve_lp's row
    check rejects their dispatch LPs without a simplex run. It may reject
    only LPs the simplex rejects too, so the oracle's results must not
    change."""

    CASES = [
        # binding ramps, both bases
        (ramped(generate_instance(4, 2, 4), 0.6), "basic"),
        (ramped(generate_instance(4, 2, 4), 0.6), "extended"),
        # binding ramps and line limits
        (ramped(generate_instance(5, 2, 4, with_network=True), 0.4),
         "extended"),
        # a unit entering the horizon offline, with residual downtime
        (ramped(generate_instance(9, 2, 4), 0.5, pre_offline=1, min_down=2),
         "extended"),
        (ramped(generate_instance(5, 2, 4), 0.5, pre_offline=2), "basic"),
    ]

    @pytest.mark.parametrize("inst, base", CASES)
    def test_every_rejected_schedule_is_one_the_simplex_rejects(
            self, monkeypatch, inst, base):
        calls = record_solves(monkeypatch)
        rejected = []
        for sched in enumerate_schedules(inst, base):
            try:
                optimal_dispatch(inst, sched, base)
            except ValueError:
                pass
            if by_row_check(calls[-1][1]):
                rejected.append(sched)
        assert rejected
        monkeypatch.setattr(solver, "_unreachable_row", lambda model: None)
        for sched in rejected:
            with pytest.raises(ValueError, match="infeasible schedule"):
                optimal_dispatch(inst, sched, base)
            assert not by_row_check(calls[-1][1])

    @pytest.mark.parametrize("inst, base", CASES)
    def test_optimum_is_the_one_found_without_the_check(self, monkeypatch,
                                                        inst, base):
        checked = brute_force_optimum(inst, base)
        monkeypatch.setattr(solver, "_unreachable_row", lambda model: None)
        assert brute_force_optimum(inst, base) == checked

    # brute_force_optimum on CASES, as each schedule's own dispatch LP
    # found it: (schedule, n_feasible, dispatch, total)
    PINNED = [
        ([[0, 0, 0, 0], [1, 1, 1, 1]], 8,
         [[0.0, 0.0, 0.0, 0.0],
          [389.02831310820767, 370.0627849866886, 351.3325624072384,
           250.22750790499072]], 4633.740961373364),
        ([[0, 0, 0, 0], [1, 1, 1, 1]], 8,
         [[0.0, 0.0, 0.0, 0.0],
          [389.02831310820767, 370.0627849866886, 351.3325624072384,
           250.22750790499072]], 4633.740961373364),
        ([[1, 1, 1, 1], [0, 0, 0, 1]], 1,
         [[339.08995720661517, 436.8550711573094, 395.74179518742903,
           448.98728485371015],
          [0.0, 0.0, 0.0, 81.89966683087681]], 5704.608603531805),
        ([[0, 1, 1, 1], [1, 1, 1, 1]], 1,
         [[0.0, 201.8179346820784, 239.31411555457566, 332.2448842054497],
          [661.8562032592724, 675.2491752597131, 741.7826236044513,
           741.7826236044513]], 4897.0950323701545),
        ([[1, 1, 1, 1], [0, 0, 0, 0]], 4,
         [[339.08995720661517, 436.8550711573094, 395.74179518742903,
           530.886951684587],
          [0.0, 0.0, 0.0, 0.0]], 5766.873440133316),
    ]

    @pytest.mark.parametrize("case, pinned", zip(CASES, PINNED))
    def test_optimum_is_pinned(self, case, pinned):
        """One dispatch model per instance, re-bounded per schedule,
        finds what a model built per schedule found."""
        inst, base = case
        schedule, n_feasible, dispatch, total = pinned
        result = brute_force_optimum(inst, base)
        assert result.schedule.on_off == schedule
        assert result.n_feasible == n_feasible
        assert result.dispatch == dispatch
        assert result.breakdown.total == pytest.approx(total, rel=1e-12)

    def test_n_feasible_pinned_on_a_ramp_instance(self, monkeypatch):
        """Seeded 2x4 with ramps at 0.6 of the range: each of the 256
        schedules gets one dispatch LP, 8 can be dispatched, and only 10
        LPs reach the simplex."""
        inst = ramped(generate_instance(4, 2, 4), 0.6)
        calls = record_solves(monkeypatch)
        assert brute_force_optimum(inst).n_feasible == 8
        assert len(calls) == 256
        assert sum(not by_row_check(sol) for _, sol in calls) == 10

    # two units of 10-20 whose ramps of 5 bind, so the dispatch LP runs
    PAIR = [make_unit("g1", ramp_up=5.0, ramp_down=5.0),
            make_unit("g2", ramp_up=5.0, ramp_down=5.0)]
    ALL_ON = Schedule([[1, 1], [1, 1]])

    def test_load_at_capacity_passes_and_is_served(self, monkeypatch):
        inst = make_instance([40.0, 30.0], units=self.PAIR)
        calls = record_solves(monkeypatch)
        result = brute_force_optimum(inst)
        assert result.schedule == self.ALL_ON
        assert result.dispatch == [[20.0, 15.0], [20.0, 15.0]]
        assert result.n_feasible == 1
        assert [by_row_check(sol) for _, sol in calls].count(False) == 1

    def test_margin_decides_what_reaches_the_simplex(self, monkeypatch):
        """Half the margin above capacity is the simplex's to judge;
        twice the margin is rejected by the check, and the simplex
        agrees."""
        calls = record_solves(monkeypatch)
        near = make_instance([40.0 + margin(40.0) / 2, 30.0],
                             units=self.PAIR)
        try:
            optimal_dispatch(near, self.ALL_ON)
        except ValueError:
            pass  # the simplex's own tolerances decide this one
        assert not by_row_check(calls[-1][1])
        far = make_instance([40.0 + 2 * margin(40.0), 30.0],
                            units=self.PAIR)
        with pytest.raises(ValueError):
            optimal_dispatch(far, self.ALL_ON)
        assert by_row_check(calls[-1][1])
        assert "'demand_1'" in calls[-1][1].message
        assert solver.LpCore(calls[-1][0]).solve().status == "infeasible"

    def test_floor_side_is_checked_too(self, monkeypatch):
        """A load below the online units' summed minimum output cannot
        be met either: only the schedules with one unit on are served."""
        inst = make_instance([12.0], units=self.PAIR)
        calls = record_solves(monkeypatch)
        assert brute_force_optimum(inst).n_feasible == 2
        assert [by_row_check(sol) for _, sol in calls] \
            == [True, False, False, True]  # off-off, then on-on
