import logging
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucbench import (BASES, STARTUPS, Model, SolveConfig, solve_external,
                     solve_lp, solve_mip, build_model, FormulationChoice,
                     generate_instance)
from ucbench import solver
from ucbench.solver import SolutionParseError, parse_solution_file

from conftest import make_instance, make_unit

INF = float("inf")


class TestSolveLp:
    def test_single_bounded_variable(self):
        m = Model("one")
        x = m.add_variable("x", 0.0, 10.0)
        m.add_constraint("floor", {x: 1.0}, ">=", 3.0)
        m.set_objective({x: 1.0})
        res = solve_lp(m)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0)
        assert res.values["x"] == pytest.approx(3.0)

    def test_fixed_on_dispatch_costs_follow_the_load(self):
        # one always-on unit, two periods: cost is B*(L1+L2) plus the
        # per-period fixed cost carried by a pinned indicator column
        m = Model("dispatch")
        c = m.add_variable("on", 1.0, 1.0)
        p1 = m.add_variable("p_1_1", 10.0, 20.0)
        p2 = m.add_variable("p_1_2", 10.0, 20.0)
        m.add_constraint("demand_1", {p1: 1.0}, "=", 12.0)
        m.add_constraint("demand_2", {p2: 1.0}, "=", 15.0)
        m.set_objective({c: 2 * 5.0, p1: 2.0, p2: 2.0})
        res = solve_lp(m)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2 * 5.0 + 2.0 * (12 + 15))

    def test_demand_above_capacity_is_infeasible(self):
        m = Model("over")
        p = m.add_variable("p", 0.0, 20.0)
        m.add_constraint("demand_1", {p: 1.0}, "=", 25.0)
        m.set_objective({p: 1.0})
        assert solve_lp(m).status == "infeasible"

    def test_unbounded_direction_detected(self):
        # no rows: the pure box shortcut
        m = Model("down")
        x = m.add_variable("x", 0.0, INF)
        m.set_objective({x: -1.0})
        assert solve_lp(m).status == "unbounded"
        # a row: the primal simplex finds the ray x = y -> inf
        m = Model("ray")
        x = m.add_variable("x", 0.0, INF)
        y = m.add_variable("y", 0.0, INF)
        m.add_constraint("tie", {x: 1.0, y: -1.0}, "=", 0.0)
        m.set_objective({x: -1.0})
        res = solve_lp(m)
        assert (res.status, res.best_bound) == ("unbounded", -INF)
        # a binary: branch-and-bound reports the unbounded root
        m = Model("ray_mip")
        x = m.add_variable("x", 0.0, INF)
        b = m.add_variable("b", 0, 1, "binary")
        m.add_constraint("cover", {x: 1.0, b: -1.0}, ">=", 0.0)
        m.set_objective({x: -1.0, b: 1.0})
        res = solve_mip(m)
        assert (res.status, res.best_bound) == ("unbounded", -INF)

    def test_degenerate_ties_are_deterministic(self):
        def run():
            m = Model("tie")
            xs = [m.add_variable(f"x{i}", 0.0, 1.0) for i in range(6)]
            m.add_constraint("pick", {x: 1.0 for x in xs}, ">=", 2.0)
            m.set_objective({x: 1.0 for x in xs})
            r = solve_lp(m)
            return r.objective, tuple(sorted(r.values.items()))

        assert run() == run()

    def test_lp_that_once_ended_on_a_singular_basis(self):
        # the primal from the slack basis took a 3.4e-10 pivot here and,
        # five checkpoint restores later, gave up after 567 iterations
        model, _ = build_model(generate_instance(200237, 2, 4),
                               FormulationChoice("extended", "one_bin_star",
                                                 0.0))
        res = solve_lp(model)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(4856.107098031237, rel=1e-9)

    def test_two_blas_threads(self):
        # under two BLAS threads the primal from the slack basis once ended
        # "basis became singular" after 14744 iterations on this LP
        script = textwrap.dedent("""
            from ucbench import (FormulationChoice, build_model,
                                 generate_instance, solve_lp)
            model, _ = build_model(generate_instance(1, 3, 12),
                                   FormulationChoice("extended", "one_bin",
                                                     0.0))
            res = solve_lp(model)
            print(res.status, repr(res.objective))
        """)
        src = Path(solver.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "2"
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True).stdout.split()
        assert out[0] == "optimal"
        assert float(out[1]) == pytest.approx(32614.45999937468, rel=1e-9)


class TestSolveMip:
    def test_integral_root_solves_in_one_node(self):
        m = Model("root")
        x1 = m.add_variable("x1", 0, 1, "binary")
        x2 = m.add_variable("x2", 0, 1, "binary")
        m.add_constraint("need", {x1: 1.0}, ">=", 1.0)
        m.set_objective({x1: 1.0, x2: 1.0})
        res = solve_mip(m)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)
        assert res.nodes == 1

    def test_unique_schedule_instance(self):
        # load (0, 10) with p_min 10 forces (off, on); the start after
        # 1+1 offline periods prices the exponential curve at 2
        inst = make_instance([0.0, 10.0], uid="g1", pre_offline=1)
        model, _ = build_model(
            inst, FormulationChoice("basic", "one_bin", 0.0))
        res = solve_mip(model, SolveConfig(gap=0.0))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(5 + 2 * 10 + 85.0)
        assert res.values["v_1_1"] == 0.0
        assert res.values["v_1_2"] == 1.0

    def test_gap_target_stops_early_with_certified_band(self):
        # engineered tree: root LP 92 with one fractional binary, both
        # children integral at 100 -> first child sets the incumbent and
        # the sibling (bound 92) trips the 10% gap test
        def build():
            m = Model("gapper")
            c = m.add_variable("c", 1.0, 1.0)
            x = m.add_variable("x", 0, 1, "binary")
            y = m.add_variable("y", 0.0, 1.0)
            m.add_constraint("lo", {y: 1.0, x: 1.0}, ">=", 0.5)
            m.add_constraint("hi", {y: 1.0, x: -1.0}, ">=", -0.5)
            m.set_objective({c: 92.0, y: 16.0})
            return m

        res = solve_mip(build(), SolveConfig(gap=0.10))
        assert res.status == "gap_reached"
        assert res.objective == pytest.approx(100.0)
        assert res.best_bound == pytest.approx(92.0)

        proof = solve_mip(build(), SolveConfig(gap=0.0))
        assert proof.status == "optimal"
        assert proof.objective == pytest.approx(100.0)
        assert proof.best_bound == pytest.approx(100.0)

    def test_infeasible_binary_model(self):
        m = Model("conflict")
        x = m.add_variable("x", 0, 1, "binary")
        m.add_constraint("half_lo", {x: 1.0}, ">=", 0.25)
        m.add_constraint("half_hi", {x: 1.0}, "<=", 0.75)
        m.set_objective({x: 1.0})
        assert solve_mip(m).status == "infeasible"

    def test_time_limit_reports_time_limit_status(self):
        inst = make_instance([12.0] * 8, units=[
            make_unit("a"), make_unit("b", cost_variable=2.1),
            make_unit("c", cost_variable=1.9)])
        model, _ = build_model(
            inst, FormulationChoice("basic", "one_bin", 0.0))
        res = solve_mip(model, SolveConfig(gap=0.0, time_limit=1e-9))
        assert res.status == "time_limit"

    def test_deterministic_node_counts(self):
        inst = make_instance([12.0, 35.0, 20.0, 11.0],
                             units=[make_unit("a"),
                                    make_unit("b", p_max=30.0,
                                              cost_variable=2.3)])
        model, _ = build_model(
            inst, FormulationChoice("basic", "one_bin", 0.0))
        r1 = solve_mip(model, SolveConfig(gap=0.0))
        r2 = solve_mip(model, SolveConfig(gap=0.0))
        assert r1.status == r2.status == "optimal"
        assert r1.objective == r2.objective
        assert r1.nodes == r2.nodes
        assert r1.values == r2.values
        assert r1.iterations > 0
        assert r1.iterations == r2.iterations

    def test_root_bound_is_the_lp_relaxation(self):
        inst = make_instance([12.0, 35.0, 20.0, 11.0],
                             units=[make_unit("a"),
                                    make_unit("b", p_max=30.0,
                                              cost_variable=2.3)])
        model, _ = build_model(
            inst, FormulationChoice("basic", "one_bin", 0.0))
        lp = solve_lp(model)
        for cfg in (SolveConfig(gap=0.0), SolveConfig(time_limit=1e-9)):
            res = solve_mip(model, cfg)
            assert res.nodes >= 1  # the root is solved whatever the budget
            assert res.root_bound == lp.objective

    def test_root_bound_is_nan_for_an_infeasible_root(self):
        m = Model("inf")
        x = m.add_variable("x", 0, 1, "binary")
        m.add_constraint("c", {x: 1.0}, ">=", 2.0)
        assert math.isnan(solve_mip(m).root_bound)

    def test_one_debug_line_per_solve(self, caplog):
        inst = make_instance([12.0, 35.0, 20.0, 11.0],
                             units=[make_unit("a"),
                                    make_unit("b", p_max=30.0,
                                              cost_variable=2.3)])
        model, _ = build_model(
            inst, FormulationChoice("basic", "one_bin", 0.0))
        with caplog.at_level(logging.DEBUG, logger="ucbench.solver"):
            res = solve_mip(model, SolveConfig(gap=0.0))
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "ucbench.solver"]
        assert len(lines) == 1
        assert lines[0].startswith(f"mip: optimal after {res.nodes} nodes, "
                                   f"{res.iterations} LP iterations; ")
        counts = re.search(
            r"dual simplex finished (\d+) of (\d+) nodes, handed (\d+) to "
            r"the primal \(not dual feasible (\d+), stall (\d+), singular "
            r"(\d+), small pivot (\d+)\)", lines[0])
        done, nodes, handed, *why = map(int, counts.groups())
        assert nodes == res.nodes
        assert done + handed == res.nodes  # the root included
        assert handed == sum(why)
        assert done > 0


def pair_demand(load, sense="="):
    """Two outputs in [10, 20] serving one demand row."""
    m = Model("pair")
    p = [m.add_variable(f"p{i}", 10.0, 20.0) for i in (1, 2)]
    m.add_constraint("demand", {p[0]: 1.0, p[1]: 1.0}, sense, load)
    m.set_objective({p[0]: 1.0, p[1]: 2.0})
    return m


class TestRowCheck:
    """solve_lp reports a model infeasible without a simplex run when a
    row cannot be met within the variable bounds by more than twice the
    residual the simplex accepts; it must never reject an LP the simplex
    would solve."""

    def margin(self, load):
        return 2 * solver.RESID_TOL * (1.0 + load)

    def simplex(self, model):
        return solver.LpCore(model).solve()

    def test_load_at_capacity_passes_and_is_served(self):
        m = pair_demand(40.0)
        assert solver._unreachable_row(m) is None
        res = solve_lp(m)
        assert res.status == "optimal"
        assert res.values == {"p1": 20.0, "p2": 20.0}

    def test_half_the_margin_over_capacity_is_left_to_the_simplex(self):
        load = 40.0 + self.margin(40.0) / 2
        m = pair_demand(load)
        assert solver._unreachable_row(m) is None
        assert "cannot be met" not in solve_lp(m).message

    @pytest.mark.parametrize("load, sense", [
        (40.0, "above"), (20.0, "below"), (41.0, ">="), (19.0, "<=")])
    def test_row_beyond_the_margin_is_rejected_and_the_simplex_agrees(
            self, load, sense):
        if sense == "above":
            load += 2 * self.margin(load)
        elif sense == "below":
            load -= 2 * self.margin(load)
        m = pair_demand(load, "=" if sense in ("above", "below") else sense)
        assert solver._unreachable_row(m) == "demand"
        res = solve_lp(m)
        assert (res.status, res.iterations) == ("infeasible", 0)
        assert "'demand'" in res.message
        assert self.simplex(m).status == "infeasible"
        assert m.frozen

    @pytest.mark.parametrize("load, sense", [(19.0, ">="), (41.0, "<=")])
    def test_one_sided_rows_check_only_their_side(self, load, sense):
        assert solver._unreachable_row(pair_demand(load, sense)) is None
        assert solve_lp(pair_demand(load, sense)).status == "optimal"

    def test_empty_row_with_nonzero_rhs_is_rejected(self):
        # a period with every unit offline leaves its demand row empty
        m = Model("empty")
        m.add_variable("p", 0.0, 1.0)
        m.add_constraint("demand_1", {}, "=", 5.0)
        assert solver._unreachable_row(m) == "demand_1"

    def test_row_with_an_infinite_bound_is_left_to_the_simplex(self):
        m = Model("open")
        x = m.add_variable("x", 5.0, INF)
        m.add_constraint("cap", {x: 1.0}, "<=", 1.0)
        assert solver._unreachable_row(m) is None
        res = solve_lp(m)
        assert res.status == "infeasible"
        assert "cannot be met" not in res.message

    def test_infeasibility_no_single_row_shows_is_left_to_the_simplex(self):
        m = Model("pinch")
        x = m.add_variable("x", 0.0, 10.0)
        y = m.add_variable("y", 0.0, 10.0)
        m.add_constraint("floor", {x: 1.0, y: 1.0}, ">=", 3.0)
        m.add_constraint("ceiling", {x: 1.0, y: 1.0}, "<=", 1.0)
        assert solver._unreachable_row(m) is None
        assert solve_lp(m).status == "infeasible"


class TestVertexOracleAgreement:
    """Small random boxed LPs: the simplex optimum must match the best
    feasible vertex (an intersection of n active constraints)."""

    @staticmethod
    def best_vertex(bounds, rows, senses, rhs, cost):
        import itertools

        n = len(bounds)
        cands = []
        for j, (lo, hi) in enumerate(bounds):
            e = np.zeros(n)
            e[j] = 1.0
            cands.append((e, lo))
            cands.append((e, hi))
        for a, b in zip(rows, rhs):
            cands.append((np.asarray(a, float), b))
        best = None
        for combo in itertools.combinations(range(len(cands)), n):
            A = np.array([cands[k][0] for k in combo])
            b = np.array([cands[k][1] for k in combo])
            try:
                x = np.linalg.solve(A, b)
            except np.linalg.LinAlgError:
                continue
            ok = all(bounds[j][0] - 1e-9 <= x[j] <= bounds[j][1] + 1e-9
                     for j in range(n))
            for a, s, r in zip(rows, senses, rhs):
                v = float(np.dot(a, x))
                if s == "<=" and v > r + 1e-9:
                    ok = False
                elif s == ">=" and v < r - 1e-9:
                    ok = False
            if ok:
                val = float(np.dot(cost, x))
                if best is None or val < best:
                    best = val
        return best

    def test_forty_random_lps(self):
        rng = np.random.default_rng(20240817)
        for trial in range(40):
            n = int(rng.integers(2, 5))
            m_rows = int(rng.integers(1, 4))
            bounds = [(-float(rng.uniform(0, 5)), float(rng.uniform(0.5, 6)))
                      for _ in range(n)]
            x0 = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
            rows, senses, rhs = [], [], []
            for _ in range(m_rows):
                a = rng.normal(size=n).round(3)
                slack = float(rng.uniform(0.05, 2.0))
                if rng.random() < 0.5:
                    rows.append(a); senses.append("<=")
                    rhs.append(float(a @ x0) + slack)
                else:
                    rows.append(a); senses.append(">=")
                    rhs.append(float(a @ x0) - slack)
            cost = rng.normal(size=n).round(3)

            model = Model(f"rand_{trial}")
            for j, (lo, hi) in enumerate(bounds):
                model.add_variable(f"x{j}", lo, hi)
            for i, (a, s, r) in enumerate(zip(rows, senses, rhs)):
                model.add_constraint(f"r{i}",
                                     {j: a[j] for j in range(n)}, s, r)
            model.set_objective({j: cost[j] for j in range(n)})
            res = solve_lp(model)
            ref = self.best_vertex(bounds, rows, senses, rhs, cost)
            assert res.status == "optimal"
            assert ref is not None
            assert res.objective == pytest.approx(ref, abs=1e-6)


def child_bounds(core, j, lo_j, up_j):
    lo, up = core.struct_bounds()
    lo[j], up[j] = lo_j, up_j
    return lo, up


def primal_only(core, lo, up):
    """The primal loop alone from the slack basis, as a reference."""
    basis, vstat = solver._cold_start(core.A, lo, up)
    return solver._Simplex(core.A, core.b, core.c, lo, up, basis, vstat,
                           solver._factorize(core.A, basis)).primal()


def solve_counting_cold_starts(core, *args):
    """``core.solve(*args)`` and how many times it built the slack basis;
    a warm basis that is used builds none."""
    real, calls = solver._cold_start, []

    def counting(*a):
        calls.append(a)
        return real(*a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_cold_start", counting)
        res = core.solve(*args)
    return res, len(calls)


def assert_same_outcome(warm, cold):
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                               abs=1e-9)


class TestWarmStart:
    """Every LP runs the dual simplex first, from a warm basis when one is
    given and from the slack basis otherwise, and hands over to the primal
    loop restarted from that same basis. A child LP re-optimised from its
    parent's optimal basis must end as a cold solve and as the primal
    loop alone do: same status, objective within 1e-9 relative."""

    @pytest.mark.parametrize("seed, n, T", [(1, 2, 3), (2, 2, 4)])
    def test_both_children_of_each_fractional_binary(self, seed, n, T):
        inst = generate_instance(seed, n, T)
        ends = set()
        for base in BASES:
            for module in STARTUPS:
                model, _ = build_model(
                    inst, FormulationChoice(base, module, 0.0))
                core = solver.LpCore(model)
                root = core.solve()
                assert root.status == "optimal"
                assert root.dual_end == "done"
                xb = root.x[core.binary_ids]
                for j in core.binary_ids[np.abs(xb - np.round(xb)) > 1e-6]:
                    for val in (0.0, 1.0):
                        lo, up = child_bounds(core, j, val, val)
                        warm, warm_cold_starts = solve_counting_cold_starts(
                            core, lo, up, (root.basis, root.vstat))
                        cold, cold_cold_starts = solve_counting_cold_starts(
                            core, lo, up)
                        primal = primal_only(core, lo, up)
                        assert_same_outcome(warm, primal)
                        assert_same_outcome(cold, primal)
                        assert (warm_cold_starts, cold_cold_starts) == (0, 1)
                        assert warm.dual_end == cold.dual_end == "done"
                        ends.add(primal.status)
        assert ends == {"optimal", "infeasible"}

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(2, 5), m=st.integers(1, 4))
    def test_random_boxed_lps(self, data, n, m):
        ints = st.integers(-6, 6)
        model = Model("box")
        x0 = []  # an integer point every row admits, so the root is optimal
        for j in range(n):
            lo = data.draw(st.integers(-5, 3))
            up = lo + data.draw(st.integers(1, 6))
            model.add_variable(f"x{j}", lo, up)
            x0.append(data.draw(st.integers(lo, up)))
        for i in range(m):
            coeffs = [data.draw(ints) for _ in range(n)]
            sense = data.draw(st.sampled_from(["<=", ">=", "="]))
            slack = 0 if sense == "=" else data.draw(st.integers(0, 3))
            rhs = float(np.dot(coeffs, x0))
            model.add_constraint(f"r{i}", dict(enumerate(coeffs)), sense,
                                 rhs + (slack if sense == "<=" else -slack))
        model.set_objective({j: data.draw(ints) for j in range(n)})
        core = solver.LpCore(model)
        root = core.solve()
        assert root.status == "optimal"
        # fix, cap or floor one variable inside its old range
        j = data.draw(st.integers(0, n - 1))
        lo_j, up_j = core.lo[j], core.up[j]
        cut = lo_j + data.draw(st.integers(0, 4)) / 4 * (up_j - lo_j)
        lo_j, up_j = data.draw(st.sampled_from(
            [(cut, cut), (lo_j, cut), (cut, up_j)]))
        lo, up = child_bounds(core, j, lo_j, up_j)
        warm, cold_starts = solve_counting_cold_starts(
            core, lo, up, (root.basis, root.vstat))
        assert cold_starts == 0
        assert_same_outcome(warm, primal_only(core, lo, up))

    def test_leaving_row_by_dual_steepest_edge(self):
        # from basis (x, s_r1): x = 15 is 5 over its bound with
        # ||Binv[0]||^2 = 100, s_r1 = 1 is 1 over with ||Binv[1]||^2 = 1;
        # so row 1 leaves (score 1 against 0.25), not the larger violation
        m = Model("dse")
        x = m.add_variable("x", 0.0, 10.0)
        y = m.add_variable("y", 0.0, 10.0)
        m.add_constraint("r0", {x: 0.1, y: 1.0}, "=", 1.5)
        m.add_constraint("r1", {y: 1.0}, ">=", 1.0)
        m.set_objective({y: 1.0})
        core = solver.LpCore(m)
        basis = np.array([0, 3])
        vstat = np.array([solver._BASIC, solver._AT_LOWER, solver._AT_LOWER,
                          solver._BASIC], dtype=np.int8)
        run = solver._Simplex(core.A, core.b, core.c, core.lo, core.up,
                              basis.copy(), vstat.copy(),
                              solver._factorize(core.A, basis))
        run.max_iter = 1
        assert run.dual().message == "iteration limit exceeded"
        assert run.basis.tolist() == [0, 1]  # y replaced s_r1
        res = core.solve(warm=(basis, vstat))
        assert (res.status, res.objective, res.dual_end) == ("optimal", 1.0,
                                                             "done")

    def test_a_basis_that_is_not_dual_feasible_goes_to_the_primal(self):
        m = Model("up")
        x = m.add_variable("x", 0.0, 10.0)
        m.add_constraint("cap", {x: 1.0}, "<=", 5.0)
        m.set_objective({x: -1.0})  # x at its lower bound prices negative
        core = solver.LpCore(m)
        for warm in (None, solver._cold_start(core.A, core.lo, core.up)):
            res = core.solve(warm=warm)
            assert (res.status, res.objective) == ("optimal", -5.0)
            assert res.dual_end == "not dual feasible"

    def test_tiny_pivots_go_to_the_primal(self):
        # the only column that can repair the violated row enters with a
        # pivot of 1e-8, below DUAL_PIVOT_TOL but above the primal's
        m = Model("tiny")
        x = m.add_variable("x", 0.0, 10.0)
        m.add_constraint("floor", {x: 1e-8}, ">=", 1e-8)
        m.set_objective({x: 1.0})
        core = solver.LpCore(m)
        res = core.solve()
        assert res.dual_end == "small pivot"
        assert (res.status, res.objective) == ("optimal", 1.0)
        assert res.iterations == 1  # the primal's pivot; the dual took none

    @pytest.mark.parametrize("seed, n, T, module, optimum", [
        # a child once took a 1.4e-10 dual pivot, and the wrecked basis
        # ended the solve with "basis became singular"
        (1, 3, 4, "one_bin", 6825.224555897937),
        # the dual's pivots raised the basis condition number from 6e6 to
        # 2e12 before it gave up, and the primal failed from there
        (100061, 2, 3, "one_bin_star", 3113.413932024525),
    ])
    def test_mips_that_once_met_tiny_dual_pivots(self, seed, n, T, module,
                                                 optimum):
        inst = generate_instance(seed, n, T)
        model, _ = build_model(
            inst, FormulationChoice("extended", module, 0.0))
        res = solve_mip(model, SolveConfig(gap=0.0))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(optimum, rel=1e-9)

    def test_stalled_dual_hands_over_to_the_primal(self, monkeypatch):
        # the dual simplex solves this LP from its slack basis, but not
        # without runs of pivots that leave the dual objective where it
        # was; with the stall guard lowered to 5 such pivots it hands the
        # LP to the primal, which restarts from the slack basis
        inst = generate_instance(8, 3, 6, with_network=True)
        model, _ = build_model(
            inst, FormulationChoice("extended", "temp", 0.0))
        core = solver.LpCore(model)
        cold = core.solve()
        primal = primal_only(core, core.lo, core.up)
        assert (cold.status, cold.dual_end) == ("optimal", "done")
        assert primal.status == "optimal"
        assert cold.objective == pytest.approx(primal.objective, rel=1e-9)

        dual = solver._Simplex.dual

        def impatient_dual(run):
            run.stall_limit = 5
            return dual(run)

        monkeypatch.setattr(solver._Simplex, "dual", impatient_dual)
        res = core.solve()
        assert (res.status, res.dual_end) == ("optimal", "stall")
        # the primal ran as it runs alone; the dual's iterations still count
        assert res.objective == primal.objective
        assert np.array_equal(res.x, primal.x)
        assert res.iterations > primal.iterations + 5


class TestExternalBridge:
    def make_model(self):
        m = Model("bridge")
        m.add_variable("v_1_1", 0, 1, "binary")
        m.add_variable("p_1_1", 0.0, 500.0)
        m.add_constraint("lim", {1: 1.0, 0: -500.0}, "<=", 0.0)
        m.set_objective({0: 5.0, 1: 0.5})
        return m

    def backend(self, tmp_path, body) -> str:
        script = tmp_path / "backend.py"
        script.write_text(textwrap.dedent(body))
        return f"{sys.executable} {script} {{input}} {{output}}"

    def test_zero_writing_backend_maps_all_values(self, tmp_path):
        cmd = self.backend(tmp_path, """
            import sys
            with open(sys.argv[2], "w") as fh:
                fh.write("v_1_1 0\\np_1_1 0\\n")
        """)
        res = solve_external(self.make_model(),
                             SolveConfig(backend=cmd, time_limit=60))
        assert res.status == "optimal"
        assert res.values == {"v_1_1": 0.0, "p_1_1": 0.0}
        assert res.objective == pytest.approx(0.0)

    def test_missing_names_default_to_zero(self, tmp_path):
        cmd = self.backend(tmp_path, """
            import sys
            with open(sys.argv[2], "w") as fh:
                fh.write("v_1_1 1\\n")  # p_1_1 omitted
        """)
        res = solve_external(self.make_model(),
                             SolveConfig(backend=cmd, time_limit=60))
        assert res.status == "optimal"
        assert res.values["p_1_1"] == 0.0
        assert res.objective == pytest.approx(5.0)

    def test_malformed_solution_file_reports_error(self, tmp_path):
        cmd = self.backend(tmp_path, """
            import sys
            with open(sys.argv[2], "w") as fh:
                fh.write("v_1_1 not_a_number\\n")
        """)
        res = solve_external(self.make_model(),
                             SolveConfig(backend=cmd, time_limit=60))
        assert res.status == "error"
        assert "unparseable" in res.message

    def test_nonzero_exit_reports_error(self, tmp_path):
        cmd = self.backend(tmp_path, """
            import sys
            sys.exit(3)
        """)
        res = solve_external(self.make_model(),
                             SolveConfig(backend=cmd, time_limit=60))
        assert res.status == "error"
        assert "exited 3" in res.message

    def test_bound_violating_value_reports_error(self, tmp_path):
        cmd = self.backend(tmp_path, """
            import sys
            with open(sys.argv[2], "w") as fh:
                fh.write("v_1_1 2\\np_1_1 0\\n")
        """)
        res = solve_external(self.make_model(),
                             SolveConfig(backend=cmd, time_limit=60))
        assert res.status == "error"
        assert "violates bounds" in res.message

    def test_reference_keyword_is_not_a_template(self):
        res = solve_external(self.make_model(), SolveConfig())
        assert res.status == "error"


class TestSolutionFileParsing:
    def test_two_column_dialect(self):
        assert parse_solution_file("v_1_1 1.0\n") == {"v_1_1": 1.0}

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nv_1_1 1 extra tokens ignored\n p_1_1\t4.5\n"
        assert parse_solution_file(text) == {"v_1_1": 1.0, "p_1_1": 4.5}

    def test_xml_dialect_reads_name_value_attributes(self):
        text = ("<solution><variables>"
                "<variable name='v_1_1' value='1'/>"
                "<variable name='p_1_1' value='455.0'/>"
                "</variables></solution>")
        assert parse_solution_file(text) == {"v_1_1": 1.0, "p_1_1": 455.0}

    def test_single_token_line_rejected(self):
        with pytest.raises(SolutionParseError, match="line 1"):
            parse_solution_file("just_a_name\n")

    def test_bad_xml_rejected(self):
        with pytest.raises(SolutionParseError, match="XML"):
            parse_solution_file("<unclosed")
