import dataclasses
import itertools
import json
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

from ucbench import (BASES, STARTUPS, Model, SolveConfig, build_base,
                     root_start, solve_lp, solve_mip, build_model,
                     FormulationChoice, generate_instance)
from ucbench import solver

from conftest import make_instance, make_unit, ramped

INF = float("inf")


class TestSolveLp:
    def test_single_bounded_variable(self):
        m = Model("one")
        x = m.add_variable("x", 0.0, 10.0, cost=1.0)
        m.add_constraint("floor", {x: 1.0}, ">=", 3.0)
        res = solve_lp(m)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0)
        assert res.values["x"] == pytest.approx(3.0)

    def test_fixed_on_dispatch_costs_follow_the_load(self):
        # one always-on unit, two periods: cost is B*(L1+L2) plus the
        # per-period fixed cost carried by a pinned indicator column
        m = Model("dispatch")
        m.add_variable("on", 1.0, 1.0, cost=2 * 5.0)
        p1 = m.add_variable("p_1_1", 10.0, 20.0, cost=2.0)
        p2 = m.add_variable("p_1_2", 10.0, 20.0, cost=2.0)
        m.add_constraint("demand_1", {p1: 1.0}, "=", 12.0)
        m.add_constraint("demand_2", {p2: 1.0}, "=", 15.0)
        res = solve_lp(m)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2 * 5.0 + 2.0 * (12 + 15))

    def test_demand_above_capacity_is_infeasible(self):
        m = Model("over")
        p = m.add_variable("p", 0.0, 20.0, cost=1.0)
        m.add_constraint("demand_1", {p: 1.0}, "=", 25.0)
        assert solve_lp(m).status == "infeasible"

    def test_unbounded_direction_detected(self):
        # no rows
        m = Model("down")
        m.add_variable("x", 0.0, INF, cost=-1.0)
        assert solve_lp(m).status == "unbounded"
        # a row: the ray x = y -> inf; the dual phase one finds no dual
        # feasible basis, and a zero-cost run finds a feasible point
        m = Model("ray")
        x = m.add_variable("x", 0.0, INF, cost=-1.0)
        y = m.add_variable("y", 0.0, INF)
        m.add_constraint("tie", {x: 1.0, y: -1.0}, "=", 0.0)
        res = solve_lp(m)
        assert (res.status, res.best_bound) == ("unbounded", -INF)
        # a binary: branch-and-bound reports the unbounded root
        m = Model("ray_mip")
        x = m.add_variable("x", 0.0, INF, cost=-1.0)
        b = m.add_variable("b", 0, 1, "binary", cost=1.0)
        m.add_constraint("cover", {x: 1.0, b: -1.0}, ">=", 0.0)
        res = solve_mip(m)
        assert (res.status, res.best_bound) == ("unbounded", -INF)

    def test_degenerate_ties_are_deterministic(self):
        def run():
            m = Model("tie")
            xs = [m.add_variable(f"x{i}", 0.0, 1.0, cost=1.0)
                  for i in range(6)]
            m.add_constraint("pick", {x: 1.0 for x in xs}, ">=", 2.0)
            r = solve_lp(m)
            return r.objective, tuple(sorted(r.values.items()))

        assert run() == run()

    def test_only_an_optimal_result_carries_a_basis(self):
        # a child starts only from an optimal parent, so every other end
        # leaves basis, vstat, Binv, rc, xN and xB unset
        pinch = Model("pinch")
        x = pinch.add_variable("x", 0.0, 10.0)
        y = pinch.add_variable("y", 0.0, 10.0)
        pinch.add_constraint("floor", {x: 1.0, y: 1.0}, ">=", 3.0)
        pinch.add_constraint("ceiling", {x: 1.0, y: 1.0}, "<=", 1.0)
        ray = Model("ray")
        x = ray.add_variable("x", 0.0, INF, cost=-1.0)
        y = ray.add_variable("y", 0.0, INF)
        ray.add_constraint("tie", {x: 1.0, y: -1.0}, "=", 0.0)
        ends = {"optimal": solver.LpCore(pair_demand(30.0)).solve(),
                "infeasible": solver.LpCore(pinch).solve(),
                "unbounded": solver.LpCore(ray).solve()}
        # an end whose x breaks a bound: the basic x sits at 11 > 10
        core = solver.LpCore(pinch)
        vstat = np.array([solver._BASIC, solver._AT_LOWER, solver._BASIC,
                          solver._AT_LOWER], dtype=np.int8)
        basis = np.array([0, 2])
        ends["error"] = solver._finish(
            core.A, core.b, core.c, core.lo, core.up, basis, vstat,
            solver._factorize(core.A, basis), np.array([11.0, 0.0]), 0,
            solver._nonbasic_values(vstat, core.lo, core.up),
            np.zeros(len(vstat)), core.resid_tol)
        for status, res in ends.items():
            assert res.status == status
            fields = (res.basis, res.vstat, res.Binv, res.rc, res.xN, res.xB)
            if status == "optimal":
                assert all(f is not None for f in fields)
            else:
                assert fields == (None,) * 6

    def test_lp_that_once_ended_on_a_singular_basis(self):
        # the primal simplex this solver once ran took a 3.4e-10 pivot
        # here and, five checkpoint restores later, gave up after 567
        # iterations
        model, _ = build_model(generate_instance(200237, 2, 4),
                               FormulationChoice("extended", "one_bin_star",
                                                 0.0))
        res = solve_lp(model)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(4856.107098031237, rel=1e-9)

    def test_two_blas_threads(self):
        # under two BLAS threads the primal simplex this solver once ran
        # ended "basis became singular" after 14744 iterations on this LP
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


# status, objective repr, nodes and iterations of each tree that the
# pinned_trees fixture solves
PINNED_TREES = {
    "2x3/basic/one_bin": ["optimal", "5027.866084736637", 6, 24],
    "2x3/basic/one_bin_star": ["optimal", "5027.866084736637", 6, 24],
    "2x3/basic/three_bin": ["optimal", "5027.866084736637", 6, 30],
    "2x3/basic/temp": ["optimal", "5027.866084736637", 6, 34],
    "2x3/extended/one_bin": ["optimal", "5027.866084736637", 4, 26],
    "2x3/extended/one_bin_star": ["optimal", "5027.866084736637", 4, 26],
    "2x3/extended/three_bin": ["optimal", "5027.866084736637", 4, 28],
    "2x3/extended/temp": ["optimal", "5027.866084736637", 4, 35],
    "2x4-ramps/basic/one_bin": ["optimal", "5685.033102533476", 13, 64],
    "2x4-ramps/basic/one_bin_star": ["optimal", "5685.033102533477", 13, 65],
    "2x4-ramps/basic/three_bin": ["optimal", "5685.033102533474", 8, 63],
    "2x4-ramps/basic/temp": ["optimal", "5685.033102533476", 8, 71],
}


class TestSolveMip:
    def test_integral_root_solves_in_one_node(self):
        m = Model("root")
        x1 = m.add_variable("x1", 0, 1, "binary", cost=1.0)
        m.add_variable("x2", 0, 1, "binary", cost=1.0)
        m.add_constraint("need", {x1: 1.0}, ">=", 1.0)
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
            m.add_variable("c", 1.0, 1.0, cost=92.0)
            x = m.add_variable("x", 0, 1, "binary")
            y = m.add_variable("y", 0.0, 1.0, cost=16.0)
            m.add_constraint("lo", {y: 1.0, x: 1.0}, ">=", 0.5)
            m.add_constraint("hi", {y: 1.0, x: -1.0}, ">=", -0.5)
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
        x = m.add_variable("x", 0, 1, "binary", cost=1.0)
        m.add_constraint("half_lo", {x: 1.0}, ">=", 0.25)
        m.add_constraint("half_hi", {x: 1.0}, "<=", 0.75)
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
                 if r.name == "ucbench.solver" and r.levelno == logging.DEBUG]
        assert len(lines) == 1
        line = re.fullmatch(
            re.escape(f"mip: optimal after {res.nodes} nodes, "
                      f"{res.iterations} LP iterations (")
            + r"\d+ at the root, from the slack basis\), "
            + r"(\d+) children solved from their parent's step, (\d+) "
            + r"without one, \d+ closed by an infinite penalty; "
            + re.escape(f"root bound {res.root_bound!r}, best bound "
                        f"{res.best_bound!r}; ")
            + r"\d+\.\d{3} s", lines[0])
        # every node but the root is a child, with a step or without one
        assert line and int(line[1]) + int(line[2]) == res.nodes - 1
        assert int(line[1]) > 0

    def test_a_rounded_root_incumbent_ends_the_search(self, monkeypatch):
        # the root rounded is this model's optimum, 0.073% above the root
        # bound; both root children's bounds, the root bound plus each
        # child's penalty, reach it, so no child LP is solved and the tree
        # is exhausted: the search ends optimal after the root
        model, _ = build_model(generate_instance(1, 2, 3),
                               FormulationChoice("basic", "one_bin", 0.0))
        solves = lp_solves(monkeypatch)
        res = solve_mip(model, SolveConfig(gap=0.01))
        root, rounded = solves
        assert rounded.status == "optimal"
        assert res.status == "optimal"
        assert res.nodes == 1
        assert res.iterations == root.iterations + rounded.iterations
        assert res.objective == rounded.objective == res.best_bound
        assert res.root_bound == root.objective < res.objective
        assert (res.objective - res.root_bound) / res.objective <= 0.01
        ids = solver.LpCore(model).binary_ids
        assert all(res.values[model.var_names[j]]
                   == round(root.x[j]) for j in ids)
        proof = solve_mip(model, SolveConfig(gap=0.0))
        assert proof.objective == res.objective
        assert proof.nodes > 1

    def test_a_failed_rounding_changes_nothing(self, monkeypatch):
        # the root rounded has no feasible dispatch; the 1% search then
        # runs as the proof does, plus the rounding LP's iterations
        model, _ = build_model(generate_instance(1, 2, 4),
                               FormulationChoice("basic", "one_bin", 0.0))
        proof = solve_mip(model, SolveConfig(gap=0.0))
        solves = lp_solves(monkeypatch)
        res = solve_mip(model, SolveConfig(gap=0.01))
        rounded = solves[1]
        assert rounded.status == "infeasible"
        assert len(solves) == res.nodes + 1
        assert (res.status, res.objective, res.best_bound, res.nodes,
                res.values) == (proof.status, proof.objective,
                                proof.best_bound, proof.nodes, proof.values)
        assert res.iterations == proof.iterations + rounded.iterations

    @pytest.mark.parametrize("seed, n, T", [(1, 2, 3), (1004, 2, 3),
                                            (1, 2, 4)])
    def test_gap_zero_solves_one_lp_per_node(self, monkeypatch, seed, n, T):
        # at gap 0 no rounding LP runs: an incumbent cannot close a node
        # whose bound is below the optimum, so it would only cost an LP
        solves = lp_solves(monkeypatch)
        for base in BASES:
            for module in STARTUPS:
                model, _ = build_model(generate_instance(seed, n, T),
                                       FormulationChoice(base, module, 0.0))
                solves.clear()
                res = solve_mip(model, SolveConfig(gap=0.0))
                assert res.status == "optimal"
                assert res.nodes > 1
                assert len(solves) == res.nodes

    def test_progress_log_of_the_rounded_incumbent(self, caplog):
        # the root is solved and open in its two children, the better of
        # which is bounded by the root bound plus its penalty; the gap to
        # that bound meets the 1% target at the first node popped
        model, _ = build_model(generate_instance(2, 2, 3),
                               FormulationChoice("basic", "one_bin", 0.0))
        with caplog.at_level(logging.INFO, logger="ucbench.solver"):
            res = solve_mip(model, SolveConfig(gap=0.01))
        progress = [re.fullmatch(
            r"mip: incumbent (\S+) after (\d+) nodes; best bound (\S+), "
            r"gap (\S+)", r.getMessage())
            for r in caplog.records
            if r.name == "ucbench.solver" and r.levelno == logging.INFO]
        assert len(progress) == 1 and progress[0]
        incumbent, nodes, bound, gap = progress[0].groups()
        assert (res.status, res.nodes) == ("gap_reached", 1)
        assert (float(incumbent), int(nodes), float(bound)) \
            == (res.objective, 1, res.best_bound)
        assert res.root_bound < res.best_bound < res.objective
        assert float(bound) == pytest.approx(7831.063483747051, rel=1e-12)
        assert gap == "7.67e-05"
        assert float(gap) == pytest.approx(
            (res.objective - res.best_bound) / res.objective, rel=5e-3)

    def test_progress_log_of_an_incumbent_that_closes_the_search(self,
                                                                caplog):
        # both root children's keys lie within 1e-9 relative of the
        # rounded incumbent, so the search drops them and ends optimal; the
        # line reports the incumbent as the bound, under any BLAS kernels
        # (under OpenBLAS's SkylakeX ones, the better key is one ulp below)
        model, _ = build_model(generate_instance(1, 2, 3),
                               FormulationChoice("basic", "one_bin", 0.0))
        with caplog.at_level(logging.INFO, logger="ucbench.solver"):
            res = solve_mip(model, SolveConfig(gap=0.01))
        progress = [re.fullmatch(
            r"mip: incumbent (\S+) after (\d+) nodes; best bound (\S+), "
            r"gap (\S+)", r.getMessage())
            for r in caplog.records
            if r.name == "ucbench.solver" and r.levelno == logging.INFO]
        assert len(progress) == 1 and progress[0]
        incumbent, nodes, bound, gap = progress[0].groups()
        assert (res.status, res.nodes) == ("optimal", 1)
        assert float(incumbent) == float(bound) == res.objective
        assert gap == "0"

    @pytest.mark.parametrize("tree", PINNED_TREES)
    def test_pinned_trees(self, pinned_trees, tree):
        assert pinned_trees[tree] == PINNED_TREES[tree]

    def test_progress_log_of_each_new_incumbent(self, caplog):
        # best-first search meets an incumbent of 3922.48 at node 12, then
        # the optimum at node 15, and proves it at node 22; so it did under
        # OpenBLAS's Haswell and SkylakeX kernels both
        model, _ = build_model(generate_instance(1032, 3, 3),
                               FormulationChoice("basic", "one_bin", 0.0))
        with caplog.at_level(logging.INFO, logger="ucbench.solver"):
            res = solve_mip(model, SolveConfig(gap=0.0))
        progress = [re.fullmatch(
            r"mip: incumbent (\S+) after (\d+) nodes; best bound (\S+), "
            r"gap (\S+)", r.getMessage())
            for r in caplog.records
            if r.name == "ucbench.solver" and r.levelno == logging.INFO]
        assert len(progress) == 2 and all(progress)
        incumbents = [float(p[1]) for p in progress]
        assert incumbents == pytest.approx(
            [3922.4831586651203, 3825.2845223915037], rel=1e-12)
        assert incumbents[-1] == res.objective
        assert [int(p[2]) for p in progress] == [12, 15]
        assert res.nodes == 22
        bounds = [float(p[3]) for p in progress]
        assert bounds == pytest.approx(
            [3582.969424032975, 3614.267435353829], rel=1e-12)
        assert [p[4] for p in progress] == ["0.0866", "0.0552"]
        for incumbent, bound, p in zip(incumbents, bounds, progress):
            assert res.root_bound <= bound <= incumbent
            # the gap is printed to 3 significant digits
            assert float(p[4]) == pytest.approx(
                (incumbent - bound) / incumbent, rel=5e-3)


@pytest.fixture(scope="module")
def pinned_trees():
    """Status, objective repr, nodes and iterations of every model of one
    seeded 2x3 instance and of the basic ones of a 2x4 instance whose
    ramps (0.6 of each unit's output range) bind, gap 0; a change of any
    pivot shows as other counts or last digits. They are solved in a
    child process on one thread of OpenBLAS's Haswell kernels, which any
    x86-64 CPU with AVX2 runs. Other kernels may end these trees
    otherwise: under SkylakeX, all 12 take the same node and iteration
    counts, but one ends on another last digit."""
    script = textwrap.dedent("""
        import json
        from conftest import openblas_corename, ramped
        from ucbench import (BASES, STARTUPS, FormulationChoice, SolveConfig,
                             build_model, generate_instance, solve_mip)
        trees = {"2x3": (generate_instance(1004, 2, 3), BASES),
                 "2x4-ramps": (ramped(generate_instance(5, 2, 4), 0.6),
                               ["basic"])}
        out = {"core": openblas_corename(), "solves": {}}
        for key, (inst, bases) in trees.items():
            for base in bases:
                for module in STARTUPS:
                    model, _ = build_model(
                        inst, FormulationChoice(base, module, 0.0))
                    res = solve_mip(model, SolveConfig(gap=0.0))
                    out["solves"][f"{key}/{base}/{module}"] = [
                        res.status, repr(res.objective), res.nodes,
                        res.iterations]
        print(json.dumps(out))
    """)
    src = Path(solver.__file__).parents[1]
    tests = Path(__file__).parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    out = json.loads(subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300, check=True).stdout.splitlines()[-1])
    if out["core"] != "Haswell":
        pytest.skip(f"pinned on OpenBLAS's Haswell kernels; this numpy "
                    f"runs {out['core']}")
    return out["solves"]


def lp_solves(monkeypatch):
    """The list that every ``LpCore.solve`` result is appended to, from
    now until the test ends."""
    solves = []
    real = solver.LpCore.solve

    def recording(core, *args):
        res = real(core, *args)
        solves.append(res)
        return res

    monkeypatch.setattr(solver.LpCore, "solve", recording)
    return solves


def pair_demand(load, sense="="):
    """Two outputs in [10, 20] serving one demand row."""
    m = Model("pair")
    p = [m.add_variable(f"p{i}", 10.0, 20.0, cost=float(i)) for i in (1, 2)]
    m.add_constraint("demand", {p[0]: 1.0, p[1]: 1.0}, sense, load)
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


def best_vertex(bounds, rows, senses, rhs, cost):
    """The least cost over the vertices of {x : bounds, rows}, or None if
    none is feasible: each choice of n active constraints is solved and
    kept if it satisfies them all."""
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
            if s != ">=" and v > r + 1e-9:
                ok = False
            elif s != "<=" and v < r - 1e-9:
                ok = False
        if ok:
            val = float(np.dot(cost, x))
            if best is None or val < best:
                best = val
    return best


class TestVertexOracleAgreement:
    """Small random boxed LPs: the simplex optimum must match the best
    feasible vertex (an intersection of n active constraints)."""

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
                model.add_variable(f"x{j}", lo, hi, cost=cost[j])
            for i, (a, s, r) in enumerate(zip(rows, senses, rhs)):
                model.add_constraint(f"r{i}",
                                     {j: a[j] for j in range(n)}, s, r)
            res = solve_lp(model)
            ref = best_vertex(bounds, rows, senses, rhs, cost)
            assert res.status == "optimal"
            assert ref is not None
            assert res.objective == pytest.approx(ref, abs=1e-6)


def child_bounds(core, j, lo_j, up_j):
    lo, up = core.lo.copy(), core.up.copy()
    lo[j], up[j] = lo_j, up_j
    return lo, up


def solve_counting(name, core, *args):
    """``core.solve(*args)`` and how many times it called the solver
    function ``name``: ``_cold_start`` builds the slack basis (a child
    that starts from its parent builds none)."""
    real, calls = getattr(solver, name), []

    def counting(*a):
        calls.append(a)
        return real(*a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, name, counting)
        res = core.solve(*args)
    return res, len(calls)


def start_from(core, basis, vstat):
    """A dual simplex run on the core's own bounds from a hand-built
    basis, inverted by ``_factorize``."""
    return solver._Simplex(core.A, core.b, core.c, core.lo, core.up,
                           basis.copy(), vstat.copy(),
                           solver._factorize(core.A, basis))


def assert_same_outcome(warm, cold):
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                               abs=1e-9)


class TestWarmStart:
    """Every LP runs the dual simplex, from its parent's optimal result
    when one is given and from the slack basis otherwise. A child LP
    re-optimised from its parent must end as a cold solve does: same
    status, objective within 1e-9 relative."""

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
                xb = root.x[core.binary_ids]
                for j in core.binary_ids[np.abs(xb - np.round(xb)) > 1e-6]:
                    for val in (0.0, 1.0):
                        lo, up = child_bounds(core, j, val, val)
                        warm, warm_cold_starts = solve_counting(
                            "_cold_start", core, lo, up, root)
                        cold, cold_cold_starts = solve_counting(
                            "_cold_start", core, lo, up)
                        assert_same_outcome(warm, cold)
                        assert (warm_cold_starts, cold_cold_starts) == (0, 1)
                        ends.add(cold.status)
        assert ends == {"optimal", "infeasible"}

    @pytest.mark.parametrize("seed, n, T", [(1, 2, 3), (2, 2, 4)])
    def test_a_child_from_its_parents_inverse_is_the_refactorized_child(
            self, seed, n, T):
        # branch-and-bound hands each child its parent's result, whose Binv
        # rank-1 updates may have drifted from a refactorization; the child
        # must end as one started from _factorize's inverse of the same
        # basis does, and must not write into the array its sibling starts
        # from next
        inst = generate_instance(seed, n, T)
        for base in BASES:
            for module in STARTUPS:
                model, _ = build_model(
                    inst, FormulationChoice(base, module, 0.0))
                core = solver.LpCore(model)
                root = core.solve()
                assert root.status == "optimal"
                shared = root.Binv.tobytes()
                refactored = dataclasses.replace(
                    root, Binv=solver._factorize(core.A, root.basis))
                xb = root.x[core.binary_ids]
                for j in core.binary_ids[np.abs(xb - np.round(xb)) > 1e-6]:
                    for val in (0.0, 1.0):
                        lo, up = child_bounds(core, j, val, val)
                        inherited = core.solve(lo, up, root)
                        assert root.Binv.tobytes() == shared
                        assert_same_outcome(
                            inherited, core.solve(lo, up, refactored))

    @pytest.mark.parametrize("seed, n, T", [(1, 2, 3), (2, 2, 4)])
    def test_every_optimal_inverse_meets_the_residual_bound(self, seed, n, T):
        # an optimal end hands its children the inverse its verdict rested
        # on: a refactorization's, or an updated one that _verified took;
        # here each is within the check's residual bound
        inst = generate_instance(seed, n, T)
        solves = 0
        for base in BASES:
            for module in STARTUPS:
                model, _ = build_model(
                    inst, FormulationChoice(base, module, 0.0))
                core = solver.LpCore(model)
                root = core.solve()
                ends = [root]
                xb = root.x[core.binary_ids]
                for j in core.binary_ids[np.abs(xb - np.round(xb)) > 1e-6]:
                    for val in (0.0, 1.0):
                        ends.append(core.solve(
                            *child_bounds(core, j, val, val), root))
                for res in ends:
                    if res.status != "optimal":
                        continue
                    solves += 1
                    resid = core.A[:, res.basis] @ res.Binv - np.eye(core.m)
                    assert np.abs(resid).sum(axis=1).max() \
                        <= solver.CHECK_TOL
        assert solves >= 40

    def test_the_slack_basis_starts_from_the_identity(self):
        for base in BASES:
            for module in STARTUPS:
                model, _ = build_model(generate_instance(3, 2, 3),
                                       FormulationChoice(base, module, 0.0))
                core = solver.LpCore(model)
                basis, _, Binv = solver._cold_start(core.A, core.lo, core.up,
                                                    core.c)
                assert Binv.tobytes() == solver._factorize(
                    core.A, basis).tobytes()

    def test_a_nearly_singular_warm_basis_is_not_used(self):
        # x2's column is x0/3 + 2 x1/7 in floating point, so the basis of
        # x0, x1, x2 and the last three slacks is singular up to rounding
        # (condition number about 1e17), and np.linalg.inv, which raises
        # only on an exact zero pivot, inverts it. Solved from that
        # inverse, the LP once ended "infeasible", though
        # x = (3, 1, x2, 2, 3) meets every row; _factorize calls it
        # singular, so a refactorization never hands it to the loop.
        short_rows = [(-1, 4, -2, -4), (1, 2, 2, 2), (5, 5, 4, 2),
                      (5, -5, 3, -1), (3, 0, -5, 2), (-5, -4, -2, 5)]
        senses = [">=", "=", "=", "<=", "=", "="]
        m = Model("dependent")
        xs = [m.add_variable(f"x{j}", 0.0, 10.0, cost=cost)
              for j, cost in enumerate([1.0, 2.0, 3.0, 4.0, 4.0])]
        for i, (a0, a1, a3, a4) in enumerate(short_rows):
            coeffs = np.array([a0, a1, a0 / 3 + a1 * (2 / 7), a3, a4])
            m.add_constraint(f"r{i}", dict(zip(xs, coeffs)), senses[i],
                             float(coeffs @ np.array([3, 1, 2, 2, 3])))
        core = solver.LpCore(m)
        basis = np.array([0, 1, 2, 8, 9, 10])
        assert np.linalg.cond(core.A[:, basis], np.inf) > 1e16
        assert solver._factorize(core.A, basis) is None

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(2, 5), m=st.integers(1, 4))
    def test_random_boxed_lps(self, data, n, m):
        ints = st.integers(-6, 6)
        boxes = []
        x0 = []  # an integer point every row admits, so the root is optimal
        for j in range(n):
            lo = data.draw(st.integers(-5, 3))
            up = lo + data.draw(st.integers(1, 6))
            boxes.append((lo, up))
            x0.append(data.draw(st.integers(lo, up)))
        rows, senses, rhs = [], [], []
        for i in range(m):
            coeffs = [data.draw(ints) for _ in range(n)]
            sense = data.draw(st.sampled_from(["<=", ">=", "="]))
            slack = 0 if sense == "=" else data.draw(st.integers(0, 3))
            b = float(np.dot(coeffs, x0))
            b += slack if sense == "<=" else -slack
            rows.append(coeffs)
            senses.append(sense)
            rhs.append(b)
        cost = [data.draw(ints) for j in range(n)]
        model = Model("box")
        for j, (lo, up) in enumerate(boxes):
            model.add_variable(f"x{j}", lo, up, cost=cost[j])
        for i, (coeffs, sense, b) in enumerate(zip(rows, senses, rhs)):
            model.add_constraint(f"r{i}", dict(enumerate(coeffs)), sense, b)
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
        warm, cold_starts = solve_counting("_cold_start", core, lo, up, root)
        assert cold_starts == 0
        assert_same_outcome(warm, core.solve(lo, up))
        ref = best_vertex(list(zip(lo[:n], up[:n])), rows, senses, rhs, cost)
        assert warm.status == ("infeasible" if ref is None else "optimal")
        if ref is not None:
            assert warm.objective == pytest.approx(ref, abs=1e-6)

    def test_leaving_row_by_dual_steepest_edge(self):
        # from basis (x, s_r1): x = 15 is 5 over its bound with
        # ||Binv[0]||^2 = 100, s_r1 = 1 is 1 over with ||Binv[1]||^2 = 1;
        # so row 1 leaves (score 1 against 0.25), not the larger violation
        m = Model("dse")
        x = m.add_variable("x", 0.0, 10.0)
        y = m.add_variable("y", 0.0, 10.0, cost=1.0)
        m.add_constraint("r0", {x: 0.1, y: 1.0}, "=", 1.5)
        m.add_constraint("r1", {y: 1.0}, ">=", 1.0)
        core = solver.LpCore(m)
        basis = np.array([0, 3])
        vstat = np.array([solver._BASIC, solver._AT_LOWER, solver._AT_LOWER,
                          solver._BASIC], dtype=np.int8)
        run = start_from(core, basis, vstat)
        run.max_iter = 1
        assert run.dual().message == "iteration limit exceeded"
        assert run.basis.tolist() == [0, 1]  # y replaced s_r1
        res = start_from(core, basis, vstat).dual()
        assert (res.status, res.objective) == ("optimal", 1.0)

    def test_a_basis_that_is_not_dual_feasible_is_repaired(self):
        m = Model("up")
        x = m.add_variable("x", 0.0, 10.0, cost=-1.0)
        m.add_constraint("cap", {x: 1.0}, "<=", 5.0)
        core = solver.LpCore(m)
        # cold, x rests at the upper bound its negative cost prefers; the
        # warm basis puts it at its lower bound, where it prices wrong
        at_lower = start_from(core, np.array([1]), np.array(
            [solver._AT_LOWER, solver._BASIC], dtype=np.int8))
        for res in (core.solve(), at_lower.dual()):
            assert (res.status, res.objective) == ("optimal", -5.0)
            assert res.iterations == 1

    def test_a_tiny_pivot_is_taken_on_a_fresh_basis(self):
        # the only column that can repair the violated row enters with a
        # pivot of 1e-8, below DUAL_PIVOT_TOL
        m = Model("tiny")
        x = m.add_variable("x", 0.0, 10.0, cost=1.0)
        m.add_constraint("floor", {x: 1e-8}, ">=", 1e-8)
        res = solver.LpCore(m).solve()
        assert (res.status, res.objective) == ("optimal", 1.0)
        assert res.iterations == 1

    @pytest.mark.parametrize("seed, n, T, module, ktol, optimum", [
        # a child once took a 1.4e-10 dual pivot, and the wrecked basis
        # ended the solve with "basis became singular"
        pytest.param(1, 3, 4, "one_bin", 0.0, 6825.224555897937,
                     id="1-3-4-one_bin-6825.224555897937"),
        # the dual's pivots raised the basis condition number from 6e6 to
        # 2e12 before it gave up, and the primal simplex it then handed
        # the LP to failed from there
        pytest.param(100061, 2, 3, "one_bin_star", 0.0, 3113.413932024525,
                     id="100061-2-3-one_bin_star-3113.413932024525"),
        # children whose only pivots left were 1.1e-10 to 1.4e-10 entries
        # of a drifted inverse; a fresh one proves them infeasible
        (500121, 2, 4, "one_bin", 0.0, None),
        (500127, 2, 4, "one_bin", 0.2, 15434.885944833673),
        (500127, 2, 4, "one_bin_star", 0.2, 15434.885944833673),
    ])
    def test_mips_that_once_met_tiny_dual_pivots(self, seed, n, T, module,
                                                 ktol, optimum):
        inst = generate_instance(seed, n, T)
        model, _ = build_model(
            inst, FormulationChoice("extended", module, ktol))
        res = solve_mip(model, SolveConfig(gap=0.0))
        if optimum is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(optimum, rel=1e-9)

    def test_stalled_dual_switches_to_blands_rule(self, monkeypatch):
        # the dual simplex solves this LP from its slack basis, but not
        # without runs of pivots that leave the dual objective where it
        # was; with the stall guard lowered to 5 such pivots it switches
        # to Bland's rule and still ends at the optimum
        inst = generate_instance(8, 3, 6, with_network=True)
        model, _ = build_model(
            inst, FormulationChoice("extended", "temp", 0.0))
        core = solver.LpCore(model)
        cold = core.solve()
        assert cold.status == "optimal"

        dual, runs = solver._Simplex.dual, []

        def impatient_dual(run):
            run.stall_limit = 5
            runs.append(run)
            return dual(run)

        monkeypatch.setattr(solver._Simplex, "dual", impatient_dual)
        res = core.solve()
        assert [run.bland for run in runs] == [True]
        assert res.status == "optimal"
        assert res.objective == pytest.approx(cold.objective, rel=1e-9)

    @pytest.mark.parametrize("singular_calls, status, objective, restores", [
        # one refactorization finds the basis singular: the checkpoint is
        # restored, Bland's rule takes over and the LP still ends optimal
        (lambda k: k == 1, "optimal", 1091.3874494624429, 1),
        # every other one does: after 5 restores the solve gives up
        (lambda k: k % 2 == 1, "error", None, 5),
    ])
    def test_a_singular_refactorization_restores_the_checkpoint(
            self, monkeypatch, singular_calls, status, objective, restores):
        model, _ = build_model(generate_instance(1, 2, 3),
                               FormulationChoice("extended", "one_bin", 0.0))
        core = solver.LpCore(model)
        factorize, calls = solver._factorize, []

        def flaky_factorize(A, basis):
            calls.append(basis)
            return None if singular_calls(len(calls)) else factorize(A, basis)

        dual, runs = solver._Simplex.dual, []

        def recorded_dual(run):
            runs.append(run)
            return dual(run)

        # this root ends in 10 pivots on updated inverses that pass every
        # check; failing them makes each verdict refactorize
        monkeypatch.setattr(solver, "_verified", lambda A, basis, Binv: False)
        monkeypatch.setattr(solver, "_factorize", flaky_factorize)
        monkeypatch.setattr(solver._Simplex, "dual", recorded_dual)
        res = core.solve()
        assert [(run.bland, run.restores) for run in runs] \
            == [(True, restores)]
        assert res.status == status
        if objective is None:
            assert res.message == "basis became singular"
        else:
            assert res.objective == objective


class TestGuards:
    """Guards that the seeded models do not reach, each reached here by
    patching one constant or function of the solver."""

    def test_tiny_pivots_on_an_inherited_inverse_are_looked_at_again(
            self, monkeypatch):
        # a child starts from its parent's inverse, which counts as updated:
        # with every pivot-row entry below DUAL_PIVOT_TOL, its first pass
        # refactorizes before it takes one, and the child still ends as
        # under the default tolerance
        model, _ = build_model(generate_instance(1, 2, 3),
                               FormulationChoice("extended", "one_bin", 0.0))
        core = solver.LpCore(model)
        root = core.solve()
        xb = root.x[core.binary_ids]
        children = [child_bounds(core, j, val, val) for j
                    in core.binary_ids[np.abs(xb - np.round(xb)) > 1e-6]
                    for val in (0.0, 1.0)]
        default = [core.solve(lo, up, root) for lo, up in children]
        assert sum(res.iterations > 0 for res in default) >= 4

        refresh, looks = solver._Simplex.refresh, []

        def recorded_refresh(run):
            if run.iters == 0 and not run.factored:
                looks.append(run)  # before the first pivot: the look-again
            return refresh(run)

        monkeypatch.setattr(solver, "DUAL_PIVOT_TOL", 1e6)
        monkeypatch.setattr(solver._Simplex, "refresh", recorded_refresh)
        for (lo, up), res in zip(children, default):
            looks.clear()
            tiny = core.solve(lo, up, root)
            # a child that pivots at all looks again before its first pivot
            assert len(looks) == (res.iterations > 0)
            assert_same_outcome(tiny, res)

    def test_children_without_a_step_reach_the_default_optimum(
            self, monkeypatch, caplog):
        # with every pivot-row entry below DUAL_PIVOT_TOL, no child is
        # handed a first step: each starts from its parent's fresh values,
        # and its first pass refactorizes; the search ends as under the
        # default tolerance
        model, _ = build_model(generate_instance(1, 2, 3),
                               FormulationChoice("extended", "one_bin", 0.0))
        default = solve_mip(model, SolveConfig(gap=0.0))
        monkeypatch.setattr(solver, "DUAL_PIVOT_TOL", 1e6)
        with caplog.at_level(logging.DEBUG, logger="ucbench.solver"):
            res = solve_mip(model, SolveConfig(gap=0.0))
        (line,) = [r.getMessage() for r in caplog.records
                   if r.levelno == logging.DEBUG]
        assert res.nodes > 1
        assert (f" 0 children solved from their parent's step, "
                f"{res.nodes - 1} without one, ") in line
        assert res.status == default.status == "optimal"
        assert res.objective == pytest.approx(default.objective, rel=1e-9)

    def test_a_row_residual_past_the_tolerance_is_an_error(self,
                                                          monkeypatch):
        monkeypatch.setattr(solver, "RESID_TOL", -1.0)
        res = solver.LpCore(pair_demand(30.0)).solve()
        assert res.status == "error"
        assert re.fullmatch(r"row residual \S+ after solve", res.message)
        assert (res.x, res.basis, res.rc) == (None, None, None)

    def test_a_failing_node_lp_ends_the_search(self, monkeypatch):
        # the root solves; every LP after it fails, and the first failure
        # ends the search with its message
        model, _ = build_model(generate_instance(1, 2, 3),
                               FormulationChoice("extended", "one_bin", 0.0))
        real = solver.LpCore.solve

        def failing(core, lo=None, up=None, parent=None):
            if parent is None:
                return real(core, lo, up)
            return solver._LpResult("error", math.nan, None, None, None, 3,
                                    "basis became singular")

        monkeypatch.setattr(solver.LpCore, "solve", failing)
        res = solve_mip(model, SolveConfig(gap=0.0))
        assert (res.status, res.message) \
            == ("error", "node LP failed: basis became singular")
        assert res.nodes == 2
        assert not math.isnan(res.root_bound)  # the root solved
        assert math.isnan(res.objective)

    def test_an_exactly_singular_basis_has_no_inverse(self, monkeypatch):
        # np.linalg.inv raises on an exact zero pivot; _factorize turns
        # that into None, as it does a basis it finds too ill-conditioned
        A = np.array([[1.0, 2.0, 1.0, 0.0], [2.0, 4.0, 0.0, 1.0]])
        inv, raised = np.linalg.inv, []

        def recorded_inv(B):
            try:
                return inv(B)
            except np.linalg.LinAlgError:
                raised.append(B)
                raise

        monkeypatch.setattr(np.linalg, "inv", recorded_inv)
        assert solver._factorize(A, np.array([0, 1])) is None
        assert len(raised) == 1
        assert solver._factorize(A, np.array([0, 2])) is not None


def slack_rows(core, start):
    """The warm start with every new row on its slack: the base's basis,
    statuses and inverse, each base slack moved past the model's
    structurals, and the inverse [[Binv_b, 0], [-X Binv_b, I]]."""
    ns_b, m_b = start.model.n_variables, start.model.n_constraints
    ns, m = core.n_struct, core.m
    old = np.where(start.basis < ns_b, start.basis, start.basis + ns - ns_b)
    basis = np.concatenate((old, np.arange(ns + m_b, ns + m)))
    vstat = solver._resting(core.lo, core.up, core.c, basis)
    vstat[:ns_b] = start.vstat[:ns_b]
    vstat[ns:ns + m_b] = start.vstat[ns_b:]
    Binv = np.zeros((m, m))
    Binv[:m_b, :m_b] = start.Binv
    Binv[m_b:, :m_b] = -(core.A[m_b:, old] @ start.Binv)
    Binv[m_b:, m_b:] = np.eye(m - m_b)
    return solver._LpResult("optimal", math.nan, None, basis, vstat, 0,
                            Binv=Binv)


class TestRootStart:
    """A root that starts from the optimal basis of the base its model
    extends (``root_start``), with the crash that puts some new rows on
    zero-cost new columns, ends at the cold root's optimum, and
    ``solve_mip`` refuses a start whose base the model does not extend,
    before any LP."""

    @staticmethod
    def shared(seed=1, base="basic"):
        """A seeded 2x3 instance, its base and that base's start."""
        inst = generate_instance(seed, 2, 3)
        shared = build_base(inst, base)
        return inst, shared, root_start(shared[0])

    @staticmethod
    def refused(model, start, monkeypatch):
        """The ValueError's message of solve_mip(model, start=start),
        checking that no LP was solved first."""
        solves = lp_solves(monkeypatch)
        with pytest.raises(ValueError) as info:
            solve_mip(model, SolveConfig(gap=0.0), start=start)
        assert solves == []
        return str(info.value)

    def test_a_model_built_apart_from_the_base_fits(self):
        inst, shared, start = self.shared()
        choice = FormulationChoice("basic", "temp", 0.0)
        fresh, _ = build_model(inst, choice)
        warm = solve_mip(fresh, SolveConfig(gap=0.0), start=start)
        cold = solve_mip(fresh, SolveConfig(gap=0.0))
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)

    def test_a_model_smaller_than_the_base_is_refused(self, monkeypatch):
        inst, shared, _ = self.shared()
        model, _ = build_model(inst, FormulationChoice("basic", "temp", 0.0))
        start = root_start(model)
        base = shared[0]
        assert self.refused(base, start, monkeypatch) == (
            f"the start does not fit: the model has {base.n_variables} "
            f"columns and {base.n_constraints} rows, the base "
            f"{model.n_variables} and {model.n_constraints}")

    @pytest.mark.parametrize("what", ["lower bound", "upper bound", "cost"])
    def test_a_column_that_differs_is_named(self, what, monkeypatch):
        inst, shared, start = self.shared()
        model, _ = build_model(inst, FormulationChoice("basic", "one_bin",
                                                       0.0), base=shared)
        j = model.var_id("p_1_2")
        if what == "cost":
            model.objective[j] += 0.5
            was, now = shared[0].objective[j], model.objective[j]
        else:
            lb, ub = list(model.lb), list(model.ub)
            bounds = lb if what == "lower bound" else ub
            was = bounds[j]
            bounds[j] = now = 3.0 if what == "lower bound" else 5e3
            model = model.rebound(lb, ub)
        assert self.refused(model, start, monkeypatch) == (
            f"the start does not fit: column 'p_1_2' has {what} {now!r} in "
            f"the model and {was!r} in the base")

    @pytest.mark.parametrize("what", ["sense", "right-hand side"])
    def test_a_row_that_differs_is_named(self, what, monkeypatch):
        inst, shared, start = self.shared()
        model, _ = build_model(inst, FormulationChoice("basic", "three_bin",
                                                       0.0), base=shared)
        i = model.row_names.index("demand_2")
        if what == "sense":
            model.senses[i] = now = ">="
        else:
            rhs = list(model.rhs)
            rhs[i] = now = rhs[i] + 1.0
            model = model.rebound(model.lb, model.ub, rhs)
        was = (shared[0].senses if what == "sense" else shared[0].rhs)[i]
        assert self.refused(model, start, monkeypatch) == (
            f"the start does not fit: row 'demand_2' has {what} {now!r} in "
            f"the model and {was!r} in the base")

    def test_a_row_whose_terms_differ_is_named(self, monkeypatch):
        inst, shared, start = self.shared()
        model, _ = build_model(inst, FormulationChoice("basic", "temp", 0.0),
                               base=shared)
        i = model.row_names.index("lim_hi_2_1")
        model.coeffs[model.starts[i]] *= 2.0
        assert self.refused(model, start, monkeypatch) == (
            "the start does not fit: row 'lim_hi_2_1' has other terms in "
            "the model than in the base")

    def test_a_new_column_in_a_base_row_is_refused(self, monkeypatch):
        base = Model("base")
        x, y = (base.add_variable(n, 0.0, 4.0, cost=1.0) for n in "xy")
        base.add_constraint("r0", {x: 1.0}, "<=", 3.0)
        base.add_constraint("r1", {x: 1.0, y: 1.0}, ">=", 1.0)
        model = Model("model")
        x, y, z = (model.add_variable(n, 0.0, 4.0, cost=1.0) for n in "xyz")
        model.add_constraint("r0", {x: 1.0}, "<=", 3.0)
        model.add_constraint("r1", {x: 1.0, y: 1.0, z: 1.0}, ">=", 1.0)
        assert self.refused(model, root_start(base), monkeypatch) == (
            "the start does not fit: row 'r1' has other terms in the model "
            "than in the base")

    def test_an_infeasible_base_gives_no_start_and_cold_roots(self):
        # no output at all cannot meet the demand rows
        inst = generate_instance(1, 2, 3)
        model, vix = build_base(inst, "basic")
        ub = list(model.ub)
        for j in itertools.chain.from_iterable(p[1:] for p in vix.p):
            ub[j] = 0.0
        dark = model.rebound(model.lb, ub)
        assert root_start(dark) is None
        full, _ = build_model(inst, FormulationChoice("basic", "temp", 0.0),
                              base=(dark, vix))
        res = solve_mip(full, SolveConfig(gap=0.0), start=root_start(dark))
        assert res.status == "infeasible"
        assert math.isnan(res.root_bound)

    def test_the_debug_line_names_the_base_start(self, caplog):
        inst, shared, start = self.shared(2, "extended")
        model, _ = build_model(inst, FormulationChoice("extended", "temp",
                                                       0.0), base=shared)
        core = solver.LpCore(model)
        root = core.solve(parent=solver._extended(core, start))
        with caplog.at_level(logging.DEBUG, logger="ucbench.solver"):
            res = solve_mip(model, SolveConfig(gap=0.0), start=start)
        (line,) = [r.getMessage() for r in caplog.records
                   if r.levelno == logging.DEBUG]
        # the crash puts trec and tcost rows on tmp or h columns
        n_b = shared[0].n_constraints
        rows, _ = solver._crash(model, shared[0].n_variables, n_b)
        assert {model.row_names[i].split("_")[0] for i in rows} \
            == {"trec", "tcost"}
        counts = re.fullmatch(
            re.escape(f"mip: {res.status} after {res.nodes} nodes, "
                      f"{res.iterations} LP iterations ({root.iterations} "
                      f"at the root, from a base's basis, {len(rows)} of "
                      f"{model.n_constraints - n_b} new rows crashed), ")
            + r"(\d+) children solved from their parent's step, (\d+) "
            r"without one, \d+ closed by an infinite penalty; .*", line)
        assert counts and sum(map(int, counts.groups())) == res.nodes - 1
        assert root.iterations < solver.LpCore(model).solve().iterations

    def test_a_singular_crash_keeps_the_slacks(self):
        # two new equality rows over the zero-cost columns u and w, in
        # proportion there: the crash picks u for r1 and w for r2, whose
        # block [[1, 1], [2, 2]] is singular, so both rows keep their
        # slacks
        def model(name, new):
            m = Model(name)
            x, y = (m.add_variable(n, 0.0, 4.0, cost=c)
                    for n, c in (("x", 1.0), ("y", 2.0)))
            m.add_constraint("r0", {x: 1.0, y: 1.0}, ">=", 2.0)
            if new:
                u, w = (m.add_variable(n, 0.0, 10.0) for n in "uw")
                m.add_constraint("r1", {x: 1.0, u: 1.0, w: 1.0}, "=", 3.0)
                m.add_constraint("r2", {y: 1.0, u: 2.0, w: 2.0}, "=", 5.0)
            return m

        base, full = model("base", False), model("full", True)
        start = root_start(base)
        core = solver.LpCore(full)
        assert solver._crash(full, 2, 1) == ([1, 2], [2, 3])
        ext, slack = solver._extended(core, start), slack_rows(core, start)
        for a, b in zip((ext.basis, ext.vstat, ext.Binv),
                        (slack.basis, slack.vstat, slack.Binv)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        lp = solve_lp(full)
        assert lp.status == "optimal"
        warm = solve_mip(full, SolveConfig(gap=0.0), start=start)
        assert abs(warm.root_bound - lp.objective) \
            <= 1e-12 * abs(lp.objective)

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("n, T, ramp", [(2, 3, None), (3, 6, None),
                                            (2, 4, 0.6)])
    def test_warm_roots_against_cold_ones(self, n, T, ramp, base):
        """Seeds 1-8, the four modules on one shared base each: the warm
        root ends as solve_lp does, within 1e-12 relative; at gap 0 the
        MIP ends as the cold one, within 1e-9 relative; every extended
        start inverse passes the check a verdict rests on, and its fresh
        reduced costs price no column wrong; the four solves leave the
        start as they found it. A module with no zero-cost new column
        (one_bin, one_bin_star) starts from the slack rows' start bit for
        bit, and temp's crashed roots take fewer iterations in all than
        from that start."""
        crashed = slack = 0  # temp's root iterations from either start
        for seed in range(1, 9):
            inst = generate_instance(seed, n, T)
            if ramp is not None:
                inst = ramped(inst, ramp)
            shared = build_base(inst, base)
            start = root_start(shared[0])
            assert start is not None, seed
            saved = [a.copy() for a in start[1:]]
            for module in STARTUPS:
                model, _ = build_model(
                    inst, FormulationChoice(base, module, 0.0), base=shared)
                core = solver.LpCore(model)
                ext = solver._extended(core, start)
                assert solver._verified(core.A, ext.basis, ext.Binv)
                fresh = solver._Simplex(
                    core.A, core.b, core.c, core.lo, core.up,
                    ext.basis.copy(), ext.vstat.copy(), ext.Binv.copy())
                assert not solver._priced_wrong(*solver._directions(
                    fresh.vstat, fresh.movable), fresh.rc).any()
                rows = slack_rows(core, start)
                if module in ("one_bin", "one_bin_star"):
                    for a, b in zip((ext.basis, ext.vstat, ext.Binv),
                                    (rows.basis, rows.vstat, rows.Binv)):
                        assert a.dtype == b.dtype and np.array_equal(a, b)
                lp = solve_lp(model)
                root = core.solve(parent=ext)
                assert root.status == lp.status
                if module == "temp":
                    crashed += root.iterations
                    slack += core.solve(parent=rows).iterations
                warm = solve_mip(model, SolveConfig(gap=0.0), start=start)
                cold = solve_mip(model, SolveConfig(gap=0.0))
                key = (seed, module)
                if lp.status == "optimal":
                    assert abs(warm.root_bound - lp.objective) \
                        <= 1e-12 * abs(lp.objective), key
                assert warm.status == cold.status, key
                if cold.status == "optimal":
                    assert warm.objective == pytest.approx(
                        cold.objective, rel=1e-9), key
            for a, b in zip(start[1:], saved):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert crashed < slack


class TestPenalties:
    """The penalty of branching a fractional binary one way is the
    objective rise of the dual simplex's first step from the node's
    optimal basis: a lower bound on that child's optimum by weak duality.
    An infinite penalty means that no column can start the step, so the
    child's LP, started from the node's result, ends infeasible after 0
    iterations."""

    @staticmethod
    def grid():
        """The core and the optimal root LP of every model of two seeded
        2x3 instances and two 2x4 ones whose ramps (0.6 of each unit's
        output range) bind."""
        instances = [generate_instance(1, 2, 3), generate_instance(1004, 2, 3),
                     ramped(generate_instance(5, 2, 4), 0.6),
                     ramped(generate_instance(7, 2, 4), 0.6)]
        for instance, base, module in itertools.product(instances, BASES,
                                                        STARTUPS):
            model, _ = build_model(
                instance, FormulationChoice(base, module, 0.0))
            core = solver.LpCore(model)
            root = core.solve()
            assert root.status == "optimal"
            yield core, root

    def test_every_child_ends_at_or_above_its_bound(self):
        # both children of every fractional binary at the root, and at
        # each optimal child of the root, of every model of the grid
        ends = {"closed": 0, "optimal": 0, "infeasible": 0}
        for core, root in self.grid():
            nodes = [(core.lo, core.up, root, True)]
            while nodes:
                lo, up, res, is_root = nodes.pop()
                z = res.objective
                xb = res.x[core.binary_ids]
                cols = core.binary_ids[
                    np.abs(xb - np.round(xb)) > solver.INT_TOL]
                if not len(cols):
                    continue
                for k, j in enumerate(cols):
                    _, children = solver._branch(core.A, res, up > lo,
                                                 cols[k:k + 1])
                    for val, penalty, _ in children:
                        lo2, up2 = lo.copy(), up.copy()
                        lo2[j] = up2[j] = val
                        child = core.solve(lo2, up2, res)
                        if penalty == INF:
                            assert (child.status, child.iterations) \
                                == ("infeasible", 0)
                            ends["closed"] += 1
                            continue
                        assert penalty >= 0.0
                        if child.status == "optimal":
                            assert child.objective \
                                >= z + penalty - 1e-9 * max(1.0, abs(z))
                            if is_root:
                                nodes.append((lo2, up2, child, False))
                        ends[child.status] += 1
        assert all(ends.values()), ends

    def check_pushed_children(self):
        """Start the pushed children of the branch variable at the root
        and at each optimal child of the root, and the root rounded, of
        every model of the grid, as branch-and-bound starts them: from the
        parent's fresh values and, for a child with one, the first pivot
        handed over. Each must end with the very result that the same LP
        started from the parent's result stripped of its fresh values,
        settled from scratch, does. Returns how many children had a step,
        how many had none, and how many roots were rounded."""
        starts = {"step": 0, "no step": 0, "rounded": 0}
        for core, root in self.grid():
            xb = root.x[core.binary_ids]
            lo, up = core.lo.copy(), core.up.copy()
            lo[core.binary_ids] = up[core.binary_ids] = np.round(xb)
            rounded = core.solve(lo, up, solver._Warm(root))
            assert_same_result(rounded, core.solve(lo, up, stripped(root)))
            starts["rounded"] += 1
            nodes = [(core.lo, core.up, root, True)]
            while nodes:
                lo, up, res, is_root = nodes.pop()
                xb = res.x[core.binary_ids]
                cols = core.binary_ids[
                    np.abs(xb - np.round(xb)) > solver.INT_TOL]
                if not len(cols):
                    continue
                j, children = solver._branch(core.A, res, up > lo, cols)
                for val, penalty, step in children:
                    if penalty == INF:  # never pushed
                        assert step is None
                        continue
                    lo2, up2 = lo.copy(), up.copy()
                    lo2[j] = up2[j] = val
                    child = core.solve(lo2, up2, solver._Warm(res, step))
                    assert_same_result(
                        child, core.solve(lo2, up2, stripped(res)))
                    starts["no step" if step is None else "step"] += 1
                    if is_root and child.status == "optimal":
                        nodes.append((lo2, up2, child, False))
        return starts

    def test_a_child_from_its_parents_step_is_the_settled_child(self):
        starts = self.check_pushed_children()
        assert starts["step"] >= 50 and starts["rounded"] == 32, starts

    def test_a_child_without_a_step_is_the_settled_child(self, monkeypatch):
        # with every pivot-row entry below DUAL_PIVOT_TOL, ``_branch``
        # hands no child a step: each starts from its parent's fresh
        # values alone, which are bit for bit what settling computes
        monkeypatch.setattr(solver, "DUAL_PIVOT_TOL", 1e6)
        starts = self.check_pushed_children()
        assert starts["step"] == 0 and starts["no step"] >= 50, starts


def stripped(res):
    """An optimal LP result without the fresh values a ``_Warm`` start
    takes, so that an LP started from it must settle."""
    return dataclasses.replace(res, rc=None, xN=None, xB=None)


def assert_same_result(a, b):
    """The two LP results agree bit for bit in status, iterations,
    objective, x, basis and inverse."""
    assert (a.status, a.iterations, repr(a.objective)) \
        == (b.status, b.iterations, repr(b.objective))
    for f, g in ((a.x, b.x), (a.basis, b.basis), (a.Binv, b.Binv)):
        assert (f is None) == (g is None)
        if f is not None:
            assert f.dtype == g.dtype and f.tobytes() == g.tobytes()


class TestDualPhaseOne:
    """A column with an infinite bound whose cost prices it wrong at the
    slack basis sends the LP through the dual phase one; hand-computed
    optima."""

    def test_free_column(self):
        # x >= 1 - y >= -9
        m = Model("free")
        x = m.add_variable("x", -INF, INF, cost=1.0)
        y = m.add_variable("y", 0.0, 10.0)
        m.add_constraint("floor", {x: 1.0, y: 1.0}, ">=", 1.0)
        res = solve_lp(m)
        assert (res.status, res.objective) == ("optimal", -9.0)
        assert res.values == {"x": -9.0, "y": 10.0}

    def test_column_bounded_only_above_with_a_positive_cost(self):
        # x rests at its upper bound 5, where a cost of 1 prices it wrong;
        # x >= 2 - y >= -1
        m = Model("upper")
        x = m.add_variable("x", -INF, 5.0, cost=1.0)
        y = m.add_variable("y", 0.0, 3.0)
        m.add_constraint("floor", {x: 1.0, y: 1.0}, ">=", 2.0)
        res = solve_lp(m)
        assert (res.status, res.objective) == ("optimal", -1.0)
        assert res.values == {"x": -1.0, "y": 3.0}

    def test_ray_that_a_second_row_makes_infeasible(self):
        # min -x over x = y would run down the ray x = y -> inf, but
        # y <= -1 and x >= 0 leave no point at all
        m = Model("no_ray")
        x = m.add_variable("x", 0.0, INF, cost=-1.0)
        y = m.add_variable("y", -INF, INF)
        m.add_constraint("tie", {x: 1.0, y: -1.0}, "=", 0.0)
        m.add_constraint("cap", {y: 1.0}, "<=", -1.0)
        assert solver._unreachable_row(m) is None
        assert solve_lp(m).status == "infeasible"

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), m=st.integers(0, 3))
    def test_agrees_with_highs(self, linprog, data, n, m):
        ints = st.integers(-4, 4)
        boxes, bounds = [], []
        for j in range(n):
            kind = data.draw(st.sampled_from(
                ["free", "lower", "upper", "boxed", "fixed"]))
            lo = data.draw(ints)
            up = lo + data.draw(st.integers(1, 5))
            lo, up = {"free": (-INF, INF), "lower": (lo, INF),
                      "upper": (-INF, up), "boxed": (lo, up),
                      "fixed": (lo, lo)}[kind]
            boxes.append((lo, up))
            bounds.append((None if lo == -INF else lo,
                           None if up == INF else up))
        row_args = []
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for i in range(m):
            coeffs = [data.draw(ints) for _ in range(n)]
            sense = data.draw(st.sampled_from(["<=", ">=", "="]))
            b = data.draw(st.integers(-6, 6))
            row_args.append((f"r{i}", dict(enumerate(coeffs)), sense, b))
            if sense == "=":
                A_eq.append(coeffs)
                b_eq.append(b)
            else:
                sign = 1 if sense == "<=" else -1
                A_ub.append([sign * a for a in coeffs])
                b_ub.append(sign * b)
        cost = [data.draw(ints) for _ in range(n)]
        model = Model("diff")
        for j, (lo, up) in enumerate(boxes):
            model.add_variable(f"x{j}", lo, up, cost=cost[j])
        for args in row_args:
            model.add_constraint(*args)
        ref = linprog(cost, A_ub=A_ub or None, b_ub=b_ub or None,
                      A_eq=A_eq or None, b_eq=b_eq or None, bounds=bounds,
                      method="highs")
        assert ref.status in (0, 2, 3), ref.message
        res = solve_lp(model)
        assert res.status == {0: "optimal", 2: "infeasible",
                              3: "unbounded"}[ref.status]
        if ref.status == 0:
            assert res.objective == pytest.approx(ref.fun, rel=1e-9,
                                                  abs=1e-9)


@pytest.fixture(scope="module")
def linprog():
    return pytest.importorskip("scipy.optimize").linprog


class TestBackendCheck:
    @pytest.mark.parametrize("backend", solver.BACKENDS)
    def test_accepted(self, backend):
        assert SolveConfig(backend=backend).backend == backend

    @pytest.mark.parametrize("backend", [
        "cplx", "solver {input} {output}", "x {input}",
        "x {{input}} {{output}}", "'x {input} {output}",
        "x {input} {output} {foo}", "x {} {input} {output}",
        "x { {input} {output}", "Reference", ""])
    def test_rejected_naming_the_backend(self, backend):
        with pytest.raises(ValueError) as info:
            SolveConfig(backend=backend)
        assert str(info.value) == (f"unknown backend {backend!r}; expected "
                                   f"one of {solver.BACKENDS}")
