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

from ucbench import (BASES, STARTUPS, Model, SolveConfig, solve_lp,
                     solve_mip, build_model, FormulationChoice,
                     generate_instance, write_mps)
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
        # no rows
        m = Model("down")
        x = m.add_variable("x", 0.0, INF)
        m.set_objective({x: -1.0})
        assert solve_lp(m).status == "unbounded"
        # a row: the ray x = y -> inf; the dual phase one finds no dual
        # feasible basis, and a zero-cost run finds a feasible point
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
                 if r.name == "ucbench.solver" and r.levelno == logging.DEBUG]
        assert len(lines) == 1
        assert re.fullmatch(
            re.escape(f"mip: optimal after {res.nodes} nodes, "
                      f"{res.iterations} LP iterations; root bound "
                      f"{res.root_bound!r}, best bound {res.best_bound!r}; ")
            + r"\d+\.\d{3} s", lines[0])

    @pytest.mark.parametrize(
        "instance, base, module, objective, nodes, iterations", [
        ("2x3", "basic", "one_bin", "5027.866084736637", 9, 25),
        ("2x3", "basic", "one_bin_star", "5027.866084736637", 9, 25),
        ("2x3", "basic", "three_bin", "5027.866084736636", 11, 37),
        ("2x3", "basic", "temp", "5027.866084736637", 9, 34),
        ("2x3", "extended", "one_bin", "5027.866084736637", 11, 37),
        ("2x3", "extended", "one_bin_star", "5027.866084736637", 11, 37),
        ("2x3", "extended", "three_bin", "5027.866084736637", 9, 31),
        ("2x3", "extended", "temp", "5027.866084736637", 11, 49),
        ("2x4-ramps", "basic", "one_bin", "5685.033102533476", 21, 62),
        ("2x4-ramps", "basic", "one_bin_star", "5685.033102533476", 19, 72),
        ("2x4-ramps", "basic", "three_bin", "5685.033102533476", 15, 70),
        ("2x4-ramps", "basic", "temp", "5685.033102533476", 29, 127),
    ])
    def test_pinned_trees(self, pinned_trees, instance, base, module,
                          objective, nodes, iterations):
        assert pinned_trees[f"{instance}/{base}/{module}"] \
            == ["optimal", objective, nodes, iterations]

    def test_progress_log_of_each_new_incumbent(self, caplog):
        # best-first search meets an incumbent of 5690.41 at node 6, then
        # the optimum at node 8
        model, _ = build_model(generate_instance(1004, 2, 3),
                               FormulationChoice("extended", "three_bin", 0.0))
        with caplog.at_level(logging.INFO, logger="ucbench.solver"):
            res = solve_mip(model, SolveConfig(gap=0.0))
        progress = [re.fullmatch(
            r"mip: incumbent (\S+) after (\d+) nodes; best bound (\S+), "
            r"gap (\S+)", r.getMessage())
            for r in caplog.records
            if r.name == "ucbench.solver" and r.levelno == logging.INFO]
        assert len(progress) == 2 and all(progress)
        incumbents = [float(p[1]) for p in progress]
        assert incumbents[0] > incumbents[1] == res.objective
        nodes = [int(p[2]) for p in progress]
        assert nodes[0] < nodes[1] <= res.nodes
        for p, incumbent in zip(progress, incumbents):
            bound, gap = float(p[3]), float(p[4])
            assert res.root_bound <= bound <= incumbent
            # the gap is printed to 3 significant digits
            assert gap == pytest.approx((incumbent - bound) / incumbent,
                                        rel=5e-3)


@pytest.fixture(scope="module")
def pinned_trees():
    """Status, objective repr, nodes and iterations of every model of one
    seeded 2x3 instance and of the basic ones of a 2x4 instance whose
    ramps (0.6 of each unit's output range) bind, gap 0; a change of any
    pivot shows as other counts or last digits. They are solved in a
    child process on one thread of OpenBLAS's Haswell kernels, which any
    x86-64 CPU with AVX2 runs. Other kernels end these trees otherwise:
    under SkylakeX, 7 of the 12 take other iteration counts and one more
    ends on another last digit."""
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
                model.add_variable(f"x{j}", lo, hi)
            for i, (a, s, r) in enumerate(zip(rows, senses, rhs)):
                model.add_constraint(f"r{i}",
                                     {j: a[j] for j in range(n)}, s, r)
            model.set_objective({j: cost[j] for j in range(n)})
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


def assert_identical(res, ref):
    """Two LP results alike bit for bit: status, objective, x, basis,
    iterations and the inverse handed on to children."""
    assert (res.status, repr(res.objective), res.iterations) \
        == (ref.status, repr(ref.objective), ref.iterations)
    for name in ("x", "basis", "vstat", "Binv"):
        a, b = getattr(res, name), getattr(ref, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()


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
        # branch-and-bound hands each child its parent's result; its Binv
        # is fresh at an optimal end, so starting from it must be bit for
        # bit the start a refactorization gives, and the child must not
        # write into the array its sibling starts from next
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
                assert shared == refactored.Binv.tobytes()
                xb = root.x[core.binary_ids]
                for j in core.binary_ids[np.abs(xb - np.round(xb)) > 1e-6]:
                    for val in (0.0, 1.0):
                        lo, up = child_bounds(core, j, val, val)
                        inherited = core.solve(lo, up, root)
                        assert root.Binv.tobytes() == shared
                        assert_identical(inherited,
                                         core.solve(lo, up, refactored))

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
        xs = [m.add_variable(f"x{j}", 0.0, 10.0) for j in range(5)]
        for i, (a0, a1, a3, a4) in enumerate(short_rows):
            coeffs = np.array([a0, a1, a0 / 3 + a1 * (2 / 7), a3, a4])
            m.add_constraint(f"r{i}", dict(zip(xs, coeffs)), senses[i],
                             float(coeffs @ np.array([3, 1, 2, 2, 3])))
        m.set_objective(dict(zip(xs, [1.0, 2.0, 3.0, 4.0, 4.0])))
        core = solver.LpCore(m)
        basis = np.array([0, 1, 2, 8, 9, 10])
        assert np.linalg.cond(core.A[:, basis], np.inf) > 1e16
        assert solver._factorize(core.A, basis) is None

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
        rows, senses, rhs = [], [], []
        for i in range(m):
            coeffs = [data.draw(ints) for _ in range(n)]
            sense = data.draw(st.sampled_from(["<=", ">=", "="]))
            slack = 0 if sense == "=" else data.draw(st.integers(0, 3))
            b = float(np.dot(coeffs, x0))
            b += slack if sense == "<=" else -slack
            model.add_constraint(f"r{i}", dict(enumerate(coeffs)), sense, b)
            rows.append(coeffs)
            senses.append(sense)
            rhs.append(b)
        cost = [data.draw(ints) for j in range(n)]
        model.set_objective(dict(enumerate(cost)))
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
        y = m.add_variable("y", 0.0, 10.0)
        m.add_constraint("r0", {x: 0.1, y: 1.0}, "=", 1.5)
        m.add_constraint("r1", {y: 1.0}, ">=", 1.0)
        m.set_objective({y: 1.0})
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
        x = m.add_variable("x", 0.0, 10.0)
        m.add_constraint("cap", {x: 1.0}, "<=", 5.0)
        m.set_objective({x: -1.0})
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
        x = m.add_variable("x", 0.0, 10.0)
        m.add_constraint("floor", {x: 1e-8}, ">=", 1e-8)
        m.set_objective({x: 1.0})
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


class TestDualPhaseOne:
    """A column with an infinite bound whose cost prices it wrong at the
    slack basis sends the LP through the dual phase one; hand-computed
    optima."""

    def test_free_column(self):
        # x >= 1 - y >= -9
        m = Model("free")
        x = m.add_variable("x", -INF, INF)
        y = m.add_variable("y", 0.0, 10.0)
        m.add_constraint("floor", {x: 1.0, y: 1.0}, ">=", 1.0)
        m.set_objective({x: 1.0})
        res = solve_lp(m)
        assert (res.status, res.objective) == ("optimal", -9.0)
        assert res.values == {"x": -9.0, "y": 10.0}

    def test_column_bounded_only_above_with_a_positive_cost(self):
        # x rests at its upper bound 5, where a cost of 1 prices it wrong;
        # x >= 2 - y >= -1
        m = Model("upper")
        x = m.add_variable("x", -INF, 5.0)
        y = m.add_variable("y", 0.0, 3.0)
        m.add_constraint("floor", {x: 1.0, y: 1.0}, ">=", 2.0)
        m.set_objective({x: 1.0})
        res = solve_lp(m)
        assert (res.status, res.objective) == ("optimal", -1.0)
        assert res.values == {"x": -1.0, "y": 3.0}

    def test_ray_that_a_second_row_makes_infeasible(self):
        # min -x over x = y would run down the ray x = y -> inf, but
        # y <= -1 and x >= 0 leave no point at all
        m = Model("no_ray")
        x = m.add_variable("x", 0.0, INF)
        y = m.add_variable("y", -INF, INF)
        m.add_constraint("tie", {x: 1.0, y: -1.0}, "=", 0.0)
        m.add_constraint("cap", {y: 1.0}, "<=", -1.0)
        m.set_objective({x: -1.0})
        assert solver._unreachable_row(m) is None
        assert solve_lp(m).status == "infeasible"

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), m=st.integers(0, 3))
    def test_agrees_with_highs(self, linprog, data, n, m):
        ints = st.integers(-4, 4)
        model = Model("diff")
        bounds = []
        for j in range(n):
            kind = data.draw(st.sampled_from(
                ["free", "lower", "upper", "boxed", "fixed"]))
            lo = data.draw(ints)
            up = lo + data.draw(st.integers(1, 5))
            lo, up = {"free": (-INF, INF), "lower": (lo, INF),
                      "upper": (-INF, up), "boxed": (lo, up),
                      "fixed": (lo, lo)}[kind]
            model.add_variable(f"x{j}", lo, up)
            bounds.append((None if lo == -INF else lo,
                           None if up == INF else up))
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for i in range(m):
            coeffs = [data.draw(ints) for _ in range(n)]
            sense = data.draw(st.sampled_from(["<=", ">=", "="]))
            b = data.draw(st.integers(-6, 6))
            model.add_constraint(f"r{i}", dict(enumerate(coeffs)), sense, b)
            if sense == "=":
                A_eq.append(coeffs)
                b_eq.append(b)
            else:
                sign = 1 if sense == "<=" else -1
                A_ub.append([sign * a for a in coeffs])
                b_ub.append(sign * b)
        cost = [data.draw(ints) for _ in range(n)]
        model.set_objective(dict(enumerate(cost)))
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
        res = solve_mip(self.make_model(),
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
        res = solve_mip(self.make_model(),
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
        res = solve_mip(self.make_model(),
                        SolveConfig(backend=cmd, time_limit=60))
        assert res.status == "error"
        assert "unparseable" in res.message

    def test_nonzero_exit_reports_error(self, tmp_path):
        cmd = self.backend(tmp_path, """
            import sys
            sys.exit(3)
        """)
        res = solve_mip(self.make_model(),
                        SolveConfig(backend=cmd, time_limit=60))
        assert res.status == "error"
        assert "exited 3" in res.message

    def test_bound_violating_value_reports_error(self, tmp_path):
        cmd = self.backend(tmp_path, """
            import sys
            with open(sys.argv[2], "w") as fh:
                fh.write("v_1_1 2\\np_1_1 0\\n")
        """)
        res = solve_mip(self.make_model(),
                        SolveConfig(backend=cmd, time_limit=60))
        assert res.status == "error"
        assert "violates bounds" in res.message

    def test_row_violating_values_report_error(self, tmp_path):
        # p_1_1 = 400 needs v_1_1 = 1 under lim: p_1_1 <= 500 v_1_1
        cmd = self.backend(tmp_path, """
            import sys
            with open(sys.argv[2], "w") as fh:
                fh.write("v_1_1 0\\np_1_1 400\\n")
        """)
        res = solve_mip(self.make_model(),
                        SolveConfig(backend=cmd, time_limit=60))
        assert res.status == "error"
        assert res.message.startswith("row 'lim' ")

    def test_all_zero_schedule_of_a_seeded_model_reports_error(self,
                                                              tmp_path):
        # every value within its bounds, but no unit meets the load
        model, _ = build_model(generate_instance(1, 2, 3),
                               FormulationChoice("extended", "one_bin", 0.0))
        zeros = "".join(f"{v.name} 0\n" for v in model.variables)
        cmd = self.backend(tmp_path, f"""
            import sys
            with open(sys.argv[2], "w") as fh:
                fh.write({zeros!r})
        """)
        res = solve_mip(model, SolveConfig(backend=cmd, time_limit=60))
        assert res.status == "error"
        assert re.match(r"row '\w+' \([<>=]+ [-\d.e+]+\) is violated by ",
                        res.message)

    def test_reference_keyword_is_not_a_template(self, monkeypatch):
        def no_command(*a, **kw):
            raise AssertionError("the reference backend ran a command")

        monkeypatch.setattr(solver.subprocess, "run", no_command)
        res = solve_mip(self.make_model(), SolveConfig())
        assert res.status == "optimal" and res.nodes >= 1

    def test_solve_mip_runs_the_template(self, tmp_path):
        cmd = self.backend(tmp_path, f"""
            import pathlib, sys
            mps = pathlib.Path(sys.argv[1]).read_text()
            pathlib.Path({str(tmp_path / "seen.mps")!r}).write_text(mps)
            with open(sys.argv[2], "w") as fh:
                fh.write("v_1_1 1\\np_1_1 400\\n")
        """)
        model = self.make_model()
        res = solve_mip(model, SolveConfig(backend=cmd, time_limit=60))
        assert (tmp_path / "seen.mps").read_text() == write_mps(model)
        assert res.status == "optimal" and res.nodes == 0
        assert res.values == {"v_1_1": 1.0, "p_1_1": 400.0}
        assert res.objective == pytest.approx(205.0)


class TestBackendCheck:
    @pytest.mark.parametrize("backend", [
        "reference", "solver {input} {output}",
        "solver --in={input} '--out {output}'"])
    def test_accepted(self, backend):
        assert SolveConfig(backend=backend).backend == backend

    @pytest.mark.parametrize("backend, why", [
        ("cplx", ": one is missing$"),
        ("x {input}", ": one is missing$"),
        ("x {{input}} {{output}}", ": one is missing$"),
        ("'x {input} {output}", ": ValueError: No closing quotation$"),
        ("x {input} {output} {foo}", ": KeyError: 'foo'$"),
        ("x {} {input} {output}", ": IndexError: "),
        ("x { {input} {output}", ": ValueError: Single '{'"),
    ])
    def test_rejected_naming_the_backend(self, backend, why):
        with pytest.raises(ValueError) as info:
            SolveConfig(backend=backend)
        assert str(info.value).startswith(f"backend {backend!r} ")
        assert re.search(why, str(info.value))


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

    def test_xml_root_element_is_read(self):
        text = "<variable name='v_1_1' value='1'/>"
        assert parse_solution_file(text) == {"v_1_1": 1.0}

    def test_single_token_line_rejected(self):
        with pytest.raises(SolutionParseError, match="line 1"):
            parse_solution_file("just_a_name\n")

    def test_bad_xml_rejected(self):
        with pytest.raises(SolutionParseError, match="XML"):
            parse_solution_file("<unclosed")
