"""Ground-truth machinery independent of the MILP builders: schedule
enumeration under commitment-only rules, exact costing from first
principles, and cross-formulation equivalence certification on small
instances.

The dispatch LP here is deliberately re-derived from the physical story
(demand balance, output limits, ramp caps between consecutive online
periods, start/stop speed caps as variable bounds, line limits) rather
than built through :mod:`ucbench.formulations`, so agreement between
``brute_force_optimum`` and the MILP optima is a genuine cross-check of
two code paths and not a tautology.

Almost every enumerated schedule fails on capacity alone: in some
period the load lies outside [sum of lo, sum of hi] of the online units'
``_period_bounds``. Those bounds are the dispatch variables' bounds and
the demand row sums exactly those variables, so ``solve_lp``'s row
check (``solver._unreachable_row``) rejects such a dispatch LP before
any simplex work. That rejection is sound: it fires only when the load
is farther outside the window than twice the row residual the simplex
accepts, 1e-6 * (1 + max|rhs|) over the model's own right-hand sides
(loads, ramp limits, line rows), so the simplex could not have called
the LP optimal either. The merit-order fill checks the same window
itself, at 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .domain import (CostBreakdown, Instance, Schedule, check_instance,
                     offline_runs)
from .formulations import STARTUPS, FormulationChoice, check_base
from .milp import Model
from .solver import SolveConfig, solve_lp, solve_mip
from .startup import startup_cost

__all__ = ["OracleResult", "brute_force_optimum", "certify_equivalence",
           "enumerate_schedules", "exact_total_cost", "optimal_dispatch"]


class _NoFeasibleSchedule(ValueError):
    """The enumeration found no schedule whose dispatch meets demand."""


@dataclass
class OracleResult:
    """Best schedule found by enumeration, its dispatch and cost split,
    and how many dispatch-feasible schedules the search examined."""

    schedule: Schedule
    dispatch: list[list[float]]
    breakdown: CostBreakdown
    n_feasible: int


def enumerate_schedules(instance: Instance, base: str = "basic",
                        guard: int = 24):
    """Yield every on/off matrix satisfying the base's commitment-only
    rules, in lexicographic order of the flattened matrix.

    The basic base imposes nothing on v itself, so all 2^(units x T)
    matrices come out. The extended base applies the indicator logic:
    every window of min_up periods contains at most one start and the
    unit stays on for min_up periods after starting (symmetrically for
    shutdowns and min_down), and a unit offline for 0 < pre_offline <
    min_down periods entering the horizon stays off until the remainder
    of its downtime has elapsed. Production feasibility is *not* checked
    here — that is :func:`optimal_dispatch`'s job.

    ``guard`` caps units x T (the enumeration is exponential); raise it
    consciously.
    """
    check_instance(instance)
    check_base(base)
    n, T = len(instance.units), instance.horizon
    if n * T > guard:
        raise ValueError(f"enumeration guard exceeded: units x horizon = "
                         f"{n * T} > {guard}")

    def admissible(u):  # the basic base admits every row
        return (r for r in product((0, 1), repeat=T) if base == "basic"
                or _commitment_ok(r, u.min_up, u.min_down, u.pre_offline))

    if not instance.units:
        yield Schedule([])
        return
    first, *others = instance.units
    # the first unit's rows stream (product would hold them all); each
    # later unit's rows repeat, so they are listed: n >= 2 units keep
    # T <= guard / 2, i.e. at most 2^12 rows each under the default guard
    later = [list(admissible(u)) for u in others]
    for head in admissible(first):
        for tail in product(*later):
            yield Schedule([list(head)] + [list(r) for r in tail])


def _commitment_ok(row, min_up: int, min_down: int, pre_offline: int) -> bool:
    """Start/stop window rules for one unit's on/off row."""
    T = len(row)
    v_prev = 0 if pre_offline > 0 else 1
    y = [0] * (T + 1)  # 1-based
    z = [0] * (T + 1)
    for t in range(1, T + 1):
        y[t] = 1 if (row[t - 1] == 1 and v_prev == 0) else 0
        z[t] = 1 if (row[t - 1] == 0 and v_prev == 1) else 0
        v_prev = row[t - 1]
    for t in range(min_up, T + 1):
        if sum(y[t - min_up + 1:t + 1]) > row[t - 1]:
            return False
    for t in range(min_down, T + 1):
        if sum(z[t - min_down + 1:t + 1]) > 1 - row[t - 1]:
            return False
    if 0 < pre_offline < min_down:
        for t in range(1, min(T, min_down - pre_offline) + 1):
            if row[t - 1]:
                return False
    return True


def _period_bounds(u, row, t: int, T: int) -> tuple[float, float]:
    """Output interval of an online unit in period t under the fixed row.

    Start/stop speed caps apply only where the MILP rows reach: a start
    in period 1 and a run still on at T are horizon-boundary cases with
    no cap.
    """
    hi = u.p_max
    if t >= 2 and row[t - 2] == 0:
        hi = min(hi, u.startup_ramp)
    if t <= T - 1 and row[t] == 0:
        hi = min(hi, u.shutdown_ramp)
    return u.p_min, hi


def _ramps_never_bind(instance: Instance, base: str) -> bool:
    """True when dispatch decomposes period by period: every unit can
    sweep its whole output range in one step, and no line limits apply."""
    if base == "extended" and instance.network is not None \
            and instance.network.lines:
        return False
    return all(u.ramp_up >= u.p_max - u.p_min - 1e-12
               and u.ramp_down >= u.p_max - u.p_min - 1e-12
               for u in instance.units)


def _greedy_dispatch(instance: Instance, on_off) -> tuple[list, float] | None:
    """Exact merit-order dispatch for the separable case; None when some
    period's demand falls outside the online capacity window."""
    T = instance.horizon
    units = instance.units
    order = sorted(range(len(units)), key=lambda k: units[k].cost_variable)
    p = [[0.0] * T for _ in units]
    cost = 0.0
    for t in range(1, T + 1):
        lo_sum = 0.0
        bounds = {}
        for k, u in enumerate(units):
            if on_off[k][t - 1]:
                b = _period_bounds(u, on_off[k], t, T)
                bounds[k] = b
                lo_sum += b[0]
                cost += u.cost_fixed_on
        rem = instance.load[t - 1] - lo_sum
        if rem < -1e-9:
            return None
        for k in order:
            if k not in bounds:
                continue
            lo, hi = bounds[k]
            take = min(rem, hi - lo)
            p[k][t - 1] = lo + take
            rem -= take
            cost += units[k].cost_variable * p[k][t - 1]
        if rem > 1e-9:
            return None
    return p, cost


def _dispatch_lp(instance: Instance, on_off, base: str
                 ) -> tuple[list, float] | None:
    """Dispatch LP with v fixed, built directly from the physical rules."""
    T = instance.horizon
    units = instance.units
    model = Model("dispatch")
    ids = {}
    fixed_on_cost = 0.0
    for k, u in enumerate(units):
        row = on_off[k]
        for t in range(1, T + 1):
            if not row[t - 1]:
                continue
            lo, hi = _period_bounds(u, row, t, T)
            ids[k, t] = model.add_variable(f"p_{k + 1}_{t}", lo, hi)
            fixed_on_cost += u.cost_fixed_on
    model.set_objective({vid: units[k].cost_variable
                         for (k, t), vid in ids.items()})
    for t in range(1, T + 1):
        model.add_constraint(
            f"demand_{t}",
            {ids[k, t]: 1.0 for k in range(len(units)) if (k, t) in ids},
            "=", instance.load[t - 1])
    for k, u in enumerate(units):
        for t in range(2, T + 1):
            if (k, t) in ids and (k, t - 1) in ids:
                model.add_constraint(f"up_{k + 1}_{t}",
                                     {ids[k, t]: 1.0, ids[k, t - 1]: -1.0},
                                     "<=", u.ramp_up)
                model.add_constraint(f"down_{k + 1}_{t}",
                                     {ids[k, t]: -1.0, ids[k, t - 1]: 1.0},
                                     "<=", u.ramp_down)
    if base == "extended" and instance.network is not None:
        net = instance.network
        for m, line in enumerate(net.lines, 1):
            shift = sum(line.alpha.get(nd, 0.0) * g
                        for nd, g in net.nodes.items())
            for t in range(1, T + 1):
                terms = {}
                for k, u in enumerate(units):
                    w = line.alpha.get(u.node, 0.0)
                    if w != 0.0 and (k, t) in ids:
                        terms[ids[k, t]] = w
                rhs = shift * instance.load[t - 1]
                model.add_constraint(f"flow_hi_{m}_{t}", dict(terms), "<=",
                                     line.capacity + rhs)
                model.add_constraint(f"flow_lo_{m}_{t}", terms, ">=",
                                     -line.capacity + rhs)
    res = solve_lp(model)
    if res.status != "optimal":
        return None
    p = [[0.0] * T for _ in units]
    for (k, t), vid in ids.items():
        p[k][t - 1] = res.values[model.variables[vid].name]
    return p, fixed_on_cost + res.objective


def optimal_dispatch(instance: Instance, schedule: Schedule,
                     base: str = "basic") -> tuple[list[list[float]], float]:
    """Cheapest production plan under a fixed on/off schedule.

    Returns (p matrix, production cost) where the cost includes the
    per-period fixed cost of online units. ``base`` matters only for the
    line limits: the extended base enforces them, the basic base ignores
    the network entirely (mirroring the MILP builders). Raises ValueError
    if the schedule cannot meet demand.
    """
    check_instance(instance)
    if schedule.n_units != len(instance.units) \
            or schedule.horizon != instance.horizon:
        raise ValueError("schedule dimensions do not match the instance")
    out = _dispatch_lp(instance, schedule.on_off, base)
    if out is None:
        raise ValueError("infeasible schedule: demand unreachable under "
                         "limits and ramps")
    return out


def _breakdown(instance: Instance, schedule: Schedule,
               production: float) -> CostBreakdown:
    """Split the exact start-up cost of every start found by offline_runs
    into its variable and fixed parts, and total it with ``production``."""
    su_var = su_fix = 0.0
    for k, u in enumerate(instance.units):
        for _, length in offline_runs(schedule, k, u.pre_offline):
            su_var += startup_cost(u, length) - u.startup_fixed_cost
            su_fix += u.startup_fixed_cost
    return CostBreakdown(production=production, startup_variable=su_var,
                         startup_fixed=su_fix,
                         total=production + su_var + su_fix)


def exact_total_cost(instance: Instance, schedule: Schedule,
                     base: str = "basic") -> CostBreakdown:
    """Cost a fixed schedule from first principles: optimal dispatch for
    the production part, the exact exponential start-up curve (never the
    step approximation) for each start found by offline_runs."""
    _, production = optimal_dispatch(instance, schedule, base)
    return _breakdown(instance, schedule, production)


def brute_force_optimum(instance: Instance, base: str = "basic",
                        guard: int = 24) -> OracleResult:
    """Exhaustive minimum of exact_total_cost over enumerate_schedules.

    Ties go to the lexicographically first schedule. Dispatch costing
    uses the closed-form merit-order fill whenever no ramp can bind
    between consecutive online periods (and no line limits apply); the
    dispatch LP covers the rest. Every schedule gets one dispatch; one
    whose load leaves the online capacity window in some period is
    rejected by the LP's row check without a simplex run (see the module
    docstring), so it costs only the model build. ``n_feasible`` counts
    the schedules whose dispatch succeeded. Raises ValueError when no
    schedule is feasible or the size guard trips.
    """
    separable = _ramps_never_bind(instance, base)
    units = instance.units
    best = None  # (total, schedule, p, production)
    n_feasible = 0
    for sched in enumerate_schedules(instance, base, guard):
        if separable:
            out = _greedy_dispatch(instance, sched.on_off)
        else:
            out = _dispatch_lp(instance, sched.on_off, base)
        if out is None:
            continue
        n_feasible += 1
        p, production = out
        total = production
        for k, u in enumerate(units):
            for _, length in offline_runs(sched, k, u.pre_offline):
                total += startup_cost(u, length)
        if best is None or total < best[0] - 1e-12:
            best = (total, sched, p, production)
    if best is None:
        raise _NoFeasibleSchedule("no feasible schedule: every commitment "
                                  "pattern fails to meet demand")
    _, sched, p, production = best
    return OracleResult(schedule=sched, dispatch=p,
                        breakdown=_breakdown(instance, sched, production),
                        n_feasible=n_feasible)


def certify_equivalence(instance: Instance, base: str = "basic",
                        guard: int = 24) -> dict:
    """Solve all four formulations at exact costs (Ktol = 0) and compare
    against the enumeration: a JSON-ready report, conclusive when all four
    end as it does (optimal if some schedule is feasible, infeasible if
    none is). A size-guard trip or any other status marks it inconclusive
    instead of raising."""
    # imported at call time, so that a wrapped formulations.build_model
    # (perfbench's tracing wraps it) is the one called
    from .formulations import build_model

    report: dict = {"instance": instance.name, "base": base,
                    "formulations": {}, "conclusive": True}
    try:
        oracle = brute_force_optimum(instance, base, guard)
        report["oracle"] = {
            "objective": oracle.breakdown.total,
            "schedule": [list(r) for r in oracle.schedule.on_off],
            "n_feasible": oracle.n_feasible,
        }
        ref, expect = oracle.breakdown.total, "optimal"
    except ValueError as exc:  # a guard trip leaves no status to expect
        report["oracle"] = {"error": str(exc)}
        ref = None
        expect = "infeasible" if isinstance(exc, _NoFeasibleSchedule) else ""
        report["conclusive"] = bool(expect)

    objectives = []
    for startup in STARTUPS:
        model, _ = build_model(instance,
                               FormulationChoice(base, startup, 0.0))
        res = solve_mip(model, SolveConfig(gap=0.0))
        entry = {"status": res.status, "objective": res.objective,
                 "nodes": res.nodes}
        if res.status == "optimal":
            objectives.append(res.objective)
        if res.status != expect:
            report["conclusive"] = False
        report["formulations"][startup] = entry

    if ref is not None and len(objectives) == len(STARTUPS):
        scale = max(1.0, abs(ref))
        devs = [abs(z - ref) / scale for z in objectives]
        devs.append((max(objectives) - min(objectives)) / scale)
        report["max_rel_deviation"] = max(devs)
    else:
        report["max_rel_deviation"] = None
    return report
