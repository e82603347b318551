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

Each instance has one dispatch model, built once: the LP of the schedule
that keeps every unit online, with an output variable for every unit
and period and every demand, ramp and line row. A schedule's dispatch LP
is a copy of it with new bounds and right-hand sides
(:meth:`Model.rebound`): an online period gets ``_period_bounds``, an
offline one [0, 0]. A ramp row caps the change between two online
periods only; a pair of periods that is not online in both gets that
row's largest activity within the new bounds as its right-hand side
(``ub_t - lb_{t-1}`` for ``up``, ``ub_{t-1} - lb_t`` for ``down``), so it
cannot bind, and the row check below always passes it. A start or a
stop is capped by its speed bound alone.

All of that depends on one unit's own on/off row, so each admissible
row is priced once (``_price_row``): its bounds, its ramp pairs'
right-hand sides, its fixed-on cost terms and its start-up costs. A
schedule's bounds and right-hand sides are then those of its units'
priced rows, one after another, and its costs are summed from them unit
by unit, period by period and start by start, as a schedule priced
whole would sum them. The later units' priced rows are listed, since
every head repeats them; the first unit's rows stream, each priced once
as the enumeration reaches it, so that a one-unit instance over a long
horizon holds one of them at a time.

Almost every enumerated schedule fails on capacity alone: in some
period the load lies outside [sum of lo, sum of hi] of the online units'
``_period_bounds``. Those bounds are the dispatch variables' bounds and
the demand row sums exactly those variables (an offline unit's is fixed
at 0), so ``solve_lp``'s row check (``solver._unreachable_row``) rejects
such a dispatch LP before any simplex work. That rejection is sound: it
fires only when the load is farther outside the window than twice the
row residual the simplex accepts, 1e-6 * (1 + max|rhs|) over the model's
own right-hand sides (loads, ramp rows, line rows), so the simplex could
not have called the LP optimal either. The merit-order fill checks the
same window itself, at 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from . import formulations
from .domain import (CostBreakdown, Instance, Schedule, check_instance,
                     offline_runs)
from .formulations import STARTUPS, FormulationChoice, check_base
from .milp import Model
from .solver import SolveConfig, root_start, solve_lp, solve_mip
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
    return (Schedule([list(r) for r in rows])
            for rows in _schedules(instance, base, guard, lambda u, r: r))


def _schedules(instance: Instance, base: str, guard: int, price):
    """The enumeration behind :func:`enumerate_schedules`, checks and
    order included: each schedule as a tuple of ``price(unit, row)``, one
    per unit, where ``row`` is the unit's on/off row as a tuple. Each
    later unit's rows are priced once and listed; the first unit's rows
    stream and are priced once each, so the enumeration holds one of them
    at a time."""
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
        yield ()
        return
    first, *others = instance.units
    # the first unit's rows stream (product would hold them all); each
    # later unit's rows repeat, so they are listed: n >= 2 units keep
    # T <= guard / 2, i.e. at most 2^12 rows each under the default guard
    later = [[price(u, r) for r in admissible(u)] for u in others]
    for head in admissible(first):
        head = price(first, head)
        for tail in product(*later):
            yield (head, *tail)


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


def _dispatch_template(instance: Instance, base: str) -> Model:
    """The dispatch LP of the schedule that keeps every unit online, built
    directly from the physical rules: ``p_k_t`` for every unit and period,
    the demand rows over all units, an ``up``/``down`` ramp pair for every
    two consecutive periods and, on the extended base, the line rows over
    every unit with a nonzero factor. ``_dispatch`` re-bounds a copy of
    it for any schedule."""
    T = instance.horizon
    units = instance.units
    model = Model("dispatch")
    # p_{k+1}_t is column k * T + t - 1
    model.add_variables(
        [f"p_{k + 1}_{t}" for k in range(len(units)) for t in range(1, T + 1)],
        [u.p_min for u in units for _ in range(T)],
        [u.p_max for u in units for _ in range(T)],
        ["continuous"] * (len(units) * T),
        [u.cost_variable for u in units for _ in range(T)])
    names, senses, rhs, starts, ids, coeffs = [], [], [], [0], [], []

    def row(name, terms, sense, b):
        """Queue one row; terms are (id, coeff) pairs in increasing id."""
        names.append(name)
        senses.append(sense)
        rhs.append(b)
        for j, a in terms:
            ids.append(j)
            coeffs.append(a)
        starts.append(len(ids))

    for t in range(1, T + 1):
        row(f"demand_{t}", [(k * T + t - 1, 1.0) for k in range(len(units))],
            "=", instance.load[t - 1])
    for k, u in enumerate(units):
        for t in range(2, T + 1):
            j = k * T + t - 1
            row(f"up_{k + 1}_{t}", [(j - 1, -1.0), (j, 1.0)], "<=",
                u.ramp_up)
            row(f"down_{k + 1}_{t}", [(j - 1, 1.0), (j, -1.0)], "<=",
                u.ramp_down)
    if base == "extended" and instance.network is not None:
        net = instance.network
        for m, line in enumerate(net.lines, 1):
            shift = sum(line.alpha.get(nd, 0.0) * g
                        for nd, g in net.nodes.items())
            for t in range(1, T + 1):
                terms = []
                for k, u in enumerate(units):
                    w = line.alpha.get(u.node, 0.0)
                    if w != 0.0:
                        terms.append((k * T + t - 1, w))
                b = shift * instance.load[t - 1]
                row(f"flow_hi_{m}_{t}", terms, "<=", line.capacity + b)
                row(f"flow_lo_{m}_{t}", terms, ">=", -line.capacity + b)
    model.add_rows(names, senses, rhs, starts, ids, coeffs)
    return model


class _UnitRow(NamedTuple):
    """One unit's on/off row, priced for the dispatch LP: what a schedule
    holding it needs of that unit, the same for every such schedule."""

    on: tuple
    lb: list[float]  # the unit's output bounds, period by period:
    ub: list[float]  # _period_bounds when online, [0, 0] when offline
    ramp_rhs: list[float]  # its up/down pairs' right-hand sides, t = 2..T
    fixed_on: list[float]  # its fixed cost, once per online period
    startups: list[float]  # startup_cost of each start, as offline_runs
                           # lists them


def _price_row(u, row) -> _UnitRow:
    """Price one unit's row (see :class:`_UnitRow`). A ramp pair online in
    both periods keeps the template's ``ramp_up``/``ramp_down``; any other
    pair gets the row's largest activity within the row's bounds, so that
    it cannot bind."""
    T = len(row)
    lb, ub, fixed_on = [0.0] * T, [0.0] * T, []
    for t in range(1, T + 1):
        if row[t - 1]:
            lb[t - 1], ub[t - 1] = _period_bounds(u, row, t, T)
            fixed_on.append(u.cost_fixed_on)
    ramp_rhs = []
    for t in range(1, T):  # the pair of periods t and t + 1
        if row[t - 1] and row[t]:
            ramp_rhs += (u.ramp_up, u.ramp_down)
        else:
            ramp_rhs += (ub[t] - lb[t - 1], ub[t - 1] - lb[t])
    startups = [startup_cost(u, length) for _, length
                in offline_runs(Schedule([list(row)]), 0, u.pre_offline)]
    return _UnitRow(tuple(row), lb, ub, ramp_rhs, fixed_on, startups)


def _dispatch(template: Model, instance: Instance, rows
              ) -> tuple[list, float] | None:
    """Dispatch LP with v fixed: a copy of ``template`` (see
    ``_dispatch_template``) with the bounds and ramp right-hand sides of
    the schedule's priced rows (:func:`_price_row`, one per unit, in unit
    order); the demand and line rows keep theirs. Returns the dispatch
    and its cost, the fixed costs of the online periods included, or
    None when the LP is not optimal."""
    T = instance.horizon
    lb, ub, rhs = [], [], template.rhs[:T]  # the demand rows come first
    for r in rows:
        lb += r.lb
        ub += r.ub
        rhs += r.ramp_rhs
    rhs += template.rhs[len(rhs):]  # the line rows
    res = solve_lp(template.rebound(lb, ub, rhs))
    if res.status != "optimal":
        return None
    fixed_on_cost = 0.0  # unit by unit, period by period
    p = []
    for k, r in enumerate(rows):
        for c in r.fixed_on:
            fixed_on_cost += c
        p.append([res.values[template.var_names[k * T + t]] if on else 0.0
                  for t, on in enumerate(r.on)])
    return p, fixed_on_cost + res.objective


def optimal_dispatch(instance: Instance, schedule: Schedule,
                     base: str = "basic") -> tuple[list[list[float]], float]:
    """Cheapest production plan under a fixed on/off schedule.

    Returns (p matrix, production cost) where the cost includes the
    per-period fixed cost of online units. ``base`` matters only for the
    line limits: the extended base enforces them, the basic base ignores
    the network entirely (mirroring the MILP builders). The LP is the
    instance's one dispatch model re-bounded for the schedule's priced
    rows, the path :func:`brute_force_optimum` takes (see the module
    docstring: a ramp pair that is not online in both periods gets a
    right-hand side that cannot bind). Raises ValueError if the schedule
    cannot meet demand.
    """
    check_instance(instance)
    if schedule.n_units != len(instance.units) \
            or schedule.horizon != instance.horizon:
        raise ValueError("schedule dimensions do not match the instance")
    out = _dispatch(_dispatch_template(instance, base), instance,
                    [_price_row(u, row)
                     for u, row in zip(instance.units, schedule.on_off)])
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
    dispatch LP covers the rest. There the instance's dispatch model is
    built once, and every schedule gets one LP, a copy of it re-bounded
    from the schedule's priced rows; a ramp pair that is not online in
    both periods gets a right-hand side that cannot bind, so the copy has
    the rows of the schedule's own LP and inert ones (see the module
    docstring). A schedule whose load leaves the online capacity window
    in some period is rejected by the LP's row check without a simplex
    run, so it costs only the copy. ``n_feasible`` counts the schedules
    whose dispatch succeeded. Raises ValueError when no schedule is
    feasible or the size guard trips.
    """
    separable = _ramps_never_bind(instance, base)
    best = None  # (total, rows, p, production)
    n_feasible = 0
    template = None  # built once the enumeration has checked the instance
    for rows in _schedules(instance, base, guard, _price_row):
        if separable:
            out = _greedy_dispatch(instance, [r.on for r in rows])
        else:
            template = template or _dispatch_template(instance, base)
            out = _dispatch(template, instance, rows)
        if out is None:
            continue
        n_feasible += 1
        p, production = out
        total = production
        for r in rows:  # unit by unit, each start in offline_runs order
            for c in r.startups:
                total += c
        if best is None or total < best[0] - 1e-12:
            best = (total, rows, p, production)
    if best is None:
        raise _NoFeasibleSchedule("no feasible schedule: every commitment "
                                  "pattern fails to meet demand")
    _, rows, p, production = best
    sched = Schedule([list(r.on) for r in rows])
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
    # one base for the four modules, and one base LP whose optimal basis
    # starts their roots; both builders are looked up on the module when
    # called, so a wrapped one (perfbench wraps them) is used
    shared = formulations.build_base(instance, base)
    start = root_start(shared[0])
    for startup in STARTUPS:
        model, _ = formulations.build_model(
            instance, FormulationChoice(base, startup, 0.0), base=shared)
        res = solve_mip(model, SolveConfig(gap=0.0), start=start)
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
