"""Builders translating an :class:`~ucbench.domain.Instance` into a unit
commitment MILP: a base constraint set plus one start-up cost module.

Two bases are supported. The *basic* base uses only the on/off binaries
``v`` and productions ``p``: demand balance, production limits, and the
classic three-row ramping family in which start-up/shutdown speeds ride
on differences of consecutive ``v``. The *extended* base adds start-up
and shutdown indicator binaries ``y``, ``z`` tied to ``v`` by logic
equalities, a tighter indicator-based ramping family (some rows emitted
only when the unit's parameters make them valid — see the gate notes on
each family), minimum up/down window rows, and PTDF line limits when the
instance carries a network.

Start-up costs come from exactly one of four interchangeable modules:

- ``one_bin``      lookback rows bounding cu from below, on ``v`` alone;
- ``one_bin_star`` the same rows with lightened lookback coefficients,
                   dominating the plain version point-wise;
- ``three_bin``    start-type selectors ``d`` charged per off-time class,
                   driven by the shutdown history ``z``;
- ``temp``         continuous temperature/heating dynamics whose heating
                   cost reproduces the exponential start-up curve exactly.

Variable naming is a public contract: ``v_i_t``, ``p_i_t``, ``cu_i_t``,
``y_i_t``, ``z_i_t``, ``tmp_i_t``, ``h_i_t`` (with ``h_i_0`` present),
``d_i_t_s``; unit positions ``i``, periods ``t``, and start types ``s``
are 1-based. The step-based modules build each unit's step table over
every off-time observable in the horizon — up to T-1 for interior gaps
plus the unit's recorded pre-horizon outage — so at ktol 0 all four
modules charge identical start-up costs on every feasible schedule.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .domain import Instance, check_instance
from .milp import INF, Model
from .startup import StepFunction, approximate_steps, check_ktol

log = logging.getLogger(__name__)

BASES = ("basic", "extended")
STARTUPS = ("one_bin", "one_bin_star", "three_bin", "temp")


def check_base(base: str) -> None:
    """Raise ValueError unless ``base`` is one of BASES."""
    if base not in BASES:
        raise ValueError(f"unknown base {base!r}; expected one of {BASES}")


def check_startup(startup: str) -> None:
    """Raise ValueError unless ``startup`` is one of STARTUPS."""
    if startup not in STARTUPS:
        raise ValueError(f"unknown formulation {startup!r}; expected one of "
                         f"{STARTUPS}")


@dataclass
class FormulationChoice:
    """Which base and start-up module to build, and at what step tolerance.

    ``ktol`` controls the step approximation of the start-up cost curve
    and is ignored by ``temp`` (which needs no step table).
    """

    base: str = "basic"
    startup: str = "one_bin"
    ktol: float = 0.0

    def __post_init__(self):
        check_base(self.base)
        check_startup(self.startup)
        check_ktol(self.ktol)


@dataclass
class VarIndex:
    """Variable ids of a built model, keyed by 1-based (unit, period).

    ``h`` is keyed from period 0 (the pre-horizon heating slot) and ``d``
    by (unit, period, start type). Families a formulation does not use
    stay empty. ``steps`` holds the per-unit step functions used by the
    step-based start-up modules, keyed by unit id.
    """

    n_units: int
    horizon: int
    v: dict = field(default_factory=dict)
    p: dict = field(default_factory=dict)
    cu: dict = field(default_factory=dict)
    y: dict = field(default_factory=dict)
    z: dict = field(default_factory=dict)
    tmp: dict = field(default_factory=dict)
    h: dict = field(default_factory=dict)
    d: dict = field(default_factory=dict)
    steps: dict = field(default_factory=dict)


def _model_name(*parts: str) -> str:
    name = "_".join(p for p in parts if p)
    name = re.sub(r"[^A-Za-z0-9_]", "_", name)[:200]
    if not name or not name[0].isalpha():
        name = "m_" + name
    return name


def build_base(instance: Instance, base: str = "basic") -> tuple[Model, VarIndex]:
    """Create the model skeleton: v/p variables, production costs in the
    objective, demand balance, limits, and the base's ramping machinery.

    Start-up cost variables are *not* created here; attach one of the
    ``add_startup_*`` modules (or use :func:`build_model`).
    """
    check_instance(instance)
    check_base(base)
    T = instance.horizon
    units = instance.units
    model = Model(_model_name(instance.name, base))
    vix = VarIndex(n_units=len(units), horizon=T)

    for i in range(1, len(units) + 1):
        for t in range(1, T + 1):
            vix.v[i, t] = model.add_variable(f"v_{i}_{t}", 0, 1, kind="binary")
    for i in range(1, len(units) + 1):
        for t in range(1, T + 1):
            vix.p[i, t] = model.add_variable(f"p_{i}_{t}", 0, INF)

    obj = {}
    for i, u in enumerate(units, 1):
        for t in range(1, T + 1):
            obj[vix.v[i, t]] = u.cost_fixed_on
            obj[vix.p[i, t]] = u.cost_variable
    model.set_objective(model.objective | obj)

    for t in range(1, T + 1):
        model.add_constraint(f"demand_{t}",
                             {vix.p[i, t]: 1.0
                              for i in range(1, len(units) + 1)},
                             "=", instance.load[t - 1])
    for i, u in enumerate(units, 1):
        for t in range(1, T + 1):
            model.add_constraint(f"lim_lo_{i}_{t}",
                                 {vix.p[i, t]: 1.0, vix.v[i, t]: -u.p_min},
                                 ">=", 0.0)
            model.add_constraint(f"lim_hi_{i}_{t}",
                                 {vix.p[i, t]: 1.0, vix.v[i, t]: -u.p_max},
                                 "<=", 0.0)

    if base == "basic":
        _add_basic_ramping(model, vix, instance)
    else:
        _add_indicators(model, vix, instance, with_z=True)
        _add_indicator_ramping(model, vix, instance)
        _add_min_up_down(model, vix, instance)
        _add_line_limits(model, vix, instance)
    return model, vix


def _start_stop_speeds(u) -> tuple[float, float]:
    """The unit's start-up and shutdown speeds, clamped to p_max. Speeds
    above the production ceiling cannot bind, and leaving them unclamped
    would flip coefficient signs in ramping rows that assume they sit
    within [p_min, p_max]."""
    return min(u.startup_ramp, u.p_max), min(u.shutdown_ramp, u.p_max)


def _add_basic_ramping(model: Model, vix: VarIndex, instance: Instance):
    """Ramping on (v, p) alone: up/down rows coupling consecutive periods
    (start-up and shutdown speeds enter via v-differences, with a p_max
    big-M deactivating the row across off periods) and the pre-shutdown
    cap bounding production in the last period before a shutdown."""
    T = instance.horizon
    for i, u in enumerate(instance.units, 1):
        ru, rd = u.ramp_up, u.ramp_down
        pmax = u.p_max
        su, sd = _start_stop_speeds(u)
        for t in range(2, T + 1):
            # p_t - p_{t-1} <= RU v_{t-1} + SU (v_t - v_{t-1}) + Pmax (1 - v_t)
            model.add_constraint(
                f"ramp_up_{i}_{t}",
                {vix.p[i, t]: 1.0, vix.p[i, t - 1]: -1.0,
                 vix.v[i, t - 1]: su - ru, vix.v[i, t]: pmax - su},
                "<=", pmax)
            # p_t >= p_{t-1} - RD v_t - SD (v_{t-1} - v_t) - Pmax (1 - v_{t-1})
            model.add_constraint(
                f"ramp_down_{i}_{t}",
                {vix.p[i, t]: 1.0, vix.p[i, t - 1]: -1.0,
                 vix.v[i, t]: rd - sd, vix.v[i, t - 1]: sd - pmax},
                ">=", -pmax)
        for t in range(1, T):
            # p_t <= Pmax v_{t+1} + SD (v_t - v_{t+1})
            model.add_constraint(
                f"shut_ramp_{i}_{t}",
                {vix.p[i, t]: 1.0, vix.v[i, t]: -sd,
                 vix.v[i, t + 1]: sd - pmax},
                "<=", 0.0)


def _add_indicators(model: Model, vix: VarIndex, instance: Instance,
                    with_z: bool):
    """Create start-up indicators y (and shutdown indicators z when
    ``with_z``), tied to v.

    With z the tie is the exact logic equality y_t - z_t = v_t - v_{t-1}
    (the first period compares against the pre-horizon state derived from
    pre_offline). Without z only the one-sided rows y_t >= v_t - v_{t-1}
    are emitted; cost minimization then pins y to the start indicator.
    """
    T = instance.horizon
    n = len(instance.units)
    for i in range(1, n + 1):
        for t in range(1, T + 1):
            vix.y[i, t] = model.add_variable(f"y_{i}_{t}", 0, 1, kind="binary")
    if with_z:
        for i in range(1, n + 1):
            for t in range(1, T + 1):
                vix.z[i, t] = model.add_variable(f"z_{i}_{t}", 0, 1,
                                                 kind="binary")
        for i, u in enumerate(instance.units, 1):
            # pre-horizon state: offline (0) if pre_offline > 0, else online
            rhs1 = 0.0 if u.pre_offline > 0 else -1.0
            model.add_constraint(
                f"logic_{i}_1",
                {vix.y[i, 1]: 1.0, vix.z[i, 1]: -1.0, vix.v[i, 1]: -1.0},
                "=", rhs1)
            for t in range(2, T + 1):
                model.add_constraint(
                    f"logic_{i}_{t}",
                    {vix.y[i, t]: 1.0, vix.z[i, t]: -1.0,
                     vix.v[i, t]: -1.0, vix.v[i, t - 1]: 1.0},
                    "=", 0.0)
    else:
        for i, u in enumerate(instance.units, 1):
            if u.pre_offline > 0:
                model.add_constraint(f"ystart_{i}_1",
                                     {vix.y[i, 1]: 1.0, vix.v[i, 1]: -1.0},
                                     ">=", 0.0)
            # pre-horizon online: v_1 = 1 is not a start; the row would be
            # y_1 >= v_1 - 1, vacuous, so it is skipped
            for t in range(2, T + 1):
                model.add_constraint(
                    f"ystart_{i}_{t}",
                    {vix.y[i, t]: 1.0, vix.v[i, t]: -1.0,
                     vix.v[i, t - 1]: 1.0},
                    ">=", 0.0)


def _add_indicator_ramping(model: Model, vix: VarIndex, instance: Instance):
    """Indicator-based ramping. The two main rows hold for every unit; the
    remaining families are valid only under parameter conditions (checked
    per unit) and are skipped otherwise:

    - down-ramping rows sharpened around start-ups need RD > SU - Pmin
      (plus a minimum uptime of 2, or 3 with min-downtime 2 for the
      look-ahead variant);
    - up-ramping rows sharpened around shutdowns need RU > SD - Pmin
      (plus minimum uptime 2, or min-downtime 2 for the two-period
      variant);
    - the two-period down-ramping row is emitted for all units.
    """
    T = instance.horizon
    for i, u in enumerate(instance.units, 1):
        ru, rd, pmin = u.ramp_up, u.ramp_down, u.p_min
        su, sd = _start_stop_speeds(u)
        v, p, y, z = vix.v, vix.p, vix.y, vix.z
        for t in range(2, T + 1):
            # p_t - p_{t-1} <= RU v_{t-1} + SU y_t
            model.add_constraint(
                f"ramp_up_{i}_{t}",
                {p[i, t]: 1.0, p[i, t - 1]: -1.0,
                 v[i, t - 1]: -ru, y[i, t]: -su},
                "<=", 0.0)
            # p_{t-1} - p_t <= RD v_t + SD z_t
            model.add_constraint(
                f"ramp_down_{i}_{t}",
                {p[i, t - 1]: 1.0, p[i, t]: -1.0,
                 v[i, t]: -rd, z[i, t]: -sd},
                "<=", 0.0)
        gate_down = rd > su - pmin
        gate_up = ru > sd - pmin
        if gate_down and u.min_up >= 2:
            for t in range(2, T + 1):
                model.add_constraint(
                    f"rampdn_start_{i}_{t}",
                    {p[i, t - 1]: 1.0, p[i, t]: -1.0, v[i, t]: -rd,
                     z[i, t]: -sd, y[i, t - 1]: rd - su + pmin,
                     y[i, t]: rd + pmin},
                    "<=", 0.0)
        if gate_down and u.min_up >= 3 and u.min_down >= 2:
            for t in range(2, T):
                model.add_constraint(
                    f"rampdn_close_{i}_{t}",
                    {p[i, t - 1]: 1.0, p[i, t]: -1.0, v[i, t + 1]: -rd,
                     y[i, t - 1]: rd - su + pmin, y[i, t]: rd + pmin,
                     y[i, t + 1]: rd, z[i, t]: -sd, z[i, t + 1]: -rd},
                    "<=", 0.0)
        for t in range(3, T + 1):
            # two-period down-ramping with start/stop corrections
            model.add_constraint(
                f"rampdn_two_{i}_{t}",
                {p[i, t - 2]: 1.0, p[i, t]: -1.0, v[i, t]: -2 * rd,
                 z[i, t - 1]: -sd, z[i, t]: -(sd + rd),
                 y[i, t - 2]: 2 * rd, y[i, t - 1]: 2 * rd + pmin,
                 y[i, t]: 2 * rd + pmin},
                "<=", 0.0)
        if gate_up and u.min_up >= 2:
            for t in range(2, T):
                model.add_constraint(
                    f"rampup_stop_{i}_{t}",
                    {p[i, t]: 1.0, p[i, t - 1]: -1.0, v[i, t]: -ru,
                     y[i, t]: ru - su, z[i, t]: pmin,
                     z[i, t + 1]: ru - sd + pmin},
                    "<=", 0.0)
        if gate_up and u.min_down >= 2:
            for t in range(3, T):
                model.add_constraint(
                    f"rampup_two_{i}_{t}",
                    {p[i, t]: 1.0, p[i, t - 2]: -1.0, v[i, t]: -2 * ru,
                     z[i, t - 1]: pmin, z[i, t]: pmin,
                     y[i, t - 1]: ru - su, y[i, t]: 2 * ru - su},
                    "<=", 0.0)


def _add_min_up_down(model: Model, vix: VarIndex, instance: Instance):
    """Window rows over the indicators: every start in the trailing
    min-up window forces v on; every shutdown in the trailing min-down
    window forces v off. Units offline for 0 < PD < min_down periods
    before the horizon also get residual rows keeping them off until the
    min-down time has fully elapsed."""
    T = instance.horizon
    for i, u in enumerate(instance.units, 1):
        ut, dt = u.min_up, u.min_down
        for t in range(ut, T + 1):
            terms = {vix.y[i, k]: 1.0 for k in range(t - ut + 1, t + 1)}
            terms[vix.v[i, t]] = -1.0
            model.add_constraint(f"minup_{i}_{t}", terms, "<=", 0.0)
        for t in range(dt, T + 1):
            terms = {vix.z[i, k]: 1.0 for k in range(t - dt + 1, t + 1)}
            terms[vix.v[i, t]] = 1.0
            model.add_constraint(f"mindown_{i}_{t}", terms, "<=", 1.0)
        if 0 < u.pre_offline < dt:
            for t in range(1, min(T, dt - u.pre_offline) + 1):
                terms = {vix.z[i, k]: 1.0 for k in range(1, t + 1)}
                terms[vix.v[i, t]] = 1.0
                model.add_constraint(f"predown_{i}_{t}", terms, "<=", 0.0)


def _add_line_limits(model: Model, vix: VarIndex, instance: Instance):
    """Two rows per line and period capping the PTDF-weighted net
    injection; the load side folds into the right-hand side."""
    net = instance.network
    if net is None:
        log.debug("extended base built without a network; "
                  "line limit family is empty")
        return
    T = instance.horizon
    for m, line in enumerate(net.lines, 1):
        shift = sum(line.alpha.get(n, 0.0) * g for n, g in net.nodes.items())
        weights = [(i, line.alpha.get(u.node, 0.0))
                   for i, u in enumerate(instance.units, 1)]
        for t in range(1, T + 1):
            terms = {vix.p[i, t]: w for i, w in weights if w != 0.0}
            rhs = shift * instance.load[t - 1]
            model.add_constraint(f"flow_hi_{m}_{t}", dict(terms), "<=",
                                 line.capacity + rhs)
            model.add_constraint(f"flow_lo_{m}_{t}", dict(terms), ">=",
                                 -line.capacity + rhs)


# ---------------------------------------------------------------------------
# start-up cost modules
# ---------------------------------------------------------------------------

def _add_cu(model: Model, vix: VarIndex, with_cost: bool) -> None:
    for i in range(1, vix.n_units + 1):
        for t in range(1, vix.horizon + 1):
            vix.cu[i, t] = model.add_variable(f"cu_{i}_{t}", 0, INF)
    if with_cost:
        model.set_objective(model.objective
                            | {vid: 1.0 for vid in vix.cu.values()})


def _window(instance: Instance, u) -> int:
    """Pricing window of one unit: the horizon plus its recorded outage,
    so that a start in period t can be charged for up to t-1+PD offline
    periods instead of saturating at the step-table end."""
    return instance.horizon + u.pre_offline


def step_functions(instance: Instance, ktol: float) -> dict:
    """Each unit's StepFunction over its pricing window, by unit id."""
    return {u.id: approximate_steps(u, _window(instance, u), ktol)
            for u in instance.units}


def _step_table(sf: StepFunction, window: int) -> np.ndarray:
    """Array K[0..window-1] of approximated costs with K[0] = 0; off-times
    past the step domain are priced at the final step."""
    ktab = np.zeros(window, dtype=np.float64)
    for step in sf.steps:
        if step.lo <= window - 1:
            ktab[step.lo:min(step.hi, window - 1) + 1] = step.value
    if sf.domain_end + 1 < window:
        ktab[sf.domain_end + 1:] = ktab[sf.domain_end]
    return ktab


def add_startup_1bin(model: Model, vix: VarIndex, instance: Instance,
                     steps: dict[str, StepFunction],
                     tightened: bool = False) -> None:
    """Lookback rows bounding cu below on the on/off binaries alone.

    For each period t and off-time l at which the step table strictly
    increases, one row forces cu to at least the approximated cost of an
    l-period start unless some lookback period was online. The plain form
    puts the full cost coefficient on every lookback binary; the
    tightened form lowers the coefficient of v_{t-n} to (K(l) - K(n-1)),
    which dominates the plain rows point-wise on [0,1] relaxations.

    Lookback reaching before the horizon is resolved from pre_offline:
    offline periods contribute zero terms (extending the effective
    off-time a unit can be charged for, up to t-1+PD); once the lookback
    leaves the recorded outage the row is vacuously satisfied and skipped.
    """
    T = instance.horizon
    _add_cu(model, vix, with_cost=True)
    vix.steps = dict(steps)
    for i, u in enumerate(instance.units, 1):
        try:
            sf = steps[u.id]
        except KeyError:
            raise ValueError(f"no step function for unit {u.id!r}") from None
        window = _window(instance, u)
        ktab = _step_table(sf, window).tolist()
        rising = [l for l in range(1, window) if ktab[l] > ktab[l - 1]]
        for t in range(1, T + 1):
            cap = t - 1 + u.pre_offline
            for l in rising:
                if l > cap:
                    break
                kl = ktab[l]
                terms = [(vix.v[i, t - n], kl - ktab[n - 1] if tightened
                          else kl) for n in range(min(l, t - 1), 0, -1)]
                terms += [(vix.v[i, t], -kl), (vix.cu[i, t], 1.0)]
                model.add_constraint(f"su1_{i}_{t}_{l}", terms, ">=", 0.0)


def add_startup_3bin(model: Model, vix: VarIndex, instance: Instance,
                     steps: dict[str, StepFunction]) -> None:
    """Start-type selectors: one continuous d(i,t,s) in [0,1] per start
    type (one type per step of the unit's cost table), charged that
    step's cost in the objective. The selectors of each (unit, period)
    sum to the start indicator; each non-final type is additionally
    capped by the shutdown indicators of the off-times it covers, so a
    cheap type is claimable only when a real shutdown makes it plausible.

    Early periods whose cap window reaches before the horizon resolve the
    missing shutdown indicators from the unit's recorded outage: if the
    outage began inside the window the row would be vacuous and is
    skipped (that type is genuinely available), otherwise the pre-horizon
    terms are zero and the row keeps only its in-horizon part. Units that
    entered the horizon online get no early rows at all — no shutdown is
    visible there, and cost minimization never claims a type above the
    true one.

    cu is tied to the selector cost by an equality so per-period start-up
    costs stay reportable; the objective carries the d terms.
    """
    T = instance.horizon
    if not vix.y:
        _add_indicators(model, vix, instance, with_z=True)
    if not vix.z:
        raise ValueError("start-type rows need shutdown indicators; "
                         "build the base with them or use a fresh model")
    _add_cu(model, vix, with_cost=False)
    vix.steps = dict(steps)
    obj = {}
    for i, u in enumerate(instance.units, 1):
        try:
            sf = steps[u.id]
        except KeyError:
            raise ValueError(f"no step function for unit {u.id!r}") from None
        for t in range(1, T + 1):
            for s in range(1, sf.n_steps + 1):
                vid = model.add_variable(f"d_{i}_{t}_{s}", 0, 1)
                vix.d[i, t, s] = vid
                obj[vid] = sf.steps[s - 1].value
    model.set_objective(model.objective | obj)

    for i, u in enumerate(instance.units, 1):
        sf = steps[u.id]
        S = sf.n_steps
        for t in range(1, T + 1):
            d = [vix.d[i, t, s] for s in range(1, S + 1)]
            if S:  # an empty step table (no off-times) has no selectors
                model.add_constraint(
                    f"ssum_{i}_{t}",
                    [(vix.y[i, t], -1.0)] + [(vid, 1.0) for vid in d],
                    "=", 0.0)
            # zero-cost steps drop out of the tie
            model.add_constraint(
                f"sdef_{i}_{t}",
                [(vix.cu[i, t], 1.0)]
                + [(vid, -st.value) for vid, st in zip(d, sf.steps)],
                "=", 0.0)
        for s in range(1, S):  # the final type is never capped
            lo, hi = sf.steps[s - 1].lo, sf.steps[s - 1].hi
            for t in range(hi + 1, T + 1):
                terms = [(vix.z[i, k], -1.0) for k in range(t - hi, t - lo + 1)]
                terms.append((vix.d[i, t, s], 1.0))
                model.add_constraint(f"stype_{i}_{t}_{s}", terms, "<=", 0.0)
            if u.pre_offline <= 0:
                continue  # entered online: no pre-horizon shutdown visible
            outage_start = 1 - u.pre_offline
            for t in range(1, min(hi, T) + 1):
                if t - hi <= outage_start <= t - lo:
                    continue  # the recorded outage itself covers the type
                terms = [(vix.z[i, k], -1.0)
                         for k in range(max(1, t - hi), t - lo + 1)]
                terms.append((vix.d[i, t, s], 1.0))
                model.add_constraint(f"stype_{i}_{t}_{s}", terms, "<=", 0.0)


def add_startup_temp(model: Model, vix: VarIndex, instance: Instance
                     ) -> None:
    """Temperature dynamics: tmp decays geometrically while offline, is
    held at 1 while online, and may be raised by nonnegative heating h.
    Heating purchased in the period before a start is exactly the heat
    lost while offline, so cu = V·h(t-1) + F·y(t) reproduces the
    exponential start-up cost curve without any step approximation.
    """
    T = instance.horizon
    if not vix.y:
        _add_indicators(model, vix, instance, with_z=False)
    _add_cu(model, vix, with_cost=True)
    for i in range(1, vix.n_units + 1):
        for t in range(1, T + 1):
            vix.tmp[i, t] = model.add_variable(f"tmp_{i}_{t}", 0, INF)
    for i, u in enumerate(instance.units, 1):
        # h_i_0 can reheat a pre-horizon outage; with none it is pinned 0
        ub0 = INF if u.pre_offline > 0 else 0.0
        vix.h[i, 0] = model.add_variable(f"h_{i}_0", 0, ub0)
        for t in range(1, T):
            vix.h[i, t] = model.add_variable(f"h_{i}_{t}", 0, INF)

    for i, u in enumerate(instance.units, 1):
        lam = u.heat_loss
        decay = math.exp(-lam)
        for t in range(1, T + 1):
            model.add_constraint(
                f"tnorm_{i}_{t}",
                {vix.tmp[i, t]: 1.0, vix.v[i, t]: -1.0}, ">=", 0.0)
        if u.pre_offline > 0:
            model.add_constraint(
                f"trec_{i}_1",
                {vix.tmp[i, 1]: 1.0, vix.h[i, 0]: -1.0},
                "=", math.exp(-lam * u.pre_offline))
        else:
            model.add_constraint(
                f"trec_{i}_1", {vix.tmp[i, 1]: 1.0}, "=", 1.0)
        for t in range(2, T + 1):
            model.add_constraint(
                f"trec_{i}_{t}",
                {vix.tmp[i, t]: 1.0, vix.tmp[i, t - 1]: -decay,
                 vix.v[i, t - 1]: -(1.0 - decay), vix.h[i, t - 1]: -1.0},
                "=", 0.0)
        for t in range(1, T + 1):
            model.add_constraint(
                f"tcost_{i}_{t}",
                {vix.cu[i, t]: 1.0, vix.h[i, t - 1]: -u.startup_var_cost,
                 vix.y[i, t]: -u.startup_fixed_cost},
                "=", 0.0)


def build_model(instance: Instance,
                choice: FormulationChoice) -> tuple[Model, VarIndex]:
    """Build the full MILP for one formulation choice."""
    model, vix = build_base(instance, choice.base)
    model.name = _model_name(instance.name, choice.base, choice.startup)
    if choice.startup == "temp":
        add_startup_temp(model, vix, instance)
    else:
        steps = step_functions(instance, choice.ktol)
        if choice.startup == "three_bin":
            add_startup_3bin(model, vix, instance, steps)
        else:
            add_startup_1bin(model, vix, instance, steps,
                             tightened=choice.startup == "one_bin_star")
    return model, vix
