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

:func:`build_base` and each ``add_startup_*`` module add their variables,
each family with its costs, through one
:meth:`~ucbench.milp.Model.add_variables` call, keep the ids that call
returns as the per-unit lists their rows index (:class:`VarIndex`), and
gather their rows family by family, in model order, for one
:meth:`~ucbench.milp.Model.add_rows` call (one per ``_FLUSH_TERMS``
terms on a large model). The step-based modules derive each unit's step
table from ktol before they touch the model.

The modules only add to the model and assign :class:`VarIndex`
attributes, so several modules can share one base: :func:`build_model`
takes a base that :func:`build_base` returned and extends a copy of it,
which shares no container with the base. A comparison of the four
modules on one instance builds its base once.
"""

from __future__ import annotations

import logging
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, product, repeat

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
    """Variable ids of a built model, as the lists its rows index: each
    family holds one list per unit, in unit order, indexed by period.

    ``v[k][t]`` is the id of ``v_{k+1}_t`` for periods t = 1..T (index 0
    is None), and so are ``p``, ``cu``, ``y``, ``z`` and ``tmp``; ``h[k][t]``
    runs from period 0 (the pre-horizon heating slot) to T-1; ``d[k][s-1][t]``
    is the selector of start type s, indexed as ``v``. A family's term over
    periods t = a..b is a slice of such a list: ``v[k][2:]`` holds v_t for
    t = 2..T and ``v[k][1:T]`` holds v_{t-1} for the same t. Families a
    formulation does not use stay empty.
    """

    n_units: int
    horizon: int
    v: list = field(default_factory=list)
    p: list = field(default_factory=list)
    cu: list = field(default_factory=list)
    y: list = field(default_factory=list)
    z: list = field(default_factory=list)
    tmp: list = field(default_factory=list)
    h: list = field(default_factory=list)
    d: list = field(default_factory=list)


def _model_name(*parts: str) -> str:
    name = "_".join(p for p in parts if p)
    name = re.sub(r"[^A-Za-z0-9_]", "_", name)[:200]
    if not name or not name[0].isalpha():
        name = "m_" + name
    return name


# a builder hands its rows to Model.add_rows each time it holds this many
# terms, which bounds the builder's lists and the arrays add_rows converts
# them to before it checks and stores them
_FLUSH_TERMS = 1 << 20


class _Rows:
    """The rows of one builder, gathered family by family in model order
    and added to ``model`` by :meth:`Model.add_rows`: all in one call at
    :meth:`flush` unless they pass ``_FLUSH_TERMS`` terms before it.

    :meth:`add` takes a family as a run of cells, one per unit and period
    (say), each holding one row of every kind the family interleaves:
    ``lim_lo`` then ``lim_hi``, or a single kind. A kind is
    ``(sense, rhs, terms)``; a term is a sequence of variable ids, one per
    cell, and one coefficient for every cell. A right-hand side is one
    number for every cell or a sequence of one per cell. :meth:`add_flat`
    takes rows of any width.

    The rows gather in lists, which add_rows converts to arrays once,
    checks with numpy and stores. The builders list each row's terms in
    id order, which is the order they create the variables in (v, p, y,
    z, then the module's own), so that add_rows checks the block whole
    rather than row by row."""

    def __init__(self, model: Model):
        self.model = model
        self._clear()

    def _clear(self) -> None:
        self.names: list[str] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.lengths: list[int] = []
        self.ids: list[int] = []
        self.coeffs: list[float] = []

    def add(self, names: list[str], *kinds) -> None:
        n = len(names) // len(kinds)
        if not n:
            return
        senses, rhs, terms = zip(*kinds)
        self.names += names
        self.senses += senses * n
        self.rhs += chain.from_iterable(zip(
            *(repeat(r, n) if isinstance(r, (float, int)) else r
              for r in rhs), strict=True))
        self.lengths += tuple(map(len, terms)) * n
        terms = list(chain.from_iterable(terms))
        if terms:
            ids, coeffs = zip(*terms)
            self.ids += chain.from_iterable(zip(*ids, strict=True))
            self.coeffs += coeffs * n
        if len(self.ids) >= _FLUSH_TERMS:
            self.flush()

    def add_flat(self, names: list[str], sense: str, rhs: float, lengths,
                 ids, coeffs) -> None:
        """Rows of any width with one sense and right-hand side: row r has
        ``lengths[r]`` terms, taken in turn from the iterables ``ids`` and
        ``coeffs``."""
        self.names += names
        self.senses += [sense] * len(names)
        self.rhs += [rhs] * len(names)
        self.lengths += lengths
        self.ids += ids
        self.coeffs += coeffs
        if len(self.ids) >= _FLUSH_TERMS:
            self.flush()

    def flush(self) -> None:
        """Add the rows gathered so far to the model."""
        if self.names:
            self.model.add_rows(self.names, self.senses, self.rhs,
                                list(accumulate(self.lengths, initial=0)),
                                self.ids, self.coeffs)
            self._clear()


def _family(name: str, keys: list, ub, kind: str = "continuous",
            cost=0.0) -> tuple:
    """A variable family for :func:`_add_vars`: one variable per (unit,
    period) key, named ``name_i_t``."""
    return [f"{name}_{i}_{t}" for i, t in keys], ub, kind, cost


def _add_vars(model: Model, *families) -> list[range]:
    """Add the variables of several families, in order, through one
    :meth:`Model.add_variables` call, and return each family's ids. A
    family is ``(names, ub, kind, cost)``: one variable per name, with
    lower bound 0, upper bound ``ub`` and objective coefficient ``cost``
    (each one number for all, or a list)."""
    names, ubs, kinds, costs = [], [], [], []
    for family_names, ub, kind, cost in families:
        k = len(family_names)
        names += family_names
        ubs += ub if isinstance(ub, list) else [ub] * k
        kinds += [kind] * k
        costs += cost if isinstance(cost, list) else [cost] * k
    ids = model.add_variables(names, [0.0] * len(names), ubs, kinds, costs)
    ends = list(accumulate(len(family[0]) for family in families))
    return [ids[a:b] for a, b in zip([0] + ends, ends)]


def _per_unit(ids: range, n_units: int, first: int = 1) -> list[list]:
    """A family's ids, added unit by unit, as one list per unit indexed
    by period from ``first``; the entries below it are None."""
    per, pad = len(ids) // n_units, [None] * first
    return [pad + list(ids[k * per:(k + 1) * per]) for k in range(n_units)]


def _unit_periods(n_units: int, first: int, last: int) -> list[tuple]:
    return list(product(range(1, n_units + 1), range(first, last + 1)))


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
    n = len(units)
    model = Model(_model_name(instance.name, base))

    keys = _unit_periods(n, 1, T)
    families = [
        _family("v", keys, 1.0, "binary",
                [u.cost_fixed_on for u in units for _ in range(T)]),
        _family("p", keys, INF, cost=[u.cost_variable for u in units
                                      for _ in range(T)])]
    if base == "extended":
        families += _indicator_families(keys, with_z=True)
    V, P, *YZ = (_per_unit(ids, n) for ids in _add_vars(model, *families))
    vix = VarIndex(n_units=n, horizon=T, v=V, p=P)

    rows = _Rows(model)
    periods = range(1, T + 1)
    rows.add([f"demand_{t}" for t in periods],
             ("=", instance.load, [(p[1:], 1.0) for p in P]))
    for i, (u, v, p) in enumerate(zip(units, V, P), 1):
        rows.add([f"lim_{k}_{i}_{t}" for t in periods for k in ("lo", "hi")],
                 (">=", 0.0, [(v[1:], -u.p_min), (p[1:], 1.0)]),
                 ("<=", 0.0, [(v[1:], -u.p_max), (p[1:], 1.0)]))

    if base == "basic":
        _add_basic_ramping(rows, instance, V, P)
    else:
        vix.y, vix.z = Y, Z = YZ
        _add_indicators(rows, instance, V, Y, Z)
        _add_indicator_ramping(rows, instance, V, P, Y, Z)
        _add_min_up_down(rows, instance, V, Y, Z)
        _add_line_limits(rows, instance, P)
    rows.flush()
    return model, vix


def _start_stop_speeds(u) -> tuple[float, float]:
    """The unit's start-up and shutdown speeds, clamped to p_max. Speeds
    above the production ceiling cannot bind, and leaving them unclamped
    would flip coefficient signs in ramping rows that assume they sit
    within [p_min, p_max]."""
    return min(u.startup_ramp, u.p_max), min(u.shutdown_ramp, u.p_max)


def _add_basic_ramping(rows: _Rows, instance: Instance, V: list, P: list):
    """Ramping on (v, p) alone: up/down rows coupling consecutive periods
    (start-up and shutdown speeds enter via v-differences, with a p_max
    big-M deactivating the row across off periods) and the pre-shutdown
    cap bounding production in the last period before a shutdown."""
    T = instance.horizon
    for i, (u, v, p) in enumerate(zip(instance.units, V, P), 1):
        ru, rd = u.ramp_up, u.ramp_down
        pmax = u.p_max
        su, sd = _start_stop_speeds(u)
        # t = 2..T
        rows.add(
            [f"ramp_{k}_{i}_{t}" for t in range(2, T + 1)
             for k in ("up", "down")],
            # p_t - p_{t-1} <= RU v_{t-1} + SU (v_t - v_{t-1}) + Pmax (1 - v_t)
            ("<=", pmax, [(v[1:T], su - ru), (v[2:], pmax - su),
                          (p[1:T], -1.0), (p[2:], 1.0)]),
            # p_t >= p_{t-1} - RD v_t - SD (v_{t-1} - v_t) - Pmax (1 - v_{t-1})
            (">=", -pmax, [(v[1:T], sd - pmax), (v[2:], rd - sd),
                           (p[1:T], -1.0), (p[2:], 1.0)]))
        # t = 1..T-1: p_t <= Pmax v_{t+1} + SD (v_t - v_{t+1})
        rows.add([f"shut_ramp_{i}_{t}" for t in range(1, T)],
                 ("<=", 0.0, [(v[1:T], -sd), (v[2:], sd - pmax),
                              (p[1:T], 1.0)]))


def _indicator_families(keys: list, with_z: bool) -> list:
    """The start-up indicators y, and the shutdown indicators z when
    ``with_z``, as variable families."""
    return [_family("y", keys, 1.0, "binary")] + (
        [_family("z", keys, 1.0, "binary")] if with_z else [])


def _add_indicators(rows: _Rows, instance: Instance, V: list, Y: list,
                    Z: list | None):
    """Tie the start-up indicators y (and the shutdown indicators z, when
    given) to v.

    With z the tie is the exact logic equality y_t - z_t = v_t - v_{t-1}
    (the first period compares against the pre-horizon state derived from
    pre_offline). Without z only the one-sided rows y_t >= v_t - v_{t-1}
    are emitted; cost minimization then pins y to the start indicator.
    """
    T = instance.horizon
    if Z is not None:
        for i, (u, v, y, z) in enumerate(zip(instance.units, V, Y, Z), 1):
            # pre-horizon state: offline (0) if pre_offline > 0, else online
            rows.add_flat([f"logic_{i}_1"], "=",
                          0.0 if u.pre_offline > 0 else -1.0, [3],
                          [v[1], y[1], z[1]], [-1.0, 1.0, -1.0])
            rows.add([f"logic_{i}_{t}" for t in range(2, T + 1)],
                     ("=", 0.0, [(v[1:T], 1.0), (v[2:], -1.0),
                                 (y[2:], 1.0), (z[2:], -1.0)]))
    else:
        for i, (u, v, y) in enumerate(zip(instance.units, V, Y), 1):
            if u.pre_offline > 0:
                rows.add_flat([f"ystart_{i}_1"], ">=", 0.0, [2], [v[1], y[1]],
                              [-1.0, 1.0])
            # pre-horizon online: v_1 = 1 is not a start; the row would be
            # y_1 >= v_1 - 1, vacuous, so it is skipped
            rows.add([f"ystart_{i}_{t}" for t in range(2, T + 1)],
                     (">=", 0.0, [(v[1:T], 1.0), (v[2:], -1.0),
                                  (y[2:], 1.0)]))


def _add_indicator_ramping(rows: _Rows, instance: Instance, V: list,
                           P: list, Y: list, Z: list):
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
    for i, (u, v, p, y, z) in enumerate(zip(instance.units, V, P, Y, Z), 1):
        ru, rd, pmin = u.ramp_up, u.ramp_down, u.p_min
        su, sd = _start_stop_speeds(u)
        # t = 2..T
        rows.add([f"ramp_{k}_{i}_{t}" for t in range(2, T + 1)
                  for k in ("up", "down")],
                 # p_t - p_{t-1} <= RU v_{t-1} + SU y_t
                 ("<=", 0.0, [(v[1:T], -ru), (p[1:T], -1.0),
                              (p[2:], 1.0), (y[2:], -su)]),
                 # p_{t-1} - p_t <= RD v_t + SD z_t
                 ("<=", 0.0, [(v[2:], -rd), (p[1:T], 1.0),
                              (p[2:], -1.0), (z[2:], -sd)]))
        gate_down = rd > su - pmin
        gate_up = ru > sd - pmin
        if gate_down and u.min_up >= 2:  # t = 2..T
            rows.add([f"rampdn_start_{i}_{t}" for t in range(2, T + 1)],
                     ("<=", 0.0, [(v[2:], -rd), (p[1:T], 1.0),
                                  (p[2:], -1.0),
                                  (y[1:T], rd - su + pmin),
                                  (y[2:], rd + pmin), (z[2:], -sd)]))
        if gate_down and u.min_up >= 3 and u.min_down >= 2:  # t = 2..T-1
            rows.add([f"rampdn_close_{i}_{t}" for t in range(2, T)],
                     ("<=", 0.0, [(v[3:], -rd), (p[1:T - 1], 1.0),
                                  (p[2:T], -1.0),
                                  (y[1:T - 1], rd - su + pmin),
                                  (y[2:T], rd + pmin), (y[3:], rd),
                                  (z[2:T], -sd), (z[3:], -rd)]))
        # t = 3..T: two-period down-ramping with start/stop corrections
        rows.add([f"rampdn_two_{i}_{t}" for t in range(3, T + 1)],
                 ("<=", 0.0, [(v[3:], -2 * rd), (p[1:T - 1], 1.0),
                              (p[3:], -1.0), (y[1:T - 1], 2 * rd),
                              (y[2:T], 2 * rd + pmin),
                              (y[3:], 2 * rd + pmin), (z[2:T], -sd),
                              (z[3:], -(sd + rd))]))
        if gate_up and u.min_up >= 2:  # t = 2..T-1
            rows.add([f"rampup_stop_{i}_{t}" for t in range(2, T)],
                     ("<=", 0.0, [(v[2:T], -ru), (p[1:T - 1], -1.0),
                                  (p[2:T], 1.0), (y[2:T], ru - su),
                                  (z[2:T], pmin),
                                  (z[3:], ru - sd + pmin)]))
        if gate_up and u.min_down >= 2:  # t = 3..T-1
            rows.add([f"rampup_two_{i}_{t}" for t in range(3, T)],
                     ("<=", 0.0, [(v[3:T], -2 * ru), (p[1:T - 2], -1.0),
                                  (p[3:T], 1.0), (y[2:T - 1], ru - su),
                                  (y[3:T], 2 * ru - su), (z[2:T - 1], pmin),
                                  (z[3:T], pmin)]))


def _add_min_up_down(rows: _Rows, instance: Instance, V: list, Y: list,
                     Z: list):
    """Window rows over the indicators: every start in the trailing
    min-up window forces v on; every shutdown in the trailing min-down
    window forces v off. Units offline for 0 < PD < min_down periods
    before the horizon also get residual rows keeping them off until the
    min-down time has fully elapsed."""
    T = instance.horizon
    for i, (u, v, y, z) in enumerate(zip(instance.units, V, Y, Z), 1):
        ut, dt = u.min_up, u.min_down
        # t = ut..T, with y_{t+k} over the window k = 1-ut..0
        rows.add([f"minup_{i}_{t}" for t in range(ut, T + 1)],
                 ("<=", 0.0, [(v[ut:], -1.0)]
                  + [(y[ut + k:T + 1 + k], 1.0) for k in range(1 - ut, 1)]))
        rows.add([f"mindown_{i}_{t}" for t in range(dt, T + 1)],
                 ("<=", 1.0, [(v[dt:], 1.0)]
                  + [(z[dt + k:T + 1 + k], 1.0) for k in range(1 - dt, 1)]))
        if 0 < u.pre_offline < dt:
            ts = range(1, min(T, dt - u.pre_offline) + 1)
            rows.add_flat([f"predown_{i}_{t}" for t in ts], "<=", 0.0,
                          [t + 1 for t in ts],
                          chain.from_iterable([v[t]] + z[1:t + 1] for t in ts),
                          [1.0] * sum(t + 1 for t in ts))


def _add_line_limits(rows: _Rows, instance: Instance, P: list):
    """Two rows per line and period capping the PTDF-weighted net
    injection; the load side folds into the right-hand side."""
    net = instance.network
    if net is None:
        log.debug("extended base built without a network; "
                  "line limit family is empty")
        return
    periods = range(1, instance.horizon + 1)
    for m, line in enumerate(net.lines, 1):
        shift = sum(line.alpha.get(n, 0.0) * g for n, g in net.nodes.items())
        terms = [(p[1:], w) for p, u in zip(P, instance.units)
                 if (w := line.alpha.get(u.node, 0.0)) != 0.0]
        rhs = [shift * load for load in instance.load]
        rows.add([f"flow_{k}_{m}_{t}" for t in periods for k in ("hi", "lo")],
                 ("<=", [line.capacity + r for r in rhs], terms),
                 (">=", [-line.capacity + r for r in rhs], terms))


# ---------------------------------------------------------------------------
# start-up cost modules
# ---------------------------------------------------------------------------

def _window(instance: Instance, u) -> int:
    """Pricing window of one unit: the horizon plus its recorded outage,
    so that a start in period t can be charged for up to t-1+PD offline
    periods instead of saturating at the step-table end."""
    return instance.horizon + u.pre_offline


def step_functions(instance: Instance, ktol: float) -> dict:
    """Each unit's StepFunction over its pricing window, by unit id.
    Raises ValueError if a window is under 2 periods."""
    return {u.id: approximate_steps(u, _window(instance, u), ktol)
            for u in instance.units}


def _step_table(sf: StepFunction) -> list[float]:
    """The approximated costs K[0..window-1] of each off-time, with
    K[0] = 0."""
    ktab = [0.0]
    for step in sf.steps:
        ktab += [step.value] * (step.hi - step.lo + 1)
    return ktab


def add_startup_1bin(model: Model, vix: VarIndex, instance: Instance,
                     ktol: float = 0.0, tightened: bool = False) -> None:
    """Lookback rows bounding cu below on the on/off binaries alone.

    For each period t and off-time l at which the step table strictly
    increases, one row forces cu to at least the approximated cost of an
    l-period start unless some lookback period was online. The plain form
    puts the full cost coefficient on every lookback binary; the
    tightened form lowers the coefficient of v_{t-n} to (K(l) - K(n-1)),
    which dominates the plain rows point-wise on [0,1] relaxations. A
    unit's step table is its :func:`step_functions` entry at ``ktol``.

    Lookback reaching before the horizon is resolved from pre_offline:
    offline periods contribute zero terms (extending the effective
    off-time a unit can be charged for, up to t-1+PD); once the lookback
    leaves the recorded outage the row is vacuously satisfied and skipped.
    """
    steps = step_functions(instance, ktol)
    T, n = instance.horizon, vix.n_units
    (cu,) = _add_vars(model, _family("cu", _unit_periods(n, 1, T), INF,
                                     cost=1.0))
    vix.cu = _per_unit(cu, n)
    rows = _Rows(model)
    for i, (u, v, cu) in enumerate(zip(instance.units, vix.v, vix.cu), 1):
        ktab = _step_table(steps[u.id])
        rising = [l for l in range(1, len(ktab)) if ktab[l] > ktab[l - 1]]
        # the coefficients of v_{t-n} for n = l..1, then of v_t and cu_t;
        # a row that looks back m < l periods takes the last m + 2
        coeffs = {l: ([ktab[l] - ktab[n - 1] for n in range(l, 0, -1)]
                      if tightened else [ktab[l]] * l) + [-ktab[l], 1.0]
                  for l in rising}
        # (t, l, m): a row for each off-time l up to t - 1 + PD, looking
        # back m periods
        cells = [(t, l, min(l, t - 1)) for t in range(1, T + 1)
                 for l in rising[:bisect_right(rising, t - 1 + u.pre_offline)]]
        rows.add_flat([f"su1_{i}_{t}_{l}" for t, l, _ in cells], ">=", 0.0,
                      [m + 2 for _, _, m in cells],
                      chain.from_iterable(v[t - m:t + 1] + [cu[t]]
                                          for t, _, m in cells),
                      chain.from_iterable(coeffs[l][l - m:]
                                          for _, l, m in cells))
    rows.flush()


def add_startup_3bin(model: Model, vix: VarIndex, instance: Instance,
                     ktol: float = 0.0) -> None:
    """Start-type selectors: one continuous d(i,t,s) in [0,1] per start
    type (one type per step of the unit's cost table), charged that
    step's cost in the objective. The selectors of each (unit, period)
    sum to the start indicator; each non-final type is additionally
    capped by the shutdown indicators of the off-times it covers, so a
    cheap type is claimable only when a real shutdown makes it plausible.
    A unit's cost table is its :func:`step_functions` entry at ``ktol``.

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
    steps = step_functions(instance, ktol)
    if vix.y and not vix.z:
        raise ValueError("start-type rows need shutdown indicators; "
                         "build the base with them or use a fresh model")
    T, n = instance.horizon, vix.n_units
    keys = _unit_periods(n, 1, T)
    indicators = [] if vix.y else _indicator_families(keys, with_z=True)
    tables = [steps[u.id] for u in instance.units]
    d_keys = [(i, t, s) for i, sf in enumerate(tables, 1)
              for t in range(1, T + 1) for s in range(1, sf.n_steps + 1)]
    *YZ, cu, d_ids = _add_vars(
        model, *indicators, _family("cu", keys, INF),
        ([f"d_{i}_{t}_{s}" for i, t, s in d_keys], 1.0, "continuous",
         [tables[i - 1].steps[s - 1].value for i, _, s in d_keys]))
    if YZ:
        vix.y, vix.z = (_per_unit(ids, n) for ids in YZ)
    vix.cu = _per_unit(cu, n)
    # the selectors run by unit, period, then start type
    ends = list(accumulate(T * sf.n_steps for sf in tables))
    vix.d = [[[None, *d_ids[a + s:b:sf.n_steps]] for s in range(sf.n_steps)]
             for sf, a, b in zip(tables, [0] + ends, ends)]

    rows = _Rows(model)
    periods = range(1, T + 1)
    if indicators:
        _add_indicators(rows, instance, vix.v, vix.y, vix.z)
    for i, (u, sf, y, z, cu, d) in enumerate(zip(
            instance.units, tables, vix.y, vix.z, vix.cu, vix.d), 1):
        S = sf.n_steps
        rows.add([f"{k}_{i}_{t}" for t in periods for k in ("ssum", "sdef")],
                 ("=", 0.0, [(y[1:], -1.0)] + [(ds[1:], 1.0) for ds in d]),
                 # zero-cost steps drop out of the tie
                 ("=", 0.0, [(cu[1:], 1.0)]
                  + [(ds[1:], -st.value) for ds, st in zip(d, sf.steps)]))
        for s in range(1, S):  # the final type is never capped
            lo, hi = sf.steps[s - 1].lo, sf.steps[s - 1].hi
            # t = hi+1..T, with z_{t-k} for k = hi..lo
            rows.add([f"stype_{i}_{t}_{s}" for t in range(hi + 1, T + 1)],
                     ("<=", 0.0, [(z[hi + 1 - k:T + 1 - k], -1.0)
                                  for k in range(hi, lo - 1, -1)]
                      + [(d[s - 1][hi + 1:], 1.0)]))
            if u.pre_offline <= 0:
                continue  # entered online: no pre-horizon shutdown visible
            # the recorded outage itself covers the type where it began
            # inside the window
            outage_start = 1 - u.pre_offline
            ts = [t for t in range(1, min(hi, T) + 1)
                  if not t - hi <= outage_start <= t - lo]
            caps = [[z[k] for k in range(max(1, t - hi), t - lo + 1)]
                    for t in ts]
            rows.add_flat([f"stype_{i}_{t}_{s}" for t in ts], "<=", 0.0,
                          [len(c) + 1 for c in caps],
                          chain.from_iterable(c + [d[s - 1][t]]
                                              for c, t in zip(caps, ts)),
                          chain.from_iterable([-1.0] * len(c) + [1.0]
                                              for c in caps))
    rows.flush()


def add_startup_temp(model: Model, vix: VarIndex, instance: Instance
                     ) -> None:
    """Temperature dynamics: tmp decays geometrically while offline, is
    held at 1 while online, and may be raised by nonnegative heating h.
    Heating purchased in the period before a start is exactly the heat
    lost while offline, so cu = V·h(t-1) + F·y(t) reproduces the
    exponential start-up cost curve without any step approximation.
    """
    T, n = instance.horizon, vix.n_units
    keys = _unit_periods(n, 1, T)
    indicators = [] if vix.y else _indicator_families(keys, with_z=False)
    # h_i_0 can reheat a pre-horizon outage; with none it is pinned 0
    h_keys = _unit_periods(n, 0, T - 1)
    ub0 = [INF if u.pre_offline > 0 else 0.0 for u in instance.units]
    *Y, cu, tmp, h = _add_vars(
        model, *indicators, _family("cu", keys, INF, cost=1.0),
        _family("tmp", keys, INF),
        _family("h", h_keys, [ub0[i - 1] if t == 0 else INF
                              for i, t in h_keys]))
    if Y:
        vix.y = _per_unit(*Y, n)
    vix.cu, vix.tmp = _per_unit(cu, n), _per_unit(tmp, n)
    vix.h = _per_unit(h, n, first=0)

    rows = _Rows(model)
    if indicators:
        _add_indicators(rows, instance, vix.v, vix.y, None)
    for i, (u, v, y, cu, tmp, h) in enumerate(zip(
            instance.units, vix.v, vix.y, vix.cu, vix.tmp, vix.h), 1):
        lam = u.heat_loss
        decay = math.exp(-lam)
        rows.add([f"tnorm_{i}_{t}" for t in range(1, T + 1)],
                 (">=", 0.0, [(v[1:], -1.0), (tmp[1:], 1.0)]))
        if u.pre_offline > 0:
            rows.add_flat([f"trec_{i}_1"], "=", math.exp(-lam * u.pre_offline),
                          [2], [tmp[1], h[0]], [1.0, -1.0])
        else:
            rows.add_flat([f"trec_{i}_1"], "=", 1.0, [1], [tmp[1]], [1.0])
        # t = 2..T; h is indexed from period 0
        rows.add([f"trec_{i}_{t}" for t in range(2, T + 1)],
                 ("=", 0.0, [(v[1:T], -(1.0 - decay)),
                             (tmp[1:T], -decay), (tmp[2:], 1.0),
                             (h[1:], -1.0)]))
        rows.add([f"tcost_{i}_{t}" for t in range(1, T + 1)],
                 ("=", 0.0, [(y[1:], -u.startup_fixed_cost),
                             (cu[1:], 1.0),
                             (h, -u.startup_var_cost)]))
    rows.flush()


def build_model(instance: Instance, choice: FormulationChoice,
                base: tuple[Model, VarIndex] | None = None
                ) -> tuple[Model, VarIndex]:
    """Build the full MILP for one formulation choice.

    ``base``, when given, is what ``build_base(instance, choice.base)``
    returned; the module then extends a copy of it, which shares no
    container with it, so one base serves every module of an instance.
    A base whose model name is not the one ``build_base`` gives this
    instance and base raises ValueError. Without ``base``, the base is
    built here."""
    if base is None:
        model, vix = build_base(instance, choice.base)
    else:
        model, vix = base
        if model.name != _model_name(instance.name, choice.base):
            raise ValueError(f"base model {model.name!r} was not built for "
                             f"instance {instance.name!r} on the "
                             f"{choice.base} base")
        # the modules only assign VarIndex attributes, so a shallow copy
        # keeps the shared base's lists as they are
        model, vix = model.rebound(model.lb, model.ub), replace(vix)
    model.name = _model_name(instance.name, choice.base, choice.startup)
    if choice.startup == "temp":
        add_startup_temp(model, vix, instance)
    elif choice.startup == "three_bin":
        add_startup_3bin(model, vix, instance, choice.ktol)
    else:
        add_startup_1bin(model, vix, instance, choice.ktol,
                         tightened=choice.startup == "one_bin_star")
    return model, vix
