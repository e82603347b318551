"""Core data model: generating units, instances, schedules, validation.

Everything in this module is a plain immutable-after-construction value
object. All other modules consume these types; none of them mutate them.
Money is in abstract cost units, power in MW, and one period is one model
step — there are no calendar semantics anywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path


@dataclass
class Unit:
    """A thermal generating unit and its full parameter set.

    ``pre_offline`` encodes the only piece of pre-horizon history: the
    number of periods the unit has already been offline when the horizon
    starts. ``pre_offline == 0`` means the unit enters the horizon online
    (and its prior uptime is assumed long enough that no residual
    minimum-uptime obligation applies at period 1).
    """

    id: str
    p_min: float                 # minimum stable production when online (MW)
    p_max: float                 # capacity (MW)
    ramp_up: float               # max production increase per period (MW)
    ramp_down: float             # max production decrease per period (MW)
    startup_ramp: float          # production cap in the period a unit starts (MW)
    shutdown_ramp: float         # production cap in the period before a stop (MW)
    min_up: int                  # minimum consecutive online periods
    min_down: int                # minimum consecutive offline periods
    cost_fixed_on: float         # cost per online period (A)
    cost_variable: float         # cost per MW and period (B)
    startup_var_cost: float      # off-time-dependent start-up cost scale (V)
    startup_fixed_cost: float    # off-time-independent start-up cost (F)
    heat_loss: float             # cooling rate per offline period, in (0,1)
    pre_offline: int = 0         # offline periods before the horizon (PD)
    node: str | None = None     # network node, if any

    def violations(self) -> list[str]:
        """Return human-readable invariant breaches (empty when valid)."""
        out = []
        if not (0 <= self.p_min <= self.p_max):
            out.append(f"unit {self.id}: requires 0 <= p_min <= p_max, "
                       f"got p_min={self.p_min}, p_max={self.p_max}")
        if not (0.0 < self.heat_loss < 1.0):
            out.append(f"unit {self.id}: heat_loss must lie in (0, 1), "
                       f"got {self.heat_loss}")
        if self.startup_ramp < self.p_min:
            out.append(f"unit {self.id}: startup_ramp {self.startup_ramp} "
                       f"< p_min {self.p_min} (no feasible start)")
        if self.shutdown_ramp < self.p_min:
            out.append(f"unit {self.id}: shutdown_ramp {self.shutdown_ramp} "
                       f"< p_min {self.p_min} (no feasible stop)")
        if self.min_up < 1:
            out.append(f"unit {self.id}: min_up must be >= 1, got {self.min_up}")
        if self.min_down < 1:
            out.append(f"unit {self.id}: min_down must be >= 1, got {self.min_down}")
        if self.pre_offline < 0:
            out.append(f"unit {self.id}: pre_offline must be >= 0, "
                       f"got {self.pre_offline}")
        if self.startup_var_cost < 0:
            out.append(f"unit {self.id}: startup_var_cost must be >= 0, "
                       f"got {self.startup_var_cost}")
        if self.startup_fixed_cost < 0:
            out.append(f"unit {self.id}: startup_fixed_cost must be >= 0, "
                       f"got {self.startup_fixed_cost}")
        return out

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "Unit":
        return _from_fields(cls, d, "unit")


@dataclass
class Line:
    """A transmission line: capacity plus per-node flow sensitivities."""

    id: str
    capacity: float
    alpha: dict[str, float]   # node id -> flow sensitivity of net injection


@dataclass
class Network:
    """Node demand split and line flow limits.

    ``nodes`` maps node id -> demand factor gamma; the factors must sum
    to 1. A line's flow in period t is
    sum_n alpha[n] * (production at n - gamma[n] * load(t)).
    """

    nodes: dict[str, float]
    lines: list[Line]

    def violations(self) -> list[str]:
        out = []
        total = sum(self.nodes.values())
        if abs(total - 1.0) > 1e-9:
            out.append(f"network: demand factors sum to {total!r}, expected 1")
        for line in self.lines:
            if line.capacity <= 0:
                out.append(f"line {line.id}: capacity must be > 0, "
                           f"got {line.capacity}")
            for n in line.alpha:
                if n not in self.nodes:
                    out.append(f"line {line.id}: shift factor references "
                               f"undeclared node {n!r}")
        return out

    def to_dict(self) -> dict:
        return {
            "nodes": [{"id": n, "gamma": g} for n, g in self.nodes.items()],
            "lines": [asdict(line) for line in self.lines],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Network":
        nodes: dict[str, float] = {}
        for i, nd in enumerate(read_field(d, "nodes", "list[dict]", "network")):
            where = f"network.nodes[{i}]"
            nodes[read_field(nd, "id", "str", where)] = \
                read_field(nd, "gamma", "float", where)
        lines = [_from_fields(Line, ld, f"network.lines[{i}]") for i, ld
                 in enumerate(read_field(d, "lines", "list[dict]", "network"))]
        return cls(nodes=nodes, lines=lines)


@dataclass
class Instance:
    """A full problem instance: units, horizon, load, optional network."""

    units: list[Unit]
    horizon: int
    load: list[float]
    network: Network | None = None
    name: str = "instance"

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "horizon": self.horizon,
            "load": list(self.load),
            "units": [u.to_dict() for u in self.units],
        }
        if self.network is not None:
            d["network"] = self.network.to_dict()
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "Instance":
        horizon = read_field(d, "horizon", "int")
        load = read_field(d, "load", "list[float]")
        units = [_from_fields(Unit, u, f"units[{i}]")
                 for i, u in enumerate(read_field(d, "units", "list[dict]"))]
        network = read_field(d, "network", "dict | None", default=None)
        if network is not None:
            network = Network.from_dict(network)
        return cls(units=units, horizon=horizon, load=load, network=network,
                   name=read_field(d, "name", "str", default="instance"))


def load_instance(path: str | Path) -> Instance:
    """Read an instance from a JSON file (the schema is in
    docs/instance-format.md); a field error names the file first."""
    doc = read_json_object(path)
    try:
        return Instance.from_dict(doc)
    except InstanceFormatError as e:
        raise InstanceFormatError(f"{path}: {e}") from e


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(instance.to_json())


@dataclass
class Schedule:
    """An on/off plan: ``on_off[i][t-1]`` is 1 when unit i runs in period t."""

    on_off: list[list[int]]

    def __post_init__(self):
        for row in self.on_off:
            if len(row) != len(self.on_off[0]):
                raise ValueError("all schedule rows must have equal length")
            for x in row:
                if x not in (0, 1):
                    raise ValueError(f"schedule entries must be 0/1, got {x!r}")

    @property
    def n_units(self) -> int:
        return len(self.on_off)

    @property
    def horizon(self) -> int:
        return len(self.on_off[0]) if self.on_off else 0


@dataclass
class CostBreakdown:
    """Total cost split into production and the two start-up components."""

    production: float
    startup_variable: float
    startup_fixed: float
    total: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        s = self.production + self.startup_variable + self.startup_fixed
        if self.total is None:
            self.total = s
        elif abs(self.total - s) > 1e-9:
            raise ValueError(f"inconsistent breakdown: total {self.total} != "
                             f"sum of parts {s}")


class InstanceFormatError(ValueError):
    """Raised when an instance or bench config cannot be interpreted."""


def validate_instance(instance: Instance) -> list[str]:
    """Check every instance invariant; return the list of violations.

    An empty list means the instance is well-formed. Violations are data,
    not exceptions: each entry names the offending entity and the broken
    rule so a CLI can print them verbatim.
    """
    named = [(f"unit {u.id}", vars(u)) for u in instance.units]
    net = instance.network
    if net is not None:
        named += [(f"node {n}", {"gamma": g}) for n, g in net.nodes.items()]
        for line in net.lines:
            alpha = {f"alpha[{n}]": a for n, a in line.alpha.items()}
            named.append((f"line {line.id}",
                          {"capacity": line.capacity, **alpha}))
    out = [f"{what}: {k} must be finite, got {v}" for what, values in named
           for k, v in values.items()
           if isinstance(v, float) and not math.isfinite(v)]
    for u in instance.units:
        out.extend(u.violations())
    seen: set[str] = set()
    for u in instance.units:
        if u.id in seen:
            out.append(f"unit id {u.id!r} is not unique")
        seen.add(u.id)
    if instance.horizon < 1:
        out.append(f"horizon must be >= 1, got {instance.horizon}")
    if len(instance.load) != instance.horizon:
        out.append(f"load length {len(instance.load)} != horizon {instance.horizon}")
    for t, val in enumerate(instance.load, start=1):
        if val < 0 or not math.isfinite(val):
            out.append(f"load[{t}] = {val} must be finite and >= 0")
    if instance.network is not None:
        out.extend(instance.network.violations())
        for u in instance.units:
            if u.node is None or u.node not in instance.network.nodes:
                out.append(f"unit {u.id}: node {u.node!r} is not declared "
                           f"in the network")
    return out


def check_instance(instance: Instance) -> None:
    """Raise ValueError("invalid instance: ...") naming every violation
    :func:`validate_instance` finds; return quietly on a valid instance."""
    problems = validate_instance(instance)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))


def offline_runs(schedule: Schedule, i: int, pre_offline: int
                 ) -> list[tuple[int, int]]:
    """Start events of unit ``i``: list of (start period, prior off-time).

    One entry per period t where the unit turns on after being off — that
    is, v(i,t) = 1 and either t > 1 with v(i,t-1) = 0, or t = 1 with
    ``pre_offline`` > 0. The off-time counts the consecutive offline
    periods immediately before t and includes the pre-horizon offline
    stretch whenever the offline run touches the horizon start.
    """
    if not (0 <= i < schedule.n_units):
        raise IndexError(f"unit index {i} out of range")
    row = schedule.on_off[i]
    runs: list[tuple[int, int]] = []
    for t in range(1, len(row) + 1):
        if row[t - 1] != 1:
            continue
        if t == 1:
            if pre_offline > 0:
                runs.append((1, pre_offline))
            continue
        if row[t - 2] == 1:
            continue
        # walk back over the offline stretch
        length = 0
        k = t - 1
        while k >= 1 and row[k - 1] == 0:
            length += 1
            k -= 1
        if k == 0:  # reached the horizon start: add pre-horizon offline time
            length += pre_offline
        runs.append((t, length))
    return runs


# --- reading JSON documents ------------------------------------------------

def read_json_object(path: str | Path) -> dict:
    """Parse the JSON file at ``path``, whose top level must be an object."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise InstanceFormatError(
            f"{path}: malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top level must be an object")
    return doc


# annotation -> (Python types of the JSON value, what a message expects)
_KINDS = {"float": ((int, float), "a number"), "int": (int, "an integer"),
          "bool": (bool, "a boolean"), "str": (str, "a string"),
          "list": (list, "an array"), "dict": (dict, "an object")}


def read_field(d: dict, key: str, typ: str, where: str = "",
               default=MISSING):
    """Return ``d[key]`` checked against the annotation string ``typ``:
    ``float`` (a number, never a boolean; returned as a float), ``int``,
    ``bool``, ``str``, ``dict``, ``list[X]``, ``dict[str, X]`` or
    ``X | None``. An absent key yields ``default`` when one is given.
    ``where`` is the path of ``d`` in its document ("" at the top level),
    so errors read ``units[0].p_min: expected a number, got True`` or
    ``units[0]: missing field: p_max``."""
    if key in d:
        return _typed(d[key], typ, f"{where}.{key}" if where else key)
    if default is MISSING:
        raise InstanceFormatError(
            f"{where}: missing field: {key}" if where else f"missing field: {key}")
    return default


def _typed(v, typ: str, path: str):
    if typ.endswith(" | None"):
        if v is None:
            return None
        typ = typ[:-len(" | None")]
    kind, _, item = typ.partition("[")  # "list[float]": "list", "float]"
    types, what = _KINDS[kind]
    # Python's bool is an int; JSON's true is neither a number nor an integer
    if not isinstance(v, types) or isinstance(v, bool) != (kind == "bool"):
        raise InstanceFormatError(f"{path}: expected {what}, got {v!r:.40}")
    if kind == "list" and item:
        return [_typed(x, item[:-1], f"{path}[{i}]") for i, x in enumerate(v)]
    if kind == "dict" and item:  # "str, X]": JSON keys are strings
        return {k: _typed(x, item[5:-1], f"{path}.{k}") for k, x in v.items()}
    return float(v) if kind == "float" else v


def _from_fields(cls, d: dict, where: str):
    """Build the dataclass ``cls`` from ``d``, reading each field by its
    annotation; a field with a default may be absent."""
    return cls(**{f.name: read_field(d, f.name, f.type, where, f.default)
                  for f in fields(cls)})
