"""Benchmark harness: synthetic instance generation, integrality-gap
measurement, and CSV/JSON report emission.

The normalized integrality gap of a model is (z_MIP - z_LP) / z_MIP,
where z_LP is the untightened root relaxation solved by the bundled
simplex (no cuts, no presolve), so gaps are comparable across start-up
modules and not polluted by solver-side tightening. z_LP is the root
node of the branch-and-bound run that yields z_MIP, so each row costs
one MIP solve. Every row of an instance extends one base, built once,
whose LP is solved once (``root_start``): each row's root starts from
that LP's optimal basis rather than solving the base rows again.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from random import Random

from . import formulations
from .domain import (Instance, Line, Network, Unit, check_instance,
                     load_instance, read_field, read_json_object)
from .formulations import (STARTUPS, FormulationChoice, build_model,
                           check_base, check_startup)
from .solver import SolveConfig, root_start, solve_lp, solve_mip
from .startup import check_ktol

# solve_lp is for perfbench: test_span_self_times_are_within_their_parent
__all__ = ["BenchConfig", "GapRow", "generate_instance", "measure_gap",
           "run_benchmark", "solve_lp"]


def generate_instance(seed: int, n_units: int, T: int,
                      volatility: float = 0.3,
                      with_network: bool = False) -> Instance:
    """Deterministic synthetic instance.

    Unit parameters are drawn uniformly from fixed ranges: p_max in
    [50, 1000] MW, p_min in [0.3, 0.6]·p_max, ramp_up = ramp_down in
    [1.0, 1.5]·(p_max - p_min) (a unit can sweep its whole dispatchable
    range in one period, which keeps dispatch separable per period — the
    enumeration oracle relies on this), start/stop speeds at p_min,
    min_up/min_down in [1, 8], heat_loss in [0.02, 0.7], fixed online
    cost A in [1, 5] with start-up energy cost V in [0.5, 3]·(A·24) and
    start-up fixed cost F in [0.1, 0.5]·V, variable cost in [1, 4].
    All units enter the horizon online (pre_offline = 0), so every
    in-horizon start has an off-time the step table covers exactly.

    The load is a 24-period sinusoid (random phase) plus
    volatility-scaled uniform noise, clipped to [0.3, 0.95]·Σp_max.

    With ``with_network`` a star grid is added: one hub plus one node
    per unit, uniform demand factors, and one line per spoke whose flow
    equals the spoke's net injection. Capacities are drawn tight enough
    to restrict peak-period dispatch but never below the spoke's own
    peak demand (an offline unit must stay importable). No check makes
    sure that some schedule fits them on both bases: the extended base's
    ramping rows can leave none. ``generate_instance(1, 2, 6,
    with_network=True)`` has no feasible schedule on the extended base,
    so every module's MIP is infeasible there, and an optimum on the
    basic base.
    """
    if n_units < 1:
        raise ValueError(f"n_units must be >= 1, got {n_units}")
    if T < 2:
        raise ValueError(f"horizon must be >= 2, got {T}")
    if not 0.0 <= volatility <= 1.0:
        raise ValueError(f"volatility must lie in [0, 1], got {volatility}")
    rng = Random(seed)
    units = []
    for k in range(1, n_units + 1):
        p_max = rng.uniform(50.0, 1000.0)
        p_min = rng.uniform(0.3, 0.6) * p_max
        ramp = rng.uniform(1.0, 1.5) * (p_max - p_min)
        a = rng.uniform(1.0, 5.0)
        v = rng.uniform(0.5, 3.0) * (a * 24.0)
        units.append(Unit(
            id=f"u{k}", p_min=p_min, p_max=p_max, ramp_up=ramp,
            ramp_down=ramp, startup_ramp=p_min, shutdown_ramp=p_min,
            min_up=rng.randint(1, 8), min_down=rng.randint(1, 8),
            cost_fixed_on=a, cost_variable=rng.uniform(1.0, 4.0),
            startup_var_cost=v, startup_fixed_cost=rng.uniform(0.1, 0.5) * v,
            heat_loss=rng.uniform(0.02, 0.7), pre_offline=0,
            node=f"n{k}" if with_network else None))
    total = sum(u.p_max for u in units)
    mid, amp = 0.625 * total, 0.275 * total
    phase = rng.uniform(0.0, 2.0 * math.pi)
    load = []
    for t in range(T):
        x = mid + amp * math.sin(2.0 * math.pi * t / 24.0 + phase)
        x += volatility * amp * rng.uniform(-1.0, 1.0)
        load.append(min(max(x, 0.3 * total), 0.95 * total))
    network = None
    if with_network:
        peak = max(load)
        gamma = 1.0 / (n_units + 1)
        nodes = {"hub": gamma}
        nodes.update({f"n{k}": gamma for k in range(1, n_units + 1)})
        lines = []
        for k, u in enumerate(units, 1):
            cap = rng.uniform(0.93, 0.97) * (u.p_max - gamma * peak)
            cap = max(cap, 1.1 * gamma * peak)
            lines.append(Line(id=f"l{k}", capacity=cap,
                              alpha={f"n{k}": 1.0}))
        network = Network(nodes=nodes, lines=lines)
    name = f"gen-s{seed}-u{n_units}-t{T}" + ("-net" if with_network else "")
    return Instance(name=name, horizon=T, load=load, units=units,
                    network=network)


@dataclass
class GapRow:
    """One benchmark measurement; its fields, in order, are the CSV
    columns."""

    instance: str
    formulation: str
    ktol: float
    z_mip: float
    z_lp: float
    gap_abs: float
    gap_rel: float
    wall_ms: float
    nodes: int
    status: str
    backend: str


@dataclass
class BenchConfig:
    """What to run: instances (file paths and/or generator specs),
    formulations, step tolerances, and solve budget.

    ``generate`` entries are keyword arguments of generate_instance: seed,
    n_units, T and optional volatility, with_network. ``record_timing``
    keeps wall_ms at 0 when off so reports are byte-deterministic for a
    fixed BLAS library, kernel set and thread count.
    """

    instances: list[str] = field(default_factory=list)
    generate: list[dict] = field(default_factory=list)
    formulations: list[str] = field(default_factory=lambda: list(STARTUPS))
    base: str = "basic"
    ktols: list[float] = field(default_factory=lambda: [0.0, 0.05, 0.20])
    gap: float = 0.01
    time_limit: float = 60.0
    backend: str = "reference"
    out_prefix: str = "bench"
    record_timing: bool = False

    def __post_init__(self):
        if not self.formulations:
            raise ValueError("formulation list must not be empty")
        for f in self.formulations:
            check_startup(f)
        check_base(self.base)
        if not self.ktols:
            raise ValueError("ktol list must not be empty")
        for k in self.ktols:
            check_ktol(k)
        # a spec's values are checked by generate_instance's annotations;
        # an unknown or missing key is left to the call, which names it
        params = inspect.signature(generate_instance).parameters
        for i, spec in enumerate(self.generate):
            for key, param in params.items():
                if key in spec:
                    read_field(spec, key, param.annotation, f"generate[{i}]")
        # a bad gap, time limit or backend fails here, before any row
        SolveConfig(self.gap, self.time_limit, self.backend)

    @classmethod
    def from_json(cls, path) -> "BenchConfig":
        raw = read_json_object(path)
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(raw) - set(types)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in raw:
            read_field(raw, key, types[key])  # checked; 0 stays 0, not 0.0
        return cls(**raw)


def measure_gap(instance: Instance, choice: FormulationChoice,
                config: BenchConfig, base, start) -> GapRow:
    """Build one model, solve the MIP, and emit a report row. The LP
    bound is the solve's own ``root_bound``, the branch-and-bound root
    node, which ``solve_mip`` solves whatever the time budget, from
    ``start``. ``base`` is passed to :func:`build_model`: the instance's
    base, built once for all its rows, and ``start`` is what
    :func:`root_start` returned for its model (None when that LP is not
    optimal: a cold root). Their build and solve are not in the row's
    ``wall_ms``."""
    t0 = time.perf_counter()
    model, _ = build_model(instance, choice, base=base)
    mip = solve_mip(model, SolveConfig(config.gap, config.time_limit,
                                       config.backend), start)
    z_lp = mip.root_bound
    wall_ms = (time.perf_counter() - t0) * 1000.0
    z_mip = mip.objective
    gap_abs = z_mip - z_lp
    if math.isnan(gap_abs):
        gap_rel = math.nan
    elif abs(z_mip) > 1e-9:
        gap_rel = gap_abs / z_mip
    else:
        gap_rel = 0.0 if abs(gap_abs) <= 1e-9 else math.nan
    return GapRow(instance=instance.name, formulation=choice.startup,
                  ktol=choice.ktol, z_mip=z_mip, z_lp=z_lp,
                  gap_abs=gap_abs, gap_rel=gap_rel,
                  wall_ms=wall_ms if config.record_timing else 0.0,
                  nodes=mip.nodes, status=mip.status,
                  backend=config.backend)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def gap_rows(config: BenchConfig) -> tuple[list[GapRow], dict[str, int]]:
    """Load, generate and check the config's instances, then measure every
    (instance, formulation, ktol) combination. An invalid instance, or two
    instances sharing a name (rows and horizons are keyed by it), raises
    ValueError before any row is measured; a failure within one row is
    recorded as a row with status ``error: ...`` and the run continues.
    Returns the rows sorted by (instance, formulation, ktol) and each
    instance's horizon by name."""
    instances: list[Instance] = [load_instance(p) for p in config.instances]
    instances += [generate_instance(**spec) for spec in config.generate]
    names: set[str] = set()
    for inst in instances:
        check_instance(inst)
        if inst.name in names:
            raise ValueError(f"duplicate instance name {inst.name!r}: rows "
                             "are keyed by name, so give each instance its "
                             "own")
        names.add(inst.name)
    rows: list[GapRow] = []
    for inst in instances:
        # every row of an instance extends one base, and each row's root
        # starts from the base's LP; if either fails, so does each of
        # those rows, with its error
        try:
            base, failed = formulations.build_base(inst, config.base), None
            start = root_start(base[0])
        except Exception as exc:
            base, start, failed = None, None, exc
        for formulation in config.formulations:
            for ktol in config.ktols:
                choice = FormulationChoice(config.base, formulation, ktol)
                try:
                    if failed is not None:
                        raise failed
                    rows.append(measure_gap(inst, choice, config, base,
                                            start))
                except Exception as exc:  # record, keep going
                    rows.append(GapRow(
                        instance=inst.name, formulation=formulation,
                        ktol=ktol, z_mip=math.nan, z_lp=math.nan,
                        gap_abs=math.nan, gap_rel=math.nan, wall_ms=0.0,
                        nodes=0, status=f"error: {exc}",
                        backend=config.backend))
        del base, start  # hold one instance's base at a time
    rows.sort(key=lambda r: (r.instance, r.formulation, r.ktol))
    return rows, {inst.name: inst.horizon for inst in instances}


def write_csv(rows: list[GapRow], fh) -> None:
    """Write a header of GapRow's field names and one line per row to the
    text stream ``fh``; floats are written with repr, so they read back
    exactly."""
    names = [f.name for f in fields(GapRow)]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(names)
    for r in rows:
        writer.writerow([_fmt(getattr(r, n)) for n in names])


def run_benchmark(config: BenchConfig, out_dir: str = ".") -> dict:
    """Measure every (instance, formulation, ktol) combination through
    :func:`gap_rows` and write ``<prefix>.csv`` (rows),
    ``<prefix>_summary.csv`` (instances solved within budget, per
    horizon), and ``<prefix>.json`` (both, mirrored). Returns
    {"csv": path, "summary": path, "json": path}.
    """
    rows, horizon_of = gap_rows(config)

    solved = {}
    for r in rows:
        h = horizon_of[r.instance]
        n_rows, n_solved = solved.get(h, (0, 0))
        ok = r.status in ("optimal", "gap_reached")
        solved[h] = (n_rows + 1, n_solved + (1 if ok else 0))
    summary = [{"horizon": h, "n_rows": n, "n_solved": s}
               for h, (n, s) in sorted(solved.items())]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{config.out_prefix}.csv"
    sum_path = out / f"{config.out_prefix}_summary.csv"
    json_path = out / f"{config.out_prefix}.json"

    buf = io.StringIO()
    write_csv(rows, buf)
    csv_path.write_text(buf.getvalue(), encoding="utf-8")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["horizon", "n_rows", "n_solved"])
    for line in summary:
        writer.writerow([line["horizon"], line["n_rows"], line["n_solved"]])
    sum_path.write_text(buf.getvalue(), encoding="utf-8")

    def clean(row: GapRow) -> dict:
        d = dict(vars(row))
        for k, v in d.items():
            if isinstance(v, float) and math.isnan(v):
                d[k] = None  # strict-JSON stand-in for NaN
        return d

    payload = {"config": dict(vars(config)),
               "rows": [clean(r) for r in rows], "summary": summary}
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                         + "\n", encoding="utf-8")
    return {"csv": str(csv_path), "summary": str(sum_path),
            "json": str(json_path)}
