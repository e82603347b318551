"""References the benchmark checks outputs against, computed outside
every timed span.

* gap-small: root LP and MIP optimum of each model from scipy's HiGHS
  (Huangfu & Hall, Math. Prog. Comp. 2018), an independent solver. The
  model reaches HiGHS through its MPS text and a parser of this file's
  own, so the reference depends on no solver or model code of ucbench.
* build-paper: the sha256 of every MPS text, recorded in goldens.json
  at the commit that added the benchmark. Regenerate with
  ``python3 perfbench/reference.py --regen-goldens FIRST LAST``.
* oracle-ramp: instance selection by an independent dispatch LP.

Computed references are cached under ``perfbench/.cache``.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CACHE_DIR = HERE / ".cache"
CACHE_VERSION = "v2"  # v2: HiGHS presolve off
GOLDENS = HERE / "goldens.json"

LP_RTOL = 1e-6


class Cache:
    """A JSON file of computed references, keyed by instance name."""

    def __init__(self, name: str):
        # the suffix changes whenever the way references are computed does
        self.path = CACHE_DIR / f"{name}-{CACHE_VERSION}.json"
        try:
            self.data = json.loads(self.path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            self.data = {}
        self.dirty = False

    def get(self, key: str, compute):
        if key not in self.data:
            self.data[key] = compute()
            self.dirty = True
        return self.data[key]

    def save(self) -> None:
        if self.dirty:
            CACHE_DIR.mkdir(exist_ok=True)
            self.path.write_text(json.dumps(self.data, sort_keys=True))


# ---------------------------------------------------------------------------
# HiGHS on MPS text
# ---------------------------------------------------------------------------

def parse_mps(text: str) -> dict:
    """Arrays of the free-format MPS subset that ``write_mps`` emits:
    one N row, COLUMNS with INTORG/INTEND markers, RHS, and LO/UP/FX/
    FR/MI/BV bounds."""
    section = None
    obj_row = None
    rows: dict[str, tuple[int, str]] = {}
    cols: dict[str, int] = {}
    c: list[float] = []
    integer: list[int] = []
    ri: list[int] = []
    ci: list[int] = []
    vals: list[float] = []
    rhs: dict[int, float] = {}
    lb: list[float] = []
    ub: list[float] = []
    in_int = False
    for line in text.splitlines():
        if not line.strip():
            continue
        tok = line.split()
        if not line[0].isspace():
            section = tok[0]
            continue
        if section == "ROWS":
            if tok[0] == "N":
                obj_row = tok[1]
            else:
                rows[tok[1]] = (len(rows), tok[0])
        elif section == "COLUMNS":
            if tok[1] == "'MARKER'":
                in_int = tok[2] == "'INTORG'"
                continue
            j = cols.get(tok[0])
            if j is None:
                j = cols[tok[0]] = len(cols)
                c.append(0.0)
                integer.append(int(in_int))
                lb.append(0.0)
                ub.append(math.inf)
            for name, val in zip(tok[1::2], tok[2::2]):
                if name == obj_row:
                    c[j] = float(val)
                else:
                    ri.append(rows[name][0])
                    ci.append(j)
                    vals.append(float(val))
        elif section == "RHS":
            for name, val in zip(tok[1::2], tok[2::2]):
                rhs[rows[name][0]] = float(val)
        elif section == "BOUNDS":
            kind, j = tok[0], cols[tok[2]]
            val = float(tok[3]) if len(tok) > 3 else None
            if kind == "UP":
                ub[j] = val
            elif kind == "LO":
                lb[j] = val
            elif kind == "FX":
                lb[j] = ub[j] = val
            elif kind == "FR":
                lb[j], ub[j] = -math.inf, math.inf
            elif kind == "MI":
                lb[j] = -math.inf
            elif kind == "BV":
                lb[j], ub[j] = 0.0, 1.0
                integer[j] = 1
            else:
                raise ValueError(f"unsupported bound type {kind}")
    senses = [None] * len(rows)
    for idx, kind in rows.values():
        senses[idx] = kind
    return {"c": c, "integer": integer, "rows": ri, "cols": ci,
            "vals": vals, "rhs": [rhs.get(r, 0.0) for r in range(len(rows))],
            "senses": senses, "lb": lb, "ub": ub}


def highs_solve(arrays: dict, relax: bool) -> float | None:
    """Optimal objective of the MIP (or its LP relaxation) from HiGHS
    with a zero gap; None unless HiGHS proves optimality.

    HiGHS presolve is off: with it on, HiGHS 1.x (scipy 1.17) reported
    5528.08 as the optimum of the extended/three_bin model of
    ``generate_instance(42069, 2, 3)``, whose true optimum is 3891.20 (a
    feasible point the bundled solver returns, which HiGHS itself
    confirms with presolve off or with the binaries fixed)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array
    n, m = len(arrays["c"]), len(arrays["senses"])
    rhs = np.asarray(arrays["rhs"], dtype=float)
    senses = np.asarray(arrays["senses"])
    lo = np.where(senses == "L", -np.inf, rhs)
    hi = np.where(senses == "G", np.inf, rhs)
    constraints = []
    if m:
        A = csr_array((arrays["vals"], (arrays["rows"], arrays["cols"])),
                      shape=(m, n))
        constraints = [LinearConstraint(A, lo, hi)]
    integrality = np.zeros(n) if relax else np.asarray(arrays["integer"])
    res = milp(np.asarray(arrays["c"]), integrality=integrality,
               bounds=Bounds(arrays["lb"], arrays["ub"]),
               constraints=constraints,
               options={"mip_rel_gap": 0.0, "presolve": False})
    return float(res.fun) if res.status == 0 else None


def highs_lp_mip(mps_text: str) -> dict:
    arrays = parse_mps(mps_text)
    return {"lp": highs_solve(arrays, relax=True),
            "mip": highs_solve(arrays, relax=False)}


def gap_row_mismatch(row: dict, ref: dict, gap: float) -> str | None:
    """Why a successful gap row disagrees with HiGHS, or None.

    z_lp must match the HiGHS root LP within 1e-6 relative; z_mip must
    lie in [opt - 1e-6|opt|, opt / (1 - gap) + 1e-6|opt|]. The upper end
    is where the bundled branch-and-bound stops: it measures the gap
    against the incumbent, (z_mip - bound) / |z_mip| <= gap."""
    lp, opt = ref["lp"], ref["mip"]
    if lp is None or opt is None:
        return "no HiGHS reference"
    if abs(row["z_lp"] - lp) > LP_RTOL * max(1.0, abs(lp)):
        return f"z_lp {row['z_lp']!r} != HiGHS {lp!r}"
    tol = LP_RTOL * max(1.0, abs(opt))
    if not opt - tol <= row["z_mip"] <= opt / (1.0 - gap) + tol:
        return f"z_mip {row['z_mip']!r} outside gap of HiGHS {opt!r}"
    return None


def mps_mismatch(res: dict, golden: str | None) -> str | None:
    """Why one build-paper item fails its checks, or None."""
    if "error" in res:
        return res["error"]
    if golden is not None and res["sha256"] != golden:
        return f"sha256 {res['sha256'][:12]} != golden {golden[:12]}"
    if res.get("roundtrip_ok") is False:
        return "read_mps(text) != built model"
    return None


def all_on_feasible(instance) -> bool:
    """True when every unit staying on all horizon can meet the load
    within its output range and ramp limits (HiGHS LP on the data)."""
    import numpy as np
    from scipy.optimize import linprog
    units, T = instance.units, instance.horizon
    n = len(units) * T

    def var(k, t):
        return k * T + t

    a_eq = np.zeros((T, n))
    for t in range(T):
        for k in range(len(units)):
            a_eq[t, var(k, t)] = 1.0
    a_ub, b_ub = [], []
    for k, u in enumerate(units):
        for t in range(1, T):
            row = np.zeros(n)
            row[var(k, t)], row[var(k, t - 1)] = 1.0, -1.0
            a_ub.append(row)
            b_ub.append(u.ramp_up)
            a_ub.append(-row)
            b_ub.append(u.ramp_down)
    bounds = [(u.p_min, u.p_max) for u in units for _ in range(T)]
    res = linprog(np.zeros(n), A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=b_ub or None, A_eq=a_eq, b_eq=instance.load,
                  bounds=bounds, method="highs")
    return res.status == 0


# ---------------------------------------------------------------------------
# build-paper goldens
# ---------------------------------------------------------------------------

def load_goldens() -> dict:
    try:
        return json.loads(GOLDENS.read_text())
    except FileNotFoundError:
        return {}


def regen_goldens(first: int, last: int) -> None:
    """Record the sha256 of every build-paper MPS text for the seeds
    first..last, as ``ucbench build`` writes it."""
    from ucbench.formulations import FormulationChoice, build_model
    from ucbench.milp import write_mps
    from workloads import WORKLOADS, _generate
    wl = WORKLOADS["build-paper"]
    goldens = load_goldens()
    for seed in range(first, last + 1):
        spec = wl.plan(seed, smoke=False, cache=None)["instances"][0]
        inst = _generate(spec)
        table = {}
        for base, m, ktol in wl.models():
            model, _ = build_model(inst, FormulationChoice(base, m, ktol))
            table[f"{base}/{m}/{ktol!r}"] = hashlib.sha256(
                write_mps(model).encode()).hexdigest()
        goldens[str(seed)] = table
        print(f"seed {seed}: {len(table)} models", flush=True)
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                           + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "--regen-goldens":
        sys.exit("usage: reference.py --regen-goldens FIRST LAST")
    import run  # pins BLAS threads and puts the checkout's src on sys.path
    run.import_ucbench()
    regen_goldens(int(sys.argv[2]), int(sys.argv[3]))
