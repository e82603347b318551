"""The benchmark's three workloads.

Each workload turns a seed into a plan (which instances, which items),
sets the plan up on disk, runs its items one at a time through the
user-facing entry points ``ucbench.cli.cli([...])`` and ``read_mps``,
and checks the outputs against references that are computed outside
every timed span. NOTES.md says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import time
from pathlib import Path

import reference

STARTUPS = ("one_bin", "one_bin_star", "three_bin", "temp")
BASES = ("basic", "extended")
OK_STATUS = ("optimal", "gap_reached")

# A seed n draws instance seeds n*STRIDE, n*STRIDE+1, ... so that
# different benchmark seeds never share an instance.
STRIDE = 1000


def _quiet_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``ucbench.cli.cli(argv)``; return its exit code, stdout and
    stderr. Both streams are captured so that the benchmark's own last
    line stays the result."""
    import ucbench.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ucbench.cli.cli(argv)
    return rc, out.getvalue(), err.getvalue()


def _generate(spec: dict):
    """One instance from its plan entry, with the ramp override if any."""
    from ucbench.bench import generate_instance
    inst = generate_instance(spec["seed"], spec["n_units"], spec["T"])
    factor = spec.get("ramp_factor")
    if factor is None:
        return inst
    units = [dataclasses.replace(u, ramp_up=factor * (u.p_max - u.p_min),
                                 ramp_down=factor * (u.p_max - u.p_min))
             for u in inst.units]
    return dataclasses.replace(inst, units=units, name=inst.name + "-ramp")


def instance_path(workdir: Path, spec: dict) -> Path:
    return workdir / f"{spec['name']}.json"


def write_instances(plan: dict, workdir: Path) -> None:
    """Set-up shared by all workloads: generate the plan's instances and
    write them as instance files."""
    from ucbench.domain import save_instance
    for spec in plan["instances"]:
        save_instance(_generate(spec), instance_path(workdir, spec))


# ---------------------------------------------------------------------------
# gap-small: the paper's gap table, solver-bound
# ---------------------------------------------------------------------------

class GapSmall:
    """``ucbench bench`` over all four modules and both bases at
    ``ktol = 0`` on small seeded instances; the bundled simplex is the
    bottleneck. Each item is one (instance, base) bench config, which
    yields four gap rows."""

    name = "gap-small"
    shape = (2, 3)
    n_instances = 96
    rounds = 1
    smoke_shape = (2, 4)
    smoke_instances = 2
    gap = 0.01

    def plan(self, seed: int, smoke: bool, cache: reference.Cache) -> dict:
        n_units, T = self.smoke_shape if smoke else self.shape
        want = self.smoke_instances if smoke else self.n_instances
        chosen, refs = [], {}
        for k in range(STRIDE):
            if len(chosen) == want:
                break
            spec = {"seed": seed * STRIDE + k, "n_units": n_units, "T": T}
            spec["name"] = f"gs-{spec['seed']}-u{n_units}-t{T}"
            inst_refs = cache.get(spec["name"], lambda: self._refs(spec))
            # keep only instances that the independent solver finds
            # feasible and bounded under every base and module
            if all(r["mip"] is not None for r in inst_refs.values()):
                chosen.append(spec)
                refs.update(inst_refs)
        return {"workload": self.name, "seed": seed, "instances": chosen,
                "refs": refs}

    def _refs(self, spec: dict) -> dict:
        from ucbench.formulations import FormulationChoice, build_model
        from ucbench.milp import write_mps
        inst = _generate(spec)
        out = {}
        for base in BASES:
            for m in STARTUPS:
                model, _ = build_model(inst, FormulationChoice(base, m, 0.0))
                out[f"{spec['name']}/{base}/{m}"] = \
                    reference.highs_lp_mip(write_mps(model))
        return out

    def items(self, plan: dict, workdir: Path) -> list[dict]:
        items = []
        for spec in plan["instances"]:
            path = instance_path(workdir, spec)
            for base in BASES:
                item_id = f"{spec['name']}/{base}"
                cfg = workdir / f"{spec['name']}-{base}.cfg.json"
                cfg.write_text(json.dumps({
                    "instances": [str(path)], "formulations": list(STARTUPS),
                    "base": base, "ktols": [0.0], "gap": self.gap,
                    "record_timing": True,
                    "out_prefix": f"{spec['name']}-{base}"}))
                items.append({"id": item_id, "argv": [
                    "bench", str(cfg), "--out-dir", str(workdir / "out")],
                    "report": str(workdir / "out" /
                                  f"{spec['name']}-{base}.json")})
        return items

    def run_item(self, item: dict, verify: bool) -> dict:
        t0 = time.perf_counter()
        rc, _, err = _quiet_cli(item["argv"])
        dt = time.perf_counter() - t0
        if rc != 0:
            return {"id": item["id"], "s": dt, "error": err.strip()[-300:]}
        rows = json.loads(Path(item["report"]).read_text())["rows"]
        return {"id": item["id"], "s": dt, "rows": [
            {k: r[k] for k in ("formulation", "z_lp", "z_mip", "status",
                               "wall_ms", "nodes")} for r in rows]}

    @staticmethod
    def pieces(res: dict) -> list[tuple[str, float]]:
        """(module, seconds) of each gap row, from its own wall_ms."""
        return [(row["formulation"], row["wall_ms"] / 1000.0)
                for row in res.get("rows", [])]

    def check(self, plan: dict, results: list[dict]) -> dict:
        """Every gap row is an operation. A row fails when its status is
        not optimal/gap_reached or its root LP failed (z_lp is null);
        a row that succeeded but disagrees with HiGHS is a mismatch,
        which counts as failed too."""
        attempted = 0
        failures, mismatches = [], []
        for res in results:
            if "rows" not in res:
                attempted += len(STARTUPS)
                failures += [f"{res['id']}/{m}: {res['error']}"
                             for m in STARTUPS]
                continue
            for row in res["rows"]:
                attempted += 1
                key = f"{res['id']}/{row['formulation']}"
                if row["status"] not in OK_STATUS or row["z_lp"] is None:
                    failures.append(f"{key}: {row['status']}, "
                                    f"z_lp {row['z_lp']}")
                    continue
                why = reference.gap_row_mismatch(row, plan["refs"][key],
                                                 self.gap)
                if why:
                    mismatches.append(f"{key}: {why}")
        return {"attempted": attempted, "failures": failures,
                "mismatches": mismatches}


# ---------------------------------------------------------------------------
# build-paper: model generation and MPS I/O at the paper's size, no solve
# ---------------------------------------------------------------------------

class BuildPaper:
    """``ucbench build`` then ``read_mps`` on the written file, for both
    bases and all four modules at ``ktol = 0.05`` on one 20x48 instance."""

    name = "build-paper"
    shape = (20, 48)
    smoke_shape = (2, 6)
    rounds = 5
    ktols = (0.05,)

    def plan(self, seed: int, smoke: bool, cache: reference.Cache) -> dict:
        n_units, T = self.smoke_shape if smoke else self.shape
        spec = {"seed": seed, "n_units": n_units, "T": T,
                "name": f"bp-{seed}-u{n_units}-t{T}"}
        goldens = {} if smoke else reference.load_goldens().get(str(seed), {})
        return {"workload": self.name, "seed": seed, "instances": [spec],
                "refs": goldens}

    def models(self):
        for base in BASES:
            for m in STARTUPS:
                for ktol in self.ktols[:1] if m == "temp" else self.ktols:
                    yield base, m, ktol

    def items(self, plan: dict, workdir: Path) -> list[dict]:
        path = instance_path(workdir, plan["instances"][0])
        items = []
        for base, m, ktol in self.models():
            item_id = f"{base}/{m}/{ktol!r}"
            out = workdir / f"{base}-{m}-{ktol!r}.mps"
            items.append({"id": item_id, "module": m, "base": base,
                          "ktol": ktol, "instance": str(path),
                          "mps": str(out),
                          "argv": ["build", str(path), "--base", base,
                                   "--formulation", m, "--ktol", repr(ktol),
                                   "--out", str(out)]})
        return items

    def run_item(self, item: dict, verify: bool) -> dict:
        from ucbench.milp import read_mps
        t0 = time.perf_counter()
        rc, _, err = _quiet_cli(item["argv"])
        if rc != 0:
            return {"id": item["id"], "module": item["module"],
                    "s": time.perf_counter() - t0,
                    "error": err.strip()[-300:]}
        with open(item["mps"], encoding="utf-8") as fh:
            mps = fh.read()
        model = read_mps(mps)
        dt = time.perf_counter() - t0
        res = {"id": item["id"], "module": item["module"], "s": dt,
               "sha256": hashlib.sha256(mps.encode()).hexdigest()}
        if verify:  # untimed: the documented MPS round-trip contract
            del mps
            res["roundtrip_ok"] = model == self._rebuild(item)
        return res

    @staticmethod
    def _rebuild(item: dict):
        from ucbench.domain import load_instance
        from ucbench.formulations import FormulationChoice, build_model
        inst = load_instance(item["instance"])
        model, _ = build_model(inst, FormulationChoice(
            item["base"], item["module"], item["ktol"]))
        return model

    @staticmethod
    def pieces(res: dict) -> list[tuple[str, float]]:
        return [(res["module"], res["s"])]

    def check(self, plan: dict, results: list[dict]) -> dict:
        """Every model is an operation: it fails when the build or read
        fails, and mismatches when its bytes differ from the golden
        sha256 or the parsed model differs from the built one."""
        failures, mismatches = [], []
        for res in results:
            why = reference.mps_mismatch(res, plan["refs"].get(res["id"]))
            if why:
                (failures if "error" in res else mismatches).append(
                    f"{res['id']}: {why}")
        return {"attempted": len(results), "failures": failures,
                "mismatches": mismatches,
                "golden_checked": sum(r["id"] in plan["refs"]
                                      for r in results)}


# ---------------------------------------------------------------------------
# oracle-ramp: brute-force certification, tens of thousands of tiny LPs
# ---------------------------------------------------------------------------

class OracleRamp:
    """``ucbench oracle`` on small basic-base instances whose ramps can
    bind, so every enumerated schedule costs one dispatch LP."""

    name = "oracle-ramp"
    shape = (2, 4)
    n_instances = 96
    rounds = 1
    smoke_shape = (2, 4)
    smoke_instances = 1
    ramp_factor = 0.6
    base = "basic"

    def plan(self, seed: int, smoke: bool, cache: reference.Cache) -> dict:
        n_units, T = self.smoke_shape if smoke else self.shape
        want = self.smoke_instances if smoke else self.n_instances
        chosen = []
        for k in range(STRIDE):
            if len(chosen) == want:
                break
            spec = {"seed": seed * STRIDE + k, "n_units": n_units, "T": T,
                    "ramp_factor": self.ramp_factor}
            spec["name"] = f"or-{spec['seed']}-u{n_units}-t{T}"
            # the enumeration finds a feasible schedule whenever keeping
            # every unit on can meet the load within the ramps; decided by
            # an independent LP on the instance data
            if cache.get(spec["name"], lambda: reference.all_on_feasible(
                    _generate(spec))):
                chosen.append(spec)
        return {"workload": self.name, "seed": seed, "instances": chosen,
                "refs": {}}

    def items(self, plan: dict, workdir: Path) -> list[dict]:
        return [{"id": spec["name"],
                 "argv": ["oracle", str(instance_path(workdir, spec)),
                          "--base", self.base]}
                for spec in plan["instances"]]

    def run_item(self, item: dict, verify: bool) -> dict:
        with ModuleStopwatch() as watch:
            t0 = time.perf_counter()
            _, out, err = _quiet_cli(item["argv"])
            dt = time.perf_counter() - t0
        res = {"id": item["id"], "s": dt, "module_s": watch.seconds}
        try:
            report = json.loads(out)
        except json.JSONDecodeError:  # a data error prints no report
            res["error"] = err.strip()[-300:]
            return res
        res["conclusive"] = report["conclusive"]
        res["max_rel_deviation"] = report["max_rel_deviation"]
        return res

    @staticmethod
    def pieces(res: dict) -> list[tuple[str, float]]:
        return list(res["module_s"].items())

    def check(self, plan: dict, results: list[dict]) -> dict:
        """Every certification is an operation. An inconclusive one
        fails; a conclusive one whose four optima stray from the
        enumeration optimum by more than 1e-9 is a mismatch."""
        failures, mismatches = [], []
        for res in results:
            if not res.get("conclusive"):
                failures.append(f"{res['id']}: "
                                f"{res.get('error', 'inconclusive')}")
                continue
            dev = res["max_rel_deviation"]
            if dev is None or dev > 1e-9:
                mismatches.append(f"{res['id']}: max_rel_deviation {dev}")
        return {"attempted": len(results), "failures": failures,
                "mismatches": mismatches}


class ModuleStopwatch:
    """Per-module time inside ``certify_equivalence``: it builds each
    module's model through ``ucbench.formulations.build_model`` and then
    solves it through ``ucbench.oracle.solve_mip``, so both calls are
    charged to the module of the last build. Two wrapped calls per
    module keep this negligible next to the enumeration."""

    def __init__(self):
        self.seconds = dict.fromkeys(STARTUPS, 0.0)
        self._current = None

    def __enter__(self):
        import ucbench.formulations
        import ucbench.oracle
        self._saved = [(ucbench.formulations, "build_model",
                        ucbench.formulations.build_model),
                       (ucbench.oracle, "solve_mip",
                        ucbench.oracle.solve_mip)]
        build, solve = (f for _, _, f in self._saved)

        def timed_build(instance, choice, *a, **kw):
            self._current = choice.startup
            t0 = time.perf_counter()
            try:
                return build(instance, choice, *a, **kw)
            finally:
                self.seconds[choice.startup] += time.perf_counter() - t0

        def timed_solve(*a, **kw):
            t0 = time.perf_counter()
            try:
                return solve(*a, **kw)
            finally:
                self.seconds[self._current] += time.perf_counter() - t0

        ucbench.formulations.build_model = timed_build
        ucbench.oracle.solve_mip = timed_solve
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in self._saved:
            setattr(mod, attr, fn)
        return False


WORKLOADS = {w.name: w for w in (GapSmall(), BuildPaper(), OracleRamp())}

