"""Spans for the traced run.

A span is recorded around each call into a layer by wrapping the public
function at the module attribute its caller looks up at call time
(``measure_gap`` resolves ``ucbench.bench.solve_lp``, the oracle
resolves ``ucbench.oracle.solve_lp``), so the program is not edited.
Spans live in memory as ``[name, start, end, parent, item, info]`` and
are written out when the run ends. A span's layer is the first part of
its name; its self time is its duration minus that of its children.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("domain", "startup", "formulations", "milp", "solver", "oracle",
          "bench", "cli")
STARTUPS = ("one_bin", "one_bin_star", "three_bin", "temp")

# (module, attribute, span name)
TARGETS = (
    ("ucbench.cli", "cli", "cli.cli"),
    ("ucbench.bench", "generate_instance", "domain.generate_instance"),
    ("ucbench.cli", "load_instance", "domain.load_instance"),
    ("ucbench.bench", "load_instance", "domain.load_instance"),
    ("ucbench.cli", "run_benchmark", "bench.run_benchmark"),
    ("ucbench.bench", "measure_gap", "bench.measure_gap"),
    ("ucbench.cli", "build_model", "formulations.build_model"),
    ("ucbench.bench", "build_model", "formulations.build_model"),
    # certify_equivalence imports build_model when it is called
    ("ucbench.formulations", "build_model", "formulations.build_model"),
    ("ucbench.formulations", "build_base", "formulations.build_base"),
    ("ucbench.formulations", "add_startup_1bin", "formulations.add_startup"),
    ("ucbench.formulations", "add_startup_3bin", "formulations.add_startup"),
    ("ucbench.formulations", "add_startup_temp", "formulations.add_startup"),
    ("ucbench.formulations", "approximate_steps", "startup.approximate_steps"),
    ("ucbench.cli", "write_mps", "milp.write_mps"),
    ("ucbench.cli", "read_mps", "milp.read_mps"),
    ("ucbench.milp", "read_mps", "milp.read_mps"),
    ("ucbench.bench", "solve_lp", "solver.solve_lp"),
    ("ucbench.bench", "solve_mip", "solver.solve_mip"),
    ("ucbench.oracle", "solve_lp", "solver.solve_lp"),
    ("ucbench.oracle", "solve_mip", "solver.solve_mip"),
    ("ucbench.cli", "certify_equivalence", "oracle.certify_equivalence"),
    ("ucbench.oracle", "brute_force_optimum", "oracle.brute_force_optimum"),
)


def _solution(args, kwargs, out):
    return {"status": getattr(out, "status", None),
            "iters": getattr(out, "iterations", 0),
            "nodes": getattr(out, "nodes", 0)}


def _model_size(args, kwargs, out):
    import ucbench.milp
    stats = ucbench.milp.model_stats(out[0])
    return {"rows": stats.n_constraints, "nnz": stats.n_nonzeros}


def _startup_module(args, kwargs, out):
    return {"module": "one_bin_star" if kwargs.get("tightened") else "one_bin"}


# what each span records from the call, read from returned objects
INFO = {
    "solver.solve_lp": _solution,
    "solver.solve_mip": _solution,
    "formulations.build_model": _model_size,
    "startup.approximate_steps":
        lambda a, k, out: {"n_steps": out.n_steps},
    "milp.write_mps": lambda a, k, out: {"bytes": len(out)},
    "milp.read_mps": lambda a, k, out: {"bytes": len(a[0])},
    "oracle.brute_force_optimum":
        lambda a, k, out: {"n_feasible": out.n_feasible},
}
MODULE_OF = {"add_startup_1bin": _startup_module,
             "add_startup_3bin": lambda a, k, out: {"module": "three_bin"},
             "add_startup_temp": lambda a, k, out: {"module": "temp"}}


class Recorder:
    """Installs the span wrappers and holds the spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = "setup"
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def install(self, targets=TARGETS) -> None:
        for modname, attr, name in targets:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{modname}.{attr}")
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            info = INFO.get(name) or MODULE_OF.get(attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn, info))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[5] = {"raised": True}
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if info is not None:
                # bookkeeping is a span of its own, so that it is not
                # charged to the caller's self time
                t0 = clock()
                try:
                    span[5] = info(args, kwargs, out)
                except (AttributeError, TypeError, IndexError):
                    span[5] = {}
                spans.append(["trace.info", t0, clock(), parent, self.item,
                              None])
            return out

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, item, info in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans)]


def layer_metrics(spans: list[list], wall_s: float,
                  overhead: float) -> dict:
    """The per-layer metrics of one traced pass.

    ``wall_s`` is the traced pass's time as measured, on the clock the
    spans use; ``overhead`` is the traced pass's time over the untraced
    one's, both at the reference host speed, minus 1. Spans of item
    ``setup`` count only towards ``domain.generate_s``."""
    selfs = self_times(spans)
    layer = dict.fromkeys(LAYERS + ("trace",), 0.0)
    acc: dict[str, float] = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    oracle_idx = set()
    for i, (name, start, end, parent, item, info) in enumerate(spans):
        info = info or {}
        if item == "setup":
            if name == "domain.generate_instance":
                add("domain.generate_s", end - start)
            continue
        lay = name.split(".")[0]
        layer[lay] = layer.get(lay, 0.0) + selfs[i]
        if lay == "oracle":
            oracle_idx.add(i)
        if name == "startup.approximate_steps":
            add("startup.approx_s", selfs[i])
            add("startup.n_steps", info.get("n_steps", 0))
        elif name == "formulations.build_base":
            add("formulations.base_s", selfs[i])
        elif name == "formulations.add_startup" and "module" in info:
            add(f"formulations.module_s.{info['module']}", selfs[i])
        elif name == "formulations.build_model":
            add("formulations.rows", info.get("rows", 0))
            add("formulations.nnz", info.get("nnz", 0))
        elif name == "milp.write_mps":
            add("milp.write_mps_s", end - start)
            add("milp.mps_mb", info.get("bytes", 0) / 1e6)
            add("mps_io_mb", info.get("bytes", 0) / 1e6)
        elif name == "milp.read_mps":
            add("milp.read_mps_s", end - start)
            add("mps_io_mb", info.get("bytes", 0) / 1e6)
        elif name in ("solver.solve_lp", "solver.solve_mip"):
            kind = "lp" if name.endswith("lp") else "mip"
            add(f"solver.{kind}_s", end - start)
            add(f"solver.{kind}_calls", 1)
            if info.get("status") in (None, "error") or info.get("raised"):
                add("solver.errors", 1)
            if kind == "lp":
                add("solver.lp_iters", info.get("iters", 0))
                add("solver.lp_ok", info.get("status") == "optimal")
                if parent in oracle_idx:
                    add("oracle.dispatch_lps", 1)
            else:
                add("solver.nodes", info.get("nodes", 0))
        elif name == "oracle.brute_force_optimum":
            add("oracle.brute_s", end - start)
            add("oracle.n_feasible", info.get("n_feasible", 0))

    def get(key):
        return acc.get(key, 0.0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {
        "domain.generate_s": get("domain.generate_s"),
        "startup.approx_s": get("startup.approx_s"),
        "startup.n_steps": get("startup.n_steps"),
        "formulations.base_s": get("formulations.base_s"),
    }
    for m in STARTUPS:
        out[f"formulations.module_s.{m}"] = get(f"formulations.module_s.{m}")
    out.update({
        "formulations.rows": get("formulations.rows"),
        "formulations.nnz": get("formulations.nnz"),
        "formulations.nnz_per_s": ratio(get("formulations.nnz"),
                                        layer["formulations"]),
        "milp.write_mps_s": get("milp.write_mps_s"),
        "milp.read_mps_s": get("milp.read_mps_s"),
        "milp.mps_mb": get("milp.mps_mb"),
        "milp.mps_mb_per_s": ratio(get("mps_io_mb"),
                                   get("milp.write_mps_s")
                                   + get("milp.read_mps_s")),
        "solver.lp_calls": get("solver.lp_calls"),
        "solver.lp_s": get("solver.lp_s"),
        "solver.lp_iters": get("solver.lp_iters"),
        "solver.us_per_iter": ratio(get("solver.lp_s"),
                                    get("solver.lp_iters"), 1e6),
        "solver.ms_per_lp": ratio(get("solver.lp_s"),
                                  get("solver.lp_calls"), 1e3),
        "solver.lp_ok_ratio": ratio(get("solver.lp_ok"),
                                    get("solver.lp_calls")),
        "solver.mip_s": get("solver.mip_s"),
        "solver.nodes": get("solver.nodes"),
        "solver.ms_per_node": ratio(get("solver.mip_s"),
                                    get("solver.nodes"), 1e3),
        "solver.errors": get("solver.errors"),
        "oracle.brute_s": get("oracle.brute_s"),
        "oracle.self_s": layer["oracle"],
        "oracle.dispatch_lps": get("oracle.dispatch_lps"),
        "oracle.feasible_ratio": ratio(get("oracle.n_feasible"),
                                       get("oracle.dispatch_lps")),
        "bench.self_s": layer["bench"],
        "cli.self_s": layer["cli"],
    })
    for lay in LAYERS + ("trace",):
        out[f"share.{lay}"] = ratio(layer[lay], wall_s)
    out["trace.coverage"] = ratio(sum(layer.values()), wall_s)
    out["trace.overhead"] = overhead
    out["trace.wall_s"] = wall_s
    out["trace.spans"] = float(sum(1 for s in spans if s[4] != "setup"))
    return out


# every per-layer metric with its unit, in report order
PER_LAYER = (
    [("domain.generate_s", "s"), ("startup.approx_s", "s"),
     ("startup.n_steps", "count"), ("formulations.base_s", "s")]
    + [(f"formulations.module_s.{m}", "s") for m in STARTUPS]
    + [("formulations.rows", "count"), ("formulations.nnz", "count"),
       ("formulations.nnz_per_s", "nnz/s"), ("milp.write_mps_s", "s"),
       ("milp.read_mps_s", "s"), ("milp.mps_mb", "MB"),
       ("milp.mps_mb_per_s", "MB/s"), ("solver.lp_calls", "count"),
       ("solver.lp_s", "s"), ("solver.lp_iters", "count"),
       ("solver.us_per_iter", "us"), ("solver.ms_per_lp", "ms"),
       ("solver.lp_ok_ratio", "ratio"), ("solver.mip_s", "s"),
       ("solver.nodes", "count"), ("solver.ms_per_node", "ms"),
       ("solver.errors", "count"), ("oracle.brute_s", "s"),
       ("oracle.self_s", "s"), ("oracle.dispatch_lps", "count"),
       ("oracle.feasible_ratio", "ratio"), ("bench.self_s", "s"),
       ("cli.self_s", "s")]
    + [(f"share.{lay}", "ratio") for lay in LAYERS + ("trace",)]
    + [("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
       ("trace.wall_s", "s"), ("trace.spans", "count")])
