"""Benchmark runner: one workload, one seed, one result line.

    python3 perfbench/run.py --workload gap-small --seed 1 --seconds 30 --trace 0

The runner (this process) draws the workload's inputs from the seed,
computes references, and then starts fresh workload processes:

* set-up-only processes, whose median time is ``setup_s``;
* one measuring process, which sets the inputs up and runs the items one
  at a time, in the workload's number of rounds over the whole list
  (one for the workloads of many small instances, five for build-paper's
  eight models). With ``--trace 1`` it runs one untraced and one traced
  round instead, each in its own process, and reports per-layer metrics.

Every timed piece of work is scaled to a reference host speed by timing
a fixed kernel right before and after it (``hostspeed``), because the
host's speed drifts by tens of percent over seconds and minutes.

The workloads are sized so that a run measures 15-25 s of the
``--seconds`` it is given (30 s in BENCHMARK.json) at the commit that
defined them; the flag does not change the inputs or the round count,
so that runs of a faster or slower program stay comparable.

The last line of standard output is the JSON result; the line before it
carries the details (environment, per-item failures, counts).
"""

from __future__ import annotations

import os

# Pinned before numpy is imported here or in any child: the bundled
# simplex's iteration counts depend on the BLAS thread count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_PROBES = 6  # half before the measuring process, half after
RUN_LIMIT_S = 170.0  # every run must end within 180 s


def import_ucbench():
    """Import ucbench from this checkout's ``src``; exit 2 if absent."""
    if not (SRC / "ucbench" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ucbench sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ucbench
    if Path(ucbench.__file__).resolve().parent != SRC / "ucbench":
        sys.stderr.write(f"error: imported {ucbench.__file__}, not {SRC}\n")
        sys.exit(2)
    return ucbench


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library."""
    import ctypes

    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """High-water resident set of this process image. ``ru_maxrss`` is
    not used: Linux carries it across exec, so a child would report the
    runner's peak."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}"}


# ---------------------------------------------------------------------------
# workload process
# ---------------------------------------------------------------------------

def child_main(args) -> int:
    import_ucbench()
    import hostspeed
    from workloads import WORKLOADS, write_instances
    wl = WORKLOADS[args.workload]
    plan = json.loads(Path(args.plan).read_text())
    workdir = Path(args.workdir)
    (workdir / "out").mkdir(parents=True, exist_ok=True)

    recorder = None
    if args.trace:
        from tracing import Recorder
        recorder = Recorder()
        recorder.install()
    write_instances(plan, workdir)
    items = wl.items(plan, workdir)
    if args.child == "setup":
        return 0

    rounds = []
    before = hostspeed.probe()
    for _ in range(args.rounds):
        results = []
        for item in items:
            if recorder is not None:
                recorder.item = item["id"]
            # the untraced first round also runs the untimed checks that
            # need the program itself
            res = wl.run_item(item, verify=not rounds and not args.trace)
            after = hostspeed.probe()
            res["scale"] = hostspeed.scale(before, after)
            before = after
            results.append(res)
        rounds.append(results)
    if recorder is not None:
        recorder.uninstall()

    out = {"rounds": rounds, "blas_threads": blas_threads(),
           "peak_rss_mb": peak_rss_mb()}
    if recorder is not None:
        out["spans"] = recorder.spans
        out["missing"] = recorder.missing
    Path(args.out).write_text(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

class ChildFailed(RuntimeError):
    pass


def spawn(args, mode: str, workdir: Path, plan_path: Path, deadline: float,
          rounds: int, trace: int = 0) -> tuple[float, dict]:
    """Run one workload process to completion; return its wall time and
    its output. It is killed and waited for if it overruns the run."""
    out = workdir / f"{mode}-{trace}.out.json"
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--child", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--rounds", str(rounds),
           "--plan", str(plan_path), "--workdir", str(workdir),
           "--out", str(out)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process overran the run limit") from exc
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return dt, (json.loads(out.read_text()) if mode == "measure" else {})


def check_rounds(wl, plan: dict, rounds: list[list]) -> dict:
    """The workload's checks over every round: operations attempted and
    failed (a mismatch is a failure too), and each distinct failure and
    mismatch once."""
    total = {"attempted": 0, "failed": 0, "failures": [], "mismatches": []}
    for results in rounds:
        res = wl.check(plan, results)
        total["attempted"] += res.pop("attempted")
        for key in ("failures", "mismatches"):
            found = res.pop(key)
            total["failed"] += len(found)
            total[key] += [f for f in found if f not in total[key]]
        total.update(res)
    return total


def timings(wl, rounds: list[list]) -> tuple[float, dict]:
    """``wall_s`` and ``module_s`` of a run: every item, and every timed
    piece of an item, is scaled to the reference host speed by the probes
    around it (``hostspeed``) and counts with its median round."""
    wall = 0.0
    module = {}
    for i in range(len(rounds[0])):
        wall += statistics.median(rnd[i]["s"] * rnd[i]["scale"]
                                  for rnd in rounds)
        pieces = [[(m, t * rnd[i]["scale"]) for m, t in wl.pieces(rnd[i])]
                  for rnd in rounds]
        for j, (m, _) in enumerate(pieces[0]):
            module[m] = module.get(m, 0.0) + statistics.median(
                p[j][1] for p in pieces if len(p) > j)
    return wall, module


def runner_main(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    import_ucbench()
    import hostspeed
    import reference
    from workloads import STARTUPS, WORKLOADS
    # the references build models too; their warnings are not results
    logging.getLogger("ucbench").setLevel(logging.ERROR)
    wl = WORKLOADS[args.workload]
    cache = reference.Cache(wl.name)
    plan = wl.plan(args.seed, args.smoke, cache)
    cache.save()
    if not plan["instances"]:
        sys.stderr.write("error: the seed yields no usable instance\n")
        return 1

    workdir = WORK / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    try:
        def probes(first):
            times = []
            before = hostspeed.probe()
            for k in range(first, first + SETUP_PROBES // 2):
                dt = spawn(args, "setup", workdir / f"probe{k}", plan_path,
                           deadline, rounds=0)[0]
                after = hostspeed.probe()
                times.append(dt * hostspeed.scale(before, after))
                before = after
            return times

        if args.trace:
            _, base = spawn(args, "measure", workdir / "untraced", plan_path,
                            deadline, rounds=1)
            _, run = spawn(args, "measure", workdir / "traced", plan_path,
                           deadline, trace=1, rounds=1)
            runs = [base, run]
        else:
            setup_times = probes(0)
            _, run = spawn(args, "measure", workdir / "measure", plan_path,
                           deadline, rounds=wl.rounds)
            runs = [run]
            setup_times += probes(SETUP_PROBES // 2)
    except ChildFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdict = check_rounds(wl, plan, [rnd for r in runs
                                      for rnd in r["rounds"]])
    wall, module = timings(wl, run["rounds"])
    details = {"workload": wl.name, "seed": args.seed,
               "instances": [s["name"] for s in plan["instances"]],
               "rounds": len(run["rounds"]),
               "round_wall_s": [sum(r["s"] for r in rnd)
                                for rnd in run["rounds"]],
               "round_scaled_wall_s": [sum(r["s"] * r["scale"] for r in rnd)
                                       for rnd in run["rounds"]],
               "host_speed": statistics.median(
                   r["scale"] for rnd in run["rounds"] for r in rnd),
               "fail_ratio": f"{verdict['failed']}/{verdict['attempted']}",
               "mismatch_count": len(verdict["mismatches"]),
               "env": environment(),
               "workload_blas_threads": run["blas_threads"]}
    details.update({k: v[:50] if isinstance(v, list) else v
                    for k, v in verdict.items()
                    if k not in ("attempted", "failed")})

    if args.trace:
        from tracing import PER_LAYER, layer_metrics
        overhead = wall / timings(wl, base["rounds"])[0] - 1.0
        values = layer_metrics(run["spans"], details["round_wall_s"][0],
                               overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        details["absent"] = run["missing"]
        trace_dir = HERE / ".out"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"spans-{wl.name}-{args.seed}.json"
        trace_file.write_text(json.dumps(run["spans"]))
        details["spans_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_times),
                               "unit": "s"},
                   "wall_s": {"value": wall, "unit": "s"}}
        for m in STARTUPS:
            metrics[f"module_s.{m}"] = {"value": module.get(m, 0.0),
                                        "unit": "s"}
        metrics["peak_rss_mb"] = {"value": run["peak_rss_mb"], "unit": "MB"}

    correct = not verdict["mismatches"]
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0 if correct else 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("gap-small", "build-paper", "oracle-ramp"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances, for the benchmark's self-tests")
    # internal: the workload processes this runner starts
    ap.add_argument("--child", choices=("setup", "measure"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--rounds", type=int,
                    help=argparse.SUPPRESS)
    ap.add_argument("--plan", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.child:
        return child_main(args)
    return runner_main(args)


if __name__ == "__main__":
    sys.exit(main())
