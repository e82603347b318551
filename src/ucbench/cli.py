"""Command-line interface.

Exit codes: 0 success, 1 usage error (argparse rejects the command line),
2 data error (an unreadable or invalid instance, model, config or backend,
or an output path that cannot be written), 3 solve failure (the solver, or
a backend that runs, reported an error, or no result came within the
budget). A proven infeasible or unbounded model is an *answer*, not a failure.

Commands raise on bad data; :func:`cli` alone turns those exceptions
into exit code 2. A command returns 2 or 3 itself only for outcomes that
are not exceptions: ``validate``'s violations, ``solve``'s failed solve
and ``oracle``'s inconclusive report: a size-guard trip, or a formulation
that does not end as the enumeration does (optimal if some schedule is
feasible, infeasible if none is).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import BenchConfig, gap_rows, run_benchmark, write_csv
from .domain import check_instance, load_instance, validate_instance
from .formulations import (BASES, STARTUPS, FormulationChoice, build_model,
                           step_functions)
from .milp import read_mps, write_mps
from .oracle import certify_equivalence
from .solver import SolveConfig, solve_mip
from .startup import check_ktol

# InstanceFormatError, MpsParseError and JSONDecodeError are ValueErrors
_DATA_ERRORS = (OSError, ValueError, KeyError, TypeError)


def _choice(args) -> FormulationChoice:
    return FormulationChoice(base=args.base, startup=args.formulation,
                             ktol=args.ktol)


def _cmd_validate(args) -> int:
    problems = validate_instance(load_instance(args.instance))
    if problems:
        for p in problems:
            print(p)
        return 2
    print("OK")
    return 0


def _cmd_build(args) -> int:
    model, _ = build_model(load_instance(args.instance), _choice(args))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(write_mps(model))
    print(f"wrote {args.out}: {model.n_variables} variables, "
          f"{model.n_constraints} constraints")
    return 0


def _cmd_solve(args) -> int:
    path = args.input
    if path.lower().endswith(".mps"):
        with open(path, encoding="utf-8") as fh:
            model = read_mps(fh.read())
    else:
        model, _ = build_model(load_instance(path), _choice(args))
    res = solve_mip(model, SolveConfig(args.gap, args.time_limit,
                                       args.backend))
    print(f"status     {res.status}")
    print(f"objective  {res.objective!r}")
    print(f"bound      {res.best_bound!r}")
    print(f"nodes      {res.nodes}")
    if res.message:
        print(f"note       {res.message}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"# solution for {model.name}: {res.status}\n")
            for name in sorted(res.values):
                fh.write(f"{name} {res.values[name]!r}\n")
        print(f"solution written to {args.out}")
    if res.status == "error":
        return 3
    if res.status == "time_limit" and res.values == {}:
        return 3
    return 0


def _cmd_gap(args) -> int:
    config = BenchConfig(
        instances=[args.instance],
        formulations=[f.strip() for f in args.formulations.split(",")
                      if f.strip()],
        base=args.base, ktols=[args.ktol], gap=args.gap,
        time_limit=args.time_limit, backend=args.backend)
    rows, _ = gap_rows(config)
    write_csv(rows, sys.stdout)
    return 0


def _cmd_bench(args) -> int:
    paths = run_benchmark(BenchConfig.from_json(args.config),
                          out_dir=args.out_dir)
    for kind, p in paths.items():
        print(f"{kind}: {p}")
    return 0


def _cmd_approx(args) -> int:
    inst = load_instance(args.instance)
    check_instance(inst)
    for uid, sf in step_functions(inst, args.ktol).items():
        print(f"{uid}: {sf.n_steps} steps (ktol={args.ktol!r})")
        for s in sf.steps:
            rng = f"[{s.lo}, {s.hi}]" if s.lo != s.hi else f"[{s.lo}]"
            print(f"  off-time {rng}: {s.value!r}")
    return 0


def _cmd_oracle(args) -> int:
    report = certify_equivalence(load_instance(args.instance),
                                 base=args.base, guard=args.guard)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["conclusive"] else 3


def _checked(check):
    """An argparse type: a float that ``check`` accepts; its ValueError
    becomes the usage error."""
    def number(text: str) -> float:
        val = float(text)
        try:
            check(val)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return val
    return number


_ktol = _checked(check_ktol)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ucbench",
        description="Unit commitment MILP builder and benchmark harness")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_formulation_flags(p, required=False):
        p.add_argument("--formulation", required=required, default="one_bin",
                       choices=STARTUPS)
        p.add_argument("--base", default="basic", choices=BASES)
        p.add_argument("--ktol", type=_ktol, default=0.0)

    def add_solve_flags(p):
        p.add_argument("--gap", type=_checked(lambda v: SolveConfig(gap=v)),
                       default=1e-6, help="relative optimality gap target")
        p.add_argument("--time-limit", default=3600.0,
                       type=_checked(lambda v: SolveConfig(time_limit=v)))
        p.add_argument("--backend", default="reference",
                       help="'reference' or an external command template "
                            "with {input} and {output} placeholders")

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("build", help="build a model and write MPS")
    p.add_argument("instance")
    add_formulation_flags(p, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("solve", help="solve an instance or an MPS model")
    p.add_argument("input", help="instance .json or model .mps")
    add_formulation_flags(p)
    add_solve_flags(p)
    p.add_argument("--out", default=None,
                   help="write the solution as 'name value' lines")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gap", help="integrality gaps, CSV on stdout")
    p.add_argument("instance")
    p.add_argument("--formulations", required=True,
                   help="comma-separated subset of " + ",".join(STARTUPS))
    p.add_argument("--base", default="basic", choices=BASES)
    p.add_argument("--ktol", type=_ktol, default=0.0)
    add_solve_flags(p)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("bench", help="run a benchmark config")
    p.add_argument("config", help="BenchConfig as JSON")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("approx", help="print per-unit step functions")
    p.add_argument("instance")
    p.add_argument("--ktol", type=_ktol, default=0.0)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("oracle", help="certify formulation equivalence")
    p.add_argument("instance")
    p.add_argument("--base", default="basic", choices=BASES)
    p.add_argument("--guard", type=int, default=24,
                   help="enumeration size cap (units x periods)")
    p.set_defaults(func=_cmd_oracle)
    return ap


def cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage, 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
