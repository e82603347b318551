"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

run.import_ucbench()

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv, env=None):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, env=env)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_workload_reports_every_end_to_end_metric(workload):
    rc, lines, err = bench("--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", "0", "--smoke")
    assert rc == 0, err
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_smoke_traced_run_reports_every_layer_metric():
    rc, lines, err = bench("--workload", "oracle-ramp", "--seed", "3",
                           "--seconds", "1", "--trace", "1", "--smoke")
    assert rc == 0, err
    metrics = json.loads(lines[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["oracle.dispatch_lps"]["value"] == 256
    assert metrics["trace.coverage"]["value"] >= 0.9


def test_thread_pin_reaches_the_workload_process():
    env = dict(os.environ, OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2")
    rc, lines, err = bench("--workload", "build-paper", "--seed", "1",
                           "--seconds", "1", "--smoke", env=env)
    assert rc == 0, err
    details = json.loads(lines[-2])
    assert details["workload_blas_threads"] == 1
    assert details["env"]["blas_threads"] == 1
    assert set(details["env"]["thread_env"].values()) == {"1"}


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "gap-small", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- reference checks -------------------------------------------------------

def _small_model():
    from ucbench.formulations import FormulationChoice, build_model
    inst = workloads._generate({"seed": 1001, "n_units": 2, "T": 4})
    model, _ = build_model(inst, FormulationChoice("basic", "temp", 0.0))
    return model


def test_highs_reference_matches_the_bundled_solver():
    from ucbench.milp import write_mps
    from ucbench.solver import solve_lp
    model = _small_model()
    ref = reference.highs_lp_mip(write_mps(model))
    assert ref["lp"] == pytest.approx(solve_lp(model).objective, rel=1e-9)
    assert ref["mip"] >= ref["lp"] - 1e-9


def test_highs_reference_is_right_where_presolve_was_wrong():
    # HiGHS presolve reported 5528.08 here; the bundled solver's 3891.20
    # is feasible, and every other formulation of the instance agrees
    from ucbench.formulations import FormulationChoice, build_model
    from ucbench.milp import write_mps
    inst = workloads._generate({"seed": 42069, "n_units": 2, "T": 3})
    model, _ = build_model(inst, FormulationChoice("extended", "three_bin",
                                                   0.0))
    ref = reference.highs_lp_mip(write_mps(model))
    assert ref["mip"] == pytest.approx(3891.1960757, rel=1e-9)


def test_gap_check_catches_a_perturbed_objective():
    ref = {"lp": 1000.0, "mip": 1010.0}
    row = {"z_lp": 1000.0, "z_mip": 1012.0}
    assert reference.gap_row_mismatch(row, ref, gap=0.01) is None
    assert reference.gap_row_mismatch(dict(row, z_lp=1000.01), ref, 0.01)
    assert reference.gap_row_mismatch(dict(row, z_mip=1009.9), ref, 0.01)
    assert reference.gap_row_mismatch(dict(row, z_mip=1020.3), ref, 0.01)


def test_mps_check_catches_a_flipped_byte():
    from ucbench.milp import read_mps, write_mps
    model = _small_model()
    text = write_mps(model)
    golden = hashlib.sha256(text.encode()).hexdigest()
    lines = text.split("\n")
    k = next(i for i, line in enumerate(lines) if line.startswith("    RHS "))
    lines[k] = lines[k][:-1] + ("1" if lines[k][-1] != "1" else "2")
    flipped = "\n".join(lines)
    good = {"sha256": golden, "roundtrip_ok": read_mps(text) == model}
    bad = {"sha256": hashlib.sha256(flipped.encode()).hexdigest(),
           "roundtrip_ok": read_mps(flipped) == model}
    assert reference.mps_mismatch(good, golden) is None
    assert "sha256" in reference.mps_mismatch(bad, golden)
    assert not bad["roundtrip_ok"]
    assert reference.mps_mismatch(dict(bad, sha256=golden), golden)


def test_goldens_cover_the_build_paper_models():
    goldens = reference.load_goldens()
    ids = [f"{b}/{m}/{k!r}" for b, m, k in
           workloads.WORKLOADS["build-paper"].models()]
    assert goldens and all(sorted(t) == sorted(ids)
                           for t in goldens.values())


# -- host-speed scaling -----------------------------------------------------

def test_host_speed_scale_is_one_at_the_reference_speed():
    import hostspeed
    assert hostspeed.scale(hostspeed.REF_S, hostspeed.REF_S) == 1.0
    assert hostspeed.scale(2 * hostspeed.REF_S, 2 * hostspeed.REF_S) == 0.5
    assert 0.0 < hostspeed.probe() < 50 * hostspeed.REF_S


# -- spans ------------------------------------------------------------------

def test_span_self_times_are_within_their_parent(tmp_path):
    rec = tracing.Recorder()
    rec.install(tracing.TARGETS + (("ucbench.cli", "no_such_name",
                                    "cli.missing"),))
    try:
        inst = tmp_path / "i.json"
        from ucbench.domain import save_instance
        save_instance(workloads._generate(
            {"seed": 1001, "n_units": 2, "T": 4, "ramp_factor": 0.6}), inst)
        rec.item = "item"
        rc, _, _ = workloads._quiet_cli(["oracle", str(inst)])
    finally:
        rec.uninstall()
    assert rc == 0
    assert rec.missing == ["ucbench.cli.no_such_name"]
    spans = rec.spans
    selfs = tracing.self_times(spans)
    assert len(spans) > 100
    for span, own in zip(spans, selfs):
        assert own >= 0.0
        if span[3] is not None:
            parent = spans[span[3]]
            assert parent[1] <= span[1] <= span[2] <= parent[2]
            assert own <= parent[2] - parent[1]
    wall = sum(s[2] - s[1] for s in spans
               if s[3] is None and s[4] == "item")
    metrics = tracing.layer_metrics(spans, wall, 0.0)
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}
    assert metrics["trace.coverage"] == pytest.approx(1.0)
