"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload at its tiny size, untraced and traced, and checks
   the result line: a correct run, and exactly the metrics BENCHMARK.json
   lists, each with its unit and a finite value.
2. Plants wrong answers into real outcomes and checks that the oracle
   rejects every one of them, and accepts the untouched outcomes.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   the benchmark's files; it must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cases  # noqa: E402
import run  # noqa: E402
from gramleak import cli, reconstruct  # noqa: E402


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def check_results(spec: dict) -> None:
    for workload in cases.WORKLOADS:
        for trace in (0, 1):
            done = bench(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            listed = spec["per_layer" if trace else "end_to_end"]
            assert list(result["metrics"]) == [m["name"] for m in listed]
            for m in listed:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (m, got)
                assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
            print(f"ok   {workload} trace {trace}: {len(listed)} metrics with units")


def first_case(cell: cases.Cell, status: str | None, workdir: Path) -> tuple:
    """The first generated case of ``cell`` whose pipeline reaches ``status``."""
    ctx = cases.Context(workdir=workdir)
    if cell.kind in cases.CLI_KINDS:
        ctx.cli = cases.InProcessCli()
    for seed in range(200):
        case = cases.make_case(f"0.{seed}", cell, np.random.default_rng([seed]), workdir)
        outcome = cases.run_case(case, ctx)
        if status is None or outcome.status == status:
            verdict = cases.judge(case, outcome, ctx)
            assert verdict.kind == cases.DECIDED, verdict
            return case, outcome, ctx
    raise AssertionError(f"no {status} case for {cell}")


def expect_wrong(name: str, case, outcome, ctx) -> None:
    verdict = cases.judge(case, outcome, ctx)
    assert verdict.kind == cases.FAILED and verdict.wrong, (name, verdict)
    print(f"ok   oracle rejects {name}: {verdict.reason}")


def check_oracle(workdir: Path) -> None:
    assert cases.EXIT_RESIDUAL == cli.EXIT_RESIDUAL
    case, out, ctx = first_case(cases.Cell(cases.SYNC, 5, 8), reconstruct.STATUS_UNIQUE, workdir)
    flipped = out.solutions[0].copy()
    flipped[0, 0] ^= 1
    expect_wrong("a flipped bit", case, replace(out, solutions=[flipped]), ctx)
    expect_wrong("negated labels", case, replace(out, labels=-out.labels), ctx)
    expect_wrong("a failed self-check", case, replace(out, verified=False), ctx)
    expect_wrong("a repeated 'multiple' solution", case,
                 replace(out, status=reconstruct.STATUS_MULTIPLE,
                         solutions=[out.solutions[0], out.solutions[0]]), ctx)
    expect_wrong("'infeasible'", case,
                 replace(out, status=reconstruct.STATUS_INFEASIBLE, solutions=[]), ctx)

    case, out, ctx = first_case(cases.Cell(cases.SYNC, 4, 5), reconstruct.STATUS_MULTIPLE, workdir)
    other = next(x for x in out.solutions
                 if not np.array_equal(x, reconstruct.canonical_rows(case.xs[0])))
    expect_wrong("another batch with the victim's Gram matrix", case,
                 replace(out, status=reconstruct.STATUS_UNIQUE, solutions=[other]), ctx)
    record = run.execute(cases, replace(case, xs=(case.xs[0] * 2,)), ctx)
    assert record.verdict.reason == "error:ValueError", record.verdict
    print(f"ok   a raising case is classified as {record.verdict.reason}")

    case, out, ctx = first_case(cases.Cell(cases.ASYNC, 3, 6, batches=2), "fit", workdir)
    gamma, eta = out.fit
    expect_wrong("a perturbed gamma", case, replace(out, fit=(gamma + 1e-3, eta)), ctx)
    expect_wrong("a false shuffle detection", case, replace(out, status="detected"), ctx)
    case, out, ctx = first_case(cases.Cell(cases.SHUFFLED, 3, 6, batches=3), "detected", workdir)
    expect_wrong("an undetected shuffle", case, replace(out, status="fit"), ctx)

    case, out, ctx = first_case(cases.Cell(cases.CLI_SYNC, 5, 8), None, workdir)
    path = workdir / f"{case.id}.solution.json"
    doc = json.loads(path.read_text())
    doc["x"][0][0] ^= 1
    path.write_text(json.dumps(doc))
    expect_wrong("a tampered solution.json", case, out, ctx)
    path.unlink()
    expect_wrong("a missing solution.json", case, out, ctx)
    case, out, ctx = first_case(cases.Cell(cases.CLI_SHUFFLED, 5, 8, batches=3), None, workdir)
    expect_wrong("a shuffled attack exiting 0", case,
                 replace(out, exits=(("simulate", 0, 0), ("attack", 0, cases.EXIT_RESIDUAL))), ctx)


def check_without_sources(bare: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(bare, "paper_grid", 0)
    lines = done.stdout.splitlines()
    assert done.returncode != 0 and not (lines and lines[-1].startswith("{")), done
    print(f"ok   without sources: exit {done.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        check_oracle(Path(tmp))
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        check_without_sources(Path(tmp))
    check_results(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
