"""gramleak benchmark: attack cases in a closed loop, checked by an oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gramleak is imported from ``src``.
One client runs one case at a time, and the next case starts when the
previous one is judged. Workloads, cells and the oracle are in ``cases.py``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every case
twice, untraced and then traced, and prints the per-layer metrics from the
traced runs together with the tracing overhead. The metric names and units
come from ``BENCHMARK.json``. Notes (machine, failures, digests, ROADMAP
reference lines) go to stdout as ``#`` lines. The last line is the JSON
result. Per-case outcomes and spans are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5  # this process plus fresh interpreters; setup_s is their median
IMPORT_SAMPLES = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: the workload's tiny cycle, two cycles of inputs")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time (used for setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    return args


def setup(args, workdir: Path):
    """Import gramleak, generate every case input and run one warm-up case."""
    start = time.perf_counter()
    import cases  # imports numpy and gramleak

    workload = cases.WORKLOADS[args.workload]
    cycle = workload.tiny if args.tiny else workload.cycle
    cycles = 2 if args.tiny else workload.pool_cycles
    pool = cases.make_pool(cycle, cycles, args.seed, workdir)
    ctx = cases.Context(deadline=workload.deadline, workdir=workdir)
    if cycle[0].kind in cases.CLI_KINDS:
        ctx.cli = cases.InProcessCli() if args.trace else cases.SubprocessCli(SRC, workdir)
    warmup = cases.make_warmup(cycle, cycles, args.seed, workdir)
    cases.judge(warmup, cases.run_case(warmup, ctx), ctx)
    return time.perf_counter() - start, cases, pool, ctx


def probe_setup(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace), "--setup-probe"]
    if args.tiny:
        argv.append("--tiny")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def probe_import() -> float:
    """Seconds for a fresh interpreter to import gramleak.cli."""
    code = ("import time; t = time.perf_counter(); import gramleak.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return float(done.stdout.strip())


class Record:
    __slots__ = ("id", "cell", "traced", "seconds", "verdict", "message")

    def __init__(self, case, traced, seconds, verdict, message=None):
        self.id, self.cell, self.traced = case.id, case.cell.label, traced
        self.seconds, self.verdict, self.message = seconds, verdict, message

    def to_json(self) -> dict:
        v = self.verdict
        doc = {"id": self.id, "cell": self.cell, "traced": self.traced, "seconds": self.seconds,
               "verdict": v.kind, "reason": v.reason, "digest": v.digest}
        if self.message:
            doc["message"] = self.message
        return doc


def execute(cases, case, ctx, tracer=None) -> Record:
    """Run one case, time it, and judge it; the oracle is not timed."""
    if tracer is not None:
        tracer.begin(case.id)
        if ctx.cli is not None:
            ctx.cli.span = tracer.span
    start = time.perf_counter()
    try:
        outcome = cases.run_case(case, ctx)
    except Exception as exc:  # any error is this case's failure; the loop goes on
        seconds = time.perf_counter() - start
        return Record(case, tracer is not None, seconds, cases.error_verdict(exc),
                      f"{type(exc).__name__}: {exc}"[:300])
    finally:
        if tracer is not None:
            tracer.end()
            if ctx.cli is not None:
                ctx.cli.span = None
    seconds = time.perf_counter() - start
    return Record(case, tracer is not None, seconds, cases.judge(case, outcome, ctx))


def measure(cases, pool, ctx, seconds: float, tracer=None):
    """Closed loop over whole cycles until ``seconds`` have passed."""
    records = []
    start = time.perf_counter()
    for cycle in pool:
        for case in cycle:
            records.append(execute(cases, case, ctx))
            if tracer is not None:
                records.append(execute(cases, case, ctx, tracer))
        if time.perf_counter() - start >= seconds:
            break
    else:
        print(f"# note: all {len(pool)} input cycles used before {seconds} s", flush=True)
    return records, time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least TAIL_BEYOND cases beyond it, else p50.

    Returns the percentile, its nearest-rank value and how many cases lie beyond it.
    """
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50.0, ordered[rank - 1], n - rank


def machine_note(args, loadavg) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg_start": [round(v, 2) for v in loadavg],
            "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny}


def emit(spec_metrics, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def summarize(records, label: str) -> Counter:
    verdicts = Counter(r.verdict.kind for r in records)
    failures = Counter(r.verdict.reason for r in records if r.verdict.kind == "failed")
    undecided = Counter(r.verdict.reason for r in records if r.verdict.kind == "undecided")
    print(f"# {label}: {len(records)} cases, {verdicts['decided']} decided, "
          f"undecided {dict(undecided)}, failed {dict(failures)}", flush=True)
    return failures


def end_to_end(cases, ctx, untraced, decided, failures, elapsed, setups, tail_s) -> dict:
    if isinstance(ctx.cli, cases.SubprocessCli):
        peak_kb = ctx.cli.peak_rss_kb
        for command in sorted({c for c, _ in ctx.cli.calls}):
            walls = [s for c, s in ctx.cli.calls if c == command]
            print(f"# roadmap cli {command} subprocess: median {statistics.median(walls):.4g} s"
                  f" over {len(walls)} calls (ROADMAP: 0.28-0.35 s per call)", flush=True)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(untraced)
    return {
        "setup_s": statistics.median(setups),
        "case_p50_s": statistics.median(r.seconds for r in untraced),
        "case_tail_s": tail_s,
        "cases_per_s": n / elapsed,
        "decided_rate": decided / n,
        "ok_rate": 1.0 - sum(failures.values()) / n,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(cases, ctx, tracing, tracer, records, untraced_times) -> dict:
    traced = [r for r in records if r.traced]
    summarize(traced, "traced")
    overhead = statistics.median(r.seconds for r in traced) - statistics.median(untraced_times)
    print(f"# tracing overhead: traced minus untraced case_p50_s = {overhead:.6g} s", flush=True)
    for line in tracing.roadmap_lines(tracer.spans):
        print(f"# {line}", flush=True)
    values = tracing.layer_metrics(tracer.spans, len(traced))
    values["trace.overhead_s"] = overhead
    values["cli.exit_mismatch"] = sum(
        r.verdict.reason.startswith("exit:") for r in traced) / len(traced)
    values["cli.import_s"] = (statistics.median(probe_import() for _ in range(IMPORT_SAMPLES))
                              if isinstance(ctx.cli, cases.InProcessCli) else 0.0)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gramleak" / "__init__.py").is_file():
        print(f"gramleak sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"unknown workload {args.workload!r}; choose from {sorted(why)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup(args, workdir)[0]}))
            return 0
        return run(args, spec, why[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, why: str, workdir: Path) -> int:
    loadavg = os.getloadavg()
    setup_s, cases, pool, ctx = setup(args, workdir)
    if not args.trace:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    note = machine_note(args, loadavg)
    print(f"# machine {json.dumps(note)}", flush=True)
    print(f"# workload {args.workload}: {why}", flush=True)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    if isinstance(ctx.cli, cases.SubprocessCli):
        ctx.cli.peak_rss_kb, ctx.cli.calls = 0, []  # count the timed phase only
    records, elapsed = measure(cases, pool, ctx, args.seconds, tracer)

    untraced = [r for r in records if not r.traced]
    times = [r.seconds for r in untraced]
    pct, tail_s, beyond = tail(times)
    failures = summarize(untraced, "untraced" if tracer else "cases")
    wrong = [r for r in records if r.verdict.wrong]
    decided = sorted((r for r in untraced if r.verdict.kind == "decided"),
                     key=lambda r: [int(p) for p in r.id.split(".")])
    digest = cases.sha(*(f"{r.id}:{r.verdict.digest}".encode() for r in decided))
    print(f"# case_p50_s over n={len(times)}; case_tail_s is p{pct:g} with {beyond} cases beyond",
          flush=True)
    print(f"# outcome digest {digest} over {len(decided)} decided cases", flush=True)

    if tracer is None:
        values = end_to_end(cases, ctx, untraced, len(decided), failures, elapsed, setups, tail_s)
        metrics = emit(spec["end_to_end"], values)
    else:
        values = per_layer(cases, ctx, tracing, tracer, records, times)
        metrics = emit(spec["per_layer"], values)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.to_json()))

    outcome_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    outcome_path.write_text(json.dumps({
        "machine": note, "why": why, "elapsed_s": elapsed,
        "tail_percentile": pct, "digest": digest, "metrics": metrics,
        "cases": [r.to_json() for r in records],
    }, indent=1))
    print(f"# outcomes written to {outcome_path.relative_to(ROOT)}", flush=True)
    result = {"correct": not wrong, "attempted": len(records),
              "failed": sum(r.verdict.kind == "failed" for r in records), "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
