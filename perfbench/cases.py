"""Workloads of the gramleak benchmark: case inputs, case pipelines and the oracle.

A case is one victim attacked end to end. Its inputs come from the benchmark
seed: binary batches and a training config for the in-process workloads, a
JSON config file for the CLI workload. The pipeline calls gramleak's public
functions the way a user of the library or of the ``gramleak`` command would.
The oracle then checks the outcome against the victim's ground truth, which
the pipeline never sees, using its own integer arithmetic.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gramleak import attack, fedsim, reconstruct

LEARNING_RATE = 0.1
SOLUTION_LIMIT = 2  # two solutions settle uniqueness either way
FIT_TOLERANCE = 1e-6  # relative gap allowed between fitted and closed-form (gamma, eta)
EXIT_RESIDUAL = 6  # gramleak.cli.EXIT_RESIDUAL; not imported so timed runs never load click
CLI_TIMEOUT_S = 120.0

SYNC = "sync"
ASYNC = "async"
SHUFFLED = "shuffled"
CLI_SYNC = "cli_sync"
CLI_DISCOVER = "cli_discover"
CLI_SHUFFLED = "cli_shuffled"
CLI_TABLE1 = "cli_table1"
CLI_THEOREMS = "cli_theorems"
CLI_KINDS = (CLI_SYNC, CLI_DISCOVER, CLI_SHUFFLED, CLI_TABLE1, CLI_THEOREMS)

# Keys of CLI artifacts that hold wall-clock readings; digests leave them out.
WALL_CLOCK_KEYS = ("wall_time", "median_seconds")

DECIDED = "decided"
UNDECIDED = "undecided"
FAILED = "failed"


@dataclass(frozen=True)
class Cell:
    """One kind of case: what is attacked and at which size."""

    kind: str
    m: int
    d: int
    batches: int = 1

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.m}x{self.d}"


@dataclass(frozen=True)
class Workload:
    """A cycle of cells run in order, again and again, until time is up.

    Runs stop only at the end of a cycle, so every run measures the same mix
    of cells. ``pool_cycles`` is how many cycles of inputs set-up generates:
    about four times what this code completes in 25 s. A program fast enough
    to use them all ends its run early. ``tiny`` is the smoke-test cycle.
    """

    name: str
    cycle: tuple[Cell, ...]
    pool_cycles: int
    tiny: tuple[Cell, ...]
    deadline: float | None = None


def _grid(kind: str, ms, ds) -> tuple[Cell, ...]:
    return tuple(Cell(kind, m, d) for m in ms for d in ds)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's Table 1 cells, exhaustive search with limit 2.
        Workload("paper_grid", _grid(SYNC, (3, 5, 8, 9, 11), (5, 10, 15, 20)),
                 pool_cycles=500, tiny=_grid(SYNC, (3, 5), (5, 8))),
        # Above the grid; solve time is heavy-tailed, so each solve gets a
        # deadline and cases that hit it count as undecided.
        Workload("search_frontier",
                 (Cell(SYNC, 11, 22), Cell(SYNC, 12, 22), Cell(SYNC, 12, 24),
                  Cell(SYNC, 13, 24), Cell(SYNC, 14, 26), Cell(SYNC, 16, 30)),
                 pool_cycles=500, tiny=(Cell(SYNC, 9, 14), Cell(SYNC, 10, 16)),
                 deadline=0.1),
        # Wide systems: recovery and build dominate. In the last three cells
        # the recursive search exceeds Python's recursion limit; they stay in
        # so that the failure shows. Sync 3x100 is half of each cycle, so the
        # median and the p75 tail fall among its cases, away from the cheaper
        # async cases, whether a run completes two, three or four cycles.
        Workload("wide_recovery",
                 (*(Cell(ASYNC, 4, 100, batches=2),) * 2,
                  *(Cell(SHUFFLED, 4, 100, batches=3),) * 2,
                  *(Cell(SYNC, 3, 100),) * 7,
                  Cell(SYNC, 8, 120), Cell(SYNC, 6, 140), Cell(SYNC, 4, 200)),
                 pool_cycles=20,
                 tiny=(Cell(ASYNC, 3, 12, batches=2), Cell(SHUFFLED, 3, 12, batches=3),
                       Cell(SYNC, 3, 12))),
        # The README walkthrough, one subprocess per command.
        Workload("cli_walkthrough",
                 (Cell(CLI_SYNC, 5, 10), Cell(CLI_DISCOVER, 5, 10),
                  Cell(CLI_SHUFFLED, 5, 10, batches=3), Cell(CLI_TABLE1, 0, 0),
                  Cell(CLI_THEOREMS, 0, 0)),
                 pool_cycles=40,
                 tiny=(Cell(CLI_SYNC, 4, 6), Cell(CLI_DISCOVER, 4, 6),
                       Cell(CLI_SHUFFLED, 4, 6, batches=3), Cell(CLI_TABLE1, 0, 0),
                       Cell(CLI_THEOREMS, 0, 0))),
    )
}


@dataclass(frozen=True)
class Case:
    """Inputs of one case. ``xs``/``ys`` are the victim's batches (int8)."""

    id: str
    cell: Cell
    seed: int
    xs: tuple[np.ndarray, ...] = ()
    ys: tuple[np.ndarray, ...] = ()
    attacker: tuple[np.ndarray, np.ndarray] | None = None
    config_path: str | None = None


def _binary_batch(rng: np.random.Generator, m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    x = rng.integers(0, 2, size=(m, d), dtype=np.int8)
    y = (2 * rng.integers(0, 2, size=m, dtype=np.int8) - 1).astype(np.int8)
    return x, y


def _cli_config(cell: Cell, seed: int) -> dict:
    if cell.kind == CLI_TABLE1:
        return {"grid": "3,5x5,10", "trials": 1, "seed": seed, "format": "csv"}
    if cell.kind == CLI_THEOREMS:
        return {"trials": 20, "seed": seed}
    config = {"m": cell.m, "d": cell.d, "rounds": cell.d + 3, "seed": seed}
    if cell.kind == CLI_SHUFFLED:
        config.update(mode=fedsim.ASYNCHRONIZED, shuffle=True, batches=cell.batches)
    return config


def make_case(case_id: str, cell: Cell, rng: np.random.Generator, workdir: Path | None) -> Case:
    seed = int(rng.integers(2**31))
    if cell.kind in CLI_KINDS:
        path = workdir / f"{case_id}.config.json"
        path.write_text(json.dumps(_cli_config(cell, seed), sort_keys=True))
        return Case(case_id, cell, seed, config_path=str(path))
    batches = [_binary_batch(rng, cell.m, cell.d) for _ in range(cell.batches)]
    return Case(
        case_id, cell, seed,
        xs=tuple(x for x, _ in batches), ys=tuple(y for _, y in batches),
        attacker=_binary_batch(rng, cell.m, cell.d),
    )


def make_pool(cycle: tuple[Cell, ...], cycles: int, seed: int,
              workdir: Path | None) -> list[list[Case]]:
    """Inputs of every case, cycle by cycle; case ids are ``cycle.position``."""
    pool = []
    for c in range(cycles):
        rng = np.random.default_rng([seed, c])
        pool.append([make_case(f"{c}.{i}", cell, rng, workdir) for i, cell in enumerate(cycle)])
    return pool


def make_warmup(cycle: tuple[Cell, ...], cycles: int, seed: int, workdir: Path | None) -> Case:
    """A case with fresh inputs (not one of the pool's) of the cycle's first cell."""
    return make_case("warmup", cycle[0], np.random.default_rng([seed, cycles]), workdir)


@dataclass
class Outcome:
    """What the program returned for one case; the oracle judges it."""

    status: str
    solutions: list[np.ndarray] = field(default_factory=list)
    labels: np.ndarray | None = None
    verified: bool = True  # every verify_solution call of the pipeline passed
    exhausted: bool = True
    fit: tuple[np.ndarray, np.ndarray] | None = None
    predicted: tuple[np.ndarray, np.ndarray] | None = None
    exits: tuple[tuple[str, int, int], ...] = ()  # (command, exit code, expected code)


@dataclass(frozen=True)
class Verdict:
    kind: str  # DECIDED, UNDECIDED or FAILED
    reason: str  # settled status, or the failure class
    digest: str  # sha256 of the outcome's canonical bytes

    @property
    def wrong(self) -> bool:
        """Failed by giving a wrong answer, not by raising or exiting."""
        return self.reason.startswith("wrong:")


def _batch(x: np.ndarray, y: np.ndarray) -> fedsim.Batch:
    return fedsim.Batch(x=x.astype(float), y=y.astype(float))


def _run_sync(case: Case, deadline: float | None) -> Outcome:
    m, d = case.cell.m, case.cell.d
    config = fedsim.TrainingConfig(learning_rate=LEARNING_RATE, rounds=d + 3, seed=case.seed)
    transcript = fedsim.run_training(
        [_batch(case.xs[0], case.ys[0])], _batch(*case.attacker), config
    )
    system = attack.recover_alpha_beta(list(transcript.observations), LEARNING_RATE)
    model = reconstruct.build_model(system.alpha, m)
    solutions, stats = reconstruct.solve(model, limit=SOLUTION_LIMIT, deadline=deadline)
    xs = [s.x for s in solutions]
    labels = None
    if stats.status == reconstruct.STATUS_UNIQUE:
        labels = reconstruct.recover_labels(xs[0], system.beta)
        checks = [reconstruct.verify_solution(xs[0], labels, system)]
    else:
        checks = [reconstruct.verify_solution(x, None, system) for x in xs]
    return Outcome(stats.status, xs, labels, all(c.ok for c in checks), stats.exhausted)


def _run_async(case: Case, shuffle: bool) -> Outcome:
    batches = [_batch(x, y) for x, y in zip(case.xs, case.ys)]
    config = fedsim.TrainingConfig(
        learning_rate=LEARNING_RATE, mode=fedsim.ASYNCHRONIZED,
        rounds=case.cell.d + 3, shuffle=shuffle, seed=case.seed,
    )
    transcript = fedsim.run_training(batches, _batch(*case.attacker), config)
    try:
        fitted = attack.recover_gamma_eta(list(transcript.observations), LEARNING_RATE)
    except attack.ResidualTooLarge:
        return Outcome("detected")
    predicted = attack.closed_form_params(
        [b.x.T @ b.x for b in batches], [b.x.T @ b.y for b in batches], LEARNING_RATE
    )
    return Outcome("fit", fit=(fitted.gamma, fitted.eta),
                   predicted=(predicted.gamma, predicted.eta))


def _artifact(case: Case, workdir: Path, name: str) -> Path:
    return workdir / f"{case.id}.{name}"


def _cli_steps(case: Case, workdir: Path) -> list[tuple[list[str], int]]:
    """The commands of one CLI case, each with the exit code it must give."""
    kind = case.cell.kind
    path = {n: str(_artifact(case, workdir, n)) for n in (
        "transcript.json", "recovery.json", "solution.json", "model.txt",
        "table1.csv", "theorems.json")}
    if kind == CLI_TABLE1:
        return [(["table1", "--config", case.config_path, "--out", path["table1.csv"]], 0)]
    if kind == CLI_THEOREMS:
        return [(["theorems", "--config", case.config_path, "--out", path["theorems.json"]], 0)]
    simulate = ["simulate", "--config", case.config_path, "--out", path["transcript.json"]]
    attack_cmd = ["attack", path["transcript.json"], "--out", path["recovery.json"]]
    if kind == CLI_SHUFFLED:
        return [(simulate, 0), (attack_cmd, EXIT_RESIDUAL)]
    size = (["--m", str(case.cell.m), "--export-model", path["model.txt"]]
            if kind == CLI_SYNC else ["--discover"])
    rebuild = ["reconstruct", path["recovery.json"], *size, "--out", path["solution.json"]]
    return [(simulate, 0), (attack_cmd, 0), (rebuild, 0)]


def _run_cli(case: Case, cli, workdir: Path) -> Outcome:
    exits = []
    for argv, expected in _cli_steps(case, workdir):
        code = cli(argv)
        exits.append((argv[0], code, expected))
        if code != expected:
            break
    return Outcome("exited", exits=tuple(exits))


@dataclass
class Context:
    """What a case needs besides its inputs."""

    deadline: float | None = None
    workdir: Path | None = None
    cli: object = None  # SubprocessCli or InProcessCli for the CLI workload


def run_case(case: Case, ctx: Context) -> Outcome:
    kind = case.cell.kind
    if kind == SYNC:
        return _run_sync(case, ctx.deadline)
    if kind in (ASYNC, SHUFFLED):
        return _run_async(case, shuffle=kind == SHUFFLED)
    return _run_cli(case, ctx.cli, ctx.workdir)


# ---------------------------------------------------------------- oracle


def sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _rows(x: np.ndarray) -> bytes:
    """Canonical bytes of a batch: rows sorted, as int8."""
    return np.array(sorted(map(tuple, np.asarray(x, dtype=np.int64))), dtype=np.int8).tobytes()


def _check_batch(x, y, truth_x: np.ndarray, truth_y: np.ndarray) -> str | None:
    """Independent integer check of a candidate batch against the victim's."""
    x = np.asarray(x, dtype=np.int64)
    tx = truth_x.astype(np.int64)
    if x.ndim != 2 or x.shape[1] != tx.shape[1] or not np.all((x == 0) | (x == 1)):
        return f"malformed batch of shape {x.shape}"
    if not np.array_equal(x.T @ x, tx.T @ tx):
        return "batch Gram matrix differs from the victim's"
    if y is not None:
        y = np.asarray(y, dtype=np.int64)
        if y.shape != (x.shape[0],) or not np.all(np.abs(y) == 1):
            return "labels are not a sign vector"
        if not np.array_equal(x.T @ y, tx.T @ truth_y.astype(np.int64)):
            return "labels do not reproduce the victim's X'y"
    return None


def _judge_sync(case: Case, out: Outcome) -> Verdict:
    truth_x, truth_y = case.xs[0], case.ys[0]
    digest = sha(out.status.encode(), *(_rows(x) for x in out.solutions),
                  b"" if out.labels is None else np.asarray(out.labels, np.int8).tobytes())
    wrong = None
    for x in out.solutions:
        wrong = wrong or _check_batch(x, None, truth_x, truth_y)
    if wrong is None and not out.verified:
        wrong = "verify_solution rejected the pipeline's own answer"
    if wrong is None and out.status == reconstruct.STATUS_UNIQUE:
        if _rows(out.solutions[0]) != _rows(truth_x):
            wrong = "unique solution differs from the victim batch"
        else:
            wrong = _check_batch(out.solutions[0], out.labels, truth_x, truth_y)
    elif wrong is None and out.status == reconstruct.STATUS_MULTIPLE:
        if len(out.solutions) != 2 or _rows(out.solutions[0]) == _rows(out.solutions[1]):
            wrong = "multiple status without two distinct solutions"
    elif wrong is None and out.status == reconstruct.STATUS_INFEASIBLE:
        wrong = "infeasible although the victim batch fits"
    if wrong:
        return Verdict(FAILED, f"wrong:{wrong}", digest)
    if out.status == reconstruct.STATUS_LIMIT:
        if out.exhausted:
            return Verdict(FAILED, "wrong:limit status on an exhausted search", digest)
        return Verdict(UNDECIDED, "deadline", digest)
    return Verdict(DECIDED, out.status, digest)


def _judge_async(case: Case, out: Outcome) -> Verdict:
    if case.cell.kind == SHUFFLED:
        if out.status == "detected":
            return Verdict(DECIDED, "detected", sha(b"detected"))
        return Verdict(FAILED, "wrong:shuffled rounds fitted one affine map",
                       sha(out.status.encode()))
    if out.status != "fit":
        return Verdict(FAILED, "wrong:unshuffled rounds reported as shuffled",
                       sha(out.status.encode()))
    fit = np.concatenate([np.ravel(a) for a in out.fit])
    predicted = np.concatenate([np.ravel(a) for a in out.predicted])
    digest = sha(b"fit", np.round(fit, 9).tobytes())
    gap = float(np.max(np.abs(fit - predicted)))
    if not gap <= FIT_TOLERANCE * max(1.0, float(np.max(np.abs(predicted)))):
        return Verdict(FAILED, f"wrong:fit is {gap:.1e} from the closed form", digest)
    return Verdict(DECIDED, "fit", digest)


def strip_wall_clock(doc):
    """A JSON document with every wall-clock field removed, recursively."""
    if isinstance(doc, dict):
        return {k: strip_wall_clock(v) for k, v in doc.items() if k not in WALL_CLOCK_KEYS}
    if isinstance(doc, list):
        return [strip_wall_clock(v) for v in doc]
    return doc


def artifact_digest(path: Path) -> str:
    """sha256 of an artifact with its wall-clock fields removed."""
    text = path.read_text()
    if path.suffix == ".json":
        text = json.dumps(strip_wall_clock(json.loads(text)), sort_keys=True)
    elif path.suffix == ".csv":
        rows = [line.split(",") for line in text.splitlines()]
        drop = [i for i, name in enumerate(rows[0]) if name in WALL_CLOCK_KEYS]
        text = "\n".join(",".join(v for i, v in enumerate(r) if i not in drop) for r in rows)
    return sha(text.encode())


def _judge_cli_artifacts(case: Case, workdir: Path) -> tuple[str | None, list[Path]]:
    kind = case.cell.kind
    if kind == CLI_TABLE1:
        path = _artifact(case, workdir, "table1.csv")
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        cells = [(int(r[0]), int(r[1])) for r in rows]
        if cells != [(3, 5), (3, 10), (5, 5), (5, 10)]:
            return f"table1 cells {cells}", [path]
        for m, d, constraints, _, status in rows:
            m, d = int(m), int(d)
            if int(constraints) != (2 * m + 1) * d * d - 2 * m * d:
                return f"table1 constraint count {constraints} at {m}x{d}", [path]
            if status not in (reconstruct.STATUS_UNIQUE, reconstruct.STATUS_MULTIPLE):
                return f"table1 status {status} at {m}x{d}", [path]
        return None, [path]
    if kind == CLI_THEOREMS:
        path = _artifact(case, workdir, "theorems.json")
        doc = json.loads(path.read_text())
        equivalence = doc["closed_form_equivalence"]
        if equivalence["failures"] or doc["nullity_grid"]["failures"]:
            return "theorem checks reported failures", [path]
        if not equivalence["max_deviation"] <= equivalence["tolerance"]:
            return "closed-form deviation above tolerance", [path]
        return None, [path]
    transcript = _artifact(case, workdir, "transcript.json")
    if kind == CLI_SHUFFLED:
        return None, [transcript]
    recovery = _artifact(case, workdir, "recovery.json")
    solution = _artifact(case, workdir, "solution.json")
    paths = [transcript, recovery, solution]
    truth = json.loads(transcript.read_text())["ground_truth"][0]
    truth_x, truth_y = np.array(truth["x"]), np.array(truth["y"])
    doc = json.loads(solution.read_text())
    wrong = _check_batch(doc["x"], doc["y"], truth_x, truth_y)
    if wrong is None and doc["stats"]["status"] == reconstruct.STATUS_UNIQUE \
            and doc["m"] == case.cell.m and _rows(doc["x"]) != _rows(truth_x):
        wrong = "unique solution differs from the victim batch"
    if wrong is None and doc["m"] > case.cell.m:
        wrong = f"discovered batch size {doc['m']} above the true {case.cell.m}"
    if kind == CLI_SYNC:
        paths.append(_artifact(case, workdir, "model.txt"))
    return wrong, paths


def _judge_cli(case: Case, out: Outcome, workdir: Path) -> Verdict:
    codes = ",".join(f"{c}={code}" for c, code, _ in out.exits)
    for command, code, expected in out.exits:
        if code != expected:
            if case.cell.kind == CLI_SHUFFLED and command == "attack" and code == 0:
                return Verdict(FAILED, "wrong:shuffled attack exited 0", sha(codes.encode()))
            return Verdict(FAILED, f"exit:{command}={code}", sha(codes.encode()))
    wrong, paths = _judge_cli_artifacts(case, workdir)
    digest = sha(codes.encode(), *(artifact_digest(p).encode() for p in paths))
    if wrong:
        return Verdict(FAILED, f"wrong:{wrong}", digest)
    return Verdict(DECIDED, "exit 6" if case.cell.kind == CLI_SHUFFLED else "verified", digest)


def judge(case: Case, out: Outcome, ctx: Context) -> Verdict:
    kind = case.cell.kind
    try:
        if kind == SYNC:
            return _judge_sync(case, out)
        if kind in (ASYNC, SHUFFLED):
            return _judge_async(case, out)
        return _judge_cli(case, out, ctx.workdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        # A missing or malformed result is a wrong answer, not a crash of the benchmark.
        name = type(exc).__name__
        return Verdict(FAILED, f"wrong:unreadable result ({name})", sha(name.encode()))


def error_verdict(exc: BaseException) -> Verdict:
    return Verdict(FAILED, f"error:{type(exc).__name__}", sha(type(exc).__name__.encode()))


# ---------------------------------------------------------------- CLI runners


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


class SubprocessCli:
    """Runs each command as a fresh ``python -m gramleak.cli`` process.

    Children are reaped with ``wait4`` so that each one's peak resident
    memory is known; a child that outlives ``CLI_TIMEOUT_S`` is killed.
    """

    def __init__(self, src: Path, workdir: Path):
        paths = [str(src), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        self.stderr_path = workdir / "stderr.txt"
        self.peak_rss_kb = 0
        self.calls: list[tuple[str, float]] = []  # (command, wall seconds)

    def __call__(self, argv: list[str]) -> int:
        start = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "gramleak.cli", *argv],
                                    stdout=subprocess.DEVNULL, stderr=err, env=self.env)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, CLI_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            proc.wait()
            raise TimeoutError(f"gramleak {argv[0]} ran longer than {CLI_TIMEOUT_S} s")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.calls.append((argv[0], time.perf_counter() - start))
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode


class InProcessCli:
    """Invokes the click commands in this process, so traced wrappers see them."""

    def __init__(self):
        import click

        from gramleak import cli

        self.click = click
        self.main = cli.main
        self.span = None  # set to Tracer.span while a traced case runs

    def __call__(self, argv: list[str]) -> int:
        span = self.span(f"cli.{argv[0]}") if self.span else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), span:
            try:
                self.main.main(args=list(argv), prog_name="gramleak", standalone_mode=False)
            except self.click.ClickException as exc:
                return exc.exit_code
        return 0
