"""Experiment harness: simulate runs, attack transcripts, reconstruct batches.

Subcommands write machine-readable artifacts (transcript JSON, recovery
reports, solution JSON, grid CSV) so each stage can be rerun or inspected in
isolation. Every command is deterministic given its seed; wall-clock fields
are the only thing that varies between identical runs.
"""

from __future__ import annotations

import json
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import attack, fedsim, numkit, reconstruct

EXIT_USAGE = 2
EXIT_RANK_DEFICIENT = 3
EXIT_NOT_INTEGRAL = 4
EXIT_ASYMMETRY = 5
EXIT_RESIDUAL = 6
EXIT_SCREEN = 7
EXIT_INFEASIBLE = 8
EXIT_DEADLINE = 9
EXIT_NO_LABELS = 10
EXIT_UNVERIFIED = 11

DEFAULT_GRID = "3,5,8,9,11x5,10,15,20"


class CliError(click.ClickException):
    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config file: {exc}", EXIT_USAGE)
    if not isinstance(doc, dict):
        raise CliError("config file must contain a JSON object", EXIT_USAGE)
    return doc


def _pick(flag, config: dict, key: str, default):
    """Flag beats config file beats built-in default."""
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def rank_correlation(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation (average ranks on ties)."""

    def ranks(values: list[float]) -> list[float]:
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return cov / math.sqrt(vx * vy)


@click.group()
def main():
    """Gradient-leakage workbench for federated quadratic logistic regression."""


@main.command("simulate")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON file with defaults for the flags below.")
@click.option("--m", "batch_size", type=int, default=None, help="Victim batch size.")
@click.option("--d", "features", type=int, default=None, help="Feature count.")
@click.option("--batches", type=int, default=None,
              help="Victim batch count (asynchronized mode).")
@click.option("--parties", type=int, default=None)
@click.option("--rounds", type=int, default=None)
@click.option("--mode", type=click.Choice(fedsim.MODES), default=None)
@click.option("--lambda", "learning_rate", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--shuffle/--no-shuffle", "shuffle", default=None)
@click.option("--out", type=click.Path(), default=None)
def cmd_simulate(config_path, batch_size, features, batches, parties, rounds, mode,
                 learning_rate, seed, shuffle, out):
    """Simulate a training run and write its transcript JSON."""
    cfg = _load_config(config_path)
    m = int(_pick(batch_size, cfg, "m", 5))
    d = int(_pick(features, cfg, "d", 10))
    mode = _pick(mode, cfg, "mode", fedsim.SYNCHRONIZED)
    parties = int(_pick(parties, cfg, "parties", 2))
    rounds = int(_pick(rounds, cfg, "rounds", d + 3))
    learning_rate = float(_pick(learning_rate, cfg, "lambda", 0.1))
    seed = int(_pick(seed, cfg, "seed", 0))
    shuffle = bool(_pick(shuffle, cfg, "shuffle", False))
    batches = int(_pick(batches, cfg, "batches", 2))
    out = _pick(out, cfg, "out", "transcript.json")
    try:
        config = fedsim.TrainingConfig(
            learning_rate=learning_rate, mode=mode, parties=parties,
            rounds=rounds, shuffle=shuffle, seed=seed,
        )
        data_rng = np.random.default_rng([seed, 0])
        victim_count = parties - 1 if mode == fedsim.SYNCHRONIZED else batches
        victim_data = [fedsim.random_batch(data_rng, m, d) for _ in range(victim_count)]
        attacker_data = fedsim.random_batch(data_rng, m, d)
        transcript = fedsim.run_training(victim_data, attacker_data, config)
    except (ValueError, numkit.DimensionMismatch) as exc:
        raise CliError(str(exc), EXIT_USAGE)
    Path(out).write_text(fedsim.dump_transcript(transcript))
    click.echo(
        f"wrote {out}: {rounds} rounds, {mode}, {parties} parties, "
        f"{victim_count} victim batch(es) of {m}x{d}"
    )


def _read_transcript(path: str) -> fedsim.Transcript:
    try:
        return fedsim.load_transcript(Path(path).read_text())
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"cannot parse transcript {path}: {exc}", EXIT_USAGE)


@main.command("attack")
@click.argument("transcript", type=click.Path(exists=True))
@click.option("--tol", type=float, default=attack.DEFAULT_RECOVERY_TOL, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_attack(transcript, tol, out):
    """Recover the leaked linear system from a transcript."""
    t = _read_transcript(transcript)
    observations = list(t.observations)
    lr = t.config.learning_rate
    thetas = np.array([o.theta for o in observations])
    deltas = np.array([o.delta for o in observations])
    n_obs, d = thetas.shape
    # Recovery raises RankDeficient unless each of the d + 1 design columns
    # gets a pivot, and numkit.rank runs the same elimination as
    # solve_linear, so the design of any recovered system has full column rank.
    design_rank = d + 1
    out = out or "recovery.json"
    try:
        if t.config.mode == fedsim.SYNCHRONIZED:
            system = attack.recover_alpha_beta(observations, lr, tol)
            fit = lr * (0.25 * thetas @ system.alpha - 0.5 * system.beta)
            report = {
                "kind": "alpha_beta",
                "mode": t.config.mode,
                "lambda": lr,
                "alpha": [[int(v) for v in row] for row in system.alpha],
                "beta": [int(v) for v in system.beta],
                "diagnostics": {
                    "observations": n_obs,
                    "design_rank": design_rank,
                    "max_integrality_residual": system.max_integrality_residual,
                    "max_fit_residual": float(np.max(np.abs(fit - deltas))),
                },
            }
            summary = f"recovered integral system of width {d}"
        else:
            params = attack.recover_gamma_eta(observations, lr, tol)
            fit = thetas @ params.gamma.T - 0.5 * lr * params.eta
            report = {
                "kind": "gamma_eta",
                "mode": t.config.mode,
                "lambda": lr,
                "gamma": [[float(v) for v in row] for row in params.gamma],
                "eta": [float(v) for v in params.eta],
                "diagnostics": {
                    "observations": n_obs,
                    "design_rank": design_rank,
                    "max_fit_residual": float(np.max(np.abs(fit - deltas))),
                },
            }
            summary = f"recovered affine pass parameters of width {d}"
    except numkit.RankDeficient as exc:
        raise CliError(f"RankDeficient: {exc}", EXIT_RANK_DEFICIENT)
    except numkit.NotIntegral as exc:
        raise CliError(f"NotIntegral: {exc}", EXIT_NOT_INTEGRAL)
    except attack.AsymmetryDetected as exc:
        raise CliError(f"AsymmetryDetected: {exc}", EXIT_ASYMMETRY)
    except attack.ResidualTooLarge as exc:
        raise CliError(f"ResidualTooLarge: {exc}", EXIT_RESIDUAL)
    _write_json(out, report)
    click.echo(f"wrote {out}: {summary} from {n_obs} observations")


def _integral_system(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """The report's alpha (a square list of integer rows) and beta (d integers)."""

    def integers(values) -> bool:
        return isinstance(values, list) and all(
            type(v) is int and -(2**63) <= v < 2**63 for v in values
        )

    alpha, beta = doc.get("alpha"), doc.get("beta")
    if not (isinstance(alpha, list) and alpha
            and all(integers(row) and len(row) == len(alpha) for row in alpha)):
        raise CliError("report alpha must be a square list of integer rows", EXIT_USAGE)
    if not (integers(beta) and len(beta) == len(alpha)):
        raise CliError(f"report beta must be a list of {len(alpha)} integers", EXIT_USAGE)
    return np.array(alpha, dtype=np.int64), np.array(beta, dtype=np.int64)


@main.command("reconstruct")
@click.argument("report", type=click.Path(exists=True))
@click.option("--m", "batch_size", type=int, default=None,
              help="Known victim batch size.")
@click.option("--discover", is_flag=True, default=False,
              help="Scan batch sizes upward from the diagonal maximum.")
@click.option("--max-m", type=int, default=64, show_default=True,
              help="Cap for --discover.")
@click.option("--limit", type=int, default=2, show_default=True,
              help="Stop after this many solutions (0 = exhaustive).")
@click.option("--deadline", type=float, default=None, help="Seconds per solve.")
@click.option("--export-model", "export_path", type=click.Path(), default=None,
              help="Also write the linearized constraint system as text.")
@click.option("--out", type=click.Path(), default=None)
def cmd_reconstruct(report, batch_size, discover, max_m, limit, deadline,
                    export_path, out):
    """Reconstruct the victim batch from an integral recovery report."""
    try:
        doc = json.loads(Path(report).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot parse report {report}: {exc}", EXIT_USAGE)
    if not isinstance(doc, dict) or doc.get("kind") != "alpha_beta":
        raise CliError(
            "report does not contain an integral system; asynchronized "
            "recoveries cannot be inverted", EXIT_USAGE,
        )
    if (batch_size is None) == (not discover):
        raise CliError("pass exactly one of --m or --discover", EXIT_USAGE)
    alpha, beta = _integral_system(doc)
    limit = None if limit == 0 else limit
    out = out or "solution.json"
    try:
        if discover:
            m, solutions, stats = reconstruct.discover_batch_size(
                alpha, cap=max_m, limit=limit, deadline=deadline
            )
            model = reconstruct.build_model(alpha, m)
        else:
            m = batch_size
            model = reconstruct.build_model(alpha, m)
            solutions, stats = reconstruct.solve(model, limit=limit, deadline=deadline)
    except reconstruct.InfeasibleScreen as exc:
        raise CliError(f"InfeasibleScreen: {exc}", EXIT_SCREEN)
    if export_path:
        Path(export_path).write_text(reconstruct.export_model_text(model))
    if not solutions:
        if stats.status == reconstruct.STATUS_INFEASIBLE:
            raise CliError("no batch matches the recovered system", EXIT_INFEASIBLE)
        raise CliError("search stopped before finding a batch", EXIT_DEADLINE)
    first = solutions[0]
    try:
        labels = reconstruct.recover_labels(first.x, beta)
    except reconstruct.NoConsistentLabels as exc:
        raise CliError(f"NoConsistentLabels: {exc}", EXIT_NO_LABELS)
    check = reconstruct.verify_solution(
        first.x, labels, attack.RecoveredSystem(alpha=alpha, beta=beta)
    )
    if not check.ok:
        raise CliError(f"Unverified: {check.detail}", EXIT_UNVERIFIED)
    _write_json(out, {
        "m": m,
        "x": [[int(v) for v in row] for row in first.x],
        "y": [int(v) for v in labels],
        "stats": {
            "nodes_explored": stats.nodes_explored,
            "solutions_found": stats.solutions_found,
            "wall_time": stats.wall_time,
            "status": stats.status,
            "exhausted": stats.exhausted,
            "constraints": model.constraint_count,
            "constraints_ordered": model.ordered_constraint_count,
        },
    })
    click.echo(
        f"wrote {out}: m={m}, status={stats.status}, "
        f"{stats.solutions_found} solution(s), {stats.nodes_explored} nodes"
    )


def _grid_cells(spec: str) -> list[tuple[int, int]]:
    try:
        ms_text, ds_text = spec.lower().split("x")
        ms = [int(v) for v in ms_text.split(",") if v.strip()]
        ds = [int(v) for v in ds_text.split(",") if v.strip()]
    except ValueError:
        raise CliError(f"grid must look like '3,5x10,20', got {spec!r}", EXIT_USAGE)
    if not ms or not ds or any(v < 1 for v in ms + ds):
        raise CliError(f"grid values must be positive, got {spec!r}", EXIT_USAGE)
    return [(m, d) for m in ms for d in ds]


def _table1_cell(args: tuple) -> dict:
    m, d, seed, trials, limit, deadline = args
    trial_stats = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, m, d, trial])
        batch = fedsim.random_batch(rng, m, d)
        xi = batch.x.astype(np.int64)
        model = reconstruct.build_model(xi.T @ xi, m)
        _, stats = reconstruct.solve(model, limit=limit, deadline=deadline)
        trial_stats.append(stats)
    statuses = [s.status for s in trial_stats]
    if any(s == reconstruct.STATUS_MULTIPLE for s in statuses):
        status = reconstruct.STATUS_MULTIPLE
    elif all(s == reconstruct.STATUS_UNIQUE for s in statuses):
        status = reconstruct.STATUS_UNIQUE
    else:
        status = "partial"
    return {
        "m": m,
        "d": d,
        "constraints": reconstruct.count_constraints(m, d),
        "median_seconds": statistics.median(s.wall_time for s in trial_stats),
        "status": status,
        "trial_statuses": statuses,
        "solutions_found": [s.solutions_found for s in trial_stats],
        "nodes_explored": [s.nodes_explored for s in trial_stats],
        "trials": trials,
    }


@main.command("table1")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--grid", default=None, help=f"Cells as 'm,..xd,..' [default: {DEFAULT_GRID}]")
@click.option("--trials", type=int, default=None, help="Trials per cell [default: 3]")
@click.option("--seed", type=int, default=None)
@click.option("--limit", type=int, default=None,
              help="Solutions per solve; 2 proves or refutes uniqueness [default: 2]")
@click.option("--deadline", type=float, default=None, help="Seconds per solve.")
@click.option("--jobs", type=int, default=None, help="Parallel cells [default: 1]")
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
def cmd_table1(config_path, grid, trials, seed, limit, deadline, jobs, out, fmt):
    """Reconstruction-cost grid: per cell, median solve time and uniqueness."""
    cfg = _load_config(config_path)
    grid = _pick(grid, cfg, "grid", DEFAULT_GRID)
    trials = int(_pick(trials, cfg, "trials", 3))
    seed = int(_pick(seed, cfg, "seed", 0))
    limit = int(_pick(limit, cfg, "limit", 2))
    deadline = _pick(deadline, cfg, "deadline", None)
    jobs = int(_pick(jobs, cfg, "jobs", 1))
    fmt = _pick(fmt, cfg, "format", "csv")
    out = _pick(out, cfg, "out", f"table1.{fmt}")
    if trials < 1:
        raise CliError("need at least one trial per cell", EXIT_USAGE)
    cells = _grid_cells(grid)
    tasks = [(m, d, seed, trials, limit, deadline) for m, d in cells]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_table1_cell, tasks))
    else:
        reports = [_table1_cell(task) for task in tasks]
    reports.sort(key=lambda r: (r["m"], r["d"]))
    correlation = rank_correlation(
        [float(r["constraints"]) for r in reports],
        [r["median_seconds"] for r in reports],
    ) if len(reports) > 1 else 0.0
    if fmt == "csv":
        lines = ["m,d,constraints,median_seconds,status"]
        for r in reports:
            lines.append(
                f"{r['m']},{r['d']},{r['constraints']},"
                f"{r['median_seconds']:.6f},{r['status']}"
            )
        Path(out).write_text("\n".join(lines) + "\n")
    else:
        _write_json(out, {"cells": reports, "rank_correlation": correlation})
    click.echo(
        f"wrote {out}: {len(reports)} cells, {trials} trial(s) each, "
        f"time/constraints rank correlation {correlation:.3f}"
    )


@main.command("theorems")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--trials", type=int, default=None,
              help="Closed-form equivalence trials [default: 100]")
@click.option("--seed", type=int, default=None)
@click.option("--tol", type=float, default=None,
              help="Componentwise deviation bound [default: 1e-9]")
@click.option("--out", type=click.Path(), default=None)
def cmd_theorems(config_path, trials, seed, tol, out):
    """Numeric checks: closed-form pass equivalence and manifold nullity grid."""
    cfg = _load_config(config_path)
    trials = int(_pick(trials, cfg, "trials", 100))
    seed = int(_pick(seed, cfg, "seed", 0))
    tol = float(_pick(tol, cfg, "tol", 1e-9))
    lambdas = (0.01, 0.1, 0.5)
    max_dev = 0.0
    equivalence_failures = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        n = int(rng.integers(1, 6))
        d = int(rng.integers(2, 11))
        m = int(rng.integers(1, 9))
        lr = lambdas[int(rng.integers(0, len(lambdas)))]
        batches = [fedsim.random_batch(rng, m, d) for _ in range(n)]
        theta = rng.uniform(-1.0, 1.0, size=d)
        simulated = fedsim.async_local_pass(batches, theta, lr)
        alphas = [b.x.T @ b.x for b in batches]
        betas = [b.x.T @ b.y for b in batches]
        closed = attack.closed_form_delta(alphas, betas, theta, lr)
        dev = float(np.max(np.abs(simulated - closed)))
        max_dev = max(max_dev, dev)
        if dev > tol:
            equivalence_failures.append({"seed": [seed, trial], "deviation": dev})
    nullity_cells = []
    nullity_failures = []
    for n in (2, 3):
        for d in (2, 3, 4):
            for point in range(5):
                rng = np.random.default_rng([seed, n, d, point])
                alphas = []
                for _ in range(n):
                    raw = rng.uniform(0.0, 2.0, size=(d, d))
                    alphas.append((raw + raw.T) / 2.0)
                check = attack.gamma_nullity_check(alphas, learning_rate=0.1)
                required = n * d * (d + 1) // 2 - d * d
                cell = {
                    "n": n, "d": d, "point": point,
                    "jacobian_rank": check.jacobian_rank,
                    "variable_count": check.variable_count,
                    "nullity": check.nullity,
                    "required_nullity": required,
                }
                nullity_cells.append(cell)
                if not (check.nullity >= required > 0):
                    nullity_failures.append(cell)
    report = {
        "closed_form_equivalence": {
            "trials": trials,
            "tolerance": tol,
            "max_deviation": max_dev,
            "failures": equivalence_failures,
        },
        "nullity_grid": {
            "cells": nullity_cells,
            "failures": nullity_failures,
        },
    }
    if out:
        _write_json(out, report)
    click.echo(
        f"closed-form equivalence: {trials} trials, max deviation {max_dev:.3e} "
        f"(tol {tol:.1e})"
    )
    min_nullity = min(c["nullity"] for c in nullity_cells)
    click.echo(
        f"nullity grid: {len(nullity_cells)} points, minimum nullity {min_nullity}"
    )
    if equivalence_failures or nullity_failures:
        bad = [f["seed"] for f in equivalence_failures] + [
            [seed, c["n"], c["d"], c["point"]] for c in nullity_failures
        ]
        raise CliError(f"checks failed for seeds {bad}", 1)


if __name__ == "__main__":
    main()
