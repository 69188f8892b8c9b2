"""Experiment harness: simulate runs, attack transcripts, reconstruct batches.

Subcommands write machine-readable artifacts (transcript JSON, recovery
reports, solution JSON, grid CSV) so each stage can be rerun or inspected in
isolation. Every command is deterministic given its seed; wall-clock fields
are the only thing that varies between identical runs.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
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
EQUIVALENCE_TOL = 1e-9  # theorems: bound on |simulated - closed-form push|


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


def _pick(flag, config: dict, key: str, default, kind: type):
    """Flag beats config file beats built-in default.

    Flags arrive converted by click. A config value must already have the
    JSON type of ``kind`` (``fedsim.config_value``), or the command exits 2.
    """
    if flag is not None:
        return flag
    if key not in config:
        return default
    try:
        return fedsim.config_value(config, key, kind)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)


def _pick_seed(flag, config: dict) -> int:
    """The run's seed: ``_pick`` of ``seed`` (default 0), which numpy needs >= 0."""
    seed = _pick(flag, config, "seed", 0, int)
    if seed < 0:
        raise CliError(f"seed must be 0 or positive, got {seed}", EXIT_USAGE)
    return seed


def _pick_count(flag, config: dict, key: str, default: int) -> int:
    """``_pick`` of a count (``--trials``, ``--jobs``), which must be at least 1."""
    count = _pick(flag, config, key, default, int)
    if count < 1:
        raise CliError(f"{key} must be at least 1, got {count}", EXIT_USAGE)
    return count


def _search_bounds(limit: int, deadline) -> tuple[int | None, float | None]:
    """Check --limit (0 = exhaustive) and --deadline (seconds) for a solve."""
    if limit < 0:
        raise CliError(f"--limit must be 0 (exhaustive) or positive, got {limit}", EXIT_USAGE)
    if deadline is not None and not deadline >= 0:
        raise CliError(f"--deadline must be a number of seconds >= 0, got {deadline!r}",
                       EXIT_USAGE)
    return limit or None, deadline


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def rank_correlation(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation (average ranks on ties); 0.0 if either side is constant."""

    def ranks(values: list[float]) -> np.ndarray:
        _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        # A value's copies take ranks cumsum - count + 1 through cumsum.
        return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]

    rx, ry = ranks(xs), ranks(ys)
    if rx.min() == rx.max() or ry.min() == ry.max():
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


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
    m = _pick(batch_size, cfg, "m", 5, int)
    d = _pick(features, cfg, "d", 10, int)
    mode = _pick(mode, cfg, "mode", fedsim.SYNCHRONIZED, str)
    parties = _pick(parties, cfg, "parties", 2, int)
    rounds = _pick(rounds, cfg, "rounds", d + 3, int)
    learning_rate = _pick(learning_rate, cfg, "lambda", 0.1, float)
    seed = _pick_seed(seed, cfg)
    shuffle = _pick(shuffle, cfg, "shuffle", False, bool)
    batches = _pick(batches, cfg, "batches", 2, int)
    out = _pick(out, cfg, "out", "transcript.json", str)
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
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"cannot parse transcript {path}: {exc}", EXIT_USAGE)


@main.command("attack")
@click.argument("transcript", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None)
def cmd_attack(transcript, out):
    """Recover the leaked linear system from a transcript."""
    t = _read_transcript(transcript)
    observations = list(t.observations)
    lr = t.config.learning_rate
    n_obs, d = len(observations), observations[0].theta.shape[0]
    out = out or "recovery.json"
    try:
        if t.config.mode == fedsim.SYNCHRONIZED:
            fit = attack.recover_alpha_beta(observations, lr)
            report = {
                "kind": "alpha_beta",
                "alpha": [[int(v) for v in row] for row in fit.alpha],
                "beta": [int(v) for v in fit.beta],
            }
            diagnostics = {"max_integrality_residual": fit.max_integrality_residual,
                           "max_asymmetry": fit.max_asymmetry}
            summary = f"recovered integral system of width {d}"
        else:
            fit = attack.recover_gamma_eta(observations, lr)
            report = {
                "kind": "gamma_eta",
                "gamma": [[float(v) for v in row] for row in fit.gamma],
                "eta": [float(v) for v in fit.eta],
            }
            diagnostics = {}
            summary = f"recovered affine pass parameters of width {d}"
    except numkit.RankDeficient as exc:
        raise CliError(f"RankDeficient: {exc}", EXIT_RANK_DEFICIENT)
    except (numkit.NotIntegral, numkit.NonFinite) as exc:
        raise CliError(f"{type(exc).__name__}: {exc}", EXIT_NOT_INTEGRAL)
    except attack.AsymmetryDetected as exc:
        raise CliError(f"AsymmetryDetected: {exc}", EXIT_ASYMMETRY)
    except attack.ResidualTooLarge as exc:
        raise CliError(f"ResidualTooLarge: {exc}", EXIT_RESIDUAL)
    # Recovery raises RankDeficient unless each of the d + 1 design columns
    # gets a pivot, and solve_linear picks its pivots by the elimination that
    # numkit.rank runs on the design alone, so the design of any recovered
    # system has full column rank.
    diagnostics.update(observations=n_obs, design_rank=d + 1,
                       max_fit_residual=fit.max_fit_residual)
    _write_json(out, {**report, "mode": t.config.mode, "lambda": lr, "diagnostics": diagnostics})
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
@click.option("--m", "batch_size", type=click.IntRange(min=1), default=None,
              help="Known victim batch size.")
@click.option("--discover", is_flag=True, default=False,
              help="Scan batch sizes upward from the most rows that two columns "
                   "cover together (a_ii + a_jj - a_ij).")
@click.option("--max-m", type=click.IntRange(min=1), default=64, show_default=True,
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
    limit, deadline = _search_bounds(limit, deadline)
    out = out or "solution.json"
    try:
        if discover:
            model, solutions, stats = reconstruct.discover_batch_size(
                alpha, cap=max_m, limit=limit, deadline=deadline
            )
        else:
            model = reconstruct.build_model(alpha, batch_size)
            solutions, stats = reconstruct.solve(model, limit=limit, deadline=deadline)
    except reconstruct.InfeasibleScreen as exc:
        raise CliError(f"InfeasibleScreen: {exc}", EXIT_SCREEN)
    if export_path:
        Path(export_path).write_text(reconstruct.export_model_text(model))
    if not solutions:
        if stats.status == reconstruct.STATUS_INFEASIBLE:
            raise CliError("no batch matches the recovered system", EXIT_INFEASIBLE)
        raise CliError("search stopped before finding a batch", EXIT_DEADLINE)
    # Write the first solution that some labeling fits: the batches found
    # share alpha, but beta can rule some of them out.
    for first in solutions:
        try:
            labels = reconstruct.recover_labels(first.x, beta)
            break
        except reconstruct.NoConsistentLabels as exc:
            error = exc
    else:
        raise CliError(f"NoConsistentLabels: {error}", EXIT_NO_LABELS)
    check = reconstruct.verify_solution(
        first.x, labels, attack.RecoveredSystem(alpha=alpha, beta=beta)
    )
    if not check.ok:
        raise CliError(f"Unverified: {check.detail}", EXIT_UNVERIFIED)
    _write_json(out, {
        "m": model.m,
        "x": [[int(v) for v in row] for row in first.x],
        "y": [int(v) for v in labels],
        "stats": {
            **dataclasses.asdict(stats),
            "constraints": model.constraint_count,
            "constraints_ordered": reconstruct.count_constraints(model.m, model.d),
        },
    })
    click.echo(
        f"wrote {out}: m={model.m}, status={stats.status}, "
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
        "column_order": [list(s.column_order) for s in trial_stats],
        "nodes_per_column": [list(s.nodes_per_column) for s in trial_stats],
        "completions_tried": [s.completions_tried for s in trial_stats],
        "completions_taken": [s.completions_taken for s in trial_stats],
        "trials": trials,
    }


@main.command("table1")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--grid", default=None, help=f"Cells as 'm,..xd,..' [default: {DEFAULT_GRID}]")
@click.option("--trials", type=int, default=None, help="Trials per cell [default: 3]")
@click.option("--seed", type=int, default=None)
@click.option("--limit", type=int, default=None,
              help="Solutions per solve; 2 proves or refutes uniqueness, "
                   "0 = exhaustive [default: 2]")
@click.option("--deadline", type=float, default=None, help="Seconds per solve.")
@click.option("--jobs", type=int, default=None, help="Parallel cells [default: 1]")
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
def cmd_table1(config_path, grid, trials, seed, limit, deadline, jobs, out, fmt):
    """Reconstruction-cost grid: per cell, median solve time and uniqueness."""
    cfg = _load_config(config_path)
    grid = _pick(grid, cfg, "grid", DEFAULT_GRID, str)
    trials = _pick_count(trials, cfg, "trials", 3)
    seed = _pick_seed(seed, cfg)
    limit, deadline = _search_bounds(
        _pick(limit, cfg, "limit", 2, int), _pick(deadline, cfg, "deadline", None, float)
    )
    jobs = _pick_count(jobs, cfg, "jobs", 1)
    fmt = _pick(fmt, cfg, "format", "csv", str)
    if fmt not in ("csv", "json"):
        raise CliError(f"format must be csv or json, got {fmt!r}", EXIT_USAGE)
    out = _pick(out, cfg, "out", f"table1.{fmt}", str)
    cells = _grid_cells(grid)
    tasks = [(m, d, seed, trials, limit, deadline) for m, d in cells]
    if jobs > 1:
        # Imported here, so that no other command pays to load the process pool.
        from concurrent.futures import ProcessPoolExecutor

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
@click.option("--out", type=click.Path(), default=None)
def cmd_theorems(config_path, trials, seed, out):
    """Numeric checks: closed-form pass equivalence and manifold nullity grid."""
    cfg = _load_config(config_path)
    trials = _pick_count(trials, cfg, "trials", 100)
    seed = _pick_seed(seed, cfg)
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
        if dev > EQUIVALENCE_TOL:
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
            "tolerance": EQUIVALENCE_TOL,
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
        f"(tol {EQUIVALENCE_TOL:.1e})"
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
