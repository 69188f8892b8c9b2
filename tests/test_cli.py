import copy
import csv
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramleak import attack, cli, fedsim, numkit, reconstruct
from gramleak.cli import main
from gramleak.reconstruct import canonical_rows, count_constraints


@pytest.fixture()
def runner():
    return CliRunner()


BAD_SEARCH_BOUNDS = [("--limit", "-1"), ("--deadline", "nan"), ("--deadline", "-1")]


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


def edited_transcript(runner, tmp_path, edit):
    """``simulate --m 3 --d 4 --rounds 6 --seed 1``, its JSON document passed through ``edit``."""
    transcript = tmp_path / "t.json"
    run_ok(runner, [
        "simulate", "--m", "3", "--d", "4", "--rounds", "6", "--seed", "1",
        "--out", str(transcript),
    ])
    doc = json.loads(transcript.read_text())
    edit(doc)
    transcript.write_text(json.dumps(doc))
    return transcript


class TestSimulate:
    def test_deterministic_output_bytes(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = ["simulate", "--m", "3", "--d", "4", "--rounds", "6", "--seed", "9"]
        run_ok(runner, base + ["--out", str(a)])
        run_ok(runner, base + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_three_party_aggregate_identity(self, runner, tmp_path):
        out = tmp_path / "t.json"
        run_ok(runner, [
            "simulate", "--m", "3", "--d", "5", "--parties", "3",
            "--rounds", "8", "--seed", "1", "--out", str(out),
        ])
        transcript = fedsim.load_transcript(out.read_text())
        lr = transcript.config.learning_rate
        alpha = sum(b.x.T @ b.x for b in transcript.ground_truth)
        beta = sum(b.x.T @ b.y for b in transcript.ground_truth)
        for obs in transcript.observations:
            expected = lr * (0.25 * alpha @ obs.theta - 0.5 * beta)
            assert np.allclose(obs.delta, expected, atol=1e-10)

    def test_invalid_config_exits_nonzero(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--mode", "asynchronized", "--parties", "3",
            "--out", str(tmp_path / "x.json"),
        ])
        assert result.exit_code == cli.EXIT_USAGE

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 3, "d": 4, "rounds": 6, "seed": 2}))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        run_ok(runner, ["simulate", "--config", str(cfg), "--out", str(out_a)])
        run_ok(runner, [
            "simulate", "--config", str(cfg), "--seed", "3", "--out", str(out_b),
        ])
        assert json.loads(out_a.read_text())["config"]["seed"] == 2
        assert json.loads(out_b.read_text())["config"]["seed"] == 3


class TestAttackCommand:
    def test_synchronized_report_matches_ground_truth(self, runner, tmp_path):
        transcript = tmp_path / "t.json"
        report = tmp_path / "r.json"
        run_ok(runner, [
            "simulate", "--m", "4", "--d", "6", "--rounds", "9",
            "--seed", "5", "--out", str(transcript),
        ])
        run_ok(runner, ["attack", str(transcript), "--out", str(report)])
        doc = json.loads(report.read_text())
        loaded = fedsim.load_transcript(transcript.read_text())
        xi = loaded.ground_truth[0].x.astype(np.int64)
        assert np.array_equal(np.array(doc["alpha"]), xi.T @ xi)
        assert doc["diagnostics"]["design_rank"] == 7
        assert doc["diagnostics"]["max_fit_residual"] < 1e-10
        assert doc["diagnostics"]["max_integrality_residual"] < 1e-10

    @pytest.mark.parametrize("mode", ["synchronized", "asynchronized"])
    def test_diagnostics_match_a_reference_solve(self, runner, tmp_path, mode):
        transcript = tmp_path / "t.json"
        report = tmp_path / "r.json"
        run_ok(runner, [
            "simulate", "--mode", mode, "--m", "4", "--d", "6", "--rounds", "10",
            "--seed", "12", "--out", str(transcript),
        ])
        run_ok(runner, ["attack", str(transcript), "--out", str(report)])
        diagnostics = json.loads(report.read_text())["diagnostics"]
        loaded = fedsim.load_transcript(transcript.read_text())
        lr = loaded.config.learning_rate
        thetas = np.array([o.theta for o in loaded.observations])
        deltas = np.array([o.delta for o in loaded.observations])
        scale = 0.25 * lr if mode == "synchronized" else 1.0
        design = np.column_stack([scale * thetas, np.full(len(thetas), -0.5 * lr)])
        assert diagnostics["design_rank"] == numkit.rank(design)
        if mode == "synchronized":
            raw = numkit.solve_linear(design, deltas).T
            expected = float(np.max(np.abs(raw - np.rint(raw))))
            assert diagnostics["max_integrality_residual"] == expected
            gram = raw[:, :6]
            assert diagnostics["max_asymmetry"] == float(np.max(np.abs(gram - gram.T)))
        else:
            assert "max_integrality_residual" not in diagnostics
            assert "max_asymmetry" not in diagnostics

    def test_under_determined_transcript_reports_rank(self, runner, tmp_path):
        transcript = tmp_path / "t.json"
        run_ok(runner, [
            "simulate", "--m", "3", "--d", "8", "--rounds", "5",
            "--seed", "1", "--out", str(transcript),
        ])
        result = runner.invoke(main, ["attack", str(transcript)])
        assert result.exit_code == cli.EXIT_RANK_DEFICIENT
        assert "RankDeficient" in result.output

    def test_shuffled_transcript_reports_residual(self, runner, tmp_path):
        transcript = tmp_path / "t.json"
        run_ok(runner, [
            "simulate", "--mode", "asynchronized", "--batches", "3",
            "--m", "3", "--d", "4", "--rounds", "9", "--shuffle",
            "--seed", "2", "--out", str(transcript),
        ])
        result = runner.invoke(main, ["attack", str(transcript)])
        assert result.exit_code == cli.EXIT_RESIDUAL
        assert "ResidualTooLarge" in result.output

    @pytest.mark.parametrize("observation", [1, 9])
    def test_corrupted_push_past_the_pivots_reports_residual(
        self, runner, tmp_path, observation
    ):
        # Observations 1 and 9 are the two rows the elimination does not pivot on.
        transcript = tmp_path / "t.json"
        run_ok(runner, [
            "simulate", "--m", "5", "--d", "10", "--rounds", "13",
            "--seed", "3", "--out", str(transcript),
        ])
        doc = json.loads(transcript.read_text())
        doc["observations"][observation]["delta"][0] += 0.37
        transcript.write_text(json.dumps(doc))
        result = runner.invoke(main, ["attack", str(transcript)])
        assert result.exit_code == cli.EXIT_RESIDUAL
        assert "ResidualTooLarge" in result.output

    def test_asynchronized_report_kind(self, runner, tmp_path):
        transcript = tmp_path / "t.json"
        report = tmp_path / "r.json"
        run_ok(runner, [
            "simulate", "--mode", "asynchronized", "--batches", "2",
            "--m", "3", "--d", "4", "--rounds", "8", "--no-shuffle",
            "--seed", "3", "--out", str(transcript),
        ])
        run_ok(runner, ["attack", str(transcript), "--out", str(report)])
        doc = json.loads(report.read_text())
        assert doc["kind"] == "gamma_eta"
        assert doc["diagnostics"]["max_fit_residual"] < 1e-10

    @pytest.mark.parametrize("config", [
        {"rounds": 6.7}, {"rounds": "6"}, {"lambda": "0.1"}, {"lambda": True},
        {"seed": 1.9}, {"shuffle": "false"}, {"lambda": float("nan")},
    ], ids=json.dumps)
    def test_mistyped_config_value_is_a_parse_error(self, runner, tmp_path, config):
        # No value is cast: "false" would load as True and 6.7 as 6 rounds.
        transcript = edited_transcript(runner, tmp_path, lambda doc: doc["config"].update(config))
        (key,) = config
        report = tmp_path / "r.json"
        result = runner.invoke(main, ["attack", str(transcript), "--out", str(report)])
        assert result.exit_code == cli.EXIT_USAGE, result.output
        assert f"config value '{key}'" in result.output
        assert not report.exists()

    def test_truncated_file_is_a_parse_error(self, runner, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text('{"config": {"lambda": 0.1')
        result = runner.invoke(main, ["attack", str(broken)])
        assert result.exit_code == cli.EXIT_USAGE

    def test_nan_in_transcript_is_a_parse_error(self, runner, tmp_path):
        transcript = tmp_path / "t.json"
        run_ok(runner, ["simulate", "--m", "3", "--d", "4", "--out", str(transcript)])
        doc = json.loads(transcript.read_text())
        doc["observations"][2]["delta"][1] = float("nan")
        transcript.write_text(json.dumps(doc))
        result = runner.invoke(main, ["attack", str(transcript)])
        assert result.exit_code == cli.EXIT_USAGE
        assert "NaN" in result.output

    def test_ragged_observations_are_a_parse_error(self, runner, tmp_path):
        transcript = tmp_path / "t.json"
        run_ok(runner, ["simulate", "--m", "3", "--d", "4", "--out", str(transcript)])
        doc = json.loads(transcript.read_text())
        for field in ("theta", "delta"):
            doc["observations"][1][field].pop()
        transcript.write_text(json.dumps(doc))
        result = runner.invoke(main, ["attack", str(transcript)])
        assert result.exit_code == cli.EXIT_USAGE
        assert "differ in width" in result.output

    @pytest.mark.parametrize("rate, mode", [
        (rate, mode) for mode in ([], ["--mode", "asynchronized", "--batches", "2"])
        for rate in ("1e-310", "1e-320")
    ], ids=["1e-310", "1e-320", "async-1e-310", "async-1e-320"])
    def test_rate_below_float_precision_reports_non_finite(self, runner, tmp_path, rate, mode):
        # A positive rate whose design entries are subnormal: the sync solve
        # overflows and the async one loses rank, so recovery refuses it first.
        transcript, report = tmp_path / "t.json", tmp_path / "r.json"
        run_ok(runner, [
            "simulate", *mode, "--m", "3", "--d", "4", "--rounds", "7", "--seed", "1",
            "--lambda", rate, "--out", str(transcript),
        ])
        result = runner.invoke(main, ["attack", str(transcript), "--out", str(report)])
        assert result.exit_code == cli.EXIT_NOT_INTEGRAL, result.output
        assert "NonFinite:" in result.output
        assert f"learning rate {float(rate)!r}" in result.output
        assert not report.exists()


class TestReconstructCommand:
    def make_report(self, runner, tmp_path, m=5, d=10, seed=4):
        transcript = tmp_path / "t.json"
        report = tmp_path / "r.json"
        run_ok(runner, [
            "simulate", "--m", str(m), "--d", str(d),
            "--rounds", str(d + 3), "--seed", str(seed), "--out", str(transcript),
        ])
        run_ok(runner, ["attack", str(transcript), "--out", str(report)])
        truth = fedsim.load_transcript(transcript.read_text()).ground_truth[0]
        return report, truth

    def test_end_to_end_pipeline(self, runner, tmp_path):
        report, truth = self.make_report(runner, tmp_path)
        solution = tmp_path / "s.json"
        run_ok(runner, ["reconstruct", str(report), "--m", "5", "--out", str(solution)])
        doc = json.loads(solution.read_text())
        expected = canonical_rows(truth.x.astype(np.int64))
        assert np.array_equal(np.array(doc["x"]), expected)
        xi = np.array(doc["x"], dtype=np.int64)
        yi = np.array(doc["y"], dtype=np.int64)
        assert np.array_equal(
            xi.T @ yi, truth.x.astype(np.int64).T @ truth.y.astype(np.int64)
        )
        assert doc["stats"]["constraints_ordered"] == count_constraints(5, 10)
        assert sorted(doc["stats"]["column_order"]) == list(range(10))
        assert sum(doc["stats"]["nodes_per_column"]) == doc["stats"]["nodes_explored"]
        stats = doc["stats"]
        assert 0 <= stats["completions_taken"] <= stats["completions_tried"]

    def test_discovery_mode(self, runner, tmp_path):
        report, truth = self.make_report(runner, tmp_path, m=3, d=6, seed=7)
        solution = tmp_path / "s.json"
        run_ok(runner, ["reconstruct", str(report), "--discover", "--out", str(solution)])
        doc = json.loads(solution.read_text())
        assert doc["m"] <= 3
        xi = np.array(doc["x"], dtype=np.int64)
        ti = truth.x.astype(np.int64)
        assert np.array_equal(xi.T @ xi, ti.T @ ti)

    def test_adversarial_cell_reports_multiple(self, runner, tmp_path):
        # Nine samples over five features: distinct batches share the system.
        report, _ = self.make_report(runner, tmp_path, m=9, d=5, seed=0)
        solution = tmp_path / "s.json"
        run_ok(runner, ["reconstruct", str(report), "--m", "9", "--out", str(solution)])
        doc = json.loads(solution.read_text())
        assert doc["stats"]["status"] == "multiple"
        assert doc["stats"]["solutions_found"] == 2

    def test_labels_pick_among_multiple_solutions(self, runner, tmp_path):
        # Two 4x3 batches share alpha; only the second in canonical order
        # has a labeling that reproduces beta.
        x = np.array([[1, 1, 1], [1, 0, 0], [0, 0, 1], [0, 1, 0]])
        y = np.array([-1, -1, -1, 1])
        report = tmp_path / "r.json"
        report.write_text(json.dumps(
            {"kind": "alpha_beta", "alpha": (x.T @ x).tolist(), "beta": (x.T @ y).tolist()}
        ))
        solution = tmp_path / "s.json"
        run_ok(runner, ["reconstruct", str(report), "--m", "4", "--out", str(solution)])
        doc = json.loads(solution.read_text())
        assert doc["stats"]["status"] == "multiple"
        assert doc["x"] == canonical_rows(x).tolist()
        assert np.array_equal(np.array(doc["x"]).T @ np.array(doc["y"]), x.T @ y)

    def test_model_export(self, runner, tmp_path):
        report, _ = self.make_report(runner, tmp_path, m=2, d=3, seed=8)
        model_path = tmp_path / "model.txt"
        run_ok(runner, [
            "reconstruct", str(report), "--m", "2",
            "--export-model", str(model_path), "--out", str(tmp_path / "s.json"),
        ])
        lines = model_path.read_text().strip().splitlines()
        # m=2, d=3: 6 x-variables, 6 pair variables, 3+3+12 constraints
        variable_lines = [line for line in lines if line.startswith("binary ")]
        constraint_lines = [line for line in lines if not line.startswith("binary ")]
        assert len(variable_lines) == 12
        assert len(constraint_lines) == 18

    def test_wrong_labels_are_not_written(self, runner, tmp_path, monkeypatch):
        report, _ = self.make_report(runner, tmp_path, m=4, d=6, seed=3)
        true_labels = reconstruct.recover_labels
        monkeypatch.setattr(
            reconstruct, "recover_labels", lambda x, beta: -true_labels(x, beta)
        )
        solution = tmp_path / "s.json"
        result = runner.invoke(main, [
            "reconstruct", str(report), "--m", "4", "--out", str(solution),
        ])
        assert result.exit_code == cli.EXIT_UNVERIFIED
        assert "Unverified: beta[" in result.output
        assert not solution.exists()

    def test_screens_once_per_run(self, runner, tmp_path, monkeypatch):
        report, _ = self.make_report(runner, tmp_path, m=3, d=5, seed=2)
        screened = []
        build = reconstruct.build_model

        def counted_build(alpha, m):
            screened.append(m)
            return build(alpha, m)

        monkeypatch.setattr(reconstruct, "build_model", counted_build)
        for size in (["--m", "3"], ["--discover"]):
            screened.clear()
            run_ok(runner, ["reconstruct", str(report), *size, "--out", str(tmp_path / "s.json"),
                            "--export-model", str(tmp_path / "model.txt")])
            assert len(screened) == 1, size

    def test_report_that_is_not_json_is_a_usage_error(self, runner, tmp_path):
        report = tmp_path / "r.json"
        report.write_text("not json")
        result = runner.invoke(main, ["reconstruct", str(report), "--m", "2"])
        assert result.exit_code == cli.EXIT_USAGE
        assert "cannot parse report" in result.output

    def test_requires_m_or_discover(self, runner, tmp_path):
        report, _ = self.make_report(runner, tmp_path, m=2, d=3, seed=9)
        result = runner.invoke(main, ["reconstruct", str(report)])
        assert result.exit_code == cli.EXIT_USAGE

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc.update(alpha=[[1, 0], [0]]), "square"),
        (lambda doc: doc.pop("beta"), "beta"),
        (lambda doc: doc["alpha"][0].__setitem__(0, 1.5), "integer"),
    ], ids=["ragged_alpha", "missing_beta", "fractional_alpha"])
    def test_malformed_report_is_a_usage_error(self, runner, tmp_path, corrupt, message):
        report, _ = self.make_report(runner, tmp_path, m=2, d=3, seed=9)
        doc = json.loads(report.read_text())
        corrupt(doc)
        report.write_text(json.dumps(doc))
        solution = tmp_path / "s.json"
        result = runner.invoke(main, [
            "reconstruct", str(report), "--m", "2", "--out", str(solution),
        ])
        assert result.exit_code == cli.EXIT_USAGE
        assert message in result.output
        assert not solution.exists()

    @pytest.mark.parametrize("flag, value", BAD_SEARCH_BOUNDS)
    def test_bad_search_bound_is_a_usage_error(self, runner, tmp_path, flag, value):
        report, _ = self.make_report(runner, tmp_path, m=2, d=3, seed=9)
        solution = tmp_path / "s.json"
        result = runner.invoke(main, [
            "reconstruct", str(report), "--m", "2", flag, value, "--out", str(solution),
        ])
        assert result.exit_code == cli.EXIT_USAGE
        assert flag in result.output
        assert not solution.exists()

    @pytest.mark.parametrize("args, flag", [
        (["--m", "0"], "--m"),
        (["--m", "-3"], "--m"),
        (["--discover", "--max-m", "0"], "--max-m"),
    ], ids=["m_zero", "m_negative", "max_m_zero"])
    def test_bad_batch_size_is_a_usage_error(self, runner, tmp_path, args, flag):
        report, _ = self.make_report(runner, tmp_path, m=2, d=3, seed=9)
        solution = tmp_path / "s.json"
        result = runner.invoke(main, ["reconstruct", str(report), *args, "--out", str(solution)])
        assert result.exit_code == cli.EXIT_USAGE
        assert flag in result.output
        assert not solution.exists()

    def test_gamma_report_rejected(self, runner, tmp_path):
        transcript = tmp_path / "t.json"
        report = tmp_path / "r.json"
        run_ok(runner, [
            "simulate", "--mode", "asynchronized", "--batches", "2",
            "--m", "3", "--d", "4", "--rounds", "8", "--seed", "1",
            "--out", str(transcript),
        ])
        run_ok(runner, ["attack", str(transcript), "--out", str(report)])
        result = runner.invoke(main, ["reconstruct", str(report), "--m", "3"])
        assert result.exit_code == cli.EXIT_USAGE


class TestTable1Command:
    def test_csv_grid(self, runner, tmp_path):
        out = tmp_path / "grid.csv"
        run_ok(runner, [
            "table1", "--grid", "3,5x5,10", "--trials", "2",
            "--seed", "0", "--out", str(out),
        ])
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        for row in rows:
            m, d = int(row["m"]), int(row["d"])
            assert int(row["constraints"]) == count_constraints(m, d)
            assert row["status"] in ("unique", "multiple", "partial")
            assert float(row["median_seconds"]) >= 0.0

    def test_json_format_carries_trial_detail(self, runner, tmp_path):
        out = tmp_path / "grid.json"
        run_ok(runner, [
            "table1", "--grid", "3x5", "--trials", "2", "--format", "json",
            "--out", str(out),
        ])
        doc = json.loads(out.read_text())
        cell = doc["cells"][0]
        assert cell["trials"] == 2
        assert len(cell["trial_statuses"]) == 2
        assert len(cell["nodes_explored"]) == 2
        for order, per_column, nodes in zip(
            cell["column_order"], cell["nodes_per_column"], cell["nodes_explored"]
        ):
            assert sorted(order) == list(range(5))
            assert len(per_column) == 5 and sum(per_column) == nodes
        assert len(cell["completions_tried"]) == len(cell["completions_taken"]) == 2
        for tried, taken in zip(cell["completions_tried"], cell["completions_taken"]):
            assert 0 <= taken <= tried

    def test_parallel_jobs_match_serial(self, runner, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        args = ["table1", "--grid", "3,5x5,8", "--trials", "2", "--seed", "1"]
        run_ok(runner, args + ["--out", str(serial)])
        run_ok(runner, args + ["--jobs", "2", "--out", str(parallel)])

        def strip_times(path):
            with path.open() as handle:
                return [
                    (r["m"], r["d"], r["constraints"], r["status"])
                    for r in csv.DictReader(handle)
                ]

        assert strip_times(serial) == strip_times(parallel)

    def test_limit_zero_is_exhaustive(self, runner, tmp_path):
        # 11x5 batches share their Gram matrix with several others; an
        # exhaustive search finds more than two of them.
        counts = {}
        for limit in ("0", "2"):
            out = tmp_path / f"grid{limit}.json"
            run_ok(runner, [
                "table1", "--grid", "11x5", "--trials", "3", "--limit", limit,
                "--format", "json", "--out", str(out),
            ])
            counts[limit] = json.loads(out.read_text())["cells"][0]["solutions_found"]
        assert counts["2"] == [2, 2, 2]
        assert counts["0"] == [4, 6, 12]

    @pytest.mark.parametrize("flag, value", BAD_SEARCH_BOUNDS)
    def test_bad_search_bound_is_a_usage_error(self, runner, tmp_path, flag, value):
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, [
            "table1", "--grid", "3x5", "--trials", "1", flag, value, "--out", str(out),
        ])
        assert result.exit_code == cli.EXIT_USAGE
        assert flag in result.output
        assert not out.exists()

    def test_bad_grid_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["table1", "--grid", "3,5"])
        assert result.exit_code == cli.EXIT_USAGE

    def test_non_positive_grid_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["table1", "--grid", "0x5"])
        assert result.exit_code == cli.EXIT_USAGE
        assert "positive" in result.output

    def test_undecided_trials_make_a_partial_cell(self, runner, tmp_path):
        # limit 1 stops each search at its first batch, which decides nothing.
        out = tmp_path / "grid.json"
        run_ok(runner, [
            "table1", "--grid", "3x5", "--trials", "2", "--limit", "1",
            "--format", "json", "--out", str(out),
        ])
        cell = json.loads(out.read_text())["cells"][0]
        assert cell["trial_statuses"] == [reconstruct.STATUS_LIMIT] * 2
        assert cell["status"] == "partial"


class TestTheoremsCommand:
    def test_passes_with_report(self, runner, tmp_path):
        out = tmp_path / "theorems.json"
        result = run_ok(runner, ["theorems", "--trials", "25", "--out", str(out)])
        assert "max deviation" in result.output
        doc = json.loads(out.read_text())
        assert doc["closed_form_equivalence"]["max_deviation"] < 1e-9
        assert doc["closed_form_equivalence"]["failures"] == []
        assert all(
            c["nullity"] >= c["required_nullity"] > 0
            for c in doc["nullity_grid"]["cells"]
        )

    def test_failed_check_exits_one(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "EQUIVALENCE_TOL", -1.0)
        out = tmp_path / "theorems.json"
        result = runner.invoke(main, ["theorems", "--trials", "2", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "checks failed" in result.output

    def test_failed_nullity_exits_one(self, runner, monkeypatch):
        real = attack.gamma_nullity_check

        def no_nullity_for_three_batches_of_two(alphas, learning_rate):
            check = real(alphas, learning_rate)
            return check._replace(nullity=0) if (len(alphas), len(alphas[0])) == (3, 2) else check

        monkeypatch.setattr(attack, "gamma_nullity_check", no_nullity_for_three_batches_of_two)
        result = runner.invoke(main, ["theorems", "--trials", "2", "--seed", "7"])
        assert result.exit_code == 1, result.output
        failing = ", ".join(f"[7, 3, 2, {point}]" for point in range(5))
        assert f"checks failed for seeds [{failing}]" in result.output


@pytest.mark.parametrize("command, config", [
    ("simulate", {"m": "x"}),
    ("simulate", {"m": 2.7}),
    ("simulate", {"shuffle": "false"}),
    ("table1", {"trials": "x"}),
    ("table1", {"limit": 1.5}),
    ("table1", {"format": "xml"}),
    ("theorems", {"trials": "x"}),
    ("simulate", {"lambda": float("nan")}),
    ("simulate", {"seed": -1}),
    ("table1", {"seed": -1}),
    ("theorems", {"seed": -1}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_bad_config_value_is_a_usage_error(runner, tmp_path, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.json"
    result = runner.invoke(main, [command, "--config", str(path), "--out", str(out)])
    assert result.exit_code == cli.EXIT_USAGE, result.output
    (key,) = config
    assert key in result.output
    assert not out.exists()


@pytest.mark.parametrize("where", ["config", "lambda", "theta"])
def test_integer_beyond_float_is_a_usage_error(runner, tmp_path, where):
    # 10**400 is a JSON integer that no float holds.
    out = tmp_path / "out.json"
    if where == "config":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda": 10**400}))
        args = ["simulate", "--config", str(path)]
    elif where == "lambda":
        args = ["attack", str(edited_transcript(
            runner, tmp_path, lambda doc: doc["config"].update({"lambda": 10**400})))]
    else:
        args = ["attack", str(edited_transcript(
            runner, tmp_path, lambda doc: doc["observations"][0]["theta"].__setitem__(0, 10**400)))]
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == cli.EXIT_USAGE, result.output
    if where == "theta":
        assert "cannot parse transcript" in result.output
    else:
        assert "'lambda' must be a finite number" in result.output
    assert not out.exists()


@pytest.mark.parametrize("field, entry", [
    ("observations[2].theta", lambda doc: doc["observations"][2]["theta"]),
    ("observations[5].delta", lambda doc: doc["observations"][5]["delta"]),
    ("ground_truth[0].x", lambda doc: doc["ground_truth"][0]["x"][1]),
    ("ground_truth[0].y", lambda doc: doc["ground_truth"][0]["y"]),
], ids=["theta", "delta", "x", "y"])
def test_transcript_number_beyond_float_names_its_field(runner, tmp_path, field, entry):
    # 10**400 is a JSON integer that no float holds; the message says where it is.
    transcript = edited_transcript(runner, tmp_path, lambda doc: entry(doc).__setitem__(1, 10**400))
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["attack", str(transcript), "--out", str(out)])
    assert result.exit_code == cli.EXIT_USAGE, result.output
    assert f"{field}: int too large to convert to float" in result.output
    assert not out.exists()


@pytest.mark.parametrize("config", ["directory", "list"])
def test_unreadable_config_is_a_usage_error(runner, tmp_path, config):
    path = tmp_path / "cfg"
    if config == "directory":
        path.mkdir()
    else:
        path.write_text("[1, 2]")
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["simulate", "--config", str(path), "--out", str(out)])
    assert result.exit_code == cli.EXIT_USAGE, result.output
    assert "config file" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "table1", "theorems"])
def test_negative_seed_flag_is_a_usage_error(runner, tmp_path, command):
    out = tmp_path / "out.json"
    result = runner.invoke(main, [command, "--seed", "-1", "--out", str(out)])
    assert result.exit_code == cli.EXIT_USAGE, result.output
    assert "seed" in result.output
    assert not out.exists()


def test_rank_correlation_helper():
    assert cli.rank_correlation([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0)
    assert cli.rank_correlation([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)
    assert abs(cli.rank_correlation([1, 1, 1], [1, 2, 3])) == 0.0


def _loop_rank_correlation(xs, ys):
    """Reference: average tie ranks and Pearson sums, written out as loops."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return 0.0 if vx == 0.0 or vy == 0.0 else cov / (vx * vy) ** 0.5


def test_rank_correlation_matches_loop_reference():
    # numpy sums in another order, so allow a few float64 ulps of 1.
    tol = 8 * np.finfo(float).eps
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(2, 30))
        xs = rng.integers(0, int(rng.integers(1, 8)), n).astype(float).tolist()
        ys = rng.random(n).round(int(rng.integers(0, 3))).tolist()
        got = cli.rank_correlation(xs, ys)
        assert abs(got - _loop_rank_correlation(xs, ys)) <= tol
        if len(set(xs)) == 1 or len(set(ys)) == 1:
            assert got == 0.0


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", [
    ("table1", "jobs", 0),
    ("table1", "jobs", -2),
    ("table1", "trials", 0),
    ("theorems", "trials", 0),
    ("theorems", "trials", -1),
])
def test_count_below_one_is_a_usage_error(runner, tmp_path, source, command, key, value):
    out = tmp_path / "out.json"
    args = [command, "--out", str(out)] + (["--grid", "3x5"] if command == "table1" else [])
    if source == "flag":
        args += [f"--{key}", str(value)]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        args += ["--config", str(path)]
    result = runner.invoke(main, args)
    assert result.exit_code == cli.EXIT_USAGE, result.output
    assert f"{key} must be at least 1" in result.output
    assert not out.exists()


def _recovery_5x10(runner, tmp_path):
    transcript, report = tmp_path / "t.json", tmp_path / "r.json"
    run_ok(runner, [
        "simulate", "--m", "5", "--d", "10", "--rounds", "13", "--seed", "3",
        "--out", str(transcript),
    ])
    run_ok(runner, ["attack", str(transcript), "--out", str(report)])
    return report


def _report(tmp_path, alpha, beta):
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"kind": "alpha_beta", "alpha": alpha, "beta": beta}))
    return report


def _lambda_off(doc):
    doc["config"]["lambda"] = 0.15


def _push_off(doc):
    doc["observations"][1]["delta"][0] += 0.37


# One input per documented exit code from 4 to 10; each builds the command line.
EXIT_CASES = {
    "4-not-integral": (cli.EXIT_NOT_INTEGRAL, lambda runner, tmp_path: [
        "attack", str(edited_transcript(runner, tmp_path, _lambda_off))]),
    "5-asymmetry": (cli.EXIT_ASYMMETRY, lambda runner, tmp_path: [
        "attack", str(edited_transcript(runner, tmp_path, _push_off))]),
    "7-screen": (cli.EXIT_SCREEN, lambda runner, tmp_path: [
        "reconstruct", str(_recovery_5x10(runner, tmp_path)), "--m", "2"]),
    "7-discover-no-size": (cli.EXIT_SCREEN, lambda runner, tmp_path: [
        "reconstruct", str(_report(tmp_path, np.eye(3, dtype=int).tolist(), [1, 1, 1])),
        "--discover", "--max-m", "2"]),
    "8-infeasible": (cli.EXIT_INFEASIBLE, lambda runner, tmp_path: [
        "reconstruct", str(_report(tmp_path, np.eye(3, dtype=int).tolist(), [1, 1, 1])),
        "--m", "2"]),
    "9-deadline": (cli.EXIT_DEADLINE, lambda runner, tmp_path: [
        "reconstruct", str(_recovery_5x10(runner, tmp_path)), "--m", "5", "--deadline", "0"]),
    "9-discover-deadline": (cli.EXIT_DEADLINE, lambda runner, tmp_path: [
        "reconstruct", str(_recovery_5x10(runner, tmp_path)), "--discover", "--deadline", "0"]),
    # x = [[1,0,1],[0,1,1],[1,1,0]] with y = +1 gives beta = (2, 2, 2); beta[0] = 4
    # would need both rows holding feature 0 to carry a label of 2.
    "10-no-labels": (cli.EXIT_NO_LABELS, lambda runner, tmp_path: [
        "reconstruct", str(_report(tmp_path, [[2, 1, 1], [1, 2, 1], [1, 1, 2]], [4, 2, 2])),
        "--m", "3"]),
}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_documented_exit_code(runner, tmp_path, case):
    code, build = EXIT_CASES[case]
    out = tmp_path / "out.json"
    result = runner.invoke(main, build(runner, tmp_path) + ["--out", str(out)])
    assert result.exit_code == code, result.output
    assert not out.exists()


def test_tolerance_is_not_an_option(runner, tmp_path):
    transcript = edited_transcript(runner, tmp_path, lambda doc: None)
    out = tmp_path / "out.json"
    for args in (["attack", str(transcript), "--tol", "1e-8"], ["theorems", "--tol", "1e-9"]):
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == cli.EXIT_USAGE, result.output
        assert "--tol" in result.output
        assert not out.exists()


def json_paths(node, path=()):
    """The path of every value below ``node``, as keys and list indices."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


@functools.cache
def simulated_transcripts():
    """``simulate --m 3 --d 4 --rounds 7 --seed 1`` in each mode, as JSON documents."""
    runner = CliRunner()
    docs = {}
    with runner.isolated_filesystem():
        for mode in fedsim.MODES:
            run_ok(runner, [
                "simulate", "--m", "3", "--d", "4", "--rounds", "7", "--seed", "1",
                "--mode", mode, "--out", "t.json",
            ])
            docs[mode] = json.loads(Path("t.json").read_text())
    return docs


EDITS = ["drop", "wrap"] + [("replace", v) for v in [
    10**400, 5e-324, 1e-310, math.nan, math.inf, -math.inf, "0.1", True, None, [], {}, 1.5,
    2**63,
]]
ATTACK_EXIT_CODES = {0, cli.EXIT_USAGE, cli.EXIT_RANK_DEFICIENT, cli.EXIT_NOT_INTEGRAL,
                     cli.EXIT_ASYMMETRY, cli.EXIT_RESIDUAL}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    target=st.deferred(lambda: st.sampled_from([
        (mode, path) for mode, doc in simulated_transcripts().items() for path in json_paths(doc)
    ])),
    edit=st.sampled_from(EDITS),
)
@example(target=(fedsim.SYNCHRONIZED, ("observations", 0, "theta", 0)), edit=("replace", 10**400))
@example(target=(fedsim.SYNCHRONIZED, ("config", "lambda")), edit=("replace", 10**400))
@example(target=(fedsim.SYNCHRONIZED, ("config", "lambda")), edit=("replace", 1e-310))
def test_any_edited_transcript_gets_a_documented_exit(target, edit):
    # One value of a valid transcript dropped, wrapped in a list or replaced.
    mode, path = target
    doc = edited_copy(simulated_transcripts()[mode], path, edit)
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("t.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["attack", "t.json", "--out", "r.json"])
    assert result.exit_code in ATTACK_EXIT_CODES, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def edited_copy(doc, path, edit):
    """A deep copy of ``doc`` with the value at ``path`` dropped, wrapped or replaced."""
    doc = copy.deepcopy(doc)
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    key = path[-1]
    if edit == "drop":
        del parent[key]
    elif edit == "wrap":
        parent[key] = [parent[key]]
    else:
        parent[key] = edit[1]
    return doc


@functools.cache
def sync_report():
    """The ``attack`` report of the synchronized transcript above, as a JSON document."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("t.json").write_text(json.dumps(simulated_transcripts()[fedsim.SYNCHRONIZED]))
        run_ok(runner, ["attack", "t.json", "--out", "r.json"])
        return json.loads(Path("r.json").read_text())


REPORT_EDITS = EDITS + [("replace", v) for v in [2**63 - 1, -2**63, -1]]
RECONSTRUCT_EXIT_CODES = {0, cli.EXIT_USAGE, cli.EXIT_SCREEN, cli.EXIT_INFEASIBLE,
                          cli.EXIT_DEADLINE, cli.EXIT_NO_LABELS, cli.EXIT_UNVERIFIED}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    path=st.deferred(lambda: st.sampled_from(list(json_paths(sync_report())))),
    edit=st.sampled_from(REPORT_EDITS),
    args=st.sampled_from([["--m", "3"], ["--discover"], ["--m", "3", "--limit", "0"]]),
)
@example(path=("alpha", 2, 2), edit=("replace", 2**63 - 1), args=["--discover"])
@example(path=("alpha", 1, 2), edit=("replace", -2**63), args=["--m", "3"])
@example(path=("beta", 1), edit=("replace", 2**63 - 1), args=["--m", "3", "--limit", "0"])
def test_any_edited_report_gets_a_documented_exit(path, edit, args):
    # One value of a valid recovery report dropped, wrapped in a list or replaced.
    doc = edited_copy(sync_report(), path, edit)
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("r.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["reconstruct", "r.json", *args, "--out", "s.json"])
    assert result.exit_code in RECONSTRUCT_EXIT_CODES, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
