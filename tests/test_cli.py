import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from gramleak import cli, fedsim, numkit, reconstruct
from gramleak.cli import main
from gramleak.reconstruct import canonical_rows, count_constraints


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


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
            raw = np.array([numkit.solve_linear(design, deltas[:, i]) for i in range(6)])
            expected = float(np.max(np.abs(raw - np.rint(raw))))
            assert diagnostics["max_integrality_residual"] == expected
        else:
            assert "max_integrality_residual" not in diagnostics

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

    def test_bad_grid_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["table1", "--grid", "3,5"])
        assert result.exit_code == cli.EXIT_USAGE


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


def test_rank_correlation_helper():
    assert cli.rank_correlation([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0)
    assert cli.rank_correlation([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)
    assert abs(cli.rank_correlation([1, 1, 1], [1, 2, 3])) == 0.0
