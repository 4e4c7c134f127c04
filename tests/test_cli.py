import json
import math

import numpy as np
import pytest

from cohrank import fourier_flag_mixture, max_coherent, mc_lift, noisy_max_coherent
from cohrank.cli import CSV_HEADER, main
from cohrank.serialize import (
    channel_from_json,
    ensemble_from_json,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)
from helpers import random_density


def run(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


class TestSerializeRoundTrip:
    def test_matrix(self):
        rng = np.random.default_rng(51)
        m = random_density(rng, 5)
        doc = json.loads(json.dumps(matrix_to_json(m)))
        assert np.abs(matrix_from_json(doc) - m).max() <= 1e-12

    def test_matrix_with_dims(self):
        doc = matrix_to_json(mc_lift(noisy_max_coherent(0.4)), dims=(2, 2))
        assert doc["dims"] == [2, 2]
        assert doc["dim"] == 4

    def test_vector(self):
        psi = max_coherent(3) * np.exp(1j * np.linspace(0, 1, 3))
        doc = json.loads(json.dumps(vector_to_json(psi)))
        assert np.abs(vector_from_json(doc) - psi).max() <= 1e-12

    def test_entry_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"dim": 2, "entries": [1.0, 0.0]})


class TestNonadd:
    def test_deterministic_output(self, tmp_path):
        args = [
            "nonadd",
            "--alpha-min", "0",
            "--alpha-max", "0.41",
            "--steps", "5",
            "--n-max", "3",
            "--seed", "7",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_header_and_row_grid(self, capsys):
        code, out = run(
            ["nonadd", "--alpha-min", "0", "--alpha-max", "0.3", "--steps", "2",
             "--n-max", "2"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2

    def test_incoherent_row_values(self, capsys):
        code, out = run(
            ["nonadd", "--alpha-min", "0", "--alpha-max", "0", "--steps", "1",
             "--n-max", "1"],
            capsys,
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row == ["0", "1", "1", "true", "1", "0", "0", "0", "0"]

    def test_boundary_row_certifies_rank_two(self, capsys):
        alpha = math.sqrt(2) - 1
        code, out = run(
            ["nonadd", "--alpha-min", str(alpha), "--alpha-max", str(alpha),
             "--steps", "1", "--n-max", "2"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for row in rows:
            assert row[3] == "true"
            assert row[4] == "2"
        assert float(rows[1][6]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows[1][7]) == pytest.approx(0.5, abs=1e-12)

    def test_infeasible_row_leaves_rank_blank(self, capsys):
        code, out = run(
            ["nonadd", "--alpha-min", "0.3", "--alpha-max", "0.3", "--steps", "1",
             "--n-max", "3"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        n3 = rows[2]
        assert n3[3] == "false"
        assert n3[4] == ""
        assert n3[5] == ""
        assert n3[2] == "3"  # l1 bound survives: ceil(1.3^3) = 3

    def test_invalid_range_exits_3(self, capsys):
        assert main(["nonadd", "--alpha-max", "1.5"]) == 3

    def test_seed_and_tol_psd_are_no_ops(self, capsys):
        args = ["nonadd", "--alpha-max", "0.4", "--steps", "3", "--n-max", "3"]
        _, plain = run(args, capsys)
        _, flagged = run(args + ["--seed", "7", "--tol-psd", "0.5"], capsys)
        assert flagged == plain


class TestDecompose:
    def test_pair_family_document(self, capsys):
        code, out = run(
            ["decompose", "--family", "omega-power", "--alpha", "0.2", "--n", "2"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["target_dim"] == 4
        assert len(doc["members"]) == 10
        assert doc["report"]["max_member_rank"] == 2
        assert doc["report"]["reconstruction_trace_distance"] <= 1e-9
        ens = ensemble_from_json(doc)
        assert abs(ens.weights.sum() - 1) < 1e-12

    def test_flag_family_document(self, capsys):
        code, out = run(["decompose", "--family", "rho-d", "--d", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["members"]) == 3
        assert doc["report"]["max_member_rank"] == 4

    def test_infeasible_reports_boundary(self, capsys):
        code, out = run(
            ["decompose", "--family", "omega-power", "--alpha", "1", "--n", "2"],
            capsys,
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert doc["boundary_alpha"] == pytest.approx(math.sqrt(2) - 1)

    def test_missing_params_exit_3(self, capsys):
        assert main(["decompose", "--family", "omega-power"]) == 3
        assert main(["decompose", "--family", "rho-d"]) == 3

    def test_output_budget_refuses_before_writing(self, tmp_path, capsys):
        out = tmp_path / "ens.json"
        # 2**9 * (2**9 + 1) / 2 members x 2**9 amplitudes > 4096**2
        code = main(["decompose", "--family", "omega-power", "--alpha", "0.01",
                     "--n", "9", "--out", str(out)])
        assert code == 3
        assert "exceeds cap" in capsys.readouterr().err
        assert not out.exists()

    def test_output_budget_follows_dim_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("COHRANK_DIM_CAP", "64")
        base = ["decompose", "--family", "omega-power", "--alpha", "0.05"]
        code, out = run(base + ["--n", "4"], capsys)  # 136 x 16 <= 64**2
        assert code == 0 and len(json.loads(out)["members"]) == 136
        assert main(base + ["--n", "5"]) == 3  # 528 x 32 > 64**2

    def test_output_budget_keeps_infeasible_document(self, capsys):
        code, out = run(
            ["decompose", "--family", "omega-power", "--alpha", "0.5", "--n", "9"],
            capsys,
        )
        assert code == 2
        assert json.loads(out)["feasible"] is False


class TestDio:
    def write_state(self, tmp_path, matrix):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(matrix_to_json(matrix)))
        return str(path)

    def test_flag_mixture_target(self, tmp_path, capsys):
        state = self.write_state(tmp_path, fourier_flag_mixture(4))
        code, out = run(["dio", "--state", state, "--d", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["delta_robustness"] == pytest.approx(2.0, abs=1e-10)
        assert doc["cptp"]["passed"] and doc["covariance"]["passed"]
        ch = channel_from_json(doc["channel"])
        assert ch.input_dim == 2 and ch.output_dim == 8
        original = json.loads(out)["channel"]
        assert np.abs(matrix_from_json(original["choi"]) - ch.choi).max() <= 1e-12

    def test_uniform_superposition_needs_matching_dimension(self, tmp_path, capsys):
        phi = max_coherent(4)
        state = self.write_state(tmp_path, np.outer(phi, phi.conj()))
        code, out = run(["dio", "--state", state, "--d", "3"], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert doc["dilution_dimension"] == 4
        code, out = run(["dio", "--state", state, "--d", "4"], capsys)
        assert code == 0

    def test_diagonal_target_has_zero_coherent_block(self, tmp_path, capsys):
        state = self.write_state(tmp_path, np.diag([0.25, 0.75]))
        code, out = run(["dio", "--state", state, "--d", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        z = matrix_from_json(doc["channel"]["component_z"])
        assert np.abs(z).max() == 0.0

    def test_missing_file_exits_3(self, capsys):
        assert main(["dio", "--state", "/nonexistent.json", "--d", "2"]) == 3

    def test_invalid_state_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(matrix_to_json(np.eye(2))))  # trace 2
        assert main(["dio", "--state", str(bad), "--d", "2"]) == 3

    def test_non_finite_state_exits_3(self, tmp_path, capsys):
        state = self.write_state(tmp_path, np.full((2, 2), np.nan))
        assert main(["dio", "--state", state, "--d", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_malformed_json_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["dio", "--state", str(bad), "--d", "2"]) == 3


class TestCost:
    def test_coincidence_point(self, capsys):
        alpha = 2 ** (1 / 3) - 1
        code, out = run(["cost", "--alpha", str(alpha), "--n", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["regularized_lower"] == pytest.approx(1 / 3, abs=1e-12)
        assert doc["regularized_upper"] == pytest.approx(1 / 3, abs=1e-12)
        assert doc["zero_error"] == pytest.approx(1 / 3, abs=1e-9)

    def test_pure_endpoint(self, capsys):
        code, out = run(["cost", "--alpha", "1"], capsys)
        assert code == 0
        assert json.loads(out)["asymptotic_ec"] == pytest.approx(1.0)

    def test_midpoint_entropy(self, capsys):
        code, out = run(["cost", "--alpha", "0.6"], capsys)
        assert json.loads(out)["asymptotic_ec"] == pytest.approx(0.46900, abs=1e-4)

    def test_uncertified_interval_serializes_as_pair(self, capsys):
        code, out = run(["cost", "--alpha", "0.3", "--n", "3"], capsys)
        assert code == 0
        ze = json.loads(out)["zero_error"]
        assert isinstance(ze, list) and len(ze) == 2

    def test_out_of_range_exits_3(self, capsys):
        assert main(["cost", "--alpha", "1.5"]) == 3

    def test_alpha_below_double_precision_exits_3(self, capsys):
        assert main(["cost", "--alpha", "1e-300"]) == 3
        assert "rounds to 0" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag_exits_3(self, capsys):
        assert main(["nonadd", "--bogus"]) == 3

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
