import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import cohrank.cli
from cohrank import (
    OrbitWitness,
    fourier_flag_mixture,
    max_coherent,
    mc_lift,
    noisy_max_coherent,
    power_pair_witness,
    serialize,
)
from cohrank.bounds import cost_report
from cohrank.cli import CSV_HEADER, main
from cohrank.kernel import DimensionCapError
from cohrank.serialize import (
    channel_from_json,
    ensemble_from_json,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)
from helpers import dio_boundary_cases, random_density


def run(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


# stdout of these invocations is pinned byte for byte: the CSV/JSON format is
# part of the interface. The small grid holds alpha = 0, the n = 2 boundary
# sqrt(2) - 1 (an infeasible row at n = 3) and an interior alpha.
GOLDEN_SMALL_GRID = """\
alpha,n,l1_lower,construction_feasible,certified_rank,zero_error_per_copy,reg_lower,reg_upper,ec_asymptotic
0,1,1,true,1,0,0,0,0
0,2,1,true,1,0,0,0,0
0,3,1,true,1,0,0,0,0
0.207106781187,1,2,true,2,1,0.271553303164,0.333333333333,0.0863171444541
0.207106781187,2,2,true,2,0.5,0.271553303164,0.333333333333,0.0863171444541
0.207106781187,3,2,true,2,0.333333333333,0.271553303164,0.333333333333,0.0863171444541
0.414213562373,1,2,true,2,1,0.5,0.5,0.264368837538
0.414213562373,2,2,true,2,0.5,0.5,0.5,0.264368837538
0.414213562373,3,3,false,,,0.5,0.5,0.264368837538
"""

GOLDEN_SHA256 = [
    (["nonadd", "--alpha-min", "0", "--alpha-max", "1", "--steps", "5", "--n-max", "3"],
     "0621d1c4f97135310f8ed11a0a48a06f6f81dc1724e514e8c98dbcc6294fe11a"),
    # near ||rho||_l1 = 1e-9 the l1 column is the l1 bound itself, not the
    # certificate's lower bound (which the nondiagonality floor can raise)
    (["nonadd", "--alpha-min", "1e-9", "--alpha-max", "1.1e-9", "--steps", "201",
      "--n-max", "1"],
     "748b44f8b852c437915f8d837f8748ef11d2c4b9b3301ea41d7531bc3e79a11e"),
    (["cost", "--alpha", "0"],
     "0f681afccc63c684e4ac0a9133490119651e769c88bc5eb7eb43f758e806df62"),
    (["cost", "--alpha", "0.26", "--n", "3"],
     "9f22e39996eca315bf04afc2a8c6395f36efb0945a76198f87ec9efda905159c"),
    (["cost", "--alpha", "0.5", "--n", "6"],
     "a908ab22e695412d286bb80dc579bb84f24c468c8929ff1c18c5e86fc43083d6"),
]

# The JSON documents of decompose, pinned with their exit codes: feasible,
# the n = 4 boundary 2**(1/4) - 1 (no basis members), infeasible, and rho_d.
GOLDEN_DOC_SHA256 = [
    (["decompose", "--family", "omega-power", "--alpha", "0.2", "--n", "3"], 0,
     "d3745841d634fb3ca89741f73de25c1030f32e683454f5363bd2ea3752af2349"),
    (["decompose", "--family", "omega-power", "--alpha", repr(2**0.25 - 1), "--n", "4"], 0,
     "fcce3f78b5994dc9ee2428b7af711063594eb907a113e288171c494e44501698"),
    (["decompose", "--family", "omega-power", "--alpha", "1", "--n", "2"], 2,
     "0f0c06182552c2e6309c7c1589d289ea5405e768eda296d07edfd22a454292e5"),
    (["decompose", "--family", "rho-d", "--d", "3"], 0,
     "fe9796fc46123c85e00d048349979d83aac6f8d4be565ec2decc56ae7ec5874c"),
]


class TestGoldenBytes:
    def test_small_grid_text(self, capsys):
        code, out = run(
            ["nonadd", "--alpha-min", "0", "--alpha-max", repr(math.sqrt(2) - 1),
             "--steps", "3", "--n-max", "3"],
            capsys,
        )
        assert code == 0
        assert out == GOLDEN_SMALL_GRID

    @pytest.mark.parametrize(
        "args,digest", GOLDEN_SHA256, ids=[" ".join(a) for a, _ in GOLDEN_SHA256]
    )
    def test_stdout_digest(self, args, digest, capsys):
        code, out = run(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "args,exit_code,digest", GOLDEN_DOC_SHA256,
        ids=[" ".join(a) for a, _, _ in GOLDEN_DOC_SHA256],
    )
    def test_decompose_digest(self, args, exit_code, digest, capsys):
        code, out = run(args, capsys)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_dio_file_digest(self, tmp_path):
        state, out = tmp_path / "state.json", tmp_path / "channel.json"
        state.write_text(json.dumps(matrix_to_json(fourier_flag_mixture(4))))
        assert main(["dio", "--state", str(state), "--d", "2", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a7cf9f3c62bb8c64cd21b3341d8c1e5379a0ab31e4b172a6c1bb518941b9a496"
        )


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

    def test_feasibility_sliver_row_reads_false(self, capsys):
        # (1+alpha)**10 exceeds 2 by 0.99e-12 * 2**10: below the -1e-12 floor on
        # the total missing diagonal mass, so the witness cannot certify the row
        alpha = (2 + 0.99e-12 * 1024) ** (1 / 10) - 1
        code, out = run(
            ["nonadd", "--alpha-min", repr(alpha), "--alpha-max", repr(alpha),
             "--steps", "1", "--n-max", "10"],
            capsys,
        )
        assert code == 0
        row = out.strip().split("\n")[-1].split(",")
        assert row[1] == "10" and row[3] == "false" and row[4] == ""

    def test_invalid_range_exits_3(self, capsys):
        assert main(["nonadd", "--alpha-max", "1.5"]) == 3

    def test_seed_and_tol_psd_are_no_ops(self, capsys):
        args = ["nonadd", "--alpha-max", "0.4", "--steps", "3", "--n-max", "3"]
        _, plain = run(args, capsys)
        _, flagged = run(args + ["--seed", "7", "--tol-psd", "0.5"], capsys)
        assert flagged == plain

    @pytest.mark.parametrize(
        "flags,rows",
        [(["--alpha-max", "0", "--n-max", "1000000000000"], 10 * 10**12),
         (["--steps", "100000000000"], 4 * 10**11)],
        ids=["all-zero-sweep", "steps"],
    )
    def test_sweep_past_the_output_budget_exits_3(self, flags, rows):
        """The first built rows until it was killed, the second exited 1 trying
        to allocate 745 GiB. Run in a child with a timeout, so a regression
        fails rather than hangs."""
        env = {k: v for k, v in os.environ.items() if k != "COHRANK_DIM_CAP"}
        env["PYTHONPATH"] = str(Path(cohrank.cli.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-m", "cohrank", "nonadd", *flags],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert f"is {rows} rows, exceeds cap 4096**2" in proc.stderr

    def test_sweep_row_budget_follows_dim_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("COHRANK_DIM_CAP", "4")
        code, out = run(["nonadd", "--steps", "4", "--n-max", "4"], capsys)  # 16 rows = 4**2
        assert code == 0 and len(out.splitlines()) == 17
        assert main(["nonadd", "--steps", "17", "--n-max", "1"]) == 3
        assert "17 steps x 1 copies is 17 rows" in capsys.readouterr().err


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

    @pytest.mark.parametrize("n", [25, 40, 1023])
    def test_output_budget_refuses_member_counts_past_sys_maxsize(self, n, capsys):
        """2**(2n-1) members at n >= 32 cannot be a len(); the cap still refuses them."""
        assert main(["decompose", "--family", "omega-power", "--alpha", "1e-4", "--n", str(n)]) == 3
        assert "amplitudes exceeds cap 4096**2" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["nan", "inf", "NaN", "Infinity"])
    def test_non_finite_alpha_exits_3(self, alpha, tmp_path, capsys):
        """It used to exit 2 with "alpha": NaN or Infinity, which is not JSON."""
        out = tmp_path / "ens.json"
        args = ["decompose", "--family", "omega-power", "--alpha", alpha, "--n", "3"]
        assert main(args + ["--out", str(out)]) == 3
        assert "mixing parameter must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1.5", "1e300"])
    def test_alpha_above_one_keeps_its_infeasible_document(self, alpha, capsys):
        code, out = run(["decompose", "--family", "omega-power", "--alpha", alpha,
                         "--n", "3"], capsys)
        assert code == 2
        assert json.loads(out)["params"]["alpha"] == float(alpha)

    def test_output_budget_keeps_infeasible_document(self, capsys):
        code, out = run(
            ["decompose", "--family", "omega-power", "--alpha", "0.5", "--n", "9"],
            capsys,
        )
        assert code == 2
        assert json.loads(out)["feasible"] is False


class TestStreamedOutput:
    """JSON goes out through one streaming writer, never a whole-document encoder."""

    def test_decompose_memory_is_bounded_by_a_block(self, tmp_path):
        # the whole document (27 MB) used to be built as lists and one string:
        # a tracemalloc peak of about 250 MB
        out = tmp_path / "ens.json"
        tracemalloc.start()
        try:
            code = main(["decompose", "--family", "omega-power", "--alpha", "0.05",
                         "--n", "7", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.stat().st_size > 20 * 2**20
        assert peak < 16 * 2**20

    def test_no_whole_document_encoder(self, tmp_path, monkeypatch, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(matrix_to_json(fourier_flag_mixture(4))))

        def refuse(*args, **kwargs):
            raise AssertionError("whole-document JSON encoding")

        monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
        for args, expected in [
            (["cost", "--alpha", "0.3", "--n", "3"], 0),
            (["decompose", "--family", "omega-power", "--alpha", "0.1", "--n", "3"], 0),
            (["decompose", "--family", "omega-power", "--alpha", "1", "--n", "2"], 2),
            (["decompose", "--family", "rho-d", "--d", "3"], 0),
            (["dio", "--state", str(state), "--d", "2"], 0),
            (["dio", "--state", str(state), "--d", "1"], 3),
        ]:
            assert main(args) == expected, args
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,error",
        [
            ("power_pair_witness", DimensionCapError("witness over the cap")),
            ("tensor_power", DimensionCapError("target over the cap")),
            ("verify_ensemble", ValueError("target has non-finite entries")),
        ],
    )
    def test_decompose_refusal_leaves_no_file(self, name, error, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(cohrank.cli, name, refuse)
        out = tmp_path / "ens.json"
        code = main(["decompose", "--family", "omega-power", "--alpha", "0.1", "--n", "3",
                     "--out", str(out)])
        assert code == 3
        assert str(error) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("earlier", [None, "earlier document\n"])
    def test_failure_partway_leaves_no_truncated_file(self, earlier, tmp_path, monkeypatch,
                                                      capsys):
        out = tmp_path / "ens.json"
        if earlier is not None:
            out.write_text(earlier)
        label_blocks, seen = OrbitWitness.label_blocks, []

        def fail_partway(self, count):
            it = label_blocks(self, count)
            for _ in range(20):
                yield next(it)
            # twenty one-member blocks, past the file's write buffer, are on disk by now
            seen.extend((p.name, p.stat().st_size) for p in tmp_path.iterdir() if p != out)
            raise MemoryError("out of memory partway")

        monkeypatch.setattr(OrbitWitness, "label_blocks", fail_partway)
        monkeypatch.setattr(serialize, "MEMBER_BLOCK", 1)
        code = main(["decompose", "--family", "omega-power", "--alpha", "0.1", "--n", "5",
                     "--out", str(out)])
        assert code == 1
        assert "out of memory partway" in capsys.readouterr().err
        assert len(seen) == 1 and seen[0][1] > 0
        assert sorted(os.listdir(tmp_path)) == ([] if earlier is None else ["ens.json"])
        if earlier is not None:
            assert out.read_text() == earlier

    def test_omega_members_are_written_from_their_labels(self, monkeypatch, capsys):
        """members(), the dense oracle, builds one vector per member; decompose
        never calls it, and still writes the members it lists."""
        monkeypatch.setattr(OrbitWitness, "members", mock.Mock(side_effect=AssertionError))
        code, out = run(["decompose", "--family", "omega-power", "--alpha", "0.1", "--n", "4"],
                        capsys)
        monkeypatch.undo()
        assert code == 0
        oracle = [{"weight": w, **vector_to_json(psi)} for w, psi in power_pair_witness(0.1, 4).members()]
        assert json.loads(out)["members"] == oracle

    def test_out_file_mode_and_links(self, tmp_path):
        args = ["cost", "--alpha", "0.3", "--n", "2", "--out"]
        fresh = tmp_path / "fresh.json"
        assert main(args + [str(fresh)]) == 0
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
        kept = tmp_path / "kept.json"
        kept.write_text("old")
        kept.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to(kept)
        assert main(args + [str(link)]) == 0
        assert link.is_symlink() and stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert kept.read_text() == fresh.read_text()
        assert main(args + [os.devnull]) == 0
        assert sorted(os.listdir(tmp_path)) == ["fresh.json", "kept.json", "link.json"]

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "cost.json"
        assert main(["cost", "--alpha", "0.3", "--out", str(out)]) == 3
        assert f"No such file or directory: '{out}'" in capsys.readouterr().err

    def test_dio_refusal_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(matrix_to_json(noisy_max_coherent(0.3))))
        out = tmp_path / "channel.json"
        monkeypatch.setenv("COHRANK_DIM_CAP", "8")
        assert main(["dio", "--state", str(state), "--d", "5", "--out", str(out)]) == 3
        assert "exceeds cap" in capsys.readouterr().err
        assert not out.exists()


DIO_BOUNDARY = dio_boundary_cases()


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

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_psd_exits_3(self, tol, tmp_path, capsys):
        state = self.write_state(tmp_path, noisy_max_coherent(0.3))
        assert main(["dio", "--state", state, "--d", "2", f"--tol-psd={tol}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "PSD tolerance" in captured.err

    def test_input_dimension_over_cap_exits_3(self, tmp_path, monkeypatch, capsys):
        state = self.write_state(tmp_path, noisy_max_coherent(0.3))
        # refused before the 40000 x 40000 Choi matrix is allocated
        assert main(["dio", "--state", state, "--d", "20000"]) == 3
        assert "exceeds cap" in capsys.readouterr().err
        monkeypatch.setenv("COHRANK_DIM_CAP", "8")
        assert main(["dio", "--state", state, "--d", "4"]) == 0  # 4 x 2 <= 8
        assert main(["dio", "--state", state, "--d", "5"]) == 3  # 5 x 2 > 8

    def test_malformed_json_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["dio", "--state", str(bad), "--d", "2"]) == 3

    def test_infinite_state_exits_3(self, tmp_path, capsys):
        state = self.write_state(tmp_path, np.diag([np.inf, 0.0]))
        assert main(["dio", "--state", state, "--d", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    @pytest.mark.parametrize(
        "label,target,d,feasible",
        DIO_BOUNDARY,
        ids=[f"{label}-d{d}" for label, _, d, _ in DIO_BOUNDARY],
    )
    def test_boundary_targets(self, label, target, d, feasible, tmp_path, capsys):
        state = self.write_state(tmp_path, target)
        code, out = run(["dio", "--state", state, "--d", str(d)], capsys)
        doc = json.loads(out)
        assert doc["feasible"] is feasible
        if feasible:
            assert code == 0 and doc["dilution_dimension"] <= d
        else:
            assert code == 2 and doc["dilution_dimension"] == d + 1

    def test_infeasible_over_cap_keeps_its_document(self, tmp_path, monkeypatch, capsys):
        phi = max_coherent(4)
        state = self.write_state(tmp_path, np.outer(phi, phi.conj()))
        monkeypatch.setenv("COHRANK_DIM_CAP", "8")  # the Choi side 3 x 4 is over it
        code, out = run(["dio", "--state", state, "--d", "3"], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["feasible"] is False and doc["dilution_dimension"] == 4

    @pytest.mark.parametrize(
        "target,d,calls",
        [
            # validation, robustness, feasibility, Choi spectrum in cptp_report
            (fourier_flag_mixture(4), 2, 4),
            # validation, robustness, feasibility
            (np.outer(max_coherent(4), max_coherent(4).conj()), 3, 3),
        ],
        ids=["feasible", "infeasible"],
    )
    def test_eigensolve_count(self, target, d, calls, tmp_path, monkeypatch, capsys):
        # one eigensolve per question: a repeated robustness or feasibility
        # eigensolve shows up here
        state = self.write_state(tmp_path, target)
        count = 0
        eigvalsh = np.linalg.eigvalsh

        def counting(m):
            nonlocal count
            count += 1
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        main(["dio", "--state", state, "--d", str(d)])
        assert count == calls


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

    @pytest.mark.parametrize("n", ["1024", "1000000000000"])
    def test_copies_beyond_the_limit_exit_3(self, n, capsys):
        """The copy limit MAX_COPIES = 1023 is compared as an integer first."""
        assert main(["cost", "--alpha", "0.01", "--n", n]) == 3
        assert f"copy count {n} exceeds 1023" in capsys.readouterr().err
        assert main(["nonadd", "--alpha-min", "0.01", "--n-max", n]) == 3
        assert f"copy count {n} exceeds 1023" in capsys.readouterr().err

    def test_alpha_zero_needs_no_copy_limit(self, capsys):
        """alpha = 0 needs no rank, so these stay admitted, as they were."""
        code, out = run(["cost", "--alpha", "0", "--n", "2000"], capsys)
        assert code == 0 and json.loads(out)["zero_error"] == 0.0
        code, out = run(["nonadd", "--alpha-max", "0", "--n-max", "1030"], capsys)
        assert code == 0 and out.splitlines()[-1].startswith("0,1030,1,true,1,0,")

    def test_copy_limit_ignores_dim_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("COHRANK_DIM_CAP", "8")
        code, out = run(["cost", "--alpha", "0.1", "--n", "7"], capsys)  # 2**7 > 8**2
        assert code == 0 and json.loads(out)["zero_error"] == pytest.approx(1 / 7)

    @pytest.mark.parametrize("n", [25, 64, 256, 1023])
    def test_copies_past_the_old_budget_certify(self, n, capsys):
        """n = 25 .. 1023 exited 3 under the 2**n <= cap**2 budget; the weight
        form certifies them, at 0.9x and exactly at the boundary."""
        for alpha in (0.9 * (2 ** (1 / n) - 1), 2 ** (1 / n) - 1):
            code, out = run(["cost", "--alpha", repr(alpha), "--n", str(n)], capsys)
            assert code == 0 and json.loads(out)["zero_error"] == 1 / n
        code, out = run(["cost", "--alpha", "1", "--n", str(n)], capsys)
        assert code == 0 and json.loads(out)["zero_error"] == 1.0

    def test_cost_report_at_n24_holds_no_2n_array(self):
        """The parent's 2**24-long row alone was 128 MB; the weight form is O(n**2)."""
        tracemalloc.start()
        try:
            rep = cost_report(0.9 * (2 ** (1 / 24) - 1), 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.certified_rank == 2
        assert peak < 1_000_000

    def test_alpha_below_double_precision_exits_3(self, capsys):
        assert main(["cost", "--alpha", "1e-300"]) == 3
        assert "rounds to 0" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag_exits_3(self, capsys):
        assert main(["nonadd", "--bogus"]) == 3

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
