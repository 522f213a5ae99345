import json

import numpy as np
import pytest

from strongprops.cli import main
from strongprops.patterns import format_matrix, parse_matrix_text


@pytest.fixture
def workdir(tmp_path):
    files = {
        "ex15.mat": "-1 1 -1\n-2 2 -2\n-1 1 -1\n",
        "ex15.pat": "-+-\n-+-\n-+-\n",
        "p3.graph": "3 2\n0 1\n1 2\n",
        "p3adj.mat": "0 1 0\n1 0 1\n0 1 0\n",
        "c4.graph": "4 4\n0 1\n1 2\n2 3\n3 0\n",
        "c4twist.mat": "0 1 0 -1\n1 0 1 0\n0 1 0 1\n-1 0 1 0\n",
        "c4adj.mat": "0 1 0 1\n1 0 1 0\n0 1 0 1\n1 0 1 0\n",
        "empty2.graph": "2 0\n",
        "zero2.mat": "0 0\n0 0\n",
        "w2.mat": "1 -1\n1 -1\n",
        "w2.pat": "+-\n+-\n",
        "targets.txt": "1 2 3\n0 0+0.5i\n# comment line\n0 0 0\n",
        "bad.mat": "1 2\nthree 4\n",
    }
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    return tmp_path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_nssp_example15_exit_zero(self, workdir, capsys):
        code, out, _ = run(capsys, ["verify", workdir / "ex15.mat", "--property", "nssp"])
        assert code == 0
        assert "NSSP holds" in out

    def test_failing_property_exit_one_and_witness(self, workdir, capsys):
        witness_path = workdir / "witness.mat"
        code, out, _ = run(
            capsys,
            ["verify", workdir / "zero2.mat", "--property", "ssp",
             "--graph", workdir / "empty2.graph", "--witness-out", witness_path],
        )
        assert code == 1
        w = parse_matrix_text(witness_path.read_text())
        assert np.allclose(np.abs(w), np.array([[0, 1], [1, 0]]) / np.sqrt(2))

    def test_witness_out_into_missing_directory_exit_two(self, workdir, capsys):
        code, _, err = run(
            capsys,
            ["verify", workdir / "zero2.mat", "--property", "ssp",
             "--graph", workdir / "empty2.graph",
             "--witness-out", workdir / "missing" / "witness.mat"],
        )
        assert code == 2
        assert "cannot write" in err

    def test_infinite_rank_tol_rejected(self, workdir, capsys):
        # diag(1, 2) on the empty graph has the SSP; an infinite cutoff
        # would zero every singular value and report a failure
        (workdir / "d12.mat").write_text("1 0\n0 2\n")
        code, _, err = run(
            capsys,
            ["verify", workdir / "d12.mat", "--property", "ssp",
             "--graph", workdir / "empty2.graph", "--rank-tol", "inf"],
        )
        assert code == 2
        assert "rank_tol must be finite" in err

    def test_primal_dual_disagreement_exit_eight(self, workdir, capsys, monkeypatch):
        # a dual route that sees rank 0 contradicts the primal verdict
        monkeypatch.setattr("strongprops.verifiers.rank", lambda a, tol: 0)
        code, _, err = run(
            capsys,
            ["verify", workdir / "c4twist.mat", "--property", "ssp", "--graph", workdir / "c4.graph"],
        )
        assert code == 8
        assert "internal check failed" in err and "disagrees" in err

    def test_malformed_matrix_exit_two(self, workdir, capsys):
        code, _, err = run(
            capsys,
            ["verify", workdir / "bad.mat", "--property", "nssp"],
        )
        assert code == 2
        assert "bad.mat:2" in err

    def test_missing_graph_exit_two(self, workdir, capsys):
        code, _, err = run(capsys, ["verify", workdir / "p3adj.mat", "--property", "ssp"])
        assert code == 2

    def test_json_schema_field(self, workdir, capsys):
        code, out, _ = run(
            capsys,
            ["verify", workdir / "p3adj.mat", "--property", "ssp",
             "--graph", workdir / "p3.graph", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "strongprops/1"
        assert doc["report"]["holds"] is True
        assert doc["tolerances"]["rank_tol"] == 1e-8


class TestRealizeCommand:
    def test_spectrum_roundtrip(self, workdir, capsys):
        out_path = workdir / "realized.mat"
        code, out, _ = run(
            capsys,
            ["realize", workdir / "p3adj.mat", "--graph", workdir / "p3.graph",
             "--target-spectrum", "-1 0 1", "--out", out_path],
        )
        assert code == 0
        a = parse_matrix_text(out_path.read_text())
        assert np.allclose(np.linalg.eigvalsh(a), [-1.0, 0.0, 1.0], atol=1e-9)

    def test_written_matrix_round_trips_exactly(self, workdir, capsys):
        out_path = workdir / "realized.mat"
        code, out, _ = run(
            capsys,
            ["realize", workdir / "p3adj.mat", "--graph", workdir / "p3.graph",
             "--target-spectrum", "-1 0 1", "--out", out_path, "--json"],
        )
        doc = json.loads(out)
        a_json = np.array(doc["result"]["matrix"])
        a_file = parse_matrix_text(out_path.read_text())
        assert np.array_equal(a_json, a_file)

    def test_out_into_missing_directory_exit_two(self, workdir, capsys):
        code, _, err = run(
            capsys,
            ["realize", workdir / "p3adj.mat", "--graph", workdir / "p3.graph",
             "--target-spectrum", "-1 0 1", "--out", workdir / "missing" / "b.mat"],
        )
        assert code == 2
        assert "cannot write" in err

    def test_identity_target_zero_iterations(self, workdir, capsys):
        code, out, _ = run(
            capsys,
            ["realize", workdir / "c4twist.mat", "--graph", workdir / "c4.graph",
             "--target-mlist", "2 2", "--json"],
        )
        assert code == 0
        assert json.loads(out)["result"]["iterations"] == 0

    def test_not_a_refinement_exit_six(self, workdir, capsys):
        code, _, err = run(
            capsys,
            ["realize", workdir / "c4twist.mat", "--graph", workdir / "c4.graph",
             "--target-mlist", "1 2 1"],
        )
        assert code == 6
        assert "refinement" in err

    def test_surjectivity_failure_exit_three(self, workdir, capsys):
        code, _, _ = run(
            capsys,
            ["realize", workdir / "c4adj.mat", "--graph", workdir / "c4.graph",
             "--target-spectrum", "-2 -0.1 0.1 2"],
        )
        assert code == 3

    def test_unreachable_inertia_exit_six(self, workdir, capsys):
        code, _, _ = run(
            capsys,
            ["realize", workdir / "c4twist.mat", "--graph", workdir / "c4.graph",
             "--target-inertia", "0 1"],
        )
        assert code == 6

    def test_two_targets_rejected(self, workdir, capsys):
        code, _, err = run(
            capsys,
            ["realize", workdir / "c4twist.mat", "--graph", workdir / "c4.graph",
             "--target-mlist", "2 2", "--target-q", "3"],
        )
        assert code == 2
        assert "exactly one" in err

    def test_bifurcate_alias(self, workdir, capsys):
        code, _, _ = run(
            capsys,
            ["bifurcate", workdir / "c4twist.mat", "--graph", workdir / "c4.graph",
             "--target-q", "3"],
        )
        assert code == 0

    def test_similar_to(self, workdir, capsys):
        target = workdir / "target.mat"
        a = parse_matrix_text((workdir / "ex15.mat").read_text())
        m = a + 0.01 * np.eye(3)
        target.write_text(format_matrix(m))
        code, out, _ = run(
            capsys,
            ["realize", workdir / "ex15.mat", "--pattern", workdir / "ex15.pat",
             "--similar-to", target, "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["property_recheck"]["holds"] is True


class TestCertifyCommand:
    def test_spectrally_arbitrary_complete(self, workdir, capsys):
        code, out, _ = run(
            capsys,
            ["certify", workdir / "ex15.pat", workdir / "ex15.mat",
             "--spectrally-arbitrary", workdir / "targets.txt"],
        )
        assert code == 0
        assert "complete" in out

    def test_hypothesis_failure_prints_norms(self, workdir, capsys):
        bad = workdir / "notnil.mat"
        bad.write_text("-1 1 -1\n-2 2 -2\n-1 1 -2\n")
        code, _, err = run(
            capsys,
            ["certify", workdir / "ex15.pat", bad,
             "--spectrally-arbitrary", workdir / "targets.txt"],
        )
        assert code == 1
        assert "power_norm" in err

    def test_inertially_arbitrary(self, workdir, capsys):
        code, out, _ = run(
            capsys,
            ["certify", workdir / "w2.pat", workdir / "w2.mat",
             "--inertially-arbitrary", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["verdict"] == "complete"
        assert len(doc["certificate"]["evidence"]) == 6

    def test_inertially_arbitrary_jordan_block_in_two_schur_slots(self, tmp_path, capsys):
        # rank 3, so its two zero eigenvalues form a Jordan block, but the
        # real Schur form holds them in two 1x1 blocks; targets such as
        # (2, 0, 2) used to leave that block unshifted and fail
        (tmp_path / "w.mat").write_text("0 1 1 1\n2 0 0 2\n-2 1 -1 -3\n0 -1 1 1\n")
        (tmp_path / "w.pat").write_text("0+++\n+00+\n-+--\n0-++\n")
        code, out, _ = run(
            capsys,
            ["certify", tmp_path / "w.pat", tmp_path / "w.mat",
             "--inertially-arbitrary", "--json"],
        )
        assert code == 0
        evidence = json.loads(out)["certificate"]["evidence"]
        assert len(evidence) == 15 and all(e["ok"] for e in evidence)


class TestSweepCommand:
    def test_complete_family_all_hold(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--family", "complete", "--n-min", "2", "--n-max", "6",
             "--property", "ssp", "--seed", "7"],
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 5
        assert all(row[4] == "True" for row in rows)

    def test_empty_family_repeated_diagonal_fails(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--family", "empty", "--n-min", "2", "--n-max", "4",
             "--property", "ssp", "--seed", "7"],
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert all(row[4] == "False" for row in rows)

    def test_cycle_realized_lists_match_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--family", "cycle", "--n-min", "3", "--n-max", "5",
             "--property", "smp", "--seed", "7", "--realize-lists", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"]:
            assert row["holds"] is True
            assert row["oracle_agreed"] is True
            assert row["realized_lists"]

    def test_path_family(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--family", "path", "--n-min", "2", "--n-max", "5",
             "--property", "sap", "--seed", "3"],
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 4

    def test_range_guard(self, capsys):
        code, _, err = run(
            capsys,
            ["sweep", "--family", "path", "--n-min", "2", "--n-max", "13"],
        )
        assert code == 2


class TestDeterminism:
    def test_sweep_json_byte_identical(self, capsys):
        argv = ["sweep", "--family", "cycle", "--n-min", "3", "--n-max", "4",
                "--property", "smp", "--seed", "11", "--realize-lists", "--json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_realize_json_byte_identical(self, workdir, capsys):
        argv = ["realize", workdir / "c4twist.mat", "--graph", workdir / "c4.graph",
                "--target-mlist", "1 1 2", "--json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestToleranceFlags:
    def test_flag_overrides_recorded(self, workdir, capsys):
        code, out, _ = run(
            capsys,
            ["verify", workdir / "ex15.mat", "--property", "nssp",
             "--rank-tol", "1e-7", "--json"],
        )
        doc = json.loads(out)
        assert doc["tolerances"]["rank_tol"] == 1e-7

    def test_env_var_profile(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("STRONGPROPS_TOLERANCES", "rank_tol=1e-9, max_iter=40")
        code, out, _ = run(
            capsys, ["verify", workdir / "ex15.mat", "--property", "nssp", "--json"]
        )
        doc = json.loads(out)
        assert doc["tolerances"]["rank_tol"] == 1e-9
        assert doc["tolerances"]["max_iter"] == 40

    def test_malformed_env_var(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("STRONGPROPS_TOLERANCES", "bogus")
        code, _, err = run(
            capsys, ["verify", workdir / "ex15.mat", "--property", "nssp"]
        )
        assert code == 2

    @pytest.mark.parametrize("entry", ["max_iter=abc", "max_iter=inf", "rank_tol=x"])
    def test_unparsable_env_var_value(self, workdir, capsys, monkeypatch, entry):
        monkeypatch.setenv("STRONGPROPS_TOLERANCES", entry)
        code, _, err = run(
            capsys, ["verify", workdir / "ex15.mat", "--property", "nssp"]
        )
        assert code == 2
        assert "STRONGPROPS_TOLERANCES" in err
