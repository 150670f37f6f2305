import json

import numpy as np
import pytest

from raysym import random_unitary, reconstruct, induced_map, SymmetryOperator
from raysym.cli import UsageError, load_operator_file, main, parse_samples

from conftest import write_operator_file

DIAG_121 = np.diag([1.0, 2.0, 1.0])
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def identity_file(tmp_path):
    return write_operator_file(tmp_path / "identity.json", np.eye(2), "unitary")


@pytest.fixture
def anti_identity_file(tmp_path):
    return write_operator_file(tmp_path / "anti.json", np.eye(2), "antiunitary")


@pytest.fixture
def diag_file(tmp_path):
    return write_operator_file(tmp_path / "diag.json", DIAG_121, "general")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(out, key):
    rows = [line.split("\t")[1:] for line in out.splitlines() if line.startswith(key + "\t")]
    assert rows, f"no {key!r} lines in output"
    return rows


class TestLoadOperatorFile:
    def test_round_trips_a_unitary(self, tmp_path):
        u = random_unitary(3, seed=5)
        op = load_operator_file(write_operator_file(tmp_path / "u.json", u, "unitary"))
        assert np.allclose(op.matrix, u, atol=1e-15)
        assert not op.antiunitary

    def test_antiunitary_kind_sets_the_flag(self, anti_identity_file):
        assert load_operator_file(anti_identity_file).antiunitary

    def test_general_conjugate_first(self, tmp_path):
        path = write_operator_file(tmp_path / "g.json", np.eye(2), "general", conjugate_first=True)
        assert load_operator_file(path).antiunitary

    @pytest.mark.parametrize(
        "mutate, named_field",
        [
            (lambda d: d.update(dim=1), "dim"),
            (lambda d: d.update(dim="2"), "dim"),
            (lambda d: d.update(kind="hermitian"), "kind"),
            (lambda d: d.pop("matrix"), "matrix"),
            (lambda d: d.update(matrix=d["matrix"][:1]), "matrix"),
            (lambda d: d["matrix"][0].__setitem__(0, [1.0]), "matrix"),
            (lambda d: d["matrix"][0].__setitem__(0, [1.0, "x"]), "matrix"),
            (lambda d: d.update(extra=1), "extra"),
            (lambda d: d.update(conjugate_first=True), "conjugate_first"),
        ],
    )
    def test_malformed_files_name_the_field(self, tmp_path, mutate, named_field):
        data = {
            "dim": 2,
            "kind": "unitary",
            "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        mutate(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        from raysym import OperatorFileError

        with pytest.raises(OperatorFileError) as info:
            load_operator_file(str(path))
        assert named_field in str(info.value)

    def test_non_unitary_matrix_declared_unitary_is_rejected(self, tmp_path):
        from raysym import OperatorFileError

        path = write_operator_file(tmp_path / "bad.json", DIAG_121, "unitary")
        with pytest.raises(OperatorFileError, match="unitary"):
            load_operator_file(path)

    def test_invalid_json_is_rejected(self, tmp_path):
        from raysym import OperatorFileError

        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(OperatorFileError, match="JSON"):
            load_operator_file(str(path))


class TestParseSamples:
    def test_accepts_i_notation(self):
        assert parse_samples("1,i") == (1.0 + 0.0j, 1.0j)
        assert parse_samples("1+i, -i, 0.5-0.25i") == (1.0 + 1.0j, -1.0j, 0.5 - 0.25j)

    def test_accepts_j_notation(self):
        assert parse_samples("2j,1-1j") == (2.0j, 1.0 - 1.0j)

    @pytest.mark.parametrize("bad", ["", "1,,2", "xyz", "nan"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(UsageError):
            parse_samples(bad)


class TestReconstructCommand:
    def test_identity(self, capsys, identity_file):
        code, out, _ = run_cli(capsys, "reconstruct", identity_file)
        assert code == 0
        assert grab(out, "kind") == [["identity-automorphism"]]
        assert grab(out, "antiunitary") == [["false"]]
        assert grab(out, "status") == [["unitary-valid"]]

    def test_antiunitary_identity(self, capsys, anti_identity_file):
        code, out, _ = run_cli(capsys, "reconstruct", anti_identity_file)
        assert code == 0
        assert grab(out, "kind") == [["conjugation-automorphism"]]
        assert grab(out, "antiunitary") == [["true"]]

    def test_diagonal_general_is_diagnostic_only(self, capsys, diag_file):
        code, out, _ = run_cli(capsys, "reconstruct", diag_file)
        assert code == 2
        assert grab(out, "status") == [["diagnostic-only"]]
        scales = [float(row[1]) for row in grab(out, "scale")]
        assert scales == pytest.approx([1.0, 2.0, 1.0], abs=1e-12)

    def test_matrix_entries_round_trip_exactly(self, capsys, tmp_path):
        u = random_unitary(3, seed=8)
        path = write_operator_file(tmp_path / "u.json", u, "unitary")
        code, out, _ = run_cli(capsys, "reconstruct", path)
        assert code == 0
        expected = reconstruct(induced_map(SymmetryOperator(u)), 3).operator.matrix
        parsed = np.zeros((3, 3), dtype=complex)
        for i, j, re, im in grab(out, "matrix"):
            parsed[int(i) - 1, int(j) - 1] = complex(float(re), float(im))
        assert np.array_equal(parsed, expected)

    def test_pipeline_error_exits_1_and_names_the_stage(self, capsys, tmp_path):
        path = write_operator_file(tmp_path / "shear.json", SHEAR, "general")
        code, out, err = run_cli(capsys, "reconstruct", path)
        assert code == 1
        assert out == ""
        assert "map_basis" in err

    def test_missing_file_exits_64(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "reconstruct", str(tmp_path / "absent.json"))
        assert code == 64
        assert "error" in err

    def test_dimension_one_file_exits_64(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"dim": 1, "kind": "unitary", "matrix": [[[1.0, 0.0]]]}))
        code, _, err = run_cli(capsys, "reconstruct", str(path))
        assert code == 64
        assert "dimension must be at least 2" in err

    def test_out_of_range_tolerance_exits_64(self, capsys, identity_file):
        code, _, err = run_cli(capsys, "reconstruct", identity_file, "--tol-recon", "0.5")
        assert code == 64
        assert "recon_tol" in err


class TestConformanceCommand:
    def test_random_unitary_passes(self, capsys, tmp_path):
        path = write_operator_file(tmp_path / "u.json", random_unitary(4, seed=7), "unitary")
        code, out, _ = run_cli(capsys, "conformance", path, "--seed", "7")
        assert code == 0
        assert grab(out, "overall") == [["pass"]]
        checks = grab(out, "check")
        assert len(checks) == 7
        assert all(row[1] == "pass" for row in checks)

    def test_diag_general_fails(self, capsys, diag_file):
        code, out, _ = run_cli(capsys, "conformance", diag_file)
        assert code == 1
        assert grab(out, "overall") == [["fail"]]
        failing = {row[0] for row in grab(out, "check") if row[1] == "fail"}
        assert "orthogonality-preservation" in failing
        assert "ray-function-invariance" in failing

    def test_perturbed_unitary_fails_with_named_checks(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        noise = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
        a = random_unitary(3, seed=9) + 0.05 * noise
        path = write_operator_file(tmp_path / "p.json", a, "general")
        code, out, _ = run_cli(capsys, "conformance", path)
        assert code == 1
        failing = {row[0] for row in grab(out, "check") if row[1] == "fail"}
        assert "orthogonality-preservation" in failing or "ray-function-invariance" in failing

    def test_tol_recon_bounds_the_basis_gram_defect(self, capsys, tmp_path):
        path = write_operator_file(tmp_path / "s.json", np.eye(3) + 1e-6 * np.eye(3, k=1), "general")
        statuses = []
        for flags in ([], ["--tol-recon", "1e-4"]):
            code, out, _ = run_cli(capsys, "conformance", path, "--trials", "20", *flags)
            assert code == 1
            entry = next(row for row in grab(out, "check") if row[0] == "basis-completeness")
            statuses.append(entry[1])
        assert statuses == ["fail", "pass"]

    def test_trials_flag_is_recorded(self, capsys, identity_file):
        code, out, _ = run_cli(capsys, "conformance", identity_file, "--trials", "25")
        assert code == 0
        orth = next(row for row in grab(out, "check") if row[0] == "orthogonality-preservation")
        assert orth[3] == "25"

    def test_bad_trials_exits_64(self, capsys, identity_file):
        code, _, err = run_cli(capsys, "conformance", identity_file, "--trials", "0")
        assert code == 64
        assert "--trials" in err


class TestProbeCommand:
    def test_conjugation_rows(self, capsys, anti_identity_file):
        code, out, _ = run_cli(capsys, "probe", anti_identity_file, "--samples", "1,i")
        assert code == 0
        rows = [tuple(map(float, row)) for row in grab(out, "probe")]
        assert rows[0] == pytest.approx((1.0, 0.0, 1.0, 0.0), abs=1e-12)
        assert rows[1] == pytest.approx((0.0, 1.0, 0.0, -1.0), abs=1e-12)

    def test_identity_default_grid(self, capsys, identity_file):
        code, out, _ = run_cli(capsys, "probe", identity_file)
        assert code == 0
        rows = [tuple(map(float, row)) for row in grab(out, "probe")]
        assert len(rows) == 12
        for z_re, z_im, f_re, f_im in rows:
            assert (f_re, f_im) == pytest.approx((z_re, z_im), abs=1e-12)
        assert float(grab(out, "additivity-residual")[0][0]) <= 1e-12
        assert float(grab(out, "multiplicativity-residual")[0][0]) <= 1e-12

    def test_haar_unitary_probes_to_identity(self, capsys, tmp_path):
        path = write_operator_file(tmp_path / "u.json", random_unitary(5, seed=13), "unitary")
        code, out, _ = run_cli(capsys, "probe", path, "--index", "4")
        assert code == 0
        for z_re, z_im, f_re, f_im in (tuple(map(float, row)) for row in grab(out, "probe")):
            assert (f_re, f_im) == pytest.approx((z_re, z_im), abs=1e-10)

    def test_index_below_two_exits_64(self, capsys, identity_file):
        code, _, err = run_cli(capsys, "probe", identity_file, "--index", "1")
        assert code == 64
        assert "--index" in err

    def test_index_above_dimension_exits_64(self, capsys, identity_file):
        code, _, err = run_cli(capsys, "probe", identity_file, "--index", "3")
        assert code == 64
        assert "--index" in err

    def test_bad_samples_exit_64(self, capsys, identity_file):
        code, _, err = run_cli(capsys, "probe", identity_file, "--samples", "1,bogus")
        assert code == 64
        assert "--samples" in err


class TestUsage:
    def test_unknown_subcommand_exits_64(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 64
        assert "error" in err

    def test_missing_input_exits_64(self, capsys):
        code, _, _ = run_cli(capsys, "reconstruct")
        assert code == 64


class TestByteStability:
    @pytest.mark.parametrize("command", ["reconstruct", "conformance"])
    @pytest.mark.parametrize("fixture", ["identity", "anti", "diag"])
    def test_two_runs_are_byte_identical(self, capsys, tmp_path, command, fixture):
        if fixture == "identity":
            path = write_operator_file(tmp_path / "f.json", np.eye(2), "unitary")
        elif fixture == "anti":
            path = write_operator_file(tmp_path / "f.json", np.eye(2), "antiunitary")
        else:
            path = write_operator_file(tmp_path / "f.json", DIAG_121, "general")
        code_a, out_a, _ = run_cli(capsys, command, path)
        code_b, out_b, _ = run_cli(capsys, command, path)
        assert code_a == code_b
        assert out_a.encode() == out_b.encode()
