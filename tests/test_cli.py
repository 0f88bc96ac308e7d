"""Command-line interface: exit codes, JSON schemas, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import posred
from posred import reachable_subspace
from posred.cli import main
from conftest import cascade_system, spurious_mode_pair, stubborn_span, swap_system


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def write_system(path, S):
    return write_json(path, {"A": S.A.tolist(), "B": S.B.tolist(),
                             "C": S.C.tolist(), "time_domain": S.time_domain})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_cascade_minimal(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", cascade_system())
        code, out, _ = run(capsys, "reduce", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["method"] == "minimal"
        assert report["reduced_dim"] == 2
        assert report["space"] == "reachable"
        assert report["verification"]["markov_match"] is True
        np.testing.assert_allclose(report["reduced_system"]["A"],
                                   [[1.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_swap_forced_algebraic(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", swap_system(1.0))
        code, out, _ = run(capsys, "reduce", "--input", path, "--force-algebraic")
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "algebraic"
        assert report["reduced_dim"] == 3
        np.testing.assert_allclose(report["reduced_system"]["B"],
                                   [[0.0], [1.0], [1.0]], atol=1e-12)

    def test_observable_space_flag(self, tmp_path, capsys):
        S = swap_system(1.0).transpose()
        path = write_system(tmp_path / "s.json", S)
        code, out, _ = run(capsys, "reduce", "--input", path, "--space", "observable")
        assert code == 0
        assert json.loads(out)["space"] == "observable"

    def test_negative_entry_exits_one(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json",
                          {"A": [[1.0, -1.0], [0.0, 1.0]], "B": [[1.0], [1.0]]})
        code, _, err = run(capsys, "reduce", "--input", path)
        assert code == 1
        assert "system is not positive" in err

    def test_no_reduction_exits_three(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json",
                          {"A": np.zeros((4, 4)).tolist(), "B": stubborn_span().tolist()})
        code, out, _ = run(capsys, "reduce", "--input", path)
        assert code == 3
        assert json.loads(out)["method"] == "none"

    def test_unknown_flag_is_a_usage_error(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", cascade_system())
        for command, flag in (("reduce", "--budget"), ("factorize", "--budget"),
                              ("perturb", "--budget"), ("perturb", "--jobs"),
                              ("reduce", "--seed"), ("algebra", "--seed")):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--input", path, flag, "1"])
            assert exit_info.value.code == 2

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "reduce", "--input", str(path))
        assert code == 1

    def test_output_file_and_text_format(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", cascade_system())
        out_path = tmp_path / "report.txt"
        code, _, _ = run(capsys, "reduce", "--input", path,
                         "--output", str(out_path), "--format", "text")
        assert code == 0
        assert "method" in out_path.read_text()


class TestMonotone:
    def test_identity(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", np.eye(3).tolist())
        code, out, _ = run(capsys, "monotone", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["monotone"] is True
        assert report["method"] == "nonneg-shortcut"

    def test_tower_block_left_inverse(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json",
                          [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        code, out, _ = run(capsys, "monotone", "--input", path)
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(report["left_inverse"],
                                   [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        assert report["orthogonal_rows"] == [0, 1]

    def test_shear_not_monotone(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", [[1.0, 0.0], [1.0, 1.0]])
        code, out, _ = run(capsys, "monotone", "--input", path)
        assert code == 3
        assert json.loads(out)["monotone"] is False

    def test_mixed_sign_uses_general_oracle(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", [[2.0, -1.0], [-1.0, 2.0]])
        code, out, _ = run(capsys, "monotone", "--input", path)
        report = json.loads(out)
        assert report["method"] == "general-oracle"
        assert code == 0 and report["monotone"] is True  # inverse is non-negative


class TestFactorize:
    def test_found(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json",
                          [[1.0, 2.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        code, out, _ = run(capsys, "factorize", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["found"] is True
        assert report["pivot_rows"] == [0, 1]

    def test_absent(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", stubborn_span().tolist())
        code, out, _ = run(capsys, "factorize", "--input", path)
        assert code == 3
        assert json.loads(out)["found"] is False

    def test_zero_matrix_is_an_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", [[0.0], [0.0]])
        code, _, err = run(capsys, "factorize", "--input", path)
        assert code == 1


class TestAlgebra:
    def test_swap_reachable_closure(self, tmp_path, capsys):
        basis = reachable_subspace(swap_system(1.0))
        path = write_json(tmp_path / "m.json", np.asarray(basis.basis).tolist())
        code, out, _ = run(capsys, "algebra", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["algebra_dim"] == 3
        assert report["is_algebra"] is False
        assert report["blocks"] == [[0], [1], [2, 3]]
        np.testing.assert_allclose(report["p"], [1.0, 1.0, 2.0, 2.0])

    def test_nearly_parallel_columns_give_the_whole_space(self, tmp_path, capsys):
        # Columns within 1e-9 of each other in every state still span a
        # plane that separates all three states.
        path = write_json(tmp_path / "m.json",
                          [[1.0, 1.0], [1.0 + 1e-9, 1.0 - 1e-9], [1.0, 1.0 + 1e-9]])
        code, out, _ = run(capsys, "algebra", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["subspace_dim"] == 2
        assert report["algebra_dim"] == 3
        assert report["blocks"] == [[0], [1], [2]]


class TestVerify:
    def test_reduction_verifies(self, tmp_path, capsys):
        original = write_system(tmp_path / "orig.json", swap_system(1.0))
        code, out, _ = run(capsys, "reduce", "--input", original)
        assert code == 0
        reduced = write_json(tmp_path / "red.json", json.loads(out)["reduced_system"])
        code, out, _ = run(capsys, "verify", original, reduced)
        assert code == 0
        assert json.loads(out)["markov_match"] is True

    def test_self_against_self(self, tmp_path, capsys):
        original = write_system(tmp_path / "orig.json", cascade_system())
        code, _, _ = run(capsys, "verify", original, original)
        assert code == 0

    def test_bumped_entry_fails(self, tmp_path, capsys):
        original = write_system(tmp_path / "orig.json", swap_system(1.0))
        code, out, _ = run(capsys, "reduce", "--input", original)
        payload = json.loads(out)["reduced_system"]
        payload["B"][0][0] += 0.1  # breaks the k = 0 coefficient
        reduced = write_json(tmp_path / "red.json", payload)
        code, out, _ = run(capsys, "verify", original, reduced)
        assert code == 3
        assert json.loads(out)["markov_match"] is False

    def test_large_exact_reduction_verifies(self, tmp_path, capsys):
        S = posred.generate_system(posred.GeneratorSpec(150, 2, 2, 75, 0.6, 0))
        original = write_system(tmp_path / "orig.json", S)
        reduced = write_system(tmp_path / "red.json", posred.rpmr_reachable(S).reduced_system)
        code, out, _ = run(capsys, "verify", original, reduced)
        assert code == 0
        assert json.loads(out)["horizon"] == 225

    def test_spurious_decaying_mode_fails(self, tmp_path, capsys):
        S, spurious = spurious_mode_pair()
        original = write_system(tmp_path / "orig.json", S)
        reduced = write_system(tmp_path / "red.json", spurious)
        code, out, _ = run(capsys, "verify", original, reduced)
        assert code == 3
        assert json.loads(out)["markov_match"] is False

    def test_negative_reduced_file_fails_positivity(self, tmp_path, capsys):
        original = write_system(tmp_path / "orig.json", cascade_system())
        reduced = write_json(tmp_path / "red.json",
                             {"A": [[0.0, 1.0], [1.0, 1.0]], "B": [[1.0], [-0.2]],
                              "C": [[1.0, 0.0], [0.0, 1.0],
                                    [0.0, 0.0], [0.0, 0.0]]})
        code, out, _ = run(capsys, "verify", original, reduced)
        assert code == 3
        assert json.loads(out)["positivity"] is False

    def test_negative_horizon_is_an_input_error(self, tmp_path, capsys):
        original = write_system(tmp_path / "orig.json", cascade_system())
        assert_input_error(run(capsys, "verify", original, original, "--horizon", "-1"))


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        args = ["gen", "--n", "5", "--inputs", "2", "--reachable-dim", "3",
                "--density", "0.8", "--seed", "42"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_planted_dimension_bound(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "--n", "6", "--reachable-dim", "2",
                           "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        from posred import PositiveLtiSystem
        S = PositiveLtiSystem(payload["A"], payload["B"], payload["C"])
        assert reachable_subspace(S).dimension <= 2

    def test_full_density_has_no_extra_zeros(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "4", "--seed", "1", "--density", "1")
        payload = json.loads(out)
        assert (np.array(payload["A"]) > 0).all()

    def test_inconsistent_spec(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "3", "--reachable-dim", "5")
        assert code == 1

    def test_round_trip_bit_exact(self, capsys):
        # Parse then re-serialize: every float must survive bit-exactly.
        from posred import PositiveLtiSystem
        from posred.cli import _raw_system, _system_payload
        code, out, _ = run(capsys, "gen", "--n", "4", "--seed", "9", "--density", "0.7")
        payload = json.loads(out)
        A, B, C, time_domain = _raw_system(payload)
        assert _system_payload(PositiveLtiSystem(A, B, C, time_domain)) == payload


def assert_input_error(outcome):
    code, _, err = outcome
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


class TestPerturb:
    def test_negative_count_is_an_input_error(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", cascade_system())
        assert_input_error(run(capsys, "perturb", "--input", path, "--count", "-1"))

    def test_negative_or_non_finite_delta_is_an_input_error(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", cascade_system())
        for delta in ("-2", "nan", "inf"):
            assert_input_error(run(capsys, "perturb", "--input", path, "--delta", delta))

    def test_cascade_rates(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", cascade_system())
        code, out, _ = run(capsys, "perturb", "--input", path, "--delta", "0.1",
                           "--count", "100", "--seed", "5")
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 100
        assert report["robust_positive_rate"] == 1.0
        assert report["equivalent_rate"] == 1.0
        assert report["naive_positive_rate"] < 1.0

    def test_zero_delta_keeps_everything_positive(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", cascade_system())
        code, out, _ = run(capsys, "perturb", "--input", path, "--delta", "0",
                           "--count", "10", "--seed", "5")
        report = json.loads(out)
        assert report["naive_positive_rate"] == 1.0
        assert report["robust_positive_rate"] == 1.0

    def test_zero_count(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", cascade_system())
        code, out, _ = run(capsys, "perturb", "--input", path, "--count", "0")
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 0 and report["records"] == []
        assert (report["naive_positive_rate"] == report["robust_positive_rate"]
                == report["equivalent_rate"] == 0.0)

    def test_huge_delta_is_compared_without_overflow(self, tmp_path, capsys):
        # At --delta 1e200 the perturbed B and C reach about 1e200, so
        # their raw Markov coefficients overflow; the records are those of
        # --delta 1e150 and nothing is printed to stderr.
        path = str(tmp_path / "s.json")
        assert main(["gen", "--n", "8", "--inputs", "2", "--outputs", "2",
                     "--reachable-dim", "4", "--density", "0.6", "--seed", "3",
                     "--output", path]) == 0
        records = {}
        for delta in ("1e150", "1e200"):
            code, out, err = run(capsys, "perturb", "--input", path, "--count", "20",
                                 "--delta", delta)
            assert code == 0 and err == ""
            records[delta] = json.loads(out)["records"]
        assert records["1e200"] == records["1e150"]
        assert all(r["robust_positive"] and r["equivalent"] for r in records["1e200"])

    def test_algebraic_robust_factors(self, tmp_path, capsys):
        # Five rows in the cone of four extreme rays: no minimal factors,
        # but the repeated last row keeps the algebra at four dimensions.
        B = np.vstack([stubborn_span(), stubborn_span()[-1:]])
        path = write_json(tmp_path / "s.json",
                          {"A": np.zeros((5, 5)).tolist(), "B": B.tolist()})
        code, out, _ = run(capsys, "perturb", "--input", path, "--count", "20")
        assert code == 0
        report = json.loads(out)
        assert report["robust_method"] == "algebraic"
        assert report["robust_positive_rate"] == 1.0

    def test_no_robust_reduction_exits_three(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json",
                          {"A": np.zeros((4, 4)).tolist(), "B": stubborn_span().tolist()})
        code, out, err = run(capsys, "perturb", "--input", path)
        assert code == 3
        assert out == ""
        assert "no robust reduction exists" in err

    def test_already_reachable_exits_three(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json",
                          {"A": [[0.0, 1.0], [1.0, 0.0]], "B": [[1.0], [0.0]]})
        code, _, err = run(capsys, "perturb", "--input", path)
        assert code == 3

    @pytest.mark.parametrize("system, seed, method, naive_bits", [
        ("cascade", "5", "minimal",
         "0010000000010000000010010000100010000010100001001010100000010001"
         "011110010100001100001000000000001000"),
        ("planted", "5", "minimal", "0" * 200),
    ])
    def test_exact_records(self, tmp_path, capsys, system, seed, method, naive_bits):
        # Every record is pinned, so each perturbation's noise stream (one
        # generator per seed drawn from --seed, A then B then C) is too.
        path = str(tmp_path / "s.json")
        if system == "cascade":
            write_system(tmp_path / "s.json", cascade_system())
        else:
            assert main(["gen", "--n", "8", "--inputs", "2", "--outputs", "2",
                         "--reachable-dim", "4", "--density", "0.6", "--seed", "3",
                         "--output", path]) == 0
        count = len(naive_bits)
        code, out, _ = run(capsys, "perturb", "--input", path, "--count", str(count),
                           "--seed", seed)
        assert code == 0
        records = [{"naive_positive": bit == "1", "robust_positive": True,
                    "equivalent": True} for bit in naive_bits]
        assert json.loads(out) == {
            "schema_version": 1, "count": count, "delta": 0.1, "robust_method": method,
            "naive_positive_rate": naive_bits.count("1") / count,
            "robust_positive_rate": 1.0, "equivalent_rate": 1.0, "records": records}


def test_console_entry_point(tmp_path):
    path = tmp_path / "s.json"
    S = cascade_system()
    path.write_text(json.dumps({"A": S.A.tolist(), "B": S.B.tolist()}))
    # The child must import the posred under test, installed or not.
    package_root = str(Path(posred.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "posred", "reduce",
                           "--input", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["method"] == "minimal"


def test_benchmark_selftest_passes():
    # perfbench/ wraps the public API (choose_p, the rpmr entry points);
    # its self-test fails when a change to that API breaks the harness.
    repo_root = Path(__file__).resolve().parents[1]
    package_root = str(Path(posred.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(repo_root / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, env=env, cwd=repo_root)
    assert proc.returncode == 0, proc.stdout + proc.stderr
