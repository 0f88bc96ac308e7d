"""Command-line interface: exit codes, JSON schemas, determinism."""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import posred
from posred import PositiveLtiSystem, reachable_subspace
from posred.cli import _build_parser, main
from conftest import (cascade_system, lumped_system, spurious_mode_pair, stubborn_span,
                      swap_system)


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

    def test_observable_space_flag(self, tmp_path, capsys):
        S = swap_system(1.0).transpose()
        path = write_system(tmp_path / "s.json", S)
        code, out, _ = run(capsys, "reduce", "--input", path, "--space", "observable")
        assert code == 0
        assert json.loads(out)["space"] == "observable"

    def test_observable_space_keeps_the_sign_tolerance(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", {"A": [[1.0, 0.0], [-5e-7, 1.0]],
                                                "B": [[1.0], [1.0]], "C": [[1.0, 0.0]]})
        code, out, _ = run(capsys, "reduce", "--input", path, "--space", "observable",
                           "--tol", "1e-5")  # sign tolerance 1e-6
        assert code == 0
        assert json.loads(out)["reduced_dim"] == 1

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
        # Output is JSON only, and the algebraic route has no flag of its own.
        for command in ("reduce", "monotone", "factorize", "algebra", "perturb"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--input", path, "--format", "json"])
            assert exit_info.value.code == 2
        for argv in (["verify", path, path, "--format", "json"],
                     ["gen", "--n", "3", "--format", "json"],
                     ["reduce", "--input", path, "--force-algebraic"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
        # verify compares up to n1 + n2 itself and takes no --horizon.
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", path, path, "--horizon", "3"])
        assert exit_info.value.code == 2
        # --tol is the one tolerance; the rank and sign tolerances follow it.
        for command in ("reduce", "monotone", "factorize", "algebra", "verify", "perturb"):
            inputs = [path, path] if command == "verify" else ["--input", path]
            for flag in ("--rank-tol", "--nonneg-tol"):
                with pytest.raises(SystemExit) as exit_info:
                    main([command, *inputs, flag, "1e-9"])
                assert exit_info.value.code == 2

    def test_option_set_of_every_subcommand(self):
        # Positional arguments by name, options by flag; --help aside.
        subcommands = next(action.choices for action in _build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        options = {name: {action.option_strings[-1] if action.option_strings else action.dest
                          for action in parser._actions
                          if not isinstance(action, argparse._HelpAction)}
                   for name, parser in subcommands.items()}
        io = {"--input", "--output", "--tol"}
        assert options == {
            "reduce": io | {"--space"},
            "monotone": io,
            "factorize": io,
            "algebra": io,
            "verify": {"original", "reduced", "--output", "--tol"},
            "gen": {"--output", "--n", "--inputs", "--outputs", "--reachable-dim",
                    "--density", "--seed"},
            "perturb": io | {"--delta", "--count", "--seed"},
        }
        assert sum(map(len, options.values())) == 30

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "reduce", "--input", str(path))
        assert code == 1

    def test_output_file(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", cascade_system())
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "reduce", "--input", path, "--output", str(out_path))
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert (report["method"], report["reduced_dim"]) == ("minimal", 2)


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

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-5, 1.0, 1e20])
    def test_shortcut_verdict_does_not_depend_on_scale(self, tmp_path, capsys, scale):
        # The support was taken against the absolute nonneg_tol, so at
        # 1e-9 and below no entry counted and the answer was "false".
        X = scale * np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        path = write_json(tmp_path / "m.json", X.tolist())
        code, out, _ = run(capsys, "monotone", "--input", path)
        report = json.loads(out)
        assert (code, report["monotone"], report["method"]) == (0, True, "nonneg-shortcut")
        assert report["orthogonal_rows"] == [0, 2]
        np.testing.assert_allclose(np.array(report["left_inverse"]) @ X, np.eye(2))

    def test_small_row_beside_a_large_one_is_monotone(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", [[1e3, 0.0], [0.0, 5e-7]])
        code, out, _ = run(capsys, "monotone", "--input", path)
        report = json.loads(out)
        assert (code, report["monotone"], report["method"]) == (0, True, "nonneg-shortcut")
        assert report["orthogonal_rows"] == [0, 1]
        np.testing.assert_allclose(report["left_inverse"], np.diag([1e-3, 2e6]))

    @pytest.mark.parametrize("s", [1e-11, 1e-13, 1e-15])
    def test_badly_scaled_diagonal_takes_the_shortcut(self, tmp_path, capsys, s):
        # The monomial rows decide diag(1, s) at any s; the oracle's
        # absolute gradient floor stops at x = 0 on diag(1, 1e-15).
        path = write_json(tmp_path / "m.json", [[1.0, 0.0], [0.0, s]])
        code, out, _ = run(capsys, "monotone", "--input", path)
        report = json.loads(out)
        assert (code, report["monotone"], report["method"]) == (0, True, "nonneg-shortcut")
        np.testing.assert_allclose(report["left_inverse"], np.diag([1.0, 1.0 / s]))

    def test_small_negative_block_goes_to_general_oracle(self, tmp_path, capsys):
        X = np.zeros((4, 4))
        X[0, 0] = 1e3
        X[1:, 1:] = -9.9e-7
        X[[1, 2, 3], [1, 2, 3]] = 1.01e-6
        path = write_json(tmp_path / "m.json", X.tolist())
        code, out, _ = run(capsys, "monotone", "--input", path)
        report = json.loads(out)
        assert (code, report["monotone"], report["method"]) == (3, False, "general-oracle")

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

    def test_huge_entries_factor_like_unit_ones(self, tmp_path, capsys):
        # The row norms of this basis overflowed, and numpy's LinAlgError
        # escaped as a traceback.
        path = write_json(tmp_path / "m.json", [[1e200, 1e200], [1e200, -1e200]])
        code, out, err = run(capsys, "factorize", "--input", path)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["found"] is True
        assert report["J"] == report["Jdag"] == [[1.0, 0.0], [0.0, 1.0]]


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

    def test_span_with_no_positive_vector_is_a_negative_result(self, tmp_path, capsys):
        # No vector of span{(1, -1)} is strictly positive on its support:
        # factorize finds no factors and algebra has no reference vector,
        # and both exit 3.
        path = write_json(tmp_path / "m.json", [[1.0], [-1.0]])
        code, out, err = run(capsys, "factorize", "--input", path)
        assert (code, err, json.loads(out)["found"]) == (3, "", False)
        code, out, err = run(capsys, "algebra", "--input", path)
        assert (code, out) == (3, "")
        assert err == ("error: no vector of the span is strictly positive on the "
                       "subspace support\n")


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

    def test_infinite_tolerance_is_an_input_error(self, tmp_path, capsys):
        first = write_system(tmp_path / "a.json", posred.generate_system(posred.GeneratorSpec(4)))
        second = write_system(tmp_path / "b.json",
                              posred.generate_system(posred.GeneratorSpec(4, seed=1)))
        assert_input_error(run(capsys, "verify", first, second, "--tol", "inf"))

    @pytest.mark.parametrize("space", ["reachable", "observable"])
    def test_order_zero_reduction_reads_back(self, tmp_path, capsys, space):
        # A zero input map (reachable) or output map (observable) reduces
        # to order 0, written as A = [], B = [] and C = [[]]; the reader
        # takes the missing column counts from the shapes they must have.
        B, C = (np.zeros((2, 2)), np.ones((1, 2))) if space == "reachable" else \
            (np.ones((2, 2)), np.zeros((1, 2)))
        original = write_json(tmp_path / "z.json", {"A": [[1.0, 0.5], [0.0, 1.0]],
                                                    "B": B.tolist(), "C": C.tolist()})
        code, out, _ = run(capsys, "reduce", "--input", original, "--space", space)
        assert code == 0
        payload = json.loads(out)["reduced_system"]
        assert payload["A"] == payload["B"] == [] and payload["C"] == [[]]
        reduced = write_json(tmp_path / "red.json", payload)
        code, out, err = run(capsys, "verify", original, reduced)
        assert (code, err) == (0, "")
        assert json.loads(out)["markov_match"] is True
        # The order-0 file is a system too: reduce reports, perturb refuses.
        for other_space in ("reachable", "observable"):
            code, out, _ = run(capsys, "reduce", "--input", reduced, "--space", other_space)
            assert code == 0 and json.loads(out)["reduced_dim"] == 0
        code, out, err = run(capsys, "perturb", "--input", reduced)
        assert code == 3 and out == "" and err.count("\n") == 1 and err.startswith("error:")

    def test_wrong_row_count_of_reduced_b_is_an_input_error(self, tmp_path, capsys):
        original = write_system(tmp_path / "orig.json", swap_system(1.0))
        code, out, _ = run(capsys, "reduce", "--input", original)
        payload = json.loads(out)["reduced_system"]
        payload["B"].append(payload["B"][0])
        reduced = write_json(tmp_path / "red.json", payload)
        assert_input_error(run(capsys, "verify", original, reduced))


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

    def test_negative_seed_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "gen", "--n", "4", "--seed", "-1")
        assert (code, out, err) == (1, "", "error: seed must be non-negative\n")

    def test_round_trip_bit_exact(self, capsys):
        # Parse then re-serialize: every float must survive bit-exactly.
        from posred import PositiveLtiSystem
        from posred.cli import _raw_system, _system_payload
        code, out, _ = run(capsys, "gen", "--n", "4", "--seed", "9", "--density", "0.7")
        payload = json.loads(out)
        A, B, C, time_domain = _raw_system(payload)
        assert _system_payload(PositiveLtiSystem(A, B, C, time_domain)) == payload

    def test_tolerance_flags_are_usage_errors(self, capsys):
        # A generated system is non-negative by construction; gen reads no tolerance.
        for flag in ("--tol", "--rank-tol", "--nonneg-tol"):
            with pytest.raises(SystemExit) as exit_info:
                main(["gen", "--n", "2", flag, "1e-6"])
            assert exit_info.value.code == 2


class TestMalformedInput:
    """Unreadable or malformed input, and an unwritable --output, give one
    error line and exit 1."""

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"A": [[1.0]], "B": [[1.0]], "time_domain": "\xe9"}')
        assert_input_error(run(capsys, "reduce", "--input", str(path)))

    def test_deeply_nested_array(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 3000 + "]" * 3000)
        assert_input_error(run(capsys, "factorize", "--input", str(path)))
        path.write_text('{"A": ' + "[" * 3000 + "]" * 3000 + ', "B": [[1.0]]}')
        assert_input_error(run(capsys, "reduce", "--input", str(path)))

    def test_integer_too_large_for_a_float(self, tmp_path, capsys):
        huge = "1" + "0" * 400
        system = tmp_path / "s.json"
        system.write_text('{"A": [[' + huge + ']], "B": [[1.0]]}')
        assert_input_error(run(capsys, "reduce", "--input", str(system)))
        matrix = tmp_path / "m.json"
        matrix.write_text("[[" + huge + ", 0.0]]")
        assert_input_error(run(capsys, "factorize", "--input", str(matrix)))

    @pytest.mark.parametrize("payload", [[[1.0]], {"A": [[1.0]]}, {"B": [[1.0]]}])
    def test_system_file_needs_an_object_with_keys_a_and_b(self, tmp_path, capsys, payload):
        path = write_json(tmp_path / "s.json", payload)
        outcome = run(capsys, "reduce", "--input", path)
        assert_input_error(outcome)
        assert "keys A and B" in outcome[2]

    def test_unknown_time_domain(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json",
                          {"A": [[1.0]], "B": [[1.0]], "time_domain": "hybrid"})
        outcome = run(capsys, "reduce", "--input", path)
        assert_input_error(outcome)
        assert "time_domain must be one of" in outcome[2]

    def test_output_into_a_missing_directory(self, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "out.json")
        assert_input_error(run(capsys, "gen", "--n", "2", "--output", missing))
        path = write_system(tmp_path / "s.json", cascade_system())
        assert_input_error(run(capsys, "reduce", "--input", path, "--output", missing))


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

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", cascade_system())
        code, out, err = run(capsys, "perturb", "--input", path, "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: --seed must be finite and non-negative\n"

    def test_zero_input_map_exits_three(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", {"A": [[1.0, 0.5], [0.0, 1.0]],
                                                "B": [[0.0], [0.0]]})
        code, out, err = run(capsys, "perturb", "--input", path)
        assert (code, out) == (3, "")
        assert err == "error: input map is zero; nothing to reduce or perturb\n"

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

    def test_ill_conditioned_basis_gives_a_naive_pair(self, tmp_path, capsys):
        # The reachable basis [B, AB] has nearly parallel columns (condition
        # about 4e6); its pseudo-inverse is accurate, so the naive pair exists.
        path = write_json(tmp_path / "s.json", {"A": [[1, 0, 0], [0, 1.000001, 0], [0, 0, 1]],
                                                "B": [[1], [1], [0]], "C": [[1, 1, 1]]})
        code, out, _ = run(capsys, "reduce", "--input", path)
        report = json.loads(out)
        assert (code, report["method"], report["reduced_dim"]) == (0, "minimal", 2)
        code, out, err = run(capsys, "perturb", "--input", path, "--count", "5", "--seed", "3")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["robust_positive_rate"] == 1.0
        assert report["naive_positive_rate"] < 1.0

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

    @pytest.mark.parametrize("system", ["cascade", "planted"])
    def test_overflowing_delta_is_an_input_error(self, tmp_path, capsys, system):
        # At --delta 1e308 the cascade's perturbed A (entries up to 3)
        # overflows; the planted system's entries stay below 1, so its
        # perturbed stack is finite, but the naive projection Jdag A J
        # overflows. Neither may give records or print a RuntimeWarning
        # (which the test settings would also turn into an exception).
        path = str(tmp_path / "s.json")
        if system == "cascade":
            write_system(tmp_path / "s.json", cascade_system())
        else:
            assert main(["gen", "--n", "8", "--inputs", "2", "--outputs", "2",
                         "--reachable-dim", "4", "--density", "0.6", "--seed", "3",
                         "--output", path]) == 0
        code, out, err = run(capsys, "perturb", "--input", path, "--count", "3",
                             "--delta", "1e308")
        assert_input_error((code, out, err))
        assert out == ""
        assert err.count("\n") == 1 and "--delta" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_input_maps_at_extreme_scales_give_records(self, tmp_path, capsys, scale):
        # The naive factors' left inverse came from a Gram matrix that
        # overflowed to a NaN inverse (1e160: exit 1 blaming --delta) or
        # underflowed to a singular one (1e-170: numpy's LinAlgError).
        S = posred.generate_system(posred.GeneratorSpec(n=6, inputs=1, outputs=1,
                                                        reachable_dim=3, density=0.8, seed=3))
        path = write_system(tmp_path / "s.json", PositiveLtiSystem(S.A, S.B * scale, S.C))
        code, out, err = run(capsys, "perturb", "--input", path, "--delta", "0.1",
                             "--count", "20")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["robust_method"] == "minimal"
        assert report["robust_positive_rate"] == report["equivalent_rate"] == 1.0

    def test_subnormal_input_map_is_blamed_on_the_left_inverse(self, tmp_path):
        # The naive left inverse of the basis [[1e-320], [0]] is 1e320,
        # not a double: the error names it, not --delta, and -W error
        # gives no traceback from the overflow in scaling it back.
        path = write_json(tmp_path / "s.json", {"A": [[1, 0], [0, 1]], "B": [[1e-320], [0]]})
        package_root = str(Path(posred.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "posred", "perturb",
                               "--input", path], capture_output=True, text=True, env=env)
        assert_input_error((proc.returncode, proc.stdout, proc.stderr))
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "left inverse" in proc.stderr
        assert "--delta" not in proc.stderr

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
        assert err.startswith("error: RPMR could not be performed: ")

    def test_already_reachable_exits_three(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json",
                          {"A": [[0.0, 1.0], [1.0, 0.0]], "B": [[1.0], [0.0]]})
        code, _, err = run(capsys, "perturb", "--input", path)
        assert code == 3
        assert "already reachable" in err

    @pytest.mark.parametrize("scale, reason", [
        (1e-9, "the projector of the algebra enlargement fails the exactness check"),
        (1e-12, "the reachable basis has no reference vector")])
    def test_failed_algebraic_route_names_its_reason(self, tmp_path, capsys, scale, reason):
        # The algebraic route fails on this scaled system (see the pipeline
        # test of the same systems); perturb names the failed check rather
        # than calling the system reachable.
        S = lumped_system(12, 6, 4, 0)
        path = write_system(tmp_path / "s.json", PositiveLtiSystem(S.A, S.B * scale, S.C))
        code, out, err = run(capsys, "reduce", "--input", path)
        assert code == 3
        assert json.loads(out)["method"] == "none"
        code, out, err = run(capsys, "perturb", "--input", path)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: RPMR could not be performed: {reason}")

    @pytest.mark.parametrize("system, seed, method, naive_bits", [
        ("cascade", "5", "minimal",
         "0010101000101010000100000000000011001100100000100000101100100001"
         "100000001000000010010100000100001010"),
        ("planted", "5", "minimal", "0" * 200),
    ])
    def test_exact_records(self, tmp_path, capsys, system, seed, method, naive_bits):
        # Every record is pinned, so the noise stream is too: one generator
        # seeded with --seed draws A's noise for every perturbation, then
        # B's, then C's.
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
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "posred", "reduce",
                           "--input", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["method"] == "minimal"


def test_import_does_not_load_numpy_random():
    # numpy.random costs about 13 ms of start-up; only perturb and gen use
    # it, and they load it on first use. No module imports logging.
    package_root = str(Path(posred.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    for module in ("posred", "posred.cli"):
        proc = subprocess.run([sys.executable, "-c",
                               f"import sys, {module}; print(sorted("
                               "{'numpy.random', 'logging'} & set(sys.modules)))"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module


def test_benchmark_selftest_passes():
    # perfbench/ wraps the public API (choose_p, the rpmr entry points);
    # its self-test fails when a change to that API breaks the harness.
    repo_root = Path(__file__).resolve().parents[1]
    package_root = str(Path(posred.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error",
                           str(repo_root / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, env=env, cwd=repo_root)
    assert proc.returncode == 0, proc.stdout + proc.stderr
