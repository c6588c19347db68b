"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from exactqfa import analysis, cli, verify
from exactqfa.analysis import MAX_PRECISION_BITS
from exactqfa.constructions import CONSTRUCTION_IDS, EVENODD_MCQFA_MAX_K, PARAMETRIC_BUILDERS, build
from exactqfa.exactnum import MAX_NUMERAL_DIGITS, MIN_PRECISION_BITS, one_minus_inv_e_bracket
from exactqfa.machines import emit_spec, parse_spec, validate
from test_analysis import fair_coin_pfa, spin_machine, stay_machine, turn_machine
from test_sampling import _thirds_pfa


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_emits_valid_spec(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "AW_PAL")
        assert code == 0
        spec = parse_spec(out)
        assert validate(spec) == []
        assert spec.name == "AW_PAL"
        assert '"4/5+0/1 i"' in out and '"3/5+0/1 i"' in out

    def test_parametric_construction(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "EVENODD_MCQFA", "--k", "3")
        assert code == 0
        assert validate(parse_spec(out)) == []

    def test_unknown_id_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "NO_SUCH_MACHINE")
        assert code == 2
        assert "unknown construction" in err

    def test_cap_violation_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "EVENODD_DFA", "--k", "25")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "EVENODD_MCQFA", "--k", "100000000"),
            ("analyze", "EVENODD_MCQFA", "--k", "1000000000000", "--input", "a", "--mode", "exact"),
        ],
    )
    def test_a_huge_k_fails_before_allocating(self, capsys, argv):
        # The machine turns by pi/2^(k+1), so k is refused before 2^(k+1)
        # is built.
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert f"exceeds the supported cap {EVENODD_MCQFA_MAX_K}" in err
        assert peak < 1_000_000

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "EVENODD_DFA")
        assert code == 2
        assert "--k" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "machine.json"
        code, out, _ = run_cli(capsys, "construct", "AW_EQ_PHASE", "--output", str(path))
        assert code == 0
        assert out == ""
        assert validate(parse_spec(path.read_text())) == []


class TestAnalyze:
    def test_unary_shorthand(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "EVENODD_MCQFA", "--k", "2", "--input", "a8", "--mode", "exact"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["p_accept"] == "1/1"
        assert doc["input_length"] == 8

    def test_restart_instance_from_problem_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "EXACT_TWINPAL",
            "--problem",
            "PromiseTWINPAL",
            "--u",
            "aa",
            "--v",
            "ab",
            "--mode",
            "restart",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["overall_accept"] == "1/1"
        assert doc["promise_status"] == "Yes"
        assert doc["input"] == "aacaacabcab"

    def test_outside_promise_is_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "analyze",
            "EVENODD_MCQFA",
            "--k",
            "2",
            "--problem",
            "EVENODD",
            "--input",
            "a7",
            "--mode",
            "exact",
        )
        assert code == 2
        assert "outside" in err

    def test_allow_unpromised_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "EVENODD_MCQFA",
            "--k",
            "2",
            "--problem",
            "EVENODD",
            "--input",
            "a7",
            "--mode",
            "exact",
            "--allow-unpromised",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["promise_status"] == "OutsidePromise"
        assert set(doc["result"]["p_accept"]) == {"lo", "hi"}

    def test_mode_machine_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "AW_PAL", "--input", "acac", "--mode", "restart"
        )
        assert code == 2
        assert "restarting" in err

    def test_missing_machine(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--input", "a", "--mode", "exact")
        assert code == 2
        assert "spec-file" in err

    def test_spec_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        run_cli(capsys, "construct", "AW_PAL", "--output", str(path))
        code, out, _ = run_cli(
            capsys, "analyze", "--spec-file", str(path), "--input", "abacaba", "--mode", "exact"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["machine"] == "AW_PAL"
        assert doc["result"]["p_accept"] == "1/1"

    def test_pfa_spec_file_in_exact_and_mc_mode(self, capsys, tmp_path):
        # Both outputs are pinned to the bytes the dedicated PFA runners printed.
        path = tmp_path / "fair-coin.json"
        path.write_text(emit_spec(fair_coin_pfa()) + "\n", encoding="utf-8")
        argv = ("analyze", "--spec-file", str(path), "--input", "a7")
        head = '{\n  "input": "aaaaaaa",\n  "input_length": 7,\n  "machine": "fair-coin",\n'
        code, out, _ = run_cli(capsys, *argv, "--mode", "exact")
        assert code == 0
        assert out == head + (
            '  "mode": "exact",\n  "result": {\n    "p_accept": "1/2",\n    "p_continue": "0/1",\n'
            '    "p_dont_know": "0/1",\n    "p_reject": "1/2"\n  }\n}\n'
        )
        code, out, _ = run_cli(capsys, *argv, "--mode", "mc", "--trials", "300", "--seed", "5")
        assert code == 0
        assert out == head + (
            '  "mode": "mc",\n  "result": {\n    "counts": {\n      "accept": 138,\n'
            '      "capped": 0,\n      "continue": 0,\n      "dont_know": 0,\n      "reject": 162\n'
            '    },\n    "mean_rounds": "1/1",\n    "mean_steps": "9/1",\n    "trials": 300\n  }\n}\n'
        )

    def test_csv_of_a_machine_named_with_a_slash(self, capsys, tmp_path):
        # The machine's name reads like "p/q" but is not a number, so its
        # row has an empty decimal cell.
        doc = json.loads(emit_spec(build("EVENODD_DFA", k=1)))
        doc["name"] = "mod4/even"
        path = tmp_path / "mod4.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "analyze", "--spec-file", str(path), "--input", "a4", "--mode", "exact", "--format", "csv"
        )
        assert code == 0
        assert "machine,mod4/even,\n" in out
        assert "result.p_accept,1/1,1\n" in out

    def test_a_rotation_count_past_the_precision_cap_exits_2(self, capsys, tmp_path):
        # Each 'a' turns by sqrt(2)*pi, so the final angle's coefficient is
        # the count itself: 20,000 nines are 66,439 bits.
        path = tmp_path / "turn.json"
        path.write_text(emit_spec(turn_machine()) + "\n", encoding="utf-8")
        argv = ("analyze", "--spec-file", str(path), "--mode", "exact", "--input")
        code, out, err = run_cli(capsys, *argv, "a" + "9" * 20000)
        assert code == 2
        assert out == ""
        assert err == (
            "error: a Sqrt2Pi angle coefficient of 66439 bits is over the cap of "
            f"{MAX_PRECISION_BITS} bits for a certified enclosure\n"
        )
        code, out, _ = run_cli(capsys, *argv, "a" + "9" * 100)
        assert code == 0
        assert json.loads(out)["input_length"] == 10 ** 100 - 1

    def test_a_dyadic_angle_past_the_precision_cap_exits_2(self, capsys):
        # Each 'a' turns by pi / 2^(k+1), so an odd count n ends at the angle
        # (n / 2^(k+1)) pi, whose coefficient mod 1 keeps the k + 2-bit
        # denominator. 45,000 ones are an odd count of about 149,487 bits.
        argv = ("analyze", "EVENODD_MCQFA", "--mode", "exact", "--k")
        code, out, err = run_cli(capsys, *argv, "150000", "--input", "a" + "1" * 45000)
        assert (code, out) == (2, "")
        assert err == (
            "error: a DyadicPi angle coefficient of 150002 bits is over the cap of "
            f"{MAX_PRECISION_BITS} bits for a certified enclosure\n"
        )
        code, out, _ = run_cli(capsys, *argv, "65000", "--input", "a3")
        assert code == 0
        assert not json.loads(out)["result"]["p_accept"]["lo"].endswith("/1")

    def test_spec_file_with_a_repeated_matrix_state_exits_2(self, capsys, tmp_path):
        doc = json.loads(emit_spec(fair_coin_pfa()))
        doc["stochastic_delta"]["a"]["order"] = ["s1", "s1", "s_r"]
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", "--spec-file", str(path), "--input", "a", "--mode", "exact")
        assert code == 2
        assert out == ""
        assert "repeats a state" in err

    def test_spec_file_that_fails_validation_exits_2(self, capsys, tmp_path):
        # The end-marker matrix leaves out s1, so a run would find no row for it.
        doc = json.loads(emit_spec(fair_coin_pfa()))
        doc["stochastic_delta"]["$"] = {
            "order": ["s_a", "s_r"],
            "rows": [["1/1", "0/1"], ["0/1", "1/1"]],
        }
        path = tmp_path / "no-s1.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", "--spec-file", str(path), "--input", "a", "--mode", "exact")
        assert code == 2
        assert out == ""
        assert "state order does not cover the state set" in err

    def test_eq_blocks_parameter(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "EXACT_EQ_RESTARTING",
            "--problem",
            "PromiseEQ",
            "--blocks",
            "3,3,1",
            "--mode",
            "restart",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["promise_status"] == "Yes"
        assert doc["result"]["overall_accept"] == "1/1"

    def test_monte_carlo_requires_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "AW_PAL", "--input", "acac", "--mode", "mc", "--trials", "10"
        )
        assert code == 2
        assert "seed" in err

    def test_monte_carlo_deterministic(self, capsys):
        args = (
            "analyze",
            "EXACT_TWINPAL",
            "--input",
            "aacaacabcab",
            "--mode",
            "mc",
            "--trials",
            "50",
            "--seed",
            "9",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        counts = json.loads(out1)["result"]["counts"]
        assert sum(counts.values()) == 50

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "EVENODD_MCQFA",
            "--k",
            "1",
            "--input",
            "a4",
            "--mode",
            "exact",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "field,value,value_decimal"
        accept_rows = [l for l in lines if l.startswith("result.p_accept,")]
        assert accept_rows == ["result.p_accept,1/1,1"]

    def test_csv_interval_cell(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "EXACT_EQ_RESTARTING",
            "--problem",
            "PromiseEQ",
            "--blocks",
            "1,1,2",
            "--mode",
            "restart",
            "--format",
            "csv",
        )
        assert code == 0
        rows = [l for l in out.strip().split("\n") if l.startswith("result.expected_rounds,")]
        assert len(rows) == 1
        _, value, decimal = rows[0].split(",")
        lo, hi = (Fraction(part) for part in value.split(".."))
        assert lo <= hi
        mid = (lo + hi) / 2
        # The decimal column rounds the midpoint to 15 significant digits.
        assert abs(Fraction(decimal) - mid) <= abs(mid) / 10 ** 12

    def test_sweep_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "EXACT_PAL_SWEEPING",
            "--problem",
            "PromisePAL",
            "--u",
            "aa",
            "--v",
            "ab",
            "--mode",
            "sweep",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["overall_accept"] == "1/1"

    def test_sweep_budget_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "EXACT_PAL_SWEEPING",
            "--input",
            "aacab",
            "--mode",
            "sweep",
            "--max-sweeps",
            "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["p_continue"] == "1/1"

    @pytest.mark.parametrize("bits", [MIN_PRECISION_BITS - 1, MAX_PRECISION_BITS + 1])
    def test_precision_bits_outside_range_is_usage_error(self, capsys, bits):
        code, out, err = run_cli(
            capsys,
            "analyze",
            "EXACT_EQ_RESTARTING",
            "--input",
            "abaab",
            "--mode",
            "restart",
            "--precision-bits",
            str(bits),
        )
        assert code == 2
        assert out == ""
        assert f"--precision-bits must be between {MIN_PRECISION_BITS} and" in err

    @pytest.mark.parametrize("bits", [MIN_PRECISION_BITS, MAX_PRECISION_BITS])
    def test_precision_bits_range_ends_are_accepted(self, capsys, bits):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "AW_EQ_PHASE",
            "--input",
            "ab",
            "--mode",
            "exact",
            "--precision-bits",
            str(bits),
        )
        assert code == 0
        assert set(json.loads(out)["result"]["p_accept"]) == {"lo", "hi"}

    def test_bad_input_shorthand(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "AW_PAL", "--input", "8a", "--mode", "exact"
        )
        assert code == 2
        assert "cannot parse" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("EVENODD_MCQFA", "--k", "3", "--problem", "EVENODD^x", "--i", "1"),
                "malformed problem id 'EVENODD^x'",
            ),
            (
                ("AW_PAL", "--problem", "PromisePAL^3", "--u", "ab", "--v", "aa"),
                "unknown problem 'PromisePAL^3'",
            ),
            (
                ("AW_PAL", "--problem", "NoSuchProblem", "--u", "ab", "--v", "aa"),
                "unknown problem 'NoSuchProblem'",
            ),
        ],
    )
    def test_malformed_problem_id_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "analyze", *argv, "--mode", "exact")
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv, length",
        [
            (("AW_PAL", "--input", "a1000000000000"), 10**12),
            (
                (
                    "LV_EXPTWINPAL",
                    "--problem",
                    "EXPPromiseTWINPAL",
                    "--u",
                    "aa",
                    "--v",
                    "ab",
                    "--t",
                    "1000000000000",
                ),
                12 * 10**12,
            ),
            (("EVENODD_MCQFA", "--problem", "EVENODD", "--k", "20", "--i", "100"), 100 * 2**20),
            (("EVENODD_MCQFA", "--problem", "EVENODD", "--k", "40", "--i", "3"), "3*2^40"),
            (("AW_PAL", "--problem", "EVENODD^1000000000000", "--i", "3"), "3*2^1000000000000"),
            (("AW_EQ_PHASE", "--problem", "PromiseEQ", "--blocks", "1000000000000,1,1"), 10**12 + 4),
            (("LV_EXPTWINPAL", "--problem", "EXPPromiseTWINPAL", "--u", "a" * 27, "--v", "b" * 27), 112 * 25**27),
        ],
    )
    def test_huge_input_fails_before_allocating(self, capsys, argv, length):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "analyze", *argv, "--mode", "exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert f"input length {length} exceeds the cap of {cli.MAX_INPUT_LENGTH}" in err
        assert peak < cli.MAX_INPUT_LENGTH // 8

    def test_a_long_config_u_fails_before_its_power(self, capsys, tmp_path):
        # A config file has no argv length limit; 25^|u| is never built or printed.
        u = "ab" * 500_000
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"u": u, "v": "ab"}))
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "analyze", "LV_EXPTWINPAL", "--problem", "EXPPromiseTWINPAL", "--config", str(config), "--mode", "exact"
        )
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == f"error: input length {2 * len(u) + 8}*25^{len(u)} exceeds the cap of {cli.MAX_INPUT_LENGTH} symbols\n"
        assert len(err) < 200

    def test_negative_block_count_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "analyze",
            "LV_EXPTWINPAL",
            "--problem",
            "EXPPromiseTWINPAL",
            "--u",
            "aa",
            "--v",
            "ab",
            "--t",
            "-3",
            "--mode",
            "exact",
            "--allow-unpromised",
        )
        assert code == 2 and out == ""
        assert "--t must be nonnegative, got -3" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("AW_EQ_PHASE", "--problem", "PromiseEQ", "--blocks", "1000000000000,-1000000000000,1"),
                "--blocks must be nonnegative",
            ),
            (
                ("EVENODD_MCQFA", "--problem", "EVENODD", "--k", "2", "--i", "-1"),
                "EVENODD instances need i >= 0, got i=-1",
            ),
        ],
    )
    def test_negative_instance_parts_are_usage_errors(self, capsys, argv, message):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "analyze", *argv, "--mode", "exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert message in err
        assert peak < cli.MAX_INPUT_LENGTH // 8

    def test_promise_eq_instance_on_the_two_block_comparator_names_both_shapes(self, capsys):
        hole = "no classical transition for ('count_down', 'b', '1')"
        code, out, err = run_cli(
            capsys, "analyze", "AW_EQ_PHASE", "--problem", "PromiseEQ", "--blocks", "3,3,5", "--mode", "exact"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: a PromiseEQ instance has three blocks, a^x b a^y b a^z, "
            f"but AW_EQ_PHASE reads a^m b a^n: {hole}\n"
        )
        # The same hole reached from a literal input keeps its own message.
        code, out, err = run_cli(capsys, "analyze", "AW_EQ_PHASE", "--input", "a3ba3ba5", "--mode", "exact")
        assert (code, out, err) == (2, "", f"error: {hole}\n")

    def test_unary_input_over_the_cap_runs_by_closed_form(self, capsys):
        # run_unary_length needs only the length, so the string is not built.
        tracemalloc.start()
        try:
            code, out, _ = run_cli(
                capsys, "analyze", "EVENODD_MCQFA", "--k", "3", "--input", "a1000000000", "--mode", "exact"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        doc = json.loads(out)
        assert doc["input_length"] == 10**9 and "input" not in doc
        assert doc["result"]["p_accept"] == "1/1"
        assert peak < cli.MAX_INPUT_LENGTH // 8


class TestGenerate:
    def test_jsonl_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--problem", "PromisePAL", "--count", "6", "--seed", "2", "--size", "3"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        statuses = [json.loads(l)["status"] for l in lines]
        assert statuses.count("Yes") == 3 and statuses.count("No") == 3

    def test_infeasible_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--problem", "PromisePAL", "--count", "2", "--seed", "0", "--size", "1"
        )
        assert code == 2
        assert "palindrome" in err

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "generate",
            "--problem",
            "EVENODD",
            "--count",
            "2",
            "--seed",
            "4",
            "--size",
            "6",
            "--k",
            "1",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "problem,string,status,params"
        assert len(lines) == 3

    def test_deterministic(self, capsys):
        args = ("generate", "--problem", "PromiseEQ", "--count", "5", "--seed", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv, length",
        [
            (("--problem", "EXPPromiseTWINPAL", "--t", "1000000000000"), 12 * 10**12),
            (("--problem", "EVENODD", "--k", "1000000000000"), "2*2^1000000000000"),
            (("--problem", "EVENODD^100", "--statuses", "No,OutsidePromise"), "4*2^100"),
            (("--problem", "EVENODD^26", "--size", "3"), 3 * 2**26),
            (
                ("--problem", "EVENODD", "--k", "25", "--statuses", "OutsidePromise"),
                2**27,
            ),
            (("--problem", "PromisePAL", "--size", "1000000000000"), 2 * 10**12 + 1),
            (("--problem", "PromiseTWINPAL", "--size", "1000000000000"), 4 * 10**12 + 3),
            (("--problem", "PromiseEQ", "--size", "1000000000000"), 3 * 10**12 + 2),
        ],
    )
    def test_huge_strings_fail_before_allocating(self, capsys, argv, length):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "generate", *argv, "--count", "2", "--seed", "1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert f"input length {length} exceeds the cap of {cli.MAX_INPUT_LENGTH}" in err
        assert peak < cli.MAX_INPUT_LENGTH // 8

    @pytest.mark.parametrize(
        "size, statuses, length",
        [(1, "OutsidePromise", 2**10 - 1), (2, "Yes,No", 2**10), (2, "OutsidePromise", None)],
    )
    def test_longest_string_is_checked_against_the_cap(
        self, capsys, monkeypatch, size, statuses, length
    ):
        # OutsidePromise strings are shorter than max(size, 1) * 2^(k+1),
        # Yes/No strings are at most size * 2^k long.
        monkeypatch.setattr(cli, "MAX_INPUT_LENGTH", 1 << 10)
        code, out, err = run_cli(
            capsys,
            "generate",
            "--problem",
            "EVENODD^9",
            "--size",
            str(size),
            "--statuses",
            statuses,
            "--count",
            "4",
            "--seed",
            "1",
        )
        if length is None:
            assert code == 2 and "input length 2048 exceeds the cap of 1024" in err
        else:
            assert code == 0
            assert max(len(json.loads(line)["string"]) for line in out.splitlines()) <= length


class TestVerify:
    def test_witnesses_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "witnesses")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("3/3 checks passed")
        assert out == (
            "PASS witnesses.promisepal: palindrome witness families m<=6 separate all 2667 pairs\n"
            "PASS witnesses.promiseeq: block-count witness family m=50 separates all 1225 pairs\n"
            "PASS witnesses.twin_expand_preserves_status: doubling transform preserves promise"
            " status on all 1365 inputs with |u|=|v|<=5\n"
            "3/3 checks passed\n"
        )

    def test_deterministic_report(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "evenodd")
        _, out2, _ = run_cli(capsys, "verify", "evenodd")
        assert out1 == out2
        assert out1 == (
            "PASS evenodd.mcqfa_exact: 1717 closed-form runs (k<=16, i<=100) give the"
            " deterministic correct verdict\n"
            "PASS evenodd.dfa_cycle_check: counting machines with 2^(k+1) states pass the"
            " cycle check for k<=10\n"
            "PASS evenodd.short_cycle_counterexamples: machines whose cycle length is not"
            " divisible by 2^(k+1) yield concrete wrong multipliers:"
            " [(2, 1, 1), (3, 0, 2), (12, 2, 2)]\n"
            "3/3 checks passed\n"
        )

    def test_stochastic_suite_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "verify", "contextuality")
        assert code == 2
        assert "seed" in err

    def test_contextuality_with_seed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "contextuality", "--seed", "5")
        assert code == 0
        assert "quantum strategy won 10000/10000" in out

    def test_lasvegas_floor_is_one_minus_inv_e(self, capsys):
        # The floor is the certified lower end of 1 - 1/e, which sits
        # above the decimal 0.632.
        assert one_minus_inv_e_bracket().lo > Fraction(632, 1000)
        code, out, _ = run_cli(capsys, "verify", "lasvegas")
        assert code == 0
        assert "(16/25)*(1-1/e) resp. (9/25)*(1-1/e)" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "nonsense")
        assert exc.value.code == 2

    def test_the_parser_names_every_suite(self):
        # The parser's choices come from a copy, so that it need not import verify.
        assert list(cli.SUITE_NAMES) == sorted(verify.SUITES)


class TestGame:
    def test_magic_square_quantum(self, capsys):
        code, out, _ = run_cli(
            capsys, "game", "magic-square", "--strategy", "quantum", "--rounds", "30", "--seed", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["wins"] == 30
        assert doc["value"] == "1/1"

    def test_magic_square_classical_best(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "game",
            "magic-square",
            "--strategy",
            "classical-best",
            "--rounds",
            "100",
            "--seed",
            "2",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "strategy,rounds,wins,value,value_decimal"
        wins = int(lines[1].split(",")[2])
        assert wins < 100

    def test_memory_quantum(self, capsys):
        code, out, _ = run_cli(
            capsys, "game", "memory", "--bob", "quantum", "--Q", "5", "--seed", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "5/1"
        assert doc["schedule"] == [4, 8, 12, 16, 20]

    def test_memory_classical_needs_budget(self, capsys):
        code, _, err = run_cli(
            capsys, "game", "memory", "--bob", "classical", "--Q", "3", "--seed", "3"
        )
        assert code == 2
        assert "--N" in err

    def test_memory_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "game",
            "memory",
            "--bob",
            "classical",
            "--Q",
            "4",
            "--N",
            "512",
            "--seed",
            "3",
            "--format",
            "csv",
        )
        assert code == 0
        assert out.startswith("problem,model,memory,value,value_decimal\n")
        assert "512 states" in out

    def test_deterministic_by_seed(self, capsys):
        args = ("game", "magic-square", "--strategy", "quantum", "--rounds", "40", "--seed", "8")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"format": "csv", "mode": "exact"}))
        code, out, _ = run_cli(
            capsys,
            "--config",
            str(config),
            "analyze",
            "EVENODD_MCQFA",
            "--k",
            "1",
            "--input",
            "a4",
        )
        assert code == 0
        assert out.startswith("field,value,value_decimal")

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"format": "csv"}))
        code, out, _ = run_cli(
            capsys,
            "--config",
            str(config),
            "analyze",
            "EVENODD_MCQFA",
            "--k",
            "1",
            "--input",
            "a4",
            "--mode",
            "exact",
            "--format",
            "json",
        )
        assert code == 0
        json.loads(out)

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "--config",
            str(tmp_path / "absent.json"),
            "verify",
            "witnesses",
        )
        assert code == 2
        assert "config" in err


class TestInputExpansion:
    def test_expansion_rules(self):
        assert cli._expand_input("a8") == "a" * 8
        assert cli._expand_input("a2b3") == "aabbb"
        assert cli._expand_input("abc") == "abc"
        assert cli._expand_input("") == ""
        assert cli._expand_input("a12c1") == "a" * 12 + "c"
        with pytest.raises(cli.UsageError):
            cli._expand_input("8a")
        with pytest.raises(cli.UsageError):
            cli._expand_input("a-3")


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "exactqfa.cli", "construct", "AW_PAL"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert validate(parse_spec(result.stdout)) == []


def test_mc_on_a_machine_that_can_never_halt_exits_2():
    result = subprocess.run(
        [sys.executable, "-m", "exactqfa.cli", "analyze", "EXACT_EQ_RESTARTING", "--input", "",
         "--mode", "mc", "--trials", "40", "--seed", "1", "--allow-unpromised"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert "zero halting mass" in result.stderr


def _run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "exactqfa.cli", *argv], capture_output=True, text=True, timeout=60
    )


def test_sweep_analysis_past_its_tick_cap_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "EXACT_PAL_SWEEPING", "--input", "abcab", "--mode", "sweep",
        "--tick-cap", "5", "--allow-unpromised",
    )
    assert (code, out) == (2, "")
    assert "no iteration structure detected within the tick cap" in err


def test_capped_sweep_run_with_a_large_budget_finishes():
    result = _run_module(
        "analyze", "EXACT_PAL_SWEEPING", "--mode", "sweep", "--input", "abaabcaabab", "--max-sweeps", "200"
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["result"]["p_dont_know"] == "0/1"
    # The whole answer, three fractions of about 2,700 bits each.
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "90b91cb1472de2aa8ef33e3b6e8bf67826f122238bed771ad096a4e0077a4769"
    )


def test_a_sweep_budget_over_the_cap_exits_2_at_once(capsys):
    # A budget of 10^9 sweeps would run for hours; it is refused before
    # the run starts, as is one sweep over the cap.
    result = _run_module(
        "analyze", "EXACT_PAL_SWEEPING", "--input", "abaabcaabab", "--mode", "sweep", "--max-sweeps", "1000000000"
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: --max-sweeps 1000000000 exceeds the cap of {cli.MAX_SWEEPS}\n"
    over = str(cli.MAX_SWEEPS + 1)
    argv = ("analyze", "EXACT_PAL_SWEEPING", "--input", "abcab", "--mode", "sweep", "--max-sweeps", over)
    assert run_cli(capsys, *argv) == (2, "", f"error: --max-sweeps {over} exceeds the cap of {cli.MAX_SWEEPS}\n")


def test_a_tick_cap_over_the_cap_exits_2_at_once(capsys, tmp_path):
    # The stay machine's configurations never recur, so a loop probe of
    # 10^9 ticks would run for hours; it is refused before the run starts,
    # as is one tick over the cap.
    path = tmp_path / "stay.json"
    path.write_text(emit_spec(stay_machine("$")) + "\n", encoding="utf-8")
    argv = ("analyze", "--spec-file", str(path), "--input", "aa", "--mode", "sweep", "--tick-cap")
    result = _run_module(*argv, "1000000000")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: --tick-cap 1000000000 exceeds the cap of {cli.MAX_TICKS}\n"
    over = str(cli.MAX_TICKS + 1)
    assert run_cli(capsys, *argv, over) == (2, "", f"error: --tick-cap {over} exceeds the cap of {cli.MAX_TICKS}\n")


def test_jump_to_an_oversize_answer_exits_2(tmp_path):
    # Each letter keeps a third of the mass live, so the answer on a^(10^8)
    # is 3^-(10^8), a denominator of about 158M bits.
    doc = json.loads(emit_spec(fair_coin_pfa()))
    doc["stochastic_delta"]["a"]["rows"][0] = ["1/3", "0/1", "2/3"]
    path = tmp_path / "thirds.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = _run_module("analyze", "--spec-file", str(path), "--input", "a100000000", "--mode", "exact")
    assert (result.returncode, result.stdout) == (2, "")
    assert "over the cap" in result.stderr


def test_a_unary_walk_whose_register_never_recurs_exits_2(tmp_path):
    # The spin machine's register never recurs, so its walk on a^(10^12)
    # stops at the cap instead of running for ever.
    path = tmp_path / "spin.json"
    path.write_text(emit_spec(spin_machine()) + "\n", encoding="utf-8")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = _run_module("analyze", "--spec-file", str(path), "--input", "a1000000000000", "--mode", "exact")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: a unary walk's register did not recur within the cap of "
        f"{analysis.UNARY_WALK_CAP} squares\n"
    )
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 2


UNARY_EXACT_CASES = (
    [
        ("EVENODD_MCQFA", "--k", str(k), "--input", word)
        for k in (0, 1, 3, 8, 16)
        for word in ("a", "a2", "a7", "a64", "a65536", "a1000000000")
    ]
    + [
        ("EVENODD_DFA", "--k", str(k), "--input", word)
        for k in (0, 2, 8)
        for word in ("a", "a5", "a96", "a123456789")
    ]
    + [
        (machine, "--k", "2", "--problem", "EVENODD", "--i", str(i))
        for machine in ("EVENODD_MCQFA", "EVENODD_DFA")
        for i in (0, 1, 3)
    ]
)


def test_unary_exact_stdout_is_pinned(capsys, tmp_path):
    # One SHA-256 over the exit code and stdout of every run, recorded
    # when unary inputs still had a runner of their own.
    files = []
    for name, pfa in (("fair-coin", fair_coin_pfa()), ("thirds", _thirds_pfa())):
        path = tmp_path / f"{name}.json"
        path.write_text(emit_spec(pfa) + "\n", encoding="utf-8")
        files.append(str(path))
    cases = list(UNARY_EXACT_CASES) + [
        ("--spec-file", path, "--input", word) for path in files for word in ("a", "a7", "a1000")
    ]
    digest = hashlib.sha256()
    for argv in cases:
        code, out, _ = run_cli(capsys, "analyze", *argv, "--mode", "exact")
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "600b259fbd8c1b6a9da832a9302be13d1f20840ad4085560a143482e7a776564"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("analyze", "AW_PAL", "--input", "abcab", "--mode", "mc", "--trials", "0", "--seed", "1"),
            "--trials must be at least 1, got 0",
        ),
        (
            ("analyze", "EXACT_PAL_SWEEPING", "--input", "abcab", "--mode", "sweep", "--max-sweeps", "-1"),
            "--max-sweeps must be at least 0, got -1",
        ),
        (
            ("game", "magic-square", "--strategy", "quantum", "--rounds", "0", "--seed", "1"),
            "--rounds must be at least 1, got 0",
        ),
        (("game", "memory", "--bob", "quantum", "--Q", "0", "--seed", "1"), "--Q must be at least 1, got 0"),
        (
            ("analyze", "EXACT_TWINPAL", "--input", "abcabcbacba", "--mode", "mc", "--trials", "100001", "--seed", "1"),
            "--trials 100001 exceeds the cap of 100000",
        ),
        (
            ("analyze", "AW_PAL", "--input", "abcab", "--mode", "mc", "--trials", "1000000000", "--seed", "1"),
            "--trials 1000000000 exceeds the cap of 100000",
        ),
        (
            ("game", "magic-square", "--strategy", "quantum", "--rounds", "100001", "--seed", "1"),
            "--rounds 100001 exceeds the cap of 100000",
        ),
        (
            ("game", "memory", "--bob", "quantum", "--Q", "8193", "--seed", "1"),
            "--Q 8193 exceeds the cap of 8192",
        ),
        (
            ("game", "memory", "--bob", "classical", "--N", "16", "--Q", "1000000", "--seed", "1"),
            "--Q 1000000 exceeds the cap of 8192",
        ),
        (
            ("generate", "--problem", "EXPPromiseTWINPAL", "--count", "1001", "--seed", "1", "--size", "2"),
            "--count 1001 exceeds the cap of 1000",
        ),
        (
            ("generate", "--problem", "PromisePAL", "--count", "-1", "--seed", "1", "--size", "2"),
            "--count must be at least 0, got -1",
        ),
    ],
)
def test_out_of_range_count_is_usage_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_evenodd_dfa_over_its_cap_is_refused_at_once(capsys):
    # EVENODD_DFA has 2^(k+1) states; k = 16 takes about 2 s on a long input.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "EVENODD_DFA", "--k", "17", "--input", "a8", "--mode", "exact")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: k=17 exceeds the supported cap 16 (the machine needs 2^(k+1) states)\n"


def test_the_largest_construction_reads_back_under_the_numeral_cap(capsys, tmp_path):
    # EVENODD_MCQFA turns by pi/2^(k+1): at its largest k the denominator
    # has 315,654 digits, the longest numeral any construction writes.
    code, spec_text, _ = run_cli(capsys, "construct", "EVENODD_MCQFA", "--k", str(EVENODD_MCQFA_MAX_K))
    assert code == 0
    path = tmp_path / "evenodd.json"
    path.write_text(spec_text)
    code, out, err = run_cli(capsys, "analyze", "--spec-file", str(path), "--input", "", "--mode", "exact")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["p_accept"] == "1/1"


@pytest.mark.parametrize("where", ["spec-file numeral", "config count"])
def test_a_million_digit_numeral_or_count_exits_2_at_once(capsys, tmp_path, where):
    # int() is quadratic in the digits: each of these took 10 s or more
    # before the digit caps.
    zeros = "0" * 10**6
    path = tmp_path / "run.json"
    if where == "spec-file numeral":
        # 4*10^(10^6) / 5*10^(10^6) is 4/5, so the machine is valid but for its size.
        path.write_text(emit_spec(build("AW_PAL")).replace('"4/5+0/1 i"', f'"4{zeros}/5{zeros}+0/1 i"', 1))
        argv = ("analyze", "--spec-file", str(path), "--input", "abcab", "--mode", "exact")
        message = f"malformed machine-spec document: a numeral exceeds the cap of {MAX_NUMERAL_DIGITS} digits"
    else:
        path.write_text(json.dumps({"input": "a1" + zeros}))
        argv = ("analyze", "AW_PAL", "--config", str(path), "--mode", "exact")
        message = f"a run-length count exceeds the cap of {cli.MAX_COUNT_DIGITS} digits"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Runs CLI commands in a fresh interpreter, then names the modules that
# only some commands need which it loaded.
IMPORT_PROBE = """
import contextlib, io, json, sys
from exactqfa import cli

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(*(name for name in ("exactqfa.contextuality", "exactqfa.problems", "exactqfa.verify") if name in sys.modules))
"""


@pytest.mark.parametrize(
    "commands, loaded",
    [
        (
            [["analyze", "AW_PAL", "--input", "abbacabba", "--mode", "exact"], ["construct", "AW_PAL"]],
            [],
        ),
        (
            [["analyze", "AW_PAL", "--input", "abbacabab", "--mode", "exact", "--problem", "PromisePAL"]],
            ["exactqfa.problems"],
        ),
        ([["game", "memory", "--bob", "quantum", "--Q", "2", "--seed", "1"]], ["exactqfa.contextuality"]),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(commands, loaded):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=60,
    )
    assert done.stdout.split() == loaded


# Each built-in machine with the inputs it runs on in every mode: promise
# instances, inputs outside the promise, a unary power that ends in a
# table hole, and a symbol outside the alphabet.
BUILTIN_RUNS = (
    (
        ("AW_PAL",),
        [
            ("--input", "abcab"),
            ("--input", "abbacabab"),
            ("--problem", "PromisePAL", "--u", "aab", "--v", "aba"),
            ("--input", "a2000"),
            ("--input", "abcd"),
        ],
    ),
    (
        ("EXACT_PAL_SWEEPING",),
        [
            ("--input", "abcab"),
            ("--input", "abacabb"),
            ("--problem", "PromisePAL", "--u", "ab", "--v", "ba"),
            ("--input", "a40"),
        ],
    ),
    (
        ("EXACT_TWINPAL",),
        [
            ("--problem", "PromiseTWINPAL", "--u", "aa", "--v", "ab"),
            ("--problem", "PromiseTWINPAL", "--u", "ab", "--v", "ab"),
            ("--input", "acac"),
            ("--input", "a50"),
        ],
    ),
    (
        ("LV_EXPTWINPAL",),
        [
            ("--problem", "EXPPromiseTWINPAL", "--u", "ab", "--v", "aa", "--t", "5"),
            ("--problem", "EXPPromiseTWINPAL", "--u", "ab", "--v", "ab", "--t", "25"),
            ("--input", "abcabcbacbac"),
        ],
    ),
    (
        ("EXACT_EXPTWINPAL",),
        [
            ("--problem", "EXPPromiseTWINPAL", "--u", "ab", "--v", "aa", "--t", "5"),
            ("--problem", "EXPPromiseTWINPAL", "--u", "ba", "--v", "ba", "--t", "3"),
            ("--input", "a9"),
        ],
    ),
    (
        ("AW_EQ_PHASE",),
        [
            ("--input", "a3ba3"),
            ("--input", "a2ba5"),
            ("--problem", "PromiseEQ", "--blocks", "1,2,3"),
        ],
    ),
    (
        ("EXACT_EQ_RESTARTING",),
        [
            ("--problem", "PromiseEQ", "--blocks", "3,3,1"),
            ("--problem", "PromiseEQ", "--blocks", "2,3,4"),
            ("--input", "a2ba2"),
        ],
    ),
    (("EVENODD_MCQFA", "--k", "2"), [("--input", "a8"), ("--input", "a12"), ("--input", "a7")]),
    (("EVENODD_DFA", "--k", "2"), [("--input", "a8"), ("--input", "a12"), ("--input", "a7")]),
)
MODE_ARGS = (
    ("--mode", "exact"),
    ("--mode", "restart"),
    ("--mode", "sweep"),
    ("--mode", "sweep", "--max-sweeps", "3"),
    ("--mode", "mc", "--trials", "40", "--seed", "1"),
    ("--mode", "mc", "--trials", "40", "--seed", "2", "--step-cap", "30"),
)


def test_builtin_machine_stdout_is_pinned(capsys, monkeypatch, suite_run):
    # One SHA-256 over the exit code and stdout of `verify all` and of
    # every run above in every mode, recorded before squares were compiled
    # once per machine. The suites run once per session (see conftest).
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, lambda *args, name=name: suite_run(name, *args)[0])
    digest = hashlib.sha256()
    code, out, _ = run_cli(capsys, "verify", "all", "--seed", "1")
    digest.update(f"{code}\n{out}".encode())
    for machine, inputs in BUILTIN_RUNS:
        for instance in inputs:
            for mode in MODE_ARGS:
                code, out, _ = run_cli(capsys, "analyze", *machine, *instance, *mode, "--allow-unpromised")
                digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "9276c9e52c0b8d6e8c57b4ad92bbc8359a7bf99a6f38a66d265664139090ca81"


GENERATE_ARGS = (
    ("--problem", "PromisePAL", "--count", "6", "--seed", "3"),
    ("--problem", "PromiseTWINPAL", "--count", "6", "--seed", "3", "--statuses", "Yes,No,OutsidePromise"),
    ("--problem", "EXPPromiseTWINPAL", "--count", "2", "--seed", "3", "--t", "625"),
    ("--problem", "PromiseEQ", "--count", "6", "--seed", "3", "--size", "4"),
    ("--problem", "EVENODD", "--count", "6", "--seed", "3", "--k", "2", "--size", "3"),
)
GAME_ARGS = (
    ("magic-square", "--strategy", "quantum", "--rounds", "12", "--seed", "1"),
    ("magic-square", "--strategy", "classical-best", "--rounds", "12", "--seed", "1"),
    ("memory", "--bob", "quantum", "--Q", "3", "--seed", "1"),
    ("memory", "--bob", "classical", "--N", "64", "--Q", "3", "--seed", "1"),
)


def test_csv_construct_generate_and_game_stdout_is_pinned(capsys):
    # One SHA-256 over the exit code and stdout of every CSV run of the
    # built-in machines above, every construction, and the generate and
    # game documents in both formats, recorded while the CLI still
    # computed its CSV decimals from the JSON text.
    digest = hashlib.sha256()

    def record(*argv):
        code, out, _ = run_cli(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())

    for machine, inputs in BUILTIN_RUNS:
        for instance in inputs:
            for mode in MODE_ARGS:
                record("analyze", *machine, *instance, *mode, "--allow-unpromised", "--format", "csv")
    for machine_id in CONSTRUCTION_IDS:
        record("construct", machine_id, *(("--k", "3") if machine_id in PARAMETRIC_BUILDERS else ()))
    for fmt in ("json", "csv"):
        for argv in GENERATE_ARGS:
            record("generate", *argv, "--format", fmt)
        for argv in GAME_ARGS:
            record("game", *argv, "--format", fmt)
    assert digest.hexdigest() == "c10d728c1a049a99ad1fe4ac84efaef06ef5cea449e18058157240849bd09c11"
