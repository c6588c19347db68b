"""Tests for the promise-problem predicates, generators, and witnesses."""

import json
import time
import tracemalloc

import pytest

from exactqfa import problems
from exactqfa.constructions import build_evenodd_dfa
from exactqfa.machines import (
    LEFT_MARKER,
    MODEL_RTDFA,
    MOVE_RIGHT,
    REGISTER_CLASSICAL,
    RIGHT_MARKER,
    ClassicalStep,
    MachineSpec,
)
from exactqfa.problems import (
    STATUS_NO,
    STATUS_OUTSIDE,
    STATUS_YES,
    InfeasibleParameters,
    PromiseInstance,
    build_dissimilarity_witness,
    generate,
    instances_to_jsonl,
    membership,
    twin_expand,
    unary_cycle_check,
    verify_dissimilarity,
)


def unary_mod_dfa(modulus, accept_residues):
    """Length-mod-m checker used as a wrong answer for parity promises."""
    classical = {("m0", LEFT_MARKER, "1"): ClassicalStep("m0", MOVE_RIGHT)}
    for i in range(modulus):
        classical[(f"m{i}", "a", "1")] = ClassicalStep(f"m{(i + 1) % modulus}", MOVE_RIGHT)
        verdict = "s_a" if i in accept_residues else "s_r"
        classical[(f"m{i}", RIGHT_MARKER, "1")] = ClassicalStep(verdict, MOVE_RIGHT)
    return MachineSpec(
        name=f"MOD{modulus}",
        model_class=MODEL_RTDFA,
        register=REGISTER_CLASSICAL,
        quantum_dim=1,
        states=frozenset({f"m{i}" for i in range(modulus)} | {"s_a", "s_r"}),
        initial_state="m0",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        classical_delta=classical,
    )


def is_pal(w):
    return w == w[::-1]


class TestPalMembership:
    def test_yes_no_outside_examples(self):
        assert membership("PromisePAL", "aacab") == STATUS_YES
        assert membership("PromisePAL", "abcaa") == STATUS_NO
        # Both halves palindromic: no side of the promise applies.
        assert membership("PromisePAL", "acb") == STATUS_OUTSIDE
        assert membership("PromisePAL", "abcab") == STATUS_OUTSIDE

    def test_shape_violations_are_outside(self):
        assert membership("PromisePAL", "") == STATUS_OUTSIDE
        assert membership("PromisePAL", "abab") == STATUS_OUTSIDE
        assert membership("PromisePAL", "acbcb") == STATUS_OUTSIDE
        assert membership("PromisePAL", "aacb") == STATUS_OUTSIDE  # unequal halves
        assert membership("PromisePAL", "axcab") == STATUS_OUTSIDE

    def test_exhaustive_agreement_with_direct_predicate(self):
        words, frontier = [""], [""]
        for _ in range(3):
            frontier = [w + ch for w in frontier for ch in "ab"]
            words += frontier
        for u in words:
            for v in words:
                got = membership("PromisePAL", f"{u}c{v}")
                if len(u) != len(v):
                    assert got == STATUS_OUTSIDE
                elif is_pal(u) and not is_pal(v):
                    assert got == STATUS_YES
                elif not is_pal(u) and is_pal(v):
                    assert got == STATUS_NO
                else:
                    assert got == STATUS_OUTSIDE


class TestTwinMembership:
    def test_examples(self):
        assert membership("PromiseTWINPAL", "aacaacabcab") == STATUS_YES
        assert membership("PromiseTWINPAL", "abcabcaacaa") == STATUS_NO
        assert membership("PromiseTWINPAL", "aacaacabcba") == STATUS_OUTSIDE
        # Empty blocks are excluded even though the shape matches.
        assert membership("PromiseTWINPAL", "ccabcab") == STATUS_OUTSIDE
        assert membership("PromiseTWINPAL", "aacaacbcb") == STATUS_OUTSIDE
        assert membership("PromiseTWINPAL", "acacbcb") == STATUS_OUTSIDE

    def test_exp_blocks(self):
        yes_block = "aacaacabcabc"
        no_block = "abcabcaacaac"
        assert membership("EXPPromiseTWINPAL", yes_block * 625) == STATUS_YES
        assert membership("EXPPromiseTWINPAL", no_block * 625) == STATUS_NO
        # One repetition short of the threshold leaves the promise.
        assert membership("EXPPromiseTWINPAL", yes_block * 624) == STATUS_OUTSIDE

    def test_exp_shape_violations(self):
        assert membership("EXPPromiseTWINPAL", "") == STATUS_OUTSIDE
        assert membership("EXPPromiseTWINPAL", "aacaacabcab") == STATUS_OUTSIDE
        mixed = "aacaacabcabc" * 624 + "abcabcaacaac"
        assert membership("EXPPromiseTWINPAL", mixed) == STATUS_OUTSIDE
        # Palindromic v on both sides never enters the promise even at
        # enormous repetition counts.
        assert membership("EXPPromiseTWINPAL", "acacbcbc" * 30) == STATUS_OUTSIDE


class TestEqMembership:
    def test_examples(self):
        assert membership("PromiseEQ", "ababaa") == STATUS_YES
        assert membership("PromiseEQ", "abaaba") == STATUS_NO
        assert membership("PromiseEQ", "ababa") == STATUS_OUTSIDE
        assert membership("PromiseEQ", "aabaabaaa") == STATUS_YES
        assert membership("PromiseEQ", "aabaaabaa") == STATUS_NO

    def test_empty_blocks_allowed(self):
        assert membership("PromiseEQ", "bba") == STATUS_YES
        assert membership("PromiseEQ", "baab") == STATUS_NO
        assert membership("PromiseEQ", "bb") == STATUS_OUTSIDE

    def test_shape_violations(self):
        assert membership("PromiseEQ", "") == STATUS_OUTSIDE
        assert membership("PromiseEQ", "aba") == STATUS_OUTSIDE
        assert membership("PromiseEQ", "ababab") == STATUS_OUTSIDE
        assert membership("PromiseEQ", "abcaba") == STATUS_OUTSIDE

    def test_exhaustive_small_blocks(self):
        for x in range(4):
            for y in range(4):
                for z in range(4):
                    w = "a" * x + "b" + "a" * y + "b" + "a" * z
                    got = membership("PromiseEQ", w)
                    if x == y and x != z:
                        assert got == STATUS_YES
                    elif x == z and x != y:
                        assert got == STATUS_NO
                    else:
                        assert got == STATUS_OUTSIDE


class TestEvenOddMembership:
    def test_k2_examples(self):
        assert membership("EVENODD", "a" * 8, k=2) == STATUS_YES
        assert membership("EVENODD", "a" * 12, k=2) == STATUS_NO
        assert membership("EVENODD", "a" * 6, k=2) == STATUS_OUTSIDE
        assert membership("EVENODD", "", k=2) == STATUS_YES

    def test_inline_parameter_spelling(self):
        assert membership("EVENODD^2", "a" * 8) == STATUS_YES
        assert membership("EVENODD^0", "a") == STATUS_NO
        assert membership("EVENODD^0", "aa") == STATUS_YES

    def test_non_unary_is_outside(self):
        assert membership("EVENODD", "ab", k=0) == STATUS_OUTSIDE

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            membership("EVENODD", "a")
        with pytest.raises(ValueError):
            membership("EVENODD^2", "a", k=2)
        with pytest.raises(ValueError):
            membership("EVENODD", "a", k=-1)
        with pytest.raises(ValueError):
            membership("PromisePAL", "aacab", k=1)
        with pytest.raises(ValueError):
            membership("NoSuchProblem", "a")
        with pytest.raises(ValueError):
            membership("EVENODD^x", "a")


def oracle(problem, word, k=None):
    """The module docstring's definitions, read off the parts between
    separators: no shapes, no regular expressions."""
    def letters(*parts):
        return all(set(part) <= {"a", "b"} for part in parts)

    def pal_pair(u, v):
        if is_pal(u) == is_pal(v):
            return STATUS_OUTSIDE
        return STATUS_YES if is_pal(u) else STATUS_NO

    if problem == "EVENODD":
        n = len(word)
        if set(word) - {"a"} or n % 2**k:
            return STATUS_OUTSIDE
        return STATUS_YES if n // 2**k % 2 == 0 else STATUS_NO
    if problem == "PromiseEQ":
        parts = word.split("b")
        if len(parts) != 3 or set("".join(parts)) - {"a"}:
            return STATUS_OUTSIDE
        x, y, z = map(len, parts)
        if x == y and x != z:
            return STATUS_YES
        if x == z and x != y:
            return STATUS_NO
        return STATUS_OUTSIDE
    parts = word.split("c")
    if problem == "PromisePAL":
        if len(parts) != 2 or not letters(*parts) or len(parts[0]) != len(parts[1]):
            return STATUS_OUTSIDE
        return pal_pair(*parts)
    if problem == "EXPPromiseTWINPAL":
        # (u c u c v c v c)^t: every fourth part repeats, and a "c" ends the word.
        if parts.pop() or len(parts) % 4:
            return STATUS_OUTSIDE
        t = len(parts) // 4
        if t < 1 or parts != parts[:4] * t or t < 25 ** len(parts[0]):
            return STATUS_OUTSIDE
    elif len(parts) != 4:
        return STATUS_OUTSIDE
    u, u2, v, v2 = parts[:4]
    if u != u2 or v != v2 or not u or len(u) != len(v) or not letters(u, v):
        return STATUS_OUTSIDE
    return pal_pair(u, v)


PROBLEM_CONFIGS = [("PromisePAL", None), ("PromiseTWINPAL", None), ("EXPPromiseTWINPAL", None), ("PromiseEQ", None)] + [
    ("EVENODD", k) for k in (0, 1, 3, 40)
]


class TestMembershipShapes:
    def test_every_short_word_matches_the_oracle(self):
        words, frontier = [""], [""]
        for _ in range(8):
            frontier = [w + ch for w in frontier for ch in "abc"]
            words += frontier
        for word in words:
            for problem, k in PROBLEM_CONFIGS:
                assert membership(problem, word, k=k) == oracle(problem, word, k), (problem, k, word)

    def test_exp_words_around_the_threshold_match_the_oracle(self):
        # One letter is always a palindrome, so only |u| = 2 enters the promise.
        seen = set()
        for halves, thresholds in ((("a", "b"), (24, 25, 26)), (("aa", "ab", "ba", "bb"), (624, 625, 626))):
            for u in halves:
                for v in halves:
                    block = f"{u}c{u}c{v}c{v}c"
                    for t in thresholds:
                        word = block * t
                        swapped = word[: -len(block)] + f"{v}c{v}c{u}c{u}c"
                        for variant in (word, word + "a", word + "c", word[:-1], swapped):
                            got = membership("EXPPromiseTWINPAL", variant)
                            assert got == oracle("EXPPromiseTWINPAL", variant), (u, v, t, len(variant))
                            seen.add(got)
        assert seen == {STATUS_YES, STATUS_NO, STATUS_OUTSIDE}

    def test_a_huge_evenodd_exponent_builds_no_power(self):
        tracemalloc.start()
        try:
            statuses = [membership("EVENODD^100000000000", word) for word in ("a" * 8, "")]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert statuses == [STATUS_OUTSIDE, STATUS_YES]
        assert peak < 1 << 20

    def test_a_long_exp_word_is_checked_without_copies(self):
        word = "acacbcbc" * 10**6
        tracemalloc.start()
        try:
            status = membership("EXPPromiseTWINPAL", word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == STATUS_OUTSIDE
        assert peak < len(word)

    def test_a_long_block_is_refused_at_once(self):
        a, b = "a" * 4_000_000, "b" * 4_000_000
        word = f"{a}c{a}c{b}c{b}c"
        start = time.perf_counter()
        assert membership("EXPPromiseTWINPAL", word) == STATUS_OUTSIDE
        assert time.perf_counter() - start < 0.5


class TestTwinExpand:
    def test_examples(self):
        assert twin_expand("aacab") == "aacaacabcab"
        assert twin_expand("bacaa") == "bacbacaacaa"

    def test_malformed_inputs_raise(self):
        for bad in ("abab", "acbca", "axcb", ""):
            with pytest.raises(ValueError):
                twin_expand(bad)

    def test_status_preserved_exhaustively(self):
        words, frontier = [""], [""]
        for _ in range(3):
            frontier = [w + ch for w in frontier for ch in "ab"]
            words += frontier
        for u in words:
            for v in words:
                w = f"{u}c{v}"
                before = membership("PromisePAL", w)
                after = membership("PromiseTWINPAL", twin_expand(w))
                if u and v and len(u) == len(v):
                    assert after == before
                else:
                    # Empty or unequal blocks are outside both promises.
                    assert after == STATUS_OUTSIDE


class TestGenerate:
    @pytest.mark.parametrize(
        "problem,kwargs",
        [
            ("PromisePAL", {"size": 3}),
            ("PromiseTWINPAL", {"size": 4}),
            ("EXPPromiseTWINPAL", {"size": 2}),
            ("PromiseEQ", {"size": 6}),
            ("EVENODD", {"size": 9, "k": 3}),
        ],
    )
    def test_instances_verified_and_balanced(self, problem, kwargs):
        batch = generate(problem, 10, seed=7, **kwargs)
        assert len(batch) == 10
        statuses = [inst.status for inst in batch]
        assert statuses.count(STATUS_YES) == 5
        assert statuses.count(STATUS_NO) == 5
        for inst in batch:
            k = inst.params.get("k")
            assert membership(problem, inst.string, k=k) == inst.status

    def test_deterministic_per_seed(self):
        a = generate("PromiseEQ", 20, seed=3, size=5)
        b = generate("PromiseEQ", 20, seed=3, size=5)
        c = generate("PromiseEQ", 20, seed=4, size=5)
        assert a == b
        assert [i.string for i in a] != [i.string for i in c]

    def test_outside_instances(self):
        batch = generate("PromisePAL", 4, seed=1, size=3, statuses=(STATUS_OUTSIDE,))
        assert all(inst.status == STATUS_OUTSIDE for inst in batch)
        batch = generate("EVENODD", 4, seed=1, size=3, k=2, statuses=(STATUS_OUTSIDE,))
        assert all(inst.status == STATUS_OUTSIDE for inst in batch)

    def test_infeasible_parameters(self):
        with pytest.raises(InfeasibleParameters):
            generate("PromisePAL", 2, seed=0, size=1)
        with pytest.raises(InfeasibleParameters):
            generate("PromiseTWINPAL", 2, seed=0, size=0)
        with pytest.raises(InfeasibleParameters):
            generate("PromiseEQ", 2, seed=0, size=0)
        with pytest.raises(InfeasibleParameters):
            generate("EVENODD", 2, seed=0, size=0, k=1, statuses=(STATUS_NO,))
        with pytest.raises(InfeasibleParameters):
            generate("EVENODD", 2, seed=0, size=3, k=0, statuses=(STATUS_OUTSIDE,))
        with pytest.raises(InfeasibleParameters):
            generate("EXPPromiseTWINPAL", 2, seed=0, size=3)
        with pytest.raises(InfeasibleParameters):
            generate("EXPPromiseTWINPAL", 2, seed=0, size=2, t=624)

    def test_exp_threshold_parameter(self):
        batch = generate("EXPPromiseTWINPAL", 2, seed=5, size=2, t=700)
        for inst in batch:
            assert inst.params["t"] == 700
            assert membership("EXPPromiseTWINPAL", inst.string) == inst.status

    def test_jsonl_round_trip(self):
        batch = generate("PromiseEQ", 3, seed=11, size=4)
        lines = instances_to_jsonl(batch).splitlines()
        assert len(lines) == 3
        for line, inst in zip(lines, batch):
            doc = json.loads(line)
            assert doc["problem"] == "PromiseEQ"
            assert doc["string"] == inst.string
            assert doc["status"] == inst.status
            assert doc["params"] == inst.params

    def test_seeded_property_sweep(self):
        # A wider randomized sweep across problems and seeds; every
        # generated instance must classify as labeled.
        for seed in range(25):
            for problem, kwargs in (
                ("PromisePAL", {"size": 2 + seed % 4}),
                ("PromiseTWINPAL", {"size": 2 + seed % 3}),
                ("PromiseEQ", {"size": 1 + seed % 7}),
                ("EVENODD", {"size": seed % 9, "k": seed % 5, "statuses": (STATUS_YES,)}),
            ):
                for inst in generate(problem, 4, seed=seed, **kwargs):
                    k = inst.params.get("k")
                    assert membership(problem, inst.string, k=k) == inst.status


class TestDissimilarityWitnesses:
    def test_pal_witness_m1(self):
        ds = build_dissimilarity_witness("PromisePAL", 1)
        assert ds.strings == ("aca", "bcb")
        assert ds.separators == {(0, 1): ("a", "b")}
        assert membership("PromisePAL", "a" + "aca" + "b") == STATUS_YES
        assert membership("PromisePAL", "a" + "bcb" + "b") == STATUS_NO
        assert verify_dissimilarity(ds) == []

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_pal_witness_all_pairs(self, m):
        ds = build_dissimilarity_witness("PromisePAL", m)
        assert len(ds.strings) == 2 ** m
        assert len(ds.separators) == (2 ** m) * (2 ** m - 1) // 2
        assert verify_dissimilarity(ds) == []

    def test_eq_witness(self):
        ds = build_dissimilarity_witness("PromiseEQ", 3)
        assert ds.strings == ("a", "aa", "aaa")
        assert ds.separators[(0, 1)] == ("", "babaa")
        assert membership("PromiseEQ", "ababaa") == STATUS_YES
        assert membership("PromiseEQ", "aababaa") == STATUS_NO
        assert verify_dissimilarity(ds) == []

    def test_eq_witness_large(self):
        ds = build_dissimilarity_witness("PromiseEQ", 50)
        assert len(ds.separators) == 50 * 49 // 2
        assert verify_dissimilarity(ds) == []

    def test_witness_errors(self):
        with pytest.raises(ValueError):
            build_dissimilarity_witness("PromiseTWINPAL", 2)
        with pytest.raises(ValueError):
            build_dissimilarity_witness("PromisePAL", 0)


class TestCycleCheck:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_correct_counter_solves(self, k):
        result = unary_cycle_check(build_evenodd_dfa(k), k)
        assert result.solves
        assert result.counterexample is None
        assert result.structure.tail == 0
        assert result.structure.period == 2 ** (k + 1)

    def test_parity_machine_fails_at_k1(self):
        # Accepting even lengths answers k=0 but not k=1, where every
        # promised input has even length.
        dfa = unary_mod_dfa(2, {0})
        assert unary_cycle_check(dfa, 0).solves
        result = unary_cycle_check(dfa, 1)
        assert not result.solves
        assert result.counterexample == 1
        # The counterexample is concrete: the machine accepts an odd
        # multiple of 2^1.
        assert membership("EVENODD", "a" * (result.counterexample * 2), k=1) == STATUS_NO

    def test_mod3_machine_fails(self):
        result = unary_cycle_check(unary_mod_dfa(3, {0}), 0)
        assert not result.solves
        assert isinstance(result.counterexample, int)

    def test_short_cycle_fails_for_large_k(self):
        # A machine with period 4 cannot track parity at k=2, which
        # needs period 8.
        dfa = unary_mod_dfa(4, {0, 1})
        result = unary_cycle_check(dfa, 2)
        assert not result.solves

    def test_tail_extraction(self):
        classical = {("t0", LEFT_MARKER, "1"): ClassicalStep("t0", MOVE_RIGHT)}
        chain = ["t0", "t1", "c0", "c1", "c2"]
        for here, there in zip(chain, chain[1:] + ["c0"]):
            classical[(here, "a", "1")] = ClassicalStep(there, MOVE_RIGHT)
        for state in chain:
            verdict = "s_a" if state.startswith("t") else "s_r"
            classical[(state, RIGHT_MARKER, "1")] = ClassicalStep(verdict, MOVE_RIGHT)
        dfa = MachineSpec(
            name="TAIL",
            model_class=MODEL_RTDFA,
            register=REGISTER_CLASSICAL,
            quantum_dim=1,
            states=frozenset(chain + ["s_a", "s_r"]),
            initial_state="t0",
            accept_state="s_a",
            reject_state="s_r",
            dont_know_state=None,
            alphabet=("a",),
            classical_delta=classical,
        )
        structure = unary_cycle_check(dfa, 0).structure
        assert structure.tail == 2
        assert structure.period == 3
        assert structure.decisions == ("reject", "reject", "reject")

    def test_check_walks_the_machine_once(self, monkeypatch):
        calls = []
        successor = problems._dfa_successor
        monkeypatch.setattr(
            problems, "_dfa_successor", lambda dfa, state, sym: calls.append(sym) or successor(dfa, state, sym)
        )
        result = unary_cycle_check(build_evenodd_dfa(3), 3)
        assert result.solves
        # Fifteen letters reach the other states of the 16-state cycle, and
        # one more closes it.
        assert calls.count("a") == result.structure.tail + result.structure.period == 16

    def test_result_truthiness(self):
        good = unary_cycle_check(build_evenodd_dfa(1), 1)
        assert bool(good) is True
        bad = unary_cycle_check(unary_mod_dfa(2, {0}), 1)
        assert bool(bad) is False
