"""Tests for the magic-square game and the memory-bounded game."""

import itertools
import json
from fractions import Fraction

import pytest

from exactqfa import analysis
from exactqfa.contextuality import (
    ALICE_QUBITS,
    MAGIC_GRID,
    BOB_QUBITS,
    ClassicalBounded,
    ClassicalDeterministic,
    ObservableGrid,
    QuantumBell,
    QuantumQubit,
    SquareAssignment,
    bell_pair_state,
    best_classical_chi,
    best_classical_strategy,
    chi_value,
    classical_round_cutoff,
    deterministic_win_probability,
    embed_two_qubit,
    memory_game,
    memory_game_summary_csv,
    play_magic_square,
    quantum_chi,
    quantum_chi_terms,
    quantum_joint_distribution,
    report_to_json_text,
    transcript_to_json_text,
)
from exactqfa.qstate import QMatrix, QVector

I4 = QMatrix.identity(4)
MINUS_I4 = QMatrix.from_rows([[-1 if i == j else 0 for j in range(4)] for i in range(4)])


def verify_grid(grid):
    """Exact checks of all structural identities; returns violations."""
    problems = []
    for r in range(3):
        for c in range(3):
            m = grid.cell(r, c)
            if m != m.conj_transpose():
                problems.append(f"cell ({r},{c}) is not Hermitian")
            if not m.is_unitary():
                problems.append(f"cell ({r},{c}) is not unitary")
            if m @ m != I4:
                problems.append(f"cell ({r},{c}) does not square to the identity")
    for r in range(3):
        for c1 in range(3):
            for c2 in range(c1 + 1, 3):
                a, b = grid.cell(r, c1), grid.cell(r, c2)
                if a @ b != b @ a:
                    problems.append(f"row {r} cells {c1},{c2} do not commute")
    for c in range(3):
        for r1 in range(3):
            for r2 in range(r1 + 1, 3):
                a, b = grid.cell(r1, c), grid.cell(r2, c)
                if a @ b != b @ a:
                    problems.append(f"column {c} cells {r1},{r2} do not commute")
    for r in range(3):
        prod = grid.cell(r, 0) @ grid.cell(r, 1) @ grid.cell(r, 2)
        if prod != I4:
            problems.append(f"row {r} does not multiply to +I")
    for c, want in ((0, I4), (1, I4), (2, MINUS_I4)):
        prod = grid.cell(0, c) @ grid.cell(1, c) @ grid.cell(2, c)
        if prod != want:
            sign = "+I" if want == I4 else "-I"
            problems.append(f"column {c} does not multiply to {sign}")
    return problems


class TestChiValue:
    def test_all_plus_one_reaches_the_bound(self):
        assert chi_value(SquareAssignment((1,) * 9)) == 4

    def test_single_flip_oracles(self):
        # Flipping the corner cell shared by a row and the negated
        # column leaves the value at 4; flipping the top-left cell
        # costs two from its row and two from its column.
        entries = [1] * 9
        entries[8] = -1
        assert chi_value(SquareAssignment(tuple(entries))) == 4
        entries = [1] * 9
        entries[0] = -1
        assert chi_value(SquareAssignment(tuple(entries))) == 0

    def test_exhaustive_maximum_is_four(self):
        best_value, best = best_classical_chi()
        assert best_value == 4
        assert chi_value(best) == 4

    def test_all_values_even_and_bounded(self):
        values = {
            chi_value(SquareAssignment(bits))
            for bits in itertools.product((-1, 1), repeat=9)
        }
        assert max(values) == 4
        assert 6 not in values
        assert all(v % 2 == 0 and -6 <= v <= 4 for v in values)

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            SquareAssignment((1, 1, 1, 1, 1, 1, 1, 1))
        with pytest.raises(ValueError):
            SquareAssignment((1, 1, 1, 1, 0, 1, 1, 1, 1))


class TestObservableGrid:
    def test_magic_grid_satisfies_all_identities(self):
        assert verify_grid(MAGIC_GRID) == []

    def test_broken_grid_is_detected(self):
        broken = ObservableGrid.from_labels(
            (("ZI", "IZ", "ZZ"), ("IX", "XI", "XX"), ("ZX", "XZ", "XY"))
        )
        violations = verify_grid(broken)
        assert violations
        assert any("column" in v or "row" in v for v in violations)

    def test_cells_are_hermitian_unitary(self):
        for r in range(3):
            for c in range(3):
                m = MAGIC_GRID.cell(r, c)
                assert m == m.conj_transpose()
                assert m.is_unitary()


class TestEmbedding:
    def test_bell_state_is_normalized(self):
        assert bell_pair_state().norm2() == Fraction(1)

    def test_identity_embeds_to_identity(self):
        embedded = embed_two_qubit(QMatrix.identity(4), ALICE_QUBITS)
        assert embedded == QMatrix.identity(16)

    def test_zz_embedding_eigenvalues(self):
        zz = MAGIC_GRID.cell(0, 2)
        embedded = embed_two_qubit(zz, ALICE_QUBITS)
        for index in range(16):
            bits = [(index >> (3 - q)) & 1 for q in range(4)]
            sign = (-1) ** (bits[0] + bits[2])
            got = embedded.apply(QVector.basis(16, index))
            assert got == QVector.basis(16, index).scale(sign)

    def test_alice_and_bob_embeddings_commute(self):
        a = embed_two_qubit(MAGIC_GRID.cell(0, 0), ALICE_QUBITS)
        b = embed_two_qubit(MAGIC_GRID.cell(2, 2), BOB_QUBITS)
        assert a @ b == b @ a


class TestQuantumChi:
    def test_value_is_exactly_six(self):
        assert quantum_chi() == Fraction(6)

    def test_individual_terms(self):
        terms = quantum_chi_terms()
        for label in ("row0", "row1", "row2", "col0", "col1"):
            assert terms[label] == Fraction(1)
        # The last column's product is -I, so its raw expectation is -1
        # and the negation in the sum contributes +1.
        assert terms["col2"] == Fraction(-1)


class TestJointDistribution:
    def test_probabilities_sum_to_one(self):
        for i in range(3):
            for j in range(3):
                dist = quantum_joint_distribution(i, j)
                assert sum((p for _, _, p in dist), Fraction(0)) == 1
                assert all(p > 0 for _, _, p in dist)

    def test_every_outcome_wins(self):
        for i in range(3):
            for j in range(3):
                for alice_out, bob_out, _ in quantum_joint_distribution(i, j):
                    assert alice_out[0] * alice_out[1] * alice_out[2] == 1
                    want = -1 if j == 2 else 1
                    assert bob_out[0] * bob_out[1] * bob_out[2] == want
                    assert alice_out[j] == bob_out[i]

    def test_alice_marginal_is_uniform_over_valid_rows(self):
        dist = quantum_joint_distribution(0, 0)
        marginal = {}
        for alice_out, _, p in dist:
            marginal[alice_out] = marginal.get(alice_out, Fraction(0)) + p
        assert set(marginal) == {
            row for row in itertools.product((-1, 1), repeat=3) if row[0] * row[1] * row[2] == 1
        }
        assert all(p == Fraction(1, 4) for p in marginal.values())


class TestMagicSquareGame:
    def test_quantum_always_wins(self):
        transcript = play_magic_square(QuantumBell(), 300, seed=11)
        assert transcript.wins == 300
        assert transcript.value == 1
        for record in transcript.rounds:
            assert record.win

    def test_deterministic_by_seed(self):
        a = play_magic_square(QuantumBell(), 50, seed=5)
        b = play_magic_square(QuantumBell(), 50, seed=5)
        c = play_magic_square(QuantumBell(), 50, seed=6)
        assert a == b
        assert a != c

    def test_classical_strategy_value(self):
        alice = ((1, 1, 1),) * 3
        bob = ((1, 1, 1), (1, 1, 1), (1, 1, -1))
        strategy = ClassicalDeterministic(alice, bob)
        assert deterministic_win_probability(strategy) == Fraction(8, 9)
        transcript = play_magic_square(strategy, 200, seed=3)
        # Only the input pair (2, 2) loses under this table.
        for record in transcript.rounds:
            assert record.win == ((record.i, record.j) != (2, 2))

    def test_best_classical_is_eight_ninths(self):
        value, strategy = best_classical_strategy()
        assert value == Fraction(8, 9)
        assert deterministic_win_probability(strategy) == Fraction(8, 9)

    def test_table_validation(self):
        good_bob = ((1, 1, 1), (1, 1, 1), (1, 1, -1))
        with pytest.raises(ValueError):
            ClassicalDeterministic(((1, 1, -1),) * 3, good_bob)
        with pytest.raises(ValueError):
            ClassicalDeterministic(((1, 1, 1),) * 3, ((1, 1, 1),) * 3)
        with pytest.raises(ValueError):
            ClassicalDeterministic(((1, 1),) * 3, good_bob)
        with pytest.raises(ValueError):
            ClassicalDeterministic(((1, 0, 1),) * 3, good_bob)
        with pytest.raises(ValueError):
            play_magic_square(QuantumBell(), 0, seed=1)

    def test_transcript_json(self):
        transcript = play_magic_square(QuantumBell(), 5, seed=2)
        doc = json.loads(transcript_to_json_text(transcript))
        assert doc["rounds_played"] == 5
        assert doc["wins"] == 5
        assert doc["value"] == "1/1"
        assert len(doc["rounds"]) == 5
        assert set(doc["rounds"][0]) == {"alice", "bob", "i", "j", "win"}


class TestMemoryGame:
    def test_quantum_scores_every_round(self):
        report = memory_game(QuantumQubit(), 8, seed=1)
        assert report.value == 8
        assert report.expected_value == 8
        assert report.schedule == (4, 8, 12, 16, 20, 24, 28, 32)
        assert all(r.term == 1 for r in report.per_round)
        assert all(r.yes_answer == 1 and r.no_answer == -1 for r in report.per_round)

    def test_quantum_rounds_call_the_runner_on_the_analysis_module(self, monkeypatch):
        # A wrapper on analysis.run_unary_length, as a tracer puts there,
        # sees both instances of every round.
        calls = []
        runner = analysis.run_unary_length
        monkeypatch.setattr(
            analysis, "run_unary_length", lambda *args: calls.append(args[1]) or runner(*args)
        )
        report = memory_game(QuantumQubit(), 2, seed=5)
        assert len(calls) == 4
        assert calls == [
            m * 2**r.k for r in report.per_round for m in (r.yes_multiplier, r.no_multiplier)
        ]

    def test_classical_within_budget_scores(self):
        report = memory_game(ClassicalBounded(2 ** 33), 8, seed=1)
        assert report.expected_value == 8
        assert report.value == 8

    def test_classical_cutoff(self):
        report = memory_game(ClassicalBounded(2 ** 9), 8, seed=7)
        assert report.expected_value == 2
        assert all(r.term == 1 for r in report.per_round[:2])
        assert all(r.expected_term == 0 for r in report.per_round[2:])
        for r in report.per_round[2:]:
            assert r.term in (Fraction(-1), Fraction(0), Fraction(1))

    def test_cutoff_formula(self):
        for exponent in range(1, 45):
            n = 2 ** exponent
            assert classical_round_cutoff(n) == (exponent - 1) // 4
        assert classical_round_cutoff(2 ** 33) == 8

    def test_guessing_rounds_average_to_zero(self):
        # With N=2 every round is a guess; the mean realized value over
        # many seeds should be near zero (binomial with 400 terms).
        total = Fraction(0)
        for seed in range(100):
            total += memory_game(ClassicalBounded(2), 4, seed=seed).value
        assert abs(total) / 100 < Fraction(1, 2)

    def test_deterministic_by_seed(self):
        a = memory_game(ClassicalBounded(4), 5, seed=3)
        b = memory_game(ClassicalBounded(4), 5, seed=3)
        assert a == b

    def test_report_json(self):
        report = memory_game(QuantumQubit(), 3, seed=0)
        doc = json.loads(report_to_json_text(report))
        assert doc["responder"] == "QuantumQubit"
        assert doc["memory_states"] is None
        assert doc["value"] == "3/1"
        assert doc["schedule"] == [4, 8, 12]
        assert len(doc["rounds"]) == 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            memory_game(QuantumQubit(), 0, seed=1)
        with pytest.raises(ValueError):
            ClassicalBounded(1)

    def test_summary_csv(self):
        reports = [
            memory_game(QuantumQubit(), 4, seed=1),
            memory_game(ClassicalBounded(2 ** 9), 4, seed=1),
        ]
        csv_text = memory_game_summary_csv(reports)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "problem,model,memory,value,value_decimal"
        assert len(lines) == 3
        assert "QuantumQubit" in lines[1] and "1 qubit" in lines[1]
        assert "4/1" in lines[1] and "512 states" in lines[2]
