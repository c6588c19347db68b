"""Magic-square game and the memory-bounded verification game.

The first half implements the 3x3 grid of two-qubit Pauli observables
whose six product identities (three rows multiply to +I, the first two
columns to +I, the last column to -I) make a perfect classical cell
assignment impossible.  The classical optimum 8/9 is found by
exhaustive search over constrained deterministic tables, and the
quantum strategy is sampled from the exact joint outcome distribution
of sequential commuting measurements on two shared Bell pairs.

The second half plays a repeated parity-verification game: round j
poses one even and one odd multiple-of-2^(4j) counting question.  A
single exact-rotation qubit answers every round with certainty, while
a classical responder limited to N states can only answer rounds whose
modulus 2^(4j+1) fits inside N and must guess at random afterwards.
The normalized score separates the two models by an unbounded margin.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import analysis
from .constructions import build_evenodd_mcqfa
from .exactnum import GR_ZERO, Document, GaussianRational, cut_points, decimal, prob_exact, to_json
from .machines import MachineSpec
from .qstate import QMatrix, QVector

_HALF = Fraction(1, 2)

PAULI_I = QMatrix.identity(2)
PAULI_X = QMatrix.from_rows([[0, 1], [1, 0]])
PAULI_Y = QMatrix.from_rows(
    [
        [GaussianRational(Fraction(0)), GaussianRational(Fraction(0), Fraction(-1))],
        [GaussianRational(Fraction(0), Fraction(1)), GaussianRational(Fraction(0))],
    ]
)
PAULI_Z = QMatrix.from_rows([[1, 0], [0, -1]])
_PAULI = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


@dataclass(frozen=True)
class SquareAssignment:
    """A deterministic +-1 labeling of the nine grid cells."""

    entries: Tuple[int, int, int, int, int, int, int, int, int]

    def __post_init__(self):
        if len(self.entries) != 9 or any(e not in (-1, 1) for e in self.entries):
            raise ValueError("entries must be nine values in {-1,+1}")

    def cell(self, row: int, col: int) -> int:
        return self.entries[3 * row + col]


def chi_value(assignment: SquareAssignment) -> int:
    """Row sums plus column sums with the last column negated.

    Each term is the product of three cells, so a perfect assignment
    would need every row product +1 and column products +1, +1, -1;
    the parity obstruction caps the total at 4 out of 6.
    """
    rows = [assignment.cell(r, 0) * assignment.cell(r, 1) * assignment.cell(r, 2) for r in range(3)]
    cols = [assignment.cell(0, c) * assignment.cell(1, c) * assignment.cell(2, c) for c in range(3)]
    return rows[0] + rows[1] + rows[2] + cols[0] + cols[1] - cols[2]


def best_classical_chi() -> Tuple[int, SquareAssignment]:
    """Exhaustive maximum of chi over all 512 assignments."""
    best = None
    best_value = -7
    for bits in itertools.product((-1, 1), repeat=9):
        a = SquareAssignment(bits)
        v = chi_value(a)
        if v > best_value:
            best_value, best = v, a
    return best_value, best


@dataclass(frozen=True)
class ObservableGrid:
    """3x3 grid of two-qubit observables with labeled Pauli factors."""

    labels: Tuple[Tuple[str, str, str], ...]
    cells: Tuple[Tuple[QMatrix, ...], ...]

    @staticmethod
    def from_labels(labels: Sequence[Sequence[str]]) -> "ObservableGrid":
        cells = tuple(
            tuple(_PAULI[lab[0]].kron(_PAULI[lab[1]]) for lab in row) for row in labels
        )
        return ObservableGrid(tuple(tuple(row) for row in labels), cells)

    def cell(self, row: int, col: int) -> QMatrix:
        return self.cells[row][col]


# The standard satisfying grid: every row multiplies to +I and the
# columns to +I, +I, -I, each cell squaring to the identity.
MAGIC_GRID = ObservableGrid.from_labels(
    (
        ("ZI", "IZ", "ZZ"),
        ("IX", "XI", "XX"),
        ("ZX", "XZ", "YY"),
    )
)

_I4 = QMatrix.identity(4)


# Shared state: two Bell pairs in a 16-dimensional register.  Global
# qubit order is (Alice 1, Bob 1, Alice 2, Bob 2), most significant
# first, so the paired amplitudes 1/2 sit at indices 0, 3, 12, 15.
def bell_pair_state() -> QVector:
    entries = [GaussianRational(Fraction(0))] * 16
    for index in (0, 3, 12, 15):
        entries[index] = GaussianRational(_HALF)
    return QVector(entries)


ALICE_QUBITS = (0, 2)
BOB_QUBITS = (1, 3)
_TOTAL_QUBITS = 4


def embed_two_qubit(op: QMatrix, qubits: Tuple[int, int]) -> QMatrix:
    """Lift a two-qubit observable to the full 16-dimensional register,
    acting on the given global qubits (most significant bit first)."""
    hi, lo = qubits
    dim = 1 << _TOTAL_QUBITS
    shift_hi = _TOTAL_QUBITS - 1 - hi
    shift_lo = _TOTAL_QUBITS - 1 - lo
    mask = (1 << shift_hi) | (1 << shift_lo)
    rows = []
    for r in range(dim):
        local_r = (((r >> shift_hi) & 1) << 1) | ((r >> shift_lo) & 1)
        row = [GR_ZERO] * dim
        for local_c in range(4):
            entry = op.rows[local_r][local_c]
            if entry.is_zero():
                continue
            c = (r & ~mask) | (((local_c >> 1) & 1) << shift_hi) | ((local_c & 1) << shift_lo)
            row[c] = entry
        rows.append(tuple(row))
    return QMatrix(tuple(rows))


def _expectation(op: QMatrix, state: QVector) -> GaussianRational:
    return state.inner(op.apply(state))


def quantum_chi_terms(grid: ObservableGrid = MAGIC_GRID) -> Dict[str, Fraction]:
    """Raw exact expectations of the six products on Bell x Bell.

    Row products are taken on Alice's qubit pair and column products on
    Bob's; every product is proportional to the identity, so rows and
    the first two columns give +1 and the last column gives -1.
    """
    state = bell_pair_state()
    terms: Dict[str, Fraction] = {}
    for r in range(3):
        prod = _I4
        for c in range(3):
            prod = prod @ grid.cell(r, c)
        value = _expectation(embed_two_qubit(prod, ALICE_QUBITS), state)
        if value.im != 0:
            raise ArithmeticError("row expectation has an imaginary part")
        terms[f"row{r}"] = value.re
    for c in range(3):
        prod = _I4
        for r in range(3):
            prod = prod @ grid.cell(r, c)
        value = _expectation(embed_two_qubit(prod, BOB_QUBITS), state)
        if value.im != 0:
            raise ArithmeticError("column expectation has an imaginary part")
        terms[f"col{c}"] = value.re
    return terms


def quantum_chi(grid: ObservableGrid = MAGIC_GRID) -> Fraction:
    """Sum of the six exact expectations, the last column negated;
    equals 6."""
    terms = quantum_chi_terms(grid)
    signed = [terms["row0"], terms["row1"], terms["row2"], terms["col0"], terms["col1"], -terms["col2"]]
    return sum(signed, Fraction(0))


@dataclass(frozen=True)
class QuantumBell:
    """Strategy: measure grid observables on shared Bell pairs."""


@dataclass(frozen=True)
class ClassicalDeterministic:
    """Strategy: fixed output tables.  ``alice[i]`` lists the three
    cell values for row input i and must have product +1; ``bob[j]``
    lists column j and must have product +1, +1, -1 respectively."""

    alice: Tuple[Tuple[int, int, int], ...]
    bob: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        _validate_table(self.alice, (1, 1, 1), "alice")
        _validate_table(self.bob, (1, 1, -1), "bob")


def _validate_table(table, parities, who: str) -> None:
    if len(table) != 3:
        raise ValueError(f"{who} table must have three entries")
    for index, (row, parity) in enumerate(zip(table, parities)):
        if len(row) != 3 or any(v not in (-1, 1) for v in row):
            raise ValueError(f"{who} table entry {index} must be three values in {{-1,+1}}")
        if row[0] * row[1] * row[2] != parity:
            raise ValueError(f"{who} table entry {index} has product {row[0]*row[1]*row[2]}, needs {parity}")


Strategy = Union[QuantumBell, ClassicalDeterministic]


@dataclass(frozen=True)
class GameRound:
    i: int
    j: int
    alice: Tuple[int, int, int]
    bob: Tuple[int, int, int]
    win: bool


@dataclass(frozen=True)
class GameTranscript(Document):
    rounds: Tuple[GameRound, ...]
    wins: int
    value: Fraction

    def to_json(self) -> dict:
        return {**super().to_json(), "rounds_played": len(self.rounds)}


def _round_wins(i: int, j: int, alice_out, bob_out) -> bool:
    if alice_out[0] * alice_out[1] * alice_out[2] != 1:
        return False
    want = -1 if j == 2 else 1
    if bob_out[0] * bob_out[1] * bob_out[2] != want:
        return False
    return alice_out[j] == bob_out[i]


@lru_cache(maxsize=None)
def _embedded_cell(row: int, col: int, side: str) -> QMatrix:
    qubits = ALICE_QUBITS if side == "alice" else BOB_QUBITS
    return embed_two_qubit(MAGIC_GRID.cell(row, col), qubits)


@lru_cache(maxsize=None)
def quantum_joint_distribution(
    i: int, j: int
) -> Tuple[Tuple[Tuple[int, int, int], Tuple[int, int, int], Fraction], ...]:
    """Exact joint outcome distribution when Alice measures row i and
    Bob measures column j on the shared Bell pairs.

    The six observables are measured sequentially; each branch keeps an
    unnormalized state with its exact squared norm, so every leaf
    probability is an exact dyadic rational and zero-mass branches are
    pruned exactly.  Commutation makes the measurement order
    irrelevant to the result.
    """
    ops = [_embedded_cell(i, c, "alice") for c in range(3)]
    ops += [_embedded_cell(r, j, "bob") for r in range(3)]
    leaves: List[Tuple[Tuple[int, int, int], Tuple[int, int, int], Fraction]] = []

    def walk(state: QVector, weight: Fraction, outcomes: Tuple[int, ...]) -> None:
        depth = len(outcomes)
        if depth == 6:
            leaves.append((outcomes[:3], outcomes[3:], weight))
            return
        op = ops[depth]
        plus = (op.apply(state) + state).scale(_HALF)
        weight_plus = plus.norm2()
        if weight_plus != 0:
            walk(plus, weight_plus, outcomes + (1,))
        if weight_plus != weight:
            walk(state - plus, weight - weight_plus, outcomes + (-1,))

    walk(bell_pair_state(), Fraction(1), ())
    return tuple(leaves)


@lru_cache(maxsize=None)
def _quantum_rounds(i: int, j: int) -> Tuple[Tuple[int, ...], Tuple[GameRound, ...]]:
    """The round table of the quantum strategy on inputs (i, j).

    It gives the 64-bit draws at which each leaf of
    quantum_joint_distribution after the first begins, and one GameRound
    per leaf, win flag included. Leaf probabilities are dyadic with
    small denominators, so every cumulative threshold times 2^64 is an
    integer and one 64-bit draw samples the distribution exactly: the
    draw picks the last leaf that begins at or below it.
    """
    leaves = quantum_joint_distribution(i, j)
    cumulative = list(itertools.accumulate(p for _, _, p in leaves))
    if cumulative[-1] != 1:
        raise AssertionError("joint distribution does not sum to 1")
    cuts = cut_points([(c, c) for c in cumulative], 64)
    rounds = tuple(GameRound(i, j, alice, bob, _round_wins(i, j, alice, bob)) for alice, bob, _ in leaves)
    return tuple(lo for lo, _ in cuts[1:]), rounds


def play_magic_square(strategy: Strategy, rounds: int, seed) -> GameTranscript:
    """Sample the game: uniform row/column inputs each round, outputs
    from the strategy, win when both parities hold and the common cell
    agrees.

    Every round draws its row and then its column as ``getrandbits(2)``,
    drawn again while it is 3, which is what ``randrange(3)`` does; the
    quantum strategy then draws 64 bits and looks its round up in the
    (i, j) table of ``_quantum_rounds``, while a classical strategy plays
    the one round its tables give for (i, j). The nine tables are looked
    up once per game.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    draw = Random(f"magic-square:{seed}").getrandbits
    quantum = isinstance(strategy, QuantumBell)
    if quantum:
        tables = [_quantum_rounds(i, j) for i in range(3) for j in range(3)]
    else:
        fixed = [
            GameRound(i, j, alice, bob, _round_wins(i, j, alice, bob))
            for i, alice in enumerate(map(tuple, strategy.alice))
            for j, bob in enumerate(map(tuple, strategy.bob))
        ]
    played: List[GameRound] = []
    for _ in range(rounds):
        i = draw(2)
        while i == 3:
            i = draw(2)
        j = draw(2)
        while j == 3:
            j = draw(2)
        if quantum:
            starts, table = tables[3 * i + j]
            played.append(table[bisect_right(starts, draw(64))])
        else:
            played.append(fixed[3 * i + j])
    wins = sum(r.win for r in played)
    return GameTranscript(tuple(played), wins, Fraction(wins, rounds))


def _parity_rows(parity: int):
    return [row for row in itertools.product((-1, 1), repeat=3) if row[0] * row[1] * row[2] == parity]


def deterministic_win_probability(strategy: ClassicalDeterministic) -> Fraction:
    """Win probability under uniform inputs: the average over the nine
    (row, column) pairs of the common-cell agreement."""
    hits = sum(
        strategy.alice[i][j] == strategy.bob[j][i]
        for i in range(3)
        for j in range(3)
    )
    return Fraction(hits, 9)


def best_classical_strategy() -> Tuple[Fraction, ClassicalDeterministic]:
    """Exhaustive search over all 64 x 64 constrained table pairs."""
    plus_rows = _parity_rows(1)
    minus_rows = _parity_rows(-1)
    best_value = Fraction(0)
    best = None
    for alice in itertools.product(plus_rows, repeat=3):
        for b0 in plus_rows:
            for b1 in plus_rows:
                for b2 in minus_rows:
                    strategy = ClassicalDeterministic(alice, (b0, b1, b2))
                    value = deterministic_win_probability(strategy)
                    if value > best_value:
                        best_value, best = value, strategy
    return best_value, best


# ---------------------------------------------------------------------------
# Memory-bounded verification game.


@dataclass(frozen=True)
class QuantumQubit:
    """Responder holding one exactly-rotated qubit."""


@dataclass(frozen=True)
class ClassicalBounded:
    """Responder limited to a total budget of N classical states."""

    memory_states: int

    def __post_init__(self):
        if self.memory_states < 2:
            raise ValueError("the state budget must be at least 2")


Responder = Union[QuantumQubit, ClassicalBounded]


@dataclass(frozen=True)
class MemoryRound:
    round_index: int
    k: int
    yes_multiplier: int
    no_multiplier: int
    yes_answer: int
    no_answer: int
    term: Fraction
    expected_term: Fraction


@dataclass(frozen=True)
class InequalityReport(Document):
    responder: str
    memory_states: Optional[int]
    rounds_played: int
    schedule: Tuple[int, ...]
    per_round: Tuple[MemoryRound, ...]
    value: Fraction
    expected_value: Fraction

    def to_json(self) -> dict:
        # The document names the rounds "rounds", and each one's index "round".
        doc = super().to_json()
        doc["rounds"] = [{"round": r.pop("round_index"), **r} for r in doc.pop("per_round")]
        return doc


_MULTIPLIER_RANGE = 16


def _quantum_parity_answer(counter: MachineSpec, k: int, multiplier: int) -> int:
    """Run the exact one-qubit counter ``build_evenodd_mcqfa(k)`` on the
    unary instance of length multiplier * 2^k via the closed-form length
    runner; the verdict is deterministic because the final rotation is
    an exact half-turn multiple. The runner is looked up on the
    ``analysis`` module, so a wrapper put there sees every call."""
    dist = analysis.run_unary_length(counter, multiplier * 2 ** k)
    if dist.p_accept == prob_exact(1):
        return 1
    if dist.p_reject == prob_exact(1):
        return -1
    raise ArithmeticError("the parity counter gave a non-deterministic verdict")


# The counters of the last few games' rounds: one game plays round j with
# exponent 4j, so games of up to 16 rounds build each counter once.
_parity_counter = lru_cache(maxsize=16)(build_evenodd_mcqfa)


def memory_game(responder: Responder, rounds: int, seed) -> InequalityReport:
    """Play the escalating parity game.

    Round j (1-based) uses exponent k = 4j and poses two instances of
    the multiple-of-2^k parity question: a yes instance with an even
    multiplier and a no instance with an odd multiplier, both drawn
    uniformly.  Answers are +1 for "even" and -1 for "odd"; the round's
    normalized term is (yes answer - no answer) / 2, so a perfect round
    contributes exactly 1 and a blind guess contributes 0 on average.

    The quantum responder applies one exact rotation per input letter
    and reads the parity off its qubit, so it scores the full number of
    rounds.  The classical responder counts modulo 2^(k+1) while that
    many states fit in its budget and guesses uniformly afterwards, so
    only rounds with 2^(4j+1) <= N contribute in expectation.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    rng = Random(f"memory-game:{seed}")
    per_round: List[MemoryRound] = []
    schedule = tuple(4 * j for j in range(1, rounds + 1))
    for j in range(1, rounds + 1):
        k = 4 * j
        yes_multiplier = 2 * rng.randrange(_MULTIPLIER_RANGE)
        no_multiplier = 2 * rng.randrange(_MULTIPLIER_RANGE) + 1
        if isinstance(responder, QuantumQubit):
            counter = _parity_counter(k)
            yes_answer = _quantum_parity_answer(counter, k, yes_multiplier)
            no_answer = _quantum_parity_answer(counter, k, no_multiplier)
            expected = Fraction(1)
        elif 2 ** (k + 1) <= responder.memory_states:
            # Within budget the responder tracks the input length
            # modulo 2^(k+1); the verdict depends only on the
            # multiplier's parity.  Computed arithmetically: the
            # explicit counting machine would need 2^(k+1) states.
            yes_answer = 1 if yes_multiplier % 2 == 0 else -1
            no_answer = 1 if no_multiplier % 2 == 0 else -1
            expected = Fraction(1)
        else:
            yes_answer = 1 if rng.getrandbits(1) else -1
            no_answer = 1 if rng.getrandbits(1) else -1
            expected = Fraction(0)
        term = Fraction(yes_answer - no_answer, 2)
        per_round.append(
            MemoryRound(j, k, yes_multiplier, no_multiplier, yes_answer, no_answer, term, expected)
        )
    value = sum((r.term for r in per_round), Fraction(0))
    expected_value = sum((r.expected_term for r in per_round), Fraction(0))
    if isinstance(responder, QuantumQubit):
        kind, memory = "QuantumQubit", None
    else:
        kind, memory = "ClassicalBounded", responder.memory_states
    return InequalityReport(
        responder=kind,
        memory_states=memory,
        rounds_played=rounds,
        schedule=schedule,
        per_round=tuple(per_round),
        value=value,
        expected_value=expected_value,
    )


def classical_round_cutoff(memory_states: int) -> int:
    """Largest round index a classical responder answers exactly: the
    count of j >= 1 with 2^(4j+1) <= N, i.e. floor((log2(N) - 1) / 4)
    for N a power of two."""
    if memory_states < 2:
        raise ValueError("the state budget must be at least 2")
    j = 0
    while 2 ** (4 * (j + 1) + 1) <= memory_states:
        j += 1
    return j


def memory_game_summary_csv(reports: Sequence[InequalityReport]) -> str:
    """Comparison table: one row per report with the exact value and a
    15-significant-digit decimal rendering."""
    lines = ["problem,model,memory,value,value_decimal"]
    for report in reports:
        memory = "1 qubit" if report.memory_states is None else f"{report.memory_states} states"
        lines.append(
            f"parity-of-multiples,{report.responder},{memory},"
            f"{to_json(report.value)},{decimal(report.value)}"
        )
    return "\n".join(lines) + "\n"


def transcript_to_json_text(transcript: GameTranscript) -> str:
    return json.dumps(transcript.to_json(), sort_keys=True, indent=2) + "\n"


def report_to_json_text(report: InequalityReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
