"""Exact and statistical execution of machine specs.

Exact runs track every computation branch with big-integer rational
weights; no floating point ever decides an outcome. Probabilities are
reported as ExactProb where the arithmetic stays rational and as
certified enclosing intervals (ApproxProb) where a rotation register is
measured at an angle whose sine is irrational. A mid-input measurement
must have exact branch probabilities, because its branches keep
evolving; an interval-valued measurement is legal only when every
outcome immediately halts or restarts the machine. No arithmetic runs
on these values: each runner computes every value it reports where it
reports it, from integer mass ends, or for a restart loop from the
(lo, hi) ends of one round's halting masses.

Monte Carlo runs sample measurement outcomes by comparing integer draws
with integer cut points: the exact rational (or certified interval)
cumulative thresholds scaled by 2^64 and rounded inward. A draw too
close to a threshold to decide gains 64 more bits and is compared at
the wider scale, so sampling is unbiased even for interval-valued
probabilities. Each trial reseeds the run's one generator, a run with
no random choice steps one trial and seeds nothing, and a trial
moves from one sampled square to the next along edges cached on the
square, without building or hashing a configuration.

Every runner drives one kernel, whose squares are compiled once per
machine; a certain square makes no Fraction, and a branch that decides
or restarts carries no register. A realtime run resolves only the
squares that measure or decide, and walks the certain ones
(``_Square.walk``), a run of a self-looping square's letter in one step
(``_Square.run``). A realtime PFA's square branches on each nonzero
entry of its matrix row, and it decides only at the right end-marker.

Every realtime run takes one path (``_run_blocks``): its input is its
primitive root to a power, and one state of integer weights and integer
mass ends over one denominator goes from the left end-marker to the
right one, a square (``_step``) or a block (``_advance_blocks``) at a
time. Once the block rows recur, a jump (``_jump``) raises them by square
and multiply on that same state, with the product that adds a block's
rows into it (``_combine``). A unary run takes this path on its letter,
where each live branch first tries a closed form: a self-looping
square takes the whole length as one run, and a deterministic walk
skips its whole cycles. A two-way run carries the same state, keyed
also by head position and sweeps; it walks certain squares (``_stretch``)
and resolves a tick (``_sweep_tick``) only where a square measures,
decides or fails; all exact runs end in ``_masses_to_distribution``.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .exactnum import (
    ApproxProb,
    Document,
    ExactnessError,
    ExactProb,
    MAX_PRECISION_BITS,
    PROB_ONE,
    PROB_ZERO,
    ProbValue,
    RationalInterval,
    cut_points,
    ratio,
    reduced_over,
    to_json,
)
from .machines import (
    LEFT_MARKER,
    MOVE_LEFT,
    MOVE_RIGHT,
    MOVE_STAY,
    REGISTER_MATRIX,
    REGISTER_ROTATION,
    RESTART_TARGET,
    RIGHT_MARKER,
    MachineSpec,
    MeasureAction,
    MeasureRotationAction,
    RotateAction,
    UNIT_OUTCOME,
    UnitaryAction,
)
from .qstate import (
    ProjectiveMeasurement,
    QVector,
    ROTATION_AT_ONE,
    ROTATION_AT_ZERO,
    RotationRegister,
)

Register = Union[QVector, RotationRegister, None]

CATEGORY_ACCEPT = "accept"
CATEGORY_REJECT = "reject"
CATEGORY_DONT_KNOW = "dont_know"
CATEGORY_CONTINUE = "continue"
CATEGORIES = (CATEGORY_ACCEPT, CATEGORY_REJECT, CATEGORY_DONT_KNOW, CATEGORY_CONTINUE)


class MachineError(RuntimeError):
    """A run hit a hole in the transition tables or broke an invariant."""


class NonterminatingError(ValueError):
    """A run can be shown never to end: zero certified halting mass per
    round, or no reachable halting decision."""


# The shared writer, by the name perfbench's certified-rotation text calls.
prob_to_json = to_json


@dataclass(frozen=True)
class OutcomeDistribution(Document):
    """Terminal mass of one pass over the input, by decision category.

    ``p_continue`` holds restart mass for a restarting machine, the
    residual live mass of a sweep-capped run, and for a PFA the mass
    that ends outside the halting states; it is exactly zero for any
    other realtime machine.
    """

    p_accept: ProbValue
    p_reject: ProbValue
    p_dont_know: ProbValue
    p_continue: ProbValue


def _masses_to_distribution(decided: dict, den: int, base: Optional[int] = None) -> OutcomeDistribution:
    """The distribution whose masses are ``decided`` / den: ``decided``
    maps a category to the integer ends (lo, hi) of its mass times den.

    The total-mass check asks whether lo_total <= den <= hi_total, and
    each category is divided once (``ratio``), exact when its two ends
    agree and ``PROB_ZERO`` when both are 0. After a
    jump every prime of den divides ``base``, so each division is
    ``reduced_over``: no gcd runs on integers the size of the answer.
    """
    sums = [decided.get(c, (0, 0)) for c in CATEGORIES]
    lo_total, hi_total = sum(lo for lo, _ in sums), sum(hi for _, hi in sums)
    if not lo_total <= den <= hi_total:
        total = RationalInterval(Fraction(lo_total, den), Fraction(hi_total, den))
        raise MachineError(f"total terminal mass {total} does not cover 1")

    def over(x: int) -> Fraction:
        return ratio(x, den) if base is None else reduced_over(x, den, base)

    return OutcomeDistribution(
        *(ApproxProb(RationalInterval(over(lo), over(hi))) if lo != hi else ExactProb(over(lo)) if lo else PROB_ZERO
          for lo, hi in sums)
    )


_BASIS_2 = ProjectiveMeasurement.from_partition(2, {"1": [0], "2": [1]})

_MOVE_OFFSET = {MOVE_LEFT: -1, MOVE_STAY: 0, MOVE_RIGHT: 1}


def initial_register(spec: MachineSpec) -> Register:
    if spec.register == REGISTER_MATRIX:
        return QVector.basis(spec.quantum_dim, 0)
    if spec.register == REGISTER_ROTATION:
        return ROTATION_AT_ZERO
    return None


def _decision(spec: MachineSpec, state: str) -> Optional[str]:
    if state == spec.accept_state:
        return CATEGORY_ACCEPT
    if state == spec.reject_state:
        return CATEGORY_REJECT
    if state == spec.dont_know_state:
        return CATEGORY_DONT_KNOW
    if state == RESTART_TARGET:
        return CATEGORY_CONTINUE
    return None


class _Memo(dict):
    """A dict that keeps a value from its key's second sighting on.

    A first sighting keeps only the key's hash, so a run whose keys never
    recur keeps no old register alive.
    """

    def __init__(self):
        super().__init__()
        self._seen: "set[int]" = set()

    def offer(self, key, value) -> None:
        digest = hash(key)
        if digest in self._seen:
            self[key] = value
        else:
            self._seen.add(digest)


# The probability of every branch that is exactly certain. ``resolve``
# marks such a branch by giving it this very object, so readers test
# ``p is _UNIT`` instead of comparing Fractions on every square.
_UNIT = Fraction(1)

# A square's register operation; the first two do no register work.
_OP_NONE, _OP_PFA, _OP_UNITARY, _OP_ROTATE, _OP_MEASURE, _OP_MEASURE_ROTATION = range(6)


class _Square:
    """One (state, symbol) square of a machine, compiled once per spec.

    ``op`` is the register operation and ``arg`` its matrix, angle or
    measurement. ``exits`` maps each outcome label to its (category,
    next_state, offset), or to the ``MachineError`` text of the table hole
    it reaches. ``fixed`` is the one exit of a certain square (no action,
    a unitary or a rotation), or a PFA square's successors: one per
    nonzero entry of its row, moving right and deciding only at ``$``.
    ``walk`` is the (next_state, offset) of a certain live exit, or None.
    ``loops`` marks a certain square that moves right into its own state
    with no action or a rotation: its letter's run takes one step (``run``).
    ``live`` holds the labels whose exit stays live: a branch that decides
    or restarts carries no register (None), as no reader reads it.
    """

    __slots__ = ("op", "arg", "pre", "exits", "fixed", "walk", "live", "loops")

    def __init__(self, spec: MachineSpec, cstate: str, sym: str):
        action = spec.quantum_delta.get((cstate, sym))
        self.pre = getattr(action, "pre", None)
        if action is None and spec.stochastic_delta:
            matrix = spec.stochastic_delta.get(sym)
            if matrix is None:
                raise MachineError(f"no stochastic matrix for symbol {sym!r}")
            end = sym == RIGHT_MARKER
            self.op, self.walk, self.loops, self.fixed = _OP_PFA, None, False, tuple(
                ((_decision(spec, s) or CATEGORY_CONTINUE) if end else None, s, 1, None, p)
                for s, p in zip(matrix.order, matrix.rows[matrix.order.index(cstate)])
                if p
            )
            return
        self.op, self.arg = (
            (_OP_NONE, None) if action is None
            else (_OP_UNITARY, action.matrix) if isinstance(action, UnitaryAction)
            else (_OP_ROTATE, action.angle) if isinstance(action, RotateAction)
            else (_OP_MEASURE, action.measurement) if isinstance(action, MeasureAction)
            else (_OP_MEASURE_ROTATION, _BASIS_2)
        )
        steps = {label: spec.classical_delta.get((cstate, sym, label)) for label in spec.outcome_labels(action)}
        self.exits = {
            label: (_decision(spec, step.state), step.state, _MOVE_OFFSET[step.move]) if step is not None
            else f"no classical transition for ({cstate!r}, {sym!r}, {label!r})"
            for label, step in steps.items()
        }
        self.live = {label for label, exit in self.exits.items() if exit.__class__ is tuple and exit[0] is None}
        fixed = self.fixed = self.exits.get(UNIT_OUTCOME)
        self.walk = fixed[1:] if self.op < _OP_MEASURE and fixed.__class__ is tuple and fixed[0] is None else None
        self.loops = self.op in (_OP_NONE, _OP_ROTATE) and self.walk == (cstate, 1)

    def stepped(self, reg: Register) -> Register:
        """The register after a certain square (no action, a unitary or a rotation)."""
        if self.op == _OP_UNITARY:
            return self.arg.apply(reg)
        if self.op == _OP_ROTATE:
            return reg.rotated(self.arg)
        return reg

    def run(self, reg: Register, k: int) -> Register:
        """The register after ``k`` squares of a ``loops`` square: as it is, or
        one turn by the angle times ``k``. Fraction sums are exact, so this is
        the angle, or the ``ExactnessError`` of mixed kinds, of ``k`` turns."""
        return reg.rotated(self.arg.scale(k)) if self.op == _OP_ROTATE else reg

    def resolve(self, reg: Register, bits: int) -> tuple:
        """The successors of ``reg``, certified at ``bits`` (see ``_Kernel``)."""
        op = self.op
        if op < _OP_MEASURE:
            if op == _OP_PFA:
                return self.fixed
            if self.fixed.__class__ is str:
                raise MachineError(self.fixed)
            return ((*self.fixed, self.walk and (self.stepped(reg) if op else reg), _UNIT),)
        out = []
        for label, reg2, p in self.outcomes(reg, bits):
            exit = self.exits[label]
            if exit.__class__ is str:
                raise MachineError(exit)
            out.append((*exit, reg2, p))
        return tuple(out)

    def outcomes(self, reg: Register, bits: int) -> "list[tuple[str, Register, Union[Fraction, ApproxProb]]]":
        """(label, register, probability) of each nonzero branch of a measuring or PFA square.
        A measurement's are its integer masses over one total, ``_UNIT`` when certain;
        a branch whose exit is not live carries no register."""
        if self.op == _OP_PFA:
            return [(s, None, p) for _, s, _, _, p in self.fixed]
        vec = reg
        if self.op == _OP_MEASURE_ROTATION:
            # Exact when the angle is a quarter turn, interval-valued otherwise.
            try:
                vec = reg.exact_vector()
            except ExactnessError:
                if self.pre is not None:
                    raise ExactnessError(
                        "rotation measurement with a pre-unitary requires an exactly known angle"
                    ) from None
                pairs = zip(("1", "2"), reg.outcome_probabilities(bits))
                return [(x, self._rotation_post(x), p.value if p.is_exact() else p) for x, p in pairs if p != PROB_ZERO]
        if self.pre is not None:
            vec = self.pre.apply(vec)
        total, parts = self.arg.split(vec, self.live)
        if self.op == _OP_MEASURE_ROTATION:
            parts = [(label, self._rotation_post(label), mass) for label, _, mass in parts]
        return [(label, post, _UNIT if mass == total else ratio(mass, total)) for label, post, mass in parts]

    def _rotation_post(self, label: str) -> Optional[RotationRegister]:
        return (ROTATION_AT_ZERO if label == "1" else ROTATION_AT_ONE) if label in self.live else None


class _Kernel:
    """Square transitions of one machine at a fixed precision.

    ``successors(cstate, sym, reg)`` gives a ``(category, next_state,
    offset, reg2, p)`` per nonzero branch: ``category`` is None for a live
    branch, ``offset`` the head move, and ``p`` the shared ``_UNIT`` when
    the branch is certain; a PFA's never is, so sampling draws once on
    every PFA square. The spec keeps its compiled squares in its
    ``__dict__``, as ``QMatrix`` keeps its compiled unitary: one per
    (state, tape symbol) met, and no register. No run keeps a memo: a
    compiled unitary costs about what a lookup of its result would. A
    two-way run walks its certain squares (``_walk``) without resolving.
    """

    def __init__(self, spec: MachineSpec, precision_bits: int):
        self.spec = spec
        self.precision_bits = precision_bits
        self._squares = spec.__dict__.setdefault("_squares", {})

    def square(self, cstate: str, sym: str) -> _Square:
        square = self._squares.get((cstate, sym))
        if square is None:
            square = self._squares[cstate, sym] = _Square(self.spec, cstate, sym)
        return square

    def successors(self, cstate: str, sym: str, reg: Register) -> tuple:
        return (self._squares.get((cstate, sym)) or self.square(cstate, sym)).resolve(reg, self.precision_bits)


def _is_deterministic(successors: tuple) -> bool:
    """True when a square has one branch, of probability exactly one."""
    return len(successors) == 1 and successors[0][4] is _UNIT


def _moved(pos: int, offset: int, last: int) -> int:
    pos2 = pos + offset
    if pos2 < 0 or pos2 > last:
        raise MachineError("head moved off the tape")
    return pos2


def _check_alphabet(spec: MachineSpec, input_str: str) -> None:
    """Raise on the first input symbol outside the machine alphabet."""
    outside = set(input_str).difference(spec.alphabet)
    if outside:
        ch = next(ch for ch in input_str if ch in outside)
        raise MachineError(f"input symbol {ch!r} outside the machine alphabet")


def tape_of(spec: MachineSpec, input_str: str) -> "list[str]":
    _check_alphabet(spec, input_str)
    return [LEFT_MARKER, *input_str, RIGHT_MARKER]


def run_exact_realtime(
    spec: MachineSpec, input_str: str, precision_bits: int = 64
) -> OutcomeDistribution:
    """One exact left-to-right pass; every branch's weight is an integer
    over the run's one denominator.

    Every input is its primitive root to a power reps, and takes the
    block path (``_run_blocks``) with that root as its block; the empty
    input is the empty root to the power 0. The alphabet is checked on
    the root: a power has the same symbols as its root.
    """
    if not spec.is_realtime():
        raise MachineError(f"{spec.model_class} is not a realtime machine class")
    # The shortest rotation that maps the input onto itself is its
    # primitive root's length; it divides the length.
    period = max((input_str * 2).find(input_str, 1), 1)
    _check_alphabet(spec, input_str[:period])
    return _run_blocks(_Kernel(spec, precision_bits), input_str[:period], len(input_str) // period)


def run_unary_length(spec: MachineSpec, length: int, precision_bits: int = 64) -> OutcomeDistribution:
    """The exact realtime run on the unary input of the given length, which
    is never built: it is the block path with the machine's one letter as
    its block, so the unary closed forms of ``_advance_blocks`` apply."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    if len(spec.alphabet) != 1:
        raise ValueError("unary fast path requires a one-symbol alphabet")
    if not spec.is_realtime():
        raise ValueError("unary fast path requires a realtime machine class")
    return _run_blocks(_Kernel(spec, precision_bits), spec.alphabet[0], length)


def _run_blocks(kernel: _Kernel, block: str, reps: int) -> OutcomeDistribution:
    """The exact run on block^reps, without building the input.

    One state (den, live, decided) goes from the left end-marker to the
    right one: ``live`` maps each live (state, register) key to its
    weight times den, and ``decided`` each category to the integer ends
    (lo, hi) of its mass times den. ``_step`` takes it across the
    end-markers and ``_advance_blocks`` over the blocks. After a jump den
    is big, but its primes all divide a small base, so the run ends
    without a gcd on integers the size of the answer.
    """
    spec = kernel.spec
    state = _step(kernel, (1, {(spec.initial_state, initial_register(spec)): 1}, {}), LEFT_MARKER)
    state, base = _advance_blocks(kernel, state, block, reps)
    den, live, decided = _step(kernel, state, RIGHT_MARKER)
    if live:
        raise MachineError("live branches remain after the right end-marker")
    # The right end-marker scaled den by a small factor, whose primes join the base.
    return _masses_to_distribution(decided, den, base and base * (den // state[0]))


def _step(kernel: _Kernel, state: tuple, sym: str) -> tuple:
    """The state (den, live, decided) of a realtime run after one square
    of ``sym`` (see ``_spread``), each live key's square resolved once,
    or none when every one walks (``_Square.walk``): then den stays."""
    (den, live, decided), squares, bits = state, kernel._squares, kernel.precision_bits
    compiled = [(squares.get((cs, sym)) or kernel.square(cs, sym), reg, num) for (cs, reg), num in live.items()]
    if all(square.walk for square, _, _ in compiled):
        walked: "dict[tuple[str, Register], int]" = {}
        for square, reg, num in compiled:
            key = (square.walk[0], square.stepped(reg) if square.op else reg)
            walked[key] = walked.get(key, 0) + num
        return den, walked, decided
    return _spread(den, decided, ((square.resolve(reg, bits), num) for square, reg, num in compiled))


def _uncertain_dens(successors: tuple, dens: set) -> None:
    """Add to ``dens`` the denominators of the branches of ``successors``
    that are not certain; a live branch must have an exact probability."""
    for category, _, _, _, p in successors:
        if p is _UNIT:
            continue
        if p.__class__ is Fraction:
            dens.add(p.denominator)
        elif category is None:
            raise ExactnessError("interval-valued measurement outcome must halt or restart")
        else:
            dens.update((p.interval.lo.denominator, p.interval.hi.denominator))


def _spread(den: int, decided: dict, resolved) -> tuple:
    """The state after one square, from the (successors, num) of each live
    key in turn and the ``decided`` ends over ``den``.

    The new den is den·q, where q is the lcm of the denominators of the
    branches that are not certain (``_uncertain_dens``), so every share is
    an integer; live branches that reach equal keys merge. ``resolved`` is
    read in order, and a key's successors are checked before the next
    key's are read, so a run raises the error the square-by-square run
    meets first.
    """
    branches, dens = [], set()
    for successors, num in resolved:
        _uncertain_dens(successors, dens)
        branches.append((successors, num))
    q = math.lcm(*dens)
    live: "dict[tuple[str, Register], int]" = {}
    decided = {c: (lo * q, hi * q) for c, (lo, hi) in decided.items()}
    for successors, num in branches:
        for category, state2, _, reg2, p in successors:
            if p is _UNIT:
                lo = hi = num * q
            elif p.__class__ is Fraction:
                lo = hi = num * p.numerator * (q // p.denominator)
            else:
                lo, hi = (num * x.numerator * (q // x.denominator) for x in (p.interval.lo, p.interval.hi))
            if category is None:
                key = (state2, reg2)
                live[key] = live.get(key, 0) + lo
            else:
                lo0, hi0 = decided.get(category, (0, 0))
                decided[category] = (lo0 + lo, hi0 + hi)
    return den * q, live, decided


def _combine(state: tuple, rows: list) -> tuple:
    """The state after each live key of ``state`` is replaced by its block
    row, ``rows`` in the keys' order. The rows are scaled to q, the lcm of
    their denominators, so the new den is den·q; live keys that meet
    merge."""
    den, live, decided = state
    q = math.lcm(*[row[0] for row in rows])
    new_live: "dict[tuple[str, Register], int]" = {}
    new_decided = {c: (lo * q, hi * q) for c, (lo, hi) in decided.items()}
    for num, (row_den, row_live, row_decided) in zip(live.values(), rows):
        num *= q // row_den
        for key2, w in row_live.items():
            new_live[key2] = new_live.get(key2, 0) + num * w
        for c, (lo, hi) in row_decided.items():
            lo0, hi0 = new_decided.get(c, (0, 0))
            new_decided[c] = (lo0 + num * lo, hi0 + num * hi)
    return den * q, new_live, new_decided


def _lowest(den: int, live: dict, decided: dict) -> tuple:
    """The state (den, live, decided) divided by the gcd of all its integers."""
    g = math.gcd(den, *live.values())
    for lo, hi in decided.values():
        g = math.gcd(g, lo, hi)
    if g == 1:
        return den, live, decided
    return den // g, {k: w // g for k, w in live.items()}, {c: (lo // g, hi // g) for c, (lo, hi) in decided.items()}


# A compiled match per letter: at a position that holds the letter, its
# end is where that letter's run stops, found in C without copying.
_RUNS: "dict[str, Callable]" = {}


def _block_row(kernel: _Kernel, key: tuple, block: str) -> tuple:
    """One block from ``key`` at weight one, as a row (den, live, decided)
    in lowest terms. The walk follows the one live branch, stepping a
    certain square (``_Square.walk``) without resolving it, a self-looping
    one's run in one step (``_Square.run``); where a square leaves more
    live branches, ``_step`` goes on from the next symbol."""
    (cstate, reg), bits, squares = key, kernel.precision_bits, kernel._squares
    den, num, decided = 1, 1, {}
    i, end = 0, len(block)
    while i < end:
        sym, i = block[i], i + 1
        square = squares.get((cstate, sym)) or kernel.square(cstate, sym)
        if square.walk is not None:
            if square.loops and i < end and block[i] == sym:
                run = _RUNS.get(sym) or _RUNS.setdefault(sym, re.compile(re.escape(sym) + "+").match)
                run_end = run(block, i).end()
                reg, i = square.run(reg, run_end - i + 1), run_end
            else:
                cstate, reg = square.walk[0], square.stepped(reg) if square.op else reg
            continue
        successors = square.resolve(reg, bits)
        if len(successors) == 1 and successors[0][0] is None and successors[0][4] is _UNIT:
            cstate, reg = successors[0][1], successors[0][3]
            continue
        state = den, live, decided = _spread(den, decided, ((successors, num),))
        if len(live) != 1:
            for later in block[i:]:
                state = _step(kernel, state, later)
            return _lowest(*state)
        (((cstate, reg), num),) = live.items()
    return _lowest(den, {(cstate, reg): num}, decided)


def _advance_blocks(kernel: _Kernel, state: tuple, block: str, reps: int) -> tuple:
    """The state after ``reps`` copies of ``block``, and the base of a
    jump (see ``_jump``), or None without one.

    A one-letter block takes the unary closed forms when every live key
    has one: the key's one successor after ``reps`` squares
    (``_unary_end``), merged by ``_spread``. Otherwise the run walks
    block by block, adding the rows (``_block_row``) of the live keys
    into the state over the lcm of their denominators (``_combine``),
    with one gcd per block; a row is kept under the second-sighting rule,
    and a key seen in two blocks in a row is walked once. Once the kept
    rows and the previous block's close over the keys the live ones
    reach, ``_jump`` takes the remaining blocks in O(log reps) products
    of the same kind; once every branch has halted, the rest is skipped.
    Exact weights make the result equal to the square-by-square run's,
    interval ends included.
    """
    if len(block) == 1:
        ends = [((_unary_end(kernel, key, block, reps),), num) for key, num in state[1].items()]
        if all(end is not None for (end,), _ in ends):
            return _spread(state[0], state[2], ends), None
    rows = _Memo()
    # The rows first seen in the previous block: a key seen again in the
    # next block takes its row from here, not from a second walk.
    recent: dict = {}
    for done in range(reps):
        live = state[1]
        if not live:
            break
        # The first block has no rows to close over.
        closed = _closed_keys(lambda key: rows.get(key) or recent.get(key), live) if done else None
        if closed is not None:
            return _jump(closed, state, reps - done)
        seen_now = {}
        picked = []
        for key in live:
            row = rows.get(key)
            if row is None:
                row = recent.get(key) or _block_row(kernel, key, block)
                rows.offer(key, row)
                seen_now[key] = row
            picked.append(row)
        state = _lowest(*_combine(state, picked))
        recent = seen_now
    return state, None


# The most squares a unary walk with a register steps before a
# configuration recurs. A register that never recurs grows with every
# square: a 2-dim register turned by the 3-4-5 rotation takes about 0.3 s
# for 4,096 squares and 1.9 s for 8,192 on a 2-CPU box, so a longer walk
# is refused. A walk with no register has finitely many configurations, so
# Brent's search always closes, and it has no cap.
UNARY_WALK_CAP = 1 << 12


def _unary_end(kernel: _Kernel, key: tuple, sym: str, reps: int) -> Optional[tuple]:
    """The one certain successor of ``reps`` squares of ``sym`` from
    ``key``, as a square gives it: the branch's last key, or the category
    it halts in on the way; or None at a square that is not deterministic.

    A self-looping square takes all ``reps`` in one step (``_Square.run``).
    Any other branch walks by Brent's cycle search, which keeps two
    configurations: the head, and a ``mark`` that moves to the head after
    1, 2, 4, ... squares. When the head meets the mark, it has gone round
    a cycle of ``lap`` squares, and it steps only the rest of ``reps``
    modulo ``lap``. A walk with a register that steps ``UNARY_WALK_CAP``
    squares of a longer run before its head meets the mark raises
    MachineError.
    """
    cstate, reg = key
    square = kernel.square(cstate, sym)
    if square.loops:
        return None, cstate, 1, square.run(reg, reps), _UNIT
    end, mark, lap, power, done, recurred = (None, cstate, 0, reg, _UNIT), key, 0, 1, 0, False
    while done < reps:
        successors = kernel.successors(cstate, sym, reg)
        if not _is_deterministic(successors):
            return None
        end = successors[0]
        category, cstate, _, reg, _ = end
        if category is not None:
            return end
        key = (cstate, reg)
        done += 1
        lap += 1
        if key == mark:
            reps, recurred = done + (reps - done) % lap, True
        elif lap == power:
            mark, lap, power = key, 0, 2 * power
        if done == UNARY_WALK_CAP < reps and not recurred and reg is not None:
            raise MachineError(f"a unary walk's register did not recur within the cap of {UNARY_WALK_CAP} squares")
    return end


def _closed_keys(row_of: Callable, branches: dict) -> "Optional[dict]":
    """The row of each key reachable from ``branches`` through rows, by
    key, or None while one of them has no row; ``row_of`` gives a key's
    row, or None."""
    found: dict = {}
    stack = list(branches)
    while stack:
        key = stack.pop()
        if key in found:
            continue
        row = row_of(key)
        if row is None:
            return None
        found[key] = row
        stack.extend(row[1])
    return found


# The largest denominator, in bits, that ``_jump`` builds. Every product
# of its power pays for each bit, so a bigger answer is refused.
MAX_JUMP_BITS = 1 << 25


def _jump(rows: dict, state: tuple, blocks: int) -> tuple:
    """Advance ``state`` over ``blocks`` blocks of the closed ``rows``.

    The rows are scaled to den, the lcm of their denominators, and raised
    by square and multiply with ``_combine`` as the product: the state
    times a power's rows is a vector times a matrix, and each row times
    the rows of its live keys is one squaring. Every row of the P-th power
    is over den^P, and each product carries the decided mass on by that
    den. When every row returns only to its own key, the power has a
    closed form (``_self_loop_power``); both give the same integers.
    Returns the state over v_den·den^blocks, v_den the state's den, with
    its live keys in the order stepped blocks leave them: ``_combine``
    lists each key at its first appearance, and that order composes. Last
    comes its base v_den·den, which has every prime the power has: one
    reduction per category at the end costs less than one per entry.
    """
    v_den = state[0]
    den = math.lcm(*(row_den for row_den, _, _ in rows.values()))
    # den^blocks has at least blocks * (den.bit_length() - 1) + 1 bits.
    bits = blocks * (den.bit_length() - 1) + v_den.bit_length()
    if bits > MAX_JUMP_BITS:
        raise MachineError(f"a jump's answer needs at least {bits} bits, over the cap of {MAX_JUMP_BITS}")
    power = {}
    for key, (row_den, row_live, row_decided) in rows.items():
        f = den // row_den
        scaled_decided = {c: (lo * f, hi * f) for c, (lo, hi) in row_decided.items()}
        power[key] = den, {key2: w * f for key2, w in row_live.items()}, scaled_decided
    if all(key2 == key for key, row in rows.items() for key2 in row[1]):
        state = _self_loop_power(power, state, den, blocks)
    else:
        exponent = blocks
        while exponent:
            # A state or row with no live key is still multiplied by one
            # row, so that its den gains the power's factor.
            if exponent & 1:
                state = _combine(state, [power[key] for key in state[1]] or [next(iter(power.values()))])
            exponent >>= 1
            if exponent:
                power = {key: _combine(row, [power[key2] for key2 in row[1]] or [row]) for key, row in power.items()}
    return state, v_den * den


def _self_loop_power(rows: dict, state: tuple, den: int, exponent: int) -> tuple:
    """The state after ``exponent`` blocks when every row, over ``den``,
    returns only to its own key.

    A live key of weight s whose row keeps a of its weight has s·a^b
    after b blocks, and is left out when a = 0, as a stepped block leaves
    it out. Each decided end keeps its value times den^b and
    gains s·d·(den^b - a^b)/(den - a) from each live key whose row
    decides d: the sum of a^k·den^(b-1-k) over k < b, which is an exact
    integer division, and b·den^(b-1) when a = den. These are the
    integers the squaring in ``_jump`` gives, from one power of den and
    one per live key instead of about 2·log2(b) products.
    """
    v_den, live, decided = state
    den_power = den**exponent
    new_live = {}
    new_decided = {c: (lo * den_power, hi * den_power) for c, (lo, hi) in decided.items()}
    for key, s in live.items():
        _, row_live, row_decided = rows[key]
        a = row_live.get(key, 0)
        if a == den:
            a_power, geometric = den_power, exponent * (den_power // den)
        else:
            a_power = a**exponent
            geometric = (den_power - a_power) // (den - a)
        if a:
            new_live[key] = s * a_power
        share = s * geometric
        for c, (lo, hi) in row_decided.items():
            lo0, hi0 = new_decided.get(c, (0, 0))
            new_decided[c] = (lo0 + lo * share, hi0 + hi * share)
    return v_den * den_power, new_live, new_decided


@dataclass(frozen=True)
class RestartAnalysis(Document):
    """Closed-form behavior of a restarting machine run to termination."""

    per_round: OutcomeDistribution
    overall_accept: ProbValue
    overall_reject: ProbValue
    overall_dont_know: ProbValue
    expected_rounds: ProbValue
    expected_steps: ProbValue


def _added(x: tuple, y: tuple) -> tuple:
    """The (lo, hi) ends of the sum of two masses from theirs; a sum of
    two exact masses is added once."""
    lo = x[0] + y[0]
    return (lo, lo) if x[0] == x[1] and y[0] == y[1] else (lo, x[1] + y[1])


def _share(part: tuple, other: tuple, another: tuple) -> ProbValue:
    """part / (part + other + another) from the (lo, hi) ends of three
    masses, with the two occurrences of ``part`` read together, so
    certified one-sidedness survives: the share is exactly 1 when the
    rest is exactly zero, and exactly 0 when the part is."""
    (p_lo, p_hi), (r_lo, r_hi) = part, _added(other, another)
    if r_hi == 0:
        return PROB_ONE
    if p_hi == 0:
        return PROB_ZERO
    # x/(x+y) is increasing in x and decreasing in y.
    lo = p_lo / (p_lo + r_hi)
    if p_lo == p_hi and r_lo == r_hi:
        return ExactProb(lo)
    return ApproxProb(RationalInterval(lo, p_hi / (p_hi + r_lo)))


def analyze_restarting(
    spec: MachineSpec, input_str: str, precision_bits: int = 64
) -> RestartAnalysis:
    """Behavior of the infinite restart loop, derived from one exact round.

    Rounds are independent and identically distributed, so the overall
    accept probability is the per-round accept mass conditioned on
    halting, and the expected number of rounds is the reciprocal of the
    per-round halting mass. Expected steps charge |input| + 2 squares
    per round. Each value is computed from the (lo, hi) ends of the
    round's three halting masses, and is exact when its ends agree.
    """
    per_round = run_exact_realtime(spec, input_str, precision_bits)
    accept, reject, dont_know = (p.ends() for p in (per_round.p_accept, per_round.p_reject, per_round.p_dont_know))
    lo, hi = _added(_added(accept, reject), dont_know)
    if hi == 0:
        raise NonterminatingError("zero halting mass per round; the loop never ends")
    if lo == 0:
        raise NonterminatingError("cannot certify a positive halting mass per round")
    steps = len(input_str) + 2
    if lo == hi:
        rounds = 1 / lo
        expected_rounds, expected_steps = ExactProb(rounds), ExactProb(rounds * steps)
    else:
        expected_rounds = ApproxProb(RationalInterval(1 / hi, 1 / lo))
        expected_steps = ApproxProb(RationalInterval(steps / hi, steps / lo))
    return RestartAnalysis(
        per_round=per_round,
        overall_accept=_share(accept, reject, dont_know),
        overall_reject=_share(reject, accept, dont_know),
        overall_dont_know=_share(dont_know, accept, reject),
        expected_rounds=expected_rounds,
        expected_steps=expected_steps,
    )


def _walk(kernel: _Kernel, tape: "list[str]", key: tuple, limit: int, start) -> tuple:
    """(n, key after n squares): the live two-way ``key`` walked over at
    most ``limit`` certain squares (``_Square.walk``), not off the tape,
    and stopped on arriving at ``start``, a (0, state, register) or None."""
    squares, last = kernel._squares, len(tape) - 1
    (pos, cstate, reg, sweeps), n = key, 0
    while n < limit:
        square = squares.get((cstate, tape[pos])) or kernel.square(cstate, tape[pos])
        walk = square.walk
        if walk is None or not 0 <= pos + walk[1] <= last:
            break
        if square.op:
            reg = square.stepped(reg)
        cstate, pos, n = walk[0], pos + walk[1], n + 1
        if pos == 0 or pos == last:
            sweeps += walk[1] != 0
            if (pos, cstate, reg) == start:
                break
    return n, (pos, cstate, reg, sweeps)


# The most ticks in a stretch; it bounds the squares a walk cut short wastes.
_STRETCH_TICKS = 32


def _stretch(kernel: _Kernel, tape: "list[str]", state: tuple, limit: int, start=None) -> tuple:
    """(k, the two-way state after k <= ``limit`` ticks): k is 1 and the
    tick ``_sweep_tick``'s unless every key walks (``_walk``). Then k, at
    most ``_STRETCH_TICKS``, is the fewest squares any key walks; a key
    that walks further walks again for exactly k squares, and keys merge
    in ``_sweep_tick``'s order. den, ``decided`` and ``swept`` stay."""
    den, live, decided, swept = state
    limit, walked = min(limit, _STRETCH_TICKS), []
    for key in live:
        n, key2 = _walk(kernel, tape, key, limit, start)
        if not n:
            return 1, _sweep_tick(kernel, tape, state)
        limit = min(limit, n)
        walked.append((n, key2))
    new_live: dict = {}
    for (key, num), (n, key2) in zip(live.items(), walked):
        if n > limit:
            key2 = _walk(kernel, tape, key, limit, start)[1]
        new_live[key2] = new_live.get(key2, 0) + num
    return limit, (den, new_live, decided, swept)


def _sweep_tick(kernel: _Kernel, tape: "list[str]", state: tuple) -> tuple:
    """The state (den, live, decided, swept) of a two-way run after every
    live branch takes one resolved square (see ``_stretch``).

    ``live`` maps each (pos, state, register, sweeps) to its weight times
    den, ``decided`` each category to the integer ends (lo, hi) of its
    mass times den, and ``swept`` sums sweeps times decided mass, times
    den. As in ``_spread``, den becomes den·q and live branches that reach
    equal keys merge. A sweep completes when the head arrives at either
    end-marker.
    """
    den, live, decided, swept = state
    last = len(tape) - 1
    branches, dens = [], set()
    for (pos, cstate, reg, _), num in live.items():
        successors = kernel.successors(cstate, tape[pos], reg)
        _uncertain_dens(successors, dens)
        branches.append(successors)
    q = math.lcm(*dens)
    den, swept = den * q, swept * q
    # Most squares of a sweep are certain: q is 1, and den stays as it is.
    decided = dict(decided) if q == 1 else {c: (lo * q, hi * q) for c, (lo, hi) in decided.items()}
    new_live: "dict[tuple[int, str, Register, int], int]" = {}
    for ((pos, _, _, sweeps), num), successors in zip(live.items(), branches):
        num *= q
        for category, state2, offset, reg2, p in successors:
            if p is _UNIT:
                lo = hi = num
            elif p.__class__ is Fraction:
                lo = hi = num // p.denominator * p.numerator
            else:
                lo, hi = (num // x.denominator * x.numerator for x in (p.interval.lo, p.interval.hi))
            if category is None:
                pos2 = _moved(pos, offset, last)
                arrived = pos2 != pos and pos2 in (0, last)
                key = (pos2, state2, reg2, sweeps + arrived)
                new_live[key] = new_live.get(key, 0) + lo
            elif category == CATEGORY_CONTINUE:
                raise MachineError("restart is not part of the sweeping model")
            else:
                lo0, hi0 = decided.get(category, (0, 0))
                decided[category] = (lo0 + lo, hi0 + hi)
                swept += sweeps * lo
    return den, new_live, decided, swept


def run_exact_sweeping(
    spec: MachineSpec, input_str: str, max_sweeps: int, precision_bits: int = 64
) -> OutcomeDistribution:
    """Exact run of a two-way machine under a per-branch sweep budget.

    A sweep completes when the head arrives at either end-marker. Every
    branch may process squares only while its completed-sweep count is
    below ``max_sweeps``; a branch that reaches the budget contributes
    its weight to ``p_continue``. Decided mass is monotone in the
    budget. ``max_sweeps`` of zero therefore reports all mass as
    residual. A branch that uses up its budget mid-stretch (``_stretch``)
    walks on, but moves to ``p_continue`` before a square of it is resolved.
    """
    if max_sweeps < 0:
        raise ValueError("max_sweeps must be nonnegative")
    tape = tape_of(spec, input_str)
    step_budget = (max_sweeps + 1) * (len(tape) + 2) + 16
    kernel = _Kernel(spec, precision_bits)
    state, tick = (1, {(0, spec.initial_state, initial_register(spec), 0): 1}, {}, 0), 0
    while True:
        # Every live branch has processed ``tick`` squares.
        den, live, decided, _ = state
        weight = sum(live.pop(key) for key in [key for key in live if key[3] >= max_sweeps])
        if weight:
            lo, hi = decided.get(CATEGORY_CONTINUE, (0, 0))
            decided[CATEGORY_CONTINUE] = (lo + weight, hi + weight)
        if not live:
            break
        if tick > step_budget:
            raise MachineError("step budget exceeded without sweep progress")
        k, state = _stretch(kernel, tape, state, step_budget + 1 - tick)
        tick += k
    return _masses_to_distribution(decided, den)


@dataclass(frozen=True)
class SweepingAnalysis(Document):
    """Closed-form behavior of a sweeping machine whose live mass returns
    to the initial configuration after each undecided iteration."""

    per_iteration: OutcomeDistribution
    overall_accept: ProbValue
    overall_reject: ProbValue
    expected_iterations: ProbValue
    expected_sweeps: ProbValue
    expected_steps: ProbValue


def analyze_sweeping(
    spec: MachineSpec, input_str: str, precision_bits: int = 64, tick_cap: int = 0
) -> SweepingAnalysis:
    """Detect the iteration loop of a sweeping machine and sum the series.

    The exact run proceeds in at most ``tick_cap`` global ticks
    (``_stretch``). When the live set collapses back to the initial
    configuration with weight L, at whatever sweep count, one iteration
    of T = cycle_ticks ticks is complete. Its decided masses m_i, decided
    after s_i completed sweeps, then give, by geometric summation over
    independent iterations,

        overall(category) = sum of category masses / (1 - L)
        E[sweeps] = (sum(m_i s_i) + cycle_sweeps * L) / (1 - L)
        E[ticks]  = (live mass entering ticks 1..T, summed) / (1 - L)

    since every unit of live mass takes one square per tick.
    """
    tape = tape_of(spec, input_str)
    if tick_cap <= 0:
        tick_cap = 64 * (len(tape) + 2) + 256
    kernel = _Kernel(spec, precision_bits)
    start = (0, spec.initial_state, initial_register(spec))
    state = (1, {(*start, 0): 1}, {}, 0)
    # The ticks taken, and the live mass entering each tick, summed, times den.
    ticks, ticked, loop = 0, 0, None
    while ticks < tick_cap:
        den, live, _, _ = state
        k, state = _stretch(kernel, tape, state, tick_cap - ticks, start)
        ticks += k
        ticked = (ticked + sum(live.values()) * k) * (state[0] // den)
        live = state[1]
        if not live:
            loop = (0, 0)
            break
        if len(live) == 1 and next(iter(live))[:3] == start:
            (((*_, cycle_sweeps), weight),) = live.items()
            loop = (weight, cycle_sweeps)
            break
    den, _, decided, swept = state
    if any(lo != hi for lo, hi in decided.values()):
        raise ExactnessError("loop analysis requires exact branch masses")
    if loop is None:
        raise MachineError("no iteration structure detected within the tick cap")
    loop_weight, cycle_sweeps = loop
    if loop_weight >= den:
        raise NonterminatingError("the sweeping loop never sheds mass")
    # No branch decides ``continue`` here: that slot holds L.
    decided[CATEGORY_CONTINUE] = (loop_weight, loop_weight)
    # (1 - L) times den.
    survive = den - loop_weight
    return SweepingAnalysis(
        per_iteration=_masses_to_distribution(decided, den),
        overall_accept=ExactProb(ratio(decided.get(CATEGORY_ACCEPT, (0, 0))[0], survive)),
        overall_reject=ExactProb(ratio(decided.get(CATEGORY_REJECT, (0, 0))[0], survive)),
        expected_iterations=ExactProb(ratio(den, survive)),
        expected_sweeps=ExactProb(ratio(swept + cycle_sweeps * loop_weight, survive)),
        expected_steps=ExactProb(ratio(ticked, survive)),
    )


class SplittableRng:
    """Seedable, splittable source of uniform 64-bit draws.

    The root's seed material is the SHA-256 digest of the UTF-8 text
    ``"exactqfa:" + repr(seed)``, and a child's is the digest of its
    parent's material, ``b"/"`` and the UTF-8 label, so any tree of
    children is fully determined by the root seed and the labels,
    independent of evaluation order. Draws are ``getrandbits(64)`` of a
    stdlib ``random.Random`` seeded with the material read as a
    big-endian integer; ``Random.seed(n)`` leaves the state ``Random(n)``
    starts in, so one stdlib generator can be reseeded for each of many
    children. It is built at the first draw, so the root costs its hash.
    """

    __slots__ = ("_material", "_rng")

    def __init__(self, seed, _material: Optional[bytes] = None):
        if _material is None:
            _material = hashlib.sha256(f"exactqfa:{seed!r}".encode()).digest()
        self._material = _material
        self._rng: Optional[random.Random] = None

    def child(self, label: str) -> "SplittableRng":
        material = hashlib.sha256(self._material + b"/" + label.encode()).digest()
        return SplittableRng(None, _material=material)

    def generator(self, reuse: Optional[random.Random] = None) -> random.Random:
        """``reuse`` reseeded, or a new stdlib generator, to draw this one's bits."""
        n = int.from_bytes(self._material, "big")
        if reuse is None:
            return random.Random(n)
        reuse.seed(n)
        return reuse

    def draw64(self) -> int:
        if self._rng is None:
            self._rng = self.generator()
        return self._rng.getrandbits(64)


@dataclass(frozen=True)
class MonteCarloResult(Document):
    """Aggregated trial outcomes of a sampled execution."""

    trials: int
    counts: "dict[str, int]"
    mean_steps: Optional[Fraction]
    mean_rounds: Optional[Fraction]


CATEGORY_CAPPED = "capped"
_TRIAL_CATEGORIES = CATEGORIES + (CATEGORY_CAPPED,)


class _StochNode:
    """One square whose measurement genuinely branches.

    ``targets`` aligns with the outcome order of ``outcomes_at``.
    ``cuts(bits, scale_bits)`` gives the integer cut points (see
    ``cut_points``) of the cumulative probability bounds measured at a
    precision of ``bits``. They are kept per (precision, scale), so
    repeated draws at a node measure it only once per precision.
    ``ends`` holds the lower and the upper ends of ``cuts(bits, 64)``.

    ``edges`` maps an outcome index whose target is a node to that
    node's ``_CompiledMachine.resolve`` result. It is filled the first
    time a trial takes the edge, so later trials go from this square to
    the next sampled one without building or hashing a node key.
    """

    __slots__ = ("key", "targets", "outcomes_at", "edges", "ends", "_cuts")

    def __init__(self, key, targets, outcomes_at: Callable[[int], list]):
        self.key = key
        self.targets = targets
        self.outcomes_at = outcomes_at
        self.edges: "dict[int, tuple]" = {}
        self.ends: "Optional[list[tuple[int, ...]]]" = None
        self._cuts: "dict[tuple[int, int], list[tuple[int, int]]]" = {}

    def cuts(self, bits: int, scale_bits: int) -> "list[tuple[int, int]]":
        cuts = self._cuts.get((bits, scale_bits))
        if cuts is None:
            lo = hi = Fraction(0)
            bounds = []
            for _, _, p in self.outcomes_at(bits):
                if isinstance(p, Fraction):
                    lo, hi = lo + p, hi + p
                else:
                    iv = p.as_interval()
                    lo, hi = lo + iv.lo, hi + iv.hi
                bounds.append((lo, hi))
            cuts = self._cuts[bits, scale_bits] = cut_points(bounds, scale_bits)
        return cuts

    def first_ends(self, bits: int) -> "list[tuple[int, ...]]":
        self.ends = list(zip(*self.cuts(bits, 64)))
        return self.ends


def _sample_outcome(node: _StochNode, rng, precision_bits: int, num: Optional[int] = None) -> int:
    """The outcome a refinable uniform draw picks at a node.

    The draw starts as 64 random bits, ``num`` if given, and gains 64
    more, with the bounds' precision doubled, each time it is too close
    to a cut point to decide, so sampling is exact even for
    interval-valued probabilities.
    """
    if num is None:
        num = rng.getrandbits(64)
    scale_bits = 64
    bits = max(64, precision_bits)
    while True:
        for i, (lo, hi) in enumerate(node.cuts(bits, scale_bits)):
            if lo <= num < hi:
                return i
        num = (num << 64) | rng.getrandbits(64)
        scale_bits += 64
        if bits < MAX_PRECISION_BITS:
            bits *= 2
        if scale_bits > 4 * MAX_PRECISION_BITS:
            raise RuntimeError("sampling failed to separate outcome boundaries")


def _terminal(category: str, state: str) -> "tuple[str, Optional[str]]":
    """The ("restart", None) or ("halt", category) target of a branch
    decided by entering ``state``; a PFA's residual mass halts."""
    return ("restart", None) if state == RESTART_TARGET else ("halt", category)


class _CompiledMachine:
    """Lazily compiled transition graph for sampled execution.

    Deterministic stretches (single outcome of probability one) are
    collapsed into jumps with step counts, so a trial only pays for
    genuine random choices. Nodes are (position, classical state,
    register) triples. ``resolve`` memoizes every node it meets; a trial
    meets a node key only at the start (``resolve_start``, kept after
    its first call) and on an edge no trial took before (see
    ``_StochNode.edges``).
    """

    def __init__(self, spec: MachineSpec, input_str: str, precision_bits: int):
        self.tape = tape_of(spec, input_str)
        self.last = len(self.tape) - 1
        self.kernel = _Kernel(spec, precision_bits)
        self.start = (0, spec.initial_state, initial_register(spec))
        self._memo: dict = {}
        self._start_resolution: Optional[tuple] = None

    def resolve_start(self) -> tuple:
        """``resolve(self.start)``, kept after the first call."""
        if self._start_resolution is None:
            self._start_resolution = self.resolve(self.start)
        return self._start_resolution

    def _stoch_node(self, key, successors: tuple) -> _StochNode:
        pos, cstate, reg = key
        square = self.kernel.square(cstate, self.tape[pos])
        targets = [
            _terminal(category, state2)
            if category is not None
            else ("node", (_moved(pos, offset, self.last), state2, reg2))
            for category, state2, offset, reg2, _ in successors
        ]
        return _StochNode(key, targets, lambda bits: square.outcomes(reg, bits))

    def resolve(self, node):
        """Follow deterministic steps from node; returns (kind, payload, steps).

        kind "halt": payload is the category; steps include the deciding
        square. kind "restart": steps include the right end-marker. kind
        "stoch": payload is a _StochNode and steps stop just before it.
        """
        # The nodes walked through, each with the steps taken before it.
        chain = {}
        steps = 0
        cur = node
        while True:
            hit = self._memo.get(cur)
            if hit is not None:
                kind, payload, extra = hit
                steps += extra
                break
            if cur in chain:
                raise NonterminatingError("deterministic loop never reaches a decision")
            if len(chain) > max(4096, 16 * len(self.tape)):
                raise NonterminatingError("deterministic run exceeded the step budget")
            pos, cstate, reg = cur
            successors = self.kernel.successors(cstate, self.tape[pos], reg)
            if not _is_deterministic(successors):
                kind, payload = "stoch", self._stoch_node(cur, successors)
                self._memo[cur] = (kind, payload, 0)
                break
            category, state2, offset, reg2, _ = successors[0]
            if category is not None:
                kind, payload = _terminal(category, state2)
                steps += 1
                self._memo[cur] = (kind, payload, 1)
                break
            chain[cur] = steps
            steps += 1
            cur = (_moved(pos, offset, self.last), state2, reg2)
        for n, before in chain.items():
            self._memo[n] = (kind, payload, steps - before)
        return kind, payload, steps


def _sample_trial(
    compiled: _CompiledMachine,
    rng: Optional[random.Random],
    step_cap: Optional[int],
    precision_bits: int,
) -> "tuple[str, int, int]":
    """One sampled execution: its verdict, squares and rounds.

    The windows of ``ends`` are disjoint and in order; a draw in none of
    them is refined by ``_sample_outcome``. A sampled edge to a node is
    resolved, and kept on its node, only after the step cap is tested.
    """
    kind, payload, steps = compiled.resolve_start()
    rounds = 1
    while True:
        if kind == "stoch":
            node = payload
            lowers, uppers = node.ends or node.first_ends(max(64, precision_bits))
            num = rng.getrandbits(64)
            index = bisect_right(uppers, num)
            if num < lowers[index]:
                index = _sample_outcome(node, rng, precision_bits, num)
            kind, payload = node.targets[index]
            steps += 1
        if step_cap is not None and steps > step_cap:
            return CATEGORY_CAPPED, steps, rounds
        if kind == "halt":
            return payload, steps, rounds
        if kind == "restart":
            rounds += 1
            kind, payload, consumed = compiled.resolve_start()
        else:
            resolution = node.edges.get(index)
            if resolution is None:
                resolution = node.edges[index] = compiled.resolve(payload)
            kind, payload, consumed = resolution
        steps += consumed


def _check_halt_reachable(compiled: _CompiledMachine) -> None:
    """Raise unless a trial can reach a halting decision.

    A breadth-first search from the start through ``resolve`` and the
    sampled targets stops at the first halt. Every edge it follows has
    positive probability, so when it finds none, an uncapped trial would
    restart or wander forever.
    """
    frontier = [compiled.start]
    seen = set(frontier)
    while frontier:
        reached = []
        for node in frontier:
            kind, payload, _ = compiled.resolve(node)
            for end, target in payload.targets if kind == "stoch" else [(kind, payload)]:
                if end == "halt":
                    return
                target = compiled.start if end == "restart" else target
                if target not in seen:
                    seen.add(target)
                    reached.append(target)
        frontier = reached
    raise NonterminatingError("zero halting mass: no trial can reach a halting decision")


def run_monte_carlo(
    spec: MachineSpec,
    input_str: str,
    trials: int,
    seed,
    step_cap: Optional[int] = None,
    precision_bits: int = 64,
) -> MonteCarloResult:
    """Sample full executions; restarts run until a halting decision.

    Results are reproducible from the seed: each trial draws as the child
    of the seed and its index, and a run whose start draws nothing steps
    one trial, counted ``trials`` times. Trials over ``step_cap`` squares
    are capped and left out of the step and round means. Without a cap, a
    machine that can reach no halting decision raises NonterminatingError.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    compiled = _CompiledMachine(spec, input_str, precision_bits)
    if step_cap is None:
        _check_halt_reachable(compiled)
    draws = compiled.resolve_start()[0] == "stoch"
    weight = 1 if draws else trials
    rng_root, rng = SplittableRng(seed), None
    counts = {cat: 0 for cat in _TRIAL_CATEGORIES}
    step_total = round_total = 0
    for index in range(trials if draws else 1):
        rng = rng_root.child(f"trial:{index}").generator(rng) if draws else None
        verdict, steps, rounds = _sample_trial(compiled, rng, step_cap, precision_bits)
        counts[verdict] += weight
        if verdict != CATEGORY_CAPPED:
            step_total += weight * steps
            round_total += weight * rounds
    decided = trials - counts[CATEGORY_CAPPED]
    return MonteCarloResult(
        trials=trials,
        counts=counts,
        mean_steps=Fraction(step_total, decided) if decided else None,
        mean_rounds=Fraction(round_total, decided) if decided else None,
    )
