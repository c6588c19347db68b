"""The compiled squares of ``analysis._Kernel`` against the square
transitions they replaced, kept here as an oracle."""

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import pytest

from exactqfa import analysis
from exactqfa.analysis import (
    MachineError,
    analyze_sweeping,
    run_exact_realtime,
    run_exact_sweeping,
    run_monte_carlo,
)
from exactqfa.constructions import CONSTRUCTION_IDS, build, build_aw_pal, build_exact_pal_sweeping
from exactqfa.exactnum import ExactnessError, cos_sin_exact
from exactqfa.machines import (
    RIGHT_MARKER,
    MeasureAction,
    MeasureRotationAction,
    RotateAction,
    UnitaryAction,
)
from exactqfa.qstate import QVector, RotationRegister
from test_analysis import (
    ROT,
    block_counter_machine,
    bouncing_pfa,
    coin_turn_machine,
    fair_coin_pfa,
    first_b_rejecter,
    mod_dfa,
    residual_pfa,
    spin_machine,
    split_turns_machine,
    turn_machine,
    two_letter_pfa,
    walk_or_toss_machine,
)
from test_sampling import _thirds_pfa

ORACLE_UNIT = Fraction(1)


def oracle_outcomes(spec, cstate, sym, reg, precision_bits):
    """Every nonzero measurement branch of one square, as the kernel
    computed it before squares were compiled."""
    action = spec.quantum_delta.get((cstate, sym))
    if action is None:
        if not spec.stochastic_delta:
            return [("1", reg, Fraction(1))]
        matrix = spec.stochastic_delta.get(sym)
        if matrix is None:
            raise MachineError(f"no stochastic matrix for symbol {sym!r}")
        row = matrix.rows[matrix.order.index(cstate)]
        return [(state, None, p) for state, p in zip(matrix.order, row) if p]
    if isinstance(action, UnitaryAction):
        return [("1", action.matrix.apply(reg), Fraction(1))]
    if isinstance(action, RotateAction):
        return [("1", reg.rotated(action.angle), Fraction(1))]
    if isinstance(action, MeasureAction):
        vec = reg if action.pre is None else action.pre.apply(reg)
        return [(b.outcome, b.vector, b.probability) for b in action.measurement.measure(vec)]
    try:
        cos_sin_exact(reg.angle)
    except ExactnessError:
        pass
    else:
        vec = reg.exact_vector()
        if action.pre is not None:
            vec = action.pre.apply(vec)
        return [
            (b.outcome, analysis.ROTATION_AT_ZERO if b.outcome == "1" else analysis.ROTATION_AT_ONE, b.probability)
            for b in analysis._BASIS_2.measure(vec)
        ]
    if action.pre is not None:
        raise ExactnessError("rotation measurement with a pre-unitary requires an exactly known angle")
    p_zero, p_one = reg.outcome_probabilities(precision_bits)
    out = []
    for label, post, p in (("1", analysis.ROTATION_AT_ZERO, p_zero), ("2", analysis.ROTATION_AT_ONE, p_one)):
        if p.is_exact():
            if p.value:
                out.append((label, post, p.value))
        else:
            out.append((label, post, p))
    return out


def oracle_live(spec, cstate, sym, label):
    """Whether outcome ``label`` of a square leads to a live state."""
    step = spec.classical_delta.get((cstate, sym, label))
    return step is not None and analysis._decision(spec, step.state) is None


def oracle_kept_outcomes(spec, cstate, sym, reg, precision_bits):
    """``oracle_outcomes`` where a branch that does not stay live carries
    no register: no reader reads a decided branch's register."""
    return [
        (label, reg2 if oracle_live(spec, cstate, sym, label) else None, p)
        for label, reg2, p in oracle_outcomes(spec, cstate, sym, reg, precision_bits)
    ]


def oracle_resolve(spec, cstate, sym, reg, precision_bits):
    """One square's successors, as the kernel resolved them before, except
    that a decided branch carries no register."""
    out = []
    total = Fraction(0)
    for label, reg2, p in oracle_outcomes(spec, cstate, sym, reg, precision_bits):
        step = spec.classical_delta.get((cstate, sym, label))
        if step is None:
            if not spec.stochastic_delta:
                raise MachineError(f"no classical transition for ({cstate!r}, {sym!r}, {label!r})")
            category = (
                (analysis._decision(spec, label) or analysis.CATEGORY_CONTINUE) if sym == RIGHT_MARKER else None
            )
            out.append((category, label, 1, reg2, p))
            continue
        if isinstance(p, Fraction):
            total += p
            if p == 1:
                p = ORACLE_UNIT
        else:
            total += p.as_interval().lo
        category = analysis._decision(spec, step.state)
        out.append((category, step.state, analysis._MOVE_OFFSET[step.move], reg2 if category is None else None, p))
    if total > 1:
        raise MachineError("measurement branches exceed total mass")
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class Raised:
    kind: type
    text: str


def outcome_of(call):
    """What a call returns, or the type and text of what it raises."""
    try:
        return call()
    except (MachineError, ExactnessError, ValueError) as exc:
        return Raised(type(exc), str(exc))


def certain_flags(result, unit):
    return None if isinstance(result, Raised) else [branch[-1] is unit for branch in result]


def without_classical(spec, *keys):
    delta = {key: step for key, step in spec.classical_delta.items() if key not in keys}
    return dataclasses.replace(spec, name=spec.name + "-holed", classical_delta=delta)


def holed_machines():
    """Machines whose tables have holes that some inputs reach."""
    # Outcome 2 of the end measurement is a hole: "" measures e1 and never
    # takes it, while "a" takes it with 16/25.
    spin = without_classical(spin_machine(), ("s1", RIGHT_MARKER, "2"))
    # A unitary square with a hole, and a rotation square with one.
    spun = without_classical(spin_machine(), ("s1", "a", "1"))
    turned = without_classical(turn_machine(), ("s1", "a", "1"))
    coin = fair_coin_pfa()
    no_letter = dataclasses.replace(
        coin, name="no-letter", stochastic_delta={s: m for s, m in coin.stochastic_delta.items() if s != "a"}
    )
    # A pre-unitary before measuring an angle that is not a quarter turn.
    pre_on_turn = turn_machine(extra=[({("s1", RIGHT_MARKER): MeasureRotationAction(pre=ROT)}, {})])
    return [spin, spun, turned, no_letter, pre_on_turn, block_counter_machine()]


def machines():
    built = [build(cid, 2 if cid.startswith("EVENODD") else None) for cid in CONSTRUCTION_IDS]
    built += [build("EVENODD_MCQFA", 1), build("EVENODD_DFA", 0)]
    hand = [
        spin_machine(),
        turn_machine(),
        mod_dfa(3),
        split_turns_machine(),
        split_turns_machine("rotation"),
        walk_or_toss_machine(),
        coin_turn_machine(),
        first_b_rejecter(),
        first_b_rejecter(halt_on_left=True),
    ]
    pfas = [fair_coin_pfa(), _thirds_pfa(), bouncing_pfa(), residual_pfa(), two_letter_pfa()]
    return built + hand + pfas + holed_machines()


PROMISE_WORDS = ("abcab", "abcba", "aacaacabcab", "abcabcbacbac" * 3, "aabaabaa", "aaabaaabaaa", "a" * 8, "ab" * 5)


def inputs(spec):
    short = ["".join(w) for n in range(4) for w in itertools.product(spec.alphabet, repeat=n)]
    return short + [w for w in PROMISE_WORDS if set(w) <= set(spec.alphabet)]


def reached_squares(monkeypatch):
    """Run every machine on its inputs in each mode that fits, and collect
    every (spec, state, symbol, register) that the kernel was asked about,
    that a walk stepped without resolving, or that a block row passed."""
    reached, owners = {}, {}
    successors, square, resolve = analysis._Kernel.successors, analysis._Kernel.square, analysis._Square.resolve
    stepped, block_row = analysis._Square.stepped, analysis._block_row

    def record(spec, cstate, sym, reg):
        reached.setdefault((id(spec), cstate, sym, reg), (spec, cstate, sym, reg))

    def asked(kernel, cstate, sym, reg):
        record(kernel.spec, cstate, sym, reg)
        return successors(kernel, cstate, sym, reg)

    def owned(kernel, cstate, sym):
        compiled = square(kernel, cstate, sym)
        owners[id(compiled)] = (kernel.spec, cstate, sym)
        return compiled

    def walked(compiled, reg, bits):
        record(*owners[id(compiled)], reg)
        return resolve(compiled, reg, bits)

    def certain(compiled, reg):
        record(*owners[id(compiled)], reg)
        return stepped(compiled, reg)

    def row(kernel, key, block):
        # A block row passes an idle square with no call: walk the row
        # again with the oracle, up to where it leaves no live branch or
        # more than one.
        cstate, reg = key
        for sym in block:
            record(kernel.spec, cstate, sym, reg)
            got = outcome_of(lambda: oracle_resolve(kernel.spec, cstate, sym, reg, kernel.precision_bits))
            live = [] if isinstance(got, Raised) else [s for s in got if s[0] is None]
            if len(live) != 1:
                break
            _, cstate, _, reg, _ = live[0]
        return block_row(kernel, key, block)

    # Runs ask ``successors``; a unary walk resolves the squares it gets,
    # and block rows, realtime steps and two-way walks step certain ones.
    monkeypatch.setattr(analysis._Kernel, "successors", asked)
    monkeypatch.setattr(analysis._Kernel, "square", owned)
    monkeypatch.setattr(analysis._Square, "resolve", walked)
    monkeypatch.setattr(analysis._Square, "stepped", certain)
    monkeypatch.setattr(analysis, "_block_row", row)
    for spec in machines():
        for word in inputs(spec):
            if spec.is_realtime():
                outcome_of(lambda: run_exact_realtime(spec, word))
            else:
                outcome_of(lambda: run_exact_sweeping(spec, word, 3))
            outcome_of(lambda: run_monte_carlo(spec, word, 4, seed=1, step_cap=300))
    monkeypatch.undo()
    return list(reached.values())


def test_compiled_squares_match_the_oracle(monkeypatch):
    reached = reached_squares(monkeypatch)
    # As many squares as before block rows walked: 1,092.
    assert len(reached) >= 1092
    kinds = {type(reg) for _, _, _, reg in reached}
    assert kinds == {QVector, RotationRegister, type(None)}
    raised = []
    for spec, cstate, sym, reg in reached:
        kernel = analysis._Kernel(spec, 64)
        got = outcome_of(lambda: kernel.square(cstate, sym).resolve(reg, 64))
        want = outcome_of(lambda: oracle_resolve(spec, cstate, sym, reg, 64))
        assert got == want, (spec.name, cstate, sym)
        assert certain_flags(got, analysis._UNIT) == certain_flags(want, ORACLE_UNIT), (spec.name, cstate, sym)
        if isinstance(got, Raised):
            raised.append(got)
        square = outcome_of(lambda: kernel.square(cstate, sym))
        if isinstance(square, analysis._Square) and square.op in (
            analysis._OP_PFA,
            analysis._OP_MEASURE,
            analysis._OP_MEASURE_ROTATION,
        ):
            for bits in (64, 128):
                got = outcome_of(lambda: square.outcomes(reg, bits))
                want = outcome_of(lambda: oracle_kept_outcomes(spec, cstate, sym, reg, bits))
                assert got == want, (spec.name, cstate, sym)
    # Holes, a missing PFA matrix and a pre-unitary on an inexact angle.
    assert {(r.kind, r.text[:20]) for r in raised} == {
        (MachineError, "no classical transit"),
        (MachineError, "no stochastic matrix"),
        (ExactnessError, "rotation measurement"),
    }


def test_a_hole_raises_only_when_a_branch_reaches_it():
    spin = holed_machines()[0]
    assert run_exact_realtime(spin, "").p_accept.value == 1
    with pytest.raises(MachineError, match=r"no classical transition for \('s1', '\$', '2'\)"):
        run_exact_realtime(spin, "a")


def test_the_square_table_is_bounded_by_the_machine():
    specs = [build_aw_pal(), build("EXACT_TWINPAL"), build("EXACT_PAL_SWEEPING"), build("LV_EXPTWINPAL")]
    words = ["".join(w) for n in range(1, 4) for w in itertools.product("ab", repeat=n)]
    # Inputs outside a promise may end in a table hole or never halt.
    for u, v in itertools.product(words, repeat=2):
        outcome_of(lambda: run_exact_realtime(specs[0], f"{u}c{v}"))
        outcome_of(lambda: analysis.analyze_restarting(specs[1], f"{u}c{u}c{v}c{v}"))
        outcome_of(lambda: analysis.analyze_sweeping(specs[2], f"{u}c{v}"))
    for w in words:
        run_exact_realtime(specs[3], f"{w}c{w}c{w}c{w}c" * 3, precision_bits=128)
        run_monte_carlo(specs[0], f"{w}c{w[::-1]}", 3, seed=w)
    for spec in specs:
        table = spec.__dict__["_squares"]
        assert 0 < len(table) <= len(spec.states) * len(spec.tape_symbols)
        for square in table.values():
            assert not isinstance(square.arg, (QVector, RotationRegister))


def test_certain_squares_never_reach_the_outcome_path(monkeypatch):
    reached = []
    outcomes = analysis._Square.outcomes
    monkeypatch.setattr(
        analysis._Square, "outcomes", lambda square, *a: reached.append(square.op) or outcomes(square, *a)
    )
    sweeping = build_exact_pal_sweeping()
    analyze_sweeping(sweeping, "abaabcaabab")
    squares = sweeping.__dict__["_squares"]
    assert any(square.op == analysis._OP_NONE for square in squares.values())
    run_exact_realtime(build_aw_pal(), "abbacabba")
    run_exact_realtime(spin_machine(), "aaaaaaa")
    run_exact_realtime(mod_dfa(3), "aaaa")
    run_monte_carlo(build_aw_pal(), "abcba", 20, seed=3)
    assert reached and set(reached) <= {analysis._OP_MEASURE, analysis._OP_MEASURE_ROTATION}


def test_a_unary_walk_keeps_bounded_registers():
    # AW_PAL's registers on a^n never recur and grow with n; the cycle
    # walk keeps two of them, its head and its mark, and the run still
    # ends in the same table hole.
    spec = build_aw_pal()
    tracemalloc.start()
    try:
        with pytest.raises(MachineError, match="no classical transition"):
            run_exact_realtime(spec, "a" * 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000
