"""Exact runs, restart/sweep analyses, Monte Carlo, and unary fast paths."""

import collections
import dataclasses
import fractions
import itertools
import math
import random
import sys
import time
import tracemalloc
import types
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import to_rational

from exactqfa import analysis
from exactqfa.analysis import (
    CATEGORIES,
    MachineError,
    MonteCarloResult,
    NonterminatingError,
    OutcomeDistribution,
    RestartAnalysis,
    SplittableRng,
    analyze_restarting,
    analyze_sweeping,
    run_exact_realtime,
    run_exact_sweeping,
    run_monte_carlo,
    run_unary_length,
)
from exactqfa.constructions import (
    CONSTRUCTION_IDS,
    build,
    build_aw_pal,
    build_counter_dfa,
    build_evenodd_dfa,
    build_evenodd_mcqfa,
    build_exact_eq_restarting,
    build_exact_exptwinpal,
    build_exact_pal_sweeping,
    build_exact_twinpal,
    build_lv_exptwinpal,
)
from exactqfa.exactnum import (
    ApproxProb,
    ExactnessError,
    ExactProb,
    RationalInterval,
    dyadic_pi,
    one_minus_inv_e_bracket,
    sqrt2_pi,
)
from exactqfa.machines import (
    LEFT_MARKER,
    MODEL_RESTARTING,
    MODEL_RTDFA,
    MODEL_RTPFA,
    MODEL_RTQCFA,
    MODEL_SWEEPING,
    MOVE_LEFT,
    MOVE_RIGHT,
    MOVE_STAY,
    REGISTER_CLASSICAL,
    REGISTER_MATRIX,
    REGISTER_ROTATION,
    RESTART_TARGET,
    RIGHT_MARKER,
    ClassicalStep,
    MachineSpec,
    MeasureAction,
    MeasureRotationAction,
    RotateAction,
    StochasticMatrix,
    UnitaryAction,
    validate,
)
from exactqfa.qstate import ProjectiveMeasurement, QMatrix, RotationRegister
from test_exactnum import contains
from test_sampling import _thirds_pfa


def _tighten(lo: Fraction, hi: Fraction):
    """The probability with ends lo <= hi, exact when they agree."""
    return ExactProb(lo) if lo == hi else ApproxProb(RationalInterval(lo, hi))


def prob_sum(values):
    """The sum of probabilities, on their ends."""
    ends = [p.ends() for p in values]
    return _tighten(sum((lo for lo, _ in ends), Fraction(0)), sum((hi for _, hi in ends), Fraction(0)))


def prob_add(a, b):
    return prob_sum((a, b))


def prob_scale(p, factor: Fraction):
    """factor * p, on the ends of p, for a factor >= 0."""
    lo, hi = p.ends()
    return _tighten(lo * factor, hi * factor)


def prob_reciprocal(p):
    """1 / p, on the ends of a p above zero."""
    lo, hi = p.ends()
    return _tighten(1 / hi, 1 / lo)


ROT = QMatrix.from_rows(
    [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]
)
SWAP = QMatrix.from_rows([[0, 1], [1, 0]])
BASIS2 = ProjectiveMeasurement.from_partition(2, {"1": [0], "2": [1]})


def spin_machine(model=MODEL_RTQCFA, end=None) -> MachineSpec:
    """Rotate e1 by ROT per symbol, measure at the end.

    Hand oracle for input "aa": ROT^2 e1 = (-7/25, -24/25), so the end
    measurement yields outcome 1 with 49/625 and outcome 2 with 576/625.
    """
    if end is None:
        end = {"1": "s_a", "2": "s_r"}
    return MachineSpec(
        name="spin",
        model_class=model,
        register=REGISTER_MATRIX,
        quantum_dim=2,
        states=frozenset({"s1", "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        quantum_delta={
            ("s1", "a"): UnitaryAction(ROT),
            ("s1", RIGHT_MARKER): MeasureAction(BASIS2),
        },
        classical_delta={
            ("s1", LEFT_MARKER, "1"): ClassicalStep("s1", MOVE_RIGHT),
            ("s1", "a", "1"): ClassicalStep("s1", MOVE_RIGHT),
            ("s1", RIGHT_MARKER, "1"): ClassicalStep(end["1"], MOVE_RIGHT),
            ("s1", RIGHT_MARKER, "2"): ClassicalStep(end["2"], MOVE_RIGHT),
        },
    )


def turn_machine(model=MODEL_RTQCFA, end=None, alphabet=("a",), extra=()) -> MachineSpec:
    """Rotation register: add sqrt(2)*pi per 'a', measure at the end."""
    if end is None:
        end = {"1": "s_a", "2": "s_r"}
    quantum = {
        ("s1", "a"): RotateAction(sqrt2_pi(1)),
        ("s1", RIGHT_MARKER): MeasureRotationAction(),
    }
    classical = {
        ("s1", LEFT_MARKER, "1"): ClassicalStep("s1", MOVE_RIGHT),
        ("s1", "a", "1"): ClassicalStep("s1", MOVE_RIGHT),
        ("s1", RIGHT_MARKER, "1"): ClassicalStep(end["1"], MOVE_RIGHT),
        ("s1", RIGHT_MARKER, "2"): ClassicalStep(end["2"], MOVE_RIGHT),
    }
    for q, c in extra:
        quantum.update(q)
        classical.update(c)
    return MachineSpec(
        name="turn",
        model_class=model,
        register=REGISTER_ROTATION,
        quantum_dim=2,
        states=frozenset({"s1", "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=alphabet,
        quantum_delta=quantum,
        classical_delta=classical,
    )


def test_realtime_exact_oracle():
    dist = run_exact_realtime(spin_machine(), "aa")
    assert dist.p_accept.is_exact() and dist.p_accept.value == Fraction(49, 625)
    assert dist.p_reject.is_exact() and dist.p_reject.value == Fraction(576, 625)
    assert dist.p_continue.value == 0 and dist.p_dont_know.value == 0


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13])
def test_realtime_mass_conservation(n):
    dist = run_exact_realtime(spin_machine(), "a" * n)
    assert dist.p_accept.value + dist.p_reject.value == 1


def test_restarting_analysis_oracle():
    spec = spin_machine(MODEL_RESTARTING, end={"1": RESTART_TARGET, "2": "s_r"})
    assert validate(spec) == []
    analysis = analyze_restarting(spec, "aa")
    assert analysis.per_round.p_continue.value == Fraction(49, 625)
    assert analysis.per_round.p_reject.value == Fraction(576, 625)
    assert analysis.overall_reject.is_exact() and analysis.overall_reject.value == 1
    assert analysis.overall_accept.value == 0
    assert analysis.expected_rounds.value == Fraction(625, 576)
    assert analysis.expected_steps.value == Fraction(625, 576) * 4


def test_restarting_never_halting_raises():
    spec = spin_machine(MODEL_RESTARTING, end={"1": RESTART_TARGET, "2": RESTART_TARGET})
    with pytest.raises(NonterminatingError):
        analyze_restarting(spec, "a")


def test_rotation_interval_probabilities():
    dist = run_exact_realtime(turn_machine(), "a")
    # Oracle from the frozen angle-probability bounds: sin^2(sqrt(2) pi)
    # lies in (9291/10000, 9292/10000).
    assert not dist.p_reject.is_exact()
    iv = dist.p_reject.as_interval()
    assert Fraction(9291, 10000) < iv.lo and iv.hi < Fraction(9292, 10000)
    total = prob_sum(vars(dist).values()).as_interval()
    assert contains(total, Fraction(1))


def test_rotation_zero_angle_is_exactly_certain():
    dist = run_exact_realtime(turn_machine(), "")
    assert dist.p_accept.is_exact() and dist.p_accept.value == 1
    assert dist.p_reject.value == 0


def test_rotation_split_on_left_marker_is_exact():
    pre = QMatrix.from_rows(
        [[Fraction(4, 5), Fraction(-3, 5)], [Fraction(3, 5), Fraction(4, 5)]]
    )
    spec = MachineSpec(
        name="split",
        model_class=MODEL_RTQCFA,
        register=REGISTER_ROTATION,
        quantum_dim=2,
        states=frozenset({"s1", "lo", "hi", "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        quantum_delta={
            ("s1", LEFT_MARKER): MeasureRotationAction(pre=pre),
            ("lo", RIGHT_MARKER): MeasureRotationAction(),
            ("hi", RIGHT_MARKER): MeasureRotationAction(),
        },
        classical_delta={
            ("s1", LEFT_MARKER, "1"): ClassicalStep("lo", MOVE_RIGHT),
            ("s1", LEFT_MARKER, "2"): ClassicalStep("hi", MOVE_RIGHT),
            ("lo", "a", "1"): ClassicalStep("lo", MOVE_RIGHT),
            ("hi", "a", "1"): ClassicalStep("hi", MOVE_RIGHT),
            ("lo", RIGHT_MARKER, "1"): ClassicalStep("s_a", MOVE_RIGHT),
            ("lo", RIGHT_MARKER, "2"): ClassicalStep("s_r", MOVE_RIGHT),
            ("hi", RIGHT_MARKER, "1"): ClassicalStep("s_r", MOVE_RIGHT),
            ("hi", RIGHT_MARKER, "2"): ClassicalStep("s_a", MOVE_RIGHT),
        },
    )
    assert validate(spec) == []
    dist = run_exact_realtime(spec, "")
    # Hand oracle: pre maps angle 0 to (4/5, 3/5); the |0> branch (16/25)
    # accepts via outcome 1 and the |1> branch (9/25) accepts via outcome 2.
    assert dist.p_accept.is_exact() and dist.p_accept.value == 1


def test_inexact_midword_measurement_raises():
    spec = turn_machine(
        alphabet=("a", "b"),
        extra=[
            (
                {("s1", "b"): MeasureRotationAction()},
                {
                    ("s1", "b", "1"): ClassicalStep("s1", MOVE_RIGHT),
                    ("s1", "b", "2"): ClassicalStep("s1", MOVE_RIGHT),
                },
            )
        ],
    )
    with pytest.raises(ExactnessError):
        run_exact_realtime(spec, "ab")


def test_certified_one_sided_restart_analysis():
    spec = turn_machine(MODEL_RESTARTING, end={"1": RESTART_TARGET, "2": "s_r"})
    analysis = analyze_restarting(spec, "a")
    # Reject mass is an interval around 0.929 but accept mass is exactly
    # zero, so conditioning on halting certifies rejection exactly.
    assert analysis.overall_reject.is_exact() and analysis.overall_reject.value == 1
    rounds = analysis.expected_rounds.as_interval()
    assert Fraction(10000, 9292) < rounds.lo and rounds.hi < Fraction(10000, 9291)


def fair_coin_pfa() -> MachineSpec:
    half = Fraction(1, 2)
    order = ("s1", "s_a", "s_r")
    keep = StochasticMatrix(
        order,
        ((Fraction(1), Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(1))),
    )
    flip = StochasticMatrix(
        order,
        ((Fraction(0), half, half),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(1))),
    )
    return MachineSpec(
        name="fair-coin",
        model_class=MODEL_RTPFA,
        register=REGISTER_CLASSICAL,
        quantum_dim=1,
        states=frozenset(order),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        stochastic_delta={LEFT_MARKER: keep, "a": keep, RIGHT_MARKER: flip},
    )


def test_pfa_fair_coin_exact():
    for word in ("", "aaa"):
        dist = run_exact_realtime(fair_coin_pfa(), word)
        assert dist.p_accept.value == Fraction(1, 2)
        assert dist.p_reject.value == Fraction(1, 2)


def small_pfa(name: str, rows_by_symbol: dict) -> MachineSpec:
    """A PFA over the states s1, s2, s_a, s_r, with each symbol's rows in that order."""
    order = ("s1", "s2", "s_a", "s_r")
    return MachineSpec(
        name=name,
        model_class=MODEL_RTPFA,
        register=REGISTER_CLASSICAL,
        quantum_dim=1,
        states=frozenset(order),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=tuple(sym for sym in rows_by_symbol if sym not in (LEFT_MARKER, RIGHT_MARKER)),
        stochastic_delta={
            sym: StochasticMatrix(order, tuple(tuple(Fraction(x) for x in row) for row in rows))
            for sym, rows in rows_by_symbol.items()
        },
    )


PFA_KEEP = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)


def bouncing_pfa() -> MachineSpec:
    """On "a", s1 enters s_a or stays with 1/2 each, and s_a goes back to
    s1: the accept state does not absorb, so "aa" accepts with 1/4."""
    bounce = ((HALF, 0, HALF, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1))
    return small_pfa("bouncing", {LEFT_MARKER: PFA_KEEP, "a": bounce, RIGHT_MARKER: PFA_KEEP})


def residual_pfa() -> MachineSpec:
    """The right end-marker leaves a third of s2's mass in s2, so a^n
    ends with p_continue (1 - 2^-n)/3."""
    split = ((HALF, HALF, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    end = ((0, 0, 1, 0), (0, THIRD, THIRD, THIRD), (0, 0, 1, 0), (0, 0, 0, 1))
    return small_pfa("residual", {LEFT_MARKER: PFA_KEEP, "a": split, RIGHT_MARKER: end})


def two_letter_pfa() -> MachineSpec:
    """Branches on both letters, leaves s_a on "a", and keeps s2's mass at the end."""
    a = ((HALF, HALF, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1))
    b = ((1, 0, 0, 0), (THIRD, 0, 2 * THIRD, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    end = ((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    return small_pfa("two-letter", {LEFT_MARKER: PFA_KEEP, "a": a, "b": b, RIGHT_MARKER: end})


def test_small_pfas_are_valid():
    for spec in (bouncing_pfa(), residual_pfa(), two_letter_pfa()):
        assert validate(spec) == []


def _within_hoeffding(count: int, trials: int, p: Fraction, delta: float = 1e-9) -> bool:
    """count/trials is within the Hoeffding bound that a fair sampler of
    probability p leaves with probability at most delta."""
    return abs(Fraction(count, trials) - p) <= math.sqrt(math.log(2 / delta) / (2 * trials))


def test_monte_carlo_on_a_pfa_whose_accept_state_does_not_absorb():
    spec = bouncing_pfa()
    assert run_exact_realtime(spec, "aa").p_accept == ExactProb(Fraction(1, 4))
    result = run_monte_carlo(spec, "aa", 4000, seed=1)
    assert _within_hoeffding(result.counts["accept"], 4000, Fraction(1, 4))
    # Every trial reads the whole tape: the two end-markers and two a's.
    assert result.mean_steps == 4


def test_monte_carlo_on_a_pfa_halts_its_residual_mass_as_continue():
    spec = residual_pfa()
    dist = run_exact_realtime(spec, "aaa")
    assert dist.p_continue == ExactProb(Fraction(7, 24))
    result = run_monte_carlo(spec, "aaa", 4000, seed=2)
    assert _within_hoeffding(result.counts["continue"], 4000, dist.p_continue.value)
    assert result.counts["capped"] == 0
    assert result.mean_rounds == 1


def bounce_machine() -> MachineSpec:
    """Sweeping machine with a 9/25 accept coin per iteration.

    Hand-derived behavior on input "a": the left-marker measurement
    (pre-rotation ROT on e1 = (3/5, -4/5)) accepts through outcome 1
    with 9/25 after one forward sweep; the 16/25 branch sweeps to the
    right marker, returns, swaps the register back to e1, and retries.
    Cycle: 5 ticks, 2 sweeps; accepting mass decides at tick 3, sweep 1.
    """
    return MachineSpec(
        name="bounce",
        model_class=MODEL_SWEEPING,
        register=REGISTER_MATRIX,
        quantum_dim=2,
        states=frozenset({"s1", "fwd_a", "fwd_b", "back", "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        quantum_delta={
            ("s1", LEFT_MARKER): MeasureAction(BASIS2, pre=ROT),
            ("back", LEFT_MARKER): UnitaryAction(SWAP),
        },
        classical_delta={
            ("s1", LEFT_MARKER, "1"): ClassicalStep("fwd_a", MOVE_RIGHT),
            ("s1", LEFT_MARKER, "2"): ClassicalStep("fwd_b", MOVE_RIGHT),
            ("fwd_a", "a", "1"): ClassicalStep("fwd_a", MOVE_RIGHT),
            ("fwd_b", "a", "1"): ClassicalStep("fwd_b", MOVE_RIGHT),
            ("fwd_a", RIGHT_MARKER, "1"): ClassicalStep("s_a", MOVE_RIGHT),
            ("fwd_b", RIGHT_MARKER, "1"): ClassicalStep("back", MOVE_LEFT),
            ("back", "a", "1"): ClassicalStep("back", MOVE_LEFT),
            ("back", LEFT_MARKER, "1"): ClassicalStep("s1", MOVE_STAY),
        },
    )


def test_bounce_machine_is_valid():
    assert validate(bounce_machine()) == []


def test_sweeping_cap_zero_is_all_residual():
    dist = run_exact_sweeping(bounce_machine(), "a", max_sweeps=0)
    assert dist.p_continue.value == 1


def test_sweeping_budget_oracle():
    spec = bounce_machine()
    dist2 = run_exact_sweeping(spec, "a", max_sweeps=2)
    assert dist2.p_accept.value == Fraction(9, 25)
    assert dist2.p_continue.value == Fraction(16, 25)
    dist4 = run_exact_sweeping(spec, "a", max_sweeps=4)
    # Second iteration adds (16/25)(9/25).
    assert dist4.p_accept.value == Fraction(9, 25) + Fraction(16, 25) * Fraction(9, 25)


def test_sweeping_accept_mass_is_monotone_in_budget():
    spec = bounce_machine()
    values = [run_exact_sweeping(spec, "a", max_sweeps=k).p_accept.value for k in range(0, 12)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_analyze_sweeping_closed_form_oracle():
    analysis = analyze_sweeping(bounce_machine(), "a")
    assert analysis.per_iteration.p_accept.value == Fraction(9, 25)
    assert analysis.per_iteration.p_continue.value == Fraction(16, 25)
    assert analysis.overall_accept.value == 1
    assert analysis.expected_iterations.value == Fraction(25, 9)
    # E[sweeps] = 1 + 2 * (16/25)/(9/25); E[ticks] = 3 + 5 * (16/25)/(9/25).
    assert analysis.expected_sweeps.value == 1 + Fraction(32, 9)
    assert analysis.expected_steps.value == 3 + Fraction(80, 9)


def test_analyze_sweeping_when_every_branch_decides_in_one_pass():
    # The bounce machine with its retry branch rejecting at the right
    # marker instead: no mass is live after the first pass.
    bounce = bounce_machine()
    delta = {key: step for key, step in bounce.classical_delta.items() if key[0] != "back"}
    delta[("fwd_b", RIGHT_MARKER, "1")] = ClassicalStep("s_r", MOVE_RIGHT)
    spec = dataclasses.replace(
        bounce,
        name="one-pass",
        states=bounce.states - {"back"},
        quantum_delta={("s1", LEFT_MARKER): bounce.quantum_delta[("s1", LEFT_MARKER)]},
        classical_delta=delta,
    )
    assert validate(spec) == []
    analysis = analyze_sweeping(spec, "a")
    assert analysis.per_iteration.p_continue == ExactProb(Fraction(0))
    assert analysis.expected_iterations == ExactProb(Fraction(1))
    assert analysis.overall_accept == ExactProb(Fraction(9, 25))
    assert analysis.overall_reject == ExactProb(Fraction(16, 25))
    # Both branches decide on the third square, at the end of one sweep.
    assert analysis.expected_steps == ExactProb(Fraction(3))
    assert analysis.expected_sweeps == ExactProb(Fraction(1))


def _weighted(weight: Fraction, p) -> "ExactProb | ApproxProb":
    """weight * p as a decided mass; a certain branch keeps the weight as is."""
    if p is analysis._UNIT:
        return ExactProb(weight)
    if isinstance(p, Fraction):
        return ExactProb(weight * p)
    return prob_scale(p, weight)


def _live_share(weight: Fraction, p) -> Fraction:
    """weight * p for a branch that stays live, which needs an exact p."""
    if p is analysis._UNIT:
        return weight
    if not isinstance(p, Fraction):
        raise ExactnessError("interval-valued measurement outcome must halt or restart")
    return weight * p


def _reference_tick(kernel, tape: "list[str]", live: dict, tick: int, decided: list) -> dict:
    """One square of every live branch of a two-way run on Fraction
    weights. ``live`` maps (pos, state, register, sweeps) to a weight, and
    each decided mass is appended to ``decided`` as (category, mass,
    tick, sweeps)."""
    last = len(tape) - 1
    new_live = {}
    for (pos, cstate, reg, sweeps), weight in live.items():
        for category, state2, offset, reg2, p in kernel.successors(cstate, tape[pos], reg):
            if category == analysis.CATEGORY_CONTINUE:
                raise MachineError("restart is not part of the sweeping model")
            if category is not None:
                decided.append((category, _weighted(weight, p), tick, sweeps))
                continue
            share = _live_share(weight, p)
            pos2 = analysis._moved(pos, offset, last)
            arrived = pos2 != pos and pos2 in (0, last)
            key = (pos2, state2, reg2, sweeps + 1 if arrived else sweeps)
            new_live[key] = new_live.get(key, 0) + share
    return new_live


def reference_sweeping(spec: MachineSpec, word: str, max_sweeps=None, tick_cap: int = 0):
    """The two-way runners on Fraction weights, square by square: the run
    capped at ``max_sweeps``, or the loop analysis when it is None, which
    takes at most ``tick_cap`` ticks (the analysis' default when 0)."""
    tape = analysis.tape_of(spec, word)
    kernel = analysis._Kernel(spec, 64)
    start = (0, spec.initial_state, analysis.initial_register(spec))
    live = {(*start, 0): Fraction(1)}
    decided = []
    if max_sweeps is not None:
        step_budget = (max_sweeps + 1) * (len(tape) + 2) + 16
        for tick in range(step_budget + 2):
            for key in [key for key in live if key[3] >= max_sweeps]:
                decided.append(("continue", ExactProb(live.pop(key)), tick, key[3]))
            if not live:
                break
            if tick > step_budget:
                raise MachineError("step budget exceeded without sweep progress")
            live = _reference_tick(kernel, tape, live, tick + 1, decided)
        return OutcomeDistribution(*(prob_sum(m for c, m, _, _ in decided if c == cat) for cat in CATEGORIES))
    loop_weight, cycle_ticks, cycle_sweeps = None, 0, 0
    if tick_cap <= 0:
        tick_cap = 64 * (len(tape) + 2) + 256
    for tick in range(1, tick_cap + 1):
        live = _reference_tick(kernel, tape, live, tick, decided)
        if not live:
            loop_weight = Fraction(0)
            break
        if len(live) == 1 and next(iter(live))[:3] == start:
            (((*_, cycle_sweeps), loop_weight),) = live.items()
            cycle_ticks = tick
            break
    if not all(mass.is_exact() for _, mass, _, _ in decided):
        raise ExactnessError("loop analysis requires exact branch masses")
    if loop_weight is None:
        raise MachineError("no iteration structure detected within the tick cap")
    if loop_weight >= 1:
        raise NonterminatingError("the sweeping loop never sheds mass")
    survive = 1 - loop_weight
    sums = {cat: Fraction(0) for cat in CATEGORIES}
    sums["continue"] = loop_weight
    tick_mass = sweep_mass = Fraction(0)
    for category, mass, tick, sweeps in decided:
        sums[category] += mass.value
        tick_mass += mass.value * tick
        sweep_mass += mass.value * sweeps
    tail = loop_weight / survive
    return analysis.SweepingAnalysis(
        per_iteration=OutcomeDistribution(*(ExactProb(sums[cat]) for cat in CATEGORIES)),
        overall_accept=ExactProb(sums["accept"] / survive),
        overall_reject=ExactProb(sums["reject"] / survive),
        expected_iterations=ExactProb(1 / survive),
        expected_sweeps=ExactProb(sweep_mass / survive + cycle_sweeps * tail),
        expected_steps=ExactProb(tick_mass / survive + cycle_ticks * tail),
    )


def two_way_turn_machine(live: bool = False) -> MachineSpec:
    """Turns by sqrt(2) pi at each "a" on its way right, walks back, and
    measures its rotation register at the left end-marker: outcome "1"
    accepts and "2" rejects, both with interval-valued mass once the angle
    is irrational. With ``live``, outcome "2" sweeps again instead."""
    return MachineSpec(
        name="two-way-turn" + ("-live" if live else ""),
        model_class=MODEL_SWEEPING,
        register=REGISTER_ROTATION,
        quantum_dim=2,
        states=frozenset({"s1", "fwd", "back", "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        quantum_delta={("fwd", "a"): RotateAction(sqrt2_pi(1)), ("back", LEFT_MARKER): MeasureRotationAction()},
        classical_delta={
            ("s1", LEFT_MARKER, "1"): ClassicalStep("fwd", MOVE_RIGHT),
            ("fwd", "a", "1"): ClassicalStep("fwd", MOVE_RIGHT),
            ("fwd", RIGHT_MARKER, "1"): ClassicalStep("back", MOVE_LEFT),
            ("back", "a", "1"): ClassicalStep("back", MOVE_LEFT),
            ("back", LEFT_MARKER, "1"): ClassicalStep("s_a", MOVE_RIGHT),
            ("back", LEFT_MARKER, "2"): ClassicalStep("fwd" if live else "s_r", MOVE_RIGHT),
        },
    )


def sweep(spec: MachineSpec, word: str, max_sweeps=None):
    """The run capped at ``max_sweeps``, or the loop analysis when it is None."""
    return analyze_sweeping(spec, word) if max_sweeps is None else run_exact_sweeping(spec, word, max_sweeps)


def sweep_outcome(run, spec: MachineSpec, word: str, max_sweeps=None):
    """A two-way run's result, or the type and message of the error it raised."""
    try:
        return run(spec, word, max_sweeps)
    except (MachineError, ExactnessError, NonterminatingError) as exc:
        return type(exc), str(exc)


TWO_WAY_MACHINES = [bounce_machine(), build_exact_pal_sweeping(), two_way_turn_machine(), two_way_turn_machine(True)]


@pytest.mark.parametrize("spec", TWO_WAY_MACHINES, ids=[spec.name for spec in TWO_WAY_MACHINES])
def test_every_short_word_matches_the_fraction_sweep(spec):
    # Exact values and kinds, or the same error type and message, for the
    # loop analysis and for the capped run at budgets 0 to 6, on every word
    # of length at most 5.
    words = ["".join(w) for n in range(6) for w in itertools.product(spec.alphabet, repeat=n)]
    for word in words:
        for budget in (None, *range(7)):
            result = sweep_outcome(sweep, spec, word, budget)
            assert result == sweep_outcome(reference_sweeping, spec, word, budget), (word, budget)


def test_every_small_promise_instance_matches_the_fraction_analysis():
    spec = build_exact_pal_sweeping()
    words = ["".join(w) for n in range(1, 6) for w in itertools.product("ab", repeat=n)]
    pairs = [(u, v) for u in words for v in words if len(u) == len(v) and (u == u[::-1]) != (v == v[::-1])]
    assert len(pairs) == 520
    for u, v in pairs:
        assert analyze_sweeping(spec, f"{u}c{v}") == reference_sweeping(spec, f"{u}c{v}"), (u, v)


def test_seeded_words_match_the_fraction_sweep_at_a_large_budget():
    spec = build_exact_pal_sweeping()
    rng = random.Random("sweep")
    for _ in range(3):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(2, 5)))
        word = f"{u}c{u[::-1] if rng.random() < 0.5 else u}"
        result = run_exact_sweeping(spec, word, 200)
        assert result.p_continue.value > 0
        assert result == reference_sweeping(spec, word, 200), word


def test_the_differential_sweep_cases_cover_intervals_and_errors():
    turn, live = two_way_turn_machine(), two_way_turn_machine(True)
    assert validate(turn) == validate(live) == []
    capped = run_exact_sweeping(turn, "aa", 3)
    assert not capped.p_accept.is_exact() and not capped.p_reject.is_exact()
    assert sweep_outcome(sweep, turn, "aa") == (ExactnessError, "loop analysis requires exact branch masses")
    interval_live = (ExactnessError, "interval-valued measurement outcome must halt or restart")
    assert sweep_outcome(sweep, live, "aa") == sweep_outcome(sweep, live, "aa", 3) == interval_live
    assert analyze_sweeping(live, "").overall_accept == ExactProb(Fraction(1))


@pytest.mark.parametrize("spec, word, loop_ticks", [(build_exact_pal_sweeping(), "abaabcaabab", 49), (bounce_machine(), "a", 5)])
def test_a_tick_cap_near_the_loop_length_matches_the_reference(spec, word, loop_ticks):
    # A stretch of certain squares ends at the tick cap: one tick short of
    # the loop finds no loop, and the loop length or one more finds it.
    results = []
    for cap in (loop_ticks - 1, loop_ticks, loop_ticks + 1):
        result = sweep_outcome(lambda s, w, _: analyze_sweeping(s, w, tick_cap=cap), spec, word)
        assert result == sweep_outcome(lambda s, w, _: reference_sweeping(s, w, tick_cap=cap), spec, word), cap
        results.append(result)
    assert results[0] == (MachineError, "no iteration structure detected within the tick cap")
    assert results[1] == results[2] == analyze_sweeping(spec, word)


def stay_machine(sym: str) -> MachineSpec:
    """Walks right from the left end-marker to the first ``sym`` square,
    then stays on it for ever, turning its rotation register by sqrt(2) pi
    each time, so neither its position nor its register recurs. Staying
    on "a" breaks a rule of ``validate``, which the runners do not ask."""
    return MachineSpec(
        name=f"stay-{sym}",
        model_class=MODEL_SWEEPING,
        register=REGISTER_ROTATION,
        quantum_dim=2,
        states=frozenset({"s1", "fwd", "stay", "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        quantum_delta={("stay", sym): RotateAction(sqrt2_pi(1))},
        classical_delta={
            ("s1", LEFT_MARKER, "1"): ClassicalStep("fwd", MOVE_RIGHT),
            ("fwd", "a", "1"): ClassicalStep("stay" if sym == "a" else "fwd", MOVE_STAY if sym == "a" else MOVE_RIGHT),
            ("fwd", RIGHT_MARKER, "1"): ClassicalStep("stay", MOVE_STAY),
            ("stay", sym, "1"): ClassicalStep("stay", MOVE_STAY),
        },
    )


def split_machine(hole_first: bool) -> MachineSpec:
    """A 9/25 coin at the left end-marker sends branch "x" right over
    every letter, back and to acceptance at the left end-marker, and
    branch "y" right over "a" only: "y" has no transition on "b", and
    rejects at the right end-marker. With ``hole_first``, "y" takes the
    coin's first outcome, so it is the first live key."""
    first, second = ("y", "x") if hole_first else ("x", "y")
    return MachineSpec(
        name="split-hole-first" if hole_first else "split",
        model_class=MODEL_SWEEPING,
        register=REGISTER_MATRIX,
        quantum_dim=2,
        states=frozenset({"s1", "x", "y", "back", "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a", "b"),
        quantum_delta={("s1", LEFT_MARKER): MeasureAction(BASIS2, pre=ROT)},
        classical_delta={
            ("s1", LEFT_MARKER, "1"): ClassicalStep(first, MOVE_RIGHT),
            ("s1", LEFT_MARKER, "2"): ClassicalStep(second, MOVE_RIGHT),
            ("x", "a", "1"): ClassicalStep("x", MOVE_RIGHT),
            ("x", "b", "1"): ClassicalStep("x", MOVE_RIGHT),
            ("x", RIGHT_MARKER, "1"): ClassicalStep("back", MOVE_LEFT),
            ("back", "a", "1"): ClassicalStep("back", MOVE_LEFT),
            ("back", "b", "1"): ClassicalStep("back", MOVE_LEFT),
            ("back", LEFT_MARKER, "1"): ClassicalStep("s_a", MOVE_RIGHT),
            ("y", "a", "1"): ClassicalStep("y", MOVE_RIGHT),
            ("y", RIGHT_MARKER, "1"): ClassicalStep("s_r", MOVE_RIGHT),
        },
    )


def out_of_phase_machine() -> MachineSpec:
    """A 9/25 coin at the left end-marker sends branch "x" bouncing
    between the end-markers on certain squares for ever, and branch "y"
    along the same path measuring a certain outcome on every "b". So "y"
    cuts short most walks of "x", and no loop is ever found."""
    delta = {
        ("s1", LEFT_MARKER, "1"): ClassicalStep("x", MOVE_RIGHT),
        ("s1", LEFT_MARKER, "2"): ClassicalStep("y", MOVE_RIGHT),
    }
    for right, left in (("x", "x_back"), ("y", "y_back")):
        for sym in ("a", "b"):
            for label in ("1", "2"):
                delta[right, sym, label] = ClassicalStep(right, MOVE_RIGHT)
                delta[left, sym, label] = ClassicalStep(left, MOVE_LEFT)
        delta[right, RIGHT_MARKER, "1"] = ClassicalStep(left, MOVE_LEFT)
        delta[left, LEFT_MARKER, "1"] = ClassicalStep(right, MOVE_RIGHT)
    return MachineSpec(
        name="out-of-phase",
        model_class=MODEL_SWEEPING,
        register=REGISTER_MATRIX,
        quantum_dim=2,
        states=frozenset({"s1", "x", "x_back", "y", "y_back", "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a", "b"),
        quantum_delta={
            ("s1", LEFT_MARKER): MeasureAction(BASIS2, pre=ROT),
            ("y", "b"): MeasureAction(BASIS2),
            ("y_back", "b"): MeasureAction(BASIS2),
        },
        classical_delta=delta,
    )


def home_machine() -> MachineSpec:
    """The bounce machine behind a certain first square: it starts in "s0"
    at the left end-marker, which steps to "s1" in place, and its retry
    branch comes home to "s0", so a walk home could pass the start."""
    bounce = bounce_machine()
    delta = dict(bounce.classical_delta)
    delta["s0", LEFT_MARKER, "1"] = ClassicalStep("s1", MOVE_STAY)
    delta["back", LEFT_MARKER, "1"] = ClassicalStep("s0", MOVE_STAY)
    return dataclasses.replace(
        bounce, name="home", states=bounce.states | {"s0"}, initial_state="s0", classical_delta=delta
    )


def fall_machine() -> MachineSpec:
    """Walks right on certain squares and off the right end of the tape."""
    return MachineSpec(
        name="fall",
        model_class=MODEL_SWEEPING,
        register=REGISTER_MATRIX,
        quantum_dim=2,
        states=frozenset({"s1", "fwd", "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        quantum_delta={},
        classical_delta={
            ("s1", LEFT_MARKER, "1"): ClassicalStep("fwd", MOVE_RIGHT),
            ("fwd", "a", "1"): ClassicalStep("fwd", MOVE_RIGHT),
            ("fwd", RIGHT_MARKER, "1"): ClassicalStep("fwd", MOVE_RIGHT),
        },
    )


def waiting_machine(waits: int) -> MachineSpec:
    """Stays ``waits`` ticks on the left end-marker, then sweeps right and
    accepts at the right end-marker: on the empty input its first sweep
    completes at tick waits + 1."""
    states = [f"w{i}" for i in range(waits + 1)]
    delta = {(a, LEFT_MARKER, "1"): ClassicalStep(b, MOVE_STAY) for a, b in zip(states, states[1:])}
    delta[states[-1], LEFT_MARKER, "1"] = ClassicalStep("fwd", MOVE_RIGHT)
    delta["fwd", "a", "1"] = ClassicalStep("fwd", MOVE_RIGHT)
    delta["fwd", RIGHT_MARKER, "1"] = ClassicalStep("s_a", MOVE_RIGHT)
    return MachineSpec(
        name=f"wait-{waits}",
        model_class=MODEL_SWEEPING,
        register=REGISTER_MATRIX,
        quantum_dim=2,
        states=frozenset({*states, "fwd", "s_a", "s_r"}),
        initial_state="w0",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        quantum_delta={},
        classical_delta=delta,
    )


def test_a_capped_run_ends_at_its_step_budget():
    # Budget 1 on the empty input allows 2 * 4 + 16 = 24 ticks: a sweep
    # that completes at tick 25 is counted, and one at tick 26 is not.
    outcomes = {}
    for waits in (23, 24, 25):
        spec = waiting_machine(waits)
        assert validate(spec) == []
        outcomes[waits] = sweep_outcome(sweep, spec, "", 1)
        assert outcomes[waits] == sweep_outcome(reference_sweeping, spec, "", 1), waits
    assert outcomes[23] == outcomes[24] == OutcomeDistribution(*(ExactProb(Fraction(c == "continue")) for c in CATEGORIES))
    assert outcomes[25] == (MachineError, "step budget exceeded without sweep progress")


STRETCH_EDGE_MACHINES = [
    stay_machine("a"),
    stay_machine(RIGHT_MARKER),
    split_machine(False),
    split_machine(True),
    out_of_phase_machine(),
    home_machine(),
    fall_machine(),
]


@pytest.mark.parametrize("spec", STRETCH_EDGE_MACHINES, ids=[spec.name for spec in STRETCH_EDGE_MACHINES])
def test_stretches_cut_short_match_the_fraction_sweep(spec):
    # Branches that stay, that reach a table hole while another is in the
    # middle of a stretch, and that stop out of phase, on every word of
    # length at most 4, for the loop analysis and budgets 0 to 6 and 40.
    words = ["".join(w) for n in range(5) for w in itertools.product(spec.alphabet, repeat=n)]
    for word in words:
        for budget in (None, *range(7), 40):
            result = sweep_outcome(sweep, spec, word, budget)
            assert result == sweep_outcome(reference_sweeping, spec, word, budget), (word, budget)


def test_the_stretch_edge_cases_cover_holes_and_cut_walks():
    for spec in STRETCH_EDGE_MACHINES[:2]:
        # A branch that stays for ever finds no loop and makes no sweep progress.
        assert sweep_outcome(sweep, spec, "aa") == (MachineError, "no iteration structure detected within the tick cap")
        assert sweep_outcome(sweep, spec, "aa", 1000) == (MachineError, "step budget exceeded without sweep progress")
    hole = (MachineError, "no classical transition for ('y', 'b', '1')")
    for spec, accept in zip(STRETCH_EDGE_MACHINES[2:4], (Fraction(9, 25), Fraction(16, 25))):
        assert validate(spec) == []
        # "y" meets the hole at the fourth square, with "x" mid-walk.
        assert sweep_outcome(sweep, spec, "aaba") == sweep_outcome(sweep, spec, "aaba", 3) == hole
        assert sweep_outcome(sweep, spec, "aaaa").overall_accept == ExactProb(accept)
    # The loop is found at the start: each iteration takes one more tick.
    home, bounce = analyze_sweeping(home_machine(), "a"), analyze_sweeping(bounce_machine(), "a")
    assert home.per_iteration == bounce.per_iteration and home.expected_sweeps == bounce.expected_sweeps
    assert home.expected_steps.value == bounce.expected_steps.value + bounce.expected_iterations.value
    assert sweep_outcome(sweep, fall_machine(), "a") == (MachineError, "head moved off the tape")
    phase = out_of_phase_machine()
    assert sweep_outcome(sweep, phase, "abab") == (MachineError, "no iteration structure detected within the tick cap")
    assert run_exact_sweeping(phase, "abab", 40).p_continue == ExactProb(Fraction(1))


def test_walks_cut_short_out_of_phase_stay_within_the_stretch_cap(monkeypatch):
    # Branch "y" measures on every "b", so it cuts short nearly every walk
    # of "x". Each walk is capped, so the squares walked grow with the
    # ticks, not with their square (4.6M squares here without the cap).
    walked = []
    walk = analysis._walk

    def counted(*args):
        n, key = walk(*args)
        walked.append(n)
        return n, key

    monkeypatch.setattr(analysis, "_walk", counted)
    word = "ab" * 20
    ticks = 64 * (len(word) + 4) + 256
    assert sweep_outcome(sweep, out_of_phase_machine(), word)[0] is MachineError
    assert sum(walked) <= 2 * analysis._STRETCH_TICKS * ticks


def test_a_sweep_analysis_ticks_only_where_a_square_measures_decides_or_fails(monkeypatch):
    met = []
    tick = analysis._sweep_tick

    def counted(kernel, tape, state):
        met.append([kernel.square(cstate, tape[pos]) for pos, cstate, _, _ in state[1]])
        return tick(kernel, tape, state)

    def stops(square):
        exit = square.fixed
        return square.op >= analysis._OP_MEASURE or isinstance(exit, str) or exit[0] is not None

    monkeypatch.setattr(analysis, "_sweep_tick", counted)
    result = analyze_sweeping(build_exact_pal_sweeping(), "abaabcaabab")
    assert result == reference_sweeping(build_exact_pal_sweeping(), "abaabcaabab")
    # Of the loop's 49 ticks, only the coin at the left end-marker and the
    # measurement at the right one resolve their squares.
    assert len(met) == 2
    assert all(any(stops(square) for square in squares) for squares in met)


def test_a_two_way_walk_steps_no_idle_square(monkeypatch):
    # A walked square with no action keeps its register without a call,
    # and a walked unitary still goes through QMatrix.apply.
    ops, applied, walking = [], [], []
    walk, stepped, apply = analysis._walk, analysis._Square.stepped, QMatrix.apply

    def walked(*args):
        walking.append(True)
        try:
            return walk(*args)
        finally:
            walking.pop()

    monkeypatch.setattr(analysis, "_walk", walked)
    monkeypatch.setattr(analysis._Square, "stepped", lambda square, reg: walking and ops.append(square.op) or stepped(square, reg))
    monkeypatch.setattr(QMatrix, "apply", lambda matrix, vec: applied.append(matrix) or apply(matrix, vec))
    analyze_sweeping(build_exact_pal_sweeping(), "abaabcaabab")
    analyze_sweeping(bounce_machine(), "aaa")
    run_exact_sweeping(two_way_turn_machine(), "aaa", 4)
    assert {analysis._OP_UNITARY, analysis._OP_ROTATE} <= set(ops) and analysis._OP_NONE not in ops
    assert len(applied) >= ops.count(analysis._OP_UNITARY)


def test_a_realtime_run_steps_no_idle_square(monkeypatch):
    # _step's all-walk branch, _block_row and _Square.resolve keep a walked
    # idle square's register without a call, and a walked unitary still
    # goes through QMatrix.apply.
    calls, applied = [], []
    stepped, apply = analysis._Square.stepped, QMatrix.apply

    def spied(square, reg):
        calls.append((sys._getframe(1).f_code.co_name, square.op))
        return stepped(square, reg)

    monkeypatch.setattr(analysis._Square, "stepped", spied)
    monkeypatch.setattr(QMatrix, "apply", lambda matrix, vec: applied.append(matrix) or apply(matrix, vec))
    for spec, word in ((idle_split_machine(), "abab"), (coin_turn_machine(), "aabab"), (build("AW_EQ_PHASE"), "aaba")):
        run_exact_realtime(spec, word)
    # A sampled run resolves each square it meets, the idle "s" at "a" too.
    run_monte_carlo(idle_split_machine(), "abab", trials=5, seed="1")
    callers = ("_step", "_block_row")
    # Both paths step unitaries and rotations, and neither an idle square.
    realtime = {(caller, op) for caller, op in calls if caller in callers}
    assert realtime == {(caller, op) for caller in callers for op in (analysis._OP_UNITARY, analysis._OP_ROTATE)}
    assert {op for caller, op in calls if caller == "resolve"} == {analysis._OP_UNITARY}
    assert len(applied) >= sum(op == analysis._OP_UNITARY for _, op in calls)


def _within_five_sigma(count: int, trials: int, p_lo: Fraction, p_hi: Fraction) -> bool:
    emp = Fraction(count, trials)
    var = max(p_lo * (1 - p_lo), p_hi * (1 - p_hi), Fraction(1, 10**6))
    bound_sq = Fraction(25) * var / trials
    if emp < p_lo and (p_lo - emp) ** 2 > bound_sq:
        return False
    if emp > p_hi and (emp - p_hi) ** 2 > bound_sq:
        return False
    return True


def test_monte_carlo_matches_exact_realtime():
    result = run_monte_carlo(spin_machine(), "aa", trials=20000, seed=7)
    p = Fraction(49, 625)
    assert result.counts["accept"] + result.counts["reject"] == 20000
    assert _within_five_sigma(result.counts["accept"], 20000, p, p)
    assert result.mean_steps == 4


def test_monte_carlo_is_deterministic_and_worker_independent():
    a = run_monte_carlo(spin_machine(), "aa", trials=8192, seed="x")
    # Recorded when trials still ran in chunks of 4096 over a thread pool;
    # 8192 trials cross a chunk boundary.
    assert a == MonteCarloResult(
        trials=8192,
        counts={"accept": 631, "reject": 7561, "dont_know": 0, "continue": 0, "capped": 0},
        mean_steps=Fraction(4),
        mean_rounds=Fraction(1),
    )
    assert run_monte_carlo(spin_machine(), "aa", trials=8192, seed="x") == a
    c = run_monte_carlo(spin_machine(), "aa", trials=8192, seed="y")
    assert a != c


def test_monte_carlo_restarting_rounds():
    spec = spin_machine(MODEL_RESTARTING, end={"1": RESTART_TARGET, "2": "s_r"})
    result = run_monte_carlo(spec, "aa", trials=20000, seed=11)
    assert result.counts["reject"] == 20000
    expected = Fraction(625, 576)
    assert abs(result.mean_rounds - expected) < Fraction(1, 50)


def test_monte_carlo_rotation_interval_sampling():
    result = run_monte_carlo(turn_machine(), "a", trials=20000, seed=3)
    assert _within_five_sigma(
        result.counts["reject"], 20000, Fraction(9291, 10000), Fraction(9292, 10000)
    )


def test_monte_carlo_step_cap():
    spec = spin_machine(MODEL_RESTARTING, end={"1": RESTART_TARGET, "2": "s_r"})
    result = run_monte_carlo(spec, "aa", trials=20000, seed=5, step_cap=4)
    # Any restart overruns a cap of one round (4 squares), so the capped
    # fraction estimates the per-round restart mass 49/625.
    p = Fraction(49, 625)
    assert result.counts["capped"] > 0
    assert _within_five_sigma(result.counts["capped"], 20000, p, p)
    assert result.counts["capped"] + result.counts["reject"] == 20000


def test_a_capped_trial_resolves_nothing_past_its_cap():
    # Outcome 2 of the end measurement (576/625) enters a state that stays
    # on "$" forever, so resolving that edge raises. With a cap of 3 every
    # trial is capped at the measurement (its 4th square) before the edge
    # is resolved; with a cap of 4 a trial resolves it.
    spin = spin_machine()
    stuck = {
        ("s1", RIGHT_MARKER, "2"): ClassicalStep("stuck", MOVE_STAY),
        ("stuck", RIGHT_MARKER, "1"): ClassicalStep("stuck", MOVE_STAY),
    }
    spec = dataclasses.replace(
        spin, states=spin.states | {"stuck"}, classical_delta={**spin.classical_delta, **stuck}
    )
    capped = run_monte_carlo(spec, "aa", trials=50, seed=1, step_cap=3)
    assert capped.counts["capped"] == 50
    with pytest.raises(NonterminatingError, match="deterministic loop"):
        run_monte_carlo(spec, "aa", trials=50, seed=1, step_cap=4)


def test_monte_carlo_refuses_a_machine_that_can_never_halt():
    # On the empty word EXACT_EQ_RESTARTING restarts with mass 1 each round.
    spec = build_exact_eq_restarting()
    with pytest.raises(NonterminatingError, match="zero halting mass"):
        run_monte_carlo(spec, "", trials=40, seed=1)
    capped = run_monte_carlo(spec, "", trials=5, seed=1, step_cap=100)
    assert capped.counts["capped"] == 5


def mod_dfa(modulus: int) -> MachineSpec:
    states = {f"r{i}" for i in range(modulus)} | {"s_a", "s_r"}
    classical = {(f"r{i}", "a", "1"): ClassicalStep(f"r{(i + 1) % modulus}", MOVE_RIGHT) for i in range(modulus)}
    classical[("r0", LEFT_MARKER, "1")] = ClassicalStep("r0", MOVE_RIGHT)
    classical[("r0", RIGHT_MARKER, "1")] = ClassicalStep("s_a", MOVE_RIGHT)
    for i in range(1, modulus):
        classical[(f"r{i}", RIGHT_MARKER, "1")] = ClassicalStep("s_r", MOVE_RIGHT)
    return MachineSpec(
        name=f"mod{modulus}",
        model_class=MODEL_RTDFA,
        register=REGISTER_CLASSICAL,
        quantum_dim=1,
        states=frozenset(states),
        initial_state="r0",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        classical_delta=classical,
    )


def test_unary_fast_path_matches_general_runner():
    for spec in (turn_machine(), mod_dfa(3), fair_coin_pfa(), _thirds_pfa(), bouncing_pfa()):
        for n in (0, 1, 2, 5, 9):
            assert run_unary_length(spec, n) == run_exact_realtime(spec, "a" * n)


def test_unary_fast_path_huge_lengths():
    big = 10**12
    dist = run_unary_length(mod_dfa(3), big)
    assert dist.p_accept.value == (1 if big % 3 == 0 else 0)
    dist = run_unary_length(fair_coin_pfa(), 10**9)
    assert dist.p_accept.value == Fraction(1, 2)
    # Rotation closed form: angle accumulates symbolically.
    dist = run_unary_length(turn_machine(), 10**9)
    assert not dist.p_reject.is_exact()
    assert contains(prob_sum(vars(dist).values()).as_interval(), Fraction(1))


R90 = QMatrix.from_rows([[0, -1], [1, 0]])


def split_turns_machine(register=REGISTER_MATRIX) -> MachineSpec:
    """The left end-marker's measurement splits the mass 9/25 : 16/25
    between "lo" and "hi", and each then turns its register on every
    letter: a matrix register by R90 and its inverse, a rotation
    register by sqrt(2) pi and by pi/8. The right end-marker measures
    both, so each length ends in its own distribution."""
    if register == REGISTER_MATRIX:
        quantum = {
            ("s1", LEFT_MARKER): MeasureAction(BASIS2, pre=ROT),
            ("lo", "a"): UnitaryAction(R90),
            ("hi", "a"): UnitaryAction(R90.conj_transpose()),
            ("lo", RIGHT_MARKER): MeasureAction(BASIS2),
            ("hi", RIGHT_MARKER): MeasureAction(BASIS2, pre=ROT),
        }
    else:
        quantum = {
            ("s1", LEFT_MARKER): MeasureRotationAction(pre=ROT),
            ("lo", "a"): RotateAction(sqrt2_pi(1)),
            ("hi", "a"): RotateAction(dyadic_pi(Fraction(1, 8))),
            ("lo", RIGHT_MARKER): MeasureRotationAction(),
            ("hi", RIGHT_MARKER): MeasureRotationAction(),
        }
    classical = {
        ("s1", LEFT_MARKER, "1"): ClassicalStep("lo", MOVE_RIGHT),
        ("s1", LEFT_MARKER, "2"): ClassicalStep("hi", MOVE_RIGHT),
        ("lo", "a", "1"): ClassicalStep("lo", MOVE_RIGHT),
        ("hi", "a", "1"): ClassicalStep("hi", MOVE_RIGHT),
    }
    for state, accept in (("lo", "1"), ("hi", "2")):
        for label in ("1", "2"):
            classical[(state, RIGHT_MARKER, label)] = ClassicalStep(
                "s_a" if label == accept else "s_r", MOVE_RIGHT
            )
    return MachineSpec(
        name=f"split-turns-{register}",
        model_class=MODEL_RTQCFA,
        register=register,
        quantum_dim=2,
        states=frozenset({"s1", "lo", "hi", "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        quantum_delta=quantum,
        classical_delta=classical,
    )


def stepped_unary(spec: MachineSpec, length: int) -> OutcomeDistribution:
    """The run on a^length, one ``_step`` per square: the oracle for the
    unary closed forms."""
    kernel = analysis._Kernel(spec, 64)
    state = (1, {(spec.initial_state, analysis.initial_register(spec)): 1}, {})
    state = analysis._step(kernel, state, LEFT_MARKER)
    for _ in range(length):
        state = analysis._step(kernel, state, "a")
    den, live, decided = analysis._step(kernel, state, RIGHT_MARKER)
    assert not live
    return analysis._masses_to_distribution(decided, den)


@pytest.mark.parametrize(
    "register, lengths",
    [(REGISTER_MATRIX, [*range(10), 10**6]), (REGISTER_ROTATION, [*range(10), 10**4])],
)
def test_split_unary_branches_match_the_stepped_run(monkeypatch, register, lengths):
    # Both branches take a closed form, so no block row is ever built.
    spec = split_turns_machine(register)
    assert validate(spec) == []
    oracle_lengths = lengths
    if register == REGISTER_MATRIX:
        # R90 and its inverse have order 4, so from n = 8 on the stepped
        # run at n is the stepped run at n mod 4 + 8.
        for turn in (R90, R90.conj_transpose()):
            assert turn @ turn @ turn @ turn == QMatrix.identity(2)
        oracle_lengths = [n if n < 10 else n % 4 + 8 for n in lengths]
    expected = [stepped_unary(spec, n) for n in oracle_lengths]
    monkeypatch.setattr(analysis, "_block_row", None)
    assert [run_unary_length(spec, n) for n in lengths] == expected
    assert expected[0] != expected[1]


def walk_or_toss_machine() -> MachineSpec:
    """The left end-marker sends 9/25 of the mass down a three-letter
    walk to rejection and keeps the rest in "toss", which measures on
    every letter, so the unary closed forms give up."""
    classical = {
        ("s1", LEFT_MARKER, "1"): ClassicalStep("w0", MOVE_RIGHT),
        ("s1", LEFT_MARKER, "2"): ClassicalStep("toss", MOVE_RIGHT),
        ("w0", "a", "1"): ClassicalStep("w1", MOVE_RIGHT),
        ("w1", "a", "1"): ClassicalStep("w2", MOVE_RIGHT),
        ("w2", "a", "1"): ClassicalStep("s_r", MOVE_RIGHT),
        ("toss", "a", "1"): ClassicalStep("toss", MOVE_RIGHT),
        ("toss", "a", "2"): ClassicalStep("s_a", MOVE_RIGHT),
    }
    for state in ("w0", "w1", "w2", "toss"):
        classical[(state, RIGHT_MARKER, "1")] = ClassicalStep("s_a", MOVE_RIGHT)
    return MachineSpec(
        name="walk-or-toss",
        model_class=MODEL_RTQCFA,
        register=REGISTER_MATRIX,
        quantum_dim=2,
        states=frozenset({"s1", "w0", "w1", "w2", "toss", "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        quantum_delta={
            ("s1", LEFT_MARKER): MeasureAction(BASIS2, pre=ROT),
            ("toss", "a"): MeasureAction(BASIS2, pre=ROT),
        },
        classical_delta=classical,
    )


def test_a_branch_without_closed_form_sends_every_branch_to_the_block_loop():
    # The walking branch halts before "toss" gives up; its mass must be
    # counted once, by the block loop.
    spec = walk_or_toss_machine()
    assert validate(spec) == []
    for n in (0, 1, 2, 3, 4, 9, 40):
        assert run_unary_length(spec, n) == stepped_unary(spec, n)
    assert run_unary_length(spec, 40).p_reject == ExactProb(Fraction(9, 25))


@pytest.mark.parametrize("build, k", [(build_evenodd_mcqfa, 12), (build_evenodd_dfa, 10)])
def test_long_unary_power_takes_the_closed_form(build, k):
    spec = build(k)
    word = "a" * (100 * 2**k)
    # CPU time, so that other load on the host does not count.
    start = time.process_time()
    dist = run_exact_realtime(spec, word)
    assert time.process_time() - start < 0.5
    assert dist == run_unary_length(spec, len(word))
    assert dist.p_accept == ExactProb(Fraction(1))


def lasso_dfa(tail: int, cycle: int, accepts) -> MachineSpec:
    """A unary DFA whose states q0, q1, ... walk a tail of ``tail`` states
    into a cycle of ``cycle`` states; the end-marker accepts on ``accepts``."""
    size = tail + cycle
    classical = {("q0", LEFT_MARKER, "1"): ClassicalStep("q0", MOVE_RIGHT)}
    for i in range(size):
        classical[(f"q{i}", "a", "1")] = ClassicalStep(f"q{i + 1 if i + 1 < size else tail}", MOVE_RIGHT)
        classical[(f"q{i}", RIGHT_MARKER, "1")] = ClassicalStep("s_a" if i in accepts else "s_r", MOVE_RIGHT)
    return MachineSpec(
        name=f"lasso-{tail}-{cycle}",
        model_class=MODEL_RTDFA,
        register=REGISTER_CLASSICAL,
        quantum_dim=1,
        states=frozenset({f"q{i}" for i in range(size)} | {"s_a", "s_r"}),
        initial_state="q0",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        classical_delta=classical,
    )


@pytest.mark.parametrize("tail", range(12))
def test_the_cycle_walk_lands_where_the_lasso_does(tail):
    # After n letters the lasso is in state n on its tail, and in state
    # tail + (n - tail) mod cycle past it.
    rng = random.Random(tail)
    for cycle in range(1, 12):
        size = tail + cycle
        accepts = {i for i in range(size) if rng.random() < 0.5}
        spec = lasso_dfa(tail, cycle, accepts)
        assert validate(spec) == []
        for n in [*range(3 * size + 6), 10**12, 10**12 + 1, 2**40 - 1, 2**40]:
            state = n if n < tail else tail + (n - tail) % cycle
            accepted = Fraction(state in accepts)
            expected = OutcomeDistribution(*map(ExactProb, (accepted, 1 - accepted, Fraction(0), Fraction(0))))
            assert run_unary_length(spec, n) == expected, (tail, cycle, n)


def matrix_lasso(tail: int) -> MachineSpec:
    """A matrix register turned by ROT on a tail of ``tail`` states, then by
    R90 in "spin" for ever; the end-marker measures it in every state."""
    names = [f"t{i}" for i in range(tail)] + ["spin"]
    quantum = {(name, RIGHT_MARKER): MeasureAction(BASIS2) for name in names}
    classical = {("s1", LEFT_MARKER, "1"): ClassicalStep(names[0], MOVE_RIGHT)}
    for name, after in zip(names, names[1:] + ["spin"]):
        quantum[(name, "a")] = UnitaryAction(R90 if name == "spin" else ROT)
        classical[(name, "a", "1")] = ClassicalStep(after, MOVE_RIGHT)
        classical[(name, RIGHT_MARKER, "1")] = ClassicalStep("s_a", MOVE_RIGHT)
        classical[(name, RIGHT_MARKER, "2")] = ClassicalStep("s_r", MOVE_RIGHT)
    return MachineSpec(
        name=f"matrix-lasso-{tail}",
        model_class=MODEL_RTQCFA,
        register=REGISTER_MATRIX,
        quantum_dim=2,
        states=frozenset({"s1", *names, "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        quantum_delta=quantum,
        classical_delta=classical,
    )


@pytest.mark.parametrize("tail", [0, 1, 5])
def test_the_cycle_walk_lands_where_a_matrix_lasso_does(tail):
    # The register cycles with period 4 once "spin" turns it by R90, so
    # 10**12 letters end where tail + 4 + (10**12 - tail) mod 4 do.
    spec = matrix_lasso(tail)
    assert validate(spec) == []
    for n in range(tail + 12):
        assert run_unary_length(spec, n) == stepped_unary(spec, n), n
    assert run_unary_length(spec, 10**12) == stepped_unary(spec, tail + 4 + (10**12 - tail) % 4)


def test_a_walk_that_never_recurs_applies_each_square_once(monkeypatch):
    # AW_PAL's register on a^n never recurs, so the walk steps the 3,000
    # squares once and nothing walks them again; the run still ends in the
    # table hole at the end-marker.
    applied = []
    apply = QMatrix.apply
    monkeypatch.setattr(QMatrix, "apply", lambda matrix, vec: applied.append(matrix) or apply(matrix, vec))
    with pytest.raises(MachineError, match=r"no classical transition for \('scan', '\$', '1'\)"):
        run_exact_realtime(build_aw_pal(), "a" * 3000)
    assert len(applied) == 3000


def test_a_warm_cycle_skip_keeps_two_configurations():
    # 4,097 live states; the first run compiles their squares, so the
    # second keeps only the walk's head and mark.
    spec = build_counter_dfa("MOD4097", 4097, {0})
    run_unary_length(spec, 10**12)
    tracemalloc.start()
    try:
        dist = run_unary_length(spec, 10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.p_accept == ExactProb(Fraction(10**12 % 4097 == 0))
    assert peak < 64 * 1024


def test_a_walk_whose_register_never_recurs_stops_at_the_cap(monkeypatch):
    # ROT has infinite order, so the spin machine's register never recurs.
    # ROT^n e1 = ((3 - 4i)^n real and imaginary parts) / 5^n, and the end
    # measurement accepts on the first coordinate.
    cap = analysis.UNARY_WALK_CAP
    re, im = 1, 0
    for _ in range(cap):
        re, im = 3 * re + 4 * im, 3 * im - 4 * re
    assert run_unary_length(spin_machine(), cap).p_accept == ExactProb(Fraction(re * re, 25 ** cap))
    applied = []
    apply = QMatrix.apply
    monkeypatch.setattr(QMatrix, "apply", lambda matrix, vec: applied.append(matrix) or apply(matrix, vec))
    for length in (cap + 1, 10**12):
        applied.clear()
        with pytest.raises(MachineError, match=f"did not recur within the cap of {cap} squares"):
            run_unary_length(spin_machine(), length)
        assert len(applied) == cap


def test_a_walk_without_a_register_has_no_cap():
    # The counter's cycle is twice the cap and more, so Brent's search
    # steps past the cap before it closes.
    modulus = 2 * analysis.UNARY_WALK_CAP + 1
    for length in (modulus * 3, 10**12):
        dist = run_unary_length(build_counter_dfa("MOD", modulus, {0}), length)
        assert dist.p_accept == ExactProb(Fraction(length % modulus == 0))


def test_a_register_walk_that_recurs_before_the_cap_may_step_past_it():
    # A 2,000-state counter that carries a one-dimensional register: Brent's
    # search meets its mark after 3,023 squares, and the 1,976 squares left
    # of the cycle then take the walk past the cap.
    counter = dataclasses.replace(
        build_counter_dfa("MOD2000", 2000, {999}), model_class=MODEL_RTQCFA, register=REGISTER_MATRIX
    )
    assert validate(counter) == []
    length = 3023 + 2000 * 5 + 1976
    assert length % 2000 == 999 and run_unary_length(counter, length).p_accept == ExactProb(Fraction(1))


def test_restart_ratio_of_interval_masses_is_an_enclosure():
    # Per round, accept is cos^2(3 sqrt(2) pi) and reject sin^2, both
    # intervals, and nothing restarts: each overall ratio is an interval
    # that must hold the per-round value, here enclosed by mpmath at 256 bits.
    result = analyze_restarting(turn_machine(model=MODEL_RESTARTING), "aaa")
    iv = mpmath.iv
    saved = iv.prec
    iv.prec = 256
    try:
        angle = 3 * iv.sqrt(2) * iv.pi
        truths = (iv.cos(angle) ** 2, iv.sin(angle) ** 2)
    finally:
        iv.prec = saved
    for ratio, truth in zip((result.overall_accept, result.overall_reject), truths):
        assert not ratio.is_exact()
        bounds = ratio.as_interval()
        assert 0 <= bounds.lo <= bounds.hi <= 1
        truth_lo, truth_hi = (Fraction(*to_rational(end)) for end in truth._mpi_)
        assert bounds.lo <= truth_lo and truth_hi <= bounds.hi


def _halting_ratio(part, others: list):
    """part / (part + sum(others)) on probability values, as the restart
    analysis once computed it: exactly 1 when every other part is exactly
    zero, exactly 0 when the part is."""
    if all(o.is_exact() and o.value == 0 for o in others):
        return ExactProb(Fraction(1))
    if part.is_exact() and part.value == 0:
        return ExactProb(Fraction(0))
    rest = prob_sum(others).as_interval()
    own = part.as_interval()
    lo = own.lo / (own.lo + rest.hi)
    hi = own.hi / (own.hi + rest.lo) if own.hi + rest.lo > 0 else Fraction(1)
    if part.is_exact() and rest.lo == rest.hi:
        return ExactProb(lo)
    return ApproxProb(RationalInterval(lo, min(hi, Fraction(1))))


def reference_restart(spec: MachineSpec, word: str, precision_bits: int = 64) -> RestartAnalysis:
    """The restart analysis as a chain of sums, a reciprocal and a scaling
    of probability values, the oracle for the analysis on mass ends."""
    per_round = run_exact_realtime(spec, word, precision_bits)
    accept, reject, dont_know = per_round.p_accept, per_round.p_reject, per_round.p_dont_know
    halt_mass = prob_sum([accept, reject, dont_know])
    iv = halt_mass.as_interval()
    if iv.hi == 0:
        raise NonterminatingError("zero halting mass per round; the loop never ends")
    if iv.lo == 0:
        raise NonterminatingError("cannot certify a positive halting mass per round")
    expected_rounds = prob_reciprocal(halt_mass)
    return RestartAnalysis(
        per_round=per_round,
        overall_accept=_halting_ratio(accept, [reject, dont_know]),
        overall_reject=_halting_ratio(reject, [accept, dont_know]),
        overall_dont_know=_halting_ratio(dont_know, [accept, reject]),
        expected_rounds=expected_rounds,
        expected_steps=prob_scale(expected_rounds, Fraction(len(word) + 2)),
    )


def _restart_outcome(analyze, spec: MachineSpec, word: str, bits: int):
    """The kind and Fraction ends of every value a restart analysis
    reports, or the type and message of the error it raised."""
    try:
        result = analyze(spec, word, bits)
    except (MachineError, ExactnessError, NonterminatingError) as exc:
        return type(exc), str(exc)
    values = [*vars(result.per_round).values(), *list(vars(result).values())[1:]]
    assert all(type(end) is Fraction for p in values for end in p.ends())
    return [(type(p), *p.ends()) for p in values]


def _restart_cases() -> list:
    """(spec, word, bits): EXACT_TWINPAL on both word shapes of every u, v
    of length <= 3, EXACT_EQ_RESTARTING on a^m b a^n b a^z at 64 and 128
    bits, EXACT_EXPTWINPAL on four (u, v) at seven t, malformed words,
    and restarting test machines, with interval masses and with rounds
    that never halt or whose halting mass is not certified positive: a
    turn by pi/2^40 has sin^2 below 2^-77, and its 16-bit enclosure
    starts at 0."""
    words = ["".join(w) for n in range(4) for w in itertools.product("ab", repeat=n)]
    twin, eq, exp = build_exact_twinpal(), build_exact_eq_restarting(), build_exact_exptwinpal()
    cases = [(twin, f"{u}c{u}c{v}c{v}{end}", 64) for u in words for v in words for end in ("", "c")]
    cases += [
        (eq, "a" * m + "b" + "a" * n + "b" + "a" * z, bits)
        for m in range(9) for n in range(9) for z in range(4) for bits in (64, 128)
    ]
    pairs = (("ab", "aa"), ("aa", "ab"), ("abb", "aba"), ("aba", "abb"))
    cases += [(exp, _twin_blocks(u, v, t), 64) for u, v in pairs for t in (1, 2, 3, 7, 25, 26, 625)]
    cases += [(spec, word, 64) for spec in (twin, eq, exp) for word in ("", "?", "ab?", "cccc", "bcbcacac")]
    ends = (None, {"1": RESTART_TARGET, "2": "s_r"}, {"1": "s_a", "2": RESTART_TARGET}, {"1": RESTART_TARGET, "2": RESTART_TARGET})
    tiny = [({("s1", "a"): RotateAction(dyadic_pi(Fraction(1, 2**40)))}, {})]
    for end in ends:
        for extra in ((), tiny):
            cases += [(turn_machine(MODEL_RESTARTING, end, extra=extra), "a" * n, bits) for n in (0, 1, 3) for bits in (16, 64)]
        cases += [(spin_machine(MODEL_RESTARTING, end), "a" * n, 64) for n in (0, 1, 2, 5)]
    return cases


def test_restart_analysis_matches_the_probability_chain():
    seen = set()
    for spec, word, bits in _restart_cases():
        got = _restart_outcome(analyze_restarting, spec, word, bits)
        assert got == _restart_outcome(reference_restart, spec, word, bits), (spec.name, word, bits)
        seen.update([got[1]] if isinstance(got[1], str) else [kind for kind, _, _ in got])
    # Exact and interval values, and both halting-mass errors, are met.
    assert {ExactProb, ApproxProb} <= seen
    assert "zero halting mass per round; the loop never ends" in seen
    assert "cannot certify a positive halting mass per round" in seen


def test_an_exact_restart_builds_no_interval(monkeypatch):
    built = []
    check = RationalInterval.__post_init__
    monkeypatch.setattr(RationalInterval, "__post_init__", lambda self: built.append(self) or check(self))
    result = analyze_restarting(build_exact_exptwinpal(), "abcabcaacaac" * 625)
    assert result.expected_rounds.is_exact()
    assert built == []


mass_fractions = st.builds(Fraction, st.integers(0, 120), st.integers(1, 60))
unit_fractions = st.integers(1, 60).flatmap(lambda den: st.builds(Fraction, st.integers(0, den), st.just(den)))


@st.composite
def mass_ends(draw) -> "tuple[Fraction, Fraction]":
    """(lo, hi) ends of a mass >= 0: often exactly zero or a point."""
    lo = draw(st.just(Fraction(0)) | mass_fractions)
    return lo, lo + draw(st.just(Fraction(0)) | mass_fractions)


@given(mass_ends(), mass_ends(), mass_ends(), st.lists(st.tuples(unit_fractions, unit_fractions), max_size=4))
@settings(max_examples=200)
def test_a_share_encloses_the_ratio_and_is_exact_where_it_must_be(part, other, another, inner):
    share = analysis._share(part, other, another)
    (p_lo, p_hi), r_lo, r_hi = part, other[0] + another[0], other[1] + another[1]
    lo, hi = share.ends()
    assert 0 <= lo <= hi <= 1
    assert share.is_exact() == (r_hi == 0 or p_hi == 0 or (p_lo == p_hi and r_lo == r_hi))
    for s, t in [(0, 0), (0, 1), (1, 0), (1, 1), *inner]:
        x, y = p_lo + s * (p_hi - p_lo), r_lo + t * (r_hi - r_lo)
        if x + y:
            assert lo <= x / (x + y) <= hi


def test_splittable_rng_children_are_stable_and_independent():
    root = SplittableRng(42)
    a1 = [SplittableRng(42).child("a").draw64() for _ in range(3)]
    a2 = [root.child("a").draw64() for _ in range(3)]
    assert a1[0] == a2[0]
    assert SplittableRng(42).child("a").draw64() != SplittableRng(42).child("b").draw64()
    parent = SplittableRng(1)
    c1 = parent.child("x")
    parent.draw64()
    c2 = SplittableRng(1).child("x")
    assert c1.draw64() == c2.draw64()


def test_run_exact_realtime_rejects_unknown_symbols():
    with pytest.raises(MachineError, match="outside the machine alphabet"):
        run_exact_realtime(spin_machine(), "ab")


def test_periodic_run_applies_each_configuration_a_bounded_number_of_times(monkeypatch):
    # Every block of (u c u c v c v c)^t revisits the same configurations,
    # so once they recur the run's transitions come from its kept block rows.
    calls = []
    apply = QMatrix.apply
    monkeypatch.setattr(QMatrix, "apply", lambda m, v: calls.append(1) or apply(m, v))
    spec = build_lv_exptwinpal()
    counts = []
    for t in (50, 100):
        calls.clear()
        run_exact_realtime(spec, "abcabcaacaac" * t)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_aperiodic_run_matches_the_stepped_run():
    # The middle block breaks the period, so the input is its own root:
    # the run walks it as one block on integers, resolving every square
    # with no memo.
    spec = build_lv_exptwinpal()
    for n in (50, 100):
        word = "abcabcaacaac" * n + "aacaacabcabc" + "abcabcaacaac" * n
        assert run_exact_realtime(spec, word) == reference_realtime(spec, word)


def reference_realtime(spec: MachineSpec, word: str) -> OutcomeDistribution:
    """Square-by-square exact run, the oracle for the block transfer path."""
    kernel = analysis._Kernel(spec, 64)
    branches = {(spec.initial_state, analysis.initial_register(spec)): Fraction(1)}
    masses = {cat: [] for cat in CATEGORIES}
    for sym in analysis.tape_of(spec, word):
        new_branches = {}
        for (state, reg), weight in branches.items():
            for category, state2, _, reg2, p in kernel.successors(state, sym, reg):
                exact = isinstance(p, Fraction)
                if category is not None:
                    masses[category].append(ExactProb(weight * p) if exact else prob_scale(p, weight))
                    continue
                if not exact:
                    raise ExactnessError("interval-valued measurement outcome must halt or restart")
                key = (state2, reg2)
                new_branches[key] = new_branches.get(key, 0) + weight * p
        branches = new_branches
    assert not branches
    return OutcomeDistribution(*(prob_sum(masses[cat]) for cat in CATEGORIES))


def outcome(run, spec: MachineSpec, word: str):
    """A run's distribution, or the type and message of the error it raised."""
    try:
        return run(spec, word)
    except (MachineError, ExactnessError) as exc:
        return type(exc), str(exc)


def _twin_blocks(u: str, v: str, t: int) -> str:
    return f"{u}c{u}c{v}c{v}c" * t


def block_counter_machine() -> MachineSpec:
    """Counts "ab" blocks up to two; an "a" in the third block is a table hole."""
    classical = {("b0", LEFT_MARKER, "1"): ClassicalStep("b0", MOVE_RIGHT)}
    for i in range(3):
        classical[(f"m{i}", "b", "1")] = ClassicalStep(f"b{i + 1}", MOVE_RIGHT)
        classical[(f"b{i}", RIGHT_MARKER, "1")] = ClassicalStep("s_a", MOVE_RIGHT)
        if i < 2:
            classical[(f"b{i}", "a", "1")] = ClassicalStep(f"m{i}", MOVE_RIGHT)
    return MachineSpec(
        name="block-counter",
        model_class=MODEL_RTDFA,
        register=REGISTER_CLASSICAL,
        quantum_dim=1,
        states=frozenset({"b0", "b1", "b2", "b3", "m0", "m1", "m2", "s_a", "s_r"}),
        initial_state="b0",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a", "b"),
        classical_delta=classical,
    )


def coin_turn_machine() -> MachineSpec:
    """Each "ab" block tosses a coin; the 16/25 side turns by sqrt(2) pi
    and halts at the next square on an interval-valued measurement, so
    block rows that recur carry interval masses."""
    return MachineSpec(
        name="coin-turn",
        model_class=MODEL_RTQCFA,
        register=REGISTER_ROTATION,
        quantum_dim=2,
        states=frozenset({"s", "z", "s_a", "s_r"}),
        initial_state="s",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a", "b"),
        quantum_delta={
            ("s", "a"): MeasureRotationAction(pre=ROT),
            ("z", "b"): RotateAction(sqrt2_pi(1)),
            ("z", "a"): MeasureRotationAction(),
            ("z", RIGHT_MARKER): MeasureRotationAction(),
        },
        classical_delta={
            ("s", LEFT_MARKER, "1"): ClassicalStep("s", MOVE_RIGHT),
            ("s", "a", "1"): ClassicalStep("z", MOVE_RIGHT),
            ("s", "a", "2"): ClassicalStep("s", MOVE_RIGHT),
            ("s", "b", "1"): ClassicalStep("s", MOVE_RIGHT),
            ("z", "b", "1"): ClassicalStep("z", MOVE_RIGHT),
            ("s", RIGHT_MARKER, "1"): ClassicalStep("s_a", MOVE_RIGHT),
            **{
                ("z", sym, label): ClassicalStep(state, MOVE_RIGHT)
                for sym in ("a", RIGHT_MARKER)
                for label, state in (("1", "s_a"), ("2", "s_r"))
            },
        },
    )


def first_b_rejecter(halt_on_left: bool = False) -> MachineSpec:
    """Rejects at its first "b" and accepts at the right end-marker; with
    ``halt_on_left`` it rejects on the left end-marker already."""
    return MachineSpec(
        name="first-b-rejecter" + ("-left" if halt_on_left else ""),
        model_class=MODEL_RTDFA,
        register=REGISTER_CLASSICAL,
        quantum_dim=1,
        states=frozenset({"q", "s_a", "s_r"}),
        initial_state="q",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a", "b"),
        classical_delta={
            ("q", LEFT_MARKER, "1"): ClassicalStep("s_r" if halt_on_left else "q", MOVE_RIGHT),
            ("q", "a", "1"): ClassicalStep("q", MOVE_RIGHT),
            ("q", "b", "1"): ClassicalStep("s_r", MOVE_RIGHT),
            ("q", RIGHT_MARKER, "1"): ClassicalStep("s_a", MOVE_RIGHT),
        },
    )


LV_PAIRS = (("aa", "ab"), ("ab", "aa"))
EXACT_PAIRS = (("bb", "ba"), ("ba", "bb"))
PERIODIC_CASES = (
    [(build_lv_exptwinpal(), _twin_blocks(u, v, t)) for t in (2, 3, 25, 625) for u, v in LV_PAIRS]
    + [(build_exact_exptwinpal(), _twin_blocks(u, v, t)) for t in (2, 25) for u, v in EXACT_PAIRS]
    + [(build_exact_eq_restarting(), ("a" * m + "b") * 2) for m in (1, 2, 3)]
    + [(build_exact_eq_restarting(), ("a" * m + "b" + "a" * m) * 2) for m in (1, 2, 3)]
    + [(build_aw_pal(), "ab" * t) for t in (2, 9)]
    + [(spin_machine(), "a" * t) for t in (2, 7, 40)]
    + [(coin_turn_machine(), "ab" * t) for t in (2, 5, 64)]
    + [(block_counter_machine(), "ab" * t) for t in (2, 5)]
    # Every branch halts in the first block, or on the left end-marker.
    + [(first_b_rejecter(), word) for word in ("b" * 3, "ab" * 4, "aab" * 9)]
    + [(first_b_rejecter(halt_on_left=True), "ab" * 3)]
    + [(pfa, "a" * 9) for pfa in (fair_coin_pfa(), _thirds_pfa(), bouncing_pfa(), residual_pfa())]
    + [(two_letter_pfa(), "ab" * 6), (two_letter_pfa(), "aba" * 4)]
)


@pytest.mark.parametrize(
    "spec, word",
    PERIODIC_CASES,
    ids=[f"{spec.name}-{word[:12]}-{len(word)}" for spec, word in PERIODIC_CASES],
)
def test_periodic_run_matches_square_by_square_reference(spec, word):
    assert outcome(run_exact_realtime, spec, word) == outcome(reference_realtime, spec, word)


def test_periodic_reference_cases_cover_continue_and_interval_masses():
    results = [outcome(reference_realtime, spec, word) for spec, word in PERIODIC_CASES]
    dists = [r for r in results if isinstance(r, OutcomeDistribution)]
    values = [p for d in dists for p in vars(d).values()]
    assert any(not p.is_exact() for p in values)
    assert any(d.p_continue != ExactProb(0) for d in dists)
    # AW_PAL reads u c v, so (ab)^t runs through every block and then
    # meets the table hole at the right end-marker; the block counter
    # meets its hole in the third block of (ab)^5.
    assert sum(not isinstance(r, OutcomeDistribution) for r in results) == 3


# Powers of one letter: every branch tries the unary closed forms first.
UNARY_POWERS = (
    [(build_aw_pal(), "a" * 9), (build_aw_pal(), "c" * 4), (build_lv_exptwinpal(), "c" * 6)]
    + [(build_exact_eq_restarting(), "a" * 7), (build_exact_eq_restarting(), "b" * 5)]
    + [(turn_machine(MODEL_RESTARTING, end={"1": RESTART_TARGET, "2": "s_r"}), "a" * 5)]
    + [(first_b_rejecter(), "b" * 4), (first_b_rejecter(halt_on_left=True), "a" * 4)]
)


@pytest.mark.parametrize(
    "spec, word", UNARY_POWERS, ids=[f"{spec.name}-{word}" for spec, word in UNARY_POWERS]
)
def test_unary_power_matches_square_by_square_reference(spec, word):
    assert outcome(run_exact_realtime, spec, word) == outcome(reference_realtime, spec, word)


def test_interval_block_rows_are_advanced_by_the_jump(monkeypatch):
    jumps = []
    jump = analysis._jump
    monkeypatch.setattr(analysis, "_jump", lambda *a: jumps.append(a[2]) or jump(*a))
    word = "ab" * 64
    dist = run_exact_realtime(coin_turn_machine(), word)
    assert jumps and jumps[0] < 64
    assert not dist.p_accept.is_exact() and not dist.p_reject.is_exact()
    assert dist == reference_realtime(coin_turn_machine(), word)


def test_table_hole_in_third_block_raises_like_the_reference():
    spec = block_counter_machine()
    assert run_exact_realtime(spec, "abab") == reference_realtime(spec, "abab")
    message = "no classical transition for ('b2', 'a', '1')"
    for run in (run_exact_realtime, reference_realtime):
        with pytest.raises(MachineError) as exc:
            run(spec, "ab" * 3)
        assert str(exc.value) == message


def test_a_jumped_run_names_the_table_hole_of_the_stepped_run(monkeypatch):
    # Off the promise, two live branches reach different table holes at
    # the right end-marker. After a jump the branches leave in the order
    # the stepped blocks give them, so the first hole met is the stepped
    # run's.
    jumps = []
    jump = analysis._jump
    monkeypatch.setattr(analysis, "_jump", lambda *a: jumps.append(a[2]) or jump(*a))
    spec = build_exact_exptwinpal()
    hole = (MachineError, "no classical transition for ('acc_seg2', '$', '1')")
    assert outcome(run_exact_realtime, spec, "babca" * 30) == outcome(reference_realtime, spec, "babca" * 30) == hole
    assert jumps
    rng = random.Random(19)
    holes = 0
    for spec in (build_exact_exptwinpal(), build_lv_exptwinpal()) * 300:
        block = "".join(rng.choice("abc") for _ in range(rng.randint(1, 7)))
        word = block * rng.randint(3, 12)
        got = outcome(run_exact_realtime, spec, word)
        assert got == outcome(reference_realtime, spec, word), word
        holes += not isinstance(got, OutcomeDistribution)
    assert holes > 100 and len(jumps) > 100


def mid_block_machine(hole: bool = False) -> MachineSpec:
    """Reads blocks "abaab". ROT turns the register at each "a", and "b"
    measures it. From "s" both outcomes stay live, so a block walk hands
    its branch to ``_step`` at the first "b"; from "t" outcome "1"
    rejects, so part of the mass halts at each "b" and the walk goes on.
    With ``hole``, the live outcome of "t" at "b" is a table hole."""
    classical = {
        ("s", LEFT_MARKER, "1"): ClassicalStep("s", MOVE_RIGHT),
        ("s", "a", "1"): ClassicalStep("s", MOVE_RIGHT),
        ("t", "a", "1"): ClassicalStep("t", MOVE_RIGHT),
        ("s", "b", "1"): ClassicalStep("s", MOVE_RIGHT),
        ("s", "b", "2"): ClassicalStep("t", MOVE_RIGHT),
        ("t", "b", "1"): ClassicalStep("s_r", MOVE_RIGHT),
        ("s", RIGHT_MARKER, "1"): ClassicalStep("s_a", MOVE_RIGHT),
        ("t", RIGHT_MARKER, "1"): ClassicalStep("s_r", MOVE_RIGHT),
    }
    if not hole:
        classical[("t", "b", "2")] = ClassicalStep("t", MOVE_RIGHT)
    return MachineSpec(
        name="mid-block" + ("-holed" if hole else ""),
        model_class=MODEL_RTQCFA,
        register=REGISTER_MATRIX,
        quantum_dim=2,
        states=frozenset({"s", "t", "s_a", "s_r"}),
        initial_state="s",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a", "b"),
        quantum_delta={
            (state, sym): UnitaryAction(ROT) if sym == "a" else MeasureAction(BASIS2)
            for state in ("s", "t")
            for sym in ("a", "b")
        },
        classical_delta=classical,
    )


def live_turn_machine() -> MachineSpec:
    """Turns by sqrt(2) pi at "a" and measures at "b", whose outcome "1"
    stays live: an interval-valued live branch."""
    extra = [(
        {("s1", "b"): MeasureRotationAction()},
        {("s1", "b", "1"): ClassicalStep("s1", MOVE_RIGHT), ("s1", "b", "2"): ClassicalStep("s_r", MOVE_RIGHT)},
    )]
    return turn_machine(alphabet=("a", "b"), extra=extra)


def halt_before_hole_machine() -> MachineSpec:
    """The first-b rejecter with a table hole at "a": on (ba)^t every
    branch halts at the first "b", so the hole is never reached."""
    spec = first_b_rejecter()
    classical = {k: v for k, v in spec.classical_delta.items() if k != ("q", "a", "1")}
    return dataclasses.replace(spec, name="halt-before-hole", classical_delta=classical)


WALK_ERRORS = {
    "mid-block-holed": (MachineError, "no classical transition for ('t', 'b', '2')"),
    "turn": (ExactnessError, "interval-valued measurement outcome must halt or restart"),
}
WALK_CASES = [
    # A split mid-block, where the walk hands its branch to _step, and
    # masses decided at two measurements of one straight-line walk.
    *[(mid_block_machine(), "abaab" * t) for t in (3, 4, 40)],
    # Interval-valued decided mass; in "ba" the split is a block's first square.
    *[(coin_turn_machine(), word * 9) for word in ("ab", "ba")],
    # Every branch halts mid-block, before a square that is a table hole.
    (halt_before_hole_machine(), "ba" * 5),
    # A table hole mid-block, and an interval-valued live branch.
    (mid_block_machine(hole=True), "abaab" * 5),
    (live_turn_machine(), "aab" * 5),
]


@pytest.mark.parametrize(
    "spec, word", WALK_CASES, ids=[f"{spec.name}-{word[:5]}-{len(word)}" for spec, word in WALK_CASES]
)
def test_block_walk_matches_the_reference(spec, word):
    result = outcome(reference_realtime, spec, word)
    assert outcome(run_exact_realtime, spec, word) == result
    if spec.name in WALK_ERRORS:
        assert result == WALK_ERRORS[spec.name]
    elif spec.name == "coin-turn":
        assert not result.p_accept.is_exact() and not result.p_reject.is_exact()
    elif spec.name == "mid-block":
        assert 0 < result.p_reject.value < 1 and 0 < result.p_accept.value < 1


def test_a_split_mid_block_hands_the_branch_to_step(monkeypatch):
    blocks, steps = [], []
    block_row, step = analysis._block_row, analysis._step
    monkeypatch.setattr(analysis, "_block_row", lambda k, key, b: blocks.append(key[0]) or block_row(k, key, b))
    monkeypatch.setattr(analysis, "_step", lambda k, state, sym: steps.append(sym) or step(k, state, sym))
    spec = mid_block_machine()
    word = "abaab" * 40
    assert run_exact_realtime(spec, word) == reference_realtime(spec, word)
    # Each walk from "s" splits at its first "b" and steps the rest of
    # its block; the end-markers are stepped too, and no walk from "t"
    # calls _step.
    assert "s" in blocks and "t" in blocks
    assert steps == [LEFT_MARKER] + list("aab") * blocks.count("s") + [RIGHT_MARKER]


def test_a_split_square_is_resolved_once(monkeypatch):
    # The walk spreads the branches of the square where it splits, so the
    # block path resolves each measuring square as often as the
    # square-by-square run does, and it steps every certain square
    # (``_Square.walk``) without resolving it.
    calls = []
    resolve = analysis._Square.resolve
    monkeypatch.setattr(analysis._Square, "resolve", lambda square, *a: calls.append(square) or resolve(square, *a))
    spec = mid_block_machine()
    measured, certain = [], []
    for run in (reference_realtime, run_exact_realtime):
        calls.clear()
        run(spec, "abaab")
        measured.append(collections.Counter(id(square) for square in calls if square.op >= analysis._OP_MEASURE))
        certain.append(sum(square.walk is not None for square in calls))
    assert measured[0] == measured[1] and sum(measured[0].values()) == 3
    assert certain[0] > 0 == certain[1]


def idle_split_machine() -> MachineSpec:
    """ROT turns the register on the left end-marker, "s" idles at "a",
    and "b" measures with both outcomes live: a run of "a"s ends right
    before a split. "t" turns by ROT at "a", and at "b" rejects on
    outcome "1"."""
    classical = {
        ("s", LEFT_MARKER, "1"): ClassicalStep("s", MOVE_RIGHT),
        ("s", "a", "1"): ClassicalStep("s", MOVE_RIGHT),
        ("s", "b", "1"): ClassicalStep("s", MOVE_RIGHT),
        ("s", "b", "2"): ClassicalStep("t", MOVE_RIGHT),
        ("t", "a", "1"): ClassicalStep("t", MOVE_RIGHT),
        ("t", "b", "1"): ClassicalStep("s_r", MOVE_RIGHT),
        ("t", "b", "2"): ClassicalStep("t", MOVE_RIGHT),
        ("s", RIGHT_MARKER, "1"): ClassicalStep("s_a", MOVE_RIGHT),
        ("t", RIGHT_MARKER, "1"): ClassicalStep("s_r", MOVE_RIGHT),
    }
    return MachineSpec(
        name="idle-split",
        model_class=MODEL_RTQCFA,
        register=REGISTER_MATRIX,
        quantum_dim=2,
        states=frozenset({"s", "t", "s_a", "s_r"}),
        initial_state="s",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a", "b"),
        quantum_delta={
            ("s", LEFT_MARKER): UnitaryAction(ROT),
            ("t", "a"): UnitaryAction(ROT),
            ("s", "b"): MeasureAction(BASIS2),
            ("t", "b"): MeasureAction(BASIS2),
        },
        classical_delta=classical,
    )


def test_a_run_right_before_a_split_hands_the_next_symbol_to_step(monkeypatch):
    steps = []
    step = analysis._step
    monkeypatch.setattr(analysis, "_step", lambda k, state, sym: steps.append(sym) or step(k, state, sym))
    spec = idle_split_machine()
    for word in ("aaabab", "aaaabaab" * 3, "aab" * 4, "b" + "a" * 50 + "ba"):
        assert outcome(run_exact_realtime, spec, word) == outcome(reference_realtime, spec, word), word
    steps.clear()
    run_exact_realtime(spec, "aaabab")
    # The walk takes "aaa" as one run, splits at the "b", and steps "ab".
    assert steps == [LEFT_MARKER, "a", "b", RIGHT_MARKER]


def two_run_machine(left, up, down, alphabet=("a", "b")) -> MachineSpec:
    """Turns by ``left`` on the left end-marker, by ``up`` at each "a"
    before the first "b" and by ``down`` at each "a" after it, and
    measures at the right end-marker; a turn of None is no action."""
    turns = {("up", LEFT_MARKER): left, ("up", "a"): up, ("down", "a"): down}
    quantum = {square: RotateAction(angle) for square, angle in turns.items() if angle is not None}
    classical = {
        ("up", LEFT_MARKER, "1"): ClassicalStep("up", MOVE_RIGHT),
        ("up", "a", "1"): ClassicalStep("up", MOVE_RIGHT),
    }
    if "b" in alphabet:
        classical[("up", "b", "1")] = classical[("down", "b", "1")] = ClassicalStep("down", MOVE_RIGHT)
        classical[("down", "a", "1")] = ClassicalStep("down", MOVE_RIGHT)
    for state in ("up", "down"):
        quantum[(state, RIGHT_MARKER)] = MeasureRotationAction()
        classical[(state, RIGHT_MARKER, "1")] = ClassicalStep("s_a", MOVE_RIGHT)
        classical[(state, RIGHT_MARKER, "2")] = ClassicalStep("s_r", MOVE_RIGHT)
    return MachineSpec(
        name="two-run",
        model_class=MODEL_RTQCFA,
        register=REGISTER_ROTATION,
        quantum_dim=2,
        states=frozenset({"up", "down", "s_a", "s_r"}),
        initial_state="up",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=alphabet,
        quantum_delta=quantum,
        classical_delta=classical,
    )


# (left, up, down): zero angles of both kinds, idle runs, and kinds that
# mix at once, after the first run, or never.
TWO_RUN_TURNS = [
    (sqrt2_pi(1), dyadic_pi(0), sqrt2_pi(-1)),
    (None, sqrt2_pi(0), dyadic_pi(Fraction(1, 4))),
    (sqrt2_pi(0), sqrt2_pi(Fraction(1, 3)), dyadic_pi(0)),
    (dyadic_pi(Fraction(1, 8)), sqrt2_pi(1), None),
    (None, dyadic_pi(Fraction(1, 4)), sqrt2_pi(1)),
    (dyadic_pi(Fraction(3, 16)), None, dyadic_pi(Fraction(-1, 8))),
    (sqrt2_pi(1), None, dyadic_pi(Fraction(1, 2))),
]


def _eq_words(lengths, tails) -> "list[str]":
    """a^m b a^n, and a^m b a^n b a^z for each z in ``tails``."""
    words = []
    for m, n in itertools.product(lengths, repeat=2):
        words.append("a" * m + "b" + "a" * n)
        words += ["a" * m + "b" + "a" * n + "b" + "a" * z for z in tails]
    return words


@pytest.mark.parametrize("turns", TWO_RUN_TURNS)
def test_a_self_looping_run_matches_its_single_turns(turns):
    spec = two_run_machine(*turns)
    for word in _eq_words((0, 1, 2, 5, 40), (0, 3)):
        assert outcome(run_exact_realtime, spec, word) == outcome(reference_realtime, spec, word), word
    unary = two_run_machine(*turns, alphabet=("a",))
    for n in (0, 1, 2, 7, 100):
        assert outcome(lambda s, w: run_unary_length(s, len(w)), unary, "a" * n) == outcome(reference_realtime, unary, "a" * n)


def test_eq_runs_of_a_few_hundred_letters_match_the_references():
    eq, phase = build_exact_eq_restarting(), build("AW_EQ_PHASE")
    for word in _eq_words((0, 1, 7, 64, 300), (0, 299)):
        for spec in (eq, phase):
            assert outcome(run_exact_realtime, spec, word) == outcome(reference_realtime, spec, word), word
        assert _restart_outcome(analyze_restarting, eq, word, 64) == _restart_outcome(reference_restart, eq, word, 64)


def test_a_million_letter_eq_word_turns_each_run_once(monkeypatch):
    rotated, stepped = [], []
    rotate, step = RotationRegister.rotated, analysis._Square.stepped
    monkeypatch.setattr(RotationRegister, "rotated", lambda reg, delta: rotated.append(delta) or rotate(reg, delta))
    monkeypatch.setattr(analysis._Square, "stepped", lambda square, reg: stepped.append(square) or step(square, reg))
    m = 10 ** 6
    word = "a" * m + "b" + "a" * (m + 1)
    analyze_restarting(build_exact_eq_restarting(), word)
    # One turn per run of each branch, and one where a branch changes state.
    assert 0 < len(rotated) <= 6 and len(stepped) <= 4
    rotated.clear()
    stepped.clear()
    run_exact_realtime(build("AW_EQ_PHASE"), word)
    assert 0 < len(rotated) <= 2 and len(stepped) <= 2


# Every realtime built-in, EVENODD at k = 2, and the test machines that
# split mid-block, halt before a hole, carry interval masses or are PFAs.
DIFFERENTIAL_MACHINES = [
    spec for spec in (build(cid, k=2 if cid.startswith("EVENODD") else None) for cid in CONSTRUCTION_IDS)
    if spec.is_realtime()
] + [
    spin_machine(),
    coin_turn_machine(),
    mid_block_machine(),
    mid_block_machine(hole=True),
    block_counter_machine(),
    walk_or_toss_machine(),
    live_turn_machine(),
    idle_split_machine(),
    halt_before_hole_machine(),
    fair_coin_pfa(),
    _thirds_pfa(),
    bouncing_pfa(),
    residual_pfa(),
    two_letter_pfa(),
]


@pytest.mark.parametrize("spec", DIFFERENTIAL_MACHINES, ids=[spec.name for spec in DIFFERENTIAL_MACHINES])
def test_every_short_word_and_seeded_power_matches_the_square_by_square_run(spec):
    # Exact values and kinds, or the same error type and message, on every
    # word of length at most 6 and on seeded roots to the powers 1, 2, 3
    # and 7, which reach the stepped blocks and the jump.
    words = ["".join(w) for n in range(7) for w in itertools.product(spec.alphabet, repeat=n)]
    rng = random.Random(spec.name)
    for _ in range(8):
        root = "".join(rng.choice(spec.alphabet) for _ in range(rng.randint(1, 6)))
        words += [root * reps for reps in (1, 2, 3, 7)]
    for word in words:
        assert outcome(run_exact_realtime, spec, word) == outcome(reference_realtime, spec, word), word


def test_never_recurring_register_walks_every_block(monkeypatch):
    # ROT has infinite order, so no configuration recurs and the run
    # applies the rotation once per letter.
    calls = []
    apply = QMatrix.apply
    monkeypatch.setattr(QMatrix, "apply", lambda m, v: calls.append(1) or apply(m, v))
    counts = []
    for t in (20, 40):
        calls.clear()
        run_exact_realtime(spin_machine(), "a" * t)
        counts.append(len(calls))
    assert counts == [20, 40]


def test_periodic_run_resolves_a_bounded_number_of_squares(monkeypatch):
    # Every runner reaches its squares through ``resolve``.
    calls = []
    resolve = analysis._Square.resolve
    monkeypatch.setattr(analysis._Square, "resolve", lambda square, *a: calls.append(1) or resolve(square, *a))
    spec = build_lv_exptwinpal()
    counts = []
    for t in (25, 625):
        calls.clear()
        run_exact_realtime(spec, _twin_blocks("ab", "aa", t))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize(
    "build, u, v",
    [(build_lv_exptwinpal, u, v) for u, v in LV_PAIRS]
    + [(build_exact_exptwinpal, u, v) for u, v in EXACT_PAIRS],
)
def test_key_seen_in_consecutive_blocks_is_walked_once(monkeypatch, build, u, v):
    # Each block-boundary configuration of these inputs recurs in the
    # very next block, so the second sighting reuses the first walk.
    walked = []
    block_row = analysis._block_row
    monkeypatch.setattr(
        analysis, "_block_row", lambda k, key, b: walked.append(key) or block_row(k, key, b)
    )
    spec = build()
    word = _twin_blocks(u, v, 25)
    assert run_exact_realtime(spec, word) == reference_realtime(spec, word)
    assert walked and len(walked) == len(set(walked))


def test_the_jump_reads_the_rows_walked_in_the_previous_block(monkeypatch):
    # Block 1 walks the rows of both keys, and block 2 the row of the key
    # that "rej_first" leads to. With the rows of block 2 they close over
    # the live keys, so the jump comes after two stepped blocks.
    jumps = []
    jump = analysis._jump
    monkeypatch.setattr(analysis, "_jump", lambda *a: jumps.append(a[2]) or jump(*a))
    spec = build_lv_exptwinpal()
    word = _twin_blocks("ab", "aa", 625)
    assert run_exact_realtime(spec, word) == reference_realtime(spec, word)
    assert jumps == [623]


def _gcd_descents(monkeypatch) -> list:
    """The descent of each gcd that Fraction runs from here on.

    gcd(a, b) descends from the smaller operand's size to the result's;
    that descent is the quadratic part. gcd(x, x) or gcd(x, 5) on a big
    x costs a division at most.
    """
    descents = []
    shim = types.SimpleNamespace(**vars(math))

    def gcd(*args):
        g = math.gcd(*args)
        descents.append(min(a.bit_length() for a in args) - g.bit_length())
        return g

    shim.gcd = gcd
    monkeypatch.setattr(fractions, "math", shim)
    return descents


def test_block_path_ends_without_a_full_size_gcd(monkeypatch):
    descents = _gcd_descents(monkeypatch)
    dist = run_exact_realtime(build_lv_exptwinpal(), _twin_blocks("ab", "aa", 625))
    assert dist.p_reject.value.denominator.bit_length() > 10_000
    assert descents and max(descents) <= 2000


def test_interval_block_path_ends_without_a_full_size_gcd(monkeypatch):
    # The sin^2 endpoints are dyadic, so the interval ends share a long
    # power of two with the jump's denominator.
    descents = _gcd_descents(monkeypatch)
    dist = run_exact_realtime(coin_turn_machine(), "ab" * 2000)
    for p in (dist.p_accept, dist.p_reject):
        assert not p.is_exact() and p.interval.lo.denominator.bit_length() > 9000
    assert descents and max(descents) <= 200


LONG_PERIODIC_PAIRS = [(u, v) for u in ("aa", "ab", "ba", "bb") for v in ("aa", "ab", "ba", "bb") if u != v]


def _jump_calls(monkeypatch) -> list:
    """The name of each jump and each closed-form power taken from here on."""
    calls = []
    for name in ("_jump", "_self_loop_power"):
        step = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *a, name=name, step=step: calls.append(name) or step(*a))
    return calls


def test_self_looping_keys_take_the_closed_form(monkeypatch):
    # Every LV_EXPTWINPAL key returns only to itself at block ends; the
    # coin-turn machine's keys reach each other.
    calls = _jump_calls(monkeypatch)
    for u, v in LONG_PERIODIC_PAIRS:
        run_exact_realtime(build_lv_exptwinpal(), _twin_blocks(u, v, 625))
    assert calls and calls == ["_jump", "_self_loop_power"] * (len(calls) // 2)
    calls.clear()
    run_exact_realtime(coin_turn_machine(), "ab" * 64)
    assert calls == ["_jump"]


def _matrix_power(rows, exponent: int, start):
    """start @ rows^exponent by repeated squaring, for row tuples."""
    result, base = start, rows
    while exponent:
        if exponent & 1:
            result = _matmul_rows(result, base)
        exponent >>= 1
        if exponent:
            base = _matmul_rows(base, base)
    return result


def _matmul_rows(a, b):
    """a @ b for row tuples, skipping zero entries on both sides."""
    sparse = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for k, x in enumerate(row):
            if x:
                for j, y in sparse[k]:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def _dense_power(rows: dict, state: tuple, blocks: int) -> tuple:
    """The state after ``blocks`` blocks of ``rows`` as v·M^blocks, with
    M = [[T, D], [0, den·I]] the integer rows scaled to den, the lcm of
    their denominators: T holds the live-to-live weights, D the decided
    mass, one column per category and one more for the upper end of each
    category whose mass is an interval, and the identity block carries
    the decided mass on. Every key of ``rows`` has a weight, zero or not,
    and every category of the state or of a row has ends."""
    v_den, live, decided = state
    keys = list(rows)
    sources = [decided, *(row_decided for _, _, row_decided in rows.values())]
    cats = [c for c in CATEGORIES if any(c in d for d in sources)]
    wide = [c for c in cats if any(c in d and d[c][0] != d[c][1] for d in sources)]
    columns = [(c, 0) for c in cats] + [(c, 1) for c in wide]
    n, width = len(keys), len(keys) + len(columns)
    den = math.lcm(*(row_den for row_den, _, _ in rows.values()))
    matrix = []
    for row_den, row_live, row_decided in rows.values():
        row = [row_live.get(key2, 0) for key2 in keys]
        row += [row_decided[c][end] if c in row_decided else 0 for c, end in columns]
        matrix.append([x * (den // row_den) for x in row])
    matrix += [[den if i == j else 0 for j in range(width)] for i in range(n, width)]
    start = [live.get(key, 0) for key in keys] + [decided[c][end] if c in decided else 0 for c, end in columns]
    (scaled,) = _matrix_power(matrix, blocks, (start,))
    sums = dict(zip(columns, scaled[n:]))
    return (
        v_den * den**blocks,
        dict(zip(keys, scaled)),
        {c: (sums[c, 0], sums.get((c, 1), sums[c, 0])) for c in cats},
    )


def _random_decided(rng, den: int, wide: bool) -> dict:
    """Ends over ``den`` for a few categories, (lo, hi) apart if ``wide``."""
    decided = {}
    for c in rng.sample(CATEGORIES, rng.randint(0, 3)):
        lo = rng.randint(0, den)
        decided[c] = (lo, lo + rng.randint(0, 3) if wide and rng.random() < 0.5 else lo)
    return decided


def _random_self_loop_case(rng, den: int):
    """Rows over ``den`` whose keys return only to themselves, with a self
    weight in {0, den, other}, exact and (lo, hi) decided ends, and a
    state that lists every key, some at weight zero."""
    keys = [(f"s{i}", None) for i in range(rng.randint(1, 4))]
    wide = rng.random() < 0.5
    rows = {}
    for key in keys:
        a = rng.choice((0, den, rng.randint(0, den)))
        rows[key] = (den, {key: a} if a else {}, _random_decided(rng, den, wide))
    live = {key: rng.choice((0, rng.randint(1, 50))) for key in keys}
    return rows, (rng.randint(1, 9), live, _random_decided(rng, 9, wide))


@pytest.mark.parametrize("den", [1, 2, 25, 390625, 3 * 2 ** 20])
def test_self_loop_power_matches_the_matrix_power(den):
    rng = random.Random(den)
    for _ in range(12):
        rows, state = _random_self_loop_case(rng, den)
        for blocks in (1, 2, 3, 625):
            want_den, weights, want_decided = _dense_power(rows, state, blocks)
            # A key whose row keeps none of its weight leaves, as in a stepped block.
            kept = {key: w for key, w in weights.items() if rows[key][1]}
            assert analysis._self_loop_power(rows, state, den, blocks) == (want_den, kept, want_decided)


def _random_closed_rows(rng, diagonal: bool):
    """Closed rows over keys of their own denominators and a state: some
    keys are not live or live at weight zero, some rows decide all their
    mass, and without ``diagonal`` key 0 reaches key 1."""
    keys = [(f"s{i}", None) for i in range(rng.randint(1 if diagonal else 2, 4))]
    wide = rng.random() < 0.5
    rows = {}
    for key in keys:
        row_den = rng.choice((1, 2, 3, 4, 6, 25, 36))
        if diagonal:
            reached = [key] if rng.random() < 0.7 else []
        else:
            reached = rng.sample(keys, rng.randint(0, len(keys)))
            if key == keys[0] and keys[1] not in reached:
                reached.append(keys[1])
        row_live = {key2: rng.randint(1, row_den) for key2 in reached}
        rows[key] = (row_den, row_live, _random_decided(rng, row_den, wide))
    live = {key: rng.choice((0, rng.randint(1, 50))) for key in rng.sample(keys, rng.randint(1, len(keys)))}
    return rows, (rng.randint(1, 9), live, _random_decided(rng, 9, wide))


def _key_order(rows: dict, order: tuple, blocks: int) -> tuple:
    """The live keys after ``blocks`` blocks from the keys ``order``, in
    the order the stepped blocks give them: a block lists the keys of
    ``rows[k][1]`` for each k in order, each at its first appearance. Only
    keys are walked, and the orders recur, so the walk stops at the first
    order it has met before and takes the rest of the blocks modulo that
    cycle."""
    history: "list[tuple]" = []
    index: "dict[tuple, int]" = {}
    while order not in index:
        if len(history) == blocks:
            return order
        index[order] = len(history)
        history.append(order)
        order = tuple(dict.fromkeys(key2 for key in order for key2 in rows[key][1]))
    first = index[order]
    return history[first + (blocks - first) % (len(history) - first)]


def _without_empty_ends(decided: dict) -> dict:
    # A category of zero mass reads the same as one with no ends.
    return {c: ends for c, ends in decided.items() if ends != (0, 0)}


@pytest.mark.parametrize("diagonal", [True, False])
def test_jump_matches_the_dense_matrix_power(monkeypatch, diagonal):
    calls = _jump_calls(monkeypatch)
    rng = random.Random(625 + diagonal)
    for _ in range(40):
        rows, state = _random_closed_rows(rng, diagonal)
        for blocks in (1, 2, 3, 7, 625):
            (den, live, decided), base = analysis._jump(rows, state, blocks)
            want_den, weights, want_decided = _dense_power(rows, state, blocks)
            order = _key_order(rows, tuple(state[1]), blocks)
            assert (den, base) == (want_den, state[0] * math.lcm(*(row[0] for row in rows.values())))
            assert list(live.items()) == [(key, weights[key]) for key in order]
            assert _without_empty_ends(decided) == _without_empty_ends(want_decided)
    assert calls.count("_self_loop_power") == (calls.count("_jump") if diagonal else 0)


def test_a_jump_over_the_bit_cap_is_refused_before_any_power(monkeypatch):
    # Each letter keeps a third of the mass live, so the answer on a^(10^8)
    # is over 3^(10^8); the estimate alone refuses it, in under a millisecond.
    calls = _jump_calls(monkeypatch)
    combine = analysis._combine
    monkeypatch.setattr(analysis, "_combine", lambda *a: calls.append("_combine") or combine(*a))
    with pytest.raises(MachineError) as info:
        run_unary_length(_thirds_pfa(), 10**8)
    assert str(info.value) == "a jump's answer needs at least 100000002 bits, over the cap of 33554432"
    assert calls.count("_jump") == 1 and calls[-1] == "_jump"


def _losing(category: str):
    """_Square.resolve without the branches that decide ``category``: every
    runner reaches its squares through ``resolve``."""
    resolve = analysis._Square.resolve
    return lambda square, *args: tuple(s for s in resolve(square, *args) if s[0] != category)


LOSSY_RUNS = [
    # Both blocks are stepped, and no jump comes.
    (build_lv_exptwinpal, _twin_blocks("ab", "aa", 2), False),
    # A jump, after which the check runs on the state's integers over
    # the jump's denominator, with exact and with interval masses.
    (build_lv_exptwinpal, _twin_blocks("ab", "aa", 625), True),
    (coin_turn_machine, "ab" * 64, True),
]


@pytest.mark.parametrize("build, word, jumped", LOSSY_RUNS, ids=["squares", "jump", "interval-jump"])
def test_lost_mass_fails_the_total_mass_check(monkeypatch, build, word, jumped):
    monkeypatch.setattr(analysis._Square, "resolve", _losing("reject"))
    jumps = []
    jump = analysis._jump
    monkeypatch.setattr(analysis, "_jump", lambda *a: jumps.append(a[2]) or jump(*a))
    spec = build()
    total = prob_sum(vars(reference_realtime(spec, word)).values()).as_interval()
    assert total.hi < 1
    with pytest.raises(MachineError) as exc:
        run_exact_realtime(spec, word)
    assert str(exc.value) == f"total terminal mass {total} does not cover 1"
    assert bool(jumps) == jumped


def reference_distribution(masses: dict) -> OutcomeDistribution:
    """The chain of ``prob_add`` that ended a run before it summed on
    integers: each category's masses in turn, then the categories."""

    def chained_sum(values):
        total = ExactProb(Fraction(0))
        for p in values:
            total = prob_add(total, p)
        return total

    sums = {cat: chained_sum(masses[cat]) for cat in CATEGORIES}
    total = chained_sum(sums.values()).as_interval()
    if not contains(total, Fraction(1)):
        raise MachineError(f"total terminal mass {total} does not cover 1")
    return OutcomeDistribution(*(sums[cat] for cat in CATEGORIES))


def _random_masses(rng: random.Random) -> "list[tuple[str, Fraction]]":
    """(category, value) pairs whose values sum to exactly 1; a category may have none."""
    cats = rng.sample(CATEGORIES, rng.randint(1, 4))
    weights = [rng.randint(0, 30) for _ in range(rng.randint(1, 9))]
    weights[0] += 1
    dens = [rng.choice((1, 2, 3, 5, 25, 7, 64)) for _ in weights]
    values = [Fraction(w, d) for w, d in zip(weights, dens)]
    total = sum(values)
    return [(rng.choice(cats), v / total) for v in values]


def _enclosed(rng: random.Random, value: Fraction):
    """``value`` as an exact mass, or as an interval around it whose ends
    are dyadic or over the value's own denominator; the interval may be a point."""
    kind = rng.randrange(4)
    if kind == 0:
        return ExactProb(value)
    if kind == 1:
        bits = rng.randint(1, 70)
        lo = Fraction(math.floor(value * 2 ** bits), 2 ** bits)
        hi = Fraction(math.ceil(value * 2 ** bits), 2 ** bits)
        return ApproxProb(RationalInterval(lo, hi))
    if kind == 2:
        return ApproxProb(RationalInterval(value, value))
    below, above = (Fraction(rng.randint(0, 3), value.denominator * 9) for _ in range(2))
    return ApproxProb(RationalInterval(value - below, value + above))


def integer_ends(*groups) -> "tuple[dict, int]":
    """The (masses, factor) groups as one end's input: each category's
    (lo, hi) ends summed as integers over q, the lcm of every end's
    denominator, each group's times its factor; and q."""
    pairs = [(cat, p.as_interval(), factor) for masses, factor in groups for cat in masses for p in masses[cat]]
    q = math.lcm(*(x.denominator for _, iv, _ in pairs for x in (iv.lo, iv.hi)))
    decided = {}
    for cat, iv, factor in pairs:
        lo, hi = (x.numerator * (q // x.denominator) * factor for x in (iv.lo, iv.hi))
        lo0, hi0 = decided.get(cat, (0, 0))
        decided[cat] = (lo0 + lo, hi0 + hi)
    return decided, q


def _ended(end, *args):
    """The kind and value of each category of a run's end, or the error it raised."""
    try:
        return [(type(p), p) for p in vars(end(*args)).values()]
    except MachineError as exc:
        return MachineError, str(exc)


def test_integer_end_matches_the_chained_sum():
    rng = random.Random(1919)
    failed = approx = 0
    for case in range(400):
        masses = {cat: [] for cat in CATEGORIES}
        for cat, value in _random_masses(rng):
            masses[cat].append(_enclosed(rng, value))
        if case % 5 == 0:
            # Lose one mass, so the total may no longer cover 1.
            cat = rng.choice([c for c in CATEGORIES if masses[c]])
            masses[cat].pop()
        want = _ended(reference_distribution, masses)
        assert _ended(analysis._masses_to_distribution, *integer_ends((masses, 1))) == want
        if want[0] is MachineError:
            failed += 1
        else:
            approx += any(kind is ApproxProb for kind, _ in want)
    assert failed > 20 and approx > 100


def test_jump_end_matches_the_chained_sum():
    # After a jump the ends are integers over a den whose primes divide
    # ``base``. A mass decided before the jump is carried over den by the
    # jump's products, and one decided after it arrives over den; the
    # answer is the chained sum of all the masses.
    rng = random.Random(1918)
    for _ in range(200):
        den, base = rng.choice(((5 ** 40, 5), (2 ** 30 * 5 ** 12, 10), (3 ** 20, 3 * 7)))
        before, after, joined = ({cat: [] for cat in CATEGORIES} for _ in range(3))
        for cat, value in _random_masses(rng):
            mass = _enclosed(rng, value)
            if rng.random() < 0.5:
                before[cat].append(mass)
            else:
                after[cat].append(prob_scale(mass, Fraction(den)))
            joined[cat].append(mass)
        decided, q = integer_ends((before, den), (after, 1))
        got = _ended(analysis._masses_to_distribution, decided, q * den, q * base)
        assert got == _ended(reference_distribution, joined)


@pytest.mark.parametrize("word", ["ab?c" * 1000, "?abc" * 1000, "abcc" * 1000 + "?"])
def test_bad_symbol_in_a_long_input_raises_like_the_square_path(word):
    spec = build_lv_exptwinpal()
    message = "input symbol '?' outside the machine alphabet"
    assert outcome(run_exact_realtime, spec, word) == (MachineError, message)
    assert outcome(reference_realtime, spec, word) == (MachineError, message)


@pytest.mark.parametrize("u, v", [("aba", "abb"), ("abb", "aba")])
def test_lv_size_three_meets_the_lasvegas_floors(u, v):
    dist = run_exact_realtime(build_lv_exptwinpal(), _twin_blocks(u, v, 25 ** 3))
    lower = one_minus_inv_e_bracket().lo
    if u == u[::-1]:
        assert dist.p_accept.value >= Fraction(16, 25) * lower
        assert dist.p_reject == ExactProb(0)
    else:
        assert dist.p_reject.value >= Fraction(9, 25) * lower
        assert dist.p_accept == ExactProb(0)


def test_monte_carlo_on_pfa_matches_recorded_results():
    # Recorded oracle: the counts pin the PFA graph's node order and draws.
    assert run_monte_carlo(fair_coin_pfa(), "aaa", trials=1000, seed=13) == MonteCarloResult(
        trials=1000,
        counts={"accept": 511, "reject": 489, "dont_know": 0, "continue": 0, "capped": 0},
        mean_steps=Fraction(5),
        mean_rounds=Fraction(1),
    )
    assert run_monte_carlo(fair_coin_pfa(), "aa", trials=500, seed=13, step_cap=3) == MonteCarloResult(
        trials=500,
        counts={"accept": 0, "reject": 0, "dont_know": 0, "continue": 0, "capped": 500},
        mean_steps=None,
        mean_rounds=None,
    )
