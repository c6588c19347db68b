"""Builders for the library's reference machines.

Every builder returns an immutable machine description that passes
``machines.validate`` with no violations.  Three families are covered:

* Palindrome checkers built on a pair of 3-dimensional rational
  rotations.  Scanning a word forward under the rotations and then
  forward again under their inverses fixes the first basis vector
  exactly when the word is a palindrome, and leaks probability mass
  off that vector at a rate of at least 25^(-|w|) otherwise.
* Equality checkers built on a single qubit turned by the irrational
  angle sqrt(2)*pi per input letter, so the qubit returns to its start
  exactly when two counted blocks match.
* Parity-of-multiples checkers, both as a 2-state machine with dyadic
  turns and as a plain counting automaton with 2^(k+1) states.

All machines read well-formed inputs of their documented shape; on
malformed inputs the simulator stops with a descriptive error rather
than silently mis-deciding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Container, Dict, Optional, Tuple

from .exactnum import dyadic_pi, sqrt2_pi
from .machines import (
    LEFT_MARKER,
    MODEL_MCQFA,
    MODEL_RESTARTING,
    MODEL_RTDFA,
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
    QuantumAction,
    RotateAction,
    UnitaryAction,
)
from .qstate import ProjectiveMeasurement, QMatrix, QVector

# 3-4-5 rotations acting on a 3-dimensional register: one turns the
# (1,2)-plane, the other the (1,3)-plane.  Their matrix entries are the
# rationals 4/5 and 3/5, which is what keeps every palindrome machine
# below exactly solvable.
PAL_STEP_A = QMatrix.from_rows(
    [
        [Fraction(4, 5), Fraction(3, 5), 0],
        [Fraction(-3, 5), Fraction(4, 5), 0],
        [0, 0, 1],
    ]
)
PAL_STEP_B = QMatrix.from_rows(
    [
        [Fraction(4, 5), 0, Fraction(3, 5)],
        [0, 1, 0],
        [Fraction(-3, 5), 0, Fraction(4, 5)],
    ]
)
PAL_STEP = {"a": PAL_STEP_A, "b": PAL_STEP_B}
PAL_STEP_INV = {sym: m.conj_transpose() for sym, m in PAL_STEP.items()}

# Swap of the first two register axes.  Measuring after PAL_STEP_A
# splits the start vector into a 16/25 branch (first axis) and a 9/25
# branch (second axis); folding this swap into the second branch's
# first operation lets both branches run the same forward scan from
# the first basis vector.
AXIS_SWAP_12 = QMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])

# Partition of the 3-dimensional register used by every final check:
# outcome "1" is the palindrome-consistent axis, outcome "23" is the
# orthogonal leak.
FIRST_VS_REST = ProjectiveMeasurement.from_partition(3, {"1": [0], "23": [1, 2]})
SINGLETONS_3 = ProjectiveMeasurement.from_partition(3, {"1": [0], "2": [1], "3": [2]})

# Qubit rotation used to split into a 16/25 / 9/25 coin on a rotation
# register: it maps angle 0 to a state measuring |0> with 16/25.
COIN_TILT = QMatrix.from_rows(
    [[Fraction(4, 5), Fraction(-3, 5)], [Fraction(3, 5), Fraction(4, 5)]]
)
QUBIT_SWAP = QMatrix.from_rows([[0, 1], [1, 0]])

# EVENODD_DFA has 2^(k+1) states: at the cap, analyze --input a1000000000000
# --mode exact takes about 2.2 s on a 2-CPU box (0.5 s at k = 14, 4.4 s at 17).
EVENODD_DFA_MAX_K = 16
# EVENODD_MCQFA turns by pi / 2^(k+1), whose denominator has k + 2 bits;
# at the cap its spec prints in about 2 s.
EVENODD_MCQFA_MAX_K = 1 << 20


def pal_double_scan_state(word: str) -> QVector:
    """Final register after scanning ``word`` twice from the first basis
    vector: forward steps on the first scan, their inverses (again in
    reading order) on the second.

    The result is exactly the first basis vector when ``word`` is a
    palindrome; otherwise the mass off that vector is at least
    25^(-|word|).
    """
    state = QVector.basis(3, 0)
    for sym in word:
        state = PAL_STEP[sym].apply(state)
    for sym in word:
        state = PAL_STEP_INV[sym].apply(state)
    return state


def build_aw_pal() -> MachineSpec:
    """Realtime two-pass palindrome checker.

    Input shape: w c w for a word w over {a,b} (the word repeated with
    one separator).  The register is stepped forward over the first
    copy and stepped by the inverses over the second copy, then
    measured at the right end-marker: outcome "1" accepts, outcome
    "23" rejects.  Palindromes are accepted with certainty; every
    non-palindrome w is rejected with probability at least 25^(-|w|).
    """
    quantum: Dict[Tuple[str, str], QuantumAction] = {
        ("scan", "a"): UnitaryAction(PAL_STEP["a"]),
        ("scan", "b"): UnitaryAction(PAL_STEP["b"]),
        ("unscan", "a"): UnitaryAction(PAL_STEP_INV["a"]),
        ("unscan", "b"): UnitaryAction(PAL_STEP_INV["b"]),
        ("unscan", RIGHT_MARKER): MeasureAction(FIRST_VS_REST),
    }
    classical = {
        ("scan", LEFT_MARKER, "1"): ClassicalStep("scan", MOVE_RIGHT),
        ("scan", "a", "1"): ClassicalStep("scan", MOVE_RIGHT),
        ("scan", "b", "1"): ClassicalStep("scan", MOVE_RIGHT),
        ("scan", "c", "1"): ClassicalStep("unscan", MOVE_RIGHT),
        ("unscan", "a", "1"): ClassicalStep("unscan", MOVE_RIGHT),
        ("unscan", "b", "1"): ClassicalStep("unscan", MOVE_RIGHT),
        ("unscan", RIGHT_MARKER, "1"): ClassicalStep("s_a", MOVE_RIGHT),
        ("unscan", RIGHT_MARKER, "23"): ClassicalStep("s_r", MOVE_RIGHT),
    }
    return MachineSpec(
        name="AW_PAL",
        model_class=MODEL_RTQCFA,
        register=REGISTER_MATRIX,
        quantum_dim=3,
        states=frozenset({"scan", "unscan", "s_a", "s_r"}),
        initial_state="scan",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a", "b", "c"),
        quantum_delta=quantum,
        classical_delta=classical,
    )


def build_exact_pal_sweeping() -> MachineSpec:
    """Sweeping checker for promise inputs u c v with |u| = |v| and
    exactly one of u, v a palindrome.

    Each iteration starts at the left end-marker with a measured coin:
    the 16/25 branch double-scans v and accepts when the scan leaks,
    the 9/25 branch double-scans u and rejects when the scan leaks.
    Undecided mass walks home and retries, so exactly one kind of
    decision can ever fire on a promise input and the overall verdict
    is error-free.  One iteration spans four sweeps.
    """
    swap_fold = {sym: (PAL_STEP[sym] @ AXIS_SWAP_12) for sym in ("a", "b")}
    quantum: Dict[Tuple[str, str], QuantumAction] = {
        ("toss", LEFT_MARKER): MeasureAction(SINGLETONS_3, pre=PAL_STEP_A),
        ("acc_scan_v", "a"): UnitaryAction(PAL_STEP["a"]),
        ("acc_scan_v", "b"): UnitaryAction(PAL_STEP["b"]),
        ("acc_unscan_v", "a"): UnitaryAction(PAL_STEP_INV["a"]),
        ("acc_unscan_v", "b"): UnitaryAction(PAL_STEP_INV["b"]),
        ("acc_unscan_v", RIGHT_MARKER): MeasureAction(FIRST_VS_REST),
        ("rej_first_u", "a"): UnitaryAction(swap_fold["a"]),
        ("rej_first_u", "b"): UnitaryAction(swap_fold["b"]),
        ("rej_scan_u", "a"): UnitaryAction(PAL_STEP["a"]),
        ("rej_scan_u", "b"): UnitaryAction(PAL_STEP["b"]),
        ("rej_unscan_u", "a"): UnitaryAction(PAL_STEP_INV["a"]),
        ("rej_unscan_u", "b"): UnitaryAction(PAL_STEP_INV["b"]),
        ("rej_skip_v2", RIGHT_MARKER): MeasureAction(FIRST_VS_REST),
    }
    classical = {
        # Coin toss at the left end-marker; outcome "3" has zero mass.
        ("toss", LEFT_MARKER, "1"): ClassicalStep("acc_skip_u", MOVE_RIGHT),
        ("toss", LEFT_MARKER, "2"): ClassicalStep("rej_first_u", MOVE_RIGHT),
        ("toss", LEFT_MARKER, "3"): ClassicalStep("rej_first_u", MOVE_RIGHT),
        # Accepting branch: idle over u, scan v, bounce, idle over u,
        # unscan v, measure at the right end-marker.
        ("acc_skip_u", "a", "1"): ClassicalStep("acc_skip_u", MOVE_RIGHT),
        ("acc_skip_u", "b", "1"): ClassicalStep("acc_skip_u", MOVE_RIGHT),
        ("acc_skip_u", "c", "1"): ClassicalStep("acc_scan_v", MOVE_RIGHT),
        ("acc_scan_v", "a", "1"): ClassicalStep("acc_scan_v", MOVE_RIGHT),
        ("acc_scan_v", "b", "1"): ClassicalStep("acc_scan_v", MOVE_RIGHT),
        ("acc_scan_v", RIGHT_MARKER, "1"): ClassicalStep("acc_back", MOVE_LEFT),
        ("acc_back", "a", "1"): ClassicalStep("acc_back", MOVE_LEFT),
        ("acc_back", "b", "1"): ClassicalStep("acc_back", MOVE_LEFT),
        ("acc_back", "c", "1"): ClassicalStep("acc_back", MOVE_LEFT),
        ("acc_back", LEFT_MARKER, "1"): ClassicalStep("acc_skip_u2", MOVE_RIGHT),
        ("acc_skip_u2", "a", "1"): ClassicalStep("acc_skip_u2", MOVE_RIGHT),
        ("acc_skip_u2", "b", "1"): ClassicalStep("acc_skip_u2", MOVE_RIGHT),
        ("acc_skip_u2", "c", "1"): ClassicalStep("acc_unscan_v", MOVE_RIGHT),
        ("acc_unscan_v", "a", "1"): ClassicalStep("acc_unscan_v", MOVE_RIGHT),
        ("acc_unscan_v", "b", "1"): ClassicalStep("acc_unscan_v", MOVE_RIGHT),
        ("acc_unscan_v", RIGHT_MARKER, "1"): ClassicalStep("home", MOVE_LEFT),
        ("acc_unscan_v", RIGHT_MARKER, "23"): ClassicalStep("s_a", MOVE_RIGHT),
        # Rejecting branch: scan u (swap folded into the first step),
        # idle over v, bounce, unscan u, idle over v, measure.
        ("rej_first_u", "a", "1"): ClassicalStep("rej_scan_u", MOVE_RIGHT),
        ("rej_first_u", "b", "1"): ClassicalStep("rej_scan_u", MOVE_RIGHT),
        ("rej_first_u", "c", "1"): ClassicalStep("rej_skip_v", MOVE_RIGHT),
        ("rej_scan_u", "a", "1"): ClassicalStep("rej_scan_u", MOVE_RIGHT),
        ("rej_scan_u", "b", "1"): ClassicalStep("rej_scan_u", MOVE_RIGHT),
        ("rej_scan_u", "c", "1"): ClassicalStep("rej_skip_v", MOVE_RIGHT),
        ("rej_skip_v", "a", "1"): ClassicalStep("rej_skip_v", MOVE_RIGHT),
        ("rej_skip_v", "b", "1"): ClassicalStep("rej_skip_v", MOVE_RIGHT),
        ("rej_skip_v", RIGHT_MARKER, "1"): ClassicalStep("rej_back", MOVE_LEFT),
        ("rej_back", "a", "1"): ClassicalStep("rej_back", MOVE_LEFT),
        ("rej_back", "b", "1"): ClassicalStep("rej_back", MOVE_LEFT),
        ("rej_back", "c", "1"): ClassicalStep("rej_back", MOVE_LEFT),
        ("rej_back", LEFT_MARKER, "1"): ClassicalStep("rej_unscan_u", MOVE_RIGHT),
        ("rej_unscan_u", "a", "1"): ClassicalStep("rej_unscan_u", MOVE_RIGHT),
        ("rej_unscan_u", "b", "1"): ClassicalStep("rej_unscan_u", MOVE_RIGHT),
        ("rej_unscan_u", "c", "1"): ClassicalStep("rej_skip_v2", MOVE_RIGHT),
        ("rej_skip_v2", "a", "1"): ClassicalStep("rej_skip_v2", MOVE_RIGHT),
        ("rej_skip_v2", "b", "1"): ClassicalStep("rej_skip_v2", MOVE_RIGHT),
        ("rej_skip_v2", RIGHT_MARKER, "1"): ClassicalStep("home", MOVE_LEFT),
        ("rej_skip_v2", RIGHT_MARKER, "23"): ClassicalStep("s_r", MOVE_RIGHT),
        # Undecided mass walks home and retries in place.
        ("home", "a", "1"): ClassicalStep("home", MOVE_LEFT),
        ("home", "b", "1"): ClassicalStep("home", MOVE_LEFT),
        ("home", "c", "1"): ClassicalStep("home", MOVE_LEFT),
        ("home", LEFT_MARKER, "1"): ClassicalStep("toss", MOVE_STAY),
    }
    states = {
        "toss",
        "acc_skip_u",
        "acc_scan_v",
        "acc_back",
        "acc_skip_u2",
        "acc_unscan_v",
        "rej_first_u",
        "rej_scan_u",
        "rej_skip_v",
        "rej_back",
        "rej_unscan_u",
        "rej_skip_v2",
        "home",
        "s_a",
        "s_r",
    }
    return MachineSpec(
        name="EXACT_PAL_SWEEPING",
        model_class=MODEL_SWEEPING,
        register=REGISTER_MATRIX,
        quantum_dim=3,
        states=frozenset(states),
        initial_state="toss",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a", "b", "c"),
        quantum_delta=quantum,
        classical_delta=classical,
    )


def _twin_machine(name: str, model_class: str, block_end: str, undecided_target: str) -> MachineSpec:
    """Shared body of the doubled-word machines.

    Inputs are built from four letter segments u c u c v c v separated by
    "c".  The branch coin is tossed once at the left end-marker: with
    16/25 the run double-scans the v segments and accepts when the scan
    leaks, with 9/25 it double-scans the u segments (axis swap folded
    into the first step) and rejects when the scan leaks.  The register
    is measured on ``block_end`` after the fourth segment.  On the right
    end-marker (one block) the clean outcome goes to
    ``undecided_target``.  On "c" (blocks (u c u c v c v c)^t) the clean
    outcome leaves the register back at the start axis and begins the
    next block, and the right end-marker sends the undecided run to
    ``undecided_target``.
    """
    first = "rej_first"
    quantum: Dict[Tuple[str, str], QuantumAction] = {
        ("toss", LEFT_MARKER): MeasureAction(SINGLETONS_3, pre=PAL_STEP_A)
    }
    classical: Dict[Tuple[str, str, str], ClassicalStep] = {
        ("toss", LEFT_MARKER, "1"): ClassicalStep("acc_seg0", MOVE_RIGHT),
        ("toss", LEFT_MARKER, "2"): ClassicalStep(first, MOVE_RIGHT),
        ("toss", LEFT_MARKER, "3"): ClassicalStep(first, MOVE_RIGHT),
    }
    states = {"toss", first, "s_a", "s_r"}
    for suffix, scan_segments, decide_state in (
        ("acc", (None, None, "step", "inv"), "s_a"),
        ("rej", ("step", "inv", None, None), "s_r"),
    ):
        seg_state = [f"{suffix}_seg{i}" for i in range(4)]
        states.update(seg_state)
        for i, mode in enumerate(scan_segments):
            state = seg_state[i]
            if mode is not None:
                table = PAL_STEP if mode == "step" else PAL_STEP_INV
                quantum[(state, "a")] = UnitaryAction(table["a"])
                quantum[(state, "b")] = UnitaryAction(table["b"])
            classical[(state, "a", "1")] = ClassicalStep(state, MOVE_RIGHT)
            classical[(state, "b", "1")] = ClassicalStep(state, MOVE_RIGHT)
            if i < 3:
                classical[(state, "c", "1")] = ClassicalStep(seg_state[i + 1], MOVE_RIGHT)
        last = seg_state[3]
        quantum[(last, block_end)] = MeasureAction(FIRST_VS_REST)
        classical[(last, block_end, "23")] = ClassicalStep(decide_state, MOVE_RIGHT)
        if block_end == RIGHT_MARKER:
            classical[(last, block_end, "1")] = ClassicalStep(undecided_target, MOVE_RIGHT)
        else:
            classical[(last, block_end, "1")] = ClassicalStep(seg_state[0], MOVE_RIGHT)
            classical[(seg_state[0], RIGHT_MARKER, "1")] = ClassicalStep(
                undecided_target, MOVE_RIGHT
            )
    # The rejecting branch enters at the second register axis; its
    # first letter folds the swap back onto the start axis.
    quantum[(first, "a")] = UnitaryAction(PAL_STEP["a"] @ AXIS_SWAP_12)
    quantum[(first, "b")] = UnitaryAction(PAL_STEP["b"] @ AXIS_SWAP_12)
    classical[(first, "a", "1")] = ClassicalStep("rej_seg0", MOVE_RIGHT)
    classical[(first, "b", "1")] = ClassicalStep("rej_seg0", MOVE_RIGHT)
    classical[(first, "c", "1")] = ClassicalStep("rej_seg1", MOVE_RIGHT)
    if block_end != RIGHT_MARKER:
        classical[(first, RIGHT_MARKER, "1")] = ClassicalStep(undecided_target, MOVE_RIGHT)
    dont_know = "s_d" if undecided_target == "s_d" else None
    if dont_know:
        states.add(dont_know)
    return MachineSpec(
        name=name,
        model_class=model_class,
        register=REGISTER_MATRIX,
        quantum_dim=3,
        states=frozenset(states),
        initial_state="toss",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=dont_know,
        alphabet=("a", "b", "c"),
        quantum_delta=quantum,
        classical_delta=classical,
    )


def build_exact_twinpal() -> MachineSpec:
    """Restarting checker for doubled-word promise inputs u c u c v c v.

    The branch that double-scans the v segments accepts on a leak, the
    one that double-scans the u segments rejects on a leak, and all
    undecided mass restarts, so on promise inputs the machine never
    emits the wrong decision and the conditioned verdict is exact.
    """
    return _twin_machine("EXACT_TWINPAL", MODEL_RESTARTING, RIGHT_MARKER, RESTART_TARGET)


def build_lv_exptwinpal() -> MachineSpec:
    """One-shot checker for block-repeated inputs (u c u c v c v c)^t.

    Never answers wrongly: the accepting branch can only fire on inputs
    whose v segments mismatch, the rejecting branch only on mismatched
    u segments, and a run that survives all t blocks admits "don't
    know".  With t at least 25^|u| the informative answer arrives with
    probability at least (16/25)(1 - 1/e) on the accepting side and
    (9/25)(1 - 1/e) on the rejecting side.
    """
    return _twin_machine("LV_EXPTWINPAL", MODEL_RTQCFA, "c", "s_d")


def build_exact_exptwinpal() -> MachineSpec:
    """Restarting wrapper of the block-repeated checker: undecided runs
    restart instead of admitting "don't know", so the conditioned
    verdict is exact and the expected number of rounds is constant."""
    return _twin_machine("EXACT_EXPTWINPAL", MODEL_RESTARTING, "c", RESTART_TARGET)


def build_aw_eq_phase() -> MachineSpec:
    """Realtime block-length comparator on a single qubit.

    Input shape: a^m b a^n.  Each leading "a" turns the qubit by
    +sqrt(2)*pi, each trailing "a" by -sqrt(2)*pi, so the end
    measurement sees the angle (m-n)*sqrt(2)*pi: outcome "2" (certified
    inequality) fires with probability sin^2((m-n)*sqrt(2)*pi), which
    is exactly zero when m = n and at least 1/(2(m-n)^2) otherwise.
    """
    quantum = {
        ("count_up", "a"): RotateAction(sqrt2_pi(1)),
        ("count_down", "a"): RotateAction(sqrt2_pi(-1)),
        ("count_up", RIGHT_MARKER): MeasureRotationAction(),
        ("count_down", RIGHT_MARKER): MeasureRotationAction(),
    }
    classical = {
        ("count_up", LEFT_MARKER, "1"): ClassicalStep("count_up", MOVE_RIGHT),
        ("count_up", "a", "1"): ClassicalStep("count_up", MOVE_RIGHT),
        ("count_up", "b", "1"): ClassicalStep("count_down", MOVE_RIGHT),
        ("count_down", "a", "1"): ClassicalStep("count_down", MOVE_RIGHT),
        ("count_up", RIGHT_MARKER, "1"): ClassicalStep("s_d", MOVE_RIGHT),
        ("count_up", RIGHT_MARKER, "2"): ClassicalStep("s_a", MOVE_RIGHT),
        ("count_down", RIGHT_MARKER, "1"): ClassicalStep("s_d", MOVE_RIGHT),
        ("count_down", RIGHT_MARKER, "2"): ClassicalStep("s_a", MOVE_RIGHT),
    }
    return MachineSpec(
        name="AW_EQ_PHASE",
        model_class=MODEL_RTQCFA,
        register=REGISTER_ROTATION,
        quantum_dim=2,
        states=frozenset({"count_up", "count_down", "s_a", "s_r", "s_d"}),
        initial_state="count_up",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state="s_d",
        alphabet=("a", "b"),
        quantum_delta=quantum,
        classical_delta=classical,
    )


def build_exact_eq_restarting() -> MachineSpec:
    """Restarting checker for promise inputs a^m b a^m b a^n versus
    a^m b a^n b a^m (with m distinct from n).

    The left end-marker measurement behind the 16/25 / 9/25 coin picks
    a comparison: the accepting branch compares the first and third
    "a" blocks (equal exactly on the no side), the rejecting branch
    compares the first and second (equal exactly on the yes side).
    The rejecting branch opens with a swap-and-measure that resets its
    qubit deterministically; the letter consumed by the reset, if it
    was an "a", is paid for at the following "b".  Outcome "2" at the
    right end-marker decides; outcome "1" restarts.  Wrong decisions
    have exactly zero probability, and the deciding round arrives with
    per-round probability at least (9/25)/(2(m-n)^2).
    """
    up = RotateAction(sqrt2_pi(1))
    down = RotateAction(sqrt2_pi(-1))
    quantum = {
        ("toss", LEFT_MARKER): MeasureRotationAction(pre=COIN_TILT),
        # Accepting branch: block 1 up, block 2 idle, block 3 down.
        ("acc_b1", "a"): up,
        ("acc_b3", "a"): down,
        ("acc_b1", RIGHT_MARKER): MeasureRotationAction(),
        ("acc_b2", RIGHT_MARKER): MeasureRotationAction(),
        ("acc_b3", RIGHT_MARKER): MeasureRotationAction(),
        # Rejecting branch: deterministic reset on the first letter,
        # then block 1 up (one turn owed), block 2 down, block 3 idle.
        ("rej_reset", "a"): MeasureRotationAction(pre=QUBIT_SWAP),
        ("rej_reset", "b"): MeasureRotationAction(pre=QUBIT_SWAP),
        ("rej_b1_owed", "a"): up,
        ("rej_b1_owed", "b"): up,
        ("rej_b2", "a"): down,
        ("rej_reset", RIGHT_MARKER): MeasureRotationAction(pre=QUBIT_SWAP),
        ("rej_b1_owed", RIGHT_MARKER): MeasureRotationAction(),
        ("rej_b2", RIGHT_MARKER): MeasureRotationAction(),
        ("rej_b3", RIGHT_MARKER): MeasureRotationAction(),
    }
    classical = {
        ("toss", LEFT_MARKER, "1"): ClassicalStep("acc_b1", MOVE_RIGHT),
        ("toss", LEFT_MARKER, "2"): ClassicalStep("rej_reset", MOVE_RIGHT),
        ("acc_b1", "a", "1"): ClassicalStep("acc_b1", MOVE_RIGHT),
        ("acc_b1", "b", "1"): ClassicalStep("acc_b2", MOVE_RIGHT),
        ("acc_b2", "a", "1"): ClassicalStep("acc_b2", MOVE_RIGHT),
        ("acc_b2", "b", "1"): ClassicalStep("acc_b3", MOVE_RIGHT),
        ("acc_b3", "a", "1"): ClassicalStep("acc_b3", MOVE_RIGHT),
        ("acc_b3", "b", "1"): ClassicalStep("acc_b3", MOVE_RIGHT),
        # The reset fires on the |1> axis exactly, so outcome "2" has
        # zero mass; it is wired anyway to keep the table total.
        ("rej_reset", "a", "1"): ClassicalStep("rej_b1_owed", MOVE_RIGHT),
        ("rej_reset", "a", "2"): ClassicalStep("rej_b1_owed", MOVE_RIGHT),
        ("rej_reset", "b", "1"): ClassicalStep("rej_b2", MOVE_RIGHT),
        ("rej_reset", "b", "2"): ClassicalStep("rej_b2", MOVE_RIGHT),
        ("rej_b1_owed", "a", "1"): ClassicalStep("rej_b1_owed", MOVE_RIGHT),
        ("rej_b1_owed", "b", "1"): ClassicalStep("rej_b2", MOVE_RIGHT),
        ("rej_b2", "a", "1"): ClassicalStep("rej_b2", MOVE_RIGHT),
        ("rej_b2", "b", "1"): ClassicalStep("rej_b3", MOVE_RIGHT),
        ("rej_b3", "a", "1"): ClassicalStep("rej_b3", MOVE_RIGHT),
        ("rej_b3", "b", "1"): ClassicalStep("rej_b3", MOVE_RIGHT),
    }
    for state, decide in (
        ("acc_b1", "s_a"),
        ("acc_b2", "s_a"),
        ("acc_b3", "s_a"),
        ("rej_reset", "s_r"),
        ("rej_b1_owed", "s_r"),
        ("rej_b2", "s_r"),
        ("rej_b3", "s_r"),
    ):
        classical[(state, RIGHT_MARKER, "1")] = ClassicalStep(RESTART_TARGET, MOVE_RIGHT)
        classical[(state, RIGHT_MARKER, "2")] = ClassicalStep(decide, MOVE_RIGHT)
    states = {
        "toss",
        "acc_b1",
        "acc_b2",
        "acc_b3",
        "rej_reset",
        "rej_b1_owed",
        "rej_b2",
        "rej_b3",
        "s_a",
        "s_r",
    }
    return MachineSpec(
        name="EXACT_EQ_RESTARTING",
        model_class=MODEL_RESTARTING,
        register=REGISTER_ROTATION,
        quantum_dim=2,
        states=frozenset(states),
        initial_state="toss",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a", "b"),
        quantum_delta=quantum,
        classical_delta=classical,
    )


def build_evenodd_mcqfa(k: int) -> MachineSpec:
    """2-state parity checker for unary inputs of length i * 2^k.

    Each letter turns the qubit by pi / 2^(k+1); after i * 2^k letters
    the accumulated angle is exactly i * pi/2, so the end measurement
    is deterministic: outcome "1" (even i) accepts, outcome "2" (odd i)
    rejects.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > EVENODD_MCQFA_MAX_K:
        raise ValueError(
            f"k={k} exceeds the supported cap {EVENODD_MCQFA_MAX_K} "
            f"(the machine turns by pi/2^(k+1))"
        )
    quantum = {
        ("count", "a"): RotateAction(dyadic_pi(Fraction(1, 2 ** (k + 1)))),
        ("count", RIGHT_MARKER): MeasureRotationAction(),
    }
    classical = {
        ("count", LEFT_MARKER, "1"): ClassicalStep("count", MOVE_RIGHT),
        ("count", "a", "1"): ClassicalStep("count", MOVE_RIGHT),
        ("count", RIGHT_MARKER, "1"): ClassicalStep("s_a", MOVE_RIGHT),
        ("count", RIGHT_MARKER, "2"): ClassicalStep("s_r", MOVE_RIGHT),
    }
    return MachineSpec(
        name=f"EVENODD_MCQFA(k={k})",
        model_class=MODEL_MCQFA,
        register=REGISTER_ROTATION,
        quantum_dim=2,
        states=frozenset({"count", "s_a", "s_r"}),
        initial_state="count",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        quantum_delta=quantum,
        classical_delta=classical,
    )


def build_evenodd_dfa(k: int) -> MachineSpec:
    """Counting checker for the same unary promise: 2^(k+1) live states
    track the input length modulo 2^(k+1), and the end-marker accepts
    exactly when the residue's bit k is clear (even multiples)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > EVENODD_DFA_MAX_K:
        raise ValueError(
            f"k={k} exceeds the supported cap {EVENODD_DFA_MAX_K} "
            f"(the machine needs 2^(k+1) states)"
        )
    return build_counter_dfa(f"EVENODD_DFA(k={k})", 2 ** (k + 1), range(2**k))


def build_counter_dfa(name: str, modulus: int, accept_residues: Container[int]) -> MachineSpec:
    """A unary DFA whose states r0, r1, ... count the input length modulo
    ``modulus``; the end-marker accepts on ``accept_residues``."""
    classical = {
        ("r0", LEFT_MARKER, "1"): ClassicalStep("r0", MOVE_RIGHT),
    }
    for i in range(modulus):
        classical[(f"r{i}", "a", "1")] = ClassicalStep(f"r{(i + 1) % modulus}", MOVE_RIGHT)
        verdict = "s_a" if i in accept_residues else "s_r"
        classical[(f"r{i}", RIGHT_MARKER, "1")] = ClassicalStep(verdict, MOVE_RIGHT)
    states = frozenset({f"r{i}" for i in range(modulus)} | {"s_a", "s_r"})
    return MachineSpec(
        name=name,
        model_class=MODEL_RTDFA,
        register=REGISTER_CLASSICAL,
        quantum_dim=1,
        states=states,
        initial_state="r0",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        classical_delta=classical,
    )


# Registry for the CLI and the verification suites.  The two parity
# builders take the exponent parameter k; the rest take none.
PARAMETRIC_BUILDERS = {
    "EVENODD_MCQFA": build_evenodd_mcqfa,
    "EVENODD_DFA": build_evenodd_dfa,
}
PLAIN_BUILDERS = {
    "AW_PAL": build_aw_pal,
    "EXACT_PAL_SWEEPING": build_exact_pal_sweeping,
    "EXACT_TWINPAL": build_exact_twinpal,
    "LV_EXPTWINPAL": build_lv_exptwinpal,
    "EXACT_EXPTWINPAL": build_exact_exptwinpal,
    "AW_EQ_PHASE": build_aw_eq_phase,
    "EXACT_EQ_RESTARTING": build_exact_eq_restarting,
}
CONSTRUCTION_IDS = tuple(sorted(PLAIN_BUILDERS) + sorted(PARAMETRIC_BUILDERS))


def build(construction_id: str, k: Optional[int] = None) -> MachineSpec:
    """Build a machine by registry id.  Parity ids require ``k``; the
    others reject it."""
    if construction_id in PLAIN_BUILDERS:
        if k is not None:
            raise ValueError(f"{construction_id} takes no parameter k")
        return PLAIN_BUILDERS[construction_id]()
    if construction_id in PARAMETRIC_BUILDERS:
        if k is None:
            raise ValueError(f"{construction_id} requires the parameter k")
        return PARAMETRIC_BUILDERS[construction_id](k)
    raise KeyError(f"unknown construction id {construction_id!r}")
