"""Structural validation and serialization of machine specs."""

from fractions import Fraction

import pytest

from exactqfa.exactnum import sqrt2_pi
from exactqfa.machines import (
    LEFT_MARKER,
    MODEL_MCQFA,
    MODEL_RESTARTING,
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
    SpecFormatError,
    StochasticMatrix,
    UnitaryAction,
    emit_spec,
    parse_spec,
    validate,
)
from exactqfa.qstate import ProjectiveMeasurement, QMatrix

ROT = QMatrix.from_rows(
    [
        [Fraction(3, 5), Fraction(4, 5)],
        [Fraction(-4, 5), Fraction(3, 5)],
    ]
)
SHEAR = QMatrix.from_rows([[1, 1], [0, 1]])


def tiny_qcfa(**overrides) -> MachineSpec:
    """Two-dimensional realtime machine used as a base case in tests."""
    meas = ProjectiveMeasurement.from_partition(2, {"1": [0], "2": [1]})
    fields = dict(
        name="tiny",
        model_class=MODEL_RTQCFA,
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
            ("s1", RIGHT_MARKER): MeasureAction(meas),
        },
        classical_delta={
            ("s1", LEFT_MARKER, "1"): ClassicalStep("s1", MOVE_RIGHT),
            ("s1", "a", "1"): ClassicalStep("s1", MOVE_RIGHT),
            ("s1", RIGHT_MARKER, "1"): ClassicalStep("s_a", MOVE_RIGHT),
            ("s1", RIGHT_MARKER, "2"): ClassicalStep("s_r", MOVE_RIGHT),
        },
    )
    fields.update(overrides)
    return MachineSpec(**fields)


def test_tiny_machine_is_valid():
    assert validate(tiny_qcfa()) == []


def test_left_move_in_realtime_machine_is_one_violation():
    spec = tiny_qcfa()
    delta = dict(spec.classical_delta)
    delta[("s1", "a", "1")] = ClassicalStep("s1", MOVE_LEFT)
    violations = validate(tiny_qcfa(classical_delta=delta))
    assert len(violations) == 1
    assert "only move right" in violations[0]


def test_non_unitary_matrix_is_one_violation():
    spec = tiny_qcfa()
    delta = dict(spec.quantum_delta)
    delta[("s1", "a")] = UnitaryAction(SHEAR)
    violations = validate(tiny_qcfa(quantum_delta=delta))
    assert len(violations) == 1
    assert "not unitary" in violations[0]


def test_accept_equal_reject_is_flagged():
    violations = validate(tiny_qcfa(reject_state="s_a"))
    assert any("must differ" in msg for msg in violations)


def test_declared_outcome_without_classical_transition():
    spec = tiny_qcfa()
    delta = dict(spec.classical_delta)
    del delta[("s1", RIGHT_MARKER, "2")]
    violations = validate(tiny_qcfa(classical_delta=delta))
    assert any("no classical transition" in msg for msg in violations)


def test_classical_outcome_not_produced_by_quantum_action():
    spec = tiny_qcfa()
    delta = dict(spec.classical_delta)
    delta[("s1", "a", "2")] = ClassicalStep("s1", MOVE_RIGHT)
    violations = validate(tiny_qcfa(classical_delta=delta))
    assert any("not produced" in msg for msg in violations)


def test_realtime_must_halt_on_right_marker():
    spec = tiny_qcfa()
    delta = dict(spec.classical_delta)
    delta[("s1", RIGHT_MARKER, "1")] = ClassicalStep("s1", MOVE_RIGHT)
    violations = validate(tiny_qcfa(classical_delta=delta))
    assert any("must halt or restart" in msg for msg in violations)


def test_restart_is_rejected_outside_restarting_class():
    spec = tiny_qcfa()
    delta = dict(spec.classical_delta)
    delta[("s1", RIGHT_MARKER, "1")] = ClassicalStep(RESTART_TARGET, MOVE_RIGHT)
    violations = validate(tiny_qcfa(classical_delta=delta))
    assert any("restart outside" in msg for msg in violations)
    assert validate(tiny_qcfa(model_class=MODEL_RESTARTING, classical_delta=delta)) == []


def test_restart_is_rejected_off_the_right_marker():
    spec = tiny_qcfa(model_class=MODEL_RESTARTING)
    delta = dict(spec.classical_delta)
    delta[("s1", "a", "1")] = ClassicalStep(RESTART_TARGET, MOVE_RIGHT)
    violations = validate(tiny_qcfa(model_class=MODEL_RESTARTING, classical_delta=delta))
    assert any("only allowed on" in msg for msg in violations)


def test_reserved_state_name_is_flagged():
    spec = tiny_qcfa(states=frozenset({"s1", "s_a", "s_r", RESTART_TARGET}))
    assert any("reserved" in msg for msg in validate(spec))


def test_marker_in_alphabet_is_flagged():
    spec = tiny_qcfa(alphabet=("a", RIGHT_MARKER))
    assert any("end-marker" in msg for msg in validate(spec))


def test_measure_once_machines_measure_only_at_the_end():
    spec = tiny_qcfa(model_class=MODEL_MCQFA)
    meas = ProjectiveMeasurement.from_partition(2, {"1": [0], "2": [1]})
    delta = dict(spec.quantum_delta)
    delta[("s1", "a")] = MeasureAction(meas)
    classical = dict(spec.classical_delta)
    classical[("s1", "a", "2")] = ClassicalStep("s_r", MOVE_RIGHT)
    violations = validate(
        tiny_qcfa(model_class=MODEL_MCQFA, quantum_delta=delta, classical_delta=classical)
    )
    assert any("measure only on" in msg for msg in violations)


def test_sweeping_stay_allowed_only_on_markers():
    spec = tiny_qcfa(model_class=MODEL_SWEEPING)
    delta = dict(spec.classical_delta)
    delta[("s1", "a", "1")] = ClassicalStep("s1", MOVE_STAY)
    violations = validate(tiny_qcfa(model_class=MODEL_SWEEPING, classical_delta=delta))
    assert any("stay only on end-markers" in msg for msg in violations)
    delta[("s1", "a", "1")] = ClassicalStep("s1", MOVE_LEFT)
    delta[("s1", LEFT_MARKER, "1")] = ClassicalStep("s1", MOVE_STAY)
    assert validate(tiny_qcfa(model_class=MODEL_SWEEPING, classical_delta=delta)) == []


def rotation_machine() -> MachineSpec:
    return MachineSpec(
        name="turner",
        model_class=MODEL_RTQCFA,
        register=REGISTER_ROTATION,
        quantum_dim=2,
        states=frozenset({"s1", "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        quantum_delta={
            ("s1", "a"): RotateAction(sqrt2_pi(1)),
            ("s1", RIGHT_MARKER): MeasureRotationAction(),
        },
        classical_delta={
            ("s1", LEFT_MARKER, "1"): ClassicalStep("s1", MOVE_RIGHT),
            ("s1", "a", "1"): ClassicalStep("s1", MOVE_RIGHT),
            ("s1", RIGHT_MARKER, "1"): ClassicalStep("s_a", MOVE_RIGHT),
            ("s1", RIGHT_MARKER, "2"): ClassicalStep("s_r", MOVE_RIGHT),
        },
    )


def test_rotation_machine_is_valid():
    assert validate(rotation_machine()) == []


def test_rotation_action_on_matrix_register_is_flagged():
    spec = tiny_qcfa()
    delta = dict(spec.quantum_delta)
    delta[("s1", "a")] = RotateAction(sqrt2_pi(1))
    violations = validate(tiny_qcfa(quantum_delta=delta))
    assert any("rotation action on a matrix register" in msg for msg in violations)


def fair_coin_pfa() -> MachineSpec:
    half = Fraction(1, 2)
    keep = StochasticMatrix(
        ("s1", "s_a", "s_r"),
        ((Fraction(1), Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(1))),
    )
    flip = StochasticMatrix(
        ("s1", "s_a", "s_r"),
        ((Fraction(0), half, half),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(1))),
    )
    return MachineSpec(
        name="fair-coin",
        model_class=MODEL_RTPFA,
        register=REGISTER_CLASSICAL,
        quantum_dim=1,
        states=frozenset({"s1", "s_a", "s_r"}),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        stochastic_delta={LEFT_MARKER: keep, "a": keep, RIGHT_MARKER: flip},
    )


def test_fair_coin_pfa_is_valid():
    assert validate(fair_coin_pfa()) == []


def test_pfa_missing_symbol_matrix_is_flagged():
    import dataclasses

    spec = fair_coin_pfa()
    delta = dict(spec.stochastic_delta)
    del delta["a"]
    violations = validate(dataclasses.replace(spec, stochastic_delta=delta))
    assert any("missing symbol" in msg for msg in violations)


def test_stochastic_matrix_rejects_a_repeated_state():
    # The second s1 row would never be read: rows are found by order.index.
    rows = tuple(tuple(Fraction(int(r == c)) for c in range(4)) for r in range(4))
    with pytest.raises(ValueError, match="repeats a state"):
        StochasticMatrix(("s1", "s1", "s_a", "s_r"), rows)


def test_stochastic_rows_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        StochasticMatrix(("x", "y"), ((Fraction(1, 2), Fraction(1, 3)), (Fraction(0), Fraction(1))))
    with pytest.raises(ValueError, match="negative"):
        StochasticMatrix(
            ("x", "y"),
            ((Fraction(3, 2), Fraction(-1, 2)), (Fraction(0), Fraction(1))),
        )


@pytest.mark.parametrize("builder", [tiny_qcfa, rotation_machine, fair_coin_pfa])
def test_emit_parse_round_trip(builder):
    spec = builder()
    assert parse_spec(emit_spec(spec)) == spec


def test_emit_is_canonical_and_sorted():
    text = emit_spec(tiny_qcfa())
    assert text == emit_spec(parse_spec(text))
    keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
    assert keys == sorted(keys)


def test_parse_rejects_invalid_json_with_position():
    with pytest.raises(SpecFormatError, match="line 1"):
        parse_spec("{")


def test_parse_reports_missing_rejecting_state():
    import json

    doc = json.loads(emit_spec(tiny_qcfa()))
    doc["states"]["reject"] = None
    with pytest.raises(SpecFormatError, match="missing rejecting state"):
        parse_spec(json.dumps(doc))


def test_parse_rejects_zero_denominator():
    import json

    doc = json.loads(emit_spec(fair_coin_pfa()))
    doc["stochastic_delta"]["a"]["rows"][0][0] = "1/0"
    with pytest.raises(SpecFormatError, match="malformed"):
        parse_spec(json.dumps(doc))


def test_parse_rejects_unknown_action_kind():
    import json

    doc = json.loads(emit_spec(tiny_qcfa()))
    doc["quantum_delta"]["s1"]["a"] = {"kind": "mystery"}
    with pytest.raises(SpecFormatError, match="unknown quantum action kind"):
        parse_spec(json.dumps(doc))
