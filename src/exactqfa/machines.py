"""Machine descriptions for the automaton families the simulator executes.

One unified MachineSpec covers every model class (measure-once QFA,
realtime QCFA, restarting realtime QCFA, sweeping two-way QCFA, general
two-way QCFA, realtime PFA, realtime DFA). A spec carries a quantum
register of one of three kinds:

* "matrix": a d-dimensional register over Gaussian rationals, driven by
  unitary matrices and computational-basis measurements;
* "rotation": a single qubit whose state is cos(angle)|0> + sin(angle)|1>
  for a symbolically tracked angle, driven by angle additions; and
* "classical": no quantum register (PFA/DFA), dimension 1.

Per input square the machine performs one quantum action (an optional
unitary followed by an optional measurement; a bare unitary or rotation
reports the fixed outcome "1"), then a classical transition keyed on
(state, symbol, outcome) selects the next classical state and a head
move. A missing quantum entry means identity evolution with outcome "1".
Halting happens by entering the accept, reject, or don't-know state; a
restarting machine may instead route a right-end-marker outcome to the
reserved target "restart", which begins the next round. A realtime PFA
reads the whole tape and decides by the state it holds after the right
end-marker; a halting state absorbs only if its matrix rows make it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Union

from .exactnum import Document, SymbolicAngle, parse_rational
from .qstate import ProjectiveMeasurement, QMatrix

LEFT_MARKER = "¢"
RIGHT_MARKER = "$"

MOVE_LEFT = "L"
MOVE_STAY = "S"
MOVE_RIGHT = "R"
MOVES = (MOVE_LEFT, MOVE_STAY, MOVE_RIGHT)

MODEL_MCQFA = "MCQFA"
MODEL_RTQCFA = "rtQCFA"
MODEL_RESTARTING = "RestartingRtQCFA"
MODEL_SWEEPING = "Sweeping2QCFA"
MODEL_RTPFA = "rtPFA"
MODEL_RTDFA = "rtDFA"
MODEL_CLASSES = (
    MODEL_MCQFA,
    MODEL_RTQCFA,
    MODEL_RESTARTING,
    MODEL_SWEEPING,
    MODEL_RTPFA,
    MODEL_RTDFA,
)
REALTIME_CLASSES = (MODEL_MCQFA, MODEL_RTQCFA, MODEL_RESTARTING, MODEL_RTPFA, MODEL_RTDFA)

REGISTER_MATRIX = "matrix"
REGISTER_ROTATION = "rotation"
REGISTER_CLASSICAL = "classical"
REGISTERS = (REGISTER_MATRIX, REGISTER_ROTATION, REGISTER_CLASSICAL)

# Reserved classical target: begin the next round of a restarting machine.
RESTART_TARGET = "restart"

UNIT_OUTCOME = "1"


class SpecFormatError(ValueError):
    """Raised when a machine-spec document cannot be parsed."""


@dataclass(frozen=True)
class UnitaryAction:
    """Apply a unitary to the matrix register; outcome is fixed to "1"."""

    matrix: QMatrix


@dataclass(frozen=True)
class MeasureAction:
    """Optionally apply a unitary, then measure in the computational basis."""

    measurement: ProjectiveMeasurement
    pre: Optional[QMatrix] = None


@dataclass(frozen=True)
class RotateAction:
    """Add an angle to the rotation register; outcome is fixed to "1"."""

    angle: SymbolicAngle


@dataclass(frozen=True)
class MeasureRotationAction:
    """Measure the rotation qubit in the computational basis.

    Outcomes are "1" (the |0> axis) and "2" (the |1> axis). An optional
    2x2 pre-unitary is applied first; using one requires the register to
    be in an exactly known state at that moment, which the simulator
    checks at run time.
    """

    pre: Optional[QMatrix] = None


QuantumAction = Union[UnitaryAction, MeasureAction, RotateAction, MeasureRotationAction]


@dataclass(frozen=True)
class ClassicalStep:
    """Result of a classical transition: next state and head move."""

    state: str
    move: str


@dataclass(frozen=True)
class StochasticMatrix(Document):
    """Row-stochastic transition matrix over an ordered classical state list."""

    order: "tuple[str, ...]"
    rows: "tuple[tuple[Fraction, ...], ...]"

    def __post_init__(self) -> None:
        n = len(self.order)
        if len(set(self.order)) != n:
            raise ValueError(f"stochastic matrix state order repeats a state: {list(self.order)}")
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("stochastic matrix shape does not match state order")
        for state, row in zip(self.order, self.rows):
            if any(p < 0 for p in row):
                raise ValueError(f"negative transition probability from {state}")
            if sum(row) != 1:
                raise ValueError(f"row for {state} does not sum to 1")

    @staticmethod
    def from_json(doc: dict) -> "StochasticMatrix":
        return StochasticMatrix(
            tuple(doc["order"]),
            tuple(tuple(parse_rational(p) for p in row) for row in doc["rows"]),
        )


@dataclass(frozen=True)
class MachineSpec:
    """Complete description of one automaton.

    ``quantum_delta`` maps (classical state, symbol) to a QuantumAction;
    a missing entry means identity evolution with outcome "1".
    ``classical_delta`` maps (classical state, symbol, outcome) to a
    ClassicalStep. ``stochastic_delta`` replaces both for the rtPFA
    class, giving one stochastic matrix per symbol (markers included).
    Mappings are treated as immutable after construction.
    """

    name: str
    model_class: str
    register: str
    quantum_dim: int
    states: "frozenset[str]"
    initial_state: str
    accept_state: str
    reject_state: str
    dont_know_state: Optional[str]
    alphabet: "tuple[str, ...]"
    quantum_delta: "Mapping[tuple[str, str], QuantumAction]" = field(default_factory=dict)
    classical_delta: "Mapping[tuple[str, str, str], ClassicalStep]" = field(default_factory=dict)
    stochastic_delta: "Optional[Mapping[str, StochasticMatrix]]" = None

    @property
    def halting_states(self) -> "frozenset[str]":
        out = {self.accept_state, self.reject_state}
        if self.dont_know_state is not None:
            out.add(self.dont_know_state)
        return frozenset(out)

    @property
    def tape_symbols(self) -> "tuple[str, ...]":
        return (LEFT_MARKER,) + self.alphabet + (RIGHT_MARKER,)

    def is_realtime(self) -> bool:
        return self.model_class in REALTIME_CLASSES

    def outcome_labels(self, action: Optional[QuantumAction]) -> "tuple[str, ...]":
        if action is None or isinstance(action, (UnitaryAction, RotateAction)):
            return (UNIT_OUTCOME,)
        if isinstance(action, MeasureAction):
            return tuple(label for label, _ in action.measurement.outcomes)
        return ("1", "2")


def validate(spec: MachineSpec) -> "list[str]":
    """Check every structural invariant; return one message per violation.

    An empty list means the machine description is well formed. Reachability and
    completeness of transitions are run-time concerns (machines are
    partial outside the promise), so they are not checked here.
    """
    v: "list[str]" = []
    if spec.model_class not in MODEL_CLASSES:
        v.append(f"unknown model class {spec.model_class!r}")
        return v
    if spec.register not in REGISTERS:
        v.append(f"unknown register kind {spec.register!r}")
        return v

    if spec.accept_state == spec.reject_state:
        v.append("accept and reject states must differ")
    named = {spec.initial_state, spec.accept_state, spec.reject_state}
    if spec.dont_know_state is not None:
        named.add(spec.dont_know_state)
    for s in sorted(named):
        if s not in spec.states:
            v.append(f"named state {s!r} missing from state set")
    if RESTART_TARGET in spec.states:
        v.append(f"state name {RESTART_TARGET!r} is reserved")
    for sym in spec.alphabet:
        if sym in (LEFT_MARKER, RIGHT_MARKER):
            v.append(f"alphabet must not contain the end-marker {sym!r}")

    if spec.register == REGISTER_CLASSICAL and spec.quantum_dim != 1:
        v.append("classical register requires quantum_dim 1")
    if spec.register == REGISTER_ROTATION and spec.quantum_dim != 2:
        v.append("rotation register requires quantum_dim 2")

    if spec.model_class == MODEL_RTPFA:
        v.extend(_validate_pfa(spec))
        return v
    if spec.stochastic_delta:
        v.append("stochastic_delta is only valid for the rtPFA class")
    if spec.model_class == MODEL_RTDFA and spec.register != REGISTER_CLASSICAL:
        v.append("rtDFA requires a classical register")
    if spec.model_class not in (MODEL_RTDFA, MODEL_RTPFA) and spec.register == REGISTER_CLASSICAL:
        v.append(f"{spec.model_class} requires a quantum register")

    tape = set(spec.tape_symbols)
    halting = spec.halting_states
    for (state, sym), action in spec.quantum_delta.items():
        where = f"({state!r}, {sym!r})"
        if state not in spec.states:
            v.append(f"quantum_delta {where}: unknown state")
        if state in halting:
            v.append(f"quantum_delta {where}: no transitions from a halting state")
        if sym not in tape:
            v.append(f"quantum_delta {where}: symbol outside tape alphabet")
        v.extend(f"quantum_delta {where}: {msg}" for msg in _validate_action(spec, action))

    for (state, sym, outcome), step in spec.classical_delta.items():
        where = f"({state!r}, {sym!r}, {outcome!r})"
        if state not in spec.states:
            v.append(f"classical_delta {where}: unknown state")
        if state in halting:
            v.append(f"classical_delta {where}: no transitions from a halting state")
        if sym not in tape:
            v.append(f"classical_delta {where}: symbol outside tape alphabet")
        labels = spec.outcome_labels(spec.quantum_delta.get((state, sym)))
        if outcome not in labels:
            v.append(f"classical_delta {where}: outcome not produced by the quantum action")
        if step.state == RESTART_TARGET:
            if spec.model_class != MODEL_RESTARTING:
                v.append(f"classical_delta {where}: restart outside a restarting machine")
            if sym != RIGHT_MARKER:
                v.append(f"classical_delta {where}: restart is only allowed on {RIGHT_MARKER!r}")
        elif step.state not in spec.states:
            v.append(f"classical_delta {where}: unknown target state {step.state!r}")
        if step.move not in MOVES:
            v.append(f"classical_delta {where}: unknown move {step.move!r}")
        elif spec.is_realtime() and step.move != MOVE_RIGHT:
            v.append(f"classical_delta {where}: realtime machines may only move right")
        elif spec.model_class == MODEL_SWEEPING and step.move == MOVE_STAY:
            if sym not in (LEFT_MARKER, RIGHT_MARKER):
                v.append(f"classical_delta {where}: sweeping machines may stay only on end-markers")
        if spec.is_realtime() and sym == RIGHT_MARKER:
            if step.state not in halting and step.state != RESTART_TARGET:
                v.append(f"classical_delta {where}: right end-marker must halt or restart")

    # Every declared measurement outcome needs a classical follow-up.
    for (state, sym), action in spec.quantum_delta.items():
        for label in spec.outcome_labels(action):
            if (state, sym, label) not in spec.classical_delta:
                v.append(
                    f"quantum_delta ({state!r}, {sym!r}): outcome {label!r} has no classical transition"
                )

    if spec.model_class == MODEL_MCQFA:
        for (state, sym), action in spec.quantum_delta.items():
            if sym != RIGHT_MARKER and isinstance(action, (MeasureAction, MeasureRotationAction)):
                v.append(
                    f"quantum_delta ({state!r}, {sym!r}): measure-once machines measure only on {RIGHT_MARKER!r}"
                )
    return v


def _validate_action(spec: MachineSpec, action: QuantumAction) -> "list[str]":
    v: "list[str]" = []
    if isinstance(action, (UnitaryAction, MeasureAction)):
        if spec.register != REGISTER_MATRIX:
            return [f"matrix action on a {spec.register} register"]
        matrices = []
        if isinstance(action, UnitaryAction):
            matrices.append(action.matrix)
        else:
            if action.pre is not None:
                matrices.append(action.pre)
            if action.measurement.dim != spec.quantum_dim:
                v.append("measurement dimension mismatch")
        for m in matrices:
            if m.nrows != spec.quantum_dim or m.ncols != spec.quantum_dim:
                v.append("matrix dimension mismatch")
            elif not m.is_unitary():
                v.append("matrix is not unitary")
        return v
    if spec.register != REGISTER_ROTATION:
        return [f"rotation action on a {spec.register} register"]
    if isinstance(action, MeasureRotationAction) and action.pre is not None:
        if action.pre.nrows != 2 or action.pre.ncols != 2:
            v.append("pre-unitary must be 2x2")
        elif not action.pre.is_unitary():
            v.append("pre-unitary is not unitary")
    return v


def _validate_pfa(spec: MachineSpec) -> "list[str]":
    v: "list[str]" = []
    if spec.register != REGISTER_CLASSICAL:
        v.append("rtPFA requires a classical register")
    if spec.quantum_delta or spec.classical_delta:
        v.append("rtPFA uses stochastic_delta only")
    if not spec.stochastic_delta:
        v.append("rtPFA requires stochastic_delta")
        return v
    tape = set(spec.tape_symbols)
    for sym, matrix in spec.stochastic_delta.items():
        if sym not in tape:
            v.append(f"stochastic_delta {sym!r}: symbol outside tape alphabet")
        if set(matrix.order) != spec.states:
            v.append(f"stochastic_delta {sym!r}: state order does not cover the state set")
    for sym in spec.tape_symbols:
        if sym not in spec.stochastic_delta:
            v.append(f"stochastic_delta missing symbol {sym!r}")
    return v


def _action_to_json(action: QuantumAction) -> dict:
    if isinstance(action, UnitaryAction):
        return {"kind": "unitary", "matrix": action.matrix.to_json()}
    if isinstance(action, MeasureAction):
        return {
            "kind": "measure",
            "partition": {label: sorted(ix) for label, ix in action.measurement.outcomes},
            "pre": None if action.pre is None else action.pre.to_json(),
        }
    if isinstance(action, RotateAction):
        return {"angle": action.angle.to_json(), "kind": "rotate"}
    return {
        "kind": "measure_rotation",
        "pre": None if action.pre is None else action.pre.to_json(),
    }


def _action_from_json(doc: dict, quantum_dim: int) -> QuantumAction:
    kind = doc.get("kind")
    if kind == "unitary":
        return UnitaryAction(QMatrix.from_json(doc["matrix"]))
    if kind == "measure":
        meas = ProjectiveMeasurement.from_partition(quantum_dim, doc["partition"])
        pre = doc.get("pre")
        return MeasureAction(meas, None if pre is None else QMatrix.from_json(pre))
    if kind == "rotate":
        return RotateAction(SymbolicAngle.from_json(doc["angle"]))
    if kind == "measure_rotation":
        pre = doc.get("pre")
        return MeasureRotationAction(None if pre is None else QMatrix.from_json(pre))
    raise SpecFormatError(f"unknown quantum action kind {kind!r}")


def emit_spec(spec: MachineSpec) -> str:
    """Serialize to the canonical JSON document (alphabetical keys)."""
    quantum: "dict[str, dict[str, dict]]" = {}
    for (state, sym), action in spec.quantum_delta.items():
        quantum.setdefault(state, {})[sym] = _action_to_json(action)
    classical: "dict[str, dict[str, dict[str, dict]]]" = {}
    for (state, sym, outcome), step in spec.classical_delta.items():
        classical.setdefault(state, {}).setdefault(sym, {})[outcome] = {
            "move": step.move,
            "state": step.state,
        }
    doc = {
        "alphabet": list(spec.alphabet),
        "classical_delta": classical,
        "model_class": spec.model_class,
        "name": spec.name,
        "quantum_delta": quantum,
        "quantum_dim": spec.quantum_dim,
        "register": spec.register,
        "states": {
            "accept": spec.accept_state,
            "all": sorted(spec.states),
            "dont_know": spec.dont_know_state,
            "initial": spec.initial_state,
            "reject": spec.reject_state,
        },
        "stochastic_delta": None
        if spec.stochastic_delta is None
        else {sym: m.to_json() for sym, m in spec.stochastic_delta.items()},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_spec(text: str) -> MachineSpec:
    """Parse the canonical JSON document; inverse of emit_spec."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise SpecFormatError("machine-spec document must be a JSON object")
    try:
        states_doc = doc["states"]
        for role in ("initial", "accept", "reject"):
            if states_doc.get(role) is None:
                raise SpecFormatError(f"missing {_ROLE_NAMES[role]} state")
        quantum_dim = int(doc["quantum_dim"])
        quantum: "dict[tuple[str, str], QuantumAction]" = {}
        for state, per_sym in doc.get("quantum_delta", {}).items():
            for sym, action_doc in per_sym.items():
                quantum[(state, sym)] = _action_from_json(action_doc, quantum_dim)
        classical: "dict[tuple[str, str, str], ClassicalStep]" = {}
        for state, per_sym in doc.get("classical_delta", {}).items():
            for sym, per_outcome in per_sym.items():
                for outcome, step in per_outcome.items():
                    classical[(state, sym, outcome)] = ClassicalStep(step["state"], step["move"])
        stochastic_doc = doc.get("stochastic_delta")
        stochastic = (
            None
            if stochastic_doc is None
            else {sym: StochasticMatrix.from_json(m) for sym, m in stochastic_doc.items()}
        )
        return MachineSpec(
            name=doc["name"],
            model_class=doc["model_class"],
            register=doc["register"],
            quantum_dim=quantum_dim,
            states=frozenset(states_doc["all"]),
            initial_state=states_doc["initial"],
            accept_state=states_doc["accept"],
            reject_state=states_doc["reject"],
            dont_know_state=states_doc.get("dont_know"),
            alphabet=tuple(doc["alphabet"]),
            quantum_delta=quantum,
            classical_delta=classical,
            stochastic_delta=stochastic,
        )
    except SpecFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed machine-spec document: {exc}")


_ROLE_NAMES = {"initial": "initial", "accept": "accepting", "reject": "rejecting"}
