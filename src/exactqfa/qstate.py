"""Exact finite-dimensional quantum states, operators, and measurements.

Vectors and matrices hold GaussianRational entries, so unitarity checks,
inner products, and measurement probabilities are all big-integer exact.
Projective measurement returns one branch per outcome with a probability
that is relative to the squared norm of the measured vector; this keeps
the semantics correct for unnormalized vectors, which arise whenever a
post-measurement state has an irrational norm and cannot be rescaled
inside the Gaussian rational field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .exactnum import (
    GR_ONE,
    GR_ZERO,
    ZERO_ANGLE,
    ExactnessError,
    GaussianRational,
    SymbolicAngle,
    angle_probability,
    cos_sin_exact,
    dyadic_pi,
    format_gaussian,
    is_perfect_square,
    parse_gaussian,
    prob_complement,
    sqrt_exact,
)

EntryLike = Union[GaussianRational, Fraction, int]


def _as_gaussian(value: EntryLike) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(Fraction(value), Fraction(0))


@dataclass(frozen=True)
class QVector:
    """Column vector over the Gaussian rationals."""

    amplitudes: "tuple[GaussianRational, ...]"

    def __hash__(self) -> int:
        # Runners look registers up in dicts on every square; amplitudes
        # never change, so the dataclass hash is computed once and kept.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash((self.amplitudes,))
        return cached

    @staticmethod
    def from_entries(entries: Iterable[EntryLike]) -> "QVector":
        return QVector(tuple(_as_gaussian(e) for e in entries))

    @staticmethod
    def basis(dim: int, index: int) -> "QVector":
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dimension {dim}")
        return QVector(tuple(GR_ONE if i == index else GR_ZERO for i in range(dim)))

    @staticmethod
    def zero(dim: int) -> "QVector":
        return QVector((GR_ZERO,) * dim)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def __add__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(tuple(a + b for a, b in zip(self.amplitudes, other.amplitudes)))

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(tuple(a - b for a, b in zip(self.amplitudes, other.amplitudes)))

    def scale(self, factor: EntryLike) -> "QVector":
        g = _as_gaussian(factor)
        return QVector(tuple(a * g for a in self.amplitudes))

    def inner(self, other: "QVector") -> GaussianRational:
        """Hermitian inner product, conjugate-linear in self."""
        self._check_dim(other)
        total = GR_ZERO
        for a, b in zip(self.amplitudes, other.amplitudes):
            total = total + a.conjugate() * b
        return total

    def norm2(self) -> Fraction:
        """Exact squared Euclidean norm."""
        return sum((a.abs2() for a in self.amplitudes), Fraction(0))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.amplitudes)

    def kron(self, other: "QVector") -> "QVector":
        return QVector(tuple(a * b for a in self.amplitudes for b in other.amplitudes))

    def to_json(self) -> "list[str]":
        return [format_gaussian(a) for a in self.amplitudes]

    @staticmethod
    def from_json(doc: "list[str]") -> "QVector":
        return QVector(tuple(parse_gaussian(t) for t in doc))

    def _check_dim(self, other: "QVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


def canonical_phase(vector: QVector) -> QVector:
    """Fix the global phase: multiply by a unit in {1, -1, i, -i} so the
    first nonzero amplitude has a positive real part (or zero real part
    and positive imaginary part). States differing only by such a phase
    are physically identical, so simulation branches in canonical phase
    merge instead of proliferating."""
    for amp in vector.amplitudes:
        if amp.is_zero():
            continue
        if amp.re > 0:
            return vector
        if amp.re < 0:
            return vector.scale(GaussianRational(Fraction(-1)))
        unit = GaussianRational(Fraction(0), Fraction(-1 if amp.im > 0 else 1))
        return QVector(tuple(a * unit for a in vector.amplitudes))
    return vector


def renormalize_exact(vector: QVector) -> "tuple[QVector, bool]":
    """Rescale to unit norm when the squared norm is a rational square.

    Returns (vector, True) on success and (vector unchanged, False) when
    the norm is irrational or zero; callers then carry the raw projection
    and later probabilities stay correct because measurement divides by
    the current squared norm. Either way the result is phase-canonical
    (see canonical_phase).
    """
    n2 = vector.norm2()
    if n2 == 0:
        return vector, False
    if n2 == 1:
        return canonical_phase(vector), True
    if not is_perfect_square(n2):
        return canonical_phase(vector), False
    inv = 1 / sqrt_exact(n2)
    return canonical_phase(vector.scale(inv)), True


@dataclass(frozen=True)
class QMatrix:
    """Square or rectangular matrix over the Gaussian rationals."""

    rows: "tuple[tuple[GaussianRational, ...], ...]"

    @staticmethod
    def from_rows(rows: Sequence[Sequence[EntryLike]]) -> "QMatrix":
        built = tuple(tuple(_as_gaussian(e) for e in row) for row in rows)
        if built and any(len(r) != len(built[0]) for r in built):
            raise ValueError("ragged matrix rows")
        return QMatrix(built)

    @staticmethod
    def identity(dim: int) -> "QMatrix":
        return QMatrix(
            tuple(
                tuple(GR_ONE if i == j else GR_ZERO for j in range(dim))
                for i in range(dim)
            )
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def apply(self, vector: QVector) -> QVector:
        if self.ncols != vector.dim:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} on dim {vector.dim}")
        out = []
        for row in self.rows:
            acc = GR_ZERO
            for entry, amp in zip(row, vector.amplitudes):
                if not entry.is_zero():
                    acc = acc + entry * amp
            out.append(acc)
        return QVector(tuple(out))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        cols = other.ncols
        out = []
        for row in self.rows:
            new_row = []
            for j in range(cols):
                acc = GR_ZERO
                for k, entry in enumerate(row):
                    if not entry.is_zero():
                        acc = acc + entry * other.rows[k][j]
                new_row.append(acc)
            out.append(tuple(new_row))
        return QMatrix(tuple(out))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return QMatrix(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + other.scale(Fraction(-1))

    def scale(self, factor: EntryLike) -> "QMatrix":
        g = _as_gaussian(factor)
        return QMatrix(tuple(tuple(e * g for e in row) for row in self.rows))

    def conj_transpose(self) -> "QMatrix":
        return QMatrix(
            tuple(
                tuple(self.rows[i][j].conjugate() for i in range(self.nrows))
                for j in range(self.ncols)
            )
        )

    def kron(self, other: "QMatrix") -> "QMatrix":
        out = []
        for r1 in self.rows:
            for r2 in other.rows:
                out.append(tuple(a * b for a in r1 for b in r2))
        return QMatrix(tuple(out))

    def is_unitary(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return self.conj_transpose() @ self == QMatrix.identity(self.nrows)

    def to_json(self) -> "list[list[str]]":
        return [[format_gaussian(e) for e in row] for row in self.rows]

    @staticmethod
    def from_json(doc: "list[list[str]]") -> "QMatrix":
        return QMatrix(tuple(tuple(parse_gaussian(t) for t in row) for row in doc))


@dataclass(frozen=True)
class MeasurementBranch:
    """One outcome of a projective measurement on a concrete vector."""

    outcome: str
    vector: QVector
    probability: Fraction
    renormalized: bool


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Measurement that partitions the computational basis indices.

    Each outcome owns a disjoint set of coordinates; outcome probability
    for vector v is ||P v||^2 / ||v||^2 with P the coordinate projector.
    The outcome sets must cover every index exactly once so that
    probabilities always sum to one.
    """

    outcomes: "tuple[tuple[str, frozenset[int]], ...]"
    dim: int

    @staticmethod
    def from_partition(dim: int, parts: "dict[str, Iterable[int]]") -> "ProjectiveMeasurement":
        outcomes = tuple(sorted(((label, frozenset(ix)) for label, ix in parts.items())))
        seen: "set[int]" = set()
        for _, indices in outcomes:
            if not indices <= set(range(dim)):
                raise ValueError("measurement indices out of range")
            if seen & indices:
                raise ValueError("measurement outcome sets overlap")
            seen |= indices
        if seen != set(range(dim)):
            raise ValueError("measurement outcome sets must cover every index")
        return ProjectiveMeasurement(outcomes, dim)

    def measure(self, vector: QVector) -> "list[MeasurementBranch]":
        if vector.dim != self.dim:
            raise ValueError(f"vector dim {vector.dim} != measurement dim {self.dim}")
        total = vector.norm2()
        if total == 0:
            raise ValueError("cannot measure the zero vector")
        branches = []
        for label, indices in self.outcomes:
            projected = QVector(
                tuple(
                    amp if i in indices else GR_ZERO
                    for i, amp in enumerate(vector.amplitudes)
                )
            )
            mass = projected.norm2()
            if mass == 0:
                continue
            scaled, ok = renormalize_exact(projected)
            branches.append(MeasurementBranch(label, scaled, mass / total, ok))
        return branches

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "outcomes": {label: sorted(ix) for label, ix in self.outcomes},
        }

    @staticmethod
    def from_json(doc: dict) -> "ProjectiveMeasurement":
        return ProjectiveMeasurement.from_partition(doc["dim"], doc["outcomes"])


@dataclass(frozen=True)
class RotationRegister:
    """Single qubit cos(angle)|0> + sin(angle)|1> with a symbolic angle.

    This register kind exists because the constructions rotate by angles
    (multiples of sqrt(2)*pi, or pi over a power of two) whose rotation
    matrices have no Gaussian rational entries. The angle is tracked
    symbolically; probabilities are extracted exactly when the angle is a
    half-integer multiple of pi and as certified intervals otherwise.
    """

    angle: SymbolicAngle

    def rotated(self, delta: SymbolicAngle) -> "RotationRegister":
        return RotationRegister(self.angle + delta)

    def is_exact(self) -> bool:
        """True when cos and sin of the angle are exactly known (in {-1,0,1})."""
        try:
            cos_sin_exact(self.angle)
        except ExactnessError:
            return False
        return True

    def exact_vector(self) -> QVector:
        """The state as a 2-dim vector; requires an exactly known angle."""
        c, s = cos_sin_exact(self.angle)
        return QVector.from_entries([c, s])

    def outcome_probabilities(self, precision_bits: int = 64):
        """(P(observe |0>), P(observe |1>)) as exact or interval values."""
        p_one = angle_probability(self.angle, precision_bits)
        return prob_complement(p_one), p_one


# Canonical post-measurement registers: |0> has angle 0, |1> has angle
# pi/2. Signs dropped by this normalization never matter because every
# probability downstream is a squared amplitude.
ROTATION_AT_ZERO = RotationRegister(ZERO_ANGLE)
ROTATION_AT_ONE = RotationRegister(dyadic_pi(Fraction(1, 2)))
