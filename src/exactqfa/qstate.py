"""Exact finite-dimensional quantum states, operators, and measurements.

A vector is stored fraction-free: one integer (re, im) pair per
coordinate over a single positive common denominator, reduced so that
equal vectors have equal representations. Matrices hold GaussianRational
entries and compile their unitary on first use: one straight-line
function over the entries as integers on one common denominator, kept on
the matrix. So applying a matrix or measuring a vector is integer
arithmetic with one gcd per result, and unitarity checks, inner
products, and measurement probabilities are all big-integer exact.
Projective measurement gives one branch per outcome of nonzero mass,
with its mass relative to the squared norm of the measured vector; this
keeps the semantics correct for unnormalized vectors, which arise
whenever a post-measurement state has an irrational norm and cannot be
rescaled inside the Gaussian rational field.

The runners in ``analysis`` build on this: they read a measurement as
integer masses over one total (``ProjectiveMeasurement.split``), and
every exact run carries its weights as integers over one denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from types import CodeType
from typing import Callable, Iterable, Optional, Sequence, Union

from .exactnum import (
    GR_ONE,
    GR_ZERO,
    ZERO_ANGLE,
    GaussianRational,
    SymbolicAngle,
    angle_probability,
    cos_sin_exact,
    dyadic_pi,
    format_gaussian,
    parse_gaussian,
    prob_complement,
    quarter_turns,
)

EntryLike = Union[GaussianRational, Fraction, int]


def _as_gaussian(value: EntryLike) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(Fraction(value), Fraction(0))


def _common_den(values: "Sequence[GaussianRational]") -> int:
    return math.lcm(*(x.denominator for v in values for x in (v.re, v.im)))


def _pair(value: GaussianRational, den: int) -> "tuple[int, int]":
    """(re, im) of value * den as integers; den must be a common denominator."""
    re, im = value.re, value.im
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)


class QVector:
    """Column vector over the Gaussian rationals, stored fraction-free.

    ``nums`` holds one integer (re, im) pair per coordinate and ``den`` a
    positive common denominator, with no prime dividing ``den`` and every
    numerator. That form is unique, so equality and hashing compare
    integers only.
    """

    __slots__ = ("den", "nums", "_hash")

    def __init__(self, amplitudes: Iterable[EntryLike]) -> None:
        amps = tuple(_as_gaussian(a) for a in amplitudes)
        # The least common denominator of reduced entries is already in
        # lowest terms with their scaled numerators.
        den = _common_den(amps)
        self.den = den
        self.nums = tuple(_pair(a, den) for a in amps)
        self._hash = None

    @classmethod
    def _make(cls, den: int, nums: "tuple[tuple[int, int], ...]") -> "QVector":
        """Wrap an already reduced representation."""
        vec = object.__new__(cls)
        vec.den = den
        vec.nums = nums
        vec._hash = None
        return vec

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QVector):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        # Runners look registers up in dicts on every square, so the hash
        # is computed once and kept.
        cached = self._hash
        if cached is None:
            cached = self._hash = hash((self.den, self.nums))
        return cached

    def __repr__(self) -> str:
        return f"QVector(den={self.den}, nums={self.nums})"

    @staticmethod
    def basis(dim: int, index: int) -> "QVector":
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dimension {dim}")
        return QVector._make(1, tuple((1, 0) if i == index else (0, 0) for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.nums)

    def __add__(self, other: "QVector") -> "QVector":
        return self._combine(other, 1)

    def __sub__(self, other: "QVector") -> "QVector":
        return self._combine(other, -1)

    def _combine(self, other: "QVector", sign: int) -> "QVector":
        self._check_dim(other)
        d1, d2 = self.den, other.den
        e1, e2 = d2, sign * d1
        return _reduced(
            d1 * d2,
            [(a * e1 + c * e2, b * e1 + d * e2) for (a, b), (c, d) in zip(self.nums, other.nums)],
        )

    def scale(self, factor: EntryLike) -> "QVector":
        g = _as_gaussian(factor)
        fden = _common_den((g,))
        c, d = _pair(g, fden)
        return _reduced(self.den * fden, [(a * c - b * d, a * d + b * c) for a, b in self.nums])

    def inner(self, other: "QVector") -> GaussianRational:
        """Hermitian inner product, conjugate-linear in self."""
        self._check_dim(other)
        re = im = 0
        for (a, b), (c, d) in zip(self.nums, other.nums):
            re += a * c + b * d
            im += a * d - b * c
        den = self.den * other.den
        return GaussianRational(Fraction(re, den), Fraction(im, den))

    def norm2(self) -> Fraction:
        """Exact squared Euclidean norm."""
        return Fraction(sum(a * a + b * b for a, b in self.nums), self.den * self.den)

    def is_zero(self) -> bool:
        return not any(a or b for a, b in self.nums)

    def _check_dim(self, other: "QVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


def _reduced(den: int, nums: "Sequence[tuple[int, int]]") -> QVector:
    """The vector nums / den in lowest terms; den must be positive."""
    g = math.gcd(den, *chain.from_iterable(nums))
    if g == 1:
        return QVector._make(den, tuple(nums))
    return QVector._make(den // g, tuple((a // g, b // g) for a, b in nums))


def canonical_phase(vector: QVector) -> QVector:
    """Fix the global phase: multiply by a unit in {1, -1, i, -i} so the
    first nonzero amplitude has a positive real part (or zero real part
    and positive imaginary part). States differing only by such a phase
    are physically identical, so simulation branches in canonical phase
    merge instead of proliferating."""
    for re, im in vector.nums:
        if re > 0:
            return vector
        if re < 0:
            nums = tuple((-a, -b) for a, b in vector.nums)
        elif im > 0:
            nums = tuple((b, -a) for a, b in vector.nums)  # times -i
        elif im < 0:
            nums = tuple((-b, a) for a, b in vector.nums)  # times i
        else:
            continue
        return QVector._make(vector.den, nums)
    return vector


def _compile_apply(matrix: "QMatrix") -> "Callable[[QVector], QVector]":
    """One straight-line function that applies ``matrix`` to a vector.

    The entries are scaled to integers over their common denominator D.
    The function unpacks each coordinate pair (x, y) of the input into
    locals and computes, per output coordinate, re = sum(a*x - b*y) and
    im = sum(a*y + b*x) over the nonzero entries a + bi of its row, with
    the b terms only where b is nonzero and a factor of 1 left out. Then
    it divides out the gcd of D times the input's denominator and the
    outputs. The integers are bound as arguments of a factory the
    generated source defines, never written into it, so the source holds
    only generated names and operators.
    """
    rows = matrix.rows
    den = _common_den([e for row in rows for e in row])
    names: "dict[int, str]" = {}

    def term(k: int, var: str) -> str:
        magnitude = abs(k)
        if magnitude == 1:
            body = var
        else:
            name = names.get(magnitude)
            if name is None:
                name = names[magnitude] = f"k{len(names)}"
            body = f"{name}*{var}"
        return f"-{body}" if k < 0 else f"+{body}"

    def total(terms: "list[str]") -> str:
        return " ".join(terms).lstrip("+") if terms else "0"

    body = []
    for i, row in enumerate(rows):
        re_terms, im_terms = [], []
        for j, entry in enumerate(row):
            if entry.is_zero():
                continue
            a, b = _pair(entry, den)
            if a:
                re_terms.append(term(a, f"x{j}"))
                im_terms.append(term(a, f"y{j}"))
            if b:
                re_terms.append(term(-b, f"y{j}"))
                im_terms.append(term(b, f"x{j}"))
        body.append(f"r{i} = {total(re_terms)}")
        body.append(f"i{i} = {total(im_terms)}")
    targets = ", ".join(f"(x{j}, y{j})" for j in range(matrix.ncols))
    outputs = [(f"r{i}", f"i{i}") for i in range(len(rows))]
    flat = "".join(f", {r}, {m}" for r, m in outputs)
    whole = "".join(f"({r}, {m}), " for r, m in outputs)
    divided = "".join(f"({r} // g, {m} // g), " for r, m in outputs)
    lines = [
        f"def factory(_make, _gcd, D{''.join(f', {name}' for name in names.values())}):",
        "    def apply(vector):",
        f"        [{targets}] = vector.nums",
        *(f"        {line}" for line in body),
        "        den = D * vector.den",
        f"        g = _gcd(den{flat})",
        "        if g == 1:",
        f"            return _make(den, ({whole}))",
        f"        return _make(den // g, ({divided}))",
        "    return apply",
    ]
    scope: dict = {}
    exec(_compiled_source("\n".join(lines)), scope)
    return scope["factory"](QVector._make, math.gcd, den, *names)


@lru_cache(maxsize=256)
def _compiled_source(source: str) -> CodeType:
    """The code of a generated factory. Matrices with the same pattern of
    zero, unit, real and imaginary entries share their source, so they
    share its code and each pays only for binding its own integers."""
    return compile(source, "<QMatrix.apply>", "exec")


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
        try:
            ncols, kernel = self._compiled
        except AttributeError:
            # Compiled on first use and kept, as the entries never change.
            ncols, kernel = self.__dict__["_compiled"] = (self.ncols, _compile_apply(self))
        if len(vector.nums) != ncols:
            raise ValueError(f"shape mismatch: {self.nrows}x{ncols} on dim {vector.dim}")
        return kernel(vector)
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
        """``split`` with each probability as a Fraction. No runner reads it;
        the benchmark's tracer (``perfbench/tracing.py``) wraps it by name."""
        total, parts = self.split(vector, [label for label, _ in self.outcomes])
        return [
            MeasurementBranch(label, post, Fraction(mass, total), math.isqrt(mass) ** 2 == mass)
            for label, post, mass in parts
        ]

    def split(self, vector: QVector, kept: Iterable[str]) -> "tuple[int, list[tuple[str, Optional[QVector], int]]]":
        """The measurement in integers: (total, [(outcome, post, mass)]),
        one entry per outcome of nonzero mass, whose probability is
        mass/total. Masses are squared norms in units of 1/den^2, so they
        sum to total exactly. Only an outcome in ``kept`` gets its post
        vector; any other outcome's post is None."""
        if vector.dim != self.dim:
            raise ValueError(f"vector dim {vector.dim} != measurement dim {self.dim}")
        nums = vector.nums
        squares = [a * a + b * b for a, b in nums]
        total = sum(squares)
        if total == 0:
            raise ValueError("cannot measure the zero vector")
        parts = []
        for label, indices in self.outcomes:
            mass = sum(squares[i] for i in indices)
            if mass == 0:
                continue
            if label not in kept:
                parts.append((label, None, mass))
                continue
            projected = [pair if i in indices else (0, 0) for i, pair in enumerate(nums)]
            # The projection has squared norm mass / den^2, a rational
            # square exactly when mass is an integer square; rescaled to
            # unit norm its denominator is then the root. Otherwise the
            # raw projection is kept.
            root = math.isqrt(mass)
            post = canonical_phase(_reduced(root if root * root == mass else vector.den, projected))
            parts.append((label, post, mass))
        return total, parts


# The rotation register's state after 0, 1, 2 and 3 quarter turns, built
# once: ``RotationRegister.exact_vector`` runs at every rotation measurement.
_QUARTER_TURN_VECTORS = tuple(QVector(cos_sin_exact(dyadic_pi(Fraction(k, 2)))) for k in range(4))


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

    def __hash__(self) -> int:
        # The fields' hash, kept once made, as QVector keeps its own.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.angle,))
            object.__setattr__(self, "_hash", cached)
        return cached

    def rotated(self, delta: SymbolicAngle) -> "RotationRegister":
        return RotationRegister(self.angle + delta)

    def exact_vector(self) -> QVector:
        """The state as a 2-dim vector; requires an exactly known angle."""
        return _QUARTER_TURN_VECTORS[quarter_turns(self.angle)]

    def outcome_probabilities(self, precision_bits: int = 64):
        """(P(observe |0>), P(observe |1>)) as exact or interval values."""
        p_one = angle_probability(self.angle, precision_bits)
        return prob_complement(p_one), p_one


# Canonical post-measurement registers: |0> has angle 0, |1> has angle
# pi/2. Signs dropped by this normalization never matter because every
# probability downstream is a squared amplitude.
ROTATION_AT_ZERO = RotationRegister(ZERO_ANGLE)
ROTATION_AT_ONE = RotationRegister(dyadic_pi(Fraction(1, 2)))
