"""Exact linear algebra layer: vectors, matrices, projective measurement.

The 3x3 rotation oracles below were verified by hand: the matrices are
integer matrices divided by 5 whose rows are orthonormal, so applying one
to a basis vector just reads off a column divided by 5.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactqfa.exactnum import GR_ZERO, SQRT2_PI, GaussianRational, sqrt2_pi
from exactqfa.qstate import (
    ProjectiveMeasurement,
    QMatrix,
    QVector,
    RotationRegister,
    canonical_phase,
)
from test_exactnum import abs2


def amplitudes(vec: QVector) -> "tuple[GaussianRational, ...]":
    """The entries of ``vec`` as GaussianRationals."""
    return tuple(GaussianRational(Fraction(re, vec.den), Fraction(im, vec.den)) for re, im in vec.nums)

ROT_A = QMatrix.from_rows(
    [
        [Fraction(4, 5), Fraction(3, 5), 0],
        [Fraction(-3, 5), Fraction(4, 5), 0],
        [0, 0, 1],
    ]
)
ROT_B = QMatrix.from_rows(
    [
        [Fraction(4, 5), 0, Fraction(3, 5)],
        [0, 1, 0],
        [Fraction(-3, 5), 0, Fraction(4, 5)],
    ]
)

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=10 ** 4
)
gaussians = st.builds(GaussianRational, rationals, rationals)
vectors3 = st.builds(lambda a, b, c: QVector((a, b, c)), gaussians, gaussians, gaussians)


def test_basis_and_norm() -> None:
    e1 = QVector.basis(3, 0)
    assert e1.norm2() == 1
    with pytest.raises(ValueError):
        QVector.basis(3, 3)


def test_rotation_matrices_are_unitary() -> None:
    assert ROT_A.is_unitary()
    assert ROT_B.is_unitary()
    assert not QMatrix.from_rows([[1, 1], [0, 1]]).is_unitary()
    # Real orthogonal: the conjugate transpose is the exact inverse.
    assert ROT_A.conj_transpose() @ ROT_A == QMatrix.identity(3)


def test_rotation_of_basis_oracle() -> None:
    # Hand oracle: first column of ROT_A is (4/5, -3/5, 0).
    out = ROT_A.apply(QVector.basis(3, 0))
    assert out == QVector([Fraction(4, 5), Fraction(-3, 5), 0])
    assert out.norm2() == 1


def test_measurement_split_oracle() -> None:
    meas = ProjectiveMeasurement.from_partition(3, {"first": [0], "rest": [1, 2]})
    out = ROT_A.apply(QVector.basis(3, 0))
    branches = {b.outcome: b for b in meas.measure(out)}
    # Hand oracle: |4/5|^2 = 16/25 and |-3/5|^2 = 9/25.
    assert branches["first"].probability == Fraction(16, 25)
    assert branches["rest"].probability == Fraction(9, 25)
    assert branches["first"].vector == QVector.basis(3, 0)
    # The raw projection is (0, -3/5, 0); renormalization is canonical in
    # the global phase, so the reported state is +e2.
    assert branches["rest"].vector == QVector.basis(3, 1)
    assert branches["first"].renormalized and branches["rest"].renormalized


def test_measurement_partition_validation() -> None:
    with pytest.raises(ValueError):
        ProjectiveMeasurement.from_partition(3, {"a": [0], "b": [0, 1, 2]})
    with pytest.raises(ValueError):
        ProjectiveMeasurement.from_partition(3, {"a": [0], "b": [1]})
    with pytest.raises(ValueError):
        ProjectiveMeasurement.from_partition(3, {"a": [0, 3], "b": [1, 2]})
    meas = ProjectiveMeasurement.from_partition(2, {"a": [0], "b": [1]})
    with pytest.raises(ValueError):
        meas.measure(QVector([0, 0]))


def test_measurement_drops_impossible_outcomes() -> None:
    meas = ProjectiveMeasurement.from_partition(3, {"one": [0], "two": [1], "three": [2]})
    branches = meas.measure(QVector.basis(3, 1))
    assert len(branches) == 1
    assert branches[0].outcome == "two"
    assert branches[0].probability == 1


def test_measure_renormalizes_exactly_when_the_norm_is_rational() -> None:
    whole = ProjectiveMeasurement.from_partition(3, {"all": [0, 1, 2]})
    [unit] = whole.measure(QVector([Fraction(4, 5), 0, 0]))
    assert unit.renormalized and unit.vector == QVector.basis(3, 0)
    # Squared norm 1/2 is not a rational square: the raw projection stays.
    raw = QVector([Fraction(1, 2), Fraction(1, 2), 0])
    [kept] = whole.measure(raw)
    assert not kept.renormalized and kept.vector == raw and kept.probability == 1
    with pytest.raises(ValueError):
        whole.measure(QVector([0, 0, 0]))


def test_unnormalized_measurement_probabilities() -> None:
    # Probabilities are relative to the current squared norm, so an
    # unnormalized vector still yields a total of one.
    meas = ProjectiveMeasurement.from_partition(3, {"a": [0], "b": [1], "c": [2]})
    vec = QVector([Fraction(1, 2), Fraction(1, 2), 0])
    branches = meas.measure(vec)
    assert sum(b.probability for b in branches) == 1
    assert all(b.probability == Fraction(1, 2) for b in branches)


@given(vectors3, vectors3)
@settings(max_examples=60)
def test_inner_product_conjugate_symmetry(u: QVector, v: QVector) -> None:
    assert u.inner(v) == v.inner(u).conjugate()
    assert u.norm2() == u.inner(u).re
    assert u.inner(u).im == 0


@given(vectors3)
@settings(max_examples=60)
def test_unitary_preserves_norm(v: QVector) -> None:
    assert ROT_A.apply(v).norm2() == v.norm2()
    assert ROT_B.apply(v).norm2() == v.norm2()


@given(vectors3)
@settings(max_examples=60)
def test_measurement_total_probability(v: QVector) -> None:
    if v.norm2() == 0:
        return
    meas = ProjectiveMeasurement.from_partition(3, {"a": [0, 2], "b": [1]})
    assert sum(b.probability for b in meas.measure(v)) == 1


def test_kron_shapes_and_values() -> None:
    x = QMatrix.from_rows([[0, 1], [1, 0]])
    identity2 = QMatrix.identity(2)
    xi = x.kron(identity2)
    assert xi.nrows == xi.ncols == 4
    e0 = QVector.basis(4, 0)
    # (X kron I)|00> = |10>, index 2 in most-significant-first order.
    assert xi.apply(e0) == QVector.basis(4, 2)


def test_matrix_json_round_trip() -> None:
    assert QMatrix.from_json(ROT_A.to_json()) == ROT_A


def test_rotation_registers_hash_their_angle_once(monkeypatch) -> None:
    left = RotationRegister(sqrt2_pi(Fraction(3, 7)))
    right = RotationRegister(sqrt2_pi(1)).rotated(sqrt2_pi(Fraction(-4, 7)))
    assert left == right and left.angle is not right.angle
    # The kept hash is the one a frozen dataclass makes: that of its fields.
    assert hash(left) == hash(right) == hash((left.angle,))
    assert hash(left.angle) == hash(right.angle) == hash((SQRT2_PI, Fraction(3, 7)))
    calls = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda x: calls.append(x) or fraction_hash(x))
    fresh = RotationRegister(sqrt2_pi(Fraction(5, 9)))
    table = {}
    for _ in range(3):
        table[fresh] = table.get(fresh, 0) + 1
    assert table == {RotationRegister(fresh.angle): 3}
    assert calls == [Fraction(5, 9)]


def test_equal_vectors_from_different_routes_hash_equal() -> None:
    half = Fraction(1, 2)
    for cache_first in (None, "left", "right"):
        left = QVector([half, 0, 0])
        right = QVector.basis(3, 0).scale(half)
        if cache_first == "left":
            hash(left)
        elif cache_first == "right":
            hash(right)
        assert left == right and right == left
        assert hash(left) == hash(right)
        assert {left: 1}[right] == 1
    assert QVector.basis(3, 0) != QVector.basis(3, 1)
    # Integer routes: a matrix product and a measurement branch.
    applied = ROT_A.apply(QVector.basis(3, 0))
    built = QVector([Fraction(4, 5), Fraction(-3, 5), 0])
    meas = ProjectiveMeasurement.from_partition(3, {"first": [0], "rest": [1, 2]})
    branches = {b.outcome: b.vector for b in meas.measure(applied)}
    unnormalized = meas.measure(QVector([1, 1, 1]))[1].vector
    for routed, direct in (
        (applied, built),
        (branches["rest"], QVector.basis(3, 1)),
        (unnormalized, QVector([0, 1, 1])),
    ):
        assert routed == direct and hash(routed) == hash(direct)
        assert {direct: 1}[routed] == 1


# Reference register: the GaussianRational loops that QMatrix.apply and
# ProjectiveMeasurement.measure replaced with integer arithmetic. The
# integer register must give equal vectors, probabilities and flags.


def reference_gaussian_apply(matrix: QMatrix, amps):
    out = []
    for row in matrix.rows:
        acc = GR_ZERO
        for entry, amp in zip(row, amps):
            if not entry.is_zero():
                acc = acc + entry * amp
        out.append(acc)
    return tuple(out)


def reference_canonical_phase(amps):
    for amp in amps:
        if amp.is_zero():
            continue
        if amp.re > 0:
            return amps
        if amp.re < 0:
            unit = GaussianRational(Fraction(-1), Fraction(0))
        else:
            unit = GaussianRational(Fraction(0), Fraction(-1 if amp.im > 0 else 1))
        return tuple(a * unit for a in amps)
    return amps


def reference_measure(meas: ProjectiveMeasurement, amps):
    total = sum((abs2(a) for a in amps), Fraction(0))
    branches = []
    for label, indices in meas.outcomes:
        projected = tuple(a if i in indices else GR_ZERO for i, a in enumerate(amps))
        mass = sum((abs2(a) for a in projected), Fraction(0))
        if mass == 0:
            continue
        num, den = mass.numerator, mass.denominator
        ok = math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den
        if ok:
            inv = GaussianRational(Fraction(math.isqrt(den), math.isqrt(num)), Fraction(0))
            projected = tuple(a * inv for a in projected)
        branches.append((label, reference_canonical_phase(projected), mass / total, ok))
    return branches


def assert_measure_matches_reference(meas: ProjectiveMeasurement, vec: QVector) -> None:
    got = [(b.outcome, b.vector, b.probability, b.renormalized) for b in meas.measure(vec)]
    want = reference_measure(meas, amplitudes(vec))
    assert [(o, amplitudes(v), p, ok) for o, v, p, ok in got] == want
    assert [v for _, v, _, _ in got] == [QVector(amps) for _, amps, _, _ in want]


matrices3 = st.builds(
    lambda rows: QMatrix.from_rows(rows),
    st.lists(st.lists(gaussians, min_size=3, max_size=3), min_size=3, max_size=3),
)
small_ints = st.integers(min_value=-30, max_value=30)
units = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])


@st.composite
def square_mass_vectors(draw):
    """r * (m^2 - n^2, 2mn, c) times units of {1, -1, i, -i}: the first
    two coordinates carry the squared mass r^2 (m^2 + n^2)^2, and a
    coordinate with a real or imaginary entry always has a square mass."""
    m, n, c = draw(small_ints), draw(small_ints), draw(small_ints)
    r = draw(rationals)
    entries = []
    for value in (m * m - n * n, 2 * m * n, c):
        re, im = draw(units)
        entries.append(GaussianRational(r * value * re, r * value * im))
    return QVector(entries)


MEASUREMENTS3 = (
    ProjectiveMeasurement.from_partition(3, {"a": [0, 1], "b": [2]}),
    ProjectiveMeasurement.from_partition(3, {"a": [0], "b": [1], "c": [2]}),
    ProjectiveMeasurement.from_partition(3, {"all": [0, 1, 2]}),
)


@given(matrices3, vectors3)
@settings(max_examples=40)
def test_apply_matches_reference(matrix: QMatrix, v: QVector) -> None:
    got = matrix.apply(v)
    want = reference_gaussian_apply(matrix, amplitudes(v))
    assert amplitudes(got) == want and got == QVector(want)


@given(st.one_of(vectors3, square_mass_vectors()), st.sampled_from(MEASUREMENTS3))
@settings(max_examples=120)
def test_measure_matches_reference(v: QVector, meas: ProjectiveMeasurement) -> None:
    if v.is_zero():
        return
    assert_measure_matches_reference(meas, v)


@given(st.one_of(vectors3, square_mass_vectors()))
@settings(max_examples=80)
def test_canonical_phase_matches_reference(v: QVector) -> None:
    assert amplitudes(canonical_phase(v)) == reference_canonical_phase(amplitudes(v))


def test_reference_cases_cover_every_branch_kind() -> None:
    i = GaussianRational(Fraction(0), Fraction(1))
    # One vector per canonical_phase case: the first nonzero entry has a
    # positive, a negative or a zero real part with either imaginary sign.
    leading = (
        GaussianRational(Fraction(3, 5), Fraction(1)),
        GaussianRational(Fraction(-3, 5), Fraction(1)),
        GaussianRational(Fraction(0), Fraction(2, 7)),
        GaussianRational(Fraction(0), Fraction(-2, 7)),
    )
    seen_flags = set()
    for lead in leading:
        vec = QVector([GR_ZERO, lead, GaussianRational(Fraction(4, 5), Fraction(-1, 3))])
        want = reference_canonical_phase(amplitudes(vec))
        assert amplitudes(canonical_phase(vec)) == want
        for meas in MEASUREMENTS3:
            assert_measure_matches_reference(meas, vec)
            seen_flags.update(b.renormalized for b in meas.measure(vec))
    assert seen_flags == {True, False}
    # A matrix with imaginary entries on a complex, unnormalized vector.
    phase = QMatrix.from_rows([[i, 0, 0], [0, Fraction(3, 5), GaussianRational(Fraction(0), Fraction(4, 5))], [0, 1, 1]])
    vec = QVector([lead, GaussianRational(Fraction(1, 3)), i])
    assert amplitudes(phase.apply(vec)) == reference_gaussian_apply(phase, amplitudes(vec))


def reference_apply(matrix: QMatrix, vector: QVector) -> QVector:
    """The integer loop that ``QMatrix.apply`` ran before it compiled its
    rows: every entry times the matrix's common denominator, one sum per
    row over its nonzero entries, and one gcd."""
    den = math.lcm(*(x.denominator for row in matrix.rows for e in row for x in (e.re, e.im)))
    rows = [
        [(j, e.re.numerator * (den // e.re.denominator), e.im.numerator * (den // e.im.denominator))
         for j, e in enumerate(row) if not e.is_zero()]
        for row in matrix.rows
    ]
    nums = vector.nums
    out = []
    for row in rows:
        re = im = 0
        for j, a, b in row:
            c, d = nums[j]
            re += a * c - b * d
            im += a * d + b * c
        out.append((re, im))
    den *= vector.den
    g = math.gcd(den, *(x for pair in out for x in pair))
    return QVector._make(den // g, tuple((a // g, b // g) for a, b in out))


def _random_rational(rng: random.Random) -> Fraction:
    return rng.choice((0, 0, 1, -1, Fraction(rng.randint(-9, 9), rng.randint(1, 12))))


def _random_gaussian(rng: random.Random) -> GaussianRational:
    return GaussianRational(Fraction(_random_rational(rng)), Fraction(_random_rational(rng)))


def _random_matrix(rng: random.Random, nrows: int, ncols: int) -> QMatrix:
    rows = [[_random_gaussian(rng) if rng.random() < 0.7 else GR_ZERO for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.5:
        rows[rng.randrange(nrows)] = [GR_ZERO] * ncols
    if ncols > 1 and rng.random() < 0.5:
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = GR_ZERO
    return QMatrix.from_rows(rows)


APPLY_SHAPES = [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (3, 3), (5, 5), (16, 16)]


@pytest.fixture
def int_text_limit():
    """The interpreter's default cap of 4,300 digits on int-to-str
    conversion, in force for the test, so that converting a longer int
    raises (CPython 3.11 and later, and 3.10's later patch releases)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("nrows, ncols", APPLY_SHAPES, ids=[f"{r}x{c}" for r, c in APPLY_SHAPES])
def test_compiled_apply_matches_the_integer_loop(nrows, ncols, int_text_limit) -> None:
    rng = random.Random(nrows * 100 + ncols)
    for case in range(25):
        matrix = _random_matrix(rng, nrows, ncols)
        vectors = [QVector([_random_gaussian(rng) for _ in range(ncols)]) for _ in range(4)]
        vectors += [QVector.basis(ncols, rng.randrange(ncols)), QVector([0] * ncols)]
        for vec in vectors:
            got, want = matrix.apply(vec), reference_apply(matrix, vec)
            assert (got.den, got.nums) == (want.den, want.nums)


def test_compiled_apply_never_writes_an_entry_as_text(int_text_limit) -> None:
    # An entry with more than 4,300 decimal digits: formatting it into
    # the compiled source would raise under the interpreter's cap.
    huge = Fraction(10 ** 4400 + 7, 3)
    assert huge.numerator.bit_length() > 14600
    rng = random.Random(4400)
    for nrows, ncols in APPLY_SHAPES:
        rows = [[_random_gaussian(rng) for _ in range(ncols)] for _ in range(nrows)]
        rows[rng.randrange(nrows)][rng.randrange(ncols)] = GaussianRational(Fraction(1, 7), -huge)
        matrix = QMatrix.from_rows(rows)
        vec = QVector([_random_gaussian(rng) for _ in range(ncols)])
        got, want = matrix.apply(vec), reference_apply(matrix, vec)
        assert (got.den, got.nums) == (want.den, want.nums)


def test_apply_shape_mismatch_message() -> None:
    for matrix, dim in ((ROT_A, 2), (QMatrix.from_rows([[1, 0, 0], [0, 1, 0]]), 2), (QMatrix.from_rows([[1]]), 3)):
        for _ in range(2):
            # Before and after the matrix compiles its unitary.
            with pytest.raises(ValueError) as exc:
                matrix.apply(QVector.basis(dim, 0))
            assert str(exc.value) == f"shape mismatch: {matrix.nrows}x{matrix.ncols} on dim {dim}"
            matrix.apply(QVector.basis(matrix.ncols, 0))
