"""Exact linear algebra layer: vectors, matrices, projective measurement.

The 3x3 rotation oracles below were verified by hand: the matrices are
integer matrices divided by 5 whose rows are orthonormal, so applying one
to a basis vector just reads off a column divided by 5.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactqfa.exactnum import GaussianRational
from exactqfa.qstate import (
    ProjectiveMeasurement,
    QMatrix,
    QVector,
    renormalize_exact,
)

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
    assert e1.to_json() == ["1/1+0/1 i", "0/1+0/1 i", "0/1+0/1 i"]
    assert QVector.from_json(e1.to_json()) == e1
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
    assert out == QVector.from_entries([Fraction(4, 5), Fraction(-3, 5), 0])
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
        meas.measure(QVector.zero(2))
    assert ProjectiveMeasurement.from_json(meas.to_json()) == meas


def test_measurement_drops_impossible_outcomes() -> None:
    meas = ProjectiveMeasurement.from_partition(3, {"one": [0], "two": [1], "three": [2]})
    branches = meas.measure(QVector.basis(3, 1))
    assert len(branches) == 1
    assert branches[0].outcome == "two"
    assert branches[0].probability == 1


def test_renormalize_exact_cases() -> None:
    vec = QVector.from_entries([Fraction(4, 5), 0, 0])
    unit, ok = renormalize_exact(vec)
    assert ok and unit == QVector.basis(3, 0)
    # Squared norm 1/2 is not a rational square: the raw projection stays.
    raw = QVector.from_entries([Fraction(1, 2), Fraction(1, 2), 0])
    kept, ok = renormalize_exact(raw)
    assert not ok and kept == raw
    zero, ok = renormalize_exact(QVector.zero(2))
    assert not ok and zero == QVector.zero(2)


def test_unnormalized_measurement_probabilities() -> None:
    # Probabilities are relative to the current squared norm, so an
    # unnormalized vector still yields a total of one.
    meas = ProjectiveMeasurement.from_partition(3, {"a": [0], "b": [1], "c": [2]})
    vec = QVector.from_entries([Fraction(1, 2), Fraction(1, 2), 0])
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
    u = QVector.basis(2, 1)
    assert u.kron(u) == QVector.basis(4, 3)


def test_matrix_json_round_trip() -> None:
    assert QMatrix.from_json(ROT_A.to_json()) == ROT_A


def test_equal_vectors_from_different_routes_hash_equal() -> None:
    half = Fraction(1, 2)
    for cache_first in (None, "left", "right"):
        left = QVector.from_entries([half, 0, 0])
        right = QVector.basis(3, 0).scale(half)
        assert left.amplitudes is not right.amplitudes
        if cache_first == "left":
            hash(left)
        elif cache_first == "right":
            hash(right)
        assert left == right and right == left
        assert hash(left) == hash(right)
        assert {left: 1}[right] == 1
    assert QVector.basis(3, 0) != QVector.basis(3, 1)
