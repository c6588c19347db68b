"""Exact scalar layer: rationals, Gaussian rationals, angles, intervals.

Numeric oracles in this file were computed independently (high-precision
mpmath at 50 digits, plus hand-checked rational arithmetic) and frozen as
rational bounds, so the assertions do not reuse the code under test to
produce its own expected values.
"""

from __future__ import annotations

import fractions
import hashlib
import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

from exactqfa import exactnum
from exactqfa.exactnum import (
    DYADIC_PI,
    MAX_PRECISION_BITS,
    ApproxProb,
    ExactnessError,
    ExactProb,
    GaussianRational,
    RationalInterval,
    SymbolicAngle,
    angle_probability,
    cos_sin_exact,
    dyadic_pi,
    format_gaussian,
    format_rational,
    one_minus_inv_e_bracket,
    parse_gaussian,
    parse_rational,
    ratio,
    reduced_over,
    sqrt2_pi,
)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10 ** 6
)


def test_to_json_and_decimal_write_every_exact_form() -> None:
    interval = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert exactnum.to_json(Fraction(-3, 6)) == "-1/2"
    assert exactnum.to_json(ExactProb(Fraction(2, 4))) == "1/2"
    assert exactnum.to_json(ApproxProb(interval)) == exactnum.to_json(interval) == {"hi": "1/2", "lo": "1/3"}
    assert exactnum.to_json({"a": (Fraction(1), None, "x/y", 3)}) == {"a": ["1/1", None, "x/y", 3]}
    assert exactnum.to_json(dyadic_pi(Fraction(1, 4))) == {"coeff": "1/4", "kind": DYADIC_PI}
    assert exactnum.decimal(Fraction(1, 3)) == exactnum.decimal(ExactProb(Fraction(1, 3))) == "0.333333333333333"
    # An interval's decimal is its midpoint's, here 5/12.
    assert exactnum.decimal(ApproxProb(interval)) == "0.416666666666667"
    assert [exactnum.decimal(v) for v in ("1/2", 7, None)] == ["", "", ""]


def test_format_rational_canonical() -> None:
    assert format_rational(Fraction(1)) == "1/1"
    assert format_rational(Fraction(-3, 6)) == "-1/2"
    assert parse_rational("16/25") == Fraction(16, 25)
    assert parse_rational("7") == Fraction(7)
    with pytest.raises(ValueError):
        parse_rational("1/0")


@given(rationals)
def test_rational_round_trip(x: Fraction) -> None:
    assert parse_rational(format_rational(x)) == x


def abs2(z: GaussianRational) -> Fraction:
    """Squared modulus, always an exact nonnegative rational."""
    return z.re * z.re + z.im * z.im


def contains(interval: RationalInterval, value: Fraction) -> bool:
    return interval.lo <= value <= interval.hi


def test_gaussian_arithmetic_basics() -> None:
    i = GaussianRational(Fraction(0), Fraction(1))
    assert i * i == GaussianRational(Fraction(-1), Fraction(0))
    z = GaussianRational(Fraction(3, 5), Fraction(-4, 5))
    assert abs2(z) == Fraction(1)
    assert z * z.conjugate() == GaussianRational(Fraction(1), Fraction(0))


gaussians = st.builds(GaussianRational, rationals, rationals)


@given(gaussians, gaussians, gaussians)
@settings(max_examples=60)
def test_gaussian_ring_laws(a: GaussianRational, b: GaussianRational, c: GaussianRational) -> None:
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert abs2(a * b) == abs2(a) * abs2(b)


@given(gaussians)
def test_gaussian_round_trip(z: GaussianRational) -> None:
    assert parse_gaussian(format_gaussian(z)) == z


def test_gaussian_format_examples() -> None:
    assert format_gaussian(GaussianRational(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3 i"
    assert format_gaussian(GaussianRational(Fraction(0), Fraction(1))) == "0/1+1/1 i"
    assert parse_gaussian("-2/5+7/3 i") == GaussianRational(Fraction(-2, 5), Fraction(7, 3))
    assert parse_gaussian("4/9") == GaussianRational(Fraction(4, 9), Fraction(0))


def test_angle_kind_rules() -> None:
    with pytest.raises(ValueError):
        SymbolicAngle("DyadicPi", Fraction(1, 3))
    with pytest.raises(ValueError):
        SymbolicAngle("Euler", Fraction(1))
    a = dyadic_pi(Fraction(1, 4))
    b = sqrt2_pi(Fraction(2))
    with pytest.raises(ExactnessError):
        a + b
    # Zero of either kind mixes freely.
    zero = dyadic_pi(0)
    assert (zero + b) == b
    assert (b + zero) == b
    assert (a + dyadic_pi(Fraction(1, 4))).coeff == Fraction(1, 2)
    assert (b + sqrt2_pi(3)).coeff == Fraction(5)
    assert SymbolicAngle.from_json(b.to_json()) == b


def test_angle_probability_exact_cases() -> None:
    assert angle_probability(dyadic_pi(Fraction(1, 2))) == ExactProb(Fraction(1))
    assert angle_probability(dyadic_pi(1)) == ExactProb(Fraction(0))
    assert angle_probability(dyadic_pi(Fraction(-3, 2))) == ExactProb(Fraction(1))
    assert angle_probability(dyadic_pi(0)) == ExactProb(Fraction(0))
    assert angle_probability(sqrt2_pi(0)) == ExactProb(Fraction(0))


def test_angle_probability_rejects_low_precision() -> None:
    with pytest.raises(ValueError):
        angle_probability(sqrt2_pi(1), precision_bits=8)


def test_angle_probability_dyadic_quarter() -> None:
    # sin^2(pi/4) = 1/2 exactly; the dyadic-but-not-half-integer case is
    # interval valued but must certify tightly around 1/2.
    p = angle_probability(dyadic_pi(Fraction(1, 4)), precision_bits=64)
    assert isinstance(p, ApproxProb)
    assert contains(p.interval, Fraction(1, 2))
    assert p.interval.hi - p.interval.lo <= Fraction(1, 2 ** 64)


def test_angle_probability_sqrt2_oracles() -> None:
    # Oracle: sin^2(sqrt(2) pi) = 0.9291080928344088... (50-digit mpmath).
    p1 = angle_probability(sqrt2_pi(1), precision_bits=64)
    assert isinstance(p1, ApproxProb)
    assert p1.interval.lo > Fraction(9291, 10000)
    assert p1.interval.hi < Fraction(9292, 10000)
    assert p1.interval.hi - p1.interval.lo <= Fraction(1, 2 ** 64)
    # Oracle: sin^2(2 sqrt(2) pi) = 0.2634649786560654... (50-digit mpmath).
    p2 = angle_probability(sqrt2_pi(2), precision_bits=64)
    assert p2.as_interval().lo > Fraction(2634, 10000)
    assert p2.as_interval().hi < Fraction(2635, 10000)


MPMATH_PROBE = """
import sys
from exactqfa import cli
from exactqfa.analysis import run_exact_realtime
from exactqfa.constructions import build
from exactqfa.exactnum import angle_probability, format_rational, sqrt2_pi

run_exact_realtime(build("AW_PAL"), "abbcbba")
print("mpmath" in sys.modules)
interval = angle_probability(sqrt2_pi(1), 64).interval
print(format_rational(interval.lo), format_rational(interval.hi))
print("mpmath" in sys.modules)
"""


def test_mpmath_is_imported_only_for_an_enclosure() -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", MPMATH_PROBE], capture_output=True, text=True, env=env, check=True
    )
    before, interval, after = done.stdout.splitlines()
    assert (before, after) == ("False", "True")
    # The enclosure of sin^2(sqrt(2) pi) recorded while mpmath was imported
    # at module load.
    assert interval == (
        "17971564202246762970218641/19342813113834066795298816"
        " 2246445525280845371277331/2417851639229258349412352"
    )


def iv_sin_squared(angle: SymbolicAngle, precision_bits: int, work=None) -> RationalInterval:
    """The enclosure as mpmath's ``iv`` context computes it: the oracle
    that the libmp kernels must match endpoint for endpoint. ``work``, when
    given, replaces the first working precision."""

    def to_fraction(t) -> Fraction:
        sign, man, exp, _ = t
        man = int(man)
        if man == 0:
            return Fraction(0)
        value = Fraction(man * 2 ** exp) if exp >= 0 else Fraction(man, 2 ** (-exp))
        return -value if sign else value

    coeff = angle.coeff
    if angle.kind == DYADIC_PI:
        coeff = coeff % 1
    target_width = Fraction(1, 2 ** precision_bits)
    iv = mpmath.iv
    saved_prec = iv.prec
    try:
        magnitude_bits = max(abs(coeff.numerator), 1).bit_length() + 4
        if work is None:
            work = precision_bits + magnitude_bits + 16
        while True:
            iv.prec = work
            coeff_iv = iv.mpf(coeff.numerator) / iv.mpf(coeff.denominator)
            if angle.kind == DYADIC_PI:
                arg = iv.pi * coeff_iv
            else:
                arg = iv.pi * iv.sqrt(2) * coeff_iv
            result = (iv.mpf(1) - iv.cos(2 * arg)) / 2
            lo_t, hi_t = result._mpi_
            lo = max(to_fraction(lo_t), Fraction(0))
            hi = min(to_fraction(hi_t), Fraction(1))
            if hi >= lo and hi - lo <= target_width:
                return RationalInterval(lo, hi)
            work *= 2
    finally:
        iv.prec = saved_prec


def seeded_angles(seed: int, per_kind: int) -> "list[tuple[SymbolicAngle, int]]":
    """``per_kind`` signed Sqrt2Pi angles with any denominator and as many
    DyadicPi angles, at each of 16, 64, 128, 200 and 1000 bits."""
    rng = random.Random(seed)
    cases = []
    for bits in (16, 64, 128, 200, 1000):
        for _ in range(per_kind):
            num = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 64)) or 1
            cases.append((sqrt2_pi(Fraction(num, rng.randint(1, 2 ** rng.randint(1, 40)))), bits))
            cases.append((dyadic_pi(Fraction(rng.randint(-(2 ** 70), 2 ** 70), 2 ** rng.randint(0, 80))), bits))
    return cases


def endpoint_digest(cases) -> str:
    digest = hashlib.sha256()
    for angle, bits in cases:
        box = angle_probability(angle, bits).as_interval()
        digest.update(f"{format_rational(box.lo)} {format_rational(box.hi)}\n".encode())
    return digest.hexdigest()


def test_enclosures_keep_their_pinned_endpoints() -> None:
    # Both digests were recorded with the enclosure computed in mpmath's
    # iv context (mpmath 1.3.0). A new mpmath release may move them.
    eq_angles = ((sqrt2_pi(c), 64) for c in range(1, 10 ** 4 + 1))
    assert endpoint_digest(eq_angles) == "c9c8d3245db585fa57593b725f17af1e45b99703152dbc0446db7281306cc6ef"
    assert endpoint_digest(seeded_angles(14, 40)) == (
        "953036124ea77a86b95bf915433e1d973d0a8f0d1f1436b34d17ca647ffca2cb"
    )


def test_enclosures_equal_the_iv_context() -> None:
    for angle, bits in seeded_angles(15, 20):
        if angle_probability(angle, bits).is_exact():
            continue
        assert exactnum._interval_sin_squared(angle, bits) == iv_sin_squared(angle, bits)


def test_an_escalating_enclosure_equals_the_iv_context_at_the_doubled_precision(monkeypatch) -> None:
    # No angle met so far needs a second pass, so the first pass is made to
    # fail: its cosine is widened to all of [-1, 1].
    precisions = []
    interval_cos = exactnum._interval_cos

    def widened_once(x, prec):
        precisions.append(prec)
        return (libmp.fnone, libmp.fone) if len(precisions) == 1 else interval_cos(x, prec)

    monkeypatch.setattr(exactnum, "_interval_cos", widened_once)
    mp_prec, iv_prec = mpmath.mp.prec, mpmath.iv.prec
    for angle, bits in ((sqrt2_pi(Fraction(-7, 3)), 64), (dyadic_pi(Fraction(5, 16)), 200)):
        precisions.clear()
        box = exactnum._interval_sin_squared(angle, bits)
        assert len(precisions) == 2 and precisions[1] == 2 * precisions[0]
        assert box == iv_sin_squared(angle, bits, work=precisions[1])
    assert (mpmath.mp.prec, mpmath.iv.prec) == (mp_prec, iv_prec)


def _mpf(value: Fraction, prec: int = 200):
    return libmp.from_rational(value.numerator, value.denominator, prec, libmp.round_nearest)


def _near_quarter_turns(k: int, offset: int, prec: int = 200):
    """k * pi/2 + offset * 2^-60, rounded at ``prec`` bits."""
    quarter = libmp.mpf_shift(libmp.mpf_mul_int(libmp.mpf_pi(prec), k, prec), -1)
    return libmp.mpf_add(quarter, libmp.from_man_exp(offset, -60), prec)


# Intervals that no enclosure of c*sqrt(2)*pi for c <= 10^4 reaches.
COS_INTERVALS = [
    # One multiple of pi/2 inside: the cosine's zero at pi/2, its
    # minimum at pi, a maximum at 2*pi.
    (_mpf(Fraction(3, 2)), _mpf(Fraction(17, 10))),
    (_mpf(Fraction(3)), _mpf(Fraction(33, 10))),
    (_mpf(Fraction(6)), _mpf(Fraction(13, 2))),
    # Two multiples inside: pi/2 and pi, pi and 3*pi/2, 3*pi/2 and 2*pi.
    (_mpf(Fraction(3, 2)), _mpf(Fraction(16, 5))),
    (_mpf(Fraction(3)), _mpf(Fraction(5))),
    (_mpf(Fraction(9, 2)), _mpf(Fraction(13, 2))),
    # Just across a multiple, 2^-60 on either side.
    *((_near_quarter_turns(k, -1), _near_quarter_turns(k, 1)) for k in range(1, 9)),
    # Four or more quadrants wide.
    (_mpf(Fraction(1, 10)), _mpf(Fraction(7))),
    (_mpf(Fraction(-5)), _mpf(Fraction(5))),
    (_mpf(Fraction(1)), _mpf(Fraction(1000))),
    # Negative.
    (_mpf(Fraction(-2)), _mpf(Fraction(-1))),
    (_mpf(Fraction(-7)), _mpf(Fraction(-1, 10))),
    (_mpf(Fraction(-1, 2)), _mpf(Fraction(1, 4))),
    (_near_quarter_turns(-3, -1), _near_quarter_turns(-3, 1)),
    # Zero ends, tiny ends below every working precision, and huge ends.
    (libmp.fzero, libmp.fzero),
    (libmp.fzero, _mpf(Fraction(1))),
    (_mpf(Fraction(-1)), libmp.fzero),
    (libmp.from_man_exp(-1, -3000), libmp.from_man_exp(1, -3000)),
    (libmp.from_man_exp(3, 100), libmp.from_man_exp(3, 100)),
    (libmp.from_man_exp(-(2 ** 70) - 1, 30), libmp.from_man_exp(-(2 ** 70) + 1, 30)),
    # Unbounded.
    (libmp.fninf, libmp.fzero),
    (libmp.fone, libmp.finf),
]


@pytest.mark.parametrize("prec", [16, 53, 64, 200, 1000])
@pytest.mark.parametrize("x", COS_INTERVALS)
def test_the_interval_cosine_is_the_cos_half_of_mpi_cos_sin(x, prec) -> None:
    assert exactnum._interval_cos(x, prec) == libmp.mpi_cos(x, prec)


def test_the_interval_cosine_equals_mpi_cos_on_the_seeded_arguments(monkeypatch) -> None:
    seen = []
    interval_cos = exactnum._interval_cos

    def recorded(x, prec):
        seen.append((x, prec))
        return interval_cos(x, prec)

    monkeypatch.setattr(exactnum, "_interval_cos", recorded)
    for angle, bits in seeded_angles(17, 20):
        if bits in (16, 64, 1000):
            angle_probability(angle, bits)
    assert len(seen) > 100
    for x, prec in seen:
        assert interval_cos(x, prec) == libmp.mpi_cos(x, prec)


def _two_reduction_cos_quadrant(x, wp: int) -> tuple:
    """``cos_sin_quadrant``'s cosine and quadrant: ``mpf_cos`` at ``wp``
    bits, and a second reduction mod pi/2 at 15 bits."""
    if x == libmp.fzero:
        return libmp.fone, 0
    sign, man, exp, bc = x
    n = libmp.libelefun.mod_pi2(man, exp, exp + bc, 15)[1]
    return libmp.mpf_cos(x, wp), -1 - n if sign else n


def _cos_quadrant_arguments(wp: int) -> list:
    """Zero; every magnitude from below 2^-(wp + 10) to 2^-wp and a few
    above, of both signs; ends 2^-40, 2^-60 and 2^-200 either side of
    k*pi/2 for k = 1..8 and -3; and magnitudes up to 2^64."""
    rng = random.Random(wp)
    args = [libmp.fzero]
    for mag in [*range(-(wp + 14), -wp + 3), *range(1, 65)]:
        for sign in (1, -1):
            args.append(libmp.from_man_exp(sign * (rng.getrandbits(52) | 1 << 52), mag - 53))
    for k in (*range(1, 9), -3):
        quarter = libmp.mpf_shift(libmp.mpf_mul_int(libmp.mpf_pi(400), k, 400), -1)
        for offset in (40, 60, 200):
            args += [libmp.mpf_add(quarter, libmp.from_man_exp(d, -offset), 400) for d in (-1, 1)]
    return args


@pytest.mark.parametrize("wp", [36, 84, 118, 220, 1044])
def test_one_reduction_gives_the_cosine_and_quadrant_of_two(wp) -> None:
    quadrants, negative = set(), 0
    for x in _cos_quadrant_arguments(wp):
        got = exactnum._cos_quadrant(x, wp)
        assert got == _two_reduction_cos_quadrant(x, wp), x
        quadrants.add(got[1] % 4)
        negative += got[0][0]
    # Every quadrant rotation is taken, and negative cosines are rounded.
    assert quadrants == {0, 1, 2, 3} and negative > 20


def test_enclosures_leave_mpmath_global_state_alone() -> None:
    mp_prec, iv_prec = mpmath.mp.prec, mpmath.iv.prec
    for angle, bits in seeded_angles(16, 3):
        angle_probability(angle, bits)
    assert (mpmath.mp.prec, mpmath.iv.prec) == (mp_prec, iv_prec)
    maxsize = exactnum._two_pi_intervals.cache_info().maxsize
    assert isinstance(maxsize, int) and exactnum._two_pi_intervals.cache_info().currsize <= maxsize


@pytest.mark.parametrize(
    "t, shift",
    [
        (libmp.fzero, -1),
        (libmp.from_man_exp(-3, -5), 0),
        (libmp.from_man_exp(-3, -5), -1),
        (libmp.from_man_exp(5, 3), 0),
        (libmp.from_man_exp(5, 0), -1),
        (libmp.from_man_exp(12, 7), -1),
    ],
)
def test_mpf_to_fraction_is_the_reduced_dyadic(t, shift) -> None:
    sign, man, exp, _ = t
    k = exp + shift
    want = Fraction((-1) ** sign * int(man) * 2 ** max(k, 0), 2 ** max(-k, 0))
    got = exactnum._mpf_to_fraction(t, shift)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want)


def test_an_oversize_sqrt2_coefficient_is_refused_before_any_enclosure(monkeypatch) -> None:
    enclosed = []
    monkeypatch.setattr(exactnum, "_interval_sin_squared", lambda angle, bits: enclosed.append(angle))
    at_cap = 2 ** MAX_PRECISION_BITS - 1
    for coeff in (Fraction(at_cap), Fraction(-at_cap, at_cap - 2), Fraction(1, at_cap)):
        angle_probability(sqrt2_pi(coeff))
    assert len(enclosed) == 3
    for coeff in (Fraction(at_cap + 2), Fraction(-1, at_cap + 1), Fraction(3 * at_cap, at_cap + 1)):
        with pytest.raises(ExactnessError, match="over the cap of 65536 bits"):
            angle_probability(sqrt2_pi(coeff))
    assert len(enclosed) == 3


def test_an_oversize_dyadic_coefficient_is_refused_before_any_enclosure(monkeypatch) -> None:
    # The cap reads the coefficient mod 1, whose denominator is the
    # coefficient's: a long numerator alone is no reason to refuse.
    enclosed = []
    monkeypatch.setattr(exactnum, "_interval_sin_squared", lambda angle, bits: enclosed.append(angle))
    at_cap = 2 ** (MAX_PRECISION_BITS - 1)
    for coeff in (Fraction(1, at_cap), Fraction(-(5 * at_cap ** 4 + 3), at_cap), Fraction(at_cap - 1, at_cap)):
        angle_probability(dyadic_pi(coeff))
    assert len(enclosed) == 3
    # A half-integer stays exact at any size.
    assert angle_probability(dyadic_pi(Fraction(2 * at_cap ** 4 + 1, 2))) == ExactProb(Fraction(1))
    for coeff in (Fraction(1, 2 * at_cap), Fraction(-(at_cap ** 4) - 1, 2 * at_cap), Fraction(3, 2 ** 100000)):
        with pytest.raises(ExactnessError, match=r"a DyadicPi angle coefficient of \d+ bits is over the cap of 65536"):
            angle_probability(dyadic_pi(coeff))
    assert len(enclosed) == 3


@given(st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=997))
@settings(max_examples=40, deadline=None)
def test_angle_probability_precision_nesting(coeff: Fraction) -> None:
    # Doubling the precision must tighten the enclosure, never move it.
    angle = sqrt2_pi(coeff)
    wide = angle_probability(angle, precision_bits=64).as_interval()
    narrow = angle_probability(angle, precision_bits=128).as_interval()
    assert wide.lo <= narrow.lo and narrow.hi <= wide.hi
    assert Fraction(0) <= wide.lo and wide.hi <= Fraction(1)
    assert narrow.hi - narrow.lo <= Fraction(1, 2 ** 128)


def test_cos_sin_exact_table() -> None:
    assert cos_sin_exact(dyadic_pi(0)) == (Fraction(1), Fraction(0))
    assert cos_sin_exact(dyadic_pi(Fraction(1, 2))) == (Fraction(0), Fraction(1))
    assert cos_sin_exact(dyadic_pi(1)) == (Fraction(-1), Fraction(0))
    assert cos_sin_exact(dyadic_pi(Fraction(3, 2))) == (Fraction(0), Fraction(-1))
    assert cos_sin_exact(dyadic_pi(Fraction(-1, 2))) == (Fraction(0), Fraction(-1))
    assert cos_sin_exact(dyadic_pi(Fraction(-3, 2))) == (Fraction(0), Fraction(1))
    assert cos_sin_exact(dyadic_pi(-7)) == (Fraction(-1), Fraction(0))
    with pytest.raises(ExactnessError, match="is not exactly representable"):
        cos_sin_exact(dyadic_pi(Fraction(1, 4)))
    with pytest.raises(ExactnessError, match="is not exactly representable"):
        cos_sin_exact(sqrt2_pi(1))


def test_interval_invariants() -> None:
    with pytest.raises(ValueError):
        RationalInterval(Fraction(1), Fraction(0))
    box = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert contains(box, Fraction(2, 5))
    assert not contains(box, Fraction(2, 3))
    assert box.lo >= Fraction(1, 3)
    assert not box.lo > Fraction(1, 3)


def test_one_minus_inv_e_bracket() -> None:
    # Oracle: 1 - 1/e = 0.6321205588285576... (50-digit mpmath); the
    # certified bracket must pin it inside (0.632, 0.6322) with lots of slack.
    box = one_minus_inv_e_bracket()
    assert box.lo > Fraction(79, 125)
    assert box.hi < Fraction(3161, 5000)
    assert box.hi - box.lo < Fraction(1, 10 ** 20)


@st.composite
def over_a_base(draw) -> "tuple[int, int, int]":
    """(num, den, base) with den a product of small prime powers and base
    holding each of those primes, and maybe others; num may share them."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7)), unique=True, max_size=3))
    den = base = 1
    for p in primes:
        den *= p ** draw(st.integers(0, 60))
        base *= p ** draw(st.integers(1, 3))
    base *= draw(st.sampled_from((1, 11, 13)))
    num = draw(st.one_of(st.just(0), st.integers(-(2 ** 400), 2 ** 400)))
    # A factor of a base prime makes num share a prime with den, so the
    # fallback runs.
    num *= draw(st.sampled_from((1, *primes, *(p * p for p in primes))))
    return num, den, base


@given(over_a_base())
@settings(max_examples=300)
@example((0, 1, 1))
@example((0, 8, 2))
@example((7, 1, 5))
@example((12, 8, 2))
@example((-50, 5 ** 40 * 2 ** 3, 10))
@example((3 ** 5 * 11, 3 ** 9, 3 * 11))
@example((2 ** 100 + 1, 2 ** 100, 2))
def test_reduced_over_matches_fraction(case) -> None:
    num, den, base = case
    got, want = reduced_over(num, den, base), Fraction(num, den)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want)
    assert format_rational(got) == format_rational(want)


def test_ratio_matches_fraction() -> None:
    # Signed numerators, 0 among them, over denominators of 1 to 12,000
    # bits, with a shared factor half the time.
    rng = random.Random(20261020)
    cases = [(0, 1), (0, 7), (5, 1), (-6, 4), (2 ** 12000, 2 ** 11999 * 3)]
    for _ in range(400):
        den = rng.getrandbits(rng.randint(1, 12000)) or 1
        num = rng.choice((0, 1, -1)) * rng.getrandbits(rng.randint(1, 12000))
        shared = rng.choice((1, rng.getrandbits(rng.randint(1, 600)) | 1))
        cases.append((num * shared, den * shared))
    assert max(den.bit_length() for _, den in cases) > 10 ** 4
    for num, den in cases:
        got, want = ratio(num, den), Fraction(num, den)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got == want and hash(got) == hash(want)
        assert exactnum.to_json(got) == exactnum.to_json(want)


def test_reduced_over_skips_fractions_gcd_on_a_coprime_pair(monkeypatch) -> None:
    calls = []
    shim = types.SimpleNamespace(**vars(math))
    shim.gcd = lambda *args: calls.append(args) or math.gcd(*args)
    monkeypatch.setattr(fractions, "math", shim)
    den = 5 ** 4000 * 2 ** 10
    # 3^5000 ends in 1, so 3^5000 + 2 is prime to 10.
    assert reduced_over(3 ** 5000 + 2, den, 10).denominator == den
    assert calls == []
    # A shared power of two is shifted out, and each pass divides out the
    # shared part of base's odd part, here 5.
    assert reduced_over(2 ** 7 * 5 * (3 ** 5000 + 2), den, 10).denominator == den // (2 ** 7 * 5)
    assert calls == []
    # Each pass divides out one 5 here, so one more than the passes leaves
    # a 5 shared, which Fraction's gcd takes.
    fives = 5 ** (exactnum.REDUCE_PASSES + 1)
    assert reduced_over(fives * (3 ** 5000 + 2), den, 10).denominator == den // fives
    assert len(calls) == 1


@given(
    st.integers(-(2 ** 300), 2 ** 300),
    st.tuples(st.integers(0, 3000), st.integers(0, 3000)),
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
)
@settings(max_examples=200, deadline=None)
@example(-(3 ** 12), (2900, 3000), (12, 12), (1, 1))
@example(2 ** 3000 - 1, (0, 3000), (0, 12), (3, 1))
def test_reduced_over_strips_shared_powers(num, twos, threes, base_powers) -> None:
    # Long shared runs of 2, and shared powers of 3 that may take more
    # passes than reduced_over makes, against Fraction(num, den).
    num *= 2 ** twos[0] * 3 ** threes[0]
    den = 2 ** twos[1] * 3 ** threes[1]
    base = 2 ** base_powers[0] * 3 ** base_powers[1] if threes[1] else 2 ** base_powers[0]
    got, want = reduced_over(num, den, base), Fraction(num, den)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want)
