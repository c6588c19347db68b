"""Exact scalar arithmetic: big-integer rationals, Gaussian rationals,
symbolic angles, and certified interval evaluation of trigonometric values.

Every quantity that can be represented exactly is kept as a
``fractions.Fraction`` (arbitrary precision, always canonical: reduced,
positive denominator). Quantities that are provably irrational, such as
sin^2 of a sqrt(2) multiple of pi, are returned as closed rational
intervals guaranteed to contain the true value, evaluated with directed
(outward) rounding at a caller-chosen precision. Interval endpoints are
exact rationals, so every downstream comparison against an interval is a
certified bound check, never a sampled float comparison.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Sequence, Union

DYADIC_PI = "DyadicPi"
SQRT2_PI = "Sqrt2Pi"

MIN_PRECISION_BITS = 16
# The largest precision an enclosure is asked for. A Sqrt2Pi coefficient
# whose numerator or denominator is longer is refused, and so is a
# DyadicPi coefficient whose value mod 1 has one: the working precision
# grows with its length, and so does the cost, faster than linearly.
MAX_PRECISION_BITS = 1 << 16


class ExactnessError(ValueError):
    """Raised when an exact rational value is required but unavailable."""


def format_rational(value: Fraction) -> str:
    """Serialize as "p/q" with q > 0 and gcd(p, q) == 1, e.g. "-3/5", "1/1"."""
    return f"{value.numerator}/{value.denominator}"


class Document:
    """A dataclass whose document is its fields, each written by ``to_json``."""

    def to_json(self) -> dict:
        return {f.name: to_json(getattr(self, f.name)) for f in fields(self)}


def to_json(value):
    """The document form of a value, the one place exact values are written.

    A Fraction is "p/q" and an exact probability is its value; an
    interval, or a probability known only as one, is {"lo", "hi"}. A
    Document writes its own document, any other dataclass its fields,
    and a dict, list or tuple is written item by item. Anything else
    (str, int, bool, None) is its own document.
    """
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, ExactProb):
        return format_rational(value.value)
    if isinstance(value, ApproxProb):
        value = value.interval
    if isinstance(value, RationalInterval):
        return {"hi": format_rational(value.hi), "lo": format_rational(value.lo)}
    if isinstance(value, Document):
        return value.to_json()
    if is_dataclass(value):
        return Document.to_json(value)
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(item) for item in value]
    return value


def decimal(value) -> str:
    """The CSV decimal of a value: 15 significant digits of a Fraction or
    exact probability, or of an interval's midpoint; "" for anything else."""
    if isinstance(value, ExactProb):
        value = value.value
    elif isinstance(value, ApproxProb):
        value = value.interval
    if isinstance(value, RationalInterval):
        value = (value.lo + value.hi) / 2
    if isinstance(value, Fraction):
        return format(float(value), ".15g")
    return ""


# The most passes ``reduced_over`` makes to divide out a shared odd
# factor before it leaves the rest to Fraction's gcd.
REDUCE_PASSES = 4


def reduced_over(num: int, den: int, base: int) -> Fraction:
    """num/den in lowest terms, for den > 0 and base > 0 such that every
    prime of ``den`` divides ``base``.

    The power of 2 the pair shares is shifted out of both, after which at
    most one of them is even. Any prime still common to num and den is
    odd and divides base's odd part ``odd``, so it divides
    shared = gcd(gcd(num % odd, odd), den), which takes a division of
    each full-size integer by a small one. When shared is 1 the pair is
    coprime, and the Fraction is built from it without Fraction's own gcd
    on the full-size integers; otherwise shared is divided out of both
    and the test runs again. After REDUCE_PASSES passes this is
    Fraction(num, den).
    """
    if not num:
        return Fraction(0)
    if not (num & 1 or den & 1):
        # x & -x is the lowest set bit of x, for a negative x too.
        shift = min((num & -num).bit_length(), (den & -den).bit_length()) - 1
        num, den = num >> shift, den >> shift
    odd = base >> ((base & -base).bit_length() - 1)
    for _ in range(REDUCE_PASSES):
        shared = math.gcd(num % odd, odd)
        if shared != 1:
            shared = math.gcd(den % shared, shared)
        if shared == 1:
            return _reduced(num, den)
        num, den = num // shared, den // shared
    return Fraction(num, den)


def _reduced(num: int, den: int) -> Fraction:
    """num/den for a pair already in lowest terms with den > 0, built
    without Fraction's gcd."""
    # Both slots are set, as Fraction.__new__ sets them for a reduced pair.
    value = object.__new__(Fraction)
    value._numerator = num
    value._denominator = den
    return value


def ratio(num: int, den: int) -> Fraction:
    """Fraction(num, den) for integers with den > 0, from one gcd."""
    g = math.gcd(num, den)
    return _reduced(num // g, den // g)


# The most digits of a numerator or denominator that ``parse_rational``
# reads. int() is quadratic in the digits. The longest numeral a
# construction writes is EVENODD_MCQFA's turn 1/2^(k+1) at its largest k,
# 2^(2^20+1) with 315,654 digits, which takes about 0.55 s to read on a
# 2-CPU box.
MAX_NUMERAL_DIGITS = 320_000


def _numeral(text: str) -> int:
    if len(text.strip().lstrip("+-")) > MAX_NUMERAL_DIGITS:
        raise ValueError(f"a numeral exceeds the cap of {MAX_NUMERAL_DIGITS} digits")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer "p"); denominator 0 is a ValueError,
    and so is a numerator or denominator of over MAX_NUMERAL_DIGITS digits."""
    body = text.strip()
    if "/" in body:
        num_text, den_text = body.split("/", 1)
        den = _numeral(den_text)
        if den == 0:
            raise ValueError(f"rational with denominator 0: {text!r}")
        return Fraction(_numeral(num_text), den)
    return Fraction(_numeral(body))


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))


def format_gaussian(value: GaussianRational) -> str:
    """Serialize as "p/q+r/s i" (sign of the imaginary part folds into the +)."""
    re_text = format_rational(value.re)
    if value.im < 0:
        return f"{re_text}-{format_rational(-value.im)} i"
    return f"{re_text}+{format_rational(value.im)} i"


def parse_gaussian(text: str) -> GaussianRational:
    """Parse "p/q+r/s i" or "p/q-r/s i"; a bare rational means imaginary part 0."""
    body = text.strip()
    if body.endswith("i"):
        body = body[:-1].strip()
        # Split at the sign that separates real from imaginary, skipping a
        # leading sign on the real part.
        for pos in range(len(body) - 1, 0, -1):
            ch = body[pos]
            if ch in "+-" and body[pos - 1] not in "+-/":
                re_part = parse_rational(body[:pos])
                im_part = parse_rational(body[pos + 1:])
                if ch == "-":
                    im_part = -im_part
                return GaussianRational(re_part, im_part)
        raise ValueError(f"malformed Gaussian rational: {text!r}")
    return GaussianRational(parse_rational(body), Fraction(0))


@dataclass(frozen=True)
class SymbolicAngle(Document):
    """An angle of one of exactly two symbolic kinds.

    DyadicPi represents coeff * pi where coeff is a dyadic rational
    (denominator a power of two). Sqrt2Pi represents coeff * sqrt(2) * pi
    with any rational coeff. These are the only two angle families the
    automata in this package rotate by, so no general symbolic field is
    needed. Addition is defined within one kind, or when either operand is
    the zero angle (zero is common to both kinds).
    """

    kind: str
    coeff: Fraction

    def __post_init__(self) -> None:
        if self.kind not in (DYADIC_PI, SQRT2_PI):
            raise ValueError(f"unknown angle kind: {self.kind!r}")
        if self.kind == DYADIC_PI:
            den = self.coeff.denominator
            if den & (den - 1):
                raise ValueError(
                    f"DyadicPi coefficient must have a power-of-two denominator, got {self.coeff}"
                )

    def __hash__(self) -> int:
        # Registers are dict keys on every square, and a Fraction's hash
        # takes a modular inverse, so the fields' hash is kept once made.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.kind, self.coeff))
            object.__setattr__(self, "_hash", cached)
        return cached

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __add__(self, other: "SymbolicAngle") -> "SymbolicAngle":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.kind != other.kind:
            raise ExactnessError(
                f"cannot add angles of different kinds: {self.kind} + {other.kind}"
            )
        return SymbolicAngle(self.kind, self.coeff + other.coeff)

    def scale(self, factor: int) -> "SymbolicAngle":
        return SymbolicAngle(self.kind, self.coeff * factor)

    @staticmethod
    def from_json(doc: dict) -> "SymbolicAngle":
        return SymbolicAngle(doc["kind"], parse_rational(doc["coeff"]))


def dyadic_pi(coeff) -> SymbolicAngle:
    return SymbolicAngle(DYADIC_PI, Fraction(coeff))


def sqrt2_pi(coeff) -> SymbolicAngle:
    return SymbolicAngle(SQRT2_PI, Fraction(coeff))


ZERO_ANGLE = SymbolicAngle(DYADIC_PI, Fraction(0))


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class ExactProb:
    """Probability known exactly as a rational."""

    value: Fraction

    def as_interval(self) -> RationalInterval:
        return RationalInterval(self.value, self.value)

    def ends(self) -> "tuple[Fraction, Fraction]":
        return self.value, self.value

    def is_exact(self) -> bool:
        return True


@dataclass(frozen=True)
class ApproxProb:
    """Probability known only as a certified enclosing interval."""

    interval: RationalInterval

    def as_interval(self) -> RationalInterval:
        return self.interval

    def ends(self) -> "tuple[Fraction, Fraction]":
        return self.interval.lo, self.interval.hi

    def is_exact(self) -> bool:
        return False


# Any probability-like quantity that is either an exact rational or a
# certified enclosing interval.
ProbValue = Union[ExactProb, ApproxProb]

PROB_ZERO = ExactProb(Fraction(0))
PROB_ONE = ExactProb(Fraction(1))


def prob_exact(value) -> ExactProb:
    return ExactProb(Fraction(value))


def prob_complement(p: ProbValue) -> ProbValue:
    lo, hi = p.ends()
    return ExactProb(1 - lo) if lo == hi else ApproxProb(RationalInterval(1 - hi, 1 - lo))


def cut_points(bounds: "Sequence[tuple[Fraction, Fraction]]", scale_bits: int) -> "list[tuple[int, int]]":
    """The integer draws at scale 2^scale_bits that certainly pick each outcome.

    ``bounds[i]`` encloses the cumulative probability of outcomes 0..i,
    whose true total is exactly 1. A draw ``num`` stands for the window
    [num, num + 1) / 2^s of uniform values, and outcome i owns that
    whole window, wherever the true cumulative values lie inside their
    bounds, exactly when ``lo_i <= num < hi_i`` for the returned pair.
    Here lo_i = ceil(bounds[i - 1].hi * 2^s), or 0 for the first
    outcome, and hi_i = floor(bounds[i].lo * 2^s), or 2^s for the last
    outcome, since every draw lies below 1. As num is an integer, these
    are the rational tests num / 2^s >= bounds[i - 1].hi and
    (num + 1) / 2^s <= bounds[i].lo.
    """
    cuts = []
    lo = 0
    last = len(bounds) - 1
    for i, (cum_lo, cum_hi) in enumerate(bounds):
        hi = 1 << scale_bits if i == last else (cum_lo.numerator << scale_bits) // cum_lo.denominator
        cuts.append((lo, hi))
        lo = -((-cum_hi.numerator << scale_bits) // cum_hi.denominator)
    return cuts


def _mpf_to_fraction(t, shift: int = 0) -> Fraction:
    """The finite mpmath mpf tuple ``t`` times 2^shift, as a Fraction.

    A nonzero mpf is normalised to an odd mantissa, so man / 2^k is in
    lowest terms and the Fraction is built without a gcd.
    """
    sign, man, exp, _ = t
    if not man:
        return Fraction(0)
    man = -int(man) if sign else int(man)
    exp += shift
    if exp >= 0:
        return Fraction(man << exp)
    return _reduced(man, 1 << -exp)


@functools.cache
def _libmp():
    """mpmath's ``libmp``, imported at the first enclosure: only
    irrational-angle enclosures need mpmath, and the import costs more
    than most runs that never reach one."""
    from mpmath import libmp

    return libmp


# Working precisions whose 2*pi and 2*pi*sqrt(2) enclosures are kept. The
# enclosures of c*sqrt(2)*pi for c <= 10^4 at 64 bits start at 14.
_CONSTANT_PRECISIONS = 64


@functools.lru_cache(maxsize=_CONSTANT_PRECISIONS)
def _two_pi_intervals(work: int) -> tuple:
    """(2*pi, 2*pi*sqrt(2)) as mpmath interval tuples at ``work`` bits.

    pi is enclosed by its floor and ceiling, as the ``iv`` context's
    constant is, and pi*sqrt(2) is one interval product. Doubling an
    endpoint is exact in binary, so these equal the doubled ``iv`` values.
    """
    libmp = _libmp()
    pi = (libmp.mpf_pi(work, libmp.round_floor), libmp.mpf_pi(work, libmp.round_ceiling))
    two = (libmp.from_int(2), libmp.from_int(2))
    pi_root2 = libmp.mpi_mul(pi, libmp.mpi_sqrt(two, work), work)
    return libmp.mpi_mul(two, pi, work), libmp.mpi_mul(two, pi_root2, work)


@functools.lru_cache(maxsize=_CONSTANT_PRECISIONS)
def _perturbations(wp: int) -> tuple:
    """(1 + 2^(10-wp), 1 - 2^(10-wp)): the factors ``mpi_cos_sin`` multiplies
    each end by at ``wp`` bits to force its rounding outward."""
    libmp = _libmp()
    return (
        libmp.from_man_exp((libmp.MPZ_ONE << wp) + (libmp.MPZ_ONE << 10), -wp),
        libmp.from_man_exp((libmp.MPZ_ONE << wp) - (libmp.MPZ_ONE << 10), -wp),
    )


def _cos_quadrant(x, wp: int) -> tuple:
    """cos(x) rounded at ``wp`` bits and the quadrant index of x.

    The cosine half of ``libmp.libmpi.cos_sin_quadrant`` on one reduction,
    where it makes two: the code of ``mpf_cos_sin(x, wp, round_fast,
    which=1)`` off its pi path, whose ``mod_pi2`` also gives the quadrant.
    """
    libmp = _libmp()
    if x == libmp.fzero:
        return libmp.fone, 0
    sign, man, exp, bc = x
    mag = exp + bc
    if mag < -(wp + 10):
        return libmp.mpf_perturb(libmp.fone, 1, wp, libmp.libmpf.round_fast), -1 if sign else 0
    # ``cos_sin_quadrant`` takes n from a second ``mod_pi2(man, exp, mag,
    # 15)``, and the two agree. For mag > 0, ``mod_pi2`` at w bits truncates
    # |x| and ``pi_fixed`` floors pi/2, which together move the remainder by
    # at most 1 + 2^mag units, and it stops only once the remainder is at
    # least 2^(w + mag - 10) units from a multiple of pi/2. At every w >= 15
    # that is more than the error, so n is the exact floor(|x| / (pi/2)) at
    # w = 15 and at w = wp + 10 alike. For mag <= 0 it is 0, as above.
    t, n, work = libmp.libelefun.mod_pi2(man, exp, mag, wp + 10)
    c, s = libmp.libelefun.cos_sin_basecase(t, work)
    c = (c, -s, -c, s)[n & 3]
    return libmp.from_man_exp(c, -work, wp, libmp.libmpf.round_fast), -1 - n if sign else n


def _interval_cos(x, prec: int) -> tuple:
    """The cosine half of ``libmp.mpi_cos_sin(x, prec)``, computed without the sine.

    Each step is ``mpi_cos_sin``'s, on the cosine alone: the two ends at
    ``prec + 20`` bits, the quadrant tests for a maximum or minimum between
    them, and the outward perturbation and clamp at ``prec`` bits.
    """
    libmp = _libmp()
    a, b = x
    fone, fnone = libmp.fone, libmp.fnone
    if a == b == libmp.fzero:
        return fone, fone
    if libmp.finf in x or libmp.fninf in x:
        return fnone, fone
    wp = prec + 20
    ca, na = _cos_quadrant(a, wp)
    cb, nb = _cos_quadrant(b, wp)
    # Ordered as ``mpf_min_max`` orders the two.
    if libmp.mpf_lt(cb, ca):
        ca, cb = cb, ca
    if na != nb:
        if nb - na >= 4:
            return fnone, fone
        if na // 4 != nb // 4:
            cb = fone
        if (na - 2) // 4 != (nb - 2) // 4:
            ca = fnone
    more, less = _perturbations(wp)
    ca = libmp.mpf_mul(ca, more if ca[0] else less, prec, libmp.round_floor)
    cb = libmp.mpf_mul(cb, less if cb[0] else more, prec, libmp.round_ceiling)
    if ca[2] + ca[3] >= 1:
        ca = fnone if ca[0] else fone
    if cb[2] + cb[3] >= 1:
        cb = fnone if cb[0] else fone
    return ca, cb


def _interval_sin_squared(angle: SymbolicAngle, precision_bits: int) -> RationalInterval:
    """Directed-rounding enclosure of sin^2(angle), width <= 2^-precision_bits.

    Evaluated as (1 - cos(2*angle)) / 2 to keep the enclosure tight, with
    the working precision raised until the requested width is met. The
    result is intersected with [0, 1], which preserves containment because
    the true value always lies in [0, 1].

    The endpoints are bit for bit those of mpmath's ``iv`` context, which
    evaluated ``(1 - iv.cos(2 * (iv.pi * iv.sqrt(2) * c))) / 2``, with
    ``c = iv.mpf(num) / iv.mpf(den)`` and no sqrt(2) for DyadicPi, at
    ``iv.prec`` set to the working precision. That context calls
    ``mpmath.libmp`` kernels, and here the same kernels are called in the
    same order at the same precision, with no global context to save and
    restore. The one exception is ``iv.cos``: its ``mpi_cos`` computes sine
    and cosine at both ends, reducing each end mod pi/2 twice, and keeps
    the cosine. ``_interval_cos`` runs the cosine's code of ``mpf_cos_sin``
    on one reduction per end, which also gives the end's quadrant
    (``_cos_quadrant``), so the cosine it returns is the same. Each kernel
    rounds outward to the working precision, and scaling an endpoint by a
    power of two, or dividing it by 1, is exact in binary and commutes
    with that rounding. So the factor 2 sits in the cached constant, a
    denominator of 1 is not divided by, and the final halving is a shift
    of the exponent, and no endpoint moves. The clamps and the width test
    read the ends' integer mantissas and exponents, which are exact, and
    only the two returned ends become Fractions.
    """
    libmp = _libmp()
    coeff = angle.coeff
    if angle.kind == DYADIC_PI:
        # sin^2(c*pi) has period 1 in c; exact reduction keeps arguments small.
        coeff = coeff % 1
    num, den = coeff.numerator, coeff.denominator
    floor, ceiling, from_int, fone = libmp.round_floor, libmp.round_ceiling, libmp.from_int, libmp.fone
    # Guard bits cover the argument magnitude plus rounding slack.
    magnitude_bits = max(abs(num), 1).bit_length() + 4
    work = precision_bits + magnitude_bits + 16
    while True:
        coeff_iv = (from_int(num, work, floor), from_int(num, work, ceiling))
        if den != 1:
            coeff_iv = libmp.mpi_div(coeff_iv, (from_int(den, work, floor), from_int(den, work, ceiling)), work)
        two_pi, two_pi_root2 = _two_pi_intervals(work)
        arg = libmp.mpi_mul(two_pi if angle.kind == DYADIC_PI else two_pi_root2, coeff_iv, work)
        cos_lo, cos_hi = _interval_cos(arg, work)
        # 1 - cos as ``mpi_sub`` computes it; the ends are finite.
        lo_t = libmp.mpf_sub(fone, cos_hi, work, floor)
        hi_t = libmp.mpf_sub(fone, cos_lo, work, ceiling)
        # Halved and clamped into [0, 1], each end as a signed man * 2^exp.
        lo_sign, lo_man, lo_exp, _ = lo_t
        hi_sign, hi_man, hi_exp, hi_bc = hi_t
        lo_end = (0, 0) if lo_sign else (int(lo_man), lo_exp - 1)
        hi_is_one = not hi_sign and hi_man and hi_exp + hi_bc >= 2
        hi_end = (1, 0) if hi_is_one else (-int(hi_man) if hi_sign else int(hi_man), hi_exp - 1)
        # 0 <= hi - lo <= 2^-precision_bits, on integers over 2^low.
        low = min(lo_end[1], hi_end[1], -precision_bits)
        width = (hi_end[0] << (hi_end[1] - low)) - (lo_end[0] << (lo_end[1] - low))
        if 0 <= width <= 1 << (-precision_bits - low):
            return RationalInterval(
                Fraction(0) if lo_sign else _mpf_to_fraction(lo_t, -1),
                Fraction(1) if hi_is_one else _mpf_to_fraction(hi_t, -1),
            )
        work *= 2


def angle_probability(angle: SymbolicAngle, precision_bits: int = 64) -> ProbValue:
    """sin^2 of a symbolic angle, exact when analytically forced.

    Returns ExactProb exactly when the value is forced to 0 or 1: a
    DyadicPi angle whose coefficient is an integer multiple of 1/2, or the
    zero angle of either kind. Every other case returns ApproxProb with a
    certified enclosure of width at most 2^-precision_bits. A Sqrt2Pi
    coefficient with a numerator or denominator over MAX_PRECISION_BITS
    bits raises ExactnessError, and so does a DyadicPi coefficient whose
    value mod 1 has one.
    """
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits must be >= {MIN_PRECISION_BITS}, got {precision_bits}")
    coeff = angle.coeff
    if coeff == 0:
        return ExactProb(Fraction(0))
    if angle.kind == DYADIC_PI:
        if (2 * coeff).denominator == 1:
            # Half-integer multiples of pi: sin^2 is 0 at integers, 1 at halves.
            return ExactProb(Fraction(0) if coeff.denominator == 1 else Fraction(1))
        # The enclosure reads c mod 1, whose numerator is below its
        # denominator, which is c's.
        size = coeff.denominator.bit_length()
    else:
        size = max(abs(coeff.numerator), coeff.denominator).bit_length()
    if size > MAX_PRECISION_BITS:
        raise ExactnessError(
            f"a {angle.kind} angle coefficient of {size} bits is over the cap of "
            f"{MAX_PRECISION_BITS} bits for a certified enclosure"
        )
    return ApproxProb(_interval_sin_squared(angle, precision_bits))


# (cos, sin) after 0, 1, 2 and 3 quarter turns.
_QUARTER_TURNS = (
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(-1)),
)


def quarter_turns(angle: SymbolicAngle) -> int:
    """The number of quarter turns, mod 4, of an angle whose cos and sin are
    forced into {-1, 0, 1}.

    Only DyadicPi angles with half-integer coefficients qualify. Raises
    ExactnessError otherwise.
    """
    coeff = angle.coeff
    if coeff == 0:
        return 0
    if angle.kind != DYADIC_PI or coeff.denominator > 2:
        raise ExactnessError(f"cos/sin of {angle} is not exactly representable")
    return 2 * coeff.numerator // coeff.denominator % 4


def cos_sin_exact(angle: SymbolicAngle) -> "tuple[Fraction, Fraction]":
    """(cos, sin) of an angle whose components are forced into {-1, 0, 1}.

    Raises ExactnessError where ``quarter_turns`` does.
    """
    return _QUARTER_TURNS[quarter_turns(angle)]


# Taylor terms of e summed by ``one_minus_inv_e_bracket``.
E_TAYLOR_TERMS = 24


def one_minus_inv_e_bracket() -> RationalInterval:
    """Certified rational bracket around 1 - 1/e.

    Uses the exact Taylor partial sum for e with the standard tail bound
    sum_{k>n} 1/k! < 2/(n+1)!, all in rational arithmetic, so both
    endpoints are proven bounds rather than floating-point estimates.
    """
    partial = Fraction(0)
    factorial = 1
    for k in range(E_TAYLOR_TERMS + 1):
        if k > 0:
            factorial *= k
        partial += Fraction(1, factorial)
    tail = Fraction(2, factorial * (E_TAYLOR_TERMS + 1))
    e_lo, e_hi = partial, partial + tail
    # 1 - 1/e is increasing in e, so bounds map monotonically.
    return RationalInterval(1 - Fraction(1, 1) / e_lo, 1 - Fraction(1, 1) / e_hi)
